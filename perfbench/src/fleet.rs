//! `fleet`: the five-member federation of `experiments fleet` under
//! margin-aware placement, fed by a synthetic job stream; one federation
//! run per unit. Every shard regenerates and routes the whole stream,
//! so the traced run splits each run into job generation, routing and
//! the clusters' event loops.

use crate::measure::{ratio, round_seed, Acc, ClockCost, Samples, SelfTime};
use crate::{closed_loop, timed_setup, Report};
use scheduler::{
    from_specs, Cluster, ClusterSpec, Federation, FederationRun, Job, JobSource, PlacementPolicy,
    SchedulerConfig, SpecSource, SpeedupModel,
};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;
use workloads::jobs::{JobStream, SyntheticJobs};
use workloads::utilization::{Cluster as LanlCluster, UtilizationModel};

/// Jobs streamed per federation run.
const JOBS_PER_RUN: u64 = 100_000;
/// Offered utilization and widest job, as in `experiments fleet`.
const UTILIZATION: f64 = 0.75;
const MAX_NODES: u32 = 512;
const POLICY: PlacementPolicy = PlacementPolicy::MarginAware;

/// The `experiments fleet` federation: four margin-binned generations
/// and a conventional legacy system.
fn federation() -> Federation {
    let member = |name: &str, nodes: u32, groups: [f64; 3], at_800: [f64; 2], at_600: [f64; 2]| {
        ClusterSpec::new(
            name,
            Cluster::new(nodes, groups),
            SchedulerConfig::builder()
                .margin_aware()
                .speedups(SpeedupModel { at_800, at_600 })
                .build()
                .expect("fleet speedup tables are consistent"),
        )
    };
    Federation::new(vec![
        member(
            "grizzly",
            1_490,
            [0.62, 0.36, 0.02],
            [1.10, 1.06],
            [1.07, 1.04],
        ),
        member(
            "badger",
            660,
            [0.45, 0.40, 0.15],
            [1.08, 1.05],
            [1.05, 1.03],
        ),
        member(
            "ddr5",
            1_024,
            [0.70, 0.25, 0.05],
            [1.13, 1.08],
            [1.08, 1.05],
        ),
        member(
            "mrdimm",
            512,
            [0.85, 0.10, 0.05],
            [1.16, 1.10],
            [1.10, 1.06],
        ),
        ClusterSpec::new(
            "legacy",
            Cluster::conventional(1_024),
            SchedulerConfig::default(),
        ),
    ])
    .expect("fleet members are valid")
}

struct Setup {
    fed: Federation,
    stream: SyntheticJobs,
}

/// Builds the federation and opens the first run's stream (opening
/// calibrates the arrival rate from a fixed job sample).
fn setup(seed: u64) -> Setup {
    let fed = federation();
    let stream = SyntheticJobs {
        jobs: JOBS_PER_RUN,
        max_nodes: MAX_NODES,
        capacity_nodes: fed.total_nodes() as f64,
        target_utilization: UTILIZATION,
        utilization: UtilizationModel::for_cluster(LanlCluster::Grizzly),
    };
    black_box(stream.stream(round_seed(seed, 0)));
    Setup { fed, stream }
}

/// The source a shard pulls, timed at its `next_job` boundary. Each
/// shard owns one; its totals land in `sink` when the shard drops it.
struct TimedSource<'a> {
    inner: SpecSource<JobStream>,
    local: Acc,
    jobs: u64,
    sink: &'a Mutex<(Acc, u64)>,
}

impl JobSource for TimedSource<'_> {
    fn next_job(&mut self) -> Option<Job> {
        let job = self.local.time(|| self.inner.next_job());
        self.jobs += job.is_some() as u64;
        job
    }
}

impl Drop for TimedSource<'_> {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.0.add(&self.local);
            sink.1 += self.jobs;
        }
    }
}

/// Per-run checks: every job routed to exactly one member (the shards'
/// counts match an independent routing pass and sum to the stream),
/// the fleet summary saw every job, and no member exceeds full
/// utilization.
fn check(s: &Setup, seed: u64, run: &FederationRun) -> (bool, u64) {
    let mut expected = vec![0u64; s.fed.members().len()];
    let mut source = from_specs(s.stream.stream(seed));
    let mut jobs = 0u64;
    while let Some(job) = source.next_job() {
        expected[s.fed.route(&job, POLICY, seed)] += 1;
        jobs += 1;
    }
    let mut ok = jobs == JOBS_PER_RUN && run.fleet.jobs() == jobs;
    let mut checks = 2;
    for (member, want) in run.members.iter().zip(&expected) {
        ok &= member.routed == *want && member.utilization <= 1.0;
        checks += 2;
    }
    (ok, checks)
}

pub fn run(seed: u64, seconds: u64, trace: bool, clock: &ClockCost) -> Report {
    let mut report = Report {
        unit_us: vec![Samples::default()],
        ..Report::default()
    };
    let s = timed_setup(&mut report, || setup(seed));
    let sink = Mutex::new((Acc::default(), 0u64));
    let mut runs = Acc::default();
    let mut first: Option<(u64, FederationRun, u64)> = None;
    closed_loop(
        seconds,
        trace,
        &mut report,
        |index, traced, report, busy| {
            let round = round_seed(seed, index);
            let jobs_before = sink.lock().expect("timer sink is never poisoned").1;
            let (run, seconds) = busy.time(|| {
                if traced {
                    runs.time(|| {
                        s.fed.run(POLICY, round, || TimedSource {
                            inner: from_specs(s.stream.stream(round)),
                            local: Acc::default(),
                            jobs: 0,
                            sink: &sink,
                        })
                    })
                } else {
                    s.fed
                        .run(POLICY, round, || from_specs(s.stream.stream(round)))
                }
            });
            report.unit(0, seconds);
            let (ok, n) = check(&s, round, &run);
            report.check(ok, n);
            if index < 2 {
                report.digest.debug(&run);
            }
            if traced && first.is_none() {
                let generated = sink.lock().expect("timer sink is never poisoned").1 - jobs_before;
                first = Some((round, run, generated));
            }
            JOBS_PER_RUN
        },
    );
    if let Some((round, run, generated)) = first {
        let (jobgen, _) = *sink.lock().expect("timer sink is never poisoned");
        let route_ns = route_replay(&s, round);
        let jobgen_ns = jobgen.net_ns(clock);
        // Each pulled job is routed once by the pulling shard.
        let routed_calls = jobgen.calls - runs.calls * s.fed.members().len() as u64;
        let route_total = route_ns * routed_calls as f64;
        let cluster_ns = runs.raw_ns() - jobgen.raw_ns() - jobgen.outside_ns(clock) - route_total;
        let scheduled: u64 = run.members.iter().map(|m| m.routed).sum();
        let traced_jobs = (JOBS_PER_RUN * runs.calls) as f64;
        let layers = &mut report.layers;
        layers.set("workloads.jobgen.jobs", generated as f64);
        layers.set(
            "workloads.jobgen.ns_per_job",
            ratio(jobgen_ns, jobgen.calls as f64),
        );
        layers.set(
            "workloads.jobgen.useful_ratio",
            ratio(scheduled as f64, generated as f64),
        );
        layers.set("scheduler.route.calls", generated as f64);
        layers.set("scheduler.route.ns_per_call", route_ns);
        layers.set("scheduler.cluster.jobs", scheduled as f64);
        layers.set(
            "scheduler.cluster.self_ns_per_job",
            ratio(cluster_ns, traced_jobs),
        );
        layers.set(
            "scheduler.cluster.backfilled",
            run.fleet.backfilled() as f64,
        );
        report.self_times = vec![
            SelfTime {
                layer: "workloads.jobgen",
                ns: jobgen_ns,
            },
            SelfTime {
                layer: "scheduler.route",
                ns: route_total,
            },
            SelfTime {
                layer: "scheduler.cluster",
                ns: cluster_ns,
            },
            SelfTime {
                layer: "host.clock",
                ns: jobgen.clock_ns(clock),
            },
        ];
    }
    report
}

/// Host nanoseconds per `Federation::route` call, replayed over the
/// first traced run's stream once per member (as the shards call it),
/// with the jobs generated up front.
fn route_replay(s: &Setup, round: u64) -> f64 {
    let mut source = from_specs(s.stream.stream(round));
    let jobs: Vec<Job> = std::iter::from_fn(|| source.next_job()).collect();
    let members = s.fed.members().len();
    let start = Instant::now();
    for _ in 0..members {
        for job in &jobs {
            black_box(s.fed.route(black_box(job), POLICY, round));
        }
    }
    ratio(
        start.elapsed().as_nanos() as f64,
        (jobs.len() * members) as f64,
    )
}
