//! The repository benchmark: one workload, one seed, one worker thread,
//! a closed loop of units for a fixed host-time budget, output checks,
//! and every metric by name and unit. See `README.md` beside this
//! package for usage and `BENCHMARK.json` at the repository root for the
//! metric contract.

mod fleet;
mod measure;
mod node;
mod protocol;

use measure::{
    median, over_kinds, slowest_kind, Busy, Digest, Layers, Samples, SelfTime, UNIT_TRIM,
};
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order `--help` lists them.
const WORKLOADS: [&str; 4] = ["node-dram", "node-cache", "fleet", "protocol-ecc"];

/// Set-up samples per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;

/// Shortest timed set-up sample, in CPU seconds.
const SETUP_SAMPLE_S: f64 = 50e-3;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <node-dram|node-cache|fleet|protocol-ecc> --seed <u64> [--seconds <1-600>] [--trace <0|1>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            other => return Err(format!("unknown argument '{other}'")),
        };
        if slot.is_some() {
            return Err(format!("{flag} given twice"));
        }
        let value = it
            .next()
            .filter(|v| !v.starts_with("--"))
            .ok_or_else(|| format!("{flag} needs a value"))?;
        *slot = Some(value.clone());
    }
    let workload = workload.ok_or("--workload is required")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == workload)
        .ok_or_else(|| {
            format!(
                "unknown workload '{workload}' (expected one of {})",
                WORKLOADS.join(", ")
            )
        })?;
    let seed = seed.ok_or("--seed is required")?;
    let seed = seed
        .parse::<u64>()
        .map_err(|_| format!("--seed '{seed}' is not an unsigned integer"))?;
    let seconds = match seconds {
        None => 10,
        Some(s) => match s.parse::<u64>() {
            Ok(n @ 1..=600) => n,
            _ => return Err(format!("--seconds '{s}' is not an integer in 1..=600")),
        },
    };
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace '{t}' must be 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Units run (cells, federation runs, protocol reads).
    pub units: u64,
    /// Units whose output check failed.
    pub failed: u64,
    /// Individual comparisons the checks made; 0 fails the run.
    pub compared: u64,
    /// Every simulated statistic of the fixed digest rounds.
    pub digest: Digest,
    /// Reference-host seconds of one workload set-up.
    pub setup_s: f64,
    /// Timed untraced rounds.
    pub plain: Work,
    /// Timed traced rounds.
    pub traced: Work,
    /// Traced rounds run, the untimed round 0 included (the layer
    /// timers run in every traced round).
    pub traced_rounds: u64,
    /// Yardstick nanoseconds per op of every pass the run made.
    pub host_ns: Vec<f64>,
    /// Host time per timed unit, one distribution per unit kind.
    pub unit_us: Vec<Samples>,
    /// Whether the current round is timed; round 0 warms the process
    /// up and only its checks and digest count.
    pub timing: bool,
    /// Per-layer metrics (traced runs).
    pub layers: Layers,
    /// Self time per layer over the traced rounds, in nanoseconds.
    pub self_times: Vec<SelfTime>,
    /// Host nanoseconds of the traced rounds' timed work.
    pub traced_ns: f64,
}

/// Work items completed and the host CPU seconds they took, summed over
/// rounds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    pub rounds: u64,
    pub items: f64,
    pub cpu_s: f64,
}

impl Work {
    /// Items per host CPU second; 0 before any round.
    pub fn rate(&self) -> f64 {
        measure::ratio(self.items, self.cpu_s)
    }
}

impl Report {
    /// Records the host time of one unit of kind `kind`, in seconds,
    /// if the round is timed.
    pub fn unit(&mut self, kind: usize, seconds: f64) {
        if self.timing {
            self.unit_us[kind].push(seconds);
        }
    }

    /// This host's time relative to the reference host, from every
    /// yardstick pass of the run (see [`measure::reference_scale`]).
    pub fn scale(&self) -> f64 {
        measure::reference_scale(&self.host_ns)
    }

    /// Records one unit's check: `checks` comparisons, all passing iff
    /// `ok`.
    pub fn check(&mut self, ok: bool, checks: u64) {
        self.units += 1;
        self.compared += checks;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The closed loop: rounds back to back until `seconds` of host time
/// have passed, and never fewer than the two digest rounds (three when
/// tracing, so that a traced round is timed). Round 0 warms the process
/// up: it is checked and digested but not timed. In a traced run even
/// rounds are traced and odd rounds are plain, so the tracing overhead
/// is measured interleaved within one process.
/// `round(index, traced, report, busy)` times its work through `busy`
/// and returns the work items it completed.
///
/// Every time is kept as measured on this host; the yardstick passes
/// that [`Busy`] runs between blocks scale the whole run to the
/// reference host at the end (see [`Report::scale`]).
pub fn closed_loop(
    seconds: u64,
    trace: bool,
    report: &mut Report,
    mut round: impl FnMut(u64, bool, &mut Report, &mut Busy) -> u64,
) {
    let start = Instant::now();
    let mut index = 0u64;
    // Untraced: the warm-up round and one timed round. Traced: also a
    // timed traced round.
    let min_rounds = 2 + u64::from(trace);
    while index < min_rounds || start.elapsed().as_secs_f64() < seconds as f64 {
        let traced = trace && index.is_multiple_of(2);
        report.timing = index > 0;
        let mut busy = Busy::default();
        let items = round(index, traced, report, &mut busy) as f64;
        report.host_ns.append(&mut busy.passes);
        if traced {
            report.traced_rounds += 1;
            report.traced_ns += busy.wall_s * 1e9;
        }
        if report.timing {
            let work = if traced {
                &mut report.traced
            } else {
                &mut report.plain
            };
            work.rounds += 1;
            work.items += items;
            work.cpu_s += busy.cpu_s;
        }
        index += 1;
    }
}

/// Takes [`SETUP_REPEATS`] timed samples of `setup` from scratch, with a
/// yardstick pass after each, and records in `report.setup_s` the median
/// set-up time scaled to the reference host by the median of those
/// passes; returns the last state. Set-up takes the first fraction of a second
/// of the run, so the run's own scale (its median pass over the whole
/// run) would describe other host conditions than the ones set-up ran
/// in. Each sample times a batch of set-ups that takes at least
/// [`SETUP_SAMPLE_S`], each dropping the state of the one before, so
/// neither the clock nor the odd cache miss or page fault makes up the
/// figure, and one state is alive at a time.
pub fn timed_setup<T>(report: &mut Report, mut setup: impl FnMut() -> T) -> T {
    let mut batch = 1usize;
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut passes = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    while times.len() < SETUP_REPEATS {
        drop(state.take());
        let start = measure::thread_cpu_s();
        for _ in 0..batch {
            drop(state.take());
            state = Some(setup());
        }
        let elapsed = measure::thread_cpu_s() - start;
        if elapsed < SETUP_SAMPLE_S && batch < 1 << 20 {
            batch *= 2;
            continue;
        }
        times.push(elapsed / batch as f64);
        passes.push(measure::yardstick_pass(measure::YARDSTICK_PASS_OPS));
    }
    report.setup_s = median(&mut times) / (median(&mut passes) / measure::YARDSTICK_REF_NS);
    report.host_ns.append(&mut passes);
    state.expect("at least one set-up")
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn run(args: &Args) -> ExitCode {
    // One worker thread: the pool would otherwise fan federation shards
    // and model priming across every CPU of a shared host.
    runner::set_jobs(1);
    let clock = measure::ClockCost::calibrate();
    let yardstick = measure::yardstick_ns_per_op();
    let mut report = match args.workload {
        "node-dram" => node::run(
            node::Kind::Dram,
            args.seed,
            args.seconds,
            args.trace,
            &clock,
        ),
        "node-cache" => node::run(
            node::Kind::Cache,
            args.seed,
            args.seconds,
            args.trace,
            &clock,
        ),
        "fleet" => fleet::run(args.seed, args.seconds, args.trace, &clock),
        "protocol-ecc" => protocol::run(args.seed, args.seconds, args.trace, &clock),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    };
    let rss = measure::peak_rss_mb().unwrap_or(0.0);
    let correct = report.failed == 0 && report.compared > 0 && report.units > 0;

    println!(
        "workload {} seed {} digest {:016x}",
        args.workload,
        args.seed,
        report.digest.value()
    );
    println!(
        "units {} failed {} comparisons {} rounds {}+{} (plain+traced)",
        report.units, report.failed, report.compared, report.plain.rounds, report.traced.rounds
    );
    let scale = report.scale();
    println!(
        "host: yardstick {:.1} ns/op at start, median {:.1} over {} passes; raw throughput {:.0}/s",
        yardstick,
        median(&mut report.host_ns.clone()),
        report.host_ns.len(),
        report.plain.rate()
    );
    let metrics: Vec<String> = if args.trace {
        let plain = report.plain.rate();
        let traced = report.traced.rate();
        report.layers.set("host.yardstick_ns_per_op", yardstick);
        report.layers.set(
            "host.trace_overhead_pct",
            (plain / traced.max(1e-9) - 1.0) * 100.0,
        );
        let attributed: f64 = report.self_times.iter().map(|s| s.ns).sum();
        let remainder = report.traced_ns - attributed;
        report.layers.set(
            "host.unattributed_pct",
            measure::ratio(remainder, report.traced_ns) * 100.0,
        );
        println!(
            "self time over {:.3} s of traced rounds:",
            report.traced_ns / 1e9
        );
        for s in &report.self_times {
            println!(
                "  {:<24} {:>10.3} ms {:>6.1} %",
                s.layer,
                s.ns / 1e6,
                measure::ratio(s.ns, report.traced_ns) * 100.0
            );
        }
        println!(
            "  {:<24} {:>10.3} ms {:>6.1} %",
            "(unattributed)",
            remainder / 1e6,
            measure::ratio(remainder, report.traced_ns) * 100.0
        );
        println!("per-layer metrics:");
        for (name, value, unit) in report.layers.rows() {
            println!("  {name:<40} {value:>16.4} {unit}");
        }
        report
            .layers
            .rows()
            .map(|(name, value, unit)| json_metric(name, value, unit))
            .collect()
    } else {
        let samples: u64 = report.unit_us.iter().map(Samples::len).sum();
        let at = |q| over_kinds(&report.unit_us, |k| k.percentile_us(q)) / scale;
        let trimmed = |k: &Samples| k.trimmed_mean_us(UNIT_TRIM);
        println!(
            "unit latency over {samples} unit(s) in {} kind(s): p10 {:.3} p50 {:.3} p90 {:.3} p99 {:.3} p99.9 {:.3} us",
            report.unit_us.len(),
            at(0.1),
            at(0.5),
            at(0.9),
            at(0.99),
            at(0.999)
        );
        vec![
            json_metric("setup_s", report.setup_s, "s"),
            json_metric("throughput_per_s", report.plain.rate() * scale, "1/s"),
            json_metric(
                "unit_us_trimmed",
                over_kinds(&report.unit_us, trimmed) / scale,
                "us",
            ),
            json_metric(
                "slow_kind_us_trimmed",
                slowest_kind(&report.unit_us, trimmed) / scale,
                "us",
            ),
            json_metric("peak_rss_mb", rss, "MB"),
        ]
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.units,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse_args(&argv) {
        Ok(args) => run(&args),
        Err(message) => {
            eprintln!("perfbench: {message} (see --help)");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn full_command_line_parses() {
        let args = parse(&[
            "--workload",
            "fleet",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "fleet",
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
    }

    #[test]
    fn malformed_flags_are_rejected() {
        for bad in [
            &["--workload", "fleet"][..],
            &["--seed", "1"],
            &["--workload", "nope", "--seed", "1"],
            &["--workload", "fleet", "--seed", "-1"],
            &["--workload", "fleet", "--seed", "1", "--seconds", "0"],
            &["--workload", "fleet", "--seed", "1", "--seconds", "x"],
            &["--workload", "fleet", "--seed", "1", "--trace", "2"],
            &["--workload", "fleet", "--seed"],
            &["--workload", "--seed", "1"],
            &["--workload", "fleet", "--seed", "1", "--seed", "2"],
            &["--workload", "fleet", "--seed", "1", "--bogus", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
