//! `protocol-ecc`: one Hetero-DMR channel in read mode over a fixed,
//! written working set; one protocol read per unit. Every 100th read is
//! injected with an error, cycling through every modelled error class,
//! so it takes the detect → slow down → re-read → repair path. Periodic
//! write-mode batches force frequency transitions. ECC series feed a
//! detector suite, and each round ends with incident evaluation plus
//! series, incident and metrics JSONL export.

use crate::measure::{ratio, round_seed, thread_cpu_s, Acc, Busy, ClockCost, Samples, SelfTime};
use crate::{closed_loop, timed_setup, Report};
use ecc::{inject, BlockCodec, DetectOutcome, ErrorModel, BLOCK_DATA_BYTES};
use hetero_dmr::protocol::OpMode;
use hetero_dmr::{HeteroDmrChannel, ReadOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use telemetry::monitor::{Detector, IncidentLedger, Severity};
use telemetry::series::{parse_series_jsonl, SeriesStore};
use telemetry::{format_jsonl, parse_jsonl, Registry};

/// Software-visible blocks per module (1 GiB of 64-byte blocks).
const BLOCKS_PER_MODULE: u64 = 1 << 24;
/// The written working set, in blocks.
const WORKING_SET: u64 = 4_096;
/// Reads per round.
const READS_PER_ROUND: u64 = 20_000;
/// Every this many reads, one is injected.
const INJECT_EVERY: u64 = 100;
/// Every this many reads, a write-mode batch of [`BATCH_WRITES`].
const BATCH_EVERY: u64 = 2_000;
const BATCH_WRITES: u64 = 32;
/// Simulated time between reads issued back to back.
const READ_GAP_PS: u64 = 50_000;
/// Series window width: 10 µs of simulated time.
const WINDOW_PS: u64 = 10_000_000;

fn detectors() -> Vec<Detector> {
    vec![
        Detector::threshold("detect.burst", "protocol.ecc.detect", Severity::Warning, 3),
        Detector::cusum(
            "cusum.detect",
            "protocol.ecc.detect",
            Severity::Warning,
            2_000,
            6_000,
        ),
        Detector::ewma(
            "ewma.reread",
            "protocol.ecc.reread_ps",
            Severity::Warning,
            300,
            2_000_000,
            4,
        ),
    ]
}

/// Deterministic block contents for `(block, version)`.
fn block_data(block: u64, version: u64) -> [u8; BLOCK_DATA_BYTES] {
    let mut data = [0u8; BLOCK_DATA_BYTES];
    let mut x = round_seed(block, version);
    for chunk in data.chunks_mut(8) {
        chunk.copy_from_slice(&x.to_le_bytes());
        x = round_seed(x, 1);
    }
    data
}

struct State {
    channel: HeteroDmrChannel,
    /// Expected contents of every working-set block.
    expected: Vec<[u8; BLOCK_DATA_BYTES]>,
    now: u64,
    reads: u64,
}

/// Writes the working set in conventional mode, then reports the
/// memory demand that activates replication and read mode.
fn setup(seed: u64) -> State {
    let mut channel = HeteroDmrChannel::new(BLOCKS_PER_MODULE);
    let expected: Vec<_> = (0..WORKING_SET).map(|b| block_data(b, seed)).collect();
    for (block, data) in expected.iter().enumerate() {
        channel
            .write(block as u64, data, 0)
            .expect("conventional channels accept writes");
    }
    let now = channel.set_used_blocks(WORKING_SET, 0);
    State {
        channel,
        expected,
        now,
        reads: 0,
    }
}

#[derive(Debug, Default)]
struct Timers {
    batches: Acc,
    monitor: Acc,
    export: Acc,
    reads: Acc,
    recovered: u64,
    batch_count: u64,
    transitions: u64,
    records: u64,
    windows: u64,
    evaluated: u64,
    incidents: u64,
    export_bytes: u64,
}

/// One write-mode batch: leave read mode, broadcast-write `BATCH_WRITES`
/// blocks with fresh contents, return to read mode.
fn write_batch(st: &mut State, rng: &mut StdRng, version: u64) -> Result<(), String> {
    let ch = &mut st.channel;
    let mut now = ch.begin_write_mode(st.now).map_err(|e| e.to_string())?;
    for _ in 0..BATCH_WRITES {
        let block = rng.random_range(0..WORKING_SET);
        let data = block_data(block, version);
        ch.write(block, &data, now).map_err(|e| e.to_string())?;
        st.expected[block as usize] = data;
        now += READ_GAP_PS;
    }
    st.now = ch.begin_read_mode(now).map_err(|e| e.to_string())?;
    Ok(())
}

/// One round of reads; returns the time spent in the loop.
fn round(
    st: &mut State,
    seed: u64,
    traced: bool,
    digest: bool,
    t: &mut Timers,
    report: &mut Report,
    busy: &mut Busy,
) {
    let registry = Registry::new();
    let store = SeriesStore::new();
    st.channel.attach_telemetry(&registry.scope("protocol"));
    st.channel.attach_series(&store, "protocol", WINDOW_PS);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inject_rng = StdRng::seed_from_u64(seed ^ 0xECC);
    let transitions_before = st.channel.transitions();
    let start = Instant::now();
    let start_cpu = thread_cpu_s();
    for i in 0..READS_PER_ROUND {
        if i > 0 && i % BATCH_EVERY == 0 {
            let version = seed.wrapping_add(i);
            let done = if traced {
                t.batches.time(|| write_batch(st, &mut rng, version))
            } else {
                write_batch(st, &mut rng, version)
            };
            report.compared += 1;
            if done.is_err() {
                report.failed += 1;
            }
            if traced && digest {
                t.batch_count += 1;
            }
        }
        let block = rng.random_range(0..WORKING_SET);
        let model = (st.reads % INJECT_EVERY == INJECT_EVERY - 1)
            .then(|| ErrorModel::ALL[(st.reads / INJECT_EVERY) as usize % ErrorModel::ALL.len()]);
        st.reads += 1;
        let read_start = Instant::now();
        let out = st
            .channel
            .read(block, st.now, model.map(|m| (&mut inject_rng, m)));
        let elapsed = read_start.elapsed();
        report.unit(usize::from(model.is_some()), elapsed.as_secs_f64());
        if traced {
            t.reads.raw += elapsed;
            t.reads.calls += 1;
        }
        let ok = match out {
            Ok((data, outcome, end)) => {
                st.now = end.max(st.now) + READ_GAP_PS;
                if traced && digest {
                    t.recovered += (outcome == ReadOutcome::Recovered) as u64;
                }
                if digest {
                    report.digest.debug(&(block, outcome, end));
                }
                let expected_outcome = if model.is_some() {
                    ReadOutcome::Recovered
                } else {
                    ReadOutcome::FastClean
                };
                data == st.expected[block as usize] && outcome == expected_outcome
            }
            // An UncorrectableOriginal is a failed unit.
            Err(_) => false,
        };
        report.check(ok && st.channel.mode() == OpMode::ReadMode, 3);
    }
    let monitor_start = Instant::now();
    let snapshot = store.snapshot();
    let ledger = IncidentLedger::evaluate(&snapshot, &detectors());
    let monitor_ns = monitor_start.elapsed();
    let export_start = Instant::now();
    let series_text = snapshot.to_jsonl();
    let incidents_text = ledger.to_jsonl();
    let metrics = registry.snapshot();
    let metrics_text = format_jsonl(&metrics);
    let export_ns = export_start.elapsed();
    busy.record(thread_cpu_s() - start_cpu, start.elapsed().as_secs_f64());

    // The series export writes one line per window, so a series that
    // never recorded (no down-bins, say) has no lines to parse back.
    let mut recorded = snapshot.clone();
    recorded.entries.retain(|e| !e.windows.is_empty());
    let round_trips = parse_series_jsonl(&series_text).is_ok_and(|s| s == recorded)
        && parse_jsonl(&metrics_text).is_ok_and(|m| m == metrics)
        && !snapshot.is_empty();
    report.compared += 1;
    if !round_trips {
        report.failed += 1;
    }
    if digest {
        report.digest.bytes(series_text.as_bytes());
        report.digest.bytes(incidents_text.as_bytes());
        report.digest.bytes(metrics_text.as_bytes());
    }
    if traced {
        t.monitor.raw += monitor_ns;
        t.monitor.calls += 1;
        t.export.raw += export_ns;
        t.export.calls += 1;
        if digest {
            t.transitions = st.channel.transitions() - transitions_before;
            t.records = snapshot.entries.iter().map(|e| e.total_count()).sum();
            t.windows = snapshot.window_count() as u64;
            t.evaluated = detectors()
                .iter()
                .filter_map(|d| snapshot.get(&d.series))
                .map(|e| match (e.windows.first(), e.windows.last()) {
                    (Some(f), Some(l)) => (l.0 - f.0) / e.width.max(1) + 1,
                    _ => 0,
                })
                .sum();
            t.incidents = ledger.len() as u64;
            t.export_bytes = (series_text.len() + incidents_text.len() + metrics_text.len()) as u64;
        }
    }
}

pub fn run(seed: u64, seconds: u64, trace: bool, clock: &ClockCost) -> Report {
    let mut report = Report {
        // Clean reads, then injected reads (the recovery path).
        unit_us: vec![Samples::default(); 2],
        ..Report::default()
    };
    let mut st = timed_setup(&mut report, || setup(seed));
    let mut t = Timers::default();
    closed_loop(
        seconds,
        trace,
        &mut report,
        |index, traced, report, busy| {
            let round_seed = round_seed(seed, index);
            round(&mut st, round_seed, traced, index < 2, &mut t, report, busy);
            READS_PER_ROUND
        },
    );
    if trace {
        let (encode_ns, detect_ns, correct_ns) = codec_replay(seed);
        let traced_rounds = report.traced_rounds as f64;
        let layers = &mut report.layers;
        layers.set("core.protocol.reads", READS_PER_ROUND as f64);
        layers.set("core.protocol.recovered", t.recovered as f64);
        layers.set(
            "core.protocol.ns_per_read",
            ratio(t.reads.net_ns(clock), t.reads.calls as f64),
        );
        layers.set("core.protocol.write_batches", t.batch_count as f64);
        layers.set(
            "core.protocol.ns_per_write_batch",
            ratio(t.batches.net_ns(clock), t.batches.calls as f64),
        );
        layers.set("dram.channel.transitions", t.transitions as f64);
        layers.set("ecc.codec.encode_ns", encode_ns);
        layers.set("ecc.codec.detect_ns", detect_ns);
        layers.set("ecc.codec.correct_ns", correct_ns);
        layers.set("telemetry.series.records", t.records as f64);
        layers.set("telemetry.series.windows", t.windows as f64);
        layers.set("telemetry.monitor.windows_evaluated", t.evaluated as f64);
        layers.set("telemetry.monitor.incidents", t.incidents as f64);
        layers.set(
            "telemetry.monitor.eval_ms",
            ratio(t.monitor.net_ns(clock), traced_rounds) / 1e6,
        );
        layers.set("telemetry.export.bytes", t.export_bytes as f64);
        layers.set(
            "telemetry.export.ns_per_byte",
            ratio(
                t.export.net_ns(clock),
                t.export_bytes as f64 * traced_rounds,
            ),
        );
        report.self_times = vec![
            SelfTime {
                layer: "core.protocol.read",
                ns: t.reads.net_ns(clock),
            },
            SelfTime {
                layer: "core.protocol.write_batch",
                ns: t.batches.net_ns(clock),
            },
            SelfTime {
                layer: "telemetry.monitor",
                ns: t.monitor.net_ns(clock),
            },
            SelfTime {
                layer: "telemetry.export",
                ns: t.export.net_ns(clock),
            },
            SelfTime {
                layer: "host.clock",
                ns: t.reads.clock_ns(clock) + t.batches.clock_ns(clock),
            },
        ];
    }
    report
}

/// Host nanoseconds per `BlockCodec` encode, detect and correct call,
/// replayed over working-set blocks with the read loop's corruptions
/// (every error class; correction only where ECC can correct).
fn codec_replay(seed: u64) -> (f64, f64, f64) {
    let codec = BlockCodec::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xECC);
    let data: Vec<_> = (0..WORKING_SET).map(|b| block_data(b, seed)).collect();
    let addr = |b: usize| b as u64 * BLOCK_DATA_BYTES as u64;

    let start = Instant::now();
    let clean: Vec<_> = data
        .iter()
        .enumerate()
        .map(|(b, d)| codec.encode(addr(b), black_box(d)))
        .collect();
    let encode = start.elapsed().as_nanos() as f64 / clean.len() as f64;

    let mut corrupt = clean.clone();
    for (b, block) in corrupt.iter_mut().enumerate() {
        inject(
            &mut rng,
            ErrorModel::ALL[b % ErrorModel::ALL.len()],
            addr(b),
            block,
        );
    }
    let start = Instant::now();
    let mut detected = 0usize;
    for (b, block) in clean.iter().chain(&corrupt).enumerate() {
        let b = b % clean.len();
        detected += (codec.detect(addr(b), black_box(block)) == DetectOutcome::Detected) as usize;
    }
    let detect = start.elapsed().as_nanos() as f64 / (2 * clean.len()) as f64;
    black_box(detected);

    let mut correctable: Vec<_> = corrupt
        .iter()
        .enumerate()
        .filter(|(b, _)| {
            matches!(
                ErrorModel::ALL[b % ErrorModel::ALL.len()],
                ErrorModel::SingleBit | ErrorModel::SingleByte
            )
        })
        .map(|(b, block)| (b, *block))
        .collect();
    let start = Instant::now();
    for (b, block) in correctable.iter_mut() {
        black_box(codec.correct(addr(*b), block).ok());
    }
    let correct = start.elapsed().as_nanos() as f64 / correctable.len().max(1) as f64;
    (encode, detect, correct)
}
