//! Timing, statistics, digests and host probes shared by every workload.

use memsim::address::AddressMapping;
use memsim::config::{ChannelMode, MemoryConfig};
use memsim::reference::ReferenceController;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one [`Acc::time`] call costs the clock itself, in nanoseconds:
/// `inner_ns` lands inside the timed interval, `pair_ns` is the whole
/// cost the enclosing span pays. Fine-grained timers subtract both, so
/// per-call figures report the layer and not the clock.
#[derive(Debug, Clone, Copy)]
pub struct ClockCost {
    pub inner_ns: f64,
    pub pair_ns: f64,
}

impl ClockCost {
    pub fn calibrate() -> ClockCost {
        const N: u32 = 2_000;
        let mut inner = Vec::with_capacity(41);
        let mut pair = Vec::with_capacity(41);
        for _ in 0..41 {
            let mut acc = Acc::default();
            let start = Instant::now();
            for _ in 0..N {
                acc.time(|| black_box(()));
            }
            pair.push(start.elapsed().as_nanos() as f64 / N as f64);
            inner.push(acc.raw.as_nanos() as f64 / N as f64);
        }
        ClockCost {
            inner_ns: median(&mut inner),
            pair_ns: median(&mut pair),
        }
    }
}

/// CPU time the calling thread has consumed, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`). The loop is single-threaded, so this is
/// its host time less the time the thread was not running: preemption,
/// and on a virtual machine the time the hypervisor stole from the vCPU.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, exclusively borrowed `struct timespec`
    // (two 64-bit fields on 64-bit Linux), the only memory the call
    // writes; the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always readable on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere, wall time since the first call.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_s() -> f64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Time of a round's timed work, as measured on this host: thread CPU
/// seconds and wall seconds (for the self-time table, whose layer
/// timers are wall-clock). A yardstick pass follows every timed block,
/// so the passes sample the host's speed across the whole run; the run
/// is scaled to the reference host once, by their median (see
/// [`reference_scale`]).
#[derive(Debug, Clone, Default)]
pub struct Busy {
    pub cpu_s: f64,
    pub wall_s: f64,
    /// Nanoseconds per op of each yardstick pass, in run order.
    pub passes: Vec<f64>,
}

impl Busy {
    /// Runs `f` as one timed block; returns its result and its thread
    /// CPU seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let wall = Instant::now();
        let cpu = thread_cpu_s();
        let out = f();
        let cpu = thread_cpu_s() - cpu;
        self.record(cpu, wall.elapsed().as_secs_f64());
        (out, cpu)
    }

    /// Adds a block timed by the caller, then runs a yardstick pass.
    pub fn record(&mut self, cpu_s: f64, wall_s: f64) {
        self.cpu_s += cpu_s;
        self.wall_s += wall_s;
        self.passes.push(yardstick_pass(YARDSTICK_PASS_OPS));
    }
}

/// This host's time per unit of work relative to the reference host
/// (0.5: it needs half the time): the median yardstick pass over
/// [`YARDSTICK_REF_NS`]. Multiply a rate measured here by it, or divide
/// a time, to state it on the reference host.
/// One factor per run: a single pass takes a few milliseconds and is
/// itself noisy, and scaling block by block would fold that noise into
/// every figure.
pub fn reference_scale(passes: &[f64]) -> f64 {
    median(&mut passes.to_vec()) / YARDSTICK_REF_NS
}

/// A summed-and-counted timer: one clock pair per call, no per-call
/// storage.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    /// Summed raw interval time.
    pub raw: Duration,
    /// Intervals timed.
    pub calls: u64,
}

impl Acc {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.raw += start.elapsed();
        self.calls += 1;
        out
    }

    /// Summed time with the clock's in-interval cost removed, in
    /// nanoseconds.
    pub fn net_ns(&self, clock: &ClockCost) -> f64 {
        (self.raw.as_nanos() as f64 - clock.inner_ns * self.calls as f64).max(0.0)
    }

    /// Clock cost these calls added to the enclosing span outside the
    /// timed intervals, in nanoseconds.
    pub fn outside_ns(&self, clock: &ClockCost) -> f64 {
        (clock.pair_ns - clock.inner_ns).max(0.0) * self.calls as f64
    }

    /// Total clock cost of these calls, in nanoseconds.
    pub fn clock_ns(&self, clock: &ClockCost) -> f64 {
        clock.pair_ns * self.calls as f64
    }

    pub fn raw_ns(&self) -> f64 {
        self.raw.as_nanos() as f64
    }

    pub fn add(&mut self, other: &Acc) {
        self.raw += other.raw;
        self.calls += other.calls;
    }
}

/// Median of `values` (mean of the middle pair for even counts);
/// 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Unit latencies as a histogram of 10 ns bins: exact to 10 ns, and
/// bounded in memory however many million reads a run makes.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    bins: BTreeMap<u64, u64>,
    n: u64,
}

const BIN_S: f64 = 10e-9;

impl Samples {
    /// Adds one latency, in seconds.
    pub fn push(&mut self, seconds: f64) {
        *self
            .bins
            .entry((seconds / BIN_S).round() as u64)
            .or_insert(0) += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Mean with the fastest and the slowest `trim` share of the
    /// samples left out, in microseconds; 0 when empty.
    pub fn trimmed_mean_us(&self, trim: f64) -> f64 {
        let cut = (self.n as f64 * trim).floor() as u64;
        let (lo, hi) = (cut, self.n - cut);
        let (mut seen, mut sum, mut kept) = (0u64, 0.0, 0u64);
        for (&bin, &count) in &self.bins {
            let take = (seen + count).min(hi).saturating_sub(seen.max(lo));
            sum += bin as f64 * take as f64;
            kept += take;
            seen += count;
        }
        if kept == 0 {
            0.0
        } else {
            sum / kept as f64 * BIN_S * 1e6
        }
    }

    /// Nearest-rank percentile `q` (0..=1), in microseconds; 0 when
    /// empty.
    pub fn percentile_us(&self, q: f64) -> f64 {
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        let mut seen = 0;
        for (&bin, &count) in &self.bins {
            seen += count;
            if seen >= rank {
                return bin as f64 * BIN_S * 1e6;
            }
        }
        0.0
    }
}

/// The share of units trimmed from each end of a kind before its
/// latency is averaged. Units timed on the wall clock (protocol reads)
/// now and then absorb a preemption or a stolen vCPU slice hundreds of
/// times their length; the trim drops those and keeps every unit of
/// the program's own slow path, which is a kind of its own.
pub const UNIT_TRIM: f64 = 0.1;

/// `value` of every unit kind, combined as a geometric mean weighted by
/// each kind's unit count: kinds (a design × suite cell, say) keep
/// their own distributions, so the figure does not jump between kinds,
/// and a rare kind (an injected protocol read) weighs as little as it
/// occurs. 0 when no unit was timed.
pub fn over_kinds(kinds: &[Samples], value: impl Fn(&Samples) -> f64) -> f64 {
    let (mut logs, mut n) = (0.0, 0u64);
    for k in kinds.iter().filter(|k| k.len() > 0) {
        logs += value(k).ln() * k.len() as f64;
        n += k.len();
    }
    if n == 0 {
        0.0
    } else {
        (logs / n as f64).exp()
    }
}

/// `value` of the slowest unit kind: the cell a figure waits for last,
/// or the reads that take the detect → re-read recovery path.
pub fn slowest_kind(kinds: &[Samples], value: impl Fn(&Samples) -> f64) -> f64 {
    kinds
        .iter()
        .filter(|k| k.len() > 0)
        .map(value)
        .fold(0.0, f64::max)
}

/// FNV-1a over everything a run simulated, so two commits (or a traced
/// and an untraced run) can be compared exactly.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the `Debug` rendering of `value`: every field, floats at
    /// full round-trip precision.
    pub fn debug<T: std::fmt::Debug>(&mut self, value: &T) {
        self.bytes(format!("{value:?}").as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Counter-derived per-round seed (SplitMix64 finalizer), so round `r`
/// of seed `s` is the same inputs on every run and every commit.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    let mut z = seed ^ round.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident-set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The reference host of the end-to-end metrics: one on which a
/// yardstick op takes this many nanoseconds. Rates and times are scaled
/// by the yardstick measured around them, so a host that is busy, or
/// simply slower, reads the same as long as it slows the simulator and
/// the yardstick alike.
pub const YARDSTICK_REF_NS: f64 = 1000.0;

/// Yardstick ops per pass between rounds (a few milliseconds).
pub const YARDSTICK_PASS_OPS: usize = 5_000;

/// Host nanoseconds per op of a fixed, seed-independent loop through the
/// frozen [`ReferenceController`]: the same work on every commit, so a
/// ratio to it cancels much of the host's drift between sessions. The
/// median of five passes, each timed on the thread CPU clock.
pub fn yardstick_ns_per_op() -> f64 {
    let mut samples: Vec<f64> = (0..5).map(|_| yardstick_pass(YARDSTICK_PASS_OPS)).collect();
    median(&mut samples)
}

/// One pass of `ops` yardstick operations; thread-CPU nanoseconds per op.
pub fn yardstick_pass(ops: usize) -> f64 {
    let mapping = AddressMapping::new(1, 4, 16);
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state = round_seed(state, 0);
        state
    };
    let mut ctrl = ReferenceController::new(
        ChannelMode::commercial_baseline(),
        MemoryConfig::default(),
        200 * 625,
    );
    let mut tokens = Vec::with_capacity(32);
    let mut now = 0u64;
    let mut cursor = 0u64;
    let mut writes = 0;
    let start = thread_cpu_s();
    for _ in 0..ops {
        now += 2_000 + next() % 30_000;
        let addr = if next() % 10 < 7 {
            cursor += 64;
            cursor
        } else {
            (next() % (1 << 22)) * 64
        };
        let coord = mapping.map(addr);
        if next() % 4 == 0 {
            ctrl.enqueue_write(coord);
            writes += 1;
            if writes == 64 {
                black_box(ctrl.drain_writes(now));
                writes = 0;
            }
        } else {
            let tracked = next() % 5 < 2;
            let token = ctrl.submit_read(coord, now, tracked);
            if tracked {
                tokens.push(token);
            }
            if tokens.len() == 32 {
                for t in tokens.drain(..) {
                    black_box(ctrl.resolve_read(t));
                }
            }
        }
    }
    for t in tokens.drain(..) {
        black_box(ctrl.resolve_read(t));
    }
    black_box(ctrl.stats());
    (thread_cpu_s() - start) * 1e9 / ops as f64
}

/// The per-layer metric table: every name the benchmark declares, each
/// with its unit, in declaration order. Workloads fill the layers they
/// exercise; the rest read 0 (no work done there).
#[derive(Debug, Clone)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

/// Every per-layer metric and its unit.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("workloads.tracegen.ops", "count"),
    ("workloads.tracegen.ns_per_op", "ns"),
    ("memsim.prewarm.blocks", "count"),
    ("memsim.prewarm.ns_per_block", "ns"),
    ("memsim.node.self_ns_per_op", "ns"),
    ("memsim.node.cache_hit_ratio", "ratio"),
    ("memsim.node.dram_reads", "count"),
    ("memsim.node.dram_writes", "count"),
    ("memsim.node.row_hit_ratio", "ratio"),
    ("memsim.node.write_drains", "count"),
    ("memsim.cache.accesses", "count"),
    ("memsim.cache.ns_per_access", "ns"),
    ("memsim.cache.hit_ratio", "ratio"),
    ("memsim.controller.requests", "count"),
    ("memsim.controller.ns_per_request", "ns"),
    ("memsim.controller.row_hit_ratio", "ratio"),
    ("core.node_model.lookups", "count"),
    ("core.node_model.hits", "count"),
    ("core.node_model.hit_ratio", "ratio"),
    ("workloads.jobgen.jobs", "count"),
    ("workloads.jobgen.ns_per_job", "ns"),
    ("workloads.jobgen.useful_ratio", "ratio"),
    ("scheduler.route.calls", "count"),
    ("scheduler.route.ns_per_call", "ns"),
    ("scheduler.cluster.jobs", "count"),
    ("scheduler.cluster.self_ns_per_job", "ns"),
    ("scheduler.cluster.backfilled", "count"),
    ("core.protocol.reads", "count"),
    ("core.protocol.recovered", "count"),
    ("core.protocol.ns_per_read", "ns"),
    ("core.protocol.write_batches", "count"),
    ("core.protocol.ns_per_write_batch", "ns"),
    ("dram.channel.transitions", "count"),
    ("ecc.codec.encode_ns", "ns"),
    ("ecc.codec.detect_ns", "ns"),
    ("ecc.codec.correct_ns", "ns"),
    ("telemetry.series.records", "count"),
    ("telemetry.series.windows", "count"),
    ("telemetry.monitor.windows_evaluated", "count"),
    ("telemetry.monitor.incidents", "count"),
    ("telemetry.monitor.eval_ms", "ms"),
    ("telemetry.export.bytes", "count"),
    ("telemetry.export.ns_per_byte", "ns"),
    ("host.yardstick_ns_per_op", "ns"),
    ("host.trace_overhead_pct", "%"),
    ("host.unattributed_pct", "%"),
];

impl Default for Layers {
    fn default() -> Layers {
        Layers {
            values: LAYER_METRICS.iter().map(|&(name, _)| (name, 0.0)).collect(),
        }
    }
}

impl Layers {
    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// On a name missing from [`LAYER_METRICS`] (a bug in this program).
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        *slot = value;
    }

    /// `(name, value, unit)` in declaration order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| (name, self.values[name], unit))
    }
}

/// One row of the traced self-time table: a layer's share of the timed
/// phase.
#[derive(Debug, Clone)]
pub struct SelfTime {
    pub layer: &'static str,
    pub ns: f64,
}

/// Ratio with a zero denominator read as 0 (no work, no ratio).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values_us: impl IntoIterator<Item = u32>) -> Samples {
        let mut s = Samples::default();
        for v in values_us {
            s.push(f64::from(v) * 1e-6);
        }
        s
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = samples(1..=100);
        assert!((s.percentile_us(0.5) - 50.0).abs() < 1e-9);
        assert!((s.percentile_us(0.99) - 99.0).abs() < 1e-9);
        assert!((s.percentile_us(1.0) - 100.0).abs() < 1e-9);
        assert_eq!(Samples::default().percentile_us(0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(reference_scale(&[300.0, 500.0, 340.0]), 0.34);
    }

    #[test]
    fn trimmed_mean_drops_each_end() {
        // 1..=8 plus one 1000 µs outlier: a 10 % trim of 9 drops none,
        // a 20 % trim drops 1 and 1000.
        let s = samples((1..=8).chain([1000]));
        assert!((s.trimmed_mean_us(0.1) - 1036.0 / 9.0).abs() < 1e-9);
        assert!((s.trimmed_mean_us(0.2) - 35.0 / 7.0).abs() < 1e-9);
        // Ties inside one bin are split at the cut.
        let t = samples([5, 5, 5, 5, 100]);
        assert!((t.trimmed_mean_us(0.2) - 5.0).abs() < 1e-9);
        assert_eq!(Samples::default().trimmed_mean_us(0.1), 0.0);
    }

    #[test]
    fn kinds_combine_by_unit_count() {
        let p50 = |k: &Samples| k.percentile_us(0.5);
        let kinds = [samples([1, 1, 1]), samples([4, 4, 4]), Samples::default()];
        assert!((over_kinds(&kinds, p50) - 2.0).abs() < 1e-9);
        let rare = [samples([1; 9]), samples([1024])];
        assert!((over_kinds(&rare, p50) - 2.0).abs() < 1e-9);
        assert!((slowest_kind(&rare, p50) - 1024.0).abs() < 1e-9);
        assert_eq!(over_kinds(&[], p50), 0.0);
        assert_eq!(slowest_kind(&[Samples::default()], p50), 0.0);
    }

    #[test]
    fn round_seeds_differ_per_round_and_seed() {
        assert_ne!(round_seed(1, 0), round_seed(1, 1));
        assert_ne!(round_seed(1, 0), round_seed(2, 0));
        assert_eq!(round_seed(7, 3), round_seed(7, 3));
    }

    #[test]
    fn every_declared_layer_metric_is_listed_once() {
        let layers = Layers::default();
        assert_eq!(layers.rows().count(), LAYER_METRICS.len());
        assert_eq!(layers.values.len(), LAYER_METRICS.len());
    }
}
