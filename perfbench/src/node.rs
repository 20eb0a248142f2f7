//! `node-dram` and `node-cache`: node simulations, one (design, suite)
//! cell per unit.
//!
//! `node-dram` runs Hierarchy2 cells through [`NodeModel`] with the
//! shared result cache on and a metrics registry attached and exported
//! per round — the path the node figures take under `--metrics`. Its
//! footprints dwarf the LLC, so the channel controllers do most of the
//! work. `node-cache` runs Hierarchy1 cells whose footprint fits the
//! LLC, so the core loop, caches and trace generation carry the cost and
//! the controller idles; its suites are reshaped here, so it drives
//! [`NodeSim`] directly, the way the model's miss path does.
//!
//! A traced round runs each cell through the same steps as the model's
//! miss path, with timers at the layer boundaries: warm-up, the
//! `NodeSim::run` span, and its trace-generation child. It leaves out the
//! second model's re-read (nothing it simulated sits in the shared
//! cache), so node-model counts come from the first plain round.

use crate::measure::{ratio, round_seed, Acc, Busy, ClockCost, Samples, SelfTime};
use crate::{closed_loop, timed_setup, Report};
use hetero_dmr::{shared_cache_stats, EvalConfig, MemoryDesign, NodeModel};
use memsim::address::AddressMapping;
use memsim::controller::ChannelController;
use memsim::core::CoreSim;
use memsim::{HierarchyConfig, MemOp, NodeSim, SimResult};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;
use telemetry::{format_jsonl, parse_jsonl, slug, Registry, Scope};
use workloads::{Suite, SuiteParams, TraceGen};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Dram,
    Cache,
}

/// Ops per core on `node-dram`: the experiments' default run length.
const DRAM_OPS_PER_CORE: usize = 20_000;
/// Ops per core on `node-cache`.
const CACHE_OPS_PER_CORE: usize = 100_000;
/// `node-cache` footprint per core: 1 MB, half the 2 MB Hierarchy1 LLC
/// partition (the 4.5 MB/core L2+L3 budget less L2, rounded to a power
/// of two), so almost every access hits after warm-up.
const CACHE_FOOTPRINT_BLOCKS: u64 = 1 << 14;

/// One unit kind: a design on a suite's access model.
#[derive(Debug, Clone, Copy)]
struct Cell {
    design: MemoryDesign,
    params: SuiteParams,
}

impl Cell {
    /// The telemetry label the model gives this cell's run.
    fn label(&self) -> String {
        format!(
            "{}.{}",
            slug(&self.design.name()),
            slug(self.params.suite.name())
        )
    }
}

#[derive(Debug)]
struct Setup {
    kind: Kind,
    hierarchy: HierarchyConfig,
    cells: Vec<Cell>,
    ops_per_core: usize,
}

fn setup(kind: Kind) -> Setup {
    let designs = [
        MemoryDesign::CommercialBaseline,
        MemoryDesign::HeteroDmr { margin_mts: 800 },
    ];
    let (hierarchy, suites, ops_per_core) = match kind {
        Kind::Dram => (
            HierarchyConfig::hierarchy2(),
            [Suite::Hpcg, Suite::Graph500],
            DRAM_OPS_PER_CORE,
        ),
        Kind::Cache => (
            HierarchyConfig::hierarchy1(),
            [Suite::Linpack, Suite::Lulesh],
            CACHE_OPS_PER_CORE,
        ),
    };
    let mut cells: Vec<Cell> = Vec::new();
    for suite in suites {
        let mut params = suite.params();
        if kind == Kind::Cache {
            params.footprint_blocks = CACHE_FOOTPRINT_BLOCKS;
            params.warm_fraction = 0.0;
        }
        for design in designs {
            cells.push(Cell { design, params });
        }
    }
    // What the first unit needs before its first op: the model engine
    // and the per-core trace generators.
    black_box(NodeModel::new(
        hierarchy,
        EvalConfig {
            ops_per_core,
            ..EvalConfig::default()
        },
    ));
    for i in 0..hierarchy.cores {
        black_box(TraceGen::new(cells[0].params, i as u64, ops_per_core));
    }
    Setup {
        kind,
        hierarchy,
        cells,
        ops_per_core,
    }
}

/// Layer timers of traced rounds.
#[derive(Debug, Default)]
struct Timers {
    /// Whole cell, from node construction to the end of `NodeSim::run`.
    cell: Acc,
    /// `warmup_blocks` + `prewarm_core`.
    prewarm: Acc,
    /// Trace generation: one interval per `next()` on the streams.
    tracegen: RefCell<Acc>,
    /// Snapshot of the cell's private registry and its absorption into
    /// the round's scope (the model's miss-path bookkeeping).
    absorb: Acc,
    /// Per-round registry export.
    export: Acc,
    export_bytes: u64,
}

/// A trace-generator stream timed at its `next()` boundary.
struct TimedStream<'a> {
    inner: TraceGen,
    acc: &'a RefCell<Acc>,
}

impl Iterator for TimedStream<'_> {
    type Item = MemOp;

    fn next(&mut self) -> Option<MemOp> {
        let start = Instant::now();
        let op = self.inner.next();
        let mut acc = self.acc.borrow_mut();
        acc.raw += start.elapsed();
        acc.calls += 1;
        op
    }
}

/// One cell the way the model's miss path simulates it: telemetry
/// attached, one stream per core, LLC warmed, one straight run. With
/// `timers`, each layer boundary is timed.
fn simulate(
    s: &Setup,
    cell: &Cell,
    seed: u64,
    scope: Option<&Scope>,
    timers: Option<&mut Timers>,
) -> SimResult {
    let start = Instant::now();
    let (modes, mirror) = cell.design.per_channel_modes(s.hierarchy.memory.channels);
    let mut node = NodeSim::with_modes(s.hierarchy, modes, mirror);
    if let Some(scope) = scope {
        node.attach_telemetry(scope);
    }
    let streams: Vec<TraceGen> = (0..s.hierarchy.cores)
        .map(|i| TraceGen::new(cell.params, seed.wrapping_add(i as u64), s.ops_per_core))
        .collect();
    let warm = node.l3_blocks_per_core();
    let prewarm = |node: &mut NodeSim| {
        for (i, stream) in streams.iter().enumerate() {
            node.prewarm_core(i, stream.warmup_blocks(warm, cell.params.write_fraction));
        }
    };
    let Some(t) = timers else {
        prewarm(&mut node);
        return node.run(streams);
    };
    t.prewarm.time(|| prewarm(&mut node));
    let timed: Vec<TimedStream> = streams
        .into_iter()
        .map(|inner| TimedStream {
            inner,
            acc: &t.tracegen,
        })
        .collect();
    let result = node.run(timed);
    t.cell.raw += start.elapsed();
    t.cell.calls += 1;
    result
}

/// Per-cell output checks: the run retired every op of every core and
/// executed instructions. Returns the number of comparisons made.
fn check(s: &Setup, r: &SimResult) -> (bool, u64) {
    let ops = (s.hierarchy.cores * s.ops_per_core) as u64;
    let ok = r.cache_hits + r.cache_misses == ops && r.instructions >= ops && r.exec_time_ps > 0;
    (ok, 3)
}

fn eval_config(s: &Setup, seed: u64) -> EvalConfig {
    EvalConfig {
        ops_per_core: s.ops_per_core,
        seed,
        windows: 1,
    }
}

/// Exports `registry` as metrics JSONL; returns whether the text parses
/// back to the same non-empty snapshot, and its length.
fn export(registry: &Registry) -> (bool, usize) {
    let snapshot = registry.snapshot();
    let text = format_jsonl(&snapshot);
    let ok = parse_jsonl(&text).is_ok_and(|back| back == snapshot) && !snapshot.is_empty();
    (ok, text.len())
}

/// A plain round: the untraced path for this workload.
fn plain_round(s: &Setup, seed: u64, digest: bool, report: &mut Report, busy: &mut Busy) {
    match s.kind {
        Kind::Cache => {
            for (k, cell) in s.cells.iter().enumerate() {
                let (r, cpu) = busy.time(|| simulate(s, cell, seed, None, None));
                report.unit(k, cpu);
                let (ok, n) = check(s, &r);
                report.check(ok, n);
                if digest {
                    report.digest.debug(&r);
                }
            }
        }
        Kind::Dram => {
            let registry = Registry::new();
            let mut first = NodeModel::new(s.hierarchy, eval_config(s, seed));
            first.set_metrics_scope(registry.scope("node"));
            let mut results = Vec::with_capacity(s.cells.len());
            for (k, cell) in s.cells.iter().enumerate() {
                let (r, cpu) = busy.time(|| first.run(cell.design, cell.params.suite));
                report.unit(k, cpu);
                let (ok, n) = check(s, &r);
                report.check(ok, n);
                if digest {
                    report.digest.debug(&r);
                }
                results.push(r);
            }
            // A second figure over the same cells: every lookup hits the
            // shared cache and replays the stored telemetry snapshot.
            let (again, _) = busy.time(|| {
                let mut second = NodeModel::new(s.hierarchy, eval_config(s, seed));
                second.set_metrics_scope(registry.scope("node_reread"));
                s.cells
                    .iter()
                    .map(|c| second.run(c.design, c.params.suite))
                    .collect::<Vec<SimResult>>()
            });
            for (a, b) in again.iter().zip(&results) {
                report.compared += 1;
                if a != b {
                    report.failed += 1;
                }
            }
            let ((ok, _), _) = busy.time(|| export(&registry));
            report.compared += 1;
            report.failed += !ok as u64;
        }
    }
}

/// A traced round: each cell through [`simulate`] with layer timers.
fn traced_round(
    s: &Setup,
    seed: u64,
    digest: bool,
    t: &mut Timers,
    results: &mut Vec<SimResult>,
    report: &mut Report,
    busy: &mut Busy,
) {
    let registry = Registry::new();
    let round_scope = registry.scope("node");
    for (k, cell) in s.cells.iter().enumerate() {
        let (r, cpu) = busy.time(|| {
            if s.kind == Kind::Dram {
                let private = Registry::new();
                let r = simulate(s, cell, seed, Some(&private.scope(&cell.label())), Some(t));
                t.absorb.time(|| round_scope.absorb(&private.snapshot()));
                r
            } else {
                simulate(s, cell, seed, None, Some(t))
            }
        });
        report.unit(k, cpu);
        let (ok, n) = check(s, &r);
        report.check(ok, n);
        if digest {
            report.digest.debug(&r);
            results.push(r);
        }
    }
    if s.kind == Kind::Dram {
        let ((ok, bytes), _) = busy.time(|| t.export.time(|| export(&registry)));
        report.compared += 1;
        report.failed += !ok as u64;
        if digest {
            t.export_bytes = bytes as u64;
        }
    }
}

pub fn run(kind: Kind, seed: u64, seconds: u64, trace: bool, clock: &ClockCost) -> Report {
    let mut report = Report::default();
    let s = timed_setup(&mut report, || setup(kind));
    report.unit_us = vec![Samples::default(); s.cells.len()];
    let mut t = Timers::default();
    let mut first_traced: Vec<SimResult> = Vec::new();
    let mut model_stats = (0, 0);
    let ops_per_round = (s.cells.len() * s.hierarchy.cores * s.ops_per_core) as u64;
    closed_loop(
        seconds,
        trace,
        &mut report,
        |index, traced, report, busy| {
            let round = round_seed(seed, index);
            let digest = index < 2;
            if traced {
                traced_round(&s, round, digest, &mut t, &mut first_traced, report, busy);
            } else {
                let before = shared_cache_stats();
                plain_round(&s, round, digest, report, busy);
                if index == 1 {
                    let after = shared_cache_stats();
                    model_stats = (
                        (after.0 + after.1) - (before.0 + before.1),
                        after.0 - before.0,
                    );
                }
            }
            ops_per_round
        },
    );
    if trace {
        let layers = &mut report.layers;
        let tracegen = *t.tracegen.borrow();
        let ops = tracegen
            .calls
            .saturating_sub(t.cell.calls * s.hierarchy.cores as u64);
        let tracegen_ns = tracegen.net_ns(clock);
        let prewarm_ns = t.prewarm.net_ns(clock);
        let node_ns = t.cell.raw_ns()
            - t.prewarm.raw_ns()
            - t.prewarm.outside_ns(clock)
            - tracegen.raw_ns()
            - tracegen.outside_ns(clock);
        let traced_rounds = report.traced_rounds as f64;
        let warm_blocks = (s.hierarchy.l3_partition_bytes() / 64 * s.hierarchy.cores) as f64
            * s.cells.len() as f64;

        // Counts describe the first (traced) round; times average over
        // every traced round.
        let round0 = &first_traced;
        let sum = |f: &dyn Fn(&SimResult) -> u64| round0.iter().map(f).sum::<u64>() as f64;
        layers.set("workloads.tracegen.ops", ops_per_round as f64);
        layers.set(
            "workloads.tracegen.ns_per_op",
            ratio(tracegen_ns, ops as f64),
        );
        layers.set("memsim.prewarm.blocks", warm_blocks);
        layers.set(
            "memsim.prewarm.ns_per_block",
            ratio(prewarm_ns, warm_blocks * traced_rounds),
        );
        layers.set("memsim.node.self_ns_per_op", ratio(node_ns, ops as f64));
        layers.set(
            "memsim.node.cache_hit_ratio",
            ratio(
                sum(&|r| r.cache_hits),
                sum(&|r| r.cache_hits + r.cache_misses),
            ),
        );
        layers.set("memsim.node.dram_reads", sum(&|r| r.controller.reads));
        layers.set("memsim.node.dram_writes", sum(&|r| r.controller.writes));
        layers.set(
            "memsim.node.row_hit_ratio",
            ratio(
                sum(&|r| r.controller.row_hits),
                sum(&|r| r.controller.reads + r.controller.writes),
            ),
        );
        layers.set(
            "memsim.node.write_drains",
            sum(&|r| r.controller.write_mode_entries),
        );
        if kind == Kind::Dram {
            layers.set("core.node_model.lookups", model_stats.0 as f64);
            layers.set("core.node_model.hits", model_stats.1 as f64);
            layers.set(
                "core.node_model.hit_ratio",
                ratio(model_stats.1 as f64, model_stats.0 as f64),
            );
            layers.set("telemetry.export.bytes", t.export_bytes as f64);
            layers.set(
                "telemetry.export.ns_per_byte",
                ratio(
                    t.export.net_ns(clock),
                    t.export_bytes as f64 * traced_rounds,
                ),
            );
        }
        report.self_times = vec![
            SelfTime {
                layer: "workloads.tracegen",
                ns: tracegen_ns,
            },
            SelfTime {
                layer: "memsim.prewarm",
                ns: prewarm_ns,
            },
            SelfTime {
                layer: "memsim.node",
                ns: node_ns,
            },
        ];
        if kind == Kind::Dram {
            report.self_times.push(SelfTime {
                layer: "core.node_model",
                ns: t.absorb.net_ns(clock),
            });
            report.self_times.push(SelfTime {
                layer: "telemetry.export",
                ns: t.export.net_ns(clock),
            });
        }
        report.self_times.push(SelfTime {
            layer: "host.clock",
            ns: tracegen.clock_ns(clock)
                + t.prewarm.clock_ns(clock)
                + t.absorb.clock_ns(clock)
                + t.export.clock_ns(clock),
        });
        replay_layers(&s, round_seed(seed, 0), &first_traced, &mut report);
    }
    report
}

/// A demand or prefetch read, or a writeback, seen leaving the caches
/// during the replay, stamped with the issuing core's instruction clock.
#[derive(Debug, Clone, Copy)]
struct MemEvent {
    at_ps: u64,
    block: u64,
    kind: EventKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Load,
    Store,
    Prefetch,
    Writeback,
}

/// Sends one op through a core's caches exactly as the node's step
/// does (demand access, then prefetch installs), returning whether the
/// demand access hit.
fn cache_step(core: &mut CoreSim, op: &MemOp, wb: &mut Vec<u64>, pf: &mut Vec<u64>) -> bool {
    let outcome = core.access_caches(op, wb, pf);
    for &block in pf.iter() {
        if core.needs_prefetch(block) {
            if let Some(victim) = core.install_prefetch(block) {
                wb.push(victim);
            }
        }
    }
    outcome.demand_miss.is_none()
}

/// The `memsim.cache` and `memsim.controller` replays over the first
/// round's cells: every core's op stream through `CoreSim::access_caches`
/// (timed as one loop, no per-call clock), then the misses, writebacks
/// and write drains that produced through one `ChannelController` per
/// channel. The cache replay must reproduce each cell's hit count.
fn replay_layers(s: &Setup, seed: u64, results: &[SimResult], report: &mut Report) {
    let h = &s.hierarchy;
    let mut accesses = 0u64;
    let mut hits = 0u64;
    let mut cache_ns = 0.0;
    let mut requests = 0u64;
    let mut row_hits = 0u64;
    let mut controller_ns = 0.0;
    for (cell, expected) in s.cells.iter().zip(results) {
        let mut events = Vec::new();
        let mut cell_hits = 0u64;
        for i in 0..h.cores {
            let gen = TraceGen::new(cell.params, seed.wrapping_add(i as u64), s.ops_per_core);
            let warm = gen.warmup_blocks(h.l3_partition_bytes() / 64, cell.params.write_fraction);
            let ops: Vec<MemOp> = gen.collect();
            let fresh_core = || {
                let mut core = CoreSim::new(h.core, h.l3_partition_bytes());
                for &(block, dirty) in &warm {
                    core.prewarm_l3(block, dirty);
                }
                core
            };
            let (mut wb, mut pf) = (Vec::new(), Vec::new());
            let mut core = fresh_core();
            let start = Instant::now();
            for op in &ops {
                black_box(cache_step(&mut core, op, &mut wb, &mut pf));
            }
            cache_ns += start.elapsed().as_nanos() as f64;
            // Untimed second pass: record what leaves the caches.
            let mut core = fresh_core();
            let mut now = 0.0f64;
            for op in &ops {
                now += (op.gap_instructions as f64 + 1.0) * h.core.instr_ps();
                let at_ps = now as u64;
                let hit = cache_step(&mut core, op, &mut wb, &mut pf);
                cell_hits += hit as u64;
                if !hit {
                    let kind = if op.is_write {
                        EventKind::Store
                    } else {
                        EventKind::Load
                    };
                    events.push(MemEvent {
                        at_ps,
                        block: op.block(),
                        kind,
                    });
                }
                for &block in &pf {
                    events.push(MemEvent {
                        at_ps,
                        block,
                        kind: EventKind::Prefetch,
                    });
                }
                for &block in &wb {
                    events.push(MemEvent {
                        at_ps,
                        block,
                        kind: EventKind::Writeback,
                    });
                }
            }
            accesses += ops.len() as u64;
        }
        hits += cell_hits;
        report.compared += 1;
        if cell_hits != expected.cache_hits {
            report.failed += 1;
        }
        events.sort_by_key(|e| e.at_ps);
        let (ns, stats) = controller_replay(s, cell, &events);
        controller_ns += ns;
        requests += stats.0;
        row_hits += stats.1;
    }
    let layers = &mut report.layers;
    layers.set("memsim.cache.accesses", accesses as f64);
    layers.set(
        "memsim.cache.ns_per_access",
        ratio(cache_ns, accesses as f64),
    );
    layers.set(
        "memsim.cache.hit_ratio",
        ratio(hits as f64, accesses as f64),
    );
    layers.set("memsim.controller.requests", requests as f64);
    layers.set(
        "memsim.controller.ns_per_request",
        ratio(controller_ns, requests as f64),
    );
    layers.set(
        "memsim.controller.row_hit_ratio",
        ratio(row_hits as f64, requests as f64),
    );
}

/// Replays cache-side events through per-channel controllers; returns
/// the host nanoseconds and `(requests served, row hits)`.
fn controller_replay(s: &Setup, cell: &Cell, events: &[MemEvent]) -> (f64, (u64, u64)) {
    let h = &s.hierarchy;
    let (modes, _) = cell.design.per_channel_modes(h.memory.channels);
    let ranks = modes[0]
        .software_ranks
        .unwrap_or(h.memory.ranks_per_channel());
    let mapping = AddressMapping::new(h.memory.channels, ranks, h.memory.banks_per_rank);
    let mut ctrls: Vec<ChannelController> = modes
        .iter()
        .map(|&m| ChannelController::new(m, h.memory, h.core.page_timeout_ps()))
        .collect();
    let mut outstanding: std::collections::VecDeque<(usize, u64)> = Default::default();
    let mshrs = h.core.mshrs as usize * h.cores;
    let start = Instant::now();
    for e in events {
        let coord = mapping.map(e.block << 6);
        let ch = coord.channel;
        match e.kind {
            EventKind::Load | EventKind::Store | EventKind::Prefetch => {
                let tracked = e.kind == EventKind::Load;
                let token = ctrls[ch].submit_read(coord, e.at_ps, tracked);
                if tracked {
                    outstanding.push_back((ch, token));
                    if outstanding.len() > mshrs {
                        let (c, tok) = outstanding.pop_front().expect("non-empty");
                        black_box(ctrls[c].resolve_read(tok));
                    }
                }
            }
            EventKind::Writeback => {
                ctrls[ch].enqueue_write(coord);
                if ctrls[ch].pending_writes() >= modes[ch].write_high_watermark {
                    black_box(ctrls[ch].drain_writes(e.at_ps));
                }
            }
        }
    }
    for (c, tok) in outstanding.drain(..) {
        black_box(ctrls[c].resolve_read(tok));
    }
    let end = events.last().map_or(0, |e| e.at_ps);
    for ctrl in &mut ctrls {
        black_box(ctrl.drain_writes(end));
    }
    let ns = start.elapsed().as_nanos() as f64;
    let stats = ctrls
        .iter()
        .map(ChannelController::stats)
        .fold((0, 0), |acc, st| {
            (acc.0 + st.reads + st.writes, acc.1 + st.row_hits)
        });
    (ns, stats)
}
