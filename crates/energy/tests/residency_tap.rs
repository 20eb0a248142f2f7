//! The memsim residency tap under random traffic, charged by the
//! residency model.
//!
//! This drives the memsim channel controller with randomized reads,
//! writes and drains, feeds the finalized bank-state residency and the
//! controller's command counts to [`ResidencyModel`], and checks that
//! the tap counts every ACT, that the charge is well formed, and that
//! open rows show up as active-standby time.

use dram::Picos;
use energy::{ResidencyBreakdown, ResidencyInput, ResidencyModel};
use memsim::address::DramCoord;
use memsim::config::{ChannelMode, MemoryConfig};
use memsim::controller::ChannelController;

/// splitmix64, as in memsim's own differential test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One random run's residency-model input and DRAM energy.
struct Charged {
    input: ResidencyInput,
    energy: ResidencyBreakdown,
}

impl Charged {
    /// Share of the background (standby) energy drawn with a row open.
    fn active_share_of_background(&self) -> f64 {
        let open_rows_only = ResidencyInput {
            active_bank_ps: self.input.active_bank_ps,
            banks_per_rank: self.input.banks_per_rank,
            ..ResidencyInput::default()
        };
        let active_j = ResidencyModel::ddr4_3200()
            .energy(&open_rows_only)
            .background_j;
        active_j / self.energy.background_j
    }
}

/// Runs `ops` random commands spaced up to `gap` ps apart and charges
/// the run with the DDR4-3200 residency model.
fn charge_random_run(seed: u64, ops: u64, gap: u64) -> Charged {
    let mut rng = Rng(seed);
    let mode = ChannelMode::commercial_baseline();
    let mem = MemoryConfig::default();
    let mut ctrl = ChannelController::new(mode, mem, 200 * 625);

    let ranks = mem.ranks_per_channel() as u64;
    let banks = mem.banks_per_rank as u64;
    let mut now: Picos = 0;
    for _ in 0..ops {
        now += 1 + rng.below(gap);
        let coord = DramCoord {
            channel: 0,
            rank: rng.below(ranks) as usize,
            bank: rng.below(banks) as usize,
            row: rng.below(24),
            column: rng.below(64),
        };
        match rng.below(100) {
            0..=69 => {
                let t = ctrl.submit_read(coord, now, true);
                ctrl.resolve_read(t);
            }
            70..=89 => ctrl.enqueue_write(coord),
            _ => {
                ctrl.drain_writes(now);
            }
        }
    }
    ctrl.process_reads();
    while ctrl.pending_writes() > 0 {
        now += 1_000_000;
        ctrl.drain_writes(now);
    }
    let res = ctrl.finalize_residency(now + 10_000_000);
    let stats = ctrl.stats();
    assert_eq!(res.act_edges, stats.activates, "seed {seed}");

    let input = ResidencyInput {
        active_bank_ps: res.active_bank_ps,
        precharged_bank_ps: res.precharged_bank_ps(),
        refresh_bank_ps: res.refresh_bank_ps,
        self_refresh_bank_ps: res.self_refresh_bank_ps,
        banks_per_rank: mem.banks_per_rank as u32,
        activates: stats.activates,
        reads: stats.reads,
        writes: stats.writes,
        broadcast_extra_cells: stats.broadcast_extra_cells,
        refreshes: stats.refreshes,
    };
    let energy = ResidencyModel::ddr4_3200().energy(&input);
    Charged { input, energy }
}

#[test]
fn random_traffic_is_charged_finitely_and_positively() {
    for seed in 0..32u64 {
        // Mixed gaps: bursty (small gap) through idle-heavy (large).
        let gap = [5_000, 40_000, 400_000][(seed % 3) as usize];
        let run = charge_random_run(0xE6E6_0000 + seed, 3_000, gap);
        let e = &run.energy;
        for (name, j) in [
            ("background", e.background_j),
            ("activate", e.activate_j),
            ("burst", e.burst_j),
            ("total", e.total_j()),
        ] {
            assert!(
                j.is_finite() && j > 0.0,
                "seed {seed} gap {gap}: {name} energy {j} J"
            );
        }
    }
}

#[test]
fn bursty_traffic_keeps_more_rows_open_than_idle_traffic() {
    // A bursty run keeps rows open (page timeout) a larger fraction of
    // the time than an idle-heavy run, so more of its background energy
    // is active standby.
    let busy = charge_random_run(0xAB, 6_000, 4_000).active_share_of_background();
    let idle = charge_random_run(0xCD, 600, 4_000_000).active_share_of_background();
    assert!(busy > idle, "busy {busy} vs idle {idle}");
}
