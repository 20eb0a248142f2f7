//! DRAMPower-style state-residency energy engine.
//!
//! Instead of charging a flat background power plus per-op constants,
//! this engine integrates the power of each bank *state* over the time
//! the simulator actually spent there:
//!
//! ```text
//! E = Σ_state P_state × t_state  +  Σ_edge N_edge × E_edge
//! ```
//!
//! The states come from the memsim residency tap (time-in-state in
//! bank·picoseconds: active, precharged, refreshing, self-refresh);
//! the edges are the command counts the controller already tracks
//! (ACT/PRE pairs, read/write bursts, REF commands). Standby powers
//! and edge energies come from [`crate::calibrate`].
//!
//! Everything is normalized per *rank*: standby currents are drawn by
//! every device in a rank regardless of which bank is open, so
//! bank·seconds divide by banks-per-rank to give rank·seconds.
//!
//! [`RunEnergy::of_run`] is the one conversion from a simulated run to
//! node energy: the DRAM breakdown above plus [`CpuPowerParams`]' CPU
//! energy over the run's wall time.

use crate::calibrate::DatasheetCurrents;
use crate::ps_to_s;
use dram::timing::TimingParams;
use dram::Picos;
use memsim::SimResult;

/// Power drawn by one rank in each stable state, watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatePowers {
    /// At least one bank open (IDD3N), per rank.
    pub active_standby_w: f64,
    /// All banks closed, clock running (IDD2N), per rank.
    pub precharge_standby_w: f64,
    /// Self-refresh (IDD6), per rank.
    pub self_refresh_w: f64,
}

/// Energy of one command edge, nanojoules, per rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeEnergies {
    /// One ACT + its eventual PRE (the full row cycle).
    pub act_pre_nj: f64,
    /// One 64-byte read burst.
    pub read_nj: f64,
    /// One 64-byte write burst.
    pub write_nj: f64,
    /// One REF command (delta above active standby, over tRFC).
    pub refresh_nj: f64,
}

/// State-residency energy model for one DRAM generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidencyModel {
    /// Per-rank state powers.
    pub powers: StatePowers,
    /// Per-rank command-edge energies.
    pub edges: EdgeEnergies,
}

impl ResidencyModel {
    /// Calibrates a model from datasheet currents and a timing set.
    pub fn from_currents(
        currents: &DatasheetCurrents,
        timing: &TimingParams,
        chips_per_rank: u32,
    ) -> ResidencyModel {
        ResidencyModel {
            powers: currents.state_powers(chips_per_rank),
            edges: currents.edge_energies(timing, chips_per_rank),
        }
    }

    /// DDR4-3200, 9-chip ranks (the paper's main configuration).
    pub fn ddr4_3200() -> ResidencyModel {
        ResidencyModel::from_currents(
            &DatasheetCurrents::ddr4_8gb(),
            &TimingParams::ddr4_3200_spec(),
            9,
        )
    }

    /// DDR4-2400, 9-chip ranks.
    pub fn ddr4_2400() -> ResidencyModel {
        ResidencyModel::from_currents(
            &DatasheetCurrents::ddr4_8gb(),
            &TimingParams::ddr4_2400_spec(),
            9,
        )
    }

    /// DDR5-4800, 10-chip ranks.
    pub fn ddr5_4800() -> ResidencyModel {
        ResidencyModel::from_currents(
            &DatasheetCurrents::ddr5_16gb(),
            &TimingParams::ddr5_4800_spec(),
            10,
        )
    }

    /// DDR5-6400, 10-chip ranks.
    pub fn ddr5_6400() -> ResidencyModel {
        ResidencyModel::from_currents(
            &DatasheetCurrents::ddr5_16gb(),
            &TimingParams::ddr5_6400_spec(),
            10,
        )
    }

    /// MRDIMM-8800, 10-chip pseudo-ranks behind the mux buffer.
    pub fn mrdimm_8800() -> ResidencyModel {
        ResidencyModel::from_currents(
            &DatasheetCurrents::mrdimm_16gb(),
            &TimingParams::mrdimm_8800_spec(),
            10,
        )
    }

    /// Integrates state powers over the residency and adds edge
    /// energies. The four components of the returned breakdown sum to
    /// the total exactly (it is defined as their sum).
    pub fn energy(&self, input: &ResidencyInput) -> ResidencyBreakdown {
        let per_rank = 1.0 / input.banks_per_rank.max(1) as f64;
        // Refresh residency draws the active-standby floor; the array
        // current above it is charged per REF edge below.
        let background_j = (self.powers.active_standby_w
            * (ps_to_s(input.active_bank_ps) + ps_to_s(input.refresh_bank_ps))
            + self.powers.precharge_standby_w * ps_to_s(input.precharged_bank_ps)
            + self.powers.self_refresh_w * ps_to_s(input.self_refresh_bank_ps))
            * per_rank;
        let activate_j = input.activates as f64 * self.edges.act_pre_nj * 1e-9;
        let burst_j = (input.reads as f64 * self.edges.read_nj
            + (input.writes + input.broadcast_extra_cells) as f64 * self.edges.write_nj)
            * 1e-9;
        let refresh_j = input.refreshes as f64 * self.edges.refresh_nj * 1e-9;
        ResidencyBreakdown {
            background_j,
            activate_j,
            burst_j,
            refresh_j,
        }
    }
}

/// Simulated bank-state residency and command counts for one run
/// (one node: all channels merged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResidencyInput {
    /// Time with a row open, bank·picoseconds.
    pub active_bank_ps: Picos,
    /// Time precharged (idle), bank·picoseconds.
    pub precharged_bank_ps: Picos,
    /// Time refreshing, bank·picoseconds.
    pub refresh_bank_ps: Picos,
    /// Time in self-refresh, bank·picoseconds.
    pub self_refresh_bank_ps: Picos,
    /// Banks per rank, for normalizing bank·time to rank·time.
    pub banks_per_rank: u32,
    /// ACT commands issued.
    pub activates: u64,
    /// 64-byte read bursts.
    pub reads: u64,
    /// 64-byte write bursts.
    pub writes: u64,
    /// Extra cell-writes from broadcast copies (charged as writes).
    pub broadcast_extra_cells: u64,
    /// REF commands issued (per rank).
    pub refreshes: u64,
}

/// DRAM energy of one run, itemized by mechanism. `total_j` is the sum
/// of the four components by construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResidencyBreakdown {
    /// State-residency (standby + self-refresh) energy, joules.
    pub background_j: f64,
    /// ACT/PRE row-cycle energy, joules.
    pub activate_j: f64,
    /// Read/write burst energy, joules.
    pub burst_j: f64,
    /// Refresh array energy, joules.
    pub refresh_j: f64,
}

impl ResidencyBreakdown {
    /// Total DRAM energy, joules.
    pub fn total_j(&self) -> f64 {
        self.background_j + self.activate_j + self.burst_j + self.refresh_j
    }
}

/// CPU power parameters for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuPowerParams {
    /// Static + idle power, watts (dominant, per the paper).
    pub static_w: f64,
    /// Dynamic power at peak retirement rate, watts.
    pub peak_dynamic_w: f64,
    /// Peak retirement rate used to scale dynamic power,
    /// instructions per second.
    pub peak_ips: f64,
}

impl Default for CpuPowerParams {
    fn default() -> CpuPowerParams {
        CpuPowerParams {
            static_w: 120.0,
            peak_dynamic_w: 90.0,
            peak_ips: 8.0 * 4.0 * 3.1e9, // 8 cores × 4-wide × 3.1 GHz
        }
    }
}

impl CpuPowerParams {
    /// CPU energy of a run: static power over the wall time plus
    /// dynamic power scaled by achieved retirement rate.
    pub fn energy_j(&self, secs: f64, instructions: u64) -> f64 {
        let dynamic = if secs > 0.0 {
            let ips = instructions as f64 / secs;
            self.peak_dynamic_w * (ips / self.peak_ips).min(1.0)
        } else {
            0.0
        };
        (self.static_w + dynamic) * secs
    }
}

/// CPU + DRAM energy of one run, or of several runs summed with
/// [`RunEnergy::add`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunEnergy {
    /// DRAM energy by mechanism.
    pub dram: ResidencyBreakdown,
    /// CPU static + dynamic energy, joules.
    pub cpu_j: f64,
    /// Instructions retired.
    pub instructions: u64,
    /// Wall time, seconds.
    pub secs: f64,
}

impl RunEnergy {
    /// Charges a simulated run: `dram` over its bank-state residency
    /// tap and command counts, `cpu` over its wall time.
    /// `banks_per_rank` is the node's DRAM geometry
    /// (`MemoryConfig::banks_per_rank`).
    pub fn of_run(
        result: &SimResult,
        dram: &ResidencyModel,
        cpu: &CpuPowerParams,
        banks_per_rank: u32,
    ) -> RunEnergy {
        let secs = ps_to_s(result.exec_time_ps);
        let c = &result.controller;
        RunEnergy {
            dram: dram.energy(&ResidencyInput {
                active_bank_ps: result.residency.active_bank_ps,
                precharged_bank_ps: result.residency.precharged_bank_ps(),
                refresh_bank_ps: result.residency.refresh_bank_ps,
                self_refresh_bank_ps: result.residency.self_refresh_bank_ps,
                banks_per_rank,
                activates: c.activates,
                reads: c.reads,
                writes: c.writes,
                broadcast_extra_cells: c.broadcast_extra_cells,
                refreshes: c.refreshes,
            }),
            cpu_j: cpu.energy_j(secs, result.instructions),
            instructions: result.instructions,
            secs,
        }
    }

    /// Accumulates another run into this one, field by field.
    pub fn add(&mut self, other: &RunEnergy) {
        self.dram.background_j += other.dram.background_j;
        self.dram.activate_j += other.dram.activate_j;
        self.dram.burst_j += other.dram.burst_j;
        self.dram.refresh_j += other.dram.refresh_j;
        self.cpu_j += other.cpu_j;
        self.instructions += other.instructions;
        self.secs += other.secs;
    }

    /// Total CPU + DRAM energy, joules.
    pub fn total_j(&self) -> f64 {
        self.dram.total_j() + self.cpu_j
    }

    /// `joules` spread over the retired instructions, nanojoules (0
    /// for a run that retired none).
    pub fn nj_per_instruction(&self, joules: f64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            joules / self.instructions as f64 * 1e9
        }
    }

    /// Energy per instruction, nanojoules (Figure 13's metric).
    pub fn epi_nj(&self) -> f64 {
        self.nj_per_instruction(self.total_j())
    }

    /// DRAM share of total energy.
    pub fn dram_share(&self) -> f64 {
        let total = self.total_j();
        if total == 0.0 {
            0.0
        } else {
            self.dram.total_j() / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::{PS_PER_MS, PS_PER_S};
    use memsim::controller::{ControllerStats, ResidencyStats};

    fn idle_second(banks: u64) -> ResidencyInput {
        ResidencyInput {
            precharged_bank_ps: banks * PS_PER_S,
            banks_per_rank: 16,
            ..ResidencyInput::default()
        }
    }

    #[test]
    fn idle_rank_draws_precharge_standby() {
        let m = ResidencyModel::ddr4_3200();
        // 16 banks idle for 1 s = one rank idle for 1 s.
        let b = m.energy(&idle_second(16));
        assert!((b.background_j - m.powers.precharge_standby_w).abs() < 1e-9);
        assert_eq!(b.activate_j, 0.0);
        assert_eq!(b.burst_j, 0.0);
        assert_eq!(b.refresh_j, 0.0);
    }

    #[test]
    fn self_refresh_beats_idle_standby() {
        let m = ResidencyModel::ddr4_3200();
        let idle = m.energy(&idle_second(16));
        let parked = m.energy(&ResidencyInput {
            self_refresh_bank_ps: 16 * PS_PER_S,
            banks_per_rank: 16,
            ..ResidencyInput::default()
        });
        assert!(parked.total_j() < idle.total_j() / 1.5);
    }

    #[test]
    fn components_sum_to_total() {
        let m = ResidencyModel::ddr5_4800();
        let b = m.energy(&ResidencyInput {
            active_bank_ps: 4 * PS_PER_S,
            precharged_bank_ps: 27 * PS_PER_S,
            refresh_bank_ps: PS_PER_S / 2,
            self_refresh_bank_ps: PS_PER_S / 2,
            banks_per_rank: 32,
            activates: 1_000_000,
            reads: 30_000_000,
            writes: 5_000_000,
            broadcast_extra_cells: 5_000_000,
            refreshes: 256_000,
        });
        let total = b.background_j + b.activate_j + b.burst_j + b.refresh_j;
        assert!((b.total_j() - total).abs() < 1e-12);
        assert!(b.background_j > 0.0 && b.activate_j > 0.0);
        assert!(b.burst_j > 0.0 && b.refresh_j > 0.0);
    }

    #[test]
    fn busier_run_costs_more() {
        let m = ResidencyModel::ddr4_3200();
        let mut input = idle_second(64);
        let idle = m.energy(&input).total_j();
        // Shift a quarter of the bank-time to active and add traffic.
        input.precharged_bank_ps -= 16 * PS_PER_S;
        input.active_bank_ps += 16 * PS_PER_S;
        input.activates = 2_000_000;
        input.reads = 50_000_000;
        input.writes = 8_000_000;
        input.refreshes = 128_000;
        let busy = m.energy(&input).total_j();
        assert!(busy > idle * 1.2, "busy {busy} idle {idle}");
    }

    #[test]
    fn generation_presets_are_well_formed() {
        for m in [
            ResidencyModel::ddr4_2400(),
            ResidencyModel::ddr4_3200(),
            ResidencyModel::ddr5_4800(),
            ResidencyModel::ddr5_6400(),
            ResidencyModel::mrdimm_8800(),
        ] {
            assert!(m.powers.self_refresh_w < m.powers.precharge_standby_w);
            assert!(m.powers.precharge_standby_w < m.powers.active_standby_w);
            assert!(m.edges.act_pre_nj > 0.0);
            assert!(m.edges.read_nj > 0.0 && m.edges.write_nj > 0.0);
            assert!(m.edges.refresh_nj > m.edges.act_pre_nj);
        }
    }

    /// `time_ms` of a four-module dual-rank DDR4-3200 node (128
    /// banks) retiring four billion instructions: one ACT per four
    /// bursts, a quarter of bank-time holding a row open, and each
    /// rank refreshing every 7.8 us.
    fn run(time_ms: u64, reads: u64, writes: u64) -> SimResult {
        let ranks = 8;
        let banks = ranks * 16;
        let time = time_ms * PS_PER_MS;
        let refreshes = ranks * time_ms * 128;
        SimResult {
            instructions: 4_000_000_000,
            exec_time_ps: time,
            slowest_core_ps: time,
            controller: ControllerStats {
                activates: (reads + writes) / 4,
                reads,
                writes,
                refreshes,
                ..ControllerStats::default()
            },
            residency: ResidencyStats {
                active_bank_ps: banks * time / 4,
                refresh_bank_ps: refreshes * 16 * TimingParams::ddr4_3200_spec().t_rfc_ps(),
                banks,
                end_ps: time,
                ..ResidencyStats::default()
            },
            ..SimResult::default()
        }
    }

    fn charge(result: &SimResult) -> RunEnergy {
        RunEnergy::of_run(
            result,
            &ResidencyModel::ddr4_3200(),
            &CpuPowerParams::default(),
            16,
        )
    }

    #[test]
    fn faster_run_has_lower_epi() {
        let slow = charge(&run(1_000, 50_000_000, 8_000_000));
        let fast = charge(&run(820, 50_000_000, 8_000_000));
        assert!(fast.epi_nj() < slow.epi_nj());
        // ~18% faster with static-dominated power → EPI gain of a few
        // to ~15 percent, bracketing the paper's 6%.
        let gain = 1.0 - fast.epi_nj() / slow.epi_nj();
        assert!(gain > 0.02 && gain < 0.2, "gain {gain}");
    }

    #[test]
    fn doubled_writes_cost_little() {
        let base = charge(&run(1_000, 50_000_000, 8_000_000));
        let mut dup = run(1_000, 50_000_000, 8_000_000);
        dup.controller.broadcast_extra_cells = 8_000_000; // every write duplicated
        let dup = charge(&dup);
        let overhead = dup.total_j() / base.total_j() - 1.0;
        assert!(overhead > 0.0);
        assert!(overhead < 0.02, "write duplication overhead {overhead}");
    }

    #[test]
    fn dram_share_is_minority() {
        let share = charge(&run(1_000, 50_000_000, 8_000_000)).dram_share();
        assert!(share > 0.02 && share < 0.35, "dram share {share}");
    }

    #[test]
    fn per_chip_power_matches_the_papers_order_of_magnitude() {
        // Section II-A justifies ignoring thermal risk because DRAM
        // devices draw ~0.3 W/chip at full utilization. One dual-rank
        // module saturated with reads (25.6 GB/s = 400M bursts/s) for
        // one second, rows open throughout, across its 18 devices.
        let refreshes = 2 * 128_000; // every 7.8 us, per rank
        let one_second = SimResult {
            instructions: 1,
            exec_time_ps: PS_PER_S,
            controller: ControllerStats {
                activates: 12_500_000, // a row per 32 bursts
                reads: 400_000_000,
                refreshes,
                ..ControllerStats::default()
            },
            residency: ResidencyStats {
                active_bank_ps: 32 * PS_PER_S,
                banks: 32,
                end_ps: PS_PER_S,
                ..ResidencyStats::default()
            },
            ..SimResult::default()
        };
        let module_watts = charge(&one_second).dram.total_j(); // J over 1 s
        let per_chip = module_watts / 18.0;
        assert!(
            (0.05..0.5).contains(&per_chip),
            "per-chip power {per_chip} W out of the paper's regime"
        );
    }

    #[test]
    fn zero_instruction_run_is_safe() {
        let b = charge(&SimResult::default());
        assert_eq!(b.epi_nj(), 0.0);
        assert_eq!(b.total_j(), 0.0);
        assert_eq!(b.dram_share(), 0.0);
    }

    #[test]
    fn burst_energy_is_monotone_decreasing_in_data_rate() {
        // Within a device family, the burst current delta is fixed, so
        // a faster interface (shorter burst) costs less energy per
        // 64-byte transfer; the MRDIMM continues the trend at 8800.
        let families = [
            vec![ResidencyModel::ddr4_2400(), ResidencyModel::ddr4_3200()],
            vec![
                ResidencyModel::ddr5_4800(),
                ResidencyModel::ddr5_6400(),
                ResidencyModel::mrdimm_8800(),
            ],
        ];
        for chain in &families {
            for pair in chain.windows(2) {
                assert!(pair[1].edges.read_nj < pair[0].edges.read_nj);
                assert!(pair[1].edges.write_nj < pair[0].edges.write_nj);
            }
        }
    }
}
