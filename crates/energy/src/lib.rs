//! System-level (CPU + DRAM) power and energy model.
//!
//! DRAM energy comes from one DRAMPower-style state-residency engine,
//! [`residency`]: it integrates per-bank time-in-state (active,
//! precharged, refreshing, self-refresh) from the memsim residency tap
//! and adds command-edge energies, calibrated from IDD/IPP datasheet
//! currents by [`calibrate`]. [`RunEnergy::of_run`] charges a
//! simulated run for that DRAM energy plus the CPU's, which gives
//! Figure 13's energy per instruction and the `energy` and
//! `configurator` targets' perf/W.

pub mod calibrate;
pub mod residency;

pub use calibrate::DatasheetCurrents;
pub use residency::{
    CpuPowerParams, EdgeEnergies, ResidencyBreakdown, ResidencyInput, ResidencyModel, RunEnergy,
    StatePowers,
};

use dram::{Picos, PS_PER_S};

/// Converts picoseconds to seconds.
pub fn ps_to_s(ps: Picos) -> f64 {
    ps as f64 / PS_PER_S as f64
}
