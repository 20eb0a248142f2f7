//! One bench group per paper table/figure: each measures the time to
//! regenerate (a reduced instance of) that experiment, proving every
//! harness stays runnable.

use criterion::{criterion_group, criterion_main, Criterion};
use energy::{CpuPowerParams, ResidencyModel};
use hdmr_bench::{bench_model, one_cell};
use hetero_dmr::emulation::EmulationInputs;
use hetero_dmr::monte_carlo::MonteCarlo;
use hetero_dmr::MemoryDesign;
use margin::composition::SelectionPolicy;
use margin::errors::TestCondition;
use margin::population::ModulePopulation;
use margin::stress::{run_stress_test, StressConfig};
use memsim::config::HierarchyConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scheduler::{Cluster, GrizzlyTrace, RunSummary, SchedulerConfig, SliceSource, SpeedupModel};
use std::hint::black_box;
use workloads::utilization::{Cluster as Lanl, UtilizationModel};
use workloads::Suite;

fn fig01_utilization(c: &mut Criterion) {
    c.bench_function("fig01_utilization_buckets", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let m = UtilizationModel::for_cluster(Lanl::Grizzly);
            let mut below = 0u32;
            for _ in 0..1_000 {
                if m.sample_utilization(&mut rng) < 0.5 {
                    below += 1;
                }
            }
            black_box((m.bucket_weights(), below))
        })
    });
}

fn table1_to_4_configs(c: &mut Criterion) {
    c.bench_function("table1_4_static_configs", |b| {
        b.iter(|| {
            let t1 = margin::study::TABLE_I;
            let t2: Vec<_> = dram::timing::MemorySetting::ALL
                .iter()
                .map(|s| s.timing())
                .collect();
            let t34 = HierarchyConfig::both();
            black_box((t1, t2, t34))
        })
    });
}

fn fig02_04_population(c: &mut Criterion) {
    c.bench_function("fig02_population_characterization", |b| {
        b.iter(|| {
            let pop = ModulePopulation::paper_study(black_box(7));
            black_box((
                margin::study::by_brand(&pop),
                margin::study::by_chips_per_rank(&pop),
                margin::study::by_condition(&pop),
            ))
        })
    });
}

fn fig05_margin_settings(c: &mut Criterion) {
    let model = bench_model(HierarchyConfig::hierarchy1());
    let mut g = c.benchmark_group("fig05_margin_settings");
    g.sample_size(10);
    g.bench_function("freq_lat_linpack", |b| {
        b.iter(|| {
            black_box(one_cell(
                &model,
                MemoryDesign::ExploitFreqLat,
                Suite::Linpack,
            ))
        })
    });
    g.finish();
}

fn fig06_stress_tests(c: &mut Criterion) {
    c.bench_function("fig06_error_rate_stress", |b| {
        let pop = ModulePopulation::paper_study(3);
        let cfg = StressConfig::default();
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| {
            let mut total = 0u64;
            for m in pop.mainstream() {
                total +=
                    run_stress_test(&mut rng, &m.errors, TestCondition::Freq23C, &cfg).corrected;
            }
            black_box(total)
        })
    });
}

fn fig11_monte_carlo(c: &mut Criterion) {
    c.bench_function("fig11_margin_monte_carlo", |b| {
        let mc = MonteCarlo::default();
        b.iter(|| black_box(mc.node_groups(SelectionPolicy::MarginAware, 2_000, black_box(5))))
    });
}

fn fig12_14_designs(c: &mut Criterion) {
    let model = bench_model(HierarchyConfig::hierarchy1());
    let mut g = c.benchmark_group("fig12_designs");
    g.sample_size(10);
    g.bench_function("hetero_dmr_hpcg", |b| {
        b.iter(|| {
            black_box(one_cell(
                &model,
                MemoryDesign::HeteroDmr { margin_mts: 800 },
                Suite::Hpcg,
            ))
        })
    });
    g.bench_function("fmr_hpcg", |b| {
        b.iter(|| black_box(one_cell(&model, MemoryDesign::Fmr, Suite::Hpcg)))
    });
    g.finish();
}

fn fig13_energy(c: &mut Criterion) {
    let model = bench_model(HierarchyConfig::hierarchy1());
    // Populate the run cache once, then measure the energy model.
    let _ = model.run(MemoryDesign::CommercialBaseline, Suite::Npb);
    c.bench_function("fig13_energy_per_instruction", |b| {
        let (dram, cpu) = (ResidencyModel::ddr4_3200(), CpuPowerParams::default());
        b.iter(|| {
            black_box(
                model
                    .energy(MemoryDesign::CommercialBaseline, Suite::Npb, &dram, &cpu)
                    .epi_nj(),
            )
        })
    });
}

fn fig15_16_baseline_profile(c: &mut Criterion) {
    let model = bench_model(HierarchyConfig::hierarchy1());
    let base = model.run(MemoryDesign::CommercialBaseline, Suite::Lulesh);
    let fast = model.run(MemoryDesign::ExploitFreqLat, Suite::Lulesh);
    c.bench_function("fig16_emulation_formula", |b| {
        b.iter(|| {
            let inputs = EmulationInputs::from_fast_run(&fast, dram::rate::DataRate::MT3200);
            black_box((
                base.bandwidth_utilization(),
                base.write_fraction(),
                inputs.emulated_speedup(base.exec_time_ps),
            ))
        })
    });
}

fn fig17_cluster(c: &mut Criterion) {
    let trace = GrizzlyTrace::scaled(2_000, 256).generate(9);
    let mut g = c.benchmark_group("fig17_cluster_sim");
    g.sample_size(10);
    g.bench_function("margin_aware_schedule", |b| {
        let cluster = Cluster::new(256, [0.62, 0.36, 0.02]);
        let config = SchedulerConfig::builder()
            .margin_aware()
            .speedups(SpeedupModel::hetero_dmr_default())
            .build()
            .unwrap();
        b.iter(|| {
            let out = cluster
                .schedule(SliceSource::new(&trace))
                .config(config)
                .run();
            black_box(RunSummary::from_outcomes(&out))
        })
    });
    g.finish();
}

criterion_group!(
    figures,
    fig01_utilization,
    table1_to_4_configs,
    fig02_04_population,
    fig05_margin_settings,
    fig06_stress_tests,
    fig11_monte_carlo,
    fig12_14_designs,
    fig13_energy,
    fig15_16_baseline_profile,
    fig17_cluster
);
criterion_main!(figures);
