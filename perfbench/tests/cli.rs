//! Command-line contract of the benchmark binary: deterministic inputs
//! per seed, identical simulated digests with and without tracing,
//! exactly repeating per-layer counts, and loud, panic-free rejection of
//! bad arguments.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["node-dram", "node-cache", "fleet", "protocol-ecc"];

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn perfbench(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// A one-second run; returns its stdout after checking it succeeded.
fn bench(workload: &str, seed: &str, trace: &str) -> String {
    let run = perfbench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    assert_eq!(
        run.code,
        Some(0),
        "{workload}: {}{}",
        run.stdout,
        run.stderr
    );
    run.stdout
}

fn digest(stdout: &str) -> &str {
    stdout
        .lines()
        .find_map(|l| l.split(" digest ").nth(1))
        .expect("a digest line")
}

/// `(name, value, unit)` of every metric in the final JSON line.
fn metrics(stdout: &str) -> Vec<(String, f64, String)> {
    let last = stdout.lines().last().expect("a result line");
    let parts: Vec<&str> = last.split("{\"value\": ").collect();
    parts
        .windows(2)
        .map(|pair| {
            let name = pair[0].trim_end_matches("\": ").rsplit('"').next();
            let value = &pair[1][..pair[1].find(',').expect("value ends")];
            let unit = pair[1].split("\"unit\": \"").nth(1).expect("unit");
            (
                name.expect("name").to_string(),
                value.parse().expect("numeric value"),
                unit.split('"').next().expect("unit ends").to_string(),
            )
        })
        .collect()
}

fn metric(stdout: &str, name: &str) -> f64 {
    metrics(stdout)
        .into_iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .1
}

fn counts(stdout: &str) -> Vec<(String, f64)> {
    metrics(stdout)
        .into_iter()
        .filter(|m| m.2 == "count")
        .map(|m| (m.0, m.1))
        .collect()
}

#[test]
fn results_are_deterministic_in_the_seed() {
    for w in WORKLOADS {
        let a = bench(w, "5", "0");
        let b = bench(w, "5", "0");
        let c = bench(w, "6", "0");
        assert_eq!(digest(&a), digest(&b), "{w}: same seed, same digest");
        assert_ne!(digest(&a), digest(&c), "{w}: another seed, other inputs");
        assert!(a.lines().last().unwrap().starts_with("{\"correct\": true,"));
    }
}

#[test]
fn tracing_changes_no_simulated_statistic_and_counts_repeat() {
    for w in WORKLOADS {
        let plain = bench(w, "9", "0");
        let traced = bench(w, "9", "1");
        let again = bench(w, "9", "1");
        assert_eq!(digest(&plain), digest(&traced), "{w}");
        assert_eq!(digest(&traced), digest(&again), "{w}");
        let (first, second) = (counts(&traced), counts(&again));
        assert!(first.len() > 10, "{w}: count metrics {first:?}");
        assert_eq!(first, second, "{w}: counts repeat exactly");
        assert!(traced.contains("(unattributed)"), "{w}: self-time table");
        match w {
            "fleet" => {
                let jobs = metric(&traced, "scheduler.cluster.jobs");
                assert_eq!(metric(&traced, "workloads.jobgen.jobs"), 5.0 * jobs);
                assert_eq!(metric(&traced, "workloads.jobgen.useful_ratio"), 1.0 / 5.0);
            }
            "node-cache" => {
                let requests = metric(&traced, "memsim.controller.requests");
                assert!(requests > 0.0);
                assert!(requests < 0.01 * metric(&traced, "workloads.tracegen.ops"));
            }
            "node-dram" => {
                assert_eq!(metric(&traced, "core.node_model.hit_ratio"), 0.5);
            }
            _ => assert!(metric(&traced, "core.protocol.recovered") > 0.0),
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_with_one_line_and_no_panic() {
    let cases: [&[&str]; 9] = [
        &[],
        &["--workload", "fig99", "--seed", "1"],
        &["--workload", "fleet"],
        &["--workload", "fleet", "--seed"],
        &["--workload", "fleet", "--seed", "x"],
        &["--workload", "fleet", "--seed", "1", "--seconds", "0"],
        &["--workload", "fleet", "--seed", "1", "--trace", "yes"],
        &["--workload", "fleet", "--seed", "1", "--frobnicate", "1"],
        &["--workload", "--seed", "1"],
    ];
    for args in cases {
        let run = perfbench(args);
        assert!(
            matches!(run.code, Some(c) if c != 0 && c != 101),
            "{args:?}: exit {:?}",
            run.code
        );
        assert!(run.stdout.is_empty(), "{args:?}: no result printed");
        assert_eq!(run.stderr.lines().count(), 1, "{args:?}: {}", run.stderr);
        assert!(!run.stderr.contains("panicked"), "{args:?}");
    }
}
