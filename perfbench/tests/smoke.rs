//! Runs every workload, and the traced run, at the smoke size and checks
//! that each passes its correctness checks and prints the metrics
//! `BENCHMARK.json` names.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

const END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "lat_p50_us",
    "cpu_us_per_op",
    "peak_rss_mb",
];

/// Runs the benchmark with `args` plus `--smoke` and returns its last
/// standard-output line.
fn result_line(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .arg("--smoke")
        .output()
        .expect("the benchmark starts");
    assert!(
        output.status.success(),
        "{args:?} exited with {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    for line in stdout.lines().filter(|l| l.starts_with("CHECK FAILED")) {
        eprintln!("{line}");
    }
    stdout.lines().last().expect("a result line").to_string()
}

fn assert_result(line: &str, metrics: &[&str]) {
    assert!(
        line.starts_with("{\"correct\": true, ") && line.contains("\"failed\": 0,"),
        "{line}"
    );
    for m in metrics {
        assert!(
            line.contains(&format!("\"{m}\": {{\"value\": ")),
            "{m} missing from {line}"
        );
    }
}

#[test]
fn every_workload_passes_its_checks_at_smoke_size() {
    for workload in ["fleet_churn", "live_v2", "train_paper"] {
        let line = result_line(&[
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ]);
        assert_result(&line, &END_TO_END);
    }
}

#[test]
fn traced_run_prints_every_layer_metric() {
    let bench: String =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits beside the benchmark's directory");
    let per_layer = &bench[bench.find("\"per_layer\"").expect("a per_layer list")..];
    let names: Vec<&str> = per_layer
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .collect();
    assert!(names.len() > 20, "{names:?}");
    let line = result_line(&[
        "--workload",
        "fleet_churn",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    assert_result(&line, &names);
}

#[test]
fn unknown_arguments_are_refused() {
    let status = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .status()
        .expect("the benchmark starts");
    assert!(!status.success());
}
