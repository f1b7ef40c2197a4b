//! Repository benchmark for the 2SMaRT reproduction.
//!
//! ```text
//! perfbench --workload fleet_churn|live_v2|train_paper --seed N --seconds S --trace 0|1 [--smoke]
//! perfbench --repeat N [--seed B] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! A plain run prints the workload's end-to-end metrics (`--trace 0`) or
//! the per-layer ledger of every workload (`--trace 1`), and ends with one
//! JSON result line. `--repeat` runs the workloads N times each as child
//! processes, alternating them, with seeds B, B+1, …, and prints the median and quartiles of
//! every metric. `--smoke` shrinks every workload to a size that runs all
//! correctness checks in seconds. See README.md.

mod common;
mod fleet;
mod live;
mod model;
mod train;

use common::{quartiles, Outcome};
use hmd_bench::setup::Scale;
use std::process::{Command, ExitCode, Stdio};

const WORKLOADS: [&str; 3] = ["fleet_churn", "live_v2", "train_paper"];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        repeat: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = num(&value)?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
            }
            "--trace" => args.trace = num(&value)? != 0,
            "--repeat" => args.repeat = Some(num(&value)? as usize),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?} (expected one of {WORKLOADS:?})"
            ));
        }
    }
    if args.repeat.is_none() && args.workload.is_none() {
        return Err("--workload or --repeat is required".into());
    }
    Ok(args)
}

/// One untraced run of a workload.
fn run(workload: &str, seed: u64, seconds: f64, smoke: bool) -> Outcome {
    match workload {
        "fleet_churn" => {
            let size = if smoke {
                fleet::Size::SMOKE
            } else {
                fleet::Size::FULL
            };
            fleet::run(seed, seconds, size)
        }
        "live_v2" => {
            let size = if smoke {
                live::Size::SMOKE
            } else {
                live::Size::FULL
            };
            live::run(seed, seconds, size)
        }
        _ => train::run(seed, seconds, if smoke { 1 } else { train::SETUPS }),
    }
}

/// One traced run: every workload's ledger on this seed's inputs, so every
/// per-layer metric is present whichever workload is named.
fn trace(seed: u64, seconds: f64, smoke: bool) -> Outcome {
    let json = model::snapshot_json();
    let mut out = fleet::trace(
        seed,
        if smoke {
            fleet::Size::SMOKE
        } else {
            fleet::Size::FULL
        },
        &json,
    );
    let live_size = if smoke {
        live::Size::SMOKE
    } else {
        live::Size::FULL
    };
    out.absorb(live::trace(seed, seconds.min(5.0), live_size, &json));
    out.absorb(train::trace(if smoke {
        Scale::Small
    } else {
        Scale::Paper
    }));
    out
}

/// Runs the workloads `n` times each in child processes, alternating
/// them, and prints the median and quartiles of every metric.
fn repeat(args: &Args, n: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // (workload, metric, unit) -> values, in first-seen order.
    let mut table: Vec<(String, String, String, Vec<f64>)> = Vec::new();
    let mut failures: Vec<(String, u64, u64, bool)> = Vec::new();
    for i in 0..n {
        for w in WORKLOADS {
            let seed = args.seed + i as u64;
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let value = serde_json::parse_value(last)
                .map_err(|e| format!("{w} seed {seed}: bad result line {last:?}: {e:?}"))?;
            let field = |k: &str| {
                value
                    .as_object()
                    .and_then(|o| o.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone()))
            };
            let num = |k: &str| field(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN) as u64;
            let correct = matches!(field("correct"), Some(serde_json::Value::Bool(true)));
            failures.push((w.to_string(), num("attempted"), num("failed"), correct));
            eprintln!("[repeat {}/{n}] {w} seed {seed}: {last}", i + 1);
            if let Some(metrics) = field("metrics")
                .as_ref()
                .and_then(|m| m.as_object().map(<[_]>::to_vec))
            {
                for (name, m) in metrics {
                    let get = |k: &str| {
                        m.as_object()
                            .and_then(|o| o.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone()))
                    };
                    let v = get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
                    let unit = get("unit")
                        .and_then(|u| u.as_str().map(str::to_string))
                        .unwrap_or_default();
                    match table.iter_mut().find(|r| r.0 == w && r.1 == name) {
                        Some(row) => row.3.push(v),
                        None => table.push((w.to_string(), name, unit, vec![v])),
                    }
                }
            }
        }
    }
    println!(
        "{:<12} {:<32} {:>8} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "unit", "q1", "median", "q3", "iqr/med"
    );
    for (w, name, unit, values) in &table {
        let (q1, med, q3) = quartiles(values);
        println!(
            "{w:<12} {name:<32} {unit:>8} {q1:>14.4} {med:>14.4} {q3:>14.4} {:>7.2}%",
            100.0 * (q3 - q1) / med.abs()
        );
    }
    for w in WORKLOADS {
        let runs: Vec<_> = failures.iter().filter(|f| f.0 == w).collect();
        let shares: Vec<String> = runs.iter().map(|f| format!("{}/{}", f.2, f.1)).collect();
        println!(
            "{w}: {} runs, all correct: {}, failed/attempted: {}",
            runs.len(),
            runs.iter().all(|f| f.3),
            shares.join(" ")
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--emit-snapshot") {
        print!("{}", model::train_snapshot_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return match repeat(&args, n) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = args.workload.as_deref().unwrap_or_default();
    let out = if args.trace {
        trace(args.seed, args.seconds, args.smoke)
    } else {
        run(workload, args.seed, args.seconds, args.smoke)
    };
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}
