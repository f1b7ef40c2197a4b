//! The served model: the paper-scale deployable detector both serving
//! workloads restore from its JSON snapshot during set-up.

use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
use hmd_hpc_sim::workload::AppClass;
use hmd_ml::classifier::ClassifierKind;
use std::process::{Command, Stdio};
use twosmart::detector::TwoSmartDetector;
use twosmart::persist::DetectorSnapshot;

/// Training seed of the served model. Fixed, so every run (and every
/// `--seed`) serves the same model; `--seed` varies only the telemetry.
pub const MODEL_SEED: u64 = 2019;

/// Sliding-window length and vote depth of every serving session.
pub const WINDOW: usize = 8;
pub const VOTES: usize = 3;

/// The served model's snapshot JSON, trained by a child process of this
/// benchmark (`--emit-snapshot`), so that training's memory stays out of
/// this process's peak RSS. Input preparation: runs before any clock.
pub fn snapshot_json() -> String {
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let output = Command::new(exe)
        .arg("--emit-snapshot")
        .stderr(Stdio::inherit())
        .output()
        .expect("the model trainer starts");
    assert!(output.status.success(), "the model trainer failed");
    let json = String::from_utf8(output.stdout).expect("snapshot JSON is UTF-8");
    eprintln!(
        "served model: snapshot {} bytes, FNV-1a {:016x}",
        json.len(),
        crate::common::fnv1a(json.as_bytes())
    );
    json
}

/// Trains the served detector — paper corpus, 4-HPC budget, J48
/// specialists — and returns its snapshot as JSON, the format
/// `serve --snapshot` loads.
pub fn train_snapshot_json() -> String {
    let corpus = CorpusBuilder::new(CorpusSpec::paper()).build();
    let detector = AppClass::MALWARE
        .iter()
        .fold(
            TwoSmartDetector::builder().seed(MODEL_SEED).hpc_budget(4),
            |b, &c| b.classifier_for(c, ClassifierKind::J48),
        )
        .train(&corpus)
        .expect("the paper corpus trains a 4-HPC detector");
    let snapshot = DetectorSnapshot::capture(&detector).expect("a trained detector captures");
    serde_json::to_string(&snapshot).expect("snapshots serialize")
}

/// Parses, validates and restores a snapshot — the steps
/// `DetectorSnapshot::load_json` + `try_restore` perform, minus the file
/// read. Timed as part of every serving set-up.
pub fn restore(json: &str) -> TwoSmartDetector {
    let snapshot: DetectorSnapshot = serde_json::from_str(json).expect("snapshot JSON parses");
    snapshot.validate().expect("snapshot validates");
    snapshot.try_restore().expect("snapshot restores")
}
