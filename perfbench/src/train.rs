//! `train_paper`: repeated full 64-cell `run_grid` passes over the
//! paper-scale corpus — 4 malware classes × J48/JRip/MLP/OneR × 16/8/4/4-
//! boosted HPCs — on `hmd_ml::par` at a fixed thread count.

use crate::common::{median, process_cpu_us, secs, vm_hwm_kib, Ledger, Outcome};
use hmd_bench::grid::{run_grid, Grid, HpcConfig};
use hmd_bench::setup::{Experiment, Scale};
use hmd_hpc_sim::corpus::CorpusBuilder;
use hmd_hpc_sim::workload::AppClass;
use hmd_ml::classifier::ClassifierKind;
use hmd_ml::data::{Dataset, SortedColumns};
use hmd_ml::par::{derive_seed, par_map, with_threads};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use twosmart::pipeline::{class_dataset_from, full_dataset, select_events};
use twosmart::stage2::SpecializedDetector;

/// Corpus builds per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Cells whose F-measure and AUC are recomputed independently per run.
const SAMPLED_CELLS: usize = 4;

/// Worker threads for the grid: two, or fewer on a smaller machine.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// `(class, kind, config)` F-measure and AUC bits of every cell, in grid
/// order — what "the same grid" means between passes.
fn grid_bits(grid: &Grid) -> Vec<(u64, u64)> {
    grid.cells()
        .iter()
        .map(|c| (c.score.f_measure.to_bits(), c.score.auc.to_bits()))
        .collect()
}

/// F-measure of class 1 from predicted/true labels, by its own confusion
/// counts.
fn f_measure(pairs: &[(usize, usize)]) -> f64 {
    let (mut tp, mut fp, mut fneg) = (0.0f64, 0.0f64, 0.0f64);
    for &(truth, pred) in pairs {
        match (truth == 1, pred == 1) {
            (true, true) => tp += 1.0,
            (false, true) => fp += 1.0,
            (true, false) => fneg += 1.0,
            (false, false) => {}
        }
    }
    if tp == 0.0 {
        return 0.0;
    }
    let precision = tp / (tp + fp);
    let recall = tp / (tp + fneg);
    2.0 * precision * recall / (precision + recall)
}

/// Area under the ROC curve by the rank-sum (Mann-Whitney) statistic with
/// mid-ranks for ties.
fn auc(scores: &[f64], positive: &[bool]) -> f64 {
    let n_pos = positive.iter().filter(|&&p| p).count() as f64;
    let n_neg = positive.len() as f64 - n_pos;
    if n_pos == 0.0 || n_neg == 0.0 {
        return 0.5;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut rank_sum = 0.0;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let mid = (i + j) as f64 / 2.0 + 1.0;
        rank_sum += mid * order[i..=j].iter().filter(|&&k| positive[k]).count() as f64;
        i = j + 1;
    }
    (rank_sum - n_pos * (n_pos + 1.0) / 2.0) / (n_pos * n_neg)
}

/// Retrains cells picked by `seed` and recomputes their F-measure and AUC from the
/// model's own predictions; each must match the grid's figures.
fn check_sampled_cells(exp: &Experiment, grid: &Grid, seed: u64, out: &mut Outcome) {
    for k in 0..SAMPLED_CELLS {
        let pick = derive_seed(seed, 1 + k as u64);
        let class = AppClass::MALWARE[(pick % 4) as usize];
        let kind = ClassifierKind::ALL[k % ClassifierKind::ALL.len()];
        let config = HpcConfig::ALL[((pick >> 8) % 4) as usize];
        let train = class_dataset_from(&exp.train, class);
        let test = class_dataset_from(&exp.test, class);
        let cols = SortedColumns::new(&train);
        let det = SpecializedDetector::train_cached(
            &train,
            &cols,
            class,
            &config.stage2_config(kind),
            exp.seed,
        )
        .expect("grid cells train");
        let reduced = select_events(&test, det.events());
        let mut pairs = Vec::with_capacity(reduced.len());
        let mut scores = Vec::with_capacity(reduced.len());
        for i in 0..reduced.len() {
            let p = det.model().predict_proba(reduced.features_of(i));
            let mut best = 0;
            for (c, v) in p.iter().enumerate() {
                if *v > p[best] {
                    best = c;
                }
            }
            pairs.push((reduced.label_of(i), best));
            scores.push(p[1]);
        }
        let positive: Vec<bool> = (0..reduced.len())
            .map(|i| reduced.label_of(i) == 1)
            .collect();
        let (f, a) = (f_measure(&pairs), auc(&scores, &positive));
        let cell = grid.cell(class, kind, config);
        out.check((f - cell.score.f_measure).abs() < 1e-9 && (a - cell.score.auc).abs() < 1e-9, || {
            format!(
                "train: {class}/{kind}/{}: recomputed F {f:.6} AUC {a:.6}, grid says F {:.6} AUC {:.6}",
                config.label(),
                cell.score.f_measure,
                cell.score.auc
            )
        });
    }
}

/// The paper's result shapes (DESIGN §6) on one grid.
fn check_shapes(grid: &Grid, out: &mut Outcome) {
    let f = |class, kind, config| grid.cell(class, kind, config).score.f_measure;
    let mut winners: Vec<ClassifierKind> = AppClass::MALWARE
        .iter()
        .flat_map(|&c| {
            [HpcConfig::Hpc16, HpcConfig::Hpc8, HpcConfig::Hpc4].map(|k| grid.best_kind(c, k))
        })
        .collect();
    winners.sort();
    winners.dedup();
    out.check(winners.len() >= 3, || {
        format!("train: only {} distinct Table I winners", winners.len())
    });
    let cells = AppClass::MALWARE
        .iter()
        .flat_map(|&c| ClassifierKind::ALL.map(|k| (c, k)))
        .collect::<Vec<_>>();
    let richer = cells
        .iter()
        .filter(|&&(c, k)| f(c, k, HpcConfig::Hpc16) >= f(c, k, HpcConfig::Hpc4))
        .count();
    out.check(richer * 2 > cells.len(), || {
        format!(
            "train: 16-HPC F >= 4-HPC F in only {richer} of {} cells",
            cells.len()
        )
    });
    for kind in [
        ClassifierKind::J48,
        ClassifierKind::JRip,
        ClassifierKind::OneR,
    ] {
        let recovered = AppClass::MALWARE
            .iter()
            .filter(|&&c| f(c, kind, HpcConfig::Hpc4Boosted) >= f(c, kind, HpcConfig::Hpc4))
            .count();
        out.check(recovered * 2 > AppClass::MALWARE.len(), || {
            format!("train: boosting helps {kind} at 4 HPCs in only {recovered} of 4 classes")
        });
    }
}

/// The untraced run: end-to-end metrics.
///
/// Every pass runs the grid at the paper experiment's own seed — the grid
/// `run_all` reports and DESIGN §6 states the result shapes for. The grid's
/// cost depends strongly on its training seed (AdaBoost and MLP work), so a
/// seed-dependent grid would mix input changes into the run-to-run spread;
/// `--seed` picks the cells that are re-verified independently instead.
/// The untimed warm-up pass is checked for the result shapes, and every
/// timed pass must reproduce it exactly.
///
/// The corpus is always the paper-scale one, on which the result shapes
/// are stated; `setups` corpus builds are timed (the smoke size runs one).
pub fn run(seed: u64, seconds: f64, setups: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut times = Vec::with_capacity(setups);
    let mut exp = None;
    for _ in 0..setups.max(1) {
        drop(exp.take());
        let t0 = Instant::now();
        exp = Some(Experiment::prepare(Scale::Paper));
        times.push(secs(t0));
    }
    let exp = exp.expect("at least one set-up");
    let (first, passes, cpu_us) = with_threads(threads(), || {
        let first = run_grid(&exp.train, &exp.test, exp.seed);
        let reference = grid_bits(&first);
        let mut passes = Vec::new();
        let cpu0 = process_cpu_us();
        let start = Instant::now();
        while passes.is_empty() || secs(start) < seconds {
            let t0 = Instant::now();
            let grid = run_grid(&exp.train, &exp.test, exp.seed);
            passes.push(secs(t0));
            out.check(grid_bits(&grid) == reference, || {
                format!("train: pass {} differs from the warm-up pass", passes.len())
            });
        }
        (first, passes, process_cpu_us() - cpu0)
    });
    let cells = first.cells().len();
    out.check(cells == 64, || format!("train: grid has {cells} cells"));
    check_sampled_cells(&exp, &first, seed, &mut out);
    check_shapes(&first, &mut out);
    out.attempted += (cells * (passes.len() + 1)) as u64;
    out.metric("setup_s", median(&times), "s");
    out.metric("ops_per_s", cells as f64 / median(&passes), "1/s");
    out.metric("lat_p50_us", median(&passes) * 1e6, "us");
    out.metric(
        "cpu_us_per_op",
        cpu_us / (cells * passes.len()) as f64,
        "us",
    );
    out.metric("peak_rss_mb", vm_hwm_kib() as f64 / 1024.0, "MiB");
    out
}

/// Per-cell timings of one traced pass.
struct Cell {
    kind: ClassifierKind,
    boosted: bool,
    train_ms: f64,
    eval_ms: f64,
    bits: (u64, u64),
}

/// The traced run: one warm-up and one traced pass that replicates
/// `run_grid` with every layer call timed, and the ledger in thread-ms
/// per pass.
pub fn trace(scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let corpus = CorpusBuilder::new(scale.spec()).build();
    let corpus_s = secs(t0);
    let data = full_dataset(&corpus);
    let mut rng = StdRng::seed_from_u64(Experiment::SEED);
    let (train, test): (Dataset, Dataset) = data.stratified_split(0.6, &mut rng);
    let threads = threads();
    let gseed = Experiment::SEED;
    let (reference, project_ms, columns_ms, cells, pass_ms) = with_threads(threads, || {
        let reference = grid_bits(&run_grid(&train, &test, gseed));
        let t_pass = Instant::now();
        let splits = par_map(AppClass::MALWARE.to_vec(), |_, class| {
            let t0 = Instant::now();
            let bin_train = class_dataset_from(&train, class);
            let bin_test = class_dataset_from(&test, class);
            let project = t0.elapsed().as_secs_f64() * 1e3;
            let t0 = Instant::now();
            let cols = SortedColumns::new(&bin_train);
            (
                bin_train,
                cols,
                bin_test,
                project,
                t0.elapsed().as_secs_f64() * 1e3,
            )
        });
        let combos: Vec<(usize, ClassifierKind, HpcConfig)> = (0..AppClass::MALWARE.len())
            .flat_map(|c| {
                ClassifierKind::ALL
                    .into_iter()
                    .flat_map(move |k| HpcConfig::ALL.map(|h| (c, k, h)))
            })
            .collect();
        let cells = par_map(combos, |_, (ci, kind, config)| {
            let (bin_train, cols, bin_test, _, _) = &splits[ci];
            let class = AppClass::MALWARE[ci];
            let t0 = Instant::now();
            let det = SpecializedDetector::train_cached(
                bin_train,
                cols,
                class,
                &config.stage2_config(kind),
                gseed,
            )
            .expect("grid cells train");
            let train_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t0 = Instant::now();
            let score = det.evaluate(bin_test);
            Cell {
                kind,
                boosted: config.boosted(),
                train_ms,
                eval_ms: t0.elapsed().as_secs_f64() * 1e3,
                bits: (score.f_measure.to_bits(), score.auc.to_bits()),
            }
        });
        let pass_ms = t_pass.elapsed().as_secs_f64() * 1e3;
        let project: f64 = splits.iter().map(|s| s.3).sum();
        let columns: Vec<f64> = splits.iter().map(|s| s.4).collect();
        (reference, project, columns, cells, pass_ms)
    });
    let traced: Vec<(u64, u64)> = cells.iter().map(|c| c.bits).collect();
    out.check(traced == reference, || {
        "train: the traced pass differs from run_grid's grid".into()
    });
    out.attempted += 2 * cells.len() as u64;

    let mean_train = |kind: ClassifierKind, boosted: bool| {
        let v: Vec<f64> = cells
            .iter()
            .filter(|c| c.kind == kind && c.boosted == boosted)
            .map(|c| c.train_ms)
            .collect();
        (v.iter().sum::<f64>() / v.len().max(1) as f64, v.len())
    };
    let eval_total: f64 = cells.iter().map(|c| c.eval_ms).sum();
    let columns_total: f64 = columns_ms.iter().sum();
    let busy =
        project_ms + columns_total + cells.iter().map(|c| c.train_ms + c.eval_ms).sum::<f64>();
    let capacity = threads as f64 * pass_ms;

    let mut ledger = Ledger::new(
        format!("train_paper ledger — one 64-cell pass on {threads} threads (thread-ms per pass)"),
        "ms",
        capacity,
    );
    ledger.row(
        0,
        "grid.project (class_dataset_from x8)",
        project_ms / 4.0,
        4.0,
        project_ms,
    );
    ledger.row(
        0,
        "columns.build (SortedColumns::new)",
        columns_total / 4.0,
        4.0,
        columns_total,
    );
    let names = [
        (ClassifierKind::J48, "train.j48", "train.j48_boost"),
        (ClassifierKind::JRip, "train.jrip", "train.jrip_boost"),
        (ClassifierKind::Mlp, "train.mlp", "train.mlp_boost"),
        (ClassifierKind::OneR, "train.oner", "train.oner_boost"),
    ];
    for (kind, plain, boost) in names {
        for (boosted, name) in [(false, plain), (true, boost)] {
            let (ms, n) = mean_train(kind, boosted);
            ledger.row(0, name, ms, n as f64, ms * n as f64);
        }
    }
    ledger.row(
        0,
        "eval (SpecializedDetector::evaluate)",
        eval_total / cells.len() as f64,
        cells.len() as f64,
        eval_total,
    );
    println!("{}", ledger.render());
    println!(
        "  remainder = idle threads (cell-size imbalance) and par_map overhead; pass wall {pass_ms:.0} ms, corpus build {corpus_s:.2} s\n"
    );

    out.metric("corpus.build_s", corpus_s, "s");
    out.metric(
        "columns.build_ms",
        columns_total / columns_ms.len() as f64,
        "ms",
    );
    for (kind, plain, boost) in [
        (ClassifierKind::J48, "train.j48_ms", "train.j48_boost_ms"),
        (ClassifierKind::JRip, "train.jrip_ms", "train.jrip_boost_ms"),
        (ClassifierKind::Mlp, "train.mlp_ms", "train.mlp_boost_ms"),
        (ClassifierKind::OneR, "train.oner_ms", "train.oner_boost_ms"),
    ] {
        out.metric(plain, mean_train(kind, false).0, "ms");
        out.metric(boost, mean_train(kind, true).0, "ms");
    }
    out.metric("eval.ms", eval_total / cells.len() as f64, "ms");
    out.metric("grid.par_efficiency", busy / capacity, "count");
    out
}
