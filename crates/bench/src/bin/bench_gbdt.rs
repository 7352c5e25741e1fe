//! Thread-scaling microbenchmark for the `gdcm-par` hot paths, plus the
//! compiled-inference comparison.
//!
//! Fits a GBDT on a synthetic matrix at 1/2/4 pool threads, times fit
//! and batch predict (min over repetitions) and splits the fastest fit
//! into its phases from the model's `TrainingLog` (binning, split search,
//! prediction update, and the remainder no phase accounts for), checks
//! the models are bit-identical across thread counts, then fits a
//! tree-heavy model, freezes it to the SoA arena, flatchecks the
//! translation, and times frozen batch inference against the recursive
//! node walker (asserting bit identity and that frozen is not slower).
//!
//! The `repository_fit` section fits the paper-scale training set — 84
//! training devices × 108 open networks of `CostDataset::paper(42)`,
//! every fifth device held out as in `perfbench`'s `paper_fit` — through
//! `CollaborativeRepository::fit`, which trains on the training set's
//! column blocks, and through `fit_with_grid` on the dense
//! `TrainingSet::matrix`, alternating, and keeps each path's fastest
//! fit. It asserts the two models and frozen arenas are equal, and
//! records each path's phases and the bytes it holds for values, ids
//! and codes. The bytes are computed from the shapes of what each fit
//! reads and builds, not read from RSS. It also asserts that the column
//! blocks' split search is at least [`MIN_SPLIT_SPEEDUP`] times faster
//! than the dense one: the learner builds a mapped block's histograms
//! from per-entry sums, at most 108 networks or 84 devices a node here,
//! so a fall back to one add per row fails the run without an absolute
//! timing bound.
//!
//! The `repository_audit` section audits that fit as the serving stack
//! does — `gdcm_audit::audit_trained_artifacts` with the pipeline lint
//! profile, the frozen model included — on the training set's column
//! blocks (`TrainingSet::factored`) and on the same rows as one identity
//! block (the expanded `TrainingSet::matrix`), alternating, and keeps
//! each path's fastest audit. It asserts the two reports are identical,
//! line for line, and that the blocks' audit is at least
//! [`MIN_AUDIT_SPEEDUP`] times faster: the auditor cuts a mapped block's
//! columns from its table entries and lints each entry once, so an audit
//! that reads every row again fails the run. The section's fit time is
//! reported beside it.
//!
//! Writes `BENCH_gbdt.json` at the repo root (or `$GDCM_BENCH_OUT`).
//!
//! ```sh
//! cargo run --release -p gdcm-bench --bin bench_gbdt
//! GDCM_BENCH_FAST=1 cargo run --release -p gdcm-bench --bin bench_gbdt  # smoke
//! ```
//!
//! On a single-CPU host the >1-thread rows measure scheduling overhead,
//! not speedup; `cpus_available` records the host parallelism so readers
//! can interpret the numbers.

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::time::Instant;

use gdcm_audit::DatasetLints;
use gdcm_core::{
    CollaborativeRepository, CostDataset, MutualInfoSelector, RepositoryConfig, SignatureSelector,
    TrainingSet,
};
use gdcm_ml::gbdt::TrainingLog;
use gdcm_ml::{
    BinnedMatrix, DenseMatrix, FactoredMatrix, FrozenGbdt, GbdtParams, GbdtRegressor, Regressor,
};
use serde::Serialize;

/// Smallest dense / column-block split-search time ratio the
/// `repository_fit` section accepts.
const MIN_SPLIT_SPEEDUP: f64 = 4.0;

/// Smallest identity-block / column-block audit time ratio the
/// `repository_audit` section accepts.
const MIN_AUDIT_SPEEDUP: f64 = 4.0;

#[derive(Serialize)]
struct ThreadSample {
    threads: usize,
    fit_ms: f64,
    /// Phases of the fastest fit, from its `TrainingLog`.
    fit_bin_ms: f64,
    fit_split_search_ms: f64,
    fit_predict_update_ms: f64,
    /// `fit_ms` minus the three phases: gradients, row and column
    /// sampling, and bookkeeping.
    fit_unattributed_ms: f64,
    predict_ms: f64,
    fit_speedup_vs_serial: f64,
    predict_speedup_vs_serial: f64,
    split_search_busy_ms: f64,
}

/// Frozen (SoA arena, thresholds read back from the cut grid) batch
/// inference versus the recursive pointer-tree walker, on a tree-heavy
/// model.
#[derive(Serialize)]
struct FlatVsNode {
    n_estimators: usize,
    max_depth: usize,
    node_predict_ms: f64,
    flat_predict_ms: f64,
    flat_speedup: f64,
    node_rows_per_sec: f64,
    flat_rows_per_sec: f64,
    bit_identical: bool,
    flatcheck_diagnostics: usize,
}

/// One path of the `repository_fit` comparison.
#[derive(Serialize)]
struct FitPath {
    /// Building what the fit reads: the column-block view, or the dense
    /// matrix.
    build_ms: f64,
    /// The fit's phases, from its `TrainingLog`.
    fit_ms: f64,
    bin_ms: f64,
    split_search_ms: f64,
    predict_update_ms: f64,
    /// f32 values the fit reads: the blocks' tables, or the matrix.
    value_bytes: usize,
    /// Row-to-table ids: the view's and the grid's copies.
    id_bytes: usize,
    /// Bin codes: one per table entry and column, or per row and column.
    code_bytes: usize,
}

impl FitPath {
    fn new(build_ms: f64, log: &TrainingLog, x: &FactoredMatrix<'_>, grid: &BinnedMatrix) -> Self {
        let (code_bytes, grid_id_bytes) = grid.heap_bytes();
        let blocks = x.blocks();
        Self {
            build_ms,
            fit_ms: log.total_ms,
            bin_ms: log.bin_ms,
            split_search_ms: log.split_search_ms,
            predict_update_ms: log.predict_update_ms,
            value_bytes: blocks.iter().map(|b| b.table().len() * 4).sum(),
            id_bytes: blocks
                .iter()
                .filter_map(|b| b.ids())
                .map(|ids| ids.len() * 4)
                .sum::<usize>()
                + grid_id_bytes,
            code_bytes,
        }
    }
}

/// The paper's training job fitted on column blocks and on the dense
/// matrix; each path's fastest fit of `repetitions`.
#[derive(Serialize)]
struct RepositoryFit {
    training_devices: usize,
    open_networks: usize,
    rows: usize,
    features: usize,
    n_estimators: usize,
    models_equal: bool,
    /// Dense split-search ms over column-block split-search ms.
    split_search_speedup: f64,
    factored: FitPath,
    dense: FitPath,
}

/// The audit gate on the `repository_fit` section's fitted model, on
/// column blocks and on one identity block; each path's fastest of
/// `repetitions`.
#[derive(Serialize)]
struct RepositoryAudit {
    rows: usize,
    features: usize,
    /// Diagnostics each path reported; the two lists are identical.
    diagnostics: usize,
    diagnostics_equal: bool,
    /// Building the column-block view.
    factored_build_ms: f64,
    /// The audit and flatcheck passes on the view.
    factored_audit_ms: f64,
    /// Expanding the rows into a dense matrix.
    dense_build_ms: f64,
    /// The same passes on the dense matrix as one identity block.
    dense_audit_ms: f64,
    /// Dense audit ms over column-block audit ms.
    audit_speedup: f64,
    /// The column-block fit the audit checks (`repository_fit`'s
    /// fastest), for scale.
    fit_ms: f64,
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    cpus_available: usize,
    n_rows: usize,
    n_features: usize,
    n_estimators: usize,
    repetitions: usize,
    bit_identical_across_threads: bool,
    samples: Vec<ThreadSample>,
    flat_vs_node: FlatVsNode,
    repository_fit: RepositoryFit,
    repository_audit: RepositoryAudit,
}

fn synthetic(n_rows: usize, n_cols: usize) -> (DenseMatrix, Vec<f32>) {
    let rows: Vec<Vec<f32>> = (0..n_rows)
        .map(|i| {
            (0..n_cols)
                .map(|j| ((i * 131 + j * 29) % 251) as f32 / 251.0)
                .collect()
        })
        .collect();
    let y: Vec<f32> = rows
        .iter()
        .map(|r| {
            r.iter()
                .enumerate()
                .map(|(j, v)| v * ((j % 7) as f32 - 3.0))
                .sum()
        })
        .collect();
    (DenseMatrix::from_rows(&rows), y)
}

/// The paper's training repository: every device onboarded with a
/// 10-network MIS signature chosen on the training devices, every fifth
/// device held out, and every training device contributing every open
/// network.
fn paper_training_repository(gbdt: GbdtParams) -> (CollaborativeRepository, usize, usize) {
    let data = CostDataset::paper(42);
    let (heldout, train): (Vec<usize>, Vec<usize>) =
        (0..data.n_devices()).partition(|d| d % 5 == 0);
    let signature = MutualInfoSelector::default().select(&data.db, &train, 10);
    let open: Vec<usize> = (0..data.n_networks())
        .filter(|n| !signature.contains(n))
        .collect();
    let mut repo = CollaborativeRepository::new(
        data.encoder.clone(),
        signature.len(),
        RepositoryConfig {
            gbdt,
            ..RepositoryConfig::default()
        },
    );
    for d in 0..data.n_devices() {
        let latencies: Vec<f64> = signature.iter().map(|&n| data.db.latency(d, n)).collect();
        repo.onboard_device(&data.devices[d].model, &latencies)
            .expect("dataset devices have unique names and finite signatures");
    }
    for &d in &train {
        for &n in &open {
            repo.contribute(
                &data.devices[d].model,
                &data.suite[n].network,
                data.db.latency(d, n),
            )
            .expect("simulated latencies are finite and positive");
        }
    }
    assert_eq!(heldout.len() + train.len(), data.n_devices());
    (repo, train.len(), open.len())
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Fits the paper's training set through the repository (column blocks)
/// and densely, alternating, `reps` times each, keeping each path's
/// fastest fit, and asserts the two give the same model and frozen
/// arena. Returns the fitted repository too.
fn repository_fit(fast: bool, reps: usize) -> (RepositoryFit, CollaborativeRepository) {
    let n_estimators = if fast { 10 } else { 100 };
    let gbdt = GbdtParams {
        n_estimators,
        ..GbdtParams::default()
    };
    let (mut repo, training_devices, open_networks) = paper_training_repository(gbdt);
    let train: TrainingSet = repo.training_set().clone();
    let faster = |best: Option<FitPath>, path: FitPath| match best {
        Some(best) if best.fit_ms <= path.fit_ms => Some(best),
        _ => Some(path),
    };
    let (mut factored, mut dense, mut dense_fit) = (None, None, None);
    for _ in 0..reps {
        repo.fit()
            .expect("the paper's training set is far above min_rows");
        let start = Instant::now();
        let view = train.factored();
        let view_ms = ms_since(start);
        let log = repo.model().and_then(GbdtRegressor::training_log);
        let grid = BinnedMatrix::from_factored(&view, gbdt.max_bins);
        let path = FitPath::new(
            view_ms,
            log.expect("a fresh fit keeps its log"),
            &view,
            &grid,
        );
        factored = faster(factored, path);

        let start = Instant::now();
        let x = train.matrix();
        let matrix_ms = ms_since(start);
        let (model, grid) = GbdtRegressor::fit_with_grid(&x, train.labels(), &gbdt);
        let log = model.training_log().expect("a fresh fit keeps its log");
        dense = faster(
            dense,
            FitPath::new(matrix_ms, log, &FactoredMatrix::dense(&x), &grid),
        );
        dense_fit = Some((model, grid));
    }
    let (factored, dense) = (factored.expect("reps >= 1"), dense.expect("reps >= 1"));
    let (dense_model, dense_grid) = dense_fit.expect("reps >= 1");
    let dense_frozen =
        FrozenGbdt::freeze(&dense_model, &dense_grid).expect("fresh fit freezes on its own grid");
    let models_equal =
        repo.model() == Some(&dense_model) && repo.frozen_model() == Some(&dense_frozen);
    assert!(
        models_equal,
        "the repository's fit on column blocks differs from the dense fit"
    );
    let (rows, features) = (train.n_rows(), dense_grid.n_features());
    let split_search_speedup = dense.split_search_ms / factored.split_search_ms;
    eprintln!(
        "[repository fit] {rows} rows x {features} features, {n_estimators} trees, fastest of \
         {reps}: column blocks {:.0} ms (view {:.1}, bin {:.1}, split {:.1}, update {:.1}), \
         dense {:.0} ms (matrix {:.1}, bin {:.1}, split {:.1}, update {:.1}), \
         split search {split_search_speedup:.1}x faster on column blocks",
        factored.fit_ms,
        factored.build_ms,
        factored.bin_ms,
        factored.split_search_ms,
        factored.predict_update_ms,
        dense.fit_ms,
        dense.build_ms,
        dense.bin_ms,
        dense.split_search_ms,
        dense.predict_update_ms,
    );
    assert!(
        split_search_speedup >= MIN_SPLIT_SPEEDUP,
        "column-block split search took {:.1} ms against {:.1} ms dense: {split_search_speedup:.1}x, \
         below {MIN_SPLIT_SPEEDUP}x; are a mapped block's histograms built per row again?",
        factored.split_search_ms,
        dense.split_search_ms,
    );
    let fit = RepositoryFit {
        training_devices,
        open_networks,
        rows,
        features,
        n_estimators,
        models_equal,
        split_search_speedup,
        factored,
        dense,
    };
    (fit, repo)
}

/// Audits `repo`'s fitted model on its training set's column blocks and
/// on the expanded rows, alternating, `reps` times each, keeping each
/// path's fastest audit, and asserts the two reports are identical and
/// the blocks' audit at least [`MIN_AUDIT_SPEEDUP`] times faster.
fn repository_audit(repo: &CollaborativeRepository, fit_ms: f64, reps: usize) -> RepositoryAudit {
    let model = repo.model().expect("repository_fit fitted the repository");
    let frozen = repo.frozen_model();
    let gbdt = repo.config().gbdt;
    let train = repo.training_set();
    let audit = |x: FactoredMatrix<'_>| {
        let start = Instant::now();
        let report = gdcm_audit::audit_trained_artifacts(
            "bench/repository",
            model,
            frozen,
            Some(&gbdt),
            x,
            train.labels(),
            &DatasetLints::pipeline(),
        );
        let lines: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
        (lines, ms_since(start))
    };
    let (mut factored_build_ms, mut factored_audit_ms) = (f64::INFINITY, f64::INFINITY);
    let (mut dense_build_ms, mut dense_audit_ms) = (f64::INFINITY, f64::INFINITY);
    let mut reports = None;
    for _ in 0..reps {
        let start = Instant::now();
        let view = train.factored();
        factored_build_ms = factored_build_ms.min(ms_since(start));
        let (on_blocks, ms) = audit(view);
        factored_audit_ms = factored_audit_ms.min(ms);

        let start = Instant::now();
        let x = train.matrix();
        dense_build_ms = dense_build_ms.min(ms_since(start));
        let (on_rows, ms) = audit(FactoredMatrix::dense(&x));
        dense_audit_ms = dense_audit_ms.min(ms);
        reports = Some((on_blocks, on_rows));
    }
    let (on_blocks, on_rows) = reports.expect("reps >= 1");
    let diagnostics_equal = on_blocks == on_rows;
    assert!(
        diagnostics_equal,
        "the audit of the column blocks reported {on_blocks:?}, of the rows {on_rows:?}"
    );
    let audit_speedup = dense_audit_ms / factored_audit_ms;
    let (rows, features) = (train.n_rows(), model.n_features());
    eprintln!(
        "[repository audit] {rows} rows x {features} features, fastest of {reps}: column blocks \
         {factored_audit_ms:.1} ms (view {factored_build_ms:.1}), one identity block \
         {dense_audit_ms:.1} ms (matrix {dense_build_ms:.1}), {audit_speedup:.1}x faster on \
         column blocks; the fit it checks took {fit_ms:.0} ms; {} diagnostic(s) on each",
        on_blocks.len()
    );
    assert!(
        audit_speedup >= MIN_AUDIT_SPEEDUP,
        "the column-block audit took {factored_audit_ms:.1} ms against {dense_audit_ms:.1} ms \
         on the rows: {audit_speedup:.1}x, below {MIN_AUDIT_SPEEDUP}x; does the auditor read \
         every row again?"
    );
    RepositoryAudit {
        rows,
        features,
        diagnostics: on_blocks.len(),
        diagnostics_equal,
        factored_build_ms,
        factored_audit_ms,
        dense_build_ms,
        dense_audit_ms,
        audit_speedup,
        fit_ms,
    }
}

fn main() {
    let fast = std::env::var("GDCM_BENCH_FAST").is_ok();
    let (n_rows, n_cols, n_estimators, reps) = if fast {
        (1000, 32, 10, 2)
    } else {
        (10_000, 64, 30, 3)
    };
    let (x, y) = synthetic(n_rows, n_cols);
    let params = GbdtParams {
        n_estimators,
        ..GbdtParams::default()
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut run_report = gdcm_obs::RunReport::new("bench_gbdt");
    let original_threads = gdcm_par::threads();

    let mut samples = Vec::new();
    let mut reference: Option<GbdtRegressor> = None;
    let mut bit_identical = true;
    let mut serial_fit_ms = f64::NAN;
    let mut serial_predict_ms = f64::NAN;
    for threads in [1usize, 2, 4] {
        gdcm_par::set_threads(threads);
        let mut fit_ms = f64::INFINITY;
        let mut model = None;
        let mut fastest = None;
        for _ in 0..reps {
            let start = Instant::now();
            let fitted = GbdtRegressor::fit(&x, &y, &params);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if ms < fit_ms {
                fit_ms = ms;
                fastest = fitted.training_log().cloned();
            }
            model = Some(fitted);
        }
        let model = model.expect("reps >= 1");
        let phases = fastest.expect("a fresh fit keeps its training log");
        let fit_unattributed_ms =
            fit_ms - phases.bin_ms - phases.split_search_ms - phases.predict_update_ms;
        let mut predict_ms = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            let preds = model.predict(&x);
            predict_ms = predict_ms.min(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(preds);
        }
        match &reference {
            None => {
                serial_fit_ms = fit_ms;
                serial_predict_ms = predict_ms;
                reference = Some(model.clone());
            }
            Some(serial_model) => bit_identical &= *serial_model == model,
        }
        let busy = model
            .training_log()
            .map_or(0.0, |log| log.split_search_busy_ms);
        eprintln!(
            "[{threads} threads] fit {fit_ms:.1} ms (bin {:.1}, split {:.1}, update {:.1}, \
             other {fit_unattributed_ms:.1}), predict {predict_ms:.1} ms, split busy {busy:.1} ms",
            phases.bin_ms, phases.split_search_ms, phases.predict_update_ms,
        );
        samples.push(ThreadSample {
            threads,
            fit_ms,
            fit_bin_ms: phases.bin_ms,
            fit_split_search_ms: phases.split_search_ms,
            fit_predict_update_ms: phases.predict_update_ms,
            fit_unattributed_ms,
            predict_ms,
            fit_speedup_vs_serial: serial_fit_ms / fit_ms,
            predict_speedup_vs_serial: serial_predict_ms / predict_ms,
            split_search_busy_ms: busy,
        });
    }
    gdcm_par::set_threads(original_threads);

    // Compiled inference: freeze a tree-heavy model onto its training
    // grid, translation-validate the frozen form, then race the frozen
    // batch predictor against the recursive node walker on identical
    // rows. Both run at the restored (ambient) thread budget.
    let (fvn_estimators, fvn_depth) = if fast { (150, 6) } else { (300, 6) };
    let fvn_params = GbdtParams {
        n_estimators: fvn_estimators,
        max_depth: fvn_depth,
        ..GbdtParams::default()
    };
    let fvn_model = GbdtRegressor::fit(&x, &y, &fvn_params);
    let binned = BinnedMatrix::from_matrix(&x, fvn_params.max_bins);
    let frozen =
        FrozenGbdt::freeze(&fvn_model, &binned).expect("fresh fit freezes on its own grid");
    let mut flat_diags = Vec::new();
    gdcm_audit::check_frozen_gbdt(
        "bench/flat-vs-node",
        &fvn_model,
        &frozen,
        Some(&binned),
        &mut flat_diags,
    );
    assert!(
        flat_diags.is_empty(),
        "flatcheck flagged the bench model's frozen form: {flat_diags:?}"
    );

    let mut node_ms = f64::INFINITY;
    let mut node_preds = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        node_preds = fvn_model.predict(&x);
        node_ms = node_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let mut flat_ms = f64::INFINITY;
    let mut flat_preds = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        flat_preds = frozen.predict(&x);
        flat_ms = flat_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let flat_bit_identical = node_preds.len() == flat_preds.len()
        && node_preds
            .iter()
            .zip(&flat_preds)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        flat_bit_identical,
        "frozen batch inference diverged from the node walker"
    );
    let flat_speedup = node_ms / flat_ms;
    eprintln!(
        "[flat vs node] {fvn_estimators} trees depth {fvn_depth}: node {node_ms:.1} ms, \
         flat {flat_ms:.1} ms ({flat_speedup:.2}x)"
    );
    assert!(
        flat_speedup >= 1.0,
        "frozen inference is slower than the node walker \
         ({flat_ms:.2} ms vs {node_ms:.2} ms)"
    );
    let flat_vs_node = FlatVsNode {
        n_estimators: fvn_estimators,
        max_depth: fvn_depth,
        node_predict_ms: node_ms,
        flat_predict_ms: flat_ms,
        flat_speedup,
        node_rows_per_sec: n_rows as f64 / (node_ms / 1e3),
        flat_rows_per_sec: n_rows as f64 / (flat_ms / 1e3),
        bit_identical: flat_bit_identical,
        flatcheck_diagnostics: flat_diags.len(),
    };

    let (repository_fit, repo) = repository_fit(fast, reps);
    let repository_audit = repository_audit(&repo, repository_fit.factored.fit_ms, reps);

    let report = BenchReport {
        bench: "gbdt_par_scaling",
        cpus_available: cpus,
        n_rows,
        n_features: n_cols,
        n_estimators,
        repetitions: reps,
        bit_identical_across_threads: bit_identical,
        samples,
        flat_vs_node,
        repository_fit,
        repository_audit,
    };
    assert!(
        report.bit_identical_across_threads,
        "parallel fit diverged from the serial model"
    );

    let out = std::env::var("GDCM_BENCH_OUT").unwrap_or_else(|_| "BENCH_gbdt.json".to_string());
    let body = serde_json::to_string_pretty(&report).expect("report serializes");
    let mut file = std::fs::File::create(&out).expect("can create bench report");
    file.write_all(body.as_bytes()).expect("can write report");
    file.write_all(b"\n").expect("can write report");
    println!("bench_gbdt: wrote {out} (cpus_available = {cpus})");

    run_report.set_dim("cpus_available", cpus as u64);
    run_report.set_dim("n_rows", n_rows as u64);
    run_report.set_metric("serial_fit_ms", serial_fit_ms);
    run_report.set_metric(
        "fit_speedup_4t",
        report
            .samples
            .last()
            .map_or(0.0, |s| s.fit_speedup_vs_serial),
    );
    run_report.set_metric("flat_speedup", report.flat_vs_node.flat_speedup);
    run_report.set_metric("flat_rows_per_sec", report.flat_vs_node.flat_rows_per_sec);
    if let Err(e) = run_report.finalize_and_write() {
        eprintln!("bench_gbdt: cannot write run report: {e}");
    }
}
