//! Thread-scaling microbenchmark for the `gdcm-par` hot paths, plus the
//! compiled-inference comparison.
//!
//! Fits a GBDT on a synthetic matrix at 1/2/4 pool threads, times fit
//! and batch predict (min over repetitions), checks the models are
//! bit-identical across thread counts, then fits a tree-heavy model,
//! freezes it to the SoA arena, flatchecks the translation, and times
//! frozen batch inference against the recursive node walker (asserting
//! bit identity and that frozen is not slower). Writes `BENCH_gbdt.json`
//! at the repo root (or `$GDCM_BENCH_OUT`).
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

use gdcm_ml::{BinnedMatrix, DenseMatrix, FrozenGbdt, GbdtParams, GbdtRegressor, Regressor};
use serde::Serialize;

#[derive(Serialize)]
struct ThreadSample {
    threads: usize,
    fit_ms: f64,
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
        for _ in 0..reps {
            let start = Instant::now();
            let fitted = GbdtRegressor::fit(&x, &y, &params);
            fit_ms = fit_ms.min(start.elapsed().as_secs_f64() * 1e3);
            model = Some(fitted);
        }
        let model = model.expect("reps >= 1");
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
            "[{threads} threads] fit {fit_ms:.1} ms, predict {predict_ms:.1} ms, \
             split busy {busy:.1} ms"
        );
        samples.push(ThreadSample {
            threads,
            fit_ms,
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
