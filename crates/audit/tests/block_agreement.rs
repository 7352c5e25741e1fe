//! The auditor reads column blocks exactly as it read rows. On random
//! block layouts — identity or mapped blocks, repeated ids, entries no
//! row references, bitwise-equal sub-rows under distinct ids, both
//! zeros, ±inf, NaN, ties and 1e30, labels with an outlier and a NaN —
//! its grid rebuild cuts what `BinnedMatrix::from_matrix` cuts on the
//! expanded rows, bit for bit, with the same constant flags, and its
//! full report (ensemble, dataset and flatcheck passes) on the blocks
//! equals its report on the expanded rows, in text and order. Both hold
//! at 1 and 4 `gdcm-par` threads, at 2, 16, 64 and 256 bins, and under
//! the strict and pipeline lint profiles.
//!
//! `gdcm_par::set_threads` is process-global, so every test here holds
//! `THREADS` while it runs.

use std::sync::Mutex;

use gdcm_audit::{audit_trained_artifacts, CutGrid, DatasetLints, TrainingGrid};
use gdcm_ml::{
    BinnedMatrix, ColumnBlock, DenseMatrix, FactoredMatrix, FrozenGbdt, GbdtParams, GbdtRegressor,
};
use proptest::prelude::*;

static THREADS: Mutex<()> = Mutex::new(());

/// SplitMix64, for drawing a matrix from one generated seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Values a column draws from: ties, both zeros, ±inf and NaN.
const POOL: [f32; 12] = [
    -0.0,
    0.0,
    1.0,
    -2.5,
    0.5,
    3.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    1e30,
    -1e-30,
    7.25,
];

/// One to three blocks over `n_rows` rows, identity or mapped. A mapped
/// table has entries no row references, some entries copy an earlier
/// entry's sub-row bit for bit, and each column draws from a few values
/// of [`POOL`], one value only in some columns.
fn draw_matrix(draw: &mut Draw, n_rows: usize) -> FactoredMatrix<'static> {
    let n_blocks = 1 + draw.below(3);
    let blocks = (0..n_blocks)
        .map(|_| {
            let width = 1 + draw.below(4);
            let mapped = draw.below(3) != 0;
            let entries = if mapped { 1 + draw.below(8) } else { n_rows };
            let pools: Vec<Vec<f32>> = (0..width)
                .map(|_| {
                    let k = 1 + draw.below(5);
                    (0..k).map(|_| POOL[draw.below(POOL.len())]).collect()
                })
                .collect();
            let mut table: Vec<f32> = Vec::with_capacity(entries * width);
            for e in 0..entries {
                if e > 0 && draw.below(4) == 0 {
                    // A bitwise copy of an earlier entry, under its own id.
                    let from = draw.below(e) * width;
                    table.extend_from_within(from..from + width);
                } else {
                    for pool in &pools {
                        table.push(pool[draw.below(pool.len())]);
                    }
                }
            }
            if mapped {
                // Rows reference a prefix of the entries, so the rest
                // are never referenced.
                let used = 1 + draw.below(entries);
                let ids: Vec<u32> = (0..n_rows).map(|_| draw.below(used) as u32).collect();
                ColumnBlock::mapped(table, width, ids)
            } else {
                ColumnBlock::identity(table, width)
            }
        })
        .collect();
    FactoredMatrix::new(n_rows, blocks)
}

/// Latency-like labels with ties, one far outlier and, past a few
/// rows, one NaN.
fn draw_labels(draw: &mut Draw, n_rows: usize) -> Vec<f32> {
    let mut y: Vec<f32> = (0..n_rows)
        .map(|_| 1.0 + draw.below(8) as f32 * 0.25)
        .collect();
    y[draw.below(n_rows)] = 1e6;
    if n_rows > 4 {
        y[draw.below(n_rows)] = f32::NAN;
    }
    y
}

fn bits(cuts: &[f32]) -> Vec<u32> {
    cuts.iter().map(|c| c.to_bits()).collect()
}

/// The report lines, in order.
fn lines(report: &gdcm_analyze::Report) -> Vec<String> {
    report.diagnostics.iter().map(|d| d.to_string()).collect()
}

/// A model fitted on `x` at `max_bins` and frozen on its grid. The fit
/// needs finite targets, so the NaN label trains as 1.0.
fn fitted(x: &FactoredMatrix<'_>, y: &[f32], max_bins: usize) -> (GbdtRegressor, FrozenGbdt) {
    let params = params(max_bins);
    let finite: Vec<f32> = y
        .iter()
        .map(|&v| if v.is_finite() { v } else { 1.0 })
        .collect();
    let (model, grid) = GbdtRegressor::fit_factored(x, &finite, &params);
    let frozen = FrozenGbdt::freeze(&model, &grid).expect("a fresh fit freezes on its own grid");
    (model, frozen)
}

fn params(max_bins: usize) -> GbdtParams {
    GbdtParams {
        n_estimators: 4,
        max_depth: 3,
        max_bins,
        ..GbdtParams::default()
    }
}

/// Asserts the grid and report agreement for `x`, at every thread
/// count, bin budget and lint profile the suite covers. The models
/// audited are one fitted on `x` and one fitted on its first half, whose
/// thresholds are off the full grid wherever the halves differ.
fn assert_agree(x: &FactoredMatrix<'_>, y: &[f32]) {
    let _budget = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let dense = x.to_dense();
    let half = dense.select_rows(&(0..x.n_rows().div_ceil(2)).collect::<Vec<_>>());
    let original = gdcm_par::threads();
    for threads in [1, 4] {
        gdcm_par::set_threads(threads);
        for max_bins in [2, 16, 64, 256] {
            let rebuilt = TrainingGrid::rebuild(x, max_bins);
            let expanded = BinnedMatrix::from_matrix(&dense, max_bins);
            assert_eq!(rebuilt.n_features(), expanded.n_features());
            for f in 0..dense.n_cols() {
                let at = format!("feature {f}, {max_bins} bins, {threads} threads");
                assert_eq!(
                    bits(rebuilt.cuts(f)),
                    bits(expanded.cuts(f)),
                    "cut bits of {at}"
                );
                assert_eq!(rebuilt.is_constant(f), expanded.is_constant(f), "{at}");
            }
            let models = [
                fitted(x, y, max_bins),
                fitted(&FactoredMatrix::dense(&half), &y[..half.n_rows()], max_bins),
            ];
            for (model, frozen) in &models {
                for lints in [DatasetLints::strict(), DatasetLints::pipeline()] {
                    let audit = |rows: FactoredMatrix<'_>| {
                        let params = params(max_bins);
                        lines(&audit_trained_artifacts(
                            "agree",
                            model,
                            Some(frozen),
                            Some(&params),
                            rows,
                            y,
                            &lints,
                        ))
                    };
                    let on_blocks = audit(FactoredMatrix::from(x));
                    let on_rows = audit(FactoredMatrix::from(&dense));
                    assert_eq!(
                        on_blocks, on_rows,
                        "{max_bins} bins, {threads} threads, {lints:?}"
                    );
                }
            }
        }
    }
    gdcm_par::set_threads(original);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocks_audit_as_their_rows(seed in 0u64..u64::MAX, n_rows in 1usize..60) {
        let mut draw = Draw(seed);
        let x = draw_matrix(&mut draw, n_rows);
        let y = draw_labels(&mut draw, n_rows);
        assert_agree(&x, &y);
    }
}

#[test]
fn duplicate_rows_are_equal_sub_rows_not_equal_ids() {
    // Devices 0 and 2 have bitwise-equal signatures, device 1 differs
    // only in the sign of its zero. Rows 2 and 3 repeat rows 0 and 1
    // under other device ids; row 4 repeats nothing.
    let networks = [1.0, 2.0, 1.0, 2.0];
    let devices = [0.0, -0.0, 0.0];
    let x = FactoredMatrix::new(
        5,
        vec![
            ColumnBlock::mapped(&networks[..], 1, vec![0, 1, 2, 3, 0]),
            ColumnBlock::mapped(&devices[..], 1, vec![0, 0, 2, 2, 1]),
        ],
    );
    let y = vec![1.0; 5];
    assert_agree(&x, &y);
    let mut out = Vec::new();
    gdcm_audit::check_dataset("dup", &x, &y, &DatasetLints::strict(), &mut out);
    let duplicate_rows: Vec<String> = out
        .iter()
        .map(|d| d.to_string())
        .filter(|d| d.contains("GDCM124"))
        .collect();
    assert_eq!(duplicate_rows.len(), 1, "{out:?}");
    assert!(
        duplicate_rows[0].contains("2 rows affected (2, 3)"),
        "{}",
        duplicate_rows[0]
    );
}

#[test]
fn the_quantile_fallback_keeps_its_one_bin_cut_in_the_rebuild() {
    // 84 rows of 0.0 and 8,988 of 1.0 at 64 bins: every quantile lands
    // on 1.0, the max, so the one cut is the fallback, 1.0, and the
    // feature is not constant. The fit's two constructors and the
    // auditor's rebuild all keep it, on mapped and identity layouts.
    let ids: Vec<u32> = (0..9072).map(|r| u32::from(r % 108 != 0)).collect();
    let mapped = FactoredMatrix::new(9072, vec![ColumnBlock::mapped(vec![0.0, 1.0], 1, ids)]);
    let dense = mapped.to_dense();
    let identity = FactoredMatrix::dense(&dense);
    let rebuilt = [
        TrainingGrid::rebuild(&mapped, 64),
        TrainingGrid::rebuild(&identity, 64),
    ];
    let fit = [
        BinnedMatrix::from_matrix(&dense, 64),
        BinnedMatrix::from_factored(&mapped, 64),
        BinnedMatrix::from_factored(&identity, 64),
    ];
    let grids = rebuilt
        .iter()
        .map(|g| g as &dyn CutGrid)
        .chain(fit.iter().map(|g| g as &dyn CutGrid));
    for (i, grid) in grids.enumerate() {
        assert_eq!(grid.cuts(0), &[1.0], "grid {i}");
        assert!(!grid.is_constant(0), "grid {i}");
    }
}

#[test]
fn zeros_of_both_signs_keep_the_expanded_row_order() {
    // Entry 0 is −0.0 and entry 1 is +0.0; the rows read +0.0, −0.0,
    // −0.0, then 1.0. The fit's stable sort of the expanded column keeps
    // the zeros in row order, so the 2-bin cut at position 2 is −0.0,
    // where table order would give +0.0. The last column reads +0.0,
    // 1.0, −0.0, 1.0: its quantile lands on the max, and the fallback at
    // position 1 is the second zero in row order, −0.0.
    let table = vec![-0.0, 5.0, 0.0, -0.0, 1.0, 5.0];
    let x = FactoredMatrix::new(
        4,
        vec![
            ColumnBlock::mapped(table, 2, vec![1, 0, 0, 2]),
            ColumnBlock::identity(vec![0.0, 1.0, -0.0, 1.0], 1),
        ],
    );
    assert_agree(&x, &[1.0, 2.0, 3.0, 4.0]);
    let grid = TrainingGrid::rebuild(&x, 2);
    for f in [0, 2] {
        assert_eq!(bits(grid.cuts(f)), bits(&[-0.0]), "feature {f}");
    }
}

#[test]
fn a_dense_matrix_audits_as_one_identity_block() {
    let rows: Vec<Vec<f32>> = (0..40)
        .map(|i| vec![(i % 7) as f32, -((i * 3 % 11) as f32), 0.0, (i % 2) as f32])
        .collect();
    let x = DenseMatrix::from_rows(&rows);
    let y: Vec<f32> = (0..40).map(|i| 1.0 + (i % 5) as f32).collect();
    assert_agree(&FactoredMatrix::dense(&x), &y);
}
