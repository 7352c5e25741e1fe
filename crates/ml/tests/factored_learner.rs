//! A fit on column blocks is the fit on the dense matrix they expand to.
//!
//! The tree learner sums each node's integer gradients per table entry
//! of a mapped block, and row by row on an identity block, so the two
//! fits group the same integer adds differently. Integer sums do not
//! depend on grouping, and so `fit_factored` must give the model, the
//! per-round training RMSE bits and the grid that `fit_with_grid` gives
//! on `to_dense()`. The matrices have one to three blocks,
//! identity or mapped, with repeated ids and table entries no row
//! references; the targets run from 1e-3 to 1e6 in magnitude, some
//! negative, so that the gradients do not all land on the grid; and some
//! cases subsample rows and columns.

use std::sync::Arc;

use gdcm_ml::{BinnedMatrix, ColumnBlock, FactoredMatrix, GbdtParams, GbdtRegressor};
use proptest::prelude::*;

/// SplitMix64, for drawing a case from one generated seed.
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

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One to three blocks over `n_rows` rows, identity or mapped. A mapped
/// table's rows reference a prefix of its entries, repeatedly, so the
/// rest are never referenced.
fn draw_matrix(draw: &mut Draw, n_rows: usize) -> FactoredMatrix<'static> {
    let n_blocks = 1 + draw.below(3);
    let blocks = (0..n_blocks)
        .map(|_| {
            let width = 1 + draw.below(6);
            let mapped = draw.below(3) != 0;
            let entries = if mapped { 1 + draw.below(12) } else { n_rows };
            let levels: Vec<usize> = (0..width).map(|_| 1 + draw.below(9)).collect();
            let mut table = Vec::with_capacity(entries * width);
            for _ in 0..entries {
                for &k in &levels {
                    table.push(draw.below(k) as f32 * 0.75 - 2.0);
                }
            }
            if mapped {
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

/// Targets of magnitude 1e-3 to 1e6, about one in four negative.
fn draw_targets(draw: &mut Draw, n_rows: usize) -> Vec<f32> {
    (0..n_rows)
        .map(|_| {
            let magnitude = 10f64.powf(draw.unit() * 9.0 - 3.0);
            let sign = if draw.below(4) == 0 { -1.0 } else { 1.0 };
            (sign * magnitude) as f32
        })
        .collect()
}

fn draw_params(draw: &mut Draw) -> GbdtParams {
    let fraction = |draw: &mut Draw| {
        if draw.below(2) == 0 {
            1.0
        } else {
            0.4 + 0.5 * draw.unit() as f32
        }
    };
    GbdtParams {
        n_estimators: 1 + draw.below(8),
        max_depth: 1 + draw.below(4),
        subsample: fraction(draw),
        colsample_bytree: fraction(draw),
        max_bins: [2, 16, 64, 256][draw.below(4)],
        seed: draw.next(),
        ..GbdtParams::default()
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn rmse_bits(model: &GbdtRegressor) -> Vec<u32> {
    bits(
        &model
            .training_log()
            .expect("a fit keeps its log")
            .round_train_rmse,
    )
}

fn assert_same_fit(
    (model, grid): &(GbdtRegressor, Arc<BinnedMatrix>),
    (want, want_grid): &(GbdtRegressor, Arc<BinnedMatrix>),
) {
    assert_eq!(model, want, "model");
    assert_eq!(rmse_bits(model), rmse_bits(want), "training RMSE");
    assert_eq!(grid.n_features(), want_grid.n_features());
    for f in 0..grid.n_features() {
        assert_eq!(bits(grid.cuts(f)), bits(want_grid.cuts(f)), "cuts of {f}");
        assert_eq!(grid.is_constant(f), want_grid.is_constant(f), "feature {f}");
        assert_eq!(
            grid.feature_codes(f),
            want_grid.feature_codes(f),
            "codes of {f}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn factored_fits_are_dense_fits(seed in 0u64..u64::MAX, n_rows in 1usize..90) {
        let mut draw = Draw(seed);
        let x = draw_matrix(&mut draw, n_rows);
        let y = draw_targets(&mut draw, n_rows);
        let params = draw_params(&mut draw);
        let dense = x.to_dense();

        let cold = GbdtRegressor::fit_factored(&x, &y, &params);
        assert_same_fit(&cold, &GbdtRegressor::fit_with_grid(&dense, &y, &params));
    }
}
