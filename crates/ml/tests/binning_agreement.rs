//! The two binning routines agree bit for bit: `from_factored` on column
//! blocks builds the grid `from_matrix` builds on the dense matrix they
//! expand to — cut bits, constant flags, bin counts and every row's code
//! — at 1 and 4 `gdcm-par` threads and at 2, 16, 64 and 256 bins.
//!
//! `gdcm_par::set_threads` is process-global, so every test here holds
//! `THREADS` while it runs.

use std::sync::Mutex;

use gdcm_ml::{BinnedMatrix, ColumnBlock, DenseMatrix, FactoredMatrix};
use proptest::prelude::*;

static THREADS: Mutex<()> = Mutex::new(());

/// Asserts that both routines build the same grid for `x`, at every
/// thread count and bin budget the suite covers.
fn assert_agree(x: &FactoredMatrix<'_>) {
    let _budget = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let dense = x.to_dense();
    let original = gdcm_par::threads();
    for threads in [1, 4] {
        gdcm_par::set_threads(threads);
        for max_bins in [2, 16, 64, 256] {
            let factored = BinnedMatrix::from_factored(x, max_bins);
            let expanded = BinnedMatrix::from_matrix(&dense, max_bins);
            assert_eq!(factored.n_rows(), expanded.n_rows());
            assert_eq!(factored.n_features(), expanded.n_features());
            for f in 0..dense.n_cols() {
                let bits = |b: &BinnedMatrix| b.cuts(f).iter().map(|c| c.to_bits()).collect();
                let (got, want): (Vec<u32>, Vec<u32>) = (bits(&factored), bits(&expanded));
                let at = format!("feature {f}, {max_bins} bins, {threads} threads");
                assert_eq!(got, want, "cut bits of {at}");
                assert_eq!(factored.is_constant(f), expanded.is_constant(f), "{at}");
                assert_eq!(factored.n_bins(f), expanded.n_bins(f), "{at}");
                assert_eq!(factored.feature_codes(f), expanded.feature_codes(f), "{at}");
            }
        }
    }
    gdcm_par::set_threads(original);
}

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
/// table has entries no row references, and each column draws from a
/// few values of [`POOL`], one value only in some columns.
fn draw_matrix(seed: u64, n_rows: usize) -> FactoredMatrix<'static> {
    let mut draw = Draw(seed);
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
            let mut table = Vec::with_capacity(entries * width);
            for _ in 0..entries {
                for pool in &pools {
                    table.push(pool[draw.below(pool.len())]);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn factored_binning_is_dense_binning(seed in 0u64..u64::MAX, n_rows in 1usize..60) {
        assert_agree(&draw_matrix(seed, n_rows));
    }
}

#[test]
fn a_one_valued_column_is_constant_either_way() {
    let x = FactoredMatrix::new(
        5,
        vec![ColumnBlock::mapped(
            vec![2.0, 2.0, 9.0],
            1,
            vec![0, 1, 0, 1, 1],
        )],
    );
    assert_agree(&x);
    assert!(BinnedMatrix::from_factored(&x, 64).is_constant(0));
}

#[test]
fn the_quantile_fallback_keeps_its_one_bin_cut() {
    // 84 rows of 0.0 and 8,988 of 1.0 at 64 bins: every quantile lands
    // on 1.0, the max, so the fallback cut is 1.0 and the feature gets
    // one bin without being flagged constant. Both routines keep it.
    let ids: Vec<u32> = (0..9072).map(|r| u32::from(r % 108 != 0)).collect();
    let x = FactoredMatrix::new(9072, vec![ColumnBlock::mapped(vec![0.0, 1.0], 1, ids)]);
    assert_agree(&x);
    let binned = BinnedMatrix::from_factored(&x, 64);
    assert_eq!(binned.cuts(0), &[1.0]);
    assert!(!binned.is_constant(0));
}

#[test]
fn zeros_of_both_signs_keep_the_expanded_row_order() {
    // Entry 0 is −0.0 and entry 1 is +0.0; the rows read +0.0, −0.0,
    // −0.0, then 1.0. The expanded stable sort keeps the zeros in row
    // order, so the 2-bin cut at position 2 is −0.0, where table order
    // would give +0.0. The last column reads +0.0, 1.0, −0.0, 1.0: its
    // quantile lands on the max, and the fallback at position 1 is the
    // second zero in row order, −0.0.
    let table = vec![-0.0, 5.0, 0.0, -0.0, 1.0, 5.0];
    let x = FactoredMatrix::new(
        4,
        vec![
            ColumnBlock::mapped(table, 2, vec![1, 0, 0, 2]),
            ColumnBlock::identity(vec![0.0, 1.0, -0.0, 1.0], 1),
        ],
    );
    assert_agree(&x);
    let binned = BinnedMatrix::from_factored(&x, 2);
    let negative_zero = [(-0.0f32).to_bits()];
    for f in [0, 2] {
        let bits: Vec<u32> = binned.cuts(f).iter().map(|c| c.to_bits()).collect();
        assert_eq!(bits, negative_zero, "feature {f}");
    }
}

#[test]
fn a_dense_matrix_is_its_own_identity_block() {
    let rows: Vec<Vec<f32>> = (0..50)
        .map(|i| vec![(i % 7) as f32, -((i * 3 % 11) as f32), 0.0])
        .collect();
    let x = DenseMatrix::from_rows(&rows);
    assert_agree(&FactoredMatrix::dense(&x));
}
