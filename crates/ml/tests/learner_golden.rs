//! Golden digests of the tree learner's output.
//!
//! Each fit below is reduced to one FNV-1a digest over the bits of its
//! base score and of every node's feature, threshold, children and leaf
//! weight. The constants were recorded from the learner before its split
//! search was restructured; any change to the fitted trees, however
//! small, changes a digest. The matrix comes from integer arithmetic
//! only, so the digests are the same on every IEEE-754 platform and at
//! any `GDCM_THREADS` (CI runs this file at 1 and 4).
//!
//! The matrix covers what the split search treats specially: constant
//! columns, 2- and 3-bin columns, one 256-bin column, ±inf and NaN
//! cells, 19 active features (not a multiple of 8), and three copies of
//! one informative column in different 8-feature blocks, so gains tie
//! exactly and must resolve to the earliest listed feature.

use gdcm_ml::{
    DenseMatrix, GbdtParams, GbdtRegressor, RandomForestRegressor, Tree, TreeNode, MAX_BINS,
};

const ROWS: usize = 2400;
const COLS: usize = 21;
/// The informative column and its exact copies.
const ORIGINAL: usize = 5;
const COPIES: [usize; 2] = [12, 19];

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn cell(i: usize, j: usize) -> u64 {
    mix((i as u64) << 8 | j as u64)
}

/// The seeded training matrix and its targets. Every value is a small
/// integer or a dyadic fraction, so nothing depends on rounding.
fn matrix() -> (DenseMatrix, Vec<f32>) {
    let mut rows = Vec::with_capacity(ROWS);
    let mut y = Vec::with_capacity(ROWS);
    for i in 0..ROWS {
        let h = |j: usize| cell(i, j);
        let signal = (h(ORIGINAL) % 16) as f32;
        let non_finite = if i % 29 == 0 {
            f32::NAN
        } else if i % 31 == 0 {
            f32::INFINITY
        } else if i % 37 == 0 {
            f32::NEG_INFINITY
        } else {
            (h(4) % 7) as f32 * 0.5
        };
        let row = vec![
            3.0,                          // 0: constant
            (h(1) % 2) as f32,            // 1: two bins
            (h(2) % 4096) as f32,         // 2: fills 256 bins
            (h(3) % 3) as f32 - 1.0,      // 3: three bins
            non_finite,                   // 4: NaN, +inf, -inf cells
            signal,                       // 5: informative
            (h(6) % 5) as f32 * 0.25,     // 6
            (h(7) % 4 == 0) as u8 as f32, // 7: two bins, 1 in 4 rows set
            (h(8) % 64) as f32 - 32.0,    // 8
            (h(9) % 9) as f32,            // 9
            0.0,                          // 10: constant
            (h(11) % 2) as f32 * 7.0,     // 11: two bins
            signal,                       // 12: copy of 5, second block
            (h(13) % 100) as f32 * 0.25,  // 13
            (h(14) % 3) as f32,           // 14: three bins
            (h(15) % 11) as f32,          // 15
            (h(16) % 2) as f32 + 0.5,     // 16: two bins
            (h(17) % 50) as f32,          // 17
            (h(18) % 6) as f32,           // 18
            signal,                       // 19: copy of 5, tail block
            (h(20) % 13) as f32,          // 20
        ];
        debug_assert_eq!(row.len(), COLS);
        let target = 8 * (h(ORIGINAL) % 16) as i64
            + 6 * (h(1) % 2) as i64
            + (h(2) % 4096) as i64 / 512
            + 3 * (h(3) % 3) as i64
            + (h(8) % 64) as i64 / 8
            + (h(13) % 100) as i64 / 25
            + (mix(i as u64 ^ 0xABCD) % 5) as i64;
        rows.push(row);
        y.push(target as f32 * 0.25);
    }
    (DenseMatrix::from_rows(&rows), y)
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn trees(&mut self, trees: &[Tree]) {
        self.word(trees.len() as u64);
        for tree in trees {
            self.word(tree.len() as u64);
            for node in tree.nodes() {
                match *node {
                    TreeNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        self.word(1);
                        self.word(feature as u64);
                        self.word(u64::from(threshold.to_bits()));
                        self.word(left as u64);
                        self.word(right as u64);
                    }
                    TreeNode::Leaf { weight } => {
                        self.word(2);
                        self.word(u64::from(weight.to_bits()));
                    }
                }
            }
        }
    }
}

fn gbdt_digest(model: &GbdtRegressor) -> u64 {
    let mut fnv = Fnv::new();
    fnv.word(u64::from(model.base_score().to_bits()));
    fnv.trees(model.trees());
    fnv.0
}

fn forest_digest(forest: &RandomForestRegressor) -> u64 {
    let mut fnv = Fnv::new();
    fnv.trees(forest.trees());
    fnv.0
}

fn params() -> GbdtParams {
    GbdtParams {
        max_bins: MAX_BINS,
        ..GbdtParams::default()
    }
}

/// Every tie between the exact copies went to the earliest listed
/// feature: with the ascending feature list a full-width GBDT fit uses,
/// the copies are never chosen, yet the original is.
fn assert_ties_go_to_the_earliest_feature(model: &GbdtRegressor) {
    let importance = model.feature_importance();
    assert!(
        importance[ORIGINAL] > 0,
        "the informative column must split"
    );
    for copy in COPIES {
        assert_eq!(
            importance[copy], 0,
            "column {copy} ties column {ORIGINAL} exactly and is listed later"
        );
    }
}

#[test]
fn matrix_has_the_shapes_the_digests_cover() {
    let (x, _) = matrix();
    let binned = gdcm_ml::BinnedMatrix::from_matrix(&x, MAX_BINS);
    let active = (0..COLS).filter(|&f| !binned.is_constant(f)).count();
    assert_eq!(active, 19);
    assert_ne!(active % 8, 0);
    assert_eq!(binned.n_bins(2), MAX_BINS);
    for f in [1, 7, 11, 16] {
        assert_eq!(binned.n_bins(f), 2, "column {f}");
    }
    for copy in COPIES {
        assert_eq!(binned.feature_codes(copy), binned.feature_codes(ORIGINAL));
    }
}

#[test]
fn gbdt_default_params_digest() {
    let (x, y) = matrix();
    let model = GbdtRegressor::fit(&x, &y, &params());
    assert_ties_go_to_the_earliest_feature(&model);
    assert_eq!(gbdt_digest(&model), 0x7BA91D67E38B2787);
}

#[test]
fn gbdt_subsampled_digest() {
    let (x, y) = matrix();
    let p = GbdtParams {
        subsample: 0.7,
        colsample_bytree: 0.7,
        seed: 9,
        ..params()
    };
    let model = GbdtRegressor::fit(&x, &y, &p);
    assert_eq!(gbdt_digest(&model), 0xACBB609347337629);
}

#[test]
fn gbdt_warm_fit_digest() {
    let (x, y) = matrix();
    let p = GbdtParams {
        n_estimators: 30,
        ..params()
    };
    let head: Vec<usize> = (0..ROWS * 3 / 4).collect();
    let y_head: Vec<f32> = head.iter().map(|&i| y[i]).collect();
    let prev = GbdtRegressor::fit(&x.select_rows(&head), &y_head, &p);
    let warm = GbdtRegressor::warm_fit(&x, &y, &p, &prev, 20);
    assert_eq!(&warm.trees()[..20], &prev.trees()[..20]);
    assert_ties_go_to_the_earliest_feature(&warm);
    assert_eq!(gbdt_digest(&prev), 0x69E2B104D2612B45);
    assert_eq!(gbdt_digest(&warm), 0xE4F170ED4767F653);
}

/// Targets that are not dyadic and span ten decades. Rows 0 and 1 get
/// the same features and targets of +1e9 and −1e9: no split parts them,
/// so their gradients stay near ±1e9 in every round and set the grid,
/// while the other rows' targets run from 1/3 to 14. Their gradients
/// fall between grid points, and quantization rounds them by amounts
/// their leaves' f32 weights show. So this digest pins the grid's scale
/// rule and its rounding, which the integer targets above never
/// exercise.
#[test]
fn gbdt_rounded_gradients_digest() {
    let (x, y) = matrix();
    let mut rows: Vec<Vec<f32>> = x.rows().map(<[f32]>::to_vec).collect();
    rows[1] = rows[0].clone();
    let mut y: Vec<f32> = y.iter().map(|&v| (v + 1.0) / 3.0).collect();
    y[0] = 1e9;
    y[1] = -1e9;
    let model = GbdtRegressor::fit(&DenseMatrix::from_rows(&rows), &y, &params());
    assert_eq!(gbdt_digest(&model), 0x3F1845F3B53618BF);
}

#[test]
fn random_forest_digest() {
    let (x, y) = matrix();
    let forest = RandomForestRegressor::fit(&x, &y, 8, 6, 17);
    assert_eq!(forest_digest(&forest), 0x3EA0694F64318E2E);
}
