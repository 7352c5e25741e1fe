//! Parallel-vs-serial determinism: the same grid and model, bit for bit,
//! at any thread count.
//!
//! One `#[test]` only — `gdcm_par::set_threads` is process-global, so
//! concurrent tests inside this binary would race on the budget.

use gdcm_ml::{
    BinnedMatrix, ColumnBlock, DenseMatrix, FactoredMatrix, GbdtParams, GbdtRegressor,
    RandomForestRegressor, Regressor,
};

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

/// A paper-shaped wide matrix: mostly 2–3-bin columns, every ninth
/// column constant, the rest 16 or 100 distinct values, and a width
/// that is not a multiple of 8.
fn wide(n_rows: usize, n_cols: usize) -> (DenseMatrix, Vec<f32>) {
    let cell = |i: usize, j: usize| {
        let (i, j) = (i as u64, j as u64);
        ((i * 2_654_435_761 + j * 40_503 + (i * j) % 97) % 65_521) as usize
    };
    let rows: Vec<Vec<f32>> = (0..n_rows)
        .map(|i| {
            (0..n_cols)
                .map(|j| match j % 9 {
                    0 => 0.0,
                    1..=5 => (cell(i, j) % (2 + j % 2)) as f32,
                    6 => (cell(i, j) % 16) as f32,
                    _ => (cell(i, j) % 100) as f32,
                })
                .collect()
        })
        .collect();
    let y: Vec<f32> = rows
        .iter()
        .map(|r| r.iter().step_by(7).sum::<f32>() + r[1] * 4.0)
        .collect();
    (DenseMatrix::from_rows(&rows), y)
}

/// Table entries of [`two_blocks`]' wide block, and its columns.
const WIDE_ENTRIES: usize = 100;
const WIDE_COLS: usize = 400;

/// A repository-shaped matrix of two mapped blocks: a wide table of
/// [`WIDE_ENTRIES`] sub-rows (networks) and a narrow one of 12, two of
/// which no row references (devices). At the root, the wide block's
/// stream is every one of its entries, and 100 entries × 400 columns is
/// above the parallel search's 2^15 threshold. Wide column `j` repeats
/// column `j − 100`, so gains tie exactly across the parallel search's
/// feature groups and must go to the earliest column.
fn two_blocks(n_rows: usize) -> (FactoredMatrix<'static>, Vec<f32>) {
    let cell = |i: usize, j: usize| {
        let (i, j) = (i as u64, j as u64);
        ((i * 2_654_435_761 + j * 40_503 + (i * j) % 97) % 65_521) as usize
    };
    let wide: Vec<f32> = (0..WIDE_ENTRIES)
        .flat_map(|e| (0..WIDE_COLS).map(move |j| (cell(e, j % 100) % (2 + j % 5)) as f32))
        .collect();
    let narrow: Vec<f32> = (0..12)
        .flat_map(|d| (0..3).map(move |j| (cell(d, j + 7) % 50) as f32 + 0.5))
        .collect();
    let network = |r: usize| r * 7 % WIDE_ENTRIES;
    let device = |r: usize| r * 10 / n_rows;
    let y: Vec<f32> = (0..n_rows)
        .map(|r| {
            let e = network(r);
            let d = device(r);
            let work: f32 = (0..WIDE_COLS)
                .step_by(13)
                .map(|j| wide[e * WIDE_COLS + j])
                .sum();
            work * narrow[d * 3] / 7.0 + narrow[d * 3 + 1]
        })
        .collect();
    let ids = |f: &dyn Fn(usize) -> usize| (0..n_rows).map(|r| f(r) as u32).collect::<Vec<_>>();
    let x = FactoredMatrix::new(
        n_rows,
        vec![
            ColumnBlock::mapped(wide, WIDE_COLS, ids(&network)),
            ColumnBlock::mapped(narrow, 3, ids(&device)),
        ],
    );
    (x, y)
}

/// Every bit of a grid: per-feature codes, cut bits and constant flags.
type GridBits = (Vec<Vec<u8>>, Vec<Vec<u32>>, Vec<bool>);

fn grid_bits(binned: &BinnedMatrix) -> GridBits {
    let features = 0..binned.n_features();
    (
        features
            .clone()
            .map(|f| binned.feature_codes(f).to_vec())
            .collect(),
        features
            .clone()
            .map(|f| binned.cuts(f).iter().map(|c| c.to_bits()).collect())
            .collect(),
        features.map(|f| binned.is_constant(f)).collect(),
    )
}

#[test]
fn models_are_bit_identical_across_thread_counts() {
    // Big enough that both the split-search and predict parallel paths
    // actually engage at >1 thread (rows * features >= 2^15).
    let (x, y) = synthetic(1200, 32);
    let params = GbdtParams {
        n_estimators: 12,
        ..GbdtParams::default()
    };

    let original = gdcm_par::threads();

    // Binning: fewer features than threads, a single row, and a wide
    // matrix whose fit runs the parallel split search on its large nodes
    // (the root's 600 rows × 180 active features is above the 2^15
    // threshold) and the serial one on the nodes below it.
    let narrow = synthetic(50, 3).0;
    let single_row = synthetic(1, 10).0;
    let (wide_x, wide_y) = wide(600, 203);
    let grids = || {
        [&narrow, &single_row, &wide_x, &x].map(|m| grid_bits(&BinnedMatrix::from_matrix(m, 64)))
    };
    let wide_params = GbdtParams {
        n_estimators: 5,
        ..GbdtParams::default()
    };
    gdcm_par::set_threads(1);
    let grids_serial = grids();
    let wide_serial = GbdtRegressor::fit(&wide_x, &wide_y, &wide_params);
    for threads in [2usize, 4] {
        gdcm_par::set_threads(threads);
        assert!(
            grids_serial == grids(),
            "a grid differs at {threads} threads"
        );
        assert_eq!(
            wide_serial,
            GbdtRegressor::fit(&wide_x, &wide_y, &wide_params),
            "wide GBDT model differs at {threads} threads"
        );
    }

    // Column blocks: the root's search runs in parallel over the wide
    // block's entry stream and the narrow block's, shared by every job.
    let (blocks, blocks_y) = two_blocks(2_000);
    let active = {
        let grid = BinnedMatrix::from_factored(&blocks, 64);
        (0..grid.n_features())
            .filter(|&f| !grid.is_constant(f))
            .count()
    };
    assert!(
        WIDE_ENTRIES * (active - 3) >= 1 << 15,
        "only {active} active features: the root would search serially"
    );
    let blocks_params = GbdtParams {
        n_estimators: 6,
        subsample: 0.8,
        seed: 3,
        ..GbdtParams::default()
    };
    gdcm_par::set_threads(1);
    let blocks_serial = GbdtRegressor::fit_factored(&blocks, &blocks_y, &blocks_params).0;
    for threads in [2usize, 4] {
        gdcm_par::set_threads(threads);
        assert_eq!(
            blocks_serial,
            GbdtRegressor::fit_factored(&blocks, &blocks_y, &blocks_params).0,
            "column-block GBDT model differs at {threads} threads"
        );
    }

    gdcm_par::set_threads(1);
    let gbdt_serial = GbdtRegressor::fit(&x, &y, &params);
    let preds_serial = gbdt_serial.predict(&x);
    let forest_serial = RandomForestRegressor::fit(&x, &y, 8, 6, 42);
    let forest_preds_serial = forest_serial.predict(&x);

    for threads in [2usize, 4] {
        gdcm_par::set_threads(threads);
        let gbdt_par = GbdtRegressor::fit(&x, &y, &params);
        assert_eq!(
            gbdt_serial, gbdt_par,
            "GBDT model differs at {threads} threads"
        );
        let preds_par = gbdt_par.predict(&x);
        let serial_bits: Vec<u32> = preds_serial.iter().map(|v| v.to_bits()).collect();
        let par_bits: Vec<u32> = preds_par.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            serial_bits, par_bits,
            "GBDT predictions differ at {threads} threads"
        );

        let forest_par = RandomForestRegressor::fit(&x, &y, 8, 6, 42);
        assert_eq!(
            forest_serial, forest_par,
            "forest model differs at {threads} threads"
        );
        let fserial_bits: Vec<u32> = forest_preds_serial.iter().map(|v| v.to_bits()).collect();
        let fpar_bits: Vec<u32> = forest_par.predict(&x).iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            fserial_bits, fpar_bits,
            "forest predictions differ at {threads} threads"
        );
    }

    // Training telemetry reflects the active budget.
    gdcm_par::set_threads(4);
    let logged = GbdtRegressor::fit(&x, &y, &params);
    let log = logged.training_log().expect("fit always records a log");
    assert_eq!(log.threads_used, 4);

    gdcm_par::set_threads(original);
}
