//! Audit pass 2 — dataset lints (`GDCM120`–`GDCM129`).
//!
//! Scans a feature matrix and its label vector for the silent data
//! defects that make a cost model look better (or worse) than it is:
//! non-finite cells, constant and duplicate feature columns, duplicate
//! rows, label outliers, and a scaler whose frozen-column mask
//! disagrees with the data it claims to have been fitted on.
//!
//! Each defect class yields at most one summary [`Diagnostic`] per
//! dataset, anchored at the first offending index and listing the total
//! count plus a few examples — a corrupted 10k-row matrix produces a
//! readable card, not 10k lines.
//!
//! The feature lints read the matrix's column blocks
//! ([`FactoredMatrix`]; a [`DenseMatrix`] is one identity block) and
//! never expand them, yet report what row-wise lints on the expanded
//! rows would, in the same text and order:
//!
//! - non-finite cells are found once per table entry, then reported as
//!   the ascending rows that reference such an entry;
//! - two rows are duplicates when, block by block, their entries hold
//!   bitwise-equal sub-rows (so two devices with bitwise-equal
//!   signatures count as one);
//! - a column is constant when every entry its rows reference holds the
//!   same bits there, and duplicate columns are compared one pair at a
//!   time through the rows' ids.

use gdcm_analyze::{DiagCode, Diagnostic};
use gdcm_ml::{ColumnBlock, DenseMatrix, FactoredMatrix, StandardScaler};
use std::collections::{HashMap, HashSet};

use crate::grid::{entry_of, reference_counts};

/// How many offending indices a summary diagnostic spells out before
/// collapsing to "and N more".
const EXAMPLE_CAP: usize = 4;

/// Robust-z threshold above which a label counts as an outlier.
const LABEL_Z_CUTOFF: f64 = 8.0;

/// Tunable lint profile. The paper pipeline pads layer-wise network
/// encodings to a fixed width, so zero columns (constant *and*
/// pairwise-duplicate) are present by construction — [`DatasetLints::pipeline`]
/// tolerates them where [`DatasetLints::strict`] does not.
#[derive(Debug, Clone, Copy)]
pub struct DatasetLints {
    /// Flag columns with a single repeated value (`GDCM122`).
    pub flag_constant_columns: bool,
    /// Flag bitwise-identical column pairs (`GDCM123`).
    pub flag_duplicate_columns: bool,
    /// Flag bitwise-identical row pairs (`GDCM124`).
    pub flag_duplicate_rows: bool,
    /// Flag labels with robust z-score above the cutoff (`GDCM125`).
    pub flag_label_outliers: bool,
}

impl DatasetLints {
    /// Everything on: the right profile for hand-built matrices.
    pub fn strict() -> Self {
        Self {
            flag_constant_columns: true,
            flag_duplicate_columns: true,
            flag_duplicate_rows: true,
            flag_label_outliers: true,
        }
    }

    /// Profile for padded pipeline encodings: constant and duplicate
    /// columns are expected (zero padding), so only the defects that
    /// are never by-design stay on.
    pub fn pipeline() -> Self {
        Self {
            flag_constant_columns: false,
            flag_duplicate_columns: false,
            ..Self::strict()
        }
    }
}

/// Runs every dataset lint against `(x, y)`, appending findings to
/// `out`. `x` is a [`DenseMatrix`] or the column blocks of a
/// [`FactoredMatrix`]. `y` may be empty when only the features are of
/// interest; otherwise its length must match `x`'s rows (the caller's
/// contract, same as `GbdtRegressor::fit`).
pub fn check_dataset<'a>(
    label: &str,
    x: impl Into<FactoredMatrix<'a>>,
    y: &[f32],
    lints: &DatasetLints,
    out: &mut Vec<Diagnostic>,
) {
    let x = x.into();
    check_finite_features(label, &x, out);
    check_finite_labels(label, y, out);
    if lints.flag_constant_columns {
        check_constant_columns(label, &x, out);
    }
    if lints.flag_duplicate_columns {
        check_duplicate_columns(label, &x, out);
    }
    if lints.flag_duplicate_rows {
        check_duplicate_rows(label, &x, out);
    }
    if lints.flag_label_outliers {
        check_label_outliers(label, y, out);
    }
}

/// Pushes one summary diagnostic for `indices` (row, column, or label
/// positions depending on the check), or nothing when the list is empty.
fn summarize(
    code: DiagCode,
    label: &str,
    noun: &str,
    indices: &[usize],
    detail: String,
    out: &mut Vec<Diagnostic>,
) {
    let Some(&first) = indices.first() else {
        return;
    };
    let shown: Vec<String> = indices
        .iter()
        .take(EXAMPLE_CAP)
        .map(usize::to_string)
        .collect();
    let suffix = if indices.len() > EXAMPLE_CAP {
        format!(" and {} more", indices.len() - EXAMPLE_CAP)
    } else {
        String::new()
    };
    out.push(Diagnostic::at_index(
        code,
        label,
        first,
        format!(
            "{count} {noun}{plural} affected ({list}{suffix}){detail}",
            count = indices.len(),
            plural = if indices.len() == 1 { "" } else { "s" },
            list = shown.join(", "),
        ),
    ));
}

/// The sub-rows of `block`'s table, one per entry.
fn entries<'b>(block: &'b ColumnBlock<'_>) -> std::slice::ChunksExact<'b, f32> {
    block.table().chunks_exact(block.width())
}

/// The value of column `c` of `block` in row `r`.
fn cell(block: &ColumnBlock<'_>, r: usize, c: usize) -> f32 {
    block.table()[entry_of(block, r) * block.width() + c]
}

fn check_finite_features(label: &str, x: &FactoredMatrix<'_>, out: &mut Vec<Diagnostic>) {
    let bad_entries: Vec<Vec<bool>> = x
        .blocks()
        .iter()
        .map(|block| {
            entries(block)
                .map(|entry| entry.iter().any(|v| !v.is_finite()))
                .collect()
        })
        .collect();
    let rows: Vec<usize> = (0..x.n_rows())
        .filter(|&r| {
            x.blocks()
                .iter()
                .zip(&bad_entries)
                .any(|(block, bad)| bad[entry_of(block, r)])
        })
        .collect();
    summarize(
        DiagCode::NonFiniteFeature,
        label,
        "row",
        &rows,
        ": feature cells must be finite".into(),
        out,
    );
}

fn check_finite_labels(label: &str, y: &[f32], out: &mut Vec<Diagnostic>) {
    let bad: Vec<usize> = y
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_finite())
        .map(|(i, _)| i)
        .collect();
    summarize(
        DiagCode::NonFiniteLabel,
        label,
        "label",
        &bad,
        ": latency targets must be finite".into(),
        out,
    );
}

fn check_constant_columns(label: &str, x: &FactoredMatrix<'_>, out: &mut Vec<Diagnostic>) {
    if x.n_rows() < 2 {
        return;
    }
    // Row 0's entry sets each column's value; every entry a row
    // references must hold the same bits.
    let constant: Vec<usize> = x
        .blocks()
        .iter()
        .flat_map(|block| {
            let counts = reference_counts(block, x.n_rows());
            (0..block.width()).map(move |c| {
                let v = cell(block, 0, c).to_bits();
                entries(block)
                    .zip(&counts)
                    .all(|(entry, &n)| n == 0 || entry[c].to_bits() == v)
            })
        })
        .enumerate()
        .filter(|&(_, constant)| constant)
        .map(|(j, _)| j)
        .collect();
    summarize(
        DiagCode::ConstantFeatureColumn,
        label,
        "column",
        &constant,
        ": a constant column carries no signal".into(),
        out,
    );
}

fn check_duplicate_columns(label: &str, x: &FactoredMatrix<'_>, out: &mut Vec<Diagnostic>) {
    if x.n_rows() == 0 {
        return;
    }
    let rows = 0..x.n_rows();
    let hash = |(block, c): (&ColumnBlock<'_>, usize)| {
        fnv1a(rows.clone().map(|r| cell(block, r, c).to_bits()))
    };
    let equal = |(a, i): (&ColumnBlock<'_>, usize), (b, j): (&ColumnBlock<'_>, usize)| {
        rows.clone()
            .all(|r| cell(a, r, i).to_bits() == cell(b, r, j).to_bits())
    };
    // Bucket by a cheap bit-pattern hash, then verify equality inside
    // each bucket, row by row, so hash collisions cannot produce false
    // positives.
    let mut buckets: HashMap<u64, Vec<(&ColumnBlock<'_>, usize)>> = HashMap::new();
    let mut duplicates: Vec<usize> = Vec::new();
    let columns = x
        .blocks()
        .iter()
        .flat_map(|block| (0..block.width()).map(move |c| (block, c)));
    for (j, column) in columns.enumerate() {
        let bucket = buckets.entry(hash(column)).or_default();
        if bucket.iter().any(|&seen| equal(seen, column)) {
            duplicates.push(j);
        } else {
            bucket.push(column);
        }
    }
    summarize(
        DiagCode::DuplicateFeatureColumn,
        label,
        "column",
        &duplicates,
        ": bitwise-identical to an earlier column".into(),
        out,
    );
}

/// For each table entry of `block`, the first entry whose sub-row is
/// bitwise equal to it.
fn entry_classes(block: &ColumnBlock<'_>) -> Vec<u32> {
    let subrows: Vec<&[f32]> = entries(block).collect();
    let bitwise_eq =
        |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits());
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut classes = Vec::with_capacity(subrows.len());
    for (e, subrow) in subrows.iter().enumerate() {
        let bucket = buckets
            .entry(fnv1a(subrow.iter().map(|v| v.to_bits())))
            .or_default();
        let class = match bucket
            .iter()
            .find(|&&k| bitwise_eq(subrows[k as usize], subrow))
        {
            Some(&k) => k,
            None => {
                let e = u32::try_from(e).expect("fewer than 2^32 table entries");
                bucket.push(e);
                e
            }
        };
        classes.push(class);
    }
    classes
}

fn check_duplicate_rows(label: &str, x: &FactoredMatrix<'_>, out: &mut Vec<Diagnostic>) {
    if x.blocks().is_empty() {
        // No columns: there are no rows to compare.
        return;
    }
    // A row is its entries' classes, block by block.
    let classes: Vec<Vec<u32>> = x.blocks().iter().map(entry_classes).collect();
    let keys: Vec<u32> = (0..x.n_rows())
        .flat_map(|r| {
            x.blocks()
                .iter()
                .zip(&classes)
                .map(move |(block, classes)| classes[entry_of(block, r)])
        })
        .collect();
    let mut seen: HashSet<&[u32]> = HashSet::new();
    let duplicates: Vec<usize> = keys
        .chunks_exact(x.blocks().len())
        .enumerate()
        .filter(|&(_, key)| !seen.insert(key))
        .map(|(r, _)| r)
        .collect();
    summarize(
        DiagCode::DuplicateNetworkRow,
        label,
        "row",
        &duplicates,
        ": bitwise-identical to an earlier row (leaks across folds)".into(),
        out,
    );
}

/// Robust z-score outlier check on the label vector. Latencies are
/// log-scaled first (when non-negative) so the heavy right tail of real
/// latency distributions does not flag every large-but-plausible value;
/// a zero MAD (more than half the labels identical) disables the check
/// rather than dividing by zero.
fn check_label_outliers(label: &str, y: &[f32], out: &mut Vec<Diagnostic>) {
    let finite: Vec<f64> = y
        .iter()
        .filter(|v| v.is_finite())
        .map(|&v| v as f64)
        .collect();
    if finite.len() < 8 {
        return;
    }
    let log_scale = finite.iter().all(|&v| v >= 0.0);
    let values: Vec<f64> = finite
        .iter()
        .map(|&v| if log_scale { v.ln_1p() } else { v })
        .collect();
    let med = median(&values);
    let mad = median(&values.iter().map(|v| (v - med).abs()).collect::<Vec<f64>>());
    if mad == 0.0 {
        return;
    }
    let outliers: Vec<usize> = y
        .iter()
        .enumerate()
        .filter(|(_, v)| v.is_finite())
        .filter(|(_, &v)| {
            let scaled = if log_scale {
                (v as f64).ln_1p()
            } else {
                v as f64
            };
            (0.6745 * (scaled - med) / mad).abs() > LABEL_Z_CUTOFF
        })
        .map(|(i, _)| i)
        .collect();
    summarize(
        DiagCode::LabelOutlier,
        label,
        "label",
        &outliers,
        format!(": robust |z| > {LABEL_Z_CUTOFF} on the log-latency scale"),
        out,
    );
}

fn median(sorted_or_not: &[f64]) -> f64 {
    let mut v = sorted_or_not.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite by construction"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Cross-checks a fitted [`StandardScaler`] against the matrix it
/// claims to describe (`GDCM126`): width must match, every exactly
/// constant column must be frozen, and every frozen column must have
/// (near-)zero sample spread. A legacy scaler deserialized without a
/// frozen mask reports `is_frozen == false` everywhere, which this
/// check surfaces on constant columns by design.
pub fn check_scaler(
    label: &str,
    scaler: &StandardScaler,
    x: &DenseMatrix,
    out: &mut Vec<Diagnostic>,
) {
    if scaler.n_features() != x.n_cols() {
        out.push(Diagnostic::network_level(
            DiagCode::ScalerFrozenMismatch,
            label,
            format!(
                "scaler fitted on {} features, matrix has {} columns",
                scaler.n_features(),
                x.n_cols()
            ),
        ));
        return;
    }
    if x.n_rows() < 2 {
        return;
    }
    let n = x.n_rows() as f64;
    let mut unfrozen_constant: Vec<usize> = Vec::new();
    let mut frozen_varying: Vec<usize> = Vec::new();
    for j in 0..x.n_cols() {
        let col = x.column(j);
        let constant = col.iter().all(|v| v.to_bits() == col[0].to_bits());
        if constant && !scaler.is_frozen(j) {
            unfrozen_constant.push(j);
            continue;
        }
        if scaler.is_frozen(j) {
            let mean = col.iter().map(|&v| v as f64).sum::<f64>() / n;
            let var = col.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n;
            if var.sqrt() > 1e-6 {
                frozen_varying.push(j);
            }
        }
    }
    summarize(
        DiagCode::ScalerFrozenMismatch,
        label,
        "column",
        &unfrozen_constant,
        ": constant in the data but not frozen by the scaler".into(),
        out,
    );
    summarize(
        DiagCode::ScalerFrozenMismatch,
        label,
        "column",
        &frozen_varying,
        ": frozen by the scaler but varies in the data".into(),
        out,
    );
}
