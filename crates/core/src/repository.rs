//! The user-facing collaborative repository.
//!
//! Implements the workflow the paper recommends in its conclusion:
//!
//! 1. Maintain a repository keyed by a commonly agreed signature set.
//! 2. A new device joins by measuring the signature set (its
//!    representation) and optionally contributing a few more latencies.
//! 3. Anyone can query the shared cost model for *any* network on *any*
//!    enrolled device — or on a brand-new device given only its signature
//!    measurements.
//!
//! ## Ingestion validation policy
//!
//! Every latency that enters the repository — signature measurements in
//! [`CollaborativeRepository::onboard_device`] /
//! [`CollaborativeRepository::re_enroll`] and contributed measurements in
//! [`CollaborativeRepository::contribute`] — must be **finite, strictly
//! positive, and representable as a finite `f32`** (the storage and model
//! type). Anything else is rejected with
//! [`RepositoryError::InvalidLatency`] *before* it can poison a training
//! row: a single NaN label silently breaks GBDT gain computation, and a
//! large-but-finite `f64` such as `1e39` narrows to `f32::INFINITY` on
//! the old unchecked `as f32` cast.
//!
//! ## Re-enrollment policy
//!
//! [`CollaborativeRepository::onboard_device`] refuses to overwrite an
//! enrolled device ([`RepositoryError::AlreadyEnrolled`]). Overwriting
//! used to leave previously contributed rows carrying the *stale*
//! signature vector, so the training set disagreed with the features
//! `predict` builds for the same device. Deliberate signature updates go
//! through [`CollaborativeRepository::re_enroll`], which replaces the
//! device's one stored signature. A row does not store its hardware
//! features: every fit ([`TrainingSet::factored`]) and every training
//! matrix ([`TrainingSet::matrix`]) reads the owner's *current*
//! signature beside the row's network encoding, so training data and
//! prediction features cannot disagree (the model itself only picks the
//! change up at the next [`CollaborativeRepository::fit`]).
//!
//! ## Storage
//!
//! Many devices measure the same networks, so the repository stores
//! each distinct network encoding once, keyed by its exact bits, and a
//! training row as (encoding id, device id) plus its label, in
//! contribution order. Device ids are given in onboarding order and
//! never reused. A fit trains on the rows in that form: two column
//! blocks, the encodings and the signatures, each row a pair of ids
//! ([`TrainingSet::factored`]).
//!
//! ## Bin-grid provenance
//!
//! A fitted model is scored on the bin grid it was trained on, and that
//! grid is a function of the rows it was cut from. Rows are only ever
//! appended, so the repository records the grid as "the first *g*
//! rows" ([`CollaborativeRepository::grid_rows`]): [`fit`] cuts it from
//! every row, and an install of a model trained on an earlier copy of
//! the rows ([`CollaborativeRepository::install_model_on`]) from that
//! copy's rows. Rows contributed after the cut do not touch it.
//!
//! [`re_enroll`] does: it changes the features of every row the device
//! owns, inside the prefix too. From a `re_enroll` on a fitted
//! repository, or an install trained on signatures that have changed
//! since, until the next fit or install trained on the current
//! signatures, the grid is *stale*
//! ([`CollaborativeRepository::grid_is_stale`]): the prefix no longer
//! rebuilds it, so a snapshot of the state could not pass the load-time
//! audit.
//!
//! [`fit`]: CollaborativeRepository::fit
//! [`re_enroll`]: CollaborativeRepository::re_enroll

use gdcm_dnn::Network;
use gdcm_ml::{
    BinnedMatrix, ColumnBlock, DenseMatrix, FactoredMatrix, FrozenGbdt, GbdtParams, GbdtRegressor,
    Regressor, MAX_BINS,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};
use std::sync::Arc;

use crate::encoding::NetworkEncoder;

/// Repository configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepositoryConfig {
    /// Regressor hyper-parameters used at (re)fit time.
    pub gbdt: GbdtParams,
    /// Minimum number of contributed rows before `fit` succeeds.
    pub min_rows: usize,
}

impl Default for RepositoryConfig {
    fn default() -> Self {
        Self {
            gbdt: GbdtParams::default(),
            min_rows: 20,
        }
    }
}

/// Errors surfaced by repository operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RepositoryError {
    /// A device name was not found in the repository.
    UnknownDevice(String),
    /// `onboard_device` was called for a device that is already enrolled
    /// (use [`CollaborativeRepository::re_enroll`] to update a signature).
    AlreadyEnrolled(String),
    /// A signature vector had the wrong length.
    SignatureLength {
        /// Expected signature-set size.
        expected: usize,
        /// Provided vector length.
        actual: usize,
    },
    /// A latency was NaN, infinite, non-positive, or too large to
    /// represent as a finite `f32`.
    InvalidLatency {
        /// The rejected value, as provided.
        value: f64,
    },
    /// `fit` was called with fewer rows than `min_rows`.
    NotEnoughData {
        /// Rows currently in the repository.
        rows: usize,
        /// Rows required.
        required: usize,
    },
    /// `predict` was called before any successful `fit`.
    NotFitted,
    /// [`RepositoryParts`] failed internal-consistency validation (e.g.
    /// a snapshot edited or corrupted outside this library).
    CorruptParts {
        /// Human-readable description of the first violated invariant.
        reason: String,
    },
    /// The model's bin grid was cut on a device signature that has
    /// changed since ([`CollaborativeRepository::grid_is_stale`]), so a
    /// snapshot of this state would fail the load-time audit.
    StaleGrid,
}

impl fmt::Display for RepositoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepositoryError::UnknownDevice(name) => write!(f, "unknown device {name:?}"),
            RepositoryError::AlreadyEnrolled(name) => write!(
                f,
                "device {name:?} is already enrolled; use re_enroll to update its signature"
            ),
            RepositoryError::SignatureLength { expected, actual } => write!(
                f,
                "signature vector has {actual} entries but the repository uses {expected}"
            ),
            RepositoryError::InvalidLatency { value } => write!(
                f,
                "latency {value} ms is not a finite positive value representable as f32"
            ),
            RepositoryError::NotEnoughData { rows, required } => {
                write!(f, "repository has {rows} rows but needs {required} to fit")
            }
            RepositoryError::NotFitted => write!(f, "cost model has not been fitted yet"),
            RepositoryError::CorruptParts { reason } => {
                write!(f, "repository parts are inconsistent: {reason}")
            }
            RepositoryError::StaleGrid => write!(
                f,
                "the model's bin grid was cut on a device signature that has changed since; \
                 fit again first"
            ),
        }
    }
}

impl std::error::Error for RepositoryError {}

/// Validates one ingested latency and narrows it to the storage type.
///
/// Rejects NaN / ±Inf, non-positive values, and finite `f64`s that
/// overflow to `f32::INFINITY` when narrowed (e.g. `1e39`).
fn validate_latency_ms(value: f64) -> Result<f32, RepositoryError> {
    let narrowed = value as f32;
    if !value.is_finite() || value <= 0.0 || !narrowed.is_finite() {
        return Err(RepositoryError::InvalidLatency { value });
    }
    Ok(narrowed)
}

fn corrupt(reason: String) -> RepositoryError {
    RepositoryError::CorruptParts { reason }
}

/// Refuses stored hyper-parameters that a fit or the load-time audit
/// would panic on: a bin budget outside `1..=MAX_BINS`, or a sampling
/// fraction outside (0, 1].
fn check_gbdt_params(gbdt: &GbdtParams) -> Result<(), RepositoryError> {
    if !(1..=MAX_BINS).contains(&gbdt.max_bins) {
        return Err(corrupt(format!(
            "config.gbdt.max_bins {} is not in 1..={MAX_BINS}",
            gbdt.max_bins
        )));
    }
    for (name, fraction) in [
        ("subsample", gbdt.subsample),
        ("colsample_bytree", gbdt.colsample_bytree),
    ] {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(corrupt(format!(
                "config.gbdt.{name} {fraction} is not in (0, 1]"
            )));
        }
    }
    Ok(())
}

/// The width of a training row, refusing a stored signature size so
/// large that it overflows.
fn row_width(encoding_width: usize, signature_size: usize) -> Result<usize, RepositoryError> {
    encoding_width
        .checked_add(signature_size)
        .ok_or_else(|| corrupt(format!("signature_size {signature_size} is out of range")))
}

/// The serializable state of a [`CollaborativeRepository`].
///
/// Produced by [`CollaborativeRepository::to_parts`] and validated by
/// [`CollaborativeRepository::from_parts`]; `gdcm-serve` wraps this in a
/// versioned snapshot envelope for persistence (layout version 3).
/// Devices are stored as a name-sorted vector (not a map) so
/// serialization is deterministic; a row names its device by position
/// in that vector. [`RepositoryParts::write_json`] writes the fields in
/// the order declared here, so a new field goes there too.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepositoryParts {
    /// The fitted network encoder.
    pub encoder: NetworkEncoder,
    /// Agreed signature-set size.
    pub signature_size: usize,
    /// Fit-time configuration.
    pub config: RepositoryConfig,
    /// Enrolled devices, sorted by name: `(name, signature_latencies)`.
    pub devices: Vec<(String, Vec<f32>)>,
    /// Each distinct network encoding once (`encoder.len()` wide), in
    /// the order rows first use them.
    pub encodings: Vec<Vec<f32>>,
    /// Training rows in contribution order: `(encoding, device)`, as
    /// indices into `encodings` and `devices`.
    pub rows: Vec<(u32, u32)>,
    /// Training labels (ms), one per row.
    pub y: Vec<f32>,
    /// The fitted model, when `fit` has succeeded.
    pub model: Option<GbdtRegressor>,
    /// How many leading rows the model's bin grid was cut from
    /// ([`CollaborativeRepository::grid_rows`]); present exactly when
    /// `model` is. Layouts before version 3 did not record it: their
    /// models were cut from every row
    /// ([`RepositoryParts::grid_on_all_rows`]).
    #[serde(default)]
    pub grid_rows: Option<usize>,
    /// The compiled (frozen SoA) form of `model`. Defaults to `None`
    /// when absent; [`CollaborativeRepository::from_parts`] then
    /// recompiles it from the rows its grid was cut from.
    #[serde(default)]
    pub frozen: Option<FrozenGbdt>,
    /// Model epoch at snapshot time (see
    /// [`CollaborativeRepository::model_epoch`]).
    #[serde(default)]
    pub epoch: u64,
}

impl RepositoryParts {
    /// Records the model's bin grid as cut from every stored row, as it
    /// was in the layouts (versions 1 and 2) that did not record it.
    pub fn grid_on_all_rows(mut self) -> Self {
        self.grid_rows = self.model.as_ref().map(|_| self.rows.len());
        self
    }

    /// Writes the bytes `serde_json::to_string(self)` gives, one field at
    /// a time and `encodings` one encoding at a time, so no step holds
    /// more than one field's document tree (the vendored serde builds a
    /// value's whole tree before it writes a byte). Fields go in their
    /// declaration order.
    ///
    /// # Errors
    ///
    /// Propagates write errors; a field that does not serialize is an
    /// [`std::io::ErrorKind::Other`] error.
    pub fn write_json(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(b"{\"encoder\":")?;
        write_json_value(out, &self.encoder)?;
        out.write_all(b",\"signature_size\":")?;
        write_json_value(out, &self.signature_size)?;
        out.write_all(b",\"config\":")?;
        write_json_value(out, &self.config)?;
        out.write_all(b",\"devices\":")?;
        write_json_value(out, &self.devices)?;
        out.write_all(b",\"encodings\":[")?;
        for (i, encoding) in self.encodings.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write_json_value(out, encoding)?;
        }
        out.write_all(b"],\"rows\":")?;
        write_json_value(out, &self.rows)?;
        out.write_all(b",\"y\":")?;
        write_json_value(out, &self.y)?;
        out.write_all(b",\"model\":")?;
        write_json_value(out, &self.model)?;
        out.write_all(b",\"grid_rows\":")?;
        write_json_value(out, &self.grid_rows)?;
        out.write_all(b",\"frozen\":")?;
        write_json_value(out, &self.frozen)?;
        out.write_all(b",\"epoch\":")?;
        write_json_value(out, &self.epoch)?;
        out.write_all(b"}")
    }
}

/// Writes one value as compact JSON.
fn write_json_value(out: &mut impl Write, value: &impl Serialize) -> io::Result<()> {
    let text = serde_json::to_string(value).map_err(io::Error::other)?;
    out.write_all(text.as_bytes())
}

/// The version-1 snapshot layout of [`RepositoryParts`]: every training
/// row stored in full (encoding followed by its owner's signature),
/// with its owner's name. Still read so old snapshots load;
/// [`RepositoryPartsV1::upgrade`] converts it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepositoryPartsV1 {
    /// The fitted network encoder.
    pub encoder: NetworkEncoder,
    /// Agreed signature-set size.
    pub signature_size: usize,
    /// Fit-time configuration.
    pub config: RepositoryConfig,
    /// Enrolled devices, sorted by name: `(name, signature_latencies)`.
    pub devices: Vec<(String, Vec<f32>)>,
    /// Owning device of each training row (parallel to `x_rows`).
    pub row_devices: Vec<String>,
    /// Training rows (`encoder.len() + signature_size` wide).
    pub x_rows: Vec<Vec<f32>>,
    /// Training labels (ms).
    pub y: Vec<f32>,
    /// The fitted model, when `fit` has succeeded.
    pub model: Option<GbdtRegressor>,
    /// The compiled form of `model`; absent in pre-freeze snapshots.
    #[serde(default)]
    pub frozen: Option<FrozenGbdt>,
    /// Model epoch at snapshot time; absent in the oldest snapshots.
    #[serde(default)]
    pub epoch: u64,
}

impl RepositoryPartsV1 {
    /// Converts to the current layout, storing each distinct encoding
    /// once in first-seen row order. Row order, and so every training
    /// matrix, is unchanged, and the model's grid is recorded as cut
    /// from every row.
    ///
    /// # Errors
    ///
    /// Returns [`RepositoryError::CorruptParts`] when the row arrays
    /// disagree in length, a row has the wrong width or a non-finite
    /// feature, a row's owner is not enrolled, or a row's hardware
    /// features disagree with its owner's signature — the one
    /// inconsistency the current layout cannot represent. Everything
    /// else is left to [`CollaborativeRepository::from_parts`].
    pub fn upgrade(self) -> Result<RepositoryParts, RepositoryError> {
        if self.x_rows.len() != self.y.len() || self.x_rows.len() != self.row_devices.len() {
            return Err(corrupt(format!(
                "row arrays disagree: {} rows, {} labels, {} owners",
                self.x_rows.len(),
                self.y.len(),
                self.row_devices.len()
            )));
        }
        let enc_width = self.encoder.len();
        let width = row_width(enc_width, self.signature_size)?;
        let ids: HashMap<&str, u32> = self
            .devices
            .iter()
            .zip(0u32..)
            .map(|((name, _), id)| (name.as_str(), id))
            .collect();
        let mut index = EncodingIndex::default();
        let mut encodings: Vec<Vec<f32>> = Vec::new();
        let mut rows = Vec::with_capacity(self.x_rows.len());
        for (i, (row, owner)) in self.x_rows.iter().zip(&self.row_devices).enumerate() {
            if row.len() != width {
                return Err(corrupt(format!(
                    "row {i} has {} features but the encoder + signature need {width}",
                    row.len()
                )));
            }
            if !row.iter().all(|v| v.is_finite()) {
                return Err(corrupt(format!("row {i} contains a non-finite feature")));
            }
            let device = *ids
                .get(owner.as_str())
                .ok_or_else(|| corrupt(format!("row {i} owner {owner:?} is not enrolled")))?;
            let (encoding, hardware) = row.split_at(enc_width);
            if hardware != &self.devices[device as usize].1[..] {
                return Err(corrupt(format!(
                    "row {i} hardware features disagree with the signature of {owner:?}"
                )));
            }
            let (id, _) = index.intern(&mut encodings, encoding, <[f32]>::to_vec);
            rows.push((id, device));
        }
        Ok(RepositoryParts {
            encoder: self.encoder,
            signature_size: self.signature_size,
            config: self.config,
            devices: self.devices,
            encodings,
            rows,
            y: self.y,
            model: self.model,
            grid_rows: None,
            frozen: self.frozen,
            epoch: self.epoch,
        }
        .grid_on_all_rows())
    }
}

/// FNV-1a over an encoding's bits, two values to a 64-bit word.
fn bits_hash(encoding: &[f32]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut pairs = encoding.chunks_exact(2);
    let h = pairs.by_ref().fold(0xcbf2_9ce4_8422_2325, |h, pair| {
        let word = u64::from(pair[0].to_bits()) | u64::from(pair[1].to_bits()) << 32;
        (h ^ word).wrapping_mul(PRIME)
    });
    match pairs.remainder() {
        [last] => (h ^ u64::from(last.to_bits())).wrapping_mul(PRIME),
        _ => h,
    }
}

/// Finds stored encodings by their exact bits.
#[derive(Debug, Clone, Default)]
struct EncodingIndex(HashMap<u64, Vec<u32>>);

impl EncodingIndex {
    /// The id of the encoding in `stored` with exactly `encoding`'s
    /// bits, and `false`; or, when there is none, pushes
    /// `store(encoding)` and returns its new id and `true`. The hash
    /// only picks candidates: bits are compared on every hit.
    fn intern<E: AsRef<[f32]>>(
        &mut self,
        stored: &mut Vec<E>,
        encoding: &[f32],
        store: impl FnOnce(&[f32]) -> E,
    ) -> (u32, bool) {
        let ids = self.0.entry(bits_hash(encoding)).or_default();
        let same = |e: &E| {
            let e = e.as_ref();
            e.len() == encoding.len()
                && e.iter()
                    .zip(encoding)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        };
        if let Some(&id) = ids.iter().find(|&&id| same(&stored[id as usize])) {
            return (id, false);
        }
        let id = u32::try_from(stored.len()).expect("fewer than 2^32 distinct encodings");
        ids.push(id);
        stored.push(store(encoding));
        (id, true)
    }
}

/// What a fit reads: each distinct network encoding once, one signature
/// per device, and every row as ids plus its label.
///
/// Cloning is cheap — the encodings are shared — so a background
/// refresh can take a copy under a read lock and fit off it
/// ([`TrainingSet::factored`]).
#[derive(Debug, Clone)]
pub struct TrainingSet {
    /// Distinct encodings, indexed by encoding id.
    encodings: Vec<Arc<[f32]>>,
    encoding_width: usize,
    /// `signature_size` latencies per device id.
    signatures: Vec<f32>,
    signature_size: usize,
    /// `(encoding id, device id)` of each row, in contribution order.
    rows: Vec<(u32, u32)>,
    y: Vec<f32>,
}

impl TrainingSet {
    fn new(encoding_width: usize, signature_size: usize) -> Self {
        Self {
            encodings: Vec::new(),
            encoding_width,
            signatures: Vec::new(),
            signature_size,
            rows: Vec::new(),
            y: Vec::new(),
        }
    }

    fn signature(&self, device: u32) -> &[f32] {
        let start = device as usize * self.signature_size;
        &self.signatures[start..start + self.signature_size]
    }

    /// Number of training rows.
    pub fn n_rows(&self) -> usize {
        self.y.len()
    }

    /// The training labels (ms), one per row.
    pub fn labels(&self) -> &[f32] {
        &self.y
    }

    /// The training rows as the two column blocks every fit trains on:
    /// each distinct encoding once, with each row's encoding id, and one
    /// signature per device, with each row's device id. Expanded, it is
    /// [`TrainingSet::matrix`]. It is [`TrainingSet::prefix_factored`]
    /// of every row.
    pub fn factored(&self) -> FactoredMatrix<'_> {
        self.prefix_factored(self.rows.len())
    }

    /// The first `rows` rows as the two column blocks of
    /// [`TrainingSet::factored`]: what a grid cut from those rows was
    /// cut from. The tables hold every encoding and device, and those
    /// that only later rows reference take part in nothing the blocks
    /// are binned or audited on.
    ///
    /// A clone shares the encodings, which are stored one by one, so the
    /// view copies them into one table (one encoding width of floats per
    /// distinct encoding) and the ids into one array per block, and
    /// borrows the signatures.
    ///
    /// # Panics
    ///
    /// Panics when `rows` exceeds [`TrainingSet::n_rows`].
    pub fn prefix_factored(&self, rows: usize) -> FactoredMatrix<'_> {
        let encodings: Vec<f32> = self
            .encodings
            .iter()
            .flat_map(|e| e.iter().copied())
            .collect();
        let (encoding_ids, device_ids): (Vec<u32>, Vec<u32>) =
            self.rows[..rows].iter().copied().unzip();
        FactoredMatrix::new(
            rows,
            vec![
                ColumnBlock::mapped(encodings, self.encoding_width, encoding_ids),
                ColumnBlock::mapped(&self.signatures[..], self.signature_size, device_ids),
            ],
        )
    }

    /// The training matrix: each row is its network encoding followed
    /// by its device's current signature, in contribution order. Fits
    /// and audits read its column blocks ([`TrainingSet::factored`]);
    /// this is the expanded form, for callers that want the rows.
    pub fn matrix(&self) -> DenseMatrix {
        self.prefix_matrix(self.rows.len())
    }

    /// The first `rows` rows of [`TrainingSet::matrix`].
    ///
    /// # Panics
    ///
    /// Panics when `rows` exceeds [`TrainingSet::n_rows`].
    pub fn prefix_matrix(&self, rows: usize) -> DenseMatrix {
        let width = self.encoding_width + self.signature_size;
        let mut data = Vec::with_capacity(rows * width);
        for &(encoding, device) in &self.rows[..rows] {
            data.extend_from_slice(&self.encodings[encoding as usize]);
            data.extend_from_slice(self.signature(device));
        }
        DenseMatrix::from_vec(data, rows, width)
    }
}

/// A growing, refittable collaborative cost-model repository.
#[derive(Debug, Clone)]
pub struct CollaborativeRepository {
    encoder: NetworkEncoder,
    config: RepositoryConfig,
    /// Device name -> device id.
    device_ids: HashMap<String, u32>,
    /// Device names by id.
    device_names: Vec<String>,
    /// Finds `train`'s encodings by their bits.
    index: EncodingIndex,
    train: TrainingSet,
    model: Option<GbdtRegressor>,
    /// Leading rows `model`'s bin grid was cut from; 0 while unfitted.
    grid_rows: usize,
    /// Whether a signature the grid was cut on has changed since.
    grid_stale: bool,
    /// Compiled form of `model`, refreshed by every successful `fit` —
    /// the prediction paths run this; `model` is kept as the reference
    /// for auditing.
    frozen: Option<FrozenGbdt>,
    /// Monotonic model epoch: bumped by every mutation that changes
    /// what `predict` would answer (`fit`, `re_enroll`,
    /// `install_model`). Lets callers that cache predictions *outside*
    /// the repository detect that a value computed against an earlier
    /// model is stale before they publish it.
    epoch: u64,
}

impl CollaborativeRepository {
    /// Creates an empty repository over a fitted network encoder and a
    /// signature-set size agreed by all participants.
    ///
    /// # Panics
    ///
    /// Panics when `signature_size` is 0.
    pub fn new(encoder: NetworkEncoder, signature_size: usize, config: RepositoryConfig) -> Self {
        assert!(signature_size >= 1, "signature size must be >= 1");
        let train = TrainingSet::new(encoder.len(), signature_size);
        Self {
            encoder,
            config,
            device_ids: HashMap::new(),
            device_names: Vec::new(),
            index: EncodingIndex::default(),
            train,
            model: None,
            grid_rows: 0,
            grid_stale: false,
            frozen: None,
            epoch: 0,
        }
    }

    /// Validates and narrows a full signature vector.
    fn validate_signature(
        &self,
        signature_latencies_ms: &[f64],
    ) -> Result<Vec<f32>, RepositoryError> {
        if signature_latencies_ms.len() != self.train.signature_size {
            return Err(RepositoryError::SignatureLength {
                expected: self.train.signature_size,
                actual: signature_latencies_ms.len(),
            });
        }
        signature_latencies_ms
            .iter()
            .map(|&v| validate_latency_ms(v))
            .collect()
    }

    /// Gives `name` the next device id. The caller has validated the
    /// signature and checked that the name is new.
    fn enroll(&mut self, name: String, signature: &[f32]) {
        let id = u32::try_from(self.device_names.len()).expect("fewer than 2^32 devices");
        self.device_ids.insert(name.clone(), id);
        self.device_names.push(name);
        self.train.signatures.extend_from_slice(signature);
    }

    /// Enrolls a *new* device with its measured signature-set latencies
    /// in milliseconds.
    ///
    /// # Errors
    ///
    /// Returns [`RepositoryError::SignatureLength`] when the vector does
    /// not match the agreed signature size,
    /// [`RepositoryError::InvalidLatency`] when any measurement is
    /// non-finite, non-positive, or overflows `f32`, and
    /// [`RepositoryError::AlreadyEnrolled`] when the device already has a
    /// signature (see the module-level re-enrollment policy).
    pub fn onboard_device(
        &mut self,
        name: impl Into<String>,
        signature_latencies_ms: &[f64],
    ) -> Result<(), RepositoryError> {
        let name = name.into();
        let sig = self.check_onboarding(&name, signature_latencies_ms)?;
        self.enroll(name, &sig);
        Ok(())
    }

    /// Checks an onboarding without making it, and returns the
    /// signature as it would be stored.
    /// [`CollaborativeRepository::onboard_device`] runs this check
    /// first, so it accepts exactly what the check accepts.
    ///
    /// # Errors
    ///
    /// The errors of [`CollaborativeRepository::onboard_device`].
    pub fn check_onboarding(
        &self,
        name: &str,
        signature_latencies_ms: &[f64],
    ) -> Result<Vec<f32>, RepositoryError> {
        let sig = self.validate_signature(signature_latencies_ms)?;
        if self.device_ids.contains_key(name) {
            return Err(RepositoryError::AlreadyEnrolled(name.to_string()));
        }
        Ok(sig)
    }

    /// Replaces the signature of an *already enrolled* device. Its
    /// contributed rows pick the new signature up in every later
    /// training matrix, so training data stays consistent with the
    /// features [`CollaborativeRepository::predict`] will build. Call
    /// [`CollaborativeRepository::fit`] afterwards to refresh the model:
    /// until then a fitted model's grid is stale
    /// ([`CollaborativeRepository::grid_is_stale`]).
    ///
    /// # Errors
    ///
    /// Returns [`RepositoryError::UnknownDevice`] when the device has
    /// never been onboarded, plus the same signature validation errors as
    /// [`CollaborativeRepository::onboard_device`].
    pub fn re_enroll(
        &mut self,
        name: &str,
        signature_latencies_ms: &[f64],
    ) -> Result<(), RepositoryError> {
        let sig = self.check_re_enrollment(name, signature_latencies_ms)?;
        let start = self.device_ids[name] as usize * self.train.signature_size;
        self.train.signatures[start..start + sig.len()].copy_from_slice(&sig);
        // The model is unchanged but predictions for this device now use
        // the new signature, so anything cached against the old one is
        // stale, and so is a grid cut on the old one.
        self.epoch += 1;
        self.grid_stale |= self.model.is_some();
        Ok(())
    }

    /// Checks a re-enrollment without making it, and returns the
    /// signature as it would be stored.
    /// [`CollaborativeRepository::re_enroll`] runs this check first, so
    /// it accepts exactly what the check accepts.
    ///
    /// # Errors
    ///
    /// The errors of [`CollaborativeRepository::re_enroll`].
    pub fn check_re_enrollment(
        &self,
        name: &str,
        signature_latencies_ms: &[f64],
    ) -> Result<Vec<f32>, RepositoryError> {
        let sig = self.validate_signature(signature_latencies_ms)?;
        if !self.device_ids.contains_key(name) {
            return Err(RepositoryError::UnknownDevice(name.to_string()));
        }
        Ok(sig)
    }

    /// Contributes one measured latency for an enrolled device.
    ///
    /// # Errors
    ///
    /// Returns [`RepositoryError::UnknownDevice`] when the device has not
    /// been onboarded and [`RepositoryError::InvalidLatency`] when the
    /// measurement is non-finite, non-positive, or overflows `f32`.
    pub fn contribute(
        &mut self,
        device: &str,
        network: &Network,
        latency_ms: f64,
    ) -> Result<(), RepositoryError> {
        let label = self.check_contribution(device, latency_ms)?;
        let device = self.device_ids[device];
        // Look the encoding up while it is still in cache.
        let encoding = self.encoder.encode(network);
        let (id, _) = self
            .index
            .intern(&mut self.train.encodings, &encoding, |e| e.into());
        self.train.rows.push((id, device));
        self.train.y.push(label);
        Ok(())
    }

    /// Checks a contribution without making it, and returns the latency
    /// as it would be stored. [`CollaborativeRepository::contribute`]
    /// runs this check first, so it accepts exactly what the check
    /// accepts.
    ///
    /// # Errors
    ///
    /// The errors of [`CollaborativeRepository::contribute`].
    pub fn check_contribution(
        &self,
        device: &str,
        latency_ms: f64,
    ) -> Result<f32, RepositoryError> {
        let label = validate_latency_ms(latency_ms)?;
        if !self.device_ids.contains_key(device) {
            return Err(RepositoryError::UnknownDevice(device.to_string()));
        }
        Ok(label)
    }

    /// (Re)fits the shared cost model on everything contributed so far,
    /// cutting its bin grid from every row.
    ///
    /// # Errors
    ///
    /// Returns [`RepositoryError::NotEnoughData`] below the configured
    /// row minimum.
    pub fn fit(&mut self) -> Result<(), RepositoryError> {
        if self.train.n_rows() < self.config.min_rows {
            return Err(RepositoryError::NotEnoughData {
                rows: self.train.n_rows(),
                required: self.config.min_rows,
            });
        }
        let (model, grid) =
            GbdtRegressor::fit_factored(&self.train.factored(), &self.train.y, &self.config.gbdt);
        // Compile for the prediction paths on the grid the fit trained
        // on, so freezing a fresh model cannot fail.
        let frozen = FrozenGbdt::freeze(&model, &grid)
            .expect("freshly fitted model freezes on its own training grid");
        self.set_model(model, frozen, self.train.n_rows(), false);
        Ok(())
    }

    /// Installs an externally fitted model pair trained, and its grid
    /// cut, on this repository's current rows, and bumps the model
    /// epoch. The caller is responsible for having trained and audited
    /// the pair on those rows; only structural width parity is
    /// validated here.
    ///
    /// # Errors
    ///
    /// Returns [`RepositoryError::CorruptParts`] when either artifact's
    /// feature width disagrees with the repository's rows.
    pub fn install_model(
        &mut self,
        model: GbdtRegressor,
        frozen: FrozenGbdt,
    ) -> Result<(), RepositoryError> {
        self.check_widths(&model, &frozen)?;
        self.set_model(model, frozen, self.train.n_rows(), false);
        Ok(())
    }

    /// [`CollaborativeRepository::install_model`] for a pair trained on
    /// `trained_on`, an earlier clone of [`training_set`]: a
    /// background refresh trains off the lock while rows keep arriving.
    /// The grid is recorded as cut from the clone's rows, and it is
    /// stale ([`CollaborativeRepository::grid_is_stale`]) when a
    /// signature changed between the clone and the install.
    ///
    /// [`training_set`]: CollaborativeRepository::training_set
    ///
    /// # Errors
    ///
    /// Returns [`RepositoryError::CorruptParts`] when either artifact's
    /// feature width disagrees with the repository's rows, or when
    /// `trained_on`'s rows and labels are not the first rows of this
    /// repository.
    pub fn install_model_on(
        &mut self,
        model: GbdtRegressor,
        frozen: FrozenGbdt,
        trained_on: &TrainingSet,
    ) -> Result<(), RepositoryError> {
        self.check_widths(&model, &frozen)?;
        let rows = trained_on.n_rows();
        if rows > self.n_rows()
            || trained_on.rows[..] != self.train.rows[..rows]
            || trained_on.y[..] != self.train.y[..rows]
        {
            return Err(corrupt(
                "installed model was trained on rows this repository does not hold".into(),
            ));
        }
        let signatures = &trained_on.signatures[..];
        let stale = self.train.signatures.get(..signatures.len()) != Some(signatures);
        self.set_model(model, frozen, rows, stale);
        Ok(())
    }

    /// Swaps in a model pair whose grid was cut from the first
    /// `grid_rows` rows, and bumps the epoch.
    fn set_model(
        &mut self,
        model: GbdtRegressor,
        frozen: FrozenGbdt,
        grid_rows: usize,
        grid_stale: bool,
    ) {
        self.model = Some(model);
        self.frozen = Some(frozen);
        self.grid_rows = grid_rows;
        self.grid_stale = grid_stale;
        self.epoch += 1;
    }

    /// Refuses a model pair whose feature width is not the rows'.
    fn check_widths(
        &self,
        model: &GbdtRegressor,
        frozen: &FrozenGbdt,
    ) -> Result<(), RepositoryError> {
        let width = self.encoder.len() + self.train.signature_size;
        if model.n_features() != width {
            return Err(corrupt(format!(
                "installed model expects {} features but rows have {width}",
                model.n_features()
            )));
        }
        if frozen.n_features() != width {
            return Err(corrupt(format!(
                "installed frozen model expects {} features but rows have {width}",
                frozen.n_features()
            )));
        }
        Ok(())
    }

    /// How many leading rows the fitted model's bin grid was cut from
    /// (0 while unfitted): the rows the load-time audit rebuilds the
    /// grid from. Rows after them are not the grid's concern.
    pub fn grid_rows(&self) -> usize {
        self.grid_rows
    }

    /// Whether a device signature the model's grid was cut on has
    /// changed since (see the module docs): the first
    /// [`CollaborativeRepository::grid_rows`] rows no longer rebuild
    /// the grid, so this state must not be snapshotted until the next
    /// fit.
    pub fn grid_is_stale(&self) -> bool {
        self.grid_stale
    }

    /// The monotonic model epoch: 0 at construction, incremented by
    /// every successful [`CollaborativeRepository::fit`],
    /// [`CollaborativeRepository::re_enroll`],
    /// [`CollaborativeRepository::install_model`] and
    /// [`CollaborativeRepository::install_model_on`]. Two calls observing
    /// the same epoch are guaranteed to see bit-identical predictions
    /// for the same inputs.
    pub fn model_epoch(&self) -> u64 {
        self.epoch
    }

    /// Predicts the latency (ms) of `network` on an enrolled device.
    ///
    /// # Errors
    ///
    /// Fails when the device is unknown or the model is unfitted.
    pub fn predict(&self, device: &str, network: &Network) -> Result<f64, RepositoryError> {
        let hw = self
            .device_signature(device)
            .ok_or_else(|| RepositoryError::UnknownDevice(device.to_string()))?;
        self.predict_encoded(&self.encoder.encode(network), hw)
    }

    /// Predicts the latency (ms) of `network` on a *new* device described
    /// only by its signature-set latencies — no enrollment required.
    ///
    /// # Errors
    ///
    /// Fails on signature-length mismatch, invalid latencies, or when the
    /// model is unfitted.
    pub fn predict_for_new_device(
        &self,
        signature_latencies_ms: &[f64],
        network: &Network,
    ) -> Result<f64, RepositoryError> {
        let hw = self.validate_signature(signature_latencies_ms)?;
        self.predict_encoded(&self.encoder.encode(network), &hw)
    }

    /// Scores the row a network `encoding` (as
    /// [`NetworkEncoder::encode`] produces it) followed by a device's
    /// signature latencies forms. It is the repository's one scoring path:
    /// [`CollaborativeRepository::predict`],
    /// [`CollaborativeRepository::predict_for_new_device`] and the
    /// serving layer's cache misses all call it.
    ///
    /// # Errors
    ///
    /// Returns [`RepositoryError::NotFitted`] before the first
    /// successful fit.
    ///
    /// # Panics
    ///
    /// Panics when `encoding` is not [`NetworkEncoder::len`] long or
    /// `signature` is not [`CollaborativeRepository::signature_size`]
    /// long: the row would not be the one the model was trained on.
    pub fn predict_encoded(
        &self,
        encoding: &[f32],
        signature: &[f32],
    ) -> Result<f64, RepositoryError> {
        assert!(
            encoding.len() == self.encoder.len() && signature.len() == self.train.signature_size,
            "predict_encoded takes a {}-wide encoding and a {}-wide signature, got {} and {}",
            self.encoder.len(),
            self.train.signature_size,
            encoding.len(),
            signature.len()
        );
        let frozen = self.frozen.as_ref().ok_or(RepositoryError::NotFitted)?;
        let mut row = Vec::with_capacity(encoding.len() + signature.len());
        row.extend_from_slice(encoding);
        row.extend_from_slice(signature);
        Ok(frozen.predict_row(&row) as f64)
    }

    /// Number of enrolled devices.
    pub fn n_devices(&self) -> usize {
        self.device_names.len()
    }

    /// Number of contributed training rows.
    pub fn n_rows(&self) -> usize {
        self.train.n_rows()
    }

    /// Whether a fitted model is available.
    pub fn is_fitted(&self) -> bool {
        self.model.is_some()
    }

    /// Names of enrolled devices, sorted.
    pub fn device_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.device_names.iter().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// The fitted network encoder.
    pub fn encoder(&self) -> &NetworkEncoder {
        &self.encoder
    }

    /// The agreed signature-set size.
    pub fn signature_size(&self) -> usize {
        self.train.signature_size
    }

    /// The repository configuration.
    pub fn config(&self) -> &RepositoryConfig {
        &self.config
    }

    /// The stored signature of an enrolled device, if any.
    pub fn device_signature(&self, name: &str) -> Option<&[f32]> {
        self.device_ids
            .get(name)
            .map(|&id| self.train.signature(id))
    }

    /// The fitted model, when available.
    pub fn model(&self) -> Option<&GbdtRegressor> {
        self.model.as_ref()
    }

    /// The compiled (frozen SoA) form of the fitted model, when
    /// available. Present exactly when [`CollaborativeRepository::model`]
    /// is — every prediction path runs this artifact; auditors
    /// translation-validate it against the pointer-tree model.
    pub fn frozen_model(&self) -> Option<&FrozenGbdt> {
        self.frozen.as_ref()
    }

    /// What a fit reads. Clone it for a cheap copy to train on off a
    /// lock.
    pub fn training_set(&self) -> &TrainingSet {
        &self.train
    }

    /// The training rows, each materialized as its own vector, and the
    /// labels. For callers that want owned rows; the repository's fits
    /// never expand them ([`TrainingSet::factored`]).
    pub fn training_data(&self) -> (Vec<Vec<f32>>, &[f32]) {
        let x = self.train.matrix();
        (x.rows().map(<[f32]>::to_vec).collect(), &self.train.y)
    }

    /// Extracts the full serializable state (devices sorted by name).
    pub fn to_parts(&self) -> RepositoryParts {
        let mut order: Vec<u32> = (0..self.device_names.len() as u32).collect();
        order.sort_by(|&a, &b| self.device_names[a as usize].cmp(&self.device_names[b as usize]));
        // Device id -> position in the name-sorted list.
        let mut position = vec![0u32; order.len()];
        for (pos, &id) in (0u32..).zip(&order) {
            position[id as usize] = pos;
        }
        RepositoryParts {
            encoder: self.encoder.clone(),
            signature_size: self.train.signature_size,
            config: self.config.clone(),
            devices: order
                .iter()
                .map(|&id| {
                    (
                        self.device_names[id as usize].clone(),
                        self.train.signature(id).to_vec(),
                    )
                })
                .collect(),
            encodings: self.train.encodings.iter().map(|e| e.to_vec()).collect(),
            rows: self
                .train
                .rows
                .iter()
                .map(|&(e, d)| (e, position[d as usize]))
                .collect(),
            y: self.train.y.clone(),
            model: self.model.clone(),
            grid_rows: self.model.as_ref().map(|_| self.grid_rows),
            frozen: self.frozen.clone(),
            epoch: self.epoch,
        }
    }

    /// Rebuilds a repository from [`RepositoryParts`], re-validating
    /// every invariant the incremental API enforces (this is the
    /// snapshot-load path, so the parts may come from disk). Device ids
    /// follow the parts' name order.
    ///
    /// # Errors
    ///
    /// Returns [`RepositoryError::CorruptParts`] when any structural
    /// invariant is violated — GBDT hyper-parameters a fit would panic
    /// on (`max_bins` outside `1..=MAX_BINS`, `subsample` or
    /// `colsample_bytree` outside (0, 1]), a zero signature size, a
    /// duplicate device name, an encoding of the wrong width, with a
    /// non-finite value or with the same bits as another, a row id out
    /// of range, a model of the wrong width, a model without `grid_rows`
    /// or `grid_rows` without a model, `grid_rows` outside `1..=rows` — and
    /// [`RepositoryError::InvalidLatency`] /
    /// [`RepositoryError::SignatureLength`] when stored measurements
    /// fail ingestion validation.
    pub fn from_parts(parts: RepositoryParts) -> Result<Self, RepositoryError> {
        check_gbdt_params(&parts.config.gbdt)?;
        if parts.signature_size == 0 {
            return Err(corrupt("signature_size is 0".into()));
        }
        let width = row_width(parts.encoder.len(), parts.signature_size)?;
        let mut repo = Self::new(parts.encoder, parts.signature_size, parts.config);
        for (name, sig) in parts.devices {
            if sig.len() != parts.signature_size {
                return Err(RepositoryError::SignatureLength {
                    expected: parts.signature_size,
                    actual: sig.len(),
                });
            }
            for &v in &sig {
                validate_latency_ms(f64::from(v))?;
            }
            if repo.device_ids.contains_key(&name) {
                return Err(corrupt(format!("device {name:?} appears twice")));
            }
            repo.enroll(name, &sig);
        }
        let enc_width = repo.encoder.len();
        for (i, encoding) in parts.encodings.iter().enumerate() {
            if encoding.len() != enc_width {
                return Err(corrupt(format!(
                    "encoding {i} has {} values but the encoder makes {enc_width}",
                    encoding.len()
                )));
            }
            if !encoding.iter().all(|v| v.is_finite()) {
                return Err(corrupt(format!("encoding {i} contains a non-finite value")));
            }
            let (id, new) = repo
                .index
                .intern(&mut repo.train.encodings, encoding, |e| e.into());
            if !new {
                return Err(corrupt(format!("encoding {i} repeats encoding {id}")));
            }
        }
        if parts.rows.len() != parts.y.len() {
            return Err(corrupt(format!(
                "row arrays disagree: {} rows, {} labels",
                parts.rows.len(),
                parts.y.len()
            )));
        }
        let (n_encodings, n_devices) = (repo.train.encodings.len(), repo.n_devices());
        for (i, &(encoding, device)) in parts.rows.iter().enumerate() {
            if encoding as usize >= n_encodings {
                return Err(corrupt(format!(
                    "row {i} names encoding {encoding} of {n_encodings}"
                )));
            }
            if device as usize >= n_devices {
                return Err(corrupt(format!(
                    "row {i} names device {device} of {n_devices}"
                )));
            }
        }
        for &label in &parts.y {
            validate_latency_ms(f64::from(label))?;
        }
        let n_rows = parts.rows.len();
        repo.train.rows = parts.rows;
        repo.train.y = parts.y;
        if let Some(model) = &parts.model {
            if model.n_features() != width {
                return Err(corrupt(format!(
                    "model expects {} features but rows have {width}",
                    model.n_features()
                )));
            }
        }
        repo.grid_rows = match (&parts.model, parts.grid_rows) {
            (None, None) => 0,
            (Some(_), Some(g)) if (1..=n_rows).contains(&g) => g,
            (Some(_), Some(g)) => {
                return Err(corrupt(format!("grid_rows {g} is not in 1..={n_rows}")));
            }
            (None, Some(_)) => return Err(corrupt("grid_rows present without a model".into())),
            (Some(_), None) => return Err(corrupt("model present without grid_rows".into())),
        };
        repo.frozen = match (&parts.model, parts.frozen) {
            (None, None) => None,
            (None, Some(_)) => {
                return Err(corrupt(
                    "frozen model present without its source model".into(),
                ));
            }
            // Pre-freeze snapshot: recompile from the rows the grid was
            // cut from, on the grid `fit` would build from their column
            // blocks. Deep equivalence checking (the flatcheck pass) is
            // the snapshot loader's job; here a failed freeze means the
            // model cannot have come from these rows.
            (Some(model), None) => {
                let binned = BinnedMatrix::from_factored(
                    &repo.train.prefix_factored(repo.grid_rows),
                    repo.config.gbdt.max_bins,
                );
                Some(FrozenGbdt::freeze(model, &binned).map_err(|e| {
                    corrupt(format!("stored model does not recompile on its rows: {e}"))
                })?)
            }
            // Structural width parity only — deep equivalence between
            // the pair (bijection, quantization, accumulation) is the
            // flatcheck audit pass's domain, and the snapshot loader
            // runs it before serving.
            (Some(_), Some(frozen)) => {
                if frozen.n_features() != width {
                    return Err(corrupt(format!(
                        "frozen model expects {} features but rows have {width}",
                        frozen.n_features()
                    )));
                }
                Some(frozen)
            }
        };
        repo.model = parts.model;
        repo.epoch = parts.epoch;
        Ok(repo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::CostDataset;
    use crate::signature::{MutualInfoSelector, SignatureSelector};
    use gdcm_ml::metrics::r2_score;

    fn build_repo(data: &CostDataset, sig: &[usize]) -> CollaborativeRepository {
        CollaborativeRepository::new(
            data.encoder.clone(),
            sig.len(),
            RepositoryConfig {
                gbdt: GbdtParams {
                    n_estimators: 40,
                    ..GbdtParams::default()
                },
                min_rows: 10,
            },
        )
    }

    #[test]
    fn end_to_end_repository_flow() {
        let data = CostDataset::tiny(17, 16, 25);
        let all: Vec<usize> = (0..data.n_devices()).collect();
        let sig = MutualInfoSelector::default().select(&data.db, &all, 4);
        let mut repo = build_repo(&data, &sig);

        // Enroll 20 devices; each contributes 8 measurements.
        let open: Vec<usize> = (0..data.n_networks())
            .filter(|n| !sig.contains(n))
            .collect();
        for d in 0..20 {
            let lat: Vec<f64> = sig.iter().map(|&n| data.db.latency(d, n)).collect();
            let name = data.devices[d].model.clone();
            repo.onboard_device(name.clone(), &lat)
                .expect("signature length matches the repository");
            for &n in open.iter().skip(d % 5).step_by(4).take(8) {
                repo.contribute(&name, &data.suite[n].network, data.db.latency(d, n))
                    .expect("device was onboarded above");
            }
        }
        assert_eq!(repo.n_devices(), 20);
        repo.fit()
            .expect("20 devices x 8 contributions is enough data");
        assert!(repo.is_fitted());

        // Predict every open network on a *new* 21st device from its
        // signature alone; accuracy should be solid.
        let target = 21;
        let lat: Vec<f64> = sig.iter().map(|&n| data.db.latency(target, n)).collect();
        let mut actual = Vec::new();
        let mut predicted = Vec::new();
        for &n in &open {
            actual.push(data.db.latency(target, n) as f32);
            predicted.push(
                repo.predict_for_new_device(&lat, &data.suite[n].network)
                    .expect("repository is fitted") as f32,
            );
        }
        let r2 = r2_score(&actual, &predicted);
        assert!(r2 > 0.5, "new-device R² {r2}");
    }

    #[test]
    fn error_paths() {
        let data = CostDataset::tiny(17, 4, 5);
        let mut repo = build_repo(&data, &[0, 1, 2]);
        assert_eq!(
            repo.onboard_device("x", &[1.0]).unwrap_err(),
            RepositoryError::SignatureLength {
                expected: 3,
                actual: 1
            }
        );
        assert!(matches!(
            repo.contribute("ghost", &data.suite[0].network, 1.0),
            Err(RepositoryError::UnknownDevice(_))
        ));
        assert!(matches!(
            repo.fit(),
            Err(RepositoryError::NotEnoughData { .. })
        ));
        assert!(matches!(
            repo.predict_for_new_device(&[1.0, 2.0, 3.0], &data.suite[0].network),
            Err(RepositoryError::NotFitted)
        ));
        repo.onboard_device("real", &[10.0, 20.0, 30.0])
            .expect("signature length matches the repository");
        assert!(matches!(
            repo.predict("ghost", &data.suite[0].network),
            Err(RepositoryError::UnknownDevice(_))
        ));
        assert_eq!(repo.device_names(), vec!["real"]);
    }

    #[test]
    fn non_finite_and_overflowing_latencies_are_rejected() {
        let data = CostDataset::tiny(17, 4, 5);
        let mut repo = build_repo(&data, &[0, 1]);

        // Signature ingestion: NaN, Inf, zero, negative, f32 overflow.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -3.0, 1e39] {
            assert!(
                matches!(
                    repo.onboard_device("d", &[1.0, bad]),
                    Err(RepositoryError::InvalidLatency { .. })
                ),
                "onboard accepted {bad}"
            );
        }
        assert_eq!(repo.n_devices(), 0, "rejected onboarding must not enroll");

        // Contribution ingestion: same policy.
        repo.onboard_device("d", &[1.0, 2.0])
            .expect("valid signature");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -3.0, 1e39] {
            assert!(
                matches!(
                    repo.contribute("d", &data.suite[0].network, bad),
                    Err(RepositoryError::InvalidLatency { .. })
                ),
                "contribute accepted {bad}"
            );
        }
        assert_eq!(repo.n_rows(), 0, "rejected contributions must not land");

        // predict_for_new_device also validates its signature input.
        assert!(matches!(
            repo.predict_for_new_device(&[1.0, f64::NAN], &data.suite[0].network),
            Err(RepositoryError::InvalidLatency { .. })
        ));

        // 1e39 is finite in f64 but narrows to +Inf in f32 — the exact
        // overflow the old unchecked cast let through.
        assert!((1e39f64).is_finite() && !(1e39f64 as f32).is_finite());
    }

    #[test]
    fn re_enrollment_rewrites_stale_rows() {
        let data = CostDataset::tiny(17, 4, 5);
        let mut repo = build_repo(&data, &[0, 1]);
        repo.onboard_device("d", &[10.0, 20.0])
            .expect("valid signature");

        // Double onboarding is refused outright.
        assert_eq!(
            repo.onboard_device("d", &[11.0, 21.0]).unwrap_err(),
            RepositoryError::AlreadyEnrolled("d".into())
        );

        repo.contribute("d", &data.suite[0].network, 5.0)
            .expect("device enrolled");
        repo.contribute("d", &data.suite[1].network, 6.0)
            .expect("device enrolled");
        repo.onboard_device("other", &[1.0, 2.0])
            .expect("valid signature");
        repo.contribute("other", &data.suite[0].network, 7.0)
            .expect("device enrolled");

        // Re-enroll rewrites d's rows (and only d's) in place.
        repo.re_enroll("d", &[30.0, 40.0]).expect("d is enrolled");
        assert_eq!(repo.device_signature("d").expect("enrolled"), &[30.0, 40.0]);
        let hw_start = repo.encoder().len();
        let (rows, _) = repo.training_data();
        assert_eq!(&rows[0][hw_start..], &[30.0, 40.0]);
        assert_eq!(&rows[1][hw_start..], &[30.0, 40.0]);
        assert_eq!(&rows[2][hw_start..], &[1.0, 2.0]);

        // Unknown devices cannot re-enroll; validation still applies.
        assert!(matches!(
            repo.re_enroll("ghost", &[1.0, 2.0]),
            Err(RepositoryError::UnknownDevice(_))
        ));
        assert!(matches!(
            repo.re_enroll("d", &[1.0, f64::NAN]),
            Err(RepositoryError::InvalidLatency { .. })
        ));
    }

    #[test]
    fn parts_round_trip_preserves_predictions() {
        let data = CostDataset::tiny(17, 8, 12);
        let sig = vec![0usize, 1, 2];
        let mut repo = build_repo(&data, &sig);
        for d in 0..8 {
            let lat: Vec<f64> = sig.iter().map(|&n| data.db.latency(d, n)).collect();
            let name = data.devices[d].model.clone();
            repo.onboard_device(name.clone(), &lat).expect("valid");
            for n in 3..data.n_networks() {
                repo.contribute(&name, &data.suite[n].network, data.db.latency(d, n))
                    .expect("enrolled");
            }
        }
        repo.fit().expect("enough rows");

        let rebuilt =
            CollaborativeRepository::from_parts(repo.to_parts()).expect("self-produced parts");
        let device = data.devices[0].model.as_str();
        for n in 3..data.n_networks() {
            let a = repo
                .predict(device, &data.suite[n].network)
                .expect("fitted");
            let b = rebuilt
                .predict(device, &data.suite[n].network)
                .expect("fitted");
            assert_eq!(a.to_bits(), b.to_bits(), "network {n}");
        }
    }

    #[test]
    fn model_epoch_tracks_prediction_changing_mutations() {
        let data = CostDataset::tiny(17, 8, 12);
        let sig = vec![0usize, 1, 2];
        let mut repo = build_repo(&data, &sig);
        assert_eq!(repo.model_epoch(), 0);

        for d in 0..8 {
            let lat: Vec<f64> = sig.iter().map(|&n| data.db.latency(d, n)).collect();
            let name = data.devices[d].model.clone();
            repo.onboard_device(name.clone(), &lat).expect("valid");
            for n in 3..data.n_networks() {
                repo.contribute(&name, &data.suite[n].network, data.db.latency(d, n))
                    .expect("enrolled");
            }
        }
        // Onboarding and contributing do not change what predict answers.
        assert_eq!(repo.model_epoch(), 0);

        repo.fit().expect("enough rows");
        assert_eq!(repo.model_epoch(), 1);

        let name = data.devices[0].model.clone();
        repo.re_enroll(&name, &[5.0, 6.0, 7.0]).expect("enrolled");
        assert_eq!(repo.model_epoch(), 2);

        // A failed fit must not bump.
        let fresh = build_repo(&data, &sig);
        let mut failing = fresh.clone();
        assert!(failing.fit().is_err());
        assert_eq!(failing.model_epoch(), 0);

        // install_model bumps and swaps both artifacts.
        let (model, frozen) = {
            let train = repo.training_set();
            let x = train.matrix();
            let model = GbdtRegressor::fit(&x, train.labels(), &repo.config().gbdt);
            let binned = BinnedMatrix::from_matrix(&x, repo.config().gbdt.max_bins);
            let frozen = FrozenGbdt::freeze(&model, &binned).expect("fresh model");
            (model, frozen)
        };
        repo.install_model(model, frozen).expect("widths match");
        assert_eq!(repo.model_epoch(), 3);

        // Width mismatches are rejected without a bump.
        let narrow = {
            let x = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
            let y = [1.0, 2.0];
            let params = GbdtParams {
                n_estimators: 2,
                ..GbdtParams::default()
            };
            let model = GbdtRegressor::fit(&x, &y, &params);
            let binned = BinnedMatrix::from_matrix(&x, params.max_bins);
            let frozen = FrozenGbdt::freeze(&model, &binned).expect("fresh model");
            (model, frozen)
        };
        assert!(matches!(
            repo.install_model(narrow.0, narrow.1),
            Err(RepositoryError::CorruptParts { .. })
        ));
        assert_eq!(repo.model_epoch(), 3);

        // The epoch survives a parts round-trip.
        let rebuilt =
            CollaborativeRepository::from_parts(repo.to_parts()).expect("self-produced parts");
        assert_eq!(rebuilt.model_epoch(), 3);
    }

    /// The version-1 layout of `repo`, built row by row as version 1
    /// stored it: each row its full encoding and its owner's signature.
    fn v1_parts(repo: &CollaborativeRepository) -> RepositoryPartsV1 {
        let parts = repo.to_parts();
        let (row_devices, x_rows) = parts
            .rows
            .iter()
            .map(|&(e, d)| {
                let (owner, sig) = &parts.devices[d as usize];
                let mut row = parts.encodings[e as usize].clone();
                row.extend_from_slice(sig);
                (owner.clone(), row)
            })
            .unzip();
        RepositoryPartsV1 {
            encoder: parts.encoder,
            signature_size: parts.signature_size,
            config: parts.config,
            devices: parts.devices,
            row_devices,
            x_rows,
            y: parts.y,
            model: parts.model,
            frozen: parts.frozen,
            epoch: parts.epoch,
        }
    }

    #[test]
    fn corrupt_parts_are_rejected() {
        let data = CostDataset::tiny(17, 4, 5);
        let mut repo = build_repo(&data, &[0, 1]);
        repo.onboard_device("d", &[10.0, 20.0]).expect("valid");
        repo.contribute("d", &data.suite[0].network, 5.0)
            .expect("enrolled");

        // Version 1 stored each row's hardware tail, so a stale tail (the
        // pre-fix inconsistency) is caught when it is upgraded.
        let mut v1 = v1_parts(&repo);
        let hw_start = v1.encoder.len();
        v1.x_rows[0][hw_start] = 999.0;
        assert!(matches!(
            v1.upgrade(),
            Err(RepositoryError::CorruptParts { .. })
        ));

        // Mismatched row/label counts.
        let mut parts = repo.to_parts();
        parts.y.push(1.0);
        assert!(matches!(
            CollaborativeRepository::from_parts(parts),
            Err(RepositoryError::CorruptParts { .. })
        ));

        // Non-finite label.
        let mut parts = repo.to_parts();
        parts.y[0] = f32::NAN;
        assert!(matches!(
            CollaborativeRepository::from_parts(parts),
            Err(RepositoryError::InvalidLatency { .. })
        ));

        // Orphan row owner: by name in version 1, by an out-of-range
        // device id in version 2.
        let mut v1 = v1_parts(&repo);
        v1.row_devices[0] = "ghost".into();
        assert!(matches!(
            v1.upgrade(),
            Err(RepositoryError::CorruptParts { .. })
        ));
        let mut parts = repo.to_parts();
        parts.rows[0].1 = 1;
        assert!(matches!(
            CollaborativeRepository::from_parts(parts),
            Err(RepositoryError::CorruptParts { .. })
        ));
    }

    #[test]
    fn hostile_parts_are_refused_without_a_panic() {
        let data = CostDataset::tiny(17, 4, 5);
        let mut repo = build_repo(&data, &[0, 1]);
        repo.onboard_device("a", &[10.0, 20.0]).expect("valid");
        repo.onboard_device("b", &[11.0, 21.0]).expect("valid");
        for device in ["a", "b"] {
            for net in &data.suite[..5] {
                repo.contribute(device, &net.network, 5.0)
                    .expect("enrolled");
            }
        }
        let parts = repo.to_parts();
        assert_eq!((parts.encodings.len(), parts.rows.len()), (5, 10));

        type Edit = fn(&mut RepositoryParts);
        let edits: [(&str, Edit); 7] = [
            ("names encoding", |p| p.rows[1].0 = p.encodings.len() as u32),
            ("names device", |p| p.rows[2].1 = u32::MAX),
            ("repeats encoding", |p| {
                let copy = p.encodings[0].clone();
                p.encodings[1] = copy;
            }),
            ("but the encoder makes", |p| {
                p.encodings[1].pop();
            }),
            ("non-finite value", |p| p.encodings[0][3] = f32::INFINITY),
            ("appears twice", |p| p.devices[1].0 = "a".into()),
            ("out of range", |p| p.signature_size = usize::MAX),
        ];
        let refusal = |parts| match CollaborativeRepository::from_parts(parts) {
            Err(RepositoryError::CorruptParts { reason }) => reason,
            other => panic!("hostile parts were not refused as corrupt: {other:?}"),
        };
        for (expected, edit) in edits {
            let mut hostile = parts.clone();
            edit(&mut hostile);
            let reason = refusal(hostile);
            assert!(reason.contains(expected), "{expected:?} not in {reason:?}");
        }
        // So is a model of the wrong width, and grid rows that are not
        // a non-empty prefix of the rows or come without a model.
        repo.fit().expect("ten rows clear min_rows");
        let fitted = repo.to_parts();
        let edits: [(&str, Edit); 5] = [
            ("model expects", |p| {
                p.signature_size = 3;
                p.devices.iter_mut().for_each(|(_, sig)| sig.push(1.0));
            }),
            ("is not in 1..=10", |p| p.grid_rows = Some(11)),
            ("is not in 1..=10", |p| p.grid_rows = Some(0)),
            ("model present without grid_rows", |p| p.grid_rows = None),
            ("grid_rows present without a model", |p| {
                p.model = None;
                p.frozen = None;
            }),
        ];
        for (expected, edit) in edits {
            let mut hostile = fitted.clone();
            edit(&mut hostile);
            let reason = refusal(hostile);
            assert!(reason.contains(expected), "{expected:?} not in {reason:?}");
        }
    }

    /// A cold fit and freeze on `train`, as a background refresh runs it.
    fn refit(repo: &CollaborativeRepository, train: &TrainingSet) -> (GbdtRegressor, FrozenGbdt) {
        let (model, grid) =
            GbdtRegressor::fit_with_grid(&train.matrix(), train.labels(), &repo.config().gbdt);
        let frozen = FrozenGbdt::freeze(&model, &grid).expect("fresh model");
        (model, frozen)
    }

    #[test]
    fn grid_rows_and_staleness_follow_the_rows_the_grid_was_cut_from() {
        let data = CostDataset::tiny(17, 8, 12);
        let sig = vec![0usize, 1, 2];
        let mut repo = build_repo(&data, &sig);
        for d in 0..8 {
            let lat: Vec<f64> = sig.iter().map(|&n| data.db.latency(d, n)).collect();
            let name = data.devices[d].model.clone();
            repo.onboard_device(name.clone(), &lat).expect("valid");
            for n in 3..data.n_networks() {
                repo.contribute(&name, &data.suite[n].network, data.db.latency(d, n))
                    .expect("enrolled");
            }
        }
        let name = data.devices[0].model.clone();
        let net = &data.suite[3].network;
        // Unfitted: no grid, and a re-enroll has none to make stale.
        repo.re_enroll(&name, &[5.0, 6.0, 7.0]).expect("enrolled");
        assert_eq!((repo.grid_rows(), repo.grid_is_stale()), (0, false));
        assert_eq!(repo.to_parts().grid_rows, None);

        repo.fit().expect("enough rows");
        let fitted = repo.n_rows();
        assert_eq!((repo.grid_rows(), repo.grid_is_stale()), (fitted, false));
        // Contributions leave the grid where it was cut.
        let clone = repo.training_set().clone();
        repo.contribute(&name, net, 9.0).expect("enrolled");
        assert_eq!(repo.grid_rows(), fitted);
        assert_eq!(repo.to_parts().grid_rows, Some(fitted));

        // A model trained on the clone is recorded as cut from its rows.
        let (model, frozen) = refit(&repo, &clone);
        repo.install_model_on(model, frozen, &clone)
            .expect("the clone's rows lead the repository's");
        assert_eq!((repo.grid_rows(), repo.grid_is_stale()), (fitted, false));

        // A re-enroll makes a fitted grid stale, and so does an install
        // trained on the signatures it replaced.
        repo.re_enroll(&name, &[6.0, 7.0, 8.0]).expect("enrolled");
        assert!(repo.grid_is_stale());
        let (model, frozen) = refit(&repo, &clone);
        repo.install_model_on(model, frozen, &clone)
            .expect("the clone's rows lead the repository's");
        assert!(repo.grid_is_stale());
        // An install trained after the re-enroll clears it; so does a fit.
        let current = repo.training_set().clone();
        let (model, frozen) = refit(&repo, &current);
        repo.install_model_on(model, frozen, &current)
            .expect("the clone is the repository's rows");
        assert_eq!(
            (repo.grid_rows(), repo.grid_is_stale()),
            (fitted + 1, false)
        );
        repo.re_enroll(&name, &[7.0, 8.0, 9.0]).expect("enrolled");
        repo.fit().expect("enough rows");
        assert!(!repo.grid_is_stale());

        // Rows this repository does not hold are refused, without a bump.
        let mut other = build_repo(&data, &sig);
        other.onboard_device("d", &[1.0, 2.0, 3.0]).expect("valid");
        for n in 3..data.n_networks() {
            other
                .contribute("d", &data.suite[n].network, 4.0)
                .expect("enrolled");
        }
        let foreign = other.training_set().clone();
        let (model, frozen) = refit(&other, &foreign);
        let epoch = repo.model_epoch();
        assert!(matches!(
            repo.install_model_on(model, frozen, &foreign),
            Err(RepositoryError::CorruptParts { .. })
        ));
        assert_eq!(repo.model_epoch(), epoch);
    }

    #[test]
    fn grid_rows_survive_the_parts_and_recompile_on_the_prefix() {
        let data = CostDataset::tiny(17, 4, 5);
        let mut repo = build_repo(&data, &[0, 1]);
        repo.onboard_device("a", &[10.0, 20.0]).expect("valid");
        for net in &data.suite[..12] {
            repo.contribute("a", &net.network, 5.0).expect("enrolled");
        }
        repo.fit().expect("twelve rows clear min_rows");
        // A second device makes the signature columns vary, so the grid
        // of every row differs from the one the model was cut on.
        repo.onboard_device("b", &[11.0, 21.0]).expect("valid");
        repo.contribute("b", &data.suite[0].network, 6.0)
            .expect("enrolled");
        let parts = repo.to_parts();
        assert_eq!(parts.grid_rows, Some(12));
        let rebuilt = CollaborativeRepository::from_parts(parts.clone()).expect("own parts");
        assert_eq!(rebuilt.grid_rows(), 12);
        // A pre-freeze snapshot recompiles on the prefix.
        let mut unfrozen = parts.clone();
        unfrozen.frozen = None;
        let recompiled = CollaborativeRepository::from_parts(unfrozen).expect("own model");
        assert_eq!(recompiled.frozen_model(), repo.frozen_model());
        // Layouts that did not record the grid cut it from every row.
        assert_eq!(parts.grid_on_all_rows().grid_rows, Some(13));
    }
}
