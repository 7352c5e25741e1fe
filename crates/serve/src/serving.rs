//! The cached, thread-safe serving façade over the repository.
//!
//! ## Bit-identity contract
//!
//! Every cached answer is bit-identical to what the plain
//! `CollaborativeRepository::predict` path returns for the same inputs:
//!
//! * the encoding cache stores the exact `Vec<f32>` that
//!   `NetworkEncoder::encode` (a deterministic function) produces;
//! * the prediction cache stores the exact `f64` a cold call computed;
//! * a miss scores through `CollaborativeRepository::predict_encoded`,
//!   the same function `predict` calls, on the borrowed device
//!   signature.
//!
//! Caches only skip work; they never change it. There is one scoring
//! path: a client pricing many networks pipelines `Predict` requests,
//! and each one takes the same lookup-then-score route.
//!
//! ## Cache keys
//!
//! Networks are keyed by a 64-bit FNV-style hash of their structure
//! ([`network_hash`]) — a *content* hash, so structurally identical
//! networks share cache entries no matter how the caller built them. It
//! folds a whole word per step: one step per integer the graph's `Hash`
//! impl writes, and for a name its length and then its zero-padded
//! 8-byte words, the step [`wire_hash`] uses. Predictions are keyed by
//! `(device name, network hash)` and invalidated whenever the model or
//! a device signature changes ([`ServingRepository::fit`],
//! [`ServingRepository::install_refit`],
//! [`ServingRepository::install_refit_on`], and a re-enrollment applied
//! through the [`IngestPipeline`](crate::IngestPipeline)).
//!
//! [`wire_hash`]: crate::protocol::wire::fast::wire_hash
//!
//! ## Epoch-guarded inserts
//!
//! A prediction is computed under the repository *read* guard, which is
//! released before the cache insert (holding it across the insert would
//! serialize readers on the cache mutex). That leaves a window where a
//! concurrent fit/re-enroll can clear the cache *before* the insert
//! lands — which used to leave one permanently stale entry. Every
//! computed value therefore carries the model epoch it was computed
//! under, and the insert is discarded (counter
//! `serve/pred_cache_stale_discard`) unless the epoch still matches the
//! cache's own epoch mirror at publish time.

use gdcm_core::{CollaborativeRepository, RepositoryError, TrainingSet};
use gdcm_dnn::Network;
use gdcm_ml::{FrozenGbdt, GbdtRegressor};
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::lru::LruCache;
use crate::protocol::wire::fast::{fnv_word, fnv_words, FNV_OFFSET};
use crate::wal::{self, WalRecord};
use crate::{snapshot, ServeError};

/// Default encoding-cache capacity (entries).
pub const DEFAULT_ENC_CACHE: usize = 1024;
/// Default prediction-cache capacity (entries).
pub const DEFAULT_PRED_CACHE: usize = 8192;

/// Serving-layer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Encoding-cache capacity in entries; 0 disables the cache.
    pub encoding_cache: usize,
    /// Prediction-cache capacity in entries; 0 disables the cache.
    pub prediction_cache: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            encoding_cache: DEFAULT_ENC_CACHE,
            prediction_cache: DEFAULT_PRED_CACHE,
        }
    }
}

impl ServeConfig {
    /// Reads the cache knobs from `GDCM_SERVE_ENC_CACHE` and
    /// `GDCM_SERVE_PRED_CACHE` (entry counts; 0 disables; unset falls
    /// back to the defaults silently, set-but-unparsable falls back
    /// with a structured warning — see `env_usize`).
    pub fn from_env() -> Self {
        Self {
            encoding_cache: env_usize("GDCM_SERVE_ENC_CACHE", DEFAULT_ENC_CACHE),
            prediction_cache: env_usize("GDCM_SERVE_PRED_CACHE", DEFAULT_PRED_CACHE),
        }
    }
}

/// Reads one `usize` knob from the environment. Unset is the normal
/// case and stays silent; a *set but unparsable* value is an operator
/// mistake, so it emits a `config_warning` event naming the variable,
/// the rejected value, and the fallback used, and bumps the
/// `serve/config_env_invalid` counter before falling back.
pub(crate) fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(v) => v,
            Err(_) => {
                gdcm_obs::counter("serve/config_env_invalid").incr();
                gdcm_obs::event(
                    "config_warning",
                    "serve",
                    &[
                        ("var", gdcm_obs::FieldValue::Str(name.to_string())),
                        ("value", gdcm_obs::FieldValue::Str(raw)),
                        ("fallback", gdcm_obs::FieldValue::U64(default as u64)),
                    ],
                );
                default
            }
        },
    }
}

/// Cache counters: the repository's lifetime totals
/// ([`ServingRepository::cache_stats`]), or the server's tally of one
/// request's own lookups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Encoding-cache hits.
    pub encoding_hits: u64,
    /// Encoding-cache misses (encodings computed).
    pub encoding_misses: u64,
    /// Prediction-cache hits.
    pub prediction_hits: u64,
    /// Prediction-cache misses (predictions computed).
    pub prediction_misses: u64,
}

/// A deterministic 64-bit FNV-1a-style [`std::hash::Hasher`] that
/// folds a word per step. The std `DefaultHasher` is randomly seeded per
/// process; cache keys need the same bits for the same network on every
/// run. Each integer write is one [`fnv_word`] step. A byte write
/// folds its length, then its zero-padded 8-byte words, like
/// [`wire_hash`](crate::protocol::wire::fast::wire_hash) — so `write`
/// calls of different lengths cannot run together.
struct WordFnv(u64);

impl std::hash::Hasher for WordFnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv_words(fnv_word(self.0, bytes.len() as u64), bytes);
    }

    fn write_u8(&mut self, i: u8) {
        self.0 = fnv_word(self.0, u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.0 = fnv_word(self.0, u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.0 = fnv_word(self.0, u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = fnv_word(self.0, i);
    }

    fn write_usize(&mut self, i: usize) {
        self.0 = fnv_word(self.0, i as u64);
    }
}

/// Counts one cache event in the lifetime counter and in the caller's
/// per-request tally.
fn count(counter: &AtomicU64, tally: &mut u64) {
    counter.fetch_add(1, Ordering::Relaxed);
    *tally += 1;
}

/// 64-bit word-at-a-time FNV content hash over a network's structure
/// (name, nodes, operators, shapes, wiring) via the graph's `Hash`
/// impl — orders of magnitude cheaper than serializing the graph, which
/// matters because every cache lookup pays this cost.
pub fn network_hash(network: &Network) -> u64 {
    use std::hash::Hash;
    let mut hasher = WordFnv(FNV_OFFSET);
    network.hash(&mut hasher);
    hasher.0
}

/// A thread-safe, caching wrapper around [`CollaborativeRepository`].
///
/// All methods take `&self`; reads share an `RwLock` read guard, writes
/// ([`ServingRepository::fit`] …) take the write guard, so a single
/// instance can back every server worker thread. Devices and rows are
/// added only through an [`IngestPipeline`](crate::IngestPipeline),
/// which logs each mutation before it applies it.
#[derive(Debug)]
pub struct ServingRepository {
    repo: RwLock<CollaborativeRepository>,
    encodings: Mutex<LruCache<u64, Arc<Vec<f32>>>>,
    predictions: Mutex<LruCache<(String, u64), f64>>,
    /// Canonical-wire-byte hash → structural [`network_hash`]. The
    /// binary protocol's fast lane: a repeated `Predict` payload can be
    /// answered from the prediction cache without decoding the network
    /// at all. Unlike `predictions`, this never needs invalidation —
    /// equal bytes always decode to equal graphs, so the mapping is a
    /// pure function of the wire encoding.
    wire_index: Mutex<LruCache<u64, u64>>,
    /// Mirror of the repository's model epoch, advanced *under the
    /// `predictions` mutex* whenever a writer invalidates the cache.
    /// Readers compare the epoch they computed under (captured while
    /// holding the repository read guard) against this mirror before
    /// publishing — a mismatch means a fit/re-enroll landed in between
    /// and the value must be discarded, never inserted stale. A mirror
    /// is needed because reading the repository epoch while holding the
    /// `predictions` mutex would invert the writers' `repo → predictions`
    /// lock order and deadlock.
    cache_epoch: AtomicU64,
    enc_hits: AtomicU64,
    enc_misses: AtomicU64,
    pred_hits: AtomicU64,
    pred_misses: AtomicU64,
}

impl ServingRepository {
    /// Wraps a repository with the given cache configuration.
    pub fn new(repo: CollaborativeRepository, config: ServeConfig) -> Self {
        let epoch = repo.model_epoch();
        Self {
            repo: RwLock::new(repo),
            encodings: Mutex::new(LruCache::new(config.encoding_cache)),
            predictions: Mutex::new(LruCache::new(config.prediction_cache)),
            wire_index: Mutex::new(LruCache::new(config.prediction_cache)),
            cache_epoch: AtomicU64::new(epoch),
            enc_hits: AtomicU64::new(0),
            enc_misses: AtomicU64::new(0),
            pred_hits: AtomicU64::new(0),
            pred_misses: AtomicU64::new(0),
        }
    }

    /// Loads an audited snapshot from `path` and wraps it with the
    /// environment cache configuration ([`ServeConfig::from_env`]).
    ///
    /// # Errors
    ///
    /// See [`snapshot::load_repository`].
    pub fn from_snapshot_path(path: &Path) -> Result<Self, ServeError> {
        let repo = snapshot::load_repository(path)?;
        Ok(Self::new(repo, ServeConfig::from_env()))
    }

    /// Saves the current repository state as a snapshot at `path`.
    ///
    /// # Errors
    ///
    /// See [`snapshot::save_repository`].
    pub fn save_snapshot(&self, path: &Path) -> Result<(), ServeError> {
        snapshot::save_repository(&self.repo.read(), path)
    }

    /// Runs `f` against the wrapped repository under the read lock
    /// (uncached access, used by tests and the probe client).
    pub fn with_repository<T>(&self, f: impl FnOnce(&CollaborativeRepository) -> T) -> T {
        f(&self.repo.read())
    }

    /// Returns the cached encoding for `hash`, encoding `network` on a
    /// miss. The repository read guard is held by the caller so the
    /// encoder cannot change underneath the cache.
    fn cached_encoding(
        &self,
        repo: &CollaborativeRepository,
        hash: u64,
        network: &Network,
        tally: &mut CacheStats,
    ) -> Arc<Vec<f32>> {
        if let Some(enc) = self.encodings.lock().get(&hash) {
            count(&self.enc_hits, &mut tally.encoding_hits);
            return Arc::clone(enc);
        }
        count(&self.enc_misses, &mut tally.encoding_misses);
        let enc = Arc::new(repo.encoder().encode(network));
        self.encodings.lock().insert(hash, Arc::clone(&enc));
        enc
    }

    /// Predicts the latency (ms) of `network` on an enrolled device,
    /// serving from the prediction cache when possible.
    ///
    /// # Errors
    ///
    /// Same contract as [`CollaborativeRepository::predict`].
    pub fn predict(&self, device: &str, network: &Network) -> Result<f64, ServeError> {
        self.predict_hooked(device, network, || {})
    }

    /// [`ServingRepository::predict`] with a test hook invoked between
    /// releasing the repository read guard and publishing the computed
    /// value to the prediction cache — the window where a concurrent
    /// fit/re-enroll can make the value stale. The race-regression test
    /// forces that interleaving here; production code calls `predict`,
    /// which passes a no-op.
    #[doc(hidden)]
    pub fn predict_hooked(
        &self,
        device: &str,
        network: &Network,
        between_compute_and_insert: impl FnOnce(),
    ) -> Result<f64, ServeError> {
        let mut tally = CacheStats::default();
        let hash = network_hash(network);
        self.predict_tallied(
            device,
            network,
            hash,
            &mut tally,
            between_compute_and_insert,
        )
    }

    /// [`ServingRepository::predict_hooked`] for a network whose
    /// structural `hash` the caller already computed, adding this
    /// call's cache lookups to `tally`.
    pub(crate) fn predict_tallied(
        &self,
        device: &str,
        network: &Network,
        hash: u64,
        tally: &mut CacheStats,
        between_compute_and_insert: impl FnOnce(),
    ) -> Result<f64, ServeError> {
        let key = (device.to_string(), hash);
        {
            // Request-trace stages are free when no context is active.
            let _stage = gdcm_obs::reqtrace::stage("cache_lookup");
            if let Some(&value) = self.predictions.lock().get(&key) {
                count(&self.pred_hits, &mut tally.prediction_hits);
                return Ok(value);
            }
        }
        count(&self.pred_misses, &mut tally.prediction_misses);
        let (value, epoch) = {
            let _stage = gdcm_obs::reqtrace::stage("predict");
            let repo = self.repo.read();
            let hw = repo
                .device_signature(device)
                .ok_or_else(|| RepositoryError::UnknownDevice(device.to_string()))?;
            let enc = self.cached_encoding(&repo, hash, network, tally);
            // Capture the epoch while still holding the read guard: it
            // names exactly the model this value came from.
            (repo.predict_encoded(&enc, hw)?, repo.model_epoch())
        };
        between_compute_and_insert();
        let mut cache = self.predictions.lock();
        if self.cache_epoch.load(Ordering::Acquire) == epoch {
            cache.insert(key, value);
        } else {
            gdcm_obs::counter("serve/pred_cache_stale_discard").incr();
        }
        Ok(value)
    }

    /// Answers a `Predict` straight from the prediction cache, keyed by
    /// a hash of the network's *canonical wire bytes* — the binary
    /// protocol's fast lane. Returns `Some` only when both the wire
    /// index and the prediction cache hit; any miss sends the caller
    /// down the ordinary decode-and-dispatch path, which repopulates
    /// both layers. Hits perform exactly the cache-hit accounting of
    /// [`ServingRepository::predict`], so telemetry cannot tell the
    /// lanes apart.
    pub fn predict_wire_hit(&self, device: &str, wire_hash: u64) -> Option<f64> {
        let hash = *self.wire_index.lock().get(&wire_hash)?;
        let _stage = gdcm_obs::reqtrace::stage("cache_lookup");
        let key = (device.to_string(), hash);
        let value = *self.predictions.lock().get(&key)?;
        self.pred_hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Records that a canonical wire payload hashing to `wire_hash`
    /// decodes to `network`, so future [`predict_wire_hit`] probes for
    /// the same bytes can skip the decode. Like the prediction cache,
    /// the index is LRU-bounded and disabled at capacity 0.
    ///
    /// [`predict_wire_hit`]: ServingRepository::predict_wire_hit
    pub fn index_wire_hash(&self, wire_hash: u64, network: &Network) {
        self.index_wire(wire_hash, network_hash(network));
    }

    /// [`ServingRepository::index_wire_hash`] with the network's
    /// structural hash already computed — the server's miss path, which
    /// hashes each decoded network once for the index and the caches.
    pub(crate) fn index_wire(&self, wire_hash: u64, hash: u64) {
        self.wire_index.lock().insert(wire_hash, hash);
    }

    /// Predicts for an unenrolled device from raw signature latencies.
    /// Never cached: the device has no stable identity to key on.
    ///
    /// # Errors
    ///
    /// Same contract as
    /// [`CollaborativeRepository::predict_for_new_device`].
    pub fn predict_for_new_device(
        &self,
        signature_latencies_ms: &[f64],
        network: &Network,
    ) -> Result<f64, ServeError> {
        Ok(self
            .repo
            .read()
            .predict_for_new_device(signature_latencies_ms, network)?)
    }

    /// Applies a logged mutation under the write guard (see
    /// `wal::apply_record`). A re-enrollment also drops every cached
    /// prediction: the device's feature vector — and after the next fit,
    /// potentially every prediction — changes. Onboardings and
    /// contributions leave the model, and so the cache, as it is.
    pub(crate) fn apply(&self, record: &WalRecord) -> Result<(), ServeError> {
        if let WalRecord::ReEnroll { .. } = record {
            self.change_model(|repo| wal::apply_record(repo, record))?;
        } else {
            wal::apply_record(&mut self.repo.write(), record)?;
        }
        Ok(())
    }

    /// Refits the model on everything contributed so far and drops the
    /// now-stale prediction cache.
    ///
    /// # Errors
    ///
    /// See [`CollaborativeRepository::fit`].
    pub fn fit(&self) -> Result<(), ServeError> {
        self.change_model(CollaborativeRepository::fit)?;
        Ok(())
    }

    /// Installs an externally fitted model pair trained on the current
    /// rows. The expensive training happened off-lock; this only takes
    /// the write guard for the pointer swap plus the cache
    /// invalidation, so concurrent readers never block behind a refit.
    /// Returns the new model epoch.
    ///
    /// # Errors
    ///
    /// See [`CollaborativeRepository::install_model`].
    pub fn install_refit(
        &self,
        model: GbdtRegressor,
        frozen: FrozenGbdt,
    ) -> Result<u64, ServeError> {
        self.change_model(|repo| repo.install_model(model, frozen))
    }

    /// [`ServingRepository::install_refit`] for a pair trained on
    /// `trained_on`, a clone of the training set taken earlier — the
    /// background refresh's atomic swap (see
    /// [`CollaborativeRepository::install_model_on`]).
    ///
    /// # Errors
    ///
    /// See [`CollaborativeRepository::install_model_on`].
    pub fn install_refit_on(
        &self,
        model: GbdtRegressor,
        frozen: FrozenGbdt,
        trained_on: &TrainingSet,
    ) -> Result<u64, ServeError> {
        self.change_model(|repo| repo.install_model_on(model, frozen, trained_on))
    }

    /// Applies a mutation that can change what `predict` answers under
    /// the write guard, then drops the now-stale prediction cache.
    /// Returns the new model epoch.
    fn change_model(
        &self,
        mutate: impl FnOnce(&mut CollaborativeRepository) -> Result<(), RepositoryError>,
    ) -> Result<u64, ServeError> {
        let epoch = {
            let mut repo = self.repo.write();
            mutate(&mut repo)?;
            repo.model_epoch()
        };
        self.invalidate_predictions(epoch);
        Ok(epoch)
    }

    /// Drops every cached prediction and advances the cache-epoch
    /// mirror to `epoch` (the repository epoch the caller just
    /// produced under the write guard). `fetch_max`, not `store`: two
    /// concurrent writers release the write guard in a known order but
    /// may reach this point in the opposite one, and the mirror must
    /// never move backwards or a reader from the older model could
    /// publish a stale value.
    fn invalidate_predictions(&self, epoch: u64) {
        let mut cache = self.predictions.lock();
        self.cache_epoch.fetch_max(epoch, Ordering::AcqRel);
        cache.clear();
        gdcm_obs::counter("serve/pred_cache_invalidations").incr();
    }

    /// The wrapped repository's current model epoch (see
    /// [`CollaborativeRepository::model_epoch`]).
    pub fn model_epoch(&self) -> u64 {
        self.repo.read().model_epoch()
    }

    /// Number of enrolled devices.
    pub fn n_devices(&self) -> usize {
        self.repo.read().n_devices()
    }

    /// Number of contributed training rows.
    pub fn n_rows(&self) -> usize {
        self.repo.read().n_rows()
    }

    /// Whether a fitted model is available.
    pub fn is_fitted(&self) -> bool {
        self.repo.read().is_fitted()
    }

    /// Whether a compiled (frozen SoA) model backs the prediction
    /// paths. True exactly when [`ServingRepository::is_fitted`] is:
    /// every successful fit — and every accepted snapshot — carries the
    /// translation-validated frozen artifact.
    pub fn is_frozen(&self) -> bool {
        self.repo.read().frozen_model().is_some()
    }

    /// Names of enrolled devices, sorted.
    pub fn device_names(&self) -> Vec<String> {
        self.repo
            .read()
            .device_names()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            encoding_hits: self.enc_hits.load(Ordering::Relaxed),
            encoding_misses: self.enc_misses.load(Ordering::Relaxed),
            prediction_hits: self.pred_hits.load(Ordering::Relaxed),
            prediction_misses: self.pred_misses.load(Ordering::Relaxed),
        }
    }
}
