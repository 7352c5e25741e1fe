//! Streaming ingestion with durable logging and background model
//! refresh.
//!
//! [`IngestPipeline`] sits between the server's dispatch loop and the
//! [`ServingRepository`] for the three mutating requests (`contribute`,
//! `onboard_device`, `re_enroll`):
//!
//! 1. **Check, log, apply.** When a write-ahead log is attached
//!    ([`IngestPipeline::with_wal`]), each mutation runs forward only
//!    under the log lock: it is checked against the repository, then
//!    appended and fsynced ([`crate::wal`]), then applied — an
//!    acknowledged mutation survives a crash and is replayed on the
//!    next startup. A mutation the repository refuses returns its error
//!    at the check, before any disk I/O, so it never reaches the log.
//!    Once the check passes the apply cannot fail: the check reads only
//!    the device table, and only a logged onboarding, which also holds
//!    the log lock, changes it.
//! 2. **Background refresh.** Once `GDCM_SERVE_REFRESH_ROWS`
//!    contributions are pending, or fewer have gone quiet for
//!    [`QUIET_PERIOD`], the background refresher (spawned by the server
//!    when refresh is enabled) copies the training set under a brief
//!    read lock — shared encodings, row ids, labels and signatures
//!    ([`gdcm_core::TrainingSet`]) — and off the lock fits cold on every
//!    row, as the paper's repository refits, on its column blocks
//!    ([`gdcm_ml::GbdtRegressor::fit_factored`]). The model must clear
//!    the snapshot loader's audit + flatcheck gate, on the same blocks,
//!    before it is installed ([`ServingRepository::install_refit_on`],
//!    which records the grid as cut from the rows it copied). Readers
//!    never wait on a fit: the write guard is held for the pointer swap
//!    only.
//! 3. **Compaction.** Saving the repository as a snapshot (atomically —
//!    [`crate::snapshot::save_repository`]) and truncating the WAL
//!    bounds replay work at the next startup. It runs under the WAL lock
//!    after an accepted refresh, after an on-demand
//!    [`IngestPipeline::fit`], and inside the mutation that brings the
//!    log to [`WAL_COMPACT_RECORDS`] records. It needs no refit: a
//!    snapshot records how many leading rows its model's bin grid was
//!    cut from, and rows contributed after them load as they are. The
//!    one thing that holds it back is a stale grid (a device re-enrolled
//!    since the cut — [`gdcm_core::CollaborativeRepository::grid_is_stale`]):
//!    the save is refused, the skip is counted
//!    (`serve/compactions_deferred`) and the log keeps its records until
//!    the next refresh or fit.
//!
//! The epoch guard in [`ServingRepository`] is what makes the swap safe
//! for in-flight readers: any prediction computed against the old model
//! is discarded rather than cached stale.

use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::serving::env_usize;
use crate::wal::{self, WalRecord, WriteAheadLog};
use crate::{snapshot, ServeError, ServingRepository};
use gdcm_core::RepositoryError;
use gdcm_dnn::Network;
use gdcm_ml::{FrozenGbdt, GbdtRegressor};

/// Background-refresh configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshConfig {
    /// Contributions that trigger a background refit; 0 disables the
    /// refresher entirely.
    pub refresh_rows: usize,
}

/// Residual rounds of the [`GbdtRegressor::warm_fit`] that `perfbench`'s
/// `gbdt.warm_fit_ms` ledger stage times. The server never warm-starts:
/// every refresh is a cold fit. This goes when that stage goes.
pub const DEFAULT_WARM_BOOST: usize = 8;

/// WAL records at which a mutation compacts the log after applying,
/// bounding replay work whether or not refresh is enabled.
pub const WAL_COMPACT_RECORDS: u64 = 1024;

/// How long contributions pending below the threshold wait for another
/// before the refresher trains on them (and compacts the log) anyway.
pub const QUIET_PERIOD: Duration = Duration::from_secs(1);

/// How often the refresher checks whether a cycle is due.
const POLL: Duration = Duration::from_millis(25);

impl RefreshConfig {
    /// Reads `GDCM_SERVE_REFRESH_ROWS` (contribution threshold, 0 or
    /// unset disables). An unparsable value falls back with a structured
    /// warning, like every other `GDCM_SERVE_*` knob.
    pub fn from_env() -> Self {
        Self {
            refresh_rows: env_usize("GDCM_SERVE_REFRESH_ROWS", 0),
        }
    }
}

/// Contributions since the last completed refresh.
#[derive(Debug, Default)]
struct Backlog {
    rows: u64,
    /// When the latest of them arrived; the quiet-period trigger takes
    /// it, so one burst fires that trigger once.
    armed: Option<Instant>,
}

impl Backlog {
    fn add(&mut self, rows: u64) {
        self.rows += rows;
        self.armed = Some(Instant::now());
        self.publish();
    }

    /// Takes off the rows a cycle started from; rows that arrived
    /// during the cycle stay pending.
    fn consume(&mut self, rows: u64) {
        self.rows = self.rows.saturating_sub(rows);
        self.publish();
    }

    /// Whether rows are pending and none has arrived for
    /// [`QUIET_PERIOD`]; disarms the trigger when it fires, so a cycle
    /// that cannot fit yet (too few rows) is not retried every poll.
    fn quiet(&mut self) -> bool {
        self.rows > 0
            && self
                .armed
                .take_if(|t| t.elapsed() >= QUIET_PERIOD)
                .is_some()
    }

    fn publish(&self) {
        gdcm_obs::gauge("serve/refresh_pending_rows").set(self.rows as f64);
    }
}

/// Durable ingestion + background-refresh controller over a
/// [`ServingRepository`].
#[derive(Debug)]
pub struct IngestPipeline<'a> {
    pub(crate) serving: &'a ServingRepository,
    /// The durability layer and the path compaction writes its snapshot
    /// to; `None` runs the pipeline in-memory (still counting toward
    /// the refresh threshold).
    wal: Option<(Mutex<WriteAheadLog>, PathBuf)>,
    config: RefreshConfig,
    backlog: Mutex<Backlog>,
    stop: AtomicBool,
    refreshes: AtomicU64,
    refreshes_rejected: AtomicU64,
}

impl<'a> IngestPipeline<'a> {
    /// An in-memory pipeline: no durability, but contributions still
    /// count toward the background-refresh threshold.
    pub fn new(serving: &'a ServingRepository, config: RefreshConfig) -> Self {
        Self {
            serving,
            wal: None,
            config,
            backlog: Mutex::new(Backlog::default()),
            stop: AtomicBool::new(false),
            refreshes: AtomicU64::new(0),
            refreshes_rejected: AtomicU64::new(0),
        }
    }

    /// A durable pipeline: mutations are WAL-logged before they are
    /// applied, and compaction folds the log into a fresh snapshot at
    /// `snapshot_path`. The log should already have
    /// been opened (and its records replayed into `serving`'s
    /// repository) by the caller — see [`WriteAheadLog::open`].
    ///
    /// Records recovered at open seed the refresh backlog: a crash
    /// backlog counts toward the threshold immediately and arms the
    /// quiet-period trigger, so a refresh folds it into a snapshot
    /// instead of leaving it to be replayed on every start until enough
    /// *new* contributions arrive.
    pub fn with_wal(
        serving: &'a ServingRepository,
        wal: WriteAheadLog,
        snapshot_path: &Path,
        config: RefreshConfig,
    ) -> Self {
        let mut pipeline = Self::new(serving, config);
        let recovered = wal.pending();
        pipeline.wal = Some((Mutex::new(wal), snapshot_path.to_path_buf()));
        if pipeline.refresh_enabled() && recovered > 0 {
            pipeline.backlog.lock().add(recovered);
        }
        pipeline
    }

    /// Whether the background refresher should run at all.
    pub fn refresh_enabled(&self) -> bool {
        self.config.refresh_rows > 0
    }

    /// Whether a refresh cycle is due right now: refresh is enabled and
    /// the contribution threshold is crossed.
    pub fn refresh_due(&self) -> bool {
        self.refresh_enabled() && self.pending_rows() >= self.config.refresh_rows as u64
    }

    /// Completed background refreshes.
    pub fn refreshes(&self) -> u64 {
        self.refreshes.load(Ordering::Relaxed)
    }

    /// Refreshes rejected by the audit + flatcheck gate.
    pub fn refreshes_rejected(&self) -> u64 {
        self.refreshes_rejected.load(Ordering::Relaxed)
    }

    /// Contributions accumulated toward the next refresh.
    pub fn pending_rows(&self) -> u64 {
        self.backlog.lock().rows
    }

    /// WAL records awaiting compaction (0 when no WAL is attached).
    pub fn wal_records(&self) -> u64 {
        self.wal.as_ref().map_or(0, |(wal, _)| wal.lock().pending())
    }

    /// Contributes one measurement durably (see [`Self::onboard_device`]
    /// for the order), then counts it toward the refresh threshold.
    ///
    /// # Errors
    ///
    /// Propagates repository validation and WAL I/O errors.
    pub fn contribute(
        &self,
        device: &str,
        network: &Network,
        latency_ms: f64,
    ) -> Result<(), ServeError> {
        self.ingest(WalRecord::Contribute {
            device: device.to_string(),
            network: network.clone(),
            latency_ms,
        })
    }

    /// Enrolls a device durably: checked, then logged and fsynced, then
    /// applied (see [`gdcm_core::CollaborativeRepository::onboard_device`]).
    ///
    /// # Errors
    ///
    /// Propagates repository validation and WAL I/O errors.
    pub fn onboard_device(&self, device: &str, signature_ms: &[f64]) -> Result<(), ServeError> {
        self.ingest(WalRecord::Onboard {
            device: device.to_string(),
            signature_ms: signature_ms.to_vec(),
        })
    }

    /// Updates a device signature durably (see [`Self::onboard_device`]
    /// for the order, and
    /// [`gdcm_core::CollaborativeRepository::re_enroll`]). Drops every
    /// cached prediction.
    ///
    /// # Errors
    ///
    /// Propagates repository validation and WAL I/O errors.
    pub fn re_enroll(&self, device: &str, signature_ms: &[f64]) -> Result<(), ServeError> {
        self.ingest(WalRecord::ReEnroll {
            device: device.to_string(),
            signature_ms: signature_ms.to_vec(),
        })
    }

    /// Makes one mutation, then counts a contribution toward the refresh
    /// threshold. With a WAL it runs forward only under the log lock:
    /// check, append and fsync, apply, and compact once the log holds
    /// [`WAL_COMPACT_RECORDS`] records. The lock keeps the log order the
    /// apply order — compaction must never snapshot a mutation the log
    /// believes is still pending — and the device table the check read
    /// unchanged until the apply. Should an apply fail all the same, the
    /// record stays logged and replay skips it with a warning.
    pub(crate) fn ingest(&self, record: WalRecord) -> Result<(), ServeError> {
        match &self.wal {
            None => self.serving.apply(&record)?,
            Some((wal, snapshot_path)) => {
                let mut wal = wal.lock();
                self.serving
                    .with_repository(|repo| wal::check_record(repo, &record))?;
                wal.append(&record)?;
                let applied = self.serving.apply(&record);
                debug_assert!(applied.is_ok(), "a checked record applies: {applied:?}");
                applied?;
                if wal.pending() >= WAL_COMPACT_RECORDS {
                    self.compact_locked(&mut wal, snapshot_path);
                }
            }
        }
        if self.refresh_enabled() && matches!(record, WalRecord::Contribute { .. }) {
            self.backlog.lock().add(1);
        }
        Ok(())
    }

    /// Asks the refresher loop to exit after its current cycle.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// The background refresher loop: runs a cycle when
    /// [`Self::refresh_due`], or when contributions below the threshold
    /// have gone quiet for [`QUIET_PERIOD`]. Run on a dedicated thread
    /// by [`crate::server::serve`] when refresh is enabled. A
    /// gate-rejected refresh is logged and the old model keeps serving.
    /// The 25 ms poll bounds refresh latency; a `Condvar` would buy
    /// nothing, since a refit takes orders of magnitude longer.
    pub fn run(&self) {
        while !self.stop.load(Ordering::Acquire) {
            if !(self.refresh_due() || self.backlog.lock().quiet()) {
                std::thread::park_timeout(POLL);
                continue;
            }
            match self.refresh_once() {
                Ok(true) => {}
                // Too few rows to fit: wait a poll rather than copy the
                // training set again at once.
                Ok(false) => std::thread::park_timeout(POLL),
                Err(e) => gdcm_obs::event(
                    "refresh_rejected",
                    "serve",
                    &[("error", gdcm_obs::FieldValue::Str(e.to_string()))],
                ),
            }
        }
    }

    /// One refresh cycle: copy the training set under a brief read
    /// lock, then off-lock fit cold on every row, freeze and audit on
    /// one view of its column blocks, then swap and compact. No step
    /// expands the rows into a dense matrix. Returns `Ok(false)` when
    /// there is not yet enough data to fit.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::AuditRejected`] when the refreshed model
    /// fails the freeze or the audit + flatcheck gate (the old model
    /// keeps serving). A failed compaction is logged, not returned: the
    /// swap stands and the log keeps its records.
    pub fn refresh_once(&self) -> Result<bool, ServeError> {
        let _span = gdcm_obs::span!("serve/refresh");
        let take = self.pending_rows();
        // Copy what training needs under the read lock — shared
        // encodings, ids, labels and signatures, not the matrix — and
        // fit off-lock.
        let (train, config) = self
            .serving
            .with_repository(|repo| (repo.training_set().clone(), repo.config().clone()));
        let gbdt = config.gbdt;
        if train.n_rows() < config.min_rows {
            return Ok(false);
        }
        let started = Instant::now();
        let x = train.factored();
        let y = train.labels();
        let (model, grid) = GbdtRegressor::fit_factored(&x, y, &gbdt);
        // A freeze failure is handled exactly like an audit rejection —
        // count it, consume the pending rows, keep serving the old
        // model — rather than panicking the refresher thread (which
        // would propagate at scope join and take the server down).
        let frozen = match FrozenGbdt::freeze(&model, &grid) {
            Ok(frozen) => frozen,
            Err(e) => {
                return Err(self.reject_refresh(
                    take,
                    ServeError::AuditRejected {
                        diagnostics: vec![format!("freeze: {e}")],
                    },
                ));
            }
        };
        // The same gate the snapshot loader runs: a refreshed model
        // must clear the audit + flatcheck passes *before* it swaps in.
        // The audit rebuilds the grid from the same blocks its own way.
        if let Err(e) =
            snapshot::audit_model_artifacts("serve/refresh", &model, &gbdt, &x, y, Some(&frozen))
        {
            return Err(self.reject_refresh(take, e));
        }
        // Free the refit's working set first, so the compaction's
        // snapshot save does not stack on it.
        drop((x, grid));
        let epoch = self.serving.install_refit_on(model, frozen, &train)?;
        let fit_ms = started.elapsed().as_secs_f64() * 1e3;
        self.backlog.lock().consume(take);
        self.refreshes.fetch_add(1, Ordering::Relaxed);
        gdcm_obs::counter("serve/refreshes").incr();
        gdcm_obs::histogram("serve/refresh_fit_ms").record(fit_ms);
        gdcm_obs::event(
            "refresh_swapped",
            "serve",
            &[
                ("epoch", gdcm_obs::FieldValue::U64(epoch)),
                ("rows", gdcm_obs::FieldValue::U64(y.len() as u64)),
                ("fit_ms", gdcm_obs::FieldValue::F64(fit_ms)),
            ],
        );
        if let Some((wal, snapshot_path)) = &self.wal {
            self.compact_locked(&mut wal.lock(), snapshot_path);
        }
        Ok(true)
    }

    /// Bookkeeping for a refresh the gate (audit, flatcheck, or freeze)
    /// refused: count the rejection and consume the pending rows —
    /// retrying the same rows in a hot loop would reject the same way.
    /// Returns `error` back for propagation.
    fn reject_refresh(&self, take: u64, error: ServeError) -> ServeError {
        self.refreshes_rejected.fetch_add(1, Ordering::Relaxed);
        gdcm_obs::counter("serve/refreshes_rejected").incr();
        self.backlog.lock().consume(take);
        error
    }

    /// Fits the repository's model on demand (see
    /// [`ServingRepository::fit`]), then folds the result into a fresh
    /// snapshot. The WAL records rows, not models, so without the
    /// compaction an acknowledged fit would silently revert to the
    /// snapshot's model on crash-and-replay. The WAL lock is held
    /// across fit + compact: every pipeline mutation also applies under
    /// it, so the snapshot captures exactly the state the fit trained
    /// on. A compaction failure is logged rather than returned: the fit
    /// is applied and serving, and its durability catches up at the
    /// next successful compaction.
    ///
    /// # Errors
    ///
    /// Propagates repository fit errors (e.g. not enough data).
    pub fn fit(&self) -> Result<(), ServeError> {
        let Some((wal, snapshot_path)) = &self.wal else {
            return self.serving.fit();
        };
        let mut wal = wal.lock();
        self.serving.fit()?;
        self.compact_locked(&mut wal, snapshot_path);
        Ok(())
    }

    /// Folds the WAL into a fresh snapshot at `snapshot_path` — save
    /// (atomic) then truncate — with the WAL lock already held, so no
    /// mutation lands between the snapshot capture and the truncation.
    /// A stale grid's refused save skips the compaction (counted in
    /// `serve/compactions_deferred`); any other failure is logged as a
    /// `compaction_failed` event. Either way the log keeps every record
    /// the snapshot would have folded in.
    fn compact_locked(&self, wal: &mut WriteAheadLog, snapshot_path: &Path) {
        match self
            .serving
            .save_snapshot(snapshot_path)
            .and_then(|()| wal.compact())
        {
            Ok(()) => {}
            Err(ServeError::Repository(RepositoryError::StaleGrid)) => {
                gdcm_obs::counter("serve/compactions_deferred").incr();
            }
            Err(e) => gdcm_obs::event(
                "compaction_failed",
                "serve",
                &[("error", gdcm_obs::FieldValue::Str(e.to_string()))],
            ),
        }
    }
}
