//! Versioned snapshot persistence for the collaborative repository.
//!
//! A snapshot is the full serializable repository state
//! ([`gdcm_core::RepositoryParts`]) wrapped in a `{format, version}`
//! envelope so other layouts are detected instead of misparsed. The
//! envelope is read first; `parts` is then deserialized, from the same
//! parsed document, in the layout its version names.
//!
//! - **Version 3** (written by this build) stores each distinct network
//!   encoding once. It holds the encoder and config, the enrolled
//!   devices (name-sorted, with their signatures), the distinct
//!   encodings in first-seen row order, every training row as an
//!   (encoding index, device index) pair, the labels, and the model,
//!   the number of leading rows its bin grid was cut from (*g*,
//!   `grid_rows`), the frozen model and the epoch.
//! - **Version 2** is version 3 without *g*. Its model was cut from
//!   every row, so it loads with *g* = all rows.
//! - **Version 1** stored every row in full (encoding followed by its
//!   owner's signature) with its owner's name. It still loads: its rows
//!   are interned on load ([`gdcm_core::RepositoryPartsV1::upgrade`]),
//!   which refuses a row whose hardware tail disagrees with its owner's
//!   signature or whose owner is not enrolled, and *g* is all rows.
//!
//! Saving any of them again writes version 3. A repository whose grid is
//! stale ([`CollaborativeRepository::grid_is_stale`]: a device
//! re-enrolled since the cut) is not saved at all
//! ([`gdcm_core::RepositoryError::StaleGrid`]): no prefix of its rows
//! rebuilds the grid, so the file could not load.
//!
//! Loading is defensive twice over, because a snapshot file is exactly
//! the kind of input the ingestion-validation policy exists for:
//!
//! 1. [`gdcm_core::CollaborativeRepository::from_parts`] replays every
//!    structural invariant (encoding widths and finiteness, distinct
//!    encodings, ids in range, latency validity, *g* within the rows).
//! 2. When the snapshot carries a fitted model, the `gdcm-audit`
//!    ensemble + dataset passes run against the first *g* stored rows
//!    and labels, rebuilding the bin grid from them rather than reading
//!    it from the model, and the flatcheck pass translation-validates
//!    the compiled (frozen) model the prediction paths will actually
//!    run; any *error*-severity diagnostic rejects the snapshot
//!    ([`crate::ServeError::AuditRejected`]). Warnings are logged
//!    through `gdcm-obs` but do not block serving. Rows after *g* get
//!    the structural checks of step 1 only.
//!
//! The audit reads those rows as the training set's two column blocks
//! ([`gdcm_core::TrainingSet::prefix_factored`]): each distinct encoding
//! and each device's signature once, plus two ids per row. No step of
//! a load expands the rows into a dense matrix; the audit's reference
//! probe expands its first few hundred rows only.
//!
//! A load is timed stage by stage under the `serve/snapshot_load` span:
//! `serve/snapshot_parse` (read and parse the file),
//! `serve/snapshot_parts` (rebuild and validate the repository) and
//! `serve/snapshot_audit`, which splits into the audit's own
//! `audit/model` (with its `audit/grid` and `audit/dataset` stages) and
//! `audit/flatcheck`.

use gdcm_audit::DatasetLints;
use gdcm_core::{CollaborativeRepository, RepositoryError, RepositoryParts, RepositoryPartsV1};
use gdcm_ml::{FactoredMatrix, FrozenGbdt, GbdtParams, GbdtRegressor};
use serde::{Deserialize, Serialize};
use std::io::{self, Write};
use std::path::Path;

use crate::ServeError;

/// Envelope tag identifying the snapshot family.
pub const SNAPSHOT_FORMAT: &str = "gdcm-repository-snapshot";
/// Current snapshot layout version. Bump on any incompatible change to
/// [`RepositoryParts`] or the envelope.
pub const SNAPSHOT_VERSION: u32 = 3;

/// A versioned, serializable repository snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RepositorySnapshot {
    /// Always [`SNAPSHOT_FORMAT`].
    pub format: String,
    /// Layout version, [`SNAPSHOT_VERSION`] for snapshots this build
    /// writes.
    pub version: u32,
    /// The repository state proper.
    pub parts: RepositoryParts,
}

/// A snapshot document as read: `parts` stays a parsed but untyped
/// JSON value until the envelope says which layout it has.
#[derive(Deserialize)]
struct Envelope {
    format: String,
    version: u32,
    parts: serde_json::Value,
}

impl RepositorySnapshot {
    /// Captures the current state of a repository.
    pub fn capture(repo: &CollaborativeRepository) -> Self {
        Self {
            format: SNAPSHOT_FORMAT.to_string(),
            version: SNAPSHOT_VERSION,
            parts: repo.to_parts(),
        }
    }

    /// Parses a snapshot document: the envelope first, then `parts` in
    /// the layout its version names. Version-1 and version-2 parts are
    /// upgraded to the current layout, so the result is always a
    /// [`SNAPSHOT_VERSION`] snapshot.
    fn from_json(json: &str) -> Result<Self, ServeError> {
        let json_error = |e: serde_json::Error| ServeError::Json(e.to_string());
        let envelope: Envelope = serde_json::from_str(json).map_err(json_error)?;
        if envelope.format != SNAPSHOT_FORMAT {
            return Err(ServeError::BadSnapshot {
                reason: format!("format {:?} is not {SNAPSHOT_FORMAT:?}", envelope.format),
            });
        }
        let parts = match envelope.version {
            SNAPSHOT_VERSION => serde_json::from_value(envelope.parts).map_err(json_error)?,
            2 => serde_json::from_value::<RepositoryParts>(envelope.parts)
                .map_err(json_error)?
                .grid_on_all_rows(),
            1 => serde_json::from_value::<RepositoryPartsV1>(envelope.parts)
                .map_err(json_error)?
                .upgrade()?,
            other => {
                return Err(ServeError::BadSnapshot {
                    reason: format!(
                        "version {other} is not a supported version (1 to {SNAPSHOT_VERSION})"
                    ),
                });
            }
        };
        Ok(Self {
            format: envelope.format,
            version: SNAPSHOT_VERSION,
            parts,
        })
    }

    /// Validates the envelope, rebuilds the repository (replaying the
    /// core ingestion validation), and runs the audit passes on the
    /// trained model, if any.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadSnapshot`] on an unknown format or version,
    /// [`ServeError::Repository`] when structural validation fails, and
    /// [`ServeError::AuditRejected`] when `gdcm-audit` finds errors.
    pub fn into_repository(self) -> Result<CollaborativeRepository, ServeError> {
        if self.format != SNAPSHOT_FORMAT {
            return Err(ServeError::BadSnapshot {
                reason: format!("format {:?} is not {SNAPSHOT_FORMAT:?}", self.format),
            });
        }
        if self.version != SNAPSHOT_VERSION {
            return Err(ServeError::BadSnapshot {
                reason: format!(
                    "version {} is not the supported version {SNAPSHOT_VERSION}",
                    self.version
                ),
            });
        }
        let repo = {
            let _span = gdcm_obs::span!("serve/snapshot_parts");
            CollaborativeRepository::from_parts(self.parts)?
        };
        audit_repository(&repo)?;
        gdcm_obs::counter("serve/snapshots_loaded").incr();
        Ok(repo)
    }
}

/// Runs the `gdcm-audit` ensemble + dataset passes over a repository's
/// fitted model and the rows its grid was cut from
/// ([`CollaborativeRepository::grid_rows`]), read as the column blocks
/// of those rows ([`gdcm_core::TrainingSet::prefix_factored`]), then
/// the flatcheck pass over its compiled (frozen) model. Error-severity
/// findings reject the repository; warnings are re-emitted as
/// `gdcm-obs` events.
///
/// An unfitted repository (no model yet) has no ensemble to audit and
/// passes vacuously — `from_parts` has already validated its rows.
fn audit_repository(repo: &CollaborativeRepository) -> Result<(), ServeError> {
    let Some(model) = repo.model() else {
        return Ok(());
    };
    let _span = gdcm_obs::span!("serve/snapshot_audit");
    let train = repo.training_set();
    let rows = repo.grid_rows();
    audit_model_artifacts(
        "serve/snapshot",
        model,
        &repo.config().gbdt,
        &train.prefix_factored(rows),
        &train.labels()[..rows],
        repo.frozen_model(),
    )
    .inspect_err(|_| gdcm_obs::counter("serve/snapshots_rejected").incr())
}

/// The audit + flatcheck gate shared by the snapshot loader and the
/// background refresh controller: runs the `gdcm-audit` ensemble +
/// dataset passes over a trained model and the column blocks of its
/// training rows, then the flatcheck pass over the compiled (frozen)
/// artifact when present. Error-severity findings return
/// [`ServeError::AuditRejected`]; warnings are re-emitted as `gdcm-obs`
/// events. Call sites own their rejection counters.
pub(crate) fn audit_model_artifacts(
    context: &'static str,
    model: &GbdtRegressor,
    gbdt: &GbdtParams,
    x: &FactoredMatrix<'_>,
    y: &[f32],
    frozen: Option<&FrozenGbdt>,
) -> Result<(), ServeError> {
    // The pipeline lint profile: padded layer-wise encodings make
    // constant and duplicate columns by design. Every prediction the
    // repository serves runs the frozen model, so an artifact set is
    // only accepted once that exact compiled form is certified
    // equivalent to the pointer-tree model it claims to compile.
    let report = gdcm_audit::audit_trained_artifacts(
        context,
        model,
        frozen,
        Some(gbdt),
        x,
        y,
        &DatasetLints::pipeline(),
    );
    if report.error_count() > 0 {
        return Err(ServeError::AuditRejected {
            diagnostics: report.diagnostics.iter().map(|d| d.to_string()).collect(),
        });
    }
    for warning in &report.diagnostics {
        gdcm_obs::event(
            "model_audit_warning",
            "serve",
            &[
                ("context", gdcm_obs::FieldValue::Str(context.to_string())),
                ("diagnostic", gdcm_obs::FieldValue::Str(warning.to_string())),
            ],
        );
    }
    Ok(())
}

/// Saves a repository snapshot as JSON at `path`, atomically: the bytes
/// are written and fsynced to a `.tmp` sibling, then renamed over the
/// destination, so a crash mid-save can never leave a torn file where a
/// valid snapshot used to be — readers observe either the old snapshot
/// or the new one, nothing in between. The document is streamed
/// through a buffer, field by field ([`RepositoryParts::write_json`]),
/// never held whole.
///
/// # Errors
///
/// Refuses a stale grid with [`RepositoryError::StaleGrid`], writing
/// nothing, and fails on filesystem errors.
pub fn save_repository(repo: &CollaborativeRepository, path: &Path) -> Result<(), ServeError> {
    let _span = gdcm_obs::span!("serve/snapshot_save");
    if repo.grid_is_stale() {
        return Err(RepositoryError::StaleGrid.into());
    }
    let parts = repo.to_parts();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        // The bytes of `RepositorySnapshot::capture(repo)` as
        // `serde_json::to_string` writes them.
        let mut out = io::BufWriter::new(std::fs::File::create(&tmp)?);
        write!(
            out,
            "{{\"format\":\"{SNAPSHOT_FORMAT}\",\"version\":{SNAPSHOT_VERSION},\"parts\":"
        )?;
        parts.write_json(&mut out)?;
        out.write_all(b"}")?;
        out.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Durability of the rename itself: fsync the parent directory when
    // it is addressable. Best-effort — some platforms refuse directory
    // handles, and the rename above is already atomic for crash
    // *consistency*; this only narrows the window where the rename
    // could be lost entirely.
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(handle) = std::fs::File::open(dir) {
            let _ = handle.sync_all();
        }
    }
    gdcm_obs::counter("serve/snapshots_saved").incr();
    Ok(())
}

/// Loads — and audits — a repository snapshot of any supported
/// version from `path`, under the `serve/snapshot_load` span (its stages
/// are in the module docs).
///
/// # Errors
///
/// [`ServeError::BadSnapshot`] on an unknown format or version, read
/// before the repository state is parsed; [`ServeError::Json`] when the
/// document or its state does not parse; [`ServeError::Repository`]
/// when version-1 rows disagree with their owners; I/O errors; and
/// everything [`RepositorySnapshot::into_repository`] refuses.
pub fn load_repository(path: &Path) -> Result<CollaborativeRepository, ServeError> {
    let _span = gdcm_obs::span!("serve/snapshot_load");
    let snapshot = {
        let _span = gdcm_obs::span!("serve/snapshot_parse");
        let json = std::fs::read_to_string(path)?;
        RepositorySnapshot::from_json(&json)?
    };
    snapshot.into_repository()
}
