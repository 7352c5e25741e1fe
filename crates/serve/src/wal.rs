//! Durable write-ahead log for repository mutations.
//!
//! Streaming ingestion must not lose an acknowledged contribution to a
//! crash, but fsyncing a full snapshot per mutation would bound write
//! throughput by the snapshot size. The classic fix is a write-ahead
//! log: every mutating request is checked against the repository, then
//! framed, checksummed, and fsynced to an append-only file, and only
//! then applied and acknowledged. On
//! startup the log is replayed on top of the latest snapshot. Compaction
//! re-snapshots the state and truncates the log
//! ([`WriteAheadLog::compact`]): after an accepted background refresh,
//! after an on-demand fit, and once the log holds
//! [`crate::refresh::WAL_COMPACT_RECORDS`] records
//! ([`crate::refresh`], step 3).
//!
//! ## Record framing
//!
//! ```text
//! [u32 LE payload length][u64 LE checksum][payload bytes]
//! ```
//!
//! The payload is the [`WalRecord`] in the same self-describing binary
//! encoding the wire protocol uses ([`crate::protocol::wire`]), and the
//! checksum is [`wire_hash`](crate::protocol::wire::fast::wire_hash)
//! over the payload bytes. Recovery scans records until the first frame
//! that is short, oversized, or fails its checksum — that frame and
//! everything after it is a torn tail from a crash mid-append, and is
//! truncated away. Records before it were fully written (appends are
//! fsynced before the ack, so an acknowledged record is never in the
//! torn region).
//!
//! ## At-least-once replay
//!
//! A crash *between* the fsync and the ack leaves a durable record the
//! client never saw confirmed; replay applies it anyway. Mutations are
//! idempotent enough for this to be safe: a replayed `onboard` of an
//! existing device is rejected by the repository and skipped, and a
//! replayed `contribute` adds a row the client believed it had sent.
//! Replay never *fails* on a rejection: any record the repository
//! refuses ([`replay_record`]) is skipped with a structured warning, so
//! a stray durable record can never prevent the server from starting.
//! (Rejections are rare by construction: live ingest checks a mutation
//! before it appends it, so a refused request never reaches the log,
//! and live ingest and replay apply a record through the same
//! function.)

use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::protocol::wire;
use crate::ServeError;
use gdcm_core::{CollaborativeRepository, RepositoryError};
use gdcm_dnn::Network;

/// Bytes before the payload: `u32` length + `u64` checksum.
const RECORD_HEADER_LEN: usize = 12;

/// One durable repository mutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// A measured latency contribution ([`crate::protocol::Request::Contribute`]).
    Contribute {
        /// Enrolled device name.
        device: String,
        /// The measured network.
        network: Network,
        /// Measured latency (ms).
        latency_ms: f64,
    },
    /// A device enrollment ([`crate::protocol::Request::OnboardDevice`]).
    Onboard {
        /// Device name.
        device: String,
        /// Measured signature-set latencies (ms).
        signature_ms: Vec<f64>,
    },
    /// A signature update ([`crate::protocol::Request::ReEnroll`]).
    ReEnroll {
        /// Enrolled device name.
        device: String,
        /// Fresh signature-set latencies (ms).
        signature_ms: Vec<f64>,
    },
}

/// What [`WriteAheadLog::open`] found in an existing log file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalRecovery {
    /// Intact records recovered (and returned for replay).
    pub replayed: usize,
    /// Bytes of torn tail discarded (0 after a clean shutdown).
    pub truncated_bytes: u64,
}

/// An append-only, checksummed, fsync-before-ack mutation log.
#[derive(Debug)]
pub struct WriteAheadLog {
    file: File,
    /// Records appended since the last [`WriteAheadLog::compact`]
    /// (including recovered ones).
    pending: u64,
}

impl WriteAheadLog {
    /// Opens (creating if absent) the log at `path`, scans it for
    /// intact records, truncates any torn tail, and returns the
    /// recovered records for replay.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors; a corrupt *tail* is recovery, not an
    /// error.
    pub fn open(path: &Path) -> Result<(Self, Vec<WalRecord>, WalRecovery), ServeError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid_len) = scan(&bytes);
        let truncated = bytes.len() as u64 - valid_len;
        if truncated > 0 {
            file.set_len(valid_len)?;
            file.sync_all()?;
            gdcm_obs::event(
                "wal_truncated",
                "serve",
                &[
                    (
                        "path",
                        gdcm_obs::FieldValue::Str(path.display().to_string()),
                    ),
                    ("bytes", gdcm_obs::FieldValue::U64(truncated)),
                ],
            );
        }
        file.seek(SeekFrom::Start(valid_len))?;
        let recovery = WalRecovery {
            replayed: records.len(),
            truncated_bytes: truncated,
        };
        let wal = Self {
            file,
            pending: records.len() as u64,
        };
        Ok((wal, records, recovery))
    }

    /// Appends one record and fsyncs it to disk. Only after this
    /// returns may the mutation be applied and acknowledged.
    ///
    /// # Errors
    ///
    /// Fails on encoding or filesystem errors, and with
    /// [`wire::WireError::FrameTooLarge`] before writing anything when
    /// the encoded record exceeds [`wire::MAX_PAYLOAD`] — recovery would
    /// read a longer frame as a torn tail and drop every record after
    /// it. On failure nothing was acknowledged, and any partial frame
    /// is a torn tail the next [`WriteAheadLog::open`] discards.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), ServeError> {
        let mut payload = Vec::new();
        wire::append_value(&mut payload, record)?;
        let len = payload.len();
        if len > wire::MAX_PAYLOAD {
            return Err(wire::WireError::FrameTooLarge { declared: len }.into());
        }
        let mut frame = Vec::with_capacity(RECORD_HEADER_LEN + len);
        // The MAX_PAYLOAD check above keeps this cast exact.
        frame.extend_from_slice(&(len as u32).to_le_bytes());
        frame.extend_from_slice(&wire::fast::wire_hash(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.pending += 1;
        gdcm_obs::counter("serve/wal_appends").incr();
        Ok(())
    }

    /// Truncates the log after its records have been folded into a
    /// durable snapshot. The caller must have completed — and synced —
    /// that snapshot first.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors.
    pub fn compact(&mut self) -> Result<(), ServeError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_all()?;
        self.pending = 0;
        gdcm_obs::counter("serve/wal_compactions").incr();
        Ok(())
    }

    /// Records appended (or recovered) since the last compaction.
    pub fn pending(&self) -> u64 {
        self.pending
    }
}

/// Scans `bytes` for intact framed records. Returns the decoded records
/// and the byte length of the valid prefix; everything past it is torn.
fn scan(bytes: &[u8]) -> (Vec<WalRecord>, u64) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while bytes.len() - offset >= RECORD_HEADER_LEN {
        let len_bytes: [u8; 4] = bytes[offset..offset + 4]
            .try_into()
            .expect("slice is exactly 4 bytes");
        let payload_len = u32::from_le_bytes(len_bytes) as usize;
        if payload_len > wire::MAX_PAYLOAD {
            break;
        }
        let checksum_bytes: [u8; 8] = bytes[offset + 4..offset + RECORD_HEADER_LEN]
            .try_into()
            .expect("slice is exactly 8 bytes");
        let checksum = u64::from_le_bytes(checksum_bytes);
        let start = offset + RECORD_HEADER_LEN;
        let Some(end) = start.checked_add(payload_len).filter(|&e| e <= bytes.len()) else {
            break;
        };
        let payload = &bytes[start..end];
        if wire::fast::wire_hash(payload) != checksum {
            break;
        }
        let Ok(record) = wire::decode_value::<WalRecord>(payload) else {
            break;
        };
        records.push(record);
        offset = end;
    }
    (records, offset as u64)
}

/// Checks `record` against `repo` without applying it: `Ok` exactly
/// when [`apply_record`] would accept it on the same repository state,
/// with the same error otherwise. Each arm is the repository's own
/// check, which its mutator runs first.
pub(crate) fn check_record(
    repo: &CollaborativeRepository,
    record: &WalRecord,
) -> Result<(), RepositoryError> {
    match record {
        WalRecord::Contribute {
            device, latency_ms, ..
        } => repo.check_contribution(device, *latency_ms).map(drop),
        WalRecord::Onboard {
            device,
            signature_ms,
        } => repo.check_onboarding(device, signature_ms).map(drop),
        WalRecord::ReEnroll {
            device,
            signature_ms,
        } => repo.check_re_enrollment(device, signature_ms).map(drop),
    }
}

/// Applies one record to a repository: the one mapping from a logged
/// mutation to the repository, which live ingest
/// ([`crate::ServingRepository`]) and startup replay
/// ([`replay_record`]) both call.
pub(crate) fn apply_record(
    repo: &mut CollaborativeRepository,
    record: &WalRecord,
) -> Result<(), RepositoryError> {
    match record {
        WalRecord::Contribute {
            device,
            network,
            latency_ms,
        } => repo.contribute(device, network, *latency_ms),
        WalRecord::Onboard {
            device,
            signature_ms,
        } => repo.onboard_device(device.as_str(), signature_ms),
        WalRecord::ReEnroll {
            device,
            signature_ms,
        } => repo.re_enroll(device, signature_ms),
    }
}

/// Applies one recovered record to a repository, mapping *every*
/// rejection to a skip — replay is at-least-once, and a record the
/// repository refuses (e.g. an `Onboard` for a device the snapshot
/// already contains, because the record was made durable twice across a
/// compaction crash) must never be able to abort startup. Skips emit a
/// structured warning and bump `serve/wal_replay_skipped` so a log that
/// disagrees with its snapshot is visible, not silent.
///
/// Returns `true` when the record mutated the repository.
pub fn replay_record(repo: &mut CollaborativeRepository, record: &WalRecord) -> bool {
    let Err(e) = apply_record(repo, record) else {
        return true;
    };
    let kind = match record {
        WalRecord::Contribute { .. } => "contribute",
        WalRecord::Onboard { .. } => "onboard",
        WalRecord::ReEnroll { .. } => "re_enroll",
    };
    gdcm_obs::counter("serve/wal_replay_skipped").incr();
    gdcm_obs::event(
        "wal_replay_skipped",
        "serve",
        &[
            ("record", gdcm_obs::FieldValue::Str(kind.to_string())),
            ("error", gdcm_obs::FieldValue::Str(e.to_string())),
        ],
    );
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdcm_core::CostDataset;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("gdcm-wal-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{name}-{}.wal", std::process::id()))
    }

    fn sample_records() -> Vec<WalRecord> {
        let data = CostDataset::tiny(11, 2, 3);
        vec![
            WalRecord::Onboard {
                device: "pixel".into(),
                signature_ms: vec![1.0, 2.0, 3.0],
            },
            WalRecord::Contribute {
                device: "pixel".into(),
                network: data.suite[0].network.clone(),
                latency_ms: 17.5,
            },
            WalRecord::ReEnroll {
                device: "pixel".into(),
                signature_ms: vec![4.0, 5.0, 6.0],
            },
        ]
    }

    #[test]
    fn append_reopen_round_trips_records() {
        let path = scratch("round-trip");
        let _ = std::fs::remove_file(&path);
        let records = sample_records();
        {
            let (mut wal, recovered, recovery) = WriteAheadLog::open(&path).expect("fresh log");
            assert!(recovered.is_empty());
            assert_eq!(recovery, WalRecovery::default());
            for r in &records {
                wal.append(r).expect("append");
            }
            assert_eq!(wal.pending(), 3);
        }
        let (wal, recovered, recovery) = WriteAheadLog::open(&path).expect("reopen");
        assert_eq!(recovered, records);
        assert_eq!(recovery.replayed, 3);
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(wal.pending(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let path = scratch("torn-tail");
        let _ = std::fs::remove_file(&path);
        let records = sample_records();
        {
            let (mut wal, _, _) = WriteAheadLog::open(&path).expect("fresh log");
            for r in &records {
                wal.append(r).expect("append");
            }
        }
        // Simulate a crash mid-append: chop bytes off the last frame.
        let full = std::fs::metadata(&path).expect("written").len();
        let torn_len = full - 5;
        OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("reopen raw")
            .set_len(torn_len)
            .expect("truncate");
        let (wal, recovered, recovery) = WriteAheadLog::open(&path).expect("recover");
        assert_eq!(recovered, records[..2]);
        assert_eq!(recovery.replayed, 2);
        assert!(recovery.truncated_bytes > 0);
        // The file itself was healed: a further reopen is clean.
        drop(wal);
        let (_, recovered, recovery) = WriteAheadLog::open(&path).expect("clean reopen");
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovery.truncated_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checksum_cuts_the_log_there() {
        let path = scratch("bad-checksum");
        let _ = std::fs::remove_file(&path);
        let records = sample_records();
        let second_start;
        {
            let (mut wal, _, _) = WriteAheadLog::open(&path).expect("fresh log");
            wal.append(&records[0]).expect("append");
            second_start = std::fs::metadata(&path).expect("meta").len();
            wal.append(&records[1]).expect("append");
            wal.append(&records[2]).expect("append");
        }
        // Flip one payload byte of the second record: it and everything
        // after it is discarded, the first record survives.
        let mut bytes = std::fs::read(&path).expect("read");
        let target = second_start as usize + RECORD_HEADER_LEN + 1;
        bytes[target] ^= 0xff;
        std::fs::write(&path, &bytes).expect("corrupt");
        let (_, recovered, recovery) = WriteAheadLog::open(&path).expect("recover");
        assert_eq!(recovered, records[..1]);
        assert_eq!(recovery.replayed, 1);
        assert!(recovery.truncated_bytes > 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Recovery would cut a longer frame off as a torn tail, taking
    /// every later record with it.
    #[test]
    fn oversized_record_is_refused_before_it_is_written() {
        let path = scratch("oversized");
        let _ = std::fs::remove_file(&path);
        let records = sample_records();
        let (mut wal, _, _) = WriteAheadLog::open(&path).expect("fresh log");
        wal.append(&records[0]).expect("append");
        let before = std::fs::read(&path).expect("read");
        let oversized = WalRecord::Onboard {
            device: "x".repeat(wire::MAX_PAYLOAD + 1),
            signature_ms: vec![1.0, 2.0, 3.0],
        };
        assert!(matches!(wal.append(&oversized), Err(ServeError::Wire(_))));
        assert_eq!(std::fs::read(&path).expect("read"), before);
        wal.append(&records[1]).expect("append after the refusal");
        drop(wal);
        let (_, recovered, recovery) = WriteAheadLog::open(&path).expect("reopen");
        assert_eq!(recovered, records[..2]);
        assert_eq!(recovery.truncated_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_empties_the_log() {
        let path = scratch("compact");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _, _) = WriteAheadLog::open(&path).expect("fresh log");
        for r in &sample_records() {
            wal.append(r).expect("append");
        }
        wal.compact().expect("compact");
        assert_eq!(wal.pending(), 0);
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), 0);
        // Appends keep working after compaction.
        wal.append(&sample_records()[0]).expect("append");
        drop(wal);
        let (_, recovered, _) = WriteAheadLog::open(&path).expect("reopen");
        assert_eq!(recovered.len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
