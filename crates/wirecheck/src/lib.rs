//! # gdcm-wirecheck — wire-protocol conformance verification
//!
//! The serving tier's binary protocol (`binary-v1`) is ~2.5k lines of
//! hand-written codec and state-machine logic carrying every production
//! prediction; this crate statically certifies it the way `gdcm-audit`
//! certifies trained artifacts, with stable diagnostic codes
//! **GDCM160–GDCM179** rendered through the shared
//! [`gdcm_analyze`] diagnostics model. Four pass groups:
//!
//! 1. [`codec`] — **codec equivalence** (GDCM160–163): differential
//!    validation of the hand-rolled fast `Request` codec against the
//!    generic tagged encoder over an enumeration of the request
//!    grammar, plus edge-complete scalar coverage (every LEB128 length
//!    boundary, over-long varints, zigzag `i64::MIN`/`MAX`, f64 NaN
//!    payloads / ±0.0 / subnormals — bit-exactness asserted).
//! 2. [`frame`] — **frame-grammar soundness** (GDCM164–169): encoder
//!    outputs re-decode to equal trees, decoder acceptances re-encode
//!    canonically, and length/depth/payload caps are proven enforced
//!    *before* allocation by decoding adversarial headers.
//! 3. [`fsm`] — **bounded model check** (GDCM170–175): drives the real
//!    per-connection state machine — via the socket-free
//!    [`gdcm_serve::harness`] — through exhaustively enumerated event
//!    schedules (k-way chunk splits, stalled writes, backpressure,
//!    the preamble gate, mid-frame disconnect) and checks invariants:
//!    every accepted frame answered exactly once with a matching id,
//!    errors never kill pipelined siblings, buffers stay under caps,
//!    drain terminates.
//! 4. [`fuzz`] — **deterministic structure-aware fuzzer**
//!    (GDCM176–179): a seeded corpus of mutated frames (truncations,
//!    lying lengths, depth bombs, version skew, interleaved JSON-line
//!    bytes) run against the in-memory harness asserting no panic,
//!    stable error codes, and the connection-survival policy.
//!
//! Every check function appends [`gdcm_analyze::Diagnostic`]s to a
//! caller-owned vector; judge functions take *computed facts* (byte
//! pairs, drive outcomes) so the negative tests can pin each code with
//! deliberately corrupted inputs, mirroring the GDCM1xx corruption-test
//! pattern. Output is deterministic and identical at any
//! `GDCM_THREADS` setting.
//!
//! Environment knobs: `GDCM_WIRECHECK_ITERS` (fuzzer iterations,
//! default [`WIRECHECK_ITERS`]), `GDCM_THREADS` (parallelism, via
//! `gdcm-par`).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod codec;
pub mod corpus;
pub mod frame;
pub mod fsm;
pub mod fuzz;

use gdcm_analyze::Report;
use gdcm_serve::protocol::{wire, Response};
use gdcm_serve::{ServeConfig, ServingRepository};

/// Default fuzzer iteration count. Override per process with the
/// `GDCM_WIRECHECK_ITERS` environment variable (see
/// [`wirecheck_iters`]); CI runs the sweep at 10k.
pub const WIRECHECK_ITERS: usize = 2_000;

/// Parses a `GDCM_WIRECHECK_ITERS` value into an iteration budget.
/// Accepts any positive integer (whitespace-trimmed); everything else
/// — unset, empty, zero, garbage — falls back to [`WIRECHECK_ITERS`].
pub fn parse_wirecheck_iters(raw: Option<&str>) -> usize {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(WIRECHECK_ITERS)
}

/// The effective fuzzer iteration budget: `GDCM_WIRECHECK_ITERS` when
/// set to a positive integer, [`WIRECHECK_ITERS`] otherwise. Read once
/// per process; the resolved value is published through gdcm-obs
/// (gauge `wirecheck/iters` plus a one-shot event) so sweep logs
/// record which budget produced a report.
pub fn wirecheck_iters() -> usize {
    static CACHE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        let raw = std::env::var("GDCM_WIRECHECK_ITERS").ok();
        let n = parse_wirecheck_iters(raw.as_deref());
        gdcm_obs::gauge("wirecheck/iters").set(n as f64);
        gdcm_obs::event(
            "wirecheck/iters",
            "gdcm_wirecheck",
            &[
                ("iters", gdcm_obs::FieldValue::U64(n as u64)),
                (
                    "source",
                    gdcm_obs::FieldValue::Str(if raw.is_some() {
                        "GDCM_WIRECHECK_ITERS".into()
                    } else {
                        "default".into()
                    }),
                ),
            ],
        );
        n
    })
}

/// A small, unfitted serving repository for the state-machine and
/// fuzzer passes: real validation (`unknown_device`, `not_fitted`
/// answers) without training cost. The conformance properties under
/// check are about the *wire layer*, not the model.
#[must_use]
pub fn harness_serving() -> ServingRepository {
    let data = gdcm_core::CostDataset::tiny(11, 4, 4);
    let repo = gdcm_core::CollaborativeRepository::new(
        data.encoder.clone(),
        2,
        gdcm_core::RepositoryConfig {
            gbdt: gdcm_ml::GbdtParams {
                n_estimators: 4,
                ..gdcm_ml::GbdtParams::default()
            },
            min_rows: 1,
        },
    );
    ServingRepository::new(repo, ServeConfig::default())
}

/// Splits a captured binary output stream into `(request_id, Response)`
/// pairs, or describes the first framing/decoding violation.
///
/// # Errors
///
/// A human-readable description of the first malformed frame.
pub fn parse_response_frames(bytes: &[u8]) -> Result<Vec<(u64, Response)>, String> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let header = wire::decode_frame_header(&bytes[pos..])
            .map_err(|e| format!("frame header at byte {pos}: {e}"))?;
        let start = pos + wire::FRAME_HEADER_LEN;
        let end = start + header.payload_len;
        if end > bytes.len() {
            return Err(format!(
                "frame at byte {pos} declares {} payload byte(s) but only {} remain",
                header.payload_len,
                bytes.len() - start
            ));
        }
        let resp: Response = wire::decode_value(&bytes[start..end])
            .map_err(|e| format!("frame id {} payload: {e}", header.request_id))?;
        out.push((header.request_id, resp));
        pos = end;
    }
    Ok(out)
}

/// Runs all four pass groups and returns one report per pass, in
/// stable order. `iters` bounds the fuzzer; schedules and corpora are
/// fixed. A clean protocol yields four empty reports.
#[must_use]
pub fn full_sweep(seed: u64, iters: usize) -> Vec<Report> {
    let serving = harness_serving();
    vec![
        codec::check_codec(),
        frame::check_frames(),
        fsm::check_fsm(&serving),
        fuzz::check_fuzz(&serving, seed, iters),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iters_knob_parses_like_the_audit_knob() {
        assert_eq!(parse_wirecheck_iters(None), WIRECHECK_ITERS);
        assert_eq!(parse_wirecheck_iters(Some("")), WIRECHECK_ITERS);
        assert_eq!(parse_wirecheck_iters(Some("0")), WIRECHECK_ITERS);
        assert_eq!(parse_wirecheck_iters(Some("-3")), WIRECHECK_ITERS);
        assert_eq!(parse_wirecheck_iters(Some("junk")), WIRECHECK_ITERS);
        assert_eq!(parse_wirecheck_iters(Some(" 512 ")), 512);
    }

    #[test]
    fn full_sweep_is_clean_on_the_shipped_protocol() {
        let reports = full_sweep(42, 64);
        for report in &reports {
            assert!(
                report.is_clean(),
                "{}: {:?}",
                report.network,
                report.diagnostics
            );
        }
        assert_eq!(reports.len(), 4);
    }

    #[test]
    fn response_frame_parser_rejects_garbage() {
        assert!(parse_response_frames(&[1, 2, 3]).is_err());
        let mut buf = Vec::new();
        wire::append_frame(&mut buf, 9, &Response::Pong).expect("frames");
        let parsed = parse_response_frames(&buf).expect("parses");
        assert_eq!(parsed, vec![(9, Response::Pong)]);
        // Lying length: declared payload runs past the buffer.
        buf[0] = 0xff;
        assert!(parse_response_frames(&buf).is_err());
    }
}
