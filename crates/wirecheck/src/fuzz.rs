//! Pass 4 — deterministic structure-aware frame fuzzer (GDCM176–179).
//!
//! A seeded [`rand_chacha::ChaCha8Rng`] corpus of mutated frames —
//! truncations, byte flips, lying header lengths, depth bombs, version
//! skew, interleaved JSON-line bytes, raw garbage — is thrown at the
//! in-memory connection harness. Three invariants are asserted on
//! every iteration:
//!
//! - the server **never panics** and never wedges (GDCM178);
//! - every in-band error carries a code from
//!   [`gdcm_serve::protocol::codes::ALL`] (GDCM177) and the response
//!   stream always re-decodes as well-formed `Response` frames
//!   (GDCM179);
//! - the fast and generic request decoders agree on every mutated
//!   payload (GDCM176).
//!
//! Iterations are fully determined by `(seed, index)`: each index
//! derives its own stream cipher state, so results are identical at
//! any `GDCM_THREADS` setting and any schedule of the worker pool.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gdcm_analyze::{DiagCode, Diagnostic, Report};
use gdcm_serve::harness::ConnHarness;
use gdcm_serve::protocol::{codes, wire, Request, Response};
use gdcm_serve::ServingRepository;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The request id of the trailing canonical `Ping` every fuzz
/// conversation ends with: if the server still considers the
/// connection healthy after the mutated bytes, it must answer it.
pub const SENTINEL_ID: u64 = u64::MAX;

/// Sweep budget per fuzz conversation before the server counts as
/// wedged.
pub const FUZZ_DRAIN_BUDGET: usize = 256;

/// Everything observed while running one fuzz iteration.
#[derive(Debug, Clone)]
pub struct FuzzFact {
    /// `iter N: mutation` — deterministic from `(seed, index)`.
    pub label: String,
    /// The server panicked while handling the conversation.
    pub panicked: bool,
    /// The connection was still making progress when the sweep budget
    /// ran out.
    pub wedged: bool,
    /// Neither answered the sentinel nor stopped accepting input.
    pub abandoned_sentinel: bool,
    /// Why the captured response stream failed to decode, if it did.
    pub undecodable_output: Option<String>,
    /// Error codes observed that are not in [`codes::ALL`].
    pub unknown_codes: Vec<String>,
    /// How the fast and generic decoders disagreed, if they did.
    pub decoder_divergence: Option<String>,
}

/// Judges fuzz facts into GDCM176–179 diagnostics.
pub fn judge_fuzz_facts(subject: &str, facts: &[FuzzFact], diags: &mut Vec<Diagnostic>) {
    for f in facts {
        if let Some(d) = &f.decoder_divergence {
            diags.push(Diagnostic::network_level(
                DiagCode::FuzzDecodeDivergence,
                subject,
                format!("{}: {d}", f.label),
            ));
        }
        for code in &f.unknown_codes {
            diags.push(Diagnostic::network_level(
                DiagCode::FuzzErrorCodeUnstable,
                subject,
                format!("{}: error code {code:?} is not a documented code", f.label),
            ));
        }
        if f.panicked {
            diags.push(Diagnostic::network_level(
                DiagCode::FuzzConnectionPolicyViolation,
                subject,
                format!("{}: the server panicked", f.label),
            ));
        } else if f.wedged {
            diags.push(Diagnostic::network_level(
                DiagCode::FuzzConnectionPolicyViolation,
                subject,
                format!(
                    "{}: still making progress after {FUZZ_DRAIN_BUDGET} sweeps",
                    f.label
                ),
            ));
        } else if f.abandoned_sentinel {
            diags.push(Diagnostic::network_level(
                DiagCode::FuzzConnectionPolicyViolation,
                subject,
                format!(
                    "{}: sentinel unanswered on a connection that never stopped accepting",
                    f.label
                ),
            ));
        }
        if let Some(e) = &f.undecodable_output {
            diags.push(Diagnostic::network_level(
                DiagCode::FuzzResponseUndecodable,
                subject,
                format!("{}: {e}", f.label),
            ));
        }
    }
}

fn base_frames() -> Vec<Vec<u8>> {
    crate::corpus::all_requests()
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let mut buf = Vec::new();
            let _ = wire::append_frame(&mut buf, i as u64 + 1, req);
            buf
        })
        .collect()
}

/// Applies one named structure-aware mutation. Returns the mutated
/// frame bytes and the mutation's label.
fn mutate(rng: &mut ChaCha8Rng, base: &[u8]) -> (String, Vec<u8>) {
    match rng.gen_range(0..10u32) {
        0 => {
            let cut = rng.gen_range(0..=base.len());
            ("truncate".into(), base[..cut].to_vec())
        }
        1 => {
            let mut bytes = base.to_vec();
            if !bytes.is_empty() {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
            }
            ("bit-flip".into(), bytes)
        }
        2 => {
            // Lying length inside the cap: the header claims more (or
            // fewer) payload bytes than follow.
            let mut bytes = base.to_vec();
            let lie: u32 = rng.gen_range(0..4096);
            bytes[..4].copy_from_slice(&lie.to_le_bytes());
            ("lying-length".into(), bytes)
        }
        3 => {
            // Declared length above MAX_PAYLOAD: must be refused before
            // allocation.
            let mut bytes = base.to_vec();
            let lie = (wire::MAX_PAYLOAD as u32) + 1 + rng.gen_range(0..1024u32);
            bytes[..4].copy_from_slice(&lie.to_le_bytes());
            ("oversized-length".into(), bytes)
        }
        4 => {
            // Depth bomb: nested singleton sequences past the cap,
            // correctly framed.
            let depth = wire::MAX_DEPTH + rng.gen_range(1..256usize);
            let mut payload = Vec::with_capacity(2 * depth + 1);
            for _ in 0..depth {
                payload.push(wire::tags::SEQ);
                payload.push(0x01);
            }
            payload.push(wire::tags::NULL);
            let mut bytes = Vec::new();
            let _ = wire::append_raw_frame(&mut bytes, rng.gen(), &payload);
            ("depth-bomb".into(), bytes)
        }
        5 => {
            // A newline-JSON request line where a frame should start.
            let mut bytes = b"\"Ping\"\n".to_vec();
            bytes.extend_from_slice(base);
            ("interleaved-json-line".into(), bytes)
        }
        6 => {
            let len = rng.gen_range(1..64usize);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            ("raw-garbage".into(), bytes)
        }
        7 => {
            let mut bytes = base.to_vec();
            bytes.extend_from_slice(base);
            ("duplicated-frame".into(), bytes)
        }
        8 => {
            // A frame with an empty payload: a zero-byte value is
            // malformed but must be answered in-band.
            let mut bytes = Vec::new();
            let _ = wire::append_raw_frame(&mut bytes, rng.gen(), &[]);
            ("empty-payload".into(), bytes)
        }
        _ => {
            // Non-canonical varint spliced into an otherwise valid
            // payload: a padded spelling of the string length.
            let mut payload = vec![wire::tags::STR, 0x84, 0x00];
            payload.extend_from_slice(b"Ping");
            let mut bytes = Vec::new();
            let _ = wire::append_raw_frame(&mut bytes, rng.gen(), &payload);
            ("padded-varint-payload".into(), bytes)
        }
    }
}

/// Compares the fast and generic request decoders on one payload
/// (GDCM176). Returns a description of the disagreement, if any.
fn decoder_divergence(payload: &[u8]) -> Option<String> {
    let fast = wire::fast::decode_request(payload);
    let generic = wire::decode_value::<Request>(payload);
    match (fast, generic) {
        (Ok(a), Ok(b)) if a == b => None,
        (Ok(_), Ok(_)) => Some("both accepted, different values".to_string()),
        (Ok(_), Err(e)) => Some(format!("fast accepted what generic rejects ({e})")),
        (Err(e), Ok(_)) => Some(format!("fast rejected what generic accepts ({e})")),
        (Err(_), Err(_)) => None,
    }
}

/// Runs one fully deterministic fuzz iteration.
#[must_use]
pub fn run_iteration(serving: &ServingRepository, seed: u64, index: u64) -> FuzzFact {
    let mut rng =
        ChaCha8Rng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17));
    let bases = base_frames();
    let base = &bases[rng.gen_range(0..bases.len())];
    let skew_version = rng.gen_range(0..8u32) == 0;
    let (mutation, mutated) = mutate(&mut rng, base);

    // Conversation: (possibly skewed) preamble, the mutated material,
    // then a canonical sentinel Ping.
    let mut bytes = wire::preamble().to_vec();
    let label = if skew_version {
        bytes[6] = rng.gen_range(2..=255u8);
        format!("iter {index}: version-skew + {mutation}")
    } else {
        format!("iter {index}: {mutation}")
    };
    bytes.extend_from_slice(&mutated);
    let mut sentinel = Vec::new();
    let _ = wire::append_frame(&mut sentinel, SENTINEL_ID, &Request::Ping);
    bytes.extend_from_slice(&sentinel);

    // Random chunking: 1–4 read boundaries at random offsets.
    let mut cuts: Vec<usize> = (0..rng.gen_range(0..4u32))
        .map(|_| rng.gen_range(1..bytes.len()))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();

    // The payload-level differential check runs outside the harness so
    // it also covers material the framing layer would refuse.
    let divergence = decoder_divergence(&mutated);

    let driven = catch_unwind(AssertUnwindSafe(|| {
        let mut h = ConnHarness::new(serving);
        let mut prev = 0usize;
        for &cut in &cuts {
            h.deliver(&bytes[prev..cut]);
            h.pump();
            prev = cut;
        }
        h.deliver(&bytes[prev..]);
        h.eof();
        let spent = h.pump_until_quiet(FUZZ_DRAIN_BUDGET);
        let stopped = h.is_dead() || h.is_closing();
        (h.take_output(), spent, stopped)
    }));

    let Ok((out, spent, stopped)) = driven else {
        return FuzzFact {
            label,
            panicked: true,
            wedged: false,
            abandoned_sentinel: false,
            undecodable_output: None,
            unknown_codes: Vec::new(),
            decoder_divergence: divergence,
        };
    };

    let mut undecodable = None;
    let mut unknown_codes = Vec::new();
    let mut sentinel_answered = false;
    match crate::parse_response_frames(&out) {
        Ok(frames) => {
            for (id, resp) in frames {
                if id == SENTINEL_ID {
                    sentinel_answered = true;
                }
                if let Response::Error { code, .. } = resp {
                    if !codes::ALL.contains(&code.as_str()) {
                        unknown_codes.push(code);
                    }
                }
            }
        }
        Err(why) => undecodable = Some(why),
    }

    FuzzFact {
        label,
        panicked: false,
        wedged: spent >= FUZZ_DRAIN_BUDGET,
        abandoned_sentinel: !sentinel_answered && !stopped,
        undecodable_output: undecodable,
        unknown_codes,
        decoder_divergence: divergence,
    }
}

/// Runs `iters` seeded iterations — through the `gdcm-par` pool, with
/// order-preserving results — and judges every fact.
#[must_use]
pub fn check_fuzz(serving: &ServingRepository, seed: u64, iters: usize) -> Report {
    let mut report = Report::new("wire/fuzz");
    let indices: Vec<u64> = (0..iters as u64).collect();
    let facts = gdcm_par::pool().par_map(&indices, |&i| run_iteration(serving, seed, i));
    judge_fuzz_facts("wire/fuzz", &facts, &mut report.diagnostics);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_protocol_survives_a_seeded_burst() {
        let serving = crate::harness_serving();
        let report = check_fuzz(&serving, 0xC0FFEE, 128);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }

    #[test]
    fn iterations_are_deterministic_in_seed_and_index() {
        let serving = crate::harness_serving();
        let a = run_iteration(&serving, 7, 13);
        let b = run_iteration(&serving, 7, 13);
        assert_eq!(a.label, b.label);
        assert_eq!(a.panicked, b.panicked);
        assert_eq!(a.unknown_codes, b.unknown_codes);
        assert_eq!(a.decoder_divergence, b.decoder_divergence);
    }

    #[test]
    fn mutations_cover_every_kind() {
        let serving = crate::harness_serving();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..200 {
            let fact = run_iteration(&serving, 99, i);
            let name = fact
                .label
                .rsplit(": ")
                .next()
                .unwrap_or_default()
                .to_string();
            seen.insert(name);
        }
        assert!(seen.len() >= 9, "mutation kinds seen: {seen:?}");
    }
}
