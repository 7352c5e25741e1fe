//! Pass 3 — bounded model check of the connection state machine
//! (GDCM170–175).
//!
//! Drives the **production** per-connection FSM — the same `Conn::pump`
//! a live TCP socket runs, reached through the socket-free
//! [`gdcm_serve::harness`] — through exhaustively enumerated event
//! schedules and checks the serving contract:
//!
//! - every accepted request frame is answered exactly once, with a
//!   matching id (GDCM170/171);
//! - an in-band error response never kills pipelined siblings
//!   (GDCM172);
//! - buffers respect their documented caps — unprocessed input under
//!   [`MAX_BUFFERED_INPUT`], pending output under
//!   [`WRITE_HIGH_WATER`] plus one response of slack (GDCM173);
//! - the drain loop terminates within a fixed sweep budget (GDCM174);
//! - the preamble gate frames a binary-v1 opening and closes every
//!   other opening with no output (GDCM175).
//!
//! The schedule space is the full set of 1-, 2-, and 3-way contiguous
//! chunk splits of a pipelined conversation (~1.7k schedules), plus
//! targeted scenarios: write backpressure against a stalled peer,
//! version skew, oversized frame headers, mid-frame disconnect, and
//! quiesce after `Shutdown`.

use gdcm_analyze::{DiagCode, Diagnostic, Report};
use gdcm_serve::harness::{ConnHarness, MAX_BUFFERED_INPUT, WRITE_HIGH_WATER};
use gdcm_serve::protocol::{wire, Request, Response};
use gdcm_serve::ServingRepository;

/// Sweeps a conversation may spend before the model check calls the
/// connection stuck (GDCM174). Every legal schedule drains in far
/// fewer; the backpressure scenario's megabyte of pipelined output
/// needs the head-room.
pub const DRAIN_BUDGET: usize = 2_000;

/// Pending output may overshoot [`WRITE_HIGH_WATER`] by at most the
/// response that crossed the line; 64 KiB bounds every response in the
/// model-check conversations with a wide margin.
pub const OUTPUT_SLACK: usize = 64 * 1024;

/// What the script says must happen to one request frame.
#[derive(Debug, Clone)]
pub struct ExpectedFrame {
    /// The request id the client chose.
    pub id: u64,
    /// Whether the (exactly one) answer must be an in-band error.
    pub expect_error: bool,
}

/// One response frame actually observed on the wire.
#[derive(Debug, Clone)]
pub struct AnsweredFrame {
    /// The echoed request id.
    pub id: u64,
    /// Whether the response was [`Response::Error`].
    pub is_error: bool,
}

/// Everything observed while driving one scheduled conversation.
#[derive(Debug, Clone)]
pub struct ConversationOutcome {
    /// Which schedule produced the outcome.
    pub label: String,
    /// The script's per-frame expectations.
    pub expected: Vec<ExpectedFrame>,
    /// The response frames observed, in wire order.
    pub answered: Vec<AnsweredFrame>,
    /// Set when the captured output failed to parse as response frames.
    pub parse_failure: Option<String>,
    /// High-water mark of unprocessed input across the drive.
    pub max_buffered_input: usize,
    /// High-water mark of unflushed output across the drive.
    pub max_pending_output: usize,
    /// Whether the connection went quiet within [`DRAIN_BUDGET`].
    pub drained: bool,
}

/// One connection-opening observation.
#[derive(Debug, Clone)]
pub struct SniffOutcome {
    /// Which opening bytes were probed.
    pub label: String,
    /// Whether the connection behaved as the scenario demands.
    pub ok: bool,
    /// What was seen instead, for the diagnostic message.
    pub detail: String,
}

/// Judges scheduled conversations: emits GDCM170–174 as described on
/// the module.
pub fn judge_conversations(
    subject: &str,
    outcomes: &[ConversationOutcome],
    diags: &mut Vec<Diagnostic>,
) {
    for o in outcomes {
        if !o.drained {
            diags.push(Diagnostic::network_level(
                DiagCode::FsmDrainStuck,
                subject,
                format!(
                    "{}: still making progress after {DRAIN_BUDGET} sweeps",
                    o.label
                ),
            ));
        }
        if let Some(why) = &o.parse_failure {
            diags.push(Diagnostic::network_level(
                DiagCode::FsmResponseMissing,
                subject,
                format!("{}: response stream unparseable ({why})", o.label),
            ));
        }
        let mut counts: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for a in &o.answered {
            *counts.entry(a.id).or_insert(0) += 1;
        }
        let expected_ids: std::collections::HashSet<u64> =
            o.expected.iter().map(|e| e.id).collect();
        let any_error_answered = o.answered.iter().any(|a| a.is_error);
        for exp in &o.expected {
            match counts.get(&exp.id).copied().unwrap_or(0) {
                0 if any_error_answered => diags.push(Diagnostic::network_level(
                    DiagCode::FsmErrorKilledPipeline,
                    subject,
                    format!(
                        "{}: id {} unanswered while an in-band error was sent",
                        o.label, exp.id
                    ),
                )),
                0 => diags.push(Diagnostic::network_level(
                    DiagCode::FsmResponseMissing,
                    subject,
                    format!("{}: id {} was never answered", o.label, exp.id),
                )),
                1 => {}
                n => diags.push(Diagnostic::network_level(
                    DiagCode::FsmResponseIdMismatch,
                    subject,
                    format!("{}: id {} answered {n} times", o.label, exp.id),
                )),
            }
        }
        for a in &o.answered {
            if !expected_ids.contains(&a.id) {
                diags.push(Diagnostic::network_level(
                    DiagCode::FsmResponseIdMismatch,
                    subject,
                    format!("{}: unexpected response id {}", o.label, a.id),
                ));
            }
        }
        if o.max_buffered_input > MAX_BUFFERED_INPUT {
            diags.push(Diagnostic::network_level(
                DiagCode::FsmBufferOverCap,
                subject,
                format!(
                    "{}: buffered input peaked at {} byte(s), cap {}",
                    o.label, o.max_buffered_input, MAX_BUFFERED_INPUT
                ),
            ));
        }
        if o.max_pending_output > WRITE_HIGH_WATER + OUTPUT_SLACK {
            diags.push(Diagnostic::network_level(
                DiagCode::FsmBufferOverCap,
                subject,
                format!(
                    "{}: pending output peaked at {} byte(s), high water {} (+{} slack)",
                    o.label, o.max_pending_output, WRITE_HIGH_WATER, OUTPUT_SLACK
                ),
            ));
        }
    }
}

/// Judges opening scenarios: emits GDCM175 for every scenario whose
/// connection the preamble gate handled wrongly.
pub fn judge_sniffs(subject: &str, outcomes: &[SniffOutcome], diags: &mut Vec<Diagnostic>) {
    for o in outcomes {
        if !o.ok {
            diags.push(Diagnostic::network_level(
                DiagCode::FsmSniffMismatch,
                subject,
                format!("{}: {}", o.label, o.detail),
            ));
        }
    }
}

fn frame(id: u64, req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    // Request encoding of plain data never fails.
    let _ = wire::append_frame(&mut buf, id, req);
    buf
}

/// The pipelined conversation every schedule re-chunks: preamble, a
/// good `Ping` (id 1), a frame whose payload is garbage (id 2, answered
/// with an in-band `parse_error`), and a second good `Ping` (id 3) that
/// must survive its sibling's failure.
#[must_use]
pub fn conversation_bytes() -> Vec<u8> {
    let mut bytes = wire::preamble().to_vec();
    bytes.extend_from_slice(&frame(1, &Request::Ping));
    let mut garbage = Vec::new();
    let _ = wire::append_raw_frame(&mut garbage, 2, &[0xff, 0xfe]);
    bytes.extend_from_slice(&garbage);
    bytes.extend_from_slice(&frame(3, &Request::Ping));
    bytes
}

/// What [`conversation_bytes`] must produce, schedule-independently.
#[must_use]
pub fn conversation_expectations() -> Vec<ExpectedFrame> {
    vec![
        ExpectedFrame {
            id: 1,
            expect_error: false,
        },
        ExpectedFrame {
            id: 2,
            expect_error: true,
        },
        ExpectedFrame {
            id: 3,
            expect_error: false,
        },
    ]
}

/// Every 1-, 2-, and 3-way contiguous chunk split of the conversation:
/// each chunk arrives in a distinct `read` call, so every frame/header
/// boundary is crossed mid-read somewhere in the enumeration.
#[must_use]
pub fn chunk_schedules() -> Vec<(String, Vec<Vec<u8>>)> {
    let bytes = conversation_bytes();
    let n = bytes.len();
    let mut schedules = vec![("whole".to_string(), vec![bytes.clone()])];
    for i in 1..n {
        schedules.push((
            format!("split@{i}"),
            vec![bytes[..i].to_vec(), bytes[i..].to_vec()],
        ));
    }
    for i in 1..n {
        for j in i + 1..n {
            schedules.push((
                format!("split@{i},{j}"),
                vec![
                    bytes[..i].to_vec(),
                    bytes[i..j].to_vec(),
                    bytes[j..].to_vec(),
                ],
            ));
        }
    }
    schedules
}

/// Drives one scheduled conversation to quiescence and records what
/// happened. Chunks arrive one per pump; EOF follows the last chunk.
#[must_use]
pub fn drive_conversation(
    serving: &ServingRepository,
    label: &str,
    chunks: &[Vec<u8>],
    expected: Vec<ExpectedFrame>,
) -> ConversationOutcome {
    let mut h = ConnHarness::new(serving);
    let mut max_in = 0usize;
    let mut max_out = 0usize;
    for chunk in chunks {
        h.deliver(chunk);
        h.pump();
        max_in = max_in.max(h.buffered_input());
        max_out = max_out.max(h.pending_output());
    }
    h.eof();
    let spent = h.pump_until_quiet(DRAIN_BUDGET);
    max_in = max_in.max(h.buffered_input());
    max_out = max_out.max(h.pending_output());
    finish(h, label, expected, max_in, max_out, spent)
}

fn finish(
    mut h: ConnHarness<'_>,
    label: &str,
    expected: Vec<ExpectedFrame>,
    max_in: usize,
    max_out: usize,
    spent: usize,
) -> ConversationOutcome {
    let out = h.take_output();
    let (answered, parse_failure) = match crate::parse_response_frames(&out) {
        Ok(frames) => (
            frames
                .into_iter()
                .map(|(id, resp)| AnsweredFrame {
                    id,
                    is_error: matches!(resp, Response::Error { .. }),
                })
                .collect(),
            None,
        ),
        Err(why) => (Vec::new(), Some(why)),
    };
    ConversationOutcome {
        label: label.to_string(),
        expected,
        answered,
        parse_failure,
        max_buffered_input: max_in,
        max_pending_output: max_out,
        drained: spent < DRAIN_BUDGET,
    }
}

/// The targeted single-schedule scenarios: version skew, an oversized
/// frame header (refused in-band, before allocation), a mid-frame
/// disconnect, and quiesce after `Shutdown`.
#[must_use]
pub fn targeted_outcomes(serving: &ServingRepository) -> Vec<ConversationOutcome> {
    let mut outcomes = Vec::new();

    // A from-the-future client: right magic, version 2. The server must
    // answer one unsupported_protocol error on id 0 (no request was
    // accepted) and close; the Ping pipelined behind the preamble must
    // NOT be processed.
    let mut skew = wire::preamble().to_vec();
    skew[6] = 2;
    outcomes.push(drive_conversation(
        serving,
        "version-skew preamble",
        &[skew, frame(4, &Request::Ping)],
        vec![ExpectedFrame {
            id: 0,
            expect_error: true,
        }],
    ));

    // A header declaring MAX_PAYLOAD + 1 bytes: answered with
    // frame_too_large on the *same id*, then the connection closes
    // without reading the declared payload.
    let mut oversized = wire::preamble().to_vec();
    #[allow(clippy::cast_possible_truncation)]
    let lying = (wire::MAX_PAYLOAD as u32) + 1;
    oversized.extend_from_slice(&lying.to_le_bytes());
    oversized.extend_from_slice(&77u64.to_le_bytes());
    oversized.extend_from_slice(&[0xaa; 32]);
    outcomes.push(drive_conversation(
        serving,
        "oversized frame header",
        &[oversized],
        vec![ExpectedFrame {
            id: 77,
            expect_error: true,
        }],
    ));

    // Disconnect mid-frame: nothing may be answered for the partial
    // frame, and the connection must die rather than hang.
    let ping = frame(9, &Request::Ping);
    let mut partial = wire::preamble().to_vec();
    partial.extend_from_slice(&ping[..ping.len() / 2]);
    outcomes.push(drive_conversation(
        serving,
        "mid-frame disconnect",
        &[partial],
        vec![],
    ));

    // Shutdown quiesce: the Shutdown is acknowledged, and the frame
    // pipelined behind it is deliberately left unanswered (the drain
    // stops accepting work).
    let mut shutdown = wire::preamble().to_vec();
    shutdown.extend_from_slice(&frame(5, &Request::Shutdown));
    shutdown.extend_from_slice(&frame(6, &Request::Ping));
    outcomes.push(drive_conversation(
        serving,
        "shutdown quiesce",
        &[shutdown],
        vec![ExpectedFrame {
            id: 5,
            expect_error: false,
        }],
    ));

    outcomes
}

/// The write-backpressure scenario: enough pipelined `Ping`s to push
/// more than [`WRITE_HIGH_WATER`] bytes of response at a peer that
/// accepts nothing, then the stall lifts. Pending output must respect
/// the high-water mark the whole time, and afterwards every id must be
/// answered exactly once.
#[must_use]
pub fn backpressure_outcome(serving: &ServingRepository) -> ConversationOutcome {
    let ping = frame(0, &Request::Ping);
    // Enough responses to cross the high-water mark three times over.
    let count = (3 * WRITE_HIGH_WATER / ping.len()).max(1) as u64;
    let mut bytes = wire::preamble().to_vec();
    let mut expected = Vec::with_capacity(count as usize);
    for id in 1..=count {
        bytes.extend_from_slice(&frame(id, &Request::Ping));
        expected.push(ExpectedFrame {
            id,
            expect_error: false,
        });
    }

    let mut h = ConnHarness::new(serving);
    h.set_write_quota(Some(0));
    for chunk in bytes.chunks(64 * 1024) {
        h.deliver(chunk);
    }
    h.eof();
    let mut max_in = 0usize;
    let mut max_out = 0usize;
    let mut spent = h.pump_until_quiet(DRAIN_BUDGET);
    max_in = max_in.max(h.buffered_input());
    max_out = max_out.max(h.pending_output());
    // The stall lifts; the rest of the pipeline must drain.
    h.set_write_quota(None);
    spent += h.pump_until_quiet(DRAIN_BUDGET.saturating_sub(spent));
    max_in = max_in.max(h.buffered_input());
    max_out = max_out.max(h.pending_output());
    finish(
        h,
        &format!("backpressure: {count} pipelined pings vs stalled peer"),
        expected,
        max_in,
        max_out,
        spent,
    )
}

/// The connection-opening scenarios (GDCM175): the preamble alone
/// decides whether a connection is served.
#[must_use]
pub fn sniff_outcomes(serving: &ServingRepository) -> Vec<SniffOutcome> {
    let mut outcomes = Vec::new();

    // Binary preamble delivered one byte per read: the gate must wait
    // for all 8 bytes, then serve binary frames.
    {
        let mut h = ConnHarness::new(serving);
        for b in wire::preamble() {
            h.deliver(&[b]);
            h.pump();
        }
        h.deliver(&frame(9, &Request::Ping));
        h.eof();
        h.pump_until_quiet(DRAIN_BUDGET);
        let out = h.take_output();
        let ok = matches!(
            crate::parse_response_frames(&out).as_deref(),
            Ok([(9, Response::Pong)])
        );
        outcomes.push(SniffOutcome {
            label: "binary preamble, one byte per read".into(),
            ok,
            detail: format!(
                "{} output byte(s), expected one Pong frame for id 9",
                out.len()
            ),
        });
    }

    // Openings that are not binary-v1 — a first byte other than NUL
    // (here a newline-JSON request line), or NUL-led bad magic — have no
    // protocol to answer in: the connection must close with nothing
    // written, without waiting for the peer to hang up.
    for (label, opening) in [
        ("non-NUL opening", &b"\"Ping\"\n"[..]),
        ("NUL-led garbage preamble", b"\0NOTGDCM"),
    ] {
        let mut h = ConnHarness::new(serving);
        h.deliver(opening);
        h.pump_until_quiet(DRAIN_BUDGET);
        let out = h.take_output();
        let ok = h.is_dead() && out.is_empty();
        outcomes.push(SniffOutcome {
            label: label.into(),
            ok,
            detail: format!(
                "dead={}, {} output byte(s); expected silent close",
                h.is_dead(),
                out.len()
            ),
        });
    }

    outcomes
}

/// Runs the whole bounded model check against the live state machine.
/// Schedules are independent, so they run through `gdcm-par` with
/// order-preserving results — output is identical at any thread count.
#[must_use]
pub fn check_fsm(serving: &ServingRepository) -> Report {
    let mut report = Report::new("wire/fsm");
    let schedules = chunk_schedules();
    let expected = conversation_expectations();
    let mut outcomes = gdcm_par::pool().par_map(&schedules, |(label, chunks)| {
        drive_conversation(serving, label, chunks, expected.clone())
    });
    outcomes.extend(targeted_outcomes(serving));
    outcomes.push(backpressure_outcome(serving));
    judge_conversations("wire/fsm", &outcomes, &mut report.diagnostics);
    judge_sniffs(
        "wire/fsm",
        &sniff_outcomes(serving),
        &mut report.diagnostics,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_fsm_is_clean_across_all_schedules() {
        let serving = crate::harness_serving();
        let report = check_fsm(&serving);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }

    #[test]
    fn schedule_space_enumerates_three_way_splits() {
        let n = conversation_bytes().len();
        // 1 whole + (n-1) two-way + C(n-1, 2) three-way schedules.
        let expected = 1 + (n - 1) + (n - 1) * (n - 2) / 2;
        assert_eq!(chunk_schedules().len(), expected);
        assert!(
            expected > 1_000,
            "schedule space is non-trivial: {expected}"
        );
    }

    #[test]
    fn shutdown_flips_the_stop_flag() {
        let serving = crate::harness_serving();
        let mut h = ConnHarness::new(&serving);
        let mut bytes = wire::preamble().to_vec();
        bytes.extend_from_slice(&frame(5, &Request::Shutdown));
        h.deliver(&bytes);
        h.eof();
        h.pump_until_quiet(DRAIN_BUDGET);
        assert!(h.shutdown_triggered());
        let out = h.take_output();
        let frames = crate::parse_response_frames(&out).expect("parses");
        assert_eq!(frames, vec![(5, Response::ShuttingDown)]);
    }
}
