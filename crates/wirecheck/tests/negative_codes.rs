//! Negative tests pinning every GDCM160–179 diagnostic: each judge is
//! fed deliberately corrupted facts — divergent byte pairs, accepted
//! hostile inputs, broken conversation outcomes — and must emit
//! exactly the advertised stable code, mirroring the GDCM1xx
//! corruption-test pattern (judges take computed facts, so corruption
//! is injected at the fact layer without breaking the live codec).

use gdcm_analyze::{DiagCode, Diagnostic};
use gdcm_wirecheck::{codec, frame, fsm, fuzz};

fn codes_of(diags: &[Diagnostic]) -> Vec<String> {
    diags.iter().map(|d| d.code.code()).collect()
}

#[test]
fn gdcm160_pins_fast_encoder_divergence() {
    let mut diags = Vec::new();
    codec::judge_encode_pairs(
        "neg",
        &[codec::EncodePair {
            label: "corrupted".into(),
            fast: vec![1, 2, 3],
            generic: vec![1, 2, 4],
        }],
        &mut diags,
    );
    assert_eq!(codes_of(&diags), ["GDCM160"]);
    assert_eq!(diags[0].code, DiagCode::WireFastEncodeDivergence);
    assert!(diags[0].message.contains("byte 2"), "{}", diags[0].message);
}

#[test]
fn gdcm161_pins_fast_decoder_divergence() {
    let mut diags = Vec::new();
    codec::judge_decode_pairs(
        "neg",
        &[codec::DecodePair {
            label: "corrupted".into(),
            fast: Ok(gdcm_serve::protocol::Request::Ping),
            generic: Err("rejected".into()),
        }],
        &mut diags,
    );
    assert_eq!(codes_of(&diags), ["GDCM161"]);
    assert_eq!(diags[0].code, DiagCode::WireFastDecodeDivergence);
}

#[test]
fn gdcm162_pins_scalar_round_trip_mismatch() {
    let mut diags = Vec::new();
    codec::judge_scalar_probes(
        "neg",
        &[
            codec::ScalarProbe {
                label: "lost bits".into(),
                want_bits: 0xdead_beef,
                got_bits: Some(0xdead_bee0),
            },
            codec::ScalarProbe {
                label: "decode failed".into(),
                want_bits: 1,
                got_bits: None,
            },
        ],
        &mut diags,
    );
    assert_eq!(codes_of(&diags), ["GDCM162", "GDCM162"]);
    assert_eq!(diags[0].code, DiagCode::WireScalarRoundTripMismatch);
}

#[test]
fn gdcm163_pins_accepted_overlong_varint() {
    let mut diags = Vec::new();
    codec::judge_strictness_probes(
        "neg",
        &[codec::StrictnessProbe {
            label: "padded varint".into(),
            accepted: true,
        }],
        &mut diags,
    );
    assert_eq!(codes_of(&diags), ["GDCM163"]);
    assert_eq!(diags[0].code, DiagCode::WireOverlongVarintAccepted);
}

#[test]
fn gdcm164_pins_content_round_trip_mismatch() {
    let mut diags = Vec::new();
    frame::judge_tree_facts(
        "neg",
        &[frame::TreeFact {
            label: "corrupted tree".into(),
            round_tripped: false,
        }],
        &mut diags,
    );
    assert_eq!(codes_of(&diags), ["GDCM164"]);
    assert_eq!(diags[0].code, DiagCode::WireContentRoundTripMismatch);
}

#[test]
fn gdcm165_pins_reencode_mismatch() {
    let mut diags = Vec::new();
    frame::judge_canonical_facts(
        "neg",
        &[frame::CanonicalFact {
            label: "drifted bytes".into(),
            identical: false,
        }],
        &mut diags,
    );
    assert_eq!(codes_of(&diags), ["GDCM165"]);
    assert_eq!(diags[0].code, DiagCode::WireReencodeMismatch);
}

#[test]
fn gdcm166_pins_accepted_truncation() {
    let mut diags = Vec::new();
    frame::judge_prefix_facts(
        "neg",
        &[frame::PrefixFact {
            label: "half a frame".into(),
            accepted: true,
        }],
        &mut diags,
    );
    assert_eq!(codes_of(&diags), ["GDCM166"]);
    assert_eq!(diags[0].code, DiagCode::WireTruncationAccepted);
}

#[test]
fn gdcm167_pins_accepted_hostile_length() {
    let mut diags = Vec::new();
    frame::judge_hostile_facts(
        "neg",
        &[frame::HostileFact {
            label: "seq claiming u32::MAX".into(),
            rejected: false,
        }],
        &mut diags,
    );
    assert_eq!(codes_of(&diags), ["GDCM167"]);
    assert_eq!(diags[0].code, DiagCode::WireHostileLengthAccepted);
}

#[test]
fn gdcm168_pins_header_mismatch() {
    let mut diags = Vec::new();
    frame::judge_header_facts(
        "neg",
        &[frame::HeaderFact {
            label: "id u64::MAX".into(),
            round_tripped: false,
        }],
        &mut diags,
    );
    assert_eq!(codes_of(&diags), ["GDCM168"]);
    assert_eq!(diags[0].code, DiagCode::WireFrameHeaderMismatch);
}

#[test]
fn gdcm169_pins_unrefused_oversized_frame() {
    let mut diags = Vec::new();
    frame::judge_cap_facts(
        "neg",
        &[frame::CapFact {
            label: "17 MiB frame".into(),
            refused: false,
        }],
        &mut diags,
    );
    assert_eq!(codes_of(&diags), ["GDCM169"]);
    assert_eq!(diags[0].code, DiagCode::WireOversizedFrameUnrefused);
}

/// A healthy outcome template the FSM negative tests corrupt.
fn clean_outcome() -> fsm::ConversationOutcome {
    fsm::ConversationOutcome {
        label: "corrupted".into(),
        expected: vec![fsm::ExpectedFrame {
            id: 1,
            expect_error: false,
        }],
        answered: vec![fsm::AnsweredFrame {
            id: 1,
            is_error: false,
        }],
        parse_failure: None,
        max_buffered_input: 0,
        max_pending_output: 0,
        drained: true,
    }
}

#[test]
fn clean_outcome_judges_clean() {
    let mut diags = Vec::new();
    fsm::judge_conversations("neg", &[clean_outcome()], &mut diags);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn gdcm170_pins_missing_response() {
    let mut o = clean_outcome();
    o.answered.clear();
    let mut diags = Vec::new();
    fsm::judge_conversations("neg", &[o], &mut diags);
    assert_eq!(codes_of(&diags), ["GDCM170"]);
    assert_eq!(diags[0].code, DiagCode::FsmResponseMissing);

    // An unparseable response stream also counts as unanswered.
    let mut o = clean_outcome();
    o.parse_failure = Some("garbage after frame 0".into());
    let mut diags = Vec::new();
    fsm::judge_conversations("neg", &[o], &mut diags);
    assert!(codes_of(&diags).iter().any(|c| c == "GDCM170"));
}

#[test]
fn gdcm171_pins_duplicate_and_alien_ids() {
    // Answered twice.
    let mut o = clean_outcome();
    o.answered.push(fsm::AnsweredFrame {
        id: 1,
        is_error: false,
    });
    let mut diags = Vec::new();
    fsm::judge_conversations("neg", &[o], &mut diags);
    assert_eq!(codes_of(&diags), ["GDCM171"]);
    assert_eq!(diags[0].code, DiagCode::FsmResponseIdMismatch);

    // Answered with an id nobody asked for.
    let mut o = clean_outcome();
    o.answered.push(fsm::AnsweredFrame {
        id: 99,
        is_error: false,
    });
    let mut diags = Vec::new();
    fsm::judge_conversations("neg", &[o], &mut diags);
    assert_eq!(codes_of(&diags), ["GDCM171"]);
}

#[test]
fn gdcm172_pins_error_killing_the_pipeline() {
    // Frame 2 errored; frame 3 was pipelined behind it and vanished.
    let o = fsm::ConversationOutcome {
        label: "corrupted".into(),
        expected: vec![
            fsm::ExpectedFrame {
                id: 2,
                expect_error: true,
            },
            fsm::ExpectedFrame {
                id: 3,
                expect_error: false,
            },
        ],
        answered: vec![fsm::AnsweredFrame {
            id: 2,
            is_error: true,
        }],
        parse_failure: None,
        max_buffered_input: 0,
        max_pending_output: 0,
        drained: true,
    };
    let mut diags = Vec::new();
    fsm::judge_conversations("neg", &[o], &mut diags);
    assert_eq!(codes_of(&diags), ["GDCM172"]);
    assert_eq!(diags[0].code, DiagCode::FsmErrorKilledPipeline);
}

#[test]
fn gdcm173_pins_buffer_over_cap() {
    let mut o = clean_outcome();
    o.max_buffered_input = gdcm_serve::harness::MAX_BUFFERED_INPUT + 1;
    let mut diags = Vec::new();
    fsm::judge_conversations("neg", &[o], &mut diags);
    assert_eq!(codes_of(&diags), ["GDCM173"]);
    assert_eq!(diags[0].code, DiagCode::FsmBufferOverCap);

    let mut o = clean_outcome();
    o.max_pending_output = gdcm_serve::harness::WRITE_HIGH_WATER + fsm::OUTPUT_SLACK + 1;
    let mut diags = Vec::new();
    fsm::judge_conversations("neg", &[o], &mut diags);
    assert_eq!(codes_of(&diags), ["GDCM173"]);
}

#[test]
fn gdcm174_pins_stuck_drain() {
    let mut o = clean_outcome();
    o.drained = false;
    let mut diags = Vec::new();
    fsm::judge_conversations("neg", &[o], &mut diags);
    assert_eq!(codes_of(&diags), ["GDCM174"]);
    assert_eq!(diags[0].code, DiagCode::FsmDrainStuck);
}

#[test]
fn gdcm175_pins_sniff_mismatch() {
    let mut diags = Vec::new();
    fsm::judge_sniffs(
        "neg",
        &[fsm::SniffOutcome {
            label: "non-NUL opening".into(),
            ok: false,
            detail: "answered in binary".into(),
        }],
        &mut diags,
    );
    assert_eq!(codes_of(&diags), ["GDCM175"]);
    assert_eq!(diags[0].code, DiagCode::FsmSniffMismatch);
}

/// A survived-cleanly fuzz fact the fuzzer negative tests corrupt.
fn clean_fact() -> fuzz::FuzzFact {
    fuzz::FuzzFact {
        label: "iter 0: bit-flip".into(),
        panicked: false,
        wedged: false,
        abandoned_sentinel: false,
        undecodable_output: None,
        unknown_codes: Vec::new(),
        decoder_divergence: None,
    }
}

#[test]
fn clean_fuzz_fact_judges_clean() {
    let mut diags = Vec::new();
    fuzz::judge_fuzz_facts("neg", &[clean_fact()], &mut diags);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn gdcm176_pins_fuzz_decoder_divergence() {
    let mut f = clean_fact();
    f.decoder_divergence = Some("fast accepted what generic rejects".into());
    let mut diags = Vec::new();
    fuzz::judge_fuzz_facts("neg", &[f], &mut diags);
    assert_eq!(codes_of(&diags), ["GDCM176"]);
    assert_eq!(diags[0].code, DiagCode::FuzzDecodeDivergence);
}

#[test]
fn gdcm177_pins_unknown_error_code() {
    let mut f = clean_fact();
    f.unknown_codes.push("not_a_real_code".into());
    let mut diags = Vec::new();
    fuzz::judge_fuzz_facts("neg", &[f], &mut diags);
    assert_eq!(codes_of(&diags), ["GDCM177"]);
    assert_eq!(diags[0].code, DiagCode::FuzzErrorCodeUnstable);
}

#[test]
fn gdcm178_pins_every_policy_violation() {
    let corruptions: [fn(&mut fuzz::FuzzFact); 3] = [
        |f| f.panicked = true,
        |f| f.wedged = true,
        |f| f.abandoned_sentinel = true,
    ];
    for corrupt in corruptions {
        let mut f = clean_fact();
        corrupt(&mut f);
        let mut diags = Vec::new();
        fuzz::judge_fuzz_facts("neg", &[f], &mut diags);
        assert_eq!(codes_of(&diags), ["GDCM178"]);
        assert_eq!(diags[0].code, DiagCode::FuzzConnectionPolicyViolation);
    }
}

#[test]
fn gdcm179_pins_undecodable_response() {
    let mut f = clean_fact();
    f.undecodable_output = Some("frame header at byte 3: truncated".into());
    let mut diags = Vec::new();
    fuzz::judge_fuzz_facts("neg", &[f], &mut diags);
    assert_eq!(codes_of(&diags), ["GDCM179"]);
    assert_eq!(diags[0].code, DiagCode::FuzzResponseUndecodable);
}

#[test]
fn all_twenty_codes_map_to_the_wirecheck_pass() {
    for code in gdcm_analyze::DiagCode::ALL {
        let n = code.number();
        if (160..=179).contains(&n) {
            assert_eq!(code.pass(), gdcm_analyze::Pass::Wirecheck, "{code:?}");
            assert_eq!(code.severity(), gdcm_analyze::Severity::Error, "{code:?}");
            assert!(!code.description().is_empty());
        }
    }
    let wirecheck_count = gdcm_analyze::DiagCode::ALL
        .iter()
        .filter(|c| (160..=179).contains(&c.number()))
        .count();
    assert_eq!(wirecheck_count, 20);
}
