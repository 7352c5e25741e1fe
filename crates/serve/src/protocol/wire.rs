//! The length-prefixed binary wire protocol (`binary-v1`), the only
//! protocol the serving listener speaks.
//!
//! Requests and responses are the externally-tagged
//! [`Request`](crate::Request) / [`Response`](crate::Response) enums,
//! serialized through the vendored serde and encoded as a compact
//! binary content tree: no text encode/decode, and framing that lets a
//! client pipeline instead of waiting out one round trip per request.
//!
//! ## Connection preamble
//!
//! A client opens every connection by sending 8 bytes:
//!
//! ```text
//! +------+------+------+------+------+------+---------+---------+
//! | 0x00 | 'G'  | 'D'  | 'C'  | 'M'  | 'W'  | version (u16 LE)  |
//! +------+------+------+------+------+------+---------+---------+
//! ```
//!
//! A connection whose first byte is not the leading NUL, or whose magic
//! does not match, is closed with nothing written: there is no
//! protocol to answer it in.
//!
//! The header layout (magic + `u16` little-endian version, then frames
//! of `u32` length + `u64` id) is **frozen across versions**: a server
//! seeing a newer version than it supports can still answer a correctly
//! framed error (code `unsupported_protocol`) before closing.
//!
//! ## Frames
//!
//! After the preamble, both directions carry a stream of frames:
//!
//! ```text
//! +---------------------+---------------------+==================+
//! | payload len (u32 LE)| request id (u64 LE) | payload bytes    |
//! +---------------------+---------------------+==================+
//!          4 bytes               8 bytes         `len` bytes
//! ```
//!
//! The request id is chosen by the client and echoed verbatim on the
//! matching response frame — on success *and* on error — which is what
//! makes pipelining safe: a client may keep many requests in flight and
//! match answers by id even if a future server completes them out of
//! order. Ids are also the server's trace ids: slow-log entries carry
//! the id of the frame that caused them.
//!
//! Payload length is capped at [`MAX_PAYLOAD`]; a frame declaring more
//! is rejected with the stable code `frame_too_large` *before any
//! allocation*, and the connection closes because framing can no
//! longer be trusted.
//!
//! ## Payload encoding
//!
//! The payload is a binary encoding of the vendored serde content tree
//! (`serde::__private::Content`) — the single data model every
//! `Serialize`/`Deserialize` impl in this workspace funnels through.
//! One tag byte per node, LEB128 varints for lengths and integers
//! (zigzag for signed), and `f64` as its raw 8 little-endian IEEE-754
//! bytes — which is what makes binary responses *bit-exact* by
//! construction, with no text round-trip to defend:
//!
//! | tag  | node | payload |
//! |------|------|---------|
//! | 0x00 | Null | — |
//! | 0x01 | Bool(false) | — |
//! | 0x02 | Bool(true) | — |
//! | 0x03 | I64 | zigzag LEB128 varint |
//! | 0x04 | U64 | LEB128 varint |
//! | 0x05 | F64 | 8 bytes, IEEE-754 bits LE |
//! | 0x06 | Str | varint byte length + UTF-8 bytes |
//! | 0x07 | Seq | varint element count + elements |
//! | 0x08 | Map | varint entry count + (varint key length + key bytes + value) per entry |
//!
//! Struct fields serialize in declaration order and decoding never
//! reorders them, so encoding is deterministic: equal values produce
//! equal bytes, which the pipelining determinism tests assert
//! end-to-end. The decoder bounds every declared length by the bytes
//! actually remaining, so a hostile length can never drive a large
//! allocation, and nesting depth is capped at [`MAX_DEPTH`].

use serde::__private::{from_content, to_content, Content, ContentError};
use serde::{Deserialize, Serialize};
use std::fmt;

pub mod fast;

/// Protocol discriminator + magic: the first six preamble bytes.
pub const PREAMBLE_MAGIC: [u8; 6] = *b"\0GDCMW";

/// The binary protocol version this build speaks.
pub const WIRE_VERSION: u16 = 1;

/// Total preamble length: magic + `u16` LE version.
pub const PREAMBLE_LEN: usize = 8;

/// Frame header length: `u32` LE payload length + `u64` LE request id.
pub const FRAME_HEADER_LEN: usize = 12;

/// Maximum payload bytes per frame, both directions. Checked against
/// the declared length before any allocation.
pub const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

/// Maximum content-tree nesting depth the decoder accepts.
pub const MAX_DEPTH: usize = 96;

/// The content-tree tag bytes. Public so conformance tooling
/// (`gdcm-wirecheck`) can build adversarial payloads byte-by-byte
/// without duplicating the constants.
pub mod tags {
    /// `Content::Null`.
    pub const NULL: u8 = 0x00;
    /// `Content::Bool(false)`.
    pub const FALSE: u8 = 0x01;
    /// `Content::Bool(true)`.
    pub const TRUE: u8 = 0x02;
    /// `Content::I64` — zigzag LEB128 varint payload.
    pub const I64: u8 = 0x03;
    /// `Content::U64` — LEB128 varint payload.
    pub const U64: u8 = 0x04;
    /// `Content::F64` — 8 raw IEEE-754 bytes, little-endian.
    pub const F64: u8 = 0x05;
    /// `Content::Str` — varint byte length + UTF-8 bytes.
    pub const STR: u8 = 0x06;
    /// `Content::Seq` — varint element count + elements.
    pub const SEQ: u8 = 0x07;
    /// `Content::Map` — varint entry count + (key length + key + value).
    pub const MAP: u8 = 0x08;
}

const TAG_NULL: u8 = tags::NULL;
const TAG_FALSE: u8 = tags::FALSE;
const TAG_TRUE: u8 = tags::TRUE;
const TAG_I64: u8 = tags::I64;
const TAG_U64: u8 = tags::U64;
const TAG_F64: u8 = tags::F64;
const TAG_STR: u8 = tags::STR;
const TAG_SEQ: u8 = tags::SEQ;
const TAG_MAP: u8 = tags::MAP;

/// Binary protocol failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value did.
    Truncated,
    /// The bytes are not a valid encoding (bad tag, overlong varint,
    /// invalid UTF-8, trailing bytes, excessive depth, ...).
    Malformed(String),
    /// A frame declared a payload longer than [`MAX_PAYLOAD`].
    FrameTooLarge {
        /// The declared payload length.
        declared: usize,
    },
    /// The preamble magic matched but the version is not supported.
    UnsupportedVersion {
        /// The version the peer asked for.
        requested: u16,
    },
    /// The decoded content tree did not match the target type.
    Decode(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire value"),
            WireError::Malformed(why) => write!(f, "malformed wire value: {why}"),
            WireError::FrameTooLarge { declared } => write!(
                f,
                "frame payload of {declared} bytes exceeds the {MAX_PAYLOAD}-byte cap"
            ),
            WireError::UnsupportedVersion { requested } => write!(
                f,
                "unsupported binary protocol version {requested} (this build speaks {WIRE_VERSION})"
            ),
            WireError::Decode(why) => write!(f, "wire value decoded but did not match: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The 8-byte preamble a binary client sends on connect.
#[must_use]
pub fn preamble() -> [u8; PREAMBLE_LEN] {
    let mut bytes = [0u8; PREAMBLE_LEN];
    bytes[..6].copy_from_slice(&PREAMBLE_MAGIC);
    bytes[6..].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    bytes
}

/// Validates a preamble and returns the requested version.
///
/// # Errors
///
/// [`WireError::Malformed`] when the magic does not match;
/// [`WireError::UnsupportedVersion`] when the magic matches but the
/// version is not one this build speaks.
pub fn check_preamble(bytes: &[u8]) -> Result<u16, WireError> {
    if bytes.len() < PREAMBLE_LEN {
        return Err(WireError::Truncated);
    }
    if bytes[..6] != PREAMBLE_MAGIC {
        return Err(WireError::Malformed("bad preamble magic".to_string()));
    }
    let requested = u16::from_le_bytes([bytes[6], bytes[7]]);
    if requested != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { requested });
    }
    Ok(requested)
}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Declared payload length in bytes (not yet validated against
    /// [`MAX_PAYLOAD`] — callers check before allocating).
    pub payload_len: usize,
    /// Client-chosen request id, echoed on the response frame.
    pub request_id: u64,
}

/// Decodes a frame header from its first [`FRAME_HEADER_LEN`] bytes.
///
/// # Errors
///
/// [`WireError::Truncated`] when fewer than 12 bytes are available.
pub fn decode_frame_header(bytes: &[u8]) -> Result<FrameHeader, WireError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let payload_len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    let request_id = u64::from_le_bytes([
        bytes[4], bytes[5], bytes[6], bytes[7], bytes[8], bytes[9], bytes[10], bytes[11],
    ]);
    Ok(FrameHeader {
        payload_len,
        request_id,
    })
}

/// Encodes a value into a fresh payload buffer.
///
/// # Errors
///
/// [`WireError::Decode`] when the value's `Serialize` impl fails
/// (plain data never does).
pub fn encode_value<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::new();
    append_value(&mut buf, value)?;
    Ok(buf)
}

/// Encodes a value onto the end of `buf` (which is *not* cleared —
/// callers reuse one buffer across requests).
///
/// # Errors
///
/// Same contract as [`encode_value`].
pub fn append_value<T: Serialize + ?Sized>(buf: &mut Vec<u8>, value: &T) -> Result<(), WireError> {
    let content =
        to_content(value).map_err(|ContentError(why)| WireError::Decode(why.to_string()))?;
    encode_content(buf, &content);
    Ok(())
}

/// Decodes a value from a payload, requiring every byte to be consumed.
///
/// # Errors
///
/// [`WireError::Truncated`] / [`WireError::Malformed`] on bad bytes,
/// [`WireError::Decode`] when the tree is valid but does not match `T`.
pub fn decode_value<'de, T: Deserialize<'de>>(bytes: &[u8]) -> Result<T, WireError> {
    let mut pos = 0usize;
    let content = decode_content(bytes, &mut pos, 0)?;
    if pos != bytes.len() {
        return Err(WireError::Malformed(format!(
            "{} trailing byte(s) after value",
            bytes.len() - pos
        )));
    }
    from_content::<T, ContentError>(content)
        .map_err(|ContentError(why)| WireError::Decode(why.to_string()))
}

/// Appends one complete frame — header plus encoded `value` — to `buf`.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] when the encoded payload exceeds
/// [`MAX_PAYLOAD`]; otherwise the [`append_value`] contract.
pub fn append_frame<T: Serialize + ?Sized>(
    buf: &mut Vec<u8>,
    request_id: u64,
    value: &T,
) -> Result<(), WireError> {
    let header_at = buf.len();
    buf.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    append_value(buf, value)?;
    let payload_len = buf.len() - header_at - FRAME_HEADER_LEN;
    if payload_len > MAX_PAYLOAD {
        buf.truncate(header_at);
        return Err(WireError::FrameTooLarge {
            declared: payload_len,
        });
    }
    // Truncation is guarded by the MAX_PAYLOAD check above.
    #[allow(clippy::cast_possible_truncation)]
    let len32 = payload_len as u32;
    buf[header_at..header_at + 4].copy_from_slice(&len32.to_le_bytes());
    buf[header_at + 4..header_at + FRAME_HEADER_LEN].copy_from_slice(&request_id.to_le_bytes());
    Ok(())
}

/// Appends a pre-encoded payload as one frame. The payload must already
/// respect [`MAX_PAYLOAD`] (checked).
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] when the payload exceeds the cap.
pub fn append_raw_frame(
    buf: &mut Vec<u8>,
    request_id: u64,
    payload: &[u8],
) -> Result<(), WireError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(WireError::FrameTooLarge {
            declared: payload.len(),
        });
    }
    #[allow(clippy::cast_possible_truncation)]
    let len32 = payload.len() as u32;
    buf.extend_from_slice(&len32.to_le_bytes());
    buf.extend_from_slice(&request_id.to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(())
}

fn encode_content(buf: &mut Vec<u8>, content: &Content) {
    match content {
        Content::Null => buf.push(TAG_NULL),
        Content::Bool(false) => buf.push(TAG_FALSE),
        Content::Bool(true) => buf.push(TAG_TRUE),
        Content::I64(v) => {
            buf.push(TAG_I64);
            write_varint(buf, zigzag_encode(*v));
        }
        Content::U64(v) => {
            buf.push(TAG_U64);
            write_varint(buf, *v);
        }
        Content::F64(v) => {
            buf.push(TAG_F64);
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Content::Str(s) => {
            buf.push(TAG_STR);
            write_varint(buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
        Content::Seq(items) => {
            buf.push(TAG_SEQ);
            write_varint(buf, items.len() as u64);
            for item in items {
                encode_content(buf, item);
            }
        }
        Content::Map(entries) => {
            buf.push(TAG_MAP);
            write_varint(buf, entries.len() as u64);
            for (key, value) in entries {
                write_varint(buf, key.len() as u64);
                buf.extend_from_slice(key.as_bytes());
                encode_content(buf, value);
            }
        }
    }
}

fn decode_content(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Content, WireError> {
    if depth > MAX_DEPTH {
        return Err(WireError::Malformed(format!(
            "nesting deeper than {MAX_DEPTH}"
        )));
    }
    let tag = *bytes.get(*pos).ok_or(WireError::Truncated)?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Content::Null),
        TAG_FALSE => Ok(Content::Bool(false)),
        TAG_TRUE => Ok(Content::Bool(true)),
        TAG_I64 => Ok(Content::I64(zigzag_decode(read_varint(bytes, pos)?))),
        TAG_U64 => Ok(Content::U64(read_varint(bytes, pos)?)),
        TAG_F64 => {
            let raw = bytes
                .get(*pos..*pos + 8)
                .ok_or(WireError::Truncated)?
                .try_into()
                .map_err(|_| WireError::Truncated)?;
            *pos += 8;
            Ok(Content::F64(f64::from_bits(u64::from_le_bytes(raw))))
        }
        TAG_STR => Ok(Content::Str(read_string(bytes, pos)?)),
        TAG_SEQ => {
            let len = read_len(bytes, pos, 1)?;
            let mut items = Vec::with_capacity(len);
            for _ in 0..len {
                items.push(decode_content(bytes, pos, depth + 1)?);
            }
            Ok(Content::Seq(items))
        }
        TAG_MAP => {
            // Each entry costs at least one key-length byte plus a
            // one-byte value, so bound capacity by remaining/2.
            let len = read_len(bytes, pos, 2)?;
            let mut entries = Vec::with_capacity(len);
            for _ in 0..len {
                let key = read_string(bytes, pos)?;
                let value = decode_content(bytes, pos, depth + 1)?;
                entries.push((key, value));
            }
            Ok(Content::Map(entries))
        }
        other => Err(WireError::Malformed(format!(
            "unknown tag byte {other:#04x}"
        ))),
    }
}

/// Reads a declared element count and rejects it — before any
/// allocation — when even `min_bytes_each` bytes per element would
/// overrun the input that actually remains.
fn read_len(bytes: &[u8], pos: &mut usize, min_bytes_each: usize) -> Result<usize, WireError> {
    let len = read_varint(bytes, pos)?;
    let remaining = (bytes.len() - *pos) as u64;
    if len.saturating_mul(min_bytes_each as u64) > remaining {
        return Err(WireError::Malformed(format!(
            "declared length {len} exceeds the {remaining} byte(s) remaining"
        )));
    }
    #[allow(clippy::cast_possible_truncation)]
    Ok(len as usize)
}

fn read_string(bytes: &[u8], pos: &mut usize) -> Result<String, WireError> {
    let len = read_len(bytes, pos, 1)?;
    let raw = bytes.get(*pos..*pos + len).ok_or(WireError::Truncated)?;
    *pos += len;
    String::from_utf8(raw.to_vec())
        .map_err(|_| WireError::Malformed("string is not valid UTF-8".to_string()))
}

fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        #[allow(clippy::cast_possible_truncation)]
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let mut out = 0u64;
    for i in 0..10 {
        let byte = *bytes.get(*pos).ok_or(WireError::Truncated)?;
        *pos += 1;
        let part = u64::from(byte & 0x7f);
        // The 10th byte holds bits 63.. — anything above 1 overflows.
        if i == 9 && part > 1 {
            return Err(WireError::Malformed("varint overflows u64".to_string()));
        }
        out |= part << (7 * i);
        if byte & 0x80 == 0 {
            // A multi-byte encoding ending in 0x00 encodes a value the
            // encoder would have emitted shorter: reject it so every
            // value has exactly one accepted byte sequence (the hash
            // fast lane and canonical re-encoding both rely on this).
            if i > 0 && byte == 0 {
                return Err(WireError::Malformed(
                    "non-canonical varint (padded with zero bytes)".to_string(),
                ));
            }
            return Ok(out);
        }
    }
    Err(WireError::Malformed(
        "varint longer than 10 bytes".to_string(),
    ))
}

/// Encodes `v` as a canonical LEB128 varint — the conformance surface
/// `gdcm-wirecheck` uses for scalar boundary sweeps.
#[must_use]
pub fn encode_varint(v: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(10);
    write_varint(&mut buf, v);
    buf
}

/// Decodes one LEB128 varint from the front of `bytes`, returning the
/// value and the number of bytes consumed.
///
/// # Errors
///
/// [`WireError::Truncated`] when the input ends mid-varint;
/// [`WireError::Malformed`] on over-long (> 10 byte), overflowing, or
/// non-canonical encodings.
pub fn decode_varint(bytes: &[u8]) -> Result<(u64, usize), WireError> {
    let mut pos = 0usize;
    let v = read_varint(bytes, &mut pos)?;
    Ok((v, pos))
}

/// Encodes a raw content tree — used by `gdcm-wirecheck` to enumerate
/// the payload grammar directly, below the `Request`/`Response` types.
#[must_use]
pub fn encode_content_tree(content: &Content) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_content(&mut buf, content);
    buf
}

/// Decodes a raw content tree, requiring every byte to be consumed.
///
/// # Errors
///
/// [`WireError::Truncated`] / [`WireError::Malformed`] on bad bytes.
pub fn decode_content_tree(bytes: &[u8]) -> Result<Content, WireError> {
    let mut pos = 0usize;
    let content = decode_content(bytes, &mut pos, 0)?;
    if pos != bytes.len() {
        return Err(WireError::Malformed(format!(
            "{} trailing byte(s) after value",
            bytes.len() - pos
        )));
    }
    Ok(content)
}

/// Decodes a payload and re-encodes it canonically. For bytes the
/// encoder produced this is the identity; for merely-accepted inputs it
/// yields the canonical spelling of the same tree.
///
/// # Errors
///
/// Propagates the [`decode_content_tree`] contract.
pub fn reencode(bytes: &[u8]) -> Result<Vec<u8>, WireError> {
    let content = decode_content_tree(bytes)?;
    Ok(encode_content_tree(&content))
}

const fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[allow(clippy::cast_possible_wrap)]
const fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, Response};

    fn tiny_network() -> gdcm_dnn::Network {
        let mut b = gdcm_dnn::NetworkBuilder::new("wire-probe");
        let x = b.input(gdcm_dnn::TensorShape::new(32, 32, 3));
        let x = b
            .conv2d_act(x, 8, 3, 1, gdcm_dnn::Activation::Relu)
            .unwrap();
        let x = b.global_avg_pool(x).unwrap();
        let logits = b.fully_connected(x, 10).unwrap();
        b.build(logits).unwrap()
    }

    fn round_trip_content(content: &Content) {
        let mut buf = Vec::new();
        encode_content(&mut buf, content);
        let mut pos = 0;
        let back = decode_content(&buf, &mut pos, 0).expect("decodes");
        assert_eq!(pos, buf.len(), "full consumption");
        assert_eq!(&back, content);
    }

    #[test]
    fn every_content_kind_round_trips() {
        round_trip_content(&Content::Null);
        round_trip_content(&Content::Bool(false));
        round_trip_content(&Content::Bool(true));
        for v in [0i64, 1, -1, 63, -64, i64::MIN, i64::MAX] {
            round_trip_content(&Content::I64(v));
        }
        for v in [0u64, 127, 128, 1 << 53, u64::MAX] {
            round_trip_content(&Content::U64(v));
        }
        round_trip_content(&Content::Str(String::new()));
        round_trip_content(&Content::Str("héllo wörld".to_string()));
        round_trip_content(&Content::Seq(vec![
            Content::Null,
            Content::Seq(vec![Content::I64(-5)]),
        ]));
        round_trip_content(&Content::Map(vec![
            ("a".to_string(), Content::Bool(true)),
            (String::new(), Content::Map(vec![])),
        ]));
    }

    #[test]
    fn f64_bits_survive_exactly() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            123.456_789_012_345_67,
        ] {
            let mut buf = Vec::new();
            encode_content(&mut buf, &Content::F64(v));
            let mut pos = 0;
            match decode_content(&buf, &mut pos, 0).expect("decodes") {
                Content::F64(back) => assert_eq!(back.to_bits(), v.to_bits()),
                other => panic!("wrong kind: {other:?}"),
            }
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let req = Request::Predict {
            device: "pixel".to_string(),
            network: tiny_network(),
        };
        let a = encode_value(&req).expect("encodes");
        let b = encode_value(&req).expect("encodes");
        assert_eq!(a, b);
    }

    #[test]
    fn requests_and_responses_round_trip() {
        let reqs = vec![
            Request::Ping,
            Request::Stats,
            Request::Predict {
                device: "pixel".to_string(),
                network: tiny_network(),
            },
            Request::OnboardDevice {
                device: "mate".to_string(),
                signature_ms: vec![1.5, 2.25, f64::MIN_POSITIVE],
            },
            Request::Shutdown,
        ];
        for req in reqs {
            let bytes = encode_value(&req).expect("encodes");
            let back: Request = decode_value(&bytes).expect("decodes");
            assert_eq!(back, req);
        }
        let resp = Response::Prediction {
            latency_ms: 123.456_789_012_345_67,
        };
        let bytes = encode_value(&resp).expect("encodes");
        match decode_value::<Response>(&bytes).expect("decodes") {
            Response::Prediction { latency_ms } => {
                assert_eq!(latency_ms.to_bits(), 123.456_789_012_345_67f64.to_bits());
            }
            other => panic!("variant changed: {other:?}"),
        }
    }

    #[test]
    fn frames_carry_extreme_request_ids() {
        for id in [0u64, 1, 1 << 53, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            append_frame(&mut buf, id, &Request::Ping).expect("frames");
            let header = decode_frame_header(&buf).expect("header");
            assert_eq!(header.request_id, id);
            assert_eq!(header.payload_len, buf.len() - FRAME_HEADER_LEN);
            let back: Request = decode_value(&buf[FRAME_HEADER_LEN..]).expect("payload decodes");
            assert_eq!(back, Request::Ping);
        }
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        let bytes = encode_value(&Request::Stats).expect("encodes");
        for cut in 0..bytes.len() {
            assert!(
                decode_value::<Request>(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn hostile_lengths_are_rejected_before_allocation() {
        // Seq claiming u32::MAX elements with 2 bytes of input.
        let mut buf = vec![TAG_SEQ];
        write_varint(&mut buf, u64::from(u32::MAX));
        let err = decode_value::<Request>(&buf).expect_err("must reject");
        assert!(matches!(err, WireError::Malformed(_)), "{err}");
        // Str claiming a huge byte length.
        let mut buf = vec![TAG_STR];
        write_varint(&mut buf, u64::MAX / 2);
        let err = decode_value::<Request>(&buf).expect_err("must reject");
        assert!(matches!(err, WireError::Malformed(_)), "{err}");
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_malformed() {
        assert!(matches!(
            decode_value::<Request>(&[0xff]),
            Err(WireError::Malformed(_))
        ));
        let mut bytes = encode_value(&Request::Ping).expect("encodes");
        bytes.push(0x00);
        assert!(matches!(
            decode_value::<Request>(&bytes),
            Err(WireError::Malformed(_))
        ));
    }

    /// Every 7-bit LEB128 length boundary: the largest value of each
    /// encoded byte length and the smallest value of the next.
    fn varint_boundaries() -> Vec<(u64, usize)> {
        let mut cases = vec![(0u64, 1usize)];
        for k in 1..=9usize {
            let edge = 1u64 << (7 * k);
            cases.push((edge - 1, k));
            cases.push((edge, k + 1));
        }
        cases.push((u64::MAX, 10));
        cases
    }

    #[test]
    fn varints_round_trip_at_every_length_boundary() {
        for (value, expected_len) in varint_boundaries() {
            let bytes = encode_varint(value);
            assert_eq!(bytes.len(), expected_len, "canonical length of {value}");
            let (back, consumed) = decode_varint(&bytes).expect("canonical decodes");
            assert_eq!(back, value);
            assert_eq!(consumed, expected_len);
        }
    }

    #[test]
    fn non_canonical_varints_rejected_at_every_length() {
        for (value, canonical_len) in varint_boundaries() {
            // Pad the canonical encoding with zero continuation bytes
            // out to every longer length the 10-byte cap allows.
            for padded_len in canonical_len + 1..=10 {
                let mut bytes = encode_varint(value);
                while bytes.len() < padded_len {
                    let last = bytes.len() - 1;
                    bytes[last] |= 0x80;
                    bytes.push(0x00);
                }
                let err = decode_varint(&bytes).expect_err("padded form must be rejected");
                assert!(
                    matches!(err, WireError::Malformed(_)),
                    "value {value} padded to {padded_len}: {err}"
                );
            }
        }
        // The classic two-byte zero.
        assert!(matches!(
            decode_varint(&[0x80, 0x00]),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn overlong_and_overflowing_varints_rejected() {
        // Eleven continuation bytes: longer than any u64 needs.
        let overlong = [0x80u8; 11];
        assert!(matches!(
            decode_varint(&overlong),
            Err(WireError::Malformed(_))
        ));
        // Ten bytes whose top byte pushes past bit 63.
        let mut overflow = vec![0xffu8; 9];
        overflow.push(0x02);
        assert!(matches!(
            decode_varint(&overflow),
            Err(WireError::Malformed(_))
        ));
        // Truncated mid-varint.
        assert!(matches!(decode_varint(&[0x80]), Err(WireError::Truncated)));
    }

    #[test]
    fn reencode_is_identity_on_canonical_bytes() {
        let req = Request::Predict {
            device: "pixel".to_string(),
            network: tiny_network(),
        };
        let bytes = encode_value(&req).expect("encodes");
        assert_eq!(reencode(&bytes).expect("reencodes"), bytes);
    }

    #[test]
    fn preamble_round_trips_and_rejects_strangers() {
        assert_eq!(check_preamble(&preamble()).expect("valid"), WIRE_VERSION);
        assert!(matches!(
            check_preamble(b"\0GDCMX\x01\x00"),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            check_preamble(b"\0GDCMW\x63\x00"),
            Err(WireError::UnsupportedVersion { requested: 99 })
        ));
        assert!(matches!(
            check_preamble(&PREAMBLE_MAGIC),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn oversized_frames_are_refused_on_encode() {
        let mut buf = Vec::new();
        let payload = vec![0u8; MAX_PAYLOAD + 1];
        assert!(matches!(
            append_raw_frame(&mut buf, 1, &payload),
            Err(WireError::FrameTooLarge { .. })
        ));
        assert!(buf.is_empty());
    }
}
