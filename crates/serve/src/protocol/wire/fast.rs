//! Hand-rolled fast path for [`Request`] payloads.
//!
//! The generic codec in [`super`] detours through the vendored serde
//! content tree: every struct field becomes a heap-allocated
//! `(String, Content)` pair before a single wire byte is written, and
//! decoding rebuilds the whole tree before `from_content` walks it
//! again. For the serving hot path — a [`Request::Predict`] carrying a
//! multi-kilobyte [`Network`] on every frame — that detour dominates.
//!
//! Measured by decoding 2,000 seeded `SearchSpace::mobile()` Predict
//! payloads (about 6 KB each) in a loop, release build, mean per
//! payload: the generic decode takes about 100 µs and
//! [`decode_request`] about 11 µs (159 µs and 19 µs on a 2-vCPU Xeon
//! VM) — 8–9x. A whole cold `Predict` round trip (perfbench `nas_cold`
//! `op_p50_us`) is about 58 µs, so the generic decoder alone would
//! roughly triple it. The rule that keeps this module: it stays while
//! the generic decode costs more than 5% of the miss path.
//!
//! This module encodes and decodes [`Request`] values *directly*
//! against the wire bytes, with zero intermediate tree. It is an
//! optimization only, not a second format:
//!
//! * **Encoding is byte-identical** to the generic path. The vendored
//!   derive emits named fields in declaration order and externally
//!   tagged variants, so the canonical byte stream is fully determined;
//!   the equivalence tests below assert `append_request` ==
//!   `append_value` for every request and operator variant.
//! * **Decoding accepts a superset.** The strict parser recognizes
//!   exactly the canonical layout; any deviation — reordered map keys,
//!   unknown fields, or plain garbage — falls back to the generic
//!   decoder, which remains the semantic (and error-message) authority.
//!
//! The fallback means this module can never change what the server
//! accepts or how it fails; it can only make the common case cheap.

use super::{
    WireError, FRAME_HEADER_LEN, MAX_PAYLOAD, TAG_F64, TAG_FALSE, TAG_MAP, TAG_SEQ, TAG_STR,
    TAG_TRUE, TAG_U64,
};
use crate::protocol::Request;
use gdcm_dnn::{Network, Node, NodeId, Op, Padding, TensorShape};

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Appends the canonical wire encoding of `req` to `buf` (not cleared).
///
/// Byte-identical to [`super::append_value`] on the same request, and
/// infallible: request trees have fixed structural depth and plain-data
/// fields, so none of the generic path's error cases can occur.
pub fn append_request(buf: &mut Vec<u8>, req: &Request) {
    match req {
        Request::Ping => put_str(buf, "Ping"),
        Request::Stats => put_str(buf, "Stats"),
        Request::Fit => put_str(buf, "Fit"),
        Request::Shutdown => put_str(buf, "Shutdown"),
        Request::Predict { device, network } => {
            put_variant(buf, "Predict", 2);
            put_key(buf, "device");
            put_str(buf, device);
            put_key(buf, "network");
            put_network(buf, network);
        }
        Request::PredictForNewDevice {
            signature_ms,
            network,
        } => {
            put_variant(buf, "PredictForNewDevice", 2);
            put_key(buf, "signature_ms");
            put_f64_seq(buf, signature_ms);
            put_key(buf, "network");
            put_network(buf, network);
        }
        Request::OnboardDevice {
            device,
            signature_ms,
        } => {
            put_variant(buf, "OnboardDevice", 2);
            put_key(buf, "device");
            put_str(buf, device);
            put_key(buf, "signature_ms");
            put_f64_seq(buf, signature_ms);
        }
        Request::ReEnroll {
            device,
            signature_ms,
        } => {
            put_variant(buf, "ReEnroll", 2);
            put_key(buf, "device");
            put_str(buf, device);
            put_key(buf, "signature_ms");
            put_f64_seq(buf, signature_ms);
        }
        Request::Contribute {
            device,
            network,
            latency_ms,
        } => {
            put_variant(buf, "Contribute", 3);
            put_key(buf, "device");
            put_str(buf, device);
            put_key(buf, "network");
            put_network(buf, network);
            put_key(buf, "latency_ms");
            put_f64(buf, *latency_ms);
        }
    }
}

/// Appends one complete frame — header plus fast-encoded `req`.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] when the encoded payload exceeds
/// [`MAX_PAYLOAD`]; the buffer is restored to its previous length.
pub fn append_request_frame(
    buf: &mut Vec<u8>,
    request_id: u64,
    req: &Request,
) -> Result<(), WireError> {
    let header_at = buf.len();
    buf.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    append_request(buf, req);
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

fn put_network(buf: &mut Vec<u8>, network: &Network) {
    put_map(buf, 3);
    put_key(buf, "name");
    put_str(buf, network.name());
    put_key(buf, "nodes");
    put_seq(buf, network.nodes().len());
    for node in network.nodes() {
        put_node(buf, node);
    }
    put_key(buf, "output");
    put_u64(buf, network.output_id().index() as u64);
}

fn put_node(buf: &mut Vec<u8>, node: &Node) {
    put_map(buf, 4);
    put_key(buf, "id");
    put_u64(buf, node.id.index() as u64);
    put_key(buf, "op");
    put_op(buf, &node.op);
    put_key(buf, "inputs");
    put_seq(buf, node.inputs.len());
    for input in &node.inputs {
        put_u64(buf, input.index() as u64);
    }
    put_key(buf, "output_shape");
    put_shape(buf, node.output_shape);
}

fn put_op(buf: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Input { shape } => {
            put_variant(buf, "Input", 1);
            put_key(buf, "shape");
            put_shape(buf, *shape);
        }
        Op::Conv2d(p) => {
            put_map(buf, 1);
            put_key(buf, "Conv2d");
            put_map(buf, 6);
            put_key(buf, "out_channels");
            put_u64(buf, p.out_channels as u64);
            put_key(buf, "kernel");
            put_u64(buf, p.kernel as u64);
            put_key(buf, "stride");
            put_u64(buf, p.stride as u64);
            put_key(buf, "padding");
            put_padding(buf, p.padding);
            put_key(buf, "groups");
            put_u64(buf, p.groups as u64);
            put_key(buf, "bias");
            put_bool(buf, p.bias);
        }
        Op::DepthwiseConv2d(p) => {
            put_map(buf, 1);
            put_key(buf, "DepthwiseConv2d");
            put_map(buf, 5);
            put_key(buf, "kernel");
            put_u64(buf, p.kernel as u64);
            put_key(buf, "stride");
            put_u64(buf, p.stride as u64);
            put_key(buf, "padding");
            put_padding(buf, p.padding);
            put_key(buf, "multiplier");
            put_u64(buf, p.multiplier as u64);
            put_key(buf, "bias");
            put_bool(buf, p.bias);
        }
        Op::FullyConnected { out_features, bias } => {
            put_variant(buf, "FullyConnected", 2);
            put_key(buf, "out_features");
            put_u64(buf, *out_features as u64);
            put_key(buf, "bias");
            put_bool(buf, *bias);
        }
        Op::Activation(a) => {
            put_map(buf, 1);
            put_key(buf, "Activation");
            put_str(buf, activation_name(*a));
        }
        Op::MaxPool2d(p) => {
            put_map(buf, 1);
            put_key(buf, "MaxPool2d");
            put_pool(buf, p);
        }
        Op::AvgPool2d(p) => {
            put_map(buf, 1);
            put_key(buf, "AvgPool2d");
            put_pool(buf, p);
        }
        Op::GlobalAvgPool => put_str(buf, "GlobalAvgPool"),
        Op::Add => put_str(buf, "Add"),
        Op::Multiply => put_str(buf, "Multiply"),
        Op::Concat => put_str(buf, "Concat"),
    }
}

fn put_pool(buf: &mut Vec<u8>, p: &gdcm_dnn::PoolParams) {
    put_map(buf, 3);
    put_key(buf, "kernel");
    put_u64(buf, p.kernel as u64);
    put_key(buf, "stride");
    put_u64(buf, p.stride as u64);
    put_key(buf, "padding");
    put_padding(buf, p.padding);
}

fn put_padding(buf: &mut Vec<u8>, padding: Padding) {
    match padding {
        Padding::Same => put_str(buf, "Same"),
        Padding::Valid => put_str(buf, "Valid"),
        Padding::Explicit(p) => {
            put_map(buf, 1);
            put_key(buf, "Explicit");
            put_u64(buf, p as u64);
        }
    }
}

fn put_shape(buf: &mut Vec<u8>, shape: TensorShape) {
    put_map(buf, 3);
    put_key(buf, "h");
    put_u64(buf, shape.h as u64);
    put_key(buf, "w");
    put_u64(buf, shape.w as u64);
    put_key(buf, "c");
    put_u64(buf, shape.c as u64);
}

fn activation_name(a: gdcm_dnn::Activation) -> &'static str {
    use gdcm_dnn::Activation::*;
    match a {
        Relu => "Relu",
        Relu6 => "Relu6",
        HSwish => "HSwish",
        HSigmoid => "HSigmoid",
        Sigmoid => "Sigmoid",
        Swish => "Swish",
    }
}

/// Externally-tagged variant head: a 1-entry map whose single value is
/// an `n_fields`-entry map of the variant's named fields.
fn put_variant(buf: &mut Vec<u8>, name: &str, n_fields: usize) {
    put_map(buf, 1);
    put_key(buf, name);
    put_map(buf, n_fields);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.push(TAG_STR);
    super::write_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_key(buf: &mut Vec<u8>, key: &str) {
    super::write_varint(buf, key.len() as u64);
    buf.extend_from_slice(key.as_bytes());
}

fn put_map(buf: &mut Vec<u8>, entries: usize) {
    buf.push(TAG_MAP);
    super::write_varint(buf, entries as u64);
}

fn put_seq(buf: &mut Vec<u8>, items: usize) {
    buf.push(TAG_SEQ);
    super::write_varint(buf, items as u64);
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.push(TAG_U64);
    super::write_varint(buf, v);
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(if v { TAG_TRUE } else { TAG_FALSE });
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.push(TAG_F64);
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_f64_seq(buf: &mut Vec<u8>, values: &[f64]) {
    put_seq(buf, values.len());
    for v in values {
        put_f64(buf, *v);
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decodes a request payload, trying the strict canonical parser first
/// and falling back to the generic content-tree decoder on any
/// deviation.
///
/// # Errors
///
/// Exactly the [`super::decode_value`] contract — the fallback *is*
/// the generic decoder, so accepted inputs and error messages are
/// unchanged.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut cur = Cur { b: payload, pos: 0 };
    match parse_request(&mut cur) {
        Some(req) if cur.pos == payload.len() => Ok(req),
        _ => super::decode_value(payload),
    }
}

/// Splits a canonical `Predict` payload into its device name and the
/// network's raw value bytes, without decoding the network. `None` for
/// anything that is not the exact canonical `Predict` layout — the
/// caller then takes the ordinary decode path.
///
/// `device` and `network` are the last two fields in declaration
/// order, so the network's bytes are simply the remainder of the
/// payload; [`wire_hash`] over that slice identifies the graph content
/// (the encoding is deterministic: equal graphs, equal bytes).
pub fn probe_predict(payload: &[u8]) -> Option<(&str, &[u8])> {
    let mut c = Cur { b: payload, pos: 0 };
    if c.byte()? != TAG_MAP || c.varint()? != 1 || c.raw_str()? != b"Predict" {
        return None;
    }
    c.map(2)?;
    c.key("device")?;
    let device = std::str::from_utf8(c.str_bytes()?).ok()?;
    c.key("network")?;
    let network = &payload[c.pos..];
    (!network.is_empty()).then_some((device, network))
}

/// FNV-1a's 64-bit offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over a whole 64-bit word: xor it in, multiply by
/// the FNV prime. Both [`wire_hash`] and the structural
/// [`network_hash`](crate::serving::network_hash) are built from it.
pub(crate) fn fnv_word(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Folds `bytes` into `h` one [`fnv_word`] step per little-endian
/// 8-byte word, the last word zero-padded.
pub(crate) fn fnv_words(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = match <[u8; 8]>::try_from(word) {
            Ok(raw) => u64::from_le_bytes(raw),
            // Unreachable: chunks_exact yields 8-byte slices.
            Err(_) => continue,
        };
        h = fnv_word(h, word);
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = fnv_word(h, u64::from_le_bytes(tail));
    }
    h
}

/// FNV-1a-style hash over 8-byte words (`fnv_words`), cheap enough
/// to run on every frame. Length is folded in up front so a payload and
/// its zero-padded extension cannot collide. It is also the WAL record
/// checksum, so its output is an on-disk format: the values are pinned
/// by a test. Not cryptographic: an adversarial collision could alias
/// two cache keys, the same exposure the structural
/// [`network_hash`](crate::serving::network_hash) already accepts.
pub fn wire_hash(bytes: &[u8]) -> u64 {
    fnv_words(FNV_OFFSET ^ (bytes.len() as u64), bytes)
}

/// Strict cursor over the canonical byte layout. Every accessor
/// returns `None` on any deviation — truncation, a different tag, an
/// unexpected key — which sends [`decode_request`] to the generic
/// fallback.
struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn byte(&mut self) -> Option<u8> {
        let v = *self.b.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn varint(&mut self) -> Option<u64> {
        let mut out = 0u64;
        for i in 0..10 {
            let byte = self.byte()?;
            let part = u64::from(byte & 0x7f);
            if i == 9 && part > 1 {
                return None;
            }
            out |= part << (7 * i);
            if byte & 0x80 == 0 {
                // Mirror the generic decoder: multi-byte encodings
                // ending in 0x00 are non-canonical and must not be
                // accepted on the fast path either.
                if i > 0 && byte == 0 {
                    return None;
                }
                return Some(out);
            }
        }
        None
    }

    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let raw = self.b.get(self.pos..self.pos.checked_add(len)?)?;
        self.pos += len;
        Some(raw)
    }

    /// Length-prefixed raw bytes (a map key, or a string body after
    /// its tag).
    fn raw_str(&mut self) -> Option<&'a [u8]> {
        let len = self.varint()?;
        self.take(usize::try_from(len).ok()?)
    }

    /// A `Str` node's bytes.
    fn str_bytes(&mut self) -> Option<&'a [u8]> {
        if self.byte()? != TAG_STR {
            return None;
        }
        self.raw_str()
    }

    /// A `Str` node as an owned, UTF-8-validated string.
    fn string(&mut self) -> Option<String> {
        Some(std::str::from_utf8(self.str_bytes()?).ok()?.to_string())
    }

    /// A map header with exactly `entries` entries.
    fn map(&mut self, entries: u64) -> Option<()> {
        (self.byte()? == TAG_MAP && self.varint()? == entries).then_some(())
    }

    /// A map key matching `key` exactly.
    fn key(&mut self, key: &str) -> Option<()> {
        (self.raw_str()? == key.as_bytes()).then_some(())
    }

    /// A sequence header; the count is bounded by the bytes remaining
    /// (each element costs at least `min_bytes_each`), so a hostile
    /// count cannot drive a large allocation.
    fn seq(&mut self, min_bytes_each: usize) -> Option<usize> {
        if self.byte()? != TAG_SEQ {
            return None;
        }
        let len = usize::try_from(self.varint()?).ok()?;
        let remaining = self.b.len() - self.pos;
        (len.saturating_mul(min_bytes_each) <= remaining).then_some(len)
    }

    fn u64(&mut self) -> Option<u64> {
        if self.byte()? != TAG_U64 {
            return None;
        }
        self.varint()
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    fn boolean(&mut self) -> Option<bool> {
        match self.byte()? {
            TAG_TRUE => Some(true),
            TAG_FALSE => Some(false),
            _ => None,
        }
    }

    fn f64(&mut self) -> Option<f64> {
        if self.byte()? != TAG_F64 {
            return None;
        }
        let raw: [u8; 8] = self.take(8)?.try_into().ok()?;
        Some(f64::from_bits(u64::from_le_bytes(raw)))
    }

    fn f64_seq(&mut self) -> Option<Vec<f64>> {
        // An F64 element is 9 bytes (tag + bits).
        let len = self.seq(9)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f64()?);
        }
        Some(out)
    }
}

fn parse_request(c: &mut Cur<'_>) -> Option<Request> {
    match c.byte()? {
        TAG_STR => match c.raw_str()? {
            b"Ping" => Some(Request::Ping),
            b"Stats" => Some(Request::Stats),
            b"Fit" => Some(Request::Fit),
            b"Shutdown" => Some(Request::Shutdown),
            _ => None,
        },
        TAG_MAP => {
            if c.varint()? != 1 {
                return None;
            }
            match c.raw_str()? {
                b"Predict" => {
                    c.map(2)?;
                    c.key("device")?;
                    let device = c.string()?;
                    c.key("network")?;
                    let network = parse_network(c)?;
                    Some(Request::Predict { device, network })
                }
                b"PredictForNewDevice" => {
                    c.map(2)?;
                    c.key("signature_ms")?;
                    let signature_ms = c.f64_seq()?;
                    c.key("network")?;
                    let network = parse_network(c)?;
                    Some(Request::PredictForNewDevice {
                        signature_ms,
                        network,
                    })
                }
                b"OnboardDevice" => {
                    c.map(2)?;
                    c.key("device")?;
                    let device = c.string()?;
                    c.key("signature_ms")?;
                    let signature_ms = c.f64_seq()?;
                    Some(Request::OnboardDevice {
                        device,
                        signature_ms,
                    })
                }
                b"ReEnroll" => {
                    c.map(2)?;
                    c.key("device")?;
                    let device = c.string()?;
                    c.key("signature_ms")?;
                    let signature_ms = c.f64_seq()?;
                    Some(Request::ReEnroll {
                        device,
                        signature_ms,
                    })
                }
                b"Contribute" => {
                    c.map(3)?;
                    c.key("device")?;
                    let device = c.string()?;
                    c.key("network")?;
                    let network = parse_network(c)?;
                    c.key("latency_ms")?;
                    let latency_ms = c.f64()?;
                    Some(Request::Contribute {
                        device,
                        network,
                        latency_ms,
                    })
                }
                _ => None,
            }
        }
        _ => None,
    }
}

fn parse_network(c: &mut Cur<'_>) -> Option<Network> {
    c.map(3)?;
    c.key("name")?;
    let name = c.string()?;
    c.key("nodes")?;
    let len = c.seq(2)?;
    let mut nodes = Vec::with_capacity(len);
    for _ in 0..len {
        nodes.push(parse_node(c)?);
    }
    c.key("output")?;
    let output = NodeId::from_index(c.usize()?);
    // Same construction the generic derive performs: raw parts, no
    // structural validation — the serving layer treats any decoded
    // graph identically on both paths.
    Some(Network::from_raw_parts(name, nodes, output))
}

fn parse_node(c: &mut Cur<'_>) -> Option<Node> {
    c.map(4)?;
    c.key("id")?;
    let id = NodeId::from_index(c.usize()?);
    c.key("op")?;
    let op = parse_op(c)?;
    c.key("inputs")?;
    let len = c.seq(2)?;
    let mut inputs = Vec::with_capacity(len);
    for _ in 0..len {
        inputs.push(NodeId::from_index(c.usize()?));
    }
    c.key("output_shape")?;
    let output_shape = parse_shape(c)?;
    Some(Node {
        id,
        op,
        inputs,
        output_shape,
    })
}

fn parse_op(c: &mut Cur<'_>) -> Option<Op> {
    match c.byte()? {
        TAG_STR => match c.raw_str()? {
            b"GlobalAvgPool" => Some(Op::GlobalAvgPool),
            b"Add" => Some(Op::Add),
            b"Multiply" => Some(Op::Multiply),
            b"Concat" => Some(Op::Concat),
            _ => None,
        },
        TAG_MAP => {
            if c.varint()? != 1 {
                return None;
            }
            match c.raw_str()? {
                b"Input" => {
                    c.map(1)?;
                    c.key("shape")?;
                    Some(Op::Input {
                        shape: parse_shape(c)?,
                    })
                }
                b"Conv2d" => {
                    c.map(6)?;
                    c.key("out_channels")?;
                    let out_channels = c.usize()?;
                    c.key("kernel")?;
                    let kernel = c.usize()?;
                    c.key("stride")?;
                    let stride = c.usize()?;
                    c.key("padding")?;
                    let padding = parse_padding(c)?;
                    c.key("groups")?;
                    let groups = c.usize()?;
                    c.key("bias")?;
                    let bias = c.boolean()?;
                    Some(Op::Conv2d(gdcm_dnn::Conv2dParams {
                        out_channels,
                        kernel,
                        stride,
                        padding,
                        groups,
                        bias,
                    }))
                }
                b"DepthwiseConv2d" => {
                    c.map(5)?;
                    c.key("kernel")?;
                    let kernel = c.usize()?;
                    c.key("stride")?;
                    let stride = c.usize()?;
                    c.key("padding")?;
                    let padding = parse_padding(c)?;
                    c.key("multiplier")?;
                    let multiplier = c.usize()?;
                    c.key("bias")?;
                    let bias = c.boolean()?;
                    Some(Op::DepthwiseConv2d(gdcm_dnn::DepthwiseConv2dParams {
                        kernel,
                        stride,
                        padding,
                        multiplier,
                        bias,
                    }))
                }
                b"FullyConnected" => {
                    c.map(2)?;
                    c.key("out_features")?;
                    let out_features = c.usize()?;
                    c.key("bias")?;
                    let bias = c.boolean()?;
                    Some(Op::FullyConnected { out_features, bias })
                }
                b"Activation" => Some(Op::Activation(match c.str_bytes()? {
                    b"Relu" => gdcm_dnn::Activation::Relu,
                    b"Relu6" => gdcm_dnn::Activation::Relu6,
                    b"HSwish" => gdcm_dnn::Activation::HSwish,
                    b"HSigmoid" => gdcm_dnn::Activation::HSigmoid,
                    b"Sigmoid" => gdcm_dnn::Activation::Sigmoid,
                    b"Swish" => gdcm_dnn::Activation::Swish,
                    _ => return None,
                })),
                b"MaxPool2d" => Some(Op::MaxPool2d(parse_pool(c)?)),
                b"AvgPool2d" => Some(Op::AvgPool2d(parse_pool(c)?)),
                _ => None,
            }
        }
        _ => None,
    }
}

fn parse_pool(c: &mut Cur<'_>) -> Option<gdcm_dnn::PoolParams> {
    c.map(3)?;
    c.key("kernel")?;
    let kernel = c.usize()?;
    c.key("stride")?;
    let stride = c.usize()?;
    c.key("padding")?;
    let padding = parse_padding(c)?;
    Some(gdcm_dnn::PoolParams {
        kernel,
        stride,
        padding,
    })
}

fn parse_padding(c: &mut Cur<'_>) -> Option<Padding> {
    match c.byte()? {
        TAG_STR => match c.raw_str()? {
            b"Same" => Some(Padding::Same),
            b"Valid" => Some(Padding::Valid),
            _ => None,
        },
        TAG_MAP => {
            if c.varint()? != 1 {
                return None;
            }
            c.key("Explicit")?;
            Some(Padding::Explicit(c.usize()?))
        }
        _ => None,
    }
}

fn parse_shape(c: &mut Cur<'_>) -> Option<TensorShape> {
    c.map(3)?;
    c.key("h")?;
    let h = c.usize()?;
    c.key("w")?;
    let w = c.usize()?;
    c.key("c")?;
    let ch = c.usize()?;
    Some(TensorShape::new(h, w, ch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdcm_dnn::{Activation, Conv2dParams, DepthwiseConv2dParams, PoolParams};

    /// A structurally diverse graph exercising every operator variant,
    /// every padding, and every activation. Built from raw parts: the
    /// codec must handle anything the type system allows, not only
    /// builder-validated graphs.
    fn kitchen_sink_network() -> Network {
        let shape = TensorShape::new(16, 16, 8);
        let ops: Vec<Op> = vec![
            Op::Input {
                shape: TensorShape::new(32, 32, 3),
            },
            Op::Conv2d(Conv2dParams {
                out_channels: 8,
                kernel: 3,
                stride: 2,
                padding: Padding::Same,
                groups: 2,
                bias: false,
            }),
            Op::Conv2d(Conv2dParams {
                padding: Padding::Explicit(3),
                ..Conv2dParams::dense(16, 5, 1)
            }),
            Op::DepthwiseConv2d(DepthwiseConv2dParams {
                kernel: 3,
                stride: 1,
                padding: Padding::Valid,
                multiplier: 2,
                bias: true,
            }),
            Op::FullyConnected {
                out_features: 100,
                bias: false,
            },
            Op::MaxPool2d(PoolParams::new(2, 2)),
            Op::AvgPool2d(PoolParams {
                kernel: 3,
                stride: 1,
                padding: Padding::Same,
            }),
            Op::GlobalAvgPool,
            Op::Add,
            Op::Multiply,
            Op::Concat,
        ];
        let ops = ops
            .into_iter()
            .chain(Activation::ALL.into_iter().map(Op::Activation));
        let nodes: Vec<Node> = ops
            .enumerate()
            .map(|(i, op)| Node {
                id: NodeId::from_index(i),
                op,
                inputs: (0..i.min(3)).map(NodeId::from_index).collect(),
                output_shape: shape,
            })
            .collect();
        let last = nodes.len() - 1;
        Network::from_raw_parts("kitchen-sink", nodes, NodeId::from_index(last))
    }

    fn all_requests() -> Vec<Request> {
        let net = kitchen_sink_network();
        vec![
            Request::Ping,
            Request::Stats,
            Request::Fit,
            Request::Shutdown,
            Request::Predict {
                device: "pixel-4".to_string(),
                network: net.clone(),
            },
            Request::PredictForNewDevice {
                signature_ms: vec![1.5, -0.0, f64::MAX, f64::MIN_POSITIVE],
                network: net.clone(),
            },
            Request::OnboardDevice {
                device: "héllo-wörld".to_string(),
                signature_ms: vec![],
            },
            Request::ReEnroll {
                device: "mate-30".to_string(),
                signature_ms: vec![0.25; 7],
            },
            Request::Contribute {
                device: "pixel-4".to_string(),
                network: net,
                latency_ms: 123.456_789_012_345_67,
            },
        ]
    }

    #[test]
    fn fast_encoding_is_byte_identical_to_generic() {
        for req in all_requests() {
            let generic = crate::protocol::wire::encode_value(&req).expect("generic encodes");
            let mut fast = Vec::new();
            append_request(&mut fast, &req);
            assert_eq!(fast, generic, "encoding diverged for {req:?}");
        }
    }

    #[test]
    fn fast_decoding_round_trips_every_variant() {
        for req in all_requests() {
            let mut bytes = Vec::new();
            append_request(&mut bytes, &req);
            let back = decode_request(&bytes).expect("decodes");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn fast_frames_match_generic_frames() {
        for req in all_requests() {
            let mut generic = Vec::new();
            crate::protocol::wire::append_frame(&mut generic, 7_777, &req).expect("frames");
            let mut fast = Vec::new();
            append_request_frame(&mut fast, 7_777, &req).expect("frames");
            assert_eq!(fast, generic, "frame bytes diverged for {req:?}");
        }
    }

    #[test]
    fn reordered_maps_fall_back_to_the_generic_decoder() {
        // A valid encoding the strict parser does not recognize:
        // Predict's fields in swapped order. The generic decoder takes
        // fields by name, so this must still decode.
        let net = kitchen_sink_network();
        let mut bytes = Vec::new();
        put_map(&mut bytes, 1);
        put_key(&mut bytes, "Predict");
        put_map(&mut bytes, 2);
        put_key(&mut bytes, "network");
        put_network(&mut bytes, &net);
        put_key(&mut bytes, "device");
        put_str(&mut bytes, "pixel-4");
        match decode_request(&bytes).expect("fallback decodes") {
            Request::Predict { device, network } => {
                assert_eq!(device, "pixel-4");
                assert_eq!(network, net);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn garbage_and_truncation_report_generic_errors() {
        assert!(decode_request(&[0xff, 0xfe]).is_err());
        assert!(decode_request(&[]).is_err());
        let mut bytes = Vec::new();
        append_request(&mut bytes, &Request::Ping);
        bytes.push(0x00); // trailing byte
        assert!(decode_request(&bytes).is_err());
        let mut bytes = Vec::new();
        append_request(
            &mut bytes,
            &Request::Predict {
                device: "d".to_string(),
                network: kitchen_sink_network(),
            },
        );
        for cut in 0..bytes.len() {
            assert!(
                decode_request(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn probe_splits_predict_into_device_and_network_bytes() {
        let net = kitchen_sink_network();
        let mut payload = Vec::new();
        append_request(
            &mut payload,
            &Request::Predict {
                device: "pixel-4".to_string(),
                network: net.clone(),
            },
        );
        let (device, network_bytes) = probe_predict(&payload).expect("probes");
        assert_eq!(device, "pixel-4");
        let expected = crate::protocol::wire::encode_value(&net).expect("encodes");
        assert_eq!(network_bytes, &expected[..]);
        // Equal graphs hash equal; a different graph hashes different.
        let mut other = Vec::new();
        append_request(
            &mut other,
            &Request::Predict {
                device: "pixel-4".to_string(),
                network: Network::from_raw_parts("other", vec![], NodeId::from_index(0)),
            },
        );
        let (_, other_bytes) = probe_predict(&other).expect("probes");
        assert_eq!(wire_hash(network_bytes), wire_hash(&expected));
        assert_ne!(wire_hash(network_bytes), wire_hash(other_bytes));
    }

    #[test]
    fn wire_hash_values_are_pinned() {
        // wire_hash checksums every WAL record, so a changed output
        // would make recovery read every logged record as corrupt.
        let msg = b"binary-v1 wal";
        for (bytes, want) in [
            (&msg[..0], 0xcbf2_9ce4_8422_2325u64),
            (&msg[..7], 0xb9bd_5f67_a0a2_2ac0),
            (&msg[..8], 0xefbd_6e67_a0a2_443d),
            (&msg[..13], 0x33f5_0dfa_5d1d_d3fd),
        ] {
            assert_eq!(wire_hash(bytes), want, "{} bytes", bytes.len());
        }
        let mut predict = Vec::new();
        append_request(
            &mut predict,
            &Request::Predict {
                device: "pixel-4".to_string(),
                network: kitchen_sink_network(),
            },
        );
        assert_eq!(predict.len(), 1497);
        assert_eq!(wire_hash(&predict), 0xfe49_dacc_bc5e_c76d);
    }

    #[test]
    fn probe_rejects_everything_that_is_not_a_canonical_predict() {
        let net = kitchen_sink_network();
        for req in all_requests() {
            if matches!(req, Request::Predict { .. }) {
                continue;
            }
            let mut payload = Vec::new();
            append_request(&mut payload, &req);
            assert!(
                probe_predict(&payload).is_none(),
                "probe must not match {req:?}"
            );
        }
        // Reordered fields are valid input but not canonical: the probe
        // must decline so the generic path (which accepts them) serves.
        let mut swapped = Vec::new();
        put_map(&mut swapped, 1);
        put_key(&mut swapped, "Predict");
        put_map(&mut swapped, 2);
        put_key(&mut swapped, "network");
        put_network(&mut swapped, &net);
        put_key(&mut swapped, "device");
        put_str(&mut swapped, "pixel-4");
        assert!(probe_predict(&swapped).is_none());
        assert!(probe_predict(&[]).is_none());
    }

    #[test]
    fn hostile_sequence_counts_cannot_drive_allocation() {
        // OnboardDevice claiming u32::MAX signature latencies with no
        // bytes behind them: both the strict parser and the fallback
        // must refuse.
        let mut bytes = Vec::new();
        put_map(&mut bytes, 1);
        put_key(&mut bytes, "OnboardDevice");
        put_map(&mut bytes, 2);
        put_key(&mut bytes, "device");
        put_str(&mut bytes, "d");
        put_key(&mut bytes, "signature_ms");
        bytes.push(TAG_SEQ);
        crate::protocol::wire::write_varint(&mut bytes, u64::from(u32::MAX));
        assert!(decode_request(&bytes).is_err());
    }
}
