//! A socket-free driver for the server's per-connection state machine.
//!
//! The production [`crate::server`] connection state machine is
//! generic over a byte-stream `Transport` seam; this module substitutes
//! a *scripted* in-memory transport so conformance tooling
//! (`gdcm-wirecheck`) can drive the **identical** connection code —
//! same preamble gate, framing, backpressure, and drain logic — through
//! exhaustively enumerated event schedules: bytes arriving in arbitrary
//! chunk splits, partial or stalled writes, mid-frame disconnects.
//!
//! Nothing here is stubbed or simplified: [`ConnHarness::pump`] calls
//! the same `Conn::pump` a live TCP connection runs, against a real
//! [`ServingRepository`], with real shared counters. The only
//! difference is where the bytes come from and go to.

use std::collections::VecDeque;
use std::io::{Error, ErrorKind};
use std::sync::atomic::Ordering;

use crate::refresh::{IngestPipeline, RefreshConfig};
use crate::server::{Conn, Scratch, ServerShared, Transport};
use crate::serving::ServingRepository;

/// Unprocessed-input cap per connection, re-exported for invariant
/// checks (`Conn` drops the connection above it).
pub const MAX_BUFFERED_INPUT: usize = crate::server::MAX_BUFFERED_INPUT;

/// Pending-output level above which a connection stops consuming new
/// requests, re-exported for invariant checks.
pub const WRITE_HIGH_WATER: usize = crate::server::WRITE_HIGH_WATER;

/// Bytes the sweep reads per `read` call, re-exported so schedule
/// enumerations can reason about read granularity.
pub const READ_CHUNK: usize = crate::server::READ_CHUNK;

/// A scripted byte-stream endpoint with non-blocking socket semantics:
/// queued chunks are handed to the server one `read` at a time,
/// written bytes are captured, and an optional per-call write quota
/// models a peer that drains slowly (or not at all).
#[derive(Debug, Default)]
pub struct ScriptedTransport {
    incoming: VecDeque<Vec<u8>>,
    eof: bool,
    captured: Vec<u8>,
    /// `None` — unlimited; `Some(n)` — at most `n` bytes accepted per
    /// `write` call (`Some(0)` stalls the peer: every write would
    /// block).
    write_quota: Option<usize>,
}

impl ScriptedTransport {
    /// An open transport with nothing queued.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a chunk the server's next `read` calls will see. Each
    /// queued chunk is delivered by at least one distinct `read`, so a
    /// k-way split of a byte sequence exercises k read boundaries.
    pub fn deliver(&mut self, bytes: &[u8]) {
        if !bytes.is_empty() {
            self.incoming.push_back(bytes.to_vec());
        }
    }

    /// Marks end-of-stream: once the queue drains, reads return EOF
    /// (`Ok(0)`) exactly like a closed socket.
    pub fn close_write(&mut self) {
        self.eof = true;
    }

    /// Sets the per-call write quota (see [`ScriptedTransport`]).
    pub fn set_write_quota(&mut self, quota: Option<usize>) {
        self.write_quota = quota;
    }

    /// Takes everything the server has written so far.
    pub fn take_captured(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.captured)
    }
}

impl Transport for ScriptedTransport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.incoming.pop_front() {
            Some(mut chunk) => {
                let n = chunk.len().min(buf.len());
                buf[..n].copy_from_slice(&chunk[..n]);
                if n < chunk.len() {
                    chunk.drain(..n);
                    self.incoming.push_front(chunk);
                }
                Ok(n)
            }
            None if self.eof => Ok(0),
            None => Err(Error::from(ErrorKind::WouldBlock)),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = match self.write_quota {
            Some(0) => return Err(Error::from(ErrorKind::WouldBlock)),
            Some(quota) => quota.min(buf.len()),
            None => buf.len(),
        };
        self.captured.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

/// One in-memory connection against a live [`ServingRepository`]:
/// scripted input in, captured output out, full state-machine
/// introspection in between.
pub struct ConnHarness<'a> {
    shared: ServerShared<'a>,
    conn: Conn<ScriptedTransport>,
    scratch: Scratch,
}

impl<'a> ConnHarness<'a> {
    /// A fresh connection awaiting its preamble, over the same counters
    /// and flags as a live server with an in-memory pipeline and no
    /// listeners.
    #[must_use]
    pub fn new(serving: &'a ServingRepository) -> Self {
        let pipeline = IngestPipeline::new(serving, RefreshConfig::default());
        let shared = ServerShared::new(pipeline, None, None);
        let conn = Conn::new(&shared, ScriptedTransport::new());
        Self {
            shared,
            conn,
            scratch: Scratch::new(),
        }
    }

    /// Queues bytes for the server's next reads (one chunk — one read
    /// boundary).
    pub fn deliver(&mut self, bytes: &[u8]) {
        self.conn.transport_mut().deliver(bytes);
    }

    /// Half-closes the client side: the server sees EOF after the
    /// queued chunks drain.
    pub fn eof(&mut self) {
        self.conn.transport_mut().close_write();
    }

    /// Sets the peer's per-call write quota (`Some(0)` = stalled peer).
    pub fn set_write_quota(&mut self, quota: Option<usize>) {
        self.conn.transport_mut().set_write_quota(quota);
    }

    /// One readiness sweep: read, process, flush — the production
    /// `Conn::pump`. Returns whether anything moved.
    pub fn pump(&mut self) -> bool {
        self.conn.pump(&self.shared, &mut self.scratch)
    }

    /// Pumps until a sweep makes no progress or `max_sweeps` is spent.
    /// Returns the number of sweeps that made progress; a return of
    /// `max_sweeps` means the drain budget was exhausted, which the
    /// model check treats as a stuck connection.
    pub fn pump_until_quiet(&mut self, max_sweeps: usize) -> usize {
        let mut spent = 0;
        while spent < max_sweeps {
            if !self.pump() {
                return spent;
            }
            spent += 1;
        }
        spent
    }

    /// Takes everything the server has flushed so far.
    pub fn take_output(&mut self) -> Vec<u8> {
        self.conn.transport_mut().take_captured()
    }

    /// Whether the connection has been reaped (broken framing, EOF
    /// drain complete, or transport failure).
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.conn.dead
    }

    /// Whether the connection stopped reading and will close once its
    /// output flushes.
    #[must_use]
    pub fn is_closing(&self) -> bool {
        self.conn.closing
    }

    /// Unprocessed input currently buffered (must stay under
    /// [`MAX_BUFFERED_INPUT`]).
    #[must_use]
    pub fn buffered_input(&self) -> usize {
        self.conn.buf.len() - self.conn.consumed
    }

    /// Output enqueued but not yet accepted by the peer.
    #[must_use]
    pub fn pending_output(&self) -> usize {
        self.conn.out.len() - self.conn.written
    }

    /// Whether the connection's thread, after an idle sweep, would block
    /// until the peer sends (`true`) rather than sleep (`false`). A
    /// wrong `true` is a busy loop.
    #[must_use]
    pub fn awaits_input(&self) -> bool {
        self.conn.awaits_input()
    }

    /// Whether a `Shutdown` request flipped the server's stop flag.
    #[must_use]
    pub fn shutdown_triggered(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Requests answered on this connection (errors included).
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.shared.requests.load(Ordering::SeqCst)
    }

    /// Requests answered with an error response.
    #[must_use]
    pub fn request_errors(&self) -> u64 {
        self.shared.request_errors.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{wire, Request, Response};
    use crate::serving::{ServeConfig, ServingRepository};
    use gdcm_core::{CollaborativeRepository, CostDataset, RepositoryConfig};
    use gdcm_ml::GbdtParams;

    fn tiny_serving() -> ServingRepository {
        let data = CostDataset::tiny(7, 4, 4);
        let repo = CollaborativeRepository::new(
            data.encoder.clone(),
            2,
            RepositoryConfig {
                gbdt: GbdtParams {
                    n_estimators: 4,
                    ..GbdtParams::default()
                },
                min_rows: 1,
            },
        );
        ServingRepository::new(repo, ServeConfig::default())
    }

    fn frame(id: u64, req: &Request) -> Vec<u8> {
        let mut buf = Vec::new();
        wire::append_frame(&mut buf, id, req).expect("frames");
        buf
    }

    #[test]
    fn scripted_ping_answers_in_memory() {
        let serving = tiny_serving();
        let mut h = ConnHarness::new(&serving);
        h.deliver(&wire::preamble());
        h.deliver(&frame(42, &Request::Ping));
        h.pump_until_quiet(16);
        let out = h.take_output();
        let header = wire::decode_frame_header(&out).expect("header");
        assert_eq!(header.request_id, 42);
        let resp: Response =
            wire::decode_value(&out[wire::FRAME_HEADER_LEN..]).expect("payload decodes");
        assert_eq!(resp, Response::Pong);
        assert_eq!(h.requests(), 1);
        assert!(!h.is_dead());
    }

    #[test]
    fn byte_at_a_time_delivery_matches_batch() {
        let serving = tiny_serving();
        let mut whole = ConnHarness::new(&serving);
        let mut split = ConnHarness::new(&serving);
        let mut bytes = wire::preamble().to_vec();
        bytes.extend_from_slice(&frame(7, &Request::Ping));
        whole.deliver(&bytes);
        whole.pump_until_quiet(16);
        for b in &bytes {
            split.deliver(&[*b]);
            split.pump();
        }
        split.pump_until_quiet(16);
        assert_eq!(whole.take_output(), split.take_output());
    }

    #[test]
    fn stalled_peer_blocks_flush_until_quota_returns() {
        let serving = tiny_serving();
        let mut h = ConnHarness::new(&serving);
        h.set_write_quota(Some(0));
        h.deliver(&wire::preamble());
        h.deliver(&frame(1, &Request::Ping));
        h.pump_until_quiet(16);
        assert!(h.pending_output() > 0, "response parked in the out buffer");
        assert_eq!(h.take_output(), Vec::<u8>::new());
        h.set_write_quota(None);
        h.pump_until_quiet(16);
        assert_eq!(h.pending_output(), 0);
        let out = h.take_output();
        assert_eq!(
            wire::decode_frame_header(&out).expect("header").request_id,
            1
        );
    }

    #[test]
    fn idle_connection_blocks_only_when_waiting_on_its_peer() {
        let serving = tiny_serving();
        let opened = |req: &Request| [wire::preamble().to_vec(), frame(1, req)].concat();
        let (ping, shutdown) = (opened(&Request::Ping), opened(&Request::Shutdown));
        // (state, input, stalled peer, EOF, blocks on the socket)
        let cases: [(&str, &[u8], bool, bool, bool); 5] = [
            ("fresh", &[], false, false, true),
            ("ping answered", &ping, false, false, true),
            ("stalled peer, response pending", &ping, true, false, false),
            ("EOF, output pending", &ping, true, true, false),
            ("closing, output stalled", &shutdown, true, false, false),
        ];
        for (state, input, stalled, eof, blocks) in cases {
            let mut h = ConnHarness::new(&serving);
            h.set_write_quota(stalled.then_some(0));
            h.deliver(input);
            if eof {
                h.eof();
            }
            h.pump_until_quiet(16);
            assert!(!h.is_dead(), "{state}");
            assert_eq!(h.pending_output() > 0, stalled, "{state}");
            assert_eq!(h.is_closing(), input == shutdown.as_slice(), "{state}");
            assert_eq!(h.awaits_input(), blocks, "{state}");
        }
    }

    #[test]
    fn eof_mid_frame_closes_without_answering() {
        let serving = tiny_serving();
        let mut h = ConnHarness::new(&serving);
        let framed = frame(9, &Request::Ping);
        h.deliver(&wire::preamble());
        h.deliver(&framed[..framed.len() / 2]);
        h.eof();
        h.pump_until_quiet(16);
        assert!(h.is_dead());
        assert_eq!(h.requests(), 0);
        assert_eq!(h.take_output(), Vec::<u8>::new());
    }
}
