//! The TCP server: a non-blocking readiness loop with per-connection
//! state machines, `binary-v1` framing, and graceful shutdown.
//!
//! Safe Rust only, on `std::net`. There is no `poll(2)` in safe std, so
//! readiness is emulated the portable way: every socket is switched to
//! non-blocking mode and a small set of event-loop *shards* sweeps its
//! connections — read until `WouldBlock`, process every complete
//! request buffered so far, flush until `WouldBlock` — backing off to
//! `yield_now` and then `park_timeout` only when a full sweep makes no
//! progress. The accept loop runs shard 0 on the calling thread; the
//! `gdcm-par` budget (`GDCM_THREADS`) sizes additional shard threads,
//! with accepted connections dealt round-robin:
//!
//! * budget 1 — one shard, on the accept thread: the exact serial
//!   path (mirroring `gdcm-par`'s own serial short-circuit).
//! * budget N>1 — N shards; each connection lives on one shard for its
//!   whole life, so request handling needs no cross-thread locking and
//!   `reqtrace`'s thread-local spans stay coherent.
//!
//! ## One protocol
//!
//! The listener speaks `binary-v1` only ([`crate::protocol::wire`]
//! documents the framing). Every connection opens with the 8-byte
//! preamble, checked once per connection:
//!
//! * a first byte other than `0x00` is not a binary-v1 client, and a
//!   NUL-led opening with bad magic has no protocol to answer in —
//!   either way the connection closes with nothing written;
//! * a preamble asking for a version this build does not speak answers
//!   one `unsupported_protocol` frame (framing is version-stable), then
//!   closes;
//! * otherwise the connection carries length-prefixed frames and may
//!   *pipeline*: any number of requests in flight, each response tagged
//!   with its request id. Requests on one connection are processed in
//!   order, so response *values* are bit-identical to sending the same
//!   requests sequentially.
//!
//! ## Shutdown
//!
//! `Shutdown` is still the SIGTERM-equivalent drain: the stop flag
//! flips, the accept loop stops accepting and closes the shard
//! channels, and every shard keeps sweeping until its remaining
//! connections disconnect. Nothing is aborted mid-request and every
//! buffered response is flushed.
//!
//! ## One request path
//!
//! Each frame tries the wire fast lane, then decodes, and hands the
//! result to one request core (`serve_request`) that dispatches,
//! counts, serializes, times and records every request the same way.
//! The frame's request id is the request's trace id. A refused
//! oversized frame goes through the same core, so it is counted like
//! any other error.
//!
//! Instrumentation that is always on: the per-server request, error
//! and connection counts ([`ServerSummary`], ops `health`), the
//! repository's cache counters ([`ServingRepository::cache_stats`]),
//! a `serve/request_ms` latency histogram, and the
//! `serve/open_connections` / `serve/workers` gauges — plain atomics
//! and registry writes, no event emission.
//!
//! Live telemetry is opt-in: handing [`serve`] an ops listener starts
//! the [`crate::ops`] endpoint and turns on per-request recording —
//! stage spans (`read`/`parse`/`cache_lookup`/`predict`/`serialize`/
//! `write`) through `gdcm_obs::reqtrace`, windowed qps/latency/error/
//! cache counters, and slow-log admission. Without an ops listener none
//! of that code runs: the request loop checks one plain `bool` and the
//! hot path stays byte-for-byte the uninstrumented one (`bench_serve`
//! asserts the enabled cost too). In the event-driven loop the `read`
//! stage spans from the previous request's completion to this
//! request's dispatch (client idle time included, as before), and the
//! `write` stage measures enqueue into the connection's output buffer —
//! the socket write itself is batched across pipelined responses.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

use crate::protocol::wire;
use crate::protocol::{codes, request_label, Request, Response};
use crate::refresh::IngestPipeline;
use crate::serving::{network_hash, CacheStats, ServingRepository};

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Event-loop shards. 1 sweeps every connection on the accept
    /// thread. Defaults to the `gdcm-par` thread budget.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: gdcm_par::threads().max(1),
        }
    }
}

/// What the server did before it stopped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerSummary {
    /// Connections accepted and handled.
    pub connections: u64,
    /// Requests answered (errors included).
    pub requests: u64,
    /// Requests answered with [`Response::Error`].
    pub request_errors: u64,
}

/// Shared per-server state (also read by the [`crate::ops`] endpoint).
pub(crate) struct ServerShared<'a> {
    /// The serving repository and the one path every mutation takes to
    /// it (WAL-then-apply when the pipeline has a log, a plain apply
    /// otherwise).
    pub(crate) ingest: IngestPipeline<'a>,
    pub(crate) stop: AtomicBool,
    pub(crate) requests: AtomicU64,
    pub(crate) request_errors: AtomicU64,
    pub(crate) connections: AtomicU64,
    open_connections: AtomicI64,
    /// Whether per-request telemetry (traces, windowed metrics, slow
    /// log) records. True exactly when an ops listener is attached.
    pub(crate) telemetry: bool,
    /// Flipped by the ops `quiesce` verb; reported by `health`.
    pub(crate) draining: AtomicBool,
    /// Tells the ops accept loop to exit.
    pub(crate) ops_stop: AtomicBool,
    ops_addr: Option<SocketAddr>,
    /// Server start, for uptime reporting.
    pub(crate) started: Instant,
    pub(crate) workers: usize,
}

impl<'a> ServerShared<'a> {
    /// Fresh counters and flags; telemetry records exactly when an ops
    /// listener (`ops_addr`) is attached. The socket-free harness
    /// ([`crate::harness`]) builds one with no listener at all.
    pub(crate) fn new(
        ingest: IngestPipeline<'a>,
        ops_addr: Option<SocketAddr>,
        workers: usize,
    ) -> Self {
        ServerShared {
            ingest,
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            request_errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            open_connections: AtomicI64::new(0),
            telemetry: ops_addr.is_some(),
            draining: AtomicBool::new(false),
            ops_stop: AtomicBool::new(false),
            ops_addr,
            started: Instant::now(),
            workers,
        }
    }

    /// Flags shutdown; the non-blocking accept loop observes it within
    /// one park interval without needing a wake-up connection.
    fn trigger_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// The ops accept loop *does* block, so it still gets the classic
    /// wake-up-connection poke.
    fn trigger_ops_shutdown(&self) {
        if let Some(addr) = self.ops_addr {
            if !self.ops_stop.swap(true, Ordering::SeqCst) {
                let _ = TcpStream::connect(addr);
            }
        }
    }

    fn track_open(&self, delta: i64) {
        let open = self.open_connections.fetch_add(delta, Ordering::SeqCst) + delta;
        gdcm_obs::gauge("serve/open_connections").set(open as f64);
    }
}

/// Bytes read from a socket per `read` call.
pub(crate) const READ_CHUNK: usize = 64 * 1024;
/// Bytes read from one connection per sweep before yielding to its
/// shard neighbours.
const READ_BURST: usize = 256 * 1024;
/// Unprocessed input cap per connection; a frame backlog larger than
/// this drops the connection.
pub(crate) const MAX_BUFFERED_INPUT: usize = 64 * 1024 * 1024;
/// Pending-output level above which a connection stops consuming new
/// requests until the peer drains responses (pipelining backpressure).
pub(crate) const WRITE_HIGH_WATER: usize = 1024 * 1024;
/// No-progress sweeps spent on `yield_now` before parking.
const SPIN_SWEEPS: u32 = 128;
/// First and largest park interval once a shard goes idle.
const PARK_MIN: Duration = Duration::from_micros(100);
const PARK_MAX: Duration = Duration::from_millis(2);

/// Runs the server until a client sends [`Request::Shutdown`]. Returns
/// the traffic summary after a graceful drain.
///
/// Every mutating request (`contribute` / `onboard_device` /
/// `re_enroll` / `fit`) goes through `pipeline`: WAL-logged before it
/// is applied when the pipeline has a log ([`IngestPipeline::with_wal`]),
/// applied directly otherwise ([`IngestPipeline::new`]). When the
/// pipeline needs one, a background thread refits and atomically swaps
/// the model as contributions accumulate; it is stopped and joined
/// before this returns.
///
/// `ops_listener` attaches the [`crate::ops`] endpoint (`health` /
/// `metrics` / `slowlog` / `quiesce`) and turns on per-request
/// telemetry — request-trace stage spans, windowed metrics, and the
/// slow log — exactly when it is `Some`. The ops listener stops when
/// the main server does.
///
/// # Errors
///
/// Propagates listener failures (bind errors surface earlier, at
/// `TcpListener::bind`; accept errors on a healthy listener are
/// per-connection and logged, not fatal).
pub fn serve(
    listener: TcpListener,
    ops_listener: Option<TcpListener>,
    pipeline: IngestPipeline<'_>,
    config: ServerConfig,
) -> std::io::Result<ServerSummary> {
    let _span = gdcm_obs::span!("serve/server");
    listener.set_nonblocking(true)?;
    let ops_addr = ops_listener
        .as_ref()
        .map(TcpListener::local_addr)
        .transpose()?;
    let workers = config.workers.max(1);
    let shared = ServerShared::new(pipeline, ops_addr, workers);
    gdcm_obs::gauge("serve/workers").set(workers as f64);

    let shared = &shared;
    std::thread::scope(|outer| {
        let ops_handle =
            ops_listener.map(|ops| outer.spawn(move || crate::ops::run_ops(ops, shared)));
        let refresher = shared
            .ingest
            .refresher_needed()
            .then(|| outer.spawn(|| shared.ingest.run()));

        // Shards 1.. run on their own threads; shard 0 shares the
        // accept thread so `workers == 1` spawns nothing.
        let mut senders: Vec<Sender<TcpStream>> = Vec::with_capacity(workers - 1);
        let mut shard_handles = Vec::with_capacity(workers - 1);
        for _ in 1..workers {
            let (tx, rx) = channel::<TcpStream>();
            senders.push(tx);
            shard_handles.push(outer.spawn(move || shard_loop(shared, &rx)));
        }
        accept_loop(shared, &listener, senders);
        for handle in shard_handles {
            // Shard closures don't panic; join errors would only
            // reflect a panic escaping the request path's catch-all.
            let _ = handle.join();
        }

        // Request traffic has drained: stop the refresher (mid-refresh
        // work completes — the swap and compaction are not torn), then
        // the ops endpoint.
        if let Some(handle) = refresher {
            shared.ingest.stop();
            let _ = handle.join();
        }
        shared.trigger_ops_shutdown();
        if let Some(handle) = ops_handle {
            let _ = handle.join();
        }
    });

    Ok(ServerSummary {
        connections: shared.connections.load(Ordering::SeqCst),
        requests: shared.requests.load(Ordering::SeqCst),
        request_errors: shared.request_errors.load(Ordering::SeqCst),
    })
}

/// Shard 0 + accept duty: polls the listener, deals connections round-
/// robin across shards (itself included), sweeps its own connections,
/// and on stop closes the shard channels and drains its share.
fn accept_loop(
    shared: &ServerShared<'_>,
    listener: &TcpListener,
    mut senders: Vec<Sender<TcpStream>>,
) {
    let slots = senders.len() + 1;
    let mut rr = 0usize;
    run_shard(shared, |conns| {
        if shared.stop.load(Ordering::SeqCst) {
            // Channel close is the drain signal the other shards exit on.
            senders.clear();
            return (false, true);
        }
        let mut progress = false;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    shared.connections.fetch_add(1, Ordering::SeqCst);
                    progress = true;
                    let slot = rr % slots;
                    rr = rr.wrapping_add(1);
                    if slot == 0 {
                        conns.push(Conn::new(shared, stream));
                    } else if let Err(back) = senders[slot - 1].send(stream) {
                        // Unreachable: shards outlive the senders.
                        conns.push(Conn::new(shared, back.0));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return (progress, false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    gdcm_obs::event(
                        "accept_error",
                        "serve",
                        &[("error", gdcm_obs::FieldValue::Str(e.to_string()))],
                    );
                    return (progress, false);
                }
            }
        }
    });
}

/// A spawned shard: sweeps connections handed over the channel until
/// the channel closes *and* every connection has drained.
fn shard_loop(shared: &ServerShared<'_>, rx: &Receiver<TcpStream>) {
    run_shard(shared, |conns| {
        let mut progress = false;
        loop {
            match rx.try_recv() {
                Ok(stream) => {
                    conns.push(Conn::new(shared, stream));
                    progress = true;
                }
                Err(TryRecvError::Empty) => return (progress, false),
                Err(TryRecvError::Disconnected) => return (progress, true),
            }
        }
    });
}

/// One shard's event loop. Each round `intake` adds new connections and
/// reports `(progress, closed)`; every connection is then pumped once
/// and the finished ones reaped. The loop returns once intake is closed
/// and every connection has drained.
///
/// Idle strategy: stay hot through `yield_now` while traffic looks
/// imminent, then park with exponential backoff up to [`PARK_MAX`] so
/// a quiet server costs ~no CPU but still notices the stop flag fast.
fn run_shard(shared: &ServerShared<'_>, mut intake: impl FnMut(&mut Vec<Conn>) -> (bool, bool)) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = Scratch::new();
    let mut idle: u32 = 0;
    let mut park = PARK_MIN;
    loop {
        let (mut progress, closed) = intake(&mut conns);
        for conn in &mut conns {
            progress |= conn.pump(shared, &mut scratch);
        }
        let before = conns.len();
        conns.retain(|c| !c.dead);
        let reaped = before - conns.len();
        if reaped > 0 {
            #[allow(clippy::cast_possible_wrap)]
            shared.track_open(-(reaped as i64));
            progress = true;
        }
        if closed && conns.is_empty() {
            return;
        }
        if progress {
            idle = 0;
            park = PARK_MIN;
        } else {
            idle = idle.saturating_add(1);
            if idle <= SPIN_SWEEPS {
                std::thread::yield_now();
            } else {
                std::thread::park_timeout(park);
                park = (park * 2).min(PARK_MAX);
            }
        }
    }
}

/// The byte-stream seam under a connection's state machine. Production
/// connections run on [`TcpStream`]; the conformance harness
/// ([`crate::harness`]) substitutes a scripted in-memory transport so
/// the exact same `Conn` code can be model-checked without sockets.
///
/// Both calls follow non-blocking socket semantics: `Ok(0)` on read
/// means EOF, [`ErrorKind::WouldBlock`] means "nothing right now".
pub(crate) trait Transport {
    /// Reads available bytes into `buf`.
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize>;
    /// Writes as much of `buf` as the peer accepts right now.
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize>;
    /// One-time socket setup on connection registration. The default
    /// does nothing (in-memory transports need none).
    fn prepare(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Transport for TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        Read::read(self, buf)
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Write::write(self, buf)
    }

    fn prepare(&mut self) -> std::io::Result<()> {
        // Responses can be small; without TCP_NODELAY each flush can
        // wait on the peer's delayed ACK.
        let _ = self.set_nodelay(true);
        self.set_nonblocking(true)
    }
}

/// Per-shard scratch reused across every connection and request: the
/// socket read chunk and the response serialize buffer.
pub(crate) struct Scratch {
    chunk: Vec<u8>,
    ser: Vec<u8>,
}

impl Scratch {
    pub(crate) fn new() -> Self {
        Self {
            chunk: vec![0u8; READ_CHUNK],
            ser: Vec::with_capacity(4096),
        }
    }
}

/// What handling one request decided about the connection's future.
enum Outcome {
    /// Keep serving.
    Continue,
    /// Response enqueued; flush it, then close (shutdown or a framing
    /// violation).
    CloseAfterFlush,
    /// Unrecoverable (serialization failed); drop without flushing.
    Fatal,
}

/// One connection's state machine: read buffer, write buffer, preamble
/// state, and lifecycle flags. All buffers are owned and reused for the
/// connection's lifetime. Generic over the [`Transport`] so the
/// harness can drive the identical state machine in memory.
pub(crate) struct Conn<T: Transport = TcpStream> {
    stream: T,
    /// Unparsed input; `consumed` marks the handled prefix.
    pub(crate) buf: Vec<u8>,
    pub(crate) consumed: usize,
    /// Pending output; `written` marks the flushed prefix.
    pub(crate) out: Vec<u8>,
    pub(crate) written: usize,
    /// The preamble was accepted; the remaining input is frames.
    framed: bool,
    /// Peer closed its write half; serve what is buffered, then close.
    peer_eof: bool,
    /// Stop reading; close once `out` is flushed.
    pub(crate) closing: bool,
    /// Finished (or broken): reap on the next sweep.
    pub(crate) dead: bool,
    /// When the previous request on this connection finished, for the
    /// `read` stage span (includes client idle time, as documented).
    prev_done_us: u64,
}

impl<T: Transport> Conn<T> {
    pub(crate) fn new(shared: &ServerShared<'_>, mut stream: T) -> Self {
        shared.track_open(1);
        let dead = stream.prepare().is_err();
        Self {
            stream,
            buf: Vec::with_capacity(4096),
            consumed: 0,
            out: Vec::with_capacity(4096),
            written: 0,
            framed: false,
            peer_eof: false,
            closing: false,
            dead,
            prev_done_us: gdcm_obs::timestamp_us(),
        }
    }

    /// The underlying transport, for harness inspection.
    pub(crate) fn transport_mut(&mut self) -> &mut T {
        &mut self.stream
    }

    /// One readiness sweep over this connection: read what the socket
    /// has, process every complete request, flush what the socket
    /// takes. Returns whether anything moved.
    pub(crate) fn pump(&mut self, shared: &ServerShared<'_>, scratch: &mut Scratch) -> bool {
        if self.dead {
            return false;
        }
        let mut progress = false;
        // Read — unless closing, the peer is done, or backpressure from
        // an unflushed output backlog says to stop consuming.
        if !self.closing && !self.peer_eof && self.out.len() - self.written < WRITE_HIGH_WATER {
            let mut burst = 0usize;
            loop {
                match self.stream.read(&mut scratch.chunk) {
                    Ok(0) => {
                        self.peer_eof = true;
                        progress = true;
                        break;
                    }
                    Ok(n) => {
                        self.buf.extend_from_slice(&scratch.chunk[..n]);
                        progress = true;
                        if self.buf.len() - self.consumed > MAX_BUFFERED_INPUT {
                            self.dead = true;
                            return true;
                        }
                        burst += n;
                        if burst >= READ_BURST {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.dead = true;
                        return true;
                    }
                }
            }
        }
        // Process everything complete.
        progress |= self.process(shared, scratch);
        // Drop the handled prefix once it dominates the buffer.
        if self.consumed > 0 && (self.consumed == self.buf.len() || self.consumed >= 32 * 1024) {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        // Flush.
        progress |= self.flush();
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
            if self.closing || (self.peer_eof && !self.has_parseable_input()) {
                self.dead = true;
            }
        }
        progress
    }

    /// Whether unconsumed input could still form a request. After EOF
    /// a partial frame can never complete, so this gates the final
    /// close.
    fn has_parseable_input(&self) -> bool {
        self.buf.len() > self.consumed
    }

    fn flush(&mut self) -> bool {
        let mut progress = false;
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => {
                    self.dead = true;
                    return true;
                }
                Ok(n) => {
                    self.written += n;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return true;
                }
            }
        }
        progress
    }

    /// Parses and answers every complete request currently buffered.
    fn process(&mut self, shared: &ServerShared<'_>, scratch: &mut Scratch) -> bool {
        let mut progress = false;
        loop {
            if self.closing || self.dead {
                return progress;
            }
            // Pipelining backpressure: stop answering until the peer
            // drains what is already queued.
            if self.out.len() - self.written >= WRITE_HIGH_WATER {
                self.flush();
                if self.out.len() - self.written >= WRITE_HIGH_WATER {
                    return progress;
                }
            }
            if !self.framed {
                if !self.open() {
                    return progress;
                }
                progress = true;
                continue;
            }
            let avail = &self.buf[self.consumed..];
            if avail.len() < wire::FRAME_HEADER_LEN {
                if self.peer_eof && !avail.is_empty() {
                    // Truncated header at EOF: close cleanly.
                    self.closing = true;
                    progress = true;
                }
                return progress;
            }
            let header = match wire::decode_frame_header(avail) {
                Ok(header) => header,
                Err(_) => {
                    self.dead = true;
                    return true;
                }
            };
            if header.payload_len > wire::MAX_PAYLOAD {
                // Refused before any allocation and counted like any
                // other error; framing can no longer be trusted, so
                // answer and close.
                let declared = header.payload_len;
                let message = wire::WireError::FrameTooLarge { declared }.to_string();
                let input = refused("frame_too_large", codes::FRAME_TOO_LARGE, message);
                let outcome = serve_request(
                    shared,
                    scratch,
                    &mut self.out,
                    self.prev_done_us,
                    header.request_id,
                    |_| input,
                );
                self.finish_request(shared, outcome);
                self.closing = true;
                progress = true;
                continue;
            }
            if avail.len() < wire::FRAME_HEADER_LEN + header.payload_len {
                if self.peer_eof {
                    // Truncated frame mid-read: close cleanly, answering
                    // nothing for the partial frame.
                    self.closing = true;
                    progress = true;
                }
                return progress;
            }
            let start = self.consumed + wire::FRAME_HEADER_LEN;
            let end = start + header.payload_len;
            self.consumed = end;
            progress = true;
            let payload = &self.buf[start..end];
            let outcome = serve_request(
                shared,
                scratch,
                &mut self.out,
                self.prev_done_us,
                header.request_id,
                |cache| decode_frame(shared.ingest.serving, payload, cache),
            );
            self.finish_request(shared, outcome);
        }
    }

    /// The preamble gate, run until the connection is framed. Returns
    /// whether the connection changed state: framed, answering a
    /// version-skew error before closing, or dead.
    fn open(&mut self) -> bool {
        let avail = &self.buf[self.consumed..];
        match avail.first() {
            None => return false,
            // Not a binary-v1 client: there is no protocol to answer in.
            Some(&first) if first != wire::PREAMBLE_MAGIC[0] => {
                self.dead = true;
                return true;
            }
            Some(_) => {}
        }
        if avail.len() < wire::PREAMBLE_LEN {
            self.dead = self.peer_eof;
            return self.dead;
        }
        match wire::check_preamble(&avail[..wire::PREAMBLE_LEN]) {
            Ok(_) => {
                self.consumed += wire::PREAMBLE_LEN;
                self.framed = true;
            }
            Err(e @ wire::WireError::UnsupportedVersion { .. }) => {
                // Framing is version-stable, so even a from-the-future
                // client can read this.
                let _ = wire::append_frame(
                    &mut self.out,
                    0,
                    &Response::Error {
                        code: codes::UNSUPPORTED_PROTOCOL.to_string(),
                        message: e.to_string(),
                    },
                );
                self.closing = true;
            }
            // NUL-led garbage: no protocol to answer in.
            Err(_) => self.dead = true,
        }
        true
    }

    fn finish_request(&mut self, shared: &ServerShared<'_>, outcome: Outcome) {
        self.prev_done_us = gdcm_obs::timestamp_us();
        match outcome {
            Outcome::Continue => {}
            Outcome::CloseAfterFlush => {
                shared.trigger_shutdown();
                self.closing = true;
            }
            Outcome::Fatal => self.dead = true,
        }
    }
}

/// What decoding made of one frame's payload.
enum Input {
    /// A decoded request. `wire_hash` is the hash of a binary
    /// `Predict`'s canonical network bytes, for the wire index.
    Request(Request, Option<u64>),
    /// Answered without dispatch — a fast-lane hit, a parse error, a
    /// refused frame — with its slow-log label.
    Answered(&'static str, Response),
}

/// An input answered in-band with an error, without dispatch.
fn refused(label: &'static str, code: &str, message: String) -> Input {
    Input::Answered(
        label,
        Response::Error {
            code: code.to_string(),
            message,
        },
    )
}

/// The one request path: telemetry begin (the frame's request id is
/// the trace id) and the `read` stage, `decode`, dispatch, the request
/// and error counts, serialize + write one response frame on
/// `request_id`, the `serve/request_ms` histogram, the telemetry
/// record, and the shutdown outcome. `decode` adds the cache lookups it
/// makes itself (the wire fast lane) to the tally it is handed;
/// dispatch adds the rest.
fn serve_request(
    shared: &ServerShared<'_>,
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
    prev_done_us: u64,
    request_id: u64,
    decode: impl FnOnce(&mut CacheStats) -> Input,
) -> Outcome {
    let telemetry = shared.telemetry;
    if telemetry {
        gdcm_obs::reqtrace::begin(request_id);
        // The read stage spans from the previous request's completion;
        // it belongs in the stage breakdown but not in the latency
        // that ranks the slow log, which starts after the read.
        let now_us = gdcm_obs::timestamp_us();
        gdcm_obs::reqtrace::stage_closed("read", prev_done_us, now_us.saturating_sub(prev_done_us));
    }
    let started = Instant::now();
    let mut cache = CacheStats::default();
    let input = decode(&mut cache);

    let (label, is_shutdown, response) = match input {
        Input::Request(request, wire_hash) => (
            request_label(&request),
            matches!(request, Request::Shutdown),
            dispatch(shared, request, wire_hash, &mut cache),
        ),
        Input::Answered(label, response) => (label, false, response),
    };
    shared.requests.fetch_add(1, Ordering::SeqCst);
    let is_error = matches!(response, Response::Error { .. });
    if is_error {
        shared.request_errors.fetch_add(1, Ordering::SeqCst);
    }

    let serialized = {
        let _stage = gdcm_obs::reqtrace::stage("serialize");
        scratch.ser.clear();
        wire::append_value(&mut scratch.ser, &response).is_ok()
    };
    let written = serialized && {
        let _stage = gdcm_obs::reqtrace::stage("write");
        wire::append_raw_frame(out, request_id, &scratch.ser).is_ok()
    };
    if !written {
        // Responses are plain data; encoding cannot fail. If it ever
        // does, drop the connection rather than the process.
        return Outcome::Fatal;
    }

    let request_us = started.elapsed().as_micros() as u64;
    gdcm_obs::histogram("serve/request_ms").record(request_us as f64 / 1e3);
    if telemetry {
        record_telemetry(label, request_us, is_error, cache);
    }
    if is_shutdown {
        Outcome::CloseAfterFlush
    } else {
        Outcome::Continue
    }
}

/// Decodes one binary frame's payload.
///
/// Wire fast lane first: a canonical `Predict` whose network bytes have
/// been seen before is answered from the prediction cache without
/// decoding the network at all. Any miss — not a Predict, first
/// sighting of these bytes, cache invalidated by a refit — drops to the
/// ordinary decode, and dispatch repopulates the index from the result.
fn decode_frame(serving: &ServingRepository, payload: &[u8], cache: &mut CacheStats) -> Input {
    let probed = wire::fast::probe_predict(payload)
        .map(|(device, network_bytes)| (device, wire::fast::wire_hash(network_bytes)));
    if let Some(latency_ms) = probed
        .as_ref()
        .and_then(|(device, hash)| serving.predict_wire_hit(device, *hash))
    {
        cache.prediction_hits += 1;
        return Input::Answered("predict", Response::Prediction { latency_ms });
    }
    let _stage = gdcm_obs::reqtrace::stage("parse");
    // Canonical-layout fast path; falls back to the generic content-tree
    // decoder on any deviation, so accepted inputs and error text are
    // unchanged.
    match wire::fast::decode_request(payload) {
        Ok(request) => Input::Request(request, probed.map(|(_, hash)| hash)),
        // A malformed payload inside a well-formed frame: framing is
        // intact, so it answers in-band and the connection stays —
        // neighbouring pipelined requests are unaffected.
        Err(e) => refused(
            "parse_error",
            codes::PARSE_ERROR,
            format!("unparsable request: {e}"),
        ),
    }
}

/// Folds one finished request into the live-telemetry surfaces:
/// windowed counters/histograms, per-stage cumulative histograms, and
/// the slow log. `cache` holds exactly this request's own cache
/// lookups, so a concurrent shard's traffic never leaks into it. Only
/// called when telemetry is enabled.
fn record_telemetry(label: &str, request_us: u64, is_error: bool, cache: CacheStats) {
    let now_us = gdcm_obs::timestamp_us();
    gdcm_obs::windowed_counter("serve/requests").add_at(1, now_us);
    if is_error {
        gdcm_obs::windowed_counter("serve/request_errors").add_at(1, now_us);
    }
    gdcm_obs::windowed_histogram("serve/request_us").record_at(request_us as f64, now_us);
    for (name, count) in [
        ("serve/pred_cache_hit", cache.prediction_hits),
        ("serve/pred_cache_miss", cache.prediction_misses),
        ("serve/enc_cache_hit", cache.encoding_hits),
        ("serve/enc_cache_miss", cache.encoding_misses),
    ] {
        if count > 0 {
            gdcm_obs::windowed_counter(name).add_at(count, now_us);
        }
    }
    if let Some(ctx) = gdcm_obs::reqtrace::end() {
        ctx.merge_into_registry("serve");
        gdcm_obs::slowlog::offer(gdcm_obs::slowlog::SlowEntry {
            trace_id: ctx.trace_id,
            label: label.to_string(),
            total_us: request_us,
            ts_us: ctx.started_us,
            stages: ctx.stages,
        });
    }
}

/// Maps one request to one response, adding its cache lookups to
/// `cache`. Mutations go through the ingestion pipeline, so with a WAL
/// they are durable (append + fsync) before the `Ok` acknowledges them.
/// Fit does too: the WAL records rows, not models, so the pipeline
/// re-snapshots after a successful fit — otherwise crash-and-replay
/// would silently revert an acknowledged fit to the snapshot's model.
fn dispatch(
    shared: &ServerShared<'_>,
    request: Request,
    wire_hash: Option<u64>,
    cache: &mut CacheStats,
) -> Response {
    let ingest = &shared.ingest;
    let serving = ingest.serving;
    let answered = match request {
        Request::Ping => Ok(Response::Pong),
        Request::Stats => {
            let stats = serving.cache_stats();
            Ok(Response::Stats {
                devices: serving.n_devices(),
                rows: serving.n_rows(),
                fitted: serving.is_fitted(),
                encoding_hits: stats.encoding_hits,
                encoding_misses: stats.encoding_misses,
                prediction_hits: stats.prediction_hits,
                prediction_misses: stats.prediction_misses,
                requests: shared.requests.load(Ordering::SeqCst) + 1,
            })
        }
        Request::Predict { device, network } => {
            // One structural hash keys the wire index and both caches.
            let hash = network_hash(&network);
            if let Some(wire_hash) = wire_hash {
                serving.index_wire(wire_hash, hash);
            }
            serving
                .predict_tallied(&device, &network, hash, cache, || {})
                .map(|latency_ms| Response::Prediction { latency_ms })
        }
        Request::PredictBatch { device, networks } => serving
            .predict_batch_tallied(&device, &networks, cache, || {})
            .map(|latency_ms| Response::Predictions { latency_ms }),
        Request::PredictForNewDevice {
            signature_ms,
            network,
        } => serving
            .predict_for_new_device(&signature_ms, &network)
            .map(|latency_ms| Response::Prediction { latency_ms }),
        Request::OnboardDevice {
            device,
            signature_ms,
        } => ingest
            .onboard_device(&device, &signature_ms)
            .map(|()| Response::Ok),
        Request::ReEnroll {
            device,
            signature_ms,
        } => ingest
            .re_enroll(&device, &signature_ms)
            .map(|()| Response::Ok),
        Request::Contribute {
            device,
            network,
            latency_ms,
        } => ingest
            .contribute(&device, &network, latency_ms)
            .map(|()| Response::Ok),
        Request::Fit => ingest.fit().map(|()| Response::Ok),
        Request::Shutdown => Ok(Response::ShuttingDown),
    };
    answered.unwrap_or_else(|e| Response::Error {
        code: e.code().to_string(),
        message: e.to_string(),
    })
}
