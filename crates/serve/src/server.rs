//! The TCP server: a thread per connection, each driving a non-blocking
//! per-connection state machine, `binary-v1` framing, and graceful
//! shutdown.
//!
//! Safe Rust only, on `std::net`. The accept loop blocks on the
//! listener and gives every stream a scoped thread of its own, which
//! sweeps the connection: read until `WouldBlock`, process every
//! complete request, flush until `WouldBlock`. After a sweep that moves
//! nothing it spins `SPIN_SWEEPS` sweeps on `yield_now`, so
//! back-to-back requests never pay a wake-up, and then waits. If the
//! connection waits only on its peer (`Conn::awaits_input`), the socket
//! turns blocking for a one-byte `peek`, which returns as soon as bytes
//! or EOF arrive or the `IDLE_WAIT` read timeout passes. In any other
//! state (output the peer is not draining, EOF or closing with output
//! pending) a peek would return at once or miss the drain, so the
//! thread sleeps one `IDLE_WAIT`.
//!
//! Safe std has no `poll(2)`, and none is needed: a thread waits on one
//! socket, and a blocking read is that socket's readiness wait. A
//! connection lives on one thread, so request handling needs no
//! cross-thread locking and `reqtrace`'s thread-local spans stay
//! coherent. This suits a few concurrent connections; thousands would
//! need `epoll`, which safe std lacks.
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
//! `Shutdown` is the SIGTERM-equivalent drain: the stop flag flips and
//! one wake-up connection to the listener's own address unblocks the
//! accept loop, which stops accepting without counting it. Every
//! connection thread keeps serving until its peer disconnects, and
//! [`serve`] joins them all before it stops the refresher and the ops
//! endpoint. Nothing is aborted mid-request and every buffered response
//! is flushed.
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
//! `serve/open_connections` gauge — plain atomics and registry writes,
//! no event emission.
//!
//! Live telemetry is opt-in: handing [`serve`] an ops listener starts
//! the [`crate::ops`] endpoint and turns on per-request recording —
//! stage spans (`read`/`parse`/`cache_lookup`/`predict`/`serialize`/
//! `write`) through `gdcm_obs::reqtrace`, windowed qps/latency/error/
//! cache counters, and slow-log admission. Without an ops listener none
//! of that code runs: the request loop checks one plain `bool` and the
//! hot path stays byte-for-byte the uninstrumented one (`bench_serve`
//! asserts the enabled cost too). The `read` stage spans from the
//! previous request's completion to this request's dispatch (client
//! idle time included), and the `write` stage measures enqueue into the
//! connection's output buffer — the socket write itself is batched
//! across pipelined responses.

use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::thread::Scope;
use std::time::{Duration, Instant};

use crate::protocol::wire;
use crate::protocol::{codes, request_label, Request, Response};
use crate::refresh::IngestPipeline;
use crate::serving::{network_hash, CacheStats, ServingRepository};
use crate::wal::WalRecord;

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
    /// Connections open now: the `serve/open_connections` gauge's source.
    pub(crate) open_connections: AtomicI64,
    /// Whether per-request telemetry (traces, windowed metrics, slow
    /// log) records. True exactly when an ops listener is attached.
    pub(crate) telemetry: bool,
    /// Flipped by the ops `quiesce` verb; reported by `health`.
    pub(crate) draining: AtomicBool,
    /// Tells the ops accept loop to exit.
    pub(crate) ops_stop: AtomicBool,
    /// The serving and ops listeners, for their shutdown wake-ups.
    addr: Option<SocketAddr>,
    ops_addr: Option<SocketAddr>,
    /// Server start, for uptime reporting.
    pub(crate) started: Instant,
}

impl<'a> ServerShared<'a> {
    /// Fresh counters and flags for a server listening on `addr`;
    /// telemetry records exactly when an ops listener (`ops_addr`) is
    /// attached. The socket-free harness ([`crate::harness`]) builds one
    /// with no listener at all.
    pub(crate) fn new(
        ingest: IngestPipeline<'a>,
        addr: Option<SocketAddr>,
        ops_addr: Option<SocketAddr>,
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
            addr,
            ops_addr,
            started: Instant::now(),
        }
    }

    /// Flags shutdown, then connects once to the serving listener's own
    /// address so the blocking accept returns. The accept loop checks
    /// the flag before it counts a connection, so it drops this one
    /// uncounted. Only the first call connects.
    fn trigger_shutdown(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            wake(self.addr);
        }
    }

    /// The same for the ops accept loop.
    fn trigger_ops_shutdown(&self) {
        if !self.ops_stop.swap(true, Ordering::SeqCst) {
            wake(self.ops_addr);
        }
    }

    fn track_open(&self, delta: i64) {
        let open = self.open_connections.fetch_add(delta, Ordering::SeqCst) + delta;
        gdcm_obs::gauge("serve/open_connections").set(open as f64);
    }
}

/// Connects once to a blocking accept loop's listener so it sees its
/// stop flag. A wildcard bind is reached through loopback.
fn wake(addr: Option<SocketAddr>) {
    let Some(mut addr) = addr else { return };
    if addr.ip().is_unspecified() {
        addr.set_ip(if addr.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        });
    }
    let _ = TcpStream::connect(addr);
}

/// Bytes read from a socket per `read` call.
pub(crate) const READ_CHUNK: usize = 64 * 1024;
/// Bytes read from one connection per sweep before processing what
/// arrived.
const READ_BURST: usize = 256 * 1024;
/// Unprocessed input cap per connection; a frame backlog larger than
/// this drops the connection.
pub(crate) const MAX_BUFFERED_INPUT: usize = 64 * 1024 * 1024;
/// Pending-output level above which a connection stops consuming new
/// requests until the peer drains responses (pipelining backpressure).
pub(crate) const WRITE_HIGH_WATER: usize = 1024 * 1024;
/// No-progress sweeps a connection thread spends on `yield_now` before
/// it waits.
const SPIN_SWEEPS: u32 = 128;
/// The longest one idle wait lasts: the read timeout on a connection's
/// blocking peek, the sleep in every state a peek cannot wait on, the
/// accept loop's back-off after an accept error, and the read timeout
/// on an ops connection.
pub(crate) const IDLE_WAIT: Duration = Duration::from_millis(2);

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
) -> std::io::Result<ServerSummary> {
    let _span = gdcm_obs::span!("serve/server");
    listener.set_nonblocking(false)?;
    let addr = listener.local_addr()?;
    let ops_addr = ops_listener
        .as_ref()
        .map(TcpListener::local_addr)
        .transpose()?;
    let shared = ServerShared::new(pipeline, Some(addr), ops_addr);

    let shared = &shared;
    std::thread::scope(|outer| {
        let ops_handle =
            ops_listener.map(|ops| outer.spawn(move || crate::ops::run_ops(ops, shared)));
        let refresher = shared
            .ingest
            .refresh_enabled()
            .then(|| outer.spawn(|| shared.ingest.run()));

        // The inner scope joins every connection thread, so request
        // traffic has drained when it returns.
        std::thread::scope(|conns| accept_loop(shared, &listener, conns));

        // Stop the refresher (mid-refresh work completes — the swap and
        // compaction are not torn), then the ops endpoint.
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

/// Accepts until shutdown, serving each connection on its own thread in
/// `conns`. The accept blocks; the stop flag is checked before a
/// connection is counted, so the wake-up connection never is.
fn accept_loop<'scope, 'env>(
    shared: &'env ServerShared<'_>,
    listener: &TcpListener,
    conns: &'scope Scope<'scope, 'env>,
) {
    while !shared.stop.load(Ordering::SeqCst) {
        let failed = match listener.accept() {
            Ok(_) if shared.stop.load(Ordering::SeqCst) => return,
            Ok((stream, _)) => {
                shared.connections.fetch_add(1, Ordering::SeqCst);
                // A refused spawn drops the stream with its closure.
                std::thread::Builder::new()
                    .name("gdcm-serve-conn".to_string())
                    .spawn_scoped(conns, move || serve_connection(shared, stream))
                    .err()
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => None,
            Err(e) => Some(e),
        };
        if let Some(e) = failed {
            let error = gdcm_obs::FieldValue::Str(e.to_string());
            gdcm_obs::event("accept_error", "serve", &[("error", error)]);
            // Out of descriptors or threads: back off, don't spin.
            std::thread::sleep(IDLE_WAIT);
        }
    }
}

/// One connection's thread: pumps the connection until it is done,
/// idling as the module doc describes. A panic escaping the request
/// path ends this connection only, so the server still drains and
/// shuts down.
fn serve_connection(shared: &ServerShared<'_>, stream: TcpStream) {
    let mut conn = Conn::new(shared, stream);
    let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut scratch = Scratch::new();
        let mut idle: u32 = 0;
        while !conn.dead {
            if conn.pump(shared, &mut scratch) {
                idle = 0;
            } else if idle < SPIN_SWEEPS {
                idle += 1;
                std::thread::yield_now();
            } else if conn.awaits_input() {
                conn.dead = wait_readable(&conn.stream).is_err();
            } else {
                std::thread::sleep(IDLE_WAIT);
            }
        }
    }));
    shared.track_open(-1);
}

/// Blocks until the peer sends or closes, or the read timeout set in
/// `prepare` passes. What the peek saw is left for the next sweep's
/// read; only a failure to switch the socket's mode is an error.
fn wait_readable(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    let _ = stream.peek(&mut [0u8; 1]);
    stream.set_nonblocking(true)
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
        // Bounds the idle thread's blocking peek.
        self.set_read_timeout(Some(IDLE_WAIT))?;
        self.set_nonblocking(true)
    }
}

/// Per-thread scratch reused across every request: the socket read
/// chunk and the response serialize buffer.
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
    /// Finished (or broken): the connection's thread exits.
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

    /// Whether an idle connection waits only on its peer: the next pump
    /// would read (live, not closing, no EOF) and no output is pending,
    /// so none holds input back at the high-water mark. Only then may its
    /// thread block until bytes arrive; a wrong `true` is a busy loop.
    pub(crate) fn awaits_input(&self) -> bool {
        !self.dead && !self.closing && !self.peer_eof && self.written == self.out.len()
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
/// lookups, so another connection's traffic never leaks into it. Only
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
    let mutate = |record| ingest.ingest(record).map(|()| Response::Ok);
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
        Request::PredictForNewDevice {
            signature_ms,
            network,
        } => serving
            .predict_for_new_device(&signature_ms, &network)
            .map(|latency_ms| Response::Prediction { latency_ms }),
        Request::OnboardDevice {
            device,
            signature_ms,
        } => mutate(WalRecord::Onboard {
            device,
            signature_ms,
        }),
        Request::ReEnroll {
            device,
            signature_ms,
        } => mutate(WalRecord::ReEnroll {
            device,
            signature_ms,
        }),
        Request::Contribute {
            device,
            network,
            latency_ms,
        } => mutate(WalRecord::Contribute {
            device,
            network,
            latency_ms,
        }),
        Request::Fit => ingest.fit().map(|()| Response::Ok),
        Request::Shutdown => Ok(Response::ShuttingDown),
    };
    answered.unwrap_or_else(|e| Response::Error {
        code: e.code().to_string(),
        message: e.to_string(),
    })
}
