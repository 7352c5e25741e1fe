//! Minimal blocking clients: [`BinClient`] for the serving listener's
//! length-prefixed binary protocol ([`crate::protocol::wire`]), with
//! pipelining — many requests in flight on one connection, answers
//! matched by request id — and [`OpsClient`] for the ops endpoint's
//! verb lines. Both are used by the probe mode of the `gdcm-serve`
//! binary, the CI smoke jobs, and the `bench_serve` load generator;
//! library users get typed request/response calls without hand-rolling
//! framing.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::protocol::wire;
use crate::protocol::{Request, Response};
use crate::ServeError;

/// Connects, retrying until `timeout` elapses — for scripted clients
/// racing a server that is still binding its listener. Returns the last
/// connection error once the deadline passes.
fn retry<T>(timeout: Duration, connect: impl Fn() -> std::io::Result<T>) -> std::io::Result<T> {
    let deadline = Instant::now() + timeout;
    loop {
        match connect() {
            Ok(client) => return Ok(client),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// A connected client for the length-prefixed binary protocol
/// (`binary-v1`). Requests may be *pipelined*: any number sent before
/// the first response is read, each answer matched
/// to its request by the echoed id. Response values are bit-identical
/// to the sequential path — the server processes one connection's
/// requests in order.
#[derive(Debug)]
pub struct BinClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    frame: Vec<u8>,
}

impl BinClient {
    /// Connects and sends the binary preamble. Request ids start at 1
    /// and increment per request; [`BinClient::send`] returns each one.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        // Sized so a half-window pipeline refill of multi-kilobyte
        // request frames coalesces into one write syscall.
        let mut writer = BufWriter::with_capacity(256 * 1024, stream);
        writer.write_all(&wire::preamble())?;
        writer.flush()?;
        Ok(Self {
            reader,
            writer,
            next_id: 1,
            frame: Vec::with_capacity(4096),
        })
    }

    /// Connects, retrying until `timeout` elapses — for scripted
    /// clients racing a server that is still binding its listener.
    ///
    /// # Errors
    ///
    /// Returns the last connection error once the deadline passes.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Copy,
        timeout: Duration,
    ) -> std::io::Result<Self> {
        retry(timeout, || Self::connect(addr))
    }

    /// Frames and buffers one request without flushing, returning its
    /// id — the pipelining primitive. Call [`BinClient::flush`] (or
    /// [`BinClient::recv`], which flushes first) to put it on the wire.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a request that encodes above the frame
    /// cap.
    pub fn send(&mut self, request: &Request) -> Result<u64, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.frame.clear();
        wire::fast::append_request_frame(&mut self.frame, id, request)?;
        self.writer.write_all(&self.frame)?;
        Ok(id)
    }

    /// Flushes all buffered request frames to the socket.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// Reads the next response frame, returning `(request_id, response)`.
    /// Flushes buffered requests first so a bare `send` + `recv` pair
    /// can never deadlock.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, undecodable frames, or a closed connection.
    pub fn recv(&mut self) -> Result<(u64, Response), ServeError> {
        self.flush()?;
        let mut header = [0u8; wire::FRAME_HEADER_LEN];
        self.reader.read_exact(&mut header)?;
        let header = wire::decode_frame_header(&header)?;
        if header.payload_len > wire::MAX_PAYLOAD {
            return Err(ServeError::Wire(
                wire::WireError::FrameTooLarge {
                    declared: header.payload_len,
                }
                .to_string(),
            ));
        }
        let mut payload = vec![0u8; header.payload_len];
        self.reader.read_exact(&mut payload)?;
        let response = wire::decode_value::<Response>(&payload)?;
        Ok((header.request_id, response))
    }

    /// Sends one request and reads its response — the sequential
    /// convenience over [`BinClient::send`] / [`BinClient::recv`].
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, undecodable frames, or an answer tagged
    /// with a different request id (protocol violation).
    pub fn request(&mut self, request: &Request) -> Result<Response, ServeError> {
        let id = self.send(request)?;
        let (echoed, response) = self.recv()?;
        if echoed != id {
            return Err(ServeError::Wire(format!(
                "response tagged id {echoed}, expected {id}"
            )));
        }
        Ok(response)
    }

    /// Pipelines `requests` with up to `depth` in flight and returns
    /// the responses in request order (matched by id, so a server
    /// answering out of order would still slot correctly).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, undecodable frames, or an answer tagged
    /// with an id this call never sent.
    pub fn pipeline(
        &mut self,
        requests: &[Request],
        depth: usize,
    ) -> Result<Vec<Response>, ServeError> {
        let depth = depth.max(1);
        let mut pending: HashMap<u64, usize> = HashMap::with_capacity(depth);
        let mut responses: Vec<Option<Response>> = Vec::with_capacity(requests.len());
        responses.resize_with(requests.len(), || None);
        let mut sent = 0usize;
        let mut received = 0usize;
        while received < requests.len() {
            // Refill the window in half-depth batches (rather than one
            // request per response drained) so frames coalesce into few
            // large writes; `recv`'s own flush then finds an empty
            // buffer and costs nothing.
            if sent < requests.len() && pending.len() <= depth / 2 {
                while sent < requests.len() && pending.len() < depth {
                    let id = self.send(&requests[sent])?;
                    pending.insert(id, sent);
                    sent += 1;
                }
                self.flush()?;
            }
            let (id, response) = self.recv()?;
            let slot = pending.remove(&id).ok_or_else(|| {
                ServeError::Wire(format!("response tagged unknown request id {id}"))
            })?;
            responses[slot] = Some(response);
            received += 1;
        }
        // Every slot was filled exactly once by the loop above.
        Ok(responses.into_iter().flatten().collect())
    }
}

/// A connected client for the ops endpoint (`health` / `metrics` /
/// `slowlog` / `quiesce`): one verb line out, one JSON line back.
#[derive(Debug)]
pub struct OpsClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl OpsClient {
    /// Connects to a server's ops listener.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // One small line per direction per verb: Nagle's algorithm
        // would add a delayed-ACK round trip to every call.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Connects, retrying until `timeout` elapses (see
    /// [`BinClient::connect_with_retry`]).
    ///
    /// # Errors
    ///
    /// Returns the last connection error once the deadline passes.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Copy,
        timeout: Duration,
    ) -> std::io::Result<Self> {
        retry(timeout, || Self::connect(addr))
    }

    /// Sends one ops verb and returns the raw JSON reply line.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a closed connection.
    pub fn query(&mut self, verb: &str) -> std::io::Result<String> {
        self.writer.write_all(verb.trim().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut answer = String::new();
        if self.reader.read_line(&mut answer)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before answering",
            ));
        }
        Ok(answer.trim().to_string())
    }
}
