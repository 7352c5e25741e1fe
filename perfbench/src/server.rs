//! The `gdcm-serve` child process and a minimal binary-v1 connection.
//!
//! Requests are sent as pre-encoded payloads, so the load generator
//! spends its time on the socket, not on encoding networks.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use gdcm_serve::protocol::wire;
use gdcm_serve::{Request, Response};

/// How long any single read may block before the request counts as
/// failed and the run stops.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// What a spawned server is started on.
pub struct Launch<'a> {
    pub bin: &'a Path,
    pub dir: &'a Path,
    pub snapshot: &'a Path,
    pub wal: Option<&'a Path>,
    pub env: &'a [(&'a str, &'a str)],
}

/// A running `gdcm-serve`. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    log: File,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server and waits for its first `Pong`. Returns the
    /// server, the connection that got the `Pong`, and the seconds from
    /// spawn to `Pong`: snapshot parse, validation, audit, flatcheck,
    /// WAL replay and bind.
    pub fn start(launch: &Launch<'_>) -> Result<(Self, Conn, f64), String> {
        let log = File::options()
            .create(true)
            .append(true)
            .open(launch.dir.join("server.log"))
            .map_err(|e| format!("open server.log: {e}"))?;
        let mut command = Command::new(launch.bin);
        command
            .arg("--snapshot")
            .arg(launch.snapshot)
            .args(["--addr", "127.0.0.1:0"])
            .current_dir(launch.dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log.try_clone().map_err(|e| format!("log handle: {e}"))?);
        if let Some(wal) = launch.wal {
            command.arg("--wal").arg(wal);
        }
        // The server runs with its defaults: no knob from the caller's
        // environment leaks in, and its run report lands beside the log.
        for (key, _) in std::env::vars() {
            if key.starts_with("GDCM_") {
                command.env_remove(key);
            }
        }
        command.env("GDCM_REPORT_DIR", launch.dir);
        command.envs(launch.env.iter().copied());

        let started = Instant::now();
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", launch.bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Self {
            child,
            stdout: BufReader::new(stdout),
            log,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        server.addr = server.read_listening()?;
        let mut conn = Conn::connect(server.addr)?;
        match conn.call(&Request::Ping)? {
            Response::Pong => {}
            other => return Err(format!("ping answered {other:?}")),
        }
        Ok((server, conn, started.elapsed().as_secs_f64()))
    }

    fn read_listening(&mut self) -> Result<SocketAddr, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("read server stdout: {e}"))?;
            if n == 0 {
                let status = self.child.wait().map_err(|e| e.to_string())?;
                return Err(format!(
                    "server exited ({status}) before listening; see server.log"
                ));
            }
            let _ = self.log.write_all(line.as_bytes());
            if let Some(addr) = line.trim().strip_prefix("LISTENING ") {
                return addr
                    .parse()
                    .map_err(|e| format!("unparsable listen address {addr:?}: {e}"));
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// Asks the server to shut down over `conn` and waits for it to exit.
    pub fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        match conn.call(&Request::Shutdown)? {
            Response::ShuttingDown => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        drop(conn);
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => break,
                Some(status) => return Err(format!("server exited with {status}")),
                None if Instant::now() > deadline => {
                    return Err("server did not exit after Shutdown".into())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        let mut rest = Vec::new();
        let _ = self.stdout.read_to_end(&mut rest);
        let _ = self.log.write_all(&rest);
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Peak resident set (`VmHWM`) in MB from a `/proc/<pid>/status` file.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(status_path).map_err(|e| format!("read {status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

/// One binary-v1 connection: requests go out as pre-encoded payloads,
/// responses come back in order (the server answers one connection's
/// frames in the order it read them).
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    buf: Vec<u8>,
    start: usize,
    next_id: u64,
    /// Ids of requests sent and not yet answered, oldest first.
    in_flight: VecDeque<u64>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream
            .write_all(&wire::preamble())
            .map_err(|e| format!("preamble: {e}"))?;
        Ok(Self {
            stream,
            out: Vec::with_capacity(256 << 10),
            buf: Vec::with_capacity(64 << 10),
            start: 0,
            next_id: 1,
            in_flight: VecDeque::new(),
        })
    }

    /// Buffers one request frame; [`Conn::flush`] puts it on the wire.
    pub fn queue(&mut self, payload: &[u8]) {
        let id = self.next_id;
        self.next_id += 1;
        wire::append_raw_frame(&mut self.out, id, payload)
            .expect("payloads are far below the frame cap");
        self.in_flight.push_back(id);
    }

    pub fn queue_request(&mut self, request: &Request) {
        let mut payload = Vec::new();
        wire::fast::append_request(&mut payload, request);
        self.queue(&payload);
    }

    pub fn flush(&mut self) -> Result<(), String> {
        let mut sent = 0;
        let deadline = Instant::now() + IO_TIMEOUT;
        while sent < self.out.len() {
            match self.stream.write(&self.out[sent..]) {
                Ok(0) => return Err("send: connection closed".into()),
                Ok(n) => sent += n,
                // Only a non-blocking socket with a full send buffer.
                Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        self.out.clear();
        Ok(())
    }

    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Blocks for the next response (at most [`IO_TIMEOUT`]).
    pub fn recv(&mut self) -> Result<Response, String> {
        loop {
            if let Some(resp) = self.take_frame()? {
                return Ok(resp);
            }
            self.fill().map_err(|e| format!("receive: {e}"))?;
        }
    }

    /// Switches the socket to non-blocking reads for [`Conn::try_recv`].
    /// A socket read timeout would not do: the kernel rounds it up to
    /// whole scheduler ticks, milliseconds late.
    pub fn set_nonblocking(&mut self) -> Result<(), String> {
        self.stream.set_nonblocking(true).map_err(|e| e.to_string())
    }

    /// The next response if one has fully arrived, without blocking
    /// (after [`Conn::set_nonblocking`]).
    pub fn try_recv(&mut self) -> Result<Option<Response>, String> {
        loop {
            if let Some(resp) = self.take_frame()? {
                return Ok(Some(resp));
            }
            match self.fill() {
                Ok(()) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
    }

    /// Sends one request and waits for its answer.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        self.queue_request(request);
        self.flush()?;
        self.recv()
    }

    fn fill(&mut self) -> std::io::Result<()> {
        self.buf.drain(..self.start);
        self.start = 0;
        let len = self.buf.len();
        self.buf.resize(len + (16 << 10), 0);
        let read = self.stream.read(&mut self.buf[len..]);
        self.buf.truncate(len + read.as_ref().map_or(0, |&n| n));
        match read? {
            0 => Err(ErrorKind::UnexpectedEof.into()),
            _ => Ok(()),
        }
    }

    fn take_frame(&mut self) -> Result<Option<Response>, String> {
        let avail = &self.buf[self.start..];
        if avail.len() < wire::FRAME_HEADER_LEN {
            return Ok(None);
        }
        let header = wire::decode_frame_header(avail).map_err(|e| e.to_string())?;
        if header.payload_len > wire::MAX_PAYLOAD {
            return Err(format!("response declares {} bytes", header.payload_len));
        }
        let end = wire::FRAME_HEADER_LEN + header.payload_len;
        if avail.len() < end {
            return Ok(None);
        }
        let response = wire::decode_value::<Response>(&avail[wire::FRAME_HEADER_LEN..end])
            .map_err(|e| format!("undecodable response: {e}"))?;
        self.start += end;
        match self.in_flight.pop_front() {
            Some(id) if id == header.request_id => Ok(Some(response)),
            want => Err(format!(
                "response tagged id {}, expected {want:?}",
                header.request_id
            )),
        }
    }
}

/// The per-workload work directory under the build directory.
pub fn work_dir(root: &Path, workload: &str) -> Result<PathBuf, String> {
    let dir = root.join(workload);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
