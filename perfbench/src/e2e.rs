//! The end-to-end runs: what a user of each workload sees.
//!
//! Every workload reports the same metrics; `op` is the workload's own
//! operation:
//!
//! | workload        | op                                   | `ops_per_s`                          |
//! |-----------------|--------------------------------------|--------------------------------------|
//! | `nas_hot`       | one `Predict`, sequential round trip | pipelined answers per second         |
//! | `nas_cold`      | one `Predict`, sequential round trip | pipelined answers per second         |
//! | `device_ingest` | one `Contribute`, from its due time  | answers per second, both connections |
//! | `paper_fit`     | one cold fit of the paper's model    | fits per second at the median fit    |
//!
//! The serving workloads start [`SETUP_REPEATS`] servers and measure
//! [`ROUNDS`] rounds spread over them: where the kernel places a
//! server's threads shifts all of that server's numbers, so one server
//! per run would make that placement the run's result.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gdcm_serve::{Request, Response};

use crate::fixture::{mape_pct, repository_mape, Deployment, TrainingJob, World};
use crate::report::RunResult;
use crate::server::{vm_hwm_mb, work_dir, Conn, Launch, Server};
use crate::stats::{median, Latency};
use crate::workload::{
    predict_payload, uploads, PredictPool, Schedule, Workload, CONTRIBUTE_RATE, READ_RATE,
};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Measurement rounds per run, a multiple of [`SETUP_REPEATS`]. A
/// latency or rate metric is the median of its per-round values, so
/// interference from outside the benchmark that lasts a few rounds
/// barely moves it.
pub const ROUNDS: usize = 2 * SETUP_REPEATS;
/// Requests in flight in a pipelined phase.
pub const PIPELINE_DEPTH: usize = 32;
/// `device_ingest`'s refresh threshold, the one setting the benchmark
/// gives the server.
pub const REFRESH_ROWS: &str = "200";
/// Share of each predict round spent pipelined; the rest is sequential.
const PIPELINED_SHARE: f64 = 2.0 / 3.0;
/// A generator using more of a core than this may be what limits the
/// load, so the run is marked invalid.
const MAX_GENERATOR_CPU: f64 = 0.90;
/// Open-loop sends later than this at p99 mean the schedule slipped.
const MAX_LATENESS_P99_US: f64 = 1000.0;

/// What every run needs.
pub struct Ctx {
    pub server_bin: PathBuf,
    pub root: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

/// Answers, failures and bit-identity mismatches seen by a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatched: u64,
}

impl Tally {
    /// Counts one `Predict` answer; returns the predicted latency.
    fn predict(&mut self, response: Response, expected: Option<f64>) -> Option<f64> {
        self.attempted += 1;
        match response {
            Response::Prediction { latency_ms } => {
                if expected.is_some_and(|e| e.to_bits() != latency_ms.to_bits()) {
                    self.mismatched += 1;
                }
                Some(latency_ms)
            }
            _ => {
                self.failed += 1;
                None
            }
        }
    }

    fn into_result(self, workload: Workload, ctx: &Ctx) -> RunResult {
        let mut result = RunResult::new(workload.name(), ctx.seed, false);
        result.attempted = self.attempted;
        result.failed = self.failed;
        if self.mismatched > 0 {
            result.fail(format!(
                "{} answer(s) differ from the uncached in-process prediction",
                self.mismatched
            ));
        }
        if self.failed > 0 {
            result.fail(format!("{} request(s) failed", self.failed));
        }
        result
    }
}

pub fn run(workload: Workload, ctx: &Ctx, world: &World) -> Result<RunResult, String> {
    match workload {
        Workload::NasHot | Workload::NasCold => nas(workload, ctx, world),
        Workload::DeviceIngest => device_ingest(ctx, world),
        Workload::PaperFit => paper_fit(ctx, world),
    }
}

/// Builds the deployment snapshot in a fresh work directory.
pub fn prepare(
    workload: Workload,
    ctx: &Ctx,
    world: &World,
) -> Result<(PathBuf, Deployment, PathBuf), String> {
    let dir = work_dir(&ctx.root, workload.name())?;
    for stale in ["fixture.json", "serving.json", "server.wal", "server.log"] {
        let _ = std::fs::remove_file(dir.join(stale));
    }
    let deployment = Deployment::build(world);
    let snapshot = dir.join("fixture.json");
    deployment.save(&snapshot)?;
    Ok((dir, deployment, snapshot))
}

/// Sends the pool's requests `first..` pipelined at [`PIPELINE_DEPTH`]
/// until `stop(sent)` holds, then drains; returns the requests answered.
fn pipelined(
    conn: &mut Conn,
    pool: &PredictPool,
    first: usize,
    tally: &mut Tally,
    stop: impl Fn(usize) -> bool,
) -> Result<usize, String> {
    let mut sent = 0usize;
    let mut answered = 0usize;
    loop {
        if !stop(sent) && conn.in_flight() <= PIPELINE_DEPTH / 2 {
            while conn.in_flight() < PIPELINE_DEPTH && !stop(sent) {
                conn.queue(&pool.request(first + sent).payload);
                sent += 1;
            }
            conn.flush()?;
        }
        if conn.in_flight() == 0 {
            return Ok(answered);
        }
        let response = conn.recv()?;
        tally.predict(response, Some(pool.request(first + answered).expected));
        answered += 1;
    }
}

/// One pipelined pass over the pool, so the server's caches hold what
/// they can before anything is timed. Returns the answers that failed or
/// differ from the expected.
pub fn warm_up(conn: &mut Conn, pool: &PredictPool) -> Result<u64, String> {
    let mut tally = Tally::default();
    let n = pool.entries.len();
    pipelined(conn, pool, 0, &mut tally, |sent| sent >= n)?;
    Ok(tally.failed + tally.mismatched)
}

/// Prices `grid` through the server and scores the answers against the
/// simulator's measured latencies.
fn served_mape(
    conn: &mut Conn,
    world: &World,
    grid: &[(usize, usize)],
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut predicted = Vec::with_capacity(grid.len());
    let mut sent = 0usize;
    while predicted.len() < grid.len() {
        while sent < grid.len() && conn.in_flight() < PIPELINE_DEPTH {
            let (d, n) = grid[sent];
            conn.queue(&predict_payload(
                world.device_name(d).to_string(),
                world.data.suite[n].network.clone(),
            ));
            sent += 1;
        }
        conn.flush()?;
        let response = conn.recv()?;
        predicted.push(tally.predict(response, None).unwrap_or(f64::NAN));
    }
    Ok(mape_pct(
        predicted
            .into_iter()
            .zip(grid)
            .map(|(p, &(d, n))| (p, world.data.db.latency(d, n))),
    ))
}

/// This process's CPU time (user + system), in seconds.
pub fn cpu_seconds() -> f64 {
    // /proc reports clock ticks in USER_HZ, which Linux fixes at 100.
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime are fields 14 and 15; `fields` starts at field 3.
    (ticks(11) + ticks(12)) / USER_HZ
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Per-round values of a run's op latency and rate.
#[derive(Default)]
struct Rounds {
    p50: Vec<f64>,
    rate: Vec<f64>,
    /// Every latency of the run, for the tail it reports but does not
    /// bound.
    all: Vec<f64>,
}

impl Rounds {
    fn latencies(&mut self, latencies_us: &[f64]) {
        if let Some(p50) = median(latencies_us) {
            self.p50.push(p50);
            self.all.extend_from_slice(latencies_us);
        }
    }

    fn report(&self, result: &mut RunResult, setup_s: f64, peak_rss_mb: f64, mape_pct: f64) {
        let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
        result.set_e2e(
            setup_s,
            med(&self.p50),
            med(&self.rate),
            peak_rss_mb,
            mape_pct,
        );
        report_tail(result, &self.all);
    }
}

/// The op's tail over the whole run, with the counts behind it. Shown,
/// not bounded: on a 2-core host it moves with when refresh cycles and
/// outside load land in the run.
fn report_tail(result: &mut RunResult, latencies_us: &[f64]) {
    if let Some(l) = Latency::of(latencies_us) {
        result.info("op_p90_us", l.p90);
        result.info("op_p99_us", l.p99);
        result.info("op_samples", l.samples as f64);
        result.info("op_beyond_p90", l.beyond_p90 as f64);
    }
}

fn nas(workload: Workload, ctx: &Ctx, world: &World) -> Result<RunResult, String> {
    let (dir, deployment, snapshot) = prepare(workload, ctx, world)?;
    let pool = match workload {
        Workload::NasHot => PredictPool::hot(world, &deployment, ctx.seed),
        _ => PredictPool::cold(world, &deployment, ctx.seed),
    };
    let grid = deployment.eval_grid(world);
    let launch = Launch {
        bin: &ctx.server_bin,
        dir: &dir,
        snapshot: &snapshot,
        wal: None,
        env: &[],
    };
    let round = Duration::from_secs_f64(ctx.seconds / ROUNDS as f64);
    let n = pool.entries.len();
    let mut tally = Tally::default();
    let mut rounds = Rounds::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let (mut cpu_s, mut wall_s) = (0.0, 0.0);
    let (mut peak_rss_mb, mut mape) = (0.0, 0.0);
    let mut k = n;
    for instance in 0..SETUP_REPEATS {
        let (server, mut conn, secs) = Server::start(&launch)?;
        setups.push(secs);
        // One warm-up pass over the pool, so caches hold what they can.
        pipelined(&mut conn, &pool, 0, &mut tally, |sent| sent >= n)?;
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        // A round pipelines for its first two thirds (throughput), then
        // sends one request at a time (latency).
        for _ in 0..ROUNDS / SETUP_REPEATS {
            let start = Instant::now();
            let pipe_end = start + round.mul_f64(PIPELINED_SHARE);
            let answered = pipelined(&mut conn, &pool, k, &mut tally, |_| {
                Instant::now() >= pipe_end
            })?;
            rounds
                .rate
                .push(answered as f64 / start.elapsed().as_secs_f64());
            k += answered;
            let end = start + round;
            let mut latencies = Vec::new();
            while Instant::now() < end || latencies.is_empty() {
                let entry = pool.request(k);
                let sent = Instant::now();
                conn.queue(&entry.payload);
                conn.flush()?;
                let response = conn.recv()?;
                latencies.push(micros(sent.elapsed()));
                tally.predict(response, Some(entry.expected));
                k += 1;
            }
            rounds.latencies(&latencies);
        }
        cpu_s += cpu_seconds() - cpu0;
        wall_s += t0.elapsed().as_secs_f64();
        if instance + 1 == SETUP_REPEATS {
            peak_rss_mb = server.peak_rss_mb()?;
            mape = served_mape(&mut conn, world, &grid, &mut tally)?;
        }
        server.shutdown(conn)?;
    }
    let setup_s = median(&setups).expect("at least one set-up");
    let cpu_share = cpu_s / wall_s;

    let mut result = tally.into_result(workload, ctx);
    let in_process = repository_mape(world, &deployment.repo, &grid);
    if mape.to_bits() != in_process.to_bits() {
        result.fail(format!(
            "served MAPE {mape} differs from the in-process {in_process} on the same grid"
        ));
    }
    rounds.report(&mut result, setup_s, peak_rss_mb, mape);
    check_generator(&mut result, cpu_share);
    Ok(result)
}

/// Marks the run invalid when the generator may have limited the load.
fn check_generator(result: &mut RunResult, cpu_share: f64) {
    result.info("generator_cpu_share", cpu_share);
    if cpu_share > MAX_GENERATOR_CPU {
        result.invalidate(format!(
            "the generator used {:.0}% of a core",
            100.0 * cpu_share
        ));
    }
}

/// What the open-loop uploader saw.
struct Uploads {
    latencies_us: Vec<f64>,
    lateness_us: Vec<f64>,
    acked: u64,
    failed: u64,
}

/// How often the open-loop uploader looks for answers while it waits:
/// the resolution of its latencies and of its send times.
const POLL: Duration = Duration::from_micros(50);

/// Sends `payloads` on `schedule` from `start`, polling for answers
/// while it waits for the next due time. Each latency runs from the
/// request's due time, so a stall also charges the requests queued
/// behind it.
fn open_loop(
    conn: &mut Conn,
    payloads: &[Vec<u8>],
    schedule: &Schedule,
    start: Instant,
) -> Result<Uploads, String> {
    let mut out = Uploads {
        latencies_us: Vec::with_capacity(payloads.len()),
        lateness_us: Vec::with_capacity(payloads.len()),
        acked: 0,
        failed: 0,
    };
    let mut due_times = std::collections::VecDeque::new();
    let mut drain = |conn: &mut Conn,
                     due_times: &mut std::collections::VecDeque<Instant>|
     -> Result<(), String> {
        while let Some(response) = conn.try_recv()? {
            let due = due_times
                .pop_front()
                .expect("an answer matches a sent request");
            out.latencies_us.push(micros(due.elapsed()));
            match response {
                Response::Ok => out.acked += 1,
                _ => out.failed += 1,
            }
        }
        Ok(())
    };
    conn.set_nonblocking()?;
    let mut lateness_us = Vec::with_capacity(payloads.len());
    for (i, payload) in payloads.iter().enumerate() {
        let due = start + schedule.due(i);
        loop {
            drain(conn, &mut due_times)?;
            let left = due.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::sleep(left.min(POLL));
        }
        lateness_us.push(micros(due.elapsed()));
        conn.queue(payload);
        conn.flush()?;
        due_times.push_back(due);
    }
    let deadline = Instant::now() + crate::server::IO_TIMEOUT;
    while !due_times.is_empty() {
        if Instant::now() > deadline {
            return Err(format!("{} upload(s) never answered", due_times.len()));
        }
        std::thread::sleep(POLL);
        drain(conn, &mut due_times)?;
    }
    out.lateness_us = lateness_us;
    Ok(out)
}

fn device_ingest(ctx: &Ctx, world: &World) -> Result<RunResult, String> {
    let workload = Workload::DeviceIngest;
    let (dir, deployment, fixture) = prepare(workload, ctx, world)?;
    // A refresh compacts into the snapshot it serves, so every server
    // starts from a fresh copy of the fixture and an empty log.
    let snapshot = dir.join("serving.json");
    let wal = dir.join("server.wal");
    let pool = PredictPool::hot(world, &deployment, ctx.seed);
    let grid = deployment.eval_grid(world);
    let round = Duration::from_secs_f64(ctx.seconds / ROUNDS as f64);
    let rounds_per_server = ROUNDS / SETUP_REPEATS;
    let per_server = round * rounds_per_server as u32;
    // One seeded Poisson upload stream over the run, dealt to the
    // servers in consecutive windows.
    let most = (2.0 * CONTRIBUTE_RATE * ctx.seconds) as usize + 100;
    let arrivals = Schedule::poisson(CONTRIBUTE_RATE, most, ctx.seed)
        .within(per_server * SETUP_REPEATS as u32);
    let devices: Vec<usize> = (0..world.n_devices()).collect();
    let payloads: Vec<Vec<u8>> =
        uploads(world, &devices, &deployment.open, ctx.seed, arrivals.len())
            .iter()
            .map(|c| {
                let mut payload = Vec::new();
                gdcm_serve::protocol::wire::fast::append_request(&mut payload, &c.request(world));
                payload
            })
            .collect();
    let env = [("GDCM_SERVE_REFRESH_ROWS", REFRESH_ROWS)];
    let launch = Launch {
        bin: &ctx.server_bin,
        dir: &dir,
        snapshot: &snapshot,
        wal: Some(&wal),
        env: &env,
    };
    let n = pool.entries.len();
    let mut tally = Tally::default();
    let mut rounds = Rounds::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let (mut lateness_us, mut read_us) = (Vec::new(), Vec::new());
    let (mut cpu_s, mut wall_s) = (0.0, 0.0);
    let mut reads = 0usize;
    let mut first_change: Option<f64> = None;
    let (mut peak_rss_mb, mut mape, mut wal_bytes, mut acked_last) = (0.0, 0.0, 0, 0);
    for instance in 0..SETUP_REPEATS {
        std::fs::copy(&fixture, &snapshot).map_err(|e| format!("copy the fixture: {e}"))?;
        let _ = std::fs::remove_file(&wal);
        let (server, mut reader, secs) = Server::start(&launch)?;
        setups.push(secs);
        pipelined(&mut reader, &pool, 0, &mut tally, |sent| sent >= n)?;

        let from = per_server * instance as u32;
        let (first, schedule) = arrivals.window(from, from + per_server);
        let mine = &payloads[first..first + schedule.len()];
        let mut writer = Conn::connect(server.addr)?;
        let mut reads_per_round = vec![0usize; rounds_per_server];
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        let uploaded = std::thread::scope(|scope| -> Result<Uploads, String> {
            let uploader = scope.spawn(|| open_loop(&mut writer, mine, &schedule, start));
            // The reader prices at most READ_RATE candidates a second and
            // checks every answer against the deployment until the first
            // one differs: from then on a refreshed model serves.
            let mut k = 0usize;
            while !uploader.is_finished() {
                let next = start + Duration::from_secs_f64(k as f64 / READ_RATE);
                std::thread::sleep(next.saturating_duration_since(Instant::now()));
                let entry = pool.request(n + reads);
                let sent = Instant::now();
                reader.queue(&entry.payload);
                reader.flush()?;
                let response = reader.recv()?;
                read_us.push(micros(sent.elapsed()));
                let unchanged = first_change.is_none();
                if let Some(v) = tally.predict(response, None) {
                    if unchanged && v.to_bits() != entry.expected.to_bits() {
                        first_change = Some(from.as_secs_f64() + start.elapsed().as_secs_f64());
                    }
                }
                let r = (start.elapsed().as_secs_f64() / round.as_secs_f64()) as usize;
                if let Some(count) = reads_per_round.get_mut(r) {
                    *count += 1;
                }
                reads += 1;
                k += 1;
            }
            uploader.join().expect("the uploader thread does not panic")
        })?;
        cpu_s += cpu_seconds() - cpu0;
        wall_s += start.elapsed().as_secs_f64();
        drop(writer);

        // Uploads are answered in order, so the i-th latency is upload
        // i's; a round holds the uploads due in it.
        let mut per_round = vec![Vec::new(); rounds_per_server];
        for (i, &latency) in uploaded.latencies_us.iter().enumerate() {
            let r = (schedule.due(i).as_secs_f64() / round.as_secs_f64()) as usize;
            per_round[r.min(rounds_per_server - 1)].push(latency);
        }
        for (latencies, reads) in per_round.iter().zip(&reads_per_round) {
            rounds.latencies(latencies);
            rounds
                .rate
                .push((latencies.len() + reads) as f64 / round.as_secs_f64());
        }
        lateness_us.extend_from_slice(&uploaded.lateness_us);
        tally.attempted += uploaded.acked + uploaded.failed;
        tally.failed += uploaded.failed;
        acked_last = uploaded.acked as usize;
        if instance + 1 == SETUP_REPEATS {
            peak_rss_mb = server.peak_rss_mb()?;
            mape = served_mape(&mut reader, world, &grid, &mut tally)?;
            wal_bytes = std::fs::metadata(&wal).map_or(0, |m| m.len());
        }
        server.shutdown(reader)?;
    }

    // Restart on the files the last server left behind: no acknowledged
    // upload may be lost.
    let (server, mut conn, restart_s) = Server::start(&launch)?;
    let rows = match conn.call(&Request::Stats)? {
        Response::Stats { rows, .. } => rows,
        other => return Err(format!("stats answered {other:?}")),
    };
    server.shutdown(conn)?;

    let mut result = tally.into_result(workload, ctx);
    let want_rows = deployment.repo.n_rows() + acked_last;
    if rows != want_rows {
        result.fail(format!(
            "after restart the server holds {rows} rows, expected {want_rows}"
        ));
    }
    let setup_s = median(&setups).expect("at least one set-up");
    rounds.report(&mut result, setup_s, peak_rss_mb, mape);
    let late = Latency::of(&lateness_us).ok_or("no upload was scheduled")?;
    let read = Latency::of(&read_us).ok_or("the reader sent nothing")?;
    result.info("reads", reads as f64);
    result.info("read_p50_us", read.p50);
    result.info("read_p90_us", read.p90);
    result.info("send_lateness_p50_us", late.p50);
    result.info("send_lateness_p99_us", late.p99);
    result.info("restart_s", restart_s);
    result.info("wal_bytes_at_end", wal_bytes as f64);
    result.info("first_model_change_s", first_change.unwrap_or(-1.0));
    check_generator(&mut result, cpu_s / wall_s);
    if late.p99 > MAX_LATENESS_P99_US {
        result.invalidate(format!("sends ran {:.0} us late at p99", late.p99));
    }
    Ok(result)
}

fn paper_fit(ctx: &Ctx, world: &World) -> Result<RunResult, String> {
    let workload = Workload::PaperFit;
    let job = TrainingJob::new(world);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut repo = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        repo = Some(job.repository(world, ctx.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut repo = repo.expect("at least one set-up");

    let start = Instant::now();
    let mut fits_us = Vec::new();
    let mut first = None;
    let mut identical = true;
    while fits_us.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let t = Instant::now();
        repo.fit().map_err(|e| format!("fit: {e}"))?;
        fits_us.push(micros(t.elapsed()));
        let model = (repo.model().cloned(), repo.frozen_model().cloned());
        match &first {
            None => first = Some(model),
            Some(f) => identical &= *f == model,
        }
    }
    let mape = repository_mape(world, &repo, &job.eval_grid());

    let mut result = RunResult::new(workload.name(), ctx.seed, false);
    result.attempted = fits_us.len() as u64;
    if !identical {
        result.fail("cold fits on the same rows are not bit-identical".into());
    }
    let fit_p50 = median(&fits_us).expect("at least one fit");
    let peak_rss_mb = vm_hwm_mb("/proc/self/status")?;
    // Fits are too few to split into rounds, so the rate is taken at
    // the median fit rather than from the total, which one fit slowed
    // by outside interference would drag down.
    result.set_e2e(
        median(&setups).expect("at least one set-up"),
        fit_p50,
        1e6 / fit_p50,
        peak_rss_mb,
        mape,
    );
    report_tail(&mut result, &fits_us);
    result.info("rows", repo.n_rows() as f64);
    Ok(result)
}

/// Path of the `gdcm-serve` binary built beside this one.
pub fn sibling_server_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let bin = exe.with_file_name("gdcm-serve");
    if !bin.is_file() {
        return Err(format!(
            "{} not found: build it with `cargo build --release -p gdcm-serve` into the same target directory",
            bin.display()
        ));
    }
    Ok(bin)
}

/// The benchmark's work root: `perfbench/` inside the target
/// directory this binary was built into.
pub fn default_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the binary has no target directory")?;
    Ok(target.join("perfbench"))
}
