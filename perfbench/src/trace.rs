//! `--trace 1`: the per-layer ledger.
//!
//! Each layer is measured from outside by timing calls into its public
//! functions, in the order the server calls them, on the workload's own
//! generated inputs. Every call is kept as a span (name, start, end,
//! parent, request id) in memory and written as a Chrome trace when the
//! run ends. Three ledgers run on every workload:
//!
//! 1. **Predict**: the workload's predict stream replayed through the
//!    binary protocol's request path (`server.rs` `handle_binary_frame`:
//!    probe, fast lane, decode, index, predict, encode), then each layer
//!    of the miss path (hash, encode, bin, traverse) on its own.
//! 2. **Write**: the workload's upload stream fed at the upload rate
//!    through a WAL-backed `IngestPipeline` while its background
//!    refresher runs, as in the server.
//! 3. **Model**: every layer a refresh calls (clone, bin, fit, freeze,
//!    audit, flatcheck, install, snapshot) timed once on the state the
//!    write ledger left.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use gdcm_audit::DatasetLints;
use gdcm_core::CollaborativeRepository;
use gdcm_ml::{bin_code, BinnedMatrix, DenseMatrix, FrozenGbdt, GbdtRegressor};
use gdcm_serve::protocol::wire::{self, fast};
use gdcm_serve::refresh::DEFAULT_WARM_BOOST;
use gdcm_serve::{
    network_hash, replay_record, IngestPipeline, RefreshConfig, Request, Response, ServeConfig,
    ServingRepository, WalRecord, WriteAheadLog,
};

use crate::e2e::{micros, prepare, warm_up, Ctx, REFRESH_ROWS};
use crate::fixture::{TrainingJob, World};
use crate::report::RunResult;
use crate::server::{work_dir, Launch, Server};
use crate::stats::median;
use crate::workload::{
    feedback, uploads, Contribution, PredictPool, Schedule, Workload, CONTRIBUTE_RATE,
};

/// Predict requests replayed per workload.
const PREDICT_REPLAY: usize = 20_000;
/// Refresh cycles the write ledger drives.
const REFRESH_CYCLES: usize = 6;

const NO_CACHE: ServeConfig = ServeConfig {
    encoding_cache: 0,
    prediction_cache: 0,
};

/// One recorded call.
struct Span {
    name: &'static str,
    start: Duration,
    dur: Duration,
    parent: Option<usize>,
    request: u64,
}

/// The in-memory span recorder. Switched off, it records nothing and
/// reads no clock, which is the baseline `trace.overhead_pct` compares
/// against.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span handle from [`Recorder::begin`].
pub struct Open(usize, Instant);

impl Recorder {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, request: u64) -> Option<Open> {
        if !self.on {
            return None;
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now - self.origin,
            dur: Duration::ZERO,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
        Some(Open(self.spans.len() - 1, now))
    }

    /// Closes a span; returns its length in microseconds (0 when off).
    pub fn end(&mut self, open: Option<Open>) -> f64 {
        let Some(Open(i, started)) = open else {
            return 0.0;
        };
        let dur = started.elapsed();
        self.spans[i].dur = dur;
        self.open.pop();
        micros(dur)
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name, request);
        let out = f();
        (out, self.end(open))
    }

    /// Writes the spans as Chrome-trace JSON (`chrome://tracing`).
    pub fn write_chrome(&self, path: &Path) -> Result<(), String> {
        let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut out = BufWriter::new(file);
        let mut write = || -> std::io::Result<()> {
            out.write_all(b"{\"traceEvents\": [\n")?;
            for (i, s) in self.spans.iter().enumerate() {
                let parent = s.parent.map_or(-1, |p| p as i64);
                write!(
                    out,
                    "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
                     \"args\": {{\"span\": {i}, \"parent\": {parent}, \"request\": {}}}}}",
                    if i == 0 { "" } else { ",\n" },
                    s.name,
                    micros(s.start),
                    micros(s.dur),
                    s.request
                )?;
            }
            out.write_all(b"\n]}\n")?;
            out.flush()
        };
        write().map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// The median of one stage's per-request samples, in microseconds.
fn p50(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

/// The inputs a workload's ledgers replay.
struct Inputs {
    repo: CollaborativeRepository,
    pool: PredictPool,
    requests: usize,
    /// Whether the end-to-end run primes the caches with a pass over
    /// the pool before it measures.
    warm_up: bool,
    uploads: Vec<Contribution>,
    /// Seeds the uploads' arrival times.
    seed: u64,
    /// Served by a `gdcm-serve` child, or priced in process.
    served: bool,
}

fn inputs(
    workload: Workload,
    ctx: &Ctx,
    world: &World,
) -> Result<(Inputs, std::path::PathBuf), String> {
    let count = REFRESH_CYCLES * REFRESH_ROWS.parse::<usize>().expect("a row count");
    if workload == Workload::PaperFit {
        let dir = work_dir(&ctx.root, workload.name())?;
        let job = TrainingJob::new(world);
        let mut repo = job.repository(world, ctx.seed);
        repo.fit().map_err(|e| format!("fit: {e}"))?;
        let pool = PredictPool::from_pairs(world, &repo, &job.eval_grid());
        let uploads = uploads(world, &job.train_devices, &job.open, ctx.seed, count);
        let requests = pool.entries.len();
        return Ok((
            Inputs {
                repo,
                pool,
                requests,
                warm_up: false,
                uploads,
                seed: ctx.seed,
                served: false,
            },
            dir,
        ));
    }
    let (dir, deployment, _) = prepare(workload, ctx, world)?;
    let pool = match workload {
        Workload::NasCold => PredictPool::cold(world, &deployment, ctx.seed),
        _ => PredictPool::hot(world, &deployment, ctx.seed),
    };
    let uploads = match workload {
        Workload::DeviceIngest => {
            let devices: Vec<usize> = (0..world.n_devices()).collect();
            uploads(world, &devices, &deployment.open, ctx.seed, count)
        }
        _ => feedback(world, &pool, ctx.seed, count),
    };
    Ok((
        Inputs {
            repo: deployment.repo,
            pool,
            requests: PREDICT_REPLAY,
            warm_up: true,
            uploads,
            seed: ctx.seed,
            served: true,
        },
        dir,
    ))
}

pub fn run(workload: Workload, ctx: &Ctx, world: &World) -> Result<RunResult, String> {
    let (inputs, dir) = inputs(workload, ctx, world)?;
    let mut result = RunResult::new(workload.name(), ctx.seed, true);
    let mut rec = Recorder::new(true);

    let (served_sum_p50, direct_sum_p50) = predict_ledger(&inputs, &mut rec, &mut result);
    let (e2e_p50, stage_sum_p50) = if inputs.served {
        (
            served_sequential_p50(&inputs, ctx, &dir, &mut result)?,
            served_sum_p50,
        )
    } else {
        (in_process_p50(&inputs, world, &mut result), direct_sum_p50)
    };
    result.metric("predict.stage_sum_us", stage_sum_p50, "us");
    result.metric("predict.unattributed_us", e2e_p50 - stage_sum_p50, "us");
    result.info("predict.e2e_p50_us", e2e_p50);

    let serving = write_ledger(&inputs, world, &dir, &mut rec, &mut result)?;
    model_ledger(&serving, &dir, &mut rec, &mut result)?;

    let trace_path = dir.join("trace.json");
    rec.write_chrome(&trace_path)?;
    eprintln!(
        "perfbench: wrote {} ({} spans)",
        trace_path.display(),
        rec.spans.len()
    );
    Ok(result)
}

/// Replays the predict stream through the server's binary request path,
/// then times each layer of the miss path. Returns the p50 of the
/// per-request stage sum of the served path and of the in-process path.
fn predict_ledger(inputs: &Inputs, rec: &mut Recorder, result: &mut RunResult) -> (f64, f64) {
    let fresh = || {
        let serving = ServingRepository::new(inputs.repo.clone(), ServeConfig::default());
        if inputs.warm_up {
            for entry in &inputs.pool.entries {
                let (device, network) = PredictPool::decode(entry);
                let _ = serving.predict(&device, &network);
                if let Some((_, bytes)) = fast::probe_predict(&entry.payload) {
                    serving.index_wire_hash(fast::wire_hash(bytes), &network);
                }
            }
        }
        serving
    };

    // Spans on, off, off, on (each pass on identical fresh state), so a
    // drift across the passes cancels out of the overhead.
    let mut off = Recorder::new(false);
    let mut stages = Stages::default();
    let (mut on_s, mut off_s) = (0.0, 0.0);
    let mut mismatched = 0;
    let (mut hits, mut misses, mut encodes) = (0, 0, 0);
    for spans in [true, false, false, true] {
        let serving = fresh();
        let before = serving.cache_stats();
        let t = Instant::now();
        let wrong = if spans {
            as_served(&serving, inputs, rec, &mut stages)
        } else {
            as_served(&serving, inputs, &mut off, &mut Stages::default())
        };
        let elapsed = t.elapsed().as_secs_f64();
        let after = serving.cache_stats();
        mismatched += wrong;
        if spans {
            on_s += elapsed;
            hits += after.prediction_hits - before.prediction_hits;
            misses += after.prediction_misses - before.prediction_misses;
            encodes += after.encoding_misses - before.encoding_misses;
        } else {
            off_s += elapsed;
        }
    }
    let passes = 2 * inputs.requests;
    if stages.decode.is_empty() {
        // A stream of pure fast-lane hits never decodes; time the decode
        // its requests would pay so the layer is still measured.
        for k in 0..inputs.requests {
            let entry = inputs.pool.request(k);
            let (_, t) = rec.time("wire.decode", k as u64, || {
                fast::decode_request(&entry.payload)
            });
            stages.decode.push(t);
        }
    }

    result.metric(
        "wire.request_bytes",
        (0..inputs.requests)
            .map(|k| inputs.pool.request(k).payload.len() as f64)
            .sum::<f64>()
            / inputs.requests as f64,
        "bytes",
    );
    result.metric("wire.probe_us", p50(&stages.probe), "us");
    result.metric("wire.decode_us", p50(&stages.decode), "us");
    result.metric("wire.response_encode_us", p50(&stages.encode), "us");
    result.metric(
        "serving.wire_hit_ratio",
        stages.wire_hits as f64 / passes as f64,
        "ratio",
    );
    // Every request makes exactly one prediction-cache lookup, through
    // the fast lane or `ServingRepository::predict`.
    result.metric(
        "serving.pred_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    // Encoding-cache lookups happen only on prediction misses, so a hit
    // ratio would have no base on a fully cached stream; count the
    // encodings computed instead.
    result.metric(
        "serving.encodes_per_request",
        encodes as f64 / passes as f64,
        "count",
    );
    result.metric("trace.overhead_pct", 100.0 * (on_s - off_s) / off_s, "%");
    result.info("predict.replayed", inputs.requests as f64);

    let layers = miss_layers(inputs, rec);
    result.metric("serving.hash_us", p50(&layers.hash), "us");
    result.metric("serving.hit_us", p50(&layers.hit), "us");
    result.metric("serving.miss_us", p50(&layers.miss), "us");
    result.metric("encoding.encode_us", p50(&layers.encode), "us");
    result.metric("model.bin_us", p50(&layers.bin), "us");
    result.metric("model.traverse_us", p50(&layers.traverse), "us");

    let mismatched = mismatched + layers.mismatched;
    result.attempted += 5 * inputs.requests as u64;
    if mismatched > 0 {
        result.fail(format!(
            "{mismatched} in-process answer(s) differ from the uncached prediction"
        ));
    }
    // `CollaborativeRepository::predict` calls exactly encode, bin and
    // traverse.
    let direct: Vec<f64> = (0..inputs.requests)
        .map(|k| layers.encode[k] + layers.bin[k] + layers.traverse[k])
        .collect();
    (p50(&stages.sum), median(&direct).unwrap_or(0.0))
}

#[derive(Default)]
struct Stages {
    probe: Vec<f64>,
    decode: Vec<f64>,
    encode: Vec<f64>,
    sum: Vec<f64>,
    wire_hits: usize,
}

/// One pass of the server's binary `Predict` path (`server.rs`
/// `handle_binary_frame`): probe and wire hash, fast-lane lookup, and
/// on a miss decode, index and predict; then encode the response frame.
/// Adds to `stages`; returns the answers that differ from the expected.
fn as_served(
    serving: &ServingRepository,
    inputs: &Inputs,
    rec: &mut Recorder,
    stages: &mut Stages,
) -> u64 {
    let mut mismatched = 0u64;
    let mut ser = Vec::with_capacity(64);
    let mut frame = Vec::with_capacity(64);
    for k in 0..inputs.requests {
        let entry = inputs.pool.request(k);
        let id = k as u64;
        let request = rec.begin("request", id);
        let (probed, t_probe) = rec.time("wire.probe", id, || {
            fast::probe_predict(&entry.payload)
                .map(|(device, bytes)| (device, fast::wire_hash(bytes)))
        });
        let (cached, t_lane) = rec.time("serving.fast_lane", id, || {
            probed
                .as_ref()
                .and_then(|(device, hash)| serving.predict_wire_hit(device, *hash))
        });
        let (value, t_decode, t_slow) = match cached {
            Some(v) => {
                stages.wire_hits += 1;
                (Some(v), 0.0, 0.0)
            }
            None => {
                let (decoded, t_decode) =
                    rec.time("wire.decode", id, || fast::decode_request(&entry.payload));
                let (value, t_slow) = rec.time("serving.predict", id, || match decoded {
                    Ok(Request::Predict { device, network }) => {
                        if let Some((_, hash)) = &probed {
                            serving.index_wire_hash(*hash, &network);
                        }
                        serving.predict(&device, &network).ok()
                    }
                    _ => None,
                });
                (value, t_decode, t_slow)
            }
        };
        let latency_ms = value.unwrap_or(f64::NAN);
        let (_, t_encode) = rec.time("wire.response_encode", id, || {
            ser.clear();
            frame.clear();
            wire::append_value(&mut ser, &Response::Prediction { latency_ms })
                .and_then(|()| wire::append_raw_frame(&mut frame, id, &ser))
        });
        rec.end(request);
        if latency_ms.to_bits() != entry.expected.to_bits() {
            mismatched += 1;
        }
        if rec.on {
            stages.probe.push(t_probe);
            if t_decode > 0.0 {
                stages.decode.push(t_decode);
            }
            stages.encode.push(t_encode);
            stages
                .sum
                .push(t_probe + t_lane + t_decode + t_slow + t_encode);
        }
    }
    mismatched
}

#[derive(Default)]
struct MissLayers {
    hash: Vec<f64>,
    hit: Vec<f64>,
    miss: Vec<f64>,
    encode: Vec<f64>,
    bin: Vec<f64>,
    traverse: Vec<f64>,
    mismatched: u64,
}

/// Each layer of the miss path on its own, per request: the structural
/// hash, an uncached `ServingRepository::predict`, the fast-lane hit the
/// same key then gets, the encoder, binning and tree traversal.
fn miss_layers(inputs: &Inputs, rec: &mut Recorder) -> MissLayers {
    let mut out = MissLayers::default();
    let uncached = ServingRepository::new(inputs.repo.clone(), NO_CACHE);
    let cached = ServingRepository::new(inputs.repo.clone(), ServeConfig::default());
    let frozen = inputs
        .repo
        .frozen_model()
        .expect("the replayed repository is fitted");
    for k in 0..inputs.requests {
        let entry = inputs.pool.request(k);
        let id = k as u64;
        let (device, network) = PredictPool::decode(entry);
        let mut check =
            |v: f64| out.mismatched += u64::from(v.to_bits() != entry.expected.to_bits());

        let (_, t) = rec.time("serving.hash", id, || network_hash(&network));
        out.hash.push(t);
        let (v, t) = rec.time("serving.miss", id, || uncached.predict(&device, &network));
        check(v.unwrap_or(f64::NAN));
        out.miss.push(t);

        let wire_key = fast::probe_predict(&entry.payload).map(|(_, bytes)| fast::wire_hash(bytes));
        let _ = cached.predict(&device, &network);
        if let Some(key) = wire_key {
            cached.index_wire_hash(key, &network);
            let (v, t) = rec.time("serving.hit", id, || cached.predict_wire_hit(&device, key));
            check(v.unwrap_or(f64::NAN));
            out.hit.push(t);
        }

        let (mut row, t) = rec.time("encoding.encode", id, || {
            inputs.repo.encoder().encode(&network)
        });
        out.encode.push(t);
        row.extend_from_slice(inputs.repo.device_signature(&device).unwrap_or_default());
        let (codes, t) = rec.time("model.bin", id, || {
            row.iter()
                .zip(frozen.cut_grid())
                .map(|(&v, cuts)| bin_code(cuts, v))
                .collect::<Vec<u8>>()
        });
        out.bin.push(t);
        let (v, t) = rec.time("model.traverse", id, || frozen.predict_binned(&codes));
        check(f64::from(v));
        out.traverse.push(t);
    }
    out
}

/// The end-to-end sequential predict p50 over the same stream, through a
/// `gdcm-serve` child with tracing off.
fn served_sequential_p50(
    inputs: &Inputs,
    ctx: &Ctx,
    dir: &Path,
    result: &mut RunResult,
) -> Result<f64, String> {
    let snapshot = dir.join("fixture.json");
    let launch = Launch {
        bin: &ctx.server_bin,
        dir,
        snapshot: &snapshot,
        wal: None,
        env: &[],
    };
    let (server, mut conn, _) = Server::start(&launch)?;
    let mut mismatched = if inputs.warm_up {
        warm_up(&mut conn, &inputs.pool)?
    } else {
        0
    };
    let mut latencies = Vec::with_capacity(inputs.requests);
    for k in 0..inputs.requests {
        let entry = inputs.pool.request(k);
        let sent = Instant::now();
        conn.queue(&entry.payload);
        conn.flush()?;
        let response = conn.recv()?;
        latencies.push(micros(sent.elapsed()));
        if !matches!(response, Response::Prediction { latency_ms } if latency_ms.to_bits() == entry.expected.to_bits())
        {
            mismatched += 1;
        }
    }
    server.shutdown(conn)?;
    result.attempted += inputs.requests as u64;
    if mismatched > 0 {
        result.fail(format!(
            "{mismatched} served answer(s) differ from the uncached prediction"
        ));
    }
    Ok(median(&latencies).expect("at least one request"))
}

/// The training job's end-to-end predict: `CollaborativeRepository::predict`,
/// whose stages are encode, bin and traverse.
fn in_process_p50(inputs: &Inputs, world: &World, result: &mut RunResult) -> f64 {
    let mut latencies = Vec::with_capacity(inputs.requests);
    for k in 0..inputs.requests {
        let entry = inputs.pool.request(k);
        let (_, network) = PredictPool::decode(entry);
        let t = Instant::now();
        let v = inputs
            .repo
            .predict(world.device_name(entry.device), &network);
        latencies.push(micros(t.elapsed()));
        if v.map(f64::to_bits) != Ok(entry.expected.to_bits()) {
            result.fail(format!("in-process predict {k} changed between calls"));
        }
    }
    median(&latencies).expect("at least one request")
}

/// Feeds the upload stream through a WAL-backed pipeline at the upload
/// rate while the pipeline's own refresher runs beside it, as the server
/// runs it. Then appends the same records back to back to a side log,
/// which times the raw append (with its `sync_data`) apart from any
/// other fsync, and reopens, replays and compacts it.
fn write_ledger(
    inputs: &Inputs,
    world: &World,
    dir: &Path,
    rec: &mut Recorder,
    result: &mut RunResult,
) -> Result<ServingRepository, String> {
    let ledger = dir.join("ledger");
    let _ = std::fs::remove_dir_all(&ledger);
    std::fs::create_dir_all(&ledger).map_err(|e| format!("create {}: {e}", ledger.display()))?;
    let snapshot = ledger.join("snapshot.json");
    let wal_path = ledger.join("pipeline.wal");
    let side_path = ledger.join("side.wal");
    let io = |e: gdcm_serve::ServeError| e.to_string();

    let serving = ServingRepository::new(inputs.repo.clone(), ServeConfig::default());
    serving.save_snapshot(&snapshot).map_err(io)?;
    let (wal, _, _) = WriteAheadLog::open(&wal_path).map_err(io)?;
    let refresh_rows: usize = REFRESH_ROWS.parse().expect("a row count");
    let pipeline = IngestPipeline::with_wal(
        &serving,
        wal,
        &snapshot,
        RefreshConfig {
            refresh_rows,
            ..RefreshConfig::default()
        },
    );
    let schedule = Schedule::poisson(CONTRIBUTE_RATE, inputs.uploads.len(), inputs.seed);
    let mut contribute_us = Vec::with_capacity(inputs.uploads.len());
    let mut compactions = 0usize;
    let mut rejected_uploads = 0u64;
    std::thread::scope(|scope| {
        let refresher = scope.spawn(|| pipeline.run());
        let mut records = pipeline.wal_records();
        let start = Instant::now();
        for (i, upload) in inputs.uploads.iter().enumerate() {
            std::thread::sleep((start + schedule.due(i)).saturating_duration_since(Instant::now()));
            let device = world.device_name(upload.device);
            let (applied, t) = rec.time("ingest.contribute", i as u64, || {
                pipeline.contribute(device, &upload.network, upload.latency_ms)
            });
            rejected_uploads += u64::from(applied.is_err());
            contribute_us.push(t);
            let now = pipeline.wal_records();
            compactions += usize::from(now <= records);
            records = now;
        }
        // Let the cycle the last uploads made due finish.
        let deadline = Instant::now() + Duration::from_secs(60);
        while pipeline.pending_rows() >= refresh_rows as u64 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        pipeline.stop();
        refresher.join().expect("the refresher does not panic");
        compactions += usize::from(pipeline.wal_records() < records);
    });
    let cycles = pipeline.refreshes() + pipeline.refreshes_rejected();
    let per_cycle = |n: f64| if cycles == 0 { 0.0 } else { n / cycles as f64 };
    result.metric(
        "ingest.contribute_us",
        median(&contribute_us).unwrap_or(0.0),
        "us",
    );
    result.metric(
        "refresh.accepted_ratio",
        per_cycle(pipeline.refreshes() as f64),
        "ratio",
    );
    result.metric(
        "refresh.compacted_ratio",
        per_cycle(compactions as f64),
        "ratio",
    );
    result.info("refresh.cycles", cycles as f64);
    result.info("refresh.wal_records_left", pipeline.wal_records() as f64);
    result.attempted += inputs.uploads.len() as u64;
    result.failed += rejected_uploads;
    if rejected_uploads > 0 {
        result.fail(format!("{rejected_uploads} upload(s) were rejected"));
    }
    drop(pipeline);

    let (mut side, _, _) = WriteAheadLog::open(&side_path).map_err(io)?;
    let mut append_us = Vec::with_capacity(inputs.uploads.len());
    for (i, upload) in inputs.uploads.iter().enumerate() {
        let record = WalRecord::Contribute {
            device: world.device_name(upload.device).to_string(),
            network: upload.network.clone(),
            latency_ms: upload.latency_ms,
        };
        let (appended, t) = rec.time("wal.append", i as u64, || side.append(&record));
        appended.map_err(io)?;
        append_us.push(t);
    }
    result.metric("wal.append_us", median(&append_us).unwrap_or(0.0), "us");
    let n = inputs.uploads.len() as f64;
    let bytes = std::fs::metadata(&side_path).map_or(0, |m| m.len());
    result.metric("wal.record_bytes", bytes as f64 / n, "bytes");
    drop(side);
    let (opened, t) = rec.time("wal.open", 0, || WriteAheadLog::open(&side_path));
    let (mut side, records, _) = opened.map_err(io)?;
    result.metric("wal.open_ms", t / 1e3, "ms");
    let mut replayed = inputs.repo.clone();
    let (applied, t) = rec.time("wal.replay", 0, || {
        records
            .iter()
            .filter(|r| replay_record(&mut replayed, r))
            .count()
    });
    result.metric("wal.replay_us_per_record", t / n, "us");
    if applied != records.len() || records.len() != inputs.uploads.len() {
        result.fail(format!(
            "the side log replayed {applied} of {} records, {} were appended",
            records.len(),
            inputs.uploads.len()
        ));
    }
    let (compacted, t) = rec.time("wal.compact", 0, || side.compact());
    compacted.map_err(io)?;
    result.metric("wal.compact_ms", t / 1e3, "ms");
    Ok(serving)
}

/// Times, once, every layer a refresh calls, on the repository the write
/// ledger left: a cold fit (whose training log splits out split search
/// and prediction update), the warm refit the refresher runs, freeze,
/// the audit and flatcheck gate, the install, and a snapshot round trip.
fn model_ledger(
    serving: &ServingRepository,
    dir: &Path,
    rec: &mut Recorder,
    result: &mut RunResult,
) -> Result<(), String> {
    let ((x_rows, y, params, prev), t) = rec.time("refresh.clone", 0, || {
        serving.with_repository(|repo| {
            let (x, y) = repo.training_data();
            (
                x.to_vec(),
                y.to_vec(),
                repo.config().gbdt,
                repo.model().cloned(),
            )
        })
    });
    result.metric("refresh.clone_ms", t / 1e3, "ms");
    let x = DenseMatrix::from_rows(&x_rows);
    let (binned, t) = rec.time("gbdt.bin", 0, || {
        BinnedMatrix::from_matrix(&x, params.max_bins)
    });
    result.metric("gbdt.bin_ms", t / 1e3, "ms");
    let (model, t) = rec.time("gbdt.fit", 0, || GbdtRegressor::fit(&x, &y, &params));
    result.metric("gbdt.fit_ms", t / 1e3, "ms");
    let log = model
        .training_log()
        .ok_or("a fresh fit keeps its training log")?;
    result.metric("gbdt.split_search_ms", log.split_search_ms, "ms");
    result.metric("gbdt.predict_update_ms", log.predict_update_ms, "ms");
    let prev = prev.ok_or("the ledger's repository is fitted")?;
    let reuse = params.n_estimators.saturating_sub(DEFAULT_WARM_BOOST);
    let (_, t) = rec.time("gbdt.warm_fit", 0, || {
        GbdtRegressor::warm_fit(&x, &y, &params, &prev, reuse)
    });
    result.metric("gbdt.warm_fit_ms", t / 1e3, "ms");

    let (frozen, t) = rec.time("model.freeze", 0, || FrozenGbdt::freeze(&model, &binned));
    let frozen = frozen.map_err(|e| format!("a cold fit must freeze on its own grid: {e}"))?;
    result.metric("model.freeze_ms", t / 1e3, "ms");
    let (mut report, t) = rec.time("audit.model", 0, || {
        gdcm_audit::audit_trained_model(
            "perfbench",
            &model,
            Some(&params),
            &x,
            &y,
            &DatasetLints::pipeline(),
        )
    });
    result.metric("audit.model_ms", t / 1e3, "ms");
    let (_, t) = rec.time("audit.flatcheck", 0, || {
        gdcm_audit::check_frozen_gbdt(
            "perfbench",
            &model,
            &frozen,
            Some(&binned),
            &mut report.diagnostics,
        )
    });
    result.metric("audit.flatcheck_ms", t / 1e3, "ms");
    if report.error_count() > 0 {
        result.fail(format!(
            "the audit gate rejected a cold fit: {} error(s)",
            report.error_count()
        ));
    }
    let (installed, t) = rec.time("serving.install", 0, || {
        serving.install_refit(model, frozen)
    });
    installed.map_err(|e| e.to_string())?;
    result.metric("serving.install_ms", t / 1e3, "ms");

    let path = dir.join("ledger").join("model.json");
    let (saved, t) = rec.time("snapshot.save", 0, || serving.save_snapshot(&path));
    saved.map_err(|e| e.to_string())?;
    result.metric("snapshot.save_ms", t / 1e3, "ms");
    result.metric(
        "snapshot.bytes",
        std::fs::metadata(&path).map_or(0, |m| m.len()) as f64,
        "bytes",
    );
    let (loaded, t) = rec.time("snapshot.load", 0, || gdcm_serve::load_repository(&path));
    let loaded = loaded.map_err(|e| e.to_string())?;
    result.metric("snapshot.load_ms", t / 1e3, "ms");
    if loaded.n_rows() != serving.n_rows() {
        result.fail("the snapshot round trip lost rows".into());
    }
    Ok(())
}
