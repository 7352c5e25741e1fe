//! Workloads and the inputs each draws from `--seed`.

use std::time::Duration;

use gdcm_core::CollaborativeRepository;
use gdcm_dnn::Network;
use gdcm_gen::{RandomNetworkGenerator, SearchSpace};
use gdcm_serve::protocol::wire::fast;
use gdcm_serve::serving::{DEFAULT_ENC_CACHE, DEFAULT_PRED_CACHE};
use gdcm_serve::Request;

use crate::fixture::{Deployment, World};

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A search re-pricing a known pool: every lookup hits the caches.
    NasHot,
    /// A search exploring new candidates: every lookup misses.
    NasCold,
    /// Devices uploading measurements while a search keeps pricing.
    DeviceIngest,
    /// The paper's training job, in process.
    PaperFit,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::NasHot,
        Workload::NasCold,
        Workload::DeviceIngest,
        Workload::PaperFit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NasHot => "nas_hot",
            Workload::NasCold => "nas_cold",
            Workload::DeviceIngest => "device_ingest",
            Workload::PaperFit => "paper_fit",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Distinct (device, open suite network) pairs `nas_hot` re-prices.
/// Small enough for every cache: 2,048 predictions and 108 networks.
pub const HOT_POOL: usize = 2048;
/// Length of `nas_hot`'s seeded request order before it repeats.
pub const HOT_STREAM: usize = 1 << 16;
/// Distinct networks `nas_cold` cycles through: more than the
/// prediction cache and wire index (`DEFAULT_PRED_CACHE` entries each)
/// and the encoding cache hold, so a cyclic order never hits.
pub const COLD_POOL: usize = DEFAULT_PRED_CACHE + DEFAULT_ENC_CACHE;
/// `device_ingest`'s mean upload rate, contributions per second.
pub const CONTRIBUTE_RATE: f64 = 100.0;
/// `device_ingest`'s reader: a search pricing one candidate every
/// 200 us, so the load leaves the refresher a core.
pub const READ_RATE: f64 = 5000.0;
/// Relative spread of a contributed measurement around the simulator.
pub const MEASUREMENT_NOISE: f64 = 0.05;

/// SplitMix64: a small deterministic generator, so every input is a
/// pure function of the seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for one purpose of one seed.
    pub fn derive(seed: u64, purpose: u64) -> Self {
        let mut base = Self(seed ^ purpose.wrapping_mul(0xa076_1d64_78bd_642f));
        Self(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A multiplicative measurement error in `1 ± MEASUREMENT_NOISE`.
    pub fn noise(&mut self) -> f64 {
        1.0 + MEASUREMENT_NOISE * (2.0 * self.unit() - 1.0)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Stream purposes, so one seed yields independent streams.
const HOT_KEYS: u64 = 1;
const HOT_ORDER: u64 = 2;
const COLD_NETWORKS: u64 = 3;
const UPLOADS: u64 = 4;
const FEEDBACK: u64 = 5;
const ARRIVALS: u64 = 6;

/// An open-loop arrival schedule: each request is due at a fixed offset
/// from the start, whether or not earlier requests were answered.
/// Independent devices upload as a Poisson process; its random phase
/// also keeps arrivals from aliasing with the server's idle back-off.
#[derive(Debug, Clone)]
pub struct Schedule {
    due: Vec<Duration>,
}

impl Schedule {
    /// Seeded Poisson arrivals at `rate_per_s`, the first `n` of them.
    pub fn poisson(rate_per_s: f64, n: usize, seed: u64) -> Self {
        let mut rng = SplitMix::derive(seed, ARRIVALS);
        let mut t = 0.0;
        let due = (0..n)
            .map(|_| {
                let at = Duration::from_secs_f64(t);
                t += -(1.0 - rng.unit()).ln() / rate_per_s;
                at
            })
            .collect();
        Self { due }
    }

    /// Keeps only the arrivals due before `span` has elapsed.
    pub fn within(mut self, span: Duration) -> Self {
        self.due.retain(|&d| d < span);
        self
    }

    pub fn len(&self) -> usize {
        self.due.len()
    }

    /// The arrivals due in `[from, to)`, shifted to start at `from`,
    /// and the index of the first of them.
    pub fn window(&self, from: Duration, to: Duration) -> (usize, Schedule) {
        let first = self.due.partition_point(|&d| d < from);
        let end = self.due.partition_point(|&d| d < to);
        let due = self.due[first..end].iter().map(|&d| d - from).collect();
        (first, Schedule { due })
    }

    pub fn due(&self, i: usize) -> Duration {
        self.due[i]
    }
}

/// One pre-encoded `Predict` and the answer it must get.
pub struct PoolEntry {
    pub device: usize,
    /// The canonical binary-v1 `Predict` payload.
    pub payload: Vec<u8>,
    /// The uncached in-process answer on the deployment snapshot.
    pub expected: f64,
}

/// The keys a predict workload prices, and the order it asks them in.
pub struct PredictPool {
    pub entries: Vec<PoolEntry>,
    order: Vec<u32>,
}

impl PredictPool {
    /// `nas_hot`: [`HOT_POOL`] seeded (device, open network) pairs,
    /// asked in a seeded uniform order.
    pub fn hot(world: &World, deployment: &Deployment, seed: u64) -> Self {
        let mut pairs: Vec<(usize, usize)> = (0..world.n_devices())
            .flat_map(|d| deployment.open.iter().map(move |&n| (d, n)))
            .collect();
        SplitMix::derive(seed, HOT_KEYS).shuffle(&mut pairs);
        pairs.truncate(HOT_POOL);
        let mut pool = Self::from_pairs(world, &deployment.repo, &pairs);
        let mut rng = SplitMix::derive(seed, HOT_ORDER);
        pool.order = (0..HOT_STREAM)
            .map(|_| rng.below(HOT_POOL) as u32)
            .collect();
        pool
    }

    /// (device, suite network) pairs asked once each, in order.
    pub fn from_pairs(
        world: &World,
        repo: &CollaborativeRepository,
        pairs: &[(usize, usize)],
    ) -> Self {
        Self {
            entries: pairs
                .iter()
                .map(|&(d, n)| PoolEntry::new(world, repo, d, world.data.suite[n].network.clone()))
                .collect(),
            order: (0..pairs.len() as u32).collect(),
        }
    }

    /// `nas_cold`: [`COLD_POOL`] distinct seeded `SearchSpace::mobile()`
    /// networks, each paired with the next device round-robin, asked in
    /// a fixed cyclic order.
    pub fn cold(world: &World, deployment: &Deployment, seed: u64) -> Self {
        let mut generator = RandomNetworkGenerator::new(
            SearchSpace::mobile(),
            SplitMix::derive(seed, COLD_NETWORKS).next_u64(),
        );
        let entries = (0..COLD_POOL)
            .map(|i| {
                let network = generator
                    .generate(format!("candidate_{i:05}"))
                    .expect("the mobile search space only builds valid networks");
                PoolEntry::new(world, &deployment.repo, i % world.n_devices(), network)
            })
            .collect();
        Self {
            entries,
            order: (0..COLD_POOL as u32).collect(),
        }
    }

    /// The `k`-th request of the workload's stream.
    pub fn request(&self, k: usize) -> &PoolEntry {
        &self.entries[self.order[k % self.order.len()] as usize]
    }

    /// The network and device name of a pool entry, decoded from its
    /// payload exactly as the server decodes it.
    pub fn decode(entry: &PoolEntry) -> (String, Network) {
        match fast::decode_request(&entry.payload) {
            Ok(Request::Predict { device, network }) => (device, network),
            other => panic!("pool payload is not a Predict: {other:?}"),
        }
    }
}

impl PoolEntry {
    fn new(world: &World, repo: &CollaborativeRepository, device: usize, network: Network) -> Self {
        let name = world.device_name(device).to_string();
        let expected = repo
            .predict(&name, &network)
            .expect("pool devices are enrolled and the deployment is fitted");
        Self {
            device,
            payload: predict_payload(name, network),
            expected,
        }
    }
}

pub fn predict_payload(device: String, network: Network) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 << 10);
    fast::append_request(&mut payload, &Request::Predict { device, network });
    payload
}

/// One measured latency a device uploads.
pub struct Contribution {
    pub device: usize,
    pub network: Network,
    pub latency_ms: f64,
}

impl Contribution {
    fn measured(world: &World, device: usize, network: Network, rng: &mut SplitMix) -> Self {
        let latency_ms = world
            .engine
            .latency_ms(&network, &world.data.devices[device])
            * rng.noise();
        Self {
            device,
            network,
            latency_ms,
        }
    }

    pub fn request(&self, world: &World) -> Request {
        Request::Contribute {
            device: world.device_name(self.device).to_string(),
            network: self.network.clone(),
            latency_ms: self.latency_ms,
        }
    }
}

/// Uploads from `devices` for seeded open suite networks, each the
/// simulator's latency times seeded measurement noise.
pub fn uploads(
    world: &World,
    devices: &[usize],
    open: &[usize],
    seed: u64,
    count: usize,
) -> Vec<Contribution> {
    let mut rng = SplitMix::derive(seed, UPLOADS);
    (0..count)
        .map(|_| {
            let d = devices[rng.below(devices.len())];
            let n = open[rng.below(open.len())];
            Contribution::measured(world, d, world.data.suite[n].network.clone(), &mut rng)
        })
        .collect()
}

/// Measurements of a predict pool's own keys: a search measuring some
/// of the candidates it priced and feeding them back.
pub fn feedback(world: &World, pool: &PredictPool, seed: u64, count: usize) -> Vec<Contribution> {
    let mut rng = SplitMix::derive(seed, FEEDBACK);
    (0..count)
        .map(|_| {
            let entry = &pool.entries[rng.below(pool.entries.len())];
            let (_, network) = PredictPool::decode(entry);
            Contribution::measured(world, entry.device, network, &mut rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hits of the serving layer's LRU at `capacity` over two passes of
    /// `order`, counted on the second pass.
    fn second_pass_hits(capacity: usize, order: &[usize]) -> usize {
        let mut cache = gdcm_serve::LruCache::new(capacity);
        for &k in order {
            cache.insert(k, ());
        }
        order
            .iter()
            .filter(|&&k| {
                let hit = cache.get(&k).is_some();
                cache.insert(k, ());
                hit
            })
            .count()
    }

    #[test]
    fn cold_pool_outgrows_every_serving_cache() {
        // The prediction cache and the wire index hold DEFAULT_PRED_CACHE
        // entries and the encoding cache DEFAULT_ENC_CACHE; the cold
        // cycle evicts each key before it comes round again.
        let cold: Vec<usize> = (0..COLD_POOL).collect();
        assert_eq!(second_pass_hits(DEFAULT_PRED_CACHE, &cold), 0);
        assert_eq!(second_pass_hits(DEFAULT_ENC_CACHE, &cold), 0);
        // The hot pool fits, so after one pass every lookup hits.
        let mut rng = SplitMix::new(1);
        let hot: Vec<usize> = (0..HOT_STREAM).map(|_| rng.below(HOT_POOL)).collect();
        let mut warm: Vec<usize> = (0..HOT_POOL).collect();
        warm.extend(&hot);
        assert_eq!(
            second_pass_hits(DEFAULT_PRED_CACHE, &warm),
            HOT_POOL + HOT_STREAM
        );
    }

    #[test]
    fn open_loop_schedule_is_seeded_poisson() {
        let span = Duration::from_secs(20);
        let s = Schedule::poisson(CONTRIBUTE_RATE, 4000, 7).within(span);
        assert_eq!(s.due(0), Duration::ZERO);
        assert!((1..s.len()).all(|i| s.due(i) >= s.due(i - 1)));
        assert!(s.due(s.len() - 1) < span);
        // 2,000 arrivals expected in 20 s; Poisson spread is ~45.
        assert!((1800..=2200).contains(&s.len()), "{} arrivals", s.len());
        let same = Schedule::poisson(CONTRIBUTE_RATE, 4000, 7).within(span);
        assert_eq!(
            (0..s.len()).map(|i| s.due(i)).collect::<Vec<_>>(),
            (0..same.len()).map(|i| same.due(i)).collect::<Vec<_>>()
        );
        let (first, window) = s.window(Duration::from_secs(4), Duration::from_secs(8));
        assert_eq!(s.due(first) - Duration::from_secs(4), window.due(0));
        assert!(
            s.due(first - 1) < Duration::from_secs(4)
                && window.due(window.len() - 1) < Duration::from_secs(4)
        );
        let other = Schedule::poisson(CONTRIBUTE_RATE, 10, 8);
        assert_ne!(other.due(5), s.due(5));
        // Exponential gaps: their coefficient of variation is about 1,
        // where a fixed-interval schedule's would be 0.
        let gaps: Vec<f64> = (1..s.len())
            .map(|i| (s.due(i) - s.due(i - 1)).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let sd = (gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
        assert!((0.009..0.011).contains(&mean), "mean gap {mean}");
        assert!((0.9..1.1).contains(&(sd / mean)), "cv {}", sd / mean);
    }

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        let draw = |seed| {
            let mut r = SplitMix::derive(seed, UPLOADS);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(
            SplitMix::derive(7, HOT_KEYS).next_u64(),
            SplitMix::derive(7, HOT_ORDER).next_u64()
        );
        let mut r = SplitMix::new(3);
        assert!((0..1000).all(|_| {
            let n = r.noise();
            (1.0 - MEASUREMENT_NOISE..=1.0 + MEASUREMENT_NOISE).contains(&n)
        }));
        let mut v: Vec<u32> = (0..50).collect();
        SplitMix::new(9).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
