//! Workload definitions, set-up, and the serve loop each workload times.
//!
//! Everything here drives public APIs only: `DatasetSpec::generate`,
//! `train_for_spec`, `Engine` / `GpuCluster`, `ServingSim` /
//! `ClusterServingSim`, `Engine::refresh_probabilities` and the
//! `TelemetrySink` exports.

use std::path::Path;
use std::time::Instant;

use tahoe::cluster::GpuCluster;
use tahoe::engine::{Engine, EngineOptions, NodeEncodingChoice};
use tahoe::serving::{BatchRecord, BatchingPolicy, ClusterServingSim, ServingReport, ServingSim};
use tahoe::telemetry::TelemetrySink;
use tahoe_datasets::{DatasetSpec, SampleMatrix, Scale};
use tahoe_forest::Forest;
use tahoe_gpu_sim::device::DeviceSpec;
use tahoe_gpu_sim::kernel::Detail;

/// One workload: the model, the device(s), the engine configuration and
/// the request trace.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name on the command line and in results.
    pub name: &'static str,
    /// Table 2 dataset the forest is trained on.
    pub dataset: &'static str,
    /// P100s serving the trace (1 = a bare `Engine`).
    pub devices: usize,
    /// Dynamic-batching policy.
    pub policy: BatchingPolicy,
    /// Engine configuration.
    pub options: EngineOptions,
    /// Requests in one replay of the trace.
    pub n_requests: usize,
    /// Uniform inter-arrival gap on the simulated clock (ns).
    pub interarrival_ns: f64,
    /// Per-request latency limit for SLO attainment and the rate ladder (ns).
    pub latency_limit_ns: f64,
    /// Segments the trace is split into; the model is refreshed between
    /// consecutive segments (1 = one uninterrupted trace).
    pub segments: usize,
    /// Whether the serve records telemetry and writes the five exports.
    pub exports: bool,
    /// Payload pool: `None` = the whole inference split in seeded order
    /// (distinct payloads); `Some(m)` = a seeded hot set of `m` rows.
    pub hot_set: Option<usize>,
    /// Requests per rung of the max-rate ladder.
    pub ladder_requests: usize,
}

/// Datasets are always built at CI scale.
pub const SCALE: Scale = Scale::Ci;

/// Every workload, in the order `--workload all` runs them.
#[must_use]
pub fn all() -> Vec<Workload> {
    let latency = Workload {
        name: "serve-latency",
        dataset: "higgs",
        devices: 1,
        policy: BatchingPolicy::low_latency(),
        options: EngineOptions::tahoe(),
        n_requests: 16_384,
        // A full 64-request batch runs ~15.6 µs on the simulated P100;
        // 325 ns between arrivals keeps the device ~75% busy.
        interarrival_ns: 325.0,
        // The tail (p99.9) sits near 37 µs at this rate.
        latency_limit_ns: 45_000.0,
        segments: 1,
        exports: false,
        hot_set: None,
        ladder_requests: 4_096,
    };
    vec![
        latency.clone(),
        Workload {
            name: "bulk-full",
            dataset: "cup98",
            devices: 2,
            policy: BatchingPolicy::high_throughput(),
            options: EngineOptions {
                detail: Detail::Full,
                node_encoding: NodeEncodingChoice::Auto,
                functional: false,
                ..EngineOptions::tahoe()
            },
            n_requests: 131_072,
            // A full 8192-request batch runs ~1.2 ms; 90 ns between
            // arrivals keeps the two devices ~70% busy, with a tail near
            // 1.9 ms.
            interarrival_ns: 90.0,
            latency_limit_ns: 2_500_000.0,
            segments: 1,
            exports: false,
            hot_set: Some(512),
            ladder_requests: 65_536,
        },
        Workload {
            name: "serve-observed",
            exports: true,
            ..latency.clone()
        },
        Workload {
            name: "serve-adaptive",
            options: EngineOptions {
                track_probabilities: true,
                ..latency.options
            },
            segments: 8,
            ..latency
        },
    ]
}

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// splitmix64: the benchmark's only source of randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` in stream `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Random stream for the payload order and the hot set.
pub const STREAM_PAYLOADS: u64 = 1;
/// Stream choosing which batches the correctness check samples.
pub const STREAM_CHECK: u64 = 2;

/// Host time of each set-up stage (ns).
#[derive(Clone, Copy, Debug, Default)]
pub struct Stages {
    /// `DatasetSpec::generate`.
    pub generate_ns: f64,
    /// `train_for_spec`.
    pub train_ns: f64,
    /// `Engine::new` / `GpuCluster::new`, conversion included.
    pub engine_new_ns: f64,
    /// Node-swap planning, from `Engine::conversion()`.
    pub node_swap_ns: f64,
    /// Tokenize + SimHash, from `Engine::conversion()`.
    pub simhash_ns: f64,
    /// LSH + ordering, from `Engine::conversion()`.
    pub lsh_ns: f64,
    /// Device-format conversion, from `Engine::conversion()`.
    pub convert_ns: f64,
    /// Whole set-up: generation through the first request being ready.
    pub total_ns: f64,
}

/// A workload's model and request payloads.
pub struct Prepared {
    /// The trained forest (the CPU reference for correctness).
    pub forest: Forest,
    /// The payload pool: request `i` carries row `i % pool.n_samples()`.
    pub pool: SampleMatrix,
    /// Per-segment payload matrices (request `j` of segment `k` carries pool
    /// row `(k * segment_len + j) % pool_len`); one entry when unsegmented.
    pub segments: Vec<SampleMatrix>,
}

/// Builds the workload's model and payloads from scratch, timing each
/// stage. Training always runs in-process: no forest cache is read.
#[must_use]
pub fn setup(w: &Workload, seed: u64) -> (Prepared, Stages) {
    let t_total = Instant::now();
    let spec = DatasetSpec::by_name(w.dataset).expect("workload names a Table 2 dataset");
    let t = Instant::now();
    let data = spec.generate(SCALE);
    let generate_ns = ns_since(t);
    let (train, infer) = data.split_train_infer();
    let t = Instant::now();
    let forest = tahoe_forest::train_for_spec(&spec, &train, SCALE);
    let train_ns = ns_since(t);
    let pool = payload_pool(&infer.samples, w.hot_set, seed);
    let segments = segment_payloads(&pool, w.n_requests, w.segments);
    let t = Instant::now();
    let server = Server::build(w, &forest, TelemetrySink::Disabled);
    let engine_new_ns = ns_since(t);
    let total_ns = ns_since(t_total);
    let conv = server.engine(0).conversion();
    let stages = Stages {
        generate_ns,
        train_ns,
        engine_new_ns,
        node_swap_ns: conv.rearrange.node_swap_ns as f64,
        simhash_ns: conv.rearrange.simhash_ns as f64,
        lsh_ns: conv.rearrange.lsh_ns as f64,
        convert_ns: conv.convert_ns as f64,
        total_ns,
    };
    (
        Prepared {
            forest,
            pool,
            segments,
        },
        stages,
    )
}

/// Nanoseconds elapsed since `t`.
#[must_use]
pub fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// The seeded payload pool: the whole split in seeded order, or a seeded
/// hot set of `m` distinct rows (a power of two, so tiled batches repeat
/// block windows).
#[must_use]
pub fn payload_pool(samples: &SampleMatrix, hot_set: Option<usize>, seed: u64) -> SampleMatrix {
    let mut order = Rng::new(seed, STREAM_PAYLOADS).permutation(samples.n_samples());
    if let Some(m) = hot_set {
        order.truncate(m.min(order.len()));
    }
    samples.select(&order)
}

/// Splits a trace of `n_requests` into `segments` payload matrices, keeping
/// request `i`'s payload at pool row `i % pool_len` across the split.
#[must_use]
pub fn segment_payloads(
    pool: &SampleMatrix,
    n_requests: usize,
    segments: usize,
) -> Vec<SampleMatrix> {
    if segments <= 1 {
        return vec![pool.clone()];
    }
    let len = segment_len(n_requests, segments);
    (0..segments)
        .map(|k| {
            let rows: Vec<usize> = (0..len).map(|j| (k * len + j) % pool.n_samples()).collect();
            pool.select(&rows)
        })
        .collect()
}

/// Requests per segment (the trace length must divide evenly).
#[must_use]
pub fn segment_len(n_requests: usize, segments: usize) -> usize {
    assert_eq!(
        n_requests % segments,
        0,
        "segments must split the trace evenly"
    );
    n_requests / segments
}

/// A bare engine or a cluster, behind one serve interface.
pub enum Server {
    /// One device.
    Single(Box<Engine>),
    /// Several devices behind one batching queue.
    Cluster(GpuCluster),
}

/// One served trace (or segment): the report plus who ran each batch.
#[derive(Clone, Debug)]
pub struct Served {
    /// Requests offered.
    pub n_requests: usize,
    /// The serving report.
    pub report: ServingReport,
    /// Device that executed each batch.
    pub devices: Vec<usize>,
    /// Simulated busy time per device (ns).
    pub busy_ns: Vec<f64>,
}

impl Server {
    /// Builds the workload's engine or cluster on P100s.
    #[must_use]
    pub fn build(w: &Workload, forest: &Forest, sink: TelemetrySink) -> Server {
        let p100 = DeviceSpec::tesla_p100();
        if w.devices == 1 {
            Server::Single(Box::new(Engine::with_telemetry(
                p100,
                forest.clone(),
                w.options,
                sink,
            )))
        } else {
            Server::Cluster(GpuCluster::with_telemetry(
                vec![p100; w.devices],
                forest,
                w.options,
                sink,
            ))
        }
    }

    /// Devices behind the server.
    #[must_use]
    pub fn n_devices(&self) -> usize {
        match self {
            Server::Single(_) => 1,
            Server::Cluster(c) => c.n_devices(),
        }
    }

    /// Device `d`'s engine.
    #[must_use]
    pub fn engine(&self, d: usize) -> &Engine {
        match self {
            Server::Single(e) => e,
            Server::Cluster(c) => c.engine(d),
        }
    }

    /// Device `d`'s engine, mutably.
    pub fn engine_mut(&mut self, d: usize) -> &mut Engine {
        match self {
            Server::Single(e) => e,
            Server::Cluster(c) => c.engine_mut(d),
        }
    }

    /// The sink the serve records into.
    #[must_use]
    pub fn telemetry(&self) -> &TelemetrySink {
        match self {
            Server::Single(e) => e.telemetry(),
            Server::Cluster(c) => c.telemetry(),
        }
    }

    /// Replays `n_requests` uniform arrivals over `payloads`.
    pub fn serve(
        &mut self,
        w: &Workload,
        payloads: &SampleMatrix,
        n_requests: usize,
        interarrival_ns: f64,
    ) -> Served {
        let deadline = Some(w.latency_limit_ns);
        match self {
            Server::Single(e) => {
                let report = ServingSim::new(e, w.policy).run_uniform_trace_with_deadline(
                    payloads,
                    n_requests,
                    interarrival_ns,
                    deadline,
                );
                let busy = report.batches.iter().map(|b| b.gpu_ns).sum();
                Served {
                    n_requests,
                    devices: vec![0; report.batches.len()],
                    busy_ns: vec![busy],
                    report,
                }
            }
            Server::Cluster(c) => {
                let cr = ClusterServingSim::new(c, w.policy).run_uniform_trace_with_deadline(
                    payloads,
                    n_requests,
                    interarrival_ns,
                    deadline,
                );
                Served {
                    n_requests,
                    busy_ns: cr.per_device.iter().map(|d| d.busy_ns).collect(),
                    devices: cr.batch_devices,
                    report: cr.report,
                }
            }
        }
    }

    /// `Engine::refresh_probabilities` on every device.
    pub fn refresh(&mut self) {
        for d in 0..self.n_devices() {
            self.engine_mut(d).refresh_probabilities();
        }
    }
}

impl Served {
    /// Joins consecutive segments into one trace: later segments' dispatch
    /// times shift by the earlier makespans.
    #[must_use]
    pub fn concat(parts: &[Served]) -> Served {
        let mut batches: Vec<BatchRecord> = Vec::new();
        let mut latencies = Vec::new();
        let mut devices = Vec::new();
        let mut busy_ns = vec![0.0; parts.iter().map(|p| p.busy_ns.len()).max().unwrap_or(1)];
        let (mut offset, mut high_water, mut n_requests) = (0.0, 0u64, 0usize);
        for p in parts {
            batches.extend(p.report.batches.iter().map(|b| BatchRecord {
                dispatched_at_ns: b.dispatched_at_ns + offset,
                ..*b
            }));
            latencies.extend_from_slice(&p.report.latencies_ns);
            devices.extend_from_slice(&p.devices);
            for (acc, b) in busy_ns.iter_mut().zip(&p.busy_ns) {
                *acc += b;
            }
            offset += p.report.makespan_ns;
            high_water = high_water.max(p.report.mem_high_water_bytes);
            n_requests += p.n_requests;
        }
        let deadline = parts.first().and_then(|p| p.report.deadline_ns);
        Served {
            n_requests,
            report: ServingReport::new(batches, latencies, offset, high_water)
                .with_deadline(deadline),
            devices,
            busy_ns,
        }
    }

    /// FNV-1a over every simulated quantity of the trace, bit for bit: two
    /// replays agree on the simulated clock iff their fingerprints match.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.word(self.n_requests as u64);
        for (b, d) in self.report.batches.iter().zip(&self.devices) {
            h.word(b.size as u64);
            h.word(b.dispatched_at_ns.to_bits());
            h.word(b.gpu_ns.to_bits());
            h.bytes(b.strategy.name().as_bytes());
            h.word(b.chunks as u64);
            h.word(b.mem_in_use_bytes);
            h.word(*d as u64);
        }
        for l in &self.report.latencies_ns {
            h.word(l.to_bits());
        }
        for b in &self.busy_ns {
            h.word(b.to_bits());
        }
        h.word(self.report.makespan_ns.to_bits());
        h.word(self.report.mem_high_water_bytes);
        h.0
    }
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one little-endian word.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// The five telemetry exports, in the order they are written.
pub const EXPORTS: [&str; 5] = ["trace", "metrics", "profiles", "timeseries", "decisions"];

/// Host cost of one serve of the whole trace, split by what the timed
/// region spent it on (ns).
#[derive(Clone, Debug, Default)]
pub struct RepTimes {
    /// Inside `ServingSim` / `ClusterServingSim`.
    pub serve_ns: f64,
    /// Each `Engine::refresh_probabilities` round.
    pub refresh_ns: Vec<f64>,
    /// Serialising and writing each export.
    pub export_ns: [f64; 5],
    /// Bytes of each export.
    pub export_bytes: [u64; 5],
}

impl RepTimes {
    /// Everything the timed region spent.
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        self.serve_ns + self.refresh_ns.iter().sum::<f64>() + self.export_ns.iter().sum::<f64>()
    }
}

/// Serves the whole trace on a fresh server: every segment, the refresh
/// between consecutive segments, and (when the workload exports) the five
/// exports written under `out_dir`. `before_refresh` sees each segment's
/// result while the server still holds the model that served it. Returns
/// each segment's result and the host-time split.
pub fn run_trace(
    w: &Workload,
    p: &Prepared,
    server: &mut Server,
    out_dir: &Path,
    mut before_refresh: impl FnMut(&Server, usize, &Served),
) -> (Vec<Served>, RepTimes) {
    let mut times = RepTimes::default();
    let seg_len = segment_len(w.n_requests, w.segments);
    let mut parts = Vec::with_capacity(w.segments);
    for (k, payloads) in p.segments.iter().enumerate() {
        let t = Instant::now();
        let served = server.serve(w, payloads, seg_len, w.interarrival_ns);
        times.serve_ns += ns_since(t);
        before_refresh(server, k, &served);
        parts.push(served);
        if k + 1 < w.segments {
            let t = Instant::now();
            server.refresh();
            times.refresh_ns.push(ns_since(t));
        }
    }
    if w.exports {
        let sink = server.telemetry();
        for (i, name) in EXPORTS.iter().enumerate() {
            let t = Instant::now();
            let text = match i {
                0 => sink.chrome_trace_json(),
                1 => sink.metrics_json(),
                2 => sink.profiles_json(),
                3 => sink.timeseries_json(),
                _ => sink.decisions_json(),
            };
            std::fs::write(out_dir.join(format!("{name}.json")), &text)
                .expect("write telemetry export");
            times.export_ns[i] = ns_since(t);
            times.export_bytes[i] = text.len() as u64;
        }
    }
    (parts, times)
}

/// The sink a workload's server records into.
#[must_use]
pub fn workload_sink(w: &Workload) -> TelemetrySink {
    if w.exports {
        TelemetrySink::recording()
    } else {
        TelemetrySink::Disabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: usize) -> SampleMatrix {
        SampleMatrix::from_vec(rows, 2, (0..rows * 2).map(|v| v as f32).collect())
    }

    #[test]
    fn seeded_permutations_repeat_and_differ_by_seed() {
        let a = Rng::new(1, STREAM_PAYLOADS).permutation(100);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_eq!(a, Rng::new(1, STREAM_PAYLOADS).permutation(100));
        assert_ne!(a, Rng::new(2, STREAM_PAYLOADS).permutation(100));
        assert_ne!(a, Rng::new(1, STREAM_CHECK).permutation(100));
    }

    #[test]
    fn hot_set_keeps_distinct_rows() {
        let pool = payload_pool(&matrix(40), Some(8), 3);
        assert_eq!(pool.n_samples(), 8);
        let mut firsts: Vec<u32> = pool.rows().map(|r| r[0] as u32).collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 8);
    }

    #[test]
    fn segments_keep_each_request_on_its_pool_row() {
        let pool = matrix(5);
        let segs = segment_payloads(&pool, 12, 3);
        assert_eq!(segs.len(), 3);
        for (k, seg) in segs.iter().enumerate() {
            for j in 0..4 {
                // Request j of segment k is request 4k + j of the trace.
                assert_eq!(seg.row(j % seg.n_samples()), pool.row((4 * k + j) % 5));
            }
        }
        assert_eq!(segment_payloads(&pool, 12, 1)[0].n_samples(), 5);
    }

    fn served(latencies: Vec<f64>, makespan: f64) -> Served {
        let batch = BatchRecord {
            size: latencies.len(),
            dispatched_at_ns: 10.0,
            gpu_ns: 5.0,
            strategy: tahoe::strategy::Strategy::Direct,
            chunks: 1,
            mem_in_use_bytes: 64,
        };
        Served {
            n_requests: latencies.len(),
            report: ServingReport::new(vec![batch], latencies, makespan, 64),
            devices: vec![0],
            busy_ns: vec![5.0],
        }
    }

    #[test]
    fn concat_shifts_later_segments_by_earlier_makespans() {
        let joined = Served::concat(&[served(vec![1.0, 2.0], 100.0), served(vec![3.0], 50.0)]);
        assert_eq!(joined.n_requests, 3);
        assert_eq!(joined.report.latencies_ns, vec![1.0, 2.0, 3.0]);
        assert_eq!(joined.report.makespan_ns, 150.0);
        assert_eq!(joined.report.batches[1].dispatched_at_ns, 110.0);
        assert_eq!(joined.busy_ns, vec![10.0]);
    }

    #[test]
    fn fingerprint_sees_a_one_ulp_change() {
        let a = served(vec![1.0, 2.0], 100.0);
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.report = ServingReport::new(
            b.report.batches.clone(),
            vec![1.0, f64::from_bits(2.0f64.to_bits() + 1)],
            100.0,
            64,
        );
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
