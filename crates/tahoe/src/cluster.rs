//! Multi-GPU cluster: one full [`Engine`] per device (paper §7.5).
//!
//! The paper scales inference by partitioning the batch across GPUs with no
//! inter-device communication; end-to-end time is the slowest device's time.
//! [`GpuCluster`] reproduces that with *real* per-device state — each device
//! slot owns an engine with its own capacity-modeled `DeviceMemory`, its own
//! simulated clock, and its own telemetry sink — so per-device memory
//! pressure, strategy selection, and kernel profiles are all observable, and
//! heterogeneous mixes (K80 + P100 + V100) fall out naturally.
//!
//! # Determinism
//!
//! Devices simulate sequentially on the caller thread (each engine's kernel
//! still fans its sampled blocks across `TAHOE_SIM_THREADS` workers), and
//! per-device telemetry is held in private sinks that
//! [`GpuCluster::flush_telemetry`] absorbs into the cluster sink in
//! device-index order. Every span's pid is remapped with
//! [`crate::telemetry::device_pid`] so each device keeps its own process
//! group in the exported trace, and the absorb drops the engines'
//! wall-clock-measured host spans — the merged exports are therefore
//! byte-identical at any worker count (pinned by `tests/determinism.rs`).

use tahoe_datasets::SampleMatrix;
use tahoe_gpu_sim::device::DeviceSpec;
use tahoe_gpu_sim::multigpu::partition;

use crate::engine::{Engine, EngineOptions};
use crate::strategy::Strategy;
use crate::telemetry::{Counter, TelemetrySink};
use tahoe_forest::Forest;

/// One device's share of a partitioned cluster inference.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceRun {
    /// Device index within the cluster.
    pub device: usize,
    /// Device model name.
    pub device_name: String,
    /// Samples this device served.
    pub n_samples: usize,
    /// Simulated kernel time of the device's partition (ns).
    pub elapsed_ns: f64,
    /// High-water simulated device-memory footprint so far (bytes).
    pub mem_high_water_bytes: u64,
    /// Strategy the device's engine selected.
    pub strategy: Strategy,
}

/// Result of one data-parallel cluster inference.
#[derive(Clone, Debug)]
pub struct ClusterRun {
    /// Per-device shares, in device-index order; empty partitions (more
    /// devices than samples) are skipped, so a share's `device` field may
    /// jump indices.
    pub per_device: Vec<DeviceRun>,
    /// End-to-end time: the slowest participating device (ns).
    pub total_ns: f64,
    /// Predictions concatenated in device (= sample) order; empty when the
    /// engines run with `functional: false`.
    pub predictions: Vec<f32>,
}

/// N per-device engines over one replicated forest image.
pub struct GpuCluster {
    /// One engine per device. Each records into its own private sink (all
    /// `Disabled` when the cluster sink is disabled), drained by
    /// [`GpuCluster::flush_telemetry`].
    engines: Vec<Engine>,
    /// The cluster-wide sink exports are read from.
    sink: TelemetrySink,
}

/// Deterministic per-slot "silicon lottery" slowdown: device 0 is the
/// nominal reference (exactly 1.0, so a 1-device cluster is bit-identical
/// to a standalone [`Engine`]); every other slot sustains a boost clock up
/// to 1 % below nominal — the binning/thermal spread real fleets measure
/// across nominally identical boards. A pure function of the slot index, so
/// cluster timing stays fully reproducible.
fn silicon_lottery_slowdown(device: usize) -> f64 {
    if device == 0 {
        return 1.0;
    }
    let h = (device as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    1.0 + ((h % 997) + 1) as f64 * 1e-5
}

impl GpuCluster {
    /// Builds one engine per device spec, replicating the converted forest
    /// image across identical device models instead of re-running the
    /// CPU-side rearrange/convert/microbench pipeline per slot. Each slot's
    /// engine executes on a [`DeviceSpec::downclocked`] copy of its spec
    /// (see [`silicon_lottery_slowdown`]): slot 0 is nominal, later slots
    /// run up to 1 % slower, deterministically.
    ///
    /// # Panics
    ///
    /// Panics when `devices` is empty or a device spec fails validation.
    #[must_use]
    pub fn new(devices: Vec<DeviceSpec>, forest: &Forest, options: EngineOptions) -> Self {
        Self::with_telemetry(devices, forest, options, TelemetrySink::Disabled)
    }

    /// `n` identical devices.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or the device spec fails validation.
    #[must_use]
    pub fn homogeneous(
        device: &DeviceSpec,
        n: usize,
        forest: &Forest,
        options: EngineOptions,
    ) -> Self {
        Self::new(vec![device.clone(); n], forest, options)
    }

    /// As [`GpuCluster::new`], recording into `sink`. Each device gets a
    /// private recording sink so worker scheduling can never interleave
    /// devices' telemetry; [`GpuCluster::flush_telemetry`] merges them into
    /// `sink` in device-index order.
    ///
    /// # Panics
    ///
    /// Panics when `devices` is empty or a device spec fails validation.
    #[must_use]
    pub fn with_telemetry(
        devices: Vec<DeviceSpec>,
        forest: &Forest,
        options: EngineOptions,
        sink: TelemetrySink,
    ) -> Self {
        assert!(!devices.is_empty(), "need at least one device");
        let mut engines: Vec<Engine> = Vec::with_capacity(devices.len());
        let mut nominal: Vec<DeviceSpec> = Vec::with_capacity(devices.len());
        for (d, spec) in devices.into_iter().enumerate() {
            let dsink = if sink.is_enabled() {
                let dsink = TelemetrySink::recording();
                // Device sinks must bucket time-series samples with the
                // cluster's window so the flush-time merge folds windows
                // one-to-one (DESIGN.md §2.14).
                dsink.set_timeseries_window_ns(sink.timeseries_window_ns());
                dsink
            } else {
                TelemetrySink::Disabled
            };
            // Calibration (rearrange/convert/microbench) runs once per
            // nominal device model; the replica then executes on its
            // lottery-perturbed spec, just as a real fleet calibrates once
            // per SKU and lives with per-board clock spread.
            let exec_spec = spec.downclocked(silicon_lottery_slowdown(d));
            let engine = match nominal.iter().position(|n| *n == spec) {
                Some(twin) => engines[twin].replicate(exec_spec, dsink),
                None => Engine::with_telemetry(exec_spec, forest.clone(), options, dsink),
            };
            engines.push(engine);
            nominal.push(spec);
        }
        Self { engines, sink }
    }

    /// Devices in the cluster.
    #[must_use]
    pub fn n_devices(&self) -> usize {
        self.engines.len()
    }

    /// Device `idx`'s engine.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    #[must_use]
    pub fn engine(&self, idx: usize) -> &Engine {
        &self.engines[idx]
    }

    /// Mutable access to device `idx`'s engine.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    #[must_use]
    pub fn engine_mut(&mut self, idx: usize) -> &mut Engine {
        &mut self.engines[idx]
    }

    /// Every device's engine, in device-index order (the serving loop
    /// dispatches across them).
    pub(crate) fn engines_mut(&mut self) -> &mut [Engine] {
        &mut self.engines
    }

    /// The cluster-wide sink. Call [`GpuCluster::flush_telemetry`] before
    /// exporting: per-device activity sits in private sinks until merged.
    #[must_use]
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.sink
    }

    /// Partitions `samples` evenly across all devices and infers each share
    /// on its own engine.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or attribute mismatch.
    pub fn infer_partitioned(&mut self, samples: &SampleMatrix) -> ClusterRun {
        self.infer_partitioned_across(samples, self.n_devices())
    }

    /// As [`GpuCluster::infer_partitioned`], using only the first
    /// `n_devices` devices (the strong-scaling sweep reuses one max-size
    /// cluster across device counts).
    ///
    /// Empty partitions (more devices than samples) are skipped: no engine
    /// call, no [`DeviceRun`] — never an `inf`/zero-time placeholder.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, attribute mismatch, or when `n_devices` is
    /// zero or exceeds the cluster size.
    pub fn infer_partitioned_across(
        &mut self,
        samples: &SampleMatrix,
        n_devices: usize,
    ) -> ClusterRun {
        assert!(
            n_devices > 0 && n_devices <= self.engines.len(),
            "n_devices {n_devices} outside 1..={}",
            self.engines.len()
        );
        assert!(samples.n_samples() > 0, "cannot infer an empty batch");
        let parts = partition(samples.n_samples(), n_devices);
        let mut per_device = Vec::with_capacity(n_devices);
        let mut predictions = Vec::new();
        let mut total_ns = 0.0f64;
        for (d, range) in parts.into_iter().enumerate() {
            if range.is_empty() {
                continue;
            }
            let rows: Vec<usize> = range.collect();
            let share = samples.select(&rows);
            let run = self.infer_on(d, &share, &mut predictions);
            total_ns = total_ns.max(run.elapsed_ns);
            per_device.push(run);
        }
        ClusterRun { per_device, total_ns, predictions }
    }

    /// Infers a full batch on one device (the weak-scaling path: every
    /// device gets its own perturbed copy of the dataset).
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, attribute mismatch, or an out-of-range
    /// device index.
    pub fn infer_one(&mut self, device: usize, samples: &SampleMatrix) -> DeviceRun {
        let mut predictions = Vec::new();
        self.infer_on(device, samples, &mut predictions)
    }

    fn infer_on(
        &mut self,
        device: usize,
        samples: &SampleMatrix,
        predictions: &mut Vec<f32>,
    ) -> DeviceRun {
        let engine = &mut self.engines[device];
        let result = engine.infer(samples);
        predictions.extend_from_slice(&result.predictions);
        DeviceRun {
            device,
            device_name: engine.device().name.to_string(),
            n_samples: samples.n_samples(),
            elapsed_ns: result.run.kernel.total_ns,
            mem_high_water_bytes: result.mem_high_water_bytes,
            strategy: result.strategy,
        }
    }

    /// Merges every device's private telemetry into the cluster sink, in
    /// device-index order, then refreshes the cluster-wide allocator gauges
    /// (in-use = sum of live footprints, high-water = sum of per-device
    /// high waters — per-device gauges are excluded from the absorb because
    /// summing point-in-time snapshots double-counts).
    ///
    /// Idempotent between runs: device sinks are drained, so flushing twice
    /// adds nothing new. Call after simulation, before exporting.
    pub fn flush_telemetry(&self) {
        if !self.sink.is_enabled() {
            return;
        }
        for (d, engine) in self.engines.iter().enumerate() {
            self.sink.absorb_device(engine.telemetry(), d, engine.device().name);
        }
        let in_use: u64 = self.engines.iter().map(|e| e.memory().in_use_bytes()).sum();
        let high_water: u64 = self
            .engines
            .iter()
            .map(|e| e.memory().high_water_bytes())
            .sum();
        self.sink.set(Counter::AllocInUseBytes, in_use);
        self.sink.max(Counter::AllocHighWaterBytes, high_water);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_datasets::{DatasetSpec, Scale};
    use tahoe_forest::{predict_dataset, train_for_spec};

    fn setup(name: &str) -> (Forest, SampleMatrix) {
        let spec = DatasetSpec::by_name(name).unwrap();
        let data = spec.generate(Scale::Smoke);
        let (train, infer) = data.split_train_infer();
        let forest = train_for_spec(&spec, &train, Scale::Smoke);
        (forest, infer.samples)
    }

    #[test]
    fn partitioned_predictions_match_cpu_reference() {
        let (forest, samples) = setup("letter");
        let reference = predict_dataset(&forest, &samples);
        let devices = vec![
            DeviceSpec::tesla_k80(),
            DeviceSpec::tesla_p100(),
            DeviceSpec::tesla_v100(),
        ];
        let mut cluster = GpuCluster::new(devices, &forest, EngineOptions::tahoe());
        let run = cluster.infer_partitioned(&samples);
        assert_eq!(run.per_device.len(), 3);
        assert_eq!(run.predictions.len(), reference.len());
        for (a, b) in run.predictions.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        let served: usize = run.per_device.iter().map(|d| d.n_samples).sum();
        assert_eq!(served, samples.n_samples());
        let slowest = run
            .per_device
            .iter()
            .map(|d| d.elapsed_ns)
            .fold(0.0f64, f64::max);
        assert_eq!(run.total_ns.to_bits(), slowest.to_bits());
    }

    #[test]
    fn empty_partitions_are_skipped_not_zeroed() {
        let (forest, samples) = setup("letter");
        let mut cluster =
            GpuCluster::homogeneous(&DeviceSpec::tesla_p100(), 8, &forest, EngineOptions::tahoe());
        let rows: Vec<usize> = (0..3).collect();
        let tiny = samples.select(&rows);
        let run = cluster.infer_partitioned(&tiny);
        assert_eq!(run.per_device.len(), 3, "5 of 8 partitions are empty");
        assert!(run.per_device.iter().all(|d| d.n_samples == 1));
        assert!(run.per_device.iter().all(|d| d.elapsed_ns.is_finite() && d.elapsed_ns > 0.0));
        assert!(run.total_ns.is_finite());
    }

    #[test]
    fn replicated_engines_are_independent() {
        let (forest, samples) = setup("ijcnn1");
        let mut cluster =
            GpuCluster::homogeneous(&DeviceSpec::tesla_p100(), 2, &forest, EngineOptions::tahoe());
        // Device 0 sees a much larger batch than device 1: its staging
        // high-water must pull ahead, proving the allocators are not shared.
        let big: Vec<usize> = (0..samples.n_samples()).collect();
        let small = vec![0usize];
        let r0 = cluster.infer_one(0, &samples.select(&big));
        let r1 = cluster.infer_one(1, &samples.select(&small));
        assert!(r0.mem_high_water_bytes > r1.mem_high_water_bytes);
        // And both converted images came from one conversion pass.
        assert_eq!(
            cluster.engine(0).conversion(),
            cluster.engine(1).conversion(),
            "replica must reuse the original's conversion report"
        );
    }

    #[test]
    fn flush_merges_device_telemetry_with_per_device_pids() {
        use crate::telemetry::{device_pid, PID_GPU};
        let (forest, samples) = setup("letter");
        let sink = TelemetrySink::recording();
        let devices = vec![DeviceSpec::tesla_p100(), DeviceSpec::tesla_v100()];
        let mut cluster =
            GpuCluster::with_telemetry(devices, &forest, EngineOptions::tahoe(), sink.clone());
        let _ = cluster.infer_partitioned(&samples);
        assert_eq!(sink.snapshot().span_count, 0, "activity stays in device sinks until flushed");
        cluster.flush_telemetry();
        let snap = sink.snapshot();
        assert!(snap.span_count > 0);
        assert_eq!(snap.counters["kernel_launches"], 2);
        let trace = sink.chrome_trace_json();
        assert!(trace.contains(&format!("\"pid\": {}", device_pid(PID_GPU, 1))));
        assert!(trace.contains("[gpu1: Tesla V100]"));
        // Cluster high-water gauge sums both devices' forest images.
        let per_device_sum: u64 = (0..2)
            .map(|d| cluster.engine(d).memory().high_water_bytes())
            .sum();
        assert_eq!(snap.counters["alloc_high_water_bytes"], per_device_sum);
        // Idempotent: a second flush adds nothing.
        cluster.flush_telemetry();
        assert_eq!(sink.snapshot().span_count, snap.span_count);
        assert_eq!(sink.snapshot().counters["kernel_launches"], 2);
    }

    #[test]
    fn silicon_lottery_is_deterministic_and_bounded() {
        assert_eq!(silicon_lottery_slowdown(0).to_bits(), 1.0f64.to_bits(), "slot 0 is nominal");
        for d in 1..256 {
            let f = silicon_lottery_slowdown(d);
            assert!(f > 1.0 && f <= 1.01, "slot {d}: slowdown {f} out of (1, 1.01]");
            assert_eq!(f.to_bits(), silicon_lottery_slowdown(d).to_bits());
        }
        // Replicated slots of one model really run at different speeds: the
        // same batch takes (slightly) longer on a lottery-slowed slot.
        let (forest, samples) = setup("letter");
        let mut cluster =
            GpuCluster::homogeneous(&DeviceSpec::tesla_p100(), 3, &forest, EngineOptions::tahoe());
        let t0 = cluster.infer_one(0, &samples).elapsed_ns;
        let t1 = cluster.infer_one(1, &samples).elapsed_ns;
        let t2 = cluster.infer_one(2, &samples).elapsed_ns;
        assert!(t1 > t0, "slot 1 must trail the nominal slot ({t1} vs {t0})");
        assert!(t2 > t0, "slot 2 must trail the nominal slot ({t2} vs {t0})");
        assert_ne!(t1.to_bits(), t2.to_bits(), "distinct slots draw distinct clocks");
        assert!(t1 < t0 * 1.02 && t2 < t0 * 1.02, "spread stays within the 1% lottery band");
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_cluster_panics() {
        let (forest, _) = setup("letter");
        let _ = GpuCluster::new(Vec::new(), &forest, EngineOptions::tahoe());
    }
}
