//! `tahoe` — command-line front end for the Tahoe reproduction.
//!
//! ```text
//! tahoe train   --data <name|file.csv> [--scale ci] [--trees N] [--depth D]
//!               [--kind gbdt|rf] --model model.json
//! tahoe infer   --model model.json --data <name|file.csv> [--device p100]
//!               [--strategy auto|shared-data|direct|shared-forest|splitting]
//!               [--batch N] [--out predictions.csv]
//! tahoe bench   --model model.json --data <name|file.csv> [--device p100]
//! tahoe serve   --model model.json --data <name|file.csv>
//!               [--gpus N | --devices k80,p100,v100] [--requests N]
//!               [--interarrival NS] [--policy latency|throughput]
//! tahoe inspect --model model.json
//! tahoe profile --profile profiles.json [--top N]
//! tahoe explain --decisions decisions.json [--top N]
//! ```
//!
//! `--data` accepts either a Table 2 dataset name (synthetic generation) or a
//! path to a CSV file (label in the last column; `?`/`NA`/empty = missing).

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tahoe_repro::datasets::{
    self, Dataset, DatasetSpec, Scale, Task,
};
use tahoe_repro::engine::cluster::GpuCluster;
use tahoe_repro::engine::engine::{Engine, EngineOptions, NodeEncodingChoice};
use tahoe_repro::engine::profile::{HistogramExport, ProfilesExport};
use tahoe_repro::engine::telemetry::decision::{DecisionRecord, DecisionsExport};
use tahoe_repro::engine::serving::{BatchingPolicy, ClusterServingSim};
use tahoe_repro::engine::strategy::Strategy;
use tahoe_repro::engine::telemetry::TelemetrySink;
use tahoe_repro::forest::train::gbdt::{self, GbdtParams};
use tahoe_repro::forest::train::random_forest::{self, RandomForestParams};
use tahoe_repro::forest::train::TrainParams;
use tahoe_repro::forest::{io as forest_io, Forest};
use tahoe_repro::gpu::device::DeviceSpec;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage("missing command");
    };
    let flags = match Flags::parse(rest) {
        Ok(f) => f,
        Err(e) => return usage(&e),
    };
    let result = match command.as_str() {
        "train" => cmd_train(&flags),
        "infer" => cmd_infer(&flags),
        "bench" => cmd_bench(&flags),
        "serve" => cmd_serve(&flags),
        "inspect" => cmd_inspect(&flags),
        "profile" => cmd_profile(&flags),
        "explain" => cmd_explain(&flags),
        "--help" | "-h" | "help" => {
            print!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const HELP: &str = "\
tahoe — tree structure-aware inference engine (EuroSys '21 reproduction)

commands:
  train    train a forest on a dataset and save it as JSON
  infer    run inference with the Tahoe engine on a simulated GPU
  bench    compare all four inference strategies on a dataset
  serve    replay a request trace through a simulated multi-GPU cluster
  inspect  print a saved forest's structure summary
  profile  pretty-print a kernel-profile export (see --profile below)
  explain  pretty-print a decision-audit export (see --decisions below)

common flags:
  --data <name|file.csv>   Table 2 dataset name or CSV path (label last)
  --model <file.json>      forest model file
  --device <k80|p100|v100> simulated GPU (default p100)
  --scale <paper|ci|smoke> synthetic dataset scale (default ci)
  --trees N --depth D      training hyperparameter overrides
  --kind <gbdt|rf>         ensemble type for CSV training (default gbdt)
  --task <class|reg>       CSV label type (default class)
  --strategy <s>           auto|shared-data|direct|shared-forest|splitting
  --node-encoding <e>      infer/bench/serve: classic|packed|auto (default
                           auto — packed struct-of-arrays lanes when the
                           attribute count allows it, classic otherwise)
  --batch N                inference batch size (default: whole dataset)
  --out <file>             write predictions as CSV
  --prune EPS              collapse near-constant subtrees after training
  --gpus N                 serve: homogeneous cluster of N `--device`s (1)
  --devices <a,b,...>      serve: heterogeneous mix, e.g. k80,p100,v100
                           (overrides --gpus/--device)
  --requests N             serve: requests in the uniform trace (1000)
  --interarrival NS        serve: request interarrival gap in ns (1000)
  --policy <p>             serve: latency|throughput batching (latency)
  --trace <file.json>      write a Chrome trace (chrome://tracing, Perfetto)
  --metrics <file.json>    write a flat telemetry counter snapshot
  --profile <file.json>    infer/bench: write per-kernel profiles, latency
                           histograms, and model-drift records;
                           profile: the export file to pretty-print
  --timeseries <file.json> write windowed time-series samples (busy fraction,
                           queue depth, DRAM, windowed p50/p95/p99, SLO)
  --decisions <file.json>  infer/bench/serve: write the flight recorder —
                           per-tuning-event decision audits and per-request
                           critical-path records;
                           explain: the export file to pretty-print
  --slo-ns NS              serve: per-request latency deadline; tags each
                           request and reports windowed SLO attainment
  --calibrate              infer/bench/serve: fold realized kernel times back
                           into the performance model (drift-driven
                           recalibration; off by default)
  --top N                  profile: kernels to show, by simulated time (10);
                           explain: decisions to show, in batch order (10)
";

/// Parsed `--flag value` pairs.
struct Flags {
    data: Option<String>,
    model: Option<PathBuf>,
    device: Option<String>,
    scale: Scale,
    trees: Option<usize>,
    depth: Option<usize>,
    kind: Option<String>,
    task: Option<String>,
    strategy: Option<String>,
    node_encoding: Option<String>,
    batch: Option<usize>,
    gpus: Option<usize>,
    devices: Option<String>,
    requests: Option<usize>,
    interarrival: Option<f64>,
    policy: Option<String>,
    out: Option<PathBuf>,
    prune: Option<f32>,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    profile: Option<PathBuf>,
    timeseries: Option<PathBuf>,
    decisions: Option<PathBuf>,
    slo_ns: Option<f64>,
    calibrate: bool,
    top: Option<usize>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut f = Flags {
            data: None,
            model: None,
            device: None,
            scale: Scale::Ci,
            trees: None,
            depth: None,
            kind: None,
            task: None,
            strategy: None,
            node_encoding: None,
            batch: None,
            gpus: None,
            devices: None,
            requests: None,
            interarrival: None,
            policy: None,
            out: None,
            prune: None,
            trace: None,
            metrics: None,
            profile: None,
            timeseries: None,
            decisions: None,
            slo_ns: None,
            calibrate: false,
            top: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--data" => f.data = Some(value()?),
                "--model" => f.model = Some(PathBuf::from(value()?)),
                "--device" => f.device = Some(value()?),
                "--scale" => {
                    let v = value()?;
                    f.scale = Scale::parse(&v).ok_or(format!("unknown scale '{v}'"))?;
                }
                "--trees" => f.trees = Some(parse_count(&value()?, "--trees")?),
                "--depth" => f.depth = Some(parse_num(&value()?, "--depth")?),
                "--kind" => f.kind = Some(value()?),
                "--task" => f.task = Some(value()?),
                "--strategy" => f.strategy = Some(value()?),
                "--node-encoding" => f.node_encoding = Some(value()?),
                "--batch" => f.batch = Some(parse_count(&value()?, "--batch")?),
                "--gpus" => f.gpus = Some(parse_count(&value()?, "--gpus")?),
                "--devices" => f.devices = Some(value()?),
                "--requests" => f.requests = Some(parse_count(&value()?, "--requests")?),
                "--interarrival" => {
                    let v = value()?;
                    let ns: f64 = v
                        .parse()
                        .map_err(|_| format!("bad number '{v}' for --interarrival"))?;
                    if !(ns.is_finite() && ns >= 0.0) {
                        return Err(format!("--interarrival must be finite and >= 0, got {v}"));
                    }
                    f.interarrival = Some(ns);
                }
                "--policy" => f.policy = Some(value()?),
                "--out" => f.out = Some(PathBuf::from(value()?)),
                "--prune" => {
                    let v = value()?;
                    let eps: f32 = v
                        .parse()
                        .map_err(|_| format!("bad tolerance '{v}' for --prune"))?;
                    if !(eps.is_finite() && eps >= 0.0) {
                        return Err(format!("--prune must be finite and >= 0, got {v}"));
                    }
                    f.prune = Some(eps);
                }
                "--trace" => f.trace = Some(PathBuf::from(value()?)),
                "--metrics" => f.metrics = Some(PathBuf::from(value()?)),
                "--profile" => f.profile = Some(PathBuf::from(value()?)),
                "--timeseries" => f.timeseries = Some(PathBuf::from(value()?)),
                "--decisions" => f.decisions = Some(PathBuf::from(value()?)),
                "--slo-ns" => {
                    let v = value()?;
                    let ns: f64 = v
                        .parse()
                        .map_err(|_| format!("bad number '{v}' for --slo-ns"))?;
                    if !(ns.is_finite() && ns > 0.0) {
                        return Err(format!("--slo-ns must be finite and > 0, got {v}"));
                    }
                    f.slo_ns = Some(ns);
                }
                "--calibrate" => f.calibrate = true,
                "--top" => f.top = Some(parse_count(&value()?, "--top")?),
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(f)
    }

    fn device(&self) -> Result<DeviceSpec, String> {
        device_by_name(self.device.as_deref().unwrap_or("p100"))
    }

    /// The `serve` cluster: `--devices a,b,c` wins; otherwise `--gpus N`
    /// copies of `--device` (default one P100).
    fn cluster_devices(&self) -> Result<Vec<DeviceSpec>, String> {
        if let Some(list) = &self.devices {
            let devices: Vec<DeviceSpec> = list
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| device_by_name(s.trim()))
                .collect::<Result<_, _>>()?;
            if devices.is_empty() {
                return Err("--devices needs at least one device name".to_string());
            }
            return Ok(devices);
        }
        Ok(vec![self.device()?; self.gpus.unwrap_or(1)])
    }

    fn batching_policy(&self) -> Result<BatchingPolicy, String> {
        match self.policy.as_deref().unwrap_or("latency") {
            "latency" => Ok(BatchingPolicy::low_latency()),
            "throughput" => Ok(BatchingPolicy::high_throughput()),
            other => Err(format!("unknown policy '{other}' (latency|throughput)")),
        }
    }

    /// Telemetry sink for the run: recording iff `--trace`, `--metrics`,
    /// `--profile`, `--timeseries`, or `--decisions` was given.
    fn sink(&self) -> TelemetrySink {
        if self.trace.is_some()
            || self.metrics.is_some()
            || self.profile.is_some()
            || self.timeseries.is_some()
            || self.decisions.is_some()
        {
            TelemetrySink::recording()
        } else {
            TelemetrySink::Disabled
        }
    }

    /// Writes the requested telemetry exports; no-op without the flags.
    fn export_telemetry(&self, sink: &TelemetrySink) -> Result<(), String> {
        if let Some(path) = &self.trace {
            let write = || -> std::io::Result<()> {
                let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
                sink.write_chrome_trace(&mut w)?;
                w.flush()
            };
            write().map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("wrote Chrome trace to {}", path.display());
        }
        if let Some(path) = &self.metrics {
            std::fs::write(path, sink.metrics_json())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("wrote metrics snapshot to {}", path.display());
        }
        if let Some(path) = &self.profile {
            std::fs::write(path, sink.profiles_json())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("wrote kernel profiles to {}", path.display());
        }
        if let Some(path) = &self.timeseries {
            std::fs::write(path, sink.timeseries_json())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("wrote time-series samples to {}", path.display());
        }
        if let Some(path) = &self.decisions {
            std::fs::write(path, sink.decisions_json())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("wrote decision audit to {}", path.display());
        }
        Ok(())
    }

    fn node_encoding(&self) -> Result<NodeEncodingChoice, String> {
        match self.node_encoding.as_deref().unwrap_or("auto") {
            "classic" => Ok(NodeEncodingChoice::Classic),
            "packed" => Ok(NodeEncodingChoice::Packed),
            "auto" => Ok(NodeEncodingChoice::Auto),
            other => Err(format!("unknown node encoding '{other}' (classic|packed|auto)")),
        }
    }

    fn strategy(&self) -> Result<Option<Strategy>, String> {
        match self.strategy.as_deref() {
            None | Some("auto") => Ok(None),
            Some("shared-data") => Ok(Some(Strategy::SharedData)),
            Some("direct") => Ok(Some(Strategy::Direct)),
            Some("shared-forest") => Ok(Some(Strategy::SharedForest)),
            Some("splitting") => Ok(Some(Strategy::SplittingSharedForest)),
            Some(other) => Err(format!("unknown strategy '{other}'")),
        }
    }
}

fn parse_num(v: &str, flag: &str) -> Result<usize, String> {
    v.parse().map_err(|_| format!("bad number '{v}' for {flag}"))
}

/// A count flag: a number that must be at least 1.
fn parse_count(v: &str, flag: &str) -> Result<usize, String> {
    match parse_num(v, flag)? {
        0 => Err(format!("{flag} must be >= 1, got 0")),
        n => Ok(n),
    }
}

fn device_by_name(name: &str) -> Result<DeviceSpec, String> {
    match name {
        "k80" => Ok(DeviceSpec::tesla_k80()),
        "p100" => Ok(DeviceSpec::tesla_p100()),
        "v100" => Ok(DeviceSpec::tesla_v100()),
        other => Err(format!("unknown device '{other}' (k80|p100|v100)")),
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n");
    eprint!("{HELP}");
    ExitCode::from(2)
}

/// Loads `--data`: a Table 2 name (synthetic) or a CSV path.
fn load_data(flags: &Flags) -> Result<(Dataset, Option<DatasetSpec>), String> {
    let spec_or_path = flags.data.as_deref().ok_or("missing --data")?;
    if let Some(spec) = DatasetSpec::by_name(spec_or_path) {
        let data = spec.generate(flags.scale);
        return Ok((data, Some(spec)));
    }
    let path = Path::new(spec_or_path);
    if !path.exists() {
        return Err(format!(
            "'{spec_or_path}' is neither a Table 2 dataset name nor an existing file"
        ));
    }
    let data = datasets::load_csv(path, &datasets::CsvOptions::default())
        .map_err(|e| format!("loading {spec_or_path}: {e}"))?;
    Ok((data, None))
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let model_path = flags.model.as_deref().ok_or("missing --model")?;
    let (data, spec) = load_data(flags)?;
    let (train, _) = data.split_train_infer();
    let forest = match &spec {
        Some(spec) => {
            // Synthetic dataset: Table 2 hyperparameters with overrides.
            let mut spec = spec.clone();
            if let Some(t) = flags.trees {
                spec.n_trees = t;
            }
            if let Some(d) = flags.depth {
                spec.max_depth = d;
            }
            tahoe_repro::forest::train_for_spec(&spec, &train, flags.scale)
        }
        None => train_csv_forest(flags, &train)?,
    };
    let forest = match flags.prune {
        Some(eps) => {
            let pruned = tahoe_repro::forest::prune_forest(&forest, eps);
            println!(
                "pruned {} -> {} nodes (tolerance {eps})",
                forest.stats().total_nodes,
                pruned.stats().total_nodes
            );
            pruned
        }
        None => forest,
    };
    forest_io::save_forest(&forest, model_path).map_err(|e| e.to_string())?;
    let stats = forest.stats();
    println!(
        "trained {} trees (avg depth {:.1}, {} nodes) on {} samples -> {}",
        stats.n_trees,
        stats.avg_depth,
        stats.total_nodes,
        train.len(),
        model_path.display()
    );
    Ok(())
}

/// Trains on CSV data with CLI hyperparameters.
fn train_csv_forest(flags: &Flags, train: &Dataset) -> Result<Forest, String> {
    let task = match flags.task.as_deref().unwrap_or("class") {
        "class" => Task::BinaryClassification,
        "reg" => Task::Regression,
        other => return Err(format!("unknown task '{other}' (class|reg)")),
    };
    let base = TrainParams {
        n_trees: flags.trees.unwrap_or(100),
        max_depth: flags.depth.unwrap_or(6),
        ..TrainParams::default()
    };
    match flags.kind.as_deref().unwrap_or("gbdt") {
        "gbdt" => Ok(gbdt::train(
            &GbdtParams {
                base,
                ..GbdtParams::default()
            },
            train,
            task,
        )),
        "rf" => Ok(random_forest::train(&RandomForestParams { base }, train, task)),
        other => Err(format!("unknown kind '{other}' (gbdt|rf)")),
    }
}

/// Loads the model and checks it against the data's attribute count.
fn load_model(flags: &Flags, data: &Dataset) -> Result<Forest, String> {
    let path = flags.model.as_deref().ok_or("missing --model")?;
    let forest = forest_io::load_forest(path).map_err(|e| e.to_string())?;
    if forest.n_attributes() as usize != data.samples.n_attributes() {
        return Err(format!(
            "model expects {} attributes, data has {}",
            forest.n_attributes(),
            data.samples.n_attributes()
        ));
    }
    Ok(forest)
}

fn batch_samples(flags: &Flags, data: &Dataset) -> tahoe_repro::datasets::SampleMatrix {
    let (_, infer) = data.split_train_infer();
    let n = flags.batch.unwrap_or(infer.len().max(1));
    let idx: Vec<usize> = (0..n).map(|i| i % infer.len().max(1)).collect();
    infer.samples.select(&idx)
}

fn cmd_infer(flags: &Flags) -> Result<(), String> {
    let (data, _) = load_data(flags)?;
    let forest = load_model(flags, &data)?;
    let device = flags.device()?;
    let force = flags.strategy()?;
    let batch = batch_samples(flags, &data);
    let sink = flags.sink();
    let options = EngineOptions {
        node_encoding: flags.node_encoding()?,
        calibration: flags.calibrate,
        ..EngineOptions::tahoe()
    };
    let mut engine = Engine::with_telemetry(device, forest, options, sink.clone());
    if let Some(s) = force {
        if !engine.feasible(s, &batch) {
            return Err(format!("strategy '{s}' is infeasible for this forest/device"));
        }
    }
    let result = engine.infer_with(&batch, force);
    println!(
        "device {}  strategy '{}'  batch {}  simulated {:.1} us  {:.2} samples/us",
        engine.device().name,
        result.strategy,
        batch.n_samples(),
        result.run.kernel.total_ns / 1e3,
        result.run.throughput_samples_per_us()
    );
    println!(
        "node encoding {:?}  {} B/node  image {} B",
        engine.device_forest().encoding(),
        engine.device_forest().node_bytes(),
        engine.device_forest().image_bytes()
    );
    if let Some(out) = &flags.out {
        let mut text = String::with_capacity(result.predictions.len() * 12);
        for p in &result.predictions {
            text.push_str(&format!("{p}\n"));
        }
        std::fs::write(out, text).map_err(|e| e.to_string())?;
        println!("wrote {} predictions to {}", result.predictions.len(), out.display());
    }
    flags.export_telemetry(&sink)
}

fn cmd_bench(flags: &Flags) -> Result<(), String> {
    let (data, _) = load_data(flags)?;
    let forest = load_model(flags, &data)?;
    let device = flags.device()?;
    let batch = batch_samples(flags, &data);
    let sink = flags.sink();
    let mut engine = Engine::with_telemetry(
        device,
        forest,
        EngineOptions {
            functional: false,
            node_encoding: flags.node_encoding()?,
            calibration: flags.calibrate,
            ..EngineOptions::tahoe()
        },
        sink.clone(),
    );
    println!(
        "node encoding {:?}  {} B/node  image {} B",
        engine.device_forest().encoding(),
        engine.device_forest().node_bytes(),
        engine.device_forest().image_bytes()
    );
    println!("{:<26} {:>14} {:>12}", "strategy", "ns/sample", "samples/us");
    for s in Strategy::ALL {
        if !engine.feasible(s, &batch) {
            println!("{:<26} {:>14} {:>12}", s.name(), "-", "-");
            continue;
        }
        let run = engine.infer_with(&batch, Some(s));
        println!(
            "{:<26} {:>14.1} {:>12.3}",
            s.name(),
            run.run.ns_per_sample(),
            run.run.throughput_samples_per_us()
        );
    }
    let auto = engine.infer(&batch);
    println!("model selects: {}", auto.strategy);
    flags.export_telemetry(&sink)
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let (data, _) = load_data(flags)?;
    let forest = load_model(flags, &data)?;
    let devices = flags.cluster_devices()?;
    let policy = flags.batching_policy()?;
    let n_requests = flags.requests.unwrap_or(1_000);
    let interarrival_ns = flags.interarrival.unwrap_or(1_000.0);
    let payloads = batch_samples(flags, &data);
    let sink = flags.sink();
    let options = EngineOptions {
        node_encoding: flags.node_encoding()?,
        calibration: flags.calibrate,
        ..EngineOptions::tahoe()
    };
    let mut cluster = GpuCluster::with_telemetry(devices, &forest, options, sink.clone());
    let report = ClusterServingSim::new(&mut cluster, policy).run_uniform_trace_with_deadline(
        &payloads,
        n_requests,
        interarrival_ns,
        flags.slo_ns,
    );
    let r = &report.report;
    println!(
        "served {} requests in {} batches over {} device(s)  makespan {:.1} us",
        r.n_requests(),
        r.batches.len(),
        report.per_device.len(),
        r.makespan_ns / 1e3
    );
    println!(
        "throughput {:.3} req/us  latency mean {:.1} us  p50 {:.1} us  p99 {:.1} us",
        r.throughput_per_us(),
        r.mean_latency_ns() / 1e3,
        r.latency_percentile_ns(0.50) / 1e3,
        r.latency_percentile_ns(0.99) / 1e3
    );
    if let (Some(deadline), Some(attainment)) = (r.deadline_ns, r.slo_attainment()) {
        println!(
            "slo deadline {:.1} us  attainment {:.2}%",
            deadline / 1e3,
            100.0 * attainment
        );
    }
    println!(
        "{:<4} {:<12} {:>8} {:>9} {:>12} {:>8} {:>12}",
        "gpu", "device", "batches", "requests", "busy us", "util %", "mem high"
    );
    for d in &report.per_device {
        let util = if r.makespan_ns > 0.0 {
            100.0 * d.busy_ns / r.makespan_ns
        } else {
            0.0
        };
        println!(
            "{:<4} {:<12} {:>8} {:>9} {:>12.1} {:>8.1} {:>12}",
            d.device,
            d.device_name,
            d.batches,
            d.requests,
            d.busy_ns / 1e3,
            util,
            d.mem_high_water_bytes
        );
    }
    flags.export_telemetry(&sink)
}

fn cmd_profile(flags: &Flags) -> Result<(), String> {
    let path = flags
        .profile
        .as_deref()
        .ok_or("missing --profile <file.json> (an export written by infer/bench --profile)")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    let export = ProfilesExport::from_json(&text)
        .map_err(|e| format!("parsing {}: {e}", path.display()))?;
    print_profile_report(&export, flags.top.unwrap_or(10));
    Ok(())
}

/// Pretty-prints a profiler export: top-N kernels by simulated time with
/// their wall-time breakdowns, then histograms and model-drift summary.
fn print_profile_report(export: &ProfilesExport, top: usize) {
    println!("kernel launches: {}", export.kernels.len());
    let mut order: Vec<usize> = (0..export.kernels.len()).collect();
    order.sort_by(|&a, &b| {
        export.kernels[b]
            .total_ns
            .partial_cmp(&export.kernels[a].total_ns)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for (rank, &i) in order.iter().take(top).enumerate() {
        let k = &export.kernels[i];
        let b = &k.breakdown;
        let pct = |part: f64| 100.0 * part / k.total_ns.max(f64::MIN_POSITIVE);
        println!(
            "#{:<2} {:<26} {:>12.1} us  on {}",
            rank + 1,
            k.label,
            k.total_ns / 1e3,
            k.device
        );
        println!(
            "    grid {} x {} thr, {} B smem/block, {} waves; occupancy {:.0}% (limited by {})",
            k.grid_blocks,
            k.threads_per_block,
            k.smem_per_block,
            k.waves,
            100.0 * k.achieved_occupancy,
            k.occupancy_limiter.as_str()
        );
        let node_bytes = if k.node_bytes > 0 {
            format!("  {} B/node", k.node_bytes)
        } else {
            String::new()
        };
        println!(
            "    warp-exec {:.1}%  gmem coalescing {:.1}% ({:.2} txn/req){node_bytes}  roofline {:.1}%",
            100.0 * k.warp_exec_efficiency,
            100.0 * k.gmem_coalescing_efficiency,
            k.transactions_per_request,
            100.0 * k.roofline_utilization
        );
        println!(
            "    traversal {:.1}%  staging {:.1}%  block-red {:.1}%  global-red {:.1}%  bw-stall {:.1}%",
            pct(b.traversal_ns),
            pct(b.staging_ns),
            pct(b.block_reduction_ns),
            pct(b.global_reduction_ns),
            pct(b.bandwidth_stall_ns)
        );
        if k.memo_hits + k.memo_misses > 0 {
            println!(
                "    memo {:.1}% hit rate ({} hits / {} unique blocks simulated)",
                100.0 * k.memo_hit_rate,
                k.memo_hits,
                k.memo_misses
            );
        }
    }
    print_histogram("kernel durations", &export.kernel_durations);
    print_histogram("serving latencies", &export.serving_latencies);
    if export.drift.is_empty() {
        println!("model drift: no records");
    } else {
        println!("model drift (|predicted - simulated| / simulated):");
        let mut by_strategy: std::collections::BTreeMap<&str, (u64, f64, f64)> =
            std::collections::BTreeMap::new();
        for d in &export.drift {
            let e = by_strategy.entry(d.strategy.as_str()).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += d.relative_error.abs();
            e.2 = e.2.max(d.relative_error.abs());
        }
        for (strategy, (n, sum, max)) in by_strategy {
            println!(
                "  {:<26} {:>3} launches  mean {:>6.1}%  max {:>6.1}%",
                strategy,
                n,
                100.0 * sum / n as f64,
                100.0 * max
            );
        }
    }
}

fn print_histogram(name: &str, hist: &HistogramExport) {
    if hist.count == 0 {
        println!("{name}: no samples");
        return;
    }
    println!(
        "{name}: {} samples  mean {:.1} us  p50 <= {:.1} us  p99 <= {:.1} us  max {:.1} us",
        hist.count,
        hist.mean_ns() / 1e3,
        hist.quantile_upper_ns(0.50) as f64 / 1e3,
        hist.quantile_upper_ns(0.99) as f64 / 1e3,
        hist.max_ns as f64 / 1e3
    );
}

fn cmd_explain(flags: &Flags) -> Result<(), String> {
    let path = flags
        .decisions
        .as_deref()
        .ok_or("missing --decisions <file.json> (an export written by infer/bench/serve --decisions)")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    let export = DecisionsExport::from_json(&text)
        .map_err(|e| format!("parsing {}: {e}", path.display()))?;
    print_decision_report(&export, flags.top.unwrap_or(10));
    Ok(())
}

/// Pretty-prints a decision-audit export: each tuning event with its ranked
/// candidate ladder, rejection reasons, chosen plan, and realized drift,
/// followed by a request-path summary when the export came from `serve`.
fn print_decision_report(export: &DecisionsExport, top: usize) {
    println!("tuning decisions: {}", export.decisions.len());
    for (i, d) in export.decisions.iter().take(top).enumerate() {
        let forced = if d.forced { "  (strategy forced; ranking bypassed)" } else { "" };
        println!(
            "#{:<2} batch {} on device {}  {} samples{forced}",
            i + 1,
            d.batch,
            d.device,
            d.n_samples
        );
        let cached = if d.cache_hit { "  [cache hit]" } else { "" };
        println!(
            "    chose '{}' @ {} threads/block  predicted {:.1} us  simulated {:.1} us  drift {:+.1}%  gen {}{cached}",
            d.chosen_strategy,
            d.chosen_block_threads,
            d.predicted_ns / 1e3,
            d.simulated_ns / 1e3,
            100.0 * d.relative_error,
            d.calibration_generation
        );
        let mut feasible: Vec<_> =
            d.candidates.iter().filter(|c| c.rejection.is_none()).collect();
        // A rejected candidate carries no prediction (`None`); feasible ones
        // always do, so missing values can only sort last.
        feasible.sort_by(|a, b| {
            a.predicted_ns
                .unwrap_or(f64::INFINITY)
                .total_cmp(&b.predicted_ns.unwrap_or(f64::INFINITY))
        });
        for (rank, c) in feasible.iter().take(5).enumerate() {
            let marker = if c.strategy == d.chosen_strategy
                && c.block_threads == d.chosen_block_threads
            {
                "  <- chosen"
            } else {
                ""
            };
            println!(
                "    {:>2}. {:<26} {:>5} thr {:>12.1} us{marker}",
                rank + 1,
                c.strategy,
                c.block_threads,
                c.predicted_ns.unwrap_or(f64::NAN) / 1e3
            );
        }
        let rejected = d.candidates.len() - feasible.len();
        if rejected > 0 {
            let mut reasons: std::collections::BTreeMap<&str, usize> =
                std::collections::BTreeMap::new();
            for c in &d.candidates {
                if let Some(r) = c.rejection.as_deref() {
                    *reasons.entry(r).or_insert(0) += 1;
                }
            }
            let summary: Vec<String> =
                reasons.iter().map(|(r, n)| format!("{n} x {r}")).collect();
            println!("    rejected {rejected} candidates: {}", summary.join(", "));
        }
    }
    if export.decisions.len() > top {
        println!("... and {} more decisions", export.decisions.len() - top);
    }
    if !export.decisions.is_empty() {
        let hits = export.decisions.iter().filter(|d| d.cache_hit).count();
        println!(
            "tuning cache: {} of {} decisions served from cache ({:.1}%)",
            hits,
            export.decisions.len(),
            100.0 * hits as f64 / export.decisions.len() as f64
        );
        let mean_abs = |records: &[&DecisionRecord]| {
            records.iter().map(|d| d.relative_error.abs()).sum::<f64>()
                / records.len() as f64
        };
        let raw: Vec<_> =
            export.decisions.iter().filter(|d| d.calibration_generation == 0).collect();
        let calibrated: Vec<_> =
            export.decisions.iter().filter(|d| d.calibration_generation > 0).collect();
        if !calibrated.is_empty() && !raw.is_empty() {
            println!(
                "calibration: mean |drift| {:.2}% uncalibrated (gen 0, {} decisions) -> {:.2}% calibrated (gen > 0, {} decisions)",
                100.0 * mean_abs(&raw),
                raw.len(),
                100.0 * mean_abs(&calibrated),
                calibrated.len()
            );
        }
    }
    if export.requests.is_empty() {
        println!("request paths: no records (infer/bench exports have none)");
        return;
    }
    let n = export.requests.len() as f64;
    let (mut form, mut queue, mut execute) = (0.0, 0.0, 0.0);
    let mut worst = &export.requests[0];
    for r in &export.requests {
        form += r.form_ns;
        queue += r.queue_ns;
        execute += r.execute_ns;
        if r.total_ns > worst.total_ns {
            worst = r;
        }
    }
    println!(
        "request paths: {} requests  mean form {:.1} us  queue {:.1} us  execute {:.1} us",
        export.requests.len(),
        form / n / 1e3,
        queue / n / 1e3,
        execute / n / 1e3
    );
    println!(
        "worst request #{} (batch {}, device {}): total {:.1} us = form {:.1} + queue {:.1} + execute {:.1} (reduction {:.1} within execute)",
        worst.request,
        worst.batch,
        worst.device,
        worst.total_ns / 1e3,
        worst.form_ns / 1e3,
        worst.queue_ns / 1e3,
        worst.execute_ns / 1e3,
        worst.reduction_ns / 1e3
    );
}

fn cmd_inspect(flags: &Flags) -> Result<(), String> {
    let path = flags.model.as_deref().ok_or("missing --model")?;
    let forest = forest_io::load_forest(path).map_err(|e| e.to_string())?;
    let stats = forest.stats();
    println!("model: {}", path.display());
    println!("  kind:           {:?}", forest.kind());
    println!("  task:           {:?}", forest.task());
    println!("  trees:          {}", stats.n_trees);
    println!("  attributes:     {}", stats.n_attributes);
    println!("  total nodes:    {}", stats.total_nodes);
    println!("  max depth:      {}", stats.max_depth);
    println!("  avg depth:      {:.2}", stats.avg_depth);
    println!("  avg nodes/tree: {:.1}", stats.avg_nodes_per_tree());
    let depths: Vec<usize> = forest
        .trees()
        .iter()
        .map(tahoe_repro::forest::Tree::depth)
        .collect();
    let min = depths.iter().min().copied().unwrap_or(0);
    let max = depths.iter().max().copied().unwrap_or(0);
    println!("  depth range:    {min}..{max}");
    Ok(())
}
