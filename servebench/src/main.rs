//! `servebench`: the serving benchmark of the Tahoe reproduction.
//!
//! ```text
//! servebench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! servebench compare <run-a.json> <run-b.json>
//! ```
//!
//! A run builds the workload's model in-process, serves its request trace
//! for `--seconds` of host time, checks every served request, and prints
//! each metric by name with its unit; the last stdout line is one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`). `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics. `--workload
//! all` runs every workload in its own process. See `README.md` for what
//! each workload and metric is for.

mod provenance;
mod report;
mod stats;
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use serde_json::Value;

use tahoe::telemetry::TelemetrySink;
use tahoe_gpu_sim::parallel::{set_sim_threads, sim_threads};

use crate::provenance::{int, num, obj, text};
use crate::report::{Metric, Outcome};
use crate::stats::Failures;
use crate::workload::{Prepared, Served, Server, Workload};

/// Where run records (and, while a run lasts, its telemetry exports) go.
const RUNS_DIR: &str = "servebench/runs";

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Held-out seed: never used while tuning a change, kept for re-checking
/// a claimed gain.
pub const HELD_OUT_SEED: u64 = 7_919;

/// Set-up repetitions per run (`setup_s` is their median).
const SETUP_REPS: usize = 3;

/// Minimum timed serves per run.
const MIN_REPS: usize = 3;

/// Batches per segment the correctness check samples.
const CHECK_BATCHES: usize = 16;

/// Prediction tolerance against the CPU reference (as in the repository's
/// end-to-end tests).
const TOLERANCE: f32 = 1e-3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: servebench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      servebench compare <run-a.json> <run-b.json>\n\
         default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED}"
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(RUNS_DIR),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if args.workload.is_empty() || !args.seconds.is_finite() || args.seconds <= 0.0 {
        usage();
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => {
            std::process::exit(provenance::compare(&argv[1], &argv[2]))
        }
        _ => {}
    }
    let args = parse_args(&argv);
    if args.workload == "all" {
        std::process::exit(run_all(&argv));
    }
    let Some(w) = workload::by_name(&args.workload) else {
        eprintln!("servebench: unknown workload {:?}", args.workload);
        usage();
    };
    std::fs::create_dir_all(&args.out).expect("create the output directory");
    let outcome = catch_unwind(AssertUnwindSafe(|| run_workload(&w, &args))).unwrap_or_else(|_| {
        // A panic leaves the whole trace unserved.
        eprintln!(
            "servebench: workload {} panicked; its requests count as failed",
            w.name
        );
        Outcome::panicked(w.n_requests)
    });
    outcome.print(&w, args.seed, args.trace);
    std::process::exit(i32::from(!outcome.correct));
}

/// Runs every workload in a child process of its own and prints a summary.
fn run_all(argv: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("locate the benchmark binary");
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for w in workload::all() {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().cloned().unwrap_or_default();
            child_args.push(flag.clone());
            child_args.push(if flag == "--workload" {
                w.name.to_string()
            } else {
                value
            });
        }
        println!("== {} ==", w.name);
        let output = std::process::Command::new(&exe).args(&child_args).output();
        let last = output.as_ref().ok().and_then(|o| {
            let stdout = String::from_utf8_lossy(&o.stdout).to_string();
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                println!("{line}");
            }
            stdout
                .lines()
                .last()
                .and_then(|l| serde_json::from_str::<Value>(l).ok())
        });
        match last {
            Some(v) => {
                all_correct &= v["correct"].as_bool() == Some(true);
                attempted += v["attempted"].as_u64().unwrap_or(0);
                failed += v["failed"].as_u64().unwrap_or(0);
                if let Value::Object(ms) = &v["metrics"] {
                    for (name, m) in ms {
                        metrics.push((format!("{}.{name}", w.name), m.clone()));
                    }
                }
            }
            None => {
                // The child died without a result: its trace is unserved.
                eprintln!("servebench: workload {} produced no result", w.name);
                all_correct = false;
                attempted += w.n_requests as u64;
                failed += w.n_requests as u64;
            }
        }
    }
    let summary = obj(vec![
        ("correct", Value::Bool(all_correct)),
        ("attempted", int(attempted.max(1))),
        ("failed", int(failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&summary).expect("summary serializes")
    );
    i32::from(!all_correct)
}

/// Everything one workload run measures.
pub struct RunData {
    /// Set-up stage times, one entry per repetition.
    pub stages: Vec<workload::Stages>,
    /// The checked (untimed) serve, one entry per segment.
    pub parts: Vec<Served>,
    /// The checked serve, segments joined.
    pub served: Served,
    /// Host-time split of each timed serve.
    pub reps: Vec<workload::RepTimes>,
    /// Failure accounting over every pass.
    pub failures: Failures,
    /// Requests attempted over every pass.
    pub attempted: usize,
    /// Per-request failure flags of the checked serve.
    pub failed_mask: Vec<bool>,
    /// Determinism or consistency violations (must be empty).
    pub violations: Vec<String>,
    /// Highest passing rung of the rate ladder (requests/µs), when run.
    pub max_rate: Option<stats::Rung>,
    /// The traced run, when run.
    pub traced: Option<trace::Traced>,
}

fn run_workload(w: &Workload, args: &Args) -> Outcome {
    let mut violations = Vec::new();

    // Set-up runs SETUP_REPS times: once now, the rest spread over the
    // timed region so the median samples the host across the whole run.
    // Training must be deterministic.
    let (p, first_stages) = workload::setup(w, args.seed);
    let mut stages = vec![first_stages];
    let setup_again = |stages: &mut Vec<workload::Stages>, violations: &mut Vec<String>| {
        let (again, s) = workload::setup(w, args.seed);
        if again.forest != p.forest {
            violations.push("set-up trained a different forest on repetition".to_string());
        }
        stages.push(s);
    };
    let exports_dir = args
        .out
        .join(format!("{}-{}-exports", w.name, std::process::id()));
    std::fs::create_dir_all(&exports_dir).expect("create the export directory");

    // Checked serves (untimed, also the warm-up): the correctness sample,
    // and the determinism guard at the worker counts the timed serves do
    // not use.
    let timed_workers = sim_threads(usize::MAX);
    let check_workers: Vec<usize> = [1, 2].into_iter().filter(|&c| c != timed_workers).collect();
    let plain = Workload {
        exports: false,
        ..w.clone()
    };
    let mut failures = Failures::default();
    let mut failed_mask = vec![false; w.n_requests];
    let mut checked: Option<(Vec<Served>, u64)> = None;
    for (i, &workers) in check_workers.iter().enumerate() {
        set_sim_threads(Some(workers));
        let mut server = Server::build(&plain, &p.forest, TelemetrySink::Disabled);
        let (parts, _) =
            workload::run_trace(&plain, &p, &mut server, &exports_dir, |srv, k, part| {
                if i == 0 {
                    check_segment(
                        w,
                        &p,
                        srv,
                        k,
                        part,
                        args.seed,
                        &mut failures,
                        &mut failed_mask,
                    );
                }
            });
        set_sim_threads(None);
        let fp = Served::concat(&parts).fingerprint();
        match &checked {
            None => checked = Some((parts, fp)),
            Some((_, first)) if *first != fp => violations.push(format!(
                "simulated clock differs between 1 and 2 simulator workers ({first:016x} vs {fp:016x})"
            )),
            Some(_) => {}
        }
    }
    let (parts, fingerprint) = checked.expect("at least one checked serve");
    let served = Served::concat(&parts);
    failures.add(&stats::serve_failures(
        w.n_requests,
        &served
            .report
            .batches
            .iter()
            .map(|b| b.size)
            .collect::<Vec<_>>(),
        &served.report.latencies_ns,
    ));
    let mut attempted = w.n_requests;

    // Timed serves on fresh servers until the time budget is spent.
    let mut reps = Vec::new();
    let mut timed_ns = 0.0;
    while reps.len() < MIN_REPS || timed_ns < args.seconds * 1e9 {
        let share = stages.len() as f64 / SETUP_REPS as f64;
        if stages.len() < SETUP_REPS && timed_ns >= share * args.seconds * 1e9 {
            setup_again(&mut stages, &mut violations);
        }
        let mut server = Server::build(w, &p.forest, workload::workload_sink(w));
        let (rep_parts, times) =
            workload::run_trace(w, &p, &mut server, &exports_dir, |_, _, _| {});
        timed_ns += times.total_ns();
        let rep = Served::concat(&rep_parts);
        let fp = rep.fingerprint();
        if fp != fingerprint {
            violations.push(format!(
                "timed serve {} ({timed_workers} simulator workers) diverged from the checked \
                 serve ({} workers) on the simulated clock ({fp:016x} vs {fingerprint:016x})",
                reps.len(),
                check_workers[0]
            ));
        }
        failures.add(&stats::serve_failures(
            w.n_requests,
            &rep.report
                .batches
                .iter()
                .map(|b| b.size)
                .collect::<Vec<_>>(),
            &rep.report.latencies_ns,
        ));
        attempted += w.n_requests;
        reps.push(times);
    }
    while stages.len() < SETUP_REPS {
        setup_again(&mut stages, &mut violations);
    }
    let _ = std::fs::remove_dir_all(&exports_dir);

    let (max_rate, traced) = if args.trace {
        let traced = trace::traced_run(w, &p, &parts);
        violations.extend(traced.divergent.iter().cloned());
        (None, Some(traced))
    } else {
        (rate_ladder(w, &p), None)
    };

    let data = RunData {
        stages,
        parts,
        served,
        reps,
        failures,
        attempted,
        failed_mask,
        violations,
        max_rate,
        traced,
    };
    let record_path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    let outcome = report::outcome(w, &data, args.trace);
    write_record(&record_path, w, args, &outcome, &data, fingerprint);
    outcome
}

/// Checks a seeded sample of segment `k`'s batches: the served image's
/// `predict_batch` against `tahoe_forest::predict_dataset` on the trained
/// forest, while the server still holds the model that served them.
#[allow(clippy::too_many_arguments)]
fn check_segment(
    w: &Workload,
    p: &Prepared,
    server: &Server,
    k: usize,
    part: &Served,
    seed: u64,
    failures: &mut Failures,
    failed_mask: &mut [bool],
) {
    let seg_len = workload::segment_len(w.n_requests, w.segments);
    let batches = &part.report.batches;
    let mut firsts = Vec::with_capacity(batches.len());
    let mut first = 0usize;
    for b in batches {
        firsts.push(first);
        first += b.size;
    }
    let mut rng = workload::Rng::new(seed, workload::STREAM_CHECK + k as u64);
    let mut sample: Vec<usize> = rng.permutation(batches.len());
    sample.truncate(CHECK_BATCHES);
    sample.sort_unstable();
    let payloads = &p.segments[k];
    for b in sample {
        let rows: Vec<usize> = (firsts[b]..firsts[b] + batches[b].size)
            .map(|r| r % payloads.n_samples())
            .collect();
        let batch = payloads.select(&rows);
        let served = server
            .engine(part.devices[b])
            .device_forest()
            .predict_batch(&batch);
        let reference = tahoe_forest::predict_dataset(&p.forest, &batch);
        failures.wrong += stats::mismatches(&served, &reference, TOLERANCE);
        for (j, (s, r)) in served.iter().zip(&reference).enumerate() {
            if stats::mismatch(*s, *r, TOLERANCE) {
                failed_mask[k * seg_len + firsts[b] + j] = true;
            }
        }
    }
}

/// Rungs of the max-rate ladder: the workload's own rate × 1.01^k, up to
/// about 3.3× (the bottom rung is the rate the workload is served at). The
/// 1% step bounds how small a capacity change the metric can show.
fn ladder_rates(w: &Workload) -> Vec<f64> {
    let nominal = 1_000.0 / w.interarrival_ns;
    (0..=120).map(|k| nominal * 1.01f64.powi(k)).collect()
}

/// Highest ladder rate whose tail latency meets the workload's limit
/// without a growing backlog; replayed on the simulated clock only.
fn rate_ladder(w: &Workload, p: &Prepared) -> Option<stats::Rung> {
    let rates = ladder_rates(w);
    stats::max_passing_rung(rates.len(), w.latency_limit_ns, |i| {
        let ia = 1_000.0 / rates[i];
        let mut server = Server::build(w, &p.forest, TelemetrySink::Disabled);
        let served = server.serve(w, &p.pool, w.ladder_requests, ia);
        let r = &served.report;
        let (waits, execs): (Vec<f64>, Vec<f64>) =
            report::batch_ready_times(w, r, ia, w.ladder_requests)
                .iter()
                .zip(&r.batches)
                .map(|(ready, b)| (b.dispatched_at_ns - ready, b.gpu_ns))
                .unzip();
        stats::Rung {
            rate: rates[i],
            tail_ns: stats::summarize(&r.latencies_ns).tail,
            backlog: stats::backlog_grows(&waits, &execs),
        }
    })
}

fn write_record(path: &Path, w: &Workload, args: &Args, o: &Outcome, d: &RunData, fp: u64) {
    let metrics: Vec<(String, Value)> = o
        .all_metrics()
        .iter()
        .map(|m: &Metric| {
            (
                m.name.clone(),
                obj(vec![("value", num(m.value)), ("unit", text(m.unit))]),
            )
        })
        .collect();
    let record = obj(vec![
        (
            "provenance",
            provenance::provenance(w.name, args.seed, args.trace),
        ),
        ("correct", Value::Bool(o.correct)),
        ("attempted", int(o.attempted as u64)),
        ("failed", int(o.failed as u64)),
        (
            "violations",
            Value::Array(d.violations.iter().map(|v| text(v)).collect()),
        ),
        ("sim_fingerprint", text(&format!("{fp:016x}"))),
        ("timed_serves", int(d.reps.len() as u64)),
        (
            "serve_s",
            Value::Array(d.reps.iter().map(|r| num(r.total_ns() / 1e9)).collect()),
        ),
        (
            "setup_s",
            Value::Array(d.stages.iter().map(|s| num(s.total_ns / 1e9)).collect()),
        ),
        (
            "notes",
            Value::Array(o.notes.iter().map(|n| text(n)).collect()),
        ),
        ("metrics", Value::Object(metrics)),
    ]);
    let body = serde_json::to_string_pretty(&record).expect("record serializes");
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("servebench: could not write {}: {e}", path.display());
    }
}
