//! Run provenance, run records on disk, and the `compare` command.

use serde_json::{Number, Value};

use tahoe::tune::tune_cache_enabled;
use tahoe_gpu_sim::memo::sim_memo;
use tahoe_gpu_sim::parallel::sim_threads;

/// Builds a JSON object from key/value pairs.
#[must_use]
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON number (`null` when not finite).
#[must_use]
pub fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::Number(Number::Float(x))
    } else {
        Value::Null
    }
}

/// A JSON unsigned integer.
#[must_use]
pub fn int(x: u64) -> Value {
    Value::Number(Number::PosInt(x))
}

/// A JSON string.
#[must_use]
pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// Environment variables whose resolution is recorded.
const ENV_KNOBS: [&str; 3] = ["TAHOE_SIM_THREADS", "TAHOE_SIM_MEMO", "TAHOE_TUNE_CACHE"];

/// Fields that must agree before two runs may be compared. The trace flag
/// may differ: a traced and an untraced run of one seed must agree on the
/// simulated clock.
pub const MUST_MATCH: [&str; 9] = [
    "workload",
    "seed",
    "nproc",
    "sim_workers",
    "TAHOE_SIM_THREADS",
    "TAHOE_SIM_MEMO",
    "TAHOE_TUNE_CACHE",
    "sim_memo",
    "tune_cache",
];

/// Where and how a run happened.
#[must_use]
pub fn provenance(workload: &str, seed: u64, trace: bool) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut entries = vec![
        ("workload", text(workload)),
        ("seed", int(seed)),
        ("trace", Value::Bool(trace)),
        ("commit", text(&git_commit())),
        ("nproc", int(nproc as u64)),
        ("sim_workers", int(sim_threads(usize::MAX) as u64)),
        ("sim_memo", Value::Bool(sim_memo())),
        ("tune_cache", Value::Bool(tune_cache_enabled())),
    ];
    for knob in ENV_KNOBS {
        let raw = std::env::var(knob).map_or_else(|_| "unset".to_string(), |v| format!("{v:?}"));
        entries.push((knob, Value::String(raw)));
    }
    obj(entries)
}

/// The checked-out commit, or `unknown` outside a git work tree.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Provenance fields on which two records disagree.
#[must_use]
pub fn provenance_mismatches(a: &Value, b: &Value) -> Vec<String> {
    MUST_MATCH
        .iter()
        .filter(|&&k| a[k] != b[k])
        .map(|k| format!("{k}: {:?} vs {:?}", a[*k], b[*k]))
        .collect()
}

/// `compare <a.json> <b.json>`: refuses (exit 2) when the provenance
/// differs; otherwise prints each metric side by side and, when both runs
/// come from the same commit, fails (exit 1) unless their simulated
/// fingerprints agree bit for bit.
#[must_use]
pub fn compare(a_path: &str, b_path: &str) -> i32 {
    let load = |p: &str| -> Result<Value, String> {
        let s = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str::<Value>(&s).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("servebench compare: {e}");
            return 2;
        }
    };
    let mismatched = provenance_mismatches(&a["provenance"], &b["provenance"]);
    if !mismatched.is_empty() {
        eprintln!("servebench compare: refusing to compare runs with different provenance:");
        for m in mismatched {
            eprintln!("  {m}");
        }
        return 2;
    }
    println!(
        "commits: {} vs {}",
        a["provenance"]["commit"].as_str().unwrap_or("?"),
        b["provenance"]["commit"].as_str().unwrap_or("?")
    );
    if let Value::Object(metrics) = &a["metrics"] {
        for (name, m) in metrics {
            let (va, vb) = (
                m["value"].as_f64(),
                b["metrics"][name.as_str()]["value"].as_f64(),
            );
            let unit = m["unit"].as_str().unwrap_or("");
            match (va, vb) {
                (Some(x), Some(y)) => {
                    let rel = if x == 0.0 { 0.0 } else { (y - x) / x.abs() };
                    println!(
                        "  {name:<40} {x:>14.6} {y:>14.6} {unit:<10} {:+.2}%",
                        100.0 * rel
                    );
                }
                _ => println!("  {name:<40} missing on one side"),
            }
        }
    }
    let same_commit = a["provenance"]["commit"] == b["provenance"]["commit"]
        && a["provenance"]["commit"].as_str() != Some("unknown");
    if same_commit && a["sim_fingerprint"] != b["sim_fingerprint"] {
        eprintln!(
            "servebench compare: same commit and seed but the simulated clock differs \
             ({:?} vs {:?})",
            a["sim_fingerprint"], b["sim_fingerprint"]
        );
        return 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_differences_are_named() {
        let a = provenance("serve-latency", 1, false);
        assert!(provenance_mismatches(&a, &a).is_empty());
        let b = provenance("serve-latency", 2, false);
        let diff = provenance_mismatches(&a, &b);
        assert_eq!(diff.len(), 1);
        assert!(diff[0].starts_with("seed"));
    }
}
