//! Golden-schema gate for the flight-recorder export (DESIGN.md §2.15).
//!
//! `decisions_json()` is a public payload (`--decisions <path>` on every
//! bench binary and `tahoe-cli infer|bench|serve`, plus `tahoe-cli explain`
//! and `report_md`'s worst-p99 attribution): every decision record must carry
//! the pinned keys and the complete candidate ladder `tune_all` swept; every
//! request-path record's components must sum bitwise to the request's
//! end-to-end latency; the export must survive a serde round-trip unchanged;
//! and a `Disabled` sink must store nothing.

use serde_json::Value;
use tahoe::engine::{Engine, EngineOptions};
use tahoe::serving::{BatchingPolicy, ServingReport, ServingSim};
use tahoe::strategy::testutil::Fixture;
use tahoe::strategy::Strategy;
use tahoe::telemetry::TelemetrySink;
use tahoe::tune::THREAD_CANDIDATES;
use tahoe::DecisionsExport;
use tahoe_gpu_sim::device::DeviceSpec;

/// Runs one engine batch against a recording sink and returns it.
fn recorded_run() -> TelemetrySink {
    let fx = Fixture::trained("letter");
    let sink = TelemetrySink::recording();
    let mut engine = Engine::with_telemetry(
        DeviceSpec::tesla_p100(),
        fx.forest.clone(),
        EngineOptions::tahoe(),
        sink.clone(),
    );
    let _ = engine.infer(&fx.samples);
    sink
}

/// Replays a uniform serving trace against a recording sink; returns the
/// sink and the report.
fn served_run() -> (TelemetrySink, ServingReport) {
    let fx = Fixture::trained("letter");
    let sink = TelemetrySink::recording();
    let mut engine = Engine::with_telemetry(
        DeviceSpec::tesla_p100(),
        fx.forest.clone(),
        EngineOptions::tahoe(),
        sink.clone(),
    );
    let report = ServingSim::new(&mut engine, BatchingPolicy::new(32, 10_000.0))
        .run_uniform_trace(&fx.samples, 200, 50.0);
    (sink, report)
}

#[test]
fn decisions_export_matches_the_golden_schema() {
    let sink = recorded_run();
    let text = sink.decisions_json();
    let doc: Value = serde_json::from_str(&text).expect("decisions are valid JSON");

    let decisions = doc["decisions"].as_array().expect("decisions array");
    assert!(!decisions.is_empty(), "an engine run must record a decision");
    for d in decisions {
        for key in [
            "device",
            "batch",
            "n_samples",
            "forced",
            "chosen_strategy",
            "chosen_block_threads",
            "predicted_ns",
            "simulated_ns",
            "relative_error",
            "calibration_generation",
        ] {
            assert!(!d[key].is_null(), "decision carries '{key}': {d:?}");
        }
        let candidates = d["candidates"].as_array().expect("candidates array");
        assert_eq!(
            candidates.len(),
            Strategy::ALL.len() * THREAD_CANDIDATES.len(),
            "the full tuning ladder is audited"
        );
        for c in candidates {
            for key in ["strategy", "block_threads"] {
                assert!(!c[key].is_null(), "candidate carries '{key}': {c:?}");
            }
            // A rejection is not a zero-cost prediction: `predicted_ns` is
            // null exactly when the candidate was rejected before costing.
            assert_eq!(
                c["predicted_ns"].is_null(),
                !c["rejection"].is_null(),
                "predicted_ns is null iff the candidate was rejected: {c:?}"
            );
        }
        // The chosen plan must appear in the ladder as a feasible candidate
        // whose predicted cost is exactly what the record reports.
        let chosen = candidates
            .iter()
            .find(|c| {
                c["strategy"] == d["chosen_strategy"]
                    && c["block_threads"] == d["chosen_block_threads"]
            })
            .expect("chosen plan is one of the audited candidates");
        assert!(chosen["rejection"].is_null(), "chosen candidate is feasible");
        assert_eq!(
            chosen["predicted_ns"].as_f64().map(f64::to_bits),
            d["predicted_ns"].as_f64().map(f64::to_bits),
            "ladder and decision agree on the predicted cost"
        );
    }
    // A plain engine run has no serving requests, so no request paths.
    assert_eq!(
        doc["requests"].as_array().map(Vec::len),
        Some(0),
        "request paths only come from serving"
    );
}

#[test]
fn decision_drift_fields_are_internally_consistent() {
    let sink = recorded_run();
    let export = sink.decisions();
    let drift = sink.profiles().drift;
    assert_eq!(
        export.decisions.len(),
        drift.len(),
        "one decision per drift record — they are written together"
    );
    for (d, dr) in export.decisions.iter().zip(&drift) {
        assert_eq!(d.chosen_strategy, dr.strategy);
        assert_eq!(d.predicted_ns.to_bits(), dr.predicted_ns.to_bits());
        assert_eq!(d.simulated_ns.to_bits(), dr.simulated_ns.to_bits());
        assert_eq!(d.relative_error.to_bits(), dr.relative_error.to_bits());
        assert!(d.simulated_ns > 0.0, "simulated time is positive");
        let expected = (d.predicted_ns - d.simulated_ns) / d.simulated_ns;
        assert_eq!(
            d.relative_error.to_bits(),
            expected.to_bits(),
            "relative error derives from predicted vs simulated"
        );
    }
}

#[test]
fn request_path_components_sum_bitwise_to_the_latency() {
    let (sink, report) = served_run();
    let export = sink.decisions();
    assert_eq!(
        export.requests.len(),
        report.latencies_ns.len(),
        "one path record per request"
    );
    for r in &export.requests {
        assert!(r.form_ns >= 0.0, "form wait is non-negative: {r:?}");
        assert!(r.queue_ns >= 0.0, "queue wait is non-negative: {r:?}");
        assert!(r.execute_ns > 0.0, "execution takes time: {r:?}");
        assert!(
            r.reduction_ns <= r.execute_ns,
            "reduction is a slice of execution: {r:?}"
        );
        let sum = r.form_ns + r.queue_ns + r.execute_ns;
        assert_eq!(
            sum.to_bits(),
            r.total_ns.to_bits(),
            "critical path sums exactly to the end-to-end latency: {r:?}"
        );
        assert_eq!(
            r.total_ns.to_bits(),
            report.latencies_ns[r.request as usize].to_bits(),
            "path record matches the report's latency for request {}",
            r.request
        );
    }
}

#[test]
fn serving_trace_links_every_request_end_to_end() {
    let (sink, report) = served_run();
    let trace = sink.chrome_trace_json();
    let doc: Value = serde_json::from_str(&trace).expect("trace is valid JSON");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    let count = |ph: &str| {
        events
            .iter()
            .filter(|e| e["ph"].as_str() == Some(ph) && e["cat"].as_str() == Some("request"))
            .count()
    };
    let n = report.latencies_ns.len();
    assert_eq!(count("b"), n, "one async-begin per request");
    assert_eq!(count("e"), n, "one async-end per request");
    let flows = |ph: &str| {
        events
            .iter()
            .filter(|e| {
                e["ph"].as_str() == Some(ph) && e["name"].as_str() == Some("request path")
            })
            .count()
    };
    assert_eq!(flows("s"), n, "one flow-start (arrival) per request");
    assert_eq!(flows("f"), n, "one flow-finish (dispatch) per request");
}

#[test]
fn decisions_export_round_trips_through_serde() {
    let (sink, _) = served_run();
    let export = sink.decisions();
    let text = sink.decisions_json();
    let back = DecisionsExport::from_json(&text).expect("export parses");
    assert_eq!(back, export, "round-trip must be lossless");
}

/// Exports written before the tuning-decision cache was removed carry a
/// per-record `cache_hit` flag; they must still load, with the flag ignored.
#[test]
fn legacy_cache_hit_key_still_loads() {
    let sink = recorded_run();
    let mut doc: Value = serde_json::from_str(&sink.decisions_json()).expect("export parses");
    let Value::Object(entries) = &mut doc else {
        panic!("export is a JSON object");
    };
    for (key, val) in entries.iter_mut() {
        if let (true, Value::Array(decisions)) = (key == "decisions", val) {
            for d in decisions.iter_mut() {
                if let Value::Object(fields) = d {
                    fields.push(("cache_hit".to_string(), Value::Bool(true)));
                }
            }
        }
    }
    let legacy = serde_json::to_string(&doc).expect("serializes");
    assert!(legacy.contains("\"cache_hit\":true"), "fixture carries the legacy key");
    let back = DecisionsExport::from_json(&legacy).expect("legacy export parses");
    assert_eq!(back, sink.decisions(), "the legacy key changes nothing");
}

#[test]
fn disabled_sink_exports_an_empty_audit() {
    let sink = TelemetrySink::Disabled;
    let export = sink.decisions();
    assert!(export.decisions.is_empty());
    assert!(export.requests.is_empty());
    let parsed: Value =
        serde_json::from_str(&sink.decisions_json()).expect("empty export is valid JSON");
    assert_eq!(parsed["decisions"].as_array().map(Vec::len), Some(0));
    assert_eq!(parsed["requests"].as_array().map(Vec::len), Some(0));
}
