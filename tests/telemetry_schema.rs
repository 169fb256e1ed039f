//! Golden-schema gate for the telemetry exports (DESIGN.md §2.9).
//!
//! The Chrome trace must stay loadable by `chrome://tracing` / Perfetto:
//! every event carries the required keys, durations are non-negative, and
//! events are ordered by start time within each (pid, tid) track. The
//! metrics snapshot must survive a serde round-trip unchanged.

use serde_json::Value;
use tahoe::engine::{Engine, EngineOptions};
use tahoe::strategy::testutil::Fixture;
use tahoe::telemetry::decision::RequestPathRecord;
use tahoe::telemetry::{timeseries, MetricsSnapshot, TelemetrySink, PID_GPU, PID_SERVING};
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

#[test]
fn chrome_trace_matches_the_golden_schema() {
    let sink = recorded_run();
    let text = sink.chrome_trace_json();
    let doc: Value = serde_json::from_str(&text).expect("trace is valid JSON");

    assert_eq!(
        doc["displayTimeUnit"].as_str(),
        Some("ns"),
        "displayTimeUnit pins nanosecond rendering"
    );
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty(), "an engine run must produce events");

    let mut complete_events = 0usize;
    let mut counter_events = 0usize;
    let mut last_start: std::collections::BTreeMap<(u64, u64), f64> =
        std::collections::BTreeMap::new();
    for e in events {
        // Required keys for every event, metadata included.
        let ph = e["ph"].as_str().expect("ph present");
        assert!(e["name"].as_str().is_some(), "name present: {e:?}");
        let pid = e["pid"].as_u64().expect("pid present");
        let tid = e["tid"].as_u64().expect("tid present");
        let ts = e["ts"].as_f64().expect("ts present");
        match ph {
            "M" => {
                assert_eq!(e["name"].as_str(), Some("process_name"));
                assert!(
                    e["args"]["name"].as_str().is_some(),
                    "metadata names its process: {e:?}"
                );
            }
            "X" => {
                complete_events += 1;
                let dur = e["dur"].as_f64().expect("complete events carry dur");
                assert!(ts >= 0.0 && dur >= 0.0, "non-negative times: {e:?}");
                // Start times are non-decreasing within each (pid, tid)
                // track — the exporter sorts, and viewers rely on it.
                let key = (pid, tid);
                if let Some(prev) = last_start.get(&key) {
                    assert!(
                        ts >= *prev,
                        "track {key:?} goes backwards: {prev} -> {ts}"
                    );
                }
                last_start.insert(key, ts);
            }
            "C" => {
                // Perfetto counter tracks from the windowed time-series
                // sampler (DESIGN.md §2.14): a numeric value, never a memo
                // series (those would break cross-memo trace identity).
                counter_events += 1;
                assert!(ts >= 0.0, "non-negative counter timestamp: {e:?}");
                assert!(
                    e["args"]["value"].as_f64().is_some(),
                    "counter events carry a numeric value: {e:?}"
                );
                let name = e["name"].as_str().expect("checked above");
                assert!(
                    !name.starts_with("memo_"),
                    "memo series leaked into the Chrome trace: {e:?}"
                );
            }
            other => panic!("unexpected event phase '{other}': {e:?}"),
        }
    }
    assert!(complete_events > 0, "at least one span event");
    assert!(counter_events > 0, "kernel launches emit counter samples");
    assert!(
        !last_start.is_empty(),
        "span events cover at least one (pid, tid) track"
    );
}

#[test]
fn metrics_snapshot_round_trips_through_serde() {
    let sink = recorded_run();
    let snapshot = sink.snapshot();
    assert!(snapshot.span_count > 0, "engine run records spans");
    assert!(
        snapshot.counters.contains_key("kernel_launches"),
        "counter names are exported"
    );

    let text = sink.metrics_json();
    let back: MetricsSnapshot = serde_json::from_str(&text).expect("snapshot parses");
    assert_eq!(back, snapshot, "round-trip must be lossless");

    // The flat export is also plain JSON for non-Rust consumers.
    let doc: Value = serde_json::from_str(&text).expect("valid JSON");
    assert!(doc["counters"]["kernel_launches"].as_u64().is_some());
    assert_eq!(
        doc["span_count"].as_u64(),
        Some(snapshot.span_count as u64)
    );
}

/// A hand-built recording covering every event kind the Chrome trace
/// exports: named processes, out-of-order spans on two tracks, strings that
/// need escaping, a non-finite duration, an integral timestamp, a counter
/// track next to an excluded `memo_*` series, and one request path.
fn golden_sink() -> TelemetrySink {
    let sink = TelemetrySink::recording();
    sink.name_process(PID_GPU, "gpu-sim");
    sink.name_process(PID_SERVING, "serving \"q\" \\ \u{1}");
    sink.span("late", PID_GPU, 1, 2_500.0, 1_000.0);
    sink.span("block \"7\" \\ \t", PID_GPU, 0, 1_000.0, 250.5);
    sink.span("parent", PID_GPU, 0, 0.0, 3_000.0);
    sink.span("child", PID_GPU, 0, 0.0, 1_500.0);
    sink.span("broken", PID_GPU, 1, 1_000.0, f64::NAN);
    sink.ts_gauge(0, timeseries::QUEUE_DEPTH, 1_500_000.0, 2.0);
    sink.ts_add(0, timeseries::MEMO_HITS, 10.0, 7.0);
    sink.push_request_path(RequestPathRecord {
        request: 3,
        batch: 0,
        device: 1,
        arrival_ns: 150.0,
        form_ns: 50.0,
        queue_ns: 25.0,
        execute_ns: 1_000.0,
        reduction_ns: 100.0,
        total_ns: 1_075.0,
    });
    sink
}

/// The byte contract of the Chrome-trace export for [`golden_sink`]. The
/// text was produced by the original exporter, which built a
/// `serde_json::Value` tree and pretty-printed it; every exporter must
/// reproduce it exactly.
const GOLDEN_TRACE: &str = r#"{
  "traceEvents": [
    {
      "ph": "M",
      "ts": 0,
      "pid": 1,
      "tid": 0,
      "name": "process_name",
      "args": {
        "name": "gpu-sim"
      }
    },
    {
      "ph": "M",
      "ts": 0,
      "pid": 3,
      "tid": 0,
      "name": "process_name",
      "args": {
        "name": "serving \"q\" \\ \u0001"
      }
    },
    {
      "ph": "X",
      "ts": 0,
      "dur": 3,
      "pid": 1,
      "tid": 0,
      "name": "parent"
    },
    {
      "ph": "X",
      "ts": 0,
      "dur": 1.5,
      "pid": 1,
      "tid": 0,
      "name": "child"
    },
    {
      "ph": "X",
      "ts": 1,
      "dur": 0.2505,
      "pid": 1,
      "tid": 0,
      "name": "block \"7\" \\ \t"
    },
    {
      "ph": "X",
      "ts": 1,
      "dur": null,
      "pid": 1,
      "tid": 1,
      "name": "broken"
    },
    {
      "ph": "X",
      "ts": 2.5,
      "dur": 1,
      "pid": 1,
      "tid": 1,
      "name": "late"
    },
    {
      "ph": "C",
      "ts": 1000,
      "pid": 1,
      "tid": 0,
      "name": "queue_depth",
      "args": {
        "value": 2
      }
    },
    {
      "ph": "b",
      "cat": "request",
      "id": 3,
      "ts": 0.15,
      "pid": 3,
      "tid": 0,
      "name": "request 3"
    },
    {
      "ph": "e",
      "cat": "request",
      "id": 3,
      "ts": 1.225,
      "pid": 3,
      "tid": 0,
      "name": "request 3"
    },
    {
      "ph": "s",
      "id": 3,
      "ts": 0.15,
      "pid": 3,
      "tid": 0,
      "name": "request path"
    },
    {
      "ph": "f",
      "bp": "e",
      "id": 3,
      "ts": 0.225,
      "pid": 13,
      "tid": 2,
      "name": "request path"
    }
  ],
  "displayTimeUnit": "ns"
}
"#;

#[test]
fn chrome_trace_matches_the_golden_bytes() {
    let text = golden_sink().chrome_trace_json();
    assert_eq!(text, GOLDEN_TRACE);
}

#[test]
fn disabled_sink_exports_the_golden_empty_trace() {
    let text = TelemetrySink::Disabled.chrome_trace_json();
    assert_eq!(text, r#"{
  "traceEvents": [],
  "displayTimeUnit": "ns"
}
"#);
}
