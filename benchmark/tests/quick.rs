//! The benchmark's self-test: `BENCHMARK.json` is what the registry
//! says it is, and a `--quick` run of the whole suite — end to end and
//! traced — emits exactly the metric names it declares, with every
//! answer verified.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

/// The metric names of one result line, in order.
fn metric_names(line: &str) -> Vec<String> {
    let (_, metrics) = line
        .split_once("\"metrics\": {")
        .expect("a result line has metrics");
    // Every piece but the last ends in the next metric's name.
    let pieces: Vec<&str> = metrics.split("\": {\"value\": ").collect();
    pieces[..pieces.len() - 1]
        .iter()
        .filter_map(|piece| piece.rsplit_once('"').map(|(_, name)| name.to_string()))
        .collect()
}

/// The `"name"` values of one section of `BENCHMARK.json`.
fn declared(manifest: &str, section: &str) -> Vec<String> {
    let (_, rest) = manifest
        .split_once(&format!("\"{section}\": ["))
        .expect("section exists");
    let (body, _) = rest.split_once("\n  ]").expect("section closes");
    body.lines()
        .filter_map(|l| l.split_once("{\"name\": \""))
        .filter_map(|(_, l)| l.split_once('"'))
        .map(|(name, _)| name.to_string())
        .collect()
}

#[test]
fn benchmark_json_is_the_registry() {
    let out = Command::new(env!("CARGO_BIN_EXE_lcdc-benchmark"))
        .arg("--manifest")
        .output()
        .expect("harness runs");
    assert!(out.status.success());
    let committed = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is at the repository root");
    assert_eq!(
        committed,
        String::from_utf8(out.stdout).unwrap(),
        "regenerate with: benchmark/run.sh --manifest > BENCHMARK.json"
    );
}

#[test]
fn quick_suite_emits_exactly_the_declared_metrics() {
    let root = repo_root();
    let manifest = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
    let workloads = declared(&manifest, "workloads");
    let end_to_end = declared(&manifest, "end_to_end");
    let per_layer = declared(&manifest, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));

    // Builds into its own directory, not the one `cargo test` holds.
    let out = Command::new("bash")
        .arg(root.join("benchmark/run.sh"))
        .args(["--quick", "--trace"])
        .env("CARGO_TARGET_DIR", root.join(".bench_build"))
        .output()
        .expect("run.sh runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "run.sh failed:\n{stderr}");

    // One end-to-end and one traced line per workload, in that order.
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2 * workloads.len(), "{stdout}");
    for (i, line) in lines.iter().enumerate() {
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        assert!(line.contains("\"failed\": 0, "), "{line}");
        let expected = if i % 2 == 0 { &end_to_end } else { &per_layer };
        assert_eq!(&metric_names(line), expected, "line {i}");
    }
}
