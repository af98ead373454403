//! Fixture-based self-tests: every `tests/fixtures/<name>.rs` is
//! checked against a fixture-grade config, and the findings must match
//! its `<name>.expected` sidecar *exactly* — line numbers, rule ids,
//! and message text. The sidecars double as golden documentation of
//! what each rule reports.

use lcdc_lint::config::Config;
use lcdc_lint::rules::check_sources;
use std::path::PathBuf;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// The fixture workspace's invariant registry: every fixture file is
/// wire surface, `alpha < beta < gamma` is the lock order, `ready` is
/// the blessed condvar, and `wire.rs` is the protocol home.
fn config_for(name: &str) -> Config {
    let toml = format!(
        r#"
[wire]
surface = ["{name}"]

[locks]
order = ["alpha", "beta", "gamma"]
blessed_waits = ["ready"]

[protocol]
home = "wire.rs"
literals = ["42 << 10"]
const_prefixes = ["REQ_"]
"#
    );
    Config::parse(&toml).expect("fixture config parses")
}

#[test]
fn every_fixture_matches_its_expected_sidecar() {
    let dir = fixtures_dir();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixtures dir exists")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no fixtures found in {}", dir.display());

    for name in names {
        let src = std::fs::read_to_string(dir.join(&name)).expect("fixture reads");
        let sidecar = dir.join(name.replace(".rs", ".expected"));
        let expected = std::fs::read_to_string(&sidecar)
            .unwrap_or_else(|_| panic!("missing sidecar {}", sidecar.display()));

        let config = config_for(&name);
        let findings = check_sources(&[(name.clone(), src)], &config);
        let got: String = findings
            .iter()
            .map(|f| format!("{f}\n"))
            .collect::<Vec<_>>()
            .join("");
        assert_eq!(
            got,
            expected,
            "fixture {name}: findings diverge from {}",
            sidecar.display()
        );
    }
}

#[test]
fn every_sidecar_has_a_fixture() {
    let dir = fixtures_dir();
    for entry in std::fs::read_dir(&dir).expect("fixtures dir exists") {
        let name = entry.expect("dir entry").file_name().into_string().unwrap();
        if let Some(stem) = name.strip_suffix(".expected") {
            assert!(
                dir.join(format!("{stem}.rs")).exists(),
                "sidecar {name} has no fixture"
            );
        }
    }
}
