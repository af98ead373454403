//! `lcdc-lint` CLI: walk the workspace, enforce `lint.toml`.
//!
//! ```text
//! cargo run -p lcdc-lint            # report findings, exit 0
//! cargo run -p lcdc-lint -- --deny  # exit 1 if any finding (CI mode)
//! ```
//!
//! `--root DIR` and `--config FILE` override the defaults (current
//! directory, `<root>/lint.toml`). Exit codes: 0 clean (or report-only
//! mode), 1 findings under `--deny`, 2 usage/config/IO error.

#![forbid(unsafe_code)]

use lcdc_lint::config::Config;
use lcdc_lint::rules::{check, Finding};
use lcdc_lint::scan::FileScan;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("lcdc-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut deny = false;
    let mut root = PathBuf::from(".");
    let mut config_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--root" => root = PathBuf::from(args.next().ok_or("--root needs a directory")?),
            "--config" => {
                config_path = Some(PathBuf::from(args.next().ok_or("--config needs a file")?))
            }
            "--help" | "-h" => {
                println!("usage: lcdc-lint [--deny] [--root DIR] [--config FILE]");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let config_text = std::fs::read_to_string(&config_path)
        .map_err(|e| format!("cannot read {}: {e}", config_path.display()))?;
    let config = Config::parse(&config_text)?;

    let mut files = Vec::new();
    collect_rs(&root, &root, &mut files)?;
    files.sort();
    let scans: Vec<FileScan> = files
        .iter()
        .map(|(rel, path)| {
            std::fs::read_to_string(path)
                .map(|src| FileScan::new(rel, &src))
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
        })
        .collect::<Result<_, _>>()?;

    let findings = check(&scans, &config);
    report(&scans, &findings);
    if !findings.is_empty() && deny {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn report(scans: &[FileScan], findings: &[Finding]) {
    for f in findings {
        println!("{f}");
    }
    let allows: usize = scans.iter().map(|s| s.allows.len()).sum();
    println!(
        "lcdc-lint: {} file(s), {} finding(s), {} allow annotation(s)",
        scans.len(),
        findings.len(),
        allows
    );
}

/// Directories that are never part of the checked workspace: build
/// output, VCS internals, and the lint's own finding-bearing fixtures.
fn skipped(name: &str) -> bool {
    name == "target" || name.starts_with('.') || name == "fixtures"
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !skipped(&name) {
                collect_rs(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}
