//! `lcdc-benchmark` — the repository's benchmark harness.
//!
//! Five named workloads from codec to wire, measured end to end with
//! tracing off (`--trace 0`) or layer by layer in a traced run
//! (`--trace 1`). Every input is generated from `--seed`; the program
//! under test (`lcdc serve`, a child process) only ever sees generated
//! files and wire requests. See `benchmark/README.md`.
//!
//! ```text
//! lcdc-benchmark --lcdc <path/to/lcdc> --out <dir>
//!                [--workload NAME] [--seed N] [--seconds S]
//!                [--trace [0|1]] [--quick] [--aa N] [--list | --manifest]
//! ```
//!
//! With `--workload` the last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; without it, one
//! such line per workload. Everything else goes to stderr and to
//! `<out>/`.

mod codec;
mod data;
mod json;
mod load;
mod probes;
mod proc;
mod registry;
mod serve;
mod stats;
mod trace;

use registry::{Better, CODEC, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// The default seed (the repository's experiment seed).
const DEFAULT_SEED: u64 = 0x1CDE_2018;
/// Default `--seconds`; `BENCHMARK.json` says the same.
const RUN_SECONDS: f64 = 10.0;
/// Complete set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// One run's settings.
pub struct Config {
    /// The release `lcdc` binary under test.
    pub lcdc: PathBuf,
    /// `benchmark/out/`: reports, traces and temporary data.
    pub out: PathBuf,
    pub seed: u64,
    /// How long one run measures.
    pub seconds: f64,
    pub setup_reps: usize,
    /// `--quick`: the one-second self-test mode.
    pub quick: bool,
}

/// What one run of one workload produced.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, verbatim.
    pub errors: Vec<String>,
    /// The named metrics, in registry order.
    pub metrics: Vec<(String, f64)>,
    /// Unnamed detail for the report file: quartiles, per-class and
    /// per-phase numbers, sample counts.
    pub extras: Vec<(String, f64)>,
}

struct Cli {
    cfg: Config,
    workload: Option<String>,
    trace: bool,
    aa: Option<usize>,
    list: bool,
    manifest: bool,
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("bad --seed {text:?}"))
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        cfg: Config {
            lcdc: PathBuf::new(),
            out: PathBuf::new(),
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS,
            setup_reps: SETUP_REPS,
            quick: false,
        },
        workload: None,
        trace: false,
        aa: None,
        list: false,
        manifest: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--lcdc" => cli.cfg.lcdc = PathBuf::from(value("--lcdc")?),
            "--out" => cli.cfg.out = PathBuf::from(value("--out")?),
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => cli.cfg.seed = parse_seed(&value("--seed")?)?,
            "--seconds" => {
                cli.cfg.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds wants a number in (0, 60]")?;
            }
            "--trace" => {
                // `--trace` alone means on; the driver passes 0 or 1.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => cli.cfg.quick = true,
            "--aa" => {
                cli.aa = Some(
                    value("--aa")?
                        .parse()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or("--aa wants a count of at least 2")?,
                );
            }
            "--list" => cli.list = true,
            "--manifest" => cli.manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.cfg.quick {
        cli.cfg.seconds = 1.0;
        cli.cfg.setup_reps = 1;
    }
    if let Some(name) = &cli.workload {
        if registry::workload(name).is_none() {
            return Err(format!("unknown workload {name:?}"));
        }
    }
    let runs = !cli.list && !cli.manifest;
    if runs && (cli.cfg.lcdc.as_os_str().is_empty() || cli.cfg.out.as_os_str().is_empty()) {
        return Err("--lcdc and --out are required (benchmark/run.sh passes both)".into());
    }
    Ok(cli)
}

/// `--list`: the vocabulary, with the interaction table.
fn list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {:<14} {}", w.name, w.why);
    }
    println!("end-to-end metrics (unit, better, bound):");
    for m in END_TO_END {
        println!(
            "  {:<28} {:<10} {:<7} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    println!("per-layer metrics (unit, better) -> should move | predicted flat on:");
    for l in PER_LAYER {
        let moves: Vec<String> = l.moves.iter().map(|(m, w)| format!("{m}@{w}")).collect();
        println!(
            "  {:<48} {:<10} {:<7} -> {} | {}",
            l.name,
            l.unit,
            l.better.as_str(),
            moves.join(", "),
            l.flat.join(", ")
        );
    }
}

/// `--manifest`: the text of `BENCHMARK.json`, from the registry. The
/// committed file must equal it (the self-test checks).
fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::string(w.name),
                json::string(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better.as_str()),
                json::number(m.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|l| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::string(l.name),
                json::string(l.unit),
                json::string(l.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        RUN_SECONDS as u64,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Run one workload once, traced or not.
fn run_one(cfg: &Config, workload: &str, trace: bool) -> Result<RunResult, String> {
    let mut result = match (trace, workload) {
        (true, _) => trace::run(cfg, workload),
        (false, CODEC) => codec::run(cfg),
        (false, _) => serve::run(cfg, workload),
    }?;
    result.metrics = in_registry_order(std::mem::take(&mut result.metrics), trace)?;
    Ok(result)
}

/// A run must report exactly the registry's metrics for its mode, each
/// once and each a finite number — anything else is a harness bug, not
/// a result. Returns them in the registry's order.
fn in_registry_order(
    mut measured: Vec<(String, f64)>,
    trace: bool,
) -> Result<Vec<(String, f64)>, String> {
    let expected: Vec<&str> = if trace {
        PER_LAYER.iter().map(|l| l.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut ordered = Vec::with_capacity(expected.len());
    for name in expected {
        let at = measured
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| format!("harness bug: metric {name} was not measured"))?;
        let (name, value) = measured.swap_remove(at);
        if !value.is_finite() {
            return Err(format!("harness bug: metric {name} is {value}"));
        }
        ordered.push((name, value));
    }
    match measured.first() {
        Some((extra, _)) => Err(format!(
            "harness bug: metric {extra} is not in the registry (or was measured twice)"
        )),
        None => Ok(ordered),
    }
}

fn describe(name: &str) -> (&'static str, Better, Option<f64>) {
    registry::describe(name).expect("in_registry_order admitted the metric")
}

/// The driver's result object, one line.
fn result_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(name),
                json::number(*value),
                json::string(describe(name).0)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Provenance written into every report file.
fn stamp(cfg: &Config) -> String {
    let host = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"git_sha\": {}, \"rustc\": {}, \"host_parallelism\": {host}, \"seed\": {}, \
         \"scale_factor\": {}, \"seconds\": {}, \"setup_reps\": {}, \
         \"note\": \"disk reads are served by the OS page cache; latencies are the \
         sandbox's, not a device's\"}}",
        json::string(&command_output("git", &["rev-parse", "HEAD"])),
        json::string(&command_output("rustc", &["--version"])),
        cfg.seed,
        json::number(data::SCALE_FACTOR),
        json::number(cfg.seconds),
        cfg.setup_reps,
    )
}

/// The report-file form of one run: the result plus the extras.
fn report_entry(workload: &str, trace: bool, result: &RunResult) -> String {
    let pairs = |items: &[(String, f64)]| -> String {
        items
            .iter()
            .map(|(n, v)| format!("{}: {}", json::string(n), json::number(*v)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let errors: Vec<String> = result.errors.iter().map(|e| json::string(e)).collect();
    format!(
        "{{\"workload\": {}, \"trace\": {trace}, \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {{{}}}, \"detail\": {{{}}}, \"errors\": [{}]}}",
        json::string(workload),
        result.attempted,
        result.failed,
        pairs(&result.metrics),
        pairs(&result.extras),
        errors.join(", ")
    )
}

/// Every metric by name with unit, direction and bound, on stderr.
fn print_table(workload: &str, trace: bool, result: &RunResult) {
    let mode = if trace { "traced" } else { "end to end" };
    eprintln!(
        "== {workload} ({mode}): {} attempted, {} failed",
        result.attempted, result.failed
    );
    for (name, value) in &result.metrics {
        let (unit, better, bound) = describe(name);
        let bound = bound.map_or(String::new(), |b| format!("  bound {b}"));
        eprintln!(
            "  {name:<48} {value:>16.4} {unit:<10} {} is better{bound}",
            better.as_str()
        );
    }
    for (name, value) in &result.extras {
        eprintln!("    . {name:<44} {value:>16.4}");
    }
    for e in &result.errors {
        eprintln!("  FAILED: {e}");
    }
}

/// `--workload`'s one, or all five.
fn selected(cli: &Cli) -> Vec<&str> {
    match &cli.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    }
}

/// Run the selected workloads; returns whether every answer verified.
fn run_suite(cli: &Cli) -> Result<bool, String> {
    let names = selected(cli);
    let mut entries = Vec::new();
    let mut correct = true;
    for name in names {
        // The full suite runs each workload end to end, then traced
        // when asked; a single workload runs in exactly one mode.
        let modes = match (&cli.workload, cli.trace) {
            (Some(_), trace) => vec![trace],
            (None, true) => vec![false, true],
            (None, false) => vec![false],
        };
        for trace in modes {
            let result = run_one(&cli.cfg, name, trace)?;
            print_table(name, trace, &result);
            entries.push(report_entry(name, trace, &result));
            println!("{}", result_line(&result));
            correct &= result.failed == 0;
        }
    }
    let label = match &cli.workload {
        Some(name) => format!("{name}-{}", if cli.trace { "traced" } else { "e2e" }),
        None => "suite".to_string(),
    };
    let path = cli
        .cfg
        .out
        .join(format!("report-{label}-seed{}.json", cli.cfg.seed));
    let body = format!(
        "{{\"stamp\": {},\n \"runs\": [\n  {}\n ]}}\n",
        stamp(&cli.cfg),
        entries.join(",\n  ")
    );
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("report written to {}", path.display());
    Ok(correct)
}

/// The number after `key` in a result line.
fn number_after(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// One end-to-end run of `workload` in a process of its own, as the
/// driver runs it — so that `codec`'s own peak RSS is not the harness's
/// history. Returns the failed count and the metrics in registry order.
fn run_in_child(cfg: &Config, workload: &str) -> Result<(u64, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = std::process::Command::new(exe);
    child
        .arg("--lcdc")
        .arg(&cfg.lcdc)
        .arg("--out")
        .arg(&cfg.out)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .stderr(std::process::Stdio::inherit());
    if cfg.quick {
        child.arg("--quick");
    }
    let out = child.output().map_err(|e| format!("A/A child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("A/A run of {workload} printed no result ({})", out.status))?;
    let failed = number_after(line, "\"failed\": ");
    let values: Option<Vec<f64>> = END_TO_END
        .iter()
        .map(|m| number_after(line, &format!("\"{}\": {{\"value\": ", m.name)))
        .collect();
    match (failed, values) {
        (Some(failed), Some(values)) => Ok((failed as u64, values)),
        _ => Err(format!("A/A run of {workload}: unreadable result {line:?}")),
    }
}

/// `--aa N`: run the end-to-end suite N times on the same build and
/// compare every workload x metric across the runs against its bound.
fn run_aa(cli: &Cli, runs: usize) -> Result<bool, String> {
    let names = selected(cli);
    let mut table: Vec<Vec<(u64, Vec<f64>)>> = Vec::new();
    for run in 0..runs {
        eprintln!("-- A/A run {} of {runs}", run + 1);
        let mut row = Vec::new();
        for name in &names {
            row.push(run_in_child(&cli.cfg, name)?);
        }
        table.push(row);
    }
    let mut within = true;
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "last", "diff", "bound"
    );
    for (w, name) in names.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = table.iter().map(|row| row[w].1[m]).collect();
            let (first, last) = (values[0], values[runs - 1]);
            // The widest gap between any two runs, as a share of the
            // smaller value's magnitude.
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let diff = if lo == 0.0 { 0.0 } else { (hi - lo) / lo.abs() };
            let ok = diff <= metric.bound;
            within &= ok;
            println!(
                "{name:<14} {:<28} {first:>14.4} {last:>14.4} {:>8.2}% {:>6.0}% {}",
                metric.name,
                diff * 100.0,
                metric.bound * 100.0,
                if ok { "" } else { "EXCEEDED" }
            );
        }
        let failed: u64 = table.iter().map(|row| row[w].0).sum();
        if failed > 0 {
            within = false;
            println!("{name:<14} {failed} operations failed");
        }
    }
    Ok(within)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("lcdc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.list {
        list();
        return ExitCode::SUCCESS;
    }
    if cli.manifest {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    if host < load::CONNECTIONS {
        eprintln!(
            "lcdc-benchmark: host_parallelism is {host}; the load shape needs {}",
            load::CONNECTIONS
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&cli.cfg.out) {
        eprintln!("lcdc-benchmark: {}: {e}", cli.cfg.out.display());
        return ExitCode::from(2);
    }
    let outcome = match cli.aa {
        Some(runs) => run_aa(&cli, runs),
        None => run_suite(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("lcdc-benchmark: operations failed or bounds were exceeded");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("lcdc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
