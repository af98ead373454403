//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships the subset of criterion's API that its `benches/` use:
//! benchmark groups, throughput annotation, `bench_function` /
//! `bench_with_input`, and the `criterion_group!` / `criterion_main!`
//! macros. Measurement is a plain warmup-then-sample wall-clock loop —
//! median of per-iteration means — with results printed as text. No
//! statistics engine, no HTML reports; good enough to compare the naive
//! and compression-aware paths side by side.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level harness handle, one per bench binary.
pub struct Criterion {
    warmup_iters: u64,
    samples: usize,
    target_sample_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        // CRITERION_QUICK=1 collapses measurement to one short sample
        // per benchmark — a smoke run that still executes every bench
        // body (CI uses it to catch regressions without paying for
        // stable numbers).
        let quick = std::env::var("CRITERION_QUICK")
            .map(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"))
            .unwrap_or(false);
        if quick {
            return Criterion {
                warmup_iters: 1,
                samples: 1,
                target_sample_time: Duration::from_millis(1),
            };
        }
        Criterion {
            warmup_iters: 3,
            samples: 7,
            target_sample_time: Duration::from_millis(40),
        }
    }
}

impl Criterion {
    /// Open a named group of related measurements.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\n{name}");
        BenchmarkGroup {
            criterion: self,
            throughput: None,
        }
    }

    /// Measure a standalone function.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) {
        let cfg = (self.warmup_iters, self.samples, self.target_sample_time);
        run_one(id, None, cfg, &mut f);
    }
}

/// Units for reporting rates alongside times.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// A named group of measurements sharing a throughput annotation.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Annotate subsequent measurements with a processing rate.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Measure a closure under an id.
    pub fn bench_function<I: IntoBenchId, F: FnMut(&mut Bencher)>(&mut self, id: I, mut f: F) {
        let c = &*self.criterion;
        let cfg = (c.warmup_iters, c.samples, c.target_sample_time);
        run_one(&id.into_bench_id(), self.throughput, cfg, &mut f);
    }

    /// Measure a closure that receives a borrowed input.
    pub fn bench_with_input<I: ?Sized, D: IntoBenchId, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: D,
        input: &I,
        mut f: F,
    ) {
        self.bench_function(id, |b| f(b, input));
    }

    /// Close the group (formatting no-op).
    pub fn finish(self) {}
}

/// A `name/parameter` measurement id.
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// Build from a function name and a parameter value.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            text: format!("{name}/{parameter}"),
        }
    }

    /// Build from a parameter value alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            text: parameter.to_string(),
        }
    }
}

/// Things usable as a measurement id.
pub trait IntoBenchId {
    /// The display string.
    fn into_bench_id(self) -> String;
}

impl IntoBenchId for BenchmarkId {
    fn into_bench_id(self) -> String {
        self.text
    }
}

impl IntoBenchId for &str {
    fn into_bench_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchId for String {
    fn into_bench_id(self) -> String {
        self
    }
}

/// Handed to the measured closure; times the hot loop.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Run `f` in a timed loop.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_one(
    id: &str,
    throughput: Option<Throughput>,
    (warmup_iters, samples, target): (u64, usize, Duration),
    f: &mut dyn FnMut(&mut Bencher),
) {
    // Warmup, which also calibrates the per-sample iteration count.
    let mut b = Bencher {
        iters: warmup_iters.max(1),
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let per_iter = b.elapsed.checked_div(b.iters as u32).unwrap_or_default();
    let iters = if per_iter.is_zero() {
        1000
    } else {
        (target.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64
    };

    let mut per_iter_ns: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            b.elapsed.as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    let median = per_iter_ns[per_iter_ns.len() / 2];

    let rate = throughput.map(|t| match t {
        Throughput::Bytes(bytes) => {
            format!(" ({:.2} GiB/s)", bytes as f64 / median / 1.073_741_824)
        }
        Throughput::Elements(n) => {
            format!(" ({:.0} Melem/s)", n as f64 / median * 1e3 / 1e6)
        }
    });
    println!(
        "  {id:<40} {:>12}/iter{}",
        format_ns(median),
        rate.unwrap_or_default()
    );
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{:.2} ms", ns / 1e6)
    }
}

/// Bundle bench functions into one runner, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Entry point for a bench binary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            // `cargo test` passes harness flags to harness = false bench
            // binaries; don't run measurements in that mode.
            if std::env::args().any(|a| a == "--test" || a == "--list") {
                return;
            }
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_without_panicking() {
        let mut c = Criterion {
            warmup_iters: 1,
            samples: 2,
            target_sample_time: Duration::from_micros(200),
        };
        let mut group = c.benchmark_group("shim");
        group.throughput(Throughput::Bytes(1024));
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("param", 7), &7u64, |b, &x| {
            b.iter(|| x * 2)
        });
        group.finish();
        c.bench_function("top_level", |b| b.iter(|| 1 + 1));
    }
}
