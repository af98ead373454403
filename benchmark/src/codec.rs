//! The `codec` workload: the paper's own experiment, in-process on one
//! thread with no store and no server. For each of six column families
//! the chooser picks a scheme (set-up), then every round runs
//! `compress` → `bytes::to_bytes` → `bytes::from_bytes` → `decompress`
//! and checks the round trip.

use crate::data::{codec_families, CODEC_VALUES};
use crate::proc::peak_rss_mb;
use crate::registry::{
    ENCODE_MVALUES_PER_S, FAMILIES, OPS_PER_S, OP_P50_MS, PEAK_RSS_MB, SETUP_S, STORED_RATIO,
};
use crate::stats::{geomean, median};
use crate::{Config, RunResult};
use lcdc::core::{bytes, chooser, parse_scheme, ColumnData, Scheme};
use std::hint::black_box;
use std::time::Instant;

/// One family, ready to be timed.
pub struct Family {
    pub name: &'static str,
    pub column: ColumnData,
    /// The chooser's pick for `column`.
    pub expr: String,
    pub scheme: Box<dyn Scheme>,
}

/// Generate the six families and let the chooser pick each one's
/// scheme — the set-up of the `codec` workload.
pub fn families(seed: u64, n: usize) -> Result<Vec<Family>, String> {
    FAMILIES
        .iter()
        .zip(codec_families(seed, n))
        .map(|(name, column)| {
            let choice = chooser::choose_best(&column).map_err(|e| format!("{name}: {e}"))?;
            let scheme = parse_scheme(&choice.expr).map_err(|e| format!("{name}: {e}"))?;
            Ok(Family {
                name,
                column,
                expr: choice.expr,
                scheme,
            })
        })
        .collect()
}

/// One timed round trip of one family.
pub struct RoundTrip {
    /// `compress` + `to_bytes`, seconds.
    pub encode_s: f64,
    /// `from_bytes` + `decompress`, seconds.
    pub decode_s: f64,
    pub stored_bytes: usize,
    pub intact: bool,
}

pub fn round_trip(family: &Family) -> Result<RoundTrip, String> {
    let fail = |e: lcdc::core::CoreError| format!("{}: {e}", family.name);
    let started = Instant::now();
    let compressed = family
        .scheme
        .compress(black_box(&family.column))
        .map_err(fail)?;
    let frame = bytes::to_bytes(&compressed);
    let encode_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let parsed = bytes::from_bytes(black_box(&frame)).map_err(fail)?;
    let decoded = family.scheme.decompress(&parsed).map_err(fail)?;
    let decode_s = started.elapsed().as_secs_f64();

    Ok(RoundTrip {
        encode_s,
        decode_s,
        stored_bytes: frame.len(),
        intact: decoded == family.column,
    })
}

pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let mut setup_times = Vec::new();
    let families = loop {
        let started = Instant::now();
        let ready = families(cfg.seed, CODEC_VALUES)?;
        setup_times.push(started.elapsed().as_secs_f64());
        if setup_times.len() == cfg.setup_reps {
            break ready;
        }
    };

    // Rounds over all six families until the time is up: every family
    // gets the same number of samples.
    let mut encode_s: Vec<Vec<f64>> = vec![Vec::new(); families.len()];
    let mut decode_s: Vec<Vec<f64>> = vec![Vec::new(); families.len()];
    let mut stored = vec![0usize; families.len()];
    let (mut attempted, mut failed, mut errors) = (0u64, 0u64, Vec::new());
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < cfg.seconds || encode_s[0].len() < 3 {
        for (i, family) in families.iter().enumerate() {
            let trip = round_trip(family)?;
            attempted += 1;
            if !trip.intact {
                failed += 1;
                errors.push(format!(
                    "{} ({}) did not round-trip",
                    family.name, family.expr
                ));
            }
            encode_s[i].push(trip.encode_s);
            decode_s[i].push(trip.decode_s);
            stored[i] = trip.stored_bytes;
        }
    }

    let mvalues = CODEC_VALUES as f64 / 1e6;
    let decode_mvps: Vec<f64> = decode_s.iter().map(|s| mvalues / median(s)).collect();
    let encode_mvps: Vec<f64> = encode_s.iter().map(|s| mvalues / median(s)).collect();
    // Milliseconds to decode 10^6 values, per family.
    let decode_ms: Vec<f64> = decode_mvps.iter().map(|r| 1e3 / r).collect();
    let user_bytes = (families.len() * CODEC_VALUES * 8) as f64;

    let mut extras = vec![("rounds".to_string(), encode_s[0].len() as f64)];
    for (i, family) in families.iter().enumerate() {
        extras.push((format!("decompress_mvps.{}", family.name), decode_mvps[i]));
        extras.push((format!("compress_mvps.{}", family.name), encode_mvps[i]));
        extras.push((
            format!("ratio.{}", family.name),
            stored[i] as f64 / (CODEC_VALUES * 8) as f64,
        ));
    }
    Ok(RunResult {
        attempted,
        failed,
        errors,
        metrics: vec![
            (SETUP_S.into(), median(&setup_times)),
            // One op = 10^6 values through from_bytes + decompress.
            (OPS_PER_S.into(), geomean(&decode_mvps)),
            (OP_P50_MS.into(), median(&decode_ms)),
            (ENCODE_MVALUES_PER_S.into(), geomean(&encode_mvps)),
            (
                STORED_RATIO.into(),
                stored.iter().sum::<usize>() as f64 / user_bytes,
            ),
            (PEAK_RSS_MB.into(), peak_rss_mb("/proc/self/status")?),
        ],
        extras,
    })
}
