//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a parsed, seeded description of where and how
//! often to inject failures into the store's I/O seams. It exists so
//! the chaos harness (`tests/chaos.rs`, `serve_smoke.sh --chaos`) can
//! *deterministically* reproduce the hostile world: torn response
//! frames, mid-query disk-read errors, and socket stalls. Every
//! injected fault must surface as a typed error on the normal error
//! paths — never a hang, never a poisoned pool — which is exactly what
//! the harness asserts.
//!
//! The plan is **zero-cost when off**: holders keep an
//! `Option<Arc<FaultPlan>>` (or a [`std::sync::OnceLock`]) and skip the
//! seam entirely when no plan is armed; production binaries never pay
//! for a branch they did not opt into with `--faults`.
//!
//! ## Spec strings
//!
//! A plan is configured by a `;`-separated list of rules, each
//! `site:param=value[,param=value]` (see `docs/FAULTS.md`):
//!
//! ```text
//! io_read:every=7            fail every 7th disk read (typed I/O error)
//! io_read:p=0.05             fail each disk read with probability 0.05
//! io_stall:ms=50,every=1     sleep 50ms before every disk read
//! frame_truncate:p=0.05      cut 5% of response frames mid-write
//! stall:ms=200,every=3       sleep 200ms before every 3rd response write
//! ```
//!
//! Probabilistic rules draw from a splitmix64 stream keyed on the
//! plan's seed and a per-rule call counter, so the same seed injects
//! the same fault sequence run after run. Per-site fired counters
//! ([`FaultPlan::injected`]) let tests assert *exact* accounting
//! against the server's `deadline_exceeded`/`cancelled`/`io_faults`
//! metrics.

use crate::{Result, StoreError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Where a fault rule injects. Each site may carry at most one rule per
/// plan, so fired counts are unambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// `io_read`: a lazily opened column's disk read fails with an
    /// injected [`StoreError::Io`].
    IoRead,
    /// `io_stall`: a lazily opened column's disk read sleeps before
    /// reading (slow-disk simulation; `ms=` sets the pause).
    IoStall,
    /// `frame_truncate`: a server response frame is cut mid-write and
    /// the connection dropped (torn-frame simulation).
    FrameTruncate,
    /// `stall`: a server response write sleeps before starting
    /// (slow-socket simulation; `ms=` sets the pause).
    Stall,
}

/// How often a rule fires.
#[derive(Debug, Clone, Copy)]
enum Trigger {
    /// Every `n`th call (1-based: `every=1` fires on all).
    Every(u64),
    /// Each call independently, with probability `ppm / 1_000_000`,
    /// drawn from the plan's seeded stream.
    Prob(u64),
}

#[derive(Debug)]
struct FaultRule {
    site: FaultSite,
    trigger: Trigger,
    /// Pause for stall sites; zero elsewhere.
    pause: Duration,
    calls: AtomicU64,
    fired: AtomicU64,
}

/// A parsed, seeded fault-injection plan. See the module docs for the
/// spec-string grammar; [`FaultPlan::parse`] is the only constructor.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

/// The splitmix64 mixing function — the same deterministic generator
/// `lcdc gen` uses, shared here for fault probabilities and client
/// retry jitter.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Parse a spec string (see module docs). Errors are plain strings
    /// aimed at the CLI: they name the offending rule.
    pub fn parse(spec: &str, seed: u64) -> std::result::Result<FaultPlan, String> {
        let mut rules: Vec<FaultRule> = Vec::new();
        for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (site_name, params) = part
                .split_once(':')
                .ok_or_else(|| format!("fault rule {part:?} wants site:param=value"))?;
            let site = match site_name.trim() {
                "io_read" => FaultSite::IoRead,
                "io_stall" => FaultSite::IoStall,
                "frame_truncate" => FaultSite::FrameTruncate,
                "stall" => FaultSite::Stall,
                other => return Err(format!("unknown fault site {other:?}")),
            };
            if rules.iter().any(|r| r.site == site) {
                return Err(format!("duplicate fault rule for site {site_name:?}"));
            }
            let mut trigger = None;
            let mut pause = None;
            for param in params.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                let (key, value) = param
                    .split_once('=')
                    .ok_or_else(|| format!("fault param {param:?} wants key=value"))?;
                match key.trim() {
                    "every" => {
                        let n: u64 = value
                            .trim()
                            .parse()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| format!("{part:?}: every wants an integer >= 1"))?;
                        if trigger.replace(Trigger::Every(n)).is_some() {
                            return Err(format!("{part:?}: pick one of every= / p="));
                        }
                    }
                    "p" => {
                        let p: f64 = value
                            .trim()
                            .parse()
                            .ok()
                            .filter(|p| (0.0..=1.0).contains(p))
                            .ok_or_else(|| format!("{part:?}: p wants a number in [0, 1]"))?;
                        let ppm = (p * 1_000_000.0).round() as u64;
                        if trigger.replace(Trigger::Prob(ppm)).is_some() {
                            return Err(format!("{part:?}: pick one of every= / p="));
                        }
                    }
                    "ms" => {
                        let ms: u64 = value
                            .trim()
                            .parse()
                            .map_err(|_| format!("{part:?}: ms wants an integer"))?;
                        pause = Some(Duration::from_millis(ms));
                    }
                    other => return Err(format!("{part:?}: unknown param {other:?}")),
                }
            }
            let stall_site = matches!(site, FaultSite::IoStall | FaultSite::Stall);
            if stall_site && pause.is_none() {
                return Err(format!("{part:?}: stall sites want ms=N"));
            }
            // A stall with no trigger stalls every call; error sites
            // must say how often explicitly.
            let trigger = match (trigger, stall_site) {
                (Some(t), _) => t,
                (None, true) => Trigger::Every(1),
                (None, false) => return Err(format!("{part:?}: wants every=N or p=F")),
            };
            rules.push(FaultRule {
                site,
                trigger,
                pause: pause.unwrap_or(Duration::ZERO),
                calls: AtomicU64::new(0),
                fired: AtomicU64::new(0),
            });
        }
        if rules.is_empty() {
            return Err("empty fault spec".into());
        }
        Ok(FaultPlan { seed, rules })
    }

    /// Did this site's rule fire for the current call? Counts the call
    /// and, when firing, the injection.
    fn fire(&self, site: FaultSite) -> bool {
        let Some(rule) = self.rules.iter().find(|r| r.site == site) else {
            return false;
        };
        // ordering: the call counter only hands out unique tickets —
        // no other memory is published through it.
        let ticket = rule.calls.fetch_add(1, Ordering::Relaxed) + 1;
        let hit = match rule.trigger {
            Trigger::Every(n) => ticket % n == 0,
            Trigger::Prob(ppm) => splitmix64(self.seed ^ ticket) % 1_000_000 < ppm,
        };
        if hit {
            // ordering: advisory fired tally, read after the fact by
            // accounting assertions.
            rule.fired.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// The disk-read seam: sleeps for an armed `io_stall` rule, then
    /// fails with a typed injected [`StoreError::Io`] when the
    /// `io_read` rule fires. `what` names the read for the error
    /// message (the harness greps for "injected").
    pub fn on_io_read(&self, what: &str) -> Result<()> {
        if self.fire(FaultSite::IoStall) {
            std::thread::sleep(self.pause(FaultSite::IoStall));
        }
        if self.fire(FaultSite::IoRead) {
            return Err(StoreError::Io(std::io::Error::other(format!(
                "injected read fault ({what})"
            ))));
        }
        Ok(())
    }

    /// The response-write seam, stall half: how long to sleep before
    /// writing, when the `stall` rule fires.
    pub fn response_stall(&self) -> Option<Duration> {
        self.fire(FaultSite::Stall)
            .then(|| self.pause(FaultSite::Stall))
    }

    /// The response-write seam, torn-frame half: when the
    /// `frame_truncate` rule fires for a frame of `len` bytes, the
    /// number of bytes to actually write (always a strict prefix, so
    /// the peer sees a checksum/length violation, not silence).
    pub fn truncate_frame(&self, len: usize) -> Option<usize> {
        self.fire(FaultSite::FrameTruncate).then_some(len / 2)
    }

    /// Faults injected at `site` so far — what exact-accounting tests
    /// compare server counters against.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.rules
            .iter()
            .find(|r| r.site == site)
            // ordering: advisory tally read after the runs under test.
            .map_or(0, |r| r.fired.load(Ordering::Relaxed))
    }

    /// A one-line human rendering of the armed rules, for the serve
    /// banner.
    pub fn describe(&self) -> String {
        let rules: Vec<String> = self
            .rules
            .iter()
            .map(|r| {
                let site = match r.site {
                    FaultSite::IoRead => "io_read",
                    FaultSite::IoStall => "io_stall",
                    FaultSite::FrameTruncate => "frame_truncate",
                    FaultSite::Stall => "stall",
                };
                let trigger = match r.trigger {
                    Trigger::Every(n) => format!("every={n}"),
                    Trigger::Prob(ppm) => format!("p={}", ppm as f64 / 1_000_000.0),
                };
                if r.pause.is_zero() {
                    format!("{site}:{trigger}")
                } else {
                    format!("{site}:{trigger},ms={}", r.pause.as_millis())
                }
            })
            .collect();
        format!("{} (seed {})", rules.join("; "), self.seed)
    }

    fn pause(&self, site: FaultSite) -> Duration {
        self.rules
            .iter()
            .find(|r| r.site == site)
            .map_or(Duration::ZERO, |r| r.pause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_grammar() {
        let plan = FaultPlan::parse(
            "io_read:every=7; frame_truncate:p=0.05; stall:ms=200,every=3",
            1,
        )
        .unwrap();
        assert_eq!(plan.rules.len(), 3);
        let plan = FaultPlan::parse("io_stall:ms=50", 1).unwrap();
        assert!(matches!(plan.rules[0].trigger, Trigger::Every(1)));

        for bad in [
            "",
            "io_read",
            "io_read:every=0",
            "io_read:p=1.5",
            "nope:every=2",
            "io_read:every=2,p=0.5",
            "stall:every=2",
            "io_read:every=2;io_read:every=3",
        ] {
            assert!(FaultPlan::parse(bad, 1).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn every_n_fires_exactly_every_nth() {
        let plan = FaultPlan::parse("io_read:every=7", 9).unwrap();
        let mut errors = 0;
        for i in 1..=70 {
            let out = plan.on_io_read("col");
            if i % 7 == 0 {
                let e = out.unwrap_err();
                assert!(e.to_string().contains("injected read fault"), "{e}");
                errors += 1;
            } else {
                out.unwrap();
            }
        }
        assert_eq!(errors, 10);
        assert_eq!(plan.injected(FaultSite::IoRead), 10);
        assert_eq!(plan.injected(FaultSite::Stall), 0);
    }

    #[test]
    fn probabilistic_rules_are_seed_deterministic() {
        let fired = |seed| {
            let plan = FaultPlan::parse("frame_truncate:p=0.2", seed).unwrap();
            let hits: Vec<bool> = (0..200)
                .map(|_| plan.truncate_frame(64).is_some())
                .collect();
            hits
        };
        assert_eq!(fired(42), fired(42), "same seed, same sequence");
        assert_ne!(fired(42), fired(43), "different seed, different sequence");
        let n = fired(42).iter().filter(|&&h| h).count();
        assert!((10..=90).contains(&n), "p=0.2 over 200 draws fired {n}x");
    }

    #[test]
    fn stalls_report_their_pause() {
        let plan = FaultPlan::parse("stall:ms=200,every=2", 0).unwrap();
        assert_eq!(plan.response_stall(), None);
        assert_eq!(plan.response_stall(), Some(Duration::from_millis(200)));
        assert_eq!(plan.injected(FaultSite::Stall), 1);
    }

    #[test]
    fn truncation_is_a_strict_prefix() {
        let plan = FaultPlan::parse("frame_truncate:every=1", 0).unwrap();
        let keep = plan.truncate_frame(100).unwrap();
        assert!(keep < 100);
    }
}
