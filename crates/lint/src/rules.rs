//! The rule engine: four workspace invariants plus annotation hygiene.
//!
//! Every rule is a lexical scan over [`FileScan`]s — deliberately so.
//! The stable-only toolchain rules out Miri/TSan and compiler plugins,
//! and a parser would rot; token-shape rules plus an explicit,
//! reasoned escape hatch (`// lint: allow(<rule>) — reason`) keep the
//! checker self-contained, fast, and honest about being an
//! approximation. What each rule enforces — and where its lexical
//! approximation ends — is catalogued in `docs/LINTS.md`.

use crate::config::Config;
use crate::lexer::{lex, Kind, Token};
use crate::scan::FileScan;

/// Rule identifiers, as used in findings and `lint: allow(...)`.
pub const RULES: &[&str] = &["panic", "ordering", "seqcst", "locks", "protocol"];

/// One finding: a rule violation at a file:line.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The violated rule's id.
    pub rule: &'static str,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Run every rule over a set of scanned files and return the sorted
/// findings.
pub fn check(scans: &[FileScan], config: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    for scan in scans {
        if config.wire_surface.iter().any(|f| f == &scan.rel) {
            panic_free(scan, &mut findings);
        }
        ordering_justified(scan, &mut findings);
        lock_discipline(scan, config, &mut findings);
        if !config.protocol_home.is_empty() && scan.rel != config.protocol_home {
            protocol_single_home(scan, config, &mut findings);
        }
        annotation_hygiene(scan, &mut findings);
    }
    findings.sort();
    findings
}

fn finding(
    out: &mut Vec<Finding>,
    scan: &FileScan,
    rule: &'static str,
    line: u32,
    msg: impl Into<String>,
) {
    out.push(Finding {
        file: scan.rel.clone(),
        line,
        rule,
        msg: msg.into(),
    });
}

// -- rule: panic ------------------------------------------------------

/// Keywords that make a following `[` an array literal/type rather
/// than an index expression.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "return", "in", "as", "if", "else", "match", "move", "ref", "let", "const", "static",
    "dyn", "impl", "break", "continue", "loop", "while", "for", "where", "unsafe", "pub", "use",
    "mod", "enum", "struct", "trait", "type", "fn", "crate", "super", "box", "await",
];

/// Macros whose expansion can panic at runtime in release builds.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Rule `panic`: the wire surface must not contain `unwrap`/`expect`,
/// panicking macros, or slice-index expressions. Failures on a request
/// path must become typed `Response::Error` frames; genuinely
/// unreachable states carry `// lint: allow(panic) — reason`.
fn panic_free(scan: &FileScan, out: &mut Vec<Finding>) {
    let code = &scan.code;
    for (i, t) in code.iter().enumerate() {
        match (t.kind, t.text.as_str()) {
            (Kind::Ident, "unwrap" | "expect") => {
                let after_dot = i > 0 && code[i - 1].text == ".";
                let called = code.get(i + 1).is_some_and(|n| n.text == "(");
                if after_dot && called && !scan.allowed("panic", t.line) {
                    finding(
                        out,
                        scan,
                        "panic",
                        t.line,
                        format!(
                            ".{}() on the wire surface — return a typed error instead",
                            t.text
                        ),
                    );
                }
            }
            (Kind::Ident, name) if PANIC_MACROS.contains(&name) => {
                let is_macro = code.get(i + 1).is_some_and(|n| n.text == "!");
                if is_macro && !scan.allowed("panic", t.line) {
                    finding(
                        out,
                        scan,
                        "panic",
                        t.line,
                        format!("{name}! on the wire surface — return a typed error instead"),
                    );
                }
            }
            (Kind::Punct, "[") if i > 0 => {
                let prev = &code[i - 1];
                let indexing = match prev.kind {
                    Kind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                    Kind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
                    _ => false,
                };
                if indexing && !scan.allowed("panic", t.line) {
                    finding(
                        out,
                        scan,
                        "panic",
                        t.line,
                        "slice/array index can panic on the wire surface — use .get()",
                    );
                }
            }
            _ => {}
        }
    }
}

// -- rule: ordering ---------------------------------------------------

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Rule `ordering`: every `Ordering::*` use carries an `// ordering:`
/// justification on its line or in the comment block directly above.
/// `SeqCst` is additionally flagged as an undefaulted choice (escape:
/// `lint: allow(seqcst) — reason`).
fn ordering_justified(scan: &FileScan, out: &mut Vec<Finding>) {
    let code = &scan.code;
    for (i, t) in code.iter().enumerate() {
        if t.kind != Kind::Ident || t.text != "Ordering" {
            continue;
        }
        let is_path = code.get(i + 1).is_some_and(|c| c.text == ":")
            && code.get(i + 2).is_some_and(|c| c.text == ":");
        let Some(variant) = code
            .get(i + 3)
            .filter(|v| is_path && v.kind == Kind::Ident && ORDERINGS.contains(&v.text.as_str()))
        else {
            continue;
        };
        let line = variant.line;
        if !scan.annotated(line, |c| c.contains("ordering:")) {
            finding(
                out,
                scan,
                "ordering",
                line,
                format!(
                    "Ordering::{} without an `// ordering:` justification",
                    variant.text
                ),
            );
        }
        if variant.text == "SeqCst" && !scan.allowed("seqcst", line) {
            finding(
                out,
                scan,
                "seqcst",
                line,
                "SeqCst is an undefaulted choice — justify with `lint: allow(seqcst) — reason` \
                 or pick the weakest sufficient ordering",
            );
        }
    }
}

// -- rule: locks ------------------------------------------------------

/// Rule `locks`: within one function, a second `.lock()` on a
/// differently-named mutex is flagged unless the pair follows the
/// documented acquisition order from `lint.toml`; `.wait(` in a
/// function that also locks is flagged unless the condvar is in the
/// blessed single-flight registry.
fn lock_discipline(scan: &FileScan, config: &Config, out: &mut Vec<Finding>) {
    for f in &scan.fns {
        let mut locks: Vec<(String, u32)> = Vec::new();
        let mut waits: Vec<(String, u32)> = Vec::new();
        let body = match scan.code.get(f.body.clone()) {
            Some(body) => body,
            None => continue,
        };
        for (j, t) in body.iter().enumerate() {
            if t.kind != Kind::Ident || (t.text != "lock" && t.text != "wait") {
                continue;
            }
            let after_dot = j > 0 && body[j - 1].text == ".";
            let called = body.get(j + 1).is_some_and(|n| n.text == "(");
            if !after_dot || !called {
                continue;
            }
            // Receiver: the identifier before the dot.
            let recv = (j >= 2)
                .then(|| &body[j - 2])
                .filter(|r| r.kind == Kind::Ident)
                .map(|r| r.text.clone())
                .unwrap_or_else(|| "<expr>".to_string());
            if t.text == "lock" {
                locks.push((recv, t.line));
            } else {
                waits.push((recv, t.line));
            }
        }
        // Collapse repeated acquisitions of the same mutex.
        locks.dedup_by(|a, b| a.0 == b.0);
        for pair in locks.windows(2) {
            let ((first, _), (second, line)) = (&pair[0], &pair[1]);
            let order = |name: &str| config.lock_order.iter().position(|o| o == name);
            let ordered = matches!((order(first), order(second)), (Some(a), Some(b)) if a <= b);
            if !ordered && !scan.allowed("locks", *line) {
                finding(
                    out,
                    scan,
                    "locks",
                    *line,
                    format!(
                        "`{second}.lock()` after `{first}.lock()` in fn {} is outside the \
                         documented lock order",
                        f.name
                    ),
                );
            }
        }
        if !locks.is_empty() {
            for (recv, line) in &waits {
                let blessed = config.blessed_waits.iter().any(|w| w == recv);
                if !blessed && !scan.allowed("locks", *line) {
                    finding(
                        out,
                        scan,
                        "locks",
                        *line,
                        format!(
                            "`{recv}.wait(…)` in fn {} which also takes locks — only blessed \
                             condvar patterns may wait",
                            f.name
                        ),
                    );
                }
            }
        }
    }
}

// -- rule: protocol ---------------------------------------------------

/// Rule `protocol`: wire literals and frame constants are defined only
/// in the protocol home file; duplicates elsewhere are findings.
fn protocol_single_home(scan: &FileScan, config: &Config, out: &mut Vec<Finding>) {
    let code = &scan.code;
    for literal in &config.protocol_literals {
        let needle: Vec<Token> = lex(literal);
        if needle.is_empty() || code.len() < needle.len() {
            continue;
        }
        for (i, window) in code.windows(needle.len()).enumerate() {
            if window.iter().zip(&needle).all(|(a, b)| a.text == b.text)
                && !scan.allowed("protocol", code[i].line)
            {
                finding(
                    out,
                    scan,
                    "protocol",
                    code[i].line,
                    format!(
                        "wire literal `{literal}` outside {} — use the named constant",
                        config.protocol_home
                    ),
                );
            }
        }
    }
    for (i, t) in code.iter().enumerate() {
        if t.kind != Kind::Ident || t.text != "const" {
            continue;
        }
        let Some(name) = code.get(i + 1).filter(|n| n.kind == Kind::Ident) else {
            continue;
        };
        let homed = config
            .protocol_const_prefixes
            .iter()
            .any(|p| name.text.starts_with(p.as_str()));
        if homed && !scan.allowed("protocol", name.line) {
            finding(
                out,
                scan,
                "protocol",
                name.line,
                format!(
                    "wire constant `{}` defined outside {}",
                    name.text, config.protocol_home
                ),
            );
        }
    }
}

// -- annotation hygiene -----------------------------------------------

/// Every `lint: allow(...)` must name a known rule and carry a
/// `— reason` suffix; an unexplained allow is itself a finding.
fn annotation_hygiene(scan: &FileScan, out: &mut Vec<Finding>) {
    for allow in &scan.allows {
        if !RULES.contains(&allow.rule.as_str()) {
            finding(
                out,
                scan,
                "allow-hygiene",
                allow.line,
                format!("`lint: allow({})` names an unknown rule", allow.rule),
            );
        } else if !allow.has_reason {
            finding(
                out,
                scan,
                "allow-hygiene",
                allow.line,
                format!(
                    "`lint: allow({})` lacks a `— reason` suffix — every escape hatch \
                     carries its justification",
                    allow.rule
                ),
            );
        }
    }
}

/// A helper for tests and `main`: scan (rel, src) pairs and check them.
pub fn check_sources(sources: &[(String, String)], config: &Config) -> Vec<Finding> {
    let scans: Vec<FileScan> = sources
        .iter()
        .map(|(rel, src)| FileScan::new(rel, src))
        .collect();
    check(&scans, config)
}
