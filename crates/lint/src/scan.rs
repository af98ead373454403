//! A structural pass over one file's token stream.
//!
//! The rules need a little more shape than raw tokens: which tokens are
//! *live code* (not `#[cfg(test)]`-gated, not `#[test]` functions),
//! where each function body starts and ends, and what annotation
//! comments sit on or above each line. This module computes all of that
//! once per file; rules then run as cheap scans over the result.

use crate::lexer::{lex, Kind, Token};
use std::collections::{BTreeMap, BTreeSet};

/// A function's span inside [`FileScan::code`].
#[derive(Debug)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Line the `fn` keyword is on.
    pub line: u32,
    /// Body range: indices into [`FileScan::code`], open brace excluded.
    pub body: std::ops::Range<usize>,
}

/// One parsed `// lint: allow(rule) — reason` annotation.
#[derive(Debug)]
pub struct Allow {
    /// The rule being allowed (the text inside the parentheses).
    pub rule: String,
    /// Whether a `— reason` suffix is present and non-empty.
    pub has_reason: bool,
    /// The line the annotation appears on.
    pub line: u32,
}

/// Everything the rules need to know about one source file.
pub struct FileScan {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Live (non-test) code tokens, comments excluded.
    pub code: Vec<Token>,
    /// Functions found in the live code, outermost first.
    pub fns: Vec<FnSpan>,
    /// Lines that carry live code tokens.
    pub code_lines: BTreeSet<u32>,
    /// Comment text per line (block comments register every spanned
    /// line), test regions included — annotations in tests are hygiene-
    /// checked too.
    pub comments: BTreeMap<u32, String>,
    /// Every `lint: allow(...)` annotation in the file.
    pub allows: Vec<Allow>,
}

impl FileScan {
    /// Lex and structure one file.
    pub fn new(rel: &str, src: &str) -> FileScan {
        let tokens = lex(src);
        let mut comments: BTreeMap<u32, String> = BTreeMap::new();
        for t in &tokens {
            if t.kind == Kind::Comment {
                for line in t.line..=t.end_line {
                    comments
                        .entry(line)
                        .and_modify(|s| {
                            s.push(' ');
                            s.push_str(&t.text);
                        })
                        .or_insert_with(|| t.text.clone());
                }
            }
        }
        let allows = parse_allows(&comments);
        let code = strip_tests(tokens);
        let code_lines = code.iter().map(|t| t.line).collect();
        let fns = fn_spans(&code);
        FileScan {
            rel: rel.to_string(),
            code,
            fns,
            code_lines,
            comments,
            allows,
        }
    }

    /// Is `line` covered by an `// lint: allow(rule)` annotation — on
    /// the same line, or in the contiguous comment/blank block directly
    /// above it?
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.annotated(line, |text| {
            parse_allow_text(text).is_some_and(|a| a.rule == rule)
        })
    }

    /// Is `line` covered by a comment satisfying `pred` — same line, or
    /// the contiguous run of non-code lines directly above?
    pub fn annotated(&self, line: u32, pred: impl Fn(&str) -> bool) -> bool {
        if self.comments.get(&line).is_some_and(|t| pred(t)) {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            if self.code_lines.contains(&l) {
                return false;
            }
            if self.comments.get(&l).is_some_and(|t| pred(t)) {
                return true;
            }
        }
        false
    }

    /// The innermost function whose body contains code-token index `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.body.contains(&i))
            .min_by_key(|f| f.body.len())
    }
}

/// Parse every `lint: allow(rule)` annotation out of the comment map.
fn parse_allows(comments: &BTreeMap<u32, String>) -> Vec<Allow> {
    let mut out = Vec::new();
    for (&line, text) in comments {
        if let Some(mut allow) = parse_allow_text(text) {
            allow.line = line;
            out.push(allow);
        }
    }
    out
}

/// Parse `// lint: allow(rule) — reason` out of one comment's text.
/// The annotation must *lead* the comment (after the comment markers):
/// prose that merely mentions the syntax is not an annotation.
fn parse_allow_text(text: &str) -> Option<Allow> {
    let lead = text.trim_start_matches(['/', '*', '!', ' ']);
    let rest = lead.strip_prefix("lint: allow(")?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let tail = rest[close + 1..].trim_start();
    // The reason must be introduced by an em-dash or `--` and be
    // non-empty after it.
    let has_reason = tail
        .strip_prefix('—')
        .or_else(|| tail.strip_prefix("--"))
        .map(|r| !r.trim().is_empty())
        .unwrap_or(false);
    Some(Allow {
        rule,
        has_reason,
        line: 0,
    })
}

/// Remove test-gated regions: any item annotated `#[cfg(test)]` (or an
/// attribute naming `test`, e.g. `#[test]`) is dropped through its
/// closing brace or terminating semicolon, attribute included.
fn strip_tests(tokens: Vec<Token>) -> Vec<Token> {
    let code: Vec<Token> = tokens
        .into_iter()
        .filter(|t| t.kind != Kind::Comment)
        .collect();
    let mut keep = Vec::with_capacity(code.len());
    let mut i = 0;
    while i < code.len() {
        if code[i].kind == Kind::Punct
            && code[i].text == "#"
            && code.get(i + 1).is_some_and(|t| t.text == "[")
        {
            // Collect the attribute's tokens up to its matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut is_test = false;
            let mut negated = false;
            while j < code.len() && depth > 0 {
                match code[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "test" if code[j].kind == Kind::Ident => is_test = true,
                    "not" if code[j].kind == Kind::Ident => negated = true,
                    _ => {}
                }
                j += 1;
            }
            let is_test = is_test && !negated;
            if is_test {
                // Skip any further attributes, then the item itself:
                // through its balanced `{…}` or a `;`, whichever first.
                while j < code.len() && code[j].text == "#" {
                    let mut d = 0usize;
                    j += 1; // past '#'
                    while j < code.len() {
                        match code[j].text.as_str() {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
                let mut braces = 0usize;
                while j < code.len() {
                    match code[j].text.as_str() {
                        "{" => braces += 1,
                        "}" => {
                            braces -= 1;
                            if braces == 0 {
                                j += 1;
                                break;
                            }
                        }
                        ";" if braces == 0 => {
                            j += 1;
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j;
                continue;
            }
        }
        keep.push(code[i].clone());
        i += 1;
    }
    keep
}

/// Compute function spans over the live code tokens.
fn fn_spans(code: &[Token]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    // Functions waiting for their opening brace, with the brace depth
    // they were declared at.
    let mut pending: Vec<(String, u32, usize)> = Vec::new();
    // Open bodies: (index into fns, open depth).
    let mut open: Vec<(usize, usize)> = Vec::new();
    let mut depth = 0usize;
    for (i, t) in code.iter().enumerate() {
        match (t.kind, t.text.as_str()) {
            (Kind::Ident, "fn") => {
                if let Some(name) = code.get(i + 1).filter(|n| n.kind == Kind::Ident) {
                    pending.push((name.text.clone(), t.line, depth));
                }
            }
            // A bodyless declaration (a trait method signature) ends any
            // pending function at this depth.
            (Kind::Punct, ";") => pending.retain(|(_, _, d)| *d != depth),
            (Kind::Punct, "{") => {
                if let Some(pos) = pending.iter().rposition(|(_, _, d)| *d == depth) {
                    let (name, line, _) = pending.remove(pos);
                    fns.push(FnSpan {
                        name,
                        line,
                        body: i + 1..i + 1,
                    });
                    open.push((fns.len() - 1, depth));
                }
                depth += 1;
            }
            (Kind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                if let Some(&(idx, _)) = open.last().filter(|&&(_, d)| d == depth) {
                    fns[idx].body.end = i;
                    open.pop();
                }
            }
            _ => {}
        }
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_blocks_are_stripped() {
        let src = "fn live() { a(); }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn gone() { b(); }\n}\nfn live2() { c(); }\n";
        let scan = FileScan::new("x.rs", src);
        let names: Vec<&str> = scan.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["live", "live2"]);
        assert!(!scan.code.iter().any(|t| t.text == "gone"));
    }

    #[test]
    fn fn_and_impl_spans_nest() {
        let src = "impl fmt::Display for Report {\n  fn fmt(&self) { inner(); }\n}\ntrait T { fn sig(&self); }\nfn free() { fn local() {} }\n";
        let scan = FileScan::new("x.rs", src);
        let names: Vec<&str> = scan.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["fmt", "free", "local"], "signatures have no body");
        let body = |name: &str| {
            let f = scan.fns.iter().find(|f| f.name == name).expect("found");
            scan.code[f.body.clone()]
                .iter()
                .map(|t| t.text.as_str())
                .collect::<String>()
        };
        assert_eq!(body("fmt"), "inner();");
        assert_eq!(body("free"), "fnlocal(){}");
    }

    #[test]
    fn allow_annotations_parse_reason() {
        let src = "// lint: allow(panic) — index is bounds-checked above\nlet x = v[0];\n// lint: allow(locks)\nlet y = 1;\n";
        let scan = FileScan::new("x.rs", src);
        assert_eq!(scan.allows.len(), 2);
        assert!(scan.allows[0].has_reason);
        assert!(!scan.allows[1].has_reason);
        assert!(scan.allowed("panic", 2));
        assert!(!scan.allowed("locks", 2));
        assert!(scan.allowed("locks", 4));
    }

    #[test]
    fn annotation_scope_stops_at_code() {
        let src = "// lint: allow(panic) — reason\nlet a = 1;\nlet b = v[0];\n";
        let scan = FileScan::new("x.rs", src);
        assert!(scan.allowed("panic", 2));
        assert!(!scan.allowed("panic", 3), "code line 2 breaks the block");
    }
}
