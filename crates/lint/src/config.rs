//! `lint.toml` — the repo-specific invariant registry.
//!
//! The rules are generic machinery; everything repo-specific (which
//! files are the wire surface, the documented lock order, which condvar
//! patterns are blessed, where protocol literals live) lives in a
//! checked-in `lint.toml` at the workspace root, parsed by the tiny
//! hand-rolled reader below — the same no-crates.io discipline as the
//! shims.
//!
//! Supported syntax (deliberately a TOML subset): `[section]` headers,
//! `key = "string"`, and `key = ["a", "b"]` single-line string arrays.
//! `#` starts a comment.

/// The parsed `lint.toml`.
#[derive(Debug, Default)]
pub struct Config {
    /// Files forming the panic-free wire surface (rule `panic`).
    pub wire_surface: Vec<String>,
    /// Documented lock acquisition order, outermost first (rule
    /// `locks`). Locks are identified by the field name the guard is
    /// taken from (`state` in `self.shared.state.lock()`).
    pub lock_order: Vec<String>,
    /// Condvar names whose `.wait(…)` pattern has been audited (rule
    /// `locks`): single-flight waits that hand their own guard back.
    pub blessed_waits: Vec<String>,
    /// The one file allowed to define wire-protocol literals and
    /// constants (rule `protocol`).
    pub protocol_home: String,
    /// Literal token sequences that may appear only in the home file.
    pub protocol_literals: Vec<String>,
    /// `const` name prefixes that may be defined only in the home file.
    pub protocol_const_prefixes: Vec<String>,
}

impl Config {
    /// Parse a `lint.toml` document. Unknown keys are errors — a typo
    /// in the invariant registry must not silently disable a rule.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config::default();
        let mut section = String::new();
        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let err = |msg: &str| format!("lint.toml:{}: {msg}", n + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                match header {
                    "wire" | "locks" | "protocol" => section = header.to_string(),
                    other => return Err(err(&format!("unknown section [{other}]"))),
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err("expected `key = value`"));
            };
            let (key, value) = (key.trim(), value.trim());
            match (section.as_str(), key) {
                ("wire", "surface") => config.wire_surface = parse_list(value).map_err(err)?,
                ("locks", "order") => config.lock_order = parse_list(value).map_err(err)?,
                ("locks", "blessed_waits") => {
                    config.blessed_waits = parse_list(value).map_err(err)?
                }
                ("protocol", "home") => config.protocol_home = parse_str(value).map_err(err)?,
                ("protocol", "literals") => {
                    config.protocol_literals = parse_list(value).map_err(err)?
                }
                ("protocol", "const_prefixes") => {
                    config.protocol_const_prefixes = parse_list(value).map_err(err)?
                }
                (s, k) => return Err(err(&format!("unknown key `{k}` in section `{s}`"))),
            }
        }
        Ok(config)
    }
}

fn parse_str(value: &str) -> Result<String, &'static str> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or("expected a \"quoted string\"")
}

fn parse_list(value: &str) -> Result<Vec<String>, &'static str> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or("expected a [\"single\", \"line\"] string array")?;
    let inner = inner.trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse_str)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_section() {
        let text = r#"
# comment
[wire]
surface = ["a.rs", "b.rs"]

[locks]
order = ["catalog", "table"]
blessed_waits = ["loaded"]

[protocol]
home = "proto.rs"
literals = ["64 << 20"]
const_prefixes = ["REQ_"]
"#;
        let config = Config::parse(text).expect("parses");
        assert_eq!(config.wire_surface, ["a.rs", "b.rs"]);
        assert_eq!(config.lock_order, ["catalog", "table"]);
        assert_eq!(config.blessed_waits, ["loaded"]);
        assert_eq!(config.protocol_home, "proto.rs");
        assert_eq!(config.protocol_literals, ["64 << 20"]);
        assert_eq!(config.protocol_const_prefixes, ["REQ_"]);
    }

    #[test]
    fn unknown_keys_are_loud() {
        assert!(Config::parse("[wire]\nsurfaces = []\n").is_err());
        assert!(Config::parse("[nope]\n").is_err());
        assert!(Config::parse("[wire]\nsurface = nope\n").is_err());
    }
}
