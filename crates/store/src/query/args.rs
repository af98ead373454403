//! The `lcdc query` flag syntax as a reusable parser.
//!
//! One grammar, two front doors: the `lcdc query` subcommand parses its
//! command line here, and the serving layer ([`crate::server`]) parses
//! the *same* flag vector out of a wire request — so anything a script
//! can say to the CLI it can say, verbatim, to a server. Filters are
//! `col=lo..hi`, `col=value`, or `col=in:v1,v2,..`; sinks are
//! `--sum/--min/--max/--count`, `--group-by`, `--top-k col:k`,
//! `--distinct`, or `--join TABLE --on COL` (an equi-join against
//! another catalog table — catalog mode only, since someone must
//! resolve the right name); execution knobs map onto [`ExecOptions`].
//!
//! Flags that describe *local storage* rather than the query itself
//! (`--lazy`, `--cache`, the positional directory, ...) are parsed but
//! flagged by [`QueryArgs::storage_flag`], so the server can reject
//! them in requests with a precise message instead of a silent ignore.

use super::{ExecOptions, QuerySpec};
use crate::predicate::Predicate;

/// One `lcdc query` invocation, parsed: the logical plan, its execution
/// options, presentation labels, and the storage-mode flags only the
/// CLI acts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryArgs {
    /// The positional table/catalog directory, when given.
    pub dir: Option<String>,
    /// `--table NAME`: query the named catalog table instead of a bare
    /// table directory.
    pub table: Option<String>,
    /// `--lazy`: open columns as file-backed lazy sources.
    pub lazy: bool,
    /// `--cache N`: decoded-segment LRU capacity for lazy opens.
    pub cache: Option<usize>,
    /// `--repeat N`: run the query N times (result-cache demos).
    pub repeat: usize,
    /// `--naive`: run the decoded baseline
    /// ([`crate::QueryBuilder::execute_naive`]) instead of pushdown.
    pub naive: bool,
    /// `--explain`: print the compiled plan before running.
    pub explain: bool,
    /// The assembled logical plan (filters + sink).
    pub spec: QuerySpec,
    /// Output labels for the aggregate row, in request order
    /// (`sum(qty)`, `count`, ...).
    pub labels: Vec<String>,
    /// Worker and prefetch execution options.
    pub opts: ExecOptions,
}

impl QueryArgs {
    /// Parse an `lcdc query`-style argument vector. Accepts
    /// `--flag=value` as a spelling of `--flag value`. Unknown flags
    /// and malformed values error with the offending token.
    pub fn parse(args: &[String]) -> Result<QueryArgs, String> {
        let mut out = QueryArgs {
            dir: None,
            table: None,
            lazy: false,
            cache: None,
            repeat: 1,
            naive: false,
            explain: false,
            spec: QuerySpec::new(),
            labels: Vec::new(),
            opts: ExecOptions::default(),
        };
        let mut aggs: Vec<(u8, String)> = Vec::new(); // (kind, column)
        let mut join_table: Option<String> = None;
        let mut join_on: Option<String> = None;

        // Accept `--flag=value` as a spelling of `--flag value`.
        let args: Vec<String> = args
            .iter()
            .flat_map(
                |arg| match arg.strip_prefix("--").and_then(|a| a.split_once('=')) {
                    Some((flag, value)) => vec![format!("--{flag}"), value.to_string()],
                    None => vec![arg.clone()],
                },
            )
            .collect();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--filter" => {
                    let (column, predicate) = parse_predicate(&value("--filter")?)?;
                    out.spec = out.spec.filter(&column, predicate);
                }
                "--any" => {
                    let leaves = parse_disjunction(&value("--any")?)?;
                    let borrowed: Vec<(&str, Predicate)> = leaves
                        .iter()
                        .map(|(c, p)| (c.as_str(), p.clone()))
                        .collect();
                    out.spec = out.spec.filter_any(&borrowed);
                }
                "--sum" => aggs.push((b's', value("--sum")?)),
                "--min" => aggs.push((b'm', value("--min")?)),
                "--max" => aggs.push((b'M', value("--max")?)),
                "--count" => aggs.push((b'c', String::new())),
                "--group-by" => out.spec = out.spec.group_by(&value("--group-by")?),
                "--distinct" => out.spec = out.spec.distinct(&value("--distinct")?),
                "--top-k" => {
                    let top = value("--top-k")?;
                    let (column, k) = top
                        .split_once(':')
                        .ok_or_else(|| format!("--top-k wants col:k, got {top:?}"))?;
                    out.spec = out
                        .spec
                        .top_k(column, k.parse().map_err(|_| format!("bad k {k:?}"))?);
                }
                "--join" => join_table = Some(value("--join")?),
                "--on" => join_on = Some(value("--on")?),
                "--table" => out.table = Some(value("--table")?),
                "--lazy" => out.lazy = true,
                "--cache" => {
                    out.cache = Some(value("--cache")?.parse().map_err(|_| "bad --cache")?);
                }
                "--repeat" => {
                    out.repeat = value("--repeat")?.parse().map_err(|_| "bad --repeat")?;
                }
                "--threads" => {
                    out.opts.threads = value("--threads")?.parse().map_err(|_| "bad --threads")?;
                }
                "--prefetch" => {
                    out.opts.prefetch =
                        value("--prefetch")?.parse().map_err(|_| "bad --prefetch")?;
                }
                "--ordered-filters" => out.spec = out.spec.keep_filter_order(),
                "--naive" => out.naive = true,
                "--explain" => out.explain = true,
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
                positional => {
                    if out.dir.replace(positional.to_string()).is_some() {
                        return Err("more than one table directory given".into());
                    }
                }
            }
        }

        out.labels = aggs
            .iter()
            .map(|(kind, col)| match kind {
                b's' => format!("sum({col})"),
                b'm' => format!("min({col})"),
                b'M' => format!("max({col})"),
                _ => "count".to_string(),
            })
            .collect();
        if !aggs.is_empty() {
            let borrowed: Vec<super::Agg<'_>> = aggs
                .iter()
                .map(|(kind, col)| match kind {
                    b's' => super::Agg::Sum(col),
                    b'm' => super::Agg::Min(col),
                    b'M' => super::Agg::Max(col),
                    _ => super::Agg::Count,
                })
                .collect();
            out.spec = out.spec.aggregate(&borrowed);
        }
        match (join_table, join_on) {
            (Some(table), Some(on)) => out.spec = out.spec.join(&table, &on),
            (Some(_), None) => return Err("--join needs --on COL for the key column".into()),
            (None, Some(_)) => return Err("--on needs --join TABLE for the right side".into()),
            (None, None) => {}
        }
        Ok(out)
    }

    /// The first flag in this parse that only makes sense against local
    /// storage (or local presentation), if any — what a server must
    /// reject in a wire request, by name.
    pub fn storage_flag(&self) -> Option<&'static str> {
        if self.dir.is_some() {
            Some("<table directory>")
        } else if self.table.is_some() {
            Some("--table")
        } else if self.lazy {
            Some("--lazy")
        } else if self.cache.is_some() {
            Some("--cache")
        } else if self.repeat != 1 {
            Some("--repeat")
        } else if self.naive {
            Some("--naive")
        } else if self.explain {
            Some("--explain")
        } else {
            None
        }
    }
}

/// Parse one filter spec: `col=lo..hi`, `col=value`, or
/// `col=in:v1,v2,..`.
pub fn parse_predicate(spec: &str) -> Result<(String, Predicate), String> {
    let (column, rest) = spec.split_once('=').ok_or_else(|| {
        format!("--filter wants col=lo..hi, col=value or col=in:v1,v2, got {spec:?}")
    })?;
    let predicate = if let Some(list) = rest.strip_prefix("in:") {
        let values: Vec<i128> = list
            .split(',')
            .map(|v| v.trim().parse().map_err(|_| format!("bad value {v:?}")))
            .collect::<Result<_, String>>()?;
        Predicate::in_list(&values)
    } else if let Some((lo, hi)) = rest.split_once("..") {
        Predicate::Range {
            lo: lo.trim().parse().map_err(|_| format!("bad bound {lo:?}"))?,
            hi: hi.trim().parse().map_err(|_| format!("bad bound {hi:?}"))?,
        }
    } else {
        Predicate::Eq(
            rest.trim()
                .parse()
                .map_err(|_| format!("bad value {rest:?}"))?,
        )
    };
    Ok((column.to_string(), predicate))
}

/// A disjunction spec for `--any`: comma-separated filter specs (the
/// `in:` form is rejected up front — its commas would be ambiguous with
/// the alternative separator).
pub fn parse_disjunction(spec: &str) -> Result<Vec<(String, Predicate)>, String> {
    if spec.contains("=in:") {
        return Err(format!(
            "--any cannot contain an in: filter (ambiguous commas) — \
             use a separate --filter col=in:.. conjunct instead, got {spec:?}"
        ));
    }
    spec.split(',').map(parse_predicate).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn predicate_specs_parse() {
        let (c, p) = parse_predicate("day=5..9").unwrap();
        assert_eq!(c, "day");
        assert_eq!(p, Predicate::Range { lo: 5, hi: 9 });
        let (_, p) = parse_predicate("qty=7").unwrap();
        assert_eq!(p, Predicate::Eq(7));
        let (_, p) = parse_predicate("qty=in:1, 5,9").unwrap();
        assert_eq!(p, Predicate::in_list(&[1, 5, 9]));
        assert!(parse_predicate("noequals").is_err());
        assert!(parse_predicate("day=x..9").is_err());
        assert!(parse_disjunction("day=1..2,qty=5").unwrap().len() == 2);
        assert!(parse_disjunction("day=in:1,2").is_err());
    }

    #[test]
    fn full_query_line_parses() {
        let args = strs(&[
            "dir",
            "--table",
            "orders",
            "--filter",
            "day=5..9",
            "--sum",
            "qty",
            "--count",
            "--threads=3",
            "--prefetch",
            "4",
            "--repeat",
            "2",
        ]);
        let q = QueryArgs::parse(&args).unwrap();
        assert_eq!(q.dir.as_deref(), Some("dir"));
        assert_eq!(q.table.as_deref(), Some("orders"));
        assert_eq!(q.labels, vec!["sum(qty)", "count"]);
        assert_eq!(q.opts.threads, 3);
        assert_eq!(q.opts.prefetch, 4);
        assert_eq!(q.repeat, 2);
        assert_eq!(
            q.spec,
            QuerySpec::new()
                .filter("day", Predicate::Range { lo: 5, hi: 9 })
                .aggregate(&[super::super::Agg::Sum("qty"), super::super::Agg::Count])
        );
    }

    #[test]
    fn storage_flags_are_flagged() {
        let pure = QueryArgs::parse(&strs(&["--filter", "day=1..2", "--count"])).unwrap();
        assert_eq!(pure.storage_flag(), None);
        let lazy = QueryArgs::parse(&strs(&["--lazy", "--count"])).unwrap();
        assert_eq!(lazy.storage_flag(), Some("--lazy"));
        let dir = QueryArgs::parse(&strs(&["somewhere", "--count"])).unwrap();
        assert_eq!(dir.storage_flag(), Some("<table directory>"));
    }

    #[test]
    fn unknown_flags_error() {
        assert!(QueryArgs::parse(&strs(&["--wat"])).is_err());
        assert!(QueryArgs::parse(&strs(&["--top-k", "nocolon"])).is_err());
        assert!(QueryArgs::parse(&strs(&["--prefetch", "auto"])).is_err());
    }

    #[test]
    fn join_flags_parse_and_require_each_other() {
        let q = QueryArgs::parse(&strs(&[
            "--filter", "qty=1..9", "--join", "items", "--on", "day",
        ]))
        .unwrap();
        assert_eq!(
            q.spec,
            QuerySpec::new()
                .filter("qty", Predicate::Range { lo: 1, hi: 9 })
                .join("items", "day")
        );
        // A join is part of the plan, not a storage flag: valid in a
        // wire request (the server resolves the right table).
        assert_eq!(q.storage_flag(), None);
        assert!(QueryArgs::parse(&strs(&["--join", "items"])).is_err());
        assert!(QueryArgs::parse(&strs(&["--on", "day"])).is_err());
    }
}
