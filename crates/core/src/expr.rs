//! A textual language for scheme expressions.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! expr   := NAME params? subs?
//! params := '(' NAME '=' INT (',' NAME '=' INT)* ')'
//! subs   := '[' NAME '=' expr (',' NAME '=' expr)* ']'
//! ```
//!
//! Examples mirroring the paper:
//!
//! * `rle` — plain run-length encoding,
//! * `rle[values=delta[deltas=ns_zz],lengths=ns]` — the §I composition,
//! * `rpe[values=id,positions=delta]` — the §II-A identity's right side,
//! * `for(l=128)[offsets=ns]` — FOR with NS-narrowed offsets,
//! * `pfor(l=128,keep=990)` — patched FOR covering 99% of offsets.
//!
//! Scheme names: `id`, `const`, `sparse`, `ns`, `ns_zz`, `delta`,
//! `dfor(l=ℓ)`, `rle`, `rpe`, `dict`, `step(l=ℓ)`, `vstep(w=bits)`,
//! `for(l=ℓ)`, `for(l=ℓ,first=1)` (first-element reference),
//! `pfor(l=ℓ,keep=‰)`, `pstep(l=ℓ)`, `varwidth`, `varwidth_zz`,
//! `linear(l=ℓ)`, `poly2(l=ℓ)`, and the part leaf `shared` — a
//! dictionary stored once and shared between forms
//! (`dict[dict=shared,codes=ns]`, see [`crate::shared`]).

use crate::compose::Cascade;
use crate::error::{CoreError, Result};
use crate::scheme::Scheme;
use crate::schemes::{
    Const, Delta, DeltaFor, Dict, For, Id, LinearFor, Ns, PatchedFor, PatchedStep, PolyFor, Rle,
    Rpe, Sparse, StepFunction, VarStep, VarWidthNs,
};
use crate::shared::Shared;
use std::fmt;

/// Parsed scheme expression: a named scheme with integer parameters and
/// sub-expressions cascaded into named parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeExpr {
    /// Scheme name (e.g. `"rle"`).
    pub name: String,
    /// Integer parameters in written order.
    pub params: Vec<(String, i64)>,
    /// Sub-schemes per part role, in written order.
    pub subs: Vec<(String, SchemeExpr)>,
}

impl SchemeExpr {
    /// A bare scheme with no parameters or subs.
    pub fn bare(name: &str) -> Self {
        SchemeExpr {
            name: name.to_string(),
            params: Vec::new(),
            subs: Vec::new(),
        }
    }

    fn param(&self, key: &str) -> Option<i64> {
        self.params.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Instantiate the expression as a runnable [`Scheme`].
    pub fn build(&self) -> Result<Box<dyn Scheme>> {
        let base: Box<dyn Scheme> = match self.name.as_str() {
            "id" => Box::new(Id),
            "const" => Box::new(Const),
            "sparse" => Box::new(Sparse),
            "ns" => Box::new(Ns::plain()),
            "ns_zz" => Box::new(Ns::zz()),
            "delta" => Box::new(Delta),
            "rle" => Box::new(Rle),
            "rpe" => Box::new(Rpe),
            "dict" => Box::new(Dict),
            "shared" => Box::new(Shared),
            "varwidth" => Box::new(VarWidthNs::plain()),
            "varwidth_zz" => Box::new(VarWidthNs::zz()),
            "step" => Box::new(StepFunction::new(self.require_len()?)),
            "for" => {
                let l = self.require_len()?;
                match self.param("first") {
                    None | Some(0) => Box::new(For::new(l)),
                    Some(1) => Box::new(For::new_first_ref(l)),
                    Some(other) => {
                        return Err(CoreError::Parse(format!(
                            "for first={other} must be 0 or 1"
                        )))
                    }
                }
            }
            "dfor" => Box::new(DeltaFor::new(self.require_len()?)),
            "vstep" => {
                let w = self
                    .param("w")
                    .ok_or_else(|| CoreError::Parse("scheme vstep requires w=...".into()))?;
                if !(1..=64).contains(&w) {
                    return Err(CoreError::Parse(format!("vstep w={w} outside 1..=64")));
                }
                Box::new(VarStep::new(w as u32))
            }
            "linear" => Box::new(LinearFor::new(self.require_len()?)),
            "poly2" => Box::new(PolyFor::new(self.require_len()?)),
            "pstep" => Box::new(PatchedStep::new(self.require_len()?)),
            "pfor" => {
                let l = self.require_len()?;
                let keep = self.param("keep").unwrap_or(990);
                if !(1..=1000).contains(&keep) {
                    return Err(CoreError::Parse(format!(
                        "pfor keep={keep} outside 1..=1000"
                    )));
                }
                Box::new(PatchedFor::new(l, keep as u32))
            }
            other => return Err(CoreError::Parse(format!("unknown scheme name {other:?}"))),
        };
        if self.subs.is_empty() {
            return Ok(base);
        }
        let mut inner: Vec<(String, Box<dyn Scheme>)> = Vec::with_capacity(self.subs.len());
        for (role, sub) in &self.subs {
            inner.push((role.clone(), sub.build()?));
        }
        Ok(Box::new(Cascade::new(base, inner)))
    }

    fn require_len(&self) -> Result<usize> {
        let l = self
            .param("l")
            .ok_or_else(|| CoreError::Parse(format!("scheme {} requires l=...", self.name)))?;
        if l < 1 {
            return Err(CoreError::Parse(format!(
                "segment length l={l} must be >= 1"
            )));
        }
        Ok(l as usize)
    }
}

impl fmt::Display for SchemeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.params.is_empty() {
            let params: Vec<String> = self
                .params
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            write!(f, "({})", params.join(","))?;
        }
        if !self.subs.is_empty() {
            let subs: Vec<String> = self.subs.iter().map(|(r, e)| format!("{r}={e}")).collect();
            write!(f, "[{}]", subs.join(","))?;
        }
        Ok(())
    }
}

/// Parse and instantiate in one step.
pub fn parse_scheme(input: &str) -> Result<Box<dyn Scheme>> {
    parse_expr(input)?.build()
}

/// Parse a scheme expression without instantiating it.
pub fn parse_expr(input: &str) -> Result<SchemeExpr> {
    let mut parser = Parser {
        input: input.as_bytes(),
        pos: 0,
    };
    let expr = parser.expr()?;
    parser.skip_ws();
    if parser.pos != parser.input.len() {
        return Err(CoreError::Parse(format!(
            "trailing input at byte {}: {:?}",
            parser.pos,
            &input[parser.pos..]
        )));
    }
    Ok(expr)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(CoreError::Parse(format!(
                "expected {:?} at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .input
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(CoreError::Parse(format!(
                "expected identifier at byte {start}"
            )));
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .expect("ascii subset")
            .to_string())
    }

    fn integer(&mut self) -> Result<i64> {
        self.skip_ws();
        let start = self.pos;
        if self.input.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.input.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.input[start..self.pos]).expect("ascii subset");
        text.parse::<i64>()
            .map_err(|_| CoreError::Parse(format!("expected integer at byte {start}")))
    }

    fn expr(&mut self) -> Result<SchemeExpr> {
        let name = self.ident()?;
        let mut expr = SchemeExpr::bare(&name);
        if self.peek() == Some(b'(') {
            self.eat(b'(')?;
            loop {
                let key = self.ident()?;
                self.eat(b'=')?;
                let value = self.integer()?;
                expr.params.push((key, value));
                match self.peek() {
                    Some(b',') => self.eat(b',')?,
                    Some(b')') => {
                        self.eat(b')')?;
                        break;
                    }
                    _ => {
                        return Err(CoreError::Parse(format!(
                            "expected , or ) at byte {}",
                            self.pos
                        )))
                    }
                }
            }
        }
        if self.peek() == Some(b'[') {
            self.eat(b'[')?;
            loop {
                let role = self.ident()?;
                self.eat(b'=')?;
                let sub = self.expr()?;
                expr.subs.push((role, sub));
                match self.peek() {
                    Some(b',') => self.eat(b',')?,
                    Some(b']') => {
                        self.eat(b']')?;
                        break;
                    }
                    _ => {
                        return Err(CoreError::Parse(format!(
                            "expected , or ] at byte {}",
                            self.pos
                        )))
                    }
                }
            }
        }
        Ok(expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnData;

    #[test]
    fn parses_bare_names() {
        let e = parse_expr("rle").unwrap();
        assert_eq!(e, SchemeExpr::bare("rle"));
        assert_eq!(e.to_string(), "rle");
    }

    #[test]
    fn parses_params_and_subs() {
        let text = "for(l=128)[offsets=ns]";
        let e = parse_expr(text).unwrap();
        assert_eq!(e.name, "for");
        assert_eq!(e.params, vec![("l".to_string(), 128)]);
        assert_eq!(e.subs.len(), 1);
        assert_eq!(e.to_string(), text);
    }

    #[test]
    fn parses_nested_composition() {
        let text = "rle[values=delta[deltas=ns_zz],lengths=ns]";
        let e = parse_expr(text).unwrap();
        assert_eq!(e.to_string(), text);
        let scheme = e.build().unwrap();
        assert_eq!(scheme.name(), text);
    }

    #[test]
    fn whitespace_insensitive() {
        let e = parse_expr(" pfor ( l = 64 , keep = 950 ) ").unwrap();
        assert_eq!(e.to_string(), "pfor(l=64,keep=950)");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_expr("").is_err());
        assert!(parse_expr("rle[").is_err());
        assert!(parse_expr("rle]x").is_err());
        assert!(parse_expr("for(l=)").is_err());
        assert!(parse_expr("rle extra").is_err());
        assert!(parse_expr("for(l=128)[offsets=ns] trailing").is_err());
    }

    #[test]
    fn build_rejects_unknowns_and_bad_params() {
        assert!(parse_scheme("snappy").is_err());
        assert!(parse_scheme("for").is_err()); // missing l
        assert!(parse_scheme("for(l=0)").is_err());
        assert!(parse_scheme("pfor(l=8,keep=2000)").is_err());
        assert!(parse_scheme("vstep").is_err()); // missing w
        assert!(parse_scheme("vstep(w=0)").is_err());
        assert!(parse_scheme("vstep(w=65)").is_err());
        assert!(parse_scheme("dfor").is_err()); // missing l
    }

    #[test]
    fn const_builds_and_rejects_varying_data() {
        let scheme = parse_scheme("const").unwrap();
        let col = ColumnData::U32(vec![9; 64]);
        let c = scheme.compress(&col).unwrap();
        assert_eq!(scheme.decompress(&c).unwrap(), col);
        assert!(scheme.compress(&ColumnData::U32(vec![1, 2])).is_err());
    }

    #[test]
    fn built_schemes_round_trip() {
        let col = ColumnData::U64((0..1000u64).map(|i| 100 + i / 50).collect());
        for text in [
            "id",
            "ns",
            "delta[deltas=ns_zz]",
            "rle[values=ns,lengths=ns]",
            "rpe[values=ns,positions=delta[deltas=ns_zz]]",
            "dict[codes=ns]",
            "for(l=128)[offsets=ns]",
            "pfor(l=128,keep=990)",
            "pstep(l=128)",
            "varwidth",
            "linear(l=128)[residuals=ns]",
            "poly2(l=128)[residuals=ns]",
            "for(l=128,first=1)[offsets=ns_zz]",
            "sparse",
            "dfor(l=128)[deltas=ns_zz]",
            "vstep(w=8)[offsets=ns]",
            "vstep(w=6)[offsets=ns,refs=delta[deltas=ns_zz]]",
        ] {
            let scheme = parse_scheme(text).unwrap();
            let c = scheme
                .compress(&col)
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(scheme.decompress(&c).unwrap(), col, "{text}");
        }
    }

    #[test]
    fn paper_identity_right_hand_side() {
        // The §II-A identity's right side is itself expressible:
        // (ID for values, DELTA for run_positions) ∘ RPE.
        let scheme = parse_scheme("rpe[values=id,positions=delta]").unwrap();
        let col = ColumnData::U32(vec![5, 5, 5, 8, 8, 1]);
        let c = scheme.compress(&col).unwrap();
        assert_eq!(scheme.decompress(&c).unwrap(), col);
        // Its positions part, delta-compressed, is exactly RLE's lengths.
        // (Verified structurally in rewrite::tests; here just shape.)
        assert_eq!(c.parts.len(), 2);
    }
}
