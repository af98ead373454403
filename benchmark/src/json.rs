//! Just enough JSON to write results: string escaping and numbers with
//! all their digits.

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number: the shortest text that reads back as exactly
/// `v`, never rounded for display. Callers check finiteness first.
pub fn number(v: f64) -> String {
    debug_assert!(v.is_finite(), "JSON has no {v}");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_digits() {
        assert_eq!(string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(0.1 + 0.2).parse::<f64>().unwrap(), 0.1 + 0.2);
    }
}
