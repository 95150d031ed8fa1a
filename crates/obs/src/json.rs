//! A deterministic writer (and minimal reader) for the flat metrics
//! JSON format.
//!
//! Metrics serialize as a single object whose keys are dotted metric
//! names and whose values are numbers — nothing nested, so the file
//! diffs line-by-line and any JSON tool (or `python3 -c "import
//! json,sys; json.load(sys.stdin)"` in ci.sh) can consume it:
//!
//! ```json
//! {
//!   "grid.coord.lease.expired": 1,
//!   "span.fig11.sum": 153000000
//! }
//! ```
//!
//! The reader exists solely so a second tool can *merge* its metrics
//! into a file the first one wrote (`ppa-verify check
//! --metrics-json-merge m.json` after `repro --metrics-json m.json`);
//! it accepts exactly the flat subset the writer emits, rejecting
//! anything nested with a typed error rather than guessing.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON number, kept as written: integers render without a decimal
/// point so counters stay greppable, floats via Rust's shortest
/// round-trip formatting (deterministic for equal values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer (counters, summary counts).
    Int(u64),
    /// A finite float (gauges, sums, means).
    Float(f64),
}

impl Number {
    /// The value as `f64` regardless of representation.
    pub fn as_f64(&self) -> f64 {
        match self {
            Number::Int(v) => *v as f64,
            Number::Float(v) => *v,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::Int(v) => write!(f, "{v}"),
            // `{}` on f64 is shortest-round-trip and always includes
            // enough digits to reparse exactly; integral floats print
            // as "8", which is still a valid JSON number.
            Number::Float(v) => write!(f, "{v}"),
        }
    }
}

/// Escapes a string for use inside JSON quotes (metric names are
/// plain dotted identifiers today, but the writer must never emit
/// invalid JSON no matter what a caller names a metric).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Renders sorted `(key, number)` pairs as one flat JSON object, one
/// member per line, trailing newline included.
pub fn render_flat(pairs: &[(String, Number)]) -> String {
    if pairs.is_empty() {
        return "{}\n".to_string();
    }
    let mut out = String::from("{\n");
    for (i, (key, num)) in pairs.iter().enumerate() {
        let comma = if i + 1 == pairs.len() { "" } else { "," };
        out.push_str(&format!("  \"{}\": {num}{comma}\n", escape(key)));
    }
    out.push_str("}\n");
    out
}

/// A parse failure, with enough context to point at the offending
/// byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flat-JSON parse error at byte {}: {}",
            self.at, self.what
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, what: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            at: self.pos,
            what: what.into(),
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex =
                                self.bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or(ParseError {
                                        at: self.pos,
                                        what: "truncated \\u escape".into(),
                                    })?;
                            let hex = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => out.push(c),
                                None => return self.err("bad \\u escape"),
                            }
                            self.pos += 4;
                        }
                        _ => return self.err("unsupported escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, not one byte.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| ParseError {
                            at: self.pos,
                            what: "invalid UTF-8".into(),
                        })?;
                    let c = rest.chars().next().expect("non-empty by match arm");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Number, ParseError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII slice");
        if text.is_empty() || text == "-" {
            return self.err("expected a number");
        }
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Number::Int(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Number::Float(v)),
            _ => self.err(format!("bad number {text:?}")),
        }
    }
}

/// Parses a flat `{"name": number, ...}` object as written by
/// [`render_flat`]. Nested values, arrays, strings, booleans, and
/// nulls are rejected: this reader merges metric files, it is not a
/// general JSON parser.
pub fn parse_flat(text: &str) -> Result<BTreeMap<String, Number>, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let mut out = BTreeMap::new();
    p.skip_ws();
    p.expect(b'{')?;
    p.skip_ws();
    if p.bytes.get(p.pos) == Some(&b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let num = p.number()?;
            out.insert(key, num);
            p.skip_ws();
            match p.bytes.get(p.pos) {
                Some(b',') => p.pos += 1,
                Some(b'}') => {
                    p.pos += 1;
                    break;
                }
                _ => return p.err("expected ',' or '}'"),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing data after object");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let pairs = vec![
            ("a.count".to_string(), Number::Int(3)),
            ("a.mean".to_string(), Number::Float(1.25)),
            ("big".to_string(), Number::Int(u64::MAX)),
            ("tiny".to_string(), Number::Float(1e-9)),
        ];
        let text = render_flat(&pairs);
        let parsed = parse_flat(&text).expect("round trip parses");
        assert_eq!(parsed.len(), pairs.len());
        for (k, v) in &pairs {
            assert_eq!(parsed.get(k).unwrap().as_f64(), v.as_f64(), "key {k}");
        }
        assert_eq!(parsed.get("big"), Some(&Number::Int(u64::MAX)));
    }

    #[test]
    fn empty_object_round_trips() {
        assert_eq!(render_flat(&[]), "{}\n");
        assert!(parse_flat("{}\n").unwrap().is_empty());
        assert!(parse_flat("  { }  ").unwrap().is_empty());
    }

    #[test]
    fn escaping_keeps_output_parseable() {
        let pairs = vec![("we\"ird\\name\n".to_string(), Number::Int(1))];
        let text = render_flat(&pairs);
        let parsed = parse_flat(&text).expect("escaped key parses");
        assert_eq!(parsed.get("we\"ird\\name\n"), Some(&Number::Int(1)));
    }

    #[test]
    fn rejects_nested_and_malformed() {
        for bad in [
            "",
            "[1,2]",
            "{\"a\": {\"b\": 1}}",
            "{\"a\": \"str\"}",
            "{\"a\": true}",
            "{\"a\": 1,}",
            "{\"a\": 1} trailing",
            "{\"a\": NaN}",
        ] {
            assert!(parse_flat(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn negative_and_exponent_numbers_parse_as_floats() {
        let m = parse_flat("{\"a\": -3, \"b\": 2.5e3}").unwrap();
        assert_eq!(m.get("a").unwrap().as_f64(), -3.0);
        assert_eq!(m.get("b").unwrap().as_f64(), 2500.0);
    }
}
