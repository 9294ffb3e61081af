//! A small JSON value with a writer and a parser.
//!
//! The result line each run prints is written with [`Value::to_string`];
//! the set runner reads it back from its child processes with [`parse`].
//! Objects keep insertion order, so output is stable run to run.

use std::fmt;

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn object(fields: impl IntoIterator<Item = (impl Into<String>, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn fields(&self) -> &[(String, Value)] {
        match self {
            Value::Object(fields) => fields,
            _ => &[],
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Compact, single-line JSON.  Whole numbers print without a fraction;
/// other numbers print with every digit `f64` round-trips; a non-finite
/// number (which JSON cannot carry) prints as `null`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) if !n.is_finite() => f.write_str("null"),
            Value::Number(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => write!(f, "{}", *n as i64),
            Value::Number(n) => write!(f, "{n}"),
            Value::String(s) => write_string(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_string(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

impl Value {
    /// Multi-line JSON: the top-level object's fields one per line, and
    /// the elements of its arrays one per line — enough structure for a
    /// committed file to diff well.
    pub fn to_pretty(&self) -> String {
        let Value::Object(fields) = self else {
            return self.to_string();
        };
        let mut out = String::from("{\n");
        for (i, (key, value)) in fields.iter().enumerate() {
            let comma = if i + 1 < fields.len() { "," } else { "" };
            let key = Value::from(key.as_str());
            match value {
                Value::Array(items) if items.iter().any(|v| matches!(v, Value::Object(_))) => {
                    out.push_str(&format!("  {key}: [\n"));
                    for (j, item) in items.iter().enumerate() {
                        let comma = if j + 1 < items.len() { "," } else { "" };
                        out.push_str(&format!("    {item}{comma}\n"));
                    }
                    out.push_str(&format!("  ]{comma}\n"));
                }
                other => out.push_str(&format!("  {key}: {other}{comma}\n")),
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(value)
}

/// Nesting allowed before the parser refuses: input comes from another
/// process, and recursion depth must not be its to choose.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(_) => self.number(),
        }
    }

    fn nested(&mut self, inner: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nested deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        let value = inner(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            hex
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    };
                    self.pos += 1;
                    out.extend_from_slice(escaped.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(&byte) => {
                    out.push(byte);
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_parses_back_to_the_same_value() {
        let metric = |value: f64, unit: &str| {
            Value::object([("value", Value::from(value)), ("unit", Value::from(unit))])
        };
        let line = Value::object([
            ("correct", Value::from(true)),
            ("attempted", Value::from(123_456u64)),
            ("failed", Value::from(0u64)),
            (
                "metrics",
                Value::object([
                    ("txn_p50_us", metric(9.870_123_456_789, "us")),
                    ("setup_s", metric(0.000_051_234, "s")),
                    ("txn_s", metric(190_000.0, "1/s")),
                ]),
            ),
        ]);
        let text = line.to_string();
        assert!(!text.contains('\n'));
        assert!(text.starts_with("{\"correct\":true,\"attempted\":123456,\"failed\":0,"));
        let back = parse(&text).unwrap();
        assert_eq!(back, line);
        let p50 = back.get("metrics").unwrap().get("txn_p50_us").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(9.870_123_456_789));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("us"));
    }

    #[test]
    fn pretty_output_parses_back_too() {
        let v = Value::object([
            ("paths", Value::Array(vec![Value::from("benchmark")])),
            (
                "workloads",
                Value::Array(vec![
                    Value::object([("name", Value::from("a"))]),
                    Value::object([("name", Value::from("b"))]),
                ]),
            ),
            ("run_seconds", Value::from(5u64)),
        ]);
        let pretty = v.to_pretty();
        assert_eq!(pretty.lines().count(), 8);
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Value::Array(vec![
            Value::from("quote \" slash \\ tab \t newline \n bell \u{7} é"),
            Value::Null,
            Value::from(-0.5),
        ]);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        assert_eq!(
            parse(r#""\u0041\/""#).unwrap(),
            Value::String("A/".to_string())
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Value::from(f64::NAN).to_string(), "null");
        assert_eq!(Value::from(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "\"open",
            "nul",
            "1 2",
            "{\"a\" 1}",
            "\"\\u12\"",
            "--",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        let deep = "[".repeat(1_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn whitespace_and_nesting_are_accepted() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : null } ] , \"c\" : false } ").unwrap();
        assert_eq!(v.get("c").unwrap().as_bool(), Some(false));
        assert_eq!(v.fields().len(), 2);
        assert_eq!(
            v.get("a"),
            Some(&Value::Array(vec![
                Value::Number(1.0),
                Value::object([("b", Value::Null)])
            ]))
        );
    }
}
