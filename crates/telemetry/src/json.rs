//! A minimal, dependency-free JSON parser used to *validate* the
//! recorder's own output (JSONL journal lines, Chrome trace files) in
//! tests.
//!
//! The workspace's vendored `serde` is compile-only, so validation is
//! first-party: a straightforward recursive-descent parser over the JSON
//! grammar (RFC 8259). It is not a general-purpose deserializer — numbers
//! come back as `f64`, objects preserve insertion order in a `Vec` — but
//! it fully checks syntax, which is what a "does this load in a JSON
//! consumer" check needs.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as insertion-ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, why: &str) -> String {
        format!("{why} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => return Ok(out),
                b'\\' => match self.bump().ok_or_else(|| self.err("unterminated escape"))? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .ok_or_else(|| self.err("truncated \\u escape"))?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| self.err("bad \\u escape"))?;
                        self.pos += 4;
                        // Surrogate pairs are accepted but folded to the
                        // replacement character — journal lines never emit
                        // them, this parser just must not reject them.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => return Err(self.err("bad escape")),
                },
                b if b < 0x20 => return Err(self.err("raw control character in string")),
                b if b < 0x80 => out.push(b as char),
                b => {
                    // Re-decode the multi-byte UTF-8 sequence.
                    let start = self.pos - 1;
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("bad UTF-8 lead byte")),
                    };
                    let seq = self
                        .bytes
                        .get(start..start + width)
                        .ok_or_else(|| self.err("truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(seq).map_err(|_| self.err("bad UTF-8 sequence"))?;
                    out.push_str(s);
                    self.pos = start + width;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_digit = false;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            saw_digit = true;
            self.pos += 1;
        }
        if !saw_digit {
            return Err(self.err("expected digit"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected fraction digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected exponent digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("unparseable number"))
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > 128 {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => {}
                        Some(b']') => return Ok(Value::Arr(items)),
                        _ => {
                            self.pos = self.pos.saturating_sub(1);
                            return Err(self.err("expected ',' or ']'"));
                        }
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value(depth + 1)?;
                    pairs.push((key, val));
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => {}
                        Some(b'}') => return Ok(Value::Obj(pairs)),
                        _ => {
                            self.pos = self.pos.saturating_sub(1);
                            return Err(self.err("expected ',' or '}'"));
                        }
                    }
                }
            }
            _ => self.number(),
        }
    }
}

/// Parses a complete JSON document, rejecting trailing content.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after JSON value"));
    }
    Ok(v)
}

/// Validates that `text` is one well-formed JSON document.
pub fn validate(text: &str) -> Result<(), String> {
    parse(text).map(|_| ())
}

/// Validates one journal JSONL line against the record schema: a JSON
/// object with numeric `seq` and `micros`, string `thread` and `event`.
/// Returns the parsed object for further event-specific checks.
pub fn validate_record_line(line: &str) -> Result<Value, String> {
    let v = parse(line)?;
    if !matches!(v, Value::Obj(_)) {
        return Err("journal line is not a JSON object".into());
    }
    for key in ["seq", "micros"] {
        if v.get(key).and_then(Value::as_num).is_none() {
            return Err(format!("journal line missing numeric \"{key}\""));
        }
    }
    for key in ["thread", "event"] {
        if v.get(key).and_then(Value::as_str).is_none() {
            return Err(format!("journal line missing string \"{key}\""));
        }
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_grammar() {
        let v =
            parse(r#"{"a": [1, -2.5, 1e3, true, false, null], "b": {"nested": "x\nyA"}, "c": ""}"#)
                .expect("parse");
        assert_eq!(v.get("a").and_then(Value::as_arr).map(|a| a.len()), Some(6));
        assert_eq!(
            v.get("b")
                .and_then(|b| b.get("nested"))
                .and_then(Value::as_str),
            Some("x\nyA")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "nul",
            "1 2",
            "\"unterminated",
            "{\"a\":1}x",
            "[01x]",
        ] {
            assert!(validate(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn record_line_schema_is_enforced() {
        validate_record_line(
            r#"{"seq":1,"micros":2,"thread":"main","event":"budget_spent","spent":1,"total":4}"#,
        )
        .expect("valid line");
        assert!(validate_record_line(r#"{"seq":1,"micros":2,"thread":"main"}"#).is_err());
        assert!(
            validate_record_line(r#"{"seq":"x","micros":2,"thread":"t","event":"e"}"#).is_err()
        );
        assert!(validate_record_line("[1,2]").is_err());
    }
}
