//! A small JSON reader/writer for the admission API.
//!
//! The workspace's `serde` dependency is an offline shim (derive markers
//! only), so the daemon frames its own JSON: a recursive-descent parser for
//! request bodies and an escaper for response strings. Full value grammar,
//! UTF-8 input, `\uXXXX` escapes limited to the BMP — everything the wire
//! protocol and its tests need.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
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

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ASCII \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("surrogate \\u{hex} unsupported"))?,
                            );
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(b) if b < 0x20 => return Err("unescaped control character".into()),
                Some(_) => {
                    // Consume one unescaped run, up to the next quote,
                    // backslash or control byte, and validate it as UTF-8
                    // once. Those delimiters are ASCII, so they never fall
                    // inside a multi-byte scalar: a run that ends mid-scalar
                    // is malformed and fails the validation.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "string is not UTF-8".to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {text:?}"))
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > 32 {
            return Err("nesting too deep".into());
        }
        self.skip_ws();
        match self.peek() {
            None => Err("empty input".into()),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
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
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected , or ] at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value(depth + 1)?;
                    members.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(members));
                        }
                        _ => return Err(format!("expected , or }} at byte {}", self.pos)),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected byte {:?} at {}", b as char, self.pos)),
        }
    }
}

/// Parse one JSON document; trailing garbage is an error.
pub fn parse(input: &[u8]) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input,
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing bytes after value at {}", p.pos));
    }
    Ok(v)
}

/// Escape a string for embedding in JSON output (without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_submit_body_shape() {
        let v = parse(br#"{"app": "compute", "nodes": 8, "policy": "MixedAdaptive"}"#).unwrap();
        assert_eq!(v.get("app").and_then(Value::as_str), Some("compute"));
        assert_eq!(v.get("nodes").and_then(Value::as_f64), Some(8.0));
        assert_eq!(
            v.get("policy").and_then(Value::as_str),
            Some("MixedAdaptive")
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_nested_values_and_escapes() {
        let v = parse(br#"{"a":[1,-2.5e1,true,null],"s":"x\"\\\nA"}"#).unwrap();
        let Value::Arr(items) = v.get("a").unwrap() else {
            panic!("expected array");
        };
        assert_eq!(items[0], Value::Num(1.0));
        assert_eq!(items[1], Value::Num(-25.0));
        assert_eq!(items[2], Value::Bool(true));
        assert_eq!(items[3], Value::Null);
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x\"\\\nA"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            &b"{"[..],
            b"{\"a\":}",
            b"[1,]",
            b"{\"a\":1} trailing",
            b"nul",
            b"\"unterminated",
            b"{\"a\" 1}",
            b"",
            b"{\"a\":\x01\"x\"}",
        ] {
            assert!(parse(bad).is_err(), "{:?} should fail", bad);
        }
    }

    #[test]
    fn multi_byte_scalars_and_escapes_interleave() {
        // 2-, 3- and 4-byte scalars with every escape form between them.
        let text = "é\"€\\😀\né/€\t😀\u{8}é\u{c}\r";
        let doc = r#"{"s":"é\"€\\😀\né\/€\t😀\bé\f\r","k€":"\u00e9\u20ac"}"#;
        let v = parse(doc.as_bytes()).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some(text));
        assert_eq!(v.get("k€").and_then(Value::as_str), Some("é€"));
    }

    #[test]
    fn malformed_utf8_is_rejected_at_any_offset() {
        let good = "ab€é😀cd".as_bytes();
        for cut in 0..good.len() {
            for bad in [&b"\xFF"[..], b"\xE2\x82", b"\xC3", b"\xF0\x9F\x98", b"\x80"] {
                let mut doc = b"{\"s\":\"".to_vec();
                doc.extend_from_slice(&good[..cut]);
                doc.extend_from_slice(bad);
                // Splicing at a scalar boundary leaves a malformed sequence;
                // splicing inside a scalar leaves a truncated one.
                doc.extend_from_slice(b"\\n");
                doc.extend_from_slice(&good[cut..]);
                doc.extend_from_slice(b"\"}");
                assert_eq!(
                    parse(&doc),
                    Err("string is not UTF-8".to_string()),
                    "{bad:?} spliced at {cut}"
                );
            }
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A megabyte of string-heavy JSON: per-character re-validation of
        // the remaining input made this quadratic (minutes in a debug
        // build); one validation per unescaped run makes it milliseconds.
        let member = |i: usize| {
            format!(
                "\"key{i}\":\"value {i} é€😀 \\\"quoted\\\" \\n{}\"",
                "x".repeat(40)
            )
        };
        let mut doc = String::from("{");
        let mut i = 0;
        while doc.len() < 1 << 20 {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&member(i));
            i += 1;
        }
        doc.push('}');
        let started = std::time::Instant::now();
        let v = parse(doc.as_bytes()).unwrap();
        let took = started.elapsed();
        let Value::Obj(members) = &v else {
            panic!("expected an object");
        };
        assert_eq!(members.len(), i);
        let last = format!("value {} é€😀 \"quoted\" \n{}", i - 1, "x".repeat(40));
        assert_eq!(members[i - 1].1.as_str(), Some(last.as_str()));
        assert!(took.as_secs_f64() < 2.0, "1 MB took {took:?}");

        // One 1 MB string of multi-byte scalars with an escape every few.
        let unit = "é€😀\\t";
        let body = unit.repeat((1 << 20) / unit.len());
        let started = std::time::Instant::now();
        let v = parse(format!("\"{body}\"").as_bytes()).unwrap();
        let took = started.elapsed();
        assert_eq!(
            v.as_str().map(str::len),
            Some(body.len() - body.len() / unit.len())
        );
        assert!(took.as_secs_f64() < 2.0, "1 MB string took {took:?}");
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(parse(deep.as_bytes()).is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "line\none \"two\"\t\\three\u{8}";
        let doc = format!("{{\"s\":\"{}\"}}", escape(original));
        let v = parse(doc.as_bytes()).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some(original));
    }
}
