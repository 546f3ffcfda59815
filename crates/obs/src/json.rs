//! The stack's one JSON writer.
//!
//! Every JSON document the stack emits — the metrics snapshot, the
//! `BENCH_*.json` reports, the daemon's stream frames, grants and error
//! bodies — is built here, so separators, escaping and number formats are
//! decided once. The layout is compact: no whitespace between tokens.
//! Non-finite floats (`NaN` sim-times, infinite bucket bounds) are written
//! as `null`, which every JSON parser accepts.

use std::fmt::{self, Write as _};

/// Builds one compact JSON document into a `String`.
///
/// Calls chain: `w.begin_object().key("hosts").usize(8).end_object()`.
/// The writer places every comma itself; callers only open and close
/// containers in order and put a [`Self::key`] before each member value.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// A value was written at this level: the next one takes a comma.
    comma: bool,
}

impl JsonWriter {
    /// An empty writer whose buffer holds `bytes` before it grows: size it
    /// from the document about to be written.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            out: String::with_capacity(bytes),
            comma: false,
        }
    }

    fn value(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        &mut self.out
    }

    /// Open an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.value().push('{');
        self.comma = false;
        self
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.out.push('}');
        self.comma = true;
        self
    }

    /// Open an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.value().push('[');
        self.comma = false;
        self
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.out.push(']');
        self.comma = true;
        self
    }

    /// An object member's key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key).out.push(':');
        self.comma = false;
        self
    }

    /// A string, or any `Display` value as one, escaped in place.
    pub fn str(&mut self, v: impl fmt::Display) -> &mut Self {
        let out = self.value();
        out.push('"');
        let _ = write!(Escaping(out), "{v}");
        out.push('"');
        self
    }

    /// An unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        let _ = write!(self.value(), "{v}");
        self
    }

    /// An unsigned integer from a `usize`.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.value().push_str(if v { "true" } else { "false" });
        self
    }

    /// A float in its shortest form that parses back to the same bits;
    /// `null` when not finite.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.float(v, None)
    }

    /// A float to exactly `decimals` places (`{v:.N}`); `null` when not
    /// finite.
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Self {
        self.float(v, Some(decimals))
    }

    fn float(&mut self, v: f64, decimals: Option<usize>) -> &mut Self {
        let out = self.value();
        let _ = match decimals {
            _ if !v.is_finite() => out.write_str("null"),
            None => write!(out, "{v:?}"),
            Some(d) => write!(out, "{v:.d$}"),
        };
        self
    }

    /// The document.
    pub fn finish(self) -> String {
        self.out
    }

    /// The document and a closing newline: the form of a written file or
    /// an HTTP body.
    pub fn finish_line(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

/// A `fmt::Write` sink that escapes what it is handed into a `String`.
struct Escaping<'a>(&'a mut String);

impl fmt::Write for Escaping<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// Append `s` to `out` escaped for a JSON string (without the quotes):
/// quotes, backslashes and every control character. Unescaped runs are
/// copied whole.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        let _ = match b {
            b'\n' => out.write_str("\\n"),
            b'\r' => out.write_str("\\r"),
            b'\t' => out.write_str("\\t"),
            b'"' | b'\\' => write!(out, "\\{}", b as char),
            _ => write!(out, "\\u{b:04x}"),
        };
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Escape a string for embedding in a JSON document (without the quotes):
/// quotes, backslashes and every control character, so any metric name or
/// event field round-trips through a strict parser.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_keep_their_digits_and_non_finite_ones_are_null() {
        let mut w = JsonWriter::default();
        w.begin_array();
        w.f64(0.1 + 0.2).f64(1e300).f64(-0.0).f64(f64::NAN);
        w.fixed(987.654_321, 3)
            .fixed(2.0, 1)
            .fixed(f64::NEG_INFINITY, 6);
        w.end_array();
        assert_eq!(
            w.finish_line(),
            "[0.30000000000000004,1e300,-0.0,null,987.654,2.0,null]\n"
        );
    }

    #[test]
    fn escapes_match_the_exported_function() {
        let s = "a\"b\\c\nd\re\tf\u{1}g\u{1f}é😀";
        assert_eq!(json_escape(s), "a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fé😀");
        let mut w = JsonWriter::default();
        w.str(format_args!("{s}"));
        assert_eq!(w.finish(), format!("\"{}\"", json_escape(s)));
    }
}
