//! JSON escaping and reading for the trace formats.
//!
//! The crate is zero-dependency, so it carries its own escaping and a
//! small recursive-descent parser into [`Value`], the one JSON value the
//! crate has (its writer is [`Value::to_json`]): objects whose values
//! are strings, integers, booleans, null, or nested objects/arrays of
//! the same. Floats are parsed to their integer truncation (the sink
//! never writes them), and a number is typed by its value: `U64` unless
//! it is negative. Nesting deeper than [`MAX_DEPTH`] is an error, so a
//! malformed trace file cannot overflow the stack.

use std::fmt::Write as _;

use crate::event::Value;

/// Escapes a string into a quoted JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The deepest object/array nesting the parser accepts. A Chrome trace
/// nests four levels; anything past this is not a trace file.
pub(crate) const MAX_DEPTH: usize = 64;

/// Parses one JSON object from a string (whole-input).
pub fn parse_json_object(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        input,
        at: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != input.len() {
        return Err(format!("trailing input at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    /// Byte offset of the next unread character (always a char boundary).
    at: usize,
    /// Objects and arrays currently open.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.at).copied()
    }

    /// Parses a nested object or array, refusing to open one more level
    /// than [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.at
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found `{}`",
                b as char,
                self.at,
                self.peek().map(|c| c as char).unwrap_or('∅')
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::U64(0)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected `{}` at byte {}",
                other.map(|c| c as char).unwrap_or('∅'),
                self.at
            )),
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, String> {
        if self.input[self.at..].starts_with(text) {
            self.at += text.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .input
                                .get(self.at + 1..self.at + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.at += 4;
                        }
                        other => {
                            return Err(format!(
                                "bad escape `\\{}`",
                                other.map(|c| c as char).unwrap_or('∅')
                            ))
                        }
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next quote
                    // or escape in one step: `at` stays on a char boundary,
                    // and each byte is scanned once.
                    let rest = &self.input[self.at..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.at += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.at += 1;
        }
        // Typed by value, not spelling: only a negative value is `I64`, so
        // `-0`, `4e2` and `-0.5` read (and write back) as `U64` like `0`.
        let text = &self.input[start..self.at];
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Value::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(u64::try_from(v).map_or(Value::I64(v), Value::U64));
        }
        let f: f64 = text.parse().map_err(|_| format!("bad number `{text}`"))?;
        Ok(match f as i64 {
            v if v < 0 => Value::I64(v),
            _ => Value::U64(f as u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn parse_nested_object() {
        let v = parse_json_object(
            "{\"a\":1,\"b\":-2,\"c\":true,\"d\":\"x\\ny\",\"e\":{\"f\":99},\"g\":null}",
        )
        .unwrap();
        let Value::Object(o) = v else { panic!() };
        assert_eq!(o[0], ("a".to_string(), Value::U64(1)));
        assert_eq!(o[1], ("b".to_string(), Value::I64(-2)));
        assert_eq!(o[2], ("c".to_string(), Value::Bool(true)));
        assert_eq!(o[3], ("d".to_string(), Value::Str("x\ny".to_string())));
        assert!(matches!(o[4].1, Value::Object(_)));
    }

    #[test]
    fn numbers_are_typed_by_value() {
        let v = parse_json_object("[4e2,-0,-0.5,0.5,-4e2,-1.5,-7,18446744073709551615]").unwrap();
        let expected = [
            Value::U64(400),
            Value::U64(0),
            Value::U64(0),
            Value::U64(0),
            Value::I64(-400),
            Value::I64(-1),
            Value::I64(-7),
            Value::U64(u64::MAX),
        ];
        assert_eq!(v.as_array().unwrap(), expected);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_json_object("{\"a\":}").is_err());
        assert!(parse_json_object("{\"a\":1} trailing").is_err());
        assert!(parse_json_object("").is_err());
    }

    #[test]
    fn parse_arrays() {
        let v = parse_json_object("{\"a\":[1,\"x\",[2],{\"b\":3}],\"e\":[]}").unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_str(), Some("x"));
        assert_eq!(a[2].as_array().unwrap()[0].as_u64(), Some(2));
        assert_eq!(a[3].get("b").unwrap().as_u64(), Some(3));
        assert!(v.get("e").unwrap().as_array().unwrap().is_empty());
        assert!(parse_json_object("[1,2]").is_ok());
        assert!(parse_json_object("[1,").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let arrays = "[".repeat(1_000_000);
        let err = parse_json_object(&arrays).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        let objects = "{\"a\":".repeat(1_000_000);
        assert!(parse_json_object(&objects).is_err());
        // The limit itself still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json_object(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse_json_object(&over).is_err());
    }

    #[test]
    fn megabyte_string_round_trips() {
        let s: String = "naïve \"ksplice\" \\ — ".repeat(50_000);
        assert!(s.len() > 1_000_000);
        let v = parse_json_object(&format!("{{\"k\":{}}}", escape(&s))).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some(s.as_str()));
    }

    #[test]
    fn escape_parse_roundtrip_unicode() {
        let s = "naïve — \"quoted\" \t done";
        let v = parse_json_object(&format!("{{\"k\":{}}}", escape(s))).unwrap();
        let Value::Object(o) = v else { panic!() };
        assert_eq!(o[0].1, Value::Str(s.to_string()));
    }
}
