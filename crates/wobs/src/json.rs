//! A minimal, std-only, panic-free JSON parser shared by every artifact
//! validator (see [`crate::artifact`] for the typed field access on top).
//!
//! The parser keeps insertion order for object keys (schema checks care
//! about canonical field order) and remembers whether each number's source
//! text was integral, so integer schema checks need no float comparisons.

/// Parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; `integral` is true when the source had no `.`/exponent
    /// and no minus sign.
    Num {
        /// Parsed value.
        value: f64,
        /// Whether the source text was a non-negative integer literal.
        integral: bool,
    },
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value of `key` when `self` is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => field(entries, key),
            _ => None,
        }
    }

    /// The value as a non-negative integer, when it parsed as one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num { value, integral }
                if integral && value >= 0.0 && value <= u64::MAX as f64 =>
            {
                Some(value as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Looks up `key` in an object's entry list.
pub fn field<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

const MAX_DEPTH: u32 = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses one JSON document (the whole input must be consumed).
///
/// # Errors
///
/// Returns a one-line message locating the problem. Input that ends in
/// the middle of a value is reported as *truncated* — distinct from
/// malformed syntax — so callers surface "half a file" (a crashed or
/// interrupted writer) clearly.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing data after the top-level value"));
    }
    Ok(v)
}

impl Parser<'_> {
    fn fail(&self, msg: &str) -> String {
        if self.pos >= self.bytes.len() {
            format!(
                "truncated JSON: input ends unexpectedly at byte {} ({msg})",
                self.pos
            )
        } else {
            format!("invalid JSON at byte {}: {msg}", self.pos)
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_word("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_word("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_word("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.fail("expected a value")),
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, String> {
        self.pos += 1; // consume '{'
        let mut entries = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.fail("expected an object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.fail("expected ':' after object key"));
            }
            let v = self.value(depth + 1)?;
            entries.push((key, v));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(Json::Obj(entries));
            }
            return Err(self.fail("expected ',' or '}' in object"));
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, String> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            return Err(self.fail("expected ',' or ']' in array"));
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // consume '"'
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{0008}'),
                        Some(b'f') => s.push('\u{000C}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Lenient on surrogates: the schema's strings
                            // are ASCII names, so anything exotic maps to
                            // the replacement character.
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            continue;
                        }
                        _ => return Err(self.fail("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.fail("raw control byte in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| b & 0b1100_0000 == 0b1000_0000) {
                        self.pos += 1;
                    }
                    if let Some(chunk) = self.bytes.get(start..self.pos) {
                        s.push_str(std::str::from_utf8(chunk).unwrap_or("\u{FFFD}"));
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.fail("bad \\u escape")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let mut integral = !negative;
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.fail("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            integral = false;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.fail("expected a digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            let _ = self.eat(b'+') || self.eat(b'-');
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.fail("expected a digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.fail("bad number slice"))?;
        let value: f64 = text.parse().map_err(|_| self.fail("unparseable number"))?;
        if !value.is_finite() {
            return Err(self.fail("number overflows f64 (NaN/Infinity are not valid JSON)"));
        }
        Ok(Json::Num { value, integral })
    }
}

/// Re-serialises a JSON document onto a single line with no interstitial
/// whitespace (string contents untouched). Used to embed the multi-line
/// `wimi-obs/1` snapshot as one JSONL record in trace artifacts.
pub fn compact(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else {
            match c {
                ' ' | '\t' | '\n' | '\r' => {}
                '"' => {
                    in_string = true;
                    out.push(c);
                }
                _ => out.push(c),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null"), Ok(Json::Null));
        assert_eq!(parse("true"), Ok(Json::Bool(true)));
        assert_eq!(
            parse("[1, \"a\"]"),
            Ok(Json::Arr(vec![
                Json::Num {
                    value: 1.0,
                    integral: true
                },
                Json::Str("a".into())
            ]))
        );
        let obj = parse("{\"k\": 2}").unwrap();
        assert_eq!(obj.get("k").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn truncated_input_is_reported_as_truncated() {
        for text in ["{", "{\"a\": ", "[1, 2", "\"unterminated", "{\"a\": 1"] {
            let err = parse(text).unwrap_err();
            assert!(
                err.starts_with("truncated JSON"),
                "{text:?} should report truncation, got: {err}"
            );
        }
    }

    #[test]
    fn malformed_but_complete_input_is_not_truncated() {
        for text in ["{} trailing", "[1,]2", "{\"a\" 1}"] {
            let err = parse(text).unwrap_err();
            assert!(
                !err.starts_with("truncated JSON"),
                "{text:?} is malformed, not truncated, got: {err}"
            );
        }
    }

    #[test]
    fn compact_strips_whitespace_outside_strings() {
        let text = "{\n  \"a b\": [1, 2],\n  \"s\": \"x \\\" y\"\n}\n";
        let c = compact(text);
        assert_eq!(c, "{\"a b\":[1,2],\"s\":\"x \\\" y\"}");
        // Compacted text still parses to the same value.
        assert_eq!(parse(text), Ok(parse(&c).unwrap()));
    }

    #[test]
    fn negative_and_float_numbers_are_not_integral() {
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("12").unwrap().as_u64(), Some(12));
    }
}
