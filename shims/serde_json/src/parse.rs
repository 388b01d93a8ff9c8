//! Recursive-descent JSON parser producing `serde::Value`.

use serde::{Error, Map, Number, Value};

/// Parses one complete JSON document.
pub fn parse(input: &str) -> Result<Value, Error> {
    Parser { bytes: input.as_bytes(), pos: 0, build: true }.document()
}

/// Checks that `input` is one complete JSON document — exactly what
/// [`parse`] accepts — without building it: nothing is allocated.
pub fn check(input: &str) -> Result<(), Error> {
    Parser { bytes: input.as_bytes(), pos: 0, build: false }.document().map(drop)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Whether strings, arrays and objects keep what they read; when not,
    /// they come out empty, and the parse only checks the syntax.
    build: bool,
}

impl Parser<'_> {
    fn document(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let value = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(value)
    }

    fn err(&self, msg: &str) -> Error {
        Error::custom(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            let item = self.value()?;
            if self.build {
                items.push(item);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        // Collected, then turned into a map in one step: the map comes out
        // with exactly the capacity its entries need.
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(Map::new()));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if self.build {
                entries.push((key, value));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries.into_iter().collect()));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'u') => {
                            self.pos += 1;
                            self.unicode_escape()?
                        }
                        escaped => {
                            let c = match escaped {
                                Some(b'"') => '"',
                                Some(b'\\') => '\\',
                                Some(b'/') => '/',
                                Some(b'b') => '\u{08}',
                                Some(b'f') => '\u{0C}',
                                Some(b'n') => '\n',
                                Some(b'r') => '\r',
                                Some(b't') => '\t',
                                _ => return Err(self.err("invalid escape")),
                            };
                            self.pos += 1;
                            c
                        }
                    };
                    if self.build {
                        out.push(c);
                    }
                }
                Some(_) => {
                    // Consume the run up to the next quote or escape at once:
                    // both are ASCII, so the run ends on a character boundary
                    // of the input, which is a valid `&str`.
                    let rest = &self.bytes[self.pos..];
                    let len =
                        rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    if self.build {
                        let run = std::str::from_utf8(&rest[..len])
                            .map_err(|_| self.err("invalid utf-8"))?;
                        out.push_str(run);
                    }
                    self.pos += len;
                }
            }
        }
    }

    /// Reads the character of a `\u` escape (the cursor sits on its first
    /// hex digit), combining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let cp = self.hex4()?;
        if !(0xD800..0xDC00).contains(&cp) {
            return char::from_u32(cp).ok_or_else(|| self.err("invalid unicode escape"));
        }
        if !(self.eat_keyword("\\u")) {
            return Err(self.err("lone leading surrogate"));
        }
        let low = self.hex4()?;
        if !(0xDC00..0xE000).contains(&low) {
            return Err(self.err("invalid low surrogate"));
        }
        let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        char::from_u32(combined).ok_or_else(|| self.err("invalid surrogate pair"))
    }

    /// Reads four hex digits (the cursor sits on the first digit).
    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let cp = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::from(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::from(i)));
            }
        }
        let f: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        Ok(Value::Number(Number::from(f)))
    }
}
