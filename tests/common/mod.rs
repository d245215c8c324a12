//! Helpers shared by the root integration tests (`mod common;`).

/// Strict JSON well-formedness (RFC 8259 grammar, no value tree) — what
/// `json.load` checked in CI before the workflow lost its python. `Err`
/// is the byte offset the grammar stopped matching at.
pub fn check_json(text: &str) -> Result<(), usize> {
    struct Cursor<'a>(&'a [u8], usize);
    impl Cursor<'_> {
        /// The next byte; 0 (never legal outside a string, nor raw inside
        /// one) at the end of input.
        fn peek(&self) -> u8 {
            *self.0.get(self.1).unwrap_or(&0)
        }
        fn ws(&mut self) {
            while matches!(self.peek(), b' ' | b'\n' | b'\r' | b'\t') {
                self.1 += 1;
            }
        }
        fn eat(&mut self, lit: &[u8]) -> bool {
            let ok = self.0[self.1..].starts_with(lit);
            self.1 += if ok { lit.len() } else { 0 };
            ok
        }
        fn digits(&mut self) -> bool {
            let start = self.1;
            while self.peek().is_ascii_digit() {
                self.1 += 1;
            }
            self.1 > start
        }
        fn string(&mut self) -> bool {
            if !self.eat(b"\"") {
                return false;
            }
            loop {
                self.1 += 1;
                match self.0.get(self.1 - 1) {
                    Some(b'"') => return true,
                    Some(b'\\') => {
                        let hex = self.0.get(self.1 + 1..self.1 + 5);
                        match self.peek() {
                            b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => self.1 += 1,
                            b'u' if hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) => {
                                self.1 += 5
                            }
                            _ => return false,
                        }
                    }
                    Some(0x20..) => {}
                    _ => return false, // raw control byte, or input ended
                }
            }
        }
        fn value(&mut self) -> bool {
            self.ws();
            match self.peek() {
                open @ (b'{' | b'[') => {
                    let close: &[u8] = if open == b'{' { b"}" } else { b"]" };
                    self.1 += 1;
                    self.ws();
                    if self.eat(close) {
                        return true;
                    }
                    loop {
                        if open == b'{' {
                            self.ws();
                            if !self.string() {
                                return false;
                            }
                            self.ws();
                            if !self.eat(b":") {
                                return false;
                            }
                        }
                        if !self.value() {
                            return false;
                        }
                        self.ws();
                        if !self.eat(b",") {
                            return self.eat(close);
                        }
                    }
                }
                b'"' => self.string(),
                b't' => self.eat(b"true"),
                b'f' => self.eat(b"false"),
                b'n' => self.eat(b"null"),
                _ => {
                    self.eat(b"-");
                    let mut ok = self.digits();
                    if self.eat(b".") {
                        ok &= self.digits();
                    }
                    if self.eat(b"e") || self.eat(b"E") {
                        let _sign = self.eat(b"+") || self.eat(b"-");
                        ok &= self.digits();
                    }
                    ok
                }
            }
        }
    }
    let mut c = Cursor(text.as_bytes(), 0);
    let ok = c.value();
    c.ws();
    if ok && c.1 == text.len() {
        Ok(())
    } else {
        Err(c.1)
    }
}
