//! The real Rust lexer under the analyzer (DESIGN.md §15).
//!
//! [`lex`] turns one source file into a token stream with byte- and
//! span-accurate positions, plus the comment list the pragma parser
//! consumes. It handles the full literal surface a static audit needs:
//! nested block comments, string/byte-string literals, raw strings at
//! any `#` depth, char literals vs. lifetimes (`'a'` vs `'a`), numeric
//! literals with type suffixes, and float-vs-range disambiguation
//! (`1.5` vs `1..2`). Everything fancier than that — actual syntax —
//! is the parser's job ([`crate::model`]).
//!
//! String tokens carry their *cooked* value (escapes resolved for the
//! common cases), because rule families D11/D12 reason about metric
//! names and `CA_*` env-var names, which live in string literals.

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `match`, `self`, names).
    Ident,
    /// A lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// String / raw-string / byte-string literal; `text` is cooked.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Numeric literal (int or float, any base, with suffix).
    Num,
    /// One punctuation byte (`.`, `{`, `=`, …). Multi-byte operators
    /// are adjacent single-byte tokens; compare [`Tok::pos`] to join.
    Punct,
}

/// One lexed token with its source span.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Identifier text, cooked string value, or the punctuation byte.
    pub text: String,
    /// Byte offset of the token start in the file.
    pub pos: usize,
    /// Raw byte length in the source (before cooking).
    pub raw_len: usize,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (bytes from line start).
    pub col: usize,
}

impl Tok {
    /// Whether this token is the punctuation byte `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }

    /// Whether this token is the identifier/keyword `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// One comment, with the span of its first byte.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Full comment text including the `//` / `/*` marker.
    pub text: String,
    /// 1-based line of the comment start.
    pub line: usize,
    /// 1-based column of the comment start.
    pub col: usize,
}

/// A lexed file: tokens plus the non-code text the rules still need.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// Line and block comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `content`. Total: any byte sequence produces a token stream;
/// unterminated literals simply extend to end-of-file.
pub fn lex(content: &str) -> Lexed {
    Lexer {
        b: content.as_bytes(),
        s: content,
        i: 0,
        line: 1,
        line_start: 0,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    s: &'a str,
    i: usize,
    line: usize,
    line_start: usize,
    out: Lexed,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Lexed {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.i += 1;
                    self.line += 1;
                    self.line_start = self.i;
                }
                c if c.is_ascii_whitespace() => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(self.i),
                b'b' if self.peek(1) == Some(b'"') => self.string(self.i + 1),
                b'r' | b'b' if self.raw_string_len().is_some() => {
                    let len = self.raw_string_len().unwrap_or(1);
                    self.raw_string(len);
                }
                b'\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => self.number(),
                c if c.is_ascii_alphabetic() || c == b'_' => self.ident(),
                _ => {
                    self.push(TokKind::Punct, self.i, self.i + 1, (c as char).to_string());
                    self.i += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    fn span(&self, pos: usize) -> (usize, usize) {
        (self.line, pos - self.line_start + 1)
    }

    fn push(&mut self, kind: TokKind, from: usize, to: usize, text: String) {
        let (line, col) = self.span(from);
        self.out.toks.push(Tok {
            kind,
            text,
            pos: from,
            raw_len: to - from,
            line,
            col,
        });
    }

    /// Advances past `[from..to)`, keeping the line counter honest.
    fn advance_to(&mut self, to: usize) {
        while self.i < to && self.i < self.b.len() {
            if self.b[self.i] == b'\n' {
                self.line += 1;
                self.line_start = self.i + 1;
            }
            self.i += 1;
        }
    }

    fn line_comment(&mut self) {
        let from = self.i;
        let end = self.b[from..]
            .iter()
            .position(|&c| c == b'\n')
            .map_or(self.b.len(), |p| from + p);
        let (line, col) = self.span(from);
        self.out.comments.push(Comment {
            text: self.s[from..end].to_string(),
            line,
            col,
        });
        self.i = end;
    }

    fn block_comment(&mut self) {
        let from = self.i;
        let mut depth = 1usize;
        let mut j = from + 2;
        while j < self.b.len() && depth > 0 {
            if self.b[j] == b'/' && self.b.get(j + 1) == Some(&b'*') {
                depth += 1;
                j += 2;
            } else if self.b[j] == b'*' && self.b.get(j + 1) == Some(&b'/') {
                depth -= 1;
                j += 2;
            } else {
                j += 1;
            }
        }
        let (line, col) = self.span(from);
        self.out.comments.push(Comment {
            text: self.s[from..j].to_string(),
            line,
            col,
        });
        self.advance_to(j);
    }

    /// Plain (byte) string starting with the quote at `open`.
    fn string(&mut self, open: usize) {
        let from = self.i;
        let mut j = open + 1;
        let mut cooked = String::new();
        while j < self.b.len() {
            match self.b[j] {
                b'\\' => {
                    let (c, next) = cook_escape(self.b, j);
                    cooked.push(c);
                    j = next;
                }
                b'"' => {
                    j += 1;
                    break;
                }
                c => {
                    cooked.push(c as char);
                    j += 1;
                }
            }
        }
        self.push(TokKind::Str, from, j, cooked);
        self.advance_to(j);
    }

    /// Length of a raw-string token starting at `self.i`, if any.
    fn raw_string_len(&self) -> Option<usize> {
        let b = self.b;
        let mut j = self.i;
        if b.get(j) == Some(&b'b') {
            j += 1;
        }
        if b.get(j) != Some(&b'r') {
            return None;
        }
        j += 1;
        let mut hashes = 0;
        while b.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if b.get(j) != Some(&b'"') {
            return None;
        }
        j += 1;
        while j < b.len() {
            if b[j] == b'"' {
                let mut k = 0;
                while k < hashes && b.get(j + 1 + k) == Some(&b'#') {
                    k += 1;
                }
                if k == hashes {
                    return Some(j + 1 + hashes - self.i);
                }
            }
            j += 1;
        }
        Some(b.len() - self.i)
    }

    fn raw_string(&mut self, len: usize) {
        let from = self.i;
        let to = from + len;
        // Cooked value: the bytes between the quotes (raw strings have
        // no escapes). Re-derive the `#` depth from the prefix.
        let mut j = from;
        if self.b.get(j) == Some(&b'b') {
            j += 1;
        }
        j += 1; // the `r`
        let mut hashes = 0;
        while self.b.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        let open = j + 1; // past the opening quote
        let close = to.saturating_sub(1 + hashes).max(open);
        let inner = self.s.get(open..close).unwrap_or("");
        self.push(TokKind::Str, from, to, inner.to_string());
        self.advance_to(to);
    }

    fn char_or_lifetime(&mut self) {
        let from = self.i;
        let is_char = matches!(
            (self.peek(1), self.peek(2)),
            (Some(b'\\'), _) | (Some(_), Some(b'\''))
        );
        if is_char {
            let mut j = from + 1;
            if self.b.get(j) == Some(&b'\\') {
                j += 2;
                while j < self.b.len() && self.b[j] != b'\'' {
                    j += 1;
                }
            } else {
                j += 1;
            }
            let j = (j + 1).min(self.b.len());
            self.push(TokKind::Char, from, j, String::new());
            self.advance_to(j);
        } else {
            // Lifetime: `'` then an identifier.
            let mut j = from + 1;
            while j < self.b.len() && (self.b[j].is_ascii_alphanumeric() || self.b[j] == b'_') {
                j += 1;
            }
            let text = self.s[from..j].to_string();
            self.push(TokKind::Lifetime, from, j, text);
            self.advance_to(j.max(from + 1));
        }
    }

    fn number(&mut self) {
        let from = self.i;
        let mut j = from;
        // Integer part (covers 0x/0b/0o digits and type suffixes).
        while j < self.b.len() && (self.b[j].is_ascii_alphanumeric() || self.b[j] == b'_') {
            j += 1;
        }
        // Fraction only when `.` is followed by a digit (so `1..2` and
        // `x.0.1` tuple chains stay punctuated).
        if self.b.get(j) == Some(&b'.') && self.b.get(j + 1).is_some_and(u8::is_ascii_digit) {
            j += 1;
            while j < self.b.len() && (self.b[j].is_ascii_alphanumeric() || self.b[j] == b'_') {
                j += 1;
            }
            // Exponent sign (`1.5e-3`).
            if matches!(self.b.get(j), Some(b'+') | Some(b'-'))
                && matches!(self.b.get(j.wrapping_sub(1)), Some(b'e') | Some(b'E'))
            {
                j += 1;
                while j < self.b.len() && self.b[j].is_ascii_alphanumeric() {
                    j += 1;
                }
            }
        }
        let text = self.s[from..j].to_string();
        self.push(TokKind::Num, from, j, text);
        self.i = j;
    }

    fn ident(&mut self) {
        let from = self.i;
        let mut j = from;
        while j < self.b.len() && (self.b[j].is_ascii_alphanumeric() || self.b[j] == b'_') {
            j += 1;
        }
        let text = self.s[from..j].to_string();
        self.push(TokKind::Ident, from, j, text);
        self.i = j;
    }
}

/// Cooks one escape sequence starting at the backslash; returns the
/// character and the index after the sequence. Unknown escapes cook to
/// the escaped character itself — good enough for name extraction.
fn cook_escape(b: &[u8], at: usize) -> (char, usize) {
    match b.get(at + 1) {
        Some(b'n') => ('\n', at + 2),
        Some(b't') => ('\t', at + 2),
        Some(b'r') => ('\r', at + 2),
        Some(b'0') => ('\0', at + 2),
        Some(b'u') => {
            // \u{...}: skip to the closing brace; cook to '?' (rule
            // names never use unicode escapes).
            let mut j = at + 2;
            while j < b.len() && b[j] != b'}' {
                j += 1;
            }
            ('?', (j + 1).min(b.len()))
        }
        Some(b'x') => ('?', (at + 4).min(b.len())),
        Some(&c) => (c as char, at + 2),
        None => ('\\', at + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_puncts_and_positions() {
        let lexed = lex("fn f() {\n    x.lock();\n}\n");
        let lock = lexed.toks.iter().find(|t| t.is_ident("lock")).unwrap();
        assert_eq!((lock.line, lock.col), (2, 7));
    }

    #[test]
    fn strings_are_cooked_and_single_tokens() {
        let toks = kinds(r#"let s = "a\nb";"#);
        assert!(toks.contains(&(TokKind::Str, "a\nb".to_string())));
    }

    #[test]
    fn raw_strings_any_depth() {
        let toks = kinds(r###"let s = r#"CA_X"#;"###);
        assert!(toks.contains(&(TokKind::Str, "CA_X".to_string())));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks.contains(&(TokKind::Lifetime, "'a".to_string())));
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 1);
    }

    #[test]
    fn floats_vs_ranges() {
        let toks = kinds("let a = 1.5; let b = 1..2; let c = x.0;");
        assert!(toks.contains(&(TokKind::Num, "1.5".to_string())));
        assert!(toks.contains(&(TokKind::Num, "1".to_string())));
        assert!(toks.contains(&(TokKind::Num, "2".to_string())));
    }

    #[test]
    fn nested_block_comments_collected() {
        let lexed = lex("/* a /* b */ c */ fn f() {}");
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("b"));
        assert!(lexed.toks[0].is_ident("fn"));
    }

    #[test]
    fn unterminated_string_reaches_eof() {
        let lexed = lex("let s = \"oops");
        assert_eq!(lexed.toks.last().unwrap().kind, TokKind::Str);
    }
}
