//! A std-only Rust lexer for the `odr-check` analysis passes.
//!
//! The PR-1 lint pass scanned stripped *lines*, which is blind to
//! multi-line raw strings and loses token boundaries. This module lexes a
//! whole file into a flat [`Token`] stream (identifiers, lifetimes,
//! literals, punctuation) while handling every construct that defeats a
//! line scanner: escaped and raw strings (`r#"..."#`, any hash depth,
//! spanning lines), byte strings, char literals vs lifetimes, and nested
//! block comments (`/* /* */ */`).
//!
//! Alongside the tokens it produces two per-line views the rule passes
//! share:
//!
//! * [`LexedFile::code`] — each source line with comments removed and
//!   literal contents blanked (so substring rules never fire inside a
//!   string or comment);
//! * [`LexedFile::doc`] — whether the line is (part of) a doc comment,
//!   which the documentation rule consults on the raw tree.
//!
//! The lexer is intentionally lossy where the passes don't care: it does
//! not distinguish keywords from identifiers and it flattens multi-char
//! operators into single-character [`TokKind::Punct`] tokens (callers
//! match sequences instead).

/// What kind of token a [`Token`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `guard`, `Instant`, ...).
    Ident,
    /// A lifetime (`'a`, `'static`) — the text excludes the quote.
    Lifetime,
    /// Integer literal, including any `_` separators and type suffix.
    Int,
    /// Float literal.
    Float,
    /// String literal (plain, raw or byte); text is the *content* with
    /// the quotes and hashes stripped.
    Str,
    /// Char or byte literal; text is the content between the quotes.
    Char,
    /// A single punctuation character (`.`, `:`, `{`, `+`, ...).
    Punct,
}

/// One lexed token with its 1-based source line and column.
#[derive(Clone, Debug)]
pub struct Token {
    /// The token class.
    pub kind: TokKind,
    /// The token text (see [`TokKind`] for what is kept per kind).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
    /// 1-based column, in chars, of the token's first char: rustc's
    /// column in a span.
    pub col: usize,
}

impl Token {
    /// `true` when the token is punctuation equal to `c`.
    #[must_use]
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }

    /// `true` when the token is an identifier equal to `name`.
    #[must_use]
    pub(crate) fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// Where an identifier ends: its line and the 1-based column just
    /// past it, the end a rustc span of that name carries.
    #[must_use]
    pub(crate) fn end(&self) -> (usize, usize) {
        (self.line, self.col + self.text.chars().count())
    }
}

/// A fully lexed source file: the token stream plus the per-line views.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// All tokens in source order.
    pub tokens: Vec<Token>,
    /// Per source line: the line's code with comments removed and literal
    /// contents blanked (`""` / `' '`), preserving layout.
    pub code: Vec<String>,
    /// Per source line: `true` when the line is (part of) a doc comment
    /// (`///`, `//!`, `/** */`, `/*! */`).
    pub doc: Vec<bool>,
}

impl LexedFile {
    /// Number of source lines.
    #[must_use]
    pub fn lines(&self) -> usize {
        self.code.len()
    }
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    /// Byte offset of the current line's first byte.
    line_start: usize,
    /// Column of the token being lexed.
    col: usize,
    out: LexedFile,
}

/// Lexes `src` into tokens and per-line code/doc views. The lexer never
/// fails: malformed input degrades to punctuation tokens rather than an
/// error, which is the right trade for a lint tool that must not crash on
/// code rustc itself will reject.
#[must_use]
pub(crate) fn lex(src: &str) -> LexedFile {
    let n_lines = src.lines().count().max(if src.is_empty() { 0 } else { 1 });
    let mut lx = Lexer {
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        line_start: 0,
        col: 1,
        out: LexedFile {
            tokens: Vec::new(),
            code: vec![String::new(); n_lines],
            doc: vec![false; n_lines],
        },
    };
    lx.run();
    lx.out
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.bytes.get(self.pos + ahead).unwrap_or(&0)
    }

    fn starts_with(&self, pat: &[u8]) -> bool {
        self.bytes[self.pos..].starts_with(pat)
    }

    /// Consumes one byte, tracking line numbers. Returns the byte.
    fn bump(&mut self) -> u8 {
        let b = self.bytes[self.pos];
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        b
    }

    /// Appends to the current line's code view.
    fn emit_code(&mut self, s: &str) {
        if let Some(line) = self.out.code.get_mut(self.line - 1) {
            line.push_str(s);
        }
    }

    fn mark_doc(&mut self) {
        if let Some(d) = self.out.doc.get_mut(self.line - 1) {
            *d = true;
        }
    }

    fn push(&mut self, kind: TokKind, text: String, line: usize) {
        let col = self.col;
        self.out.tokens.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(&mut self) {
        while self.pos < self.bytes.len() {
            // Chars, not bytes: a UTF-8 continuation byte starts none.
            let line_so_far = self
                .bytes
                .get(self.line_start..self.pos)
                .unwrap_or_default();
            self.col = 1 + line_so_far.iter().filter(|b| (**b & 0xC0) != 0x80).count();
            let b = self.peek(0);
            match b {
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'"' => self.string(0),
                b'r' if self.peek(1) == b'"' || self.peek(1) == b'#' => {
                    if !self.raw_string(1) {
                        self.ident();
                    }
                }
                b'b' if self.peek(1) == b'"' => self.string(1),
                b'b' if self.peek(1) == b'\'' => self.char_or_lifetime(1),
                b'b' if self.peek(1) == b'r' && (self.peek(2) == b'"' || self.peek(2) == b'#') => {
                    if !self.raw_string(2) {
                        self.ident();
                    }
                }
                b'\'' => self.char_or_lifetime(0),
                b'0'..=b'9' => self.number(),
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.ident(),
                _ => {
                    let line = self.line;
                    let c = self.bump() as char;
                    if !c.is_ascii() || !c.is_whitespace() {
                        if c.is_ascii() {
                            self.push(TokKind::Punct, c.to_string(), line);
                        }
                        self.emit_code(&c.to_string());
                    } else if c != '\n' {
                        self.emit_code(&c.to_string());
                    }
                }
            }
        }
    }

    fn line_comment(&mut self) {
        // `///` and `//!` are doc comments; `////...` is not.
        let is_doc = (self.starts_with(b"///") && self.peek(3) != b'/') || self.starts_with(b"//!");
        if is_doc {
            self.mark_doc();
        }
        while self.pos < self.bytes.len() && self.peek(0) != b'\n' {
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        // `/**` and `/*!` are doc comments (but `/**/` is empty, not doc).
        let is_doc = (self.starts_with(b"/**") && self.peek(3) != b'/') || self.starts_with(b"/*!");
        let mut depth = 0usize;
        while self.pos < self.bytes.len() {
            if is_doc {
                self.mark_doc();
            }
            if self.starts_with(b"/*") {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.starts_with(b"*/") {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    return;
                }
            } else {
                self.bump();
            }
        }
    }

    /// A plain (possibly escaped, possibly multi-line) string literal.
    /// `prefix_len` skips a `b` prefix.
    fn string(&mut self, prefix_len: usize) {
        let line = self.line;
        for _ in 0..prefix_len {
            self.bump();
        }
        self.bump(); // opening quote
        let mut content = String::new();
        while self.pos < self.bytes.len() {
            match self.peek(0) {
                b'\\' => {
                    content.push(self.bump() as char);
                    if self.pos < self.bytes.len() {
                        content.push(self.bump() as char);
                    }
                }
                b'"' => {
                    self.bump();
                    break;
                }
                _ => content.push(self.bump() as char),
            }
        }
        self.push(TokKind::Str, content, line);
        self.emit_code("\"\"");
    }

    /// A raw (possibly byte) string literal: `r"..."`, `r#"..."#`, any
    /// hash depth, spanning lines. Returns `false` when what looked like
    /// a raw-string start is actually an identifier (`r#foo` raw ident).
    fn raw_string(&mut self, prefix_len: usize) -> bool {
        let mut j = self.pos + prefix_len;
        let mut hashes = 0usize;
        while j < self.bytes.len() && self.bytes[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j >= self.bytes.len() || self.bytes[j] != b'"' {
            return false; // r#ident (raw identifier) or bare `r`
        }
        let line = self.line;
        while self.pos <= j {
            self.bump(); // prefix, hashes, opening quote
        }
        let mut content = String::new();
        let closer: Vec<u8> = std::iter::once(b'"')
            .chain(std::iter::repeat_n(b'#', hashes))
            .collect();
        while self.pos < self.bytes.len() && !self.starts_with(&closer) {
            content.push(self.bump() as char);
        }
        for _ in 0..closer.len().min(self.bytes.len() - self.pos) {
            self.bump();
        }
        self.push(TokKind::Str, content, line);
        self.emit_code("\"\"");
        true
    }

    /// Disambiguates a char/byte literal from a lifetime. `prefix_len`
    /// skips a `b` prefix (byte literals are always literals).
    fn char_or_lifetime(&mut self, prefix_len: usize) {
        let line = self.line;
        let q = self.pos + prefix_len; // index of the quote
        let after = *self.bytes.get(q + 1).unwrap_or(&0);
        let is_lifetime = prefix_len == 0 && after != b'\\' && {
            // `'x` is a lifetime unless a closing quote follows the one
            // (possibly multi-byte) character: `'x'` / `'é'`.
            let mut k = q + 1;
            if after == b'_' || after.is_ascii_alphabetic() {
                while k < self.bytes.len()
                    && (self.bytes[k] == b'_' || self.bytes[k].is_ascii_alphanumeric())
                {
                    k += 1;
                }
                self.bytes.get(k) != Some(&b'\'')
            } else {
                // Non-ident char after the quote: must be a char literal
                // like `'+'` or `'\u{1F600}'`.
                false
            }
        };
        if is_lifetime {
            self.bump(); // quote
            let mut name = String::new();
            while self.pos < self.bytes.len()
                && (self.peek(0) == b'_' || self.peek(0).is_ascii_alphanumeric())
            {
                name.push(self.bump() as char);
            }
            self.emit_code(&format!("'{name}"));
            self.push(TokKind::Lifetime, name, line);
            return;
        }
        // Char / byte literal.
        for _ in 0..prefix_len {
            self.bump();
        }
        self.bump(); // opening quote
        let mut content = String::new();
        while self.pos < self.bytes.len() {
            match self.peek(0) {
                b'\\' => {
                    content.push(self.bump() as char);
                    if self.pos < self.bytes.len() {
                        content.push(self.bump() as char);
                    }
                }
                b'\'' => {
                    self.bump();
                    break;
                }
                b'\n' => break, // malformed; don't eat the file
                _ => content.push(self.bump() as char),
            }
        }
        self.push(TokKind::Char, content, line);
        self.emit_code("' '");
    }

    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        let radix_prefix =
            self.peek(0) == b'0' && matches!(self.peek(1), b'x' | b'X' | b'o' | b'O' | b'b' | b'B');
        if radix_prefix {
            text.push(self.bump() as char);
            text.push(self.bump() as char);
        }
        let mut is_float = false;
        loop {
            let b = self.peek(0);
            if b.is_ascii_alphanumeric() || b == b'_' {
                // Exponent sign: `1e-3`.
                if !radix_prefix && (b == b'e' || b == b'E') && matches!(self.peek(1), b'+' | b'-')
                {
                    if self.peek(2).is_ascii_digit() {
                        is_float = true;
                        text.push(self.bump() as char);
                        text.push(self.bump() as char);
                        continue;
                    }
                    break;
                }
                if !radix_prefix && (b == b'e' || b == b'E') && self.peek(1).is_ascii_digit() {
                    is_float = true;
                }
                text.push(self.bump() as char);
            } else if b == b'.' && !is_float && !radix_prefix && self.peek(1).is_ascii_digit() {
                is_float = true;
                text.push(self.bump() as char);
            } else {
                break;
            }
        }
        self.emit_code(&text);
        let kind = if is_float {
            TokKind::Float
        } else {
            TokKind::Int
        };
        self.push(kind, text, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        // Raw identifier prefix `r#`.
        if self.starts_with(b"r#") && (self.peek(2) == b'_' || self.peek(2).is_ascii_alphabetic()) {
            self.bump();
            self.bump();
        }
        while self.pos < self.bytes.len()
            && (self.peek(0) == b'_' || self.peek(0).is_ascii_alphanumeric())
        {
            text.push(self.bump() as char);
        }
        self.emit_code(&text);
        self.push(TokKind::Ident, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_numbers_and_puncts() {
        let t = texts("let x_ms = 42 + y.f();");
        let flat: Vec<&str> = t.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(
            flat,
            ["let", "x_ms", "=", "42", "+", "y", ".", "f", "(", ")", ";"]
        );
        assert_eq!(t[3].0, TokKind::Int);
    }

    #[test]
    fn strings_keep_content_but_blank_code_view() {
        let f = lex("let s = \"Instant::now()\";");
        assert_eq!(f.tokens[3].kind, TokKind::Str);
        assert_eq!(f.tokens[3].text, "Instant::now()");
        assert!(!f.code[0].contains("Instant"), "{}", f.code[0]);
        assert!(f.code[0].contains("\"\""));
    }

    #[test]
    fn multiline_raw_string_blanks_every_line() {
        let src = "let s = r#\"line one .unwrap()\nInstant::now()\n\"#; let after = 1;";
        let f = lex(src);
        assert!(!f.code.concat().contains("unwrap"));
        assert!(!f.code.concat().contains("Instant"));
        // Code after the raw string still lexes.
        assert!(f.tokens.iter().any(|t| t.is_ident("after")));
        let s = f
            .tokens
            .iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("str");
        assert!(s.text.contains("Instant::now()"));
    }

    #[test]
    fn nested_block_comments_are_skipped() {
        let src = "/* outer /* inner .unwrap() */ still comment */ fn ok() {}";
        let f = lex(src);
        assert!(!f.code[0].contains("unwrap"));
        assert!(f.tokens.iter().any(|t| t.is_ident("ok")));
    }

    #[test]
    fn doc_lines_are_marked() {
        let f = lex("/// docs\n//! inner\n// plain\nfn x() {}\n");
        assert_eq!(f.doc, vec![true, true, false, false]);
    }

    #[test]
    fn block_doc_comment_marks_all_its_lines() {
        let f = lex("/** one\ntwo\n*/\nfn x() {}\n");
        assert_eq!(f.doc, vec![true, true, true, false]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let t = texts("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }");
        let lifetimes: Vec<&str> = t
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(lifetimes, ["a", "a"]);
        let chars: Vec<&str> = t
            .iter()
            .filter(|(k, _)| *k == TokKind::Char)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(chars, ["x", "\\'"]);
    }

    #[test]
    fn static_lifetime_is_not_a_char() {
        let t = texts("let s: &'static str = \"\";");
        assert!(t
            .iter()
            .any(|(k, s)| *k == TokKind::Lifetime && s == "static"));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let t = texts("let a = b\"xy\"; let b = br#\"un\"wrap\"#; let c = b'z';");
        let strs: Vec<&str> = t
            .iter()
            .filter(|(k, _)| *k == TokKind::Str)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(strs, ["xy", "un\"wrap"]);
        assert!(t.iter().any(|(k, s)| *k == TokKind::Char && s == "z"));
    }

    #[test]
    fn float_and_int_distinction() {
        let t = texts("1.5 2 0x1f 1e3 1_000 7u64 2.0e-4 1..3");
        let kinds: Vec<TokKind> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds[0], TokKind::Float);
        assert_eq!(kinds[1], TokKind::Int);
        assert_eq!(kinds[2], TokKind::Int);
        assert_eq!(kinds[3], TokKind::Float);
        assert_eq!(kinds[4], TokKind::Int);
        assert_eq!(kinds[5], TokKind::Int);
        assert_eq!(kinds[6], TokKind::Float);
        // `1..3` is Int, Punct, Punct, Int.
        let tail: Vec<&str> = t[7..].iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(tail, ["1", ".", ".", "3"]);
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"two\nlines\"\nb\n";
        let f = lex(src);
        let a = f.tokens.iter().find(|t| t.is_ident("a")).expect("a");
        let b = f.tokens.iter().find(|t| t.is_ident("b")).expect("b");
        assert_eq!(a.line, 1);
        assert_eq!(b.line, 4);
    }

    #[test]
    fn raw_identifier_lexes_as_ident() {
        let t = texts("let r#type = 1;");
        assert!(t.iter().any(|(k, s)| *k == TokKind::Ident && s == "type"));
    }

    #[test]
    fn code_view_preserves_layout_outside_literals() {
        let f = lex("  let x = 1; // trailing\n");
        assert_eq!(f.code[0], "  let x = 1; ");
    }
}
