//! A comment/string/char-literal-aware Rust tokenizer.
//!
//! This is *not* a full Rust lexer: it produces exactly the token stream the
//! lint passes need — identifiers, numeric literals (with float detection),
//! the four string-literal families, char literals vs lifetimes, comments
//! (kept, because `lint:allow` annotations live in them) and maximal-munch
//! punctuation — with a 1-based `line:col` position on every token. The
//! corner cases that matter for soundness are handled precisely:
//!
//! * raw strings `r"…"` / `r#"…"#` with any number of hashes (and the
//!   byte-string variants `b"…"`, `br#"…"#`), so a `HashMap` mentioned
//!   inside a string never reaches a pass;
//! * nested block comments `/* /* */ */`, per the Rust reference;
//! * char literals vs lifetimes: `'a'` is a char, `'a` is a lifetime,
//!   `'"'` and `'\''` are chars;
//! * raw identifiers: `r#type` is one `Ident` token (text `r#type`), not an
//!   `r` identifier followed by punctuation;
//! * float literals vs ranges vs integer method calls: `1.0` is a float,
//!   `1..2` is an int and a range, `1.max(2)` is an int, a dot and an ident.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Integer literal (any base, with suffix).
    Int,
    /// Float literal (has a fractional part, an exponent, or an `f32`/`f64`
    /// suffix).
    Float,
    /// Any string literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// Char or byte-char literal: `'x'`, `'\n'`, `b'x'`, `'"'`.
    Char,
    /// Lifetime: `'a`, `'static`, `'_`.
    Lifetime,
    /// `// …` (text includes the slashes, excludes the newline).
    LineComment,
    /// `/* … */` (text includes the delimiters; nesting respected).
    BlockComment,
    /// Operator or delimiter, maximal munch (`==`, `::`, `..=`, `{`, …).
    Punct,
}

/// One token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Exact source text of the token.
    pub text: String,
    /// 1-based line of the first character.
    pub line: u32,
    /// 1-based column (in characters) of the first character.
    pub col: u32,
}

impl Token {
    /// True when this token is the identifier `s`.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True when this token is the punctuation `s`.
    #[must_use]
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }

    /// True for comment tokens (which the parser and the passes skip over).
    #[must_use]
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// The identifier's name with any `r#` raw prefix stripped (so `r#type`
    /// names the symbol `type`); the raw text for every other token kind.
    #[must_use]
    pub fn ident_name(&self) -> &str {
        if self.kind == TokenKind::Ident {
            if let Some(rest) = self.text.strip_prefix("r#") {
                return rest;
            }
        }
        &self.text
    }
}

/// Multi-character operators, longest first (maximal munch).
const OPERATORS: &[&str] = &[
    "..=", "<<=", ">>=", "...", "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

struct Lexer<'a> {
    chars: Vec<char>,
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one char, tracking line/col.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn token(&self, kind: TokenKind, start: usize, line: u32, col: u32) -> Token {
        Token {
            kind,
            text: self.chars[start..self.pos].iter().collect(),
            line,
            col,
        }
    }

    /// `//` to end of line.
    fn line_comment(&mut self, start: usize, line: u32, col: u32) -> Token {
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.bump();
        }
        self.token(TokenKind::LineComment, start, line, col)
    }

    /// `/* … */` with nesting.
    fn block_comment(&mut self, start: usize, line: u32, col: u32) -> Token {
        self.bump_n(2); // consume `/*`
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump_n(2);
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump_n(2);
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated: tolerate, end at EOF
            }
        }
        self.token(TokenKind::BlockComment, start, line, col)
    }

    /// A `"…"` body with escapes; the opening quote is already consumed.
    fn string_body(&mut self) {
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump(); // the escaped char, whatever it is
                }
                '"' => break,
                _ => {}
            }
        }
    }

    /// A raw-string body `#*"…"#*`; `self.pos` sits on the first `#` or `"`.
    /// Returns false if this is not actually a raw string opener.
    fn raw_string_body(&mut self) -> bool {
        let mut hashes = 0usize;
        while self.peek(hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(hashes) != Some('"') {
            return false;
        }
        self.bump_n(hashes + 1); // hashes and the opening quote
        loop {
            match self.bump() {
                None => break, // unterminated: tolerate
                Some('"') => {
                    let mut matched = 0usize;
                    while matched < hashes && self.peek(matched) == Some('#') {
                        matched += 1;
                    }
                    if matched == hashes {
                        self.bump_n(hashes);
                        break;
                    }
                }
                Some(_) => {}
            }
        }
        true
    }

    /// Char literal vs lifetime; the opening `'` is already consumed.
    fn char_or_lifetime(&mut self, start: usize, line: u32, col: u32) -> Token {
        match self.peek(0) {
            // `'\n'`, `'\''`, `'\u{1F600}'` — escape means char literal.
            Some('\\') => {
                loop {
                    match self.bump() {
                        // Closing quote, or unterminated at EOF: tolerate.
                        None | Some('\'') => break,
                        Some('\\') => {
                            self.bump(); // the escaped char is never a closer
                        }
                        Some(_) => {}
                    }
                }
                self.token(TokenKind::Char, start, line, col)
            }
            // `'a'` is a char, `'a` / `'static` / `'_` are lifetimes.
            Some(c) if is_ident_start(c) => {
                let mut len = 1;
                while self.peek(len).is_some_and(is_ident_continue) {
                    len += 1;
                }
                if self.peek(len) == Some('\'') {
                    self.bump_n(len + 1);
                    self.token(TokenKind::Char, start, line, col)
                } else {
                    self.bump_n(len);
                    self.token(TokenKind::Lifetime, start, line, col)
                }
            }
            // `'"'`, `'+'`, `'∞'` — any single char followed by a quote.
            Some(_) if self.peek(1) == Some('\'') => {
                self.bump_n(2);
                self.token(TokenKind::Char, start, line, col)
            }
            // A stray quote (invalid Rust); emit as punctuation and move on.
            _ => self.token(TokenKind::Punct, start, line, col),
        }
    }

    /// A numeric literal; the first digit is already consumed.
    fn number(&mut self, start: usize, line: u32, col: u32, first: char) -> Token {
        let mut is_float = false;
        // Non-decimal bases cannot be floats and take no exponent.
        if first == '0' && matches!(self.peek(0), Some('x' | 'X' | 'b' | 'B' | 'o' | 'O')) {
            self.bump();
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                self.bump();
            }
            return self.token(TokenKind::Int, start, line, col);
        }
        let digits = |lex: &mut Self| {
            while lex.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                lex.bump();
            }
        };
        digits(self);
        // Fractional part only when a digit follows the dot: `1.0` yes,
        // `1..2` and `1.max(2)` no.
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            digits(self);
        }
        // Exponent: `1e3`, `1.5e-3` — only when digits follow.
        if matches!(self.peek(0), Some('e' | 'E')) {
            let sign = usize::from(matches!(self.peek(1), Some('+' | '-')));
            if self.peek(1 + sign).is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                self.bump_n(1 + sign);
                digits(self);
            }
        }
        // Type suffix: `1u32`, `1f64`.
        if self.peek(0).is_some_and(is_ident_start) {
            let suffix_start = self.pos;
            while self.peek(0).is_some_and(is_ident_continue) {
                self.bump();
            }
            let suffix: String = self.chars[suffix_start..self.pos].iter().collect();
            if suffix == "f32" || suffix == "f64" {
                is_float = true;
            }
        }
        let kind = if is_float {
            TokenKind::Float
        } else {
            TokenKind::Int
        };
        self.token(kind, start, line, col)
    }

    /// `r"…"`/`r#"…"#`/`b"…"`/`br#"…"#`/`b'x'` prefixes; falls back to a
    /// plain identifier when the lookahead does not open a literal.
    fn maybe_prefixed_literal(&mut self, start: usize, line: u32, col: u32) -> Token {
        let first = self.chars[start];
        let (skip, kind) = match first {
            'r' => (0usize, TokenKind::Str),
            'b' => match self.peek(0) {
                Some('r') => (1, TokenKind::Str),
                Some('\'') => {
                    // byte char `b'x'`
                    self.bump(); // the quote
                    let tok = self.char_or_lifetime(start, line, col);
                    return Token {
                        kind: TokenKind::Char,
                        ..tok
                    };
                }
                Some('"') => {
                    self.bump();
                    self.string_body();
                    return self.token(TokenKind::Str, start, line, col);
                }
                _ => return self.ident_rest(start, line, col),
            },
            _ => return self.ident_rest(start, line, col),
        };
        // `r`/`br`: raw string only if `#*"` follows.
        let mut hashes = 0usize;
        while self.peek(skip + hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(skip + hashes) == Some('"') {
            self.bump_n(skip);
            if self.raw_string_body() {
                return self.token(kind, start, line, col);
            }
        }
        // Raw identifier `r#type`: exactly one hash, then an identifier.
        if first == 'r'
            && hashes == 1
            && self.peek(0) == Some('#')
            && self.peek(1).is_some_and(is_ident_start)
        {
            self.bump(); // the `#`
            self.bump(); // first identifier char
            return self.ident_rest(start, line, col);
        }
        self.ident_rest(start, line, col)
    }

    /// Continues an identifier whose first char is consumed.
    fn ident_rest(&mut self, start: usize, line: u32, col: u32) -> Token {
        while self.peek(0).is_some_and(is_ident_continue) {
            self.bump();
        }
        self.token(TokenKind::Ident, start, line, col)
    }

    fn punct(&mut self, start: usize, line: u32, col: u32) -> Token {
        for op in OPERATORS {
            let len = op.chars().count();
            if self.pos + len - 1 <= self.chars.len() {
                let got: String = self.chars[start..start + len].iter().collect();
                if got == **op {
                    self.bump_n(len - 1); // first char already consumed
                    return self.token(TokenKind::Punct, start, line, col);
                }
            }
        }
        self.token(TokenKind::Punct, start, line, col)
    }
}

/// Tokenizes `src`. Never fails: malformed input degrades to punctuation
/// tokens rather than aborting the lint of the rest of the file.
#[must_use]
pub fn tokenize(src: &str) -> Vec<Token> {
    let mut lex = Lexer::new(src);
    let mut out = Vec::with_capacity(src.len() / 4);
    // A UTF-8 BOM at the very start is not part of any token.
    if lex.src.starts_with('\u{feff}') {
        lex.bump();
    }
    while let Some(c) = lex.peek(0) {
        let (start, line, col) = (lex.pos, lex.line, lex.col);
        if c.is_whitespace() {
            lex.bump();
            continue;
        }
        let tok = match c {
            '/' if lex.peek(1) == Some('/') => {
                lex.bump();
                lex.line_comment(start, line, col)
            }
            '/' if lex.peek(1) == Some('*') => lex.block_comment(start, line, col),
            '"' => {
                lex.bump();
                lex.string_body();
                lex.token(TokenKind::Str, start, line, col)
            }
            '\'' => {
                lex.bump();
                lex.char_or_lifetime(start, line, col)
            }
            'r' | 'b' => {
                lex.bump();
                lex.maybe_prefixed_literal(start, line, col)
            }
            c if c.is_ascii_digit() => {
                lex.bump();
                lex.number(start, line, col, c)
            }
            c if is_ident_start(c) => {
                lex.bump();
                lex.ident_rest(start, line, col)
            }
            _ => {
                lex.bump();
                lex.punct(start, line, col)
            }
        };
        out.push(tok);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_and_punct() {
        let toks = tokenize("let x = a == b;");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["let", "x", "=", "a", "==", "b", ";"]);
        assert!(toks[4].is_punct("=="));
    }

    #[test]
    fn positions_are_one_based_lines_and_cols() {
        let toks = tokenize("a\n  bb\n");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn line_and_nested_block_comments() {
        let toks = kinds("x // tail HashMap\ny /* a /* nested */ still */ z");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "x".into()),
                (TokenKind::LineComment, "// tail HashMap".into()),
                (TokenKind::Ident, "y".into()),
                (TokenKind::BlockComment, "/* a /* nested */ still */".into()),
                (TokenKind::Ident, "z".into()),
            ]
        );
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"f("Instant::now == 1.0 // not a comment")"#);
        assert_eq!(toks.len(), 4); // f ( "…" )
        assert_eq!(toks[2].0, TokenKind::Str);
    }

    #[test]
    fn string_escapes_do_not_end_early() {
        let toks = kinds(r#""a\"b" x"#);
        assert_eq!(toks[0], (TokenKind::Str, "\"a\\\"b\"".into()));
        assert_eq!(toks[1], (TokenKind::Ident, "x".into()));
    }

    #[test]
    #[expect(
        clippy::needless_raw_string_hashes,
        reason = "the outer hashes are the fixture"
    )]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"r#"quote " inside"# y"###);
        assert_eq!(toks[0].0, TokenKind::Str);
        assert_eq!(toks[1], (TokenKind::Ident, "y".into()));
        // Zero-hash raw string.
        let toks = kinds(r#"r"plain" z"#);
        assert_eq!(toks[0].0, TokenKind::Str);
        assert_eq!(toks[1], (TokenKind::Ident, "z".into()));
        // Two hashes, embedded single hash terminator candidates.
        let toks = kinds(r####"r##"a "# b"## w"####);
        assert_eq!(toks[0].0, TokenKind::Str);
        assert_eq!(toks[1], (TokenKind::Ident, "w".into()));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        assert_eq!(kinds(r#"b"bytes""#)[0].0, TokenKind::Str);
        assert_eq!(kinds(r##"br#"raw bytes"#"##)[0].0, TokenKind::Str);
        assert_eq!(kinds("b'x'")[0].0, TokenKind::Char);
        // `b` and `r` alone stay identifiers.
        assert_eq!(kinds("b + r")[0].0, TokenKind::Ident);
        assert_eq!(kinds("radius")[0], (TokenKind::Ident, "radius".into()));
        assert_eq!(kinds("breaks")[0], (TokenKind::Ident, "breaks".into()));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        assert_eq!(kinds("'a'")[0].0, TokenKind::Char);
        assert_eq!(kinds("'\\''")[0].0, TokenKind::Char);
        assert_eq!(kinds("'\"'")[0].0, TokenKind::Char); // the tricky one
        assert_eq!(kinds("'\\u{1F600}'")[0].0, TokenKind::Char);
        assert_eq!(kinds("&'a str")[1].0, TokenKind::Lifetime);
        assert_eq!(kinds("'static")[0].0, TokenKind::Lifetime);
        assert_eq!(kinds("'_")[0].0, TokenKind::Lifetime);
        // A lifetime then a char on the same line.
        let toks = kinds("<'a> 'x'");
        assert_eq!(toks[1].0, TokenKind::Lifetime);
        assert_eq!(toks[3].0, TokenKind::Char);
    }

    #[test]
    fn numbers_floats_ranges_and_methods() {
        assert_eq!(kinds("1.0")[0].0, TokenKind::Float);
        assert_eq!(kinds("1.5e-3")[0].0, TokenKind::Float);
        assert_eq!(kinds("2e8")[0].0, TokenKind::Float);
        assert_eq!(kinds("3f64")[0].0, TokenKind::Float);
        assert_eq!(kinds("1_000")[0].0, TokenKind::Int);
        assert_eq!(kinds("0xFF_u8")[0].0, TokenKind::Int);
        assert_eq!(kinds("0b1010")[0].0, TokenKind::Int);
        // `1..2` is Int, `..`, Int — not a float.
        let toks = kinds("1..2");
        assert_eq!(toks[0].0, TokenKind::Int);
        assert_eq!(toks[1], (TokenKind::Punct, "..".into()));
        assert_eq!(toks[2].0, TokenKind::Int);
        // `1.max(2)` is Int, `.`, Ident.
        let toks = kinds("1.max(2)");
        assert_eq!(toks[0].0, TokenKind::Int);
        assert_eq!(toks[1], (TokenKind::Punct, ".".into()));
        assert_eq!(toks[2], (TokenKind::Ident, "max".into()));
    }

    #[test]
    fn maximal_munch_operators() {
        let toks = kinds("a..=b x != y c::d");
        assert!(toks.iter().any(|t| t == &(TokenKind::Punct, "..=".into())));
        assert!(toks.iter().any(|t| t == &(TokenKind::Punct, "!=".into())));
        assert!(toks.iter().any(|t| t == &(TokenKind::Punct, "::".into())));
    }

    #[test]
    fn unterminated_inputs_do_not_hang_or_panic() {
        let _ = tokenize("/* never closed");
        let _ = tokenize("\"never closed");
        let _ = tokenize("r#\"never closed");
        let _ = tokenize("'");
    }
}
