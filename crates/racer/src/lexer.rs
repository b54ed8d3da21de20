//! A hand-rolled Rust lexer, in the house style of `corpus::ruby`:
//! enough tokenization to recover identifiers, punctuation, and brace
//! structure, while keeping every comment (with its line number) for
//! the `racer:` discipline declarations and `SAFETY:` vetting notes.
//!
//! Not a full Rust lexer — it does not classify keywords, interpret
//! numeric suffixes, or expand macros — but it is exact about the
//! things the analyses depend on: string/char/lifetime disambiguation
//! (so `'a` never eats a brace), raw strings, nested block comments,
//! and line attribution for every token.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `self`, `Ordering`, ...).
    Ident(String),
    /// Single punctuation character (`{`, `.`, `<`, ...). Multi-char
    /// operators arrive as consecutive tokens.
    Punct(char),
    /// Numeric literal (text preserved for constant-index checks).
    Num(String),
    /// String, raw-string, or byte-string literal (contents dropped).
    Str,
    /// Character or byte literal.
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
}

impl Token {
    /// The identifier text, if this is an identifier token.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// True when this token is the given identifier/keyword.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident(t) if t == s)
    }
}

/// A comment with its starting line (text excludes the `//`/`/*`
/// markers; block comments keep interior newlines).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based source line the comment starts on.
    pub line: u32,
    /// Comment text without delimiters, trimmed.
    pub text: String,
    /// Doc comment (`///`, `//!`, `/**`, `/*!`) — documentation is
    /// never parsed for `racer:` directives.
    pub doc: bool,
}

/// Lexer output: the token stream plus every comment.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Tokenize one source file.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                let doc = matches!(bytes.get(start), Some(b'/') | Some(b'!'));
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: src[start..i].trim_start_matches(['/', '!']).trim().into(),
                    doc,
                });
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                let start = i + 2;
                i += 2;
                let mut depth = 1usize;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let end = i.saturating_sub(2).max(start);
                out.comments.push(Comment {
                    line: start_line,
                    text: src[start..end].trim_matches(['*', '!', ' ']).trim().into(),
                    doc: matches!(bytes.get(start), Some(b'*') | Some(b'!')),
                });
            }
            b'"' => {
                i = skip_string(bytes, i, &mut line);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    line,
                });
            }
            b'b' if bytes.get(i + 1) == Some(&b'"') => {
                i = skip_string(bytes, i + 1, &mut line);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    line,
                });
            }
            b'b' if bytes.get(i + 1) == Some(&b'\'') => {
                i = skip_char(bytes, i + 1);
                out.tokens.push(Token {
                    kind: TokenKind::Char,
                    line,
                });
            }
            b'r' if matches!(bytes.get(i + 1), Some(b'"' | b'#'))
                && raw_string_start(bytes, i + 1) =>
            {
                i = skip_raw_string(bytes, i + 1, &mut line);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    line,
                });
            }
            b'\'' => {
                // Lifetime or char literal: a lifetime is ' + ident NOT
                // followed by a closing quote.
                if is_lifetime(bytes, i) {
                    i += 1;
                    while i < bytes.len() && is_ident_byte(bytes[i]) {
                        i += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        line,
                    });
                } else {
                    i = skip_char(bytes, i);
                    out.tokens.push(Token {
                        kind: TokenKind::Char,
                        line,
                    });
                }
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && (is_ident_byte(bytes[i]) || bytes[i] == b'.') {
                    // `0..10` — don't absorb the range dots
                    if bytes[i] == b'.' && bytes.get(i + 1) == Some(&b'.') {
                        break;
                    }
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Num(src[start..i].into()),
                    line,
                });
            }
            c if is_ident_byte(c) => {
                let start = i;
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident(src[start..i].into()),
                    line,
                });
            }
            c => {
                out.tokens.push(Token {
                    kind: TokenKind::Punct(c as char),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// At `bytes[i] == '\''`: lifetime iff next is an ident start and the
/// char after the ident run is not a closing quote (`'a'` is a char).
fn is_lifetime(bytes: &[u8], i: usize) -> bool {
    let Some(&first) = bytes.get(i + 1) else {
        return false;
    };
    if !(first.is_ascii_alphabetic() || first == b'_') {
        return false;
    }
    let mut j = i + 1;
    while j < bytes.len() && is_ident_byte(bytes[j]) {
        j += 1;
    }
    bytes.get(j) != Some(&b'\'')
}

fn raw_string_start(bytes: &[u8], mut i: usize) -> bool {
    while bytes.get(i) == Some(&b'#') {
        i += 1;
    }
    bytes.get(i) == Some(&b'"')
}

fn skip_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn skip_raw_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(j) == Some(&b'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
        }
        i += 1;
    }
    i
}

fn skip_char(bytes: &[u8], mut i: usize) -> usize {
    i += 1; // opening quote
    if bytes.get(i) == Some(&b'\\') {
        i += 2;
        // \u{...}
        while i < bytes.len() && bytes[i] != b'\'' {
            i += 1;
        }
        return i + 1;
    }
    while i < bytes.len() && bytes[i] != b'\'' {
        i += 1;
    }
    i + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_idents_puncts_and_lines() {
        let lx = lex("fn a() {\n  x.lock();\n}\n");
        let idents: Vec<&str> = lx.tokens.iter().filter_map(Token::ident).collect();
        assert_eq!(idents, ["fn", "a", "x", "lock"]);
        let lock = lx.tokens.iter().find(|t| t.is_ident("lock")).unwrap();
        assert_eq!(lock.line, 2);
    }

    #[test]
    fn disambiguates_lifetimes_chars_and_strings() {
        let lx = lex("fn f<'a>(x: &'a str) { let c = 'x'; let e = '\\n'; let s = \"a'b{\"; }");
        let braces = lx.tokens.iter().filter(|t| t.is_punct('{')).count();
        assert_eq!(braces, 1, "brace inside string must not count");
        let lifetimes = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 2);
        let chars = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn raw_strings_and_nested_comments_survive() {
        let lx = lex("let a = r#\"quote \" and {\"#; /* outer /* inner */ still */ let b = 1;");
        let braces = lx.tokens.iter().filter(|t| t.is_punct('{')).count();
        assert_eq!(braces, 0);
        assert_eq!(lx.comments.len(), 1);
        assert!(lx.comments[0].text.contains("still"));
        assert!(lx.tokens.iter().any(|t| t.is_ident("b")));
    }

    #[test]
    fn comments_keep_lines_and_text() {
        let lx = lex("// racer:publication a::R::head\nfn f() {}\n// SAFETY: fine\n");
        assert_eq!(lx.comments.len(), 2);
        assert_eq!(lx.comments[0].line, 1);
        assert_eq!(lx.comments[0].text, "racer:publication a::R::head");
        assert_eq!(lx.comments[1].line, 3);
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let lx = lex("for i in 0..10 { a[i] }");
        let nums: Vec<&str> = lx
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Num(n) => Some(n.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, ["0", "10"]);
    }
}
