//! A lightweight Rust tokenizer for the repo lint pass.
//!
//! This is not a full Rust lexer: it produces exactly the token
//! stream the rules in [`crate::rules`] need — identifiers, single
//! punctuation characters, and opaque literal markers — while
//! correctly *skipping* the three things a grep-based lint gets
//! wrong: comments (including doc comments, so code examples in
//! `///` blocks are never linted), string/char literals (so
//! `"panic!"` inside an error message is not a violation), and
//! lifetimes (so `'a` is not mistaken for an unterminated char).
//!
//! While scanning, plain `//` comments are inspected for
//! `xtask-allow` pragmas (the lint's escape hatch); doc comments are
//! deliberately *not* inspected so that documentation describing the
//! convention cannot accidentally suppress a diagnostic.

/// The kind of a lexed token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`foo`, `mut`, `HashMap`).
    Ident,
    /// A single punctuation character (`[`, `!`, `:`, ...).
    Punct,
    /// A string, char, byte, or numeric literal (contents opaque).
    Literal,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
}

/// One token with its source position.
#[derive(Clone, Debug)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token text (single char for punctuation, empty for
    /// string/char literals).
    pub text: String,
    /// 1-based source line.
    pub line: usize,
}

impl Token {
    /// `true` if this is an identifier with exactly the given text.
    #[must_use]
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// `true` if this is the given punctuation character.
    #[must_use]
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(ch)
    }
}

/// An `xtask-allow` pragma found in a plain `//` comment.
#[derive(Clone, Debug)]
pub struct Pragma {
    /// Rule names listed before the ` -- ` separator.
    pub rules: Vec<String>,
    /// `true` if a non-empty justification followed ` -- `.
    pub has_justification: bool,
    /// Line the pragma comment appears on.
    pub line: usize,
    /// `true` if code tokens precede the comment on the same line
    /// (the pragma then covers its own line rather than the next).
    pub trailing: bool,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens outside comments, strings, and doc examples.
    pub tokens: Vec<Token>,
    /// Every `xtask-allow` pragma encountered.
    pub pragmas: Vec<Pragma>,
}

/// Lexes `source`, collecting tokens and allow pragmas.
#[must_use]
pub fn lex(source: &str) -> Lexed {
    let mut out = Lexed::default();
    let bytes: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    let mut line = 1usize;
    // Line of the most recently emitted token: a pragma whose comment
    // shares that line is trailing (covers its own line); otherwise it
    // covers the next code line.
    let mut line_of_last_token = 0usize;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&'/') => {
                // Line comment; doc comments (/// and //!) are skipped
                // without pragma inspection.
                let start = i;
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                let is_doc = text.starts_with("///") || text.starts_with("//!");
                if !is_doc {
                    if let Some(mut p) = parse_pragma(&text, line) {
                        p.trailing = line_of_last_token == line;
                        out.pragmas.push(p);
                    }
                }
            }
            '/' if bytes.get(i + 1) == Some(&'*') => {
                // Block comment, possibly nested.
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                i = skip_string(&bytes, i, &mut line);
                push(&mut out.tokens, TokKind::Literal, String::new(), line);
                line_of_last_token = line;
            }
            'r' | 'b' if is_raw_or_byte_string(&bytes, i) => {
                i = skip_raw_or_byte(&bytes, i, &mut line);
                push(&mut out.tokens, TokKind::Literal, String::new(), line);
                line_of_last_token = line;
            }
            '\'' => {
                // Lifetime or char literal.
                let next = bytes.get(i + 1).copied().unwrap_or(' ');
                let after = bytes.get(i + 2).copied().unwrap_or(' ');
                if (next.is_alphabetic() || next == '_') && after != '\'' {
                    // Lifetime: 'a, 'static, '_
                    let start = i + 1;
                    i += 1;
                    while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                        i += 1;
                    }
                    let text: String = bytes[start..i].iter().collect();
                    push(&mut out.tokens, TokKind::Lifetime, text, line);
                } else {
                    // Char literal: 'x', '\n', '\u{1F600}'
                    i += 1;
                    while i < bytes.len() && bytes[i] != '\'' {
                        if bytes[i] == '\\' {
                            i += 1;
                        }
                        i += 1;
                    }
                    i += 1;
                    push(&mut out.tokens, TokKind::Literal, String::new(), line);
                }
                line_of_last_token = line;
            }
            _ if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                push(&mut out.tokens, TokKind::Ident, text, line);
                line_of_last_token = line;
            }
            _ if c.is_ascii_digit() => {
                // Numeric literal: digits, hex/suffix letters, `_`.
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                push(&mut out.tokens, TokKind::Literal, String::new(), line);
                line_of_last_token = line;
            }
            _ if c.is_whitespace() => {
                i += 1;
            }
            _ => {
                push(&mut out.tokens, TokKind::Punct, c.to_string(), line);
                line_of_last_token = line;
                i += 1;
            }
        }
    }
    out
}

fn push(tokens: &mut Vec<Token>, kind: TokKind, text: String, line: usize) {
    tokens.push(Token { kind, text, line });
}

/// `true` if position `i` starts a raw string (`r"`, `r#"`) or byte
/// string/char (`b"`, `br"`, `br#"`, `b'`).
fn is_raw_or_byte_string(bytes: &[char], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == 'b' {
        if bytes.get(j + 1) == Some(&'\'') {
            return true;
        }
        j += 1;
    }
    if bytes.get(j) == Some(&'r') {
        j += 1;
        while bytes.get(j) == Some(&'#') {
            j += 1;
        }
    }
    // Either a prefix was consumed and a quote follows (r", br#", b")
    // or this is just an identifier starting with r/b.
    j > i && bytes.get(j) == Some(&'"')
}

/// Skips a plain `"..."` string starting at `i`; returns the index
/// just past the closing quote.
fn skip_string(bytes: &[char], mut i: usize, line: &mut usize) -> usize {
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips raw/byte strings and byte chars starting at `i`.
fn skip_raw_or_byte(bytes: &[char], mut i: usize, line: &mut usize) -> usize {
    if bytes[i] == 'b' && bytes.get(i + 1) == Some(&'\'') {
        // Byte char b'x'
        i += 2;
        while i < bytes.len() && bytes[i] != '\'' {
            if bytes[i] == '\\' {
                i += 1;
            }
            i += 1;
        }
        return i + 1;
    }
    // r, br prefixes with zero or more #
    if bytes[i] == 'b' {
        i += 1;
    }
    let mut raw = false;
    if bytes.get(i) == Some(&'r') {
        raw = true;
        i += 1;
    }
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if !raw {
        // Plain b"...": escapes apply.
        return skip_string(bytes, i, line);
    }
    if bytes.get(i) == Some(&'"') {
        i += 1;
        // Scan for `"` followed by `hashes` #s.
        while i < bytes.len() {
            if bytes[i] == '\n' {
                *line += 1;
                i += 1;
                continue;
            }
            if bytes[i] == '"' {
                let mut k = 0usize;
                while k < hashes && bytes.get(i + 1 + k) == Some(&'#') {
                    k += 1;
                }
                if k == hashes {
                    return i + 1 + hashes;
                }
            }
            i += 1;
        }
    }
    i
}

/// Parses an `xtask-allow` pragma out of a plain `//` comment, if
/// present. Grammar:
///
/// ```text
/// // xtask-allow: rule[, rule]* -- justification text
/// ```
fn parse_pragma(comment: &str, line: usize) -> Option<Pragma> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("xtask-allow:")?;
    let (rule_part, justification) = match rest.split_once("--") {
        Some((rules, just)) => (rules, just.trim()),
        None => (rest, ""),
    };
    let rules: Vec<String> = rule_part
        .split(',')
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .collect();
    Some(Pragma {
        rules,
        has_justification: !justification.is_empty(),
        line,
        trailing: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skips_comments_and_strings() {
        let src = r#"
// unwrap() in a comment
/// doc with panic!("x")
let s = "unwrap()"; /* block unwrap() */
let c = 'x';
real.unwrap();
"#;
        let lexed = lex(src);
        let unwraps: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .collect();
        assert_eq!(unwraps.len(), 1);
        assert_eq!(unwraps[0].line, 6);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(lexed.tokens.iter().any(|t| t.kind == TokKind::Lifetime));
        // Everything after a misparsed char literal would vanish.
        assert!(lexed.tokens.iter().any(|t| t.is_ident("str")));
    }

    #[test]
    fn raw_strings_are_opaque() {
        let lexed = lex(r##"let s = r#"panic!("hi")"#; done()"##);
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("panic")));
        assert!(lexed.tokens.iter().any(|t| t.is_ident("done")));
    }

    #[test]
    fn parses_trailing_and_own_line_pragmas() {
        let src = "\
// xtask-allow: hotpath -- one-time setup allocation\n\
x.clone(); // xtask-allow: bufclone -- result materialization\n\
// xtask-allow: collect\n";
        let lexed = lex(src);
        assert_eq!(lexed.pragmas.len(), 3);
        assert!(!lexed.pragmas[0].trailing);
        assert!(lexed.pragmas[0].has_justification);
        assert!(lexed.pragmas[1].trailing);
        assert!(!lexed.pragmas[2].has_justification);
    }

    #[test]
    fn doc_comments_cannot_carry_pragmas() {
        let lexed = lex("/// xtask-allow: hotpath -- not a real pragma\n");
        assert!(lexed.pragmas.is_empty());
    }
}
