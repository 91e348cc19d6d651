//! A real Rust lexer for the static-analysis front end.
//!
//! The original hygiene scanner stripped comments and strings with a
//! per-line character scanner, which had two known blind spots: raw
//! string literals (`r#"..."#` — the scanner saw the inner `"` as a
//! string boundary) and nested block comments (`/* /* */ */` — the
//! scanner did not track block comments at all). This module replaces
//! that with a faithful single-pass lexer producing a token stream that
//! every audit pass shares — one lex per file.
//!
//! Covered syntax:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`), kept as tokens so annotation passes (`SAFETY`,
//!   `AUDIT`) can read them;
//! * string literals with escapes, byte strings (`b".."`), C strings
//!   (`c".."`), and raw strings with any hash count (`r".."`,
//!   `r#".."#`, `br##".."##`);
//! * char literals vs. lifetimes (`'a'` vs. `'a`), including escaped
//!   chars (`'\n'`, `'\u{7fff}'`);
//! * raw identifiers (`r#match`);
//! * numeric literals (including `1e-3`, `0xFF_u64`, `1_000.5`);
//! * single-character punctuation — rule matchers look at short token
//!   sequences (`thread :: spawn`), so multi-character operators are
//!   left as adjacent punct tokens.
//!
//! On top of the flat stream, [`Lexed`] computes the **token tree**: a
//! matched-delimiter pair map (`(` `)` / `[` `]` / `{` `}`) used by the
//! item parser to skip bodies, argument lists, and attribute contents
//! without re-scanning.

use std::fmt;

/// Lexical class of one token.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unsafe`, `spawn`, `r#match`, ...).
    Ident,
    /// A lifetime (`'a`, `'static`) — the tick is part of the token.
    Lifetime,
    /// `// ...` comment (doc comments included), without the newline.
    LineComment,
    /// `/* ... */` comment, nesting handled; may span lines.
    BlockComment,
    /// String-ish literal: `"..."`, `b"..."`, `c"..."`, `r#"..."#`.
    Str,
    /// Char or byte-char literal: `'x'`, `b'\n'`.
    Char,
    /// Numeric literal.
    Num,
    /// One punctuation character.
    Punct,
}

/// One token: kind plus location. Text is sliced out of the source on
/// demand via [`Lexed::text`], so a token is 16 bytes.
#[derive(Copy, Clone, Debug)]
pub struct Tok {
    /// Lexical class.
    pub kind: TokKind,
    /// 1-based line of the token's first byte.
    pub line: u32,
    /// Byte offset of the token's first byte.
    pub lo: u32,
    /// Byte offset one past the token's last byte.
    pub hi: u32,
}

/// Sentinel in the delimiter pair map: no matching partner.
pub const NO_PAIR: u32 = u32::MAX;

/// The lexed form of one source file: the source text, the token
/// stream, and the matched-delimiter map. Built once per file and
/// shared by every rule and pass (see `Corpus`).
pub struct Lexed {
    /// The source text the offsets index into.
    pub src: String,
    /// All tokens in source order, comments included.
    pub toks: Vec<Tok>,
    /// `pairs[i]` is the token index of the delimiter matching token
    /// `i` (in both directions), or [`NO_PAIR`] for non-delimiters and
    /// unbalanced delimiters.
    pub pairs: Vec<u32>,
}

impl fmt::Debug for Lexed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lexed")
            .field("bytes", &self.src.len())
            .field("tokens", &self.toks.len())
            .finish()
    }
}

impl Lexed {
    /// The text of token `i`.
    pub fn text(&self, i: usize) -> &str {
        let t = &self.toks[i];
        &self.src[t.lo as usize..t.hi as usize]
    }

    /// Is token `i` an identifier with exactly this text?
    pub fn is_ident(&self, i: usize, s: &str) -> bool {
        self.toks[i].kind == TokKind::Ident && self.text(i) == s
    }

    /// Is token `i` the punctuation character `c`?
    pub fn is_punct(&self, i: usize, c: char) -> bool {
        self.toks[i].kind == TokKind::Punct
            && self.src.as_bytes()[self.toks[i].lo as usize] == {
                let mut b = [0u8; 4];
                c.encode_utf8(&mut b);
                b[0]
            }
    }

    /// Index of the previous non-comment token before `i`, if any.
    pub fn prev_code(&self, i: usize) -> Option<usize> {
        let mut j = i;
        while j > 0 {
            j -= 1;
            if !self.toks[j].kind.is_comment() {
                return Some(j);
            }
        }
        None
    }

    /// Index of the next non-comment token after `i`, if any.
    pub fn next_code(&self, i: usize) -> Option<usize> {
        let mut j = i + 1;
        while j < self.toks.len() {
            if !self.toks[j].kind.is_comment() {
                return Some(j);
            }
            j += 1;
        }
        None
    }

    /// The token index matching delimiter `i`, if balanced.
    pub fn pair(&self, i: usize) -> Option<usize> {
        match self.pairs[i] {
            NO_PAIR => None,
            p => Some(p as usize),
        }
    }
}

impl TokKind {
    /// Line or block comment?
    pub fn is_comment(self) -> bool {
        matches!(self, TokKind::LineComment | TokKind::BlockComment)
    }
}

/// Lex `src` into tokens. Never fails: unterminated constructs consume
/// to end-of-file as a single token (the audit still sees honest line
/// numbers for everything before the error).
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let n = b.len();
    let mut toks = Vec::with_capacity(n / 6);
    let mut i = 0usize;
    let mut line = 1u32;

    // Push a token spanning [lo, i).
    macro_rules! push {
        ($kind:expr, $lo:expr, $start_line:expr) => {
            toks.push(Tok {
                kind: $kind,
                line: $start_line,
                lo: $lo as u32,
                hi: i as u32,
            })
        };
    }

    while i < n {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                let lo = i;
                while i < n && b[i] != b'\n' {
                    i += 1;
                }
                push!(TokKind::LineComment, lo, line);
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                let (lo, start_line) = (i, line);
                i += 2;
                let mut depth = 1usize;
                while i < n && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                push!(TokKind::BlockComment, lo, start_line);
            }
            b'"' => {
                let (lo, start_line) = (i, line);
                i += 1;
                scan_quoted(b, &mut i, &mut line);
                push!(TokKind::Str, lo, start_line);
            }
            b'\'' => {
                let lo = i;
                // Lifetime vs char literal. After the tick:
                //  * `\`    -> escaped char literal;
                //  * ident-start followed (after the full ident) by no
                //    closing tick -> lifetime;
                //  * anything else -> char literal.
                if i + 1 < n && b[i + 1] == b'\\' {
                    i += 1;
                    scan_char_tail(b, &mut i, &mut line);
                    push!(TokKind::Char, lo, line);
                } else if i + 1 < n && is_ident_start(b[i + 1]) {
                    let mut j = i + 2;
                    while j < n && is_ident_continue(b[j]) {
                        j += 1;
                    }
                    if j < n && b[j] == b'\'' && j == i + 2 {
                        // Exactly one ident char then a tick: 'x'.
                        i = j + 1;
                        push!(TokKind::Char, lo, line);
                    } else {
                        // 'abc or 'x followed by non-tick: a lifetime.
                        i = j;
                        push!(TokKind::Lifetime, lo, line);
                    }
                } else {
                    // 'c' for non-ident c (e.g. '+', ' ', unicode).
                    i += 1;
                    scan_char_tail(b, &mut i, &mut line);
                    push!(TokKind::Char, lo, line);
                }
            }
            c if c.is_ascii_digit() => {
                let lo = i;
                let hex = i + 1 < n && b[i] == b'0' && (b[i + 1] == b'x' || b[i + 1] == b'X');
                i += 1;
                while i < n {
                    let d = b[i];
                    if d.is_ascii_alphanumeric() || d == b'_' {
                        // Exponent sign (1e-3 / 2E+5) — not in hex,
                        // where 0xE is a digit and `-` is an operator.
                        if !hex
                            && (d == b'e' || d == b'E')
                            && i + 2 < n
                            && (b[i + 1] == b'+' || b[i + 1] == b'-')
                            && b[i + 2].is_ascii_digit()
                        {
                            i += 2;
                        } else {
                            i += 1;
                        }
                    } else if d == b'.' && i + 1 < n && b[i + 1].is_ascii_digit() {
                        // A decimal point: `1.5`. A range `0..9` sees
                        // `.` followed by `.`, which fails the digit
                        // test above and ends the literal.
                        i += 1;
                    } else {
                        break;
                    }
                }
                push!(TokKind::Num, lo, line);
            }
            c if is_ident_start(c) => {
                let lo = i;
                // Raw string / byte string / c-string prefixes and raw
                // identifiers all start like an ident.
                let rest = &b[i..];
                if let Some((kind, len)) = scan_prefixed_literal(rest, &mut line) {
                    i += len;
                    // `line` already advanced over newlines inside the
                    // token; recover the start line for the record.
                    push!(kind, lo, line_of_start(src, lo, line, i));
                } else {
                    i += 1;
                    while i < n && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    push!(TokKind::Ident, lo, line);
                }
            }
            _ => {
                let lo = i;
                i += 1;
                push!(TokKind::Punct, lo, line);
            }
        }
    }

    let pairs = match_delims(&toks, src);
    Lexed {
        src: src.to_string(),
        toks,
        pairs,
    }
}

/// Start line of a token that may span newlines: `line` is the line of
/// the *current* position after scanning; subtract the newlines inside
/// the token to recover its first line.
fn line_of_start(src: &str, lo: usize, line_now: u32, hi: usize) -> u32 {
    let inner_newlines = src[lo..hi].bytes().filter(|&c| c == b'\n').count() as u32;
    line_now - inner_newlines
}

/// Try to scan a prefixed literal (`r"`, `r#"`, `b"`, `b'`, `br#"`,
/// `c"`, `cr#"`, ...) or a raw identifier (`r#ident`) starting at the
/// current position. Returns the token kind and byte length, advancing
/// the line counter over any newlines consumed. Returns `None` when the
/// prefix is an ordinary identifier.
fn scan_prefixed_literal(rest: &[u8], line: &mut u32) -> Option<(TokKind, usize)> {
    let b = rest;
    let n = b.len();
    // Longest prefixes first: br / cr, then b / c / r.
    let (prefix_len, allows_raw, allows_char) = match b {
        [b'b', b'r', ..] => (2, true, false),
        [b'c', b'r', ..] => (2, true, false),
        [b'b', ..] => (1, false, true),
        [b'c', ..] => (1, false, false),
        [b'r', ..] => (1, true, false),
        _ => return None,
    };
    let after = &b[prefix_len..];
    // Raw forms: prefix + #* + ".
    if allows_raw {
        let mut hashes = 0usize;
        while hashes < after.len() && after[hashes] == b'#' {
            hashes += 1;
        }
        if hashes < after.len() && after[hashes] == b'"' {
            // Raw string: scan to `"` + hashes.
            let mut i = prefix_len + hashes + 1;
            'outer: while i < n {
                if b[i] == b'\n' {
                    *line += 1;
                    i += 1;
                    continue;
                }
                if b[i] == b'"' {
                    let mut h = 0usize;
                    while h < hashes && i + 1 + h < n && b[i + 1 + h] == b'#' {
                        h += 1;
                    }
                    if h == hashes {
                        i += 1 + hashes;
                        break 'outer;
                    }
                }
                i += 1;
            }
            return Some((TokKind::Str, i));
        }
        if hashes > 0 && prefix_len == 1 && b[0] == b'r' {
            // r# + ident-start: raw identifier (only one hash is legal).
            if hashes == 1 && prefix_len + 1 < n && is_ident_start(b[prefix_len + 1]) {
                let mut i = prefix_len + 2;
                while i < n && is_ident_continue(b[i]) {
                    i += 1;
                }
                return Some((TokKind::Ident, i));
            }
            return None;
        }
    }
    // Non-raw quoted forms: b"..", c"..", b'..'.
    if prefix_len < n && b[prefix_len] == b'"' {
        let mut i = prefix_len + 1;
        scan_quoted(b, &mut i, line);
        return Some((TokKind::Str, i));
    }
    if allows_char && prefix_len < n && b[prefix_len] == b'\'' {
        let mut i = prefix_len + 1;
        scan_char_tail(b, &mut i, line);
        return Some((TokKind::Char, i));
    }
    None
}

/// Scan the remainder of a `"`-quoted string (cursor just past the
/// opening quote), honoring `\"` and `\\` escapes.
fn scan_quoted(b: &[u8], i: &mut usize, line: &mut u32) {
    let n = b.len();
    while *i < n {
        match b[*i] {
            b'\\' => {
                // A `\<newline>` line-continuation escape still ends a
                // source line — keep the line counter honest.
                if *i + 1 < n && b[*i + 1] == b'\n' {
                    *line += 1;
                }
                *i = (*i + 2).min(n);
            }
            b'"' => {
                *i += 1;
                return;
            }
            b'\n' => {
                *line += 1;
                *i += 1;
            }
            _ => *i += 1,
        }
    }
}

/// Scan the remainder of a char literal (cursor just past the tick,
/// possibly at a `\`), through the closing tick.
fn scan_char_tail(b: &[u8], i: &mut usize, line: &mut u32) {
    let n = b.len();
    while *i < n {
        match b[*i] {
            b'\\' => {
                if *i + 1 < n && b[*i + 1] == b'\n' {
                    *line += 1;
                }
                *i = (*i + 2).min(n);
            }
            b'\'' => {
                *i += 1;
                return;
            }
            b'\n' => {
                // Unterminated char literal; stop at the newline so the
                // rest of the file still lexes.
                *line += 1;
                *i += 1;
                return;
            }
            _ => *i += 1,
        }
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Compute the matched-delimiter pair map over the token stream.
fn match_delims(toks: &[Tok], src: &str) -> Vec<u32> {
    let mut pairs = vec![NO_PAIR; toks.len()];
    let mut stack: Vec<(usize, u8)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        let c = src.as_bytes()[t.lo as usize];
        match c {
            b'(' | b'[' | b'{' => stack.push((i, c)),
            b')' | b']' | b'}' => {
                let want = match c {
                    b')' => b'(',
                    b']' => b'[',
                    _ => b'{',
                };
                // Pop unmatched openers (tolerate malformed input).
                while let Some(&(j, open)) = stack.last() {
                    stack.pop();
                    if open == want {
                        pairs[i] = j as u32;
                        pairs[j] = i as u32;
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        let lx = lex(src);
        (0..lx.toks.len())
            .map(|i| (lx.toks[i].kind, lx.text(i).to_string()))
            .collect()
    }

    #[test]
    fn idents_keywords_puncts() {
        let ks = kinds("unsafe fn f(x: u32) -> u32 { x }");
        let idents: Vec<_> = ks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(idents, ["unsafe", "fn", "f", "x", "u32", "u32", "x"]);
    }

    #[test]
    fn raw_strings_are_single_tokens() {
        // The legacy scanner's first blind spot: the `"` inside a raw
        // string resynced its string state and hid following code.
        let src = r####"let s = r#"unsafe { *p } "quoted" "#; static mut X: u8 = 0;"####;
        let lx = lex(src);
        let strs: Vec<_> = (0..lx.toks.len())
            .filter(|&i| lx.toks[i].kind == TokKind::Str)
            .map(|i| lx.text(i).to_string())
            .collect();
        assert_eq!(strs.len(), 1, "{strs:?}");
        assert!(strs[0].starts_with("r#\"") && strs[0].ends_with("\"#"));
        // The code *after* the raw string must still be visible.
        let idents: Vec<_> = (0..lx.toks.len())
            .filter(|&i| lx.toks[i].kind == TokKind::Ident)
            .map(|i| lx.text(i).to_string())
            .collect();
        assert!(idents.contains(&"static".to_string()), "{idents:?}");
        assert!(idents.contains(&"mut".to_string()));
        // And the `unsafe` *inside* the raw string must not be a token.
        assert_eq!(idents.iter().filter(|s| *s == "unsafe").count(), 0);
    }

    #[test]
    fn raw_strings_with_more_hashes_and_byte_raw() {
        let src = "let a = r##\"x \"# y\"##; let b = br#\"z\"#; let c = r\"w\";";
        let lx = lex(src);
        let strs = (0..lx.toks.len())
            .filter(|&i| lx.toks[i].kind == TokKind::Str)
            .count();
        assert_eq!(strs, 3);
    }

    #[test]
    fn nested_block_comments_are_one_token() {
        // The legacy scanner's second blind spot.
        let src = "/* outer /* inner unsafe */ still comment */ fn ok() {}";
        let lx = lex(src);
        assert_eq!(lx.toks[0].kind, TokKind::BlockComment);
        assert!(lx.text(0).contains("inner unsafe"));
        let idents: Vec<_> = (0..lx.toks.len())
            .filter(|&i| lx.toks[i].kind == TokKind::Ident)
            .map(|i| lx.text(i).to_string())
            .collect();
        assert_eq!(idents, ["fn", "ok"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let ks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        let lifetimes: Vec<_> = ks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(lifetimes, ["'a", "'a"]);
        let chars = ks.iter().filter(|(k, _)| *k == TokKind::Char).count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn static_lifetime_is_a_lifetime() {
        let ks = kinds("fn f(x: &'static str) {}");
        assert!(ks
            .iter()
            .any(|(k, s)| *k == TokKind::Lifetime && s == "'static"));
    }

    #[test]
    fn raw_identifiers() {
        let ks = kinds("let r#match = 1;");
        assert!(ks
            .iter()
            .any(|(k, s)| *k == TokKind::Ident && s == "r#match"));
    }

    #[test]
    fn numbers_with_exponents_and_ranges() {
        let ks = kinds("let a = 1e-3; let b = 0xFF_u64; for i in 0..10 {}");
        let nums: Vec<_> = ks
            .iter()
            .filter(|(k, _)| *k == TokKind::Num)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(nums, ["1e-3", "0xFF_u64", "0", "10"]);
    }

    #[test]
    fn comments_carry_text_and_lines() {
        let src = "// first\nfn f() {}\n/* second\nspans lines */\nfn g() {}\n";
        let lx = lex(src);
        assert_eq!(lx.toks[0].kind, TokKind::LineComment);
        assert_eq!(lx.toks[0].line, 1);
        let block = (0..lx.toks.len())
            .find(|&i| lx.toks[i].kind == TokKind::BlockComment)
            .unwrap();
        assert_eq!(lx.toks[block].line, 3);
        let g = (0..lx.toks.len()).find(|&i| lx.is_ident(i, "g")).unwrap();
        assert_eq!(lx.toks[g].line, 5);
    }

    #[test]
    fn delimiter_pairs_match() {
        let lx = lex("fn f(a: [u8; 4]) { if x { y(); } }");
        // First `(` matches the `)` after the array type.
        let open = (0..lx.toks.len()).find(|&i| lx.is_punct(i, '(')).unwrap();
        let close = lx.pair(open).unwrap();
        assert!(lx.is_punct(close, ')'));
        assert_eq!(lx.pair(close), Some(open));
        // Outer `{` matches the final `}`.
        let brace = (0..lx.toks.len()).find(|&i| lx.is_punct(i, '{')).unwrap();
        let end = lx.pair(brace).unwrap();
        assert_eq!(end, lx.toks.len() - 1);
    }

    #[test]
    fn string_escapes_do_not_desync() {
        let lx = lex(r#"let s = "a \" b"; static mut Z: u8 = 0;"#);
        let idents: Vec<_> = (0..lx.toks.len())
            .filter(|&i| lx.toks[i].kind == TokKind::Ident)
            .map(|i| lx.text(i).to_string())
            .collect();
        assert!(idents.contains(&"static".to_string()));
    }

    #[test]
    fn unterminated_constructs_do_not_hang() {
        for src in ["/* never closed", "\"never closed", "r#\"never closed", "'"] {
            let lx = lex(src);
            assert!(!lx.toks.is_empty() || src.is_empty());
        }
    }
}
