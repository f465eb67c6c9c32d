//! Rust source scanning: a small lexer that strips comments and blanks
//! string/char-literal contents so rules can pattern-match on *code*
//! without tripping over prose, plus `#[cfg(test)]` region masking and
//! `// nomc-lint: allow(<rule>)` escape-hatch parsing.
//!
//! This is deliberately not a full parser: the rules it feeds are
//! line-oriented token checks, so a faithful per-line "code view" +
//! "comment view" is all they need. The lexer understands line and
//! (nested) block comments, regular/byte strings with escapes, raw
//! strings up to any `#` arity, char literals, and lifetimes.

/// One scanned source line.
#[derive(Debug, Default)]
pub struct Line {
    /// The line with comments removed and string/char contents blanked.
    pub code: String,
    /// Concatenated comment text found on the line.
    pub comment: String,
    /// True when the line sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// A scanned file: the unit every source rule operates on.
#[derive(Debug)]
pub struct SourceFile {
    pub lines: Vec<Line>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(usize),
}

impl SourceFile {
    pub fn parse(content: &str) -> SourceFile {
        let mut lines = lex(content);
        mark_test_regions(&mut lines);
        SourceFile { lines }
    }

    /// Whether diagnostics of `rule` on 1-based `line` are suppressed by
    /// an allow directive on that line, or on a pure comment line
    /// directly above it.
    pub fn allows(&self, line: usize, rule: &str) -> bool {
        let get = |idx: Option<usize>| idx.and_then(|i| self.lines.get(i));
        if get(line.checked_sub(1)).is_some_and(|l| comment_allows(&l.comment, rule)) {
            return true;
        }
        get(line.checked_sub(2))
            .is_some_and(|l| l.code.trim().is_empty() && comment_allows(&l.comment, rule))
    }

    /// Every allow directive in the file, with its 1-based line and the
    /// 1-based lines it can suppress (its own line, plus the next line
    /// when the directive is a pure comment line).
    pub fn directives(&self) -> Vec<Directive> {
        let mut out = Vec::new();
        for (idx, line) in self.lines.iter().enumerate() {
            let Some(rules) = parse_directive(&line.comment) else {
                continue;
            };
            let at = idx + 1;
            let covers = if line.code.trim().is_empty() {
                vec![at, at + 1]
            } else {
                vec![at]
            };
            out.push(Directive {
                line: at,
                rules,
                covers,
            });
        }
        out
    }
}

/// One `// nomc-lint: allow(a, b, …)` escape hatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// 1-based line of the directive comment.
    pub line: usize,
    /// The rule tokens inside `allow(…)`, verbatim (possibly unknown).
    pub rules: Vec<String>,
    /// The 1-based lines the directive can suppress diagnostics on.
    pub covers: Vec<usize>,
}

/// Parses the rule list out of a `nomc-lint: allow(a, b, …)` directive.
///
/// The directive must be the *whole* comment (leading whitespace
/// aside): prose that merely mentions the syntax — rustdoc describing
/// the escape hatch, say — is not a directive. `//!`/`///` doc comments
/// can therefore never carry one (their text starts with `!` or `/`).
pub fn parse_directive(comment: &str) -> Option<Vec<String>> {
    let rest = comment.trim().strip_prefix("nomc-lint:")?;
    let rest = rest.trim_start().strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        None
    } else {
        Some(rules)
    }
}

/// Whether comment text is an allow directive naming `rule`.
pub fn comment_allows(comment: &str, rule: &str) -> bool {
    parse_directive(comment).is_some_and(|rules| rules.iter().any(|r| r == rule))
}

fn lex(content: &str) -> Vec<Line> {
    let chars: Vec<char> = content.chars().collect();
    let mut lines = Vec::new();
    let mut cur = Line::default();
    let mut state = State::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b') && !prev_is_ident(&chars, i) {
                    // Possible raw/byte string prefix: r"", r#""#, b"", br"".
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let raw = j > i + 1 || c == 'r';
                    if chars.get(j) == Some(&'"') {
                        for &p in &chars[i..=j] {
                            cur.code.push(p);
                        }
                        state = if raw && (hashes > 0 || chars[j - 1] == 'r' || c == 'r') {
                            State::RawStr(hashes)
                        } else {
                            State::Str
                        };
                        i = j + 1;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime.
                    if next == Some('\\') {
                        // Escaped char literal: consume to the closing quote.
                        cur.code.push('\'');
                        i += 1;
                        while i < chars.len() && chars[i] != '\n' {
                            if chars[i] == '\\' {
                                i += 2;
                                cur.code.push(' ');
                            } else if chars[i] == '\'' {
                                cur.code.push('\'');
                                i += 1;
                                break;
                            } else {
                                cur.code.push(' ');
                                i += 1;
                            }
                        }
                    } else if chars.get(i + 2) == Some(&'\'') && next != Some('\'') {
                        cur.code.push('\'');
                        cur.code.push(' ');
                        cur.code.push('\'');
                        i += 3;
                    } else {
                        // A lifetime (`'a`): keep the tick, scan on.
                        cur.code.push('\'');
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    cur.code.push(' ');
                    if chars.get(i + 1).is_some_and(|&n| n != '\n') {
                        cur.code.push(' ');
                        i += 1;
                    }
                    i += 1;
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                    cur.code.push('"');
                    for _ in 0..hashes {
                        cur.code.push('#');
                    }
                    state = State::Code;
                    i += 1 + hashes;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Marks every line belonging to a `#[cfg(test)]` item (attribute line,
/// the item header, and the full brace-delimited body). An item that
/// ends in `;` before any body (`mod tests;` declaring an external
/// file, a `use`) ends the region there.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut armed = false;
    // Open `(`/`[` groups since arming: a `;` inside one (`[u8; 4]`)
    // does not end the item.
    let mut nest: i64 = 0;
    let mut test_at: Option<i64> = None;
    for line in lines.iter_mut() {
        if line.code.contains("cfg(test)") {
            armed = true;
            nest = 0;
        }
        let mut in_test = armed || test_at.is_some();
        for c in line.code.chars() {
            match c {
                '(' | '[' => nest += 1,
                ')' | ']' => nest -= 1,
                ';' if armed && nest == 0 => armed = false,
                '{' => {
                    depth += 1;
                    if armed {
                        test_at = Some(depth);
                        armed = false;
                        in_test = true;
                    }
                }
                '}' => {
                    if test_at == Some(depth) {
                        test_at = None;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        line.in_test = in_test;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_stripped_from_code() {
        let sf = SourceFile::parse("let x = 1; // HashMap in prose\n/* SystemTime */ let y = 2;\n");
        assert!(!sf.lines[0].code.contains("HashMap"));
        assert!(sf.lines[0].comment.contains("HashMap"));
        assert!(!sf.lines[1].code.contains("SystemTime"));
        assert!(sf.lines[1].code.contains("let y = 2;"));
    }

    #[test]
    fn string_contents_are_blanked() {
        let sf = SourceFile::parse("let s = \"HashMap::new()\"; call();\n");
        assert!(!sf.lines[0].code.contains("HashMap"));
        assert!(sf.lines[0].code.contains("call();"));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let sf =
            SourceFile::parse("let s = r#\"panic!(\"x\")\"#; let t = \"a\\\"panic!\";\nf();\n");
        assert!(!sf.lines[0].code.contains("panic!"));
        assert_eq!(sf.lines[1].code, "f();");
    }

    #[test]
    fn multiline_block_comment_and_string() {
        let sf = SourceFile::parse("/* unwrap()\n unwrap() */ ok();\nlet s = \"a\nunwrap()\";\n");
        assert!(!sf.lines[0].code.contains("unwrap"));
        assert!(!sf.lines[1].code.contains("unwrap"));
        assert!(sf.lines[1].code.contains("ok();"));
        assert!(!sf.lines[3].code.contains("unwrap"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let sf = SourceFile::parse("fn f<'a>(x: &'a str) { let c = '\"'; let d = '\\''; g(x) }\n");
        let code = &sf.lines[0].code;
        assert!(code.contains("fn f<'a>(x: &'a str)"));
        assert!(code.contains("g(x)"));
    }

    #[test]
    fn cfg_test_regions_are_masked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn inner() {}\n}\nfn live2() {}\n";
        let sf = SourceFile::parse(src);
        let flags: Vec<bool> = sf.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_external_module_ends_at_its_semicolon() {
        let src = "#[cfg(test)]\nmod tests;\nfn live(x: [u8; 4]) {}\n#[cfg(test)]\nfn t(x: [u8; 4]) {\n}\n";
        let sf = SourceFile::parse(src);
        let flags: Vec<bool> = sf.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![true, true, false, true, true, true]);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let sf = SourceFile::parse("#[cfg(not(test))]\nfn live() {}\n");
        assert!(sf.lines.iter().all(|l| !l.in_test));
    }

    #[test]
    fn allow_directive_same_and_previous_line() {
        let src = "// nomc-lint: allow(determinism)\nuse std::x;\nuse std::y; // nomc-lint: allow(a, determinism)\nuse std::z;\n";
        let sf = SourceFile::parse(src);
        assert!(sf.allows(2, "determinism"));
        assert!(sf.allows(3, "determinism"));
        // Line 3's trailing allow covers only line 3 (it has code).
        assert!(!sf.allows(4, "determinism"));
        assert!(!sf.allows(2, "unit-safety"));
    }

    #[test]
    fn prose_mentioning_the_syntax_is_not_a_directive() {
        // Rustdoc that *describes* the escape hatch must not act as one
        // (nor count as a dead allow).
        let src = "//! Suppress with `# nomc-lint: allow(dep-audit)` on the line.\n// The nomc-lint: allow(x) syntax is described here.\nuse std::x;\n";
        let sf = SourceFile::parse(src);
        assert!(sf.directives().is_empty());
        assert!(!sf.allows(2, "dep-audit"));
    }

    #[test]
    fn directives_record_lines_rules_and_coverage() {
        let src = "// nomc-lint: allow(determinism)\nuse std::x;\nuse std::y; // nomc-lint: allow(a, unit-safety)\n";
        let sf = SourceFile::parse(src);
        let d = sf.directives();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].line, 1);
        assert_eq!(d[0].rules, vec!["determinism"]);
        assert_eq!(d[0].covers, vec![1, 2]);
        assert_eq!(d[1].line, 3);
        assert_eq!(d[1].rules, vec!["a", "unit-safety"]);
        assert_eq!(d[1].covers, vec![3]);
    }
}
