//! Per-file context: which crate a file belongs to, what kind of build
//! target it is, and which line ranges are test-only code.
//!
//! Rules are scoped: `io-discipline` cares only about library code of
//! `afd-runtime`, `no-thread-sleep` exempts examples and benches, and
//! everything exempts `#[cfg(test)]` blocks. This module derives all of
//! that from the file's workspace-relative path and its token stream, so
//! the rules themselves stay one-screen pattern matchers.

use crate::lexer::{Token, TokenKind};

/// What kind of compilation target a file contributes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// `src/**` of a crate: library code, the strictest scope.
    Lib,
    /// `src/bin/**`: an executable.
    Bin,
    /// `tests/**`: integration tests.
    Test,
    /// `examples/**`.
    Example,
    /// `benches/**`.
    Bench,
}

/// Everything the rules need to know about one file.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The owning crate's name (`afd-core`, …); the workspace root package
    /// is `accrual-fd`.
    pub crate_name: String,
    /// Which target tree the file lives in.
    pub kind: TargetKind,
    /// Inclusive line ranges covered by `#[cfg(test)]` items.
    pub test_spans: Vec<(u32, u32)>,
}

impl FileContext {
    /// Builds the context for `path` (workspace-relative, `/`-separated)
    /// from its already-lexed tokens.
    pub fn new(path: &str, tokens: &[Token]) -> Self {
        FileContext {
            path: path.to_string(),
            crate_name: crate_of(path),
            kind: kind_of(path),
            test_spans: test_spans(tokens),
        }
    }

    /// `true` if `line` is inside a `#[cfg(test)]` item or the whole file
    /// is a test/bench target.
    pub fn is_test_line(&self, line: u32) -> bool {
        matches!(self.kind, TargetKind::Test)
            || self
                .test_spans
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// `true` for library code outside any test span — the scope most
    /// rules default to.
    pub fn is_library_line(&self, line: u32) -> bool {
        matches!(self.kind, TargetKind::Lib) && !self.is_test_line(line)
    }

    /// `true` if this file is a crate root (`src/lib.rs`).
    pub fn is_crate_root(&self) -> bool {
        self.path == "src/lib.rs"
            || (self.path.starts_with("crates/") && self.path.ends_with("/src/lib.rs"))
    }
}

fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name.to_string();
        }
    }
    // Everything else (src/, examples/, tests/ at the workspace root)
    // belongs to the root package.
    "accrual-fd".to_string()
}

fn kind_of(path: &str) -> TargetKind {
    let segments: Vec<&str> = path.split('/').collect();
    let has = |dir: &str| {
        // Only count target directories at a crate's top level
        // (`tests/…`, `crates/x/tests/…`), not arbitrary nesting.
        segments.first() == Some(&dir)
            || (segments.first() == Some(&"crates") && segments.get(2) == Some(&dir))
    };
    if has("tests") {
        TargetKind::Test
    } else if has("examples") {
        TargetKind::Example
    } else if has("benches") {
        TargetKind::Bench
    } else if path.contains("/src/bin/") || path.starts_with("src/bin/") {
        TargetKind::Bin
    } else {
        TargetKind::Lib
    }
}

/// Finds the line spans of items annotated `#[cfg(test)]` (including
/// composed forms like `#[cfg(all(test, unix))]`).
///
/// The scan is structural, not semantic: after such an attribute, the
/// annotated item extends to the close of its first brace block, or to the
/// first `;` if one appears before any `{` (e.g. `#[cfg(test)] use x;`).
fn test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if let Some(after_attr) = cfg_test_attr_end(&code, i) {
            let start_line = code[i].line;
            let end_line = item_end_line(&code, after_attr);
            spans.push((start_line, end_line));
            // Continue scanning *after* the item: nested cfg(test) inside a
            // cfg(test) mod adds nothing.
            while i < code.len() && code[i].line <= end_line {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    spans
}

/// If `code[i..]` starts a `#[cfg(…test…)]` attribute, returns the index
/// just past its closing `]`.
fn cfg_test_attr_end(code: &[&Token], i: usize) -> Option<usize> {
    let tok = |j: usize| code.get(j).map(|t| t.text.as_str());
    if tok(i) != Some("#") || tok(i + 1) != Some("[") || tok(i + 2) != Some("cfg") {
        return None;
    }
    if tok(i + 3) != Some("(") {
        return None;
    }
    // Scan the balanced (…) for a `test` identifier that is *not* inside a
    // `not(…)` group: `#[cfg(all(test, unix))]` gates test code, while
    // `#[cfg(not(test))]` gates live code and must stay linted.
    let mut groups: Vec<&str> = Vec::new();
    let mut saw_test = false;
    let mut j = i + 3;
    let mut prev_ident = "";
    while j < code.len() {
        match code[j].text.as_str() {
            "(" => {
                groups.push(prev_ident);
                prev_ident = "";
            }
            ")" => {
                groups.pop();
                if groups.is_empty() {
                    break;
                }
                prev_ident = "";
            }
            "test" if code[j].kind == TokenKind::Ident => {
                if !groups.contains(&"not") {
                    saw_test = true;
                }
                prev_ident = "test";
            }
            text => {
                prev_ident = if code[j].kind == TokenKind::Ident {
                    text
                } else {
                    ""
                };
            }
        }
        j += 1;
    }
    if !saw_test {
        return None;
    }
    // Expect the closing `]` right after the `)`.
    if tok(j + 1) == Some("]") {
        Some(j + 2)
    } else {
        None
    }
}

/// The last line of the item starting at `code[start]`: the close of its
/// first balanced brace block, or the first top-level `;` if that comes
/// first. Stacked attributes (`#[cfg(test)] #[allow(…)] mod t {…}`) are
/// skipped over transparently because `#` … `]` contain no `{` or `;`.
fn item_end_line(code: &[&Token], start: usize) -> u32 {
    let mut depth = 0usize;
    for tok in &code[start..] {
        match tok.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return tok.line;
                }
            }
            ";" if depth == 0 => return tok.line,
            _ => {}
        }
    }
    code.last().map_or(1, |t| t.line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn crate_and_kind_classification() {
        let ctx = FileContext::new("crates/afd-core/src/time.rs", &[]);
        assert_eq!(ctx.crate_name, "afd-core");
        assert_eq!(ctx.kind, TargetKind::Lib);
        assert!(!ctx.is_crate_root());

        let ctx = FileContext::new("crates/afd-runtime/src/lib.rs", &[]);
        assert!(ctx.is_crate_root());

        let ctx = FileContext::new("crates/afd-obs/tests/online_offline.rs", &[]);
        assert_eq!(ctx.kind, TargetKind::Test);
        assert!(ctx.is_test_line(1));

        let ctx = FileContext::new("examples/live_chaos.rs", &[]);
        assert_eq!(ctx.crate_name, "accrual-fd");
        assert_eq!(ctx.kind, TargetKind::Example);

        let ctx = FileContext::new("crates/afd-bench/src/bin/e8_kappa_loss.rs", &[]);
        assert_eq!(ctx.kind, TargetKind::Bin);
    }

    #[test]
    fn cfg_test_mod_is_a_test_span() {
        let src = "pub fn live() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let toks = lex(src);
        let ctx = FileContext::new("crates/afd-core/src/x.rs", &toks);
        assert_eq!(ctx.test_spans, vec![(3, 6)]);
        assert!(ctx.is_library_line(1));
        assert!(!ctx.is_library_line(5));
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, unix))]\nmod tests { }\nfn after() {}\n";
        let ctx = FileContext::new("src/x.rs", &lex(src));
        assert_eq!(ctx.test_spans, vec![(1, 2)]);
        assert!(ctx.is_library_line(3));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        // `#[cfg(not(test))]` gates *live* code — it must stay linted.
        let src = "#[cfg(not(test))]\nfn live() { }\n#[cfg(unix)]\nfn f() {}\n";
        let ctx = FileContext::new("src/x.rs", &lex(src));
        assert!(ctx.test_spans.is_empty());
    }

    #[test]
    fn semicolon_terminated_item() {
        let src = "#[cfg(test)]\nuse std::thread::sleep;\nfn live() {}\n";
        let ctx = FileContext::new("src/x.rs", &lex(src));
        assert_eq!(ctx.test_spans, vec![(1, 2)]);
        assert!(ctx.is_library_line(3));
    }

    #[test]
    fn stacked_attributes_extend_to_the_item() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n fn x() {}\n}\n";
        let ctx = FileContext::new("src/x.rs", &lex(src));
        assert_eq!(ctx.test_spans, vec![(1, 5)]);
    }
}
