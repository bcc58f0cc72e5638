//! Suppression pragmas: `// lint:allow(rule-name, reason)`.
//!
//! A finding can be silenced only by a pragma that names the rule *and*
//! states a reason — a bare `lint:allow(rule)` is itself a diagnostic, so
//! suppressions stay auditable. A pragma covers its own line (trailing
//! comment) and the line directly below it (standalone comment above the
//! offending statement).

use crate::lexer::{Token, TokenKind};

/// One parsed suppression pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// The rule being suppressed.
    pub rule: String,
    /// The mandatory justification (trimmed, non-empty once validated).
    pub reason: String,
    /// Line the pragma comment starts on.
    pub line: u32,
    /// Column of the `lint:allow` marker.
    pub col: u32,
}

/// A malformed pragma — reported as a finding by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaError {
    /// What is wrong with it.
    pub message: String,
    /// Line of the offending comment.
    pub line: u32,
    /// Column of the `lint:allow` marker.
    pub col: u32,
}

/// Extracts all pragmas (and pragma mistakes) from a token stream.
pub fn collect(tokens: &[Token]) -> (Vec<Pragma>, Vec<PragmaError>) {
    let mut pragmas = Vec::new();
    let mut errors = Vec::new();
    for tok in tokens.iter().filter(|t| t.kind == TokenKind::Comment) {
        // Doc comments are prose *about* code (often about pragmas
        // themselves); only plain comments carry directives.
        if tok.text.starts_with("///")
            || tok.text.starts_with("//!")
            || tok.text.starts_with("/**")
            || tok.text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = tok.text.find("lint:allow") else {
            continue;
        };
        // Column of the marker within the comment (character-accurate for
        // the ASCII `// ` prefixes that precede it in practice).
        let col = tok.col + tok.text[..at].chars().count() as u32;
        let rest = &tok.text[at + "lint:allow".len()..];
        match parse_args(rest) {
            Ok((rule, reason)) => pragmas.push(Pragma {
                rule,
                reason,
                line: tok.line,
                col,
            }),
            Err(message) => errors.push(PragmaError {
                message,
                line: tok.line,
                col,
            }),
        }
    }
    (pragmas, errors)
}

/// Parses `(rule-name, reason text)` following the `lint:allow` marker.
fn parse_args(rest: &str) -> Result<(String, String), String> {
    let rest = rest.trim_start();
    let Some(inner) = rest.strip_prefix('(') else {
        return Err("pragma must be written `lint:allow(rule-name, reason)`".to_string());
    };
    let Some(end) = inner.find(')') else {
        return Err("pragma is missing its closing `)`".to_string());
    };
    let inner = &inner[..end];
    let (rule, reason) = match inner.split_once(',') {
        Some((rule, reason)) => (rule.trim(), reason.trim()),
        None => (inner.trim(), ""),
    };
    if rule.is_empty() {
        return Err("pragma names no rule".to_string());
    }
    if !crate::rules::RULE_NAMES.contains(&rule) {
        return Err(format!(
            "pragma names unknown rule `{rule}` (known: {})",
            crate::rules::RULE_NAMES.join(", ")
        ));
    }
    if reason.is_empty() {
        return Err(format!(
            "suppression of `{rule}` requires a reason: `lint:allow({rule}, why this is sound)`"
        ));
    }
    Ok((rule.to_string(), reason.to_string()))
}

impl Pragma {
    /// Whether this pragma silences a finding of `rule` at `line`.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.rule == rule && (self.line == line || self.line + 1 == line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn well_formed_pragma_parses() {
        let toks = lex("x(); // lint:allow(no-float-eq, exact zero guard before division)\n");
        let (pragmas, errors) = collect(&toks);
        assert!(errors.is_empty());
        assert_eq!(pragmas.len(), 1);
        assert_eq!(pragmas[0].rule, "no-float-eq");
        assert_eq!(pragmas[0].reason, "exact zero guard before division");
        assert!(pragmas[0].covers("no-float-eq", 1));
        assert!(pragmas[0].covers("no-float-eq", 2));
        assert!(!pragmas[0].covers("no-float-eq", 3));
        assert!(!pragmas[0].covers("no-thread-sleep", 1));
    }

    #[test]
    fn reasonless_pragma_is_an_error() {
        let toks = lex("// lint:allow(no-thread-sleep)\n");
        let (pragmas, errors) = collect(&toks);
        assert!(pragmas.is_empty());
        assert_eq!(errors.len(), 1);
        assert!(errors[0].message.contains("requires a reason"));
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let toks = lex("// lint:allow(no-such-rule, because)\n");
        let (_, errors) = collect(&toks);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].message.contains("unknown rule"));
    }

    #[test]
    fn doc_comments_are_prose_not_directives() {
        let toks = lex("/// write `lint:allow(no-float-eq, why)` above the line\nfn f() {}\n");
        let (pragmas, errors) = collect(&toks);
        assert!(pragmas.is_empty() && errors.is_empty());
        let toks = lex("//! syntax: lint:allow(rule, reason)\n");
        let (pragmas, errors) = collect(&toks);
        assert!(pragmas.is_empty() && errors.is_empty());
    }

    #[test]
    fn pragma_inside_string_is_ignored() {
        let toks = lex(r#"let s = "lint:allow(no-float-eq)";"#);
        let (pragmas, errors) = collect(&toks);
        assert!(pragmas.is_empty() && errors.is_empty());
    }
}
