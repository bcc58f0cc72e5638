//! `afd-lint` — the workspace's static-analysis gate.
//!
//! A self-contained (zero-dependency) analysis pass that enforces the
//! project invariants PR 2's bugs violated: disciplined clock access,
//! panic-free detector code, no exact float comparison, virtual-time-safe
//! library code, audited relaxed atomics, and `unsafe_code`-free crates.
//! See [`rules`] for the catalogue and DESIGN.md §"Static-analysis
//! invariants" for the rationale behind each rule.
//!
//! The tool is deliberately a *lexer + rule engine*, not a parser: every
//! rule is a scoped token pattern, which keeps the pass hermetic (no
//! syn/proc-macro machinery), fast (one pass per file), and honest about
//! what it can see. Rules that would need type inference (is this `==` on
//! floats?) are literal-driven approximations, documented as such.
//!
//! Run it as `cargo run -p afd-lint -- --check`; CI runs it with `--json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod context;
pub mod diag;
pub mod lexer;
pub mod pragma;
pub mod rules;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

use diag::Report;

/// Lints every workspace `.rs` file under `root`.
///
/// Each file is lexed exactly once; the token stream is shared by the
/// file-context derivation, all ten rules, and pragma collection. The
/// [`lexer::lex_calls`] probe makes that a testable equation (see
/// `tests/single_pass.rs`), not a code-review hope.
///
/// # Errors
///
/// Returns [`io::Error`] if the tree cannot be walked or a file cannot be
/// read; individual rule findings are data, not errors.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    for rel in walk::rust_files(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        let path = walk::rel_str(&rel);
        let tokens = lexer::lex(&src);
        let ctx = context::FileContext::new(&path, &tokens);
        let (findings, suppressed) = rules::lint_tokens(&ctx, &tokens);
        report.findings.extend(findings);
        report.suppressed += suppressed;
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    Ok(report)
}
