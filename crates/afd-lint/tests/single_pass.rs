//! The shared-lexer contract, stated as an exact equation.
//!
//! Lexing dominates the linter's runtime; the driver therefore lexes each
//! file exactly once and shares the token stream across the file-context
//! derivation, all ten rules, and pragma collection. A wall-clock
//! benchmark would assert this only probabilistically (and rot with
//! hardware); the [`afd_lint::lexer::lex_calls`] probe instead counts lex
//! invocations, so single-pass behavior is `lex calls == files scanned`,
//! exactly.
//!
//! This lives in its own integration-test binary on purpose: the probe is
//! process-global, and sibling tests that lint sources concurrently would
//! race the delta.

use std::path::Path;
use std::time::Instant;

#[test]
fn workspace_lint_lexes_each_file_exactly_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");

    let before = afd_lint::lexer::lex_calls();
    let start = Instant::now();
    let report = afd_lint::lint_workspace(&root).expect("workspace scan");
    let elapsed = start.elapsed();
    let lexed = afd_lint::lexer::lex_calls() - before;

    assert!(report.files_scanned > 100, "walker found too few files");
    assert_eq!(
        lexed, report.files_scanned as u64,
        "driver re-lexed: {lexed} lex calls for {} files",
        report.files_scanned
    );

    // Micro-benchmark context for the assertion above (informational —
    // run with `--nocapture` to see it).
    println!(
        "lint_workspace: {} files, {} lex calls, {:.1} ms ({:.1} µs/file)",
        report.files_scanned,
        lexed,
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e6 / report.files_scanned as f64
    );

    // And the pass stays single-pass under repetition: a second scan adds
    // exactly one more lex per file, not an accumulating multiple.
    let report2 = afd_lint::lint_workspace(&root).expect("second workspace scan");
    let lexed2 = afd_lint::lexer::lex_calls() - before;
    assert_eq!(lexed2, lexed + report2.files_scanned as u64);
}
