//! Fixture-driven self-tests for the rule engine.
//!
//! Each rule gets a known-bad snippet (must flag, with exact rule name,
//! path, and line) and a pragma'd variant (must pass and count as
//! suppressed). Fixtures live under `tests/fixtures/`, a directory the
//! workspace walker skips precisely because these files violate the rules
//! on purpose.
//!
//! Fixtures are linted under *virtual* workspace paths so each lands in
//! the scope its rule targets (e.g. the relaxed-atomics fixture poses as
//! an `afd-obs` source file).

use std::fs;
use std::path::Path;

use afd_lint::diag::Finding;
use afd_lint::rules::lint_source;

/// Reads a fixture and lints it as if it lived at `virtual_path`.
fn lint_fixture(name: &str, virtual_path: &str) -> (Vec<Finding>, usize) {
    let on_disk = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = fs::read_to_string(&on_disk)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", on_disk.display()));
    lint_source(virtual_path, &src)
}

/// Asserts that `findings` contains exactly one finding of `rule` at
/// `line`, carrying `path`.
fn assert_single(findings: &[Finding], rule: &str, path: &str, line: u32) {
    assert_eq!(
        findings.len(),
        1,
        "expected exactly one {rule} finding, got: {findings:?}"
    );
    assert_eq!(findings[0].rule, rule);
    assert_eq!(findings[0].path, path);
    assert_eq!(findings[0].line, line);
}

#[test]
fn no_float_eq_fires_on_literals_and_constants() {
    let path = "crates/afd-core/src/suspicion.rs";
    let (findings, _) = lint_fixture("no_float_eq_bad.rs", path);
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "no-float-eq"));
    assert!(findings.iter().all(|f| f.path == path));
    let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![3, 7, 11]);
}

#[test]
fn no_float_eq_honors_reasoned_pragma() {
    let (findings, suppressed) =
        lint_fixture("no_float_eq_suppressed.rs", "crates/afd-sim/src/loss.rs");
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn no_thread_sleep_fires_in_library_code() {
    let path = "crates/afd-runtime/src/sender.rs";
    let (findings, _) = lint_fixture("no_thread_sleep_bad.rs", path);
    assert_single(&findings, "no-thread-sleep", path, 3);
}

#[test]
fn no_thread_sleep_exempts_examples() {
    let (findings, _) = lint_fixture("no_thread_sleep_bad.rs", "examples/live_chaos.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn no_thread_sleep_honors_reasoned_pragma() {
    let (findings, suppressed) = lint_fixture(
        "no_thread_sleep_suppressed.rs",
        "crates/afd-runtime/src/sender.rs",
    );
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn io_discipline_fires_in_runtime_library_code() {
    let path = "crates/afd-runtime/src/retry.rs";
    let (findings, _) = lint_fixture("io_discipline_bad.rs", path);
    assert_single(&findings, "io-discipline", path, 3);
}

#[test]
fn io_discipline_exempts_the_persist_module_and_other_crates() {
    let (findings, _) = lint_fixture("io_discipline_bad.rs", "crates/afd-runtime/src/persist.rs");
    assert!(findings.is_empty(), "{findings:?}");
    let (findings, _) = lint_fixture("io_discipline_bad.rs", "crates/afd-lint/src/walk.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn io_discipline_honors_reasoned_pragma() {
    let (findings, suppressed) = lint_fixture(
        "io_discipline_suppressed.rs",
        "crates/afd-runtime/src/retry.rs",
    );
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn relaxed_atomics_audit_fires_on_rmw_not_load() {
    let path = "crates/afd-obs/src/registry.rs";
    let (findings, _) = lint_fixture("relaxed_atomics_bad.rs", path);
    // Only the fetch_add (line 6) — the Relaxed load on line 7 is fine.
    assert_single(&findings, "relaxed-atomics-audit", path, 6);
}

#[test]
fn relaxed_atomics_audit_covers_runtime_but_not_core() {
    // The runtime's lock-free paths (engine counters, epoch snapshots) are
    // in scope alongside afd-obs; afd-core has no atomics to audit.
    let path = "crates/afd-runtime/src/retry.rs";
    let (findings, _) = lint_fixture("relaxed_atomics_bad.rs", path);
    assert_single(&findings, "relaxed-atomics-audit", path, 6);

    let (findings, _) = lint_fixture("relaxed_atomics_bad.rs", "crates/afd-core/src/stats/mod.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn relaxed_atomics_audit_honors_reasoned_pragma() {
    let (findings, suppressed) = lint_fixture(
        "relaxed_atomics_suppressed.rs",
        "crates/afd-obs/src/registry.rs",
    );
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn no_alloc_in_hot_path_fires_on_each_allocation_form() {
    let path = "crates/afd-runtime/src/engine.rs";
    let (findings, suppressed) = lint_fixture("no_alloc_bad.rs", path);
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "no-alloc-in-hot-path"));
    assert!(findings.iter().all(|f| f.path == path));
    let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![3, 5, 11]); // Vec::new, .to_vec(), vec!
    assert_eq!(suppressed, 0);
}

#[test]
fn no_alloc_in_hot_path_is_scoped_to_the_intake_files() {
    // The same snippet in a runtime file off the frame path passes: the
    // rule polices the intake pipeline, not the whole crate.
    let (findings, _) = lint_fixture("no_alloc_bad.rs", "crates/afd-runtime/src/retry.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn no_alloc_in_hot_path_covers_the_intern_slab() {
    // The PR 10 intern slab joined the intake hot path: bare
    // allocations there fire like anywhere else on the frame path...
    let path = "crates/afd-runtime/src/intern.rs";
    let (findings, _) = lint_fixture("no_alloc_bad.rs", path);
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "no-alloc-in-hot-path"));
    // ...while the slab idiom itself — construction-time `vec![…]`
    // under a reasoned pragma, allocation-free probes — is clean.
    let (findings, suppressed) = lint_fixture("no_alloc_slab_suppressed.rs", path);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 2);
}

#[test]
fn no_alloc_in_hot_path_honors_reasoned_pragma() {
    let (findings, suppressed) = lint_fixture(
        "no_alloc_suppressed.rs",
        "crates/afd-runtime/src/transport.rs",
    );
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn crate_hygiene_fires_on_unprotected_roots() {
    let path = "crates/afd-runtime/src/lib.rs";
    let (findings, _) = lint_fixture("crate_hygiene_bad.rs", path);
    assert_single(&findings, "crate-hygiene", path, 1);
}

#[test]
fn crate_hygiene_ignores_non_roots() {
    let (findings, _) = lint_fixture("crate_hygiene_bad.rs", "crates/afd-runtime/src/wire.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn crate_hygiene_honors_reasoned_pragma() {
    let (findings, suppressed) =
        lint_fixture("crate_hygiene_suppressed.rs", "crates/afd-x/src/lib.rs");
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn reasonless_pragma_is_rejected_and_does_not_suppress() {
    let path = "crates/afd-sim/src/loss.rs";
    let (findings, suppressed) = lint_fixture("pragma_no_reason.rs", path);
    assert_eq!(suppressed, 0, "a reasonless pragma must not suppress");
    assert_eq!(findings.len(), 2, "{findings:?}");
    // The malformed pragma itself…
    assert!(findings
        .iter()
        .any(|f| f.rule == "invalid-pragma" && f.line == 3 && f.message.contains("reason")));
    // …and the float comparison it failed to silence.
    assert!(findings
        .iter()
        .any(|f| f.rule == "no-float-eq" && f.line == 4));
}

#[test]
fn a_pragma_that_suppresses_nothing_is_reported() {
    let path = "crates/afd-sim/src/rng.rs";
    let (findings, suppressed) = lint_fixture("pragma_suppresses_nothing.rs", path);
    // The pragma over `lo == hi` (no literal, so no finding) is stale...
    assert_single(&findings, "invalid-pragma", path, 3);
    assert!(
        findings[0].message.contains("suppresses nothing"),
        "{findings:?}"
    );
    // ...while two trailing pragmas on adjacent lines both count as used,
    // though the first also covers the second's line.
    assert_eq!(suppressed, 2);
}

#[test]
fn the_workspace_itself_is_clean() {
    // The acceptance gate, as a test: zero unsuppressed findings across
    // the real workspace.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = afd_lint::lint_workspace(&root).expect("workspace scan");
    assert!(
        report.is_clean(),
        "workspace has unsuppressed findings:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 100, "walker found too few files");
    // A rule scoped to a file that no longer exists checks nothing.
    for path in afd_lint::rules::named_files() {
        assert!(
            root.join(path).is_file(),
            "a rule names {path}, which is gone"
        );
    }
}
