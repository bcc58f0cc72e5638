//! The seven project-invariant rules clippy cannot state, run over a
//! file's token stream.
//!
//! Each rule is a scoped token-pattern check. The scopes encode *why* the
//! invariant exists; the last column says why clippy does not check it:
//!
//! | rule | invariant protected | why not clippy |
//! |------|---------------------|----------------|
//! | `no-float-eq` | suspicion levels are `f64`; exact comparison is a latent bug unless justified | `float_cmp` passes `x == 0.0` and `x == f64::INFINITY` |
//! | `no-thread-sleep` | library code waits on the `Clock`/callback abstractions, keeping virtual-time runs deterministic | moving it leaves the frozen `bench/src/workload.rs` pragma naming an unknown rule, an `invalid-pragma` finding |
//! | `relaxed-atomics-audit` | every `Ordering::Relaxed` read-modify-write in `afd-obs` or `afd-runtime` carries a written justification | no lint reads an argument's ordering |
//! | `crate-hygiene` | every crate root forbids `unsafe_code` | a crate without `[lints] workspace = true` escapes a workspace `forbid` |
//! | `no-alloc-in-hot-path` | the per-frame intake files stay heap-allocation-free in steady state (`.to_vec()`, `Vec::new`, `vec!`, `.collect()`, `Box::new`, `String::new`, `String::from`, `format!`, `.to_string()` and `.to_owned()` need a written justification) | no lint is scoped to a list of files |
//! | `io-discipline` | filesystem access in `afd-runtime` happens only in `persist.rs`, so crash-safe install (tmp → fsync → rename) cannot be bypassed | a root-wide `fs` ban fails on `bench/`, and clippy does not merge a crate's `clippy.toml` with the root's |
//! | `pure-query` | a shipping detector's `suspicion_level` (`afd-detectors`, `afd-runtime`) writes no field of its own, so its level is a function of the arrivals and the query time, never of who asked when | no lint reads a method body for writes to `self` |
//!
//! Clippy owns the rest: the root `clippy.toml` bans `Instant::now`,
//! `SystemTime::now`, `HashMap` and `HashSet`, and the crate roots of
//! `afd-core`, `afd-runtime` and `afd-obs` deny the panicking constructs.
//!
//! Any rule can be silenced per line with `// lint:allow(rule, reason)` —
//! see [`crate::pragma`]. A malformed pragma, or one that silences no
//! finding, is reported under the synthetic rule name `invalid-pragma`.

use crate::context::FileContext;
use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};
use crate::pragma;

/// The rule names a pragma may reference.
pub const RULE_NAMES: &[&str] = &[
    "no-float-eq",
    "no-thread-sleep",
    "relaxed-atomics-audit",
    "crate-hygiene",
    "no-alloc-in-hot-path",
    "io-discipline",
    "pure-query",
];

/// Atomic read-modify-write methods subject to the relaxed-ordering audit.
const RMW_METHODS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
    "swap",
];

/// Lints one file: lexes nothing (tokens come in pre-lexed), applies every
/// rule in scope, resolves pragmas, and returns `(unsuppressed findings,
/// suppressed count)`.
pub fn lint_tokens(ctx: &FileContext, tokens: &[Token]) -> (Vec<Finding>, usize) {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();

    let mut raw: Vec<Finding> = Vec::new();
    no_float_eq(ctx, &code, &mut raw);
    no_thread_sleep(ctx, &code, &mut raw);
    relaxed_atomics_audit(ctx, &code, &mut raw);
    crate_hygiene(ctx, &code, &mut raw);
    no_alloc_in_hot_path(ctx, &code, &mut raw);
    io_discipline(ctx, &code, &mut raw);
    pure_query(ctx, &code, &mut raw);

    let (pragmas, pragma_errors) = pragma::collect(tokens);
    let mut used = vec![false; pragmas.len()];
    let mut suppressed = 0usize;
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            let mut covered = false;
            for (p, used) in pragmas.iter().zip(&mut used) {
                if p.covers(f.rule, f.line) {
                    *used = true;
                    covered = true;
                }
            }
            suppressed += usize::from(covered);
            !covered
        })
        .collect();
    // A pragma that silences nothing is as stale as an unfulfilled
    // `#[expect]`: its rule moved, its scope changed, or the code it
    // excused is gone.
    for (p, _) in pragmas.iter().zip(&used).filter(|(_, &used)| !used) {
        findings.push(Finding {
            rule: "invalid-pragma",
            path: ctx.path.clone(),
            line: p.line,
            col: p.col,
            message: format!(
                "`lint:allow({}, …)` suppresses nothing on this line or the next; remove it",
                p.rule
            ),
        });
    }
    for err in pragma_errors {
        findings.push(Finding {
            rule: "invalid-pragma",
            path: ctx.path.clone(),
            line: err.line,
            col: err.col,
            message: err.message,
        });
    }
    findings.sort_by_key(|f| (f.line, f.col));
    (findings, suppressed)
}

/// Convenience for tests and the driver: lex + context + lint in one call.
pub fn lint_source(path: &str, src: &str) -> (Vec<Finding>, usize) {
    let tokens = crate::lexer::lex(src);
    let ctx = FileContext::new(path, &tokens);
    lint_tokens(&ctx, &tokens)
}

fn finding(ctx: &FileContext, rule: &'static str, tok: &Token, message: String) -> Finding {
    Finding {
        rule,
        path: ctx.path.clone(),
        line: tok.line,
        col: tok.col,
        message,
    }
}

/// `==` / `!=` with a float operand. Token-level type inference is out of
/// scope, so the check is literal-driven: a float literal (or an `f32::` /
/// `f64::` associated constant) on either side of the comparison.
fn no_float_eq(ctx: &FileContext, code: &[&Token], out: &mut Vec<Finding>) {
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Punct || (tok.text != "==" && tok.text != "!=") {
            continue;
        }
        if ctx.is_test_line(tok.line) {
            continue;
        }
        let left_float = i > 0 && code[i - 1].kind == TokenKind::Float;
        // Rightward: skip unary minus and open parens.
        let mut j = i + 1;
        while code.get(j).is_some_and(|t| t.text == "-" || t.text == "(") {
            j += 1;
        }
        let right_float = code.get(j).is_some_and(|t| {
            t.kind == TokenKind::Float
                || (matches!(t.text.as_str(), "f32" | "f64")
                    && code.get(j + 1).is_some_and(|n| n.text == "::"))
        });
        if left_float || right_float {
            out.push(finding(
                ctx,
                "no-float-eq",
                tok,
                "exact float comparison; suspicion levels are f64 — compare with a \
                 tolerance, use `total_cmp`, or justify an exact guard with a pragma"
                    .to_string(),
            ));
        }
    }
}

/// `thread::sleep` in library code. The sender/retry machinery takes
/// injected `sleep` callbacks precisely so production wiring chooses real
/// sleeping and deterministic runs choose virtual time; a direct call
/// hard-wires the wall clock.
fn no_thread_sleep(ctx: &FileContext, code: &[&Token], out: &mut Vec<Finding>) {
    for w in code.windows(3) {
        let [a, b, c] = w else { continue };
        if a.text == "thread"
            && a.kind == TokenKind::Ident
            && b.text == "::"
            && c.text == "sleep"
            && ctx.is_library_line(a.line)
        {
            out.push(finding(
                ctx,
                "no-thread-sleep",
                a,
                "`thread::sleep` in library code; accept a sleep callback or wait on the \
                 `Clock` abstraction so virtual-time runs stay deterministic"
                    .to_string(),
            ));
        }
    }
}

/// Crates whose lock-free code is audited: the metrics registry and the
/// runtime (the engine's counters, the sharded monitor's epoch snapshots).
const RELAXED_AUDIT_CRATES: &[&str] = &["afd-obs", "afd-runtime"];

/// Read-modify-write atomics with `Ordering::Relaxed` in the audited
/// crates require a pragma: relaxed RMWs are usually right for monotone
/// counters, but each one deserves a written claim about why no ordering
/// is needed.
fn relaxed_atomics_audit(ctx: &FileContext, code: &[&Token], out: &mut Vec<Finding>) {
    if !RELAXED_AUDIT_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident
            || !RMW_METHODS.contains(&tok.text.as_str())
            || !ctx.is_library_line(tok.line)
            || code.get(i + 1).map(|t| t.text.as_str()) != Some("(")
        {
            continue;
        }
        // Scan the balanced argument list for a `Relaxed` identifier.
        let mut depth = 0usize;
        let mut relaxed = false;
        for t in &code[i + 1..] {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                "Relaxed" if t.kind == TokenKind::Ident => relaxed = true,
                _ => {}
            }
        }
        if relaxed {
            out.push(finding(
                ctx,
                "relaxed-atomics-audit",
                tok,
                format!(
                    "`{}` with `Ordering::Relaxed`; state why no ordering is required with \
                     `// lint:allow(relaxed-atomics-audit, reason)`",
                    tok.text
                ),
            ));
        }
    }
}

/// Files on the per-frame intake hot path: every heartbeat flows through
/// them, so a steady-state heap allocation here is per-frame garbage. The
/// batched intake pipeline (`FrameBatch` arenas, SPSC rings, epoch
/// snapshots) is allocation-free by design; this rule keeps it that way.
const HOT_PATH_FILES: &[&str] = &[
    "crates/afd-runtime/src/transport.rs",
    "crates/afd-runtime/src/wire.rs",
    "crates/afd-runtime/src/intern.rs",
    "crates/afd-runtime/src/shard.rs",
    "crates/afd-runtime/src/snapshot.rs",
    "crates/afd-runtime/src/ring.rs",
    "crates/afd-runtime/src/engine.rs",
    "crates/afd-runtime/src/lane.rs",
    "crates/afd-runtime/src/varint.rs",
];

/// An allocating form in a hot-path file: a method call `.to_vec()`,
/// `.collect()` (also `.collect::<…>()`), `.to_string()` or `.to_owned()`;
/// a constructor `Vec::new`, `Box::new`, `String::new` or `String::from`;
/// a macro `vec!` or `format!`. One-time construction and cold error
/// paths are fine — say so with `// lint:allow(no-alloc-in-hot-path,
/// reason)`. A `collect` into a type that does not allocate needs the
/// same pragma: tokens do not say what is collected into.
fn no_alloc_in_hot_path(ctx: &FileContext, code: &[&Token], out: &mut Vec<Finding>) {
    if !HOT_PATH_FILES.contains(&ctx.path.as_str()) {
        return;
    }
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident || ctx.is_test_line(tok.line) {
            continue;
        }
        let next = |n: usize| code.get(i + n).map(|t| t.text.as_str());
        let method = i > 0 && code[i - 1].text == ".";
        let alloc = match tok.text.as_str() {
            "to_vec" | "to_string" | "to_owned" => method && next(1) == Some("("),
            "collect" => method && matches!(next(1), Some("(" | "::")),
            "Vec" | "Box" => next(1) == Some("::") && next(2) == Some("new"),
            "String" => next(1) == Some("::") && matches!(next(2), Some("new" | "from")),
            "vec" | "format" => next(1) == Some("!"),
            _ => false,
        };
        if alloc {
            out.push(finding(
                ctx,
                "no-alloc-in-hot-path",
                tok,
                format!(
                    "`{}` allocates in hot-path file {}; reuse a `FrameBatch`/scratch buffer, \
                     or justify a cold-path allocation with \
                     `// lint:allow(no-alloc-in-hot-path, reason)`",
                    tok.text, ctx.path
                ),
            ));
        }
    }
}

/// The one `afd-runtime` file allowed to touch the filesystem.
const PERSIST_MODULE: &str = "crates/afd-runtime/src/persist.rs";

/// `File::create`-style constructors subject to the I/O discipline rule.
const FILE_CONSTRUCTORS: &[&str] = &["create", "create_new", "open", "options"];

/// Filesystem access (`fs::…` paths, `File::create`/`open`/`options`,
/// `OpenOptions::…`) in `afd-runtime` library code outside `persist.rs`.
/// Durability is only crash-safe because every write funnels through the
/// sink's tmp → fsync → atomic-rename install; an ad-hoc `fs::write`
/// elsewhere in the runtime would silently bypass that contract.
fn io_discipline(ctx: &FileContext, code: &[&Token], out: &mut Vec<Finding>) {
    if ctx.crate_name != "afd-runtime" || ctx.path == PERSIST_MODULE {
        return;
    }
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident || !ctx.is_library_line(tok.line) {
            continue;
        }
        let next = |n: usize| code.get(i + n).map(|t| t.text.as_str());
        let io = match tok.text.as_str() {
            "fs" | "OpenOptions" => next(1) == Some("::"),
            "File" => {
                next(1) == Some("::") && next(2).is_some_and(|m| FILE_CONSTRUCTORS.contains(&m))
            }
            _ => false,
        };
        if io {
            out.push(finding(
                ctx,
                "io-discipline",
                tok,
                format!(
                    "filesystem access (`{}`) in afd-runtime outside {PERSIST_MODULE}; durable \
                     writes must go through a `SegmentSink` so the tmp → fsync → rename \
                     crash-safety contract holds",
                    tok.text
                ),
            ));
        }
    }
}

/// Every file a rule names by path, relative to the workspace root: a
/// rule whose file was split or renamed would silently check nothing.
pub fn named_files() -> impl Iterator<Item = &'static str> {
    std::iter::once(PERSIST_MODULE).chain(HOT_PATH_FILES.iter().copied())
}

/// The crates whose detectors ship: their queries must be pure. afd-core's
/// Algorithm 2 and afd-model's mutants step in the query by design.
const PURE_QUERY_PREFIXES: &[&str] = &["crates/afd-detectors/src/", "crates/afd-runtime/src/"];

/// Operators that write their left-hand side.
const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>=",
];

/// An assignment or compound assignment to `self.<field>` (or a place
/// inside it) in the body of a library `fn suspicion_level` — one finding
/// per body, at its first write. Forwarding to another detector's
/// `suspicion_level` is a call, not a write, and passes; a write through a
/// method call (`self.v.push(x)`) is beyond a token pattern.
fn pure_query(ctx: &FileContext, code: &[&Token], out: &mut Vec<Finding>) {
    if !PURE_QUERY_PREFIXES.iter().any(|p| ctx.path.starts_with(p)) {
        return;
    }
    for (i, tok) in code.iter().enumerate() {
        if tok.text != "suspicion_level"
            || i == 0
            || code[i - 1].text != "fn"
            || !ctx.is_library_line(tok.line)
        {
            continue;
        }
        // The body: from the first `{` to its match; a `;` first means a
        // declaration without one.
        let Some(open) = code[i..]
            .iter()
            .position(|t| t.text == "{" || t.text == ";")
            .map(|k| i + k)
            .filter(|&k| code[k].text == "{")
        else {
            continue;
        };
        let mut depth = 0usize;
        let mut close = code.len();
        for (k, t) in code.iter().enumerate().skip(open) {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        close = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        let body = &code[open..close];
        let mut fields: Vec<&str> = Vec::new();
        let mut first = None;
        for (k, t) in body.iter().enumerate() {
            if t.text != "self" || body.get(k + 1).map(|d| d.text.as_str()) != Some(".") {
                continue;
            }
            let Some(field) = body.get(k + 2).filter(|f| f.kind == TokenKind::Ident) else {
                continue;
            };
            if let Some(op) = place_end(body, k + 3) {
                if !fields.contains(&field.text.as_str()) {
                    fields.push(&field.text);
                }
                first.get_or_insert(body[op]);
            }
        }
        if let Some(at) = first {
            out.push(finding(
                ctx,
                "pure-query",
                at,
                format!(
                    "`suspicion_level` writes `self.{}`; a query must be a function of the \
                     arrivals and `now` — move the state change to `record_heartbeat`",
                    fields.join("`, `self.")
                ),
            ));
        }
    }
}

/// If the place expression continuing at `code[k]` (`.field`, `[index]`,
/// repeated) is followed by an assignment operator, that operator's index.
fn place_end(code: &[&Token], mut k: usize) -> Option<usize> {
    loop {
        match code.get(k)?.text.as_str() {
            "." if code.get(k + 1)?.kind == TokenKind::Ident
                && code.get(k + 2).map(|t| t.text.as_str()) != Some("(") =>
            {
                k += 2;
            }
            "[" => {
                let mut depth = 0usize;
                while k < code.len() {
                    match code[k].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                k += 1;
            }
            op if ASSIGN_OPS.contains(&op) => return Some(k),
            _ => return None,
        }
    }
}

/// Crate roots must carry `#![forbid(unsafe_code)]`.
fn crate_hygiene(ctx: &FileContext, code: &[&Token], out: &mut Vec<Finding>) {
    if !ctx.is_crate_root() {
        return;
    }
    for (i, tok) in code.iter().enumerate() {
        if tok.text == "forbid" && code.get(i + 1).is_some_and(|t| t.text == "(") {
            let mut depth = 0usize;
            for t in &code[i + 1..] {
                match t.text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    "unsafe_code" => return,
                    _ => {}
                }
            }
        }
    }
    out.push(Finding {
        rule: "crate-hygiene",
        path: ctx.path.clone(),
        line: 1,
        col: 1,
        message: "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_library_code_produces_nothing() {
        let (findings, suppressed) = lint_source(
            "crates/afd-core/src/x.rs",
            "pub fn phi(x: f64) -> f64 { x + 1.0 }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed, 0);
    }

    #[test]
    fn suppression_with_reason_works_and_counts() {
        let src = "fn f(x: f64) -> bool {\n    // lint:allow(no-float-eq, exact sentinel)\n    x == 0.0\n}\n";
        let (findings, suppressed) = lint_source("crates/afd-core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn trailing_pragma_on_same_line_works() {
        let src = "fn f(x: f64) -> bool { x == 0.0 } // lint:allow(no-float-eq, exact sentinel)\n";
        let (findings, suppressed) = lint_source("crates/afd-core/src/x.rs", src);
        assert!(findings.is_empty());
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn relaxed_rmw_needs_pragma_loads_do_not() {
        let src = "fn f(a: &AtomicU64) {\n    a.fetch_add(1, Ordering::Relaxed);\n    a.load(Ordering::Relaxed);\n}\n";
        let (findings, _) = lint_source("crates/afd-obs/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "relaxed-atomics-audit");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn relaxed_rmw_is_audited_in_runtime_but_not_core() {
        let src = "fn f(a: &AtomicU64) {\n    a.fetch_add(1, Ordering::Relaxed);\n}\n";
        let (findings, _) = lint_source("crates/afd-runtime/src/shard.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "relaxed-atomics-audit");
        let (findings, _) = lint_source("crates/afd-core/src/x.rs", src);
        assert!(findings.is_empty());
    }

    #[test]
    fn multiline_compare_exchange_is_caught_at_the_method() {
        let src = "fn f(a: &AtomicU64) {\n    let _ = a.compare_exchange_weak(\n        0,\n        1,\n        Ordering::Relaxed,\n        Ordering::Relaxed,\n    );\n}\n";
        let (findings, _) = lint_source("crates/afd-obs/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn hygiene_only_fires_on_crate_roots() {
        let src = "pub mod x;\n";
        let (findings, _) = lint_source("crates/afd-core/src/lib.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "crate-hygiene");
        let (findings, _) = lint_source("crates/afd-core/src/x.rs", src);
        assert!(findings.is_empty());
        let src = "#![forbid(unsafe_code)]\npub mod x;\n";
        let (findings, _) = lint_source("crates/afd-core/src/lib.rs", src);
        assert!(findings.is_empty());
    }

    #[test]
    fn invalid_pragma_is_its_own_finding() {
        let src = "// lint:allow(no-float-eq)\nfn f() {}\n";
        let (findings, _) = lint_source("crates/afd-core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "invalid-pragma");
    }

    #[test]
    fn float_eq_catches_associated_constants() {
        let src = "fn f(x: f64) -> bool { x == f64::INFINITY }\n";
        let (findings, _) = lint_source("crates/afd-core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "no-float-eq");
    }

    #[test]
    fn int_eq_is_fine() {
        let src = "fn f(x: u64) -> bool { x == 0 }\n";
        let (findings, _) = lint_source("crates/afd-core/src/x.rs", src);
        assert!(findings.is_empty());
    }

    #[test]
    fn thread_sleep_allowed_in_examples_not_lib() {
        let src = "fn f() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n";
        let (findings, _) = lint_source("examples/live_chaos.rs", src);
        assert!(findings.is_empty());
        let (findings, _) = lint_source("crates/afd-runtime/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "no-thread-sleep");
    }

    #[test]
    fn hot_path_allocs_are_flagged_only_in_hot_files() {
        let src = "fn f(b: &[u8]) -> Vec<u8> { b.to_vec() }\n";
        let (findings, _) = lint_source("crates/afd-runtime/src/transport.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "no-alloc-in-hot-path");
        // The same code is fine in a non-hot-path file.
        let (findings, _) = lint_source("crates/afd-runtime/src/retry.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn hot_path_rule_catches_all_three_alloc_forms() {
        let src = "fn f() {\n    let a = Vec::new();\n    let b = vec![1u8];\n    let c = b.to_vec();\n}\n";
        let (findings, _) = lint_source("crates/afd-runtime/src/engine.rs", src);
        let rules: Vec<_> = findings.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(
            rules,
            vec![
                ("no-alloc-in-hot-path", 2),
                ("no-alloc-in-hot-path", 3),
                ("no-alloc-in-hot-path", 4),
            ]
        );
    }

    #[test]
    fn hot_path_rule_covers_lane_and_varint() {
        // The multi-socket fan-in and the v2 varint codec are on the
        // per-datagram path: one allocation there is per-frame garbage
        // at a million peers.
        let src = "fn f(b: &[u8]) -> Vec<u8> { b.to_vec() }\n";
        for path in [
            "crates/afd-runtime/src/lane.rs",
            "crates/afd-runtime/src/varint.rs",
        ] {
            let (findings, _) = lint_source(path, src);
            assert_eq!(findings.len(), 1, "{path}: {findings:?}");
            assert_eq!(findings[0].rule, "no-alloc-in-hot-path", "{path}");
        }
    }

    #[test]
    fn hot_path_rule_spares_tests_and_lookalikes() {
        let src = "pub fn live() -> usize { Vec::<u8>::with_capacity(4).capacity() }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { let _ = vec![0u8; 4]; }\n}\n";
        let (findings, _) = lint_source("crates/afd-runtime/src/wire.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn hot_path_alloc_pragma_suppresses_with_reason() {
        let src = "fn f() {\n    // lint:allow(no-alloc-in-hot-path, one-time construction)\n    let a: Vec<u8> = Vec::new();\n    drop(a);\n}\n";
        let (findings, suppressed) = lint_source("crates/afd-runtime/src/shard.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn io_discipline_fires_outside_persist_only() {
        let src = "fn f() { let _ = std::fs::read(\"x\"); }\n";
        let (findings, _) = lint_source("crates/afd-runtime/src/shard.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "io-discipline");
        // The persist module is the sanctioned home of filesystem access.
        let (findings, _) = lint_source("crates/afd-runtime/src/persist.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        // Other crates are out of scope (the linter itself walks the
        // tree).
        let (findings, _) = lint_source("crates/afd-lint/src/walk.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn io_discipline_catches_file_constructors_not_lookalikes() {
        let src =
            "fn f() {\n    let _ = File::create(\"x\");\n    let _ = OpenOptions::new();\n}\n";
        let (findings, _) = lint_source("crates/afd-runtime/src/retry.rs", src);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3], "{findings:?}");
        // `File::from` and a local `fs` variable are not filesystem access.
        let src = "fn f(fs: u64) -> u64 { let _ = File::from(3); fs + 1 }\n";
        let (findings, _) = lint_source("crates/afd-runtime/src/retry.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn io_discipline_exempts_tests() {
        let src = "pub fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::fs::read(\"x\"); }\n}\n";
        let (findings, _) = lint_source("crates/afd-runtime/src/shard.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn injected_sleep_callback_is_not_flagged() {
        let src = "fn f(mut sleep: impl FnMut(u64)) { sleep(3); }\n";
        let (findings, _) = lint_source("crates/afd-runtime/src/x.rs", src);
        assert!(findings.is_empty());
    }

    #[test]
    fn pure_query_flags_a_write_to_self_in_the_query() {
        let src = "impl AccrualFailureDetector for W {\n    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {\n        if self.starved(now) {\n            self.mode = Mode::Degraded;\n            self.events += 1;\n        }\n        self.mode = Mode::Nominal;\n        self.inner.suspicion_level(now)\n    }\n}\n";
        let (findings, _) = lint_source("crates/afd-runtime/src/degrade.rs", src);
        // One finding per query body, at its first write, naming every field.
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "pure-query");
        assert_eq!(findings[0].line, 4);
        assert!(findings[0].message.contains("`self.mode`, `self.events`"));
    }

    #[test]
    fn pure_query_passes_forwarding_reads_and_comparisons() {
        let src = "impl D for Z {\n    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {\n        let level = self.members[HEAD].detector.suspicion_level(now);\n        if self.level == level.value() { self.inner.suspicion_level(now) } else { level }\n    }\n    fn record_heartbeat(&mut self, at: Timestamp) {\n        self.last = at;\n    }\n}\n";
        let (findings, _) = lint_source("crates/afd-detectors/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn pure_query_catches_places_inside_a_field() {
        let src = "fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel {\n    self.cache[now.slot()].level <<= 1;\n    self.level\n}\n";
        let (findings, _) = lint_source("crates/afd-detectors/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`self.cache`"));
    }

    #[test]
    fn pure_query_scopes_to_shipping_library_code() {
        let src = "fn suspicion_level(&mut self, _now: Timestamp) -> SuspicionLevel {\n    self.level += self.epsilon;\n    SuspicionLevel::clamped(self.level)\n}\n";
        // Algorithm 2 (afd-core) and the model's mutants step by design.
        for path in [
            "crates/afd-core/src/transform/x.rs",
            "crates/afd-model/src/mutants.rs",
        ] {
            let (findings, _) = lint_source(path, src);
            assert!(findings.is_empty(), "{path}: {findings:?}");
        }
        let test_only = format!("pub fn live() {{}}\n#[cfg(test)]\nmod tests {{\n{src}}}\n");
        let (findings, _) = lint_source("crates/afd-detectors/src/x.rs", &test_only);
        assert!(findings.is_empty(), "{findings:?}");
        // A trait's bodiless declaration has nothing to check.
        let decl = "trait T {\n    fn suspicion_level(&mut self, now: Timestamp) -> SuspicionLevel;\n}\nfn f(s: &mut S) { s.x = 1; }\n";
        let (findings, _) = lint_source("crates/afd-runtime/src/x.rs", decl);
        assert!(findings.is_empty(), "{findings:?}");
        let allowed = src.replacen(
            "    self.level",
            "    // lint:allow(pure-query, the adversary steps by design)\n    self.level",
            1,
        );
        let (findings, suppressed) = lint_source("crates/afd-detectors/src/adversary.rs", &allowed);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed, 1);
    }
}
