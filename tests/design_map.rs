//! DESIGN.md §8 maps every item of the paper to code. This test keeps
//! that map honest: every backticked `afd_<crate>::…` path in §8, brace
//! groups expanded, must name a crate directory that exists, module files
//! that exist, and an item that appears in its module file or in the
//! crate's `lib.rs` re-exports.

use std::fs;
use std::path::Path;

/// The text of §8, up to the next top-level section or the end.
fn section_8(design: &str) -> &str {
    let start = design.find("\n## 8.").expect("DESIGN.md has a section 8");
    let rest = &design[start + 1..];
    let end = rest[1..].find("\n## ").map_or(rest.len(), |i| i + 1);
    &rest[..end]
}

/// Every backticked span of `text`.
fn backticked(text: &str) -> impl Iterator<Item = &str> {
    text.split('`').skip(1).step_by(2)
}

/// Expands the brace groups of a path: `a::{b, c::{d, e}}` gives `a::b`,
/// `a::c::d` and `a::c::e`.
fn expand(path: &str) -> Vec<String> {
    let Some(open) = path.find('{') else {
        return vec![path.to_string()];
    };
    let close = path.rfind('}').expect("balanced braces");
    let (prefix, inner, suffix) = (&path[..open], &path[open + 1..close], &path[close + 1..]);
    let mut parts = Vec::new();
    let (mut depth, mut from) = (0, 0);
    for (i, c) in inner.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(&inner[from..i]);
                from = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&inner[from..]);
    parts
        .into_iter()
        .flat_map(|part| expand(&format!("{prefix}{}{suffix}", part.trim())))
        .collect()
}

/// Whether `word` occurs in `text` as a whole identifier.
fn has_word(text: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(word).any(|(i, _)| {
        let before = text[..i].chars().next_back();
        let after = text[i + word.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

/// Checks one expanded path, returning what is wrong with it.
fn check(root: &Path, path: &str) -> Result<(), String> {
    let mut segments = path.split("::").map(|s| {
        // Drop call parentheses and the like: `zoo()` names `zoo`.
        let end = s
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(s.len());
        &s[..end]
    });
    let krate = segments.next().unwrap_or_default();
    let crate_dir = root.join("crates").join(krate.replace('_', "-"));
    if !crate_dir.is_dir() {
        return Err(format!("no crate directory {}", crate_dir.display()));
    }
    let lib = crate_dir.join("src/lib.rs");
    let lib_text = fs::read_to_string(&lib).map_err(|e| format!("{}: {e}", lib.display()))?;
    // Walk the module path while a module file exists; what is left names
    // an item (and possibly its associated items).
    let (mut dir, mut file) = (crate_dir.join("src"), lib);
    let mut items = Vec::new();
    for segment in segments.filter(|s| !s.is_empty()) {
        let flat = dir.join(format!("{segment}.rs"));
        let nested = dir.join(segment).join("mod.rs");
        if items.is_empty() && (flat.is_file() || nested.is_file()) {
            file = if flat.is_file() { flat } else { nested };
            dir = dir.join(segment);
        } else {
            items.push(segment);
        }
    }
    let text = fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    for (i, item) in items.iter().enumerate() {
        // The item itself may be a re-export at the crate root; what hangs
        // off it (a method, a variant) must be in the module's own file.
        let found = has_word(&text, item) || (i == 0 && has_word(&lib_text, item));
        if !found {
            return Err(format!("`{item}` not in {}", file.display()));
        }
    }
    Ok(())
}

#[test]
fn design_section_8_names_real_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let paths: Vec<String> = backticked(section_8(&design))
        .filter(|span| span.starts_with("afd_"))
        .flat_map(expand)
        .collect();
    assert!(
        paths.len() >= 40,
        "only {} paths found in §8: is the section still there?",
        paths.len()
    );
    let stale: Vec<String> = paths
        .iter()
        .filter_map(|p| check(root, p).err().map(|e| format!("{p}: {e}")))
        .collect();
    assert!(
        stale.is_empty(),
        "DESIGN.md §8 names missing code:\n{}",
        stale.join("\n")
    );
}

#[test]
fn brace_groups_expand_to_every_path() {
    assert_eq!(
        expand("afd_core::time::{Timestamp, Duration}"),
        ["afd_core::time::Timestamp", "afd_core::time::Duration"]
    );
    assert_eq!(
        expand("afd_runtime::{ShardedMonitor, x::{a, b}}"),
        [
            "afd_runtime::ShardedMonitor",
            "afd_runtime::x::a",
            "afd_runtime::x::b"
        ]
    );
    assert_eq!(expand("afd_omega"), ["afd_omega"]);
}

#[test]
fn a_stale_name_is_reported() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(check(root, "afd_core::time::Timestamp").is_ok());
    assert!(check(root, "afd_core::suspicion::SuspicionLevel::quantize").is_ok());
    assert!(check(root, "afd_gone::metrics::analyze").is_err());
    assert!(check(root, "afd_core::time::NoSuchItem").is_err());
}
