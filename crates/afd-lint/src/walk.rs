//! Workspace traversal: find every `.rs` file the rules should see.
//!
//! Skipped subtrees, and why:
//!
//! - `target/` — build output, not source;
//! - `vendor/` — offline stand-ins for external crates (`rand`,
//!   `proptest`); they mimic third-party APIs and are not subject to
//!   project invariants;
//! - `.git/` and other dotdirs;
//! - `tests/fixtures/` — the lint crate's own known-bad snippets, which
//!   exist precisely to violate the rules.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", "results"];

/// Collects every lintable `.rs` file under `root`, returned as
/// workspace-relative `/`-separated paths, sorted for deterministic
/// output.
pub fn rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Converts a relative [`PathBuf`] into the `/`-separated string form the
/// rules and diagnostics use.
pub fn rel_str(rel: &Path) -> String {
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_this_workspace_and_skips_vendor_and_fixtures() {
        // The lint crate sits at crates/afd-lint, two levels below the
        // workspace root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = rust_files(&root).expect("workspace must be walkable");
        let strs: Vec<String> = files.iter().map(|p| rel_str(p)).collect();
        assert!(strs.iter().any(|p| p == "crates/afd-core/src/lib.rs"));
        assert!(strs.iter().any(|p| p == "src/lib.rs"));
        assert!(!strs.iter().any(|p| p.starts_with("vendor/")));
        assert!(!strs.iter().any(|p| p.starts_with("target/")));
        assert!(!strs.iter().any(|p| p.contains("/fixtures/")));
    }
}
