//! EXPERIMENTS.md quotes the E-series output it discusses: each measured
//! table is an excerpt of a committed `results/` file, between
//! `<!-- excerpt: results/<file> -->` and `<!-- /excerpt -->`. This test
//! keeps those quotes honest: every excerpted row must be a line of the
//! file it cites, and every results file must be cited by an excerpt.

use std::fs;
use std::path::Path;

const OPEN: &str = "<!-- excerpt: ";
const CLOSE: &str = "<!-- /excerpt -->";

/// Every excerpt of `doc`: the file it cites and its non-blank rows.
fn excerpts(doc: &str) -> Result<Vec<(&str, Vec<&str>)>, String> {
    let mut out = Vec::new();
    let mut lines = doc.lines().enumerate();
    while let Some((n, line)) = lines.next() {
        let Some(file) = line.strip_prefix(OPEN).and_then(|r| r.strip_suffix(" -->")) else {
            continue;
        };
        let mut rows = Vec::new();
        loop {
            match lines.next() {
                Some((_, CLOSE)) => break,
                Some((_, row)) if !row.is_empty() => rows.push(row),
                Some(_) => {}
                None => return Err(format!("the excerpt at line {} is not closed", n + 1)),
            }
        }
        out.push((file, rows));
    }
    Ok(out)
}

/// What is wrong with the excerpt `rows` of a file whose text is `text`.
fn misquotes(text: &str, rows: &[&str]) -> Vec<String> {
    if rows.is_empty() {
        return vec!["an empty excerpt".to_string()];
    }
    rows.iter()
        .filter(|row| !text.lines().any(|line| line == **row))
        .map(|row| format!("not in the file: {row}"))
        .collect()
}

fn experiments_doc(root: &Path) -> String {
    fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md")
}

#[test]
fn excerpted_rows_occur_in_their_results_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = experiments_doc(root);
    let excerpts = excerpts(&doc).expect("well-formed excerpts");
    assert!(
        excerpts.len() >= 12,
        "only {} excerpts in EXPERIMENTS.md: are the markers still there?",
        excerpts.len()
    );
    let mut problems = Vec::new();
    for (file, rows) in &excerpts {
        match fs::read_to_string(root.join(file)) {
            Ok(text) => problems.extend(
                misquotes(&text, rows)
                    .into_iter()
                    .map(|p| format!("{file}: {p}")),
            ),
            Err(e) => problems.push(format!("{file}: {e}")),
        }
    }
    assert!(
        problems.is_empty(),
        "EXPERIMENTS.md misquotes results/:\n{}",
        problems.join("\n")
    );
}

#[test]
fn every_results_file_is_cited() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = experiments_doc(root);
    let cited: Vec<&str> = excerpts(&doc)
        .expect("well-formed excerpts")
        .into_iter()
        .map(|(file, _)| file)
        .collect();
    let mut uncited: Vec<String> = fs::read_dir(root.join("results"))
        .expect("results/")
        .map(|entry| {
            format!(
                "results/{}",
                entry.expect("entry").file_name().to_string_lossy()
            )
        })
        .filter(|file| !cited.contains(&file.as_str()))
        .collect();
    uncited.sort();
    assert!(
        uncited.is_empty(),
        "EXPERIMENTS.md cites no excerpt of: {}",
        uncited.join(", ")
    );
}

#[test]
fn a_misquoted_or_unclosed_excerpt_is_reported() {
    let doc = "text\n<!-- excerpt: results/e0.txt -->\n| a | 1 |\n\n| b | 2 |\n<!-- /excerpt -->\n";
    let found = excerpts(doc).unwrap();
    assert_eq!(found, [("results/e0.txt", vec!["| a | 1 |", "| b | 2 |"])]);
    assert!(misquotes("| a | 1 |\n| b | 2 |\n", &found[0].1).is_empty());
    assert_eq!(misquotes("| a | 1 |\n| b | 3 |\n", &found[0].1).len(), 1);
    assert_eq!(misquotes("| a | 1 |\n", &[]).len(), 1);
    assert!(excerpts("<!-- excerpt: results/e0.txt -->\n| a | 1 |\n").is_err());
}
