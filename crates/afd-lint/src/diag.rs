//! Findings and their two renderings: `path:line:col` text for humans,
//! and a line-oriented JSON document for CI tooling.

use std::fmt::Write as _;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired (one of [`crate::rules::RULE_NAMES`] or
    /// `invalid-pragma`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human explanation of what is wrong and what to do instead.
    pub message: String,
}

/// The outcome of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, in file/line order.
    pub findings: Vec<Finding>,
    /// How many findings were silenced by reasoned pragmas.
    pub suppressed: usize,
    /// How many files were scanned.
    pub files_scanned: usize,
}

impl Report {
    /// `true` when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}:{}: [{}] {}",
                f.path, f.line, f.col, f.rule, f.message
            );
        }
        let _ = writeln!(
            out,
            "afd-lint: {} finding(s), {} suppressed, {} file(s) scanned",
            self.findings.len(),
            self.suppressed,
            self.files_scanned
        );
        out
    }

    /// Renders the report as a JSON document (no external dependencies, so
    /// the encoder is hand-rolled over our known-shape data).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \"message\": {}}}",
                json_str(f.rule),
                json_str(&f.path),
                f.line,
                f.col,
                json_str(&f.message)
            );
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        let _ = write!(
            out,
            "],\n  \"suppressed\": {},\n  \"files_scanned\": {}\n}}\n",
            self.suppressed, self.files_scanned
        );
        out
    }
}

/// Escapes `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            findings: vec![Finding {
                rule: "no-thread-sleep",
                path: "crates/x/src/a.rs".to_string(),
                line: 7,
                col: 13,
                message: "sleeps in library code".to_string(),
            }],
            suppressed: 2,
            files_scanned: 5,
        }
    }

    #[test]
    fn text_rendering_is_grep_friendly() {
        let text = sample().render_text();
        assert!(text.contains("crates/x/src/a.rs:7:13: [no-thread-sleep] sleeps in library code"));
        assert!(text.contains("1 finding(s), 2 suppressed, 5 file(s) scanned"));
    }

    #[test]
    fn json_rendering_escapes_and_structures() {
        let mut report = sample();
        report.findings[0].message = "say \"no\"\n".to_string();
        let json = report.render_json();
        assert!(json.contains("\"rule\": \"no-thread-sleep\""));
        assert!(json.contains("\\\"no\\\"\\n"));
        assert!(json.contains("\"suppressed\": 2"));
        assert!(json.contains("\"files_scanned\": 5"));
    }

    #[test]
    fn empty_report_is_valid_json_shape() {
        let json = Report::default().render_json();
        assert!(json.contains("\"findings\": []"));
    }
}
