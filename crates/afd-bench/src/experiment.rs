//! What the experiments print: per-seed QoS reports ([`afd_obs::analyze`])
//! aggregated per parameter point, in aligned ASCII tables.

use afd_core::stats::Summary;
use afd_obs::QosReport;

/// Aggregated QoS metrics over many seeded runs of one parameter point.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatedQos {
    /// Runs contributing to the aggregate.
    pub runs: usize,
    /// Detection time summary (crash runs that detected), seconds.
    pub detection_time: Option<Summary>,
    /// Fraction of crash runs that reached permanent suspicion.
    pub detection_coverage: f64,
    /// Mean mistakes per run.
    pub mean_mistakes: f64,
    /// Mistake rate summary (per second).
    pub mistake_rate: Option<Summary>,
    /// Query accuracy summary.
    pub query_accuracy: Option<Summary>,
    /// Mistake recurrence summary, seconds (runs with ≥ 2 mistakes).
    pub mistake_recurrence: Option<Summary>,
    /// Mistake duration summary, seconds (runs with a recovered mistake).
    pub mistake_duration: Option<Summary>,
    /// Good period summary, seconds.
    pub good_period: Option<Summary>,
}

/// Aggregates per-run reports into one [`AggregatedQos`].
pub fn aggregate(reports: &[QosReport]) -> AggregatedQos {
    let summary = |metric: fn(&QosReport) -> Option<f64>| {
        Summary::from_samples(&reports.iter().filter_map(metric).collect::<Vec<_>>())
    };
    let runs = reports.len();
    let per_run = |total: f64| if runs == 0 { 0.0 } else { total / runs as f64 };
    let detections = reports
        .iter()
        .filter(|r| r.detection_time.is_some())
        .count();
    AggregatedQos {
        runs,
        detection_time: summary(|r| r.detection_time),
        // Meaningful when the caller aggregates crash runs only: the
        // fraction of them whose crash was permanently detected.
        detection_coverage: per_run(detections as f64),
        mean_mistakes: per_run(reports.iter().map(|r| r.mistakes as f64).sum()),
        mistake_rate: summary(|r| Some(r.mistake_rate)),
        query_accuracy: summary(|r| Some(r.query_accuracy)),
        mistake_recurrence: summary(|r| r.mistake_recurrence),
        mistake_duration: summary(|r| r.mistake_duration),
        good_period: summary(|r| r.good_period),
    }
}

/// A simple aligned ASCII table for experiment output.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let write_row = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| -> std::fmt::Result {
            let mut line = String::from("|");
            for (w, cell) in widths.iter().zip(cells) {
                line.push(' ');
                line.push_str(cell);
                line.extend(std::iter::repeat_n(' ', w - cell.chars().count() + 1));
                line.push('|');
            }
            writeln!(f, "{line}")
        };
        write_row(f, &self.headers)?;
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        write_row(f, &sep)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats an optional summary's mean as a fixed-width cell.
pub fn cell_mean(s: &Option<Summary>, digits: usize) -> String {
    match s {
        Some(s) => format!("{:.*}", digits, s.mean),
        None => "—".to_string(),
    }
}

/// Formats a float as a cell.
pub fn cell(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Formats a float in scientific notation.
pub fn cell_sci(v: f64) -> String {
    format!("{v:.2e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(detection: Option<f64>, mistakes: u64, rate: f64, acc: f64) -> QosReport {
        QosReport {
            detection_time: detection,
            mistakes,
            mistake_rate: rate,
            query_accuracy: acc,
            ..QosReport::default()
        }
    }

    #[test]
    fn aggregate_combines_runs() {
        let agg = aggregate(&[
            report(Some(1.0), 2, 0.1, 0.9),
            report(Some(3.0), 0, 0.0, 1.0),
            report(None, 4, 0.2, 0.8),
        ]);
        assert_eq!(agg.runs, 3);
        assert!((agg.detection_time.unwrap().mean - 2.0).abs() < 1e-12);
        assert!((agg.detection_coverage - 2.0 / 3.0).abs() < 1e-12);
        assert!((agg.mean_mistakes - 2.0).abs() < 1e-12);
        assert!((agg.query_accuracy.unwrap().mean - 0.9).abs() < 1e-12);
    }

    #[test]
    fn aggregate_of_empty_is_empty() {
        let agg = aggregate(&[]);
        assert_eq!(agg.runs, 0);
        assert_eq!(agg.detection_time, None);
        assert_eq!(agg.mean_mistakes, 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push_row(vec!["alpha".into(), "1.00".into()]);
        t.push_row(vec!["b".into(), "123456.00".into()]);
        let text = t.to_string();
        assert!(text.contains("## demo"));
        assert!(text.contains("| name  |"));
        assert!(text.contains("| alpha | 1.00      |"));
        assert!(text.contains("| b     | 123456.00 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn cell_formatting() {
        assert_eq!(cell(1.23456, 2), "1.23");
        assert_eq!(cell_sci(0.000123), "1.23e-4");
        assert_eq!(cell_mean(&None, 2), "—");
        let s = Summary::from_samples(&[2.0, 4.0]);
        assert_eq!(cell_mean(&s, 1), "3.0");
    }
}
