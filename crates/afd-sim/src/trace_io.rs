//! Reading and writing arrival traces as CSV.
//!
//! The φ paper evaluated detectors on *recorded* heartbeat traces (a
//! week-long Japan–Switzerland WAN capture). This module gives the same
//! workflow to users of this crate: capture `(seq, sent, delivered)`
//! tuples from a real system, write them with [`write_csv`], and replay
//! them through the shipping monitor with any detector
//! (`afd_runtime::replay`) — or export a simulated trace for analysis
//! elsewhere.
//!
//! The format is one comment line of metadata, one header line, then one
//! row per heartbeat. Empty delivery fields mean the heartbeat was lost;
//! a row fills both of them or neither:
//!
//! ```
//! let csv = "\
//! ## accrual-fd-trace v1 crash_ns=- horizon_ns=60000000000 interval_ns=1000000000
//! seq,sent_ns,delivered_ns,delivered_local_ns
//! 1,1000000000,1102000000,1102000000
//! 2,2000000000,,
//! ";
//! let trace = afd_sim::read_csv(csv.as_bytes())?;
//! assert_eq!((trace.sent_count(), trace.delivered_count()), (2, 1));
//! # Ok::<(), afd_sim::trace_io::TraceReadError>(())
//! ```

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

use afd_core::time::{Duration, Timestamp};

use crate::trace::{ArrivalTrace, HeartbeatRecord};

/// A malformed trace file.
#[derive(Debug)]
pub enum TraceReadError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A syntactic problem, with the offending line number (1-based).
    Parse {
        /// Line number of the problem.
        line: usize,
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceReadError::Io(e) => write!(f, "trace read failed: {e}"),
            TraceReadError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceReadError::Io(e) => Some(e),
            TraceReadError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for TraceReadError {
    fn from(e: io::Error) -> Self {
        TraceReadError::Io(e)
    }
}

/// Writes `trace` as CSV.
///
/// # Errors
///
/// Returns any I/O error from `writer`.
pub fn write_csv<W: Write>(trace: &ArrivalTrace, mut writer: W) -> io::Result<()> {
    let crash = trace
        .crash_time()
        .map_or_else(|| "-".to_string(), |t| t.as_nanos().to_string());
    writeln!(
        writer,
        "# accrual-fd-trace v1 crash_ns={} horizon_ns={} interval_ns={}",
        crash,
        trace.horizon().as_nanos(),
        trace.interval().as_nanos(),
    )?;
    writeln!(writer, "seq,sent_ns,delivered_ns,delivered_local_ns")?;
    for r in trace.records() {
        let d = r
            .delivered_at
            .map_or(String::new(), |t| t.as_nanos().to_string());
        let dl = r
            .delivered_local
            .map_or(String::new(), |t| t.as_nanos().to_string());
        writeln!(writer, "{},{},{},{}", r.seq, r.sent_at.as_nanos(), d, dl)?;
    }
    Ok(())
}

/// Reads a CSV trace produced by [`write_csv`] (or hand-assembled from a
/// real capture).
///
/// # Errors
///
/// Returns [`TraceReadError`] on I/O failure or malformed content.
pub fn read_csv<R: Read>(reader: R) -> Result<ArrivalTrace, TraceReadError> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines().enumerate();

    // Metadata line.
    let meta = lines.next().ok_or_else(|| parse_err(1, "empty file"))?.1?;
    if !meta.starts_with("# accrual-fd-trace v1") {
        return Err(parse_err(1, "missing '# accrual-fd-trace v1' header"));
    }
    let mut crash = None;
    let mut horizon = None;
    let mut interval = None;
    for token in meta.split_whitespace() {
        if let Some(v) = token.strip_prefix("crash_ns=") {
            if v != "-" {
                crash = Some(Timestamp::from_nanos(parse_u64(v, 1)?));
            }
        } else if let Some(v) = token.strip_prefix("horizon_ns=") {
            horizon = Some(Timestamp::from_nanos(parse_u64(v, 1)?));
        } else if let Some(v) = token.strip_prefix("interval_ns=") {
            interval = Some(Duration::from_nanos(parse_u64(v, 1)?));
        }
    }
    let horizon = horizon.ok_or_else(|| parse_err(1, "missing horizon_ns"))?;
    let interval = interval.ok_or_else(|| parse_err(1, "missing interval_ns"))?;

    // Column header.
    let header = lines
        .next()
        .ok_or_else(|| parse_err(2, "missing column header"))?
        .1?;
    if header.trim() != "seq,sent_ns,delivered_ns,delivered_local_ns" {
        return Err(parse_err(2, "unexpected column header"));
    }

    let mut records: Vec<HeartbeatRecord> = Vec::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 4 {
            return Err(parse_err(
                line_no,
                format!("expected 4 fields, got {}", fields.len()),
            ));
        }
        let seq = parse_u64(fields[0], line_no)?;
        let sent_at = Timestamp::from_nanos(parse_u64(fields[1], line_no)?);
        let delivered_at = parse_opt(fields[2], line_no)?.map(Timestamp::from_nanos);
        let delivered_local = parse_opt(fields[3], line_no)?.map(Timestamp::from_nanos);
        // A half-delivered row would count as delivered in the trace's
        // statistics while no replay ever delivers it.
        if delivered_at.is_some() != delivered_local.is_some() {
            return Err(parse_err(
                line_no,
                "delivered_ns and delivered_local_ns must both be set or both be empty",
            ));
        }
        if let Some(prev) = records.last().filter(|prev| prev.seq >= seq) {
            return Err(parse_err(
                line_no,
                format!(
                    "sequence numbers not strictly ascending: seq {seq} after seq {}",
                    prev.seq
                ),
            ));
        }
        records.push(HeartbeatRecord {
            seq,
            sent_at,
            delivered_at,
            delivered_local,
        });
    }
    Ok(ArrivalTrace::new(records, crash, horizon, interval))
}

fn parse_err(line: usize, message: impl Into<String>) -> TraceReadError {
    TraceReadError::Parse {
        line,
        message: message.into(),
    }
}

fn parse_u64(s: &str, line: usize) -> Result<u64, TraceReadError> {
    s.trim()
        .parse()
        .map_err(|_| parse_err(line, format!("invalid integer {s:?}")))
}

fn parse_opt(s: &str, line: usize) -> Result<Option<u64>, TraceReadError> {
    let s = s.trim();
    if s.is_empty() {
        Ok(None)
    } else {
        parse_u64(s, line).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::simulate;

    #[test]
    fn roundtrip_preserves_trace() {
        let scenario = Scenario::wan_jitter()
            .with_horizon(Timestamp::from_secs(30))
            .with_crash_at(Timestamp::from_secs(20));
        let trace = simulate(&scenario, 5);

        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).unwrap();
        let restored = read_csv(buf.as_slice()).unwrap();
        assert_eq!(restored, trace);
    }

    #[test]
    fn roundtrip_without_crash() {
        let trace = simulate(&Scenario::lan().with_horizon(Timestamp::from_secs(5)), 1);
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).unwrap();
        let restored = read_csv(buf.as_slice()).unwrap();
        assert_eq!(restored.crash_time(), None);
        assert_eq!(restored, trace);
    }

    #[test]
    fn lost_heartbeats_have_empty_fields() {
        let trace = ArrivalTrace::new(
            vec![HeartbeatRecord {
                seq: 1,
                sent_at: Timestamp::from_secs(1),
                delivered_at: None,
                delivered_local: None,
            }],
            None,
            Timestamp::from_secs(10),
            Duration::from_secs(1),
        );
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("1,1000000000,,"));
        assert_eq!(read_csv(buf.as_slice()).unwrap(), trace);
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_csv("nonsense\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceReadError::Parse { line: 1, .. }));
        assert!(err.to_string().contains("header"));
    }

    #[test]
    fn rejects_bad_field_count() {
        let text = "# accrual-fd-trace v1 crash_ns=- horizon_ns=10 interval_ns=1\n\
                    seq,sent_ns,delivered_ns,delivered_local_ns\n\
                    1,2,3\n";
        let err = read_csv(text.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceReadError::Parse { line: 3, .. }));
    }

    #[test]
    fn rejects_bad_integer() {
        let text = "# accrual-fd-trace v1 crash_ns=- horizon_ns=10 interval_ns=1\n\
                    seq,sent_ns,delivered_ns,delivered_local_ns\n\
                    abc,2,3,4\n";
        let err = read_csv(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("invalid integer"));
    }

    #[test]
    fn rejects_out_of_order_sequences() {
        let text = "# accrual-fd-trace v1 crash_ns=- horizon_ns=10 interval_ns=1\n\
                    seq,sent_ns,delivered_ns,delivered_local_ns\n\
                    2,2,,\n\
                    1,3,,\n";
        let err = read_csv(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("ascending"));
        // The offending row is the file's fourth line.
        assert!(
            matches!(err, TraceReadError::Parse { line: 4, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_half_delivered_rows() {
        for row in ["1,2,3,", "1,2,,3"] {
            let text = format!(
                "# accrual-fd-trace v1 crash_ns=- horizon_ns=10 interval_ns=1\n\
                 seq,sent_ns,delivered_ns,delivered_local_ns\n\
                 {row}\n"
            );
            let err = read_csv(text.as_bytes()).unwrap_err();
            assert!(
                matches!(err, TraceReadError::Parse { line: 3, .. }),
                "{row}: {err}"
            );
            assert!(err.to_string().contains("both"), "{row}: {err}");
        }
    }
}
