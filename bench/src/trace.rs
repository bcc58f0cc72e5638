//! In-memory spans around every call into the system, written out when the
//! run ends.
//!
//! A span is `{name, start, end, parent, epoch}`: `parent` is the index of
//! the span that was open when this one began, `epoch` ties the spans of
//! one closed-loop epoch together. A span's *self time* is its duration
//! minus the part of it its children cover. With tracing off `begin`/`end`
//! cost one branch and read no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::sut::Timer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
    pub epoch: u64,
}

/// Handle of an open span; `NONE` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

const NONE: u32 = u32::MAX;

/// Spans kept at most; a traced window records far fewer.
const MAX_SPANS: usize = 4_000_000;

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    timer: Timer,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Count, total time and self time of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(timer: Timer) -> Self {
        Tracer {
            on: false,
            timer,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, epoch: u64) -> SpanId {
        if !self.on || self.spans.len() >= MAX_SPANS {
            return SpanId(NONE);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: self.timer.ns(),
            end: 0,
            parent: self.open.last().copied(),
            epoch,
        });
        self.open.push(id);
        SpanId(id)
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id.0 == NONE {
            return;
        }
        let now = self.timer.ns();
        self.spans[id.0 as usize].end = now;
        // Spans close in the order they nest; tolerate a skipped `end`.
        while let Some(top) = self.open.pop() {
            if top == id.0 {
                break;
            }
            self.spans[top as usize].end = now;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.end.saturating_sub(span.start);
            t.self_ns += self_ns;
        }
        out
    }

    /// `{workload, seed, totals, spans}` as JSON.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::with_capacity(64 + self.spans.len() * 72);
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\","
        );
        s.push_str("\"totals\":{");
        for (i, (name, t)) in self.totals().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{name}\":{{\"count\":{},\"total\":{},\"self\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        s.push_str("},\"spans\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":",
                span.name, span.start, span.end
            );
            match span.parent {
                Some(p) => {
                    let _ = write!(s, "{p}");
                }
                None => s.push_str("null"),
            }
            let _ = write!(s, ",\"epoch\":{}}}", span.epoch);
        }
        s.push_str("\n]}\n");
        s
    }

    /// Writes [`to_json`](Self::to_json) to `path`, making its directory.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(workload, seed))
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p as usize];
            let start = span.start.max(parent.start);
            let end = span.end.min(parent.end);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.end.saturating_sub(span.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            epoch: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span("epoch", 0, 100, None),
            span("send_burst", 10, 30, Some(0)),
            span("tick", 40, 90, Some(0)),
            span("recv", 45, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 35, 15]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span("epoch", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)), // overlaps a by 10
            span("c", 190, 250, Some(0)), // hangs over the parent's end
            span("d", 50, 105, Some(0)),  // starts before the parent
        ];
        // cover = [100,105) ∪ [110,170) ∪ [190,200) = 5 + 60 + 10
        assert_eq!(self_times(&spans)[0], 25);
    }

    #[test]
    fn tracer_off_records_nothing_and_on_nests() {
        let mut tr = Tracer::new(Timer::new());
        let id = tr.begin("tick", 1);
        tr.end(id);
        assert!(tr.spans().is_empty());

        tr.set_on(true);
        let epoch = tr.begin("epoch", 7);
        let tick = tr.begin("tick", 7);
        tr.end(tick);
        let level = tr.begin("reader.level", 7);
        tr.end(level);
        tr.end(epoch);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end >= s.start && s.epoch == 7));
        let totals = tr.totals();
        assert_eq!(totals["epoch"].count, 1);
        assert!(totals["epoch"].self_ns <= totals["epoch"].total_ns);
    }

    #[test]
    fn trace_file_is_json_with_every_span() {
        let mut tr = Tracer::new(Timer::new());
        tr.set_on(true);
        let a = tr.begin("epoch", 0);
        let b = tr.begin("tick", 0);
        tr.end(b);
        tr.end(a);
        let text = tr.to_json("test", 3);
        assert!(text.starts_with("{\"workload\":\"test\",\"seed\":3,"));
        assert_eq!(text.matches("\"name\":").count(), 2);
        assert!(text.contains("\"parent\":null"));
        assert!(text.contains("\"parent\":0"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
