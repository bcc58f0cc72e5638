//! A registry of named counters, gauges, and fixed-bucket histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`-backed
//! clones whose update paths are single atomic operations — safe to call
//! from hot loops (a monitor poll, a sender retry) without locking. The
//! registry itself is only locked at registration and snapshot time.
//!
//! A [`Snapshot`] is a point-in-time copy of every metric, serializable to
//! a human-readable text table ([`Snapshot::to_text`]) and to JSON
//! ([`Snapshot::to_json`]) for scraping.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        // lint:allow(relaxed-atomics-audit, monotone counter; readers need eventual totals, no inter-metric ordering)
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // lint:allow(relaxed-atomics-audit, monotone counter; readers need eventual totals, no inter-metric ordering)
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value (for counters mirrored from an external total,
    /// e.g. `MonitorStats::accepted`).
    #[inline]
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }
}

/// An instantaneous value (stored as `f64` bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bounds of the finite buckets, ascending; an implicit final
    /// bucket catches everything above the last bound.
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Running sum of observed values, as `f64` bits (CAS loop).
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram: `bounds.len() + 1` buckets, the last one
/// unbounded.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramCore {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let core = &self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(core.bounds.len());
        // lint:allow(relaxed-atomics-audit, per-bucket tallies are independent monotone counts; snapshots tolerate torn cross-bucket views)
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // lint:allow(relaxed-atomics-audit, count mirrors bucket totals; snapshot consistency is best-effort by design)
        core.count.fetch_add(1, Ordering::Relaxed);
        let mut prev = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(prev) + value).to_bits();
            // lint:allow(relaxed-atomics-audit, CAS retry loop over one cell; success needs no ordering with other memory)
            match core.sum_bits.compare_exchange_weak(
                prev,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => prev = actual,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean of all observed values, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() / n as f64)
    }

    fn snapshot(&self) -> SnapshotValue {
        let core = &self.0;
        SnapshotValue::Histogram {
            bounds: core.bounds.clone(),
            counts: core
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A registry of named metrics; clones share the same underlying map.
///
/// # Examples
///
/// ```
/// use afd_obs::Registry;
///
/// let registry = Registry::new();
/// let polls = registry.counter("monitor.polls");
/// polls.inc();
/// polls.add(2);
/// registry.gauge("monitor.watched").set(3.0);
/// let snap = registry.snapshot();
/// assert_eq!(snap.counter("monitor.polls"), Some(3));
/// assert!(snap.to_text().contains("monitor.watched"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        match self.metrics.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.lock();
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            #[expect(
                clippy::panic,
                reason = "documented Panics contract; kind misregistration is a startup programming error"
            )]
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.lock();
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            #[expect(
                clippy::panic,
                reason = "documented Panics contract; kind misregistration is a startup programming error"
            )]
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// The histogram named `name`, registering it with `bounds` on first
    /// use (later calls ignore `bounds` and return the existing one).
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered as a different kind, or if `bounds`
    /// are not finite and strictly ascending.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut map = self.lock();
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds.to_vec())))
        {
            Metric::Histogram(h) => h.clone(),
            #[expect(
                clippy::panic,
                reason = "documented Panics contract; kind misregistration is a startup programming error"
            )]
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.lock();
        Snapshot {
            entries: map
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => SnapshotValue::Counter(c.get()),
                        Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
                        Metric::Histogram(h) => h.snapshot(),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// One metric's value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// A counter's total.
    Counter(u64),
    /// A gauge's instantaneous value.
    Gauge(f64),
    /// A histogram's buckets and summary.
    Histogram {
        /// Upper bounds of the finite buckets, ascending.
        bounds: Vec<f64>,
        /// Per-bucket counts; one more entry than `bounds` (the overflow
        /// bucket).
        counts: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Sum of observed values.
        sum: f64,
    },
}

/// A point-in-time copy of a [`Registry`], ordered by metric name.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    entries: Vec<(String, SnapshotValue)>,
}

impl Snapshot {
    /// The captured metrics, sorted by name.
    pub fn entries(&self) -> &[(String, SnapshotValue)] {
        &self.entries
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&SnapshotValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// The value of counter `name`, if present and a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            SnapshotValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The value of gauge `name`, if present and a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            SnapshotValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Renders the snapshot as an aligned, human-readable table.
    pub fn to_text(&self) -> String {
        let width = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in &self.entries {
            match value {
                SnapshotValue::Counter(v) => {
                    let _ = writeln!(out, "{name:<width$}  counter    {v}");
                }
                SnapshotValue::Gauge(v) => {
                    let _ = writeln!(out, "{name:<width$}  gauge      {v}");
                }
                SnapshotValue::Histogram {
                    bounds,
                    counts,
                    count,
                    sum,
                } => {
                    let mean = if *count > 0 { sum / *count as f64 } else { 0.0 };
                    let _ = writeln!(
                        out,
                        "{name:<width$}  histogram  count={count} mean={mean:.4}"
                    );
                    for (i, c) in counts.iter().enumerate() {
                        if *c == 0 {
                            continue;
                        }
                        let label = match bounds.get(i) {
                            Some(b) => format!("≤{b}"),
                            None => format!(">{}", bounds.last().copied().unwrap_or(0.0)),
                        };
                        let _ = writeln!(out, "{:<width$}    {label:<12} {c}", "");
                    }
                }
            }
        }
        out
    }

    /// Renders the snapshot as a JSON object keyed by metric name.
    ///
    /// Non-finite gauge values (which valid JSON cannot carry) are emitted
    /// as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:", json_string(name));
            match value {
                SnapshotValue::Counter(v) => {
                    let _ = write!(out, "{{\"type\":\"counter\",\"value\":{v}}}");
                }
                SnapshotValue::Gauge(v) => {
                    let _ = write!(out, "{{\"type\":\"gauge\",\"value\":{}}}", json_number(*v));
                }
                SnapshotValue::Histogram {
                    bounds,
                    counts,
                    count,
                    sum,
                } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"histogram\",\"count\":{count},\"sum\":{},\"bounds\":[",
                        json_number(*sum)
                    );
                    for (j, b) in bounds.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{}", json_number(*b));
                    }
                    out.push_str("],\"buckets\":[");
                    for (j, c) in counts.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{c}");
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push('}');
        out
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints a roundtrippable float (always with a decimal
        // point or exponent), which is valid JSON.
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn json_string(s: &str) -> String {
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

    #[test]
    fn counters_accumulate_and_share() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(r.snapshot().counter("x"), Some(5));
    }

    #[test]
    fn gauges_overwrite() {
        let r = Registry::new();
        let g = r.gauge("level");
        g.set(1.5);
        g.set(-2.5);
        assert_eq!(r.snapshot().gauge("level"), Some(-2.5));
    }

    #[test]
    fn histogram_buckets_and_summary() {
        let r = Registry::new();
        let h = r.histogram("phi", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 106.0).abs() < 1e-9);
        assert_eq!(h.mean(), Some(106.0 / 5.0));
        match r.snapshot().get("phi").unwrap() {
            SnapshotValue::Histogram { counts, .. } => {
                assert_eq!(counts, &[2, 1, 1, 1]);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("m");
        r.gauge("m");
    }

    #[test]
    fn registry_clones_share_metrics() {
        let r = Registry::new();
        let r2 = r.clone();
        r.counter("shared").inc();
        assert_eq!(r2.snapshot().counter("shared"), Some(1));
    }

    #[test]
    fn text_table_lists_every_metric() {
        let r = Registry::new();
        r.counter("monitor.accepted").add(7);
        r.gauge("watched").set(2.0);
        r.histogram("sl", &[1.0]).observe(0.5);
        let text = r.snapshot().to_text();
        for needle in ["monitor.accepted", "watched", "sl", "counter", "gauge"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let r = Registry::new();
        r.counter("c").add(3);
        r.gauge("g").set(1.25);
        r.gauge("inf").set(f64::INFINITY);
        r.histogram("h", &[0.5, 1.0]).observe(0.75);
        let json = r.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"c\":{\"type\":\"counter\",\"value\":3}"));
        assert!(json.contains("\"g\":{\"type\":\"gauge\",\"value\":1.25}"));
        assert!(json.contains("\"inf\":{\"type\":\"gauge\",\"value\":null}"));
        assert!(json.contains("\"buckets\":[0,1,0]"));
        // Balanced braces/brackets (cheap well-formedness check).
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
    }

    #[test]
    fn snapshot_lookup_misses_cleanly() {
        let snap = Registry::new().snapshot();
        assert_eq!(snap.get("nope"), None);
        assert_eq!(snap.counter("nope"), None);
        assert_eq!(snap.gauge("nope"), None);
        assert!(snap.to_text().is_empty());
        assert_eq!(snap.to_json(), "{}");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
