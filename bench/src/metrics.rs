//! Names and units of every metric, in the order they are printed.
//! `BENCHMARK.json` lists the same names; a unit test holds the two
//! together.

/// What a user of the system sees. Reported by the untraced run, gated by
/// the bounds in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ns_per_hb", "ns"),
    ("reader_ns_per_query", "ns"),
    ("visible_min_us", "us"),
    ("delivery_ratio", "ratio"),
    ("wire_bytes_per_hb", "B/hb"),
    ("rss_bytes_per_peer", "B/peer"),
];

/// Single layers and run diagnostics. Reported by the traced run, never
/// gated.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lane.recv_ns_per_frame", "ns"),
    ("lane.syscalls_per_frame", "count"),
    ("sender.encode_send_ns_per_frame", "ns"),
    ("transport.chan_recv_ns_per_frame", "ns"),
    ("wire.decode_delta_ns_per_frame", "ns"),
    ("wire.decode_intern_ns_per_frame", "ns"),
    ("wire.encode_ns_per_frame", "ns"),
    ("intern.get_ns", "ns"),
    ("intern.insert_ns", "ns"),
    ("ring.push_batch_ns_per_frame", "ns"),
    ("ring.pop_ns_per_frame", "ns"),
    ("ring.dropped", "count"),
    ("detectors.phi_record_ns", "ns"),
    ("detectors.phi_level_ns", "ns"),
    ("shard.publish_ns_per_peer", "ns"),
    ("shard.accept_ns_per_frame", "ns"),
    ("shard.watch_ns", "ns"),
    ("shard.unwatch_ns", "ns"),
    ("shard.reader_snapshot_ns_per_peer", "ns"),
    ("shard.reader_level_contended_ns", "ns"),
    ("engine.stage_decode_ns_per_frame", "ns"),
    ("engine.stage_route_ns_per_frame", "ns"),
    ("engine.stage_update_ns_per_frame", "ns"),
    ("engine.handoff_ns_per_hb", "ns"),
    ("persist.dump_us_per_peer", "us"),
    ("persist.decode_us_per_peer", "us"),
    ("persist.import_us_per_peer", "us"),
    ("persist.bytes_per_peer", "B/peer"),
    ("epochs", "count"),
    ("epoch_ns_per_hb_p50", "ns"),
    ("epoch_ns_per_hb_p99", "ns"),
    ("visible_p50_us", "us"),
    ("visible_p99_us", "us"),
    ("setup_wall_s", "s"),
    ("unattributed_ns_per_hb", "ns"),
    ("trace_overhead_ratio", "ratio"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (0 where that has no meaning).
    pub samples: usize,
}

/// Collects values by name and hands them back in table order, refusing a
/// name the table does not have and a table entry nobody reported.
#[derive(Debug)]
pub struct Sheet {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<(f64, usize)>>,
}

impl Sheet {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Sheet {
            table,
            values: vec![None; table.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let at = self
            .table
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[at] = Some((value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let at = self.table.iter().position(|&(n, _)| n == name)?;
        self.values[at].map(|(v, _)| v)
    }

    pub fn finish(self) -> Result<Vec<Metric>, String> {
        self.table
            .iter()
            .zip(self.values)
            .map(|(&(name, unit), v)| match v {
                Some((value, samples)) if value.is_finite() => Ok(Metric {
                    name,
                    unit,
                    value,
                    samples,
                }),
                Some((value, _)) => Err(format!("metric {name} is {value}")),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect()
    }
}

/// The last line of standard output: one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A float with all its digits, always with a fraction or exponent so a
/// whole value still reads as a measurement.
pub fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name), "metric name {name} used twice");
        }
        for spec in &crate::workload::SPECS {
            assert!(valid_name(spec.name));
            assert!(seen.insert(spec.name), "{} names a metric too", spec.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_unit("µs") && !valid_unit("nanoseconds-per-heartbeat"));
    }

    /// Every `"name": "<x>"` of one array of `BENCHMARK.json`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect(key);
        let open = start + json[start..].find('[').unwrap();
        let close = open + json[open..].find(']').unwrap();
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let q1 = rest.find('"').unwrap();
                let q2 = q1 + 1 + rest[q1 + 1..].find('"').unwrap();
                rest[q1 + 1..q2].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        let want = |table: &[(&str, &str)]| -> Vec<String> {
            table.iter().map(|&(n, _)| n.to_string()).collect()
        };
        assert_eq!(names_in(json, "end_to_end"), want(END_TO_END));
        assert_eq!(names_in(json, "per_layer"), want(PER_LAYER));
        let workloads: Vec<String> = crate::workload::SPECS
            .iter()
            .filter(|s| s.gated)
            .map(|s| s.name.to_string())
            .collect();
        assert_eq!(names_in(json, "workloads"), workloads);
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn sheet_refuses_gaps_and_keeps_table_order() {
        let mut sheet = Sheet::new(END_TO_END);
        for (i, &(name, _)) in END_TO_END.iter().enumerate().rev() {
            sheet.set(name, i as f64 + 0.5, i);
        }
        let metrics = sheet.finish().unwrap();
        assert_eq!(metrics[0].name, "setup_s");
        assert_eq!(metrics[1].value, 1.5);

        let mut gap = Sheet::new(END_TO_END);
        gap.set("setup_s", 1.0, 1);
        assert!(gap.finish().unwrap_err().contains("ns_per_hb"));
        let mut nan = Sheet::new(END_TO_END);
        for &(name, _) in END_TO_END {
            nan.set(name, f64::NAN, 0);
        }
        assert!(nan.finish().is_err());
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let metrics = [
            Metric {
                name: "ns_per_hb",
                unit: "ns",
                value: 1234.5678,
                samples: 9,
            },
            Metric {
                name: "delivery_ratio",
                unit: "ratio",
                value: 1.0,
                samples: 0,
            },
        ];
        assert_eq!(
            result_line(true, 10, 0, &metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ns_per_hb\": {\"value\": 1234.5678, \"unit\": \"ns\"}, \
             \"delivery_ratio\": {\"value\": 1.0, \"unit\": \"ratio\"}}}"
        );
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e-7), "0.0000001");
    }
}
