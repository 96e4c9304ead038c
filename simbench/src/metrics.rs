//! Metric names, units and the result line.
//!
//! Every name printed by the benchmark comes from [`END_TO_END`] or
//! [`PER_LAYER`]; `BENCHMARK.json` lists the same names (a self-test
//! checks that the two agree).

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
    ("allocs_per_event", "allocs/event"),
];

/// Per-layer metrics, from the traced run: `(name, unit)`. Counts come
/// from `RunReport`/`RunProfile` or from the benchmark's replay calls;
/// times are span self times.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("sim.engine.run_s", "s"),
    ("sim.engine.ns_per_event", "ns"),
    ("sim.engine.events", "count"),
    ("sim.engine.events.cpu_done", "count"),
    ("sim.engine.events.io_done", "count"),
    ("sim.engine.events.delivered", "count"),
    ("sim.engine.events.gem_held", "count"),
    ("sim.engine.conts.locking", "count"),
    ("sim.engine.conts.messaging", "count"),
    ("sim.engine.conts.storage", "count"),
    ("sim.engine.allocs", "count"),
    ("sim.experiments.build_s", "s"),
    ("workload.trace.synthesize_s", "s"),
    ("workload.draws", "count"),
    ("workload.ns_per_draw", "ns"),
    ("workload.refs_per_txn", "refs/txn"),
    ("node.buffer.lookups", "count"),
    ("node.buffer.ns_per_lookup", "ns"),
    ("node.buffer.hit_ratio", "ratio"),
    ("node.buffer.evictions", "count"),
    ("lockmgr.requests", "count"),
    ("lockmgr.ns_per_request", "ns"),
    ("lockmgr.ns_per_release", "ns"),
    ("lockmgr.conflict_ratio", "ratio"),
    ("desim.calendar.ops", "count"),
    ("desim.calendar.ns_per_op", "ns"),
    ("desim.calendar.depth", "events"),
    ("storage.calls", "count"),
    ("storage.ns_per_call", "ns"),
    ("harness.artifact_s", "s"),
    ("harness.peak_rss_mb", "MB"),
    ("expstore.append_s", "s"),
    ("expstore.read_s", "s"),
    ("expstore.index_s", "s"),
    ("expstore.gate_s", "s"),
    ("expstore.records", "count"),
    ("bench.trace_overhead", "ratio"),
];

/// True if `name` is a valid metric name: starts with a letter or a
/// digit, at most 64 characters from letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// True if `unit` is a valid unit: at most 16 characters from letters,
/// digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Metric values in the order of one of the name tables.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, &'static str, f64)>);

impl Values {
    /// Records `value` for `name`, taking the unit from the tables.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => slot.2 = value,
            None => self.0.push((name, unit, value)),
        }
    }

    /// The recorded `(name, unit, value)` triples, in insertion order.
    pub fn entries(&self) -> &[(&'static str, &'static str, f64)] {
        &self.0
    }

    /// Names from `table` that have no value yet.
    pub fn missing(&self, table: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        table
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| !self.0.iter().any(|(m, _, _)| m == n))
            .collect()
    }
}

/// Renders a value for the result line: every digit Rust's shortest
/// round-trip formatting gives; non-finite values become 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let metrics: Vec<String> = values
        .entries()
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_and_units_are_valid_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (n, u) in &all {
            assert!(valid_name(n), "{n}");
            assert!(valid_unit(u), "{u}");
        }
        let names: std::collections::BTreeSet<_> = all.iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn result_line_shape() {
        let mut v = Values::default();
        v.set("wall_s", 1.25);
        v.set("setup_s", f64::NAN);
        let line = result_line(true, 3, 0, &v);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        assert_eq!(v.missing(&END_TO_END).len(), 3);
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("sim.engine.run_s"));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(!valid_unit("m s"));
    }
}
