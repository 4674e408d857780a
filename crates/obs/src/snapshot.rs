//! Deterministic point-in-time metric snapshots with text exposition.

use std::fmt::Write as _;

use crate::histogram::{bucket_upper_bound, HistogramSnapshot};

/// A deterministic view of every instrument at one moment.
///
/// All three series are kept sorted by metric name, so two snapshots of the
/// same state are structurally equal and serialize byte-identically.
/// `merge` folds another snapshot in: counters add, gauges add (per-shard
/// occupancies sum into a fleet occupancy), histograms merge exactly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    histograms: Vec<(String, HistogramSnapshot)>,
}

fn upsert<T>(series: &mut Vec<(String, T)>, name: &str, value: T, fold: impl Fn(&mut T, T)) {
    match series.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
        Ok(i) => fold(&mut series[i].1, value),
        Err(i) => series.insert(i, (name.to_string(), value)),
    }
}

fn lookup<'a, T>(series: &'a [(String, T)], name: &str) -> Option<&'a T> {
    series
        .binary_search_by(|(n, _)| n.as_str().cmp(name))
        .ok()
        .map(|i| &series[i].1)
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to counter `name` (creating it at `v`).
    pub fn add_counter(&mut self, name: &str, v: u64) {
        upsert(&mut self.counters, name, v, |cur, v| {
            *cur = cur.wrapping_add(v)
        });
    }

    /// Sets gauge `name` to `v` (replacing any prior value).
    pub fn set_gauge(&mut self, name: &str, v: i64) {
        upsert(&mut self.gauges, name, v, |cur, v| *cur = v);
    }

    /// Merges `snap` into histogram `name` (creating it).
    pub fn add_histogram(&mut self, name: &str, snap: HistogramSnapshot) {
        upsert(&mut self.histograms, name, snap, |cur, snap| {
            cur.merge(&snap)
        });
    }

    /// Folds `other` into `self`: counters and gauges add, histograms
    /// merge. Used to combine per-shard snapshots into a fleet view.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            self.add_counter(name, *v);
        }
        for (name, v) in &other.gauges {
            upsert(&mut self.gauges, name, *v, |cur, v| *cur += v);
        }
        for (name, h) in &other.histograms {
            self.add_histogram(name, h.clone());
        }
    }

    /// The counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        lookup(&self.counters, name).copied()
    }

    /// The gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        lookup(&self.gauges, name).copied()
    }

    /// The histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        lookup(&self.histograms, name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> &[(String, i64)] {
        &self.gauges
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> &[(String, HistogramSnapshot)] {
        &self.histograms
    }

    /// Just the count-typed metrics — the deterministic subset compared
    /// bit-for-bit across single-threaded and sharded runs. Gauges and
    /// histograms carry wall-clock timings and instantaneous occupancies,
    /// which legitimately differ run to run.
    pub fn counters_only(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Hand-written JSON exposition. Counters and gauges become integer
    /// maps; each histogram becomes an object with `count`, `sum`, `min`,
    /// `max`, `mean`, `p50`, `p90`, `p99`. Keys appear in sorted order, so
    /// equal snapshots serialize byte-identically.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {}", escape_json(name), v);
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {}", escape_json(name), v);
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.1}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                escape_json(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99()
            );
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Prometheus-style text exposition: counters as `counter`, gauges as
    /// `gauge`, histograms as cumulative `le`-labelled buckets plus `_sum`
    /// and `_count`. Metric names are sanitized to `[a-zA-Z0-9_]`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} gauge\n{n} {v}");
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cum = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                if b == 0 {
                    continue;
                }
                cum += b;
                let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cum}", bucket_upper_bound(i));
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}\n{n}_count {}", h.sum, h.count);
        }
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_keeps_sorted_order_and_folds() {
        let mut s = MetricsSnapshot::new();
        s.add_counter("z", 1);
        s.add_counter("a", 2);
        s.add_counter("m", 3);
        s.add_counter("a", 5);
        let names: Vec<&str> = s.counters().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
        assert_eq!(s.counter("a"), Some(7));
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn merge_adds_counters_and_gauges() {
        let mut a = MetricsSnapshot::new();
        a.add_counter("c", 10);
        a.set_gauge("g", 4);
        let mut b = MetricsSnapshot::new();
        b.add_counter("c", 5);
        b.add_counter("only_b", 1);
        b.set_gauge("g", 2);
        a.merge(&b);
        assert_eq!(a.counter("c"), Some(15));
        assert_eq!(a.counter("only_b"), Some(1));
        assert_eq!(a.gauge("g"), Some(6));
    }

    #[test]
    fn json_is_deterministic_and_parses_structurally() {
        let mut s = MetricsSnapshot::new();
        s.add_counter("ingest.records", 100);
        s.set_gauge("queue.depth", -2);
        let mut h = HistogramSnapshot::empty();
        h.record(10);
        h.record(2000);
        s.add_histogram("stage.clean_ns", h);
        let j1 = s.to_json();
        let j2 = s.clone().to_json();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"ingest.records\": 100"));
        assert!(j1.contains("\"queue.depth\": -2"));
        assert!(j1.contains("\"count\": 2"));
        // A histogram is one line: its name plus exactly these eight keys.
        let hist = j1.lines().find(|l| l.contains("\"stage.clean_ns\"")).expect("histogram line");
        for key in ["count", "sum", "min", "max", "mean", "p50", "p90", "p99"] {
            assert!(hist.contains(&format!("\"{key}\": ")), "missing {key} in {hist}");
        }
        assert_eq!(hist.matches("\": ").count(), 9, "unexpected key in {hist}");
        // A histogram nothing was recorded into is omitted, so every
        // exported `count` is >= 1 and the quantiles are real samples.
        let registry = crate::ObsRegistry::new();
        let _unused = registry.histogram("never.recorded");
        registry.histogram("stage.clean_ns").record(10);
        let j3 = registry.snapshot().to_json();
        assert!(j3.contains("\"stage.clean_ns\"") && !j3.contains("never.recorded"), "{j3}");
        // Balanced braces: crude structural check without a JSON parser.
        assert_eq!(
            j1.matches('{').count(),
            j1.matches('}').count(),
            "unbalanced braces in {j1}"
        );
    }

    #[test]
    fn empty_snapshot_json_has_all_sections() {
        let j = MetricsSnapshot::new().to_json();
        for key in ["counters", "gauges", "histograms"] {
            assert!(j.contains(&format!("\"{key}\": {{}}")), "{j}");
        }
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let mut s = MetricsSnapshot::new();
        let mut h = HistogramSnapshot::empty();
        h.record(1);
        h.record(1);
        h.record(100);
        s.add_histogram("lat.ns", h);
        let text = s.to_prometheus();
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"1\"} 2"));
        assert!(text.contains("lat_ns_bucket{le=\"127\"} 3"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_ns_count 3"));
    }

    #[test]
    fn counters_only_strips_timing_series() {
        let mut s = MetricsSnapshot::new();
        s.add_counter("c", 1);
        s.set_gauge("g", 1);
        let mut h = HistogramSnapshot::empty();
        h.record(1);
        s.add_histogram("h", h);
        let c = s.counters_only();
        assert_eq!(c.counter("c"), Some(1));
        assert!(c.gauges().is_empty());
        assert!(c.histograms().is_empty());
    }
}
