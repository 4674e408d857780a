//! Spans recorded by the benchmark around its calls into the product.
//!
//! The product is not instrumented here: every span starts and ends in the
//! benchmark's own files, at a layer boundary. Spans stay in memory until
//! the run ends; a disabled tracer (the timed passes) records nothing and
//! reads no clock.

use crate::json::{obj, Json};
use std::time::Instant;

/// Index of a span in its tracer; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

/// At most this many spans are written to the trace file (the per-name
/// totals always cover all of them).
const MAX_SPANS_WRITTEN: usize = 50_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// The 512-record chunk the work belongs to; spans of one chunk share it.
    pub trace_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTime {
    pub name: &'static str,
    pub count: u64,
    pub sum_ns: u64,
    /// `sum_ns` minus the part covered by child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end). For spans that
    /// enclose other spans — use [`span`](Self::span) around a single call.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, trace_id: u32) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, trace_id });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span (or bare, when tracing is off).
    pub fn span<R>(&mut self, name: &'static str, parent: SpanId, trace_id: u32, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.begin(name, parent, trace_id);
        let result = f();
        self.end(id);
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: per-name totals over every span, and the first
    /// `MAX_SPANS_WRITTEN` spans themselves.
    pub fn to_json(&self, workload: &str) -> Json {
        let layers = layer_times(&self.spans);
        let written = &self.spans[..self.spans.len().min(MAX_SPANS_WRITTEN)];
        obj([
            ("workload", Json::from(workload)),
            ("clock", Json::from("ns since the tracer was created")),
            ("spans_total", Json::from(self.spans.len())),
            ("spans_written", Json::from(written.len())),
            (
                "layers",
                Json::Arr(
                    layers
                        .iter()
                        .map(|l| {
                            obj([
                                ("name", Json::from(l.name)),
                                ("count", Json::from(l.count)),
                                ("sum_ns", Json::from(l.sum_ns)),
                                ("self_ns", Json::from(l.self_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    written
                        .iter()
                        .map(|s| {
                            obj([
                                ("name", Json::from(s.name)),
                                ("start_ns", Json::from(s.start_ns)),
                                ("end_ns", Json::from(s.end_ns)),
                                ("parent", if s.parent == NO_PARENT { Json::Null } else { Json::from(u64::from(s.parent)) }),
                                ("trace_id", Json::from(u64::from(s.trace_id))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (their union, clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(parent) = spans.get(s.parent as usize) {
            let (start, end) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if start < end {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Totals per span name, in order of first appearance.
pub fn layer_times(spans: &[Span]) -> Vec<LayerTime> {
    let selfs = self_times(spans);
    let mut out: Vec<LayerTime> = Vec::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let entry = match out.iter_mut().find(|l| l.name == span.name) {
            Some(entry) => entry,
            None => {
                out.push(LayerTime { name: span.name, count: 0, sum_ns: 0, self_ns: 0 });
                out.last_mut().expect("just pushed")
            }
        };
        entry.count += 1;
        entry.sum_ns += span.duration_ns();
        entry.self_ns += self_ns;
    }
    out
}

/// Total duration of the spans called `name`, ns.
pub fn sum_ns(layers: &[LayerTime], name: &str) -> u64 {
    layers.iter().find(|l| l.name == name).map_or(0, |l| l.sum_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span { name, start_ns, end_ns, parent, trace_id: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let spans = [
            span("pass", 0, 100, NO_PARENT),
            span("ingest", 10, 40, 0),
            span("poll", 40, 60, 0),
            // Overlaps `poll` by 5 and runs past the parent by 20: only
            // 60..100 is new cover.
            span("flush", 55, 120, 0),
            span("send", 12, 20, 1),
        ];
        assert_eq!(self_times(&spans), vec![10, 22, 20, 65, 8]);
    }

    #[test]
    fn layer_times_add_up_per_name_and_keep_first_seen_order() {
        let spans =
            [span("pass", 0, 100, NO_PARENT), span("ingest", 0, 30, 0), span("poll", 30, 40, 0), span("ingest", 50, 90, 0)];
        let layers = layer_times(&spans);
        assert_eq!(
            layers,
            vec![
                LayerTime { name: "pass", count: 1, sum_ns: 100, self_ns: 20 },
                LayerTime { name: "ingest", count: 2, sum_ns: 70, self_ns: 70 },
                LayerTime { name: "poll", count: 1, sum_ns: 10, self_ns: 10 },
            ]
        );
        assert_eq!(sum_ns(&layers, "ingest"), 70);
        assert_eq!(sum_ns(&layers, "absent"), 0);
    }

    #[test]
    fn a_disabled_tracer_runs_the_call_and_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.begin("pass", NO_PARENT, 0);
        assert_eq!(t.span("ingest", root, 0, || 7), 7);
        t.end(root);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn an_enabled_tracer_nests_spans_under_their_parent() {
        let mut t = Tracer::new(true);
        let root = t.begin("pass", NO_PARENT, 3);
        t.span("ingest", root, 3, || std::hint::black_box(1 + 1));
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].name, spans[1].parent, spans[1].trace_id), ("ingest", root, 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let doc = t.to_json("steady_single");
        assert_eq!(doc.get("spans_total"), Some(&Json::Int(2)));
        assert_eq!(doc.get("spans").and_then(Json::as_array).map(<[Json]>::len), Some(2));
    }
}
