//! Spans recorded from outside the program: around blocks of calls into
//! each layer's public functions.
//!
//! A span is `(id, name, start, end, parent)`.  Spans are kept in memory and
//! written out when the run ends.  A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover, so the
//! self times of a block and its layers add up to the block's duration.

use crate::json::to_line;
use nisqplus_runtime::report::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Rounds per span: two clock reads (~50 ns) stay under 1 % of a span even
/// for the cheapest layer (a ring push, ~20 ns per round).
pub const BLOCK_ROUNDS: usize = 256;

/// Identifies a span within one [`Tracer`]; `ROOT` is "no parent".
pub type SpanId = u32;

/// The parent of top-level spans.
pub const ROOT: SpanId = 0;

/// One recorded span, nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the trace, starting at 1.
    pub id: SpanId,
    /// The layer (or `block` / `standalone`) the span times.
    pub name: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
    /// The span that caused this one ([`ROOT`] for none).
    pub parent: SpanId,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty trace whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; it stays zero-length until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        id
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize - 1].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Times `work` as one span under `parent`.
    pub fn span<T>(&mut self, name: &'static str, parent: SpanId, work: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = work();
        self.close(id);
        out
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as JSON text (`out/trace.<workload>.json`), one span per
    /// line so the file can be read and grepped.
    #[must_use]
    pub fn to_text(&self, workload: &str) -> String {
        let mut text = format!(
            "{{\n\"workload\": {},\n\"unit\": \"ns since the trace epoch\",\n\
             \"columns\": [\"id\", \"name\", \"start_ns\", \"end_ns\", \"parent\"],\n\
             \"spans\": [\n",
            to_line(&Json::from(workload))
        );
        for (index, span) in self.spans.iter().enumerate() {
            let row = Json::Arr(vec![
                Json::from(u64::from(span.id)),
                Json::from(span.name),
                Json::from(span.start_ns),
                Json::from(span.end_ns),
                Json::from(u64::from(span.parent)),
            ]);
            text.push_str(&to_line(&row));
            text.push_str(if index + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        text.push_str("]\n}\n");
        text
    }
}

/// Self times by span name, nanoseconds, one entry per span in recording
/// order: each span's duration minus the part of its interval covered by
/// its direct children.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    // A tracer numbers its spans 1, 2, … in recording order.
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = (span.parent as usize).checked_sub(1).map(|at| &spans[at]) {
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            covered[parent.id as usize - 1] += end.saturating_sub(start);
        }
    }
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (span, children) in spans.iter().zip(covered) {
        let duration = span.end_ns - span.start_ns;
        by_name
            .entry(span.name)
            .or_default()
            .push(duration.saturating_sub(children));
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(1, "block", 0, 100, ROOT),
            span(2, "source", 5, 45, 1),
            span(3, "decode", 50, 90, 1),
            span(4, "block", 100, 180, ROOT),
            span(5, "source", 100, 130, 4),
            // A grandchild only reduces its own parent's self time.
            span(6, "sample", 110, 120, 5),
        ];
        let times = self_times(&spans);
        assert_eq!(times["block"], [100 - 80, 80 - 30]);
        assert_eq!(times["source"], [40, 30 - 10]);
        assert_eq!(times["decode"], [40]);
        assert_eq!(times["sample"], [10]);
        // Self times add up to the top-level durations.
        assert_eq!(times.values().flatten().sum::<u64>(), 180);
    }

    #[test]
    fn a_child_is_clipped_to_its_parents_interval() {
        let spans = [span(1, "block", 10, 20, ROOT), span(2, "late", 15, 40, 1)];
        let times = self_times(&spans);
        assert_eq!(times["block"], [5]);
        assert_eq!(times["late"], [25]);
    }

    #[test]
    fn tracer_nests_and_serializes_spans() {
        let mut tracer = Tracer::new();
        let block = tracer.open("block", ROOT);
        let value = tracer.span("layer", block, || 7);
        tracer.close(block);
        assert_eq!(value, 7);
        let spans = tracer.spans();
        assert_eq!((spans[0].id, spans[0].parent), (1, ROOT));
        assert_eq!((spans[1].id, spans[1].parent), (2, 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let doc = nisqplus_runtime::report::parse(&tracer.to_text("w")).expect("valid json");
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("w"));
        assert_eq!(doc.get("spans").and_then(Json::as_array).unwrap().len(), 2);
    }
}
