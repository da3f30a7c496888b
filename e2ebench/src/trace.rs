//! Outside-in spans: the benchmark wraps each public call it makes into
//! a layer in a span, keeps every span in memory, and writes them once
//! when the run ends. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span. `unit` is the request id (serve) or round id
/// (corpus) the span belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub unit: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing and
/// never reads the clock, which is the "replay without spans" baseline
/// the tracing overhead is measured against.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        unit: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            unit,
            start_ns,
            end_ns: start_ns,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            let now = self.now_ns();
            if let Some(span) = self.spans.get_mut(i) {
                span.end_ns = now;
            }
        }
    }

    /// Run `f` inside a leaf span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        unit: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, unit);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |SpanId(p)| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","parent":{parent},"unit":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.unit, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it. Children may nest further or
/// overlap one another (parallel work); overlap is counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(SpanId(p)) = s.parent {
            if let Some(c) = children.get_mut(p) {
                c.push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            duration - covered.min(duration)
        })
        .collect()
}

/// Self time and span count per span name, in name order.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent: parent.map(SpanId),
            unit: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // request [0,100) ⊃ translate [10,60) ⊃ decode [20,30).
        let spans = [
            span("request", None, 0, 100),
            span("translate", Some(0), 10, 60),
            span("decode", Some(1), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two parallel children [10,50) and [30,70), plus one that runs
        // past the parent's end: covered = [10,70) ∪ [90,100) = 70.
        let spans = [
            span("stage", None, 0, 100),
            span("worker", Some(0), 10, 50),
            span("worker", Some(0), 30, 70),
            span("late", Some(0), 90, 120),
        ];
        let t = self_times_ns(&spans);
        assert_eq!(t[0], 30);
        assert_eq!(&t[1..], &[40, 40, 30]);
        // A child fully inside an earlier sibling adds nothing.
        let contained = [
            span("stage", None, 0, 100),
            span("a", Some(0), 0, 80),
            span("b", Some(0), 20, 40),
        ];
        assert_eq!(self_times_ns(&contained)[0], 20);
    }

    #[test]
    fn totals_by_name_and_disabled_tracer() {
        let spans = [
            span("request", None, 0, 100),
            span("anonymize", Some(0), 0, 30),
            span("anonymize", Some(0), 50, 60),
        ];
        let by = self_time_by_name(&spans);
        assert_eq!(by["request"], (60, 1));
        assert_eq!(by["anonymize"], (40, 2));

        let mut off = Tracer::new(false);
        let id = off.begin("request", None, 1);
        assert_eq!(off.time("x", id, 1, || 7), 7);
        off.end(id);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let root = on.begin("request", None, 3);
        on.time("leaf", root, 3, || ());
        on.end(root);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, root);
        let mut buf = Vec::new();
        on.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains(r#""name":"leaf","parent":0,"unit":3"#));
    }
}
