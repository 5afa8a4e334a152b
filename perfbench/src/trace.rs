//! The traced run's span buffer.
//!
//! Spans are recorded in the harness's own memory around calls into each
//! crate's public functions (the library's global recorder stays off) and
//! written out when the run ends. A span's self time is its duration minus
//! the part of its interval covered by its child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to; spans of one request share it.
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// An in-memory span recorder with an explicit open-span stack.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str, request: Option<u64>) -> usize {
        let now = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one; returns its
    /// duration in milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let now = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.duration_ns() as f64 / 1e6
    }

    /// Records an interval measured elsewhere (e.g. on another thread) as a
    /// child of span `parent`.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: usize,
        request: Option<u64>,
    ) -> usize {
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: Some(parent),
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name, with self time per [`self_times`].
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let t = out.entry(span.name.clone()).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        // root [0,100) has children [10,30), [20,50) (overlapping: union
        // [10,50) = 40) and [90,120) (clipped to [90,100) = 10); the first
        // child has a grandchild [12,18) that only reduces the child.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 90, 120, Some(0)),
            span("a.inner", 12, 18, Some(1)),
            span("other-root", 200, 260, None),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6, 60]);
    }

    #[test]
    fn tracer_nests_and_totals_by_name() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", Some(7));
        let inner = t.begin("inner", Some(7));
        t.end(inner);
        let inner2 = t.begin("inner", None);
        t.end(inner2);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[0].request, Some(7));
        let totals = t.totals();
        assert_eq!(totals["inner"].count, 2);
        let outer_totals = totals["outer"];
        assert_eq!(
            outer_totals.self_ns + totals["inner"].total_ns,
            outer_totals.total_ns
        );
        assert!(t.to_json().starts_with("[\n{\"id\":0,\"name\":\"outer\""));
    }
}
