//! Trace container and exporters.
//!
//! A [`Trace`] is the set of spans drained from the recorder. It exports to
//! two formats:
//!
//! * **Chrome trace** (`to_chrome_trace`) — a JSON array of complete (`"X"`)
//!   events loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
//!   Nesting is positional: a child renders inside its parent because its
//!   `[ts, ts+dur]` interval lies within the parent's on the same track.
//! * **JSON lines** ([`SpanRecord::to_json`], one line per span) — one
//!   object per span with explicit `id`/`parent` fields, for programmatic
//!   consumers that want the tree structure rather than a timeline.

use crate::json::JsonValue;
use crate::recorder::{AttrValue, SpanRecord};

/// A drained collection of spans.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Finished spans, ordered by completion time.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// Number of spans in the trace.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans belonging to `category`, in completion order.
    pub fn by_category<'a>(&'a self, category: &str) -> impl Iterator<Item = &'a SpanRecord> {
        let category = category.to_string();
        self.spans.iter().filter(move |s| s.category == category)
    }

    /// Direct children of the span with id `parent`.
    pub fn children_of(&self, parent: u64) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.parent == Some(parent))
    }

    /// String attribute `key` of a span, if present.
    pub fn attr_str<'a>(span: &'a SpanRecord, key: &str) -> Option<&'a str> {
        span.attrs.iter().find_map(|(k, v)| match v {
            AttrValue::Str(s) if *k == key => Some(s.as_str()),
            _ => None,
        })
    }

    /// Integer attribute `key` of a span, if present.
    pub fn attr_int(span: &SpanRecord, key: &str) -> Option<i64> {
        span.attrs.iter().find_map(|(k, v)| match v {
            AttrValue::Int(i) if *k == key => Some(*i),
            _ => None,
        })
    }

    /// Renders the trace in Chrome trace-event format: an array of
    /// complete events ordered by start time, timestamps in microseconds.
    pub fn to_chrome_trace(&self) -> JsonValue {
        let mut sorted: Vec<&SpanRecord> = self.spans.iter().collect();
        sorted.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        sorted
            .into_iter()
            .map(|span| {
                chrome_event(
                    &span.name,
                    span.category,
                    span.start_us,
                    span.dur_us,
                    span.tid,
                    JsonValue::obj(attr_members(span)),
                )
            })
            .collect()
    }
}

/// One Chrome trace-event complete (`"X"`) event on process 1. Shared by
/// [`Trace::to_chrome_trace`] and every other timeline exporter, so the
/// workspace has one chrome event layout.
pub fn chrome_event(
    name: &str,
    category: &str,
    ts_us: f64,
    dur_us: f64,
    tid: u64,
    args: JsonValue,
) -> JsonValue {
    JsonValue::obj([
        ("name", name.into()),
        ("cat", category.into()),
        ("ph", "X".into()),
        ("ts", ts_us.into()),
        ("dur", dur_us.into()),
        ("pid", 1u64.into()),
        ("tid", tid.into()),
        ("args", args),
    ])
}

impl SpanRecord {
    /// The span as one JSON-lines object: explicit `id`/`parent` tree
    /// structure, then its attributes as top-level members.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(
            [
                ("id", self.id.into()),
                ("parent", self.parent.into()),
                ("name", self.name.as_str().into()),
                ("cat", self.category.into()),
                ("start_us", self.start_us.into()),
                ("dur_us", self.dur_us.into()),
                ("tid", self.tid.into()),
            ]
            .into_iter()
            .chain(attr_members(self)),
        )
    }
}

fn attr_members(span: &SpanRecord) -> impl Iterator<Item = (&'static str, JsonValue)> + '_ {
    span.attrs.iter().map(|(k, v)| {
        let value = match v {
            AttrValue::Str(s) => s.as_str().into(),
            AttrValue::Int(i) => (*i).into(),
            AttrValue::Float(f) => (*f).into(),
        };
        (*k, value)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            spans: vec![
                SpanRecord {
                    id: 2,
                    parent: Some(1),
                    name: "conv\"1\"".to_string(),
                    category: "layer",
                    start_us: 10.0,
                    dur_us: 5.0,
                    tid: 0,
                    attrs: vec![
                        ("op", AttrValue::Str("Conv".to_string())),
                        ("flops", AttrValue::Int(42)),
                    ],
                },
                SpanRecord {
                    id: 1,
                    parent: None,
                    name: "run".to_string(),
                    category: "engine",
                    start_us: 0.0,
                    dur_us: 20.0,
                    tid: 0,
                    attrs: vec![],
                },
            ],
        }
    }

    /// Each JSON-lines object of `trace`, printed and parsed back.
    fn parsed_lines(trace: &Trace) -> Vec<JsonValue> {
        trace
            .spans
            .iter()
            .map(|span| JsonValue::parse(&span.to_json().to_string()).unwrap())
            .collect()
    }

    #[test]
    fn chrome_trace_is_sorted_and_escaped() {
        let text = sample().to_chrome_trace().to_string();
        assert!(text.contains(r#"conv\"1\""#));
        let events = JsonValue::parse(&text).unwrap();
        let events = events.as_array().unwrap();
        // The parent starts earlier, so it must be emitted first.
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("run"));
        let conv = &events[1];
        assert_eq!(conv.get("name").unwrap().as_str(), Some("conv\"1\""));
        assert_eq!(conv.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(
            conv.get("args"),
            Some(&JsonValue::obj([
                ("op", "Conv".into()),
                ("flops", 42u64.into())
            ]))
        );
    }

    #[test]
    fn json_lines_carry_tree_structure() {
        let lines = parsed_lines(&sample());
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("id").unwrap().as_u64(), Some(2));
        assert_eq!(lines[0].get("parent").unwrap().as_u64(), Some(1));
        assert_eq!(lines[0].get("op").unwrap().as_str(), Some("Conv"));
        assert_eq!(lines[1].get("id").unwrap().as_u64(), Some(1));
        assert_eq!(lines[1].get("parent"), Some(&JsonValue::Null));
    }

    #[test]
    fn non_finite_float_attributes_serialize_as_null() {
        let mut trace = sample();
        trace.spans[0].attrs = vec![
            ("nan", AttrValue::Float(f64::NAN)),
            ("inf", AttrValue::Float(f64::INFINITY)),
            ("neg_inf", AttrValue::Float(f64::NEG_INFINITY)),
            ("finite", AttrValue::Float(2.5)),
        ];
        let chrome = JsonValue::parse(&trace.to_chrome_trace().to_string()).unwrap();
        let args = chrome.as_array().unwrap()[1].get("args").unwrap().clone();
        let line = parsed_lines(&trace).swap_remove(0);
        for object in [&args, &line] {
            for key in ["nan", "inf", "neg_inf"] {
                assert_eq!(object.get(key), Some(&JsonValue::Null), "{key}");
            }
            assert_eq!(object.get("finite").unwrap().as_f64(), Some(2.5));
        }
    }

    #[test]
    fn accessors_navigate_the_tree() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert_eq!(t.by_category("layer").count(), 1);
        let child = t.children_of(1).next().unwrap();
        assert_eq!(Trace::attr_str(child, "op"), Some("Conv"));
        assert_eq!(Trace::attr_int(child, "flops"), Some(42));
        assert_eq!(Trace::attr_int(child, "missing"), None);
    }

    #[test]
    fn empty_trace_renders_empty_array() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.to_chrome_trace().to_string(), "[]");
    }
}
