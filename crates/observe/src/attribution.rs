//! Folding span trees into per-layer self/total time attribution.
//!
//! A trace of N timed runs contains one span per layer invocation, nested
//! under per-run `run` spans, with kernel-internal child spans (GEMM
//! pack/compute, pool chunks) below them. The paper's Fig. 2-style analysis
//! wants the *aggregate* view: for each layer (and for each selection
//! algorithm), how much wall time did it account for across all runs, and
//! how much of that was spent in the layer itself versus in instrumented
//! children? [`Attribution::from_trace`] computes exactly that fold, so the
//! CLI's `profile --report` and `bench` share one definition of
//! "self time": span duration minus the duration of its direct children
//! *recorded on the same thread* (cross-thread children overlap their
//! parent in wall time, so subtracting them would over-discount).

use std::collections::BTreeMap;

use crate::trace::Trace;

/// Aggregate timing for one span name within a category.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// Span name (layer instance name for `"layer"` spans).
    pub name: String,
    /// Operator family, from the `op` attribute when present.
    pub op: String,
    /// Selected implementation, from the `implementation` attribute.
    pub implementation: String,
    /// Number of invocations folded into this row.
    pub count: u64,
    /// Sum of span durations, µs.
    pub total_us: f64,
    /// Sum of (duration − same-thread direct children), µs.
    pub self_us: f64,
}

/// A folded attribution table over one category of spans.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// One row per distinct span name, ordered by descending total time.
    pub rows: Vec<AttributionRow>,
}

impl Attribution {
    /// Folds every span of `category` in `trace` into per-name rows.
    pub fn from_trace(trace: &Trace, category: &str) -> Attribution {
        // Direct-children time per parent id, same-thread only.
        let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
        let mut tid_of: BTreeMap<u64, u64> = BTreeMap::new();
        for span in &trace.spans {
            tid_of.insert(span.id, span.tid);
        }
        for span in &trace.spans {
            if let Some(parent) = span.parent {
                if tid_of.get(&parent) == Some(&span.tid) {
                    *child_us.entry(parent).or_insert(0.0) += span.dur_us;
                }
            }
        }
        let mut rows: BTreeMap<String, AttributionRow> = BTreeMap::new();
        for span in trace.by_category(category) {
            let row = rows
                .entry(span.name.clone())
                .or_insert_with(|| AttributionRow {
                    name: span.name.clone(),
                    op: Trace::attr_str(span, "op").unwrap_or("?").to_string(),
                    implementation: Trace::attr_str(span, "implementation")
                        .unwrap_or("?")
                        .to_string(),
                    count: 0,
                    total_us: 0.0,
                    self_us: 0.0,
                });
            row.count += 1;
            row.total_us += span.dur_us;
            let children = child_us.get(&span.id).copied().unwrap_or(0.0);
            row.self_us += (span.dur_us - children).max(0.0);
        }
        let mut rows: Vec<AttributionRow> = rows.into_values().collect();
        rows.sort_by(|a, b| b.total_us.total_cmp(&a.total_us));
        Attribution { rows }
    }

    /// Regroups the rows by implementation (selection algorithm), ordered by
    /// descending total time. Returns `(implementation, count, total_us,
    /// self_us)` tuples.
    pub fn by_algorithm(&self) -> Vec<(String, u64, f64, f64)> {
        let mut map: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for row in &self.rows {
            let entry = map.entry(&row.implementation).or_insert((0, 0.0, 0.0));
            entry.0 += row.count;
            entry.1 += row.total_us;
            entry.2 += row.self_us;
        }
        let mut out: Vec<(String, u64, f64, f64)> = map
            .into_iter()
            .map(|(k, (c, t, s))| (k.to_string(), c, t, s))
            .collect();
        out.sort_by(|a, b| b.2.total_cmp(&a.2));
        out
    }

    /// Sum of all rows' total time, µs.
    pub fn total_us(&self) -> f64 {
        self.rows.iter().map(|r| r.total_us).sum()
    }

    /// Renders the per-name table (times in milliseconds).
    pub fn render(&self) -> String {
        let total = self.total_us().max(1e-12);
        let mut out = format!(
            "{:<28} {:>10} {:<22} {:>6} {:>11} {:>11} {:>7}\n",
            "name", "op", "implementation", "calls", "total (ms)", "self (ms)", "self%"
        );
        for row in &self.rows {
            out.push_str(&format!(
                "{:<28} {:>10} {:<22} {:>6} {:>11.3} {:>11.3} {:>6.1}%\n",
                crate::truncate(&row.name, 28),
                crate::truncate(&row.op, 10),
                crate::truncate(&row.implementation, 22),
                row.count,
                row.total_us / 1e3,
                row.self_us / 1e3,
                100.0 * row.self_us / total,
            ));
        }
        out
    }

    /// Renders the by-algorithm table (times in milliseconds).
    pub fn render_by_algorithm(&self) -> String {
        let mut out = format!(
            "{:<28} {:>6} {:>11} {:>11}\n",
            "algorithm", "calls", "total (ms)", "self (ms)"
        );
        for (algo, count, total_us, self_us) in self.by_algorithm() {
            out.push_str(&format!(
                "{:<28} {:>6} {:>11.3} {:>11.3}\n",
                crate::truncate(&algo, 28),
                count,
                total_us / 1e3,
                self_us / 1e3,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{AttrValue, SpanRecord};

    #[allow(clippy::too_many_arguments)]
    fn span(
        id: u64,
        parent: Option<u64>,
        name: &str,
        category: &'static str,
        start_us: f64,
        dur_us: f64,
        tid: u64,
        implementation: Option<&str>,
    ) -> SpanRecord {
        let mut attrs = vec![("op", AttrValue::Str("Conv".into()))];
        if let Some(imp) = implementation {
            attrs.push(("implementation", AttrValue::Str(imp.into())));
        }
        SpanRecord {
            id,
            parent,
            name: name.into(),
            category,
            start_us,
            dur_us,
            tid,
            attrs,
        }
    }

    #[test]
    fn folds_repeat_invocations_and_subtracts_children() {
        let trace = Trace {
            spans: vec![
                span(1, None, "run", "session", 0.0, 100.0, 0, None),
                span(
                    2,
                    Some(1),
                    "conv_0",
                    "layer",
                    0.0,
                    60.0,
                    0,
                    Some("spatial-pack"),
                ),
                span(3, Some(2), "gemm", "gemm", 5.0, 20.0, 0, None),
                span(4, None, "run", "session", 100.0, 100.0, 0, None),
                span(
                    5,
                    Some(4),
                    "conv_0",
                    "layer",
                    100.0,
                    40.0,
                    0,
                    Some("spatial-pack"),
                ),
            ],
        };
        let attr = Attribution::from_trace(&trace, "layer");
        assert_eq!(attr.rows.len(), 1);
        let row = &attr.rows[0];
        assert_eq!(row.name, "conv_0");
        assert_eq!(row.count, 2);
        assert!((row.total_us - 100.0).abs() < 1e-9);
        // First invocation self = 60 - 20, second = 40 (no children).
        assert!((row.self_us - 80.0).abs() < 1e-9);
        assert_eq!(row.implementation, "spatial-pack");
    }

    #[test]
    fn cross_thread_children_do_not_discount_self_time() {
        let trace = Trace {
            spans: vec![
                span(1, None, "conv_0", "layer", 0.0, 50.0, 0, Some("im2col")),
                // A pool worker's chunk span: overlaps the parent in wall
                // time, so it must not be subtracted.
                span(2, Some(1), "chunk", "threads", 0.0, 45.0, 1, None),
            ],
        };
        let attr = Attribution::from_trace(&trace, "layer");
        assert!((attr.rows[0].self_us - 50.0).abs() < 1e-9);
    }

    #[test]
    fn by_algorithm_groups_and_orders() {
        let trace = Trace {
            spans: vec![
                span(1, None, "conv_a", "layer", 0.0, 30.0, 0, Some("winograd")),
                span(2, None, "conv_b", "layer", 30.0, 10.0, 0, Some("direct")),
                span(3, None, "conv_c", "layer", 40.0, 25.0, 0, Some("winograd")),
            ],
        };
        let attr = Attribution::from_trace(&trace, "layer");
        let algos = attr.by_algorithm();
        assert_eq!(algos.len(), 2);
        assert_eq!(algos[0].0, "winograd");
        assert_eq!(algos[0].1, 2);
        assert!((algos[0].2 - 55.0).abs() < 1e-9);
        assert_eq!(algos[1].0, "direct");
        let text = attr.render();
        assert!(text.contains("conv_a") && text.contains("self%"));
        assert!(attr.render_by_algorithm().contains("winograd"));
    }

    #[test]
    fn empty_trace_yields_empty_table() {
        let attr = Attribution::from_trace(&Trace::default(), "layer");
        assert!(attr.rows.is_empty());
        assert_eq!(attr.total_us(), 0.0);
    }

    #[test]
    fn negative_self_time_is_clamped_to_zero() {
        // Child longer than parent (clock skew / measurement jitter).
        let trace = Trace {
            spans: vec![
                span(1, None, "conv_0", "layer", 0.0, 10.0, 0, None),
                span(2, Some(1), "gemm", "gemm", 0.0, 15.0, 0, None),
            ],
        };
        let attr = Attribution::from_trace(&trace, "layer");
        assert_eq!(attr.rows[0].self_us, 0.0);
    }
}
