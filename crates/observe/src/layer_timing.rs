//! The per-layer timing record and the one fold that builds it from spans.
//!
//! A trace of N timed runs contains one `"layer"` span per layer invocation,
//! nested under per-run `run` spans, with kernel-internal child spans (GEMM
//! pack/compute, pool chunks) below them. The paper's Fig. 2-style analysis
//! wants the *aggregate* view: for each layer, how much wall time did it
//! account for across all runs, and how much of that was spent in the layer
//! itself versus in instrumented children? [`LayerTiming::fold`] computes
//! exactly that, so every per-layer table shares one definition of
//! "self time": span duration minus the duration of its direct children
//! *recorded on the same thread* (cross-thread children overlap their
//! parent in wall time, so subtracting them would over-discount).

use std::collections::btree_map::{BTreeMap, Entry};

use crate::trace::Trace;

/// Timing of one layer, summed over every invocation folded into the row.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTiming {
    /// Layer instance name (the group key for a grouped row).
    pub name: String,
    /// Operator family (`"Conv"`, `"Dense"`, ...); `"*"` for a grouped row
    /// that mixes several.
    pub op: String,
    /// Selected implementation; `"*"` for a grouped row that mixes several.
    pub implementation: String,
    /// Number of invocations folded into this row.
    pub count: u64,
    /// Sum of invocation wall times, µs.
    pub total_us: f64,
    /// Sum of (wall time − same-thread direct children), µs.
    pub self_us: f64,
    /// FLOPs summed over every folded invocation (0 when unknown).
    pub flops: u64,
}

impl LayerTiming {
    /// Effective GFLOP/s over every folded invocation, or `None` when FLOPs
    /// or time are unknown.
    pub fn gflops(&self) -> Option<f64> {
        (self.flops > 0 && self.total_us > 0.0).then(|| self.flops as f64 / self.total_us / 1e3)
    }

    /// Folds every `"layer"` span of `trace` into one row per layer name, in
    /// execution order (first invocation's start time). A name identifies a
    /// plan step: loading a graph whose nodes share a name fails
    /// verification. Negative or NaN durations read as zero, and self time
    /// is clamped at zero.
    pub fn fold(trace: &Trace) -> Vec<LayerTiming> {
        // Direct-children time per parent id, same-thread only.
        let tid_of: BTreeMap<u64, u64> = trace.spans.iter().map(|s| (s.id, s.tid)).collect();
        let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
        for span in &trace.spans {
            if let Some(parent) = span.parent {
                if tid_of.get(&parent) == Some(&span.tid) {
                    *child_us.entry(parent).or_insert(0.0) += span.dur_us;
                }
            }
        }
        let mut spans: Vec<_> = trace.by_category("layer").collect();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        merge(spans.into_iter().map(|span| {
            let total_us = span.dur_us.max(0.0);
            let children = child_us.get(&span.id).copied().unwrap_or(0.0);
            let row = LayerTiming {
                name: span.name.clone(),
                op: Trace::attr_str(span, "op").unwrap_or("?").to_string(),
                implementation: Trace::attr_str(span, "implementation")
                    .unwrap_or("?")
                    .to_string(),
                count: 1,
                total_us,
                self_us: (total_us - children).max(0.0),
                flops: Trace::attr_int(span, "flops").unwrap_or(0).max(0) as u64,
            };
            (span.name.as_str(), row)
        }))
    }

    /// Merges `rows` that share `key` into one row each, named by the key,
    /// in order of each key's first row: counts, times and FLOPs add up, and
    /// `op`/`implementation` read `"*"` where the merged rows disagree.
    pub fn group_by(rows: &[LayerTiming], key: impl Fn(&LayerTiming) -> &str) -> Vec<LayerTiming> {
        merge(rows.iter().map(|row| {
            let k = key(row);
            let named = LayerTiming {
                name: k.to_string(),
                ..row.clone()
            };
            (k, named)
        }))
    }
}

/// Merges keyed rows into one row per key, in order of each key's first row.
fn merge<K: Ord>(rows: impl IntoIterator<Item = (K, LayerTiming)>) -> Vec<LayerTiming> {
    let mut groups: Vec<LayerTiming> = Vec::new();
    let mut index: BTreeMap<K, usize> = BTreeMap::new();
    for (key, row) in rows {
        match index.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(groups.len());
                groups.push(row);
            }
            Entry::Occupied(slot) => {
                let group = &mut groups[*slot.get()];
                group.count += row.count;
                group.total_us += row.total_us;
                group.self_us += row.self_us;
                group.flops += row.flops;
                for (mine, theirs) in [
                    (&mut group.op, &row.op),
                    (&mut group.implementation, &row.implementation),
                ] {
                    if *mine != *theirs {
                        *mine = "*".into();
                    }
                }
            }
        }
    }
    groups
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
        let mut attrs = vec![
            ("op", AttrValue::Str("Conv".into())),
            ("flops", AttrValue::Int(3_000)),
        ];
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

    /// `runs` back-to-back `run` spans, each holding `conv_0` (20 µs, with a
    /// 5 µs same-thread child) then the slower `conv_1` (40 µs).
    fn runs(runs: u64) -> Trace {
        let mut spans = Vec::new();
        for r in 0..runs {
            let (id, t) = (10 * r + 1, 100.0 * r as f64);
            spans.push(span(id, None, "run", "session", t, 70.0, 0, None));
            spans.push(span(
                id + 1,
                Some(id),
                "conv_0",
                "layer",
                t,
                20.0,
                0,
                Some("im2col"),
            ));
            spans.push(span(id + 2, Some(id + 1), "gemm", "gemm", t, 5.0, 0, None));
            spans.push(span(
                id + 3,
                Some(id),
                "conv_1",
                "layer",
                t + 25.0,
                40.0,
                0,
                None,
            ));
        }
        Trace { spans }
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
        let rows = LayerTiming::fold(&trace);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.name, "conv_0");
        assert_eq!(row.count, 2);
        assert!((row.total_us - 100.0).abs() < 1e-9);
        // First invocation self = 60 - 20, second = 40 (no children).
        assert!((row.self_us - 80.0).abs() < 1e-9);
        assert_eq!(row.implementation, "spatial-pack");
    }

    #[test]
    fn three_run_fold_counts_each_call_and_keeps_gflops() {
        let one = LayerTiming::fold(&runs(1));
        let three = LayerTiming::fold(&runs(3));
        // Execution order: conv_0 first although conv_1 takes longer.
        let names: Vec<&str> = three.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["conv_0", "conv_1"]);
        for (a, b) in one.iter().zip(&three) {
            assert_eq!(b.count, 3);
            assert_eq!(b.flops, 3 * a.flops);
            assert!((b.total_us - 3.0 * a.total_us).abs() < 1e-9);
            assert!((b.self_us - 3.0 * a.self_us).abs() < 1e-9);
            assert!((b.gflops().unwrap() - a.gflops().unwrap()).abs() < 1e-9);
        }
        assert!((three[0].self_us - 45.0).abs() < 1e-9);
        // 3000 FLOP in 20 µs.
        assert!((one[0].gflops().unwrap() - 0.15).abs() < 1e-9);
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
        let rows = LayerTiming::fold(&trace);
        assert!((rows[0].self_us - 50.0).abs() < 1e-9);
    }

    #[test]
    fn group_by_merges_in_first_seen_order() {
        let trace = Trace {
            spans: vec![
                span(1, None, "conv_a", "layer", 0.0, 30.0, 0, Some("winograd")),
                span(2, None, "conv_b", "layer", 30.0, 10.0, 0, Some("direct")),
                span(3, None, "conv_c", "layer", 40.0, 25.0, 0, Some("winograd")),
            ],
        };
        let rows = LayerTiming::fold(&trace);
        let algos = LayerTiming::group_by(&rows, |r| &r.implementation);
        assert_eq!(algos.len(), 2);
        assert_eq!(algos[0].name, "winograd");
        assert_eq!(algos[0].count, 2);
        assert!((algos[0].total_us - 55.0).abs() < 1e-9);
        assert_eq!(algos[0].flops, 6_000);
        assert_eq!(algos[1].name, "direct");
        let ops = LayerTiming::group_by(&rows, |r| &r.op);
        assert_eq!(ops.len(), 1);
        assert_eq!(
            (ops[0].op.as_str(), ops[0].implementation.as_str()),
            ("Conv", "*")
        );
    }

    #[test]
    fn empty_trace_yields_empty_table() {
        assert!(LayerTiming::fold(&Trace::default()).is_empty());
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
        let rows = LayerTiming::fold(&trace);
        assert_eq!(rows[0].self_us, 0.0);
    }
}
