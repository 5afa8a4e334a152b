//! Per-layer execution profiling.
//!
//! The paper's evaluation workflow — "infrastructure to run multiple
//! inference experiments, evaluating full networks, and individual layers" —
//! needs per-layer timings. Profiled session runs and folded traces both
//! produce one [`LayerTiming`] row per layer — the one row type, defined in
//! `orpheus-observe` next to the span fold that builds it.

use std::time::Duration;

use orpheus_observe::{chrome_event, json::JsonValue, truncate, LayerTiming, Trace};

/// Activation-memory statistics of one network run, read off the memory
/// plan the run executed (see [`MemoryPlan::stats`](crate::MemoryPlan::stats)).
/// On edge devices — the paper's deployment target — activation memory is
/// often the binding constraint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Peak bytes of live activation storage: the planned arena.
    pub peak_bytes: usize,
    /// Bytes of every activation value the run produced, summed — what an
    /// executor without buffer reuse would hold.
    pub total_allocated_bytes: usize,
    /// Values whose storage returned to the arena before the run ended,
    /// thanks to liveness analysis.
    pub tensors_freed_early: usize,
}

/// The result of a profiled network run, or of a trace folded over one or
/// more runs.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// One row per layer, in execution order.
    pub timings: Vec<LayerTiming>,
    /// End-to-end wall-clock time of every run the rows cover.
    pub total: Duration,
    /// Activation-memory statistics for the run.
    pub memory: MemoryStats,
}

impl Profile {
    /// Rebuilds a per-layer profile from a recorded trace (see
    /// `orpheus-observe`): the `"layer"` spans fold into rows through
    /// [`LayerTiming::fold`], and the session `"run"` spans, summed, give the
    /// end-to-end total (a trace without them totals its rows instead).
    /// Memory statistics are not recoverable from a trace and are left at
    /// their defaults; callers holding the network fill them from its memory
    /// plan. Span fields are public, so a negative or NaN duration reads as
    /// zero rather than panicking.
    pub fn from_trace(trace: &Trace) -> Profile {
        let timings = LayerTiming::fold(trace);
        let runs: Vec<f64> = trace
            .by_category("session")
            .filter(|s| s.name == "run")
            .map(|s| s.dur_us.max(0.0))
            .collect();
        let total_us: f64 = if runs.is_empty() {
            timings.iter().map(|t| t.total_us).sum()
        } else {
            runs.iter().sum()
        };
        Profile {
            timings,
            total: Duration::try_from_secs_f64(total_us / 1e6).unwrap_or_default(),
            memory: MemoryStats::default(),
        }
    }

    /// The rows merged by `key` (e.g. `|t| &t.op`, `|t| &t.implementation`;
    /// see [`LayerTiming::group_by`]), ordered by descending total time.
    pub fn group_by(&self, key: impl Fn(&LayerTiming) -> &str) -> Profile {
        let mut timings = LayerTiming::group_by(&self.timings, key);
        timings.sort_by(|a, b| b.total_us.total_cmp(&a.total_us));
        Profile {
            timings,
            total: self.total,
            memory: self.memory,
        }
    }

    /// The `n` slowest rows, by descending total time.
    pub fn hottest(&self, n: usize) -> Vec<&LayerTiming> {
        let mut refs: Vec<&LayerTiming> = self.timings.iter().collect();
        refs.sort_by(|a, b| b.total_us.total_cmp(&a.total_us));
        refs.truncate(n);
        refs
    }

    /// The profile in Chrome trace-event format (load the file at
    /// `chrome://tracing` or in Perfetto): layers laid out as back-to-back
    /// complete events on one track, each categorized by its operator.
    pub fn to_chrome_trace(&self) -> JsonValue {
        let mut ts_us = 0.0f64;
        self.timings
            .iter()
            .map(|t| {
                let args = JsonValue::obj([
                    ("implementation", t.implementation.as_str().into()),
                    ("gflops", t.gflops().into()),
                ]);
                let event = chrome_event(&t.name, &t.op, ts_us, t.total_us, 0, args);
                ts_us += t.total_us;
                event
            })
            .collect()
    }

    /// Renders the per-layer table: calls, total and self time, self time as
    /// a share of the summed row time, and effective GFLOP/s.
    pub fn render(&self) -> String {
        let row_us = self
            .timings
            .iter()
            .map(|t| t.total_us)
            .sum::<f64>()
            .max(1e-12);
        let mut out = format!(
            "{:<28} {:>10} {:<22} {:>6} {:>12} {:>12} {:>6} {:>9}\n",
            "layer", "op", "implementation", "calls", "total (us)", "self (us)", "self%", "GFLOP/s"
        );
        for t in &self.timings {
            let gf = t
                .gflops()
                .map(|g| format!("{g:.2}"))
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "{:<28} {:>10} {:<22} {:>6} {:>12.1} {:>12.1} {:>5.1}% {:>9}\n",
                truncate(&t.name, 28),
                truncate(&t.op, 10),
                truncate(&t.implementation, 22),
                t.count,
                t.total_us,
                t.self_us,
                100.0 * t.self_us / row_us,
                gf
            ));
        }
        out.push_str(&format!(
            "total: {:.3} ms over {} rows, peak activation memory {}\n",
            self.total.as_secs_f64() * 1e3,
            self.timings.len(),
            orpheus_verify::dataflow::human_bytes(self.memory.peak_bytes)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(name: &str, op: &str, micros: u64, flops: u64) -> LayerTiming {
        LayerTiming {
            name: name.into(),
            op: op.into(),
            implementation: "x".into(),
            count: 1,
            total_us: micros as f64,
            self_us: micros as f64,
            flops,
        }
    }

    #[test]
    fn gflops_computation() {
        let t = timing("a", "Conv", 1000, 2_000_000); // 2 MFLOP in 1 ms
        assert!((t.gflops().unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(timing("b", "Add", 10, 0).gflops(), None);
    }

    #[test]
    fn group_by_op_aggregates_and_sorts() {
        let p = Profile {
            timings: vec![
                timing("c1", "Conv", 100, 0),
                timing("r1", "Activation", 5, 0),
                timing("c2", "Conv", 200, 0),
            ],
            total: Duration::from_micros(305),
            memory: MemoryStats::default(),
        };
        let rows = p.group_by(|t| &t.op).timings;
        assert_eq!(rows[0].name, "Conv");
        assert_eq!(rows[0].count, 2);
        assert!((rows[0].total_us - 300.0).abs() < 1e-9);
        assert_eq!(rows[1].name, "Activation");
    }

    #[test]
    fn hottest_orders_descending() {
        let p = Profile {
            timings: vec![
                timing("a", "Conv", 10, 0),
                timing("b", "Conv", 30, 0),
                timing("c", "Conv", 20, 0),
            ],
            ..Profile::default()
        };
        let hot = p.hottest(2);
        assert_eq!(hot[0].name, "b");
        assert_eq!(hot[1].name, "c");
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let p = Profile {
            timings: vec![
                timing("conv \"0\"", "Conv", 100, 1000),
                timing("relu", "Activation", 5, 0),
            ],
            total: Duration::from_micros(105),
            memory: MemoryStats::default(),
        };
        let text = p.to_chrome_trace().to_string();
        assert!(text.contains("conv \\\"0\\\"")); // quotes escaped
        let events = JsonValue::parse(&text).unwrap();
        let events = events.as_array().unwrap();
        assert_eq!(events.len(), 2);
        let JsonValue::Obj(members) = &events[0] else {
            panic!("event is not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"]
        );
        let field = |i: usize, key: &str| events[i].get(key).unwrap().clone();
        assert_eq!(field(0, "name").as_str(), Some("conv \"0\""));
        assert_eq!(field(0, "cat").as_str(), Some("Conv"));
        assert_eq!(field(0, "ph").as_str(), Some("X"));
        assert_eq!(
            field(0, "args").get("implementation").unwrap().as_str(),
            Some("x")
        );
        // Unknown flops.
        assert_eq!(field(1, "args").get("gflops"), Some(&JsonValue::Null));
        // Events are back-to-back: second ts == first dur.
        assert_eq!(field(0, "ts").as_f64(), Some(0.0));
        assert_eq!(field(1, "ts").as_f64(), field(0, "dur").as_f64());
        assert_eq!(field(1, "ts").as_f64(), Some(100.0));
    }

    #[test]
    fn chrome_trace_escapes_control_characters() {
        let p = Profile {
            timings: vec![timing("line\nbreak\u{01}", "Conv", 10, 0)],
            total: Duration::from_micros(10),
            memory: MemoryStats::default(),
        };
        let json = p.to_chrome_trace().to_string();
        assert!(json.contains("line\\nbreak\\u0001"));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn truncate_cuts_multibyte_names_on_char_boundaries() {
        // Regression: `&s[..n-1]` panicked when byte n-1 fell inside a
        // multi-byte character (e.g. ONNX layer names with non-ASCII).
        let name = "convolução_σ_第一層_0123456789";
        let cut = truncate(name, 10);
        assert_eq!(cut.chars().count(), 10);
        assert!(cut.ends_with('…'));
        assert!(cut.starts_with("convoluçã"));
        // Short names (by chars, not bytes) pass through untouched.
        assert_eq!(truncate("résumé", 10), "résumé");
    }

    #[test]
    fn render_survives_non_ascii_layer_names() {
        let p = Profile {
            timings: vec![timing(
                "畳み込み層_非常に長い名前_これは切り捨てられるはずです_その一",
                "Conv",
                10,
                0,
            )],
            total: Duration::from_micros(10),
            memory: MemoryStats::default(),
        };
        let text = p.render();
        assert!(text.contains('…'));
    }

    #[test]
    fn from_trace_rebuilds_layer_table() {
        use orpheus_observe::{AttrValue, SpanRecord};
        let trace = Trace {
            spans: vec![
                SpanRecord {
                    id: 3,
                    parent: Some(1),
                    name: "conv_1".into(),
                    category: "layer",
                    start_us: 60.0,
                    dur_us: 40.0,
                    tid: 0,
                    attrs: vec![
                        ("op", AttrValue::Str("Conv".into())),
                        ("implementation", AttrValue::Str("spatial-pack".into())),
                        ("flops", AttrValue::Int(2_000_000)),
                    ],
                },
                SpanRecord {
                    id: 2,
                    parent: Some(1),
                    name: "conv_0".into(),
                    category: "layer",
                    start_us: 10.0,
                    dur_us: 50.0,
                    tid: 0,
                    attrs: vec![("op", AttrValue::Str("Conv".into()))],
                },
                SpanRecord {
                    id: 1,
                    parent: None,
                    name: "run".into(),
                    category: "session",
                    start_us: 0.0,
                    dur_us: 120.0,
                    tid: 0,
                    attrs: vec![],
                },
            ],
        };
        let p = Profile::from_trace(&trace);
        // Layers come back in execution (start-time) order.
        assert_eq!(p.timings.len(), 2);
        assert_eq!(p.timings[0].name, "conv_0");
        assert_eq!(p.timings[1].name, "conv_1");
        assert_eq!(p.timings[1].implementation, "spatial-pack");
        assert_eq!(p.timings[1].flops, 2_000_000);
        assert_eq!(p.timings[0].implementation, "?");
        assert_eq!(p.total, Duration::from_micros(120));
        assert!((p.timings[1].gflops().unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn from_trace_total_sums_every_run() {
        use orpheus_observe::SpanRecord;
        let span = |id, parent, name: &str, category, start_us: f64, dur_us| SpanRecord {
            id,
            parent,
            name: name.into(),
            category,
            start_us,
            dur_us,
            tid: 0,
            attrs: vec![],
        };
        let mut spans = Vec::new();
        for (r, dur_us) in [100.0, 120.0, 110.0].into_iter().enumerate() {
            let (id, start_us) = (10 * r as u64 + 1, 200.0 * r as f64);
            spans.push(span(id, None, "run", "session", start_us, dur_us));
            spans.push(span(id + 1, Some(id), "conv_0", "layer", start_us, 80.0));
        }
        let p = Profile::from_trace(&Trace { spans });
        assert_eq!(p.total, Duration::from_micros(330));
        assert_eq!(p.timings.len(), 1);
        assert_eq!(p.timings[0].count, 3);
        assert!((p.timings[0].total_us - 240.0).abs() < 1e-9);
    }

    #[test]
    fn trace_sorts_survive_nan_times() {
        use orpheus_observe::{AttrValue, SpanRecord};
        let layer = |id, start_us, dur_us| SpanRecord {
            id,
            parent: None,
            name: format!("layer_{id}"),
            category: "layer",
            start_us,
            dur_us,
            tid: 0,
            attrs: vec![("implementation", AttrValue::Str("gemm".into()))],
        };
        let trace = Trace {
            spans: vec![
                layer(1, f64::NAN, 5.0),
                layer(2, 1.0, f64::NAN),
                layer(3, 0.0, 2.0),
            ],
        };
        let events = trace.to_chrome_trace();
        assert_eq!(events.as_array().map(<[_]>::len), Some(3));
        assert_eq!(Profile::from_trace(&trace).timings.len(), 3);
        let rows = LayerTiming::fold(&trace);
        assert_eq!(rows.len(), 3);
        assert_eq!(LayerTiming::group_by(&rows, |t| &t.implementation).len(), 1);
    }

    #[test]
    fn from_trace_without_run_spans_totals_its_rows() {
        use orpheus_observe::SpanRecord;
        let layer = |id, start_us, dur_us| SpanRecord {
            id,
            parent: None,
            name: format!("layer_{id}"),
            category: "layer",
            start_us,
            dur_us,
            tid: 0,
            attrs: vec![],
        };
        let p = Profile::from_trace(&Trace {
            spans: vec![layer(1, 0.0, 30.0), layer(2, 30.0, 20.0)],
        });
        assert_eq!(p.total, Duration::from_micros(50));
    }

    #[test]
    fn render_shows_layer_and_algorithm_tables() {
        use orpheus_observe::{AttrValue, SpanRecord};
        let layer = |id, name: &str, start_us, dur_us, implementation: &str| SpanRecord {
            id,
            parent: None,
            name: name.into(),
            category: "layer",
            start_us,
            dur_us,
            tid: 0,
            attrs: vec![
                ("op", AttrValue::Str("Conv".into())),
                ("implementation", AttrValue::Str(implementation.into())),
            ],
        };
        let p = Profile::from_trace(&Trace {
            spans: vec![
                layer(1, "conv_a", 0.0, 30.0, "winograd"),
                layer(2, "conv_b", 30.0, 10.0, "direct"),
                layer(3, "conv_c", 40.0, 25.0, "winograd"),
            ],
        });
        let text = p.render();
        assert!(text.contains("conv_a"));
        assert!(text.contains("self%"));
        let by_algorithm = p.group_by(|t| &t.implementation).render();
        let first = by_algorithm.lines().nth(1).unwrap();
        assert!(first.starts_with("winograd"), "{by_algorithm}");
        assert!(by_algorithm.contains("direct"));
    }

    #[test]
    fn render_contains_all_layers() {
        let p = Profile {
            timings: vec![timing("first_layer", "Conv", 10, 100)],
            total: Duration::from_micros(10),
            memory: MemoryStats::default(),
        };
        let text = p.render();
        assert!(text.contains("first_layer"));
        assert!(text.contains("total:"));
    }
}
