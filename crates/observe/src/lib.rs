//! Observability for the Orpheus reproduction: spans, metrics, exporters.
//!
//! The original Orpheus paper evaluates frameworks by end-to-end latency;
//! explaining *where* that latency comes from needs structure the flat layer
//! table cannot express — which simplification pass rewrote what, which
//! algorithm the selector timed and rejected, how work spread across pool
//! threads. This crate provides that structure:
//!
//! * a **span recorder** ([`span`], [`SpanGuard`]) building a hierarchical
//!   trace of the engine's work, globally gated so instrumented code pays one
//!   relaxed atomic load when tracing is off;
//! * a **metrics registry** ([`counter_add`], [`gauge_set`],
//!   [`histogram_record`]) with log-linear latency [`Histogram`]s that report
//!   p50/p90/p99;
//! * **exporters**: Chrome trace-event JSON for <https://ui.perfetto.dev>
//!   ([`Trace::to_chrome_trace`]), JSON lines ([`SpanRecord::to_json`]), a
//!   metrics summary ([`MetricsSnapshot::to_json`]), all built as
//!   [`json::JsonValue`] trees printed by one serializer, and the
//!   OpenMetrics/Prometheus text format
//!   ([`MetricsSnapshot::to_openmetrics`]);
//! * an always-on **flight recorder** ([`flight_record`],
//!   [`flight_snapshot`]): a fixed-size lock-free ring of recent notable
//!   events (faults, fallbacks, loads) for post-mortem dumps, armed even
//!   when tracing is off;
//! * the **per-layer timing record** ([`LayerTiming`]) and its one fold,
//!   [`LayerTiming::fold`], that collapses span trees into self/total time
//!   per layer.
//!
//! # Examples
//!
//! ```
//! use orpheus_observe as observe;
//!
//! observe::enable();
//! {
//!     let mut load = observe::span("load", "engine");
//!     load.attr("model", "resnet18");
//!     let _import = observe::span("import", "engine");
//! }
//! observe::counter_add("graph.pass.constant-fold.rewrites", 2);
//! observe::disable();
//!
//! let trace = observe::take_trace();
//! assert_eq!(trace.len(), 2);
//! let chrome = trace.to_chrome_trace();
//! assert_eq!(chrome.as_array().map(<[_]>::len), Some(2));
//! let metrics = observe::metrics_snapshot();
//! observe::reset();
//! assert_eq!(metrics.counters["graph.pass.constant-fold.rewrites"], 2);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod flight;
mod histogram;
pub mod json;
mod layer_timing;
mod metrics;
mod openmetrics;
mod recorder;
mod trace;

pub use flight::{
    flight_capacity, flight_clear, flight_dropped, flight_record, flight_recorded, flight_render,
    flight_snapshot, FlightEvent,
};
pub use histogram::Histogram;
pub use layer_timing::LayerTiming;
pub use metrics::{
    counter_add, gauge_set, histogram_record, metrics_snapshot, reset_metrics, MetricsSnapshot,
};
pub use recorder::{
    current_span_id, disable, enable, enabled, span, span_with_parent, AttrValue, SpanGuard,
    SpanRecord,
};
pub use trace::{chrome_event, Trace};

/// Truncates `s` to at most `max` characters, ending with `…` when cut.
///
/// UTF-8 safe (counts characters, not bytes). Shared by every report
/// renderer, so layer names imported from ONNX never split a character.
pub fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        return s.to_string();
    }
    let keep = max.saturating_sub(1);
    let mut out: String = s.chars().take(keep).collect();
    out.push('…');
    out
}

/// Removes and returns every span collected so far.
pub fn take_trace() -> Trace {
    Trace {
        spans: recorder::take_spans(),
    }
}

/// Discards all collected spans and metrics (the enable flag is unchanged).
pub fn reset() {
    recorder::reset_spans();
    reset_metrics();
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::JsonValue;

    #[test]
    fn every_observe_artifact_parses_back() {
        let span = SpanRecord {
            id: 7,
            parent: Some(3),
            name: "conv\t\"7\"".into(),
            category: "layer",
            start_us: 12.5,
            dur_us: 0.1,
            tid: 1,
            attrs: vec![("op", "Conv".into()), ("flops", AttrValue::Int(42))],
        };
        let chrome = Trace {
            spans: vec![span.clone()],
        }
        .to_chrome_trace();
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("runs".into(), 3);
        metrics.gauges.insert("ratio".into(), 0.25);
        let mut h = Histogram::new();
        h.record(100);
        metrics.histograms.insert("run.latency_us".into(), h);
        let metrics = metrics.to_json();
        let event = FlightEvent {
            seq: 9,
            at_us: 1.5,
            tid: 0,
            category: "engine",
            label: "fallback".into(),
            detail: "line\nbreak".into(),
        };
        // (artifact, tree, every key in schema order, one spot-checked value)
        type Case<'a> = (&'a str, JsonValue, &'a [&'a str], (&'a str, JsonValue));
        let cases: [Case; 5] = [
            (
                "chrome event",
                chrome.as_array().unwrap()[0].clone(),
                &["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"],
                ("name", "conv\t\"7\"".into()),
            ),
            (
                "span line",
                span.to_json(),
                &[
                    "id", "parent", "name", "cat", "start_us", "dur_us", "tid", "op", "flops",
                ],
                ("parent", 3u64.into()),
            ),
            (
                "metrics",
                metrics.clone(),
                &["counters", "gauges", "histograms"],
                ("gauges", JsonValue::obj([("ratio", 0.25.into())])),
            ),
            (
                "histogram",
                metrics
                    .get("histograms")
                    .unwrap()
                    .get("run.latency_us")
                    .unwrap()
                    .clone(),
                &["count", "min", "max", "mean", "p50", "p90", "p99"],
                ("count", 1u64.into()),
            ),
            (
                "flight event",
                event.to_json(),
                &["seq", "at_us", "tid", "category", "label", "detail"],
                ("detail", "line\nbreak".into()),
            ),
        ];
        for (artifact, tree, keys, (key, value)) in cases {
            for text in [tree.to_string(), format!("{tree:#}")] {
                let back = JsonValue::parse(&text)
                    .unwrap_or_else(|e| panic!("{artifact} does not parse: {e}"));
                assert_eq!(back, tree, "{artifact} round trip");
                let JsonValue::Obj(members) = &back else {
                    panic!("{artifact} is not an object");
                };
                let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(names, keys, "{artifact} keys");
                assert_eq!(back.get(key), Some(&value), "{artifact}.{key}");
            }
        }
    }
}
