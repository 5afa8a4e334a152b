//! The global metrics registry: counters, gauges, and latency histograms.
//!
//! Like the span recorder, the registry is gated on the global enable flag —
//! a disabled `counter_add` is a single relaxed atomic load. Keys are plain
//! strings (instrumentation sites format dynamic keys such as
//! `selection.algo.gemm` on the spot); `BTreeMap` storage keeps exports
//! deterministically ordered.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::histogram::Histogram;
use crate::json::JsonValue;
use crate::recorder::enabled;

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    f(&mut registry().lock().expect("metrics registry poisoned"))
}

/// Adds `delta` to the counter `name`. No-op while recording is disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    with_registry(|r| *r.counters.entry(name.to_string()).or_insert(0) += delta);
}

/// Sets the gauge `name` to `value`. No-op while recording is disabled.
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    with_registry(|r| {
        r.gauges.insert(name.to_string(), value);
    });
}

/// Records `value` into the histogram `name`. No-op while recording is
/// disabled. Latency histograms in this workspace record microseconds.
pub fn histogram_record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    with_registry(|r| {
        r.histograms
            .entry(name.to_string())
            .or_default()
            .record(value)
    });
}

/// Discards all collected metrics.
pub fn reset_metrics() {
    with_registry(|r| *r = Registry::default());
}

/// A point-in-time copy of the metrics registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotonic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins values.
    pub gauges: BTreeMap<String, f64>,
    /// Latency distributions.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Copies the current metrics out of the registry (the registry keeps
/// accumulating).
pub fn metrics_snapshot() -> MetricsSnapshot {
    with_registry(|r| MetricsSnapshot {
        counters: r.counters.clone(),
        gauges: r.gauges.clone(),
        histograms: r.histograms.clone(),
    })
}

impl MetricsSnapshot {
    /// The snapshot as a JSON object with `counters`, `gauges`, and
    /// `histograms` sections; histograms are summarized as
    /// count/min/max/mean/p50/p90/p99.
    pub fn to_json(&self) -> JsonValue {
        let histogram = |h: &Histogram| {
            JsonValue::obj([
                ("count", h.count().into()),
                ("min", h.min().into()),
                ("max", h.max().into()),
                ("mean", h.mean().into()),
                ("p50", h.percentile(0.50).into()),
                ("p90", h.percentile(0.90).into()),
                ("p99", h.percentile(0.99).into()),
            ])
        };
        JsonValue::obj([
            (
                "counters",
                JsonValue::obj(self.counters.iter().map(|(k, v)| (k.as_str(), (*v).into()))),
            ),
            (
                "gauges",
                JsonValue::obj(self.gauges.iter().map(|(k, v)| (k.as_str(), (*v).into()))),
            ),
            (
                "histograms",
                JsonValue::obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.as_str(), histogram(h))),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{disable, enable};
    use std::sync::MutexGuard;

    fn lock() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_metrics_are_dropped() {
        let _serial = lock();
        disable();
        reset_metrics();
        counter_add("c", 5);
        gauge_set("g", 1.0);
        histogram_record("h", 10);
        let snap = metrics_snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn counters_accumulate_and_export() {
        let _serial = lock();
        enable();
        reset_metrics();
        counter_add("passes.total", 2);
        counter_add("passes.total", 3);
        gauge_set("threads", 4.0);
        for us in [100u64, 200, 300] {
            histogram_record("run.latency_us", us);
        }
        disable();
        let snap = metrics_snapshot();
        reset_metrics();
        assert_eq!(snap.counters["passes.total"], 5);
        assert_eq!(snap.gauges["threads"], 4.0);
        assert_eq!(snap.histograms["run.latency_us"].count(), 3);
        let json = JsonValue::parse(&format!("{:#}", snap.to_json())).unwrap();
        let counter = |key| json.get("counters").unwrap().get(key).unwrap().as_u64();
        assert_eq!(counter("passes.total"), Some(5));
        assert_eq!(
            json.get("gauges").unwrap().get("threads").unwrap().as_f64(),
            Some(4.0)
        );
        let h = json
            .get("histograms")
            .unwrap()
            .get("run.latency_us")
            .unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(3));
        assert!(h.get("p50").unwrap().as_u64().is_some());
        assert!(h.get("p99").unwrap().as_u64().is_some());
    }

    #[test]
    fn empty_snapshot_renders_valid_json_skeleton() {
        let snap = MetricsSnapshot::default();
        let json = JsonValue::parse(&format!("{:#}", snap.to_json())).unwrap();
        for section in ["counters", "gauges", "histograms"] {
            assert_eq!(
                json.get(section),
                Some(&JsonValue::Obj(vec![])),
                "{section}"
            );
        }
    }
}
