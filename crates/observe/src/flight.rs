//! The always-on flight recorder: a fixed-size ring of recent events.
//!
//! The span recorder answers "where did the time go?" but only when a trace
//! was requested *before* the run. The flight recorder answers the
//! post-mortem question — "what happened just before this failed?" — and so
//! it is always armed: notable events (loads, runtime faults, fallback
//! rescues, session errors) land in a global ring buffer of the last
//! [`flight_capacity`] events regardless of whether tracing is enabled, and
//! the ring can be dumped at any time.
//!
//! The design keeps the recorder off the hot path's cost model:
//!
//! * **Idle is free.** Nothing is polled; a recorder nobody writes to costs
//!   nothing. Instrumentation sites only fire on *events* (a fault, a
//!   fallback, a load), never per-layer in steady state.
//! * **Writers never block.** A writer claims its slot with one atomic
//!   `fetch_add` and then `try_lock`s only that slot; if a reader (or a
//!   writer lapping the ring) holds it, the event is counted in
//!   [`flight_dropped`] and the writer moves on. Worker threads can
//!   therefore record from inside `orpheus-threads` parallel regions without
//!   convoying.
//! * **Bounded memory.** The ring holds a fixed number of slots; old events
//!   are overwritten, never accumulated.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json::JsonValue;
use crate::recorder::thread_ordinal;

/// Number of events the ring retains.
const CAPACITY: usize = 1024;

/// One recorded flight event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Global sequence number (monotonic across wraparound).
    pub seq: u64,
    /// Microseconds since the process trace epoch.
    pub at_us: f64,
    /// Dense ordinal of the recording thread (shared with span records).
    pub tid: u64,
    /// Coarse event family (`"engine"`, `"session"`, `"selection"`, ...).
    pub category: &'static str,
    /// Short event name (`"fallback"`, `"run.error"`, ...).
    pub label: String,
    /// Free-form detail (layer name, error text, ...).
    pub detail: String,
}

struct Ring {
    slots: Vec<Mutex<Option<FlightEvent>>>,
    /// Next sequence number to hand out; `seq % CAPACITY` is the slot.
    cursor: AtomicU64,
    /// Events lost to slot contention (reader or lapping writer held it).
    dropped: AtomicU64,
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring {
        slots: (0..CAPACITY).map(|_| Mutex::new(None)).collect(),
        cursor: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
    })
}

/// Number of events the flight recorder retains before overwriting.
pub fn flight_capacity() -> usize {
    CAPACITY
}

/// Records one event into the ring. Never blocks: on slot contention the
/// event is dropped and counted instead.
pub fn flight_record(category: &'static str, label: impl Into<String>, detail: impl Into<String>) {
    let ring = ring();
    let seq = ring.cursor.fetch_add(1, Ordering::Relaxed);
    let event = FlightEvent {
        seq,
        at_us: crate::recorder::epoch_elapsed_us(),
        tid: thread_ordinal(),
        category,
        label: label.into(),
        detail: detail.into(),
    };
    let slot = &ring.slots[(seq % CAPACITY as u64) as usize];
    match slot.try_lock() {
        Ok(mut guard) => *guard = Some(event),
        Err(_) => {
            ring.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Events lost to slot contention since process start.
pub fn flight_dropped() -> u64 {
    ring().dropped.load(Ordering::Relaxed)
}

/// Total events ever recorded (including those since overwritten).
pub fn flight_recorded() -> u64 {
    ring().cursor.load(Ordering::Relaxed)
}

/// Copies the ring's current contents, oldest first.
///
/// Returns at most [`flight_capacity`] events. A snapshot taken while
/// writers are active is a best-effort cut: slots being written at that
/// instant may be skipped (their writers count a drop instead of blocking).
pub fn flight_snapshot() -> Vec<FlightEvent> {
    let ring = ring();
    let mut events: Vec<FlightEvent> = ring
        .slots
        .iter()
        .filter_map(|slot| slot.lock().ok().and_then(|guard| guard.clone()))
        .collect();
    events.sort_by_key(|e| e.seq);
    events
}

/// Empties the ring (sequence numbers keep incrementing).
pub fn flight_clear() {
    for slot in &ring().slots {
        if let Ok(mut guard) = slot.lock() {
            *guard = None;
        }
    }
}

/// Renders events as human-readable lines (`seq  +t_ms  tid  cat.label  detail`).
pub fn flight_render(events: &[FlightEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!(
            "#{:<6} +{:>10.3} ms  t{:<3} {:<24} {}\n",
            e.seq,
            e.at_us / 1e3,
            e.tid,
            format!("{}.{}", e.category, e.label),
            e.detail
        ));
    }
    out
}

impl FlightEvent {
    /// The event as one JSON-lines object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("seq", self.seq.into()),
            ("at_us", self.at_us.into()),
            ("tid", self.tid.into()),
            ("category", self.category.into()),
            ("label", self.label.as_str().into()),
            ("detail", self.detail.as_str().into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The ring is global; tests that clear/fill it must not interleave.
    fn lock() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn records_and_snapshots_in_order() {
        let _serial = lock();
        flight_clear();
        flight_record("test", "first", "a");
        flight_record("test", "second", "b");
        let events = flight_snapshot();
        let mine: Vec<_> = events.iter().filter(|e| e.category == "test").collect();
        assert!(mine.len() >= 2);
        let first = mine.iter().find(|e| e.label == "first").unwrap();
        let second = mine.iter().find(|e| e.label == "second").unwrap();
        assert!(first.seq < second.seq);
        assert!(second.at_us >= first.at_us);
        flight_clear();
    }

    #[test]
    fn wraparound_keeps_only_the_newest_capacity_events() {
        let _serial = lock();
        flight_clear();
        let n = flight_capacity() + 100;
        let base = flight_recorded();
        for i in 0..n {
            flight_record("wrap", format!("e{i}"), "");
        }
        let events: Vec<_> = flight_snapshot()
            .into_iter()
            .filter(|e| e.category == "wrap")
            .collect();
        assert_eq!(events.len(), flight_capacity());
        // The survivors are exactly the newest CAPACITY events, in order.
        assert_eq!(events.first().unwrap().seq, base + 100);
        assert_eq!(events.last().unwrap().seq, base + n as u64 - 1);
        for pair in events.windows(2) {
            assert_eq!(pair[1].seq, pair[0].seq + 1, "gap in surviving events");
        }
        flight_clear();
    }

    #[test]
    fn clear_empties_but_sequence_continues() {
        let _serial = lock();
        flight_clear();
        flight_record("clear", "before", "");
        let seq_before = flight_snapshot()
            .iter()
            .find(|e| e.label == "before")
            .unwrap()
            .seq;
        flight_clear();
        assert!(flight_snapshot().is_empty());
        flight_record("clear", "after", "");
        let seq_after = flight_snapshot()
            .iter()
            .find(|e| e.label == "after")
            .unwrap()
            .seq;
        assert!(seq_after > seq_before);
        flight_clear();
    }

    #[test]
    fn renderers_cover_every_event() {
        let _serial = lock();
        flight_clear();
        flight_record("render", "weird \"label\"", "line\nbreak");
        let events = flight_snapshot();
        let text = flight_render(&events);
        assert!(text.contains("render.weird"));
        let lines: Vec<JsonValue> = events
            .iter()
            .map(|e| JsonValue::parse(&e.to_json().to_string()).unwrap())
            .collect();
        for (event, json) in events.iter().zip(&lines) {
            assert_eq!(json.get("seq").unwrap().as_u64(), Some(event.seq));
        }
        let json = lines
            .iter()
            .find(|j| j.get("category").unwrap().as_str() == Some("render"))
            .unwrap();
        assert_eq!(json.get("label").unwrap().as_str(), Some("weird \"label\""));
        assert_eq!(json.get("detail").unwrap().as_str(), Some("line\nbreak"));
        flight_clear();
    }

    #[test]
    fn concurrent_writers_lose_nothing_to_races() {
        let _serial = lock();
        flight_clear();
        let dropped_before = flight_dropped();
        let threads = 8;
        let per_thread = 50; // well under CAPACITY in total
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    for i in 0..per_thread {
                        flight_record("race", format!("t{t}e{i}"), "");
                    }
                });
            }
        });
        let events: Vec<_> = flight_snapshot()
            .into_iter()
            .filter(|e| e.category == "race")
            .collect();
        // No two writers ever claim the same slot while the ring has spare
        // capacity, so with fewer events than slots nothing is dropped.
        assert_eq!(
            events.len() + (flight_dropped() - dropped_before) as usize,
            threads * per_thread
        );
        assert_eq!(flight_dropped(), dropped_before, "writers collided");
        // Every (thread, index) pair arrived exactly once.
        for t in 0..threads {
            for i in 0..per_thread {
                let label = format!("t{t}e{i}");
                assert_eq!(events.iter().filter(|e| e.label == label).count(), 1);
            }
        }
        flight_clear();
    }
}
