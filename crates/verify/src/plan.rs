//! Static buffer planning over liveness intervals.
//!
//! The executor's memory plan and the lint report's arena estimate share one
//! algorithm: given per-value liveness intervals, assign every value to a
//! recyclable buffer so that values with overlapping lifetimes never share.
//! The engine feeds it lowered plan slots (with view chains pre-merged); the
//! lint path feeds it graph values, so the static prediction printed by
//! `lint --json` and the plan the runtime executes agree by construction.
//!
//! Intervals use a single "time" axis: a value is materialized at `def` and
//! last read at `last_use`. A buffer whose occupant was last read at time `T`
//! becomes reusable for values defined at any time strictly after `T` — the
//! same reclamation policy as [`memory_report`](crate::memory_report) and the
//! executor, which frees a tensor only after the step that reads it last has
//! finished. `usize::MAX` marks values (graph outputs) that stay live to the
//! end.

use std::collections::{HashMap, HashSet};

use orpheus_graph::{infer_shapes, infer_shapes_with_batch, Graph, GraphError};
use orpheus_observe::json::JsonValue;

/// Bytes per activation element (the engine executes in `f32`).
const BYTES_PER_ELEMENT: usize = 4;

/// Liveness interval of one plannable value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotInterval {
    /// Element count of the value (buffer capacity demand).
    pub elems: usize,
    /// Time the value is materialized.
    pub def: usize,
    /// Time of the value's final read; `usize::MAX` = live to the end.
    pub last_use: usize,
}

/// The result of buffer planning: a value → buffer assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferPlan {
    /// Buffer index assigned to each interval, parallel to the input slice.
    pub buffer_of: Vec<usize>,
    /// Element capacity of each buffer (the max demand of its occupants).
    pub buffer_elems: Vec<usize>,
}

impl BufferPlan {
    /// Number of distinct buffers the plan uses.
    pub fn num_buffers(&self) -> usize {
        self.buffer_elems.len()
    }

    /// Total arena footprint in elements.
    pub fn arena_elems(&self) -> usize {
        self.buffer_elems.iter().sum()
    }

    /// Total arena footprint in bytes.
    pub fn arena_bytes(&self) -> usize {
        self.arena_elems() * BYTES_PER_ELEMENT
    }
}

/// Assigns each interval to a buffer, reusing buffers whose occupants'
/// lifetimes are disjoint.
///
/// Greedy best-fit in definition order: among the buffers free at `def`,
/// pick the smallest one large enough; failing that, grow the largest free
/// buffer; failing that, open a new buffer. For the shrinking activation
/// sizes of CNN inference this stays at (and usually below) the liveness
/// peak, but it is a heuristic — callers that need a bound should compare
/// against [`memory_report`](crate::memory_report).
pub fn plan_buffers(intervals: &[SlotInterval]) -> BufferPlan {
    let mut order: Vec<usize> = (0..intervals.len()).collect();
    order.sort_by_key(|&s| (intervals[s].def, s));

    let mut buffer_of = vec![usize::MAX; intervals.len()];
    let mut buffer_elems: Vec<usize> = Vec::new();
    // Per buffer: the time its current occupant is last read.
    let mut busy_until: Vec<usize> = Vec::new();

    for &s in &order {
        let iv = &intervals[s];
        let mut best_fit: Option<usize> = None;
        let mut largest_free: Option<usize> = None;
        for (b, &until) in busy_until.iter().enumerate() {
            if until == usize::MAX || until >= iv.def {
                continue; // occupant still live when this value materializes
            }
            if buffer_elems[b] >= iv.elems
                && best_fit.is_none_or(|prev| buffer_elems[b] < buffer_elems[prev])
            {
                best_fit = Some(b);
            }
            if largest_free.is_none_or(|prev| buffer_elems[b] > buffer_elems[prev]) {
                largest_free = Some(b);
            }
        }
        let b = match (best_fit, largest_free) {
            (Some(b), _) => b,
            (None, Some(b)) => {
                buffer_elems[b] = iv.elems;
                b
            }
            (None, None) => {
                buffer_elems.push(iv.elems);
                busy_until.push(0);
                buffer_elems.len() - 1
            }
        };
        buffer_of[s] = b;
        busy_until[b] = iv.last_use;
    }
    BufferPlan {
        buffer_of,
        buffer_elems,
    }
}

/// The canonical batch-bucket ladder shared by the engine's per-bucket
/// memory planner and the lint report: powers of two from `base` (the
/// model's declared batch), capped by a final rung at exactly `max`.
///
/// `batch_buckets(1, 6)` → `[1, 2, 4, 6]`; `max <= base` → `[base]`.
pub fn batch_buckets(base: usize, max: usize) -> Vec<usize> {
    let base = base.max(1);
    let mut buckets = Vec::new();
    let mut batch = base;
    while batch < max {
        buckets.push(batch);
        batch = batch.saturating_mul(2);
    }
    buckets.push(max.max(base));
    buckets
}

/// Arena summary for a graph: what the shared planner would allocate if the
/// engine executed this graph as-is (one value per slot, no view aliasing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaReport {
    /// Planned arena footprint in bytes.
    pub arena_bytes: usize,
    /// Number of distinct recyclable buffers.
    pub num_buffers: usize,
    /// Number of activation values planned.
    pub num_values: usize,
    /// Bytes a per-value allocation scheme would need (the reuse baseline).
    pub total_value_bytes: usize,
}

impl ArenaReport {
    /// How many bytes of per-value allocation each arena byte replaces.
    pub fn reuse_ratio(&self) -> f64 {
        if self.arena_bytes == 0 {
            1.0
        } else {
            self.total_value_bytes as f64 / self.arena_bytes as f64
        }
    }

    /// Renders the report as indented text lines.
    pub fn render(&self) -> String {
        format!(
            "  planned arena:    {:>10} ({}) in {} buffer(s) for {} value(s), reuse {:.2}x\n",
            self.arena_bytes,
            crate::dataflow::human_bytes(self.arena_bytes),
            self.num_buffers,
            self.num_values,
            self.reuse_ratio()
        )
    }

    /// The report as one JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("arena_bytes", self.arena_bytes.into()),
            ("num_buffers", self.num_buffers.into()),
            ("num_values", self.num_values.into()),
            ("total_value_bytes", self.total_value_bytes.into()),
            ("reuse_ratio", self.reuse_ratio().into()),
        ])
    }
}

/// Plans buffer reuse for a graph's activation values.
///
/// Builds liveness intervals on the same policy as
/// [`memory_report`](crate::memory_report) — graph inputs materialize at time
/// 0, node outputs when their producer runs, values die after their last
/// consumer, graph outputs never die — and feeds them to [`plan_buffers`].
///
/// # Errors
///
/// Propagates cycle and shape-inference failures, like `memory_report`.
pub fn arena_report(graph: &Graph) -> Result<ArenaReport, GraphError> {
    arena_report_from_shapes(graph, infer_shapes(graph)?)
}

/// [`arena_report`] at an explicit leading (batch) dim: shapes are inferred
/// with every graph input's batch overridden to `batch`, then planned with
/// the identical liveness policy. This is the per-bucket lint entry point —
/// what `lint --json` prints per batch bucket and what the engine plans at
/// `Engine::load` for that bucket agree by construction.
///
/// # Errors
///
/// Everything [`arena_report`] propagates, plus shape-inference failures for
/// graphs that pin the batch (e.g. a `Reshape` with a hard-coded leading
/// extent) — such models are not batchable.
pub fn arena_report_with_batch(graph: &Graph, batch: usize) -> Result<ArenaReport, GraphError> {
    arena_report_from_shapes(graph, infer_shapes_with_batch(graph, batch)?)
}

fn arena_report_from_shapes(
    graph: &Graph,
    shapes: HashMap<String, Vec<usize>>,
) -> Result<ArenaReport, GraphError> {
    let order = graph.topo_order()?;
    let value_elems = |name: &str| -> usize {
        shapes
            .get(name)
            .map(|dims| dims.iter().product::<usize>())
            .unwrap_or(0)
    };

    let graph_outputs: HashSet<&str> = graph.outputs().iter().map(String::as_str).collect();
    let initializer_names: HashSet<&str> =
        graph.initializers().keys().map(String::as_str).collect();
    // Last read time of every value: consumer at topo position `pos` reads at
    // time `pos + 1` (inputs materialize at time 0, producers at `pos + 1`).
    let mut last_use: HashMap<&str, usize> = HashMap::new();
    for (pos, &idx) in order.iter().enumerate() {
        for input in graph.nodes()[idx].inputs.iter().filter(|i| !i.is_empty()) {
            last_use.insert(input.as_str(), pos + 1);
        }
    }

    let mut intervals: Vec<SlotInterval> = Vec::new();
    let mut seen: HashSet<&str> = HashSet::new();
    let push = |name: &str,
                def: usize,
                intervals: &mut Vec<SlotInterval>,
                last_use: &HashMap<&str, usize>| {
        let lu = if graph_outputs.contains(name) {
            usize::MAX
        } else {
            last_use.get(name).copied().unwrap_or(def)
        };
        intervals.push(SlotInterval {
            elems: value_elems(name),
            def,
            last_use: lu.max(def),
        });
    };
    for info in graph.inputs() {
        if seen.insert(info.name.as_str()) {
            push(&info.name, 0, &mut intervals, &last_use);
        }
    }
    for (pos, &idx) in order.iter().enumerate() {
        for out in &graph.nodes()[idx].outputs {
            // Folded initializer outputs are parameters, not activations.
            if initializer_names.contains(out.as_str()) || !seen.insert(out.as_str()) {
                continue;
            }
            push(out, pos + 1, &mut intervals, &last_use);
        }
    }

    let plan = plan_buffers(&intervals);
    Ok(ArenaReport {
        arena_bytes: plan.arena_bytes(),
        num_buffers: plan.num_buffers(),
        num_values: intervals.len(),
        total_value_bytes: intervals
            .iter()
            .map(|iv| iv.elems * BYTES_PER_ELEMENT)
            .sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orpheus_graph::{Node, OpKind, ValueInfo};

    fn iv(elems: usize, def: usize, last_use: usize) -> SlotInterval {
        SlotInterval {
            elems,
            def,
            last_use,
        }
    }

    #[test]
    fn chain_reuses_alternating_buffers() {
        // a -> b -> c -> d, each read once by the next step: two buffers.
        let plan = plan_buffers(&[iv(8, 0, 1), iv(8, 1, 2), iv(8, 2, 3), iv(8, 3, usize::MAX)]);
        assert_eq!(plan.num_buffers(), 2);
        assert_eq!(plan.arena_elems(), 16);
        assert_eq!(plan.buffer_of[0], plan.buffer_of[2]);
        assert_eq!(plan.buffer_of[1], plan.buffer_of[3]);
    }

    #[test]
    fn overlapping_lifetimes_never_share() {
        // Both values live at time 1.
        let plan = plan_buffers(&[iv(4, 0, 2), iv(4, 1, 2)]);
        assert_ne!(plan.buffer_of[0], plan.buffer_of[1]);
    }

    #[test]
    fn value_read_by_its_producer_step_is_not_freed_early() {
        // Occupant last read at time 2; a value defined at time 2 must not
        // take its buffer (the read and write overlap), but time 3 may.
        let plan = plan_buffers(&[iv(4, 0, 2), iv(4, 2, 3), iv(4, 3, 4)]);
        assert_ne!(plan.buffer_of[0], plan.buffer_of[1]);
        assert_eq!(plan.buffer_of[0], plan.buffer_of[2]);
    }

    #[test]
    fn grow_largest_prefers_biggest_free_buffer() {
        // Two dead buffers (10 and 12 elems); a 20-elem value grows the 12.
        let plan = plan_buffers(&[iv(10, 0, 1), iv(12, 1, 2), iv(20, 3, 4)]);
        assert_eq!(plan.buffer_of[2], plan.buffer_of[1]);
        assert_eq!(plan.arena_elems(), 10 + 20);
    }

    #[test]
    fn forever_live_values_keep_their_buffers() {
        let plan = plan_buffers(&[iv(4, 0, usize::MAX), iv(4, 1, usize::MAX), iv(4, 2, 3)]);
        assert_eq!(plan.num_buffers(), 3);
    }

    #[test]
    fn empty_plan_is_empty() {
        let plan = plan_buffers(&[]);
        assert_eq!(plan.num_buffers(), 0);
        assert_eq!(plan.arena_bytes(), 0);
    }

    #[test]
    fn graph_arena_stays_at_or_below_liveness_peak() {
        // x[16] -> relu -> y -> sigmoid -> z: peak is two live values.
        let mut g = Graph::new("chain");
        g.add_input(ValueInfo::new("x", &[1, 16]));
        g.add_node(Node::new("a", OpKind::Relu, &["x"], &["y"]));
        g.add_node(Node::new("b", OpKind::Sigmoid, &["y"], &["z"]));
        g.add_output("z");
        let report = arena_report(&g).unwrap();
        let peak = crate::memory_report(&g).unwrap().peak_bytes;
        assert_eq!(report.num_values, 3);
        assert_eq!(report.num_buffers, 2);
        assert_eq!(report.arena_bytes, 128);
        assert!(report.arena_bytes <= peak);
        assert!((report.reuse_ratio() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn batched_arena_report_scales_values_linearly() {
        let mut g = Graph::new("chain");
        g.add_input(ValueInfo::new("x", &[1, 16]));
        g.add_node(Node::new("a", OpKind::Relu, &["x"], &["y"]));
        g.add_node(Node::new("b", OpKind::Sigmoid, &["y"], &["z"]));
        g.add_output("z");
        let base = arena_report(&g).unwrap();
        let at1 = arena_report_with_batch(&g, 1).unwrap();
        assert_eq!(base, at1, "batch 1 must match the unbatched report");
        let at4 = arena_report_with_batch(&g, 4).unwrap();
        assert_eq!(at4.num_values, base.num_values);
        assert_eq!(at4.total_value_bytes, base.total_value_bytes * 4);
        assert_eq!(at4.arena_bytes, base.arena_bytes * 4);
    }

    #[test]
    fn arena_json_has_stable_keys() {
        let report = ArenaReport {
            arena_bytes: 128,
            num_buffers: 2,
            num_values: 3,
            total_value_bytes: 192,
        };
        let json = JsonValue::parse(&report.to_json().to_string()).unwrap();
        assert_eq!(json.get("arena_bytes").unwrap().as_u64(), Some(128));
        assert_eq!(json.get("reuse_ratio").unwrap().as_f64(), Some(1.5));
    }
}
