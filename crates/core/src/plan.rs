//! Static memory planning: liveness-driven activation-buffer reuse.
//!
//! Once a graph is lowered (and optionally fault-wrapped) the slot wiring is
//! frozen, so buffer lifetimes are known exactly: a slot's value is
//! materialized when its producing step runs and last read at its final
//! consumer. [`plan_memory`] turns those intervals into a [`MemoryPlan`] via
//! the shared interval planner in `orpheus-verify` — the same algorithm the
//! linter uses for its static prediction — so disjoint lifetimes share one
//! recycled buffer and pure view steps (Flatten/Reshape/Identity) alias
//! their input's storage outright, executing as moves instead of copies.
//!
//! The plan is computed once at `Engine::load`; every
//! [`Session`](crate::Session) then preallocates the planned buffers and
//! runs steady-state inference without touching the heap.
//!
//! The same planner also builds the *no-reuse* plan — every slot owns its
//! own buffer, no view moves — that the differential oracle session
//! executes: the same executor over a trivially sound schedule, so arena
//! reuse is the only thing a bit-identity check between the two can catch.

use orpheus_verify::{plan_buffers, BucketSpec, PlanSpec, SlotInterval, StepSpec};

use crate::lower::Plan;
use crate::profile::MemoryStats;

const BYTES_PER_ELEMENT: usize = 4;

/// The frozen buffer-reuse plan for one lowered network.
#[derive(Debug, Clone)]
pub struct MemoryPlan {
    /// For each slot, the arena buffer holding its value.
    pub(crate) buffer_of: Vec<usize>,
    /// Planned element capacity of each arena buffer.
    pub(crate) buffer_elems: Vec<usize>,
    /// For each step, whether the executor moves the (dying) input buffer
    /// into the output slot instead of running the layer.
    pub(crate) view_move: Vec<bool>,
    /// For each step, the slots reclaimed (buffer returned to the arena)
    /// once the step completes.
    pub(crate) reclaim_at: Vec<Vec<usize>>,
    /// Number of view steps that execute as moves.
    aliased_views: usize,
    /// Sum of all slot value sizes — what a no-reuse executor would hold.
    total_slot_bytes: usize,
}

impl MemoryPlan {
    /// Total planned arena size in bytes.
    pub fn arena_bytes(&self) -> usize {
        self.buffer_elems.iter().sum::<usize>() * BYTES_PER_ELEMENT
    }

    /// Number of distinct recycled buffers.
    pub fn num_buffers(&self) -> usize {
        self.buffer_elems.len()
    }

    /// Number of view steps the executor runs as zero-copy moves.
    pub fn aliased_views(&self) -> usize {
        self.aliased_views
    }

    /// Bytes all slot values would occupy without reuse.
    pub fn total_slot_bytes(&self) -> usize {
        self.total_slot_bytes
    }

    /// How many times over the arena is reused (`total / arena`; 1.0 for an
    /// empty plan).
    pub fn reuse_ratio(&self) -> f64 {
        let arena = self.arena_bytes();
        if arena == 0 {
            1.0
        } else {
            self.total_slot_bytes as f64 / arena as f64
        }
    }

    /// The plan's footprint as run statistics: the arena is the peak, every
    /// slot value is one allocation, and each reclaim frees a value early.
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            peak_bytes: self.arena_bytes(),
            total_allocated_bytes: self.total_slot_bytes,
            tensors_freed_early: self.reclaim_at.iter().map(Vec::len).sum(),
        }
    }

    /// One-line human-readable summary for `Network::describe`.
    pub fn summary(&self) -> String {
        format!(
            "memory plan: {} buffer(s), {} arena byte(s) for {} value byte(s) \
             (reuse {:.2}x, {} aliased view(s))",
            self.num_buffers(),
            self.arena_bytes(),
            self.total_slot_bytes,
            self.reuse_ratio(),
            self.aliased_views
        )
    }
}

/// Computes the buffer-reuse plan for a lowered `Plan` at its base batch.
///
/// Call this after fault-injection wrapping: wrapped layers clear the
/// `viewable` flag, and aliasing decisions must match what actually runs.
pub(crate) fn plan_memory(plan: &Plan) -> MemoryPlan {
    plan_memory_with(plan, &plan.slot_dims, true)
}

/// Computes the memory plan for a lowered `Plan` with an explicit set of
/// per-slot dims — the per-batch-bucket entry point. Liveness (step order,
/// last uses, viewability) is batch-independent; only the slot sizes
/// change, so each bucket reuses the same intervals over different extents.
///
/// With `reuse` false this is the no-reuse plan: every slot gets a buffer of
/// its own and no view step moves, while reclaims keep the liveness
/// schedule (so the plan checker's reclaim rules still apply).
pub(crate) fn plan_memory_with(plan: &Plan, slot_dims: &[Vec<usize>], reuse: bool) -> MemoryPlan {
    let n_slots = plan.num_slots;
    let elems_of = |slot: usize| -> usize {
        slot_dims[slot]
            .iter()
            .product::<usize>()
            .max(usize::from(slot_dims[slot].is_empty()))
    };

    // Slot definition step: the input exists before step 0; step i defines
    // its output at time i + 1 (read times are consumer step + 1).
    let mut def_time = vec![0usize; n_slots];
    for (i, step) in plan.steps.iter().enumerate() {
        def_time[step.output] = i + 1;
    }
    let read_time = |slot: usize| -> usize {
        match plan.last_use[slot] {
            usize::MAX => usize::MAX,
            step => step + 1,
        }
    };

    // View aliasing: a view step whose single input dies at that step can
    // hand its input buffer to the output. Union the two slots so the
    // planner sees one merged lifetime.
    let mut rep: Vec<usize> = (0..n_slots).collect();
    let mut view_move = vec![false; plan.steps.len()];
    for (i, step) in plan.steps.iter().enumerate() {
        if reuse
            && step.viewable
            && step.inputs.len() == 1
            && plan.last_use[step.inputs[0]] == i
            && elems_of(step.inputs[0]) == elems_of(step.output)
        {
            view_move[i] = true;
            rep[step.output] = rep[step.inputs[0]];
        }
    }
    let aliased_views = view_move.iter().filter(|&&v| v).count();

    // One interval per representative: from the chain head's definition to
    // the chain tail's last read.
    let mut group_of_rep = vec![usize::MAX; n_slots];
    let mut intervals: Vec<SlotInterval> = Vec::new();
    let mut group_of_slot = vec![0usize; n_slots];
    for slot in 0..n_slots {
        let r = rep[slot];
        if group_of_rep[r] == usize::MAX {
            group_of_rep[r] = intervals.len();
            intervals.push(SlotInterval {
                elems: elems_of(slot),
                def: def_time[r],
                last_use: def_time[r],
            });
        }
        let g = group_of_rep[r];
        group_of_slot[slot] = g;
        let iv = &mut intervals[g];
        iv.elems = iv.elems.max(elems_of(slot));
        iv.def = iv.def.min(def_time[slot]);
        iv.last_use = iv.last_use.max(read_time(slot)).max(iv.def);
    }

    let (buffer_of, buffer_elems) = if reuse {
        let buffers = plan_buffers(&intervals);
        let buffer_of = group_of_slot
            .iter()
            .map(|&g| buffers.buffer_of[g])
            .collect();
        (buffer_of, buffers.buffer_elems)
    } else {
        // Without view moves every slot is its own group, in slot order.
        (group_of_slot, intervals.iter().map(|iv| iv.elems).collect())
    };

    // Reclaim lists: after step i, return every buffer whose slot was last
    // read there — except a view-move input, whose buffer transfers to the
    // output instead of going back to the arena.
    let mut reclaim_at: Vec<Vec<usize>> = vec![Vec::new(); plan.steps.len()];
    for slot in 0..n_slots {
        let step = plan.last_use[slot];
        if step == usize::MAX {
            continue;
        }
        if view_move[step] && plan.steps[step].inputs == [slot] {
            continue;
        }
        reclaim_at[step].push(slot);
    }

    let total_slot_bytes = (0..n_slots).map(|s| elems_of(s) * BYTES_PER_ELEMENT).sum();

    MemoryPlan {
        buffer_of,
        buffer_elems,
        view_move,
        reclaim_at,
        aliased_views,
        total_slot_bytes,
    }
}

/// Projects a lowered `Plan` (plus its per-bucket memory plans — the reuse
/// plans, or with `reuse` false the no-reuse plans) into the
/// backend-neutral [`PlanSpec`] the static plan checker consumes. Layer
/// boxes, dims, and fault wrappers are erased; only the slot wiring, element
/// counts, and arena schedule survive — exactly what soundness depends on.
pub(crate) fn plan_spec(model: &str, plan: &Plan, reuse: bool) -> PlanSpec {
    let elems = |dims: &[usize]| -> usize {
        dims.iter()
            .product::<usize>()
            .max(usize::from(dims.is_empty()))
    };
    let steps: Vec<StepSpec> = plan
        .steps
        .iter()
        .map(|s| StepSpec {
            name: s.layer.name().to_string(),
            inputs: s.inputs.clone(),
            output: s.output,
        })
        .collect();

    let bucket_spec = |batch: usize, slot_dims: &[Vec<usize>], memory: &MemoryPlan| BucketSpec {
        batch,
        slot_elems: slot_dims.iter().map(|d| elems(d)).collect(),
        buffer_of: memory.buffer_of.clone(),
        buffer_elems: memory.buffer_elems.clone(),
        view_move: memory.view_move.clone(),
        reclaim_at: memory.reclaim_at.clone(),
    };

    // Synthetic plans without explicit buckets carry one memory plan at the
    // base batch.
    let buckets: Vec<BucketSpec> = (0..plan.buckets.len().max(1))
        .map(|idx| {
            bucket_spec(
                plan.bucket_batch(idx).max(1),
                plan.bucket_slot_dims(idx),
                plan.bucket_memory(idx, reuse),
            )
        })
        .collect();

    PlanSpec {
        model: model.to_string(),
        num_slots: plan.num_slots,
        input_slot: plan.input_slot,
        output_slot: plan.output_slot,
        steps,
        last_use: plan.last_use.clone(),
        buckets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::lower::PlanStep;
    use orpheus_tensor::Tensor;
    use orpheus_threads::ThreadPool;

    #[derive(Debug)]
    struct Nop(&'static str);
    impl Layer for Nop {
        fn name(&self) -> &str {
            self.0
        }
        fn op_name(&self) -> &str {
            "Nop"
        }
        fn implementation(&self) -> String {
            "nop".into()
        }
        fn run_into(
            &self,
            _inputs: &[&Tensor],
            _output: &mut Tensor,
            _pool: &ThreadPool,
        ) -> Result<(), crate::EngineError> {
            Ok(())
        }
    }

    fn step(inputs: &[usize], output: usize, viewable: bool) -> PlanStep {
        PlanStep {
            layer: Box::new(Nop("s")),
            inputs: inputs.to_vec(),
            output,
            viewable,
        }
    }

    /// chain 0 -> 1 -> 2: slots 0 and 2 can share once 0 dies.
    fn chain_plan() -> Plan {
        Plan {
            steps: vec![step(&[0], 1, false), step(&[1], 2, false)],
            num_slots: 3,
            input_slot: 0,
            input_dims: vec![1, 4],
            output_slot: 2,
            last_use: vec![0, 1, usize::MAX],
            slot_dims: vec![vec![1, 4], vec![1, 4], vec![1, 4]],
            memory: None,
            no_reuse_memory: Default::default(),
            buckets: Vec::new(),
            gemm_isa: "scalar",
        }
    }

    #[test]
    fn chain_reuses_buffers() {
        let mp = plan_memory(&chain_plan());
        assert_eq!(mp.num_buffers(), 2);
        assert_eq!(mp.buffer_of[0], mp.buffer_of[2]);
        assert_ne!(mp.buffer_of[0], mp.buffer_of[1]);
        assert_eq!(mp.arena_bytes(), 2 * 4 * 4);
        assert!(mp.reuse_ratio() > 1.4);
        // slot 0 reclaimed after step 0, slot 1 after step 1.
        assert_eq!(mp.reclaim_at, vec![vec![0], vec![1]]);
    }

    #[test]
    fn dying_view_input_aliases() {
        let mut plan = chain_plan();
        plan.steps[1].viewable = true;
        let mp = plan_memory(&plan);
        assert!(mp.view_move[1]);
        assert_eq!(mp.aliased_views(), 1);
        // slots 1 and 2 share one buffer (the move), and slot 0 can still
        // reuse nothing later — two buffers total.
        assert_eq!(mp.buffer_of[1], mp.buffer_of[2]);
        // the view input's buffer transfers: nothing reclaimed at step 1.
        assert_eq!(mp.reclaim_at[1], Vec::<usize>::new());
    }

    #[test]
    fn live_view_input_copies() {
        // slot 1 is read again by step 2, so the view at step 1 cannot move.
        let plan = Plan {
            steps: vec![
                step(&[0], 1, false),
                step(&[1], 2, true),
                step(&[1, 2], 3, false),
            ],
            num_slots: 4,
            input_slot: 0,
            input_dims: vec![1, 4],
            output_slot: 3,
            last_use: vec![0, 2, 2, usize::MAX],
            slot_dims: vec![vec![1, 4]; 4],
            memory: None,
            no_reuse_memory: Default::default(),
            buckets: Vec::new(),
            gemm_isa: "scalar",
        };
        let mp = plan_memory(&plan);
        assert!(!mp.view_move[1]);
        assert_eq!(mp.aliased_views(), 0);
        assert_ne!(mp.buffer_of[1], mp.buffer_of[2]);
    }

    #[test]
    fn no_reuse_plan_gives_every_slot_its_own_buffer() {
        let mut plan = chain_plan();
        plan.steps[1].viewable = true;
        let mp = plan_memory_with(&plan, &plan.slot_dims, false);
        assert_eq!(mp.num_buffers(), plan.num_slots);
        assert_eq!(mp.buffer_of, vec![0, 1, 2]);
        assert_eq!(mp.aliased_views(), 0);
        assert_eq!(mp.arena_bytes(), mp.total_slot_bytes());
        // Reclaims keep the liveness schedule.
        assert_eq!(mp.reclaim_at, vec![vec![0], vec![1]]);
        let stats = mp.stats();
        assert_eq!(stats.peak_bytes, 3 * 4 * 4);
        assert_eq!(stats.tensors_freed_early, 2);
    }

    #[test]
    fn summary_mentions_buffers() {
        let mp = plan_memory(&chain_plan());
        let s = mp.summary();
        assert!(s.contains("2 buffer(s)"), "{s}");
        assert!(s.contains("reuse"), "{s}");
    }
}
