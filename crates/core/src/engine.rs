//! The engine (model loading) and network (execution) types.

use std::sync::Arc;

use orpheus_graph::{passes::PassManager, Graph};
use orpheus_observe as observe;
use orpheus_onnx::import_model;
use orpheus_tensor::Tensor;
use orpheus_threads::ThreadPool;

use crate::error::EngineError;
use crate::fault::FaultMode;
use crate::lower::{lower, Plan};
use crate::personality::{Personality, ThreadPolicy};
use crate::plan::{plan_memory, MemoryPlan};
use crate::profile::Profile;
use crate::selection::SelectionPolicy;
use crate::session::Session;

/// Which simulated vendor library convolution layers are routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VendorBackend {
    /// VNNL (DNNL-style).
    Vnnl,
    /// VCL (ACL-style).
    Vcl,
}

/// Fluent configuration for an [`Engine`].
///
/// Obtain one with [`Engine::builder`]; every knob has a sensible default
/// (1 thread, the Orpheus personality, the personality's selection policy
/// and simplification behaviour, no vendor routing, no fault injection).
///
/// # Examples
///
/// ```
/// use orpheus::{Engine, Personality};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = Engine::builder()
///     .threads(1)
///     .personality(Personality::Orpheus)
///     .build()?;
/// # let _ = engine;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    threads: Option<usize>,
    personality: Option<Personality>,
    policy: Option<SelectionPolicy>,
    simplify: Option<bool>,
    vendor: Option<VendorBackend>,
    fault_injection: Option<String>,
    fault_mode: Option<FaultMode>,
    max_batch: Option<usize>,
    force_scalar: Option<bool>,
    plan_corruption: Option<(orpheus_verify::PlanCorruption, usize)>,
}

impl EngineBuilder {
    /// Sets the thread-pool size (default 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the framework personality (default [`Personality::Orpheus`]).
    pub fn personality(mut self, personality: Personality) -> Self {
        self.personality = Some(personality);
        self
    }

    /// Overrides the convolution selection policy (e.g. heuristic or
    /// auto-tune instead of the personality's fixed algorithm).
    pub fn policy(mut self, policy: SelectionPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Enables or disables graph simplification (the `graph_simplify`
    /// ablation knob); defaults to the personality's behaviour.
    pub fn simplification(mut self, simplify: bool) -> Self {
        self.simplify = Some(simplify);
        self
    }

    /// Routes plain convolutions to a simulated vendor backend.
    pub fn vendor_backend(mut self, vendor: VendorBackend) -> Self {
        self.vendor = Some(vendor);
        self
    }

    /// Injects a runtime fault into every lowered layer whose implementation
    /// string contains `needle` (robustness drill: by default the wrapped
    /// layers fail every `run`, exercising the reference-fallback path; see
    /// [`EngineBuilder::fault_mode`] for panicking and flaky variants).
    pub fn fault_injection(mut self, needle: &str) -> Self {
        self.fault_injection = Some(needle.to_string());
        self
    }

    /// Selects how injected faults manifest (default [`FaultMode::Error`]).
    /// Only meaningful together with [`EngineBuilder::fault_injection`].
    pub fn fault_mode(mut self, mode: FaultMode) -> Self {
        self.fault_mode = Some(mode);
        self
    }

    /// Test support: corrupts the plan description `bucket` feeds the plan
    /// sanitizer at `Engine::load`, proving the sanitizer rejects an
    /// unsound plan with the offending bucket and code attributed. Forces
    /// the sanitizer on even in release builds. Never use outside tests —
    /// a load configured this way is expected to fail.
    #[doc(hidden)]
    pub fn corrupt_plan(
        mut self,
        corruption: orpheus_verify::PlanCorruption,
        bucket: usize,
    ) -> Self {
        self.plan_corruption = Some((corruption, bucket));
        self
    }

    /// Largest batch size loaded networks serve from one plan (default 1 —
    /// only the model's declared batch).
    ///
    /// Loading plans activation memory per power-of-two batch bucket up to
    /// this bound (e.g. `max_batch(6)` over a batch-1 model yields buckets
    /// 1, 2, 4, 6); a [`Session`] then picks the smallest covering bucket
    /// at run time, padding the tail when the batch falls between rungs.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = Some(max_batch);
        self
    }

    /// Pins every runtime-dispatched GEMM tier to the scalar micro-kernel
    /// (`packed-scalar` instead of `packed`), bypassing SIMD dispatch.
    ///
    /// This is the scalar differential lane: a force-scalar engine is
    /// bit-identical to the pre-SIMD packed path, so comparing it against a
    /// default engine bounds the SIMD numerical drift. Defaults to whatever
    /// the process-wide dispatch decided — `false` on SIMD-capable hosts,
    /// `true` when the host lacks AVX2+FMA or `ORPHEUS_FORCE_SCALAR=1` is
    /// set (so the env lane flows through the builder automatically).
    pub fn force_scalar(mut self, force: bool) -> Self {
        self.force_scalar = Some(force);
        self
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] for a zero thread count, or when the
    /// personality's thread policy rejects the thread count — notably
    /// `tflite-sim` only accepts the maximum hardware thread count,
    /// reproducing the paper's reason for excluding TF-Lite from its
    /// single-thread Figure 2.
    pub fn build(self) -> Result<Engine, EngineError> {
        let personality = self.personality.unwrap_or(Personality::Orpheus);
        let threads = self.threads.unwrap_or(1);
        let max_batch = self.max_batch.unwrap_or(1);
        if max_batch == 0 {
            return Err(EngineError::Config("max_batch must be at least 1".into()));
        }
        let pool = ThreadPool::new(threads).map_err(|e| EngineError::Config(e.to_string()))?;
        if personality.thread_policy() == ThreadPolicy::MaxOnly {
            let max = ThreadPool::max_hardware().num_threads();
            if threads != max {
                return Err(EngineError::Config(format!(
                    "{personality} always selects the maximum number of threads \
                     ({max}); requested {threads}"
                )));
            }
        }
        Ok(Engine {
            pool,
            policy: self.policy.unwrap_or_else(|| personality.conv_policy()),
            simplify: self
                .simplify
                .unwrap_or_else(|| personality.simplifies_graph()),
            personality,
            vendor: self.vendor,
            fault_injection: self.fault_injection,
            fault_mode: self.fault_mode.unwrap_or(FaultMode::Error),
            max_batch,
            force_scalar: self
                .force_scalar
                .unwrap_or_else(|| !orpheus_gemm::active_is_simd()),
            plan_corruption: self.plan_corruption,
        })
    }
}

/// Model loader: holds the execution configuration (threads, personality,
/// selection policy, simplification) and lowers graphs into [`Network`]s.
#[derive(Debug)]
pub struct Engine {
    pool: ThreadPool,
    personality: Personality,
    policy: SelectionPolicy,
    simplify: bool,
    vendor: Option<VendorBackend>,
    fault_injection: Option<String>,
    fault_mode: FaultMode,
    max_batch: usize,
    force_scalar: bool,
    plan_corruption: Option<(orpheus_verify::PlanCorruption, usize)>,
}

impl Engine {
    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The engine's thread pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// The configured personality.
    pub fn personality(&self) -> Personality {
        self.personality
    }

    /// The active selection policy.
    pub fn policy(&self) -> SelectionPolicy {
        self.policy
    }

    /// The vendor routing, if any.
    pub fn vendor_backend(&self) -> Option<VendorBackend> {
        self.vendor
    }

    /// Whether graphs are simplified before lowering.
    pub fn simplifies(&self) -> bool {
        self.simplify
    }

    /// The largest batch size loaded networks serve (see
    /// [`EngineBuilder::max_batch`]).
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Whether lowering pins runtime-dispatched GEMM tiers to the scalar
    /// micro-kernel (see [`EngineBuilder::force_scalar`]).
    pub fn forces_scalar(&self) -> bool {
        self.force_scalar
    }

    /// Loads a graph: simplify (per configuration), verify, select
    /// implementations, and lower to an executable network.
    ///
    /// In debug builds the pass pipeline runs in sanitizer mode — the IR
    /// verifier re-checks the graph after every pass and attributes the
    /// first violation to the pass that introduced it. Release builds verify
    /// once, post-simplification, before lowering.
    ///
    /// # Errors
    ///
    /// Propagates graph validation, verification, and lowering failures.
    pub fn load(&self, mut graph: Graph) -> Result<Network, EngineError> {
        let mut load_span = observe::span("load", "engine");
        load_span.attr("model", graph.name.as_str());
        load_span.attr("personality", self.personality.to_string());
        if self.simplify {
            let mut pipeline = PassManager::standard();
            if cfg!(debug_assertions) {
                orpheus_verify::install_sanitizer(&mut pipeline);
            }
            pipeline.run_to_fixpoint(&mut graph)?;
        }
        if !(cfg!(debug_assertions) && self.simplify) {
            // The sanitizer already verified every intermediate graph above;
            // otherwise (release, or simplification disabled) verify the
            // final graph once before trusting it for lowering.
            let diagnostics = orpheus_verify::verify_graph(&graph);
            if let Some(first) = diagnostics
                .iter()
                .find(|d| d.severity == orpheus_verify::Severity::Error)
            {
                return Err(EngineError::Graph(orpheus_graph::GraphError::Pass {
                    pass: "post-simplify-verify".to_string(),
                    reason: first.to_string(),
                }));
            }
        }
        let mut plan = {
            let mut lower_span = observe::span("lower", "engine");
            let plan = lower(self, &graph)?;
            lower_span.attr("layers", plan.steps.len());
            plan
        };
        if let Some(needle) = &self.fault_injection {
            plan.steps = plan
                .steps
                .into_iter()
                .map(|mut step| {
                    if step.layer.implementation().contains(needle.as_str()) {
                        observe::flight_record(
                            "engine",
                            "fault.injected",
                            format!("{} ({})", step.layer.name(), step.layer.implementation()),
                        );
                        step.layer =
                            Box::new(crate::fault::FaultyLayer::new(step.layer, self.fault_mode));
                        // A wrapped view must execute (and fail, and fall
                        // back) as a compute step — it cannot be aliased
                        // away by the memory planner.
                        step.viewable = false;
                    }
                    step
                })
                .collect();
        }
        // Plan activation memory once per batch bucket, after the step list
        // is final: every session preallocates exactly these buffers. The
        // base bucket's plan doubles as `plan.memory` for bucket-unaware
        // call sites.
        let bucket_memory: Vec<MemoryPlan> = plan
            .buckets
            .iter()
            .map(|bucket| crate::plan::plan_memory_with(&plan, &bucket.slot_dims, true))
            .collect();
        for (bucket, memory) in plan.buckets.iter_mut().zip(bucket_memory) {
            bucket.memory = Some(memory);
        }
        plan.memory = match plan.buckets.first() {
            Some(base) => base.memory.clone(),
            None => Some(plan_memory(&plan)),
        };
        // Debug builds prove every bucket's memory plan sound (the plan
        // sanitizer, mirroring the per-pass IR sanitizer above) before any
        // session trusts it; release builds trust the planner. The
        // test-support corruption hook forges a bad plan description and
        // forces the check on, proving rejection attributes bucket + code.
        if cfg!(debug_assertions) || self.plan_corruption.is_some() {
            let mut spec = crate::plan::plan_spec(&graph.name, &plan, true);
            if let Some((corruption, bucket)) = self.plan_corruption {
                orpheus_verify::corrupt_plan(&mut spec, corruption, bucket);
            }
            let report = orpheus_verify::check_plan(&spec);
            let first_violation = report
                .buckets
                .iter()
                .find(|b| !b.diagnostics.is_empty())
                .map(|b| (b.batch, &b.diagnostics[0]))
                .or_else(|| report.ladder.first().map(|d| (0, d)));
            if let Some((bucket, diagnostic)) = first_violation {
                return Err(EngineError::PlanCheck {
                    bucket,
                    code: diagnostic.code.as_str(),
                    message: diagnostic.message.clone(),
                });
            }
        }
        observe::flight_record(
            "engine",
            "load",
            format!("{} ({} layers)", graph.name, plan.steps.len()),
        );
        // Stamp which GEMM ISA this load's plans will execute on, so a
        // post-hoc flight dump always answers "was that run SIMD or scalar?".
        load_span.attr("gemm_isa", plan.gemm_isa);
        observe::flight_record(
            "engine",
            "gemm.isa",
            format!("{}: {}", graph.name, plan.gemm_isa),
        );
        Ok(Network {
            name: graph.name.clone(),
            plan: Arc::new(plan),
            pool: self.pool.clone(),
        })
    }

    /// Loads a model from ONNX bytes (the paper's import path).
    ///
    /// # Errors
    ///
    /// Propagates ONNX parsing errors and [`Engine::load`] failures.
    pub fn load_onnx(&self, bytes: &[u8]) -> Result<Network, EngineError> {
        let graph = {
            let mut import_span = observe::span("import", "engine");
            import_span.attr("bytes", bytes.len());
            let graph = import_model(bytes)?;
            import_span.attr("model", graph.name.as_str());
            graph
        };
        self.load(graph)
    }
}

/// An executable network: the lowered plan plus the thread pool it runs on.
#[derive(Debug)]
pub struct Network {
    name: String,
    plan: Arc<Plan>,
    pool: ThreadPool,
}

impl Network {
    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of executable layers.
    pub fn num_layers(&self) -> usize {
        self.plan.steps.len()
    }

    /// The expected input dims (at the base batch).
    pub fn input_dims(&self) -> &[usize] {
        &self.plan.input_dims
    }

    /// The batch sizes this network serves from its single load, ascending
    /// (always at least the model's declared batch).
    pub fn batch_buckets(&self) -> Vec<usize> {
        self.plan.bucket_batches()
    }

    /// The largest batch size a session accepts.
    pub fn max_batch(&self) -> usize {
        self.plan.max_bucket_batch()
    }

    /// Total FLOPs per inference (convolutions + dense layers).
    pub fn flops(&self) -> u64 {
        self.plan.steps.iter().map(|s| s.layer.flops()).sum()
    }

    /// One line per layer (name, op, selected implementation) plus the
    /// static memory-plan summary.
    pub fn describe(&self) -> String {
        let mut out = format!("network {} ({} layers)\n", self.name, self.num_layers());
        for step in &self.plan.steps {
            out.push_str(&format!(
                "  {:<30} {:<12} {}\n",
                step.layer.name(),
                step.layer.op_name(),
                step.layer.implementation()
            ));
        }
        if let Some(memory) = &self.plan.memory {
            out.push_str(&format!("  {}\n", memory.summary()));
        }
        if self.plan.buckets.len() > 1 {
            for bucket in &self.plan.buckets {
                if let Some(memory) = &bucket.memory {
                    out.push_str(&format!(
                        "  batch bucket {}: {} arena byte(s)\n",
                        bucket.batch,
                        memory.arena_bytes()
                    ));
                }
            }
        }
        out
    }

    /// A read-only, render-ready description of this network's execution
    /// plan — per-layer implementation selections, the batch ladder with
    /// planned arena sizes, and the GEMM ISA. The supported way for tools
    /// (CLI, serving) to inspect a load; see [`crate::PlanSummary`].
    pub fn plan_summary(&self) -> crate::PlanSummary {
        crate::PlanSummary::from_plan(&self.name, &self.plan)
    }

    /// The static activation-memory plan computed at load time (for the
    /// base batch bucket).
    pub fn memory_plan(&self) -> Option<&MemoryPlan> {
        self.plan.memory.as_ref()
    }

    /// The static activation-memory plan of every batch bucket, as
    /// `(batch, plan)` pairs ascending by batch.
    pub fn bucket_memory_plans(&self) -> Vec<(usize, &MemoryPlan)> {
        self.plan
            .buckets
            .iter()
            .filter_map(|b| b.memory.as_ref().map(|m| (b.batch, m)))
            .collect()
    }

    /// Re-proves every bucket's memory plan sound with the static plan
    /// checker (`ORV015`–`ORV022`) and returns the per-bucket verdicts —
    /// the `orpheus-cli lint --check-plan` path. Debug builds already ran
    /// this as a sanitizer at load, so a loaded network verifies clean
    /// there by construction.
    pub fn check_plan(&self) -> orpheus_verify::PlanCheckReport {
        orpheus_verify::check_plan(&crate::plan::plan_spec(&self.name, &self.plan, true))
    }

    /// Creates a reusable execution session with its own preallocated
    /// activation arena. Hold one session across repeated inferences for
    /// zero steady-state activation allocations.
    pub fn session(&self) -> Session {
        self.new_session(false, true)
    }

    /// Creates a session that routes every layer with a reference fallback
    /// through that reference implementation directly, instead of the
    /// selected (possibly broken) one. Layers without a reference twin keep
    /// their selected implementation.
    ///
    /// This is the degraded-mode execution path a serving circuit breaker
    /// trips to: slower, but immune to faults confined to the optimized
    /// implementations. It shares the load-time plan — no replanning.
    pub fn reference_session(&self) -> Session {
        self.new_session(true, true)
    }

    /// Creates a session over the *no-reuse* memory plan: every slot owns a
    /// buffer of its own and view steps copy instead of moving, on the same
    /// executor and liveness schedule as [`Network::session`].
    ///
    /// Not part of the public run surface: this is the differential oracle
    /// that arena reuse is proven bit-identical against, and the baseline of
    /// `orpheus-cli repeat --no-reuse`. The no-reuse plans are built on the
    /// first call and shared by later ones.
    #[doc(hidden)]
    pub fn no_reuse_session(&self) -> Session {
        self.new_session(false, false)
    }

    fn new_session(&self, prefer_reference: bool, reuse: bool) -> Session {
        Session::new(
            Arc::clone(&self.plan),
            self.pool.clone(),
            self.name.clone(),
            prefer_reference,
            reuse,
        )
    }

    /// Runs one inference.
    ///
    /// This creates a throwaway [`Session`] per call; repeated callers
    /// should hold a session (or use [`Network::run_batch`]) to recycle the
    /// activation arena.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Execution`] if the input dims do not match the
    /// loaded model, or if a layer fails.
    pub fn run(&self, input: &Tensor) -> Result<Tensor, EngineError> {
        let mut session = self.session();
        Ok(session.run(input)?.clone())
    }

    /// Runs every input through one shared session, amortising the arena.
    ///
    /// # Errors
    ///
    /// See [`Network::run`]; the first failing input aborts the batch.
    pub fn run_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, EngineError> {
        self.session().run_batch(inputs)
    }

    /// Runs one inference on a fresh session, returning per-layer timings
    /// (one row per plan step, view moves included) and the memory
    /// statistics of the bucket the input ran in.
    ///
    /// # Errors
    ///
    /// See [`Network::run`].
    pub fn run_profiled(&self, input: &Tensor) -> Result<(Tensor, Profile), EngineError> {
        self.session().run_profiled(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orpheus_models::{build_model, ModelKind};

    #[test]
    fn zero_threads_rejected() {
        assert!(matches!(
            Engine::builder().threads(0).build(),
            Err(EngineError::Config(_))
        ));
    }

    #[test]
    fn tflite_sim_rejects_non_max_threads() {
        let max = ThreadPool::max_hardware().num_threads();
        // On a 1-core host max == 1, so ask for max+1 to trigger the error.
        let err = Engine::builder()
            .personality(Personality::TfliteSim)
            .threads(max + 1)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("maximum number of threads"));
        assert!(Engine::builder()
            .personality(Personality::TfliteSim)
            .threads(max)
            .build()
            .is_ok());
    }

    #[test]
    fn tiny_cnn_runs_end_to_end() {
        let engine = Engine::builder().build().unwrap();
        let network = engine.load(build_model(ModelKind::TinyCnn)).unwrap();
        let input = Tensor::ones(&[1, 3, 8, 8]);
        let out = network.run(&input).unwrap();
        assert_eq!(out.dims(), &[1, 4]);
        // Softmax output sums to 1.
        assert!((out.sum() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn simplification_shrinks_plan() {
        let graph = build_model(ModelKind::TinyCnn);
        let plain = Engine::builder()
            .simplification(false)
            .build()
            .unwrap()
            .load(graph.clone())
            .unwrap();
        let simplified = Engine::builder().build().unwrap().load(graph).unwrap();
        assert!(
            simplified.num_layers() < plain.num_layers(),
            "{} !< {}",
            simplified.num_layers(),
            plain.num_layers()
        );
    }

    #[test]
    fn simplified_and_plain_agree_numerically() {
        let graph = build_model(ModelKind::TinyCnn);
        let input = Tensor::from_fn(&[1, 3, 8, 8], |i| (i % 7) as f32 * 0.1);
        let plain = Engine::builder()
            .simplification(false)
            .build()
            .unwrap()
            .load(graph.clone())
            .unwrap()
            .run(&input)
            .unwrap();
        let simplified = Engine::builder()
            .build()
            .unwrap()
            .load(graph)
            .unwrap()
            .run(&input)
            .unwrap();
        let r = orpheus_tensor::allclose(&simplified, &plain, 1e-3, 1e-4);
        assert!(r.ok, "simplification changed results: {r:?}");
    }

    #[test]
    fn personalities_agree_numerically() {
        let graph = build_model(ModelKind::TinyCnn);
        let input = Tensor::from_fn(&[1, 3, 8, 8], |i| ((i * 13) % 11) as f32 * 0.05);
        let reference = Engine::builder()
            .build()
            .unwrap()
            .load(graph.clone())
            .unwrap()
            .run(&input)
            .unwrap();
        for p in [
            Personality::TvmSim,
            Personality::PytorchSim,
            Personality::DarknetSim,
        ] {
            let out = Engine::builder()
                .personality(p)
                .build()
                .unwrap()
                .load(graph.clone())
                .unwrap()
                .run(&input)
                .unwrap();
            let r = orpheus_tensor::allclose(&out, &reference, 1e-3, 1e-4);
            assert!(r.ok, "{p} disagrees: {r:?}");
        }
    }

    #[test]
    fn profiled_run_reports_every_layer() {
        let engine = Engine::builder().build().unwrap();
        let network = engine.load(build_model(ModelKind::TinyCnn)).unwrap();
        let input = Tensor::ones(&[1, 3, 8, 8]);
        let (_, profile) = network.run_profiled(&input).unwrap();
        assert_eq!(profile.timings.len(), network.num_layers());
        assert!(profile.total.as_nanos() > 0);
        assert!(profile.memory.peak_bytes > 0);
        assert!(profile.memory.tensors_freed_early > 0);
    }

    #[test]
    fn wrong_input_dims_rejected() {
        let engine = Engine::builder().build().unwrap();
        let network = engine.load(build_model(ModelKind::TinyCnn)).unwrap();
        assert!(network.run(&Tensor::ones(&[1, 3, 9, 9])).is_err());
    }

    #[test]
    fn onnx_round_trip_through_engine() {
        let graph = build_model(ModelKind::TinyCnn);
        let bytes = orpheus_onnx::export_model(&graph).unwrap();
        let engine = Engine::builder().build().unwrap();
        let network = engine.load_onnx(&bytes).unwrap();
        let direct = engine.load(graph).unwrap();
        let input = Tensor::from_fn(&[1, 3, 8, 8], |i| (i % 5) as f32 * 0.2);
        let a = network.run(&input).unwrap();
        let b = direct.run(&input).unwrap();
        let r = orpheus_tensor::allclose(&a, &b, 1e-4, 1e-5);
        assert!(r.ok, "onnx round trip changed results: {r:?}");
    }

    #[test]
    fn vendor_backends_agree_with_native() {
        let graph = build_model(ModelKind::TinyCnn);
        let input = Tensor::from_fn(&[1, 3, 8, 8], |i| ((i * 7) % 9) as f32 * 0.1);
        let native = Engine::builder()
            .build()
            .unwrap()
            .load(graph.clone())
            .unwrap()
            .run(&input)
            .unwrap();
        for vendor in [VendorBackend::Vnnl, VendorBackend::Vcl] {
            let net = Engine::builder()
                .vendor_backend(vendor)
                .build()
                .unwrap()
                .load(graph.clone())
                .unwrap();
            assert!(
                net.describe().contains("vendor:"),
                "vendor layer not selected:\n{}",
                net.describe()
            );
            let out = net.run(&input).unwrap();
            let r = orpheus_tensor::allclose(&out, &native, 1e-3, 1e-4);
            assert!(r.ok, "{vendor:?} disagrees: {r:?}");
        }
    }

    #[test]
    fn network_flops_positive_for_conv_nets() {
        let engine = Engine::builder().build().unwrap();
        let network = engine.load(build_model(ModelKind::TinyCnn)).unwrap();
        assert!(network.flops() > 0);
        assert!(network.describe().contains("Conv"));
    }

    #[test]
    fn injected_conv_fault_degrades_to_reference_and_counts() {
        // Break every optimized convolution implementation at run time; the
        // network must still produce a correct answer through the Direct
        // reference path and record each rescue.
        let graph = build_model(ModelKind::TinyCnn);
        let input = Tensor::from_fn(&[1, 3, 8, 8], |i| ((i * 3) % 7) as f32 * 0.1);
        let expected = Engine::builder()
            .build()
            .unwrap()
            .load(graph.clone())
            .unwrap()
            .run(&input)
            .unwrap();

        observe::enable();
        observe::reset();
        let network = Engine::builder()
            // TinyCnn's plain convs lower to im2col-gemm(packed) or
            // spatial-pack — both contain "pack", neither is the Direct
            // reference, so this breaks every optimized conv.
            .fault_injection("pack")
            .build()
            .unwrap()
            .load(graph)
            .unwrap();
        assert!(
            network.describe().contains("faulty("),
            "fault injection selected no layer:\n{}",
            network.describe()
        );
        let out = network.run(&input).unwrap();
        let snapshot = observe::metrics_snapshot();
        observe::disable();
        observe::reset();

        let r = orpheus_tensor::allclose(&out, &expected, 1e-3, 1e-4);
        assert!(r.ok, "fallback output disagrees: {r:?}");
        assert!(
            snapshot
                .counters
                .get("selection.fallback")
                .copied()
                .unwrap_or(0)
                >= 1,
            "selection.fallback not incremented: {:?}",
            snapshot.counters
        );
    }

    #[test]
    fn reference_session_routes_around_faulty_implementations() {
        // The circuit breaker's degraded path: a reference-preferring
        // session never touches the (broken) selected implementations, so
        // it must succeed without any rescue, and agree with a clean run.
        let graph = build_model(ModelKind::TinyCnn);
        let input = Tensor::from_fn(&[1, 3, 8, 8], |i| ((i * 3) % 7) as f32 * 0.1);
        let expected = Engine::builder()
            .build()
            .unwrap()
            .load(graph.clone())
            .unwrap()
            .run(&input)
            .unwrap();
        let network = Engine::builder()
            .fault_injection("pack")
            .fault_mode(crate::FaultMode::Panic)
            .build()
            .unwrap()
            .load(graph)
            .unwrap();
        let mut session = network.reference_session();
        assert!(session.prefers_reference());
        // Three runs: a panicking layer would unwind out of `run`, so plain
        // success proves the faulty implementations are never invoked.
        for _ in 0..3 {
            let out = session.run(&input).unwrap();
            let r = orpheus_tensor::allclose(out, &expected, 1e-3, 1e-4);
            assert!(r.ok, "reference session disagrees: {r:?}");
        }
    }

    #[test]
    fn session_reset_rearms_after_panic() {
        // A panic mid-run strands session state; reset() must re-arm it.
        let graph = build_model(ModelKind::TinyCnn);
        let input = Tensor::from_fn(&[1, 3, 8, 8], |i| ((i * 5) % 11) as f32 * 0.1);
        let network = Engine::builder()
            .fault_injection("pack")
            .fault_mode(crate::FaultMode::PanicFirst(1))
            .build()
            .unwrap()
            .load(graph.clone())
            .unwrap();
        let expected = Engine::builder()
            .build()
            .unwrap()
            .load(graph)
            .unwrap()
            .run(&input)
            .unwrap();
        let mut session = network.session();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = session.run(&input);
        }));
        assert!(caught.is_err(), "first run must panic");
        session.reset();
        // Each wrapped layer panics only on its first call, and TinyCnn has
        // more than one wrapped conv, so later runs may still panic once per
        // remaining layer; retry until the session runs clean.
        let mut out = None;
        for _ in 0..8 {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.run(&input).cloned()
            })) {
                Ok(Ok(t)) => {
                    out = Some(t);
                    break;
                }
                Ok(Err(e)) => panic!("unexpected execution error: {e}"),
                Err(_) => session.reset(),
            }
        }
        let out = out.expect("session recovered after resets");
        let r = orpheus_tensor::allclose(&out, &expected, 1e-3, 1e-4);
        assert!(r.ok, "re-armed session disagrees: {r:?}");
    }

    #[test]
    fn fault_without_fallback_surfaces_the_original_error() {
        // Pool layers have no reference twin; the injected fault must come
        // back as the run error instead of silently degrading.
        let network = Engine::builder()
            .fault_injection("max")
            .build()
            .unwrap()
            .load(build_model(ModelKind::LeNet5))
            .unwrap();
        let err = network.run(&Tensor::ones(&[1, 1, 28, 28])).unwrap_err();
        assert!(
            err.to_string().contains("injected fault"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn load_rejects_malformed_graph_with_verifier_diagnostic() {
        use orpheus_graph::{Node, OpKind};
        // A structurally broken graph (dangling input) must be refused by
        // the verifier with a typed ORV diagnostic, not surface as a
        // lowering panic or wrong answer.
        let mut graph = Graph::new("broken");
        graph.add_node(Node::new("a", OpKind::Relu, &["ghost"], &["y"]));
        graph.add_output("y");
        let err = Engine::builder()
            .simplification(false)
            .build()
            .unwrap()
            .load(graph)
            .unwrap_err();
        assert!(
            err.to_string().contains("ORV002"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn sanitized_load_accepts_every_small_zoo_model() {
        // In debug builds this exercises the PassManager sanitizer on the
        // full standard pipeline (scripts/check.sh runs it by name).
        for kind in [ModelKind::TinyCnn, ModelKind::LeNet5] {
            let engine = Engine::builder().build().unwrap();
            assert!(
                engine.load(build_model(kind)).is_ok(),
                "{kind:?} failed sanitized load"
            );
        }
    }

    #[test]
    fn auto_tune_policy_loads_and_runs() {
        let engine = Engine::builder()
            .policy(SelectionPolicy::AutoTune { trials: 1 })
            .build()
            .unwrap();
        let network = engine.load(build_model(ModelKind::TinyCnn)).unwrap();
        let out = network.run(&Tensor::ones(&[1, 3, 8, 8])).unwrap();
        assert_eq!(out.dims(), &[1, 4]);
    }

    #[test]
    fn describe_includes_memory_plan_summary() {
        let engine = Engine::builder().build().unwrap();
        let network = engine.load(build_model(ModelKind::TinyCnn)).unwrap();
        let description = network.describe();
        assert!(
            description.contains("memory plan:"),
            "missing plan summary:\n{description}"
        );
        let mp = network.memory_plan().expect("plan attached at load");
        assert!(mp.arena_bytes() > 0);
        assert!(mp.num_buffers() > 0);
        assert!(mp.reuse_ratio() >= 1.0);
    }

    #[test]
    fn planned_and_unplanned_execution_bit_identical() {
        let graph = build_model(ModelKind::TinyCnn);
        let input = Tensor::from_fn(&[1, 3, 8, 8], |i| ((i * 11) % 17) as f32 * 0.07);
        let network = Engine::builder().build().unwrap().load(graph).unwrap();
        let planned = network.run(&input).unwrap();
        let mut oracle = network.no_reuse_session();
        let no_reuse = oracle.run(&input).unwrap();
        assert_eq!(planned.as_slice(), no_reuse.as_slice());
        // The oracle really runs without reuse: one buffer per slot.
        assert!(oracle.arena_bytes() > network.session().arena_bytes());
    }

    #[test]
    fn no_reuse_plans_are_sound_across_zoo_and_ladder() {
        use orpheus_models::build_model_with_input;
        for model in [
            ModelKind::TinyCnn,
            ModelKind::LeNet5,
            ModelKind::Wrn40_2,
            ModelKind::MobileNetV1,
            ModelKind::ResNet18,
            ModelKind::ResNet50,
            ModelKind::InceptionV3,
        ] {
            let hw = model.min_input_hw();
            let network = Engine::builder()
                .max_batch(8)
                .build()
                .unwrap()
                .load(build_model_with_input(model, hw, hw))
                .unwrap();
            let plan = &network.plan;
            assert_eq!(network.batch_buckets(), vec![1, 2, 4, 8], "{model}");
            for idx in 0..plan.buckets.len() {
                let mp = plan.bucket_memory(idx, false);
                assert_eq!(mp.num_buffers(), plan.num_slots, "{model} bucket {idx}");
                assert_eq!(mp.aliased_views(), 0, "{model} bucket {idx}");
            }
            let report =
                orpheus_verify::check_plan(&crate::plan::plan_spec(&network.name, plan, false));
            assert_eq!(report.buckets.len(), 4, "{model}");
            for bucket in &report.buckets {
                assert!(
                    bucket.diagnostics.is_empty(),
                    "{model} bucket {}: {:?}",
                    bucket.batch,
                    bucket.diagnostics
                );
            }
            assert!(report.ladder.is_empty(), "{model}: {:?}", report.ladder);
        }
    }

    #[test]
    fn profiled_memory_matches_the_active_bucket_plan() {
        let network = Engine::builder()
            .max_batch(4)
            .build()
            .unwrap()
            .load(build_model(ModelKind::TinyCnn))
            .unwrap();
        let plans = network.bucket_memory_plans();
        for (input, (_, plan)) in [[1, 3, 8, 8], [2, 3, 8, 8], [3, 3, 8, 8]]
            .iter()
            .zip([plans[0], plans[1], plans[2]])
        {
            let (out, profile) = network.run_profiled(&Tensor::ones(input)).unwrap();
            assert_eq!(out.dims()[0], input[0]);
            assert_eq!(profile.memory, plan.stats());
            assert_eq!(profile.timings.len(), network.num_layers());
        }
    }

    #[test]
    fn fault_injection_runs_through_session_fallback() {
        // The session executor takes the graceful-degradation path when a
        // layer faults.
        let graph = build_model(ModelKind::TinyCnn);
        let input = Tensor::from_fn(&[1, 3, 8, 8], |i| ((i * 3) % 7) as f32 * 0.1);
        let expected = Engine::builder()
            .build()
            .unwrap()
            .load(graph.clone())
            .unwrap()
            .run(&input)
            .unwrap();
        let network = Engine::builder()
            .fault_injection("pack")
            .build()
            .unwrap()
            .load(graph)
            .unwrap();
        let mut session = network.session();
        let out = session.run(&input).unwrap();
        let r = orpheus_tensor::allclose(out, &expected, 1e-3, 1e-4);
        assert!(r.ok, "session fallback disagrees: {r:?}");
    }
}
