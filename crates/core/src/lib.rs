//! # Orpheus — a deep learning inference framework for systems research
//!
//! Rust reproduction of *"Orpheus: A New Deep Learning Framework for Easy
//! Deployment and Evaluation of Edge Inference"* (Gibson & Cano, ISPASS
//! 2020). The framework's design goal, quoting the paper, is to
//! *"transparently support experimentation with alternative backends"*:
//! layers are first-class citizens with multiple implementations selected at
//! runtime.
//!
//! ## Architecture
//!
//! ```text
//!  ONNX bytes ──► orpheus-onnx ──► orpheus-graph ──► simplification passes
//!                                                        │
//!                                   Engine::load ◄───────┘
//!                                        │  (lowering + implementation selection)
//!                                        ▼
//!                                    Network (executable plan + MemoryPlans)
//!                                        │  session(): run / run_batch / run_profiled
//!                                        ▼
//!                     Session (arena executor, Layer::run_into per step)
//!                                        │
//!                                        ▼
//!                                  output + per-layer Profile
//! ```
//!
//! * [`Layer`] — the first-class layer trait; implementations live in
//!   [`layers`] and wrap the algorithm menagerie of `orpheus-ops` plus the
//!   simulated vendor backends of `orpheus-backends`.
//! * [`SelectionPolicy`] — how the engine picks an implementation per layer:
//!   fixed, size-heuristic, or measure-and-choose auto-tuning.
//! * [`Personality`] — framework personalities (`orpheus`, `tvm-sim`,
//!   `pytorch-sim`, `darknet-sim`, `tflite-sim`) that configure the engine to
//!   model the baselines of the paper's Figure 2 and Table I.
//! * [`Engine`] / [`Network`] — model loading, and the run entry points
//!   (including per-layer profiling), all of which execute through a
//!   [`Session`].
//! * [`Session`] — the one executor: a reusable execution context over the
//!   load-time [`MemoryPlan`]; steady-state inference runs entirely out of a
//!   preallocated, liveness-recycled activation arena.
//!
//! ## Quickstart
//!
//! ```
//! use orpheus::{Engine, Personality};
//! use orpheus_models::{build_model, ModelKind};
//! use orpheus_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = Engine::builder()
//!     .personality(Personality::Orpheus)
//!     .threads(1)
//!     .build()?;
//! let network = engine.load(build_model(ModelKind::TinyCnn))?;
//! let input = Tensor::ones(&[1, 3, 8, 8]);
//!
//! // One-shot inference…
//! let probs = network.run(&input)?;
//! assert_eq!(probs.dims(), &[1, 4]);
//!
//! // …or a reusable session that recycles its activation arena.
//! let mut session = network.session();
//! for _ in 0..3 {
//!     let probs = session.run(&input)?;
//!     assert_eq!(probs.dims(), &[1, 4]);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
// Engine crate: panicking escape hatches are forbidden outside tests —
// load/run failures must surface as `EngineError`s, never as panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod engine;
mod error;
mod fault;
mod layer;
pub mod layers;
mod lower;
mod personality;
mod plan;
mod profile;
mod selection;
mod session;
mod summary;

pub use engine::{Engine, EngineBuilder, Network, VendorBackend};
pub use error::EngineError;
pub use fault::FaultMode;
pub use layer::Layer;
pub use orpheus_observe::LayerTiming;
pub use personality::{Capability, Personality, ThreadPolicy, CAPABILITY_CRITERIA};
pub use plan::MemoryPlan;
pub use profile::{MemoryStats, Profile};
pub use selection::SelectionPolicy;
pub use session::Session;
pub use summary::{BucketSummary, LayerSummary, PlanSummary};
