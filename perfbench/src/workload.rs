//! The workloads: model, seeded input pool, references, the cold-start
//! chain and the untraced closed-loop timed phase.

use std::time::{Duration, Instant};

use orpheus::{Engine, Session};
use orpheus_models::{build_model_with_input, ModelKind};
use orpheus_serve::ServerConfig;
use orpheus_tensor::{SmallRng, Tensor};

use crate::check::Tally;

pub type Error = Box<dyn std::error::Error>;

/// Which workload runs: a model at batch 1, one inference thread, closed
/// loop with a single caller (the paper's Fig. 2 protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ResNet-18 at 64×64.
    ResNet18B1,
    /// MobileNetV1 at 64×64.
    MobileNetB1,
}

/// Seeded inputs in the pool: enough distinct tensors that no single
/// input's cache state is being measured, few enough that references from
/// the slow direct-convolution oracle stay cheap.
const POOL_SIZE: usize = 8;

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "resnet18-b1" => Some(Workload::ResNet18B1),
            "mobilenet-b1" => Some(Workload::MobileNetB1),
            _ => None,
        }
    }

    fn model(self) -> ModelKind {
        match self {
            Workload::ResNet18B1 => ModelKind::ResNet18,
            Workload::MobileNetB1 => ModelKind::MobileNetV1,
        }
    }

    /// Cold starts per run; `setup_s` is their median. Each is followed by
    /// an equal slice of the timed phase.
    pub fn setups(self) -> usize {
        match self {
            Workload::ResNet18B1 => 7,
            Workload::MobileNetB1 => 9,
        }
    }
}

/// Input side of every model, in pixels.
const HW: usize = 64;

/// Largest batch the traced run loads a network for: the bucket probe and
/// the serve probe run on it.
pub const MAX_BATCH: usize = 8;

/// Serving configuration of the traced run's serve probe: one worker with
/// one inference thread, coalescing up to [`MAX_BATCH`] requests, no
/// deadlines, and a queue deep enough that nothing is shed.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        queue_depth: 4096,
        default_deadline: None,
        max_batch: MAX_BATCH,
        ..ServerConfig::default()
    }
}

/// Everything made before any clock starts.
pub struct Prepared {
    pub workload: Workload,
    pub onnx: Vec<u8>,
    pub inputs: Vec<Tensor>,
    /// `references[i]` is the reference output for `inputs[i]`.
    pub references: Vec<Tensor>,
}

/// Exports the model to ONNX bytes, draws the input pool from `seed`, and
/// computes reference outputs with the reference session.
pub fn prepare(workload: Workload, seed: u64) -> Result<Prepared, Error> {
    let graph = build_model_with_input(workload.model(), HW, HW);
    let dims = graph.inputs()[0].dims.clone();
    let onnx = orpheus_onnx::export_model(&graph)?;
    drop(graph);
    let mut rng = SmallRng::seed_from_u64(seed);
    let inputs: Vec<Tensor> = (0..POOL_SIZE)
        .map(|_| Tensor::from_fn(&dims, |_| rng.gen_range(-1.0, 1.0)))
        .collect();
    let network = Engine::builder().threads(1).build()?.load_onnx(&onnx)?;
    let mut reference = network.reference_session();
    let references = inputs
        .iter()
        .map(|x| reference.run(x).cloned())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Prepared {
        workload,
        onnx,
        inputs,
        references,
    })
}

/// Times one cold start: `Engine::builder().threads(1).build()` →
/// `Engine::load_onnx` → `Network::session()` → first `Session::run`,
/// whose output is checked.
pub fn setup(p: &Prepared, tally: &mut Tally) -> Result<(f64, Session), Error> {
    let first = p.inputs[0].clone();
    let start = Instant::now();
    let network = Engine::builder().threads(1).build()?.load_onnx(&p.onnx)?;
    let mut session = network.session();
    let output = session.run(&first);
    let seconds = start.elapsed().as_secs_f64();
    match output {
        Ok(output) => tally.output(output, &p.references[0]),
        Err(e) => tally.error(&e),
    }
    Ok((seconds, session))
}

/// Result of a closed-loop timed phase.
pub struct ClosedLoop {
    /// Per-inference latency in milliseconds, in run order.
    pub latencies_ms: Vec<f64>,
    pub wall: Duration,
}

/// Warm-up runs before any closed-loop timing: caches fill and lazily
/// provisioned scratch is allocated.
const WARMUP_RUNS: usize = 10;

/// Runs `session` in a closed loop with one caller for at least `seconds`
/// and at least `min_samples` inferences, cycling through the input pool
/// and checking every output after its clock stops.
pub fn closed_loop(
    session: &mut Session,
    p: &Prepared,
    seconds: f64,
    min_samples: usize,
    tally: &mut Tally,
) -> ClosedLoop {
    for i in 0..WARMUP_RUNS {
        let _ = session.run(&p.inputs[i % p.inputs.len()]);
    }
    let budget = Duration::from_secs_f64(seconds);
    let mut latencies_ms = Vec::new();
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < budget || latencies_ms.len() < min_samples {
        let i = k % p.inputs.len();
        k += 1;
        let t0 = Instant::now();
        let output = session.run(&p.inputs[i]);
        let dt = t0.elapsed();
        match output {
            Ok(output) => {
                latencies_ms.push(dt.as_secs_f64() * 1e3);
                tally.output(output, &p.references[i]);
            }
            Err(e) => tally.error(&e),
        }
        if start.elapsed() > MAX_PHASE {
            break;
        }
    }
    ClosedLoop {
        latencies_ms,
        wall: start.elapsed(),
    }
}

/// Hard cap on any timed phase, so a pathologically slow build still ends
/// well inside the per-run time limit.
pub const MAX_PHASE: Duration = Duration::from_secs(120);
