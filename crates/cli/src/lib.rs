//! Experiment infrastructure for the Orpheus reproduction.
//!
//! The paper's final contribution is "infrastructure to run multiple
//! inference experiments, evaluating full networks, and individual layers".
//! This crate is that infrastructure: each experiment from DESIGN.md's index
//! is a function here, and the `orpheus-cli` binary exposes them as
//! subcommands. The Criterion benches in `orpheus-bench` reuse the same
//! functions, so the CLI and the benches always agree on methodology.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bench;

pub use bench::{
    bench_filename, compare, resolve_git_sha, run_bench, BenchConfig, BenchReport, CompareBudgets,
    ModelBench, Regression, SCHEMA_VERSION,
};

use std::time::Instant;

use orpheus::{Engine, EngineError, MemoryStats, Personality, CAPABILITY_CRITERIA};
use orpheus_models::{build_model_with_input, ModelKind};
use orpheus_observe::json::JsonValue;
use orpheus_tensor::Tensor;

/// How the experiment scales model inputs.
///
/// `Full` uses the paper's input sizes (224/299); `Quick` shrinks them so a
/// complete Figure 2 sweep finishes in seconds — shapes (who wins where)
/// are preserved because the same layers run, just on smaller feature maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputScale {
    /// Paper-faithful input sizes.
    Full,
    /// Reduced inputs for smoke runs and CI.
    Quick,
}

impl InputScale {
    /// The input spatial size for a model under this scale.
    pub fn input_hw(&self, model: ModelKind) -> usize {
        let [_, _, full, _] = model.input_dims();
        match self {
            InputScale::Full => full,
            InputScale::Quick => model.min_input_hw().max(match model {
                ModelKind::Wrn40_2 => 32, // already CIFAR-small
                ModelKind::InceptionV3 => 75,
                _ => 64,
            }),
        }
    }
}

/// One measurement: a (model, framework) cell of Figure 2.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Model evaluated.
    pub model: ModelKind,
    /// Framework personality.
    pub personality: Personality,
    /// Input spatial size used.
    pub input_hw: usize,
    /// Median wall-clock inference time, milliseconds.
    pub millis: f64,
}

/// Measures median inference time for one model under one personality.
///
/// Runs one untimed warm-up inference, then `repeats` timed ones, and
/// returns the median — the protocol every experiment in this repository
/// uses.
///
/// # Errors
///
/// Propagates engine configuration and execution failures (e.g. the
/// `tflite-sim` single-thread refusal).
pub fn measure_model(
    personality: Personality,
    model: ModelKind,
    input_hw: usize,
    threads: usize,
    repeats: usize,
) -> Result<Measurement, EngineError> {
    let engine = Engine::builder()
        .personality(personality)
        .threads(threads)
        .build()?;
    let graph = build_model_with_input(model, input_hw, input_hw);
    let network = engine.load(graph)?;
    let input = Tensor::full(&[1, 3, input_hw, input_hw], 0.5);
    let mut session = network.session();
    session.run(&input)?; // warm-up
    let mut samples = Vec::with_capacity(repeats.max(1));
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        session.run(&input)?;
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let millis = samples[samples.len() / 2];
    Ok(Measurement {
        model,
        personality,
        input_hw,
        millis,
    })
}

/// The full Figure 2 sweep result.
#[derive(Debug, Clone, Default)]
pub struct Figure2Result {
    /// All successful measurements.
    pub measurements: Vec<Measurement>,
    /// Frameworks excluded, with the reason (reproducing the paper's
    /// DarkNet and TF-Lite exclusion notes).
    pub exclusions: Vec<(Personality, String)>,
}

impl Figure2Result {
    /// The measurement for a (model, personality) cell.
    pub fn cell(&self, model: ModelKind, personality: Personality) -> Option<&Measurement> {
        self.measurements
            .iter()
            .find(|m| m.model == model && m.personality == personality)
    }

    /// The fastest framework for a model.
    pub fn winner(&self, model: ModelKind) -> Option<&Measurement> {
        self.measurements
            .iter()
            .filter(|m| m.model == model)
            .min_by(|a, b| a.millis.partial_cmp(&b.millis).expect("finite"))
    }

    /// Renders the paper-style grouped table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let frameworks: Vec<Personality> = [
            Personality::Orpheus,
            Personality::TvmSim,
            Personality::PytorchSim,
            Personality::DarknetSim,
        ]
        .into_iter()
        .filter(|p| self.measurements.iter().any(|m| m.personality == *p))
        .collect();
        out.push_str(&format!("{:<14}", "model"));
        for p in &frameworks {
            out.push_str(&format!("{:>14}", p.models_framework()));
        }
        out.push_str("        winner\n");
        for model in ModelKind::FIGURE2 {
            if !self.measurements.iter().any(|m| m.model == model) {
                continue;
            }
            out.push_str(&format!("{:<14}", model.name()));
            for p in &frameworks {
                match self.cell(model, *p) {
                    Some(m) => out.push_str(&format!("{:>11.2} ms", m.millis)),
                    None => out.push_str(&format!("{:>14}", "-")),
                }
            }
            if let Some(w) = self.winner(model) {
                out.push_str(&format!("  {:>12}", w.personality.models_framework()));
            }
            out.push('\n');
        }
        for (p, reason) in &self.exclusions {
            out.push_str(&format!("excluded {}: {}\n", p.models_framework(), reason));
        }
        out
    }

    /// CSV rows: `model,framework,input_hw,millis`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("model,framework,input_hw,millis\n");
        for m in &self.measurements {
            out.push_str(&format!(
                "{},{},{},{:.4}\n",
                m.model.name(),
                m.personality.models_framework(),
                m.input_hw,
                m.millis
            ));
        }
        out
    }
}

/// Configuration for the Figure 2 experiment.
#[derive(Debug, Clone)]
pub struct Figure2Config {
    /// Input scaling.
    pub scale: InputScale,
    /// Timed repeats per cell.
    pub repeats: usize,
    /// Thread count (the paper uses 1).
    pub threads: usize,
    /// Models to measure (defaults to the paper's five).
    pub models: Vec<ModelKind>,
    /// Also run `darknet-sim` on the ResNets (the paper reports DarkNet
    /// times in prose only, because only ResNet models were available).
    pub include_darknet: bool,
}

impl Default for Figure2Config {
    fn default() -> Self {
        Figure2Config {
            scale: InputScale::Full,
            repeats: 3,
            threads: 1,
            models: ModelKind::FIGURE2.to_vec(),
            include_darknet: false,
        }
    }
}

/// EXP-F2: the paper's Figure 2 — single-thread inference time per model
/// per framework, plus the TF-Lite exclusion note (EXP-F2c).
///
/// # Errors
///
/// Propagates measurement failures for the included frameworks (exclusions
/// are captured in the result, not raised).
pub fn run_figure2(config: &Figure2Config) -> Result<Figure2Result, EngineError> {
    let mut result = Figure2Result::default();
    let frameworks = [
        Personality::Orpheus,
        Personality::TvmSim,
        Personality::PytorchSim,
    ];
    for &model in &config.models {
        let hw = config.scale.input_hw(model);
        for personality in frameworks {
            result.measurements.push(measure_model(
                personality,
                model,
                hw,
                config.threads,
                config.repeats,
            )?);
        }
        // DarkNet: paper prose reports only ResNets ("only the ResNet
        // models were available"), in seconds.
        if config.include_darknet && matches!(model, ModelKind::ResNet18 | ModelKind::ResNet50) {
            result.measurements.push(measure_model(
                Personality::DarknetSim,
                model,
                hw,
                config.threads,
                config.repeats,
            )?);
        }
    }
    if !config.include_darknet {
        result.exclusions.push((
            Personality::DarknetSim,
            "only ResNet models available; seconds-scale (run with --include-darknet)".into(),
        ));
    }
    // EXP-F2c: TF-Lite cannot run with one thread.
    match Engine::builder()
        .personality(Personality::TfliteSim)
        .threads(config.threads)
        .build()
    {
        Err(e) => result
            .exclusions
            .push((Personality::TfliteSim, e.to_string())),
        Ok(_) => result.exclusions.push((
            Personality::TfliteSim,
            "thread count equals hardware maximum; excluded for parity with the paper".into(),
        )),
    }
    Ok(result)
}

/// EXP-T1: the paper's Table I, rendered from the personalities' capability
/// descriptors. With `measured`, the performance row is replaced by ranks
/// derived from an actual quick Figure 2 run (EXP-T1p).
///
/// # Errors
///
/// Propagates measurement failures when `measured` is set.
pub fn run_table1(measured: bool) -> Result<String, EngineError> {
    let columns = Personality::ALL;
    let mut out = String::new();
    out.push_str(&format!("{:<30}", "criterion"));
    for p in columns {
        out.push_str(&format!("{:>12}", p.models_framework()));
    }
    out.push('\n');
    for (ci, criterion) in CAPABILITY_CRITERIA.iter().enumerate() {
        let is_perf = ci == CAPABILITY_CRITERIA.len() - 1;
        out.push_str(&format!("{criterion:<30}"));
        if is_perf && measured {
            for p in columns {
                let rating = measured_perf_rating(p)?;
                out.push_str(&format!("{rating:>12}"));
            }
            out.push_str("  (measured)");
        } else {
            for p in columns {
                out.push_str(&format!("{:>12}", p.capabilities().rating(ci)));
            }
        }
        out.push('\n');
    }
    Ok(out)
}

/// Rates a personality's measured performance 1–3 by geometric-mean
/// inference time across quick-scale models (3 = fastest band).
fn measured_perf_rating(personality: Personality) -> Result<u8, EngineError> {
    // TF-Lite can't run the single-thread protocol; the paper still rates it
    // from its own (multi-thread) experience. We measure at max threads.
    let threads = match personality.thread_policy() {
        orpheus::ThreadPolicy::MaxOnly => orpheus_threads::ThreadPool::max_hardware().num_threads(),
        _ => 1,
    };
    let models = [ModelKind::Wrn40_2, ModelKind::ResNet18];
    let mut log_sum = 0.0f64;
    for model in models {
        let hw = InputScale::Quick.input_hw(model);
        let m = measure_model(personality, model, hw, threads, 1)?;
        log_sum += m.millis.max(0.001).ln();
    }
    let geo_mean = (log_sum / models.len() as f64).exp();
    // Bands relative to the Orpheus baseline.
    let baseline = {
        let mut s = 0.0;
        for model in models {
            let hw = InputScale::Quick.input_hw(model);
            s += measure_model(Personality::Orpheus, model, hw, 1, 1)?
                .millis
                .max(0.001)
                .ln();
        }
        (s / models.len() as f64).exp()
    };
    let ratio = geo_mean / baseline;
    Ok(if ratio < 1.3 {
        3
    } else if ratio < 4.0 {
        2
    } else {
        1
    })
}

/// EXP-F2b: per-layer depthwise comparison on MobileNetV1 — the paper's
/// explanation for PyTorch's poor MobileNet result.
#[derive(Debug, Clone)]
pub struct DepthwiseReport {
    /// Total time in depthwise convolutions under `orpheus`.
    pub orpheus_depthwise_ms: f64,
    /// Total time in depthwise convolutions under `pytorch-sim`.
    pub pytorch_depthwise_ms: f64,
    /// Slowdown factor.
    pub slowdown: f64,
}

/// MobileNetV1's 13 depthwise layers as (channels, stride, input_hw-divisor)
/// triples: the feature map entering block `i` is `input / divisor`.
pub const MOBILENET_DEPTHWISE: [(usize, usize, usize); 13] = [
    (32, 1, 2),
    (64, 2, 2),
    (128, 1, 4),
    (128, 2, 4),
    (256, 1, 8),
    (256, 2, 8),
    (512, 1, 16),
    (512, 1, 16),
    (512, 1, 16),
    (512, 1, 16),
    (512, 1, 16),
    (512, 2, 16),
    (1024, 1, 32),
];

/// Runs the depthwise ablation at the given MobileNet input size: each of
/// the 13 depthwise layers is timed under the dedicated depthwise kernel
/// (what Orpheus and TVM use) and under the generic im2col+GEMM path (what
/// the paper observed in PyTorch).
///
/// # Errors
///
/// Propagates operator construction failures.
pub fn run_depthwise_ablation(
    input_hw: usize,
    threads: usize,
) -> Result<DepthwiseReport, EngineError> {
    use orpheus_ops::conv::{Conv2d, Conv2dParams, ConvAlgorithm};
    let pool = orpheus_threads::ThreadPool::new(threads)
        .map_err(|e| EngineError::Config(e.to_string()))?;
    let mut totals = [0.0f64; 2];
    for &(channels, stride, divisor) in &MOBILENET_DEPTHWISE {
        let hw = (input_hw / divisor).max(3);
        let params = Conv2dParams::depthwise(channels, 3)
            .with_stride(stride, stride)
            .with_padding(1, 1);
        let weight = Tensor::full(&params.weight_dims(), 0.01);
        let input = Tensor::full(&[1, channels, hw, hw], 0.5);
        for (i, algo) in [
            ConvAlgorithm::DepthwiseDirect,
            ConvAlgorithm::Im2colGemmEager(orpheus_gemm::GemmKernel::Blocked),
        ]
        .into_iter()
        .enumerate()
        {
            let conv = Conv2d::new(params, weight.clone(), None, algo)?;
            conv.run(&input, &pool)?; // warm-up
                                      // Median of three passes per layer keeps the report stable.
            let mut samples = [0.0f64; 3];
            for s in &mut samples {
                let start = Instant::now();
                conv.run(&input, &pool)?;
                *s = start.elapsed().as_secs_f64() * 1e3;
            }
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            totals[i] += samples[1];
        }
    }
    Ok(DepthwiseReport {
        orpheus_depthwise_ms: totals[0],
        pytorch_depthwise_ms: totals[1],
        slowdown: totals[1] / totals[0].max(1e-9),
    })
}

/// Profiles one inference of a model under a personality, returning the
/// full per-layer [`orpheus::Profile`].
///
/// # Errors
///
/// Propagates engine failures.
pub fn profile_model(
    personality: Personality,
    model: ModelKind,
    input_hw: usize,
    threads: usize,
) -> Result<orpheus::Profile, EngineError> {
    let engine = Engine::builder()
        .personality(personality)
        .threads(threads)
        .build()?;
    let graph = build_model_with_input(model, input_hw, input_hw);
    let network = engine.load(graph)?;
    let dims = [1, model.input_dims()[1], input_hw, input_hw];
    let input = Tensor::full(&dims, 0.5);
    network.run(&input)?;
    let (_, profile) = network.run_profiled(&input)?;
    Ok(profile)
}

/// Per-layer profile text (the `layers` subcommand): the layer table, then
/// the same rows grouped by operator family.
pub fn render_layer_profile(profile: &orpheus::Profile) -> String {
    format!(
        "{}\nby op:\n{}",
        profile.render(),
        profile.group_by(|t| &t.op).render()
    )
}

/// Single-layer algorithm sweep: times every applicable convolution
/// algorithm over a grid of channel counts and feature-map sizes, returning
/// CSV (`channels,hw,algorithm,micros,gflops`). This is the paper's
/// "evaluating ... individual layers" workflow as a parameter sweep.
///
/// # Errors
///
/// Propagates operator construction failures.
pub fn run_layer_sweep(
    channels: &[usize],
    hws: &[usize],
    kernel: usize,
    stride: usize,
    threads: usize,
) -> Result<String, EngineError> {
    use orpheus_ops::conv::{Conv2d, Conv2dParams, ConvAlgorithm};
    let pool = orpheus_threads::ThreadPool::new(threads)
        .map_err(|e| EngineError::Config(e.to_string()))?;
    let pad = kernel / 2;
    let mut csv = String::from("channels,hw,algorithm,micros,gflops\n");
    for &c in channels {
        for &hw in hws {
            if hw + 2 * pad < kernel {
                continue;
            }
            let params = Conv2dParams::square(c, c, kernel)
                .with_stride(stride, stride)
                .with_padding(pad, pad);
            let weight = Tensor::full(&params.weight_dims(), 0.01);
            let input = Tensor::full(&[1, c, hw, hw], 0.5);
            let algorithms = [
                ConvAlgorithm::default(),
                ConvAlgorithm::SpatialPack,
                ConvAlgorithm::Winograd,
                ConvAlgorithm::Direct,
            ];
            for algo in algorithms {
                if !algo.supports(&params) {
                    continue;
                }
                let conv = Conv2d::new(params, weight.clone(), None, algo)?;
                conv.run(&input, &pool)?; // warm-up
                let mut samples = [0.0f64; 3];
                for s in &mut samples {
                    let start = Instant::now();
                    conv.run(&input, &pool)?;
                    *s = start.elapsed().as_secs_f64() * 1e6;
                }
                samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                let micros = samples[1];
                let gflops = params.flops(hw, hw) as f64 / (micros / 1e6) / 1e9;
                csv.push_str(&format!("{c},{hw},{algo},{micros:.1},{gflops:.2}\n"));
            }
        }
    }
    Ok(csv)
}

/// Graph-simplification ablation: node counts and timing with the pipeline
/// on and off.
#[derive(Debug, Clone)]
pub struct SimplifyReport {
    /// Layers when simplification is disabled.
    pub layers_plain: usize,
    /// Layers after the standard pipeline.
    pub layers_simplified: usize,
    /// Median time without simplification, ms.
    pub plain_ms: f64,
    /// Median time with simplification, ms.
    pub simplified_ms: f64,
}

/// Runs the simplification ablation for one model.
///
/// # Errors
///
/// Propagates engine failures.
pub fn run_simplify_ablation(
    model: ModelKind,
    input_hw: usize,
    repeats: usize,
) -> Result<SimplifyReport, EngineError> {
    let graph = build_model_with_input(model, input_hw, input_hw);
    let dims = [1, model.input_dims()[1], input_hw, input_hw];
    let input = Tensor::full(&dims, 0.5);
    let mut layers = [0usize; 2];
    let mut times = [0.0f64; 2];
    for (i, simplify) in [false, true].into_iter().enumerate() {
        let engine = Engine::builder().simplification(simplify).build()?;
        let network = engine.load(graph.clone())?;
        layers[i] = network.num_layers();
        network.run(&input)?;
        let mut samples = Vec::new();
        for _ in 0..repeats.max(1) {
            let start = Instant::now();
            network.run(&input)?;
            samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        times[i] = samples[samples.len() / 2];
    }
    Ok(SimplifyReport {
        layers_plain: layers[0],
        layers_simplified: layers[1],
        plain_ms: times[0],
        simplified_ms: times[1],
    })
}

/// End-to-end selection-policy comparison for one model (EXP ablation:
/// what runtime selection buys over any fixed algorithm).
///
/// Returns `(label, millis)` rows.
///
/// # Errors
///
/// Propagates engine failures.
pub fn run_policy_comparison(
    model: ModelKind,
    input_hw: usize,
    repeats: usize,
) -> Result<Vec<(String, f64)>, EngineError> {
    use orpheus::SelectionPolicy;
    use orpheus_gemm::GemmKernel;
    use orpheus_ops::conv::ConvAlgorithm;
    let policies: [(&str, SelectionPolicy); 4] = [
        (
            "fixed im2col-gemm(packed)",
            SelectionPolicy::Fixed(ConvAlgorithm::Im2colGemm(GemmKernel::Packed)),
        ),
        (
            "fixed spatial-pack",
            SelectionPolicy::Fixed(ConvAlgorithm::SpatialPack),
        ),
        ("heuristic", SelectionPolicy::Heuristic),
        (
            "auto-tune (2 trials)",
            SelectionPolicy::AutoTune { trials: 2 },
        ),
    ];
    let graph = build_model_with_input(model, input_hw, input_hw);
    let dims = [1, model.input_dims()[1], input_hw, input_hw];
    let input = Tensor::full(&dims, 0.5);
    let mut rows = Vec::new();
    for (label, policy) in policies {
        let network = Engine::builder()
            .policy(policy)
            .build()?
            .load(graph.clone())?;
        network.run(&input)?;
        let mut samples = Vec::new();
        for _ in 0..repeats.max(1) {
            let start = Instant::now();
            network.run(&input)?;
            samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        rows.push((label.to_string(), samples[samples.len() / 2]));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_model_returns_positive_time() {
        let m = measure_model(Personality::Orpheus, ModelKind::TinyCnn, 8, 1, 2).unwrap();
        assert!(m.millis > 0.0);
        assert_eq!(m.model, ModelKind::TinyCnn);
    }

    #[test]
    fn figure2_quick_on_small_models() {
        let config = Figure2Config {
            scale: InputScale::Quick,
            repeats: 1,
            threads: 1,
            models: vec![ModelKind::Wrn40_2],
            include_darknet: false,
        };
        let result = run_figure2(&config).unwrap();
        assert_eq!(result.measurements.len(), 3);
        assert!(result
            .exclusions
            .iter()
            .any(|(p, _)| *p == Personality::TfliteSim));
        let text = result.render();
        assert!(text.contains("WRN-40-2"));
        assert!(text.contains("Orpheus"));
        let csv = result.to_csv();
        assert!(csv.lines().count() == 4);
    }

    #[test]
    fn table1_static_matches_paper_shape() {
        let text = run_table1(false).unwrap();
        for criterion in CAPABILITY_CRITERIA {
            assert!(text.contains(criterion), "missing {criterion}");
        }
        assert!(text.contains("Orpheus"));
        assert!(text.contains("TF-Lite"));
    }

    #[test]
    fn layer_profile_lists_layers() {
        let profile = profile_model(Personality::Orpheus, ModelKind::TinyCnn, 8, 1).unwrap();
        let text = render_layer_profile(&profile);
        assert!(text.contains("Conv"));
        assert!(text.contains("by op:"));
    }

    #[test]
    fn simplify_ablation_reduces_layer_count() {
        let report = run_simplify_ablation(ModelKind::TinyCnn, 8, 1).unwrap();
        assert!(report.layers_simplified < report.layers_plain);
        assert!(report.plain_ms > 0.0 && report.simplified_ms > 0.0);
    }

    #[test]
    fn quick_scale_respects_minimums() {
        for m in ModelKind::FIGURE2 {
            assert!(InputScale::Quick.input_hw(m) >= m.min_input_hw());
            assert!(InputScale::Full.input_hw(m) >= InputScale::Quick.input_hw(m));
        }
    }
}

/// Outcome of validating one backend configuration against the reference.
#[derive(Debug, Clone)]
pub struct ValidationRow {
    /// Configuration label.
    pub label: String,
    /// Whether outputs matched the reference within tolerance.
    pub ok: bool,
    /// Largest absolute output difference.
    pub max_abs: f32,
}

/// EXP-support: the paper's "suite of unit tests to ensure correctness of
/// all operations, and to provide ready-made assistance in the development
/// and integration of new backends", as a runnable check: executes `graph`
/// under every personality and both vendor backends and compares each
/// against the Orpheus reference output.
///
/// # Errors
///
/// Propagates failures of the *reference* configuration; per-backend
/// failures are reported as non-`ok` rows, not errors.
pub fn run_backend_validation(
    graph: &orpheus_graph::Graph,
    input: &Tensor,
) -> Result<Vec<ValidationRow>, EngineError> {
    use orpheus::VendorBackend;
    let reference = Engine::builder().build()?.load(graph.clone())?.run(input)?;
    let mut rows = Vec::new();
    let mut check = |label: String, result: Result<Tensor, EngineError>| {
        let row = match result {
            Ok(out) => {
                let report = orpheus_tensor::allclose(&out, &reference, 1e-2, 1e-4);
                ValidationRow {
                    label,
                    ok: report.ok,
                    max_abs: report.max_abs,
                }
            }
            Err(e) => ValidationRow {
                label: format!("{label} ({e})"),
                ok: false,
                max_abs: f32::INFINITY,
            },
        };
        rows.push(row);
    };
    for personality in [
        Personality::TvmSim,
        Personality::PytorchSim,
        Personality::DarknetSim,
    ] {
        check(
            format!("personality {personality}"),
            Engine::builder()
                .personality(personality)
                .build()
                .and_then(|e| e.load(graph.clone()))
                .and_then(|n| n.run(input)),
        );
    }
    for (name, vendor) in [("vnnl", VendorBackend::Vnnl), ("vcl", VendorBackend::Vcl)] {
        check(
            format!("vendor {name}"),
            Engine::builder()
                .vendor_backend(vendor)
                .build()
                .and_then(|e| e.load(graph.clone()))
                .and_then(|n| n.run(input)),
        );
    }
    check(
        "policy heuristic".into(),
        Engine::builder()
            .policy(orpheus::SelectionPolicy::Heuristic)
            .build()
            .and_then(|e| e.load(graph.clone()))
            .and_then(|n| n.run(input)),
    );
    check(
        "policy auto-tune".into(),
        Engine::builder()
            .policy(orpheus::SelectionPolicy::AutoTune { trials: 1 })
            .build()
            .and_then(|e| e.load(graph.clone()))
            .and_then(|n| n.run(input)),
    );
    Ok(rows)
}

#[cfg(test)]
mod validation_tests {
    use super::*;

    #[test]
    fn all_backends_validate_on_tiny_cnn() {
        let graph = build_model_with_input(ModelKind::TinyCnn, 8, 8);
        let input = Tensor::from_fn(&[1, 3, 8, 8], |i| ((i * 7 % 13) as f32 / 13.0) - 0.4);
        let rows = run_backend_validation(&graph, &input).unwrap();
        assert_eq!(rows.len(), 7);
        for row in &rows {
            assert!(row.ok, "backend failed validation: {row:?}");
        }
    }
}

/// Multi-run latency statistics in microseconds, summarized from a
/// log-linear [`Histogram`](orpheus_observe::Histogram). Quantiles carry
/// the histogram's bounded bucket error (~6%); min/max/mean are exact.
#[derive(Debug, Clone)]
pub struct LatencyStats {
    /// Samples recorded.
    pub runs: u64,
    /// Fastest run, µs.
    pub min_us: u64,
    /// Slowest run, µs.
    pub max_us: u64,
    /// Arithmetic mean, µs.
    pub mean_us: f64,
    /// Median, µs.
    pub p50_us: u64,
    /// 90th percentile, µs.
    pub p90_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
}

impl LatencyStats {
    /// Summarizes a latency histogram.
    pub fn from_histogram(h: &orpheus_observe::Histogram) -> LatencyStats {
        LatencyStats {
            runs: h.count(),
            min_us: h.min(),
            max_us: h.max(),
            mean_us: h.mean(),
            p50_us: h.percentile(0.50),
            p90_us: h.percentile(0.90),
            p99_us: h.percentile(0.99),
        }
    }

    /// The stats as a JSON object (microsecond fields, matching the
    /// `BENCH_*.json` schema's `latency_us` objects).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("runs", self.runs.into()),
            ("min_us", self.min_us.into()),
            ("p50_us", self.p50_us.into()),
            ("p90_us", self.p90_us.into()),
            ("p99_us", self.p99_us.into()),
            ("max_us", self.max_us.into()),
            ("mean_us", self.mean_us.into()),
        ])
    }

    /// Renders the latency summary table (milliseconds).
    pub fn render(&self) -> String {
        let ms = |us: u64| us as f64 / 1e3;
        let mut out = format!("runs: {}\n", self.runs);
        for (label, value) in [
            ("min", ms(self.min_us)),
            ("p50", ms(self.p50_us)),
            ("p90", ms(self.p90_us)),
            ("p99", ms(self.p99_us)),
            ("max", ms(self.max_us)),
            ("mean", self.mean_us / 1e3),
        ] {
            out.push_str(&format!("  {label:<5} {value:>9.3} ms\n"));
        }
        out
    }
}

/// Runs `f` with the global span recorder and metrics registry enabled,
/// returning its result together with the drained trace and a metrics
/// snapshot. The recorder is global: callers must not overlap recordings.
pub fn with_recording<T>(
    f: impl FnOnce() -> T,
) -> (T, orpheus_observe::Trace, orpheus_observe::MetricsSnapshot) {
    orpheus_observe::reset();
    orpheus_observe::enable();
    let value = f();
    orpheus_observe::disable();
    let trace = orpheus_observe::take_trace();
    let metrics = orpheus_observe::metrics_snapshot();
    orpheus_observe::reset_metrics();
    (value, trace, metrics)
}

/// Everything the `profile` subcommand reports: the raw span trace, the
/// metrics snapshot, a per-layer [`orpheus::Profile`] rebuilt from the first
/// timed run's spans, and multi-run latency statistics.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// All spans recorded across load and the timed runs.
    pub trace: orpheus_observe::Trace,
    /// Counters, gauges, and histograms collected during the recording.
    pub metrics: orpheus_observe::MetricsSnapshot,
    /// Per-layer timing table for the first timed run.
    pub profile: orpheus::Profile,
    /// Latency distribution over the timed runs.
    pub latency: LatencyStats,
}

/// EXP-OBS: end-to-end traced deployment. Builds the model, round-trips it
/// through ONNX (so the trace covers the import stage the paper's deployment
/// path starts from), then records `runs` timed inferences. One warm-up run
/// is executed with recording suspended, so neither the span trace nor the
/// `run.latency_us` histogram sees cold-start effects.
///
/// # Errors
///
/// Propagates engine and ONNX round-trip failures.
pub fn run_traced_profile(
    personality: Personality,
    model: ModelKind,
    input_hw: usize,
    threads: usize,
    runs: usize,
) -> Result<TraceReport, EngineError> {
    let engine = Engine::builder()
        .personality(personality)
        .threads(threads)
        .build()?;
    let graph = build_model_with_input(model, input_hw, input_hw);
    let bytes = orpheus_onnx::export_model(&graph)
        .map_err(|e| EngineError::Config(format!("onnx round-trip failed: {e}")))?;
    let dims = [1, model.input_dims()[1], input_hw, input_hw];
    let input = Tensor::full(&dims, 0.5);
    let runs = runs.max(1);
    let (outcome, trace, metrics) = with_recording(|| -> Result<MemoryStats, EngineError> {
        let network = engine.load_onnx(&bytes)?;
        // One session across all runs, mirroring a deployed steady state.
        // Warm-up is invisible to the recorder: only steady-state runs land
        // in the trace and the latency histogram.
        let mut session = network.session();
        orpheus_observe::disable();
        let warmup = session.run(&input).map(|_| ());
        orpheus_observe::enable();
        warmup?;
        for _ in 0..runs {
            session.run(&input)?;
        }
        Ok(network
            .memory_plan()
            .map(orpheus::MemoryPlan::stats)
            .unwrap_or_default())
    });
    let memory = outcome?;
    let latency = metrics
        .histograms
        .get("run.latency_us")
        .map(LatencyStats::from_histogram)
        .unwrap_or(LatencyStats {
            runs: 0,
            min_us: 0,
            max_us: 0,
            mean_us: 0.0,
            p50_us: 0,
            p90_us: 0,
            p99_us: 0,
        });
    // The per-layer table describes ONE pass over the network, so rebuild it
    // from the first timed run's subtree only, at every depth so that self
    // time excludes each layer's GEMM and pool spans; the trace cannot carry
    // memory statistics, so they come from the network's memory plan.
    let mut profile = match trace.by_category("session").find(|s| s.name == "run") {
        Some(run) => {
            let mut subtree = vec![run.id];
            let mut next = 0;
            while let Some(&id) = subtree.get(next) {
                subtree.extend(trace.children_of(id).map(|s| s.id));
                next += 1;
            }
            let subtree: std::collections::BTreeSet<u64> = subtree.into_iter().collect();
            let spans = trace
                .spans
                .iter()
                .filter(|s| subtree.contains(&s.id))
                .cloned()
                .collect();
            orpheus::Profile::from_trace(&orpheus_observe::Trace { spans })
        }
        None => orpheus::Profile::from_trace(&trace),
    };
    profile.memory = memory;
    Ok(TraceReport {
        trace,
        metrics,
        profile,
        latency,
    })
}

/// EXP-REP: the `repeat` subcommand — `runs` timed inferences after
/// `warmup` discarded warm-up runs, summarized as percentile latency. Uses
/// a local [`Histogram`](orpheus_observe::Histogram) rather than the global
/// recorder, so it composes with any concurrent recording.
///
/// The timed loop reuses one [`orpheus::Session`], so it measures the
/// zero-allocation arena executor. With `no_reuse` set the session runs the
/// no-reuse memory plan instead (`Network::no_reuse_session`: one buffer per
/// slot, no view moves) — the pair is the session-vs-no-reuse smoke
/// comparison `scripts/check.sh` runs.
///
/// # Errors
///
/// Propagates engine failures.
pub fn run_repeat(
    personality: Personality,
    model: ModelKind,
    input_hw: usize,
    threads: usize,
    runs: usize,
    warmup: usize,
    no_reuse: bool,
) -> Result<LatencyStats, EngineError> {
    let engine = Engine::builder()
        .personality(personality)
        .threads(threads)
        .build()?;
    let graph = build_model_with_input(model, input_hw, input_hw);
    let network = engine.load(graph)?;
    let dims = [1, model.input_dims()[1], input_hw, input_hw];
    let input = Tensor::full(&dims, 0.5);
    let mut histogram = orpheus_observe::Histogram::default();
    let mut session = if no_reuse {
        network.no_reuse_session()
    } else {
        network.session()
    };
    for _ in 0..warmup {
        session.run(&input)?;
    }
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        session.run(&input)?;
        histogram.record(start.elapsed().as_micros() as u64);
    }
    Ok(LatencyStats::from_histogram(&histogram))
}

/// EXP-ROB: deterministic fault-injection fuzzing of the ONNX importer.
///
/// Exports each model to ONNX bytes and feeds `iters` structure-aware
/// mutations per model through [`orpheus_onnx::fuzz_import`] under the
/// default [`orpheus_onnx::ImportLimits`]. Model `i` fuzzes with seed
/// `seed + i`, so a campaign is reproducible from its command line alone.
///
/// Returns the per-model report table.
///
/// # Errors
///
/// Returns [`EngineError::Execution`] if any mutant panicked the importer or
/// was accepted despite exceeding the limits — both are importer bugs, never
/// acceptable outcomes.
pub fn run_fuzz(models: &[ModelKind], iters: u64, seed: u64) -> Result<String, EngineError> {
    use orpheus_onnx::{fuzz_import, FuzzReport, ImportLimits};
    let limits = ImportLimits::default();
    let mut total = FuzzReport::default();
    let mut out = String::new();
    for (i, &model) in models.iter().enumerate() {
        let graph = orpheus_models::build_model(model);
        let bytes = orpheus_onnx::export_model(&graph)
            .map_err(|e| EngineError::Config(format!("exporting {model}: {e}")))?;
        let report = fuzz_import(&bytes, &limits, seed.wrapping_add(i as u64), iters);
        out.push_str(&format!("{:<14} {report}\n", model.name()));
        total.merge(&report);
    }
    if models.len() > 1 {
        out.push_str(&format!("{:<14} {total}\n", "total"));
    }
    if !total.is_clean() {
        return Err(EngineError::Execution(format!(
            "importer contract violated: {} panic(s), {} over-limit accept(s)\n{out}",
            total.panics, total.limit_violations
        )));
    }
    Ok(out)
}

/// Lints every model in `models` at quick input scale (or `hw` when given),
/// returning one report per model in order.
///
/// This is the whole-zoo path `scripts/check.sh` exercises: each model is
/// built, pushed through the verifier and dataflow analyses, and expected to
/// come back with zero error-severity findings.
pub fn run_lint_zoo(models: &[ModelKind], hw: Option<usize>) -> Vec<orpheus_verify::LintReport> {
    run_lint_zoo_batched(models, hw, 1)
}

/// [`run_lint_zoo`] with per-batch-bucket arena predictions up to
/// `max_batch` (the `lint --max-batch N` path); `1` reports no buckets.
pub fn run_lint_zoo_batched(
    models: &[ModelKind],
    hw: Option<usize>,
    max_batch: usize,
) -> Vec<orpheus_verify::LintReport> {
    run_lint_zoo_checked(models, hw, max_batch, false)
}

/// [`run_lint_zoo_batched`], optionally lowering each model through the
/// engine and proving every bucket's memory plan sound with the static plan
/// checker (`lint --check-plan`). Verdicts land in
/// [`LintReport::plan`](orpheus_verify::LintReport); a model the engine
/// refuses to load gets an `ORV008` diagnostic instead of a verdict.
pub fn run_lint_zoo_checked(
    models: &[ModelKind],
    hw: Option<usize>,
    max_batch: usize,
    check_plan: bool,
) -> Vec<orpheus_verify::LintReport> {
    models
        .iter()
        .map(|&model| {
            let hw = hw.unwrap_or_else(|| InputScale::Quick.input_hw(model));
            let graph = build_model_with_input(model, hw, hw);
            let mut report = orpheus_verify::lint_with_batch(&graph, max_batch);
            if check_plan {
                attach_plan_check(&mut report, &graph, max_batch);
            }
            report
        })
        .collect()
}

/// Lowers `graph` through the engine at `max_batch` and attaches the static
/// execution-plan verdicts ([`check_plan`](orpheus_verify::check_plan), codes
/// `ORV015`–`ORV022`) to the lint report. An unloadable model is reported as
/// an `ORV008` diagnostic rather than a panic — lint keeps going.
pub fn attach_plan_check(
    report: &mut orpheus_verify::LintReport,
    graph: &orpheus_graph::Graph,
    max_batch: usize,
) {
    let loaded = Engine::builder()
        .max_batch(max_batch)
        .build()
        .and_then(|engine| engine.load(graph.clone()));
    match loaded {
        Ok(network) => report.plan = Some(network.check_plan()),
        Err(err) => report.diagnostics.push(orpheus_verify::Diagnostic::graph(
            orpheus_verify::Code::ShapeInference,
            format!("cannot lower for plan check: {err}"),
        )),
    }
}

#[cfg(test)]
mod lint_tests {
    use super::*;

    #[test]
    fn zoo_models_lint_clean() {
        for report in run_lint_zoo(&[ModelKind::TinyCnn, ModelKind::LeNet5], None) {
            assert_eq!(
                report.errors(),
                0,
                "zoo model has lint errors:\n{}",
                report.render()
            );
            let memory = report.memory.as_ref().expect("memory report");
            assert!(memory.peak_bytes > 0);
        }
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;

    #[test]
    fn fuzz_runner_is_deterministic_and_clean() {
        let a = run_fuzz(&[ModelKind::TinyCnn], 64, 7).unwrap();
        let b = run_fuzz(&[ModelKind::TinyCnn], 64, 7).unwrap();
        assert_eq!(a, b, "same seed must reproduce the same campaign");
        assert!(a.contains("64 iters"));
        assert!(a.contains("0 panics"));
    }
}

#[cfg(test)]
mod observe_tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The recorder is global; the two `with_recording` tests must not
    /// overlap (other tests never enable recording, so they are safe).
    fn lock() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn traced_profile_captures_full_pipeline() {
        let _serial = lock();
        let report = run_traced_profile(Personality::Orpheus, ModelKind::TinyCnn, 8, 1, 3).unwrap();
        let t = &report.trace;
        // The acceptance span tree: import, simplification passes, lowering,
        // per-layer selection, per-layer execution.
        assert!(t.by_category("engine").any(|s| s.name == "import"));
        assert!(t.by_category("engine").any(|s| s.name == "lower"));
        assert!(t.by_category("pass").any(|s| s.name == "simplify"));
        assert!(t.by_category("pass").count() > 1, "per-pass spans missing");
        assert!(t.by_category("selection").count() > 0);
        let run = t
            .by_category("session")
            .find(|s| s.name == "run")
            .expect("run span");
        let layers = t
            .children_of(run.id)
            .filter(|s| s.category == "layer")
            .count();
        assert!(layers > 0, "layer spans must nest under the run span");
        // Metrics: pass rewrite counters, per-algorithm selection counts,
        // and the multi-run latency histogram.
        assert!(report
            .metrics
            .counters
            .keys()
            .any(|k| k.starts_with("graph.pass.")));
        assert!(report
            .metrics
            .counters
            .keys()
            .any(|k| k.starts_with("selection.algo.")));
        let h = &report.metrics.histograms["run.latency_us"];
        assert!(h.count() >= 3);
        assert!(report.latency.p50_us > 0);
        assert!(report.latency.p99_us >= report.latency.p50_us);
        // The per-layer table covers exactly one pass over the network, and
        // a layer with a GEMM child spends less than its total in itself.
        assert_eq!(report.profile.timings.len(), layers);
        assert!(t.by_category("gemm").count() > 0, "gemm spans missing");
        assert!(report
            .profile
            .timings
            .iter()
            .any(|row| row.self_us < row.total_us));
        let json = JsonValue::parse(&format!("{:#}", report.metrics.to_json())).unwrap();
        let histograms = json.get("histograms").unwrap();
        assert!(histograms.get("run.latency_us").is_some());
        let chrome = JsonValue::parse(&report.trace.to_chrome_trace().to_string()).unwrap();
        assert_eq!(chrome.as_array().unwrap().len(), t.len());
        for span in &t.spans {
            let line = JsonValue::parse(&span.to_json().to_string()).unwrap();
            assert_eq!(line.get("id").unwrap().as_u64(), Some(span.id));
        }
    }

    #[test]
    fn traced_profile_leaves_recording_disabled() {
        let _serial = lock();
        let _ = run_traced_profile(Personality::Orpheus, ModelKind::TinyCnn, 8, 1, 1).unwrap();
        assert!(!orpheus_observe::enabled());
    }

    #[test]
    fn repeat_reports_monotonic_percentiles() {
        let stats =
            run_repeat(Personality::Orpheus, ModelKind::TinyCnn, 8, 1, 5, 1, false).unwrap();
        assert_eq!(stats.runs, 5);
        assert!(stats.min_us > 0);
        assert!(stats.p50_us >= stats.min_us);
        assert!(stats.p90_us >= stats.p50_us);
        assert!(stats.p99_us >= stats.p90_us);
        assert!(stats.max_us >= stats.p99_us);
        let text = stats.render();
        assert!(text.contains("p99"));
        assert!(text.contains("runs: 5"));
    }

    #[test]
    fn traced_profile_reports_the_planned_arena_as_peak_memory() {
        let _serial = lock();
        let report = run_traced_profile(Personality::Orpheus, ModelKind::TinyCnn, 8, 1, 1).unwrap();
        let network = Engine::builder()
            .build()
            .unwrap()
            .load(build_model_with_input(ModelKind::TinyCnn, 8, 8))
            .unwrap();
        let plan = network.memory_plan().expect("load attaches a memory plan");
        assert_eq!(report.profile.memory.peak_bytes, plan.arena_bytes());
        assert!(report.profile.memory.peak_bytes > 0);
        let line = report
            .profile
            .render()
            .lines()
            .find(|l| l.contains("peak activation memory"))
            .expect("render prints the memory line")
            .to_string();
        assert!(!line.ends_with("memory 0 B"), "{line}");
        let planned = orpheus_verify::dataflow::human_bytes(plan.arena_bytes());
        assert!(line.ends_with(&planned), "{line}");
    }

    #[test]
    fn repeat_no_reuse_mode_runs_the_no_reuse_session() {
        let stats = run_repeat(Personality::Orpheus, ModelKind::TinyCnn, 8, 1, 3, 1, true).unwrap();
        assert_eq!(stats.runs, 3);
        assert!(stats.min_us > 0);
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;

    #[test]
    fn policy_comparison_reports_all_policies() {
        let rows = run_policy_comparison(ModelKind::TinyCnn, 8, 1).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|(_, ms)| *ms > 0.0));
        assert!(rows.iter().any(|(l, _)| l.contains("heuristic")));
    }

    #[test]
    fn layer_sweep_emits_csv() {
        let csv = run_layer_sweep(&[4], &[6], 3, 1, 1).unwrap();
        assert!(csv.starts_with("channels,hw,algorithm"));
        assert!(csv.contains("spatial-pack"));
        assert!(csv.lines().count() > 3);
    }
}
