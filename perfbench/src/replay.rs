//! Replay of every lowered layer through its public `orpheus-ops` entry
//! point, and of every GEMM-based layer through its public `orpheus-gemm`
//! calls, with the plan's shapes and selected implementations
//! (`PlanSummary::layers`).
//!
//! The engine keeps its layer objects private, so the replay rebuilds each
//! layer from the simplified graph the network was loaded from, the way
//! lowering does: conv geometry and fused activation from the node's
//! attributes, weights from its initializers, algorithm from the plan.

use std::convert::Infallible;

use orpheus::{Engine, Personality, PlanSummary};
use orpheus_gemm::{
    gemm_flops, gemm_prepacked_a, gemm_prepacked_b, GemmKernel, Im2colParams, PackedWeights,
};
use orpheus_graph::{infer_shapes, Graph, Node, OpKind};
use orpheus_ops::activation::Activation;
use orpheus_ops::conv::{Conv2d, Conv2dParams, ConvAlgorithm};
use orpheus_ops::dense::{Dense, DenseAlgorithm};
use orpheus_ops::elementwise::{add_activate_into, binary_into, BinaryOp};
use orpheus_ops::pool::{global_average_pool_into, pool2d_into, Pool2dParams, PoolMode};
use orpheus_ops::softmax::softmax_into;
use orpheus_tensor::{SmallRng, Tensor};

use crate::stats;
use crate::trace::Tracer;
use crate::workload::Error;

/// Where a layer's replay time is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Convolutions on a GEMM (or any other non-depthwise) algorithm.
    ConvGemm,
    ConvDepthwise,
    Pool,
    Dense,
    Other,
}

/// Replay totals for one inference at batch 1, each layer's time being the
/// median of its repetitions.
#[derive(Debug, Default)]
pub struct Replay {
    pub conv_gemm_ms: f64,
    pub conv_depthwise_ms: f64,
    pub pool_ms: f64,
    pub dense_ms: f64,
    pub other_ms: f64,
    pub im2col_ms: f64,
    pub prepacked_ms: f64,
    /// Computed from the GEMM shapes: `2·M·N·K` per call.
    pub gemm_flops: u64,
    /// Computed from operand sizes: `4·(M·K + K·N + M·N)` per call.
    pub gemm_bytes: u64,
    /// GEMMs whose activation-side extent (N = H·W for convolutions, the
    /// batch rows for dense heads) is below one 16-wide register tile.
    pub small_n_flops: u64,
    pub small_n_ms: f64,
}

/// Below this activation-side extent a GEMM cannot fill one 16-lane tile.
const SMALL_N: usize = 16;

impl Replay {
    pub fn ops_total_ms(&self) -> f64 {
        self.conv_gemm_ms + self.conv_depthwise_ms + self.pool_ms + self.dense_ms + self.other_ms
    }

    fn add(&mut self, category: Category, ms: f64) {
        match category {
            Category::ConvGemm => self.conv_gemm_ms += ms,
            Category::ConvDepthwise => self.conv_depthwise_ms += ms,
            Category::Pool => self.pool_ms += ms,
            Category::Dense => self.dense_ms += ms,
            Category::Other => self.other_ms += ms,
        }
    }

    fn add_gemm(&mut self, m: usize, n_act: usize, n: usize, k: usize, ms: f64) {
        let flops = gemm_flops(m, n, k);
        self.gemm_flops += flops;
        self.gemm_bytes += 4 * (m * k + k * n + m * n) as u64;
        self.prepacked_ms += ms;
        if n_act < SMALL_N {
            self.small_n_flops += flops;
            self.small_n_ms += ms;
        }
    }
}

/// Median wall time of `reps` calls of `f` (after one warm-up call), in
/// milliseconds, with each call recorded as a span named `name`.
fn timed<E>(
    tracer: &mut Tracer,
    name: &str,
    reps: usize,
    mut f: impl FnMut() -> Result<(), E>,
) -> Result<f64, E> {
    f()?;
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let span = tracer.begin(name, None);
        let r = f();
        ms.push(tracer.end(span));
        r?;
    }
    Ok(stats::median(&ms))
}

fn random(dims: &[usize], rng: &mut SmallRng) -> Tensor {
    Tensor::from_fn(dims, |_| rng.gen_range(-1.0, 1.0))
}

fn initializer<'g>(graph: &'g Graph, node: &Node, idx: usize) -> Option<&'g Tensor> {
    node.inputs
        .get(idx)
        .filter(|n| !n.is_empty())
        .and_then(|n| graph.initializer(n))
}

/// Conv geometry from node attributes and weight dims, as lowering reads it.
fn conv_params(node: &Node, weight: &Tensor) -> Conv2dParams {
    let wd = weight.dims();
    let groups = node.attrs.int_or("group", 1).max(1) as usize;
    let kernel = node.attrs.ints_or("kernel_shape", &[wd[2], wd[3]]);
    let strides = node.attrs.ints_or("strides", &[1, 1]);
    let dilations = node.attrs.ints_or("dilations", &[1, 1]);
    let pads = node.attrs.ints_or("pads", &[0, 0, 0, 0]);
    Conv2dParams {
        in_channels: wd[1] * groups,
        out_channels: wd[0],
        kernel_h: kernel[0],
        kernel_w: kernel[1],
        stride_h: strides[0],
        stride_w: strides[1],
        pad_h: pads.first().copied().unwrap_or(0),
        pad_w: pads.get(1).copied().unwrap_or(0),
        dilation_h: dilations[0],
        dilation_w: dilations[1],
        groups,
    }
}

/// The activation the graph's fusion pass attached to a node, if any.
fn fused_activation(node: &Node) -> Option<Activation> {
    match node.attrs.str_opt("fused_activation")? {
        "relu" => Some(Activation::Relu),
        "clip" => Some(Activation::Clip {
            lo: node.attrs.float_or("fused_clip_lo", f32::NEG_INFINITY),
            hi: node.attrs.float_or("fused_clip_hi", f32::INFINITY),
        }),
        "leaky_relu" => Some(Activation::LeakyRelu {
            alpha: node.attrs.float_or("fused_alpha", 0.01),
        }),
        "sigmoid" => Some(Activation::Sigmoid),
        "tanh" => Some(Activation::Tanh),
        _ => None,
    }
}

/// The conv algorithm whose display name is the plan's implementation.
fn conv_algorithm(implementation: &str) -> Option<ConvAlgorithm> {
    let mut all = vec![
        ConvAlgorithm::Direct,
        ConvAlgorithm::SpatialPack,
        ConvAlgorithm::Winograd,
        ConvAlgorithm::DepthwiseDirect,
    ];
    for k in GemmKernel::ALL {
        all.push(ConvAlgorithm::Im2colGemm(k));
        all.push(ConvAlgorithm::Im2colGemmEager(k));
    }
    all.into_iter().find(|a| a.to_string() == implementation)
}

/// Replays every layer of `summary` `reps` times on `engine`'s thread pool.
pub fn replay(
    graph: &Graph,
    summary: &PlanSummary,
    engine: &Engine,
    reps: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Replay, Error> {
    let pool = engine.pool();
    let shapes = infer_shapes(graph)?;
    let input = &graph.inputs()[0];
    let dims = |name: &str| -> Vec<usize> {
        shapes
            .get(name)
            .cloned()
            .unwrap_or_else(|| input.dims.clone())
    };
    let dense_kernel = if summary.gemm_isa == "scalar (forced)" {
        GemmKernel::PackedScalar
    } else {
        Personality::Orpheus.dense_kernel()
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Replay::default();
    for layer in &summary.layers {
        let node = graph
            .nodes()
            .iter()
            .find(|n| n.name == layer.name)
            .ok_or_else(|| format!("plan layer {:?} is not in the graph", layer.name))?;
        let in_dims = dims(&node.inputs[0]);
        let x = random(&in_dims, &mut rng);
        let mut y = Tensor::zeros(&dims(&node.outputs[0]));
        let (category, ms) = match &node.op {
            OpKind::Conv => {
                let weight = initializer(graph, node, 1).ok_or("conv without weight")?;
                let bias = initializer(graph, node, 2).cloned();
                let params = conv_params(node, weight);
                let algorithm = conv_algorithm(&layer.implementation).ok_or_else(|| {
                    format!("unknown conv implementation {:?}", layer.implementation)
                })?;
                let mut conv = Conv2d::new(params, weight.clone(), bias, algorithm)?;
                if let Some(act) = fused_activation(node) {
                    conv = conv.with_activation(act);
                }
                let ms = timed(tracer, "ops.conv", reps, || conv.run_into(&x, &mut y, pool))?;
                if let ConvAlgorithm::Im2colGemm(kernel) = algorithm {
                    replay_conv_gemm(&mut out, tracer, &params, weight, &x, kernel, reps);
                }
                let category = if algorithm == ConvAlgorithm::DepthwiseDirect {
                    Category::ConvDepthwise
                } else {
                    Category::ConvGemm
                };
                (category, ms)
            }
            OpKind::Gemm => {
                let weight = initializer(graph, node, 1).ok_or("dense without weight")?;
                let bias = initializer(graph, node, 2).cloned();
                let mut dense =
                    Dense::new(weight.clone(), bias, DenseAlgorithm::Gemm(dense_kernel))?;
                if let Some(act) = fused_activation(node) {
                    dense = dense.with_activation(act);
                }
                let ms = timed(tracer, "ops.dense", reps, || {
                    dense.run_into(&x, &mut y, pool)
                })?;
                let (n, k) = (weight.dims()[0], weight.dims()[1]);
                let m = x.len() / k;
                let packed = PackedWeights::pack_b_transposed(weight.as_slice(), n, k);
                let mut c = vec![0.0f32; m * n];
                let Ok(gemm_ms) = timed(tracer, "gemm.prepacked_b", reps, || {
                    gemm_prepacked_b(dense_kernel, m, x.as_slice(), k, &packed, &mut c, n, 0.0);
                    Ok::<(), Infallible>(())
                });
                out.add_gemm(m, m, n, k, gemm_ms);
                (Category::Dense, ms)
            }
            OpKind::MaxPool | OpKind::AveragePool => {
                let kernel = node.attrs.ints_or("kernel_shape", &[1, 1]);
                let strides = node.attrs.ints_or("strides", &kernel);
                let pads = node.attrs.ints_or("pads", &[0, 0, 0, 0]);
                let mode = if node.op == OpKind::MaxPool {
                    PoolMode::Max
                } else {
                    PoolMode::Average {
                        count_include_pad: node.attrs.int_or("count_include_pad", 0) != 0,
                    }
                };
                let params = Pool2dParams {
                    mode,
                    kernel_h: kernel[0],
                    kernel_w: kernel[1],
                    stride_h: strides[0],
                    stride_w: strides[1],
                    pad_h: pads.first().copied().unwrap_or(0),
                    pad_w: pads.get(1).copied().unwrap_or(0),
                };
                let ms = timed(tracer, "ops.pool", reps, || {
                    pool2d_into(&params, &x, &mut y, pool)
                })?;
                (Category::Pool, ms)
            }
            OpKind::GlobalAveragePool => {
                let ms = timed(tracer, "ops.pool", reps, || {
                    global_average_pool_into(&x, &mut y, pool)
                })?;
                (Category::Pool, ms)
            }
            OpKind::Add => {
                let b = random(&dims(&node.inputs[1]), &mut rng);
                let ms = timed(tracer, "ops.other", reps, || match fused_activation(node) {
                    Some(act) => add_activate_into(&x, &b, act, &mut y),
                    None => binary_into(BinaryOp::Add, &x, &b, &mut y),
                })?;
                (Category::Other, ms)
            }
            OpKind::Softmax => {
                let ms = timed(tracer, "ops.other", reps, || softmax_into(&x, &mut y))?;
                (Category::Other, ms)
            }
            // Views: the planner moves the buffer, no kernel runs.
            OpKind::Flatten | OpKind::Reshape | OpKind::Identity | OpKind::Dropout => {
                (Category::Other, 0.0)
            }
            other => return Err(format!("no replay for op {other:?} ({})", layer.name).into()),
        };
        out.add(category, ms);
    }
    Ok(out)
}

/// Replays one im2col-GEMM convolution as its `orpheus-gemm` calls: the
/// column lowering (skipped for pointwise convolutions, as the engine does)
/// and the GEMM on weights packed once with `PackedWeights::pack_a`.
fn replay_conv_gemm(
    out: &mut Replay,
    tracer: &mut Tracer,
    p: &Conv2dParams,
    weight: &Tensor,
    x: &Tensor,
    kernel: GemmKernel,
    reps: usize,
) {
    let (h, w) = (x.dims()[2], x.dims()[3]);
    let (cig, cog) = (p.in_channels / p.groups, p.out_channels / p.groups);
    let k = cig * p.kernel_h * p.kernel_w;
    let n = p.out_h(h) * p.out_w(w);
    let pointwise = p.kernel_h == 1
        && p.kernel_w == 1
        && p.stride_h == 1
        && p.stride_w == 1
        && p.pad_h == 0
        && p.pad_w == 0;
    let lowering = Im2colParams {
        channels: cig,
        height: h,
        width: w,
        kernel_h: p.kernel_h,
        kernel_w: p.kernel_w,
        stride_h: p.stride_h,
        stride_w: p.stride_w,
        pad_h: p.pad_h,
        pad_w: p.pad_w,
        dilation_h: p.dilation_h,
        dilation_w: p.dilation_w,
    };
    let mut col = vec![0.0f32; if pointwise { 0 } else { k * n }];
    let mut c = vec![0.0f32; cog * n];
    for g in 0..p.groups {
        let packed = PackedWeights::pack_a(
            &weight.as_slice()[g * cog * k..(g + 1) * cog * k],
            cog,
            k,
            k,
        );
        let input = &x.as_slice()[g * cig * h * w..(g + 1) * cig * h * w];
        if !pointwise {
            let Ok(ms) = timed(tracer, "gemm.im2col", reps, || {
                orpheus_gemm::im2col(&lowering, input, &mut col);
                Ok::<(), Infallible>(())
            });
            out.im2col_ms += ms;
        }
        let b: &[f32] = if pointwise { input } else { &col };
        let Ok(ms) = timed(tracer, "gemm.prepacked_a", reps, || {
            gemm_prepacked_a(kernel, &packed, n, b, n, &mut c, n, 0.0);
            Ok::<(), Infallible>(())
        });
        out.add_gemm(cog, n, n, k, ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_conv_algorithm_name_maps_back() {
        assert_eq!(
            conv_algorithm("im2col-gemm(packed)"),
            Some(ConvAlgorithm::Im2colGemm(GemmKernel::Packed))
        );
        assert_eq!(
            conv_algorithm("depthwise-direct"),
            Some(ConvAlgorithm::DepthwiseDirect)
        );
        assert_eq!(conv_algorithm("no-such-algorithm"), None);
    }
}
