//! Layers backed by the `orpheus-ops` algorithm library.

use orpheus_gemm::GemmKernel;
use orpheus_ops::activation::Activation;
use orpheus_ops::concat::concat_channels_into;
use orpheus_ops::conv::{Conv2d, Conv2dParams, ConvAlgorithm};
use orpheus_ops::dense::{Dense, DenseAlgorithm};
use orpheus_ops::elementwise::{add_activate_into, binary_into, BinaryOp};
use orpheus_ops::norm::BatchNorm;
use orpheus_ops::pad::pad_constant_into;
use orpheus_ops::pool::{global_average_pool_into, pool2d_into, Pool2dParams};
use orpheus_ops::reduce::reduce_mean_into;
use orpheus_ops::softmax::softmax_into;
use orpheus_tensor::Tensor;
use orpheus_threads::ThreadPool;

use crate::error::EngineError;
use crate::layer::{copy_data_into, expect_inputs, Layer};

/// 2-D convolution layer. Wraps [`Conv2d`], which carries the selected
/// algorithm and pre-packed weights.
#[derive(Debug)]
pub struct ConvLayer {
    name: String,
    conv: Conv2d,
    /// FLOPs computed at lowering time from the known input shape.
    flops: u64,
}

impl ConvLayer {
    /// Creates a convolution layer.
    ///
    /// `input_hw` is the static input spatial size, used to pre-compute the
    /// FLOP count the profiler reports.
    ///
    /// # Errors
    ///
    /// Propagates [`Conv2d::new`] validation failures.
    pub fn new(
        name: &str,
        params: Conv2dParams,
        weight: Tensor,
        bias: Option<Tensor>,
        algorithm: ConvAlgorithm,
        activation: Option<Activation>,
        input_hw: (usize, usize),
    ) -> Result<Self, EngineError> {
        let flops = params.flops(input_hw.0, input_hw.1);
        let mut conv = Conv2d::new(params, weight, bias, algorithm)?;
        if let Some(act) = activation {
            conv = conv.with_activation(act);
        }
        Ok(ConvLayer {
            name: name.to_string(),
            conv,
            flops,
        })
    }

    /// The wrapped convolution's parameters.
    pub fn params(&self) -> &Conv2dParams {
        self.conv.params()
    }

    /// The selected algorithm.
    pub fn algorithm(&self) -> ConvAlgorithm {
        self.conv.algorithm()
    }
}

impl Layer for ConvLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "Conv"
    }
    fn implementation(&self) -> String {
        self.conv.algorithm().to_string()
    }
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, 1)?;
        Ok(self.conv.run_into(inputs[0], output, pool)?)
    }
    fn flops(&self) -> u64 {
        self.flops
    }
    fn reference_fallback(&self) -> Option<Box<dyn Layer>> {
        // `Direct` is the reference: it supports every geometry and shares no
        // code with the optimized paths, so a bug in packing or tiling cannot
        // take it down too.
        if self.conv.algorithm() == ConvAlgorithm::Direct {
            return None;
        }
        let mut conv = Conv2d::new(
            *self.conv.params(),
            self.conv.weight().clone(),
            self.conv.bias().cloned(),
            ConvAlgorithm::Direct,
        )
        .ok()?;
        if let Some(act) = self.conv.activation() {
            conv = conv.with_activation(act);
        }
        Some(Box::new(ConvLayer {
            name: self.name.clone(),
            conv,
            flops: self.flops,
        }))
    }
}

/// Fully-connected layer.
#[derive(Debug)]
pub struct DenseLayer {
    name: String,
    dense: Dense,
    flops: u64,
}

impl DenseLayer {
    /// Creates a dense layer.
    ///
    /// # Errors
    ///
    /// Propagates [`Dense::new`] validation failures.
    pub fn new(
        name: &str,
        weight: Tensor,
        bias: Option<Tensor>,
        kernel: GemmKernel,
        activation: Option<Activation>,
    ) -> Result<Self, EngineError> {
        let flops = 2 * weight.dims()[0] as u64 * weight.dims()[1] as u64;
        let mut dense = Dense::new(weight, bias, DenseAlgorithm::Gemm(kernel))?;
        if let Some(act) = activation {
            dense = dense.with_activation(act);
        }
        Ok(DenseLayer {
            name: name.to_string(),
            dense,
            flops,
        })
    }
}

impl Layer for DenseLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "Dense"
    }
    fn implementation(&self) -> String {
        "gemm".into()
    }
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, 1)?;
        Ok(self.dense.run_into(inputs[0], output, pool)?)
    }
    fn flops(&self) -> u64 {
        self.flops
    }
}

/// Max/average pooling layer.
#[derive(Debug)]
pub struct PoolLayer {
    name: String,
    params: Pool2dParams,
}

impl PoolLayer {
    /// Creates a pooling layer.
    pub fn new(name: &str, params: Pool2dParams) -> Self {
        PoolLayer {
            name: name.to_string(),
            params,
        }
    }
}

impl Layer for PoolLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "Pool"
    }
    fn implementation(&self) -> String {
        format!("{:?}", self.params.mode).to_lowercase()
    }
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, 1)?;
        Ok(pool2d_into(&self.params, inputs[0], output, pool)?)
    }
}

/// Global average pooling layer.
#[derive(Debug)]
pub struct GlobalPoolLayer {
    name: String,
}

impl GlobalPoolLayer {
    /// Creates a global-average-pool layer.
    pub fn new(name: &str) -> Self {
        GlobalPoolLayer {
            name: name.to_string(),
        }
    }
}

impl Layer for GlobalPoolLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "GlobalAveragePool"
    }
    fn implementation(&self) -> String {
        "direct".into()
    }
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, 1)?;
        Ok(global_average_pool_into(inputs[0], output, pool)?)
    }
}

/// Standalone batch-norm layer (used when BN folding is disabled or blocked).
#[derive(Debug)]
pub struct BatchNormLayer {
    name: String,
    bn: BatchNorm,
}

impl BatchNormLayer {
    /// Creates a batch-norm layer from the four parameter tensors.
    ///
    /// # Errors
    ///
    /// Propagates [`BatchNorm::new`] validation failures.
    pub fn new(
        name: &str,
        scale: &Tensor,
        shift: &Tensor,
        mean: &Tensor,
        var: &Tensor,
        eps: f32,
    ) -> Result<Self, EngineError> {
        Ok(BatchNormLayer {
            name: name.to_string(),
            bn: BatchNorm::new(scale, shift, mean, var, eps)?,
        })
    }
}

impl Layer for BatchNormLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "BatchNorm"
    }
    fn implementation(&self) -> String {
        "affine".into()
    }
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        _pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, 1)?;
        Ok(self.bn.run_into(inputs[0], output)?)
    }
}

/// Standalone activation layer.
#[derive(Debug)]
pub struct ActivationLayer {
    name: String,
    activation: Activation,
}

impl ActivationLayer {
    /// Creates an activation layer.
    pub fn new(name: &str, activation: Activation) -> Self {
        ActivationLayer {
            name: name.to_string(),
            activation,
        }
    }
}

impl Layer for ActivationLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "Activation"
    }
    fn implementation(&self) -> String {
        format!("{:?}", self.activation).to_lowercase()
    }
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        _pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, 1)?;
        copy_data_into(&self.name, inputs[0], output)?;
        self.activation.apply_slice(output.as_mut_slice());
        Ok(())
    }
}

/// Residual addition, optionally fused with an activation.
#[derive(Debug)]
pub struct AddLayer {
    name: String,
    activation: Option<Activation>,
}

impl AddLayer {
    /// Creates an addition layer.
    pub fn new(name: &str, activation: Option<Activation>) -> Self {
        AddLayer {
            name: name.to_string(),
            activation,
        }
    }
}

impl Layer for AddLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "Add"
    }
    fn implementation(&self) -> String {
        match self.activation {
            Some(a) => format!("fused-{:?}", a).to_lowercase(),
            None => "elementwise".into(),
        }
    }
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        _pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, 2)?;
        match self.activation {
            Some(act) => Ok(add_activate_into(inputs[0], inputs[1], act, output)?),
            None => Ok(binary_into(BinaryOp::Add, inputs[0], inputs[1], output)?),
        }
    }
}

/// Element-wise multiplication layer.
#[derive(Debug)]
pub struct MulLayer {
    name: String,
}

impl MulLayer {
    /// Creates a multiplication layer.
    pub fn new(name: &str) -> Self {
        MulLayer {
            name: name.to_string(),
        }
    }
}

impl Layer for MulLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "Mul"
    }
    fn implementation(&self) -> String {
        "elementwise".into()
    }
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        _pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, 2)?;
        Ok(binary_into(BinaryOp::Mul, inputs[0], inputs[1], output)?)
    }
}

/// Channel concatenation layer.
#[derive(Debug)]
pub struct ConcatLayer {
    name: String,
    arity: usize,
}

impl ConcatLayer {
    /// Creates a concat layer with a fixed arity.
    pub fn new(name: &str, arity: usize) -> Self {
        ConcatLayer {
            name: name.to_string(),
            arity,
        }
    }
}

impl Layer for ConcatLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "Concat"
    }
    fn implementation(&self) -> String {
        "memcpy".into()
    }
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        _pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, self.arity)?;
        Ok(concat_channels_into(inputs, output)?)
    }
}

/// Softmax layer.
#[derive(Debug)]
pub struct SoftmaxLayer {
    name: String,
}

impl SoftmaxLayer {
    /// Creates a softmax layer.
    pub fn new(name: &str) -> Self {
        SoftmaxLayer {
            name: name.to_string(),
        }
    }
}

impl Layer for SoftmaxLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "Softmax"
    }
    fn implementation(&self) -> String {
        "stable".into()
    }
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        _pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, 1)?;
        Ok(softmax_into(inputs[0], output)?)
    }
}

/// Flatten to `[batch, rest]`.
#[derive(Debug)]
pub struct FlattenLayer {
    name: String,
}

impl FlattenLayer {
    /// Creates a flatten layer.
    pub fn new(name: &str) -> Self {
        FlattenLayer {
            name: name.to_string(),
        }
    }
}

impl Layer for FlattenLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "Flatten"
    }
    fn implementation(&self) -> String {
        "view".into()
    }
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        _pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        // `output` already carries the planned (flattened) dims; views copy
        // storage byte-for-byte.
        let inputs = expect_inputs(&self.name, inputs, 1)?;
        copy_data_into(&self.name, inputs[0], output)
    }
}

/// Reshape to the static target shape resolved at lowering time, which the
/// plan carries as the output slot's dims.
#[derive(Debug)]
pub struct ReshapeLayer {
    name: String,
}

impl ReshapeLayer {
    /// Creates a reshape layer.
    pub fn new(name: &str) -> Self {
        ReshapeLayer {
            name: name.to_string(),
        }
    }
}

impl Layer for ReshapeLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "Reshape"
    }
    fn implementation(&self) -> String {
        "view".into()
    }
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        _pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, 1)?;
        copy_data_into(&self.name, inputs[0], output)
    }
}

/// Constant-padding layer (survives only when `pad-fold` cannot absorb it).
#[derive(Debug)]
pub struct PadLayer {
    name: String,
    begins: Vec<usize>,
    ends: Vec<usize>,
    value: f32,
}

impl PadLayer {
    /// Creates a pad layer from ONNX-style `[begins..., ends...]` pads.
    pub fn new(name: &str, begins: Vec<usize>, ends: Vec<usize>, value: f32) -> Self {
        PadLayer {
            name: name.to_string(),
            begins,
            ends,
            value,
        }
    }
}

impl Layer for PadLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "Pad"
    }
    fn implementation(&self) -> String {
        "constant".into()
    }
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        _pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, 1)?;
        Ok(pad_constant_into(
            inputs[0],
            &self.begins,
            &self.ends,
            self.value,
            output,
        )?)
    }
}

/// Axis-mean reduction layer (`ReduceMean`).
#[derive(Debug)]
pub struct ReduceMeanLayer {
    name: String,
    axes: Vec<usize>,
    keepdims: bool,
}

impl ReduceMeanLayer {
    /// Creates a reduce-mean layer.
    pub fn new(name: &str, axes: Vec<usize>, keepdims: bool) -> Self {
        ReduceMeanLayer {
            name: name.to_string(),
            axes,
            keepdims,
        }
    }
}

impl Layer for ReduceMeanLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "ReduceMean"
    }
    fn implementation(&self) -> String {
        "scatter".into()
    }
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        _pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, 1)?;
        let x = inputs[0];
        if self.axes.is_empty() {
            // ONNX: absent axes means reduce over all dimensions.
            let all: Vec<usize> = (0..x.dims().len()).collect();
            Ok(reduce_mean_into(x, &all, self.keepdims, output)?)
        } else {
            Ok(reduce_mean_into(x, &self.axes, self.keepdims, output)?)
        }
    }
}

/// Identity layer (survives only when simplification is disabled).
#[derive(Debug)]
pub struct IdentityLayer {
    name: String,
}

impl IdentityLayer {
    /// Creates an identity layer.
    pub fn new(name: &str) -> Self {
        IdentityLayer {
            name: name.to_string(),
        }
    }
}

impl Layer for IdentityLayer {
    fn name(&self) -> &str {
        &self.name
    }
    fn op_name(&self) -> &str {
        "Identity"
    }
    fn implementation(&self) -> String {
        "copy".into()
    }
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        _pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        let inputs = expect_inputs(&self.name, inputs, 1)?;
        copy_data_into(&self.name, inputs[0], output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::layer::run_to;

    #[test]
    fn conv_layer_runs_and_reports() {
        let params = Conv2dParams::square(1, 2, 3).with_padding(1, 1);
        let layer = ConvLayer::new(
            "c0",
            params,
            Tensor::ones(&[2, 1, 3, 3]),
            None,
            ConvAlgorithm::default(),
            Some(Activation::Relu),
            (4, 4),
        )
        .unwrap();
        let out = run_to(&layer, &[&Tensor::ones(&[1, 1, 4, 4])], &[1, 2, 4, 4]).unwrap();
        assert_eq!(out.dims(), &[1, 2, 4, 4]);
        assert_eq!(layer.op_name(), "Conv");
        assert!(layer.flops() > 0);
        assert_eq!(layer.implementation(), "im2col-gemm(packed)");
    }

    #[test]
    fn conv_layer_reference_fallback_agrees() {
        let params = Conv2dParams::square(2, 3, 3).with_padding(1, 1);
        let layer = ConvLayer::new(
            "c0",
            params,
            Tensor::from_fn(&[3, 2, 3, 3], |i| (i % 5) as f32 * 0.1 - 0.2),
            Some(Tensor::from_fn(&[3], |i| i as f32)),
            ConvAlgorithm::default(),
            Some(Activation::Relu),
            (4, 4),
        )
        .unwrap();
        let fallback = layer
            .reference_fallback()
            .expect("optimized conv has a twin");
        assert_eq!(fallback.implementation(), "direct");
        assert_eq!(fallback.name(), layer.name());
        assert_eq!(fallback.flops(), layer.flops());
        let input = Tensor::from_fn(&[1, 2, 4, 4], |i| ((i * 7) % 11) as f32 * 0.1);
        let a = run_to(&layer, &[&input], &[1, 3, 4, 4]).unwrap();
        let b = run_to(fallback.as_ref(), &[&input], &[1, 3, 4, 4]).unwrap();
        let r = orpheus_tensor::allclose(&a, &b, 1e-4, 1e-5);
        assert!(r.ok, "fallback disagrees with primary: {r:?}");
    }

    #[test]
    fn direct_conv_has_no_fallback() {
        let params = Conv2dParams::square(1, 1, 1);
        let layer = ConvLayer::new(
            "c",
            params,
            Tensor::ones(&[1, 1, 1, 1]),
            None,
            ConvAlgorithm::Direct,
            None,
            (2, 2),
        )
        .unwrap();
        assert!(layer.reference_fallback().is_none());
    }

    #[test]
    fn add_layer_fused_relu() {
        let layer = AddLayer::new("a", Some(Activation::Relu));
        let x = Tensor::from_vec(vec![-5.0, 1.0], &[2]).unwrap();
        let y = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let out = run_to(&layer, &[&x, &y], &[2]).unwrap();
        assert_eq!(out.as_slice(), &[0.0, 2.0]);
        assert!(layer.implementation().contains("relu"));
    }

    #[test]
    fn concat_layer_checks_arity() {
        let layer = ConcatLayer::new("cat", 2);
        let t = Tensor::ones(&[1, 1, 2, 2]);
        assert!(run_to(&layer, &[&t], &[1, 2, 2, 2]).is_err());
        let out = run_to(&layer, &[&t, &t], &[1, 2, 2, 2]).unwrap();
        assert_eq!(out.dims(), &[1, 2, 2, 2]);
    }

    #[test]
    fn flatten_and_reshape() {
        let t = Tensor::from_fn(&[1, 2, 2, 2], |i| i as f32);
        let flat = run_to(&FlattenLayer::new("f"), &[&t], &[1, 8]).unwrap();
        assert_eq!(flat.as_slice(), t.as_slice());
        let rs = run_to(&ReshapeLayer::new("r"), &[&t], &[2, 4]).unwrap();
        assert_eq!(rs.as_slice(), t.as_slice());
        assert!(run_to(&ReshapeLayer::new("r"), &[&t], &[3, 3]).is_err());
    }

    #[test]
    fn identity_passes_through() {
        let t = Tensor::from_fn(&[4], |i| i as f32);
        let out = run_to(&IdentityLayer::new("i"), &[&t], &[4]).unwrap();
        assert_eq!(out, t);
    }

    #[test]
    fn dense_layer_runs() {
        let layer = DenseLayer::new(
            "fc",
            Tensor::ones(&[2, 3]),
            Some(Tensor::zeros(&[2])),
            GemmKernel::Packed,
            None,
        )
        .unwrap();
        let out = run_to(&layer, &[&Tensor::ones(&[1, 3])], &[1, 2]).unwrap();
        assert_eq!(out.as_slice(), &[3.0, 3.0]);
        assert_eq!(layer.flops(), 12);
    }

    #[test]
    fn pool_layers_run() {
        let t = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
        let p = PoolLayer::new("p", Pool2dParams::max(2, 2));
        assert_eq!(
            run_to(&p, &[&t], &[1, 1, 2, 2]).unwrap().as_slice(),
            &[5.0, 7.0, 13.0, 15.0]
        );
        let g = GlobalPoolLayer::new("g");
        assert_eq!(run_to(&g, &[&t], &[1, 1, 1, 1]).unwrap().as_slice(), &[7.5]);
    }

    #[test]
    fn pad_and_reduce_mean_layers_write_in_place() {
        let t = Tensor::ones(&[1, 1, 2, 2]);
        let pad = PadLayer::new("p", vec![0, 0, 1, 1], vec![0, 0, 1, 1], 0.0);
        let padded = run_to(&pad, &[&t], &[1, 1, 4, 4]).unwrap();
        assert_eq!(padded.sum(), 4.0);
        assert!(run_to(&pad, &[&t], &[1, 1, 3, 3]).is_err());
        let mean = ReduceMeanLayer::new("m", vec![], false);
        let x = Tensor::from_fn(&[2, 2], |i| i as f32);
        assert_eq!(run_to(&mean, &[&x], &[]).unwrap().as_slice(), &[1.5]);
    }
}
