//! The first-class layer abstraction.

use std::fmt;

use orpheus_tensor::Tensor;
use orpheus_threads::ThreadPool;

use crate::error::EngineError;

/// A runnable network layer — the paper's "first class citizen".
///
/// A `Layer` owns its weights and any implementation-specific pre-packed
/// state; what varies between implementations of the same operator is hidden
/// behind this trait, which is exactly what lets Orpheus swap algorithms at
/// runtime without touching the execution engine.
///
/// The trait is object-safe: the execution plan stores `Box<dyn Layer>`.
pub trait Layer: fmt::Debug + Send + Sync {
    /// Instance name (usually the graph node name).
    fn name(&self) -> &str;

    /// Operator family, e.g. `"Conv"`, `"Dense"`, `"MaxPool"`.
    fn op_name(&self) -> &str;

    /// Human-readable description of the selected implementation,
    /// e.g. `"im2col-gemm(packed)"` or `"vendor:vnnl"`.
    fn implementation(&self) -> String;

    /// Executes the layer into a preallocated output tensor of the planned
    /// output dims — the one layer entry point. The session executor calls
    /// this so inference writes into recycled arena buffers.
    ///
    /// `inputs` are the activation tensors in graph-input order (weights are
    /// layer state, not inputs).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when input shapes do not match the layer or
    /// `output` does not have the layer's output dims.
    fn run_into(
        &self,
        inputs: &[&Tensor],
        output: &mut Tensor,
        pool: &ThreadPool,
    ) -> Result<(), EngineError>;

    /// Floating-point operations per invocation (0 when unknown or
    /// negligible); used by the profiler to report effective GFLOP/s.
    fn flops(&self) -> u64 {
        0
    }

    /// A reference implementation of this layer to run when the selected
    /// implementation fails at execution time, or `None` when the layer has
    /// no slower-but-safer twin (or already *is* the reference).
    ///
    /// The executor calls this lazily — only after a `run_into` failure — so
    /// supporting graceful degradation costs no memory on the happy path.
    fn reference_fallback(&self) -> Option<Box<dyn Layer>> {
        None
    }
}

/// Copies `input`'s storage into `output`, which may carry different dims of
/// the same element count — the view layers' copying execution path.
pub(crate) fn copy_data_into(
    layer: &str,
    input: &Tensor,
    output: &mut Tensor,
) -> Result<(), EngineError> {
    if input.len() != output.len() {
        return Err(EngineError::Execution(format!(
            "layer {layer:?} output has {} element(s) but the plan expects {}",
            input.len(),
            output.len()
        )));
    }
    output.as_mut_slice().copy_from_slice(input.as_slice());
    Ok(())
}

/// Checks the arity of a layer's inputs — shared helper for implementations.
pub(crate) fn expect_inputs<'a>(
    layer: &str,
    inputs: &'a [&'a Tensor],
    expected: usize,
) -> Result<&'a [&'a Tensor], EngineError> {
    if inputs.len() != expected {
        return Err(EngineError::Execution(format!(
            "layer {layer:?} expects {expected} inputs, got {}",
            inputs.len()
        )));
    }
    Ok(inputs)
}

/// Test support: runs `layer` single-threaded into a fresh zeroed output
/// of `dims`.
#[cfg(test)]
pub(crate) fn run_to(
    layer: &dyn Layer,
    inputs: &[&Tensor],
    dims: &[usize],
) -> Result<Tensor, EngineError> {
    let mut out = Tensor::zeros(dims);
    layer.run_into(inputs, &mut out, &ThreadPool::single())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Doubler;
    impl Layer for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
        fn op_name(&self) -> &str {
            "Scale"
        }
        fn implementation(&self) -> String {
            "map".into()
        }
        fn run_into(
            &self,
            inputs: &[&Tensor],
            output: &mut Tensor,
            _pool: &ThreadPool,
        ) -> Result<(), EngineError> {
            let inputs = expect_inputs(self.name(), inputs, 1)?;
            copy_data_into(self.name(), inputs[0], output)?;
            output.as_mut_slice().iter_mut().for_each(|x| *x *= 2.0);
            Ok(())
        }
    }

    #[test]
    fn layer_trait_is_object_safe() {
        let layer: Box<dyn Layer> = Box::new(Doubler);
        let t = Tensor::ones(&[2]);
        let out = run_to(layer.as_ref(), &[&t], &[2]).unwrap();
        assert_eq!(out.as_slice(), &[2.0, 2.0]);
        assert_eq!(layer.flops(), 0);
    }

    #[test]
    fn arity_checked() {
        let t = Tensor::ones(&[1]);
        assert!(run_to(&Doubler, &[&t, &t], &[1]).is_err());
        assert!(run_to(&Doubler, &[], &[1]).is_err());
    }

    #[test]
    fn copy_rejects_element_count_mismatch() {
        let t = Tensor::ones(&[2]);
        assert!(run_to(&Doubler, &[&t], &[3]).is_err());
    }
}
