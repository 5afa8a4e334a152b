//! Inference-time batch normalization.

use orpheus_tensor::{ShapeError, Tensor};

use crate::error::OpError;

/// Batch normalization in inference mode:
/// `y = scale * (x - mean) / sqrt(var + eps) + shift`, per channel.
///
/// The graph simplifier folds this into a preceding convolution whenever
/// possible; the standalone operator remains for unfused graphs and for the
/// `graph_simplify` ablation bench.
#[derive(Debug, Clone)]
pub struct BatchNorm {
    /// Per-channel multiplier, pre-divided by `sqrt(var + eps)`.
    alpha: Vec<f32>,
    /// Per-channel offset: `shift - mean * alpha`.
    beta: Vec<f32>,
}

impl BatchNorm {
    /// Creates a batch-norm layer from the four ONNX parameter tensors.
    ///
    /// # Errors
    ///
    /// Returns [`OpError::Shape`] if the four tensors are not all rank-1 of
    /// equal length, or [`OpError::InvalidParams`] if `eps` is not positive.
    pub fn new(
        scale: &Tensor,
        shift: &Tensor,
        mean: &Tensor,
        var: &Tensor,
        eps: f32,
    ) -> Result<Self, OpError> {
        let c = scale.len();
        for t in [scale, shift, mean, var] {
            if t.dims().len() != 1 || t.len() != c {
                return Err(ShapeError::Mismatch {
                    left: t.dims().to_vec(),
                    right: vec![c],
                }
                .into());
            }
        }
        if eps.is_nan() || eps <= 0.0 {
            return Err(OpError::InvalidParams(format!(
                "batchnorm eps must be positive, got {eps}"
            )));
        }
        let mut alpha = Vec::with_capacity(c);
        let mut beta = Vec::with_capacity(c);
        for i in 0..c {
            let a = scale.as_slice()[i] / (var.as_slice()[i] + eps).sqrt();
            alpha.push(a);
            beta.push(shift.as_slice()[i] - mean.as_slice()[i] * a);
        }
        Ok(BatchNorm { alpha, beta })
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.alpha.len()
    }

    /// The folded per-channel `(alpha, beta)` coefficients, exposed so the
    /// graph simplifier can fold them into convolution weights.
    pub fn coefficients(&self) -> (&[f32], &[f32]) {
        (&self.alpha, &self.beta)
    }

    /// Applies normalization to an NCHW tensor, writing into a preallocated
    /// output tensor of the input's dims.
    ///
    /// # Errors
    ///
    /// Returns [`OpError::Shape`] on a rank, channel or output dims mismatch.
    pub fn run_into(&self, input: &Tensor, output: &mut Tensor) -> Result<(), OpError> {
        if input.dims().len() != 4 {
            return Err(ShapeError::RankMismatch {
                expected: 4,
                actual: input.dims().len(),
            }
            .into());
        }
        let [n, c, h, w] = [
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        ];
        if c != self.channels() {
            return Err(ShapeError::Mismatch {
                left: vec![c],
                right: vec![self.channels()],
            }
            .into());
        }
        if output.dims() != input.dims() {
            return Err(ShapeError::Mismatch {
                left: output.dims().to_vec(),
                right: input.dims().to_vec(),
            }
            .into());
        }
        output.as_mut_slice().copy_from_slice(input.as_slice());
        let plane = h * w;
        let data = output.as_mut_slice();
        for img in 0..n {
            for ch in 0..c {
                let (a, b) = (self.alpha[ch], self.beta[ch]);
                for x in &mut data[(img * c + ch) * plane..][..plane] {
                    *x = a * *x + b;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bn(scale: &[f32], shift: &[f32], mean: &[f32], var: &[f32]) -> BatchNorm {
        BatchNorm::new(
            &Tensor::from_vec(scale.to_vec(), &[scale.len()]).unwrap(),
            &Tensor::from_vec(shift.to_vec(), &[shift.len()]).unwrap(),
            &Tensor::from_vec(mean.to_vec(), &[mean.len()]).unwrap(),
            &Tensor::from_vec(var.to_vec(), &[var.len()]).unwrap(),
            1e-5,
        )
        .unwrap()
    }

    fn run(b: &BatchNorm, input: &Tensor) -> Result<Tensor, OpError> {
        let mut out = Tensor::zeros(input.dims());
        b.run_into(input, &mut out)?;
        Ok(out)
    }

    #[test]
    fn identity_params_pass_through() {
        let b = bn(&[1.0], &[0.0], &[0.0], &[1.0]);
        let x = Tensor::from_vec(vec![2.0, -3.0], &[1, 1, 1, 2]).unwrap();
        let y = run(&b, &x).unwrap();
        for (a, e) in y.as_slice().iter().zip(x.as_slice()) {
            assert!((a - e).abs() < 1e-4);
        }
    }

    #[test]
    fn normalizes_known_statistics() {
        // x=5, mean=3, var=4, scale=2, shift=1: y = 2*(5-3)/2 + 1 = 3.
        let b = bn(&[2.0], &[1.0], &[3.0], &[4.0]);
        let x = Tensor::full(&[1, 1, 1, 1], 5.0);
        let y = run(&b, &x).unwrap();
        assert!((y.as_slice()[0] - 3.0).abs() < 1e-4);
    }

    #[test]
    fn per_channel_independence() {
        let b = bn(&[1.0, 10.0], &[0.0, 0.0], &[0.0, 0.0], &[1.0, 1.0]);
        let x = Tensor::ones(&[1, 2, 1, 1]);
        let y = run(&b, &x).unwrap();
        assert!((y.as_slice()[0] - 1.0).abs() < 1e-4);
        assert!((y.as_slice()[1] - 10.0).abs() < 1e-3);
    }

    #[test]
    fn rejects_channel_mismatch() {
        let b = bn(&[1.0], &[0.0], &[0.0], &[1.0]);
        assert!(run(&b, &Tensor::zeros(&[1, 2, 1, 1])).is_err());
        assert!(run(&b, &Tensor::zeros(&[4])).is_err());
        let mut out = Tensor::zeros(&[1, 1, 1, 2]);
        assert!(b.run_into(&Tensor::zeros(&[1, 1, 1, 1]), &mut out).is_err());
    }

    #[test]
    fn rejects_mismatched_params() {
        let ok = Tensor::zeros(&[2]);
        let bad = Tensor::zeros(&[3]);
        assert!(BatchNorm::new(&ok, &ok, &ok, &bad, 1e-5).is_err());
    }

    #[test]
    fn rejects_nonpositive_eps() {
        let t = Tensor::ones(&[1]);
        assert!(BatchNorm::new(&t, &t, &t, &t, 0.0).is_err());
        assert!(BatchNorm::new(&t, &t, &t, &t, f32::NAN).is_err());
    }

    #[test]
    fn coefficients_fold_correctly() {
        let b = bn(&[2.0], &[1.0], &[3.0], &[4.0]);
        let (alpha, beta) = b.coefficients();
        assert!((alpha[0] - 1.0).abs() < 1e-4); // 2/sqrt(4)
        assert!((beta[0] + 2.0).abs() < 1e-4); // 1 - 3*1
    }
}
