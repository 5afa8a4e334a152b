//! Element-wise activation functions.

use orpheus_tensor::Tensor;

/// An element-wise activation.
///
/// Activations can run standalone or be fused into the producing layer's
/// output write-back (see `Conv2d::with_activation`), which is what the
/// graph simplifier's fusion pass arranges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// `max(0, x)`.
    Relu,
    /// `min(max(0, x), 6)` — MobileNet's clipped ReLU.
    Relu6,
    /// Generic clip to `[lo, hi]` (ONNX `Clip`).
    Clip {
        /// Lower bound.
        lo: f32,
        /// Upper bound.
        hi: f32,
    },
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// `x if x > 0 else alpha * x`.
    LeakyRelu {
        /// Negative-slope coefficient.
        alpha: f32,
    },
}

impl Activation {
    /// Applies the activation to one value.
    pub fn apply(&self, x: f32) -> f32 {
        match *self {
            Activation::Relu => x.max(0.0),
            Activation::Relu6 => x.clamp(0.0, 6.0),
            Activation::Clip { lo, hi } => x.clamp(lo, hi),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::LeakyRelu { alpha } => {
                if x > 0.0 {
                    x
                } else {
                    alpha * x
                }
            }
        }
    }

    /// Applies the activation to every element of a slice, in place.
    pub fn apply_slice(&self, data: &mut [f32]) {
        // Monomorphized per variant so the simple clamps vectorize.
        match *self {
            Activation::Relu => {
                for x in data {
                    *x = x.max(0.0);
                }
            }
            Activation::Relu6 => {
                for x in data {
                    *x = x.clamp(0.0, 6.0);
                }
            }
            _ => {
                for x in data {
                    *x = self.apply(*x);
                }
            }
        }
    }

    /// Applies the activation into a preallocated output tensor of the
    /// input's dims.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ (the copy is length-checked).
    pub fn run_into(&self, input: &Tensor, output: &mut Tensor) {
        output.as_mut_slice().copy_from_slice(input.as_slice());
        self.apply_slice(output.as_mut_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(act: Activation, input: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(input.dims());
        act.run_into(input, &mut out);
        out
    }

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        assert_eq!(run(Activation::Relu, &t).as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu6_clamps_both_sides() {
        let t = Tensor::from_vec(vec![-1.0, 3.0, 9.0], &[3]).unwrap();
        assert_eq!(run(Activation::Relu6, &t).as_slice(), &[0.0, 3.0, 6.0]);
    }

    #[test]
    fn clip_generic_bounds() {
        let a = Activation::Clip { lo: -2.0, hi: 2.0 };
        assert_eq!(a.apply(-5.0), -2.0);
        assert_eq!(a.apply(5.0), 2.0);
        assert_eq!(a.apply(1.0), 1.0);
    }

    #[test]
    fn sigmoid_midpoint_and_saturation() {
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert!(Activation::Sigmoid.apply(20.0) > 0.999);
        assert!(Activation::Sigmoid.apply(-20.0) < 0.001);
    }

    #[test]
    fn tanh_is_odd() {
        let a = Activation::Tanh;
        assert!((a.apply(1.3) + a.apply(-1.3)).abs() < 1e-6);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let a = Activation::LeakyRelu { alpha: 0.1 };
        assert_eq!(a.apply(5.0), 5.0);
        assert!((a.apply(-5.0) + 0.5).abs() < 1e-6);
    }

    #[test]
    fn slice_path_matches_scalar_path() {
        let vals: Vec<f32> = (-10..10).map(|x| x as f32 * 0.7).collect();
        for act in [
            Activation::Relu,
            Activation::Relu6,
            Activation::Sigmoid,
            Activation::Tanh,
        ] {
            let mut slice = vals.clone();
            act.apply_slice(&mut slice);
            for (s, &v) in slice.iter().zip(&vals) {
                assert_eq!(*s, act.apply(v));
            }
        }
    }
}
