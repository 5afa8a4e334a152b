//! Numerically-stable softmax.

use orpheus_tensor::{ShapeError, Tensor};

use crate::error::OpError;

/// Softmax along the last axis (the class axis of a classifier head),
/// writing into a preallocated output tensor of the input's dims.
///
/// Uses the max-subtraction trick for numerical stability.
///
/// # Errors
///
/// Returns [`OpError::Shape`] for rank-0 input or an output dims mismatch.
pub fn softmax_into(input: &Tensor, output: &mut Tensor) -> Result<(), OpError> {
    if input.shape().rank() == 0 {
        return Err(ShapeError::RankMismatch {
            expected: 1,
            actual: 0,
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
    let dims = input.dims();
    let row = dims[dims.len() - 1];
    output.as_mut_slice().copy_from_slice(input.as_slice());
    if row == 0 {
        return Ok(());
    }
    for chunk in output.as_mut_slice().chunks_mut(row) {
        let max = chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for x in chunk.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        for x in chunk.iter_mut() {
            *x /= sum;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn softmax(input: &Tensor) -> Result<Tensor, OpError> {
        let mut out = Tensor::zeros(input.dims());
        softmax_into(input, &mut out)?;
        Ok(out)
    }

    #[test]
    fn sums_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let s = softmax(&t).unwrap();
        assert!((s.sum() - 1.0).abs() < 1e-6);
        assert!(s.as_slice().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn uniform_input_uniform_output() {
        let t = Tensor::full(&[4], 7.0);
        let s = softmax(&t).unwrap();
        for &x in s.as_slice() {
            assert!((x - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn stable_under_large_values() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0], &[2]).unwrap();
        let s = softmax(&t).unwrap();
        assert!(s.as_slice().iter().all(|x| x.is_finite()));
        assert!((s.sum() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rows_are_independent() {
        let t = Tensor::from_vec(vec![0.0, 0.0, 100.0, 0.0], &[2, 2]).unwrap();
        let s = softmax(&t).unwrap();
        assert!((s.at(&[0, 0]) - 0.5).abs() < 1e-6);
        assert!(s.at(&[1, 0]) > 0.999);
    }

    #[test]
    fn preserves_argmax() {
        let t = Tensor::from_vec(vec![0.1, 5.0, -2.0, 1.0], &[4]).unwrap();
        let s = softmax(&t).unwrap();
        assert_eq!(s.argmax(), t.argmax());
    }

    #[test]
    fn rejects_scalar() {
        assert!(softmax(&Tensor::scalar(1.0)).is_err());
    }
}
