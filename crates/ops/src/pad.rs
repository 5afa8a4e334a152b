//! Constant padding.
//!
//! Real ONNX exports frequently carry explicit `Pad` nodes (exporters emit
//! them when a framework's "same" padding does not map onto symmetric conv
//! padding). Orpheus supports them two ways: this standalone operator, and
//! the `pad-fold` graph pass that absorbs zero-padding into a following
//! convolution.

use orpheus_tensor::{ShapeError, Tensor};

use crate::error::OpError;

/// Pads a tensor with a constant, `begins[d]` elements before and
/// `ends[d]` after each dimension `d`, writing into a preallocated output
/// tensor of the padded dims.
///
/// # Errors
///
/// Returns [`OpError::Shape`] if `begins`/`ends` do not have one entry per
/// dimension, or if `output` does not have the padded dims.
pub fn pad_constant_into(
    input: &Tensor,
    begins: &[usize],
    ends: &[usize],
    value: f32,
    output: &mut Tensor,
) -> Result<(), OpError> {
    let in_dims = input.dims();
    let rank = in_dims.len();
    if begins.len() != rank || ends.len() != rank {
        return Err(ShapeError::RankMismatch {
            expected: rank,
            actual: begins.len().max(ends.len()),
        }
        .into());
    }
    let padded = |d: usize| in_dims[d] + begins[d] + ends[d];
    if output.dims().len() != rank || (0..rank).any(|d| output.dims()[d] != padded(d)) {
        return Err(ShapeError::Mismatch {
            left: output.dims().to_vec(),
            right: (0..rank).map(padded).collect(),
        }
        .into());
    }
    let out_data = output.as_mut_slice();
    out_data.fill(value);
    if input.is_empty() {
        return Ok(());
    }
    if rank == 0 {
        // Scalar: nothing to pad around.
        out_data.copy_from_slice(input.as_slice());
        return Ok(());
    }
    // Copy the input block row by row (last dimension contiguous).
    let row = in_dims[rank - 1];
    for (r, src) in input.as_slice().chunks(row).enumerate() {
        // Decompose the row index into leading coordinates, innermost first.
        let mut rem = r;
        let mut out_start = begins[rank - 1];
        let mut stride = padded(rank - 1);
        for d in (0..rank - 1).rev() {
            out_start += (rem % in_dims[d] + begins[d]) * stride;
            rem /= in_dims[d];
            stride *= padded(d);
        }
        out_data[out_start..out_start + row].copy_from_slice(src);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pad_constant(
        input: &Tensor,
        begins: &[usize],
        ends: &[usize],
        value: f32,
    ) -> Result<Tensor, OpError> {
        let dims: Vec<usize> = input
            .dims()
            .iter()
            .zip(begins.iter().zip(ends))
            .map(|(&d, (&b, &e))| d + b + e)
            .collect();
        let mut out = Tensor::zeros(&dims);
        pad_constant_into(input, begins, ends, value, &mut out)?;
        Ok(out)
    }

    #[test]
    fn pads_1d() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let out = pad_constant(&t, &[1], &[2], 9.0).unwrap();
        assert_eq!(out.as_slice(), &[9.0, 1.0, 2.0, 9.0, 9.0]);
    }

    #[test]
    fn pads_2d_asymmetric() {
        let t = Tensor::from_fn(&[2, 2], |i| i as f32 + 1.0);
        let out = pad_constant(&t, &[0, 1], &[1, 0], 0.0).unwrap();
        assert_eq!(out.dims(), &[3, 3]);
        assert_eq!(
            out.as_slice(),
            &[0.0, 1.0, 2.0, 0.0, 3.0, 4.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn pads_nchw_spatial() {
        let t = Tensor::ones(&[1, 2, 2, 2]);
        let out = pad_constant(&t, &[0, 0, 1, 1], &[0, 0, 1, 1], 0.0).unwrap();
        assert_eq!(out.dims(), &[1, 2, 4, 4]);
        // Centre 2x2 of each channel is ones, border zeros.
        for c in 0..2 {
            let plane = out.plane(0, c).unwrap();
            assert_eq!(plane.iter().filter(|&&x| x == 1.0).count(), 4);
            assert_eq!(plane[0], 0.0);
            assert_eq!(plane[5], 1.0);
        }
    }

    #[test]
    fn zero_padding_is_identity() {
        let t = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        let out = pad_constant(&t, &[0; 4], &[0; 4], 7.0).unwrap();
        assert_eq!(out, t);
    }

    #[test]
    fn custom_fill_value() {
        let t = Tensor::zeros(&[1, 1]);
        let out = pad_constant(&t, &[1, 1], &[1, 1], -5.0).unwrap();
        assert_eq!(out.sum(), -5.0 * 8.0);
    }

    #[test]
    fn rejects_wrong_rank_spec() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(pad_constant(&t, &[1], &[1, 1], 0.0).is_err());
    }

    #[test]
    fn pads_scalar_is_noop() {
        let t = Tensor::scalar(3.0);
        let out = pad_constant(&t, &[], &[], 0.0).unwrap();
        assert_eq!(out, t);
    }

    #[test]
    fn rejects_wrong_output_dims() {
        let t = Tensor::ones(&[2, 2]);
        let mut out = Tensor::zeros(&[3, 3]);
        let err = pad_constant_into(&t, &[1, 1], &[1, 1], 0.0, &mut out).unwrap_err();
        assert!(matches!(err, OpError::Shape(_)), "{err}");
        let mut low_rank = Tensor::zeros(&[16]);
        let err = pad_constant_into(&t, &[1, 1], &[1, 1], 0.0, &mut low_rank).unwrap_err();
        assert!(matches!(err, OpError::Shape(_)), "{err}");
    }
}
