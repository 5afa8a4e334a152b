//! Axis reductions.
//!
//! Many training frameworks export global average pooling as
//! `ReduceMean(axes=[2,3])`; supporting the general reduction keeps such
//! models loadable without special-casing the exporter.

use orpheus_tensor::{ShapeError, Tensor};

use crate::error::OpError;

/// Mean over the given axes, writing into a preallocated output tensor.
///
/// With `keepdims`, reduced axes stay in the output shape with extent 1
/// (ONNX's default); otherwise they are removed (a full reduction then
/// yields a rank-0 scalar tensor).
///
/// # Errors
///
/// Returns [`OpError::InvalidParams`] for repeated or out-of-range axes, and
/// [`OpError::Shape`] for an empty input or if `output` does not have the
/// reduced dims.
pub fn reduce_mean_into(
    input: &Tensor,
    axes: &[usize],
    keepdims: bool,
    output: &mut Tensor,
) -> Result<(), OpError> {
    let in_dims = input.dims();
    let rank = in_dims.len();
    let mut reduce = vec![false; rank];
    for &a in axes {
        if a >= rank {
            return Err(OpError::InvalidParams(format!(
                "axis {a} out of range for rank {rank}"
            )));
        }
        if reduce[a] {
            return Err(OpError::InvalidParams(format!("axis {a} repeated")));
        }
        reduce[a] = true;
    }
    if input.is_empty() {
        return Err(ShapeError::ElementCountMismatch {
            expected: 1,
            actual: 0,
        }
        .into());
    }
    let out_dims: Vec<usize> = (0..rank)
        .filter(|&d| keepdims || !reduce[d])
        .map(|d| if reduce[d] { 1 } else { in_dims[d] })
        .collect();
    if output.dims() != out_dims {
        return Err(ShapeError::Mismatch {
            left: output.dims().to_vec(),
            right: out_dims,
        }
        .into());
    }
    let reduce_count: usize = (0..rank)
        .filter(|&d| reduce[d])
        .map(|d| in_dims[d])
        .product::<usize>()
        .max(1);
    // Output stride of each input axis (0 for reduced axes): kept and
    // keepdims layouts are the same row-major order over the kept axes.
    let mut out_strides = vec![0usize; rank];
    let mut stride = 1usize;
    for d in (0..rank).rev() {
        if !reduce[d] {
            out_strides[d] = stride;
            stride *= in_dims[d];
        }
    }
    let in_strides = input.shape().strides();
    let sums = output.as_mut_slice();
    sums.fill(0.0);
    // Walk every element once, scattering into its kept-coordinates bucket.
    for (flat, &x) in input.as_slice().iter().enumerate() {
        let out_idx: usize = (0..rank)
            .map(|d| (flat / in_strides[d]) % in_dims[d] * out_strides[d])
            .sum();
        sums[out_idx] += x;
    }
    for s in sums {
        *s /= reduce_count as f32;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reduce_mean(input: &Tensor, axes: &[usize], keepdims: bool) -> Result<Tensor, OpError> {
        let dims: Vec<usize> = input
            .dims()
            .iter()
            .enumerate()
            .filter(|(d, _)| keepdims || !axes.contains(d))
            .map(|(d, &n)| if axes.contains(&d) { 1 } else { n })
            .collect();
        let mut out = Tensor::zeros(&dims);
        reduce_mean_into(input, axes, keepdims, &mut out)?;
        Ok(out)
    }

    #[test]
    fn mean_over_last_axis() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[2, 2]).unwrap();
        let out = reduce_mean(&t, &[1], false).unwrap();
        assert_eq!(out.dims(), &[2]);
        assert_eq!(out.as_slice(), &[2.0, 6.0]);
    }

    #[test]
    fn keepdims_preserves_rank() {
        let t = Tensor::ones(&[2, 3, 4]);
        let out = reduce_mean(&t, &[1], true).unwrap();
        assert_eq!(out.dims(), &[2, 1, 4]);
    }

    #[test]
    fn spatial_reduce_matches_global_average_pool() {
        use crate::pool::global_average_pool_into;
        use orpheus_threads::ThreadPool;
        let t = Tensor::from_fn(&[2, 3, 4, 4], |i| ((i * 31) % 17) as f32);
        let mut gap = Tensor::zeros(&[2, 3, 1, 1]);
        global_average_pool_into(&t, &mut gap, &ThreadPool::single()).unwrap();
        let rm = reduce_mean(&t, &[2, 3], true).unwrap();
        assert_eq!(rm.dims(), &[2, 3, 1, 1]);
        for (a, b) in rm.as_slice().iter().zip(gap.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn full_reduction_yields_scalar() {
        let t = Tensor::from_vec(vec![2.0, 4.0, 6.0], &[3]).unwrap();
        let out = reduce_mean(&t, &[0], false).unwrap();
        assert_eq!(out.dims(), &[] as &[usize]);
        assert_eq!(out.as_slice(), &[4.0]);
    }

    #[test]
    fn empty_axes_is_identity_mean() {
        let t = Tensor::from_fn(&[2, 2], |i| i as f32);
        let out = reduce_mean(&t, &[], false).unwrap();
        assert_eq!(out, t);
    }

    #[test]
    fn rejects_bad_axes() {
        let t = Tensor::ones(&[2, 2]);
        assert!(reduce_mean(&t, &[2], false).is_err());
        assert!(reduce_mean(&t, &[0, 0], false).is_err());
    }

    #[test]
    fn rejects_empty_tensor() {
        let t = Tensor::zeros(&[0, 3]);
        assert!(reduce_mean(&t, &[0], false).is_err());
    }

    #[test]
    fn rejects_wrong_output_dims() {
        let t = Tensor::ones(&[2, 3, 4]);
        // keepdims wants [2, 1, 4]; the dropped-axis shape is not accepted.
        let mut out = Tensor::zeros(&[2, 4]);
        let err = reduce_mean_into(&t, &[1], true, &mut out).unwrap_err();
        assert!(matches!(err, OpError::Shape(_)), "{err}");
        let mut out = Tensor::zeros(&[2, 3]);
        let err = reduce_mean_into(&t, &[1], false, &mut out).unwrap_err();
        assert!(matches!(err, OpError::Shape(_)), "{err}");
    }
}
