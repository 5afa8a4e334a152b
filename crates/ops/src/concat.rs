//! Channel concatenation (Inception branch joins).

use orpheus_tensor::{ShapeError, Tensor};

use crate::error::OpError;

/// Concatenates NCHW tensors along the channel axis into a preallocated
/// output tensor.
///
/// All inputs must share batch and spatial dims. This is the join at the end
/// of every Inception module.
///
/// # Errors
///
/// Returns [`OpError::InvalidParams`] for an empty input list and
/// [`OpError::Shape`] for rank or dimension mismatches, or if `output` does
/// not have the concatenated dims.
pub fn concat_channels_into(inputs: &[&Tensor], output: &mut Tensor) -> Result<(), OpError> {
    let (n, total_c, h, w) = concat_dims(inputs)?;
    if output.dims() != [n, total_c, h, w] {
        return Err(ShapeError::Mismatch {
            left: output.dims().to_vec(),
            right: vec![n, total_c, h, w],
        }
        .into());
    }
    let plane = h * w;
    let out_data = output.as_mut_slice();
    for img in 0..n {
        let mut c_off = 0;
        for t in inputs {
            let c = t.dims()[1];
            let src = &t.as_slice()[img * c * plane..(img + 1) * c * plane];
            let dst = &mut out_data[(img * total_c + c_off) * plane..][..c * plane];
            dst.copy_from_slice(src);
            c_off += c;
        }
    }
    Ok(())
}

/// Validates the concat inputs and returns the `[n, total_c, h, w]` dims.
fn concat_dims(inputs: &[&Tensor]) -> Result<(usize, usize, usize, usize), OpError> {
    let first = inputs
        .first()
        .ok_or_else(|| OpError::InvalidParams("concat needs at least one input".into()))?;
    if first.dims().len() != 4 {
        return Err(ShapeError::RankMismatch {
            expected: 4,
            actual: first.dims().len(),
        }
        .into());
    }
    let [n, _, h, w] = [
        first.dims()[0],
        first.dims()[1],
        first.dims()[2],
        first.dims()[3],
    ];
    let mut total_c = 0;
    for t in inputs {
        let d = t.dims();
        if d.len() != 4 || d[0] != n || d[2] != h || d[3] != w {
            return Err(ShapeError::Mismatch {
                left: d.to_vec(),
                right: first.dims().to_vec(),
            }
            .into());
        }
        total_c += d[1];
    }
    Ok((n, total_c, h, w))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn concat_channels(inputs: &[&Tensor]) -> Result<Tensor, OpError> {
        let (n, total_c, h, w) = concat_dims(inputs)?;
        let mut out = Tensor::zeros(&[n, total_c, h, w]);
        concat_channels_into(inputs, &mut out)?;
        Ok(out)
    }

    #[test]
    fn concat_two_tensors() {
        let a = Tensor::full(&[1, 1, 2, 2], 1.0);
        let b = Tensor::full(&[1, 2, 2, 2], 2.0);
        let out = concat_channels(&[&a, &b]).unwrap();
        assert_eq!(out.dims(), &[1, 3, 2, 2]);
        assert_eq!(out.plane(0, 0).unwrap(), &[1.0; 4]);
        assert_eq!(out.plane(0, 1).unwrap(), &[2.0; 4]);
        assert_eq!(out.plane(0, 2).unwrap(), &[2.0; 4]);
    }

    #[test]
    fn single_input_is_identity() {
        let a = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        assert_eq!(concat_channels(&[&a]).unwrap(), a);
    }

    #[test]
    fn batched_interleaving_is_per_image() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2, 1, 1, 1]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2, 1, 1, 1]).unwrap();
        let out = concat_channels(&[&a, &b]).unwrap();
        assert_eq!(out.as_slice(), &[1.0, 10.0, 2.0, 20.0]);
    }

    #[test]
    fn rejects_spatial_mismatch() {
        let a = Tensor::zeros(&[1, 1, 2, 2]);
        let b = Tensor::zeros(&[1, 1, 3, 3]);
        assert!(concat_channels(&[&a, &b]).is_err());
    }

    #[test]
    fn rejects_batch_mismatch() {
        let a = Tensor::zeros(&[1, 1, 2, 2]);
        let b = Tensor::zeros(&[2, 1, 2, 2]);
        assert!(concat_channels(&[&a, &b]).is_err());
    }

    #[test]
    fn rejects_empty_and_low_rank() {
        assert!(concat_channels(&[]).is_err());
        let a = Tensor::zeros(&[4]);
        assert!(concat_channels(&[&a]).is_err());
    }

    #[test]
    fn rejects_wrong_output_dims() {
        let a = Tensor::zeros(&[1, 1, 2, 2]);
        let mut out = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(matches!(
            concat_channels_into(&[&a, &a], &mut out),
            Err(OpError::Shape(_))
        ));
    }

    #[test]
    fn four_way_inception_join() {
        let parts: Vec<Tensor> = [3usize, 5, 7, 2]
            .iter()
            .map(|&c| Tensor::full(&[1, c, 4, 4], c as f32))
            .collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        let out = concat_channels(&refs).unwrap();
        assert_eq!(out.dims(), &[1, 17, 4, 4]);
        assert_eq!(out.plane(0, 3).unwrap(), &[5.0; 16]);
        assert_eq!(out.plane(0, 16).unwrap(), &[2.0; 16]);
    }
}
