//! Element-wise binary operators (residual connections and friends).

use orpheus_tensor::{ShapeError, Tensor};

use crate::activation::Activation;
use crate::error::OpError;

/// Which element-wise binary operation to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `a + b` — residual additions in ResNet/WRN.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
}

/// Applies a binary operation over two same-shaped tensors, writing into a
/// preallocated output tensor of the inputs' dims.
///
/// # Errors
///
/// Returns [`OpError::Shape`] if the input or output shapes differ.
pub fn binary_into(
    op: BinaryOp,
    a: &Tensor,
    b: &Tensor,
    output: &mut Tensor,
) -> Result<(), OpError> {
    check_shapes(a, b, output)?;
    let f = match op {
        BinaryOp::Add => |x: f32, y: f32| x + y,
        BinaryOp::Sub => |x: f32, y: f32| x - y,
        BinaryOp::Mul => |x: f32, y: f32| x * y,
    };
    for ((o, &x), &y) in output
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *o = f(x, y);
    }
    Ok(())
}

/// Fused `activation(a + b)` — the shape of every ResNet block join —
/// writing into a preallocated output tensor. Runs in one pass over the
/// output.
///
/// # Errors
///
/// Returns [`OpError::Shape`] if the input or output shapes differ.
pub fn add_activate_into(
    a: &Tensor,
    b: &Tensor,
    act: Activation,
    output: &mut Tensor,
) -> Result<(), OpError> {
    check_shapes(a, b, output)?;
    for ((o, &x), &y) in output
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *o = act.apply(x + y);
    }
    Ok(())
}

/// Requires `a`, `b` and `output` to share one shape.
fn check_shapes(a: &Tensor, b: &Tensor, output: &Tensor) -> Result<(), OpError> {
    for (left, right) in [(a, b), (output, a)] {
        if left.shape() != right.shape() {
            return Err(ShapeError::Mismatch {
                left: left.dims().to_vec(),
                right: right.dims().to_vec(),
            }
            .into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    fn binary(op: BinaryOp, a: &Tensor, b: &Tensor) -> Result<Tensor, OpError> {
        let mut out = Tensor::zeros(a.dims());
        binary_into(op, a, b, &mut out)?;
        Ok(out)
    }

    fn add_activate(a: &Tensor, b: &Tensor, act: Activation) -> Result<Tensor, OpError> {
        let mut out = Tensor::zeros(a.dims());
        add_activate_into(a, b, act, &mut out)?;
        Ok(out)
    }

    #[test]
    fn add_sub_mul() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[10.0, -1.0]);
        assert_eq!(
            binary(BinaryOp::Add, &a, &b).unwrap().as_slice(),
            &[11.0, 1.0]
        );
        assert_eq!(
            binary(BinaryOp::Sub, &a, &b).unwrap().as_slice(),
            &[-9.0, 3.0]
        );
        assert_eq!(
            binary(BinaryOp::Mul, &a, &b).unwrap().as_slice(),
            &[10.0, -2.0]
        );
    }

    #[test]
    fn shape_mismatch_rejected() {
        assert!(binary(BinaryOp::Add, &Tensor::zeros(&[2]), &Tensor::zeros(&[3])).is_err());
        assert!(
            add_activate(&Tensor::zeros(&[2]), &Tensor::zeros(&[3]), Activation::Relu).is_err()
        );
        let mut out = Tensor::zeros(&[3]);
        let two = Tensor::zeros(&[2]);
        assert!(binary_into(BinaryOp::Add, &two, &two, &mut out).is_err());
        assert!(add_activate_into(&two, &two, Activation::Relu, &mut out).is_err());
    }

    #[test]
    fn fused_add_relu_matches_unfused() {
        let a = t(&[1.0, -5.0, 2.0]);
        let b = t(&[1.0, 2.0, -9.0]);
        let fused = add_activate(&a, &b, Activation::Relu).unwrap();
        let mut unfused = binary(BinaryOp::Add, &a, &b).unwrap();
        Activation::Relu.apply_slice(unfused.as_mut_slice());
        assert_eq!(fused, unfused);
        assert_eq!(fused.as_slice(), &[2.0, 0.0, 0.0]);
    }

    #[test]
    fn add_commutes() {
        let a = t(&[1.5, 2.5]);
        let b = t(&[0.5, -2.5]);
        assert_eq!(
            binary(BinaryOp::Add, &a, &b).unwrap(),
            binary(BinaryOp::Add, &b, &a).unwrap()
        );
    }
}
