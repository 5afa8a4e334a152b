//! Neural-network operators for Orpheus, each with multiple interchangeable
//! algorithms.
//!
//! The paper's core design point is that *layers are first-class citizens and
//! have multiple implementations which are selected at runtime*. This crate
//! is where those implementations live:
//!
//! * **Convolution** ([`conv`]) ships six algorithm families — naive direct
//!   (`darknet-sim`'s class), im2col+GEMM at three GEMM tiers with a
//!   pointwise fast path (`orpheus`), an eager always-materialize im2col
//!   variant (`pytorch-sim`), TVM-style spatial packing (`tvm-sim`),
//!   Winograd F(2×2, 3×3), and two depthwise strategies (a specialized
//!   direct kernel and the deliberately inefficient grouped-GEMM path the
//!   paper observes in PyTorch).
//! * **Dense**, **pooling**, **batch-norm**, **activations**, **softmax**,
//!   **element-wise**, **concat**, **pad** and **reduce** cover the
//!   remainder of the five evaluation models and common exporter patterns.
//!
//! Every algorithm is validated against a reference implementation in this
//! crate's test suite, mirroring the paper's "suite of unit tests to ensure
//! correctness of all operations".
//!
//! # Examples
//!
//! ```
//! use orpheus_ops::conv::{Conv2d, Conv2dParams, ConvAlgorithm};
//! use orpheus_tensor::Tensor;
//! use orpheus_threads::ThreadPool;
//!
//! let params = Conv2dParams::square(3, 8, 3).with_padding(1, 1);
//! let weight = Tensor::ones(&[8, 3, 3, 3]);
//! let conv = Conv2d::new(params, weight, None, ConvAlgorithm::default()).unwrap();
//! let input = Tensor::ones(&[1, 3, 16, 16]);
//! let out = conv.run(&input, &ThreadPool::single()).unwrap();
//! assert_eq!(out.dims(), &[1, 8, 16, 16]);
//! ```

#![forbid(unsafe_code)]

pub mod activation;
pub mod concat;
pub mod conv;
pub mod dense;
pub mod elementwise;
mod error;
pub mod norm;
pub mod pad;
pub mod pool;
pub mod reduce;
pub mod softmax;

pub use error::OpError;
