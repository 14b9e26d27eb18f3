//! Dense `f32` tensor substrate for the SESR adversarial-defense reproduction.
//!
//! This crate provides the numerical foundation used by every other crate in the
//! workspace: an owned, contiguous, row-major [`Tensor`] with an NCHW-oriented
//! convolution toolkit (a direct register-blocked dense convolution forward,
//! im2col/col2im for its backward pass, direct depthwise convolution),
//! pooling, resampling, padding, and the shape bookkeeping needed to implement
//! both the super-resolution networks and the classifiers of the paper
//! *Super-Efficient Super Resolution for Fast Adversarial Defense at the Edge*
//! (DATE 2022).
//!
//! The design goal is correctness and clarity: kernels are safe-Rust loops
//! over contiguous buffers. The exception is the dense convolution forward
//! ([`conv::conv2d_arena`]), which every served SR layer runs: it accumulates
//! tiles of output channels × output columns in fixed-size arrays that the
//! compiler vectorizes, and sums each output in the same order as the
//! im2col + matmul lowering, so it is bitwise identical to it.
//!
//! The one concession to the serving hot path is memory traffic: the
//! [`arena`] module provides [`TensorArena`], a pooled scratch allocator,
//! and every hot kernel has an arena-backed variant (`conv2d_arena`,
//! `resize_arena`, `concat_batch_arena`, …) whose intermediates and output
//! buffers are drawn from — and recycled into — an arena. The allocating
//! APIs are thin wrappers over the arena path, so both compute bitwise-
//! identical results; a warmed-up arena serves repeated calls with zero
//! heap allocations. [`Shape`] stores its dimensions inline for the same
//! reason. See `ARCHITECTURE.md` at the repository root for how the serving
//! workers in `sesr-serve` use this.
//!
//! # Example
//!
//! ```
//! use sesr_tensor::{Shape, Tensor};
//!
//! let a = Tensor::from_vec(Shape::new(&[2, 3]), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
//! let b = Tensor::full(Shape::new(&[2, 3]), 0.5);
//! let sum = a.add(&b)?;
//! assert_eq!(sum.get(&[1, 2]), 6.5);
//! # Ok::<(), sesr_tensor::TensorError>(())
//! ```
//!
//! # Example: arena-backed convolution
//!
//! ```
//! use sesr_tensor::conv::{conv2d, conv2d_arena, Conv2dConfig};
//! use sesr_tensor::{Shape, Tensor, TensorArena};
//!
//! let input = Tensor::full(Shape::new(&[1, 3, 8, 8]), 0.5);
//! let weight = Tensor::full(Shape::new(&[4, 3, 3, 3]), 0.1);
//! let cfg = Conv2dConfig::same(3);
//!
//! let mut arena = TensorArena::new();
//! let expected = conv2d(&input, &weight, None, cfg)?;
//! for _ in 0..3 {
//!     let out = conv2d_arena(&input, &weight, None, cfg, &mut arena)?;
//!     assert_eq!(out, expected); // identical numerics
//!     arena.recycle(out);       // reuse the buffers on the next call
//! }
//! assert!(arena.stats().hits > arena.stats().misses);
//! # Ok::<(), sesr_tensor::TensorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod conv;
pub mod error;
pub mod init;
pub mod ops;
pub mod pool;
pub mod resample;
pub mod shape;
pub mod tensor;

pub use arena::{ArenaStats, TensorArena};
pub use error::TensorError;
pub use shape::{Shape, MAX_RANK};
pub use tensor::Tensor;

/// Convenience result alias used throughout the tensor crate.
pub type Result<T> = std::result::Result<T, TensorError>;
