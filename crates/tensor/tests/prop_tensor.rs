//! Property-based tests on the tensor substrate: algebraic identities and
//! structural invariants that the higher layers (training, attacks, the
//! defense pipeline) implicitly rely on.

use proptest::prelude::*;
use sesr_tensor::conv::{conv2d, im2col, Conv2dConfig};
use sesr_tensor::resample::{depth_to_space, resize, space_to_depth, Interpolation};
use sesr_tensor::{Shape, Tensor};

fn tensor_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, len)
}

/// `len` deterministic values in [-2, 2) from `seed`; when `zeros` is set,
/// about one in five is exactly zero.
fn seeded_values(len: usize, seed: u64, zeros: bool) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if zeros && state.is_multiple_of(5) {
                0.0
            } else {
                (state >> 40) as f32 / (1u64 << 22) as f32 - 2.0
            }
        })
        .collect()
}

/// The im2col + matmul lowering of a convolution: `W · im2col(x)`, with the
/// bias added last and the `[C_out, N·OH·OW]` product laid out as NCHW.
fn conv2d_reference(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dConfig,
) -> Tensor {
    let (n, c_in, h, w) = input.shape().as_nchw().unwrap();
    let c_out = weight.shape().dims()[0];
    let (oh, ow) = cfg.output_size(h, w).unwrap();
    let k = cfg.kernel;
    let w_mat = weight.reshape(Shape::new(&[c_out, c_in * k * k])).unwrap();
    let prod = w_mat.matmul(&im2col(input, cfg).unwrap()).unwrap();
    let spatial = oh * ow;
    let mut out = vec![0.0f32; n * c_out * spatial];
    for b in 0..n {
        for co in 0..c_out {
            let b_val = bias.map_or(0.0, |bt| bt.data()[co]);
            for s in 0..spatial {
                out[(b * c_out + co) * spatial + s] =
                    prod.data()[co * n * spatial + b * spatial + s] + b_val;
            }
        }
    }
    Tensor::from_vec(Shape::new(&[n, c_out, oh, ow]), out).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Elementwise addition is commutative and subtraction is its inverse.
    #[test]
    fn add_commutes_and_sub_inverts(data_a in tensor_strategy(24), data_b in tensor_strategy(24)) {
        let a = Tensor::from_vec(Shape::new(&[2, 3, 2, 2]), data_a).unwrap();
        let b = Tensor::from_vec(Shape::new(&[2, 3, 2, 2]), data_b).unwrap();
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert!(ab.max_abs_diff(&ba).unwrap() < 1e-5);
        let back = ab.sub(&b).unwrap();
        prop_assert!(back.max_abs_diff(&a).unwrap() < 1e-4);
    }

    /// Matrix multiplication distributes over addition: (A+B)C == AC + BC.
    #[test]
    fn matmul_distributes_over_addition(
        a in tensor_strategy(6),
        b in tensor_strategy(6),
        c in tensor_strategy(8),
    ) {
        let a = Tensor::from_vec(Shape::new(&[3, 2]), a).unwrap();
        let b = Tensor::from_vec(Shape::new(&[3, 2]), b).unwrap();
        let c = Tensor::from_vec(Shape::new(&[2, 4]), c).unwrap();
        let lhs = a.add(&b).unwrap().matmul(&c).unwrap();
        let rhs = a.matmul(&c).unwrap().add(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-3);
    }

    /// Transposing twice is the identity, and matmul with the transpose
    /// produces a symmetric Gram matrix.
    #[test]
    fn transpose_involution_and_gram_symmetry(data in tensor_strategy(12)) {
        let a = Tensor::from_vec(Shape::new(&[3, 4]), data).unwrap();
        prop_assert_eq!(a.transpose().unwrap().transpose().unwrap(), a.clone());
        let gram = a.matmul(&a.transpose().unwrap()).unwrap();
        let gram_t = gram.transpose().unwrap();
        prop_assert!(gram.max_abs_diff(&gram_t).unwrap() < 1e-3);
    }

    /// Convolution is linear in its input: conv(a*x) == a * conv(x).
    #[test]
    fn convolution_is_linear_in_the_input(
        data in tensor_strategy(32),
        weight in tensor_strategy(18),
        alpha in -3.0f32..3.0,
    ) {
        let x = Tensor::from_vec(Shape::new(&[1, 2, 4, 4]), data).unwrap();
        let w = Tensor::from_vec(Shape::new(&[1, 2, 3, 3]), weight).unwrap();
        let cfg = Conv2dConfig::same(3);
        let scaled_first = conv2d(&x.scale(alpha), &w, None, cfg).unwrap();
        let scaled_after = conv2d(&x, &w, None, cfg).unwrap().scale(alpha);
        prop_assert!(scaled_first.max_abs_diff(&scaled_after).unwrap() < 1e-2);
    }

    /// depth_to_space and space_to_depth are exact inverses and preserve the
    /// multiset of values.
    #[test]
    fn pixel_shuffle_roundtrip_preserves_values(data in tensor_strategy(64)) {
        let x = Tensor::from_vec(Shape::new(&[1, 4, 4, 4]), data).unwrap();
        let up = depth_to_space(&x, 2).unwrap();
        prop_assert_eq!(up.shape().dims(), &[1, 1, 8, 8]);
        let back = space_to_depth(&up, 2).unwrap();
        prop_assert_eq!(back, x.clone());
        prop_assert!((up.sum() - x.sum()).abs() < 1e-3);
    }

    /// Resizing never produces values outside the input range (for all three
    /// interpolation modes this holds for constant-padded natural images in
    /// [0, 1] up to small overshoot for bicubic, which we clamp).
    #[test]
    fn nearest_and_bilinear_resize_respect_value_bounds(
        data in prop::collection::vec(0.0f32..1.0, 48),
        out_h in 2usize..10,
        out_w in 2usize..10,
    ) {
        let x = Tensor::from_vec(Shape::new(&[1, 3, 4, 4]), data).unwrap();
        for method in [Interpolation::Nearest, Interpolation::Bilinear] {
            let y = resize(&x, out_h, out_w, method).unwrap();
            prop_assert!(y.min() >= x.min() - 1e-5);
            prop_assert!(y.max() <= x.max() + 1e-5);
        }
    }

    /// Clamp really clamps and signum produces only {-1, 0, 1}.
    #[test]
    fn clamp_and_signum_invariants(data in tensor_strategy(20), lo in -2.0f32..0.0, width in 0.1f32..3.0) {
        let x = Tensor::from_vec(Shape::new(&[20]), data).unwrap();
        let hi = lo + width;
        let clamped = x.clamp(lo, hi);
        prop_assert!(clamped.min() >= lo - 1e-6);
        prop_assert!(clamped.max() <= hi + 1e-6);
        for v in x.signum().data() {
            prop_assert!(*v == -1.0 || *v == 0.0 || *v == 1.0);
        }
    }

    /// The mean lies between the minimum and maximum.
    #[test]
    fn mean_is_bounded_by_extrema(data in tensor_strategy(17)) {
        let x = Tensor::from_vec(Shape::new(&[17]), data).unwrap();
        prop_assert!(x.mean() >= x.min() - 1e-4);
        prop_assert!(x.mean() <= x.max() + 1e-4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The direct convolution kernel sums every output in the same order as
    /// the im2col + matmul lowering, so the two agree bit for bit — across
    /// channel counts and widths that are not multiples of the kernel's
    /// tiles, inputs smaller than the kernel, strides and paddings, and
    /// weights with exact zeros (which the matmul skips).
    #[test]
    fn conv2d_is_bitwise_the_im2col_matmul_lowering(
        n in 1usize..=3,
        c_in in 1usize..=20,
        c_out in 1usize..=20,
        h in 1usize..=19,
        w in 1usize..=19,
        k in prop::sample::select(vec![1usize, 3, 5, 7]),
        stride in 1usize..=3,
        pad_pick in 0usize..=3,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = Conv2dConfig::new(k, stride, pad_pick % (k / 2 + 1));
        let x = Tensor::from_vec(
            Shape::new(&[n, c_in, h, w]),
            seeded_values(n * c_in * h * w, seed, false),
        )
        .unwrap();
        let weight = Tensor::from_vec(
            Shape::new(&[c_out, c_in, k, k]),
            seeded_values(c_out * c_in * k * k, seed ^ 0x9e37_79b9, true),
        )
        .unwrap();
        let bias = Tensor::from_vec(
            Shape::new(&[c_out]),
            seeded_values(c_out, seed ^ 0x85eb_ca6b, true),
        )
        .unwrap();
        let bias = seed.is_multiple_of(2).then_some(&bias);
        let got = conv2d(&x, &weight, bias, cfg);
        if cfg.output_size(h, w).is_err() {
            prop_assert!(got.is_err());
            return Ok(());
        }
        let got = got.unwrap();
        let want = conv2d_reference(&x, &weight, bias, cfg);
        prop_assert_eq!(got.shape(), want.shape());
        for (i, (g, r)) in got.data().iter().zip(want.data()).enumerate() {
            prop_assert!(g.to_bits() == r.to_bits(), "element {} differs: {} vs {}", i, g, r);
        }
    }
}
