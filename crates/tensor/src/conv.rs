//! Convolution kernels: im2col/col2im, dense 2-D convolution and depthwise
//! convolution, each with the backward passes required for training and for
//! gradient-based adversarial attacks.

use crate::{Result, Shape, Tensor, TensorArena, TensorError};

/// Configuration of a 2-D convolution (shared by dense and depthwise paths).
///
/// Stride and padding are symmetric in height and width, matching every
/// network used in the paper (SESR, FSRCNN, EDSR, MobileNet-V2, ResNet,
/// Inception all use square kernels with symmetric padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dConfig {
    /// Kernel height and width.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding applied on every spatial border.
    pub padding: usize,
}

impl Conv2dConfig {
    /// Create a configuration with explicit kernel, stride and padding.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        Conv2dConfig {
            kernel,
            stride,
            padding,
        }
    }

    /// "Same" convolution for odd kernels at stride 1 (output size == input size).
    pub fn same(kernel: usize) -> Self {
        Conv2dConfig {
            kernel,
            stride: 1,
            padding: kernel / 2,
        }
    }

    /// Spatial output size for an input of size `(h, w)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConvConfig`] if the kernel does not fit
    /// in the padded input or the stride is zero.
    pub fn output_size(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.stride == 0 {
            return Err(TensorError::invalid_conv("stride must be non-zero"));
        }
        if self.kernel == 0 {
            return Err(TensorError::invalid_conv("kernel must be non-zero"));
        }
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        if self.kernel > ph || self.kernel > pw {
            return Err(TensorError::invalid_conv(format!(
                "kernel {} larger than padded input {}x{}",
                self.kernel, ph, pw
            )));
        }
        Ok((
            (ph - self.kernel) / self.stride + 1,
            (pw - self.kernel) / self.stride + 1,
        ))
    }
}

impl Default for Conv2dConfig {
    fn default() -> Self {
        Conv2dConfig::same(3)
    }
}

/// Lower an NCHW input into column form for convolution-as-matmul.
///
/// The result has shape `[C * K * K, N * OH * OW]`: every column holds one
/// receptive field, every row one (channel, ky, kx) weight position.
///
/// # Errors
///
/// Returns an error if `input` is not rank 4 or the configuration does not
/// fit the input.
pub fn im2col(input: &Tensor, cfg: Conv2dConfig) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (oh, ow) = cfg.output_size(h, w)?;
    let k = cfg.kernel;
    let rows = c * k * k;
    let cols = n * oh * ow;
    let mut out = vec![0.0f32; rows * cols];
    let in_data = input.data();
    for b in 0..n {
        for ci in 0..c {
            let in_base = (b * c + ci) * h * w;
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ci * k + ky) * k + kx;
                    for oy in 0..oh {
                        let iy = oy * cfg.stride + ky;
                        let iy = iy as isize - cfg.padding as isize;
                        for ox in 0..ow {
                            let ix = ox * cfg.stride + kx;
                            let ix = ix as isize - cfg.padding as isize;
                            let col = (b * oh + oy) * ow + ox;
                            let value = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize
                            {
                                in_data[in_base + iy as usize * w + ix as usize]
                            } else {
                                0.0
                            };
                            out[row * cols + col] = value;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(Shape::new(&[rows, cols]), out)
}

/// Scatter a column-form gradient back onto an NCHW input gradient
/// (the adjoint of [`im2col`]).
///
/// # Errors
///
/// Returns an error if shapes are inconsistent with the configuration.
pub fn col2im(cols: &Tensor, input_shape: &Shape, cfg: Conv2dConfig) -> Result<Tensor> {
    let (n, c, h, w) = input_shape.as_nchw()?;
    let (oh, ow) = cfg.output_size(h, w)?;
    let k = cfg.kernel;
    let rows = c * k * k;
    let ncols = n * oh * ow;
    let (got_rows, got_cols) = cols.shape().as_matrix()?;
    if got_rows != rows || got_cols != ncols {
        return Err(TensorError::ShapeMismatch {
            left: vec![rows, ncols],
            right: vec![got_rows, got_cols],
        });
    }
    let mut out = vec![0.0f32; n * c * h * w];
    let col_data = cols.data();
    for b in 0..n {
        for ci in 0..c {
            let in_base = (b * c + ci) * h * w;
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ci * k + ky) * k + kx;
                    for oy in 0..oh {
                        let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let col = (b * oh + oy) * ow + ox;
                            out[in_base + iy as usize * w + ix as usize] +=
                                col_data[row * ncols + col];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(input_shape.clone(), out)
}

/// Dense 2-D convolution forward pass.
///
/// * `input`: `[N, C_in, H, W]`
/// * `weight`: `[C_out, C_in, K, K]`
/// * `bias`: optional `[C_out]`
///
/// Returns `[N, C_out, OH, OW]`.
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dConfig,
) -> Result<Tensor> {
    conv2d_arena(input, weight, bias, cfg, &mut TensorArena::exact())
}

/// Output channels accumulated together by [`conv2d_arena`]'s kernel.
const TILE_CO: usize = 2;
/// Output columns accumulated together by [`conv2d_arena`]'s kernel.
const TILE_X: usize = 16;

/// Check a dense convolution weight against the input channels and the
/// configured kernel, returning the number of output channels.
fn dense_weight_channels(weight: &Tensor, c_in: usize, cfg: Conv2dConfig) -> Result<usize> {
    let (c_out, wc_in, kh, kw) = weight.shape().as_nchw()?;
    if wc_in != c_in || kh != cfg.kernel || kw != cfg.kernel {
        return Err(TensorError::invalid_conv(format!(
            "weight shape {:?} incompatible with input channels {c_in} and kernel {}",
            weight.shape().dims(),
            cfg.kernel
        )));
    }
    Ok(c_out)
}

/// Check that an optional bias holds exactly one value per output channel.
fn check_bias(bias: Option<&Tensor>, channels: usize) -> Result<()> {
    match bias {
        Some(b) if b.len() != channels => Err(TensorError::ShapeMismatch {
            left: vec![channels],
            right: b.shape().dims().to_vec(),
        }),
        _ => Ok(()),
    }
}

/// Arena-backed [`conv2d`], computed by a direct, register-blocked kernel.
///
/// The input is copied once into a zero-padded buffer and the weights are
/// repacked into tiles of `TILE_CO` output channels; the kernel then
/// accumulates `TILE_CO` output channels × `TILE_X` output columns at a time
/// in fixed-size arrays that the compiler keeps in vector registers, looping
/// over input channel, kernel row and kernel column in that order and adding
/// the bias last. That is the summation order of the im2col + matmul
/// lowering ([`im2col`] followed by [`Tensor::matmul`]), so for finite inputs
/// the result is bitwise identical to it, without the `C·K²`-times-larger
/// column buffer.
///
/// The padded input, the packed weights and the returned output tensor are
/// drawn from `arena`; the first two are recycled before returning, and the
/// caller may recycle the output after use. With a warmed-up arena this
/// performs zero heap allocations. The weights are repacked on every call,
/// so parameters updated in place are always picked up.
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches, including a bias whose
/// length is not the number of output channels.
pub fn conv2d_arena(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dConfig,
    arena: &mut TensorArena,
) -> Result<Tensor> {
    let (n, c_in, h, w) = input.shape().as_nchw()?;
    let c_out = dense_weight_channels(weight, c_in, cfg)?;
    check_bias(bias, c_out)?;
    let (oh, ow) = cfg.output_size(h, w)?;
    let (k, stride, pad) = (cfg.kernel, cfg.stride, cfg.padding);

    // A pointwise convolution (1×1, stride 1, no padding) maps each input
    // position to the same output position, so every plane can be treated
    // as a single row: column tiles then run on across row ends instead of
    // stopping at a short tile on every row.
    let (rows, cols, out_rows, out_cols) = if k == 1 && stride == 1 && pad == 0 {
        (1, h * w, 1, oh * ow)
    } else {
        (h, w, oh, ow)
    };

    // Zero-padded copy of the input. A column tile that overhangs the right
    // edge of the output reads up to (TILE_X - 1) * stride floats past the
    // end of its input row; the slack keeps the last row's (discarded) loads
    // inside the buffer.
    let (hp, wp) = (rows + 2 * pad, cols + 2 * pad);
    let mut padded = arena.alloc(n * c_in * hp * wp + (TILE_X - 1) * stride);
    let in_data = input.data();
    for plane in 0..n * c_in {
        for y in 0..rows {
            let dst = (plane * hp + y + pad) * wp + pad;
            let src = (plane * rows + y) * cols;
            padded[dst..dst + cols].copy_from_slice(&in_data[src..src + cols]);
        }
    }

    // Weights repacked tile by tile: packed[(tile * taps + tap) * TILE_CO +
    // lane] is output channel tile * TILE_CO + lane at tap (ci, ky, kx).
    // Lanes past c_out stay zero and their results are never stored.
    let taps = c_in * k * k;
    let mut packed = arena.alloc(c_out.div_ceil(TILE_CO) * taps * TILE_CO);
    let w_data = weight.data();
    for co in 0..c_out {
        let (tile, lane) = (co / TILE_CO, co % TILE_CO);
        for tap in 0..taps {
            packed[(tile * taps + tap) * TILE_CO + lane] = w_data[co * taps + tap];
        }
    }

    let mut out = arena.alloc(n * c_out * oh * ow);
    let geom = DirectGeometry {
        n,
        c_in,
        c_out,
        k,
        stride,
        hp,
        wp,
        oh: out_rows,
        ow: out_cols,
    };
    let bias = bias.map(Tensor::data);
    let contiguous = |row: &[f32]| -> [f32; TILE_X] {
        let row = &row[..TILE_X];
        std::array::from_fn(|j| row[j])
    };
    let strided = |row: &[f32]| -> [f32; TILE_X] {
        let row = &row[..(TILE_X - 1) * stride + 1];
        std::array::from_fn(|j| row[j * stride])
    };
    // Pointwise convolutions get their own instantiation, with the one-tap
    // kernel loops resolved at compile time. Fixing K = 3 or 5 the same way
    // measured slower than the run-time loop, so those share one.
    match (k, stride) {
        (1, 1) => direct_conv::<1>(&geom, &padded, &packed, bias, &mut out, contiguous),
        (_, 1) => direct_conv::<0>(&geom, &padded, &packed, bias, &mut out, contiguous),
        _ => direct_conv::<0>(&geom, &padded, &packed, bias, &mut out, strided),
    }
    arena.recycle_vec(padded);
    arena.recycle_vec(packed);
    Tensor::from_vec(Shape::new(&[n, c_out, oh, ow]), out)
}

/// Dimensions [`direct_conv`] works over: batch and channel counts, kernel
/// and stride, the padded input plane and the output plane.
struct DirectGeometry {
    n: usize,
    c_in: usize,
    c_out: usize,
    k: usize,
    stride: usize,
    hp: usize,
    wp: usize,
    oh: usize,
    ow: usize,
}

/// The register-blocked loop nest of [`conv2d_arena`].
///
/// `K` is the kernel size when it is fixed at compile time (1, for pointwise
/// convolutions), or 0 to read it from `g` at run time.
/// `load` reads the `TILE_X` inputs one kernel tap contributes to a column
/// tile, starting at the slice's first element; the stride-1 and strided
/// versions are separate instantiations, so the common case is a plain
/// contiguous load. Every output is summed in (ci, ky, kx) order from zero,
/// then the bias is added.
///
/// Each instantiation stays a function of its own: inlined together into
/// [`conv2d_arena`], their register allocation varied with one another and
/// the 5×5 layers measured about 1.8× slower.
#[inline(never)]
fn direct_conv<const K: usize>(
    g: &DirectGeometry,
    padded: &[f32],
    packed: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    load: impl Fn(&[f32]) -> [f32; TILE_X],
) {
    let k = if K == 0 { g.k } else { K };
    let taps = g.c_in * k * k;
    let in_plane = g.hp * g.wp;
    for b in 0..g.n {
        let image = &padded[b * g.c_in * in_plane..];
        for oy in 0..g.oh {
            for tile in 0..g.c_out.div_ceil(TILE_CO) {
                let weights = &packed[tile * taps * TILE_CO..(tile + 1) * taps * TILE_CO];
                let co0 = tile * TILE_CO;
                let lanes = (g.c_out - co0).min(TILE_CO);
                let mut b_vals = [0.0f32; TILE_CO];
                if let Some(bd) = bias {
                    b_vals[..lanes].copy_from_slice(&bd[co0..co0 + lanes]);
                }
                for x0 in (0..g.ow).step_by(TILE_X) {
                    let mut acc = [[0.0f32; TILE_X]; TILE_CO];
                    for ci in 0..g.c_in {
                        for ky in 0..k {
                            let row_start = (ci * g.hp + oy * g.stride + ky) * g.wp + x0 * g.stride;
                            let row = &image[row_start..];
                            let tap0 = (ci * k + ky) * k;
                            let w_row = &weights[tap0 * TILE_CO..(tap0 + k) * TILE_CO];
                            for (kx, w_tap) in w_row.chunks_exact(TILE_CO).enumerate() {
                                let xs = load(&row[kx..]);
                                for (acc_c, &w_c) in acc.iter_mut().zip(w_tap) {
                                    for (a, &x) in acc_c.iter_mut().zip(&xs) {
                                        *a += w_c * x;
                                    }
                                }
                            }
                        }
                    }
                    let cols = (g.ow - x0).min(TILE_X);
                    for (lane, acc_c) in acc.iter().enumerate().take(lanes) {
                        let dst = ((b * g.c_out + co0 + lane) * g.oh + oy) * g.ow + x0;
                        for (o, &a) in out[dst..dst + cols].iter_mut().zip(acc_c) {
                            *o = a + b_vals[lane];
                        }
                    }
                }
            }
        }
    }
}

/// Gradients of a dense 2-D convolution.
///
/// Given `grad_output = dL/dY` of shape `[N, C_out, OH, OW]`, returns
/// `(grad_input, grad_weight, grad_bias)` with the same shapes as the
/// corresponding forward operands.
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    cfg: Conv2dConfig,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (n, c_in, h, w) = input.shape().as_nchw()?;
    let c_out = dense_weight_channels(weight, c_in, cfg)?;
    let k = cfg.kernel;
    let (oh, ow) = cfg.output_size(h, w)?;
    let god = grad_output.shape().dims();
    if god != [n, c_out, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            left: vec![n, c_out, oh, ow],
            right: god.to_vec(),
        });
    }
    let spatial = oh * ow;

    // Rearrange grad_output into [C_out, N*OH*OW] to mirror the forward matmul.
    let mut go_mat = vec![0.0f32; c_out * n * spatial];
    let go_data = grad_output.data();
    for b in 0..n {
        for co in 0..c_out {
            for s in 0..spatial {
                go_mat[co * (n * spatial) + b * spatial + s] =
                    go_data[(b * c_out + co) * spatial + s];
            }
        }
    }
    let go_mat = Tensor::from_vec(Shape::new(&[c_out, n * spatial]), go_mat)?;

    // grad_weight = dL/dY (as matrix) x cols^T
    let cols = im2col(input, cfg)?;
    let cols_t = cols.transpose()?;
    let grad_w_mat = go_mat.matmul(&cols_t)?;
    let grad_weight = grad_w_mat.reshape(Shape::new(&[c_out, c_in, k, k]))?;

    // grad_bias = sum over batch and spatial of dL/dY
    let mut grad_bias = vec![0.0f32; c_out];
    for co in 0..c_out {
        let mut acc = 0.0f32;
        for b in 0..n {
            for s in 0..spatial {
                acc += go_data[(b * c_out + co) * spatial + s];
            }
        }
        grad_bias[co] = acc;
    }
    let grad_bias = Tensor::from_vec(Shape::new(&[c_out]), grad_bias)?;

    // grad_input = col2im(W^T x dL/dY)
    let w_mat = weight.reshape(Shape::new(&[c_out, c_in * k * k]))?;
    let w_t = w_mat.transpose()?;
    let grad_cols = w_t.matmul(&go_mat)?;
    let grad_input = col2im(&grad_cols, input.shape(), cfg)?;

    Ok((grad_input, grad_weight, grad_bias))
}

/// Depthwise 2-D convolution forward pass (one filter per input channel).
///
/// * `input`: `[N, C, H, W]`
/// * `weight`: `[C, 1, K, K]`
/// * `bias`: optional `[C]`
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches.
pub fn depthwise_conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dConfig,
) -> Result<Tensor> {
    depthwise_conv2d_arena(input, weight, bias, cfg, &mut TensorArena::exact())
}

/// Arena-backed [`depthwise_conv2d`]: the output buffer comes from `arena`,
/// so a warmed-up arena serves repeated calls without heap allocations.
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches.
pub fn depthwise_conv2d_arena(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dConfig,
    arena: &mut TensorArena,
) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let wd = weight.shape().dims();
    if wd.len() != 4 || wd[0] != c || wd[1] != 1 || wd[2] != cfg.kernel || wd[3] != cfg.kernel {
        return Err(TensorError::invalid_conv(format!(
            "depthwise weight shape {wd:?} incompatible with {c} channels and kernel {}",
            cfg.kernel
        )));
    }
    check_bias(bias, c)?;
    let (oh, ow) = cfg.output_size(h, w)?;
    let k = cfg.kernel;
    let mut out = arena.alloc(n * c * oh * ow);
    let in_data = input.data();
    let w_data = weight.data();
    for b in 0..n {
        for ci in 0..c {
            let in_base = (b * c + ci) * h * w;
            let w_base = ci * k * k;
            let b_val = bias.map(|bt| bt.data()[ci]).unwrap_or(0.0);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b_val;
                    for ky in 0..k {
                        let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc += in_data[in_base + iy as usize * w + ix as usize]
                                * w_data[w_base + ky * k + kx];
                        }
                    }
                    out[(b * c + ci) * oh * ow + oy * ow + ox] = acc;
                }
            }
        }
    }
    Tensor::from_vec(Shape::new(&[n, c, oh, ow]), out)
}

/// Gradients of a depthwise convolution.
///
/// Returns `(grad_input, grad_weight, grad_bias)`.
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches.
pub fn depthwise_conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    cfg: Conv2dConfig,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (oh, ow) = cfg.output_size(h, w)?;
    let god = grad_output.shape().dims();
    if god != [n, c, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            left: vec![n, c, oh, ow],
            right: god.to_vec(),
        });
    }
    let k = cfg.kernel;
    let mut grad_input = vec![0.0f32; n * c * h * w];
    let mut grad_weight = vec![0.0f32; c * k * k];
    let mut grad_bias = vec![0.0f32; c];
    let in_data = input.data();
    let w_data = weight.data();
    let go_data = grad_output.data();
    for b in 0..n {
        for ci in 0..c {
            let in_base = (b * c + ci) * h * w;
            let w_base = ci * k * k;
            for oy in 0..oh {
                for ox in 0..ow {
                    let go = go_data[(b * c + ci) * oh * ow + oy * ow + ox];
                    grad_bias[ci] += go;
                    for ky in 0..k {
                        let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let in_idx = in_base + iy as usize * w + ix as usize;
                            grad_weight[w_base + ky * k + kx] += go * in_data[in_idx];
                            grad_input[in_idx] += go * w_data[w_base + ky * k + kx];
                        }
                    }
                }
            }
        }
    }
    Ok((
        Tensor::from_vec(input.shape().clone(), grad_input)?,
        Tensor::from_vec(weight.shape().clone(), grad_weight)?,
        Tensor::from_vec(Shape::new(&[c]), grad_bias)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(Shape::new(shape), data.to_vec()).unwrap()
    }

    #[test]
    fn output_size_same_and_strided() {
        assert_eq!(Conv2dConfig::same(3).output_size(8, 8).unwrap(), (8, 8));
        assert_eq!(
            Conv2dConfig::new(3, 2, 1).output_size(8, 8).unwrap(),
            (4, 4)
        );
        assert_eq!(
            Conv2dConfig::new(1, 1, 0).output_size(5, 7).unwrap(),
            (5, 7)
        );
        assert!(Conv2dConfig::new(9, 1, 0).output_size(4, 4).is_err());
        assert!(Conv2dConfig::new(3, 0, 1).output_size(4, 4).is_err());
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1 reproduces the input.
        let input = t(&[1, 1, 2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let weight = t(&[1, 1, 1, 1], &[1.0]);
        let out = conv2d(&input, &weight, None, Conv2dConfig::new(1, 1, 0)).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn conv2d_known_3x3() {
        // A 3x3 averaging-like kernel over a 3x3 input with no padding gives a
        // single output equal to the weighted sum.
        let input = t(
            &[1, 1, 3, 3],
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        );
        let weight = t(&[1, 1, 3, 3], &[1.0; 9]);
        let out = conv2d(&input, &weight, None, Conv2dConfig::new(3, 1, 0)).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 1, 1]);
        assert_eq!(out.data()[0], 45.0);
    }

    #[test]
    fn conv2d_bias_applied_per_output_channel() {
        let input = t(&[1, 1, 2, 2], &[0.0; 4]);
        let weight = t(&[2, 1, 1, 1], &[1.0, 1.0]);
        let bias = t(&[2], &[0.5, -1.5]);
        let out = conv2d(&input, &weight, Some(&bias), Conv2dConfig::new(1, 1, 0)).unwrap();
        assert_eq!(out.get(&[0, 0, 1, 1]), 0.5);
        assert_eq!(out.get(&[0, 1, 0, 0]), -1.5);
    }

    #[test]
    fn conv2d_multi_channel_sums_over_input_channels() {
        let input = t(&[1, 2, 1, 1], &[2.0, 3.0]);
        let weight = t(&[1, 2, 1, 1], &[10.0, 100.0]);
        let out = conv2d(&input, &weight, None, Conv2dConfig::new(1, 1, 0)).unwrap();
        assert_eq!(out.data()[0], 2.0 * 10.0 + 3.0 * 100.0);
    }

    #[test]
    fn conv2d_rejects_bad_weight_shape() {
        let input = Tensor::zeros(Shape::new(&[1, 3, 4, 4]));
        let weight = Tensor::zeros(Shape::new(&[8, 2, 3, 3]));
        assert!(conv2d(&input, &weight, None, Conv2dConfig::same(3)).is_err());
    }

    #[test]
    fn short_bias_is_a_typed_error() {
        let input = Tensor::zeros(Shape::new(&[1, 2, 4, 4]));
        let bias = t(&[1], &[0.5]);
        let dense_w = Tensor::zeros(Shape::new(&[3, 2, 3, 3]));
        let err = conv2d(&input, &dense_w, Some(&bias), Conv2dConfig::same(3)).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{err}");
        let dw_w = Tensor::zeros(Shape::new(&[2, 1, 3, 3]));
        let err = depthwise_conv2d(&input, &dw_w, Some(&bias), Conv2dConfig::same(3)).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn conv2d_backward_rejects_bad_weight_rank() {
        let input = Tensor::zeros(Shape::new(&[1, 2, 4, 4]));
        let weight = Tensor::zeros(Shape::new(&[3, 18]));
        let grad = Tensor::zeros(Shape::new(&[1, 3, 4, 4]));
        let err = conv2d_backward(&input, &weight, &grad, Conv2dConfig::same(3)).unwrap_err();
        assert!(matches!(err, TensorError::RankMismatch { .. }), "{err}");
    }

    #[test]
    fn conv2d_backward_rejects_input_channel_mismatch() {
        let input = Tensor::zeros(Shape::new(&[1, 2, 4, 4]));
        let weight = Tensor::zeros(Shape::new(&[3, 5, 3, 3]));
        let grad = Tensor::zeros(Shape::new(&[1, 3, 4, 4]));
        let err = conv2d_backward(&input, &weight, &grad, Conv2dConfig::same(3)).unwrap_err();
        assert!(
            matches!(err, TensorError::InvalidConvConfig { .. }),
            "{err}"
        );
    }

    #[test]
    fn im2col_col2im_adjoint_property() {
        // <im2col(x), y> == <x, col2im(y)> for the adjoint pair.
        let cfg = Conv2dConfig::new(3, 2, 1);
        let x = t(
            &[1, 2, 4, 4],
            &(0..32).map(|i| i as f32 * 0.37 - 3.0).collect::<Vec<_>>(),
        );
        let cols = im2col(&x, cfg).unwrap();
        let y = cols.map(|v| (v * 1.7).sin());
        let lhs: f32 = cols.mul(&y).unwrap().sum();
        let back = col2im(&y, x.shape(), cfg).unwrap();
        let rhs: f32 = x.mul(&back).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
    }

    /// Finite-difference check of conv2d_backward for a small case.
    #[test]
    fn conv2d_backward_matches_finite_difference() {
        let cfg = Conv2dConfig::same(3);
        let input = t(
            &[1, 1, 4, 4],
            &(0..16).map(|i| (i as f32 * 0.31).sin()).collect::<Vec<_>>(),
        );
        let weight = t(
            &[2, 1, 3, 3],
            &(0..18)
                .map(|i| (i as f32 * 0.17).cos() * 0.5)
                .collect::<Vec<_>>(),
        );
        let bias = t(&[2], &[0.1, -0.2]);
        // Loss = sum(conv(x)), so dL/dY is all ones.
        let out = conv2d(&input, &weight, Some(&bias), cfg).unwrap();
        let grad_out = Tensor::ones(out.shape().clone());
        let (gi, gw, gb) = conv2d_backward(&input, &weight, &grad_out, cfg).unwrap();

        let eps = 1e-3;
        let loss = |inp: &Tensor, wt: &Tensor, bs: &Tensor| -> f32 {
            conv2d(inp, wt, Some(bs), cfg).unwrap().sum()
        };
        // Check a few input positions.
        for &idx in &[0usize, 5, 10, 15] {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let num = (loss(&plus, &weight, &bias) - loss(&minus, &weight, &bias)) / (2.0 * eps);
            assert!(
                (num - gi.data()[idx]).abs() < 1e-2,
                "input grad mismatch at {idx}: fd={num} got={}",
                gi.data()[idx]
            );
        }
        // Check a few weight positions.
        for &idx in &[0usize, 4, 9, 17] {
            let mut plus = weight.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = weight.clone();
            minus.data_mut()[idx] -= eps;
            let num = (loss(&input, &plus, &bias) - loss(&input, &minus, &bias)) / (2.0 * eps);
            assert!(
                (num - gw.data()[idx]).abs() < 1e-1,
                "weight grad mismatch at {idx}: fd={num} got={}",
                gw.data()[idx]
            );
        }
        // Bias gradient is the number of output positions per channel.
        assert!((gb.data()[0] - 16.0).abs() < 1e-4);
        assert!((gb.data()[1] - 16.0).abs() < 1e-4);
    }

    #[test]
    fn depthwise_identity_and_independence() {
        // Each channel is convolved with its own kernel only.
        let input = t(&[1, 2, 2, 2], &[1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0]);
        let weight = t(&[2, 1, 1, 1], &[1.0, 0.5]);
        let out = depthwise_conv2d(&input, &weight, None, Conv2dConfig::new(1, 1, 0)).unwrap();
        assert_eq!(out.get(&[0, 0, 1, 1]), 4.0);
        assert_eq!(out.get(&[0, 1, 1, 1]), 20.0);
    }

    #[test]
    fn depthwise_matches_dense_with_block_diagonal_weight() {
        // A depthwise conv equals a dense conv whose cross-channel weights are zero.
        let cfg = Conv2dConfig::same(3);
        let input = t(
            &[1, 2, 4, 4],
            &(0..32).map(|i| (i as f32 * 0.21).sin()).collect::<Vec<_>>(),
        );
        let dw_weight = t(
            &[2, 1, 3, 3],
            &(0..18).map(|i| (i as f32 * 0.13).cos()).collect::<Vec<_>>(),
        );
        let mut dense = vec![0.0f32; 2 * 2 * 9];
        for c in 0..2 {
            for kk in 0..9 {
                dense[(c * 2 + c) * 9 + kk] = dw_weight.data()[c * 9 + kk];
            }
        }
        let dense_weight = t(&[2, 2, 3, 3], &dense);
        let a = depthwise_conv2d(&input, &dw_weight, None, cfg).unwrap();
        let b = conv2d(&input, &dense_weight, None, cfg).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-5);
    }

    #[test]
    fn depthwise_backward_matches_finite_difference() {
        let cfg = Conv2dConfig::same(3);
        let input = t(
            &[1, 2, 3, 3],
            &(0..18).map(|i| (i as f32 * 0.41).sin()).collect::<Vec<_>>(),
        );
        let weight = t(
            &[2, 1, 3, 3],
            &(0..18)
                .map(|i| (i as f32 * 0.23).cos() * 0.3)
                .collect::<Vec<_>>(),
        );
        let out = depthwise_conv2d(&input, &weight, None, cfg).unwrap();
        let grad_out = Tensor::ones(out.shape().clone());
        let (gi, gw, _gb) = depthwise_conv2d_backward(&input, &weight, &grad_out, cfg).unwrap();
        let eps = 1e-3;
        let loss = |inp: &Tensor, wt: &Tensor| depthwise_conv2d(inp, wt, None, cfg).unwrap().sum();
        for &idx in &[0usize, 7, 12, 17] {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let num = (loss(&plus, &weight) - loss(&minus, &weight)) / (2.0 * eps);
            assert!((num - gi.data()[idx]).abs() < 1e-2);
        }
        for &idx in &[0usize, 8, 9, 17] {
            let mut plus = weight.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = weight.clone();
            minus.data_mut()[idx] -= eps;
            let num = (loss(&input, &plus) - loss(&input, &minus)) / (2.0 * eps);
            assert!((num - gw.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn arena_conv_matches_allocating_and_reuses_buffers() {
        let cfg = Conv2dConfig::same(3);
        let input = t(
            &[2, 3, 5, 5],
            &(0..150)
                .map(|i| (i as f32 * 0.17).sin())
                .collect::<Vec<_>>(),
        );
        let weight = t(
            &[4, 3, 3, 3],
            &(0..108)
                .map(|i| (i as f32 * 0.29).cos() * 0.4)
                .collect::<Vec<_>>(),
        );
        let bias = t(&[4], &[0.1, -0.2, 0.3, 0.0]);
        let expected = conv2d(&input, &weight, Some(&bias), cfg).unwrap();

        let mut arena = TensorArena::new();
        for round in 0..3 {
            let out = conv2d_arena(&input, &weight, Some(&bias), cfg, &mut arena).unwrap();
            assert_eq!(out, expected, "arena path must be bitwise identical");
            arena.recycle(out);
            if round > 0 {
                // After warm-up every buffer comes from the pool.
                assert_eq!(
                    arena.stats().misses,
                    3,
                    "padded input, packed weights and output classes"
                );
            }
        }
        assert!(arena.stats().hits >= 6);
    }

    #[test]
    fn arena_conv_working_set_is_input_weights_and_output() {
        // The direct kernel's only scratch is the padded input and the packed
        // weights; the old lowering's column buffer alone would have been
        // 4 B × (16·5·5) × (256·256) ≈ 105 MB at this shape.
        let (n, c_in, h, w, c_out, k) = (1, 16, 256, 256, 12, 5);
        let cfg = Conv2dConfig::same(k);
        let input = Tensor::full(Shape::new(&[n, c_in, h, w]), 0.25);
        let weight = Tensor::full(Shape::new(&[c_out, c_in, k, k]), 0.01);
        let bias = Tensor::zeros(Shape::new(&[c_out]));
        let mut arena = TensorArena::new();
        for _ in 0..2 {
            let out = conv2d_arena(&input, &weight, Some(&bias), cfg, &mut arena).unwrap();
            arena.recycle(out);
        }
        let padded = n * c_in * (h + 4) * (w + 4) + (TILE_X - 1);
        let packed = c_out.div_ceil(TILE_CO) * TILE_CO * c_in * k * k;
        let output = n * c_out * h * w;
        // The pooled arena rounds each buffer up to its power-of-two class.
        let bound: usize = [padded, packed, output]
            .iter()
            .map(|len| 4 * len.next_power_of_two())
            .sum();
        let high_water = arena.stats().high_water_bytes;
        assert!(
            high_water <= bound,
            "high water {high_water} B exceeds padded input + packed weights + output {bound} B"
        );
        let im2col_bytes = 4 * c_in * k * k * h * w;
        assert!(high_water * 8 < im2col_bytes);
    }

    #[test]
    fn allocating_wrapper_outputs_have_exact_capacity() {
        // The allocating API wraps the arena path with an exact-capacity
        // arena, so long-lived results don't pin rounded-up buffers.
        let input = Tensor::zeros(Shape::new(&[1, 3, 5, 5]));
        let weight = Tensor::zeros(Shape::new(&[2, 3, 3, 3]));
        let out = conv2d(&input, &weight, None, Conv2dConfig::same(3)).unwrap();
        let len = out.len();
        assert_eq!(out.into_vec().capacity(), len);
    }

    #[test]
    fn arena_depthwise_matches_allocating() {
        let cfg = Conv2dConfig::same(3);
        let input = t(
            &[1, 2, 4, 4],
            &(0..32).map(|i| (i as f32 * 0.11).sin()).collect::<Vec<_>>(),
        );
        let weight = t(
            &[2, 1, 3, 3],
            &(0..18).map(|i| (i as f32 * 0.07).cos()).collect::<Vec<_>>(),
        );
        let expected = depthwise_conv2d(&input, &weight, None, cfg).unwrap();
        let mut arena = TensorArena::new();
        let out = depthwise_conv2d_arena(&input, &weight, None, cfg, &mut arena).unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn strided_conv_shapes() {
        let input = Tensor::zeros(Shape::new(&[2, 3, 8, 8]));
        let weight = Tensor::zeros(Shape::new(&[4, 3, 3, 3]));
        let out = conv2d(&input, &weight, None, Conv2dConfig::new(3, 2, 1)).unwrap();
        assert_eq!(out.shape().dims(), &[2, 4, 4, 4]);
    }
}
