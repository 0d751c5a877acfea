//! Convolution kernels: scalar reference and an implicit-im2col,
//! register-tiled GEMM fast path, with fused bias preload and optional
//! fused ReLU.
//!
//! Layout matches `emoleak_ml::nn`: stride 1, "same" zero padding, input
//! `[C_in, H, W]` / `[C_in, L]`, weights `[out][in][kh][kw]` / `[out][in][k]`.
//!
//! The fast path never builds the `[C_in·kh·kw × H·W]` patch matrix: the
//! GEMM asks for it one `NR`-column panel at a time, and
//! [`im2col_2d_panel`] gathers just that panel from the input map, so the
//! working set stays in L1 and a forward pass allocates nothing beyond its
//! output. A 1-D convolution is the 2-D one on a `1 × L` map with a
//! `1 × k` kernel, so [`conv1d_fast`] delegates to [`conv2d_fast`].
//!
//! # Bit-exactness and the padded-tap hazard
//!
//! The reference kernels *skip* out-of-bounds taps; im2col instead lowers
//! them to explicit `0.0` entries, so the fast path adds `w · 0.0 = ±0.0`
//! terms the reference never sees. Adding `±0.0` to an accumulator is an
//! IEEE-754 no-op **unless** the accumulator is exactly `-0.0` (then
//! `-0.0 + 0.0 = +0.0`) or the weight is non-finite (`NaN · 0.0 = NaN`,
//! `∞ · 0.0 = NaN`). The accumulator starts at the bias and, in
//! round-to-nearest, a sum can only be `-0.0` when *both* operands are
//! `-0.0` — so with a bias that is not `-0.0`, the accumulator never
//! becomes `-0.0` and every padded-tap addition is exact. Trained biases
//! cannot be `-0.0` (they start at `+0.0`, and neither SGD/momentum nor
//! Adam updates can produce `-0.0` from a non-`-0.0` parameter), but the
//! kernels do not rely on callers knowing that: [`conv2d_fast`] /
//! [`conv1d_fast`] check the hazard preconditions and silently delegate to
//! the reference path for hand-built pathological parameters. Bit-identity
//! is therefore unconditional.
//!
//! The same argument makes every `w · 0.0` term skippable, which the fast
//! path uses for input channels that are zero everywhere: a ReLU often
//! silences whole channels (in the deployed spectrogram CNN, about 40 % of
//! the second and third convolutions' input channels on real regions), and
//! their rows of the patch matrix are left out of the GEMM.

use crate::gemm::{gemm_packed, NR};

/// Activation fused into the convolution's output pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// No activation: plain conv + bias.
    #[default]
    Identity,
    /// `v.max(0.0)`, bitwise-identical to `emoleak_ml`'s ReLU layer.
    Relu,
}

impl Activation {
    /// Applies the activation to every element of `out` in place.
    pub fn apply(self, out: &mut [f64]) {
        if self == Activation::Relu {
            for v in out {
                *v = v.max(0.0);
            }
        }
    }
}

/// True when the im2col lowering's extra `w · 0.0` terms are provably
/// exact no-ops (see the module docs); false falls back to the reference.
fn fast_path_safe(weights: &[f64], bias: &[f64]) -> bool {
    weights.iter().all(|v| v.is_finite())
        && !bias.iter().any(|v| *v == 0.0 && v.is_sign_negative())
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// Scalar reference 2-D convolution (+ bias, + optional fused activation),
/// writing `[C_out, H, W]` into `out`.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_ref(
    input: &[f64],
    in_ch: usize,
    h: usize,
    w: usize,
    out_ch: usize,
    kh: usize,
    kw: usize,
    weights: &[f64],
    bias: &[f64],
    act: Activation,
    out: &mut Vec<f64>,
) {
    assert_eq!(input.len(), in_ch * h * w, "conv2d: input must be C*H*W");
    assert_eq!(weights.len(), out_ch * in_ch * kh * kw, "conv2d: bad weight count");
    assert_eq!(bias.len(), out_ch, "conv2d: bad bias count");
    let (ph, pw) = (kh / 2, kw / 2);
    out.clear();
    out.resize(out_ch * h * w, 0.0);
    for o in 0..out_ch {
        for y in 0..h {
            for x in 0..w {
                let mut acc = bias[o];
                for c in 0..in_ch {
                    for ky in 0..kh {
                        let iy = (y + ky).wrapping_sub(ph);
                        if iy >= h {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (x + kx).wrapping_sub(pw);
                            if ix >= w {
                                continue;
                            }
                            acc += weights[((o * in_ch + c) * kh + ky) * kw + kx]
                                * input[(c * h + iy) * w + ix];
                        }
                    }
                }
                out[(o * h + y) * w + x] = acc;
            }
        }
    }
    act.apply(out);
}

/// Implicit-im2col + register-tiled GEMM 2-D convolution, bit-identical to
/// [`conv2d_ref`] for all inputs (pathological parameters delegate to it).
/// Allocates nothing beyond growing `out`.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_fast(
    input: &[f64],
    in_ch: usize,
    h: usize,
    w: usize,
    out_ch: usize,
    kh: usize,
    kw: usize,
    weights: &[f64],
    bias: &[f64],
    act: Activation,
    out: &mut Vec<f64>,
) {
    if !fast_path_safe(weights, bias) {
        return conv2d_ref(input, in_ch, h, w, out_ch, kh, kw, weights, bias, act, out);
    }
    assert_eq!(input.len(), in_ch * h * w, "conv2d: input must be C*H*W");
    assert_eq!(weights.len(), out_ch * in_ch * kh * kw, "conv2d: bad weight count");
    assert_eq!(bias.len(), out_ch, "conv2d: bad bias count");
    let n = h * w;
    // An input channel that is zero everywhere (ReLU silences whole
    // channels) contributes only `w · 0.0` terms, exact no-ops under the
    // same conditions as the padded taps: its rows of the patch matrix are
    // skipped. Past `MAX_RUNS` runs of live channels the rest is kept.
    let taps = kh * kw;
    let mut live = [(0, 0); MAX_RUNS];
    let mut runs = 0;
    for (c, channel) in input.chunks_exact(n.max(1)).enumerate() {
        if channel.iter().all(|&v| v == 0.0) {
            continue;
        }
        match live[..runs].last_mut() {
            Some((kk, len)) if *kk + *len == c * taps => *len += taps,
            Some((kk, len)) if runs == MAX_RUNS => *len = (c + 1) * taps - *kk,
            _ => {
                live[runs] = (c * taps, taps);
                runs += 1;
            }
        }
    }
    // out = bias ⊕ W · cols, accumulated in the same ascending-k order as
    // the reference's register accumulation.
    out.clear();
    out.resize(out_ch * n, 0.0);
    let k = in_ch * taps;
    gemm_packed(out_ch, k, n, weights, out, Some(bias), act, &live[..runs], |kk0, j0, panel| {
        im2col_2d_panel(input, h, w, kh, kw, kk0, j0, panel);
    });
}

/// Most runs of live (not all-zero) input channels [`conv2d_fast`] skips
/// around; a stack array, so the forward pass stays allocation-free.
const MAX_RUNS: usize = 64;

/// Lowers a `[C_in, H, W]` map to the `[C_in·kh·kw × H·W]` im2col patch
/// matrix for a stride-1 "same"-padded convolution: row `(c, ky, kx)` —
/// matching the `[out][in][kh][kw]` weight layout — column `(y, x)`,
/// out-of-bounds taps as `0.0`. The int8 quantized path multiplies it
/// whole; the f64 fast path gathers it panel by panel through
/// [`im2col_2d_panel`] instead.
pub fn im2col_2d(
    input: &[f64],
    in_ch: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    cols: &mut Vec<f64>,
) {
    assert_eq!(input.len(), in_ch * h * w, "im2col2d: input must be C*H*W");
    let (ph, pw) = (kh / 2, kw / 2);
    let n = h * w;
    cols.clear();
    cols.resize(in_ch * kh * kw * n, 0.0);
    for c in 0..in_ch {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (c * kh + ky) * kw + kx;
                let dst = &mut cols[row * n..(row + 1) * n];
                for y in 0..h {
                    let iy = (y + ky).wrapping_sub(ph);
                    if iy >= h {
                        continue; // whole row stays zero-padded
                    }
                    let src = &input[(c * h + iy) * w..(c * h + iy + 1) * w];
                    // valid x satisfy 0 <= x + kx - pw < w
                    let x0 = pw.saturating_sub(kx);
                    let x1 = ((w + pw).saturating_sub(kx)).min(w);
                    if x0 < x1 {
                        dst[y * w + x0..y * w + x1]
                            .copy_from_slice(&src[x0 + kx - pw..x1 + kx - pw]);
                    }
                }
            }
        }
    }
}

/// Gathers rows `kk0..kk0 + panel.len() / NR` of columns `j0..j0 + NR` of
/// the [`im2col_2d`] patch matrix into `panel` (row-major, `NR` wide),
/// with `0.0` for padded taps and for columns past `h·w`.
#[allow(clippy::too_many_arguments)]
fn im2col_2d_panel(
    input: &[f64],
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    kk0: usize,
    j0: usize,
    panel: &mut [f64],
) {
    let (ph, pw) = (kh / 2, kw / 2);
    let jend = (j0 + NR).min(h * w);
    // The panel's columns split into runs sharing one output row `y`:
    // (y, first x, first panel column, length).
    let mut runs = [(0, 0, 0, 0); NR];
    let mut nruns = 0;
    let mut j = j0;
    while j < jend {
        let (y, x) = (j / w, j % w);
        let len = (w - x).min(jend - j);
        runs[nruns] = (y, x, j - j0, len);
        nruns += 1;
        j += len;
    }
    let (mut c, mut ky, mut kx) = (kk0 / (kh * kw), kk0 / kw % kh, kk0 % kw);
    for dst in panel.chunks_exact_mut(NR) {
        dst[jend - j0..].fill(0.0);
        for &(y, x, jj, len) in &runs[..nruns] {
            let d = &mut dst[jj..jj + len];
            let iy = (y + ky).wrapping_sub(ph);
            // Output columns lo..hi read input columns inside 0..w.
            let lo = pw.saturating_sub(kx).max(x);
            let hi = (w + pw).saturating_sub(kx).min(x + len);
            if iy >= h || lo >= hi {
                d.fill(0.0);
                continue;
            }
            let src = &input[(c * h + iy) * w..][..w];
            d[..lo - x].fill(0.0);
            d[lo - x..hi - x].copy_from_slice(&src[lo + kx - pw..hi + kx - pw]);
            d[hi - x..].fill(0.0);
        }
        kx += 1;
        if kx == kw {
            kx = 0;
            ky += 1;
            if ky == kh {
                ky = 0;
                c += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Conv1d
// ---------------------------------------------------------------------------

/// Scalar reference 1-D convolution (+ bias, + optional fused activation),
/// writing `[C_out, L]` into `out`.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_ref(
    input: &[f64],
    in_ch: usize,
    l: usize,
    out_ch: usize,
    k: usize,
    weights: &[f64],
    bias: &[f64],
    act: Activation,
    out: &mut Vec<f64>,
) {
    assert_eq!(input.len(), in_ch * l, "conv1d: input must be C*L");
    assert_eq!(weights.len(), out_ch * in_ch * k, "conv1d: bad weight count");
    assert_eq!(bias.len(), out_ch, "conv1d: bad bias count");
    let p = k / 2;
    out.clear();
    out.resize(out_ch * l, 0.0);
    for o in 0..out_ch {
        for t in 0..l {
            let mut acc = bias[o];
            for c in 0..in_ch {
                for kk in 0..k {
                    let it = (t + kk).wrapping_sub(p);
                    if it >= l {
                        continue;
                    }
                    acc += weights[(o * in_ch + c) * k + kk] * input[c * l + it];
                }
            }
            out[o * l + t] = acc;
        }
    }
    act.apply(out);
}

/// The fast 1-D convolution: [`conv2d_fast`] on a `1 × L` map with a
/// `1 × k` kernel, which performs exactly [`conv1d_ref`]'s operations, so
/// the two are bit-identical for all inputs.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_fast(
    input: &[f64],
    in_ch: usize,
    l: usize,
    out_ch: usize,
    k: usize,
    weights: &[f64],
    bias: &[f64],
    act: Activation,
    out: &mut Vec<f64>,
) {
    assert_eq!(input.len(), in_ch * l, "conv1d: input must be C*L");
    assert_eq!(weights.len(), out_ch * in_ch * k, "conv1d: bad weight count");
    assert_eq!(bias.len(), out_ch, "conv1d: bad bias count");
    conv2d_fast(input, in_ch, 1, l, out_ch, 1, k, weights, bias, act, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn vals(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.gen_range(-1.5..1.5)).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn conv2d_fast_matches_ref_bitwise_over_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        // Odd and even kernels, 1x1, non-square maps, multi-channel.
        for (in_ch, h, w, out_ch, kh, kw) in
            [(1, 4, 4, 2, 3, 3), (2, 5, 3, 3, 1, 1), (3, 6, 7, 2, 2, 2), (2, 1, 9, 4, 3, 5)]
        {
            let input = vals(&mut rng, in_ch * h * w);
            let weights = vals(&mut rng, out_ch * in_ch * kh * kw);
            let bias = vals(&mut rng, out_ch);
            let (mut r, mut f) = (Vec::new(), Vec::new());
            for act in [Activation::Identity, Activation::Relu] {
                conv2d_ref(&input, in_ch, h, w, out_ch, kh, kw, &weights, &bias, act, &mut r);
                conv2d_fast(
                    &input, in_ch, h, w, out_ch, kh, kw, &weights, &bias, act, &mut f,
                );
                assert_eq!(bits(&r), bits(&f), "shape ({in_ch},{h},{w},{out_ch},{kh},{kw})");
            }
        }
    }

    #[test]
    fn conv1d_fast_matches_ref_bitwise_over_shapes() {
        let mut rng = StdRng::seed_from_u64(13);
        for (in_ch, l, out_ch, k) in [(1, 8, 2, 3), (2, 5, 3, 1), (3, 9, 2, 4), (1, 1, 1, 7)] {
            let input = vals(&mut rng, in_ch * l);
            let weights = vals(&mut rng, out_ch * in_ch * k);
            let bias = vals(&mut rng, out_ch);
            let (mut r, mut f) = (Vec::new(), Vec::new());
            conv1d_ref(&input, in_ch, l, out_ch, k, &weights, &bias, Activation::Identity, &mut r);
            conv1d_fast(
                &input,
                in_ch,
                l,
                out_ch,
                k,
                &weights,
                &bias,
                Activation::Identity,
                &mut f,
            );
            assert_eq!(bits(&r), bits(&f), "shape ({in_ch},{l},{out_ch},{k})");
        }
    }

    #[test]
    fn pathological_parameters_fall_back_and_stay_bit_identical() {
        // A -0.0 bias and a NaN weight are exactly the cases where im2col's
        // padded zeros would not be no-ops; the fast path must delegate.
        let input = [1.0, -2.0, 3.0, 0.5];
        let (mut r, mut f) = (Vec::new(), Vec::new());
        for (weights, bias) in [
            (vec![0.5, -0.25, 1.0, 2.0, -1.0, 0.0, 0.75, -0.5, 0.125], vec![-0.0]),
            (vec![0.5, f64::NAN, 1.0, 2.0, -1.0, 0.0, 0.75, -0.5, 0.125], vec![0.1]),
        ] {
            conv2d_ref(&input, 1, 2, 2, 1, 3, 3, &weights, &bias, Activation::Identity, &mut r);
            conv2d_fast(
                &input,
                1,
                2,
                2,
                1,
                3,
                3,
                &weights,
                &bias,
                Activation::Identity,
                &mut f,
            );
            assert_eq!(bits(&r), bits(&f));
        }
    }

    #[test]
    fn dead_channels_are_skipped_exactly() {
        let mut rng = StdRng::seed_from_u64(23);
        // Alternating live and all-zero channels (some -0.0), with more
        // live runs than MAX_RUNS so the overflow merge runs too.
        let (in_ch, h, w, out_ch) = (2 * MAX_RUNS + 3, 3, 4, 3);
        let mut input = vals(&mut rng, in_ch * h * w);
        for (c, channel) in input.chunks_exact_mut(h * w).enumerate() {
            match c % 4 {
                1 => channel.fill(0.0),
                3 => channel.fill(-0.0),
                _ => {}
            }
        }
        for (kh, kw) in [(3, 3), (1, 1), (1, 2)] {
            let weights = vals(&mut rng, out_ch * in_ch * kh * kw);
            let bias = vals(&mut rng, out_ch);
            let (mut r, mut f) = (Vec::new(), Vec::new());
            for act in [Activation::Identity, Activation::Relu] {
                conv2d_ref(&input, in_ch, h, w, out_ch, kh, kw, &weights, &bias, act, &mut r);
                conv2d_fast(&input, in_ch, h, w, out_ch, kh, kw, &weights, &bias, act, &mut f);
                assert_eq!(bits(&r), bits(&f), "kernel {kh}x{kw}");
            }
        }
        // Every channel dead: the output is the activated bias.
        let zeros = vec![0.0; 2 * 4];
        let (mut r, mut f) = (Vec::new(), Vec::new());
        let (weights, bias) = (vals(&mut rng, 2 * 9), [0.5, -0.25]);
        conv2d_ref(&zeros, 1, 2, 4, 2, 3, 3, &weights, &bias, Activation::Relu, &mut r);
        conv2d_fast(&zeros, 1, 2, 4, 2, 3, 3, &weights, &bias, Activation::Relu, &mut f);
        assert_eq!(bits(&r), bits(&f));
    }

    #[test]
    fn panels_match_the_materialized_patch_matrix() {
        let mut rng = StdRng::seed_from_u64(19);
        // Maps narrower and wider than a panel, odd kernels, a row tail.
        for (in_ch, h, w, kh, kw) in [(2, 3, 5, 3, 3), (1, 4, 16, 3, 2), (3, 2, 3, 1, 4)] {
            let input = vals(&mut rng, in_ch * h * w);
            let mut cols = Vec::new();
            im2col_2d(&input, in_ch, h, w, kh, kw, &mut cols);
            let (k, n) = (in_ch * kh * kw, h * w);
            for kk0 in 0..k {
                for j0 in (0..n).step_by(NR) {
                    let mut panel = vec![f64::NAN; (k - kk0) * NR];
                    im2col_2d_panel(&input, h, w, kh, kw, kk0, j0, &mut panel);
                    for (r, row) in panel.chunks_exact(NR).enumerate() {
                        for (jj, &v) in row.iter().enumerate() {
                            let (kk, j) = (kk0 + r, j0 + jj);
                            let want = if j < n { cols[kk * n + j] } else { 0.0 };
                            assert_eq!(v.to_bits(), want.to_bits(), "kk={kk} j={j}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_relu_clamps_negative_outputs() {
        let input = [1.0, 1.0];
        let weights = [-1.0];
        let bias = [0.25];
        let mut out = Vec::new();
        conv1d_ref(&input, 1, 2, 1, 1, &weights, &bias, Activation::Relu, &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
        conv1d_ref(&input, 1, 2, 1, 1, &weights, &bias, Activation::Identity, &mut out);
        assert_eq!(out, vec![-0.75, -0.75]);
    }

    #[test]
    fn output_reuse_across_differing_shapes_is_clean() {
        let mut rng = StdRng::seed_from_u64(17);
        // Big shape first, then small: stale tail values must not leak in.
        for (h, w) in [(8, 8), (2, 3)] {
            let input = vals(&mut rng, h * w);
            let weights = vals(&mut rng, 9);
            let bias = vals(&mut rng, 1);
            let (mut r, mut f) = (Vec::new(), Vec::new());
            conv2d_ref(&input, 1, h, w, 1, 3, 3, &weights, &bias, Activation::Identity, &mut r);
            conv2d_fast(
                &input,
                1,
                h,
                w,
                1,
                3,
                3,
                &weights,
                &bias,
                Activation::Identity,
                &mut f,
            );
            assert_eq!(bits(&r), bits(&f), "{h}x{w}");
        }
    }
}
