//! Differential property tests for the hot-path kernels.
//!
//! The optimized kernels in `emoleak-kernels` (and the fast paths they back
//! in `dsp`, `features` and `ml`) promise **bit-identity** with the scalar
//! reference implementations on the f64 path — not closeness, equality of
//! every output bit. These tests hold that line across random shapes and
//! values by driving the explicit-mode seams (`*_in_mode`, `*_ref`/`*_fast`,
//! `Sequential::{try_forward, infer}`) directly, so no test ever mutates
//! the process-global `EMOLEAK_KERNELS` variable (that end-to-end angle
//! lives in `tests/kernel_parity.rs`, which owns the variable in its own
//! test binary).

use emoleak::dsp::fft::Fft;
use emoleak::dsp::{Complex, StftConfig};
use emoleak::features::{freq_domain, time_domain};
use emoleak::kernels::conv::{conv1d_fast, conv1d_ref, conv2d_fast, conv2d_ref};
use emoleak::kernels::gemm::{gemm_fast, gemm_ref};
use emoleak::kernels::{Activation, KernelMode};
use emoleak::ml::nn::{
    feature_cnn_scaled, spectrogram_cnn_scaled, Sequential, Tensor, TrainConfig,
};
use proptest::prelude::*;

/// Bit-level equality: `a == b` as u64 payloads, so NaNs and signed zeros
/// compare by representation, not by IEEE semantics.
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One Adam step on `(input, label)`, so biases (and batch-norm running
/// statistics) leave their initial values before the logits are compared.
fn nudge(net: &mut Sequential, input: &Tensor, label: usize) {
    let cfg = TrainConfig { epochs: 1, batch_size: 1, learning_rate: 1e-2, seed: 1 };
    net.fit(std::slice::from_ref(input), &[label], &[], &[], &cfg);
}

/// The inference pass's logits on fast kernels equal the training-path
/// forward's logits on reference kernels bit for bit (and so does the
/// inference pass on reference kernels).
fn logits_agree(net: &mut Sequential, input: &Tensor) -> Result<(), String> {
    let reference = net.try_forward(input, false, KernelMode::Reference).unwrap();
    let fast = net.infer(input, KernelMode::Fast).unwrap();
    let infer_ref = net.infer(input, KernelMode::Reference).unwrap();
    prop_assert_eq!(&reference.shape, &fast.shape);
    prop_assert!(reference.data.iter().all(|v| v.is_finite()));
    prop_assert!(bits_eq(&reference.data, &fast.data));
    prop_assert!(bits_eq(&reference.data, &infer_ref.data));
    Ok(())
}

fn act_of(relu: bool) -> Activation {
    if relu {
        Activation::Relu
    } else {
        Activation::Identity
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The register-tiled GEMM performs the identical per-element rounding
    /// sequence as the scalar reference — bit-identical for all inputs,
    /// including a non-zero preloaded C (the bias-preload idiom). Shapes
    /// cross the row- and column-tile remainders, `k = 1` (the 1x1 conv)
    /// and the packed panel's depth.
    #[test]
    fn gemm_fast_is_bit_identical(
        m in 1usize..12,
        k_pick in 0usize..3,
        k_raw in 2usize..80,
        n in 1usize..40,
        vals in prop::collection::vec(-100.0f64..100.0, 11 * 275 + 275 * 39 + 11 * 39),
    ) {
        // k = 1, a short k, or one straddling the 256-row panel.
        let k = [1, k_raw, 236 + k_raw / 2][k_pick];
        let a = &vals[..m * k];
        let b = &vals[m * k..m * k + k * n];
        let seed = &vals[m * k + k * n..m * k + k * n + m * n];
        let mut c_ref = seed.to_vec();
        let mut c_fast = seed.to_vec();
        gemm_ref(m, k, n, a, b, &mut c_ref);
        gemm_fast(m, k, n, a, b, &mut c_fast);
        prop_assert!(bits_eq(&c_ref, &c_fast));
    }

    /// Implicit-im2col + GEMM 2-D convolution matches the direct reference
    /// loop bit for bit across random shapes, kernels, biases, fused ReLU
    /// and all-zero input channels.
    #[test]
    fn conv2d_fast_is_bit_identical(
        in_ch in 1usize..4,
        h in 3usize..9,
        w in 3usize..9,
        out_ch in 1usize..5,
        kh in 1usize..4,
        kw in 1usize..4,
        relu in 0u32..2,
        dead in 0usize..8,
        part in 0usize..8,
        vals in prop::collection::vec(-10.0f64..10.0, 3 * 8 * 8 + 4 * 3 * 3 * 3 + 4),
    ) {
        // Bit `c` of `dead` zeroes input channel `c`, as a ReLU that
        // silences a whole channel does (the fast path skips such
        // channels); bit `c` of `part` zeroes only its first half.
        let mut input = vals[..in_ch * h * w].to_vec();
        for (c, channel) in input.chunks_exact_mut(h * w).enumerate() {
            if dead >> c & 1 == 1 {
                channel.fill(0.0);
            } else if part >> c & 1 == 1 {
                channel[..h * w / 2].fill(0.0);
            }
        }
        let input = &input[..];
        let woff = 3 * 8 * 8;
        let weights = &vals[woff..woff + out_ch * in_ch * kh * kw];
        let boff = woff + 4 * 3 * 3 * 3;
        let bias = &vals[boff..boff + out_ch];
        let act = act_of(relu == 1);
        let mut out_ref = Vec::new();
        let mut out_fast = Vec::new();
        conv2d_ref(input, in_ch, h, w, out_ch, kh, kw, weights, bias, act, &mut out_ref);
        conv2d_fast(input, in_ch, h, w, out_ch, kh, kw, weights, bias, act, &mut out_fast);
        prop_assert!(bits_eq(&out_ref, &out_fast));
    }

    /// Same contract for the 1-D convolution backing the feature CNN.
    #[test]
    fn conv1d_fast_is_bit_identical(
        in_ch in 1usize..5,
        l in 2usize..40,
        out_ch in 1usize..6,
        k in 1usize..6,
        relu in 0u32..2,
        vals in prop::collection::vec(-10.0f64..10.0, 4 * 39 + 5 * 4 * 5 + 5),
    ) {
        let input = &vals[..in_ch * l];
        let woff = 4 * 39;
        let weights = &vals[woff..woff + out_ch * in_ch * k];
        let boff = woff + 5 * 4 * 5;
        let bias = &vals[boff..boff + out_ch];
        let act = act_of(relu == 1);
        let mut out_ref = Vec::new();
        let mut out_fast = Vec::new();
        conv1d_ref(input, in_ch, l, out_ch, k, weights, bias, act, &mut out_ref);
        conv1d_fast(input, in_ch, l, out_ch, k, weights, bias, act, &mut out_fast);
        prop_assert!(bits_eq(&out_ref, &out_fast));
    }

    /// The scratch-buffer real FFT is bit-identical to the allocating one,
    /// and the scratch survives reuse across different signal lengths.
    #[test]
    fn fft_into_is_bit_identical_and_round_trips(
        signal in prop::collection::vec(-50.0f64..50.0, 1..257),
    ) {
        let n = signal.len().next_power_of_two().max(8);
        let fft = Fft::new(n);
        let alloc = fft.forward_real(&signal);
        let mut scratch: Vec<Complex> = Vec::new();
        let mut out: Vec<Complex> = Vec::new();
        // Dirty the buffers with a different-length transform first: reuse
        // must not leak state between calls.
        fft.forward_real_into(&signal[..signal.len() / 2], &mut scratch, &mut out);
        fft.forward_real_into(&signal, &mut scratch, &mut out);
        prop_assert_eq!(alloc.len(), out.len());
        for (a, b) in alloc.iter().zip(&out) {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        // And the plan still round-trips: forward then inverse is identity.
        let mut buf: Vec<Complex> =
            signal.iter().map(|&v| Complex::from_real(v)).collect();
        buf.resize(n, Complex::ZERO);
        fft.forward(&mut buf);
        fft.inverse(&mut buf);
        for (z, &v) in buf.iter().zip(&signal) {
            prop_assert!((z.re - v).abs() < 1e-9);
            prop_assert!(z.im.abs() < 1e-9);
        }
    }

    /// The power-spectrum scratch path matches the allocating path bitwise.
    #[test]
    fn power_spectrum_into_is_bit_identical(
        signal in prop::collection::vec(-50.0f64..50.0, 1..200),
    ) {
        let n = signal.len().next_power_of_two().max(8);
        let fft = Fft::new(n);
        let alloc = fft.power_spectrum(&signal);
        let mut scratch: Vec<Complex> = Vec::new();
        let mut out: Vec<f64> = Vec::new();
        fft.power_spectrum_into(&signal, &mut scratch, &mut out);
        prop_assert!(bits_eq(&alloc, &out));
    }

    /// The in-place STFT produces byte-identical spectrograms to the
    /// per-frame-allocating reference across random frame/hop geometry.
    #[test]
    fn stft_fast_is_bit_identical(
        signal in prop::collection::vec(-1.0f64..1.0, 64..1500),
        frame_pow in 4u32..8,
        hop_div in 1usize..5,
    ) {
        let frame_len = 1usize << frame_pow;
        let hop = (frame_len / hop_div).max(1);
        let cfg = StftConfig::new(frame_len, hop);
        let reference = cfg.spectrogram_in_mode(&signal, 420.0, KernelMode::Reference);
        let fast = cfg.spectrogram_in_mode(&signal, 420.0, KernelMode::Fast);
        match (reference, fast) {
            (Ok(r), Ok(f)) => {
                prop_assert_eq!(r.num_frames(), f.num_frames());
                prop_assert_eq!(r.num_bins(), f.num_bins());
                prop_assert!(bits_eq(r.as_flat(), f.as_flat()));
            }
            (Err(re), Err(fe)) => prop_assert_eq!(re, fe),
            (r, f) => prop_assert!(false, "modes disagree on fallibility: {r:?} vs {f:?}"),
        }
    }

    /// Fused single-pass Table-II time-domain extraction is bit-identical
    /// to the twelve independent reference statistics.
    #[test]
    fn time_features_fused_is_bit_identical(
        region in prop::collection::vec(-5.0f64..5.0, 0..400),
    ) {
        let reference = time_domain::extract_in_mode(&region, KernelMode::Reference);
        let fast = time_domain::extract_in_mode(&region, KernelMode::Fast);
        prop_assert!(bits_eq(&reference, &fast));
    }

    /// Fused spectrum walk + FFT-plan reuse in the frequency-domain
    /// extractor is bit-identical to the reference.
    #[test]
    fn freq_features_fused_is_bit_identical(
        region in prop::collection::vec(-5.0f64..5.0, 0..600),
        fs in 100.0f64..1000.0,
    ) {
        let reference = freq_domain::extract_in_mode(&region, fs, KernelMode::Reference);
        let fast = freq_domain::extract_in_mode(&region, fs, KernelMode::Fast);
        prop_assert!(bits_eq(&reference, &fast));
    }
}

proptest! {
    // Whole networks, the widest at the paper's full width: few cases.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The spectrogram CNN's inference pass (fused ReLU, skipped dropout,
    /// pooling without argmax, register-tiled convolutions) reproduces the
    /// training-path logits bit for bit at the paper's width (divisor 1),
    /// the deployed width (4) and the narrow test width (8).
    #[test]
    fn spectrogram_cnn_infer_logits_are_bit_identical(
        seed in 0u64..u64::MAX,
        label in 0usize..7,
        pixels in prop::collection::vec(-80.0f64..5.0, 32 * 32),
    ) {
        let input = Tensor::from_shape(&[1, 32, 32], pixels);
        for divisor in [1, 4, 8] {
            let mut net = spectrogram_cnn_scaled(7, seed, divisor);
            // Training the paper-width net costs seconds in debug builds;
            // its He-initialized weights already exercise every kernel.
            if divisor > 1 {
                nudge(&mut net, &input, label);
            }
            logits_agree(&mut net, &input)?;
        }
    }

    /// Same for the feature CNN: Conv1d, BatchNorm1d (running statistics)
    /// and MaxPool1d.
    #[test]
    fn feature_cnn_infer_logits_are_bit_identical(
        seed in 0u64..u64::MAX,
        label in 0usize..7,
        div_pick in 0usize..3,
        row in prop::collection::vec(-5.0f64..5.0, 24),
    ) {
        let input = Tensor::from_shape(&[1, 24], row);
        let mut net = feature_cnn_scaled(24, 7, seed, [1, 4, 8][div_pick]);
        nudge(&mut net, &input, label);
        logits_agree(&mut net, &input)?;
    }
}
