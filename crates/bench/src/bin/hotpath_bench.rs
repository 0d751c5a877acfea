//! Per-stage microbenchmark of the per-verdict critical path, published to
//! `BENCH_hotpath.json`.
//!
//! Times each hot-loop stage — real FFT, STFT spectrogram, bilinear
//! resize, Table-II feature extraction, the conv2d kernel, and the full
//! CNN forward pass — under both `EMOLEAK_KERNELS` modes (ns/op), plus the
//! end-to-end streaming cost in µs per emitted verdict. Wall-clock numbers
//! vary by machine; the artifact exists so a perf regression in any stage
//! is visible next to the bit-exactness tests that constrain how the fast
//! path may be optimized.
//!
//! Knobs: `EMOLEAK_HOTPATH_ITERS` (inner iterations per stage, default
//! 200; CI smoke runs use a small value), `EMOLEAK_HOTPATH_JSON` (output
//! path, default `BENCH_hotpath.json` under `EMOLEAK_RESULTS_DIR`).

use emoleak_bench::{results_dir, write_result};
use emoleak_core::online::extract_window;
use emoleak_core::pipeline::cnn_width_divisor;
use emoleak_core::prelude::*;
use emoleak_dsp::fft::Fft;
use emoleak_dsp::{Complex, StftConfig};
use emoleak_features::spectrogram::IMAGE_SIZE;
use emoleak_features::{freq_domain, time_domain};
use emoleak_kernels::conv::{conv2d_fast, conv2d_ref};
use emoleak_kernels::{Activation, KernelMode};
use emoleak_ml::nn::{spectrogram_cnn_scaled, QuantizedCnn, Tensor};
use emoleak_stream::{ReplaySource, StreamConfig, StreamService};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Mean ns per call of `f` over `iters` iterations (one untimed warm-up).
fn time_ns<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// A deterministic multi-tone test signal (no RNG: reruns are comparable).
fn signal(n: usize, fs: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64 / fs;
            (2.0 * std::f64::consts::PI * 55.0 * t).sin()
                + 0.5 * (2.0 * std::f64::consts::PI * 130.0 * t).sin()
                + 0.25 * (2.0 * std::f64::consts::PI * 34.0 * t).sin()
        })
        .collect()
}

struct Stage {
    name: &'static str,
    reference_ns: f64,
    fast_ns: f64,
}

fn main() -> Result<(), EmoleakError> {
    let iters: usize = emoleak_exec::parse_checked(
        "EMOLEAK_HOTPATH_ITERS",
        "a positive iteration count",
        |&n: &usize| n > 0,
    )?
    .unwrap_or(200);
    println!("Hot-path microbench: {iters} iterations per stage");

    let fs = 420.0;
    let sig = signal(4096, fs);
    let mut stages: Vec<Stage> = Vec::new();

    // --- fft: one 512-point real transform --------------------------------
    {
        let fft = Fft::new(512);
        let frame = &sig[..512];
        let reference_ns = time_ns(iters, || {
            black_box(fft.forward_real(black_box(frame)));
        });
        let mut scratch: Vec<Complex> = Vec::new();
        let mut out: Vec<Complex> = Vec::new();
        let fast_ns = time_ns(iters, || {
            fft.forward_real_into(black_box(frame), &mut scratch, &mut out);
            black_box(&out);
        });
        stages.push(Stage { name: "fft", reference_ns, fast_ns });
    }

    // --- stft: full spectrogram of the 4096-sample signal -----------------
    let stft = StftConfig::new(256, 64);
    for_mode_pair(&mut stages, "stft", iters, |mode| {
        black_box(stft.spectrogram_in_mode(black_box(&sig), fs, mode).unwrap());
    });

    // --- resize: spectrogram -> 32x32 dB image (single implementation) ----
    {
        let spec = stft.spectrogram(&sig, fs).unwrap();
        let ns = time_ns(iters, || {
            black_box(black_box(&spec).resize_db(IMAGE_SIZE, IMAGE_SIZE, -80.0));
        });
        stages.push(Stage { name: "resize", reference_ns: ns, fast_ns: ns });
    }

    // --- features: the 24 Table-II statistics on one speech region --------
    let region = &sig[..400];
    for_mode_pair(&mut stages, "features", iters, |mode| {
        black_box(time_domain::extract_in_mode(black_box(region), mode));
        black_box(freq_domain::extract_in_mode(black_box(region), fs, mode));
    });

    // --- conv: one CNN-shaped conv2d (8 ch out, 3x3 over 32x32) -----------
    {
        let (in_ch, h, w, out_ch, kh, kw) = (4usize, IMAGE_SIZE, IMAGE_SIZE, 8usize, 3usize, 3usize);
        let input: Vec<f64> = (0..in_ch * h * w).map(|i| (i as f64 * 0.37).sin()).collect();
        let weights: Vec<f64> =
            (0..out_ch * in_ch * kh * kw).map(|i| (i as f64 * 0.11).cos() * 0.1).collect();
        let bias = vec![0.01; out_ch];
        let mut out = Vec::new();
        let reference_ns = time_ns(iters, || {
            conv2d_ref(
                black_box(&input), in_ch, h, w, out_ch, kh, kw,
                &weights, &bias, Activation::Relu, &mut out,
            );
            black_box(&out);
        });
        let fast_ns = time_ns(iters, || {
            conv2d_fast(
                black_box(&input), in_ch, h, w, out_ch, kh, kw,
                &weights, &bias, Activation::Relu, &mut out,
            );
            black_box(&out);
        });
        stages.push(Stage { name: "conv", reference_ns, fast_ns });
    }

    // --- forward: the full spectrogram CNN, both modes + the int8 rung ----
    let int8_forward_ns;
    {
        // At the deployed width (`EMOLEAK_CNN_DIV`, default 4): a narrower
        // net hides the cost of the 3x3 convolutions.
        let net = spectrogram_cnn_scaled(7, 0xBE7C, cnn_width_divisor()?);
        let pixels: Vec<f64> =
            (0..IMAGE_SIZE * IMAGE_SIZE).map(|i| (i as f64 * 0.017).sin()).collect();
        let input = Tensor::from_shape(&[1, IMAGE_SIZE, IMAGE_SIZE], pixels);
        for_mode_pair(&mut stages, "forward", iters, |mode| {
            black_box(net.infer(black_box(&input), mode).unwrap());
        });
        let quant = QuantizedCnn::from_sequential(&net)
            .expect("the spectrogram CNN must lower to int8");
        int8_forward_ns = time_ns(iters, || {
            black_box(quant.predict(black_box(&input)));
        });
    }

    // --- end to end: µs per verdict through the streaming service --------
    let scenario = AttackScenario::table_top(
        CorpusSpec::tess().with_clips_per_cell(2),
        DeviceProfile::oneplus_7t(),
    );
    let harvest = scenario.harvest()?;
    let bundle = Arc::new(ModelBundle::train(&harvest, 7)?);
    let campaign = scenario.record_windows()?;
    let detector = scenario.setting.region_detector();
    // Sanity anchor: the batch-side extraction agrees with what streams.
    let ex = extract_window(&campaign.windows[0].0, campaign.fs, &detector, None, 0);
    let mut e2e = Vec::new();
    for mode in ["reference", "fast"] {
        std::env::set_var(emoleak_kernels::ENV_KERNELS, mode);
        let svc = StreamService::new(
            Arc::clone(&bundle),
            detector.clone(),
            campaign.fs,
            StreamConfig::default(),
        );
        let t0 = Instant::now();
        let report =
            svc.run(Box::new(ReplaySource::from_campaign(&campaign, 256))).unwrap();
        let us = t0.elapsed().as_micros() as f64 / report.stats.regions.max(1) as f64;
        e2e.push((mode, us, report.stats.regions));
        std::env::remove_var(emoleak_kernels::ENV_KERNELS);
    }
    assert!(!ex.rows.is_empty() && e2e.iter().all(|(_, _, r)| *r > 0));

    for s in &stages {
        let speedup = s.reference_ns / s.fast_ns.max(1.0);
        println!(
            "{:<8} reference {:>10.0} ns/op   fast {:>10.0} ns/op   ({speedup:.2}x)",
            s.name, s.reference_ns, s.fast_ns
        );
    }
    println!("forward-int8 {int8_forward_ns:>10.0} ns/op (lossy rung)");
    for (mode, us, regions) in &e2e {
        println!("end-to-end {mode:<9} {us:>8.1} us/verdict over {regions} region(s)");
    }

    let mut json = String::from("{\n  \"iters\": ");
    json.push_str(&format!("{iters},\n  \"stages_ns_per_op\": {{\n"));
    for (i, s) in stages.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"reference\": {:.1}, \"fast\": {:.1}}}{}\n",
            s.name,
            s.reference_ns,
            s.fast_ns,
            if i + 1 < stages.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  }},\n  \"forward_int8_ns_per_op\": {int8_forward_ns:.1},\n  \
         \"end_to_end_us_per_verdict\": {{\"reference\": {:.2}, \"fast\": {:.2}}},\n  \
         \"regions\": {}\n}}\n",
        e2e[0].1, e2e[1].1, e2e[0].2
    ));
    let path = std::env::var("EMOLEAK_HOTPATH_JSON")
        .map_or_else(|_| results_dir().join("BENCH_hotpath.json"), Into::into);
    match write_result(&path, json.as_bytes()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("could not write {} ({e}); JSON follows:\n{json}", path.display()),
    }
    Ok(())
}

/// Times `f` under both kernel modes and records the pair as one stage.
fn for_mode_pair<F: FnMut(KernelMode)>(
    stages: &mut Vec<Stage>,
    name: &'static str,
    iters: usize,
    mut f: F,
) {
    let reference_ns = time_ns(iters, || f(KernelMode::Reference));
    let fast_ns = time_ns(iters, || f(KernelMode::Fast));
    stages.push(Stage { name, reference_ns, fast_ns });
}
