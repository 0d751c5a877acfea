//! The inline leg of the traced run: the layers a session runs, called
//! directly on the pool's windows with no streaming harness around them.

use crate::fixture::PoolCampaign;
use crate::trace::Tracer;
use emoleak_core::{extract_window, InferenceLevel, ModelBundle, RegionFeatures};
use emoleak_features::extract_all;
use emoleak_features::spectrogram::SpectrogramGenerator;

/// Durations of one kind of call, ns.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<u64>);

impl Samples {
    /// Mean, µs.
    pub fn mean_us(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<u64>() as f64 / self.0.len() as f64 / 1e3
    }

    /// Samples taken.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Per-layer call times over the inline leg.
#[derive(Debug, Default)]
pub struct InlineLeg {
    /// `RegionDetector::detect`, per window.
    pub detect: Samples,
    /// `extract_all` (Table II), per region.
    pub table2: Samples,
    /// `SpectrogramGenerator::generate`, per region.
    pub spectrogram: Samples,
    /// `extract_window` without spectrograms, per window.
    pub extract_window: Samples,
    /// `ModelBundle::classify` at the classical rung, per region.
    pub classify_classical: Samples,
    /// `ModelBundle::classify` at the energy-only rung, per region.
    pub classify_energy: Samples,
    /// Inline compute of a classical session over each pool campaign
    /// (`extract_window` for every window plus a classical classify for
    /// every region), ns per pass.
    pub campaign_inline_ns: Vec<u64>,
}

fn timed<T>(
    tracer: &Tracer,
    name: &'static str,
    group: u64,
    out: &mut Samples,
    f: impl FnOnce() -> T,
) -> T {
    let start = tracer.now_ns();
    let value = f();
    let end = tracer.now_ns();
    tracer.record(name, None, group, start, end);
    out.0.push(end - start);
    value
}

/// Runs `passes` passes over `pool`, calling each layer on its own and
/// timing every call.
pub fn run(
    pool: &[PoolCampaign],
    bundle: &ModelBundle,
    passes: usize,
    tracer: &Tracer,
) -> InlineLeg {
    let spec_gen = SpectrogramGenerator::for_accel();
    let mut leg = InlineLeg {
        campaign_inline_ns: vec![0; pool.len()],
        ..InlineLeg::default()
    };
    for pass in 0..passes {
        for (c, pc) in pool.iter().enumerate() {
            let fs = pc.campaign.fs;
            let mut inline_ns = 0;
            for (i, (window, _truth, label)) in pc.campaign.windows.iter().enumerate() {
                let group = (pass * 1_000_000 + c * 1_000 + i) as u64;
                let ex = timed(
                    tracer,
                    "core.extract_window",
                    group,
                    &mut leg.extract_window,
                    || extract_window(window, fs, &pc.detector, None, *label),
                );
                inline_ns += leg.extract_window.0.last().copied().unwrap_or(0);
                timed(tracer, "features.detect", group, &mut leg.detect, || {
                    pc.detector.detect(window, fs)
                });
                for row in &ex.rows {
                    let region = &window[row.start..row.end];
                    timed(tracer, "features.table2", group, &mut leg.table2, || {
                        extract_all(region, fs)
                    });
                    timed(
                        tracer,
                        "features.spectrogram",
                        group,
                        &mut leg.spectrogram,
                        || spec_gen.generate(region, fs, *label),
                    );
                    timed(
                        tracer,
                        "ml.classify.classical",
                        group,
                        &mut leg.classify_classical,
                        || bundle.classify(InferenceLevel::Classical, row),
                    );
                    inline_ns += leg.classify_classical.0.last().copied().unwrap_or(0);
                    timed(
                        tracer,
                        "ml.classify.energy_only",
                        group,
                        &mut leg.classify_energy,
                        || bundle.classify(InferenceLevel::EnergyOnly, row),
                    );
                }
            }
            leg.campaign_inline_ns[c] += inline_ns / passes as u64;
        }
    }
    leg
}

/// Regions of `pool` that carry a spectrogram, the CNN rung's input.
pub fn cnn_regions(pool: &[PoolCampaign]) -> Vec<RegionFeatures> {
    pool.iter()
        .flat_map(|pc| pc.expected_rows(true))
        .map(|row| row.rf)
        .filter(|rf| rf.spectrogram.is_some())
        .collect()
}

/// Classify times at rung `level` with `callers` threads sharing one
/// bundle, each classifying every region `passes` times.
pub fn classify_rung(
    bundle: &ModelBundle,
    level: InferenceLevel,
    regions: &[RegionFeatures],
    callers: usize,
    passes: usize,
    tracer: &Tracer,
    name: &'static str,
) -> Samples {
    let mut all = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|caller| {
                s.spawn(move || {
                    let mut out = Samples::default();
                    for _ in 0..passes {
                        for rf in regions {
                            let start = tracer.now_ns();
                            std::hint::black_box(bundle.classify(level, rf));
                            let end = tracer.now_ns();
                            tracer.record(name, None, caller as u64, start, end);
                            out.0.push(end - start);
                        }
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("a classify caller panicked").0);
        }
    });
    Samples(all)
}
