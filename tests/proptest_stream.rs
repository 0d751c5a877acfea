//! Property tests: random fault profiles through the batch pipeline AND
//! the streaming service — neither may ever panic, fault accounting must
//! agree between the two paths, and the service's chunk/window/region
//! accounting must balance for any input.

use emoleak::core::online::extract_window;
use emoleak::prelude::*;
use emoleak::stream::{FlakySource, ReplaySource, StreamConfig, StreamService};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn preset(which: usize) -> FaultProfile {
    match which {
        0 => FaultProfile::handheld_walking(),
        1 => FaultProfile::background_doze(),
        _ => FaultProfile::cheap_imu(),
    }
}

fn corpus() -> CorpusSpec {
    CorpusSpec::tess().with_clips_per_cell(1)
}

/// One classical bundle trained on the clean campaign backs every case:
/// the property under test is the service's totality, not the model.
fn bundle() -> Arc<ModelBundle> {
    static BUNDLE: OnceLock<Arc<ModelBundle>> = OnceLock::new();
    Arc::clone(BUNDLE.get_or_init(|| {
        let clean = AttackScenario::table_top(corpus(), DeviceProfile::oneplus_7t());
        Arc::new(ModelBundle::train(&clean.harvest().unwrap(), 7).unwrap())
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any preset at any severity, replayed through a flaky transport:
    /// batch and stream both survive, and their accounting lines up.
    #[test]
    fn random_faults_break_neither_batch_nor_stream(
        which in 0usize..3,
        severity in 0.0f64..8.0,
        fail_rate in 0.0f64..0.6,
        seed in 0u64..1_000,
        chunk_len in 64usize..512,
    ) {
        let scenario = AttackScenario::table_top(corpus(), DeviceProfile::oneplus_7t())
            .with_faults(preset(which).with_severity(severity));

        // Batch path: never panics; a campaign degraded below
        // trainability is a typed error, not a crash. When it harvests,
        // its fault totals must match the recording's.
        let campaign = scenario.record_windows().unwrap();
        if let Ok(h) = scenario.harvest() {
            prop_assert_eq!(h.faults, campaign.faults);
        }

        // Streaming path over the same faulted recording.
        let config = StreamConfig {
            latency_override: Some([Duration::ZERO; 4]),
            ..StreamConfig::default()
        };
        let capacity = config.queue_capacity;
        let service = StreamService::new(
            bundle(),
            scenario.setting.region_detector(),
            campaign.fs,
            config,
        );
        let source = FlakySource::new(
            ReplaySource::from_campaign(&campaign, chunk_len),
            fail_rate,
            seed,
        );
        let report = service.run(Box::new(source)).unwrap();

        // Accounting balances for any input.
        let s = &report.stats;
        prop_assert_eq!(s.chunks_processed + s.dropped_chunks, s.chunks_ingested);
        prop_assert!(s.max_chunk_depth <= capacity, "queue bound");
        prop_assert!(s.max_region_depth <= capacity, "queue bound");
        prop_assert_eq!(s.windows, campaign.windows.len() as u64);
        prop_assert_eq!(s.panic_restarts, 0);

        // Region-for-region agreement with batch extraction (the source is
        // lossless under `Block`, so the streams must match exactly).
        let detector = scenario.setting.region_detector();
        let batch_regions: u64 = campaign
            .windows
            .iter()
            .map(|(w, _t, l)| extract_window(w, campaign.fs, &detector, None, *l).rows.len() as u64)
            .sum();
        prop_assert_eq!(s.regions, batch_regions);

        // Retry accounting: recoveries are logged iff the transport failed.
        prop_assert_eq!(s.retries > 0, report.log.source_recoveries() > 0);
        if fail_rate == 0.0 {
            prop_assert_eq!(s.retries, 0);
        }
    }
}
