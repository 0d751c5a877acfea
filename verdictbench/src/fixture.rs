//! Workload inputs: campaigns recorded from the seed, the trained bundle
//! and the session fleet a live workload serves them with.

use emoleak_admission::AdmissionConfig;
use emoleak_core::prelude::*;
use emoleak_core::{extract_window, RegionFeatures};
use emoleak_exec::derive_seed;
use emoleak_features::regions::RegionDetector;
use emoleak_features::spectrogram::SpectrogramGenerator;
use emoleak_fleet::{DiskConfig, FleetConfig, FleetService, NetConfig};
use emoleak_stream::ReplaySource;
use std::sync::Arc;

/// Corpus clips per (speaker, emotion) cell: TESS has 2 speakers × 7
/// emotions, so every campaign holds 28 windows.
pub const CLIPS_PER_CELL: usize = 2;
/// Samples per replayed chunk.
pub const CHUNK: usize = 256;

/// Campaigns in a live pool. How many regions a campaign holds varies
/// from seed to seed, and with eight campaigns the verdicts per session of
/// one seed sat a tenth below another's; 24 keep a run's mean close from
/// seed to seed.
pub const POOL_LEN: usize = 24;
/// Campaign settings of the `live_classical` pool: both settings in turn,
/// so the ear-speaker detector's 8 Hz high-pass is in the mix.
pub const CLASSICAL_POOL: [Setting; POOL_LEN] = {
    let mut pool = [Setting::TableTopLoudspeaker; POOL_LEN];
    let mut k = 1;
    while k < POOL_LEN {
        pool[k] = Setting::HandheldEarSpeaker;
        k += 2;
    }
    pool
};
/// Campaign settings of the `live_cnn` pool: table-top only. A region too
/// short for a spectrogram is classified at the classical rung, which is
/// far cheaper.
pub const CNN_POOL: [Setting; POOL_LEN] = [Setting::TableTopLoudspeaker; POOL_LEN];

/// One recorded campaign a session can replay.
pub struct PoolCampaign {
    /// Where the campaign was recorded.
    pub setting: Setting,
    /// The recorded windows.
    pub campaign: RecordedCampaign,
    /// The detector a session over this campaign runs.
    pub detector: RegionDetector,
    /// The campaign cut into chunks, cloned for every session.
    pub replay: ReplaySource,
}

/// One detected region as the batch path sees it: the reference a
/// session's emissions are checked against.
#[derive(Debug, Clone)]
pub struct ExpectedRow {
    /// Window index within the campaign.
    pub window: usize,
    /// The region's features (and spectrogram, for a CNN bundle).
    pub rf: RegionFeatures,
}

impl PoolCampaign {
    /// Every region `extract_window` finds, window by window, in order.
    pub fn expected_rows(&self, spectrograms: bool) -> Vec<ExpectedRow> {
        let spec_gen = spectrograms.then(SpectrogramGenerator::for_accel);
        let mut rows = Vec::new();
        for (i, (window, _truth, label)) in self.campaign.windows.iter().enumerate() {
            let ex = extract_window(
                window,
                self.campaign.fs,
                &self.detector,
                spec_gen.as_ref(),
                *label,
            );
            rows.extend(ex.rows.into_iter().map(|rf| ExpectedRow { window: i, rf }));
        }
        rows
    }
}

/// Everything a live workload serves from.
pub struct Fixture {
    /// Campaigns sessions draw from.
    pub pool: Vec<PoolCampaign>,
    /// The bundle every session classifies with.
    pub bundle: Arc<ModelBundle>,
    /// The session front end.
    pub service: FleetService,
}

/// The scenario of pool entry `k`; corpus and channel noise both come from
/// the seed.
pub fn scenario(setting: Setting, seed: u64, k: u64) -> AttackScenario {
    let corpus = CorpusSpec::tess()
        .with_clips_per_cell(CLIPS_PER_CELL)
        .with_seed(derive_seed(seed, 2 * k));
    let base = match setting {
        Setting::TableTopLoudspeaker => {
            AttackScenario::table_top(corpus, DeviceProfile::oneplus_7t())
        }
        Setting::HandheldEarSpeaker => {
            AttackScenario::handheld(corpus, DeviceProfile::oneplus_7t())
        }
    };
    base.with_seed(derive_seed(seed, 2 * k + 1))
}

/// The session fleet: 4 shards, every other field at its default, spelled
/// out so no environment knob can reach it.
pub fn live_fleet_config() -> FleetConfig {
    FleetConfig {
        shards: 4,
        seed: 0xE40F_1EE7,
        vnodes: 64,
        failover_after: 3,
        restart_budget: 3,
        ledger_every: 50,
        replicas: 1,
        scrub_every: 25,
        net: NetConfig::default(),
        admission: AdmissionConfig::default(),
        disk: DiskConfig::default(),
    }
}

/// Records the pool, trains the bundle on the first campaign's harvest
/// (with the spectrogram CNN when `cnn`) and builds the fleet.
///
/// # Errors
///
/// A message when recording or training fails.
pub fn build(settings: &[Setting], cnn: bool, seed: u64) -> Result<Fixture, String> {
    let mut pool = Vec::with_capacity(settings.len());
    for (k, &setting) in settings.iter().enumerate() {
        let campaign = scenario(setting, seed, k as u64)
            .record_windows()
            .map_err(|e| format!("recording campaign {k}: {e}"))?;
        let replay = ReplaySource::from_campaign(&campaign, CHUNK);
        pool.push(PoolCampaign {
            setting,
            campaign,
            detector: setting.region_detector(),
            replay,
        });
    }
    let first = settings.first().ok_or("the pool is empty")?;
    let harvest = scenario(*first, seed, 0)
        .harvest()
        .map_err(|e| format!("harvest: {e}"))?;
    let bundle = if cnn {
        ModelBundle::train_with_cnn(&harvest, derive_seed(seed, 0xC44))
    } else {
        ModelBundle::train(&harvest, derive_seed(seed, 0xC1A5))
    }
    .map_err(|e| format!("training: {e}"))?;
    Ok(Fixture {
        pool,
        bundle: Arc::new(bundle),
        service: FleetService::new(&live_fleet_config()),
    })
}
