//! The streaming inference service: source → chunks → regions → verdicts.
//!
//! Three supervised worker stages connected by bounded queues:
//!
//! ```text
//! ingest ──BoundedQueue<SourceChunk>──▶ extract ──BoundedQueue<PendingRegion>──▶ classify
//! (retry w/ backoff)                   (window assembly +                       (ModelBundle +
//!                                       region detection/features)              degradation ladder)
//! ```
//!
//! * **ingest** pulls chunks from the [`SampleSource`], absorbing transient
//!   errors with seeded-backoff retries; the chunk queue's
//!   [`OverflowPolicy`] decides whether a slow pipeline exerts lossless
//!   backpressure or sheds stale chunks.
//! * **extract** reassembles chunks into playback windows and runs the same
//!   [`extract_window`] the batch pipeline uses — on a clean stream the
//!   emitted regions are *byte-identical* to a batch harvest.
//! * **classify** runs each region through the [`ModelBundle`] at the rung
//!   the [`DegradationLadder`] currently allows, feeding the ladder each
//!   region's deadline outcome.
//!
//! All three run under the [`supervisor`](crate::supervisor): a panicked
//! stage restarts on its own thread, a wedged stage fails the run after the
//! watchdog interval, and the whole run is bounded by a global timeout —
//! the service can degrade and can fail with an error, but it cannot hang
//! and it cannot crash the caller.

use crate::ladder::{DegradationLadder, LadderConfig, LevelCap};
use crate::log::{ServiceEvent, ServiceLog};
use crate::queue::{BoundedQueue, ByteGauge, OverflowPolicy, PopOutcome, PushOutcome};
use crate::retry::{retry_with_backoff, RetryError, RetryPolicy};
use crate::source::{SampleSource, SourceChunk, SourceError, ValidatingSource};
use crate::supervisor::{supervise, Heartbeat, StageWork, SupervisionError, SupervisorConfig};
use emoleak_core::online::{
    extract_window, InferenceLevel, ModelBundle, RegionFeatures, Verdict,
};
use emoleak_exec::CancellationToken;
use emoleak_features::regions::RegionDetector;
use emoleak_features::spectrogram::SpectrogramGenerator;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Consecutive exhausted retry cycles on one read before the service stops
/// treating the failures as transient and shuts down. Keeps a
/// permanently-failing "transient" source from spinning until the global
/// timeout.
const MAX_DRY_RETRY_CYCLES: u32 = 64;

/// Tuning for a [`StreamService`] run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Chunk size callers should use when building replay sources
    /// (samples; the service consumes whatever the source delivers).
    pub chunk_len: usize,
    /// Capacity of each inter-stage queue.
    pub queue_capacity: usize,
    /// What the chunk queue does when full. The region queue always
    /// blocks — loss, if allowed at all, happens at ingress only.
    pub overflow: OverflowPolicy,
    /// Per-region classification deadline.
    pub deadline: Duration,
    /// Granularity of every queue wait (workers re-check their token at
    /// this cadence; must be well below the supervisor watchdog).
    pub patience: Duration,
    /// The rung the service starts at and recovers toward (coerced to
    /// [`InferenceLevel::Classical`] when the bundle has no CNN).
    pub start_level: InferenceLevel,
    /// Degradation circuit-breaker tuning.
    pub ladder: LadderConfig,
    /// Transient-source-error retry tuning.
    pub retry: RetryPolicy,
    /// Worker supervision tuning.
    pub supervisor: SupervisorConfig,
    /// Synthetic per-rung classification latencies `[cnn, cnn-int8,
    /// classical, energy-only]` (shed is always instant). `Some` makes
    /// deadline outcomes — and therefore ladder transitions and emission
    /// labels — a pure function of the input, which tests and chaos runs
    /// rely on; `None` measures wall-clock latency.
    pub latency_override: Option<[Duration; 4]>,
    /// Chaos knob: the extract worker panics once after processing this
    /// many chunks, to exercise supervision end to end.
    pub panic_after_chunks: Option<u64>,
    /// Optional write-ahead journal: every emission and ladder transition
    /// is persisted (append + fsync) as it commits, so a killed run loses
    /// at most the region in flight (see [`crate::durable`]).
    pub durable: Option<crate::durable::DurableSink>,
    /// Optional shared memory accountant: when set, every queued chunk and
    /// pending region is charged against this gauge while it sits in a
    /// queue, so a fleet of sessions can be held to one byte budget
    /// (`emoleak-admission` enforces the budget at admission time).
    pub memory: Option<Arc<ByteGauge>>,
    /// Optional fleet-imposed quality ceiling: the classify stage runs each
    /// region at the worse of the session ladder's rung and this cap (see
    /// [`LevelCap`]). The fleet breaker lowers it for every session at once.
    pub fleet_cap: Option<Arc<LevelCap>>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            chunk_len: 256,
            queue_capacity: 64,
            overflow: OverflowPolicy::Block,
            deadline: Duration::from_millis(50),
            patience: Duration::from_millis(5),
            start_level: InferenceLevel::Cnn,
            ladder: LadderConfig::default(),
            retry: RetryPolicy::default(),
            supervisor: SupervisorConfig::default(),
            latency_override: None,
            panic_after_chunks: None,
            durable: None,
            memory: None,
            fleet_cap: None,
        }
    }
}

/// Resident cost of a queued chunk, bytes (samples + header).
fn chunk_cost(chunk: &SourceChunk) -> u64 {
    (chunk.samples.len() * 8 + 64) as u64
}

/// Resident cost of a pending region, bytes (features + optional
/// spectrogram + header).
fn region_cost(p: &PendingRegion) -> u64 {
    let spec = p.rf.spectrogram.as_ref().map_or(0, |s| s.pixels.len() * 8);
    (p.rf.features.len() * 8 + spec + 64) as u64
}

/// A region in flight between extract and classify.
#[derive(Debug, Clone)]
struct PendingRegion {
    window: usize,
    truth: usize,
    rf: RegionFeatures,
}

/// One classified region, as emitted by the service.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionEmission {
    /// Running region counter (1-based), the service's logical clock.
    pub region: u64,
    /// The playback window the region was detected in.
    pub window: usize,
    /// Region start within its window, samples.
    pub start: usize,
    /// Region end (exclusive) within its window, samples.
    pub end: usize,
    /// Ground-truth label of the window (scoring only).
    pub truth: usize,
    /// The classification verdict.
    pub verdict: Verdict,
    /// Whether this region missed its deadline.
    pub deadline_missed: bool,
    /// Classification latency (synthetic under `latency_override`).
    pub latency: Duration,
}

/// Counters accumulated across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Chunks successfully pulled from the source.
    pub chunks_ingested: u64,
    /// Chunks the extract stage consumed (differs from ingested only when
    /// an injected panic eats one or `DropOldest` evicts some).
    pub chunks_processed: u64,
    /// Playback windows reassembled.
    pub windows: u64,
    /// Regions classified.
    pub regions: u64,
    /// Transient source failures absorbed by retry.
    pub retries: u64,
    /// Chunks evicted by the `DropOldest` policy.
    pub dropped_chunks: u64,
    /// Deepest the chunk queue ever got (≤ capacity by construction).
    pub max_chunk_depth: usize,
    /// Deepest the region queue ever got (≤ capacity by construction).
    pub max_region_depth: usize,
    /// Regions that missed their deadline.
    pub deadline_misses: u64,
    /// Regions classified at each rung, `InferenceLevel::ALL` order.
    pub level_counts: [u64; 5],
    /// Worker restarts after panics.
    pub panic_restarts: u32,
}

/// Everything a completed run produced.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// All region emissions, in classification order.
    pub emissions: Vec<RegionEmission>,
    /// The resilience event log.
    pub log: ServiceLog,
    /// Run counters.
    pub stats: StreamStats,
    /// The rung the ladder ended at.
    pub final_level: InferenceLevel,
}

/// Why a run failed (as opposed to degraded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The source failed fatally (or never stopped failing transiently).
    Source(String),
    /// Supervision gave up: restart budget exhausted, a stage wedged, or
    /// the global timeout elapsed.
    Supervision {
        /// Why supervision gave up.
        error: SupervisionError,
        /// The resilience events logged up to that point.
        log: ServiceLog,
    },
}

impl core::fmt::Display for StreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StreamError::Source(why) => write!(f, "source failed: {why}"),
            StreamError::Supervision { error, .. } => write!(f, "supervision failed: {error}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Reassembles in-order chunks into whole playback windows.
///
/// Tolerates loss: if a window's tail chunk was evicted (`DropOldest`), the
/// next window's first chunk flushes the stale partial window so extraction
/// still sees it (truncated), and no window is ever silently swallowed.
#[derive(Debug, Default)]
struct Assembler {
    current: Option<(usize, usize, Vec<f64>)>,
}

impl Assembler {
    /// Feeds one chunk; returns the windows it completed (0, 1, or 2 — a
    /// stale partial flushed by a window change plus the chunk's own).
    fn feed(&mut self, chunk: SourceChunk) -> Vec<(usize, usize, Vec<f64>)> {
        let mut done = Vec::new();
        if let Some((w, _, _)) = &self.current {
            if *w != chunk.window {
                done.extend(self.current.take());
            }
        }
        let (_, _, buf) =
            self.current.get_or_insert((chunk.window, chunk.label, Vec::new()));
        buf.extend_from_slice(&chunk.samples);
        if chunk.last_in_window {
            done.extend(self.current.take());
        }
        done
    }

    /// Takes whatever partial window is left (end of stream).
    fn flush(&mut self) -> Option<(usize, usize, Vec<f64>)> {
        self.current.take()
    }
}

fn level_index(level: InferenceLevel) -> usize {
    match level {
        InferenceLevel::Cnn => 0,
        InferenceLevel::CnnInt8 => 1,
        InferenceLevel::Classical => 2,
        InferenceLevel::EnergyOnly => 3,
        InferenceLevel::Shed => 4,
    }
}

#[derive(Default)]
struct Counters {
    chunks_ingested: AtomicU64,
    chunks_processed: AtomicU64,
    windows: AtomicU64,
    regions: AtomicU64,
    retries: AtomicU64,
    deadline_misses: AtomicU64,
    level_counts: [AtomicU64; 5],
}

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The online inference service. Construct once per trained bundle, run
/// once per source.
#[derive(Debug)]
pub struct StreamService {
    bundle: Arc<ModelBundle>,
    detector: RegionDetector,
    fs: f64,
    config: StreamConfig,
}

impl StreamService {
    /// A service classifying with `bundle` over regions found by
    /// `detector` in a stream sampled at `fs` Hz. The bundle is shared
    /// (`Arc`) so one trained stack can back many runs.
    pub fn new(
        bundle: Arc<ModelBundle>,
        detector: RegionDetector,
        fs: f64,
        config: StreamConfig,
    ) -> Self {
        StreamService { bundle, detector, fs, config }
    }

    /// The configuration the service runs with.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Drains `source` to completion through the supervised pipeline.
    ///
    /// # Errors
    ///
    /// [`StreamError::Source`] on a fatal (or permanently transient)
    /// source failure, [`StreamError::Supervision`] when a stage exceeds
    /// its restart budget, a stage wedges, or the run times out.
    /// Degradation is *not* an error — an overloaded run returns `Ok` with
    /// the ladder transitions in the report.
    pub fn run(&self, source: Box<dyn SampleSource>) -> Result<StreamReport, StreamError> {
        let cfg = self.config.clone();
        // Every chunk is screened for hostile input before it enters the
        // pipeline; the first defect fails the run as a fatal source error.
        let mut source = ValidatingSource::new(source);
        let mut chunk_q = BoundedQueue::new(cfg.queue_capacity, cfg.overflow);
        let mut region_q = BoundedQueue::new(cfg.queue_capacity, OverflowPolicy::Block);
        if let Some(gauge) = &cfg.memory {
            chunk_q = chunk_q.with_meter(Arc::clone(gauge), chunk_cost);
            region_q = region_q.with_meter(Arc::clone(gauge), region_cost);
        }
        let chunk_q: Arc<BoundedQueue<SourceChunk>> = Arc::new(chunk_q);
        let region_q: Arc<BoundedQueue<PendingRegion>> = Arc::new(region_q);
        let log = Arc::new(Mutex::new(ServiceLog::new()));
        let counters = Arc::new(Counters::default());
        let fatal: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let best = self.bundle.effective_level(cfg.start_level);
        let ladder = Arc::new(Mutex::new(DegradationLadder::new(cfg.ladder, best)));
        let emissions: Arc<Mutex<Vec<RegionEmission>>> = Arc::new(Mutex::new(Vec::new()));

        // State only one stage touches lives in its closure: a restart
        // after a panic runs the same closure on the same thread.
        let ingest: StageWork = {
            let chunk_q = Arc::clone(&chunk_q);
            let region_q = Arc::clone(&region_q);
            let log = Arc::clone(&log);
            let counters = Arc::clone(&counters);
            let fatal = Arc::clone(&fatal);
            let retry = cfg.retry.clone();
            let patience = cfg.patience;
            Box::new(move |token: &CancellationToken, heartbeat: &Heartbeat| {
                let mut dry_cycles = 0u32;
                loop {
                    if token.is_cancelled() {
                        return;
                    }
                    heartbeat.beat();
                    let outcome = retry_with_backoff(&retry, token, || match source.next_chunk() {
                        Ok(v) => Ok(Ok(v)),
                        Err(SourceError::Transient(e)) => Ok(Err(e)),
                        Err(SourceError::Fatal(e)) => Err(e),
                    });
                    match outcome {
                        Ok((Some(chunk), tries)) => {
                            dry_cycles = 0;
                            if tries > 0 {
                                counters.retries.fetch_add(u64::from(tries), Ordering::Relaxed);
                                locked(&log).push(ServiceEvent::SourceRecovered {
                                    chunk: counters.chunks_ingested.load(Ordering::Relaxed),
                                    retries: tries,
                                });
                            }
                            let mut item = chunk;
                            loop {
                                if token.is_cancelled() {
                                    return;
                                }
                                match chunk_q.push(item, patience) {
                                    Ok(PushOutcome::Accepted) => break,
                                    Ok(PushOutcome::DroppedOldest) => {
                                        locked(&log).push(ServiceEvent::ChunkDropped {
                                            total: chunk_q.dropped(),
                                        });
                                        break;
                                    }
                                    Ok(PushOutcome::Closed) => return,
                                    Err(back) => {
                                        // Backpressure: consumer is busy.
                                        item = back;
                                        heartbeat.beat();
                                    }
                                }
                            }
                            counters.chunks_ingested.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok((None, _)) => {
                            chunk_q.close();
                            return;
                        }
                        Err(RetryError::Cancelled) => return,
                        Err(RetryError::Exhausted(e)) => {
                            // Still transient: start a fresh backoff cycle
                            // (the source is at-least-once, nothing is
                            // lost) — but only so many times in a row.
                            counters
                                .retries
                                .fetch_add(u64::from(retry.max_attempts.max(1)), Ordering::Relaxed);
                            dry_cycles += 1;
                            if dry_cycles > MAX_DRY_RETRY_CYCLES {
                                *locked(&fatal) =
                                    Some(format!("source never stopped failing transiently: {e}"));
                                chunk_q.close();
                                region_q.close();
                                return;
                            }
                        }
                        Err(RetryError::Permanent(e)) => {
                            *locked(&fatal) = Some(e);
                            chunk_q.close();
                            region_q.close();
                            return;
                        }
                    }
                }
            })
        };

        let extract: StageWork = {
            let chunk_q = Arc::clone(&chunk_q);
            let region_q = Arc::clone(&region_q);
            let counters = Arc::clone(&counters);
            let detector = self.detector.clone();
            let use_cnn = self.bundle.has_cnn();
            let fs = self.fs;
            let patience = cfg.patience;
            let panic_after = cfg.panic_after_chunks;
            let mut assembler = Assembler::default();
            let mut panic_fired = false;
            Box::new(move |token: &CancellationToken, heartbeat: &Heartbeat| {
                let spec_gen = use_cnn.then(SpectrogramGenerator::for_accel);
                // Detect + featurize one window, pushing its regions on.
                // `false` means the region queue closed or we were
                // cancelled: stop the stage.
                let emit_window = |window: usize, label: usize, buf: &[f64]| {
                    counters.windows.fetch_add(1, Ordering::Relaxed);
                    let ex = extract_window(buf, fs, &detector, spec_gen.as_ref(), label);
                    for rf in ex.rows {
                        let mut item = PendingRegion { window, truth: label, rf };
                        loop {
                            if token.is_cancelled() {
                                return false;
                            }
                            match region_q.push(item, patience) {
                                Ok(PushOutcome::Closed) => return false,
                                Ok(_) => break,
                                Err(back) => {
                                    item = back;
                                    heartbeat.beat();
                                }
                            }
                        }
                    }
                    true
                };
                loop {
                    if token.is_cancelled() {
                        return;
                    }
                    heartbeat.beat();
                    match chunk_q.pop(patience) {
                        PopOutcome::TimedOut => continue,
                        PopOutcome::Done => {
                            if let Some((w, l, buf)) = assembler.flush() {
                                emit_window(w, l, &buf);
                            }
                            region_q.close();
                            return;
                        }
                        PopOutcome::Item(chunk) => {
                            let n = counters.chunks_processed.fetch_add(1, Ordering::Relaxed);
                            if panic_after == Some(n) && !panic_fired {
                                panic_fired = true;
                                panic!("injected chaos panic in extract");
                            }
                            for (w, l, buf) in assembler.feed(chunk) {
                                if !emit_window(w, l, &buf) {
                                    return;
                                }
                            }
                        }
                    }
                }
            })
        };

        let classify: StageWork = {
            let region_q = Arc::clone(&region_q);
            let counters = Arc::clone(&counters);
            let ladder = Arc::clone(&ladder);
            let log = Arc::clone(&log);
            let emissions = Arc::clone(&emissions);
            let bundle = Arc::clone(&self.bundle);
            let deadline = cfg.deadline;
            let patience = cfg.patience;
            let latency_override = cfg.latency_override;
            let durable = cfg.durable.clone();
            let fleet_cap = cfg.fleet_cap.clone();
            Box::new(move |token: &CancellationToken, heartbeat: &Heartbeat| {
                loop {
                    if token.is_cancelled() {
                        return;
                    }
                    heartbeat.beat();
                    match region_q.pop(patience) {
                        PopOutcome::TimedOut => continue,
                        PopOutcome::Done => return,
                        PopOutcome::Item(p) => {
                            let mut want = locked(&ladder).level();
                            if let Some(cap) = &fleet_cap {
                                want = cap.apply(want);
                            }
                            let (verdict, latency) = match latency_override {
                                Some(lat) => {
                                    let v = bundle.classify(want, &p.rf);
                                    let l = match v.level {
                                        InferenceLevel::Cnn => lat[0],
                                        InferenceLevel::CnnInt8 => lat[1],
                                        InferenceLevel::Classical => lat[2],
                                        InferenceLevel::EnergyOnly => lat[3],
                                        InferenceLevel::Shed => Duration::ZERO,
                                    };
                                    (v, l)
                                }
                                None => {
                                    let t0 = Instant::now();
                                    let v = bundle.classify(want, &p.rf);
                                    (v, t0.elapsed())
                                }
                            };
                            let missed = latency > deadline;
                            let region = counters.regions.fetch_add(1, Ordering::Relaxed) + 1;
                            counters.level_counts[level_index(verdict.level)]
                                .fetch_add(1, Ordering::Relaxed);
                            if missed {
                                counters.deadline_misses.fetch_add(1, Ordering::Relaxed);
                            }
                            if let Some(t) = locked(&ladder).observe(missed) {
                                if let Some(sink) = &durable {
                                    sink.record_transition(region, t);
                                }
                                locked(&log).push(if t.to > t.from {
                                    ServiceEvent::Degraded { region, transition: t }
                                } else {
                                    ServiceEvent::Recovered { region, transition: t }
                                });
                            }
                            let emission = RegionEmission {
                                region,
                                window: p.window,
                                start: p.rf.start,
                                end: p.rf.end,
                                truth: p.truth,
                                verdict,
                                deadline_missed: missed,
                                latency,
                            };
                            if let Some(sink) = &durable {
                                sink.record_emission(&emission);
                            }
                            locked(&emissions).push(emission);
                        }
                    }
                }
            })
        };

        let stages = vec![("ingest", ingest), ("extract", extract), ("classify", classify)];
        let supervised = supervise(stages, &cfg.supervisor, &log);
        let fatal_message = locked(&fatal).take();
        let panic_restarts = match (supervised, fatal_message) {
            (_, Some(message)) => return Err(StreamError::Source(message)),
            (Err(error), None) => {
                return Err(StreamError::Supervision { error, log: locked(&log).clone() })
            }
            (Ok(restarts), None) => restarts,
        };

        let stats = StreamStats {
            chunks_ingested: counters.chunks_ingested.load(Ordering::Relaxed),
            chunks_processed: counters.chunks_processed.load(Ordering::Relaxed),
            windows: counters.windows.load(Ordering::Relaxed),
            regions: counters.regions.load(Ordering::Relaxed),
            retries: counters.retries.load(Ordering::Relaxed),
            dropped_chunks: chunk_q.dropped(),
            max_chunk_depth: chunk_q.max_depth(),
            max_region_depth: region_q.max_depth(),
            deadline_misses: counters.deadline_misses.load(Ordering::Relaxed),
            level_counts: [
                counters.level_counts[0].load(Ordering::Relaxed),
                counters.level_counts[1].load(Ordering::Relaxed),
                counters.level_counts[2].load(Ordering::Relaxed),
                counters.level_counts[3].load(Ordering::Relaxed),
                counters.level_counts[4].load(Ordering::Relaxed),
            ],
            panic_restarts,
        };
        let final_level = locked(&ladder).level();
        let emissions = std::mem::take(&mut *locked(&emissions));
        let log = locked(&log).clone();
        if let Some(sink) = &self.config.durable {
            sink.finish(stats.regions, final_level);
        }
        Ok(StreamReport { emissions, log, stats, final_level })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FlakySource, ReplaySource};
    use emoleak_core::online::RecordedCampaign;
    use emoleak_core::AttackScenario;
    use emoleak_phone::DeviceProfile;
    use emoleak_synth::CorpusSpec;
    use std::sync::OnceLock;

    struct Fixture {
        campaign: RecordedCampaign,
        bundle: Arc<ModelBundle>,
        detector: RegionDetector,
    }

    // Record + train once; every test replays the same tiny campaign.
    fn fixture() -> &'static Fixture {
        static FIX: OnceLock<Fixture> = OnceLock::new();
        FIX.get_or_init(|| {
            let scenario = AttackScenario::table_top(
                CorpusSpec::tess().with_clips_per_cell(2),
                DeviceProfile::oneplus_7t(),
            );
            let campaign = scenario.record_windows().unwrap();
            let bundle =
                Arc::new(ModelBundle::train(&scenario.harvest().unwrap(), 7).unwrap());
            Fixture { campaign, bundle, detector: scenario.setting.region_detector() }
        })
    }

    fn service(config: StreamConfig) -> StreamService {
        let fix = fixture();
        StreamService::new(
            Arc::clone(&fix.bundle),
            fix.detector.clone(),
            fix.campaign.fs,
            config,
        )
    }

    fn fast_config() -> StreamConfig {
        StreamConfig {
            // Everything meets the deadline: no ladder motion.
            latency_override: Some([Duration::ZERO; 4]),
            ..StreamConfig::default()
        }
    }

    #[test]
    fn assembler_reassembles_and_flushes_partials() {
        let chunk = |window, samples: &[f64], last| SourceChunk {
            window,
            offset: 0,
            samples: samples.to_vec(),
            label: window,
            last_in_window: last,
        };
        let mut a = Assembler::default();
        assert!(a.feed(chunk(0, &[1.0, 2.0], false)).is_empty());
        assert_eq!(a.feed(chunk(0, &[3.0], true)), vec![(0, 0, vec![1.0, 2.0, 3.0])]);
        // A lost tail chunk: the next window's first chunk flushes the
        // stale partial ahead of its own accumulation.
        assert!(a.feed(chunk(1, &[4.0], false)).is_empty());
        assert_eq!(
            a.feed(chunk(2, &[5.0], true)),
            vec![(1, 1, vec![4.0]), (2, 2, vec![5.0])]
        );
        assert_eq!(a.flush(), None);
    }

    #[test]
    fn clean_stream_classifies_every_batch_region_in_order() {
        let fix = fixture();
        let svc = service(fast_config());
        let source = ReplaySource::from_campaign(&fix.campaign, svc.config().chunk_len);
        let report = svc.run(Box::new(source)).unwrap();

        // Exactly the batch pipeline's rows, in window order.
        let spec_gen: Option<&SpectrogramGenerator> = None; // classical bundle
        let mut expected = Vec::new();
        for (i, (window, _truth, label)) in fix.campaign.windows.iter().enumerate() {
            let ex = extract_window(window, fix.campaign.fs, &fix.detector, spec_gen, *label);
            for rf in ex.rows {
                expected.push((i, rf.start, rf.end));
            }
        }
        let got: Vec<_> =
            report.emissions.iter().map(|e| (e.window, e.start, e.end)).collect();
        assert_eq!(got, expected);
        assert_eq!(report.stats.regions, expected.len() as u64);
        assert_eq!(report.stats.windows, fix.campaign.windows.len() as u64);
        // Clean run: nothing for the resilience machinery to do.
        assert!(report.log.events().is_empty());
        assert_eq!(report.stats.retries, 0);
        assert_eq!(report.stats.dropped_chunks, 0);
        assert_eq!(report.stats.deadline_misses, 0);
        assert_eq!(report.final_level, InferenceLevel::Classical, "no CNN: coerced");
        assert!(report.stats.max_chunk_depth <= svc.config().queue_capacity);
        // Every region got a classical label.
        assert!(report.emissions.iter().all(|e| e.verdict.label.is_some()));
    }

    #[test]
    fn flaky_source_recovers_losslessly_with_logged_retries() {
        let fix = fixture();
        let clean = service(fast_config())
            .run(Box::new(ReplaySource::from_campaign(&fix.campaign, 256)))
            .unwrap();
        let svc = service(fast_config());
        let flaky = FlakySource::new(
            ReplaySource::from_campaign(&fix.campaign, 256),
            0.4,
            0xF1A6,
        );
        let report = svc.run(Box::new(flaky)).unwrap();
        assert!(report.stats.retries > 0, "flaky source must have failed sometimes");
        assert!(report.log.source_recoveries() > 0);
        // At-least-once + retry = lossless: same emissions as the clean run.
        let labels = |r: &StreamReport| {
            r.emissions
                .iter()
                .map(|e| (e.window, e.start, e.verdict.label))
                .collect::<Vec<_>>()
        };
        assert_eq!(labels(&report), labels(&clean));
    }

    #[test]
    fn fatal_source_fails_the_run_cleanly() {
        let fix = fixture();
        let svc = service(fast_config());
        let source =
            FlakySource::new(ReplaySource::from_campaign(&fix.campaign, 256), 0.0, 1)
                .with_fatal_at(3);
        let err = svc.run(Box::new(source)).unwrap_err();
        assert!(matches!(err, StreamError::Source(ref m) if m.contains("fatal")), "{err:?}");
    }

    #[test]
    fn injected_panic_is_absorbed_and_the_run_completes() {
        let fix = fixture();
        let svc = service(StreamConfig {
            panic_after_chunks: Some(2),
            ..fast_config()
        });
        let source = ReplaySource::from_campaign(&fix.campaign, 256);
        let report = svc.run(Box::new(source)).unwrap();
        assert_eq!(report.stats.panic_restarts, 1);
        assert_eq!(report.log.panics(), 1);
        assert!(matches!(
            report.log.events()[0],
            ServiceEvent::WorkerPanicked { stage: "extract", .. }
        ));
        // The panicked chunk is lost, the rest of the stream is not.
        assert!(report.stats.regions > 0);
        assert_eq!(report.stats.chunks_processed, report.stats.chunks_ingested);
    }

    /// Replays `inner` for `healthy` reads, then blocks inside `next_chunk`
    /// until the test drops the sending half of `release`.
    struct WedgingSource {
        inner: ReplaySource,
        healthy: u32,
        entries: Arc<AtomicU64>,
        release: std::sync::mpsc::Receiver<()>,
    }

    impl SampleSource for WedgingSource {
        fn next_chunk(&mut self) -> Result<Option<SourceChunk>, SourceError> {
            if self.entries.fetch_add(1, Ordering::Relaxed) >= u64::from(self.healthy) {
                let _ = self.release.recv();
                return Ok(None);
            }
            self.inner.next_chunk()
        }
    }

    #[test]
    fn wedged_source_fails_the_run_naming_ingest_within_the_watchdog() {
        let fix = fixture();
        let watchdog = Duration::from_millis(250);
        let svc = service(StreamConfig {
            supervisor: SupervisorConfig { watchdog, ..SupervisorConfig::default() },
            ..fast_config()
        });
        let entries = Arc::new(AtomicU64::new(0));
        let (release, wait) = std::sync::mpsc::channel();
        let source = WedgingSource {
            inner: ReplaySource::from_campaign(&fix.campaign, 256),
            healthy: 3,
            entries: Arc::clone(&entries),
            release: wait,
        };
        let started = Instant::now();
        let err = svc.run(Box::new(source)).unwrap_err();
        let elapsed = started.elapsed();
        assert!(
            matches!(
                err,
                StreamError::Supervision {
                    error: SupervisionError::Wedged { stage: "ingest" },
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(elapsed < 2 * watchdog, "wedge detected after {elapsed:?}");
        // Three healthy reads, then the one read that wedged.
        assert_eq!(entries.load(Ordering::Relaxed), 4);
        drop(release);
    }

    /// Panics on every read.
    struct PanickingSource;

    impl SampleSource for PanickingSource {
        fn next_chunk(&mut self) -> Result<Option<SourceChunk>, SourceError> {
            panic!("sensor driver fault");
        }
    }

    #[test]
    fn always_panicking_source_exhausts_the_ingest_restart_budget() {
        let svc = service(fast_config());
        let budget = svc.config().supervisor.max_restarts;
        let err = svc.run(Box::new(PanickingSource)).unwrap_err();
        let StreamError::Supervision { error, log } = err else {
            panic!("expected a supervision failure, got {err:?}");
        };
        assert_eq!(
            error,
            SupervisionError::TooManyRestarts { stage: "ingest", restarts: budget + 1 }
        );
        assert_eq!(log.panics(), budget as usize + 1);
        assert!(log.events().iter().all(|e| matches!(
            e,
            ServiceEvent::WorkerPanicked { stage: "ingest", message, .. }
                if message == "sensor driver fault"
        )));
    }

    #[test]
    fn slow_rung_trips_the_ladder_and_recovery_climbs_back() {
        let fix = fixture();
        let svc = service(StreamConfig {
            // Classical blows the deadline, energy-only is instant.
            deadline: Duration::from_millis(10),
            latency_override: Some([
                Duration::from_millis(100),
                Duration::from_millis(100),
                Duration::from_millis(100),
                Duration::ZERO,
            ]),
            ladder: LadderConfig { degrade_after: 2, recover_after: 3, cooldown: 1 },
            ..StreamConfig::default()
        });
        let source = ReplaySource::from_campaign(&fix.campaign, 256);
        let report = svc.run(Box::new(source)).unwrap();
        let transitions = report.log.transitions();
        assert!(!transitions.is_empty(), "misses must trip the breaker");
        assert_eq!(
            transitions[0],
            crate::ladder::Transition {
                from: InferenceLevel::Classical,
                to: InferenceLevel::EnergyOnly
            }
        );
        // Energy-only meets the deadline, so recovery fires too (given
        // enough regions), and some regions ran on each side.
        assert!(report.stats.level_counts[2] > 0);
        assert!(report.stats.level_counts[3] > 0);
        assert!(
            transitions.iter().any(|t| t.to < t.from),
            "sustained headroom must climb back up: {transitions:?}"
        );
    }

    #[test]
    fn durable_sink_journals_every_emission_as_it_commits() {
        use crate::durable::{recover_run, DurableSink};
        let fix = fixture();
        let dir = std::env::temp_dir()
            .join(format!("emoleak-service-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.log");
        let sink = DurableSink::create(&path).unwrap();
        let svc = service(StreamConfig { durable: Some(sink.clone()), ..fast_config() });
        let source = ReplaySource::from_campaign(&fix.campaign, svc.config().chunk_len);
        let report = svc.run(Box::new(source)).unwrap();
        assert!(sink.take_error().is_none());

        let (run, defects) = recover_run(&path).unwrap();
        assert!(defects.is_empty(), "{defects:?}");
        assert!(run.complete, "clean shutdown must write the summary record");
        assert_eq!(run.emissions, report.emissions, "journal must replay the exact run");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_gauge_and_fleet_cap_govern_a_run() {
        let fix = fixture();
        let gauge = Arc::new(ByteGauge::new());
        let cap = Arc::new(LevelCap::new());
        cap.set(InferenceLevel::EnergyOnly);
        let svc = service(StreamConfig {
            memory: Some(Arc::clone(&gauge)),
            fleet_cap: Some(Arc::clone(&cap)),
            ..fast_config()
        });
        let source = ReplaySource::from_campaign(&fix.campaign, 256);
        let report = svc.run(Box::new(source)).unwrap();
        assert!(report.stats.regions > 0);
        // The fleet cap forced every region below the ladder's rung.
        assert_eq!(report.stats.level_counts[0], 0);
        assert_eq!(report.stats.level_counts[1], 0);
        assert_eq!(report.stats.level_counts[2], 0);
        assert!(report.stats.level_counts[3] > 0);
        assert!(report
            .emissions
            .iter()
            .all(|e| e.verdict.level == InferenceLevel::EnergyOnly));
        // The gauge metered real traffic and every byte was released when
        // the queues drained.
        assert!(gauge.peak() > 0, "queued chunks must be charged");
        assert_eq!(gauge.charged(), 0, "a drained run must release everything");
    }

    #[test]
    fn drop_oldest_bounds_the_queue_and_counts_evictions() {
        let fix = fixture();
        let svc = service(StreamConfig {
            queue_capacity: 2,
            overflow: OverflowPolicy::DropOldest,
            ..fast_config()
        });
        let source = ReplaySource::from_campaign(&fix.campaign, 32);
        let report = svc.run(Box::new(source)).unwrap();
        assert!(report.stats.max_chunk_depth <= 2, "bound must hold");
        // How many drops happen is timing-dependent (on a loaded box it can
        // be almost all of them); what must hold is the accounting: every
        // ingested chunk was either processed or counted as dropped, and
        // the log saw every eviction.
        let logged = report
            .log
            .events()
            .iter()
            .filter(|e| matches!(e, ServiceEvent::ChunkDropped { .. }))
            .count();
        assert_eq!(report.stats.dropped_chunks, logged as u64);
        assert_eq!(
            report.stats.chunks_processed + report.stats.dropped_chunks,
            report.stats.chunks_ingested,
        );
        assert!(report.stats.windows <= fix.campaign.windows.len() as u64);
    }
}
