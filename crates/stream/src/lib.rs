//! `emoleak-stream`: a resilient online inference service for the EmoLeak
//! attack pipeline.
//!
//! Where `emoleak-core`'s batch pipeline harvests a whole recorded campaign
//! at once, this crate classifies emotions *as the accelerometer stream
//! arrives*: fixed-size chunks flow through bounded queues into incremental
//! region detection, feature extraction, and per-region classification
//! under a configurable deadline.
//!
//! The crate is built around the failure modes a long-lived service meets
//! in the wild, each handled by a dedicated module:
//!
//! | failure | mechanism | module |
//! |---|---|---|
//! | transient source errors | seeded exponential backoff | [`retry`] |
//! | slow consumers | bounded queues + explicit overflow policy | [`queue`] |
//! | sustained overload | deadline-miss degradation ladder with hysteresis | [`ladder`] |
//! | worker panics | in-place restart on the stage's own thread, per-stage budget | [`supervisor`] |
//! | wedged stages | heartbeat watchdog fails the run, naming the stage | [`supervisor`] |
//!
//! Everything the resilience machinery does is recorded in a deterministic
//! [`ServiceLog`], and on a clean stream the service's emissions are
//! byte-identical to a batch harvest of the same recording — degradation
//! is observable and optional, never silent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod durable;
pub mod ladder;
pub mod log;
pub mod queue;
pub mod retry;
pub mod service;
pub mod source;
pub mod supervisor;

pub use disk::{DiskGauge, DiskGaugeConfig, DiskOutcome, DurabilityTransition};
pub use durable::{
    recover_run, ChunkAdmit, ChunkServe, DurableSink, LedgerRecord, RecoveredRun,
    REC_CHUNK_ADMIT, REC_CHUNK_SERVE, REC_DURABILITY, REC_EMISSION, REC_FLEET_TRANSITION,
    REC_LOAD_SHED, REC_RUN_SUMMARY, REC_SHARD_LEDGER, REC_TRANSITION,
};
pub use ladder::{DegradationLadder, LadderConfig, LevelCap, Transition};
pub use log::{ServiceEvent, ServiceLog};
pub use queue::{BoundedQueue, ByteGauge, OverflowPolicy, PopOutcome, PushOutcome};
pub use retry::{retry_with_backoff, RetryError, RetryPolicy};
pub use service::{
    RegionEmission, StreamConfig, StreamError, StreamReport, StreamService, StreamStats,
};
pub use source::{
    FlakySource, ReplaySource, SampleSource, SourceChunk, SourceError, ValidatingSource,
};
pub use supervisor::{SupervisionError, SupervisorConfig};

/// Commonly used types for streaming consumers.
pub mod prelude {
    pub use crate::ladder::{LadderConfig, LevelCap};
    pub use crate::queue::{ByteGauge, OverflowPolicy};
    pub use crate::service::{StreamConfig, StreamError, StreamReport, StreamService};
    pub use crate::source::{FlakySource, ReplaySource, SampleSource, ValidatingSource};
    pub use emoleak_core::online::{InferenceLevel, ModelBundle, Verdict};
}
