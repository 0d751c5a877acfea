//! Worker supervision: stages restart in place, wedges fail the run.
//!
//! The streaming pipeline's stages run as plain `std` threads, so the two
//! failure modes a long-lived service must survive are a **panic** (the
//! stage's loop unwinds) and a **wedge** (the thread lives but stops making
//! progress). `supervise` starts one thread per stage and handles both:
//!
//! * each thread runs its stage under `catch_unwind` and, after a panic,
//!   calls the same work again on the same thread, up to a restart budget;
//! * each stage beats a `Heartbeat`, and a stage that stays still for the
//!   watchdog interval fails the run at once with
//!   [`SupervisionError::Wedged`]. Nothing is respawned: a `std` thread
//!   cannot be killed, and a stage can only wedge inside something its
//!   replacement would need too (the source, the CNN or journal mutex).
//!   The run's token is cancelled and the thread left behind.
//!
//! Each thread reports its end on a completion channel, and `supervise`
//! blocks on that channel, so it returns as soon as the last stage ends.
//!
//! Stages must therefore be written re-entrantly: all progress state lives
//! outside the stage loop, in shared structures (queues, counters) or in
//! the stage's own closure (the chunk assembler), so a restarted loop
//! resumes where the panicked one stopped. Every wait is timed, so a stage
//! re-checks the token and beats even when no data flows.

use crate::log::{ServiceEvent, ServiceLog};
use emoleak_exec::CancellationToken;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Supervision tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Restarts allowed *per stage* before the service gives up.
    pub max_restarts: u32,
    /// How long a stage may go without beating its heartbeat before it is
    /// declared wedged and the run fails.
    pub watchdog: Duration,
    /// Global bound on the whole run — the final liveness backstop: if the
    /// pipeline stops converging for any reason, the run ends with
    /// [`SupervisionError::Stalled`] instead of hanging.
    pub run_timeout: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 3,
            watchdog: Duration::from_secs(2),
            run_timeout: Duration::from_secs(120),
        }
    }
}

/// A stage's liveness signal. Cheap to clone; beat it at least once per
/// loop iteration (including idle iterations).
#[derive(Debug, Clone)]
pub(crate) struct Heartbeat {
    epoch: Instant,
    /// Nanoseconds from `epoch` to the latest beat.
    last: Arc<AtomicU64>,
}

impl Default for Heartbeat {
    fn default() -> Self {
        Heartbeat { epoch: Instant::now(), last: Arc::default() }
    }
}

impl Heartbeat {
    /// Signals one unit of progress (or liveness while idle).
    pub(crate) fn beat(&self) {
        let nanos = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.last.store(nanos, Ordering::Relaxed);
    }

    /// When the heartbeat last beat (when it was made, if it never has).
    pub(crate) fn last_beat(&self) -> Instant {
        self.epoch + Duration::from_nanos(self.last.load(Ordering::Relaxed))
    }
}

/// Why supervision gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisionError {
    /// One stage exceeded its restart budget.
    TooManyRestarts {
        /// The stage that kept dying.
        stage: &'static str,
        /// Restarts it consumed.
        restarts: u32,
    },
    /// One stage's heartbeat stayed still for the whole watchdog interval.
    Wedged {
        /// The stage that stopped making progress.
        stage: &'static str,
    },
    /// The run exceeded its global timeout without completing.
    Stalled,
}

impl core::fmt::Display for SupervisionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SupervisionError::TooManyRestarts { stage, restarts } => {
                write!(f, "stage '{stage}' exceeded its restart budget ({restarts} restarts)")
            }
            SupervisionError::Wedged { stage } => {
                write!(f, "stage '{stage}' stopped beating its heartbeat")
            }
            SupervisionError::Stalled => write!(f, "run exceeded its global timeout"),
        }
    }
}

impl std::error::Error for SupervisionError {}

/// A stage's work: the whole stage loop, run until the stage's input is
/// exhausted (clean completion) or the token fires. After a panic the same
/// work is called again on the same thread.
pub(crate) type StageWork = Box<dyn FnMut(&CancellationToken, &Heartbeat) + Send>;

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs each named stage on a thread of its own until every one has
/// returned cleanly, and returns the panic restarts absorbed on the way.
///
/// Absorbed panics are appended to `log` as `WorkerPanicked` events.
///
/// # Errors
///
/// [`SupervisionError::TooManyRestarts`] when a stage panics more than
/// `max_restarts` times, [`SupervisionError::Wedged`] when a stage's
/// heartbeat stays still for `watchdog`, [`SupervisionError::Stalled`] when
/// the global `run_timeout` elapses first. Each cancels the token every
/// stage holds before returning, so cooperating stages wind down.
pub(crate) fn supervise(
    stages: Vec<(&'static str, StageWork)>,
    config: &SupervisorConfig,
    log: &Arc<Mutex<ServiceLog>>,
) -> Result<u32, SupervisionError> {
    let run_deadline = Instant::now() + config.run_timeout;
    let token = CancellationToken::new();
    // `done_tx` lives until return, so the channel can time out but never
    // disconnect while a stage is still running.
    let (done_tx, done_rx) = mpsc::channel();
    let mut live = Vec::new();
    for (index, (stage, mut work)) in stages.into_iter().enumerate() {
        let heartbeat = Heartbeat::default();
        let watched = heartbeat.clone();
        let (token, log, done_tx) = (token.clone(), Arc::clone(log), done_tx.clone());
        let max_restarts = config.max_restarts;
        let thread = std::thread::spawn(move || {
            let mut restarts = 0;
            let end = loop {
                match catch_unwind(AssertUnwindSafe(|| work(&token, &heartbeat))) {
                    Ok(()) => break Ok(restarts),
                    Err(payload) => {
                        restarts += 1;
                        log.lock().unwrap_or_else(|e| e.into_inner()).push(
                            ServiceEvent::WorkerPanicked {
                                stage,
                                restarts,
                                message: panic_text(payload),
                            },
                        );
                        if restarts > max_restarts {
                            break Err(SupervisionError::TooManyRestarts { stage, restarts });
                        }
                    }
                }
            };
            let _ = done_tx.send((index, end));
        });
        live.push(Some((stage, watched, thread)));
    }

    // A failed run leaves its threads detached: a wedged one never ends.
    let fail = |err| {
        token.cancel();
        Err(err)
    };
    let mut panic_restarts = 0;
    while live.iter().any(Option::is_some) {
        let wake = live
            .iter()
            .flatten()
            .map(|(_, hb, _)| hb.last_beat() + config.watchdog)
            .fold(run_deadline, Instant::min);
        match done_rx.recv_timeout(wake.saturating_duration_since(Instant::now())) {
            Ok((index, Ok(restarts))) => {
                if let Some((_, _, thread)) = live[index].take() {
                    // The stage has reported its end, so this waits only
                    // for its thread to exit.
                    thread.join().expect("a stage thread panics only inside catch_unwind");
                }
                panic_restarts += restarts;
            }
            Ok((_, Err(err))) => return fail(err),
            Err(_) => {
                let now = Instant::now();
                if now >= run_deadline {
                    return fail(SupervisionError::Stalled);
                }
                let wedged = live
                    .iter()
                    .flatten()
                    .find(|(_, hb, _)| now >= hb.last_beat() + config.watchdog);
                if let Some(&(stage, ..)) = wedged {
                    return fail(SupervisionError::Wedged { stage });
                }
            }
        }
    }
    Ok(panic_restarts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn test_config() -> SupervisorConfig {
        SupervisorConfig {
            max_restarts: 3,
            watchdog: Duration::from_millis(60),
            run_timeout: Duration::from_secs(20),
        }
    }

    fn fresh_log() -> Arc<Mutex<ServiceLog>> {
        Arc::new(Mutex::new(ServiceLog::new()))
    }

    fn stage(
        name: &'static str,
        work: impl FnMut(&CancellationToken, &Heartbeat) + Send + 'static,
    ) -> (&'static str, StageWork) {
        (name, Box::new(work))
    }

    #[test]
    fn clean_stages_complete_without_events() {
        let log = fresh_log();
        let hits = Arc::new(AtomicU32::new(0));
        let stages = (0..3)
            .map(|_| {
                let hits = Arc::clone(&hits);
                stage("worker", move |_, hb| {
                    hb.beat();
                    hits.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        assert_eq!(supervise(stages, &test_config(), &log), Ok(0));
        assert_eq!(hits.load(Ordering::Relaxed), 3);
        assert!(log.lock().unwrap().events().is_empty());
    }

    #[test]
    fn panicked_stage_is_restarted_and_recovers() {
        let log = fresh_log();
        let attempts = Arc::new(AtomicU32::new(0));
        let a = Arc::clone(&attempts);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let t = Arc::clone(&seen);
        let flaky = stage("flaky", move |_, hb| {
            hb.beat();
            t.lock().unwrap().push(std::thread::current().id());
            assert!(
                a.fetch_add(1, Ordering::Relaxed) >= 2,
                "intentional crash while warming up"
            );
        });
        assert_eq!(supervise(vec![flaky], &test_config(), &log), Ok(2));
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
        let threads = seen.lock().unwrap();
        assert!(threads.iter().all(|id| *id == threads[0]), "restarts stay on one thread");
        let log = log.lock().unwrap();
        assert_eq!(log.panics(), 2);
        // The panic message is captured into the log.
        assert!(matches!(
            &log.events()[0],
            ServiceEvent::WorkerPanicked { stage: "flaky", restarts: 1, message }
                if message.contains("intentional crash")
        ));
    }

    #[test]
    fn restart_budget_is_enforced() {
        let log = fresh_log();
        let doomed = stage("doomed", |_, hb| {
            hb.beat();
            panic!("always");
        });
        let err = supervise(vec![doomed], &test_config(), &log).unwrap_err();
        assert_eq!(err, SupervisionError::TooManyRestarts { stage: "doomed", restarts: 4 });
        assert_eq!(log.lock().unwrap().panics(), 4);
    }

    #[test]
    fn wedged_stage_fails_the_run_at_once() {
        let log = fresh_log();
        let config = SupervisorConfig { watchdog: Duration::from_millis(200), ..test_config() };
        let (entered_tx, entered) = mpsc::channel();
        let (released_tx, released) = mpsc::channel();
        // Wedge: stop beating but keep (cooperatively) sleeping. The
        // watchdog must fail the run, not wait for it or start a twin.
        let wedgy = stage("wedgy", move |token, hb| {
            hb.beat();
            entered_tx.send(()).unwrap();
            while !token.is_cancelled() {
                std::thread::sleep(Duration::from_millis(5));
            }
            released_tx.send(()).unwrap();
        });
        let started = Instant::now();
        let err = supervise(vec![wedgy], &config, &log).unwrap_err();
        let elapsed = started.elapsed();
        assert_eq!(err, SupervisionError::Wedged { stage: "wedgy" });
        assert!(elapsed < 2 * config.watchdog, "wedge detected after {elapsed:?}");
        assert!(log.lock().unwrap().events().is_empty());
        // The cancelled token wound the stage down, and it never ran twice.
        released.recv_timeout(Duration::from_secs(5)).expect("token cancelled");
        assert_eq!(entered.try_iter().count(), 1);
    }

    #[test]
    fn stalled_run_times_out_with_all_tokens_cancelled() {
        let log = fresh_log();
        let config = SupervisorConfig {
            run_timeout: Duration::from_millis(80),
            ..test_config()
        };
        let seen_cancel = Arc::new(AtomicU32::new(0));
        let s = Arc::clone(&seen_cancel);
        // Beats forever, never completes: only the global timeout stops it.
        let spinner = stage("spinner", move |token, hb| loop {
            hb.beat();
            if token.is_cancelled() {
                s.fetch_add(1, Ordering::Relaxed);
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        });
        let err = supervise(vec![spinner], &config, &log).unwrap_err();
        assert_eq!(err, SupervisionError::Stalled);
        // The worker observed cancellation (possibly just after supervise
        // returned; give it a beat).
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(seen_cancel.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn restarted_worker_resumes_shared_state() {
        // The contract stages are written against: progress lives in
        // shared state, so a restarted loop continues, not restarts.
        let log = fresh_log();
        let progress = Arc::new(AtomicU32::new(0));
        let p = Arc::clone(&progress);
        let resumer = stage("resumer", move |_, hb| loop {
            hb.beat();
            let n = p.fetch_add(1, Ordering::Relaxed) + 1;
            assert!(n != 5, "crash mid-stream");
            if n >= 10 {
                return;
            }
        });
        supervise(vec![resumer], &test_config(), &log).unwrap();
        assert_eq!(progress.load(Ordering::Relaxed), 10, "no work redone from scratch");
    }
}
