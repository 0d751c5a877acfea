//! Cooperative cancellation and deadlines for pooled and supervised tasks.
//!
//! The pool runs plain `std` threads, which cannot be killed from outside —
//! the only sound way to stop a wedged or superseded worker is for the
//! worker itself to notice and bail out. [`CancellationToken`] is that
//! signal: cheap to clone, checked between work items (or between chunks of
//! a long item), flipped once by a supervisor and never unflipped.
//! [`Deadline`] is the time-budget counterpart used by deadline-aware
//! stages: it answers "how much budget is left" without any callback or
//! timer thread.
//!
//! Both are hooks, not enforcement: a task that never checks its token runs
//! to completion. The streaming service (`emoleak-stream`) pairs them with
//! a heartbeat watchdog: a stage that stops making progress fails the run,
//! the run's token is cancelled so the other stages wind down, and the
//! stuck thread is left behind rather than replaced.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag: one writer (the supervisor), many readers
/// (the workers). Cloning shares the underlying flag.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    cancelled: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancellationToken::default()
    }

    /// Signals every holder of this token (and its clones) to stop at the
    /// next check. Idempotent; cancellation is never revoked.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// A wall-clock time budget that starts counting at construction.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Deadline { start: Instant::now(), budget }
    }

    /// Time spent since the deadline was armed.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Whether the budget is exhausted.
    pub fn expired(&self) -> bool {
        self.start.elapsed() >= self.budget
    }

    /// Remaining budget (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.budget.saturating_sub(self.start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_live_and_latches() {
        let token = CancellationToken::new();
        assert!(!token.is_cancelled());
        let clone = token.clone();
        token.cancel();
        assert!(token.is_cancelled());
        assert!(clone.is_cancelled(), "clones share the flag");
        token.cancel(); // idempotent
        assert!(token.is_cancelled());
    }

    #[test]
    fn token_crosses_threads() {
        let token = CancellationToken::new();
        let worker_view = token.clone();
        let handle = std::thread::spawn(move || {
            while !worker_view.is_cancelled() {
                std::thread::yield_now();
            }
            true
        });
        token.cancel();
        assert!(handle.join().unwrap());
    }

    #[test]
    fn deadline_expires_and_clamps() {
        let d = Deadline::within(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);

        let d = Deadline::within(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(3599));
        assert!(d.elapsed() < Duration::from_secs(1));
    }
}
