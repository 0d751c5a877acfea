//! The correctness gate every run must pass. A run that fails it prints
//! `"correct": false` and exits non-zero.

use crate::fixture::ExpectedRow;
use emoleak_core::{InferenceLevel, Verdict};
use emoleak_fleet::FleetStats;

/// What a session emitted for one region.
#[derive(Debug, Clone, PartialEq)]
pub struct Emitted {
    /// Window index within the campaign.
    pub window: usize,
    /// Region start within the window.
    pub start: usize,
    /// Region end within the window.
    pub end: usize,
    /// The verdict, with the rung that produced it.
    pub verdict: Verdict,
}

/// Checks one session: its emitted `(window, start, end)` sequence must be
/// exactly the batch rows, and each verdict must equal what
/// `ModelBundle::classify` gives for the same row at the same rung
/// (`classify(row index, rung)`).
///
/// # Errors
///
/// A description of the first mismatch.
pub fn check_session(
    rows: &[ExpectedRow],
    got: &[Emitted],
    mut classify: impl FnMut(usize, InferenceLevel) -> Verdict,
) -> Result<(), String> {
    if rows.len() != got.len() {
        return Err(format!(
            "{} regions emitted, the batch path finds {}",
            got.len(),
            rows.len()
        ));
    }
    for (i, (row, e)) in rows.iter().zip(got).enumerate() {
        let want = (row.window, row.rf.start, row.rf.end);
        if want != (e.window, e.start, e.end) {
            return Err(format!(
                "region {i}: emitted {:?}, batch {want:?}",
                (e.window, e.start, e.end)
            ));
        }
        let reference = classify(i, e.verdict.level);
        if reference != e.verdict {
            return Err(format!(
                "region {i}: verdict {:?}, bundle says {reference:?}",
                e.verdict
            ));
        }
    }
    Ok(())
}

/// What one fleet episode left behind.
#[derive(Debug, Clone, Copy)]
pub struct FleetOutcome {
    /// Books at the end of the run.
    pub stats: FleetStats,
    /// Defects the anti-entropy scrub reported.
    pub scrub_defects: usize,
    /// Internal errors the coordinator surfaced.
    pub internal_errors: usize,
    /// Books of the coordinator recovered from the run's directory.
    pub recovered: FleetStats,
}

/// Checks one episode: the books conserve, every offer was served, nothing
/// was lost to a crash, the scrub found nothing, and the coordinator
/// recovered from the checkpoint and journals still conserves and books
/// exactly the chunks the run offered and served, with none queued.
///
/// # Errors
///
/// A description of the first broken condition.
pub fn check_fleet(o: &FleetOutcome) -> Result<(), String> {
    let s = &o.stats;
    if !s.conserves() {
        return Err(format!("books do not conserve: {s:?}"));
    }
    if s.served != s.offered {
        return Err(format!(
            "served {} of {} offered chunks",
            s.served, s.offered
        ));
    }
    if s.crash_loss != 0 {
        return Err(format!("crash_loss {}", s.crash_loss));
    }
    if o.scrub_defects != 0 {
        return Err(format!("the scrub reported {} defect(s)", o.scrub_defects));
    }
    if o.internal_errors != 0 {
        return Err(format!("{} internal error(s)", o.internal_errors));
    }
    let r = &o.recovered;
    if !r.conserves() {
        return Err(format!(
            "the recovered coordinator does not conserve: {r:?}"
        ));
    }
    if (r.offered, r.served, r.queued, r.crash_loss) != (s.offered, s.served, 0, 0) {
        return Err(format!(
            "the recovered coordinator books {r:?}, the run booked {s:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> FleetOutcome {
        let stats = FleetStats {
            offered: 10,
            served: 10,
            ..FleetStats::default()
        };
        FleetOutcome {
            stats,
            scrub_defects: 0,
            internal_errors: 0,
            recovered: stats,
        }
    }

    #[test]
    fn the_fleet_gate_fails_a_dropped_chunk() {
        check_fleet(&clean()).expect("a clean episode passes");
        // Booked as shed: the books still conserve, but a chunk was lost.
        let mut dropped = clean();
        dropped.stats.served -= 1;
        dropped.stats.shed += 1;
        assert!(dropped.stats.conserves());
        assert!(check_fleet(&dropped).is_err());
        // Not booked at all: the books stop conserving.
        let mut leaked = clean();
        leaked.stats.served -= 1;
        assert!(check_fleet(&leaked).is_err());
    }

    #[test]
    fn the_fleet_gate_fails_crash_loss_scrub_defects_and_bad_recovery() {
        let mut o = clean();
        o.stats.crash_loss = 1;
        assert!(check_fleet(&o).is_err());
        let mut o = clean();
        o.scrub_defects = 1;
        assert!(check_fleet(&o).is_err());
        let mut o = clean();
        o.recovered.offered += 1;
        assert!(check_fleet(&o).is_err());
    }

    #[test]
    fn the_fleet_gate_fails_recovered_books_that_come_back_empty_or_short() {
        // Empty books conserve, but recovery rebuilt nothing.
        let mut o = clean();
        o.recovered = FleetStats::default();
        assert!(o.recovered.conserves());
        assert!(check_fleet(&o).is_err());
        // One served chunk missing from the replay, booked as shed.
        let mut o = clean();
        o.recovered.served -= 1;
        o.recovered.shed += 1;
        assert!(o.recovered.conserves());
        assert!(check_fleet(&o).is_err());
        // One chunk left queued after recovery.
        let mut o = clean();
        o.recovered.served -= 1;
        o.recovered.queued += 1;
        assert!(check_fleet(&o).is_err());
    }
}
