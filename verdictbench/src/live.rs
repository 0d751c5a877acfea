//! The live workloads: a closed loop of `StreamService` sessions admitted
//! through `FleetService::admit`, each replaying one pool campaign.

use crate::fixture::{ExpectedRow, Fixture, CHUNK};
use crate::gate::{check_session, Emitted};
use crate::metrics::{elapsed_ns, median, with_cpu_log, CpuLog};
use crate::seams::{MemVfs, SourceCounters, SpanSink, TimedSource, TimingVfs, VfsCounters};
use crate::trace::Tracer;
use emoleak_core::{InferenceLevel, ModelBundle, Verdict};
use emoleak_durable::{OsVfs, Vfs};
use emoleak_exec::derive_seed;
use emoleak_stream::{
    recover_run, DurableSink, LadderConfig, OverflowPolicy, RetryPolicy, SampleSource,
    StreamConfig, StreamService, StreamStats, SupervisorConfig,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tenants sessions are admitted for.
const TENANTS: [&str; 6] = ["amber", "brook", "coral", "dune", "ember", "fjord"];

/// When a phase stops starting sessions.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// No new session after this instant.
    At(Instant),
    /// Exactly this many sessions.
    Sessions(u64),
}

/// The probes a traced phase runs with.
#[derive(Debug, Default)]
pub struct Probe {
    /// Where spans go.
    pub tracer: Arc<Tracer>,
    /// Journal write-side totals.
    pub vfs: Arc<VfsCounters>,
    /// Source pull totals.
    pub source: Arc<SourceCounters>,
    /// Journal through `OsVfs` into the journal directory, so that the
    /// timed writes and fsyncs are the program's real calls, rather than
    /// into memory.
    pub on_disk: bool,
}

/// One session as the client saw it.
#[derive(Debug)]
pub struct SessionRecord {
    /// Job number within the phase.
    pub k: u64,
    /// Pool campaign it replayed.
    pub campaign: usize,
    /// Admit to `StreamReport`, ns (0 when refused).
    pub wall_ns: u64,
    /// Time inside `FleetService::admit`, ns.
    pub admit_ns: u64,
    /// Phase start to the session's end, ns.
    pub end_ns: u64,
    /// Regions classified.
    pub verdicts: u64,
    /// The session's stats, or why it did not run to the end.
    pub outcome: Result<StreamStats, String>,
    /// The correctness gate's verdict on its emissions.
    pub gate: Result<(), String>,
}

impl SessionRecord {
    /// Refused, errored, or a region missed its deadline or was shed.
    pub fn failed(&self) -> bool {
        match &self.outcome {
            Ok(stats) => stats.deadline_misses > 0 || stats.level_counts[4] > 0,
            Err(_) => true,
        }
    }
}

/// Slices a phase's sessions are cut into for [`Phase::verdicts_per_cpu_s`].
const SLICES: usize = 10;

/// Everything a phase produced.
#[derive(Debug)]
pub struct Phase {
    /// Sessions in job order.
    pub sessions: Vec<SessionRecord>,
    /// First session start to last session end, s.
    pub wall_s: f64,
    /// Where session 0 journaled, when the phase journals.
    pub journal: Option<PathBuf>,
    /// The process's CPU time and peak memory and the machine's stolen
    /// time through the phase.
    pub cpu: CpuLog,
}

impl Phase {
    /// Verdicts emitted.
    pub fn verdicts(&self) -> u64 {
        self.sessions.iter().map(|s| s.verdicts).sum()
    }

    /// Verdicts per second: all verdicts over the phase's wall time.
    pub fn verdicts_per_s(&self) -> f64 {
        self.verdicts() as f64 / self.wall_s
    }

    /// CPU time the process used through the phase, s.
    pub fn cpu_s(&self) -> f64 {
        self.cpu.process_s(0, u64::MAX)
    }

    /// Share of the machine's CPU time the hypervisor stole through the
    /// phase.
    pub fn stolen(&self) -> f64 {
        self.cpu.stolen_share()
    }

    /// Verdicts per second of the process's CPU time: the sessions in order
    /// of their end are cut into [`SLICES`] equal consecutive slices (a
    /// remainder of fewer than [`SLICES`] is dropped), and this is the
    /// median over the slices of their verdicts over the CPU time the
    /// process used while they ran. Time the hypervisor stole is not CPU
    /// time of the process, and the median leaves out stretches of the run
    /// that other tenants of the machine slowed. With fewer sessions than
    /// slices, all verdicts over all CPU time.
    pub fn verdicts_per_cpu_s(&self) -> f64 {
        let per = self.sessions.len() / SLICES;
        if per == 0 {
            return self.verdicts() as f64 / self.cpu_s();
        }
        let mut by_end: Vec<&SessionRecord> = self.sessions.iter().collect();
        by_end.sort_by_key(|s| s.end_ns);
        let mut from_ns = 0;
        let rates: Vec<f64> = by_end
            .chunks_exact(per)
            .take(SLICES)
            .map(|slice| {
                let to_ns = slice[per - 1].end_ns;
                let verdicts: u64 = slice.iter().map(|s| s.verdicts).sum();
                let rate = verdicts as f64 / self.cpu.process_s(from_ns, to_ns);
                from_ns = to_ns;
                rate
            })
            .collect();
        median(&rates)
    }

    /// The process's peak resident set once `n` sessions had ended (at the
    /// end when fewer ran), MB. Over a fixed count of sessions it does not
    /// grow with how many sessions a faster program fits into the run.
    pub fn peak_rss_mb_after(&self, n: usize) -> f64 {
        let mut ends: Vec<u64> = self.sessions.iter().map(|s| s.end_ns).collect();
        ends.sort_unstable();
        let at = ends.get(n.saturating_sub(1)).copied().unwrap_or(u64::MAX);
        self.cpu.peak_rss_mb_at(at)
    }

    /// Session times of admitted sessions, ms.
    pub fn session_ms(&self) -> Vec<f64> {
        self.sessions
            .iter()
            .filter(|s| s.wall_ns > 0)
            .map(|s| s.wall_ns as f64 / 1e6)
            .collect()
    }
}

/// Checks sessions as they finish, against the batch path's rows and the
/// bundle's own verdicts (cached per campaign, row and rung).
pub struct Checker<'a> {
    bundle: &'a ModelBundle,
    rows: Vec<Vec<ExpectedRow>>,
    reference: Mutex<HashMap<(usize, usize, InferenceLevel), Verdict>>,
}

impl<'a> Checker<'a> {
    /// The batch rows of every pool campaign (with spectrograms for a CNN
    /// bundle), and the reference verdicts at the rung sessions start on.
    pub fn new(fx: &'a Fixture) -> Checker<'a> {
        let bundle = fx.bundle.as_ref();
        let rows: Vec<Vec<ExpectedRow>> = fx
            .pool
            .iter()
            .map(|pc| pc.expected_rows(bundle.has_cnn()))
            .collect();
        let mut reference = HashMap::new();
        for (c, campaign_rows) in rows.iter().enumerate() {
            for (i, row) in campaign_rows.iter().enumerate() {
                let v = bundle.classify(InferenceLevel::Cnn, &row.rf);
                reference.insert((c, i, v.level), v);
            }
        }
        Checker {
            bundle,
            rows,
            reference: Mutex::new(reference),
        }
    }

    /// Checks one session's emissions.
    ///
    /// # Errors
    ///
    /// The first mismatch.
    pub fn check(&self, campaign: usize, emitted: &[Emitted]) -> Result<(), String> {
        let rows = &self.rows[campaign];
        let mut reference = self
            .reference
            .lock()
            .expect("a client panicked while checking");
        check_session(rows, emitted, |i, level| {
            reference
                .entry((campaign, i, level))
                .or_insert_with(|| self.bundle.classify(level, &rows[i].rf))
                .clone()
        })
    }
}

/// Per-region deadline of a classical session (the service default).
const DEADLINE: Duration = Duration::from_millis(50);
/// Per-region deadline of a CNN session. The bundle's CNN sits behind one
/// mutex; a classify stage that releases it with its next region already
/// queued re-takes it before a waiting session wakes, so a waiting session
/// can stall for most of another session's run. At the 50 ms default some
/// sessions then miss deadlines and drop to the int8 rung, and how many do
/// is up to the scheduler. A deadline no stall reaches keeps the work of a
/// run fixed; the stall shows in `session_p90_ms` instead.
const CNN_DEADLINE: Duration = Duration::from_secs(1);

/// The session configuration, every field spelled out. The rung starts at
/// the CNN; a bundle without one coerces it to the classical rung.
pub fn stream_config(deadline: Duration, durable: Option<DurableSink>) -> StreamConfig {
    StreamConfig {
        chunk_len: CHUNK,
        queue_capacity: 64,
        overflow: OverflowPolicy::Block,
        deadline,
        patience: Duration::from_millis(5),
        start_level: InferenceLevel::Cnn,
        ladder: LadderConfig::default(),
        retry: RetryPolicy::default(),
        supervisor: SupervisorConfig::default(),
        latency_override: None,
        panic_after_chunks: None,
        durable,
        memory: None,
        fleet_cap: None,
    }
}

fn journal_paths(dir: &Path, k: u64) -> (PathBuf, PathBuf) {
    (
        dir.join(format!("s{k}.log")),
        dir.join(format!("s{k}.replica.log")),
    )
}

/// Runs session `k`: admit, open the replicated journal when `journal_dir`
/// is set, serve the campaign, return the report.
fn run_session(
    fx: &Fixture,
    checker: &Checker,
    k: u64,
    seed: u64,
    journal_dir: Option<&Path>,
    probe: Option<&Probe>,
) -> SessionRecord {
    let draw = derive_seed(seed, k);
    let campaign = (draw % fx.pool.len() as u64) as usize;
    let tenant = TENANTS[((draw >> 32) % TENANTS.len() as u64) as usize];
    let pc = &fx.pool[campaign];
    let deadline = if fx.bundle.has_cnn() {
        CNN_DEADLINE
    } else {
        DEADLINE
    };
    let replay = pc.replay.clone();
    let root = probe.map(|p| p.tracer.open("session", None, k));
    let sink = probe.map(|p| SpanSink::new(Arc::clone(&p.tracer), root.unwrap_or(0), k));
    let mut record = SessionRecord {
        k,
        campaign,
        wall_ns: 0,
        admit_ns: 0,
        end_ns: 0,
        verdicts: 0,
        outcome: Err(String::new()),
        gate: Ok(()),
    };

    let t0 = Instant::now();
    let admit_span = probe.map(|p| p.tracer.open("admission.admit", root, k));
    let admitted = fx.service.admit(tenant, k);
    record.admit_ns = elapsed_ns(t0);
    if let (Some(p), Some(id)) = (probe, admit_span) {
        p.tracer.close(id);
    }
    let permit = match admitted {
        Ok(p) => p.permit,
        Err(e) => {
            record.outcome = Err(format!("refused: {e}"));
            return record;
        }
    };
    let mem = Arc::new(MemVfs::default());
    let on_disk = probe.is_some_and(|p| p.on_disk);
    let durable = match journal_dir {
        None => None,
        Some(dir) => {
            let (primary, replica) = journal_paths(dir, k);
            let base: Arc<dyn Vfs> = if on_disk {
                Arc::new(OsVfs)
            } else {
                mem.clone()
            };
            let vfs: Arc<dyn Vfs> = match (probe, &sink) {
                (Some(p), Some(s)) => Arc::new(TimingVfs::new(base, Arc::clone(&p.vfs), s.clone())),
                _ => base,
            };
            let span = probe.map(|p| p.tracer.open("durable.create", root, k));
            if let (Some(s), Some(id)) = (&sink, span) {
                s.reparent(id);
            }
            let created = DurableSink::create_replicated_with(&primary, &replica, vfs, None);
            if let (Some(p), Some(id)) = (probe, span) {
                p.tracer.close(id);
            }
            match created {
                Ok(s) => Some(s),
                Err(e) => {
                    record.outcome = Err(format!("journal: {e}"));
                    return record;
                }
            }
        }
    };
    let svc = StreamService::new(
        Arc::clone(&fx.bundle),
        pc.detector.clone(),
        pc.campaign.fs,
        permit.configure(stream_config(deadline, durable.clone())),
    );
    let run_span = probe.map(|p| p.tracer.open("stream.run", root, k));
    let source: Box<dyn SampleSource> = match (probe, &sink, run_span) {
        (Some(p), Some(s), Some(id)) => {
            s.reparent(id);
            Box::new(TimedSource::new(replay, Arc::clone(&p.source), s.clone()))
        }
        _ => Box::new(replay),
    };
    let report = svc.run(source);
    record.wall_ns = elapsed_ns(t0);
    if let (Some(p), Some(run), Some(root)) = (probe, run_span, root) {
        p.tracer.close(run);
        p.tracer.close(root);
    }
    drop(permit);

    let mut journal_error = durable
        .as_ref()
        .and_then(DurableSink::take_error)
        .map(|e| e.to_string());
    if let (0, Some(dir), false) = (k, journal_dir, on_disk) {
        // Session 0's journal goes to disk, for the gate to read back
        // through `recover_run`.
        let path = journal_paths(dir, 0).0;
        let written = mem
            .contents(&path)
            .ok_or("no journal was written".to_string());
        if let Err(e) = written.and_then(|b| std::fs::write(&path, b).map_err(|e| e.to_string())) {
            journal_error = Some(e);
        }
    }
    match (report, journal_error) {
        (Err(e), _) => record.outcome = Err(format!("session error: {e}")),
        (Ok(_), Some(e)) => record.outcome = Err(format!("journal error: {e}")),
        (Ok(r), None) => {
            let emitted: Vec<Emitted> = r
                .emissions
                .into_iter()
                .map(|e| Emitted {
                    window: e.window,
                    start: e.start,
                    end: e.end,
                    verdict: e.verdict,
                })
                .collect();
            record.verdicts = emitted.len() as u64;
            record.gate = checker.check(campaign, &emitted);
            record.outcome = Ok(r.stats);
        }
    }
    record
}

/// Runs a closed loop of `in_flight` clients until `stop`, each starting
/// its next session only when the previous one has returned and been
/// checked.
pub fn run_phase(
    fx: &Fixture,
    checker: &Checker,
    in_flight: usize,
    stop: Stop,
    seed: u64,
    journal_dir: Option<&Path>,
    probe: Option<&Probe>,
) -> Phase {
    let next = AtomicU64::new(0);
    let sessions = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let ((), cpu) = with_cpu_log(t0, || {
        std::thread::scope(|s| {
            for _ in 0..in_flight {
                s.spawn(|| loop {
                    match stop {
                        Stop::At(at) if Instant::now() >= at => return,
                        _ => {}
                    }
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if matches!(stop, Stop::Sessions(n) if k >= n) {
                        return;
                    }
                    let mut rec = run_session(fx, checker, k, seed, journal_dir, probe);
                    rec.end_ns = elapsed_ns(t0);
                    sessions
                        .lock()
                        .expect("a client panicked holding the results")
                        .push(rec);
                });
            }
        })
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut sessions = sessions
        .into_inner()
        .expect("a client panicked holding the results");
    sessions.sort_by_key(|r| r.k);
    Phase {
        sessions,
        wall_s,
        journal: journal_dir.map(|d| journal_paths(d, 0).0),
        cpu,
    }
}

/// The gate over a whole phase: every session checked clean, and session
/// 0's journal, read back by `recover_run`, holds what the session emitted.
///
/// # Errors
///
/// A description of the first failure.
pub fn gate(phase: &Phase) -> Result<(), String> {
    for rec in &phase.sessions {
        rec.gate
            .clone()
            .map_err(|e| format!("session {} (campaign {}): {e}", rec.k, rec.campaign))?;
    }
    if let Some(path) = &phase.journal {
        let first = phase.sessions.first().ok_or("the phase ran no session")?;
        let (run, _defects) =
            recover_run(path).map_err(|e| format!("reading back {}: {e}", path.display()))?;
        if run.emissions.len() as u64 != first.verdicts || !run.complete {
            return Err(format!(
                "journal of session 0 holds {} emissions (complete: {}), the session emitted {}",
                run.emissions.len(),
                run.complete,
                first.verdicts
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{self, CLASSICAL_POOL};
    use emoleak_stream::{ReplaySource, SourceChunk, SourceError};

    /// Replays a campaign but loses the first chunk of window 1.
    struct LosesAChunk(ReplaySource);

    impl SampleSource for LosesAChunk {
        fn next_chunk(&mut self) -> Result<Option<SourceChunk>, SourceError> {
            let chunk = self.0.next_chunk()?;
            match chunk {
                Some(c) if c.window == 1 && c.offset == 0 => self.0.next_chunk(),
                other => Ok(other),
            }
        }
    }

    fn serve(fx: &Fixture, source: Box<dyn SampleSource>) -> Vec<Emitted> {
        let pc = &fx.pool[0];
        let svc = StreamService::new(
            Arc::clone(&fx.bundle),
            pc.detector.clone(),
            pc.campaign.fs,
            stream_config(DEADLINE, None),
        );
        let report = svc.run(source).expect("a clean replay serves");
        report
            .emissions
            .into_iter()
            .map(|e| Emitted {
                window: e.window,
                start: e.start,
                end: e.end,
                verdict: e.verdict,
            })
            .collect()
    }

    #[test]
    fn the_gate_fails_a_flipped_verdict_and_a_dropped_chunk() {
        let fx = fixture::build(&CLASSICAL_POOL[..1], false, 7).expect("fixture");
        let checker = Checker::new(&fx);
        let clean = serve(&fx, Box::new(fx.pool[0].replay.clone()));
        assert!(!clean.is_empty());
        checker.check(0, &clean).expect("a clean session passes");

        let mut flipped = clean.clone();
        let classes = fx.bundle.class_names().len();
        let v = &mut flipped[clean.len() / 2].verdict;
        v.label = v.label.map(|l| (l + 1) % classes);
        assert!(
            checker.check(0, &flipped).is_err(),
            "a flipped verdict must fail"
        );

        let dropped = serve(&fx, Box::new(LosesAChunk(fx.pool[0].replay.clone())));
        assert!(
            checker.check(0, &dropped).is_err(),
            "a dropped chunk must fail"
        );
    }

    #[test]
    fn a_traced_journaled_phase_passes_the_gate() {
        let fx = fixture::build(&CLASSICAL_POOL, false, 3).expect("fixture");
        let checker = Checker::new(&fx);
        let dir = PathBuf::from(".verdictbench").join(format!("test-live-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("test dir");
        let probe = Probe::default();
        let phase = run_phase(
            &fx,
            &checker,
            2,
            Stop::Sessions(6),
            3,
            Some(&dir),
            Some(&probe),
        );
        let verdict = gate(&phase);
        std::fs::remove_dir_all(&dir).expect("test dir");
        verdict.expect("the gate passes");
        assert_eq!(phase.sessions.len(), 6);
        assert!(phase.sessions.iter().all(|s| !s.failed()));
        // Both seams saw the sessions: every emission was appended and
        // synced, and every chunk (plus each end of stream) was pulled.
        let writes = probe.vfs.writes.load(Ordering::Relaxed);
        assert!(writes >= phase.verdicts());
        assert_eq!(writes, probe.vfs.fsyncs.load(Ordering::Relaxed));
        let chunks: u64 = phase
            .sessions
            .iter()
            .map(|s| s.outcome.as_ref().map_or(0, |st| st.chunks_ingested))
            .sum();
        assert_eq!(probe.source.pulls.load(Ordering::Relaxed), chunks + 6);
    }
}
