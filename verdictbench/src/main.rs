//! `verdictbench`: the repository benchmark.
//!
//! Two workloads drive the real serving stack from outside, through its
//! public functions only:
//!
//! - `live_classical`: a closed loop of `nproc` `StreamService` sessions,
//!   each admitted by `FleetService::admit` and journaled through a
//!   replicated `DurableSink`, over table-top and ear-speaker campaigns
//!   with a classical bundle;
//! - `live_cnn`: the same loop over table-top campaigns with a CNN bundle
//!   and no journal.
//!
//! `--trace 0` measures the workload's end-to-end metrics; `--trace 1`
//! runs the traced sweep that gives the per-layer metrics, among them
//! those of a replicated `FleetCoordinator` run over a fixed number of
//! ticks, then checkpointed and recovered. `WHY.md` beside
//! this package says why each workload exists and which end-to-end metric
//! each layer metric should move.
//!
//! ```text
//! cargo run --release --offline --manifest-path verdictbench/Cargo.toml -- \
//!     --workload live_classical --seed 1 --seconds 10 --trace 0
//! ```

mod fixture;
mod fleet;
mod gate;
mod inline;
mod live;
mod metrics;
mod seams;
mod trace;

use emoleak_core::InferenceLevel;
use emoleak_exec::derive_seed;
use fixture::{Fixture, CHUNK, CLASSICAL_POOL, CLIPS_PER_CELL, CNN_POOL};
use live::{Phase, Probe, Stop};
use metrics::{cpu_ticks, mean, median, print_result, process_cpu_s, quantile, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

const USAGE: &str = "usage: verdictbench --workload <live_classical|live_cnn> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Where the benchmark keeps journals (removed after every run) and span
/// dumps, relative to the directory it runs in.
const OUT_DIR: &str = ".verdictbench";

/// Knobs that change the work a run does. The benchmark pins all of them
/// in code and refuses to run when one is set.
const REFUSED_KNOBS: [&str; 7] = [
    "EMOLEAK_KERNELS",
    "EMOLEAK_EPOCHS",
    "EMOLEAK_CNN_DIV",
    "EMOLEAK_REPLICAS",
    "EMOLEAK_SCRUB_EVERY",
    "EMOLEAK_CLIPS",
    "EMOLEAK_THREADS",
];
const REFUSED_PREFIXES: [&str; 2] = ["EMOLEAK_NET", "EMOLEAK_DISK_"];

/// Set-ups per live run; `setup_s` is the median of their CPU times. The
/// CNN set-up is dominated by a ~3 s fit, so it repeats fewer times.
const SETUP_REPS_CLASSICAL: usize = 5;
const SETUP_REPS_CNN: usize = 3;
/// Sessions in the traced sweep's classical session leg.
const TRACED_SESSIONS: u64 = 120;
/// Sessions in the traced sweep's disk leg, which journals through `OsVfs`.
const DISK_SESSIONS: u64 = 16;
/// Sessions in each of the traced sweep's CNN scaling legs.
const SCALING_SESSIONS: u64 = 16;
/// Episodes in the traced sweep's fleet leg.
const TRACED_EPISODES: u64 = 2;
/// Passes of the inline leg over the classical pool.
const INLINE_PASSES: usize = 1;
/// Passes of each CNN classify leg over the CNN pool's regions.
const CNN_PASSES: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    LiveClassical,
    LiveCnn,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::LiveClassical => "live_classical",
            Workload::LiveCnn => "live_cnn",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "live_classical" => Workload::LiveClassical,
                    "live_cnn" => Workload::LiveCnn,
                    other => return Err(format!("unknown workload {other}")),
                });
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Work-changing knobs set in the environment.
fn refused_knobs() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| {
            REFUSED_KNOBS.contains(&k.as_str()) || REFUSED_PREFIXES.iter().any(|p| k.starts_with(p))
        })
        .collect()
}

/// The type of the filesystem holding `path`, from the longest matching
/// mount point.
fn fs_type(path: &Path) -> String {
    let Ok(path) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

/// Prints the share of machine CPU time that was idle and that the
/// hypervisor stole since `before`: a run that lost time to its
/// neighbours says so beside its numbers.
fn describe_cpu(before: &[u64]) {
    let after = cpu_ticks();
    let d: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total = d.iter().sum::<u64>().max(1) as f64;
    let share = |i: usize| d.get(i).map_or(0.0, |&v| v as f64 / total * 100.0);
    println!(
        "# machine cpu during the run: idle {:.1}%, stolen {:.1}%",
        share(3),
        share(7)
    );
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What a run reports.
#[derive(Default)]
struct Outcome {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    fn count_phase(&mut self, phase: &Phase) {
        self.attempted += phase.sessions.len() as u64;
        self.failed += phase.sessions.iter().filter(|s| s.failed()).count() as u64;
    }

    fn count_episodes(&mut self, eps: &[fleet::Episode]) {
        self.attempted += eps.iter().map(|e| e.offered).sum::<u64>();
        self.failed += eps.iter().map(|e| e.refused).sum::<u64>();
        for (i, e) in eps.iter().enumerate() {
            self.check(&format!("episode {i}"), e.gate.clone());
        }
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = refused_knobs();
    if !knobs.is_empty() {
        eprintln!(
            "refusing to run: {} change(s) the work; unset them",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let out = PathBuf::from(OUT_DIR);
    let work = out.join("work");
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    println!(
        "# verdictbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# nproc={} exec_threads={} journal_fs={} corpus=TESS clips_per_cell={CLIPS_PER_CELL} \
         chunk={CHUNK}",
        nproc(),
        emoleak_exec::threads(),
        fs_type(&work)
    );
    let before = cpu_ticks();
    let result = if args.trace {
        traced(&args, &work, &out)
    } else {
        untraced(&args, &work)
    };
    describe_cpu(&before);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(mut o) => {
            for m in &o.metrics {
                if !m.value.is_finite() {
                    o.errors
                        .push(format!("{} is not a number: {}", m.name, m.value));
                }
            }
            for e in &o.errors {
                eprintln!("correctness gate: {e}");
            }
            let correct = o.errors.is_empty();
            print_result(correct, o.attempted.max(1), o.failed, &o.metrics);
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn describe_pool(fx: &Fixture) -> String {
    let windows: Vec<String> = fx
        .pool
        .iter()
        .map(|pc| format!("{}:{}", pc.setting, pc.campaign.windows.len()))
        .collect();
    windows.join(",")
}

fn describe_phase(label: &str, phase: &Phase) {
    let verdicts = phase.verdicts();
    let ms = phase.session_ms();
    let mut rungs = [0u64; 5];
    for stats in phase
        .sessions
        .iter()
        .filter_map(|s| s.outcome.as_ref().ok())
    {
        for (acc, n) in rungs.iter_mut().zip(stats.level_counts) {
            *acc += n;
        }
    }
    println!(
        "# {label}: {} sessions, {verdicts} verdicts ({:.2} per session; per rung cnn/int8/\
         classical/energy/shed {rungs:?}), {:.3} s wall, {:.2} verdicts/s; session ms p50 {:.4} \
         p90 {:.4} p99 {:.4} max {:.4}",
        phase.sessions.len(),
        verdicts as f64 / phase.sessions.len().max(1) as f64,
        phase.wall_s,
        verdicts as f64 / phase.wall_s,
        quantile(&ms, 0.5),
        quantile(&ms, 0.9),
        quantile(&ms, 0.99),
        quantile(&ms, 1.0),
    );
    println!(
        "# {label}: session ms mean {:.4}; cpu {:.2} s, {:.2} verdicts per cpu-s over the phase; \
         cpu stolen from the machine {:.1}%",
        mean(&ms),
        phase.cpu_s(),
        verdicts as f64 / phase.cpu_s(),
        phase.stolen() * 100.0
    );
}

/// Builds the fixture `reps` times; returns the last one and each set-up's
/// CPU time and wall time, s.
fn timed_setups(
    reps: usize,
    mut build: impl FnMut() -> Result<Fixture, String>,
) -> Result<(Fixture, Vec<f64>, Vec<f64>), String> {
    let (mut cpu, mut wall) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut fx = None;
    for _ in 0..reps {
        drop(fx.take());
        let (c, t) = (process_cpu_s(), Instant::now());
        fx = Some(build()?);
        cpu.push(process_cpu_s() - c);
        wall.push(t.elapsed().as_secs_f64());
    }
    Ok((fx.ok_or("no set-up ran")?, cpu, wall))
}

/// The live workloads' shape: which pool, which bundle, journal or not.
struct LiveShape {
    pool: &'static [emoleak_core::Setting],
    cnn: bool,
    journal: bool,
    setup_reps: usize,
    /// Sessions `peak_rss_mb` is read after: fewer than the slowest run
    /// ends, so that every run reads it at the same point of its work.
    rss_sessions: usize,
}

fn live_shape(w: Workload) -> LiveShape {
    match w {
        Workload::LiveCnn => LiveShape {
            pool: &CNN_POOL,
            cnn: true,
            journal: false,
            setup_reps: SETUP_REPS_CNN,
            rss_sessions: 300,
        },
        Workload::LiveClassical => LiveShape {
            pool: &CLASSICAL_POOL,
            cnn: false,
            journal: true,
            setup_reps: SETUP_REPS_CLASSICAL,
            rss_sessions: 4000,
        },
    }
}

fn untraced(args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let run_for = Duration::from_secs(args.seconds);
    let shape = live_shape(args.workload);
    let (fx, setups, setup_walls) = timed_setups(shape.setup_reps, || {
        fixture::build(shape.pool, shape.cnn, args.seed)
    })?;
    println!("# pool {}", describe_pool(&fx));
    println!("# set-ups: cpu s {setups:?}, wall s {setup_walls:?}");
    let dir = work.join("live");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let journal = shape.journal.then_some(dir.as_path());
    let checker = live::Checker::new(&fx);
    let phase = live::run_phase(
        &fx,
        &checker,
        nproc(),
        Stop::At(Instant::now() + run_for),
        args.seed,
        journal,
        None,
    );
    describe_phase("measured", &phase);
    o.count_phase(&phase);
    o.check("live gate", live::gate(&phase));
    o.push("setup_s", median(&setups), "s", setups.len());
    o.push(
        "verdicts_per_cpu_s",
        phase.verdicts_per_cpu_s(),
        "1/s",
        phase.sessions.len(),
    );
    o.push(
        "peak_rss_mb",
        phase.peak_rss_mb_after(shape.rss_sessions),
        "MB",
        shape.rss_sessions.min(phase.sessions.len()),
    );
    Ok(o)
}

/// Runs `n` episodes, each in its own directory under `work`.
fn fleet_episodes(
    seed: u64,
    work: &Path,
    n: u64,
    tracer: Option<&Tracer>,
) -> Result<Vec<fleet::Episode>, String> {
    (0..n)
        .map(|e| {
            fleet::run_episode(
                derive_seed(seed, e),
                &work.join(format!("fleet-{e}")),
                tracer,
            )
        })
        .collect()
}

/// Runs `f` while a sampler thread polls this process's thread count;
/// returns `f`'s value and the highest count seen (the sampler included).
fn with_thread_sampler<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let stop = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let value = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let n = std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count);
                peak.fetch_max(n as u64, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let value = f();
        stop.store(true, Ordering::Relaxed);
        sampler.join().expect("the thread sampler panicked");
        value
    });
    (value, peak.load(Ordering::Relaxed))
}

/// Verdicts per CPU-second of the named workload untraced and then traced,
/// each for half the run: the tracing overhead. The traced half records
/// into a tracer of its own, which is dropped: its spans would dwarf the
/// sweep's and say nothing the sweep does not.
fn overhead_pair(
    args: &Args,
    work: &Path,
    cls: &Fixture,
    cnn: &Fixture,
    o: &mut Outcome,
) -> Result<(f64, f64), String> {
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let tracer = Arc::new(Tracer::default());
    let shape = live_shape(args.workload);
    let fx = if shape.cnn { cnn } else { cls };
    let checker = live::Checker::new(fx);
    let mut thr = [0.0; 2];
    for (i, traced) in [false, true].into_iter().enumerate() {
        let dir = work.join(format!("pair-{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let probe = Probe {
            tracer: Arc::clone(&tracer),
            ..Probe::default()
        };
        let phase = live::run_phase(
            fx,
            &checker,
            nproc(),
            Stop::At(Instant::now() + half),
            args.seed,
            shape.journal.then_some(dir.as_path()),
            traced.then_some(&probe),
        );
        o.count_phase(&phase);
        o.check("overhead pair gate", live::gate(&phase));
        thr[i] = phase.verdicts_per_cpu_s();
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    Ok((thr[0], thr[1]))
}

/// The traced sweep: every layer, whatever the workload, so every
/// per-layer metric is present in every traced run. Only
/// `trace.overhead_pct` depends on `--workload`.
fn traced(args: &Args, work: &Path, out: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let tracer = Arc::new(Tracer::default());
    let n = nproc();
    let cls = fixture::build(&CLASSICAL_POOL, false, args.seed)?;
    let cnn = fixture::build(&CNN_POOL, true, args.seed)?;
    println!(
        "# classical pool {}; cnn pool {}",
        describe_pool(&cls),
        describe_pool(&cnn)
    );

    let (plain, with_trace) = overhead_pair(args, work, &cls, &cnn, &mut o)?;
    println!(
        "# {} verdicts per cpu-s untraced {plain:.1}, traced {with_trace:.1}",
        args.workload.name()
    );

    // Inline leg: each layer called on its own.
    let leg = inline::run(&cls.pool, &cls.bundle, INLINE_PASSES, &tracer);
    o.push(
        "features.detect_us",
        leg.detect.mean_us(),
        "us",
        leg.detect.len(),
    );
    o.push(
        "features.table2_us",
        leg.table2.mean_us(),
        "us",
        leg.table2.len(),
    );
    o.push(
        "features.spectrogram_us",
        leg.spectrogram.mean_us(),
        "us",
        leg.spectrogram.len(),
    );
    o.push(
        "core.extract_window_us",
        leg.extract_window.mean_us(),
        "us",
        leg.extract_window.len(),
    );
    o.push(
        "ml.classify_classical_us",
        leg.classify_classical.mean_us(),
        "us",
        leg.classify_classical.len(),
    );
    let regions = inline::cnn_regions(&cnn.pool);
    let rung = |level, callers, name| {
        inline::classify_rung(
            &cnn.bundle,
            level,
            &regions,
            callers,
            CNN_PASSES,
            &tracer,
            name,
        )
    };
    let solo = rung(InferenceLevel::Cnn, 1, "ml.classify.cnn");
    let shared = rung(InferenceLevel::Cnn, n, "ml.classify.cnn_contended");
    let int8 = rung(InferenceLevel::CnnInt8, 1, "ml.classify.cnn_int8");
    o.push("ml.classify_cnn_us", solo.mean_us(), "us", solo.len());
    o.push(
        "ml.classify_cnn_contended_us",
        shared.mean_us(),
        "us",
        shared.len(),
    );
    o.push("ml.classify_cnn_int8_us", int8.mean_us(), "us", int8.len());
    o.push(
        "ml.classify_energy_us",
        leg.classify_energy.mean_us(),
        "us",
        leg.classify_energy.len(),
    );

    // CNN sessions at 1 and at nproc in flight: what the bundle's lock
    // leaves of parallel speed-up.
    let cnn_checker = live::Checker::new(&cnn);
    let one = live::run_phase(
        &cnn,
        &cnn_checker,
        1,
        Stop::Sessions(SCALING_SESSIONS),
        args.seed,
        None,
        None,
    );
    let many = live::run_phase(
        &cnn,
        &cnn_checker,
        n,
        Stop::Sessions(SCALING_SESSIONS),
        args.seed,
        None,
        None,
    );
    for phase in [&one, &many] {
        o.count_phase(phase);
        o.check("cnn scaling gate", live::gate(phase));
    }
    o.push(
        "ml.cnn_scaling",
        many.verdicts_per_s() / one.verdicts_per_s(),
        "ratio",
        2,
    );
    o.push(
        "ml.cnn_verdicts_per_s_1",
        one.verdicts_per_s(),
        "1/s",
        one.sessions.len(),
    );
    o.push(
        "ml.cnn_verdicts_per_s_n",
        many.verdicts_per_s(),
        "1/s",
        many.sessions.len(),
    );

    // Classical sessions through both seams.
    let probe = Probe {
        tracer: Arc::clone(&tracer),
        ..Probe::default()
    };
    let dir = work.join("traced-live");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cls_checker = live::Checker::new(&cls);
    let (phase, peak_threads) = with_thread_sampler(|| {
        live::run_phase(
            &cls,
            &cls_checker,
            n,
            Stop::Sessions(TRACED_SESSIONS),
            args.seed,
            Some(&dir),
            Some(&probe),
        )
    });
    describe_phase("traced classical sessions", &phase);
    o.count_phase(&phase);
    o.check("traced session gate", live::gate(&phase));
    stream_metrics(&mut o, &phase, &leg, &probe, peak_threads);

    // The same sessions journaling to disk: the program's real writes and
    // fsyncs, timed.
    let disk = Probe {
        tracer: Arc::clone(&tracer),
        on_disk: true,
        ..Probe::default()
    };
    let dir = work.join("traced-disk");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let phase = live::run_phase(
        &cls,
        &cls_checker,
        n,
        Stop::Sessions(DISK_SESSIONS),
        args.seed,
        Some(&dir),
        Some(&disk),
    );
    describe_phase("traced classical sessions journaling to disk", &phase);
    o.count_phase(&phase);
    o.check("disk session gate", live::gate(&phase));
    durable_metrics(&mut o, &phase, &disk);

    // Fleet episodes, traced.
    let eps = fleet_episodes(args.seed, work, TRACED_EPISODES, Some(&tracer))?;
    o.count_episodes(&eps);
    fleet_metrics(&mut o, &eps);

    o.push(
        "trace.overhead_pct",
        (plain - with_trace) / plain * 100.0,
        "%",
        2,
    );

    let summary = tracer.summary();
    println!("# spans: name count total_ms self_ms");
    for (name, t) in &summary {
        println!(
            "#   {name:<28} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let dump = out.join(format!("trace-{}.jsonl", args.workload.name()));
    tracer
        .write_jsonl(&dump)
        .map_err(|e| format!("{}: {e}", dump.display()))?;
    println!("# spans written to {}", dump.display());
    Ok(o)
}

fn stream_metrics(
    o: &mut Outcome,
    phase: &Phase,
    leg: &inline::InlineLeg,
    probe: &Probe,
    peak_threads: u64,
) {
    let ok: Vec<&live::SessionRecord> = phase
        .sessions
        .iter()
        .filter(|s| s.outcome.is_ok())
        .collect();
    let verdicts: u64 = ok.iter().map(|s| s.verdicts).sum();
    let per_verdict = |ns: f64| ns / verdicts.max(1) as f64;
    let wall_ns: u64 = ok.iter().map(|s| s.wall_ns).sum();
    let inline_ns: u64 = ok.iter().map(|s| leg.campaign_inline_ns[s.campaign]).sum();
    let wall_us = per_verdict(wall_ns as f64) / 1e3;
    let inline_us = per_verdict(inline_ns as f64) / 1e3;
    let v = verdicts as usize;
    o.push("stream.us_per_verdict", wall_us, "us", v);
    o.push("stream.inline_us_per_verdict", inline_us, "us", v);
    o.push(
        "stream.harness_share",
        1.0 - inline_us / wall_us,
        "ratio",
        v,
    );
    o.push("stream.peak_threads", peak_threads as f64, "count", 1);
    let pulls = probe.source.pulls.load(Ordering::Relaxed);
    let pull_ns = probe.source.pull_ns.load(Ordering::Relaxed);
    o.push(
        "stream.source_pull_us",
        pull_ns as f64 / pulls.max(1) as f64 / 1e3,
        "us",
        pulls as usize,
    );

    let stats: Vec<&emoleak_stream::StreamStats> =
        ok.iter().filter_map(|s| s.outcome.as_ref().ok()).collect();
    let sum =
        |f: fn(&emoleak_stream::StreamStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    let max = |f: fn(&emoleak_stream::StreamStats) -> usize| {
        stats.iter().map(|s| f(s)).max().unwrap_or(0) as f64
    };
    let s = stats.len();
    o.push("stream.chunks", sum(|s| s.chunks_ingested), "count", s);
    o.push("stream.windows", sum(|s| s.windows), "count", s);
    o.push("stream.regions", sum(|s| s.regions), "count", s);
    o.push(
        "stream.deadline_misses",
        sum(|s| s.deadline_misses),
        "count",
        s,
    );
    o.push("stream.level_cnn", sum(|s| s.level_counts[0]), "count", s);
    o.push(
        "stream.level_cnn_int8",
        sum(|s| s.level_counts[1]),
        "count",
        s,
    );
    o.push(
        "stream.level_classical",
        sum(|s| s.level_counts[2]),
        "count",
        s,
    );
    o.push(
        "stream.level_energy_only",
        sum(|s| s.level_counts[3]),
        "count",
        s,
    );
    o.push("stream.level_shed", sum(|s| s.level_counts[4]), "count", s);
    o.push(
        "stream.max_chunk_depth",
        max(|s| s.max_chunk_depth),
        "count",
        s,
    );
    o.push(
        "stream.max_region_depth",
        max(|s| s.max_region_depth),
        "count",
        s,
    );

    let admits: Vec<f64> = phase
        .sessions
        .iter()
        .map(|s| s.admit_ns as f64 / 1e3)
        .collect();
    let refused = phase
        .sessions
        .iter()
        .filter(|s| matches!(&s.outcome, Err(e) if e.starts_with("refused")))
        .count();
    o.push("admission.admit_us", mean(&admits), "us", admits.len());
    o.push(
        "admission.refused",
        refused as f64,
        "count",
        phase.sessions.len(),
    );
}

/// The journal's write side, from sessions journaled through `OsVfs`.
fn durable_metrics(o: &mut Outcome, phase: &Phase, probe: &Probe) {
    let verdicts = phase.verdicts();
    let v = verdicts as usize;
    let c = &probe.vfs;
    let (writes, fsyncs) = (
        c.writes.load(Ordering::Relaxed),
        c.fsyncs.load(Ordering::Relaxed),
    );
    let ratio = |x: u64| x as f64 / verdicts.max(1) as f64;
    o.push(
        "durable.write_us",
        c.write_ns.load(Ordering::Relaxed) as f64 / writes.max(1) as f64 / 1e3,
        "us",
        writes as usize,
    );
    o.push(
        "durable.fsync_us",
        c.fsync_ns.load(Ordering::Relaxed) as f64 / fsyncs.max(1) as f64 / 1e3,
        "us",
        fsyncs as usize,
    );
    o.push("durable.writes_per_verdict", ratio(writes), "ratio", v);
    o.push("durable.fsyncs_per_verdict", ratio(fsyncs), "ratio", v);
    o.push(
        "durable.bytes_per_verdict",
        ratio(c.bytes.load(Ordering::Relaxed)),
        "bytes",
        v,
    );
}

fn fleet_metrics(o: &mut Outcome, eps: &[fleet::Episode]) {
    let us = |f: fn(&fleet::Episode) -> &Vec<u64>| -> Vec<f64> {
        eps.iter()
            .flat_map(|e| f(e).iter().map(|&ns| ns as f64 / 1e3))
            .collect()
    };
    let (offer, advance, scrub) = (
        us(|e| &e.offer_ns),
        us(|e| &e.advance_ns),
        us(|e| &e.advance_scrub_ns),
    );
    let offered: u64 = eps.iter().map(|e| e.offered).sum();
    let served: u64 = eps.iter().map(|e| e.served).sum();
    let mut per_shard = vec![0u64; eps.first().map_or(0, |e| e.served_per_shard.len())];
    for e in eps {
        for (acc, s) in per_shard.iter_mut().zip(&e.served_per_shard) {
            *acc += s;
        }
    }
    let shard_mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len().max(1) as f64;
    let recover: Vec<f64> = eps.iter().map(|e| e.recover_ns as f64 / 1e6).collect();
    let bytes: u64 = eps.iter().map(|e| e.bytes).sum();
    o.push(
        "durable.bytes_per_chunk",
        bytes as f64 / served.max(1) as f64,
        "bytes",
        served as usize,
    );
    o.push("durable.recover_ms", mean(&recover), "ms", recover.len());
    o.push("fleet.offer_us", mean(&offer), "us", offer.len());
    o.push("fleet.advance_us", mean(&advance), "us", advance.len());
    o.push("fleet.advance_scrub_us", mean(&scrub), "us", scrub.len());
    o.push(
        "fleet.served_ratio",
        served as f64 / offered.max(1) as f64,
        "ratio",
        offered as usize,
    );
    o.push(
        "fleet.shard_skew",
        per_shard.iter().copied().max().unwrap_or(0) as f64 / shard_mean,
        "ratio",
        per_shard.len(),
    );
}
