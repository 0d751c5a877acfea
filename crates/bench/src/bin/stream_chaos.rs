//! Chaos harness for the streaming inference service.
//!
//! Drives `emoleak_stream::StreamService` through a grid of fault-injected
//! recordings (every `FaultProfile` preset × severity) with a flaky,
//! occasionally panicking transport on top, and asserts the *robustness
//! contract* on every run:
//!
//! * liveness — the run terminates and returns `Ok` (no deadlock: a wedged
//!   stage fails the run after the watchdog interval, and the global run
//!   timeout is the backstop);
//! * bounded memory — queue depth never exceeds its configured capacity;
//! * zero escaped panics — injected worker panics are absorbed by
//!   supervision, never propagated to the caller;
//! * honest accounting — every ingested chunk is either processed or
//!   counted as dropped, and a clean run reports zero resilience events.
//!
//! Prints a summary table and writes the full per-run results as JSON
//! (default `results/stream_chaos.json`, override with
//! `EMOLEAK_CHAOS_JSON`). `EMOLEAK_CHAOS_SEEDS` (default 3) and
//! `EMOLEAK_CHAOS_SEVERITIES` (comma list, default `0,0.5,1,2,4,8`) shrink
//! the grid for smoke runs. Exits non-zero if any run violates the
//! contract.

use emoleak_bench::{banner, write_result};
use emoleak_core::online::ModelBundle;
use emoleak_core::prelude::*;
use emoleak_phone::FaultProfile;
use emoleak_stream::{
    FlakySource, OverflowPolicy, ReplaySource, StreamConfig, StreamReport, StreamService,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct RunSpec {
    preset: &'static str,
    severity: f64,
    seed: u64,
    inject_panic: bool,
}

struct RunRecord {
    spec: RunSpec,
    ok: bool,
    violations: Vec<String>,
    regions: u64,
    retries: u64,
    dropped: u64,
    deadline_misses: u64,
    transitions: usize,
    worst_level: String,
    panic_restarts: u32,
    max_chunk_depth: usize,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    p999_us: f64,
    max_us: f64,
    wall_ms: f64,
}

fn presets() -> Vec<(&'static str, FaultProfile)> {
    vec![
        ("handheld_walking", FaultProfile::handheld_walking()),
        ("background_doze", FaultProfile::background_doze()),
        ("cheap_imu", FaultProfile::cheap_imu()),
    ]
}

/// Transport flakiness grows with channel-fault severity, capped well
/// below 1 so liveness stays falsifiable.
fn fail_rate(severity: f64) -> f64 {
    (0.08 * severity).min(0.85)
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

fn check(report: &StreamReport, spec: &RunSpec, capacity: usize) -> Vec<String> {
    let mut violations = Vec::new();
    let s = &report.stats;
    if s.max_chunk_depth > capacity || s.max_region_depth > capacity {
        violations.push(format!(
            "queue bound exceeded: chunk depth {} / region depth {} > capacity {capacity}",
            s.max_chunk_depth, s.max_region_depth
        ));
    }
    if s.chunks_processed + s.dropped_chunks != s.chunks_ingested {
        violations.push(format!(
            "chunk accounting broken: {} processed + {} dropped != {} ingested",
            s.chunks_processed, s.dropped_chunks, s.chunks_ingested
        ));
    }
    let expected_panics = u32::from(spec.inject_panic);
    if s.panic_restarts != expected_panics {
        violations.push(format!(
            "expected {expected_panics} absorbed panic(s), saw {}",
            s.panic_restarts
        ));
    }
    if spec.severity == 0.0 && !spec.inject_panic {
        // Clean path: the resilience machinery must stay silent.
        if s.retries != 0 || s.dropped_chunks != 0 || !report.log.events().is_empty() {
            violations.push(format!(
                "clean run was not silent: {} retries, {} drops, {} events",
                s.retries,
                s.dropped_chunks,
                report.log.events().len()
            ));
        }
        if s.regions == 0 {
            violations.push("clean run classified no regions".to_string());
        }
    }
    violations
}

fn run_one(
    bundle: &Arc<ModelBundle>,
    campaign: &emoleak_core::online::RecordedCampaign,
    detector: &emoleak_features::regions::RegionDetector,
    spec: RunSpec,
) -> RunRecord {
    let config = StreamConfig {
        queue_capacity: 32,
        overflow: OverflowPolicy::Block,
        // High severities get an unmeetable deadline so the degradation
        // ladder is exercised under chaos, not just in unit tests.
        deadline: if spec.severity >= 4.0 {
            Duration::from_micros(2)
        } else {
            Duration::from_millis(50)
        },
        panic_after_chunks: spec.inject_panic.then_some(5),
        ..StreamConfig::default()
    };
    let capacity = config.queue_capacity;
    let service =
        StreamService::new(Arc::clone(bundle), detector.clone(), campaign.fs, config);
    let source = FlakySource::new(
        ReplaySource::from_campaign(campaign, service.config().chunk_len),
        fail_rate(spec.severity),
        spec.seed,
    );
    let t0 = Instant::now();
    let outcome = service.run(Box::new(source));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    match outcome {
        Ok(report) => {
            let violations = check(&report, &spec, capacity);
            let mut lat: Vec<f64> = report
                .emissions
                .iter()
                .map(|e| e.latency.as_secs_f64() * 1e6)
                .collect();
            lat.sort_by(f64::total_cmp);
            RunRecord {
                ok: violations.is_empty(),
                violations,
                regions: report.stats.regions,
                retries: report.stats.retries,
                dropped: report.stats.dropped_chunks,
                deadline_misses: report.stats.deadline_misses,
                transitions: report.log.transitions().len(),
                worst_level: report
                    .log
                    .worst_level()
                    .map_or_else(|| "-".to_string(), |l| l.to_string()),
                panic_restarts: report.stats.panic_restarts,
                max_chunk_depth: report.stats.max_chunk_depth,
                p50_us: percentile(&lat, 0.50),
                p95_us: percentile(&lat, 0.95),
                p99_us: percentile(&lat, 0.99),
                p999_us: percentile(&lat, 0.999),
                max_us: lat.last().copied().unwrap_or(0.0),
                wall_ms,
                spec,
            }
        }
        Err(e) => RunRecord {
            ok: false,
            violations: vec![format!("run failed: {e}")],
            regions: 0,
            retries: 0,
            dropped: 0,
            deadline_misses: 0,
            transitions: 0,
            worst_level: "-".to_string(),
            panic_restarts: 0,
            max_chunk_depth: 0,
            p50_us: 0.0,
            p95_us: 0.0,
            p99_us: 0.0,
            p999_us: 0.0,
            max_us: 0.0,
            wall_ms,
            spec,
        },
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn to_json(records: &[RunRecord]) -> String {
    let mut out = String::from("{\n  \"runs\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"preset\": \"{}\", \"severity\": {}, \"seed\": {}, \
             \"inject_panic\": {}, \"ok\": {}, \"regions\": {}, \"retries\": {}, \
             \"dropped\": {}, \"deadline_misses\": {}, \"transitions\": {}, \
             \"worst_level\": \"{}\", \"panic_restarts\": {}, \
             \"max_chunk_depth\": {}, \"latency_us\": {{\"p50\": {}, \"p95\": {}, \
             \"p99\": {}, \"p999\": {}, \"max\": {}}}, \"wall_ms\": {}, \
             \"violations\": [{}]}}{}\n",
            r.spec.preset,
            json_num(r.spec.severity),
            r.spec.seed,
            r.spec.inject_panic,
            r.ok,
            r.regions,
            r.retries,
            r.dropped,
            r.deadline_misses,
            r.transitions,
            r.worst_level,
            r.panic_restarts,
            r.max_chunk_depth,
            json_num(r.p50_us),
            json_num(r.p95_us),
            json_num(r.p99_us),
            json_num(r.p999_us),
            json_num(r.max_us),
            json_num(r.wall_ms),
            r.violations
                .iter()
                .map(|v| format!("\"{}\"", v.replace('"', "'")))
                .collect::<Vec<_>>()
                .join(", "),
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    let failed = records.iter().filter(|r| !r.ok).count();
    out.push_str(&format!(
        "  ],\n  \"total_runs\": {},\n  \"failed_runs\": {failed}\n}}\n",
        records.len()
    ));
    out
}

fn main() -> Result<(), EmoleakError> {
    // The injected worker panics are absorbed by supervision; keep their
    // default-hook backtraces out of the report. Real panics still print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected chaos panic"));
        if !injected {
            default_hook(info);
        }
    }));

    let corpus = CorpusSpec::tess().with_clips_per_cell(2);
    banner("Stream chaos: liveness under faults, flaky transport, and panics", corpus.random_guess());
    let device = DeviceProfile::oneplus_7t();

    let severities: Vec<f64> = emoleak_exec::parse_list_checked(
        "EMOLEAK_CHAOS_SEVERITIES",
        "comma-separated non-negative numbers",
        |&s: &f64| s.is_finite() && s >= 0.0,
    )?
    .unwrap_or_else(|| vec![0.0, 0.5, 1.0, 2.0, 4.0, 8.0]);
    let seeds: u64 =
        emoleak_exec::parse_checked("EMOLEAK_CHAOS_SEEDS", "a positive count", |&n: &u64| n > 0)?
            .unwrap_or(3);

    // One classical bundle, trained once on the clean campaign, backs every
    // run: chaos is about the service, not the model.
    let clean = AttackScenario::table_top(corpus.clone(), device.clone());
    let bundle = Arc::new(
        ModelBundle::train(&clean.harvest()?, 0xC4A05).expect("clean campaign must train"),
    );
    let detector = clean.setting.region_detector();

    let mut records = Vec::new();
    for (name, base) in presets() {
        for &severity in &severities {
            // The faulted recording is shared across this cell's seeds;
            // the seeds vary the transport failure pattern.
            let scenario = AttackScenario::table_top(corpus.clone(), device.clone())
                .with_faults(base.clone().with_severity(severity));
            let campaign = scenario.record_windows()?;
            for seed in 0..seeds {
                let spec = RunSpec {
                    preset: name,
                    severity,
                    seed: 0xC4A0 ^ (seed * 0x9E37_79B9) ^ (severity.to_bits() >> 17),
                    // Last seed of each cell also exercises supervision.
                    inject_panic: seed + 1 == seeds,
                };
                records.push(run_one(&bundle, &campaign, &detector, spec));
            }
        }
    }

    println!(
        "{:<18} {:>4} {:>6} {:>8} {:>8} {:>7} {:>6} {:>11} {:>9}",
        "preset", "sev", "ok", "regions", "retries", "dropped", "trans", "p95_us", "wall_ms"
    );
    println!("{}", "-".repeat(84));
    for r in &records {
        println!(
            "{:<18} {:>4} {:>6} {:>8} {:>8} {:>7} {:>6} {:>11.1} {:>9.1}",
            r.spec.preset,
            r.spec.severity,
            if r.ok { "ok" } else { "FAIL" },
            r.regions,
            r.retries,
            r.dropped,
            r.transitions,
            r.p95_us,
            r.wall_ms,
        );
        for v in &r.violations {
            println!("    violation: {v}");
        }
    }
    let failed = records.iter().filter(|r| !r.ok).count();
    println!(
        "\n{} runs, {} violations; retries absorbed: {}, panics absorbed: {}",
        records.len(),
        failed,
        records.iter().map(|r| r.retries).sum::<u64>(),
        records.iter().map(|r| u64::from(r.panic_restarts)).sum::<u64>(),
    );

    let json = to_json(&records);
    let path = std::env::var("EMOLEAK_CHAOS_JSON")
        .unwrap_or_else(|_| "results/stream_chaos.json".to_string());
    // Atomic write: a kill mid-write can no longer leave a torn JSON file.
    match write_result(std::path::Path::new(&path), json.as_bytes()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path} ({e}); JSON follows:\n{json}"),
    }
    assert!(failed == 0, "{failed} chaos run(s) violated the robustness contract");
    Ok(())
}
