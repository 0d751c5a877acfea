//! The traced sweep's fleet episodes: a `FleetCoordinator` over a fixed
//! number of ticks, then checkpoint, drop and `FleetCoordinator::recover`.

use crate::fixture::live_fleet_config;
use crate::gate::{check_fleet, FleetOutcome};
use crate::metrics::elapsed_ns;
use crate::trace::Tracer;
use emoleak_admission::AdmissionConfig;
use emoleak_exec::derive_seed;
use emoleak_fleet::{FleetConfig, FleetCoordinator, LoadProfile};
use std::path::Path;
use std::time::Instant;

/// Ticks per episode. Fixed, because the scrub re-reads a whole journal
/// each pass: the journal length a run reaches is part of the workload.
pub const TICKS: u64 = 400;
/// Tenants in the mix; tenant `i` is offered with weight `1 / (i + 1)`.
const TENANTS: usize = 12;
/// Charged cost of one chunk, bytes (the cost `fleet_bench` journals).
const COST: u64 = 64;

/// The fleet: the live workloads' session-fleet config (4 shards, one
/// journal replica, scrub every 25 ticks, no message plane, no disk
/// nemesis) with rate limits lifted so the mix is never refused.
fn fleet_config() -> FleetConfig {
    FleetConfig {
        admission: AdmissionConfig {
            tenant_rps: 1_000_000,
            tenant_burst: 1_000_000,
            ..AdmissionConfig::default()
        },
        ..live_fleet_config()
    }
}

/// Tenant names, fixed.
fn tenants() -> Vec<String> {
    (0..TENANTS).map(|i| format!("t{i:02}")).collect()
}

/// The repo's arrival model, every parameter spelled out: the
/// `LoadProfile` defaults (8 chunks per tick at the midline, ±50% diurnal
/// swing, 20-tick bursts at 4× opening with probability 0.05), except
/// that one diurnal period spans one episode, as `fleet_bench` spans its
/// run with whole periods. Only the stream seed comes from the episode.
fn load_profile(seed: u64) -> LoadProfile {
    LoadProfile {
        base_rate: 8.0,
        amplitude: 0.5,
        period: TICKS,
        burst_prob: 0.05,
        burst_len: 20,
        burst_multiplier: 4.0,
        seed: derive_seed(seed, 0x10AD),
    }
}

/// The tenants offered at tick `now`: `profile.offers_at(now)` offers,
/// each tenant drawn with Zipf skew (exponent 1) from stream `seed`.
fn offers_at(profile: &LoadProfile, seed: u64, now: u64) -> Vec<usize> {
    let weights: Vec<f64> = (0..TENANTS).map(|i| 1.0 / (i + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let base = derive_seed(seed, now);
    (0..profile.offers_at(now))
        .map(|j| {
            let u = (derive_seed(base, j) >> 11) as f64 / (1u64 << 53) as f64 * total;
            let mut acc = 0.0;
            weights
                .iter()
                .position(|w| {
                    acc += w;
                    u < acc
                })
                .unwrap_or(TENANTS - 1)
        })
        .collect()
}

/// One episode's measurements.
#[derive(Debug)]
pub struct Episode {
    /// `offer` calls, ns each (traced only).
    pub offer_ns: Vec<u64>,
    /// `advance` on ticks without a scrub pass, ns (traced only).
    pub advance_ns: Vec<u64>,
    /// `advance` on scrub ticks, ns (traced only).
    pub advance_scrub_ns: Vec<u64>,
    /// Chunks offered.
    pub offered: u64,
    /// Offers refused.
    pub refused: u64,
    /// Chunks served.
    pub served: u64,
    /// Served chunks per shard (each chunk is served at its home shard).
    pub served_per_shard: Vec<u64>,
    /// `FleetCoordinator::recover`, ns.
    pub recover_ns: u64,
    /// Bytes on disk after the run and its checkpoint.
    pub bytes: u64,
    /// The correctness gate's verdict.
    pub gate: Result<(), String>,
}

/// Whether tick `now` runs a scrub pass (tick 0 scrubs empty journals and
/// counts as a plain tick).
fn scrubs(now: u64, every: u64) -> bool {
    now > 0 && now.is_multiple_of(every)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs one episode in the fresh directory `dir`, removing it afterwards.
///
/// # Errors
///
/// A message when the fleet cannot be created, checkpointed or recovered.
pub fn run_episode(seed: u64, dir: &Path, tracer: Option<&Tracer>) -> Result<Episode, String> {
    let cfg = fleet_config();
    let scrub_every = cfg.scrub_every;
    let names = tenants();
    let mut ep = Episode {
        offer_ns: Vec::new(),
        advance_ns: Vec::new(),
        advance_scrub_ns: Vec::new(),
        offered: 0,
        refused: 0,
        served: 0,
        served_per_shard: vec![0; cfg.shards as usize],
        recover_ns: 0,
        bytes: 0,
        gate: Ok(()),
    };
    let profile = load_profile(seed);
    let schedule: Vec<Vec<usize>> = (0..TICKS)
        .map(|now| offers_at(&profile, seed, now))
        .collect();

    let mut coord = FleetCoordinator::new(cfg.clone(), dir).map_err(|e| format!("fleet: {e}"))?;
    let homes: Vec<usize> = names
        .iter()
        .map(|n| coord.ring().route(n) as usize)
        .collect();

    for (now, offers) in (0..TICKS).zip(&schedule) {
        let tick_span = tracer.map(|tr| tr.open("fleet.tick", None, now));
        for &i in offers {
            let start = tracer.map(Tracer::now_ns);
            let offered = coord.offer(&names[i], COST, now);
            if let (Some(tr), Some(start)) = (tracer, start) {
                let end = tr.now_ns();
                tr.record("fleet.offer", tick_span, now, start, end);
                ep.offer_ns.push(end - start);
            }
            ep.offered += 1;
            if offered.is_err() {
                ep.refused += 1;
            }
        }
        let t = Instant::now();
        let advance_span = tracer.map(|tr| tr.open("fleet.advance", tick_span, now));
        let served = coord.advance(now, usize::MAX, &[]);
        if let (Some(tr), Some(id)) = (tracer, advance_span) {
            tr.close(id);
            let dur = elapsed_ns(t);
            if scrubs(now, scrub_every) {
                ep.advance_scrub_ns.push(dur);
            } else {
                ep.advance_ns.push(dur);
            }
        }
        if let (Some(tr), Some(id)) = (tracer, tick_span) {
            tr.close(id);
        }
        ep.served += served.len() as u64;
        for chunk in &served {
            if let Some(i) = names.iter().position(|n| *n == chunk.tenant) {
                ep.served_per_shard[homes[i]] += 1;
            }
        }
    }

    let stats = coord.stats();
    let view = coord.view();
    coord
        .checkpoint(TICKS)
        .map_err(|e| format!("checkpoint: {e}"))?;
    drop(coord);
    ep.bytes = dir_bytes(dir);
    let recover_span = tracer.map(|tr| tr.open("fleet.recover", None, TICKS));
    let t = Instant::now();
    let recovered = FleetCoordinator::recover(cfg, dir).map_err(|e| format!("recover: {e}"))?;
    ep.recover_ns = elapsed_ns(t);
    if let (Some(tr), Some(id)) = (tracer, recover_span) {
        tr.close(id);
    }
    ep.gate = check_fleet(&FleetOutcome {
        stats,
        scrub_defects: view.scrub_events.len(),
        internal_errors: view.internal_errors.len(),
        recovered: recovered.stats(),
    })
    .and_then(|()| {
        if ep.offered == stats.offered && ep.served == stats.served && ep.refused == 0 {
            Ok(())
        } else {
            Err(format!(
                "{} offers made, {} booked; {} chunks came back from advance, {} booked; {} refusals",
                ep.offered, stats.offered, ep.served, stats.served, ep.refused
            ))
        }
    });
    drop(recovered);
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    Ok(ep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_episode_serves_every_offer_and_recovers() {
        let dir = std::path::PathBuf::from(".verdictbench")
            .join(format!("test-fleet-{}", std::process::id()));
        let ep = run_episode(5, &dir, None).expect("the episode runs");
        ep.gate.expect("the gate passes");
        assert_eq!(ep.served, ep.offered);
        let p = load_profile(5);
        assert_eq!(ep.offered, (0..TICKS).map(|t| p.offers_at(t)).sum::<u64>());
        assert!(ep.bytes > 0);
        assert!(!dir.exists());
    }

    #[test]
    fn the_mix_is_seeded_shaped_by_the_load_profile_and_skewed() {
        let p = load_profile(9);
        assert_eq!(offers_at(&p, 9, 3), offers_at(&p, 9, 3));
        let p = load_profile(1);
        let mut counts = [0u32; TENANTS];
        for now in 0..2000 {
            let offers = offers_at(&p, 1, now);
            assert_eq!(offers.len() as u64, p.offers_at(now));
            for i in offers {
                counts[i] += 1;
            }
        }
        assert!(counts[0] > 3 * counts[TENANTS - 1], "{counts:?}");
    }
}
