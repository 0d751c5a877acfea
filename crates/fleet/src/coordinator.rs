//! The fleet coordinator: routing, health aggregation, failover, and the
//! fleet-wide conservation ledger.
//!
//! The coordinator owns the [`HashRing`] and every [`Shard`]. It assigns
//! each tenant a global chunk sequence (so served order is independent of
//! shard count), routes offers to the tenant's home shard, advances all
//! shards one tick **in parallel** (each shard is owned by exactly one
//! worker per tick — [`emoleak_exec::par_map_vec_indexed`] keeps the
//! result order and therefore the byte stream deterministic), and watches
//! per-shard health.
//!
//! # Failover and the conservation algebra
//!
//! The PR-5 identity `offered == served + rejected + shed + queued`
//! gains a `migrated` term and becomes *per shard*:
//!
//! ```text
//! offered_s == served_s + rejected_s + shed_s + queued_s + migrated_s
//! ```
//!
//! A migrated chunk is **re-offered through the target shard's normal
//! front door**, so it counts once in the source shard's `migrated` and
//! once in the target's `offered` — the fleet-wide roll-up (retired
//! shards' final ledgers plus live shards' counters) then satisfies the
//! identity by construction, with no special cases.
//!
//! Two failover paths:
//!
//! - **graceful** (sustained BrownOut): the shard is fenced — queue
//!   evacuated with seq tags intact, final ledger journaled — its vnodes
//!   leave the ring (only *its* tenants move), and the evacuees are
//!   re-offered along each tenant's new route.
//! - **crash** (panic budget exhausted, or a hard kill): in-memory state
//!   is gone. With replication on (the default), the shard journaled an
//!   admit record before every enqueue and a serve/shed record after
//!   every dequeue, and shipped each committed record synchronously to a
//!   deterministic follower ([`HashRing::successor_shard`]). The
//!   coordinator replays the first *clean* surviving segment — primary
//!   (process death, disk intact) or replica (disk loss) — reconstructs
//!   the exact queue at death (`admits − serves − sheds`), and re-offers
//!   it along each tenant's new route: `crash_loss == 0`, with the
//!   replayed chunks surfaced as [`FleetStats::recovered`] (they count as
//!   `migrated` in the identity, like a graceful evacuation). Only when
//!   *every* copy is damaged (a double failure: primary disk lost *and*
//!   replica corrupted) does the coordinator fall back to bounded-loss
//!   reconciliation — last ledger snapshot plus exact journaled sheds,
//!   bounded by the routed count — and book the honest residual as
//!   `crash_loss` (counted as shed), keeping the identity exact instead
//!   of silently leaking chunks.
//!
//! # Anti-entropy scrubbing
//!
//! Replicas are only worth what they can replay. On a logical-tick
//! cadence (`EMOLEAK_SCRUB_EVERY`), the coordinator CRC-verifies one live
//! shard's replica against its primary (round-robin over the fleet),
//! classifies any difference ([`Defect::ReplicaLag`] /
//! [`Defect::ReplicaDiverged`]), and read-repairs it by deterministic
//! rebuild ([`Defect::ScrubRepaired`]). Findings accumulate on the
//! [`FleetView`]. Scrubbing runs on ticks, not wall clock, so fleet
//! output stays byte-identical across thread counts.

use crate::config::{DiskConfig, FleetConfig};
use crate::ring::HashRing;
use crate::shard::{shard_journal_path, shard_replica_path, Shard, ShardHealth, ShardState};
use crate::transport::{Msg, NetStats, NodeId, SimNet};
use emoleak_admission::{AdmissionStats, QueuedChunk};
use emoleak_core::admission::{AdmissionError, DurabilityLevel, FleetState};
use emoleak_durable::{Dec, Defect, DurableError, Enc, Journal};
use emoleak_exec::{derive_seed, par_map_vec_indexed};
use emoleak_stream::durable::{recover_run, ChunkAdmit, LedgerRecord};
use emoleak_stream::log::{ServiceEvent, ServiceLog};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Coordinator-journal record kind: one checkpoint.
pub const REC_CHECKPOINT: u8 = 1;

/// Fleet-wide counters: live shards plus the retired ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Chunks offered across all shards (migrated chunks count again at
    /// their target — see the module docs).
    pub offered: u64,
    /// Chunks served to backends.
    pub served: u64,
    /// Chunks refused at a front door.
    pub rejected: u64,
    /// Chunks shed (CoDel sheds plus crash losses).
    pub shed: u64,
    /// Chunks still queued on live shards.
    pub queued: u64,
    /// Chunks evacuated out of a shard.
    pub migrated: u64,
    /// The subset of `shed` that a crashed shard's journal could not
    /// account for (in-memory queue lost to the crash).
    pub crash_loss: u64,
    /// The subset of `migrated` that was *replayed* out of a crashed
    /// shard's surviving journal (primary or replica) and re-offered —
    /// work that replication rescued from the crash. Not a new identity
    /// term: recovered chunks count as `migrated` at the dead shard and
    /// `offered` at their new home, exactly like a graceful evacuation.
    pub recovered: u64,
}

impl FleetStats {
    /// The fleet conservation identity.
    pub fn conserves(&self) -> bool {
        self.offered == self.served + self.rejected + self.shed + self.queued + self.migrated
    }
}

/// Why a shard was failed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverKind {
    /// Sustained BrownOut: fenced and evacuated.
    Graceful,
    /// Crash: reconciled from the journal segment.
    Crash,
}

/// One failover the coordinator performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverEvent {
    /// The tick it happened at.
    pub tick: u64,
    /// The shard that left the ring.
    pub shard: u32,
    /// Graceful or crash.
    pub kind: FailoverKind,
    /// Chunks moved off the shard and re-offered: a graceful evacuation,
    /// or a crash replay out of a surviving journal.
    pub moved_chunks: u64,
    /// Moved chunks the target shards refused.
    pub reoffer_rejected: u64,
    /// Chunks booked as crash loss (crash only; zero when a clean journal
    /// copy survived).
    pub crash_loss: u64,
    /// Chunks replayed from a surviving journal copy (crash only).
    pub recovered: u64,
}

/// The aggregated health picture one `view()` call returns.
#[derive(Debug, Clone)]
pub struct FleetView {
    /// Per-shard health samples, shard-id order.
    pub shards: Vec<ShardHealth>,
    /// Shards still in the ring.
    pub live: usize,
    /// The worst live shard's breaker state ([`FleetState::Healthy`] when
    /// nothing is live — an empty fleet has nothing to brown out).
    pub worst: FleetState,
    /// Total chunks queued across live shards.
    pub queue_depth_total: usize,
    /// Total contained panics across all shards.
    pub restart_burn: u32,
    /// Live shards whose replica is currently latched (a ship failed and
    /// no scrub has repaired it yet).
    pub replicas_latched: usize,
    /// Every defect the anti-entropy scrubber has found (and repaired) so
    /// far, in detection order.
    pub scrub_events: Vec<Defect>,
    /// Every internal invariant violation the coordinator detected and
    /// survived, in detection order. Empty in a correct build.
    pub internal_errors: Vec<FleetInternalError>,
    /// The worst storage durability level among live shards
    /// ([`DurabilityLevel::Durable`] when nothing is live, or the disk
    /// gauge is unarmed).
    pub durability_worst: DurabilityLevel,
    /// Shard-ticks spent at each durability level (indexed like
    /// [`DurabilityLevel::ALL`], best rung first), accumulated over every
    /// `advance` for live shards. The fleet's storage-health budget:
    /// `[all, 0, 0, 0]` on a healthy disk.
    pub durability_level_ticks: [u64; 4],
    /// Records committed in memory but journaled nowhere across all
    /// shards — the honest would-be-lost-on-crash exposure right now.
    pub unjournaled_total: u64,
}

/// A violated internal invariant the coordinator detected — and survived —
/// at runtime. These are coordinator *bugs made visible*: instead of a
/// `debug_assert` that vanishes in release builds (or an abort that takes
/// the fleet down), the violation is booked honestly (conservation stays
/// exact) and reported here for harnesses and operators to flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetInternalError {
    /// A fence returned a non-empty queue snapshot: `Shard::fence` is
    /// specified to evacuate before snapshotting, so the final counters
    /// should always show `queued == 0`. The residual was booked as shed
    /// (and counted into `crash_loss`) so the identity still holds.
    FenceLeftQueue {
        /// The fenced shard.
        shard: u32,
        /// Chunks the final snapshot still showed queued.
        queued: u64,
    },
}

impl core::fmt::Display for FleetInternalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetInternalError::FenceLeftQueue { shard, queued } => write!(
                f,
                "invariant violated: fencing shard {shard} left {queued} chunk(s) queued \
                 (booked as shed)"
            ),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct RetiredTotals {
    offered: u64,
    served: u64,
    rejected: u64,
    shed: u64,
    migrated: u64,
}

/// One shard's serving lease, as the coordinator tracks it.
#[derive(Debug, Clone, Copy)]
struct Lease {
    /// The furthest `lease_until` the coordinator has granted. The shard
    /// may serve through this tick, so failover before `now >
    /// granted_until` could split-brain; the coordinator never does.
    granted_until: u64,
    /// The tick the last probe ack arrived. Grants stop when this goes
    /// stale, which freezes `granted_until` and starts the failover clock.
    last_ack: u64,
}

/// The transport-mode state: the simulated plane plus the lease table and
/// the probe-derived health cache.
struct NetRuntime {
    net: SimNet<Msg>,
    lease_ticks: u64,
    leases: BTreeMap<u32, Lease>,
    /// Latest `ProbeAck` health per shard, with its arrival tick. `react`
    /// keys off this in transport mode: the coordinator can only act on
    /// what the (unreliable) plane actually told it.
    health_cache: BTreeMap<u32, (u64, ShardHealth)>,
}

/// The fleet coordinator. See the module docs for the failover model.
pub struct FleetCoordinator {
    cfg: FleetConfig,
    dir: PathBuf,
    ring: HashRing,
    shards: Vec<Shard>,
    routed: BTreeMap<u32, u64>,
    tenant_seq: BTreeMap<String, u64>,
    retired: RetiredTotals,
    crash_loss: u64,
    recovered: u64,
    brownout_streak: BTreeMap<u32, u32>,
    checkpoint: Journal,
    ckpt_seq: u64,
    failovers: Vec<FailoverEvent>,
    scrub_events: Vec<Defect>,
    internal_errors: Vec<FleetInternalError>,
    /// `Some` when `cfg.net` selects a profile: all shard traffic flows
    /// through the simulated plane. `None` is the direct-call path,
    /// byte-for-byte the PR 6 behaviour.
    net: Option<NetRuntime>,
    /// Per-shard fencing-token authority: the minimum token the shard's
    /// journal currently accepts. Shared (`Arc`) with the shard's sink so
    /// a resurrected stale incarnation checks the *live* value.
    fence_authorities: BTreeMap<u32, Arc<AtomicU64>>,
    /// The coordinator's own event log: durability transitions drained
    /// from shard gauges, re-stamped onto the tick clock.
    log: ServiceLog,
    /// Shard-ticks spent at each durability level (see
    /// [`FleetView::durability_level_ticks`]).
    durability_level_ticks: [u64; 4],
}

/// The coordinator's own checkpoint journal path under `dir`.
pub fn coordinator_journal_path(dir: &Path) -> PathBuf {
    dir.join("coordinator.log")
}

impl FleetCoordinator {
    /// A fresh fleet under `dir`: shards `0..cfg.shards`, each with its
    /// own journal segment, plus the coordinator's checkpoint journal.
    ///
    /// # Errors
    ///
    /// [`DurableError`] when `dir` or a journal cannot be created.
    pub fn new(cfg: FleetConfig, dir: &Path) -> Result<FleetCoordinator, DurableError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| DurableError::io(dir, "create fleet dir", &e))?;
        // The ring first: replication pairs (primary → follower) are read
        // off it before any shard exists.
        let ring = HashRing::new(cfg.seed, cfg.shards, cfg.vnodes);
        let mut shards = Vec::with_capacity(cfg.shards as usize);
        for id in 0..cfg.shards {
            let follower = if cfg.replicated() { ring.successor_shard(id) } else { None };
            shards.push(Shard::new(
                id,
                dir,
                cfg.admission.clone(),
                cfg.restart_budget,
                cfg.ledger_every,
                cfg.replicated(),
                follower,
                DiskConfig { plan: cfg.disk.shard_plan(cfg.seed, id), gauge: cfg.disk.gauge },
            )?);
        }
        let checkpoint = Journal::create(&coordinator_journal_path(dir))?;
        let mut coord = FleetCoordinator {
            ring,
            routed: (0..cfg.shards).map(|id| (id, 0)).collect(),
            cfg,
            dir: dir.to_path_buf(),
            shards,
            tenant_seq: BTreeMap::new(),
            retired: RetiredTotals::default(),
            crash_loss: 0,
            recovered: 0,
            brownout_streak: BTreeMap::new(),
            checkpoint,
            ckpt_seq: 0,
            failovers: Vec::new(),
            scrub_events: Vec::new(),
            internal_errors: Vec::new(),
            net: None,
            fence_authorities: BTreeMap::new(),
            log: ServiceLog::new(),
            durability_level_ticks: [0; 4],
        };
        coord.arm_transport(0);
        Ok(coord)
    }

    /// The fencing token every first shard incarnation holds. Authorities
    /// start below it (0 = accept anything), and a failover raises the
    /// shard's authority past it, fencing the incarnation out.
    const FIRST_INCARNATION_TOKEN: u64 = 1;

    /// Brings up the simulated message plane when the config selects a
    /// profile: every shard gets a fencing token on its journal writer, a
    /// lease gate on its drain loop, and a lease entry at the coordinator.
    /// `start` anchors the first lease grants: tick 0 for a fresh fleet,
    /// the checkpoint tick for a recovered one — a recovered coordinator
    /// resumes mid-clock, and leases dated from 0 would all look expired
    /// on the first advance, failing over the entire (healthy) fleet.
    fn arm_transport(&mut self, start: u64) {
        let Some(profile) = self.cfg.net.profile.profile() else { return };
        let seed = match self.cfg.net.seed {
            0 => derive_seed(self.cfg.seed, 0x005E_70FF_A111),
            s => s,
        };
        let lease_ticks = self.cfg.net.lease_ticks;
        let mut leases = BTreeMap::new();
        for shard in &mut self.shards {
            let authority = Arc::new(AtomicU64::new(0));
            shard.arm_fence(Self::FIRST_INCARNATION_TOKEN, authority.clone());
            shard.enable_lease(start + lease_ticks);
            self.fence_authorities.insert(shard.id(), authority);
            leases.insert(
                shard.id(),
                Lease { granted_until: start + lease_ticks, last_ack: start },
            );
        }
        self.net = Some(NetRuntime {
            net: SimNet::new(profile, seed, self.cfg.net.dedup_window, 2),
            lease_ticks,
            leases,
            health_cache: BTreeMap::new(),
        });
    }

    /// The live routing ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The fleet's tuning.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Every failover performed so far, in order.
    pub fn failovers(&self) -> &[FailoverEvent] {
        &self.failovers
    }

    fn shard_mut(&mut self, id: u32) -> &mut Shard {
        self.shards
            .iter_mut()
            .find(|s| s.id() == id)
            .expect("ring routed to a shard the coordinator does not own")
    }

    /// Offers one chunk for `tenant`: assigns the tenant's next global
    /// seq, routes to the home shard, and counts the route. The seq
    /// advances even on a refusal, so numbering is a pure function of the
    /// offer stream — not of per-shard admission outcomes.
    ///
    /// In transport mode the offer is *sent*, not applied: it rides the
    /// plane as a `Msg::Offer` and is admitted when it arrives (same tick
    /// under [`crate::transport::NetProfile::ideal`]). The call then
    /// always returns `Ok` — admission refusals happen at the shard's
    /// front door on delivery and are counted there.
    ///
    /// # Errors
    ///
    /// Whatever the home shard's front door refuses with (direct mode).
    ///
    /// # Panics
    ///
    /// Panics if every shard has been retired (empty ring).
    pub fn offer(&mut self, tenant: &str, cost: u64, now: u64) -> Result<(), AdmissionError> {
        let seq = {
            let s = self.tenant_seq.entry(tenant.to_string()).or_insert(0);
            let seq = *s;
            *s += 1;
            seq
        };
        let id = self.ring.route(tenant);
        if let Some(rt) = self.net.as_mut() {
            let msg = Msg::Offer { tenant: tenant.to_string(), chunk_seq: seq, cost };
            rt.net.send(NodeId::Coordinator, NodeId::Shard(id), msg, now);
            return Ok(());
        }
        self.offer_to_shard(id, tenant, cost, now, seq)
    }

    /// Routes one tagged chunk into shard `id`'s front door, keeping the
    /// books exact. A [`AdmissionError::WritesRefused`] or
    /// [`AdmissionError::ShardFenced`] refusal fires *before* the shard's
    /// controller can count the offer, so it is booked at the coordinator's
    /// retired ledger instead — and not against the shard's routed count,
    /// which must keep matching what its journal can prove at
    /// reconciliation.
    fn offer_to_shard(
        &mut self,
        id: u32,
        tenant: &str,
        cost: u64,
        now: u64,
        seq: u64,
    ) -> Result<(), AdmissionError> {
        let res = self.shard_mut(id).offer_tagged(tenant, cost, now, seq);
        match &res {
            Err(AdmissionError::WritesRefused { .. } | AdmissionError::ShardFenced { .. }) => {
                self.retired.offered += 1;
                self.retired.rejected += 1;
            }
            _ => *self.routed.entry(id).or_insert(0) += 1,
        }
        res
    }

    /// Advances every live shard one tick in parallel (drain up to
    /// `capacity` chunks each, observe, ledger on cadence). `panics` names
    /// the shard ids whose drain worker the chaos harness kills this tick;
    /// those panics are contained inside their shard. Served chunks come
    /// back in shard-id-then-queue order — deterministic for any worker
    /// count. A shard whose restart budget dies this tick is crash-failed
    /// over before this returns.
    pub fn advance(&mut self, now: u64, capacity: usize, panics: &[u32]) -> Vec<QueuedChunk> {
        if self.net.is_some() {
            self.net_deliver(now);
            self.lease_expiry_failover(now);
        }
        let shards = std::mem::take(&mut self.shards);
        let mut results = par_map_vec_indexed(shards, |_, mut shard| {
            let inject = panics.contains(&shard.id());
            let tick = shard.advance(now, capacity, inject);
            (shard, tick)
        });
        let mut served = Vec::new();
        let mut deaths = Vec::new();
        for (shard, tick) in &mut results {
            served.append(&mut tick.served);
            if tick.died {
                deaths.push(shard.id());
            }
        }
        self.shards = results.into_iter().map(|(s, _)| s).collect();
        self.track_durability(now);
        for id in deaths {
            self.crash_failover(id, now);
        }
        self.scrub_tick(now);
        if self.net.is_some() {
            self.net_probe(now);
        }
        served
    }

    /// Pumps the plane at `now` and applies every fresh delivery: offers
    /// land at shard front doors, probes extend shard leases (and are
    /// acked with a health sample), drains fence shards, and evacuations
    /// book the retired counters and re-offer the evacuated queue.
    fn net_deliver(&mut self, now: u64) {
        let mut rt = self.net.take().expect("net_deliver requires transport mode");
        for d in rt.net.pump(now) {
            match d.dst {
                NodeId::Shard(id) => self.net_deliver_to_shard(&mut rt, id, d, now),
                NodeId::Coordinator => self.net_deliver_to_coordinator(&mut rt, d, now),
            }
        }
        self.net = Some(rt);
    }

    /// Applies one delivery addressed to shard `id` (the coordinator owns
    /// every shard object, so it runs the shard's receive logic in place —
    /// deterministically, in delivery order).
    fn net_deliver_to_shard(
        &mut self,
        rt: &mut NetRuntime,
        id: u32,
        d: crate::transport::Delivery<Msg>,
        now: u64,
    ) {
        let alive = self
            .shards
            .iter()
            .any(|s| s.id() == id && s.state() == ShardState::Active);
        match d.payload {
            Msg::Offer { tenant, chunk_seq, cost } => {
                if !alive || !self.ring.contains(id) {
                    // Dead, fenced, or already off the ring: refuse. The
                    // frame stays pending and the failover path re-routes
                    // it (`take_pending_to`) — at-least-once, never lost.
                    rt.net.refuse();
                    return;
                }
                // A refusal here is the shard's front door rejecting
                // (counted in its `rejected`, or at the coordinator for a
                // storage refusal) — delivery still succeeded.
                let _ = self.offer_to_shard(id, &tenant, cost, now, chunk_seq);
                rt.net.accept(d.src, d.dst, d.seq, now);
            }
            Msg::Probe { lease_until } => {
                if !alive {
                    rt.net.refuse();
                    return;
                }
                let shard = self.shard_mut(id);
                shard.grant_lease(lease_until);
                let health = shard.health();
                rt.net.accept(d.src, d.dst, d.seq, now);
                rt.net.send(NodeId::Shard(id), NodeId::Coordinator, Msg::ProbeAck { health }, now);
            }
            Msg::Drain => {
                if !alive {
                    rt.net.refuse();
                    return;
                }
                let (chunks, stats) = self.shard_mut(id).fence(now);
                rt.net.accept(d.src, d.dst, d.seq, now);
                rt.net.send(
                    NodeId::Shard(id),
                    NodeId::Coordinator,
                    Msg::Evacuated { chunks, stats },
                    now,
                );
            }
            // Shards never receive acks or evacuations; a misrouted frame
            // is refused (and eventually discarded by failover cleanup).
            Msg::ProbeAck { .. } | Msg::Evacuated { .. } => rt.net.refuse(),
        }
    }

    /// Applies one delivery addressed to the coordinator.
    fn net_deliver_to_coordinator(
        &mut self,
        rt: &mut NetRuntime,
        d: crate::transport::Delivery<Msg>,
        now: u64,
    ) {
        let NodeId::Shard(from) = d.src else {
            rt.net.refuse();
            return;
        };
        match d.payload {
            Msg::ProbeAck { health } => {
                rt.net.accept(d.src, d.dst, d.seq, now);
                if let Some(lease) = rt.leases.get_mut(&from) {
                    lease.last_ack = lease.last_ack.max(now);
                }
                rt.health_cache.insert(from, (now, health));
            }
            Msg::Evacuated { chunks, stats } => {
                rt.net.accept(d.src, d.dst, d.seq, now);
                // Gate on the shard's unbooked final snapshot: if a lease
                // expiry crash-failed this shard while the evacuation was
                // in flight, the journal already reconciled it and this
                // message is a stale duplicate of that accounting.
                if self.shard_mut(from).take_final_stats().is_none() {
                    return;
                }
                self.book_fenced_stats(from, &stats);
                self.bump_fence_authority(from);
                rt.leases.remove(&from);
                rt.health_cache.remove(&from);
                let moved = chunks.len() as u64;
                let mut lost = Vec::new();
                for chunk in chunks {
                    if self.ring.is_empty() {
                        lost.push(chunk);
                        continue;
                    }
                    let target = self.ring.route(&chunk.tenant);
                    let msg = Msg::Offer {
                        tenant: chunk.tenant,
                        chunk_seq: chunk.seq,
                        cost: chunk.cost,
                    };
                    rt.net.send(NodeId::Coordinator, NodeId::Shard(target), msg, now);
                }
                if !lost.is_empty() {
                    // No live shard left to take the evacuees: booked
                    // honestly, never silently leaked.
                    self.retired.shed += lost.len() as u64;
                    self.crash_loss += lost.len() as u64;
                }
                self.net_reroute_pending(rt, from, now);
                self.failovers.push(FailoverEvent {
                    tick: now,
                    shard: from,
                    kind: FailoverKind::Graceful,
                    moved_chunks: moved,
                    reoffer_rejected: 0,
                    crash_loss: lost.len() as u64,
                    recovered: 0,
                });
            }
            // The coordinator never receives offers, probes, or drains.
            Msg::Offer { .. } | Msg::Probe { .. } | Msg::Drain => rt.net.refuse(),
        }
    }

    /// Takes every frame still pending to retired shard `id` off the
    /// plane. Offers that were never applied at the receiver re-route to
    /// the tenant's current home (at-least-once across failover); applied
    /// frames are already accounted by the receiver's journal, and
    /// control frames (probes, drains) die with the endpoint.
    fn net_reroute_pending(&mut self, rt: &mut NetRuntime, id: u32, now: u64) {
        let pending = rt.net.take_pending_to(NodeId::Shard(id));
        for (_src, _seq, msg, applied) in pending {
            if applied {
                continue;
            }
            if let Msg::Offer { tenant, chunk_seq, cost } = msg {
                if self.ring.is_empty() {
                    self.retired.offered += 1;
                    self.retired.shed += 1;
                    self.crash_loss += 1;
                    continue;
                }
                let target = self.ring.route(&tenant);
                let msg = Msg::Offer { tenant, chunk_seq, cost };
                rt.net.send(NodeId::Coordinator, NodeId::Shard(target), msg, now);
            }
        }
    }

    /// Fails over every shard whose lease *provably* expired: the
    /// coordinator granted `lease_until` values only up to
    /// `granted_until`, so once `now > granted_until` the shard — which
    /// can hold no fresher grant — has already self-fenced. Failing over
    /// before that tick could split-brain; at it, it cannot.
    fn lease_expiry_failover(&mut self, now: u64) {
        let expired: Vec<u32> = self
            .net
            .as_ref()
            .map(|rt| {
                // One extra tick beyond the recorded grant: the grant
                // value a shard holds was delivered a tick after it was
                // recorded here, so the epsilon guarantees the shard's
                // own lease check fires strictly first — even when every
                // grant up to the horizon was delivered (one-way
                // partitions). No split-brain without relying on
                // intra-tick ordering.
                rt.leases
                    .iter()
                    .filter(|(_, l)| now > l.granted_until + 1)
                    .map(|(id, _)| *id)
                    .collect()
            })
            .unwrap_or_default();
        for id in expired {
            // The shard is unreachable or wedged; treat it as dead. Its
            // journal segment (and replica) reconcile the exact queue.
            self.shard_mut(id).kill();
            self.crash_failover(id, now);
        }
    }

    /// Sends this tick's heartbeat probes. A probe extends the shard's
    /// lease to `now + lease_ticks` — but only while acks are fresh: once
    /// `last_ack` goes stale the coordinator stops granting, the shard's
    /// lease runs down, and both sides converge on a fence/failover with
    /// no overlap.
    fn net_probe(&mut self, now: u64) {
        let mut rt = self.net.take().expect("net_probe requires transport mode");
        let live: Vec<u32> = self
            .shards
            .iter()
            .filter(|s| s.state() == ShardState::Active && self.ring.contains(s.id()))
            .map(Shard::id)
            .collect();
        for id in live {
            let Some(lease) = rt.leases.get_mut(&id) else { continue };
            let until = if now.saturating_sub(lease.last_ack) <= rt.lease_ticks {
                // Acks are fresh: extend the grant.
                let until = now + rt.lease_ticks;
                lease.granted_until = lease.granted_until.max(until);
                until
            } else {
                // Acks went stale: extending now could grant a lease the
                // coordinator is about to expire, so the probe re-states
                // the frozen grant instead (`grant_lease` is monotonic, so
                // this never extends anything). Probing continues so a
                // healed partition resumes the handshake — the first ack
                // through refreshes `last_ack` and grants resume.
                lease.granted_until
            };
            rt.net.send(
                NodeId::Coordinator,
                NodeId::Shard(id),
                Msg::Probe { lease_until: until },
                now,
            );
        }
        self.net = Some(rt);
    }

    /// Books this tick's storage picture: per-level occupancy across live
    /// shards (the `durability_level_ticks` budget) and every gauge
    /// transition drained from the shards, re-stamped onto the tick clock
    /// and surfaced as typed [`ServiceEvent::DurabilityTransition`]s on
    /// the coordinator's log. Runs once per `advance`, *before* death
    /// processing, so a shard that dies this tick still reports its last
    /// transitions.
    fn track_durability(&mut self, now: u64) {
        let mut moves: Vec<(u32, DurabilityLevel, DurabilityLevel)> = Vec::new();
        for shard in &self.shards {
            if shard.state() == ShardState::Active && self.ring.contains(shard.id()) {
                let level = shard.durability_level();
                if let Some(idx) = DurabilityLevel::ALL.iter().position(|l| *l == level) {
                    self.durability_level_ticks[idx] += 1;
                }
            }
            for (_, from, to) in shard.take_durability_transitions() {
                moves.push((shard.id(), from, to));
            }
        }
        for (shard, from, to) in moves {
            self.log.push(ServiceEvent::DurabilityTransition { tick: now, shard, from, to });
        }
    }

    /// One anti-entropy pass on cadence: every `scrub_every` ticks, one
    /// live shard (round-robin over the fleet in id order, so every
    /// replica gets verified within `live × scrub_every` ticks) has its
    /// replica CRC-verified against its primary and read-repaired.
    /// Logical ticks only — deterministic for any thread count.
    fn scrub_tick(&mut self, now: u64) {
        let every = self.cfg.scrub_every;
        if !self.cfg.replicated() || every == 0 || !now.is_multiple_of(every) {
            return;
        }
        let live: Vec<u32> = self
            .shards
            .iter()
            .filter(|s| s.state() == ShardState::Active && self.ring.contains(s.id()))
            .map(Shard::id)
            .collect();
        if live.is_empty() {
            return;
        }
        let victim = live[((now / every) as usize) % live.len()];
        let found = self.shard_mut(victim).scrub();
        self.scrub_events.extend(found);
    }

    /// Scans health, advances per-shard BrownOut streaks, and fences any
    /// shard browned out for `failover_after` consecutive scans — unless
    /// it is the last one standing (fencing the whole fleet would turn a
    /// brown-out into a blackout; the single shard's own breaker already
    /// sheds load). A shard whose disk gauge sits at the bottom rung
    /// ([`DurabilityLevel::RefuseWrites`]) counts as browned out too: its
    /// storage cannot hold work honestly, so the same streak drains it to
    /// healthier disks through the existing fencing machinery. Returns
    /// the failovers performed.
    pub fn react(&mut self, now: u64) -> Vec<FailoverEvent> {
        let mut fenced = Vec::new();
        for h in self.health_samples() {
            if h.state != ShardState::Active || !self.ring.contains(h.id) {
                continue;
            }
            let streak = self.brownout_streak.entry(h.id).or_insert(0);
            if h.fleet == FleetState::BrownOut || h.durability == DurabilityLevel::RefuseWrites {
                *streak += 1;
            } else {
                *streak = 0;
            }
            if *streak >= self.cfg.failover_after && self.ring.len() > 1 {
                fenced.push(h.id);
            }
        }
        let mut events = Vec::new();
        for id in fenced {
            if self.ring.len() > 1 {
                if self.net.is_some() {
                    self.net_drain(id, now);
                } else {
                    events.push(self.graceful_failover(id, now));
                }
            }
        }
        events
    }

    /// The health samples `react` keys off. Direct mode reads each shard
    /// in place; transport mode reads the probe-derived cache — the
    /// coordinator can only act on what the plane actually delivered, so
    /// a partitioned shard's health freezes at its last ack (its *lease*
    /// is what expires, not its health picture).
    fn health_samples(&self) -> Vec<ShardHealth> {
        match &self.net {
            None => self.shards.iter().map(Shard::health).collect(),
            Some(rt) => self
                .shards
                .iter()
                .map(|s| rt.health_cache.get(&s.id()).map_or_else(|| s.health(), |(_, h)| *h))
                .collect(),
        }
    }

    /// Starts a graceful failover over the plane: the shard leaves the
    /// ring immediately (no new offers route to it) and a `Msg::Drain`
    /// is sent; the shard fences on receipt and ships its queue back as
    /// `Msg::Evacuated`, which books the retirement and re-offers the
    /// evacuees. At-least-once delivery carries both legs through loss.
    fn net_drain(&mut self, id: u32, now: u64) {
        self.routed.remove(&id);
        self.ring.remove_shard(id);
        self.rehome_replicas();
        // The fencing authority is NOT bumped yet: the shard still has to
        // write its final ledger when the drain lands. The bump happens
        // when the evacuation is booked (or a lease expiry crash-fails
        // the shard first).
        let rt = self.net.as_mut().expect("net_drain requires transport mode");
        rt.net.send(NodeId::Coordinator, NodeId::Shard(id), Msg::Drain, now);
    }

    /// Raises shard `id`'s fencing authority past its incarnation's
    /// token: any append the stale writer attempts from here on is
    /// refused with [`DurableError::Fenced`], before touching the bytes.
    fn bump_fence_authority(&mut self, id: u32) {
        if let Some(auth) = self.fence_authorities.get(&id) {
            auth.store(Self::FIRST_INCARNATION_TOKEN + 1, Ordering::SeqCst);
        }
    }

    /// Hard-kills shard `id` (chaos: a `SIGKILL` mid-campaign) and
    /// immediately crash-fails it over. The process dies but the disk
    /// survives: reconciliation replays the primary journal.
    pub fn kill_shard(&mut self, id: u32, now: u64) -> FailoverEvent {
        self.shard_mut(id).kill();
        self.crash_failover(id, now)
    }

    /// Kills shard `id` *and destroys its disk* (chaos: a machine loss) —
    /// the primary journal is gone; only the replica on the follower's
    /// node can reconcile. This is the failure replication exists for.
    pub fn kill_shard_with_disk_loss(&mut self, id: u32, now: u64) -> FailoverEvent {
        self.shard_mut(id).kill_with_disk_loss();
        self.crash_failover(id, now)
    }

    /// Arms the nemesis on shard `id`: its next replica ship tears
    /// mid-frame and the replica latches (the primary record still
    /// commits). See [`Shard::tear_replica_next`].
    pub fn tear_replica_next(&mut self, id: u32, frac: f64) {
        self.shard_mut(id).tear_replica_next(frac);
    }

    /// Shard `id`'s replica segment path, when it has a follower.
    pub fn replica_path_of(&self, id: u32) -> Option<PathBuf> {
        self.shards.iter().find(|s| s.id() == id).and_then(Shard::replica_path)
    }

    /// Fences shard `id`, retires its final counters, removes it from the
    /// ring, and re-offers its evacuated queue along each tenant's new
    /// route (seq tags intact).
    fn graceful_failover(&mut self, id: u32, now: u64) -> FailoverEvent {
        let (evacuated, stats) = self.shard_mut(id).fence(now);
        // Consume the shard's retained snapshot (it is being booked right
        // here) so the live roll-up does not count it a second time.
        let _ = self.shard_mut(id).take_final_stats();
        self.book_fenced_stats(id, &stats);
        self.routed.remove(&id);
        self.ring.remove_shard(id);
        self.rehome_replicas();
        let moved = evacuated.len() as u64;
        let mut reoffer_rejected = 0;
        for chunk in evacuated {
            let target = self.ring.route(&chunk.tenant);
            if self.offer_to_shard(target, &chunk.tenant, chunk.cost, now, chunk.seq).is_err() {
                reoffer_rejected += 1;
            }
        }
        let event = FailoverEvent {
            tick: now,
            shard: id,
            kind: FailoverKind::Graceful,
            moved_chunks: moved,
            reoffer_rejected,
            crash_loss: 0,
            recovered: 0,
        };
        self.failovers.push(event);
        event
    }

    /// Books a fenced shard's final counters into the retired ledger,
    /// enforcing the fence invariant *in release builds*: `Shard::fence`
    /// evacuates before snapshotting, so `queued` must be zero. A
    /// violation (a coordinator bug) is reported as a typed
    /// [`FleetInternalError`] and the residual is booked as shed, keeping
    /// the conservation identity exact instead of aborting the fleet.
    fn book_fenced_stats(&mut self, id: u32, stats: &AdmissionStats) {
        if stats.queued != 0 {
            self.internal_errors
                .push(FleetInternalError::FenceLeftQueue { shard: id, queued: stats.queued });
            self.retired.shed += stats.queued;
            self.crash_loss += stats.queued;
        }
        self.retired.offered += stats.offered;
        self.retired.served += stats.served;
        self.retired.rejected += stats.rejected;
        self.retired.shed += stats.shed;
        self.retired.migrated += stats.migrated;
    }

    /// Re-pairs every live shard with its current ring successor after a
    /// membership change. Shards whose follower moved get a fresh replica
    /// rebuilt from their primary (the old copy is deleted); unchanged
    /// pairings are untouched.
    fn rehome_replicas(&mut self) {
        if !self.cfg.replicated() {
            return;
        }
        let ring = self.ring.clone();
        for shard in &mut self.shards {
            if shard.state() == ShardState::Active && ring.contains(shard.id()) {
                shard.rehome_replica(ring.successor_shard(shard.id()));
            }
        }
    }

    /// Reconciles a crashed shard, removes it from the ring, re-pairs the
    /// survivors' replicas, and re-offers whatever queue a surviving
    /// journal copy replays. See the module docs for the algebra.
    fn crash_failover(&mut self, id: u32, now: u64) -> FailoverEvent {
        let routed = self.routed.remove(&id).unwrap_or(0);
        // The dead shard's replica lives where its *last rehome* put it —
        // the Shard object remembers; the ring is the fallback for a
        // shard the coordinator no longer holds (post-restart reconcile
        // goes through `reconcile_books` directly instead).
        let follower = self
            .shards
            .iter()
            .find(|s| s.id() == id)
            .map_or_else(|| self.ring.successor_shard(id), Shard::follower);
        // The sink's unjournaled counter survives an in-process kill (the
        // Shard object outlives its controller), so a degraded shard's
        // admitted-but-never-journaled records can be booked honestly.
        let unjournaled =
            self.shards.iter().find(|s| s.id() == id).map_or(0, Shard::unjournaled);
        let (queue, booked_loss) = self.reconcile_books(id, follower, routed, unjournaled);
        self.ring.remove_shard(id);
        self.rehome_replicas();
        if self.net.is_some() {
            // Fence the dead incarnation out of its journal (a resurrected
            // stale writer gets a typed refusal, not a corrupted replay),
            // then clear its lease and re-route its undelivered offers.
            self.bump_fence_authority(id);
            let mut rt = self.net.take().expect("checked above");
            rt.leases.remove(&id);
            rt.health_cache.remove(&id);
            self.net_reroute_pending(&mut rt, id, now);
            self.net = Some(rt);
        }
        let (recovered, reoffer_rejected, residual_loss) = self.reoffer_recovered(queue, now);
        let event = FailoverEvent {
            tick: now,
            shard: id,
            kind: FailoverKind::Crash,
            moved_chunks: recovered,
            reoffer_rejected,
            crash_loss: booked_loss + residual_loss,
            recovered,
        };
        self.failovers.push(event);
        event
    }

    /// Reconciles a dead shard's counters from the best surviving journal
    /// copy. Returns the exact queue at the moment of death when a clean
    /// copy replays it (loss limited to records the shard's degraded
    /// gauge never journaled — `unjournaled`, booked as shed), or an
    /// empty queue plus the honest bounded loss (already booked as shed)
    /// when every copy is damaged or replication is off. Touches books
    /// only — never the ring.
    fn reconcile_books(
        &mut self,
        id: u32,
        follower: Option<u32>,
        routed: u64,
        unjournaled: u64,
    ) -> (Vec<ChunkAdmit>, u64) {
        let primary = shard_journal_path(&self.dir, id);
        let replica = follower.map(|f| shard_replica_path(&self.dir, id, f));
        // Only copies that *exist* testify: `recover_run` materialises a
        // fresh empty journal for a missing path, and an empty journal
        // must never pass for a clean account of a destroyed disk.
        let candidates: Vec<PathBuf> = std::iter::once(primary)
            .chain(replica.clone())
            .filter(|p| p.exists())
            .collect();
        if self.cfg.replicated() {
            // Among clean copies, the one with the most records wins: a
            // shard that spent time at ReplicaOnly has a primary that
            // scans clean but legitimately trails its replica.
            let mut best = None;
            for path in &candidates {
                let Ok((run, defects)) = recover_run(path) else { continue };
                if !defects.is_empty() {
                    // A damaged copy is a *detected* liar: fsync ordering
                    // and CRCs guarantee a clean scan covers every commit,
                    // so only clean copies are trusted for exact replay.
                    continue;
                }
                let score = run.admits.len() + run.serves.len() + run.sheds.len();
                if best.as_ref().is_none_or(|(s, _)| score > *s) {
                    best = Some((score, run));
                }
            }
            if let Some((_, run)) = best {
                // Exact replay: every admit was journaled before its
                // enqueue, every serve/shed after its dequeue, so the
                // queue at death is the admit multiset minus both.
                let mut done: BTreeSet<(String, u64)> = run
                    .serves
                    .iter()
                    .map(|s| (s.tenant.clone(), s.seq))
                    .chain(run.sheds.iter().map(|(_, t, _, seq)| (t.clone(), *seq)))
                    .collect();
                let queue: Vec<ChunkAdmit> = run
                    .admits
                    .iter()
                    .filter(|a| !done.remove(&(a.tenant.clone(), a.seq)))
                    .cloned()
                    .collect();
                // What survives in `done` is the *orphans*: serves/sheds
                // journaled with no matching admit record, because the
                // admit landed while the gauge was degraded past
                // journaling and the serve after a climb. Each orphan is
                // a chunk inside the routed-minus-admits gap that is
                // already evidenced as served or shed — booking it as a
                // rejection too would double-count it.
                let orphans = done.len() as u64;
                let admits = run.admits.len() as u64;
                // `routed` is exact in-process; after a coordinator
                // restart it comes from a checkpoint and may lag the
                // journal — the max is the tightest honest offer count
                // (post-checkpoint refusals are then under-counted on
                // both sides of the identity, which stays exact).
                let offered = routed.max(admits + orphans);
                // The rest of the gap is front-door refusals plus records
                // a degraded gauge admitted but never journaled. The
                // latter died with the shard's memory: book them as shed
                // crash loss, not as rejections.
                let gap = offered - admits - orphans;
                let lost = unjournaled.min(gap);
                self.retired.offered += offered;
                self.retired.served += run.serves.len() as u64;
                self.retired.rejected += gap - lost;
                self.retired.shed += run.sheds.len() as u64 + lost;
                self.crash_loss += lost;
                if let Some(r) = &replica {
                    let _ = std::fs::remove_file(r); // consumed
                }
                return (queue, lost);
            }
        }
        // Bounded-loss reconciliation (replication off, or a double
        // failure damaged every copy): the best surviving prefix's last
        // ledger plus its exact journaled sheds.
        let mut ledger = LedgerRecord::default();
        let mut exact_shed = 0;
        for path in &candidates {
            let Ok((run, _defects)) = recover_run(path) else { continue };
            let l = run.ledgers.last().copied().unwrap_or_default();
            let s = run.sheds.len() as u64;
            let known = l.served + l.rejected + s + l.migrated;
            let best = ledger.served + ledger.rejected + exact_shed + ledger.migrated;
            if known > best || (known == best && l.offered > ledger.offered) {
                ledger = l;
                exact_shed = s;
            }
        }
        let known = ledger.served + ledger.rejected + exact_shed + ledger.migrated;
        // `routed` counts every chunk the coordinator sent; the journal
        // can only under-report (post-ledger serves/rejects, the queue at
        // the moment of death). The max of the lower bounds is the
        // tightest honest estimate; the shortfall is booked, not leaked.
        let offered = routed.max(ledger.offered).max(known);
        let loss = offered - known;
        self.retired.offered += offered;
        self.retired.served += ledger.served;
        self.retired.rejected += ledger.rejected;
        self.retired.shed += exact_shed + loss;
        self.retired.migrated += ledger.migrated;
        self.crash_loss += loss;
        if let Some(r) = &replica {
            let _ = std::fs::remove_file(r);
        }
        (Vec::new(), loss)
    }

    /// Re-offers a replayed queue along each tenant's new route, booking
    /// the moves as `migrated` at the dead shard (and `recovered`
    /// fleet-wide). With no live shard left to take them, the chunks are
    /// booked as honest residual loss instead. Returns
    /// `(recovered, reoffer_rejected, residual_loss)`.
    fn reoffer_recovered(&mut self, queue: Vec<ChunkAdmit>, now: u64) -> (u64, u64, u64) {
        if queue.is_empty() {
            return (0, 0, 0);
        }
        if self.ring.is_empty() {
            let residual = queue.len() as u64;
            self.retired.shed += residual;
            self.crash_loss += residual;
            return (0, 0, residual);
        }
        let moved = queue.len() as u64;
        self.retired.migrated += moved;
        self.recovered += moved;
        let mut reoffer_rejected = 0;
        for chunk in queue {
            let target = self.ring.route(&chunk.tenant);
            if self.offer_to_shard(target, &chunk.tenant, chunk.cost, now, chunk.seq).is_err() {
                reoffer_rejected += 1;
            }
        }
        (moved, reoffer_rejected, 0)
    }

    /// The aggregated health picture.
    pub fn view(&self) -> FleetView {
        let shards: Vec<ShardHealth> = self.shards.iter().map(Shard::health).collect();
        let live: Vec<&ShardHealth> =
            shards.iter().filter(|h| self.ring.contains(h.id)).collect();
        FleetView {
            live: live.len(),
            worst: live.iter().map(|h| h.fleet).max().unwrap_or(FleetState::Healthy),
            queue_depth_total: live.iter().map(|h| h.queue_depth).sum(),
            restart_burn: shards.iter().map(|h| h.restarts_used).sum(),
            replicas_latched: live.iter().filter(|h| h.replica_latched).count(),
            scrub_events: self.scrub_events.clone(),
            internal_errors: self.internal_errors.clone(),
            durability_worst: live
                .iter()
                .map(|h| h.durability)
                .max()
                .unwrap_or(DurabilityLevel::Durable),
            durability_level_ticks: self.durability_level_ticks,
            unjournaled_total: shards.iter().map(|h| h.unjournaled).sum(),
            shards,
        }
    }

    /// The coordinator's event log: every durability transition any
    /// shard's disk gauge took, as typed
    /// [`ServiceEvent::DurabilityTransition`]s on the tick clock.
    pub fn log(&self) -> &ServiceLog {
        &self.log
    }

    /// Shard-ticks spent at each durability level, best rung first (the
    /// same accumulation [`FleetView::durability_level_ticks`] reports).
    pub fn durability_level_ticks(&self) -> [u64; 4] {
        self.durability_level_ticks
    }

    /// Whether shard traffic flows through the simulated message plane.
    pub fn net_enabled(&self) -> bool {
        self.net.is_some()
    }

    /// The message plane's counters, when transport mode is on.
    pub fn net_stats(&self) -> Option<NetStats> {
        self.net.as_ref().map(|rt| rt.net.stats())
    }

    /// Every internal invariant violation detected (and survived) so far.
    pub fn internal_errors(&self) -> &[FleetInternalError] {
        &self.internal_errors
    }

    /// Scripts a full partition between the coordinator and shard `id`:
    /// both directions of the pair are blocked until healed. Transport
    /// mode only (a no-op on the direct path, which has no network to
    /// partition).
    pub fn partition_shard(&mut self, id: u32) {
        if let Some(rt) = self.net.as_mut() {
            rt.net.partition_pair(NodeId::Coordinator, NodeId::Shard(id));
        }
    }

    /// Scripts a one-way partition: when `inbound` is true the shard can
    /// no longer reach the coordinator (acks and evacuations are lost —
    /// the asymmetric case that forces self-fencing); otherwise the
    /// coordinator can no longer reach the shard.
    pub fn partition_shard_one_way(&mut self, id: u32, inbound: bool) {
        if let Some(rt) = self.net.as_mut() {
            if inbound {
                rt.net.block(NodeId::Shard(id), NodeId::Coordinator);
            } else {
                rt.net.block(NodeId::Coordinator, NodeId::Shard(id));
            }
        }
    }

    /// Heals every scripted partition.
    pub fn heal_partitions(&mut self) {
        if let Some(rt) = self.net.as_mut() {
            rt.net.heal_all();
        }
    }

    /// Whether shard `id` is currently self-fenced: lease-gated with an
    /// expired lease, frozen until a fresher grant arrives.
    pub fn shard_self_fenced(&self, id: u32, now: u64) -> bool {
        self.shards
            .iter()
            .find(|s| s.id() == id)
            .is_some_and(|s| s.state() == ShardState::Active && s.lease_expired(now))
    }

    /// The fencing token shard `id`'s journal writer holds, when armed.
    pub fn fence_token_of(&self, id: u32) -> Option<u64> {
        self.shards.iter().find(|s| s.id() == id).and_then(Shard::fence_token)
    }

    /// Resurrects retired shard `id` as a *stale writer*: attempts one
    /// journal append under its old incarnation's token and returns the
    /// typed refusal. `Some(DurableError::Fenced { .. })` proves the
    /// fencing token rejected the write with the bytes untouched; `None`
    /// means the append went through (the shard was never fenced out).
    pub fn stale_writer_probe(&self, id: u32, now: u64) -> Option<DurableError> {
        self.shards.iter().find(|s| s.id() == id).and_then(|s| s.stale_append_probe(now))
    }

    /// The fleet-wide roll-up: retired ledgers plus live counters.
    /// [`FleetStats::conserves`] holds at every tick by construction.
    pub fn stats(&self) -> FleetStats {
        let mut s = FleetStats {
            offered: self.retired.offered,
            served: self.retired.served,
            rejected: self.retired.rejected,
            shed: self.retired.shed,
            queued: 0,
            migrated: self.retired.migrated,
            crash_loss: self.crash_loss,
            recovered: self.recovered,
        };
        for shard in &self.shards {
            if let Some(a) = shard.stats() {
                s.offered += a.offered;
                s.served += a.served;
                s.rejected += a.rejected;
                s.shed += a.shed;
                s.queued += a.queued;
                s.migrated += a.migrated;
            }
        }
        s
    }

    /// Journals a coordinator checkpoint: live shard set, routed counts,
    /// per-tenant seqs, and the retired ledger. [`FleetCoordinator::recover`]
    /// restarts from the newest one.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] when the append fails.
    pub fn checkpoint(&mut self, now: u64) -> Result<(), DurableError> {
        let mut enc = Enc::new();
        enc.u64(now);
        let live = self.ring.shard_ids();
        enc.u64(live.len() as u64);
        for id in &live {
            enc.u64(u64::from(*id));
            enc.u64(self.routed.get(id).copied().unwrap_or(0));
        }
        enc.u64(self.retired.offered)
            .u64(self.retired.served)
            .u64(self.retired.rejected)
            .u64(self.retired.shed)
            .u64(self.retired.migrated)
            .u64(self.crash_loss)
            .u64(self.recovered);
        enc.u64(self.tenant_seq.len() as u64);
        for (tenant, seq) in &self.tenant_seq {
            enc.str(tenant).u64(*seq);
        }
        let seq = self.ckpt_seq;
        self.checkpoint.append(REC_CHECKPOINT, seq, &enc.into_bytes())?;
        self.ckpt_seq += 1;
        Ok(())
    }

    /// Restarts a coordinator from `dir` after a crash: replays the
    /// newest checkpoint, reconciles every then-live shard from its
    /// journal segment as a crash (the process died — their memory is
    /// gone), and brings up fresh shards under the same ids. The ring is
    /// rebuilt from the same seed and shard set, so every tenant keeps
    /// its home; per-tenant seqs resume where the checkpoint left them.
    ///
    /// # Errors
    ///
    /// [`DurableError`] when the checkpoint journal is unreadable or
    /// `dir` has no checkpoint at all.
    pub fn recover(cfg: FleetConfig, dir: &Path) -> Result<FleetCoordinator, DurableError> {
        let ckpt_path = coordinator_journal_path(dir);
        let (_journal, records, _defects) = Journal::open(&ckpt_path)?;
        let last = records
            .iter()
            .rev()
            .find(|r| r.kind == REC_CHECKPOINT)
            .ok_or_else(|| DurableError::Corrupt {
                path: ckpt_path.display().to_string(),
                offset: 0,
                detail: "no checkpoint to recover from".to_string(),
            })?;
        let corrupt = |e: emoleak_durable::WireError| DurableError::Corrupt {
            path: ckpt_path.display().to_string(),
            offset: e.offset,
            detail: e.detail,
        };
        let mut dec = Dec::new(&last.data);
        let tick = dec.u64().map_err(corrupt)?;
        let live_n = dec.u64().map_err(corrupt)? as usize;
        let mut live = Vec::with_capacity(live_n);
        for _ in 0..live_n {
            let id = dec.u64().map_err(corrupt)? as u32;
            let routed = dec.u64().map_err(corrupt)?;
            live.push((id, routed));
        }
        let retired = RetiredTotals {
            offered: dec.u64().map_err(corrupt)?,
            served: dec.u64().map_err(corrupt)?,
            rejected: dec.u64().map_err(corrupt)?,
            shed: dec.u64().map_err(corrupt)?,
            migrated: dec.u64().map_err(corrupt)?,
        };
        let crash_loss = dec.u64().map_err(corrupt)?;
        let recovered = dec.u64().map_err(corrupt)?;
        let tenants_n = dec.u64().map_err(corrupt)? as usize;
        let mut tenant_seq = BTreeMap::new();
        for _ in 0..tenants_n {
            let tenant = dec.str().map_err(corrupt)?;
            let seq = dec.u64().map_err(corrupt)?;
            tenant_seq.insert(tenant, seq);
        }
        dec.finish().map_err(corrupt)?;

        // The process died with the checkpointed shards live: reconcile
        // each from its segment, then restart it fresh under the same id.
        let mut coord = FleetCoordinator {
            ring: HashRing::new(cfg.seed, 0, cfg.vnodes),
            routed: BTreeMap::new(),
            cfg,
            dir: dir.to_path_buf(),
            shards: Vec::new(),
            tenant_seq,
            retired,
            crash_loss,
            recovered,
            brownout_streak: BTreeMap::new(),
            checkpoint: Journal::create(&ckpt_path)?,
            ckpt_seq: 0,
            failovers: Vec::new(),
            scrub_events: Vec::new(),
            internal_errors: Vec::new(),
            net: None,
            fence_authorities: BTreeMap::new(),
            log: ServiceLog::new(),
            durability_level_ticks: [0; 4],
        };
        for (id, routed) in &live {
            coord.ring.insert_shard(*id);
            coord.routed.insert(*id, *routed);
        }
        // Every shard restarts under the same id, so the ring — and with
        // it each shard's follower — never changes across the restart.
        // Reconcile against the *full* ring (the replicas were shipped
        // under it), collect the replayed queues, and only re-offer once
        // fresh shards exist to take them.
        let followers: Vec<(u32, Option<u32>, u64)> = live
            .iter()
            .map(|(id, routed)| {
                let f = if coord.cfg.replicated() {
                    coord.ring.successor_shard(*id)
                } else {
                    None
                };
                (*id, f, *routed)
            })
            .collect();
        let mut queues = Vec::with_capacity(followers.len());
        for (id, follower, routed) in followers {
            // A restart lost every in-memory counter, the unjournaled
            // count included; the journal's account is the floor.
            let (queue, loss) = coord.reconcile_books(id, follower, routed, 0);
            queues.push((id, queue, loss));
        }
        // Fresh shards under the same ids (truncating the reconciled
        // segments), same seed: every tenant keeps its home.
        coord.routed.clear();
        for (id, _) in &live {
            let follower = if coord.cfg.replicated() {
                coord.ring.successor_shard(*id)
            } else {
                None
            };
            coord.shards.push(Shard::new(
                *id,
                dir,
                coord.cfg.admission.clone(),
                coord.cfg.restart_budget,
                coord.cfg.ledger_every,
                coord.cfg.replicated(),
                follower,
                DiskConfig {
                    plan: coord.cfg.disk.shard_plan(coord.cfg.seed, *id),
                    gauge: coord.cfg.disk.gauge,
                },
            )?);
            coord.routed.insert(*id, 0);
        }
        // Fresh incarnations get fresh fencing tokens, leases, and a
        // fresh plane (new seed stream; in-flight frames died with the
        // old process, exactly like a real restart).
        coord.arm_transport(tick);
        for (id, queue, booked_loss) in queues {
            let (recovered, reoffer_rejected, residual_loss) =
                coord.reoffer_recovered(queue, tick);
            coord.failovers.push(FailoverEvent {
                tick,
                shard: id,
                kind: FailoverKind::Crash,
                moved_chunks: recovered,
                reoffer_rejected,
                crash_loss: booked_loss + residual_loss,
                recovered,
            });
        }
        Ok(coord)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("emoleak-coord-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small(shards: u32) -> FleetConfig {
        FleetConfig {
            shards,
            ledger_every: 10,
            admission: emoleak_admission::AdmissionConfig {
                mem_budget: u64::MAX / 2,
                tenant_rps: 1_000_000,
                tenant_burst: 1_000_000,
                ..Default::default()
            },
            ..FleetConfig::default()
        }
    }

    fn tenants(n: usize) -> Vec<String> {
        (0..n).map(|t| format!("tenant-{t}")).collect()
    }

    #[test]
    fn clean_path_conserves_and_serves_everything() {
        let dir = scratch("clean");
        let mut c = FleetCoordinator::new(small(4), &dir).unwrap();
        let ts = tenants(16);
        for now in 0..200 {
            for t in &ts {
                c.offer(t, 64, now).unwrap();
            }
            c.advance(now, 64, &[]);
        }
        let mut now = 200;
        while c.stats().queued > 0 {
            c.advance(now, usize::MAX, &[]);
            now += 1;
        }
        let s = c.stats();
        assert!(s.conserves(), "{s:?}");
        assert_eq!(s.offered, 16 * 200);
        assert_eq!(s.served, s.offered, "clean path serves everything: {s:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn killing_a_shard_replays_its_queue_with_zero_loss() {
        let dir = scratch("kill");
        let mut c = FleetCoordinator::new(small(4), &dir).unwrap();
        let ts = tenants(24);
        let homes: BTreeMap<&String, u32> =
            ts.iter().map(|t| (t, c.ring().route(t))).collect();
        for now in 0..100 {
            for t in &ts {
                // Capacity-starved on purpose (queues must be non-empty at
                // the kill); brown-out refusals are part of the deal.
                let _ = c.offer(t, 64, now);
            }
            c.advance(now, 2, &[]);
        }
        let victim = 1;
        let event = c.kill_shard(victim, 100);
        assert_eq!(event.kind, FailoverKind::Crash);
        assert_eq!(event.crash_loss, 0, "a clean journal replays the queue: {event:?}");
        assert!(event.recovered > 0, "the starved queue must replay: {event:?}");
        assert!(c.stats().conserves(), "{:?}", c.stats());
        // Bounded movement: only the victim's tenants re-home.
        for t in &ts {
            let new_home = c.ring().route(t);
            if homes[t] == victim {
                assert_ne!(new_home, victim);
            } else {
                assert_eq!(new_home, homes[t], "{t} moved without cause");
            }
        }
        // The fleet keeps serving; the identity keeps holding.
        for now in 101..200 {
            for t in &ts {
                let _ = c.offer(t, 64, now);
            }
            c.advance(now, usize::MAX, &[]);
        }
        let s = c.stats();
        assert!(s.conserves(), "{s:?}");
        assert_eq!(s.crash_loss, 0, "replicated failover is lossless: {s:?}");
        assert!(s.recovered > 0, "{s:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn without_replication_a_kill_books_honest_loss() {
        let dir = scratch("kill-bare");
        let mut cfg = small(4);
        cfg.replicas = 0;
        let mut c = FleetCoordinator::new(cfg, &dir).unwrap();
        let ts = tenants(24);
        for now in 0..100 {
            for t in &ts {
                let _ = c.offer(t, 64, now);
            }
            c.advance(now, 2, &[]);
        }
        let event = c.kill_shard(1, 100);
        assert_eq!(event.recovered, 0, "{event:?}");
        assert!(event.crash_loss > 0, "a kill with queued work must book loss: {event:?}");
        let s = c.stats();
        assert!(s.conserves(), "{s:?}");
        assert_eq!(s.recovered, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_loss_recovers_from_the_replica_and_double_failure_is_honest() {
        let dir = scratch("diskloss");
        let mut c = FleetCoordinator::new(small(4), &dir).unwrap();
        let ts = tenants(24);
        for now in 0..100 {
            for t in &ts {
                let _ = c.offer(t, 64, now);
            }
            c.advance(now, 2, &[]);
        }
        // Machine loss: primary journal destroyed; only the replica on
        // the follower's node reconciles — still zero loss.
        let event = c.kill_shard_with_disk_loss(1, 100);
        assert_eq!(event.crash_loss, 0, "the replica replays the queue: {event:?}");
        assert!(event.recovered > 0, "{event:?}");
        assert!(c.stats().conserves(), "{:?}", c.stats());

        // Double failure: shard 2's disk dies *and* its replica is
        // corrupted mid-file. No clean copy survives — the residual is
        // booked honestly, never silently leaked.
        let replica = c.replica_path_of(2).expect("replication is on");
        let mut bytes = std::fs::read(&replica).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&replica, &bytes).unwrap();
        let event = c.kill_shard_with_disk_loss(2, 101);
        assert!(event.crash_loss > 0, "a double failure must book loss: {event:?}");
        assert_eq!(event.recovered, 0, "{event:?}");
        let s = c.stats();
        assert!(s.conserves(), "{s:?}");
        assert!(s.crash_loss > 0 && s.recovered > 0, "{s:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_detects_and_repairs_a_corrupted_replica_on_cadence() {
        let dir = scratch("scrub");
        let mut cfg = small(2);
        cfg.scrub_every = 10;
        let mut c = FleetCoordinator::new(cfg, &dir).unwrap();
        let ts = tenants(8);
        for now in 0..10 {
            for t in &ts {
                c.offer(t, 64, now).unwrap();
            }
            c.advance(now, 8, &[]);
        }
        // Bit-rot on shard 0's replica; the cadence scrub must find it,
        // classify it, and rebuild the copy from the primary.
        let replica = c.replica_path_of(0).expect("replication is on");
        let mut bytes = std::fs::read(&replica).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&replica, &bytes).unwrap();
        let mut now = 10;
        while c.view().scrub_events.is_empty() && now < 60 {
            for t in &ts {
                c.offer(t, 64, now).unwrap();
            }
            c.advance(now, 8, &[]);
            now += 1;
        }
        let view = c.view();
        assert!(
            view.scrub_events
                .iter()
                .any(|d| matches!(d, Defect::ReplicaDiverged { .. })),
            "{:?}",
            view.scrub_events
        );
        assert!(
            view.scrub_events
                .iter()
                .any(|d| matches!(d, Defect::ScrubRepaired { .. })),
            "{:?}",
            view.scrub_events
        );
        assert_eq!(view.replicas_latched, 0, "repair clears the latch");
        // The repaired replica reconciles a subsequent disk loss exactly.
        let event = c.kill_shard_with_disk_loss(0, now);
        assert_eq!(event.crash_loss, 0, "{event:?}");
        assert!(c.stats().conserves(), "{:?}", c.stats());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn panic_storm_is_contained_until_the_budget_dies_then_reconciled() {
        let dir = scratch("storm");
        let mut c = FleetCoordinator::new(small(2), &dir).unwrap();
        let ts = tenants(8);
        let mut died_at = None;
        for now in 0..50 {
            for t in &ts {
                let _ = c.offer(t, 64, now);
            }
            // Shard 0 eats a hostile chunk every tick; budget 3 → dead at
            // the 4th panic.
            c.advance(now, 8, &[0]);
            if c.view().live == 1 && died_at.is_none() {
                died_at = Some(now);
            }
            assert!(c.stats().conserves(), "tick {now}: {:?}", c.stats());
        }
        let died_at = died_at.expect("the storm must eventually kill shard 0");
        assert_eq!(died_at, 3, "budget 3 contains exactly 3 panics");
        assert_eq!(c.failovers().len(), 1);
        assert_eq!(c.failovers()[0].kind, FailoverKind::Crash);
        // Shard 1 never noticed.
        let h1 = c.view().shards.iter().find(|h| h.id == 1).unwrap().restarts_used;
        assert_eq!(h1, 0, "the storm leaked across the shard boundary");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sustained_brownout_fences_gracefully_with_zero_loss() {
        let dir = scratch("brownout");
        let mut cfg = small(2);
        // Tiny budget so one tenant's flood browns its shard out.
        cfg.admission.mem_budget = 4096;
        let mut c = FleetCoordinator::new(cfg, &dir).unwrap();
        // Find a tenant homed on shard 0 and flood it; drain nothing.
        let flooder = (0..64)
            .map(|t| format!("tenant-{t}"))
            .find(|t| c.ring().route(t) == 0)
            .unwrap();
        let mut fenced = false;
        for now in 0..400 {
            for _ in 0..8 {
                let _ = c.offer(&flooder, 64, now);
            }
            c.advance(now, 0, &[]);
            let events = c.react(now);
            if !events.is_empty() {
                assert_eq!(events[0].kind, FailoverKind::Graceful);
                assert_eq!(events[0].shard, 0);
                assert!(events[0].moved_chunks > 0, "{events:?}");
                fenced = true;
                break;
            }
        }
        assert!(fenced, "sustained brown-out must fence the shard");
        let s = c.stats();
        assert!(s.conserves(), "{s:?}");
        assert_eq!(s.crash_loss, 0, "graceful failover loses nothing");
        assert!(s.migrated > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coordinator_restart_recovers_from_the_checkpoint() {
        let dir = scratch("restart");
        let ts = tenants(12);
        let (pre_stats, seqs) = {
            let mut c = FleetCoordinator::new(small(3), &dir).unwrap();
            for now in 0..60 {
                for t in &ts {
                    // Capacity-starved: refusals are expected and still
                    // advance the tenant's seq.
                    let _ = c.offer(t, 64, now);
                }
                c.advance(now, 2, &[]);
                if now % 20 == 19 {
                    c.checkpoint(now).unwrap();
                }
            }
            (c.stats(), c.tenant_seq.clone())
            // Dropped without a final checkpoint: ticks 40..59 are the
            // window a restart must reconcile honestly.
        };
        let c = FleetCoordinator::recover(small(3), &dir).unwrap();
        let s = c.stats();
        assert!(s.conserves(), "{s:?}");
        // Everything checkpoint-known or journal-known is retired;
        // nothing silently vanishes: recovered offered covers at least
        // the last checkpoint's routing and at most what really ran —
        // plus the replayed queues, which (like any migration) count a
        // second time at their new home's front door.
        assert!(
            s.offered <= pre_stats.offered + s.recovered,
            "recovered more than ran: {s:?}"
        );
        assert!(
            s.offered >= 12 * 40,
            "recovery lost checkpointed routing: {} < {}",
            s.offered,
            12 * 40
        );
        // Seqs resume from the checkpoint: monotone, never reused from 0.
        for t in &ts {
            let recovered = c.tenant_seq.get(t).copied().unwrap_or(0);
            assert!(recovered >= 40, "{t} seq rewound to {recovered}");
            assert!(recovered <= seqs[t]);
        }
        assert_eq!(c.view().live, 3, "all shards restart fresh");
        assert!(c.stats().conserves());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quiet_armed_disk_is_byte_identical_to_the_real_path() {
        use emoleak_durable::FaultPlan;
        let dir_a = scratch("quiet-a");
        let dir_b = scratch("quiet-b");
        let mut cfg_b = small(2);
        cfg_b.disk.plan = Some(FaultPlan::quiet(123));
        let mut a = FleetCoordinator::new(small(2), &dir_a).unwrap();
        let mut b = FleetCoordinator::new(cfg_b, &dir_b).unwrap();
        let ts = tenants(8);
        for now in 0..40 {
            for t in &ts {
                a.offer(t, 64, now).unwrap();
                b.offer(t, 64, now).unwrap();
            }
            a.advance(now, 8, &[]);
            b.advance(now, 8, &[]);
        }
        assert_eq!(a.stats(), b.stats());
        let view = b.view();
        assert_eq!(view.durability_worst, DurabilityLevel::Durable);
        assert_eq!(view.durability_level_ticks[1..], [0, 0, 0]);
        assert!(view.durability_level_ticks[0] > 0);
        assert_eq!(view.unjournaled_total, 0);
        assert!(b.log().events().is_empty(), "a quiet disk never transitions");
        for id in 0..2 {
            let pa = std::fs::read(shard_journal_path(&dir_a, id)).unwrap();
            let pb = std::fs::read(shard_journal_path(&dir_b, id)).unwrap();
            assert_eq!(pa, pb, "shard {id}: quiet FaultVfs must be byte-identical to OsVfs");
        }
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn storage_brownout_drains_through_the_fencing_machinery() {
        use emoleak_durable::FaultPlan;
        use emoleak_stream::DiskGaugeConfig;
        let dir = scratch("disk-drain");
        let mut cfg = small(2);
        // Tiny disks with the refuse watermark far above them: the first
        // journaled append pins every shard's gauge at the bottom rung.
        cfg.disk.plan = Some(FaultPlan { byte_budget: 4096, ..FaultPlan::quiet(5) });
        cfg.disk.gauge = DiskGaugeConfig {
            low_water: 1 << 20,
            refuse_water: 1 << 20,
            ..DiskGaugeConfig::default()
        };
        let mut c = FleetCoordinator::new(cfg, &dir).unwrap();
        let ts = tenants(8);
        let mut fenced = false;
        for now in 0..50 {
            for t in &ts {
                let _ = c.offer(t, 64, now);
            }
            c.advance(now, 2, &[]);
            if !c.react(now).is_empty() {
                fenced = true;
            }
            assert!(c.stats().conserves(), "tick {now}: {:?}", c.stats());
        }
        assert!(fenced, "sustained storage refusal must fence a shard");
        let view = c.view();
        assert_eq!(view.live, 1, "the last shard is never fenced");
        assert_eq!(view.durability_worst, DurabilityLevel::RefuseWrites);
        assert!(view.durability_level_ticks[3] > 0, "{:?}", view.durability_level_ticks);
        let moves = c.log().durability_transitions();
        assert!(!moves.is_empty());
        assert!(
            moves.iter().all(|(_, _, from, to)| to > from),
            "pressure-only runs degrade monotonically: {moves:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
