//! The four closed-loop workloads.
//!
//! Closed loop: one generator thread sends an epoch's frames and sends the
//! next epoch only after the monitor has accepted every heartbeat of this
//! one, so a slower system receives less load and nothing queues.
//!
//! Every workload is three rounds of {set up, warm up, measured window,
//! correctness checks, probes}; a window is a sequence of identical
//! fixed-work epochs, each timed on its own.

use std::hint::black_box;

use crate::gen::{Burst, Fleet, Rng};
use crate::stats::{Pool, SetupParts, WATCH_CHUNK};
use crate::sut::{self, ChanFeed, Counts, Engine, Feed, Inline, Open, Reader, Store, Timer};
use crate::trace::Tracer;

/// Heartbeats every peer gets before the first window: more than the
/// detector window holds, so every window is full.
pub const WARM_HEARTBEATS: usize = 40;

/// An epoch whose heartbeats are not all accepted after this long has lost
/// some; a probe not visible after this long has failed. Two seconds, not
/// the 200 ms a user would call failed: a shared host can stall a thread
/// for that long, and a stall of the host's is not a loss of the system's.
const PATIENCE_NS: u64 = 2_000_000_000;

/// Share of the peers that fall silent at the end of a window.
const STOPPED_ONE_IN: usize = 20;

/// Silence, in monitor time, before each of the three publishes of the
/// Accruement check: long against φ's 10 ms floor on σ, so that even a peer
/// heard a moment ago leaves level 0 at the first of them.
const QUIET_STEP_NS: u64 = 40_000_000;

/// How often a running engine republishes.
const ENGINE_PUBLISH_MS: u64 = 5;

/// Logical clients of the engine's probe phase, each with its own think
/// time, all driven by the one generator thread.
const PROBE_CLIENTS: usize = 8;

/// Longest think time of a probe client, ns.
const PROBE_THINK_NS: u64 = 7_000_000;

/// Peers the engine's probe clients cycle through.
const PROBE_PEERS: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Inline `ShardedMonitor` over one real loopback UDP lane.
    UdpInline,
    /// Inline `ShardedMonitor` over an in-process channel.
    ChanInline,
    /// `ParallelShardEngine`, one lane thread × one worker thread, over a
    /// channel lane.
    EngineChan,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub topology: Topology,
    pub peers: usize,
    pub shards: usize,
    /// Frames per measured epoch, replays included.
    pub burst: usize,
    pub resync_every: u32,
    /// How often every peer sends, in the monitor's (paced) time, ns.
    pub interval_ns: u64,
    /// Peers replaced (unwatch + watch of a fresh id) per epoch.
    pub churn: usize,
    /// Replayed frames per epoch; half duplicates, half stale.
    pub replays: usize,
    /// Whether `BENCHMARK.json` lists the workload, so that a later change
    /// is judged by it. `engine_chan` is carried in the ledger but not
    /// gated: its three threads share the host's two cores, and between the
    /// host's quiet and busy spells its epochs differ by 25–45 % at every
    /// quantile down to the fastest — more than the largest bound the
    /// contract allows (see `bench/README.md`).
    pub gated: bool,
    /// Set-ups per round. Only the last one is used; the others are there
    /// so that a workload with few peers still samples its set-up parts
    /// a few hundred times.
    pub setups_per_round: usize,
}

/// Datagrams per UDP burst: below the ≈190 small datagrams a default
/// `rcvbuf` holds (std offers no `SO_RCVBUF`), so the kernel drops none.
const UDP_BURST: usize = 128;

/// Frames per engine epoch: long enough (≈1.3 ms) that the generator's
/// wake-up latency is a few percent of it, short enough that most epochs
/// fall between two publishes.
const ENGINE_BURST: usize = 4096;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "udp_hot",
        topology: Topology::UdpInline,
        peers: 256,
        shards: 1,
        burst: UDP_BURST,
        resync_every: 64,
        // Hot peers: a kilohertz of heartbeats each, far inside φ's 10 ms
        // floor on σ, where a level is cheap to evaluate.
        interval_ns: 1_000_000,
        churn: 0,
        replays: 0,
        gated: true,
        setups_per_round: 16,
    },
    Spec {
        name: "udp_wide",
        topology: Topology::UdpInline,
        peers: 4096,
        shards: 4,
        burst: UDP_BURST,
        resync_every: 64,
        interval_ns: sut::NOMINAL_INTERVAL_NS,
        churn: 0,
        replays: 0,
        gated: true,
        setups_per_round: 1,
    },
    Spec {
        name: "engine_chan",
        topology: Topology::EngineChan,
        peers: 4096,
        shards: 1,
        burst: ENGINE_BURST,
        resync_every: 64,
        interval_ns: sut::NOMINAL_INTERVAL_NS,
        churn: 0,
        replays: 0,
        gated: false,
        setups_per_round: 4,
    },
    Spec {
        name: "churn_restore",
        topology: Topology::ChanInline,
        peers: 4096,
        shards: 4,
        burst: 128,
        resync_every: 8,
        interval_ns: sut::NOMINAL_INTERVAL_NS,
        churn: 4,
        replays: 4,
        gated: true,
        setups_per_round: 1,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Heartbeats per measured epoch that must be accepted.
    pub fn fresh(&self) -> usize {
        self.burst - self.replays
    }

    /// Warm-up epochs of one set-up. A warm-up epoch is a measured epoch
    /// that nobody pools: enough of them that every peer has sent
    /// [`WARM_HEARTBEATS`] and, where peers are replaced, that every slot
    /// has changed hands once, so a window starts in the steady state and
    /// not in a cheaper one that only exists right after a set-up.
    pub fn warm_epochs(&self) -> usize {
        let filled = (self.peers * WARM_HEARTBEATS).div_ceil(self.fresh());
        match self.churn {
            0 => filled,
            churn => filled.max(self.peers.div_ceil(churn)),
        }
    }

    /// The same peers, frames and churn through an inline monitor over a
    /// channel, for the `shard.*` and `persist.*` layers.
    pub fn as_inline(&self) -> Spec {
        Spec {
            topology: Topology::ChanInline,
            setups_per_round: 1,
            ..*self
        }
    }

    /// The engine topology of the same size, for the engine-stage layers
    /// of a workload that does not itself run an engine.
    pub fn as_engine(&self) -> Spec {
        Spec {
            topology: Topology::EngineChan,
            shards: 1,
            burst: ENGINE_BURST,
            churn: 0,
            replays: 0,
            setups_per_round: 1,
            ..*self
        }
    }
}

/// One measured epoch.
#[derive(Debug, Clone, Copy)]
pub struct Epoch {
    /// Monitor-side time (the generator's own sends excluded on the
    /// inline topologies), ns.
    pub ns: u64,
    pub accepted: u64,
    pub sent: u64,
}

/// Probe latencies and failures.
#[derive(Debug, Default)]
pub struct Probes {
    pub visible_us: Pool,
    pub attempted: u64,
    pub failed: u64,
}

/// Totals a finished rig hands back.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub sent: u64,
    pub accepted: u64,
    pub wire_bytes: u64,
}

impl Totals {
    pub fn add(&mut self, o: Totals) {
        self.sent += o.sent;
        self.accepted += o.accepted;
        self.wire_bytes += o.wire_bytes;
    }
}

/// A workload's system plus its generator, set up and warm.
pub trait Rig: Sized {
    fn build(spec: &Spec, seed: u64, timer: Timer, setup: &mut SetupParts) -> Result<Self, String>;

    /// One closed-loop epoch.
    fn epoch(&mut self, tr: &mut Tracer, no: u64) -> Result<Epoch, String>;

    /// End-of-window checks: a seeded twentieth of the peers stop and their
    /// published level must rise strictly across three publishes
    /// (Accruement); a live peer's level after its next heartbeat must be
    /// lower than before it (reset on arrival).
    fn check(&mut self, violations: &mut Vec<String>) -> Result<(), String>;

    /// `n` send→visible probes.
    fn probes(&mut self, n: usize, tr: &mut Tracer, out: &mut Probes) -> Result<(), String>;

    fn reader(&self) -> Reader;

    /// Ids currently watched.
    fn ids(&self) -> Vec<u32>;

    /// Work a workload does after each window (checkpoint and restore).
    fn after_window(
        &mut self,
        _tr: &mut Tracer,
        _violations: &mut Vec<String>,
    ) -> Result<(), String> {
        Ok(())
    }

    /// Conservation check and tear-down.
    fn finish(self, violations: &mut Vec<String>) -> Result<Totals, String>;

    /// The rig itself where it runs an engine, for the engine-stage rows.
    fn as_engine(&mut self) -> Option<&mut EngineRig> {
        None
    }
}

fn watch_all(
    ids: &[u32],
    timer: &Timer,
    setup: &mut SetupParts,
    mut watch: impl FnMut(u32) -> Result<bool, String>,
) -> Result<(), String> {
    setup.watch_chunks = ids.len().div_ceil(WATCH_CHUNK);
    for chunk in ids.chunks(WATCH_CHUNK) {
        let t = timer.ns();
        for &id in chunk {
            if !watch(id)? {
                return Err(format!("peer {id} was already watched"));
            }
        }
        // A short last chunk is scaled up to a whole one.
        let ns = (timer.ns() - t) as f64 * WATCH_CHUNK as f64 / chunk.len() as f64;
        setup.watch_chunk_ns.push(ns);
    }
    Ok(())
}

/// Slots in sending order: a seeded permutation walked round-robin.
#[derive(Debug)]
struct Order {
    slots: Vec<usize>,
    at: usize,
}

impl Order {
    fn new(peers: usize, rng: &mut Rng) -> Self {
        let mut slots: Vec<usize> = (0..peers).collect();
        rng.shuffle(&mut slots);
        Order { slots, at: 0 }
    }

    /// The next slot `ok` admits. At least one slot must be admissible.
    fn next(&mut self, ok: impl Fn(usize) -> bool) -> usize {
        loop {
            let slot = self.slots[self.at];
            self.at = (self.at + 1) % self.slots.len();
            if ok(slot) {
                return slot;
            }
        }
    }
}

/// Heartbeats after which a detector answers from its own window: φ's
/// `min_samples` is 5 gaps, and the check wants the heartbeat before and
/// the one after on the same side of that switch.
const SETTLED_SEQ: u64 = 8;

/// A peer the level checks can speak about. A peer the churn workload has
/// only just watched sits at level 0 until its first heartbeat, then
/// answers from the bootstrap prior (a one-second mean), and its level
/// *rises* across the heartbeat at which the detector switches from the
/// prior to its far tighter window. Neither is a fault, so neither is
/// checked.
fn settled(fleet: &Fleet, slot: usize) -> bool {
    fleet.seq(slot) >= SETTLED_SEQ
}

/// Marks a seeded twentieth of the settled peers as stopped.
fn pick_stopped(fleet: &Fleet, peers: usize, rng: &mut Rng) -> Vec<bool> {
    let mut stopped = vec![false; peers];
    let want = (peers / STOPPED_ONE_IN).max(1);
    let mut have = 0;
    while have < want {
        let slot = rng.below(peers as u64) as usize;
        if !stopped[slot] && settled(fleet, slot) {
            stopped[slot] = true;
            have += 1;
        }
    }
    stopped
}

// ---------------------------------------------------------------------------
// Inline topologies
// ---------------------------------------------------------------------------

pub struct InlineRig<F> {
    spec: Spec,
    timer: Timer,
    mon: Inline,
    feed: F,
    reader: Reader,
    fleet: Fleet,
    order: Order,
    rng: Rng,
    stopped: Vec<bool>,
    burst: Burst,
    /// Slots whose heartbeat is in `burst`.
    senders: Vec<usize>,
    next_id: u32,
    churn_at: usize,
    lost: u64,
}

impl<F: Open> InlineRig<F> {
    /// Encodes the next `fresh` heartbeats (and the epoch's replays) into
    /// `self.burst`; with `settled_only` the heartbeats come from settled
    /// peers alone. Generator work: never timed.
    fn encode_where(&mut self, fresh: usize, replays: usize, settled_only: bool) {
        self.burst.clear();
        self.senders.clear();
        for _ in 0..fresh {
            let (stopped, fleet) = (&self.stopped, &self.fleet);
            let slot = self
                .order
                .next(|s| !stopped[s] && (!settled_only || settled(fleet, s)));
            self.fleet.beat(slot, &mut self.burst);
            self.senders.push(slot);
        }
        // Half the replays are stale where that is sound, the rest (and
        // any stale one that is not sound) are duplicates.
        let mut stale = replays / 2;
        let mut at = 0usize;
        while stale > 0 && at < self.senders.len() {
            if self
                .fleet
                .replay_previous(self.senders[at], &mut self.burst)
            {
                stale -= 1;
            }
            at += 1;
        }
        for k in 0..(replays - replays / 2 + stale) {
            let slot = self.senders[k % self.senders.len()];
            self.fleet.replay_newest(slot, &mut self.burst);
        }
    }

    /// The generator's half of an epoch, never timed: which slots change
    /// hands, and the epoch's frames. Returns the (old id, new id) swaps.
    fn prepare(&mut self) -> Vec<(u32, u32)> {
        let mut swaps = Vec::with_capacity(self.spec.churn);
        for _ in 0..self.spec.churn {
            let slot = self.churn_at;
            self.churn_at = (self.churn_at + 1) % self.spec.peers;
            let new = self.next_id;
            self.next_id += 1;
            swaps.push((self.fleet.replace(slot, new), new));
        }
        self.encode_where(self.spec.fresh(), self.spec.replays, false);
        swaps
    }

    /// The system's half of an epoch: swap the watched peers, take the
    /// burst in, look one level up. The burst's `send` is the generator's
    /// and stays outside the time.
    fn drive(&mut self, swaps: &[(u32, u32)], tr: &mut Tracer, no: u64) -> Result<Epoch, String> {
        let fresh = self.spec.fresh();
        let ep = tr.begin("epoch", no);
        let mut ns = 0u64;
        if !swaps.is_empty() {
            let t = self.timer.ns();
            let sp = tr.begin("watch", no);
            for &(old, new) in swaps {
                if !self.mon.unwatch(old) {
                    return Err(format!("peer {old} was not watched"));
                }
                self.mon.watch(new)?;
            }
            tr.end(sp);
            ns += self.timer.ns() - t;
        }

        let sp = tr.begin("send_burst", no);
        self.send()?;
        tr.end(sp);

        let t = self.timer.ns();
        let accepted = self.absorb(fresh, tr, no)?;
        let sp = tr.begin("reader.level", no);
        black_box(self.reader.level(self.fleet.id(self.senders[0])));
        tr.end(sp);
        ns += self.timer.ns() - t;
        tr.end(ep);

        self.lost += (fresh - accepted.min(fresh)) as u64;
        Ok(Epoch {
            ns,
            accepted: accepted as u64,
            sent: fresh as u64,
        })
    }

    /// For the `shard` layers: one epoch's frames taken in by one timed
    /// tick, then one timed tick with nothing to drain, which only
    /// re-evaluates and republishes every level. Both see the detectors in
    /// the state the workload keeps them in — what a level costs to
    /// evaluate depends on how long its peer has been silent.
    pub fn full_then_empty_tick(&mut self) -> Result<(u64, u64), String> {
        for (old, new) in self.prepare() {
            self.mon.unwatch(old);
            self.mon.watch(new)?;
        }
        self.send()?;
        let t0 = self.timer.ns();
        let got = self.mon.tick()?;
        let t1 = self.timer.ns();
        let idle = self.mon.tick()?;
        let t2 = self.timer.ns();
        if got != self.spec.fresh() || idle != 0 {
            return Err(format!(
                "ticks accepted {got} of {}, then {idle} of 0",
                self.spec.fresh()
            ));
        }
        Ok((t1 - t0, t2 - t1))
    }

    /// The monitor itself, for the layers that time its other calls.
    pub fn monitor(&mut self) -> &mut Inline {
        &mut self.mon
    }

    /// Sends the burst and moves the monitor's time on by the burst's share
    /// of the nominal interval (every peer sends once per interval), give
    /// or take a seeded quarter.
    fn send(&mut self) -> Result<(), String> {
        for frame in self.burst.frames() {
            self.feed.send(frame)?;
        }
        let share = self.spec.interval_ns * self.senders.len() as u64 / self.spec.peers as u64;
        self.mon
            .advance(share * 3 / 4 + self.rng.below(share / 2 + 1));
        Ok(())
    }

    /// Ticks until `want` heartbeats are accepted; returns how many were.
    fn absorb(&mut self, want: usize, tr: &mut Tracer, no: u64) -> Result<usize, String> {
        let start = self.timer.ns();
        let mut accepted = 0usize;
        loop {
            let sp = tr.begin("tick", no);
            accepted += self.mon.tick()?;
            tr.end(sp);
            if accepted >= want || self.timer.ns() - start > PATIENCE_NS {
                return Ok(accepted);
            }
        }
    }

    fn levels(&self, slots: &[usize]) -> Result<Vec<f64>, String> {
        slots
            .iter()
            .map(|&slot| {
                let id = self.fleet.id(slot);
                self.reader
                    .level(id)
                    .ok_or_else(|| format!("watched peer {id} has no published level"))
            })
            .collect()
    }
}

impl<F: Open> Rig for InlineRig<F> {
    fn build(spec: &Spec, seed: u64, timer: Timer, setup: &mut SetupParts) -> Result<Self, String> {
        let t = timer.ns();
        let (mut mon, feed) = F::open(&timer, spec.shards, spec.peers * 2)?;
        setup.construct_ns.push((timer.ns() - t) as f64);

        let ids: Vec<u32> = (1..=spec.peers as u32).collect();
        watch_all(&ids, &timer, setup, |id| mon.watch(id))?;

        let mut rng = Rng::new(seed);
        let order = Order::new(spec.peers, &mut rng);
        let fleet = Fleet::new(&ids, spec.resync_every, spec.interval_ns, rng.next_u64());
        let mut rig = InlineRig {
            spec: *spec,
            timer,
            reader: mon.reader(),
            mon,
            feed,
            fleet,
            order,
            rng,
            stopped: vec![false; spec.peers],
            burst: Burst::default(),
            senders: Vec::with_capacity(spec.burst),
            next_id: spec.peers as u32 + 1,
            churn_at: 0,
            lost: 0,
        };

        let mut off = Tracer::new(timer);
        setup.warm_epochs = spec.warm_epochs();
        for _ in 0..setup.warm_epochs {
            let swaps = rig.prepare();
            let t = timer.ns();
            rig.drive(&swaps, &mut off, 0)?;
            setup.warm_epoch_ns.push((timer.ns() - t) as f64);
        }
        Ok(rig)
    }

    fn epoch(&mut self, tr: &mut Tracer, no: u64) -> Result<Epoch, String> {
        let swaps = self.prepare();
        self.drive(&swaps, tr, no)
    }

    fn check(&mut self, violations: &mut Vec<String>) -> Result<(), String> {
        let mut off = Tracer::new(self.timer);
        self.stopped = pick_stopped(&self.fleet, self.spec.peers, &mut self.rng);
        let silent: Vec<usize> = (0..self.spec.peers).filter(|&s| self.stopped[s]).collect();
        let mut last = self.levels(&silent)?;
        for publish in 1..=3 {
            self.mon.advance(QUIET_STEP_NS);
            self.mon.tick()?;
            let now = self.levels(&silent)?;
            for ((&slot, &a), &b) in silent.iter().zip(&last).zip(&now) {
                if b.partial_cmp(&a) != Some(std::cmp::Ordering::Greater) {
                    violations.push(format!(
                        "{}: Accruement: silent peer {} went {a} -> {b} at publish {publish}",
                        self.spec.name,
                        self.fleet.id(slot)
                    ));
                }
            }
            last = now;
        }

        // Reset on arrival: every live peer has now been silent for three
        // quiet steps, far longer than its usual gap.
        let fresh = self.spec.fresh();
        self.encode_where(fresh, 0, true);
        let live = self.senders.clone();
        let before = self.levels(&live)?;
        self.send()?;
        let accepted = self.absorb(fresh, &mut off, 0)?;
        self.lost += (fresh - accepted.min(fresh)) as u64;
        let after = self.levels(&live)?;
        for ((&slot, &a), &b) in live.iter().zip(&before).zip(&after) {
            if b.partial_cmp(&a) != Some(std::cmp::Ordering::Less) {
                violations.push(format!(
                    "{}: reset: peer {} went {a} -> {b} across a heartbeat",
                    self.spec.name,
                    self.fleet.id(slot)
                ));
            }
        }
        Ok(())
    }

    fn probes(&mut self, n: usize, tr: &mut Tracer, out: &mut Probes) -> Result<(), String> {
        for k in 0..n {
            self.encode_where(1, 0, true);
            let id = self.fleet.id(self.senders[0]);
            let before = self
                .reader
                .level(id)
                .ok_or_else(|| format!("probe peer {id} has no published level"))?;
            out.attempted += 1;
            let sp = tr.begin("probe", k as u64);
            let t = self.timer.ns();
            self.send()?;
            let mut accepted = 0usize;
            let seen = loop {
                accepted += self.mon.tick()?;
                if self.reader.level(id).is_some_and(|l| l < before) {
                    break true;
                }
                if self.timer.ns() - t > PATIENCE_NS {
                    break false;
                }
            };
            let ns = self.timer.ns() - t;
            tr.end(sp);
            self.lost += 1 - accepted.min(1) as u64;
            if seen {
                out.visible_us.push(ns as f64 / 1e3);
            } else {
                out.failed += 1;
            }
        }
        Ok(())
    }

    fn reader(&self) -> Reader {
        self.reader.clone()
    }

    fn ids(&self) -> Vec<u32> {
        (0..self.spec.peers).map(|s| self.fleet.id(s)).collect()
    }

    fn after_window(
        &mut self,
        tr: &mut Tracer,
        violations: &mut Vec<String>,
    ) -> Result<(), String> {
        if self.spec.churn == 0 {
            return Ok(());
        }
        let name = self.spec.name;
        let mut store = Store::new();
        let sp = tr.begin("checkpoint", 0);
        let dump = self.mon.checkpoint(&mut store)?;
        tr.end(sp);
        let sp = tr.begin("restore", 0);
        let recovered = store.load(&self.timer)?;
        let (mut twin, mut twin_feed) =
            ChanFeed::open(&self.timer, self.spec.shards, self.spec.peers)?;
        let seeded = twin.import(&recovered)?;
        tr.end(sp);
        if dump.peers != self.spec.peers || recovered.len() != self.spec.peers {
            violations.push(format!(
                "{name}: checkpoint held {} peers, restore gave {}, {} are watched",
                dump.peers,
                recovered.len(),
                self.spec.peers
            ));
        }
        if seeded != recovered.len() as u64 {
            violations.push(format!(
                "{name}: {seeded} of {} restored detectors were re-seeded",
                recovered.len()
            ));
        }

        // Same state, same instant: the restored monitor must answer as the
        // checkpointed one does.
        twin.advance(self.mon.now_ns());
        let at = self.mon.now_ns() + 1_000_000;
        for slot in 0..self.spec.peers {
            let id = self.fleet.id(slot);
            let a = self.mon.level_at(id, at);
            let b = twin.level_at(id, at);
            let same = match (a, b) {
                (Some(a), Some(b)) => (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                _ => false,
            };
            if !same {
                violations.push(format!(
                    "{name}: peer {id} restored to level {b:?}, checkpointed at {a:?}"
                ));
            }
        }

        // Replays stay rejected by the restored monitor. v1 frames: its
        // decoder has seen no intern frame.
        let mut replayed = 0u64;
        for slot in (0..self.spec.peers).step_by((self.spec.peers / 64).max(1)) {
            let (id, seq) = (self.fleet.id(slot), self.fleet.seq(slot));
            if seq < 2 {
                continue;
            }
            twin_feed.send(&sut::encode_v1(id, seq, 0))?;
            twin_feed.send(&sut::encode_v1(id, seq - 1, 0))?;
            replayed += 2;
        }
        twin.tick()?;
        let counts = twin.counts();
        if counts.accepted != 0 || counts.duplicate + counts.stale != replayed {
            violations.push(format!(
                "{name}: after restore {replayed} replays ended as {counts:?}"
            ));
        }
        Ok(())
    }

    fn finish(self, violations: &mut Vec<String>) -> Result<Totals, String> {
        let counts = self.mon.counts();
        conservation(self.spec.name, &self.fleet, counts, self.lost, violations);
        Ok(Totals {
            sent: self.fleet.heartbeats,
            accepted: counts.accepted,
            wire_bytes: self.fleet.wire_bytes,
        })
    }
}

/// Every frame sent ended in exactly one outcome counter, every heartbeat
/// was accepted, and no replay was.
fn conservation(
    name: &str,
    fleet: &Fleet,
    counts: Counts,
    lost: u64,
    violations: &mut Vec<String>,
) {
    let sent = fleet.heartbeats + fleet.replays;
    if counts.total() != sent {
        violations.push(format!(
            "{name}: conservation: {sent} frames sent, outcomes {counts:?} sum to {}",
            counts.total()
        ));
    }
    if counts.accepted != fleet.heartbeats
        || counts.duplicate + counts.stale != fleet.replays
        || counts.unwatched != 0
        || counts.corrupt != 0
        || lost != 0
    {
        violations.push(format!(
            "{name}: {} heartbeats and {} replays sent, outcomes {counts:?}, {lost} lost",
            fleet.heartbeats, fleet.replays
        ));
    }
}

// ---------------------------------------------------------------------------
// Engine topology
// ---------------------------------------------------------------------------

pub struct EngineRig {
    spec: Spec,
    timer: Timer,
    engine: Engine,
    feed: ChanFeed,
    reader: Reader,
    fleet: Fleet,
    order: Order,
    rng: Rng,
    stopped: Vec<bool>,
    burst: Burst,
    /// Accepted heartbeats the engine must reach before the next epoch.
    target: u64,
    lost: u64,
}

/// Waits a moment without holding a core. The generator is a third thread
/// on a two-core host: if it spun (or yielded, which leaves it runnable)
/// while it waits, the scheduler would time-slice it against the engine's
/// lane and worker threads and every epoch would measure the scheduler.
fn nap() {
    // lint:allow(no-thread-sleep, the load generator must leave both cores to the engine's threads while it waits for them)
    std::thread::sleep(std::time::Duration::from_micros(20));
}

enum Client {
    Thinking { until: u64 },
    Waiting { id: u32, before: f64, sent_at: u64 },
}

impl EngineRig {
    fn encode(&mut self, fresh: usize) -> usize {
        self.burst.clear();
        let mut first = 0;
        for k in 0..fresh {
            let stopped = &self.stopped;
            let slot = self.order.next(|s| !stopped[s]);
            if k == 0 {
                first = slot;
            }
            self.fleet.beat(slot, &mut self.burst);
        }
        first
    }

    /// Pushes the burst and polls, napping, until the engine has accepted it.
    /// The push is inside the timed section: it overlaps the lane thread.
    fn push_and_await(&mut self, tr: &mut Tracer, no: u64) -> Result<(u64, u64), String> {
        let sent = self.burst.len() as u64;
        let start = self.timer.ns();
        let sp = tr.begin("push_frames", no);
        for frame in self.burst.frames() {
            self.feed.send(frame)?;
        }
        tr.end(sp);
        self.target += sent;
        let sp = tr.begin("await_accepted", no);
        let mut accepted = self.engine.accepted();
        while accepted < self.target && self.timer.ns() - start <= PATIENCE_NS {
            nap();
            accepted = self.engine.accepted();
        }
        tr.end(sp);
        let ns = self.timer.ns() - start;
        let missing = self.target.saturating_sub(accepted);
        self.lost += missing;
        self.target -= missing;
        Ok((ns, sent - missing))
    }

    pub fn stages(&self) -> sut::Stages {
        self.engine.stages()
    }
}

impl Rig for EngineRig {
    fn build(spec: &Spec, seed: u64, timer: Timer, setup: &mut SetupParts) -> Result<Self, String> {
        let t = timer.ns();
        let mut engine = Engine::new(
            &timer,
            spec.peers.max(WATCH_CHUNK),
            spec.burst * 2,
            ENGINE_PUBLISH_MS,
        );
        let mut construct = timer.ns() - t;

        let ids: Vec<u32> = (1..=spec.peers as u32).collect();
        watch_all(&ids, &timer, setup, |id| engine.watch(id))?;

        let t = timer.ns();
        let feed = engine.start()?;
        construct += timer.ns() - t;
        setup.construct_ns.push(construct as f64);

        let mut rng = Rng::new(seed);
        let order = Order::new(spec.peers, &mut rng);
        let fleet = Fleet::new(&ids, spec.resync_every, spec.interval_ns, rng.next_u64());
        let mut rig = EngineRig {
            spec: *spec,
            timer,
            reader: engine.reader(),
            engine,
            feed,
            fleet,
            order,
            rng,
            stopped: vec![false; spec.peers],
            burst: Burst::default(),
            target: 0,
            lost: 0,
        };

        let mut off = Tracer::new(timer);
        setup.warm_epochs = spec.warm_epochs();
        for _ in 0..setup.warm_epochs {
            rig.encode(spec.burst);
            let (ns, _) = rig.push_and_await(&mut off, 0)?;
            setup.warm_epoch_ns.push(ns as f64);
        }
        Ok(rig)
    }

    fn epoch(&mut self, tr: &mut Tracer, no: u64) -> Result<Epoch, String> {
        let first = self.encode(self.spec.burst);
        let ep = tr.begin("epoch", no);
        let (ns, accepted) = self.push_and_await(tr, no)?;
        let sp = tr.begin("reader.level", no);
        black_box(self.reader.level(self.fleet.id(first)));
        tr.end(sp);
        tr.end(ep);
        Ok(Epoch {
            ns,
            accepted,
            sent: self.spec.burst as u64,
        })
    }

    /// The worker publishes on its own timer, so a publish is seen as a
    /// change of the first silent peer's level. Reset on arrival is what
    /// every probe of the probe phase asserts.
    fn check(&mut self, violations: &mut Vec<String>) -> Result<(), String> {
        self.stopped = pick_stopped(&self.fleet, self.spec.peers, &mut self.rng);
        let silent: Vec<u32> = (0..self.spec.peers)
            .filter(|&s| self.stopped[s])
            .map(|s| self.fleet.id(s))
            .collect();
        let read = |reader: &Reader| -> Result<Vec<f64>, String> {
            silent
                .iter()
                .map(|&id| {
                    reader
                        .level(id)
                        .ok_or_else(|| format!("watched peer {id} has no published level"))
                })
                .collect()
        };
        // Published levels lag the worker by up to one publish interval: the
        // first publish seen from here may have begun before the window's
        // last heartbeats were accepted, and then shows their reset. The
        // second began after it, so the three after that are pure silence.
        const SETTLE: usize = 2;
        let mut last = read(&self.reader)?;
        let start = self.timer.ns();
        let mut publishes = 0;
        while publishes < SETTLE + 3 {
            if self.timer.ns() - start > PATIENCE_NS {
                violations.push(format!(
                    "{}: Accruement: only {publishes} publishes in 2 s of silence",
                    self.spec.name
                ));
                break;
            }
            let head = self.reader.level(silent[0]);
            if head.is_some_and(|l| l.total_cmp(&last[0]).is_eq()) {
                nap();
                continue;
            }
            let now = read(&self.reader)?;
            if publishes >= SETTLE {
                for ((&id, &a), &b) in silent.iter().zip(&last).zip(&now) {
                    // A reader that straddles two publishes sees some peers
                    // one publish ahead of the others; every level still
                    // only ever rises.
                    if b.partial_cmp(&a) == Some(std::cmp::Ordering::Less) || b.is_nan() {
                        violations.push(format!(
                            "{}: Accruement: silent peer {id} went {a} -> {b}",
                            self.spec.name
                        ));
                    }
                }
            }
            last = now;
            publishes += 1;
        }
        Ok(())
    }

    /// Eight logical clients, each: think for a seeded 0–7 ms, read its
    /// peer's level, send one heartbeat, wait until the level *decreases*.
    /// Between heartbeats a level never decreases (Accruement), so a
    /// decrease is the heartbeat having become visible.
    fn probes(&mut self, n: usize, tr: &mut Tracer, out: &mut Probes) -> Result<(), String> {
        let live: Vec<usize> = (0..self.spec.peers).filter(|&s| !self.stopped[s]).collect();
        let pool = &live[..PROBE_PEERS.min(live.len())];
        let mut next_peer = 0usize;
        let mut started = 0usize;
        let mut done = 0usize;
        let now = self.timer.ns();
        let mut clients: Vec<Client> = (0..PROBE_CLIENTS)
            .map(|_| Client::Thinking {
                until: now + self.rng.below(PROBE_THINK_NS),
            })
            .collect();
        let mut one = Burst::default();
        while done < n {
            let now = self.timer.ns();
            for client in &mut clients {
                match *client {
                    Client::Thinking { until } if now >= until && started < n => {
                        let slot = pool[next_peer];
                        next_peer = (next_peer + 1) % pool.len();
                        let id = self.fleet.id(slot);
                        let before = self
                            .reader
                            .level(id)
                            .ok_or_else(|| format!("probe peer {id} has no published level"))?;
                        one.clear();
                        self.fleet.beat(slot, &mut one);
                        let sp = tr.begin("probe", started as u64);
                        let sent_at = self.timer.ns();
                        for frame in one.frames() {
                            self.feed.send(frame)?;
                        }
                        tr.end(sp);
                        self.target += 1;
                        started += 1;
                        out.attempted += 1;
                        *client = Client::Waiting {
                            id,
                            before,
                            sent_at,
                        };
                    }
                    Client::Waiting {
                        id,
                        before,
                        sent_at,
                    } => {
                        let seen = self.reader.level(id).is_some_and(|l| l < before);
                        let t = self.timer.ns();
                        if seen {
                            out.visible_us.push((t - sent_at) as f64 / 1e3);
                        } else if t - sent_at > PATIENCE_NS {
                            out.failed += 1;
                        } else {
                            continue;
                        }
                        done += 1;
                        *client = Client::Thinking {
                            until: t + self.rng.below(PROBE_THINK_NS),
                        };
                    }
                    Client::Thinking { .. } => {}
                }
            }
            nap();
        }
        Ok(())
    }

    fn reader(&self) -> Reader {
        self.reader.clone()
    }

    fn ids(&self) -> Vec<u32> {
        (0..self.spec.peers).map(|s| self.fleet.id(s)).collect()
    }

    fn as_engine(&mut self) -> Option<&mut EngineRig> {
        Some(self)
    }

    fn finish(mut self, violations: &mut Vec<String>) -> Result<Totals, String> {
        // Let the worker store its last counters before it is stopped.
        let start = self.timer.ns();
        while self.engine.accepted() < self.target && self.timer.ns() - start <= PATIENCE_NS {
            nap();
        }
        self.engine.shutdown()?;
        let counts = self.engine.counts();
        let stages = self.engine.stages();
        if stages.ring_dropped != 0 || self.feed.dropped() != 0 {
            violations.push(format!(
                "{}: {} frames evicted from the ring, {} from the channel",
                self.spec.name,
                stages.ring_dropped,
                self.feed.dropped()
            ));
        }
        conservation(self.spec.name, &self.fleet, counts, self.lost, violations);
        Ok(Totals {
            sent: self.fleet.heartbeats,
            accepted: counts.accepted,
            wire_bytes: self.fleet.wire_bytes,
        })
    }
}
