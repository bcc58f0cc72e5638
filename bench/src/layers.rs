//! Per-layer timings, taken from outside: each times calls into one
//! layer's public functions on frames made the way the workload makes
//! them, and reports the fastest of 1 000 repetitions of a fixed group of
//! calls (a repetition is long enough that the two clock reads around it
//! do not show).
//!
//! Layers are the module names of `afd-runtime` / `afd-detectors`. Which
//! end-to-end metric each should move is written down in
//! `bench/README.md`.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::gen::{Burst, Fleet, Rng};
use crate::metrics::Sheet;
use crate::stats::{Pool, SetupParts};
use crate::sut::{
    Beats, ChanFeed, ChanProbe, Decoder, Detector, Feed, LaneProbe, Open, Ring, Slab, Store, Timer,
};
use crate::workload::{InlineRig, Rig, Spec, Topology, WARM_HEARTBEATS};

/// Calls timed together as one repetition.
const GROUP: usize = 128;

/// Repetitions behind every row.
const REPS: usize = 1000;

/// One-shot blocks (checkpoint, restore) are repeated this often and the
/// fastest is kept.
const PERSIST_REPS: usize = 5;

fn quiet(mut rep: impl FnMut() -> Result<u64, String>, reps: usize) -> Result<f64, String> {
    let mut pool = Pool::default();
    for _ in 0..reps {
        pool.push(rep()? as f64);
    }
    Ok(pool.quiet())
}

/// Slots of one repetition: `GROUP` consecutive entries of the seeded
/// sending order, moving on by one group per repetition.
struct Groups {
    order: Vec<usize>,
    at: usize,
}

impl Groups {
    fn new(peers: usize, seed: u64) -> Self {
        let mut order: Vec<usize> = (0..peers).collect();
        Rng::new(seed).shuffle(&mut order);
        Groups { order, at: 0 }
    }

    fn next(&mut self) -> impl Iterator<Item = usize> + '_ {
        let start = self.at;
        self.at = (self.at + GROUP) % self.order.len();
        (0..GROUP).map(move |k| self.order[(start + k) % self.order.len()])
    }
}

/// What the closure of the accounting needs from the layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Costs {
    pub recv: f64,
    pub decode: f64,
    pub accept: f64,
    pub publish_per_peer: f64,
    pub reader: f64,
    pub watch: f64,
    pub unwatch: f64,
}

/// Times every layer and writes the `lane.*` … `persist.*` rows.
pub fn measure(spec: &Spec, seed: u64, timer: Timer, sheet: &mut Sheet) -> Result<Costs, String> {
    let ids: Vec<u32> = (1..=spec.peers as u32).collect();
    let mut costs = Costs::default();

    // lane, sender, wire.encode: one real socket pair, the workload's
    // frames, a burst the default rcvbuf holds.
    {
        let (mut lane, mut feed) = LaneProbe::bind()?;
        let counters = feed.lane().ok_or("a UDP feed without lane counters")?;
        let mut fleet = Fleet::new(&ids, spec.resync_every, spec.interval_ns, seed);
        let mut groups = Groups::new(spec.peers, seed);
        let mut burst = Burst::default();
        let (mut encode, mut send, mut recv) = (Pool::default(), Pool::default(), Pool::default());
        let (sys0, got0) = (counters.syscalls(), counters.datagrams());
        for _ in 0..REPS {
            burst.clear();
            let t0 = timer.ns();
            for slot in groups.next() {
                fleet.beat(slot, &mut burst);
            }
            let t1 = timer.ns();
            for frame in burst.frames() {
                feed.send(frame)?;
            }
            let t2 = timer.ns();
            let got = lane.recv()?;
            let t3 = timer.ns();
            if got != GROUP {
                return Err(format!("lane drained {got} of {GROUP} datagrams"));
            }
            encode.push((t1 - t0) as f64);
            send.push((t2 - t1) as f64);
            recv.push((t3 - t2) as f64);
        }
        let g = GROUP as f64;
        let frames = (counters.datagrams() - got0) as f64;
        sheet.set("lane.recv_ns_per_frame", recv.quiet() / g, REPS);
        sheet.set(
            "lane.syscalls_per_frame",
            (counters.syscalls() - sys0) as f64 / frames,
            frames as usize,
        );
        sheet.set(
            "sender.encode_send_ns_per_frame",
            (encode.quiet() + send.quiet()) / g,
            REPS,
        );
        sheet.set("wire.encode_ns_per_frame", encode.quiet() / g, REPS);
        if spec.topology == Topology::UdpInline {
            costs.recv = recv.quiet() / g;
        }
    }

    // transport: the channel's receiving end.
    {
        let (mut rx, mut tx) = ChanProbe::pair();
        let frame = [0xADu8; 8];
        let ns = quiet(
            || {
                for _ in 0..GROUP {
                    tx.send(&frame)?;
                }
                let t = timer.ns();
                let got = rx.recv()?;
                let ns = timer.ns() - t;
                if got != GROUP {
                    return Err(format!("channel drained {got} of {GROUP} frames"));
                }
                Ok(ns)
            },
            REPS,
        )?;
        sheet.set("transport.chan_recv_ns_per_frame", ns / GROUP as f64, REPS);
        if spec.topology != Topology::UdpInline {
            costs.recv = ns / GROUP as f64;
        }
    }

    // wire: one intern frame and one delta per peer, decoded in groups.
    let mut beats = Beats::default();
    {
        let mut fleet = Fleet::new(&ids, u32::MAX, spec.interval_ns, seed);
        let (mut interns, mut deltas) = (Burst::default(), Burst::default());
        for slot in 0..spec.peers {
            fleet.beat(slot, &mut interns);
        }
        for slot in 0..spec.peers {
            fleet.beat(slot, &mut deltas);
        }
        let interns: Vec<&[u8]> = interns.frames().collect();
        let deltas: Vec<&[u8]> = deltas.frames().collect();
        let mut decoder = Decoder::new();
        for frame in &interns {
            if !decoder.decode(frame) {
                return Err("decoder refused an intern frame".into());
            }
        }
        let mut groups = Groups::new(spec.peers, seed);
        let delta = quiet(
            || {
                let t = timer.ns();
                let mut ok = 0usize;
                for slot in groups.next() {
                    ok += usize::from(decoder.decode(deltas[slot]));
                }
                let ns = timer.ns() - t;
                if ok != GROUP {
                    return Err(format!("decoder refused {} deltas", GROUP - ok));
                }
                Ok(ns)
            },
            REPS,
        )? / GROUP as f64;
        let intern = quiet(
            || {
                let t = timer.ns();
                let mut ok = 0usize;
                for slot in groups.next() {
                    ok += usize::from(decoder.decode(interns[slot]));
                }
                let ns = timer.ns() - t;
                if ok != GROUP {
                    return Err(format!("decoder refused {} intern frames", GROUP - ok));
                }
                Ok(ns)
            },
            REPS,
        )? / GROUP as f64;
        sheet.set("wire.decode_delta_ns_per_frame", delta, REPS);
        sheet.set("wire.decode_intern_ns_per_frame", intern, REPS);
        let share = 1.0 / f64::from(spec.resync_every);
        costs.decode = share * intern + (1.0 - share) * delta;
        for slot in groups.next() {
            decoder.decode_into(deltas[slot], &mut beats);
        }
    }

    // intern: the slab behind the decoder.
    {
        let mut slab = Slab::new();
        for &id in &ids {
            slab.insert(id, 1);
        }
        let mut groups = Groups::new(spec.peers, seed);
        let get = quiet(
            || {
                let t = timer.ns();
                let mut sum = 0u64;
                for slot in groups.next() {
                    sum += slab.get(ids[slot]).unwrap_or(0);
                }
                let ns = timer.ns() - t;
                black_box(sum);
                Ok(ns)
            },
            REPS,
        )?;
        let mut seq = 1u64;
        let insert = quiet(
            || {
                seq += 1;
                let t = timer.ns();
                let mut ok = true;
                for slot in groups.next() {
                    ok &= slab.insert(ids[slot], seq);
                }
                let ns = timer.ns() - t;
                black_box(ok);
                Ok(ns)
            },
            REPS,
        )?;
        sheet.set("intern.get_ns", get / GROUP as f64, REPS);
        sheet.set("intern.insert_ns", insert / GROUP as f64, REPS);
    }

    // ring: grouped publish, frame-by-frame drain.
    {
        let mut ring = Ring::new(4096);
        let (mut push, mut pop) = (Pool::default(), Pool::default());
        for _ in 0..REPS {
            let t0 = timer.ns();
            ring.push_batch(&beats, t0);
            let t1 = timer.ns();
            let mut got = 0usize;
            while ring.pop() {
                got += 1;
            }
            let t2 = timer.ns();
            if got != beats.len() {
                return Err(format!("ring handed back {got} of {} frames", beats.len()));
            }
            push.push((t1 - t0) as f64);
            pop.push((t2 - t1) as f64);
        }
        let g = beats.len() as f64;
        sheet.set("ring.push_batch_ns_per_frame", push.quiet() / g, REPS);
        sheet.set("ring.pop_ns_per_frame", pop.quiet() / g, REPS);
        if ring.dropped() != 0 {
            return Err(format!("a drained ring evicted {} frames", ring.dropped()));
        }
    }

    // detectors: one warm φ detector.
    {
        let mut det = Detector::new();
        let step = 1_000_000u64;
        let mut at = 0u64;
        for _ in 0..WARM_HEARTBEATS {
            at += step;
            det.record(at);
        }
        let record = quiet(
            || {
                let t = timer.ns();
                for _ in 0..GROUP {
                    at += step;
                    det.record(at);
                }
                Ok(timer.ns() - t)
            },
            REPS,
        )?;
        let level = quiet(
            || {
                let t = timer.ns();
                let mut sum = 0.0;
                for k in 0..GROUP as u64 {
                    sum += det.level(at + k * 1000);
                }
                let ns = timer.ns() - t;
                black_box(sum);
                Ok(ns)
            },
            REPS,
        )?;
        sheet.set("detectors.phi_record_ns", record / GROUP as f64, REPS);
        sheet.set("detectors.phi_level_ns", level / GROUP as f64, REPS);
    }

    shard_and_persist(spec, seed, timer, sheet, &mut costs)?;
    Ok(costs)
}

fn shard_and_persist(
    spec: &Spec,
    seed: u64,
    timer: Timer,
    sheet: &mut Sheet,
    costs: &mut Costs,
) -> Result<(), String> {
    let inline = spec.as_inline();
    let mut rig = InlineRig::<ChanFeed>::build(&inline, seed, timer, &mut SetupParts::default())?;
    let peers = spec.peers as f64;

    // publish and accept, in the workload's own steady state. What the tick
    // over an epoch's frames costs beyond the empty one, less the channel
    // drain and the decode it also did, is accept.
    let (mut full, mut empty) = (Pool::default(), Pool::default());
    for _ in 0..REPS {
        let (f, e) = rig.full_then_empty_tick()?;
        full.push(f as f64);
        empty.push(e as f64);
    }
    let (full, empty) = (full.quiet(), empty.quiet());
    sheet.set("shard.publish_ns_per_peer", empty / peers, REPS);
    costs.publish_per_peer = empty / peers;
    let chan_recv = sheet
        .get("transport.chan_recv_ns_per_frame")
        .ok_or("channel drain not measured yet")?;
    let accept =
        ((full - empty) - inline.burst as f64 * (chan_recv + costs.decode)) / inline.fresh() as f64;
    sheet.set("shard.accept_ns_per_frame", accept, REPS);
    costs.accept = accept;

    let ids = rig.ids();
    let mon = rig.monitor();
    // watch / unwatch: fresh ids, as the churn workload uses them.
    let mut next = u32::MAX / 2;
    let (mut watch, mut unwatch) = (Pool::default(), Pool::default());
    for _ in 0..REPS {
        let first = next;
        next += GROUP as u32;
        let t0 = timer.ns();
        for id in first..next {
            mon.watch(id)?;
        }
        let t1 = timer.ns();
        let mut gone = 0usize;
        for id in first..next {
            gone += usize::from(mon.unwatch(id));
        }
        let t2 = timer.ns();
        if gone != GROUP {
            return Err(format!("unwatched {gone} of {GROUP} fresh peers"));
        }
        watch.push((t1 - t0) as f64);
        unwatch.push((t2 - t1) as f64);
    }
    sheet.set("shard.watch_ns", watch.quiet() / GROUP as f64, REPS);
    sheet.set("shard.unwatch_ns", unwatch.quiet() / GROUP as f64, REPS);
    costs.watch = watch.quiet() / GROUP as f64;
    costs.unwatch = unwatch.quiet() / GROUP as f64;

    // reader: a whole-table copy, and single lookups while a second thread
    // publishes without pause.
    mon.tick()?;
    let reader = mon.reader();
    let snapshot = quiet(
        || {
            let t = timer.ns();
            let n = reader.snapshot_len();
            let ns = timer.ns() - t;
            if n != spec.peers {
                return Err(format!("snapshot holds {n} of {} peers", spec.peers));
            }
            Ok(ns)
        },
        REPS,
    )?;
    sheet.set("shard.reader_snapshot_ns_per_peer", snapshot / peers, REPS);

    let mut queries = Vec::with_capacity(4096);
    let mut rng = Rng::new(seed);
    for _ in 0..4096 {
        queries.push(ids[rng.below(ids.len() as u64) as usize]);
    }
    let done = AtomicBool::new(false);
    let contended = std::thread::scope(|scope| -> Result<f64, String> {
        let asker = scope.spawn(|| {
            let mut pool = Pool::default();
            let mut missing = 0usize;
            for _ in 0..REPS {
                let t = timer.ns();
                let mut sum = 0.0;
                for &id in &queries {
                    match reader.level(id) {
                        Some(l) => sum += l,
                        None => missing += 1,
                    }
                }
                pool.push((timer.ns() - t) as f64);
                black_box(sum);
            }
            done.store(true, Ordering::SeqCst);
            (pool.quiet(), missing)
        });
        let mut ticked = Ok(0);
        while !done.load(Ordering::SeqCst) && ticked.is_ok() {
            ticked = mon.tick();
        }
        let (ns, missing) = asker
            .join()
            .map_err(|_| "the reader thread panicked".to_string())?;
        ticked?;
        if missing != 0 {
            return Err(format!(
                "{missing} lookups of watched peers came back empty"
            ));
        }
        Ok(ns)
    })?;
    sheet.set(
        "shard.reader_level_contended_ns",
        contended / queries.len() as f64,
        REPS,
    );

    // persist: one-shot blocks, fastest of five.
    let (mut dump, mut decode, mut import) = (Pool::default(), Pool::default(), Pool::default());
    let mut bytes = 0usize;
    for _ in 0..PERSIST_REPS {
        let mut store = Store::new();
        let t0 = timer.ns();
        let report = mon.checkpoint(&mut store)?;
        let t1 = timer.ns();
        let recovered = store.load(&timer)?;
        let t2 = timer.ns();
        let (mut twin, _twin_feed) = ChanFeed::open(&timer, spec.shards, spec.peers * 2)?;
        let t3 = timer.ns();
        let seeded = twin.import(&recovered)?;
        let t4 = timer.ns();
        if report.peers != spec.peers || seeded != spec.peers as u64 {
            return Err(format!(
                "checkpoint of {} peers dumped {} and re-seeded {seeded}",
                spec.peers, report.peers
            ));
        }
        bytes = report.bytes;
        dump.push((t1 - t0) as f64);
        decode.push((t2 - t1) as f64);
        import.push((t4 - t3) as f64);
    }
    sheet.set(
        "persist.dump_us_per_peer",
        dump.quiet() / 1e3 / peers,
        PERSIST_REPS,
    );
    sheet.set(
        "persist.decode_us_per_peer",
        decode.quiet() / 1e3 / peers,
        PERSIST_REPS,
    );
    sheet.set(
        "persist.import_us_per_peer",
        import.quiet() / 1e3 / peers,
        PERSIST_REPS,
    );
    sheet.set("persist.bytes_per_peer", bytes as f64 / peers, 0);
    Ok(())
}
