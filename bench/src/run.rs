//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, or the traced run that yields the per-layer ones.

use std::hint::black_box;
use std::path::PathBuf;

use crate::gen::Rng;
use crate::layers::{self, Costs};
use crate::metrics::{Metric, Sheet, END_TO_END, PER_LAYER};
use crate::stats::{Pool, SetupParts};
use crate::sut::{ChanFeed, Timer, UdpFeed};
use crate::trace::Tracer;
use crate::workload::{EngineRig, InlineRig, Probes, Rig, Spec, Topology, Totals};

/// Rounds of an untraced run; every time metric pools all of them.
const ROUNDS: usize = 3;

/// Epochs an estimate should rest on; a run with fewer warns.
const MIN_EPOCHS: usize = 5000;

/// `SnapshotReader::level` calls timed together.
const READER_BATCH: usize = 4096;

/// Reader batches over a whole untraced run (≥400 asked for).
const READER_BATCHES: usize = 480;

/// Probes over a whole untraced run on the inline topologies.
const INLINE_PROBES: usize = 1200;

/// Probes over a whole untraced run on the engine: its eight clients are
/// in flight together, so the same time buys more of them.
const ENGINE_PROBES: usize = 3600;

/// Share of `--seconds` spent in measured windows; the probe phases, whose
/// length is fixed by their probe count, take about as long as the rest.
const TRACED_WINDOW_SHARE: f64 = 0.25;

/// A gap between the layers' sum and the end-to-end figure beyond this
/// share of it is worth a warning.
const CLOSURE_TOLERANCE: f64 = 0.15;

/// What a finished run reports.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub warnings: Vec<String>,
}

/// Everything pooled over the rounds of a run.
struct Pools {
    timer: Timer,
    setup: SetupParts,
    setup_wall_ns: Option<u64>,
    ns_per_hb: Pool,
    /// Epochs run with the tracer on (traced run only).
    traced_ns_per_hb: Pool,
    reader_ns: Pool,
    reader_missing: u64,
    probes: Probes,
    totals: Totals,
    rss_after_warm: Option<u64>,
    violations: Vec<String>,
}

impl Pools {
    fn new(timer: Timer) -> Self {
        Pools {
            timer,
            setup: SetupParts::default(),
            setup_wall_ns: None,
            ns_per_hb: Pool::default(),
            traced_ns_per_hb: Pool::default(),
            reader_ns: Pool::default(),
            reader_missing: 0,
            probes: Probes::default(),
            totals: Totals::default(),
            rss_after_warm: None,
            violations: Vec::new(),
        }
    }
}

/// Resident set size of this process, bytes.
fn vm_rss() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmRSS in /proc/self/status".to_string())
}

/// What a window does between its epochs, spread evenly through it and
/// outside the epochs' time, so that every metric samples the whole window
/// and not the one moment after it.
#[derive(Debug, Clone, Copy)]
struct Between {
    reader_batches: usize,
    probes: usize,
}

/// A measured window: closed-loop epochs back to back until `len_ns` has
/// passed. With `alternate`, every other epoch is traced and pooled apart.
fn window<R: Rig>(
    rig: &mut R,
    len_ns: u64,
    between: Between,
    tr: &mut Tracer,
    alternate: bool,
    rng: &mut Rng,
    p: &mut Pools,
) -> Result<(), String> {
    let timer = p.timer;
    let start = timer.ns();
    let every = |n: usize| len_ns / n.max(1) as u64;
    let (reader_every, probe_every) = (every(between.reader_batches), every(between.probes));
    let (mut readers, mut probes) = (0usize, 0usize);
    let mut no = 0u64;
    // Time spent between epochs does not count towards the window.
    let mut paused = 0u64;
    loop {
        let now = timer.ns();
        let at = now - start - paused;
        if at >= len_ns {
            break;
        }
        if readers < between.reader_batches && at >= readers as u64 * reader_every {
            reader_batch(rig, rng, p);
            readers += 1;
        }
        if probes < between.probes && at >= probes as u64 * probe_every {
            tr.set_on(alternate);
            rig.probes(1, tr, &mut p.probes)?;
            probes += 1;
        }
        paused += timer.ns() - now;
        let traced = alternate && no % 2 == 1;
        tr.set_on(traced);
        let e = rig.epoch(tr, no)?;
        no += 1;
        if e.accepted > 0 {
            let pool = if traced {
                &mut p.traced_ns_per_hb
            } else {
                &mut p.ns_per_hb
            };
            pool.push(e.ns as f64 / e.accepted as f64);
        }
    }
    tr.set_on(false);
    // A window cut short by a slow host still owes its samples.
    for _ in readers..between.reader_batches {
        reader_batch(rig, rng, p);
    }
    rig.probes(between.probes - probes, tr, &mut p.probes)
}

/// One batch of seeded-random lookups through the lock-free reader.
fn reader_batch<R: Rig>(rig: &R, rng: &mut Rng, p: &mut Pools) {
    let timer = p.timer;
    let (reader, ids) = (rig.reader(), rig.ids());
    let queries: Vec<u32> = (0..READER_BATCH)
        .map(|_| ids[rng.below(ids.len() as u64) as usize])
        .collect();
    let t = timer.ns();
    let mut sum = 0.0;
    let mut missing = 0u64;
    for &id in &queries {
        match reader.level(id) {
            Some(l) => sum += l,
            None => missing += 1,
        }
    }
    p.reader_ns
        .push((timer.ns() - t) as f64 / READER_BATCH as f64);
    black_box(sum);
    p.reader_missing += missing;
}

/// The probes of one round: inside the window on the inline topologies,
/// where a probe is one more heartbeat between two epochs; after it on the
/// engine, whose probes want the engine otherwise idle.
fn probe_plan(spec: &Spec, share: f64) -> (usize, usize) {
    match spec.topology {
        Topology::EngineChan => (0, (ENGINE_PROBES as f64 * share) as usize),
        _ => ((INLINE_PROBES as f64 * share) as usize, 0),
    }
}

fn check_reader(p: &mut Pools) {
    if p.reader_missing != 0 {
        p.violations.push(format!(
            "{} reader lookups of watched peers came back empty",
            p.reader_missing
        ));
    }
}

/// Sets a rig up, sampling the set-up parts; with `setups_per_round` > 1
/// the extra set-ups come first and are torn down again.
fn set_up<R: Rig>(spec: &Spec, seed: u64, timer: Timer, p: &mut Pools) -> Result<R, String> {
    for _ in 1..spec.setups_per_round {
        let spare = R::build(spec, seed, timer, &mut p.setup)?;
        p.totals.add(spare.finish(&mut p.violations)?);
    }
    let t = timer.ns();
    let rig = R::build(spec, seed, timer, &mut p.setup)?;
    p.setup_wall_ns.get_or_insert(timer.ns() - t);
    Ok(rig)
}

fn untraced<R: Rig>(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let timer = Timer::new();
    let mut p = Pools::new(timer);
    let rss_start = vm_rss()?;
    let mut off = Tracer::new(timer);
    let mut rng = Rng::new(seed ^ 0x5EED);
    let window_ns = (seconds * 1e9 / ROUNDS as f64) as u64;
    let (probes_within, probes_after) = probe_plan(spec, 1.0 / ROUNDS as f64);
    let between = Between {
        reader_batches: READER_BATCHES / ROUNDS,
        probes: probes_within,
    };
    for round in 0..ROUNDS {
        let mut rig: R = set_up(spec, seed + round as u64, timer, &mut p)?;
        if p.rss_after_warm.is_none() {
            p.rss_after_warm = Some(vm_rss()?);
        }
        window(
            &mut rig, window_ns, between, &mut off, false, &mut rng, &mut p,
        )?;
        rig.check(&mut p.violations)?;
        rig.probes(probes_after, &mut off, &mut p.probes)?;
        rig.after_window(&mut off, &mut p.violations)?;
        p.totals.add(rig.finish(&mut p.violations)?);
    }
    check_reader(&mut p);

    let mut sheet = Sheet::new(END_TO_END);
    let rss = p
        .rss_after_warm
        .unwrap_or(rss_start)
        .saturating_sub(rss_start);
    sheet.set("setup_s", p.setup.seconds(), p.setup.warm_epoch_ns.len());
    sheet.set("ns_per_hb", p.ns_per_hb.quiet(), p.ns_per_hb.len());
    sheet.set(
        "reader_ns_per_query",
        p.reader_ns.quiet(),
        p.reader_ns.len(),
    );
    sheet.set(
        "visible_min_us",
        p.probes.visible_us.quiet(),
        p.probes.visible_us.len(),
    );
    sheet.set(
        "delivery_ratio",
        p.totals.accepted as f64 / p.totals.sent as f64,
        p.totals.sent as usize,
    );
    sheet.set(
        "wire_bytes_per_hb",
        p.totals.wire_bytes as f64 / p.totals.sent as f64,
        p.totals.sent as usize,
    );
    sheet.set("rss_bytes_per_peer", rss as f64 / spec.peers as f64, 1);

    // A slow host runs fewer epochs in the same time; that is the host's
    // doing, not a wrong output, so it is said and not failed.
    let mut warnings = Vec::new();
    if p.ns_per_hb.len() < MIN_EPOCHS && seconds >= 10.0 {
        warnings.push(format!(
            "{}: only {} epochs pooled; the estimate wants {MIN_EPOCHS}",
            spec.name,
            p.ns_per_hb.len()
        ));
    }
    Ok(Outcome {
        metrics: sheet.finish()?,
        attempted: p.totals.sent + p.probes.attempted,
        failed: (p.totals.sent - p.totals.accepted.min(p.totals.sent)) + p.probes.failed,
        violations: p.violations,
        warnings,
    })
}

/// Engine-stage rows: the stage clocks of a running engine, read after
/// every epoch of one untraced window and taken per frame, beside the
/// epoch's own time. The p05 over the epochs, not the fastest: the engine's
/// threads add to their clocks when they please, so one epoch's share can
/// be read short.
fn engine_rows(
    rig: &mut EngineRig,
    timer: &Timer,
    len_ns: u64,
    sheet: &mut Sheet,
) -> Result<f64, String> {
    let mut off = Tracer::new(*timer);
    let (mut decode, mut route, mut update) = (Pool::default(), Pool::default(), Pool::default());
    let mut ns_per_hb = Pool::default();
    let mut before = rig.stages();
    let end = timer.ns() + len_ns;
    while timer.ns() < end {
        let e = rig.epoch(&mut off, 0)?;
        let after = rig.stages();
        let frames = (after.intake_frames - before.intake_frames) as f64;
        if e.accepted == e.sent && frames > 0.0 {
            decode.push((after.decode_ns - before.decode_ns) as f64 / frames);
            route.push((after.route_ns - before.route_ns) as f64 / frames);
            update.push((after.update_ns - before.update_ns) as f64 / frames);
            ns_per_hb.push(e.ns as f64 / e.accepted as f64);
        }
        before = after;
    }
    let n = ns_per_hb.len();
    let (decode, route, update) = (decode.q(0.05), route.q(0.05), update.q(0.05));
    sheet.set("engine.stage_decode_ns_per_frame", decode, n);
    sheet.set("engine.stage_route_ns_per_frame", route, n);
    sheet.set("engine.stage_update_ns_per_frame", update, n);
    // The lane and the worker run side by side: the slower of the two sets
    // the pace, and what the generator waits beyond it is hand-off.
    let handoff = ns_per_hb.q(0.05) - (decode + route).max(update);
    sheet.set("engine.handoff_ns_per_hb", handoff, n);
    sheet.set("ring.dropped", before.ring_dropped as f64, 0);
    Ok(handoff)
}

/// Where the traced run leaves its spans.
pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.json"))
}

fn traced<R: Rig>(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let timer = Timer::new();
    let mut p = Pools::new(timer);
    let mut tr = Tracer::new(timer);
    let mut rng = Rng::new(seed ^ 0x5EED);
    let mut sheet = Sheet::new(PER_LAYER);
    let window_ns = (seconds * TRACED_WINDOW_SHARE * 1e9) as u64;

    let mut rig: R = set_up(spec, seed, timer, &mut p)?;
    // One window, every other epoch traced: both pools see the same host
    // and the same detector states, so their ratio is the tracing alone.
    let (probes_within, probes_after) = probe_plan(spec, TRACED_WINDOW_SHARE);
    let between = Between {
        reader_batches: 100,
        probes: probes_within,
    };
    window(
        &mut rig,
        2 * window_ns,
        between,
        &mut tr,
        true,
        &mut rng,
        &mut p,
    )?;
    tr.set_on(true);
    rig.check(&mut p.violations)?;
    rig.probes(probes_after, &mut tr, &mut p.probes)?;
    rig.after_window(&mut tr, &mut p.violations)?;
    tr.set_on(false);
    check_reader(&mut p);
    let handoff = match rig.as_engine() {
        Some(engine) => Some(engine_rows(engine, &timer, window_ns / 4, &mut sheet)?),
        None => None,
    };
    p.totals.add(rig.finish(&mut p.violations)?);

    let mut costs: Costs = layers::measure(spec, seed, timer, &mut sheet)?;
    costs.reader = p.reader_ns.quiet();
    let handoff = match handoff {
        Some(h) => h,
        None => {
            // A workload without an engine of its own: the same peers and
            // frames through one, for the engine-stage rows only.
            let mut spare = SetupParts::default();
            let mut mini = EngineRig::build(&spec.as_engine(), seed, timer, &mut spare)?;
            let h = engine_rows(&mut mini, &timer, window_ns / 4, &mut sheet)?;
            mini.finish(&mut p.violations)?;
            h
        }
    };

    let (mut plain, mut spans) = (p.ns_per_hb, p.traced_ns_per_hb);
    let ns_per_hb = plain.quiet();
    sheet.set("epochs", plain.len() as f64, plain.len());
    sheet.set("epoch_ns_per_hb_p50", plain.p50(), plain.len());
    sheet.set("epoch_ns_per_hb_p99", plain.p99(), plain.len());
    sheet.set(
        "visible_p50_us",
        p.probes.visible_us.p50(),
        p.probes.visible_us.len(),
    );
    sheet.set(
        "visible_p99_us",
        p.probes.visible_us.p99(),
        p.probes.visible_us.len(),
    );
    sheet.set(
        "setup_wall_s",
        p.setup_wall_ns.unwrap_or(0) as f64 * 1e-9,
        1,
    );
    sheet.set(
        "trace_overhead_ratio",
        spans.quiet() / ns_per_hb,
        spans.len(),
    );

    // Accounting closure. Inline: every frame is drained and decoded, every
    // heartbeat accepted, every tick republishes every peer and the epoch
    // ends with one lookup. Engine: what is not a stage is hand-off.
    let unattributed = match spec.topology {
        Topology::EngineChan => handoff,
        _ => {
            let fresh = spec.fresh() as f64;
            let per_epoch = spec.burst as f64 * (costs.recv + costs.decode)
                + fresh * costs.accept
                + spec.peers as f64 * costs.publish_per_peer
                + costs.reader
                + spec.churn as f64 * (costs.watch + costs.unwatch);
            ns_per_hb - per_epoch / fresh
        }
    };
    sheet.set("unattributed_ns_per_hb", unattributed, plain.len());
    let mut warnings = Vec::new();
    if unattributed.abs() > CLOSURE_TOLERANCE * ns_per_hb {
        warnings.push(format!(
            "{}: the layers leave {unattributed:.1} ns of {ns_per_hb:.1} ns per heartbeat \
             unattributed (more than {:.0} %)",
            spec.name,
            CLOSURE_TOLERANCE * 100.0
        ));
    }

    let path = trace_path(spec.name);
    tr.write_json(&path, spec.name, seed)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    Ok(Outcome {
        metrics: sheet.finish()?,
        attempted: p.totals.sent + p.probes.attempted,
        failed: (p.totals.sent - p.totals.accepted.min(p.totals.sent)) + p.probes.failed,
        violations: p.violations,
        warnings,
    })
}

/// Runs `spec` for `seconds` of measured time.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    match (spec.topology, trace) {
        (Topology::UdpInline, false) => untraced::<InlineRig<UdpFeed>>(spec, seed, seconds),
        (Topology::ChanInline, false) => untraced::<InlineRig<ChanFeed>>(spec, seed, seconds),
        (Topology::EngineChan, false) => untraced::<EngineRig>(spec, seed, seconds),
        (Topology::UdpInline, true) => traced::<InlineRig<UdpFeed>>(spec, seed, seconds),
        (Topology::ChanInline, true) => traced::<InlineRig<ChanFeed>>(spec, seed, seconds),
        (Topology::EngineChan, true) => traced::<EngineRig>(spec, seed, seconds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    /// One second of every workload, one after the other (they share the
    /// host's two cores): every heartbeat sent is accepted, no probe is
    /// lost, every correctness check holds, every metric is reported.
    #[test]
    fn one_second_smoke_of_every_workload_delivers_everything() {
        for spec in &SPECS {
            let outcome = run(spec, 7, 1.0, false).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(
                outcome.violations.is_empty(),
                "{}: {:?}",
                spec.name,
                outcome.violations
            );
            assert_eq!(outcome.failed, 0, "{}", spec.name);
            assert_eq!(outcome.metrics.len(), END_TO_END.len());
            let delivery = outcome
                .metrics
                .iter()
                .find(|m| m.name == "delivery_ratio")
                .map(|m| m.value);
            assert_eq!(delivery, Some(1.0), "{}", spec.name);
        }
    }
}
