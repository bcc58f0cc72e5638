//! **E17 — the bounded model checker, measured.**
//!
//! Two sections:
//!
//! 1. **Exhaustive sweep** — [`explore()`] runs the real (unmutated) system
//!    for each of the six zoo detectors, counting canonical states,
//!    transitions, and states/second. The run must be violation-free, each
//!    kind must expand a non-degenerate search (> 10 000 states), and the
//!    six sweeps together must cover ≥ 100 000 canonical states — the
//!    soundness floor from the PR-8 acceptance criteria.
//! 2. **Mutant hunt** — every seeded mutant is chased at the focused
//!    [`ModelBounds::mutant_hunt`] bounds. Each must be caught by the
//!    property planted for it, the counterexample must minimize to a
//!    1-minimal schedule, and the schedule must replay through the real
//!    `SenderCore`/`ShardedMonitor` stack as a `ChaosScript` with no
//!    index drift.
//!
//! `--smoke` swaps the exhaustive bounds (30-tick horizon, ~4.9 M states,
//! ~20 s release) for the smoke bounds (12 ticks, ~400 k states, seconds).
//! The ≥ 100 k floor holds in both modes.

use afd_bench::report::{write_report, Json, JsonObject};
use afd_detectors::spec;
use afd_model::{explore, find_counterexample, minimize, replay, to_script, ModelBounds, Mutant};
use afd_runtime::{run_chaos_script, Clock, SystemClock};

fn wall_s(clock: &SystemClock, since: afd_core::time::Timestamp) -> f64 {
    clock.now().saturating_duration_since(since).as_secs_f64()
}

/// Section 1: the clean system, swept exhaustively per detector kind.
fn sweep(bounds: ModelBounds, clock: &SystemClock) -> (u64, Vec<Json>) {
    println!(
        "E17: exhaustive sweep — {} procs, {} ticks, {} in flight",
        bounds.processes, bounds.max_ticks, bounds.max_in_flight
    );
    println!(
        "{:<10} {:>10} {:>12} {:>6} {:>8} {:>12}",
        "kind", "states", "transitions", "depth", "time (s)", "states/s"
    );
    let mut total = 0u64;
    let mut json = Vec::new();
    for zoo in spec::zoo() {
        let name = zoo.detector.name();
        let start = clock.now();
        let report = explore(zoo, Mutant::None, bounds);
        let secs = wall_s(clock, start);
        assert!(
            report.counterexample.is_none(),
            "{}: the real system violated a property: {:?}",
            name,
            report.counterexample
        );
        assert!(
            report.states > 10_000,
            "{}: degenerate search ({} states)",
            name,
            report.states
        );
        let rate = report.states as f64 / secs.max(1e-9);
        println!(
            "{:<10} {:>10} {:>12} {:>6} {:>8.2} {:>12.0}",
            name, report.states, report.transitions, report.max_depth, secs, rate
        );
        total += report.states;
        json.push(
            JsonObject::new()
                .field("kind", name)
                .field("states", Json::from(report.states))
                .field("transitions", Json::from(report.transitions))
                .field("max_depth", Json::from(report.max_depth as u64))
                .field("seconds", secs)
                .field("states_per_sec", rate)
                .build(),
        );
    }
    assert!(
        total >= 100_000,
        "sweep covered only {total} canonical states (floor is 100k)"
    );
    println!("total: {total} canonical states across six kinds\n");
    (total, json)
}

/// Section 2: every mutant caught, minimized, and replayed for real.
fn hunt(clock: &SystemClock) -> Vec<Json> {
    let bounds = ModelBounds::mutant_hunt();
    let simple = spec::simple();
    println!(
        "E17b: mutant hunt — {} proc(s), {} ticks",
        bounds.processes, bounds.max_ticks
    );
    println!(
        "{:<26} {:<16} {:>4} {:>9} {:>8}",
        "mutant", "caught by", "cex", "minimized", "time (s)"
    );
    let mut json = Vec::new();
    for mutant in Mutant::ALL {
        let start = clock.now();
        let cex = find_counterexample(simple, mutant, bounds)
            .unwrap_or_else(|| panic!("{}: mutant escaped the checker", mutant.name()));
        let min = minimize(simple, mutant, bounds, &cex);
        assert!(
            replay(simple, mutant, bounds, &min.path).is_some(),
            "{}: minimized schedule no longer violates",
            mutant.name()
        );

        // The counterexample is an artifact, not a claim: replay it
        // through the real sender/monitor pipeline.
        let script = to_script(&bounds, &min.path);
        let detector = simple
            .detector
            .model_sized(script.heartbeat_interval)
            .expect("a model script's heartbeat interval is positive");
        let report = run_chaos_script(&script, move |_| detector.build());
        assert_eq!(
            report.trace.len(),
            min.path.len(),
            "{}: runtime replay diverged from the model schedule",
            mutant.name()
        );
        let secs = wall_s(clock, start);
        println!(
            "{:<26} {:<16} {:>4} {:>9} {:>8.2}",
            mutant.name(),
            cex.violation.property.name(),
            cex.path.len(),
            min.path.len(),
            secs
        );
        json.push(
            JsonObject::new()
                .field("mutant", mutant.name())
                .field("caught_by", cex.violation.property.name())
                .field("counterexample_events", Json::from(cex.path.len() as u64))
                .field("minimized_events", Json::from(min.path.len() as u64))
                .field("replayed_through_runtime", true)
                .field("seconds", secs)
                .build(),
        );
    }
    println!();
    json
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let bounds = if smoke {
        ModelBounds::smoke()
    } else {
        ModelBounds::exhaustive()
    };
    let clock = SystemClock::new();
    let total_start = clock.now();

    let (total_states, sweep_json) = sweep(bounds, &clock);
    let hunt_json = hunt(&clock);

    let report = JsonObject::new()
        .field("experiment", "e17_model")
        .field("smoke", smoke)
        .field(
            "bounds",
            JsonObject::new()
                .field("processes", Json::from(bounds.processes as u64))
                .field("max_ticks", Json::from(bounds.max_ticks as u64))
                .field("max_in_flight", Json::from(bounds.max_in_flight as u64))
                .field("max_losses", Json::from(bounds.max_losses as u64))
                .field("max_duplicates", Json::from(bounds.max_duplicates as u64))
                .field("max_crashes", Json::from(bounds.max_crashes as u64))
                .build(),
        )
        .field("total_states", Json::from(total_states))
        .field("kinds", sweep_json)
        .field("mutants", hunt_json)
        .build();
    let path = write_report("e17", &report).expect("write results/BENCH_e17.json");
    println!("wrote {}", path.display());

    println!(
        "e17 total: {:.2} s{}",
        wall_s(&clock, total_start),
        if smoke { " (smoke)" } else { "" }
    );
}
