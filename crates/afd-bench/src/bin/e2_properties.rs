//! **E2 — Definition 1, Properties 1–2, Equation (1).**
//!
//! For every detector implementation, over 30 seeded runs each:
//!
//! - crash runs: the Accruement checker finds a witness (K, Q) and the
//!   Equation (1) rate bound ε/2Q holds on the stable suffix;
//! - correct runs: the Upper Bound checker reports a finite SL_max, and
//!   doubling the horizon does not grow it.

use afd_bench::experiment::{cell, Table};
use afd_bench::{level_trace, SEEDS};
use afd_core::properties::{check_rate_bound, check_upper_bound, AccruementCheck};
use afd_core::time::Timestamp;
use afd_detectors::spec;
use afd_sim::scenario::Scenario;

fn main() {
    let crash_scenario = Scenario::wan_jitter()
        .with_horizon(Timestamp::from_secs(300))
        .with_crash_at(Timestamp::from_secs(120));
    let healthy_short = Scenario::wan_jitter().with_horizon(Timestamp::from_secs(300));
    let healthy_long = Scenario::wan_jitter().with_horizon(Timestamp::from_secs(600));

    let checker = AccruementCheck::STRICT;

    let mut table = Table::new(
        "E2: Properties 1-2 and Eq. (1), all detectors (30 seeds each)",
        &[
            "detector",
            "accruement",
            "max plateau Q-1",
            "rate bound eq(1)",
            "upper bound",
            "SL_max (300s)",
            "SL_max (600s)",
        ],
    );

    for spec in spec::series() {
        let mut accrue_pass = 0u32;
        let mut rate_pass = 0u32;
        let mut max_plateau = 0usize;
        for seed in SEEDS {
            let trace = level_trace(&crash_scenario, seed, spec);
            match checker.run(&trace) {
                Ok(w) => {
                    accrue_pass += 1;
                    max_plateau = max_plateau.max(w.max_constant_run);
                    let q = w.max_constant_run + 1;
                    if check_rate_bound(&trace, checker.epsilon, w.stabilization_index, q).is_ok() {
                        rate_pass += 1;
                    }
                }
                Err(e) => eprintln!("  [{}] seed {seed}: {e}", spec.name()),
            }
        }

        let mut bound_pass = 0u32;
        let mut bound_short: f64 = 0.0;
        let mut bound_long: f64 = 0.0;
        for seed in SEEDS {
            let short = level_trace(&healthy_short, seed, spec);
            let long = level_trace(&healthy_long, seed, spec);
            if let (Ok(a), Ok(b)) = (
                check_upper_bound(&short, None),
                check_upper_bound(&long, None),
            ) {
                bound_pass += 1;
                bound_short = bound_short.max(a.observed_bound.value());
                bound_long = bound_long.max(b.observed_bound.value());
            }
        }

        let n = SEEDS.end - SEEDS.start;
        table.push_row(vec![
            spec.name().to_string(),
            format!("{accrue_pass}/{n}"),
            max_plateau.to_string(),
            format!("{rate_pass}/{n}"),
            format!("{bound_pass}/{n}"),
            cell(bound_short, 2),
            cell(bound_long, 2),
        ]);
    }

    println!("{table}");
    println!(
        "reading: every detector satisfies Accruement after a crash (with the\n\
         witnessed plateau bound Q and the eq-(1) minimal rate) and stays\n\
         bounded on correct runs — the bound does not grow with the horizon.\n\
         The large plateaus for chen/bertier/kappa-step are the healthy\n\
         zero-level stretch between their last pre-crash fluctuation and\n\
         the crash itself: a big but finite Q, exactly what Property 1\n\
         permits (and why Q must be allowed to be unknown)."
    );
}
