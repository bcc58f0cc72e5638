//! The ledger: four closed-loop workloads over the accrual failure
//! detector runtime, end-to-end metrics with quiet-host epoch costs, and a
//! per-layer budget that is checked against them.
//!
//! ```text
//! afd-ledger --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints every metric as `workload/metric value unit (n=samples)` and, as
//! the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` (default)
//! reports the end-to-end metrics; `--trace 1` records a span around every
//! call into the system, writes them to `bench/out/trace-<workload>.json`
//! and reports the per-layer metrics. Exits 1 when a correctness check
//! fails and 2 when the run itself could not be made.

#![forbid(unsafe_code)]

mod gen;
mod layers;
mod metrics;
mod run;
mod stats;
mod sut;
mod trace;
mod workload;

use std::process::ExitCode;

/// Measured seconds of a run when `--seconds` is not given; `run_seconds`
/// of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: afd-ledger --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]",
        names.join("|")
    )
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!("unknown workload {:?}\n{}", args.workload, usage());
        return ExitCode::from(2);
    };
    let outcome = match run::run(spec, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", spec.name);
            return ExitCode::from(2);
        }
    };
    for m in &outcome.metrics {
        println!(
            "{}/{} {} {} (n={})",
            spec.name,
            m.name,
            metrics::json_number(m.value),
            m.unit,
            m.samples
        );
    }
    if !spec.gated {
        eprintln!(
            "note: {} is carried in the ledger but not listed in BENCHMARK.json",
            spec.name
        );
    }
    for w in &outcome.warnings {
        eprintln!("warning: {w}");
    }
    for v in outcome.violations.iter().take(20) {
        eprintln!("check failed: {v}");
    }
    if outcome.violations.len() > 20 {
        eprintln!("… and {} more", outcome.violations.len() - 20);
    }
    if args.trace {
        eprintln!("spans: {}", run::trace_path(spec.name).display());
    }
    let correct = outcome.violations.is_empty();
    println!(
        "{}",
        metrics::result_line(
            correct,
            outcome.attempted.max(1),
            outcome.failed,
            &outcome.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
