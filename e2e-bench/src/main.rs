//! End-to-end and per-layer benchmark of the DC-MBQC compiler, its
//! compilation service and the service's TCP front door.
//!
//! ```text
//! mbqc-e2e-bench --workload <qft_ladder|paper_families|service_mix>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` beside this crate.

mod checks;
mod compile;
mod front;
mod layers;
mod mix;
mod programs;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::Metrics;

/// Set-ups before the timed part of a run; `setup_s` is the median of
/// every set-up in the run.
pub const SETUP_REPS: usize = 7;

/// What a workload run reports.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Disk tiers and stores live in a per-process directory under the
    // working directory, removed when the run ends.
    let scratch = PathBuf::from(".e2e-bench-tmp").join(format!("run-{}", std::process::id()));
    let steal_before = stats::cpu_steal_ticks();
    let outcome = match args.workload.as_str() {
        "qft_ladder" => compile::run(
            compile::Which::QftLadder,
            args.seed,
            args.seconds,
            args.trace,
            &scratch,
        ),
        "paper_families" => compile::run(
            compile::Which::PaperFamilies,
            args.seed,
            args.seconds,
            args.trace,
            &scratch,
        ),
        "service_mix" => mix::run(args.seed, args.seconds, args.trace, &scratch),
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".e2e-bench-tmp");
    let steal_after = stats::cpu_steal_ticks();
    let total = steal_after.1.saturating_sub(steal_before.1).max(1);
    println!(
        "machine CPU steal during the run: {:.1}%",
        100.0 * steal_after.0.saturating_sub(steal_before.0) as f64 / total as f64
    );
    println!(
        "{} workload={} seed={} attempted={} failed={}",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        },
        args.workload,
        args.seed,
        outcome.attempted,
        outcome.failed
    );
    outcome.metrics.print_table();
    println!(
        "{}",
        outcome
            .metrics
            .result_json(outcome.attempted, outcome.failed)
    );
    ExitCode::SUCCESS
}
