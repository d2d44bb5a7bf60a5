//! One workload run of the benchmark, in its own process.
//!
//! ```text
//! netsession-benchmark --workload <flow_month|sharded_month|live_fleet>
//!                      --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (the output checks read `results/`).
//! Progress goes to stderr; the last stdout line is the result JSON with
//! each metric's median, quartiles and sample count. `run.py` builds this
//! binary, runs it and adds the process's CPU time and peak RSS.

mod check;
mod flow;
mod live;
mod report;
mod sharded;
mod stats;

use report::{Metrics, END_TO_END, PER_LAYER};
use std::time::Instant;

/// Parsed command line.
pub struct Opts {
    /// Workload seed: the simulators' master seed, or the live fleet's
    /// content and download order.
    pub seed: u64,
    /// Roughly how long to measure; sizes the run's work (see [`units`]).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// How much slower the traced samples ran than the plain ones, in percent
/// of the plain median.
pub fn overhead_pct(traced: &[f64], plain: &[f64]) -> f64 {
    (stats::median(traced) / stats::median(plain) - 1.0) * 100.0
}

/// How many units of work a run does: `seconds` of work at `nominal_s` per
/// unit, at least `min`. The count depends on `--seconds` only, never on
/// how fast the units run, so every commit does the same work.
pub fn units(seconds: f64, nominal_s: f64, min: usize) -> usize {
    ((seconds / nominal_s).round() as usize).max(min)
}

const USAGE: &str = "usage: netsession-benchmark --workload <flow_month|sharded_month|live_fleet> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(argv: &[String]) -> Result<(String, Opts), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = parse(&argv).unwrap_or_else(|e| {
        eprintln!("netsession-benchmark: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let run = match workload.as_str() {
        "flow_month" => flow::run,
        "sharded_month" => sharded::run,
        "live_fleet" => live::run,
        other => {
            eprintln!("netsession-benchmark: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut metrics = Metrics::default();
    let mut tally = check::Tally::default();
    run(&opts, &mut metrics, &mut tally);
    if let Some(e) = &tally.first_failure {
        eprintln!(
            "# {workload}: {} of {} checked operations failed; first: {e}",
            tally.failed, tally.attempted
        );
    }
    let catalog = if opts.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        metrics.to_json(catalog, tally.failed == 0, tally.attempted, tally.failed)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let (w, o) = parse(&args(
            "--workload live_fleet --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(w, "live_fleet");
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload flow_month --seed 1",
            "--workload flow_month --seed x --seconds 1",
            "--workload flow_month --seed 1 --seconds 0",
            "--workload flow_month --seed 1 --seconds 1 --trace 2",
            "--workload flow_month --seed 1 --seconds 1 --bogus 1",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn work_is_sized_from_seconds_alone() {
        assert_eq!(units(10.0, 5.0, 2), 2);
        assert_eq!(units(60.0, 5.0, 2), 12);
        assert_eq!(units(1.0, 5.0, 2), 2);
        assert_eq!(units(10.0, 30.0, 1), 1);
    }

    #[test]
    fn overhead_is_relative_to_the_plain_median() {
        assert!((overhead_pct(&[1.1], &[1.0, 1.0, 3.0]) - 10.0).abs() < 1e-9);
    }
}
