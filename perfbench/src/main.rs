//! The repository benchmark.
//!
//! ```text
//! snd-perfbench --workload <wave-sparse|wave-paper|campaign-grid>
//!               [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One closed-loop client runs one operation at a time (a discovery wave
//! or a campaign grid pass) on `Executor::serial()` with the engine's
//! default `NullRecorder`, a disabled `Profiler` and the system
//! allocator, until `S` seconds have passed. Every wave and every
//! campaign cell is checked against an oracle; a failed check is a failed
//! operation. The last stdout line is the JSON result: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! separate traced run, whose spans go to `perfbench/traces/`.

mod campaign;
mod expected;
mod layers;
mod report;
mod wave;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{host_line, Spans};

/// The committed campaign spec's seed: on it the campaign grid must
/// reproduce `BENCH_campaign.json` and the waves the counters in
/// `expected.json`.
const DEFAULT_SEED: u64 = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: snd-perfbench --workload <wave-sparse|wave-paper|campaign-grid> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let geometry = match args.workload.as_str() {
        "wave-sparse" => Some(wave::SPARSE),
        "wave-paper" => Some(wave::PAPER),
        "campaign-grid" => None,
        other => {
            eprintln!("error: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line());

    let result = if args.trace {
        let mut spans = Spans::default();
        let result = match &geometry {
            Some(geom) => wave::run_traced(geom, args.seed, args.seconds, &mut spans),
            None => campaign::run_traced(args.seed, args.seconds, &mut spans),
        };
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match spans.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
        result
    } else {
        match &geometry {
            Some(geom) => wave::run(geom, args.seed, args.seconds),
            None => campaign::run(args.seed, args.seconds),
        }
    };
    println!("{}", result.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_flags() {
        let a = args(&[
            "--workload",
            "wave-paper",
            "--seed",
            "4",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("wave-paper", 4, 20.0, true)
        );
        let d = args(&["--workload", "campaign-grid"]).expect("valid");
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }
}
