//! One command that drives the tdb workspace through a seeded workload,
//! checks every output, and prints every metric with its unit and sample
//! count. See README.md for the workloads, the metrics and why they are what
//! they are.
//!
//! ```text
//! tdb-benchmark --workload <solve-social|stream-refresh|serve-mixed>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of the traced run with
//! `--trace 1`. Any failed operation or check makes the exit code non-zero.

mod common;
mod replay;
mod report;
mod serve_mixed;
mod solve_social;
mod stats;
mod stream_refresh;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use common::RunConfig;

const USAGE: &str = "usage: tdb-benchmark --workload <solve-social|stream-refresh|serve-mixed> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: 42,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                config.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value}: not a whole number"))?;
            }
            "--seconds" => {
                let secs: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds {value}: not a number"))?;
                if !(secs > 0.0 && secs <= 3600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 3600]"));
                }
                config.seconds = Duration::from_secs_f64(secs);
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match workload.as_str() {
        solve_social::NAME => solve_social::run(&config),
        stream_refresh::NAME => stream_refresh::run(&config),
        serve_mixed::NAME => serve_mixed::run(&config),
        other => {
            eprintln!("error: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "seed {}  seconds {}  trace {}  available_parallelism {}",
        config.seed,
        config.seconds.as_secs_f64(),
        u8::from(config.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_all_four_flags() {
        let (w, c) = parse_args(&args(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(w, "serve-mixed");
        assert_eq!(c.seed, 7);
        assert_eq!(c.seconds, Duration::from_secs(12));
        assert!(c.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "x", "--trace", "2"],
            &["--workload", "x", "--seconds", "0"],
            &["--workload", "x", "--seed"],
            &["--workload", "x", "--bogus", "1"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
