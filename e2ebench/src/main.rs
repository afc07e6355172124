//! End-to-end and per-layer benchmark of the HyCiM solver stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <paper-anneal|short-remote|wire-large> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop: a fixed number of callers, each
//! issuing its next job only after it holds the checked result of the
//! previous one. Instances and solve seeds derive from `--seed`; every
//! result is compared bit for bit with a serial oracle and re-scored
//! against the generated instance. With `--trace 0` the run reports the
//! end-to-end metrics; with `--trace 1` it reports the per-layer ones,
//! measured in a separate traced phase. The last line of standard output
//! is the JSON result; a human-readable report goes to standard error.

mod metrics;
mod plan;
mod replay;
mod system;
mod trace;

use std::process::ExitCode;

use plan::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: hycim-e2ebench --workload <paper-anneal|short-remote|wire-large> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value).ok_or(format!("unknown workload \"{value}\""))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match metrics::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload wire-large --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::WireLarge);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload wire-large --seed 1 --seconds 1").is_err());
        assert!(args("--workload wire-large --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload wire-large --seed 1 --seconds 1 --trace 2").is_err());
    }
}
