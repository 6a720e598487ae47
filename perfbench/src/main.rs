//! Command line of the MILO benchmark:
//!
//! ```text
//! milo-perfbench --workload <ctrl10k|timed-mix|serve-mix> [--seed N] \
//!     [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints the host facts, progress on stderr, and as the last line of
//! stdout one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. Exits 1 when any output fails its check, 2 on bad
//! arguments or a run that could not start.

use milo_perfbench::report::host_json;
use milo_perfbench::workload::{Size, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: Workload::Ctrl10k,
        seed: 7,
        seconds: 10.0,
        traced: false,
    };
    let mut workload = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("milo-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_json());
    match milo_perfbench::run(
        args.workload,
        Size::Full,
        args.seed,
        args.seconds,
        args.traced,
    ) {
        Ok(outcome) => {
            for f in &outcome.failures {
                eprintln!("milo-perfbench: FAILED: {f}");
            }
            println!("{}", outcome.result_line());
            if outcome.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("milo-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
