//! `perfbench --workload <decode|prefill> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints one JSON result line last on standard output. Exits 1 when the
//! correctness gate finds a failed operation, 2 on a usage or set-up
//! error (without a result line).

use std::process::ExitCode;

use perfbench::metrics::{end_to_end, per_layer, result_line};
use perfbench::workload::Workload;
use perfbench::{layers, run};

const USAGE: &str =
    "usage: perfbench --workload <decode|prefill> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if seconds == 0 {
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
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (outcome, specs) = if args.trace {
        (layers::traced(args.workload, args.seed), per_layer())
    } else {
        (
            run::end_to_end(args.workload, args.seed, args.seconds as f64),
            end_to_end(),
        )
    };
    let line = outcome.and_then(|o| {
        result_line(&specs, &o.values, o.attempted, o.failed).map(|line| (line, o.failed))
    });
    match line {
        Ok((line, failed)) => {
            println!("{line}");
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: correctness gate failed for {failed} operation(s)");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
