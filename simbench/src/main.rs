//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable notes, then one JSON result object as the last
//! line of standard output. Exits non-zero without a result when the
//! arguments are bad, a harness call fails, or two calls of the same
//! build and config render different telemetry.

use std::process::ExitCode;

use simbench::workload::{Scale, Workload};
use simbench::RunArgs;

struct Cli {
    args: RunArgs,
    trace: bool,
    rss_probe: bool,
}

fn parse() -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut rss_probe = false;
    let mut scale = Scale::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--rss-probe" {
            rss_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad(&"expected full or smoke")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Cli {
        args: RunArgs {
            workload,
            seed,
            seconds,
            scale,
        },
        trace,
        rss_probe,
    })
}

fn main() -> ExitCode {
    let result = parse().and_then(|cli| {
        if cli.rss_probe {
            let (mb, digest) = simbench::rss_probe_child(cli.args)?;
            println!("{mb} {digest}");
            return Ok(None);
        }
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        if cli.trace {
            simbench::trace(cli.args).map(Some)
        } else {
            simbench::measure(cli.args, &exe).map(Some)
        }
    });
    match result {
        Ok(Some(report)) => {
            for note in &report.notes {
                println!("{note}");
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}
