//! Regenerates or checks every artifact under `results/`.
//!
//! * `figures full` — run every figure, table, micro-experiment,
//!   ablation and report, write `results/`, judge the claim shapes;
//! * `figures check` — rerun them all and require byte identity with
//!   the committed files (CI);
//! * `figures <name>…` — run and write only the named artifacts.
//!
//! The registry, the shapes and the deviation list live in
//! `bench::figures`.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    bench::figures::cli(&args)
}
