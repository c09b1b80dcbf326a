//! Differential fidelity check → `results/backend_differential.json`.
//!
//! Runs every committed workload shape (TLS 1/2/4-channel sweeps, the
//! deflate round trip, the fault-injected oracle seeds — all defined in
//! `bench::differential`, shared with `tests/backend_differential.rs`) on
//! **both** timing tiers of `DramSystem` — cycle-accurate (fidelity tier
//! 0) and the fixed-latency per-channel FIFO (tier 1) — and reports, per
//! workload:
//!
//! * whether the payload bytes and functional counters matched
//!   (`functional_match`; the binary exits non-zero if any row is
//!   false),
//! * simulated end-of-run cycles on each tier and their ratio (the
//!   committed tolerance band lives in `tests/backend_differential.rs`),
//! * wall-clock per tier, for the honest record of what the fast tier
//!   buys (the simulation is ULP-compute-bound, so expect ~1x in
//!   release — see DESIGN.md "Memory backend fidelity tiers").
//!
//! Modes mirror `bench_hotpaths`:
//!
//! * `smoke` — reduced seeds, report under `target/` (CI never clobbers
//!   the committed numbers),
//! * `full` — the committed `results/backend_differential.json`
//!   (default),
//! * `check` — validate the committed report (used by `ci.sh`): it must
//!   parse, carry `"all_functional_match": true` and hold exactly the
//!   five workload rows.

use bench::differential::{
    deflate_sweep, fault_sweep, tls_sweep, Outcome, COARSE, DEFLATE_ROUNDS, FAULT_SEEDS,
    TLS_OFFLOADS,
};
use bench::harness::json_parses;
use bench::Json;
use memsys::BackendKind;
use simkit::timer::Stopwatch;
use std::path::Path;
use std::process::ExitCode;

/// The five rows of the report, in order; `check` requires exactly these.
const WORKLOADS: [&str; 5] = [
    "tls_ch1_fine",
    "tls_ch2_coarse",
    "tls_ch4_coarse",
    "deflate_ch2_coarse",
    "fault_seed_sweep",
];

struct Row {
    workload: String,
    accurate_cycles: u64,
    fast_cycles: u64,
    accurate_wall_ms: f64,
    fast_wall_ms: f64,
    functional_match: bool,
}

impl Row {
    fn measure(workload: &str, run: impl Fn(BackendKind) -> Outcome) -> Row {
        let sw = Stopwatch::start();
        let acc = run(BackendKind::CycleAccurate);
        let acc_ms = sw.elapsed_ns() as f64 / 1e6;
        let sw = Stopwatch::start();
        let fast = run(BackendKind::FastQueue);
        let fast_ms = sw.elapsed_ns() as f64 / 1e6;
        Row {
            workload: workload.to_string(),
            accurate_cycles: acc.now,
            fast_cycles: fast.now,
            accurate_wall_ms: acc_ms,
            fast_wall_ms: fast_ms,
            functional_match: acc.functional == fast.functional,
        }
    }

    fn cycle_ratio(&self) -> f64 {
        self.fast_cycles as f64 / self.accurate_cycles as f64
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), self.workload.clone().into()),
            ("accurate_cycles".into(), self.accurate_cycles.into()),
            ("fast_cycles".into(), self.fast_cycles.into()),
            ("cycle_ratio".into(), self.cycle_ratio().into()),
            ("accurate_wall_ms".into(), self.accurate_wall_ms.into()),
            ("fast_wall_ms".into(), self.fast_wall_ms.into()),
            ("functional_match".into(), self.functional_match.into()),
        ])
    }
}

/// Validates a committed report: well-formed JSON carrying the schema
/// tag, every workload functionally matched, and exactly the rows of
/// [`WORKLOADS`] in order.
fn check(path: &Path) -> Result<(), String> {
    let doc = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    if !json_parses(&doc) || !doc.contains("\"schema\": \"backend_differential/v1\"") {
        return Err("not a backend_differential/v1 report".into());
    }
    if !doc.contains("\"all_functional_match\": true") {
        return Err("all_functional_match is not true".into());
    }
    let key = "\"workload\": \"";
    let rows: Vec<&str> = doc
        .match_indices(key)
        .filter_map(|(at, _)| doc[at + key.len()..].split('"').next())
        .collect();
    if rows != WORKLOADS {
        return Err(format!("workload rows {rows:?}, expected {WORKLOADS:?}"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "full".into());
    let committed = bench::repo_root()
        .join("results")
        .join("backend_differential.json");

    if mode == "check" {
        return match check(&committed) {
            Ok(()) => {
                println!(
                    "[ok] {} is a complete, matching report",
                    committed.display()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("[err] {}: {e}", committed.display());
                ExitCode::FAILURE
            }
        };
    }

    let (offloads, rounds, seeds, out_path) = match mode.as_str() {
        "smoke" => (
            2u64,
            1u64,
            2u64,
            bench::repo_root()
                .join("target")
                .join("backend_differential.smoke.json"),
        ),
        "full" => (TLS_OFFLOADS, DEFLATE_ROUNDS, FAULT_SEEDS, committed),
        other => {
            eprintln!("usage: backend_differential [smoke|full|check] (got {other:?})");
            return ExitCode::FAILURE;
        }
    };

    println!("backend differential ({mode} mode)");
    let [tls1, tls2, tls4, deflate, fault] = WORKLOADS;
    let rows = vec![
        Row::measure(tls1, |b| tls_sweep(b, 1, 1, offloads)),
        Row::measure(tls2, |b| tls_sweep(b, 2, COARSE, offloads)),
        Row::measure(tls4, |b| tls_sweep(b, 4, COARSE, offloads)),
        Row::measure(deflate, |b| deflate_sweep(b, 2, rounds)),
        Row::measure(fault, |b| fault_sweep(b, seeds)),
    ];

    let mut table = Vec::new();
    for r in &rows {
        table.push(vec![
            r.workload.clone(),
            format!("{}", r.accurate_cycles),
            format!("{}", r.fast_cycles),
            format!("{:.3}", r.cycle_ratio()),
            format!("{:.1}", r.accurate_wall_ms),
            format!("{:.1}", r.fast_wall_ms),
            format!("{}", r.functional_match),
        ]);
    }
    print!(
        "{}",
        bench::table(
            "fast vs accurate backend",
            &[
                "workload",
                "acc cycles",
                "fast cycles",
                "ratio",
                "acc ms",
                "fast ms",
                "match",
            ],
            &table,
        )
    );

    let all_match = rows.iter().all(|r| r.functional_match);
    let doc = Json::Obj(vec![
        ("schema".into(), "backend_differential/v1".into()),
        ("mode".into(), mode.clone().into()),
        ("all_functional_match".into(), all_match.into()),
        (
            "workloads".into(),
            Json::Arr(rows.iter().map(Row::to_json).collect()),
        ),
    ])
    .render();
    assert!(json_parses(&doc), "emitted report must be valid JSON");
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).expect("create report dir");
    }
    std::fs::write(&out_path, doc).expect("write backend_differential.json");
    println!("\n[report written to {}]", out_path.display());
    if !all_match {
        eprintln!("[err] functional divergence between backends");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
