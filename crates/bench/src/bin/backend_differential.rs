//! Differential fidelity check → `results/backend_differential.json`.
//!
//! Runs every committed workload shape (TLS 1/2/4-channel sweeps, the
//! deflate round trip, the fault-injected oracle seeds) on **both**
//! timing tiers of `DramSystem` — cycle-accurate (fidelity tier 0) and
//! the fixed-latency per-channel FIFO (tier 1) — and reports, per
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
//! * `check` — parse-validate the committed report (used by `ci.sh`).

use bench::harness::json_parses;
use bench::Json;
use dram::DramTopology;
use memsys::BackendKind;
use simkit::timer::Stopwatch;
use simkit::FaultPlan;
use smartdimm::{CompCpyHost, FaultOracle, HostConfig, OffloadOp};
use std::path::PathBuf;
use std::process::ExitCode;

/// 64 lines per channel: page-granular (coarse) channel rotation.
const COARSE: usize = 64;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf()
}

/// Payload bytes + functional counters of one run (must be identical
/// across backends) plus the simulated clock (banded, not exact).
#[derive(PartialEq)]
struct Outcome {
    payloads: Vec<Vec<u8>>,
    bounced: u64,
    recycles: u64,
    faults: u64,
    /// Oracle scenarios that fell back to software.
    fallbacks: u64,
    rd_cas: u64,
    wr_cas: u64,
}

fn finish(host: &mut CompCpyHost, payloads: Vec<Vec<u8>>) -> (Outcome, u64) {
    let dram = host.mem().dram();
    let cycles = dram.now().raw();
    let outcome = Outcome {
        payloads,
        bounced: host.bounced_offload_count(),
        recycles: host.force_recycle_count(),
        faults: host.injected_fault_count(),
        fallbacks: 0,
        rd_cas: dram.stats().rd_cas.value(),
        wr_cas: dram.stats().wr_cas.value(),
    };
    (outcome, cycles)
}

fn host_for(backend: BackendKind, channels: usize, interleave: usize) -> CompCpyHost {
    let mut cfg = HostConfig::default();
    cfg.mem.backend = backend;
    cfg.mem.dram.topology = DramTopology {
        channels,
        channel_interleave_lines: interleave,
        ..DramTopology::default()
    };
    CompCpyHost::new(cfg)
}

fn tls_sweep(
    backend: BackendKind,
    channels: usize,
    interleave: usize,
    offloads: u64,
) -> (Outcome, u64) {
    let mut host = host_for(backend, channels, interleave);
    let mut payloads = Vec::new();
    for seed in 0..offloads {
        let size = 2048 + (seed * 1777) as usize % 6000;
        let pages = size.div_ceil(4096);
        let src = host.alloc_pages(pages);
        let dst = host.alloc_pages(pages);
        let msg = ulp_compress::corpus::html(size, 40 + seed);
        host.mem_mut().store(src, &msg, 0);
        let key = [0x2Au8; 16];
        let iv = [seed as u8; 12];
        let handle = host
            .comp_cpy_with_aad(
                dst,
                src,
                size,
                OffloadOp::TlsEncrypt { key, iv },
                b"diff",
                false,
                0,
            )
            .expect("offload accepted");
        payloads.push(host.use_buffer(&handle));
        payloads.push(host.tag(&handle).expect("tag available").to_vec());
    }
    finish(&mut host, payloads)
}

fn deflate_sweep(backend: BackendKind, rounds: u64) -> (Outcome, u64) {
    let mut host = host_for(backend, 2, COARSE);
    let mut payloads = Vec::new();
    for seed in 0..rounds {
        let page = ulp_compress::corpus::html(4096, 70 + seed);
        let src = host.alloc_pages(1);
        let dst = host.alloc_pages(1);
        host.mem_mut().store(src, &page, 0);
        let handle = host
            .comp_cpy(dst, src, 4096, OffloadOp::Compress, true, 0)
            .expect("compression accepted");
        let compressed = host.use_buffer(&handle);
        let csrc = host.alloc_pages(1);
        let cdst = host.alloc_pages(1);
        host.mem_mut().store(csrc, &compressed, 0);
        let handle = host
            .comp_cpy(cdst, csrc, compressed.len(), OffloadOp::Decompress, true, 0)
            .expect("decompression accepted");
        payloads.push(compressed);
        payloads.push(host.use_buffer(&handle));
    }
    finish(&mut host, payloads)
}

fn fault_sweep(backend: BackendKind, seeds: u64) -> (Outcome, u64) {
    let mut bounced = 0;
    let mut recycles = 0;
    let mut faults = 0;
    let mut fallbacks = 0;
    let mut rd_cas = 0;
    let mut wr_cas = 0;
    let mut cycles = 0;
    for seed in 0..seeds {
        let plan = FaultPlan::generate(seed, 4);
        let mut cfg = HostConfig::default();
        cfg.mem.backend = backend;
        cfg.mem.dram.topology = DramTopology {
            channels: 2,
            channel_interleave_lines: COARSE,
            ..DramTopology::default()
        };
        cfg.dimm.scratchpad_pages = 16;
        cfg.dimm.xlat_entries = 64;
        cfg.dimm.cam_entries = 4;
        let mut oracle = FaultOracle::new(cfg, plan);
        let key = [0x5Cu8; 16];
        for i in 0..4u64 {
            let size = 600 + (seed * 977 + i * 4099) as usize % 7000;
            let msg = ulp_compress::corpus::text(size, seed * 31 + i);
            let mut iv = [0u8; 12];
            iv[..8].copy_from_slice(&(seed * 100 + i).to_le_bytes());
            // `check` panics on any byte divergence from software.
            let out = oracle.check(OffloadOp::TlsEncrypt { key, iv }, &msg, b"hdr#f");
            fallbacks += u64::from(out.used_fallback);
        }
        let host = oracle.host();
        bounced += host.bounced_offload_count();
        recycles += host.force_recycle_count();
        faults += host.injected_fault_count();
        let dram = host.mem().dram();
        rd_cas += dram.stats().rd_cas.value();
        wr_cas += dram.stats().wr_cas.value();
        cycles += dram.now().raw();
    }
    (
        Outcome {
            payloads: Vec::new(),
            bounced,
            recycles,
            faults,
            fallbacks,
            rd_cas,
            wr_cas,
        },
        cycles,
    )
}

struct Row {
    workload: String,
    accurate_cycles: u64,
    fast_cycles: u64,
    accurate_wall_ms: f64,
    fast_wall_ms: f64,
    functional_match: bool,
}

impl Row {
    fn measure(workload: &str, run: impl Fn(BackendKind) -> (Outcome, u64)) -> Row {
        let sw = Stopwatch::start();
        let (acc, acc_cycles) = run(BackendKind::CycleAccurate);
        let acc_ms = sw.elapsed_ns() as f64 / 1e6;
        let sw = Stopwatch::start();
        let (fast, fast_cycles) = run(BackendKind::FastQueue);
        let fast_ms = sw.elapsed_ns() as f64 / 1e6;
        Row {
            workload: workload.to_string(),
            accurate_cycles: acc_cycles,
            fast_cycles,
            accurate_wall_ms: acc_ms,
            fast_wall_ms: fast_ms,
            functional_match: acc == fast,
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

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "full".into());
    let committed = repo_root()
        .join("results")
        .join("backend_differential.json");

    if mode == "check" {
        return match std::fs::read_to_string(&committed) {
            Ok(s) if json_parses(&s) && s.contains("backend_differential/v1") => {
                println!("[ok] {} parses", committed.display());
                ExitCode::SUCCESS
            }
            Ok(_) => {
                eprintln!("[err] {} is not a valid report", committed.display());
                ExitCode::FAILURE
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
            repo_root()
                .join("target")
                .join("backend_differential.smoke.json"),
        ),
        "full" => (6, 3, 12, committed),
        other => {
            eprintln!("usage: backend_differential [smoke|full|check] (got {other:?})");
            return ExitCode::FAILURE;
        }
    };

    println!("backend differential ({mode} mode)");
    let rows = vec![
        Row::measure("tls_ch1_fine", |b| tls_sweep(b, 1, 1, offloads)),
        Row::measure("tls_ch2_coarse", |b| tls_sweep(b, 2, COARSE, offloads)),
        Row::measure("tls_ch4_coarse", |b| tls_sweep(b, 4, COARSE, offloads)),
        Row::measure("deflate_ch2_coarse", |b| deflate_sweep(b, rounds)),
        Row::measure("fault_seed_sweep", |b| fault_sweep(b, seeds)),
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
    bench::print_table(
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
