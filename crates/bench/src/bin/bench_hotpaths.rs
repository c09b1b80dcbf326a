//! Self-timing hot-path micro-benchmarks → `BENCH_hotpaths.json`.
//!
//! Measures the three optimizations of the hot-path pass, each against
//! the retained reference implementation it replaced:
//!
//! 1. `gf128_mul` — GHASH-style GF(2^128) fold: bit-at-a-time
//!    `Gf128::mul_bitwise` vs the per-key 4-bit table (`GfMulTable`).
//! 2. `compcpy_page_copy` — CompCpy's copy step through a
//!    SmartDIMM-backed memory system: per-line loads/stores vs the
//!    batched whole-page path (one buffer-device interception and one
//!    translation probe per 4 KB page).
//! 3. `lz77_match_finder` — LZ77 tokenization: linear window scan
//!    (`tokenize_linear`) vs the hash-chain matcher (`tokenize`).
//! 4. `dram_backend_whole_sim` — the 4-channel run_report sweep on the
//!    cycle-accurate FR-FCFS backend vs the fast fixed-latency tier.
//! 5. `whole_sim_parallel` — the same sweep's independent entries run
//!    back to back vs fanned out on a 4-worker `simkit::par` pool.
//!
//! All inputs are seeded and deterministic; only the wall-clock timings
//! vary run to run. Modes:
//!
//! * `smoke` — tiny inputs/iterations for CI (ratios not meaningful);
//!   writes to `target/BENCH_hotpaths.smoke.json` so a CI run never
//!   clobbers the committed full-mode numbers,
//! * `full` — the committed numbers at `BENCH_hotpaths.json` (default),
//! * `check` — parse-validate the committed `BENCH_hotpaths.json` and
//!   exit non-zero if missing or malformed (used by `ci.sh`).

use bench::harness::{json_parses, median_ns_per_op, report, BenchSpec, HotPath};
use cache::CacheConfig;
use platforms::{run_server, BackendKind, PlatformKind, UlpKind, WorkloadConfig};
use simkit::DetRng;
use smartdimm::{CompCpyHost, HostConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use ulp_crypto::gf128::{Gf128, GfMulTable};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf()
}

fn bench_gf128(spec: BenchSpec, blocks: usize) -> HotPath {
    let mut rng = DetRng::new(0x9e3779b97f4a7c15);
    let mut rand_block = move || {
        let mut b = [0u8; 16];
        rng.fill_bytes(&mut b);
        Gf128::from_bytes(&b)
    };
    let h = rand_block();
    let data: Vec<Gf128> = (0..blocks).map(|_| rand_block()).collect();

    let before = median_ns_per_op(spec, || {
        let mut y = Gf128::ZERO;
        for &b in &data {
            y = (y + b).mul_bitwise(h);
        }
        assert_ne!(y, Gf128::ZERO);
    });
    let after = median_ns_per_op(spec, || {
        let table = GfMulTable::new(h); // once per key, as in GHASH
        let mut y = Gf128::ZERO;
        for &b in &data {
            y = table.mul(y + b);
        }
        assert_ne!(y, Gf128::ZERO);
    });
    HotPath {
        name: "gf128_mul",
        before_impl: "Gf128::mul_bitwise (bit-at-a-time, SP 800-38D reference)",
        after_impl: "GfMulTable (per-key 4-bit tables, 32-step nibble Horner)",
        work_units: format!(
            "GHASH fold over {blocks} blocks ({} KB)",
            blocks * 16 / 1024
        ),
        before_ns_per_op: before,
        after_ns_per_op: after,
    }
}

fn bench_compcpy(spec: BenchSpec, pages: usize) -> HotPath {
    let size = pages * 4096;
    let payload: Vec<u8> = {
        let mut rng = DetRng::new(0xC0FFEE);
        let mut v = vec![0u8; size];
        rng.fill_bytes(&mut v);
        v
    };
    // One op = the CompCpy copy step (Algorithm 2 lines 19 + 24-31):
    // flush the source to DRAM, then copy it through the cache while the
    // SmartDIMM intercepts every miss. Pages are unmapped, isolating the
    // copy engine from DSA work (identical in both paths).
    let run = |batch: bool| {
        let mut cfg = HostConfig::default();
        cfg.mem.batch_page_copy = batch;
        let mut host = CompCpyHost::new(cfg);
        let src = host.alloc_pages(pages);
        let dst = host.alloc_pages(pages);
        host.mem_mut().store(src, &payload, 0);
        median_ns_per_op(spec, || {
            let mem = host.mem_mut();
            mem.flush(src, size);
            mem.memcpy(dst, src, size, 0, false);
        })
    };
    let before = run(false);
    let after = run(true);
    HotPath {
        name: "compcpy_page_copy",
        before_impl: "per-line loads/stores (64 CAS interceptions per page)",
        after_impl: "batched page copy (one interception + one xlat probe per page)",
        work_units: format!(
            "flush + copy of {pages} pages ({} KB) through a SmartDIMM memsys",
            pages * 4
        ),
        before_ns_per_op: before,
        after_ns_per_op: after,
    }
}

fn bench_lz77(spec: BenchSpec, input_len: usize) -> HotPath {
    let data = ulp_compress::corpus::text(input_len, 42);
    let config = ulp_compress::lz77::MatcherConfig::default();
    let before = median_ns_per_op(spec, || {
        let toks = ulp_compress::lz77::tokenize_linear(&data, config);
        assert!(!toks.is_empty());
    });
    let after = median_ns_per_op(spec, || {
        let toks = ulp_compress::lz77::tokenize(&data, config);
        assert!(!toks.is_empty());
    });
    HotPath {
        name: "lz77_match_finder",
        before_impl: "tokenize_linear (exhaustive backwards window scan)",
        after_impl: "tokenize (hash-chain match finder, lazy matching)",
        work_units: format!("tokenize {} KB of seeded text corpus", input_len / 1024),
        before_ns_per_op: before,
        after_ns_per_op: after,
    }
}

fn bench_backend_sweep(spec: BenchSpec, connections: usize, requests: usize) -> HotPath {
    // One op = the 4-channel SmartDIMM slice of the `run_report` sweep
    // (§V-D): TLS under fine interleave plus deflate under coarse
    // interleave, end to end through the server harness. Both backends
    // run the byte-identical workload — the differential harness pins
    // the functional equality — so the ratio is pure simulator
    // wall-clock: FR-FCFS bank state machines, bus turnaround and
    // refresh vs the fixed-latency per-channel FIFO.
    let run_sweep = |backend: BackendKind| {
        let tls_cfg = WorkloadConfig {
            message_bytes: 4096,
            connections,
            requests,
            ulp: UlpKind::Tls,
            llc: Some(CacheConfig::mb(2, 16)),
            channels: 4,
            channel_interleave_lines: 1,
            backend,
            ..WorkloadConfig::default()
        };
        let deflate_cfg = WorkloadConfig {
            ulp: UlpKind::Compression,
            channel_interleave_lines: 64,
            ..tls_cfg.clone()
        };
        median_ns_per_op(spec, || {
            let m = run_server(PlatformKind::SmartDimm, &tls_cfg);
            assert!(m.rps > 0.0);
            let m = run_server(PlatformKind::SmartDimm, &deflate_cfg);
            assert!(m.rps > 0.0);
        })
    };
    let before = run_sweep(BackendKind::CycleAccurate);
    let after = run_sweep(BackendKind::FastQueue);
    HotPath {
        name: "dram_backend_whole_sim",
        before_impl: "cycle-accurate FR-FCFS DramSystem (per-bank state machines)",
        after_impl:
            "fast fixed-latency + per-channel-FIFO timing (DramSystem, BackendKind::FastQueue)",
        work_units: format!(
            "4-channel run_report sweep: TLS fine + deflate coarse, \
             {connections} conns x {requests} reqs"
        ),
        before_ns_per_op: before,
        after_ns_per_op: after,
    }
}

fn bench_whole_sim_parallel(spec: BenchSpec, connections: usize, requests: usize) -> HotPath {
    // One op = the 4-channel slice of the `run_report` sweep: four
    // independent simulations (TLS on CPU and SmartDIMM under fine
    // interleave, deflate under coarse, TLS on the fast backend).
    // Before: the pre-parallel report builder — entries run one after
    // another on the caller's thread. After: the same entries fanned
    // out on a 4-worker `simkit::par` pool, exactly as `run_report`
    // now executes them. Results are byte-identical either way; the
    // ratio is the wall-clock scaling of whole-simulation parallelism, bounded by
    // the slowest single entry (deflate).
    let entries = || -> Vec<(PlatformKind, WorkloadConfig)> {
        let tls_cfg = WorkloadConfig {
            message_bytes: 4096,
            connections,
            requests,
            ulp: UlpKind::Tls,
            llc: Some(CacheConfig::mb(2, 16)),
            channels: 4,
            channel_interleave_lines: 1,
            ..WorkloadConfig::default()
        };
        let deflate_cfg = WorkloadConfig {
            ulp: UlpKind::Compression,
            channel_interleave_lines: 64,
            ..tls_cfg.clone()
        };
        let fast_cfg = WorkloadConfig {
            backend: BackendKind::FastQueue,
            ..tls_cfg.clone()
        };
        vec![
            (PlatformKind::Cpu, tls_cfg.clone()),
            (PlatformKind::SmartDimm, tls_cfg),
            (PlatformKind::SmartDimm, deflate_cfg),
            (PlatformKind::SmartDimm, fast_cfg),
        ]
    };
    let before = median_ns_per_op(spec, || {
        for (kind, cfg) in entries() {
            let m = run_server(kind, &cfg);
            assert!(m.rps > 0.0);
        }
    });
    let after = median_ns_per_op(spec, || {
        let (metrics, _) =
            simkit::par::run_indexed(4, entries(), |_, (kind, cfg)| run_server(kind, &cfg));
        assert!(metrics.iter().all(|m| m.rps > 0.0));
    });
    HotPath {
        name: "whole_sim_parallel",
        before_impl: "sequential report builder (entries run back to back)",
        after_impl: "4-worker simkit::par fan-out (work-stealing deque, ordered mount)",
        work_units: format!(
            "4-channel run_report entries: TLS cpu+smartdimm fine, deflate \
             coarse, TLS fast-backend, {connections} conns x {requests} reqs"
        ),
        before_ns_per_op: before,
        after_ns_per_op: after,
    }
}

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "full".into());
    let out_path = repo_root().join("BENCH_hotpaths.json");

    if mode == "check" {
        return match std::fs::read_to_string(&out_path) {
            Ok(s) if json_parses(&s) && s.contains("bench_hotpaths/v1") => {
                println!("[ok] {} parses", out_path.display());
                ExitCode::SUCCESS
            }
            Ok(_) => {
                eprintln!("[err] {} is not valid report JSON", out_path.display());
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("[err] {}: {e}", out_path.display());
                ExitCode::FAILURE
            }
        };
    }

    let (spec, gf_blocks, pages, lz_len, sweep_scale, out_path) = match mode.as_str() {
        "smoke" => (
            BenchSpec::smoke(),
            256,
            4,
            1024,
            (16, 60),
            repo_root().join("target").join("BENCH_hotpaths.smoke.json"),
        ),
        "full" => (BenchSpec::full(), 256, 32, 8192, (32, 150), out_path),
        other => {
            eprintln!("usage: bench_hotpaths [smoke|full|check] (got {other:?})");
            return ExitCode::FAILURE;
        }
    };

    println!("hot-path benchmarks ({mode} mode)");
    let paths = vec![
        bench_gf128(spec, gf_blocks),
        bench_compcpy(spec, pages),
        bench_lz77(spec, lz_len),
        bench_backend_sweep(spec, sweep_scale.0, sweep_scale.1),
        bench_whole_sim_parallel(spec, sweep_scale.0, sweep_scale.1),
    ];
    let mut rows = Vec::new();
    for p in &paths {
        rows.push(vec![
            p.name.to_string(),
            format!("{:.0}", p.before_ns_per_op),
            format!("{:.0}", p.after_ns_per_op),
            bench::ratio(p.speedup()),
        ]);
    }
    bench::print_table(
        "hot paths (median ns/op)",
        &["path", "before", "after", "speedup"],
        &rows,
    );

    let doc = report(&mode, spec, &paths).render();
    assert!(json_parses(&doc), "emitted report must be valid JSON");
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).expect("create report dir");
    }
    std::fs::write(&out_path, doc).expect("write BENCH_hotpaths.json");
    println!("\n[report written to {}]", out_path.display());
    ExitCode::SUCCESS
}
