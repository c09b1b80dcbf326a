//! Self-timing hot-path micro-benchmarks → `BENCH_hotpaths.json`.
//!
//! Measures each hot-path optimization against the retained reference
//! implementation it replaced. Each row's `before_impl` and `after_impl`
//! name the two sides, and DESIGN.md §7 describes each optimization and
//! the tests that pin its behaviour.
//!
//! All inputs are seeded and deterministic; only the wall-clock timings
//! vary run to run. Modes:
//!
//! * `smoke` — tiny inputs/iterations for CI (ratios not meaningful);
//!   writes to `target/BENCH_hotpaths.smoke.json` so a CI run never
//!   clobbers the committed full-mode numbers,
//! * `full` — the committed numbers at `BENCH_hotpaths.json` (default),
//! * `check` — validate the committed `BENCH_hotpaths.json` and exit
//!   non-zero if it is missing, malformed, lacks a row for any hot path
//!   this binary measures, or a row claiming a speedup has per-pair
//!   ratios whose interquartile range does not lie wholly above 1.0
//!   (used by `ci.sh`).
//!   A row marked `speed_claim: false` is exempt, and DESIGN.md §7 must
//!   give its reason.
//!
//! Every row times `before` and `after` in alternating pairs
//! (`harness::paired_ns_per_op`), so drift on a shared host lands on
//! both sides of each ratio.

#![forbid(unsafe_code)]

use bench::harness::{json_parses, paired_ns_per_op, report, row_field, BenchSpec, HotPath};
use cache::{CacheConfig, Llc};
use dram::dimm::CellCoord;
use dram::{AddressMapper, CasInfo, Dimm, DramTopology, PhysAddr, RdResult};
use platforms::{run_server, BackendKind, PlatformKind, UlpKind, WorkloadConfig};
use simkit::DetRng;
use smartdimm::xlat::{Mapping, TranslationTable};
use smartdimm::{CompCpyHost, HostConfig};
use std::collections::BTreeMap;
use std::process::ExitCode;
use ulp_compress::hwmodel::{HwCompressor, HwDeflateConfig};
use ulp_crypto::aes::Aes;
use ulp_crypto::gcm::{AesGcm, Direction, OooGcm};
use ulp_crypto::gf128::{Gf128, GfMulTable};
use ulp_crypto::ghash::{Ghash, HPowers, OooGhash};
use ulp_crypto::Backend;

/// The rows every report carries, in emission order.
const HOT_PATHS: [&str; 13] = [
    "gf128_mul",
    "compcpy_page_copy",
    "lz77_match_finder",
    "dram_backend_whole_sim",
    "whole_sim_parallel",
    "aes_block",
    "ooo_gcm_offload",
    "gcm_seal_page",
    "dimm_cell_store",
    "hw_compress_page",
    "ghash_fold_page",
    "llc_miss_probe",
    "xlat_unmapped_lookup",
];

/// Picks the `after_impl` text for the backend `AesGcm::new_128` takes
/// on this host, so a host without AES-NI and PCLMULQDQ does not report
/// hardware kernels it never ran.
fn on_backend(hardware: &'static str, portable: &'static str) -> &'static str {
    match AesGcm::new_128(&[0; 16]).backend() {
        Backend::Hardware => hardware,
        Backend::Portable => portable,
    }
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

    let timing = paired_ns_per_op(
        spec,
        || {
            let mut y = Gf128::ZERO;
            for &b in &data {
                y = (y + b).mul_bitwise(h);
            }
            assert_ne!(y, Gf128::ZERO);
        },
        || {
            let table = GfMulTable::new(h); // once per key, as in GHASH (just H on CLMUL)
            let mut y = Gf128::ZERO;
            for &b in &data {
                y = table.mul(y + b);
            }
            assert_ne!(y, Gf128::ZERO);
        },
    );
    HotPath {
        name: "gf128_mul",
        before_impl: "Gf128::mul_bitwise (bit-at-a-time, SP 800-38D reference)",
        after_impl: on_backend(
            "GfMulTable on PCLMULQDQ (reflected CLMUL, two-fold reduction, no Shoup table)",
            "GfMulTable (per-key 8-bit table, 16-step byte Horner)",
        ),
        work_units: format!(
            "GHASH fold over {blocks} blocks ({} KB)",
            blocks * 16 / 1024
        ),
        timing,
        speed_claim: true,
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
    let copy = |batch: bool| {
        let mut cfg = HostConfig::default();
        cfg.mem.batch_page_copy = batch;
        let mut host = CompCpyHost::new(cfg);
        let src = host.alloc_pages(pages);
        let dst = host.alloc_pages(pages);
        host.mem_mut().store(src, &payload, 0);
        move || {
            let mem = host.mem_mut();
            mem.flush(src, size);
            mem.memcpy(dst, src, size, 0, false);
        }
    };
    let timing = paired_ns_per_op(spec, copy(false), copy(true));
    HotPath {
        name: "compcpy_page_copy",
        before_impl: "per-line loads/stores (64 CAS interceptions per page)",
        after_impl: "batched page copy (one interception + one xlat probe per page)",
        work_units: format!(
            "flush + copy of {pages} pages ({} KB) through a SmartDIMM memsys",
            pages * 4
        ),
        timing,
        speed_claim: true,
    }
}

fn bench_lz77(spec: BenchSpec, input_len: usize) -> HotPath {
    let data = ulp_compress::corpus::text(input_len, 42);
    let config = ulp_compress::lz77::MatcherConfig::default();
    let timing = paired_ns_per_op(
        spec,
        || assert!(!ulp_compress::lz77::tokenize_linear(&data, config).is_empty()),
        || assert!(!ulp_compress::lz77::tokenize(&data, config).is_empty()),
    );
    HotPath {
        name: "lz77_match_finder",
        before_impl: "tokenize_linear (exhaustive backwards window scan)",
        after_impl: "tokenize (hash-chain match finder, lazy matching)",
        work_units: format!("tokenize {} KB of seeded text corpus", input_len / 1024),
        timing,
        speed_claim: true,
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
    let sweep = |backend: BackendKind| {
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
        move || {
            let m = run_server(PlatformKind::SmartDimm, &tls_cfg);
            assert!(m.rps > 0.0);
            let m = run_server(PlatformKind::SmartDimm, &deflate_cfg);
            assert!(m.rps > 0.0);
        }
    };
    let timing = paired_ns_per_op(
        spec,
        sweep(BackendKind::CycleAccurate),
        sweep(BackendKind::FastQueue),
    );
    HotPath {
        name: "dram_backend_whole_sim",
        before_impl: "cycle-accurate FR-FCFS DramSystem (per-bank state machines)",
        after_impl:
            "fast fixed-latency + per-channel-FIFO timing (DramSystem, BackendKind::FastQueue)",
        work_units: format!(
            "4-channel run_report sweep: TLS fine + deflate coarse, \
             {connections} conns x {requests} reqs"
        ),
        timing,
        speed_claim: false,
    }
}

fn bench_whole_sim_parallel(spec: BenchSpec, connections: usize, requests: usize) -> HotPath {
    // One op = the 4-channel slice of the `run_report` sweep: four
    // independent simulations (TLS on CPU and SmartDIMM under fine
    // interleave, deflate under coarse, TLS on the fast backend).
    // Before: the pre-parallel report builder — entries run one after
    // another on the caller's thread. After: the same entries fanned
    // out on a 4-worker `simkit::par` pool, the fan-out `run_report`
    // uses. Results are byte-identical either way; the
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
    let timing = paired_ns_per_op(
        spec,
        || {
            for (kind, cfg) in entries() {
                let m = run_server(kind, &cfg);
                assert!(m.rps > 0.0);
            }
        },
        || {
            let (metrics, _) =
                simkit::par::run_indexed(4, entries(), |_, (kind, cfg)| run_server(kind, &cfg));
            assert!(metrics.iter().all(|m| m.rps > 0.0));
        },
    );
    HotPath {
        name: "whole_sim_parallel",
        before_impl: "sequential report builder (entries run back to back)",
        after_impl: "4-worker simkit::par fan-out (one shared index queue, ordered mount)",
        work_units: format!(
            "4-channel run_report entries: TLS cpu+smartdimm fine, deflate \
             coarse, TLS fast-backend, {connections} conns x {requests} reqs"
        ),
        timing,
        speed_claim: true,
    }
}

fn bench_aes(spec: BenchSpec, blocks: usize) -> HotPath {
    let mut rng = DetRng::new(0xAE5);
    let mut key = [0u8; 16];
    rng.fill_bytes(&mut key);
    let aes = Aes::new_128(&key);
    let data: Vec<[u8; 16]> = (0..blocks)
        .map(|_| {
            let mut b = [0u8; 16];
            rng.fill_bytes(&mut b);
            b
        })
        .collect();
    let (data, aes) = (&data, &aes);
    let run = |encrypt: fn(&Aes, &[u8; 16]) -> [u8; 16]| {
        move || {
            let acc = data
                .iter()
                .fold(0u8, |acc, b| acc ^ encrypt(aes, std::hint::black_box(b))[0]);
            std::hint::black_box(acc);
        }
    };
    let timing = paired_ns_per_op(
        spec,
        run(Aes::encrypt_block_bytewise),
        run(Aes::encrypt_block),
    );
    HotPath {
        name: "aes_block",
        before_impl: "Aes::encrypt_block_bytewise (FIPS-197 rounds, gf256_mul MixColumns)",
        after_impl: on_backend(
            "Aes::encrypt_block on AES-NI (one aesenc per round)",
            "Aes::encrypt_block (four compile-time 256-entry T-tables)",
        ),
        work_units: format!("AES-128 encryption of {blocks} blocks ({} KB)", blocks / 64),
        timing,
        speed_claim: true,
    }
}

fn bench_ooo_gcm(spec: BenchSpec, offloads: usize) -> HotPath {
    const PAGE: usize = 4096;
    let mut rng = DetRng::new(0x6C3);
    let mut page = vec![0u8; PAGE];
    rng.fill_bytes(&mut page);
    let key = [0x5Au8; 16];
    let iv = [0x11u8; 12];
    let mut order: Vec<usize> = (0..PAGE).step_by(64).collect();
    rng.shuffle(&mut order);

    // Before: the per-block engine — a 258-entry `HPowers` fill at
    // registration and one `OooGhash::absorb` (a full multiply by that
    // block's power) per 16 B block. Both sides run on the detected
    // backend's AES and GF(2^128) kernels, so the ratio is the GHASH
    // scheme's.
    let per_block = || {
        let gcm = AesGcm::new_128(&key);
        let total = PAGE / 16 + 1;
        let powers = HPowers::new(gcm.hash_subkey(), total);
        let mut ghash = OooGhash::new(total);
        let mut len_block = [0u8; 16];
        len_block[8..].copy_from_slice(&(PAGE as u64 * 8).to_be_bytes());
        ghash.absorb(&powers, total - 1, &len_block);
        let eiv = gcm.encrypted_iv(&iv);
        for &off in &order {
            let mut line = [0u8; 64];
            line.copy_from_slice(&page[off..off + 64]);
            gcm.xor_keystream(&iv, off, &mut line);
            for (k, block) in line.as_chunks::<16>().0.iter().enumerate() {
                ghash.absorb(&powers, off / 16 + k, block);
            }
        }
        let mut tag = ghash.finalize();
        for (t, e) in tag.iter_mut().zip(eiv) {
            *t ^= e;
        }
        tag
    };
    let strided = || {
        let mut engine = OooGcm::new(AesGcm::new_128(&key), iv, b"", PAGE, Direction::Encrypt);
        for &off in &order {
            std::hint::black_box(engine.process_cacheline(off, &page[off..off + 64]));
        }
        engine.tag()
    };
    assert_eq!(per_block(), strided(), "both engines must tag alike");
    let timing = paired_ns_per_op(
        spec,
        || {
            for _ in 0..offloads {
                std::hint::black_box(per_block());
            }
        },
        || {
            for _ in 0..offloads {
                std::hint::black_box(strided());
            }
        },
    );
    HotPath {
        name: "ooo_gcm_offload",
        before_impl: "per-block OooGhash over a 258-entry HPowers table (one multiply per block)",
        after_impl: on_backend(
            "OooGcm on AES-NI + PCLMULQDQ: per-line fold by H^3..H^0 reduced once, one multiply by a stride-4 power",
            "OooGcm: per-line Horner by H, one multiply by a stride-4 power of H",
        ),
        work_units: format!(
            "{offloads} x (key setup + registration + 64 shuffled 64 B lines of a 4 KB page)"
        ),
        timing,
        speed_claim: true,
    }
}

fn bench_gcm_seal(spec: BenchSpec, pages: usize) -> HotPath {
    // One op = the event harness's CPU-fallback unit, once per page: a
    // fresh key (`AesGcm::new_128`) and a `seal` of one 4 KB page, on
    // the portable tables vs the detected (hardware) backend.
    const PAGE: usize = 4096;
    let mut rng = DetRng::new(0x5EA1);
    let corpus: Vec<([u8; 16], [u8; 12], Vec<u8>)> = (0..pages)
        .map(|_| {
            let (mut key, mut iv, mut page) = ([0u8; 16], [0u8; 12], vec![0u8; PAGE]);
            rng.fill_bytes(&mut key);
            rng.fill_bytes(&mut iv);
            rng.fill_bytes(&mut page);
            (key, iv, page)
        })
        .collect();
    for (key, iv, page) in &corpus {
        assert_eq!(
            AesGcm::new_128_portable(key).seal(iv, b"", page),
            AesGcm::new_128(key).seal(iv, b"", page),
            "both backends must seal alike"
        );
    }
    let seal_all = |setup: fn(&[u8; 16]) -> AesGcm| {
        let corpus = &corpus;
        move || {
            for (key, iv, page) in corpus {
                std::hint::black_box(setup(key).seal(iv, b"", page));
            }
        }
    };
    HotPath {
        name: "gcm_seal_page",
        before_impl: "AesGcm portable backend (T-table AES CTR, 8-bit Shoup GHASH table per key)",
        after_impl: on_backend(
            "AesGcm hardware backend (AES-NI 4-wide CTR, PCLMULQDQ GHASH reduced once per 4 blocks)",
            "AesGcm portable backend (no AES-NI/PCLMULQDQ on this host)",
        ),
        work_units: format!("{pages} x (AesGcm::new_128 + seal of a seeded 4 KB page)"),
        timing: paired_ns_per_op(
            spec,
            seal_all(AesGcm::new_128_portable),
            seal_all(AesGcm::new_128),
        ),
        speed_claim: true,
    }
}

fn bench_dimm_cells(spec: BenchSpec, offloads: usize) -> HotPath {
    // A TLS offload's CAS stream: the plaintext page is stored (64
    // wrCAS) and copied out (64 rdCAS), then the ciphertext page is
    // written back and sent. Pages come from a seeded pool spread over
    // the 4 GiB single-channel DIMM.
    let mapper = AddressMapper::new(DramTopology::default());
    let mut rng = DetRng::new(0xD1AA);
    let pool: Vec<u64> = (0..offloads).map(|_| rng.gen_range(0..1 << 20)).collect();
    let mut trace = Vec::new();
    for _ in 0..2 * offloads {
        let page = pool[rng.gen_range(0..offloads as u64) as usize];
        for write in [true, false] {
            for phys in (0..64).map(|line| PhysAddr((page << 12) + line * 64)) {
                let loc = mapper.decode(phys);
                let bank_index = loc.bank_index(mapper.topology());
                trace.push((
                    write,
                    CasInfo {
                        loc,
                        phys,
                        bank_index,
                        at: simkit::Cycle(0),
                        tag: 0,
                    },
                ));
            }
        }
    }
    let line = |i: &CasInfo| [(i.phys.0 >> 6) as u8; 64];
    let per_line = || {
        let mut cells: BTreeMap<CellCoord, [u8; 64]> = BTreeMap::new();
        let mut sum = 0u8;
        for (write, i) in &trace {
            let key = (i.loc.rank, i.bank_index, i.loc.row, i.loc.col);
            if *write {
                cells.insert(key, line(i));
            } else {
                sum ^= cells.get(&key).map_or(0, |l| l[0]);
            }
        }
        sum
    };
    let slab = || {
        let mut dimm = Dimm::passthrough();
        let mut sum = 0u8;
        for (write, i) in &trace {
            if *write {
                dimm.wr_cas(i, &line(i));
            } else if let RdResult::Data(l) = dimm.rd_cas(i) {
                sum ^= l[0];
            }
        }
        sum
    };
    assert_eq!(per_line(), slab(), "both stores must read alike");
    HotPath {
        name: "dimm_cell_store",
        before_impl: "per-line BTreeMap<(rank, bank, row, col), [u8; 64]>",
        after_impl: "Dimm column slab (16-bank columns behind a fixed-hasher index)",
        work_units: format!(
            "{offloads} TLS-like offloads (256 CAS each) replayed on a fresh store"
        ),
        timing: paired_ns_per_op(
            spec,
            || {
                std::hint::black_box(per_line());
            },
            || {
                std::hint::black_box(slab());
            },
        ),
        speed_claim: true,
    }
}

fn bench_hw_compress(spec: BenchSpec, pages: usize) -> HotPath {
    // The pages `deflate_numa` compresses: HTML bodies of one page each.
    let corpus: Vec<Vec<u8>> = (0..pages as u64)
        .map(|seed| ulp_compress::corpus::html(4096, seed))
        .collect();
    let mut dsa = HwCompressor::new(HwDeflateConfig::default());
    let mut oracle = HwCompressor::new(HwDeflateConfig::default());
    for page in &corpus {
        assert_eq!(
            dsa.compress_page(page),
            oracle.compress_page_reference(page),
            "both paths must compress alike"
        );
    }
    assert_eq!(dsa.stats(), oracle.stats(), "both paths must count alike");
    HotPath {
        name: "hw_compress_page",
        before_impl: "byte-compare tokenizer, fixed codes built per page, per-byte bit writer",
        after_impl: "one pass per line: branch-free hash/port pass, then a u64-compare match walk writing fixed-code bits (no token Vec)",
        work_units: format!("Deflate DSA model over {pages} seeded 4 KB HTML pages"),
        timing: paired_ns_per_op(
            spec,
            || {
                for page in &corpus {
                    std::hint::black_box(oracle.compress_page_reference(page));
                }
            },
            || {
                for page in &corpus {
                    std::hint::black_box(dsa.compress_page(page));
                }
            },
        ),
        speed_claim: true,
    }
}

fn bench_ghash_fold(spec: BenchSpec, pages: usize) -> HotPath {
    // One op = GHASH over each of `pages` seeded 4 KB pages, continuing
    // one running hash, under the same key on both sides: one multiply
    // and reduction per block vs the aggregated fold.
    let mut rng = DetRng::new(0x6F01D);
    let mut h = [0u8; 16];
    rng.fill_bytes(&mut h);
    let corpus: Vec<Vec<u8>> = (0..pages)
        .map(|_| {
            let mut page = vec![0u8; 4096];
            rng.fill_bytes(&mut page);
            page
        })
        .collect();
    let ghash = Ghash::new(Gf128::from_bytes(&h));
    let (mut per_block, mut folded) = (ghash.clone(), ghash);
    let by_block = |g: &mut Ghash| {
        for page in &corpus {
            for block in page.as_chunks::<16>().0 {
                g.update_block(block);
            }
        }
        g.finalize()
    };
    let by_group = |g: &mut Ghash| {
        for page in &corpus {
            g.update(page);
        }
        g.finalize()
    };
    assert_eq!(
        by_block(&mut per_block),
        by_group(&mut folded),
        "both folds must hash alike"
    );
    HotPath {
        name: "ghash_fold_page",
        before_impl: "Ghash::update_block per 16 B block (one multiply and reduction each)",
        after_impl: on_backend(
            "Ghash::update on PCLMULQDQ: 4 blocks times H^4..H^1, one reduction per 64 B",
            "Ghash::update (portable: one 8-bit-table multiply per block)",
        ),
        work_units: format!("GHASH over {pages} seeded 4 KB pages"),
        timing: paired_ns_per_op(
            spec,
            || {
                std::hint::black_box(by_block(&mut per_block));
            },
            || {
                std::hint::black_box(by_group(&mut folded));
            },
        ),
        speed_claim: true,
    }
}

fn bench_llc_probe(spec: BenchSpec, probes: usize) -> HotPath {
    // The `event_fallback` LLC (2 MB, 16 ways) filled by seeded writes,
    // with flushes leaving invalid ways that keep a stale `last_use`;
    // one op probes a seeded stream of lines, almost all misses, by a
    // class with every way open.
    let mut llc = Llc::new(CacheConfig::mb(2, 16));
    let mut rng = DetRng::new(0x11C);
    let mut line = || PhysAddr(rng.gen_range(0..1 << 24) << 6);
    for i in 0..1u32 << 16 {
        llc.write_line(line(), 0, [i as u8; 64]);
        if i % 8 == 0 {
            llc.flush_line(line());
        }
    }
    let stream: Vec<PhysAddr> = (0..probes).map(|_| line()).collect();
    let run = |probe: fn(&Llc, PhysAddr, usize) -> Result<usize, usize>| {
        let (llc, stream) = (&llc, &stream);
        move || {
            let ways = stream.iter().fold(0, |acc, &a| {
                acc ^ probe(llc, std::hint::black_box(a), 0).unwrap_or_else(|w| w)
            });
            std::hint::black_box(ways);
        }
    };
    assert!(
        stream
            .iter()
            .all(|&a| llc.probe_line(a, 0) == llc.probe_line_two_pass(a, 0)),
        "both probes must pick alike"
    );
    HotPath {
        name: "llc_miss_probe",
        before_impl: "tag scan, then a second pass over the set for the LRU victim",
        after_impl: "one scan: tag compare plus a running min of (valid << 63 | last_use)",
        work_units: format!("{probes} seeded line probes of a filled 2 MB 16-way LLC"),
        timing: paired_ns_per_op(spec, run(Llc::probe_line_two_pass), run(Llc::probe_line)),
        speed_claim: true,
    }
}

fn bench_xlat_lookup(spec: BenchSpec, lookups: usize) -> HotPath {
    // The device's Translation Table (12 K cuckoo slots, 8-entry stash)
    // holding 512 registered pages; one op looks up a seeded stream of
    // pages none of which is mapped, the common case of a CAS.
    let mut table = TranslationTable::new(12288, 8);
    let mut rng = DetRng::new(0x7AB1E);
    for offload in 0..512 {
        let page = rng.gen_range(0..1 << 20);
        table
            .insert(
                page,
                Mapping::Source {
                    offload,
                    msg_offset: 0,
                },
            )
            .expect("a quarter-full table places every page");
    }
    let stream: Vec<u64> = (0..lookups)
        .map(|_| rng.gen_range(1 << 20..1 << 21))
        .collect();
    assert!(
        stream
            .iter()
            .all(|&p| table.peek_unfiltered(p).is_none() && table.peek(p).is_none()),
        "the stream must miss, filtered or not"
    );
    let unfiltered = || {
        let hits = stream
            .iter()
            .filter(|&&p| table.peek_unfiltered(std::hint::black_box(p)).is_some())
            .count();
        std::hint::black_box(hits);
    };
    // `lookup` counts each lookup, so it runs on a copy of the table.
    let mut counted = table.clone();
    let filtered = || {
        let hits = stream
            .iter()
            .filter(|&&p| counted.lookup(std::hint::black_box(p)).is_some())
            .count();
        std::hint::black_box(hits);
    };
    HotPath {
        name: "xlat_unmapped_lookup",
        before_impl: "CAM stash scan, then three cuckoo hashes and slot loads",
        after_impl: "per-bucket live counts answer an empty bucket before the stash and slots",
        work_units: format!("{lookups} lookups of unmapped pages, 512 pages mapped"),
        timing: paired_ns_per_op(spec, unfiltered, filtered),
        speed_claim: true,
    }
}

/// Why a rendered report fails `check`: a bad document, a missing row
/// or quartile, or a speed claim whose lower-quartile per-pair ratio is
/// not above 1.0.
fn report_problems(doc: &str) -> Vec<String> {
    if !(json_parses(doc) && doc.contains("\"bench_hotpaths/v2\"")) {
        return vec!["not a bench_hotpaths/v2 report".into()];
    }
    let number = |name: &str, key| row_field(doc, name, key)?.parse::<f64>().ok();
    let problem = |name: &str| {
        let claim = row_field(doc, name, "speed_claim") != Some("false");
        match (number(name, "speedup_q1"), number(name, "speedup_q3")) {
            (Some(q1), Some(q3)) if claim && q1 <= 1.0 => Some(format!(
                "{name}: speedups {q1:.3}..{q3:.3} do not lie above 1.0"
            )),
            (Some(_), Some(_)) => None,
            _ => Some(format!("{name}: row or speedup quartiles missing")),
        }
    };
    HOT_PATHS.iter().filter_map(|name| problem(name)).collect()
}

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "full".into());
    let out_path = bench::repo_root().join("BENCH_hotpaths.json");

    if mode == "check" {
        let problems = report_problems(&std::fs::read_to_string(&out_path).unwrap_or_default());
        for p in &problems {
            eprintln!("[err] {}: {p}", out_path.display());
        }
        if !problems.is_empty() {
            return ExitCode::FAILURE;
        }
        println!(
            "[ok] {}: every row, every speed claim clears 1.0",
            out_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let (spec, blocks, pages, lz_len, sweep_scale, offloads, hw_pages, probes, out_path) =
        match mode.as_str() {
            "smoke" => (
                BenchSpec::smoke(),
                256,
                4,
                1024,
                (16, 60),
                (1, 16),
                4,
                256,
                bench::repo_root()
                    .join("target")
                    .join("BENCH_hotpaths.smoke.json"),
            ),
            "full" => (
                BenchSpec::full(),
                256,
                32,
                8192,
                (32, 150),
                (16, 256),
                256,
                4096,
                out_path,
            ),
            other => {
                eprintln!("usage: bench_hotpaths [smoke|full|check] (got {other:?})");
                return ExitCode::FAILURE;
            }
        };

    println!("hot-path benchmarks ({mode} mode)");
    let paths = vec![
        bench_gf128(spec, blocks),
        bench_compcpy(spec, pages),
        bench_lz77(spec, lz_len),
        bench_backend_sweep(spec, sweep_scale.0, sweep_scale.1),
        bench_whole_sim_parallel(spec, sweep_scale.0, sweep_scale.1),
        bench_aes(spec, blocks),
        bench_ooo_gcm(spec, offloads.0),
        bench_gcm_seal(spec, offloads.0),
        bench_dimm_cells(spec, offloads.1),
        bench_hw_compress(spec, hw_pages),
        bench_ghash_fold(spec, offloads.0),
        bench_llc_probe(spec, probes),
        bench_xlat_lookup(spec, probes),
    ];
    assert_eq!(
        paths.iter().map(|p| p.name).collect::<Vec<_>>(),
        HOT_PATHS,
        "HOT_PATHS must list every measured row"
    );
    let mut rows = Vec::new();
    for p in &paths {
        rows.push(vec![
            p.name.to_string(),
            format!("{:.0}", p.timing.before_ns_per_op),
            format!("{:.0}", p.timing.after_ns_per_op),
            bench::ratio(p.timing.speedup),
            format!(
                "{}..{}",
                bench::ratio(p.timing.speedup_q1),
                bench::ratio(p.timing.speedup_q3)
            ),
        ]);
    }
    print!(
        "{}",
        bench::table(
            "hot paths (median ns/op, per-pair speedup and its interquartile range)",
            &["path", "before", "after", "speedup", "pair IQR"],
            &rows,
        )
    );

    let doc = report(&mode, spec, &paths).render();
    assert!(json_parses(&doc), "emitted report must be valid JSON");
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).expect("create report dir");
    }
    std::fs::write(&out_path, &doc).expect("write BENCH_hotpaths.json");
    println!("\n[report written to {}]", out_path.display());
    // Smoke ratios mean nothing; a full report must pass `check` as is.
    let problems = if mode == "full" {
        report_problems(&doc)
    } else {
        Vec::new()
    };
    for p in &problems {
        eprintln!("[err] {p}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::harness::Timing;

    /// A report with one row per hot path, each claiming a speedup with
    /// pair ratios `q1..q3`, except `overrides` `(row, q1, q3, claim)`.
    fn doc(overrides: &[(&str, f64, f64, bool)]) -> String {
        let paths: Vec<HotPath> = HOT_PATHS
            .iter()
            .map(|&name| {
                let (q1, q3, speed_claim) = overrides
                    .iter()
                    .find(|o| o.0 == name)
                    .map_or((1.2, 1.5, true), |o| (o.1, o.2, o.3));
                HotPath {
                    name,
                    before_impl: "before",
                    after_impl: "after",
                    work_units: "1 op".into(),
                    timing: Timing {
                        before_ns_per_op: 2.0,
                        after_ns_per_op: 1.0,
                        speedup: (q1 + q3) / 2.0,
                        speedup_q1: q1,
                        speedup_q3: q3,
                    },
                    speed_claim,
                }
            })
            .collect();
        report("full", BenchSpec::full(), &paths).render()
    }

    #[test]
    fn a_speed_claim_needs_its_whole_range_above_one() {
        assert!(report_problems(&doc(&[])).is_empty());
        let below = report_problems(&doc(&[("aes_block", 0.80, 0.90, true)]));
        assert_eq!(below.len(), 1, "{below:?}");
        assert!(below[0].starts_with("aes_block:"), "{below:?}");
        assert_eq!(
            report_problems(&doc(&[("gf128_mul", 0.95, 1.05, true)])).len(),
            1
        );
        let exempt = doc(&[("dram_backend_whole_sim", 0.80, 0.90, false)]);
        assert!(report_problems(&exempt).is_empty());
        assert_eq!(report_problems("{}").len(), 1);
    }
}
