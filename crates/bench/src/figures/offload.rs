//! The buffer-device artifacts, driven through `CompCpyHost`: Fig. 9
//! (the CAS trace), Fig. 10 (Scratchpad occupancy), the §IV-D slack
//! and the Scratchpad-size and ordered-copy ablations.

use cache::CacheConfig;
use dram::PhysAddr;
use smartdimm::{CompCpyHost, HostConfig, OffloadHandle, OffloadOp};

use super::{all, csv, csv_table, Run, Verdict};

/// Stores `msg` at `src` from core `class`, then encrypts it with
/// CompCpy into `dst` under a key and an IV of repeated bytes.
fn encrypt(
    host: &mut CompCpyHost,
    (dst, src, class): (u64, u64, usize),
    msg: &[u8],
    (key, iv): (u8, u8),
    ordered: bool,
) -> OffloadHandle {
    host.mem_mut().store(PhysAddr(src), msg, class);
    let (key, iv) = ([key; 16], [iv; 12]);
    let op = OffloadOp::TlsEncrypt { key, iv };
    let handle = host.comp_cpy(PhysAddr(dst), PhysAddr(src), msg.len(), op, ordered, class);
    handle.expect("offload accepted")
}

/// Fig. 9's trace, summarized for its shape.
#[derive(Debug, Clone)]
pub struct CasTrace {
    pub offloads: u64,
    pub rd: usize,
    pub wr: usize,
    /// Maximal runs of line-consecutive rdCAS addresses.
    pub rd_runs: u64,
}

/// Fig. 9: four cores, buffers 32 MB apart (§VII-A), four rounds of 8 KB
/// encryptions on a 256 KB LLC without `use_buffer`, so destination
/// writebacks (wrCAS) lag their offload's source reads (rdCAS).
pub fn fig09() -> Run {
    let mut cfg = HostConfig::default();
    cfg.mem.llc = Some(CacheConfig::kb(256, 16));
    cfg.mem.dram.trace = true;
    let mut host = CompCpyHost::new(cfg);
    for round in 0..4u64 {
        for core in 0..4u64 {
            let src = 0x0100_0000 + core * (32 << 20) + round * 0x4000;
            let msg = ulp_compress::corpus::text(8192, core * 10 + round);
            let iv = (core + round) as u8;
            encrypt(
                &mut host,
                (src + 0x2000, src, core as usize),
                &msg,
                (3, iv),
                false,
            );
        }
    }
    let records = host.mem().dram().trace().records();
    let (rd, wr): (Vec<_>, Vec<_>) = records.iter().partition(|r| r.kind == "rdCAS");
    let breaks = rd.windows(2).filter(|w| w[1].value != w[0].value + 64);
    let t = CasTrace {
        offloads: 16,
        rd: rd.len(),
        wr: wr.iter().filter(|r| r.kind == "wrCAS").count(),
        rd_runs: 1 + breaks.count() as u64,
    };
    let lines: Vec<String> = (records.iter())
        .map(|r| format!("{},{},{:#x},{}", r.at.raw(), r.kind, r.value, r.tag))
        .collect();
    let file = csv("cycle,kind,phys_addr,core", &lines);
    Run {
        table: format!("\n=== Fig. 9 — rdCAS/wrCAS trace of 4 cores ===\n{t:?}\n"),
        files: vec![("fig09_cas_trace.csv", file)],
        rows: Box::new(t),
    }
}

/// Fig. 9 (c): addresses inside one CompCpy increase monotonically, so
/// the rdCAS stream splits into about one run per offload; (b) wrCAS
/// commands recycle earlier destinations.
pub fn reads_ascend(t: &CasTrace) -> Verdict {
    all([t], |t| t.rd_runs <= t.offloads + 1 && t.wr > 0)
}

/// One LLC provisioning of Fig. 10: the mean occupied bytes over the
/// last 30 % of samples.
#[derive(Debug, Clone)]
pub struct OccupancyRow {
    pub llc: String,
    pub equilibrium: f64,
}

/// Fig. 10: four cores stream 200 rounds of 4 KB encryptions without
/// `use_buffer` on a 4 MB, 16-way LLC that CAT restricts to 16, 8 and
/// 2 ways; only natural writebacks recycle Scratchpad pages. The CSV
/// keeps every eighth occupancy sample.
pub fn fig10() -> Run {
    let (mut rows, mut printed, mut lines) = (Vec::new(), Vec::new(), Vec::new());
    for ways in [16usize, 8, 2] {
        let mut cfg = HostConfig::default();
        cfg.mem.llc = Some(CacheConfig::mb(4, 16));
        let mut host = CompCpyHost::new(cfg);
        host.mem_mut().llc_mut().set_ways(0, ways);
        for round in 0..200u64 {
            for core in 0..4u64 {
                let src = 0x0100_0000 + (core * 200 + round) * 0x3000;
                let msg = ulp_compress::corpus::text(4096, core * 1000 + round);
                encrypt(
                    &mut host,
                    (src + 0x1000, src, 0),
                    &msg,
                    (9, round as u8),
                    false,
                );
            }
        }
        let llc = format!("{:.2}MB", 4.0 * ways as f64 / 16.0);
        let series = host.device().occupancy_series();
        let samples: Vec<(u64, f64)> = series.iter().map(|(t, v)| (t.raw(), v)).collect();
        lines.extend(
            samples
                .iter()
                .step_by(8)
                .map(|(t, v)| format!("{llc},{t},{v}")),
        );
        let peak = samples.iter().map(|&(_, v)| v).fold(0.0, f64::max);
        let equilibrium = series.tail_mean(0.3);
        printed.push(format!("{llc},{equilibrium:.0},{peak:.0}"));
        rows.push(OccupancyRow { llc, equilibrium });
    }
    Run {
        table: csv_table(
            "Fig. 10 — Scratchpad occupied bytes vs LLC provisioning (CAT)",
            "effective LLC,equilibrium,peak",
            &printed,
        ),
        files: vec![(
            "fig10_scratchpad.csv",
            csv("llc,cycle,occupied_bytes", &lines),
        )],
        rows: Box::new(rows),
    }
}

/// Fig. 10: a more contended LLC writes destinations back sooner, so
/// the equilibrium falls with the LLC (5 % tolerance).
pub fn occupancy_tracks_llc(rows: &[OccupancyRow]) -> Verdict {
    all(rows.windows(2), |w| {
        w[1].equilibrium <= w[0].equilibrium * 1.05
    })
}

/// The §IV-D slack histogram over one run, in DDR command cycles
/// (1600 = 1 µs).
#[derive(Debug, Clone)]
pub struct Slack {
    pub lines: u64,
    pub min_cycles: u64,
    pub p50_cycles: u64,
    pub mean_cycles: f64,
}

/// Runs `offloads` 4 KB encryptions on the default 16 MB LLC, each
/// consumed with `use_buffer`. That call flushes the destination right
/// after the copy, so the flush, not LLC pressure, times every wrCAS:
/// the LLC size does not move the histogram.
pub fn slack(offloads: u64) -> Slack {
    let mut host = CompCpyHost::new(HostConfig::default());
    for i in 0..offloads {
        let (src, dst) = (host.alloc_pages(1).0, host.alloc_pages(1).0);
        let msg = ulp_compress::corpus::text(4096, i);
        let handle = encrypt(&mut host, (dst, src, 0), &msg, (1, i as u8), false);
        let _ = host.use_buffer(&handle);
    }
    let hist = host.device().slack_histogram();
    Slack {
        lines: hist.count(),
        min_cycles: hist.min().unwrap_or(0),
        p50_cycles: hist.quantile(0.5).unwrap_or(0),
        mean_cycles: hist.mean(),
    }
}

/// §IV-D: the budget between the rdCAS feeding a source line to the DSA
/// and the wrCAS recycling its destination, over 100 offloads.
pub fn micro_slack() -> Run {
    let s = slack(100);
    let line = format!(
        "16MB LLC,{},{},{},{:.1}",
        s.lines, s.min_cycles, s.p50_cycles, s.mean_cycles
    );
    Run::csv(
        "§IV-D — rdCAS(sbuf) → wrCAS(dbuf) slack (DSA compute budget, 1600 cycles = 1 µs)",
        "micro_slack.csv",
        "config,lines,min_cycles,p50_cycles,mean_cycles",
        vec![line],
        s,
    )
}

/// §IV-D: the slack "exceeds 1 µs" (1600 DDR command cycles), so the DSA
/// needs no completion notification.
pub fn slack_exceeds_1us(s: &Slack) -> Verdict {
    all([s], |s| s.lines > 0 && s.min_cycles > 1600)
}

/// Streams `offloads` 4 KB encryptions without `use_buffer` through an
/// 8 MB LLC (late writebacks, the worst case for Scratchpad pressure)
/// at each Scratchpad size, and returns `(pages, Force-Recycles,
/// self-recycled lines)`.
pub fn scratchpad_sweep(sizes: &[usize], offloads: u64) -> Vec<(usize, u64, u64)> {
    let stream = |&pages: &usize| {
        let mut cfg = HostConfig::default();
        cfg.dimm.scratchpad_pages = pages;
        cfg.mem.llc = Some(CacheConfig::mb(8, 16));
        let mut host = CompCpyHost::new(cfg);
        for i in 0..offloads {
            let src = 0x0100_0000 + i * 0x3000;
            let msg = ulp_compress::corpus::text(4096, i);
            encrypt(&mut host, (src + 0x1000, src, 0), &msg, (5, i as u8), false);
        }
        (
            pages,
            host.force_recycle_count(),
            host.device_stats().self_recycles,
        )
    };
    sizes.iter().map(stream).collect()
}

/// §VII-A: Force-Recycle calls vs Scratchpad size over 600 offloads.
pub fn ablate_scratchpad() -> Run {
    let rows = scratchpad_sweep(&[8, 32, 128, 512, 2048], 600);
    let lines = rows
        .iter()
        .map(|(p, force, lines)| format!("{p},{force},{lines}"));
    Run::csv(
        "§VII-A — Force-Recycle calls vs Scratchpad size (600 offloads, late writebacks)",
        "ablate_scratchpad.csv",
        "pages,force_recycles,self_recycled_lines",
        lines.collect(),
        rows,
    )
}

/// §VII-A: sized at the paper's 2048 pages the Scratchpad never needs a
/// Force-Recycle; any smaller size in the sweep does.
pub fn only_below_2048(rows: &[(usize, u64, u64)]) -> Verdict {
    all(rows, |(pages, force, _)| (*force > 0) == (*pages < 2048))
}

/// Mean simulated ns per offload over `n` consumed `size`-byte
/// encryptions.
fn offload_ns(ordered: bool, size: usize, n: u64) -> f64 {
    let mut host = CompCpyHost::new(HostConfig::default());
    let t0 = host.mem().now();
    for i in 0..n {
        let pages = size.div_ceil(4096);
        let (src, dst) = (host.alloc_pages(pages).0, host.alloc_pages(pages).0);
        let msg = ulp_compress::corpus::text(size, i);
        let handle = encrypt(&mut host, (dst, src, 0), &msg, (3, i as u8), ordered);
        let _ = host.use_buffer(&handle);
    }
    (host.mem().now() - t0) as f64 / n as f64 / 1.6
}

/// Algorithm 2: fenced 64 B segments (what the sequential Deflate DSA
/// needs) vs an unordered copy, at 4/16/64 KB.
pub fn ablate_ordered() -> Run {
    let sizes = [4096usize, 16384, 65536].map(|size| (size, (40 * 4096 / size).max(8) as u64));
    let rows = sizes.map(|(size, n)| (size, offload_ns(false, size, n), offload_ns(true, size, n)));
    let lines = rows
        .iter()
        .map(|(size, u, o)| format!("{size},{u:.1},{o:.1},{:.4}", o / u - 1.0));
    Run::csv(
        "Algorithm 2 — ordered (fenced) vs unordered CompCpy latency",
        "ablate_ordered.csv",
        "size_bytes,unordered_ns,ordered_ns,overhead",
        lines.collect(),
        rows.to_vec(),
    )
}

/// Observation 4: the fences are a small tax (under 10 %) at every
/// size; rows are `(size, unordered ns, ordered ns)`.
pub fn fence_adds_little(rows: &[(usize, f64, f64)]) -> Verdict {
    all(rows, |(_, unordered, ordered)| {
        ordered / unordered - 1.0 < 0.10
    })
}
