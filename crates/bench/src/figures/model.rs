//! The component-model artifacts, run without a memory system: the
//! §IV-C translation-table ablation, the §V-B Deflate window ablation
//! and the §VII-D area and power report.

use smartdimm::areapower::{self, AreaPowerReport};
use smartdimm::xlat::{Mapping, TranslationTable, XlatStats};
use smartdimm::SmartDimmConfig;
use ulp_compress::corpus::Kind;
use ulp_compress::hwmodel::{HwCompressor, HwDeflateConfig};
use ulp_compress::{deflate, inflate};

use super::{all, csv, Run, Verdict};

/// Translation-table slots: the paper's 3× over-provisioning of the
/// 4096 entries a full Scratchpad needs.
const SLOTS: usize = 12288;

/// Fills a 12 288-slot, 3-ary table with an 8-entry stash with each
/// number of scattered page numbers; rows are `(entries, stats)`.
pub fn cuckoo_sweep(entries: &[usize]) -> Vec<(usize, XlatStats)> {
    let fill = |&n: &usize| {
        let mut table = TranslationTable::new(SLOTS, 8);
        for page in 0..n as u64 {
            let page = page.wrapping_mul(0x9E37_79B9).rotate_left(17);
            let _ = table.insert(
                page,
                Mapping::Source {
                    offload: page,
                    msg_offset: 0,
                },
            );
        }
        (n, table.stats())
    };
    entries.iter().map(fill).collect()
}

/// Displacements per insert.
fn displacements(s: &XlatStats) -> f64 {
    s.displacements as f64 / s.inserts.max(1) as f64
}

/// §IV-C: displacement, stash and failure statistics at 10–95 %
/// occupancy.
pub fn ablate_cuckoo() -> Run {
    let pcts = [10, 20, 33, 50, 70, 85, 95];
    let rows = cuckoo_sweep(&pcts.map(|pct| SLOTS * pct / 100));
    let line = |(pct, (_, s)): (&usize, &(usize, XlatStats))| {
        let first = s.first_try as f64 / s.inserts.max(1) as f64;
        let (inserts, disp, spills) = (s.inserts, displacements(s), s.stash_spills);
        format!(
            "{pct},{inserts},{disp:.6},{first:.6},{spills},{}",
            s.failures
        )
    };
    Run::csv(
        "§IV-C — 3-ary cuckoo translation table vs occupancy (12288 slots, 8-entry CAM)",
        "ablate_cuckoo.csv",
        "occupancy_pct,inserts,displacements_per_insert,first_try_fraction,stash_spills,failures",
        pcts.iter().zip(&rows).map(line).collect(),
        rows,
    )
}

/// §IV-C: at the paper's 3× over-provisioning (4096 entries in 12 288
/// slots) and below, inserts never fail and under 5 % of them displace.
pub fn cuckoo_sound_at_3x(rows: &[(usize, XlatStats)]) -> Verdict {
    let sized = rows.iter().filter(|r| 3 * r.0 <= SLOTS);
    all(sized, |(_, s)| s.failures == 0 && displacements(s) < 0.05)
}

/// The §V-B sweep: `(window, compressed/uncompressed bytes, candidate
/// memory bits)` per window, and software deflate's ratio as the bound.
#[derive(Debug, Clone)]
pub struct Window {
    pub rows: Vec<(usize, f64, usize)>,
    pub software_ratio: f64,
}

/// §V-B: window size vs compression ratio and candidate memory on eight
/// 4 KB pages of each synthetic corpus, software deflate as the bound.
pub fn ablate_window() -> Run {
    let pages: Vec<Vec<u8>> = [Kind::Text, Kind::Html, Kind::Json]
        .iter()
        .flat_map(|&k| (0..8u64).map(move |s| k.generate(4096, s)))
        .collect();
    let in_bytes = pages.iter().map(Vec::len).sum::<usize>() as f64;
    let ratio = |compress: &mut dyn FnMut(&[u8]) -> Vec<u8>| {
        pages.iter().map(|p| compress(p).len()).sum::<usize>() as f64 / in_bytes
    };
    let rows: Vec<(usize, f64, usize)> = [2usize, 4, 8, 16, 32]
        .iter()
        .map(|&window| {
            let cfg = HwDeflateConfig { window };
            let mut hw = HwCompressor::new(cfg);
            let mut page_stream = |page: &[u8]| {
                let stream = hw.compress_page(page).data;
                assert_eq!(inflate::decompress(&stream).unwrap(), page);
                stream
            };
            (window, ratio(&mut page_stream), cfg.candidate_memory_bits())
        })
        .collect();
    let software_ratio = ratio(&mut deflate::compress);
    let lines = rows.iter().map(|(w, r, bits)| format!("{w},{r:.6},{bits}"));
    let mut run = Run::csv(
        "§V-B — Deflate DSA window size vs compression ratio and memory cost",
        "ablate_window.csv",
        "window,compression_ratio,candidate_memory_bits",
        lines.collect(),
        (),
    );
    run.table += &format!("software deflate (258-byte matches): {software_ratio:.4}\n");
    run.rows = Box::new(Window {
        rows,
        software_ratio,
    });
    run
}

/// §V-B: each wider window compresses no worse and needs more candidate
/// memory, and software deflate stays ahead of every window.
pub fn window_trade_off(w: &Window) -> Verdict {
    all(w.rows.windows(2), |p| p[1].1 <= p[0].1 && p[1].2 > p[0].2)?;
    all(&w.rows, |(_, ratio, _)| *ratio > w.software_ratio)
}

/// §VII-D: the buffer device's component area and power.
pub fn micro_areapower() -> Run {
    let report = areapower::estimate(&SmartDimmConfig::default());
    let lines = report.components.iter().map(|c| {
        let (name, sram, logic, watts) = (c.name, c.sram_bits, c.logic_units, c.dynamic_watts);
        format!("{name},{sram},{logic},{watts:.3}")
    });
    Run {
        table: report.render(),
        files: vec![(
            "micro_areapower.csv",
            csv(
                "component,sram_bits,logic_units,dynamic_watts",
                &lines.collect::<Vec<_>>(),
            ),
        )],
        rows: Box::new(report),
    }
}

/// §VII-D: 4.78 W of dynamic power at full channel rate and a 21.8 %
/// TLS share of the FPGA, to the paper's printed precision.
pub fn matches_paper_power(r: &AreaPowerReport) -> Verdict {
    all([r], |r| {
        (r.full_dynamic_watts() - 4.78).abs() < 0.005
            && (r.tls_fpga_fraction() - 0.218).abs() < 0.0005
    })
}
