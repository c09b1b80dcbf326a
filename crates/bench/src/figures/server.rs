//! The whole-server artifacts: Fig. 3 (HTTPS memory amplification),
//! Fig. 11 (TLS offload), Fig. 12 (compression offload) and Table I
//! (co-run interference).

use cache::CacheConfig;
use platforms::corun::{run_corun, CorunReport};
use platforms::PlatformKind::{self, Cpu, QuickAssist, SmartDimm, SmartNic};
use platforms::{run_server, ServerMetrics, UlpKind, WorkloadConfig};

use super::{all, csv_table, Run, Verdict};
use crate::{ratio, Json};

/// One platform at one message size; the `*_norm` fields are over the
/// CPU run of the same size.
#[derive(Debug, Clone)]
pub struct ServerRow {
    pub message: usize,
    pub platform: PlatformKind,
    pub rps: f64,
    pub rps_norm: f64,
    /// CPU time per request.
    pub cpu_norm: f64,
    /// DRAM bytes per request.
    pub membw_norm: f64,
    pub dram_bytes_per_req: f64,
    pub wire_bytes_per_req: f64,
}

/// Runs `base` on every platform at every message size. `platforms`
/// starts with [`PlatformKind::Cpu`], the normalization baseline.
/// `base.requests` is the count at 4 KB; larger messages scale it down
/// to move similar total bytes, to no fewer than 300 requests.
pub fn sweep(base: &WorkloadConfig, sizes: &[usize], platforms: &[PlatformKind]) -> Vec<ServerRow> {
    assert_eq!(platforms[0], Cpu, "the CPU run normalizes");
    let mut rows = Vec::new();
    for &message in sizes {
        let cfg = WorkloadConfig {
            message_bytes: message,
            requests: (base.requests * 4096 / message).max(300),
            ..base.clone()
        };
        let metrics: Vec<_> = platforms.iter().map(|&k| run_server(k, &cfg)).collect();
        for (&platform, m) in platforms.iter().zip(&metrics) {
            rows.push(ServerRow {
                message,
                platform,
                rps: m.rps,
                rps_norm: m.rps / metrics[0].rps,
                cpu_norm: m.cpu_ns_per_req / metrics[0].cpu_ns_per_req,
                membw_norm: m.dram_bytes_per_req / metrics[0].dram_bytes_per_req,
                dram_bytes_per_req: m.dram_bytes_per_req,
                wire_bytes_per_req: m.wire_bytes_per_req,
            });
        }
    }
    rows
}

/// Figs. 11 and 12 at full size: 1024 connections on a contended 2 MB
/// LLC (§VI), printed with `last` as the final column, written as JSON.
fn server_run(
    title: &str,
    file: &'static str,
    base: WorkloadConfig,
    (sizes, platforms): (&[usize], &[PlatformKind]),
    last: (&str, fn(&ServerRow) -> f64),
) -> Run {
    let base = WorkloadConfig {
        connections: 1024,
        llc: Some(CacheConfig::mb(2, 16)),
        ..base
    };
    let rows = sweep(&base, sizes, platforms);
    let lines: Vec<String> = (rows.iter())
        .map(|r| {
            let norms = [r.rps_norm, r.cpu_norm, r.membw_norm].map(ratio).join(",");
            let (kb, rps, last) = (r.message / 1024, r.rps, (last.1)(r));
            format!("{kb}KB,{:?},{rps:.0},{norms},{last:.0}", r.platform)
        })
        .collect();
    let header = format!(
        "msg,platform,RPS,RPS/cpu,CPU/req norm,DRAM/req norm,{}",
        last.0
    );
    let json = Json::Arr(
        (rows.iter())
            .map(|r| {
                Json::Obj(vec![
                    ("message".into(), r.message.into()),
                    ("platform".into(), format!("{:?}", r.platform).into()),
                    ("rps".into(), r.rps.into()),
                    ("rps_norm".into(), r.rps_norm.into()),
                    ("cpu_norm".into(), r.cpu_norm.into()),
                    ("membw_norm".into(), r.membw_norm.into()),
                ])
            })
            .collect(),
    );
    Run {
        table: csv_table(title, &header, &lines),
        files: vec![(file, json.render())],
        rows: Box::new(rows),
    }
}

/// Fig. 11: Nginx over HTTPS at 4/16/64 KB on all four placements.
pub fn fig11() -> Run {
    let base = WorkloadConfig {
        ulp: UlpKind::Tls,
        requests: 2000,
        ..WorkloadConfig::default()
    };
    let platforms = [Cpu, SmartNic, QuickAssist, SmartDimm];
    server_run(
        "Fig. 11 — HTTPS (TLS) offload, normalized to the CPU configuration",
        "fig11_tls_offload.json",
        base,
        (&[4096, 16384, 65536], &platforms),
        ("DRAM B/req", |r| r.dram_bytes_per_req),
    )
}

/// Fig. 12: Nginx serving deflated HTML at 4/16 KB (the SmartNIC cannot
/// take a size-changing ULP).
pub fn fig12() -> Run {
    let base = WorkloadConfig {
        ulp: UlpKind::Compression,
        requests: 1500,
        ..WorkloadConfig::default()
    };
    server_run(
        "Fig. 12 — compression offload, normalized to the CPU configuration",
        "fig12_compression_offload.json",
        base,
        (&[4096, 16384], &[Cpu, QuickAssist, SmartDimm]),
        ("wire B/req", |r| r.wire_bytes_per_req),
    )
}

fn of(rows: &[ServerRow], platform: PlatformKind) -> impl Iterator<Item = &ServerRow> {
    rows.iter().filter(move |r| r.platform == platform)
}

/// §I, TLS side of "21.0 % to 10.28× higher RPS".
pub fn smartdimm_wins_tls(rows: &[ServerRow]) -> Verdict {
    all(of(rows, SmartDimm), |r| r.rps_norm > 1.1)
}

/// §I, TLS side of "36.3 % to 88.9 % lower memory bandwidth".
pub fn smartdimm_cuts_tls_dram(rows: &[ServerRow]) -> Verdict {
    all(of(rows, SmartDimm), |r| 1.0 - r.membw_norm > 0.2)
}

/// Fig. 11's crossovers: the SmartNIC's per-record setup loses at 4 KB
/// and it pulls level or ahead from 16 KB; QuickAssist's synchronous
/// per-call cost (Obs. 2) never wins at 4 KB.
pub fn tls_crossovers(rows: &[ServerRow]) -> Verdict {
    let wins = |r: &&ServerRow| r.rps_norm >= 1.0;
    all(of(rows, SmartNic), |r| wins(r) == (r.message >= 16384))?;
    all(of(rows, QuickAssist), |r| r.message > 4096 || !wins(r))
}

/// §I, compression side: software deflate is costly, so offloading it
/// pays over 3×.
pub fn smartdimm_wins_compression(rows: &[ServerRow]) -> Verdict {
    all(of(rows, SmartDimm), |r| r.rps_norm > 3.0)
}

/// SmartDIMM's `(tls, compression)` rows at every size both sweeps ran.
fn paired<'a>(tls: &'a [ServerRow], comp: &'a [ServerRow]) -> Vec<[&'a ServerRow; 2]> {
    let at = |size| of(comp, SmartDimm).find(move |c| c.message == size);
    of(tls, SmartDimm)
        .filter_map(|t| Some([t, at(t.message)?]))
        .collect()
}

/// §VI: compression gains dwarf TLS gains (AES-NI makes software
/// crypto cheap; software deflate has no such help).
pub fn dwarfs_tls(tls: &[ServerRow], comp: &[ServerRow]) -> Verdict {
    all(paired(tls, comp), |[t, c]| c.rps_norm > 2.0 * t.rps_norm)
}

/// §I: the DRAM saving is larger for compression than for TLS.
pub fn saves_more_dram(tls: &[ServerRow], comp: &[ServerRow]) -> Verdict {
    all(paired(tls, comp), |[t, c]| c.membw_norm < t.membw_norm)
}

/// One connection count of Fig. 3: `(connections, HTTP, HTTPS)` CPU runs.
pub type MembwRow = (usize, ServerMetrics, ServerMetrics);

/// Fig. 3's sweep: CPU serving 4 KB pages over HTTP and HTTPS on a 2 MB
/// LLC, at each connection count.
pub fn membw_sweep(connections: &[usize], requests: usize) -> Vec<MembwRow> {
    let run = |connections, ulp| {
        let llc = Some(CacheConfig::mb(2, 16));
        let cfg = WorkloadConfig {
            connections,
            requests,
            ulp,
            llc,
            ..WorkloadConfig::default()
        };
        run_server(Cpu, &cfg)
    };
    let both = |&c: &usize| (c, run(c, UlpKind::None), run(c, UlpKind::Tls));
    connections.iter().map(both).collect()
}

/// Fig. 3: HTTPS DRAM traffic normalized to HTTP at 64–1024 connections
/// (NaN while HTTP's traffic fits in the LLC, under 64 B per request).
pub fn fig03() -> Run {
    let rows = membw_sweep(&[64, 128, 256, 512, 1024], 2000);
    let lines = (rows.iter()).map(|(conns, http, https)| {
        let (h, s) = (http.dram_bytes_per_req, https.dram_bytes_per_req);
        let norm = if h > 64.0 { s / h } else { f64::NAN };
        format!("{conns},{h:.1},{s:.1},{norm:.4},{:.4}", https.llc_miss_rate)
    });
    Run::csv(
        "Fig. 3 — HTTPS DRAM traffic normalized to HTTP vs concurrent connections",
        "fig03_https_membw.csv",
        "connections,http_bytes_per_req,https_bytes_per_req,normalized,https_miss_rate",
        lines.collect(),
        rows,
    )
}

/// Observation 3: at the largest connection count, HTTPS's extra buffer
/// passes turn into over 1.5× HTTP's DRAM traffic.
pub fn https_amplifies_dram(rows: &[MembwRow]) -> Verdict {
    let most = rows.iter().max_by_key(|r| r.0);
    all(most, |(_, http, https)| {
        https.dram_bytes_per_req > 1.5 * http.dram_bytes_per_req
    })
}

/// Table I: secure Nginx (64 LLC-resident connections) co-running with
/// a 16 MB mcf-like working set, per platform.
pub fn table1() -> Run {
    let llc = Some(CacheConfig::mb(2, 16));
    let cfg = WorkloadConfig {
        connections: 64,
        requests: 1000,
        llc,
        ..WorkloadConfig::default()
    };
    let corun = |&k: &PlatformKind| (k, run_corun(k, &cfg, 16 << 20, 0.5));
    let rows: Vec<(PlatformKind, CorunReport)> = [Cpu, SmartNic, QuickAssist, SmartDimm]
        .iter()
        .map(corun)
        .collect();
    let line = |(k, r): &(PlatformKind, CorunReport)| {
        format!("{k:?},{:.4},{:.4}", r.nginx_slowdown, r.mcf_slowdown)
    };
    Run::csv(
        "Table I — co-run slowdowns (Nginx TLS + mcf-like), vs solo runs",
        "table1_corun.csv",
        "platform,nginx_slowdown,mcf_slowdown",
        rows.iter().map(line).collect(),
        rows,
    )
}

/// Requires `platform` to have the strictly lowest `value` in Table I.
fn lowest(
    rows: &[(PlatformKind, CorunReport)],
    platform: PlatformKind,
    value: fn(&CorunReport) -> f64,
) -> Verdict {
    let mine = rows.iter().find(|r| r.0 == platform);
    let bound = mine.map_or(f64::NAN, |r| value(&r.1));
    let others = rows.iter().filter(|r| r.0 != platform);
    all(others, |r| value(&r.1) > bound).map_err(|e| format!("{mine:?} vs {e}"))
}

/// Table I, the central isolation claim: SmartDIMM slows Nginx least.
pub fn least_nginx_slowdown(rows: &[(PlatformKind, CorunReport)]) -> Verdict {
    lowest(rows, SmartDimm, |r| r.nginx_slowdown)
}

/// Table I, the central isolation claim: SmartDIMM slows mcf least.
pub fn least_mcf_slowdown(rows: &[(PlatformKind, CorunReport)]) -> Verdict {
    lowest(rows, SmartDimm, |r| r.mcf_slowdown)
}
