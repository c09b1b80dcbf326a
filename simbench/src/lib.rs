//! End-to-end and per-layer benchmark of the SmartDIMM simulator.
//!
//! [`measure`] runs one workload through its public harness with tracing
//! off and reports the end-to-end metrics. [`trace`] is the separate
//! traced run: it times the same harness call, replays each layer's work
//! at unit costs measured through that layer's public API, and runs
//! knock-out pairs (another DRAM backend, another settle-pool width, a
//! two-entry fan-out) to charge host time to layers from outside.
//! Simulated metrics repeat exactly for a seed; host time is the only
//! noisy quantity, so every host time is a median over repeated calls,
//! and [`measure`] corrects each one for host contention with the
//! [`reference`] kernel.

pub mod gate;
pub mod layers;
pub mod reference;
pub mod snapshot;
pub mod workload;

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use platforms::BackendKind;

use crate::reference::Reference;
use crate::workload::{Harness, Outcome, Scale, Workload};

/// End-to-end metrics, with units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("wall_s", "s"),
    ("sim_req_per_host_s", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_rps", "req/s"),
    ("sim_mem_bw_gbs", "GB/s"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("sim_goodput_gbps", "Gb/s"),
    ("ok_ratio", "fraction"),
];

/// Per-layer metrics, with units, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("host.traced_total_s", "s"),
    ("host.ulp_crypto_s", "s"),
    ("host.ns_per_gcm_line", "ns"),
    ("host.ns_per_seal_4k", "ns"),
    ("host.ns_per_key_setup", "ns"),
    ("host.ulp_compress_s", "s"),
    ("host.ns_per_hw_page", "ns"),
    ("host.dram_accurate_s", "s"),
    ("host.ns_per_cas", "ns"),
    ("host.settle_pool_s", "s"),
    ("host.unattributed_s", "s"),
    ("host.trace_overhead_s", "s"),
    ("host.cores", "count"),
    ("dram.rd_cas", "count"),
    ("dram.wr_cas", "count"),
    ("dram.row_hit_rate", "fraction"),
    ("dram.activates", "count"),
    ("dram.remote_accesses", "count"),
    ("dram.busy_cycles", "cycles"),
    ("dram.retries", "count"),
    ("cache.accesses", "count"),
    ("cache.miss_rate", "fraction"),
    ("cache.flushes", "count"),
    ("memsys.page_copies", "count"),
    ("device.dsa_lines", "count"),
    ("device.page_feeds", "count"),
    ("device.registrations", "count"),
    ("device.offloads_completed", "count"),
    ("device.self_recycles", "count"),
    ("device.force_recycles", "count"),
    ("device.bank_desyncs", "count"),
    ("xlat.lookups", "count"),
    ("xlat.failures", "count"),
    ("scratchpad.peak_bytes", "bytes"),
    ("compcpy.bounced_offloads", "count"),
    ("compcpy.rehomed_offloads", "count"),
    ("sched.migrated_offloads", "count"),
    ("sched.remote_placements", "count"),
    ("par.sync_points", "count"),
    ("par.settled_lines", "count"),
    ("eventsim.fallbacks", "count"),
    ("eventsim.reconnects", "count"),
    ("eventsim.max_pressure", "fraction"),
    ("eventsim.p999_us", "us"),
    ("eventsim.link_util", "fraction"),
    ("knockout.dram.accurate_s", "s"),
    ("knockout.dram.fast_s", "s"),
    ("knockout.dram.speedup", "x"),
    ("knockout.settle.t1_s", "s"),
    ("knockout.settle.t2_s", "s"),
    ("knockout.settle.speedup", "x"),
    ("knockout.fanout.seq_s", "s"),
    ("knockout.fanout.par2_s", "s"),
    ("knockout.fanout.speedup", "x"),
];

/// What one benchmark run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Host seconds to keep measuring.
    pub seconds: f64,
    /// Full or smoke size.
    pub scale: Scale,
}

/// The result of one run, rendered as the benchmark's last output line.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted: gate offloads plus requests issued.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// The result object on one line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The value of metric `name`, if emitted.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }
}

/// JSON has no spelling for non-finite numbers; they never occur in a
/// correct run, and `null` makes a reader reject the value rather than
/// misread it.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Median of a sample (mean of the middle pair for even counts).
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Gate offloads per run: enough to cover every channel and both staging
/// pools, small next to the measured harness calls.
fn gate_samples(scale: Scale) -> usize {
    match scale {
        Scale::Full => 48,
        Scale::Smoke => 12,
    }
}

/// Set-ups after each harness call; `setup_s` is the median of all of
/// them. Spread over the run, rather than back to back at its start,
/// they sample the same host drift as the harness calls.
const SETUPS_PER_CALL: usize = 2;

/// Harness calls of the same config must render identical snapshots.
fn same_digest(reference: &str, o: &Outcome, what: &str) -> Result<(), String> {
    if o.digest == reference {
        Ok(())
    } else {
        Err(format!(
            "determinism guard: {what} snapshot {} differs from {reference}",
            o.digest
        ))
    }
}

/// Requests issued but not completed or shed.
fn lost_requests(o: &Outcome) -> u64 {
    o.sim.issued.saturating_sub(o.sim.completed + o.sim.shed)
}

/// Input sets per run. A run with `--seed n` cycles its harness calls
/// over five configs whose seeds are hashed from `n` and reports the
/// median simulated outcome over them: the event harness's closed loop
/// ends when its slowest connection does, so one input set's tail moves
/// its goodput and p99 by 10-20%, and the median keeps one such set
/// from moving a run. Host time is the median over every call.
pub const SUB_SEEDS: u64 = 5;

/// The config seed of input set `j` of a run with seed `seed`.
pub fn sub_seed(seed: u64, j: u64) -> u64 {
    simkit::DetRng::new(seed.wrapping_mul(SUB_SEEDS).wrapping_add(j)).next_u64()
}

/// The end-to-end run: tracing off, every end-to-end metric.
///
/// `exe` is this benchmark's executable; it is started once more with
/// `--rss-probe` to measure the peak RSS of a process that runs only the
/// workload, and the snapshot digest that process reports must match
/// this one's.
pub fn measure(args: RunArgs, exe: &Path) -> Result<Report, String> {
    let w = args.workload;
    let harnesses: Vec<Harness> = (0..SUB_SEEDS)
        .map(|j| w.harness(sub_seed(args.seed, j), args.scale))
        .collect();
    for h in &harnesses {
        h.validate()?;
    }
    let gate = gate::run(&harnesses[0], args.seed, gate_samples(args.scale));
    let (peak_rss_mb, probe_digest) = rss_probe(exe, args)?;

    // Every host time is corrected by the reference passes beside it: a
    // harness call by the mean of the passes just before and after it, a
    // set-up by the pass just before it. The host's speed can switch
    // between calls, so the pairing follows it call by call.
    let mut reference = Reference::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut firsts: Vec<Outcome> = Vec::new();
    let (mut host_s, mut corrected_s, mut setups_s) = (Vec::new(), Vec::new(), Vec::new());
    let passes = w.reference_passes();
    let mut passes_s = vec![reference.mean_time(passes)];
    while start.elapsed() < budget || host_s.len() < harnesses.len() {
        let j = host_s.len() % harnesses.len();
        let o = harnesses[j].run()?;
        match firsts.get(j) {
            Some(f) => same_digest(&f.digest, &o, w.name())?,
            None => firsts.push(o.clone()),
        }
        let before = passes_s[passes_s.len() - 1];
        let after = reference.mean_time(passes);
        passes_s.push(after);
        host_s.push(o.host_s);
        corrected_s.push(reference::corrected(o.host_s, (before + after) / 2.0));
        for _ in 0..SETUPS_PER_CALL {
            setups_s.push(reference::corrected(harnesses[0].setup(), after));
        }
    }
    if probe_digest != firsts[0].digest {
        return Err(format!(
            "determinism guard: the rss-probe process rendered {probe_digest}, this one {}",
            firsts[0].digest
        ));
    }
    let pass_s = median(passes_s.clone());
    let raw_wall_s = median(host_s.clone());
    let wall_s = median(corrected_s);
    let setup_s = median(setups_s);
    let sim = |f: fn(&workload::Sim) -> f64| median(firsts.iter().map(|o| f(&o.sim)).collect());
    let attempted = gate.attempted + firsts.iter().map(|o| o.sim.issued).sum::<u64>();
    let failed = gate.failed + firsts.iter().map(lost_requests).sum::<u64>();
    let values = [
        wall_s,
        sim(|s| s.requests) / wall_s,
        setup_s,
        peak_rss_mb,
        sim(|s| s.rps),
        sim(|s| s.mem_bw_gbs),
        sim(|s| s.p50_us),
        sim(|s| s.p99_us),
        sim(|s| s.goodput_gbps),
        1.0 - failed as f64 / attempted as f64,
    ];
    let mut notes: Vec<String> = firsts
        .iter()
        .zip(0..)
        .map(|(o, j)| {
            format!(
                "workload {} seed {} (config seed {}): telemetry sha256 {}",
                w.name(),
                args.seed,
                sub_seed(args.seed, j),
                o.digest
            )
        })
        .collect();
    notes.push(format!(
        "gate: {} offloads, {} failed",
        gate.attempted, gate.failed
    ));
    notes.push(format!(
        "host time corrected to a quiet host ({} s per reference pass): \
         median pass {pass_s:.4} s, raw call median {raw_wall_s:.4} s, corrected {wall_s:.4} s",
        reference::QUIET_S
    ));
    notes.push(format!("harness calls, raw (s): {host_s:.4?}"));
    notes.push(format!(
        "reference passes, mean of {passes} per call (s): {passes_s:.4?}"
    ));
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: zip(&END_TO_END, &values),
        notes,
    })
}

fn zip<const N: usize>(
    table: &[(&'static str, &'static str); N],
    values: &[f64; N],
) -> Vec<(&'static str, f64, &'static str)> {
    table
        .iter()
        .zip(values)
        .map(|((name, unit), v)| (*name, *v, *unit))
        .collect()
}

/// Starts `exe --rss-probe` for the same workload and seed and reads the
/// peak RSS (MB) and the snapshot digest it prints.
fn rss_probe(exe: &Path, args: RunArgs) -> Result<(f64, String), String> {
    let scale = match args.scale {
        Scale::Full => "full",
        Scale::Smoke => "smoke",
    };
    let out = Command::new(exe)
        .args(["--rss-probe", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string(), "--scale", scale])
        .output()
        .map_err(|e| format!("rss probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "rss probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut fields = stdout.split_whitespace();
    match (fields.next().map(str::parse), fields.next()) {
        (Some(Ok(mb)), Some(digest)) => Ok((mb, digest.to_string())),
        _ => Err(format!("rss probe output: {stdout:?}")),
    }
}

/// Runs the run's first input set once and returns this process's peak
/// RSS in MB (Linux `VmHWM`) and the call's snapshot digest.
pub fn rss_probe_child(args: RunArgs) -> Result<(f64, String), String> {
    let o = args
        .workload
        .harness(sub_seed(args.seed, 0), args.scale)
        .run()?;
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| (kb / 1024.0, o.digest))
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Checks `o` against the first digest seen for its config, recording
/// it when `reference` is still empty.
fn check_digest(reference: &mut Option<String>, o: &Outcome, what: &str) -> Result<(), String> {
    match reference {
        Some(d) => same_digest(d, o, what),
        None => {
            *reference = Some(o.digest.clone());
            Ok(())
        }
    }
}

/// The traced run: per-layer host time and simulated work.
///
/// Each round runs, back to back: the untraced harness call, the traced
/// call (the same call, timed until its telemetry is rendered, hashed
/// and read back for the layer counts), the workload on the other DRAM
/// backend, the workload with a 2-thread settle pool, and two copies of
/// the workload fanned out over 2 threads with `simkit::par::run_indexed`.
/// Rounds repeat until `seconds` have passed (at least two).
pub fn trace(args: RunArgs) -> Result<Report, String> {
    let w = args.workload;
    let base = w.harness(sub_seed(args.seed, 0), args.scale);
    base.validate()?;
    let gate = gate::run(&base, args.seed, gate_samples(args.scale));
    let costs = layers::UnitCosts::measure(args.seed, base.host_config().dimm.hw_deflate, 64);

    let other_backend = match base.backend() {
        BackendKind::CycleAccurate => BackendKind::FastQueue,
        BackendKind::FastQueue => BackendKind::CycleAccurate,
    };
    let other = base.with_backend(other_backend);
    let two_threads = base.with_threads(2);

    let (mut untraced, mut traced, mut other_s, mut t2) = (vec![], vec![], vec![], vec![]);
    let (mut fan_seq, mut fan_par) = (vec![], vec![]);
    let (mut base_digest, mut other_digest) = (None, None);
    let mut traced_outcome = None;

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while start.elapsed() < budget || traced.len() < 2 {
        let u = base.run()?;
        check_digest(&mut base_digest, &u, "untraced")?;
        untraced.push(u.host_s);

        let o = base.run()?;
        check_digest(&mut base_digest, &o, "traced")?;
        traced.push(o.traced_s);
        fan_seq.push(u.host_s + o.host_s);
        traced_outcome.get_or_insert(o);

        let x = other.run()?;
        check_digest(&mut other_digest, &x, "other-backend")?;
        other_s.push(x.host_s);

        let p = two_threads.run()?;
        check_digest(&mut base_digest, &p, "2-thread settle pool")?;
        t2.push(p.host_s);

        let t0 = Instant::now();
        let (outs, _) =
            simkit::par::run_indexed(2, vec![base.clone(), base.clone()], |_, h| h.run());
        fan_par.push(t0.elapsed().as_secs_f64());
        for o in outs {
            check_digest(&mut base_digest, &o?, "fan-out")?;
        }
    }
    let o = traced_outcome.expect("at least one round ran");
    let c = &o.counters;
    let is_event = matches!(base, Harness::Event(_));

    let rounds = traced.len();
    let total_s = median(traced);
    let wall_s = median(untraced);
    let ulp = layers::ulp_time(base.ulp(), &o, &costs, is_event);
    let (accurate_s, fast_s) = match base.backend() {
        BackendKind::CycleAccurate => (total_s, median(other_s)),
        BackendKind::FastQueue => (median(other_s), total_s),
    };
    // The host time the cycle-accurate controller adds over the fast
    // queue, for workloads that run on it.
    let dram_accurate_s = match base.backend() {
        BackendKind::CycleAccurate => accurate_s - fast_s,
        BackendKind::FastQueue => 0.0,
    };
    let layer_sum_s = ulp.crypto_s + ulp.compress_s + dram_accurate_s;
    let t2_s = median(t2);
    let seq_s = median(fan_seq);
    let par_s = median(fan_par);

    let dram = |k: &str| c.get(&format!("host.mem.dram.{k}")).copied().unwrap_or(0.0);
    let ch = |suffix: &str| snapshot::sum(c, "host.channel", suffix);
    let host = |k: &str| c.get(&format!("host.{k}")).copied().unwrap_or(0.0);
    let cas = dram("rd_cas") + dram("wr_cas");
    let sim = o.sim;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let values = [
        total_s,
        ulp.crypto_s,
        costs.ns_per_gcm_line,
        costs.ns_per_seal_4k,
        costs.ns_per_key_setup,
        ulp.compress_s,
        costs.ns_per_hw_page,
        dram_accurate_s,
        if cas > 0.0 { wall_s * 1e9 / cas } else { 0.0 },
        t2_s - wall_s,
        total_s - layer_sum_s,
        total_s - wall_s,
        cores as f64,
        dram("rd_cas"),
        dram("wr_cas"),
        if cas > 0.0 {
            dram("row_hits") / cas
        } else {
            0.0
        },
        dram("activates"),
        dram("remote_accesses"),
        snapshot::sum(c, "host.mem.dram.channel", ".busy_cycles"),
        dram("retries"),
        host("mem.llc.accesses"),
        host("mem.llc.miss_rate"),
        host("mem.llc.flushes"),
        host("mem.page_copies"),
        ch(".device.dsa_lines"),
        ch(".device.page_feeds"),
        ch(".device.registrations"),
        ch(".device.offloads_completed"),
        ch(".device.self_recycles"),
        host("force_recycles"),
        ch(".device.bank_desyncs"),
        ch(".xlat.lookups"),
        ch(".xlat.failures"),
        snapshot::max(c, "host.channel", ".scratchpad.peak_bytes"),
        host("bounced_offloads"),
        host("sched.rehomed_offloads"),
        host("sched.migrated_offloads"),
        host("sched.remote_placements"),
        host("par.sync_points"),
        host("par.settled_lines"),
        sim.fallbacks as f64,
        sim.reconnects as f64,
        sim.max_pressure,
        sim.p999_us,
        sim.link_util,
        accurate_s,
        fast_s,
        accurate_s / fast_s,
        wall_s,
        t2_s,
        wall_s / t2_s,
        seq_s,
        par_s,
        seq_s / par_s,
    ];

    let layers = [
        ("ulp-crypto", ulp.crypto_s),
        ("ulp-compress", ulp.compress_s),
        ("dram (accurate over fast)", dram_accurate_s),
        ("unattributed", total_s - layer_sum_s),
    ];
    let top = layers
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty");
    let attempted = gate.attempted + sim.issued;
    let failed = gate.failed + lost_requests(&o);
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: zip(&PER_LAYER, &values),
        notes: vec![
            format!(
                "workload {} seed {}: {} rounds, telemetry sha256 {}",
                w.name(),
                args.seed,
                rounds,
                o.digest
            ),
            format!(
                "layers of {:.4} s traced: {}; top: {} ({:.0}%)",
                total_s,
                layers
                    .iter()
                    .map(|(n, s)| format!("{n} {s:.4} s"))
                    .collect::<Vec<_>>()
                    .join(", "),
                top.0,
                100.0 * top.1 / total_s
            ),
            format!(
                "knock-outs on {cores} cores: accurate {accurate_s:.4} s / fast {fast_s:.4} s = {:.3}x; \
                 settle t1 {wall_s:.4} s / t2 {t2_s:.4} s = {:.3}x; \
                 fan-out seq {seq_s:.4} s / par2 {par_s:.4} s = {:.3}x",
                accurate_s / fast_s,
                wall_s / t2_s,
                seq_s / par_s
            ),
        ],
    })
}
