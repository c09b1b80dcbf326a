//! Workspace (inter-file) rules — the second analysis pass.
//!
//! Per-file rules ([`crate::rules`]) see one token stream; the rules
//! here consume the whole-workspace [`CallGraph`] plus every file's
//! [`FileContext`], and encode the access discipline the parallel-shard
//! work (ROADMAP item 3) depends on:
//!
//! | id            | invariant                                                      |
//! |---------------|----------------------------------------------------------------|
//! | `PANIC-REACH` | nothing *transitively reachable* from the device hot path panics |
//! | `SHARD-ISO`   | per-channel shard code never names host state; host code only   |
//! |               | touches a shard through the sanctioned inspection/injection API |
//! | `THREAD-DET`  | no threading primitives outside the `simkit::par` doorway       |
//! | `TELEM-CONS`  | every literal telemetry metric is driven by live code and agrees |
//! |               | with the committed `results/run_report.json`, both directions   |
//!
//! Like the per-file rules these are token-level approximations: the
//! call graph over-approximates (name-keyed dispatch), the isolation
//! and telemetry checks under-approximate (literal patterns). The
//! baseline and inline-allow mechanisms absorb the reviewed residue.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::context::FileContext;
use crate::lexer::TokKind;
use crate::rules::Diagnostic;

/// Rule ids implemented by this pass.
pub const WS_RULE_IDS: [&str; 4] = ["PANIC-REACH", "SHARD-ISO", "THREAD-DET", "TELEM-CONS"];

/// Workspace rules with their one-line docs, for `--rules`. A test pins
/// this table against [`WS_RULE_IDS`] so the docs cannot drift.
pub const WS_RULES: [(&str, &str); 4] = [
    (
        "PANIC-REACH",
        "nothing transitively reachable from the device hot path may panic (call-graph closure)",
    ),
    (
        "SHARD-ISO",
        "shard code never names host state; hosts cross the shard boundary only via the sanctioned API",
    ),
    (
        "THREAD-DET",
        "no thread/Mutex/Atomic/channel primitives outside the simkit::par doorway",
    ),
    (
        "TELEM-CONS",
        "every literal telemetry metric is driven by live code and matches results/run_report.json",
    ),
];

/// Hot-path entry files (same set as the per-file `PANIC-HOT` rule):
/// every non-test function defined here is a reachability root.
const HOT_FILES: [&str; 4] = ["device.rs", "dsa.rs", "scratchpad.rs", "xlat.rs"];

/// Files that make up the per-channel `SmartDimmDevice` shard. Code in
/// these files runs "on the DIMM" and must stay oblivious to host-side
/// state so a future scheduler can run one shard per worker thread.
const SHARD_FILES: [&str; 6] = [
    "device.rs",
    "dsa.rs",
    "scratchpad.rs",
    "xlat.rs",
    "banktable.rs",
    "configmem.rs",
];

/// Host-side identifiers shard code must never name. Touching any of
/// these from inside the shard would mean a device model reaching
/// across the channel boundary outside the memory-command protocol.
const HOST_IDENTS: [&str; 8] = [
    "CompCpyHost",
    "MemSystem",
    "Llc",
    "DramSystem",
    "memsys",
    "device_on",
    "dimm_mut",
    "install_dimm",
];

/// The sanctioned host→shard surface: the only methods host code may
/// invoke on a `SmartDimmDevice` obtained via `device()`/`device_on()`.
/// Inspection (stats/telemetry/translation-table reads) and fault
/// injection are sanctioned; everything else must travel as memory
/// commands so the shard boundary stays a message boundary.
const SHARD_API: [&str; 14] = [
    "stats",
    "free_pages",
    "occupancy_series",
    "slack_histogram",
    "scratchpad_stats",
    "xlat_stats",
    "xlat",
    "injected_entries",
    "export_telemetry",
    "set_fault_handle",
    "inject_xlat_pressure",
    "inject_scratch_hog",
    "clear_injected",
    "config",
];

/// Threading primitives `THREAD-DET` forbids outside the doorway.
/// `Atomic*`-prefixed type names and `thread::` paths are matched
/// structurally in the rule body.
const THREAD_PRIMITIVES: [&str; 6] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "JoinHandle",
    "mpsc",
];

/// The one module allowed to own threading primitives: the future
/// deterministic-parallelism doorway (mirrors DET-NOW's `simkit::timer`
/// wall-clock doorway).
const THREAD_DOORWAY: &str = "crates/simkit/src/par";

/// Telemetry registration methods whose literal first argument is a
/// metric name.
const SET_METHODS: [&str; 4] = [
    "set_counter",
    "set_gauge",
    "set_histogram",
    "set_time_series",
];

/// Metric names that appear in `results/run_report.json` but are
/// registered with a *computed* (non-literal) name in code, so the
/// report→code direction of TELEM-CONS cannot see them. Each entry
/// documents where the dynamic registration lives.
const TELEM_DYNAMIC: [&str; 2] = [
    // memsys::export_telemetry registers the backend identity counter
    // as `backend.set_counter(kind.as_str(), 1)`, where `kind` is
    // `DramSystem::fidelity()`.
    "cycle_accurate",
    "fast_queue",
];

/// Metric names registered in code but intentionally absent from the
/// committed full-mode report (smoke-only or bench-only scopes). Each
/// entry documents why the code→report direction must not fail on it.
const TELEM_SMOKE_ONLY: [&str; 0] = [];

/// Everything the workspace pass consumes.
pub struct Workspace<'a> {
    /// (workspace-relative path, parsed context), sorted by path.
    pub files: &'a [(String, FileContext)],
    pub graph: &'a CallGraph,
    /// Contents of `results/run_report.json`, when present.
    pub report: Option<&'a str>,
}

/// Runs every workspace rule. Returned diagnostics are sorted and have
/// inline `// simlint: allow(..)` markers already applied (report-side
/// TELEM-CONS findings have no source line to carry a marker; only the
/// baseline can suppress those).
pub fn check_workspace(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    panic_reach(ws, &mut diags);
    shard_iso(ws, &mut diags);
    thread_det(ws, &mut diags);
    telem_cons(ws, &mut diags);
    let by_path: BTreeMap<&str, &FileContext> =
        ws.files.iter().map(|(p, c)| (p.as_str(), c)).collect();
    diags.retain(|d| {
        by_path
            .get(d.file.as_str())
            .is_none_or(|ctx| !ctx.is_allowed(&d.rule, d.line))
    });
    diags.sort();
    diags.dedup();
    diags
}

/// PANIC-REACH: the per-file PANIC-HOT rule covers panic sites *inside*
/// the hot-path files; this rule closes the gap for code those files
/// call into. Every non-test function defined in a hot file is a root;
/// any `unwrap`/`expect`/`panic!`-family site in live code reachable
/// from a root — in any crate — aborts the simulated hardware on
/// host-controlled input and is flagged with its shortest call path.
fn panic_reach(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    let g = ws.graph;
    let entries: Vec<usize> = g
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            !n.is_test && n.file.starts_with("crates/") && HOT_FILES.contains(&n.file_name.as_str())
        })
        .map(|(i, _)| i)
        .collect();
    for (&i, path) in &g.reachable(&entries) {
        let n = &g.nodes[i];
        // Hot-file sites are PANIC-HOT's job; double-flagging them
        // would force every baseline entry to exist twice.
        if HOT_FILES.contains(&n.file_name.as_str()) || !n.file.starts_with("crates/") {
            continue;
        }
        for &(line, what) in &n.panics {
            diags.push(Diagnostic {
                file: n.file.clone(),
                line,
                rule: "PANIC-REACH".to_string(),
                message: format!(
                    "{what} is reachable from the device hot path ({}); return a typed error or \
                     degrade with a stats counter",
                    g.render_path(path)
                ),
            });
        }
    }
}

/// SHARD-ISO, shard side: code in the per-channel shard files must not
/// name host-side state. SHARD-ISO, host side: a `SmartDimmDevice`
/// reference obtained through `device()`/`device_on()` — directly or
/// via a `let` binding — may only be used through [`SHARD_API`].
fn shard_iso(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for (rel, ctx) in ws.files {
        if !rel.starts_with("crates/") {
            continue; // integration tests may reach into anything
        }
        let is_shard_file = rel.starts_with("crates/smartdimm/src/")
            && SHARD_FILES.contains(&ctx.file_name.as_str());
        if is_shard_file {
            for (i, t) in ctx.toks.iter().enumerate() {
                if t.kind == TokKind::Ident
                    && HOST_IDENTS.contains(&t.text.as_str())
                    && !ctx.in_test(i)
                {
                    diags.push(Diagnostic {
                        file: rel.clone(),
                        line: t.line,
                        rule: "SHARD-ISO".to_string(),
                        message: format!(
                            "shard code names host-side `{}`; a per-channel shard may only see \
                             host state through memory commands (the parallel-shard precondition)",
                            t.text
                        ),
                    });
                }
            }
            continue; // shard files contain no host-side accessor calls
        }
        host_side_shard_access(rel, ctx, diags);
    }
}

/// The host-side half of SHARD-ISO for one file.
fn host_side_shard_access(rel: &str, ctx: &FileContext, diags: &mut Vec<Diagnostic>) {
    let toks = &ctx.toks;
    // Direct chains: `.device_on(ch).method(` / `.device().method(`.
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("device_on") || t.is_ident("device"))
            || ctx.in_test(i)
            || i == 0
            || !toks[i - 1].is_punct('.')
            || !toks.get(i + 1).is_some_and(|a| a.is_punct('('))
        {
            continue;
        }
        let Some(close) = matching_paren(toks, i + 1) else {
            continue;
        };
        if let Some((m, line)) = method_after(toks, close) {
            if !SHARD_API.contains(&m) {
                diags.push(Diagnostic {
                    file: rel.to_string(),
                    line,
                    rule: "SHARD-ISO".to_string(),
                    message: format!(
                        "host code calls `{m}` on a channel shard; only the sanctioned \
                         inspection/injection API ({}) may cross the shard boundary",
                        SHARD_API.join("/")
                    ),
                });
            }
        }
    }
    // `let dev = ...device_on(ch);` aliases, per function.
    for f in ctx.fns() {
        let span = f.span;
        let mut aliases: Vec<String> = Vec::new();
        let mut k = span.start;
        while k <= span.end {
            if toks[k].is_ident("let") {
                let mut n = k + 1;
                if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
                    n += 1;
                }
                if let Some(name) = toks.get(n).filter(|t| t.kind == TokKind::Ident) {
                    // Scan the initializer up to `;` for a shard accessor.
                    let mut j = n + 1;
                    let mut from_accessor = false;
                    while j <= span.end && !toks[j].is_punct(';') {
                        if (toks[j].is_ident("device_on") || toks[j].is_ident("device"))
                            && j > 0
                            && toks[j - 1].is_punct('.')
                            && toks.get(j + 1).is_some_and(|a| a.is_punct('('))
                            && matching_paren(toks, j + 1)
                                .is_some_and(|c| method_after(toks, c).is_none())
                        {
                            from_accessor = true;
                        }
                        j += 1;
                    }
                    if from_accessor {
                        aliases.push(name.text.clone());
                    }
                    k = j;
                    continue;
                }
            }
            k += 1;
        }
        if aliases.is_empty() {
            continue;
        }
        for k in span.start..=span.end {
            let t = &toks[k];
            if t.kind == TokKind::Ident
                && aliases.contains(&t.text)
                && !ctx.in_test(k)
                && toks.get(k + 1).is_some_and(|a| a.is_punct('.'))
            {
                if let Some(m) = toks.get(k + 2).filter(|m| m.kind == TokKind::Ident) {
                    if toks.get(k + 3).is_some_and(|a| a.is_punct('('))
                        && !SHARD_API.contains(&m.text.as_str())
                    {
                        diags.push(Diagnostic {
                            file: rel.to_string(),
                            line: m.line,
                            rule: "SHARD-ISO".to_string(),
                            message: format!(
                                "host code calls `{}` on shard alias `{}`; only the sanctioned \
                                 inspection/injection API may cross the shard boundary",
                                m.text, t.text
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(toks: &[crate::lexer::Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// The `.method(` immediately following token `close`, if any.
fn method_after(toks: &[crate::lexer::Tok], close: usize) -> Option<(&str, u32)> {
    if !toks.get(close + 1).is_some_and(|t| t.is_punct('.')) {
        return None;
    }
    let m = toks.get(close + 2).filter(|t| t.kind == TokKind::Ident)?;
    toks.get(close + 3)
        .filter(|t| t.is_punct('('))
        .map(|_| (m.text.as_str(), m.line))
}

/// THREAD-DET: threading primitives in live sim code make event order
/// depend on the OS scheduler and break byte-determinism. They are
/// confined to the `simkit::par` doorway, whose wrappers will be the
/// only sanctioned shared-state surface when shards go parallel.
fn thread_det(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for (rel, ctx) in ws.files {
        if !rel.starts_with("crates/") || rel.starts_with(THREAD_DOORWAY) {
            continue;
        }
        for (i, t) in ctx.toks.iter().enumerate() {
            if t.kind != TokKind::Ident || ctx.in_test(i) {
                continue;
            }
            let name = t.text.as_str();
            let is_primitive = THREAD_PRIMITIVES.contains(&name)
                || (name.starts_with("Atomic") && name.len() > "Atomic".len())
                || (name == "thread"
                    && (ctx.toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                        || (i > 0 && ctx.toks[i - 1].is_punct(':'))));
            if is_primitive {
                diags.push(Diagnostic {
                    file: rel.clone(),
                    line: t.line,
                    rule: "THREAD-DET".to_string(),
                    message: format!(
                        "threading primitive `{name}` outside the simkit::par doorway makes \
                         event order scheduler-dependent; route shared state through simkit::par"
                    ),
                });
            }
        }
    }
}

/// One literal telemetry registration site.
struct TelemReg {
    name: String,
    file: String,
    line: u32,
    /// Last identifier of the value expression when it is a plain field
    /// path (`self.stats.rd_cas` → `rd_cas`); `None` when the value is
    /// computed (contains a call) or has no identifier to track.
    mirror: Option<String>,
}

/// TELEM-CONS: three conservation checks over the literal metric names
/// passed to `set_counter`/`set_gauge`/`set_histogram`/`set_time_series`:
///
/// 1. a counter/gauge mirroring a plain field must see that field
///    updated somewhere in live code (orphan metrics read 0 forever);
/// 2. every literal name must appear as a metric leaf in the committed
///    `results/run_report.json` (minus [`TELEM_SMOKE_ONLY`]);
/// 3. every metric leaf in the report must be registered by some
///    literal in code (minus [`TELEM_DYNAMIC`]) — a leaf with no
///    registration means the committed report has drifted.
fn telem_cons(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    let regs = collect_regs(ws);
    let evidence = mutation_evidence(ws);
    // Check 1: mirrored fields must be driven.
    for r in &regs {
        if let Some(field) = &r.mirror {
            if !evidence.contains(field.as_str()) {
                diags.push(Diagnostic {
                    file: r.file.clone(),
                    line: r.line,
                    rule: "TELEM-CONS".to_string(),
                    message: format!(
                        "telemetry metric \"{}\" mirrors `{}`, which is never updated in live \
                         code; an orphan metric exports a constant and hides the signal it claims",
                        r.name, field
                    ),
                });
            }
        }
    }
    let Some(report) = ws.report else {
        return; // no committed report to cross-check (fixture scans)
    };
    let leaves = report_leaves(report);
    let leaf_names: BTreeSet<&str> = leaves.iter().map(|(n, _)| n.as_str()).collect();
    let code_names: BTreeSet<&str> = regs.iter().map(|r| r.name.as_str()).collect();
    // Check 2: code → report (first registration site anchors).
    let mut seen = BTreeSet::new();
    for r in &regs {
        if !seen.insert(r.name.as_str())
            || leaf_names.contains(r.name.as_str())
            || TELEM_SMOKE_ONLY.contains(&r.name.as_str())
        {
            continue;
        }
        diags.push(Diagnostic {
            file: r.file.clone(),
            line: r.line,
            rule: "TELEM-CONS".to_string(),
            message: format!(
                "telemetry metric \"{}\" is registered in code but absent from the committed \
                 results/run_report.json; regenerate the report or allowlist a smoke-only scope",
                r.name
            ),
        });
    }
    // Check 3: report → code (report line anchors).
    let mut seen = BTreeSet::new();
    for (name, line) in &leaves {
        if !seen.insert(name.as_str())
            || code_names.contains(name.as_str())
            || TELEM_DYNAMIC.contains(&name.as_str())
        {
            continue;
        }
        diags.push(Diagnostic {
            file: "results/run_report.json".to_string(),
            line: *line,
            rule: "TELEM-CONS".to_string(),
            message: format!(
                "committed run report contains metric \"{name}\" but no code registers that \
                 name; the report has drifted — regenerate it"
            ),
        });
    }
}

/// Collects every literal registration site in live code.
fn collect_regs(ws: &Workspace) -> Vec<TelemReg> {
    let mut regs = Vec::new();
    for (rel, ctx) in ws.files {
        // The registry itself and the linter (whose test fixtures spell
        // registration calls) are not telemetry producers.
        if !rel.starts_with("crates/")
            || rel.ends_with("simkit/src/telemetry.rs")
            || rel.starts_with("crates/simlint/")
        {
            continue;
        }
        let toks = &ctx.toks;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident
                || !SET_METHODS.contains(&t.text.as_str())
                || ctx.in_test(i)
                || i == 0
                || !toks[i - 1].is_punct('.')
                || !toks.get(i + 1).is_some_and(|a| a.is_punct('('))
            {
                continue;
            }
            let Some(close) = matching_paren(toks, i + 1) else {
                continue;
            };
            // Literal first argument only; dynamic names are covered by
            // the TELEM_DYNAMIC allowlist on the report side.
            let Some(name_tok) = toks.get(i + 2).filter(|a| a.kind == TokKind::Str) else {
                continue;
            };
            // The value expression: everything after the `,` at depth 1.
            let mut mirror = None;
            if t.is_ident("set_counter") || t.is_ident("set_gauge") {
                let args = &toks[i + 3..close];
                if let Some(comma) = args.iter().position(|a| a.is_punct(',')) {
                    let value = &args[comma + 1..];
                    let computed = value.iter().any(|a| a.is_punct('('));
                    if !computed {
                        mirror = value
                            .iter()
                            .rev()
                            .find(|a| a.kind == TokKind::Ident)
                            .map(|a| a.text.clone());
                    }
                }
            }
            regs.push(TelemReg {
                name: name_tok.text.clone(),
                file: rel.clone(),
                line: name_tok.line,
                mirror,
            });
        }
    }
    regs.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    regs
}

/// Type-like identifiers on the right of `field: X` — these mean a
/// struct *declaration*, not a struct-literal update.
fn is_type_like(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_uppercase())
        || matches!(
            s,
            "u8" | "u16"
                | "u32"
                | "u64"
                | "u128"
                | "usize"
                | "i8"
                | "i16"
                | "i32"
                | "i64"
                | "i128"
                | "isize"
                | "f32"
                | "f64"
                | "bool"
                | "str"
        )
}

/// Every identifier that is *updated* somewhere in live workspace code:
/// compound-assigned, plainly assigned, filled from an expression in a
/// struct literal, or driven through a setter-shaped method.
fn mutation_evidence(ws: &Workspace) -> BTreeSet<String> {
    const SETTERS: [&str; 7] = ["set", "inc", "add", "record", "push", "observe", "tick"];
    let mut out = BTreeSet::new();
    for (rel, ctx) in ws.files {
        if rel.starts_with("crates/simlint/") {
            continue;
        }
        let toks = &ctx.toks;
        for (j, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || ctx.in_test(j) {
                continue;
            }
            let p1 = toks.get(j + 1);
            let p2 = toks.get(j + 2);
            let compound = p1.is_some_and(|a| {
                ['+', '-', '*', '/', '|', '&', '^']
                    .iter()
                    .any(|&c| a.is_punct(c))
            }) && p2.is_some_and(|a| a.is_punct('='));
            let assign = p1.is_some_and(|a| a.is_punct('='))
                && !p2.is_some_and(|a| a.is_punct('=') || a.is_punct('>'));
            // `field: expr` in a struct literal counts (mirror structs
            // are filled this way); `field: Type` declarations and
            // `a::b` paths do not.
            let struct_fill = p1.is_some_and(|a| a.is_punct(':'))
                && p2.is_some_and(|a| a.kind == TokKind::Ident && !is_type_like(&a.text));
            let setter = p1.is_some_and(|a| a.is_punct('.'))
                && p2.is_some_and(|a| SETTERS.contains(&a.text.as_str()))
                && toks.get(j + 3).is_some_and(|a| a.is_punct('('));
            if compound || assign || struct_fill || setter {
                out.insert(t.text.clone());
            }
        }
    }
    out
}

/// Metric leaves of a `telemetry/v1` JSON document: `"name": {` whose
/// body opens with `"kind"` (same line or next). Scope openers continue
/// with `"scopes"`/`"metrics"` instead, so this cleanly separates the
/// two without a JSON parser. Returns `(name, 1-based line)`.
fn report_leaves(text: &str) -> Vec<(String, u32)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    for (k, raw) in lines.iter().enumerate() {
        let t = raw.trim();
        let Some(rest) = t.strip_prefix('"') else {
            continue;
        };
        let Some(q) = rest.find('"') else { continue };
        let name = &rest[..q];
        let after = rest[q + 1..].trim_start();
        let Some(body) = after.strip_prefix(':') else {
            continue;
        };
        let body = body.trim_start();
        let Some(body) = body.strip_prefix('{') else {
            continue;
        };
        let opens_with_kind = if body.trim_start().is_empty() {
            lines
                .get(k + 1)
                .is_some_and(|n| n.trim_start().starts_with("\"kind\""))
        } else {
            body.trim_start().starts_with("\"kind\"")
        };
        if opens_with_kind {
            out.push((name.to_string(), (k + 1) as u32));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_diags(files: &[(&str, &str)], report: Option<&str>) -> Vec<Diagnostic> {
        let built: Vec<(String, FileContext)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), FileContext::new(p, s)))
            .collect();
        let graph = CallGraph::build(&built);
        check_workspace(&Workspace {
            files: &built,
            graph: &graph,
            report,
        })
    }

    #[test]
    fn panic_reach_crosses_files_with_path() {
        let d = ws_diags(
            &[
                (
                    "crates/smartdimm/src/device.rs",
                    "fn on_step(&mut self) { helper_stage(); }",
                ),
                (
                    "crates/ulp/src/lib.rs",
                    "pub fn helper_stage() {\n    x.unwrap();\n}",
                ),
            ],
            None,
        );
        let pr: Vec<_> = d.iter().filter(|d| d.rule == "PANIC-REACH").collect();
        assert_eq!(pr.len(), 1, "{d:?}");
        assert_eq!(pr[0].file, "crates/ulp/src/lib.rs");
        assert_eq!(pr[0].line, 2);
        assert!(pr[0].message.contains("smartdimm::device::on_step"));
    }

    #[test]
    fn shard_iso_flags_host_ident_in_shard() {
        let d = ws_diags(
            &[(
                "crates/smartdimm/src/dsa.rs",
                "fn feed(&mut self, host: &mut MemSystem) {}",
            )],
            None,
        );
        assert_eq!(
            d.iter().filter(|d| d.rule == "SHARD-ISO").count(),
            1,
            "{d:?}"
        );
    }

    #[test]
    fn shard_iso_host_side_respects_api_allowlist() {
        let bad = "fn peek(&mut self) {\n    self.host.device_on(0).scratchpad_write(0, 1);\n}";
        let good = "fn peek(&mut self) {\n    let dev = self.host.device_on(0);\n    let n = dev.free_pages();\n}";
        let d = ws_diags(&[("crates/x/src/a.rs", bad)], None);
        assert_eq!(
            d.iter().filter(|d| d.rule == "SHARD-ISO").count(),
            1,
            "{d:?}"
        );
        assert_eq!(d[0].line, 2);
        let d = ws_diags(&[("crates/x/src/a.rs", good)], None);
        assert!(d.iter().all(|d| d.rule != "SHARD-ISO"), "{d:?}");
    }

    #[test]
    fn shard_iso_alias_binding_is_tracked() {
        let src = "fn probe(&mut self) {\n    let dev = self.host.device_on(ch);\n    dev.absorb_page(p);\n}";
        let d = ws_diags(&[("crates/x/src/a.rs", src)], None);
        assert_eq!(
            d.iter().filter(|d| d.rule == "SHARD-ISO").count(),
            1,
            "{d:?}"
        );
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn thread_det_allows_doorway_and_tests() {
        let files = [
            ("crates/x/src/a.rs", "use std::sync::Mutex;\nfn f() {}"),
            (
                "crates/simkit/src/par.rs",
                "use std::sync::Mutex;\npub struct DetMutex(Mutex<()>);",
            ),
            (
                "crates/y/src/b.rs",
                "#[cfg(test)]\nmod tests { use std::thread; fn t() { thread::spawn(|| 1); } }",
            ),
        ];
        let d = ws_diags(&files, None);
        let td: Vec<_> = d.iter().filter(|d| d.rule == "THREAD-DET").collect();
        assert_eq!(td.len(), 1, "{d:?}");
        assert_eq!(td[0].file, "crates/x/src/a.rs");
    }

    #[test]
    fn telem_cons_flags_orphan_mirror() {
        let src = "\
impl S {
    fn export_telemetry(&self, scope: &mut Scope) {
        scope.set_counter(\"rd_cas\", self.stats.rd_cas);
        scope.set_counter(\"never_bumped\", self.stats.never_bumped);
    }
    fn work(&mut self) { self.stats.rd_cas += 1; }
}";
        let d = ws_diags(&[("crates/x/src/a.rs", src)], None);
        let tc: Vec<_> = d.iter().filter(|d| d.rule == "TELEM-CONS").collect();
        assert_eq!(tc.len(), 1, "{d:?}");
        assert_eq!(tc[0].line, 4);
        assert!(tc[0].message.contains("never_bumped"));
    }

    #[test]
    fn telem_cons_cross_checks_report_both_ways() {
        let src = "\
impl S {
    fn export_telemetry(&self, scope: &mut Scope) {
        scope.set_counter(\"in_both\", self.stats.in_both);
        scope.set_counter(\"code_only\", self.stats.in_both);
    }
    fn work(&mut self) { self.stats.in_both += 1; }
}";
        let report = "\
{
  \"scopes\": {
    \"dev\": {
      \"metrics\": {
        \"in_both\": { \"kind\": \"counter\", \"value\": 7 },
        \"report_only\": { \"kind\": \"counter\", \"value\": 0 }
      }
    }
  }
}";
        let d = ws_diags(&[("crates/x/src/a.rs", src)], Some(report));
        let tc: Vec<_> = d.iter().filter(|d| d.rule == "TELEM-CONS").collect();
        assert_eq!(tc.len(), 2, "{d:?}");
        assert!(tc.iter().any(|d| d.file == "crates/x/src/a.rs"
            && d.line == 4
            && d.message.contains("code_only")));
        assert!(tc.iter().any(|d| d.file == "results/run_report.json"
            && d.line == 6
            && d.message.contains("report_only")));
    }

    #[test]
    fn report_leaves_skip_scopes_and_catch_multiline_kinds() {
        let text = "\
{
  \"scopes\": {
    \"a\": {
      \"metrics\": {
        \"c\": { \"kind\": \"counter\", \"value\": 1 },
        \"h\": {
          \"kind\": \"histogram\",
          \"count\": 3
        }
      }
    }
  }
}";
        let leaves = report_leaves(text);
        let names: Vec<&str> = leaves.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["c", "h"]);
    }
}
