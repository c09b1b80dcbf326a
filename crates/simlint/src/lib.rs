//! `simlint`: workspace-native static analysis for the SmartDIMM
//! simulator.
//!
//! Zero-dependency by design — the analyzer must run in the same
//! offline environment as the simulator itself, so the lexer
//! ([`lexer`]), item/attribute parser ([`context`]), rule registry
//! ([`rules`]), allowlist baseline ([`baseline`]) and JSON emitter
//! ([`emit`]) are all hand-rolled. See DESIGN.md § "Static analysis"
//! for the rule catalogue and the rationale tying each rule to a paper
//! mechanism.
//!
//! The library surface exists so the fixture tests can drive scans
//! in-process; the CI entry point is the `simlint` binary.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod callgraph;
pub mod context;
pub mod emit;
pub mod lexer;
pub mod rules;
pub mod wsrules;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use baseline::Baseline;
use callgraph::CallGraph;
use context::FileContext;
use rules::Diagnostic;

/// Result of scanning a set of files.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Findings suppressed by the baseline, with the raw source line
    /// (kept so `--update-baseline` can re-render them).
    pub baselined: Vec<(Diagnostic, String)>,
    pub files_scanned: usize,
}

/// Scans one in-memory file. `path` should be workspace-relative with
/// `/` separators — it becomes the `file` field of every diagnostic.
pub fn scan_source(path: &str, src: &str) -> Vec<Diagnostic> {
    rules::check_file(&FileContext::new(path, src))
}

/// Scans `files` (absolute path, workspace-relative display path),
/// splitting findings into live vs baselined.
pub fn scan_files(files: &[(PathBuf, String)], base: &Baseline) -> ScanResult {
    let mut result = ScanResult::default();
    for (abs, rel) in files {
        let Ok(src) = fs::read_to_string(abs) else {
            continue; // unreadable file: the compiler will complain, not us
        };
        result.files_scanned += 1;
        let lines: Vec<&str> = src.lines().collect();
        for d in scan_source(rel, &src) {
            let src_line = lines
                .get(d.line.saturating_sub(1) as usize)
                .copied()
                .unwrap_or("")
                .to_string();
            if base.suppresses(&d, &src_line) {
                result.baselined.push((d, src_line));
            } else {
                result.diagnostics.push(d);
            }
        }
    }
    result.diagnostics.sort();
    result
}

/// Result of the two-pass workspace scan (per-file rules + workspace
/// call-graph rules), with baseline bookkeeping.
#[derive(Debug, Default)]
pub struct WorkspaceScan {
    /// Unsuppressed findings from both passes, with the raw source line
    /// of each (empty when the flagged file could not be re-read).
    pub live: Vec<(Diagnostic, String)>,
    /// Findings suppressed by the baseline.
    pub baselined: Vec<(Diagnostic, String)>,
    /// Baseline entries that matched nothing — stale, a hard error.
    pub stale_baseline: Vec<(String, String, String)>,
    pub files_scanned: usize,
}

impl WorkspaceScan {
    /// The live diagnostics alone, for rendering.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.live.iter().map(|(d, _)| d.clone()).collect()
    }
}

/// Runs both passes over the whole workspace rooted at `root`.
///
/// Pass 1 applies the per-file rules ([`rules::check_file`]) to every
/// gate-covered file. Pass 2 builds the workspace [`CallGraph`] and
/// applies the inter-file rules ([`wsrules::check_workspace`]),
/// cross-checking telemetry against `results/run_report.json` when that
/// file exists. Baseline suppression and stale-entry detection cover
/// the union of both passes.
pub fn scan_workspace(root: &Path, base: &Baseline) -> WorkspaceScan {
    let files = workspace_files(root);
    let mut parsed: Vec<(String, FileContext)> = Vec::new();
    let mut lines_by_rel: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (abs, rel) in &files {
        let Ok(src) = fs::read_to_string(abs) else {
            continue; // unreadable file: the compiler will complain, not us
        };
        lines_by_rel.insert(rel.clone(), src.lines().map(str::to_string).collect());
        parsed.push((rel.clone(), FileContext::new(rel, &src)));
    }

    let mut all: Vec<Diagnostic> = Vec::new();
    for (_, ctx) in &parsed {
        all.extend(rules::check_file(ctx));
    }

    let graph = CallGraph::build(&parsed);
    let report_path = root.join("results").join("run_report.json");
    let report = fs::read_to_string(&report_path).ok();
    if let Some(text) = &report {
        // Report-anchored findings key their baseline entries on the
        // report's own lines, like any other file.
        lines_by_rel.insert(
            "results/run_report.json".to_string(),
            text.lines().map(str::to_string).collect(),
        );
    }
    all.extend(wsrules::check_workspace(&wsrules::Workspace {
        files: &parsed,
        graph: &graph,
        report: report.as_deref(),
    }));

    let mut scan = WorkspaceScan {
        files_scanned: parsed.len(),
        ..WorkspaceScan::default()
    };
    for d in all {
        let src_line = lines_by_rel
            .get(&d.file)
            .and_then(|lines| lines.get(d.line.saturating_sub(1) as usize))
            .cloned()
            .unwrap_or_default();
        if base.suppresses(&d, &src_line) {
            scan.baselined.push((d, src_line));
        } else {
            scan.live.push((d, src_line));
        }
    }
    scan.live.sort();
    scan.baselined.sort();
    scan.stale_baseline = base.stale(&scan.baselined);
    scan
}

/// Walks the workspace and returns every `.rs` file the gate covers:
/// `crates/*/src/**` and the workspace-level `tests/`, excluding
/// vendored shims (`crates/shims/`) and simlint's own lint fixtures
/// (which are known-bad on purpose).
pub fn workspace_files(root: &Path) -> Vec<(PathBuf, String)> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            if dir.file_name().is_some_and(|n| n == "shims") {
                continue;
            }
            collect_rs(&dir.join("src"), root, &mut files);
        }
    }
    collect_rs(&root.join("tests"), root, &mut files);
    collect_rs(&root.join("src"), root, &mut files);
    files.sort();
    files
}

/// Recursively collects `.rs` files under `dir`, recording paths
/// relative to `root` with `/` separators for stable output.
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(PathBuf, String)>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            if p.file_name()
                .is_some_and(|n| n == "fixtures" || n == "target")
            {
                continue;
            }
            collect_rs(&p, root, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((p, rel));
        }
    }
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
