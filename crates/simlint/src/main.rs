//! The `simlint` CLI — the CI gate entry point.
//!
//! ```text
//! simlint --workspace [--json] [--baseline FILE] [--update-baseline | --prune-baseline]
//! simlint FILE.rs [FILE.rs ...] [--json]
//! simlint --rules | --list-rules
//! ```
//!
//! `--workspace` runs both passes: the per-file rules over every
//! gate-covered file, then the workspace call-graph rules
//! (PANIC-REACH / SHARD-ISO / THREAD-DET / TELEM-CONS). Exit code 0 iff
//! every finding is suppressed (inline allow marker or baseline entry)
//! AND no baseline entry is stale; 1 if any live finding or stale entry
//! remains; 2 on usage errors.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use simlint::baseline::Baseline;
use simlint::emit::{render_human, render_json, Report};
use simlint::{find_workspace_root, scan_files, WorkspaceScan};

struct Args {
    workspace: bool,
    json: bool,
    update_baseline: bool,
    prune_baseline: bool,
    list_rules: bool,
    rules: bool,
    baseline_path: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        json: false,
        update_baseline: false,
        prune_baseline: false,
        list_rules: false,
        rules: false,
        baseline_path: None,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--json" => args.json = true,
            "--update-baseline" => args.update_baseline = true,
            "--prune-baseline" => args.prune_baseline = true,
            "--list-rules" => args.list_rules = true,
            "--rules" => args.rules = true,
            "--baseline" => {
                let p = it.next().ok_or("--baseline requires a path")?;
                args.baseline_path = Some(PathBuf::from(p));
            }
            "--help" | "-h" => {
                return Err("usage: simlint --workspace [--json] [--baseline FILE] \
                            [--update-baseline | --prune-baseline] | simlint FILE.rs ... | \
                            simlint --rules | simlint --list-rules"
                    .to_string());
            }
            f if !f.starts_with('-') => args.files.push(PathBuf::from(f)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.update_baseline && args.prune_baseline {
        return Err("--update-baseline and --prune-baseline are mutually exclusive".to_string());
    }
    if !args.workspace && args.files.is_empty() && !args.list_rules && !args.rules {
        return Err("nothing to scan: pass --workspace or file paths (see --help)".to_string());
    }
    Ok(args)
}

/// Every rule (both passes) with its one-line doc, in display order.
pub fn all_rules() -> Vec<(&'static str, &'static str)> {
    simlint::rules::RULES
        .iter()
        .chain(simlint::wsrules::WS_RULES.iter())
        .copied()
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("simlint: {msg}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for (id, _) in all_rules() {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    if args.rules {
        let width = all_rules()
            .iter()
            .map(|(id, _)| id.len())
            .max()
            .unwrap_or(0);
        for (id, doc) in all_rules() {
            println!("{id:width$}  {doc}");
        }
        return ExitCode::SUCCESS;
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));

    if args.workspace {
        let Some(root) = find_workspace_root(&cwd) else {
            eprintln!("simlint: no workspace root (Cargo.toml with [workspace]) above {cwd:?}");
            return ExitCode::from(2);
        };
        let baseline_path = args
            .baseline_path
            .clone()
            .unwrap_or_else(|| root.join("simlint.baseline"));
        let base = std::fs::read_to_string(&baseline_path)
            .map(|text| Baseline::parse(&text))
            .unwrap_or_default();
        let scan = simlint::scan_workspace(&root, &base);

        if args.update_baseline || args.prune_baseline {
            // --update-baseline absorbs live findings; --prune-baseline
            // only keeps entries that still match something.
            let mut items = scan.baselined.clone();
            if args.update_baseline {
                items.extend(scan.live.iter().cloned());
            }
            return write_baseline(&baseline_path, &items);
        }

        return report(&args, &scan);
    }

    // Single-file mode: per-file pass only, optional explicit baseline.
    let base = args
        .baseline_path
        .as_deref()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .map(|text| Baseline::parse(&text))
        .unwrap_or_default();
    let files: Vec<(PathBuf, String)> = args
        .files
        .iter()
        .map(|p| (p.clone(), p.to_string_lossy().replace('\\', "/")))
        .collect();
    let result = scan_files(&files, &base);
    let scan = WorkspaceScan {
        live: result
            .diagnostics
            .iter()
            .map(|d| (d.clone(), String::new()))
            .collect(),
        baselined: result.baselined,
        stale_baseline: Vec::new(),
        files_scanned: result.files_scanned,
    };
    report(&args, &scan)
}

/// Renders the scan and maps it to the exit code.
fn report(args: &Args, scan: &WorkspaceScan) -> ExitCode {
    let diags = scan.diagnostics();
    let passes: &[&str] = if args.workspace {
        &["file", "workspace"]
    } else {
        &["file"]
    };
    let r = Report {
        diagnostics: &diags,
        files_scanned: scan.files_scanned,
        baselined: scan.baselined.len(),
        passes,
        stale_baseline: &scan.stale_baseline,
    };
    if args.json {
        print!("{}", render_json(&r));
    } else {
        print!("{}", render_human(&r));
    }
    if diags.is_empty() && scan.stale_baseline.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Rewrites the baseline file from (diagnostic, source line) pairs.
fn write_baseline(path: &Path, items: &[(simlint::rules::Diagnostic, String)]) -> ExitCode {
    let text = Baseline::render(items);
    let written = Baseline::parse(&text).len(); // render dedups by key
    match std::fs::write(path, &text) {
        Ok(()) => {
            eprintln!(
                "simlint: wrote {} entr{} to {}",
                written,
                if written == 1 { "y" } else { "ies" },
                path.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simlint: cannot write {}: {e}", path.display());
            ExitCode::from(2)
        }
    }
}
