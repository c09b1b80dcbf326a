//! The `simlint` CLI — the CI gate entry point.
//!
//! ```text
//! simlint [--json] [--update-baseline | --prune-baseline]
//! simlint --rules
//! ```
//!
//! A scan runs both passes over the workspace: the per-file rules over
//! every gate-covered file, then the workspace call-graph rules
//! (PANIC-REACH / SHARD-ISO / THREAD-DET / TELEM-CONS), against the
//! root's `simlint.baseline`. Exit code 0 iff
//! every finding is suppressed (inline allow marker or baseline entry)
//! AND no baseline entry is stale; 1 if any live finding or stale entry
//! remains; 2 on usage errors.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use simlint::baseline::Baseline;
use simlint::emit::{render_human, render_json, Report};
use simlint::find_workspace_root;

struct Args {
    json: bool,
    update_baseline: bool,
    prune_baseline: bool,
    rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        update_baseline: false,
        prune_baseline: false,
        rules: false,
    };
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--json" => args.json = true,
            "--update-baseline" => args.update_baseline = true,
            "--prune-baseline" => args.prune_baseline = true,
            "--rules" => args.rules = true,
            "--help" | "-h" => {
                return Err(
                    "usage: simlint [--json] [--update-baseline | --prune-baseline] \
                            | simlint --rules"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.update_baseline && args.prune_baseline {
        return Err("--update-baseline and --prune-baseline are mutually exclusive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("simlint: {msg}");
            return ExitCode::from(2);
        }
    };

    if args.rules {
        // Every rule of both passes with its one-line doc.
        let all = simlint::rules::RULES
            .iter()
            .chain(&simlint::wsrules::WS_RULES);
        let width = all.clone().map(|(id, _)| id.len()).max().unwrap_or(0);
        for (id, doc) in all {
            println!("{id:width$}  {doc}");
        }
        return ExitCode::SUCCESS;
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(root) = find_workspace_root(&cwd) else {
        eprintln!("simlint: no workspace root (Cargo.toml with [workspace]) above {cwd:?}");
        return ExitCode::from(2);
    };
    let baseline_path = root.join("simlint.baseline");
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

    let diags = scan.diagnostics();
    let r = Report {
        diagnostics: &diags,
        files_scanned: scan.files_scanned,
        baselined: scan.baselined.len(),
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
