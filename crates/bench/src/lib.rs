//! Shared plumbing for the experiment binaries: the result-file
//! location, a JSON document model and a fixed-width table renderer.
//!
//! The [`figures`] module is the registry of every `results/` artifact
//! (the figures, Table I, the micro-experiments, the ablations, the run
//! report and the backend-differential report) and of the claim shapes
//! they carry; the `figures` binary runs it, writing machine-readable
//! results under `results/` at the workspace root or checking them byte
//! for byte (EXPERIMENTS.md).
//!
//! The [`harness`] module times the *simulator's own* hot paths
//! (wall-clock, not simulated cycles) for the `bench_hotpaths` binary,
//! which writes `BENCH_hotpaths.json` at the repo root. See DESIGN.md §7.
//!
//! The [`differential`] module holds the backend-differential workloads,
//! shared by the `backend_differential` artifact and the
//! `tests/backend_differential.rs` suite.

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;

pub mod differential;
pub mod figures;
pub mod harness;

/// The workspace root.
pub fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

/// Resolves (and creates) the workspace-level `results/` directory.
pub fn results_dir() -> PathBuf {
    let dir = repo_root().join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Minimal JSON document model, replacing serde_json so the workspace
/// builds without network access. Only what the report binaries emit.
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let inner_pad = "  ".repeat(indent + 1);
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&inner_pad);
                    item.render_into(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&inner_pad);
                    out.push_str(&format!("\"{k}\": "));
                    v.render_into(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Renders a fixed-width table: a title line, a header row and the data
/// rows, each cell right-aligned to its column's widest entry.
pub fn table(title: &str, columns: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let cells: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        cells.join("  ") + "\n"
    };
    let rows = rows
        .iter()
        .map(|row| line(row.iter().map(String::as_str).collect()));
    rows.fold(
        format!("\n=== {title} ===\n{}", line(columns.to_vec())),
        |t, r| t + &r,
    )
}

/// Formats a ratio as `1.23x`.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists() {
        assert!(results_dir().is_dir());
    }

    #[test]
    fn formatting() {
        assert_eq!(ratio(1.234), "1.23x");
    }
}
