//! Shared plumbing for the experiment binaries: result-file locations,
//! CSV/JSON emission and a fixed-width table printer.
//!
//! Every `fig*`/`table*`/`ablate*`/`micro*` binary in `src/bin/` prints
//! its table to stdout *and* writes machine-readable results under
//! `results/` at the workspace root, which `EXPERIMENTS.md` references
//! (its appendix maps each artifact back to the binary regenerating it).
//!
//! The [`harness`] module is the exception to the figure-reproduction
//! rule: it times the *simulator's own* hot paths (wall-clock, not
//! simulated cycles) for the `bench_hotpaths` binary, which writes
//! `BENCH_hotpaths.json` at the repo root. See DESIGN.md §7.
//!
//! The [`differential`] module holds the backend-differential workloads,
//! shared by the `backend_differential` report binary and the
//! `tests/backend_differential.rs` suite.

use std::fs;
use std::path::PathBuf;

pub mod differential;
pub mod harness;

/// Resolves (and creates) the workspace-level `results/` directory.
pub fn results_dir() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let dir = manifest
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a CSV file into `results/`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let mut out = String::from(header);
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    let path = results_dir().join(name);
    fs::write(&path, out).expect("write csv");
    println!("\n[results written to {}]", path.display());
}

/// Minimal JSON document model, replacing serde_json so the workspace
/// builds without network access. Only what the `fig*` binaries emit.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
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
            Json::Null => out.push_str("null"),
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

/// Conversion into the JSON document model; the replacement for
/// `serde::Serialize` in result emission.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|v| v.to_json()).collect())
    }
}

/// Writes a JSON file into `results/`.
pub fn write_json<T: ToJson>(name: &str, value: &T) {
    let path = results_dir().join(name);
    fs::write(&path, value.to_json().render()).expect("write json");
    println!("[results written to {}]", path.display());
}

/// Prints a fixed-width table: header row plus data rows.
pub fn print_table(title: &str, columns: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let header: Vec<String> = columns
        .iter()
        .zip(&widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect();
    println!("{}", header.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a ratio as `1.23x`.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
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
        assert_eq!(pct(0.215), "21.5%");
    }
}
