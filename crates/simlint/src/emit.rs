//! Diagnostic rendering: human-readable text and machine-readable JSON.
//!
//! The JSON emitter is hand-rolled (zero dependencies) and *stable*:
//! diagnostics are pre-sorted by (file, line, rule), keys are emitted in
//! a fixed order, and nothing environment-dependent (timestamps, paths
//! outside the workspace) appears in the output — so snapshots diff
//! cleanly and CI artifacts are reproducible.

use crate::rules::Diagnostic;

/// Summary of one run, for both output formats.
pub struct Report<'a> {
    pub diagnostics: &'a [Diagnostic],
    pub files_scanned: usize,
    /// Diagnostics suppressed by the baseline file.
    pub baselined: usize,
    /// Stale baseline entries (rule, file, normalized source) — a hard
    /// error: the reviewed code changed, so the review is void.
    pub stale_baseline: &'a [(String, String, String)],
}

/// Human-readable listing: one `file:line: [RULE] message` per finding,
/// stale baseline entries, plus a one-line summary.
pub fn render_human(r: &Report) -> String {
    let mut out = String::new();
    for d in r.diagnostics {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            d.file, d.line, d.rule, d.message
        ));
    }
    for (rule, file, src) in r.stale_baseline {
        out.push_str(&format!(
            "{file}: stale baseline entry [{rule}] `{src}` matches no current finding; \
             re-review and run --prune-baseline\n"
        ));
    }
    out.push_str(&format!(
        "simlint: {} finding{} in {} file{} ({} baselined, {} stale)\n",
        r.diagnostics.len(),
        if r.diagnostics.len() == 1 { "" } else { "s" },
        r.files_scanned,
        if r.files_scanned == 1 { "" } else { "s" },
        r.baselined,
        r.stale_baseline.len(),
    ));
    out
}

/// Stable JSON document (schema v2: adds `passes` + `stale_baseline`).
pub fn render_json(r: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": 2,\n");
    out.push_str("  \"tool\": \"simlint\",\n");
    // Both passes always run; the field stays for schema v2 readers.
    out.push_str("  \"passes\": [\"file\", \"workspace\"],\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", r.files_scanned));
    out.push_str(&format!("  \"baselined\": {},\n", r.baselined));
    out.push_str("  \"stale_baseline\": [");
    for (i, (rule, file, src)) in r.stale_baseline.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"rule\": {}, ", json_str(rule)));
        out.push_str(&format!("\"file\": {}, ", json_str(file)));
        out.push_str(&format!("\"source\": {}", json_str(src)));
        out.push('}');
    }
    if !r.stale_baseline.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str("  \"diagnostics\": [");
    for (i, d) in r.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"rule\": {}, ", json_str(&d.rule)));
        out.push_str(&format!("\"file\": {}, ", json_str(&d.file)));
        out.push_str(&format!("\"line\": {}, ", d.line));
        out.push_str(&format!("\"message\": {}", json_str(&d.message)));
        out.push('}');
    }
    if !r.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Escapes a string per RFC 8259 (the subset our messages need, plus a
/// general `\u` fallback for control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![Diagnostic {
            rule: "DET-HASH".to_string(),
            file: "crates/x/src/a.rs".to_string(),
            line: 3,
            message: "say \"no\"".to_string(),
        }]
    }

    #[test]
    fn json_escapes_quotes() {
        let diags = sample();
        let r = Report {
            diagnostics: &diags,
            files_scanned: 1,
            baselined: 0,
            stale_baseline: &[],
        };
        let j = render_json(&r);
        assert!(j.contains(r#""message": "say \"no\"""#), "{j}");
        assert!(j.contains(r#""files_scanned": 1"#));
    }

    #[test]
    fn empty_report_is_valid_json() {
        let r = Report {
            diagnostics: &[],
            files_scanned: 42,
            baselined: 7,
            stale_baseline: &[],
        };
        let j = render_json(&r);
        assert!(j.contains("\"diagnostics\": []"), "{j}");
    }

    #[test]
    fn human_summary_counts() {
        let diags = sample();
        let stale = vec![(
            "PANIC-REACH".to_string(),
            "crates/x/src/b.rs".to_string(),
            "y.unwrap();".to_string(),
        )];
        let r = Report {
            diagnostics: &diags,
            files_scanned: 2,
            baselined: 1,
            stale_baseline: &stale,
        };
        let h = render_human(&r);
        assert!(h.contains("crates/x/src/a.rs:3: [DET-HASH]"));
        assert!(h.contains("stale baseline entry [PANIC-REACH]"), "{h}");
        assert!(h.contains("1 finding in 2 files (1 baselined, 1 stale)"));
    }
}
