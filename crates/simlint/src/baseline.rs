//! Per-rule allowlist baselines.
//!
//! A baseline entry suppresses one known, reviewed diagnostic without
//! touching the source file. Entries are keyed on the *normalized text*
//! of the offending source line — not the line number — so they survive
//! unrelated edits above the site and go stale (start failing) only
//! when the flagged code itself changes, which is exactly when a human
//! should re-review it.
//!
//! File format (`simlint.baseline`, tab-separated, sorted, one entry
//! per line; `#` comments and blanks ignored):
//!
//! ```text
//! RULE-ID<TAB>workspace/relative/path.rs<TAB>normalized source line
//! ```

use std::collections::BTreeSet;

use crate::rules::Diagnostic;

/// A loaded (or freshly built) baseline.
#[derive(Debug, Default)]
pub struct Baseline {
    /// (rule, file, normalized line text).
    entries: BTreeSet<(String, String, String)>,
}

/// Collapses all whitespace runs to single spaces and trims, so
/// reformatting alone does not invalidate an entry.
pub fn normalize_line(line: &str) -> String {
    line.split_whitespace().collect::<Vec<_>>().join(" ")
}

impl Baseline {
    /// Parses the baseline file contents. Malformed lines are skipped
    /// (an over-strict parser here would brick the gate on a typo).
    pub fn parse(text: &str) -> Baseline {
        let mut entries = BTreeSet::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, '\t');
            if let (Some(rule), Some(file), Some(src)) = (parts.next(), parts.next(), parts.next())
            {
                entries.insert((rule.to_string(), file.to_string(), normalize_line(src)));
            }
        }
        Baseline { entries }
    }

    /// The entry key a diagnostic on `src_line` would match.
    pub fn key(d: &Diagnostic, src_line: &str) -> (String, String, String) {
        (d.rule.clone(), d.file.clone(), normalize_line(src_line))
    }

    /// Is this diagnostic suppressed? `src_line` is the raw text of the
    /// flagged source line.
    pub fn suppresses(&self, d: &Diagnostic, src_line: &str) -> bool {
        self.entries.contains(&Baseline::key(d, src_line))
    }

    /// Entries that matched none of the given findings — stale entries
    /// whose flagged code has changed or disappeared, which must be
    /// re-reviewed (and pruned) rather than silently carried.
    pub fn stale(&self, matched: &[(Diagnostic, String)]) -> Vec<(String, String, String)> {
        let used: BTreeSet<(String, String, String)> = matched
            .iter()
            .map(|(d, src)| Baseline::key(d, src))
            .collect();
        self.entries.difference(&used).cloned().collect()
    }

    /// Renders a baseline file from a set of (diagnostic, source line)
    /// pairs — the `--update-baseline` path. Output is sorted and
    /// deduplicated, so regeneration is idempotent and diff-friendly.
    pub fn render(items: &[(Diagnostic, String)]) -> String {
        let mut set = BTreeSet::new();
        for (d, src) in items {
            set.insert(format!("{}\t{}\t{}", d.rule, d.file, normalize_line(src)));
        }
        let mut out = String::from(
            "# simlint baseline: reviewed pre-existing diagnostics.\n\
             # Entries key on normalized source text, not line numbers; an entry\n\
             # goes stale (and the gate fails) only when the flagged line changes.\n\
             # Regenerate with: cargo run -p simlint -- --update-baseline\n",
        );
        for line in set {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &str, file: &str, line: u32) -> Diagnostic {
        Diagnostic {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message: String::new(),
        }
    }

    #[test]
    fn suppression_is_line_number_independent() {
        let b = Baseline::parse("PANIC-REACH\tsrc/a.rs\tx . unwrap ( ) ;");
        let d = diag("PANIC-REACH", "src/a.rs", 999);
        assert!(b.suppresses(&d, "   x . unwrap ( ) ;  "));
        assert!(!b.suppresses(&d, "y.unwrap();"));
        assert!(!b.suppresses(&diag("DET-HASH", "src/a.rs", 999), "x . unwrap ( ) ;"));
    }

    #[test]
    fn render_parse_round_trip() {
        let items = vec![
            (diag("B", "f.rs", 2), "  two  ".to_string()),
            (diag("A", "f.rs", 1), "one".to_string()),
            (diag("A", "f.rs", 1), "one".to_string()), // dup collapses
        ];
        let text = Baseline::render(&items);
        let b = Baseline::parse(&text);
        assert_eq!(b.len(), 2);
        assert!(b.suppresses(&diag("A", "f.rs", 7), "one"));
        assert!(b.suppresses(&diag("B", "f.rs", 7), "two"));
    }

    #[test]
    fn comments_and_garbage_are_ignored() {
        let b = Baseline::parse("# header\n\nnot-enough-fields\n");
        assert!(b.is_empty());
    }
}
