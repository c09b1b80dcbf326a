//! Fixture-driven acceptance tests: every known-bad snippet must be
//! flagged with the exact (rule, file, line) triple, and every
//! known-good counterpart must scan clean. A final snapshot test pins
//! the JSON output format byte-for-byte.

use std::path::Path;

use simlint::emit::{render_json, Report};
use simlint::rules::Diagnostic;
use simlint::scan_source;

/// Scans a fixture by its path relative to the crate root.
fn scan_fixture(rel: &str) -> Vec<Diagnostic> {
    let abs = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let src = std::fs::read_to_string(&abs)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", abs.display()));
    scan_source(rel, &src)
}

/// Asserts the exact (rule, line) list for one bad fixture.
fn assert_flags(rel: &str, expected: &[(&str, u32)]) {
    let got: Vec<(String, u32)> = scan_fixture(rel)
        .into_iter()
        .map(|d| {
            assert_eq!(d.file, rel, "diagnostic carries the scanned path");
            (d.rule, d.line)
        })
        .collect();
    let want: Vec<(String, u32)> = expected.iter().map(|&(r, l)| (r.to_string(), l)).collect();
    assert_eq!(got, want, "diagnostics for {rel}");
}

fn assert_clean(rel: &str) {
    let got = scan_fixture(rel);
    assert!(got.is_empty(), "{rel} should be clean, got {got:?}");
}

#[test]
fn det_now_pair() {
    assert_flags(
        "fixtures/bad/det_now.rs",
        &[("DET-NOW", 4), ("DET-NOW", 5), ("DET-NOW", 6)],
    );
    assert_clean("fixtures/good/det_now.rs");
}

#[test]
fn det_hash_pair() {
    assert_flags(
        "fixtures/bad/det_hash.rs",
        &[("DET-HASH", 3), ("DET-HASH", 5)],
    );
    assert_clean("fixtures/good/det_hash.rs");
}

/// The fixture's panic sites (lines 5 and 10) are PANIC-REACH findings,
/// checked by `workspace_fixtures::panic_reach_covers_hot_files`.
#[test]
fn panic_index_pair() {
    assert_flags("fixtures/bad/device.rs", &[("PANIC-INDEX", 4)]);
    assert_clean("fixtures/good/device.rs");
}

#[test]
fn proto_mmio_pair() {
    assert_flags("fixtures/bad/proto_mmio.rs", &[("PROTO-MMIO", 4)]);
    assert_clean("fixtures/good/proto_mmio.rs");
}

#[test]
fn pair_scratch_pair() {
    assert_flags("fixtures/bad/pair_scratch.rs", &[("PAIR-SCRATCH", 4)]);
    assert_clean("fixtures/good/pair_scratch.rs");
}

#[test]
fn fault_stats_pair() {
    assert_flags("fixtures/bad/fault_stats.rs", &[("FAULT-STATS", 4)]);
    assert_clean("fixtures/good/fault_stats.rs");
}

/// The JSON output is a stable machine interface: key order, sorting,
/// escaping, the v2 `passes` and `stale_baseline` fields are all pinned
/// byte-for-byte by this snapshot.
#[test]
fn json_snapshot() {
    let diags = scan_fixture("fixtures/bad/det_hash.rs");
    let stale = vec![(
        "PANIC-INDEX".to_string(),
        "crates/smartdimm/src/xlat.rs".to_string(),
        "self.slots[i] = Some(cur);".to_string(),
    )];
    let report = Report {
        diagnostics: &diags,
        files_scanned: 1,
        baselined: 3,
        stale_baseline: &stale,
    };
    let got = render_json(&report);
    let want = include_str!("snapshot_det_hash.json");
    assert_eq!(
        got, want,
        "JSON snapshot drift — update snapshot_det_hash.json deliberately"
    );
}
