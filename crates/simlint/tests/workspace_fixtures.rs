//! Fixture-driven acceptance tests for the workspace pass: each of the
//! four inter-file rules has a known-bad fixture that must be flagged
//! with the exact (rule, file, line) triples and a known-good
//! counterpart that must scan clean. Fixtures live under `fixtures/ws/`
//! and are mounted at synthetic workspace-relative paths, because the
//! workspace rules key on where a file sits (hot files, shard files,
//! the `simkit::par` doorway), not just on its contents.

use std::path::Path;
use std::process::Command;

use simlint::callgraph::CallGraph;
use simlint::context::FileContext;
use simlint::rules::Diagnostic;
use simlint::wsrules::{check_workspace, Workspace};

fn fixture(rel: &str) -> String {
    let abs = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&abs).unwrap_or_else(|e| panic!("read fixture {}: {e}", abs.display()))
}

/// Runs the workspace pass over fixtures mounted at synthetic
/// workspace-relative paths: `(mount_path, fixture_path)`.
fn ws_scan(mounts: &[(&str, &str)], report: Option<&str>) -> Vec<Diagnostic> {
    let files: Vec<(String, FileContext)> = mounts
        .iter()
        .map(|&(ws_path, fixture_rel)| {
            let src = fixture(fixture_rel);
            (ws_path.to_string(), FileContext::new(ws_path, &src))
        })
        .collect();
    let graph = CallGraph::build(&files);
    let report_text = report.map(fixture);
    check_workspace(&Workspace {
        files: &files,
        graph: &graph,
        report: report_text.as_deref(),
    })
}

/// Asserts the exact (rule, file, line) list for one scenario.
fn assert_ws(mounts: &[(&str, &str)], report: Option<&str>, expected: &[(&str, &str, u32)]) {
    let got: Vec<(String, String, u32)> = ws_scan(mounts, report)
        .into_iter()
        .map(|d| (d.rule, d.file, d.line))
        .collect();
    let want: Vec<(String, String, u32)> = expected
        .iter()
        .map(|&(r, f, l)| (r.to_string(), f.to_string(), l))
        .collect();
    assert_eq!(got, want, "workspace diagnostics for {mounts:?}");
}

#[test]
fn panic_reach_pair() {
    let bad = [
        (
            "crates/smartdimm/src/device.rs",
            "fixtures/ws/bad/panic_reach_device.rs",
        ),
        (
            "crates/ulp/src/lib.rs",
            "fixtures/ws/bad/panic_reach_ulp.rs",
        ),
    ];
    assert_ws(
        &bad,
        None,
        &[
            ("PANIC-REACH", "crates/ulp/src/lib.rs", 4),
            ("PANIC-REACH", "crates/ulp/src/lib.rs", 6),
            ("PANIC-REACH", "crates/ulp/src/lib.rs", 12),
        ],
    );
    // The rendered call path names the hot entry point; `on_line`'s
    // array-typed signature does not hide it from the graph.
    let d = ws_scan(&bad, None);
    let entry = |line| if line == 12 { "on_line" } else { "on_step" };
    assert!(
        d.iter().all(|d| d
            .message
            .contains(&format!("smartdimm::device::{}", entry(d.line)))),
        "{d:?}"
    );

    assert_ws(
        &[
            (
                "crates/smartdimm/src/device.rs",
                "fixtures/ws/good/panic_reach_device.rs",
            ),
            (
                "crates/ulp/src/lib.rs",
                "fixtures/ws/good/panic_reach_ulp.rs",
            ),
        ],
        None,
        &[],
    );
}

/// PANIC-REACH roots at every hot-file function, so panic sites inside
/// the hot files themselves are flagged too (the per-file fixtures'
/// `device.rs` pair, mounted as the device hot file).
#[test]
fn panic_reach_covers_hot_files() {
    assert_ws(
        &[("crates/smartdimm/src/device.rs", "fixtures/bad/device.rs")],
        None,
        &[
            ("PANIC-REACH", "crates/smartdimm/src/device.rs", 5),
            ("PANIC-REACH", "crates/smartdimm/src/device.rs", 10),
        ],
    );
    assert_ws(
        &[("crates/smartdimm/src/device.rs", "fixtures/good/device.rs")],
        None,
        &[],
    );
}

#[test]
fn shard_iso_pair() {
    assert_ws(
        &[
            (
                "crates/smartdimm/src/dsa.rs",
                "fixtures/ws/bad/shard_iso_shard.rs",
            ),
            (
                "crates/platforms/src/server.rs",
                "fixtures/ws/bad/shard_iso_host.rs",
            ),
        ],
        None,
        &[
            ("SHARD-ISO", "crates/platforms/src/server.rs", 5),
            ("SHARD-ISO", "crates/platforms/src/server.rs", 7),
            ("SHARD-ISO", "crates/smartdimm/src/dsa.rs", 4),
            ("SHARD-ISO", "crates/smartdimm/src/dsa.rs", 5),
        ],
    );
    assert_ws(
        &[
            (
                "crates/smartdimm/src/dsa.rs",
                "fixtures/ws/good/shard_iso_shard.rs",
            ),
            (
                "crates/platforms/src/server.rs",
                "fixtures/ws/good/shard_iso_host.rs",
            ),
        ],
        None,
        &[],
    );
}

#[test]
fn thread_det_pair() {
    assert_ws(
        &[(
            "crates/platforms/src/pipeline.rs",
            "fixtures/ws/bad/thread_det.rs",
        )],
        None,
        &[
            ("THREAD-DET", "crates/platforms/src/pipeline.rs", 3),
            ("THREAD-DET", "crates/platforms/src/pipeline.rs", 4),
            ("THREAD-DET", "crates/platforms/src/pipeline.rs", 7),
            ("THREAD-DET", "crates/platforms/src/pipeline.rs", 8),
        ],
    );
    assert_ws(
        &[(
            "crates/platforms/src/pipeline.rs",
            "fixtures/ws/good/thread_det.rs",
        )],
        None,
        &[],
    );
}

#[test]
fn telem_cons_pair() {
    assert_ws(
        &[(
            "crates/memsys/src/telem.rs",
            "fixtures/ws/bad/telem_cons.rs",
        )],
        Some("fixtures/ws/bad/telem_report.json"),
        &[
            ("TELEM-CONS", "crates/memsys/src/telem.rs", 7),
            ("TELEM-CONS", "crates/memsys/src/telem.rs", 8),
            ("TELEM-CONS", "results/run_report.json", 7),
        ],
    );
    assert_ws(
        &[(
            "crates/memsys/src/telem.rs",
            "fixtures/ws/good/telem_cons.rs",
        )],
        Some("fixtures/ws/good/telem_report.json"),
        &[],
    );
}

/// `--rules` is the self-documenting registry: every rule ID from both
/// passes must be listed exactly once, in registry order, with a
/// non-empty one-line doc.
#[test]
fn rules_listing_matches_registry() {
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("--rules")
        .output()
        .expect("run simlint --rules");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = text.lines().collect();
    let all: Vec<&str> = (simlint::rules::RULES.iter())
        .chain(&simlint::wsrules::WS_RULES)
        .map(|&(id, _)| id)
        .collect();
    assert_eq!(
        all.len(),
        10,
        "six per-file rules plus four workspace rules"
    );
    let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "duplicate rule id in {all:?}");
    assert_eq!(lines.len(), all.len(), "one line per rule:\n{text}");
    for (line, id) in lines.iter().zip(&all) {
        let (got_id, doc) = line
            .split_once("  ")
            .unwrap_or_else(|| panic!("`{line}` is not `ID  doc`"));
        assert_eq!(got_id.trim_end(), *id);
        assert!(!doc.trim().is_empty(), "rule {id} needs a one-line doc");
    }
}
