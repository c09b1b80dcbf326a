//! The per-file rule registry: five families of syntactic invariants
//! tied to the SmartDIMM mechanism the simulator reproduces.
//!
//! | id            | family            | invariant                                                     |
//! |---------------|-------------------|---------------------------------------------------------------|
//! | `DET-NOW`     | determinism       | no wall-clock / OS randomness in sim code                     |
//! | `DET-HASH`    | determinism       | no `HashMap`/`HashSet` (hasher-seed–dependent iteration)      |
//! | `PANIC-INDEX` | panic-freedom     | no panicking `[]` indexing on the device-side hot path        |
//! | `PROTO-MMIO`  | protocol shape    | MMIO descriptors go through the typed 64 B `to_bytes` API     |
//! | `PAIR-SCRATCH`| paired resource   | every `Scratchpad` reserve has a release on its error paths   |
//! | `FAULT-STATS` | fault visibility  | every `FaultHandle` consult records a stats counter           |
//!
//! Rules are purely syntactic (token-level); they trade soundness for
//! zero dependencies and speed, and rely on the baseline/allow
//! mechanisms for the residue. Test code (`#[cfg(test)]`, `#[test]`) is
//! exempt everywhere: tests may panic and may use `HashMap` oracles.
//! `unwrap`/`expect`/`panic!` sites are the workspace rule PANIC-REACH's
//! job ([`crate::wsrules`]): it roots at every hot-file function, so it
//! covers the hot files themselves and everything they call.

use crate::context::FileContext;
use crate::lexer::TokKind;

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id, e.g. `DET-HASH`.
    pub rule: String,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

/// Files the hot-path panic-freedom rules (PANIC-INDEX here, PANIC-REACH
/// in [`crate::wsrules`]) apply to: the per-CAS device dataflow (arbiter,
/// DSA, Scratchpad, Translation Table). A panic here is a
/// simulated-hardware fault triggered by host-controlled input.
pub const HOT_FILES: [&str; 4] = ["device.rs", "dsa.rs", "scratchpad.rs", "xlat.rs"];

/// `FaultHandle` methods whose call sites must record a stats counter.
const FAULT_CONSULTS: [&str; 4] = [
    "drop_source_feed",
    "writeback_faults",
    "tcp_force_drop",
    "begin_offload",
];

/// Identifier substrings that count as "a stats counter was bumped"
/// for `FAULT-STATS` (e.g. `self.stats.dropped_feeds += 1`,
/// `run.forced_drops += 1`, `self.fault_disturbances += 1`).
const COUNTER_HINTS: [&str; 8] = [
    "stat", "drop", "defer", "disturb", "inject", "fired", "recycle", "fault",
];

/// Per-file rules with their one-line docs, for `--rules`.
pub const RULES: [(&str, &str); 6] = [
    (
        "DET-NOW",
        "no wall-clock/OS-entropy sources in live sim code; use simkit::Cycle and DetRng",
    ),
    (
        "DET-HASH",
        "no HashMap/HashSet in live sim code; hasher-seeded iteration breaks replay",
    ),
    (
        "PANIC-INDEX",
        "no panicking [..] indexing in the device hot-path files; use .get() or baseline",
    ),
    (
        "PROTO-MMIO",
        "MMIO config writes go through the typed 64 B descriptor API, never raw byte buffers",
    ),
    (
        "PAIR-SCRATCH",
        "every Scratchpad reserve is paired with a release on its error paths",
    ),
    (
        "FAULT-STATS",
        "every FaultHandle consult bumps a stats counter so faults are never silent",
    ),
];

/// Runs every applicable rule over one file.
pub fn check_file(ctx: &FileContext) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    det_now(ctx, &mut diags);
    det_hash(ctx, &mut diags);
    if HOT_FILES.contains(&ctx.file_name.as_str()) {
        panic_index(ctx, &mut diags);
    }
    proto_mmio(ctx, &mut diags);
    pair_scratch(ctx, &mut diags);
    if !ctx.path.starts_with("crates/simkit") {
        fault_stats(ctx, &mut diags);
    }
    // Inline allow markers.
    diags.retain(|d| !ctx.is_allowed(&d.rule, d.line));
    diags.sort();
    diags
}

fn push(diags: &mut Vec<Diagnostic>, ctx: &FileContext, rule: &str, line: u32, message: String) {
    diags.push(Diagnostic {
        file: ctx.path.clone(),
        line,
        rule: rule.to_string(),
        message,
    });
}

/// DET-NOW: `Instant::now`, `SystemTime`, `thread_rng` make a replay
/// diverge between runs. Simulation time is `simkit::Cycle`; randomness
/// is `simkit::rng::DetRng` seeded from the workload config.
fn det_now(ctx: &FileContext, diags: &mut Vec<Diagnostic>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(i) {
            continue;
        }
        let bad = match t.text.as_str() {
            "Instant" => {
                // Only `Instant::now(...)` is nondeterministic; the type
                // name alone can appear in deterministic shims.
                ctx.toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                    && ctx.toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
                    && ctx.toks.get(i + 3).is_some_and(|a| a.is_ident("now"))
            }
            "SystemTime" | "thread_rng" => true,
            _ => false,
        };
        if bad {
            push(
                diags,
                ctx,
                "DET-NOW",
                t.line,
                format!(
                    "nondeterministic source `{}` breaks trace replay; use simkit::Cycle for time \
                     and simkit::rng::DetRng for randomness",
                    t.text
                ),
            );
        }
    }
}

/// DET-HASH: `HashMap`/`HashSet` iteration order depends on the
/// per-process hasher seed, so any drain/iterate over one silently
/// breaks byte- and trace-determinism. Require `BTreeMap`/`BTreeSet`
/// or explicitly sorted iteration.
fn det_hash(ctx: &FileContext, diags: &mut Vec<Diagnostic>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(i) {
            continue;
        }
        if t.text == "HashMap" || t.text == "HashSet" {
            push(
                diags,
                ctx,
                "DET-HASH",
                t.line,
                format!(
                    "`{}` iteration order depends on the hasher seed and breaks deterministic \
                     replay; use BTree{} or sort before iterating",
                    t.text,
                    &t.text[4..]
                ),
            );
        }
    }
}

/// PANIC-INDEX: `a[i]` indexing on the hot path panics on
/// out-of-bounds; use `.get()`/iterators, or baseline indices that are
/// bounded by construction.
fn panic_index(ctx: &FileContext, diags: &mut Vec<Diagnostic>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if !t.is_punct('[') || i == 0 || ctx.in_test(i) {
            continue;
        }
        let prev = &ctx.toks[i - 1];
        // An index expression follows an ident, `]` or `)`; everything
        // else (`#[attr]`, `vec![..]`, `&[u8; 64]`, `: [T; N]`) does not.
        let is_index = (prev.kind == TokKind::Ident && !is_macro_ident(ctx, i - 1))
            || prev.is_punct(']')
            || prev.is_punct(')');
        if is_index {
            push(
                diags,
                ctx,
                "PANIC-INDEX",
                t.line,
                "`[..]` indexing on the device-side hot path panics out-of-bounds; use `.get()` \
                 or baseline indices bounded by construction"
                    .to_string(),
            );
        }
    }
}

/// Is the ident at `i` a macro name (followed by `!`)?
fn is_macro_ident(ctx: &FileContext, i: usize) -> bool {
    ctx.toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
}

/// PROTO-MMIO: offload registration descriptors are typed 64-byte
/// structures (`Registration`, `ContextChunk`); writing raw byte arrays
/// into the config space bypasses the descriptor layout the device
/// decodes and silently desynchronizes host and device.
fn proto_mmio(ctx: &FileContext, diags: &mut Vec<Diagnostic>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(i) {
            continue;
        }
        if t.text != "mmio_write64" && t.text != "mmio_broadcast" {
            continue;
        }
        // Skip the definition (`fn mmio_write64`).
        if i > 0 && ctx.toks[i - 1].is_ident("fn") {
            continue;
        }
        let Some(open) = ctx.toks.get(i + 1).filter(|a| a.is_punct('(')) else {
            continue;
        };
        let _ = open;
        // Collect the argument tokens up to the matching `)`.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut args = Vec::new();
        while j < ctx.toks.len() {
            let a = &ctx.toks[j];
            if a.is_punct('(') {
                depth += 1;
            } else if a.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if depth >= 1 {
                args.push(j);
            }
            j += 1;
        }
        let has_to_bytes = args.iter().any(|&k| ctx.toks[k].is_ident("to_bytes"));
        if has_to_bytes {
            continue;
        }
        // Raw array literal in the data argument: `[` preceded by `&`,
        // `,` or `(` is a literal/borrowed array, not indexing.
        let raw_array = args.iter().any(|&k| {
            ctx.toks[k].is_punct('[')
                && k > 0
                && (ctx.toks[k - 1].is_punct('&')
                    || ctx.toks[k - 1].is_punct(',')
                    || ctx.toks[k - 1].is_punct('('))
        });
        let names_descriptor_reg = args.iter().any(|&k| {
            ctx.toks[k].is_ident("REGISTER_OFFSET") || ctx.toks[k].is_ident("CONTEXT_OFFSET")
        });
        if raw_array || names_descriptor_reg {
            push(
                diags,
                ctx,
                "PROTO-MMIO",
                t.line,
                format!(
                    "`{}` writes a raw byte buffer into the MMIO config space; offload \
                     registration must go through the typed 64 B descriptor API \
                     (Registration::to_bytes / ContextChunk::to_bytes)",
                    t.text
                ),
            );
        }
    }
}

/// PAIR-SCRATCH: a function that reserves a Scratchpad page
/// (`*scratch*.alloc(..)`) must also contain a release
/// (`force_free`/`recycle`/`set_expected`) so its error paths can
/// unwind the reservation — the exact bug class the PR 1 fault sweep
/// found in the cuckoo-insert rollback.
fn pair_scratch(ctx: &FileContext, diags: &mut Vec<Diagnostic>) {
    for f in ctx.fns() {
        let toks = &ctx.toks[f.span.start..=f.span.end];
        let mut alloc_line = None;
        for (k, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Ident
                && t.text.to_lowercase().contains("scratch")
                && toks.get(k + 1).is_some_and(|a| a.is_punct('.'))
                && toks.get(k + 2).is_some_and(|a| a.is_ident("alloc"))
                && toks.get(k + 3).is_some_and(|a| a.is_punct('('))
            {
                alloc_line = Some(toks[k + 2].line);
                break;
            }
        }
        let Some(line) = alloc_line else { continue };
        let has_release = toks.iter().any(|t| {
            t.is_ident("force_free") || t.is_ident("recycle") || t.is_ident("set_expected")
        });
        if !has_release {
            push(
                diags,
                ctx,
                "PAIR-SCRATCH",
                line,
                format!(
                    "`{}` reserves a Scratchpad page but never releases one; every reserve must \
                     be paired with force_free/recycle/set_expected on its error paths or the \
                     page leaks until Force-Recycle",
                    f.name
                ),
            );
        }
    }
}

/// FAULT-STATS: every `FaultHandle` consult site must make the injected
/// fault observable through a stats counter — otherwise a fault the
/// plan armed can be swallowed with no trace, and the differential
/// oracle cannot distinguish "fault tolerated" from "fault never
/// fired". The enclosing function must bump a counter (`+=` onto an
/// identifier that looks like one).
fn fault_stats(ctx: &FileContext, diags: &mut Vec<Diagnostic>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(i) {
            continue;
        }
        if !FAULT_CONSULTS.contains(&t.text.as_str()) {
            continue;
        }
        if i > 0 && ctx.toks[i - 1].is_ident("fn") {
            continue; // definition, not a consult
        }
        if !ctx.toks.get(i + 1).is_some_and(|a| a.is_punct('(')) {
            continue; // doc-link or path mention, not a call
        }
        let Some(f) = ctx.enclosing_fn(i) else {
            continue;
        };
        let toks = &ctx.toks[f.span.start..=f.span.end];
        let mut counted = false;
        for k in 0..toks.len().saturating_sub(1) {
            if toks[k].is_punct('+') && toks[k + 1].is_punct('=') {
                // Look back a few tokens for a counter-ish identifier.
                let lo = k.saturating_sub(8);
                if toks[lo..k].iter().any(|b| {
                    b.kind == TokKind::Ident
                        && COUNTER_HINTS
                            .iter()
                            .any(|h| b.text.to_lowercase().contains(h))
                }) {
                    counted = true;
                    break;
                }
            }
        }
        if !counted {
            push(
                diags,
                ctx,
                "FAULT-STATS",
                t.line,
                format!(
                    "`{}` consults the fault injector but `{}` records no stats counter; bump a \
                     counter so injected faults are never silently swallowed",
                    t.text, f.name
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        check_file(&FileContext::new(path, src))
    }

    #[test]
    fn det_now_flags_instant_now_only() {
        let d = diags("crates/x/src/a.rs", "fn f() { let t = Instant::now(); }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "DET-NOW");
        assert!(diags("crates/x/src/a.rs", "fn f(t: Instant) {}").is_empty());
    }

    #[test]
    fn det_hash_exempts_tests() {
        let src = "
            use std::collections::HashMap;
            #[cfg(test)]
            mod tests { use std::collections::HashMap; }
        ";
        let d = diags("crates/x/src/a.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn panic_index_scopes_to_hot_files() {
        let src = "fn f(v: Vec<u8>, i: usize) -> u8 { v[i] }";
        assert_eq!(diags("crates/x/src/device.rs", src).len(), 1);
        assert!(diags("crates/x/src/other.rs", src).is_empty());
    }

    #[test]
    fn panic_index_ignores_types_attrs_and_macros() {
        let src = "
            #[derive(Debug)]
            struct S { a: [u8; 64] }
            fn f(s: &S, i: usize) -> u8 { let v = vec![1, 2]; s.a[i] }
        ";
        let d = diags("crates/x/src/xlat.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "PANIC-INDEX");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "
            fn f(v: Vec<u8>) -> u8 {
                // simlint: allow(PANIC-INDEX): bounded by construction
                v[0]
            }
        ";
        assert!(diags("crates/x/src/device.rs", src).is_empty());
    }

    #[test]
    fn proto_mmio_requires_typed_descriptor() {
        let bad = "fn f(&mut self) { self.mmio_broadcast(REGISTER_OFFSET, &[0u8; 64]); }";
        let good = "fn f(&mut self, r: Registration) {
            self.mmio_broadcast(REGISTER_OFFSET, &r.to_bytes());
        }";
        assert_eq!(diags("crates/x/src/host.rs", bad).len(), 1);
        assert!(diags("crates/x/src/host.rs", good).is_empty());
    }

    #[test]
    fn pair_scratch_requires_release() {
        let bad = "
            fn reserve(&mut self) {
                let sp = self.scratchpad.alloc(at, page, mask);
                self.xlat.insert(page, m);
            }
        ";
        let good = "
            fn reserve(&mut self) {
                let sp = self.scratchpad.alloc(at, page, mask);
                if self.xlat.insert(page, m).is_err() {
                    self.scratchpad.force_free(at, sp);
                }
            }
        ";
        let d = diags("crates/x/src/host.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "PAIR-SCRATCH");
        assert!(diags("crates/x/src/host.rs", good).is_empty());
    }

    #[test]
    fn fault_stats_requires_counter() {
        let bad = "
            fn hook(&mut self) -> bool {
                if self.fault.drop_source_feed(3) { return true; }
                false
            }
        ";
        let good = "
            fn hook(&mut self) -> bool {
                if self.fault.drop_source_feed(3) {
                    self.stats.dropped_feeds += 1;
                    return true;
                }
                false
            }
        ";
        let d = diags("crates/x/src/hooks.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "FAULT-STATS");
        assert!(diags("crates/x/src/hooks.rs", good).is_empty());
        // The defining crate is exempt.
        assert!(diags("crates/simkit/src/fault.rs", bad).is_empty());
    }
}
