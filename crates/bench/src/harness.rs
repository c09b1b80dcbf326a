//! Self-timing micro-benchmark harness for the hot-path pass.
//!
//! It is built to be *CI-friendly*: fixed iteration counts, a warmup
//! phase, a median-of-N wall-clock measurement via [`simkit::timer`],
//! and stable JSON emission (`BENCH_hotpaths.json` at the workspace root)
//! that a shell step can assert on. No sampling heuristics, no adaptive run
//! time — smoke mode finishes in seconds on any machine.

use crate::Json;
use simkit::timer::Stopwatch;

/// Iteration plan for one measurement.
#[derive(Debug, Clone, Copy)]
pub struct BenchSpec {
    /// Untimed calls to populate caches and branch predictors.
    pub warmup_iters: u64,
    /// Timed calls per sample.
    pub iters: u64,
    /// Samples taken; the median is reported. Keep this odd.
    pub samples: usize,
}

impl BenchSpec {
    /// Fast plan for CI smoke runs: enough to exercise the code and
    /// produce a parseable report, not enough for stable ratios.
    pub fn smoke() -> BenchSpec {
        BenchSpec {
            warmup_iters: 1,
            iters: 2,
            samples: 3,
        }
    }

    /// Full plan used to produce the committed `BENCH_hotpaths.json`.
    pub fn full() -> BenchSpec {
        BenchSpec {
            warmup_iters: 3,
            iters: 10,
            samples: 7,
        }
    }
}

/// Runs `f` under the spec and returns the median ns per call.
///
/// Each sample times `iters` back-to-back calls with one [`Stopwatch`]
/// and divides, so per-call clock-read overhead never enters the
/// number; the median over samples discards scheduler outliers.
pub fn median_ns_per_op(spec: BenchSpec, mut f: impl FnMut()) -> f64 {
    for _ in 0..spec.warmup_iters {
        f();
    }
    let mut per_op: Vec<f64> = (0..spec.samples)
        .map(|_| {
            let sw = Stopwatch::start();
            for _ in 0..spec.iters {
                f();
            }
            sw.elapsed_ns() as f64 / spec.iters as f64
        })
        .collect();
    per_op.sort_by(|a, b| a.partial_cmp(b).expect("ns/op is never NaN"));
    per_op[per_op.len() / 2]
}

/// One before/after pair in the hot-path report.
#[derive(Debug, Clone)]
pub struct HotPath {
    /// Stable identifier (JSON key), e.g. `"gf128_mul"`.
    pub name: &'static str,
    /// What the `before` measurement runs.
    pub before_impl: &'static str,
    /// What the `after` measurement runs.
    pub after_impl: &'static str,
    /// Units processed per op call (for ns-per-unit context).
    pub work_units: String,
    pub before_ns_per_op: f64,
    pub after_ns_per_op: f64,
}

impl HotPath {
    /// `before / after` — how many times faster the new path is.
    pub fn speedup(&self) -> f64 {
        self.before_ns_per_op / self.after_ns_per_op
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), self.name.into()),
            ("before_impl".into(), self.before_impl.into()),
            ("after_impl".into(), self.after_impl.into()),
            ("work_units".into(), self.work_units.clone().into()),
            ("before_ns_per_op".into(), self.before_ns_per_op.into()),
            ("after_ns_per_op".into(), self.after_ns_per_op.into()),
            ("speedup".into(), self.speedup().into()),
        ])
    }
}

/// Renders the full report document.
pub fn report(mode: &str, spec: BenchSpec, paths: &[HotPath]) -> Json {
    Json::Obj(vec![
        ("schema".into(), "bench_hotpaths/v1".into()),
        ("mode".into(), mode.into()),
        (
            "spec".into(),
            Json::Obj(vec![
                ("warmup_iters".into(), spec.warmup_iters.into()),
                ("iters".into(), spec.iters.into()),
                ("samples".into(), spec.samples.into()),
            ]),
        ),
        (
            "hot_paths".into(),
            Json::Arr(paths.iter().map(HotPath::to_json).collect()),
        ),
    ])
}

/// Minimal JSON well-formedness check (objects, arrays, strings,
/// numbers, booleans, null). Used by the binary's `check` mode so
/// `ci.sh` can assert the emitted report parses without needing an
/// external JSON tool in the container.
pub fn json_parses(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    if !parse_value(bytes, &mut pos) {
        return false;
    }
    skip_ws(bytes, &mut pos);
    pos == bytes.len()
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> bool {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return true;
            }
            loop {
                skip_ws(b, pos);
                if !parse_string(b, pos) {
                    return false;
                }
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return false;
                }
                *pos += 1;
                if !parse_value(b, pos) {
                    return false;
                }
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return true;
                    }
                    _ => return false,
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return true;
            }
            loop {
                if !parse_value(b, pos) {
                    return false;
                }
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return true;
                    }
                    _ => return false,
                }
            }
        }
        Some(b'"') => parse_string(b, pos),
        Some(b't') => eat(b, pos, b"true"),
        Some(b'f') => eat(b, pos, b"false"),
        Some(b'n') => eat(b, pos, b"null"),
        Some(_) => parse_number(b, pos),
        None => false,
    }
}

fn eat(b: &[u8], pos: &mut usize, word: &[u8]) -> bool {
    if b[*pos..].starts_with(word) {
        *pos += word.len();
        true
    } else {
        false
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> bool {
    if b.get(*pos) != Some(&b'"') {
        return false;
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => *pos += 2,
            _ => *pos += 1,
        }
    }
    false
}

fn parse_number(b: &[u8], pos: &mut usize) -> bool {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        *pos = start;
        return false;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return false;
        }
    }
    if matches!(b.get(*pos), Some(&b'e') | Some(&b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(&b'+') | Some(&b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_taken_over_samples() {
        let mut calls = 0u64;
        let spec = BenchSpec {
            warmup_iters: 2,
            iters: 4,
            samples: 5,
        };
        let ns = median_ns_per_op(spec, || calls += 1);
        assert_eq!(calls, 2 + 4 * 5);
        assert!(ns >= 0.0);
    }

    #[test]
    fn report_renders_parseable_json() {
        let paths = vec![HotPath {
            name: "gf128_mul",
            before_impl: "bitwise",
            after_impl: "table",
            work_units: "1 multiply".into(),
            before_ns_per_op: 100.0,
            after_ns_per_op: 25.0,
        }];
        let doc = report("smoke", BenchSpec::smoke(), &paths).render();
        assert!(json_parses(&doc), "emitted report must parse:\n{doc}");
        assert!(doc.contains("\"speedup\": 4"));
    }

    #[test]
    fn json_checker_accepts_and_rejects() {
        assert!(json_parses("{}"));
        assert!(json_parses("[1, 2.5, -3e2, \"a\\\"b\", true, null]"));
        assert!(json_parses("{\"a\": {\"b\": []}}"));
        assert!(!json_parses(""));
        assert!(!json_parses("{"));
        assert!(!json_parses("{\"a\": 1,}"));
        assert!(!json_parses("[1 2]"));
        assert!(!json_parses("{} trailing"));
    }
}
