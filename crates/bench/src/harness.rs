//! Self-timing micro-benchmark harness for the hot-path pass.
//!
//! It is built to be *CI-friendly*: fixed iteration counts, a warmup
//! phase, before and after timed in alternating pairs via
//! [`simkit::timer`] (median ratio plus its interquartile range), and
//! stable JSON emission (`BENCH_hotpaths.json` at the workspace root)
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
    /// Alternating before/after pairs taken; medians and quartiles are
    /// reported.
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
            samples: 11,
        }
    }
}

/// Wall-clock ns per call of `f` over one sample of `iters` calls: one
/// [`Stopwatch`] around the loop, so per-call clock reads never enter
/// the number.
fn sample_ns_per_op(iters: u64, f: &mut impl FnMut()) -> f64 {
    let sw = Stopwatch::start();
    for _ in 0..iters {
        f();
    }
    sw.elapsed_ns() as f64 / iters as f64
}

/// The nearest-rank quartiles `(q1, median, q3)` of `v`.
fn quartiles(mut v: Vec<f64>) -> (f64, f64, f64) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = v.len();
    (v[n / 4], v[n / 2], v[3 * n / 4])
}

/// A before/after measurement taken in alternating pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median ns per `before` call.
    pub before_ns_per_op: f64,
    /// Median ns per `after` call.
    pub after_ns_per_op: f64,
    /// Median of the per-pair `before / after` ratios.
    pub speedup: f64,
    /// Lower quartile of the per-pair ratios.
    pub speedup_q1: f64,
    /// Upper quartile of the per-pair ratios.
    pub speedup_q3: f64,
}

/// Times `before` and `after` under the spec in alternating pairs: each
/// sample runs `iters` calls of one, then of the other, and yields one
/// ratio; odd samples run `after` first, so state one side leaves the
/// other (caches, a clock step) does not favour either. Machine drift
/// (frequency, a co-tenant) lands on both sides of a pair, so the
/// spread of the ratios shows how far the speedup can be trusted.
pub fn paired_ns_per_op(
    spec: BenchSpec,
    mut before: impl FnMut(),
    mut after: impl FnMut(),
) -> Timing {
    for _ in 0..spec.warmup_iters {
        before();
        after();
    }
    let pairs: Vec<(f64, f64)> = (0..spec.samples)
        .map(|i| {
            if i % 2 == 0 {
                let b = sample_ns_per_op(spec.iters, &mut before);
                (b, sample_ns_per_op(spec.iters, &mut after))
            } else {
                let a = sample_ns_per_op(spec.iters, &mut after);
                (sample_ns_per_op(spec.iters, &mut before), a)
            }
        })
        .collect();
    let (speedup_q1, speedup, speedup_q3) = quartiles(pairs.iter().map(|(b, a)| b / a).collect());
    Timing {
        before_ns_per_op: quartiles(pairs.iter().map(|p| p.0).collect()).1,
        after_ns_per_op: quartiles(pairs.iter().map(|p| p.1).collect()).1,
        speedup,
        speedup_q1,
        speedup_q3,
    }
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
    pub timing: Timing,
    /// Whether the row claims `after` is faster; a row that does not
    /// gives its reason in DESIGN.md §7.
    pub speed_claim: bool,
}

impl HotPath {
    pub fn to_json(&self) -> Json {
        let t = &self.timing;
        Json::Obj(vec![
            ("name".into(), self.name.into()),
            ("before_impl".into(), self.before_impl.into()),
            ("after_impl".into(), self.after_impl.into()),
            ("work_units".into(), self.work_units.clone().into()),
            ("before_ns_per_op".into(), t.before_ns_per_op.into()),
            ("after_ns_per_op".into(), t.after_ns_per_op.into()),
            ("speedup".into(), t.speedup.into()),
            ("speedup_q1".into(), t.speedup_q1.into()),
            ("speedup_q3".into(), t.speedup_q3.into()),
            ("speed_claim".into(), self.speed_claim.into()),
        ])
    }
}

/// Renders the full report document.
pub fn report(mode: &str, spec: BenchSpec, paths: &[HotPath]) -> Json {
    Json::Obj(vec![
        ("schema".into(), "bench_hotpaths/v2".into()),
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

/// The raw value of field `key` in the report row named `row`, read
/// from a rendered report (one field per line, as [`report`] renders
/// it).
pub fn row_field<'a>(doc: &'a str, row: &str, key: &str) -> Option<&'a str> {
    let start = doc.find(&format!("\"name\": \"{row}\""))?;
    let body = &doc[start..start + doc[start..].find('}')?];
    let at = body.find(&format!("\"{key}\": "))? + key.len() + 4;
    Some(body[at..].split([',', '\n']).next()?.trim())
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
    fn pairs_alternate_and_quartiles_bracket_the_median() {
        let calls = std::cell::RefCell::new(Vec::new());
        let spec = BenchSpec {
            warmup_iters: 1,
            iters: 2,
            samples: 5,
        };
        let t = paired_ns_per_op(
            spec,
            || calls.borrow_mut().push('b'),
            || calls.borrow_mut().push('a'),
        );
        let calls: String = calls.into_inner().into_iter().collect();
        assert_eq!(calls, format!("ba{}bbaa", "bbaaaabb".repeat(2)));
        assert!(t.speedup_q1 <= t.speedup && t.speedup <= t.speedup_q3);
        assert_eq!(quartiles(vec![5.0, 1.0, 4.0, 2.0, 3.0]), (2.0, 3.0, 4.0));
    }

    #[test]
    fn report_renders_parseable_json() {
        let paths = vec![HotPath {
            name: "gf128_mul",
            before_impl: "bitwise",
            after_impl: "table",
            work_units: "1 multiply".into(),
            timing: Timing {
                before_ns_per_op: 100.0,
                after_ns_per_op: 25.0,
                speedup: 4.0,
                speedup_q1: 3.5,
                speedup_q3: 4.5,
            },
            speed_claim: true,
        }];
        let doc = report("smoke", BenchSpec::smoke(), &paths).render();
        assert!(json_parses(&doc), "emitted report must parse:\n{doc}");
        assert_eq!(row_field(&doc, "gf128_mul", "speedup"), Some("4"));
        assert_eq!(row_field(&doc, "gf128_mul", "speedup_q3"), Some("4.5"));
        assert_eq!(row_field(&doc, "gf128_mul", "speed_claim"), Some("true"));
        assert_eq!(row_field(&doc, "gf128_mul", "absent"), None);
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
