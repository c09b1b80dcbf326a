//! Per-file analysis context shared by every rule.
//!
//! Built once from the lexed token stream, it answers the structural
//! questions rules keep asking:
//!
//! * is token `i` inside `#[cfg(test)]` / `#[test]` code? (every rule
//!   exempts test code — tests may panic and may use `HashMap` oracles);
//! * which function body encloses token `i`? (paired-resource and
//!   fault-visibility rules reason per function);
//! * is a diagnostic on line `l` suppressed by an inline
//!   `// simlint: allow(RULE): reason` marker?

use std::collections::BTreeMap;

use crate::lexer::{lex, Tok, TokKind};

/// A `[start, end]` token-index range (inclusive).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    fn contains(&self, i: usize) -> bool {
        i >= self.start && i <= self.end
    }
}

/// A function item span: the tokens from `fn` to its closing brace.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    pub span: Span,
}

/// Everything a rule needs to inspect one file.
pub struct FileContext {
    /// Workspace-relative path (as given to the driver).
    pub path: String,
    /// Just the file name (`device.rs`), for file-scoped rules.
    pub file_name: String,
    pub toks: Vec<Tok>,
    test_spans: Vec<Span>,
    fn_spans: Vec<FnSpan>,
    /// line → rules allowed on that line and the next.
    allows: BTreeMap<u32, Vec<String>>,
}

impl FileContext {
    /// Lexes and indexes `src`.
    pub fn new(path: &str, src: &str) -> FileContext {
        let lexed = lex(src);
        let toks = lexed.toks;
        let test_spans = find_test_spans(&toks);
        let fn_spans = find_fn_spans(&toks);
        let mut allows: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        for c in &lexed.comments {
            if let Some(rules) = parse_allow(&c.text) {
                allows.entry(c.line).or_default().extend(rules);
            }
        }
        let file_name = path.rsplit('/').next().unwrap_or(path).to_string();
        FileContext {
            path: path.to_string(),
            file_name,
            toks,
            test_spans,
            fn_spans,
            allows,
        }
    }

    /// Is token index `i` inside test-only code?
    pub fn in_test(&self, i: usize) -> bool {
        self.test_spans.iter().any(|s| s.contains(i))
    }

    /// The innermost function span containing token `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnSpan> {
        self.fn_spans
            .iter()
            .filter(|f| f.span.contains(i))
            .min_by_key(|f| f.span.end - f.span.start)
    }

    /// Every function span, including test code (the workspace
    /// call-graph pass needs test functions as nodes so it can mark
    /// them and exclude them from name resolution).
    pub fn all_fns(&self) -> &[FnSpan] {
        &self.fn_spans
    }

    /// Every function span (outside test code).
    pub fn fns(&self) -> impl Iterator<Item = &FnSpan> {
        let spans = &self.test_spans;
        self.fn_spans
            .iter()
            .filter(move |f| !spans.iter().any(|s| s.contains(f.span.start)))
    }

    /// Is `rule` suppressed on `line` by an inline allow marker on the
    /// same or the preceding line?
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        [line, line.saturating_sub(1)].iter().any(|l| {
            self.allows
                .get(l)
                .is_some_and(|rs| rs.iter().any(|r| r == rule || r == "all"))
        })
    }
}

/// Parses `simlint: allow(RULE-A, RULE-B): optional reason` out of a
/// comment body. Returns `None` when the comment is not a directive.
fn parse_allow(comment: &str) -> Option<Vec<String>> {
    let at = comment.find("simlint:")?;
    let rest = comment[at + "simlint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    Some(
        rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect(),
    )
}

/// Finds `#[cfg(test)]` / `#[test]`-attributed item spans.
///
/// An attribute applies to the next item; the item ends at the first
/// top-level `;` (e.g. `#[cfg(test)] use ...;`) or at the matching `}`
/// of the first `{` encountered (functions, `mod tests { ... }`).
fn find_test_spans(toks: &[Tok]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct('#') {
            i += 1;
            continue;
        }
        let attr_start = i;
        let mut j = i + 1;
        if j < toks.len() && toks[j].is_punct('!') {
            j += 1; // inner attribute `#![...]`
        }
        if j >= toks.len() || !toks[j].is_punct('[') {
            i += 1;
            continue;
        }
        // Collect the attribute tokens up to the matching `]`.
        let mut depth = 0i32;
        let mut is_test_attr = false;
        let mut saw_cfg = false;
        let mut saw_not = false;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokKind::Ident {
                if t.text == "cfg" {
                    saw_cfg = true;
                }
                if t.text == "not" {
                    saw_not = true;
                }
                if t.text == "test" && (saw_cfg || j == attr_start + 2) {
                    is_test_attr = true;
                }
            }
            j += 1;
        }
        // `#[cfg(not(test))]` is live code, not test code.
        if saw_not {
            is_test_attr = false;
        }
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then span the item.
        let mut k = j + 1;
        while k < toks.len() && toks[k].is_punct('#') {
            let mut d = 0i32;
            k += 1;
            while k < toks.len() {
                if toks[k].is_punct('[') {
                    d += 1;
                } else if toks[k].is_punct(']') {
                    d -= 1;
                    if d == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
        let (end, _) = item_end(toks, k);
        spans.push(Span {
            start: attr_start,
            end,
        });
        i = end + 1;
    }
    spans
}

/// The last token of the item starting at `from`: its first `;` outside
/// `[..]` (a `;` inside brackets belongs to an array type such as
/// `[u8; 64]`), or the `}` matching its first `{`. The flag says which
/// one ended it: `true` for a braced body.
fn item_end(toks: &[Tok], from: usize) -> (usize, bool) {
    let mut brackets = 0i32;
    let mut braces = 0i32;
    let mut k = from;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct('[') {
            brackets += 1;
        } else if t.is_punct(']') {
            brackets -= 1;
        } else if t.is_punct('{') {
            braces += 1;
        } else if t.is_punct('}') {
            braces -= 1;
            if braces == 0 {
                return (k, true);
            }
        } else if braces == 0 && brackets == 0 && t.is_punct(';') {
            return (k, false);
        }
        k += 1;
    }
    (toks.len().saturating_sub(1), braces > 0)
}

/// Finds every `fn` item/method body span.
fn find_fn_spans(toks: &[Tok]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let name = toks
            .get(i + 1)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        let (end, has_body) = item_end(toks, i + 1);
        if !has_body {
            i = end + 1; // trait method declaration
            continue;
        }
        spans.push(FnSpan {
            name,
            span: Span { start: i, end },
        });
        i += 1; // nested fns: keep scanning inside the body
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_is_test_code() {
        let src = "
            fn live() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn helper() { y.unwrap(); }
            }
        ";
        let ctx = FileContext::new("a.rs", src);
        let unwraps: Vec<usize> = ctx
            .toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!ctx.in_test(unwraps[0]));
        assert!(ctx.in_test(unwraps[1]));
    }

    #[test]
    fn test_attr_fn_is_test_code() {
        let src = "
            #[test]
            fn t() { a.unwrap(); }
            fn live() { b.unwrap(); }
        ";
        let ctx = FileContext::new("a.rs", src);
        let unwraps: Vec<usize> = ctx
            .toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert!(ctx.in_test(unwraps[0]));
        assert!(!ctx.in_test(unwraps[1]));
    }

    #[test]
    fn other_attributes_are_not_test_spans() {
        let src = "#[derive(Debug)] struct S; fn f() { s.unwrap(); }";
        let ctx = FileContext::new("a.rs", src);
        let at = ctx.toks.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(!ctx.in_test(at));
    }

    #[test]
    fn enclosing_fn_finds_innermost() {
        let src = "fn outer() { fn inner() { q.unwrap(); } }";
        let ctx = FileContext::new("a.rs", src);
        let at = ctx.toks.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert_eq!(ctx.enclosing_fn(at).unwrap().name, "inner");
    }

    #[test]
    fn array_types_in_signatures_do_not_end_the_fn() {
        let src = "
            fn f(x: &[u8; 64]) -> [u8; 64] {}
            fn g() -> [[u8; 4]; 2] {}
            trait T { fn h(&self, x: [u8; 2]); }
        ";
        let ctx = FileContext::new("a.rs", src);
        let names: Vec<&str> = ctx.all_fns().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["f", "g"], "declaration `h` has no body span");
        for f in ctx.all_fns() {
            assert!(
                ctx.toks[f.span.end].is_punct('}'),
                "{} ends at its body",
                f.name
            );
        }
    }

    #[test]
    fn array_types_in_signatures_do_not_end_a_test_item() {
        let src = "
            #[cfg(test)]
            fn helper(x: [u8; 4]) { a.unwrap(); }
            fn live() { b.unwrap(); }
        ";
        let ctx = FileContext::new("a.rs", src);
        let unwraps: Vec<usize> = ctx
            .toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert!(ctx.in_test(unwraps[0]));
        assert!(!ctx.in_test(unwraps[1]));
    }

    #[test]
    fn allow_markers_cover_their_line_and_the_next() {
        let src = "// simlint: allow(DET-HASH): oracle\nlet m = HashMap::new();";
        let ctx = FileContext::new("a.rs", src);
        assert!(ctx.is_allowed("DET-HASH", 2));
        assert!(!ctx.is_allowed("DET-NOW", 2));
        assert!(!ctx.is_allowed("DET-HASH", 4));
    }

    #[test]
    fn allow_parses_multiple_rules() {
        assert_eq!(
            parse_allow(" simlint: allow(A, B): why"),
            Some(vec!["A".to_string(), "B".to_string()])
        );
        assert_eq!(parse_allow("ordinary comment"), None);
    }
}
