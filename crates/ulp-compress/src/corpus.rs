//! Deterministic synthetic corpora.
//!
//! The paper's artifact uses public compression corpora and Nginx-served
//! web pages; neither ships with this reproduction, so these generators
//! produce content with comparable statistics: HTML markup (highly
//! compressible), JSON API responses, English-like text, log lines, and
//! incompressible random bytes. All are seeded and deterministic.

use simkit::DetRng;

const WORDS: &[&str] = &[
    "the",
    "quick",
    "server",
    "request",
    "response",
    "memory",
    "cache",
    "protocol",
    "network",
    "stream",
    "packet",
    "buffer",
    "page",
    "table",
    "offload",
    "channel",
    "latency",
    "bandwidth",
    "record",
    "cipher",
    "window",
    "match",
    "symbol",
    "encode",
    "transfer",
    "datacenter",
    "system",
    "kernel",
    "socket",
    "thread",
    "copy",
    "flush",
    "device",
    "module",
    "accelerate",
    "compress",
];

/// English-like text of exactly `size` bytes.
pub fn text(size: usize, seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(size + 16);
    push_text(&mut out, size, seed);
    out
}

/// Appends exactly `size` bytes of [`text`]`(size, seed)` to `out`.
fn push_text(out: &mut Vec<u8>, size: usize, seed: u64) {
    let mut rng = DetRng::new(seed ^ 0x7e57);
    let end = out.len() + size;
    while out.len() < end {
        let w = WORDS[rng.gen_range(0..WORDS.len() as u64) as usize];
        out.extend_from_slice(w.as_bytes());
        out.push(if rng.gen_bool(0.1) { b'.' } else { b' ' });
    }
    out.truncate(end);
}

/// Appends `n` in decimal to `out`.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// HTML-like markup of exactly `size` bytes (tag-heavy, repetitive —
/// the web-page content an Nginx server ships).
pub fn html(size: usize, seed: u64) -> Vec<u8> {
    let mut rng = DetRng::new(seed ^ 0x47a1);
    let mut out = Vec::with_capacity(size + 128);
    out.extend_from_slice(b"<!DOCTYPE html><html><head><title>bench</title></head><body>");
    while out.len() < size {
        match rng.gen_range(0..4) {
            0 => {
                out.extend_from_slice(b"<div class=\"content-row\"><p>");
                let len = rng.gen_range(20..120) as usize;
                push_text(&mut out, len, rng.next_u64());
                out.extend_from_slice(b"</p></div>");
            }
            1 => {
                out.extend_from_slice(b"<a href=\"/static/page-");
                push_decimal(&mut out, rng.gen_range(0..10_000));
                out.extend_from_slice(b".html\">link</a>");
            }
            2 => {
                out.extend_from_slice(b"<span class=\"item badge badge-primary\">item</span>");
            }
            _ => {
                out.extend_from_slice(b"<li data-id=\"");
                push_decimal(&mut out, rng.gen_range(0..1_000));
                out.extend_from_slice(b"\">entry</li>");
            }
        }
    }
    out.truncate(size);
    out
}

/// JSON-like API response of exactly `size` bytes.
pub fn json(size: usize, seed: u64) -> Vec<u8> {
    let mut rng = DetRng::new(seed ^ 0x150a);
    let mut out = Vec::with_capacity(size + 64);
    out.extend_from_slice(b"{\"items\":[");
    let mut first = true;
    while out.len() < size {
        if !first {
            out.push(b',');
        }
        first = false;
        out.extend_from_slice(b"{\"id\":");
        push_decimal(&mut out, rng.gen_range(0..1_000_000));
        out.extend_from_slice(b",\"name\":\"");
        let len = rng.gen_range(5..20) as usize;
        push_text(&mut out, len, rng.next_u64());
        out.extend_from_slice(b"\",\"active\":");
        out.extend_from_slice(if rng.gen_bool(0.5) { b"true" } else { b"false" });
        out.push(b'}');
    }
    out.truncate(size);
    out
}

/// Incompressible random bytes (already-compressed or encrypted content).
pub fn random(size: usize, seed: u64) -> Vec<u8> {
    let mut rng = DetRng::new(seed ^ 0xda7a);
    let mut out = vec![0u8; size];
    rng.fill_bytes(&mut out);
    out
}

/// All-zero bytes (maximally compressible).
pub fn zeros(size: usize) -> Vec<u8> {
    vec![0u8; size]
}

/// A named corpus kind, for parameterized benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// English-like text.
    Text,
    /// HTML markup.
    Html,
    /// JSON API responses.
    Json,
    /// Incompressible random bytes.
    Random,
    /// All zeros.
    Zeros,
}

impl Kind {
    /// Every corpus kind, for exhaustive sweeps.
    pub const ALL: [Kind; 5] = [
        Kind::Text,
        Kind::Html,
        Kind::Json,
        Kind::Random,
        Kind::Zeros,
    ];

    /// Generates `size` bytes of this kind.
    pub fn generate(self, size: usize, seed: u64) -> Vec<u8> {
        match self {
            Kind::Text => text(size, seed),
            Kind::Html => html(size, seed),
            Kind::Json => json(size, seed),
            Kind::Random => random(size, seed),
            Kind::Zeros => zeros(size),
        }
    }

    /// A short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Text => "text",
            Kind::Html => "html",
            Kind::Json => "json",
            Kind::Random => "random",
            Kind::Zeros => "zeros",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate;

    #[test]
    fn generators_hit_exact_size() {
        for kind in Kind::ALL {
            for size in [1usize, 100, 4096, 10_000] {
                assert_eq!(kind.generate(size, 1).len(), size, "{kind:?}/{size}");
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        for kind in Kind::ALL {
            assert_eq!(kind.generate(2048, 7), kind.generate(2048, 7), "{kind:?}");
        }
    }

    #[test]
    fn generated_bytes_are_pinned() {
        // One SHA-256 per kind over sizes 1 B, 4 KB and 16 KB at seeds 1
        // and 2, so a generator rewrite cannot move a byte unseen.
        let pinned = [
            (
                Kind::Text,
                "7008f6215aafea0278b653467dced145add41fd54443ab4d34ca45275646f901",
            ),
            (
                Kind::Html,
                "5bd88b5294335b65155e35b5c9d43f853f3d598d8dc37cce6d6afc1b26834753",
            ),
            (
                Kind::Json,
                "ff5bfcfa95d4d78225241226bc75c4a4ea37ad10e6df69014120ae667c17990e",
            ),
            (
                Kind::Random,
                "05a47eafcf082b9e7d70ab151dfc3778b0a6261f29af475130845086db7cf7a3",
            ),
            (
                Kind::Zeros,
                "97453091de75367a712a44a17c03fd84183dc3a5ef218c9ef697fd42f12b7961",
            ),
        ];
        for (kind, want) in pinned {
            let mut h = ulp_crypto::sha256::Sha256::new();
            for seed in [1u64, 2] {
                for size in [1usize, 4096, 16384] {
                    h.update(&kind.generate(size, seed));
                }
            }
            let got: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, want, "{kind:?}");
        }
    }

    #[test]
    fn decimals_match_display() {
        let mut out = Vec::new();
        for n in [0u64, 7, 10, 999, 1_000_000, u64::MAX] {
            out.clear();
            push_decimal(&mut out, n);
            assert_eq!(out, n.to_string().as_bytes());
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(text(1024, 1), text(1024, 2));
        assert_ne!(html(1024, 1), html(1024, 2));
        assert_ne!(json(1024, 1), json(1024, 2));
        assert_ne!(random(1024, 1), random(1024, 2));
    }

    #[test]
    fn compressibility_ordering_is_sane() {
        let size = 8192;
        let ratio = |data: &[u8]| deflate::compress(data).len() as f64 / data.len() as f64;
        let r_zeros = ratio(&zeros(size));
        let r_html = ratio(&html(size, 3));
        let r_text = ratio(&text(size, 3));
        let r_random = ratio(&random(size, 3));
        assert!(r_zeros < 0.01, "zeros ratio {r_zeros}");
        assert!(r_html < 0.5, "html ratio {r_html}");
        assert!(r_text < 0.6, "text ratio {r_text}");
        assert!(r_random > 0.99, "random ratio {r_random}");
        assert!(r_zeros < r_html && r_html < r_random);
    }
}
