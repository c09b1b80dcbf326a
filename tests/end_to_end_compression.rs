//! End-to-end compression integration: HTTP responses compressed near
//! memory, page by page, interoperating with the software Deflate stack.

use dram::PhysAddr;
use proptest::prelude::*;
use simkit::par::with_helper_budget;
use smartdimm::configmem::OffloadStatus;
use smartdimm::{CompCpyHost, HostConfig, OffloadOp};
use ulp_compress::{corpus, deflate, hwmodel, inflate};

/// Compresses a response body at page granularity on the DIMM (§V-C) and
/// returns the per-page streams.
fn offload_compress(host: &mut CompCpyHost, body: &[u8]) -> Vec<Vec<u8>> {
    body.chunks(4096)
        .map(|page| {
            let src = host.alloc_pages(1);
            let dst = host.alloc_pages(1);
            host.mem_mut().store(src, page, 0);
            let handle = host
                .comp_cpy(dst, src, page.len(), OffloadOp::Compress, true, 0)
                .expect("offload accepted");
            host.use_buffer(&handle)
        })
        .collect()
}

#[test]
fn compressed_http_response_round_trips() {
    let mut host = CompCpyHost::new(HostConfig::default());
    let body = corpus::json(20_000, 5);
    let pages = offload_compress(&mut host, &body);

    // The server frames each compressed page as its own deflate stream;
    // the client inflates them in order.
    let mut restored = Vec::new();
    let mut wire_bytes = 0usize;
    for page in &pages {
        wire_bytes += page.len();
        restored.extend(inflate::decompress(page).expect("valid stream"));
    }
    assert_eq!(restored, body);
    assert!(wire_bytes < body.len(), "compression actually saved bytes");
}

/// A source line rewritten after its page went to the lookahead: the
/// device absorbs the new bytes, rejects the helper's stale output and
/// computes the page itself, exactly as a host without a helper does.
#[test]
fn rewritten_source_rejects_the_lookahead_output() {
    let run = |budget| {
        with_helper_budget(budget, || {
            let mut host = CompCpyHost::new(HostConfig::default());
            let (src, dst) = (host.alloc_pages(2), host.alloc_pages(2));
            let body = corpus::html(8192, 21);
            host.mem_mut().store(src, &body, 0);
            let second = PhysAddr(src.0 + 4096);
            host.announce(src, 4096, OffloadOp::Compress);
            host.announce(second, 4096, OffloadOp::Compress);
            // The first copy also puts the second page on the lookahead.
            let first = host
                .comp_cpy(dst, src, 4096, OffloadOp::Compress, true, 0)
                .expect("offload accepted");
            let first = host.use_buffer(&first);
            let mut edited = body[4096..].to_vec();
            edited[5 * 64..6 * 64].fill(b'#');
            host.mem_mut()
                .store(PhysAddr(second.0 + 5 * 64), &[b'#'; 64], 0);
            let handle = host
                .comp_cpy(
                    PhysAddr(dst.0 + 4096),
                    second,
                    4096,
                    OffloadOp::Compress,
                    true,
                    0,
                )
                .expect("offload accepted");
            let out = host.use_buffer(&handle);
            assert_eq!(inflate::decompress(&first).unwrap(), body[..4096]);
            assert_eq!(inflate::decompress(&out).unwrap(), edited);
            (first, out, host.device_stats(), host.lookahead_stats())
        })
    };
    let (first, out, stats, ahead) = run(1);
    assert_eq!(
        (
            ahead.submitted,
            ahead.ready + ahead.waited + ahead.inline,
            ahead.missed
        ),
        (2, 1, 1),
        "the first page came from the helper, the rewritten one did not: {ahead:?}"
    );
    let (first0, out0, stats0, inline) = run(0);
    assert_eq!((first, out, stats), (first0, out0, stats0));
    assert_eq!(inline, simkit::par::LookaheadStats::default());
}

#[test]
fn hw_pages_match_software_semantics() {
    // The DIMM's streams differ bit-wise from software zlib (different
    // matcher), but both must decode to the same plaintext, and software
    // zlib-class tooling must accept the DIMM's output.
    let mut host = CompCpyHost::new(HostConfig::default());
    for kind in [corpus::Kind::Text, corpus::Kind::Html, corpus::Kind::Json] {
        let page = kind.generate(4096, 11);
        let sw = deflate::compress(&page);
        let hw = offload_compress(&mut host, &page).remove(0);
        assert_eq!(inflate::decompress(&sw).unwrap(), page);
        assert_eq!(inflate::decompress(&hw).unwrap(), page);
    }
}

#[test]
fn decompression_offload_of_software_streams() {
    // Receive-side: software-compressed content inflated near memory.
    let mut host = CompCpyHost::new(HostConfig::default());
    let original = corpus::html(4096, 13);
    let compressed = deflate::compress(&original);
    assert!(compressed.len() <= 4096);

    let src = host.alloc_pages(1);
    let dst = host.alloc_pages(1);
    host.mem_mut().store(src, &compressed, 0);
    let handle = host
        .comp_cpy(dst, src, compressed.len(), OffloadOp::Decompress, true, 0)
        .expect("offload accepted");
    let restored = host.use_buffer(&handle);
    assert_eq!(restored, original);
}

#[test]
fn mixed_content_stream_with_incompressible_pages() {
    let mut host = CompCpyHost::new(HostConfig::default());
    // Alternate compressible and incompressible pages, as a real content
    // store would (text next to already-compressed images).
    let mut body = Vec::new();
    for i in 0..6u64 {
        if i % 2 == 0 {
            body.extend(corpus::text(4096, i));
        } else {
            body.extend(corpus::random(4096, i));
        }
    }
    let pages = offload_compress(&mut host, &body);
    let mut restored = Vec::new();
    for (i, page) in pages.iter().enumerate() {
        if i % 2 == 0 {
            // Compressible page: a valid deflate stream.
            restored.extend(inflate::decompress(page).expect("deflate"));
        } else {
            // Incompressible: the raw page came back.
            assert_eq!(page.len(), 4096);
            restored.extend_from_slice(page);
        }
    }
    assert_eq!(restored, body);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Hostile host input: a real page's Deflate stream with bits
    /// flipped and, half the time, its tail cut off. The software
    /// inflater, the Decompress DSA model and a Decompress offload
    /// through the whole device stack must each stop at one page and
    /// agree: the same page, or a typed `DecodeError` that the device
    /// reports as `OffloadStatus::Error`.
    #[test]
    fn hostile_deflate_streams_are_bounded_typed_rejects(
        kind in 0..3usize,
        seed in any::<u64>(),
        flips in proptest::collection::vec((any::<usize>(), 0..8u32), 1..4),
        cut in any::<usize>(),
    ) {
        let page = [corpus::html, corpus::text, corpus::json][kind](4096, seed);
        let mut stream = deflate::compress(&page);
        let len = stream.len();
        for (at, bit) in flips {
            stream[at % len] ^= 1 << bit;
        }
        stream.truncate((cut % (2 * len)).clamp(1, len));

        let inflated = inflate::decompress_bounded(&stream, 4096);
        if let Ok(out) = &inflated {
            prop_assert!(out.len() <= 4096);
        }
        let dsa = hwmodel::decompress_page(&stream).map(|(out, _)| out);
        prop_assert_eq!(&dsa, &inflated);

        let mut host = CompCpyHost::new(HostConfig::default());
        let (src, dst) = (host.alloc_pages(1), host.alloc_pages(1));
        host.mem_mut().store(src, &stream, 0);
        let handle = host
            .comp_cpy(dst, src, stream.len(), OffloadOp::Decompress, true, 0)
            .expect("a one-page stream is a valid request");
        let out = host.use_buffer(&handle);
        let status = host.read_result(&handle).status;
        match inflated {
            Ok(want) => {
                prop_assert_eq!(status, OffloadStatus::Done);
                prop_assert_eq!(out, want);
            }
            Err(_) => prop_assert_eq!(status, OffloadStatus::Error),
        }
    }
}
