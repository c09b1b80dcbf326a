//! Differential oracle for fault-injected offloads.
//!
//! [`FaultOracle`] drives a [`CompCpyHost`] under a seeded
//! [`simkit::FaultPlan`] and replays every offload against the software
//! golden path (software AES-GCM, the Deflate hardware model, the
//! software inflater). Each scenario must end with byte-exact output no
//! matter which faults fired, by exercising the same recovery ladder
//! production software would use:
//!
//! 1. **Drain + re-feed** — [`CompCpyHost::settle`], shared with the
//!    bounce path and the server harness, drains deferred writebacks and
//!    re-reads the source range to feed a starved DSA (dropped S6
//!    interception); the device's `processed` dedup map makes it idempotent.
//! 2. **Drain + retry** — stale source data (delayed writebacks stuck in
//!    a write buffer) is pushed to DRAM and the offload is reissued;
//!    re-registering the same destination pages supersedes the stale
//!    staging.
//! 3. **Software fallback** — unrecoverable offloads (translation table
//!    full, scratchpad exhausted even after Force-Recycle) fall back to
//!    [`CompCpyHost::cpu_transform`] after clearing injected state.
//!
//! After every scenario the oracle checks structural invariants: no
//! orphaned scratchpad pages survive Force-Recycle, no translation-table
//! entries leak, and the table's *legitimate* occupancy stays below the
//! paper's 33 % bound.

use dram::PhysAddr;
use simkit::{FaultHandle, FaultPlan};
use ulp_compress::hwmodel::HwCompressor;
use ulp_crypto::gcm::AesGcm;

use crate::compcpy::{CompCpyHost, HostConfig};
use crate::configmem::OffloadStatus;
use crate::dsa::OffloadOp;
use crate::PAGE;

/// A recovery action the oracle had to take for a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recovery {
    /// The source range was flushed and re-read to feed a starved DSA.
    RefeedSource {
        /// Re-feed passes until the offload reached a terminal status.
        attempts: u32,
    },
    /// Fault-deferred writebacks were drained to DRAM.
    DrainedWritebacks {
        /// Cachelines delivered.
        lines: usize,
    },
    /// The offload produced wrong bytes (stale source) and was reissued.
    Retry,
    /// The offload was abandoned and recomputed in software.
    SoftwareFallback {
        /// Why the device path was abandoned.
        reason: String,
    },
}

/// What happened while checking one offload.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The (verified) transformed bytes.
    pub output: Vec<u8>,
    /// Whether the device path was abandoned for software.
    pub used_fallback: bool,
    /// Recovery actions, in order.
    pub recoveries: Vec<Recovery>,
}

/// Drives offloads under fault injection and verifies each against the
/// software golden path.
pub struct FaultOracle {
    host: CompCpyHost,
    cfg: HostConfig,
    fault: FaultHandle,
    recoveries: Vec<Recovery>,
    /// Force-Recycle invocations from the CompCpy reservation path (not
    /// the oracle's own end-of-scenario mop-up).
    organic_force_recycles: u64,
}

impl FaultOracle {
    /// Builds a host with `cfg` and installs a fault injector executing
    /// `plan`.
    pub fn new(cfg: HostConfig, plan: FaultPlan) -> FaultOracle {
        let mut host = CompCpyHost::new(cfg.clone());
        let fault = FaultHandle::new(plan);
        host.set_fault_handle(fault.clone());
        FaultOracle {
            host,
            cfg,
            fault,
            recoveries: Vec::new(),
            organic_force_recycles: 0,
        }
    }

    /// The driven host (buffer allocation, stats).
    pub fn host(&mut self) -> &mut CompCpyHost {
        &mut self.host
    }

    /// The `offload:label` log of every fault that fired.
    pub fn fired_log(&self) -> Vec<String> {
        self.fault.fired_log()
    }

    /// Every recovery action taken so far, in order.
    pub fn recoveries(&self) -> &[Recovery] {
        &self.recoveries
    }

    /// Force-Recycle invocations triggered by scratchpad shortage during
    /// offload issue (excludes the oracle's end-of-scenario mop-up).
    pub fn organic_force_recycles(&self) -> u64 {
        self.organic_force_recycles
    }

    /// Runs one offload of `input` under the installed fault plan,
    /// recovers from whatever fires and verifies the output bytes against
    /// the software golden path.
    ///
    /// # Panics
    ///
    /// Panics if the output cannot be made byte-correct or a structural
    /// invariant (orphaned scratchpad page, leaked translation entry,
    /// occupancy bound) is violated — these are the test failures the
    /// oracle exists to surface.
    pub fn check(&mut self, op: OffloadOp, input: &[u8], aad: &[u8]) -> ScenarioOutcome {
        assert!(!input.is_empty(), "oracle needs a non-empty message");
        let golden = self.golden(op, input, aad);
        let pages = input.len().div_ceil(PAGE);
        let src = self.host.alloc_pages(pages);
        let dst = self.host.alloc_pages(pages);
        self.host.mem_mut().store(src, input, 0);

        let fr_before = self.host.force_recycle_count();
        let mut recs: Vec<Recovery> = Vec::new();
        let mut outcome: Option<(Vec<u8>, bool)> = None;

        for _attempt in 0..3 {
            let handle = match self
                .host
                .comp_cpy_with_aad(dst, src, input.len(), op, aad, false, 0)
            {
                Ok(h) => h,
                Err(e) => {
                    let out = self.software_fallback(
                        &mut recs,
                        dst,
                        src,
                        input.len(),
                        op,
                        aad,
                        e.to_string(),
                    );
                    outcome = Some((out, true));
                    break;
                }
            };

            // A starved DSA (dropped S6 interception) leaves the offload
            // in progress until the host drains and re-feeds it.
            let (refeeds, lines) = self.host.settle(&handle);
            if lines > 0 {
                recs.push(Recovery::DrainedWritebacks { lines });
            }
            if refeeds > 0 {
                recs.push(Recovery::RefeedSource { attempts: refeeds });
            }
            let status = self.host.offload_status(&handle);

            if !matches!(status, OffloadStatus::Done | OffloadStatus::Incompressible) {
                let out = self.software_fallback(
                    &mut recs,
                    dst,
                    src,
                    input.len(),
                    op,
                    aad,
                    format!("terminal status {status:?}"),
                );
                outcome = Some((out, true));
                break;
            }

            let out = self.host.use_buffer(&handle);
            if out == golden {
                if let OffloadOp::TlsEncrypt { key, iv } = op {
                    let want = AesGcm::new_128(&key).seal(&iv, aad, input).1;
                    assert_eq!(self.host.tag(&handle), Some(want), "authentication tag");
                }
                outcome = Some((out, false));
                break;
            }
            // Wrong bytes: the DSA consumed stale source data (delayed
            // writebacks). Push everything to DRAM and reissue; the
            // re-registration supersedes the stale staging.
            recs.push(Recovery::Retry);
            self.drain(&mut recs);
        }

        let (output, used_fallback) = outcome.unwrap_or_else(|| {
            let out = self.software_fallback(
                &mut recs,
                dst,
                src,
                input.len(),
                op,
                aad,
                "retries exhausted".to_string(),
            );
            (out, true)
        });

        self.organic_force_recycles += self.host.force_recycle_count() - fr_before;
        self.verify_output(op, input, &golden, &output, used_fallback);
        self.check_invariants();
        self.recoveries.extend(recs.iter().cloned());
        ScenarioOutcome {
            output,
            used_fallback,
            recoveries: recs,
        }
    }

    /// The software golden path for `op`. For compression this is the
    /// Deflate *hardware model* (the device runs the identical model), so
    /// device-path outputs compare byte-exactly.
    fn golden(&self, op: OffloadOp, input: &[u8], aad: &[u8]) -> Vec<u8> {
        match op {
            OffloadOp::TlsEncrypt { key, iv } => AesGcm::new_128(&key).seal(&iv, aad, input).0,
            OffloadOp::TlsDecrypt { key, iv } => {
                let mut pt = input.to_vec();
                AesGcm::new_128(&key).xor_keystream(&iv, 0, &mut pt);
                pt
            }
            OffloadOp::Compress => {
                let mut hw = HwCompressor::new(self.cfg.dimm.hw_deflate);
                let result = hw.compress_page(input);
                if result.data.len() >= input.len() {
                    input.to_vec() // incompressible: raw passthrough
                } else {
                    result.data
                }
            }
            OffloadOp::Decompress => {
                ulp_compress::inflate::decompress(input).expect("oracle fed a valid stream")
            }
        }
    }

    /// Byte-exactness rule: device paths must match the golden bytes
    /// exactly; a software *compression* fallback may produce a different
    /// (but losslessly equivalent) stream.
    fn verify_output(
        &self,
        op: OffloadOp,
        input: &[u8],
        golden: &[u8],
        output: &[u8],
        used_fallback: bool,
    ) {
        if used_fallback && matches!(op, OffloadOp::Compress) {
            let roundtrip = ulp_compress::inflate::decompress(output)
                .map(|d| d == input)
                .unwrap_or(false);
            assert!(
                roundtrip || output == input,
                "software compression fallback is not lossless"
            );
        } else {
            assert_eq!(output, golden, "offload output diverged from golden path");
        }
    }

    /// Structural invariants at scenario end: injected state cleared, no
    /// scratchpad page orphaned past Force-Recycle, no translation
    /// entries leaked.
    fn check_invariants(&mut self) {
        self.host.clear_injected_faults();
        let mut recs = Vec::new();
        self.drain(&mut recs);
        self.recoveries.extend(recs);

        let capacity = self.cfg.dimm.scratchpad_pages;
        let channels = self.host.channels();
        // Unconsumed staged lines (e.g. a decompressed tail never read
        // back) are legitimate between offloads; Force-Recycle must be
        // able to reclaim every one of them.
        let needs_recycle = (0..channels).any(|ch| self.host.device_on(ch).free_pages() < capacity);
        if needs_recycle {
            self.host.force_recycle(capacity);
        }
        for ch in 0..channels {
            let dev = self.host.device_on(ch);
            assert_eq!(
                dev.free_pages(),
                capacity,
                "channel {ch}: scratchpad pages orphaned past Force-Recycle"
            );
            assert!(
                dev.xlat().is_empty(),
                "channel {ch}: leaked translation entries for pages {:?}",
                dev.xlat().pages()
            );
        }
    }

    /// Checks the paper's occupancy bound against the *legitimate*
    /// entries (injected pressure excluded): call mid-scenario from tests
    /// that want the tighter invariant.
    pub fn assert_occupancy_bound(&mut self) {
        let slots = self.cfg.dimm.xlat_entries;
        let channels = self.host.channels();
        for ch in 0..channels {
            let dev = self.host.device_on(ch);
            let legit = dev.xlat().len().saturating_sub(dev.injected_entries());
            assert!(
                (legit as f64) < slots as f64 / 3.0,
                "channel {ch}: {legit} legitimate entries exceed a third of {slots} slots"
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn software_fallback(
        &mut self,
        recs: &mut Vec<Recovery>,
        dbuf: PhysAddr,
        sbuf: PhysAddr,
        size: usize,
        op: OffloadOp,
        aad: &[u8],
        reason: String,
    ) -> Vec<u8> {
        recs.push(Recovery::SoftwareFallback { reason });
        self.host.clear_injected_faults();
        self.drain(recs);
        // The device attempt may have read the source while deferred
        // writebacks were still in flight, filling the LLC with stale
        // lines. Invalidate the range so the recompute reads the drained
        // bytes from DRAM, not the stale cached copies.
        self.host.mem_mut().flush(sbuf, size.div_ceil(64) * 64);
        self.host.cpu_transform(dbuf, sbuf, size, op, aad, 0)
    }

    fn drain(&mut self, recs: &mut Vec<Recovery>) {
        let lines = self.host.mem_mut().drain_writebacks();
        if lines > 0 {
            recs.push(Recovery::DrainedWritebacks { lines });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{FaultEvent, FaultKind};

    fn msg(len: usize, seed: u64) -> Vec<u8> {
        ulp_compress::corpus::html(len, seed)
    }

    #[test]
    fn fault_free_plan_is_byte_exact_with_no_recoveries() {
        // (channels, interleave lines, message bytes): striped offloads
        // settle through the combined per-channel partial results.
        for (channels, interleave, len) in [(1, 1, 5000), (2, 1, 4096), (4, 1, 4096), (2, 64, 8000)]
        {
            let mut cfg = HostConfig::default();
            cfg.mem.dram.topology = dram::DramTopology {
                channels,
                channel_interleave_lines: interleave,
                ..dram::DramTopology::default()
            };
            let mut oracle = FaultOracle::new(cfg, FaultPlan::empty());
            let out = oracle.check(
                OffloadOp::TlsEncrypt {
                    key: [1; 16],
                    iv: [2; 12],
                },
                &msg(len, 7),
                b"hdr",
            );
            let topo = format!("{channels} ch, interleave {interleave}, {len} B");
            assert!(!out.used_fallback, "{topo}: {:?}", out.recoveries);
            assert!(out.recoveries.is_empty(), "{topo}: {:?}", out.recoveries);
            assert!(oracle.fired_log().is_empty());
        }
    }

    #[test]
    fn scratch_hogs_force_recycle_and_stay_byte_exact() {
        let mut cfg = HostConfig::default();
        cfg.dimm.scratchpad_pages = 8;
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                at_offload: 0,
                kind: FaultKind::ScratchHog { pages: 8 },
            }],
        };
        let mut oracle = FaultOracle::new(cfg, plan);
        let out = oracle.check(
            OffloadOp::TlsEncrypt {
                key: [3; 16],
                iv: [4; 12],
            },
            &msg(4096, 11),
            b"",
        );
        assert!(!out.used_fallback, "Force-Recycle should reclaim the hogs");
        assert!(oracle.organic_force_recycles() >= 1);
        assert_eq!(oracle.fired_log(), vec!["0:scratch_hog(8)"]);
    }

    #[test]
    fn dropped_source_feed_recovers_by_refeeding() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                at_offload: 0,
                kind: FaultKind::DropSourceFeed { line: 5 },
            }],
        };
        let mut oracle = FaultOracle::new(HostConfig::default(), plan);
        let out = oracle.check(
            OffloadOp::TlsDecrypt {
                key: [5; 16],
                iv: [6; 12],
            },
            &msg(4096, 13),
            b"",
        );
        assert!(!out.used_fallback);
        assert!(out
            .recoveries
            .iter()
            .any(|r| matches!(r, Recovery::RefeedSource { .. })));
        assert_eq!(oracle.fired_log(), vec!["0:drop_source_feed(5)"]);
    }

    #[test]
    fn delayed_writebacks_drain_and_retry() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                at_offload: 0,
                kind: FaultKind::DelayWriteback { lines: 6 },
            }],
        };
        let mut oracle = FaultOracle::new(HostConfig::default(), plan);
        let out = oracle.check(
            OffloadOp::TlsEncrypt {
                key: [7; 16],
                iv: [8; 12],
            },
            &msg(4096, 17),
            b"tls13",
        );
        // Either the stale bytes were caught and retried, or (if the
        // delayed lines were clean) nothing diverged at all.
        assert!(!out.used_fallback);
        assert_eq!(oracle.fired_log(), vec!["0:delay_writeback(6)"]);
    }
}
