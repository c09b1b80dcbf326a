//! A fixed reference kernel, timed beside every measured call, that
//! corrects host time for what other tenants of a shared host take.
//!
//! On a shared host this process's speed drifts over tens of seconds, by
//! up to 1.7x, as other tenants load the cores, caches and memory; the
//! CPU time of a harness call drifts with its wall time, so no clock
//! removes it. A harness call slows down by about as much as a kernel
//! with the same kind of work: point lookups and in-place updates spread
//! over an ordered map of tens of MB, as the simulator's maps, queues
//! and page store are. The kernel is the benchmark's own code, so a
//! change to the simulator does not move it, and every pass does the
//! same work: it only updates values of keys that exist, so the map
//! never changes shape.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Keys in the map, about 40 MB with the tree's nodes: larger than the
/// per-core L2 cache, within a shared L3.
const KEYS: u64 = 1 << 20;

/// Lookups per timed pass, about 0.1 s on a quiet host.
const OPS: u64 = 400_000;

/// Host seconds of one pass on a quiet host: the floor measured on a
/// 2-vCPU Intel Xeon virtual machine. It only scales corrected times to
/// seconds; the correction itself is the ratio of this to the pass time
/// measured beside each call.
pub const QUIET_S: f64 = 0.10;

/// The reference kernel and its map.
pub struct Reference {
    map: BTreeMap<u64, u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            map: (0..KEYS).map(|k| (k, k)).collect(),
        }
    }
}

impl Reference {
    /// Host seconds of one pass.
    pub fn time(&mut self) -> f64 {
        let mut rng = simkit::DetRng::new(0x5EED);
        let mut acc = 0u64;
        let t0 = Instant::now();
        for _ in 0..OPS {
            let v = self
                .map
                .get_mut(&rng.gen_range(0..KEYS))
                .expect("every key below KEYS exists");
            *v = v.wrapping_add(acc);
            acc = acc.wrapping_add(*v);
        }
        let secs = t0.elapsed().as_secs_f64();
        black_box(acc);
        secs
    }

    /// Mean host seconds of `passes` passes back to back.
    pub fn mean_time(&mut self, passes: usize) -> f64 {
        (0..passes).map(|_| self.time()).sum::<f64>() / passes as f64
    }
}

/// `host_s` as it would read on a quiet host, given the reference pass
/// time `reference_s` measured beside it.
pub fn corrected(host_s: f64, reference_s: f64) -> f64 {
    host_s * QUIET_S / reference_s
}
