//! Wall-clock stopwatch for self-timing benchmarks.
//!
//! Simulation code must never read the host clock — simlint's `DET-NOW`
//! rule bans `Instant::now` because replayed runs must not diverge, and
//! simulated time is [`crate::Cycle`]. The one legitimate consumer of
//! wall time is the benchmark harness that measures how fast the
//! *simulator itself* runs (the ns/op numbers in `BENCH_hotpaths.json`).
//! This module is the single sanctioned doorway to the host clock, so
//! bench binaries do not scatter `Instant::now` calls (each needing its
//! own lint allow) across the workspace.

use std::time::{Duration, Instant};

/// A started wall-clock timer.
///
/// # Example
///
/// ```
/// use simkit::timer::Stopwatch;
/// let sw = Stopwatch::start();
/// let mut acc = 0u64;
/// for i in 0..1000u64 { acc = acc.wrapping_add(i); }
/// assert!(sw.elapsed_ns() > 0 || acc > 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a new stopwatch at the current instant.
    #[allow(clippy::new_without_default)]
    pub fn start() -> Stopwatch {
        // simlint: allow(DET-NOW): this module IS the sanctioned wall-clock doorway for benchmarks
        let start = Instant::now();
        Stopwatch { start }
    }

    /// Wall time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed wall time in nanoseconds, saturating at `u64::MAX`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Times one call of `f`, returning `(result, elapsed_ns)`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.elapsed_ns())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
    }

    #[test]
    fn time_returns_result_and_duration() {
        let (out, ns) = time(|| (0..1000u64).sum::<u64>());
        assert_eq!(out, 499_500);
        // Elapsed time can legitimately quantize to 0 on coarse clocks,
        // but must never go backwards; just check it is a valid u64.
        assert!(ns < u64::MAX);
    }
}
