//! The adaptive offload policy (§IV, §V-C): SmartDIMM is only worth
//! using when the LLC is contended; otherwise on-CPU execution wins.
//!
//! The paper's modified OpenSSL engine "selectively offloads TLS to
//! SmartDIMM or processes it on the CPU based on the level of LLC
//! contention", assessed by "frequently sampling the miss rate of the
//! LLC" against a configurable threshold. [`AdaptivePolicy`] reproduces
//! that controller, with hysteresis so the decision does not flap around
//! the threshold.

/// Where the next ULP operation should execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Run the transform on the CPU (low contention).
    Cpu,
    /// Offload through CompCpy to SmartDIMM (high contention).
    SmartDimm,
}

/// Miss-rate-driven placement controller.
///
/// # Example
///
/// ```
/// use smartdimm::policy::{AdaptivePolicy, Placement};
/// let mut p = AdaptivePolicy::new(0.3, 0.05);
/// assert_eq!(p.decide(0.1), Placement::Cpu);
/// assert_eq!(p.decide(0.5), Placement::SmartDimm);
/// // Hysteresis: a dip just below the threshold does not flip back.
/// assert_eq!(p.decide(0.27), Placement::SmartDimm);
/// assert_eq!(p.decide(0.1), Placement::Cpu);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptivePolicy {
    threshold: f64,
    hysteresis: f64,
    current: Placement,
    switches: u64,
    decisions: u64,
}

impl AdaptivePolicy {
    /// Creates a policy that offloads when the sampled LLC miss rate
    /// exceeds `threshold`, returning to the CPU only when it falls below
    /// `threshold - hysteresis`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold <= 1` and `0 <= hysteresis < threshold`.
    pub fn new(threshold: f64, hysteresis: f64) -> AdaptivePolicy {
        assert!(threshold > 0.0 && threshold <= 1.0, "threshold range");
        assert!((0.0..threshold).contains(&hysteresis), "hysteresis range");
        AdaptivePolicy {
            threshold,
            hysteresis,
            current: Placement::Cpu,
            switches: 0,
            decisions: 0,
        }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Decides placement for the next operation given the sampled LLC
    /// miss rate.
    ///
    /// Boundary semantics (pinned by tests): a rate *exactly at*
    /// `threshold` does not offload (strictly "exceeds"), and a rate
    /// *exactly at* `threshold - hysteresis` does not return to the CPU
    /// (strictly "falls below").
    pub fn decide(&mut self, llc_miss_rate: f64) -> Placement {
        self.decisions += 1;
        let next = match self.current {
            Placement::Cpu if llc_miss_rate > self.threshold => Placement::SmartDimm,
            Placement::SmartDimm if llc_miss_rate < self.threshold - self.hysteresis => {
                Placement::Cpu
            }
            cur => cur,
        };
        if next != self.current {
            // The initial `current` is a pre-decision default, not an
            // observed placement: the first decision establishes state
            // rather than transitioning, so it never counts as a switch.
            if self.decisions > 1 {
                self.switches += 1;
            }
            self.current = next;
        }
        next
    }

    /// The current placement without re-evaluating.
    pub fn current(&self) -> Placement {
        self.current
    }

    /// Number of CPU↔SmartDIMM transitions so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_on_cpu() {
        let p = AdaptivePolicy::new(0.3, 0.05);
        assert_eq!(p.current(), Placement::Cpu);
    }

    #[test]
    fn crosses_threshold_upward() {
        let mut p = AdaptivePolicy::new(0.3, 0.05);
        assert_eq!(p.decide(0.29), Placement::Cpu);
        assert_eq!(p.decide(0.31), Placement::SmartDimm);
        assert_eq!(p.switches(), 1);
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        let mut p = AdaptivePolicy::new(0.3, 0.1);
        p.decide(0.5);
        assert_eq!(p.current(), Placement::SmartDimm);
        // Oscillate in the hysteresis band: stays offloaded.
        for rate in [0.28, 0.25, 0.22, 0.21] {
            assert_eq!(p.decide(rate), Placement::SmartDimm);
        }
        assert_eq!(p.decide(0.19), Placement::Cpu);
        // Only the SmartDimm→Cpu transition counts: the opening
        // decide(0.5) was the first decision and establishes state.
        assert_eq!(p.switches(), 1);
    }

    #[test]
    fn first_decision_is_not_a_switch() {
        // Regression: the initial `current: Cpu` is a pre-decision
        // default; a first decision landing on SmartDimm used to be
        // counted as a CPU→SmartDIMM transition.
        let mut p = AdaptivePolicy::new(0.3, 0.05);
        assert_eq!(p.decide(0.9), Placement::SmartDimm);
        assert_eq!(p.switches(), 0);
        // Subsequent transitions still count.
        assert_eq!(p.decide(0.1), Placement::Cpu);
        assert_eq!(p.switches(), 1);
    }

    #[test]
    fn exactly_threshold_does_not_offload() {
        // Pin the boundary: the docs say "exceeds", so a miss rate of
        // exactly `threshold` stays on the CPU. 0.5 is exactly
        // representable, so the comparison is not at the mercy of
        // rounding.
        let mut p = AdaptivePolicy::new(0.5, 0.125);
        assert_eq!(p.decide(0.5), Placement::Cpu);
        assert_eq!(p.switches(), 0);
        assert_eq!(p.decide(0.5000001), Placement::SmartDimm);
    }

    #[test]
    fn exactly_hysteresis_floor_stays_offloaded() {
        // Pin the boundary: returning to the CPU requires the rate to
        // fall strictly below `threshold - hysteresis`; exactly at the
        // floor stays on SmartDIMM. 0.5 - 0.125 = 0.375 exactly.
        let mut p = AdaptivePolicy::new(0.5, 0.125);
        assert_eq!(p.decide(0.75), Placement::SmartDimm);
        assert_eq!(p.decide(0.375), Placement::SmartDimm);
        assert_eq!(p.decide(0.3749), Placement::Cpu);
    }

    #[test]
    #[should_panic(expected = "threshold range")]
    fn bad_threshold_rejected() {
        AdaptivePolicy::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "hysteresis range")]
    fn bad_hysteresis_rejected() {
        AdaptivePolicy::new(0.3, 0.3);
    }
}
