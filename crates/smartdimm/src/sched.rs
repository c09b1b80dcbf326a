//! Host-side offload placement scheduling.
//!
//! With one DIMM per channel, placement is a non-problem: the per-line
//! channel decode fixes which shard serves every cacheline and each
//! channel's DIMM carries a buffer device. Scale-out topologies break
//! both assumptions — only one DIMM slot per channel carries the DSA,
//! and a two-socket system makes some shards *remote* (every CAS pays
//! the interconnect). Placement becomes a real decision, which the PIM
//! adoption literature (Ghose et al.) calls out as the central obstacle
//! to near-memory processing.
//!
//! This module holds the policy side of that decision: pure functions
//! over per-shard snapshots, no simulator state. [`crate::CompCpyHost`]
//! samples its shards (the same scratchpad/xlat inputs that
//! [`crate::QueuePressure`] reports), asks [`pick`] for a target, and
//! implements the placement mechanically (home-region staging). Keeping
//! the scoring pure keeps the decision deterministic: identical
//! simulated state yields identical placements at any thread count.

#![deny(missing_docs)]

/// Score penalty for a shard on a remote socket, in the same unit as the
/// pressure scalar (`0.0`–`1.0` occupancy): a remote shard must be half
/// a scratchpad emptier than a local one before it wins.
const REMOTE_WEIGHT: f64 = 0.5;

/// Minimum score improvement before a resident offload is migrated off
/// its statically decoded placement. Guards against churning the
/// staging pools for marginal wins.
pub const MIGRATE_MARGIN: f64 = 0.25;

/// How CompCpy places offloads onto channel shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// The per-line channel decode is the only placement mechanism: an
    /// offload runs wherever its source buffer's lines happen to map.
    /// Sources that touch a DSA-less DIMM slot are re-homed to the
    /// statically decoded channel — never migrated for load or locality.
    #[default]
    Static,
    /// Occupancy + locality scheduling: pinnable offloads go to the
    /// shard with the lowest combined pressure/remoteness [`score`];
    /// already-resident offloads migrate when the best shard beats their
    /// current placement by more than [`MIGRATE_MARGIN`].
    OccupancyLocality,
}

/// Scheduler configuration, carried in
/// [`crate::HostConfig`](crate::compcpy::HostConfig).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedConfig {
    /// The placement policy.
    pub policy: PlacementPolicy,
}

/// One shard's inputs to a placement decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSnapshot {
    /// The channel this shard serves.
    pub channel: usize,
    /// Combined occupancy scalar in `[0, 1]`: the worst of scratchpad
    /// usage and translation-table occupancy
    /// (see [`crate::QueuePressure::scalar`]).
    pub pressure: f64,
    /// Whether the shard's channel is on a different socket than the
    /// issuing host (every CAS pays the interconnect penalty).
    pub remote: bool,
}

/// The placement score of one shard — lower is better. Occupancy plus
/// the locality penalty for remote-socket shards.
pub fn score(shard: &ShardSnapshot) -> f64 {
    shard.pressure + if shard.remote { REMOTE_WEIGHT } else { 0.0 }
}

/// Picks the best-scoring shard; ties break to the lowest channel so
/// the decision is deterministic.
///
/// # Panics
///
/// Panics on an empty snapshot slice.
pub fn pick(shards: &[ShardSnapshot]) -> ShardSnapshot {
    assert!(!shards.is_empty(), "no shards to place onto");
    let mut best = shards[0];
    for s in &shards[1..] {
        if score(s) < score(&best) {
            best = *s;
        }
    }
    best
}

/// Placement-decision counters, exported under the host's `sched`
/// telemetry scope. Deterministic: decisions depend only on simulated
/// state, never on thread count or wall clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStats {
    /// Offloads placed by the static per-line decode (resident source,
    /// no migration).
    pub static_placements: u64,
    /// Offloads whose source touched a DSA-less DIMM slot and was
    /// staged into a device-visible home region (mandatory re-homing —
    /// both policies must do this for correctness).
    pub rehomed_offloads: u64,
    /// Resident offloads the occupancy+locality policy moved off their
    /// statically decoded shard (policy-driven,
    /// [`PlacementPolicy::OccupancyLocality`] only).
    pub migrated_offloads: u64,
    /// Offloads whose effective source touched at least one
    /// remote-socket channel.
    pub remote_placements: u64,
    /// Offloads served entirely by home-socket shards.
    pub local_placements: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(channel: usize, pressure: f64, remote: bool) -> ShardSnapshot {
        ShardSnapshot {
            channel,
            pressure,
            remote,
        }
    }

    #[test]
    fn pick_prefers_low_pressure() {
        let shards = [snap(0, 0.8, false), snap(1, 0.2, false)];
        assert_eq!(pick(&shards).channel, 1);
    }

    #[test]
    fn locality_outweighs_small_pressure_gap() {
        // A remote shard must be more than `REMOTE_WEIGHT` emptier to
        // win; a 0.3 pressure gap does not clear the 0.5 penalty.
        let shards = [snap(0, 0.4, false), snap(1, 0.1, true)];
        assert_eq!(pick(&shards).channel, 0);
        // A large enough gap does.
        let shards = [snap(0, 0.9, false), snap(1, 0.1, true)];
        assert_eq!(pick(&shards).channel, 1);
    }

    #[test]
    fn ties_break_to_lowest_channel() {
        let shards = [
            snap(0, 0.5, false),
            snap(1, 0.5, false),
            snap(2, 0.5, false),
        ];
        assert_eq!(pick(&shards).channel, 0);
    }
}
