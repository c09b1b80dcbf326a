//! The qualitative ULP-processing design-space comparison of Fig. 13.
//!
//! The figure scores each accelerator placement against six criteria.
//! This module encodes those scores (0 = poor, 1 = partial, 2 = strong)
//! with the paper's rationale, and renders the matrix for the
//! `fig13_design_space` binary. Where a score is checkable in this
//! simulator (LLC-contention behaviour, loss resilience, non-size-
//! preserving support), the integration tests cross-check it against
//! measured behaviour.

use crate::server::PlatformKind;

/// One comparison criterion from Fig. 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Criterion {
    /// Performance when the LLC is lightly contended.
    LowLlcContention,
    /// Performance when the LLC is heavily contended.
    HighLlcContention,
    /// Works atop both TCP and UDP transports.
    TransportCompatibility,
    /// Supports non-size-preserving / non-incremental ULPs.
    DiverseUlps,
    /// Keeps its benefit under packet loss and reordering.
    LossResilience,
    /// Leaves the layer-4 software stack free to evolve.
    TransportFlexibility,
}

impl Criterion {
    /// All criteria, in the figure's order.
    pub const ALL: [Criterion; 6] = [
        Criterion::LowLlcContention,
        Criterion::HighLlcContention,
        Criterion::TransportCompatibility,
        Criterion::DiverseUlps,
        Criterion::LossResilience,
        Criterion::TransportFlexibility,
    ];

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Criterion::LowLlcContention => "low LLC contention",
            Criterion::HighLlcContention => "high LLC contention",
            Criterion::TransportCompatibility => "TCP & UDP support",
            Criterion::DiverseUlps => "diverse ULPs",
            Criterion::LossResilience => "loss resilience",
            Criterion::TransportFlexibility => "L4 flexibility",
        }
    }
}

/// Scores a placement on a criterion (0 = poor, 1 = partial, 2 = strong),
/// following §VIII's discussion.
pub fn score(placement: PlatformKind, criterion: Criterion) -> u8 {
    use Criterion::*;
    use PlatformKind::*;
    match (placement, criterion) {
        // CPU: flexible everywhere, but burns cache and cycles under load.
        (Cpu, LowLlcContention) => 2,
        (Cpu, HighLlcContention) => 0,
        (Cpu, TransportCompatibility) => 2,
        (Cpu, DiverseUlps) => 2,
        (Cpu, LossResilience) => 2,
        (Cpu, TransportFlexibility) => 2,
        // Autonomous SmartNIC: great until packets drop; size-preserving only.
        (SmartNic, LowLlcContention) => 2,
        (SmartNic, HighLlcContention) => 1,
        (SmartNic, TransportCompatibility) => 1,
        (SmartNic, DiverseUlps) => 0,
        (SmartNic, LossResilience) => 0,
        (SmartNic, TransportFlexibility) => 2,
        // PCIe lookaside: coarse-grain only; copies and notifications hurt.
        (QuickAssist, LowLlcContention) => 1,
        (QuickAssist, HighLlcContention) => 0,
        (QuickAssist, TransportCompatibility) => 2,
        (QuickAssist, DiverseUlps) => 2,
        (QuickAssist, LossResilience) => 2,
        (QuickAssist, TransportFlexibility) => 2,
        // SmartDIMM: designed for high contention; transport-agnostic
        // because it sits above L4 on the memory path.
        (SmartDimm, LowLlcContention) => 1,
        (SmartDimm, HighLlcContention) => 2,
        (SmartDimm, TransportCompatibility) => 2,
        (SmartDimm, DiverseUlps) => 2,
        (SmartDimm, LossResilience) => 2,
        (SmartDimm, TransportFlexibility) => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smartdimm_wins_high_contention() {
        for p in [
            PlatformKind::Cpu,
            PlatformKind::SmartNic,
            PlatformKind::QuickAssist,
        ] {
            assert!(
                score(PlatformKind::SmartDimm, Criterion::HighLlcContention)
                    > score(p, Criterion::HighLlcContention)
                    || p == PlatformKind::SmartNic
            );
        }
    }

    #[test]
    fn smartnic_fails_loss_and_diverse_ulps() {
        assert_eq!(score(PlatformKind::SmartNic, Criterion::LossResilience), 0);
        assert_eq!(score(PlatformKind::SmartNic, Criterion::DiverseUlps), 0);
    }

    #[test]
    fn cpu_is_most_flexible_but_contention_bound() {
        assert_eq!(score(PlatformKind::Cpu, Criterion::DiverseUlps), 2);
        assert_eq!(score(PlatformKind::Cpu, Criterion::HighLlcContention), 0);
    }
}
