//! Deterministic fault injection ("chaos") for the simulation stack.
//!
//! A [`FaultPlan`] is a seeded, reproducible list of fault events. Each
//! event arms at a specific offload index (or, for TCP faults, covers a
//! window of transmitted segments) and is consumed by injection hooks
//! threaded through the memory system, the SmartDIMM buffer device, the
//! CompCpy host and the TCP model:
//!
//! * [`FaultKind::XlatPressure`] — dummy translation-table registrations
//!   (competing tenants) inserted before an offload registers, driving
//!   cuckoo displacement chains, CAM-stash spills and `TableFull`.
//! * [`FaultKind::ScratchHog`] — scratchpad pages staged by phantom
//!   offloads that are never consumed, forcing the host into
//!   Force-Recycle (Algorithm 1) or clean `OutOfScratchpad` failure.
//! * [`FaultKind::DropSourceFeed`] — the buffer device misses one source
//!   cacheline interception (S6), leaving the DSA starved until the host
//!   re-feeds the source range.
//! * [`FaultKind::DelayWriteback`] — a `clflush` leaves the last N dirty
//!   lines stuck in a write buffer instead of reaching DRAM; they stay
//!   pending until [`drained explicitly`](FaultHandle::writeback_faults).
//! * [`FaultKind::ReorderWriteback`] — a flush delivers its writebacks in
//!   reverse address order (the device must tolerate out-of-order CAS).
//! * [`FaultKind::TcpLossBurst`] — a contiguous run of TCP segments is
//!   force-dropped regardless of the configured loss probability.
//!
//! All state lives behind a shared, cloneable [`FaultHandle`]; components
//! hold an `Option<FaultHandle>` so the un-faulted hot path pays nothing.
//! Every firing is appended to a log so tests can assert that the same
//! seed reproduces the identical fault sequence.

use crate::par::Shared;
use crate::rng::DetRng;

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Insert `entries` dummy source registrations into every device's
    /// translation table before the offload registers.
    XlatPressure { entries: usize },
    /// Stage `pages` phantom scratchpad pages (fully valid, never
    /// consumed) on every device before the offload reserves space.
    ScratchHog { pages: usize },
    /// Drop the device-side DSA feed of source line `line` (0-based,
    /// message line index) — once.
    DropSourceFeed { line: usize },
    /// Defer the last `lines` dirty writebacks of the next flush.
    DelayWriteback { lines: usize },
    /// Deliver the next flush's writebacks in reverse address order.
    ReorderWriteback,
    /// Force-drop TCP segments `start..start + len` (by send index).
    TcpLossBurst { start: u64, len: u64 },
}

impl FaultKind {
    fn label(&self) -> String {
        match self {
            FaultKind::XlatPressure { entries } => format!("xlat_pressure({entries})"),
            FaultKind::ScratchHog { pages } => format!("scratch_hog({pages})"),
            FaultKind::DropSourceFeed { line } => format!("drop_source_feed({line})"),
            FaultKind::DelayWriteback { lines } => format!("delay_writeback({lines})"),
            FaultKind::ReorderWriteback => "reorder_writeback".to_string(),
            FaultKind::TcpLossBurst { start, len } => format!("tcp_loss_burst({start},{len})"),
        }
    }
}

/// A fault armed at a specific offload index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// 0-based index of the offload (per [`FaultHandle::begin_offload`]
    /// call) at which the fault arms. Ignored for [`FaultKind::TcpLossBurst`],
    /// which is active for the whole run.
    pub at_offload: u64,
    pub kind: FaultKind,
}

/// A seeded, deterministic list of fault events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    pub seed: u64,
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn empty() -> FaultPlan {
        FaultPlan {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// Generates a plan from `seed`: one to four events spread across the
    /// first `horizon` offloads. The same seed always yields the same
    /// plan.
    pub fn generate(seed: u64, horizon: u64) -> FaultPlan {
        assert!(horizon > 0, "horizon must cover at least one offload");
        let mut rng = DetRng::new(seed ^ 0xFA17_FA17_FA17_FA17);
        let n = 1 + rng.gen_range(0..4);
        let mut events = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let at_offload = rng.gen_range(0..horizon);
            let kind = match rng.gen_range(0..100) {
                0..=24 => FaultKind::XlatPressure {
                    entries: 24 + rng.gen_range(0..140) as usize,
                },
                25..=49 => FaultKind::ScratchHog {
                    pages: 1 + rng.gen_range(0..8) as usize,
                },
                50..=64 => FaultKind::DropSourceFeed {
                    line: rng.gen_range(0..64) as usize,
                },
                65..=79 => FaultKind::DelayWriteback {
                    lines: 1 + rng.gen_range(0..8) as usize,
                },
                80..=89 => FaultKind::ReorderWriteback,
                _ => FaultKind::TcpLossBurst {
                    start: rng.gen_range(0..96),
                    len: 1 + rng.gen_range(0..12),
                },
            };
            events.push(FaultEvent { at_offload, kind });
        }
        events.sort_by_key(|e| e.at_offload);
        FaultPlan { seed, events }
    }

    /// Events that arm at offload `index` (TCP bursts excluded — they are
    /// always active).
    fn armed_at(&self, index: u64) -> Vec<FaultKind> {
        self.events
            .iter()
            .filter(|e| e.at_offload == index && !matches!(e.kind, FaultKind::TcpLossBurst { .. }))
            .map(|e| e.kind)
            .collect()
    }
}

/// A fault that actually fired, for determinism assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// Offload index at which it fired (TCP bursts report the burst's
    /// first segment index instead).
    pub offload: u64,
    /// Human-readable label, e.g. `xlat_pressure(96)`.
    pub label: String,
}

#[derive(Debug)]
struct InjectorState {
    plan: FaultPlan,
    /// Offload index of the *current* offload (`begin_offload` count − 1).
    offload_index: Option<u64>,
    /// Faults armed for the current offload, consumed by hooks.
    armed: Vec<FaultKind>,
    /// TCP bursts that already reported a firing.
    bursts_fired: Vec<usize>,
    fired: Vec<FiredFault>,
}

/// Shared, cloneable access to one fault injector. All components in a
/// simulated stack hold clones of the same handle.
#[derive(Debug, Clone)]
pub struct FaultHandle {
    state: Shared<InjectorState>,
}

impl FaultHandle {
    pub fn new(plan: FaultPlan) -> FaultHandle {
        FaultHandle {
            state: Shared::new(InjectorState {
                plan,
                offload_index: None,
                armed: Vec::new(),
                bursts_fired: Vec::new(),
                fired: Vec::new(),
            }),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> FaultPlan {
        self.state.with(|s| s.plan.clone())
    }

    /// Advances to the next offload and arms its faults. Returns the
    /// *preparation* faults ([`FaultKind::XlatPressure`] and
    /// [`FaultKind::ScratchHog`]) the caller must apply before the
    /// offload registers; those are recorded as fired here. The remaining
    /// armed faults are consumed (and recorded) by the device and memory
    /// hooks as they trigger.
    pub fn begin_offload(&self) -> Vec<FaultKind> {
        self.state.with(|s| {
            let index = s.offload_index.map_or(0, |i| i + 1);
            s.offload_index = Some(index);
            s.armed = s.plan.armed_at(index);
            let preps: Vec<FaultKind> = s
                .armed
                .iter()
                .copied()
                .filter(|k| {
                    matches!(
                        k,
                        FaultKind::XlatPressure { .. } | FaultKind::ScratchHog { .. }
                    )
                })
                .collect();
            for k in &preps {
                let label = k.label();
                s.fired.push(FiredFault {
                    offload: index,
                    label,
                });
            }
            s.armed.retain(|k| {
                !matches!(
                    k,
                    FaultKind::XlatPressure { .. } | FaultKind::ScratchHog { .. }
                )
            });
            preps
        })
    }

    /// Device hook (S6): should the DSA feed of message line `line` be
    /// dropped? Fires at most once per armed event.
    pub fn drop_source_feed(&self, line: usize) -> bool {
        self.state.with(|s| {
            let Some(pos) = s
                .armed
                .iter()
                .position(|k| matches!(k, FaultKind::DropSourceFeed { line: l } if *l == line))
            else {
                return false;
            };
            let kind = s.armed.remove(pos);
            let offload = s.offload_index.unwrap_or(0);
            let label = kind.label();
            s.fired.push(FiredFault { offload, label });
            true
        })
    }

    /// Memory-system hook: disturbance to apply to the current flush.
    /// Returns `(reorder, delayed_lines)` and consumes the armed events.
    pub fn writeback_faults(&self) -> (bool, usize) {
        self.state.with(|s| {
            let mut reorder = false;
            let mut delay = 0usize;
            let offload = s.offload_index.unwrap_or(0);
            let mut fired = Vec::new();
            s.armed.retain(|k| match *k {
                FaultKind::ReorderWriteback => {
                    reorder = true;
                    fired.push(k.label());
                    false
                }
                FaultKind::DelayWriteback { lines } => {
                    delay = lines;
                    fired.push(k.label());
                    false
                }
                _ => true,
            });
            for label in fired {
                s.fired.push(FiredFault { offload, label });
            }
            (reorder, delay)
        })
    }

    /// TCP hook: force-drop the segment with send index `seg`?
    pub fn tcp_force_drop(&self, seg: u64) -> bool {
        self.state.with(|s| {
            for (i, e) in s.plan.events.clone().iter().enumerate() {
                if let FaultKind::TcpLossBurst { start, len } = e.kind {
                    if seg >= start && seg < start + len {
                        if !s.bursts_fired.contains(&i) {
                            s.bursts_fired.push(i);
                            s.fired.push(FiredFault {
                                offload: start,
                                label: e.kind.label(),
                            });
                        }
                        return true;
                    }
                }
            }
            false
        })
    }

    /// Every fault that fired, in order.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.state.with(|s| s.fired.clone())
    }

    /// Compact `offload:label` log of every firing, for determinism
    /// comparisons.
    pub fn fired_log(&self) -> Vec<String> {
        self.state.with(|s| {
            s.fired
                .iter()
                .map(|f| format!("{}:{}", f.offload, f.label))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        for seed in 0..50u64 {
            let a = FaultPlan::generate(seed, 4);
            let b = FaultPlan::generate(seed, 4);
            assert_eq!(a, b);
            assert!(!a.events.is_empty() && a.events.len() <= 4);
            assert!(a.events.iter().all(|e| e.at_offload < 4));
        }
        assert_ne!(FaultPlan::generate(1, 4), FaultPlan::generate(2, 4));
    }

    #[test]
    fn begin_offload_arms_and_records_prep_faults() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent {
                    at_offload: 0,
                    kind: FaultKind::XlatPressure { entries: 10 },
                },
                FaultEvent {
                    at_offload: 0,
                    kind: FaultKind::DropSourceFeed { line: 3 },
                },
                FaultEvent {
                    at_offload: 1,
                    kind: FaultKind::ScratchHog { pages: 2 },
                },
            ],
        };
        let h = FaultHandle::new(plan);
        let preps = h.begin_offload();
        assert_eq!(preps, vec![FaultKind::XlatPressure { entries: 10 }]);
        // The drop fault is armed, not fired yet.
        assert_eq!(h.fired_log(), vec!["0:xlat_pressure(10)"]);
        assert!(!h.drop_source_feed(2), "wrong line must not fire");
        assert!(h.drop_source_feed(3));
        assert!(!h.drop_source_feed(3), "fires only once");
        let preps = h.begin_offload();
        assert_eq!(preps, vec![FaultKind::ScratchHog { pages: 2 }]);
        assert_eq!(
            h.fired_log(),
            vec![
                "0:xlat_pressure(10)",
                "0:drop_source_feed(3)",
                "1:scratch_hog(2)"
            ]
        );
    }

    #[test]
    fn writeback_faults_consume_once() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent {
                    at_offload: 0,
                    kind: FaultKind::DelayWriteback { lines: 4 },
                },
                FaultEvent {
                    at_offload: 0,
                    kind: FaultKind::ReorderWriteback,
                },
            ],
        };
        let h = FaultHandle::new(plan);
        h.begin_offload();
        assert_eq!(h.writeback_faults(), (true, 4));
        assert_eq!(h.writeback_faults(), (false, 0), "consumed");
    }

    #[test]
    fn tcp_bursts_cover_their_window() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                at_offload: 0,
                kind: FaultKind::TcpLossBurst { start: 5, len: 3 },
            }],
        };
        let h = FaultHandle::new(plan);
        assert!(!h.tcp_force_drop(4));
        assert!(h.tcp_force_drop(5));
        assert!(h.tcp_force_drop(6));
        assert!(h.tcp_force_drop(7));
        assert!(!h.tcp_force_drop(8));
        // One log entry per burst, not per segment.
        assert_eq!(h.fired_log(), vec!["5:tcp_loss_burst(5,3)"]);
    }

    #[test]
    fn clones_share_state() {
        let h = FaultHandle::new(FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                at_offload: 0,
                kind: FaultKind::DropSourceFeed { line: 0 },
            }],
        });
        let h2 = h.clone();
        h.begin_offload();
        assert!(h2.drop_source_feed(0));
        assert_eq!(h.fired().len(), 1);
    }
}
