//! The sanctioned threading doorway (`THREAD-DET`) and the deterministic
//! parallel runtime built behind it.
//!
//! Live sim code must not name `std::thread`/`Mutex`/`Atomic*`/channel
//! primitives directly — scheduler-dependent event order breaks the
//! byte-determinism every differential suite relies on. This module is
//! the one place allowed to own such primitives (mirroring the
//! `simkit::timer` wall-clock doorway for `DET-NOW`), so that every
//! cross-thread interaction of the parallel runtime is funneled through
//! wrappers this crate keeps deterministic.
//!
//! # Shared-state wrapper
//!
//! Two invariants [`Shared`] enforces:
//!
//! * **no poison panics** — a panicking holder must not take the whole
//!   simulation down with a `lock().unwrap()` cascade: state behind it
//!   is plain data whose consistency the sim's own invariant checks
//!   guard, so locks recover the inner value from a [`PoisonError`]
//!   instead of propagating it;
//! * **closure-scoped access** — guards never escape ([`Shared::with`]
//!   takes a closure), so lock scopes are lexical and the deterministic
//!   scheduler can reason about (and instrument) every critical section.
//!
//! # The parallel runtime
//!
//! [`run_indexed`] executes a batch of independent tasks on a small
//! work-stealing pool and returns the results **in input order**,
//! regardless of which worker ran what. Determinism is preserved by
//! construction, not by prayer:
//!
//! * tasks must be *disjoint* (each owns its input — e.g. one sweep
//!   configuration); the type system enforces this by moving each item
//!   into exactly one task invocation;
//! * result order is the input index order, so telemetry mounting never
//!   observes scheduler order;
//! * scheduler-dependent observables (which worker ran a task, how many
//!   steals happened) are quarantined in [`ParStats`] and must never be
//!   folded into a `telemetry/v1` snapshot — they may only be reported
//!   in non-deterministic wrapper metadata (the same quarantine as
//!   `run_report/v1`'s `generated_at_unix`).
#![deny(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Shared, cloneable, poison-recovering access to one value — the
/// `Arc<Mutex<T>>` idiom behind the doorway. Every component of a
/// simulated stack can hold a clone (the fault injector and every
/// telemetry counter handle do).
///
/// ```
/// use simkit::par::Shared;
///
/// let log = Shared::new(Vec::<&str>::new());
/// let writer = log.clone();
/// writer.with(|l| l.push("offload 7 settled"));
/// assert_eq!(log.with(|l| l.len()), 1);
/// ```
#[derive(Debug, Default)]
pub struct Shared<T> {
    inner: Arc<Mutex<T>>,
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Shared<T> {
        Shared {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Shared<T> {
    /// Wraps `value` in a shared, poison-recovering cell.
    pub fn new(value: T) -> Shared<T> {
        Shared {
            inner: Arc::new(Mutex::new(value)),
        }
    }

    /// Runs `f` with the locked value, recovering from poison.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }
}

/// Environment knob naming the worker count for parallel sections
/// (`SMARTDIMM_THREADS=2 cargo run -p bench --bin run_report`). Read
/// only through [`configured_threads`].
pub const THREADS_ENV: &str = "SMARTDIMM_THREADS";

/// Resolves the effective worker count for a parallel section.
///
/// `requested > 0` wins; `requested == 0` means "configured": the
/// [`THREADS_ENV`] environment variable if set to a positive integer,
/// else `1` (fully sequential). The resolved count never influences
/// simulated state — only wall-clock — so reading the environment here
/// does not breach determinism.
pub fn configured_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    match std::env::var(THREADS_ENV) {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or(1),
        Err(_) => 1,
    }
}

/// Scheduler-dependent observables of one [`run_indexed`] call.
///
/// These numbers vary with thread count and OS scheduling; they exist
/// for wall-clock reporting (the `run_report/v1` wrapper) and must never
/// be written into a deterministic telemetry snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Workers that participated (1 for the inline sequential path).
    pub workers: usize,
    /// Tasks executed.
    pub tasks: u64,
    /// Tasks a worker stole from another worker's deque.
    pub steals: u64,
}

/// One worker's end of the work-stealing deque set: the owner pops from
/// the bottom (LIFO, cache-warm), thieves steal from the top (FIFO,
/// oldest task first). Mutex-backed — task bodies here are whole
/// simulations, so deque overhead is noise.
struct WsDeque<T> {
    jobs: Mutex<VecDeque<(usize, T)>>,
}

impl<T> WsDeque<T> {
    fn new() -> WsDeque<T> {
        WsDeque {
            jobs: Mutex::new(VecDeque::new()),
        }
    }

    fn push(&self, job: (usize, T)) {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(job);
    }

    /// Owner pop: newest task first.
    fn pop(&self) -> Option<(usize, T)> {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_back()
    }

    /// Thief pop: oldest task first.
    fn steal(&self) -> Option<(usize, T)> {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
    }
}

/// Runs `f(index, item)` for every item on a work-stealing worker pool
/// and returns the results **in input order** plus the (non-
/// deterministic) scheduler stats.
///
/// With `threads <= 1` or fewer than two items the call degrades to a
/// plain inline loop on the caller's thread — byte-for-byte the
/// sequential behavior, no threads spawned. Tasks must be independent:
/// each item is moved into exactly one `f` invocation and nothing else
/// of the caller's state is reachable (enforce with `Fn` + `Sync`).
///
/// Panic containment: a panicking task poisons nothing (results and
/// deques recover from poison) and the panic is re-raised on the caller
/// thread after the scope joins, so a worker never dies silently.
pub fn run_indexed<T, R, F>(threads: usize, items: Vec<T>, f: F) -> (Vec<R>, ParStats)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let tasks = items.len() as u64;
    if threads <= 1 || items.len() < 2 {
        let results = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
        return (
            results,
            ParStats {
                workers: 1,
                tasks,
                steals: 0,
            },
        );
    }

    let workers = threads.min(items.len());
    let deques: Vec<WsDeque<T>> = (0..workers).map(|_| WsDeque::new()).collect();
    // Round-robin seeding spreads the initial load; stealing fixes any
    // imbalance that develops from uneven task costs.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    for (i, item) in items.into_iter().enumerate() {
        deques[i % workers].push((i, item));
        slots.push(None);
    }
    let results = Shared::new(slots);
    let steals = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let deques = &deques;
                let f = &f;
                let results = results.clone();
                let steals = &steals;
                scope.spawn(move || {
                    loop {
                        let job = deques[w].pop().or_else(|| {
                            // Scan siblings round-robin from our right
                            // neighbor; count successful steals.
                            (1..workers).find_map(|d| {
                                let job = deques[(w + d) % workers].steal();
                                if job.is_some() {
                                    steals.fetch_add(1, Ordering::Relaxed);
                                }
                                job
                            })
                        });
                        let Some((i, item)) = job else { break };
                        let r = f(i, item);
                        results.with(|slots| slots[i] = Some(r));
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let collected = results.with(|slots| {
        slots
            .iter_mut()
            .map(|s| s.take().expect("every task index produced a result"))
            .collect()
    });
    (
        collected,
        ParStats {
            workers,
            tasks,
            steals: steals.load(Ordering::Relaxed),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_clones_see_one_value() {
        let a = Shared::new(Vec::<u32>::new());
        let b = a.clone();
        a.with(|v| v.push(7));
        assert_eq!(b.with(|v| v.clone()), vec![7]);
    }

    /// The regression the doorway exists for: before the `simkit::par`
    /// migration, a panicking lock holder poisoned the mutex and every
    /// later `lock().unwrap()` aborted the whole simulation. Recovery
    /// must hand back the inner value instead.
    #[test]
    fn poisoned_lock_recovers_instead_of_cascading() {
        let s = Shared::new(5u64);
        let s2 = s.clone();
        let t = std::thread::spawn(move || {
            s2.with(|v| {
                *v = 6;
                panic!("holder dies mid-update");
            })
        });
        assert!(t.join().is_err(), "the holder thread panicked");
        // Pre-fix equivalent: this would panic on PoisonError.
        assert_eq!(s.with(|v| *v), 6);
        s.with(|v| *v += 1);
        assert_eq!(s.with(|v| *v), 7);
    }

    #[test]
    fn run_indexed_sequential_matches_parallel() {
        let items: Vec<u64> = (0..37).collect();
        let (seq, s1) = run_indexed(1, items.clone(), |i, v| (i as u64) * 1000 + v * v);
        let (par, s4) = run_indexed(4, items, |i, v| (i as u64) * 1000 + v * v);
        assert_eq!(seq, par, "results are input-ordered, not worker-ordered");
        assert_eq!(s1.workers, 1);
        assert_eq!(s4.workers, 4);
        assert_eq!(s1.tasks, 37);
        assert_eq!(s4.tasks, 37);
    }

    #[test]
    fn run_indexed_moves_each_item_exactly_once() {
        // Non-Clone items prove each is consumed by one task only.
        struct Once(u64);
        let items: Vec<Once> = (0..8).map(Once).collect();
        let (out, _) = run_indexed(3, items, |_, Once(v)| v + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn run_indexed_handles_more_workers_than_items() {
        let (out, stats) = run_indexed(16, vec![5u64, 6], |_, v| v * 2);
        assert_eq!(out, vec![10, 12]);
        assert!(stats.workers <= 2, "workers capped at the task count");
    }

    #[test]
    fn run_indexed_propagates_task_panics() {
        let r = std::panic::catch_unwind(|| {
            run_indexed(2, vec![0u64, 1, 2, 3], |_, v| {
                assert!(v != 2, "task 2 fails");
                v
            })
        });
        assert!(r.is_err(), "worker panic re-raised on the caller");
    }

    #[test]
    fn configured_threads_prefers_explicit_request() {
        assert_eq!(configured_threads(3), 3);
        // requested == 0 falls back to env-or-1; without the variable
        // this is 1.
        if std::env::var(THREADS_ENV).is_err() {
            assert_eq!(configured_threads(0), 1);
        }
    }
}
