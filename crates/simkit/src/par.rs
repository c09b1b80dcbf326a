//! The sanctioned threading doorway (`THREAD-DET`) and the whole-run
//! fan-out built behind it.
//!
//! Live sim code must not name `std::thread`/`Mutex`/`Atomic*`/channel
//! primitives directly — scheduler-dependent event order breaks the
//! byte-determinism every differential suite relies on. This module is
//! the one place allowed to own such primitives (mirroring the
//! `simkit::timer` wall-clock doorway for `DET-NOW`).
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
//!   takes a closure), so every critical section is lexical.
//!
//! # Whole-run fan-out
//!
//! [`run_indexed`] runs a batch of independent whole simulations (one
//! report entry, one benchmark copy) on a small scoped pool and returns
//! the results **in input order**, regardless of which worker ran what:
//!
//! * each item is moved into exactly one task, so tasks share no
//!   simulated state;
//! * workers claim the next input from one shared queue, and results
//!   are placed by input index, so telemetry mounting never observes
//!   scheduler order.
//!
//! [`available_workers`] sizes the pool from the machine (CPU affinity
//! included, so `taskset -c 0` gives a one-worker run). The worker count
//! changes wall-clock only; it is reported in [`ParStats`] and never
//! written into a `telemetry/v1` snapshot.
#![deny(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex, PoisonError};

/// Shared, cloneable, poison-recovering access to one value — the
/// `Arc<Mutex<T>>` idiom behind the doorway. Every component of a
/// simulated stack can hold a clone (the fault injector does).
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

/// The worker count for whole-run fan-out: the parallelism the machine
/// makes available to this process, or 1 if it cannot be determined.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Scheduler-facing facts of one [`run_indexed`] call. They vary with
/// the worker count and must never be written into a deterministic
/// telemetry snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Workers that ran tasks (1 for the inline sequential path).
    pub workers: usize,
    /// Tasks executed.
    pub tasks: u64,
}

/// Runs `f(index, item)` for every item on up to `threads` scoped
/// workers and returns the results **in input order**.
///
/// With `threads <= 1` or fewer than two items the call is a plain
/// inline loop on the caller's thread; no threads are spawned. Otherwise
/// each worker repeatedly claims the next `(index, item)` from one
/// shared queue until it is empty. Each item is moved into exactly one
/// `f` invocation.
///
/// A panicking task is re-raised on the caller thread once the scope
/// joins, so a worker never dies silently.
pub fn run_indexed<T, R, F>(threads: usize, items: Vec<T>, f: F) -> (Vec<R>, ParStats)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let tasks = items.len();
    let workers = threads.clamp(1, tasks.max(1));
    let stats = ParStats {
        workers,
        tasks: tasks as u64,
    };
    if workers == 1 {
        let results = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
        return (results, stats);
    }

    let queue = Shared::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(tasks).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some((i, item)) = queue.with(Iterator::next) {
                        done.push((i, f(i, item)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(done) => {
                    for (i, r) in done {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let results = slots
        .into_iter()
        .map(|s| s.expect("every task index produced a result"))
        .collect();
    (results, stats)
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
    fn available_workers_is_at_least_one() {
        assert!(available_workers() >= 1);
    }
}
