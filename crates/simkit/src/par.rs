//! The sanctioned threading doorway (`THREAD-DET`), and the whole-run
//! fan-out and the lookahead helper built behind it.
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
//!
//! # Lookahead helper
//!
//! [`Lookahead`] runs a pure kernel `fn(&I) -> O` ahead of the one
//! thread that drives a simulation, on one helper thread:
//!
//! * the simulation [submits](Lookahead::submit_with) inputs it expects
//!   to need soon (copies, never simulator state) into a small bounded
//!   ring; the helper runs them oldest first, spinning briefly between
//!   jobs and parking when none arrives;
//! * when it needs a result, the simulation [takes](Lookahead::take) it
//!   by exact input equality, at most once per job. A finished job is
//!   handed over, a running one is waited for (briefly: past about one
//!   kernel's time it is given up), and a job still queued, given up,
//!   or whose kernel panicked runs inline on the caller. An input with
//!   no equal job gets `None`, and the caller computes it itself;
//! * so the output is `kernel(input)` whichever thread ran it, and
//!   nothing simulated depends on the helper's timing.
//!
//! Helpers draw on the same worker budget as [`run_indexed`]: a helper
//! starts only while the process holds fewer extra threads (fan-out
//! workers beyond the caller, live helpers) than [`available_workers`]
//! minus one. A simulation built inside a full fan-out, or on a
//! one-worker machine, gets no helper and runs every kernel inline.
//! [`with_helper_budget`] overrides the budget for one scope of one
//! thread. Helper outcome counts ([`LookaheadStats`]) vary with the
//! scheduler and are never written into a `telemetry/v1` snapshot.
#![deny(missing_docs)]

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

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

    let _claim = Claim::hold(workers - 1);
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

/// Extra threads the process holds beyond its first: fan-out workers
/// past each [`run_indexed`] caller, plus live lookahead helpers.
static HELD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's [`with_helper_budget`] override, if one is active.
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// A hold on `n` extra threads of the worker budget, released on drop.
#[derive(Debug)]
struct Claim(usize);

impl Claim {
    /// Holds `n` threads unconditionally (a fan-out runs regardless).
    fn hold(n: usize) -> Claim {
        HELD.fetch_add(n, Ordering::SeqCst);
        Claim(n)
    }

    /// Holds one thread for a helper, if the budget has one to spare.
    fn helper() -> Option<Claim> {
        match BUDGET.with(Cell::get) {
            Some(0) => None,
            Some(_) => Some(Claim::hold(1)),
            None => {
                let spare = available_workers().saturating_sub(1);
                HELD.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |held| {
                    (held < spare).then_some(held + 1)
                })
                .ok()
                .map(|_| Claim(1))
            }
        }
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        HELD.fetch_sub(self.0, Ordering::SeqCst);
    }
}

/// Runs `f` with this thread's helper budget overridden: with `0`, no
/// [`Lookahead`] first used inside `f` on this thread starts a helper;
/// with any other value one starts whatever the machine and the other
/// holds. The previous budget is restored when `f` returns or unwinds.
///
/// ```
/// use simkit::par::{with_helper_budget, Lookahead};
///
/// let square: Lookahead<u64, u64> = Lookahead::new(|x| x * x);
/// with_helper_budget(0, || {
///     assert!(!square.submit_with(|| 7), "no helper, so nothing queued");
///     assert!(!square.is_threaded());
/// });
/// ```
pub fn with_helper_budget<R>(budget: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BUDGET.with(|b| b.replace(Some(budget))));
    f()
}

/// Jobs one helper holds at once: queued, running or finished.
const RING: usize = 4;

/// Polls before an idle helper parks, or a waiting taker starts to
/// yield its time slice: a few microseconds at most. A caller that
/// submits a few jobs ahead (`CompCpyHost` keeps three pages in
/// flight) hides the helper's wake-up. Spinning up to a millisecond
/// gained at most a few percent with a free core, and when another
/// process held one of two cores it made a `deflate_numa`-shaped run
/// 0.66–0.90× as fast as inline, against 0.85–0.95× for short spins;
/// yielding between the spin and the park measured no different.
const SPINS: u32 = 1 << 4;

const IDLE_SPINS: u32 = 1 << 14;

/// Polls (spins, then yields) a taker spends on a running job before it
/// gives the job up and runs the kernel itself: tens of microseconds,
/// about one page kernel. A helper that lost its core to another
/// process can be off it for a whole time slice.
const WAIT_POLLS: u32 = 1 << 7;

/// Scheduler-facing outcome counts of one [`Lookahead`]. They vary with
/// the host's timing and must never be written into a deterministic
/// telemetry snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookaheadStats {
    /// Inputs queued on the helper.
    pub submitted: u64,
    /// Takes that found their job finished.
    pub ready: u64,
    /// Takes that waited for their job to finish.
    pub waited: u64,
    /// Takes that ran the kernel on the caller: the job was still
    /// queued, was given up while running, or its kernel panicked on
    /// the helper.
    pub inline: u64,
    /// Takes with no equal input queued (the caller computes it).
    pub missed: u64,
    /// Unclaimed jobs dropped to make room for a newer one.
    pub evicted: u64,
}

/// Where one job stands.
#[derive(Debug)]
enum JobState<O> {
    Queued,
    Running,
    Done(O),
    /// The kernel panicked on the helper.
    Failed,
}

#[derive(Debug)]
struct Job<I, O> {
    id: u64,
    input: Arc<I>,
    state: JobState<O>,
}

/// What a take found for its input.
enum Found<O> {
    Missing,
    Ready(O),
    Running,
    Inline,
}

/// The ring of jobs, oldest first.
#[derive(Debug)]
struct Jobs<I, O> {
    next_id: u64,
    slots: Vec<Job<I, O>>,
    stats: LookaheadStats,
}

impl<I: PartialEq, O> Jobs<I, O> {
    /// Queues `input`, first dropping the oldest job not running when
    /// the ring is full.
    fn push(&mut self, input: Arc<I>) {
        if self.slots.len() >= RING {
            let oldest = self
                .slots
                .iter()
                .position(|j| !matches!(j.state, JobState::Running));
            if let Some(at) = oldest {
                self.slots.remove(at);
                self.stats.evicted += 1;
            }
        }
        self.slots.push(Job {
            id: self.next_id,
            input,
            state: JobState::Queued,
        });
        self.next_id += 1;
        self.stats.submitted += 1;
    }

    /// Marks the oldest queued job running and hands it to the helper.
    fn start_next(&mut self) -> Option<(u64, Arc<I>)> {
        let job = (self.slots.iter_mut()).find(|j| matches!(j.state, JobState::Queued))?;
        job.state = JobState::Running;
        Some((job.id, Arc::clone(&job.input)))
    }

    /// Stores the helper's outcome for job `id` (`None`: it panicked).
    fn finish(&mut self, id: u64, out: Option<O>) {
        if let Some(job) = self.slots.iter_mut().find(|j| j.id == id) {
            job.state = out.map_or(JobState::Failed, JobState::Done);
        }
    }

    /// Claims the oldest job equal to `input`, unless it is running.
    /// With `give_up`, a running job is dropped (the helper's output
    /// for it is discarded when it finishes) and runs inline instead.
    fn claim(&mut self, input: &I, waited: bool, give_up: bool) -> Found<O> {
        let Some(at) = self.slots.iter().position(|j| *j.input == *input) else {
            self.stats.missed += 1;
            return Found::Missing;
        };
        if !give_up
            && matches!(
                self.slots.get(at).map(|j| &j.state),
                Some(JobState::Running)
            )
        {
            return Found::Running;
        }
        match self.slots.remove(at).state {
            JobState::Done(out) => {
                if waited {
                    self.stats.waited += 1;
                } else {
                    self.stats.ready += 1;
                }
                Found::Ready(out)
            }
            _ => {
                self.stats.inline += 1;
                Found::Inline
            }
        }
    }
}

/// State shared by the simulation thread and its helper. The jobs live
/// behind the mutex; the counters only tell a spinning side to look
/// again (each bump is a `Release` after the mutex update it follows,
/// each poll an `Acquire`).
#[derive(Debug)]
struct Ring<I, O> {
    jobs: Shared<Jobs<I, O>>,
    /// Bumped after every submission; an idle helper watches it.
    submitted: AtomicU64,
    /// Bumped after every job the helper finishes; a taker waits on it.
    finished: AtomicU64,
    stop: AtomicBool,
}

/// The helper loop: run the oldest queued job, else spin, then park,
/// until a submission or the stop flag arrives.
fn serve<I: PartialEq, O>(ring: &Ring<I, O>, kernel: fn(&I) -> O) {
    loop {
        let seen = ring.submitted.load(Ordering::Acquire);
        if ring.stop.load(Ordering::Acquire) {
            return;
        }
        if let Some((id, input)) = ring.jobs.with(Jobs::start_next) {
            let out = std::panic::catch_unwind(AssertUnwindSafe(|| kernel(&input)));
            ring.jobs.with(|j| j.finish(id, out.ok()));
            ring.finished.fetch_add(1, Ordering::Release);
            continue;
        }
        let mut spins = 0;
        while ring.submitted.load(Ordering::Acquire) == seen && !ring.stop.load(Ordering::Acquire) {
            if spins < IDLE_SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
    }
}

/// A running helper thread and its hold on the budget.
#[derive(Debug)]
struct Helper {
    thread: JoinHandle<()>,
    _claim: Claim,
}

#[derive(Debug)]
struct LookaheadInner<I, O> {
    kernel: fn(&I) -> O,
    ring: Arc<Ring<I, O>>,
    /// Decided on the first submission: a running helper, or `None`
    /// when the budget had no thread to spare.
    helper: OnceLock<Option<Helper>>,
}

impl<I, O> Drop for LookaheadInner<I, O> {
    fn drop(&mut self) {
        if let Some(Some(helper)) = self.helper.take() {
            self.ring.stop.store(true, Ordering::Release);
            helper.thread.thread().unpark();
            // The helper catches kernel panics, so join has nothing to
            // re-raise.
            let _ = helper.thread.join();
        }
    }
}

/// A pure kernel run ahead of the simulation on one helper thread (see
/// the module docs). Clones share one ring and one helper, which the
/// last clone's drop stops and joins.
///
/// ```
/// use simkit::par::{with_helper_budget, Lookahead};
///
/// let square: Lookahead<u64, u64> = Lookahead::new(|x| x * x);
/// with_helper_budget(1, || square.submit_with(|| 12));
/// assert_eq!(square.take(&11), None, "never submitted");
/// assert_eq!(square.take(&12), Some(144));
/// assert_eq!(square.take(&12), None, "taken at most once");
/// ```
#[derive(Debug)]
pub struct Lookahead<I, O> {
    inner: Arc<LookaheadInner<I, O>>,
}

impl<I, O> Clone for Lookahead<I, O> {
    fn clone(&self) -> Lookahead<I, O> {
        Lookahead {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<I, O> Lookahead<I, O>
where
    I: PartialEq + Send + Sync + 'static,
    O: Send + 'static,
{
    /// A lookahead for `kernel`. No thread starts until the first
    /// submission asks for one.
    pub fn new(kernel: fn(&I) -> O) -> Lookahead<I, O> {
        Lookahead {
            inner: Arc::new(LookaheadInner {
                kernel,
                ring: Arc::new(Ring {
                    jobs: Shared::new(Jobs {
                        next_id: 0,
                        slots: Vec::with_capacity(RING),
                        stats: LookaheadStats::default(),
                    }),
                    submitted: AtomicU64::new(0),
                    finished: AtomicU64::new(0),
                    stop: AtomicBool::new(false),
                }),
                helper: OnceLock::new(),
            }),
        }
    }

    /// The helper, started on first use if the budget allows.
    fn helper(&self) -> Option<&Helper> {
        let inner = &self.inner;
        let start = || {
            let claim = Claim::helper()?;
            let ring = Arc::clone(&inner.ring);
            let kernel = inner.kernel;
            let thread = std::thread::Builder::new()
                .name("simkit-lookahead".into())
                .spawn(move || serve(&ring, kernel))
                .ok()?;
            Some(Helper {
                thread,
                _claim: claim,
            })
        };
        inner.helper.get_or_init(start).as_ref()
    }

    /// Queues `input()` on the helper, starting it on first use. Returns
    /// `false`, without calling `input`, when there is no helper: the
    /// budget had no thread to spare when the first submission came.
    /// A full ring first drops its oldest job that is not running.
    pub fn submit_with(&self, input: impl FnOnce() -> I) -> bool {
        let Some(helper) = self.helper() else {
            return false;
        };
        let input = Arc::new(input());
        let ring = &self.inner.ring;
        ring.jobs.with(|j| j.push(input));
        ring.submitted.fetch_add(1, Ordering::Release);
        helper.thread.thread().unpark();
        true
    }

    /// `kernel(input)` if a job equal to `input` was submitted and not
    /// yet taken, else `None`. A running job is waited for, briefly: if
    /// it has not finished after about one kernel's time, it is given up
    /// and the kernel runs here. A job still queued, or one whose kernel
    /// panicked on the helper, also runs here (so a panicking kernel
    /// panics on the caller, as it would inline).
    pub fn take(&self, input: &I) -> Option<O> {
        if !self.is_threaded() {
            return None;
        }
        let ring = &self.inner.ring;
        let mut polls = 0;
        loop {
            let seen = ring.finished.load(Ordering::Acquire);
            match ring
                .jobs
                .with(|j| j.claim(input, polls > 0, polls >= WAIT_POLLS))
            {
                Found::Missing => return None,
                Found::Ready(out) => return Some(out),
                Found::Inline => return Some((self.inner.kernel)(input)),
                Found::Running => {
                    while ring.finished.load(Ordering::Acquire) == seen && polls < WAIT_POLLS {
                        polls += 1;
                        if polls < SPINS {
                            std::hint::spin_loop();
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    polls = polls.max(1);
                }
            }
        }
    }

    /// Whether a helper thread is running for this lookahead.
    pub fn is_threaded(&self) -> bool {
        matches!(self.inner.helper.get(), Some(Some(_)))
    }

    /// The outcome counts so far.
    pub fn stats(&self) -> LookaheadStats {
        self.inner.ring.jobs.with(|j| j.stats)
    }
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

    fn square(x: &u64) -> u64 {
        x * x
    }

    /// A job that records when it starts and ends, and in between
    /// holds the helper until its gate opens.
    #[derive(Debug)]
    struct Gated {
        key: u64,
        gate: Shared<bool>,
        log: Shared<Vec<&'static str>>,
    }

    impl PartialEq for Gated {
        fn eq(&self, other: &Gated) -> bool {
            self.key == other.key
        }
    }

    fn gated(job: &Gated) -> u64 {
        job.log.with(|l| l.push("start"));
        for _ in 0..10_000 {
            if job.gate.with(|g| *g) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        job.log.with(|l| l.push("end"));
        job.key + 1
    }

    fn gated_job(key: u64, open: bool) -> Gated {
        Gated {
            key,
            gate: Shared::new(open),
            log: Shared::new(Vec::new()),
        }
    }

    /// Submits a job whose gate is closed and waits until the helper is
    /// inside it; returns the gate.
    fn occupy(ahead: &Lookahead<Gated, u64>) -> Shared<bool> {
        let busy = gated_job(1000, false);
        let (gate, log) = (busy.gate.clone(), busy.log.clone());
        assert!(ahead.submit_with(|| busy));
        for _ in 0..10_000 {
            if log.with(|l| !l.is_empty()) {
                return gate;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("the helper never started the job");
    }

    #[test]
    fn lookahead_answers_only_an_equal_input_and_only_once() {
        with_helper_budget(1, || {
            let ahead = Lookahead::new(square);
            assert!(ahead.submit_with(|| 9));
            assert!(ahead.is_threaded());
            assert_eq!(ahead.take(&8), None, "no job equals 8");
            assert_eq!(ahead.take(&9), Some(81));
            assert_eq!(ahead.take(&9), None, "each job is taken once");
            let s = ahead.stats();
            assert_eq!(s.submitted, 1);
            assert_eq!(s.ready + s.waited + s.inline, 1);
            assert_eq!(s.missed, 2);
        });
    }

    #[test]
    fn lookahead_runs_a_still_queued_job_inline() {
        with_helper_budget(1, || {
            let ahead = Lookahead::new(gated);
            let gate = occupy(&ahead);
            let queued = gated_job(2, true);
            let queued_log = queued.log.clone();
            assert!(ahead.submit_with(|| queued));
            // The helper is held inside the first job, so job 2 is queued.
            let probe = gated_job(2, true);
            assert_eq!(ahead.take(&probe), Some(3));
            assert_eq!(ahead.stats().inline, 1);
            assert_eq!(probe.log.with(|l| l.len()), 2, "ran on the caller");
            gate.with(|g| *g = true);
            drop(ahead);
            assert!(queued_log.with(|l| l.is_empty()), "never ran on the helper");
        });
    }

    fn fragile(x: &u64) -> u64 {
        assert!(*x != 13, "kernel rejects 13");
        x + 100
    }

    #[test]
    fn lookahead_kernel_panic_reraises_on_the_caller_and_never_hangs() {
        with_helper_budget(1, || {
            let ahead = Lookahead::new(fragile);
            assert!(ahead.submit_with(|| 13));
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| ahead.take(&13)));
            assert!(r.is_err(), "the panic re-raised on the caller");
            // The helper survived its kernel's panic.
            assert!(ahead.submit_with(|| 5));
            assert_eq!(ahead.take(&5), Some(105));
        });
    }

    #[test]
    fn lookahead_drop_joins_the_helper() {
        with_helper_budget(1, || {
            let ahead = Lookahead::new(gated);
            let job = gated_job(7, false);
            let (gate, log) = (job.gate.clone(), job.log.clone());
            assert!(ahead.submit_with(|| job));
            for _ in 0..10_000 {
                if log.with(|l| !l.is_empty()) {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            // The job runs 20 ms past its gate; drop must wait for it.
            gate.with(|g| *g = true);
            drop(ahead);
            assert_eq!(log.with(|l| l.clone()), vec!["start", "end"]);
        });
    }

    #[test]
    fn lookahead_gives_up_a_stalled_running_job() {
        with_helper_budget(1, || {
            let ahead = Lookahead::new(gated);
            let gate = occupy(&ahead);
            // The running job waits on its gate, so the take gives it up
            // and runs an equal job (with an open gate) itself.
            assert_eq!(ahead.take(&gated_job(1000, true)), Some(1001));
            assert_eq!(ahead.stats().inline, 1);
            gate.with(|g| *g = true);
            assert_eq!(ahead.take(&gated_job(1000, true)), None, "taken once");
        });
    }

    #[test]
    fn lookahead_with_budget_zero_starts_no_thread() {
        let ahead = Lookahead::new(square);
        with_helper_budget(0, || {
            let mut called = false;
            assert!(!ahead.submit_with(|| {
                called = true;
                3
            }));
            assert!(!called, "no input is built without a helper");
        });
        assert!(!ahead.is_threaded());
        // Decided once: a later submission outside the scope stays inline.
        assert!(!ahead.submit_with(|| 3));
        assert_eq!(ahead.take(&3), None);
        assert_eq!(ahead.stats(), LookaheadStats::default());
    }

    #[test]
    fn lookahead_inside_a_full_fan_out_stays_inline() {
        let workers = available_workers().max(2);
        let (threaded, _) = run_indexed(workers, (0..workers as u64).collect(), |_, x| {
            let ahead = Lookahead::new(square);
            ahead.submit_with(|| x);
            ahead.is_threaded()
        });
        assert!(threaded.iter().all(|&t| !t), "{threaded:?}");
    }

    #[test]
    fn lookahead_full_ring_drops_its_oldest_idle_job() {
        with_helper_budget(1, || {
            let ahead = Lookahead::new(gated);
            let gate = occupy(&ahead);
            // The running job keeps its slot; the queued ones cycle.
            let n = RING as u64 + 1;
            for key in 0..n {
                assert!(ahead.submit_with(|| gated_job(key, true)));
            }
            let s = ahead.stats();
            assert_eq!((s.submitted, s.evicted), (n + 1, 2));
            assert_eq!(ahead.take(&gated_job(1, true)), None, "evicted");
            assert_eq!(ahead.take(&gated_job(n - 1, true)), Some(n));
            gate.with(|g| *g = true);
        });
    }
}
