//! A persistent work-stealing thread pool — the workspace's offline
//! stand-in for `rayon`.
//!
//! The build environment has no registry access, so instead of pulling in
//! rayon the detection engine vendors the few hundred lines it actually
//! needs: an ordered [`ThreadPool::map`] over a slice of work items plus
//! scoped borrowing tasks ([`ThreadPool::scope`] / [`Scope::spawn`]).
//!
//! The pool is **persistent**: workers are spawned once at construction
//! and parked on a condvar while the shared queue is empty, so submitting
//! work costs a queue push and a wake-up instead of an OS thread spawn.
//! This matters for the engine's longitudinal runs, which dispatch work
//! every month of a window — with per-call thread spawning the dispatch
//! overhead would recur every month; with the persistent pool it is paid
//! once per engine. Dropping the pool drains the queue and joins every
//! worker.
//!
//! `map` keeps the classic chunked work-stealing layout:
//!
//! * the item range is split into one contiguous chunk per participant;
//! * every chunk has a shared atomic cursor; a participant drains its own
//!   chunk front-to-back with `fetch_add`;
//! * a participant whose chunk is exhausted scans the other chunks and
//!   steals remaining indexes through the same cursor, so a shard that
//!   finishes early helps with stragglers instead of idling.
//!
//! The calling thread always participates as slot 0, so a pool of `n`
//! logical threads spawns `n - 1` workers and `map` makes progress even
//! when every worker is busy with other submissions.
//!
//! # Scoped tasks and lifetime erasure
//!
//! Queued jobs are stored as `'static` boxed closures, but
//! [`ThreadPool::scope`] lets callers spawn closures borrowing caller
//! state ([`Scope::spawn`]). The lifetime is erased at the submission
//! boundary (`erase_job_lifetime`, the crate's only `unsafe`) and
//! re-imposed structurally, following `std::thread::scope`: the scope
//! itself counts outstanding jobs and `scope()` does not return (or
//! unwind) until every spawned job has finished. Soundness therefore
//! does not depend on any handle's destructor running — leaking a
//! [`ScopedTask`] with `mem::forget` cannot dangle a borrow, which is
//! exactly the leakpocalypse hole that sank pre-1.0 `JoinGuard` designs.
//! `join` additionally blocks for (and returns) a single task's result.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod sync;

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued unit of work. The `'static` is imposed by
/// [`erase_job_lifetime`]; submitters guarantee the job completes before
/// any borrow inside it expires.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Erases the borrow lifetime of a job so it can sit in the pool's
/// queue.
///
/// Soundness is the submitter's obligation: every path that enqueues an
/// erased job must block until the job has run before the borrows inside
/// it can expire, **without relying on any leakable destructor**. The
/// two submitters uphold this differently: [`Scope::spawn`] increments
/// the scope's pending counter, which [`ThreadPool::scope`] waits on
/// before returning or unwinding; [`ThreadPool::map`] joins (or
/// drop-waits, during unwind) every internal task before its stack frame
/// dies, and never hands the handles out.
#[allow(unsafe_code)]
fn erase_job_lifetime<'env>(job: Box<dyn FnOnce() + Send + 'env>) -> Job {
    // SAFETY: only the borrow lifetime parameter of the trait object
    // changes; vtable and layout are identical. The callers above
    // guarantee the closure finishes executing (and is dropped) while
    // 'env is still live.
    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) }
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    /// Pending jobs, FIFO.
    queue: Mutex<VecDeque<Job>>,
    /// Signals parked workers that the queue changed or shutdown began.
    available: Condvar,
    /// Set (once) by the pool's `Drop`; workers drain the queue first.
    shutdown: AtomicBool,
}

impl PoolShared {
    fn push(&self, job: Job) {
        self.queue.lock().unwrap().push_back(job);
        self.available.notify_one();
    }

    /// Queue-jumps a job ahead of everything already pending. Used for
    /// latency-critical tasks whose captured state blocks a producer
    /// (the engine's shard scores pin copy-on-write views the next
    /// month's patch would otherwise have to clone).
    fn push_front(&self, job: Job) {
        self.queue.lock().unwrap().push_front(job);
        self.available.notify_one();
    }

    /// The worker main loop: pop jobs until the queue is empty *and*
    /// shutdown has been requested. Jobs never unwind (submission paths
    /// wrap them in `catch_unwind`), so a worker lives as long as the
    /// pool.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().unwrap();
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    queue = self.available.wait(queue).unwrap();
                }
            };
            job();
        }
    }
}

/// Completion slot of one scoped task.
struct TaskState<T> {
    /// `Some` once the job has run (`Err` if it panicked).
    result: Mutex<Option<std::thread::Result<T>>>,
    /// Signalled when `result` is filled.
    done: Condvar,
}

/// Book-keeping of one [`ThreadPool::scope`] invocation.
struct ScopeState {
    /// Spawned jobs not yet finished.
    pending: Mutex<usize>,
    /// Signalled when `pending` reaches zero.
    all_done: Condvar,
}

/// A spawning handle tied to one [`ThreadPool::scope`] call. Jobs
/// spawned through it may borrow anything that outlives `'env`; the
/// scope guarantees they finish before `scope()` returns.
pub struct Scope<'env> {
    pool: &'env ThreadPool,
    state: Arc<ScopeState>,
    /// Makes `'env` invariant, pinning the borrows spawned jobs may hold.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Submits a closure that may borrow caller state, returning a
    /// handle that yields its result. The job runs on a parked worker
    /// (or inline immediately if the pool has none) and is guaranteed to
    /// have completed by the time the enclosing [`ThreadPool::scope`]
    /// returns — the handle is for retrieving the result, not for
    /// soundness, so leaking it is safe.
    ///
    /// This is the engine's month-pipelining hook: derive the next
    /// snapshot's delta on a worker while the calling thread scores the
    /// current month.
    pub fn spawn<T, F>(&self, f: F) -> ScopedTask<'env, T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let task = Arc::new(TaskState {
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        let in_task = Arc::clone(&task);
        let scope_state = Arc::clone(&self.state);
        *self.state.pending.lock().unwrap() += 1;
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            *in_task.result.lock().unwrap() = Some(result);
            in_task.done.notify_all();
            // Last: release the scope. Nothing below touches borrowed
            // data, so the scope may return the instant this hits zero.
            let mut pending = scope_state.pending.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                scope_state.all_done.notify_all();
            }
        });
        if self.pool.workers.is_empty() {
            job();
        } else {
            self.pool.shared.push(erase_job_lifetime(job));
        }
        ScopedTask {
            state: Some(task),
            _env: PhantomData,
        }
    }

    /// Submits a fire-and-forget closure: no handle, no result channel.
    /// The scope still guarantees the job has finished before
    /// [`ThreadPool::scope`] returns, so borrows inside it stay sound —
    /// this is the cheap dispatch for tasks that report through their own
    /// channel (e.g. a [`sync::Slot`]) instead of a join.
    ///
    /// The job runs under `catch_unwind`; a panic is swallowed (the
    /// worker and the scope survive), so closures that can fail should
    /// route the failure through their result channel — the engine's
    /// dispatch wrapper poisons its slot, which re-raises the panic at
    /// the consumer.
    pub fn spawn_detached<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.spawn_detached_inner(f, false);
    }

    /// [`Scope::spawn_detached`], but the job **jumps the queue**: it is
    /// dequeued before every job already pending. Use for tasks whose
    /// captured state blocks a producer — beware that a queue-jumping
    /// job must never wait on a job enqueued before it (it may now run
    /// first), or the pool can deadlock.
    pub fn spawn_detached_urgent<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.spawn_detached_inner(f, true);
    }

    fn spawn_detached_inner<F>(&self, f: F, urgent: bool)
    where
        F: FnOnce() + Send + 'env,
    {
        let scope_state = Arc::clone(&self.state);
        *self.state.pending.lock().unwrap() += 1;
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let _ = catch_unwind(AssertUnwindSafe(f));
            let mut pending = scope_state.pending.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                scope_state.all_done.notify_all();
            }
        });
        if self.pool.workers.is_empty() {
            job();
        } else if urgent {
            self.pool.shared.push_front(erase_job_lifetime(job));
        } else {
            self.pool.shared.push(erase_job_lifetime(job));
        }
    }
}

/// A handle to a task spawned inside a [`ThreadPool::scope`].
///
/// [`ScopedTask::join`] blocks until the job has run and returns its
/// value (resuming the job's panic if it unwound); dropping an unjoined
/// handle also blocks, so a task's side effects are always observable
/// once the handle is gone. Neither is load-bearing for memory safety —
/// the enclosing scope waits for every spawned job regardless, so even a
/// `mem::forget` of the handle cannot outlive a borrow.
#[must_use = "join the task to get its result"]
pub struct ScopedTask<'env, T> {
    state: Option<Arc<TaskState<T>>>,
    /// Makes `'env` invariant, pinning the borrows the job may hold.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<T> ScopedTask<'_, T> {
    /// Blocks until the task has completed, returning its result. If the
    /// task panicked, the panic is resumed on the calling thread.
    pub fn join(mut self) -> T {
        let state = self.state.take().expect("join consumes the task");
        match Self::wait(&state) {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        }
    }

    fn wait(state: &TaskState<T>) -> std::thread::Result<T> {
        let mut slot = state.result.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = state.done.wait(slot).unwrap();
        }
    }
}

impl<T> Drop for ScopedTask<'_, T> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            // An unjoined task must still complete before its borrows can
            // expire. The result (and any panic payload) is discarded;
            // `join` is the reporting path.
            let _ = Self::wait(&state);
        }
    }
}

/// The persistent pool (see module docs).
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    /// Long-lived threads spawned via [`ThreadPool::spawn_resident`].
    /// They live outside the job queue but share the pool's lifetime:
    /// `Drop` joins them after the queue workers.
    residents: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .field("workers", &self.workers.len())
            .field("residents", &self.residents.lock().unwrap().len())
            .finish()
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadPool {
    /// A pool sized to the machine (`available_parallelism`, min 1).
    pub fn new() -> Self {
        Self::with_threads(0)
    }

    /// A pool with an explicit logical thread count; `0` means
    /// auto-size. The calling thread participates in every `map`, so
    /// `threads - 1` workers are spawned (a 1-thread pool spawns none
    /// and runs everything inline).
    pub fn with_threads(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.worker_loop())
            })
            .collect();
        Self {
            shared,
            workers,
            residents: Mutex::new(Vec::new()),
            threads,
        }
    }

    /// Number of logical threads `map` will use (caller included).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Spawns a **resident task**: a dedicated thread that lives for the
    /// rest of the pool's lifetime, outside the job queue.
    ///
    /// Queue jobs ([`ThreadPool::map`], [`Scope::spawn`]) are
    /// short-lived by contract — a job that blocks indefinitely starves
    /// every other submission on that worker. Long-lived loops (the
    /// query daemon's connection readers) instead get their own thread
    /// here, so the work-stealing workers stay available for compute.
    ///
    /// The closure receives a [`ResidentCtx`] whose
    /// [`stopping`](ResidentCtx::stopping) flips once the pool begins
    /// shutting down; a well-behaved resident polls it between blocking
    /// steps and returns promptly. Dropping the pool joins residents
    /// *after* the queue workers, so a resident may keep submitting
    /// compute until it observes the stop signal — but a resident parked
    /// in a syscall (e.g. `accept`) must be poked awake by its owner
    /// before the pool is dropped, or the drop blocks. Panics are
    /// contained: a panicking resident ends quietly without poisoning
    /// the pool.
    pub fn spawn_resident<F>(&self, f: F)
    where
        F: FnOnce(ResidentCtx) + Send + 'static,
    {
        let ctx = ResidentCtx {
            shared: Arc::clone(&self.shared),
        };
        let handle = std::thread::spawn(move || {
            let _ = catch_unwind(AssertUnwindSafe(move || f(ctx)));
        });
        self.residents.lock().unwrap().push(handle);
    }

    /// Opens a spawning scope, following `std::thread::scope`: the
    /// closure may spawn borrowing jobs through the [`Scope`], and
    /// `scope` does not return — normally or by unwind — until every
    /// spawned job has finished. That structural wait (tracked by a
    /// counter the scope owns, not by task-handle destructors) is what
    /// makes lifetime-erased queued jobs sound even if a handle is
    /// leaked with `mem::forget`.
    pub fn scope<'env, F, R>(&'env self, f: F) -> R
    where
        F: FnOnce(&Scope<'env>) -> R,
    {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: Mutex::new(0),
                all_done: Condvar::new(),
            }),
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Wait out every spawned job before returning or unwinding: the
        // jobs may borrow state the caller frees right after us.
        let mut pending = scope.state.pending.lock().unwrap();
        while *pending > 0 {
            pending = scope.state.all_done.wait(pending).unwrap();
        }
        drop(pending);
        match result {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Internal borrowing spawn used by `map`. Sound only because `map`
    /// never lets the handles escape its frame: every task is joined (or
    /// drop-waited during unwind) before `map` returns, so the erased
    /// borrows outlive the jobs without scope accounting.
    fn spawn_internal<'env, T, F>(&self, f: F) -> ScopedTask<'env, T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let state = Arc::new(TaskState {
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        let in_task = Arc::clone(&state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            *in_task.result.lock().unwrap() = Some(result);
            in_task.done.notify_all();
        });
        if self.workers.is_empty() {
            // No workers to hand the job to: complete it inline so the
            // handle's contract (completed once observable) still holds.
            job();
        } else {
            self.shared.push(erase_job_lifetime(job));
        }
        ScopedTask {
            state: Some(state),
            _env: PhantomData,
        }
    }

    /// Applies `f` to every item, returning outputs in item order.
    ///
    /// `f` receives `(index, &item)`. Output order is deterministic and
    /// independent of scheduling; only wall-clock varies between runs.
    /// The calling thread works too (slot 0 of the stealing layout), so
    /// every item completes even while workers service other
    /// submissions. Must not be called from inside a pool job of the
    /// same pool (the job's worker would wait on tasks only it could
    /// run).
    pub fn map<I, O, F>(&self, items: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 || self.workers.is_empty() {
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }

        // One contiguous chunk per participant, each with a shared cursor.
        let layout = StealLayout::new(workers, items.len());
        let layout_ref = &layout;
        let f = &f;

        let tasks: Vec<ScopedTask<'_, Vec<(usize, O)>>> = (1..workers)
            .map(|me| self.spawn_internal(move || layout_ref.run_slot(me, items, f)))
            .collect();
        let mut tagged = layout.run_slot(0, items, f);
        for task in tasks {
            tagged.extend(task.join());
        }
        tagged.sort_by_key(|(i, _)| *i);
        tagged.into_iter().map(|(_, o)| o).collect()
    }
}

/// Stop-signal handle passed to [`ThreadPool::spawn_resident`] tasks.
///
/// Holds a reference to the pool's shared state, so it stays valid even
/// while the pool is mid-drop; the resident's contract is to return soon
/// after [`stopping`](ResidentCtx::stopping) turns true.
pub struct ResidentCtx {
    shared: Arc<PoolShared>,
}

impl ResidentCtx {
    /// True once the owning pool has begun shutting down. Residents
    /// poll this between blocking steps and exit their loop when set.
    pub fn stopping(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }
}

/// The chunked work-stealing layout of [`ThreadPool::map`]: one
/// contiguous chunk per participant, each with a shared atomic cursor.
struct StealLayout {
    workers: usize,
    /// Per-participant `(start, end)` item ranges.
    bounds: Vec<(usize, usize)>,
    /// Per-chunk next-item cursors.
    cursors: Vec<AtomicUsize>,
}

impl StealLayout {
    fn new(workers: usize, items: usize) -> Self {
        let chunk = items.div_ceil(workers);
        let bounds: Vec<(usize, usize)> = (0..workers)
            .map(|w| (w * chunk, ((w + 1) * chunk).min(items)))
            .collect();
        let cursors = bounds.iter().map(|(lo, _)| AtomicUsize::new(*lo)).collect();
        Self {
            workers,
            bounds,
            cursors,
        }
    }

    /// One participant's pass: drain the own chunk front-to-back, then
    /// steal remaining indexes from the other chunks.
    fn run_slot<I, O, F>(&self, me: usize, items: &[I], f: &F) -> Vec<(usize, O)>
    where
        F: Fn(usize, &I) -> O,
    {
        let mut local: Vec<(usize, O)> = Vec::new();
        for victim in (me..me + self.workers).map(|v| v % self.workers) {
            let end = self.bounds[victim].1;
            loop {
                let idx = self.cursors[victim].fetch_add(1, Ordering::Relaxed);
                if idx >= end {
                    break;
                }
                local.push((idx, f(idx, &items[idx])));
            }
        }
        local
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // The store must synchronise with the workers' empty-check →
        // park window through the queue mutex: a worker that just found
        // the queue empty and read `shutdown == false` still holds the
        // lock until `Condvar::wait` parks it, so storing under the same
        // lock guarantees the notify below cannot be lost between the
        // check and the park.
        {
            let _queue = self.shared.queue.lock().unwrap();
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Residents go last: the shutdown store above is their stop
        // signal, and they may need a final iteration to observe it.
        let residents = std::mem::take(&mut *self.residents.lock().unwrap());
        for handle in residents {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let pool = ThreadPool::with_threads(7);
        let out = pool.map(&items, |i, x| {
            assert_eq!(i as u64, *x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = ThreadPool::new();
        let empty: Vec<u32> = Vec::new();
        assert!(pool.map(&empty, |_, x| *x).is_empty());
        assert_eq!(pool.map(&[41u32], |_, x| x + 1), vec![42]);
    }

    #[test]
    fn auto_sizing_and_explicit_threads() {
        assert!(ThreadPool::new().threads() >= 1);
        assert!(ThreadPool::with_threads(0).threads() >= 1);
        assert_eq!(ThreadPool::with_threads(3).threads(), 3);
    }

    #[test]
    fn uneven_work_is_stolen() {
        // Front-loaded costs: without stealing the first participant
        // would own nearly all the work; the result must still be
        // correct.
        let items: Vec<u64> = (0..64).collect();
        let pool = ThreadPool::with_threads(4);
        let out = pool.map(&items, |_, x| {
            if *x < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            *x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn more_workers_than_items() {
        let pool = ThreadPool::with_threads(16);
        let out = pool.map(&[1u32, 2, 3], |_, x| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }

    #[test]
    fn pool_is_reusable_across_many_maps() {
        // The persistent-pool contract: many dispatches on one set of
        // workers, results always ordered.
        let pool = ThreadPool::with_threads(4);
        for round in 0u64..50 {
            let items: Vec<u64> = (0..97).collect();
            let out = pool.map(&items, |_, x| x + round);
            assert_eq!(out, items.iter().map(|x| x + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scope_spawn_returns_value_and_sees_borrows() {
        let pool = ThreadPool::with_threads(3);
        let data = vec![1u64, 2, 3, 4];
        let data_ref = &data;
        let sum = pool.scope(|scope| {
            let task = scope.spawn(move || data_ref.iter().sum::<u64>());
            task.join()
        });
        assert_eq!(sum, 10);
    }

    #[test]
    fn scope_spawn_overlaps_with_map() {
        // The engine's pipelining shape: a scoped task runs while the
        // submitting thread drives a map on the same pool.
        let pool = ThreadPool::with_threads(3);
        pool.scope(|scope| {
            let side = scope.spawn(|| (0u64..1000).sum::<u64>());
            let items: Vec<u64> = (0..64).collect();
            let out = pool.map(&items, |_, x| x * 3);
            assert_eq!(out[63], 189);
            assert_eq!(side.join(), 499_500);
        });
    }

    #[test]
    fn scope_spawn_runs_inline_without_workers() {
        let pool = ThreadPool::with_threads(1);
        let value = pool.scope(|scope| scope.spawn(|| 7u32).join());
        assert_eq!(value, 7);
    }

    #[test]
    fn dropping_an_unjoined_task_completes_it() {
        let pool = ThreadPool::with_threads(2);
        let flag = AtomicBool::new(false);
        pool.scope(|scope| {
            let _task = scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                flag.store(true, Ordering::SeqCst);
            });
            // Dropped unjoined inside the scope: must block until the
            // job ran.
        });
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn scope_exit_waits_even_for_leaked_handles() {
        // The soundness property: mem::forget on the handle must not
        // let the scope return while the job still runs against
        // borrowed state.
        let pool = ThreadPool::with_threads(2);
        let flag = AtomicBool::new(false);
        let flag_ref = &flag;
        pool.scope(|scope| {
            let task = scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                flag_ref.store(true, Ordering::SeqCst);
            });
            std::mem::forget(task);
        });
        assert!(flag.load(Ordering::SeqCst), "scope waited out the leak");
    }

    #[test]
    fn spawn_detached_runs_and_is_waited_out() {
        // Fire-and-forget tasks fill their own channels; the scope still
        // guarantees completion, and a panicking task neither kills the
        // worker nor wedges the scope.
        let pool = ThreadPool::with_threads(3);
        let slot = Arc::new(crate::sync::Slot::new());
        pool.scope(|scope| {
            let in_slot = Arc::clone(&slot);
            scope.spawn_detached(move || in_slot.set(11u32));
            scope.spawn_detached(|| panic!("detached boom"));
        });
        assert_eq!(slot.wait(), 11);
        assert_eq!(pool.map(&[1u32], |_, x| x + 1), vec![2]);

        // Inline execution without workers.
        let pool = ThreadPool::with_threads(1);
        let slot = Arc::new(crate::sync::Slot::new());
        pool.scope(|scope| {
            let in_slot = Arc::clone(&slot);
            scope.spawn_detached(move || in_slot.set(5u32));
            assert!(slot.is_done(), "no workers: ran inline at spawn");
        });
        assert_eq!(slot.take(), 5);
    }

    #[test]
    fn join_propagates_task_panics() {
        let pool = ThreadPool::with_threads(2);
        let err = pool.scope(|scope| {
            let task = scope.spawn(|| -> u32 { panic!("scoped task boom") });
            std::panic::catch_unwind(AssertUnwindSafe(|| task.join())).unwrap_err()
        });
        assert_eq!(*err.downcast_ref::<&str>().unwrap(), "scoped task boom");
        // The worker survived the panic and keeps serving jobs.
        assert_eq!(pool.map(&[1u32, 2], |_, x| x + 1), vec![2, 3]);
    }

    #[test]
    fn scope_propagates_closure_panics_after_draining() {
        let pool = ThreadPool::with_threads(2);
        let ran = AtomicBool::new(false);
        let ran_ref = &ran;
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                let task = scope.spawn(|| {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    ran_ref.store(true, Ordering::SeqCst);
                });
                std::mem::forget(task);
                panic!("scope body boom");
            })
        }))
        .unwrap_err();
        assert_eq!(*err.downcast_ref::<&str>().unwrap(), "scope body boom");
        assert!(ran.load(Ordering::SeqCst), "jobs drained before unwind");
    }

    #[test]
    fn map_propagates_panics_from_items() {
        let pool = ThreadPool::with_threads(3);
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, |_, x| {
                if *x == 17 {
                    panic!("item 17");
                }
                *x
            })
        }));
        assert!(result.is_err());
        // Pool still alive afterwards.
        assert_eq!(pool.map(&[5u32], |_, x| *x), vec![5]);
    }

    #[test]
    fn shutdown_completes_pending_work() {
        // Jobs enqueued before the drop still run: drop drains first.
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::with_threads(4);
            pool.scope(|scope| {
                let tasks: Vec<_> = (0..16)
                    .map(|_| {
                        let counter = Arc::clone(&counter);
                        scope.spawn(move || {
                            counter.fetch_add(1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                drop(tasks);
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn rapid_create_drop_cycles_never_hang() {
        // Regression guard for the shutdown lost-wakeup race: Drop used
        // to set the flag and notify without the queue lock, so a worker
        // between its shutdown check and its condvar park could miss the
        // wakeup forever.
        for _ in 0..200 {
            let pool = ThreadPool::with_threads(3);
            drop(pool);
        }
        for _ in 0..50 {
            let pool = ThreadPool::with_threads(3);
            assert_eq!(pool.map(&[1u32], |_, x| *x), vec![1]);
        }
    }

    #[test]
    fn resident_sees_stop_signal_and_is_joined_at_drop() {
        let observed_stop = Arc::new(AtomicBool::new(false));
        let rounds = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::with_threads(2);
            let observed_stop = Arc::clone(&observed_stop);
            let resident_rounds = Arc::clone(&rounds);
            pool.spawn_resident(move |ctx| {
                while !ctx.stopping() {
                    resident_rounds.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                observed_stop.store(true, Ordering::SeqCst);
            });
            // Queue work coexists with the resident loop.
            assert_eq!(pool.map(&[1u32, 2], |_, x| x * 2), vec![2, 4]);
            // The resident thread may not have been scheduled yet; the
            // pool must not drop before it has run a round, or the stop
            // signal would be its first sight of the flag.
            while rounds.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
        }
        // Drop returned, so the resident was joined — after seeing stop.
        assert!(observed_stop.load(Ordering::SeqCst));
        assert!(rounds.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn panicking_resident_does_not_wedge_the_pool() {
        let pool = ThreadPool::with_threads(2);
        pool.spawn_resident(|_ctx| panic!("resident boom"));
        // Give the resident time to die; the pool keeps serving.
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(pool.map(&[3u32], |_, x| x + 1), vec![4]);
        drop(pool); // joins the dead resident without propagating
    }

    #[test]
    fn many_residents_all_joined() {
        let count = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::with_threads(1);
            for _ in 0..4 {
                let count = Arc::clone(&count);
                pool.spawn_resident(move |ctx| {
                    while !ctx.stopping() {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    count.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }
}
