//! A persistent worker pool for the workspace's fan-outs.
//!
//! [`par_map_indexed`](crate::par_map_indexed) spawns and joins a fresh
//! set of scoped threads on every call. That is correct and simple, but
//! on the corpus pipeline's hot paths the spawn/join cost is paid per
//! *stage per round*, and for small rounds it dominates the work
//! itself. (The serving path fans out over nothing: each request runs
//! on its connection's thread.) [`WorkerPool`] moves that cost to
//! process start: helper threads are spawned once and parked on a
//! condvar; each [`WorkerPool::map_indexed`] call installs one job,
//! lets the caller participate alongside the helpers, and returns when
//! every slot is filled.
//!
//! The contract is identical to `par_map_indexed`: results come back in
//! input order, workers pull items off a shared atomic cursor, and the
//! thread count changes only wall-clock time, never output bytes. After
//! start-up the pool spawns nothing: a call that finds the pool busy
//! (another caller's job, or a call nested inside a pool worker) runs
//! inline on its caller, so concurrent and nested callers never queue,
//! deadlock, or grow the thread count.
//!
//! Panic containment: a panic inside the mapped closure is caught, the
//! job is cancelled, and the pool's helper threads survive. The panic
//! is re-raised with its original payload by [`WorkerPool::map_indexed`],
//! matching the scoped path's behavior.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use crate::par::{auto_threads, par_map_indexed};

/// One installed fan-out. The closure reference is lifetime-erased; see
/// the safety argument in `WorkerPool::run` for why it is never
/// dereferenced after that call returns.
struct Job {
    run: &'static (dyn Fn(usize) + Sync),
    len: usize,
    /// Work-stealing cursor: each worker claims the next index.
    cursor: AtomicUsize,
    /// Workers (helpers + the installing caller) currently inside the
    /// pull loop. Mutated only under the pool's state lock.
    active: AtomicUsize,
    /// Helpers that have joined this job, capped at `max_helpers` so a
    /// `threads = 2` request on an 8-thread pool uses one helper, not
    /// seven. Mutated only under the pool's state lock.
    joined: AtomicUsize,
    max_helpers: usize,
    /// Set on the first panic; cancels the remaining items.
    panicked: AtomicBool,
    /// The first panic's payload, re-raised or stringified for the
    /// caller.
    payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job {
    /// Pull and run items until the cursor is exhausted or a panic
    /// cancelled the job. Panics in the closure are caught so helper
    /// threads survive.
    fn run_to_completion(&self) {
        loop {
            if self.panicked.load(Ordering::Relaxed) {
                break;
            }
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                break;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.run)(i))) {
                let mut slot = self.payload.lock().unwrap_or_else(|e| e.into_inner());
                if slot.is_none() {
                    *slot = Some(payload);
                }
                self.panicked.store(true, Ordering::Relaxed);
            }
        }
    }

    /// No unclaimed work remains (all items handed out, or cancelled).
    /// Only meaningful for join/retire decisions under the state lock.
    fn finished(&self) -> bool {
        self.panicked.load(Ordering::Relaxed) || self.cursor.load(Ordering::Relaxed) >= self.len
    }
}

struct State {
    /// The job currently installed, if any. At most one at a time; a
    /// caller finding the slot occupied runs its items inline.
    job: Option<Arc<Job>>,
    /// Bumped on every install so parked helpers can tell a new job from
    /// a spurious wakeup.
    epoch: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled on job install and shutdown.
    work_ready: Condvar,
    /// Signalled when a job retires (last active worker left).
    work_done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Retire one worker from `job`; the last one out clears the install
    /// slot and wakes the caller. Must run with no pull-loop work left.
    fn retire(&self, job: &Arc<Job>) {
        let mut st = self.lock();
        let remaining = job.active.load(Ordering::Relaxed) - 1;
        job.active.store(remaining, Ordering::Relaxed);
        if remaining == 0 {
            debug_assert!(job.finished());
            if let Some(cur) = &st.job {
                if Arc::ptr_eq(cur, job) {
                    st.job = None;
                }
            }
            self.work_done.notify_all();
        }
    }
}

fn helper_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    if let Some(job) = &st.job {
                        if job.joined.load(Ordering::Relaxed) < job.max_helpers && !job.finished() {
                            job.joined.fetch_add(1, Ordering::Relaxed);
                            job.active.fetch_add(1, Ordering::Relaxed);
                            break job.clone();
                        }
                    }
                }
                st = shared
                    .work_ready
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        job.run_to_completion();
        shared.retire(&job);
    }
}

/// A persistent pool of helper threads for order-preserving fan-outs.
///
/// Spawn once (or use [`WorkerPool::global`]), then call
/// [`map_indexed`](WorkerPool::map_indexed) as many times as you like:
/// the helpers park between jobs instead of being respawned. One job
/// runs at a time; an overlapping call (from another thread, or nested
/// inside a mapped closure, as the hyperparameter sweep does) runs
/// inline on its caller.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// A pool offering `threads` total parallelism: the caller
    /// participates in every job, so `threads - 1` helper threads are
    /// spawned. `threads = 0` means [`auto_threads`].
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            auto_threads()
        } else {
            threads
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                epoch: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        });
        let handles = (0..threads.saturating_sub(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || helper_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            threads,
        }
    }

    /// The process-wide pool, sized to [`auto_threads`] on first use.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(auto_threads()))
    }

    /// Total parallelism this pool offers (helpers + caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Pool-backed equivalent of [`par_map_indexed`]: map `f` over
    /// `items` with up to `threads` workers, returning results in input
    /// order. Panics (with the original payload) if `f` panics, exactly
    /// like the scoped path; the pool survives either way.
    pub fn map_indexed<T, R, F>(&self, items: &[T], threads: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        match self.run(items, threads, f) {
            Ok(out) => out,
            Err(payload) => resume_unwind(payload),
        }
    }

    fn run<T, R, F>(&self, items: &[T], threads: usize, f: F) -> Result<Vec<R>, Box<dyn Any + Send>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let inline = || {
            catch_unwind(AssertUnwindSafe(|| {
                items.iter().enumerate().map(|(i, t)| f(i, t)).collect()
            }))
        };
        let threads = threads.max(1).min(items.len().max(1));
        let max_helpers = threads.saturating_sub(1).min(self.handles.len());
        if max_helpers == 0 || items.len() <= 1 {
            // No helper could participate (single-threaded request, a
            // trivial list, or a pool sized for one CPU).
            return inline();
        }

        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        let writer = SlotWriter {
            base: out.as_mut_ptr(),
        };
        let run = |i: usize| {
            let r = f(i, &items[i]);
            // SAFETY: the cursor hands each index to exactly one worker,
            // so writes to `out` are disjoint; the mutex handshake in
            // `retire` sequences them before the caller reads.
            unsafe { writer.write(i, r) };
        };
        let run_ref: &(dyn Fn(usize) + Sync) = &run;
        // SAFETY: `Job` stores the closure as `&'static`, but every
        // worker that can call it is accounted for in `job.active`, and
        // this function blocks until the job has retired (`active == 0`
        // with the install slot cleared) before `run` goes out of scope.
        // After retirement the reference is never dereferenced again.
        let run_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(run_ref) };
        let job = Arc::new(Job {
            run: run_static,
            len: items.len(),
            cursor: AtomicUsize::new(0),
            active: AtomicUsize::new(1), // the caller
            joined: AtomicUsize::new(0),
            max_helpers,
            panicked: AtomicBool::new(false),
            payload: Mutex::new(None),
        });

        {
            let mut st = self.shared.lock();
            if st.shutdown || st.job.is_some() {
                // Busy (another caller's job, or this call is nested
                // inside one of our own workers): run inline rather than
                // queueing or spawning, so nesting can never deadlock.
                drop(st);
                return inline();
            }
            st.job = Some(Arc::clone(&job));
            st.epoch = st.epoch.wrapping_add(1);
            self.shared.work_ready.notify_all();
        }

        job.run_to_completion();
        {
            let mut st = self.shared.lock();
            let remaining = job.active.load(Ordering::Relaxed) - 1;
            job.active.store(remaining, Ordering::Relaxed);
            if remaining == 0 {
                if let Some(cur) = &st.job {
                    if Arc::ptr_eq(cur, &job) {
                        st.job = None;
                    }
                }
            } else {
                while st.job.as_ref().is_some_and(|cur| Arc::ptr_eq(cur, &job))
                    || job.active.load(Ordering::Relaxed) > 0
                {
                    st = self
                        .shared
                        .work_done
                        .wait(st)
                        .unwrap_or_else(|e| e.into_inner());
                }
            }
        }

        let payload = job.payload.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = payload {
            return Err(payload);
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("pool worker skipped a slot"))
            .collect())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Shared-write window into the caller's result vector. Disjointness of
/// the index set makes concurrent `write`s race-free.
struct SlotWriter<R> {
    base: *mut Option<R>,
}

impl<R> SlotWriter<R> {
    /// SAFETY: callers must pass each `i < len` at most once, and must
    /// sequence all writes before the owning vector is read.
    unsafe fn write(&self, i: usize, value: R) {
        unsafe { *self.base.add(i) = Some(value) };
    }
}

// SAFETY: `SlotWriter` is shared across workers that write disjoint
// slots; `R: Send` is all that moving a value into another thread's
// slot requires.
unsafe impl<R: Send> Sync for SlotWriter<R> {}

/// How a pipeline or service executes its fan-outs. Defaults to the
/// process-wide persistent pool; `Scoped` restores the PR-2 era
/// spawn-per-call behavior, and `Pool` pins a caller-owned pool (used by
/// tests to exercise specific pool sizes).
#[derive(Clone, Default)]
pub enum ParStrategy {
    /// Use [`WorkerPool::global`].
    #[default]
    GlobalPool,
    /// Use a specific shared pool.
    Pool(Arc<WorkerPool>),
    /// Spawn scoped threads per call ([`par_map_indexed`]).
    Scoped,
}

impl ParStrategy {
    /// Run one fan-out under this strategy. All strategies share the
    /// `par_map_indexed` contract: input order preserved, output bytes
    /// independent of `threads`.
    pub fn map_indexed<T, R, F>(&self, items: &[T], threads: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        match self {
            ParStrategy::GlobalPool => WorkerPool::global().map_indexed(items, threads, f),
            ParStrategy::Pool(pool) => pool.map_indexed(items, threads, f),
            ParStrategy::Scoped => par_map_indexed(items, threads, f),
        }
    }
}

impl fmt::Debug for ParStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParStrategy::GlobalPool => write!(f, "GlobalPool"),
            ParStrategy::Pool(p) => write!(f, "Pool(threads={})", p.threads()),
            ParStrategy::Scoped => write!(f, "Scoped"),
        }
    }
}

impl PartialEq for ParStrategy {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ParStrategy::GlobalPool, ParStrategy::GlobalPool) => true,
            (ParStrategy::Scoped, ParStrategy::Scoped) => true,
            (ParStrategy::Pool(a), ParStrategy::Pool(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_scoped_results() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 4, 9] {
            let pooled = pool.map_indexed(&items, threads, |i, &x| i as u64 + x * 3);
            let scoped = par_map_indexed(&items, threads, |i, &x| i as u64 + x * 3);
            assert_eq!(pooled, scoped);
        }
    }

    #[test]
    fn reusable_across_calls() {
        let pool = WorkerPool::new(3);
        for round in 0..5u64 {
            let items: Vec<u64> = (0..37).collect();
            let out = pool.map_indexed(&items, 3, |_, &x| x + round);
            assert_eq!(out, items.iter().map(|x| x + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_singleton() {
        let pool = WorkerPool::new(4);
        let empty: Vec<u8> = vec![];
        assert!(pool.map_indexed(&empty, 4, |_, x| *x).is_empty());
        assert_eq!(pool.map_indexed(&[7u8], 4, |_, x| *x + 1), vec![8]);
    }

    #[test]
    fn nested_calls_fall_back() {
        let pool = WorkerPool::new(4);
        let outer: Vec<u32> = (0..8).collect();
        let out = pool.map_indexed(&outer, 4, |_, &x| {
            let inner: Vec<u32> = (0..5).collect();
            pool.map_indexed(&inner, 4, |_, &y| y + x)
                .iter()
                .sum::<u32>()
        });
        let expect: Vec<u32> = outer.iter().map(|&x| (0..5).map(|y| y + x).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn strategy_equality_and_debug() {
        let a = ParStrategy::GlobalPool;
        assert_eq!(a, ParStrategy::default());
        assert_ne!(ParStrategy::Scoped, ParStrategy::GlobalPool);
        let p = Arc::new(WorkerPool::new(2));
        assert_eq!(ParStrategy::Pool(Arc::clone(&p)), ParStrategy::Pool(p));
        assert_eq!(format!("{:?}", ParStrategy::Scoped), "Scoped");
    }
}
