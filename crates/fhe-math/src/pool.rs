//! A small persistent worker pool for limb-parallel kernel passes.
//!
//! Trinity's hardware throughput comes from running many independent
//! limb/row passes at once (FAB's parallel NTT lanes, TREBUCHET's
//! per-tower RNS parallelism). The software counterpart is a handful of
//! long-lived worker threads that whole-limb-row jobs are sliced
//! across; [`crate::kernel::ThreadedBackend`] builds its batched passes
//! on this pool.
//!
//! The build environment is offline (no `rayon`), so the pool is
//! home-grown from `std::thread` + `std::sync::mpsc`:
//!
//! * **Persistent workers.** [`WorkerPool::new`] spawns `threads - 1`
//!   workers that live as long as the pool (for the process, for the
//!   pools behind [`crate::kernel::threaded`]). Jobs are pulled
//!   from one shared injector channel, so several caller threads can
//!   dispatch into the same pool concurrently.
//! * **The caller is a worker too.** [`WorkerPool::run`] executes the
//!   first task inline on the calling thread, and while waiting for
//!   completions it *steals* queued jobs — a pool of `N` threads always
//!   has `N` lanes of compute, and a 1-thread pool is simply the
//!   sequential fallback.
//! * **Scoped borrows without `std::thread::scope`.** Tasks may borrow
//!   the caller's stack (the limb rows being transformed). `run` does
//!   not return until every dispatched job has either completed or
//!   been dropped unrun, which is what makes the internal lifetime
//!   erasure sound — see the safety comment in [`WorkerPool::run`].
//! * **Panic recovery.** A panicking job is caught on the worker, the
//!   worker survives, and the payload is re-raised on the caller after
//!   all sibling jobs of the dispatch have finished. All pool mutexes
//!   recover from poisoning, so one panicked kernel row cannot wedge
//!   the process-wide backend.
//!
//! Determinism: the pool imposes no ordering on job *execution*, but
//! every job owns a disjoint slice of the output, so results are
//! bit-identical to the sequential schedule regardless of interleaving.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SendError, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread;

/// A borrowed unit of work: one whole-limb row (or a row group) of a
/// batched kernel pass.
pub type Task<'a> = Box<dyn FnOnce() + Send + 'a>;

/// A task whose borrows have been erased to `'static` for the trip
/// through the injector channel. Only constructed inside
/// [`WorkerPool::run`], which guarantees the real lifetime.
type ErasedTask = Box<dyn FnOnce() + Send + 'static>;

/// One queued job: the erased task plus the completion channel of the
/// dispatch it belongs to.
struct Job {
    run: ErasedTask,
    done: Sender<thread::Result<()>>,
}

/// A persistent pool of kernel worker threads (see the module docs).
pub struct WorkerPool {
    /// Injector half of the shared job queue, serialised so concurrent
    /// dispatchers do not interleave their sends mid-batch.
    inject: Mutex<Sender<Job>>,
    /// Consumer half, shared by workers (blocking `recv`) and stealing
    /// callers (`try_recv`).
    queue: Arc<Mutex<Receiver<Job>>>,
    /// Total compute lanes: spawned workers + the calling thread.
    threads: usize,
    /// Cumulative count of jobs that went through the *parallel* path
    /// of [`Self::run`] (the inline first task plus every queued
    /// sibling). Sequential fallbacks do not count, so tests can assert
    /// a dispatch genuinely fanned out — observable parallelism even on
    /// a single-CPU host.
    parallel_jobs: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

fn worker_loop(queue: Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Hold the queue lock only for the blocking recv; an idle
        // worker parked here hands the lock back the moment a job
        // arrives.
        let job = {
            let guard = queue.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv()
        };
        match job {
            Ok(Job { run, done }) => {
                // A panicking kernel row must not kill the worker: catch
                // it and ship the payload back to the dispatching caller.
                let result = catch_unwind(AssertUnwindSafe(run));
                let _ = done.send(result);
            }
            // Injector dropped: the pool is being torn down.
            Err(_) => break,
        }
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` total compute lanes (the calling
    /// thread counts as one, so `threads - 1` workers are spawned;
    /// `threads <= 1` spawns none and [`Self::run`] degenerates to the
    /// sequential loop).
    ///
    /// Workers are named `trinity-kernel-N` and live until the pool is
    /// dropped.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = mpsc::channel::<Job>();
        let queue = Arc::new(Mutex::new(rx));
        let mut spawned = 0usize;
        for i in 0..threads - 1 {
            let q = Arc::clone(&queue);
            match thread::Builder::new()
                .name(format!("trinity-kernel-{i}"))
                .spawn(move || worker_loop(q))
            {
                Ok(_) => spawned += 1,
                // Thread-starved environment: degrade to fewer lanes
                // rather than failing construction.
                Err(_) => break,
            }
        }
        Self {
            inject: Mutex::new(tx),
            queue,
            threads: spawned + 1,
            parallel_jobs: AtomicU64::new(0),
        }
    }

    /// Total compute lanes (spawned workers + the calling thread).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cumulative number of jobs dispatched through the parallel path
    /// of [`Self::run`] over this pool's lifetime (inline share
    /// included; sequential fallbacks excluded). Diff before/after a
    /// call to assert that a batched pass actually fanned out.
    #[inline]
    pub fn parallel_jobs_dispatched(&self) -> u64 {
        self.parallel_jobs.load(Ordering::Relaxed)
    }

    /// Runs all `tasks` to completion, distributing them over the pool.
    ///
    /// The first task runs inline on the calling thread; the rest are
    /// queued for workers, and the caller steals queued jobs while it
    /// waits so no lane idles. Tasks must write to **disjoint** data —
    /// the pool guarantees completion, not ordering.
    ///
    /// # Panics
    ///
    /// If any task panics, the first payload is re-raised on the caller
    /// — after every other task of this dispatch has finished, so
    /// borrowed captures never outlive the call. The pool itself
    /// survives (worker threads catch job panics).
    pub fn run(&self, tasks: Vec<Task<'_>>) {
        let mut tasks = tasks.into_iter();
        let Some(first) = tasks.next() else { return };
        if self.threads == 1 || tasks.len() == 0 {
            first();
            for t in tasks {
                t();
            }
            return;
        }

        let (done_tx, done_rx) = mpsc::channel::<thread::Result<()>>();
        let mut outstanding = 0usize;
        {
            // trinity-lint: allow(guard-across-dispatch): the injector lock
            // IS the dispatch serialisation point — workers only receive
            // from the queue and never take this lock, so holding it
            // across the sends cannot deadlock; dropping it per-send
            // would interleave concurrent dispatches instead.
            let inject = self.inject.lock().unwrap_or_else(PoisonError::into_inner);
            for t in tasks {
                // SAFETY: the borrows captured by `t` outlive this call
                // frame, and this function does not return before every
                // dispatched job is finished: `finish_dispatch` blocks
                // until each job has either (a) sent its completion —
                // which happens strictly after the closure ran and was
                // consumed — or (b) been dropped unrun, observed as the
                // completion channel disconnecting once every `done`
                // clone (owned by the in-flight `Job`s) is gone. Hence
                // no erased borrow is ever dereferenced after `run`
                // returns, and the `'static` lie is never observable.
                let run = unsafe { std::mem::transmute::<Task<'_>, ErasedTask>(t) };
                match inject.send(Job {
                    run,
                    done: done_tx.clone(),
                }) {
                    Ok(()) => outstanding += 1,
                    // No live worker (cannot happen while the pool owns
                    // the injector, but be safe): run inline instead.
                    Err(SendError(job)) => (job.run)(),
                }
            }
        }
        drop(done_tx);
        // The inline first task plus every queued sibling went through
        // the parallel path.
        self.parallel_jobs
            .fetch_add(outstanding as u64 + 1, Ordering::Relaxed);

        // Run our own share, deferring any panic until the dispatch has
        // fully drained (the borrows above must stay alive until then).
        let mine = catch_unwind(AssertUnwindSafe(first));
        let worker_panic = self.finish_dispatch(&done_rx, outstanding);
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }

    /// Waits for `outstanding` completions, stealing queued jobs while
    /// workers are busy. Returns the first panic payload observed.
    fn finish_dispatch(
        &self,
        done_rx: &Receiver<thread::Result<()>>,
        mut outstanding: usize,
    ) -> Option<Box<dyn std::any::Any + Send>> {
        let mut first_panic = None;
        let record = |r: thread::Result<()>, slot: &mut Option<_>| {
            if let Err(p) = r {
                slot.get_or_insert(p);
            }
        };
        while outstanding > 0 {
            // Drain completions that are already in.
            match done_rx.try_recv() {
                Ok(r) => {
                    outstanding -= 1;
                    record(r, &mut first_panic);
                    continue;
                }
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => {}
            }
            // All workers busy? Steal a queued job (possibly from a
            // concurrent dispatch — its completion goes to *its* `done`
            // channel, so accounting stays correct) instead of idling.
            let stolen = self
                .queue
                .try_lock()
                .ok()
                .and_then(|guard| guard.try_recv().ok());
            if let Some(Job { run, done }) = stolen {
                let result = catch_unwind(AssertUnwindSafe(run));
                let _ = done.send(result);
                continue;
            }
            // Nothing to steal: block until one of ours completes.
            match done_rx.recv() {
                Ok(r) => {
                    outstanding -= 1;
                    record(r, &mut first_panic);
                }
                // Disconnected: every `done` clone is gone, so every job
                // of this dispatch has completed or been dropped unrun.
                Err(_) => break,
            }
        }
        first_panic
    }

    /// Partitions `0..len` into at most [`Self::threads`] contiguous,
    /// balanced, non-empty ranges of at least `min_chunk` items and
    /// runs `f` on each in parallel; below the threshold (or on a
    /// 1-thread pool) it simply calls `f(0..len)` inline — the
    /// sequential fallback. The single-buffer (intra-row) counterpart
    /// of the row-group slicing in
    /// [`crate::kernel::ThreadedBackend`]'s batch passes.
    pub fn run_partition<F>(&self, len: usize, min_chunk: usize, f: F)
    where
        F: Fn(std::ops::Range<usize>) + Sync,
    {
        if len == 0 {
            return;
        }
        // Never more chunks than items: every range stays non-empty
        // and in bounds even when `threads` exceeds `len`.
        let chunks = (len / min_chunk.max(1)).clamp(1, self.threads.min(len));
        if chunks <= 1 || self.threads == 1 {
            f(0..len);
            return;
        }
        let (base, extra) = (len / chunks, len % chunks);
        let f = &f;
        let mut start = 0usize;
        let tasks: Vec<Task<'_>> = (0..chunks)
            .map(|i| {
                let size = base + usize::from(i < extra);
                let range = start..start + size;
                start += size;
                Box::new(move || f(range)) as Task<'_>
            })
            .collect();
        debug_assert_eq!(start, len);
        self.run(tasks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits = AtomicUsize::new(0);
        let mut out = vec![0u64; 64];
        let tasks: Vec<Task<'_>> = out
            .chunks_mut(8)
            .enumerate()
            .map(|(i, chunk)| {
                let hits = &hits;
                Box::new(move || {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x = (i * 8 + j) as u64;
                    }
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(hits.load(Ordering::SeqCst), 8);
        assert!(out.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn single_thread_pool_is_sequential_fallback() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut out = [0u32; 10];
        let tasks: Vec<Task<'_>> = out
            .chunks_mut(2)
            .map(|c| Box::new(move || c.iter_mut().for_each(|x| *x += 1)) as Task<'_>)
            .collect();
        pool.run(tasks);
        assert!(out.iter().all(|&x| x == 1));
    }

    #[test]
    fn run_partition_covers_range_without_overlap() {
        // Pools wider than the item count must still produce valid,
        // non-empty ranges (regression: chunk count above
        // ceil(len/per) used to yield ranges with start > len).
        for threads in [3usize, 8] {
            let pool = WorkerPool::new(threads);
            for (len, min_chunk) in [(0usize, 8), (5, 8), (10, 1), (64, 8), (65, 8), (1000, 1)] {
                let seen: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                pool.run_partition(len, min_chunk, |range| {
                    // Slice to prove the range is in bounds, not just
                    // iterable.
                    for c in &seen[range] {
                        c.fetch_add(1, Ordering::SeqCst);
                    }
                });
                assert!(
                    seen.iter().all(|c| c.load(Ordering::SeqCst) == 1),
                    "threads={threads} len={len} min_chunk={min_chunk}"
                );
            }
        }
    }

    #[test]
    fn panicking_task_propagates_and_pool_survives() {
        let pool = WorkerPool::new(3);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Task<'_>> = (0..6)
                .map(|i| {
                    Box::new(move || {
                        if i == 4 {
                            panic!("injected kernel-row panic");
                        }
                    }) as Task<'_>
                })
                .collect();
            pool.run(tasks);
        }));
        let payload = caught.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("injected"), "unexpected payload {msg:?}");

        // The workers caught the panic and are still serving jobs.
        let hits = AtomicUsize::new(0);
        let tasks: Vec<Task<'_>> = (0..6)
            .map(|_| {
                let hits = &hits;
                Box::new(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(hits.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn parallel_jobs_counter_tracks_fanout_only() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.parallel_jobs_dispatched(), 0);
        // A lone task runs sequentially: not counted.
        pool.run(vec![Box::new(|| {}) as Task<'_>]);
        assert_eq!(pool.parallel_jobs_dispatched(), 0);
        // A 5-task dispatch fans out: all 5 jobs counted (inline share
        // included).
        let tasks: Vec<Task<'_>> = (0..5).map(|_| Box::new(|| {}) as Task<'_>).collect();
        pool.run(tasks);
        assert_eq!(pool.parallel_jobs_dispatched(), 5);
        // A 1-thread pool never fans out.
        let seq = WorkerPool::new(1);
        let tasks: Vec<Task<'_>> = (0..4).map(|_| Box::new(|| {}) as Task<'_>).collect();
        seq.run(tasks);
        assert_eq!(seq.parallel_jobs_dispatched(), 0);
    }

    #[test]
    fn concurrent_dispatchers_share_one_pool() {
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..8 {
                        let total = &total;
                        let tasks: Vec<Task<'_>> = (0..5)
                            .map(|_| {
                                Box::new(move || {
                                    total.fetch_add(1, Ordering::SeqCst);
                                }) as Task<'_>
                            })
                            .collect();
                        pool.run(tasks);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 4 * 8 * 5);
    }
}
