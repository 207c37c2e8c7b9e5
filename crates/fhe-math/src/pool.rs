//! A small persistent worker pool for independent jobs.
//!
//! Trinity's hardware throughput comes from giving independent work to
//! every compute unit at once (its dynamic workload scheduling). The
//! software counterpart is a handful of long-lived worker threads, the
//! process pool [`shared`], and one way to slice work across them:
//! [`WorkerPool::map_chunks`] splits a batch of independent jobs into
//! one narrower batch per lane. The TFHE gate engine and the CKKS
//! Galois batch engine run each of their batches through it — so a
//! service dispatch group occupies every core while each chunk's
//! kernels stay as wide as its jobs make them. The CKKS bootstrap runs
//! its two CoeffToSlot sources, and then its two EvalMod +
//! SlotToCoeff halves, through it as two-job batches. Kernel calls
//! themselves run on the calling thread: slicing one call's limb rows
//! across the pool never beat the lane backend on the benchmark
//! workloads, because each of those calls lasts microseconds and a
//! two-job dispatch costs tens of them. [`WorkerPool::run_partition`]
//! slices a range instead of a batch; the TFHE LWE keyswitch
//! (`fhe_tfhe::LweKeySwitchKey::switch`) runs its key rows through it,
//! one contiguous range per lane, each folded into its own partial
//! sum. That grain is coarser than row slicing was: one dispatch per
//! switch, and each lane's range streams at least a million key words,
//! about 0.8 ms of the paper's Set-I key (a whole switch is 3.3 ms on
//! one lane, the cross-scheme one 35–40 ms), against 20–40 µs for the
//! dispatch. Those timings come from a 2-lane host; wider hosts split
//! at the same grain, untimed.
//!
//! The build environment is offline (no `rayon`), so the pool is
//! home-grown from `std::thread` + `std::sync::mpsc`:
//!
//! * **Persistent workers.** [`WorkerPool::new`] spawns `threads - 1`
//!   workers that live as long as the pool ([`shared`]'s for the
//!   process). Jobs are pulled from one shared injector channel, so
//!   several caller threads can dispatch into the same pool
//!   concurrently.
//! * **The caller is a worker too.** Every dispatch executes the
//!   first task inline on the calling thread, and while waiting for
//!   completions it *steals* queued jobs — a pool of `N` threads always
//!   has `N` lanes of compute, and a 1-thread pool is simply the
//!   sequential fallback. Dispatches may nest — a `map_chunks` chunk
//!   may dispatch into the same pool — and a nested dispatcher
//!   likewise runs queued jobs while it waits.
//! * **Scoped borrows without `std::thread::scope`.** Tasks may borrow
//!   the caller's stack (the jobs and their output slots). `run` does
//!   not return until every dispatched job has either completed or
//!   been dropped unrun, which is what makes the internal lifetime
//!   erasure sound — see the safety comment in `WorkerPool::run`.
//! * **Panic recovery.** A panicking job is caught on the worker, the
//!   worker survives, and the payload is re-raised on the caller after
//!   all sibling jobs of the dispatch have finished. All pool mutexes
//!   recover from poisoning, so one panicked job cannot wedge the
//!   process pool.
//!
//! Determinism: the pool imposes no ordering on job *execution*, but
//! every job owns a disjoint slice of the output (a chunk of
//! `map_chunks` its own output vector), so results are bit-identical to
//! the sequential schedule regardless of interleaving.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SendError, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError};
use std::thread;

/// A borrowed unit of work: one chunk of a dispatch.
type Task<'a> = Box<dyn FnOnce() + Send + 'a>;

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

/// A persistent pool of worker threads (see the module docs).
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
                // A panicking job must not kill the worker: catch
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
    /// `threads <= 1` spawns none and every dispatch degenerates to the
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
    /// over this pool's lifetime (inline share included; sequential
    /// fallbacks excluded). Diff before/after a call to assert that it
    /// actually fanned out.
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
    fn run(&self, tasks: Vec<Task<'_>>) {
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
    /// balanced, non-empty ranges of at least `min_chunk` items, runs
    /// `f` on each on its own lane and returns the outputs in range
    /// order. Below two such ranges (or on a 1-thread pool) it calls
    /// `f(0..len)` once inline, the sequential fallback; `len == 0`
    /// returns no outputs without calling `f`.
    ///
    /// # Panics
    ///
    /// A range's panic is re-raised on the caller after every other
    /// range has finished.
    pub fn run_partition<R, F>(&self, len: usize, min_chunk: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(std::ops::Range<usize>) -> R + Sync,
    {
        if len == 0 {
            return Vec::new();
        }
        // Never more chunks than items: every range stays non-empty
        // and in bounds even when `threads` exceeds `len`.
        let chunks = (len / min_chunk.max(1)).clamp(1, self.threads.min(len));
        if chunks == 1 {
            return vec![f(0..len)];
        }
        let f = &f;
        let mut outs: Vec<Option<R>> = (0..chunks).map(|_| None).collect();
        let tasks: Vec<Task<'_>> = balanced_ranges(len, chunks)
            .zip(outs.iter_mut())
            .map(|(range, out)| Box::new(move || *out = Some(f(range))) as Task<'_>)
            .collect();
        self.run(tasks);
        outs.into_iter()
            .map(|out| out.expect("`run` returns after every task ran"))
            .collect()
    }

    /// The job-axis entry point: splits `items` into at most
    /// [`Self::threads`] contiguous, non-empty chunks whose sizes differ
    /// by at most one, runs `f` on each chunk on its own lane, and
    /// returns the outputs concatenated in item order. One item, or a
    /// 1-thread pool, calls `f(items)` once inline with no pool traffic;
    /// no items return an empty vector without calling `f`.
    ///
    /// Each chunk is a whole, narrower batch-engine call, so this only
    /// preserves results when a job's output does not depend on its
    /// batch mates.
    ///
    /// # Panics
    ///
    /// A chunk's panic is re-raised on the caller after every other
    /// chunk has finished.
    pub fn map_chunks<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> Vec<R> + Sync,
    {
        self.run_partition(items.len(), 1, |range| f(&items[range]))
            .into_iter()
            .flatten()
            .collect()
    }
}

/// Hard ceiling on the process pool's lanes (a host reporting 100000
/// CPUs must not make the process spawn as many threads).
const MAX_THREADS: usize = 256;

/// The process pool: one lane per
/// [`std::thread::available_parallelism`] (at most 256), workers living
/// for the process. Every caller — the gate and Galois batch engines,
/// the CKKS bootstrap and the LWE keyswitch — shares it, so nested
/// work never oversubscribes the cores with a second set of workers.
pub fn shared() -> &'static WorkerPool {
    static SHARED: OnceLock<WorkerPool> = OnceLock::new();
    SHARED.get_or_init(|| {
        let cores = thread::available_parallelism().map_or(1, usize::from);
        WorkerPool::new(cores.clamp(1, MAX_THREADS))
    })
}

/// `0..len` as `chunks` contiguous ranges in order, the first
/// `len % chunks` one item longer than the rest.
fn balanced_ranges(len: usize, chunks: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let (base, extra) = (len / chunks, len % chunks);
    (0..chunks).scan(0usize, move |start, i| {
        let range = *start..*start + base + usize::from(i < extra);
        *start = range.end;
        Some(range)
    })
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
                let ranges = pool.run_partition(len, min_chunk, |range| {
                    // Slice to prove the range is in bounds, not just
                    // iterable.
                    for c in &seen[range.clone()] {
                        c.fetch_add(1, Ordering::SeqCst);
                    }
                    range
                });
                let ctx = format!("threads={threads} len={len} min_chunk={min_chunk}");
                assert!(seen.iter().all(|c| c.load(Ordering::SeqCst) == 1), "{ctx}");
                // One output per range, in range order.
                let items: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
                assert_eq!(items, (0..len).collect::<Vec<_>>(), "{ctx}");
                assert!(ranges.len() <= threads, "{ctx}: {ranges:?}");
                assert!(
                    ranges.len() == 1 || ranges.iter().all(|r| r.len() >= min_chunk),
                    "{ctx}: {ranges:?}"
                );
            }
        }
    }

    #[test]
    fn map_chunks_splits_in_order_into_balanced_contiguous_chunks() {
        for threads in [1usize, 2, 3] {
            let pool = WorkerPool::new(threads);
            for len in 0..=9usize {
                let items: Vec<usize> = (0..len).collect();
                let chunks = Mutex::new(Vec::new());
                let out = pool.map_chunks(&items, |chunk| {
                    chunks
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(chunk.to_vec());
                    chunk.iter().map(|&i| 10 * i).collect()
                });
                let ctx = format!("threads={threads} len={len}");
                assert_eq!(
                    out,
                    items.iter().map(|&i| 10 * i).collect::<Vec<_>>(),
                    "{ctx}"
                );

                let mut chunks = chunks.into_inner().unwrap_or_else(PoisonError::into_inner);
                chunks.sort();
                assert!(chunks.len() <= pool.threads(), "{ctx}: {chunks:?}");
                assert_eq!(chunks.len(), pool.threads().min(len), "{ctx}");
                assert!(chunks.iter().all(|c| !c.is_empty()), "{ctx}: {chunks:?}");
                // Contiguous: the sorted chunks concatenate to the items.
                assert_eq!(chunks.concat(), items, "{ctx}");
                let sizes = chunks.iter().map(Vec::len);
                let spread = sizes.clone().max().unwrap_or(0) - sizes.min().unwrap_or(0);
                assert!(spread <= 1, "{ctx}: {chunks:?}");
            }
        }
    }

    #[test]
    fn map_chunks_runs_one_item_or_one_lane_inline() {
        let caller = thread::current().id();
        let on_caller = |chunk: &[u32]| {
            assert_eq!(thread::current().id(), caller, "must run inline");
            chunk.to_vec()
        };
        let pool = WorkerPool::new(3);
        assert_eq!(pool.map_chunks(&[7], on_caller), [7]);
        assert_eq!(pool.parallel_jobs_dispatched(), 0);
        let seq = WorkerPool::new(1);
        assert_eq!(seq.map_chunks(&[1, 2, 3, 4], on_caller), [1, 2, 3, 4]);
        assert_eq!(seq.parallel_jobs_dispatched(), 0);
        // A wider batch on the 3-lane pool fans out, one job per chunk.
        assert_eq!(
            pool.map_chunks(&[1, 2, 3, 4], <[u32]>::to_vec),
            [1, 2, 3, 4]
        );
        assert_eq!(pool.parallel_jobs_dispatched(), 3);
    }

    #[test]
    fn map_chunks_chunks_may_dispatch_into_the_same_pool() {
        let pool = WorkerPool::new(2);
        let items: Vec<usize> = (0..6).collect();
        for _ in 0..50 {
            let out = pool.map_chunks(&items, |chunk| {
                let sums: Vec<AtomicUsize> = chunk.iter().map(|_| AtomicUsize::new(0)).collect();
                pool.run_partition(chunk.len(), 1, |range| {
                    for (s, &i) in sums[range.clone()].iter().zip(&chunk[range]) {
                        s.fetch_add(i + 1, Ordering::SeqCst);
                    }
                });
                sums.into_iter().map(AtomicUsize::into_inner).collect()
            });
            assert_eq!(out, [1, 2, 3, 4, 5, 6]);
        }
    }

    #[test]
    fn map_chunks_reraises_a_chunk_panic_after_its_siblings() {
        let pool = WorkerPool::new(3);
        let finished = AtomicUsize::new(0);
        // Chunk 2 finishes only after chunk 1 is about to panic (chunks
        // are queued in order, so chunk 1 is taken first).
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new(rx);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_chunks(&[0u32, 1, 2], |chunk| {
                if chunk == [1] {
                    tx.send(()).expect("chunk 2 is waiting");
                    panic!("injected chunk panic");
                }
                if chunk == [2] {
                    let rx = rx.lock().unwrap_or_else(PoisonError::into_inner);
                    rx.recv().expect("chunk 1 signals");
                }
                finished.fetch_add(1, Ordering::SeqCst);
                chunk.to_vec()
            })
        }));
        let payload = caught.expect_err("panic must propagate to the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected chunk panic")
        );
        assert_eq!(
            finished.load(Ordering::SeqCst),
            2,
            "siblings ran to the end"
        );

        // The pool still serves the next call.
        assert_eq!(pool.map_chunks(&[1u32, 2, 3], <[u32]>::to_vec), [1, 2, 3]);
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
