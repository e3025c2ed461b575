//! A persistent worker pool with submit → join job handles —
//! the executor primitive behind the asynchronous session tier.
//!
//! [`par_map`](crate::par_map) and friends are *batch* primitives: the
//! caller blocks until the whole fan-out finishes. A [`JobPool`] is the
//! complementary *queue* primitive: callers submit independent jobs and
//! get a [`JobHandle`] back immediately, so slow jobs (a full map build)
//! overlap with fast ones (a highlight) instead of serializing behind
//! them.
//!
//! The pool obeys the same invariants as the batch executor:
//!
//! * **Thread budget** — `JobPool::new(0)` sizes the pool from
//!   [`thread_budget`](crate::thread_budget), so `BLAEU_THREADS` caps the
//!   async tier exactly like the batch tier.
//! * **Nesting guard** — every pool worker is flagged as an executor
//!   worker, so any batch-executor call a job makes (CLARA, matrix
//!   builds, dependency sweeps) degrades to sequential on the worker's
//!   own thread instead of multiplying thread counts. A job's result is
//!   therefore bit-identical however many workers the pool has.
//! * **Panic transparency** — a panicking job never takes a worker down;
//!   the payload is captured and re-raised in the caller on
//!   [`JobHandle::join`].
//!
//! Jobs are claimed strictly in submission order off one shared queue
//! (FIFO claim, like the batch executor's claim cursor); completion order
//! depends on job cost. Dropping the pool drains the queue gracefully:
//! already-submitted jobs still run, then workers exit and are joined.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// A type-erased unit of queued work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its workers.
struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when work arrives or shutdown begins.
    work_cv: Condvar,
}

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

/// A persistent pool of worker threads consuming a FIFO job queue.
///
/// See the [module docs](self) for the invariants. Cheap to share via the
/// handles it returns; the pool itself owns the worker threads and joins
/// them on drop (after draining already-submitted jobs). Pools may be
/// wrapped in an `Arc` and referenced from their own jobs via [`Weak`]
/// (how the session server re-schedules drain work): shutdown is
/// idempotent, self-joins are skipped, and [`JobPool::submit`] during
/// shutdown degrades to running the job inline, so no reference pattern
/// can strand a job or deadlock the teardown.
///
/// [`Weak`]: std::sync::Weak
pub struct JobPool {
    shared: Arc<PoolShared>,
    /// Drained by whichever thread performs the shutdown join; the
    /// spawned count is kept separately for [`JobPool::workers`].
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    spawned: usize,
}

impl std::fmt::Debug for JobPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPool")
            .field("workers", &self.spawned)
            .field("queued", &self.queued())
            .finish()
    }
}

impl JobPool {
    /// Spawns a pool with `threads` workers (`0` = the process
    /// [`thread_budget`](crate::thread_budget), clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            crate::thread_budget()
        } else {
            threads
        }
        .max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("blaeu-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker cannot fail")
            })
            .collect();
        JobPool {
            shared,
            handles: Mutex::new(handles),
            spawned: threads,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.spawned
    }

    /// Number of jobs waiting to be claimed (excludes running jobs).
    fn queued(&self) -> usize {
        self.shared.state.lock().queue.len()
    }

    /// Submits a job, returning a handle to join it.
    ///
    /// The closure runs on a pool worker with the executor's nesting
    /// guard active; a panic inside it is captured and re-raised in
    /// whoever calls [`JobHandle::join`]. Submitting to a pool that is
    /// shutting down runs the job **inline on the calling thread**
    /// instead of queueing — the handle still resolves, so teardown
    /// can never strand a job.
    pub fn submit<R, F>(&self, f: F) -> JobHandle<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let slot = Arc::new(JobSlot {
            outcome: Mutex::new(None),
            cv: Condvar::new(),
        });
        let job_slot = Arc::clone(&slot);
        let job: Job = Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(f));
            *job_slot.outcome.lock() = Some(outcome);
            job_slot.cv.notify_all();
        });
        let inline_job = {
            let mut st = self.shared.state.lock();
            if st.shutdown {
                Some(job)
            } else {
                st.queue.push_back(job);
                None
            }
        };
        match inline_job {
            Some(job) => job(),
            None => self.shared.work_cv.notify_one(),
        }
        JobHandle { slot }
    }

    /// Signals shutdown and joins the workers after they drain every
    /// already-queued job. Idempotent; safe to call from any thread —
    /// a call from a pool worker (possible when the last `Arc<JobPool>`
    /// is dropped inside a job) skips joining its own thread.
    pub fn shutdown_and_join(&self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        let handles: Vec<std::thread::JoinHandle<()>> = std::mem::take(&mut *self.handles.lock());
        let me = std::thread::current().id();
        for worker in handles {
            if worker.thread().id() == me {
                // Joining the current thread would deadlock; the worker
                // exits on its own once its job returns.
                continue;
            }
            // Workers never unwind: every job body is wrapped in
            // catch_unwind.
            worker.join().expect("pool worker cannot panic");
        }
    }
}

impl Drop for JobPool {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

fn worker_loop(shared: &PoolShared) {
    crate::mark_worker_thread();
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break Some(job);
                }
                if st.shutdown {
                    break None;
                }
                shared.work_cv.wait(&mut st);
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

/// Where a job's outcome lands: `None` until the job has finished
/// (normally or by panic).
struct JobSlot<R> {
    outcome: Mutex<Option<std::thread::Result<R>>>,
    cv: Condvar,
}

/// Handle to a job submitted to a [`JobPool`].
///
/// Dropping the handle detaches the job (it still runs); joining waits
/// for it and yields its result.
pub struct JobHandle<R> {
    slot: Arc<JobSlot<R>>,
}

impl<R> std::fmt::Debug for JobHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").finish_non_exhaustive()
    }
}

impl<R> JobHandle<R> {
    /// Blocks until the job completes and returns its result. A panic
    /// inside the job is re-raised here with its original payload.
    pub fn join(self) -> R {
        let mut pending = self.slot.outcome.lock();
        let outcome = loop {
            match pending.take() {
                Some(done) => break done,
                None => self.slot.cv.wait(&mut pending),
            }
        };
        drop(pending);
        outcome.unwrap_or_else(|payload| resume_unwind(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn submit_join_roundtrip() {
        let pool = JobPool::new(4);
        assert_eq!(pool.workers(), 4);
        let handles: Vec<_> = (0..32).map(|i| pool.submit(move || i * 2)).collect();
        let results: Vec<usize> = handles.into_iter().map(JobHandle::join).collect();
        assert_eq!(results, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_uses_budget() {
        let pool = JobPool::new(0);
        assert!(pool.workers() >= 1);
        assert_eq!(pool.submit(|| 7usize).join(), 7);
    }

    #[test]
    fn jobs_run_inside_nesting_guard() {
        let pool = JobPool::new(2);
        let handle = pool.submit(|| {
            assert!(
                crate::in_parallel_region(),
                "pool workers must be flagged as executor workers"
            );
            // Batch-executor calls from a job stay on the worker's thread.
            let ids: HashSet<std::thread::ThreadId> =
                crate::par_map_range_grained(32, 8, 0, |_| std::thread::current().id())
                    .into_iter()
                    .collect();
            ids.len()
        });
        assert_eq!(handle.join(), 1);
        assert!(!crate::in_parallel_region());
    }

    #[test]
    fn panic_surfaces_on_join_and_pool_survives() {
        let pool = JobPool::new(1);
        let bad = pool.submit(|| panic!("job exploded"));
        let good = pool.submit(|| 11usize);
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| bad.join()))
            .expect_err("panic must re-raise on join");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(
            message.contains("job exploded"),
            "payload lost: {message:?}"
        );
        // The worker survived the panic and keeps serving jobs.
        assert_eq!(good.join(), 11);
    }

    #[test]
    fn single_worker_preserves_submission_order() {
        let pool = JobPool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let order = Arc::clone(&order);
                pool.submit(move || order.lock().push(i))
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(*order.lock(), (0..16).collect::<Vec<usize>>());
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let done = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = {
            let pool = JobPool::new(2);
            (0..24)
                .map(|_| {
                    let done = Arc::clone(&done);
                    pool.submit(move || {
                        done.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect()
            // Pool dropped here with jobs likely still queued.
        };
        assert_eq!(
            done.load(Ordering::SeqCst),
            24,
            "drop must drain, not discard"
        );
        for h in handles {
            h.join();
        }
    }

    #[test]
    fn submit_after_shutdown_runs_inline_and_resolves() {
        let pool = JobPool::new(2);
        pool.shutdown_and_join();
        pool.shutdown_and_join(); // idempotent
        let handle = pool.submit(|| std::thread::current().id());
        assert_eq!(handle.join(), std::thread::current().id(), "ran inline");
    }

    #[test]
    fn join_blocks_until_the_job_completes() {
        let pool = JobPool::new(2);
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let done = Arc::new(AtomicUsize::new(0));
        let handle = {
            let done = Arc::clone(&done);
            pool.submit(move || {
                parked.recv().expect("test holds the sender");
                done.fetch_add(1, Ordering::SeqCst);
                1usize
            })
        };
        // Join from a second worker while the job is parked: it must not
        // return until the job is released.
        let (joined_tx, joined) = std::sync::mpsc::channel();
        let joiner = pool.submit(move || joined_tx.send(handle.join()).unwrap());
        assert!(
            joined
                .recv_timeout(std::time::Duration::from_millis(50))
                .is_err(),
            "join returned while the job was parked"
        );
        assert_eq!(done.load(Ordering::SeqCst), 0, "job parked until released");
        release.send(()).expect("job holds the receiver");
        assert_eq!(joined.recv().unwrap(), 1);
        assert_eq!(done.load(Ordering::SeqCst), 1, "join waited for the body");
        joiner.join();
    }

    #[test]
    fn slow_and_fast_jobs_overlap_across_workers() {
        let pool = JobPool::new(2);
        let gate = Arc::new(Barrier::new(2));
        let slow_done = Arc::new(AtomicUsize::new(0));
        let slow = {
            let (gate, slow_done) = (Arc::clone(&gate), Arc::clone(&slow_done));
            pool.submit(move || {
                gate.wait(); // parks until the fast job has finished
                slow_done.fetch_add(1, Ordering::SeqCst);
                "slow"
            })
        };
        let fast = pool.submit(|| "fast");
        // The fast job completes while the slow one is parked at the
        // barrier — queue order does not serialize across workers.
        assert_eq!(fast.join(), "fast");
        assert_eq!(slow_done.load(Ordering::SeqCst), 0, "slow job still parked");
        gate.wait();
        assert_eq!(slow.join(), "slow");
        assert_eq!(slow_done.load(Ordering::SeqCst), 1);
    }
}
