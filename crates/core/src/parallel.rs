//! Corpus-scoring parallelism: a persistent worker pool fed over a channel.
//!
//! Earlier revisions spawned fresh threads per call via `std::thread::scope`;
//! scoring a corpus image-by-image then paid thread creation per batch. The
//! [`WorkerPool`] here keeps its threads alive for the process lifetime and
//! feeds them closures through an MPSC channel, so repeated fan-outs reuse
//! the same workers. Both fan-outs — [`parallel_map_indices`] over a
//! resident corpus and the windowed driver behind
//! [`DetectionEngine::score_stream`](crate::DetectionEngine::score_stream) —
//! stand on one scoped fork-join, `WorkerPool::join`. A job running on a
//! worker can also lend work to an idle worker of its own pool (`idle_peer`):
//! that is how a single-image pass runs its two branches on two cores.

use std::cell::OnceCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, Once, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A unit of work executed on a pool thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The sending end of a pool's job queue, shared by the pool and its
/// workers; `None` once the pool is shut down.
type Queue = Arc<Mutex<Option<mpsc::Sender<Job>>>>;

thread_local! {
    /// The pool this thread works for: set when a pool worker starts, unset
    /// on every other thread.
    static HOME: OnceCell<Home> = const { OnceCell::new() };
}

/// A worker's handle on its own pool: the queue it takes jobs from and
/// the count of the pool's workers blocked waiting for one.
#[derive(Debug, Clone)]
pub(crate) struct Home {
    queue: Queue,
    waiting: Arc<AtomicUsize>,
}

/// The pool this thread works for, when this thread is one of its workers
/// and another of its workers is blocked waiting for a job right now.
///
/// The answer can be stale by the time work is handed over: a job queued
/// since (a newly admitted connection, say) may take that worker first.
/// [`Home::join`] does not wait on a helper no worker has started, so a
/// lost race costs nothing but the parallelism.
pub(crate) fn idle_peer() -> Option<Home> {
    HOME.with(|home| home.get().filter(|home| home.waiting.load(Ordering::SeqCst) > 0).cloned())
}

impl Home {
    /// [`WorkerPool::join`] with one helper on this thread's own pool:
    /// runs `caller` here while a worker runs `helper`, and returns both
    /// results once both are done. If no worker has started `helper` by
    /// the time `caller` returns, `helper` runs here, after `caller`.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of `caller`, else of `helper`, after both have
    /// finished.
    pub(crate) fn join<H: Send, R>(
        &self,
        helper: impl Fn() -> H + Sync,
        caller: impl FnOnce() -> R,
    ) -> (R, H) {
        let (mine, mut theirs) = fork_join(&self.queue, 1, helper, caller);
        (mine, theirs.pop().expect("one helper, one result"))
    }
}

/// A fixed-size pool of long-lived worker threads.
///
/// Jobs are submitted over a shared channel; idle workers block on it.
/// A scoped fork-join sits on top: the caller thread participates in the
/// work and blocks until every helper a worker has started has finished,
/// so borrowed closures are safe to run on the pool (see the safety note
/// in the implementation). [`WorkerPool::map_indices`] is that join over
/// an index range.
///
/// # Example
///
/// ```
/// use decamouflage_core::parallel::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let doubled = pool.map_indices(5, 3, |i| i * 2);
/// assert_eq!(doubled, vec![0, 2, 4, 6, 8]);
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    sender: Queue,
    /// Workers blocked waiting for a job.
    waiting: Arc<AtomicUsize>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns a pool with up to `workers` threads (tries at least one).
    ///
    /// Spawn failures (thread exhaustion) are not fatal: the pool keeps
    /// whatever threads did start — possibly none, in which case
    /// [`WorkerPool::map_indices`] simply runs everything on the caller.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let home = Home { queue: Arc::new(Mutex::new(Some(sender))), waiting: Arc::default() };
        let handles: Vec<JoinHandle<()>> = (0..workers)
            .filter_map(|index| {
                let receiver = Arc::clone(&receiver);
                let home = home.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("decam-worker-{index}"))
                    .spawn(move || {
                        let waiting = Arc::clone(&home.waiting);
                        HOME.with(|cell| cell.set(home).expect("a new thread has no pool"));
                        loop {
                            // The guard is a temporary: the lock is released
                            // as soon as `recv` returns, before the job runs.
                            // A poisoned receiver lock only means another
                            // worker panicked *between* jobs; the queue
                            // itself is fine.
                            waiting.fetch_add(1, Ordering::SeqCst);
                            let job =
                                receiver.lock().unwrap_or_else(PoisonError::into_inner).recv();
                            waiting.fetch_sub(1, Ordering::SeqCst);
                            match job {
                                // A panicking job must not take the worker
                                // down: a fork-join re-raises the payload on
                                // the caller side instead. Recovered panics
                                // are counted (the lookup only runs on this
                                // cold path).
                                Ok(job) => {
                                    if catch_unwind(AssertUnwindSafe(job)).is_err() {
                                        decamouflage_telemetry::global()
                                            .counter("decam_pool_panics_recovered_total", &[])
                                            .inc();
                                    }
                                }
                                Err(_) => break,
                            }
                        }
                    });
                match spawned {
                    Ok(handle) => Some(handle),
                    Err(err) => {
                        decamouflage_telemetry::global()
                            .counter("decam_pool_spawn_failures_total", &[])
                            .inc();
                        eprintln!(
                            "decamouflage: could not spawn pool worker {index}: {err}; \
                             continuing with fewer threads"
                        );
                        None
                    }
                }
            })
            .collect();
        let workers = handles.len();
        Self { sender: home.queue, waiting: home.waiting, handles, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Workers blocked waiting for a job right now.
    pub fn idle_workers(&self) -> usize {
        self.waiting.load(Ordering::SeqCst)
    }

    /// The process-wide pool used by [`parallel_map_indices`], sized by
    /// [`default_threads`] on first use.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::new(default_threads()))
    }

    /// Fire-and-forget: hands `job` to a pool worker. The job runs exactly
    /// once — on a worker normally, or inline on the calling thread when the
    /// pool is shut down or every worker is gone (same fallback as the
    /// fork-join path). Panics inside the job are recovered by the worker
    /// loop and counted in `decam_pool_panics_recovered_total`; they never
    /// take a worker down. There is no completion signal — callers that need
    /// one should close over a channel or atomic.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        if let Err(job) = try_submit(&self.sender, Box::new(job)) {
            count_inline_fallback();
            job();
        }
    }

    /// The one fork-join: runs `caller` on this thread while up to
    /// `helpers` pool workers each run `helper` once, and returns
    /// `caller`'s result with every helper's result once all of them have
    /// finished. Both closures may borrow from the caller's stack.
    ///
    /// A helper no worker has started by the time `caller` returns is
    /// claimed back and runs on this thread, after `caller`; so is one the
    /// pool cannot take (pool shut down, all workers gone). The join
    /// therefore never waits on a queued job — only on helpers already
    /// running — and with no helper at all `caller` simply runs inline:
    /// the caller must do any share the helpers leave. A claimed-back
    /// helper stays in the queue; the worker that pops it later finds it
    /// claimed and runs nothing.
    ///
    /// `caller` must make every helper return: a helper that waits for
    /// work from `caller` must be released on every exit path of
    /// `caller`, unwinding included, or the join never ends.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of `caller`, else the first panic of a helper,
    /// after every helper has finished.
    pub(crate) fn join<H, R>(
        &self,
        helpers: usize,
        helper: impl Fn() -> H + Sync,
        caller: impl FnOnce() -> R,
    ) -> (R, Vec<H>)
    where
        H: Send,
    {
        let helpers = helpers.min(self.workers);
        if helpers == 0 {
            return (caller(), Vec::new());
        }
        decamouflage_telemetry::global().gauge("decam_pool_workers", &[]).set(self.workers as f64);
        fork_join(&self.sender, helpers, helper, caller)
    }

    /// Maps `f` over `0..n` using the caller plus up to `threads - 1` pool
    /// workers, preserving index order in the output. Work is distributed
    /// dynamically (atomic cursor), so uneven per-item costs balance out.
    ///
    /// With `threads <= 1` or `n <= 1` the map runs inline on the caller.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `f` after all participants have
    /// finished.
    pub fn map_indices<T, F>(&self, n: usize, threads: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let helpers = threads.saturating_sub(1).min(n.saturating_sub(1));
        if helpers == 0 {
            return (0..n).map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let drain = || {
            let mut local: Vec<(usize, T)> = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                local.push((i, f(i)));
            }
            local
        };
        let (mine, theirs) = self.join(helpers, drain, drain);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, value) in mine.into_iter().chain(theirs.into_iter().flatten()) {
            slots[i] = Some(value);
        }
        slots.into_iter().map(|slot| slot.expect("every index visited exactly once")).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the channel so the workers' recv loops end, then join.
        drop(self.sender.lock().unwrap_or_else(PoisonError::into_inner).take());
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Queues a job for `queue`'s workers, or hands it back when none can take
/// it (pool shut down, all workers gone).
fn try_submit(queue: &Mutex<Option<mpsc::Sender<Job>>>, job: Job) -> Result<(), Job> {
    // With telemetry enabled, the job is wrapped to keep the queue
    // depth gauge and executed-jobs counter accurate; disabled, the
    // job goes through untouched (no allocation, no clock).
    let telemetry = decamouflage_telemetry::global();
    let job: Job = if telemetry.is_enabled() {
        let depth = telemetry.gauge("decam_pool_queue_depth", &[]);
        let executed = telemetry.counter("decam_pool_jobs_total", &[]);
        depth.inc();
        Box::new(move || {
            depth.dec();
            executed.inc();
            job();
        })
    } else {
        job
    };
    let guard = queue.lock().unwrap_or_else(PoisonError::into_inner);
    match guard.as_ref() {
        Some(sender) => sender.send(job).map_err(|send_error| send_error.0),
        None => Err(job),
    }
}

/// Counts a job no worker could take, which then runs on the calling
/// thread.
fn count_inline_fallback() {
    decamouflage_telemetry::global().counter("decam_pool_inline_fallback_total", &[]).inc();
}

/// A fork-join helper lent to a worker as a raw pointer, so that a job a
/// worker pops after its join has returned holds no reference into the
/// join's frame.
struct Borrowed<F>(*const F);

// SAFETY: the pointer is only ever read as `&F`, and `F: Sync`.
#[allow(unsafe_code)]
unsafe impl<F: Sync> Send for Borrowed<F> {}

impl<F> Borrowed<F> {
    /// The pointer. A method, so that a closure reading it captures the
    /// whole `Send` wrapper rather than the bare pointer field.
    fn get(&self) -> *const F {
        self.0
    }
}

/// The fork-join behind [`WorkerPool::join`] and [`Home::join`]: `helpers`
/// jobs on `queue`'s workers, each claimed by whoever starts it first — a
/// worker, or this thread once `caller` has returned.
fn fork_join<F, H, R>(
    queue: &Mutex<Option<mpsc::Sender<Job>>>,
    helpers: usize,
    helper: F,
    caller: impl FnOnce() -> R,
) -> (R, Vec<H>)
where
    F: Fn() -> H + Sync,
    H: Send,
{
    let (tx, rx) = mpsc::channel::<std::thread::Result<H>>();
    let claims: Vec<Arc<AtomicBool>> = (0..helpers)
        .map(|_| {
            let claim = Arc::new(AtomicBool::new(false));
            let (won, tx, borrowed) = (Arc::clone(&claim), tx.clone(), Borrowed(&helper));
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                if won.swap(true, Ordering::AcqRel) {
                    // Claimed back: `join` may be gone, so touch nothing
                    // borrowed.
                    return;
                }
                // SAFETY: this job won its claim, so `join` is waiting for
                // its result and `helper` is alive.
                #[allow(unsafe_code)]
                let helper = unsafe { &*borrowed.get() };
                let _ = tx.send(catch_unwind(AssertUnwindSafe(helper)));
            });
            // SAFETY: the job reaches `helper` in this stack frame, which
            // the type system cannot tie to the 'static-job channel. It
            // reads the pointer only after winning its claim, and `join`
            // returns or unwinds only after every claim is settled: each
            // job `join` claims back runs `helper` here instead, and each
            // job a worker won has sent its result, which `join` receives
            // — the job's final use of borrowed state. A job that a worker
            // pops after `join` has returned finds its claim taken and
            // touches nothing borrowed: its captures are an `Arc` flag, a
            // pointer it never reads and an owned `Sender`, whose channel
            // holds no message because `join` received every result sent.
            // Every panic on the way is caught before it can skip the
            // wait: a panic in a helper (a streamed slot's work, say) by
            // its `catch_unwind`, and a panic in `caller` (a source pull, a
            // slot it scores itself, the stream's `consume`) by the
            // `catch_unwind` below, which holds it until the join is over.
            #[allow(unsafe_code)]
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            // A job no worker can take stays unclaimed: this thread runs
            // its helper after `caller`.
            if try_submit(queue, job).is_err() {
                count_inline_fallback();
            }
            claim
        })
        .collect();
    drop(tx);

    let mine = catch_unwind(AssertUnwindSafe(caller));
    // Claimed back after `caller`, a helper finds its work taken: a drained
    // index range, or a stream window `caller` has closed.
    let mut results = Vec::with_capacity(helpers);
    let mut started = 0;
    for claim in &claims {
        if claim.swap(true, Ordering::AcqRel) {
            started += 1;
        } else {
            results.push(catch_unwind(AssertUnwindSafe(&helper)));
        }
    }
    results.extend(rx.iter().take(started));
    let mut outputs = Vec::with_capacity(helpers);
    let mut helper_panic = None;
    for result in results {
        match result {
            Ok(output) => outputs.push(output),
            Err(payload) => {
                helper_panic.get_or_insert(payload);
            }
        }
    }
    match (mine, helper_panic) {
        (Err(payload), _) | (Ok(_), Some(payload)) => resume_unwind(payload),
        (Ok(mine), None) => (mine, outputs),
    }
}

/// Maps `f` over `0..n` on the [global pool](WorkerPool::global) using up to
/// `threads` participants (the caller plus `threads - 1` pool workers),
/// preserving index order in the output.
///
/// With `threads <= 1` or `n <= 1` the map runs inline on the caller's
/// thread.
///
/// # Panics
///
/// Propagates the first panic raised by `f`.
///
/// # Example
///
/// ```
/// use decamouflage_core::parallel::parallel_map_indices;
///
/// let squares = parallel_map_indices(5, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn parallel_map_indices<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    WorkerPool::global().map_indices(n, threads, f)
}

/// A sensible default worker count: the `DECAM_THREADS` environment variable
/// when set, clamped to `[1, 512]`, otherwise the machine's available
/// parallelism capped at 16.
///
/// An out-of-range value is clamped with a warning on stderr naming the
/// offending value; an unparseable value is ignored the same way. A typo'd
/// deployment knob must never take the screening service down.
pub fn default_threads() -> usize {
    match thread_override(std::env::var("DECAM_THREADS").ok().as_deref()) {
        Some(n) => n,
        None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16),
    }
}

/// Highest thread count `DECAM_THREADS` may request.
const MAX_THREAD_OVERRIDE: usize = 512;

/// Reports one bad `DECAM_THREADS` value: stderr gets the message **once
/// per process per warning kind** (pool construction happens repeatedly;
/// repeating an identical configuration warning is noise), while the
/// `decam_threads_warnings_total{kind=...}` counter records every
/// occurrence for operators who never see stderr.
fn warn_threads(once: &'static Once, kind: &'static str, message: impl FnOnce() -> String) {
    decamouflage_telemetry::global()
        .counter("decam_threads_warnings_total", &[("kind", kind)])
        .inc();
    once.call_once(|| eprintln!("decamouflage: {}", message()));
}

/// Parses a `DECAM_THREADS`-style override, clamping to
/// `[1, MAX_THREAD_OVERRIDE]` and warning (with the bad value) on anything
/// clamped or unparseable.
fn thread_override(raw: Option<&str>) -> Option<usize> {
    static WARNED_ZERO: Once = Once::new();
    static WARNED_CAP: Once = Once::new();
    static WARNED_UNPARSEABLE: Once = Once::new();
    let raw = raw?.trim();
    match raw.parse::<usize>() {
        Ok(0) => {
            warn_threads(&WARNED_ZERO, "zero", || {
                "DECAM_THREADS=0 is invalid; clamping to 1".into()
            });
            Some(1)
        }
        Ok(n) if n > MAX_THREAD_OVERRIDE => {
            warn_threads(&WARNED_CAP, "over-cap", || {
                format!(
                    "DECAM_THREADS={n} exceeds the {MAX_THREAD_OVERRIDE}-thread \
                     cap; clamping to {MAX_THREAD_OVERRIDE}"
                )
            });
            Some(MAX_THREAD_OVERRIDE)
        }
        Ok(n) => Some(n),
        Err(_) => {
            warn_threads(&WARNED_UNPARSEABLE, "unparseable", || {
                format!(
                    "ignoring unparseable DECAM_THREADS value {raw:?}; \
                     using auto-detected parallelism"
                )
            });
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn preserves_order() {
        let out = parallel_map_indices(100, 8, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<usize> = parallel_map_indices(0, 8, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_runs_inline() {
        let out = parallel_map_indices(10, 1, |i| i + 1);
        assert_eq!(out.len(), 10);
        assert_eq!(out[9], 10);
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map_indices(3, 64, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn uneven_workloads_balance() {
        // Items with wildly different costs still land in order.
        let out = parallel_map_indices(20, 4, |i| {
            if i % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn pool_threads_persist_across_calls() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        let first: HashSet<_> = pool
            .map_indices(64, 3, |_| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                std::thread::current().id()
            })
            .into_iter()
            .collect();
        let second: HashSet<_> = pool
            .map_indices(64, 3, |_| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                std::thread::current().id()
            })
            .into_iter()
            .collect();
        // The same long-lived workers serve both calls: every thread that
        // participated beyond the caller in the second call already existed
        // during the first.
        assert!(second.is_subset(&first), "pool spawned new threads between calls");
    }

    #[test]
    fn pool_runs_work_off_the_caller_thread() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let ids: HashSet<_> = pool
            .map_indices(128, 2, |_| {
                std::thread::sleep(std::time::Duration::from_micros(100));
                std::thread::current().id()
            })
            .into_iter()
            .collect();
        assert!(ids.len() >= 2 || !ids.contains(&caller), "no pool worker participated");
    }

    #[test]
    fn pool_survives_a_panicking_job_and_reraises_it() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_indices(16, 4, |i| {
                if i == 7 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // The pool is still functional afterwards.
        assert_eq!(pool.map_indices(4, 4, |i| i + 1), vec![1, 2, 3, 4]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        if std::env::var("DECAM_THREADS").is_err() {
            assert!(default_threads() <= 16);
        }
    }

    #[test]
    fn thread_override_parsing() {
        assert_eq!(thread_override(None), None);
        assert_eq!(thread_override(Some("8")), Some(8));
        assert_eq!(thread_override(Some(" 3 ")), Some(3));
        assert_eq!(thread_override(Some("512")), Some(512));
    }

    #[test]
    fn thread_override_clamps_out_of_range_values() {
        assert_eq!(thread_override(Some("0")), Some(1), "zero clamps up to one thread");
        assert_eq!(thread_override(Some("513")), Some(MAX_THREAD_OVERRIDE));
        assert_eq!(thread_override(Some("99999")), Some(MAX_THREAD_OVERRIDE));
    }

    #[test]
    fn thread_override_ignores_garbage() {
        // Unparseable values fall back to auto-detection instead of failing.
        assert_eq!(thread_override(Some("abc")), None);
        assert_eq!(thread_override(Some("")), None);
        assert_eq!(thread_override(Some("-2")), None);
        assert_eq!(thread_override(Some("4.5")), None);
    }

    #[test]
    fn jobs_run_inline_when_the_pool_is_shut_down() {
        use std::sync::atomic::AtomicBool;
        let pool = WorkerPool::new(1);
        // Simulate a shut-down pool: the sender is gone, as in Drop.
        drop(pool.sender.lock().unwrap().take());
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        pool.spawn(move || flag.store(true, Ordering::SeqCst));
        assert!(ran.load(Ordering::SeqCst), "orphaned jobs must run on the caller");
        // A fork-join's helpers run on the caller after its own share, so a
        // helper that waits for the caller to finish cannot deadlock.
        assert_eq!(pool.map_indices(4, 3, |i| i * 2), vec![0, 2, 4, 6]);
        let finished = AtomicBool::new(false);
        let ((), helpers) = pool.join(
            2,
            || finished.load(Ordering::SeqCst),
            || finished.store(true, Ordering::SeqCst),
        );
        assert_eq!(helpers, [true], "one worker, one helper, run after the caller");
    }

    /// A join never waits on a helper no worker has started: with the only
    /// worker held busy, the caller runs the helper itself and the join
    /// returns before the worker is released. The worker then pops the
    /// claimed job and runs nothing.
    #[test]
    fn join_claims_back_a_helper_no_worker_has_started() {
        use std::sync::atomic::AtomicBool;
        use std::time::Duration;
        let pool = Arc::new(WorkerPool::new(1));
        let (busy, holding) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        pool.spawn(move || {
            busy.send(()).unwrap();
            let _ = released.recv_timeout(Duration::from_secs(30));
        });
        holding.recv_timeout(Duration::from_secs(10)).expect("the worker took the blocker");
        assert_eq!(pool.idle_workers(), 0);

        // Joined on a thread of its own, so that a join that waited for the
        // held worker fails this test instead of hanging it.
        let helper_runs = Arc::new(AtomicUsize::new(0));
        let (joined, join_result) = mpsc::channel();
        let joiner = {
            let (pool, helper_runs) = (Arc::clone(&pool), Arc::clone(&helper_runs));
            std::thread::spawn(move || {
                let caller_ran = AtomicBool::new(false);
                let outcome = pool.join(
                    1,
                    || {
                        helper_runs.fetch_add(1, Ordering::SeqCst);
                        (std::thread::current().id(), caller_ran.load(Ordering::SeqCst))
                    },
                    || {
                        caller_ran.store(true, Ordering::SeqCst);
                        std::thread::current().id()
                    },
                );
                joined.send(outcome).unwrap();
            })
        };
        let (caller, helpers) = join_result
            .recv_timeout(Duration::from_secs(10))
            .expect("the join waited on a helper no worker had started");
        assert_eq!(helpers, [(caller, true)], "the caller ran the helper, after its own share");
        release.send(()).unwrap();
        joiner.join().unwrap();

        // The freed worker pops the claimed job before the next one.
        let (after, popped) = mpsc::channel();
        pool.spawn(move || after.send(()).unwrap());
        popped.recv_timeout(Duration::from_secs(10)).expect("the worker is free again");
        assert_eq!(helper_runs.load(Ordering::SeqCst), 1, "a claimed helper runs once");
    }

    #[test]
    fn spawn_runs_every_job_exactly_once() {
        let pool = WorkerPool::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = mpsc::channel();
        for _ in 0..16 {
            let hits = Arc::clone(&hits);
            let done = done_tx.clone();
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
                let _ = done.send(());
            });
        }
        for _ in 0..16 {
            done_rx.recv_timeout(std::time::Duration::from_secs(10)).expect("job completion");
        }
        assert_eq!(hits.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn spawn_survives_a_panicking_job() {
        let pool = WorkerPool::new(1);
        pool.spawn(|| panic!("injected"));
        let (done_tx, done_rx) = mpsc::channel();
        pool.spawn(move || {
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("worker survives a recovered panic");
    }
}
