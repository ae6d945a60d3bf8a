//! Streaming corpus sources: bounded-memory image pipelines.
//!
//! Every pre-existing corpus entry point materialised the whole corpus as
//! a `Vec<Image>` before the first score was computed, so peak memory grew
//! linearly with corpus size. The scaling-attack literature frames
//! detection as a *screening* step in front of a CNN serving pipeline —
//! an unbounded stream of untrusted uploads — which is exactly the shape
//! this module serves:
//!
//! * [`ImageSource`] — a pull-based, fallible iterator of [`Pulled`]
//!   items with an optional length hint. An item is either pixels the
//!   source already holds or the encoded bytes of a file or request
//!   frame. Adapters exist for in-memory slices ([`SliceSource`]),
//!   index-driven generators ([`FnSource`]) and directory walks
//!   ([`DirectorySource`] — the single home of the CLI's previously
//!   duplicated listing logic), whose pulls only read the file.
//! * [`ImageDecoder`] — the one decode path for encoded bytes, shared by
//!   [`DirectorySource`] and the service's request bodies: sniff, decode
//!   into pooled buffers, map codec errors onto the quarantine taxonomy,
//!   and record the decode telemetry.
//! * [`BufferPool`] — a small bounded store of recycled sample buffers.
//!   Decoders and sources draw construction buffers from it and the
//!   scoring workers return each image's buffers right after scoring it,
//!   killing steady-state allocation once the pool is warm.
//! * The windowed driver (crate-private; its only user is
//!   [`DetectionEngine::score_stream`](crate::DetectionEngine::score_stream))
//!   keeps the pulled but unconsumed positions of one chunk in a window.
//!   The caller thread pulls; it and `threads - 1` worker-pool helpers
//!   claim positions in index order; a reorder buffer hands the results
//!   to `consume` in stream order as soon as every earlier position is
//!   done, and the caller refills the window as it drains. The first
//!   verdict follows the first position, not the first chunk.
//!
//! Decoding runs in the slot: the participant that scores a position
//! decodes its bytes first, inside the slot's panic boundary, takes the
//! planes from the stream's pool (shared behind a lock held only for one
//! `take` or `recycle`) and recycles them as soon as the scores are
//! out. So a byte source keeps at most `threads` decoded images resident,
//! plus the `pool_capacity` recycled buffers, plus one window of encoded
//! bytes — regardless of corpus length. Pixel sources ([`SliceSource`],
//! [`FnSource`]) hold up to one window of images, as their items are
//! images already.
//!
//! Items are pulled on the caller thread (sources are `&mut`, not
//! `Sync`); a panic inside a pull is caught immediately and converted to
//! the same [`ScoreError::panicked`] a worker-side panic would produce,
//! so streamed scoring stays bit-identical to
//! [`DetectionEngine::score_images`](crate::DetectionEngine::score_images),
//! which `stream_equivalence` proves property-wise.
//!
//! The chunk bounds the window and sets the checkpoint cadence of
//! [`scan_shard`](crate::scan_shard), which snapshots the telemetry
//! registry every `chunk_size` consumed positions. The window never
//! crosses a chunk boundary: a chunk's first position is pulled only once
//! every earlier position is consumed. So nothing past the boundary has
//! run when `consume` sees a chunk's last position, each such snapshot
//! counts exactly the consumed positions, and a resumed scan counts
//! nothing twice. Inside a chunk nothing waits: positions are consumed
//! one by one as they finish in order.
//!
//! Telemetry (all resolved once at driver, decoder or pool construction):
//! `decam_stream_chunks_total`, `decam_stream_in_flight_images`,
//! `decam_stream_peak_chunk`, the buffer-pool
//! `decam_stream_buffer_pool_{hits,misses}_total` counters, and the
//! decoder's `decam_codec_decode_total{format, outcome}` and
//! `decam_engine_stage_seconds{stage="decode"}`.

use crate::error::{ScoreError, ScoreFault};
use crate::parallel::{default_threads, WorkerPool};
use crate::DetectError;
use decamouflage_imaging::codec::{decode_auto_into, sniff, ImageFormat, SampleAlloc};
use decamouflage_imaging::{Image, ImagingError};
use decamouflage_telemetry::{Counter, Gauge, HistogramHandle, Telemetry};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One pulled stream position, before decoding.
#[derive(Debug)]
pub enum Pulled {
    /// Pixels the source already holds (slices, generators).
    Image(Image),
    /// The encoded bytes of a file or request frame, decoded by the
    /// worker that scores the position.
    Encoded {
        /// The encoded image file.
        bytes: Vec<u8>,
        /// The file the bytes were read from; decode faults name it.
        origin: Option<PathBuf>,
        /// The decode path, recording on the telemetry of the source that
        /// pulled the bytes.
        decoder: Arc<ImageDecoder>,
    },
}

impl Pulled {
    /// The position's pixels: a held image as it is, encoded bytes
    /// decoded through their [`ImageDecoder`] into sample buffers from
    /// `alloc` (streaming callers pass `&mut |n| pool.take(n)`).
    ///
    /// # Errors
    ///
    /// The decode fault — [`ScoreFault::UnsupportedFormat`] or
    /// [`ScoreFault::Unreadable`] — at index `0`.
    pub fn into_image(self, alloc: SampleAlloc<'_>) -> Result<Image, ScoreError> {
        match self {
            Self::Image(image) => Ok(image),
            Self::Encoded { bytes, origin, decoder } => {
                decoder.decode(&bytes, origin.as_deref(), alloc).map_err(ScoreError::new)
            }
        }
    }
}

/// One pulled stream item: the position's [`Pulled`] pixels or bytes, or
/// the structured error that explains why this position of the stream
/// could not produce either.
pub type SourceItem = Result<Pulled, ScoreError>;

/// A pull-based stream of images.
///
/// `next_image` returns `None` when the stream is exhausted; before that,
/// every call yields either a [`Pulled`] item — an image, or the encoded
/// bytes of one that the scoring worker decodes — or a [`ScoreError`]
/// describing why this *position* failed (an unreadable file, a failed
/// synthesis, …). Failed positions still consume a stream index, so
/// consumers can account for them precisely.
///
/// Sources may draw construction buffers from `alloc` — a streamed run
/// passes the stream's [`BufferPool`], locked for each take only;
/// sources that yield encoded bytes simply ignore it (their decode draws
/// from the pool on the worker).
pub trait ImageSource {
    /// Pulls the next item, or `None` at end of stream.
    fn next_image(&mut self, alloc: SampleAlloc<'_>) -> Option<SourceItem>;

    /// Number of items remaining, where the source knows it. Unbounded or
    /// unknown-length sources return `None`.
    fn len_hint(&self) -> Option<usize> {
        None
    }
}

/// A small bounded store of recycled `f64` sample buffers.
///
/// [`take`](BufferPool::take) pops a warm buffer (resized to the
/// requested sample count) or allocates on a miss;
/// [`recycle`](BufferPool::recycle) returns an image's buffer if the pool
/// is below capacity and drops it otherwise, so the pool can never grow
/// past `capacity` buffers. Hits and misses are counted on
/// `decam_stream_buffer_pool_hits_total` /
/// `decam_stream_buffer_pool_misses_total`.
#[derive(Debug)]
pub struct BufferPool {
    buffers: Vec<Vec<f64>>,
    capacity: usize,
    hits: Counter,
    misses: Counter,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` recycled buffers,
    /// counting hits/misses on the process-global telemetry handle.
    pub fn new(capacity: usize) -> Self {
        Self::with_telemetry(capacity, &decamouflage_telemetry::global())
    }

    /// Creates a pool recording its hit/miss counters on `telemetry`.
    pub fn with_telemetry(capacity: usize, telemetry: &Telemetry) -> Self {
        Self {
            buffers: Vec::with_capacity(capacity.min(64)),
            capacity,
            hits: telemetry.counter("decam_stream_buffer_pool_hits_total", &[]),
            misses: telemetry.counter("decam_stream_buffer_pool_misses_total", &[]),
        }
    }

    /// A buffer of exactly `samples` zeroed-or-stale `f64`s — recycled
    /// when the pool has one, freshly allocated otherwise. Callers
    /// overwrite every sample, so stale contents are fine.
    pub fn take(&mut self, samples: usize) -> Vec<f64> {
        match self.buffers.pop() {
            Some(mut buffer) => {
                self.hits.inc();
                buffer.resize(samples, 0.0);
                buffer
            }
            None => {
                self.misses.inc();
                vec![0.0; samples]
            }
        }
    }

    /// Returns an image's plane buffers to the pool; planes past the
    /// capacity are dropped. Each plane is recycled individually, so a
    /// retired RGB image can later serve three Gray decodes (or one RGB
    /// decode requesting three planes).
    pub fn recycle(&mut self, image: Image) {
        for plane in image.into_planes() {
            if self.buffers.len() >= self.capacity {
                break;
            }
            self.buffers.push(plane);
        }
    }

    /// Number of buffers currently pooled.
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// Whether the pool holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// Maximum number of buffers the pool retains.
    pub const fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The driver's [`BufferPool`], shared with the scoring workers behind a
/// lock held only for one [`take`](SharedPool::take) or
/// [`recycle`](SharedPool::recycle).
#[derive(Debug)]
pub(crate) struct SharedPool(Mutex<BufferPool>);

impl SharedPool {
    fn lock(&self) -> MutexGuard<'_, BufferPool> {
        // Neither pool operation can leave the pool inconsistent, so a
        // panic elsewhere while the lock was held does not matter.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`BufferPool::take`] under the lock.
    pub fn take(&self, samples: usize) -> Vec<f64> {
        self.lock().take(samples)
    }

    /// [`BufferPool::recycle`] under the lock.
    pub fn recycle(&self, image: Image) {
        self.lock().recycle(image);
    }
}

/// A cooperative cancellation/deadline token for streamed scoring.
///
/// The token is the deadline hook of the service path: a request handler
/// arms one with its per-request deadline
/// ([`CancelToken::expiring_in`]) and passes it through
/// [`StreamConfig::with_cancel`]; `score_stream` then checks it
/// **between pipeline stages** — before every pull — and stops pulling
/// once it has expired. Pulled positions always finish (a slot is
/// quarantined or scored and consumed, never leaked mid-computation);
/// only *new* work is refused, and [`StreamSummary::cancelled`] reports
/// that the stream ended early.
///
/// Clones share the cancellation flag, so [`CancelToken::cancel`] from
/// any thread (e.g. a drain sequence) trips every holder. The deadline is
/// per-token state fixed at construction.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline; it only expires via
    /// [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that expires at the absolute `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self { cancelled: Arc::new(AtomicBool::new(false)), deadline: Some(deadline) }
    }

    /// A token that expires `timeout` from now.
    pub fn expiring_in(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// Trips the token immediately; every clone observes it.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether the token was cancelled or its deadline has passed.
    pub fn is_expired(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
            || self.deadline.is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// Time left before the deadline: `None` without one, zero once past.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()))
    }

    /// The absolute deadline, where one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// Windowing parameters for streamed scoring.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// The most positions pulled and not yet consumed at once — the
    /// bounded-memory knob — and the checkpoint cadence of
    /// [`scan_shard`](crate::scan_shard). Positions are consumed one by
    /// one as they finish in order; only the pulls wait at a chunk
    /// boundary, for the chunk's last position to be consumed.
    pub chunk_size: usize,
    /// Participants scoring the window: the calling thread plus
    /// `threads - 1` worker-pool helpers. With one, no position is pulled
    /// before the previous one is consumed.
    pub threads: usize,
    /// Maximum recycled buffers kept by the driver's [`BufferPool`].
    pub pool_capacity: usize,
    /// Cooperative deadline/cancellation checked between stages; `None`
    /// streams to exhaustion.
    pub cancel: Option<CancelToken>,
}

impl Default for StreamConfig {
    /// 64-image chunks, [`default_threads`] workers, an 8-buffer pool,
    /// no deadline.
    fn default() -> Self {
        Self { chunk_size: 64, threads: default_threads(), pool_capacity: 8, cancel: None }
    }
}

impl StreamConfig {
    /// Builder: overrides the chunk size (clamped to at least 1).
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Builder: overrides the participant count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder: overrides the buffer-pool capacity (0 disables recycling).
    #[must_use]
    pub fn with_pool_capacity(mut self, pool_capacity: usize) -> Self {
        self.pool_capacity = pool_capacity;
        self
    }

    /// Builder: arms a cooperative [`CancelToken`] checked between
    /// pipeline stages (before every pull).
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

/// Aggregate result of one streamed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamSummary {
    /// Total stream items pulled (scored + failed positions).
    pub items: usize,
    /// Chunks started: runs of `chunk_size` consecutive positions, the
    /// units of the checkpoint cadence (`ceil(items / chunk_size)`).
    pub chunks: usize,
    /// Positions in the largest chunk — the bound on pulled items
    /// (encoded bytes or images) resident at once, never above
    /// `chunk_size`.
    pub peak_chunk: usize,
    /// Whether the stream stopped early because its
    /// [`CancelToken`] expired (deadline passed or explicit cancel);
    /// positions after the cut were never pulled.
    pub cancelled: bool,
}

/// Pre-resolved telemetry handles for the streaming path (the
/// `EngineMetrics` pattern: resolve `(name, labels)` once, keep the hot
/// loop free of registry lookups).
#[derive(Debug)]
struct StreamMetrics {
    /// `decam_stream_chunks_total`: chunks started.
    chunks_total: Counter,
    /// `decam_stream_in_flight_images`: pulled items currently held by
    /// the driver (pulled but not yet consumed).
    in_flight: Gauge,
    /// `decam_stream_peak_chunk`: positions in the largest chunk so far.
    peak_chunk: Gauge,
    /// `decam_stream_cancelled_total`: streams that stopped early on an
    /// expired [`CancelToken`].
    cancelled_total: Counter,
}

impl StreamMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        Self {
            chunks_total: telemetry.counter("decam_stream_chunks_total", &[]),
            in_flight: telemetry.gauge("decam_stream_in_flight_images", &[]),
            peak_chunk: telemetry.gauge("decam_stream_peak_chunk", &[]),
            cancelled_total: telemetry.counter("decam_stream_cancelled_total", &[]),
        }
    }
}

/// One window slot, from pull to consume.
enum Slot<T> {
    /// Pulled, waiting for a participant to claim it.
    Pulled(SourceItem),
    /// Claimed; a participant is working on it.
    Claimed,
    /// Worked, waiting for every earlier slot to be consumed.
    Done(T),
}

/// The window of pulled but not yet consumed slots — the reorder buffer
/// between the participants, which finish slots in any order, and
/// `consume`, which sees them in stream order.
struct Window<T> {
    /// Slots `base..base + slots.len()`.
    slots: VecDeque<Slot<T>>,
    /// The stream index of `slots[0]`: the next index to consume.
    base: usize,
    /// The stream index of the first slot nobody has claimed.
    unclaimed: usize,
    /// Set when the caller hands out no more work — the stream drained,
    /// `consume` broke, or a participant panicked. Helpers then return
    /// instead of claiming or waiting.
    closed: bool,
}

impl<T> Window<T> {
    /// Claims the first unclaimed slot, if any.
    fn try_claim(&mut self) -> Option<(usize, SourceItem)> {
        let index = self.unclaimed;
        let slot = self.slots.get_mut(index - self.base)?;
        match std::mem::replace(slot, Slot::Claimed) {
            Slot::Pulled(item) => {
                self.unclaimed += 1;
                Some((index, item))
            }
            Slot::Claimed | Slot::Done(..) => unreachable!("slots are claimed in index order"),
        }
    }
}

/// The window and the two conditions its participants wait on.
struct Shared<T> {
    window: Mutex<Window<T>>,
    /// Helpers wait here for a slot to claim.
    work: Condvar,
    /// The caller waits here for a slot to finish.
    done: Condvar,
}

impl<T> Shared<T> {
    fn new() -> Self {
        Self {
            window: Mutex::new(Window {
                slots: VecDeque::new(),
                base: 0,
                unclaimed: 0,
                closed: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// No participant panics while holding the lock — slot work and
    /// `consume` run outside it — so a poisoned lock still guards a
    /// consistent window.
    fn lock(&self) -> MutexGuard<'_, Window<T>> {
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper's next slot: waits until one is claimable, or returns
    /// `None` once the window is closed.
    fn next_for_helper(&self) -> Option<(usize, SourceItem)> {
        let mut window = self.lock();
        loop {
            if window.closed {
                return None;
            }
            if let Some(claimed) = window.try_claim() {
                return Some(claimed);
            }
            window = self.work.wait(window).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stores a worked slot's result for the caller to consume.
    fn finish(&self, index: usize, result: T) {
        let mut window = self.lock();
        let base = window.base;
        window.slots[index - base] = Slot::Done(result);
        self.done.notify_one();
    }

    /// Takes the front slot if it is done.
    fn pop_done(&self) -> Option<(usize, T)> {
        let mut window = self.lock();
        if !matches!(window.slots.front(), Some(Slot::Done(_))) {
            return None;
        }
        let Some(Slot::Done(result)) = window.slots.pop_front() else {
            unreachable!("the front slot was just seen done")
        };
        window.base += 1;
        Some((window.base - 1, result))
    }

    /// Appends a slot the caller pulled and keeps for itself.
    fn push_claimed(&self) {
        let mut window = self.lock();
        debug_assert_eq!(window.unclaimed, window.base + window.slots.len());
        window.unclaimed += 1;
        window.slots.push_back(Slot::Claimed);
    }

    /// Appends a pulled slot for a helper to claim.
    fn push_pulled(&self, item: SourceItem) {
        self.lock().slots.push_back(Slot::Pulled(item));
        self.work.notify_one();
    }

    /// Blocks until the front slot is done; `false` when the window was
    /// closed instead (a helper panicked).
    fn wait_for_front(&self) -> bool {
        let mut window = self.lock();
        loop {
            if matches!(window.slots.front(), Some(Slot::Done(_))) {
                return true;
            }
            if window.closed {
                return false;
            }
            window = self.done.wait(window).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.work.notify_all();
        self.done.notify_all();
    }
}

/// Closes the window when dropped: on the caller's every exit, unwinding
/// included, so no helper waits for work that will never come, and on a
/// helper's unwind, so the caller never waits for a slot that will never
/// finish.
struct CloseOnDrop<'a, T>(&'a Shared<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The caller's side of the driver: the source and everything counted at
/// pull time.
struct Puller<'a> {
    source: &'a mut dyn ImageSource,
    chunk_size: usize,
    metrics: StreamMetrics,
    cancel: Option<CancelToken>,
    cancelled: bool,
    exhausted: bool,
    pulled: usize,
    chunks: usize,
    peak_chunk: usize,
}

impl Puller<'_> {
    /// The cooperative stage boundary: once the armed [`CancelToken`] has
    /// expired, no further pull starts and the stream ends early with
    /// [`StreamSummary::cancelled`] set. The expiry is latched so the
    /// clock is read at most once per pull and never again after the
    /// first trip.
    fn expired(&mut self) -> bool {
        if !self.cancelled && self.cancel.as_ref().is_some_and(CancelToken::is_expired) {
            self.cancelled = true;
            self.metrics.cancelled_total.inc();
        }
        self.cancelled
    }

    /// Whether a pull may start with `resident` slots pulled and not yet
    /// consumed. The window holds positions of one chunk only, so a
    /// chunk's first position waits until every earlier one is consumed;
    /// that also keeps `resident` within `chunk_size`.
    fn may_pull(&mut self, resident: usize) -> bool {
        (resident == 0 || !self.pulled.is_multiple_of(self.chunk_size))
            && !self.exhausted
            && !self.expired()
    }

    /// Pulls the next position, or `None` at end of stream.
    ///
    /// A panic inside a source pull is caught here, on the caller thread,
    /// and stored as the slot's [`ScoreError::panicked`] — exactly the
    /// error the batch path produces when an image constructor panics
    /// inside a worker, which keeps streamed and batch scoring
    /// bit-identical under faults. The pool is locked for each buffer the
    /// source takes, not for the pull, so a file read or a generator never
    /// stalls a worker's decode or recycle.
    fn pull(&mut self, pool: &SharedPool) -> Option<(usize, SourceItem)> {
        let index = self.pulled;
        let alloc = &mut |samples| pool.take(samples);
        let item = match catch_unwind(AssertUnwindSafe(|| self.source.next_image(alloc))) {
            Ok(None) => {
                self.exhausted = true;
                return None;
            }
            Ok(Some(item)) => item.map_err(|err| err.at_index(index)),
            Err(payload) => Err(ScoreError::panicked(index, payload)),
        };
        let position_in_chunk = index % self.chunk_size;
        if position_in_chunk == 0 {
            self.chunks += 1;
            self.metrics.chunks_total.inc();
        }
        self.peak_chunk = self.peak_chunk.max(position_in_chunk + 1);
        self.metrics.peak_chunk.set(self.peak_chunk as f64);
        self.pulled += 1;
        Some((index, item))
    }

    fn summary(&self) -> StreamSummary {
        StreamSummary {
            items: self.pulled,
            chunks: self.chunks,
            peak_chunk: self.peak_chunk,
            cancelled: self.cancelled,
        }
    }
}

/// The windowed stream driver behind
/// [`DetectionEngine::score_stream`](crate::DetectionEngine::score_stream),
/// generic over the per-slot `work`.
///
/// The caller pulls `source` into a window of the pulled but unconsumed
/// slots of one [`chunk_size`](StreamConfig::chunk_size) chunk. It and
/// `threads - 1` helpers from `workers` claim slots in index order and
/// run `work(index, item, pool)` on each; finished slots wait in the
/// window until every earlier one is done. Between its own slots the
/// caller runs `consume` on the finished prefix, in stream order, and
/// refills the window as it drains. Each turn the caller first takes a
/// slot for itself — so the first slot it pulls is its own and
/// `consume(0)` follows one slot's work — then, with helpers, tops the
/// window up for them. With one thread it holds one slot at a time: no
/// position is pulled before the previous one is consumed.
///
/// The window never crosses a chunk boundary: a chunk's first slot is
/// pulled only after `consume` has seen the previous chunk's last one. So
/// a registry snapshot taken inside `consume` at a chunk's last position
/// counts exactly the consumed positions; nothing of the next chunk has
/// run. Helpers idle at a chunk's tail while its last slots finish.
///
/// When `consume` returns [`ControlFlow::Break`], nothing more is pulled
/// or claimed; slots already being worked finish and are dropped. An
/// expired [`CancelToken`] also stops the pulls, but every pulled slot is
/// still worked and consumed.
pub(crate) fn drive<T: Send>(
    source: &mut dyn ImageSource,
    config: &StreamConfig,
    telemetry: &Telemetry,
    workers: &WorkerPool,
    work: impl Fn(usize, SourceItem, &SharedPool) -> T + Sync,
    mut consume: impl FnMut(usize, T) -> ControlFlow<()>,
) -> StreamSummary {
    let pool = SharedPool(Mutex::new(BufferPool::with_telemetry(config.pool_capacity, telemetry)));
    let mut puller = Puller {
        source,
        chunk_size: config.chunk_size.max(1),
        metrics: StreamMetrics::new(telemetry),
        cancel: config.cancel.clone(),
        cancelled: false,
        exhausted: false,
        pulled: 0,
        chunks: 0,
        peak_chunk: 0,
    };
    let shared = Shared::new();
    let helpers = config.threads.max(1) - 1;

    let helper = || {
        let _close = CloseOnDrop(&shared);
        while let Some((index, item)) = shared.next_for_helper() {
            shared.finish(index, work(index, item, &pool));
        }
    };
    let caller = || {
        let _close = CloseOnDrop(&shared);
        loop {
            while let Some((index, result)) = shared.pop_done() {
                puller.metrics.in_flight.set((puller.pulled - index - 1) as f64);
                if consume(index, result).is_break() {
                    return;
                }
            }
            // A slot for the caller: the first unclaimed one, else a new
            // pull. `resident` stays exact while the caller runs, as only
            // the caller pushes and pops slots.
            let (mut resident, claimed) = {
                let mut window = shared.lock();
                (window.slots.len(), window.try_claim())
            };
            let mine = match claimed {
                Some(claimed) => Some(claimed),
                None if puller.may_pull(resident) => puller.pull(&pool).inspect(|_| {
                    shared.push_claimed();
                    resident += 1;
                }),
                None => None,
            };
            let Some((index, item)) = mine else {
                // Nothing to claim or pull: wait for the front slot, or
                // end once the window has drained.
                if resident == 0 || !shared.wait_for_front() {
                    return;
                }
                continue;
            };
            while helpers > 0 && puller.may_pull(resident) {
                let Some((_, item)) = puller.pull(&pool) else { break };
                shared.push_pulled(item);
                resident += 1;
            }
            puller.metrics.in_flight.set(resident as f64);
            shared.finish(index, work(index, item, &pool));
        }
    };
    workers.join(helpers, helper, caller);
    puller.metrics.in_flight.set(0.0);
    puller.summary()
}

/// An [`ImageSource`] over an in-memory slice: items are cloned, in
/// slice order, into buffers from the pull's allocator (the stream's
/// buffer pool). Scoring it streamed is bit-identical
/// to [`DetectionEngine::score_images`](crate::DetectionEngine::score_images)
/// over the slice.
#[derive(Debug)]
pub struct SliceSource<'a> {
    images: &'a [Image],
    next: usize,
}

impl<'a> SliceSource<'a> {
    /// Streams `images` in order.
    pub fn new(images: &'a [Image]) -> Self {
        Self { images, next: 0 }
    }
}

impl ImageSource for SliceSource<'_> {
    fn next_image(&mut self, alloc: SampleAlloc<'_>) -> Option<SourceItem> {
        let image = self.images.get(self.next)?;
        self.next += 1;
        let planes: Vec<Vec<f64>> = image
            .planes()
            .iter()
            .map(|src| {
                let mut data = alloc(src.len());
                data.copy_from_slice(src);
                data
            })
            .collect();
        Some(
            Image::from_planes(image.width(), image.height(), image.channels(), planes)
                .map(Pulled::Image)
                .map_err(|err| ScoreError::new(ScoreFault::Detect(err.into()))),
        )
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.images.len() - self.next)
    }
}

/// An [`ImageSource`] driven by an `index -> Image` closure — the adapter
/// for synthetic generators (the `datasets` crate wraps its
/// `SampleGenerator` in one of these).
pub struct FnSource<F> {
    make: F,
    next: u64,
    count: usize,
}

impl<F: FnMut(u64) -> Image> FnSource<F> {
    /// Streams `make(0), make(1), …, make(count - 1)`.
    pub fn new(count: usize, make: F) -> Self {
        Self { make, next: 0, count }
    }
}

impl<F> std::fmt::Debug for FnSource<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnSource").field("next", &self.next).field("count", &self.count).finish()
    }
}

impl<F: FnMut(u64) -> Image> ImageSource for FnSource<F> {
    fn next_image(&mut self, _alloc: SampleAlloc<'_>) -> Option<SourceItem> {
        if self.next as usize >= self.count {
            return None;
        }
        let index = self.next;
        self.next += 1;
        Some(Ok(Pulled::Image((self.make)(index))))
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.count - self.next as usize)
    }
}

/// Offset basis of the 64-bit FNV-1a hash.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Prime of the 64-bit FNV-1a hash.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A stable, dependency-free 64-bit FNV-1a hash of a shard key.
///
/// This is the *only* hash the shard partitioner uses. It is fixed for
/// all time: shard membership is part of the on-disk checkpoint contract
/// (shard k of N must select the same files on every machine and in
/// every release), so the function must never be swapped for
/// `DefaultHasher` or any seed-randomised hasher.
pub fn stable_key_hash(key: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A deterministic 1-of-N partition of a keyed corpus: shard `index`
/// owns exactly the keys whose [`stable_key_hash`] lands on it modulo
/// `count`.
///
/// Membership depends only on the key string — not on listing order,
/// corpus size, or the machine — so N processes given shards `1/N`
/// through `N/N` of the same directory cover it exactly once, and the
/// same shard can be re-derived later to resume a checkpoint.
///
/// Shards render and parse as `k/N` with a 1-based `k` (the on-disk and
/// CLI form); in code [`index`](ShardSpec::index) is 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    index: usize,
    count: usize,
}

impl ShardSpec {
    /// A shard with 0-based `index` out of `count`.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] when `count` is zero or `index` is
    /// out of range.
    pub fn new(index: usize, count: usize) -> Result<Self, DetectError> {
        if count == 0 {
            return Err(DetectError::InvalidConfig {
                message: "shard count must be at least 1".into(),
            });
        }
        if index >= count {
            return Err(DetectError::InvalidConfig {
                message: format!("shard index {index} out of range for {count} shards"),
            });
        }
        Ok(Self { index, count })
    }

    /// The trivial partition: one shard owning every key (`1/1`).
    pub const fn full() -> Self {
        Self { index: 0, count: 1 }
    }

    /// Parses the CLI/on-disk form `k/N` (1-based `k`, `1 <= k <= N`).
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] on malformed text or out-of-range
    /// values.
    pub fn parse(text: &str) -> Result<Self, DetectError> {
        let invalid = || DetectError::InvalidConfig {
            message: format!("shard spec {text:?} is not of the form k/N with 1 <= k <= N"),
        };
        let (k, n) = text.split_once('/').ok_or_else(invalid)?;
        let k: usize = k.trim().parse().map_err(|_| invalid())?;
        let n: usize = n.trim().parse().map_err(|_| invalid())?;
        if k == 0 || k > n {
            return Err(invalid());
        }
        Self::new(k - 1, n)
    }

    /// The shard's 0-based index.
    pub const fn index(&self) -> usize {
        self.index
    }

    /// Total number of shards in the partition.
    pub const fn count(&self) -> usize {
        self.count
    }

    /// Whether `key` belongs to this shard.
    pub fn admits(&self, key: &str) -> bool {
        stable_key_hash(key) % self.count as u64 == self.index as u64
    }

    /// The (0-based, ascending) positions of the admitted keys within
    /// `keys` — the shard's view of a corpus listed in canonical order.
    pub fn partition<I>(&self, keys: I) -> Vec<usize>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        keys.into_iter()
            .enumerate()
            .filter_map(|(index, key)| self.admits(key.as_ref()).then_some(index))
            .collect()
    }
}

impl std::fmt::Display for ShardSpec {
    /// Renders the 1-based `k/N` form used on disk and on the CLI.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index + 1, self.count)
    }
}

/// Extensions the directory walk admits, lowercased. Dispatch to a
/// codec happens by magic bytes ([`decamouflage_imaging::codec::sniff`]),
/// not extension — the extension only gates which files are listed.
const IMAGE_EXTENSIONS: [&str; 7] = ["pgm", "ppm", "pnm", "bmp", "png", "jpg", "jpeg"];

/// The one decode path for encoded images — directory files, `/scan`
/// frames and `/check` bodies alike.
///
/// [`decode`](ImageDecoder::decode) sniffs the magic bytes, decodes with
/// the matching codec into sample buffers from the caller's allocator,
/// times the call on `decam_engine_stage_seconds{stage="decode"}` and
/// counts it on `decam_codec_decode_total{format, outcome}` (`unknown`
/// for bytes no codec claims). The handles are resolved once, at
/// construction. Codec errors map onto the quarantine taxonomy:
/// [`ImagingError::Unsupported`] — no codec claims the bytes, or the
/// claimed format uses an unsupported feature — becomes
/// [`ScoreFault::UnsupportedFormat`]; every other error, a structurally
/// broken file, becomes [`ScoreFault::Unreadable`].
#[derive(Debug)]
pub struct ImageDecoder {
    seconds: HistogramHandle,
    ok: [Counter; 4],
    error: [Counter; 4],
    unknown: Counter,
}

impl ImageDecoder {
    /// A decoder recording on `telemetry`.
    pub fn new(telemetry: &Telemetry) -> Self {
        let resolve = |format: &str, outcome: &str| {
            telemetry
                .counter("decam_codec_decode_total", &[("format", format), ("outcome", outcome)])
        };
        Self {
            seconds: telemetry.histogram("decam_engine_stage_seconds", &[("stage", "decode")]),
            ok: ImageFormat::ALL.map(|f| resolve(f.name(), "ok")),
            error: ImageFormat::ALL.map(|f| resolve(f.name(), "error")),
            unknown: resolve("unknown", "error"),
        }
    }

    /// Decodes `bytes` into buffers from `alloc`. A fault's message is the
    /// codec error, prefixed with `cannot read <origin>: ` when the bytes
    /// were read from the file `origin`.
    ///
    /// # Errors
    ///
    /// [`ScoreFault::UnsupportedFormat`] or [`ScoreFault::Unreadable`],
    /// as described on [`ImageDecoder`].
    pub fn decode(
        &self,
        bytes: &[u8],
        origin: Option<&Path>,
        alloc: SampleAlloc<'_>,
    ) -> Result<Image, ScoreFault> {
        let _decode = self.seconds.span();
        match decode_auto_into(bytes, alloc) {
            Ok((format, image)) => {
                self.ok[Self::slot(format)].inc();
                Ok(image)
            }
            Err(err) => {
                match sniff(bytes) {
                    Some(format) => self.error[Self::slot(format)].inc(),
                    None => self.unknown.inc(),
                }
                let message = match origin {
                    Some(path) => format!("cannot read {}: {err}", path.display()),
                    None => err.to_string(),
                };
                Err(match err {
                    ImagingError::Unsupported { .. } => ScoreFault::UnsupportedFormat { message },
                    _ => ScoreFault::Unreadable { message },
                })
            }
        }
    }

    /// The fault of a file that could not be read at all. No codec saw
    /// it, so it counts as an `unknown`-format decode error.
    fn unreadable_file(&self, path: &Path, err: &std::io::Error) -> ScoreError {
        self.unknown.inc();
        ScoreError::new(ScoreFault::Unreadable {
            message: format!("cannot read {}: {err}", path.display()),
        })
    }

    const fn slot(format: ImageFormat) -> usize {
        match format {
            ImageFormat::Bmp => 0,
            ImageFormat::Pnm => 1,
            ImageFormat::Png => 2,
            ImageFormat::Jpeg => 3,
        }
    }
}

/// An [`ImageSource`] over the image files of one directory — the single
/// home of the listing logic the CLI previously duplicated between
/// `read_dir_images` and `scan`'s inline walk.
///
/// [`open`](DirectorySource::open) lists the directory once, keeps the
/// `.pgm`/`.ppm`/`.pnm`/`.bmp`/`.png`/`.jpg`/`.jpeg` entries in sorted
/// path order, and fails on an unlistable or image-free directory. Each
/// pull only reads one file and yields its bytes as a
/// [`Pulled::Encoded`] item; the scoring worker decodes them through
/// the source's [`ImageDecoder`], which dispatches by magic bytes, not
/// extension. A file that cannot be read, or fails to decode, becomes a
/// [`ScoreFault::Unreadable`] (or [`ScoreFault::UnsupportedFormat`])
/// slot whose message starts `cannot read <path>: ` — consuming its
/// stream index, so [`paths`](DirectorySource::paths)`[index]` always
/// names the file an item came from — instead of aborting the stream.
#[derive(Debug)]
pub struct DirectorySource {
    paths: Vec<PathBuf>,
    next: usize,
    decoder: Arc<ImageDecoder>,
}

impl DirectorySource {
    /// Lists `dir` and prepares a sorted stream over its image files.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] when the directory cannot be listed
    /// or contains no image files with an admitted extension.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, DetectError> {
        Self::with_telemetry(dir, &decamouflage_telemetry::global())
    }

    /// [`open`](DirectorySource::open) with an explicit telemetry handle
    /// for the decoder's counters and decode-stage histogram.
    pub fn with_telemetry(
        dir: impl AsRef<Path>,
        telemetry: &Telemetry,
    ) -> Result<Self, DetectError> {
        let dir = dir.as_ref();
        let shown = dir.display();
        let invalid = |message: String| DetectError::InvalidConfig { message };
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| invalid(format!("cannot list {shown}: {e}")))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension()
                    .and_then(|e| e.to_str())
                    .map(str::to_ascii_lowercase)
                    .is_some_and(|ext| IMAGE_EXTENSIONS.contains(&ext.as_str()))
            })
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(invalid(format!(
                "no .pgm/.ppm/.pnm/.bmp/.png/.jpg/.jpeg images in {shown}"
            )));
        }
        Ok(Self { paths, next: 0, decoder: Arc::new(ImageDecoder::new(telemetry)) })
    }

    /// The files of the stream, in pull order; stream index `i`
    /// corresponds to `paths()[i]`.
    pub fn paths(&self) -> &[PathBuf] {
        &self.paths
    }

    /// Number of files in the stream (readable or not).
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether the stream has no files (never true after `open`, but a
    /// [`restrict_to_shard`](DirectorySource::restrict_to_shard) may own
    /// no files of a small corpus).
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The canonical shard key of one listed file: its file name (the
    /// canonical relative path — listings are single-directory), lossily
    /// UTF-8 decoded so the key is identical across platforms.
    fn shard_key(path: &Path) -> String {
        path.file_name().map(|name| name.to_string_lossy().into_owned()).unwrap_or_default()
    }

    /// The shard keys of every listed file, in pull order — the corpus
    /// key list that [`ShardSpec::partition`] and the checkpoint corpus
    /// fingerprint operate on.
    pub fn shard_keys(&self) -> Vec<String> {
        self.paths.iter().map(|path| Self::shard_key(path)).collect()
    }

    /// Drops every file `spec` does not admit, returning the kept files'
    /// original (0-based, ascending) listing positions — the map from
    /// shard-local stream index back to corpus-global index. It skips by
    /// path: non-admitted files are never opened or decoded.
    ///
    /// # Panics
    ///
    /// Panics if any item was already pulled — the shard restriction
    /// must be applied before streaming starts.
    pub fn restrict_to_shard(&mut self, spec: ShardSpec) -> Vec<usize> {
        assert_eq!(self.next, 0, "restrict_to_shard must precede the first pull");
        let mut kept = Vec::new();
        self.paths = std::mem::take(&mut self.paths)
            .into_iter()
            .enumerate()
            .filter_map(|(index, path)| {
                spec.admits(&Self::shard_key(&path)).then(|| {
                    kept.push(index);
                    path
                })
            })
            .collect();
        kept
    }

    /// Advances the stream past its next `n` files without opening or
    /// decoding them — resume positioning after a checkpoint reload.
    pub fn skip(&mut self, n: usize) {
        self.next = (self.next + n).min(self.paths.len());
    }
}

impl ImageSource for DirectorySource {
    fn next_image(&mut self, _alloc: SampleAlloc<'_>) -> Option<SourceItem> {
        let path = self.paths.get(self.next)?;
        self.next += 1;
        Some(match std::fs::read(path) {
            Ok(bytes) => Ok(Pulled::Encoded {
                bytes,
                origin: Some(path.clone()),
                decoder: Arc::clone(&self.decoder),
            }),
            Err(err) => Err(self.decoder.unreadable_file(path, &err)),
        })
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.paths.len() - self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decamouflage_imaging::codec::write_pnm_file;
    use decamouflage_imaging::Channels;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    fn flat(v: f64) -> Image {
        Image::filled(4, 3, Channels::Gray, v)
    }

    /// Pulls `source` dry, materialising each item as a scoring worker
    /// would (encoded bytes decode into pooled buffers).
    fn drain(
        source: &mut dyn ImageSource,
        pool: &mut BufferPool,
    ) -> Vec<Result<Image, ScoreError>> {
        let mut items = Vec::new();
        while let Some(item) = source.next_image(&mut |n| pool.take(n)) {
            items.push(item.and_then(|pulled| pulled.into_image(&mut |n| pool.take(n))));
        }
        items
    }

    /// The image of a pulled slot.
    fn image_of(item: SourceItem) -> Result<Image, ScoreError> {
        item.and_then(|pulled| pulled.into_image(&mut |n| vec![0.0; n]))
    }

    /// A source that counts its pulls, end-of-stream probes included.
    struct Counted<'a> {
        inner: FnSource<fn(u64) -> Image>,
        pulls: &'a AtomicUsize,
    }

    impl ImageSource for Counted<'_> {
        fn next_image(&mut self, alloc: SampleAlloc<'_>) -> Option<SourceItem> {
            let item = self.inner.next_image(alloc);
            self.pulls.fetch_add(usize::from(item.is_some()), Ordering::SeqCst);
            item
        }
    }

    fn counted(count: usize, pulls: &AtomicUsize) -> Counted<'_> {
        Counted { inner: FnSource::new(count, |i| flat(i as f64)), pulls }
    }

    /// Drives `source` over a private pool, so a test's helpers are never
    /// busy with another test's work.
    fn drive_on<T: Send>(
        source: &mut dyn ImageSource,
        config: &StreamConfig,
        telemetry: &Telemetry,
        work: impl Fn(usize, SourceItem, &SharedPool) -> T + Sync,
        consume: impl FnMut(usize, T) -> ControlFlow<()>,
    ) -> StreamSummary {
        let workers = WorkerPool::new(config.threads.max(2) - 1);
        drive(source, config, telemetry, &workers, work, consume)
    }

    /// Sends on drop: releases a waiting slot while a panic unwinds.
    struct SendOnDrop(mpsc::Sender<()>);

    impl Drop for SendOnDrop {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

    const PATIENCE: Duration = Duration::from_secs(10);

    #[test]
    fn buffer_pool_recycles_up_to_capacity() {
        let telemetry = Telemetry::enabled();
        let mut pool = BufferPool::with_telemetry(2, &telemetry);
        assert_eq!(pool.capacity(), 2);
        let miss = pool.take(12);
        assert_eq!(miss.len(), 12);
        pool.recycle(flat(1.0));
        pool.recycle(flat(2.0));
        pool.recycle(flat(3.0)); // over capacity: dropped
        assert_eq!(pool.len(), 2);
        let hit = pool.take(5);
        assert_eq!(hit.len(), 5, "recycled buffers are resized to the request");
        assert!(!pool.is_empty());
        assert_eq!(telemetry.counter("decam_stream_buffer_pool_hits_total", &[]).value(), 1);
        assert_eq!(telemetry.counter("decam_stream_buffer_pool_misses_total", &[]).value(), 1);
    }

    #[test]
    fn slice_source_round_trips_images_through_the_pool() {
        let images = vec![flat(7.0), flat(9.0)];
        let mut source = SliceSource::new(&images);
        assert_eq!(source.len_hint(), Some(2));
        let mut pool = BufferPool::with_telemetry(4, &Telemetry::disabled());
        let items = drain(&mut source, &mut pool);
        assert_eq!(items.len(), 2);
        for (item, original) in items.iter().zip(&images) {
            assert_eq!(item.as_ref().unwrap().planes(), original.planes());
        }
        assert_eq!(source.len_hint(), Some(0));
    }

    #[test]
    fn fn_source_counts_and_hints() {
        let mut source = FnSource::new(3, |i| flat(i as f64));
        assert_eq!(source.len_hint(), Some(3));
        let mut pool = BufferPool::with_telemetry(0, &Telemetry::disabled());
        let items = drain(&mut source, &mut pool);
        assert_eq!(items.len(), 3);
        assert_eq!(items[2].as_ref().unwrap().plane(0)[0], 2.0);
        assert!(format!("{source:?}").contains("FnSource"));
    }

    #[test]
    fn driver_bounds_residency_and_counts_chunks() {
        let telemetry = Telemetry::enabled();
        let pulls = AtomicUsize::new(0);
        let config =
            StreamConfig::default().with_chunk_size(3).with_pool_capacity(2).with_threads(2);
        let mut seen = Vec::new();
        let summary = drive_on(
            &mut counted(7, &pulls),
            &config,
            &telemetry,
            |_, item, pool| {
                let image = image_of(item).unwrap();
                let value = image.plane(0)[0];
                pool.recycle(image);
                assert!(pool.lock().len() <= 2, "pool stays within capacity");
                value
            },
            |index, value| {
                // Consuming `index` leaves at most a window of 3 pulled
                // positions behind it.
                assert!(pulls.load(Ordering::SeqCst) <= index + 3, "window overran at {index}");
                seen.push((index, value));
                ControlFlow::Continue(())
            },
        );
        assert_eq!(summary.items, 7);
        assert_eq!(summary.chunks, 3, "7 items in chunks of 3");
        assert_eq!(summary.peak_chunk, 3);
        assert_eq!(seen, (0..7).map(|i| (i, i as f64)).collect::<Vec<_>>());
        assert_eq!(telemetry.counter("decam_stream_chunks_total", &[]).value(), 3);
        assert_eq!(telemetry.gauge("decam_stream_peak_chunk", &[]).value(), 3.0);
        assert_eq!(telemetry.gauge("decam_stream_in_flight_images", &[]).value(), 0.0);
    }

    #[test]
    fn driver_converts_pull_panics_into_slot_errors() {
        let mut source = FnSource::new(3, |i| {
            if i == 1 {
                panic!("generator exploded at {i}");
            }
            flat(i as f64)
        });
        let config = StreamConfig::default().with_chunk_size(8).with_threads(2);
        let mut slots = Vec::new();
        let summary = drive_on(
            &mut source,
            &config,
            &Telemetry::disabled(),
            |_, item, _| image_of(item),
            |_, image| {
                slots.push(image);
                ControlFlow::Continue(())
            },
        );
        assert_eq!(summary.items, 3, "a pull panic consumes its index, not the stream");
        assert!(slots[0].is_ok() && slots[2].is_ok());
        let err = slots[1].as_ref().unwrap_err();
        assert_eq!(err.index, 1);
        assert!(err.is_panic(), "pull panics surface as ScoreError::panicked: {err}");
    }

    #[test]
    fn every_slot_is_worked_exactly_once_and_consumed_in_order() {
        let worked: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
        let config = StreamConfig::default().with_chunk_size(4).with_threads(3);
        let mut order = Vec::new();
        drive_on(
            &mut FnSource::new(40, |i| flat(i as f64)),
            &config,
            &Telemetry::disabled(),
            |index, _, _| worked[index].fetch_add(1, Ordering::SeqCst),
            |index, _| {
                order.push(index);
                ControlFlow::Continue(())
            },
        );
        assert!(worked.iter().all(|n| n.load(Ordering::SeqCst) == 1), "each slot once");
        assert_eq!(order, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn one_thread_pulls_nothing_before_the_previous_consume() {
        let pulls = AtomicUsize::new(0);
        let config = StreamConfig::default().with_chunk_size(4).with_threads(1);
        let summary = drive_on(
            &mut counted(9, &pulls),
            &config,
            &Telemetry::disabled(),
            |_, _, _| (),
            |index, ()| {
                assert_eq!(pulls.load(Ordering::SeqCst), index + 1, "pulled ahead of {index}");
                ControlFlow::Continue(())
            },
        );
        assert_eq!((summary.items, summary.chunks, summary.peak_chunk), (9, 3, 4));
    }

    /// No barrier: `consume(0)` runs while slot 1 is still being worked.
    /// Slot 1 waits for a signal that only `consume(0)` sends; a driver
    /// that joined slot 1 first would time the wait out.
    #[test]
    fn consume_runs_while_a_later_slot_is_still_scoring() {
        let (release, released) = mpsc::channel();
        let released = Mutex::new(released);
        let config = StreamConfig::default().with_chunk_size(4).with_threads(2);
        let mut outputs = Vec::new();
        drive_on(
            &mut FnSource::new(2, |i| flat(i as f64)),
            &config,
            &Telemetry::disabled(),
            |index, _, _| index != 1 || released.lock().unwrap().recv_timeout(PATIENCE).is_ok(),
            |index, output| {
                if index == 0 {
                    release.send(()).unwrap();
                }
                outputs.push(output);
                ControlFlow::Continue(())
            },
        );
        assert_eq!(outputs, [true, true], "slot 1 was released by consume(0)");
    }

    /// The window never crosses a chunk boundary. Slot 1 waits for a
    /// signal that only slot 2's work sends, so slot 2 is claimed while
    /// slot 1 is open; a driver that topped the window up past the
    /// boundary would then pull slot 4 before `consume(1)`. Inside
    /// `consume` at each chunk's last position nothing of the next chunk
    /// has been pulled, and a registry snapshot holds exactly the
    /// consumed slots' counts.
    #[test]
    fn a_snapshot_at_a_chunk_boundary_counts_only_consumed_slots() {
        let telemetry = Telemetry::enabled();
        let counter = telemetry.counter("decam_test_slots_total", &[]);
        let pulls = AtomicUsize::new(0);
        let (release, released) = mpsc::channel();
        let (release, released) = (Mutex::new(release), Mutex::new(released));
        let config = StreamConfig::default().with_chunk_size(4).with_threads(2);
        let mut at_boundaries = Vec::new();
        drive_on(
            &mut counted(12, &pulls),
            &config,
            &telemetry,
            |index, _, _| {
                match index {
                    1 => released.lock().unwrap().recv_timeout(PATIENCE).expect("slot 2 ran"),
                    2 => release.lock().unwrap().send(()).unwrap(),
                    _ => {}
                }
                counter.inc();
            },
            |index, ()| {
                let pulled = pulls.load(Ordering::SeqCst);
                assert!(pulled <= (index / 4 + 1) * 4, "{pulled} pulls at consume({index})");
                if index % 4 == 3 {
                    let snapshot = telemetry.snapshot().unwrap();
                    let (_, _, value) = snapshot
                        .counters
                        .iter()
                        .find(|(name, _, _)| name == "decam_test_slots_total")
                        .cloned()
                        .unwrap();
                    at_boundaries.push((pulled, value));
                }
                ControlFlow::Continue(())
            },
        );
        assert_eq!(at_boundaries, [(4, 4), (8, 8), (12, 12)], "(pulls, counted slots)");
    }

    /// A panic in `consume` reaches the caller only after the helper
    /// working on slot 1 has finished, and the pool then scores another
    /// stream normally — the helpers borrow the caller's stack, so the
    /// driver must not unwind past them.
    #[test]
    fn a_consume_panic_waits_for_the_helpers() {
        let workers = WorkerPool::new(1);
        let config = StreamConfig::default().with_chunk_size(4).with_threads(2);
        let (started, slot_one_started) = mpsc::channel();
        let (release, released) = mpsc::channel();
        let released = Mutex::new(released);
        let finished = AtomicBool::new(false);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            drive(
                &mut FnSource::new(4, |i| flat(i as f64)),
                &config,
                &Telemetry::disabled(),
                &workers,
                |index, _, _| {
                    if index == 1 {
                        started.send(()).unwrap();
                        let _ = released.lock().unwrap().recv_timeout(PATIENCE);
                        finished.store(true, Ordering::SeqCst);
                    }
                },
                |index, ()| {
                    if index == 0 {
                        let _release_while_unwinding = SendOnDrop(release.clone());
                        slot_one_started.recv_timeout(PATIENCE).expect("a helper took slot 1");
                        panic!("consume exploded");
                    }
                    ControlFlow::Continue(())
                },
            )
        }));
        assert!(outcome.is_err(), "the consume panic reaches the caller");
        assert!(finished.load(Ordering::SeqCst), "the panic outran the helper's slot");

        let mut values = Vec::new();
        let summary = drive(
            &mut FnSource::new(6, |i| flat(i as f64)),
            &config,
            &Telemetry::disabled(),
            &workers,
            |_, item, _| image_of(item).unwrap().plane(0)[0],
            |_, value| {
                values.push(value);
                ControlFlow::Continue(())
            },
        );
        assert_eq!(summary.items, 6);
        assert_eq!(values, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn break_stops_pulling_and_drops_unconsumed_slots() {
        let pulls = AtomicUsize::new(0);
        for threads in [1, 2] {
            pulls.store(0, Ordering::SeqCst);
            let config = StreamConfig::default().with_chunk_size(4).with_threads(threads);
            let mut consumed = Vec::new();
            let summary = drive_on(
                &mut counted(20, &pulls),
                &config,
                &Telemetry::disabled(),
                |_, _, _| (),
                |index, ()| {
                    consumed.push(index);
                    if index == 1 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            let pulled = pulls.load(Ordering::SeqCst);
            assert_eq!(consumed, [0, 1], "threads {threads}: slots past the break are dropped");
            assert!(pulled <= 4, "threads {threads}: {pulled} pulls for a break inside chunk 0");
            assert_eq!(summary.items, pulled);
            assert!(!summary.cancelled);
        }
    }

    #[test]
    fn directory_source_streams_sorted_decodes_and_flags_unreadables() {
        let dir = std::env::temp_dir().join(format!("decam-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_pnm_file(&flat(10.0), dir.join("b.pgm")).unwrap();
        write_pnm_file(&flat(20.0), dir.join("a.pgm")).unwrap();
        // No codec claims these bytes: the typed wrong-file-type fault.
        std::fs::write(dir.join("c.bmp"), b"not a bitmap").unwrap();
        // A claimed format that is structurally broken: unreadable.
        std::fs::write(dir.join("d.pgm"), b"P5\nbroken header").unwrap();
        std::fs::write(dir.join("notes.txt"), b"ignored").unwrap();

        let mut source = DirectorySource::open(&dir).unwrap();
        assert_eq!(source.len(), 4);
        assert!(!source.is_empty());
        let names: Vec<_> =
            source.paths().iter().map(|p| p.file_name().unwrap().to_owned()).collect();
        assert_eq!(names, ["a.pgm", "b.pgm", "c.bmp", "d.pgm"], "sorted, extension-filtered");

        let mut pool = BufferPool::with_telemetry(0, &Telemetry::disabled());
        let items = drain(&mut source, &mut pool);
        assert_eq!(items[0].as_ref().unwrap().plane(0)[0], 20.0, "a.pgm first");
        assert_eq!(items[1].as_ref().unwrap().plane(0)[0], 10.0);
        let err = items[2].as_ref().unwrap_err();
        assert!(matches!(err.cause, ScoreFault::UnsupportedFormat { .. }), "{err}");
        assert!(err.to_string().contains("c.bmp"), "{err}");
        let err = items[3].as_ref().unwrap_err();
        assert!(matches!(err.cause, ScoreFault::Unreadable { .. }), "{err}");
        assert!(err.to_string().contains("d.pgm"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
        assert!(DirectorySource::open(&dir).is_err(), "unlistable directory");
        std::fs::create_dir_all(&dir).unwrap();
        let err = DirectorySource::open(&dir).unwrap_err();
        assert!(err.to_string().contains("no .pgm/.ppm/.pnm/.bmp/.png/.jpg/.jpeg images"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cancel_token_expires_by_deadline_and_by_cancel() {
        let token = CancelToken::new();
        assert!(!token.is_expired());
        assert_eq!(token.remaining(), None);
        assert_eq!(token.deadline(), None);
        let clone = token.clone();
        token.cancel();
        assert!(clone.is_expired(), "clones share the cancellation flag");

        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(expired.is_expired());
        assert_eq!(expired.remaining(), Some(Duration::ZERO));

        let live = CancelToken::expiring_in(Duration::from_secs(3600));
        assert!(!live.is_expired());
        assert!(live.remaining().unwrap() > Duration::from_secs(3000));
        assert!(live.deadline().is_some());
    }

    #[test]
    fn expired_token_stops_the_pulls_between_items() {
        let telemetry = Telemetry::enabled();
        let token = CancelToken::new();
        let config =
            StreamConfig::default().with_chunk_size(2).with_threads(2).with_cancel(token.clone());
        let mut consumed = Vec::new();
        let summary = drive_on(
            &mut FnSource::new(10, |i| flat(i as f64)),
            &config,
            &telemetry,
            |_, _, _| (),
            |index, ()| {
                if index == 0 {
                    token.cancel();
                }
                consumed.push(index);
                ControlFlow::Continue(())
            },
        );
        // The window held two positions when the token tripped; both are
        // scored and consumed, and nothing after them is pulled.
        assert!(summary.cancelled);
        assert_eq!(summary.items, 2, "positions after the cut were never pulled");
        assert_eq!(consumed, [0, 1], "in-flight positions still finish");
        assert_eq!(telemetry.counter("decam_stream_cancelled_total", &[]).value(), 1);
    }

    #[test]
    fn expired_token_stops_the_one_thread_driver_between_items() {
        let token = CancelToken::new();
        let config =
            StreamConfig::default().with_chunk_size(4).with_threads(1).with_cancel(token.clone());
        let summary = drive_on(
            &mut FnSource::new(5, |i| flat(i as f64)),
            &config,
            &Telemetry::disabled(),
            |_, item, _| assert!(item.is_ok()),
            |_, ()| {
                token.cancel();
                ControlFlow::Continue(())
            },
        );
        assert!(summary.cancelled);
        assert_eq!(summary.items, 1);
    }

    #[test]
    fn unarmed_streams_never_report_cancellation() {
        let config = StreamConfig::default().with_chunk_size(8).with_threads(2);
        let summary = drive_on(
            &mut FnSource::new(3, |i| flat(i as f64)),
            &config,
            &Telemetry::disabled(),
            |_, _, _| (),
            |_, ()| ControlFlow::Continue(()),
        );
        assert!(!summary.cancelled);
        assert_eq!(summary.items, 3);
    }

    #[test]
    fn stable_key_hash_is_pinned() {
        // The partitioner hash is an on-disk contract; these values must
        // never change (FNV-1a 64 reference vectors).
        assert_eq!(stable_key_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_key_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(stable_key_hash("img-00042.bmp"), stable_key_hash("img-00042.bmp"));
        assert_ne!(stable_key_hash("img-00042.bmp"), stable_key_hash("img-00043.bmp"));
    }

    #[test]
    fn shard_spec_parses_renders_and_validates() {
        let spec = ShardSpec::parse("2/3").unwrap();
        assert_eq!((spec.index(), spec.count()), (1, 3));
        assert_eq!(spec.to_string(), "2/3");
        assert_eq!(ShardSpec::full().to_string(), "1/1");
        assert_eq!(ShardSpec::parse(" 1 / 1 ").unwrap(), ShardSpec::full());

        for bad in ["", "3", "0/3", "4/3", "a/b", "1/0", "-1/3", "1/3/5"] {
            assert!(ShardSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert!(ShardSpec::new(3, 3).is_err());
        assert!(ShardSpec::new(0, 0).is_err());
    }

    #[test]
    fn shards_cover_every_key_exactly_once_regardless_of_order() {
        let keys: Vec<String> = (0..60).map(|i| format!("img-{i:05}.bmp")).collect();
        for count in [1usize, 2, 3, 7] {
            let mut owners = vec![0usize; keys.len()];
            for index in 0..count {
                let spec = ShardSpec::new(index, count).unwrap();
                for position in spec.partition(&keys) {
                    owners[position] += 1;
                }
            }
            assert!(owners.iter().all(|&n| n == 1), "count {count}: exact cover");
        }
        // Membership is a pure function of the key string: reversing the
        // listing order only reverses positions, never membership.
        let spec = ShardSpec::new(1, 3).unwrap();
        let forward: Vec<&String> = spec.partition(&keys).into_iter().map(|i| &keys[i]).collect();
        let reversed: Vec<String> = keys.iter().rev().cloned().collect();
        let mut backward: Vec<&String> =
            spec.partition(&reversed).into_iter().map(|i| &reversed[i]).collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn directory_source_shards_by_file_name_without_decoding() {
        let dir = std::env::temp_dir().join(format!("decam-shard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let names: Vec<String> = (0..9).map(|i| format!("s{i}.pgm")).collect();
        for (i, name) in names.iter().enumerate() {
            write_pnm_file(&flat(i as f64), dir.join(name)).unwrap();
        }

        let spec = ShardSpec::new(0, 3).unwrap();
        let mut source = DirectorySource::open(&dir).unwrap();
        assert_eq!(source.shard_keys(), names, "keys are bare file names in sorted order");
        let kept = source.restrict_to_shard(spec);
        assert_eq!(kept, spec.partition(&names), "path-level restriction matches partition");
        assert_eq!(source.len(), kept.len());

        let mut pool = BufferPool::with_telemetry(0, &Telemetry::disabled());
        let values: Vec<f64> = drain(&mut source, &mut pool)
            .iter()
            .map(|item| item.as_ref().unwrap().plane(0)[0])
            .collect();
        assert_eq!(values, kept.iter().map(|&i| i as f64).collect::<Vec<_>>());

        // skip(n) positions past already-checkpointed files.
        let mut resumed = DirectorySource::open(&dir).unwrap();
        resumed.restrict_to_shard(spec);
        resumed.skip(1);
        let rest = drain(&mut resumed, &mut pool);
        assert_eq!(rest.len(), kept.len() - 1);
        assert_eq!(rest[0].as_ref().unwrap().plane(0)[0], kept[1] as f64);
        resumed.skip(100); // clamped at end of stream
        assert_eq!(resumed.len_hint(), Some(0));

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
