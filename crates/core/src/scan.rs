//! Sharded, resumable, mergeable corpus scans.
//!
//! This module is the orchestration layer of the shard/checkpoint/merge
//! architecture:
//!
//! 1. [`crate::stream::ShardSpec`] partitions a corpus by stable key
//!    hash; a shard's owner scans only its members.
//! 2. [`scan_shard`] drives [`DetectionEngine::score_stream`] over one
//!    shard, recording every outcome into a
//!    [`ScanCheckpoint`]
//!    persisted at chunk boundaries — a crash loses at most one chunk,
//!    and a reloaded checkpoint resumes where it stopped.
//! 3. [`ScanReport::merge`] combines the completed shard checkpoints
//!    back into one corpus-wide report (scores, quarantines, merged
//!    telemetry) that feeds threshold recalibration.
//!
//! The contract threaded through all three layers: a sharded, resumed,
//! merged scan is **bit-identical** (scores and quarantine records) to a
//! single eager pass over the same corpus. The
//! `shard_merge_equivalence` property tests pin this down.

use crate::engine::DetectionEngine;
use crate::error::{DetectError, ScoreError};
use crate::method::{ScoreColumns, ScoreVector};
use crate::persist::checkpoint::{CorpusFingerprint, QuarantineRecord, Row, ScanCheckpoint};
use crate::stream::{ImageSource, ShardSpec, StreamConfig};
use decamouflage_telemetry::RegistrySnapshot;
use std::ops::ControlFlow;

fn mismatch(message: String) -> DetectError {
    DetectError::CheckpointMismatch { message }
}

/// Merges telemetry snapshots, surfacing layout conflicts as
/// [`DetectError::CheckpointMismatch`].
fn merge_metrics(
    base: &RegistrySnapshot,
    extra: &RegistrySnapshot,
) -> Result<RegistrySnapshot, DetectError> {
    base.merge(extra).map_err(|e| mismatch(format!("cannot merge telemetry snapshots: {e}")))
}

/// Scans one shard of a corpus to completion, checkpointing as it goes.
///
/// `source` must yield exactly the shard's **remaining** images — the
/// caller restricts it to the shard's members (e.g.
/// [`DirectorySource::restrict_to_shard`](crate::stream::DirectorySource::restrict_to_shard))
/// and, when resuming, skips the first [`done`](ScanCheckpoint::done) of
/// them ([`DirectorySource::skip`](crate::stream::DirectorySource::skip)).
/// `kept` lists the corpus-global indices the shard owns, in scan order;
/// the `i`-th streamed image is recorded as corpus index
/// `kept[done + i]`.
///
/// `persist` is called with the updated checkpoint at every
/// [`chunk_size`](StreamConfig::chunk_size) boundary of the rows this
/// call records — the stream's own chunk boundaries — and once more after
/// the final row: a crash between persists loses at most one chunk of
/// work. A fresh scan, or a resume with the crashed run's chunk size
/// (whose last checkpoint sits on a multiple of it), persists at the same
/// rows a straight run would. `on_result` observes every outcome with its
/// corpus-global index — the CLI's per-image report lines.
///
/// The checkpoint's embedded telemetry is the metrics it carried on
/// entry (a resumed scan's prior-process metrics) merged with this
/// engine's snapshot at each persist point, so counters and histogram
/// moments accumulate across a crash/resume chain. The stream pulls no
/// position past a chunk boundary before the boundary's last position
/// is recorded, and every persist falls on such a boundary, so each
/// snapshot counts exactly the checkpoint's rows — whatever chunk size
/// the crashed run used.
///
/// The first error stops the stream: nothing more is pulled, and
/// positions already being scored are discarded.
///
/// # Errors
///
/// [`DetectError::CheckpointMismatch`] when the source yields more or
/// fewer images than `kept` still owes, when recording violates the
/// checkpoint's ascending-index contract, or when telemetry snapshots
/// cannot be merged; any error returned by `persist` is passed through.
pub fn scan_shard(
    engine: &DetectionEngine,
    source: &mut dyn ImageSource,
    kept: &[usize],
    config: &StreamConfig,
    mut checkpoint: ScanCheckpoint,
    mut persist: impl FnMut(&ScanCheckpoint) -> Result<(), DetectError>,
    mut on_result: impl FnMut(usize, &Result<ScoreVector, ScoreError>),
) -> Result<ScanCheckpoint, DetectError> {
    let baseline_metrics = checkpoint.metrics().clone();
    let done_on_entry = checkpoint.done();
    let mut failure: Option<DetectError> = None;
    {
        let refresh_metrics = |checkpoint: &mut ScanCheckpoint| -> Result<(), DetectError> {
            let current = engine.telemetry().snapshot().unwrap_or_default();
            checkpoint.set_metrics(merge_metrics(&baseline_metrics, &current)?);
            Ok(())
        };
        let mut step = |checkpoint: &mut ScanCheckpoint,
                        result: Result<ScoreVector, ScoreError>|
         -> Result<(), DetectError> {
            let Some(&global) = kept.get(checkpoint.done()) else {
                return Err(mismatch(format!(
                    "source yielded more images than the {} the shard owns",
                    kept.len()
                )));
            };
            checkpoint.record(global, &result)?;
            on_result(global, &result);
            if (checkpoint.done() - done_on_entry).is_multiple_of(config.chunk_size) {
                refresh_metrics(checkpoint)?;
                persist(checkpoint)?;
            }
            Ok(())
        };
        engine.score_stream(source, config, |_, result| match step(&mut checkpoint, result) {
            Ok(()) => ControlFlow::Continue(()),
            Err(err) => {
                failure = Some(err);
                ControlFlow::Break(())
            }
        });
        if let Some(err) = failure {
            return Err(err);
        }
        if checkpoint.done() != kept.len() {
            return Err(mismatch(format!(
                "source ended after {} of the {} images the shard owns — \
                 the corpus changed while scanning",
                checkpoint.done(),
                kept.len()
            )));
        }
        refresh_metrics(&mut checkpoint)?;
    }
    persist(&checkpoint)?;
    Ok(checkpoint)
}

/// A corpus-wide scan result assembled from completed shard
/// checkpoints.
///
/// The combined row state lives in an internal [`ScanCheckpoint`] with
/// the full (`1/1`) shard spec and an **empty** embedded telemetry
/// snapshot, so [`ScanReport::to_text`] is byte-stable regardless of
/// wall-clock timings; the merged telemetry is kept alongside and
/// exported separately.
#[derive(Debug)]
pub struct ScanReport {
    combined: ScanCheckpoint,
    metrics: RegistrySnapshot,
}

impl ScanReport {
    /// Merges completed shard checkpoints into one corpus-wide report.
    /// A single full-shard checkpoint is the degenerate (unsharded)
    /// case, so `merge` is also the uniform way to turn any finished
    /// scan into a report.
    ///
    /// # Errors
    ///
    /// [`DetectError::CheckpointMismatch`] unless the checkpoints agree
    /// on corpus fingerprint, method set, and shard count; cover shard
    /// indices `1..=N` exactly once; and together record every corpus
    /// image exactly once. Telemetry snapshots must merge cleanly.
    pub fn merge(shards: &[ScanCheckpoint]) -> Result<Self, DetectError> {
        let Some(first) = shards.first() else {
            return Err(mismatch("cannot merge zero checkpoints".to_string()));
        };
        let count = first.shard().count();
        let fingerprint = first.fingerprint();
        let methods = first.methods();
        let mut seen = vec![false; count];
        for ckpt in shards {
            if ckpt.shard().count() != count {
                return Err(mismatch(format!(
                    "checkpoint {} uses a different shard count than {}",
                    ckpt.shard(),
                    first.shard()
                )));
            }
            if ckpt.fingerprint() != fingerprint {
                return Err(mismatch(format!(
                    "checkpoint for shard {} was taken over a different corpus \
                     [{}] than shard {} [{}]",
                    ckpt.shard(),
                    ckpt.fingerprint(),
                    first.shard(),
                    fingerprint
                )));
            }
            if ckpt.methods() != methods {
                return Err(mismatch(format!(
                    "checkpoint for shard {} records a different method set",
                    ckpt.shard()
                )));
            }
            let index = ckpt.shard().index();
            if seen[index] {
                return Err(mismatch(format!("shard {} appears twice", ckpt.shard())));
            }
            seen[index] = true;
        }
        if let Some(missing) = seen.iter().position(|present| !present) {
            return Err(mismatch(format!("shard {}/{count} is missing", missing + 1)));
        }
        let recorded: usize = shards.iter().map(ScanCheckpoint::done).sum();
        if recorded != fingerprint.len() {
            return Err(mismatch(format!(
                "shards record {recorded} of {} corpus images — \
                 every shard must have finished before merging",
                fingerprint.len()
            )));
        }

        // The shards are hash-disjoint, so their row streams interleave:
        // walk the corpus index space and take the matching head each
        // step. With the totals already balanced, a miss here means some
        // other index was recorded twice.
        let mut combined = ScanCheckpoint::new(ShardSpec::full(), fingerprint, methods);
        let mut heads: Vec<_> = shards.iter().map(|c| c.rows().peekable()).collect();
        for global in 0..fingerprint.len() {
            let mut owner = None;
            for (position, head) in heads.iter_mut().enumerate() {
                if head.peek().is_some_and(|row| row.index() == global) {
                    owner = Some(position);
                    break;
                }
            }
            let Some(position) = owner else {
                return Err(mismatch(format!(
                    "corpus index {global} is recorded by no shard \
                     (so another index must be recorded twice)"
                )));
            };
            match heads[position].next().expect("peeked above") {
                Row::Scored { row, .. } => {
                    combined.record(global, &Ok(shards[position].score_vector_at(row)))?
                }
                Row::Quarantined(rec) => {
                    combined.replay_quarantine(rec.clone()).map_err(|e| {
                        mismatch(format!("cannot replay corpus index {global}: {e}"))
                    })?;
                }
            }
        }

        let mut metrics = RegistrySnapshot::default();
        for ckpt in shards {
            metrics = merge_metrics(&metrics, ckpt.metrics())?;
        }
        Ok(Self { combined, metrics })
    }

    /// The corpus fingerprint the report covers.
    pub fn fingerprint(&self) -> CorpusFingerprint {
        self.combined.fingerprint()
    }

    /// Number of images in the scanned corpus.
    pub fn corpus_len(&self) -> usize {
        self.combined.fingerprint().len()
    }

    /// The method set every row carries.
    pub fn methods(&self) -> crate::method::MethodSet {
        self.combined.methods()
    }

    /// Corpus-global indices of the scored (non-quarantined) images,
    /// ascending.
    pub fn scored_indices(&self) -> &[usize] {
        self.combined.scored_indices()
    }

    /// The scored images' per-method score columns, in
    /// [`scored_indices`](Self::scored_indices) order.
    pub fn columns(&self) -> &ScoreColumns {
        self.combined.columns()
    }

    /// The quarantined positions, ascending by corpus index.
    pub fn quarantined(&self) -> &[QuarantineRecord] {
        self.combined.quarantined()
    }

    /// The merged telemetry of all shards: counters summed, gauges
    /// maxed, histogram moments added exactly.
    pub fn metrics(&self) -> &RegistrySnapshot {
        &self.metrics
    }

    /// Serialises the combined row state in the checkpoint v1 text
    /// format (shard `1/1`, no embedded telemetry). Byte-identical for
    /// any sharding/resume history over the same corpus — the CI smoke
    /// diffs exactly this text.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] when the method set is empty (see
    /// [`ScanCheckpoint::to_text`]).
    pub fn to_text(&self) -> Result<String, DetectError> {
        self.combined.to_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::{MethodId, MethodSet};
    use crate::stream::FnSource;
    use decamouflage_imaging::{Image, Size};
    use decamouflage_telemetry::MetricsRegistry;

    fn key(i: usize) -> String {
        format!("img-{i:05}")
    }

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(key).collect()
    }

    fn slot_image(index: u64, poisoned: bool) -> Image {
        let mut img = Image::from_fn_gray(16, 16, |x, y| {
            ((x * 7 + y * 13 + index as usize * 29) % 251) as f64
        });
        if poisoned {
            img.set(3, 5, 0, f64::NAN);
        }
        img
    }

    fn methods() -> MethodSet {
        MethodSet::of(&[MethodId::ScalingMse, MethodId::Csp])
    }

    fn scores(mse: f64, csp: f64) -> ScoreVector {
        let mut v = ScoreVector::splat(f64::NAN);
        v.set(MethodId::ScalingMse, mse);
        v.set(MethodId::Csp, csp);
        v
    }

    /// Runs a full sharded scan of `n` generated images (every index in
    /// `poison` NaN-poisoned) and returns the per-shard checkpoints.
    fn scan_all_shards(n: usize, shard_count: usize, poison: &[usize]) -> Vec<ScanCheckpoint> {
        let engine = DetectionEngine::new(Size::square(8));
        let all = keys(n);
        let fingerprint = CorpusFingerprint::of_keys(&all);
        let config = StreamConfig::default().with_threads(2).with_chunk_size(3);
        (0..shard_count)
            .map(|index| {
                let spec = ShardSpec::new(index, shard_count).unwrap();
                let kept = spec.partition(&all);
                let mut source = FnSource::new(kept.len(), |i| {
                    let global = kept[i as usize];
                    slot_image(global as u64, poison.contains(&global))
                });
                let checkpoint = ScanCheckpoint::new(spec, fingerprint, engine.methods());
                scan_shard(&engine, &mut source, &kept, &config, checkpoint, |_| Ok(()), |_, _| {})
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn sharded_scan_merges_back_to_the_eager_oracle() {
        let n = 14;
        let poison = [4, 9];
        let engine = DetectionEngine::new(Size::square(8));
        let shards = scan_all_shards(n, 3, &poison);
        let report = ScanReport::merge(&shards).unwrap();

        // Oracle: one eager resilient pass over the same images.
        let images: Vec<Image> =
            (0..n).map(|i| slot_image(i as u64, poison.contains(&i))).collect();
        let eager = engine.score_images(&images, 2);

        assert_eq!(report.corpus_len(), n);
        assert_eq!(report.scored_indices().len() + report.quarantined().len(), n);
        for (index, result) in eager.into_iter().enumerate() {
            match result {
                Ok(vector) => {
                    let pos = report
                        .scored_indices()
                        .iter()
                        .position(|&g| g == index)
                        .expect("scored in both");
                    for id in report.methods().iter() {
                        assert_eq!(
                            report.columns().column(id)[pos].to_bits(),
                            vector.get(id).to_bits(),
                            "{id:?} at corpus index {index}"
                        );
                    }
                }
                Err(err) => {
                    let rec = report
                        .quarantined()
                        .iter()
                        .find(|rec| rec.index() == index)
                        .expect("quarantined in both");
                    assert_eq!(rec.kind(), err.cause.kind());
                    assert_eq!(rec.message(), err.cause.to_string());
                }
            }
        }
    }

    #[test]
    fn mid_scan_crash_resumes_to_the_identical_checkpoint() {
        let n = 10;
        let engine = DetectionEngine::new(Size::square(8));
        let all = keys(n);
        let fingerprint = CorpusFingerprint::of_keys(&all);
        let spec = ShardSpec::new(0, 2).unwrap();
        let kept = spec.partition(&all);
        assert!(kept.len() >= 2, "fixture shard must own at least two images");
        let config = StreamConfig::default().with_threads(1).with_chunk_size(2);

        let run = |checkpoint: ScanCheckpoint, skip: usize| {
            let mut source = FnSource::new(kept.len() - skip, |i| {
                slot_image(kept[skip + i as usize] as u64, false)
            });
            scan_shard(&engine, &mut source, &kept, &config, checkpoint, |_| Ok(()), |_, _| {})
                .unwrap()
        };
        let straight = run(ScanCheckpoint::new(spec, fingerprint, engine.methods()), 0);

        // Crash after the first row, reload the persisted prefix, resume.
        let crashed = straight.prefix(1);
        let reloaded = ScanCheckpoint::from_text(&crashed.to_text().unwrap()).unwrap();
        reloaded.validate_resume(spec, fingerprint, engine.methods(), &kept).unwrap();
        let resumed = run(reloaded, 1);

        assert_eq!(resumed.to_text().unwrap(), straight.to_text().unwrap());
    }

    #[test]
    fn scan_shard_persists_at_chunk_boundaries_and_at_the_end() {
        let n = 7;
        let engine = DetectionEngine::new(Size::square(8));
        let all = keys(n);
        let spec = ShardSpec::full();
        let config = StreamConfig::default().with_threads(1).with_chunk_size(3);
        let mut persisted = Vec::new();
        let mut seen = Vec::new();
        let mut source = FnSource::new(n, |i| slot_image(i, false));
        let checkpoint =
            ScanCheckpoint::new(spec, CorpusFingerprint::of_keys(&all), engine.methods());
        let final_ckpt = scan_shard(
            &engine,
            &mut source,
            &(0..n).collect::<Vec<_>>(),
            &config,
            checkpoint,
            |c| {
                persisted.push(c.done());
                Ok(())
            },
            |index, _| seen.push(index),
        )
        .unwrap();
        // Boundaries at 3 and 6, then the final persist at 7.
        assert_eq!(persisted, vec![3, 6, 7]);
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
        assert_eq!(final_ckpt.done(), n);
    }

    /// A resume with a chunk size other than the crashed run's persists on
    /// the stream's own chunk boundaries, so each checkpoint's telemetry
    /// counts exactly its rows — even while a helper has already scored
    /// the row after the one being recorded.
    #[test]
    fn a_resume_with_another_chunk_size_counts_telemetry_exactly() {
        use std::time::{Duration, Instant};
        let n = 12;
        let all = keys(n);
        let kept: Vec<usize> = (0..n).collect();
        let fingerprint = CorpusFingerprint::of_keys(&all);
        let fresh = || ScanCheckpoint::new(ShardSpec::full(), fingerprint, methods());
        let engine = DetectionEngine::new(Size::square(8)).with_methods(methods());
        // The crashed run used chunk size 3 and was killed after its first
        // checkpoint: 3 rows, no telemetry carried over.
        let mut source = FnSource::new(n, |i| slot_image(i, false));
        let config = StreamConfig::default().with_threads(1).with_chunk_size(3);
        let crashed =
            scan_shard(&engine, &mut source, &kept, &config, fresh(), |_| Ok(()), |_, _| {})
                .unwrap()
                .prefix(3);

        let engine = engine.with_telemetry(decamouflage_telemetry::Telemetry::enabled());
        let scored = || engine.telemetry().counter("decam_engine_scored_total", &[]).value();
        let mut source = FnSource::new(n - 3, |i| slot_image(3 + i, false));
        let config = StreamConfig::default().with_threads(2).with_chunk_size(2);
        let (mut persisted, mut first, mut scored_ahead) = (Vec::new(), true, false);
        let done = scan_shard(
            &engine,
            &mut source,
            &kept,
            &config,
            crashed,
            |ckpt| {
                let counted = ckpt.metrics().counters.iter().find_map(|(name, _, value)| {
                    (name == "decam_engine_scored_total").then_some(*value)
                });
                persisted.push((ckpt.done(), counted.unwrap_or(0)));
                Ok(())
            },
            |_, _| {
                // Hold the first resumed row until the helper has scored
                // the next one.
                if std::mem::take(&mut first) {
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while scored() < 2 && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    scored_ahead = scored() >= 2;
                }
            },
        )
        .unwrap();
        assert!(scored_ahead, "the helper never scored ahead of the first resumed row");
        assert_eq!(done.done(), n);
        for &(rows, counted) in &persisted {
            assert_eq!(counted, (rows - 3) as u64, "the checkpoint at row {rows}");
        }
        let rows: Vec<usize> = persisted.iter().map(|&(rows, _)| rows).collect();
        assert_eq!(rows, [5, 7, 9, 11, 12], "the stream's chunk boundaries, then the end");
    }

    /// A source of `count` images that counts its pulls.
    struct CountedSource<'a> {
        next: u64,
        count: u64,
        pulls: &'a std::cell::Cell<usize>,
    }

    impl ImageSource for CountedSource<'_> {
        fn next_image(
            &mut self,
            _alloc: decamouflage_imaging::codec::SampleAlloc<'_>,
        ) -> Option<crate::stream::SourceItem> {
            (self.next < self.count).then(|| {
                self.pulls.set(self.pulls.get() + 1);
                self.next += 1;
                Ok(crate::stream::Pulled::Image(slot_image(self.next - 1, false)))
            })
        }
    }

    /// A failed checkpoint write stops the scan: nothing is pulled past
    /// the boundary whose persist failed, and the error comes back.
    #[test]
    fn a_failed_persist_stops_pulling() {
        let engine = DetectionEngine::new(Size::square(8));
        let chunk = 4;
        let n = 10 * chunk;
        let all = keys(n);
        let kept: Vec<usize> = (0..n).collect();
        for threads in [1, 2] {
            let pulls = std::cell::Cell::new(0);
            let mut source = CountedSource { next: 0, count: n as u64, pulls: &pulls };
            let config = StreamConfig::default().with_threads(threads).with_chunk_size(chunk);
            let checkpoint = ScanCheckpoint::new(
                ShardSpec::full(),
                CorpusFingerprint::of_keys(&all),
                engine.methods(),
            );
            let mut printed = 0;
            let err = scan_shard(
                &engine,
                &mut source,
                &kept,
                &config,
                checkpoint,
                |_| Err(DetectError::InvalidConfig { message: "disk full".into() }),
                |_, _| printed += 1,
            )
            .unwrap_err();
            assert!(err.to_string().contains("disk full"), "{err}");
            assert_eq!(printed, chunk, "threads {threads}: rows up to the failed boundary");
            assert_eq!(pulls.get(), chunk, "threads {threads}: pulls for a failure at row {chunk}");
        }
    }

    #[test]
    fn scan_shard_refuses_a_corpus_that_changed_size() {
        let engine = DetectionEngine::new(Size::square(8));
        let all = keys(5);
        let spec = ShardSpec::full();
        let config = StreamConfig::default().with_threads(1);
        // The shard claims five images but the source only has three.
        let mut source = FnSource::new(3, |i| slot_image(i, false));
        let err = scan_shard(
            &engine,
            &mut source,
            &[0, 1, 2, 3, 4],
            &config,
            ScanCheckpoint::new(spec, CorpusFingerprint::of_keys(&all), engine.methods()),
            |_| Ok(()),
            |_, _| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("source ended after 3 of the 5"), "{err}");
    }

    fn manual_checkpoint(
        spec: ShardSpec,
        fingerprint: CorpusFingerprint,
        rows: &[(usize, Result<ScoreVector, ScoreError>)],
    ) -> ScanCheckpoint {
        let mut ckpt = ScanCheckpoint::new(spec, fingerprint, methods());
        for (index, result) in rows {
            ckpt.record(*index, result).unwrap();
        }
        ckpt
    }

    #[test]
    fn merge_validates_its_inputs() {
        let fp = CorpusFingerprint::of_keys(keys(4));
        let other_fp = CorpusFingerprint::of_keys(keys(5));
        let s1 = ShardSpec::new(0, 2).unwrap();
        let s2 = ShardSpec::new(1, 2).unwrap();
        let half1 =
            manual_checkpoint(s1, fp, &[(0, Ok(scores(1.0, 0.0))), (2, Ok(scores(2.0, 0.0)))]);
        let half2 =
            manual_checkpoint(s2, fp, &[(1, Ok(scores(3.0, 1.0))), (3, Ok(scores(4.0, 2.0)))]);

        let cases: Vec<(Vec<ScanCheckpoint>, &str)> = vec![
            (vec![], "cannot merge zero checkpoints"),
            (vec![half1.clone(), half1.clone()], "appears twice"),
            (vec![half1.clone()], "shard 2/2 is missing"),
            (
                vec![half1.clone(), manual_checkpoint(ShardSpec::full(), fp, &[])],
                "different shard count",
            ),
            (vec![half1.clone(), manual_checkpoint(s2, other_fp, &[])], "different corpus"),
            (
                vec![half1.clone(), manual_checkpoint(s2, fp, &[(1, Ok(scores(3.0, 1.0)))])],
                "shards record 3 of 4",
            ),
            (
                vec![half1.clone(), {
                    let narrower = MethodSet::of(&[MethodId::ScalingMse]);
                    ScanCheckpoint::new(s2, fp, narrower)
                }],
                "different method set",
            ),
        ];
        for (shards, needle) in cases {
            let err = ScanReport::merge(&shards).unwrap_err();
            assert!(matches!(err, DetectError::CheckpointMismatch { .. }), "{err}");
            assert!(err.to_string().contains(needle), "{needle:?} not in {err}");
        }

        let report = ScanReport::merge(&[half2, half1]).unwrap();
        assert_eq!(report.scored_indices(), &[0, 1, 2, 3]);
        assert_eq!(report.columns().column(MethodId::ScalingMse), &[1.0, 3.0, 2.0, 4.0]);
        assert_eq!(report.columns().column(MethodId::Csp), &[0.0, 1.0, 0.0, 2.0]);
    }

    #[test]
    fn merge_detects_cross_shard_duplicate_indices() {
        let fp = CorpusFingerprint::of_keys(keys(4));
        let s1 = ShardSpec::new(0, 2).unwrap();
        let s2 = ShardSpec::new(1, 2).unwrap();
        // Both shards record index 1; index 3 is nobody's. Totals match.
        let a = manual_checkpoint(s1, fp, &[(0, Ok(scores(1.0, 0.0))), (1, Ok(scores(2.0, 0.0)))]);
        let b = manual_checkpoint(s2, fp, &[(1, Ok(scores(3.0, 0.0))), (2, Ok(scores(4.0, 0.0)))]);
        let err = ScanReport::merge(&[a, b]).unwrap_err();
        assert!(err.to_string().contains("recorded by no shard"), "{err}");
    }

    #[test]
    fn merged_histogram_moments_are_the_sum_of_the_shards() {
        let fp = CorpusFingerprint::of_keys(keys(2));
        let s1 = ShardSpec::new(0, 2).unwrap();
        let s2 = ShardSpec::new(1, 2).unwrap();
        let shard_metrics = |values: &[f64], scans: u64| {
            let registry = MetricsRegistry::new();
            let hist = registry.histogram("decode_seconds", &[]);
            for &v in values {
                hist.record(v);
            }
            registry.counter("scans_total", &[]).add(scans);
            registry.snapshot()
        };
        let mut a = manual_checkpoint(s1, fp, &[(0, Ok(scores(1.0, 0.0)))]);
        a.set_metrics(shard_metrics(&[0.25, 1.5], 1));
        let mut b = manual_checkpoint(s2, fp, &[(1, Ok(scores(2.0, 0.0)))]);
        b.set_metrics(shard_metrics(&[0.75], 2));

        let report = ScanReport::merge(&[a, b]).unwrap();
        let reference = shard_metrics(&[0.25, 1.5, 0.75], 3);
        assert_eq!(report.metrics(), &reference);
        // And the report text itself carries no telemetry at all.
        let text = report.to_text().unwrap();
        assert!(!text.contains("hist "), "{text}");
        assert!(!text.contains("counter "), "{text}");
        let roundtrip = ScanCheckpoint::from_text(&text).unwrap();
        assert_eq!(roundtrip.metrics(), &RegistrySnapshot::default());
    }
}
