//! Property test for the shard/checkpoint/merge tentpole's guarantee: a
//! corpus scanned in N hash-partitioned shards — each killed at an
//! arbitrary point, resumed from its last persisted checkpoint, and
//! finally merged — is **bit-identical** to one eager
//! [`DetectionEngine::score_images`] pass: same scores to the bit, same
//! quarantine kinds and messages at the same corpus indices, and one
//! canonical merged report text regardless of shard count, kill point, or
//! chunk size. Its merged telemetry counts exactly what one uninterrupted
//! scan counts: nothing scored past a persist boundary reaches the
//! checkpoint written there.

use decamouflage_core::{
    scan_shard, CorpusFingerprint, DetectionEngine, FnSource, ScanCheckpoint, ScanReport,
    ShardSpec, StreamConfig,
};
use decamouflage_imaging::{Image, Size};
use decamouflage_telemetry::{Labels, RegistrySnapshot, Telemetry};
use proptest::prelude::*;

const THREADS: usize = 4;
const MAX_SHARDS: usize = 7;

fn key(index: usize) -> String {
    format!("img-{index:05}")
}

/// A deterministic benign-looking scene, varied per index; `poisoned`
/// plants one NaN pixel so the slot quarantines in validation. Faults
/// are content-borne (not injected by position) so every sharding of the
/// same corpus quarantines the same images.
fn slot_image(index: usize, poisoned: bool) -> Image {
    let mut image = Image::from_fn_gray(16, 16, move |x, y| {
        (120.0 + 60.0 * ((x as f64 + index as f64) * 0.07).sin() + 40.0 * ((y as f64) * 0.05).cos())
            .round()
    });
    if poisoned {
        image.set(3, 5, 0, f64::NAN);
    }
    image
}

/// What a kill and resume must count exactly: the scored and quarantined
/// counters, and the sample count of every engine latency series.
fn exact_counts(snapshot: &RegistrySnapshot) -> Vec<(String, Labels, u64)> {
    let counters = snapshot
        .counters
        .iter()
        .filter(|(name, ..)| {
            matches!(name.as_str(), "decam_engine_scored_total" | "decam_engine_quarantined_total")
        })
        .cloned();
    let samples = snapshot
        .histograms
        .iter()
        .filter(|(name, ..)| {
            matches!(
                name.as_str(),
                "decam_engine_score_seconds"
                    | "decam_engine_stage_seconds"
                    | "decam_method_score_seconds"
            )
        })
        .map(|(name, labels, histogram)| (name.clone(), labels.clone(), histogram.count()));
    counters.chain(samples).collect()
}

/// `engine` recording into a fresh registry, as in a new process.
fn in_new_process(engine: &DetectionEngine) -> DetectionEngine {
    engine.clone().with_telemetry(Telemetry::enabled())
}

/// Scans one shard with a simulated crash: the scan dies the first time
/// a persist would land after `kill` rows, the shard is then re-opened
/// from the last successfully persisted text (or from scratch when the
/// crash predates the first persist) and driven to completion — the
/// exact recovery workflow of `scan --resume`. Each run streams the
/// shard's own images past the resume point, as a directory restricted
/// to the shard and skipped past the checkpoint does, and records into
/// its own fresh telemetry registry, as a new process would.
fn scan_shard_with_crash(
    engine: &DetectionEngine,
    spec: ShardSpec,
    keys: &[String],
    poisoned: &[bool],
    config: &StreamConfig,
    kill: usize,
) -> ScanCheckpoint {
    let fingerprint = CorpusFingerprint::of_keys(keys);
    let kept = spec.partition(keys);
    let open_source = |skip: usize| {
        let rest = &kept[skip..];
        FnSource::new(rest.len(), move |i| {
            let global = rest[i as usize];
            slot_image(global, poisoned[global])
        })
    };

    let mut last_persisted: Option<String> = None;
    let fresh = ScanCheckpoint::new(spec, fingerprint, engine.methods());
    let crashed = scan_shard(
        &in_new_process(engine),
        &mut open_source(0),
        &kept,
        config,
        fresh.clone(),
        |checkpoint| {
            if checkpoint.done() > kill {
                return Err(decamouflage_core::DetectError::InvalidConfig {
                    message: "simulated crash".to_string(),
                });
            }
            last_persisted = Some(checkpoint.to_text().expect("checkpoint serialises"));
            Ok(())
        },
        |_, _| {},
    );

    let resumed_from = match (&crashed, last_persisted) {
        // The shard finished before the kill point fired.
        (Ok(_), Some(text)) => ScanCheckpoint::from_text(&text).expect("persisted text parses"),
        // Crashed before the first persist: recover from scratch.
        (Err(_), None) => fresh,
        (Err(_), Some(text)) => ScanCheckpoint::from_text(&text).expect("persisted text parses"),
        (Ok(_), None) => unreachable!("scan_shard always persists the final checkpoint"),
    };
    resumed_from
        .validate_resume(spec, fingerprint, engine.methods(), &kept)
        .expect("persisted checkpoint must be resumable");
    let skip = resumed_from.done();
    let resumed = in_new_process(engine);
    scan_shard(&resumed, &mut open_source(skip), &kept, config, resumed_from, |_| Ok(()), |_, _| {})
        .expect("resumed scan completes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sharded_resumed_merged_scans_are_bit_identical_to_the_eager_pass(
        count in 1usize..5,
        poisoned in proptest::collection::vec(any::<bool>(), 10),
        kills in proptest::collection::vec(any::<usize>(), MAX_SHARDS),
        chunk_size in 1usize..6,
    ) {
        let total = 2 * count;
        let keys: Vec<String> = (0..total).map(key).collect();
        let engine = DetectionEngine::new(Size::square(8));
        let config = StreamConfig::default()
            .with_chunk_size(chunk_size)
            .with_threads(THREADS);

        // Oracle: one eager resilient batch over the same images.
        let images: Vec<Image> = (0..total).map(|i| slot_image(i, poisoned[i])).collect();
        let eager = engine.score_images(&images, THREADS);
        // Telemetry oracle: one uninterrupted, unsharded scan.
        let uninterrupted = {
            let mut source =
                FnSource::new(total, |i| slot_image(i as usize, poisoned[i as usize]));
            let fingerprint = CorpusFingerprint::of_keys(&keys);
            let fresh = ScanCheckpoint::new(ShardSpec::full(), fingerprint, engine.methods());
            let kept: Vec<usize> = (0..total).collect();
            let done = scan_shard(
                &in_new_process(&engine),
                &mut source,
                &kept,
                &config,
                fresh,
                |_| Ok(()),
                |_, _| {},
            )
            .unwrap();
            exact_counts(done.metrics())
        };

        let mut canonical_text: Option<String> = None;
        for shard_count in [1usize, 2, 3, MAX_SHARDS] {
            let checkpoints: Vec<ScanCheckpoint> = (0..shard_count)
                .map(|index| {
                    let spec = ShardSpec::new(index, shard_count).unwrap();
                    let owned = spec.partition(&keys).len();
                    scan_shard_with_crash(
                        &engine,
                        spec,
                        &keys,
                        &poisoned,
                        &config,
                        kills[index] % (owned + 1),
                    )
                })
                .collect();
            let report = ScanReport::merge(&checkpoints).unwrap();

            // Same outcome at every corpus index, bit for bit.
            prop_assert_eq!(report.corpus_len(), total);
            prop_assert_eq!(
                report.scored_indices().len() + report.quarantined().len(),
                total
            );
            for (pos, &global) in report.scored_indices().iter().enumerate() {
                let vector = eager[global].as_ref().expect("scored in the eager pass too");
                for id in report.methods().iter() {
                    prop_assert_eq!(
                        report.columns().column(id)[pos].to_bits(),
                        vector.get(id).to_bits(),
                        "method {} at corpus index {}", id, global
                    );
                }
            }
            for record in report.quarantined() {
                let err = eager[record.index()]
                    .as_ref()
                    .expect_err("quarantined in the eager pass too");
                prop_assert_eq!(record.kind(), err.cause.kind());
                prop_assert_eq!(record.message(), err.cause.to_string());
            }

            // The same counts as one uninterrupted scan: no kill counted
            // a position past its last persisted row twice.
            prop_assert_eq!(
                exact_counts(report.metrics()),
                uninterrupted.clone(),
                "telemetry diverged at {} shards", shard_count
            );

            // And one canonical report text across all sharding histories.
            let text = report.to_text().unwrap();
            match &canonical_text {
                None => canonical_text = Some(text),
                Some(reference) => prop_assert_eq!(
                    &text, reference,
                    "report text diverged at {} shards", shard_count
                ),
            }
        }
    }
}
