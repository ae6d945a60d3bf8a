//! Property test for the streaming tentpole's core guarantee:
//! [`DetectionEngine::score_stream`] over a slice-backed source is
//! bit-identical to the eager [`DetectionEngine::score_images`] batch over
//! the same slice — same scores to the bit, same quarantine errors at the
//! same indices — for *any* chunk size, with injected faults and poisoned
//! images in the mix. The oracle shares only the per-image slot with the
//! stream, not its chunk driver.

use decamouflage_core::faults::{FaultKind, FaultPlan};
use decamouflage_core::{
    DetectionEngine, MethodId, ScoreError, ScoreVector, SliceSource, StreamConfig,
};
use decamouflage_imaging::{Image, Size};
use proptest::prelude::*;
use std::ops::ControlFlow;

const THREADS: usize = 4;

/// A deterministic benign-looking scene, varied per index; `poisoned`
/// plants one NaN pixel so the slot quarantines in validation.
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

/// Fault codes: 0 = clean slot, 1 = panic, 2 = typed error, 3 = NaN score.
fn build_plan(faults: &[u8]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for (index, fault) in faults.iter().enumerate() {
        plan = match fault {
            1 => plan.with(index, FaultKind::Panic),
            2 => plan.with(index, FaultKind::Error),
            3 => plan.with(index, FaultKind::NanScore),
            _ => plan,
        };
    }
    plan
}

/// Flattens an outcome slot into a comparable form: per-method score bits
/// for survivors, `(index, fault kind, display)` for quarantined slots.
fn fingerprint(
    result: &Result<ScoreVector, ScoreError>,
) -> Result<Vec<u64>, (usize, String, String)> {
    match result {
        Ok(scores) => Ok(MethodId::ALL.iter().map(|&id| scores.get(id).to_bits()).collect()),
        Err(err) => Err((err.index, err.cause.kind().to_string(), err.to_string())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn score_stream_is_bit_identical_to_the_eager_batch_for_any_chunk_size(
        count in 1usize..5,
        poisoned in proptest::collection::vec(any::<bool>(), 10),
        faults in proptest::collection::vec(0u8..4, 10),
    ) {
        let total = 2 * count;
        let images: Vec<Image> =
            (0..total).map(|i| slot_image(i, poisoned[i])).collect();
        let plan = build_plan(&faults[..total]);

        let engine = DetectionEngine::new(Size::square(8)).with_fault_plan(plan);
        let eager: Vec<_> = engine.score_images(&images, THREADS).iter().map(fingerprint).collect();

        for chunk_size in [1, 3, total, total + 7] {
            let config = StreamConfig::default()
                .with_chunk_size(chunk_size)
                .with_threads(THREADS);
            let mut streamed: Vec<(usize, Result<ScoreVector, ScoreError>)> =
                Vec::with_capacity(total);
            let summary = engine.score_stream(
                &mut SliceSource::new(&images),
                &config,
                |index, result| {
                    streamed.push((index, result));
                    ControlFlow::Continue(())
                },
            );
            for (slot, (index, _)) in streamed.iter().enumerate() {
                prop_assert_eq!(*index, slot, "results arrive in stream order");
            }
            prop_assert_eq!(summary.items, total);
            prop_assert!(summary.peak_chunk <= chunk_size, "peak chunk bounded by config");
            let streamed: Vec<_> = streamed.iter().map(|(_, r)| fingerprint(r)).collect();
            prop_assert_eq!(&streamed, &eager, "chunk size {} diverged", chunk_size);
        }
    }
}
