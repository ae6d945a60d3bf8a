//! Deterministic fault injection for testing the quarantine layer.
//!
//! A production screening deployment has to keep serving when one image
//! misbehaves. Proving that requires *causing* the misbehaviour on demand:
//! this module provides a seed-driven, fully deterministic [`FaultPlan`]
//! (which scoring indices fail, and how), consumed by
//! [`DetectionEngine::with_fault_plan`](crate::DetectionEngine::with_fault_plan).
//! The engine fires plan entries by stream / batch fan-out index inside
//! [`score_stream`](crate::DetectionEngine::score_stream) and its eager
//! facade [`score_corpus_resilient`](crate::DetectionEngine::score_corpus_resilient),
//! so an injected panic travels the exact worker-pool → `catch_unwind` →
//! quarantine path a real deep panic would, and an injected NaN score
//! reaches [`Ensemble::vote`](crate::Ensemble::vote) like a real one.
//!
//! Nothing here is test-gated: fault injection is a first-class operational
//! tool (staging canaries, chaos drills), not a unit-test convenience.

use std::collections::BTreeMap;

/// What an armed fault site does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return a typed error ([`ScoreFault::Injected`](crate::ScoreFault::Injected)).
    Error,
    /// Panic with a recognisable payload, exercising the unwind path.
    Panic,
    /// Report a `NaN` score, exercising the missing-score ensemble policy.
    NanScore,
}

/// A deterministic schedule of faults keyed by scoring index.
///
/// Build one by listing indices explicitly ([`FaultPlan::with`]), by
/// seed-driven scatter over a range ([`FaultPlan::scattered`]), or as a
/// blanket failure ([`FaultPlan::always`]). The same inputs always produce
/// the same plan, so a failing fault-injection run reproduces exactly.
///
/// # Example
///
/// ```
/// use decamouflage_core::faults::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new().with(3, FaultKind::Panic).with(7, FaultKind::Error);
/// assert_eq!(plan.get(3), Some(FaultKind::Panic));
/// assert_eq!(plan.get(4), None);
/// assert_eq!(plan.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<usize, FaultKind>,
    always: Option<FaultKind>,
}

impl FaultPlan {
    /// An empty plan (no faults fire).
    pub fn new() -> Self {
        Self::default()
    }

    /// A plan where *every* index fires `kind` (explicit entries take
    /// precedence).
    pub fn always(kind: FaultKind) -> Self {
        Self { faults: BTreeMap::new(), always: Some(kind) }
    }

    /// Arms `kind` at `index` (builder style).
    #[must_use]
    pub fn with(mut self, index: usize, kind: FaultKind) -> Self {
        self.faults.insert(index, kind);
        self
    }

    /// Arms `kind` at `count` distinct indices drawn deterministically from
    /// `0..range` by a SplitMix64 stream over `seed`. The same
    /// `(seed, count, range)` always selects the same indices.
    ///
    /// # Panics
    ///
    /// Panics if `count > range` — the plan could never hold that many
    /// distinct indices.
    pub fn scattered(seed: u64, count: usize, range: usize, kind: FaultKind) -> Self {
        assert!(count <= range, "cannot scatter {count} faults over {range} indices");
        let mut plan = Self::new();
        let mut state = seed;
        let mut armed = 0usize;
        while armed < count {
            state = splitmix64(state);
            let index = (state % range as u64) as usize;
            if plan.faults.insert(index, kind).is_none() {
                armed += 1;
            }
        }
        plan
    }

    /// The fault armed at `index`, if any.
    pub fn get(&self, index: usize) -> Option<FaultKind> {
        self.faults.get(&index).copied().or(self.always)
    }

    /// Number of explicitly armed indices (a blanket [`FaultPlan::always`]
    /// plan counts zero here).
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan fires nowhere.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.always.is_none()
    }

    /// The explicitly armed indices, ascending.
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.faults.keys().copied()
    }
}

/// One step of the SplitMix64 stream (the same avalanche the dataset
/// profiles use for their deterministic sample derivation).
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        for i in 0..32 {
            assert_eq!(plan.get(i), None);
        }
    }

    #[test]
    fn explicit_entries_override_the_blanket_kind() {
        let plan = FaultPlan::always(FaultKind::Error).with(2, FaultKind::NanScore);
        assert!(!plan.is_empty());
        assert_eq!(plan.get(0), Some(FaultKind::Error));
        assert_eq!(plan.get(2), Some(FaultKind::NanScore));
    }

    #[test]
    fn scattered_is_deterministic_per_seed() {
        let a = FaultPlan::scattered(42, 5, 100, FaultKind::Panic);
        let b = FaultPlan::scattered(42, 5, 100, FaultKind::Panic);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.indices().all(|i| i < 100));
        let c = FaultPlan::scattered(43, 5, 100, FaultKind::Panic);
        assert_ne!(a, c, "different seeds should scatter differently");
    }

    #[test]
    fn scattered_saturating_the_range_covers_it() {
        let plan = FaultPlan::scattered(7, 8, 8, FaultKind::Error);
        assert_eq!(plan.indices().collect::<Vec<_>>(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot scatter")]
    fn scattered_rejects_impossible_counts() {
        let _ = FaultPlan::scattered(1, 9, 8, FaultKind::Error);
    }
}
