//! The typed detection-method registry.
//!
//! Every detection method the framework knows has a [`MethodId`]. The id
//! carries the method's stable report name (`"scaling/mse"`-style), its
//! decision [`Direction`], and whether black-box deployment can skip
//! calibration ([`MethodId::fixed_blackbox_threshold`]). Scores travel as a
//! dense [`ScoreVector`] indexed by id, and engines enable or disable
//! methods through a [`MethodSet`] bitset.
//!
//! Adding a method is a *one-registration* change: add the variant here
//! (name + direction), give it an arm in the engine pass
//! ([`DetectionEngine::score`](crate::engine::DetectionEngine::score)) and
//! one in its naive reference
//! ([`DetectionEngine::reference_score`](crate::engine::DetectionEngine::reference_score)).
//! Every other layer — calibration, persistence, ensembles, evaluation,
//! ROC, reports, the experiment harness — iterates [`MethodId::ALL`] and
//! picks the new method up automatically.
//!
//! # Example
//!
//! ```
//! use decamouflage_core::{MethodId, ScoreVector};
//!
//! let mut scores = ScoreVector::splat(0.0);
//! scores.set(MethodId::Csp, 3.0);
//! assert_eq!(scores.get(MethodId::Csp), 3.0);
//! assert_eq!(MethodId::Csp.name(), "steganalysis/csp");
//! assert_eq!(MethodId::from_name("scaling/mse"), Some(MethodId::ScalingMse));
//! assert_eq!(MethodId::ALL.len(), MethodId::COUNT);
//! ```

use crate::threshold::{Direction, Threshold};
use std::fmt;
use std::str::FromStr;

/// The similarity metric a spatial-domain method compares with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Mean squared error — large values indicate an attack.
    Mse,
    /// Structural similarity — small values indicate an attack.
    Ssim,
}

impl MetricKind {
    /// The decision direction this metric implies.
    pub const fn direction(&self) -> Direction {
        match self {
            MetricKind::Mse => Direction::AboveIsAttack,
            MetricKind::Ssim => Direction::BelowIsAttack,
        }
    }

    /// Stable lowercase name used in reports.
    pub const fn name(&self) -> &'static str {
        match self {
            MetricKind::Mse => "mse",
            MetricKind::Ssim => "ssim",
        }
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Identifier of one detection method: the paper's five `(method, metric)`
/// pairs plus the continuous peak-excess extension.
///
/// The discriminant doubles as the index into a [`ScoreVector`], so the
/// declaration order is the canonical report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MethodId {
    /// Scaling detection (round-trip residual), MSE metric.
    ScalingMse,
    /// Scaling detection (round-trip residual), SSIM metric.
    ScalingSsim,
    /// Filtering detection (minimum-filter residual), MSE metric.
    FilteringMse,
    /// Filtering detection (minimum-filter residual), SSIM metric.
    FilteringSsim,
    /// Steganalysis: centered-spectrum-point count.
    Csp,
    /// Steganalysis extension: windowed radial peak excess.
    PeakExcess,
    /// Test-only seventh method proving the one-registration contract:
    /// scores the image's mean intensity.
    #[cfg(test)]
    DummyMean,
}

impl MethodId {
    /// Every registered method, in canonical (declaration) order.
    #[cfg(not(test))]
    pub const ALL: &'static [MethodId] = &[
        MethodId::ScalingMse,
        MethodId::ScalingSsim,
        MethodId::FilteringMse,
        MethodId::FilteringSsim,
        MethodId::Csp,
        MethodId::PeakExcess,
    ];

    /// Every registered method, in canonical (declaration) order.
    #[cfg(test)]
    pub const ALL: &'static [MethodId] = &[
        MethodId::ScalingMse,
        MethodId::ScalingSsim,
        MethodId::FilteringMse,
        MethodId::FilteringSsim,
        MethodId::Csp,
        MethodId::PeakExcess,
        MethodId::DummyMean,
    ];

    /// Number of registered methods (the length of a [`ScoreVector`]).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable report name, e.g. `"scaling/mse"`. These strings are the
    /// on-disk keys of [`crate::persist::ThresholdSet`] and the member
    /// names in ensemble decisions, so they never change.
    pub const fn name(self) -> &'static str {
        match self {
            MethodId::ScalingMse => "scaling/mse",
            MethodId::ScalingSsim => "scaling/ssim",
            MethodId::FilteringMse => "filtering/mse",
            MethodId::FilteringSsim => "filtering/ssim",
            MethodId::Csp => "steganalysis/csp",
            MethodId::PeakExcess => "steganalysis/peak-excess",
            #[cfg(test)]
            MethodId::DummyMean => "test/dummy-mean",
        }
    }

    /// Which side of a threshold indicates an attack for this method.
    pub const fn direction(self) -> Direction {
        match self {
            MethodId::ScalingMse
            | MethodId::FilteringMse
            | MethodId::Csp
            | MethodId::PeakExcess => Direction::AboveIsAttack,
            MethodId::ScalingSsim | MethodId::FilteringSsim => Direction::BelowIsAttack,
            #[cfg(test)]
            MethodId::DummyMean => Direction::AboveIsAttack,
        }
    }

    /// The similarity metric behind a spatial-domain method, if any.
    pub const fn metric(self) -> Option<MetricKind> {
        match self {
            MethodId::ScalingMse | MethodId::FilteringMse => Some(MetricKind::Mse),
            MethodId::ScalingSsim | MethodId::FilteringSsim => Some(MetricKind::Ssim),
            _ => None,
        }
    }

    /// The scaling-detection method under `metric`.
    pub const fn scaling(metric: MetricKind) -> Self {
        match metric {
            MetricKind::Mse => MethodId::ScalingMse,
            MetricKind::Ssim => MethodId::ScalingSsim,
        }
    }

    /// The filtering-detection method under `metric`.
    pub const fn filtering(metric: MetricKind) -> Self {
        match metric {
            MetricKind::Mse => MethodId::FilteringMse,
            MetricKind::Ssim => MethodId::FilteringSsim,
        }
    }

    /// Looks a method up by its stable report name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|id| id.name() == name)
    }

    /// The fixed threshold this method uses in black-box deployments, if
    /// it needs no calibration at all. Only [`MethodId::Csp`] qualifies:
    /// the paper's `CSP_T = 2` is dataset-independent because the CSP
    /// count is a small integer with an absolute meaning (number of bright
    /// spectral blobs). Continuous scores like peak excess have no such
    /// universal scale and go through white-box or black-box calibration
    /// like the spatial methods.
    pub fn fixed_blackbox_threshold(self) -> Option<Threshold> {
        match self {
            MethodId::Csp => Some(Threshold::new(
                crate::steganalysis::CSP_UNIVERSAL_THRESHOLD,
                Direction::AboveIsAttack,
            )),
            _ => None,
        }
    }
}

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown method name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownMethod(pub String);

impl fmt::Display for UnknownMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown detection method {:?}", self.0)
    }
}

impl std::error::Error for UnknownMethod {}

impl FromStr for MethodId {
    type Err = UnknownMethod;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::from_name(s).ok_or_else(|| UnknownMethod(s.to_string()))
    }
}

/// One score per registered method, densely indexed by [`MethodId`].
///
/// Methods an engine did not score (because they were disabled through its
/// [`MethodSet`]) hold `NaN`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreVector {
    values: [f64; MethodId::COUNT],
}

impl ScoreVector {
    /// Creates a vector with every slot set to `value`.
    pub const fn splat(value: f64) -> Self {
        Self { values: [value; MethodId::COUNT] }
    }

    /// The score of one method.
    pub const fn get(&self, id: MethodId) -> f64 {
        self.values[id as usize]
    }

    /// Sets the score of one method.
    pub fn set(&mut self, id: MethodId, value: f64) {
        self.values[id as usize] = value;
    }

    /// Iterates `(id, score)` pairs in canonical method order.
    pub fn iter(&self) -> impl Iterator<Item = (MethodId, f64)> + '_ {
        MethodId::ALL.iter().map(move |&id| (id, self.values[id as usize]))
    }

    /// Scaling score under `metric` (thin shim over [`ScoreVector::get`]).
    pub fn scaling(&self, metric: MetricKind) -> f64 {
        self.get(MethodId::scaling(metric))
    }

    /// Filtering score under `metric` (thin shim over [`ScoreVector::get`]).
    pub fn filtering(&self, metric: MetricKind) -> f64 {
        self.get(MethodId::filtering(metric))
    }

    /// Scaling/MSE score (field-style shim).
    pub fn scaling_mse(&self) -> f64 {
        self.get(MethodId::ScalingMse)
    }

    /// Scaling/SSIM score (field-style shim).
    pub fn scaling_ssim(&self) -> f64 {
        self.get(MethodId::ScalingSsim)
    }

    /// Filtering/MSE score (field-style shim).
    pub fn filtering_mse(&self) -> f64 {
        self.get(MethodId::FilteringMse)
    }

    /// Filtering/SSIM score (field-style shim).
    pub fn filtering_ssim(&self) -> f64 {
        self.get(MethodId::FilteringSsim)
    }

    /// CSP count (field-style shim).
    pub fn csp(&self) -> f64 {
        self.get(MethodId::Csp)
    }

    /// Peak-excess score (field-style shim).
    pub fn peak_excess(&self) -> f64 {
        self.get(MethodId::PeakExcess)
    }
}

impl std::ops::Index<MethodId> for ScoreVector {
    type Output = f64;

    fn index(&self, id: MethodId) -> &f64 {
        &self.values[id as usize]
    }
}

impl std::ops::IndexMut<MethodId> for ScoreVector {
    fn index_mut(&mut self, id: MethodId) -> &mut f64 {
        &mut self.values[id as usize]
    }
}

/// A set of [`MethodId`]s as a bitset, for enabling/disabling methods per
/// engine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MethodSet {
    bits: u32,
}

impl MethodSet {
    /// The empty set.
    pub const fn empty() -> Self {
        Self { bits: 0 }
    }

    /// The set of every registered method.
    pub const fn all() -> Self {
        let mut bits = 0u32;
        let mut i = 0;
        while i < MethodId::COUNT {
            bits |= 1 << (MethodId::ALL[i] as u32);
            i += 1;
        }
        Self { bits }
    }

    /// A set containing exactly the given methods.
    pub fn of(ids: &[MethodId]) -> Self {
        let mut set = Self::empty();
        for &id in ids {
            set.insert(id);
        }
        set
    }

    /// Adds `id`; returns whether it was newly inserted.
    pub fn insert(&mut self, id: MethodId) -> bool {
        let fresh = !self.contains(id);
        self.bits |= 1 << (id as u32);
        fresh
    }

    /// Removes `id`; returns whether it was present.
    pub fn remove(&mut self, id: MethodId) -> bool {
        let present = self.contains(id);
        self.bits &= !(1 << (id as u32));
        present
    }

    /// Builder-style insert.
    #[must_use]
    pub fn with(mut self, id: MethodId) -> Self {
        self.insert(id);
        self
    }

    /// Builder-style remove.
    #[must_use]
    pub fn without(mut self, id: MethodId) -> Self {
        self.remove(id);
        self
    }

    /// Whether `id` is in the set.
    pub const fn contains(&self, id: MethodId) -> bool {
        self.bits & (1 << (id as u32)) != 0
    }

    /// Number of methods in the set.
    pub const fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether the set is empty.
    pub const fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Iterates the members in canonical method order.
    pub fn iter(self) -> impl Iterator<Item = MethodId> {
        MethodId::ALL.iter().copied().filter(move |&id| self.contains(id))
    }
}

// `Debug` lists member names rather than raw bits.
impl fmt::Debug for MethodSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut set = f.debug_set();
        for id in self.iter() {
            set.entry(&id.name());
        }
        set.finish()
    }
}

impl FromIterator<MethodId> for MethodSet {
    fn from_iter<I: IntoIterator<Item = MethodId>>(iter: I) -> Self {
        let mut set = Self::empty();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

/// Per-method score columns, filled in **one pass** over a sequence of
/// [`ScoreVector`]s. Calibration, ROC and evaluation all need the scores
/// of a corpus transposed method-wise; collecting a fresh `Vec<f64>` per
/// method re-walks the corpus [`MethodId::COUNT`] times. A `ScoreColumns`
/// walks it once — push each vector as it arrives (streamed scoring feeds
/// it incrementally) and borrow the finished columns.
#[derive(Debug, Clone)]
pub struct ScoreColumns {
    methods: MethodSet,
    columns: [Vec<f64>; MethodId::COUNT],
    rows: usize,
}

impl ScoreColumns {
    /// Empty columns for the given methods.
    pub fn new(methods: MethodSet) -> Self {
        Self { methods, columns: std::array::from_fn(|_| Vec::new()), rows: 0 }
    }

    /// Transposes an already-materialised slice of score vectors.
    pub fn from_vectors(methods: MethodSet, vectors: &[ScoreVector]) -> Self {
        let mut columns = Self::new(methods);
        for vector in vectors {
            columns.push(vector);
        }
        columns
    }

    /// Appends one row: each tracked method's score, in a single
    /// traversal of the vector.
    pub fn push(&mut self, scores: &ScoreVector) {
        for id in self.methods.iter() {
            self.columns[id as usize].push(scores.get(id));
        }
        self.rows += 1;
    }

    /// The tracked methods.
    pub const fn methods(&self) -> MethodSet {
        self.methods
    }

    /// Borrows one method's column, in push order. Columns of untracked
    /// methods are empty.
    pub fn column(&self, id: MethodId) -> &[f64] {
        &self.columns[id as usize]
    }

    /// Number of rows pushed.
    pub const fn len(&self) -> usize {
        self.rows
    }

    /// Whether no rows were pushed.
    pub const fn is_empty(&self) -> bool {
        self.rows == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_through_names() {
        for &id in MethodId::ALL {
            assert_eq!(MethodId::from_name(id.name()), Some(id));
            assert_eq!(id.name().parse::<MethodId>().unwrap(), id);
            assert_eq!(id.to_string(), id.name());
        }
        assert_eq!(MethodId::from_name("nonsense"), None);
        let err = "nonsense".parse::<MethodId>().unwrap_err();
        assert!(err.to_string().contains("nonsense"));
    }

    #[test]
    fn names_are_unique_and_stable() {
        let names: Vec<_> = MethodId::ALL.iter().map(|id| id.name()).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate method names");
        // The five paper methods keep their PR 1 report strings.
        assert_eq!(MethodId::ScalingMse.name(), "scaling/mse");
        assert_eq!(MethodId::ScalingSsim.name(), "scaling/ssim");
        assert_eq!(MethodId::FilteringMse.name(), "filtering/mse");
        assert_eq!(MethodId::FilteringSsim.name(), "filtering/ssim");
        assert_eq!(MethodId::Csp.name(), "steganalysis/csp");
        assert_eq!(MethodId::PeakExcess.name(), "steganalysis/peak-excess");
    }

    #[test]
    fn directions_match_metric_semantics() {
        for &id in MethodId::ALL {
            match id.metric() {
                Some(metric) => assert_eq!(id.direction(), metric.direction()),
                None => assert_eq!(id.direction(), Direction::AboveIsAttack),
            }
        }
    }

    #[test]
    fn metric_constructors_are_inverse_of_metric() {
        for metric in [MetricKind::Mse, MetricKind::Ssim] {
            assert_eq!(MethodId::scaling(metric).metric(), Some(metric));
            assert_eq!(MethodId::filtering(metric).metric(), Some(metric));
        }
        assert_eq!(MethodId::Csp.metric(), None);
        assert_eq!(MethodId::PeakExcess.metric(), None);
    }

    #[test]
    fn only_csp_has_a_fixed_blackbox_threshold() {
        for &id in MethodId::ALL {
            let fixed = id.fixed_blackbox_threshold();
            if id == MethodId::Csp {
                let t = fixed.unwrap();
                assert_eq!(t.value(), 2.0);
                assert_eq!(t.direction(), Direction::AboveIsAttack);
            } else {
                assert!(fixed.is_none(), "{id} should need calibration");
            }
        }
    }

    #[test]
    fn score_vector_indexes_by_id() {
        let mut scores = ScoreVector::splat(f64::NAN);
        for (i, &id) in MethodId::ALL.iter().enumerate() {
            scores.set(id, i as f64);
        }
        for (i, &id) in MethodId::ALL.iter().enumerate() {
            assert_eq!(scores.get(id), i as f64);
            assert_eq!(scores[id], i as f64);
        }
        scores[MethodId::Csp] = 42.0;
        assert_eq!(scores.csp(), 42.0);
        assert_eq!(scores.scaling(MetricKind::Mse), scores.scaling_mse());
        assert_eq!(scores.scaling(MetricKind::Ssim), scores.scaling_ssim());
        assert_eq!(scores.filtering(MetricKind::Mse), scores.filtering_mse());
        assert_eq!(scores.filtering(MetricKind::Ssim), scores.filtering_ssim());
        let collected: Vec<_> = scores.iter().collect();
        assert_eq!(collected.len(), MethodId::COUNT);
        assert_eq!(collected[MethodId::Csp as usize], (MethodId::Csp, 42.0));
    }

    #[test]
    fn method_set_operations() {
        let mut set = MethodSet::empty();
        assert!(set.is_empty());
        assert!(set.insert(MethodId::Csp));
        assert!(!set.insert(MethodId::Csp));
        assert!(set.contains(MethodId::Csp));
        assert_eq!(set.len(), 1);
        assert!(set.remove(MethodId::Csp));
        assert!(!set.remove(MethodId::Csp));
        assert!(set.is_empty());

        let all = MethodSet::all();
        assert_eq!(all.len(), MethodId::COUNT);
        assert_eq!(all.iter().collect::<Vec<_>>(), MethodId::ALL.to_vec());

        let pair = MethodSet::of(&[MethodId::PeakExcess, MethodId::ScalingMse]);
        assert_eq!(
            pair.iter().collect::<Vec<_>>(),
            vec![MethodId::ScalingMse, MethodId::PeakExcess],
            "iteration is canonical order, not insertion order"
        );
        assert_eq!(pair, [MethodId::ScalingMse, MethodId::PeakExcess].into_iter().collect());
        let without = all.without(MethodId::PeakExcess);
        assert!(!without.contains(MethodId::PeakExcess));
        assert_eq!(without.with(MethodId::PeakExcess), all);
        assert_eq!(format!("{pair:?}"), "{\"scaling/mse\", \"steganalysis/peak-excess\"}");
    }

    #[test]
    fn dummy_method_is_registered_in_test_builds() {
        assert!(MethodId::ALL.contains(&MethodId::DummyMean));
        assert_eq!(MethodId::from_name("test/dummy-mean"), Some(MethodId::DummyMean));
        assert!(MethodId::DummyMean.fixed_blackbox_threshold().is_none());
    }

    #[test]
    fn metric_kind_directions() {
        assert_eq!(MetricKind::Mse.direction(), Direction::AboveIsAttack);
        assert_eq!(MetricKind::Ssim.direction(), Direction::BelowIsAttack);
        assert_eq!(MetricKind::Mse.to_string(), "mse");
        assert_eq!(MetricKind::Ssim.name(), "ssim");
    }
}
