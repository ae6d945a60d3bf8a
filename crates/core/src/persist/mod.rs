//! Plain-text persistence: calibrated thresholds and scan checkpoints.
//!
//! Offline calibration and online detection usually run in different
//! processes; the thresholds must survive in between. Likewise a sharded
//! corpus scan runs across processes and machines and must survive a
//! crash. Both travel as deliberately boring line-oriented text files
//! (no serialisation dependency, diff-friendly, hand-editable) sharing
//! one discipline — versioned header, strict line-numbered parsing,
//! atomic writes — implemented once in [`textfmt`]:
//!
//! * [`ThresholdSet`] (here) — the `decamouflage-thresholds v1` format:
//!
//!   ```text
//!   decamouflage-thresholds v1
//!   # comments and blank lines are ignored
//!   scaling/mse above 72.4
//!   filtering/ssim below 0.64
//!   steganalysis/csp above 2
//!   ```
//!
//! * [`checkpoint::ScanCheckpoint`] — the `decamouflage-checkpoint v1`
//!   format recording one shard's progress through a corpus scan.
//!
//! In memory the threshold set is keyed by the typed [`MethodId`]
//! registry; the on-disk names are exactly [`MethodId::name`], so files
//! written before the registry existed (same strings, free-form keys)
//! load unchanged. A name that matches no registered method is a parse
//! *error* carrying the offending line number — never a silent skip —
//! because a typo in a threshold file must not quietly drop an ensemble
//! member.

pub mod checkpoint;
pub mod textfmt;

use crate::method::MethodId;
use crate::threshold::{Direction, Threshold};
use crate::DetectError;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

const HEADER: &str = "decamouflage-thresholds v1";

/// A set of calibrated thresholds keyed by [`MethodId`] (ordered by the
/// registry's canonical method order for stable output).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ThresholdSet {
    entries: BTreeMap<MethodId, Threshold>,
}

impl ThresholdSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces the threshold for a method. Returns the
    /// previous value, if any.
    pub fn insert(&mut self, id: MethodId, threshold: Threshold) -> Option<Threshold> {
        self.entries.insert(id, threshold)
    }

    /// Looks up a threshold by method.
    pub fn get(&self, id: MethodId) -> Option<Threshold> {
        self.entries.get(&id).copied()
    }

    /// Number of stored thresholds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(id, threshold)` pairs in canonical method order.
    pub fn iter(&self) -> impl Iterator<Item = (MethodId, Threshold)> + '_ {
        self.entries.iter().map(|(&id, &t)| (id, t))
    }

    /// Serialises to the v1 text format (keys are [`MethodId::name`]).
    pub fn to_text(&self) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for (id, threshold) in &self.entries {
            let dir = match threshold.direction() {
                Direction::AboveIsAttack => "above",
                Direction::BelowIsAttack => "below",
            };
            // 17 significant digits round-trip any f64 exactly.
            let _ = writeln!(out, "{} {dir} {:.17e}", id.name(), threshold.value());
        }
        out
    }

    /// Parses the v1 text format.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::InvalidConfig`] for a missing/unknown header,
    /// malformed lines, names not in the method registry, unknown
    /// directions, unparsable values or duplicate methods — each with the
    /// offending line number.
    pub fn from_text(text: &str) -> Result<Self, DetectError> {
        let mut set = Self::new();
        for (lineno, line) in textfmt::parse_body(text, HEADER)? {
            let bad = |message: String| textfmt::line_error(lineno, message);
            let mut parts = line.split_whitespace();
            let (name, dir, value) = match (parts.next(), parts.next(), parts.next(), parts.next())
            {
                (Some(n), Some(d), Some(v), None) => (n, d, v),
                _ => return Err(bad(format!("expected `name direction value`, got {line:?}"))),
            };
            let id = MethodId::from_name(name)
                .ok_or_else(|| bad(format!("unknown detection method {name:?}")))?;
            let direction = match dir {
                "above" => Direction::AboveIsAttack,
                "below" => Direction::BelowIsAttack,
                other => {
                    return Err(bad(format!("unknown direction {other:?} (expected above/below)")))
                }
            };
            let value: f64 =
                value.parse().map_err(|_| bad(format!("unparsable value {value:?}")))?;
            if !value.is_finite() {
                return Err(bad("non-finite threshold".into()));
            }
            if set.insert(id, Threshold::new(value, direction)).is_some() {
                return Err(bad(format!("duplicate entry {name:?}")));
            }
        }
        Ok(set)
    }

    /// Writes the set to a file atomically (temp file + rename, see
    /// [`textfmt::write_atomic`]).
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::InvalidConfig`] wrapping any I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DetectError> {
        textfmt::write_atomic(path, &self.to_text(), "thresholds")
    }

    /// Reads a set from a file.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::InvalidConfig`] for I/O or parse failures.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, DetectError> {
        Self::from_text(&textfmt::read(path, "thresholds")?)
    }
}

impl FromIterator<(MethodId, Threshold)> for ThresholdSet {
    fn from_iter<I: IntoIterator<Item = (MethodId, Threshold)>>(iter: I) -> Self {
        Self { entries: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ThresholdSet {
        let mut set = ThresholdSet::new();
        set.insert(MethodId::ScalingMse, Threshold::new(72.4, Direction::AboveIsAttack));
        set.insert(MethodId::FilteringSsim, Threshold::new(0.64, Direction::BelowIsAttack));
        set.insert(MethodId::Csp, Threshold::new(2.0, Direction::AboveIsAttack));
        set
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let set = sample();
        let parsed = ThresholdSet::from_text(&set.to_text()).unwrap();
        assert_eq!(parsed, set);
    }

    #[test]
    fn typed_roundtrip_covers_every_registered_method() {
        let mut set = ThresholdSet::new();
        for (i, &id) in MethodId::ALL.iter().enumerate() {
            set.insert(id, Threshold::new(0.5 + i as f64, id.direction()));
        }
        let parsed = ThresholdSet::from_text(&set.to_text()).unwrap();
        assert_eq!(parsed, set);
        assert_eq!(parsed.len(), MethodId::COUNT);
    }

    #[test]
    fn roundtrip_preserves_full_f64_precision() {
        let mut set = ThresholdSet::new();
        // 17 significant digits on purpose: the round trip must keep
        // every bit of a value with no short decimal form.
        #[allow(clippy::excessive_precision)]
        let awkward = 1_714.960_000_000_000_1_f64;
        set.insert(MethodId::ScalingMse, Threshold::new(awkward, Direction::AboveIsAttack));
        let parsed = ThresholdSet::from_text(&set.to_text()).unwrap();
        assert_eq!(parsed.get(MethodId::ScalingMse).unwrap().value(), awkward);
    }

    #[test]
    fn loads_fixture_in_the_old_string_keyed_format() {
        // Verbatim output of the pre-registry (string-keyed) writer: plain
        // decimal values, alphabetical order, hand-edited comments. The
        // names happen to be the registry names, so typed loading accepts
        // the file unchanged.
        let fixture = "decamouflage-thresholds v1\n\
                       # calibrated 2025-11-02 on neurips-like train split\n\
                       filtering/ssim below 0.64\n\
                       scaling/mse above 72.4\n\
                       steganalysis/csp above 2\n";
        let set = ThresholdSet::from_text(fixture).unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.get(MethodId::ScalingMse).unwrap().value(), 72.4);
        assert_eq!(set.get(MethodId::FilteringSsim).unwrap().direction(), Direction::BelowIsAttack);
        assert!(set.get(MethodId::Csp).unwrap().is_attack(2.0));
        // Typed iteration reorders into canonical method order.
        let ids: Vec<MethodId> = set.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![MethodId::ScalingMse, MethodId::FilteringSsim, MethodId::Csp]);
    }

    #[test]
    fn unknown_method_name_errors_with_line_number() {
        let text = format!("{HEADER}\n\n# comment\nscaling/mse above 5\nscaling/rmse above 9\n");
        let err = ThresholdSet::from_text(&text).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("line 5"), "want offending line number, got {message:?}");
        assert!(message.contains("scaling/rmse"), "want offending name, got {message:?}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!("{HEADER}\n\n# a comment\nscaling/mse above 5\n");
        let set = ThresholdSet::from_text(&text).unwrap();
        assert_eq!(set.len(), 1);
        assert!(set.get(MethodId::ScalingMse).unwrap().is_attack(6.0));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(ThresholdSet::from_text("").is_err());
        assert!(ThresholdSet::from_text("wrong header\n").is_err());
        let h = HEADER;
        assert!(ThresholdSet::from_text(&format!("{h}\nscaling/mse above\n")).is_err());
        assert!(ThresholdSet::from_text(&format!("{h}\nscaling/mse sideways 1.0\n")).is_err());
        assert!(ThresholdSet::from_text(&format!("{h}\nscaling/mse above xyz\n")).is_err());
        assert!(ThresholdSet::from_text(&format!("{h}\nscaling/mse above inf\n")).is_err());
        assert!(ThresholdSet::from_text(&format!(
            "{h}\nscaling/mse above 1\nscaling/mse below 2\n"
        ))
        .is_err());
        assert!(ThresholdSet::from_text(&format!("{h}\nscaling/mse above 1 extra\n")).is_err());
    }

    #[test]
    fn truncated_file_errors_with_line_number() {
        // A file cut off mid-write (e.g. disk full during save) leaves a
        // partial last line; loading it must fail with a typed error naming
        // that line, not silently load a partial set.
        let full = sample().to_text();
        // Cut inside the last line's direction token ("steganalysis/csp ab").
        let truncated = &full[..full.rfind("above").unwrap() + 2];
        let err = ThresholdSet::from_text(truncated).unwrap_err();
        assert!(matches!(err, DetectError::InvalidConfig { .. }));
        let message = err.to_string();
        assert!(message.contains("line 4"), "want the truncated line number, got {message:?}");
    }

    #[test]
    fn garbage_file_errors_with_typed_cause() {
        let err = ThresholdSet::from_text("\u{0}\u{1}binary junk\nmore junk\n").unwrap_err();
        assert!(matches!(err, DetectError::InvalidConfig { .. }));
        assert!(err.to_string().contains("expected header"), "{err}");

        let dir = std::env::temp_dir().join("decamouflage-persist-garbage-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.txt");
        std::fs::write(&path, b"decamouflage-thresholds v1\n\x7f\x45\x4c\x46 junk line\n").unwrap();
        let err = ThresholdSet::load(&path).unwrap_err();
        assert!(matches!(err, DetectError::InvalidConfig { .. }));
        assert!(err.to_string().contains("line 2"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_method_line_errors_with_line_number() {
        let text = format!(
            "{HEADER}\n# calibrated twice by mistake\nscaling/mse above 1\n\
             filtering/mse above 3\nscaling/mse below 2\n"
        );
        let err = ThresholdSet::from_text(&text).unwrap_err();
        assert!(matches!(err, DetectError::InvalidConfig { .. }));
        let message = err.to_string();
        assert!(message.contains("line 5"), "want the duplicate's line, got {message:?}");
        assert!(message.contains("duplicate"), "{message}");
        assert!(message.contains("scaling/mse"), "{message}");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("decamouflage-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("thresholds.txt");
        let set = sample();
        set.save(&path).unwrap();
        assert_eq!(ThresholdSet::load(&path).unwrap(), set);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(ThresholdSet::load("/nonexistent/decamouflage.txt").is_err());
    }

    #[test]
    fn insert_replaces_and_reports() {
        let mut set = ThresholdSet::new();
        assert!(set.is_empty());
        assert!(set
            .insert(MethodId::PeakExcess, Threshold::new(1.0, Direction::AboveIsAttack))
            .is_none());
        let old = set.insert(MethodId::PeakExcess, Threshold::new(2.0, Direction::AboveIsAttack));
        assert_eq!(old.unwrap().value(), 1.0);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn iteration_is_canonical_method_ordered() {
        let set = sample();
        let ids: Vec<MethodId> = set.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![MethodId::ScalingMse, MethodId::FilteringSsim, MethodId::Csp]);
        let collected: ThresholdSet = set.iter().collect();
        assert_eq!(collected, set);
    }
}
