//! Majority-vote ensemble over engine methods (the full *Decamouflage*
//! system of the paper's Figure 6 and Table "ensemble").
//!
//! An [`Ensemble`] is one [`DetectionEngine`], a list of
//! `(MethodId, Threshold)` members and a [`DegradePolicy`].
//! [`Ensemble::decide`] scores an image **once** through the engine and
//! hands the [`ScoreVector`] to [`Ensemble::vote`], the one place the
//! voting rules live. Callers that already hold scores — batch scans, the
//! HTTP service, the experiments — call [`Ensemble::vote`] directly.

use crate::engine::DetectionEngine;
use crate::error::{ScoreError, ScoreFault};
use crate::method::{MethodId, MethodSet, ScoreVector};
use crate::persist::ThresholdSet;
use crate::threshold::Threshold;
use crate::DetectError;
use decamouflage_imaging::{Image, Size};
use decamouflage_telemetry::Telemetry;

/// The paper's three ensemble members: scaling/MSE, filtering/SSIM and
/// the CSP count.
pub const PAPER_METHODS: &[MethodId] =
    &[MethodId::ScalingMse, MethodId::FilteringSsim, MethodId::Csp];

/// Per-member votes plus the majority decision for one image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnsembleDecision {
    /// `(member, voted attack?)` in member order. Members that could not
    /// vote (see [`EnsembleDecision::unavailable`]) are absent.
    pub votes: Vec<(MethodId, bool)>,
    /// `(member, reason)` for every member whose score was non-finite,
    /// whose method the engine disables, or whose engine pass failed, in
    /// member order. Always empty under [`DegradePolicy::Strict`], which
    /// turns the first such member into an error instead.
    pub unavailable: Vec<(MethodId, String)>,
    /// The verdict: a strict majority of the voting members under
    /// [`DegradePolicy::Strict`] / [`DegradePolicy::MajorityOfAvailable`];
    /// forced to `true` by [`DegradePolicy::FailClosed`] when any member is
    /// unavailable.
    pub is_attack: bool,
}

impl EnsembleDecision {
    /// Whether every member voted.
    pub fn is_complete(&self) -> bool {
        self.unavailable.is_empty()
    }
}

/// What [`Ensemble::vote`] does when a member cannot vote — its score is
/// non-finite, its method is disabled in the engine, or the engine pass
/// failed.
///
/// NaN scores deserve emphasis: a threshold comparison against NaN is
/// always `false`, so before this policy existed a NaN-scoring member
/// *silently voted benign* — precisely the failure an adversary feeding
/// degenerate inputs would hope for. Every policy now surfaces the
/// condition; they differ only in how the remaining members decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// Fail fast: the first unavailable member aborts the decision with a
    /// [`DetectError`] (the pre-fault-tolerance behaviour, and the
    /// default).
    #[default]
    Strict,
    /// Unavailable members abstain and a strict majority of the *available*
    /// votes decides — the paper's 2-of-3 ensemble on whatever voters
    /// remain. With every member unavailable the decision fails closed
    /// (`is_attack = true`): an image nothing could score is not accepted.
    MajorityOfAvailable,
    /// Any unavailable member flags the image as an attack outright — the
    /// security default for screening untrusted uploads, where "this input
    /// broke a detector" is itself a strong attack signal.
    FailClosed,
}

impl DegradePolicy {
    /// Stable kebab-case name, used as the `policy` label on the
    /// `decam_ensemble_degraded_total` telemetry counter.
    pub const fn name(self) -> &'static str {
        match self {
            Self::Strict => "strict",
            Self::MajorityOfAvailable => "majority-of-available",
            Self::FailClosed => "fail-closed",
        }
    }
}

/// Majority-vote ensemble.
///
/// The paper combines the three detection methods so that an adaptive
/// attacker must defeat a majority of them *simultaneously*; with the
/// default three members, two votes decide.
#[derive(Debug, Clone)]
pub struct Ensemble {
    engine: DetectionEngine,
    members: Vec<(MethodId, Threshold)>,
    policy: DegradePolicy,
    telemetry: Telemetry,
}

impl Ensemble {
    /// An ensemble voting `members` over scores from `engine`, recording
    /// into the process-global telemetry handle (disabled unless
    /// [`decamouflage_telemetry::install_global`] ran first).
    pub fn new(
        engine: DetectionEngine,
        members: impl IntoIterator<Item = (MethodId, Threshold)>,
        policy: DegradePolicy,
    ) -> Self {
        Self {
            engine,
            members: members.into_iter().collect(),
            policy,
            telemetry: decamouflage_telemetry::global(),
        }
    }

    /// The paper's ensemble for a CNN input size: the [`PAPER_METHODS`]
    /// members with their thresholds from `thresholds`, scored by an
    /// engine that runs exactly those methods.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] naming the first member missing from
    /// `thresholds`.
    pub fn paper(
        target: Size,
        thresholds: &ThresholdSet,
        policy: DegradePolicy,
    ) -> Result<Self, DetectError> {
        let members = PAPER_METHODS
            .iter()
            .map(|&id| {
                thresholds.get(id).map(|threshold| (id, threshold)).ok_or_else(|| {
                    DetectError::InvalidConfig {
                        message: format!("thresholds are missing an entry for {:?}", id.name()),
                    }
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let engine = DetectionEngine::new(target).with_methods(MethodSet::of(PAPER_METHODS));
        Ok(Self::new(engine, members, policy))
    }

    /// Attaches a [`Telemetry`] handle: an enabled handle records votes
    /// by member, unavailable members, degrade-policy activations and
    /// verdict counts from [`Ensemble::decide`]. Telemetry never changes
    /// decisions — only observes them.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The engine the members' scores come from.
    pub fn engine(&self) -> &DetectionEngine {
        &self.engine
    }

    /// The `(method, threshold)` members, in voting order.
    pub fn members(&self) -> &[(MethodId, Threshold)] {
        &self.members
    }

    /// The degradation policy for members that cannot vote.
    pub const fn degrade_policy(&self) -> DegradePolicy {
        self.policy
    }

    /// Votes on the outcome of one engine pass: each member thresholds its
    /// method's score, and a strict majority of the voting members
    /// decides. A member is unavailable when its score is non-finite, when
    /// the engine disables its method, or when `pass` failed; the
    /// [`DegradePolicy`] decides what that means. Pure: no scoring, no
    /// telemetry.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] for an ensemble without members.
    /// Under [`DegradePolicy::Strict`] additionally the failed pass's own
    /// error, [`DetectError::InvalidConfig`] for a disabled method, or a
    /// [`DetectError::Score`] with a
    /// [`ScoreFault::NonFiniteScore`] cause attributed to the member.
    pub fn vote(
        &self,
        pass: Result<&ScoreVector, DetectError>,
    ) -> Result<EnsembleDecision, DetectError> {
        if self.members.is_empty() {
            return Err(DetectError::InvalidConfig { message: "ensemble has no members".into() });
        }
        let strict = self.policy == DegradePolicy::Strict;
        let scores = match pass {
            Ok(scores) => Ok(scores),
            Err(err) if strict => return Err(err),
            Err(err) => Err(format!("engine pass failed: {err}")),
        };
        let mut votes = Vec::with_capacity(self.members.len());
        let mut unavailable = Vec::new();
        for &(id, threshold) in &self.members {
            let reason = match scores {
                Err(ref failure) => failure.clone(),
                Ok(_) if !self.engine.methods().contains(id) => {
                    if strict {
                        return Err(DetectError::InvalidConfig {
                            message: format!("member {id} is disabled in the engine"),
                        });
                    }
                    "method disabled in the engine".into()
                }
                Ok(scores) => {
                    let score = scores.get(id);
                    if score.is_finite() {
                        votes.push((id, threshold.is_attack(score)));
                        continue;
                    }
                    let fault = ScoreFault::NonFiniteScore { score };
                    if strict {
                        let err = ScoreError::new(fault).for_method(id);
                        return Err(DetectError::Score(Box::new(err)));
                    }
                    fault.to_string()
                }
            };
            unavailable.push((id, reason));
        }
        let attack_votes = votes.iter().filter(|(_, vote)| *vote).count();
        let is_attack = match self.policy {
            DegradePolicy::FailClosed if !unavailable.is_empty() => true,
            // Nobody voted: nothing could score the image, so a degrading
            // ensemble refuses to accept it.
            _ if votes.is_empty() => true,
            _ => 2 * attack_votes > votes.len(),
        };
        Ok(EnsembleDecision { votes, unavailable, is_attack })
    }

    /// Classifies an image: one [`DetectionEngine::score`] pass, then
    /// [`Ensemble::vote`]. Records the decision's telemetry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ensemble::vote`].
    pub fn decide(&self, image: &Image) -> Result<EnsembleDecision, DetectError> {
        let decision = match self.engine.score(image) {
            Ok(scores) => self.vote(Ok(&scores)),
            Err(err) => self.vote(Err(err)),
        }?;
        self.record_decision(&decision);
        Ok(decision)
    }

    /// Records one decision's telemetry: votes by member, unavailable
    /// members, a degrade activation when any member could not vote, and
    /// the verdict. A no-op with disabled telemetry.
    fn record_decision(&self, decision: &EnsembleDecision) {
        if !self.telemetry.is_enabled() {
            return;
        }
        for (member, vote) in &decision.votes {
            let vote = if *vote { "attack" } else { "benign" };
            self.telemetry
                .counter("decam_ensemble_votes_total", &[("member", member.name()), ("vote", vote)])
                .inc();
        }
        for (member, _) in &decision.unavailable {
            self.telemetry
                .counter("decam_ensemble_unavailable_total", &[("member", member.name())])
                .inc();
        }
        if !decision.is_complete() {
            self.telemetry
                .counter("decam_ensemble_degraded_total", &[("policy", self.policy.name())])
                .inc();
        }
        let verdict = if decision.is_attack { "attack" } else { "benign" };
        self.telemetry.counter("decam_ensemble_decisions_total", &[("verdict", verdict)]).inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threshold::Direction;

    fn above(v: f64) -> Threshold {
        Threshold::new(v, Direction::AboveIsAttack)
    }

    /// The paper ensemble over hand-set thresholds, on an engine enabling
    /// `methods`.
    fn ensemble(methods: MethodSet, policy: DegradePolicy) -> Ensemble {
        let engine = DetectionEngine::new(Size::square(16)).with_methods(methods);
        let members = [
            (MethodId::ScalingMse, above(200.0)),
            (MethodId::FilteringSsim, Threshold::new(0.6, Direction::BelowIsAttack)),
            (MethodId::Csp, above(2.0)),
        ];
        Ensemble::new(engine, members, policy)
    }

    /// Scores voting benign, attack, benign: a benign 1-of-3 verdict.
    fn scores() -> ScoreVector {
        let mut scores = ScoreVector::splat(f64::NAN);
        scores.set(MethodId::ScalingMse, 100.0);
        scores.set(MethodId::FilteringSsim, 0.3);
        scores.set(MethodId::Csp, 1.0);
        scores
    }

    /// Every degrade policy against each way a member can be unavailable.
    /// `None` is an error; `Some((is_attack, unavailable))` a decision.
    #[test]
    fn vote_table() {
        use DegradePolicy::{FailClosed, MajorityOfAvailable, Strict};
        let paper = MethodSet::of(PAPER_METHODS);
        let mut nan = scores();
        nan.set(MethodId::FilteringSsim, f64::NAN);
        let failed = || Err(DetectError::InvalidConfig { message: "boom".into() });
        type Row = (&'static str, MethodSet, DegradePolicy, Option<(bool, usize)>);
        let rows: [Row; 12] = [
            ("finite", paper, Strict, Some((false, 0))),
            ("finite", paper, MajorityOfAvailable, Some((false, 0))),
            ("finite", paper, FailClosed, Some((false, 0))),
            // The attack voter abstains; the two benign voters remain.
            ("nan", paper, Strict, None),
            ("nan", paper, MajorityOfAvailable, Some((false, 1))),
            ("nan", paper, FailClosed, Some((true, 1))),
            // CSP abstains; the remaining 1-1 split is no strict majority.
            ("disabled", paper.without(MethodId::Csp), Strict, None),
            ("disabled", paper.without(MethodId::Csp), MajorityOfAvailable, Some((false, 1))),
            ("disabled", paper.without(MethodId::Csp), FailClosed, Some((true, 1))),
            // Nobody can vote: every degrading policy fails closed.
            ("failed", paper, Strict, None),
            ("failed", paper, MajorityOfAvailable, Some((true, 3))),
            ("failed", paper, FailClosed, Some((true, 3))),
        ];
        for (case, methods, policy, expected) in rows {
            let ensemble = ensemble(methods, policy);
            let outcome = match case {
                "nan" => ensemble.vote(Ok(&nan)),
                "failed" => ensemble.vote(failed()),
                _ => ensemble.vote(Ok(&scores())),
            };
            let what = format!("{case} under {policy:?}");
            let Some((is_attack, unavailable)) = expected else {
                let err = outcome.expect_err(&what).to_string();
                let cause = match case {
                    "nan" => "non-finite score NaN",
                    "disabled" => "disabled",
                    _ => "boom",
                };
                assert!(err.contains(cause), "{what}: {err}");
                continue;
            };
            let decision = outcome.expect(&what);
            assert_eq!(decision.is_attack, is_attack, "{what}");
            assert_eq!(decision.unavailable.len(), unavailable, "{what}");
            assert_eq!(decision.votes.len() + unavailable, 3, "{what}");
            let reason = match case {
                "nan" => "non-finite score NaN",
                "disabled" => "disabled",
                _ => "engine pass failed: invalid config: boom",
            };
            assert!(decision.unavailable.iter().all(|(_, r)| r.contains(reason)), "{what}");
        }
    }

    #[test]
    fn tie_on_even_ensemble_is_benign() {
        // Strict majority: 1 of 2 does not flag.
        let engine = DetectionEngine::new(Size::square(16));
        let members = [(MethodId::ScalingMse, above(50.0)), (MethodId::Csp, above(2.0))];
        let e = Ensemble::new(engine, members, DegradePolicy::Strict);
        let decision = e.vote(Ok(&scores())).unwrap();
        assert_eq!(decision.votes, vec![(MethodId::ScalingMse, true), (MethodId::Csp, false)]);
        assert!(!decision.is_attack);
    }

    #[test]
    fn empty_ensemble_errors() {
        let e = Ensemble::new(DetectionEngine::new(Size::square(16)), [], DegradePolicy::Strict);
        assert!(e.members().is_empty());
        assert!(e.vote(Ok(&scores())).is_err());
    }

    fn scene() -> Image {
        Image::from_fn_gray(48, 48, |x, y| {
            (128.0 + 60.0 * ((x as f64) * 0.06).sin() + 40.0 * ((y as f64) * 0.045).cos()).round()
        })
    }

    #[test]
    fn decide_is_one_engine_pass_then_vote() {
        let e = ensemble(MethodSet::of(PAPER_METHODS), DegradePolicy::Strict);
        let image = scene();
        let scores = e.engine().score(&image).unwrap();
        assert_eq!(e.decide(&image).unwrap(), e.vote(Ok(&scores)).unwrap());
        assert!(!e.decide(&image).unwrap().is_attack, "benign scene should pass");

        // A sigma of zero makes every SSIM pass fail: Strict propagates
        // the engine's own error, FailClosed flags the image.
        let mut bad_ssim = decamouflage_metrics::SsimConfig::default();
        bad_ssim.sigma = 0.0;
        let broken = DetectionEngine::new(Size::square(16)).with_ssim_config(bad_ssim);
        let strict = Ensemble::new(broken.clone(), e.members().to_vec(), DegradePolicy::Strict);
        assert!(strict.decide(&image).is_err());
        let closed = Ensemble::new(broken, e.members().to_vec(), DegradePolicy::FailClosed);
        let decision = closed.decide(&image).unwrap();
        assert!(decision.is_attack);
        assert!(decision.votes.is_empty());
        assert_eq!(decision.unavailable.len(), 3);
    }

    #[test]
    fn paper_ensemble_names_the_first_missing_threshold() {
        let mut set = ThresholdSet::new();
        set.insert(MethodId::ScalingMse, above(400.0));
        set.insert(MethodId::FilteringSsim, Threshold::new(0.55, Direction::BelowIsAttack));
        let err = Ensemble::paper(Size::square(16), &set, DegradePolicy::Strict).unwrap_err();
        assert!(err.to_string().contains("\"steganalysis/csp\""), "{err}");

        set.insert(MethodId::Csp, above(2.0));
        let e = Ensemble::paper(Size::square(16), &set, DegradePolicy::FailClosed).unwrap();
        assert_eq!(e.engine().methods(), MethodSet::of(PAPER_METHODS));
        assert_eq!(e.members().iter().map(|(id, _)| *id).collect::<Vec<_>>(), PAPER_METHODS);
        assert_eq!(e.degrade_policy(), DegradePolicy::FailClosed);
    }
}
