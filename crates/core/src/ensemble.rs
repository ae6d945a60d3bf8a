//! Majority-vote ensemble over engine methods (the full *Decamouflage*
//! system of the paper's Figure 6 and Table "ensemble").
//!
//! An [`Ensemble`] is one [`DetectionEngine`], a list of
//! `(MethodId, Threshold)` members and a [`DegradePolicy`]. This module is
//! the one place the voting rules live, including the failed-pass rule
//! ([`DegradePolicy::failed_pass`]) for an image no member can vote on.
//! Every surface judges an engine pass through it:
//!
//! - [`Ensemble::decide`] scores an image **once** through the engine's
//!   isolation slot ([`DetectionEngine::score_resilient`]: validation,
//!   then the scoring pass) and votes on the outcome (the CLI's `check`).
//! - [`Ensemble::judge`] votes on a pass a caller already holds and
//!   records the verdict's telemetry (`scan` lines, the HTTP service).
//! - [`Ensemble::vote`] is the pure vote behind both, for recounts over
//!   stored scores (`scan`'s summary, the experiments).

use crate::engine::DetectionEngine;
use crate::error::{ScoreError, ScoreFault};
use crate::method::{MethodId, MethodSet, ScoreVector};
use crate::persist::ThresholdSet;
use crate::threshold::Threshold;
use crate::DetectError;
use decamouflage_imaging::{Image, Size};
use decamouflage_telemetry::Telemetry;
use std::fmt;

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

    /// The failed-pass rule: what this policy makes of an engine pass that
    /// failed with a fault of `kind` (a [`ScoreFault::kind`] tag). A pure
    /// function of the two, so a live [`ScoreError`] and a persisted
    /// quarantine record are judged alike.
    ///
    /// Bytes that never decoded (`unreadable`, `unsupported-format`) get
    /// no verdict under any policy. Any other failure — a validation
    /// refusal, a scoring error, a recovered panic — leaves no member
    /// able to vote: [`DegradePolicy::Strict`] refuses the image, and the
    /// degrading policies flag it.
    pub fn failed_pass(self, kind: &str) -> FailedPass {
        if ScoreFault::is_decode_kind(kind) {
            FailedPass::Undecoded
        } else if self == Self::Strict {
            FailedPass::Refused
        } else {
            FailedPass::Flagged
        }
    }
}

/// What the failed-pass rule ([`DegradePolicy::failed_pass`]) makes of an
/// engine pass that failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailedPass {
    /// The bytes never decoded: there is no image to judge, so no policy
    /// gives a verdict.
    Undecoded,
    /// [`DegradePolicy::Strict`] refuses the image the engine refused.
    Refused,
    /// A degrading policy flags the image, with every member unavailable.
    Flagged,
}

/// Why [`Ensemble::judge`] gives an engine pass no verdict.
#[derive(Debug)]
pub enum Refusal<'a> {
    /// The pass failed and the failed-pass rule gives it no verdict
    /// ([`FailedPass::Undecoded`] or [`FailedPass::Refused`]); the pass's
    /// own error says why.
    Failed(&'a ScoreError),
    /// [`DegradePolicy::Strict`] refuses to vote on the pass's scores: a
    /// member's score is non-finite, or its method is disabled in the
    /// engine.
    Scores(DetectError),
}

impl Refusal<'_> {
    /// The [`ScoreFault::kind`] tag of the refusal's cause; `detect` for
    /// a refused vote without a score fault (a disabled member).
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Failed(err) => err.cause.kind(),
            Self::Scores(DetectError::Score(err)) => err.cause.kind(),
            Self::Scores(_) => "detect",
        }
    }
}

impl fmt::Display for Refusal<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Failed(err) => err.fmt(f),
            Self::Scores(err) => err.fmt(f),
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
    /// verdict counts from every live verdict ([`Ensemble::decide`],
    /// [`Ensemble::judge`]). Telemetry never changes decisions — only
    /// observes them.
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

    /// Votes on the outcome of one engine pass: each member thresholds its
    /// method's score, and a strict majority of the voting members
    /// decides. A member is unavailable when its score is non-finite or
    /// when the engine disables its method; the [`DegradePolicy`] decides
    /// what that means. A failed pass goes through the failed-pass rule
    /// ([`DegradePolicy::failed_pass`]): flagged with every member
    /// unavailable, or refused with the pass's own error. Pure: no
    /// scoring, no telemetry.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] for an ensemble without members. A
    /// failed pass the rule refuses, as its own error. Under
    /// [`DegradePolicy::Strict`] additionally
    /// [`DetectError::InvalidConfig`] for a disabled method, or a
    /// [`DetectError::Score`] with a [`ScoreFault::NonFiniteScore`] cause
    /// attributed to the member.
    pub fn vote(
        &self,
        pass: Result<&ScoreVector, ScoreError>,
    ) -> Result<EnsembleDecision, DetectError> {
        match pass {
            Ok(scores) => self.poll(Ok(scores)),
            Err(err) => self.vote_failed(&err.cause).unwrap_or_else(|| Err(err.into())),
        }
    }

    /// Classifies an image: one [`DetectionEngine::score_resilient`] pass,
    /// then [`Ensemble::vote`]. An image the engine refuses (validation,
    /// a scoring error, a recovered panic) is a failed pass: no member can
    /// vote on it, so [`DegradePolicy::Strict`] returns the refusal and the
    /// degrading policies flag the image. Records the decision's
    /// telemetry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ensemble::vote`]; a failed pass arrives as
    /// the engine's own [`DetectError`] for a scoring error, and as
    /// [`DetectError::Score`] for every other refusal.
    pub fn decide(&self, image: &Image) -> Result<EnsembleDecision, DetectError> {
        let decision = match self.engine.score_resilient(image) {
            Ok(scores) => self.vote(Ok(&scores)),
            Err(err) => self.vote(Err(err)),
        }?;
        self.record_decision(&decision);
        Ok(decision)
    }

    /// Judges one live engine pass — the verdict a surface reports for an
    /// image: [`Ensemble::vote`] on the pass, then the decision's
    /// telemetry (nothing is recorded for a refusal). Takes the failed
    /// pass by reference, so a caller that prints or persists it keeps it.
    ///
    /// # Errors
    ///
    /// [`Refusal::Failed`] for a failed pass the rule gives no verdict;
    /// [`Refusal::Scores`] with [`Ensemble::vote`]'s error when it
    /// refuses the scores.
    pub fn judge<'a>(
        &self,
        pass: Result<&ScoreVector, &'a ScoreError>,
    ) -> Result<EnsembleDecision, Refusal<'a>> {
        let polled = match pass {
            Ok(scores) => self.poll(Ok(scores)),
            Err(err) => self.vote_failed(&err.cause).ok_or(Refusal::Failed(err))?,
        };
        let decision = polled.map_err(Refusal::Scores)?;
        self.record_decision(&decision);
        Ok(decision)
    }

    /// The failed-pass rule applied to a failed pass's `cause`: the poll
    /// of members that all abstain, or `None` when the rule gives the
    /// pass no verdict.
    fn vote_failed(&self, cause: &ScoreFault) -> Option<Result<EnsembleDecision, DetectError>> {
        match self.policy.failed_pass(cause.kind()) {
            FailedPass::Flagged => Some(self.poll(Err(cause))),
            FailedPass::Undecoded | FailedPass::Refused => None,
        }
    }

    /// Polls the members on a pass's scores, or on the `cause` of a failed
    /// pass the rule flags (every member abstains).
    fn poll(
        &self,
        pass: Result<&ScoreVector, &ScoreFault>,
    ) -> Result<EnsembleDecision, DetectError> {
        if self.members.is_empty() {
            return Err(DetectError::InvalidConfig { message: "ensemble has no members".into() });
        }
        let strict = self.policy == DegradePolicy::Strict;
        let mut votes = Vec::with_capacity(self.members.len());
        let mut unavailable = Vec::new();
        for &(id, threshold) in &self.members {
            let reason = match pass {
                Err(cause) => format!("engine pass failed: {cause}"),
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
        let failed = |case: &str| match case {
            "undecoded" => ScoreError::new(ScoreFault::Unreadable { message: "boom".into() }),
            "panic" => ScoreError::panicked(0, Box::new("boom")),
            _ => ScoreError::detect(0, DetectError::InvalidConfig { message: "boom".into() }),
        };
        type Row = (&'static str, MethodSet, DegradePolicy, Option<(bool, usize)>);
        let rows: [Row; 18] = [
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
            // A recovered panic is a failed pass like any other.
            ("panic", paper, Strict, None),
            ("panic", paper, MajorityOfAvailable, Some((true, 3))),
            ("panic", paper, FailClosed, Some((true, 3))),
            // Bytes that never decoded are no image: refused everywhere.
            ("undecoded", paper, Strict, None),
            ("undecoded", paper, MajorityOfAvailable, None),
            ("undecoded", paper, FailClosed, None),
        ];
        for (case, methods, policy, expected) in rows {
            let ensemble = ensemble(methods, policy);
            let outcome = match case {
                "nan" => ensemble.vote(Ok(&nan)),
                "finite" | "disabled" => ensemble.vote(Ok(&scores())),
                _ => ensemble.vote(Err(failed(case))),
            };
            let what = format!("{case} under {policy:?}");
            let cause = match case {
                "nan" => "non-finite score NaN",
                "disabled" => "disabled",
                "undecoded" => "unreadable source item: boom",
                "panic" => "scoring panicked: boom",
                _ => "invalid config: boom",
            };
            let Some((is_attack, unavailable)) = expected else {
                let err = outcome.expect_err(&what).to_string();
                assert!(err.contains(cause), "{what}: {err}");
                continue;
            };
            let decision = outcome.expect(&what);
            assert_eq!(decision.is_attack, is_attack, "{what}");
            assert_eq!(decision.unavailable.len(), unavailable, "{what}");
            assert_eq!(decision.votes.len() + unavailable, 3, "{what}");
            let reason = match case {
                "failed" | "panic" => format!("engine pass failed: {cause}"),
                _ => cause.to_string(),
            };
            assert!(decision.unavailable.iter().all(|(_, r)| r.contains(&reason)), "{what}");
        }
    }

    /// The failed-pass rule over every fault kind a pass can fail with:
    /// decode faults are never judged, everything else is refused by
    /// `Strict` and flagged by the degrading policies.
    #[test]
    fn failed_pass_rule_covers_every_fault_kind() {
        use DegradePolicy::{FailClosed, MajorityOfAvailable, Strict};
        for kind in ScoreFault::KINDS {
            let decoded = !matches!(kind, "unreadable" | "unsupported-format");
            for policy in [Strict, MajorityOfAvailable, FailClosed] {
                let expected = match policy {
                    _ if !decoded => FailedPass::Undecoded,
                    Strict => FailedPass::Refused,
                    _ => FailedPass::Flagged,
                };
                assert_eq!(policy.failed_pass(kind), expected, "{kind} under {policy:?}");
            }
        }
    }

    /// `judge` is `vote` on a borrowed pass plus the decision's telemetry:
    /// verdicts are recorded, refusals are not, and a refused failed pass
    /// hands back the caller's own error.
    #[test]
    fn judge_votes_like_vote_and_records_only_verdicts() {
        use DegradePolicy::{FailClosed, MajorityOfAvailable, Strict};
        let decisions = |telemetry: &Telemetry| {
            ["attack", "benign"]
                .iter()
                .map(|v| telemetry.counter("decam_ensemble_decisions_total", &[("verdict", v)]))
                .map(|counter| counter.value())
                .sum::<u64>()
        };
        let refused = ScoreError::detect(0, DetectError::InvalidConfig { message: "boom".into() });
        for policy in [Strict, MajorityOfAvailable, FailClosed] {
            let telemetry = Telemetry::enabled();
            let e =
                ensemble(MethodSet::of(PAPER_METHODS), policy).with_telemetry(telemetry.clone());
            let scored = e.judge(Ok(&scores())).unwrap();
            assert_eq!(scored, e.vote(Ok(&scores())).unwrap(), "{policy:?}");
            assert_eq!(decisions(&telemetry), 1, "{policy:?}");
            match e.judge(Err(&refused)) {
                Ok(decision) => {
                    assert_ne!(policy, Strict);
                    assert!(decision.is_attack && decision.votes.is_empty(), "{policy:?}");
                    assert_eq!(decisions(&telemetry), 2, "{policy:?}");
                }
                Err(Refusal::Failed(err)) => {
                    assert_eq!(policy, Strict);
                    assert!(std::ptr::eq(err, &refused));
                    assert_eq!(decisions(&telemetry), 1, "{policy:?}: a refusal records nothing");
                }
                Err(other) => panic!("{policy:?}: {other}"),
            }
        }
        let mut nan = scores();
        nan.set(MethodId::Csp, f64::NAN);
        let strict = ensemble(MethodSet::of(PAPER_METHODS), Strict);
        let refusal = strict.judge(Ok(&nan)).unwrap_err();
        assert_eq!(refusal.kind(), "non-finite-score");
        assert!(refusal.to_string().contains("non-finite score NaN"), "{refusal}");
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
        let bad_ssim = decamouflage_metrics::SsimConfig { sigma: 0.0, ..Default::default() };
        let broken = DetectionEngine::new(Size::square(16)).with_ssim_config(bad_ssim);
        let strict = Ensemble::new(broken.clone(), e.members().to_vec(), DegradePolicy::Strict);
        assert!(strict.decide(&image).is_err());
        let closed = Ensemble::new(broken, e.members().to_vec(), DegradePolicy::FailClosed);
        let decision = closed.decide(&image).unwrap();
        assert!(decision.is_attack);
        assert!(decision.votes.is_empty());
        assert_eq!(decision.unavailable.len(), 3);

        // An image validation refuses (4x4 is below the 11-pixel SSIM
        // window) is a failed pass as well: Strict returns the refusal,
        // and with no member able to vote every degrading policy flags it.
        let tiny = Image::from_fn_gray(4, 4, |x, y| (x + y) as f64);
        let err = e.decide(&tiny).unwrap_err().to_string();
        assert!(err.contains("smaller than the configured SSIM window"), "{err}");
        for policy in [DegradePolicy::MajorityOfAvailable, DegradePolicy::FailClosed] {
            let degrading = Ensemble::new(e.engine().clone(), e.members().to_vec(), policy);
            let decision = degrading.decide(&tiny).unwrap();
            assert!(decision.is_attack, "{policy:?}");
            assert!(decision.votes.is_empty(), "{policy:?}");
            assert_eq!(decision.unavailable.len(), 3, "{policy:?}");
        }
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
    }
}
