//! One function per paper artefact: each returns a Markdown fragment that
//! the `repro` binary prints (and that `EXPERIMENTS.md` records).

use crate::corpus::{
    ExperimentContext, IDX_COLORHIST, IDX_FILTERING_MSE, IDX_FILTERING_PSNR, IDX_FILTERING_SSIM,
    IDX_PEAK_EXCESS, IDX_SCALING_MSE, IDX_SCALING_PSNR, IDX_SCALING_SSIM, IDX_STEGANALYSIS,
};
use crate::histogram::Histogram;
use decamouflage_core::persist::ThresholdSet;
use decamouflage_core::report::{number, percent, MarkdownTable};
use decamouflage_core::threshold::{percentile_blackbox, search_whitebox, Direction};
use decamouflage_core::{
    evaluate_threshold, ConfusionCounts, DegradePolicy, DetectError, DetectionEngine, Ensemble,
    EvalMetrics, MethodId, MethodSet, ModelInputSize, SteganalysisDetector, Threshold,
};
use decamouflage_datasets::SampleGenerator;
use decamouflage_imaging::scale::ScaleAlgorithm;
use decamouflage_metrics::SampleSummary;

/// All experiment identifiers, in presentation order.
pub const ALL_EXPERIMENTS: [&str; 18] = [
    "table1",
    "fig4",
    "fig7",
    "fig8",
    "table2",
    "fig9",
    "table3",
    "fig10",
    "table4",
    "fig11",
    "table5",
    "fig12",
    "table6",
    "table7",
    "table8",
    "fig15",
    "fig16",
    "ablate-colorhist",
];

/// Extended (non-paper-table) ablations, runnable individually or via
/// `repro ablations`.
pub const ABLATIONS: [&str; 8] = [
    "ablate-robust-scaler",
    "ablate-adaptive",
    "ablate-prevention",
    "ablate-csp-sensitivity",
    "ablate-factor",
    "ablate-backdoor",
    "table9-missed",
    "roc",
];

/// Dispatches an experiment by id.
///
/// # Errors
///
/// Returns a human-readable error string for unknown ids or experiment
/// failures.
pub fn run_experiment(id: &str, ctx: &ExperimentContext) -> Result<String, String> {
    match id {
        "table1" => Ok(table1()),
        "fig4" => Ok(fig4(ctx)),
        "fig7" => fig7(ctx).map_err(|e| e.to_string()),
        "fig8" => Ok(distribution_figure(
            ctx,
            "Figure 8 — scaling detection score distributions (white-box, training profile)",
            IDX_SCALING_MSE,
            IDX_SCALING_SSIM,
        )),
        "table2" => whitebox_table(
            ctx,
            "Table 2 — scaling detection, white-box",
            IDX_SCALING_MSE,
            IDX_SCALING_SSIM,
        )
        .map_err(|e| e.to_string()),
        "fig9" => benign_distribution_figure(
            ctx,
            "Figure 9 — benign scaling score distributions with percentiles (black-box)",
            IDX_SCALING_MSE,
            IDX_SCALING_SSIM,
        )
        .map_err(|e| e.to_string()),
        "table3" => blackbox_table(
            ctx,
            "Table 3 — scaling detection, black-box percentiles",
            IDX_SCALING_MSE,
            IDX_SCALING_SSIM,
        )
        .map_err(|e| e.to_string()),
        "fig10" => Ok(distribution_figure(
            ctx,
            "Figure 10 — filtering detection score distributions (white-box, training profile)",
            IDX_FILTERING_MSE,
            IDX_FILTERING_SSIM,
        )),
        "table4" => whitebox_table(
            ctx,
            "Table 4 — filtering detection, white-box",
            IDX_FILTERING_MSE,
            IDX_FILTERING_SSIM,
        )
        .map_err(|e| e.to_string()),
        "fig11" => benign_distribution_figure(
            ctx,
            "Figure 11 — benign filtering score distributions with percentiles (black-box)",
            IDX_FILTERING_MSE,
            IDX_FILTERING_SSIM,
        )
        .map_err(|e| e.to_string()),
        "table5" => blackbox_table(
            ctx,
            "Table 5 — filtering detection, black-box percentiles",
            IDX_FILTERING_MSE,
            IDX_FILTERING_SSIM,
        )
        .map_err(|e| e.to_string()),
        "fig12" => Ok(fig12(ctx)),
        "table6" => table6(ctx).map_err(|e| e.to_string()),
        "table7" => Ok(crate::runtime::table7(ctx)),
        "table8" => table8(ctx).map_err(|e| e.to_string()),
        "fig15" => Ok(psnr_figure(
            ctx,
            "Figure 15 — PSNR is not separable (scaling detection, Appendix A)",
            IDX_SCALING_PSNR,
        )),
        "fig16" => Ok(psnr_figure(
            ctx,
            "Figure 16 — PSNR is not separable (filtering detection, Appendix A)",
            IDX_FILTERING_PSNR,
        )),
        "ablate-colorhist" => Ok(ablate_colorhist(ctx)),
        "ablate-robust-scaler" => Ok(ablate_robust_scaler(ctx)),
        "ablate-adaptive" => ablate_adaptive(ctx).map_err(|e| e.to_string()),
        "ablate-prevention" => ablate_prevention(ctx).map_err(|e| e.to_string()),
        "table9-missed" => table9_missed(ctx).map_err(|e| e.to_string()),
        "ablate-factor" => ablate_factor(ctx).map_err(|e| e.to_string()),
        "ablate-backdoor" => ablate_backdoor(ctx).map_err(|e| e.to_string()),
        "ablate-csp-sensitivity" => Ok(ablate_csp_sensitivity(ctx)),
        "roc" => roc_table(ctx).map_err(|e| e.to_string()),
        other => Err(format!(
            "unknown experiment {other:?}; known: {} + {}",
            ALL_EXPERIMENTS.join(", "),
            ABLATIONS.join(", ")
        )),
    }
}

fn metrics_row(label: &str, m: &EvalMetrics) -> Vec<String> {
    vec![
        label.to_string(),
        percent(m.accuracy),
        percent(m.precision),
        percent(m.recall),
        percent(m.far),
        percent(m.frr),
    ]
}

/// Table 1 — the static CNN input-size catalogue.
pub fn table1() -> String {
    let mut t = MarkdownTable::new(vec!["Model", "Size (pixels)"]);
    for entry in ModelInputSize::TABLE {
        t.push_row(vec![
            entry.model.to_string(),
            format!("{} x {}", entry.input.width, entry.input.height),
        ]);
    }
    format!("## Table 1 — input sizes of popular CNN models\n\n{t}")
}

/// Figure 7 — the white-box threshold-search traces for the scaling method.
fn fig7(ctx: &ExperimentContext) -> Result<String, decamouflage_core::DetectError> {
    let train = ctx.train();
    let mut out =
        String::from("## Figure 7 — threshold search traces, scaling detection (white-box)\n\n");
    for (idx, direction, label) in [
        (IDX_SCALING_MSE, Direction::AboveIsAttack, "MSE"),
        (IDX_SCALING_SSIM, Direction::BelowIsAttack, "SSIM"),
    ] {
        let corpus = train.of(idx);
        let search = decamouflage_core::threshold::search_whitebox(
            &corpus.benign,
            &corpus.attack,
            direction,
        )?;
        out.push_str(&format!(
            "### {label}: best threshold {} (train accuracy {})\n\n",
            number(search.threshold.value()),
            percent(search.train_accuracy)
        ));
        let mut t = MarkdownTable::new(vec!["candidate threshold", "accuracy"]);
        // Subsample the trace to ~25 representative points.
        let step = (search.trace.len() / 25).max(1);
        for point in search.trace.iter().step_by(step) {
            t.push_row(vec![number(point.threshold), percent(point.accuracy)]);
        }
        out.push_str(&t.to_string());
        out.push('\n');
    }
    Ok(out)
}

/// Shared benign-vs-attack histogram figure.
fn distribution_figure(
    ctx: &ExperimentContext,
    title: &str,
    idx_mse: usize,
    idx_ssim: usize,
) -> String {
    let train = ctx.train();
    let mut out = format!("## {title}\n");
    for (idx, label, bins) in [(idx_mse, "MSE", 20), (idx_ssim, "SSIM", 20)] {
        let corpus = train.of(idx);
        out.push_str(&format!("\n### {label} — benign\n```\n"));
        out.push_str(&render_hist(&corpus.benign, bins));
        out.push_str("```\n");
        out.push_str(&format!("\n### {label} — attack\n```\n"));
        out.push_str(&render_hist(&corpus.attack, bins));
        out.push_str("```\n");
    }
    out
}

/// Shared benign-only histogram + percentile-marker figure (black-box).
fn benign_distribution_figure(
    ctx: &ExperimentContext,
    title: &str,
    idx_mse: usize,
    idx_ssim: usize,
) -> Result<String, decamouflage_core::DetectError> {
    let train = ctx.train();
    let mut out = format!("## {title}\n");
    for (idx, direction, label) in
        [(idx_mse, Direction::AboveIsAttack, "MSE"), (idx_ssim, Direction::BelowIsAttack, "SSIM")]
    {
        let corpus = train.of(idx);
        let summary = corpus.benign_summary()?;
        out.push_str(&format!(
            "\n### {label} — benign only (mean {}, std {})\n```\n",
            number(summary.mean),
            number(summary.std_dev)
        ));
        out.push_str(&render_hist(&corpus.benign, 20));
        out.push_str("```\n");
        for tail in [1.0, 2.0, 3.0] {
            let t =
                decamouflage_core::threshold::percentile_blackbox(&corpus.benign, tail, direction)?;
            out.push_str(&format!("- {tail}% percentile threshold: {}\n", number(t.value())));
        }
    }
    Ok(out)
}

fn render_hist(samples: &[f64], bins: usize) -> String {
    match Histogram::from_samples(samples, bins, None) {
        Ok(h) => h.render_ascii(40),
        Err(e) => format!("(histogram unavailable: {e})\n"),
    }
}

/// Shared white-box table (scaling or filtering).
fn whitebox_table(
    ctx: &ExperimentContext,
    title: &str,
    idx_mse: usize,
    idx_ssim: usize,
) -> Result<String, decamouflage_core::DetectError> {
    let mut t =
        MarkdownTable::new(vec!["Metric", "Acc.", "Prec.", "Rec.", "FAR", "FRR", "Threshold"]);
    for (idx, direction, label) in
        [(idx_mse, Direction::AboveIsAttack, "MSE"), (idx_ssim, Direction::BelowIsAttack, "SSIM")]
    {
        let (train, eval) = (ctx.train().of(idx), ctx.eval().of(idx));
        let threshold = search_whitebox(&train.benign, &train.attack, direction)?.threshold;
        let mut row =
            metrics_row(label, &evaluate_threshold(&eval.benign, &eval.attack, threshold)?);
        row.push(number(threshold.value()));
        t.push_row(row);
    }
    Ok(format!(
        "## {title}\n\n(thresholds selected on `{}`, evaluated on `{}`, {} images per class)\n\n{t}",
        ctx.train_profile.name, ctx.eval_profile.name, ctx.config.count
    ))
}

/// Shared black-box percentile table (scaling or filtering).
fn blackbox_table(
    ctx: &ExperimentContext,
    title: &str,
    idx_mse: usize,
    idx_ssim: usize,
) -> Result<String, decamouflage_core::DetectError> {
    let mut t = MarkdownTable::new(vec![
        "Metric",
        "Percentile",
        "Acc.",
        "Prec.",
        "Rec.",
        "FAR",
        "FRR",
        "Mean",
        "STD",
    ]);
    for (idx, direction, label) in
        [(idx_mse, Direction::AboveIsAttack, "MSE"), (idx_ssim, Direction::BelowIsAttack, "SSIM")]
    {
        let (train, eval) = (ctx.train().of(idx), ctx.eval().of(idx));
        let summary = train.benign_summary()?;
        for tail in [1.0, 2.0, 3.0] {
            let threshold = percentile_blackbox(&train.benign, tail, direction)?;
            let metrics = evaluate_threshold(&eval.benign, &eval.attack, threshold)?;
            let mut row = vec![label.to_string(), format!("{tail}%")];
            row.extend(metrics_row("", &metrics).into_iter().skip(1));
            row.push(number(summary.mean));
            row.push(number(summary.std_dev));
            t.push_row(row);
        }
    }
    Ok(format!(
        "## {title}\n\n(benign-only percentile thresholds from `{}`, evaluated on `{}`)\n\n{t}",
        ctx.train_profile.name, ctx.eval_profile.name
    ))
}

/// Figure 12 — the CSP count distributions.
fn fig12(ctx: &ExperimentContext) -> String {
    let corpus = ctx.train().of(IDX_STEGANALYSIS);
    let count_of = |scores: &[f64], v: f64| scores.iter().filter(|&&s| s == v).count();
    let mut t = MarkdownTable::new(vec!["CSP count", "benign images", "attack images"]);
    let max_csp =
        corpus.benign.iter().chain(corpus.attack.iter()).cloned().fold(0.0f64, f64::max) as usize;
    for v in 0..=max_csp.min(12) {
        t.push_row(vec![
            v.to_string(),
            count_of(&corpus.benign, v as f64).to_string(),
            count_of(&corpus.attack, v as f64).to_string(),
        ]);
    }
    let single_benign = count_of(&corpus.benign, 1.0) as f64 / corpus.benign.len() as f64;
    let multi_attack =
        corpus.attack.iter().filter(|&&s| s >= 2.0).count() as f64 / corpus.attack.len() as f64;
    format!(
        "## Figure 12 — CSP distributions (white-box, training profile)\n\n{t}\n\
         {} of benign images have exactly 1 CSP; {} of attack images have >= 2.\n",
        percent(single_benign),
        percent(multi_attack)
    )
}

/// Table 6 — steganalysis detection with the universal CSP threshold.
fn table6(ctx: &ExperimentContext) -> Result<String, decamouflage_core::DetectError> {
    let threshold = SteganalysisDetector::universal_threshold();
    let eval = ctx.eval().of(IDX_STEGANALYSIS);
    let metrics = evaluate_threshold(&eval.benign, &eval.attack, threshold)?;
    // White-box search should land on the same CSP_T = 2.
    let corpus = ctx.train().of(IDX_STEGANALYSIS);
    let search = decamouflage_core::threshold::search_whitebox(
        &corpus.benign,
        &corpus.attack,
        Direction::AboveIsAttack,
    )?;
    let mut t = MarkdownTable::new(vec!["Metric", "Acc.", "Prec.", "Rec.", "FAR", "FRR"]);
    t.push_row(metrics_row("CSP", &metrics));
    Ok(format!(
        "## Table 6 — steganalysis detection (fixed CSP_T = 2, no calibration needed)\n\n{t}\n\
         For reference, an unconstrained white-box search on `{}` would select threshold {} \
         (training accuracy {}); the paper's fixed CSP_T = 2 needs no such calibration and \
         trades a little FRR for zero FAR.\n",
        ctx.train_profile.name,
        number(search.threshold.value()),
        percent(search.train_accuracy)
    ))
}

/// Judges one majority-vote ensemble on the evaluation corpus: each
/// image's registry scores go through [`Ensemble::vote`] under
/// [`DegradePolicy::Strict`], so a non-finite member score fails the
/// table instead of voting.
fn ensemble_metrics(
    ctx: &ExperimentContext,
    members: impl IntoIterator<Item = (MethodId, Threshold)>,
) -> Result<EvalMetrics, DetectError> {
    let eval = ctx.eval();
    let engine = DetectionEngine::new(ctx.eval_profile.target_size);
    let ensemble = Ensemble::new(engine, members, DegradePolicy::Strict);
    let sizes = eval.of(IDX_SCALING_MSE);
    let mut counts = ConfusionCounts::default();
    for (is_attack, len) in [(false, sizes.benign.len()), (true, sizes.attack.len())] {
        for index in 0..len {
            let scores = eval.score_vector(is_attack, index);
            counts.record(is_attack, ensemble.vote(Ok(&scores))?.is_attack);
        }
    }
    counts.metrics()
}

/// Table 8 — the majority-vote ensembles, with and without the
/// peak-excess member.
fn table8(ctx: &ExperimentContext) -> Result<String, decamouflage_core::DetectError> {
    let train = ctx.train();
    let stego = (MethodId::Csp, SteganalysisDetector::universal_threshold());

    // White-box member thresholds (best metric per method, as in the paper:
    // scaling/MSE, filtering/SSIM, steganalysis/CSP), plus the promoted
    // peak-excess method under its registry direction.
    let search = |idx: usize, direction| {
        let corpus = train.of(idx);
        search_whitebox(&corpus.benign, &corpus.attack, direction).map(|s| s.threshold)
    };
    let whitebox = [
        (MethodId::ScalingMse, search(IDX_SCALING_MSE, Direction::AboveIsAttack)?),
        (MethodId::FilteringSsim, search(IDX_FILTERING_SSIM, Direction::BelowIsAttack)?),
        stego,
    ];
    let whitebox_peak =
        (MethodId::PeakExcess, search(IDX_PEAK_EXCESS, MethodId::PeakExcess.direction())?);

    // Black-box member thresholds (1% benign percentile + fixed CSP; the
    // peak-excess member gets the same benign percentile treatment because
    // the registry gives it no universal threshold).
    let percentile =
        |idx: usize, direction| percentile_blackbox(&train.of(idx).benign, 1.0, direction);
    let blackbox = [
        (MethodId::ScalingMse, percentile(IDX_SCALING_MSE, Direction::AboveIsAttack)?),
        (MethodId::FilteringSsim, percentile(IDX_FILTERING_SSIM, Direction::BelowIsAttack)?),
        stego,
    ];
    let blackbox_peak =
        (MethodId::PeakExcess, percentile(IDX_PEAK_EXCESS, MethodId::PeakExcess.direction())?);

    let mut t = MarkdownTable::new(vec!["Setting", "Acc.", "Prec.", "Rec.", "FAR", "FRR"]);
    for (label, members, extra) in [
        ("White-box ensemble", whitebox, None),
        ("White-box ensemble + peak-excess", whitebox, Some(whitebox_peak)),
        ("Black-box ensemble", blackbox, None),
        ("Black-box ensemble + peak-excess", blackbox, Some(blackbox_peak)),
    ] {
        t.push_row(metrics_row(label, &ensemble_metrics(ctx, members.into_iter().chain(extra))?));
    }
    Ok(format!(
        "## Table 8 — Decamouflage as a majority-vote ensemble\n\n\
         (paper members: scaling/MSE, filtering/SSIM, steganalysis/CSP; the `+ peak-excess` \
         rows add the promoted steganalysis/peak-excess method as a fourth voter, which \
         raises the majority bar from 2-of-3 to 3-of-4; evaluated on `{}`)\n\n{t}",
        ctx.eval_profile.name
    ))
}

/// Appendix figures 15/16 — PSNR distributions overlap.
fn psnr_figure(ctx: &ExperimentContext, title: &str, idx: usize) -> String {
    let corpus = ctx.train().of(idx);
    let overlap = overlap_fraction(&corpus.benign, &corpus.attack);
    let mut out = format!("## {title}\n\n### benign PSNR\n```\n");
    out.push_str(&render_hist(&finite_only(&corpus.benign), 20));
    out.push_str("```\n\n### attack PSNR\n```\n");
    out.push_str(&render_hist(&finite_only(&corpus.attack), 20));
    out.push_str(&format!(
        "```\n\nFraction of benign PSNR values inside the attack range: {} — the \
         distributions overlap instead of separating (compare the `roc` experiment's AUC \
         column), which is why the paper rejects PSNR as a detection metric.\n",
        percent(overlap)
    ));
    out
}

fn finite_only(samples: &[f64]) -> Vec<f64> {
    samples.iter().copied().filter(|s| s.is_finite()).collect()
}

/// Fraction of benign samples lying inside the attack range (a quick
/// separability indicator; ~0 for MSE/SSIM, large for PSNR/colorhist).
fn overlap_fraction(benign: &[f64], attack: &[f64]) -> f64 {
    let attack = finite_only(attack);
    let benign = finite_only(benign);
    if benign.is_empty() || attack.is_empty() {
        return 0.0;
    }
    let lo = attack.iter().cloned().fold(f64::MAX, f64::min);
    let hi = attack.iter().cloned().fold(f64::MIN, f64::max);
    benign.iter().filter(|&&b| b >= lo && b <= hi).count() as f64 / benign.len() as f64
}

/// §3.1 negative result: colour-histogram similarity does not separate.
fn ablate_colorhist(ctx: &ExperimentContext) -> String {
    let corpus = ctx.train().of(IDX_COLORHIST);
    let overlap = overlap_fraction(&corpus.benign, &corpus.attack);
    let b = SampleSummary::from_samples(&corpus.benign);
    let a = SampleSummary::from_samples(&corpus.attack);
    let mut t = MarkdownTable::new(vec!["Class", "mean", "std", "min", "max"]);
    if let (Ok(b), Ok(a)) = (b, a) {
        t.push_row(vec![
            "benign".into(),
            number(b.mean),
            number(b.std_dev),
            number(b.min),
            number(b.max),
        ]);
        t.push_row(vec![
            "attack".into(),
            number(a.mean),
            number(a.std_dev),
            number(a.min),
            number(a.max),
        ]);
    }
    format!(
        "## Ablation — colour-histogram similarity (Xiao et al.'s proposed metric, §3.1)\n\n\
         Histogram-intersection similarity between the input and its scaling round trip:\n\n{t}\n\
         Benign-inside-attack-range overlap: {} — consistent with the paper's finding that \
         the colour histogram is not a valid detection metric.\n",
        percent(overlap)
    )
}

/// Related-work ablation: attack success per scaling algorithm (area
/// scaling is the robust baseline).
fn ablate_robust_scaler(ctx: &ExperimentContext) -> String {
    use decamouflage_attack::{verify_attack, VerifyConfig};
    let count = ctx.config.count.clamp(1, 30);
    let mut t = MarkdownTable::new(vec![
        "Scaler",
        "attacks succeeded",
        "scales to target",
        "visually stealthy",
        "mean perturbation MSE",
    ]);
    for algo in [ScaleAlgorithm::Nearest, ScaleAlgorithm::Bilinear, ScaleAlgorithm::Area] {
        let g = SampleGenerator::new(ctx.train_profile.clone(), algo);
        let mut success = 0usize;
        let mut hits_target = 0usize;
        let mut stealthy = 0usize;
        let mut mse_sum = 0.0;
        for i in 0..count {
            let crafted = g.attack(i as u64).expect("crafting runs to completion");
            let v = verify_attack(
                &g.benign(i as u64),
                &crafted.image,
                &g.target(i as u64),
                &g.scaler(i as u64),
                &VerifyConfig::default(),
            )
            .expect("shapes are consistent");
            success += usize::from(v.is_successful());
            hits_target += usize::from(v.scales_to_target);
            stealthy += usize::from(v.visually_stealthy);
            mse_sum += v.perturbation_mse;
        }
        t.push_row(vec![
            algo.name().to_string(),
            format!("{success}/{count}"),
            format!("{hits_target}/{count}"),
            format!("{stealthy}/{count}"),
            number(mse_sum / count as f64),
        ]);
    }

    // Second robust-scaling variant: serve bilinear attacks to a deployment
    // that anti-aliases before resizing. The attack was crafted for the
    // plain kernel, so the payload never reaches the model.
    {
        use decamouflage_imaging::scale::resize_antialiased;
        let g = SampleGenerator::new(ctx.train_profile.clone(), ScaleAlgorithm::Bilinear);
        let mut survives = 0usize;
        let mut mse_sum = 0.0;
        for i in 0..count as u64 {
            let crafted = g.attack(i).expect("crafting runs to completion");
            let target = g.target(i);
            let down = resize_antialiased(
                &crafted.image,
                target.width(),
                target.height(),
                ScaleAlgorithm::Bilinear,
            )
            .expect("profile sizes are valid");
            let linf = down
                .planes()
                .iter()
                .flatten()
                .zip(target.planes().iter().flatten())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            survives += usize::from(linf <= VerifyConfig::default().target_tolerance_linf);
            mse_sum += decamouflage_metrics::mse(&down, &target).expect("same shape");
        }
        t.push_row(vec![
            "bilinear + anti-alias prefilter (defense)".into(),
            format!("{survives}/{count}"),
            format!("{survives}/{count}"),
            "n/a (attack unchanged)".into(),
            number(mse_sum / count as f64),
        ]);
    }
    format!(
        "## Ablation — attack success per scaling algorithm (robust-scaler defense)\n\n\
         An attack *succeeds* when it both reaches the target after downscaling and stays \
         visually stealthy. Area scaling forces the perturbation to be visible, and an \
         anti-aliasing prefilter (last row; perturbation column shows the payload's distance \
         from the target after the defense) destroys an existing attack's payload outright — \
         the two robust-scaling defenses discussed in the paper's related work.\n\n{t}"
    )
}

/// The paper's ensemble for the training profile, with the scaling and
/// filtering thresholds searched white-box on the training scores and the
/// universal `CSP_T = 2`.
fn whitebox_ensemble(ctx: &ExperimentContext) -> Result<Ensemble, DetectError> {
    let train = ctx.train();
    let search = |idx: usize, direction| {
        search_whitebox(&train.of(idx).benign, &train.of(idx).attack, direction)
            .map(|search| search.threshold)
    };
    let thresholds: ThresholdSet = [
        (MethodId::ScalingMse, search(IDX_SCALING_MSE, Direction::AboveIsAttack)?),
        (MethodId::FilteringSsim, search(IDX_FILTERING_SSIM, Direction::BelowIsAttack)?),
        (MethodId::Csp, SteganalysisDetector::universal_threshold()),
    ]
    .into_iter()
    .collect();
    Ensemble::paper(ctx.train_profile.target_size, &thresholds, DegradePolicy::Strict)
}

/// Discussion-section ablation: adaptive attacks vs. the ensemble.
fn ablate_adaptive(ctx: &ExperimentContext) -> Result<String, DetectError> {
    use decamouflage_attack::adaptive::jitter_camouflage;

    let count = ctx.config.count.clamp(1, 25);
    let ensemble = whitebox_ensemble(ctx)?;
    let g = SampleGenerator::new(ctx.train_profile.clone(), ScaleAlgorithm::Bilinear);

    let mut t = MarkdownTable::new(vec![
        "Jitter strength",
        "scaling/mse detects",
        "filtering/ssim detects",
        "steganalysis detects",
        "ensemble detects",
    ]);
    for strength in [0.0, 6.0, 12.0, 24.0] {
        let mut hits = [0usize; 4];
        for i in 0..count {
            let crafted = g.attack(i as u64).expect("crafting succeeds");
            let image = jitter_camouflage(&crafted.image, &g.scaler(i as u64), strength, i as u64)
                .expect("jitter parameters are valid");
            let decision = ensemble.decide(&image)?;
            for (k, &(_, vote)) in decision.votes.iter().enumerate() {
                hits[k] += usize::from(vote);
            }
            hits[3] += usize::from(decision.is_attack);
        }
        t.push_row(vec![
            format!("{strength}"),
            format!("{}/{count}", hits[0]),
            format!("{}/{count}", hits[1]),
            format!("{}/{count}", hits[2]),
            format!("{}/{count}", hits[3]),
        ]);
    }
    Ok(format!(
        "## Ablation — adaptive jitter camouflage vs. the ensemble (§6 discussion)\n\n\
         The attacker adds noise to the pixels the scaler ignores, trying to mask the \
         periodic CSP peaks. The noise leaves `scale(A)` untouched but *increases* the \
         round-trip and filter residuals, so the spatial detectors get stronger as the \
         spectral one is attacked — the defense-in-depth argument for the ensemble.\n\n{t}"
    ))
}

/// Prevention-vs-detection ablation: Quiring-style image reconstruction
/// neutralises the attack but rewrites benign pixels too (the quality cost
/// that motivates detection-only defenses).
fn ablate_prevention(ctx: &ExperimentContext) -> Result<String, decamouflage_core::DetectError> {
    use decamouflage_core::prevention::{prevention_quality_cost, reconstruct_sampled_pixels};
    let count = ctx.config.count.clamp(1, 20);
    let g = SampleGenerator::new(ctx.train_profile.clone(), ScaleAlgorithm::Bilinear);

    let mut payload_before = 0.0; // MSE(scale(A), T): small = attack works
    let mut payload_after = 0.0; // MSE(scale(sanitised A), T): large = defused
    let mut benign_cost = 0.0; // MSE(benign, sanitised benign): quality loss
    for i in 0..count as u64 {
        let scaler = g.scaler(i);
        let target = g.target(i);
        let attack = g.attack_image(i).expect("crafting succeeds");
        let mse_to_target = |img: &decamouflage_imaging::Image| {
            let down = scaler.apply(img).expect("sizes match");
            decamouflage_metrics::mse(&down, &target).expect("same shape")
        };
        payload_before += mse_to_target(&attack);
        let sanitised = reconstruct_sampled_pixels(&attack, &scaler, 2)?;
        payload_after += mse_to_target(&sanitised);
        benign_cost += prevention_quality_cost(&g.benign(i), &scaler, 2)?;
    }
    let n = count as f64;
    let mut t = MarkdownTable::new(vec!["Quantity", "Mean over corpus"]);
    t.push_row(vec![
        "MSE(scale(attack), target) — before prevention".into(),
        number(payload_before / n),
    ]);
    t.push_row(vec![
        "MSE(scale(sanitised attack), target) — after prevention".into(),
        number(payload_after / n),
    ]);
    t.push_row(vec![
        "MSE(benign, sanitised benign) — quality cost on clean images".into(),
        number(benign_cost / n),
    ]);
    Ok(format!(
        "## Ablation — prevention (image reconstruction) vs. detection\n\n\
         Reconstruction destroys the attack payload (second row must be much larger than the \
         first) but also rewrites every image it touches, including benign ones (third row > 0) \
         — the degradation the paper's detection-only design avoids.\n\n{t}"
    ))
}

/// CSP parameter-sensitivity sweep: detection quality across binarisation
/// thresholds, with the fixed `CSP_T = 2` decision rule.
fn ablate_csp_sensitivity(ctx: &ExperimentContext) -> String {
    let count = ctx.config.count.clamp(1, 30);
    let g = crate::corpus::MixedAttackGenerator::new(ctx.train_profile.clone());
    let target = ctx.train_profile.target_size;
    let engine = DetectionEngine::new(target).with_methods(MethodSet::of(&[MethodId::Csp]));

    let mut t = MarkdownTable::new(vec![
        "binarize threshold",
        "benign flagged (FRR)",
        "attacks caught (recall)",
    ]);
    for thr in [0.58, 0.62, 0.66, 0.70, 0.74] {
        let mut cfg = SteganalysisDetector::for_target(target).config().clone();
        cfg.binarize_threshold = thr;
        let engine = engine.clone().with_csp_config(cfg);
        let rule = SteganalysisDetector::universal_threshold();
        let flags = |image| rule.is_attack(engine.score(&image).expect("csp works").csp());
        let mut frr = 0usize;
        let mut caught = 0usize;
        for i in 0..count as u64 {
            frr += usize::from(flags(g.benign(i)));
            caught += usize::from(flags(g.attack(i)));
        }
        t.push_row(vec![format!("{thr}"), format!("{frr}/{count}"), format!("{caught}/{count}")]);
    }
    format!(
        "## Ablation — CSP binarisation-threshold sensitivity\n\n\
         The fixed decision rule CSP_T = 2 tolerates a wide band of binarisation thresholds: \
         too low fragments the benign central blob (FRR rises), too high extinguishes weak \
         attack peaks (recall falls). The shipped default is 0.66.\n\n{t}"
    )
}

/// Threshold-free comparison of all scorers: ROC AUC on the training
/// profile, including the negative-result metrics.
fn roc_table(ctx: &ExperimentContext) -> Result<String, decamouflage_core::DetectError> {
    use crate::corpus::{IDX_FILTERING_PSNR, IDX_SCALING_PSNR, SCORER_NAMES};
    use decamouflage_core::roc::roc_curve;
    use decamouflage_core::MethodId;
    let train = ctx.train();
    let mut t = MarkdownTable::new(vec!["Scorer", "AUC (train profile)", "verdict"]);
    // Every registry method sweeps under its registry direction; the three
    // negative-result scorers are appended with the orientation under which
    // they would have to work. A newly registered method is swept with no
    // change here.
    let mut entries: Vec<(usize, Direction)> =
        MethodId::ALL.iter().map(|&id| (id as usize, id.direction())).collect();
    entries.extend([
        (IDX_SCALING_PSNR, Direction::BelowIsAttack),
        (IDX_FILTERING_PSNR, Direction::BelowIsAttack),
        (IDX_COLORHIST, Direction::BelowIsAttack),
    ]);
    for (idx, direction) in entries {
        let corpus = train.of(idx);
        // PSNR of identical images is +inf; clamp for the sweep.
        let clamp = |v: &f64| if v.is_finite() { *v } else { 1e6 };
        let benign: Vec<f64> = corpus.benign.iter().map(clamp).collect();
        let attack: Vec<f64> = corpus.attack.iter().map(clamp).collect();
        let auc = roc_curve(&benign, &attack, direction)?.auc();
        let verdict = match idx {
            IDX_SCALING_PSNR | IDX_FILTERING_PSNR => {
                "inherits MSE's ranking (monotone transform) — see note"
            }
            _ if auc >= 0.99 => "separates cleanly",
            _ if auc >= 0.9 => "usable",
            _ => "not a valid detection metric",
        };
        t.push_row(vec![SCORER_NAMES[idx].to_string(), format!("{auc:.4}"), verdict.into()]);
    }
    Ok(format!(
        "## ROC analysis — threshold-free comparison of every scorer\n\n\
         MSE/SSIM/CSP achieve near-perfect AUC; the colour histogram does not. Note on PSNR: \
         because `PSNR = 10 log10(255² / MSE)` is a strictly monotone transform of MSE, its ROC \
         is *identical* to MSE's by construction. The paper's Appendix-A rejection of PSNR is \
         about the legibility of a fixed threshold — the log compression squeezes the benign \
         and attack histograms together (see fig15/fig16) and makes the boundary unstable — \
         not about ranking power.\n\n{t}"
    ))
}

/// Figure 4 — which rank filter reveals the embedded target best.
///
/// The paper's wolf-in-sheep example hides a payload *darker* than its
/// host, which the minimum filter reveals; a brighter payload is the
/// mirror case for the maximum filter. Both regimes are measured.
pub fn fig4(ctx: &ExperimentContext) -> String {
    use decamouflage_imaging::filter::{rank_filter, RankKind};
    use decamouflage_imaging::scale::Scaler;

    let count = ctx.config.count.clamp(2, 12);
    let g = SampleGenerator::new(ctx.train_profile.clone(), ScaleAlgorithm::Bilinear);
    let kinds = [RankKind::Minimum, RankKind::Median, RankKind::Maximum];
    let mut t = MarkdownTable::new(vec![
        "Payload regime",
        "Filter",
        "MSE(filtered attack, upscaled target) — lower = revealed",
    ]);
    for (regime, shift) in [("dark payload (paper's example)", -70.0), ("bright payload", 70.0)] {
        let mut sums = [0.0f64; 3];
        for i in 0..count as u64 {
            let original = g.benign(i);
            let scaler = g.scaler(i);
            // Compress the target's contrast and shift it relative to the
            // host image's mean to construct the regime.
            let target =
                g.target(i).map(|v| (v * 0.4 + original.mean_sample() + shift).clamp(0.0, 255.0));
            let attack = decamouflage_attack::craft_attack(
                &original,
                &target,
                &scaler,
                &decamouflage_attack::AttackConfig::default(),
            )
            .expect("crafting succeeds")
            .image;
            let up = Scaler::new(scaler.dst_size(), scaler.src_size(), ScaleAlgorithm::Nearest)
                .expect("profile sizes valid")
                .apply(&target)
                .expect("sizes match");
            for (k, kind) in kinds.iter().enumerate() {
                let filtered = rank_filter(&attack, 2, *kind).expect("window 2 is valid");
                sums[k] += decamouflage_metrics::mse(&filtered, &up).expect("same shape");
            }
        }
        for (k, kind) in kinds.iter().enumerate() {
            t.push_row(vec![
                regime.to_string(),
                kind.name().to_string(),
                number(sums[k] / count as f64),
            ]);
        }
    }
    format!(
        "## Figure 4 — rank-filter comparison on attack images\n\n\
         A payload darker than its host (the paper's wolf-in-sheep) is revealed best by the \
         minimum filter; a brighter payload is the symmetric case for the maximum filter. The \
         filtering-detection method is insensitive to the direction because it compares the \
         filtered image with the input, not with the payload.\n\n{t}"
    )
}

/// Table 9 / Appendix B — do the attacks that evade Decamouflage still
/// work?
///
/// The paper inspects the few attack images its system misses and finds
/// that commercial classifiers no longer recognise the hidden target: an
/// evasive attack image has lost its purpose. We reproduce the mechanism
/// with partial-strength attacks: sweeping the blend factor `alpha` from
/// full strength towards benign, detection and attack efficacy collapse
/// *together*.
pub fn table9_missed(ctx: &ExperimentContext) -> Result<String, DetectError> {
    use decamouflage_attack::adaptive::blend_target;
    use decamouflage_attack::{craft_attack, verify_attack, AttackConfig, VerifyConfig};

    let count = ctx.config.count.clamp(2, 20);
    let ensemble = whitebox_ensemble(ctx)?;
    let g = SampleGenerator::new(ctx.train_profile.clone(), ScaleAlgorithm::Bilinear);

    let mut t = MarkdownTable::new(vec![
        "attack strength (alpha)",
        "ensemble detects",
        "still delivers target",
        "evades AND still works",
    ]);
    for alpha in [1.0, 0.6, 0.4, 0.2] {
        let mut detected = 0usize;
        let mut effective = 0usize;
        let mut dangerous = 0usize;
        for i in 0..count as u64 {
            let original = g.benign(i);
            let full_target = g.target(i);
            let scaler = g.scaler(i);
            let weak = blend_target(&original, &full_target, &scaler, alpha).map_err(|e| {
                decamouflage_core::DetectError::InvalidConfig { message: e.to_string() }
            })?;
            let crafted = craft_attack(&original, &weak, &scaler, &AttackConfig::default())
                .map_err(|e| decamouflage_core::DetectError::InvalidConfig {
                    message: e.to_string(),
                })?;
            let flagged = ensemble.decide(&crafted.image)?.is_attack;
            // Efficacy is judged against the attacker's *real* goal: the
            // full-strength target.
            let verdict = verify_attack(
                &original,
                &crafted.image,
                &full_target,
                &scaler,
                &VerifyConfig::default(),
            )
            .map_err(|e| decamouflage_core::DetectError::InvalidConfig {
                message: e.to_string(),
            })?;
            detected += usize::from(flagged);
            effective += usize::from(verdict.scales_to_target);
            dangerous += usize::from(!flagged && verdict.scales_to_target);
        }
        t.push_row(vec![
            format!("{alpha}"),
            format!("{detected}/{count}"),
            format!("{effective}/{count}"),
            format!("{dangerous}/{count}"),
        ]);
    }
    Ok(format!(
        "## Table 9 / Appendix B — evasive attack images lose their purpose\n\n\
         Weakening the attack to slip past the ensemble also stops it from delivering its \
         payload: the last column (undetected AND still effective) should stay at zero across \
         the sweep — the paper's conclusion about the images that got away.\n\n{t}"
    ))
}

/// Downscale-factor sweep: how attack stealth and detectability change
/// with the ratio between source and CNN input size.
///
/// The paper notes the attack needs enough "spare" pixels to hide its
/// payload (factor >= ~2-3 for interpolating scalers). This sweep makes
/// that quantitative: at factor 2 bilinear scaling reads *every* source
/// pixel, so the perturbation is enormous and trivially visible; from
/// factor 3 upward the attack is stealthy — and every Decamouflage method
/// still detects it.
pub fn ablate_factor(ctx: &ExperimentContext) -> Result<String, DetectError> {
    use decamouflage_attack::{verify_attack, VerifyConfig};
    use decamouflage_imaging::Size;

    let count = ctx.config.count.clamp(2, 8);
    let target = ctx.train_profile.target_size.width; // square target
    let mut t = MarkdownTable::new(vec![
        "factor",
        "source size",
        "stealthy attacks",
        "perturbation MSE",
        "scaling-MSE score ratio (attack/benign)",
        "CSP >= 2",
    ]);
    for factor in [2usize, 3, 4, 5, 6] {
        let mut profile = ctx.train_profile.clone();
        profile.source_sizes = vec![Size::square(target * factor)];
        let engine = DetectionEngine::new(profile.target_size)
            .with_methods(MethodSet::of(&[MethodId::ScalingMse, MethodId::Csp]));
        let g = SampleGenerator::new(profile, ScaleAlgorithm::Bilinear);
        let mut stealthy = 0usize;
        let mut perturbation = 0.0f64;
        let mut ratio_sum = 0.0f64;
        let mut csp_hits = 0usize;
        for i in 0..count as u64 {
            let original = g.benign(i);
            let crafted = g.attack(i).expect("crafting succeeds");
            let v = verify_attack(
                &original,
                &crafted.image,
                &g.target(i),
                &g.scaler(i),
                &VerifyConfig::default(),
            )
            .expect("shapes are consistent");
            stealthy += usize::from(v.visually_stealthy);
            perturbation += v.perturbation_mse;
            let benign_score = engine.score(&original)?.scaling_mse().max(1e-9);
            let attack = engine.score(&crafted.image)?;
            ratio_sum += attack.scaling_mse() / benign_score;
            csp_hits += usize::from(attack.csp() >= 2.0);
        }
        let n = count as f64;
        t.push_row(vec![
            format!("{factor}x"),
            format!("{0}x{0}", target * factor),
            format!("{stealthy}/{count}"),
            number(perturbation / n),
            format!("{:.1}", ratio_sum / n),
            format!("{csp_hits}/{count}"),
        ]);
    }
    Ok(format!(
        "## Ablation — attack stealth and detectability vs. downscale factor\n\n\
         At factor 2 the bilinear kernel reads every source pixel, so the \"attack\" \
         degenerates into overwriting the whole image with the target (perturbation MSE an \
         order of magnitude above the stealthy regime, no periodic structure, round-trip \
         ratio near 1): there is no camouflage left for Decamouflage to detect, and none \
         needed — a human reviewer sees the payload directly. The threat model the paper \
         defends against starts at factor ~3, where the attack becomes stealthy and every \
         detection signal is strong.\n\n{t}"
    ))
}

/// §2.2 scenario at corpus scale: backdoor-poison triage.
///
/// Poison samples hide trigger-stamped victim images inside benign-looking
/// originals. Decamouflage triages the submission queue offline; a single
/// missed poison plants the backdoor, so the FAR on poison samples is the
/// security-critical number.
pub fn ablate_backdoor(ctx: &ExperimentContext) -> Result<String, DetectError> {
    use decamouflage_datasets::backdoor::{craft_poison_sample, Trigger};

    let count = ctx.config.count.clamp(2, 25);
    let ensemble = whitebox_ensemble(ctx)?;
    let g = SampleGenerator::new(ctx.train_profile.clone(), ScaleAlgorithm::Bilinear);
    let trigger = Trigger::default();

    let mut quarantined = 0usize;
    let mut payload_confirmed = 0usize;
    for i in 0..count as u64 {
        let poison = craft_poison_sample(&g, &trigger, i)
            .map_err(|e| decamouflage_core::DetectError::InvalidConfig { message: e.to_string() })?
            .image;
        // Confirm the poison actually carries the trigger for the model.
        let model_view = g.scaler(i).apply(&poison)?;
        payload_confirmed += usize::from(trigger.is_present(&model_view));
        quarantined += usize::from(ensemble.decide(&poison)?.is_attack);
    }
    let mut t = MarkdownTable::new(vec!["Quantity", "Count"]);
    t.push_row(vec![
        "poison samples with a working trigger payload".into(),
        format!("{payload_confirmed}/{count}"),
    ]);
    t.push_row(vec![
        "poison samples quarantined by the ensemble".into(),
        format!("{quarantined}/{count}"),
    ]);
    Ok(format!(
        "## Ablation — backdoor-poison triage (§2.2 scenario at corpus scale)\n\n\
         Trigger-stamped victim images are camouflaged inside benign-looking originals and run \
         through a white-box-calibrated ensemble. Every sample with a working payload should be \
         quarantined: a single miss plants the backdoor.\n\n{t}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::HarnessConfig;
    use decamouflage_datasets::DatasetProfile;

    fn tiny_ctx() -> ExperimentContext {
        ExperimentContext::with_profiles(
            HarnessConfig::smoke(6),
            DatasetProfile::tiny(),
            DatasetProfile::tiny(),
        )
    }

    #[test]
    fn table1_lists_all_models() {
        let s = table1();
        assert!(s.contains("LeNet-5"));
        assert!(s.contains("224 x 224"));
        assert!(s.contains("DAVE-2"));
    }

    #[test]
    fn unknown_experiment_is_reported() {
        let ctx = tiny_ctx();
        let err = run_experiment("table99", &ctx).unwrap_err();
        assert!(err.contains("unknown experiment"));
        assert!(err.contains("table1"));
    }

    #[test]
    fn whitebox_tables_render_on_tiny_profile() {
        let ctx = tiny_ctx();
        for id in ["table2", "table4"] {
            let s = run_experiment(id, &ctx).unwrap();
            assert!(s.contains("MSE"), "{id}: {s}");
            assert!(s.contains("SSIM"));
            assert!(s.contains('%'));
        }
    }

    #[test]
    fn blackbox_tables_render_on_tiny_profile() {
        let ctx = tiny_ctx();
        for id in ["table3", "table5"] {
            let s = run_experiment(id, &ctx).unwrap();
            assert!(s.contains("1%"));
            assert!(s.contains("3%"));
        }
    }

    #[test]
    fn figures_render_on_tiny_profile() {
        let ctx = tiny_ctx();
        for id in ["fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig15", "fig16"] {
            let s = run_experiment(id, &ctx).unwrap();
            assert!(!s.is_empty(), "{id} rendered empty");
        }
    }

    #[test]
    fn ensemble_and_stego_tables_render() {
        let ctx = tiny_ctx();
        let s6 = run_experiment("table6", &ctx).unwrap();
        assert!(s6.contains("CSP"));
        let s8 = run_experiment("table8", &ctx).unwrap();
        assert!(s8.contains("White-box ensemble"));
        assert!(s8.contains("Black-box ensemble"));
        assert!(s8.contains("White-box ensemble + peak-excess"));
        assert!(s8.contains("Black-box ensemble + peak-excess"));
    }

    #[test]
    fn extension_ablations_render_on_tiny_profile() {
        let ctx = tiny_ctx();
        let prevention = run_experiment("ablate-prevention", &ctx).unwrap();
        assert!(prevention.contains("quality cost"));
        let sensitivity = run_experiment("ablate-csp-sensitivity", &ctx).unwrap();
        assert!(sensitivity.contains("0.66"));
        let roc = run_experiment("roc", &ctx).unwrap();
        assert!(roc.contains("AUC"));
        assert!(roc.contains("scaling/mse"));
        assert!(roc.contains("steganalysis/peak-excess"));
        let missed = run_experiment("table9-missed", &ctx).unwrap();
        assert!(missed.contains("alpha"));
    }

    #[test]
    fn overlap_fraction_behaviour() {
        assert_eq!(overlap_fraction(&[1.0, 2.0], &[10.0, 20.0]), 0.0);
        assert_eq!(overlap_fraction(&[15.0, 2.0], &[10.0, 20.0]), 0.5);
        assert_eq!(overlap_fraction(&[], &[1.0]), 0.0);
        // Infinite PSNR samples (identical images) are ignored.
        assert_eq!(overlap_fraction(&[f64::INFINITY, 15.0], &[10.0, 20.0]), 1.0);
    }
}
