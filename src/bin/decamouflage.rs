//! `decamouflage` — command-line front end for the detection framework.
//!
//! ```text
//! decamouflage check <image> --target WxH [--thresholds FILE] [--metrics-out FILE]
//! decamouflage scan <dir> --target WxH [--thresholds FILE] [--chunk-size N]
//!                   [--shard k/N] [--checkpoint FILE] [--resume] [--metrics-out FILE]
//! decamouflage merge <checkpoint>... [-o FILE] [--metrics-out FILE]
//! decamouflage craft <original> <target-image> -o <attack-out>
//! decamouflage calibrate --benign DIR --attack DIR --target WxH -o thresholds.txt
//! decamouflage stats [--target WxH] [--count N] [--format prometheus|json] [-o FILE]
//! decamouflage serve --target WxH [--addr HOST:PORT] [--thresholds FILE] [--degrade MODE]
//!                    [--handlers N] [--queue-limit N] [--deadline-ms N] [--drain-ms N]
//!                    [--max-body-bytes N] [--metrics-out FILE]
//! ```
//!
//! Images are PGM/PPM, 24-bit BMP, PNG or baseline JPEG (sniffed by magic
//! bytes on read, chosen by extension on write). `check` exits
//! with status 2 when the image is flagged as an attack, 0 when benign —
//! scriptable as a pre-ingestion filter. `scan` triages a whole directory
//! (the paper's offline data-poisoning use case) and exits 2 if anything
//! was flagged. Directories stream through the bounded-memory
//! [`DirectorySource`] pipeline: at most `--chunk-size` decoded images
//! (default 64) are resident at once, so arbitrarily large corpora scan in
//! constant memory.
//!
//! Large corpora also shard: `--shard k/N` scans only the k-th of N
//! hash-partitions of the directory (membership is a pure function of
//! each file's name, so shards are stable across machines and listing
//! orders), `--checkpoint FILE` persists progress at every chunk
//! boundary, and `--resume` picks a killed scan up from its checkpoint —
//! refusing if the directory changed underneath it. `merge` combines the
//! finished shard checkpoints into one corpus-wide report with merged
//! telemetry, byte-identical to what a single unsharded scan would have
//! produced.
//!
//! `--metrics-out FILE` enables telemetry for the run and writes the
//! final metric state to `FILE` on exit — Prometheus text exposition by
//! default, JSON when the path ends in `.json`. `stats` exercises the
//! full pipeline on a synthetic corpus and emits the same exposition,
//! handy for wiring dashboards before real traffic exists.

use decamouflage::detection::calibrate::calibrate_whitebox;
use decamouflage::detection::ensemble::{DegradePolicy, Ensemble};
use decamouflage::detection::persist::ThresholdSet;
use decamouflage::detection::stream::{DirectorySource, StreamConfig};
use decamouflage::detection::{
    scan_shard, CorpusFingerprint, DetectionEngine, MethodId, MethodSet, ScanCheckpoint,
    ScanReport, ScoreError, ScoreFault, ShardSpec, SteganalysisDetector, Threshold,
};
use decamouflage::imaging::codec::{
    decode_auto, encode_jpeg, encode_png, write_bmp_file, write_pnm_file,
};
use decamouflage::imaging::scale::{ScaleAlgorithm, Scaler};
use decamouflage::imaging::{Image, Size};
use decamouflage::serve::flags::{parse_bounded_ms, parse_bounded_usize};
use decamouflage::serve::{DetectionService, Server, ServerConfig};
use decamouflage::telemetry::{to_json, to_prometheus_text, Telemetry};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("scan") => cmd_scan(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("craft") => cmd_craft(&args[1..]),
        Some("calibrate") => cmd_calibrate(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("--help" | "-h") | None => {
            print_usage();
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage:\n  decamouflage check <image> --target WxH [--thresholds FILE] [--degrade MODE] [--metrics-out FILE]\n  \
         decamouflage scan <dir> --target WxH [--thresholds FILE] [--degrade MODE] [--chunk-size N]\n    \
         [--shard k/N] [--checkpoint FILE] [--resume] [--metrics-out FILE]\n  \
         decamouflage merge <checkpoint>... [-o FILE] [--metrics-out FILE]\n  \
         decamouflage craft <original> <target-image> -o <attack-out>\n  \
         decamouflage calibrate --benign DIR --attack DIR --target WxH -o FILE\n  \
         decamouflage stats [--target WxH] [--count N] [--format prometheus|json] [-o FILE]\n  \
         decamouflage serve --target WxH [--addr HOST:PORT] [--thresholds FILE] [--degrade MODE]\n    \
         [--handlers N] [--queue-limit N] [--deadline-ms N] [--drain-ms N]\n    \
         [--max-body-bytes N] [--metrics-out FILE]\n\n\
         Images: .pgm/.ppm/.pnm, .bmp, .png or .jpg/.jpeg — read by magic bytes,\n  \
         written by extension. `check`/`scan` exit 0 = benign, 2 = attack(s) found.\n\
         --degrade: what to do when an ensemble voter cannot score an image —\n  \
         strict (default: report an error), majority (majority of the remaining voters),\n  \
         fail-closed (flag the image as an attack).\n\
         --chunk-size: images decoded per scoring chunk during scan (default 64) —\n  \
         peak memory is bounded by one chunk regardless of directory size.\n\
         --shard k/N: scan only the k-th of N stable hash-partitions of the directory;\n  \
         --checkpoint FILE persists progress every chunk, --resume continues from it.\n\
         merge: combine finished shard checkpoints into one corpus-wide report\n  \
         (stdout or -o FILE; --metrics-out writes the shards' merged telemetry).\n\
         --metrics-out: record telemetry during the run and write it to FILE on exit\n  \
         (Prometheus text; JSON when FILE ends in .json).\n\
         stats: run the pipeline on a synthetic corpus and emit its telemetry.\n\
         serve: HTTP detection service (POST /check, POST /scan, GET /metrics, GET /healthz)\n  \
         with bounded admission (503 + Retry-After past --queue-limit), per-request\n  \
         deadlines (--deadline-ms, 504 on expiry) and graceful SIGTERM drain (--drain-ms)."
    );
}

/// Strictly parsed command arguments: positionals in order, `--flag
/// value` pairs, and boolean switches. Anything starting with `-` that a
/// command did not declare is an error — a misspelt flag aborts instead
/// of silently riding along as a positional.
struct ParsedArgs {
    positionals: Vec<String>,
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl ParsedArgs {
    fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().find(|(name, _)| name == flag).map(|(_, value)| value.as_str())
    }

    /// The value of either spelling of a flag (`-o` / `--out`).
    fn either(&self, a: &str, b: &str) -> Result<Option<&str>, String> {
        match (self.value(a), self.value(b)) {
            (Some(_), Some(_)) => Err(format!("{a} and {b} are the same flag, given twice")),
            (first, second) => Ok(first.or(second)),
        }
    }

    fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|name| name == flag)
    }
}

fn parse_args(
    args: &[String],
    value_flags: &[&str],
    switch_flags: &[&str],
) -> Result<ParsedArgs, String> {
    let mut parsed =
        ParsedArgs { positionals: Vec::new(), values: Vec::new(), switches: Vec::new() };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg.len() > 1 && arg.starts_with('-') {
            if value_flags.contains(&arg.as_str()) {
                if parsed.value(arg).is_some() {
                    return Err(format!("flag {arg} given more than once"));
                }
                let value = iter.next().ok_or_else(|| format!("flag {arg} needs a value"))?.clone();
                parsed.values.push((arg.clone(), value));
            } else if switch_flags.contains(&arg.as_str()) {
                if parsed.switch(arg) {
                    return Err(format!("flag {arg} given more than once"));
                }
                parsed.switches.push(arg.clone());
            } else {
                return Err(format!("unknown flag {arg:?} for this command"));
            }
        } else {
            parsed.positionals.push(arg.clone());
        }
    }
    Ok(parsed)
}

/// Installs (idempotently) and returns the process-global telemetry
/// handle, enabled. Must run before the ensemble/engine is built so
/// their construction picks the enabled handle up.
fn enable_metrics() -> Telemetry {
    let _ = decamouflage::telemetry::install_global(Telemetry::enabled());
    decamouflage::telemetry::global()
}

/// Writes a metric snapshot to `path`: JSON when the extension is
/// `.json`, Prometheus text exposition otherwise.
fn write_snapshot(
    snapshot: &decamouflage::telemetry::RegistrySnapshot,
    path: &str,
) -> Result<(), String> {
    let output = if path.to_ascii_lowercase().ends_with(".json") {
        to_json(snapshot)
    } else {
        to_prometheus_text(snapshot)
    };
    std::fs::write(path, output).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Writes the final metric state of a live handle to `path`.
fn write_metrics(telemetry: &Telemetry, path: &str) -> Result<(), String> {
    let snapshot = telemetry.snapshot().ok_or("telemetry is not enabled")?;
    write_snapshot(&snapshot, path)
}

fn read_image(path: &str) -> Result<Image, String> {
    // Decode by magic bytes, not extension — a mislabelled file decodes
    // with whatever codec actually claims it.
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    decode_auto(&bytes).map(|(_, image)| image).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write_image(img: &Image, path: &str) -> Result<(), String> {
    let lower = path.to_ascii_lowercase();
    let result = if lower.ends_with(".bmp") {
        write_bmp_file(img, path)
    } else if lower.ends_with(".png") {
        std::fs::write(path, encode_png(img)).map_err(Into::into)
    } else if lower.ends_with(".jpg") || lower.ends_with(".jpeg") {
        std::fs::write(path, encode_jpeg(img, 90)).map_err(Into::into)
    } else {
        write_pnm_file(img, path)
    };
    result.map_err(|e| format!("cannot write {path}: {e}"))
}

fn parse_size(s: &str) -> Result<Size, String> {
    let (w, h) = s.split_once(['x', 'X']).ok_or_else(|| format!("expected WxH, got {s:?}"))?;
    let w: usize = w.parse().map_err(|_| format!("bad width in {s:?}"))?;
    let h: usize = h.parse().map_err(|_| format!("bad height in {s:?}"))?;
    if w == 0 || h == 0 {
        return Err(format!("target size {s:?} must be non-zero"));
    }
    Ok(Size::new(w, h))
}

/// Default thresholds used by `check` when no calibration file is given:
/// intentionally conservative generic values; calibrating on in-domain
/// data is always preferable.
fn default_thresholds() -> ThresholdSet {
    let mut set = ThresholdSet::new();
    set.insert(
        MethodId::ScalingMse,
        Threshold::new(400.0, decamouflage::detection::Direction::AboveIsAttack),
    );
    set.insert(
        MethodId::FilteringSsim,
        Threshold::new(0.55, decamouflage::detection::Direction::BelowIsAttack),
    );
    set.insert(MethodId::Csp, SteganalysisDetector::universal_threshold());
    set
}

fn parse_degrade(parsed: &ParsedArgs) -> Result<DegradePolicy, String> {
    match parsed.value("--degrade") {
        None | Some("strict") => Ok(DegradePolicy::Strict),
        Some("majority") => Ok(DegradePolicy::MajorityOfAvailable),
        Some("fail-closed") => Ok(DegradePolicy::FailClosed),
        Some(other) => {
            Err(format!("unknown --degrade mode {other:?} (strict, majority, fail-closed)"))
        }
    }
}

fn load_thresholds(parsed: &ParsedArgs) -> Result<ThresholdSet, String> {
    match parsed.value("--thresholds") {
        Some(path) => ThresholdSet::load(path).map_err(|e| e.to_string()),
        None => Ok(default_thresholds()),
    }
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let parsed =
        parse_args(args, &["--target", "--thresholds", "--degrade", "--metrics-out"], &[])?;
    let [image_path] = parsed.positionals.as_slice() else {
        return Err("check needs exactly one image path".into());
    };
    let target = parse_size(parsed.value("--target").ok_or("check needs --target WxH")?)?;
    let thresholds = load_thresholds(&parsed)?;
    // Telemetry must be live before the ensemble is built — construction
    // captures the process-global handle.
    let metrics_out = parsed.value("--metrics-out");
    let telemetry = if metrics_out.is_some() { enable_metrics() } else { Telemetry::disabled() };
    let image = {
        let _decode = telemetry.span("decam_engine_stage_seconds", &[("stage", "decode")]);
        read_image(image_path)?
    };
    let ensemble =
        Ensemble::paper(target, &thresholds, parse_degrade(&parsed)?).map_err(|e| e.to_string())?;
    let decision = ensemble.decide(&image).map_err(|e| e.to_string())?;
    for (member, vote) in &decision.votes {
        println!("{member}: {}", if *vote { "ATTACK" } else { "benign" });
    }
    for (member, reason) in &decision.unavailable {
        println!("{member}: unavailable ({reason})");
    }
    if let Some(path) = metrics_out {
        write_metrics(&telemetry, path)?;
    }
    if decision.is_attack {
        println!("{image_path}: ATTACK (majority vote)");
        Ok(ExitCode::from(2))
    } else {
        println!("{image_path}: benign");
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_craft(args: &[String]) -> Result<ExitCode, String> {
    use decamouflage::attack::{craft_attack, AttackConfig};
    let parsed = parse_args(args, &["-o", "--out"], &[])?;
    let [original_path, target_path] = parsed.positionals.as_slice() else {
        return Err("craft needs <original> and <target-image>".into());
    };
    let out = parsed.either("-o", "--out")?.ok_or("craft needs -o <attack-out>")?;

    let original = read_image(original_path)?;
    let target = read_image(target_path)?;
    let scaler = Scaler::new(original.size(), target.size(), ScaleAlgorithm::Bilinear)
        .map_err(|e| e.to_string())?;
    let crafted = craft_attack(&original, &target, &scaler, &AttackConfig::default())
        .map_err(|e| e.to_string())?;
    write_image(&crafted.image, out)?;
    println!(
        "wrote {out}: deviation from target (L-inf) {:.2}, perturbed {:.1}% of pixels",
        crafted.stats.target_deviation_linf,
        crafted.stats.perturbed_fraction * 100.0
    );
    Ok(ExitCode::SUCCESS)
}

/// The first quarantined sample of a calibration class as a CLI error: a
/// decode failure reads as its own message ("cannot read <path>: ..."),
/// anything else names the file and the cause.
fn first_quarantined(
    paths: &[std::path::PathBuf],
    ledger: &[(usize, ScoreError)],
) -> Option<String> {
    ledger.first().map(|(index, err)| match &err.cause {
        ScoreFault::Unreadable { message } => message.clone(),
        cause @ ScoreFault::UnsupportedFormat { .. } => cause.to_string(),
        cause => format!("{}: {cause}", paths[*index].display()),
    })
}

fn cmd_calibrate(args: &[String]) -> Result<ExitCode, String> {
    let parsed = parse_args(args, &["--benign", "--attack", "--target", "-o", "--out"], &[])?;
    if let Some(stray) = parsed.positionals.first() {
        return Err(format!("calibrate takes no positional argument, got {stray:?}"));
    }
    let benign_dir = parsed.value("--benign").ok_or("calibrate needs --benign DIR")?;
    let attack_dir = parsed.value("--attack").ok_or("calibrate needs --attack DIR")?;
    let target = parse_size(parsed.value("--target").ok_or("calibrate needs --target WxH")?)?;
    let out = parsed.either("-o", "--out")?.ok_or("calibrate needs -o FILE")?;

    let mut benign = DirectorySource::open(benign_dir).map_err(|e| e.to_string())?;
    let mut attacks = DirectorySource::open(attack_dir).map_err(|e| e.to_string())?;
    let (benign_paths, attack_paths) = (benign.paths().to_vec(), attacks.paths().to_vec());
    println!(
        "calibrating on {} benign + {} attack images ...",
        benign_paths.len(),
        attack_paths.len()
    );

    // Scaling and filtering are calibrated on the samples; the CSP
    // threshold is the paper's universal one.
    let engine = DetectionEngine::new(target)
        .with_methods(MethodSet::of(&[MethodId::ScalingMse, MethodId::FilteringSsim]));
    let calibration =
        calibrate_whitebox(&engine, &mut benign, &mut attacks, &StreamConfig::default())
            .map_err(|e| e.to_string())?;
    let failure = first_quarantined(&benign_paths, &calibration.benign_quarantined)
        .or_else(|| first_quarantined(&attack_paths, &calibration.attack_quarantined));
    if let Some(message) = failure {
        return Err(message);
    }

    let mut set = calibration.thresholds();
    set.insert(MethodId::Csp, SteganalysisDetector::universal_threshold());
    set.save(Path::new(out)).map_err(|e| e.to_string())?;
    let accuracy = |id| calibration.get(id).map_or(f64::NAN, |m| m.train_accuracy) * 100.0;
    println!(
        "wrote {out} (scaling train acc {:.1}%, filtering train acc {:.1}%)",
        accuracy(MethodId::ScalingMse),
        accuracy(MethodId::FilteringSsim)
    );
    Ok(ExitCode::SUCCESS)
}

/// Batch triage of a directory: the paper's offline data-poisoning
/// deployment. Prints one line per image and a summary; exits 2 when any
/// image was flagged.
///
/// The directory streams through [`DirectorySource`] into
/// [`scan_shard`]: files decode lazily in chunks of `--chunk-size`
/// (default 64), each chunk fans out over the worker pool, and decoded
/// buffers recycle — peak memory is one chunk plus the buffer pool
/// regardless of how many images the directory holds. With `--shard k/N`
/// only the k-th stable hash-partition of the file names is scanned
/// (skipped files are never decoded); `--checkpoint FILE` persists
/// progress atomically at every chunk boundary and `--resume` continues
/// from it. The engine scores the same three methods as `check`'s
/// ensemble and the verdict is the same [`Ensemble::vote`]; on resume the
/// summary covers the whole shard, freshly printed lines only the newly
/// scanned images.
fn cmd_scan(args: &[String]) -> Result<ExitCode, String> {
    let parsed = parse_args(
        args,
        &[
            "--target",
            "--thresholds",
            "--degrade",
            "--chunk-size",
            "--metrics-out",
            "--shard",
            "--checkpoint",
        ],
        &["--resume"],
    )?;
    let [dir] = parsed.positionals.as_slice() else {
        return Err("scan needs exactly one directory path".into());
    };
    let target = parse_size(parsed.value("--target").ok_or("scan needs --target WxH")?)?;
    let thresholds = load_thresholds(&parsed)?;
    let chunk_size = match parsed.value("--chunk-size") {
        Some(raw) => parse_bounded_usize("--chunk-size", raw, 1, 1 << 20)?,
        None => 64,
    };
    let shard = match parsed.value("--shard") {
        Some(raw) => ShardSpec::parse(raw).map_err(|e| format!("--shard: {e}"))?,
        None => ShardSpec::full(),
    };
    let checkpoint_path = parsed.value("--checkpoint").map(str::to_string);
    let resume = parsed.switch("--resume");
    if resume && checkpoint_path.is_none() {
        return Err("scan --resume needs --checkpoint FILE".into());
    }
    let policy = parse_degrade(&parsed)?;
    // Telemetry must be live before the engine and source are built —
    // construction captures the process-global handle.
    let metrics_out = parsed.value("--metrics-out");
    let telemetry = if metrics_out.is_some() { enable_metrics() } else { Telemetry::disabled() };

    // The same ensemble as `check`; its engine computes the three members
    // in one shared-intermediate pass per image.
    let ensemble = Ensemble::paper(target, &thresholds, policy).map_err(|e| e.to_string())?;
    let engine = ensemble.engine();

    // Shard membership and the corpus fingerprint are both functions of
    // the sorted file-name list, so every shard of N agrees on them.
    let mut source = DirectorySource::open(dir).map_err(|e| e.to_string())?;
    let all_paths = source.paths().to_vec();
    let fingerprint = CorpusFingerprint::of_keys(source.shard_keys());
    let kept = source.restrict_to_shard(shard);
    let checkpoint = match (&checkpoint_path, resume) {
        (Some(path), true) => {
            let loaded = ScanCheckpoint::load(path).map_err(|e| e.to_string())?;
            loaded
                .validate_resume(shard, fingerprint, engine.methods(), &kept)
                .map_err(|e| e.to_string())?;
            loaded
        }
        _ => ScanCheckpoint::new(shard, fingerprint, engine.methods()),
    };
    source.skip(checkpoint.done());
    let config = StreamConfig::default().with_chunk_size(chunk_size);

    let final_checkpoint = scan_shard(
        engine,
        &mut source,
        &kept,
        &config,
        checkpoint,
        |ckpt| match &checkpoint_path {
            Some(path) => ckpt.save(path),
            None => Ok(()),
        },
        |global, result| {
            let shown = all_paths[global].display();
            match result {
                Ok(scores) => match ensemble.vote(Ok(scores)) {
                    Ok(decision) if decision.is_attack => println!("ATTACK      {shown}"),
                    Ok(_) => println!("benign      {shown}"),
                    // Only Strict refuses to vote: a non-finite score.
                    Err(err) => println!("quarantined {shown}: {err}"),
                },
                Err(err) => match &err.cause {
                    // The file never decoded.
                    ScoreFault::Unreadable { message } => {
                        println!("unreadable  {shown}: {message}");
                    }
                    // No codec claims the bytes — a wrong file type, not
                    // a suspicious image, so it never feeds fail-closed.
                    ScoreFault::UnsupportedFormat { message } => {
                        println!("unsupported {shown}: {message}");
                    }
                    // The file loaded but could not be scored; the degrade
                    // policy decides whether that is suspicious in itself.
                    _ if matches!(policy, DegradePolicy::FailClosed) => {
                        println!("ATTACK      {shown}");
                    }
                    _ => {
                        println!("quarantined {shown}: {err}");
                    }
                },
            }
        },
    )
    .map_err(|e| e.to_string())?;

    // The summary covers the whole shard — including rows a previous
    // (resumed) process completed — so it comes from the checkpoint, not
    // from this process's print counters.
    let mut flagged = 0usize;
    let mut unreadable = 0usize;
    let mut quarantined = 0usize;
    for row in 0..final_checkpoint.scored_indices().len() {
        match ensemble.vote(Ok(&final_checkpoint.score_vector_at(row))) {
            Ok(decision) => flagged += usize::from(decision.is_attack),
            Err(_) => quarantined += 1,
        }
    }
    for record in final_checkpoint.quarantined() {
        // Decode-level failures (corrupt file, wrong file type) never
        // feed fail-closed — they are not suspicious scoring.
        if matches!(record.kind(), "unreadable" | "unsupported-format") {
            unreadable += 1;
        } else if matches!(policy, DegradePolicy::FailClosed) {
            flagged += 1;
        } else {
            quarantined += 1;
        }
    }
    println!(
        "scanned {} images: {flagged} flagged, {} accepted, \
         {quarantined} quarantined, {unreadable} unreadable",
        final_checkpoint.done(),
        final_checkpoint.done() - flagged - quarantined - unreadable
    );
    if let Some(out) = metrics_out {
        write_metrics(&telemetry, out)?;
    }
    Ok(if flagged > 0 { ExitCode::from(2) } else { ExitCode::SUCCESS })
}

/// Combines finished shard checkpoints into one corpus-wide report: the
/// canonical checkpoint-format text (stdout or `-o FILE`), a summary on
/// stderr, and optionally the shards' merged telemetry. Refuses
/// checkpoints from different corpora, incomplete shards, or overlapping
/// rows.
fn cmd_merge(args: &[String]) -> Result<ExitCode, String> {
    let parsed = parse_args(args, &["-o", "--out", "--metrics-out"], &[])?;
    if parsed.positionals.is_empty() {
        return Err("merge needs at least one checkpoint file".into());
    }
    let checkpoints: Vec<ScanCheckpoint> = parsed
        .positionals
        .iter()
        .map(|path| ScanCheckpoint::load(path).map_err(|e| format!("{path}: {e}")))
        .collect::<Result<_, _>>()?;
    let report = ScanReport::merge(&checkpoints).map_err(|e| e.to_string())?;
    eprintln!(
        "merged {} checkpoint(s): {} images, {} scored, {} quarantined",
        checkpoints.len(),
        report.corpus_len(),
        report.scored_indices().len(),
        report.quarantined().len()
    );
    let text = report.to_text().map_err(|e| e.to_string())?;
    match parsed.either("-o", "--out")? {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => print!("{text}"),
    }
    if let Some(path) = parsed.value("--metrics-out") {
        write_snapshot(report.metrics(), path)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Exercises the full detection pipeline — engine stages, quarantine,
/// worker pool, ensemble votes, monitor counters — on a deterministic
/// synthetic corpus and emits the resulting telemetry. The output is a
/// complete, stable exposition of every metric family the pipeline can
/// produce, so dashboards and scrape configs can be validated before any
/// real traffic exists.
fn cmd_stats(args: &[String]) -> Result<ExitCode, String> {
    use decamouflage::detection::monitor::DetectionMonitor;
    use decamouflage::detection::Direction;

    let parsed = parse_args(args, &["--target", "--count", "--format", "-o", "--out"], &[])?;
    if let Some(stray) = parsed.positionals.first() {
        return Err(format!("stats takes no positional argument, got {stray:?}"));
    }
    let target = match parsed.value("--target") {
        Some(raw) => parse_size(raw)?,
        None => Size::square(16),
    };
    let count = match parsed.value("--count") {
        Some(raw) => parse_bounded_usize("--count", raw, 1, 1 << 20)?,
        None => 4,
    };
    let out = parsed.either("-o", "--out")?;
    let format = match parsed.value("--format") {
        Some(f @ ("prometheus" | "json")) => f,
        Some(other) => return Err(format!("unknown --format {other:?} (prometheus, json)")),
        // With no explicit format the output file's extension decides.
        None if out.is_some_and(|p| p.to_ascii_lowercase().ends_with(".json")) => "json",
        None => "prometheus",
    };

    let telemetry = enable_metrics();
    let side = 4 * target.width.max(target.height).max(8);
    let benign = |i: u64| {
        Image::from_fn_gray(side, side, move |x, y| {
            (120.0 + 60.0 * ((x as f64 + i as f64) * 0.07).sin() + 40.0 * (y as f64 * 0.05).cos())
                .round()
        })
    };
    let attack = |i: u64| {
        Image::from_fn_gray(side, side, move |x, y| {
            ((x * 13 + y * 7 + i as usize * 3) % 251) as f64
        })
    };

    // Engine: a parallel resilient batch (stage/method latencies, pool
    // counters) plus one undersized input through the quarantine path.
    let engine = DetectionEngine::new(target);
    let outcome = engine.score_corpus_resilient(benign, attack, count, 2);
    let counts = outcome.counts();
    let _ = engine.score_resilient(&Image::from_fn_gray(2, 2, |_, _| 10.0));

    // Ensemble: every decision records votes and verdict counters.
    let ensemble = Ensemble::paper(target, &default_thresholds(), DegradePolicy::Strict)
        .map_err(|e| e.to_string())?;
    for i in 0..count as u64 {
        ensemble.decide(&benign(i)).map_err(|e| e.to_string())?;
        ensemble.decide(&attack(i)).map_err(|e| e.to_string())?;
    }

    // Monitor: screening counters and rolling-window gauges.
    let mut monitor = DetectionMonitor::new(
        &engine,
        MethodId::ScalingMse,
        Threshold::new(400.0, Direction::AboveIsAttack),
        100.0,
        50.0,
        count.max(4),
        3.0,
    )
    .map_err(|e| e.to_string())?;
    for i in 0..count as u64 {
        monitor.screen(&benign(i)).map_err(|e| e.to_string())?;
    }

    eprintln!(
        "exercised {} engine slots ({} scored, {} quarantined), {} ensemble decisions, {} screens",
        2 * count + 1,
        counts.scored,
        counts.quarantined + 1,
        2 * count,
        count
    );
    let output = match format {
        "json" => telemetry.json(),
        _ => telemetry.prometheus_text(),
    }
    .ok_or("telemetry is not enabled")?;
    match out {
        Some(path) => {
            std::fs::write(path, output).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => print!("{output}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs the HTTP detection service until SIGTERM (or Ctrl-C via the
/// orchestrator), then drains gracefully. Exits 0 only when every
/// in-flight request finished inside the drain deadline.
fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    use decamouflage::serve::shutdown_signal;
    use std::io::Write as _;

    let parsed = parse_args(
        args,
        &[
            "--addr",
            "--target",
            "--thresholds",
            "--degrade",
            "--handlers",
            "--queue-limit",
            "--deadline-ms",
            "--drain-ms",
            "--max-body-bytes",
            "--metrics-out",
        ],
        &[],
    )?;
    if let Some(stray) = parsed.positionals.first() {
        return Err(format!("serve takes no positional argument, got {stray:?}"));
    }
    let target = parse_size(parsed.value("--target").ok_or("serve needs --target WxH")?)?;
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: parsed.value("--addr").unwrap_or("127.0.0.1:8321").to_string(),
        handlers: match parsed.value("--handlers") {
            Some(raw) => parse_bounded_usize("--handlers", raw, 1, 1024)?,
            None => defaults.handlers,
        },
        queue_limit: match parsed.value("--queue-limit") {
            Some(raw) => parse_bounded_usize("--queue-limit", raw, 0, 1 << 16)?,
            None => defaults.queue_limit,
        },
        deadline: match parsed.value("--deadline-ms") {
            Some(raw) => parse_bounded_ms("--deadline-ms", raw, 10, 600_000)?,
            None => defaults.deadline,
        },
        drain_deadline: match parsed.value("--drain-ms") {
            Some(raw) => parse_bounded_ms("--drain-ms", raw, 10, 600_000)?,
            None => defaults.drain_deadline,
        },
        max_body_bytes: match parsed.value("--max-body-bytes") {
            Some(raw) => parse_bounded_usize("--max-body-bytes", raw, 1024, 1 << 30)?,
            None => defaults.max_body_bytes,
        },
        ..defaults
    };
    if config.drain_deadline < config.deadline {
        return Err(format!(
            "--drain-ms ({:?}) must be at least --deadline-ms ({:?}) so in-flight \
             requests can finish during the drain",
            config.drain_deadline, config.deadline
        ));
    }

    // The service records into the process-global registry and serves it
    // back on GET /metrics, so telemetry is always live here.
    let telemetry = enable_metrics();
    let thresholds = load_thresholds(&parsed)?;
    let service = DetectionService::new(target, &thresholds, parse_degrade(&parsed)?)?;
    let metrics_out = parsed.value("--metrics-out");

    shutdown_signal::install();
    let server = Server::bind(config, service).map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // The smoke harness parses this line for the ephemeral port; keep the
    // format stable and flush it before blocking in the accept loop.
    println!("listening on {addr}");
    let _ = std::io::stdout().flush();

    let report = server.run().map_err(|e| e.to_string())?;
    if let Some(path) = metrics_out {
        write_metrics(&telemetry, path)?;
    }
    if report.drained {
        eprintln!("drained clean");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("drain deadline expired with {} request(s) in flight", report.in_flight_at_exit);
        Ok(ExitCode::FAILURE)
    }
}
