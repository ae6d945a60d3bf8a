//! Integration tests for the `decamouflage` command-line tool, driving the
//! real binary end to end: calibrate -> check -> craft -> check.

use decamouflage::datasets::{DatasetProfile, SampleGenerator};
use decamouflage::imaging::codec::write_bmp_file;
use decamouflage::imaging::scale::ScaleAlgorithm;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_decamouflage"))
}

/// Builds a fixture directory with benign and attack BMPs from the tiny
/// profile.
fn fixtures(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("decamouflage-cli-test-{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    for sub in ["benign", "attack"] {
        std::fs::create_dir_all(root.join(sub)).unwrap();
    }
    let generator = SampleGenerator::new(DatasetProfile::tiny(), ScaleAlgorithm::Bilinear);
    for i in 0..3u64 {
        write_bmp_file(&generator.benign(i), root.join(format!("benign/{i}.bmp"))).unwrap();
        write_bmp_file(&generator.attack_image(i).unwrap(), root.join(format!("attack/{i}.bmp")))
            .unwrap();
    }
    // Held-out pair for checking.
    write_bmp_file(&generator.benign(9), root.join("holdout_benign.bmp")).unwrap();
    write_bmp_file(&generator.attack_image(9).unwrap(), root.join("holdout_attack.bmp")).unwrap();
    // Host/payload pair 1 produces a strong attack (validated by the
    // fixture calibration set that contains the library-crafted variant).
    write_bmp_file(&generator.target(1), root.join("payload.bmp")).unwrap();
    write_bmp_file(&generator.benign(1), root.join("host.bmp")).unwrap();
    root
}

fn run(cmd: &mut Command) -> (i32, String, String) {
    let out = cmd.output().expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn calibrate(root: &Path) -> PathBuf {
    let thresholds = root.join("thresholds.txt");
    let (code, _, stderr) = run(bin()
        .arg("calibrate")
        .args(["--benign", root.join("benign").to_str().unwrap()])
        .args(["--attack", root.join("attack").to_str().unwrap()])
        .args(["--target", "16x16"])
        .args(["-o", thresholds.to_str().unwrap()]));
    assert_eq!(code, 0, "calibrate failed: {stderr}");
    thresholds
}

#[test]
fn calibrate_then_check_classifies_holdouts() {
    let root = fixtures("check");
    let thresholds = calibrate(&root);

    let (code, stdout, _) = run(bin()
        .arg("check")
        .arg(root.join("holdout_benign.bmp"))
        .args(["--target", "16x16"])
        .args(["--thresholds", thresholds.to_str().unwrap()]));
    assert_eq!(code, 0, "benign holdout misflagged: {stdout}");
    assert!(stdout.contains("benign"));

    let (code, stdout, _) = run(bin()
        .arg("check")
        .arg(root.join("holdout_attack.bmp"))
        .args(["--target", "16x16"])
        .args(["--thresholds", thresholds.to_str().unwrap()]));
    assert_eq!(code, 2, "attack holdout passed: {stdout}");
    assert!(stdout.contains("ATTACK (majority vote)"));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn craft_produces_a_detectable_attack_image() {
    let root = fixtures("craft");
    let thresholds = calibrate(&root);
    let crafted = root.join("crafted.bmp");

    let (code, stdout, stderr) = run(bin()
        .arg("craft")
        .arg(root.join("host.bmp"))
        .arg(root.join("payload.bmp"))
        .args(["-o", crafted.to_str().unwrap()]));
    assert_eq!(code, 0, "craft failed: {stderr}");
    assert!(stdout.contains("deviation from target"));
    assert!(crafted.exists());

    let (code, _, _) = run(bin()
        .arg("check")
        .arg(&crafted)
        .args(["--target", "16x16"])
        .args(["--thresholds", thresholds.to_str().unwrap()]));
    assert_eq!(code, 2, "freshly crafted attack must be flagged");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn check_works_with_builtin_default_thresholds() {
    let root = fixtures("defaults");
    let (code, _, _) =
        run(bin().arg("check").arg(root.join("holdout_attack.bmp")).args(["--target", "16x16"]));
    assert_eq!(code, 2, "default thresholds must still flag a strong attack");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn bad_invocations_exit_with_usage_errors() {
    let (code, _, stderr) = run(bin().arg("check"));
    assert_eq!(code, 1);
    assert!(stderr.contains("usage"));

    let (code, _, stderr) = run(bin().arg("frobnicate"));
    assert_eq!(code, 1);
    assert!(stderr.contains("unknown command"));

    let root = fixtures("badargs");
    let (code, _, stderr) =
        run(bin().arg("check").arg(root.join("holdout_benign.bmp")).args(["--target", "banana"]));
    assert_eq!(code, 1);
    assert!(stderr.contains("WxH"));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn help_prints_usage_and_succeeds() {
    let (code, _, stderr) = run(bin().arg("--help"));
    assert_eq!(code, 0);
    assert!(stderr.contains("decamouflage check"));
}

#[test]
fn scan_triages_a_directory_and_exits_nonzero_on_findings() {
    let root = fixtures("scan");
    let thresholds = calibrate(&root);
    // Mixed directory: the attack fixtures plus one benign holdout.
    let mixed = root.join("mixed");
    std::fs::create_dir_all(&mixed).unwrap();
    std::fs::copy(root.join("attack/0.bmp"), mixed.join("a0.bmp")).unwrap();
    std::fs::copy(root.join("attack/1.bmp"), mixed.join("a1.bmp")).unwrap();
    std::fs::copy(root.join("holdout_benign.bmp"), mixed.join("clean.bmp")).unwrap();

    let (code, stdout, stderr) = run(bin()
        .arg("scan")
        .arg(&mixed)
        .args(["--target", "16x16"])
        .args(["--thresholds", thresholds.to_str().unwrap()]));
    assert_eq!(code, 2, "scan must flag the poisoned images: {stdout} {stderr}");
    assert!(stdout.contains("ATTACK"), "{stdout}");
    assert!(stdout.contains("benign  "), "{stdout}");
    assert!(stdout.contains("2 flagged"), "{stdout}");

    // A clean directory exits 0.
    let clean = root.join("benign");
    let (code, stdout, _) = run(bin()
        .arg("scan")
        .arg(&clean)
        .args(["--target", "16x16"])
        .args(["--thresholds", thresholds.to_str().unwrap()]));
    assert_eq!(code, 0, "clean directory misflagged: {stdout}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn scan_streams_a_mixed_format_directory_and_quarantines_the_corrupt_file() {
    use decamouflage::imaging::codec::{encode_jpeg, encode_pgm, encode_png};
    let root = fixtures("scan-mixed");
    let thresholds = calibrate(&root);
    let generator = SampleGenerator::new(DatasetProfile::tiny(), ScaleAlgorithm::Bilinear);
    let mixed = root.join("mixed-formats");
    std::fs::create_dir_all(&mixed).unwrap();
    // One benign image per container, plus one corrupt PNG and one file
    // whose extension lies about non-image bytes.
    std::fs::copy(root.join("holdout_benign.bmp"), mixed.join("a.bmp")).unwrap();
    std::fs::write(mixed.join("b.png"), encode_png(&generator.benign(9))).unwrap();
    std::fs::write(mixed.join("c.pgm"), encode_pgm(&generator.benign(9))).unwrap();
    std::fs::write(mixed.join("d.jpg"), encode_jpeg(&generator.benign(9), 95)).unwrap();
    let mut broken = vec![137u8, 80, 78, 71, 13, 10, 26, 10];
    broken.extend_from_slice(b"this is not a chunk stream");
    std::fs::write(mixed.join("e_corrupt.png"), &broken).unwrap();
    std::fs::write(mixed.join("f_lying.jpeg"), b"plain text, no magic").unwrap();

    let (code, stdout, stderr) = run(bin()
        .arg("scan")
        .arg(&mixed)
        .args(["--target", "16x16"])
        .args(["--thresholds", thresholds.to_str().unwrap()]));
    // The corrupt files must quarantine their own slots, not abort the
    // scan: every healthy container still gets a verdict line.
    assert!(code == 0 || code == 2, "scan crashed on the mixed dir: {code} {stdout} {stderr}");
    for name in ["a.bmp", "b.png", "c.pgm", "d.jpg"] {
        let line = stdout
            .lines()
            .find(|l| l.contains(name))
            .unwrap_or_else(|| panic!("no verdict line for {name}: {stdout}"));
        assert!(
            line.starts_with("ATTACK") || line.starts_with("benign"),
            "{name} did not score: {line}"
        );
    }
    assert!(
        stdout.lines().any(|l| l.starts_with("unreadable") && l.contains("e_corrupt.png")),
        "{stdout}"
    );
    assert!(
        stdout.lines().any(|l| l.starts_with("unsupported") && l.contains("f_lying.jpeg")),
        "{stdout}"
    );
    assert!(stdout.contains("2 unreadable"), "{stdout}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn stats_emits_a_parseable_prometheus_exposition() {
    let (code, stdout, stderr) = run(bin().arg("stats").args(["--target", "8x8", "--count", "2"]));
    assert_eq!(code, 0, "stats failed: {stderr}");
    let parsed = decamouflage::telemetry::parse_prometheus_text(&stdout)
        .expect("stats output must satisfy the strict Prometheus parser");
    for family in [
        "decam_engine_score_seconds",
        "decam_engine_stage_seconds",
        "decam_method_score_seconds",
        "decam_engine_scored_total",
        "decam_engine_quarantined_total",
        "decam_pool_jobs_total",
        "decam_ensemble_votes_total",
        "decam_ensemble_decisions_total",
        "decam_monitor_screened_total",
        "decam_monitor_window_mean",
    ] {
        assert!(parsed.has_family(family), "stats exposition lacks {family}:\n{stdout}");
    }
    // Determinism: a second run produces byte-identical counters and
    // gauges (latency histogram samples differ, so compare those lines).
    let (_, second, _) = run(bin().arg("stats").args(["--target", "8x8", "--count", "2"]));
    let stable = |text: &str| {
        text.lines()
            .filter(|l| !l.contains("seconds"))
            .map(str::to_owned)
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(stable(&stdout), stable(&second), "stats counters must be deterministic");

    // JSON output is inferred from the -o extension and is valid enough
    // to contain the same counter.
    let root = std::env::temp_dir().join("decamouflage-cli-test-stats");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let json_path = root.join("stats.json");
    let (code, _, stderr) = run(bin()
        .arg("stats")
        .args(["--target", "8x8", "--count", "2"])
        .args(["-o", json_path.to_str().unwrap()]));
    assert_eq!(code, 0, "stats -o failed: {stderr}");
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"decam_engine_scored_total\""), "{json}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn scan_metrics_out_round_trips_through_the_parser() {
    let root = fixtures("scan-metrics");
    let metrics = root.join("metrics.prom");
    let (code, stdout, stderr) = run(bin()
        .arg("scan")
        .arg(root.join("benign"))
        .args(["--target", "16x16"])
        .args(["--metrics-out", metrics.to_str().unwrap()]));
    assert_eq!(code, 0, "clean scan failed: {stdout} {stderr}");

    let text = std::fs::read_to_string(&metrics).expect("scan must write --metrics-out");
    let parsed = decamouflage::telemetry::parse_prometheus_text(&text)
        .expect("scan exposition must satisfy the strict Prometheus parser");
    // Scan runs on the streaming engine: one scored sample per fixture,
    // one chunk (3 < default chunk size), and the in-flight gauge back at
    // zero once the stream has drained — the bounded-memory invariant.
    assert!(parsed.has_family("decam_engine_scored_total"), "{text}");
    assert_eq!(
        parsed.sample_value("decam_engine_scored_total", &[]),
        Some(3.0),
        "one scored image per scanned fixture:\n{text}"
    );
    assert_eq!(parsed.sample_value("decam_stream_chunks_total", &[]), Some(1.0), "{text}");
    assert_eq!(parsed.sample_value("decam_stream_peak_chunk", &[]), Some(3.0), "{text}");
    assert_eq!(parsed.sample_value("decam_stream_in_flight_images", &[]), Some(0.0), "{text}");
    // The decode stage is timed by the directory source, once per image.
    let decode = text
        .lines()
        .find(|l| l.starts_with("decam_engine_stage_seconds_count{stage=\"decode\"}"))
        .unwrap_or_else(|| panic!("no decode stage samples:\n{text}"));
    assert!(decode.ends_with(" 3"), "expected 3 decode samples: {decode}");
    // Every verdict line is one recorded ensemble decision.
    let verdict_lines =
        stdout.lines().filter(|l| l.starts_with("ATTACK ") || l.starts_with("benign ")).count();
    assert_eq!(verdict_lines, 3, "{stdout}");
    let decisions: f64 = ["attack", "benign"]
        .iter()
        .filter_map(|v| parsed.sample_value("decam_ensemble_decisions_total", &[("verdict", v)]))
        .sum();
    assert_eq!(decisions, verdict_lines as f64, "{text}");
    std::fs::remove_dir_all(&root).ok();
}

/// The CI bounded-memory smoke: a 64-image corpus scanned with
/// `--chunk-size 1` (one decoded image resident at a time) must produce
/// exactly the same verdict counts and exit code as the default chunked
/// run.
#[test]
fn scan_chunk_size_one_matches_default_chunking() {
    let root = std::env::temp_dir().join("decamouflage-cli-test-scan-chunked");
    let _ = std::fs::remove_dir_all(&root);
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let generator = SampleGenerator::new(DatasetProfile::tiny(), ScaleAlgorithm::Bilinear);
    for i in 0..32u64 {
        write_bmp_file(&generator.benign(i), corpus.join(format!("b{i:02}.bmp"))).unwrap();
        write_bmp_file(&generator.attack_image(i).unwrap(), corpus.join(format!("x{i:02}.bmp")))
            .unwrap();
    }

    let scan = |chunk: Option<&str>| {
        let mut cmd = bin();
        cmd.arg("scan").arg(&corpus).args(["--target", "16x16"]);
        if let Some(n) = chunk {
            cmd.args(["--chunk-size", n]);
        }
        run(&mut cmd)
    };
    let (eager_code, eager_out, eager_err) = scan(None);
    let (chunked_code, chunked_out, chunked_err) = scan(Some("1"));
    assert_eq!(eager_code, chunked_code, "{eager_err} {chunked_err}");
    let summary = |out: &str| {
        out.lines()
            .find(|l| l.starts_with("scanned "))
            .map(str::to_owned)
            .unwrap_or_else(|| panic!("no summary line:\n{out}"))
    };
    assert_eq!(summary(&eager_out), summary(&chunked_out), "verdict counts must match");
    assert!(summary(&eager_out).starts_with("scanned 64 images:"), "{eager_out}");
    // Per-image verdict lines are order- and content-identical too.
    assert_eq!(eager_out, chunked_out, "scan output must not depend on chunking");
    std::fs::remove_dir_all(&root).ok();
}

/// Strict argument parsing: a misspelt flag must abort with an error
/// instead of silently riding along, on every command.
#[test]
fn unknown_flags_are_rejected_by_every_command() {
    for command in ["check", "scan", "merge", "craft", "calibrate", "stats"] {
        let (code, _, stderr) = run(bin().arg(command).arg("--bogus-flag").arg("value"));
        assert_eq!(code, 1, "{command} accepted an unknown flag: {stderr}");
        assert!(stderr.contains("unknown flag \"--bogus-flag\""), "{command}: {stderr}");
    }
    // Duplicates of a known flag are also rejected.
    let (code, _, stderr) =
        run(bin().arg("scan").arg("dir").args(["--target", "16x16", "--target", "8x8"]));
    assert_eq!(code, 1);
    assert!(stderr.contains("given more than once"), "{stderr}");
}

/// The shard/checkpoint/merge smoke mirroring the CI stage: a 64-image
/// corpus scanned as one shard and as three shards — one of them killed
/// mid-scan and `--resume`d — must merge to byte-identical reports, and
/// the single-shard scan output must match a plain unsharded scan.
#[test]
fn sharded_resumed_merged_scan_matches_the_unsharded_report() {
    use decamouflage::detection::ScanCheckpoint;

    let root = std::env::temp_dir().join("decamouflage-cli-test-shard");
    let _ = std::fs::remove_dir_all(&root);
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let generator = SampleGenerator::new(DatasetProfile::tiny(), ScaleAlgorithm::Bilinear);
    for i in 0..32u64 {
        write_bmp_file(&generator.benign(i), corpus.join(format!("b{i:02}.bmp"))).unwrap();
        write_bmp_file(&generator.attack_image(i).unwrap(), corpus.join(format!("x{i:02}.bmp")))
            .unwrap();
    }

    let scan = |extra: &[&str]| {
        let mut cmd = bin();
        cmd.arg("scan").arg(&corpus).args(["--target", "16x16", "--chunk-size", "8"]);
        cmd.args(extra);
        run(&mut cmd)
    };

    // Reference: a plain scan and a single-shard checkpointed scan.
    let (plain_code, plain_out, _) = scan(&[]);
    let single = root.join("single.ckpt");
    let (code, single_out, stderr) = scan(&["--checkpoint", single.to_str().unwrap()]);
    assert_eq!(code, plain_code, "{stderr}");
    assert_eq!(single_out, plain_out, "a 1/1 checkpointed scan must not change the output");

    // Three shards; shard 2/3 is killed mid-scan (its finished checkpoint
    // is rewound to a chunk boundary) and resumed.
    let shard_files: Vec<std::path::PathBuf> =
        (1..=3).map(|k| root.join(format!("shard{k}.ckpt"))).collect();
    let mut shard_outputs = Vec::new();
    for (k, file) in (1..=3).zip(&shard_files) {
        let spec = format!("{k}/3");
        let (code, stdout, stderr) =
            scan(&["--shard", &spec, "--checkpoint", file.to_str().unwrap()]);
        assert!(code == 0 || code == 2, "shard {spec} failed: {stderr}");
        shard_outputs.push(stdout);
    }
    let finished = ScanCheckpoint::load(&shard_files[1]).unwrap();
    assert!(finished.done() > 8, "shard 2/3 owns too few images for a mid-scan rewind");
    finished.prefix(8).save(&shard_files[1]).unwrap();
    let (code, resumed_out, stderr) =
        scan(&["--shard", "2/3", "--checkpoint", shard_files[1].to_str().unwrap(), "--resume"]);
    assert!(code == 0 || code == 2, "resume failed: {stderr}");
    // The resumed run prints only the images it scanned itself, but its
    // summary covers the whole shard.
    let summary = |out: &str| {
        out.lines()
            .find(|l| l.starts_with("scanned "))
            .map(str::to_owned)
            .unwrap_or_else(|| panic!("no summary line:\n{out}"))
    };
    assert_eq!(summary(&resumed_out), summary(&shard_outputs[1]));
    assert!(
        resumed_out.lines().count() < shard_outputs[1].lines().count(),
        "resume must not rescan finished images"
    );
    // Every corpus image was scanned by exactly one shard.
    let scanned: usize = shard_outputs
        .iter()
        .map(|out| {
            summary(out)
                .strip_prefix("scanned ")
                .and_then(|rest| rest.split(' ').next())
                .unwrap()
                .parse::<usize>()
                .unwrap()
        })
        .sum();
    assert_eq!(scanned, 64, "shards must partition the corpus");

    // Merging the single shard and the three shards (with one resumed
    // mid-crash) yields byte-identical corpus-wide reports.
    let merged_single = root.join("merged-single.txt");
    let (code, _, stderr) =
        run(bin().arg("merge").arg(&single).args(["-o", merged_single.to_str().unwrap()]));
    assert_eq!(code, 0, "merge of the single shard failed: {stderr}");
    assert!(stderr.contains("merged 1 checkpoint(s): 64 images"), "{stderr}");
    let merged_shards = root.join("merged-shards.txt");
    let (code, _, stderr) =
        run(bin().arg("merge").args(&shard_files).args(["-o", merged_shards.to_str().unwrap()]));
    assert_eq!(code, 0, "merge of the three shards failed: {stderr}");
    assert_eq!(
        std::fs::read_to_string(&merged_single).unwrap(),
        std::fs::read_to_string(&merged_shards).unwrap(),
        "sharding must not change the merged report"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// `--resume` refuses a checkpoint taken over a different corpus: adding
/// a file to the directory changes the fingerprint.
#[test]
fn resume_refuses_a_checkpoint_from_a_different_corpus() {
    let root = std::env::temp_dir().join("decamouflage-cli-test-resume-mismatch");
    let _ = std::fs::remove_dir_all(&root);
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let generator = SampleGenerator::new(DatasetProfile::tiny(), ScaleAlgorithm::Bilinear);
    for i in 0..4u64 {
        write_bmp_file(&generator.benign(i), corpus.join(format!("b{i}.bmp"))).unwrap();
    }
    let checkpoint = root.join("scan.ckpt");
    let (code, _, stderr) = run(bin()
        .arg("scan")
        .arg(&corpus)
        .args(["--target", "16x16"])
        .args(["--checkpoint", checkpoint.to_str().unwrap()]));
    assert_eq!(code, 0, "initial scan failed: {stderr}");

    // The corpus grows; the old checkpoint no longer describes it.
    write_bmp_file(&generator.benign(9), corpus.join("late-arrival.bmp")).unwrap();
    let (code, _, stderr) = run(bin()
        .arg("scan")
        .arg(&corpus)
        .args(["--target", "16x16"])
        .args(["--checkpoint", checkpoint.to_str().unwrap()])
        .arg("--resume"));
    assert_eq!(code, 1, "resume over a changed corpus must be refused");
    assert!(stderr.contains("checkpoint mismatch"), "{stderr}");

    // --resume without --checkpoint is a usage error.
    let (code, _, stderr) =
        run(bin().arg("scan").arg(&corpus).args(["--target", "16x16"]).arg("--resume"));
    assert_eq!(code, 1);
    assert!(stderr.contains("--resume needs --checkpoint"), "{stderr}");
    std::fs::remove_dir_all(&root).ok();
}

/// A checkpoint that quarantined a file no codec claims stays resumable
/// and mergeable: the parser admits every fault kind a scan can write.
#[test]
fn checkpoint_with_an_unsupported_file_resumes_and_merges() {
    use decamouflage::imaging::codec::write_pnm_file;
    use decamouflage::imaging::Image;

    let root = std::env::temp_dir().join("decamouflage-cli-test-unsupported-checkpoint");
    let _ = std::fs::remove_dir_all(&root);
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let scene = Image::from_fn_gray(64, 64, |x, y| (100.0 + 0.8 * (x + y) as f64).round());
    write_pnm_file(&scene, corpus.join("a.pgm")).unwrap();
    std::fs::write(corpus.join("b.bmp"), b"plain text, not an image\n").unwrap();
    let checkpoint = root.join("scan.ckpt");
    let scan = |extra: &[&str]| {
        run(bin()
            .arg("scan")
            .arg(&corpus)
            .args(["--target", "16x16"])
            .args(["--checkpoint", checkpoint.to_str().unwrap()])
            .args(extra))
    };

    let (code, first_out, stderr) = scan(&[]);
    assert!(code == 0 || code == 2, "initial scan failed: {stderr}");
    let text = std::fs::read_to_string(&checkpoint).unwrap();
    assert!(
        text.lines().any(|line| line.starts_with("quarantine 1 unsupported-format ")),
        "{text}"
    );

    let (resumed_code, resumed_out, stderr) = scan(&["--resume"]);
    assert_eq!(resumed_code, code, "resume failed: {stderr}");
    let summary = |out: &str| out.lines().find(|l| l.starts_with("scanned ")).map(str::to_owned);
    assert_eq!(summary(&resumed_out), summary(&first_out));
    let summary = summary(&first_out).expect("summary line");
    assert!(
        summary.starts_with("scanned 2 images: ")
            && summary.ends_with(", 0 quarantined, 1 unreadable"),
        "{summary}"
    );

    let (code, merged, stderr) = run(bin().arg("merge").arg(&checkpoint));
    assert_eq!(code, 0, "merge failed: {stderr}");
    assert!(
        stderr.contains("merged 1 checkpoint(s): 2 images, 1 scored, 1 quarantined"),
        "{stderr}"
    );
    assert!(
        merged.lines().any(|line| line.starts_with("quarantine 1 unsupported-format ")),
        "{merged}"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn scan_rejects_empty_directories() {
    let root = std::env::temp_dir().join("decamouflage-cli-test-scan-empty");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let (code, _, stderr) = run(bin().arg("scan").arg(&root).args(["--target", "16x16"]));
    assert_eq!(code, 1);
    assert!(stderr.contains("no .pgm"), "{stderr}");
    std::fs::remove_dir_all(&root).ok();
}

/// One verdict rule behind every surface: for every fixture image —
/// scored, refused by validation, unreadable or unsupported — and every
/// degrade policy, `check` (exit code, member and verdict lines), `scan`
/// (the image's line, the summary, the exit code), the service's `/check`
/// (status, verdict or fault) and its `/scan` (the image's entry) agree
/// on one expected outcome.
#[test]
fn check_scan_and_service_agree_on_every_fixture() {
    use decamouflage::detection::ensemble::Ensemble;
    use decamouflage::detection::persist::ThresholdSet;
    use decamouflage::detection::stream::DirectorySource;
    use decamouflage::detection::{CancelToken, DegradePolicy};
    use decamouflage::imaging::codec::decode_auto;
    use decamouflage::imaging::{Image, Size};
    use decamouflage::serve::service::ScanEntry;
    use decamouflage::serve::{CheckOutcome, DetectionService};

    /// What every surface reports for one image.
    #[derive(Debug, Clone, Copy)]
    enum Expected {
        /// A verdict; `degraded` when a member could not vote.
        Verdict { attack: bool, degraded: bool },
        /// No verdict: `scan` labels the line `label`, the service reports
        /// the fault kind `fault`.
        Refused { label: &'static str, fault: &'static str },
    }
    let refused = |label, fault| Expected::Refused { label, fault };

    let root = fixtures("parity");
    let thresholds = calibrate(&root);
    let set = ThresholdSet::load(&thresholds).unwrap();
    // Files the engine cannot score: an image below the 11-pixel SSIM
    // window (validation refuses it), a truncated BMP, and text named
    // `.bmp`.
    let odd = root.join("odd");
    std::fs::create_dir_all(&odd).unwrap();
    let smooth = Image::from_fn_gray(10, 10, |x, y| (100.0 + 4.0 * (x + y) as f64).round());
    write_bmp_file(&smooth, odd.join("undersized.bmp")).unwrap();
    let bmp = std::fs::read(root.join("benign/0.bmp")).unwrap();
    std::fs::write(odd.join("truncated.bmp"), &bmp[..bmp.len() / 2]).unwrap();
    std::fs::write(odd.join("text.bmp"), b"plain text, not an image\n").unwrap();
    let dirs = [root.join("benign"), root.join("attack"), root.clone(), odd];
    let thresholds_arg = ["--thresholds", thresholds.to_str().unwrap()];
    // The undersized image under each policy: refused only by `strict`,
    // flagged with no member voting by the degrading policies.
    let unvoted_attack = Expected::Verdict { attack: true, degraded: true };
    for (mode, policy, undersized) in [
        ("strict", DegradePolicy::Strict, refused("quarantined", "below-minimum-size")),
        ("majority", DegradePolicy::MajorityOfAvailable, unvoted_attack),
        ("fail-closed", DegradePolicy::FailClosed, unvoted_attack),
    ] {
        let service = DetectionService::new(Size::square(16), &set, policy).unwrap();
        let reference = Ensemble::paper(Size::square(16), &set, policy).unwrap();
        let mut checked = 0;
        for dir in &dirs {
            let (scan_code, scan_out, stderr) = run(bin()
                .arg("scan")
                .arg(dir)
                .args(["--target", "16x16", "--degrade", mode])
                .args(thresholds_arg));
            let mut source = DirectorySource::open(dir).unwrap();
            let images = source.paths().to_vec();
            let scanned = service.scan_source(&mut source, &CancelToken::new(), 8);
            assert_eq!(scanned.entries.len(), images.len(), "{mode} {}", dir.display());
            let mut tally = [0usize; 4]; // flagged, accepted, quarantined, unreadable
            for (index, (image, entry)) in images.iter().zip(&scanned.entries).enumerate() {
                let shown = image.display().to_string();
                let what = format!("{mode} {shown}");
                let body = std::fs::read(image).unwrap();
                let name = image.file_name().unwrap().to_str().unwrap();
                let expected = match name {
                    "undersized.bmp" => undersized,
                    "truncated.bmp" => refused("unreadable", "unreadable"),
                    "text.bmp" => refused("unsupported", "unsupported-format"),
                    _ => {
                        let decision = reference.decide(&decode_auto(&body).unwrap().1).unwrap();
                        Expected::Verdict { attack: decision.is_attack, degraded: false }
                    }
                };
                let scan_line = scan_out
                    .lines()
                    .find(|line| {
                        line.ends_with(&format!(" {shown}"))
                            || line.contains(&format!(" {shown}: "))
                    })
                    .unwrap_or_else(|| panic!("{what}: no scan line: {scan_out} {stderr}"));
                let (code, check_out, check_err) = run(bin()
                    .arg("check")
                    .arg(image)
                    .args(["--target", "16x16", "--degrade", mode])
                    .args(thresholds_arg));
                let outcome = service.check_bytes(&body, &CancelToken::new());
                match expected {
                    Expected::Verdict { attack, degraded } => {
                        let (label, exit, last) = if attack {
                            ("ATTACK", 2, format!("{shown}: ATTACK (majority vote)"))
                        } else {
                            ("benign", 0, format!("{shown}: benign"))
                        };
                        assert_eq!(scan_line, format!("{label:<11} {shown}"), "{what}");
                        assert_eq!(code, exit, "{what}: {check_out} {check_err}");
                        let mut lines: Vec<&str> = check_out.lines().collect();
                        assert_eq!(lines.pop(), Some(last.as_str()), "{what}");
                        assert_eq!(outcome.status(), 200, "{what}: {outcome:?}");
                        let CheckOutcome::Verdict { verdict, .. } = &outcome else {
                            panic!("{what}: /check gave no verdict: {outcome:?}");
                        };
                        assert_eq!(verdict.is_attack, attack, "{what}: /check");
                        assert_eq!(!verdict.is_complete(), degraded, "{what}: /check");
                        let members: Vec<String> = verdict
                            .votes
                            .iter()
                            .map(|(id, vote)| {
                                format!("{id}: {}", if *vote { "ATTACK" } else { "benign" })
                            })
                            .chain(
                                verdict
                                    .unavailable
                                    .iter()
                                    .map(|(id, reason)| format!("{id}: unavailable ({reason})")),
                            )
                            .collect();
                        assert_eq!(lines, members, "{what}: check and /check members differ");
                        assert!(
                            matches!(entry, ScanEntry::Scored(decision) if decision == verdict),
                            "{what}: /scan gave {entry:?}"
                        );
                        tally[usize::from(!attack)] += 1;
                    }
                    Expected::Refused { label, fault } => {
                        let detail = scan_line
                            .strip_prefix(&format!("{label:<11} {shown}: "))
                            .unwrap_or_else(|| panic!("{what}: scan gave {scan_line}"));
                        // `scan` addresses an engine refusal by its stream
                        // index, `check` by image 0.
                        let detail = detail.replacen(&format!("image {index} "), "image 0 ", 1);
                        assert_eq!(code, 1, "{what}: check must refuse: {check_out}");
                        assert_eq!(check_out, "", "{what}");
                        assert!(
                            check_err.contains(&detail),
                            "{what}: {check_err} lacks {detail:?}"
                        );
                        assert_eq!(outcome.status(), 422, "{what}: {outcome:?}");
                        assert!(
                            matches!(outcome, CheckOutcome::Quarantined { fault: f, .. } if f == fault),
                            "{what}: /check gave {outcome:?}"
                        );
                        assert!(
                            matches!(entry, ScanEntry::Quarantined { fault: f, .. } if *f == fault),
                            "{what}: /scan gave {entry:?}"
                        );
                        // `scan` counts a file that never decoded apart.
                        tally[if label == "quarantined" { 2 } else { 3 }] += 1;
                    }
                }
                checked += 1;
            }
            let [flagged, accepted, quarantined, unreadable] = tally;
            let summary = format!(
                "scanned {} images: {flagged} flagged, {accepted} accepted, \
                 {quarantined} quarantined, {unreadable} unreadable",
                images.len()
            );
            assert_eq!(scan_out.lines().last(), Some(summary.as_str()), "{mode} {}", dir.display());
            assert_eq!(scan_code, if flagged > 0 { 2 } else { 0 }, "{mode} {}", dir.display());
        }
        assert_eq!(checked, 13, "{mode}: every fixture image was compared");
    }
    std::fs::remove_dir_all(&root).ok();
}
