//! `benchmark` — end-to-end and per-layer benchmark of the `decamouflage`
//! scanner and detection service.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--smoke]
//! benchmark compare A B
//! ```
//!
//! `--trace 0` (the default) drives the real `decamouflage` binary found
//! next to this executable — `scan` passes or a `serve` process under
//! load — with tracing off, checks every output against reference
//! verdicts computed in-process, and prints each end-to-end metric as
//! `workload metric value unit`. `--trace 1` replays the same inputs
//! through each layer's public functions with in-memory spans and prints
//! the per-layer metrics. Either ends with one JSON line per workload:
//! `{"correct", "attempted", "failed", "metrics"}`. Without `--workload`
//! every workload runs in turn.
//!
//! `compare A B` reads the saved output of runs (the metric lines) and
//! checks B against A within the bounds in `BENCHMARK.json`.
//!
//! See README.md in this directory for the workloads and metrics.

mod compare;
mod host;
mod json;
mod load;
mod procs;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

#[derive(Debug)]
struct Options {
    traced: bool,
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    smoke: bool,
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] \
                     [--smoke]\n       benchmark compare A B";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [a, b] => compare::compare(Path::new(a), Path::new(b), Path::new("BENCHMARK.json")),
            _ => Err(USAGE.to_string()),
        }
    } else {
        parse(&args).and_then(|options| execute(&options))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut args = args.iter().map(String::as_str);
    let mut options = Options {
        traced: false,
        workloads: WORKLOADS.iter().collect(),
        seed: 2021,
        seconds: 0.0,
        smoke: false,
    };
    let mut seconds = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag {
            "--workload" => {
                let name = value()?;
                let workload =
                    workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                options.workloads = vec![workload];
            }
            "--seed" => options.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                let parsed: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(0.1..=600.0).contains(&parsed) {
                    return Err("--seconds must be within 0.1..600".into());
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                options.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    options.seconds = seconds.unwrap_or(if options.smoke { 1.0 } else { 24.0 });
    Ok(options)
}

/// Runs every selected workload; `Ok(false)` when any output was wrong.
fn execute(options: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let bin_dir = exe.parent().ok_or("executable has no directory")?;
    let cli = bin_dir.join("decamouflage");
    if !cli.is_file() {
        return Err(format!(
            "{} is missing; build it with `cargo build --release --features simd`",
            cli.display()
        ));
    }
    // Working files next to the build output, inside the checkout.
    let target_dir = bin_dir.parent().unwrap_or(bin_dir);
    let work_root = target_dir.join("benchmark-work").join(std::process::id().to_string());
    let result = execute_in(options, &cli, &work_root, target_dir);
    let _ = std::fs::remove_dir_all(&work_root);
    result
}

fn execute_in(
    options: &Options,
    cli: &Path,
    work_root: &Path,
    target_dir: &Path,
) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in &options.workloads {
        println!("# {}: {}", workload.name, workload.why);
        let work = work_root.join(workload.name);
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        let thresholds_path = work.join("thresholds.txt");
        let thresholds = workload::thresholds();
        thresholds.save(&thresholds_path).map_err(|e| e.to_string())?;
        let count = if options.smoke { workload.inputs.smoke_count } else { workload.inputs.count };
        let generating = std::time::Instant::now();
        let corpus = workload::generate(
            &workload.inputs,
            count,
            options.seed,
            &work.join("corpus"),
            &thresholds,
        )?;
        println!(
            "# {count} inputs generated and scored for reference in {:.1} s",
            generating.elapsed().as_secs_f64()
        );
        let ctx = run::Context {
            cli: cli.to_path_buf(),
            work: work.clone(),
            seed: options.seed,
            seconds: options.seconds,
            smoke: options.smoke,
        };
        let mut report = if options.traced {
            let spans_out: PathBuf = target_dir
                .join("benchmark-traces")
                .join(format!("{}-seed{}.tsv", workload.name, options.seed));
            trace::trace(&ctx, workload, &corpus, &thresholds_path, &spans_out)?
        } else {
            run::run(&ctx, workload, &corpus, &thresholds_path)?
        };
        let line = report.json_line();
        print!("{}", report.lines(workload.name));
        for problem in &report.problems {
            eprintln!("{}: {problem}", workload.name);
        }
        println!("{line}");
        all_correct &= report.correct();
    }
    Ok(all_correct)
}
