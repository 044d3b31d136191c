//! The esram-diag benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload case_study --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run measures one workload in its own process and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The traced run
//! also writes its spans to `perfbench/out/`. Workloads, metrics and
//! bounds are declared in `BENCHMARK.json` and described in
//! `perfbench/README.md`.
//!
//! Every pass runs under an explicit 2-worker `ShardPlan` (capped at
//! the available parallelism). The benchmark refuses to start while any
//! `ESRAM_*` variable is set: library constructors read those
//! variables, so they would silently change the program measured.

mod campaign;
mod gen;
mod measure;
mod metrics;
mod pipeline;
mod stats;
mod trace;

use esram_diag::ShardPlan;
use metrics::{Tally, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// Workers every pass runs under (capped at the available parallelism).
const WORKERS: usize = 2;

/// Traced iterations per traced run, at the least.
const MIN_TRACED: usize = 10;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["case_study", "sparse_fleet", "coverage_campaign"];

/// What one workload run measured.
#[derive(Debug)]
pub struct Run {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Untraced passes timed.
    pub passes: usize,
    /// The traced run's spans.
    pub spans: Option<Tracer>,
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args;
    while let [flag, value, tail @ ..] = rest {
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not '{value}'"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload '{value}' (one of {})",
                    WORKLOADS.join(", ")
                ))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
        rest = tail;
    }
    if let [dangling] = rest {
        return Err(format!("'{dangling}' needs a value"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The commit the checkout was made from, when it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_string()
        } else {
            head.to_string()
        };
    };
    std::fs::read_to_string(format!(".git/{reference}"))
        .map(|id| id.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(error) => {
            eprintln!(
                "error: {error}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let knobs: Vec<String> = std::env::vars()
        .map(|(key, _)| key)
        .filter(|key| key.starts_with("ESRAM_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "error: unset {} first: ESRAM_* variables change the program under test",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }

    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let shard = ShardPlan::with_threads(WORKERS.min(nproc));
    let budget = Duration::from_secs(args.seconds);
    let outcome = match args.workload.as_str() {
        "case_study" => pipeline::run(
            "case_study",
            gen::case_study_spec,
            args.seed,
            budget,
            args.trace,
            shard,
        ),
        "sparse_fleet" => pipeline::run(
            "sparse_fleet",
            gen::sparse_fleet_spec,
            args.seed,
            budget,
            args.trace,
            shard,
        ),
        _ => campaign::run(args.seed, budget, args.trace, shard),
    };
    let mut run = match outcome {
        Ok(run) => run,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::from(1);
        }
    };

    println!(
        "workload {} seed {} trace {}: {} untraced passes timed, {} left out for CPU steal, nproc {nproc}, workers {}, commit {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        run.passes,
        run.tally.disturbed,
        shard.threads(),
        commit()
    );
    if let Some(tracer) = &run.spans {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-{}.jsonl", args.workload, args.seed);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json_lines())) {
            Ok(()) => println!("spans: {path}"),
            Err(error) => eprintln!("warning: cannot write spans to {path}: {error}"),
        }
    }
    let catalogue = if args.trace {
        // A layer the workload never calls reports 0.
        for &(name, _) in PER_LAYER {
            run.metrics.entry(name).or_insert(0.0);
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    match metrics::result_line(&run.tally, catalogue, &run.metrics) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|arg| arg.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let args = parse_args(&strings(&[
            "--workload",
            "sparse_fleet",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("sparse_fleet", 9, 3, true)
        );
        assert!(parse_args(&strings(&["--workload", "nope", "--seed", "1", "--seconds", "1"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "case_study",
            "--seed",
            "x",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--workload", "case_study", "--seconds", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "case_study", "--seed"])).is_err());
    }
}
