//! End-to-end conformance for the `esram` binary: the CI
//! `spec-conformance` job runs these same contracts from the shell, and
//! this suite keeps them enforced in every plain `cargo test` run too.
//!
//! * `run` on the checked-in examples reproduces the committed goldens
//!   byte for byte (report.json only; timing.json is wall-clock).
//! * The case-study report carries the paper's numbers: Eq. (2)-exact
//!   cycles, k = 96, R >= 84, and every injected fault located.
//! * Reports are byte-identical to the golden across threads
//!   {1, 2, 7, 32}, both strategies ({cost, steal}) and both diagnosis
//!   kernels, swept in-process through `execute_plan`.
//! * Malformed specs exit non-zero with a span-bearing error message.

use esram_diag::{DiagnosisKernel, ShardPlan, ShardStrategy};
use esram_spec::{compile_str, execute_plan, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU32, Ordering};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn example(name: &str) -> PathBuf {
    repo_root().join("examples").join(name)
}

fn golden(name: &str) -> PathBuf {
    repo_root()
        .join("examples/goldens")
        .join(name)
        .join("report.json")
}

static NEXT_DIR: AtomicU32 = AtomicU32::new(0);

/// A fresh per-test output directory under the target tmp dir.
fn out_dir(tag: &str) -> PathBuf {
    let serial = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "esram-cli-conformance-{}-{tag}-{serial}",
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// Runs the binary with the given args from the repository root.
fn esram(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_esram"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("esram binary must spawn")
}

fn run_spec(spec: &str, tag: &str) -> (Output, String) {
    let dir = out_dir(tag);
    let output = esram(&[
        "run",
        example(spec).to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);
    let report = std::fs::read_to_string(dir.join("report.json")).unwrap_or_default();
    std::fs::remove_dir_all(&dir).ok();
    (output, report)
}

#[test]
fn compile_accepts_the_checked_in_examples() {
    for spec in ["case_study_512x100.toml", "defect_rate_sweep.toml"] {
        let output = esram(&["compile", example(spec).to_str().unwrap()]);
        assert!(output.status.success(), "compile {spec} failed: {output:?}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        assert!(stdout.contains("spec OK"), "unexpected compile output: {stdout}");
    }
}

#[test]
fn case_study_reproduces_the_committed_golden_and_the_paper_numbers() {
    let (output, report) = run_spec("case_study_512x100.toml", "golden");
    assert!(output.status.success(), "run failed: {output:?}");
    let committed = std::fs::read_to_string(golden("case_study_512x100")).unwrap();
    assert_eq!(
        report, committed,
        "case-study report drifted from the committed golden"
    );

    let document = Json::parse(&report).unwrap();
    let job = &document.get("jobs").and_then(Json::as_array).unwrap()[0];
    let int = |key: &str| job.get(key).and_then(Json::as_int).unwrap();
    // The paper's case study: Eq. (2) = 2nc + 4n + 2c + 2(n + c)(w - 1)
    // at n = 512, c = 100, w = 97 gives 998 440 cycles (9.9844 ms at
    // 10 ns); Eq. (1) at k = 96 gives 84 019 200 cycles, an R > 84x
    // reduction — and every injected fault is located.
    assert_eq!(int("cycles"), 998_440);
    assert_eq!(int("cycles"), int("eq2_cycles"));
    assert_eq!(job.get("analytic_exact").and_then(Json::as_bool), Some(true));
    assert_eq!(int("eq1_k"), 96);
    assert_eq!(int("eq1_cycles"), 84_019_200);
    assert_eq!(job.get("all_faults_located").and_then(Json::as_bool), Some(true));
    assert_eq!(int("injected"), int("located_injected"));
    match job.get("modeled_reduction") {
        Some(Json::Float(reduction)) => assert!(*reduction >= 84.0, "R = {reduction} < 84"),
        other => panic!("modeled_reduction missing: {other:?}"),
    }
    assert_eq!(
        document
            .get("summary")
            .and_then(|s| s.get("all_faults_located"))
            .and_then(Json::as_bool),
        Some(true)
    );
}

#[test]
fn sweep_example_reproduces_the_committed_golden() {
    let (output, report) = run_spec("defect_rate_sweep.toml", "sweep");
    assert!(output.status.success(), "run failed: {output:?}");
    let committed = std::fs::read_to_string(golden("defect_rate_sweep")).unwrap();
    assert_eq!(
        report, committed,
        "sweep report drifted from the committed golden"
    );
}

#[test]
fn reports_are_byte_identical_across_threads_and_strategies() {
    // The committed golden was generated with no kernel pinned; pinning
    // one changes only the scheme echo's `kernel` field, so that field
    // is mapped back before the byte comparison.
    let golden_bytes = std::fs::read_to_string(golden("case_study_512x100")).unwrap();
    let source = std::fs::read_to_string(example("case_study_512x100.toml")).unwrap();
    let mut plan = compile_str(&source).expect("the case study compiles");
    for kernel in DiagnosisKernel::all() {
        plan.kernel = Some(kernel);
        let pinned = format!("\"kernel\": \"{kernel}\"");
        for strategy in ShardStrategy::all() {
            for threads in [1, 2, 7, 32] {
                let shard = ShardPlan::with_threads(threads).with_strategy(strategy);
                let run = execute_plan(&plan, &shard).expect("the case study runs");
                let report = run.report.render();
                assert!(report.contains(&pinned), "the report must echo {pinned}");
                assert_eq!(
                    report.replacen(&pinned, "\"kernel\": \"inherit\"", 1),
                    golden_bytes,
                    "report bytes differ under {shard} with the {kernel} kernel"
                );
            }
        }
    }
}

#[test]
fn malformed_specs_fail_with_span_bearing_errors() {
    for spec in [
        "invalid/bad_geometry.toml",
        "invalid/unknown_scheme.toml",
        "invalid/trailing_garbage.toml",
        "invalid/unknown_faultsim_kernel.toml",
        "invalid/cell_overflow.toml",
        "invalid/huge_count.toml",
        "invalid/huge_words.toml",
        "invalid/huge_sweep.toml",
    ] {
        let output = esram(&["compile", example(spec).to_str().unwrap()]);
        assert_eq!(output.status.code(), Some(1), "{spec} must exit 1: {output:?}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(
            stderr.contains("line ") && stderr.contains("column "),
            "{spec} error lacks a span: {stderr}"
        );
        // `run` must reject the same spec identically.
        let run = esram(&["run", example(spec).to_str().unwrap(), "--out", "/tmp/unused"]);
        assert_eq!(run.status.code(), Some(1), "{spec} run must exit 1");
    }
}

#[test]
fn report_subcommand_summarises_a_golden() {
    let dir = golden("case_study_512x100");
    let output = esram(&["report", dir.parent().unwrap().to_str().unwrap()]);
    assert!(output.status.success(), "report failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        stdout.contains("case_study_512x100"),
        "summary lacks scenario: {stdout}"
    );
    assert!(
        stdout.contains("all faults located: true"),
        "summary verdict wrong: {stdout}"
    );
}

#[test]
fn usage_errors_exit_2() {
    for args in [&[][..], &["frobnicate"][..], &["run"][..]] {
        let output = esram(args);
        assert_eq!(output.status.code(), Some(2), "usage error must exit 2: {args:?}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(stderr.contains("usage: esram"), "usage text missing: {stderr}");
    }
}
