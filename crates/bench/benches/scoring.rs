//! Scoring a diagnosis against the injected ground truth: the
//! `Soc::score` plus `located_count` work a report row does per job,
//! on two shapes.
//!
//! * `evaluate_case_study_4x512x100` — the checked-in case-study spec
//!   (4×512×100, 1 % stuck-at and transition faults, seed 42): a dense
//!   log of about 15 000 records over four memories.
//! * `evaluate_sparse_fleet_16x32` — 16 SoCs of 32 small e-SRAMs each
//!   (24×64×16 plus 8×256×32), at 0.04 % defects with DRFs diagnosed
//!   through NWRTM: the paper's target traffic, where a sparse log
//!   spreads over many memories and decoder faults fail whole words.
//!
//! Populations and results are built and diagnosed once, outside the
//! timed loop; each iteration scores every (SoC, result) pair and counts
//! its located sites. Both rows are gated by `perf_gate --strict
//! --prefix scoring/` against the committed ledger.

use criterion::{criterion_group, criterion_main, Criterion};
use esram_diag::{DiagnosisResult, DiagnosisScheme, DrfMode, FastScheme, Soc};
use esram_spec::{compile_str, Json};
use std::hint::black_box;
use std::path::Path;

fn example(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(relative);
    std::fs::read_to_string(path).expect("example is checked in")
}

fn diagnosed(mut soc: Soc, scheme: &FastScheme) -> (Soc, DiagnosisResult) {
    let result = scheme.diagnose(soc.memories_mut()).expect("diagnosis runs");
    (soc, result)
}

/// The case-study SoC and its result, checked against the committed
/// golden report's score fields.
fn case_study() -> (Soc, DiagnosisResult) {
    let plan = compile_str(&example("case_study_512x100.toml")).expect("case-study spec compiles");
    let job = &plan.jobs[0];
    let mut builder = Soc::builder();
    for group in &job.memories {
        builder = builder
            .memories(group.count, group.words, group.width)
            .expect("valid geometry");
    }
    let soc = builder
        .defect_rate(job.defect_rate)
        .fault_classes(&job.classes)
        .seed(job.seed)
        .build()
        .expect("population builds");
    let pair = diagnosed(soc, &FastScheme::new(10.0).with_drf_mode(DrfMode::None));

    let golden = Json::parse(&example("goldens/case_study_512x100/report.json")).expect("golden parses");
    let row = &golden
        .get("jobs")
        .and_then(Json::as_array)
        .expect("golden has jobs")[0];
    let int = |key: &str| row.get(key).and_then(Json::as_int).expect("golden field");
    let score = pair.0.score(&pair.1);
    assert_eq!(int("injected"), score.injected() as i128);
    assert_eq!(int("located_injected"), score.located() as i128);
    assert_eq!(int("additional_sites"), score.additional_sites as i128);
    assert_eq!(int("located_sites"), pair.1.located_count() as i128);
    pair
}

/// 16 SoCs shaped like the sparse fleet.
fn sparse_fleet() -> Vec<(Soc, DiagnosisResult)> {
    (1..=16u64)
        .map(|seed| {
            let soc = Soc::builder()
                .memories(24, 64, 16)
                .and_then(|builder| builder.memories(8, 256, 32))
                .expect("valid geometry")
                .defect_rate(0.0004)
                .with_data_retention_defects()
                .seed(seed)
                .build()
                .expect("population builds");
            diagnosed(soc, &FastScheme::new(10.0))
        })
        .collect()
}

fn score_all(pairs: &[(Soc, DiagnosisResult)]) -> usize {
    pairs
        .iter()
        .map(|(soc, result)| soc.score(result).located() + result.located_count())
        .sum()
}

fn bench_scoring(c: &mut Criterion) {
    let case_study = [case_study()];
    let fleet = sparse_fleet();
    assert!(
        fleet.iter().map(|(_, result)| result.log.len()).sum::<usize>() > 0,
        "the sparse fleet must log some mismatches"
    );

    let mut group = c.benchmark_group("scoring");
    group.sample_size(20);
    group.bench_function("evaluate_case_study_4x512x100", |b| {
        b.iter(|| black_box(score_all(&case_study)))
    });
    group.bench_function("evaluate_sparse_fleet_16x32", |b| {
        b.iter(|| black_box(score_all(&fleet)))
    });
    group.finish();
}

criterion_group!(benches, bench_scoring);
criterion_main!(benches);
