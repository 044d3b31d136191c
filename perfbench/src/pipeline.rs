//! The two spec workloads (`case_study`, `sparse_fleet`): scenario-spec
//! text in, deterministic report out.
//!
//! Timed passes call only the narrow public surface the `esram` CLI
//! uses: `ScenarioSpec::parse` / `compile`, `execute_plan` and
//! `Json::render`. The traced run decomposes the same pass into the
//! layer calls behind `execute_plan` and checks that they reproduce the
//! untraced report.

use crate::measure::{self, block_median, digest, per_second, timed_blocks, timed_pass};
use crate::metrics::Tally;
use crate::stats::{median, percentile};
use crate::trace::{Tracer, PASS};
use crate::Run;
use bisd::{DrfMode, FastScheme, SegmentOutcome};
use esram_diag::{DiagnosisResult, DiagnosisScore, FleetJob, FleetPlan, FleetRunner, ShardPlan, Soc};
use esram_spec::{execute_plan, DiagnosisPlan, DrfSpec, Json, ScenarioSpec, SchemeConfig};
use sram_model::{MemoryId, Sram};
use std::collections::BTreeMap;
use std::time::Duration;

/// The checked-in golden report of the paper's case study (seed 42).
const CASE_STUDY_GOLDEN: &str = include_str!("../../examples/goldens/case_study_512x100/report.json");

/// Eq. (2) at 512×100: the proposed scheme's diagnosis cycles.
const EQ2_CYCLES_512X100: u64 = 998_440;

/// One untraced pass: parse, compile, execute, render.
///
/// # Errors
///
/// A rejected spec, a whole-run failure, or any failed job row.
fn pass(text: &str, shard: &ShardPlan) -> Result<(Json, String), String> {
    let spec = ScenarioSpec::parse(text).map_err(|error| format!("spec rejected: {error}"))?;
    let plan = spec.compile();
    let run = execute_plan(&plan, shard)?;
    let bytes = run.report.render();
    if run.failed > 0 {
        return Err(format!("{} job(s) failed", run.failed));
    }
    Ok((run.report, bytes))
}

/// What a spec workload's set-up leaves ready: the generated input and
/// the untraced reference output.
struct Ready {
    text: String,
    report: Json,
    digest: u64,
}

/// Sums an integer field over the report's job rows.
fn job_sum(report: &Json, key: &str) -> i128 {
    job_rows(report)
        .iter()
        .map(|job| job.get(key).and_then(Json::as_int).unwrap_or(0))
        .sum()
}

fn job_rows(report: &Json) -> &[Json] {
    report.get("jobs").and_then(Json::as_array).unwrap_or(&[])
}

/// Runs a spec workload: set-up, timed passes, checks, and (traced)
/// the per-layer decomposition.
///
/// # Errors
///
/// Set-up failures; per-pass failures are counted instead.
pub fn run(
    name: &str,
    generate: fn(u64) -> String,
    seed: u64,
    budget: Duration,
    trace: bool,
    shard: ShardPlan,
) -> Result<Run, String> {
    let mut tally = Tally::default();
    // The 1-worker reference pass runs before any worker thread exists,
    // so it allocates only in the main heap arena and the peak RSS read
    // right after it does not depend on how glibc spread later
    // threads' allocations over per-thread arenas.
    let (_, sequential) = pass(&generate(seed), &ShardPlan::sequential())?;
    let peak_rss_mb = measure::peak_rss_mb()?;
    let (ready, setup_s) = measure::repeated_setup(|| {
        let text = generate(seed);
        let (report, bytes) = pass(&text, &shard)?;
        Ok(Ready {
            text,
            report,
            digest: digest(bytes.as_bytes()),
        })
    })?;

    let jobs = job_rows(&ready.report).len().max(1) as f64;
    let cells = job_sum(&ready.report, "cells") as f64;
    let injected = job_sum(&ready.report, "injected") as f64;
    let located = job_sum(&ready.report, "located_injected") as f64;
    let cycles = job_sum(&ready.report, "cycles") as f64 / jobs;
    check_outputs(name, &ready, &sequential, cycles, &shard, &mut tally);

    measure::settle(|| pass(&ready.text, &shard));
    let mut metrics = BTreeMap::new();
    let (passes, spans) = if trace {
        let (samples, tracer) = traced(&ready, budget, shard, &mut tally, &mut metrics)?;
        (samples.len(), Some(tracer))
    } else {
        let blocks = timed_blocks(budget, ready.digest, &mut tally, || {
            pass(&ready.text, &shard).map(|(_, bytes)| digest(bytes.as_bytes()))
        });
        metrics.insert("run_ms_p50", block_median(&blocks, median));
        metrics.insert(
            "run_ms_p90",
            block_median(&blocks, |block| percentile(block, 90.0).unwrap_or(0.0)),
        );
        metrics.insert(
            "cells_per_s",
            block_median(&blocks, |block| per_second(cells, block)),
        );
        metrics.insert(
            "faults_per_s",
            block_median(&blocks, |block| per_second(injected, block)),
        );
        metrics.insert("setup_s", setup_s);
        metrics.insert("peak_rss_mb", peak_rss_mb);
        metrics.insert("sim_cycles", cycles);
        metrics.insert(
            "location_coverage",
            if injected > 0.0 { located / injected } else { 1.0 },
        );
        (blocks.iter().map(Vec::len).sum(), None)
    };
    Ok(Run {
        tally,
        metrics,
        passes,
        spans,
    })
}

/// Output checks outside the timed loop.
fn check_outputs(
    name: &str,
    ready: &Ready,
    sequential: &str,
    cycles: f64,
    shard: &ShardPlan,
    tally: &mut Tally,
) {
    tally.check(
        digest(sequential.as_bytes()) == ready.digest,
        &format!("1-worker report equals the {}-worker report", shard.threads()),
    );
    tally.check(
        job_sum(&ready.report, "injected") > 0,
        "the generated population holds injected faults",
    );
    if name == "case_study" {
        let golden = pass(&crate::gen::case_study_spec(42), shard);
        tally.check(
            matches!(&golden, Ok((_, bytes)) if bytes == CASE_STUDY_GOLDEN),
            "case study at seed 42 is byte-identical to the golden report",
        );
        tally.check(
            cycles == EQ2_CYCLES_512X100 as f64,
            &format!("case-study cycles {cycles} equal Eq. (2) = {EQ2_CYCLES_512X100}"),
        );
        tally.check(
            ready
                .report
                .get("summary")
                .and_then(|s| s.get("all_faults_located"))
                .and_then(Json::as_bool)
                == Some(true),
            "case study locates every injected fault",
        );
    }
}

/// The fleet jobs `execute_plan` builds for a fast-scheme plan.
pub(crate) fn fleet_jobs(plan: &DiagnosisPlan) -> Result<Vec<FleetJob>, String> {
    let SchemeConfig::Fast { clock_ns, drf } = plan.scheme else {
        return Err("the traced run decomposes fast-scheme plans only".to_string());
    };
    let mut scheme = FastScheme::new(clock_ns).with_drf_mode(match drf {
        DrfSpec::None => DrfMode::None,
        DrfSpec::Nwrtm => DrfMode::Nwrtm,
        DrfSpec::Pause(ms) => DrfMode::RetentionPause(ms),
    });
    if let Some(kernel) = plan.kernel {
        scheme = scheme.with_kernel(kernel);
    }
    plan.jobs
        .iter()
        .map(|job| {
            let mut builder = Soc::builder();
            for group in &job.memories {
                builder = builder
                    .memories(group.count, group.words, group.width)
                    .map_err(|error| error.to_string())?;
            }
            let mut builder = builder
                .defect_rate(job.defect_rate)
                .seed(job.seed)
                .spares(job.spares);
            if !job.classes.is_empty() {
                builder = builder.fault_classes(&job.classes);
            }
            if job.data_retention {
                builder = builder.with_data_retention_defects();
            }
            Ok(FleetJob::new(builder, scheme))
        })
        .collect()
}

/// One traced pass's outputs, kept for the checks and the probes.
struct TracedPass {
    fleet: FleetPlan,
    socs: Vec<Soc>,
    results: Vec<DiagnosisResult>,
    scores: Vec<DiagnosisScore>,
    located: Vec<usize>,
    digest: u64,
}

/// The pass decomposed into its layer calls, each in its own span
/// under one `pass` span.
fn traced_pass(tracer: &mut Tracer, ready: &Ready, shard: ShardPlan) -> Result<TracedPass, String> {
    tracer.span(PASS, |t| {
        let spec = t
            .span("spec.parse", |_| ScenarioSpec::parse(&ready.text))
            .map_err(|error| format!("spec rejected: {error}"))?;
        let plan = t.span("spec.compile", |_| spec.compile());
        let jobs = fleet_jobs(&plan)?;
        let runner = FleetRunner::new(shard);
        let fleet = t
            .span("core.plan", |_| runner.plan(&jobs))
            .map_err(|e| e.to_string())?;
        let mut socs = t
            .span("core.build", |_| runner.build(&fleet))
            .map_err(|e| e.to_string())?;
        let results = t
            .span("core.diagnose", |_| runner.diagnose(&fleet, &mut socs))
            .map_err(|e| e.to_string())?;
        let scores = t.span("core.score", |_| {
            socs.iter()
                .zip(&results)
                .map(|(soc, result)| soc.score(result))
                .collect()
        });
        let located = t.span("bisd.located_count", |_| {
            results.iter().map(DiagnosisResult::located_count).collect()
        });
        // The report rows are assembled inside `execute_plan`; the
        // render call is timed over the untraced report value.
        let bytes = t.span("spec.render", |_| ready.report.render());
        Ok(TracedPass {
            fleet,
            socs,
            results,
            scores,
            located,
            digest: digest(bytes.as_bytes()),
        })
    })
}

/// Whether the traced layer outputs reproduce the untraced report:
/// cycles, scores and located sites per job, and the report digest.
fn matches_report(traced: &TracedPass, ready: &Ready) -> bool {
    let rows = job_rows(&ready.report);
    traced.digest == ready.digest
        && rows.len() == traced.results.len()
        && rows.iter().enumerate().all(|(job, row)| {
            let int = |key: &str| row.get(key).and_then(Json::as_int);
            let score = &traced.scores[job];
            int("cycles") == Some(i128::from(traced.results[job].cycles))
                && int("injected") == Some(score.injected() as i128)
                && int("located_injected") == Some(score.located() as i128)
                && int("additional_sites") == Some(score.additional_sites as i128)
                && int("located_sites") == Some(traced.located[job] as i128)
        })
}

/// Re-runs diagnosis of a fresh build at one worker, and as the two
/// segments a 2-worker cost-weighted run forms followed by their merge.
/// Both must reproduce the traced pass's results.
fn probe(
    tracer: &mut Tracer,
    traced: &TracedPass,
    shard: ShardPlan,
    tally: &mut Tally,
) -> Result<(), String> {
    let runner = FleetRunner::new(shard);
    let fleet = &traced.fleet;
    let mut fresh = tracer
        .span("probe.build", |_| runner.build(fleet))
        .map_err(|e| e.to_string())?;
    let sequential = FleetRunner::new(ShardPlan::sequential());
    let one_worker = tracer
        .span("exec.diagnose_1w", |_| sequential.diagnose(fleet, &mut fresh))
        .map_err(|e| e.to_string())?;
    tally.check(
        one_worker == traced.results,
        "1-worker and 2-worker traced diagnoses agree",
    );

    let mut fresh = tracer
        .span("probe.build", |_| runner.build(fleet))
        .map_err(|e| e.to_string())?;
    let mut slots: Vec<(usize, usize, MemoryId, &mut Sram)> = Vec::with_capacity(fleet.member_count());
    for (job, soc) in fresh.iter_mut().enumerate() {
        for (member, memory) in soc.memories_mut().iter_mut().enumerate() {
            slots.push((job, member, memory.id, &mut memory.sram));
        }
    }
    let halves = esram_exec::cost_ranges(&fleet.member_costs(), 2);
    let mut per_job: Vec<Vec<SegmentOutcome>> = (0..fleet.job_count()).map(|_| Vec::new()).collect();
    for half in halves {
        tracer.span("bisd.segment", |_| -> Result<(), String> {
            let mut rest = &mut slots[half];
            while !rest.is_empty() {
                let job = rest[0].0;
                let len = rest.iter().take_while(|slot| slot.0 == job).count();
                let (chunk, tail) = rest.split_at_mut(len);
                let base = chunk[0].1;
                let mut pairs: Vec<(MemoryId, &mut Sram)> =
                    chunk.iter_mut().map(|slot| (slot.2, &mut *slot.3)).collect();
                let outcome = fleet
                    .population_plan(job)
                    .run_segment(base, &mut pairs)
                    .map_err(|e| e.to_string())?;
                per_job[job].push(outcome);
                rest = tail;
            }
            Ok(())
        })?;
    }
    let merged: Vec<DiagnosisResult> = tracer.span("bisd.merge", |_| {
        per_job
            .into_iter()
            .enumerate()
            .map(|(job, outcomes)| fleet.population_plan(job).merge(outcomes))
            .collect()
    });
    tally.check(
        merged == traced.results,
        "two merged segments reproduce the fleet diagnosis",
    );
    Ok(())
}

/// The traced run: iterations of an untraced pass, a traced pass and
/// the probes, reported as per-iteration medians. Alternating keeps the
/// untraced and traced passes under the same machine state, so their
/// difference is the tracing overhead. Returns the untraced pass times.
fn traced(
    ready: &Ready,
    budget: Duration,
    shard: ShardPlan,
    tally: &mut Tally,
    metrics: &mut BTreeMap<&'static str, f64>,
) -> Result<(Vec<f64>, Tracer), String> {
    let mut tracer = Tracer::new();
    let started = std::time::Instant::now();
    let mut last = None;
    let mut iteration = 0;
    let mut untraced = Vec::new();
    while iteration < crate::MIN_TRACED || started.elapsed() < budget {
        untraced.push(
            timed_pass(ready.digest, tally, || {
                pass(&ready.text, &shard).map(|(_, bytes)| digest(bytes.as_bytes()))
            })
            .0,
        );
        tracer.set_pass(iteration);
        let traced = traced_pass(&mut tracer, ready, shard)?;
        tally.check(
            matches_report(&traced, ready),
            "traced layers reproduce the untraced report",
        );
        probe(&mut tracer, &traced, shard, tally)?;
        last = Some(traced);
        iteration += 1;
    }
    let traced = last.expect("at least one traced iteration");

    tracer.insert_metrics(
        &[
            ("spec.parse_ms", "spec.parse"),
            ("spec.compile_ms", "spec.compile"),
            ("spec.render_ms", "spec.render"),
            ("core.plan_ms", "core.plan"),
            ("core.build_ms", "core.build"),
            ("core.diagnose_ms", "core.diagnose"),
            ("core.score_ms", "core.score"),
            ("bisd.segment_ms", "bisd.segment"),
            ("bisd.merge_ms", "bisd.merge"),
            ("bisd.located_count_ms", "bisd.located_count"),
        ],
        &untraced,
        metrics,
    );
    metrics.insert(
        "exec.diagnose_speedup_2w",
        tracer.median_ms("exec.diagnose_1w") / tracer.median_ms("core.diagnose"),
    );

    let injected: usize = traced.scores.iter().map(DiagnosisScore::injected).sum();
    let located: usize = traced.scores.iter().map(DiagnosisScore::located).sum();
    let members: Vec<bool> = traced
        .socs
        .iter()
        .flat_map(|soc| soc.memories().iter().map(|memory| memory.injected.is_empty()))
        .collect();
    metrics.insert("core.located_frac", located as f64 / injected.max(1) as f64);
    metrics.insert(
        "core.additional_sites",
        traced
            .scores
            .iter()
            .map(|score| score.additional_sites)
            .sum::<usize>() as f64,
    );
    metrics.insert(
        "bisd.log_records",
        traced
            .results
            .iter()
            .map(|result| result.log.len())
            .sum::<usize>() as f64,
    );
    metrics.insert("bisd.located_sites", traced.located.iter().sum::<usize>() as f64);
    metrics.insert(
        "bisd.pristine_member_frac",
        members.iter().filter(|&&pristine| pristine).count() as f64 / members.len().max(1) as f64,
    );
    metrics.insert("fault_models.injected_faults", injected as f64);
    Ok((untraced, tracer))
}
