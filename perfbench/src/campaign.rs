//! The `coverage_campaign` workload: a seeded single-fault universe at
//! 512×100 run through March CW + NWRTM by the fault simulator.
//!
//! This is the only workload that reaches `march::fault_sim` and the
//! lane planes of `sram-model`; the spec pipeline never calls them.
//! Timed passes call `FaultSimulator::new` / `coverage_schedule_with`
//! and render the coverage table with `Json::render`.

use crate::gen::{self, Campaign};
use crate::measure::{self, block_median, digest, per_second, timed_blocks, timed_pass};
use crate::metrics::Tally;
use crate::stats::{median, percentile};
use crate::trace::{Tracer, PASS};
use crate::Run;
use bisd::FastScheme;
use esram_diag::{MarchSchedule, ShardPlan};
use esram_spec::Json;
use fault_models::FaultList;
use march::{CoverageReport, FaultSimulator};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The coverage table as a JSON document.
fn table(report: &CoverageReport) -> Json {
    Json::object(vec![
        ("schedule", Json::Str(report.name().to_string())),
        (
            "classes",
            Json::Array(
                report
                    .classes()
                    .map(|(class, coverage)| {
                        Json::object(vec![
                            ("class", Json::Str(class.slug().to_string())),
                            ("total", Json::Int(coverage.total as i128)),
                            ("detected", Json::Int(coverage.detected as i128)),
                            ("located", Json::Int(coverage.located as i128)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// What set-up leaves ready: the generated universe, the schedule, and
/// the reference coverage of the untraced warm-up pass.
struct Ready {
    campaign: Campaign,
    universe: FaultList,
    schedule: MarchSchedule,
    report: CoverageReport,
    digest: u64,
}

/// One untraced pass: simulate the universe, render the table.
fn pass(universe: &FaultList, schedule: &MarchSchedule, shard: ShardPlan) -> (CoverageReport, String) {
    let report =
        FaultSimulator::new(gen::campaign_config()).coverage_schedule_with(shard, schedule, universe);
    let bytes = table(&report).render();
    (report, bytes)
}

/// Runs the coverage campaign.
///
/// # Errors
///
/// Only reading the process's peak RSS can fail; per-pass failures are
/// counted instead.
pub fn run(seed: u64, budget: Duration, trace: bool, shard: ShardPlan) -> Result<Run, String> {
    let mut tally = Tally::default();
    // As in the spec workloads: the 1-worker reference pass runs before
    // any worker thread exists, and the peak RSS is read right after it.
    let schedule = FastScheme::new(10.0).schedule(gen::campaign_config().width());
    let (sequential, _) = pass(
        &gen::coverage_campaign(seed).universe(),
        &schedule,
        ShardPlan::sequential(),
    );
    let peak_rss_mb = measure::peak_rss_mb()?;
    let (ready, setup_s) = measure::repeated_setup(|| {
        let campaign = gen::coverage_campaign(seed);
        let universe = campaign.universe();
        let schedule = FastScheme::new(10.0).schedule(gen::campaign_config().width());
        let (report, bytes) = pass(&universe, &schedule, shard);
        Ok(Ready {
            campaign,
            universe,
            schedule,
            report,
            digest: digest(bytes.as_bytes()),
        })
    })?;
    tally.check(
        ready.report.total() == ready.universe.len(),
        "the coverage table accounts for every simulated fault",
    );
    tally.check(
        sequential == ready.report,
        &format!("1-worker coverage equals the {}-worker coverage", shard.threads()),
    );

    measure::settle(|| pass(&ready.universe, &ready.schedule, shard));
    let mut metrics = BTreeMap::new();
    let (passes, spans) = if trace {
        let (samples, tracer) = traced(&ready, budget, shard, &mut tally, &mut metrics);
        (samples.len(), Some(tracer))
    } else {
        let blocks = timed_blocks(budget, ready.digest, &mut tally, || {
            Ok(digest(pass(&ready.universe, &ready.schedule, shard).1.as_bytes()))
        });
        let faults = ready.universe.len() as f64;
        let cells = faults * gen::campaign_config().cells() as f64;
        let cycles = FastScheme::new(10.0)
            .plan_population(&[gen::campaign_config()])
            .cycles();
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
            block_median(&blocks, |block| per_second(faults, block)),
        );
        metrics.insert("setup_s", setup_s);
        metrics.insert("peak_rss_mb", peak_rss_mb);
        metrics.insert("sim_cycles", cycles as f64);
        metrics.insert("location_coverage", ready.report.location_coverage());
        (blocks.iter().map(Vec::len).sum(), None)
    };
    Ok(Run {
        tally,
        metrics,
        passes,
        spans,
    })
}

/// The traced run: iterations of an untraced pass, the pass decomposed
/// into simulation and render, then the same simulation call on the
/// class-split sub-universes and at one worker. Returns the untraced
/// pass times.
fn traced(
    ready: &Ready,
    budget: Duration,
    shard: ShardPlan,
    tally: &mut Tally,
    metrics: &mut BTreeMap<&'static str, f64>,
) -> (Vec<f64>, Tracer) {
    let config = gen::campaign_config();
    let mut tracer = Tracer::new();
    let started = Instant::now();
    let mut iteration = 0;
    let mut untraced = Vec::new();
    while iteration < crate::MIN_TRACED || started.elapsed() < budget {
        untraced.push(
            timed_pass(ready.digest, tally, || {
                Ok(digest(pass(&ready.universe, &ready.schedule, shard).1.as_bytes()))
            })
            .0,
        );
        tracer.set_pass(iteration);
        let (report, bytes) = tracer.span(PASS, |t| {
            let sim = FaultSimulator::new(config);
            let report = t.span("march.fault_sim", |_| {
                sim.coverage_schedule_with(shard, &ready.schedule, &ready.universe)
            });
            let bytes = t.span("spec.render", |_| table(&report).render());
            (report, bytes)
        });
        tally.check(
            digest(bytes.as_bytes()) == ready.digest,
            "traced coverage table equals the untraced one",
        );
        let sim = FaultSimulator::new(config);
        let mut split = tracer.span("march.lane_classes", |_| {
            sim.coverage_schedule_with(shard, &ready.schedule, &ready.campaign.lane)
        });
        let fallback = tracer.span("march.fallback_classes", |_| {
            sim.coverage_schedule_with(shard, &ready.schedule, &ready.campaign.fallback)
        });
        split.merge(&fallback);
        tally.check(
            split == report,
            "class-split coverage merges to the whole-universe coverage",
        );
        let sequential = tracer.span("exec.fault_sim_1w", |_| {
            sim.coverage_schedule_with(ShardPlan::sequential(), &ready.schedule, &ready.universe)
        });
        tally.check(
            sequential == report,
            "1-worker and 2-worker traced coverage agree",
        );
        iteration += 1;
    }

    tracer.insert_metrics(
        &[
            ("march.fault_sim_ms", "march.fault_sim"),
            ("march.lane_classes_ms", "march.lane_classes"),
            ("march.fallback_classes_ms", "march.fallback_classes"),
            ("spec.render_ms", "spec.render"),
        ],
        &untraced,
        metrics,
    );
    let all = ready.universe.len() as f64;
    metrics.insert(
        "exec.fault_sim_speedup_2w",
        tracer.median_ms("exec.fault_sim_1w") / tracer.median_ms("march.fault_sim"),
    );
    metrics.insert(
        "march.fallback_fault_frac",
        ready.campaign.fallback.len() as f64 / all,
    );
    metrics.insert("march.detected_frac", ready.report.detected() as f64 / all);
    metrics.insert("fault_models.injected_faults", all);
    (untraced, tracer)
}
