//! P1: fault-simulation throughput — the sharded + pruned simulator
//! against the two frozen previous architectures.
//!
//! Comparator roles (each perf PR freezes its predecessor's hot path
//! here so the ledger keeps measuring like against like):
//!
//! * `*_reference_per_cell` — the seed architecture: dense per-cell
//!   memory, fresh `Sram` and per-operation pattern assembly per fault.
//! * `*_packed_batched` — the PR 2 architecture, reproduced via public
//!   APIs: one reusable packed memory (`reset` + inject per fault) and
//!   a full schedule sweep per fault with per-run pattern builds —
//!   sequential, unpruned.
//! * `*_sharded` — the current library path
//!   ([`FaultSimulator::simulate_universe`]): shared `SchedulePatterns`,
//!   golden-run-gated single-row pruning and `std::thread::scope`
//!   sharding under the executor (pinned to [`ShardPlan::sequential`]).
//!
//! All three paths must agree on the number of detections; the printed
//! table reports the speedups. These entries feed the CI perf gate
//! (`perf_gate`), which fails a release build when a fresh run regresses
//! more than 2x against the committed `BENCH_results.json`. When
//! refreshing that committed ledger, the `*_sharded` entries run on the
//! sequential plan, so the baselines do not encode the recording
//! machine's core count.

use bench::print_section;
use criterion::{criterion_group, criterion_main, Criterion};
use fault_models::FaultList;
use march::{algorithms, AddressOrder, FaultSimulator, MarchOp, MarchRunner, MarchSchedule, ShardPlan};
use sram_model::{Address, MemConfig, ReferenceSram, Sram};
use std::hint::black_box;
use std::time::Instant;
use testutil::{stuck_at_population, SEEDS};

/// S1 scaled-down geometry (as used by the simulated defect-rate sweep).
fn s1_config() -> MemConfig {
    MemConfig::new(64, 16).expect("valid geometry")
}

/// The paper's benchmark geometry.
fn benchmark_config() -> MemConfig {
    testutil::benchmark_geometry()
}

/// The current library path: sharded + pruned batched simulation, on
/// the sequential plan.
fn simulate_sharded(sim: &FaultSimulator, schedule: &MarchSchedule, universe: &FaultList) -> usize {
    sim.simulate_universe_with(ShardPlan::sequential(), schedule, universe)
        .iter()
        .filter(|outcome| outcome.detected)
        .count()
}

/// The PR 2 architecture, frozen: one reusable packed memory, full
/// (unpruned, sequential) schedule sweep per fault, patterns rebuilt
/// per run — exactly what `simulate_universe` did before sharding and
/// fault-locality pruning landed.
fn simulate_packed_batched_pr2(config: MemConfig, schedule: &MarchSchedule, universe: &FaultList) -> usize {
    let runner = MarchRunner::new();
    let mut sram = Sram::new(config);
    let mut detected = 0usize;
    for fault in universe.iter() {
        sram.reset();
        fault.inject_into(&mut sram).expect("fault fits the geometry");
        let run = runner.run_schedule(&mut sram, schedule).expect("programme fits");
        if !run.passed() {
            detected += 1;
        }
    }
    detected
}

/// The seed architecture, frozen: dense per-cell model, a fresh memory
/// per fault, and — as the seed March engine did — a `DataWord` pattern
/// built bit by bit for every single operation.
fn simulate_reference(config: MemConfig, schedule: &MarchSchedule, universe: &FaultList) -> usize {
    let mut detected = 0usize;
    for fault in universe.iter() {
        let mut sram = ReferenceSram::new(config);
        fault.inject_into(&mut sram).expect("fault fits the geometry");
        if !run_schedule_unbatched(&mut sram, schedule) {
            detected += 1;
        }
    }
    detected
}

/// Seed-era March execution: no pattern cache, one fresh pattern word
/// per operation. Returns `true` if the run passed (no mismatch).
fn run_schedule_unbatched(sram: &mut ReferenceSram, schedule: &MarchSchedule) -> bool {
    let config = sram.config();
    let width = config.width();
    let mut passed = true;
    for phase in schedule.phases() {
        let background = phase.background;
        for element in phase.test.elements() {
            for op in &element.ops {
                if let MarchOp::Pause(ms) = op {
                    sram.elapse_retention(f64::from(*ms));
                }
            }
            let addresses: Vec<Address> = match element.order {
                AddressOrder::Ascending | AddressOrder::Either => config.addresses().collect(),
                AddressOrder::Descending => config.addresses_descending().collect(),
            };
            for address in addresses {
                let row = address.index();
                for op in &element.ops {
                    match op {
                        MarchOp::Pause(_) => {}
                        MarchOp::Write(value) => {
                            let data = background.pattern_for(*value, width, row);
                            sram.write(address, &data).expect("programme fits");
                        }
                        MarchOp::NwrcWrite(value) => {
                            let data = background.pattern_for(*value, width, row);
                            sram.write_nwrc(address, &data).expect("programme fits");
                        }
                        MarchOp::Read(value) => {
                            let expected = background.pattern_for(*value, width, row);
                            let observed = sram.read(address).expect("programme fits");
                            if !expected.mismatches(&observed).is_empty() {
                                passed = false;
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    passed
}

/// Wall-clock of one run (median of three), for the printed table.
fn time_ms(mut run: impl FnMut() -> usize) -> (usize, f64) {
    let mut times = Vec::new();
    let mut result = 0;
    for _ in 0..3 {
        let start = Instant::now();
        result = black_box(run());
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(f64::total_cmp);
    (result, times[1])
}

fn print_throughput_table() {
    print_section("P1: fault-simulation throughput — sharded+pruned vs frozen predecessors");
    println!("shard plan: {}", ShardPlan::sequential());

    let s1 = s1_config();
    let s1_universe = stuck_at_population(s1, 64, SEEDS[0]);
    let s1_schedule = algorithms::march_cw(s1.width());
    let s1_sim = FaultSimulator::new(s1);
    let (sharded_detected, sharded_ms) = time_ms(|| simulate_sharded(&s1_sim, &s1_schedule, &s1_universe));
    let (batched_detected, batched_ms) =
        time_ms(|| simulate_packed_batched_pr2(s1, &s1_schedule, &s1_universe));
    let (reference_detected, reference_ms) = time_ms(|| simulate_reference(s1, &s1_schedule, &s1_universe));
    assert_eq!(
        sharded_detected, batched_detected,
        "sharded+pruned and PR 2 batched simulations must agree on detections"
    );
    assert_eq!(
        batched_detected, reference_detected,
        "packed and reference simulations must agree on detections"
    );
    println!(
        "S1 scaled population ({s1}, {} faults, March CW): sharded {sharded_ms:.3} ms, \
         PR2 batched {batched_ms:.2} ms ({:.1}x), seed reference {reference_ms:.2} ms ({:.1}x)",
        s1_universe.len(),
        batched_ms / sharded_ms,
        reference_ms / sharded_ms
    );

    let bench = benchmark_config();
    let bench_universe = stuck_at_population(bench, 64, SEEDS[1]);
    let bench_schedule = algorithms::march_cw(bench.width());
    let bench_sim = FaultSimulator::new(bench);
    let (bench_sharded_detected, bench_sharded_ms) =
        time_ms(|| simulate_sharded(&bench_sim, &bench_schedule, &bench_universe));
    let (bench_batched_detected, bench_batched_ms) =
        time_ms(|| simulate_packed_batched_pr2(bench, &bench_schedule, &bench_universe));
    assert_eq!(bench_sharded_detected, bench_batched_detected);
    println!(
        "benchmark scale ({bench}, {} faults, March CW): sharded {bench_sharded_ms:.3} ms \
         ({:.0} fault-programmes/s), PR2 batched {bench_batched_ms:.2} ms, speedup {:.1}x \
         (acceptance bar >= 2x)",
        bench_universe.len(),
        bench_universe.len() as f64 / (bench_sharded_ms / 1e3),
        bench_batched_ms / bench_sharded_ms
    );
}

fn bench_throughput(c: &mut Criterion) {
    print_throughput_table();

    let mut group = c.benchmark_group("fault_sim_throughput");
    group.sample_size(10);

    let s1 = s1_config();
    let s1_universe = stuck_at_population(s1, 64, SEEDS[0]);
    let s1_schedule = algorithms::march_cw(s1.width());
    let s1_sim = FaultSimulator::new(s1);
    group.bench_function("s1_sharded", |b| {
        b.iter(|| black_box(simulate_sharded(&s1_sim, &s1_schedule, &s1_universe)))
    });
    group.bench_function("s1_packed_batched", |b| {
        b.iter(|| black_box(simulate_packed_batched_pr2(s1, &s1_schedule, &s1_universe)))
    });
    group.bench_function("s1_reference_per_cell", |b| {
        b.iter(|| black_box(simulate_reference(s1, &s1_schedule, &s1_universe)))
    });

    let bench_geometry = benchmark_config();
    let bench_universe = stuck_at_population(bench_geometry, 64, SEEDS[1]);
    let bench_schedule = algorithms::march_cw(bench_geometry.width());
    let bench_sim = FaultSimulator::new(bench_geometry);
    group.bench_function("benchmark_scale_sharded", |b| {
        b.iter(|| black_box(simulate_sharded(&bench_sim, &bench_schedule, &bench_universe)))
    });
    group.bench_function("benchmark_scale_packed_batched", |b| {
        b.iter(|| {
            black_box(simulate_packed_batched_pr2(
                bench_geometry,
                &bench_schedule,
                &bench_universe,
            ))
        })
    });
    // The seed-architecture path at benchmark scale is measured on a
    // reduced fault list: per-cell simulation of the full list would
    // dominate the whole bench suite's runtime (which is the point of
    // the refactors).
    let reduced: FaultList = bench_universe.iter().copied().take(8).collect();
    group.bench_function("benchmark_scale_reference_per_cell_8faults", |b| {
        b.iter(|| black_box(simulate_reference(bench_geometry, &bench_schedule, &reduced)))
    });
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
