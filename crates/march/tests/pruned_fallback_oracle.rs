//! Stuck-open and address-decoder faults cannot ride the lane kernel,
//! but the per-fault path still prunes them to their deviation rows:
//! `{0, r − 1, r, r + 1, N − 1}` for a stuck-open cell at row `r`, the
//! corrupted address plus its target for a decoder fault. This suite
//! asserts that the pruned universe run returns exactly the outcomes of
//! the unpruned one-off oracle (`simulate_fault_schedule`, which always
//! sweeps every row), outcome for outcome:
//!
//! * every stuck-open row, at the first and last bit of the word;
//! * every decoder fault: no-access, and maps-to / also-accesses for
//!   every target including the address itself;
//! * word counts {1, 2, 3, 5, 17} and widths {1, 65};
//! * March CW + NWRTM, March C−, MATS+, DiagRSMarch M1 and a
//!   pause-based schedule, with March C− and MATS+ also under the
//!   row-parity backgrounds (checkerboard, row stripe). Only those
//!   backgrounds catch a missing sweep-boundary row: under them the
//!   word a stuck-open cell echoes depends on which row was read last.
//!
//! Both kernels route these faults through the same per-fault path, so
//! the default (lane) kernel alone is checked.

use fault_models::{FaultList, MemoryFault};
use march::{algorithms, DataBackground, FaultSimulator, MarchRunner, MarchSchedule, ShardPlan};
use sram_model::cell::CellCoord;
use sram_model::{CellFault, DecoderFault, DecoderFaultKind, MemConfig, Sram};

const WORDS: [u64; 5] = [1, 2, 3, 5, 17];
const WIDTHS: [usize; 2] = [1, 65];

/// Every schedule shape the suite sweeps at one width.
fn schedules(width: usize) -> Vec<MarchSchedule> {
    let cw = algorithms::march_cw(width);
    let mut schedules = vec![
        cw.map_last_phase(format!("{} + NWRTM", cw.name()), algorithms::with_nwrtm),
        MarchSchedule::single(algorithms::diag_rs_march_m1(), DataBackground::Solid),
        MarchSchedule::single(
            algorithms::with_retention_pauses(&algorithms::march_c_minus(), 100),
            DataBackground::Solid,
        ),
    ];
    for background in [
        DataBackground::Solid,
        DataBackground::Checkerboard,
        DataBackground::RowStripe,
    ] {
        schedules.push(MarchSchedule::single(algorithms::march_c_minus(), background));
        schedules.push(MarchSchedule::single(algorithms::mats_plus(), background));
    }
    schedules
}

/// Stuck-open cells at every row, on the word's first and last bit.
fn stuck_open_faults(config: MemConfig) -> FaultList {
    let mut bits = vec![0, config.width() - 1];
    bits.dedup();
    config
        .addresses()
        .flat_map(|address| {
            bits.iter()
                .map(move |&bit| MemoryFault::cell(CellCoord::new(address, bit), CellFault::StuckOpen))
        })
        .collect()
}

/// Every decoder fault: no-access, plus maps-to and also-accesses
/// against every target, the address itself included.
fn decoder_faults(config: MemConfig) -> FaultList {
    let mut faults = FaultList::new();
    for address in config.addresses() {
        faults.push(MemoryFault::decoder(DecoderFault::new(
            address,
            DecoderFaultKind::NoAccess,
        )));
        for target in config.addresses() {
            for kind in [
                DecoderFaultKind::MapsTo(target),
                DecoderFaultKind::AlsoAccesses(target),
            ] {
                faults.push(MemoryFault::decoder(DecoderFault::new(address, kind)));
            }
        }
    }
    faults
}

/// Asserts the pruned universe run equals the unpruned oracle, and that
/// the check is not vacuous: the golden run passes (so pruning is
/// active) and some fault is detected.
fn assert_pruned_matches_oracle(config: MemConfig, schedule: &MarchSchedule, universe: &FaultList) {
    let golden = MarchRunner::new()
        .run_schedule(&mut Sram::new(config), schedule)
        .unwrap();
    assert!(
        golden.passed(),
        "{} must pass a pristine {config:?} memory, or nothing is pruned",
        schedule.name()
    );
    let backgrounds: Vec<DataBackground> = schedule.phases().iter().map(|phase| phase.background).collect();
    let sim = FaultSimulator::new(config);
    let pruned = sim.simulate_universe_with(ShardPlan::sequential(), schedule, universe);
    assert_eq!(pruned.len(), universe.len());
    for (outcome, fault) in pruned.iter().zip(universe.iter()) {
        assert_eq!(
            *outcome,
            sim.simulate_fault_schedule(schedule, fault),
            "{fault} under {} {backgrounds:?} at {config:?}",
            schedule.name()
        );
    }
    assert!(
        pruned.iter().any(|outcome| outcome.detected),
        "{} detects nothing at {config:?}",
        schedule.name()
    );
}

/// Runs [`assert_pruned_matches_oracle`] on every geometry and schedule
/// of the suite for the universe `faults` builds.
fn check_every_geometry(faults: fn(MemConfig) -> FaultList) {
    for width in WIDTHS {
        for words in WORDS {
            let config = MemConfig::new(words, width).unwrap();
            let universe = faults(config);
            for schedule in schedules(width) {
                assert_pruned_matches_oracle(config, &schedule, &universe);
            }
        }
    }
}

#[test]
fn pruned_stuck_open_outcomes_equal_the_unpruned_oracle() {
    check_every_geometry(stuck_open_faults);
}

#[test]
fn pruned_decoder_outcomes_equal_the_unpruned_oracle() {
    check_every_geometry(decoder_faults);
}
