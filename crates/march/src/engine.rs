//! Word-oriented March execution engine.
//!
//! The engine applies a [`MarchTest`] (or a multi-background
//! [`MarchSchedule`]) to one behavioural memory and reports every
//! mismatch between expected and observed read data. It is the
//! functional reference the BISD schemes are checked against: whatever
//! fault information a scheme extracts through its serial access fabric
//! must agree with what a direct word-wide run observes.

use crate::background::{BackgroundPatterns, DataBackground};
use crate::ops::{AddressOrder, MarchOp, MarchTest};
use crate::schedule::{MarchSchedule, SchedulePatterns};
use sram_model::{Address, DataWord, FailingBits, MemError, MemoryPort};

/// One observed read mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord {
    /// Index of the schedule phase (0 for single-test runs).
    pub phase: usize,
    /// Index of the March element within its test.
    pub element: usize,
    /// Index of the operation within its element.
    pub op: usize,
    /// Address at which the mismatch was observed.
    pub address: Address,
    /// Expected read data.
    pub expected: DataWord,
    /// Observed read data.
    pub observed: DataWord,
    /// Bit positions that mismatch.
    pub failing_bits: FailingBits,
    /// Data background active when the mismatch was observed.
    pub background: DataBackground,
}

/// Result of running a March test or schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Every read mismatch, in detection order.
    pub failures: Vec<FailureRecord>,
    /// Number of memory operations performed (reads + writes + NWRCs).
    pub operations: u64,
    /// Total retention-pause time in milliseconds.
    pub pause_ms: f64,
}

impl RunOutcome {
    /// True if no mismatch was observed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Distinct failing word addresses, in first-detection order.
    pub fn failing_addresses(&self) -> Vec<Address> {
        let mut seen = Vec::new();
        for failure in &self.failures {
            if !seen.contains(&failure.address) {
                seen.push(failure.address);
            }
        }
        seen
    }

    /// Distinct failing (address, bit) sites, in first-detection order.
    pub fn failing_cells(&self) -> Vec<(Address, usize)> {
        let mut seen = Vec::new();
        for failure in &self.failures {
            for &bit in &failure.failing_bits {
                let site = (failure.address, bit);
                if !seen.contains(&site) {
                    seen.push(site);
                }
            }
        }
        seen
    }

    /// Merges another outcome into this one (used when a scheme runs
    /// several phases and accumulates results).
    pub fn merge(&mut self, other: RunOutcome) {
        self.failures.extend(other.failures);
        self.operations += other.operations;
        self.pause_ms += other.pause_ms;
    }
}

/// Executes March tests against a behavioural memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct MarchRunner {
    _private: (),
}

impl MarchRunner {
    /// Creates a runner.
    pub fn new() -> Self {
        MarchRunner { _private: () }
    }

    /// Runs a single March test under one data background.
    ///
    /// Retention pauses inside an element are applied once per element
    /// (before its address sweep), matching the classical `del` notation.
    ///
    /// The memory may be any [`MemoryPort`] — the packed `Sram` or the
    /// dense reference model — which is how the dense-vs-overlay
    /// equivalence tests drive both with identical programmes.
    ///
    /// # Errors
    ///
    /// Propagates memory-model validation errors, which cannot occur when
    /// the test is run against a memory of the geometry it was built for.
    pub fn run_test<M: MemoryPort>(
        &self,
        sram: &mut M,
        test: &MarchTest,
        background: DataBackground,
    ) -> Result<RunOutcome, MemError> {
        // Patterns depend only on (value, row parity); precompute them
        // once so the per-operation loop is allocation-free.
        let patterns = background.patterns(sram.config().width());
        self.run_test_phase(sram, test, background, 0, &patterns, None)
    }

    /// Runs a multi-background schedule phase by phase.
    ///
    /// # Errors
    ///
    /// Propagates memory-model validation errors.
    pub fn run_schedule<M: MemoryPort>(
        &self,
        sram: &mut M,
        schedule: &MarchSchedule,
    ) -> Result<RunOutcome, MemError> {
        let patterns = SchedulePatterns::new(schedule, sram.config().width());
        self.run_schedule_with(sram, schedule, &patterns)
    }

    /// Runs a schedule with pattern words precomputed by the caller
    /// (see [`SchedulePatterns`]) — the batched entry point: one
    /// pattern build serves a whole fault universe.
    ///
    /// # Errors
    ///
    /// Propagates memory-model validation errors.
    pub fn run_schedule_with<M: MemoryPort>(
        &self,
        sram: &mut M,
        schedule: &MarchSchedule,
        patterns: &SchedulePatterns,
    ) -> Result<RunOutcome, MemError> {
        self.run_schedule_inner(sram, schedule, patterns, None)
    }

    /// Runs a schedule visiting only `rows` (ascending-sorted, distinct)
    /// in every element sweep, *order-preserving*: ascending elements
    /// visit the rows in ascending order, descending elements in
    /// descending order, so the visited rows experience the identical
    /// relative operation sequence they would in a whole-memory sweep.
    ///
    /// Element structure, phase order and retention pauses are executed
    /// exactly as in a full run; only the address sweeps are restricted.
    /// This is the engine half of the simulator's fault-locality
    /// pruning: for a fault whose observable behaviour is confined to
    /// `rows` (see `FaultSimulator::fault_cost`), on a memory whose
    /// fault-free run passes, the restricted run observes exactly the
    /// full run's failures.
    ///
    /// The returned outcome's `operations` count covers only the visited
    /// rows; callers accounting for a whole memory substitute the
    /// closed form `schedule.operation_count(words)`.
    ///
    /// # Errors
    ///
    /// Propagates memory-model validation errors.
    pub fn run_schedule_rows<M: MemoryPort>(
        &self,
        sram: &mut M,
        schedule: &MarchSchedule,
        patterns: &SchedulePatterns,
        rows: &[Address],
    ) -> Result<RunOutcome, MemError> {
        debug_assert!(
            rows.windows(2).all(|pair| pair[0] < pair[1]),
            "restricted rows must be ascending and distinct"
        );
        self.run_schedule_inner(sram, schedule, patterns, Some(rows))
    }

    fn run_schedule_inner<M: MemoryPort>(
        &self,
        sram: &mut M,
        schedule: &MarchSchedule,
        patterns: &SchedulePatterns,
        restrict: Option<&[Address]>,
    ) -> Result<RunOutcome, MemError> {
        let mut outcome = RunOutcome {
            failures: Vec::new(),
            operations: 0,
            pause_ms: 0.0,
        };
        for (phase_index, phase) in schedule.phases().iter().enumerate() {
            let phase_outcome = self.run_test_phase(
                sram,
                &phase.test,
                phase.background,
                phase_index,
                patterns.phase(phase_index),
                restrict,
            )?;
            outcome.merge(phase_outcome);
        }
        Ok(outcome)
    }

    fn run_test_phase<M: MemoryPort>(
        &self,
        sram: &mut M,
        test: &MarchTest,
        background: DataBackground,
        phase: usize,
        patterns: &BackgroundPatterns,
        restrict: Option<&[Address]>,
    ) -> Result<RunOutcome, MemError> {
        let config = sram.config();
        let mut failures = Vec::new();
        let mut operations: u64 = 0;
        let mut pause_ms = 0.0;

        for (element_index, element) in test.elements().iter().enumerate() {
            // Pauses apply once per element, before its address sweep.
            for op in &element.ops {
                if let MarchOp::Pause(ms) = op {
                    sram.elapse_retention(f64::from(*ms));
                    pause_ms += f64::from(*ms);
                }
            }

            let addresses: Vec<Address> = match (restrict, element.order) {
                (Some(rows), AddressOrder::Ascending | AddressOrder::Either) => rows.to_vec(),
                (Some(rows), AddressOrder::Descending) => rows.iter().rev().copied().collect(),
                (None, AddressOrder::Ascending | AddressOrder::Either) => config.addresses().collect(),
                (None, AddressOrder::Descending) => config.addresses_descending().collect(),
            };

            for address in addresses {
                let row = address.index();
                for (op_index, op) in element.ops.iter().enumerate() {
                    match op {
                        MarchOp::Pause(_) => {}
                        MarchOp::Write(value) => {
                            sram.write(address, patterns.word(*value, row))?;
                            operations += 1;
                        }
                        MarchOp::NwrcWrite(value) => {
                            sram.write_nwrc(address, patterns.word(*value, row))?;
                            operations += 1;
                        }
                        MarchOp::Read(value) => {
                            let expected = patterns.word(*value, row);
                            operations += 1;
                            if let Some(observed) = sram.read_expect(address, expected)? {
                                failures.push(FailureRecord {
                                    phase,
                                    element: element_index,
                                    op: op_index,
                                    address,
                                    failing_bits: expected.mismatches(&observed),
                                    expected: expected.clone(),
                                    observed,
                                    background,
                                });
                            }
                        }
                    }
                }
            }
        }

        Ok(RunOutcome {
            failures,
            operations,
            pause_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms;
    use fault_models::MemoryFault;
    use sram_model::cell::CellCoord;
    use sram_model::{MemConfig, Sram};

    fn memory() -> Sram {
        Sram::new(MemConfig::new(16, 4).unwrap())
    }

    #[test]
    fn fault_free_memory_passes_march_c_minus() {
        let mut sram = memory();
        let outcome = MarchRunner::new()
            .run_test(&mut sram, &algorithms::march_c_minus(), DataBackground::Solid)
            .unwrap();
        assert!(outcome.passed());
        assert_eq!(outcome.operations, 10 * 16);
        assert_eq!(outcome.pause_ms, 0.0);
    }

    #[test]
    fn stuck_at_fault_is_detected_and_located() {
        let mut sram = memory();
        let site = CellCoord::new(Address::new(5), 2);
        MemoryFault::stuck_at_1(site).inject_into(&mut sram).unwrap();
        let outcome = MarchRunner::new()
            .run_test(&mut sram, &algorithms::march_c_minus(), DataBackground::Solid)
            .unwrap();
        assert!(!outcome.passed());
        assert_eq!(outcome.failing_addresses(), vec![Address::new(5)]);
        assert_eq!(outcome.failing_cells(), vec![(Address::new(5), 2)]);
        // The first detection happens in an r0 operation (the cell reads 1).
        let first = &outcome.failures[0];
        assert!(!first.expected.bit(2));
        assert!(first.observed.bit(2));
    }

    #[test]
    fn transition_fault_detected_by_march_c_minus_but_not_necessarily_by_mats_plus() {
        let mut sram = memory();
        MemoryFault::transition_up(CellCoord::new(Address::new(3), 0))
            .inject_into(&mut sram)
            .unwrap();
        let outcome = MarchRunner::new()
            .run_test(&mut sram, &algorithms::march_c_minus(), DataBackground::Solid)
            .unwrap();
        assert!(!outcome.passed());
    }

    #[test]
    fn drf_not_detected_by_plain_march_c_minus() {
        let mut sram = memory();
        MemoryFault::data_retention_a(CellCoord::new(Address::new(7), 1))
            .inject_into(&mut sram)
            .unwrap();
        let outcome = MarchRunner::new()
            .run_test(&mut sram, &algorithms::march_c_minus(), DataBackground::Solid)
            .unwrap();
        assert!(
            outcome.passed(),
            "a DRF must escape a March test without NWRTM or pauses"
        );
    }

    #[test]
    fn drf_detected_by_nwrtm_merged_march_c_minus_without_pauses() {
        let mut sram = memory();
        let site = CellCoord::new(Address::new(7), 1);
        MemoryFault::data_retention_a(site)
            .inject_into(&mut sram)
            .unwrap();
        let test = algorithms::with_nwrtm(&algorithms::march_c_minus());
        let outcome = MarchRunner::new()
            .run_test(&mut sram, &test, DataBackground::Solid)
            .unwrap();
        assert!(!outcome.passed());
        assert_eq!(outcome.failing_cells(), vec![(Address::new(7), 1)]);
        assert_eq!(
            outcome.pause_ms, 0.0,
            "NWRTM must not require any retention pause"
        );
    }

    #[test]
    fn drf_on_node_b_detected_by_nwrtm_as_well() {
        let mut sram = memory();
        MemoryFault::data_retention_b(CellCoord::new(Address::new(2), 3))
            .inject_into(&mut sram)
            .unwrap();
        let test = algorithms::with_nwrtm(&algorithms::march_c_minus());
        let outcome = MarchRunner::new()
            .run_test(&mut sram, &test, DataBackground::Solid)
            .unwrap();
        assert!(!outcome.passed());
        assert_eq!(outcome.failing_cells(), vec![(Address::new(2), 3)]);
    }

    #[test]
    fn drf_detected_by_pause_based_test_at_the_cost_of_200ms() {
        let mut sram = memory();
        MemoryFault::data_retention_a(CellCoord::new(Address::new(4), 0))
            .inject_into(&mut sram)
            .unwrap();
        let test = algorithms::with_retention_pauses(&algorithms::march_c_minus(), 100);
        let outcome = MarchRunner::new()
            .run_test(&mut sram, &test, DataBackground::Solid)
            .unwrap();
        assert!(!outcome.passed());
        assert_eq!(outcome.pause_ms, 200.0);
    }

    #[test]
    fn intra_word_coupling_needs_the_march_cw_background_phases() {
        // Victim bit 0 coupled to aggressor bit 1 of the same word: under
        // the solid background both bits always carry the same value, so a
        // CFst that forces the victim to the aggressor's own value is never
        // observable; March CW's binary background drives the two bits to
        // opposite values and exposes it.
        let config = MemConfig::new(8, 4).unwrap();
        let mut plain = Sram::new(config);
        let victim = CellCoord::new(Address::new(3), 0);
        let aggressor = CellCoord::new(Address::new(3), 1);
        let fault = MemoryFault::coupling_state(victim, aggressor, true, true);
        fault.inject_into(&mut plain).unwrap();
        let runner = MarchRunner::new();
        let plain_outcome = runner
            .run_test(&mut plain, &algorithms::march_c_minus(), DataBackground::Solid)
            .unwrap();
        assert!(
            plain_outcome.passed(),
            "solid background cannot sensitise this intra-word CFst"
        );

        let mut cw = Sram::new(config);
        fault.inject_into(&mut cw).unwrap();
        let cw_outcome = runner.run_schedule(&mut cw, &algorithms::march_cw(4)).unwrap();
        assert!(
            !cw_outcome.passed(),
            "March CW background phases must catch the intra-word CFst"
        );
    }

    #[test]
    fn schedule_outcome_accumulates_operations_across_phases() {
        let mut sram = memory();
        let schedule = algorithms::march_cw(4);
        let outcome = MarchRunner::new().run_schedule(&mut sram, &schedule).unwrap();
        assert!(outcome.passed());
        assert_eq!(outcome.operations, schedule.operation_count(16));
    }

    #[test]
    fn merge_combines_failures_and_counters() {
        let mut a = RunOutcome {
            failures: Vec::new(),
            operations: 10,
            pause_ms: 1.0,
        };
        let b = RunOutcome {
            failures: Vec::new(),
            operations: 5,
            pause_ms: 2.0,
        };
        a.merge(b);
        assert_eq!(a.operations, 15);
        assert_eq!(a.pause_ms, 3.0);
    }
}
