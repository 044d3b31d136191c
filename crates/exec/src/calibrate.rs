//! The executor's cost table: what one work item of each subsystem is
//! expected to cost, so [`crate::plan::cost_ranges`] and
//! [`crate::plan::steal_schedule`] balance commensurable numbers.
//!
//! Every call site measures its items in its own physical unit (rows
//! swept, I/O bits, cells). Those units are not comparable across
//! subsystems — once heterogeneous jobs are flattened into one executor
//! run (fleet batching), the scales must agree or the balancer starves
//! one subsystem to overfeed another. [`CostCalibration::MEASURED`]
//! maps each [`CostDomain`] to an affine model
//! `cost(units) = fixed + unit · units`, in picoseconds.
//!
//! The table is a checked-in constant. Its weights were derived once
//! from five rows of the committed `BENCH_results.json` ledger (mean
//! times on the 2-core benchmark host; the benchmark population is 512
//! memories of 512 words × 100 bits):
//!
//! | weight | ledger row | formula |
//! |---|---|---|
//! | `sim.unit` | `fault_sim_heterogeneous/whole_universe_sequential` (24 900 421 ns) | mean / (360 + 40 · 512) row units |
//! | `sim.fixed` | `fault_sim_throughput/benchmark_scale_sharded` (405 669 ns) | mean / 256 faults − `sim.unit` |
//! | `diag.unit` | `interface_cycles/psc_serialize_100_bits` (917 ns) | mean / 100 bits |
//! | `diag.fixed` | `time_models/fast_scheme_diagnose_512mem_sequential` (3 962 183 ns) | mean / 512 memories − 100 · `diag.unit` |
//! | `build.unit` | `time_models/soc_build_512mem_sequential` (1 728 941 ns) | mean / (512 · 512 · 100) cells |
//!
//! `build.fixed` is 0: construction is cell-dominated. Regenerating the
//! ledger does **not** move the table; recalibrating is a deliberate
//! edit of the constant below, reviewed like any other source change.
//! The means quoted above are the ones the weights were derived from.
//! The `whole_universe_sequential` row has since been re-recorded: its
//! stuck-open and decoder faults now sweep 1–5 rows instead of 512, so
//! its formula no longer describes the row and `sim.unit` awaits such a
//! recalibration.
//!
//! The table influences **shard boundaries only, never results**: the
//! executors guarantee byte-identical output at any cost model (the
//! cost closure cannot touch the work closure's inputs), so a wrong
//! weight costs wall-clock time, not correctness. The determinism
//! suites exercise exactly this freedom by sweeping strategies and
//! worker counts over fixed inputs.

/// Which subsystem a work item belongs to, i.e. which row of the cost
/// table prices it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CostDomain {
    /// March fault simulation; one unit = one row swept (the fault
    /// simulator's pruned-sweep row count).
    FaultSim,
    /// Population diagnosis; one unit = one bit of a member's I/O
    /// width (serial-interface delivery dominates per-bit work).
    Diagnosis,
    /// SoC population construction; one unit = one memory cell.
    SocBuild,
}

/// Affine per-item cost model for one domain: `fixed + unit · units`,
/// both in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainWeights {
    /// Cost charged per work item regardless of size (setup, golden
    /// reset, per-memory bookkeeping).
    pub fixed: u64,
    /// Cost charged per unit of the domain's physical measure.
    pub unit: u64,
}

/// The cost table: a [`DomainWeights`] row per [`CostDomain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostCalibration {
    /// Fault-simulation weights (units: rows swept).
    pub sim: DomainWeights,
    /// Diagnosis weights (units: I/O-width bits).
    pub diag: DomainWeights,
    /// SoC-build weights (units: cells).
    pub build: DomainWeights,
}

impl CostCalibration {
    /// The checked-in table every call site prices its items with (see
    /// the module docs for its provenance).
    pub const MEASURED: CostCalibration = CostCalibration {
        sim: DomainWeights {
            fixed: 389_807,
            unit: 1_194_837,
        },
        diag: DomainWeights {
            fixed: 6_821_638,
            unit: 9_170,
        },
        build: DomainWeights { fixed: 0, unit: 65 },
    };

    /// Prices an item of `units` size in the given domain.
    pub fn cost(&self, domain: CostDomain, units: u64) -> u64 {
        let weights = match domain {
            CostDomain::FaultSim => self.sim,
            CostDomain::Diagnosis => self.diag,
            CostDomain::SocBuild => self.build,
        };
        weights.fixed.saturating_add(weights.unit.saturating_mul(units))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_weights_parse_from_the_committed_ledger() {
        let table = CostCalibration::MEASURED;
        for weights in [table.sim, table.diag, table.build] {
            assert!(weights.unit > 0, "{weights:?} unit weight");
        }
        // The per-memory fixed cost dominating the per-bit cost is the
        // point of measuring: a 100-bit memory is nowhere near 100×
        // cheaper than nothing.
        assert!(table.diag.fixed > table.diag.unit * 100);
        // A full-sweep 512-word fault must still dwarf a pruned one.
        let pruned = table.cost(CostDomain::FaultSim, 1);
        let full = table.cost(CostDomain::FaultSim, 512);
        assert!(full > pruned * 20);
    }

    #[test]
    fn measured_table_matches_its_documented_derivation() {
        // The five ledger means and formulas from the module docs.
        let sim_unit = 24_900_421_000 / (360 + 40 * 512);
        let diag_unit = 917_000 / 100;
        let derived = CostCalibration {
            sim: DomainWeights {
                fixed: 405_669_000 / 256 - sim_unit,
                unit: sim_unit,
            },
            diag: DomainWeights {
                fixed: 3_962_183_000 / 512 - 100 * diag_unit,
                unit: diag_unit,
            },
            build: DomainWeights {
                fixed: 0,
                unit: 1_728_941_000 / (512 * 512 * 100),
            },
        };
        assert_eq!(derived, CostCalibration::MEASURED);
    }
}
