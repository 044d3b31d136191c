//! Diagnosis results: located faults plus cycle and wall-time accounting.

use crate::log::{DiagnosisLog, FaultSite};
use sram_model::{Address, MemoryId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The outcome of one end-to-end diagnosis run over a memory population.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisResult {
    /// Name of the scheme that produced the result.
    pub scheme: String,
    /// Every comparator mismatch observed during the run.
    pub log: DiagnosisLog,
    /// Total controller clock cycles consumed by the run.
    pub cycles: u64,
    /// Total retention-pause time in milliseconds (zero for NWRTM runs).
    pub pause_ms: f64,
    /// Number of `M1` iterations performed (1 for the proposed scheme;
    /// the defect-rate-dependent `k` for the baseline).
    pub iterations: u64,
    /// Diagnosis clock period in nanoseconds.
    pub clock_period_ns: f64,
}

impl DiagnosisResult {
    /// Total diagnosis time in nanoseconds: `cycles * t + pauses`.
    pub fn time_ns(&self) -> f64 {
        self.cycles as f64 * self.clock_period_ns + self.pause_ms * 1.0e6
    }

    /// Total diagnosis time in milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.time_ns() / 1.0e6
    }

    /// True if no fault was located anywhere in the population.
    pub fn is_clean(&self) -> bool {
        self.log.is_empty()
    }

    /// Distinct located fault sites per memory.
    pub fn sites_by_memory(&self) -> BTreeMap<MemoryId, BTreeSet<FaultSite>> {
        self.log.sites_by_memory()
    }

    /// Distinct located fault sites of one memory.
    pub fn sites(&self, memory: MemoryId) -> BTreeSet<FaultSite> {
        self.log
            .site_index()
            .memory_sites(memory)
            .iter()
            .copied()
            .collect()
    }

    /// Total number of distinct located fault sites.
    pub fn located_count(&self) -> usize {
        self.log.site_index().len()
    }

    /// Failing word addresses of one memory (the repair granularity).
    pub fn failing_addresses(&self, memory: MemoryId) -> BTreeSet<Address> {
        self.log.failing_addresses(memory)
    }

    /// Ratio of another result's diagnosis time to this one's
    /// (`other.time / self.time`); this is the reduction factor `R` of
    /// the paper when `self` is the proposed scheme and `other` the
    /// baseline.
    pub fn speedup_versus(&self, other: &DiagnosisResult) -> f64 {
        other.time_ns() / self.time_ns()
    }
}

impl fmt::Display for DiagnosisResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} faults located in {} cycles ({:.3} ms, {} iterations)",
            self.scheme,
            self.located_count(),
            self.cycles,
            self.time_ms(),
            self.iterations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::DiagnosisRecord;
    use march::DataBackground;
    use sram_model::DataWord;

    fn result_with(cycles: u64, pause_ms: f64, t: f64) -> DiagnosisResult {
        DiagnosisResult {
            scheme: "test".to_string(),
            log: DiagnosisLog::new(),
            cycles,
            pause_ms,
            iterations: 1,
            clock_period_ns: t,
        }
    }

    #[test]
    fn time_accounts_cycles_and_pauses() {
        let r = result_with(1_000, 0.0, 10.0);
        assert_eq!(r.time_ns(), 10_000.0);
        assert_eq!(r.time_ms(), 0.01);
        let with_pause = result_with(1_000, 200.0, 10.0);
        assert!((with_pause.time_ms() - 200.01).abs() < 1e-9);
    }

    #[test]
    fn speedup_is_the_ratio_of_times() {
        let fast = result_with(1_000, 0.0, 10.0);
        let slow = result_with(84_000, 0.0, 10.0);
        assert!((fast.speedup_versus(&slow) - 84.0).abs() < 1e-12);
    }

    #[test]
    fn located_sites_flow_through_from_the_log() {
        let mut log = DiagnosisLog::new();
        log.push(DiagnosisRecord {
            memory: MemoryId::new(1),
            address: Address::new(7),
            background: DataBackground::Solid,
            element: "M2".to_string(),
            expected: DataWord::zero(4),
            observed: DataWord::from_u64(0b1000, 4),
            failing_bits: vec![3].into(),
        });
        let result = DiagnosisResult {
            scheme: "demo".to_string(),
            log,
            cycles: 10,
            pause_ms: 0.0,
            iterations: 2,
            clock_period_ns: 10.0,
        };
        assert!(!result.is_clean());
        assert_eq!(result.located_count(), 1);
        assert_eq!(result.sites(MemoryId::new(1)).len(), 1);
        assert!(result.sites(MemoryId::new(0)).is_empty());
        assert_eq!(
            result.failing_addresses(MemoryId::new(1)),
            BTreeSet::from([Address::new(7)])
        );
        assert!(result.to_string().contains("demo"));
        assert!(result.to_string().contains("2 iterations"));
    }
}
