//! Scheme-level coverage evaluation (Sec. 4.1).
//!
//! Unlike the March-level fault simulation in the [`march`] crate, this
//! module measures coverage of a *complete diagnosis scheme* — i.e. what
//! the BISD controller actually locates through its serial access
//! fabric — by diagnosing a single-memory population with exactly one
//! fault injected at a time.

use bisd::{DiagnosisScheme, FaultSite, MemoryUnderDiagnosis};
use fault_models::{FaultList, MemoryFault};
use march::CoverageReport;
use sram_model::{MemConfig, MemoryId};

/// Measures detection and location coverage of `scheme` over a fault
/// universe, one fault instance at a time.
///
/// # Panics
///
/// Panics if a fault in the universe does not fit the given geometry or
/// the scheme fails on a valid population (both indicate programming
/// errors rather than recoverable conditions).
pub fn scheme_coverage<S: DiagnosisScheme>(
    scheme: &S,
    config: MemConfig,
    universe: &FaultList,
) -> CoverageReport {
    let mut report = CoverageReport::new(scheme.name());
    for fault in universe.iter() {
        let mut population = vec![MemoryUnderDiagnosis::with_faults(
            MemoryId::new(0),
            config,
            std::iter::once(*fault).collect(),
        )
        .expect("fault universe must match the memory geometry")];
        let result = scheme
            .diagnose(&mut population)
            .expect("diagnosis of a valid population");
        let detected = !result.is_clean();
        let located = detected && locates(fault, &result);
        report.record(fault.class(), detected, located);
    }
    report
}

fn locates(fault: &MemoryFault, result: &bisd::DiagnosisResult) -> bool {
    let memory = MemoryId::new(0);
    let index = result.log.site_index();
    match fault {
        MemoryFault::Cell { coord, .. } => index
            .memory_sites(memory)
            .binary_search(&FaultSite::new(memory, coord.address, coord.bit))
            .is_ok(),
        MemoryFault::Decoder(decoder_fault) => index.has_failing_address(memory, decoder_fault.address),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisd::{DrfMode, FastScheme, HuangScheme};
    use fault_models::{FaultClass, FaultUniverse};

    fn config() -> MemConfig {
        MemConfig::new(8, 4).unwrap()
    }

    #[test]
    fn fast_scheme_fully_covers_stuck_at_faults() {
        let report = scheme_coverage(
            &FastScheme::new(10.0),
            config(),
            &FaultUniverse::new(config()).stuck_at(),
        );
        assert_eq!(report.detection_coverage(), 1.0);
        assert_eq!(report.location_coverage(), 1.0);
    }

    #[test]
    fn fast_scheme_covers_drf_only_with_nwrtm() {
        let universe = FaultUniverse::new(config()).data_retention();
        let with = scheme_coverage(&FastScheme::new(10.0), config(), &universe);
        assert_eq!(with.detection_coverage(), 1.0);
        assert_eq!(with.location_coverage(), 1.0);
        let without = scheme_coverage(
            &FastScheme::new(10.0).with_drf_mode(DrfMode::None),
            config(),
            &universe,
        );
        assert_eq!(without.detection_coverage(), 0.0);
    }

    #[test]
    fn baseline_scheme_misses_drf_but_covers_stuck_at() {
        let saf = scheme_coverage(
            &HuangScheme::new(10.0),
            config(),
            &FaultUniverse::new(config()).stuck_at(),
        );
        assert_eq!(saf.location_coverage(), 1.0);
        let drf = scheme_coverage(
            &HuangScheme::new(10.0),
            config(),
            &FaultUniverse::new(config()).data_retention(),
        );
        assert_eq!(drf.detection_coverage(), 0.0);
        assert_eq!(drf.class(FaultClass::DataRetention).unwrap().detected, 0);
    }

    #[test]
    fn proposed_coverage_is_a_superset_of_the_baseline_coverage() {
        // Sec. 4.1: same coverage on the classical classes, plus DRFs.
        let universe = {
            let u = FaultUniverse::new(config());
            let mut list = u.stuck_at();
            list.extend(u.transition());
            list.extend(u.data_retention());
            list
        };
        let baseline = scheme_coverage(&HuangScheme::new(10.0), config(), &universe);
        let proposed = scheme_coverage(&FastScheme::new(10.0), config(), &universe);
        assert!(proposed.detection_coverage() > baseline.detection_coverage());
        for class in [FaultClass::StuckAt, FaultClass::Transition] {
            assert!(
                proposed.class(class).unwrap().location() >= baseline.class(class).unwrap().location(),
                "class {class} lost coverage"
            );
        }
    }
}
