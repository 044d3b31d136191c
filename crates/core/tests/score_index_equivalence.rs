//! The sorted [`SiteIndex`] scorer must agree exactly with the
//! per-memory scorer it replaced.
//!
//! The oracle below is a test-local copy of the original algorithm: it
//! rebuilds the whole per-memory site map for every memory, scans the
//! located sites linearly for each injected cell fault and rescans the
//! log for each decoder fault, so it costs O(memories × log records).
//! The indexed path must reproduce every score field, and every
//! site/address query, on random multi-memory populations covering:
//!
//! * mixed geometries (widths straddling the 64-bit limb);
//! * the four baseline classes, coupling and DRFs, drawn by the seeded
//!   injector, plus decoder faults that fail one word (no-access) and
//!   two (maps-to, also-accesses);
//! * pristine members, and memory ids the log never mentions;
//! * `DrfMode::None`, so some injected DRFs stay unlocated;
//! * both the proposed scheme and the Huang baseline.

use bisd::{DiagnosisLog, DiagnosisRecord, FaultSite, SiteIndex};
use esram_diag::{
    DefectProfile, DiagnosisResult, DiagnosisScheme, DiagnosisScore, DrfMode, FastScheme, FaultClass,
    FaultInjector, FaultList, HuangScheme, MemConfig, MemoryFault, MemoryId, MemoryUnderDiagnosis,
};
use proptest::prelude::*;
use sram_model::decoder::DecoderFaultKind;
use sram_model::{Address, DecoderFault};
use std::collections::{BTreeMap, BTreeSet};

/// Geometries a member is drawn from: (words, width).
const GEOMETRIES: [(u64, usize); 5] = [(8, 4), (16, 8), (13, 65), (32, 16), (9, 100)];

/// A memory id that no population below uses.
const ABSENT: MemoryId = MemoryId(9_999);

// ---- oracle: the original O(memories × records) scorer ------------------

fn oracle_sites_by_memory(log: &DiagnosisLog) -> BTreeMap<MemoryId, BTreeSet<FaultSite>> {
    let mut map: BTreeMap<MemoryId, BTreeSet<FaultSite>> = BTreeMap::new();
    for record in log.records() {
        for site in record.sites() {
            map.entry(site.memory).or_default().insert(site);
        }
    }
    map
}

fn oracle_sites(log: &DiagnosisLog) -> BTreeSet<FaultSite> {
    log.records().iter().flat_map(DiagnosisRecord::sites).collect()
}

fn oracle_failing_addresses(log: &DiagnosisLog, memory: MemoryId) -> BTreeSet<Address> {
    log.records()
        .iter()
        .filter(|r| r.memory == memory)
        .map(|r| r.address)
        .collect()
}

fn oracle_evaluate(memories: &[MemoryUnderDiagnosis], result: &DiagnosisResult) -> DiagnosisScore {
    let mut score = DiagnosisScore::default();
    let mut matched_sites = 0usize;
    let mut total_sites = 0usize;
    for memory in memories {
        let located = oracle_sites_by_memory(&result.log)
            .remove(&memory.id)
            .unwrap_or_default();
        total_sites += located.len();
        for fault in memory.injected.iter() {
            *score.injected_by_class.entry(fault.class()).or_insert(0) += 1;
            let hit = match fault {
                MemoryFault::Cell { coord, .. } => located
                    .iter()
                    .any(|site| site.address == coord.address && site.bit == coord.bit),
                MemoryFault::Decoder(decoder_fault) => {
                    oracle_failing_addresses(&result.log, memory.id).contains(&decoder_fault.address)
                }
            };
            if hit {
                *score.located_by_class.entry(fault.class()).or_insert(0) += 1;
                matched_sites += 1;
            }
        }
    }
    score.additional_sites = total_sites.saturating_sub(matched_sites);
    score
}

// ---- populations ---------------------------------------------------------

/// Decoder faults of every kind at distinct addresses of a 16-word
/// memory: no-access fails one word, maps-to and also-accesses two.
fn decoder_member(id: MemoryId) -> MemoryUnderDiagnosis {
    let faults: FaultList = [
        DecoderFault::new(Address::new(1), DecoderFaultKind::NoAccess),
        DecoderFault::new(Address::new(4), DecoderFaultKind::MapsTo(Address::new(9))),
        DecoderFault::new(Address::new(7), DecoderFaultKind::AlsoAccesses(Address::new(12))),
    ]
    .into_iter()
    .map(MemoryFault::decoder)
    .collect();
    MemoryUnderDiagnosis::with_faults(id, MemConfig::new(16, 8).unwrap(), faults).unwrap()
}

/// `members` memories with sparse, shuffled ids (so the log's memory
/// order differs from id order and gaps exist). Roughly one member in
/// four is pristine; the rest draw from the DRF-extended baseline
/// profile at a few percent, and one carries explicit decoder faults.
fn population(seed: u64, members: usize, rate_permille: u32) -> Vec<MemoryUnderDiagnosis> {
    let profile = DefectProfile::with_data_retention(f64::from(rate_permille) / 1000.0);
    let mut memories = vec![decoder_member(MemoryId::new(3 * members as u32 + 1))];
    for index in 0..members {
        let draw = FaultInjector::stream_seed(seed, index as u64);
        let (words, width) = GEOMETRIES[(draw % GEOMETRIES.len() as u64) as usize];
        let config = MemConfig::new(words, width).unwrap();
        let id = MemoryId::new(3 * (members - index) as u32);
        let memory = if (draw >> 8).is_multiple_of(4) {
            MemoryUnderDiagnosis::pristine(id, config)
        } else {
            let mut injector = FaultInjector::for_stream(seed, index as u64);
            MemoryUnderDiagnosis::with_defects(id, config, &mut injector, &profile).unwrap()
        };
        memories.push(memory);
    }
    memories
}

fn diagnose(memories: &mut [MemoryUnderDiagnosis], scheme: u8) -> DiagnosisResult {
    match scheme {
        0 => FastScheme::new(10.0).diagnose(memories),
        1 => FastScheme::new(10.0)
            .with_drf_mode(DrfMode::None)
            .diagnose(memories),
        _ => HuangScheme::new(10.0).diagnose(memories),
    }
    .expect("diagnosis of a valid population")
}

/// Every indexed query equals its oracle on `result`, for every member
/// of `memories` and for an id absent from the log.
fn assert_matches_oracle(memories: &[MemoryUnderDiagnosis], result: &DiagnosisResult) {
    assert_eq!(
        DiagnosisScore::evaluate(memories, result),
        oracle_evaluate(memories, result)
    );
    let oracle_all = oracle_sites(&result.log);
    assert_eq!(result.located_count(), oracle_all.len());
    assert_eq!(result.log.sites(), oracle_all);
    let by_memory = oracle_sites_by_memory(&result.log);
    assert_eq!(result.sites_by_memory(), by_memory);
    assert_eq!(result.log.sites_by_memory(), by_memory);
    let ids = memories.iter().map(|m| m.id).chain([ABSENT]);
    for id in ids {
        assert_eq!(result.sites(id), by_memory.get(&id).cloned().unwrap_or_default());
        let addresses = oracle_failing_addresses(&result.log, id);
        assert_eq!(result.failing_addresses(id), addresses);
        assert_eq!(result.log.failing_addresses(id), addresses);
    }
}

#[test]
fn decoder_faults_fail_one_or_two_words_and_score_identically() {
    let mut memories = vec![decoder_member(MemoryId::new(0))];
    let result = diagnose(&mut memories, 0);
    let failing = result.failing_addresses(MemoryId::new(0));
    // No-access fails its own word; maps-to and also-accesses each fail
    // their own word and the aliased one.
    for address in [1, 4, 9, 7, 12] {
        assert!(
            failing.contains(&Address::new(address)),
            "{address} not failing: {failing:?}"
        );
    }
    let score = DiagnosisScore::evaluate(&memories, &result);
    assert_eq!(score.located(), 3);
    assert_matches_oracle(&memories, &result);
}

#[test]
fn an_empty_log_scores_like_the_oracle() {
    // Rate 0 leaves every drawn member pristine; drop the decoder member.
    let mut pristine: Vec<MemoryUnderDiagnosis> = population(5, 3, 0).into_iter().skip(1).collect();
    let result = diagnose(&mut pristine, 0);
    assert!(result.is_clean());
    assert_eq!(result.log.site_index(), SiteIndex::default());
    assert_matches_oracle(&pristine, &result);
}

#[test]
fn populations_reach_every_case_the_oracle_must_cover() {
    let mut memories = population(1, 6, 30);
    let classes: BTreeSet<FaultClass> = memories
        .iter()
        .flat_map(|m| m.injected.iter().map(MemoryFault::class))
        .collect();
    for class in FaultClass::date2005_baseline_classes() {
        assert!(classes.contains(&class), "no {class} fault drawn");
    }
    assert!(classes.contains(&FaultClass::DataRetention));
    assert!(
        memories.iter().any(|m| m.injected.is_empty()),
        "no pristine member"
    );
    let result = diagnose(&mut memories, 1);
    let score = DiagnosisScore::evaluate(&memories, &result);
    assert!(
        score.located() < score.injected(),
        "DrfMode::None located every DRF"
    );
    assert_matches_oracle(&memories, &result);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The indexed scorer and every site query equal the oracle, for
    /// both schemes and with DRFs left unlocated under `DrfMode::None`.
    #[test]
    fn indexed_scoring_matches_the_per_memory_oracle(
        seed in any::<u64>(),
        members in 1usize..7,
        rate_permille in 10u32..40,
        scheme in 0u8..3,
    ) {
        let mut memories = population(seed, members, rate_permille);
        let result = diagnose(&mut memories, scheme);
        assert_matches_oracle(&memories, &result);
        // Scoring a subset (members missing from the score's view but
        // present in the log) must agree too.
        assert_matches_oracle(&memories[1..], &result);
    }
}
