//! Diagnosis records and the per-run diagnosis log.

use march::DataBackground;
use sram_model::{Address, DataWord, FailingBits, MemoryId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A located faulty bit cell: memory, word address and bit position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultSite {
    /// Memory the faulty cell belongs to.
    pub memory: MemoryId,
    /// Word address of the faulty cell.
    pub address: Address,
    /// Bit position within the word.
    pub bit: usize,
}

impl FaultSite {
    /// Creates a fault site.
    pub fn new(memory: MemoryId, address: Address, bit: usize) -> Self {
        FaultSite { memory, address, bit }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}[{}]", self.memory, self.address, self.bit)
    }
}

/// One comparator-array mismatch, i.e. the diagnosis information the
/// paper says is "registered for on-chip repair or shifted out for
/// off-line analysis": the failing address, the applied data background,
/// the expected and observed data and the failing bit positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosisRecord {
    /// Memory in which the mismatch was observed.
    pub memory: MemoryId,
    /// Failing word address (local to that memory).
    pub address: Address,
    /// Data background active when the mismatch was observed.
    pub background: DataBackground,
    /// Label of the March element that detected the mismatch.
    pub element: String,
    /// Expected read data.
    pub expected: DataWord,
    /// Observed read data.
    pub observed: DataWord,
    /// Failing bit positions.
    pub failing_bits: FailingBits,
}

impl DiagnosisRecord {
    /// The fault sites this record contributes.
    pub fn sites(&self) -> impl Iterator<Item = FaultSite> + '_ {
        self.failing_bits
            .iter()
            .map(move |&bit| FaultSite::new(self.memory, self.address, bit))
    }
}

impl fmt::Display for DiagnosisRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}]: expected {} observed {} (bits {:?})",
            self.memory, self.address, self.element, self.expected, self.observed, self.failing_bits
        )
    }
}

/// Accumulated diagnosis information of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiagnosisLog {
    records: Vec<DiagnosisRecord>,
}

impl DiagnosisLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        DiagnosisLog { records: Vec::new() }
    }

    /// Appends a record.
    pub fn push(&mut self, record: DiagnosisRecord) {
        self.records.push(record);
    }

    /// All records in detection order.
    pub fn records(&self) -> &[DiagnosisRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no mismatch was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Sorts the log's located sites and failing words into a
    /// [`SiteIndex`] in one pass over the records. Every per-memory
    /// query below reads this index.
    pub fn site_index(&self) -> SiteIndex {
        let mut sites: Vec<FaultSite> = self.records.iter().flat_map(DiagnosisRecord::sites).collect();
        let mut words: Vec<(MemoryId, Address)> =
            self.records.iter().map(|r| (r.memory, r.address)).collect();
        sites.sort_unstable();
        sites.dedup();
        words.sort_unstable();
        words.dedup();
        SiteIndex { sites, words }
    }

    /// Distinct located fault sites, grouped per memory.
    pub fn sites_by_memory(&self) -> BTreeMap<MemoryId, BTreeSet<FaultSite>> {
        self.site_index()
            .sites
            .chunk_by(|a, b| a.memory == b.memory)
            .map(|group| (group[0].memory, group.iter().copied().collect()))
            .collect()
    }

    /// Every distinct located fault site.
    pub fn sites(&self) -> BTreeSet<FaultSite> {
        self.site_index().sites.into_iter().collect()
    }

    /// Distinct failing word addresses of one memory (repair granularity).
    pub fn failing_addresses(&self, memory: MemoryId) -> BTreeSet<Address> {
        self.site_index().failing_addresses(memory).collect()
    }

    /// Merges another log into this one.
    pub fn merge(&mut self, other: DiagnosisLog) {
        self.records.extend(other.records);
    }

    /// Consumes the log and returns its records in detection order (the
    /// shard-merge path reorders per-worker records by operation
    /// sequence before reassembling the population log).
    pub fn into_records(self) -> Vec<DiagnosisRecord> {
        self.records
    }
}

/// The distinct located sites and failing words of a [`DiagnosisLog`],
/// each in one sorted, de-duplicated `Vec`.
///
/// Sites sort by memory, then address, then bit, so one memory's sites
/// are a contiguous slice found by two binary searches; failing words
/// `(memory, address)` sort the same way. Building the index costs
/// O(R log R) for R log records, after which every per-memory query is
/// O(log R).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteIndex {
    sites: Vec<FaultSite>,
    words: Vec<(MemoryId, Address)>,
}

impl SiteIndex {
    /// Every distinct located site, in `(memory, address, bit)` order.
    pub fn sites(&self) -> &[FaultSite] {
        &self.sites
    }

    /// Number of distinct located sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True if no site was located.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The distinct located sites of one memory, in `(address, bit)`
    /// order (empty for a memory absent from the log).
    pub fn memory_sites(&self, memory: MemoryId) -> &[FaultSite] {
        let start = self.sites.partition_point(|site| site.memory < memory);
        let len = self.sites[start..].partition_point(|site| site.memory == memory);
        &self.sites[start..start + len]
    }

    /// The distinct failing word addresses of one memory, ascending.
    pub fn failing_addresses(&self, memory: MemoryId) -> impl Iterator<Item = Address> + '_ {
        let start = self.words.partition_point(|&(id, _)| id < memory);
        self.words[start..]
            .iter()
            .take_while(move |&&(id, _)| id == memory)
            .map(|&(_, address)| address)
    }

    /// True if any record of `memory` failed at `address`.
    pub fn has_failing_address(&self, memory: MemoryId, address: Address) -> bool {
        self.words.binary_search(&(memory, address)).is_ok()
    }
}

impl Extend<DiagnosisRecord> for DiagnosisLog {
    fn extend<T: IntoIterator<Item = DiagnosisRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(memory: u32, address: u64, bits: Vec<usize>) -> DiagnosisRecord {
        DiagnosisRecord {
            memory: MemoryId::new(memory),
            address: Address::new(address),
            background: DataBackground::Solid,
            element: "M1".to_string(),
            expected: DataWord::zero(4),
            observed: DataWord::splat(true, 4),
            failing_bits: bits.into(),
        }
    }

    #[test]
    fn sites_expand_failing_bits() {
        let r = record(0, 3, vec![1, 2]);
        let sites: Vec<FaultSite> = r.sites().collect();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0], FaultSite::new(MemoryId::new(0), Address::new(3), 1));
        assert_eq!(sites[0].to_string(), "mem0:@0x3[1]");
    }

    #[test]
    fn log_groups_sites_per_memory_and_deduplicates() {
        let mut log = DiagnosisLog::new();
        log.push(record(0, 3, vec![1]));
        log.push(record(0, 3, vec![1])); // duplicate observation
        log.push(record(1, 5, vec![0, 2]));
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        let by_memory = log.sites_by_memory();
        assert_eq!(by_memory[&MemoryId::new(0)].len(), 1);
        assert_eq!(by_memory[&MemoryId::new(1)].len(), 2);
        assert_eq!(log.sites().len(), 3);
        assert_eq!(
            log.failing_addresses(MemoryId::new(1)),
            BTreeSet::from([Address::new(5)])
        );
        assert!(log.failing_addresses(MemoryId::new(7)).is_empty());
    }

    #[test]
    fn site_index_sorts_and_deduplicates_sites_and_words() {
        let site = |m: u32, a: u64, b: usize| FaultSite::new(MemoryId::new(m), Address::new(a), b);
        let mut log = DiagnosisLog::new();
        // Detection order is neither memory- nor address-sorted, and
        // repeats both whole records and single sites.
        log.push(record(4, 9, vec![3, 0]));
        log.push(record(1, 5, vec![2]));
        log.push(record(4, 2, vec![1]));
        log.push(record(1, 5, vec![2])); // duplicate observation
        log.push(record(4, 9, vec![0])); // site seen again, new record
        log.push(record(1, 0, vec![]));
        let index = log.site_index();
        assert_eq!(
            index.sites(),
            &[site(1, 5, 2), site(4, 2, 1), site(4, 9, 0), site(4, 9, 3)]
        );
        assert_eq!(index.len(), 4);
        assert!(!index.is_empty());
        assert_eq!(index.memory_sites(MemoryId::new(1)), &[site(1, 5, 2)]);
        assert_eq!(
            index.memory_sites(MemoryId::new(4)),
            &[site(4, 2, 1), site(4, 9, 0), site(4, 9, 3)]
        );
        // Memories absent from the log: below, between and above.
        for absent in [0, 2, 7] {
            assert!(index.memory_sites(MemoryId::new(absent)).is_empty());
            assert_eq!(index.failing_addresses(MemoryId::new(absent)).count(), 0);
        }
        // A record without failing bits still names a failing word.
        let words: Vec<Address> = index.failing_addresses(MemoryId::new(1)).collect();
        assert_eq!(words, [Address::new(0), Address::new(5)]);
        let words: Vec<Address> = index.failing_addresses(MemoryId::new(4)).collect();
        assert_eq!(words, [Address::new(2), Address::new(9)]);
        assert!(index.has_failing_address(MemoryId::new(1), Address::new(0)));
        assert!(!index.has_failing_address(MemoryId::new(1), Address::new(9)));
        assert!(!index.has_failing_address(MemoryId::new(7), Address::new(5)));
        // The set-valued views agree with the index.
        assert_eq!(log.sites().len(), 4);
        assert_eq!(log.sites_by_memory().len(), 2);
        assert_eq!(log.sites_by_memory()[&MemoryId::new(4)].len(), 3);
    }

    #[test]
    fn empty_log_has_an_empty_index() {
        let log = DiagnosisLog::new();
        let index = log.site_index();
        assert!(index.is_empty());
        assert_eq!(index.len(), 0);
        assert!(index.sites().is_empty());
        assert!(index.memory_sites(MemoryId::new(0)).is_empty());
        assert!(!index.has_failing_address(MemoryId::new(0), Address::new(0)));
        assert!(log.sites_by_memory().is_empty());
        assert!(log.failing_addresses(MemoryId::new(0)).is_empty());
    }

    #[test]
    fn merge_and_extend_accumulate_records() {
        let mut a = DiagnosisLog::new();
        a.push(record(0, 0, vec![0]));
        let mut b = DiagnosisLog::new();
        b.push(record(1, 1, vec![1]));
        a.merge(b);
        a.extend(vec![record(2, 2, vec![2])]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn record_display_mentions_memory_and_element() {
        let text = record(3, 9, vec![0]).to_string();
        assert!(text.contains("mem3"));
        assert!(text.contains("M1"));
    }
}
