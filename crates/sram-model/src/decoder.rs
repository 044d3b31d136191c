//! Address-decoder model with the classical address-decoder fault classes.
//!
//! Memory-test literature distinguishes four address-decoder faults
//! (AFs): an address that activates no cell, an address that activates a
//! wrong cell, an address that activates additional cells, and a cell
//! reached by multiple addresses (the mirror image of the previous
//! class). March C- (and therefore March CW and DiagRSMarch) detects all
//! of them; the column-decoder/intra-word element that March CW adds is
//! accounted for in the `march` crate.

use crate::config::{Address, MemConfig};
use crate::error::MemError;
use std::collections::BTreeMap;
use std::fmt;

/// The kind of misbehaviour a faulty decoder exhibits for one address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DecoderFaultKind {
    /// AF1: the address activates no word line; writes are lost and reads
    /// return the precharged all-ones word (no cell discharges the
    /// bitlines).
    NoAccess,
    /// AF2: the address activates a different row instead of its own.
    MapsTo(Address),
    /// AF3: the address activates its own row **and** an additional row.
    AlsoAccesses(Address),
}

impl fmt::Display for DecoderFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecoderFaultKind::NoAccess => write!(f, "AF:no-access"),
            DecoderFaultKind::MapsTo(a) => write!(f, "AF:maps-to{a}"),
            DecoderFaultKind::AlsoAccesses(a) => write!(f, "AF:also{a}"),
        }
    }
}

/// An address-decoder fault bound to the logical address it corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecoderFault {
    /// Logical address whose decoding is corrupted.
    pub address: Address,
    /// How the decoding misbehaves.
    pub kind: DecoderFaultKind,
}

impl DecoderFault {
    /// Creates a decoder fault.
    pub fn new(address: Address, kind: DecoderFaultKind) -> Self {
        DecoderFault { address, kind }
    }

    /// Every physical row whose observable behaviour this fault can
    /// influence, ascending and distinct: the corrupted address itself
    /// plus the redirected/extra row it drags in (`[address]` alone for
    /// a no-access fault, or when the target is the address itself).
    ///
    /// The set is exact. Accesses to any other address decode to exactly
    /// their own row and neither read nor write the rows listed here; a
    /// no-access read returns the precharged all-ones word regardless of
    /// history, and the wired-AND of a multi-access read only combines
    /// rows in the set. So a sweep restricted to these rows, in the full
    /// sweep's order, observes every deviation the full sweep would.
    pub fn deviation_rows(&self) -> Vec<Address> {
        match self.kind {
            DecoderFaultKind::NoAccess => vec![self.address],
            DecoderFaultKind::MapsTo(target) | DecoderFaultKind::AlsoAccesses(target) => {
                let mut rows = vec![self.address.min(target), self.address.max(target)];
                rows.dedup();
                rows
            }
        }
    }
}

impl fmt::Display for DecoderFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.kind, self.address)
    }
}

/// Behavioural address decoder: maps each logical address to the set of
/// physical rows it activates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressDecoder {
    config: MemConfig,
    faults: BTreeMap<u64, DecoderFaultKind>,
}

impl AddressDecoder {
    /// Creates a fault-free decoder for the given geometry.
    pub fn new(config: MemConfig) -> Self {
        AddressDecoder {
            config,
            faults: BTreeMap::new(),
        }
    }

    /// Injects a decoder fault.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AddressOutOfRange`] if the fault references an
    /// address outside the memory.
    pub fn inject(&mut self, fault: DecoderFault) -> Result<(), MemError> {
        self.config.check_address(fault.address)?;
        match fault.kind {
            DecoderFaultKind::MapsTo(target) | DecoderFaultKind::AlsoAccesses(target) => {
                self.config.check_address(target)?;
            }
            DecoderFaultKind::NoAccess => {}
        }
        self.faults.insert(fault.address.index(), fault.kind);
        Ok(())
    }

    /// Removes every injected decoder fault.
    pub fn clear_faults(&mut self) {
        self.faults.clear();
    }

    /// Injected decoder faults, in address order.
    pub fn faults(&self) -> Vec<DecoderFault> {
        self.faults
            .iter()
            .map(|(&a, &kind)| DecoderFault::new(Address::new(a), kind))
            .collect()
    }

    /// Physical rows activated when `address` is applied.
    ///
    /// A fault-free decoder returns exactly `[address]`. The result is
    /// empty for a no-access fault and contains two rows for a
    /// multi-access fault.
    pub fn activated_rows(&self, address: Address) -> Vec<Address> {
        match self.faults.get(&address.index()) {
            None => vec![address],
            Some(DecoderFaultKind::NoAccess) => vec![],
            Some(DecoderFaultKind::MapsTo(target)) => vec![*target],
            Some(DecoderFaultKind::AlsoAccesses(extra)) => {
                if *extra == address {
                    vec![address]
                } else {
                    vec![address, *extra]
                }
            }
        }
    }

    /// True if any decoder fault is injected.
    #[inline]
    pub fn is_faulty(&self) -> bool {
        !self.faults.is_empty()
    }

    /// The union of every injected fault's
    /// [`DecoderFault::deviation_rows`], in ascending order.
    pub fn deviation_rows(&self) -> Vec<u64> {
        let rows: std::collections::BTreeSet<u64> = self
            .faults
            .iter()
            .flat_map(|(&address, &kind)| DecoderFault::new(Address::new(address), kind).deviation_rows())
            .map(|row| row.index())
            .collect();
        rows.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MemConfig {
        MemConfig::new(16, 4).unwrap()
    }

    #[test]
    fn fault_free_decoder_is_identity() {
        let decoder = AddressDecoder::new(config());
        for a in 0..16 {
            assert_eq!(decoder.activated_rows(Address::new(a)), vec![Address::new(a)]);
        }
        assert!(!decoder.is_faulty());
        assert!(decoder.faults().is_empty());
    }

    #[test]
    fn no_access_fault_activates_nothing() {
        let mut decoder = AddressDecoder::new(config());
        decoder
            .inject(DecoderFault::new(Address::new(5), DecoderFaultKind::NoAccess))
            .unwrap();
        assert!(decoder.activated_rows(Address::new(5)).is_empty());
        assert_eq!(decoder.activated_rows(Address::new(6)), vec![Address::new(6)]);
        assert!(decoder.is_faulty());
    }

    #[test]
    fn maps_to_fault_redirects_access() {
        let mut decoder = AddressDecoder::new(config());
        decoder
            .inject(DecoderFault::new(
                Address::new(3),
                DecoderFaultKind::MapsTo(Address::new(9)),
            ))
            .unwrap();
        assert_eq!(decoder.activated_rows(Address::new(3)), vec![Address::new(9)]);
    }

    #[test]
    fn also_accesses_fault_activates_two_rows() {
        let mut decoder = AddressDecoder::new(config());
        decoder
            .inject(DecoderFault::new(
                Address::new(2),
                DecoderFaultKind::AlsoAccesses(Address::new(7)),
            ))
            .unwrap();
        assert_eq!(
            decoder.activated_rows(Address::new(2)),
            vec![Address::new(2), Address::new(7)]
        );
    }

    #[test]
    fn also_accesses_self_degenerates_to_single_access() {
        let mut decoder = AddressDecoder::new(config());
        decoder
            .inject(DecoderFault::new(
                Address::new(2),
                DecoderFaultKind::AlsoAccesses(Address::new(2)),
            ))
            .unwrap();
        assert_eq!(decoder.activated_rows(Address::new(2)), vec![Address::new(2)]);
    }

    #[test]
    fn inject_validates_addresses() {
        let mut decoder = AddressDecoder::new(config());
        assert!(decoder
            .inject(DecoderFault::new(Address::new(99), DecoderFaultKind::NoAccess))
            .is_err());
        assert!(decoder
            .inject(DecoderFault::new(
                Address::new(1),
                DecoderFaultKind::MapsTo(Address::new(99))
            ))
            .is_err());
    }

    #[test]
    fn clear_faults_restores_identity() {
        let mut decoder = AddressDecoder::new(config());
        decoder
            .inject(DecoderFault::new(Address::new(5), DecoderFaultKind::NoAccess))
            .unwrap();
        decoder.clear_faults();
        assert_eq!(decoder.activated_rows(Address::new(5)), vec![Address::new(5)]);
    }

    #[test]
    fn deviation_rows_are_the_address_plus_its_target() {
        let rows = |kind| DecoderFault::new(Address::new(5), kind).deviation_rows();
        assert_eq!(rows(DecoderFaultKind::NoAccess), vec![Address::new(5)]);
        assert_eq!(
            rows(DecoderFaultKind::MapsTo(Address::new(2))),
            vec![Address::new(2), Address::new(5)]
        );
        assert_eq!(
            rows(DecoderFaultKind::AlsoAccesses(Address::new(9))),
            vec![Address::new(5), Address::new(9)]
        );
        assert_eq!(
            rows(DecoderFaultKind::MapsTo(Address::new(5))),
            vec![Address::new(5)]
        );
    }

    #[test]
    fn display_formats() {
        let f = DecoderFault::new(Address::new(4), DecoderFaultKind::MapsTo(Address::new(2)));
        assert_eq!(f.to_string(), "AF:maps-to@0x2@0x4");
        assert_eq!(DecoderFaultKind::NoAccess.to_string(), "AF:no-access");
    }
}
