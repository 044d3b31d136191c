//! Error type shared by the memory model.

use std::error::Error;
use std::fmt;

/// Errors produced by the behavioural memory model.
///
/// Every fallible operation in this crate returns [`MemError`] so that
/// callers (the BISD controller, the March engine, user code) can handle
/// configuration and addressing mistakes uniformly.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemError {
    /// The requested address is outside the memory's address space.
    AddressOutOfRange {
        /// Offending word address.
        address: u64,
        /// Number of words in the memory.
        words: u64,
    },
    /// A data word of the wrong width was supplied to a port operation.
    WidthMismatch {
        /// Width of the supplied word in bits.
        supplied: usize,
        /// IO width of the memory in bits.
        expected: usize,
    },
    /// A bit index exceeded the word width.
    BitOutOfRange {
        /// Offending bit index.
        bit: usize,
        /// Word width in bits.
        width: usize,
    },
    /// The memory configuration is invalid: zero words, zero width, or
    /// a depth or width past the supported maximum
    /// ([`MemConfig::MAX_WORDS`](crate::MemConfig::MAX_WORDS),
    /// [`MemConfig::MAX_WIDTH`](crate::MemConfig::MAX_WIDTH)).
    InvalidConfig {
        /// Requested number of words.
        words: u64,
        /// Requested IO width.
        width: usize,
    },
    /// No spare word is available to repair the requested address.
    NoSpareAvailable {
        /// Address that could not be repaired.
        address: u64,
    },
    /// The same address was repaired twice.
    AlreadyRepaired {
        /// Address that is already mapped to a spare.
        address: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::AddressOutOfRange { address, words } => {
                write!(f, "address {address} out of range for memory with {words} words")
            }
            MemError::WidthMismatch { supplied, expected } => {
                write!(
                    f,
                    "data word width {supplied} does not match memory IO width {expected}"
                )
            }
            MemError::BitOutOfRange { bit, width } => {
                write!(f, "bit index {bit} out of range for word width {width}")
            }
            MemError::InvalidConfig { words, width } => write!(
                f,
                "invalid memory configuration: {words} words x {width} bits \
                 (supported: 1..={} words, 1..={} bits)",
                crate::MemConfig::MAX_WORDS,
                crate::MemConfig::MAX_WIDTH
            ),
            MemError::NoSpareAvailable { address } => {
                write!(f, "no spare word available to repair address {address}")
            }
            MemError::AlreadyRepaired { address } => {
                write!(f, "address {address} is already repaired")
            }
        }
    }
}

impl Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = MemError::AddressOutOfRange {
            address: 600,
            words: 512,
        };
        assert_eq!(
            e.to_string(),
            "address 600 out of range for memory with 512 words"
        );
        let e = MemError::WidthMismatch {
            supplied: 3,
            expected: 4,
        };
        assert!(e.to_string().contains("width 3"));
        let e = MemError::BitOutOfRange { bit: 9, width: 8 };
        assert!(e.to_string().contains("bit index 9"));
        let e = MemError::InvalidConfig { words: 0, width: 0 };
        assert!(e.to_string().contains("invalid memory configuration"));
        let e = MemError::NoSpareAvailable { address: 1 };
        assert!(e.to_string().contains("spare"));
        let e = MemError::AlreadyRepaired { address: 1 };
        assert!(e.to_string().contains("already repaired"));
    }

    #[test]
    fn error_is_send_sync_and_implements_error() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<MemError>();
    }
}
