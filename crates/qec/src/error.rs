//! Error types for the surface-code substrate.

use std::error::Error;
use std::fmt;

/// Errors produced while constructing or operating on surface-code objects.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QecError {
    /// The requested code distance is not supported.
    ///
    /// Valid code distances are odd integers greater than or equal to 3.
    InvalidDistance {
        /// The offending distance.
        distance: usize,
    },
    /// A probability argument was outside the `[0, 1]` interval.
    InvalidProbability {
        /// The offending value.
        value: f64,
    },
    /// A qubit index was out of range for the lattice it was used with.
    QubitIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The number of qubits in the lattice.
        len: usize,
    },
    /// A syndrome had a different length than the lattice expects.
    SyndromeLengthMismatch {
        /// The provided length.
        got: usize,
        /// The expected length.
        expected: usize,
    },
}

impl fmt::Display for QecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QecError::InvalidDistance { distance } => {
                write!(
                    f,
                    "invalid code distance {distance}: must be an odd integer >= 3"
                )
            }
            QecError::InvalidProbability { value } => {
                write!(f, "invalid probability {value}: must lie in [0, 1]")
            }
            QecError::QubitIndexOutOfRange { index, len } => {
                write!(
                    f,
                    "qubit index {index} out of range for lattice with {len} qubits"
                )
            }
            QecError::SyndromeLengthMismatch { got, expected } => {
                write!(
                    f,
                    "syndrome length {got} does not match expected {expected}"
                )
            }
        }
    }
}

impl Error for QecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let err = QecError::InvalidDistance { distance: 4 };
        let msg = err.to_string();
        assert!(msg.contains("invalid code distance 4"));
        assert!(msg.chars().next().unwrap().is_lowercase());

        let err = QecError::InvalidProbability { value: 1.5 };
        assert!(err.to_string().contains("1.5"));

        let err = QecError::QubitIndexOutOfRange { index: 10, len: 5 };
        assert!(err.to_string().contains("10"));
        assert!(err.to_string().contains("5"));

        let err = QecError::SyndromeLengthMismatch {
            got: 3,
            expected: 12,
        };
        assert!(err.to_string().contains("3"));
        assert!(err.to_string().contains("12"));
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<QecError>();
    }
}
