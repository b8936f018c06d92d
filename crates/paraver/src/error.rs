//! Typed errors of the trace writers.
//!
//! A record handed to the order-enforcing [`crate::prv::TraceWriter`] out of
//! contract (earlier than its predecessor, or on a thread the trace does not
//! have) surfaces as a recoverable error to the caller rather than a panic.

use std::fmt;
use std::io;

/// Error produced by the `.prv` and bundle writers.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure (file create/write/flush).
    Io(io::Error),
    /// A record arrived with a `sort_time()` earlier than the previous
    /// record's — the caller violated the nondecreasing-time contract.
    OutOfOrder { prev: u64, next: u64 },
    /// A record referenced a thread id outside the trace's thread count.
    ThreadOutOfRange { thread: u32, num_threads: u32 },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::OutOfOrder { prev, next } => write!(
                f,
                "records must be written in nondecreasing time order \
                 ({next} after {prev})"
            ),
            TraceError::ThreadOutOfRange {
                thread,
                num_threads,
            } => write!(
                f,
                "record thread id {thread} out of range (trace has \
                 {num_threads} threads)"
            ),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<TraceError> for io::Error {
    fn from(e: TraceError) -> Self {
        match e {
            TraceError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = TraceError::OutOfOrder { prev: 10, next: 5 };
        assert!(e.to_string().contains("5 after 10"));
        let e = TraceError::ThreadOutOfRange {
            thread: 9,
            num_threads: 4,
        };
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn io_roundtrip_preserves_kind() {
        let io_err = io::Error::new(io::ErrorKind::PermissionDenied, "nope");
        let t: TraceError = io_err.into();
        let back: io::Error = t.into();
        assert_eq!(back.kind(), io::ErrorKind::PermissionDenied);
        let ooo: io::Error = TraceError::OutOfOrder { prev: 2, next: 1 }.into();
        assert_eq!(ooo.kind(), io::ErrorKind::InvalidData);
    }
}
