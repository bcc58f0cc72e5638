//! Typed errors for the live runtime.
//!
//! Algorithm 4's steady-state loop must never panic on a transport fault:
//! sends and receives surface [`TransportError`], the retry layer converts
//! a persistently failing operation into
//! [`RuntimeError::RetriesExhausted`], and everything above decides policy
//! (respawn, degrade, give up) on values rather than unwinding.

use std::error::Error;
use std::fmt;

use crate::shard::ShardCapacityError;

/// A transport-level send or receive failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer endpoint is gone: the channel hung up or the socket closed.
    Disconnected,
    /// An OS-level I/O failure, with the error description.
    Io(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "transport peer disconnected"),
            TransportError::Io(msg) => write!(f, "transport I/O error: {msg}"),
        }
    }
}

impl Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e.to_string())
    }
}

/// A runtime-level failure, after local recovery has been attempted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A transport operation kept failing through the whole retry budget.
    RetriesExhausted {
        /// How many attempts were made (including the first).
        attempts: u32,
        /// The error from the final attempt.
        last: TransportError,
    },
    /// A supervised thread panicked or exited without being asked to stop.
    ThreadFailed {
        /// Which component's thread died.
        component: &'static str,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::RetriesExhausted { attempts, last } => {
                write!(
                    f,
                    "transport still failing after {attempts} attempts: {last}"
                )
            }
            RuntimeError::ThreadFailed { component } => {
                write!(f, "{component} thread exited unexpectedly")
            }
        }
    }
}

impl Error for RuntimeError {}

/// A failure in the [`ParallelShardEngine`](crate::engine::ParallelShardEngine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The underlying transport failed.
    Transport(TransportError),
    /// A watch was refused because the target shard's snapshot bank is full.
    Capacity(ShardCapacityError),
    /// The operation requires the engine to be stopped, but workers are
    /// running (e.g. `watch` after `start`).
    Running,
    /// A worker thread panicked; the engine is poisoned and must be shut
    /// down.
    WorkerPanicked {
        /// Index of the worker that died.
        worker: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Transport(e) => write!(f, "engine transport failure: {e}"),
            EngineError::Capacity(e) => write!(f, "engine watch refused: {e}"),
            EngineError::Running => {
                write!(
                    f,
                    "operation requires a stopped engine, but workers are running"
                )
            }
            EngineError::WorkerPanicked { worker } => {
                write!(f, "shard worker {worker} panicked; engine poisoned")
            }
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Transport(e) => Some(e),
            EngineError::Capacity(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for EngineError {
    fn from(e: TransportError) -> Self {
        EngineError::Transport(e)
    }
}

impl From<ShardCapacityError> for EngineError {
    fn from(e: ShardCapacityError) -> Self {
        EngineError::Capacity(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TransportError::Io("connection reset".into());
        assert!(e.to_string().contains("connection reset"));
        let e = RuntimeError::RetriesExhausted {
            attempts: 5,
            last: TransportError::Disconnected,
        };
        assert!(e.to_string().contains("5 attempts"));
        assert!(e.to_string().contains("disconnected"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "refused");
        let t: TransportError = io.into();
        assert!(matches!(t, TransportError::Io(_)));
    }
}
