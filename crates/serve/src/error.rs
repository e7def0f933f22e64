//! Typed serving errors.

use std::error::Error;
use std::fmt;

use hpu_core::CoreError;
use hpu_model::{CalibrationError, ModelError};

/// Why a submitted job did not complete.
#[derive(Debug)]
pub enum ServeError {
    /// The bounded admission queue was full at arrival: backpressure
    /// rejects the job instead of blocking the submitter forever.
    QueueFull {
        /// Id of the rejected job.
        job: u64,
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The job's deadline passed — or provably could not be met — before
    /// it ran, so the scheduler dropped it.
    Cancelled {
        /// Id of the cancelled job.
        job: u64,
        /// The deadline that was missed (scheduler time units).
        deadline: f64,
    },
    /// The job's schedule failed to compile to an execution plan.
    Compile {
        /// Id of the failed job.
        job: u64,
        /// The model-side compilation error.
        source: ModelError,
    },
    /// The job's plan failed to execute.
    Run {
        /// Id of the failed job.
        job: u64,
        /// The executor-side error.
        source: CoreError,
    },
    /// A shared lock was found poisoned by a worker panic. The holder's
    /// state was recovered (poison is cleared) and the error recorded so
    /// the incident is visible, not silent.
    Poisoned {
        /// Which lock was poisoned.
        context: &'static str,
    },
    /// A native worker panicked while running a job. The worker survives
    /// (the panic is caught at the job boundary) and the job ends
    /// [`hpu_obs::JobOutcome::Failed`].
    WorkerPanic {
        /// Id of the job whose run panicked.
        job: u64,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The calibration loop was mis-configured or produced an invalid
    /// correction. Calibration failures never kill jobs: pricing
    /// proceeds with the last valid corrections (or none).
    Calibration {
        /// Id of the affected job, or `None` for a configuration-level
        /// failure.
        job: Option<u64>,
        /// The calibration-side error.
        source: CalibrationError,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { job, capacity } => {
                write!(f, "job {job}: admission queue full (capacity {capacity})")
            }
            ServeError::Cancelled { job, deadline } => {
                write!(f, "job {job}: cancelled, deadline {deadline} unmeetable")
            }
            ServeError::Compile { job, source } => {
                write!(f, "job {job}: schedule failed to compile: {source}")
            }
            ServeError::Run { job, source } => {
                write!(f, "job {job}: plan failed to execute: {source}")
            }
            ServeError::Poisoned { context } => {
                write!(f, "recovered poisoned lock: {context}")
            }
            ServeError::WorkerPanic { job, message } => {
                write!(f, "job {job}: worker panicked: {message}")
            }
            ServeError::Calibration {
                job: Some(j),
                source,
            } => {
                write!(f, "job {j}: calibration failed: {source}")
            }
            ServeError::Calibration { job: None, source } => {
                write!(f, "calibration disabled: {source}")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Compile { source, .. } => Some(source),
            ServeError::Run { source, .. } => Some(source),
            ServeError::Calibration { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_job() {
        let e = ServeError::QueueFull {
            job: 7,
            capacity: 4,
        };
        assert!(e.to_string().contains("job 7"));
        assert!(e.to_string().contains("capacity 4"));
        let c = ServeError::Cancelled {
            job: 3,
            deadline: 10.0,
        };
        assert!(c.to_string().contains("cancelled"));
        assert!(c.source().is_none());
    }
}
