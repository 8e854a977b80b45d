//! The workspace-level serving error taxonomy.
//!
//! Before this module, failure on the serving path was ad hoc: invalid
//! configurations surfaced as [`sme_gemm::GemmError`], everything else
//! panicked (lock poisoning, kernel bugs). [`ServeError`] names the failure
//! modes the *serving* layer is expected to survive, so reports can say
//! exactly how far down the degradation ladder a request travelled
//! (persistence failures have their own type,
//! [`crate::persist::SnapshotError`]):
//!
//! 1. serve on the routed backend;
//! 2. on compile failure or a panic, retry once on the fallback backend
//!    ([`crate::service`]);
//! 3. only if both backends fail, reject that request — never the batch.

use sme_gemm::{Backend, GemmError};
use std::fmt;

/// Why a request (or a background component) failed after the serving
/// layer exhausted its degradation ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The configuration itself is invalid — no backend could ever serve
    /// it, so no fallback is attempted.
    Gemm(GemmError),
    /// Compiling (or fetching) a kernel failed on the named backend.
    Compile {
        /// The backend that failed to produce a kernel.
        backend: Backend,
        /// The underlying compile error.
        detail: String,
    },
    /// A dispatch group panicked mid-execution on the named backend; the
    /// panic was caught at the group boundary.
    ExecPanic {
        /// The backend the group was executing on.
        backend: Backend,
        /// The panic payload, stringified.
        detail: String,
    },
    /// A background daemon operation failed.
    Daemon {
        /// The underlying error.
        detail: String,
    },
}

impl ServeError {
    /// Stable snake-case category name (used in failure reports and
    /// metrics labels).
    pub fn category(&self) -> &'static str {
        match self {
            ServeError::Gemm(_) => "invalid_config",
            ServeError::Compile { .. } => "compile",
            ServeError::ExecPanic { .. } => "exec_panic",
            ServeError::Daemon { .. } => "daemon",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Gemm(e) => write!(f, "invalid configuration: {e}"),
            ServeError::Compile { backend, detail } => {
                write!(f, "compile failed on {backend}: {detail}")
            }
            ServeError::ExecPanic { backend, detail } => {
                write!(f, "group panicked on {backend}: {detail}")
            }
            ServeError::Daemon { detail } => write!(f, "daemon failure: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<GemmError> for ServeError {
    fn from(e: GemmError) -> Self {
        ServeError::Gemm(e)
    }
}
