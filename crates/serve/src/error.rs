//! One error type for the whole serving path.
//!
//! Every failure a request can hit — malformed HTTP, an unloadable
//! snapshot, a model outside the servable zoo, an overloaded
//! queue — flows through [`ServeError`] so handlers can map it onto an
//! HTTP status in exactly one place ([`ServeError::http_status`]).

use dropback::CheckpointError;
use std::io;
use std::path::PathBuf;

/// Why a serving operation failed.
#[derive(Debug)]
pub enum ServeError {
    /// An underlying socket or filesystem error.
    Io(io::Error),
    /// The checkpoint store could not list or load snapshots.
    Checkpoint(CheckpointError),
    /// The snapshot directory holds no loadable snapshot.
    NoSnapshot(PathBuf),
    /// The snapshot's architecture is not in the servable zoo.
    UnsupportedModel(String),
    /// The client sent something the server cannot act on (HTTP 400).
    BadRequest(String),
    /// The request's header block exceeds the parser's bounds (HTTP 431).
    HeadersTooLarge(String),
    /// The declared body exceeds the accepted maximum (HTTP 413).
    BodyTooLarge {
        /// Bytes the client declared.
        got: usize,
        /// Largest body the server accepts.
        limit: usize,
    },
    /// The bounded request queue is full (HTTP 503).
    Overloaded,
    /// The request's deadline passed before it reached the model; it was
    /// shed unevaluated (HTTP 503 — the server is overloaded, not broken).
    DeadlineExceeded,
    /// The server is shutting down; the request was not evaluated.
    ShuttingDown,
}

impl ServeError {
    /// The HTTP status this error maps to when it reaches a handler.
    pub fn http_status(&self) -> u16 {
        match self {
            ServeError::BadRequest(_) => 400,
            ServeError::BodyTooLarge { .. } => 413,
            ServeError::HeadersTooLarge(_) => 431,
            ServeError::Overloaded | ServeError::DeadlineExceeded | ServeError::ShuttingDown => 503,
            _ => 500,
        }
    }

    /// Whether this error is server pressure the client should retry
    /// after a pause (everything the server answers 503 + `Retry-After`).
    pub fn is_pressure(&self) -> bool {
        self.http_status() == 503
    }

    /// A stable machine-readable slug for access-log records — one word
    /// per failure class, never the free-form message.
    pub fn reason(&self) -> &'static str {
        match self {
            ServeError::Io(_) => "io",
            ServeError::Checkpoint(_) => "checkpoint",
            ServeError::NoSnapshot(_) => "no-snapshot",
            ServeError::UnsupportedModel(_) => "unsupported-model",
            ServeError::BadRequest(_) => "bad-request",
            ServeError::HeadersTooLarge(_) => "headers-too-large",
            ServeError::BodyTooLarge { .. } => "body-too-large",
            ServeError::Overloaded => "overloaded",
            ServeError::DeadlineExceeded => "deadline",
            ServeError::ShuttingDown => "shutting-down",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "I/O error: {e}"),
            ServeError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            ServeError::NoSnapshot(dir) => write!(
                f,
                "no loadable snapshot in {} — train with checkpointing enabled \
                 (or run `dropback-serve prep`) before serving",
                dir.display()
            ),
            ServeError::UnsupportedModel(name) => write!(
                f,
                "model {name:?} cannot be served; serving supports \
                 the MLP zoo entries (mnist-100-100, lenet-300-100)"
            ),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::HeadersTooLarge(msg) => {
                write!(f, "request header block refused: {msg}")
            }
            ServeError::BodyTooLarge { got, limit } => {
                write!(f, "body of {got} bytes exceeds the {limit}-byte limit")
            }
            ServeError::Overloaded => {
                write!(f, "request queue is full; retry later or raise --queue-cap")
            }
            ServeError::DeadlineExceeded => write!(
                f,
                "request deadline passed before evaluation; server is \
                 overloaded — retry with backoff"
            ),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_map_client_faults_to_4xx_and_pressure_to_503() {
        assert_eq!(ServeError::BadRequest("x".into()).http_status(), 400);
        assert_eq!(ServeError::HeadersTooLarge("x".into()).http_status(), 431);
        assert_eq!(
            ServeError::BodyTooLarge { got: 9, limit: 1 }.http_status(),
            413
        );
        assert_eq!(ServeError::Overloaded.http_status(), 503);
        assert_eq!(ServeError::DeadlineExceeded.http_status(), 503);
        assert_eq!(ServeError::ShuttingDown.http_status(), 503);
        for pressure in [
            ServeError::Overloaded,
            ServeError::DeadlineExceeded,
            ServeError::ShuttingDown,
        ] {
            assert!(pressure.is_pressure(), "{pressure} invites a retry");
        }
        assert!(!ServeError::BadRequest("x".into()).is_pressure());
        assert!(!ServeError::BodyTooLarge { got: 9, limit: 1 }.is_pressure());
        assert_eq!(ServeError::NoSnapshot("/tmp".into()).http_status(), 500);
        assert_eq!(
            ServeError::UnsupportedModel("vgg-s-nano".into()).http_status(),
            500
        );
    }

    #[test]
    fn reasons_are_stable_single_word_slugs() {
        for (e, want) in [
            (ServeError::Overloaded, "overloaded"),
            (ServeError::DeadlineExceeded, "deadline"),
            (ServeError::ShuttingDown, "shutting-down"),
            (ServeError::BadRequest("x".into()), "bad-request"),
            (
                ServeError::BodyTooLarge { got: 9, limit: 1 },
                "body-too-large",
            ),
        ] {
            assert_eq!(e.reason(), want);
            assert!(
                e.reason()
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '-'),
                "reasons are log-grep-safe slugs"
            );
        }
    }

    #[test]
    fn messages_are_actionable() {
        let e = ServeError::UnsupportedModel("wrn-nano".into());
        assert!(e.to_string().contains("mnist-100-100"));
        let e = ServeError::NoSnapshot("/data/ckpt".into());
        assert!(e.to_string().contains("/data/ckpt"));
    }
}
