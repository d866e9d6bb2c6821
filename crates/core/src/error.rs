//! The unified error type for the ODR crates.
//!
//! Before this type existed, fallible crate boundaries were a mix of
//! `Result<_, String>` (CLI parsing, the check tool) and panic-on-misuse
//! constructors (codec, sync queues). [`OdrError`] is the one enum they all
//! converge on: it implements [`std::error::Error`], so callers compose it
//! with `?` and `Box<dyn Error>` alike, and it is deliberately defined in
//! `odr-core` — the crate every layer already depends on — so no new
//! dependency edges are needed to share it.

use std::error::Error;
use std::fmt;

/// Convenience alias for results carrying [`OdrError`].
pub type OdrResult<T> = Result<T, OdrError>;

/// Every way the ODR stack can fail at a public crate boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum OdrError {
    /// A configuration value was rejected (builder/constructor misuse).
    InvalidConfig {
        /// The offending field, e.g. `"target_fps"`.
        field: &'static str,
        /// Why the value was rejected.
        message: String,
    },
    /// A command-line argument could not be parsed.
    InvalidArg {
        /// Why parsing failed (already includes the offending text).
        message: String,
    },
    /// An operation needed an open queue but the queue was closed.
    QueueClosed {
        /// Which queue, e.g. `"buf1"`.
        queue: &'static str,
    },
    /// A pipeline worker thread failed.
    Thread {
        /// Which thread, e.g. `"client"`.
        thread: &'static str,
        /// What it reported before stopping.
        message: String,
    },
    /// A filesystem operation (e.g. writing a trace) failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error's description.
        message: String,
    },
    /// A wire-protocol violation on the serving surface: truncated or
    /// oversized frames, bad magic, version mismatch, unknown message
    /// types. Decoding malformed bytes must yield this, never a panic.
    Protocol {
        /// What was malformed (already includes offending values).
        message: String,
    },
    /// The serving surface rejected a session at admission: the
    /// colocation fixed point predicts the SLO cannot be met.
    Admission {
        /// Why admission failed (predicted FPS/MtP/load vs the SLO).
        reason: String,
    },
}

impl OdrError {
    /// An [`OdrError::InvalidConfig`] for `field`.
    #[must_use]
    pub fn invalid_config(field: &'static str, message: impl Into<String>) -> OdrError {
        OdrError::InvalidConfig {
            field,
            message: message.into(),
        }
    }

    /// An [`OdrError::InvalidArg`] with the given description.
    #[must_use]
    pub fn arg(message: impl Into<String>) -> OdrError {
        OdrError::InvalidArg {
            message: message.into(),
        }
    }

    /// An [`OdrError::Thread`] failure reported by `thread`.
    #[must_use]
    pub fn thread(thread: &'static str, err: impl fmt::Display) -> OdrError {
        OdrError::Thread {
            thread,
            message: err.to_string(),
        }
    }

    /// An [`OdrError::Io`] failure on `path`.
    #[must_use]
    pub fn io(path: impl Into<String>, err: impl fmt::Display) -> OdrError {
        OdrError::Io {
            path: path.into(),
            message: err.to_string(),
        }
    }

    /// An [`OdrError::Protocol`] violation with the given description.
    #[must_use]
    pub fn protocol(message: impl Into<String>) -> OdrError {
        OdrError::Protocol {
            message: message.into(),
        }
    }

    /// An [`OdrError::Admission`] rejection with the given reason.
    #[must_use]
    pub fn admission(reason: impl Into<String>) -> OdrError {
        OdrError::Admission {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for OdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OdrError::InvalidConfig { field, message } => {
                write!(f, "invalid config `{field}`: {message}")
            }
            OdrError::InvalidArg { message } => write!(f, "invalid argument: {message}"),
            OdrError::QueueClosed { queue } => write!(f, "queue `{queue}` is closed"),
            OdrError::Thread { thread, message } => {
                write!(f, "{thread} thread failed: {message}")
            }
            OdrError::Io { path, message } => write!(f, "io error on `{path}`: {message}"),
            OdrError::Protocol { message } => write!(f, "protocol error: {message}"),
            OdrError::Admission { reason } => write!(f, "admission rejected: {reason}"),
        }
    }
}

impl Error for OdrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure_site() {
        let e = OdrError::invalid_config("target_fps", "must be positive (got 0)");
        assert_eq!(
            e.to_string(),
            "invalid config `target_fps`: must be positive (got 0)"
        );
        assert_eq!(
            OdrError::QueueClosed { queue: "buf1" }.to_string(),
            "queue `buf1` is closed"
        );
        assert_eq!(
            OdrError::thread("client", "decode failed").to_string(),
            "client thread failed: decode failed"
        );
    }

    #[test]
    fn composes_as_a_std_error() {
        fn fallible() -> Result<(), Box<dyn Error>> {
            Err(OdrError::arg("unknown flag --frob"))?;
            Ok(())
        }
        let err = fallible().expect_err("must fail");
        assert!(err.to_string().contains("--frob"));
    }

    #[test]
    fn serving_variants_name_the_contract() {
        let e = OdrError::protocol("body length 99999999 exceeds cap");
        assert_eq!(
            e.to_string(),
            "protocol error: body length 99999999 exceeds cap"
        );
        let e = OdrError::admission("predicted fps 21.4 below SLO 30.0");
        assert_eq!(
            e.to_string(),
            "admission rejected: predicted fps 21.4 below SLO 30.0"
        );
    }
}
