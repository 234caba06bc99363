//! The typed error layer of the staged [`Session`](crate::session::Session)
//! API.
//!
//! Construction and stage misuse, snapshot I/O, and snapshot integrity all
//! surface as [`CsnakeError`] values instead of panics, so embedding callers
//! (services, harnesses) can react — retry, fall back to a fresh campaign,
//! or refuse a corrupt checkpoint — without unwinding.

use std::fmt;
use std::io;
use std::path::PathBuf;

use crate::session::Stage;

/// Convenience alias used across the session/snapshot API.
pub type Result<T> = std::result::Result<T, CsnakeError>;

/// Everything that can go wrong constructing, driving, checkpointing or
/// resuming a detection [`Session`](crate::session::Session).
#[derive(Debug)]
pub enum CsnakeError {
    /// A stage method was called out of order (e.g. `stitch()` before
    /// `allocate()`).
    StageOrder {
        /// The stage the session must be in for the call to proceed.
        expected: Stage,
        /// The stage the session is actually in.
        found: Stage,
    },
    /// The target system cannot be driven (no workloads, empty registry).
    InvalidTarget(String),
    /// Reading or writing a snapshot file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying OS error.
        source: io::Error,
    },
    /// The snapshot payload is malformed: bad magic, checksum mismatch, or
    /// an impossible encoded value.
    SnapshotCorrupt(String),
    /// The snapshot file is shorter than its header declares — the classic
    /// signature of a write interrupted by a crash or kill. Distinct from
    /// [`CsnakeError::SnapshotCorrupt`] so a resume path can fall back to an
    /// earlier checkpoint instead of treating the campaign as damaged.
    SnapshotTorn {
        /// Bytes the header (or the minimum container layout) promised.
        expected: u64,
        /// Bytes actually present in the file.
        found: u64,
    },
    /// The snapshot was written by an incompatible format version.
    SnapshotVersion {
        /// Version found in the snapshot header.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// The snapshot was taken from a different target system.
    TargetMismatch {
        /// Target name recorded in the snapshot.
        snapshot: String,
        /// Name of the target the resume was attempted against.
        actual: String,
    },
    /// The target has the right name but a structurally different
    /// fault-point inventory (points added/removed/renumbered since the
    /// snapshot was taken) — resuming would silently corrupt causality.
    RegistryMismatch {
        /// Registry fingerprint recorded in the snapshot.
        snapshot: u64,
        /// Fingerprint of the live target's registry.
        actual: u64,
    },
    /// A mid-phase checkpoint was resumed under a different allocation
    /// strategy than the one that wrote it, which would discard the
    /// checkpointed outcomes.
    StrategyMismatch {
        /// Strategy name recorded in the snapshot.
        snapshot: String,
        /// Name of the strategy the resume was attempted with.
        actual: String,
    },
    /// `resume()` was combined with an explicit `config()` override; a
    /// snapshot carries its own configuration (including every seed), and
    /// silently preferring either one would surprise the caller.
    ConfigOverride,
}

impl fmt::Display for CsnakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsnakeError::StageOrder { expected, found } => write!(
                f,
                "session stage mismatch: operation requires stage {expected:?}, \
                 session is at {found:?}"
            ),
            CsnakeError::InvalidTarget(why) => write!(f, "invalid target system: {why}"),
            CsnakeError::Io { path, source } => {
                write!(f, "snapshot I/O failed for {}: {source}", path.display())
            }
            CsnakeError::SnapshotCorrupt(why) => write!(f, "corrupt snapshot: {why}"),
            CsnakeError::SnapshotTorn { expected, found } => write!(
                f,
                "torn snapshot: file holds {found} bytes but the header \
                 promises {expected} — the write was interrupted; resume \
                 from an earlier checkpoint"
            ),
            CsnakeError::SnapshotVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build supports {supported})"
            ),
            CsnakeError::TargetMismatch { snapshot, actual } => write!(
                f,
                "snapshot was taken from target {snapshot:?} but resume was \
                 attempted against {actual:?}"
            ),
            CsnakeError::RegistryMismatch { snapshot, actual } => write!(
                f,
                "target registry changed since the snapshot was taken \
                 (fingerprint {snapshot:#018x} in snapshot, {actual:#018x} live); \
                 re-run the campaign from scratch"
            ),
            CsnakeError::StrategyMismatch { snapshot, actual } => write!(
                f,
                "mid-phase checkpoint was written by strategy {snapshot:?} but \
                 resume was attempted with {actual:?}"
            ),
            CsnakeError::ConfigOverride => write!(
                f,
                "resume() takes its configuration from the snapshot; remove \
                 the explicit config() override (or build a fresh session)"
            ),
        }
    }
}

impl std::error::Error for CsnakeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsnakeError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CsnakeError::StageOrder {
            expected: Stage::Profiled,
            found: Stage::Built,
        };
        let s = e.to_string();
        assert!(s.contains("Profiled") && s.contains("Built"), "{s}");

        let e = CsnakeError::SnapshotVersion {
            found: 99,
            supported: 1,
        };
        assert!(e.to_string().contains("99"));

        let e = CsnakeError::TargetMismatch {
            snapshot: "mini-hdfs2".into(),
            actual: "toy".into(),
        };
        let s = e.to_string();
        assert!(s.contains("mini-hdfs2") && s.contains("toy"), "{s}");

        let e = CsnakeError::SnapshotTorn {
            expected: 64,
            found: 17,
        };
        let s = e.to_string();
        assert!(s.contains("64") && s.contains("17"), "{s}");
    }

    #[test]
    fn io_variant_exposes_source() {
        use std::error::Error;
        let e = CsnakeError::Io {
            path: PathBuf::from("/tmp/x.csnake"),
            source: io::Error::new(io::ErrorKind::NotFound, "gone"),
        };
        assert!(e.source().is_some());
        assert!(e.to_string().contains("x.csnake"));
    }
}
