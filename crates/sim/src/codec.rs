//! Durable on-disk encoding of [`MachineSnapshot`]s.
//!
//! The envelope that makes a snapshot safe to trust after a crash:
//!
//! ```text
//! +---------------------+----------------------------------------------+
//! | magic    (8 bytes)  | b"GLSCSNAP"                                  |
//! | version  (u32 LE)   | SNAPSHOT_FORMAT_VERSION                      |
//! | length   (u64 LE)   | payload byte count                           |
//! | payload  (length)   | MachineSnapshot in glsc-wire encoding        |
//! | checksum (u64 LE)   | fnv64 over everything above                  |
//! +---------------------+----------------------------------------------+
//! ```
//!
//! Decoding is strict and typed: wrong magic, a version this build does
//! not speak, a truncated or overlong file, a checksum mismatch and a
//! malformed payload are each their own [`SnapshotCodecError`] — a stale
//! or torn snapshot file is *rejected*, never reinterpreted as machine
//! state. Writers get atomicity from tmp+rename; this layer guarantees
//! that whatever does land under the final name is either the exact
//! captured state or a detectable failure.

use crate::machine::MachineSnapshot;
use std::error::Error;
use std::fmt;

/// Magic string opening every encoded snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"GLSCSNAP";

/// Version tag written into (and required from) every encoded snapshot.
/// Bump whenever any serialized state struct changes shape — old
/// snapshots then decode to [`SnapshotCodecError::VersionMismatch`]
/// instead of being resumed as garbage.
/// v2: memory-order axis — `MemConfig.memory_order`, LSU write buffers
/// and drain counters, oracle state (DESIGN.md §17).
/// v3: a core no longer carries per-thread issue records (the issue stage
/// attributes each cycle on its own visit).
/// v4: a cache tag array no longer carries a touched-set log (machines
/// are never reset for reuse).
/// v5: vector lane data is a lane mask plus values (`LaneValues`): unit-
/// stride parts carry a lane mask, the LSU stages each thread's vector-
/// store data, and GSU slots and blocked threads hold their loaded lanes
/// as `LaneValues`.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 5;

/// Why a byte string failed to decode as a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotCodecError {
    /// The input does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The envelope names a format version this build does not speak.
    VersionMismatch {
        /// Version found in the envelope.
        found: u32,
    },
    /// The input ends before the declared payload + checksum — a torn
    /// write.
    Truncated,
    /// The checksum does not match the bytes — bit rot or a torn write
    /// that happened to keep the length plausible.
    ChecksumMismatch {
        /// Checksum recorded in the envelope.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// The checksum held but the payload does not decode — only possible
    /// across an incompatible build that forgot to bump the version, so
    /// it is reported loudly rather than mapped to a miss.
    Malformed(glsc_wire::WireError),
    /// Decoding succeeded but input bytes remain after the envelope.
    TrailingBytes {
        /// Number of bytes left over.
        extra: usize,
    },
}

impl fmt::Display for SnapshotCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotCodecError::BadMagic => write!(f, "not a GLSC snapshot (bad magic)"),
            SnapshotCodecError::VersionMismatch { found } => write!(
                f,
                "snapshot format v{found}, this build speaks v{SNAPSHOT_FORMAT_VERSION}"
            ),
            SnapshotCodecError::Truncated => write!(f, "truncated snapshot (torn write)"),
            SnapshotCodecError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch (recorded {expected:#018x}, computed {actual:#018x})"
            ),
            SnapshotCodecError::Malformed(e) => write!(f, "snapshot payload malformed: {e}"),
            SnapshotCodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the snapshot")
            }
        }
    }
}

impl Error for SnapshotCodecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnapshotCodecError::Malformed(e) => Some(e),
            _ => None,
        }
    }
}

impl MachineSnapshot {
    /// Encodes this snapshot in the versioned, checksummed envelope.
    /// [`MachineSnapshot::from_bytes`] inverts this exactly; the
    /// round-trip is bit-identical (pinned by `tests/snapshot_codec.rs`
    /// for every kernel × Fig. 6 shape, fault plans included).
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = glsc_wire::to_bytes(self);
        let mut out = Vec::with_capacity(payload.len() + 28);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        let checksum = glsc_wire::fnv64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes a snapshot previously written by
    /// [`MachineSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SnapshotCodecError`] naming the first problem; see the variants
    /// for the recovery semantics each implies.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotCodecError> {
        const HEADER: usize = 8 + 4 + 8;
        if bytes.len() >= 8 && bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotCodecError::BadMagic);
        }
        if bytes.len() < HEADER {
            // Too short to even hold the envelope: a torn write, unless
            // what little is there already disagrees with the magic. Past
            // 8 bytes the magic was verified above, so it is always a
            // torn write from here.
            return if bytes.len() >= 8 || SNAPSHOT_MAGIC.starts_with(bytes) {
                Err(SnapshotCodecError::Truncated)
            } else {
                Err(SnapshotCodecError::BadMagic)
            };
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotCodecError::VersionMismatch { found: version });
        }
        let len = u64::from_le_bytes(bytes[12..HEADER].try_into().expect("8 bytes"));
        let Some(total) = len
            .checked_add(HEADER as u64 + 8)
            .and_then(|t| usize::try_from(t).ok())
        else {
            return Err(SnapshotCodecError::Truncated);
        };
        if bytes.len() < total {
            return Err(SnapshotCodecError::Truncated);
        }
        if bytes.len() > total {
            return Err(SnapshotCodecError::TrailingBytes {
                extra: bytes.len() - total,
            });
        }
        let body = &bytes[..total - 8];
        let expected = u64::from_le_bytes(bytes[total - 8..].try_into().expect("8 bytes"));
        let actual = glsc_wire::fnv64(body);
        if expected != actual {
            return Err(SnapshotCodecError::ChecksumMismatch { expected, actual });
        }
        glsc_wire::from_bytes(&body[HEADER..]).map_err(SnapshotCodecError::Malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, MachineConfig};

    fn small_snapshot() -> MachineSnapshot {
        let mut b = glsc_isa::ProgramBuilder::new();
        b.li(glsc_isa::Reg::new(2), 5);
        b.halt();
        let mut m = Machine::new(MachineConfig::paper(1, 2, 4));
        m.load_program(b.build().unwrap());
        m.snapshot()
    }

    #[test]
    fn envelope_round_trips() {
        let snap = small_snapshot();
        let bytes = snap.to_bytes();
        let back = MachineSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.cycle(), snap.cycle());
        assert_eq!(back.cfg(), snap.cfg());
    }

    #[test]
    fn rejects_bad_envelopes() {
        let bytes = small_snapshot().to_bytes();
        assert_eq!(
            MachineSnapshot::from_bytes(b"not a snapshot at all").unwrap_err(),
            SnapshotCodecError::BadMagic
        );
        assert_eq!(
            MachineSnapshot::from_bytes(&bytes[..5]).unwrap_err(),
            SnapshotCodecError::Truncated
        );
        // Every truncation point is detected (torn write at any byte).
        for cut in [13, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    MachineSnapshot::from_bytes(&bytes[..cut]),
                    Err(SnapshotCodecError::Truncated | SnapshotCodecError::ChecksumMismatch { .. })
                ),
                "cut at {cut}"
            );
        }
        // Version skew is typed, not garbage state.
        let mut skew = bytes.clone();
        skew[8] = 0xEE;
        assert!(matches!(
            MachineSnapshot::from_bytes(&skew),
            Err(SnapshotCodecError::VersionMismatch { found }) if found != SNAPSHOT_FORMAT_VERSION
        ));
        // A single flipped payload bit is a checksum mismatch.
        let mut flip = bytes.clone();
        let mid = 24 + (flip.len() - 32) / 2;
        flip[mid] ^= 0x40;
        assert!(matches!(
            MachineSnapshot::from_bytes(&flip),
            Err(SnapshotCodecError::ChecksumMismatch { .. })
        ));
        // Trailing garbage after a valid envelope is rejected.
        let mut extra = bytes.clone();
        extra.extend_from_slice(b"xx");
        assert_eq!(
            MachineSnapshot::from_bytes(&extra).unwrap_err(),
            SnapshotCodecError::TrailingBytes { extra: 2 }
        );
    }
}
