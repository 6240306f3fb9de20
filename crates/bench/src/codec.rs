//! The [`RunReport`] encoding shared by the job store (`store`) and the
//! service's `JobDone` replies: the report's `glsc-wire` payload. The
//! store wraps it in a checksummed [`glsc_wire::frame`]; the protocol
//! frame around a reply already carries one.

use glsc_sim::RunReport;
use glsc_wire::WireError;

/// Version of the report encoding, carried in every store entry's
/// filename (`{key}.v5.bin`), so an entry written under another field
/// set is never opened. Bump when [`RunReport`]'s wire layout changes.
/// v1–v4 were a line-oriented text format (`{key}.v4.txt`).
pub const FORMAT_VERSION: u32 = 5;

/// Encodes a report; [`decode_report`] inverts it exactly.
pub fn encode_report(r: &RunReport) -> Vec<u8> {
    glsc_wire::to_bytes(r)
}

/// Decodes a report written by [`encode_report`].
///
/// # Errors
///
/// The first [`WireError`]: the bytes end early, a length prefix or
/// enum tag is invalid, or bytes remain after the report.
pub fn decode_report(bytes: &[u8]) -> Result<RunReport, WireError> {
    glsc_wire::from_bytes(bytes)
}
