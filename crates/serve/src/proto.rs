//! The framed job protocol `glsc-serve serve` speaks over stdin or a
//! Unix socket.
//!
//! Every message — request or reply — travels in the same `glsc-wire`
//! frame the journal and the job store use:
//!
//! ```text
//! +--------------+------------------+---------------------------+
//! | len (u32 LE) | payload (len)    | fnv64(payload) (u64 LE)   |
//! +--------------+------------------+---------------------------+
//! ```
//!
//! with payloads encoded by `glsc-wire`. Frames are written by
//! [`glsc_wire::frame`]; [`read_frame`] is a streaming reader of its
//! own, because it must check the length against [`MAX_FRAME`] before
//! it sizes a buffer. The reader is the hostile
//! boundary, and every way a frame can be bad maps to a typed
//! [`FrameError`] with an explicit resynchronization rule:
//!
//! * a length prefix over [`MAX_FRAME`] ([`FrameError::Oversized`]) or a
//!   stream that ends mid-frame ([`FrameError::Truncated`]) means frame
//!   boundaries can no longer be trusted — the session stops *reading*,
//!   but every job already accepted still runs and streams durably;
//! * a checksum mismatch ([`FrameError::BadChecksum`]) or an undecodable
//!   payload ([`FrameError::Malformed`]) is confined to one frame — the
//!   declared length still delimited it, so the session replies with a
//!   typed error frame and keeps reading.
//!
//! Nothing in this module allocates from an unvalidated length: reads
//! are capped at [`MAX_FRAME`] before any buffer is sized.
//!
//! [`print_table`] is the one rendering of a reply stream as the sweep
//! table; `sweep` and `client` both print through it.

use glsc_bench::jobspec::WireJobSpec;
use glsc_wire::{fnv64, Wire, WireError};
use std::io::{self, Read, Write};

/// Hard ceiling on a frame's declared payload length (1 MiB). A job
/// spec is tens of bytes and a result frame a few KiB; anything close
/// to this is hostile or garbage.
pub const MAX_FRAME: u32 = 1 << 20;

/// What a client asks of the service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit one job for admission.
    Submit {
        /// Admission priority (higher wins under overload).
        priority: u8,
        /// The job, unvalidated until admission.
        spec: WireJobSpec,
    },
    /// Run everything admitted so far, streaming a result frame per job
    /// and a [`Reply::SweepDone`] summary. Further submissions may
    /// follow on the same session.
    Run,
    /// Close the service cleanly (socket mode: stop accepting clients).
    Shutdown,
}

impl Wire for Request {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        match self {
            Request::Submit { priority, spec } => {
                0u8.encode(w);
                priority.encode(w);
                spec.encode(w);
            }
            Request::Run => 1u8.encode(w),
            Request::Shutdown => 2u8.encode(w),
        }
    }

    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, WireError> {
        let at = r.pos();
        Ok(match u8::decode(r)? {
            0 => Request::Submit {
                priority: u8::decode(r)?,
                spec: WireJobSpec::decode(r)?,
            },
            1 => Request::Run,
            2 => Request::Shutdown,
            _ => {
                return Err(WireError::Invalid {
                    at,
                    what: "request tag",
                })
            }
        })
    }
}

/// What the service sends back. Result frames stream as jobs complete;
/// everything else is a direct response to one request frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// The job holds a queue slot (or already did — resubmission is
    /// idempotent, including of an already-finished job, which will be
    /// answered from the result store without re-running).
    Accepted {
        /// The job's stable id.
        id: String,
    },
    /// Admission control dropped the job. `id` may name the submission
    /// itself or a lower-priority entry evicted in its favor.
    Shed {
        /// The dropped job's id.
        id: String,
        /// Jobs queued at decision time.
        queued: u32,
        /// Queue capacity.
        capacity: u32,
    },
    /// The spec failed validation and was never queued.
    Rejected {
        /// The doomed submission's id (best-effort rendering).
        id: String,
        /// The typed validation failure, rendered.
        reason: String,
    },
    /// A frame could not be read; `detail` names the [`FrameError`].
    FrameError {
        /// What was wrong with the frame.
        detail: String,
    },
    /// A job finished; its result is durable.
    JobDone {
        /// The job's id.
        id: String,
        /// Simulated cycles (the headline number).
        cycles: u64,
        /// The full report as its `glsc-wire` payload
        /// (`glsc_bench::codec::decode_report` reverses it).
        report: Vec<u8>,
        /// Rendered chaos counters when the job ran under a fault plan.
        chaos: Option<String>,
    },
    /// A job ended without a result.
    JobFailed {
        /// The job's id.
        id: String,
        /// Degradation-mode cell: `PANIC`, `DEAD`, `QUAR`, or `SHED`.
        label: String,
        /// Human-readable cause.
        detail: String,
    },
    /// A `Run` barrier finished: every admitted job has streamed either
    /// a [`Reply::JobDone`] or a [`Reply::JobFailed`].
    SweepDone {
        /// Jobs that finished with a result.
        ok: u32,
        /// Jobs that failed (panic/deadline/quarantine).
        failed: u32,
        /// Jobs shed by admission control this session.
        shed: u32,
    },
}

impl Wire for Reply {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        match self {
            Reply::Accepted { id } => {
                0u8.encode(w);
                id.encode(w);
            }
            Reply::Shed {
                id,
                queued,
                capacity,
            } => {
                1u8.encode(w);
                id.encode(w);
                queued.encode(w);
                capacity.encode(w);
            }
            Reply::Rejected { id, reason } => {
                2u8.encode(w);
                id.encode(w);
                reason.encode(w);
            }
            Reply::FrameError { detail } => {
                3u8.encode(w);
                detail.encode(w);
            }
            Reply::JobDone {
                id,
                cycles,
                report,
                chaos,
            } => {
                4u8.encode(w);
                id.encode(w);
                cycles.encode(w);
                report.encode(w);
                chaos.encode(w);
            }
            Reply::JobFailed { id, label, detail } => {
                5u8.encode(w);
                id.encode(w);
                label.encode(w);
                detail.encode(w);
            }
            Reply::SweepDone { ok, failed, shed } => {
                6u8.encode(w);
                ok.encode(w);
                failed.encode(w);
                shed.encode(w);
            }
        }
    }

    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, WireError> {
        let at = r.pos();
        Ok(match u8::decode(r)? {
            0 => Reply::Accepted {
                id: String::decode(r)?,
            },
            1 => Reply::Shed {
                id: String::decode(r)?,
                queued: u32::decode(r)?,
                capacity: u32::decode(r)?,
            },
            2 => Reply::Rejected {
                id: String::decode(r)?,
                reason: String::decode(r)?,
            },
            3 => Reply::FrameError {
                detail: String::decode(r)?,
            },
            4 => Reply::JobDone {
                id: String::decode(r)?,
                cycles: u64::decode(r)?,
                report: Vec::<u8>::decode(r)?,
                chaos: Option::<String>::decode(r)?,
            },
            5 => Reply::JobFailed {
                id: String::decode(r)?,
                label: String::decode(r)?,
                detail: String::decode(r)?,
            },
            6 => Reply::SweepDone {
                ok: u32::decode(r)?,
                failed: u32::decode(r)?,
                shed: u32::decode(r)?,
            },
            _ => {
                return Err(WireError::Invalid {
                    at,
                    what: "reply tag",
                })
            }
        })
    }
}

/// Renders a sweep's result table from a session's reply frames: a
/// header, one row per id in `ids` (submission order), and a summary.
///
/// A later reply for an id overrides an earlier one, so a job's result
/// replaces a `Shed` it got before it was resubmitted; an id with no
/// reply renders as `ERR not reached`, and replies for ids outside
/// `ids` (jobs restored from the journal) are not shown. The bytes are
/// deterministic — no paths, timestamps or host state — so a sweep
/// recovered from any crash history prints what an uninterrupted one
/// does. Failed rows carry the degradation-mode cell (`PANIC`, `DEAD`,
/// `QUAR`, `SHED`, `REJ`), never a conflated `ERR`. Returns the number
/// of failed rows.
pub fn print_table(ids: &[String], replies: &[Reply], out: &mut impl Write) -> usize {
    let mut rows: std::collections::HashMap<&str, &Reply> = std::collections::HashMap::new();
    for reply in replies {
        match reply {
            Reply::Shed { id, .. }
            | Reply::Rejected { id, .. }
            | Reply::JobDone { id, .. }
            | Reply::JobFailed { id, .. } => {
                rows.insert(id, reply);
            }
            Reply::Accepted { .. } | Reply::FrameError { .. } | Reply::SweepDone { .. } => {}
        }
    }
    let width = ids.iter().map(String::len).max().unwrap_or(0).max(3);
    let _ = writeln!(out, "=== glsc-serve sweep: {} job(s) ===", ids.len());
    let mut failed = 0usize;
    for id in ids {
        let row = rows.get(id.as_str());
        if let Some(Reply::JobDone { cycles, chaos, .. }) = row {
            let _ = writeln!(out, "{id:<width$}  {cycles:>12} cycles");
            if let Some(chaos) = chaos {
                let _ = writeln!(out, "{:<width$}  chaos: {chaos}", "");
            }
            continue;
        }
        failed += 1;
        let cell = match row {
            Some(Reply::JobFailed { label, detail, .. }) => format!("{label} {detail}"),
            Some(Reply::Shed {
                queued, capacity, ..
            }) => format!("SHED shed by admission control (queue {queued}/{capacity})"),
            Some(Reply::Rejected { reason, .. }) => format!("REJ {reason}"),
            _ => "ERR not reached".to_string(),
        };
        let _ = writeln!(out, "{id:<width$}  {cell}");
    }
    let _ = writeln!(out, "== {} ok, {failed} failed ==", ids.len() - failed);
    failed
}

/// Why a frame could not be read. See the [module docs](self) for which
/// variants end the session's read loop and which are confined to one
/// frame.
#[derive(Debug)]
pub enum FrameError {
    /// Declared payload length exceeds [`MAX_FRAME`]. Fatal to the read
    /// loop: skipping the declared span would mean trusting the hostile
    /// length.
    Oversized {
        /// The declared length.
        declared: u32,
    },
    /// The stream ended inside a frame. Fatal to the read loop.
    Truncated,
    /// The payload's FNV-64 digest does not match the trailer. Confined
    /// to this frame.
    BadChecksum,
    /// The payload decoded to garbage. Confined to this frame.
    Malformed(WireError),
    /// The transport itself failed (client gone, pipe closed).
    Io(io::Error),
}

impl FrameError {
    /// True when the read loop can keep going after this error (frame
    /// boundaries are still trustworthy).
    pub fn is_resyncable(&self) -> bool {
        matches!(self, FrameError::BadChecksum | FrameError::Malformed(_))
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { declared } => {
                write!(f, "frame length {declared} exceeds the {MAX_FRAME} cap")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::Malformed(e) => write!(f, "malformed payload: {e}"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

/// Writes `payload` as one frame.
pub fn write_frame(w: &mut (impl Write + ?Sized), payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() as u64 <= MAX_FRAME as u64);
    w.write_all(&glsc_wire::frame(payload))?;
    w.flush()
}

/// Writes one wire-encodable message as a frame.
pub fn write_message<T: Wire>(w: &mut (impl Write + ?Sized), msg: &T) -> io::Result<()> {
    write_frame(w, &glsc_wire::to_bytes(msg))
}

/// Reads one frame's payload. `Ok(None)` is a clean end of stream (EOF
/// exactly on a frame boundary); anything else that isn't a whole,
/// checksummed frame is a typed [`FrameError`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header) {
        Ok(Filled::Eof) => return Ok(None),
        Ok(Filled::Partial) => return Err(FrameError::Truncated),
        Ok(Filled::Full) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    let declared = u32::from_le_bytes(header);
    if declared > MAX_FRAME {
        return Err(FrameError::Oversized { declared });
    }
    // The allocation is bounded by MAX_FRAME, checked above — a hostile
    // length prefix cannot size this buffer.
    let mut payload = vec![0u8; declared as usize];
    match read_exact_or_eof(r, &mut payload) {
        Ok(Filled::Full) => {}
        Ok(_) => return Err(FrameError::Truncated),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let mut trailer = [0u8; 8];
    match read_exact_or_eof(r, &mut trailer) {
        Ok(Filled::Full) => {}
        Ok(_) => return Err(FrameError::Truncated),
        Err(e) => return Err(FrameError::Io(e)),
    }
    if fnv64(&payload) != u64::from_le_bytes(trailer) {
        return Err(FrameError::BadChecksum);
    }
    Ok(Some(payload))
}

/// Reads one message, decoding the frame payload as `T`.
pub fn read_message<T: Wire>(r: &mut impl Read) -> Result<Option<T>, FrameError> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    match glsc_wire::from_bytes::<T>(&payload) {
        Ok(msg) => Ok(Some(msg)),
        Err(e) => Err(FrameError::Malformed(e)),
    }
}

enum Filled {
    Full,
    Partial,
    Eof,
}

/// `read_exact`, but distinguishing "EOF before any byte" from "EOF
/// mid-buffer" — the former is a clean end of stream at a frame
/// boundary, the latter a truncated frame.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<Filled> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    Filled::Eof
                } else {
                    Filled::Partial
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Filled::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsc_kernels::{Dataset, Variant};

    fn sample_request() -> Request {
        Request::Submit {
            priority: 3,
            spec: WireJobSpec::kernel("GBC", Dataset::Tiny, Variant::Base, (2, 2), 4),
        }
    }

    #[test]
    fn request_and_reply_roundtrip_through_frames() {
        let mut buf = Vec::new();
        write_message(&mut buf, &sample_request()).unwrap();
        write_message(&mut buf, &Request::Run).unwrap();
        let reply = Reply::JobDone {
            id: "GBC-T-base-2x2-w4".into(),
            cycles: 12_345,
            report: b"report-body".to_vec(),
            chaos: Some("injection_points: 3".into()),
        };
        write_message(&mut buf, &reply).unwrap();

        let mut r = &buf[..];
        assert_eq!(
            read_message::<Request>(&mut r).unwrap(),
            Some(sample_request())
        );
        assert_eq!(read_message::<Request>(&mut r).unwrap(), Some(Request::Run));
        assert_eq!(read_message::<Reply>(&mut r).unwrap(), Some(reply));
        assert!(read_message::<Request>(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_truncated_and_corrupt_frames_are_typed() {
        // Oversized declared length: no allocation, typed error.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(FrameError::Oversized { declared: u32::MAX })
        ));

        // EOF mid-header, mid-payload, mid-trailer: all Truncated.
        let mut whole = Vec::new();
        write_message(&mut whole, &Request::Run).unwrap();
        for cut in 1..whole.len() {
            let e = read_frame(&mut &whole[..cut]).unwrap_err();
            assert!(matches!(e, FrameError::Truncated), "cut {cut}: {e}");
            assert!(!e.is_resyncable());
        }

        // A flipped payload byte is a checksum error, and resyncable.
        let mut corrupt = whole.clone();
        corrupt[4] ^= 0xFF;
        let e = read_frame(&mut &corrupt[..]).unwrap_err();
        assert!(matches!(e, FrameError::BadChecksum));
        assert!(e.is_resyncable());

        // A well-framed but undecodable payload is Malformed, resyncable.
        let mut bad = Vec::new();
        write_frame(&mut bad, &[0xEE, 0xEE, 0xEE]).unwrap();
        let e = read_message::<Request>(&mut &bad[..]).unwrap_err();
        assert!(matches!(e, FrameError::Malformed(_)));
        assert!(e.is_resyncable());
    }

    #[test]
    fn resync_after_bad_checksum_reads_the_next_frame() {
        let mut buf = Vec::new();
        write_message(&mut buf, &sample_request()).unwrap();
        let first_len = buf.len();
        write_message(&mut buf, &Request::Shutdown).unwrap();
        buf[5] ^= 0x40; // corrupt the first frame's payload
        let mut r = &buf[..];
        assert!(matches!(
            read_message::<Request>(&mut r),
            Err(FrameError::BadChecksum)
        ));
        // The declared length still delimited the bad frame: the next
        // read lands exactly on the second frame.
        assert_eq!(buf.len() - r.len(), first_len);
        assert_eq!(
            read_message::<Request>(&mut r).unwrap(),
            Some(Request::Shutdown)
        );
    }
}
