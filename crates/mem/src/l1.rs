//! Private L1 data cache with the GLSC reservation extension.
//!
//! §3.3 of the paper describes two implementations of the GLSC entries,
//! and this module provides both (selected by
//! [`MemConfig::glsc_buffer_entries`](crate::MemConfig)):
//!
//! * **Per-line tags** (default): each line entry carries a valid bit per
//!   SMT thread — the paper's "(1 + # of SMT threads) bits per cache
//!   line". Several threads may hold reservations on the same line
//!   simultaneously; any committed store to the line clears them all.
//! * **Fully-associative buffer**: "an alternative implementation of the
//!   GLSC entries would be to hold them in a fully associative buffer ...
//!   The number of entries in this buffer could vary from one to
//!   SIMD-width × # of SMT threads, and so could be made quite small."
//!   Inserting past capacity evicts the oldest entry (its reservations
//!   die — a conservative behavior §3 explicitly allows).
//!
//! The same entries back the scalar load-linked/store-conditional
//! reservation — the paper implements ll/sc through the same mechanism.

use crate::tags::TagArray;
use std::collections::VecDeque;

/// MSI coherence state of an L1 line (Invalid lines are simply absent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L1State {
    /// Shared: readable; a write requires an upgrade at the directory.
    Shared,
    /// Modified: exclusive and dirty.
    Modified,
}

/// Per-line L1 payload: coherence state, fill completion time, and the GLSC
/// reservation entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinePayload {
    /// Coherence state.
    pub state: L1State,
    /// Cycle at which the line's data arrives (for miss-combining: accesses
    /// before this cycle complete at this cycle).
    pub ready_at: u64,
    /// GLSC entry: bit `t` set when SMT thread `t` holds a reservation.
    pub reservation: u8,
}

/// Where GLSC reservations are stored (§3.3's two designs).
#[derive(Clone, Debug)]
enum ReservationStore {
    /// In the per-line tag bits ([`LinePayload::reservation`]).
    PerLine,
    /// In a small fully-associative FIFO buffer of `(line, thread mask)`.
    Buffer {
        entries: VecDeque<(u64, u8)>,
        cap: usize,
        evictions: u64,
    },
}

/// One core's private L1 data cache (tags only).
#[derive(Clone, Debug)]
pub struct L1Cache {
    tags: TagArray<LinePayload>,
    reservations: ReservationStore,
}

impl L1Cache {
    /// Creates an L1 with the given geometry using per-line reservation
    /// tag bits.
    pub fn new(sets: usize, assoc: usize, line_bytes: u64) -> Self {
        Self {
            tags: TagArray::new(sets, assoc, line_bytes),
            reservations: ReservationStore::PerLine,
        }
    }

    /// Creates an L1 whose GLSC entries live in a fully-associative buffer
    /// of `buffer_entries` entries (§3.3's alternative design).
    ///
    /// # Panics
    ///
    /// Panics if `buffer_entries` is zero.
    pub fn with_reservation_buffer(
        sets: usize,
        assoc: usize,
        line_bytes: u64,
        buffer_entries: usize,
    ) -> Self {
        assert!(buffer_entries > 0, "buffer needs at least one entry");
        Self {
            tags: TagArray::new(sets, assoc, line_bytes),
            reservations: ReservationStore::Buffer {
                entries: VecDeque::with_capacity(buffer_entries),
                cap: buffer_entries,
                evictions: 0,
            },
        }
    }

    /// Reservations dropped because the fully-associative buffer was full
    /// (always 0 in per-line mode).
    pub fn reservation_buffer_evictions(&self) -> u64 {
        match &self.reservations {
            ReservationStore::PerLine => 0,
            ReservationStore::Buffer { evictions, .. } => *evictions,
        }
    }

    /// Looks up a line, updating LRU. Returns the payload on hit.
    pub fn lookup_mut(&mut self, line: u64) -> Option<&mut LinePayload> {
        self.tags.lookup_mut(line)
    }

    /// Looks up a line without LRU side effects.
    pub fn peek(&self, line: u64) -> Option<&LinePayload> {
        self.tags.peek(line)
    }

    /// Snoop access (no LRU update).
    pub fn peek_mut(&mut self, line: u64) -> Option<&mut LinePayload> {
        self.tags.peek_mut(line)
    }

    /// Installs a line, returning the evicted `(line, payload)` if any.
    /// Eviction of a line implicitly drops its reservation — one of the
    /// allowed conservative behaviours of §3 ("it is acceptable to have
    /// reservations invalidated ... such as cache line evictions"). In
    /// buffer mode the victim's buffered reservations are folded into the
    /// returned payload so callers can account for them uniformly.
    pub fn install(&mut self, line: u64, payload: LinePayload) -> Option<(u64, LinePayload)> {
        let evicted = self.tags.insert(line, payload);
        evicted.map(|(vline, mut vpay)| {
            vpay.reservation |= self.take_buffered(vline);
            (vline, vpay)
        })
    }

    /// Invalidates a line (coherence or inclusion victim), returning its
    /// payload. Any reservation on it dies with it (buffered reservations
    /// are folded into the returned payload).
    pub fn invalidate(&mut self, line: u64) -> Option<LinePayload> {
        let out = self.tags.invalidate(line);
        let buffered = self.take_buffered(line);
        out.map(|mut p| {
            p.reservation |= buffered;
            p
        })
    }

    /// Removes and returns any buffered reservation mask for `line`.
    fn take_buffered(&mut self, line: u64) -> u8 {
        match &mut self.reservations {
            ReservationStore::PerLine => 0,
            ReservationStore::Buffer { entries, .. } => {
                if let Some(pos) = entries.iter().position(|(l, _)| *l == line) {
                    entries.remove(pos).map_or(0, |(_, m)| m)
                } else {
                    0
                }
            }
        }
    }

    /// Clears every thread's reservation on `line` (a committed store to
    /// the line — from any thread — invalidates all links on it). Returns
    /// `true` if any reservation was held.
    pub fn clear_reservation(&mut self, line: u64) -> bool {
        match &mut self.reservations {
            ReservationStore::PerLine => {
                if let Some(p) = self.tags.peek_mut(line) {
                    let had = p.reservation != 0;
                    p.reservation = 0;
                    had
                } else {
                    false
                }
            }
            ReservationStore::Buffer { .. } => self.take_buffered(line) != 0,
        }
    }

    /// Adds `tid`'s reservation on `line`; other threads' reservations on
    /// the line are unaffected (per-thread valid bits). In per-line mode
    /// the line must be resident; in buffer mode a full buffer evicts its
    /// oldest entry. Returns `true` when the insertion displaced a
    /// buffered reservation (always `false` in per-line mode), so the
    /// memory system can surface §3.3 buffer pressure in its counters.
    pub fn set_reservation(&mut self, line: u64, tid: u8) -> bool {
        match &mut self.reservations {
            ReservationStore::PerLine => {
                if let Some(p) = self.tags.peek_mut(line) {
                    p.reservation |= 1 << tid;
                }
                false
            }
            ReservationStore::Buffer {
                entries,
                cap,
                evictions,
            } => {
                if let Some((_, m)) = entries.iter_mut().find(|(l, _)| *l == line) {
                    *m |= 1 << tid;
                    return false;
                }
                let overflowed = entries.len() >= *cap;
                if overflowed {
                    entries.pop_front();
                    *evictions += 1;
                }
                entries.push_back((line, 1 << tid));
                overflowed
            }
        }
    }

    /// Clears every reservation held in this L1 (a context-switch flush,
    /// one of §3.2's destructive events). Returns the number of lines that
    /// lost at least one reservation.
    pub fn clear_all_reservations(&mut self) -> u64 {
        match &mut self.reservations {
            ReservationStore::PerLine => {
                let mut cleared = 0;
                for (_, p) in self.tags.iter_mut() {
                    if p.reservation != 0 {
                        p.reservation = 0;
                        cleared += 1;
                    }
                }
                cleared
            }
            ReservationStore::Buffer { entries, .. } => {
                let cleared = entries.len() as u64;
                entries.clear();
                cleared
            }
        }
    }

    /// Force-evicts the oldest entry of the §3.3 reservation buffer
    /// (capacity-overflow pressure from a fault injector), counting it as
    /// a buffer eviction. Returns `false` in per-line mode or when the
    /// buffer is empty.
    pub fn force_buffer_eviction(&mut self) -> bool {
        match &mut self.reservations {
            ReservationStore::PerLine => false,
            ReservationStore::Buffer {
                entries, evictions, ..
            } => {
                if entries.pop_front().is_some() {
                    *evictions += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Every live reservation as `(line, thread mask)` pairs, in an
    /// unspecified but fixed order (the fault injector picks its victim by
    /// position). Used by livelock diagnostic dumps and fault injection.
    pub fn reservations(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        let (tags, buffer) = match &self.reservations {
            ReservationStore::PerLine => (Some(self.tags.iter()), None),
            ReservationStore::Buffer { entries, .. } => (None, Some(entries.iter())),
        };
        let tagged = tags
            .into_iter()
            .flatten()
            .filter(|(_, p)| p.reservation != 0)
            .map(|(line, p)| (line, p.reservation));
        tagged.chain(buffer.into_iter().flatten().copied())
    }

    /// Whether `tid` currently holds a reservation on `line`.
    pub fn holds_reservation(&self, line: u64, tid: u8) -> bool {
        match &self.reservations {
            ReservationStore::PerLine => self
                .peek(line)
                .is_some_and(|p| p.reservation & (1 << tid) != 0),
            ReservationStore::Buffer { entries, .. } => entries
                .iter()
                .any(|(l, m)| *l == line && m & (1 << tid) != 0),
        }
    }

    /// Whether any thread holds a reservation on `line` (other than
    /// possibly `except_tid`).
    pub fn other_reservations(&self, line: u64, except_tid: u8) -> bool {
        match &self.reservations {
            ReservationStore::PerLine => self
                .peek(line)
                .is_some_and(|p| p.reservation & !(1 << except_tid) != 0),
            ReservationStore::Buffer { entries, .. } => entries
                .iter()
                .any(|(l, m)| *l == line && m & !(1 << except_tid) != 0),
        }
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Iterates over resident lines.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &LinePayload)> {
        self.tags.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> L1Cache {
        L1Cache::new(4, 2, 64)
    }

    fn pay(state: L1State) -> LinePayload {
        LinePayload {
            state,
            ready_at: 0,
            reservation: 0,
        }
    }

    #[test]
    fn install_lookup_invalidate() {
        let mut c = l1();
        c.install(0, pay(L1State::Shared));
        assert_eq!(c.peek(0).unwrap().state, L1State::Shared);
        assert!(c.invalidate(0).is_some());
        assert!(c.peek(0).is_none());
    }

    #[test]
    fn reservation_lifecycle() {
        let mut c = l1();
        c.install(0, pay(L1State::Shared));
        assert!(!c.holds_reservation(0, 1));
        c.set_reservation(0, 1);
        assert!(c.holds_reservation(0, 1));
        assert!(!c.holds_reservation(0, 2));
        // A second linker coexists with the first (per-thread valid bits).
        c.set_reservation(0, 2);
        assert!(c.holds_reservation(0, 1));
        assert!(c.holds_reservation(0, 2));
        c.clear_reservation(0);
        assert!(!c.holds_reservation(0, 1));
        assert!(!c.holds_reservation(0, 2));
    }

    #[test]
    fn eviction_drops_reservation() {
        let mut c = l1(); // 4 sets x 2 ways, 64B lines: stride 256 shares a set
        c.install(0, pay(L1State::Shared));
        c.set_reservation(0, 0);
        c.install(256, pay(L1State::Shared));
        let evicted = c.install(512, pay(L1State::Shared));
        // line 0 was LRU
        assert_eq!(evicted.unwrap().0, 0);
        assert!(!c.holds_reservation(0, 0));
    }

    #[test]
    fn set_reservation_on_absent_line_is_noop() {
        let mut c = l1();
        c.set_reservation(0, 0);
        assert!(!c.holds_reservation(0, 0));
        c.clear_reservation(64); // no panic
    }
}

// ---- durable-snapshot serialization --------------------------------------

impl glsc_wire::Wire for L1State {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        w.put_u8(match self {
            L1State::Shared => 0,
            L1State::Modified => 1,
        });
    }
    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        let at = r.pos();
        match r.get_u8()? {
            0 => Ok(L1State::Shared),
            1 => Ok(L1State::Modified),
            _ => Err(glsc_wire::WireError::Invalid {
                at,
                what: "L1State tag",
            }),
        }
    }
}

glsc_wire::wire_struct!(LinePayload {
    state,
    ready_at,
    reservation,
});

impl glsc_wire::Wire for ReservationStore {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        match self {
            ReservationStore::PerLine => w.put_u8(0),
            ReservationStore::Buffer {
                entries,
                cap,
                evictions,
            } => {
                w.put_u8(1);
                entries.encode(w);
                cap.encode(w);
                evictions.encode(w);
            }
        }
    }
    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        use glsc_wire::Wire;
        let at = r.pos();
        match r.get_u8()? {
            0 => Ok(ReservationStore::PerLine),
            1 => Ok(ReservationStore::Buffer {
                entries: Wire::decode(r)?,
                cap: Wire::decode(r)?,
                evictions: Wire::decode(r)?,
            }),
            _ => Err(glsc_wire::WireError::Invalid {
                at,
                what: "ReservationStore tag",
            }),
        }
    }
}

glsc_wire::wire_struct!(L1Cache { tags, reservations });
