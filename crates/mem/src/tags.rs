//! Generic set-associative tag array with LRU replacement.
//!
//! Used for both the L1 caches (payload: coherence state + GLSC
//! reservation) and the L2 banks (payload: directory state). Only tags are
//! stored — data lives in [`crate::Backing`].

use crate::config::LineInterleave;

/// A set-associative array of cache tags with true-LRU replacement.
#[derive(Clone, Debug)]
pub struct TagArray<P> {
    sets: Vec<Vec<Slot<P>>>,
    assoc: usize,
    /// Line-to-set mapping, fixed by the set count.
    index: LineInterleave,
    stamp: u64,
}

#[derive(Clone, Debug)]
struct Slot<P> {
    line: u64,
    lru: u64,
    payload: P,
}

impl<P> TagArray<P> {
    /// Creates a tag array with `sets` sets of `assoc` ways. A set's ways
    /// are allocated on its first insert,
    /// so a set no run has touched costs only its empty `Vec` header (the
    /// paper's 16 MB, 8-way L2 has 32,768 sets across its banks).
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is zero or `sets` is not a power of two.
    pub fn new(sets: usize, assoc: usize) -> Self {
        assert!(assoc > 0, "cache geometry must be non-zero");
        Self {
            sets: (0..sets).map(|_| Vec::new()).collect(),
            assoc,
            index: LineInterleave::new(sets),
            stamp: 0,
        }
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// The set index for a line address.
    #[inline]
    pub fn set_index(&self, line: u64) -> usize {
        self.index.index(line)
    }

    fn bump(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Looks up a line without touching LRU state.
    pub fn peek(&self, line: u64) -> Option<&P> {
        let set = &self.sets[self.set_index(line)];
        set.iter().find(|s| s.line == line).map(|s| &s.payload)
    }

    /// Looks up a line, marking it most-recently-used on hit.
    pub fn lookup_mut(&mut self, line: u64) -> Option<&mut P> {
        let stamp = self.bump();
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        for s in set.iter_mut() {
            if s.line == line {
                s.lru = stamp;
                return Some(&mut s.payload);
            }
        }
        None
    }

    /// Mutable access without an LRU touch (e.g. for snoops/invalidation
    /// side effects that should not perturb replacement).
    pub fn peek_mut(&mut self, line: u64) -> Option<&mut P> {
        let idx = self.set_index(line);
        self.sets[idx]
            .iter_mut()
            .find(|s| s.line == line)
            .map(|s| &mut s.payload)
    }

    /// Inserts a line (which must not already be present), evicting the LRU
    /// way if the set is full. Returns the evicted `(line, payload)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is already present.
    pub fn insert(&mut self, line: u64, payload: P) -> Option<(u64, P)> {
        debug_assert!(self.peek(line).is_none(), "line {line:#x} already present");
        let stamp = self.bump();
        let assoc = self.assoc;
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        if set.capacity() == 0 {
            set.reserve_exact(assoc);
        }
        let evicted = if set.len() >= assoc {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.lru)
                .map(|(i, _)| i)
                .expect("non-empty set");
            let v = set.swap_remove(victim);
            Some((v.line, v.payload))
        } else {
            None
        };
        set.push(Slot {
            line,
            lru: stamp,
            payload,
        });
        evicted
    }

    /// Removes a line, returning its payload.
    pub fn invalidate(&mut self, line: u64) -> Option<P> {
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        set.iter()
            .position(|s| s.line == line)
            .map(|i| set.swap_remove(i).payload)
    }

    /// Iterates over all resident `(line, payload)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &P)> {
        self.sets.iter().flatten().map(|s| (s.line, &s.payload))
    }

    /// Iterates mutably over all resident `(line, payload)` pairs (no LRU
    /// side effects).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut P)> {
        self.sets
            .iter_mut()
            .flatten()
            .map(|s| (s.line, &mut s.payload))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the array holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---- wire serialization --------------------------------------------------

impl<P: glsc_wire::Wire> glsc_wire::Wire for Slot<P> {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        let Self { line, lru, payload } = self;
        line.encode(w);
        lru.encode(w);
        payload.encode(w);
    }
    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        Ok(Self {
            line: glsc_wire::Wire::decode(r)?,
            lru: glsc_wire::Wire::decode(r)?,
            payload: glsc_wire::Wire::decode(r)?,
        })
    }
}

// The LRU `stamp` and per-set slot order are encoded exactly: replacement
// decisions depend on them, so a round-tripped array must not merely hold
// the same lines but age and evict them identically. The set index is not
// encoded: it is rebuilt from the set count (the length of `sets`), after
// checking it is a power of two, on decode.
impl<P: glsc_wire::Wire> glsc_wire::Wire for TagArray<P> {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        let Self {
            sets,
            assoc,
            index: _,
            stamp,
        } = self;
        sets.encode(w);
        assoc.encode(w);
        stamp.encode(w);
    }
    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        let at = r.pos();
        let sets: Vec<Vec<Slot<P>>> = glsc_wire::Wire::decode(r)?;
        let index = LineInterleave::checked(sets.len()).ok_or(glsc_wire::WireError::Invalid {
            at,
            what: "tag array geometry",
        })?;
        let assoc = glsc_wire::Wire::decode(r)?;
        Ok(Self {
            index,
            sets,
            assoc,
            stamp: glsc_wire::Wire::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> TagArray<u32> {
        TagArray::new(2, 2)
    }

    #[test]
    fn hit_and_miss() {
        let mut a = arr();
        assert!(a.lookup_mut(0).is_none());
        a.insert(0, 10);
        assert_eq!(a.lookup_mut(0), Some(&mut 10));
        assert_eq!(a.peek(0), Some(&10));
        assert!(a.peek(64).is_none());
    }

    #[test]
    fn same_set_lines_evict_lru() {
        let mut a = arr();
        // Lines 0, 128, 256 all map to set 0 (2 sets of 64B lines).
        a.insert(0, 1);
        a.insert(128, 2);
        // Touch line 0 so 128 becomes LRU.
        a.lookup_mut(0);
        let evicted = a.insert(256, 3);
        assert_eq!(evicted, Some((128, 2)));
        assert!(a.peek(0).is_some());
        assert!(a.peek(256).is_some());
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut a = arr();
        a.insert(0, 1);
        a.insert(64, 2); // set 1
        a.insert(128, 3); // set 0
        assert_eq!(a.len(), 3);
        assert!(a.insert(192, 4).is_none()); // set 1, second way
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn invalidate_removes() {
        let mut a = arr();
        a.insert(0, 1);
        assert_eq!(a.invalidate(0), Some(1));
        assert_eq!(a.invalidate(0), None);
        assert!(a.is_empty());
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut a = arr();
        a.insert(0, 1);
        a.insert(128, 2);
        // peek line 0: should NOT protect it.
        let _ = a.peek(0);
        let evicted = a.insert(256, 3);
        assert_eq!(evicted, Some((0, 1)));
    }

    #[test]
    fn decode_rejects_a_non_power_of_two_set_count() {
        let mut a = arr();
        a.insert(64, 7);
        let bytes = glsc_wire::to_bytes(&a);
        let back: TagArray<u32> = glsc_wire::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.peek(64), Some(&7));
        assert_eq!(back.set_index(64), 1);
        // Three sets: a corrupt snapshot, refused as a wire error.
        let mut w = glsc_wire::Writer::new();
        glsc_wire::Wire::encode(&vec![Vec::<Slot<u32>>::new(); 3], &mut w);
        glsc_wire::Wire::encode(&2usize, &mut w);
        glsc_wire::Wire::encode(&0u64, &mut w);
        assert!(glsc_wire::from_bytes::<TagArray<u32>>(&w.into_bytes()).is_err());
    }

    #[test]
    fn iter_and_len() {
        let mut a = arr();
        a.insert(0, 1);
        a.insert(64, 2);
        let mut lines: Vec<u64> = a.iter().map(|(l, _)| l).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 64]);
    }
}
