//! Generic set-associative tag array with LRU replacement.
//!
//! Used for both the L1 caches (payload: coherence state + GLSC
//! reservation) and the L2 banks (payload: directory state). Only tags are
//! stored — data lives in [`crate::Backing`].

use crate::config::LineInterleave;
use std::ops::Range;

/// Ways a set takes on its first insert; it grows to the full
/// associativity when they fill.
const FIRST_WAYS: usize = 4;
/// The head of a set no insert has touched.
const NO_WAYS: u32 = u32::MAX;
/// Head bit: the set's ways have grown to the full associativity.
const GROWN: u32 = 1 << 31;
/// The line of an empty way. Line addresses are line-aligned, so no
/// lookup ever matches it.
const EMPTY: u64 = u64::MAX;

/// A set-associative array of cache tags with true-LRU replacement.
///
/// Every set's ways live in one slab. A set's 4-byte head says where its
/// ways start and whether they have grown: a set takes
/// `min(4, assoc)` ways on its first insert and moves to a run of
/// `assoc` ways at the end of the slab when those fill, so a set no run
/// touches costs only its head (the paper's 16 MB, 8-way L2 has 32,768
/// sets across its banks). A set's resident lines come first in its
/// ways, in the order a `Vec` of them would hold: an insert appends, and
/// an eviction or invalidation moves the set's last line into the hole.
#[derive(Clone, Debug)]
pub struct TagArray<P> {
    /// Per set: the slab index of its first way, with [`GROWN`] set once
    /// it holds `assoc` ways; [`NO_WAYS`] before its first insert.
    heads: Vec<u32>,
    /// Every touched set's ways, in the order the sets took or grew
    /// them; [`EMPTY`] lines are free ways. A grown set leaves its first
    /// ways behind unused.
    ways: Vec<Slot<P>>,
    assoc: usize,
    /// Line-to-set mapping, fixed by the set count.
    index: LineInterleave,
    stamp: u64,
}

#[derive(Clone, Copy, Debug)]
struct Slot<P> {
    line: u64,
    lru: u64,
    payload: P,
}

impl<P: Copy> TagArray<P> {
    /// Creates a tag array with `sets` sets of `assoc` ways. A set's ways
    /// are allocated on its first insert.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is zero or `sets` is not a power of two.
    pub fn new(sets: usize, assoc: usize) -> Self {
        assert!(assoc > 0, "cache geometry must be non-zero");
        Self {
            heads: vec![NO_WAYS; sets],
            ways: Vec::new(),
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

    /// The slab range of set `set`'s ways (empty before its first insert).
    #[inline]
    fn ways_of(&self, set: usize) -> Range<usize> {
        let head = self.heads[set];
        if head == NO_WAYS {
            return 0..0;
        }
        let start = (head & !GROWN) as usize;
        let ways = if head & GROWN != 0 {
            self.assoc
        } else {
            self.assoc.min(FIRST_WAYS)
        };
        start..start + ways
    }

    /// Set `set`'s resident lines, in order.
    fn resident(&self, set: usize) -> &[Slot<P>] {
        let ways = &self.ways[self.ways_of(set)];
        &ways[..occupied(ways)]
    }

    /// [`resident`](Self::resident), mutably.
    fn resident_mut(&mut self, set: usize) -> &mut [Slot<P>] {
        let ways = self.ways_of(set);
        let ways = &mut self.ways[ways];
        let len = occupied(ways);
        &mut ways[..len]
    }

    /// Looks up a line without touching LRU state.
    pub fn peek(&self, line: u64) -> Option<&P> {
        let ways = self.ways_of(self.set_index(line));
        self.ways[ways]
            .iter()
            .find(|s| s.line == line)
            .map(|s| &s.payload)
    }

    /// Looks up a line, marking it most-recently-used on hit.
    pub fn lookup_mut(&mut self, line: u64) -> Option<&mut P> {
        let stamp = self.bump();
        let ways = self.ways_of(self.set_index(line));
        let slot = self.ways[ways].iter_mut().find(|s| s.line == line)?;
        slot.lru = stamp;
        Some(&mut slot.payload)
    }

    /// Mutable access without an LRU touch (e.g. for snoops/invalidation
    /// side effects that should not perturb replacement).
    pub fn peek_mut(&mut self, line: u64) -> Option<&mut P> {
        let ways = self.ways_of(self.set_index(line));
        self.ways[ways]
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
        debug_assert!(line != EMPTY, "{line:#x} is not a line address");
        debug_assert!(self.peek(line).is_none(), "line {line:#x} already present");
        let lru = self.bump();
        let slot = Slot { line, lru, payload };
        let set = self.set_index(line);
        if self.append(set, slot) {
            return None;
        }
        // Full: the LRU way leaves, the set's last line takes its place,
        // and the new line goes last.
        let ways = self.ways_of(set);
        let ways = &mut self.ways[ways];
        let victim = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.lru)
            .map(|(i, _)| i)
            .expect("non-empty set");
        let last = ways.len() - 1;
        ways.swap(victim, last);
        let evicted = std::mem::replace(&mut ways[last], slot);
        Some((evicted.line, evicted.payload))
    }

    /// Puts `slot` after set `set`'s resident lines. When its ways are
    /// all resident and fewer than `assoc`, the set first moves to a
    /// fresh run of ways at the end of the slab: `min(4, assoc)` on its
    /// first insert, `assoc` after. Returns `false`, changing nothing,
    /// when the set already holds `assoc` lines.
    fn append(&mut self, set: usize, slot: Slot<P>) -> bool {
        let ways = self.ways_of(set);
        if let Some(way) = self.ways[ways.clone()].iter().position(|s| s.line == EMPTY) {
            self.ways[ways.start + way] = slot;
            return true;
        }
        if ways.len() == self.assoc {
            return false;
        }
        let (size, grown) = if ways.is_empty() {
            (self.assoc.min(FIRST_WAYS), 0)
        } else {
            (self.assoc, GROWN)
        };
        let start = self.ways.len();
        let head = u32::try_from(start)
            .ok()
            .filter(|&s| s & GROWN == 0)
            .expect("a tag array holds fewer than 2^31 ways");
        self.ways.reserve(size);
        self.ways.extend_from_within(ways);
        self.ways.push(slot);
        let empty = Slot {
            line: EMPTY,
            ..slot
        };
        self.ways.resize(start + size, empty);
        self.heads[set] = head | grown;
        true
    }

    /// Removes a line, returning its payload.
    pub fn invalidate(&mut self, line: u64) -> Option<P> {
        let lines = self.resident_mut(self.set_index(line));
        let way = lines.iter().position(|s| s.line == line)?;
        let last = lines.len() - 1;
        lines.swap(way, last);
        lines[last].line = EMPTY;
        Some(lines[last].payload)
    }

    /// Iterates over all resident `(line, payload)` pairs, set by set.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &P)> {
        (0..self.heads.len())
            .flat_map(move |set| self.resident(set))
            .map(|s| (s.line, &s.payload))
    }

    /// Visits every resident `(line, payload)` pair mutably, in
    /// [`iter`](Self::iter) order (no LRU side effects).
    pub fn for_each_mut(&mut self, mut f: impl FnMut(u64, &mut P)) {
        for set in 0..self.heads.len() {
            for s in self.resident_mut(set) {
                f(s.line, &mut s.payload);
            }
        }
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        (0..self.heads.len())
            .map(|set| self.resident(set).len())
            .sum()
    }

    /// Whether the array holds no lines.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

/// How many of a set's ways hold lines: its resident lines come first.
fn occupied<P>(ways: &[Slot<P>]) -> usize {
    ways.iter()
        .position(|s| s.line == EMPTY)
        .unwrap_or(ways.len())
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

// Encoded as a list of sets, each the list of its resident lines in way
// order, then the associativity and the LRU `stamp`: replacement
// decisions depend on the stamps and the way order, so a round-tripped
// array must not merely hold the same lines but age and evict them
// identically. The slab layout is not encoded: decode lays each set out
// as its first insert and growth would have. The set index is rebuilt
// from the set count, after checking it is a power of two.
impl<P: glsc_wire::Wire + Copy> glsc_wire::Wire for TagArray<P> {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        self.heads.len().encode(w);
        for set in 0..self.heads.len() {
            let resident = self.resident(set);
            resident.len().encode(w);
            for slot in resident {
                slot.encode(w);
            }
        }
        self.assoc.encode(w);
        self.stamp.encode(w);
    }
    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        let at = r.pos();
        let sets: Vec<Vec<Slot<P>>> = glsc_wire::Wire::decode(r)?;
        let geometry = glsc_wire::WireError::Invalid {
            at,
            what: "tag array geometry",
        };
        let index = LineInterleave::checked(sets.len()).ok_or(geometry.clone())?;
        let assoc: usize = glsc_wire::Wire::decode(r)?;
        if assoc == 0 {
            return Err(geometry);
        }
        let mut array = Self {
            heads: vec![NO_WAYS; sets.len()],
            ways: Vec::new(),
            assoc,
            index,
            stamp: glsc_wire::Wire::decode(r)?,
        };
        for (set, slots) in sets.into_iter().enumerate() {
            for slot in slots {
                // A set holds at most `assoc` lines, none of them `EMPTY`.
                if slot.line == EMPTY || !array.append(set, slot) {
                    return Err(geometry);
                }
            }
        }
        Ok(array)
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

    /// The tag array as a `Vec` of sets, each a `Vec` of its ways: the
    /// layout the slab replaced, with its replacement and wire encoding.
    struct Model {
        sets: Vec<Vec<Slot<u32>>>,
        assoc: usize,
        stamp: u64,
    }

    impl Model {
        fn set(&self, line: u64) -> usize {
            (line / crate::LINE_BYTES) as usize % self.sets.len()
        }

        fn lookup_mut(&mut self, line: u64) -> Option<&mut u32> {
            self.stamp += 1;
            let (stamp, set) = (self.stamp, self.set(line));
            let slot = self.sets[set].iter_mut().find(|s| s.line == line)?;
            slot.lru = stamp;
            Some(&mut slot.payload)
        }

        fn insert(&mut self, line: u64, payload: u32) -> Option<(u64, u32)> {
            self.stamp += 1;
            let (lru, assoc, set) = (self.stamp, self.assoc, self.set(line));
            let set = &mut self.sets[set];
            let evicted = (set.len() >= assoc).then(|| {
                let victim = (0..set.len()).min_by_key(|&i| set[i].lru).unwrap();
                let v = set.swap_remove(victim);
                (v.line, v.payload)
            });
            set.push(Slot { line, lru, payload });
            evicted
        }

        fn invalidate(&mut self, line: u64) -> Option<u32> {
            let set = self.set(line);
            let set = &mut self.sets[set];
            let way = set.iter().position(|s| s.line == line)?;
            Some(set.swap_remove(way).payload)
        }

        fn lines(&self) -> Vec<(u64, u32)> {
            self.sets
                .iter()
                .flatten()
                .map(|s| (s.line, s.payload))
                .collect()
        }

        fn to_bytes(&self) -> Vec<u8> {
            let mut w = glsc_wire::Writer::new();
            glsc_wire::Wire::encode(&self.sets, &mut w);
            glsc_wire::Wire::encode(&self.assoc, &mut w);
            glsc_wire::Wire::encode(&self.stamp, &mut w);
            w.into_bytes()
        }
    }

    #[test]
    fn slab_matches_a_vec_of_sets_on_random_operations() {
        use glsc_rng::rngs::StdRng;
        use glsc_rng::{Rng, SeedableRng};
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(0x7A65 ^ seed);
            let sets = [1, 2, 4, 8][rng.random_range(0..4usize)];
            let assoc = [1, 2, 3, 4, 5, 8, 12][rng.random_range(0..7usize)];
            let mut a = TagArray::<u32>::new(sets, assoc);
            let mut m = Model {
                sets: vec![Vec::new(); sets],
                assoc,
                stamp: 0,
            };
            let lines = 3 * (sets * assoc) as u64;
            for step in 0..400 {
                let line = rng.random_range(0..lines) * crate::LINE_BYTES;
                let at = format!("seed {seed}, step {step}, line {line:#x}");
                match rng.random_range(0..4u32) {
                    0 if a.peek(line).is_none() => {
                        let payload: u32 = rng.random();
                        assert_eq!(a.insert(line, payload), m.insert(line, payload), "{at}");
                    }
                    0 | 1 => {
                        let (got, want) = (a.lookup_mut(line), m.lookup_mut(line));
                        assert_eq!(got.as_deref(), want.as_deref(), "{at}");
                        if let (Some(got), Some(want)) = (got, want) {
                            *got += 1;
                            *want += 1;
                        }
                    }
                    2 => {
                        let want = m.sets[m.set(line)].iter().find(|s| s.line == line);
                        assert_eq!(a.peek(line), want.map(|s| &s.payload), "{at}");
                        if let Some(p) = a.peek_mut(line) {
                            *p ^= 1;
                            let set = m.set(line);
                            let slot = m.sets[set].iter_mut().find(|s| s.line == line);
                            slot.unwrap().payload ^= 1;
                        }
                    }
                    _ => assert_eq!(a.invalidate(line), m.invalidate(line), "{at}"),
                }
                let resident: Vec<(u64, u32)> = a.iter().map(|(l, &p)| (l, p)).collect();
                assert_eq!(resident, m.lines(), "{at}");
                assert_eq!(a.len(), resident.len(), "{at}");
                assert_eq!(a.is_empty(), resident.is_empty(), "{at}");
            }
            let mut visited = Vec::new();
            a.for_each_mut(|line, p| visited.push((line, *p)));
            assert_eq!(visited, m.lines(), "seed {seed}");
            let bytes = glsc_wire::to_bytes(&a);
            assert_eq!(bytes, m.to_bytes(), "seed {seed}: wire bytes differ");
            let back: TagArray<u32> = glsc_wire::from_bytes(&bytes).expect("round trip");
            assert_eq!(glsc_wire::to_bytes(&back), bytes, "seed {seed}");
        }
    }

    #[test]
    fn a_set_takes_four_ways_then_grows_to_its_associativity() {
        let mut a = TagArray::<u32>::new(4, 8);
        a.insert(0, 0);
        assert_eq!(a.ways.len(), 4, "first insert takes four ways");
        for i in 1..4 {
            a.insert(i * 4 * crate::LINE_BYTES, 0);
        }
        assert_eq!(a.ways.len(), 4);
        a.insert(16 * crate::LINE_BYTES, 0);
        assert_eq!(
            a.ways.len(),
            12,
            "the fifth line moves the set to eight ways"
        );
        assert_eq!(a.len(), 5);
        assert_eq!(TagArray::<u32>::new(4, 2).ways.capacity(), 0);
    }

    #[test]
    fn decode_rejects_sets_over_their_associativity() {
        let mut w = glsc_wire::Writer::new();
        let slot = Slot {
            line: 0,
            lru: 1,
            payload: 0u32,
        };
        glsc_wire::Wire::encode(&vec![vec![slot; 3], Vec::new()], &mut w);
        glsc_wire::Wire::encode(&2usize, &mut w);
        glsc_wire::Wire::encode(&3u64, &mut w);
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
