//! Fixed-capacity lane containers: what one vector instruction carries
//! through the memory units, held inline so the cycle loop never
//! heap-allocates for it. A mask register is a 32-bit set, so no
//! instruction has more than [`MAX_SIMD_WIDTH`] lanes.

use glsc_isa::MAX_SIMD_WIDTH;
use std::ops::{Deref, DerefMut};

const _: () = assert!(MAX_SIMD_WIDTH <= u32::BITS as usize, "lane masks are u32");

/// The set bits of `mask`, lowest first.
pub(crate) fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (i < 32).then_some(i)
    })
}

/// One value per lane for the lanes of a mask: the data a vector load
/// delivers to its destination register, or a vector store's source.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneValues {
    mask: u32,
    values: [u32; MAX_SIMD_WIDTH],
}

impl LaneValues {
    /// Every lane of `values`, lane `i` holding `values[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `values` has more than [`MAX_SIMD_WIDTH`] lanes.
    pub fn from_slice(values: &[u32]) -> Self {
        let mut out = Self::default();
        for (lane, &v) in values.iter().enumerate() {
            out.set(lane, v);
        }
        out
    }

    /// The value of `lane`, if it holds one.
    pub fn get(&self, lane: usize) -> Option<u32> {
        ((self.mask >> lane) & 1 != 0).then(|| self.values[lane])
    }

    /// Sets `lane` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= MAX_SIMD_WIDTH`.
    pub fn set(&mut self, lane: usize, value: u32) {
        self.values[lane] = value;
        self.mask |= 1 << lane;
    }

    /// Copies every lane of `other` into this value.
    pub fn merge(&mut self, other: &LaneValues) {
        for (lane, v) in other.iter() {
            self.set(lane, v);
        }
    }

    /// The `(lane, value)` pairs, lowest lane first.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        bits(self.mask).map(|lane| (lane, self.values[lane]))
    }
}

/// The mask, then the value of each of its lanes, lowest first.
impl glsc_wire::Wire for LaneValues {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        w.put_u32(self.mask);
        for (_, v) in self.iter() {
            w.put_u32(v);
        }
    }

    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        let mut out = Self::default();
        for lane in bits(r.get_u32()?) {
            out.set(lane, r.get_u32()?);
        }
        Ok(out)
    }
}

/// A list of at most [`MAX_SIMD_WIDTH`] items held inline: a vector
/// instruction's elements, or its line requests.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LaneList<T> {
    len: u8,
    items: [T; MAX_SIMD_WIDTH],
}

impl<T: Copy + Default> LaneList<T> {
    /// An empty list.
    pub(crate) fn new() -> Self {
        Self {
            len: 0,
            items: [T::default(); MAX_SIMD_WIDTH],
        }
    }

    /// Appends `item`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`MAX_SIMD_WIDTH`] items.
    pub(crate) fn push(&mut self, item: T) {
        self.items[self.len as usize] = item;
        self.len += 1;
    }
}

impl<T> Deref for LaneList<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items[..self.len as usize]
    }
}

impl<T> DerefMut for LaneList<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len as usize]
    }
}

/// Encoded as a `Vec<T>` is: a length, then the items.
impl<T: glsc_wire::Wire + Copy + Default> glsc_wire::Wire for LaneList<T> {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        w.put_u64(self.len() as u64);
        for item in self.iter() {
            item.encode(w);
        }
    }

    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        let at = r.pos();
        let n = r.get_len()?;
        if n > MAX_SIMD_WIDTH {
            return Err(glsc_wire::WireError::Invalid {
                at,
                what: "lane list length",
            });
        }
        let mut out = Self::new();
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_values_hold_only_their_lanes() {
        let mut a = LaneValues::default();
        a.set(31, 7);
        a.set(2, 5);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(2, 5), (31, 7)]);
        assert_eq!((a.get(2), a.get(3)), (Some(5), None));
        let mut b = LaneValues::from_slice(&[1, 2]);
        b.merge(&a);
        let got: Vec<_> = b.iter().collect();
        assert_eq!(got, vec![(0, 1), (1, 2), (2, 5), (31, 7)]);
        let back: LaneValues = glsc_wire::from_bytes(&glsc_wire::to_bytes(&b)).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn lane_list_encodes_as_a_vec_and_rejects_overlong_input() {
        let mut l = LaneList::<u64>::new();
        for i in 0..MAX_SIMD_WIDTH as u64 {
            l.push(i * 3);
        }
        let bytes = glsc_wire::to_bytes(&l);
        assert_eq!(bytes, glsc_wire::to_bytes(&l.to_vec()));
        let back: LaneList<u64> = glsc_wire::from_bytes(&bytes).unwrap();
        assert_eq!(&back[..], &l[..]);
        let long = glsc_wire::to_bytes(&vec![0u64; MAX_SIMD_WIDTH + 1]);
        assert!(glsc_wire::from_bytes::<LaneList<u64>>(&long).is_err());
    }
}
