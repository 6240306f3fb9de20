//! Sparse backing store: the functional memory image.
//!
//! The simulator is execution-driven (paper §4.1): programs compute on real
//! data. Values live here; the cache models in this crate carry only tags
//! and state. Pages are allocated lazily, so programs can use widely
//! separated address regions without cost.
//!
//! A store can additionally be backed by a shared, immutable
//! [`BackingBase`] (DESIGN.md §13): reads fall through to the base, and a
//! write materializes a private copy of the touched page first
//! (copy-on-write). Because the timing model never stores data — only tags —
//! sharing the functional image between runs is timing-neutral. No product
//! code mounts a base any more; the layer stays for the benchmark's fleet
//! replay and its tests.
//!
//! The page map hashes a page number with one multiply (`PageHasher`)
//! rather than the standard library's keyed SipHash: every word a run
//! reads or writes looks its page up here. Keying would buy nothing, as
//! no client chooses page numbers (they come from kernel-built layouts and
//! bounds-checked pattern tables), and map order never reaches output,
//! because the wire encoding sorts pages.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

const PAGE_BYTES: usize = 4096;
const PAGE_SHIFT: u32 = 12;

type Page = Box<[u8; PAGE_BYTES]>;

/// Page number to page, hashed by [`PageHasher`].
type PageMap = HashMap<u64, Page, BuildHasherDefault<PageHasher>>;

/// Multiplicative (Fibonacci) hashing of a page number. An odd multiplier
/// permutes the low bits, which pick the bucket, so a run of consecutive
/// pages never collides; the high bits, which the table uses to filter
/// probes, mix in every bit of the key.
#[derive(Clone, Copy, Debug, Default)]
struct PageHasher(u64);

/// 2^64 divided by the golden ratio, rounded to odd.
const PAGE_HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for PageHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(PAGE_HASH_MUL);
    }

    // Keys are `u64`s, which hash through `write_u64`; other input folds
    // in bytewise the same way.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// An immutable, shareable page map published once per dataset and mounted
/// read-only under any number of [`Backing`] stores. Created by
/// [`Backing::freeze`].
#[derive(Clone, Debug, Default)]
pub struct BackingBase {
    pages: PageMap,
}

impl BackingBase {
    /// Number of pages in the base image.
    pub fn pages(&self) -> usize {
        self.pages.len()
    }
}

/// Sparse, lazily allocated flat memory. All accesses are naturally aligned
/// 32-bit words (the element size of the simulated SIMD ISA).
///
/// Cloning a store deep-copies private pages but shares the base layer, so
/// clones of CoW-backed machines stay cheap.
#[derive(Clone, Debug, Default)]
pub struct Backing {
    pages: PageMap,
    base: Option<Arc<BackingBase>>,
}

impl Backing {
    /// Creates an empty store; reads of untouched memory return zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of private (written or CoW-materialized) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of pages in the mounted base layer, if any.
    pub fn base_pages(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.pages())
    }

    /// Converts this store's private pages into an immutable base image.
    /// The store must not itself have a base mounted (bases don't stack).
    ///
    /// # Panics
    ///
    /// Panics if a base layer is already mounted.
    pub fn freeze(self) -> Arc<BackingBase> {
        assert!(
            self.base.is_none(),
            "freeze: cannot freeze a store that already has a base layer"
        );
        Arc::new(BackingBase { pages: self.pages })
    }

    /// Mounts `base` as the read-only bottom layer. Existing private pages
    /// keep shadowing it.
    pub fn set_base(&mut self, base: Arc<BackingBase>) {
        self.base = Some(base);
    }

    #[inline]
    fn split(addr: u64) -> (u64, usize) {
        (addr >> PAGE_SHIFT, (addr as usize) & (PAGE_BYTES - 1))
    }

    /// The page to read from: private copy first, then the base layer.
    #[inline]
    fn page(&self, page: u64) -> Option<&Page> {
        self.pages
            .get(&page)
            .or_else(|| self.base.as_ref().and_then(|b| b.pages.get(&page)))
    }

    /// The private page to write to, materializing it from the base layer
    /// (or zeros) on first write.
    #[inline]
    fn page_mut(&mut self, page: u64) -> &mut Page {
        let Self { pages, base } = self;
        pages.entry(page).or_insert_with(|| {
            base.as_ref()
                .and_then(|b| b.pages.get(&page))
                .cloned()
                .unwrap_or_else(|| Box::new([0; PAGE_BYTES]))
        })
    }

    /// Reads a 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned (the ISA requires naturally
    /// aligned element accesses).
    pub fn read_u32(&self, addr: u64) -> u32 {
        assert_eq!(addr % 4, 0, "unaligned 32-bit read at {addr:#x}");
        let (page, off) = Self::split(addr);
        match self.page(page) {
            Some(p) => u32::from_le_bytes(p[off..off + 4].try_into().expect("4 bytes")),
            None => 0,
        }
    }

    /// Writes a 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        assert_eq!(addr % 4, 0, "unaligned 32-bit write at {addr:#x}");
        let (page, off) = Self::split(addr);
        let p = self.page_mut(page);
        p[off..off + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a 32-bit float (bit pattern of the word at `addr`).
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Copies a slice of words into memory starting at `addr`.
    pub fn write_u32_slice(&mut self, addr: u64, values: &[u32]) {
        for (i, v) in values.iter().enumerate() {
            self.write_u32(addr + 4 * i as u64, *v);
        }
    }

    /// Reads `n` consecutive words starting at `addr`.
    pub fn read_u32_vec(&self, addr: u64, n: usize) -> Vec<u32> {
        (0..n).map(|i| self.read_u32(addr + 4 * i as u64)).collect()
    }
}

// ---- wire serialization --------------------------------------------------

/// Encodes a page map deterministically: page indices sorted ascending
/// (HashMap iteration order must never reach the wire), each followed by
/// its raw 4 KiB payload.
fn encode_pages(pages: &PageMap, w: &mut glsc_wire::Writer) {
    let mut keys: Vec<u64> = pages.keys().copied().collect();
    keys.sort_unstable();
    w.put_u64(keys.len() as u64);
    for k in keys {
        w.put_u64(k);
        w.put_bytes(&pages[&k][..]);
    }
}

fn decode_pages(r: &mut glsc_wire::Reader<'_>) -> Result<PageMap, glsc_wire::WireError> {
    let n = r.get_len()?;
    let mut pages = PageMap::with_capacity_and_hasher(n, Default::default());
    let mut last: Option<u64> = None;
    for _ in 0..n {
        let at = r.pos();
        let k = r.get_u64()?;
        // Strictly ascending keys double as a duplicate check and keep
        // the encoding canonical (one byte string per page map).
        if last.is_some_and(|l| k <= l) {
            return Err(glsc_wire::WireError::Invalid {
                at,
                what: "page index order",
            });
        }
        last = Some(k);
        let bytes = r.take(PAGE_BYTES)?;
        let mut page: Page = Box::new([0; PAGE_BYTES]);
        page.copy_from_slice(bytes);
        pages.insert(k, page);
    }
    Ok(pages)
}

impl glsc_wire::Wire for BackingBase {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        let Self { pages } = self;
        encode_pages(pages, w);
    }
    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        Ok(Self {
            pages: decode_pages(r)?,
        })
    }
}

// The copy-on-write base is serialized by value: on decode it becomes a
// private Arc. Sharing identity is a host-memory optimization invisible
// to simulated behavior, so flattening it through the wire is lossless
// for reports.
impl glsc_wire::Wire for Backing {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        let Self { pages, base } = self;
        encode_pages(pages, w);
        match base {
            None => w.put_u8(0),
            Some(b) => {
                w.put_u8(1);
                b.as_ref().encode(w);
            }
        }
    }
    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        let pages = decode_pages(r)?;
        let at = r.pos();
        let base = match r.get_u8()? {
            0 => None,
            1 => Some(Arc::new(BackingBase::decode(r)?)),
            _ => {
                return Err(glsc_wire::WireError::Invalid {
                    at,
                    what: "backing base tag",
                })
            }
        };
        Ok(Self { pages, base })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let b = Backing::new();
        assert_eq!(b.read_u32(0x1000), 0);
        assert_eq!(b.read_u32(4), 0);
        assert_eq!(b.resident_pages(), 0);
        assert_eq!(b.base_pages(), 0);
    }

    #[test]
    fn read_back_what_was_written() {
        let mut b = Backing::new();
        b.write_u32(0x2000, 0xdead_beef);
        assert_eq!(b.read_u32(0x2000), 0xdead_beef);
        b.write_u32(0x2004, 1.5f32.to_bits());
        assert_eq!(b.read_f32(0x2004), 1.5);
        assert_eq!(b.resident_pages(), 1);
    }

    #[test]
    fn pages_are_independent() {
        let mut b = Backing::new();
        b.write_u32(0x0, 1);
        b.write_u32(0x10_0000, 2);
        assert_eq!(b.read_u32(0x0), 1);
        assert_eq!(b.read_u32(0x10_0000), 2);
        assert_eq!(b.resident_pages(), 2);
    }

    #[test]
    fn slice_helpers_round_trip() {
        let mut b = Backing::new();
        b.write_u32_slice(0x3000, &[1, 2, 3, 4]);
        assert_eq!(b.read_u32_vec(0x3000, 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn words_either_side_of_a_page_boundary_are_independent() {
        let mut b = Backing::new();
        b.write_u32(4092, 0xab);
        b.write_u32(4096, 0xcd);
        assert_eq!(b.read_u32(4092), 0xab);
        assert_eq!(b.read_u32(4096), 0xcd);
        assert_eq!(b.resident_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_read_panics() {
        let b = Backing::new();
        let _ = b.read_u32(2);
    }

    fn base_with(values: &[(u64, u32)]) -> Arc<BackingBase> {
        let mut b = Backing::new();
        for &(addr, v) in values {
            b.write_u32(addr, v);
        }
        b.freeze()
    }

    #[test]
    fn reads_fall_through_to_base() {
        let base = base_with(&[(0x1000, 7), (0x5000, 9)]);
        let mut b = Backing::new();
        b.set_base(Arc::clone(&base));
        assert_eq!(b.read_u32(0x1000), 7);
        assert_eq!(b.read_u32(0x5000), 9);
        // Untouched addresses inside a base page read the base's zero fill;
        // addresses outside any base page read zero.
        assert_eq!(b.read_u32(0x1004), 0);
        assert_eq!(b.read_u32(0x9000), 0);
        assert_eq!(b.resident_pages(), 0);
        assert_eq!(b.base_pages(), 2);
    }

    #[test]
    fn write_materializes_page_from_base() {
        let base = base_with(&[(0x1000, 7), (0x1004, 8)]);
        let mut b = Backing::new();
        b.set_base(Arc::clone(&base));
        b.write_u32(0x1000, 100);
        // The written word changed; its page neighbor was carried over.
        assert_eq!(b.read_u32(0x1000), 100);
        assert_eq!(b.read_u32(0x1004), 8);
        assert_eq!(b.resident_pages(), 1);
    }

    #[test]
    fn write_isolation_between_stores_sharing_a_base() {
        let base = base_with(&[(0x2000, 42)]);
        let mut m1 = Backing::new();
        let mut m2 = Backing::new();
        m1.set_base(Arc::clone(&base));
        m2.set_base(Arc::clone(&base));
        m1.write_u32(0x2000, 1);
        m2.write_u32(0x2000, 2);
        assert_eq!(m1.read_u32(0x2000), 1);
        assert_eq!(m2.read_u32(0x2000), 2);
        // A third mount still sees the pristine base.
        let mut m3 = Backing::new();
        m3.set_base(base);
        assert_eq!(m3.read_u32(0x2000), 42);
    }

    #[test]
    fn write_off_base_materializes_zero_page() {
        let base = base_with(&[(0x1000, 7)]);
        let mut b = Backing::new();
        b.set_base(base);
        b.write_u32(0x8004, 0xee);
        assert_eq!(b.read_u32(0x8004), 0xee);
        assert_eq!(b.read_u32(0x8000), 0);
        assert_eq!(b.resident_pages(), 1);
    }

    #[test]
    fn clone_shares_base_but_copies_private_pages() {
        let base = base_with(&[(0x1000, 7)]);
        let mut b = Backing::new();
        b.set_base(base);
        b.write_u32(0x1000, 8);
        let mut c = b.clone();
        c.write_u32(0x1000, 9);
        assert_eq!(b.read_u32(0x1000), 8);
        assert_eq!(c.read_u32(0x1000), 9);
    }

    #[test]
    #[should_panic(expected = "freeze")]
    fn freeze_rejects_stacked_bases() {
        let base = base_with(&[(0x1000, 1)]);
        let mut b = Backing::new();
        b.set_base(base);
        let _ = b.freeze();
    }
}
