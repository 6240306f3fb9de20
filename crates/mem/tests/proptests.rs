//! Randomized property tests for the memory system.
//!
//! These were originally written with `proptest`; the offline build
//! environment cannot fetch it, so they now run as seeded loops over
//! `glsc-rng`. Each case prints its seed on failure for reproduction.

use glsc_mem::{Backing, MemConfig, MemOp, MemorySystem, StridePrefetcher, TagArray};
use glsc_rng::rngs::StdRng;
use glsc_rng::{Rng, SeedableRng};
use std::collections::HashMap;

/// The backing store behaves exactly like a flat map of words.
#[test]
fn backing_matches_oracle() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x3E3_0001 ^ seed);
        let n = rng.random_range(1..200usize);
        let mut b = Backing::new();
        let mut oracle: HashMap<u64, u32> = HashMap::new();
        for _ in 0..n {
            let raw = rng.random_range(0..1u64 << 20);
            let val: u32 = rng.random();
            let is_write: bool = rng.random();
            let addr = raw & !3;
            if is_write {
                b.write_u32(addr, val);
                oracle.insert(addr, val);
            } else {
                let expect = oracle.get(&addr).copied().unwrap_or(0);
                assert_eq!(b.read_u32(addr), expect, "seed {seed}, addr {addr:#x}");
            }
        }
    }
}

/// A tag array never holds more than `assoc` lines per set, and a line
/// just inserted is always resident.
#[test]
fn tag_array_capacity_invariant() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x3E3_0002 ^ seed);
        let n = rng.random_range(1..100usize);
        let lines: Vec<u64> = (0..n).map(|_| rng.random_range(0..64u64)).collect();
        let mut a: TagArray<u64> = TagArray::new(4, 2, 64);
        for (i, l) in lines.iter().enumerate() {
            let line = l * 64;
            if a.peek(line).is_none() {
                a.insert(line, i as u64);
            }
            assert!(a.peek(line).is_some(), "seed {seed}");
            assert!(a.len() <= 4 * 2, "seed {seed}");
        }
        // Per-set occupancy <= assoc.
        let mut per_set: HashMap<usize, usize> = HashMap::new();
        for (line, _) in a.iter() {
            *per_set.entry(a.set_index(line)).or_default() += 1;
        }
        for (_, n) in per_set {
            assert!(n <= 2, "seed {seed}");
        }
    }
}

/// Coherence invariants hold after arbitrary access interleavings, and
/// completion times never precede the minimum L1 latency.
#[test]
fn coherence_invariants_random() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x3E3_0003 ^ seed);
        let n = rng.random_range(1..300usize);
        let mut cfg = MemConfig::tiny();
        cfg.prefetch = false;
        let mut m = MemorySystem::new(cfg, 3, 4);
        for it in 0..n {
            let now = it as u64;
            let core = rng.random_range(0..3usize);
            let tid = rng.random_range(0..4u8);
            let line = rng.random_range(0..64u64);
            let kind = rng.random_range(0..4usize);
            let addr = line * 64 + 4 * (tid as u64);
            let op = match kind {
                0 => MemOp::Load,
                1 => MemOp::Store,
                2 => MemOp::LoadLinked,
                _ => MemOp::StoreCond,
            };
            let r = m.access(core, tid, op, addr, now);
            assert!(r.done >= now + 3, "seed {seed}");
        }
        m.check_invariants();
    }
}

/// An sc can only succeed if the same thread ll'ed the line with no
/// intervening store to it from anyone (tracked with an oracle).
#[test]
fn sc_success_implies_valid_reservation() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x3E3_0004 ^ seed);
        let n = rng.random_range(1..200usize);
        let mut cfg = MemConfig::tiny();
        cfg.prefetch = false;
        let mut m = MemorySystem::new(cfg, 2, 2);
        // oracle: (core, line) -> set of linked tids; stores clear globally.
        let mut res: HashMap<(usize, u64), u8> = HashMap::new();
        for it in 0..n {
            let now = it as u64;
            let core = rng.random_range(0..2usize);
            let tid = rng.random_range(0..2u8);
            let lineno = rng.random_range(0..4u64);
            let kind = rng.random_range(0..3usize);
            let line = lineno * 64;
            match kind {
                0 => {
                    // ll
                    m.access(core, tid, MemOp::LoadLinked, line, now);
                    *res.entry((core, line)).or_default() |= 1 << tid;
                }
                1 => {
                    // store clears reservations on that line everywhere
                    m.access(core, tid, MemOp::Store, line, now);
                    for c in 0..2 {
                        res.insert((c, line), 0);
                    }
                }
                _ => {
                    // sc
                    let r = m.access(core, tid, MemOp::StoreCond, line, now);
                    if r.sc_ok {
                        // Our oracle is *less* conservative than the
                        // hardware (no evictions), so hardware success
                        // implies oracle validity.
                        assert!(
                            res.get(&(core, line)).copied().unwrap_or(0) & (1 << tid) != 0,
                            "seed {seed}: sc succeeded without an oracle reservation"
                        );
                        for c in 0..2 {
                            res.insert((c, line), 0);
                        }
                    }
                }
            }
        }
        m.check_invariants();
    }
}

/// The prefetcher only emits addresses along the observed stride.
#[test]
fn prefetcher_targets_follow_stride() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x3E3_0005 ^ seed);
        let start = rng.random_range(0..1000u64);
        let stride = rng.random_range(1..8i64);
        let n = rng.random_range(3..20usize);
        let mut p = StridePrefetcher::new(1, 2, 64);
        let mut expected_ok = true;
        for i in 0..n {
            let line = (start as i64 + stride * i as i64) as u64 * 64;
            for t in p.observe(0, line) {
                // Every target is ahead of the current line by a multiple
                // of the stride.
                let delta = t as i64 - line as i64;
                expected_ok &= delta % (stride * 64) == 0 && delta > 0;
            }
        }
        assert!(expected_ok, "seed {seed}");
    }
}

/// Cache sets and L2 banks are picked by a shift and a mask; over random
/// lines and power-of-two geometries both agree with the division
/// `(line / line_bytes) % n` they replace.
#[test]
fn set_and_bank_index_match_division() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x3E3_0006 ^ seed);
        let line_bytes = 1u64 << rng.random_range(2..10u32);
        let sets = 1usize << rng.random_range(0..12u32);
        let banks = 1usize << rng.random_range(0..6u32);
        let tags: TagArray<u8> = TagArray::new(sets, 2, line_bytes);
        let cfg = MemConfig {
            line_bytes,
            l2_banks: banks,
            ..MemConfig::default()
        };
        for _ in 0..256 {
            let line = rng.random::<u64>() & !(line_bytes - 1);
            let n = line / line_bytes;
            assert_eq!(tags.set_index(line) as u64, n % sets as u64, "seed {seed}");
            assert_eq!(cfg.bank_of(line) as u64, n % banks as u64, "seed {seed}");
            assert_eq!(cfg.bank_interleave().index(line), cfg.bank_of(line));
        }
    }
}
