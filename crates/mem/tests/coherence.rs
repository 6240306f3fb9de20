//! Integration tests for the MemorySystem: timing, MSI transitions,
//! reservations, inclusion, and bank contention.

use glsc_mem::{L1State, MemConfig, MemOp, MemorySystem, LINE_BYTES};

fn sys(cores: usize) -> MemorySystem {
    let cfg = MemConfig {
        prefetch: false,
        ..MemConfig::default()
    };
    MemorySystem::new(cfg, cores, 4)
}

#[test]
fn cold_miss_pays_l2_and_dram() {
    let mut m = sys(1);
    let r = m.access(0, 0, MemOp::Load, 0x1000, 0);
    // l1 probe (3) + l2 (12) + dram (280)
    assert_eq!(r.done, 3 + 12 + 280);
    assert!(!r.l1_hit);
    assert_eq!(m.stats().l1_misses, 1);
    assert_eq!(m.stats().l2_misses, 1);
    m.check_invariants();
}

#[test]
fn subsequent_hit_is_three_cycles() {
    let mut m = sys(1);
    let fill = m.access(0, 0, MemOp::Load, 0x1000, 0).done;
    let r = m.access(0, 0, MemOp::Load, 0x1004, fill);
    assert!(r.l1_hit);
    assert_eq!(r.done, fill + 3);
    assert_eq!(m.stats().l1_hits, 1);
}

#[test]
fn second_miss_to_same_line_completes_at_fill() {
    let mut m = sys(1);
    let r1 = m.access(0, 0, MemOp::Load, 0x1000, 0);
    let r2 = m.access(0, 1, MemOp::Load, 0x1008, 1);
    assert!(r2.l1_hit, "line already installed (in flight)");
    assert_eq!(r2.done, r1.done, "hit-under-miss completes at fill time");
    assert_eq!(m.stats().hits_under_miss, 1);
}

#[test]
fn l2_hit_after_remote_read_is_cheap() {
    let mut m = sys(2);
    let t0 = m.access(0, 0, MemOp::Load, 0x1000, 0).done;
    let r = m.access(1, 0, MemOp::Load, 0x1000, t0);
    assert!(!r.l1_hit);
    // l1 probe + l2 latency, no DRAM
    assert_eq!(r.done, t0 + 3 + 12);
    assert_eq!(m.stats().l2_hits, 1);
    m.check_invariants();
}

#[test]
fn store_invalidates_remote_sharers_and_their_reservations() {
    let mut m = sys(2);
    let t0 = m.access(0, 0, MemOp::LoadLinked, 0x1000, 0).done;
    assert!(m.holds_reservation(0, 0, 0x1000));
    let t1 = m.access(1, 0, MemOp::Load, 0x1000, t0).done;
    // Core 1 stores: upgrade invalidates core 0's copy and reservation.
    m.access(1, 0, MemOp::Store, 0x1000, t1);
    assert!(!m.holds_reservation(0, 0, 0x1000));
    assert!(m.l1(0).peek(0x1000).is_none(), "core 0 copy invalidated");
    assert_eq!(m.stats().invalidations, 1);
    m.check_invariants();
}

#[test]
fn ll_sc_success_and_failure() {
    let mut m = sys(2);
    let t0 = m.access(0, 0, MemOp::LoadLinked, 0x40, 0).done;
    let ok = m.access(0, 0, MemOp::StoreCond, 0x40, t0);
    assert!(ok.sc_ok);
    assert_eq!(m.stats().sc_successes, 1);
    // Reservation consumed: immediate retry fails.
    let fail = m.access(0, 0, MemOp::StoreCond, 0x40, ok.done);
    assert!(!fail.sc_ok);
    assert_eq!(m.stats().sc_failures, 1);
}

#[test]
fn sc_fails_after_remote_store() {
    let mut m = sys(2);
    let t0 = m.access(0, 0, MemOp::LoadLinked, 0x40, 0).done;
    let t1 = m.access(1, 0, MemOp::Store, 0x40, t0).done;
    let r = m.access(0, 0, MemOp::StoreCond, 0x40, t1);
    assert!(
        !r.sc_ok,
        "intervening remote store must kill the reservation"
    );
    m.check_invariants();
}

#[test]
fn sc_fails_after_same_core_other_thread_store() {
    let mut m = sys(1);
    let t0 = m.access(0, 0, MemOp::LoadLinked, 0x40, 0).done;
    // SMT thread 1 on the same core writes the line: the single GLSC entry
    // per line is cleared even though the line stays resident.
    let t1 = m.access(0, 1, MemOp::Store, 0x40, t0).done;
    let r = m.access(0, 0, MemOp::StoreCond, 0x40, t1);
    assert!(!r.sc_ok);
    assert_eq!(m.stats().reservations_cleared_by_stores, 1);
}

#[test]
fn concurrent_linkers_first_sc_wins() {
    // Per-thread reservation bits (the paper's "(1 + #SMT threads) bits
    // per line"): both threads hold links; the first sc to commit wins and
    // its write clears the other thread's link.
    let mut m = sys(1);
    let t0 = m.access(0, 0, MemOp::LoadLinked, 0x40, 0).done;
    let t1 = m.access(0, 1, MemOp::LoadLinked, 0x40, t0).done;
    assert!(m.holds_reservation(0, 0, 0x40));
    assert!(m.holds_reservation(0, 1, 0x40));
    let r0 = m.access(0, 0, MemOp::StoreCond, 0x40, t1);
    assert!(r0.sc_ok, "first committer succeeds");
    let r1 = m.access(0, 1, MemOp::StoreCond, 0x40, r0.done);
    assert!(!r1.sc_ok, "the winning sc cleared the other link");
}

#[test]
fn sc_on_shared_line_upgrades_and_succeeds() {
    let mut m = sys(2);
    let t0 = m.access(0, 0, MemOp::LoadLinked, 0x40, 0).done;
    // A remote *read* must not kill the reservation.
    let t1 = m.access(1, 0, MemOp::Load, 0x40, t0).done;
    assert!(m.holds_reservation(0, 0, 0x40));
    let r = m.access(0, 0, MemOp::StoreCond, 0x40, t1);
    assert!(r.sc_ok, "reads do not clear reservations");
    assert!(
        m.l1(1).peek(0x40).is_none(),
        "upgrade invalidated the reader"
    );
    assert_eq!(m.l1(0).peek(0x40).unwrap().state, L1State::Modified);
    m.check_invariants();
}

#[test]
fn dirty_forward_costs_extra_and_downgrades() {
    let mut m = sys(2);
    let t0 = m.access(0, 0, MemOp::Store, 0x1000, 0).done;
    let r = m.access(1, 0, MemOp::Load, 0x1000, t0);
    assert_eq!(
        r.done,
        t0 + 3 + 12 + 12,
        "cache-to-cache adds forward extra"
    );
    assert_eq!(m.l1(0).peek(0x1000).unwrap().state, L1State::Shared);
    assert_eq!(m.stats().dirty_forwards, 1);
    m.check_invariants();
}

#[test]
fn store_miss_with_remote_modified_invalidates_owner() {
    let mut m = sys(2);
    let t0 = m.access(0, 0, MemOp::Store, 0x1000, 0).done;
    let _ = m.access(1, 0, MemOp::Store, 0x1000, t0);
    assert!(m.l1(0).peek(0x1000).is_none());
    assert_eq!(m.l1(1).peek(0x1000).unwrap().state, L1State::Modified);
    m.check_invariants();
}

#[test]
fn eviction_drops_reservation_via_capacity() {
    let mut cfg = MemConfig::tiny(); // L1: 8 sets x 2 ways
    cfg.prefetch = false;
    let mut m = MemorySystem::new(cfg, 1, 4);
    let set_stride = 8 * 64; // same-set stride
    let t0 = m.access(0, 0, MemOp::LoadLinked, 0, 0).done;
    assert!(m.holds_reservation(0, 0, 0));
    let t1 = m.access(0, 0, MemOp::Load, set_stride, t0).done;
    let t2 = m.access(0, 0, MemOp::Load, 2 * set_stride, t1).done; // evicts line 0
    assert!(!m.holds_reservation(0, 0, 0));
    let r = m.access(0, 0, MemOp::StoreCond, 0, t2);
    assert!(
        !r.sc_ok,
        "eviction must conservatively kill the reservation"
    );
    m.check_invariants();
}

#[test]
fn bank_contention_serializes() {
    let mut m = sys(2);
    // Two cores miss distinct lines in the same bank at the same cycle.
    let a = m.access(0, 0, MemOp::Load, 0x0, 0).done;
    let bank_stride = 64 * 16; // same bank, different set/line
    let b = m.access(1, 0, MemOp::Load, bank_stride as u64, 0).done;
    assert_eq!(b, a + 2, "second request waits one bank occupancy");
}

#[test]
fn different_banks_do_not_contend() {
    let mut m = sys(2);
    let a = m.access(0, 0, MemOp::Load, 0x0, 0).done;
    let b = m.access(1, 0, MemOp::Load, 64, 0).done; // adjacent line, next bank
    assert_eq!(b, a);
}

#[test]
fn prefetcher_fills_ahead() {
    let cfg = MemConfig {
        prefetch: true,
        ..MemConfig::default()
    };
    let mut m = MemorySystem::new(cfg, 1, 4);
    let mut now = 0;
    for i in 0..4u64 {
        now = m.access(0, 0, MemOp::Load, i * 64, now).done;
    }
    assert!(m.stats().prefetches_issued > 0);
    // The next line in the stream should already be resident.
    assert!(m.l1(0).peek(4 * 64).is_some(), "line 4 prefetched");
    m.check_invariants();
}

#[test]
fn inclusion_back_invalidation() {
    // Tiny L2 (2 banks x 32 sets x 2 ways... compute: 8KB/64B/2/2 = 32 sets)
    let mut cfg = MemConfig::tiny();
    cfg.prefetch = false;
    let mut m = MemorySystem::new(cfg.clone(), 1, 1);
    // Walk enough lines in one L2 set to force L2 evictions. Lines mapping
    // to L2 bank 0, set 0: stride = LINE_BYTES * banks * sets_per_bank.
    let stride = LINE_BYTES * cfg.l2_banks as u64 * cfg.l2_sets_per_bank() as u64;
    let mut now = 0;
    for i in 0..3 {
        now = m.access(0, 0, MemOp::Load, i * stride, now).done;
    }
    assert!(m.stats().back_invalidations > 0 || m.l1(0).len() <= 2);
    m.check_invariants();
}

#[test]
fn stats_reset() {
    let mut m = sys(1);
    m.access(0, 0, MemOp::Load, 0, 0);
    assert!(m.stats().l1_accesses() > 0);
    m.reset_stats();
    assert_eq!(m.stats().l1_accesses(), 0);
}

#[test]
fn monotone_completion_under_interleaving() {
    // A mixed scalar workload must always produce done >= now + hit.
    let mut m = sys(4);
    for i in 0..200u64 {
        let now = i;
        let core = (i % 4) as usize;
        let tid = ((i / 4) % 4) as u8;
        let addr = (i * 977) % 4096 * 4;
        let op = match i % 4 {
            0 => MemOp::Load,
            1 => MemOp::Store,
            2 => MemOp::LoadLinked,
            _ => MemOp::StoreCond,
        };
        let r = m.access(core, tid, op, addr, now);
        assert!(r.done >= now + 3, "completion before minimum latency");
    }
    m.check_invariants();
}
