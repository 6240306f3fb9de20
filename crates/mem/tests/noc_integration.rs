//! Integration tests for the on-die interconnect: message accounting on
//! the coherence paths, topology timing differences, and the
//! coherence-traffic counters.

use glsc_mem::{MemConfig, MemOp, MemorySystem, MsgClass, NocConfig, Topology, LINE_BYTES};

fn cfg_with(noc: NocConfig) -> MemConfig {
    MemConfig {
        prefetch: false,
        noc,
        ..MemConfig::default()
    }
}

#[test]
fn ideal_fabric_counts_messages_without_charging_cycles() {
    let mut m = MemorySystem::new(cfg_with(NocConfig::ideal()), 2, 4);
    // Cold load miss: GetS request + DataReply, free of charge.
    let r = m.access(0, 0, MemOp::Load, 0x1000, 0);
    assert_eq!(r.done, 3 + 12 + 280);
    assert_eq!(m.stats().noc.class(MsgClass::GetS), 1);
    assert_eq!(m.stats().noc.class(MsgClass::DataReply), 1);
    assert_eq!(m.stats().noc.queue_cycles, 0);
    // Remote store to the same line: GetX, invalidation + ack, reply.
    let r2 = m.access(1, 0, MemOp::Store, 0x1000, r.done);
    assert!(r2.sc_ok);
    assert_eq!(m.stats().noc.class(MsgClass::GetX), 1);
    assert_eq!(m.stats().noc.class(MsgClass::Inv), 1);
    assert_eq!(m.stats().noc.class(MsgClass::InvAck), 1);
    assert_eq!(m.stats().inv_acks, 1);
    assert_eq!(m.stats().invalidations, 1);
}

#[test]
fn ll_and_sc_travel_as_glsc_probes() {
    let mut m = MemorySystem::new(cfg_with(NocConfig::ideal()), 2, 4);
    let r = m.access(0, 0, MemOp::LoadLinked, 0x40, 0);
    assert_eq!(m.stats().noc.class(MsgClass::GlscProbe), 1);
    // Successful sc on a Shared line upgrades via a GLSC probe too.
    let r2 = m.access(0, 0, MemOp::StoreCond, 0x40, r.done);
    assert!(r2.sc_ok);
    assert_eq!(m.stats().noc.class(MsgClass::GlscProbe), 2);
}

#[test]
fn dirty_eviction_sends_a_writeback() {
    let cfg = MemConfig {
        prefetch: false,
        ..MemConfig::tiny()
    };
    let sets = cfg.l1_sets() as u64;
    let assoc = cfg.l1_assoc;
    let line = LINE_BYTES;
    let mut m = MemorySystem::new(cfg, 1, 4);
    // Dirty one line, then overflow its L1 set with clean fills.
    let mut t = m.access(0, 0, MemOp::Store, 0, 0).done;
    for k in 1..=assoc as u64 {
        t = m.access(0, 0, MemOp::Load, k * sets * line, t).done;
    }
    assert_eq!(m.stats().writebacks, 1);
    assert_eq!(m.stats().noc.class(MsgClass::Writeback), 1);
    m.check_invariants();
}

#[test]
fn ring_charges_hop_latency_on_a_cold_miss() {
    // 1 core + 16 banks. Line 0 lives in bank 0 = stop 1: one hop each
    // way, so the cold miss pays exactly 2 extra cycles at 1 cycle a hop.
    let mut ideal = MemorySystem::new(cfg_with(NocConfig::ideal()), 1, 4);
    let mut ring = MemorySystem::new(cfg_with(NocConfig::ring()), 1, 4);
    let di = ideal.access(0, 0, MemOp::Load, 0, 0).done;
    let dr = ring.access(0, 0, MemOp::Load, 0, 0).done;
    assert_eq!(dr, di + 2);
    assert_eq!(ring.stats().noc.hops, 2);
}

#[test]
fn crossbar_queues_concurrent_requests_to_one_bank() {
    let mut m = MemorySystem::new(cfg_with(NocConfig::crossbar()), 4, 4);
    // Four cores hit the same bank's input port at the same cycle; the
    // port serializes them one occupancy slot apart.
    for c in 0..4 {
        m.access(c, 0, MemOp::Load, 0x40 * 16 * c as u64, 0);
    }
    assert_eq!(m.cfg().bank_of(0), m.cfg().bank_of(0x40 * 16));
    assert!(
        m.stats().noc.queue_cycles > 0,
        "no port contention observed"
    );
    assert_eq!(m.noc().cfg().topology, Topology::Crossbar);
}

#[test]
fn per_link_counters_match_fabric_shape_and_survive_reset() {
    let mut m = MemorySystem::new(cfg_with(NocConfig::ring()), 2, 4);
    assert_eq!(m.noc().num_links(), 2 * (2 + 16));
    assert_eq!(m.stats().noc.link_msgs.len(), m.noc().num_links());
    m.access(0, 0, MemOp::Load, 0, 0);
    assert!(m.stats().noc.total_msgs() > 0);
    assert!(m.stats().noc.link_msgs.iter().sum::<u64>() > 0);
    m.reset_stats();
    assert_eq!(m.stats().noc.total_msgs(), 0);
    assert_eq!(m.stats().noc.link_msgs.len(), m.noc().num_links());
}
