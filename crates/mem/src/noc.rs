//! On-die interconnect (NoC) model: the fabric between the private L1s
//! and the shared banked L2/directory (§4.1, Table 1).
//!
//! The paper's CMP connects every core's L1 to the physically banked L2
//! over an on-die interconnect whose minimum cost is folded into the
//! 12-cycle L2 latency. This module makes that fabric an explicit,
//! cycle-attributed subsystem: every coherence transaction is decomposed
//! into typed messages ([`MsgClass`]) that traverse topology-dependent
//! links, each link being a [`BusyHorizon`] that serializes messages at a
//! configurable per-message occupancy (the inverse of its bandwidth).
//!
//! Three topologies are modeled:
//!
//! * [`Topology::Ideal`] — the historical model: infinite bandwidth,
//!   zero-latency traversal. Message accounting still runs, but timing is
//!   **bit-identical** to the pre-NoC simulator (enforced by the
//!   `noc_ideal_differential` test and a CI byte-check of `results/`).
//! * [`Topology::Crossbar`] — a full crossbar with per-destination output
//!   ports: a message pays one [`link_latency`](NocConfig::link_latency)
//!   hop and queues only against other messages targeting the same node.
//! * [`Topology::Ring`] — a bidirectional ring of `cores + banks` stops
//!   (cores first, then banks). A message takes the direction with fewer
//!   hops (ties clockwise) and reserves every directed link segment along
//!   its path in order, paying `link_latency` per hop plus any queueing
//!   at busy links. This is where 16+ threads visibly bend the Fig. 6
//!   curves (the `noc_contention` figure).
//!
//! Everything is deterministic: link reservation order is the simulator's
//! access order, and the only nondeterminism hook is the chaos layer's
//! seeded link-delay jitter (destructive-only: it delays the next
//! message's departure, never reorders or drops).

use crate::errors::ConfigError;
use crate::occupancy::BusyHorizon;
use crate::stats::MemStats;

/// Interconnect topology selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Infinite-bandwidth, zero-latency fabric reproducing the pre-NoC
    /// fixed-latency model exactly (the default).
    Ideal,
    /// Full crossbar: one hop, contention only at the destination port.
    Crossbar,
    /// Bidirectional ring over `cores + banks` stops.
    Ring,
}

impl Topology {
    /// Short label used in figure tables and job keys.
    pub fn label(self) -> &'static str {
        match self {
            Topology::Ideal => "ideal",
            Topology::Crossbar => "xbar",
            Topology::Ring => "ring",
        }
    }
}

/// The coherence-protocol message classes that travel the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Read request (load miss): Shared-state fill.
    GetS,
    /// Write request (store miss): Modified-state fill or upgrade.
    GetX,
    /// Data reply / upgrade grant from a bank to a core.
    DataReply,
    /// Invalidation (or downgrade probe) from the directory to an L1.
    Inv,
    /// Invalidation acknowledgement from an L1 back to the directory.
    InvAck,
    /// GLSC probe: a `vgatherlink`/`ll` fill or a `vscattercond`/`sc`
    /// upgrade (§3.3) — kept distinct so the atomics' fabric cost is
    /// measurable per Schweizer et al.
    GlscProbe,
    /// Dirty-line writeback from an L1 to its home bank.
    Writeback,
    /// Hardware-prefetcher fill request (§4.1).
    PrefetchFill,
}

impl MsgClass {
    /// Number of message classes (array-counter dimension).
    pub const COUNT: usize = 8;

    /// All classes, in counter-index order.
    pub const ALL: [MsgClass; MsgClass::COUNT] = [
        MsgClass::GetS,
        MsgClass::GetX,
        MsgClass::DataReply,
        MsgClass::Inv,
        MsgClass::InvAck,
        MsgClass::GlscProbe,
        MsgClass::Writeback,
        MsgClass::PrefetchFill,
    ];

    /// Stable counter index of this class.
    pub fn index(self) -> usize {
        match self {
            MsgClass::GetS => 0,
            MsgClass::GetX => 1,
            MsgClass::DataReply => 2,
            MsgClass::Inv => 3,
            MsgClass::InvAck => 4,
            MsgClass::GlscProbe => 5,
            MsgClass::Writeback => 6,
            MsgClass::PrefetchFill => 7,
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::GetS => "gets",
            MsgClass::GetX => "getx",
            MsgClass::DataReply => "data",
            MsgClass::Inv => "inv",
            MsgClass::InvAck => "invack",
            MsgClass::GlscProbe => "glsc",
            MsgClass::Writeback => "wb",
            MsgClass::PrefetchFill => "pf",
        }
    }
}

/// Interconnect configuration, embedded in
/// [`MemConfig`](crate::MemConfig) as `noc`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NocConfig {
    /// Fabric topology. [`Topology::Ideal`] reproduces the pre-NoC
    /// fixed-latency timing exactly.
    pub topology: Topology,
    /// Cycles per link traversal (per hop). Must be non-zero for
    /// non-ideal topologies.
    pub link_latency: u64,
    /// Cycles a link stays busy per message — the inverse of its
    /// bandwidth (1 = one message per cycle per link). Must be non-zero
    /// for non-ideal topologies.
    pub link_occupancy: u64,
    /// Optional declared stop count, cross-checked against the actual
    /// fabric shape (`cores + l2_banks`) when the memory system is built.
    /// Configurations generated from external descriptions set this so a
    /// bank-count mismatch is a typed error instead of a silently
    /// different fabric.
    pub nodes: Option<usize>,
}

impl Default for NocConfig {
    fn default() -> Self {
        Self::ideal()
    }
}

impl NocConfig {
    /// The ideal (pre-NoC-equivalent) fabric.
    pub fn ideal() -> Self {
        Self {
            topology: Topology::Ideal,
            link_latency: 0,
            link_occupancy: 0,
            nodes: None,
        }
    }

    /// A bidirectional ring with 1-cycle hops and 1-cycle link occupancy.
    pub fn ring() -> Self {
        Self {
            topology: Topology::Ring,
            link_latency: 1,
            link_occupancy: 1,
            nodes: None,
        }
    }

    /// A full crossbar with 1-cycle traversal and 1-cycle port occupancy.
    pub fn crossbar() -> Self {
        Self {
            topology: Topology::Crossbar,
            link_latency: 1,
            link_occupancy: 1,
            nodes: None,
        }
    }

    /// Declares the expected stop count (builder style); see
    /// [`NocConfig::nodes`].
    #[must_use]
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = Some(nodes);
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// [`ConfigError::NocZeroLinkLatency`] or
    /// [`ConfigError::NocZeroLinkBandwidth`] for a non-ideal topology with
    /// a zero parameter, and [`ConfigError::NocZeroNodes`] when an
    /// explicit stop count of zero is declared (a fabric with no links).
    /// The stop-count cross-check against the actual core/bank shape runs
    /// in [`MemorySystem::try_new`](crate::MemorySystem::try_new), which
    /// knows the core count.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.nodes == Some(0) {
            return Err(ConfigError::NocZeroNodes);
        }
        if self.topology != Topology::Ideal {
            if self.link_latency == 0 {
                return Err(ConfigError::NocZeroLinkLatency);
            }
            if self.link_occupancy == 0 {
                return Err(ConfigError::NocZeroLinkBandwidth);
            }
        }
        Ok(())
    }
}

/// Fabric event counters, embedded in [`MemStats`] as `noc` and carried
/// through `RunReport` and the bench codec.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Messages sent per [`MsgClass`] (indexed by [`MsgClass::index`]).
    pub msgs: [u64; MsgClass::COUNT],
    /// Total link traversals (1 per message on Ideal/Crossbar, path
    /// length on Ring).
    pub hops: u64,
    /// Total cycles messages spent queued behind busy links — the
    /// fabric-contention metric the `noc_contention` figure reports.
    pub queue_cycles: u64,
    /// Messages per directed link, indexed by link id (length 1 for
    /// Ideal, `nodes` for Crossbar input ports, `2 * nodes` for the
    /// Ring's clockwise-then-counterclockwise segments).
    pub link_msgs: Vec<u64>,
}

impl NocStats {
    /// Total messages across all classes.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Messages of one class.
    pub fn class(&self, c: MsgClass) -> u64 {
        self.msgs[c.index()]
    }

    /// Mean queueing delay per message (0.0 when no messages were sent).
    pub fn queue_cycles_per_msg(&self) -> f64 {
        let total = self.total_msgs();
        if total == 0 {
            0.0
        } else {
            self.queue_cycles as f64 / total as f64
        }
    }
}

/// The live interconnect: topology, per-link busy horizons, and the
/// chaos layer's pending link-delay jitter. Owned by
/// [`MemorySystem`](crate::MemorySystem); cloned wholesale by snapshots,
/// so in-flight link reservations survive snapshot/restore exactly.
#[derive(Clone, Debug)]
pub struct Noc {
    cfg: NocConfig,
    cores: usize,
    banks: usize,
    links: Vec<BusyHorizon>,
    /// Extra cycles the next message's departure must absorb (scheduled
    /// by the chaos link-jitter injector; always 0 without a fault plan).
    jitter_next_msg: u64,
}

impl Noc {
    /// Builds the fabric for `cores` L1s and `banks` L2 banks. The
    /// configuration must already have passed [`NocConfig::check`].
    pub fn new(cfg: NocConfig, cores: usize, banks: usize) -> Self {
        let nodes = cores + banks;
        let links = match cfg.topology {
            Topology::Ideal => vec![BusyHorizon::new(); 1],
            Topology::Crossbar => vec![BusyHorizon::new(); nodes],
            Topology::Ring => vec![BusyHorizon::new(); 2 * nodes],
        };
        Self {
            cfg,
            cores,
            banks,
            links,
            jitter_next_msg: 0,
        }
    }

    /// The configuration in effect.
    pub fn cfg(&self) -> &NocConfig {
        &self.cfg
    }

    /// Number of fabric stops (`cores + banks`).
    pub fn num_nodes(&self) -> usize {
        self.cores + self.banks
    }

    /// Number of directed links (1 for Ideal).
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Fabric stop of core `c`'s L1.
    pub fn core_node(&self, c: usize) -> usize {
        debug_assert!(c < self.cores);
        c
    }

    /// Fabric stop of L2 bank `b`.
    pub fn bank_node(&self, b: usize) -> usize {
        debug_assert!(b < self.banks);
        self.cores + b
    }

    /// Schedules `extra` cycles of departure delay for the next message
    /// (the chaos layer's link-delay jitter; destructive-only).
    pub fn add_jitter(&mut self, extra: u64) {
        self.jitter_next_msg = self.jitter_next_msg.saturating_add(extra);
    }

    /// Pending link jitter not yet absorbed by a message.
    pub fn pending_jitter(&self) -> u64 {
        self.jitter_next_msg
    }

    /// Drops any pending jitter (when a fault plan is uninstalled, so the
    /// fault-free path stays bit-identical).
    pub fn clear_jitter(&mut self) {
        self.jitter_next_msg = 0;
    }

    /// Sends one `class` message from stop `src` to stop `dst`, departing
    /// at `depart`; returns its arrival cycle. Reserves every link along
    /// the path (in traversal order) and attributes message, hop and
    /// queueing counters to `stats`.
    pub fn send(
        &mut self,
        src: usize,
        dst: usize,
        class: MsgClass,
        depart: u64,
        stats: &mut MemStats,
    ) -> u64 {
        debug_assert!(src < self.num_nodes() && dst < self.num_nodes() && src != dst);
        let ns = &mut stats.noc;
        ns.msgs[class.index()] += 1;
        let depart = depart + std::mem::take(&mut self.jitter_next_msg);
        match self.cfg.topology {
            Topology::Ideal => {
                ns.hops += 1;
                ns.link_msgs[0] += 1;
                depart
            }
            Topology::Crossbar => {
                // Contention at the destination's input port only.
                let start = self.links[dst].reserve(depart, self.cfg.link_occupancy);
                ns.hops += 1;
                ns.link_msgs[dst] += 1;
                ns.queue_cycles += start - depart;
                start + self.cfg.link_latency
            }
            Topology::Ring => {
                // Stops are below `n`, so every wrap below is one
                // comparison rather than a division.
                let n = self.num_nodes();
                let cw = if dst >= src { dst - src } else { dst + n - src }; // clockwise hops
                let ccw = n - cw; // counterclockwise hops
                let forward = cw <= ccw;
                let hops = cw.min(ccw);
                let mut t = depart;
                let mut node = src;
                for _ in 0..hops {
                    // Link i carries i -> i+1 (clockwise); link n + i
                    // carries i -> i-1 (counterclockwise).
                    let link = if forward { node } else { n + node };
                    let start = self.links[link].reserve(t, self.cfg.link_occupancy);
                    ns.queue_cycles += start - t;
                    ns.hops += 1;
                    ns.link_msgs[link] += 1;
                    t = start + self.cfg.link_latency;
                    node = if forward {
                        if node + 1 == n {
                            0
                        } else {
                            node + 1
                        }
                    } else if node == 0 {
                        n - 1
                    } else {
                        node - 1
                    };
                }
                t
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_for(noc: &Noc) -> MemStats {
        let mut s = MemStats::default();
        s.noc.link_msgs = vec![0; noc.num_links()];
        s
    }

    #[test]
    fn ideal_is_free_and_counted() {
        let mut noc = Noc::new(NocConfig::ideal(), 2, 2);
        let mut s = stats_for(&noc);
        assert_eq!(noc.num_links(), 1);
        assert_eq!(noc.send(0, 3, MsgClass::GetS, 100, &mut s), 100);
        assert_eq!(noc.send(3, 0, MsgClass::DataReply, 100, &mut s), 100);
        assert_eq!(s.noc.total_msgs(), 2);
        assert_eq!(s.noc.class(MsgClass::GetS), 1);
        assert_eq!(s.noc.queue_cycles, 0);
        assert_eq!(s.noc.link_msgs, vec![2]);
    }

    #[test]
    fn crossbar_queues_at_destination_port() {
        let mut noc = Noc::new(NocConfig::crossbar(), 2, 2);
        let mut s = stats_for(&noc);
        // Two messages to the same destination at the same cycle: the
        // second queues for one occupancy slot.
        assert_eq!(noc.send(0, 3, MsgClass::GetS, 10, &mut s), 11);
        assert_eq!(noc.send(1, 3, MsgClass::GetS, 10, &mut s), 12);
        // A message to a different destination does not queue.
        assert_eq!(noc.send(0, 2, MsgClass::GetS, 10, &mut s), 11);
        assert_eq!(s.noc.queue_cycles, 1);
        assert_eq!(s.noc.hops, 3);
    }

    #[test]
    fn ring_takes_shortest_direction_and_pays_per_hop() {
        // 6 stops: 0..3 cores, 3..6 banks.
        let mut noc = Noc::new(NocConfig::ring(), 3, 3);
        let mut s = stats_for(&noc);
        assert_eq!(noc.num_links(), 12);
        // 0 -> 2: two clockwise hops at latency 1.
        assert_eq!(noc.send(0, 2, MsgClass::GetS, 0, &mut s), 2);
        // 0 -> 5: one counterclockwise hop (shorter than 5 clockwise).
        assert_eq!(noc.send(0, 5, MsgClass::GetS, 0, &mut s), 1);
        assert_eq!(s.noc.hops, 3);
        // 0 -> 3: tie (3 either way) resolves clockwise deterministically.
        let t = noc.send(0, 3, MsgClass::GetS, 10, &mut s);
        assert_eq!(t, 13);
        assert_eq!(s.noc.link_msgs[0], 2); // link 0->1 used twice now
    }

    #[test]
    fn ring_links_serialize_messages() {
        let mut noc = Noc::new(NocConfig::ring(), 2, 2);
        let mut s = stats_for(&noc);
        // Same first link (0 -> 1) at the same cycle: second queues.
        assert_eq!(noc.send(0, 1, MsgClass::GetS, 5, &mut s), 6);
        assert_eq!(noc.send(0, 1, MsgClass::GetX, 5, &mut s), 7);
        assert_eq!(s.noc.queue_cycles, 1);
    }

    #[test]
    fn jitter_delays_exactly_one_message() {
        let mut noc = Noc::new(NocConfig::ring(), 2, 2);
        let mut s = stats_for(&noc);
        noc.add_jitter(7);
        assert_eq!(noc.pending_jitter(), 7);
        assert_eq!(noc.send(0, 1, MsgClass::GetS, 0, &mut s), 8);
        assert_eq!(noc.pending_jitter(), 0);
        assert_eq!(noc.send(0, 1, MsgClass::GetS, 20, &mut s), 21);
        noc.add_jitter(3);
        noc.clear_jitter();
        assert_eq!(noc.send(0, 1, MsgClass::GetS, 30, &mut s), 31);
    }

    #[test]
    fn config_validation() {
        assert_eq!(NocConfig::ideal().check(), Ok(()));
        assert_eq!(NocConfig::ring().check(), Ok(()));
        assert_eq!(NocConfig::crossbar().check(), Ok(()));
        // Ideal tolerates zero latency/occupancy (it is the definition).
        assert_eq!(NocConfig::default().check(), Ok(()));
        let c = NocConfig {
            link_latency: 0,
            ..NocConfig::ring()
        };
        assert_eq!(c.check(), Err(ConfigError::NocZeroLinkLatency));
        let c = NocConfig {
            link_occupancy: 0,
            ..NocConfig::crossbar()
        };
        assert_eq!(c.check(), Err(ConfigError::NocZeroLinkBandwidth));
        let c = NocConfig::ring().with_nodes(0);
        assert_eq!(c.check(), Err(ConfigError::NocZeroNodes));
        assert_eq!(NocConfig::ring().with_nodes(6).check(), Ok(()));
    }

    #[test]
    fn class_indices_are_a_bijection() {
        let mut seen = [false; MsgClass::COUNT];
        for c in MsgClass::ALL {
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
            assert!(!c.label().is_empty());
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn stats_helpers() {
        let mut s = NocStats::default();
        assert_eq!(s.queue_cycles_per_msg(), 0.0);
        s.msgs[MsgClass::GetS.index()] = 3;
        s.msgs[MsgClass::DataReply.index()] = 1;
        s.queue_cycles = 8;
        assert_eq!(s.total_msgs(), 4);
        assert_eq!(s.class(MsgClass::GetS), 3);
        assert!((s.queue_cycles_per_msg() - 2.0).abs() < 1e-12);
    }
}

// ---- durable-snapshot serialization --------------------------------------

impl glsc_wire::Wire for Topology {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        w.put_u8(match self {
            Topology::Ideal => 0,
            Topology::Crossbar => 1,
            Topology::Ring => 2,
        });
    }
    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        let at = r.pos();
        match r.get_u8()? {
            0 => Ok(Topology::Ideal),
            1 => Ok(Topology::Crossbar),
            2 => Ok(Topology::Ring),
            _ => Err(glsc_wire::WireError::Invalid {
                at,
                what: "Topology tag",
            }),
        }
    }
}

glsc_wire::wire_struct!(NocConfig {
    topology,
    link_latency,
    link_occupancy,
    nodes,
});
glsc_wire::wire_struct!(NocStats {
    msgs,
    hops,
    queue_cycles,
    link_msgs,
});
glsc_wire::wire_struct!(Noc {
    cfg,
    cores,
    banks,
    links,
    jitter_next_msg,
});
