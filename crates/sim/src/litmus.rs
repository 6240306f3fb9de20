//! Schedule-exploring litmus harness for the memory-consistency axis
//! (DESIGN.md §17).
//!
//! Classic litmus tests (SB, MP, LB, IRIW, CoRR) are expressed as tiny
//! SPMD programs and driven under *explicit thread schedules*: the
//! controller masks the machine down to one chosen hardware thread at a
//! time ([`Machine::step_masked`]) until that thread retires an
//! instruction, so an interleaving is a plain byte string of global
//! thread ids. Two explorers sit on top:
//!
//! * **bounded exhaustive enumeration** — depth-first search over every
//!   choice string up to a depth/node cap, completing each prefix with a
//!   free (unmasked) run. For the two-thread tests this covers every
//!   interleaving of the post-setup memory operations.
//! * **seeded random walks** — cheap coverage for the wider tests
//!   (IRIW's four threads), reproducible from a `u64` seed.
//!
//! Every outcome is recorded together with the [`ScheduleWitness`] that
//! produced it; a witness replays deterministically
//! ([`replay_witness`]), which is what makes a surprising outcome
//! debuggable instead of anecdotal.
//!
//! The per-model expected-outcome table lives in the tests themselves:
//! each [`LitmusTest`] names the *relaxed outcome* that distinguishes
//! memory models and the set of models allowed to exhibit it. A
//! [`LitmusReport`] passes when observation matches expectation in both
//! directions — a forbidden outcome never appears, an allowed one is
//! actually found.

use crate::machine::Machine;
use crate::MachineConfig;
use glsc_isa::{Program, ProgramBuilder, Reg};
use glsc_mem::{MemConfig, MemoryOrder};
use glsc_rng::rngs::StdRng;
use glsc_rng::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Word holding `X` in the two-location tests (L2 bank 0 on the tiny
/// geometry, so its relaxed-model drain skew is zero).
const ADDR_X: i64 = 0x1000;
/// Word holding `Y` (L2 bank 1: under
/// [`MemoryOrder::RelaxedFence`] stores to it drain *later* than bank-0
/// stores pushed at the same cycle, which is what lets MP reorder).
const ADDR_Y: i64 = 0x1040;

/// Cycles a schedule choice may spend waiting for its chosen thread to
/// retire an instruction before the choice is abandoned. Generous
/// enough to cover a fence waiting out the worst relaxed drain delay
/// (8 + 24·3 cycles) plus queue service.
const CHOICE_CYCLE_CAP: u64 = 128;

/// Cycle cap for the free (unmasked) completion run of a schedule.
const COMPLETION_CYCLE_CAP: u64 = 50_000;

/// The exploration budget of [`LitmusTest::explore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreBudget {
    /// Maximum schedule-choice depth of the exhaustive search.
    pub dfs_depth: usize,
    /// Node cap of the exhaustive search (each node costs one completion
    /// run).
    pub dfs_max_nodes: usize,
    /// Number of seeded random walks.
    pub walks: u64,
    /// Schedule choices per random walk.
    pub walk_choices: usize,
}

impl Default for ExploreBudget {
    fn default() -> Self {
        Self {
            dfs_depth: 8,
            dfs_max_nodes: 1500,
            walks: 48,
            walk_choices: 12,
        }
    }
}

impl ExploreBudget {
    /// A minimal budget for smoke tests: shallow search, few walks.
    pub fn smoke() -> Self {
        Self {
            dfs_depth: 5,
            dfs_max_nodes: 200,
            walks: 12,
            walk_choices: 8,
        }
    }
}

/// A replayable schedule: the exact sequence of global-thread-id choices
/// the controller applied from the test's canonical start state, plus
/// the seed of the walk that found it (0 for exhaustively-found
/// schedules). Serialize with [`glsc_wire::to_bytes`]; feeding the
/// decoded witness to [`replay_witness`] reproduces the outcome
/// deterministically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleWitness {
    /// Name of the [`LitmusTest`] (key into [`suite`]).
    pub test: String,
    /// Memory model the schedule ran under.
    pub order: MemoryOrder,
    /// Seed of the random walk that found the schedule (0 when found by
    /// exhaustive enumeration).
    pub seed: u64,
    /// Global thread id per schedule choice, in order.
    pub choices: Vec<u8>,
}

glsc_wire::wire_struct!(ScheduleWitness {
    test,
    order,
    seed,
    choices,
});

/// One litmus test: an SPMD program, the machine shape it needs, the
/// registers to observe, and the per-model expectation.
#[derive(Clone, Debug)]
pub struct LitmusTest {
    /// Short conventional name ("SB", "MP", …).
    pub name: &'static str,
    /// Cores in the litmus machine (one hardware thread each).
    pub cores: usize,
    /// The SPMD program (dispatches on `r0`).
    pub program: Program,
    /// Leading thread-local setup instructions per thread (immediates
    /// and the dispatch branch); retired in a fixed round-robin before
    /// exploration starts, so the search spends its depth on the memory
    /// operations that actually distinguish interleavings.
    pub setup_instrs: u64,
    /// `(global thread id, register)` pairs read after completion; their
    /// values, in this order, form an outcome.
    pub observed: Vec<(usize, Reg)>,
    /// The outcome whose observability distinguishes memory models.
    pub relaxed: Vec<u64>,
    /// Models allowed (and therefore required) to exhibit
    /// [`relaxed`](Self::relaxed).
    pub allowed: &'static [MemoryOrder],
    /// Whether the two-thread exhaustive search is worth running (false
    /// for the four-thread IRIW, where random walks carry the load).
    pub exhaustive: bool,
}

/// Result of exploring one test under one memory model.
#[derive(Clone, Debug)]
pub struct LitmusReport {
    /// Test name.
    pub test: String,
    /// Memory model explored.
    pub order: MemoryOrder,
    /// Every outcome observed, with the first witness that produced it.
    pub outcomes: BTreeMap<Vec<u64>, ScheduleWitness>,
    /// Whether the test's relaxed outcome was observed.
    pub relaxed_observed: bool,
    /// Whether the model is expected (and allowed) to exhibit it.
    pub expected_relaxed: bool,
}

impl LitmusReport {
    /// `true` when observation matched expectation: the relaxed outcome
    /// appeared iff the model allows it.
    pub fn pass(&self) -> bool {
        self.relaxed_observed == self.expected_relaxed
    }

    /// The witness of the relaxed outcome, when it was observed.
    pub fn relaxed_witness(&self) -> Option<&ScheduleWitness> {
        self.outcomes
            .iter()
            .find(|(o, _)| self.relaxed_matches(o))
            .map(|(_, w)| w)
    }

    fn relaxed_matches(&self, outcome: &[u64]) -> bool {
        suite()
            .into_iter()
            .find(|t| t.name == self.test)
            .is_some_and(|t| t.relaxed == outcome)
    }
}

impl LitmusTest {
    /// Whether `order` is allowed to exhibit the relaxed outcome.
    pub fn allows(&self, order: MemoryOrder) -> bool {
        self.allowed.contains(&order)
    }

    /// The litmus machine configuration for this test under `order`:
    /// one hardware thread per core on the tiny memory geometry (two L2
    /// banks, so `ADDR_X`/`ADDR_Y` land on distinct banks).
    pub fn config(&self, order: MemoryOrder) -> MachineConfig {
        let mut cfg = MachineConfig::paper(self.cores, 1, 4)
            .with_memory_order(order)
            .with_max_cycles(2_000_000);
        cfg.mem = MemConfig {
            memory_order: order,
            ..MemConfig::tiny()
        };
        cfg
    }

    /// Builds the canonical start state: machine constructed, program
    /// loaded, and every thread advanced through its thread-local setup
    /// instructions in a fixed round-robin. All schedules (exhaustive,
    /// random, replayed) start here, which is what makes a
    /// [`ScheduleWitness`] portable.
    pub fn start_state(&self, order: MemoryOrder) -> Machine {
        let mut m = Machine::new(self.config(order));
        m.load_program(self.program.clone());
        for gid in 0..self.cores {
            while m.thread_instructions(gid) < self.setup_instrs && !m.thread_halted(gid) {
                if !advance_one(&mut m, gid, self.cores) {
                    break;
                }
            }
        }
        m
    }

    /// Applies a choice string to `m`, one retired instruction per
    /// choice. Choices naming halted (or out-of-range) threads are
    /// skipped — a replay therefore tolerates a witness recorded from a
    /// slightly different exploration but stays byte-deterministic for
    /// witnesses it recorded itself.
    pub fn apply_choices(&self, m: &mut Machine, choices: &[u8]) {
        for &c in choices {
            let gid = c as usize;
            if gid >= self.cores || m.thread_halted(gid) {
                continue;
            }
            advance_one(m, gid, self.cores);
        }
    }

    /// Runs `m` unmasked to completion and reads the observed outcome.
    /// `None` if the machine fails to finish within the completion cap
    /// (which no well-formed litmus program does).
    pub fn complete(&self, m: &mut Machine) -> Option<Vec<u64>> {
        for _ in 0..COMPLETION_CYCLE_CAP {
            if m.step() {
                return Some(self.outcome(m));
            }
        }
        None
    }

    /// Reads the observed registers of a completed machine.
    pub fn outcome(&self, m: &Machine) -> Vec<u64> {
        self.observed
            .iter()
            .map(|&(gid, r)| m.thread_arch(gid).reg(r))
            .collect()
    }

    /// Runs one explicit schedule from the canonical start state.
    pub fn run_schedule(&self, order: MemoryOrder, choices: &[u8]) -> Option<Vec<u64>> {
        let mut m = self.start_state(order);
        self.apply_choices(&mut m, choices);
        self.complete(&mut m)
    }

    /// One seeded random walk: choices drawn uniformly over the live
    /// threads. Returns the witness (recording the choices actually
    /// applied) and the outcome.
    pub fn random_walk(
        &self,
        order: MemoryOrder,
        seed: u64,
        max_choices: usize,
    ) -> (ScheduleWitness, Option<Vec<u64>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = self.start_state(order);
        let mut choices = Vec::with_capacity(max_choices);
        while choices.len() < max_choices {
            let live: Vec<usize> = (0..self.cores).filter(|&g| !m.thread_halted(g)).collect();
            if live.is_empty() {
                break;
            }
            let gid = live[rng.random_range(0..live.len())];
            advance_one(&mut m, gid, self.cores);
            choices.push(gid as u8);
        }
        let outcome = self.complete(&mut m);
        let witness = ScheduleWitness {
            test: self.name.to_string(),
            order,
            seed,
            choices,
        };
        (witness, outcome)
    }

    /// Explores the test under `order` within `budget` and evaluates the
    /// result against the expected-outcome table.
    pub fn explore(&self, order: MemoryOrder, budget: &ExploreBudget) -> LitmusReport {
        let mut outcomes: BTreeMap<Vec<u64>, ScheduleWitness> = BTreeMap::new();
        if self.exhaustive {
            let start = self.start_state(order);
            let mut nodes = 0usize;
            let mut prefix = Vec::new();
            self.dfs(
                &start,
                order,
                budget.dfs_depth,
                budget.dfs_max_nodes,
                &mut nodes,
                &mut prefix,
                &mut outcomes,
            );
        }
        for seed in 1..=budget.walks {
            let (witness, outcome) = self.random_walk(order, seed, budget.walk_choices);
            if let Some(o) = outcome {
                outcomes.entry(o).or_insert(witness);
            }
        }
        let relaxed_observed = outcomes.contains_key(&self.relaxed);
        LitmusReport {
            test: self.name.to_string(),
            order,
            outcomes,
            relaxed_observed,
            expected_relaxed: self.allows(order),
        }
    }

    /// Depth-first enumeration: records the free-run completion of every
    /// prefix (including the empty one), then branches on each live
    /// thread.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        m: &Machine,
        order: MemoryOrder,
        depth: usize,
        max_nodes: usize,
        nodes: &mut usize,
        prefix: &mut Vec<u8>,
        outcomes: &mut BTreeMap<Vec<u64>, ScheduleWitness>,
    ) {
        if *nodes >= max_nodes {
            return;
        }
        *nodes += 1;
        let mut probe = m.clone();
        if let Some(o) = self.complete(&mut probe) {
            outcomes.entry(o).or_insert_with(|| ScheduleWitness {
                test: self.name.to_string(),
                order,
                seed: 0,
                choices: prefix.clone(),
            });
        }
        if depth == 0 {
            return;
        }
        for gid in 0..self.cores {
            if m.thread_halted(gid) {
                continue;
            }
            let mut child = m.clone();
            advance_one(&mut child, gid, self.cores);
            prefix.push(gid as u8);
            self.dfs(&child, order, depth - 1, max_nodes, nodes, prefix, outcomes);
            prefix.pop();
        }
    }
}

/// Steps `m` with only global thread `gid` allowed to issue until that
/// thread retires one instruction (or halts, or the whole machine
/// finishes). Memory-unit drains proceed regardless of the mask, so a
/// fence-stalled thread unblocks within the choice cycle cap. Returns
/// `false` when the thread made no progress within the cap.
fn advance_one(m: &mut Machine, gid: usize, cores: usize) -> bool {
    if m.thread_halted(gid) {
        return false;
    }
    let before = m.thread_instructions(gid);
    let mut masks = vec![0u32; cores];
    masks[gid] = 1; // one hardware thread per core in litmus machines
    for _ in 0..CHOICE_CYCLE_CAP {
        let done = m.step_masked(&masks);
        if done || m.thread_halted(gid) || m.thread_instructions(gid) > before {
            return true;
        }
    }
    false
}

/// Replays a serialized witness against the named test in [`suite`],
/// returning the (deterministic) outcome. `None` when the witness names
/// an unknown test or the replay fails to complete.
pub fn replay_witness(w: &ScheduleWitness) -> Option<Vec<u64>> {
    let test = suite().into_iter().find(|t| t.name == w.test)?;
    test.run_schedule(w.order, &w.choices)
}

fn r(n: u8) -> Reg {
    Reg::new(n)
}

/// SB (store buffering): each thread stores to its own location then
/// loads the other's. Both loads reading the initial 0 requires a store
/// to be delayed past a younger load — the signature TSO/relaxed
/// behaviour, forbidden under SC.
fn sb(fenced: bool) -> LitmusTest {
    let mut b = ProgramBuilder::new();
    let t1 = b.label();
    b.li(r(2), ADDR_X);
    b.li(r(3), ADDR_Y);
    b.li(r(5), 1);
    b.beq(r(0), 1, t1);
    // gid 0: X = 1; r4 = Y
    b.st(r(5), r(2), 0);
    if fenced {
        b.fence();
    }
    b.ld(r(4), r(3), 0);
    b.halt();
    b.bind(t1).expect("label bound once");
    // gid 1: Y = 1; r4 = X
    b.st(r(5), r(3), 0);
    if fenced {
        b.fence();
    }
    b.ld(r(4), r(2), 0);
    b.halt();
    LitmusTest {
        name: if fenced { "SB+fence" } else { "SB" },
        cores: 2,
        program: b.build().expect("valid litmus program"),
        setup_instrs: 4,
        observed: vec![(0, r(4)), (1, r(4))],
        relaxed: vec![0, 0],
        allowed: if fenced {
            &[]
        } else {
            &[MemoryOrder::Tso, MemoryOrder::RelaxedFence]
        },
        exhaustive: true,
    }
}

/// MP (message passing): the producer writes data (bank 1, late drain)
/// then a flag (bank 0, early drain); the consumer reads flag then data
/// back-to-back (independent registers, so the two loads grant on
/// consecutive cycles). Observing `flag = 1, data = 0` requires the
/// producer's stores to commit out of program order — which only the
/// bank-skewed [`MemoryOrder::RelaxedFence`] drain does, and a release
/// fence between the stores forbids again. The consumer's nop pad walks
/// its loads across the drain window; schedules shift them further.
fn mp(fenced: bool) -> LitmusTest {
    let mut b = ProgramBuilder::new();
    let t1 = b.label();
    b.li(r(2), ADDR_X); // flag (bank 0)
    b.li(r(3), ADDR_Y); // data (bank 1)
    b.li(r(5), 1);
    b.beq(r(0), 1, t1);
    // gid 0 (producer): DATA = 1; FLAG = 1
    b.st(r(5), r(3), 0);
    if fenced {
        b.fence_rel();
    }
    b.st(r(5), r(2), 0);
    b.halt();
    b.bind(t1).expect("label bound once");
    // gid 1 (consumer): r4 = FLAG; r6 = DATA (after a pad that lands
    // the loads inside the producer's buffered-store drain window)
    for _ in 0..16 {
        b.nop();
    }
    b.ld(r(4), r(2), 0);
    b.ld(r(6), r(3), 0);
    b.halt();
    LitmusTest {
        name: if fenced { "MP+fence.rel" } else { "MP" },
        cores: 2,
        program: b.build().expect("valid litmus program"),
        setup_instrs: 4,
        observed: vec![(1, r(4)), (1, r(6))],
        relaxed: vec![1, 0],
        allowed: if fenced {
            &[]
        } else {
            &[MemoryOrder::RelaxedFence]
        },
        exhaustive: true,
    }
}

/// LB (load buffering): each thread loads one location then stores to
/// the other. Both loads observing 1 would need a load to take effect
/// *after* a program-order-later store — impossible here under every
/// model (loads sample memory at issue-queue grant, before the same
/// thread's younger store can commit).
fn lb() -> LitmusTest {
    let mut b = ProgramBuilder::new();
    let t1 = b.label();
    b.li(r(2), ADDR_X);
    b.li(r(3), ADDR_Y);
    b.li(r(5), 1);
    b.beq(r(0), 1, t1);
    // gid 0: r4 = X; Y = 1
    b.ld(r(4), r(2), 0);
    b.st(r(5), r(3), 0);
    b.halt();
    b.bind(t1).expect("label bound once");
    // gid 1: r4 = Y; X = 1
    b.ld(r(4), r(3), 0);
    b.st(r(5), r(2), 0);
    b.halt();
    LitmusTest {
        name: "LB",
        cores: 2,
        program: b.build().expect("valid litmus program"),
        setup_instrs: 4,
        observed: vec![(0, r(4)), (1, r(4))],
        relaxed: vec![1, 1],
        allowed: &[],
        exhaustive: true,
    }
}

/// CoRR (coherent read-read): two program-order loads of the same word
/// must not observe a newer then an older value. The single backing
/// store with commit-at-drain gives a total order of writes, so this is
/// forbidden under every model.
fn corr() -> LitmusTest {
    let mut b = ProgramBuilder::new();
    let t1 = b.label();
    b.li(r(2), ADDR_X);
    b.li(r(5), 1);
    b.nop();
    b.beq(r(0), 1, t1);
    // gid 0: X = 1
    b.st(r(5), r(2), 0);
    b.halt();
    b.bind(t1).expect("label bound once");
    // gid 1: r4 = X; r6 = X
    b.ld(r(4), r(2), 0);
    b.ld(r(6), r(2), 0);
    b.halt();
    LitmusTest {
        name: "CoRR",
        cores: 2,
        program: b.build().expect("valid litmus program"),
        setup_instrs: 4,
        observed: vec![(1, r(4)), (1, r(6))],
        relaxed: vec![1, 0],
        allowed: &[],
        exhaustive: true,
    }
}

/// IRIW (independent reads of independent writes): two writers, two
/// readers observing the writes in opposite orders. The shared backing
/// store makes every write multi-copy-atomic, so this is forbidden
/// under every model — including the relaxed ones.
fn iriw() -> LitmusTest {
    let mut b = ProgramBuilder::new();
    let (t1, t2, t3) = (b.label(), b.label(), b.label());
    b.li(r(2), ADDR_X);
    b.li(r(3), ADDR_Y);
    b.li(r(5), 1);
    b.beq(r(0), 1, t1);
    b.beq(r(0), 2, t2);
    b.beq(r(0), 3, t3);
    // gid 0: X = 1
    b.st(r(5), r(2), 0);
    b.halt();
    b.bind(t1).expect("label bound once");
    // gid 1: Y = 1
    b.st(r(5), r(3), 0);
    b.halt();
    b.bind(t2).expect("label bound once");
    // gid 2: r4 = X; r6 = Y
    b.ld(r(4), r(2), 0);
    b.ld(r(6), r(3), 0);
    b.halt();
    b.bind(t3).expect("label bound once");
    // gid 3: r4 = Y; r6 = X
    b.ld(r(4), r(3), 0);
    b.ld(r(6), r(2), 0);
    b.halt();
    LitmusTest {
        name: "IRIW",
        cores: 4,
        program: b.build().expect("valid litmus program"),
        setup_instrs: 4,
        observed: vec![(2, r(4)), (2, r(6)), (3, r(4)), (3, r(6))],
        relaxed: vec![1, 0, 1, 0],
        allowed: &[],
        exhaustive: false,
    }
}

/// The full litmus suite with its per-model expected-outcome table
/// (mirrored in EXPERIMENTS.md).
pub fn suite() -> Vec<LitmusTest> {
    vec![
        sb(false),
        sb(true),
        mp(false),
        mp(true),
        lb(),
        corr(),
        iriw(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sb_relaxed_outcome_tracks_the_model() {
        let t = sb(false);
        let budget = ExploreBudget::default();
        let sc = t.explore(MemoryOrder::Sc, &budget);
        assert!(
            !sc.relaxed_observed,
            "SC must forbid SB (0,0): {:?}",
            sc.outcomes.keys()
        );
        assert!(sc.pass());
        let tso = t.explore(MemoryOrder::Tso, &budget);
        assert!(
            tso.relaxed_observed,
            "TSO must exhibit SB (0,0): {:?}",
            tso.outcomes.keys()
        );
        assert!(tso.pass());
    }

    #[test]
    fn full_fence_restores_sc_for_sb() {
        let t = sb(true);
        for order in [MemoryOrder::Tso, MemoryOrder::RelaxedFence] {
            let rep = t.explore(order, &ExploreBudget::smoke());
            assert!(rep.pass(), "SB+fence must forbid (0,0) under {order:?}");
        }
    }

    #[test]
    fn mp_reorders_only_under_relaxed_fence() {
        let t = mp(false);
        let budget = ExploreBudget::smoke();
        assert!(!t.explore(MemoryOrder::Tso, &budget).relaxed_observed);
        let relaxed = t.explore(MemoryOrder::RelaxedFence, &budget);
        assert!(
            relaxed.relaxed_observed,
            "RelaxedFence must exhibit MP: {:?}",
            relaxed.outcomes.keys()
        );
        assert!(t.explore(MemoryOrder::Sc, &budget).pass());
    }

    #[test]
    fn witness_replays_deterministically() {
        let t = sb(false);
        let rep = t.explore(MemoryOrder::Tso, &ExploreBudget::smoke());
        let w = rep.relaxed_witness().expect("TSO exhibits SB").clone();
        let first = replay_witness(&w).expect("replay completes");
        assert_eq!(first, t.relaxed);
        for _ in 0..3 {
            assert_eq!(replay_witness(&w).expect("replay completes"), first);
        }
    }

    #[test]
    fn witness_wire_round_trips() {
        let w = ScheduleWitness {
            test: "SB".to_string(),
            order: MemoryOrder::RelaxedFence,
            seed: 7,
            choices: vec![0, 1, 1, 0],
        };
        let bytes = glsc_wire::to_bytes(&w);
        let back: ScheduleWitness = glsc_wire::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, w);
    }

    #[test]
    fn suite_names_are_unique() {
        let names: Vec<&str> = suite().iter().map(|t| t.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }
}
