//! The §5.2 microbenchmark: atomic counter increments under four address
//! patterns that isolate GLSC's three benefit sources.
//!
//! Threads loop over precomputed index sequences and atomically increment
//! `counters[idx]`. The scenarios (quoting §5.2):
//!
//! * **A** — each SIMD element in a *distinct line* of a *shared* array:
//!   highlights **overlapping of L1 misses** (lines bounce between cores);
//! * **B** — thread-private indices, all `SIMD-width` elements on the
//!   *same line*: highlights **instruction reduction and L1-access
//!   reduction** (combining);
//! * **C** — thread-private, each element on a *different line* (all
//!   hits): isolates **instruction reduction** alone;
//! * **D** — all elements *identical*: no SIMD parallelism available, the
//!   worst case for GLSC (it serially resolves the aliases).
//!
//! The paper's Fig. 7 reports the Base/GLSC execution-time ratio per
//! scenario at widths 4 and 16 on the 4×4 machine.

use crate::common::{
    emit_backoff, emit_const_one, Dataset, MemImage, Variant, Workload, WORDS_PER_LINE,
};
use glsc_isa::{LaneSel, MReg, ProgramBuilder, Reg, VReg};
use glsc_rng::rngs::StdRng;
use glsc_rng::seq::SliceRandom;
use glsc_rng::{Rng, SeedableRng};
use glsc_sim::MachineConfig;
use std::collections::HashMap;

/// The four address patterns of §5.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Distinct lines, shared array, cross-core misses.
    A,
    /// Same line per vector, thread-private, always hits.
    B,
    /// Distinct lines per vector, thread-private, always hits.
    C,
    /// All lanes the same address (full aliasing).
    D,
}

impl Scenario {
    /// All scenarios in paper order.
    pub const ALL: [Scenario; 4] = [Scenario::A, Scenario::B, Scenario::C, Scenario::D];

    /// Single-letter label as in Fig. 7.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::A => "A",
            Scenario::B => "B",
            Scenario::C => "C",
            Scenario::D => "D",
        }
    }
}

/// Parameters for [`Micro`].
#[derive(Clone, Debug)]
pub struct MicroParams {
    /// Iterations per thread (each processing `SIMD-width` increments).
    pub iters: usize,
    /// Private lines per thread for scenarios B/C/D.
    pub private_lines: usize,
    /// Lines in the shared array for scenario A.
    pub shared_lines: usize,
    /// RNG seed.
    pub seed: u64,
}

impl MicroParams {
    /// The standard parameters the Fig. 7 harness runs at `dataset`.
    pub fn for_dataset(dataset: Dataset) -> Self {
        match dataset {
            Dataset::A | Dataset::B => MicroParams {
                iters: 400,
                private_lines: 64,
                shared_lines: 512,
                seed: 71,
            },
            Dataset::Tiny => MicroParams {
                iters: 40,
                private_lines: 8,
                shared_lines: 32,
                seed: 72,
            },
        }
    }
}

/// The microbenchmark.
#[derive(Clone, Debug)]
pub struct Micro {
    scenario: Scenario,
    params: MicroParams,
    backoff: bool,
}

impl Micro {
    /// Standard instance used by the Fig. 7 harness.
    pub fn new(scenario: Scenario, dataset: Dataset) -> Self {
        Self::with_params(scenario, MicroParams::for_dataset(dataset))
    }

    /// Instance with explicit parameters.
    pub fn with_params(scenario: Scenario, params: MicroParams) -> Self {
        Self {
            scenario,
            params,
            backoff: false,
        }
    }

    /// Enables the hardware-backoff retry variant: every atomic retry path
    /// first runs the `emit_backoff` LCG delay, the software analogue of
    /// the exponential-backoff arbitration the contention study compares
    /// against. The workload name gains a `+bo` suffix so cached results
    /// never collide with the plain variant.
    pub fn with_backoff(mut self) -> Self {
        self.backoff = true;
        self
    }

    /// Generates the per-thread index sequences (word indices into the
    /// counter array) for a machine shape.
    pub fn gen_indices(&self, threads: usize, width: usize) -> Vec<Vec<u32>> {
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let mut all = Vec::with_capacity(threads);
        for t in 0..threads {
            let mut seq = Vec::with_capacity(self.params.iters * width);
            for _ in 0..self.params.iters {
                match self.scenario {
                    Scenario::A => {
                        // W distinct random lines over the shared array.
                        let mut lines: Vec<usize> = Vec::with_capacity(width);
                        while lines.len() < width {
                            let l = rng.random_range(0..self.params.shared_lines);
                            if !lines.contains(&l) {
                                lines.push(l);
                            }
                        }
                        for l in lines {
                            let w = rng.random_range(0..WORDS_PER_LINE);
                            seq.push((l * WORDS_PER_LINE + w) as u32);
                        }
                    }
                    Scenario::B => {
                        let line = t * self.params.private_lines
                            + rng.random_range(0..self.params.private_lines);
                        let mut words: Vec<usize> = (0..WORDS_PER_LINE).collect();
                        words.shuffle(&mut rng);
                        for lane in 0..width {
                            seq.push((line * WORDS_PER_LINE + words[lane % WORDS_PER_LINE]) as u32);
                        }
                    }
                    Scenario::C => {
                        let mut lines: Vec<usize> = (0..self.params.private_lines).collect();
                        lines.shuffle(&mut rng);
                        for lane in 0..width {
                            let line = t * self.params.private_lines
                                + lines[lane % self.params.private_lines];
                            let w = rng.random_range(0..WORDS_PER_LINE);
                            seq.push((line * WORDS_PER_LINE + w) as u32);
                        }
                    }
                    Scenario::D => {
                        let line = t * self.params.private_lines
                            + rng.random_range(0..self.params.private_lines);
                        let w = rng.random_range(0..WORDS_PER_LINE);
                        for _ in 0..width {
                            seq.push((line * WORDS_PER_LINE + w) as u32);
                        }
                    }
                }
            }
            all.push(seq);
        }
        all
    }

    /// Number of counter words for a machine shape.
    fn counter_words(&self, threads: usize) -> usize {
        match self.scenario {
            Scenario::A => self.params.shared_lines * WORDS_PER_LINE,
            _ => threads * self.params.private_lines * WORDS_PER_LINE,
        }
    }

    /// Builds the runnable workload for a machine configuration.
    pub fn build(&self, variant: Variant, cfg: &MachineConfig) -> Workload {
        let width = cfg.simd_width;
        let threads = cfg.total_threads();
        let indices = self.gen_indices(threads, width);
        let counters = self.counter_words(threads);

        // Expected final counter values.
        let mut expected: HashMap<u32, u32> = HashMap::new();
        for seq in &indices {
            for i in seq {
                *expected.entry(*i).or_default() += 1;
            }
        }

        let mut image = MemImage::new();
        let a_counters = image.alloc_zeroed(counters);
        // One flat index array: thread t's sequence at t * iters * width.
        let per_thread = self.params.iters * width;
        let mut flat = Vec::with_capacity(threads * per_thread);
        for seq in &indices {
            flat.extend_from_slice(seq);
        }
        let a_idx = image.alloc_u32(&flat);

        let program = emit_update_loop(&UpdateLoop {
            variant,
            width,
            iters: self.params.iters,
            per_thread,
            a_idx,
            a_counters,
            backoff: self.backoff,
            add: 1,
            reads: 0,
        });

        let name = format!(
            "micro{}{}/{}/w{}",
            self.scenario.label(),
            if self.backoff { "+bo" } else { "" },
            variant.label(),
            width
        );
        Workload {
            name,
            program,
            image,
            validate: Box::new(move |backing| {
                for w in 0..counters as u32 {
                    let got = backing.read_u32(a_counters + 4 * w as u64);
                    let expect = expected.get(&w).copied().unwrap_or(0);
                    if got != expect {
                        return Err(format!("counter {w}: got {got}, expected {expect}"));
                    }
                }
                Ok(())
            }),
        }
    }
}

/// Code-shape parameters for the shared atomic-update loop emitter,
/// used by both the §5.2 microbenchmark and the pattern engine
/// (`crate::pattern`). With `add == 1` and `reads == 0` the emitted
/// stream is exactly the original microbenchmark program.
pub(crate) struct UpdateLoop {
    /// Base (ll/sc loop) or GLSC.
    pub variant: Variant,
    /// SIMD width (elements per vector).
    pub width: usize,
    /// Iterations per thread.
    pub iters: usize,
    /// Index words per thread in the flat index array.
    pub per_thread: usize,
    /// Address of the flat index array.
    pub a_idx: u64,
    /// Address of the counter table.
    pub a_counters: u64,
    /// Emit the LCG software-backoff delay on every retry path.
    pub backoff: bool,
    /// Immediate added to each touched counter (1 for plain increment).
    pub add: i64,
    /// Extra plain (non-atomic) gathers of the indexed words per
    /// iteration — the pattern engine's read/write-mix knob.
    pub reads: usize,
}

/// Emits the shared update loop: per iteration, load a vector of word
/// indices, optionally gather them `reads` times (plain loads), then
/// atomically add `add` to `counters[idx]` for every lane — with a
/// gather-link/scatter-conditional retry loop (GLSC) or a per-lane
/// ll/sc loop (Base).
pub(crate) fn emit_update_loop(p: &UpdateLoop) -> glsc_isa::Program {
    let UpdateLoop {
        variant,
        width,
        iters,
        per_thread,
        a_idx,
        a_counters,
        backoff,
        add,
        reads,
    } = *p;
    let mut b = ProgramBuilder::new();
    let r = Reg::new;
    let v = VReg::new;
    let m = MReg::new;
    let (r_my, r_cnt, r_it, r_addr, r_t1, r_t2, r_t3) = (r(2), r(3), r(4), r(5), r(6), r(7), r(8));
    // LCG state and spin scratch for the `+bo` backoff variant; untouched
    // by the plain variant so its code stream is byte-identical to pre-PR.
    let (r_bo_state, r_bo_tmp) = (r(9), r(10));
    let (v_idx, v_tmp) = (v(0), v(1));
    let (f_todo, f_tmp) = (m(0), m(1));

    emit_const_one(&mut b);
    b.mul(r_my, r(0), (per_thread * 4) as i64);
    b.addi(r_my, r_my, a_idx as i64);
    b.li(r_cnt, a_counters as i64);
    b.li(r_it, 0);
    if backoff {
        b.mv(r_bo_state, r(0));
    }
    let top = b.here();
    b.mul(r_addr, r_it, (width * 4) as i64);
    b.add(r_addr, r_addr, r_my);
    b.vload(v_idx, r_addr, 0, None);
    // Read/write-mix knob: plain (non-atomic) gathers of the same words
    // before the atomic update. Zero for the microbenchmark.
    for _ in 0..reads {
        b.vgather(v_tmp, r_cnt, v_idx, None);
    }
    b.sync_on();
    match variant {
        Variant::Glsc => {
            b.mall(f_todo);
            let retry = b.here();
            if backoff {
                emit_backoff(&mut b, r_bo_state, r_bo_tmp);
            }
            b.vgatherlink(f_tmp, v_tmp, r_cnt, v_idx, f_todo);
            b.vadd(v_tmp, v_tmp, add, Some(f_tmp));
            b.vscattercond(f_tmp, v_tmp, r_cnt, v_idx, f_tmp);
            b.mxor(f_todo, f_todo, f_tmp);
            b.bmnz(f_todo, retry);
        }
        Variant::Base => {
            for lane in 0..width {
                b.vextract(r_t1, v_idx, LaneSel::Imm(lane as u8));
                b.shl(r_t1, r_t1, 2);
                b.add(r_t1, r_t1, r_cnt);
                let retry = b.here();
                if backoff {
                    emit_backoff(&mut b, r_bo_state, r_bo_tmp);
                }
                b.ll(r_t2, r_t1, 0);
                b.addi(r_t2, r_t2, add);
                b.sc(r_t3, r_t2, r_t1, 0);
                b.beq(r_t3, 0, retry);
            }
        }
    }
    b.sync_off();
    b.addi(r_it, r_it, 1);
    b.blt(r_it, iters as i64, top);
    b.halt();
    b.build().expect("micro program assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::run_workload;

    fn check(scenario: Scenario, variant: Variant, cores: usize, tpc: usize, width: usize) {
        let cfg = MachineConfig::paper(cores, tpc, width);
        let w = Micro::new(scenario, Dataset::Tiny).build(variant, &cfg);
        run_workload(&w, &cfg).expect("runs and validates");
    }

    #[test]
    fn all_scenarios_both_variants_small() {
        for s in Scenario::ALL {
            check(s, Variant::Glsc, 1, 2, 4);
            check(s, Variant::Base, 1, 2, 4);
        }
    }

    #[test]
    fn multicore_scenario_a() {
        check(Scenario::A, Variant::Glsc, 2, 2, 4);
        check(Scenario::A, Variant::Base, 2, 2, 4);
    }

    #[test]
    fn backoff_variant_validates_and_is_distinct() {
        let cfg = MachineConfig::paper(2, 2, 4);
        let micro = Micro::new(Scenario::A, Dataset::Tiny);
        let plain = micro.clone().build(Variant::Glsc, &cfg);
        let bo = micro.clone().with_backoff().build(Variant::Glsc, &cfg);
        assert_eq!(bo.name, "microA+bo/GLSC/w4");
        assert_ne!(
            plain.fingerprint(),
            bo.fingerprint(),
            "cache keys must separate the variants"
        );
        run_workload(&bo, &cfg).expect("backoff variant validates");
        let bo_base = micro.with_backoff().build(Variant::Base, &cfg);
        run_workload(&bo_base, &cfg).expect("scalar backoff variant validates");
    }

    #[test]
    fn width_sixteen_scenario_d() {
        check(Scenario::D, Variant::Glsc, 1, 1, 16);
        check(Scenario::D, Variant::Base, 1, 1, 16);
    }

    #[test]
    fn scenario_b_combines_lines() {
        let cfg = MachineConfig::paper(1, 1, 4);
        let w = Micro::new(Scenario::B, Dataset::Tiny).build(Variant::Glsc, &cfg);
        let out = run_workload(&w, &cfg).unwrap();
        // Same-line lanes: combining must collapse most atomic accesses.
        assert!(
            out.report.gsu.combining_savings() * 2 > out.report.gsu.atomic_elems,
            "saved {} of {}",
            out.report.gsu.combining_savings(),
            out.report.gsu.atomic_elems
        );
    }

    #[test]
    fn scenario_d_aliases_every_vector() {
        let cfg = MachineConfig::paper(1, 1, 4);
        let w = Micro::new(Scenario::D, Dataset::Tiny).build(Variant::Glsc, &cfg);
        let out = run_workload(&w, &cfg).unwrap();
        assert!(out.report.gsu.sc_fail_alias > 0);
        // Every iteration needs width rounds: alias failures are
        // (width-1)/width of all first-round attempts.
        assert!(out.report.gsu.element_failure_rate() > 0.25);
    }

    #[test]
    fn scenario_indices_respect_their_patterns() {
        let micro_b = Micro::new(Scenario::B, Dataset::Tiny);
        for seq in micro_b.gen_indices(2, 4) {
            for chunk in seq.chunks(4) {
                let line = chunk[0] / 16;
                assert!(chunk.iter().all(|i| i / 16 == line), "B: same line");
                let mut sorted = chunk.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), 4, "B: distinct words");
            }
        }
        let micro_d = Micro::new(Scenario::D, Dataset::Tiny);
        for seq in micro_d.gen_indices(2, 4) {
            for chunk in seq.chunks(4) {
                assert!(chunk.iter().all(|i| *i == chunk[0]), "D: identical");
            }
        }
        let micro_c = Micro::new(Scenario::C, Dataset::Tiny);
        for seq in micro_c.gen_indices(2, 4) {
            for chunk in seq.chunks(4) {
                let mut lines: Vec<u32> = chunk.iter().map(|i| i / 16).collect();
                lines.sort_unstable();
                lines.dedup();
                assert_eq!(lines.len(), 4, "C: distinct lines");
            }
        }
    }
}
