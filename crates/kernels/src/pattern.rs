//! Pattern-driven workloads: compiles any `glsc-patterns` spec into
//! Base and GLSC programs.
//!
//! This is the execution side of the pattern engine. `glsc-patterns`
//! owns the data side — taxonomy, grammar, bounds, deterministic index
//! generation — and this module turns a checked [`PatternSpec`] into a
//! runnable [`Workload`] with the same shape as the §5.2
//! microbenchmark: a flat precomputed index array, a zeroed counter
//! table, and the shared atomic-update loop emitted by
//! [`crate::micro`]'s `emit_update_loop`. A spec that reproduces the
//! microbenchmark's indices therefore reproduces its *program and
//! image bit-for-bit* (see `tests/pattern_differential.rs`).
//!
//! The validate closure recomputes expected counter values from the
//! generated indices, so every run is checked against a functional
//! model of "each touched word gains `update.amount()` per touch" —
//! lost updates from broken atomicity fail validation immediately.

use crate::common::{Dataset, MemImage, Variant, Workload};
use crate::micro::{emit_update_loop, UpdateLoop};
use glsc_patterns::PatternSpec;
use glsc_sim::MachineConfig;
use std::collections::HashMap;

/// A pattern-spec workload generator, analogous to [`crate::micro::Micro`]
/// but driven entirely by data.
#[derive(Clone, Debug)]
pub struct Pattern {
    spec: PatternSpec,
}

impl Pattern {
    /// Wraps a spec. The spec should already be checked (specs from
    /// [`PatternSpec::parse`] always are).
    pub fn new(spec: PatternSpec) -> Self {
        Self { spec }
    }

    /// Parses a spec string (the `stride:4x1024*64@9` grammar).
    pub fn parse(text: &str) -> Result<Self, glsc_patterns::ParseError> {
        PatternSpec::parse(text).map(Self::new)
    }

    /// The wrapped spec.
    pub fn spec(&self) -> &PatternSpec {
        &self.spec
    }

    /// Scales the iteration count for a dataset tier: `Tiny` runs an
    /// eighth of the spec'd iterations (minimum 1) so CI-sized sweeps
    /// finish fast, `A`/`B` run the spec as written.
    pub fn for_dataset(mut self, dataset: Dataset) -> Self {
        if dataset == Dataset::Tiny {
            self.spec.iters = (self.spec.iters / 8).max(1);
        }
        self
    }

    /// Builds the runnable workload for a machine configuration —
    /// same layout discipline as the microbenchmark: counter table
    /// allocated first, then one flat index array with thread `t`'s
    /// sequence at `t * iters * width`.
    pub fn build(&self, variant: Variant, cfg: &MachineConfig) -> Workload {
        let width = cfg.simd_width;
        let threads = cfg.total_threads();
        let indices = self.spec.gen_indices(threads, width);
        let counters = self.spec.index.table_words() as usize;
        let amount = self.spec.update.amount();

        let mut expected: HashMap<u32, u32> = HashMap::new();
        for seq in &indices {
            for i in seq {
                *expected.entry(*i).or_default() += amount;
            }
        }

        let mut image = MemImage::new();
        let a_counters = image.alloc_zeroed(counters);
        let per_thread = self.spec.iters as usize * width;
        let mut flat = Vec::with_capacity(threads * per_thread);
        for seq in &indices {
            flat.extend_from_slice(seq);
        }
        let a_idx = image.alloc_u32(&flat);

        let program = emit_update_loop(&UpdateLoop {
            variant,
            width,
            iters: self.spec.iters as usize,
            per_thread,
            a_idx,
            a_counters,
            backoff: false,
            add: amount as i64,
            reads: self.spec.reads as usize,
        });

        let name = format!("pattern:{}/{}/w{}", self.spec, variant.label(), width);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::run_workload;

    fn check(spec: &str, variant: Variant, cores: usize, tpc: usize, width: usize) {
        let cfg = MachineConfig::paper(cores, tpc, width);
        let w = Pattern::parse(spec)
            .expect("spec parses")
            .build(variant, &cfg);
        run_workload(&w, &cfg).unwrap_or_else(|e| panic!("{spec} {variant:?}: {e}"));
    }

    #[test]
    fn taxonomy_validates_on_both_variants() {
        for spec in [
            "stride:1x256*16",
            "stride:16x256*16",
            "mostly:1x256/p=0.1*16",
            "block:8/16*16",
            "conflict:p=0.25x64*16",
            "conflict:p=1x64*16",
            "trace:32:0,5,9,31*16",
        ] {
            check(spec, Variant::Glsc, 1, 2, 4);
            check(spec, Variant::Base, 1, 2, 4);
        }
    }

    #[test]
    fn multicore_and_wide_shapes_validate() {
        check("conflict:p=0.5x128*8", Variant::Glsc, 2, 2, 4);
        check("conflict:p=0.5x128*8", Variant::Base, 2, 2, 4);
        check("block:16/8*8", Variant::Glsc, 1, 1, 16);
    }

    #[test]
    fn update_kind_and_read_mix_validate() {
        check("stride:3x64*8!add5", Variant::Glsc, 1, 2, 4);
        check("stride:3x64*8!add5", Variant::Base, 1, 2, 4);
        check("conflict:p=0.25x64*8+r2", Variant::Glsc, 1, 2, 4);
        check("conflict:p=0.25x64*8+r2", Variant::Base, 1, 2, 4);
    }

    #[test]
    fn functional_reference_agrees_as_result_oracle() {
        // Single-threaded: the functional executor must leave the same
        // counter table the validate closure expects.
        for spec in [
            "stride:1x64*8",
            "conflict:p=0.5x32*8!add3",
            "block:4/8*8+r1",
        ] {
            for variant in [Variant::Glsc, Variant::Base] {
                let cfg = MachineConfig::paper(1, 1, 4);
                let w = Pattern::parse(spec).unwrap().build(variant, &cfg);
                let mut backing = glsc_mem::Backing::new();
                w.image.apply(&mut backing);
                glsc_sim::reference::run_functional(&w.program, &mut backing, 4, 2_000_000)
                    .unwrap_or_else(|e| panic!("{spec} {variant:?}: {e:?}"));
                (w.validate)(&backing).unwrap_or_else(|e| panic!("{spec} {variant:?}: {e}"));
            }
        }
    }

    #[test]
    fn names_and_fingerprints_separate_specs() {
        let cfg = MachineConfig::paper(1, 1, 4);
        let a = Pattern::parse("stride:1x64*8")
            .unwrap()
            .build(Variant::Glsc, &cfg);
        let b = Pattern::parse("stride:2x64*8")
            .unwrap()
            .build(Variant::Glsc, &cfg);
        assert_eq!(a.name, "pattern:stride:1x64*8@9/GLSC/w4");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn tiny_dataset_scales_iterations_down() {
        let p = Pattern::parse("stride:1x64*80").unwrap();
        assert_eq!(p.clone().for_dataset(Dataset::Tiny).spec().iters, 10);
        assert_eq!(p.clone().for_dataset(Dataset::A).spec().iters, 80);
        assert_eq!(
            Pattern::parse("stride:1x64*2")
                .unwrap()
                .for_dataset(Dataset::Tiny)
                .spec()
                .iters,
            1
        );
    }
}
