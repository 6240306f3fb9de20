//! Differential oracle: the pattern engine against the hand-coded §5.2
//! microbenchmark.
//!
//! The pattern builder mirrors the microbenchmark's layout discipline
//! (counter table first, then one flat index array) and both emit
//! through the same shared update-loop emitter — so a pattern spec that
//! reproduces the micro generator's indices must produce the *same
//! program, same memory image, and bit-identical `RunReport`*. Any
//! drift in the refactored emitter, the image layout, or the pattern
//! executor shows up here as a hard failure, not a plausible-looking
//! but subtly different figure.

use glsc_kernels::micro::{Micro, Scenario};
use glsc_kernels::pattern::Pattern;
use glsc_kernels::{build_named, run_workload, Dataset, KernelError, Variant};
use glsc_patterns::{IndexPattern, PatternSpec, UpdateKind};
use glsc_sim::MachineConfig;

/// Tiny-dataset micro parameters (see `Micro::new`): 40 iterations,
/// seed 72; scenario A's counter table is `shared_lines * 16 = 512`
/// words regardless of thread count.
const MICRO_TINY_ITERS: u32 = 40;

/// The hand-written equivalent spec: a trace pattern carrying exactly
/// the micro generator's flat index stream over the same table size.
fn trace_twin(micro: &Micro, table_words: u32, threads: usize, width: usize) -> PatternSpec {
    let flat: Vec<u32> = micro
        .gen_indices(threads, width)
        .into_iter()
        .flatten()
        .collect();
    PatternSpec {
        index: IndexPattern::Trace {
            len: table_words,
            indices: flat,
        },
        iters: MICRO_TINY_ITERS,
        seed: 0, // traces draw nothing from the RNG
        update: UpdateKind::Inc,
        reads: 0,
    }
}

fn assert_twin_bit_identical(
    scenario: Scenario,
    table_words: u32,
    variant: Variant,
    (cores, tpc): (usize, usize),
    width: usize,
) {
    let cfg = MachineConfig::paper(cores, tpc, width);
    let threads = cfg.total_threads();
    let micro = Micro::new(scenario, Dataset::Tiny);
    let micro_w = micro.build(variant, &cfg);

    let spec = trace_twin(&micro, table_words, threads, width);
    spec.check().expect("twin spec is in bounds");
    let pat_w = Pattern::new(spec).build(variant, &cfg);

    assert_eq!(
        pat_w.program, micro_w.program,
        "{scenario:?}/{variant:?}: programs diverged"
    );
    assert_eq!(
        pat_w.fingerprint(),
        micro_w.fingerprint(),
        "{scenario:?}/{variant:?}: image or program fingerprint diverged"
    );

    let micro_out = run_workload(&micro_w, &cfg).expect("micro runs");
    let pat_out = run_workload(&pat_w, &cfg).expect("pattern twin runs");
    assert_eq!(
        pat_out.report, micro_out.report,
        "{scenario:?}/{variant:?}: RunReports not bit-identical"
    );
}

#[test]
fn trace_twin_of_micro_a_is_bit_identical_both_variants() {
    // Scenario A, Tiny: 512-word shared table.
    assert_twin_bit_identical(Scenario::A, 512, Variant::Glsc, (1, 2), 4);
    assert_twin_bit_identical(Scenario::A, 512, Variant::Base, (1, 2), 4);
}

#[test]
fn trace_twin_survives_multicore_and_other_scenarios() {
    // Scenario A on the paper's 4x4 machine: 16 threads, same table.
    assert_twin_bit_identical(Scenario::A, 512, Variant::Glsc, (4, 4), 4);
    // Scenario B, Tiny, 2 threads: private tables, 2 * 8 * 16 words.
    assert_twin_bit_identical(Scenario::B, 256, Variant::Glsc, (1, 2), 4);
    // Scenario D (full aliasing — the GLSC worst case) stays identical.
    assert_twin_bit_identical(Scenario::D, 256, Variant::Base, (1, 2), 4);
}

#[test]
fn stride_one_spec_compiles_to_the_micro_program() {
    // A `stride:1` spec over the micro scenario's exact geometry (512
    // counter words, 40 iterations) allocates the same addresses and
    // flows through the same emitter, so the *program* must equal the
    // hand-coded kernel's instruction for instruction — only the index
    // array contents (and hence timing) differ.
    let cfg = MachineConfig::paper(1, 2, 4);
    for variant in [Variant::Glsc, Variant::Base] {
        let micro_w = Micro::new(Scenario::A, Dataset::Tiny).build(variant, &cfg);
        let pat_w = Pattern::parse("stride:1x512*40")
            .expect("spec parses")
            .build(variant, &cfg);
        assert_eq!(
            pat_w.program, micro_w.program,
            "{variant:?}: stride:1 program diverged from micro"
        );
    }
}

#[test]
fn trace_twin_round_trips_through_the_text_grammar() {
    // The twin is expressible as a plain spec string: format -> parse
    // -> build produces the same workload fingerprint.
    let cfg = MachineConfig::paper(1, 2, 4);
    let micro = Micro::new(Scenario::A, Dataset::Tiny);
    let spec = trace_twin(&micro, 512, cfg.total_threads(), cfg.simd_width);
    let reparsed = PatternSpec::parse(&spec.to_string()).expect("canonical text parses");
    assert_eq!(reparsed, spec);
    let a = Pattern::new(spec).build(Variant::Glsc, &cfg);
    let b = Pattern::new(reparsed).build(Variant::Glsc, &cfg);
    assert_eq!(a.fingerprint(), b.fingerprint());
}

#[test]
fn build_named_dispatches_patterns_and_rejects_garbage() {
    let cfg = MachineConfig::paper(1, 2, 4);
    // The pattern: namespace builds and runs. Dataset::A leaves the
    // spec's iteration count untouched.
    let w = build_named(
        "pattern:conflict:p=0.5x64*8",
        Dataset::A,
        Variant::Glsc,
        &cfg,
    )
    .expect("pattern namespace builds");
    run_workload(&w, &cfg).expect("pattern workload validates");
    // Tiny scales iterations down: distinct cache identity, still runs.
    let tiny = build_named(
        "pattern:conflict:p=0.5x64*8",
        Dataset::Tiny,
        Variant::Glsc,
        &cfg,
    )
    .expect("tiny tier builds");
    assert_ne!(tiny.fingerprint(), w.fingerprint());

    // Typed errors, never panics: hostile kernel names and specs.
    assert!(matches!(
        build_named("EVIL", Dataset::Tiny, Variant::Glsc, &cfg),
        Err(KernelError::Unknown(_))
    ));
    assert!(matches!(
        build_named("pattern:stride:0x9", Dataset::Tiny, Variant::Glsc, &cfg),
        Err(KernelError::Pattern(_))
    ));
    assert!(matches!(
        build_named("pattern:", Dataset::Tiny, Variant::Glsc, &cfg),
        Err(KernelError::Pattern(_))
    ));
}
