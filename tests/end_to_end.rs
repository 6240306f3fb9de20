//! Workspace-level integration tests: every benchmark, both variants,
//! through the public umbrella API, with validation.

use glsc::kernels::{build_named, run_workload, Dataset, Variant, KERNEL_NAMES};
use glsc::sim::MachineConfig;

#[test]
fn all_kernels_both_variants_validate_on_2x2() {
    let cfg = MachineConfig::paper(2, 2, 4);
    for kernel in KERNEL_NAMES {
        for variant in [Variant::Base, Variant::Glsc] {
            let w = build_named(kernel, Dataset::Tiny, variant, &cfg).expect("known kernel");
            let out = run_workload(&w, &cfg)
                .unwrap_or_else(|e| panic!("{kernel}/{}: {e}", variant.label()));
            assert!(out.report.cycles > 0, "{kernel} must do work");
        }
    }
}

#[test]
fn all_kernels_run_at_width_sixteen() {
    let cfg = MachineConfig::paper(1, 2, 16);
    for kernel in KERNEL_NAMES {
        let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
        run_workload(&w, &cfg).unwrap_or_else(|e| panic!("{kernel}: {e}"));
    }
}

#[test]
fn all_kernels_both_variants_validate_at_width_thirty_two() {
    // `MAX_SIMD_WIDTH`: every lane of the memory units' fixed lane arrays.
    let cfg = MachineConfig::paper(2, 2, glsc::isa::MAX_SIMD_WIDTH);
    for kernel in KERNEL_NAMES {
        for variant in [Variant::Base, Variant::Glsc] {
            let w = build_named(kernel, Dataset::Tiny, variant, &cfg).expect("known kernel");
            run_workload(&w, &cfg).unwrap_or_else(|e| panic!("{kernel}/{}: {e}", variant.label()));
        }
    }
}

#[test]
fn all_kernels_run_at_width_one() {
    let cfg = MachineConfig::paper(2, 1, 1);
    for kernel in KERNEL_NAMES {
        for variant in [Variant::Base, Variant::Glsc] {
            let w = build_named(kernel, Dataset::Tiny, variant, &cfg).expect("known kernel");
            run_workload(&w, &cfg).unwrap_or_else(|e| panic!("{kernel}: {e}"));
        }
    }
}

#[test]
fn simulation_is_deterministic() {
    let cfg = MachineConfig::paper(2, 2, 4);
    let cycles: Vec<u64> = (0..2)
        .map(|_| {
            let w = build_named("TMS", Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
            run_workload(&w, &cfg).unwrap().report.cycles
        })
        .collect();
    assert_eq!(cycles[0], cycles[1], "same workload, same cycle count");
}

#[test]
fn glsc_and_base_agree_on_final_state_for_exact_kernels() {
    // HIP, GBC, TMS and micro have schedule-independent final answers;
    // run_workload already validates each against the same host
    // reference, so agreement is transitive. This test asserts the
    // reports differ in the expected *direction* instead: GLSC executes
    // fewer instructions at width 4.
    let cfg = MachineConfig::paper(1, 1, 4);
    for kernel in ["HIP", "TMS", "SMC", "FS", "GBC"] {
        let base = run_workload(
            &build_named(kernel, Dataset::Tiny, Variant::Base, &cfg).expect("known kernel"),
            &cfg,
        )
        .unwrap()
        .report;
        let glsc = run_workload(
            &build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel"),
            &cfg,
        )
        .unwrap()
        .report;
        assert!(
            glsc.total_instructions() < base.total_instructions(),
            "{kernel}: GLSC {} !< Base {}",
            glsc.total_instructions(),
            base.total_instructions()
        );
    }
}

#[test]
fn glsc_retry_loops_converge_with_tiny_reservation_buffer() {
    // §3.3's alternative GLSC implementation (fully-associative buffer)
    // end-to-end: a 1-entry buffer still lets adjacent ll/sc pairs make
    // progress under cross-core contention.
    use glsc::isa::{ProgramBuilder, Reg};
    use glsc::sim::Machine;
    let mut b = ProgramBuilder::new();
    let (base, i, tmp, ok) = (Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5));
    b.li(base, 0x1000);
    b.li(i, 0);
    let top = b.here();
    let retry = b.here();
    b.ll(tmp, base, 0);
    b.addi(tmp, tmp, 1);
    b.sc(ok, tmp, base, 0);
    b.beq(ok, 0, retry);
    b.addi(i, i, 1);
    b.blt(i, 20, top);
    b.halt();
    let _ = top;
    let mut cfg = MachineConfig::paper(2, 2, 1);
    cfg.mem.glsc_buffer_entries = Some(1);
    let mut machine = Machine::new(cfg);
    machine.load_program(b.build().unwrap());
    machine.run().unwrap();
    assert_eq!(machine.mem().backing().read_u32(0x1000), 4 * 20);
}

#[test]
fn kernels_validate_with_buffered_reservations() {
    // The whole benchmark suite still validates when GLSC entries live in
    // a small fully-associative buffer (capacity = SIMD-width x threads,
    // the paper's suggested sizing).
    let mut cfg = MachineConfig::paper(2, 2, 4);
    cfg.mem.glsc_buffer_entries = Some(4 * 2);
    for kernel in ["HIP", "TMS", "GBC"] {
        let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
        run_workload(&w, &cfg).unwrap_or_else(|e| panic!("{kernel}: {e}"));
    }
}

#[test]
fn umbrella_reexports_are_usable() {
    // Compile-time check that the umbrella exposes the full stack.
    let _cfg: glsc::mem::MemConfig = glsc::mem::MemConfig::default();
    let _glsc: glsc::core::GlscConfig = glsc::core::GlscConfig::default();
    let mut b = glsc::isa::ProgramBuilder::new();
    b.halt();
    let program = b.build().unwrap();
    let mut machine = glsc::sim::Machine::new(glsc::sim::MachineConfig::paper(1, 1, 1));
    machine.load_program(program);
    assert!(machine.run().is_ok());
}
