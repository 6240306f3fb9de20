//! Cross-configuration validation sweep: every kernel must validate under
//! unusual-but-legal machine configurations (odd widths, buffered
//! reservations, fail-on-miss policy, prefetcher off).

use glsc_kernels::{build_named, run_workload, Dataset, Variant, KERNEL_NAMES};
use glsc_sim::{GlscConfig, MachineConfig};

#[test]
fn width_eight_validates_everywhere() {
    // Width 8 is not in the paper's sweep but must still be correct.
    let cfg = MachineConfig::paper(2, 2, 8);
    for kernel in KERNEL_NAMES {
        let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
        run_workload(&w, &cfg).unwrap_or_else(|e| panic!("{kernel}: {e}"));
    }
}

#[test]
fn fail_on_miss_policy_preserves_correctness() {
    let mut cfg = MachineConfig::paper(2, 2, 4);
    cfg.glsc = GlscConfig {
        fail_on_l1_miss: true,
    };
    for kernel in KERNEL_NAMES {
        let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
        let out = run_workload(&w, &cfg).unwrap_or_else(|e| panic!("{kernel}: {e}"));
        assert!(out.report.cycles > 0);
    }
}

#[test]
fn buffered_reservations_preserve_correctness() {
    let mut cfg = MachineConfig::paper(2, 2, 4);
    cfg.mem.glsc_buffer_entries = Some(8);
    for kernel in KERNEL_NAMES {
        let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
        run_workload(&w, &cfg).unwrap_or_else(|e| panic!("{kernel}: {e}"));
    }
}

#[test]
fn prefetcher_off_preserves_correctness_and_timing_changes() {
    let mut on = MachineConfig::paper(1, 1, 4);
    on.mem.prefetch = true;
    let mut off = on.clone();
    off.mem.prefetch = false;
    let w_on = build_named("TMS", Dataset::Tiny, Variant::Glsc, &on).expect("known kernel");
    let w_off = build_named("TMS", Dataset::Tiny, Variant::Glsc, &off).expect("known kernel");
    let c_on = run_workload(&w_on, &on).unwrap().report.cycles;
    let c_off = run_workload(&w_off, &off).unwrap().report.cycles;
    assert_ne!(c_on, c_off, "prefetcher must affect timing");
    assert!(c_on < c_off, "streaming loads should benefit from prefetch");
}

#[test]
fn dataset_b_tiny_shapes_run_both_variants() {
    // Quick dataset-B coverage at a contended configuration.
    let cfg = MachineConfig::paper(4, 1, 4);
    for kernel in ["HIP", "TMS"] {
        for variant in [Variant::Base, Variant::Glsc] {
            let w = build_named(kernel, Dataset::Tiny, variant, &cfg).expect("known kernel");
            run_workload(&w, &cfg).unwrap_or_else(|e| panic!("{kernel}: {e}"));
        }
    }
}
