//! Regenerates the committed golden tables of two oracles, printed as
//! paste-ready Rust rows:
//!
//! * `tests/noc_ideal_differential.rs`: `GOLDEN`, `MICRO_GOLDEN` and
//!   `WIDTH_GOLDEN`, the cycles and L1 accesses of every kernel × Fig. 6
//!   shape × variant, the four microbenchmark scenarios and the HIP SIMD
//!   width extremes on the default (Ideal) fabric;
//! * `tests/differential.rs`: `REPORT_DIGESTS`, the `glsc_wire::fnv64`
//!   digest of the `glsc-wire` encoding of each `fast_forward_matches_naive_all_kernels`
//!   job's `run_naive` report, in that test's job order.
//!
//! An intentional change to timing or statistics reruns this and explains
//! the diff of the tables it replaces:
//!
//! ```text
//! cargo run --release --example golden_dump
//! ```
//!
//! The combined digest of that test's random-program leg depends on the
//! test's own program generator; its failing assertion prints the new
//! value.
use glsc::kernels::{build_named, micro, run_workload, Dataset, Variant, KERNEL_NAMES};
use glsc::sim::{ArbitrationPolicy, Machine, MachineConfig, MemoryOrder, NocConfig};

fn main() {
    noc_ideal_tables();
    report_digests();
}

fn noc_ideal_tables() {
    let run = |kernel: &str, cfg: &MachineConfig, v: Variant| {
        let w = build_named(kernel, Dataset::Tiny, v, cfg).expect("known kernel");
        let report = run_workload(&w, cfg).expect("kernel runs").report;
        (report.cycles, report.l1_accesses())
    };
    println!("// tests/noc_ideal_differential.rs: GOLDEN");
    for kernel in KERNEL_NAMES {
        for (c, t) in [(1usize, 1usize), (1, 4), (4, 1), (4, 4)] {
            for v in [Variant::Base, Variant::Glsc] {
                let (cycles, l1) = run(kernel, &MachineConfig::paper(c, t, 4), v);
                println!("    (\"{kernel}\", {c}, {t}, Variant::{v:?}, {cycles}, {l1}),");
            }
        }
    }
    println!("// tests/noc_ideal_differential.rs: MICRO_GOLDEN");
    for (i, s) in micro::Scenario::ALL.into_iter().enumerate() {
        for v in [Variant::Base, Variant::Glsc] {
            let cfg = MachineConfig::paper(4, 4, 4);
            let w = micro::Micro::new(s, Dataset::Tiny).build(v, &cfg);
            let report = run_workload(&w, &cfg).expect("micro runs").report;
            println!(
                "    ({i}, Variant::{v:?}, {}, {}),",
                report.cycles,
                report.l1_accesses()
            );
        }
    }
    println!("// tests/noc_ideal_differential.rs: WIDTH_GOLDEN");
    for width in [1usize, 16] {
        for v in [Variant::Base, Variant::Glsc] {
            let (cycles, l1) = run("HIP", &MachineConfig::paper(4, 4, width), v);
            println!("    ({width}, Variant::{v:?}, {cycles}, {l1}),");
        }
    }
}

/// The job matrix of `fast_forward_matches_naive_all_kernels`, in its
/// order, labelled as that test labels each job.
fn report_digests() {
    println!("// tests/differential.rs: REPORT_DIGESTS");
    for kernel in KERNEL_NAMES {
        for (cores, tpc) in [(1usize, 1usize), (1, 4), (4, 1), (4, 4)] {
            let mut fabrics = vec![(NocConfig::ideal(), ArbitrationPolicy::Free)];
            if (cores, tpc) == (4, 4) {
                fabrics.push((NocConfig::ring(), ArbitrationPolicy::AgedPriority));
            }
            for (noc, policy) in &fabrics {
                for order in MemoryOrder::ALL {
                    for variant in [Variant::Base, Variant::Glsc] {
                        let cfg = MachineConfig::paper(cores, tpc, 4)
                            .with_noc(noc.clone())
                            .with_arbitration(*policy)
                            .with_memory_order(order);
                        let w = build_named(kernel, Dataset::Tiny, variant, &cfg)
                            .expect("known kernel");
                        let mut m = Machine::new(cfg);
                        w.image.apply(m.mem_mut().backing_mut());
                        m.load_program(w.program.clone());
                        let report = m.run_naive().expect("kernel runs");
                        let digest = glsc_wire::fnv64(&glsc_wire::to_bytes(&report));
                        println!(
                            "    (\"{kernel} {cores}x{tpc} {variant:?} {order:?} {:?} {}\", {digest:#018x}),",
                            noc.topology,
                            policy.label()
                        );
                    }
                }
            }
        }
    }
}
