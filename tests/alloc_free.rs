//! The steady-state cycle loop does not heap-allocate (DESIGN.md §8).
//!
//! A counting global allocator counts the allocations of the thread that
//! turns counting on, and only while it is on: the test harness's own
//! threads allocate concurrently. Each job runs past its warm-up (the first
//! touches of backing pages, cache tag sets and unit buffers), then counts
//! a later window of `run_for` cycles that exercises the path under test
//! and must make no allocation. One job runs under a fault plan, whose
//! injection points pick their victims without collecting them.
//!
//! `cargo test --release --test alloc_free -- --ignored --nocapture`
//! prints the allocations `Machine::run` makes over the whole Fig. 6 and
//! contention job sets.

use glsc::kernels::pattern::Pattern;
use glsc::kernels::{build_named, Dataset, Variant, Workload, KERNEL_NAMES};
use glsc::mem::{ChaosConfig, FaultPlan};
use glsc::sim::{ArbitrationPolicy, Machine, MachineConfig, MemoryOrder, NocConfig, SlicedRun};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calls of a thread that counts.
struct Counting;

fn note() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            COUNT.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call is forwarded to `System` unchanged; counting touches
// only const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the allocations this thread made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, COUNT.with(Cell::get))
}

/// A machine with `w` mounted as `run_workload` mounts it, or with the
/// fault plan of chaos seed `chaos` as `run_workload_chaos` does.
fn mounted(w: &Workload, cfg: &MachineConfig, chaos: Option<u64>) -> Machine {
    let mut m = Machine::new(cfg.clone());
    if let Some(seed) = chaos {
        m.mem_mut()
            .install_fault_plan(FaultPlan::new(ChaosConfig::from_seed(seed)));
    }
    w.image.apply(m.mem_mut().backing_mut());
    m.load_program(w.program.clone());
    m
}

/// Runs `kernel` at dataset A on a 4x4 width-4 machine under `order`
/// (and chaos seed `chaos`, if any) and counts the allocations of its last
/// quarter, up to the cycle before the last (the final step builds the
/// report). Returns them with the growth of `probe`, a counter of the
/// path under test, over that window, after checking that the sliced run
/// matches an uninterrupted one and validates.
fn last_quarter(
    kernel: &str,
    variant: Variant,
    order: MemoryOrder,
    chaos: Option<u64>,
    probe: impl Fn(&Machine) -> u64,
) -> (u64, u64) {
    let cfg = MachineConfig::paper(4, 4, 4).with_memory_order(order);
    let w = build_named(kernel, Dataset::A, variant, &cfg).expect("known kernel");
    let whole = mounted(&w, &cfg, chaos).run().expect("uninterrupted run");
    let mut m = mounted(&w, &cfg, chaos);
    let mut run = SlicedRun::new(&m);
    let start = whole.cycles - whole.cycles / 4;
    assert!(m.run_for(&mut run, start).unwrap().is_none());
    let before = probe(&m);
    let (slice, allocations) = counted(|| m.run_for(&mut run, whole.cycles - 1 - start));
    assert!(slice.unwrap().is_none(), "{kernel}: finished early");
    let grown = probe(&m) - before;
    let report = m.run_for(&mut run, u64::MAX).unwrap().expect("finished");
    assert_eq!(report, whole, "{kernel}: sliced run differs");
    (w.validate)(m.mem().backing()).unwrap_or_else(|e| panic!("{kernel}: {e}"));
    (allocations, grown)
}

#[test]
fn glsc_gathers_and_scatters_do_not_allocate() {
    let (allocations, scatterconds) =
        last_quarter("GPS", Variant::Glsc, MemoryOrder::Sc, None, |m| {
            m.report().gsu.scatterconds
        });
    assert!(scatterconds > 0);
    assert_eq!(allocations, 0);
}

#[test]
fn unit_stride_vector_loads_do_not_allocate() {
    let (allocations, line_requests) =
        last_quarter("TMS", Variant::Base, MemoryOrder::Sc, None, |m| {
            m.report().lsu.vector_line_requests
        });
    assert!(line_requests > 0);
    assert_eq!(allocations, 0);
}

#[test]
fn tso_write_buffers_do_not_allocate() {
    let (allocations, drains) = last_quarter("MFP", Variant::Base, MemoryOrder::Tso, None, |m| {
        m.report().lsu.wbuf_drains
    });
    assert!(drains > 0);
    assert_eq!(allocations, 0);
}

/// GPS rather than HIP: HIP streams its input to the end, so its last
/// quarter first-touches L2 tag sets (496 allocations without a fault
/// plan), while GPS's footprint is resident by then.
#[test]
fn chaos_injection_points_do_not_allocate() {
    let (allocations, points) = last_quarter("GPS", Variant::Glsc, MemoryOrder::Sc, Some(7), |m| {
        m.mem().chaos_stats().expect("fault plan").injection_points
    });
    assert!(points > 0);
    assert_eq!(allocations, 0);
}

/// Allocations inside `Machine::run` over `jobs`, and the cycles run.
fn census(jobs: &[(Workload, MachineConfig)]) -> (u64, u64) {
    jobs.iter().fold((0, 0), |(allocs, cycles), (w, cfg)| {
        let mut m = mounted(w, cfg, None);
        let (report, n) = counted(|| m.run());
        let report = report.unwrap_or_else(|e| panic!("{}: {e}", w.name));
        (allocs + n, cycles + report.cycles)
    })
}

/// The Fig. 6 job set: every kernel, both variants, the four Fig. 6
/// shapes, dataset A, width 4.
fn figure_suite() -> Vec<(Workload, MachineConfig)> {
    let mut jobs = Vec::new();
    for kernel in KERNEL_NAMES {
        for (cores, threads) in [(1, 1), (1, 4), (4, 1), (4, 4)] {
            for variant in [Variant::Base, Variant::Glsc] {
                let cfg = MachineConfig::paper(cores, threads, 4);
                let w = build_named(kernel, Dataset::A, variant, &cfg).expect("known kernel");
                jobs.push((w, cfg));
            }
        }
    }
    jobs
}

/// The contention job set at 4x4 width 4, both variants: the pattern
/// taxonomy under SC on {Ideal, Ring} x {Free, AgedPriority}, and the
/// kernels that issue plain stores under TSO on {Ideal, Ring} with Free
/// arbitration.
fn contention() -> Vec<(Workload, MachineConfig)> {
    let specs = [
        "stride:1x1024",
        "stride:16x1024",
        "mostly:1x1024/p=0.05",
        "block:16/64",
        "conflict:p=0.1x256",
        "conflict:p=0.5x256",
        "conflict:p=0.9x256",
    ];
    let cfg = |noc: &NocConfig, arb, order| {
        MachineConfig::paper(4, 4, 4)
            .with_noc(noc.clone())
            .with_arbitration(arb)
            .with_memory_order(order)
    };
    let nocs = [NocConfig::ideal(), NocConfig::ring()];
    let mut jobs = Vec::new();
    for spec in specs {
        let pattern = Pattern::parse(spec)
            .expect("valid spec")
            .for_dataset(Dataset::A);
        for noc in &nocs {
            for arb in [ArbitrationPolicy::Free, ArbitrationPolicy::AgedPriority] {
                for variant in [Variant::Base, Variant::Glsc] {
                    let cfg = cfg(noc, arb, MemoryOrder::Sc);
                    jobs.push((pattern.build(variant, &cfg), cfg));
                }
            }
        }
    }
    for kernel in ["HIP", "GBC", "MFP", "GPS"] {
        for noc in &nocs {
            for variant in [Variant::Base, Variant::Glsc] {
                let cfg = cfg(noc, ArbitrationPolicy::Free, MemoryOrder::Tso);
                let w = build_named(kernel, Dataset::A, variant, &cfg).expect("known kernel");
                jobs.push((w, cfg));
            }
        }
    }
    jobs
}

#[test]
#[ignore = "a census over 128 dataset-A jobs; run with --ignored --nocapture"]
fn allocation_census() {
    for (name, jobs) in [
        ("figure-suite", figure_suite()),
        ("contention", contention()),
    ] {
        let (allocs, cycles) = census(&jobs);
        println!(
            "{name}: {} jobs, {allocs} allocations in Machine::run over {cycles} cycles",
            jobs.len()
        );
    }
}
