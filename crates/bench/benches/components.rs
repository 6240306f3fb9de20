//! Microbenchmarks of the simulator substrate — ablations for the design
//! choices called out in DESIGN.md (tag-array cost, functional-memory word
//! access, coherence walk, GSU combining, end-to-end simulation rate).
//!
//! Criterion is unavailable in the offline build environment, so this is a
//! plain `harness = false` timing harness: each case runs a warmup pass,
//! then reports the best-of-3 mean ns/iter. Good enough for the relative
//! comparisons these ablations are used for.
//!
//! Host timings are not cacheable, so this target skips the job store;
//! output is still written to `results/components.txt`.

use glsc_bench::{finish_figure, FigureOutput};
use glsc_core::{CoreMemUnit, GlscConfig, GsuKind, MemCompletion};
use glsc_isa::{ProgramBuilder, Reg};
use glsc_mem::{Backing, MemConfig, MemOp, MemorySystem, TagArray};
use glsc_sim::{Machine, MachineConfig};
use std::hint::black_box;
use std::time::Instant;

/// Times `f` over `iters` iterations, best of 3 passes after one warmup.
fn bench(out: &mut FigureOutput, name: &str, iters: u64, mut f: impl FnMut()) {
    for _ in 0..iters.min(100) {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per = t0.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(per);
    }
    out.line(format!("{name:<32} {best:>12.1} ns/iter"));
}

fn bench_tag_array(out: &mut FigureOutput) {
    let mut tags: TagArray<u32> = TagArray::new(128, 4);
    for i in 0..512u64 {
        tags.insert(i * 64, i as u32);
    }
    let mut i = 0u64;
    bench(out, "tags/lookup_hit", 1_000_000, || {
        i = (i + 1) % 512;
        black_box(tags.lookup_mut(i * 64));
    });
    // The paper's L2 bank: 2,048 sets x 8 ways, every way full, probed
    // with an odd stride so successive probes land in different sets.
    let mut l2: TagArray<u32> = TagArray::new(2048, 8);
    for i in 0..2048 * 8u64 {
        l2.insert(i * 64, i as u32);
    }
    let mut i = 0u64;
    bench(out, "tags/l2_lookup_hit", 1_000_000, || {
        i = (i + 1_000_003) & (2048 * 8 - 1);
        black_box(l2.lookup_mut(i * 64));
    });
    bench(out, "tags/insert_evict", 10_000, || {
        let mut tags = TagArray::<u32>::new(8, 2);
        for i in 0..64u64 {
            black_box(tags.insert(i * 64, i as u32));
        }
    });
}

/// Word reads and writes of the functional memory: one page lookup each,
/// over the pages of a dataset-A image (HIP's, as mounted at 4x4).
fn bench_backing(out: &mut FigureOutput) {
    let cfg = MachineConfig::paper(4, 4, 4);
    let w = glsc_kernels::hip::Hip::new(glsc_kernels::Dataset::A)
        .build(glsc_kernels::Variant::Glsc, &cfg);
    let mut backing = Backing::new();
    w.image.apply(&mut backing);
    // MemImage allocates upward from 64 KiB, so its pages are contiguous.
    let words = backing.resident_pages() as u64 * 1024;
    let addrs: Vec<u64> = (0..4096u64)
        .map(|k| 0x1_0000 + 4 * (k * 2_654_435_761 % words))
        .collect();
    let mut i = 0;
    bench(out, "backing/read_u32", 1_000_000, || {
        i = (i + 1) & 4095;
        black_box(backing.read_u32(addrs[i]));
    });
    bench(out, "backing/write_u32", 1_000_000, || {
        i = (i + 1) & 4095;
        backing.write_u32(addrs[i], i as u32);
    });
}

fn bench_memory_system(out: &mut FigureOutput) {
    {
        let cfg = MemConfig {
            prefetch: false,
            ..MemConfig::default()
        };
        let mut m = MemorySystem::new(cfg, 1, 4);
        m.access(0, 0, MemOp::Load, 0x100, 0);
        let mut now = 400u64;
        bench(out, "mem/l1_hit_path", 1_000_000, || {
            now += 1;
            black_box(m.access(0, 0, MemOp::Load, 0x100, now));
        });
    }
    {
        let cfg = MemConfig {
            prefetch: false,
            ..MemConfig::default()
        };
        let mut m = MemorySystem::new(cfg, 2, 4);
        let mut now = 0u64;
        bench(out, "mem/cross_core_pingpong", 1_000_000, || {
            now += 1;
            black_box(m.access((now % 2) as usize, 0, MemOp::Store, 0x100, now));
        });
    }
}

/// Ticks `unit` from `now + 1` until it hands back a completion, reusing
/// `done` as the machine loop reuses its completion buffer.
fn tick_until_done(
    unit: &mut CoreMemUnit,
    mem: &mut MemorySystem,
    now: &mut u64,
    done: &mut Vec<MemCompletion>,
) {
    done.clear();
    while done.is_empty() {
        *now += 1;
        unit.tick_into(mem, *now, done);
    }
}

fn bench_gsu(out: &mut FigureOutput) {
    {
        let cfg = MemConfig {
            prefetch: false,
            ..MemConfig::default()
        };
        let mut mem = MemorySystem::new(cfg, 1, 4);
        mem.access(0, 0, MemOp::Load, 0x100, 0);
        let mut unit = CoreMemUnit::new(0, 4, GlscConfig::default());
        let mut done = Vec::new();
        let mut now = 400u64;
        bench(out, "gsu/gather_4_combined", 100_000, || {
            unit.gsu_start(
                0,
                GsuKind::Gather { vd: 0 },
                &[(0, 0x100, 0), (1, 0x104, 0), (2, 0x108, 0), (3, 0x10c, 0)],
                4,
            );
            tick_until_done(&mut unit, &mut mem, &mut now, &mut done);
        });
    }
    {
        let cfg = MemConfig {
            prefetch: false,
            ..MemConfig::default()
        };
        let mut mem = MemorySystem::new(cfg, 1, 4);
        let mut unit = CoreMemUnit::new(0, 4, GlscConfig::default());
        let mut done = Vec::new();
        let mut now = 0u64;
        bench(out, "gsu/glsc_roundtrip", 100_000, || {
            unit.gsu_start(0, GsuKind::GatherLink { fd: 0, vd: 0 }, &[(0, 0x100, 0)], 4);
            tick_until_done(&mut unit, &mut mem, &mut now, &mut done);
            unit.gsu_start(0, GsuKind::ScatterCond { fd: 0 }, &[(0, 0x100, 7)], 4);
            tick_until_done(&mut unit, &mut mem, &mut now, &mut done);
        });
    }
}

fn bench_machine(out: &mut FigureOutput) {
    // End-to-end simulation rate: simulated instructions per host second.
    bench(out, "machine/scalar_loop_1x1", 200, || {
        let mut bld = ProgramBuilder::new();
        let (acc, i) = (Reg::new(2), Reg::new(3));
        bld.li(acc, 0);
        bld.li(i, 0);
        let top = bld.here();
        bld.add(acc, acc, i);
        bld.addi(i, i, 1);
        bld.blt(i, 2000, top);
        bld.halt();
        let mut m = Machine::new(MachineConfig::paper(1, 1, 4));
        m.load_program(bld.build().unwrap());
        black_box(m.run().unwrap());
    });
    bench(out, "machine/glsc_histogram_4x4", 20, || {
        let cfg = MachineConfig::paper(4, 4, 4);
        let w = glsc_kernels::hip::Hip::new(glsc_kernels::Dataset::Tiny)
            .build(glsc_kernels::Variant::Glsc, &cfg);
        black_box(glsc_kernels::run_workload(&w, &cfg).unwrap());
    });
}

fn main() {
    let mut out = FigureOutput::new("components");
    bench_tag_array(&mut out);
    bench_backing(&mut out);
    bench_memory_system(&mut out);
    bench_gsu(&mut out);
    bench_machine(&mut out);
    std::process::exit(finish_figure(out, &[]));
}
