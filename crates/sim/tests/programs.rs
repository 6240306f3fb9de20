//! End-to-end simulator tests: whole programs on the full machine.

use glsc_isa::{MReg, Program, ProgramBuilder, Reg, VReg};
use glsc_sim::{Machine, MachineConfig};

fn r_id() -> Reg {
    Reg::new(0)
}

fn r(i: u8) -> Reg {
    Reg::new(i)
}
fn v(i: u8) -> VReg {
    VReg::new(i)
}
fn m(i: u8) -> MReg {
    MReg::new(i)
}

/// Sum 0..n with a scalar loop; store the result.
fn sum_program(n: i64, out_addr: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let (acc, i, base) = (r(2), r(3), r(4));
    b.li(acc, 0);
    b.li(i, 0);
    let top = b.here();
    b.add(acc, acc, i);
    b.addi(i, i, 1);
    b.blt(i, n, top);
    b.li(base, out_addr);
    b.st(acc, base, 0);
    b.halt();
    b.build().unwrap()
}

#[test]
fn scalar_loop_computes_sum() {
    let mut machine = Machine::new(MachineConfig::paper(1, 1, 1));
    machine.load_program(sum_program(10, 0x1000));
    let report = machine.run().unwrap();
    assert_eq!(machine.mem().backing().read_u32(0x1000), 45);
    assert!(report.cycles > 10);
    assert_eq!(report.threads.len(), 1);
    assert!(report.threads[0].instructions >= 3 * 10);
}

#[test]
fn no_program_is_an_error() {
    let mut machine = Machine::new(MachineConfig::paper(1, 1, 1));
    assert!(matches!(machine.run(), Err(glsc_sim::SimError::NoProgram)));
}

#[test]
fn infinite_loop_hits_cycle_bound() {
    let mut b = ProgramBuilder::new();
    let top = b.here();
    b.jmp(top);
    let mut cfg = MachineConfig::paper(1, 1, 1);
    cfg.max_cycles = 1000;
    let mut machine = Machine::new(cfg);
    machine.load_program(b.build().unwrap());
    match machine.run() {
        Err(glsc_sim::SimError::MaxCyclesExceeded { stuck, .. }) => {
            assert_eq!(stuck.len(), 1);
        }
        other => panic!("expected cycle-bound error, got {other:?}"),
    }
}

#[test]
fn threads_see_their_ids_and_count() {
    // Each thread writes r0 (its gid) to 0x2000 + 4*gid and r1 to 0x3000+4*gid.
    let mut b = ProgramBuilder::new();
    let (base, off, nthreads) = (r(2), r(3), r(1));
    b.shl(off, r_id(), 2);
    b.li(base, 0x2000);
    b.add(base, base, off);
    b.st(r_id(), base, 0);
    b.li(base, 0x3000);
    b.add(base, base, off);
    b.st(nthreads, base, 0);
    b.halt();
    let p = b.build().unwrap();
    let mut machine = Machine::new(MachineConfig::paper(2, 2, 4));
    machine.load_program(p);
    machine.run().unwrap();
    for gid in 0..4u64 {
        assert_eq!(
            machine.mem().backing().read_u32(0x2000 + 4 * gid),
            gid as u32
        );
        assert_eq!(machine.mem().backing().read_u32(0x3000 + 4 * gid), 4);
    }
}

#[test]
fn barrier_orders_phases() {
    // Phase 1: thread 0 writes a flag. Barrier. Phase 2: all threads read
    // the flag and store it to their slot — every slot must see the value.
    let mut b = ProgramBuilder::new();
    let (base, off, val) = (r(2), r(3), r(4));
    let skip = b.label();
    b.bne(r_id(), 0, skip);
    b.li(base, 0x100);
    b.li(val, 777);
    b.st(val, base, 0);
    b.bind(skip).unwrap();
    b.barrier();
    b.li(base, 0x100);
    b.ld(val, base, 0);
    b.li(base, 0x200);
    b.shl(off, r_id(), 2);
    b.add(base, base, off);
    b.st(val, base, 0);
    b.halt();
    let p = b.build().unwrap();
    let mut machine = Machine::new(MachineConfig::paper(2, 2, 1));
    machine.load_program(p);
    machine.run().unwrap();
    for gid in 0..4u64 {
        assert_eq!(
            machine.mem().backing().read_u32(0x200 + 4 * gid),
            777,
            "thread {gid} must observe the pre-barrier store"
        );
    }
}

/// All threads atomically increment one shared counter `iters` times using
/// the scalar ll/sc loop of Fig. 2.
fn llsc_counter_program(iters: i64, counter: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let (base, i, tmp, ok) = (r(2), r(3), r(4), r(5));
    b.li(base, counter);
    b.li(i, 0);
    let top = b.here();
    b.sync_on();
    let retry = b.here();
    b.ll(tmp, base, 0);
    b.addi(tmp, tmp, 1);
    b.sc(ok, tmp, base, 0);
    b.beq(ok, 0, retry);
    b.sync_off();
    b.addi(i, i, 1);
    b.blt(i, iters, top);
    b.halt();
    b.build().unwrap()
}

#[test]
fn llsc_increments_are_atomic_across_cores() {
    let mut machine = Machine::new(MachineConfig::paper(4, 4, 1));
    machine.load_program(llsc_counter_program(25, 0x4000));
    let report = machine.run().unwrap();
    assert_eq!(
        machine.mem().backing().read_u32(0x4000),
        16 * 25,
        "every increment must land exactly once"
    );
    assert!(
        report.sync_fraction() > 0.1,
        "contended ll/sc loop is sync-heavy"
    );
    assert!(report.lsu.scs >= 16 * 25, "at least one sc per increment");
}

/// SIMD histogram with vgatherlink/vscattercond, as in Fig. 3(A).
fn glsc_histogram_program(pixels: i64, bins: i64, input: i64, hist: i64, width: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let (r_in, r_hist, r_i, r_step, r_n) = (r(2), r(3), r(4), r(5), r(6));
    let (v_in, v_bins, v_tmp) = (v(0), v(1), v(2));
    let (f_todo, f_tmp) = (m(0), m(1));
    b.li(r_in, input);
    b.li(r_hist, hist);
    b.li(r_n, pixels);
    // Threads stride through the input by nthreads * width elements.
    b.mul(r_step, Reg::new(1), width as i64);
    b.mul(r_i, Reg::new(0), width as i64);
    let outer = b.here();
    let done = b.label();
    b.bge(r_i, r_n, done);
    // Load inputs: address = input + 4*i.
    let addr = r(7);
    b.shl(addr, r_i, 2);
    b.add(addr, addr, r_in);
    b.vload(v_in, addr, 0, None);
    b.vmod(v_bins, v_in, bins, None);
    b.sync_on();
    b.mall(f_todo);
    let retry = b.here();
    b.vgatherlink(f_tmp, v_tmp, r_hist, v_bins, f_todo);
    b.vadd(v_tmp, v_tmp, 1, Some(f_tmp));
    b.vscattercond(f_tmp, v_tmp, r_hist, v_bins, f_tmp);
    b.mxor(f_todo, f_todo, f_tmp);
    b.bmnz(f_todo, retry);
    b.sync_off();
    b.add(r_i, r_i, r_step);
    b.jmp(outer);
    b.bind(done).unwrap();
    b.halt();
    b.build().unwrap()
}

fn run_glsc_histogram(cores: usize, threads: usize, width: usize) {
    let pixels = 16 * width as i64 * cores as i64 * threads as i64;
    let bins = 7i64;
    let (input_addr, hist_addr) = (0x1_0000i64, 0x2_0000i64);
    let mut machine = Machine::new(MachineConfig::paper(cores, threads, width));
    // Deterministic pseudo-random pixels.
    let mut expected = vec![0u32; bins as usize];
    let mut x = 12345u32;
    for i in 0..pixels {
        x = x.wrapping_mul(1103515245).wrapping_add(12345);
        let val = (x >> 8) % 1000;
        machine
            .mem_mut()
            .backing_mut()
            .write_u32(input_addr as u64 + 4 * i as u64, val);
        expected[(val % bins as u32) as usize] += 1;
    }
    machine.load_program(glsc_histogram_program(
        pixels, bins, input_addr, hist_addr, width,
    ));
    let report = machine.run().unwrap();
    let got = machine
        .mem()
        .backing()
        .read_u32_vec(hist_addr as u64, bins as usize);
    assert_eq!(
        got, expected,
        "{cores}x{threads} w{width} histogram must be exact"
    );
    assert!(report.gsu.gatherlinks > 0);
    assert!(report.gsu.scatterconds > 0);
}

#[test]
fn glsc_histogram_single_thread() {
    run_glsc_histogram(1, 1, 4);
}

#[test]
fn glsc_histogram_smt_contention() {
    run_glsc_histogram(1, 4, 4);
}

#[test]
fn glsc_histogram_multicore_contention() {
    run_glsc_histogram(4, 4, 4);
}

#[test]
fn glsc_histogram_wide_simd() {
    run_glsc_histogram(2, 2, 16);
}

#[test]
fn glsc_histogram_width_one() {
    run_glsc_histogram(1, 2, 1);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut machine = Machine::new(MachineConfig::paper(2, 2, 4));
        machine.load_program(llsc_counter_program(10, 0x4000));
        machine.run().unwrap().cycles
    };
    assert_eq!(run(), run());
}

#[test]
fn vector_load_store_round_trip() {
    let mut b = ProgramBuilder::new();
    let (src, dst) = (r(2), r(3));
    let vv = v(1);
    b.li(src, 0x1000);
    b.li(dst, 0x2000);
    b.vload(vv, src, 0, None);
    b.vadd(vv, vv, 100, None);
    b.vstore(vv, dst, 0, None);
    b.halt();
    let mut machine = Machine::new(MachineConfig::paper(1, 1, 4));
    machine
        .mem_mut()
        .backing_mut()
        .write_u32_slice(0x1000, &[1, 2, 3, 4]);
    machine.load_program(b.build().unwrap());
    machine.run().unwrap();
    assert_eq!(
        machine.mem().backing().read_u32_vec(0x2000, 4),
        vec![101, 102, 103, 104]
    );
}

#[test]
fn full_width_vector_load_store_spans_three_lines() {
    // 32 lanes from a base 8 bytes into a line cover three 64-byte lines;
    // the store, 56 bytes into a line, masks out lanes 0, 17 and 31.
    let mut b = ProgramBuilder::new();
    let (src, dst, keep) = (r(2), r(3), r(4));
    b.li(src, 0x1008);
    b.li(dst, 0x2038);
    b.li(keep, !(1i64 | 1 << 17 | 1 << 31) & 0xffff_ffff);
    b.r2m(m(1), keep);
    b.vload(v(1), src, 0, None);
    b.vadd(v(1), v(1), 100, None);
    b.vstore(v(1), dst, 0, Some(m(1)));
    b.halt();
    let mut machine = Machine::new(MachineConfig::paper(1, 1, glsc_isa::MAX_SIMD_WIDTH));
    let data: Vec<u32> = (0..32).collect();
    machine
        .mem_mut()
        .backing_mut()
        .write_u32_slice(0x1008, &data);
    machine.load_program(b.build().unwrap());
    let report = machine.run().unwrap();
    let want: Vec<u32> = (0..32)
        .map(|l| if [0, 17, 31].contains(&l) { 0 } else { l + 100 })
        .collect();
    let backing = machine.mem().backing();
    assert_eq!(backing.read_u32_vec(0x2038, 32), want);
    assert_eq!((backing.read_u32(0x2034), backing.read_u32(0x20b8)), (0, 0));
    assert_eq!(report.lsu.vector_line_requests, 6, "three lines each way");
}

#[test]
fn gather_scatter_permutation() {
    // Reverse an 8-element array via gather with reversed indices.
    let mut b = ProgramBuilder::new();
    let (src, dst) = (r(2), r(3));
    let (vv, vi, vw) = (v(1), v(2), v(3));
    b.li(src, 0x1000);
    b.li(dst, 0x2000);
    b.viota(vi); // 0..w
    b.li(r(4), 7);
    b.vsplat(vw, r(4));
    b.vsub(vi, vw, vi, None); // 7-lane
    b.vgather(vv, src, vi, None);
    b.viota(vi);
    b.vscatter(vv, dst, vi, None);
    b.halt();
    let mut machine = Machine::new(MachineConfig::paper(1, 1, 8));
    machine
        .mem_mut()
        .backing_mut()
        .write_u32_slice(0x1000, &[0, 1, 2, 3, 4, 5, 6, 7]);
    machine.load_program(b.build().unwrap());
    machine.run().unwrap();
    assert_eq!(
        machine.mem().backing().read_u32_vec(0x2000, 8),
        vec![7, 6, 5, 4, 3, 2, 1, 0]
    );
}

#[test]
fn mem_stalls_reported_for_cold_misses() {
    let mut b = ProgramBuilder::new();
    b.li(r(2), 0x9000);
    b.ld(r(3), r(2), 0);
    b.add(r(4), r(3), 1); // stall-on-use of a DRAM miss
    b.halt();
    let mut machine = Machine::new(MachineConfig::paper(1, 1, 1));
    machine.load_program(b.build().unwrap());
    let report = machine.run().unwrap();
    assert!(
        report.threads[0].mem_stall_cycles > 200,
        "DRAM-latency stall must be attributed to memory"
    );
}
