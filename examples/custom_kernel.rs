//! Writing a custom workload against the public API: a SIMD-width
//! sensitivity sweep of an atomic "histogram of strides" kernel, showing
//! how GLSC policy knobs (§3.2) change behavior.
//!
//! Demonstrates:
//! * building programs with the assembler,
//! * sweeping `MachineConfig` (SIMD width) like §5.3 of the paper,
//! * toggling `GlscConfig::fail_on_l1_miss` (hardware design freedom (c)).
//!
//! Run with: `cargo run --release --example custom_kernel`

use glsc::core::GlscConfig;
use glsc::isa::{MReg, Program, ProgramBuilder, Reg, VReg};
use glsc::sim::{Machine, MachineConfig};

/// Counters and iteration count of the toy kernel.
const COUNTERS: i64 = 256;
const ITERS: i64 = 200;
const COUNTER_BASE: i64 = 0x2_0000;

fn build(width: usize) -> Result<Program, Box<dyn std::error::Error>> {
    let mut b = ProgramBuilder::new();
    let (r_cnt, r_i, r_stride) = (Reg::new(2), Reg::new(3), Reg::new(4));
    let (v_idx, v_tmp, v_stride) = (VReg::new(0), VReg::new(1), VReg::new(2));
    let (f_todo, f_tmp) = (MReg::new(0), MReg::new(1));
    b.li(r_cnt, COUNTER_BASE);
    // Each thread strides its own lane pattern: idx = (iota*17 + gid*29 + i*13) % COUNTERS.
    b.li(r_i, 0);
    b.mul(r_stride, Reg::new(0), 29);
    let top = b.here();
    b.viota(v_idx);
    b.vmul(v_idx, v_idx, 17, None);
    b.vsplat(v_stride, r_stride);
    b.vadd(v_idx, v_idx, v_stride, None);
    b.vmod(v_idx, v_idx, COUNTERS, None);
    b.sync_on();
    b.mall(f_todo);
    let retry = b.here();
    b.vgatherlink(f_tmp, v_tmp, r_cnt, v_idx, f_todo);
    b.vadd(v_tmp, v_tmp, 1, Some(f_tmp));
    b.vscattercond(f_tmp, v_tmp, r_cnt, v_idx, f_tmp);
    b.mxor(f_todo, f_todo, f_tmp);
    b.bmnz(f_todo, retry);
    b.sync_off();
    b.addi(r_stride, r_stride, 13);
    b.addi(r_i, r_i, 1);
    b.blt(r_i, ITERS, top);
    b.halt();
    let _ = width;
    Ok(b.build()?)
}

fn run_once(width: usize, glsc: GlscConfig) -> Result<(u64, f64), Box<dyn std::error::Error>> {
    let mut cfg = MachineConfig::paper(4, 4, width);
    cfg.glsc = glsc;
    let mut machine = Machine::new(cfg);
    machine.load_program(build(width)?);
    let report = machine.run()?;
    // Sanity: total increments must equal threads * iters * width.
    let total: u64 = (0..COUNTERS)
        .map(|c| {
            machine
                .mem()
                .backing()
                .read_u32((COUNTER_BASE + 4 * c) as u64) as u64
        })
        .sum();
    assert_eq!(total, 16 * ITERS as u64 * width as u64);
    Ok((report.cycles, report.glsc_failure_rate()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("custom kernel: atomic stride histogram on a 4x4 CMP");
    println!(
        "{:<7} {:>14} {:>10} | {:>14} {:>10}",
        "width", "cycles(wait)", "fail(wait)", "cycles(drop)", "fail(drop)"
    );
    for width in [1usize, 4, 16] {
        let wait = run_once(width, GlscConfig::default())?;
        let drop = run_once(
            width,
            GlscConfig {
                fail_on_l1_miss: true,
            },
        )?;
        println!(
            "{:<7} {:>14} {:>9.2}% | {:>14} {:>9.2}%",
            width,
            wait.0,
            100.0 * wait.1,
            drop.0,
            100.0 * drop.1
        );
    }
    println!();
    println!("'wait' = default policy (gather-link waits for L1 misses);");
    println!("'drop' = fail-on-miss policy of §3.2(c): lower reservation hold");
    println!("times at the cost of more element retries.");
    Ok(())
}
