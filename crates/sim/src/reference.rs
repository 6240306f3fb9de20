//! A functional (untimed) reference interpreter for single-threaded
//! programs.
//!
//! Used for differential testing: the cycle-level [`Machine`] and this
//! interpreter must produce identical architectural and memory state for
//! any single-threaded program (the timing model may reorder nothing —
//! one thread's operations are program-ordered). Reservations are modeled
//! functionally: `ll`/`vgatherlink` link lines of the machine's one line
//! size ([`glsc_mem::LINE_BYTES`]), any store to a line clears its links,
//! `sc`/`vscattercond` succeed iff the link survived (plus
//! lowest-lane-wins alias resolution, as in the GSU).
//!
//! [`Machine`]: crate::Machine

use crate::arch::ThreadArch;
use crate::exec::{self, StepOutcome};
use glsc_isa::{Instr, Program, Reg, ELEM_BYTES};
use glsc_mem::{line_of, Backing};
use std::collections::HashSet;

/// Error from the functional interpreter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RefError {
    /// Instruction budget exhausted (non-terminating program).
    StepLimit,
    /// A barrier was executed (unsupported single-threaded).
    Barrier,
}

impl std::fmt::Display for RefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefError::StepLimit => write!(f, "step limit exceeded"),
            RefError::Barrier => write!(f, "barrier in single-threaded program"),
        }
    }
}

impl std::error::Error for RefError {}

/// Runs `program` functionally on one thread until `Halt`, mutating
/// `backing`. `r0`/`r1` are set to 0/1 (single thread). Returns the final
/// architectural state.
///
/// # Errors
///
/// [`RefError::StepLimit`] after `max_steps` instructions;
/// [`RefError::Barrier`] if the program uses barriers.
pub fn run_functional(
    program: &Program,
    backing: &mut Backing,
    width: usize,
    max_steps: u64,
) -> Result<ThreadArch, RefError> {
    let mut arch = ThreadArch::new(width);
    arch.set_reg(Reg::new(0), 0);
    arch.set_reg(Reg::new(1), 1);
    let mut links: HashSet<u64> = HashSet::new();
    let mut steps = 0u64;
    loop {
        steps += 1;
        if steps > max_steps {
            return Err(RefError::StepLimit);
        }
        let Some(instr) = program.fetch(arch.pc) else {
            return Ok(arch);
        };
        let instr = *instr;
        match exec::step_compute(&mut arch, &instr, program) {
            StepOutcome::Halt => return Ok(arch),
            StepOutcome::Barrier => return Err(RefError::Barrier),
            StepOutcome::Memory => {
                step_memory(&mut arch, &instr, backing, &mut links, width);
            }
            _ => {}
        }
    }
}

fn clear_links(links: &mut HashSet<u64>, addr: u64) {
    links.remove(&line_of(addr));
}

fn step_memory(
    arch: &mut ThreadArch,
    instr: &Instr,
    backing: &mut Backing,
    links: &mut HashSet<u64>,
    width: usize,
) {
    use Instr::*;
    match *instr {
        Load { rd, base, offset } => {
            let addr = arch.reg(base).wrapping_add(offset as u64);
            let v = backing.read_u32(addr);
            arch.set_reg(rd, v as u64);
        }
        Store { rs, base, offset } => {
            let addr = arch.reg(base).wrapping_add(offset as u64);
            backing.write_u32(addr, arch.reg(rs) as u32);
            clear_links(links, addr);
        }
        LoadLinked { rd, base, offset } => {
            let addr = arch.reg(base).wrapping_add(offset as u64);
            let v = backing.read_u32(addr);
            arch.set_reg(rd, v as u64);
            links.insert(line_of(addr));
        }
        StoreCond {
            rd,
            rs,
            base,
            offset,
        } => {
            let addr = arch.reg(base).wrapping_add(offset as u64);
            let line = line_of(addr);
            if links.remove(&line) {
                backing.write_u32(addr, arch.reg(rs) as u32);
                arch.set_reg(rd, 1);
            } else {
                arch.set_reg(rd, 0);
            }
        }
        VLoad {
            vd,
            base,
            offset,
            mask,
        } => {
            let m = mask.map_or(arch.full_mask(), |f| arch.mreg(f));
            let base_addr = arch.reg(base).wrapping_add(offset as u64);
            for lane in 0..width {
                if m & (1 << lane) != 0 {
                    let v = backing.read_u32(base_addr + ELEM_BYTES * lane as u64);
                    arch.set_vlane(vd, lane, v);
                }
            }
        }
        VStore {
            vs,
            base,
            offset,
            mask,
        } => {
            let m = mask.map_or(arch.full_mask(), |f| arch.mreg(f));
            let base_addr = arch.reg(base).wrapping_add(offset as u64);
            for lane in 0..width {
                if m & (1 << lane) != 0 {
                    let addr = base_addr + ELEM_BYTES * lane as u64;
                    backing.write_u32(addr, arch.vreg(vs)[lane]);
                    clear_links(links, addr);
                }
            }
        }
        VGather {
            vd,
            base,
            vidx,
            mask,
        } => {
            let m = mask.map_or(arch.full_mask(), |f| arch.mreg(f));
            let base_addr = arch.reg(base);
            for lane in 0..width {
                if m & (1 << lane) != 0 {
                    let addr = base_addr.wrapping_add(ELEM_BYTES * arch.vreg(vidx)[lane] as u64);
                    let v = backing.read_u32(addr);
                    arch.set_vlane(vd, lane, v);
                }
            }
        }
        VScatter {
            vs,
            base,
            vidx,
            mask,
        } => {
            let m = mask.map_or(arch.full_mask(), |f| arch.mreg(f));
            let base_addr = arch.reg(base);
            // Lanes apply in increasing order (the simulator's documented
            // behavior for aliased plain scatters).
            for lane in 0..width {
                if m & (1 << lane) != 0 {
                    let addr = base_addr.wrapping_add(ELEM_BYTES * arch.vreg(vidx)[lane] as u64);
                    backing.write_u32(addr, arch.vreg(vs)[lane]);
                    clear_links(links, addr);
                }
            }
        }
        VGatherLink {
            fd,
            vd,
            base,
            vidx,
            fsrc,
        } => {
            let m = arch.mreg(fsrc);
            let base_addr = arch.reg(base);
            let mut out = 0u32;
            for lane in 0..width {
                if m & (1 << lane) != 0 {
                    let addr = base_addr.wrapping_add(ELEM_BYTES * arch.vreg(vidx)[lane] as u64);
                    let v = backing.read_u32(addr);
                    arch.set_vlane(vd, lane, v);
                    links.insert(line_of(addr));
                    out |= 1 << lane;
                }
            }
            arch.set_mreg(fd, out);
        }
        VScatterCond {
            fd,
            vs,
            base,
            vidx,
            fsrc,
        } => {
            let m = arch.mreg(fsrc);
            let base_addr = arch.reg(base);
            let mut out = 0u32;
            let mut seen: Vec<u64> = Vec::new();
            // First pass: alias resolution (lowest lane per address wins).
            let mut winners = 0u32;
            for lane in 0..width {
                if m & (1 << lane) != 0 {
                    let addr = base_addr.wrapping_add(ELEM_BYTES * arch.vreg(vidx)[lane] as u64);
                    if !seen.contains(&addr) {
                        seen.push(addr);
                        winners |= 1 << lane;
                    }
                }
            }
            // Second pass: winners whose line link survived commit; the
            // committed store clears the line's links.
            for lane in 0..width {
                if winners & (1 << lane) != 0 {
                    let addr = base_addr.wrapping_add(ELEM_BYTES * arch.vreg(vidx)[lane] as u64);
                    let line = line_of(addr);
                    if links.contains(&line) {
                        backing.write_u32(addr, arch.vreg(vs)[lane]);
                        out |= 1 << lane;
                    }
                }
            }
            for lane in 0..width {
                if out & (1 << lane) != 0 {
                    let addr = base_addr.wrapping_add(ELEM_BYTES * arch.vreg(vidx)[lane] as u64);
                    links.remove(&line_of(addr));
                }
            }
            arch.set_mreg(fd, out);
        }
        _ => unreachable!("non-memory instruction routed to step_memory"),
    }
    arch.pc += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsc_isa::{MReg, ProgramBuilder, VReg};

    #[test]
    fn functional_histogram_matches_expectation() {
        let mut b = ProgramBuilder::new();
        let (r_hist, _r_i) = (Reg::new(2), Reg::new(3));
        let (v_idx, v_tmp) = (VReg::new(0), VReg::new(1));
        let (f_todo, f_ok) = (MReg::new(0), MReg::new(1));
        b.li(r_hist, 0x1000);
        b.viota(v_idx);
        b.vand(v_idx, v_idx, 1, None); // lanes -> bins 0,1,0,1
        b.mall(f_todo);
        let retry = b.here();
        b.vgatherlink(f_ok, v_tmp, r_hist, v_idx, f_todo);
        b.vadd(v_tmp, v_tmp, 1, Some(f_ok));
        b.vscattercond(f_ok, v_tmp, r_hist, v_idx, f_ok);
        b.mxor(f_todo, f_todo, f_ok);
        b.bmnz(f_todo, retry);
        b.halt();
        let p = b.build().unwrap();
        let mut backing = Backing::new();
        run_functional(&p, &mut backing, 4, 10_000).unwrap();
        assert_eq!(backing.read_u32(0x1000), 2);
        assert_eq!(backing.read_u32(0x1004), 2);
    }

    #[test]
    fn sc_without_link_fails() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::new(2), 0x100);
        b.li(Reg::new(3), 9);
        b.sc(Reg::new(4), Reg::new(3), Reg::new(2), 0);
        b.li(Reg::new(5), 0x200);
        b.st(Reg::new(4), Reg::new(5), 0);
        b.halt();
        let p = b.build().unwrap();
        let mut backing = Backing::new();
        run_functional(&p, &mut backing, 1, 100).unwrap();
        assert_eq!(backing.read_u32(0x200), 0, "sc must fail without a link");
        assert_eq!(backing.read_u32(0x100), 0, "no store performed");
    }

    #[test]
    fn intervening_store_kills_link() {
        let mut b = ProgramBuilder::new();
        let (base, tmp, ok) = (Reg::new(2), Reg::new(3), Reg::new(4));
        b.li(base, 0x100);
        b.ll(tmp, base, 0);
        b.st(tmp, base, 4); // same line: clears the link
        b.sc(ok, tmp, base, 0);
        b.li(Reg::new(5), 0x200);
        b.st(ok, Reg::new(5), 0);
        b.halt();
        let p = b.build().unwrap();
        let mut backing = Backing::new();
        run_functional(&p, &mut backing, 1, 100).unwrap();
        assert_eq!(backing.read_u32(0x200), 0);
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let mut b = ProgramBuilder::new();
        let top = b.here();
        b.jmp(top);
        let p = b.build().unwrap();
        let mut backing = Backing::new();
        assert_eq!(
            run_functional(&p, &mut backing, 1, 50),
            Err(RefError::StepLimit)
        );
    }

    #[test]
    fn barrier_rejected() {
        let mut b = ProgramBuilder::new();
        b.barrier();
        b.halt();
        let p = b.build().unwrap();
        let mut backing = Backing::new();
        assert_eq!(
            run_functional(&p, &mut backing, 1, 50),
            Err(RefError::Barrier)
        );
    }
}
