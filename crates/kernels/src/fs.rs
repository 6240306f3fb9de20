//! FS — Forward Triangular Solve (Table 2).
//!
//! The reduction phase of a blocked sparse lower-triangular solve
//! `Lx = y`: the matrix is divided into dense 16×16 subblocks; each
//! off-diagonal subblock `(I, J)` computes a dense matrix-vector product
//! with the already-solved `x_J` and **atomically subtracts** the
//! contribution from the shared right-hand-side vector of block-row `I`.
//! Subblocks in the same block-row race on that vector, which is exactly
//! the synchronization the paper measures.
//!
//! *Substitution note (DESIGN.md §3.5):* the paper schedules subblocks
//! with a dependence graph driven by the diagonal solves. We treat `x` as
//! given and run all subblock tasks in one parallel sweep — the dense SIMD
//! work, the atomic fp-subtract reductions, and their contention pattern
//! are identical; only the inter-level ordering (which adds no atomic
//! traffic) is elided.
//!
//! * **Base**: per-lane scalar `ll`/`fsub`/`sc` retry loops;
//! * **GLSC**: gather-link / `vfsub` / scatter-cond on the contiguous
//!   16-element block-row range — same-line combining is very effective
//!   here, mirroring FS's large "L1 accesses" reduction in Table 4.

use crate::common::{
    approx_eq, emit_const_one, emit_partition, Dataset, MemImage, Variant, Workload,
};
use glsc_isa::{LaneSel, MReg, ProgramBuilder, Reg, VReg};
use glsc_rng::rngs::StdRng;
use glsc_rng::seq::SliceRandom;
use glsc_rng::{Rng, SeedableRng};
use glsc_sim::MachineConfig;

/// Side of a dense subblock in elements. The paper's FS spends most of its
/// instructions in the atomic reductions (75% dynamic-instruction
/// reduction in Table 4), implying small dense blocks relative to the
/// reduction work; 8×8 blocks reproduce that balance.
pub const BLOCK: usize = 8;

/// Input parameters for [`Fs`].
#[derive(Clone, Debug)]
pub struct FsParams {
    /// Number of 16-wide block rows (`n = 16 * nblocks` unknowns).
    pub nblocks: usize,
    /// Probability that a strictly-lower subblock is present.
    pub density: f64,
    /// RNG seed.
    pub seed: u64,
}

/// A generated blocked lower-triangular reduction problem.
#[derive(Clone, Debug)]
pub struct FsData {
    /// Block-row index per task.
    pub blk_i: Vec<u32>,
    /// Block-column index per task.
    pub blk_j: Vec<u32>,
    /// Offset (in elements) of each task's dense 16×16 block, column-major.
    pub blk_off: Vec<u32>,
    /// Concatenated block values.
    pub vals: Vec<f32>,
    /// The solved vector `x`.
    pub x: Vec<f32>,
    /// Initial right-hand side.
    pub rhs0: Vec<f32>,
}

/// The FS benchmark.
#[derive(Clone, Debug)]
pub struct Fs {
    params: FsParams,
}

impl Fs {
    /// Benchmark instance for a dataset of Table 3 (scaled).
    pub fn new(dataset: Dataset) -> Self {
        let params = match dataset {
            // 2171x5167 @ 2.47% -> fewer, sparser block rows.
            Dataset::A => FsParams {
                nblocks: 40,
                density: 0.30,
                seed: 31,
            },
            // 3136x9408 @ 15.06% -> denser coupling, more contention.
            Dataset::B => FsParams {
                nblocks: 44,
                density: 0.55,
                seed: 32,
            },
            Dataset::Tiny => FsParams {
                nblocks: 10,
                density: 0.5,
                seed: 33,
            },
        };
        Self { params }
    }

    /// Benchmark instance with explicit parameters.
    pub fn with_params(params: FsParams) -> Self {
        Self { params }
    }

    /// Generates the blocked problem.
    pub fn generate(&self) -> FsData {
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let nb = self.params.nblocks;
        let mut tasks: Vec<(u32, u32)> = Vec::new();
        for i in 1..nb as u32 {
            for j in 0..i {
                if rng.random_bool(self.params.density) {
                    tasks.push((i, j));
                }
            }
        }
        // Random task order: block-rows interleave across threads, giving
        // realistic contention on the shared rhs.
        tasks.shuffle(&mut rng);
        let mut d = FsData {
            blk_i: Vec::new(),
            blk_j: Vec::new(),
            blk_off: Vec::new(),
            vals: Vec::new(),
            x: (0..nb * BLOCK)
                .map(|_| rng.random_range(-1.0..1.0))
                .collect(),
            rhs0: (0..nb * BLOCK)
                .map(|_| rng.random_range(-1.0..1.0))
                .collect(),
        };
        for (i, j) in tasks {
            d.blk_i.push(i);
            d.blk_j.push(j);
            d.blk_off.push(d.vals.len() as u32);
            for _ in 0..BLOCK * BLOCK {
                d.vals.push(rng.random_range(-0.5..0.5));
            }
        }
        d
    }

    /// Golden reference: `rhs = rhs0 - Σ L_IJ · x_J` over all tasks.
    pub fn reference(&self, d: &FsData) -> Vec<f32> {
        let mut rhs = d.rhs0.clone();
        for t in 0..d.blk_i.len() {
            let (bi, bj, off) = (
                d.blk_i[t] as usize,
                d.blk_j[t] as usize,
                d.blk_off[t] as usize,
            );
            for col in 0..BLOCK {
                let xj = d.x[bj * BLOCK + col];
                for row in 0..BLOCK {
                    // Column-major block storage.
                    rhs[bi * BLOCK + row] -= d.vals[off + col * BLOCK + row] * xj;
                }
            }
        }
        rhs
    }

    /// Builds the runnable workload for a machine configuration.
    ///
    /// # Panics
    ///
    /// Panics at a SIMD width [`crate::supports_width`] refuses;
    /// [`crate::build_named`] returns a typed error there instead.
    pub fn build(&self, variant: Variant, cfg: &MachineConfig) -> Workload {
        let width = cfg.simd_width;
        assert!(
            crate::supports_width("FS", width),
            "width must divide the block side"
        );
        let threads = cfg.total_threads();
        let d = self.generate();
        let ntasks = d.blk_i.len();

        let mut image = MemImage::new();
        let a_bi = image.alloc_u32(&d.blk_i);
        let a_bj = image.alloc_u32(&d.blk_j);
        let a_off = image.alloc_u32(&d.blk_off);
        let a_vals = image.alloc_f32(&d.vals);
        let a_x = image.alloc_f32(&d.x);
        let a_rhs = image.alloc_f32(&d.rhs0);

        let program = build_program(
            variant,
            width.min(BLOCK),
            threads,
            ntasks,
            [a_bi, a_bj, a_off, a_vals, a_x, a_rhs],
        );

        let expected = self.reference(&d);
        let name = format!(
            "FS/nb{}d{:.2}/{}/w{}",
            self.params.nblocks,
            self.params.density,
            variant.label(),
            width
        );
        Workload {
            name,
            program,
            image,
            validate: Box::new(move |backing| {
                for (i, expect) in expected.iter().enumerate() {
                    let got = backing.read_f32(a_rhs + 4 * i as u64);
                    if !approx_eq(got, *expect, 1e-3, 1e-3) {
                        return Err(format!("rhs[{i}]: got {got}, expected {expect}"));
                    }
                }
                Ok(())
            }),
        }
    }
}

fn build_program(
    variant: Variant,
    width: usize,
    threads: usize,
    ntasks: usize,
    arrays: [u64; 6],
) -> glsc_isa::Program {
    let [a_bi, a_bj, a_off, a_vals, a_x, a_rhs] = arrays;
    let mut b = ProgramBuilder::new();
    let r = Reg::new;
    let v = VReg::new;
    let m = MReg::new;
    let (r_t, r_end, r_t1, r_t2, r_t3) = (r(2), r(3), r(4), r(5), r(6));
    let (r_lbase, r_xbase, r_rhsrow, r_rhs) = (r(7), r(8), r(9), r(10));
    let (v_acc, v_col, v_xj, v_idx, v_y) = (v(0), v(1), v(2), v(3), v(4));
    let (f_todo, f_tmp, f_w) = (m(0), m(1), m(2));

    emit_const_one(&mut b);
    b.li(r_rhs, a_rhs as i64);
    // Lane mask limited to the block side: machine widths above BLOCK
    // leave the extra lanes inactive.
    b.li(r_t1, (1i64 << width) - 1);
    b.r2m(f_w, r_t1);
    emit_partition(&mut b, ntasks, threads, r_t, r_end);

    let outer = b.here();
    let done = b.label();
    b.bge(r_t, r_end, done);
    // Load task descriptor.
    b.shl(r_t1, r_t, 2);
    b.addi(r_t2, r_t1, a_bi as i64);
    b.ld(r_rhsrow, r_t2, 0); // block row I
    b.addi(r_t2, r_t1, a_bj as i64);
    b.ld(r_xbase, r_t2, 0); // block col J
    b.addi(r_t2, r_t1, a_off as i64);
    b.ld(r_lbase, r_t2, 0); // value offset
                            // x_J base address and L block base address.
    b.mul(r_xbase, r_xbase, (BLOCK * 4) as i64);
    b.addi(r_xbase, r_xbase, a_x as i64);
    b.shl(r_lbase, r_lbase, 2);
    b.addi(r_lbase, r_lbase, a_vals as i64);
    // rhs row start element index: I * BLOCK.
    b.mul(r_rhsrow, r_rhsrow, BLOCK as i64);

    for rc in 0..BLOCK / width {
        // acc = 0.
        b.li(r_t1, 0);
        b.vsplat(v_acc, r_t1);
        for col in 0..BLOCK {
            // xj broadcast.
            b.ld(r_t1, r_xbase, (4 * col) as i64);
            b.vsplat(v_xj, r_t1);
            // Column-major: L[col*BLOCK + rc*width ..].
            b.vload(
                v_col,
                r_lbase,
                (4 * (col * BLOCK + rc * width)) as i64,
                Some(f_w),
            );
            b.vfmul(v_col, v_col, v_xj, Some(f_w));
            b.vfadd(v_acc, v_acc, v_col, Some(f_w));
        }
        // Atomic rhs[I*BLOCK + rc*width + lane] -= acc[lane].
        b.addi(r_t1, r_rhsrow, (rc * width) as i64);
        b.sync_on();
        match variant {
            Variant::Glsc => {
                b.vsplat(v_idx, r_t1);
                b.viota(v_col);
                b.vadd(v_idx, v_idx, v_col, Some(f_w));
                b.mmov(f_todo, f_w);
                let retry = b.here();
                b.vgatherlink(f_tmp, v_y, r_rhs, v_idx, f_todo);
                b.vfsub(v_y, v_y, v_acc, Some(f_tmp));
                b.vscattercond(f_tmp, v_y, r_rhs, v_idx, f_tmp);
                b.mxor(f_todo, f_todo, f_tmp);
                b.bmnz(f_todo, retry);
            }
            Variant::Base => {
                b.shl(r_t1, r_t1, 2);
                b.add(r_t1, r_t1, r_rhs);
                for lane in 0..width {
                    b.vextract(r_t2, v_acc, LaneSel::Imm(lane as u8));
                    let retry = b.here();
                    b.ll(r_t3, r_t1, (4 * lane) as i64);
                    b.fsub(r_t3, r_t3, r_t2);
                    b.sc(r_t3, r_t3, r_t1, (4 * lane) as i64);
                    b.beq(r_t3, 0, retry);
                }
            }
        }
        b.sync_off();
    }
    b.addi(r_t, r_t, 1);
    b.jmp(outer);
    b.bind(done).unwrap();
    b.halt();
    b.build().expect("FS program assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::run_workload;

    fn check(variant: Variant, cores: usize, tpc: usize, width: usize) {
        let cfg = MachineConfig::paper(cores, tpc, width);
        let w = Fs::new(Dataset::Tiny).build(variant, &cfg);
        run_workload(&w, &cfg).expect("runs and validates");
    }

    #[test]
    fn glsc_configs() {
        check(Variant::Glsc, 1, 1, 4);
        check(Variant::Glsc, 2, 2, 4);
        check(Variant::Glsc, 1, 2, 16);
        check(Variant::Glsc, 1, 1, 1);
    }

    #[test]
    fn base_configs() {
        check(Variant::Base, 1, 1, 4);
        check(Variant::Base, 2, 2, 4);
    }

    #[test]
    fn combining_is_effective_on_contiguous_reductions() {
        let cfg = MachineConfig::paper(1, 1, 4);
        let w = Fs::new(Dataset::Tiny).build(Variant::Glsc, &cfg);
        let out = run_workload(&w, &cfg).unwrap();
        // 4 contiguous f32 share a 64-byte line, so combining must save
        // a large share of atomic L1 accesses.
        assert!(
            out.report.gsu.combining_savings() * 2 > out.report.gsu.atomic_elems,
            "expected >50% combining savings: saved {} of {}",
            out.report.gsu.combining_savings(),
            out.report.gsu.atomic_elems
        );
    }

    #[test]
    fn tasks_exist_and_reference_changes_rhs() {
        let fs = Fs::new(Dataset::Tiny);
        let d = fs.generate();
        assert!(!d.blk_i.is_empty());
        let rhs = fs.reference(&d);
        assert_ne!(rhs, d.rhs0);
    }
}
