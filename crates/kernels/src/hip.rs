//! HIP — Histogram for Image Processing (Table 2).
//!
//! Generates a color histogram of an image for image-based retrieval. The
//! image is row-wise partitioned among threads; **each thread updates its
//! own private copy** of the histogram and a SIMD global merge runs at the
//! end (privatization, §4.2). Because of privatization HIP "does not
//! utilize the atomicity feature of GLSC, but takes advantage of its alias
//! detection":
//!
//! * **Base** updates the private copy with per-lane scalar
//!   extract/load/add/store sequences (no atomicity needed, but no SIMD
//!   either — plain scatters have undefined aliasing behaviour);
//! * **GLSC** updates it with the Fig. 3(A) gather-link / increment /
//!   scatter-cond loop, which resolves intra-vector aliases in hardware.
//!
//! The paper's inputs (480×480 car/people images) are unavailable; the
//! generator synthesizes pixel streams whose *bin-collision skew* plays the
//! same role (HIP's high element-failure rate in Table 4 comes from many
//! pixels mapping to few bins). Dataset A is moderately skewed, dataset B
//! more so.

use crate::common::{
    emit_const_one, emit_partition, Dataset, MemImage, Variant, Workload, WORDS_PER_LINE,
};
use glsc_isa::{LaneSel, MReg, ProgramBuilder, Reg, VReg};
use glsc_rng::rngs::StdRng;
use glsc_rng::{Rng, SeedableRng};
use glsc_sim::MachineConfig;

/// Input parameters for [`Hip`].
#[derive(Clone, Debug)]
pub struct HipParams {
    /// Number of pixels (padded to a multiple of 256 so every per-thread
    /// chunk is SIMD-width aligned).
    pub pixels: usize,
    /// Number of histogram bins.
    pub bins: usize,
    /// Skew exponent: pixel bins are `bins * u^skew`; larger = more
    /// aliasing.
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

/// The HIP benchmark.
#[derive(Clone, Debug)]
pub struct Hip {
    params: HipParams,
}

impl Hip {
    /// Benchmark instance for a dataset of Table 3 (scaled).
    pub fn new(dataset: Dataset) -> Self {
        let params = match dataset {
            // 480x480 image of cars -> moderately skewed color space.
            Dataset::A => HipParams {
                pixels: 30 * 1024,
                bins: 32,
                skew: 4.0,
                seed: 1,
            },
            // 480x480 image of people -> fewer dominant colors.
            Dataset::B => HipParams {
                pixels: 30 * 1024,
                bins: 16,
                skew: 2.0,
                seed: 2,
            },
            Dataset::Tiny => HipParams {
                pixels: 1024,
                bins: 8,
                skew: 2.0,
                seed: 3,
            },
        };
        Self { params }
    }

    /// Benchmark instance with explicit parameters.
    pub fn with_params(params: HipParams) -> Self {
        Self { params }
    }

    /// Generates the pixel stream.
    pub fn gen_pixels(&self) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let n = self.params.pixels.next_multiple_of(256);
        (0..n)
            .map(|_| {
                let u: f64 = rng.random();
                // Skewed quantized color: low bins dominate, as in natural
                // images with a few dominant colors (the source of HIP's
                // high alias rate in Table 4).
                ((self.params.bins as f64) * u.powf(self.params.skew)) as u32
            })
            .collect()
    }

    /// Golden reference histogram.
    pub fn reference(&self, pixels: &[u32]) -> Vec<u32> {
        let mut hist = vec![0u32; self.params.bins];
        for p in pixels {
            hist[(*p as usize) % self.params.bins] += 1;
        }
        hist
    }

    /// Builds the runnable workload for a machine configuration.
    pub fn build(&self, variant: Variant, cfg: &MachineConfig) -> Workload {
        let width = cfg.simd_width;
        let threads = cfg.total_threads();
        let pixels = self.gen_pixels();
        let n = pixels.len();
        let bins = self.params.bins;
        // Pad each private copy to a line multiple so copies don't share
        // cache lines (false sharing would not be wrong, just noisy).
        let bins_pad = bins.next_multiple_of(WORDS_PER_LINE);

        let mut image = MemImage::new();
        let input = image.alloc_u32(&pixels);
        let privs = image.alloc_zeroed(bins_pad * threads);
        let global = image.alloc_zeroed(bins_pad);

        let program = build_program(
            variant, width, threads, n, bins, bins_pad, input, privs, global,
        );

        let expected = self.reference(&pixels);
        let name = format!(
            "HIP/{}/{}/w{}",
            self.dataset_label(),
            variant.label(),
            width
        );
        Workload {
            name,
            program,
            image,
            validate: Box::new(move |backing| {
                for (bin, expect) in expected.iter().enumerate() {
                    let got = backing.read_u32(global + 4 * bin as u64);
                    if got != *expect {
                        return Err(format!("bin {bin}: got {got}, expected {expect}"));
                    }
                }
                Ok(())
            }),
        }
    }

    fn dataset_label(&self) -> String {
        format!("p{}b{}", self.params.pixels, self.params.bins)
    }
}

#[allow(clippy::too_many_arguments)]
fn build_program(
    variant: Variant,
    width: usize,
    threads: usize,
    n: usize,
    bins: usize,
    bins_pad: usize,
    input: u64,
    privs: u64,
    global: u64,
) -> glsc_isa::Program {
    let mut b = ProgramBuilder::new();
    let r = Reg::new;
    let v = VReg::new;
    let m = MReg::new;
    let (r_in, r_my, r_i, r_end, r_addr, r_t1, r_t2) = (r(2), r(3), r(4), r(5), r(6), r(7), r(8));
    let (v_in, v_bins, v_tmp) = (v(0), v(1), v(2));
    let (f_todo, f_tmp) = (m(0), m(1));

    emit_const_one(&mut b);
    b.li(r_in, input as i64);
    // My private histogram: privs + gid * bins_pad * 4.
    b.mul(r_my, r(0), (bins_pad * 4) as i64);
    b.addi(r_my, r_my, privs as i64);
    emit_partition(&mut b, n, threads, r_i, r_end);

    // ---- Phase 1: histogram into the private copy ----
    let outer = b.here();
    let merge = b.label();
    b.bge(r_i, r_end, merge);
    b.shl(r_addr, r_i, 2);
    b.add(r_addr, r_addr, r_in);
    b.vload(v_in, r_addr, 0, None);
    b.vmod(v_bins, v_in, bins as i64, None);
    // The histogram update is the benchmark's reduction region.
    b.sync_on();
    match variant {
        Variant::Glsc => {
            b.mall(f_todo);
            let retry = b.here();
            b.vgatherlink(f_tmp, v_tmp, r_my, v_bins, f_todo);
            b.vadd(v_tmp, v_tmp, 1, Some(f_tmp));
            b.vscattercond(f_tmp, v_tmp, r_my, v_bins, f_tmp);
            b.mxor(f_todo, f_todo, f_tmp);
            b.bmnz(f_todo, retry);
        }
        Variant::Base => {
            // Per-lane scalar update: the copy is private, so scalar
            // load/add/store suffices (sequential within the thread).
            for lane in 0..width {
                b.vextract(r_t1, v_bins, LaneSel::Imm(lane as u8));
                b.shl(r_t1, r_t1, 2);
                b.add(r_t1, r_t1, r_my);
                b.ld(r_t2, r_t1, 0);
                b.addi(r_t2, r_t2, 1);
                b.st(r_t2, r_t1, 0);
            }
        }
    }
    b.sync_off();
    b.addi(r_i, r_i, width as i64);
    b.jmp(outer);

    // ---- Phase 2: merge private copies into the global histogram ----
    b.bind(merge).unwrap();
    b.sync_on();
    b.barrier();
    b.sync_off();
    let (r_g, r_copy, r_t) = (r(9), r(10), r(11));
    let (v_acc, v_c) = (v(3), v(4));
    b.li(r_g, global as i64);
    emit_partition(&mut b, bins_pad, threads, r_i, r_end);
    let mtop = b.here();
    let done = b.label();
    b.bge(r_i, r_end, done);
    crate::common::emit_tail_mask(&mut b, f_todo, r_i, r_end, width, r_t1);
    b.shl(r_addr, r_i, 2);
    // Accumulate this bin range across all private copies.
    b.li(r_t, 0);
    b.li(r_t2, 0);
    b.vsplat(v_acc, r_t2);
    let copies = b.here();
    b.mul(r_copy, r_t, (bins_pad * 4) as i64);
    b.addi(r_copy, r_copy, privs as i64);
    b.add(r_copy, r_copy, r_addr);
    b.vload(v_c, r_copy, 0, Some(f_todo));
    b.vadd(v_acc, v_acc, v_c, Some(f_todo));
    b.addi(r_t, r_t, 1);
    b.blt(r_t, threads as i64, copies);
    b.add(r_t1, r_g, r_addr);
    b.vstore(v_acc, r_t1, 0, Some(f_todo));
    b.addi(r_i, r_i, width as i64);
    b.jmp(mtop);
    b.bind(done).unwrap();
    b.halt();
    b.build().expect("HIP program assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::run_workload;

    fn check(variant: Variant, cores: usize, tpc: usize, width: usize) {
        let cfg = MachineConfig::paper(cores, tpc, width);
        let w = Hip::new(Dataset::Tiny).build(variant, &cfg);
        let out = run_workload(&w, &cfg).expect("runs and validates");
        assert!(out.report.cycles > 0);
    }

    #[test]
    fn glsc_small_configs() {
        check(Variant::Glsc, 1, 1, 4);
        check(Variant::Glsc, 1, 2, 4);
        check(Variant::Glsc, 2, 2, 4);
    }

    #[test]
    fn base_small_configs() {
        check(Variant::Base, 1, 1, 4);
        check(Variant::Base, 2, 2, 4);
    }

    #[test]
    fn widths_one_and_sixteen() {
        check(Variant::Glsc, 1, 2, 1);
        check(Variant::Glsc, 1, 2, 16);
        check(Variant::Base, 1, 2, 1);
        check(Variant::Base, 1, 2, 16);
    }

    #[test]
    fn glsc_uses_alias_detection() {
        let cfg = MachineConfig::paper(1, 1, 4);
        let w = Hip::new(Dataset::Tiny).build(Variant::Glsc, &cfg);
        let out = run_workload(&w, &cfg).unwrap();
        assert!(out.report.gsu.sc_fail_alias > 0, "skewed bins must alias");
        assert_eq!(
            out.report.gsu.sc_fail_reservation, 0,
            "privatized: no cross-thread conflicts at 1x1"
        );
    }

    #[test]
    fn base_uses_no_gsu_atomics() {
        let cfg = MachineConfig::paper(1, 2, 4);
        let w = Hip::new(Dataset::Tiny).build(Variant::Base, &cfg);
        let out = run_workload(&w, &cfg).unwrap();
        assert_eq!(out.report.gsu.gatherlinks, 0);
        assert_eq!(out.report.gsu.scatterconds, 0);
    }

    #[test]
    fn reference_matches_pixel_count() {
        let hip = Hip::new(Dataset::Tiny);
        let pixels = hip.gen_pixels();
        let hist = hip.reference(&pixels);
        assert_eq!(hist.iter().sum::<u32>() as usize, pixels.len());
    }

    #[test]
    fn generator_is_deterministic() {
        let a = Hip::new(Dataset::A).gen_pixels();
        let b = Hip::new(Dataset::A).gen_pixels();
        assert_eq!(a, b);
    }
}
