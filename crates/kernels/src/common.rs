//! Shared kernel infrastructure: memory images, workload runner, and the
//! SIMD lock idioms of Fig. 3.

use glsc_isa::{CmpOp, MReg, Program, ProgramBuilder, Reg, VReg, ELEM_BYTES};
use glsc_mem::{Backing, LINE_BYTES};
use glsc_sim::{ChaosConfig, ChaosStats, FaultPlan, Machine, MachineConfig, RunReport};
use std::hash::{Hash, Hasher};

/// The seven benchmark names, in the paper's order.
pub const KERNEL_NAMES: [&str; 7] = ["GBC", "FS", "GPS", "HIP", "SMC", "MFP", "TMS"];

/// Which implementation of the atomic work a workload uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Scalar `ll`/`sc` (or scalar locks) for atomics — the paper's
    /// baseline architecture.
    Base,
    /// `vgatherlink`/`vscattercond` — the paper's proposal.
    Glsc,
}

impl Variant {
    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Base => "Base",
            Variant::Glsc => "GLSC",
        }
    }
}

/// Input scale. `A` and `B` mirror the two datasets per benchmark in
/// Table 3 (scaled down; see DESIGN.md); `Tiny` is for unit tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Dataset A (first column of Table 3), scaled.
    A,
    /// Dataset B (second column of Table 3), scaled.
    B,
    /// Small inputs for fast unit tests.
    Tiny,
}

/// 32-bit words per cache line.
pub(crate) const WORDS_PER_LINE: usize = (LINE_BYTES / ELEM_BYTES) as usize;

/// An initial memory image: a bump allocator of line-aligned regions
/// ([`LINE_BYTES`]) plus their contents.
#[derive(Clone, Debug, Default)]
pub struct MemImage {
    chunks: Vec<(u64, Vec<u32>)>,
    next: u64,
}

impl MemImage {
    /// Creates an empty image; allocation starts at 64 KiB.
    pub fn new() -> Self {
        Self {
            chunks: Vec::new(),
            next: 0x1_0000,
        }
    }

    /// Allocates a region holding `data`, returning its base address.
    pub fn alloc_u32(&mut self, data: &[u32]) -> u64 {
        let base = self.next;
        self.next += (data.len() as u64 * ELEM_BYTES).next_multiple_of(LINE_BYTES);
        if self.next == base {
            self.next += LINE_BYTES;
        }
        self.chunks.push((base, data.to_vec()));
        base
    }

    /// Allocates a region holding `data` as f32 bit patterns.
    pub fn alloc_f32(&mut self, data: &[f32]) -> u64 {
        let words: Vec<u32> = data.iter().map(|f| f.to_bits()).collect();
        self.alloc_u32(&words)
    }

    /// Allocates a zero-filled region of `words` 32-bit words.
    pub fn alloc_zeroed(&mut self, words: usize) -> u64 {
        self.alloc_u32(&vec![0u32; words])
    }

    /// Writes the image into a backing store.
    pub fn apply(&self, backing: &mut Backing) {
        for (base, words) in &self.chunks {
            backing.write_u32_slice(*base, words);
        }
    }

    /// Publishes the image as an immutable, shareable copy-on-write base
    /// (DESIGN.md §13): the page contents are exactly what
    /// [`apply`](MemImage::apply) would have written, so mounting the
    /// result via [`Backing::set_base`] is functionally indistinguishable
    /// from applying the image. No product code calls it (every job
    /// applies its image); it stays for the benchmark's fleet replay.
    pub fn publish(&self) -> std::sync::Arc<glsc_mem::BackingBase> {
        let mut staging = Backing::new();
        self.apply(&mut staging);
        staging.freeze()
    }

    /// Order-sensitive hash of the image layout and contents, one
    /// multiply per word.
    pub fn fingerprint(&self) -> u64 {
        let mut h = WORD_FNV;
        self.fold_into(&mut h);
        h.finish()
    }

    /// Folds every region's base, length and 32-bit words into `h`, one
    /// integer write each.
    fn fold_into(&self, h: &mut WordFnv) {
        for (base, words) in &self.chunks {
            h.write_u64(*base);
            h.write_u64(words.len() as u64);
            for &w in words {
                h.write_u32(w);
            }
        }
    }
}

/// FNV-1a with whole-integer steps: each integer write folds its value in
/// with one xor and one multiply; a byte slice folds per byte.
struct WordFnv(u64);

/// A fresh [`WordFnv`] at the FNV-1a offset basis.
const WORD_FNV: WordFnv = WordFnv(0xcbf2_9ce4_8422_2325);

impl Hasher for WordFnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Validation callback run against the final memory image.
pub type ValidateFn = Box<dyn Fn(&Backing) -> Result<(), String> + Send + Sync>;

/// A runnable benchmark instance: program + initial memory + validator.
pub struct Workload {
    /// Human-readable name, e.g. `"HIP/A/GLSC/w4"`.
    pub name: String,
    /// The SPMD program all hardware threads execute.
    pub program: Program,
    /// Initial memory contents.
    pub image: MemImage,
    /// Post-run correctness check against a golden reference.
    pub validate: ValidateFn,
}

impl Workload {
    /// Content fingerprint of everything that determines this workload's
    /// simulated behavior: the initial memory image, then the program's
    /// structure (every instruction, sync flag and label target; see
    /// [`Program`]'s `Hash`). The benchmark harness and `glsc-serve` fold
    /// this into their store keys, so editing a kernel's code or dataset
    /// generator invalidates its stored results.
    pub fn fingerprint(&self) -> u64 {
        let mut h = WORD_FNV;
        self.image.fold_into(&mut h);
        self.program.hash(&mut h);
        h.finish()
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("instructions", &self.program.len())
            .finish()
    }
}

/// Result of running a workload to completion (validation already passed).
#[derive(Clone, Debug)]
pub struct KernelOutcome {
    /// Simulation statistics.
    pub report: RunReport,
}

/// Runs a workload on a freshly built machine and validates the result.
///
/// # Errors
///
/// Returns an error string if the simulation exceeds its cycle budget or
/// the validator rejects the final memory image.
pub fn run_workload(w: &Workload, cfg: &MachineConfig) -> Result<KernelOutcome, String> {
    let mut machine = Machine::new(cfg.clone());
    w.image.apply(machine.mem_mut().backing_mut());
    machine.load_program(w.program.clone());
    let report = machine
        .run()
        .map_err(|e| format!("{}: simulation failed: {e}", w.name))?;
    (w.validate)(machine.mem().backing())
        .map_err(|e| format!("{}: validation failed: {e}", w.name))?;
    Ok(KernelOutcome { report })
}

/// Runs a workload with a seeded fault-injection plan installed
/// (DESIGN.md §9) and validates the result against the same golden
/// reference as the fault-free path — the atomicity oracle: faults may
/// slow the run down but must never change what it computes. Also returns
/// the injection counters so callers can assert the perturbation was real.
///
/// # Errors
///
/// Returns an error string if the simulation aborts (cycle budget,
/// watchdog, invariant check) or the validator rejects the final memory
/// image; the string names the workload and embeds the structured
/// [`SimError`](glsc_sim::SimError) diagnostic.
pub fn run_workload_chaos(
    w: &Workload,
    cfg: &MachineConfig,
    chaos: ChaosConfig,
) -> Result<(KernelOutcome, ChaosStats), String> {
    let mut machine = Machine::new(cfg.clone());
    machine
        .mem_mut()
        .install_fault_plan(FaultPlan::new(chaos.clone()));
    w.image.apply(machine.mem_mut().backing_mut());
    machine.load_program(w.program.clone());
    let report = machine.run().map_err(|e| {
        format!(
            "{} (chaos seed {}): simulation failed: {e}",
            w.name, chaos.seed
        )
    })?;
    (w.validate)(machine.mem().backing()).map_err(|e| {
        format!(
            "{} (chaos seed {}): validation failed: {e}",
            w.name, chaos.seed
        )
    })?;
    let stats = machine
        .mem_mut()
        .take_fault_plan()
        .map(|p| p.stats().clone())
        .unwrap_or_default();
    Ok((KernelOutcome { report }, stats))
}

/// Approximate float equality with relative + absolute tolerance (atomic
/// fp reductions reorder additions, so exact equality is not expected).
pub fn approx_eq(a: f32, b: f32, rel: f32, abs: f32) -> bool {
    let diff = (a - b).abs();
    diff <= abs || diff <= rel * a.abs().max(b.abs())
}

/// Reorders a thread's work slice so that consecutive `width`-aligned
/// groups sample items far apart in the original (locality-sorted) order:
/// a transpose interleave. This is the paper's "reordered into groups of
/// independent constraints" (§4.2, GPS): neighbours in sorted order —
/// which would alias within a SIMD vector — end up in different groups,
/// while the thread's overall working set stays contiguous.
pub fn interleave_for_width<T: Clone>(slice: &mut [T], width: usize) {
    let n = slice.len();
    if width <= 1 || n <= width {
        return;
    }
    let rows = n.div_ceil(width);
    let mut out = Vec::with_capacity(n);
    for r in 0..rows {
        for c in 0..width {
            let idx = c * rows + r;
            if idx < n {
                out.push(slice[idx].clone());
            }
        }
    }
    slice.clone_from_slice(&out);
}

/// Splits `n` items into `t` contiguous chunks; returns the bounds of
/// chunk `i` (used both by generators and by the emitted partition code).
pub fn chunk_bounds(n: usize, t: usize, i: usize) -> (usize, usize) {
    let chunk = n.div_ceil(t);
    let start = (i * chunk).min(n);
    let end = (start + chunk).min(n);
    (start, end)
}

/// Emits code computing this thread's `[start, end)` partition of `n`
/// items into `r_start`/`r_end` (matching [`chunk_bounds`]). Clobbers
/// nothing else; `n` and the thread count are compile-time constants.
pub fn emit_partition(
    b: &mut ProgramBuilder,
    n: usize,
    total_threads: usize,
    r_start: Reg,
    r_end: Reg,
) {
    let chunk = n.div_ceil(total_threads) as i64;
    let r_id = Reg::new(0);
    b.mul(r_start, r_id, chunk);
    b.minu(r_start, r_start, n as i64);
    b.addi(r_end, r_start, chunk);
    b.minu(r_end, r_end, n as i64);
}

/// Emits code producing the tail mask for a strip-mined loop into `f`:
/// `f = (1 << min(r_end - r_i, width)) - 1`. Clobbers `r_tmp`.
pub fn emit_tail_mask(
    b: &mut ProgramBuilder,
    f: MReg,
    r_i: Reg,
    r_end: Reg,
    width: usize,
    r_tmp: Reg,
) {
    b.sub(r_tmp, r_end, r_i);
    b.minu(r_tmp, r_tmp, width as i64);
    let r_one = r_tmp; // reuse: tmp = (1 << tmp) - 1, computed via a second scratch
                       // (1 << t) - 1 without a second register: shift an immediate 1 left by t.
    b.alu(
        glsc_isa::AluOp::Shl,
        r_one,
        Reg::new(31),
        glsc_isa::Operand::Reg(r_tmp),
    );
    // NOTE: r31 is reserved as the constant 1 by convention; emit_const_one
    // must have run in the prologue.
    b.addi(r_one, r_one, -1);
    b.r2m(f, r_one);
}

/// Emits the prologue establishing the `r31 == 1` convention used by
/// [`emit_tail_mask`] and the lock idioms.
pub fn emit_const_one(b: &mut ProgramBuilder) {
    b.li(Reg::new(31), 1);
}

/// Registers used by the SIMD lock idioms of Fig. 3(B).
#[derive(Clone, Copy, Debug)]
pub struct VLockRegs {
    /// Gathered lock values (clobbered).
    pub vtmp: VReg,
    /// All-ones lane constant (must hold 1 in every lane).
    pub vone: VReg,
    /// All-zeros lane constant (must hold 0 in every lane).
    pub vzero: VReg,
    /// Scratch mask (clobbered).
    pub ftmp1: MReg,
    /// Scratch mask (clobbered).
    pub ftmp2: MReg,
}

/// Emits the `VLOCK` macro of Fig. 3(B): attempts to acquire the
/// test-and-set locks `lock_base[vindex]` for the lanes of `f`; afterwards
/// `f` holds exactly the lanes whose locks were acquired. Aliased lanes
/// acquire at most once (vscattercond alias resolution).
pub fn emit_vlock(b: &mut ProgramBuilder, lock_base: Reg, vindex: VReg, f: MReg, regs: VLockRegs) {
    // Gather-linked locks indicated by f.
    b.vgatherlink(regs.ftmp1, regs.vtmp, lock_base, vindex, f);
    // Determine which locks are available (== 0).
    b.vcmp(CmpOp::Eq, regs.ftmp2, regs.vtmp, 0, Some(regs.ftmp1));
    // Attempt to obtain the available locks.
    b.vscattercond(f, regs.vone, lock_base, vindex, regs.ftmp2);
    // f now indicates locks acquired successfully.
}

/// Emits the `VUNLOCK` macro of Fig. 3(B): releases the locks
/// `lock_base[vindex]` for the lanes of `f` with a plain scatter of zeros.
pub fn emit_vunlock(
    b: &mut ProgramBuilder,
    lock_base: Reg,
    vindex: VReg,
    f: MReg,
    regs: VLockRegs,
) {
    b.vscatter(regs.vzero, lock_base, vindex, Some(f));
}

/// Emits a small pseudo-random per-thread backoff for lock-retry paths.
/// Conditional lock acquisition (the Fig. 3(B) idiom) can livelock in a
/// cyclic waits-for pattern when contending threads run in deterministic
/// lockstep; a per-thread LCG delay (0–30 cycles) breaks the symmetry,
/// exactly as software backoff does on real hardware. Clobbers `r_tmp`;
/// `r_state` carries the LCG state across retries (initialize it to the
/// thread id).
pub fn emit_backoff(b: &mut ProgramBuilder, r_state: Reg, r_tmp: Reg) {
    b.mul(r_state, r_state, 13);
    b.add(r_state, r_state, Reg::new(0));
    b.addi(r_state, r_state, 7);
    b.and(r_tmp, r_state, 15);
    let spin = b.here();
    b.addi(r_tmp, r_tmp, -1);
    b.bgt(r_tmp, 0, spin);
}

/// Emits a scalar test-and-set spin lock acquire on the lock word at
/// address `r_addr` (Base variant). Clobbers `r_t1`, `r_t2`. Requires the
/// `r31 == 1` convention.
pub fn emit_scalar_lock(b: &mut ProgramBuilder, r_addr: Reg, r_t1: Reg, r_t2: Reg) {
    let spin = b.here();
    b.ll(r_t1, r_addr, 0);
    b.bne(r_t1, 0, spin);
    b.sc(r_t2, Reg::new(31), r_addr, 0);
    b.beq(r_t2, 0, spin);
}

/// Emits a scalar lock release: a plain store of zero to `r_addr`.
/// Clobbers `r_t1`.
pub fn emit_scalar_unlock(b: &mut ProgramBuilder, r_addr: Reg, r_t1: Reg) {
    b.li(r_t1, 0);
    b.st(r_t1, r_addr, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsc_isa::ProgramBuilder;

    #[test]
    fn chunk_bounds_cover_exactly() {
        for n in [0usize, 1, 7, 16, 100] {
            for t in [1usize, 2, 3, 16] {
                let mut covered = 0;
                let mut prev_end = 0;
                for i in 0..t {
                    let (s, e) = chunk_bounds(n, t, i);
                    assert!(s <= e && e <= n);
                    assert!(s >= prev_end);
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, n, "n={n} t={t}");
            }
        }
    }

    #[test]
    fn mem_image_alignment_and_content() {
        let mut img = MemImage::new();
        let a = img.alloc_u32(&[1, 2, 3]);
        let b = img.alloc_zeroed(1);
        assert_eq!(a % LINE_BYTES, 0);
        assert_eq!(b % LINE_BYTES, 0);
        assert!(b >= a + 12);
        let mut back = Backing::new();
        img.apply(&mut back);
        assert_eq!(back.read_u32(a + 8), 3);
        assert_eq!(back.read_u32(b), 0);
    }

    fn workload(program: Program) -> Workload {
        Workload {
            name: "probe".into(),
            program,
            image: MemImage::new(),
            validate: Box::new(|_| Ok(())),
        }
    }

    #[test]
    fn workload_fingerprint_sees_where_a_label_binds() {
        // Both programs run `nop; nop; jmp; halt`: only the pc the loop
        // label binds to differs.
        let program = |label_first: bool| {
            let mut b = ProgramBuilder::new();
            let l = b.label();
            if !label_first {
                b.nop();
            }
            b.bind(l).unwrap();
            if label_first {
                b.nop();
            }
            b.nop();
            b.jmp(l);
            b.halt();
            b.build().unwrap()
        };
        let (early, late) = (program(true), program(false));
        assert!(early.iter().eq(late.iter()), "same instruction stream");
        assert_ne!(early, late);
        let (early, late) = (workload(early), workload(late));
        assert_ne!(early.fingerprint(), late.fingerprint());
        assert_eq!(early.fingerprint(), workload(program(true)).fingerprint());
    }

    #[test]
    fn workload_fingerprint_sees_immediates_registers_and_sync_flags() {
        // `li r2, imm; [sync] addi r3, r2, 1; halt`, one field at a time.
        let program = |imm: i64, rd: u8, sync: bool| {
            let mut b = ProgramBuilder::new();
            b.li(Reg::new(2), imm);
            if sync {
                b.sync_on();
            }
            b.addi(Reg::new(rd), Reg::new(2), 1);
            b.sync_off();
            b.halt();
            workload(b.build().unwrap())
        };
        let base = program(7, 3, false).fingerprint();
        assert_eq!(program(7, 3, false).fingerprint(), base);
        assert_ne!(program(8, 3, false).fingerprint(), base, "immediate");
        assert_ne!(program(7, 4, false).fingerprint(), base, "register");
        assert_ne!(program(7, 3, true).fingerprint(), base, "sync flag");
    }

    #[test]
    fn fingerprint_sees_every_bit_of_every_word_and_the_layout() {
        let image = |words: &[u32]| {
            let mut img = MemImage::new();
            img.alloc_u32(words);
            img.alloc_u32(&[7]);
            img
        };
        let base = image(&[1, 2, 3]).fingerprint();
        assert_eq!(image(&[1, 2, 3]).fingerprint(), base);
        for word in 0..3 {
            for bit in 0..32 {
                let mut words = [1, 2, 3];
                words[word] ^= 1 << bit;
                assert_ne!(image(&words).fingerprint(), base, "word {word}, bit {bit}");
            }
        }
        // Order, length and placement count, not just the multiset of words.
        assert_ne!(image(&[3, 2, 1]).fingerprint(), base);
        assert_ne!(image(&[1, 2, 3, 0]).fingerprint(), base);
        let mut moved = MemImage::new();
        moved.alloc_zeroed(1);
        moved.alloc_u32(&[1, 2, 3]);
        moved.alloc_u32(&[7]);
        assert_ne!(moved.fingerprint(), base);
    }

    #[test]
    fn publish_matches_apply() {
        let mut img = MemImage::new();
        let a = img.alloc_u32(&[1, 2, 3]);
        let b = img.alloc_f32(&[0.5, -2.0]);
        let c = img.alloc_zeroed(2000); // spans a page boundary
        let mut applied = Backing::new();
        img.apply(&mut applied);
        let mut mounted = Backing::new();
        mounted.set_base(img.publish());
        for addr in [a, a + 4, a + 8, a + 12, b, b + 4, c, c + 4096, c + 7996] {
            assert_eq!(
                applied.read_u32(addr),
                mounted.read_u32(addr),
                "at {addr:#x}"
            );
        }
        assert_eq!(mounted.read_u32(a + 8), 3);
        assert_eq!(mounted.read_f32(b + 4), -2.0);
        // Mounting is read-only sharing: nothing was materialized.
        assert_eq!(mounted.resident_pages(), 0);
    }

    #[test]
    fn approx_eq_tolerances() {
        assert!(approx_eq(1.0, 1.0, 0.0, 0.0));
        assert!(approx_eq(100.0, 100.001, 1e-4, 0.0));
        assert!(!approx_eq(100.0, 101.0, 1e-4, 0.0));
        assert!(approx_eq(0.0, 1e-6, 0.0, 1e-5));
    }

    #[test]
    fn partition_program_matches_chunk_bounds() {
        // Simulate the emitted partition code for several thread counts.
        use glsc_sim::{Machine, MachineConfig};
        let n = 37;
        for (cores, tpc) in [(1, 1), (2, 2), (4, 4)] {
            let total = cores * tpc;
            let mut b = ProgramBuilder::new();
            let (rs, re, rb, ro) = (Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5));
            emit_partition(&mut b, n, total, rs, re);
            // store start/end to 0x1000 + 8*gid
            b.li(rb, 0x1000);
            b.shl(ro, Reg::new(0), 3);
            b.add(rb, rb, ro);
            b.st(rs, rb, 0);
            b.st(re, rb, 4);
            b.halt();
            let mut m = Machine::new(MachineConfig::paper(cores, tpc, 1));
            m.load_program(b.build().unwrap());
            m.run().unwrap();
            for i in 0..total {
                let (s, e) = chunk_bounds(n, total, i);
                let addr = 0x1000 + 8 * i as u64;
                assert_eq!(
                    m.mem().backing().read_u32(addr),
                    s as u32,
                    "start t{i}/{total}"
                );
                assert_eq!(
                    m.mem().backing().read_u32(addr + 4),
                    e as u32,
                    "end t{i}/{total}"
                );
            }
        }
    }

    #[test]
    fn tail_mask_program() {
        use glsc_sim::{Machine, MachineConfig};
        // For i in {0, 4, 6}, end=7, width=4 the masks are 1111, 111, 1.
        for (i, expect) in [(0i64, 0b1111u32), (4, 0b111), (6, 0b1)] {
            let mut b = ProgramBuilder::new();
            emit_const_one(&mut b);
            let (ri, rend, rt, rb) = (Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5));
            b.li(ri, i);
            b.li(rend, 7);
            emit_tail_mask(&mut b, glsc_isa::MReg::new(0), ri, rend, 4, rt);
            b.m2r(rt, glsc_isa::MReg::new(0));
            b.li(rb, 0x1000);
            b.st(rt, rb, 0);
            b.halt();
            let mut m = Machine::new(MachineConfig::paper(1, 1, 4));
            m.load_program(b.build().unwrap());
            m.run().unwrap();
            assert_eq!(m.mem().backing().read_u32(0x1000), expect, "i={i}");
        }
    }

    #[test]
    fn backoff_sequences_deterministic_distinct_and_clobber_free() {
        use glsc_sim::{Machine, MachineConfig};
        // Each SMT thread runs emit_backoff ROUNDS times, storing the LCG
        // state after every round plus two sentinel registers, at
        // 0x2000 + tid*(ROUNDS+2)*4.
        const ROUNDS: usize = 4;
        let stride = (ROUNDS + 2) * 4;
        let build = || {
            let mut b = ProgramBuilder::new();
            let r = Reg::new;
            let (r_state, r_tmp, r_addr, r_s1, r_s2) = (r(20), r(21), r(22), r(11), r(12));
            b.li(r_s1, 0x111);
            b.li(r_s2, 0x222);
            b.mv(r_state, r(0));
            b.mul(r_addr, r(0), stride as i64);
            b.addi(r_addr, r_addr, 0x2000);
            for round in 0..ROUNDS {
                emit_backoff(&mut b, r_state, r_tmp);
                b.st(r_state, r_addr, (round * 4) as i64);
            }
            b.st(r_s1, r_addr, (ROUNDS * 4) as i64);
            b.st(r_s2, r_addr, (ROUNDS * 4 + 4) as i64);
            b.halt();
            b.build().unwrap()
        };
        let run = || {
            let mut m = Machine::new(MachineConfig::paper(1, 2, 4));
            m.load_program(build());
            m.run().unwrap();
            let mut seqs: Vec<Vec<u32>> = Vec::new();
            for tid in 0..2u64 {
                let base = 0x2000 + tid * stride as u64;
                let back = m.mem().backing();
                // Sentinels survive: emit_backoff clobbered nothing beyond
                // r_state / r_tmp.
                assert_eq!(back.read_u32(base + (ROUNDS as u64) * 4), 0x111);
                assert_eq!(back.read_u32(base + (ROUNDS as u64) * 4 + 4), 0x222);
                seqs.push(
                    (0..ROUNDS)
                        .map(|i| back.read_u32(base + 4 * i as u64))
                        .collect(),
                );
            }
            seqs
        };
        let seqs = run();
        // The observed states follow the LCG exactly: deterministic and
        // computable without running the machine.
        for (tid, seq) in seqs.iter().enumerate() {
            let mut state = tid as u64;
            for (round, &got) in seq.iter().enumerate() {
                state = state
                    .wrapping_mul(13)
                    .wrapping_add(tid as u64)
                    .wrapping_add(7);
                assert_eq!(u64::from(got), state, "tid {tid} round {round}");
            }
        }
        // Distinct across SMT threads, and stable across a re-run.
        assert_ne!(seqs[0], seqs[1], "threads must not back off in lockstep");
        assert_eq!(seqs, run(), "backoff must be run-to-run deterministic");
    }

    #[test]
    fn scalar_lock_mutual_exclusion() {
        use glsc_sim::{Machine, MachineConfig};
        // All threads increment a shared counter under a scalar lock.
        let mut b = ProgramBuilder::new();
        emit_const_one(&mut b);
        let (r_lock, r_cnt, r_t1, r_t2, r_i) = (
            Reg::new(2),
            Reg::new(3),
            Reg::new(4),
            Reg::new(5),
            Reg::new(6),
        );
        b.li(r_lock, 0x1000);
        b.li(r_cnt, 0x2000);
        b.li(r_i, 0);
        let top = b.here();
        b.sync_on();
        emit_scalar_lock(&mut b, r_lock, r_t1, r_t2);
        b.sync_off();
        b.ld(r_t1, r_cnt, 0);
        b.addi(r_t1, r_t1, 1);
        b.st(r_t1, r_cnt, 0);
        b.sync_on();
        emit_scalar_unlock(&mut b, r_lock, r_t2);
        b.sync_off();
        b.addi(r_i, r_i, 1);
        b.blt(r_i, 10, top);
        b.halt();
        let mut m = Machine::new(MachineConfig::paper(2, 2, 1));
        m.load_program(b.build().unwrap());
        m.run().unwrap();
        assert_eq!(m.mem().backing().read_u32(0x2000), 40);
        assert_eq!(m.mem().backing().read_u32(0x1000), 0, "lock released");
    }

    #[test]
    fn vlock_vunlock_mutual_exclusion() {
        use glsc_isa::VReg;
        use glsc_sim::{Machine, MachineConfig};
        // Each thread processes W lock-protected counters; lanes pick
        // deliberately aliased indices so VLOCK must serialize them.
        let width = 4;
        let mut b = ProgramBuilder::new();
        emit_const_one(&mut b);
        let (r_lock, r_cnt, r_i, r_t) = (Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5));
        let (v_idx, v_val) = (VReg::new(1), VReg::new(2));
        let regs = VLockRegs {
            vtmp: VReg::new(3),
            vone: VReg::new(4),
            vzero: VReg::new(5),
            ftmp1: glsc_isa::MReg::new(2),
            ftmp2: glsc_isa::MReg::new(3),
        };
        let f = glsc_isa::MReg::new(0);
        b.li(r_lock, 0x1000);
        b.li(r_cnt, 0x2000);
        b.vsplat(regs.vone, Reg::new(31));
        b.li(r_t, 0);
        b.vsplat(regs.vzero, r_t);
        // All lanes target counter 0 and counter 1 alternately: idx = lane & 1.
        b.viota(v_idx);
        b.vand(v_idx, v_idx, 1, None);
        b.li(r_i, 0);
        let top = b.here();
        let f_done = glsc_isa::MReg::new(1);
        b.sync_on();
        b.mall(f_done);
        let retry = b.here();
        b.mmov(f, f_done);
        emit_vlock(&mut b, r_lock, v_idx, f, regs);
        // Critical section: gather, +1, scatter (aliases resolved by VLOCK:
        // at most one lane per index holds the lock).
        b.vgather(v_val, r_cnt, v_idx, Some(f));
        b.vadd(v_val, v_val, 1, Some(f));
        b.vscatter(v_val, r_cnt, v_idx, Some(f));
        emit_vunlock(&mut b, r_lock, v_idx, f, regs);
        b.mxor(f_done, f_done, f);
        b.bmnz(f_done, retry);
        b.sync_off();
        b.addi(r_i, r_i, 1);
        b.blt(r_i, 5, top);
        b.halt();
        let mut m = Machine::new(MachineConfig::paper(2, 2, width));
        m.load_program(b.build().unwrap());
        m.run().unwrap();
        // 4 threads x 5 iters x 4 lanes = 80 increments, half per counter.
        assert_eq!(m.mem().backing().read_u32(0x2000), 40);
        assert_eq!(m.mem().backing().read_u32(0x2004), 40);
        assert_eq!(m.mem().backing().read_u32(0x1000), 0);
        assert_eq!(m.mem().backing().read_u32(0x1004), 0);
    }
}
