//! Architectural (ISA-visible) state of one hardware thread.

use glsc_isa::{MReg, Reg, VReg, NUM_MASK_REGS, NUM_SCALAR_REGS, NUM_VECTOR_REGS};

/// Scalar, vector and mask register files plus the program counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadArch {
    /// Program counter (instruction index).
    pub pc: usize,
    regs: [u64; NUM_SCALAR_REGS],
    vregs: Vec<Vec<u32>>,
    mregs: [u32; NUM_MASK_REGS],
    width: usize,
}

impl ThreadArch {
    /// Creates zeroed state for a machine with `width` SIMD lanes.
    pub fn new(width: usize) -> Self {
        Self {
            pc: 0,
            regs: [0; NUM_SCALAR_REGS],
            vregs: vec![vec![0; width]; NUM_VECTOR_REGS],
            mregs: [0; NUM_MASK_REGS],
            width,
        }
    }

    /// SIMD width of this thread's vector registers.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The mask with every lane set.
    pub fn full_mask(&self) -> u32 {
        if self.width >= 32 {
            u32::MAX
        } else {
            (1u32 << self.width) - 1
        }
    }

    /// Reads a scalar register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a scalar register.
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.index()] = v;
    }

    /// Reads a vector register.
    pub fn vreg(&self, v: VReg) -> &[u32] {
        &self.vregs[v.index()]
    }

    /// Writes one lane of a vector register.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= width`.
    pub fn set_vlane(&mut self, v: VReg, lane: usize, value: u32) {
        self.vregs[v.index()][lane] = value;
    }

    /// Replaces a whole vector register.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != width`.
    pub fn set_vreg(&mut self, v: VReg, values: &[u32]) {
        assert_eq!(values.len(), self.width, "vector width mismatch");
        self.vregs[v.index()].copy_from_slice(values);
    }

    /// Reads a mask register (bits above the SIMD width are always zero).
    pub fn mreg(&self, m: MReg) -> u32 {
        self.mregs[m.index()]
    }

    /// Writes a mask register, truncating to the SIMD width.
    pub fn set_mreg(&mut self, m: MReg, v: u32) {
        self.mregs[m.index()] = v & self.full_mask();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_on_creation() {
        let a = ThreadArch::new(4);
        assert_eq!(a.pc, 0);
        assert_eq!(a.reg(Reg::new(5)), 0);
        assert_eq!(a.vreg(VReg::new(3)), &[0, 0, 0, 0]);
        assert_eq!(a.mreg(MReg::new(2)), 0);
        assert_eq!(a.full_mask(), 0b1111);
    }

    #[test]
    fn full_mask_at_32_lanes() {
        let a = ThreadArch::new(32);
        assert_eq!(a.full_mask(), u32::MAX);
    }

    #[test]
    fn mask_writes_truncate_to_width() {
        let mut a = ThreadArch::new(4);
        a.set_mreg(MReg::new(0), 0xffff_ffff);
        assert_eq!(a.mreg(MReg::new(0)), 0b1111);
    }

    #[test]
    fn vector_lane_updates() {
        let mut a = ThreadArch::new(4);
        a.set_vlane(VReg::new(1), 2, 99);
        assert_eq!(a.vreg(VReg::new(1)), &[0, 0, 99, 0]);
        a.set_vreg(VReg::new(1), &[1, 2, 3, 4]);
        assert_eq!(a.vreg(VReg::new(1)), &[1, 2, 3, 4]);
    }
}

glsc_wire::wire_struct!(ThreadArch {
    pc,
    regs,
    vregs,
    mregs,
    width,
});
