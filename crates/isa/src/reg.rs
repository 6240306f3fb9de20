//! Architectural register names.
//!
//! Three register files exist, mirroring the baseline architecture of the
//! paper (§2): scalar registers, SIMD vector registers, and the dedicated
//! mask registers used for conditional SIMD execution (§2.1).

/// Number of scalar (64-bit) registers.
pub const NUM_SCALAR_REGS: usize = 32;
/// Number of vector registers. Each holds `simd_width` 32-bit elements.
pub const NUM_VECTOR_REGS: usize = 32;
/// Number of mask registers. Each holds one bit per SIMD lane.
pub const NUM_MASK_REGS: usize = 8;

macro_rules! reg_newtype {
    ($(#[$meta:meta])* $name:ident, $limit:expr) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u8);

        impl $name {
            /// Creates a register name.
            ///
            /// # Panics
            ///
            /// Panics if `index` is out of range for this register file.
            pub fn new(index: u8) -> Self {
                assert!(
                    (index as usize) < $limit,
                    concat!(stringify!($name), " index {} out of range (limit {})"),
                    index,
                    $limit
                );
                Self(index)
            }

            /// Returns the register index within its file.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

reg_newtype!(
    /// A scalar register name (`r0`–`r31`). Scalar registers hold 64-bit
    /// values; 32-bit memory data is zero-extended on load.
    Reg,
    NUM_SCALAR_REGS
);
reg_newtype!(
    /// A vector register name (`v0`–`v31`). Each vector register holds
    /// `simd_width` 32-bit elements (integers or IEEE-754 single floats).
    VReg,
    NUM_VECTOR_REGS
);
reg_newtype!(
    /// A mask register name (`f0`–`f7`), one bit per SIMD lane (§2.1).
    MReg,
    NUM_MASK_REGS
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_keeps_the_index() {
        assert_eq!(Reg::new(0).index(), 0);
        assert_eq!(Reg::new(31).index(), 31);
        assert_eq!(VReg::new(7).index(), 7);
        assert_eq!(MReg::new(3).index(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scalar_out_of_range_panics() {
        let _ = Reg::new(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mask_out_of_range_panics() {
        let _ = MReg::new(8);
    }

    #[test]
    fn ordering_and_hash_follow_index() {
        assert!(Reg::new(1) < Reg::new(2));
        assert_eq!(VReg::new(4), VReg::new(4));
    }
}
