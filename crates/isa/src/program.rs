//! Assembled programs.

use crate::instr::Instr;
use std::fmt;

/// A branch target created by [`ProgramBuilder::label`] and resolved when
/// the program is built.
///
/// [`ProgramBuilder::label`]: crate::ProgramBuilder::label
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(pub(crate) u32);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// An assembled, immutable program: a sequence of instructions plus
/// per-instruction metadata and resolved label targets.
///
/// In the simulator every hardware thread runs a `Program` (usually the same
/// SPMD program, with the thread id supplied in a register by convention).
/// Equality and hashing cover everything the simulator reads: the
/// instructions, their sync flags and the pc each label binds to, so two
/// programs that differ only in where a loop label binds are not equal.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Program {
    pub(crate) instrs: Vec<Instr>,
    /// `sync[i]` is true when instruction `i` was emitted inside a
    /// synchronization region (`ProgramBuilder::sync_on`); the simulator
    /// uses it to attribute execution time to synchronization (Fig. 5(a)).
    pub(crate) sync: Vec<bool>,
    pub(crate) label_targets: Vec<u32>,
}

impl Program {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Returns `true` when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction at `pc`, or `None` past the end.
    pub fn fetch(&self, pc: usize) -> Option<&Instr> {
        self.instrs.get(pc)
    }

    /// Whether the instruction at `pc` is inside a synchronization region.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn is_sync(&self, pc: usize) -> bool {
        self.sync[pc]
    }

    /// Resolves a label to its instruction index.
    ///
    /// # Panics
    ///
    /// Panics if the label does not belong to this program.
    pub fn target(&self, label: Label) -> usize {
        self.label_targets[label.0 as usize] as usize
    }

    /// Iterates over the instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instr> {
        self.instrs.iter()
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Instr;
    type IntoIter = std::slice::Iter<'a, Instr>;

    fn into_iter(self) -> Self::IntoIter {
        self.instrs.iter()
    }
}

#[cfg(test)]
mod tests {
    use crate::{ProgramBuilder, Reg};

    #[test]
    fn fetch_and_targets() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.li(Reg::new(1), 7);
        b.bind(l).unwrap();
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.target(l), 1);
        assert!(p.fetch(0).is_some());
        assert!(p.fetch(2).is_none());
        assert_eq!(p.iter().count(), 2);
    }

    #[test]
    fn sync_flags_recorded() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::new(1), 0);
        b.sync_on();
        b.li(Reg::new(2), 0);
        b.sync_off();
        b.halt();
        let p = b.build().unwrap();
        assert!(!p.is_sync(0));
        assert!(p.is_sync(1));
        assert!(!p.is_sync(2));
    }
}
