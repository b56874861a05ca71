//! VLIW instruction words.

use crate::op::{OpKind, Operation};
use crate::reg::{ClusterId, SlotId};
use std::fmt;

/// One very long instruction word: the set of operations that issue
/// together in a single cycle, at most one per (cluster, slot) pair.
///
/// Slots not mentioned are implicit no-ops, matching the paper's
/// horizontally microcoded encoding where every issue slot is always
/// specified but idle slots perform no work.
#[derive(Debug, Clone, Default)]
pub struct Instruction {
    ops: Vec<Operation>,
}

impl PartialEq for Instruction {
    /// Slot order within a word is not semantically meaningful (all
    /// operations issue together), so equality compares canonical
    /// (cluster, slot)-sorted operation lists.
    fn eq(&self, other: &Self) -> bool {
        fn key(i: &Instruction) -> Vec<&Operation> {
            let mut v: Vec<&Operation> = i.ops.iter().collect();
            v.sort_by_key(|o| (o.cluster, o.slot));
            v
        }
        key(self) == key(other)
    }
}

impl Eq for Instruction {}

impl Instruction {
    /// Creates an empty instruction word (all slots no-op).
    pub fn new() -> Self {
        Instruction::default()
    }

    /// Creates an instruction word from a list of operations.
    ///
    /// # Panics
    ///
    /// Panics if two operations occupy the same (cluster, slot) pair.
    pub fn from_ops(ops: Vec<Operation>) -> Self {
        let mut w = Instruction {
            ops: Vec::with_capacity(ops.len()),
        };
        for op in ops {
            w.push(op);
        }
        w
    }

    /// Adds an operation to the word.
    ///
    /// # Panics
    ///
    /// Panics if the (cluster, slot) pair is already occupied by a
    /// non-no-op operation.
    pub fn push(&mut self, op: Operation) {
        if matches!(op.kind, OpKind::Nop) {
            return;
        }
        assert!(
            self.at(op.cluster, op.slot).is_none(),
            "slot c{}.s{} already occupied",
            op.cluster,
            op.slot
        );
        self.ops.push(op);
    }

    /// The operation in the given slot, if any.
    pub fn at(&self, cluster: ClusterId, slot: SlotId) -> Option<&Operation> {
        self.ops
            .iter()
            .find(|o| o.cluster == cluster && o.slot == slot)
    }

    /// Iterates over the non-no-op operations of this word.
    pub fn iter(&self) -> impl Iterator<Item = &Operation> {
        self.ops.iter()
    }

    /// Number of non-no-op operations in this word.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if no slot performs work.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Returns `true` if any operation in the word can redirect control
    /// flow.
    pub fn has_control(&self) -> bool {
        self.ops.iter().any(|o| o.kind.is_control())
    }
}

impl FromIterator<Operation> for Instruction {
    fn from_iter<T: IntoIterator<Item = Operation>>(iter: T) -> Self {
        Instruction::from_ops(iter.into_iter().collect())
    }
}

impl Extend<Operation> for Instruction {
    fn extend<T: IntoIterator<Item = Operation>>(&mut self, iter: T) {
        for op in iter {
            self.push(op);
        }
    }
}

impl<'a> IntoIterator for &'a Instruction {
    type Item = &'a Operation;
    type IntoIter = std::slice::Iter<'a, Operation>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ops.is_empty() {
            return f.write_str("nop");
        }
        let mut sorted: Vec<&Operation> = self.ops.iter().collect();
        sorted.sort_by_key(|o| (o.cluster, o.slot));
        for (i, op) in sorted.iter().enumerate() {
            if i > 0 {
                f.write_str(" | ")?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::AluBinOp;
    use crate::operand::Operand;
    use crate::reg::Reg;

    fn add(cluster: ClusterId, slot: SlotId, dst: u16) -> Operation {
        Operation::new(
            cluster,
            slot,
            OpKind::AluBin {
                op: AluBinOp::Add,
                dst: Reg(dst),
                a: Operand::Reg(Reg(0)),
                b: Operand::Imm(1),
            },
        )
    }

    #[test]
    fn push_and_lookup() {
        let mut w = Instruction::new();
        assert!(w.is_empty());
        w.push(add(0, 0, 1));
        w.push(add(1, 3, 2));
        assert_eq!(w.op_count(), 2);
        assert!(w.at(0, 0).is_some());
        assert!(w.at(1, 3).is_some());
        assert!(w.at(0, 1).is_none());
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn duplicate_slot_panics() {
        let mut w = Instruction::new();
        w.push(add(0, 0, 1));
        w.push(add(0, 0, 2));
    }

    #[test]
    fn nops_are_dropped() {
        let mut w = Instruction::new();
        w.push(Operation::new(0, 0, OpKind::Nop));
        assert!(w.is_empty());
        assert_eq!(w.to_string(), "nop");
    }

    #[test]
    fn collect_from_iterator() {
        let w: Instruction = vec![add(0, 0, 1), add(0, 1, 2)].into_iter().collect();
        assert_eq!(w.op_count(), 2);
    }

    #[test]
    fn control_detection() {
        let mut w = Instruction::new();
        w.push(add(0, 0, 1));
        assert!(!w.has_control());
        w.push(Operation::new(0, 3, OpKind::Jump { target: 7 }));
        assert!(w.has_control());
    }

    #[test]
    fn display_sorts_by_cluster_then_slot() {
        let mut w = Instruction::new();
        w.push(add(1, 0, 2));
        w.push(add(0, 1, 1));
        let s = w.to_string();
        let c0 = s.find("c0.s1").unwrap();
        let c1 = s.find("c1.s0").unwrap();
        assert!(c0 < c1);
    }
}
