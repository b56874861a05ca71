//! Operations: the atomic units that fill VLIW issue slots.

use crate::opcode::{AluBinOp, AluUnOp, CmpOp, FuClass, MemCtlOp, MulKind, ShiftOp};
use crate::operand::{AddrMode, MemBank, Operand};
use crate::reg::{ClusterId, Pred, Reg, SlotId};
use std::fmt;
use std::ops::Deref;

/// A predicate guard: the operation commits only when the named predicate
/// register holds `sense`.
///
/// All of the paper's machines support predicated execution; it is used
/// heavily by the if-converted kernel schedules (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredGuard {
    /// Guarding predicate register (cluster-local).
    pub pred: Pred,
    /// Required value of the predicate for the operation to commit.
    pub sense: bool,
}

impl PredGuard {
    /// Guard that commits when `pred` is true.
    pub fn if_true(pred: Pred) -> Self {
        PredGuard { pred, sense: true }
    }

    /// Guard that commits when `pred` is false.
    pub fn if_false(pred: Pred) -> Self {
        PredGuard { pred, sense: false }
    }
}

impl fmt::Display for PredGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sense {
            write!(f, "({})", self.pred)
        } else {
            write!(f, "(!{})", self.pred)
        }
    }
}

/// The semantic payload of an operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Two-operand ALU operation.
    AluBin {
        /// Which ALU operation.
        op: AluBinOp,
        /// Destination register.
        dst: Reg,
        /// First source.
        a: Operand,
        /// Second source.
        b: Operand,
    },
    /// One-operand ALU operation (including register/immediate moves).
    AluUn {
        /// Which unary operation.
        op: AluUnOp,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        a: Operand,
    },
    /// Shift operation on the cluster's shifter.
    Shift {
        /// Which shift.
        op: ShiftOp,
        /// Destination register.
        dst: Reg,
        /// Value to shift.
        a: Operand,
        /// Shift amount (low 4 bits used).
        b: Operand,
    },
    /// Multiply on the cluster's multiplier.
    Mul {
        /// Which multiply variant.
        kind: MulKind,
        /// Destination register.
        dst: Reg,
        /// First source.
        a: Operand,
        /// Second source.
        b: Operand,
    },
    /// Comparison writing a predicate register (executes on an ALU).
    Cmp {
        /// Which comparison.
        op: CmpOp,
        /// Destination predicate register.
        dst: Pred,
        /// First source.
        a: Operand,
        /// Second source.
        b: Operand,
    },
    /// Load a 16-bit word from the cluster's local data memory.
    Load {
        /// Destination register.
        dst: Reg,
        /// Effective-address computation.
        addr: AddrMode,
        /// Which local memory bank.
        bank: MemBank,
    },
    /// Store a 16-bit word to the cluster's local data memory.
    Store {
        /// Value to store.
        src: Operand,
        /// Effective-address computation.
        addr: AddrMode,
        /// Which local memory bank.
        bank: MemBank,
    },
    /// Inter-cluster transfer through the global crossbar: read `src` in
    /// cluster `from` and write it to `dst` in the executing cluster.
    Xfer {
        /// Destination register in the executing cluster.
        dst: Reg,
        /// Source cluster.
        from: ClusterId,
        /// Source register in cluster `from`.
        src: Reg,
    },
    /// Conditional branch on a predicate register in the executing
    /// cluster. Taken branches redirect fetch after the machine's branch
    /// delay slots.
    Branch {
        /// Tested predicate register.
        pred: Pred,
        /// Branch is taken when the predicate equals this value.
        sense: bool,
        /// Target instruction-word index.
        target: usize,
    },
    /// Unconditional jump.
    Jump {
        /// Target instruction-word index.
        target: usize,
    },
    /// Stop the machine; simulation ends when a halt commits.
    Halt,
    /// Memory-subsystem control.
    MemCtl {
        /// Which control action.
        op: MemCtlOp,
        /// Affected bank.
        bank: MemBank,
    },
    /// Explicit no-operation (an empty issue slot).
    Nop,
}

impl OpKind {
    /// The functional-unit class this operation occupies, or `None` for a
    /// no-op.
    pub fn fu_class(&self) -> Option<FuClass> {
        match self {
            OpKind::AluBin { .. } | OpKind::AluUn { .. } | OpKind::Cmp { .. } => Some(FuClass::Alu),
            OpKind::Shift { .. } => Some(FuClass::Shift),
            OpKind::Mul { .. } => Some(FuClass::Mul),
            OpKind::Load { .. } | OpKind::Store { .. } | OpKind::MemCtl { .. } => {
                Some(FuClass::Mem)
            }
            OpKind::Xfer { .. } => Some(FuClass::Xfer),
            OpKind::Branch { .. } | OpKind::Jump { .. } | OpKind::Halt => Some(FuClass::Branch),
            OpKind::Nop => None,
        }
    }

    /// The general register written by this operation, if any.
    pub fn def_reg(&self) -> Option<Reg> {
        match self {
            OpKind::AluBin { dst, .. }
            | OpKind::AluUn { dst, .. }
            | OpKind::Shift { dst, .. }
            | OpKind::Mul { dst, .. }
            | OpKind::Load { dst, .. }
            | OpKind::Xfer { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// The predicate register written by this operation, if any.
    pub fn def_pred(&self) -> Option<Pred> {
        match self {
            OpKind::Cmp { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// General registers read by this operation, in the executing cluster
    /// (excludes the remote source of an [`OpKind::Xfer`]), in operand
    /// order.
    pub fn use_regs(&self) -> UseRegs {
        let mut out = UseRegs {
            regs: [Reg(0); 3],
            len: 0,
        };
        let mut push = |o: &Operand| {
            if let Operand::Reg(r) = o {
                out.push(*r);
            }
        };
        match self {
            OpKind::AluBin { a, b, .. }
            | OpKind::Shift { a, b, .. }
            | OpKind::Mul { a, b, .. }
            | OpKind::Cmp { a, b, .. } => {
                push(a);
                push(b);
            }
            OpKind::AluUn { a, .. } => push(a),
            OpKind::Load { addr, .. } => addr.regs().for_each(|r| out.push(r)),
            OpKind::Store { src, addr, .. } => {
                push(src);
                addr.regs().for_each(|r| out.push(r));
            }
            OpKind::Xfer { .. }
            | OpKind::Branch { .. }
            | OpKind::Jump { .. }
            | OpKind::Halt
            | OpKind::MemCtl { .. }
            | OpKind::Nop => {}
        }
        out
    }

    /// Returns `true` if the operation accesses data memory.
    pub fn is_mem(&self) -> bool {
        matches!(self, OpKind::Load { .. } | OpKind::Store { .. })
    }

    /// Returns `true` if the operation can redirect control flow.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            OpKind::Branch { .. } | OpKind::Jump { .. } | OpKind::Halt
        )
    }
}

/// The general registers one operation reads in its own cluster, held
/// inline: at most three (a store's value and an indexed address's two
/// registers), so [`OpKind::use_regs`] allocates nothing. Dereferences
/// to the registers as a slice, in operand order.
#[derive(Debug, Clone, Copy)]
pub struct UseRegs {
    regs: [Reg; 3],
    len: u8,
}

impl UseRegs {
    fn push(&mut self, reg: Reg) {
        self.regs[usize::from(self.len)] = reg;
        self.len += 1;
    }

    /// The registers, in operand order.
    pub fn as_slice(&self) -> &[Reg] {
        &self.regs[..usize::from(self.len)]
    }
}

impl Deref for UseRegs {
    type Target = [Reg];

    fn deref(&self) -> &[Reg] {
        self.as_slice()
    }
}

impl IntoIterator for UseRegs {
    type Item = Reg;
    type IntoIter = std::iter::Take<std::array::IntoIter<Reg, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().take(usize::from(self.len))
    }
}

/// An operation placed in a specific issue slot of a specific cluster
/// within one VLIW instruction word.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Operation {
    /// Cluster the operation executes in.
    pub cluster: ClusterId,
    /// Issue slot within the cluster.
    pub slot: SlotId,
    /// Optional predicate guard.
    pub guard: Option<PredGuard>,
    /// Semantic payload.
    pub kind: OpKind,
}

impl Operation {
    /// Creates an unguarded operation for the given cluster and slot.
    pub fn new(cluster: ClusterId, slot: SlotId, kind: OpKind) -> Self {
        Operation {
            cluster,
            slot,
            guard: None,
            kind,
        }
    }

    /// Creates a predicated operation.
    pub fn guarded(cluster: ClusterId, slot: SlotId, guard: PredGuard, kind: OpKind) -> Self {
        Operation {
            cluster,
            slot,
            guard: Some(guard),
            kind,
        }
    }

    /// The functional-unit class occupied (see [`OpKind::fu_class`]).
    pub fn fu_class(&self) -> Option<FuClass> {
        self.kind.fu_class()
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}.s{}:", self.cluster, self.slot)?;
        if let Some(g) = &self.guard {
            write!(f, " {g}")?;
        }
        match &self.kind {
            OpKind::AluBin { op, dst, a, b } => write!(f, " {op} {dst}, {a}, {b}"),
            OpKind::AluUn { op, dst, a } => write!(f, " {op} {dst}, {a}"),
            OpKind::Shift { op, dst, a, b } => write!(f, " {op} {dst}, {a}, {b}"),
            OpKind::Mul { kind, dst, a, b } => write!(f, " {kind} {dst}, {a}, {b}"),
            OpKind::Cmp { op, dst, a, b } => write!(f, " cmp.{op} {dst}, {a}, {b}"),
            OpKind::Load { dst, addr, bank } => write!(f, " ld.{bank} {dst}, {addr}"),
            OpKind::Store { src, addr, bank } => write!(f, " st.{bank} {src}, {addr}"),
            OpKind::Xfer { dst, from, src } => write!(f, " xfer {dst}, c{from}.{src}"),
            OpKind::Branch {
                pred,
                sense,
                target,
            } => {
                if *sense {
                    write!(f, " br {pred}, @{target}")
                } else {
                    write!(f, " br !{pred}, @{target}")
                }
            }
            OpKind::Jump { target } => write!(f, " jmp @{target}"),
            OpKind::Halt => write!(f, " halt"),
            OpKind::MemCtl { op, bank } => write!(f, " {op}.{bank}"),
            OpKind::Nop => write!(f, " nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_op() -> OpKind {
        OpKind::AluBin {
            op: AluBinOp::Add,
            dst: Reg(3),
            a: Operand::Reg(Reg(1)),
            b: Operand::Imm(7),
        }
    }

    #[test]
    fn def_and_use_sets() {
        let k = add_op();
        assert_eq!(k.def_reg(), Some(Reg(3)));
        assert_eq!(k.def_pred(), None);
        assert_eq!(k.use_regs().as_slice(), [Reg(1)]);
    }

    #[test]
    fn store_uses_value_and_address_regs() {
        let k = OpKind::Store {
            src: Operand::Reg(Reg(2)),
            addr: AddrMode::Indexed(Reg(4), Reg(5)),
            bank: MemBank(0),
        };
        assert_eq!(k.def_reg(), None);
        assert_eq!(k.use_regs().as_slice(), [Reg(2), Reg(4), Reg(5)]);
        assert_eq!(
            k.use_regs().into_iter().collect::<Vec<_>>(),
            [Reg(2), Reg(4), Reg(5)]
        );
        assert!(k.is_mem());
    }

    #[test]
    fn cmp_defines_predicate() {
        let k = OpKind::Cmp {
            op: CmpOp::Lt,
            dst: Pred(1),
            a: Operand::Reg(Reg(0)),
            b: Operand::Imm(10),
        };
        assert_eq!(k.def_pred(), Some(Pred(1)));
        assert_eq!(k.def_reg(), None);
        assert_eq!(k.fu_class(), Some(FuClass::Alu));
    }

    #[test]
    fn fu_classes() {
        assert_eq!(add_op().fu_class(), Some(FuClass::Alu));
        assert_eq!(OpKind::Nop.fu_class(), None);
        assert_eq!(OpKind::Halt.fu_class(), Some(FuClass::Branch));
        let x = OpKind::Xfer {
            dst: Reg(0),
            from: 3,
            src: Reg(9),
        };
        assert_eq!(x.fu_class(), Some(FuClass::Xfer));
        assert_eq!(x.def_reg(), Some(Reg(0)));
        assert!(x.use_regs().is_empty(), "remote source is not a local use");
    }

    #[test]
    fn display_round_readable() {
        let op = Operation::guarded(
            2,
            1,
            PredGuard::if_false(Pred(0)),
            OpKind::AluBin {
                op: AluBinOp::Sub,
                dst: Reg(9),
                a: Operand::Reg(Reg(1)),
                b: Operand::Reg(Reg(2)),
            },
        );
        assert_eq!(op.to_string(), "c2.s1: (!p0) sub r9, r1, r2");
    }

    #[test]
    fn control_ops_flagged() {
        assert!(OpKind::Jump { target: 0 }.is_control());
        assert!(OpKind::Halt.is_control());
        assert!(!add_op().is_control());
    }
}
