//! The kernel program representation.
//!
//! A [`Kernel`] is a list of statements over mutable 16-bit scalar
//! variables ([`VarId`]) and word-addressed arrays ([`ArrayId`]) that live
//! in cluster-local memory. Control flow is structured: counted loops
//! with compile-time trip counts (signal-processing kernels are dominated
//! by such loops) and two-armed conditionals. Predication is explicit —
//! any scalar statement may carry a [`Guard`].
//!
//! Arithmetic reuses the ISA's operation vocabulary so that lowering to
//! machine operations is one-to-one, with two deliberate exceptions:
//! [`Expr::MulWide`] is a *16×16* multiply that the lowering pass expands
//! into 8×8 partial products on machines without the wide multiplier, and
//! [`IndexExpr`] keeps address arithmetic symbolic so the lowering can
//! fold it into complex addressing modes where the machine has them.

use std::fmt;
use vsp_isa::{AluBinOp, AluUnOp, CmpOp, MulKind, ShiftOp};

/// A mutable 16-bit scalar variable (virtual register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A kernel-local array in cluster memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub u32);

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// A scalar operand: variable or constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rvalue {
    /// Read a variable.
    Var(VarId),
    /// A 16-bit constant.
    Const(i16),
}

impl From<VarId> for Rvalue {
    fn from(v: VarId) -> Self {
        Rvalue::Var(v)
    }
}

impl From<i16> for Rvalue {
    fn from(c: i16) -> Self {
        Rvalue::Const(c)
    }
}

impl fmt::Display for Rvalue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rvalue::Var(v) => write!(f, "{v}"),
            Rvalue::Const(c) => write!(f, "{c}"),
        }
    }
}

/// Symbolic array-index expression.
///
/// Kept symbolic (rather than forced through a scalar variable) so that
/// lowering can either emit an explicit address addition (simple-
/// addressing machines) or fold it into the memory operation (complex
/// addressing) — the exact tradeoff the `I4C8S4C`/`I4C8S5` models probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexExpr {
    /// A constant word address.
    Const(u16),
    /// The value of a variable.
    Var(VarId),
    /// Sum of two variables (maps to indexed addressing).
    Sum(VarId, VarId),
    /// Variable plus constant (maps to base+displacement addressing).
    Offset(VarId, i16),
}

impl IndexExpr {
    /// Variables read by the index computation.
    pub fn vars(self) -> impl Iterator<Item = VarId> {
        let (a, b) = self.var_pair();
        a.into_iter().chain(b)
    }

    /// The (at most two) variables of [`IndexExpr::vars`].
    fn var_pair(self) -> (Option<VarId>, Option<VarId>) {
        match self {
            IndexExpr::Const(_) => (None, None),
            IndexExpr::Var(v) | IndexExpr::Offset(v, _) => (Some(v), None),
            IndexExpr::Sum(v, w) => (Some(v), Some(w)),
        }
    }

    /// Whether lowering needs an address addition on simple-addressing
    /// machines.
    pub fn needs_addition(self) -> bool {
        matches!(self, IndexExpr::Sum(..) | IndexExpr::Offset(..))
    }
}

impl fmt::Display for IndexExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexExpr::Const(c) => write!(f, "{c}"),
            IndexExpr::Var(v) => write!(f, "{v}"),
            IndexExpr::Sum(v, w) => write!(f, "{v}+{w}"),
            IndexExpr::Offset(v, c) => write!(f, "{v}{c:+}"),
        }
    }
}

/// Right-hand side of an assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Two-operand ALU operation.
    Bin(AluBinOp, Rvalue, Rvalue),
    /// One-operand ALU operation (also moves/constants via `Mov`).
    Un(AluUnOp, Rvalue),
    /// Shift.
    Shift(ShiftOp, Rvalue, Rvalue),
    /// Full 16×16 multiply, truncating to 16 bits. Lowered to the wide
    /// multiplier on `M16` machines, decomposed into 8×8 partial products
    /// elsewhere (§3.4.3's "as many as 21 issue slots and at least 8
    /// cycles").
    MulWide(Rvalue, Rvalue),
    /// A primitive 8×8 multiply (for kernels written directly against the
    /// narrow multiplier, e.g. pixel arithmetic that fits in 8 bits).
    Mul8(MulKind, Rvalue, Rvalue),
    /// Comparison producing a predicate value (0/1) in the destination.
    Cmp(CmpOp, Rvalue, Rvalue),
    /// Load from an array.
    Load(ArrayId, IndexExpr),
}

impl Expr {
    /// Variables read by this expression, in operand order (at most
    /// two, yielded inline).
    pub fn uses(&self) -> impl Iterator<Item = VarId> {
        let var = |r: Rvalue| match r {
            Rvalue::Var(v) => Some(v),
            Rvalue::Const(_) => None,
        };
        let (a, b) = match *self {
            Expr::Bin(_, a, b)
            | Expr::Shift(_, a, b)
            | Expr::MulWide(a, b)
            | Expr::Mul8(_, a, b)
            | Expr::Cmp(_, a, b) => (var(a), var(b)),
            Expr::Un(_, a) => (var(a), None),
            Expr::Load(_, idx) => idx.var_pair(),
        };
        a.into_iter().chain(b)
    }

    /// Whether the expression has no side effects and depends only on its
    /// operands (not memory).
    pub fn is_pure_scalar(&self) -> bool {
        !matches!(self, Expr::Load(..))
    }
}

/// A predicate guard on a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guard {
    /// Guarding variable (holds a predicate value).
    pub var: VarId,
    /// Statement executes when the variable's truth equals this.
    pub sense: bool,
}

/// A counted loop.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Loop {
    /// Induction variable; takes `start`, `start+step`, ... over `trip`
    /// iterations.
    pub var: VarId,
    /// Initial induction value.
    pub start: i16,
    /// Induction step.
    pub step: i16,
    /// Trip count (compile-time constant; data-dependent loop bounds are
    /// modeled by the kernel recipes with measured average trip counts).
    pub trip: u32,
    /// Loop body.
    pub body: Vec<Stmt>,
}

/// A kernel statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// `dst = expr`, optionally guarded.
    Assign {
        /// Destination variable.
        dst: VarId,
        /// Right-hand side.
        expr: Expr,
        /// Optional predicate guard.
        guard: Option<Guard>,
    },
    /// `array[index] = value`, optionally guarded.
    Store {
        /// Target array.
        array: ArrayId,
        /// Index expression.
        index: IndexExpr,
        /// Stored value.
        value: Rvalue,
        /// Optional predicate guard.
        guard: Option<Guard>,
    },
    /// A counted loop.
    Loop(Loop),
    /// Two-armed conditional on a predicate variable.
    If {
        /// Condition variable (predicate value).
        cond: VarId,
        /// Statements executed when true.
        then_body: Vec<Stmt>,
        /// Statements executed when false.
        else_body: Vec<Stmt>,
    },
}

impl Stmt {
    /// Variable defined by this statement, for scalar statements.
    pub fn def(&self) -> Option<VarId> {
        match self {
            Stmt::Assign { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Variables read by this statement (scalar statements only; loops
    /// and ifs aggregate their bodies via [`Stmt::uses_recursive`]).
    pub fn uses(&self) -> Vec<VarId> {
        match self {
            Stmt::Assign { expr, guard, .. } => expr.uses().chain(guard.map(|g| g.var)).collect(),
            Stmt::Store {
                index,
                value,
                guard,
                ..
            } => {
                let mut u: Vec<VarId> = index.vars().collect();
                if let Rvalue::Var(v) = value {
                    u.push(*v);
                }
                if let Some(g) = guard {
                    u.push(g.var);
                }
                u
            }
            Stmt::Loop(_) | Stmt::If { .. } => Vec::new(),
        }
    }

    /// All variables read anywhere inside this statement, including loop
    /// and conditional bodies.
    pub fn uses_recursive(&self) -> Vec<VarId> {
        match self {
            Stmt::Loop(l) => l.body.iter().flat_map(Stmt::uses_recursive).collect(),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let mut u = vec![*cond];
                u.extend(then_body.iter().flat_map(Stmt::uses_recursive));
                u.extend(else_body.iter().flat_map(Stmt::uses_recursive));
                u
            }
            _ => self.uses(),
        }
    }

    /// Whether this statement tree contains any loop.
    pub fn has_loop(&self) -> bool {
        match self {
            Stmt::Loop(_) => true,
            Stmt::If {
                then_body,
                else_body,
                ..
            } => then_body.iter().any(Stmt::has_loop) || else_body.iter().any(Stmt::has_loop),
            _ => false,
        }
    }
}

/// Declaration of a kernel array.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayDecl {
    /// Human-readable name.
    pub name: String,
    /// Length in 16-bit words.
    pub len: u32,
}

/// A complete kernel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Kernel {
    /// Kernel name.
    pub name: String,
    /// Array declarations, indexed by [`ArrayId`].
    pub arrays: Vec<ArrayDecl>,
    /// Number of scalar variables (all [`VarId`]s are below this).
    pub var_count: u32,
    /// Variable names for diagnostics, indexed by [`VarId`].
    pub var_names: Vec<String>,
    /// Top-level statements.
    pub body: Vec<Stmt>,
}

impl Kernel {
    /// Total words of local memory the kernel's arrays require — the
    /// "working set" §4 discusses (never over 4 KB/cluster for these
    /// kernels).
    pub fn working_set_words(&self) -> u32 {
        self.arrays.iter().map(|a| a.len).sum()
    }

    /// Allocates a fresh variable (used by transforms that need
    /// temporaries).
    pub fn fresh_var(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId(self.var_count);
        self.var_count += 1;
        self.var_names.push(name.into());
        id
    }

    /// Count of scalar statements (assigns and stores), recursively.
    pub fn stmt_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::Loop(l) => count(&l.body),
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => 1 + count(then_body) + count(else_body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.body)
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kernel {} ({} stmts)", self.name, self.stmt_count())?;
        fn write_stmts(f: &mut fmt::Formatter<'_>, stmts: &[Stmt], indent: usize) -> fmt::Result {
            let pad = "  ".repeat(indent);
            for s in stmts {
                match s {
                    Stmt::Assign { dst, expr, guard } => {
                        write!(f, "{pad}")?;
                        if let Some(g) = guard {
                            write!(f, "({}{}) ", if g.sense { "" } else { "!" }, g.var)?;
                        }
                        writeln!(f, "{dst} = {expr:?}")?;
                    }
                    Stmt::Store {
                        array,
                        index,
                        value,
                        guard,
                    } => {
                        write!(f, "{pad}")?;
                        if let Some(g) = guard {
                            write!(f, "({}{}) ", if g.sense { "" } else { "!" }, g.var)?;
                        }
                        writeln!(f, "{array}[{index}] = {value}")?;
                    }
                    Stmt::Loop(l) => {
                        writeln!(
                            f,
                            "{pad}for {} = {}, step {}, {} times:",
                            l.var, l.start, l.step, l.trip
                        )?;
                        write_stmts(f, &l.body, indent + 1)?;
                    }
                    Stmt::If {
                        cond,
                        then_body,
                        else_body,
                    } => {
                        writeln!(f, "{pad}if {cond}:")?;
                        write_stmts(f, then_body, indent + 1)?;
                        if !else_body.is_empty() {
                            writeln!(f, "{pad}else:")?;
                            write_stmts(f, else_body, indent + 1)?;
                        }
                    }
                }
            }
            Ok(())
        }
        write_stmts(f, &self.body, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_uses() {
        let e = Expr::Bin(AluBinOp::Add, Rvalue::Var(VarId(1)), Rvalue::Const(3));
        assert_eq!(e.uses().collect::<Vec<_>>(), vec![VarId(1)]);
        let e = Expr::Load(ArrayId(0), IndexExpr::Sum(VarId(2), VarId(3)));
        assert_eq!(e.uses().collect::<Vec<_>>(), vec![VarId(2), VarId(3)]);
        assert!(!e.is_pure_scalar());
    }

    #[test]
    fn stmt_uses_include_guards() {
        let s = Stmt::Assign {
            dst: VarId(0),
            expr: Expr::Un(AluUnOp::Mov, Rvalue::Var(VarId(1))),
            guard: Some(Guard {
                var: VarId(2),
                sense: false,
            }),
        };
        assert_eq!(s.uses(), vec![VarId(1), VarId(2)]);
        assert_eq!(s.def(), Some(VarId(0)));
    }

    #[test]
    fn index_expr_classification() {
        assert!(!IndexExpr::Const(4).needs_addition());
        assert!(!IndexExpr::Var(VarId(0)).needs_addition());
        assert!(IndexExpr::Sum(VarId(0), VarId(1)).needs_addition());
        assert!(IndexExpr::Offset(VarId(0), -4).needs_addition());
    }

    #[test]
    fn working_set_accounting() {
        let k = Kernel {
            name: "t".into(),
            arrays: vec![
                ArrayDecl {
                    name: "a".into(),
                    len: 256,
                },
                ArrayDecl {
                    name: "b".into(),
                    len: 64,
                },
            ],
            var_count: 0,
            var_names: vec![],
            body: vec![],
        };
        assert_eq!(k.working_set_words(), 320);
    }

    #[test]
    fn has_loop_recurses_into_ifs() {
        let inner = Stmt::Loop(Loop {
            var: VarId(0),
            start: 0,
            step: 1,
            trip: 4,
            body: vec![],
        });
        let s = Stmt::If {
            cond: VarId(1),
            then_body: vec![inner],
            else_body: vec![],
        };
        assert!(s.has_loop());
    }
}
