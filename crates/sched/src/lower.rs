//! Lowering from flat IR bodies to virtual machine operations.
//!
//! This is where the datapath models' ISA differences become visible in
//! the operation stream, exactly as §3.4 describes:
//!
//! * **addressing** — on simple-addressing machines every `base+index`
//!   access costs an explicit ALU addition; complex-addressing machines
//!   fold it into the load/store ("the address calculations can be
//!   incorporated into the load operations");
//! * **multiplies** — `MulWide` becomes one `Mul16Lo` on `M16` machines
//!   and a tree of 8×8 partial products, shifts and adds elsewhere (the
//!   DCT bottleneck of Table 2); a small-constant operand shrinks the
//!   tree, which is the paper's "aggressive numerical analysis" lever;
//! * **absolute difference** — `AbsDiff` is a single ALU operation on
//!   machines fitted with the special operator and a subtract + absolute
//!   pair elsewhere (the "Add spec. op" rows);
//! * **predicates** — IR predicate variables become hardware predicate
//!   registers; predicate values used arithmetically are materialized as
//!   0/1 words, and word values used as guards grow a `cmp.ne`.

use crate::vop::{LoweredBody, VOp};
use std::collections::{HashMap, HashSet};
use std::fmt;
use vsp_core::{Addressing, MachineConfig, MulWidth};
use vsp_ir::{Expr, IndexExpr, Kernel, Rvalue, Stmt, VarId};
use vsp_isa::{
    AddrMode, AluBinOp, AluUnOp, CmpOp, MemBank, MulKind, OpKind, Operand, Pred, PredGuard, Reg,
    ShiftOp,
};

/// Placement of each kernel array in cluster-local memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayLayout {
    /// `(bank, base word address)` per [`vsp_ir::ArrayId`].
    pub entries: Vec<(MemBank, u16)>,
}

impl ArrayLayout {
    /// Packs the kernel's arrays into the machine's banks: sequentially
    /// into bank 0 on single-bank machines, round-robin across banks on
    /// multi-bank machines (spreading load bandwidth, as the `I2C16S4`
    /// schedules do).
    ///
    /// # Errors
    ///
    /// Returns [`LowerError::ArraysDoNotFit`] if any bank overflows.
    pub fn contiguous(kernel: &Kernel, machine: &MachineConfig) -> Result<Self, LowerError> {
        let banks = machine.cluster.banks.len().max(1);
        let mut next: Vec<u32> = vec![0; banks];
        let mut entries = Vec::with_capacity(kernel.arrays.len());
        for (i, a) in kernel.arrays.iter().enumerate() {
            // Choose the bank with the most free space (round-robin-ish
            // while respecting sizes).
            let bank = (0..banks)
                .min_by_key(|&b| next[b] + if i % banks == b { 0 } else { 1 })
                .unwrap_or(0); // banks >= 1 by construction
            let base = next[bank];
            let cap = machine.cluster.banks[bank].words;
            if base + a.len > cap {
                return Err(LowerError::ArraysDoNotFit {
                    array: a.name.clone(),
                    bank: bank as u8,
                    needed: base + a.len,
                    capacity: cap,
                });
            }
            entries.push((MemBank(bank as u8), base as u16));
            next[bank] = base + a.len;
        }
        Ok(ArrayLayout { entries })
    }

    fn of(&self, array: vsp_ir::ArrayId) -> (MemBank, u16) {
        self.entries[array.0 as usize]
    }
}

/// Errors produced by lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// The body still contains structured control flow.
    NotFlat,
    /// A kernel array does not fit the machine's local memory.
    ArraysDoNotFit {
        /// Array name.
        array: String,
        /// Overflowing bank.
        bank: u8,
        /// Words needed in that bank.
        needed: u32,
        /// Bank capacity in words.
        capacity: u32,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::NotFlat => {
                f.write_str("body contains loops or conditionals; flatten first")
            }
            LowerError::ArraysDoNotFit {
                array,
                bank,
                needed,
                capacity,
            } => write!(
                f,
                "array `{array}` overflows bank m{bank} ({needed} words > {capacity})"
            ),
        }
    }
}

impl std::error::Error for LowerError {}

/// Lowers a flat body to virtual operations for `machine`.
///
/// # Errors
///
/// Returns [`LowerError::NotFlat`] for structured bodies.
pub fn lower_body(
    machine: &MachineConfig,
    kernel: &Kernel,
    body: &[Stmt],
    layout: &ArrayLayout,
) -> Result<LoweredBody, LowerError> {
    for s in body {
        if !matches!(s, Stmt::Assign { .. } | Stmt::Store { .. }) {
            return Err(LowerError::NotFlat);
        }
    }
    let mut ctx = Lowering::new(machine, kernel, body, layout);
    for (i, s) in body.iter().enumerate() {
        ctx.lower_stmt(i, s);
    }
    Ok(ctx.finish())
}

struct Lowering<'a> {
    machine: &'a MachineConfig,
    layout: &'a ArrayLayout,
    ops: Vec<VOp>,
    /// Word register of each IR variable (allocated lazily).
    word_of: HashMap<VarId, u16>,
    /// Predicate register of each guard-capable variable.
    pred_of: HashMap<VarId, u8>,
    /// Variables used as guards anywhere in the body.
    guard_used: HashSet<VarId>,
    /// Variables read in any arithmetic position.
    arith_used: HashSet<VarId>,
    next_vreg: u16,
    next_vpred: u8,
}

impl<'a> Lowering<'a> {
    fn new(
        machine: &'a MachineConfig,
        kernel: &'a Kernel,
        body: &[Stmt],
        layout: &'a ArrayLayout,
    ) -> Self {
        let _ = kernel;
        // A variable may be both guard- and arith-used (e.g. combined
        // predicates built with AND), so the two sets are independent.
        let mut guard_used = HashSet::new();
        let mut arith_used = HashSet::new();
        for s in body {
            match s {
                Stmt::Assign { expr, guard, .. } => {
                    arith_used.extend(expr.uses());
                    guard_used.extend(guard.map(|g| g.var));
                }
                Stmt::Store {
                    index,
                    value,
                    guard,
                    ..
                } => {
                    arith_used.extend(index.vars());
                    if let Rvalue::Var(v) = value {
                        arith_used.insert(*v);
                    }
                    guard_used.extend(guard.map(|g| g.var));
                }
                _ => {}
            }
        }
        Lowering {
            machine,
            layout,
            ops: Vec::new(),
            word_of: HashMap::new(),
            pred_of: HashMap::new(),
            guard_used,
            arith_used,
            next_vreg: 0,
            next_vpred: 0,
        }
    }

    fn word(&mut self, v: VarId) -> Reg {
        let next = &mut self.next_vreg;
        let id = *self.word_of.entry(v).or_insert_with(|| {
            let r = *next;
            *next += 1;
            r
        });
        Reg(id)
    }

    fn pred(&mut self, v: VarId) -> Pred {
        let next = &mut self.next_vpred;
        let id = *self.pred_of.entry(v).or_insert_with(|| {
            let p = *next;
            *next += 1;
            p
        });
        Pred(id)
    }

    fn temp(&mut self) -> Reg {
        let r = Reg(self.next_vreg);
        self.next_vreg += 1;
        r
    }

    fn rvalue(&mut self, r: Rvalue) -> Operand {
        match r {
            Rvalue::Var(v) => Operand::Reg(self.word(v)),
            Rvalue::Const(c) => Operand::Imm(c),
        }
    }

    fn emit(&mut self, src_stmt: usize, guard: Option<PredGuard>, kind: OpKind) {
        self.ops.push(VOp {
            kind,
            guard,
            src_stmt,
        });
    }

    fn guard_of(&mut self, g: &Option<vsp_ir::Guard>) -> Option<PredGuard> {
        g.as_ref().map(|g| PredGuard {
            pred: self.pred(g.var),
            sense: g.sense,
        })
    }

    /// Lowers an index expression to an addressing mode, emitting address
    /// arithmetic as needed.
    fn addr(&mut self, src: usize, index: IndexExpr, base: u16) -> AddrMode {
        let complex = self.machine.addressing == Addressing::Complex;
        match index {
            IndexExpr::Const(c) => AddrMode::Absolute(base.wrapping_add(c)),
            IndexExpr::Var(v) => {
                let r = self.word(v);
                if base == 0 {
                    AddrMode::Register(r)
                } else if complex {
                    AddrMode::BaseDisp(r, base as i16)
                } else {
                    let t = self.temp();
                    self.emit(
                        src,
                        None,
                        OpKind::AluBin {
                            op: AluBinOp::Add,
                            dst: t,
                            a: Operand::Reg(r),
                            b: Operand::Imm(base as i16),
                        },
                    );
                    AddrMode::Register(t)
                }
            }
            IndexExpr::Offset(v, c) => {
                let r = self.word(v);
                let disp = (base as i16).wrapping_add(c);
                if complex {
                    AddrMode::BaseDisp(r, disp)
                } else if disp == 0 {
                    AddrMode::Register(r)
                } else {
                    let t = self.temp();
                    self.emit(
                        src,
                        None,
                        OpKind::AluBin {
                            op: AluBinOp::Add,
                            dst: t,
                            a: Operand::Reg(r),
                            b: Operand::Imm(disp),
                        },
                    );
                    AddrMode::Register(t)
                }
            }
            IndexExpr::Sum(v, w) => {
                let rv = self.word(v);
                let rw = self.word(w);
                if complex && base == 0 {
                    AddrMode::Indexed(rv, rw)
                } else {
                    let t = self.temp();
                    self.emit(
                        src,
                        None,
                        OpKind::AluBin {
                            op: AluBinOp::Add,
                            dst: t,
                            a: Operand::Reg(rv),
                            b: Operand::Reg(rw),
                        },
                    );
                    if base == 0 {
                        AddrMode::Register(t)
                    } else if complex {
                        AddrMode::BaseDisp(t, base as i16)
                    } else {
                        let t2 = self.temp();
                        self.emit(
                            src,
                            None,
                            OpKind::AluBin {
                                op: AluBinOp::Add,
                                dst: t2,
                                a: Operand::Reg(t),
                                b: Operand::Imm(base as i16),
                            },
                        );
                        AddrMode::Register(t2)
                    }
                }
            }
        }
    }

    fn lower_stmt(&mut self, i: usize, stmt: &Stmt) {
        match stmt {
            Stmt::Assign { dst, expr, guard } => {
                let g = self.guard_of(guard);
                self.lower_assign(i, *dst, expr, g);
                // Word values used as guards must exist as predicates.
                if self.guard_used.contains(dst) && !matches!(expr, Expr::Cmp(..)) {
                    let w = self.word(*dst);
                    let p = self.pred(*dst);
                    self.emit(
                        i,
                        g,
                        OpKind::Cmp {
                            op: CmpOp::Ne,
                            dst: p,
                            a: Operand::Reg(w),
                            b: Operand::Imm(0),
                        },
                    );
                }
            }
            Stmt::Store {
                array,
                index,
                value,
                guard,
            } => {
                let g = self.guard_of(guard);
                let (bank, base) = self.layout.of(*array);
                let bank = self.effective_bank(bank);
                let addr = self.addr(i, *index, base);
                let src = self.rvalue(*value);
                self.emit(i, g, OpKind::Store { src, addr, bank });
            }
            _ => unreachable!("checked flat in lower_body"),
        }
    }

    /// On multi-bank machines the layout's bank is kept, whatever the
    /// binding: per-slot machines need it architecturally, and
    /// any-slot machines spread load bandwidth across their banks. A
    /// single-bank machine uses bank 0.
    fn effective_bank(&self, bank: MemBank) -> MemBank {
        if self.machine.cluster.banks.len() > 1 {
            bank
        } else {
            MemBank(0)
        }
    }

    fn lower_assign(&mut self, i: usize, dst: VarId, expr: &Expr, g: Option<PredGuard>) {
        match expr {
            Expr::Bin(op, a, b) => {
                let a = self.rvalue(*a);
                let b = self.rvalue(*b);
                let d = self.word(dst);
                if *op == AluBinOp::AbsDiff && !self.machine.has_absdiff {
                    // Expand: d = |a - b| as subtract + absolute value.
                    let t = self.temp();
                    self.emit(
                        i,
                        None,
                        OpKind::AluBin {
                            op: AluBinOp::Sub,
                            dst: t,
                            a,
                            b,
                        },
                    );
                    self.emit(
                        i,
                        g,
                        OpKind::AluUn {
                            op: AluUnOp::Abs,
                            dst: d,
                            a: Operand::Reg(t),
                        },
                    );
                } else {
                    self.emit(
                        i,
                        g,
                        OpKind::AluBin {
                            op: *op,
                            dst: d,
                            a,
                            b,
                        },
                    );
                }
            }
            Expr::Un(op, a) => {
                let a = self.rvalue(*a);
                let d = self.word(dst);
                self.emit(i, g, OpKind::AluUn { op: *op, dst: d, a });
            }
            Expr::Shift(op, a, b) => {
                let a = self.rvalue(*a);
                let b = self.rvalue(*b);
                let d = self.word(dst);
                self.emit(
                    i,
                    g,
                    OpKind::Shift {
                        op: *op,
                        dst: d,
                        a,
                        b,
                    },
                );
            }
            Expr::Mul8(kind, a, b) => {
                let a = self.rvalue(*a);
                let b = self.rvalue(*b);
                let d = self.word(dst);
                self.emit(
                    i,
                    g,
                    OpKind::Mul {
                        kind: *kind,
                        dst: d,
                        a,
                        b,
                    },
                );
            }
            Expr::MulWide(a, b) => self.lower_mulwide(i, dst, *a, *b, g),
            Expr::Cmp(op, a, b) => {
                let a = self.rvalue(*a);
                let b = self.rvalue(*b);
                let p = self.pred(dst);
                self.emit(
                    i,
                    g,
                    OpKind::Cmp {
                        op: *op,
                        dst: p,
                        a,
                        b,
                    },
                );
                if self.arith_used.contains(&dst) {
                    // Materialize 0/1 into the word register.
                    let w = self.word(dst);
                    self.emit(
                        i,
                        g,
                        OpKind::AluUn {
                            op: AluUnOp::Mov,
                            dst: w,
                            a: Operand::Imm(0),
                        },
                    );
                    self.emit(
                        i,
                        Some(PredGuard::if_true(p)),
                        OpKind::AluUn {
                            op: AluUnOp::Mov,
                            dst: w,
                            a: Operand::Imm(1),
                        },
                    );
                }
            }
            Expr::Load(array, index) => {
                let (bank, base) = self.layout.of(*array);
                let bank = self.effective_bank(bank);
                let addr = self.addr(i, *index, base);
                let d = self.word(dst);
                self.emit(i, g, OpKind::Load { dst: d, addr, bank });
            }
        }
    }

    /// Lowers a full 16×16 multiply.
    fn lower_mulwide(&mut self, i: usize, dst: VarId, a: Rvalue, b: Rvalue, g: Option<PredGuard>) {
        if self.machine.mul_width == MulWidth::Sixteen {
            let a = self.rvalue(a);
            let b = self.rvalue(b);
            let d = self.word(dst);
            self.emit(
                i,
                g,
                OpKind::Mul {
                    kind: MulKind::Mul16Lo,
                    dst: d,
                    a,
                    b,
                },
            );
            return;
        }
        // Small-constant operand: 6-op decomposition (the paper's
        // numerical-analysis savings come from keeping coefficients in 8
        // bits).
        let small = |r: Rvalue| matches!(r, Rvalue::Const(c) if (-128..=127).contains(&c));
        let (value, konst) = if small(b) {
            (a, b)
        } else if small(a) {
            (b, a)
        } else {
            self.lower_mulwide_general(i, dst, a, b, g);
            return;
        };
        let Rvalue::Const(c) = konst else {
            unreachable!()
        };
        let v = self.rvalue(value);
        let al = self.temp();
        let ah = self.temp();
        let p1 = self.temp();
        let p2 = self.temp();
        let hi = self.temp();
        let d = self.word(dst);
        self.emit(
            i,
            None,
            OpKind::AluUn {
                op: AluUnOp::ZextB,
                dst: al,
                a: v,
            },
        );
        self.emit(
            i,
            None,
            OpKind::Shift {
                op: ShiftOp::ShrA,
                dst: ah,
                a: v,
                b: Operand::Imm(8),
            },
        );
        // p1 = c (signed byte) × al (unsigned byte)
        self.emit(
            i,
            None,
            OpKind::Mul {
                kind: MulKind::Mul8SU,
                dst: p1,
                a: Operand::Imm(c),
                b: Operand::Reg(al),
            },
        );
        // p2 = ah (signed byte) × c (signed byte)
        self.emit(
            i,
            None,
            OpKind::Mul {
                kind: MulKind::Mul8SS,
                dst: p2,
                a: Operand::Reg(ah),
                b: Operand::Imm(c),
            },
        );
        self.emit(
            i,
            None,
            OpKind::Shift {
                op: ShiftOp::Shl,
                dst: hi,
                a: Operand::Reg(p2),
                b: Operand::Imm(8),
            },
        );
        self.emit(
            i,
            g,
            OpKind::AluBin {
                op: AluBinOp::Add,
                dst: d,
                a: Operand::Reg(p1),
                b: Operand::Reg(hi),
            },
        );
    }

    /// General 16×16 via three 8×8 partial products (10 operations),
    /// mirroring [`vsp_isa::semantics::mul16_via_mul8`].
    fn lower_mulwide_general(
        &mut self,
        i: usize,
        dst: VarId,
        a: Rvalue,
        b: Rvalue,
        g: Option<PredGuard>,
    ) {
        let av = self.rvalue(a);
        let bv = self.rvalue(b);
        let al = self.temp();
        let bl = self.temp();
        let ah = self.temp();
        let bh = self.temp();
        let low = self.temp();
        let c1 = self.temp();
        let c2 = self.temp();
        let cr = self.temp();
        let cs = self.temp();
        let d = self.word(dst);
        self.emit(
            i,
            None,
            OpKind::AluUn {
                op: AluUnOp::ZextB,
                dst: al,
                a: av,
            },
        );
        self.emit(
            i,
            None,
            OpKind::AluUn {
                op: AluUnOp::ZextB,
                dst: bl,
                a: bv,
            },
        );
        self.emit(
            i,
            None,
            OpKind::Shift {
                op: ShiftOp::ShrL,
                dst: ah,
                a: av,
                b: Operand::Imm(8),
            },
        );
        self.emit(
            i,
            None,
            OpKind::Shift {
                op: ShiftOp::ShrL,
                dst: bh,
                a: bv,
                b: Operand::Imm(8),
            },
        );
        self.emit(
            i,
            None,
            OpKind::Mul {
                kind: MulKind::Mul8UU,
                dst: low,
                a: Operand::Reg(al),
                b: Operand::Reg(bl),
            },
        );
        self.emit(
            i,
            None,
            OpKind::Mul {
                kind: MulKind::Mul8SU,
                dst: c1,
                a: Operand::Reg(ah),
                b: Operand::Reg(bl),
            },
        );
        self.emit(
            i,
            None,
            OpKind::Mul {
                kind: MulKind::Mul8SU,
                dst: c2,
                a: Operand::Reg(bh),
                b: Operand::Reg(al),
            },
        );
        self.emit(
            i,
            None,
            OpKind::AluBin {
                op: AluBinOp::Add,
                dst: cr,
                a: Operand::Reg(c1),
                b: Operand::Reg(c2),
            },
        );
        self.emit(
            i,
            None,
            OpKind::Shift {
                op: ShiftOp::Shl,
                dst: cs,
                a: Operand::Reg(cr),
                b: Operand::Imm(8),
            },
        );
        self.emit(
            i,
            g,
            OpKind::AluBin {
                op: AluBinOp::Add,
                dst: d,
                a: Operand::Reg(low),
                b: Operand::Reg(cs),
            },
        );
    }

    fn finish(self) -> LoweredBody {
        LoweredBody {
            ops: self.ops,
            vregs: self.next_vreg,
            vpreds: self.next_vpred,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsp_core::models;
    use vsp_ir::KernelBuilder;
    use vsp_isa::FuClass;

    /// SAD inner-loop body: two loads, absolute difference, accumulate.
    fn sad_body() -> (Kernel, Vec<Stmt>) {
        let mut b = KernelBuilder::new("sad");
        let cur = b.array("cur", 256);
        let refa = b.array("ref", 256);
        let i = b.var("i");
        let acc = b.var("acc");
        let x = b.load("x", cur, i);
        let y = b.load("y", refa, i);
        let d = b.bin_new("d", AluBinOp::AbsDiff, x, y);
        b.bin(acc, AluBinOp::Add, acc, d);
        let k = b.finish();
        let body = k.body.clone();
        (k, body)
    }

    #[test]
    fn simple_addressing_costs_no_adds_for_plain_vars() {
        let m = models::i4c8s4();
        let (k, body) = sad_body();
        let layout = ArrayLayout::contiguous(&k, &m).unwrap();
        let lowered = lower_body(&m, &k, &body, &layout).unwrap();
        // cur at base 0: plain register-indirect; ref at base 256: needs
        // an add on the simple machine. AbsDiff expands to sub+abs.
        assert_eq!(lowered.count_class(FuClass::Mem), 2);
        let alu = lowered.count_class(FuClass::Alu);
        assert_eq!(
            alu, 4,
            "1 address add + sub + abs + accumulate: {lowered:?}"
        );
    }

    #[test]
    fn complex_addressing_folds_the_add() {
        let m = models::i4c8s5();
        let (k, body) = sad_body();
        let layout = ArrayLayout::contiguous(&k, &m).unwrap();
        let lowered = lower_body(&m, &k, &body, &layout).unwrap();
        assert_eq!(lowered.count_class(FuClass::Alu), 3, "sub + abs + acc only");
        assert!(lowered.ops.iter().any(|o| matches!(
            o.kind,
            OpKind::Load {
                addr: AddrMode::BaseDisp(..),
                ..
            }
        )));
    }

    #[test]
    fn absdiff_operator_fuses() {
        let m = models::with_absdiff(models::i4c8s4());
        let (k, body) = sad_body();
        let layout = ArrayLayout::contiguous(&k, &m).unwrap();
        let lowered = lower_body(&m, &k, &body, &layout).unwrap();
        assert_eq!(
            lowered.count_class(FuClass::Alu),
            3,
            "absd + add + addr add"
        );
        assert!(lowered.ops.iter().any(|o| matches!(
            o.kind,
            OpKind::AluBin {
                op: AluBinOp::AbsDiff,
                ..
            }
        )));
    }

    #[test]
    fn per_slot_banking_spreads_arrays() {
        let m = models::i2c16s4();
        let (k, body) = sad_body();
        let layout = ArrayLayout::contiguous(&k, &m).unwrap();
        let lowered = lower_body(&m, &k, &body, &layout).unwrap();
        assert_eq!(lowered.count_bank(0), 1);
        assert_eq!(lowered.count_bank(1), 1);
    }

    #[test]
    fn mulwide_on_m16_is_single_op() {
        let m = models::i4c8s5m16();
        let mut b = KernelBuilder::new("t");
        let x = b.var("x");
        let y = b.var("y");
        let _z = b.mul_new("z", x, y);
        let k = b.finish();
        let layout = ArrayLayout::contiguous(&k, &m).unwrap();
        let lowered = lower_body(&m, &k, &k.body, &layout).unwrap();
        assert_eq!(lowered.ops.len(), 1);
        assert_eq!(lowered.count_class(FuClass::Mul), 1);
    }

    #[test]
    fn mulwide_decomposition_op_counts() {
        let m = models::i4c8s4();
        let mut b = KernelBuilder::new("t");
        let x = b.var("x");
        let y = b.var("y");
        let _z = b.mul_new("z", x, y);
        let _w = b.mul_new("w", x, 13i16); // small constant: cheaper
        let k = b.finish();
        let layout = ArrayLayout::contiguous(&k, &m).unwrap();
        let lowered = lower_body(&m, &k, &k.body, &layout).unwrap();
        assert_eq!(lowered.ops.len(), 10 + 6);
        assert_eq!(lowered.count_class(FuClass::Mul), 3 + 2);
    }

    #[test]
    fn guards_map_to_virtual_predicates() {
        let m = models::i4c8s4();
        let mut b = KernelBuilder::new("t");
        let x = b.var("x");
        let p = b.cmp_new("p", CmpOp::Lt, x, 0i16);
        let y = b.var("y");
        b.assign_if(
            vsp_ir::Guard {
                var: p,
                sense: true,
            },
            y,
            Expr::Un(AluUnOp::Mov, Rvalue::Const(1)),
        );
        let k = b.finish();
        let layout = ArrayLayout::contiguous(&k, &m).unwrap();
        let lowered = lower_body(&m, &k, &k.body, &layout).unwrap();
        assert_eq!(lowered.vpreds, 1);
        assert!(lowered.ops.iter().any(|o| o.guard.is_some()));
        assert!(lowered
            .ops
            .iter()
            .any(|o| matches!(o.kind, OpKind::Cmp { .. })));
    }

    #[test]
    fn word_guard_materializes_cmp_ne() {
        // A guard variable computed by AND (combined predicates from
        // nested if-conversion) grows a cmp.ne.
        let m = models::i4c8s4();
        let mut b = KernelBuilder::new("t");
        let p = b.var("p");
        let q = b.var("q");
        let both = b.bin_new("both", AluBinOp::And, p, q);
        let y = b.var("y");
        b.assign_if(
            vsp_ir::Guard {
                var: both,
                sense: true,
            },
            y,
            Expr::Un(AluUnOp::Mov, Rvalue::Const(1)),
        );
        let k = b.finish();
        let layout = ArrayLayout::contiguous(&k, &m).unwrap();
        let lowered = lower_body(&m, &k, &k.body, &layout).unwrap();
        let cmps = lowered
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Cmp { op: CmpOp::Ne, .. }))
            .count();
        assert_eq!(cmps, 1);
    }

    #[test]
    fn arith_used_predicate_materializes_word() {
        let m = models::i4c8s4();
        let mut b = KernelBuilder::new("t");
        let x = b.var("x");
        let p = b.cmp_new("p", CmpOp::Lt, x, 0i16);
        // p used arithmetically:
        let _y = b.bin_new("y", AluBinOp::Add, p, 5i16);
        let k = b.finish();
        let layout = ArrayLayout::contiguous(&k, &m).unwrap();
        let lowered = lower_body(&m, &k, &k.body, &layout).unwrap();
        // cmp + mov#0 + guarded mov#1 + add
        assert_eq!(lowered.ops.len(), 4);
    }

    #[test]
    fn arrays_overflowing_memory_rejected() {
        let m = models::i2c16s4(); // 4096-word banks
        let mut b = KernelBuilder::new("t");
        let _big = b.array("big", 5000);
        let k = b.finish();
        assert!(matches!(
            ArrayLayout::contiguous(&k, &m),
            Err(LowerError::ArraysDoNotFit { .. })
        ));
    }

    #[test]
    fn structured_bodies_rejected() {
        let m = models::i4c8s4();
        let mut b = KernelBuilder::new("t");
        b.count_loop("i", 0, 1, 4, |_, _| {});
        let k = b.finish();
        let layout = ArrayLayout::contiguous(&k, &m).unwrap();
        assert_eq!(
            lower_body(&m, &k, &k.body, &layout),
            Err(LowerError::NotFlat)
        );
    }
}
