//! Loop-invariant code motion.
//!
//! §3.3's baseline already moves loop-invariant code: "code is not moved
//! between basic blocks other than loop invariant code". A pure,
//! unguarded scalar assignment inside a loop is hoisted before the loop
//! when all its operands are defined outside the loop body, the
//! destination is written exactly once in the body, and the destination
//! is not live-in to the body (hoisting must not clobber a value the
//! first iteration would have read).

use crate::kernel::{Kernel, Stmt, VarId};
use crate::transform::subst::{live_in_vars, written_vars};
use std::collections::HashSet;

/// Hoists invariant assignments out of every loop. Returns the number of
/// statements moved.
pub fn hoist_invariants(kernel: &mut Kernel) -> usize {
    let mut body = std::mem::take(&mut kernel.body);
    let n = walk(&mut body);
    kernel.body = body;
    n
}

fn walk(stmts: &mut Vec<Stmt>) -> usize {
    let mut moved = 0;
    let mut i = 0;
    while i < stmts.len() {
        // First recurse so inner loops hoist into outer bodies, giving
        // outer passes a chance to hoist further.
        match &mut stmts[i] {
            Stmt::Loop(l) => moved += walk(&mut l.body),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                moved += walk(then_body);
                moved += walk(else_body);
            }
            _ => {}
        }
        if let Stmt::Loop(l) = &mut stmts[i] {
            let hoisted = hoist_from(l);
            if !hoisted.is_empty() {
                moved += hoisted.len();
                let at = i;
                for (k, s) in hoisted.into_iter().enumerate() {
                    stmts.insert(at + k, s);
                    i += 1;
                }
            }
        }
        i += 1;
    }
    moved
}

fn hoist_from(l: &mut crate::kernel::Loop) -> Vec<Stmt> {
    let mut hoisted = Vec::new();
    loop {
        let written = written_vars(&l.body);
        let live_in: HashSet<VarId> = live_in_vars(&l.body).into_iter().collect();
        let write_counts = |v: VarId| {
            fn count(stmts: &[Stmt], v: VarId) -> usize {
                stmts
                    .iter()
                    .map(|s| match s {
                        Stmt::Assign { dst, .. } if *dst == v => 1,
                        Stmt::Loop(inner) => count(&inner.body, v),
                        Stmt::If {
                            then_body,
                            else_body,
                            ..
                        } => count(then_body, v) + count(else_body, v),
                        _ => 0,
                    })
                    .sum()
            }
            count(&l.body, v)
        };
        let mut candidate = None;
        for (idx, s) in l.body.iter().enumerate() {
            let Stmt::Assign {
                dst,
                expr,
                guard: None,
            } = s
            else {
                continue;
            };
            if !expr.is_pure_scalar() {
                continue;
            }
            if *dst == l.var || live_in.contains(dst) || write_counts(*dst) != 1 {
                continue;
            }
            let invariant = expr.uses().all(|u| u != l.var && !written.contains(&u));
            if invariant {
                candidate = Some(idx);
                break;
            }
        }
        match candidate {
            Some(idx) => hoisted.push(l.body.remove(idx)),
            None => break,
        }
    }
    hoisted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::interp::Interpreter;
    use vsp_isa::AluBinOp;

    #[test]
    fn invariant_hoisted() {
        let mut b = KernelBuilder::new("t");
        let base = b.var("base");
        let acc = b.var("acc");
        b.set(acc, 0);
        b.count_loop("i", 0, 1, 4, |b, i| {
            let t = b.bin_new("t", AluBinOp::Add, base, 16i16); // invariant
            let u = b.bin_new("u", AluBinOp::Add, t, i); // not invariant
            b.bin(acc, AluBinOp::Add, acc, u);
        });
        let mut k = b.finish();
        let gold = {
            let mut interp = Interpreter::new(&k);
            interp.set_var(base, 100);
            interp.run().unwrap();
            interp.var_value(acc)
        };
        assert_eq!(hoist_invariants(&mut k), 1);
        match &k.body[1] {
            Stmt::Assign { .. } => {} // hoisted `t` now precedes the loop
            other => panic!("expected hoisted assign, got {other:?}"),
        }
        match &k.body[2] {
            Stmt::Loop(l) => assert_eq!(l.body.len(), 2),
            other => panic!("{other:?}"),
        }
        let mut interp = Interpreter::new(&k);
        interp.set_var(base, 100);
        interp.run().unwrap();
        assert_eq!(interp.var_value(acc), gold);
    }

    #[test]
    fn chains_hoist_together() {
        let mut b = KernelBuilder::new("t");
        let base = b.var("base");
        let sink = b.var("sink");
        b.count_loop("i", 0, 1, 4, |b, _| {
            let t = b.bin_new("t", AluBinOp::Add, base, 1i16);
            let u = b.bin_new("u", AluBinOp::Add, t, 2i16); // invariant once t is
            b.copy(sink, u);
        });
        let mut k = b.finish();
        // t, u, and finally the copy into sink all become invariant.
        assert!(hoist_invariants(&mut k) >= 2);
    }

    #[test]
    fn accumulators_stay() {
        let mut b = KernelBuilder::new("t");
        let acc = b.var("acc");
        b.set(acc, 0);
        b.count_loop("i", 0, 1, 4, |b, _| {
            b.bin(acc, AluBinOp::Add, acc, 1i16);
        });
        let mut k = b.finish();
        assert_eq!(hoist_invariants(&mut k), 0);
        let mut interp = Interpreter::new(&k);
        interp.run().unwrap();
        assert_eq!(interp.var_value(acc), 4);
    }

    #[test]
    fn loads_never_hoisted() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 4);
        let sink = b.var("sink");
        b.count_loop("i", 0, 1, 4, |b, _| {
            let x = b.load("x", a, 0u16);
            b.copy(sink, x);
        });
        let mut k = b.finish();
        assert_eq!(hoist_invariants(&mut k), 0);
    }

    #[test]
    fn guarded_statements_never_hoisted() {
        let mut b = KernelBuilder::new("t");
        let base = b.var("base");
        let p = b.var("p");
        let t = b.var("t");
        b.count_loop("i", 0, 1, 4, |b, _| {
            b.assign_if(
                crate::kernel::Guard {
                    var: p,
                    sense: true,
                },
                t,
                crate::kernel::Expr::Bin(
                    AluBinOp::Add,
                    crate::kernel::Rvalue::Var(base),
                    crate::kernel::Rvalue::Const(1),
                ),
            );
        });
        let mut k = b.finish();
        assert_eq!(hoist_invariants(&mut k), 0);
    }

    #[test]
    fn hoisting_from_inner_to_outside_outer() {
        let mut b = KernelBuilder::new("t");
        let base = b.var("base");
        let sink = b.var("sink");
        b.count_loop("i", 0, 1, 2, |b, _| {
            b.count_loop("j", 0, 1, 2, |b, _| {
                let t = b.bin_new("t", AluBinOp::Add, base, 7i16);
                b.copy(sink, t);
            });
        });
        let mut k = b.finish();
        // Hoisted out of the inner loop, then again out of the outer one.
        assert!(hoist_invariants(&mut k) >= 2);
        assert!(matches!(&k.body[0], Stmt::Assign { .. }));
    }
}
