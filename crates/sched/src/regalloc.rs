//! Register-pressure estimation and linear-scan allocation.
//!
//! The paper's central storage finding is that "register-file capacity is
//! a significant problem": schedules that unroll two loop levels "require
//! more registers than are available in one cluster" (§3.4.3). This
//! module quantifies that: [`max_live`] measures a schedule's register
//! pressure, [`modulo_max_live`] accounts for the overlapped iterations
//! of a software pipeline, and [`allocate`] maps virtual to physical
//! registers for code generation, failing exactly when a cluster's file
//! is too small.

use crate::vop::LoweredBody;
use std::fmt;
use vsp_core::MachineConfig;
use vsp_isa::{OpKind, Pred, Reg};

/// Live interval of one virtual register within a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    vreg: u16,
    start: u32,
    end: u32,
}

fn intervals(body: &LoweredBody, times: &[u32]) -> Vec<Interval> {
    let mut first_def = vec![u32::MAX; body.vregs as usize];
    let mut first_use = vec![u32::MAX; body.vregs as usize];
    let mut last_use = vec![0u32; body.vregs as usize];
    for (i, op) in body.ops.iter().enumerate() {
        let t = times[i];
        let xfer_src = match &op.kind {
            OpKind::Xfer { src, .. } => Some(*src),
            _ => None,
        };
        for u in op.kind.use_regs().into_iter().chain(xfer_src) {
            first_use[u.index()] = first_use[u.index()].min(t);
            last_use[u.index()] = last_use[u.index()].max(t + 1);
        }
        if let Some(d) = op.kind.def_reg() {
            let f = &mut first_def[d.index()];
            *f = (*f).min(t);
            last_use[d.index()] = last_use[d.index()].max(t + 1);
        }
    }
    let horizon = times.iter().map(|t| t + 1).max().unwrap_or(0).max(1);
    (0..body.vregs)
        .filter(|&r| first_def[r as usize] != u32::MAX || first_use[r as usize] != u32::MAX)
        .map(|r| {
            let ri = r as usize;
            // Loop-carried values — live-ins (no def in the body) and
            // values read at or before their first definition (e.g.
            // accumulators) — must hold their register across the entire
            // body: the next iteration reads them again.
            let carried = first_def[ri] == u32::MAX || first_use[ri] <= first_def[ri];
            if carried {
                Interval {
                    vreg: r,
                    start: 0,
                    end: horizon,
                }
            } else {
                Interval {
                    vreg: r,
                    start: first_def[ri],
                    end: last_use[ri].max(first_def[ri] + 1),
                }
            }
        })
        .collect()
}

/// Maximum number of simultaneously live virtual word registers under the
/// given issue times.
pub fn max_live(body: &LoweredBody, times: &[u32]) -> u32 {
    let iv = intervals(body, times);
    let horizon = iv.iter().map(|i| i.end).max().unwrap_or(0);
    (0..=horizon)
        .map(|t| iv.iter().filter(|i| i.start <= t && t < i.end).count() as u32)
        .max()
        .unwrap_or(0)
}

/// Register pressure of a modulo schedule: each interval overlaps itself
/// every II cycles, so an interval of length `L` needs `ceil(L / II)`
/// simultaneous copies (the modulo-variable-expansion bound).
pub fn modulo_max_live(body: &LoweredBody, times: &[u32], ii: u32) -> u32 {
    let iv = intervals(body, times);
    iv.iter()
        .map(|i| (i.end - i.start).div_ceil(ii.max(1)))
        .sum()
}

/// Allocation failure: the cluster register file is too small.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotEnoughRegisters {
    /// Registers required.
    pub needed: u32,
    /// Registers available (after reserved ones).
    pub available: u32,
}

impl fmt::Display for NotEnoughRegisters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule needs {} registers but only {} are available",
            self.needed, self.available
        )
    }
}

impl std::error::Error for NotEnoughRegisters {}

/// Result of physical register allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Physical register per virtual register.
    pub reg_of: Vec<Reg>,
    /// Physical predicate per virtual predicate.
    pub pred_of: Vec<Pred>,
    /// Number of physical registers used.
    pub regs_used: u32,
}

/// Linear-scan allocation of virtual registers to a cluster's file,
/// leaving the top `reserved` registers untouched (for loop counters).
///
/// # Errors
///
/// Returns [`NotEnoughRegisters`] when the file is too small for the
/// schedule's pressure, mirroring the paper's register-capacity wall.
pub fn allocate(
    machine: &MachineConfig,
    body: &LoweredBody,
    times: &[u32],
    reserved: u32,
) -> Result<Allocation, NotEnoughRegisters> {
    let capacity = machine.cluster.registers.saturating_sub(reserved);
    let mut iv = intervals(body, times);
    iv.sort_by_key(|i| (i.start, i.end));

    let mut reg_of = vec![Reg(u16::MAX); body.vregs as usize];
    let mut free: Vec<u16> = (0..capacity as u16).rev().collect();
    let mut active: Vec<(u32, u16, u16)> = Vec::new(); // (end, phys, vreg)
    let mut used = 0u32;

    for i in &iv {
        active.retain(|&(end, phys, _)| {
            if end <= i.start {
                free.push(phys);
                false
            } else {
                true
            }
        });
        let phys = match free.pop() {
            Some(p) => p,
            None => {
                return Err(NotEnoughRegisters {
                    needed: max_live(body, times),
                    available: capacity,
                })
            }
        };
        used = used.max(u32::from(phys) + 1);
        reg_of[i.vreg as usize] = Reg(phys);
        active.push((i.end, phys, i.vreg));
    }

    // Predicates: direct mapping (kernels use few).
    if u32::from(body.vpreds) > machine.cluster.pred_regs {
        return Err(NotEnoughRegisters {
            needed: u32::from(body.vpreds),
            available: machine.cluster.pred_regs,
        });
    }
    let pred_of = (0..body.vpreds).map(Pred).collect();

    Ok(Allocation {
        reg_of,
        pred_of,
        regs_used: used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vop::VOp;
    use vsp_core::models;
    use vsp_isa::{AluBinOp, Operand};

    fn add(dst: u16, a: u16, b: u16) -> VOp {
        VOp {
            kind: OpKind::AluBin {
                op: AluBinOp::Add,
                dst: Reg(dst),
                a: Operand::Reg(Reg(a)),
                b: Operand::Reg(Reg(b)),
            },
            guard: None,
            src_stmt: 0,
        }
    }

    fn chain(n: u16) -> LoweredBody {
        // v1 = v0+v0; v2 = v1+v1; ...
        LoweredBody {
            ops: (1..=n).map(|i| add(i, i - 1, i - 1)).collect(),
            vregs: n + 1,
            vpreds: 0,
        }
    }

    #[test]
    fn chain_has_low_pressure() {
        let body = chain(8);
        let times: Vec<u32> = (0..8).collect();
        // Each value dies one cycle after the next is defined.
        assert!(max_live(&body, &times) <= 3);
    }

    #[test]
    fn parallel_lives_stack_up() {
        // 8 defs at cycle 0..1, all used at cycle 9.
        let mut ops = Vec::new();
        for i in 0..8u16 {
            ops.push(add(1 + i, 0, 0));
        }
        ops.push(add(9, 1, 2));
        let body = LoweredBody {
            ops,
            vregs: 10,
            vpreds: 0,
        };
        let mut times: Vec<u32> = vec![0; 8];
        times.push(9);
        // Uses at cycle 9 keep v1, v2 alive; the rest die quickly... but
        // last_use of unused defs equals their def cycle +1.
        let live = max_live(&body, &times);
        assert!(live >= 8, "got {live}");
    }

    #[test]
    fn modulo_pressure_grows_with_span_over_ii() {
        let body = chain(4);
        let times: Vec<u32> = vec![0, 2, 4, 6];
        let tight = modulo_max_live(&body, &times, 8);
        let overlapped = modulo_max_live(&body, &times, 1);
        assert!(overlapped > tight);
    }

    #[test]
    fn allocation_reuses_registers() {
        let m = models::i4c8s4();
        let body = chain(20);
        let times: Vec<u32> = (0..20).collect();
        let alloc = allocate(&m, &body, &times, 2).unwrap();
        assert!(alloc.regs_used < 20, "chain reuses: {}", alloc.regs_used);
        // All vregs mapped.
        assert!(alloc.reg_of.iter().all(|r| r.0 != u16::MAX));
    }

    #[test]
    fn small_file_overflows() {
        let mut m = models::i2c16s4();
        m.cluster.registers = 4;
        // 8 simultaneously live values.
        let mut ops = Vec::new();
        for i in 0..8u16 {
            ops.push(add(1 + i, 0, 0));
        }
        ops.push(add(9, 1, 2));
        ops.push(add(10, 3, 4));
        ops.push(add(11, 5, 6));
        ops.push(add(12, 7, 8));
        let body = LoweredBody {
            ops,
            vregs: 13,
            vpreds: 0,
        };
        let times: Vec<u32> = vec![0, 0, 0, 0, 1, 1, 1, 1, 9, 9, 9, 9];
        assert!(allocate(&m, &body, &times, 0).is_err());
    }

    #[test]
    fn predicate_overflow_detected() {
        let m = models::i4c8s4(); // 8 predicate registers
        let body = LoweredBody {
            ops: vec![],
            vregs: 0,
            vpreds: 9,
        };
        assert!(allocate(&m, &body, &[], 0).is_err());
    }
}
