//! Independent schedule-validity checking.
//!
//! The schedulers in `vsp-sched` *construct* schedules that should obey
//! the machine's constraints; this module *re-derives* those constraints
//! from scratch and checks a finished artifact against them, so a bug in
//! the scheduler's bookkeeping cannot hide itself. Three entry points:
//!
//! * [`check_program`] — a scheduled [`Program`]: structural legality
//!   (via [`vsp_core::validate_program`]) plus a linear read-before-ready
//!   scan that mirrors the simulator's bypass timing;
//! * [`check_list_schedule`] — a [`ListSchedule`] against its dependence
//!   graph: every same-iteration edge must respect the producer latency
//!   (plus the crossbar transfer penalty when the edge spans clusters),
//!   every cycle's placements must fit a fresh [`CycleReservation`], and
//!   no operation may issue at or beyond the claimed length;
//! * [`check_modulo_schedule`] — a [`ModuloSchedule`]: the classic
//!   modulo constraint `time(to) ≥ time(from) + delay − II·distance` for
//!   **all** edges (including loop-carried ones), resource replay of the
//!   `II` modulo rows at `time mod II`, and length/stage-count
//!   consistency.
//!
//! All findings come back as structured [`Violation`]s rather than
//! panics — callers decide what is fatal.

use std::fmt;
use vsp_core::resources::ReserveError;
use vsp_core::validate::{validate_program_with, ValidateOptions, ValidationError};
use vsp_core::{CycleReservation, LatencyModel, MachineConfig};
use vsp_isa::{OpKind, Operation, Program};
use vsp_sched::{ListSchedule, LoweredBody, ModuloSchedule, VopDeps};

/// One violation found by a checker.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Structural illegality reported by the core validator.
    Structural(ValidationError),
    /// A register is read (or overwritten) before its producer's result
    /// enters the bypass network.
    ReadBeforeReady {
        /// Word index of the offending read.
        word: usize,
        /// Cluster of the register file.
        cluster: u8,
        /// Register index.
        reg: u16,
        /// First word index at which the value is readable.
        ready_at: usize,
    },
    /// A predicate is read (as a guard, branch condition or compare
    /// overwrite) before its producing compare completes.
    PredBeforeReady {
        /// Word index of the offending read.
        word: usize,
        /// Cluster of the predicate file.
        cluster: u8,
        /// Predicate index.
        pred: u8,
        /// First word index at which the value is readable.
        ready_at: usize,
    },
    /// A dependence edge is violated by the schedule.
    Dependence {
        /// Producer operation index.
        from: usize,
        /// Consumer operation index.
        to: usize,
        /// Earliest legal issue time of the consumer.
        required: i64,
        /// Actual issue time of the consumer.
        actual: i64,
        /// Iteration distance of the edge.
        distance: u32,
    },
    /// A placement does not fit the machine's per-cycle resources.
    Resource {
        /// Operation index within the body.
        op: usize,
        /// Issue time (for modulo schedules, the absolute time; the
        /// replay row is `time mod II`).
        time: u32,
        /// The reservation failure.
        error: ReserveError,
    },
    /// An operation issues at or beyond the schedule's claimed length.
    Overrun {
        /// Operation index within the body.
        op: usize,
        /// Issue time of the operation.
        time: u32,
        /// Claimed schedule length.
        length: u32,
    },
    /// The schedule's derived fields disagree with its contents.
    Inconsistent {
        /// What disagreed (human-readable).
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Structural(e) => write!(f, "structural: {e}"),
            Violation::ReadBeforeReady {
                word,
                cluster,
                reg,
                ready_at,
            } => write!(
                f,
                "word {word}: c{cluster} r{reg} read before ready (ready at word {ready_at})"
            ),
            Violation::PredBeforeReady {
                word,
                cluster,
                pred,
                ready_at,
            } => write!(
                f,
                "word {word}: c{cluster} p{pred} read before ready (ready at word {ready_at})"
            ),
            Violation::Dependence {
                from,
                to,
                required,
                actual,
                distance,
            } => write!(
                f,
                "dependence {from} -> {to} (distance {distance}): issues at {actual}, legal from {required}"
            ),
            Violation::Resource { op, time, error } => {
                write!(f, "op {op} at time {time}: {error}")
            }
            Violation::Overrun { op, time, length } => {
                write!(f, "op {op} issues at {time} beyond schedule length {length}")
            }
            Violation::Inconsistent { detail } => write!(f, "inconsistent schedule: {detail}"),
        }
    }
}

/// Checks a scheduled program against `machine`: structural legality
/// plus a read-before-ready scan of the linear (fall-through) execution.
///
/// The hazard scan mirrors the simulator's bypass model: a result is
/// readable `latency` words after issue, words execute one per cycle.
/// The scan follows fall-through order; at a branch or jump whose target
/// is *not* the natural fall-through point the ready state is reset
/// (the checker under-approximates across non-linear control flow rather
/// than report false positives), and it stops at the first halt.
pub fn check_program(machine: &MachineConfig, program: &Program) -> Vec<Violation> {
    let mut out: Vec<Violation> = Vec::new();
    if let Err(errors) = validate_program_with(machine, program, ValidateOptions::default()) {
        out.extend(errors.into_iter().map(Violation::Structural));
        // Hazard timing over a structurally broken program is noise.
        return out;
    }

    let lat = LatencyModel::new(machine);
    let clusters = machine.clusters as usize;
    let regs = machine.cluster.registers as usize;
    let preds = machine.cluster.pred_regs as usize;
    let bds = machine.pipeline.branch_delay_slots as usize;
    // Ready words, flat: cluster `c`'s register `r` is
    // `reg_ready[c * regs + r]`, its predicate `p` is
    // `pred_ready[c * preds + p]`.
    let mut reg_ready = vec![0usize; clusters * regs];
    let mut pred_ready = vec![0usize; clusters * preds];
    // Word index at which the ready tables stop describing execution
    // because a non-linear redirect takes effect there.
    let mut reset_at: Option<usize> = None;

    'words: for (w, word) in program.iter().enumerate() {
        if reset_at == Some(w) {
            reg_ready.fill(0);
            pred_ready.fill(0);
            reset_at = None;
        }

        let check_reg = |out: &mut Vec<Violation>, c: u8, r: u16| {
            let ready = reg_ready[c as usize * regs + r as usize];
            if ready > w {
                out.push(Violation::ReadBeforeReady {
                    word: w,
                    cluster: c,
                    reg: r,
                    ready_at: ready,
                });
            }
        };
        for op in word.iter() {
            for r in op.kind.use_regs() {
                check_reg(&mut out, op.cluster, r.0);
            }
            if let OpKind::Xfer { from, src, .. } = &op.kind {
                check_reg(&mut out, *from, src.0);
            }
            // Writes also wait: an in-flight result must not be clobbered
            // out of order.
            if let Some(d) = op.kind.def_reg() {
                check_reg(&mut out, op.cluster, d.0);
            }
        }
        let check_pred = |out: &mut Vec<Violation>, c: u8, p: u8| {
            let ready = pred_ready[c as usize * preds + p as usize];
            if ready > w {
                out.push(Violation::PredBeforeReady {
                    word: w,
                    cluster: c,
                    pred: p,
                    ready_at: ready,
                });
            }
        };
        for op in word.iter() {
            if let Some(g) = &op.guard {
                check_pred(&mut out, op.cluster, g.pred.0);
            }
            match &op.kind {
                OpKind::Branch { pred, .. } => check_pred(&mut out, op.cluster, pred.0),
                OpKind::Cmp { dst, .. } => check_pred(&mut out, op.cluster, dst.0),
                _ => {}
            }
        }

        // Commit this word's writes and control effects.
        for op in word.iter() {
            let latency = lat.latency(&op.kind) as usize;
            if let Some(d) = op.kind.def_reg() {
                reg_ready[op.cluster as usize * regs + d.index()] = w + latency;
            }
            if let Some(p) = op.kind.def_pred() {
                pred_ready[op.cluster as usize * preds + p.index()] = w + latency;
            }
            match &op.kind {
                OpKind::Halt => break 'words,
                OpKind::Branch { target, .. } | OpKind::Jump { target }
                    if *target != w + 1 + bds =>
                {
                    reset_at = Some(w + 1 + bds);
                }
                _ => {}
            }
        }
    }
    out
}

/// Checks a list schedule against its body, dependence graph and
/// machine.
pub fn check_list_schedule(
    machine: &MachineConfig,
    body: &LoweredBody,
    deps: &VopDeps,
    sched: &ListSchedule,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if sched.times.len() != body.ops.len() || sched.placements.len() != body.ops.len() {
        out.push(Violation::Inconsistent {
            detail: format!(
                "schedule covers {} times / {} placements for {} ops",
                sched.times.len(),
                sched.placements.len(),
                body.ops.len()
            ),
        });
        return out;
    }

    let xfer = machine.pipeline.xfer_latency;
    for e in deps.edges() {
        if e.distance != 0 {
            continue; // a single list-scheduled iteration has no carried edges to satisfy
        }
        let mut delay = e.min_delay;
        if e.min_delay > 0 && sched.placements[e.from].0 != sched.placements[e.to].0 {
            delay += xfer;
        }
        let required = i64::from(sched.times[e.from]) + i64::from(delay);
        let actual = i64::from(sched.times[e.to]);
        if actual < required {
            out.push(Violation::Dependence {
                from: e.from,
                to: e.to,
                required,
                actual,
                distance: 0,
            });
        }
    }

    replay_resources(
        machine,
        body,
        &sched.times,
        &sched.placements,
        None,
        &mut out,
    );

    for (i, &t) in sched.times.iter().enumerate() {
        if t >= sched.length {
            out.push(Violation::Overrun {
                op: i,
                time: t,
                length: sched.length,
            });
        }
    }
    out
}

/// Checks a modulo schedule: all-edge modulo dependence constraints,
/// modulo-row resource replay, and length/stage consistency.
pub fn check_modulo_schedule(
    machine: &MachineConfig,
    body: &LoweredBody,
    deps: &VopDeps,
    sched: &ModuloSchedule,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if sched.times.len() != body.ops.len() || sched.placements.len() != body.ops.len() {
        out.push(Violation::Inconsistent {
            detail: format!(
                "schedule covers {} times / {} placements for {} ops",
                sched.times.len(),
                sched.placements.len(),
                body.ops.len()
            ),
        });
        return out;
    }
    if sched.ii == 0 {
        out.push(Violation::Inconsistent {
            detail: "initiation interval is zero".into(),
        });
        return out;
    }

    let xfer = machine.pipeline.xfer_latency;
    for e in deps.edges() {
        let mut delay = i64::from(e.min_delay);
        if e.min_delay > 0 && sched.placements[e.from].0 != sched.placements[e.to].0 {
            delay += i64::from(xfer);
        }
        let required =
            i64::from(sched.times[e.from]) + delay - i64::from(sched.ii) * i64::from(e.distance);
        let actual = i64::from(sched.times[e.to]);
        if actual < required {
            out.push(Violation::Dependence {
                from: e.from,
                to: e.to,
                required,
                actual,
                distance: e.distance,
            });
        }
    }

    replay_resources(
        machine,
        body,
        &sched.times,
        &sched.placements,
        Some(sched.ii),
        &mut out,
    );

    let span = sched.times.iter().map(|&t| t + 1).max().unwrap_or(0);
    if sched.length != span {
        out.push(Violation::Inconsistent {
            detail: format!("length {} but last issue ends at {span}", sched.length),
        });
    }
    let stages = sched.length.div_ceil(sched.ii);
    if sched.stages != stages {
        out.push(Violation::Inconsistent {
            detail: format!("stages {} but ceil(length / II) = {stages}", sched.stages),
        });
    }
    out
}

/// Replays every placement through per-cycle reservations. With
/// `ii = Some(n)`, ops sharing `time mod n` share a row (modulo
/// reservation); otherwise each distinct time gets its own row.
fn replay_resources(
    machine: &MachineConfig,
    body: &LoweredBody,
    times: &[u32],
    placements: &[(u8, u8)],
    ii: Option<u32>,
    out: &mut Vec<Violation>,
) {
    let rows = match ii {
        Some(n) => n,
        None => times.iter().map(|&t| t + 1).max().unwrap_or(0),
    };
    let mut reservations: Vec<CycleReservation> =
        (0..rows).map(|_| CycleReservation::new(machine)).collect();
    for (i, op) in body.ops.iter().enumerate() {
        let (c, s) = placements[i];
        let row = match ii {
            Some(n) => (times[i] % n) as usize,
            None => times[i] as usize,
        };
        let concrete = Operation {
            cluster: c,
            slot: s,
            guard: op.guard,
            kind: op.kind.clone(),
        };
        if let Err(error) = reservations[row].try_reserve(machine, &concrete) {
            out.push(Violation::Resource {
                op: i,
                time: times[i],
                error,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsp_core::models;
    use vsp_isa::{AluBinOp, Operand, Program, Reg};

    fn add_word(dst: u16, a: u16) -> Vec<Operation> {
        vec![Operation::new(
            0,
            0,
            OpKind::AluBin {
                op: AluBinOp::Add,
                dst: Reg(dst),
                a: Operand::Reg(Reg(a)),
                b: Operand::Imm(1),
            },
        )]
    }

    #[test]
    fn clean_program_has_no_violations() {
        let machine = models::i4c8s4();
        let mut p = Program::new("ok");
        p.push_word(add_word(1, 0));
        p.push_word(add_word(2, 1)); // ALU latency 1: ready next word
        p.push_word(vec![Operation::new(0, 4, OpKind::Halt)]);
        assert!(check_program(&machine, &p).is_empty());
    }

    #[test]
    fn load_use_hazard_is_detected() {
        let machine = models::i4c8s5(); // load_use_delay = 1
        let mut p = Program::new("hazard");
        p.push_word(vec![Operation::new(
            0,
            2,
            OpKind::Load {
                dst: Reg(1),
                addr: vsp_isa::AddrMode::Absolute(0),
                bank: vsp_isa::MemBank(0),
            },
        )]);
        p.push_word(add_word(2, 1)); // reads r1 one word early
        let (hc, hs) = machine.branch_slot();
        p.push_word(vec![Operation::new(hc, hs, OpKind::Halt)]);
        let violations = check_program(&machine, &p);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::ReadBeforeReady { reg: 1, .. })),
            "{violations:?}"
        );
        // The same sequence is fine with zero load-use delay.
        assert!(check_program(&models::i4c8s4(), &p).is_empty());
    }

    #[test]
    fn structural_errors_pass_through() {
        let machine = models::i2c16s4(); // 64 registers
        let mut p = Program::new("bad");
        p.push_word(add_word(99, 0));
        let violations = check_program(&machine, &p);
        assert!(matches!(violations[0], Violation::Structural(_)));
    }
}
