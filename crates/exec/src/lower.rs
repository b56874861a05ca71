//! The lowering walk: pre-decoded program → flattened native trace.
//!
//! A constant-propagation interpreter over a known/unknown value
//! lattice with *exact* commit timing. The walk executes the program
//! symbolically, one instruction word per cycle, tracking for every
//! register and predicate both its ready cycle (the simulator's bypass
//! scoreboard) and, where derivable from constants, its exact value.
//! Branch and guard predicates that resolve to known values let the
//! walk unroll all control flow into a linear trace; anything it cannot
//! prove — a data-dependent branch, a timing hazard the simulator would
//! fault on, a program that spills out of the icache — is refused with
//! a typed [`Unsupported`] reason rather than approximated.
//!
//! Soundness of immediate write application: the walk refuses any read
//! of a register with an in-flight commit (the simulator faults there
//! too, under its default hazard policy) and any pair of commits to one
//! register that would land out of issue order (unless their guards are
//! provably mutually exclusive). For every surviving program, applying
//! each write at issue time is therefore observationally identical to
//! the simulator's delayed commit — which is what lets the run-time
//! loop skip the scoreboard and commit ring entirely. Within one word,
//! ops are topologically reordered so same-cycle readers precede
//! writers and loads precede stores and buffer swaps, reproducing the
//! simulator's two-phase (read-then-commit) cycle semantics in a
//! straight line.

use crate::error::{ExecError, Unsupported};
use crate::functional::{CompiledProgram, FrameShape, RtAddr, RtOp, RtOperand};
use vsp_core::MachineConfig;
use vsp_isa::{semantics, AluUnOp, Program};
use vsp_sim::decoded::{DAddr, DKind, DOperand, DecodedOp, DecodedProgram, NO_GUARD};

/// Walk budget in executed instruction words: beyond this the program
/// is refused as non-terminating.
const WALK_LIMIT: u64 = 1 << 20;

/// Flattened-trace budget in ops (bounds lowering memory).
const OPS_LIMIT: usize = 1 << 20;

/// A register-file or predicate-file slot, flattened: `(is_pred, idx)`.
type Key = (bool, u32);

/// The slots one node reads, inline: at most four (a guard, a store's
/// value and an indexed address's two registers).
#[derive(Clone, Copy, Default)]
struct Reads {
    keys: [Key; 4],
    len: u8,
}

impl Reads {
    fn push(&mut self, key: Key) {
        self.keys[usize::from(self.len)] = key;
        self.len += 1;
    }

    fn contains(&self, key: Key) -> bool {
        self.keys[..usize::from(self.len)].contains(&key)
    }
}

/// An emitted op of the word being lowered, with the ordering metadata
/// the intra-word topological sort needs.
struct Node {
    guard: Option<(u32, bool)>,
    op: RtOp,
    reads: Reads,
    write: Option<Key>,
    is_load: bool,
    is_store: bool,
    is_swap: bool,
}

/// The statically-known result of a pending write.
enum Known {
    Reg(Option<i16>),
    Pred(Option<bool>),
}

/// A register/predicate result scheduled by the word being lowered,
/// recorded during the read phase and committed to the scoreboard in
/// the write phase (mirroring the simulator's two-phase step).
struct PendingWrite {
    key: Key,
    at: u64,
    guard: Option<(u32, bool)>,
    known: Known,
    node: usize,
}

/// Whether two guarded writes can never both execute: same predicate,
/// opposite senses (the if-conversion diamond pattern).
fn mutually_exclusive(a: Option<(u32, bool)>, b: Option<(u32, bool)>) -> bool {
    matches!((a, b), (Some((pa, sa)), Some((pb, sb))) if pa == pb && sa != sb)
}

/// A commit not yet landed: `(slot written, commit cycle, guard)`.
type Inflight = (Key, u64, Option<(u32, bool)>);

/// Buffers one walk reuses for every word: the word's nodes and
/// pending writes, and the intra-word sort's bookkeeping.
#[derive(Default)]
struct WordScratch {
    nodes: Vec<Node>,
    pending: Vec<PendingWrite>,
    emitted: Vec<bool>,
    op_index: Vec<usize>,
}

struct Walk {
    shape: FrameShape,
    nbanks: usize,
    cycle: u64,
    reg_ready: Vec<u64>,
    pred_ready: Vec<u64>,
    known_reg: Vec<Option<i16>>,
    known_pred: Vec<Option<bool>>,
    /// Every commit of the register and predicate files still in
    /// flight, pruned of landed ones once per word.
    inflight: Vec<Inflight>,
    ops: Vec<RtOp>,
    /// Every emitted op that writes a register/predicate: `(op index,
    /// commit cycle)` — consulted once at the end to discard writes the
    /// halt cut off.
    write_log: Vec<(usize, u64)>,
}

impl Walk {
    fn rflat(&self, c: u8, r: u16) -> usize {
        usize::from(c) * self.shape.nregs + usize::from(r)
    }

    fn pflat(&self, c: u8, p: u8) -> usize {
        usize::from(c) * self.shape.npreds + usize::from(p)
    }

    /// Checked register read against pre-word state: refuses if the
    /// simulator would fault a premature read here.
    fn read_reg(&self, c: u8, r: u16, word: usize) -> Result<Option<i16>, ExecError> {
        let i = self.rflat(c, r);
        if self.reg_ready[i] > self.cycle {
            return Err(Unsupported::TimingHazard { word }.into());
        }
        Ok(self.known_reg[i])
    }

    fn read_pred(&self, c: u8, p: u8, word: usize) -> Result<Option<bool>, ExecError> {
        let i = self.pflat(c, p);
        if self.pred_ready[i] > self.cycle {
            return Err(Unsupported::TimingHazard { word }.into());
        }
        Ok(self.known_pred[i])
    }

    /// Resolves an operand: run-time form, statically-known value, and
    /// the read-set entry for intra-word ordering.
    fn operand(
        &self,
        c: u8,
        o: DOperand,
        word: usize,
        reads: &mut Reads,
    ) -> Result<(RtOperand, Option<i16>), ExecError> {
        match o {
            DOperand::Reg(r) => {
                let known = self.read_reg(c, r, word)?;
                let i = self.rflat(c, r) as u32;
                reads.push((false, i));
                Ok((RtOperand::Reg(i), known))
            }
            DOperand::Imm(v) => Ok((RtOperand::Imm(v), Some(v))),
        }
    }

    /// Resolves an effective address to its run-time form, checking the
    /// registers it reads.
    fn addr(&self, c: u8, a: DAddr, word: usize, reads: &mut Reads) -> Result<RtAddr, ExecError> {
        let mut reg = |r: u16| -> Result<u32, ExecError> {
            self.read_reg(c, r, word)?;
            let i = self.rflat(c, r) as u32;
            reads.push((false, i));
            Ok(i)
        };
        Ok(match a {
            DAddr::Abs(a) => RtAddr::Abs(u32::from(a)),
            DAddr::Reg(r) => RtAddr::Reg(reg(r)?),
            DAddr::BaseDisp(r, d) => RtAddr::BaseDisp(reg(r)?, d),
            DAddr::Indexed(r, s) => RtAddr::Indexed(reg(r)?, reg(s)?),
        })
    }

    /// Schedules one word's register/predicate results against the
    /// scoreboard, in issue order, exactly as the simulator's phase 2
    /// does — except that where the simulator faults (write-port
    /// conflict) or silently commits out of order, the walk refuses.
    /// Guarded writes that can never coexist (opposite senses of one
    /// predicate) are exempt: at most one executes per run.
    fn schedule(&mut self, pending: &[PendingWrite], word: usize) -> Result<(), ExecError> {
        let cycle = self.cycle;
        self.inflight.retain(|&(_, at, _)| at > cycle);
        for w in pending {
            for &(key, at, guard) in &self.inflight {
                if key == w.key && at >= w.at && !mutually_exclusive(w.guard, guard) {
                    return Err(Unsupported::TimingHazard { word }.into());
                }
            }
            let idx = w.key.1 as usize;
            let ready = if w.key.0 {
                &mut self.pred_ready[idx]
            } else {
                &mut self.reg_ready[idx]
            };
            *ready = (*ready).max(w.at);
            self.inflight.push((w.key, w.at, w.guard));
        }
        for w in pending {
            let idx = w.key.1 as usize;
            match &w.known {
                Known::Reg(v) => {
                    self.known_reg[idx] = if w.guard.is_some() { None } else { *v };
                }
                Known::Pred(v) => {
                    self.known_pred[idx] = if w.guard.is_some() { None } else { *v };
                }
            }
        }
        Ok(())
    }

    /// Emits the word's nodes in an order that preserves the
    /// simulator's two-phase cycle semantics under immediate write
    /// application: every same-cycle reader of a slot before its
    /// writer, every load before every store, and stores before swaps.
    /// Issue order is kept wherever the constraints allow (a stable
    /// topological sort). Records trace indices for pending writes.
    fn emit_word(&mut self, scratch: &mut WordScratch, word: usize) -> Result<(), ExecError> {
        let WordScratch {
            nodes,
            pending,
            emitted,
            op_index,
        } = scratch;
        let n = nodes.len();
        emitted.clear();
        emitted.resize(n, false);
        op_index.clear();
        op_index.resize(n, 0);
        let mut remaining = n;
        while remaining > 0 {
            let mut progress = false;
            for i in 0..n {
                if emitted[i] {
                    continue;
                }
                let node = &nodes[i];
                let blocked = nodes.iter().enumerate().any(|(j, other)| {
                    if j == i || emitted[j] {
                        return false;
                    }
                    let anti = match node.write {
                        Some(w) => other.reads.contains(w),
                        None => false,
                    };
                    anti || (node.is_store && other.is_load)
                        || (node.is_swap && (other.is_load || other.is_store))
                });
                if blocked {
                    continue;
                }
                if let Some((pred, sense)) = node.guard {
                    self.ops.push(RtOp::Guard { pred, sense });
                }
                op_index[i] = self.ops.len();
                self.ops.push(node.op);
                emitted[i] = true;
                remaining -= 1;
                progress = true;
            }
            if !progress {
                return Err(Unsupported::SameCycleExchange { word }.into());
            }
        }
        for w in pending.iter() {
            self.write_log.push((op_index[w.node], w.at));
        }
        if self.ops.len() > OPS_LIMIT {
            return Err(Unsupported::TraceTooLong {
                ops: self.ops.len(),
            }
            .into());
        }
        Ok(())
    }
}

/// Lowers `program` for `machine` into a [`CompiledProgram`], or
/// refuses (see the module docs for the refusal taxonomy).
pub(crate) fn lower(
    machine: &MachineConfig,
    program: &Program,
) -> Result<CompiledProgram, ExecError> {
    let decoded = DecodedProgram::prepare(machine, program).map_err(ExecError::Invalid)?;
    let len = decoded.len();
    if len > machine.icache_words as usize {
        return Err(Unsupported::IcacheOverflow {
            words: len,
            capacity: machine.icache_words,
        }
        .into());
    }

    let shape = FrameShape::of(machine);
    let nregs = shape.clusters * shape.nregs;
    let npreds = shape.clusters * shape.npreds;
    let nbanks = shape.bank_words.len();
    let mut walk = Walk {
        shape,
        nbanks,
        cycle: 0,
        reg_ready: vec![0; nregs],
        pred_ready: vec![0; npreds],
        known_reg: vec![Some(0); nregs],
        known_pred: vec![Some(false); npreds],
        inflight: Vec::new(),
        ops: Vec::new(),
        write_log: Vec::new(),
    };

    let mut scratch = WordScratch::default();
    let delay_slots = machine.pipeline.branch_delay_slots;
    let mut pc = 0usize;
    let mut redirect: Option<(usize, u32)> = None;
    let halt_cycle;
    loop {
        if walk.cycle >= WALK_LIMIT {
            return Err(Unsupported::NonTerminating { limit: WALK_LIMIT }.into());
        }
        if pc >= len {
            return Err(Unsupported::RanOffEnd { word: pc }.into());
        }

        scratch.nodes.clear();
        scratch.pending.clear();
        let WordScratch { nodes, pending, .. } = &mut scratch;
        let mut last_branch: Option<usize> = None;
        let mut halt = false;

        for i in decoded.word_range(pc) {
            let op: DecodedOp = decoded.op(i);
            let c = op.cluster;
            let mut reads = Reads::default();
            let mut guard: Option<(u32, bool)> = None;
            if op.guard_pred != NO_GUARD {
                let known = walk.read_pred(c, op.guard_pred, pc)?;
                match known {
                    Some(v) if v != op.guard_sense => continue, // annulled
                    Some(_) => {}
                    None => {
                        let gi = walk.pflat(c, op.guard_pred) as u32;
                        reads.push((true, gi));
                        guard = Some((gi, op.guard_sense));
                    }
                }
            }
            // Control ops must be statically decidable: an unknown
            // guard on one makes the instruction stream itself
            // data-dependent.
            let is_control = matches!(
                op.kind,
                DKind::Branch { .. } | DKind::Jump { .. } | DKind::Halt
            );
            if is_control && guard.is_some() {
                return Err(Unsupported::GuardedControl { word: pc }.into());
            }

            // A scheduled result must commit strictly after issue for
            // the read-refusal argument to hold; every real latency
            // model guarantees this.
            let writes_result = !matches!(
                op.kind,
                DKind::Store { .. }
                    | DKind::Branch { .. }
                    | DKind::Jump { .. }
                    | DKind::Halt
                    | DKind::Swap { .. }
                    | DKind::Nop
            );
            if writes_result && op.latency == 0 {
                return Err(Unsupported::TimingHazard { word: pc }.into());
            }
            let at = walk.cycle + u64::from(op.latency);

            match op.kind {
                DKind::AluBin { op: f, dst, a, b } => {
                    let (ra, ka) = walk.operand(c, a, pc, &mut reads)?;
                    let (rb, kb) = walk.operand(c, b, pc, &mut reads)?;
                    let di = walk.rflat(c, dst);
                    let known = known2(guard, ka, kb, |x, y| semantics::alu_bin(f, x, y));
                    pending.push(PendingWrite {
                        key: (false, di as u32),
                        at,
                        guard,
                        known: Known::Reg(known),
                        node: nodes.len(),
                    });
                    nodes.push(Node {
                        guard,
                        op: RtOp::AluBin {
                            op: f,
                            dst: di as u32,
                            a: ra,
                            b: rb,
                        },
                        reads,
                        write: Some((false, di as u32)),
                        is_load: false,
                        is_store: false,
                        is_swap: false,
                    });
                }
                DKind::AluUn { op: f, dst, a } => {
                    let (ra, ka) = walk.operand(c, a, pc, &mut reads)?;
                    let di = walk.rflat(c, dst);
                    let known = known1(guard, ka, |x| semantics::alu_un(f, x));
                    pending.push(PendingWrite {
                        key: (false, di as u32),
                        at,
                        guard,
                        known: Known::Reg(known),
                        node: nodes.len(),
                    });
                    nodes.push(Node {
                        guard,
                        op: RtOp::AluUn {
                            op: f,
                            dst: di as u32,
                            a: ra,
                        },
                        reads,
                        write: Some((false, di as u32)),
                        is_load: false,
                        is_store: false,
                        is_swap: false,
                    });
                }
                DKind::Shift { op: f, dst, a, b } => {
                    let (ra, ka) = walk.operand(c, a, pc, &mut reads)?;
                    let (rb, kb) = walk.operand(c, b, pc, &mut reads)?;
                    let di = walk.rflat(c, dst);
                    let known = known2(guard, ka, kb, |x, y| semantics::shift(f, x, y));
                    pending.push(PendingWrite {
                        key: (false, di as u32),
                        at,
                        guard,
                        known: Known::Reg(known),
                        node: nodes.len(),
                    });
                    nodes.push(Node {
                        guard,
                        op: RtOp::Shift {
                            op: f,
                            dst: di as u32,
                            a: ra,
                            b: rb,
                        },
                        reads,
                        write: Some((false, di as u32)),
                        is_load: false,
                        is_store: false,
                        is_swap: false,
                    });
                }
                DKind::Mul { kind, dst, a, b } => {
                    let (ra, ka) = walk.operand(c, a, pc, &mut reads)?;
                    let (rb, kb) = walk.operand(c, b, pc, &mut reads)?;
                    let di = walk.rflat(c, dst);
                    let known = known2(guard, ka, kb, |x, y| semantics::mul(kind, x, y));
                    pending.push(PendingWrite {
                        key: (false, di as u32),
                        at,
                        guard,
                        known: Known::Reg(known),
                        node: nodes.len(),
                    });
                    nodes.push(Node {
                        guard,
                        op: RtOp::Mul {
                            kind,
                            dst: di as u32,
                            a: ra,
                            b: rb,
                        },
                        reads,
                        write: Some((false, di as u32)),
                        is_load: false,
                        is_store: false,
                        is_swap: false,
                    });
                }
                DKind::Cmp { op: f, dst, a, b } => {
                    let (ra, ka) = walk.operand(c, a, pc, &mut reads)?;
                    let (rb, kb) = walk.operand(c, b, pc, &mut reads)?;
                    let di = walk.pflat(c, dst);
                    let known = match (guard, ka, kb) {
                        (None, Some(x), Some(y)) => Some(semantics::cmp(f, x, y)),
                        _ => None,
                    };
                    pending.push(PendingWrite {
                        key: (true, di as u32),
                        at,
                        guard,
                        known: Known::Pred(known),
                        node: nodes.len(),
                    });
                    nodes.push(Node {
                        guard,
                        op: RtOp::Cmp {
                            op: f,
                            dst: di as u32,
                            a: ra,
                            b: rb,
                        },
                        reads,
                        write: Some((true, di as u32)),
                        is_load: false,
                        is_store: false,
                        is_swap: false,
                    });
                }
                DKind::Load { dst, addr, bank } => {
                    let ra = walk.addr(c, addr, pc, &mut reads)?;
                    let di = walk.rflat(c, dst);
                    let mi = usize::from(c) * walk.nbanks + usize::from(bank);
                    pending.push(PendingWrite {
                        key: (false, di as u32),
                        at,
                        guard,
                        known: Known::Reg(None),
                        node: nodes.len(),
                    });
                    nodes.push(Node {
                        guard,
                        op: RtOp::Load {
                            dst: di as u32,
                            mem: mi as u32,
                            addr: ra,
                        },
                        reads,
                        write: Some((false, di as u32)),
                        is_load: true,
                        is_store: false,
                        is_swap: false,
                    });
                }
                DKind::Store { src, addr, bank } => {
                    let ra = walk.addr(c, addr, pc, &mut reads)?;
                    let (rs, _) = walk.operand(c, src, pc, &mut reads)?;
                    let mi = usize::from(c) * walk.nbanks + usize::from(bank);
                    nodes.push(Node {
                        guard,
                        op: RtOp::Store {
                            mem: mi as u32,
                            addr: ra,
                            src: rs,
                        },
                        reads,
                        write: None,
                        is_load: false,
                        is_store: true,
                        is_swap: false,
                    });
                }
                DKind::Xfer { dst, from, src } => {
                    let known = walk.read_reg(from, src, pc)?;
                    let si = walk.rflat(from, src);
                    reads.push((false, si as u32));
                    let di = walk.rflat(c, dst);
                    let known = if guard.is_some() { None } else { known };
                    pending.push(PendingWrite {
                        key: (false, di as u32),
                        at,
                        guard,
                        known: Known::Reg(known),
                        node: nodes.len(),
                    });
                    nodes.push(Node {
                        guard,
                        op: RtOp::AluUn {
                            op: AluUnOp::Mov,
                            dst: di as u32,
                            a: RtOperand::Reg(si as u32),
                        },
                        reads,
                        write: Some((false, di as u32)),
                        is_load: false,
                        is_store: false,
                        is_swap: false,
                    });
                }
                DKind::Branch {
                    pred,
                    sense,
                    target,
                } => match walk.read_pred(c, pred, pc)? {
                    Some(v) => {
                        if v == sense {
                            last_branch = Some(target as usize);
                        }
                    }
                    None => {
                        return Err(Unsupported::DataDependentControl { word: pc }.into());
                    }
                },
                DKind::Jump { target } => last_branch = Some(target as usize),
                DKind::Halt => halt = true,
                DKind::Swap { bank } => {
                    let mi = usize::from(c) * walk.nbanks + usize::from(bank);
                    nodes.push(Node {
                        guard,
                        op: RtOp::Swap { mem: mi as u32 },
                        reads,
                        write: None,
                        is_load: false,
                        is_store: false,
                        is_swap: true,
                    });
                }
                DKind::Nop => {}
            }
        }

        walk.schedule(&scratch.pending, pc)?;
        walk.emit_word(&mut scratch, pc)?;

        if halt {
            halt_cycle = walk.cycle;
            break;
        }
        if let Some(target) = last_branch {
            redirect = Some((target, delay_slots));
        }
        match redirect {
            Some((target, 0)) => {
                pc = target;
                redirect = None;
            }
            Some((target, n)) => {
                redirect = Some((target, n - 1));
                pc += 1;
            }
            None => pc += 1,
        }
        walk.cycle += 1;
    }

    // Discard results the halt cut off: the simulator stops draining
    // commits once a halt lands, so anything scheduled past the halt
    // word's cycle never reaches the register files. Rewriting those
    // destinations to the frame's scratch slot reproduces that without
    // a run-time branch.
    let reg_bucket = walk.shape.reg_bucket();
    let pred_bucket = walk.shape.pred_bucket();
    for &(idx, at) in &walk.write_log {
        if at <= halt_cycle {
            continue;
        }
        match &mut walk.ops[idx] {
            RtOp::AluBin { dst, .. }
            | RtOp::AluUn { dst, .. }
            | RtOp::Shift { dst, .. }
            | RtOp::Mul { dst, .. }
            | RtOp::Load { dst, .. } => *dst = reg_bucket,
            RtOp::Cmp { dst, .. } => *dst = pred_bucket,
            _ => {}
        }
    }

    Ok(CompiledProgram {
        ops: walk.ops,
        cycles: halt_cycle + 1,
        shape: walk.shape,
        folded: None,
    })
}

/// Known-value propagation for a one-operand result: known only when
/// the op unconditionally executes and its operand is known.
fn known1(guard: Option<(u32, bool)>, a: Option<i16>, f: impl Fn(i16) -> i16) -> Option<i16> {
    match (guard, a) {
        (None, Some(x)) => Some(f(x)),
        _ => None,
    }
}

/// Two-operand twin of [`known1`].
fn known2(
    guard: Option<(u32, bool)>,
    a: Option<i16>,
    b: Option<i16>,
    f: impl Fn(i16, i16) -> i16,
) -> Option<i16> {
    match (guard, a, b) {
        (None, Some(x), Some(y)) => Some(f(x, y)),
        _ => None,
    }
}
