//! Seeded random generators for well-formed VLIW programs and
//! compilable IR kernels.
//!
//! Both generators take an explicit [`SmallRng`] so every emitted
//! artifact is reproducible from a single `u64` seed — the fuzz driver
//! prints the seed of a failing case and `--cases 1 --seed <n>` replays
//! it exactly.
//!
//! # Program generation
//!
//! [`gen_program`] emits straight-line-equivalent VLIW programs that a
//! correct simulator must execute without faulting, on the machine they
//! were generated for:
//!
//! * **structural legality** — every candidate operation is replayed
//!   through a [`CycleReservation`] before being accepted, so slot
//!   capabilities, crossbar ports and bank bindings are respected by
//!   construction;
//! * **hazard freedom** — a per-(cluster, register) ready-cycle table
//!   mirrors the machine's bypass latencies ([`LatencyModel`]); an
//!   operation may read *or* overwrite a register only once the
//!   producing operation's result has entered the bypass network. Since
//!   the generator never races the pipeline, [`HazardPolicy::Fault`]
//!   must never fire;
//! * **linear control flow** — branches and jumps only ever target the
//!   fall-through word after the machine's delay slots, so the executed
//!   word sequence equals the program order and
//!   `cycles == words + icache_stall_cycles` holds exactly (programs are
//!   much shorter than the instruction cache, so the only stalls are the
//!   cold-miss-free warm start).
//!
//! [`HazardPolicy::Fault`]: vsp_sim::HazardPolicy
//!
//! # Kernel generation
//!
//! [`gen_kernel`] builds a counted-loop IR kernel — load from an input
//! array, a short random dataflow chain (ALU, shifts, wide multiplies,
//! optional compare + `if`/`else`), store to an output array — that the
//! standard compilation recipe (if-convert, CSE, lower, list-schedule,
//! codegen) can compile for **every** machine model, giving the oracle a
//! semantic reference independent of the scheduler: the IR interpreter.

use rand::rngs::SmallRng;
use rand::Rng;
use vsp_core::{CycleReservation, LatencyModel, MachineConfig, MulWidth};
use vsp_ir::{ArrayId, Kernel, KernelBuilder};
use vsp_isa::{
    AddrMode, AluBinOp, AluUnOp, CmpOp, MemBank, MulKind, OpKind, Operand, Operation, Pred,
    PredGuard, Program, Reg, ShiftOp,
};

/// Tunables for [`gen_program`].
#[derive(Debug, Clone)]
pub struct ProgramGenConfig {
    /// Number of instruction words before the final halt word.
    pub words: usize,
    /// Maximum operation candidates attempted per word.
    pub ops_per_word: u32,
    /// Probability that a word carries a control-slot branch or jump.
    pub branch_prob: f64,
    /// Probability that an eligible operation carries a predicate guard.
    pub guard_prob: f64,
}

impl Default for ProgramGenConfig {
    fn default() -> Self {
        ProgramGenConfig {
            words: 24,
            ops_per_word: 8,
            branch_prob: 0.15,
            guard_prob: 0.15,
        }
    }
}

/// Registers per cluster the generator draws from (capped for
/// dependence density — a 128-entry file would rarely collide).
const REG_UNIVERSE: u16 = 24;
/// Predicates per cluster the generator draws from.
const PRED_UNIVERSE: u8 = 6;
/// Address range used within each bank (capped so distinct memory
/// operations collide often enough to exercise store-to-load paths).
const ADDR_UNIVERSE: u16 = 48;

/// Per-machine generation state: the first cycle at which each register
/// and predicate may be read or overwritten again, one row per cluster
/// over the registers and predicates the generator draws from.
struct BusyTable {
    regs: Vec<Vec<u64>>,
    preds: Vec<Vec<u64>>,
}

impl BusyTable {
    fn new(machine: &MachineConfig) -> Self {
        let clusters = machine.clusters as usize;
        let reg_cap = (machine.cluster.registers as u16).min(REG_UNIVERSE);
        let pred_cap = (machine.cluster.pred_regs as u8).min(PRED_UNIVERSE);
        BusyTable {
            regs: vec![vec![0; reg_cap as usize]; clusters],
            preds: vec![vec![0; pred_cap as usize]; clusters],
        }
    }

    /// A register on `cluster` ready at `cycle`, chosen uniformly.
    fn ready_reg(&self, rng: &mut SmallRng, cluster: u8, cycle: u64) -> Option<Reg> {
        pick_ready(rng, &self.regs[cluster as usize], cycle).map(|r| Reg(r as u16))
    }

    /// A predicate on `cluster` ready at `cycle`, chosen uniformly.
    fn ready_pred(&self, rng: &mut SmallRng, cluster: u8, cycle: u64) -> Option<Pred> {
        pick_ready(rng, &self.preds[cluster as usize], cycle).map(|p| Pred(p as u8))
    }
}

/// The index of an entry of `ready_at` that is at most `cycle`, chosen
/// uniformly with one draw, or `None` (and no draw) when there is none.
fn pick_ready(rng: &mut SmallRng, ready_at: &[u64], cycle: u64) -> Option<usize> {
    let ready = || ready_at.iter().enumerate().filter(|&(_, &t)| t <= cycle);
    let count = ready().count();
    if count == 0 {
        return None;
    }
    ready().nth(rng.gen_range(0..count)).map(|(i, _)| i)
}

/// A register source or a small immediate, biased half/half.
fn rand_operand(rng: &mut SmallRng, busy: &BusyTable, cluster: u8, cycle: u64) -> Operand {
    if rng.gen_bool(0.5) {
        if let Some(r) = busy.ready_reg(rng, cluster, cycle) {
            return Operand::Reg(r);
        }
    }
    Operand::Imm(rng.gen_range(-100i16..=100))
}

/// Generates a hazard-free, structurally legal program for `machine`.
///
/// The returned program always ends in a halt word and fits the
/// instruction cache by a wide margin, so a correct simulator runs it to
/// completion with `cycles == words + icache_stall_cycles`.
pub fn gen_program(machine: &MachineConfig, rng: &mut SmallRng, cfg: &ProgramGenConfig) -> Program {
    let lat = LatencyModel::new(machine);
    let mut busy = BusyTable::new(machine);
    let mut program = Program::new("fuzz");
    let clusters = machine.clusters as u8;
    let bds = machine.pipeline.branch_delay_slots as usize;
    let (bcluster, bslot) = machine.branch_slot();
    let program_len = cfg.words + 1; // body + halt word

    // One reservation serves every word: each word's ops are released
    // from it once the word is complete.
    let mut reservation = CycleReservation::new(machine);
    // Registers/predicates already written this word (same-word double
    // writes would commit in program order — legal, but it makes
    // differential triage noisier than it is worth).
    let mut wrote_regs: Vec<(u8, u16)> = Vec::new();
    let mut wrote_preds: Vec<(u8, u8)> = Vec::new();

    for w in 0..cfg.words {
        let cycle = w as u64;
        let mut word: Vec<Operation> = Vec::new();
        wrote_regs.clear();
        wrote_preds.clear();

        // Control slot first: at most one branch or jump per word, only
        // to the fall-through point after the delay slots.
        let fall_through = w + 1 + bds;
        if fall_through < program_len && rng.gen_bool(cfg.branch_prob) {
            let kind = if rng.gen_bool(0.5) {
                busy.ready_pred(rng, bcluster, cycle)
                    .map(|pred| OpKind::Branch {
                        pred,
                        sense: rng.gen_bool(0.5),
                        target: fall_through,
                    })
            } else {
                Some(OpKind::Jump {
                    target: fall_through,
                })
            };
            if let Some(kind) = kind {
                let op = Operation::new(bcluster, bslot, kind);
                if reservation.try_reserve(machine, &op).is_ok() {
                    word.push(op);
                }
            }
        }

        let attempts = rng.gen_range(1..=cfg.ops_per_word);
        for _ in 0..attempts {
            let cluster = rng.gen_range(0..clusters);
            let Some(kind) = rand_op_kind(machine, rng, &busy, cluster, cycle) else {
                continue;
            };

            // Destination discipline: never overwrite a value still in
            // flight, never write one destination twice in a word.
            if let Some(d) = kind.def_reg() {
                if wrote_regs.contains(&(cluster, d.0)) {
                    continue;
                }
            }
            if let Some(p) = kind.def_pred() {
                if wrote_preds.contains(&(cluster, p.0)) {
                    continue;
                }
            }

            // Optional guard on guardable operations.
            let guard = if kind.def_reg().is_some() && rng.gen_bool(cfg.guard_prob) {
                busy.ready_pred(rng, cluster, cycle).map(|p| {
                    if rng.gen_bool(0.5) {
                        PredGuard::if_true(p)
                    } else {
                        PredGuard::if_false(p)
                    }
                })
            } else {
                None
            };

            // Place on a free capable slot; replay through the
            // reservation to keep the word structurally legal.
            let class = kind.fu_class().expect("generator never emits no-ops");
            let free = || {
                machine
                    .cluster
                    .slots_for(class)
                    .filter(|&s| !reservation.slot_busy(cluster, s))
            };
            let free_count = free().count();
            if free_count == 0 {
                continue;
            }
            let slot = free()
                .nth(rng.gen_range(0..free_count))
                .expect("drawn below the count");
            let op = match guard {
                Some(g) => Operation::guarded(cluster, slot, g, kind),
                None => Operation::new(cluster, slot, kind),
            };
            if reservation.try_reserve(machine, &op).is_err() {
                continue;
            }

            // Commit latency bookkeeping only for accepted operations.
            let latency = u64::from(lat.latency(&op.kind));
            if let Some(d) = op.kind.def_reg() {
                busy.regs[cluster as usize][d.index()] = cycle + latency;
                wrote_regs.push((cluster, d.0));
            }
            if let Some(p) = op.kind.def_pred() {
                busy.preds[cluster as usize][p.index()] = cycle + latency;
                wrote_preds.push((cluster, p.0));
            }
            word.push(op);
        }

        for op in &word {
            reservation.release(op);
        }
        program.push_word(word);
    }

    let (hc, hs) = machine.branch_slot();
    program.push_word(vec![Operation::new(hc, hs, OpKind::Halt)]);
    program
}

/// Draws one operation kind whose sources are all ready on `cluster` at
/// `cycle`. Returns `None` when the roll demands a register none is
/// ready for (the caller simply skips the attempt).
fn rand_op_kind(
    machine: &MachineConfig,
    rng: &mut SmallRng,
    busy: &BusyTable,
    cluster: u8,
    cycle: u64,
) -> Option<OpKind> {
    /// The binary ALU ops; the last, `AbsDiff`, only where the machine
    /// has it.
    const ALU_BIN: [AluBinOp; 8] = [
        AluBinOp::Add,
        AluBinOp::Sub,
        AluBinOp::And,
        AluBinOp::Or,
        AluBinOp::Xor,
        AluBinOp::Min,
        AluBinOp::Max,
        AluBinOp::AbsDiff,
    ];
    /// The multiplies; the 16-bit pair only on 16-bit multipliers.
    const MUL: [MulKind; 5] = [
        MulKind::Mul8SS,
        MulKind::Mul8UU,
        MulKind::Mul8SU,
        MulKind::Mul16Lo,
        MulKind::Mul16Hi,
    ];
    let dst = busy.ready_reg(rng, cluster, cycle);
    let roll = rng.gen_range(0u32..100);
    match roll {
        0..=29 => {
            let ops = &ALU_BIN[..if machine.has_absdiff { 8 } else { 7 }];
            Some(OpKind::AluBin {
                op: ops[rng.gen_range(0..ops.len())],
                dst: dst?,
                a: rand_operand(rng, busy, cluster, cycle),
                b: rand_operand(rng, busy, cluster, cycle),
            })
        }
        30..=44 => {
            let ops = [
                AluUnOp::Mov,
                AluUnOp::Abs,
                AluUnOp::Neg,
                AluUnOp::Not,
                AluUnOp::SextB,
                AluUnOp::ZextB,
            ];
            Some(OpKind::AluUn {
                op: ops[rng.gen_range(0..ops.len())],
                dst: dst?,
                a: rand_operand(rng, busy, cluster, cycle),
            })
        }
        45..=54 => {
            let ops = [ShiftOp::Shl, ShiftOp::ShrL, ShiftOp::ShrA];
            Some(OpKind::Shift {
                op: ops[rng.gen_range(0..ops.len())],
                dst: dst?,
                a: rand_operand(rng, busy, cluster, cycle),
                b: Operand::Imm(rng.gen_range(0i16..16)),
            })
        }
        55..=64 => {
            let kinds = &MUL[..if machine.mul_width == MulWidth::Sixteen {
                5
            } else {
                3
            }];
            Some(OpKind::Mul {
                kind: kinds[rng.gen_range(0..kinds.len())],
                dst: dst?,
                a: rand_operand(rng, busy, cluster, cycle),
                b: rand_operand(rng, busy, cluster, cycle),
            })
        }
        65..=74 => {
            let ops = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
            // Any predicate destination that is not in flight works; the
            // ready_pred sampler enforces exactly that.
            let dstp = busy.ready_pred(rng, cluster, cycle)?;
            Some(OpKind::Cmp {
                op: ops[rng.gen_range(0..ops.len())],
                dst: dstp,
                a: rand_operand(rng, busy, cluster, cycle),
                b: rand_operand(rng, busy, cluster, cycle),
            })
        }
        75..=84 => {
            let (bank, addr) = rand_addr(machine, rng);
            Some(OpKind::Load {
                dst: dst?,
                addr,
                bank,
            })
        }
        85..=92 => {
            let (bank, addr) = rand_addr(machine, rng);
            Some(OpKind::Store {
                src: rand_operand(rng, busy, cluster, cycle),
                addr,
                bank,
            })
        }
        93..=97 if machine.clusters > 1 => {
            let mut from = rng.gen_range(0..machine.clusters as u8);
            if from == cluster {
                from = (from + 1) % machine.clusters as u8;
            }
            Some(OpKind::Xfer {
                dst: dst?,
                from,
                src: busy.ready_reg(rng, from, cycle)?,
            })
        }
        _ => None,
    }
}

/// A random (bank, absolute address) pair valid on `machine`.
fn rand_addr(machine: &MachineConfig, rng: &mut SmallRng) -> (MemBank, AddrMode) {
    let banks = machine.cluster.banks.len().max(1);
    let bank = rng.gen_range(0..banks) as u8;
    let cap = machine.cluster.banks[bank as usize]
        .words
        .min(u32::from(ADDR_UNIVERSE));
    (
        MemBank(bank),
        AddrMode::Absolute(rng.gen_range(0..cap) as u16),
    )
}

/// Tunables for [`gen_kernel`].
#[derive(Debug, Clone)]
pub struct KernelGenConfig {
    /// Minimum array length (and loop trip count).
    pub min_len: u32,
    /// Maximum array length (and loop trip count).
    pub max_len: u32,
    /// Maximum dataflow-chain depth between the load and the store.
    pub max_chain: u32,
    /// Probability that the chain contains a compare + `if`/`else`.
    pub if_prob: f64,
}

impl Default for KernelGenConfig {
    fn default() -> Self {
        KernelGenConfig {
            min_len: 8,
            max_len: 32,
            max_chain: 4,
            if_prob: 0.4,
        }
    }
}

/// A generated kernel plus the handles the oracle needs to stage inputs
/// and read back results.
#[derive(Debug, Clone)]
pub struct GeneratedKernel {
    /// The IR kernel (one counted loop, flat body).
    pub kernel: Kernel,
    /// Input array, to be filled with test data.
    pub input: ArrayId,
    /// Output array, written once per iteration.
    pub output: ArrayId,
    /// Element count of both arrays (= the trip count).
    pub len: u32,
}

/// Generates a compilable counted-loop kernel: `out[i] = f(in[i])` for a
/// random dataflow chain `f`.
///
/// The chain draws from ALU binaries (including `AbsDiff`, which
/// lowering expands on machines without the special operator), unary
/// ops, shifts, wide multiplies by small constants (expanded to partial
/// products on 8-bit-multiplier machines) and an optional compare +
/// `if`/`else` (if-converted to guards by the standard recipe), so the
/// same kernel is compilable — and must agree with the IR interpreter —
/// on every model.
pub fn gen_kernel(rng: &mut SmallRng, cfg: &KernelGenConfig) -> GeneratedKernel {
    let len = rng.gen_range(cfg.min_len..=cfg.max_len);
    let mut b = KernelBuilder::new("fuzzkern");
    let input = b.array("in", len);
    let output = b.array("out", len);
    let chain = rng.gen_range(1..=cfg.max_chain);
    let with_if = rng.gen_bool(cfg.if_prob);
    // Pre-roll the chain so the closure below stays deterministic.
    let steps: Vec<(u32, i16)> = (0..chain)
        .map(|_| (rng.gen_range(0u32..4), rng.gen_range(-11i16..=11)))
        .collect();
    let cmp_ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let cmp_op = cmp_ops[rng.gen_range(0..cmp_ops.len())];
    let bin_ops = [
        AluBinOp::Add,
        AluBinOp::Sub,
        AluBinOp::And,
        AluBinOp::Or,
        AluBinOp::Xor,
        AluBinOp::Min,
        AluBinOp::Max,
        AluBinOp::AbsDiff,
    ];
    let bin_rolls: Vec<usize> = (0..chain as usize)
        .map(|_| rng.gen_range(0..bin_ops.len()))
        .collect();
    let shift_amt = rng.gen_range(0i16..8);

    b.count_loop("i", 0, 1, len, |b, i| {
        let x = b.load("x", input, i);
        let mut cur = x;
        for (step, &(kind, konst)) in steps.iter().enumerate() {
            cur = match kind {
                0 => b.bin_new("t", bin_ops[bin_rolls[step]], cur, konst),
                1 => b.un_new("u", AluUnOp::Abs, cur),
                2 => b.shift_new("s", ShiftOp::ShrA, cur, shift_amt),
                _ => b.mul_new("m", cur, konst),
            };
        }
        if with_if {
            let p = b.cmp_new("p", cmp_op, cur, 0i16);
            let sel = b.var("sel");
            b.if_else(
                p,
                |bb| {
                    bb.bin(sel, AluBinOp::Add, cur, 1i16);
                },
                |bb| {
                    bb.bin(sel, AluBinOp::Sub, cur, 1i16);
                },
            );
            b.store(output, i, sel);
        } else {
            b.store(output, i, cur);
        }
    });

    GeneratedKernel {
        kernel: b.finish(),
        input,
        output,
        len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vsp_core::models;

    #[test]
    fn generated_programs_validate_on_their_machine() {
        for machine in models::all_models() {
            for seed in 0..8u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let p = gen_program(&machine, &mut rng, &ProgramGenConfig::default());
                vsp_core::validate_program(&machine, &p)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e:?}", machine.name));
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let machine = models::i4c8s4();
        let cfg = ProgramGenConfig::default();
        let a = gen_program(&machine, &mut SmallRng::seed_from_u64(7), &cfg);
        let b = gen_program(&machine, &mut SmallRng::seed_from_u64(7), &cfg);
        assert_eq!(a.len(), b.len());
        for w in 0..a.len() {
            assert_eq!(a.word(w), b.word(w));
        }
        let c = gen_program(&machine, &mut SmallRng::seed_from_u64(8), &cfg);
        assert!((0..a.len().min(c.len())).any(|w| a.word(w) != c.word(w)));
    }

    #[test]
    fn generated_kernels_interpret() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let k = gen_kernel(&mut rng, &KernelGenConfig::default());
            let mut interp = vsp_ir::Interpreter::new(&k.kernel);
            interp.set_array(k.input, (0..k.len as i16).map(|v| v - 5).collect());
            interp.run().unwrap();
            assert_eq!(interp.array(k.output).len(), k.len as usize);
        }
    }
}
