//! Batched execution: N runs of one decoded program at once.
//!
//! A differential campaign replays the *same program* on many lanes
//! that differ only in initial state. The paper's datapath has no
//! interlocks and every kernel is statically scheduled, so quiet runs
//! of one program stay in lockstep — one pc, one cycle count, one
//! scoreboard — until data-dependent control splits them. This module
//! exploits exactly that:
//!
//! * **One decode.** A shared [`DecodedProgram`] (from
//!   [`DecodedProgram::prepare`]) is borrowed by the whole batch.
//! * **One control walk.** Fetch, icache, scoreboard checks, write-port
//!   arbitration, commit scheduling and branch resolution run once per
//!   word on a single shared copy of the timing state. Only the data —
//!   registers, predicates, local SRAM and in-flight results — lives
//!   per lane, in flat struct-of-arrays rows laid out `[run0, run1, …]`,
//!   so each operation's `match` is dispatched once and its body sweeps
//!   contiguous lanes.
//! * **Arena allocation.** All pools come from a [`BatchArena`] owned
//!   by the [`BatchSimulator`]; they are grow-only and reused across
//!   calls, so a long campaign allocates next to nothing per batch.
//!
//! # Lockstep or refuse
//!
//! A batch runs in lockstep to the end or is refused. Lanes retire one
//! by one only at their own cycle budgets; a halt, or running off the
//! program end, retires them all together. As soon as the lanes could
//! part — a guard or branch predicate row that is not the same in every
//! lane, a premature read, a write-port conflict, or any lane's load or
//! store address out of range — the batch stops with a typed
//! [`Refusal`] and no lane's result stands. There is no fault model and
//! no fallback executor: like the functional tier, the engine is sound
//! by refusal, and the caller decides what a refusal means.
//!
//! # Bit-identity contract
//!
//! Every lane of a batch that is not refused produces the exact
//! [`RunStats`] and [`ArchState`] — and on failure the exact
//! [`SimError`] — that a scalar `Simulator` given the same machine,
//! program and initial state would produce. `tests/batch_diff.rs` pins
//! this across every kernel × machine model of the paper.

use crate::decoded::{DAddr, DKind, DOperand, DecodedProgram, NO_GUARD};
use crate::error::SimError;
use crate::memory::{rows_per_buffer, Buffer, LocalMemory, ROW_WORDS};
use crate::simulator::{ArchState, PENDING_SLOTS};
use crate::stats::RunStats;
use std::collections::BTreeMap;
use std::fmt;
use vsp_core::MachineConfig;
use vsp_isa::{
    semantics, AluBinOp, AluUnOp, ClusterId, CmpOp, FuClass, MulKind, Pred, Reg, ShiftOp,
};

/// Initial state and budget for one lane of a batch.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Cycle budget; the lane retires with [`SimError::CycleLimit`]
    /// when it is exhausted before a halt commits.
    pub max_cycles: u64,
    /// Initial register values, applied before the first cycle.
    pub regs: Vec<(ClusterId, Reg, i16)>,
    /// Initial predicate values.
    pub preds: Vec<(ClusterId, Pred, bool)>,
    /// Initial processing-buffer memory words as
    /// `(cluster, bank, addr, value)`.
    pub mem: Vec<(ClusterId, u8, u32, i16)>,
}

impl RunSpec {
    /// A lane with zeroed initial state.
    #[must_use]
    pub fn new(max_cycles: u64) -> Self {
        RunSpec {
            max_cycles,
            regs: Vec::new(),
            preds: Vec::new(),
            mem: Vec::new(),
        }
    }

    /// Panics unless every initial register, predicate and memory word
    /// lies inside `machine`.
    fn assert_fits(&self, machine: &MachineConfig) {
        let clusters = machine.clusters as usize;
        for &(c, r, _) in &self.regs {
            assert!(
                (c as usize) < clusters && r.index() < machine.cluster.registers as usize,
                "initial register outside machine"
            );
        }
        for &(c, p, _) in &self.preds {
            assert!(
                (c as usize) < clusters && p.index() < machine.cluster.pred_regs as usize,
                "initial predicate outside machine"
            );
        }
        for &(c, b, addr, _) in &self.mem {
            assert!(
                (c as usize) < clusters
                    && machine
                        .cluster
                        .banks
                        .get(b as usize)
                        .is_some_and(|bank| addr < bank.words),
                "initial memory word outside machine"
            );
        }
    }
}

/// Everything one lane retired with.
#[derive(Debug, Clone)]
pub struct LaneOutcome {
    /// Statistics, identical to what `Simulator::stats` would report.
    pub stats: RunStats,
    /// Final architectural state (identical to `Simulator::arch_state`).
    pub state: ArchState,
    /// How the lane ended: `None` for a committed halt, otherwise the
    /// exact error the scalar path would have returned.
    pub error: Option<SimError>,
}

impl LaneOutcome {
    /// Whether the lane ran to a committed halt.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.error.is_none()
    }
}

/// One lane of [`BatchSimulator::run_batch_against`]: a
/// [`LaneOutcome`] whose state was judged against a reference instead
/// of gathered.
#[derive(Debug, Clone)]
pub struct LaneVerdict {
    /// Statistics, identical to what `Simulator::stats` would report.
    pub stats: RunStats,
    /// `None` when the lane's final [`ArchState`] equals the reference;
    /// otherwise that state, gathered so the caller can show where it
    /// differs.
    pub diverged: Option<ArchState>,
    /// How the lane ended, as in [`LaneOutcome::error`].
    pub error: Option<SimError>,
}

/// Why [`BatchSimulator`] refused a batch: at instruction word `word`
/// the lanes could part, so no lane's lockstep result stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refusal {
    /// Index of the word that would have split the lanes.
    pub word: u32,
    /// What could split them there.
    pub cause: PartCause,
}

/// What stops a batch from staying in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartCause {
    /// A guard or branch predicate row differs between lanes.
    Predicate,
    /// A register or predicate is read before its producer commits.
    PrematureRead,
    /// Two results reach one write port in the same cycle.
    PortConflict,
    /// Some lane's load or store address lies outside its bank.
    OutOfRange,
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cause = match self.cause {
            PartCause::Predicate => "a guard or branch predicate differs between lanes",
            PartCause::PrematureRead => "an operand is read before its producer commits",
            PartCause::PortConflict => "two results reach one write port in the same cycle",
            PartCause::OutOfRange => "a lane's load or store address is out of range",
        };
        write!(f, "lanes left lockstep at word {}: {cause}", self.word)
    }
}

impl std::error::Error for Refusal {}

/// How one lockstep word ended.
enum Word {
    /// The word issued; the lanes run on.
    Issued,
    /// The word issued and committed a halt.
    Halted,
    /// Fetch ran past the program end.
    RanOffEnd,
    /// Lanes could part here: the batch is refused.
    Parted(PartCause),
}

/// The batch-lifetime arena: every pool the lockstep engine needs,
/// owned by the [`BatchSimulator`] and resized (never shrunk) per
/// batch.
///
/// Per-lane data of logical shape `[dims…]` is stored flat as
/// `f[(flatten(dims…)) * lanes + lane]`, so sweeping one row across the
/// batch touches contiguous memory. Timing state is shared by every
/// live lane; a lane's cycle, halt flag, buffer selection and
/// statistics are copied out of it when the lane retires.
#[derive(Debug, Default)]
pub struct BatchArena {
    // Shape of the current batch (set by `reset`).
    nl: usize,
    nc: usize,
    nr: usize,
    np: usize,
    nb: usize,
    stride: usize,
    icap: usize,
    plen: usize,
    nclass: usize,
    hist_bins: usize,
    // Per-lane data, SoA.
    regs: Vec<i16>,
    preds: Vec<bool>,
    /// The local memories of every lane.
    sram: SramPool,
    // Per-lane results, written when the lane retires.
    lane_cycle: Vec<u64>,
    lane_halted: Vec<bool>,
    /// Which buffer of each `(cluster, bank)` is the lane's processing
    /// buffer, `[(c * nb + b) * lanes + lane]`.
    lane_mem_active: Vec<u8>,
    lane_errs: Vec<Option<SimError>>,
    lane_stats: Vec<RunStats>,
    budgets: Vec<u64>,
    /// Live lanes, ascending.
    active: Vec<u32>,
    // Per-word aggregates over unguarded ops (every live lane executes
    // them, so their issue/class/cluster counts are word constants),
    // indexed by word. Computed once per batch.
    agg_issued: Vec<u32>,
    agg_class: Vec<u32>,
    agg_cluster: Vec<u32>,
    // Shared timing state: one copy for every live lane.
    pc: u32,
    cycle: u64,
    drained: u64,
    redirect: Option<(u32, u32)>,
    reg_ready: Vec<u64>,
    pred_ready: Vec<u64>,
    itags: Vec<u32>,
    mem_active: Vec<u8>,
    /// Shared pending-commit ring: one key/latency schedule for the
    /// whole batch, values as lane rows (`(slot * ring_cap + j) * nl`).
    /// Keys are `field_index << 1 | is_pred`.
    ring_key: Vec<u32>,
    ring_len: Vec<u16>,
    ring_val: Vec<i16>,
    ring_cap: usize,
    pending: u32,
    /// Far (latency 0 or beyond the ring) commits: value rows per key.
    far: BTreeMap<u64, Vec<(u32, Vec<i16>)>>,
    // Shared statistics, folded into a `RunStats` per retiring lane.
    counts: RunStats,
    class_ops: Vec<u64>,
    cluster_ops: Vec<u64>,
    /// Flat utilisation histogram, `cluster * hist_bins + ops`.
    util_hist: Vec<u64>,
    // Per-word scratch.
    wr: Vec<(u32, u32)>,
    wp: Vec<(u32, u32)>,
    ann: Vec<bool>,
    dest_r: Vec<u32>,
    dest_p: Vec<u32>,
    ovl: Vec<(u32, u64)>,
    farmeta: Vec<(u64, u32, u32)>,
    farbuf: Vec<i16>,
    sw: Vec<u32>,
    gclass: Vec<u32>,
    gcluster: Vec<u32>,
    /// Buffered stores, `stride` entries per lane:
    /// `(cluster * banks + bank, addr, value)`.
    st: Vec<(u32, u32, i16)>,
}

/// The local memories of every lane of a batch, stored like
/// [`LocalMemory`]: only the 64-word rows some lane has written exist,
/// each one a slot holding that row for every lane. A row id is
/// numbered as in `LocalMemory`, `buffer * rows + row`, per
/// `(cluster, bank)`.
#[derive(Debug, Default)]
struct SramPool {
    /// Words per buffer of each `(cluster, bank)`, as `cluster * banks +
    /// bank`.
    words: Vec<u32>,
    /// Index of each `(cluster, bank)`'s first row id in `slot`.
    base: Vec<usize>,
    /// 1 + the slot holding each row id, or 0 for a row no lane wrote.
    slot: Vec<u32>,
    /// `(cluster * banks + bank, row id)` of each slot.
    held: Vec<(u32, u32)>,
    /// Slot `s` holds word `w` of its row for lane `l` at
    /// `(s * ROW_WORDS + w) * lanes + l`.
    data: Vec<i16>,
}

impl SramPool {
    /// Empties the pool and shapes it for `machine`. Costs the rows the
    /// last batch wrote, plus the row table when the machine changes.
    fn reset(&mut self, machine: &MachineConfig) {
        for &(cb, id) in &self.held {
            self.slot[self.base[cb as usize] + id as usize] = 0;
        }
        self.held.clear();
        self.data.clear();
        self.words.clear();
        self.base.clear();
        let mut ids = 0;
        for _ in 0..machine.clusters {
            for bank in &machine.cluster.banks {
                self.words.push(bank.words);
                self.base.push(ids);
                ids += 2 * rows_per_buffer(bank.words);
            }
        }
        // The table is all zeros again, so only a new shape refills it.
        if self.slot.len() != ids {
            pool(&mut self.slot, ids, 0);
        }
    }

    /// The slot entries of physical buffer `buffer` of bank `cb`, one
    /// per row.
    #[inline]
    fn buffer_slots(&self, cb: usize, buffer: usize) -> &[u32] {
        let rows = rows_per_buffer(self.words[cb]);
        &self.slot[self.base[cb] + buffer * rows..][..rows]
    }

    /// Stores `v` at word `addr` (in range) of physical buffer `buffer`
    /// of bank `cb` for lane `lane` of `lanes`, mapping the row if no
    /// lane wrote it yet.
    #[inline]
    fn store(&mut self, cb: usize, buffer: usize, addr: u32, lane: usize, lanes: usize, v: i16) {
        let id = buffer * rows_per_buffer(self.words[cb]) + addr as usize / ROW_WORDS;
        let entry = &mut self.slot[self.base[cb] + id];
        if *entry == 0 {
            self.held.push((cb as u32, id as u32));
            *entry = self.held.len() as u32;
            self.data.resize(self.data.len() + ROW_WORDS * lanes, 0);
        }
        let slot = *entry as usize - 1;
        self.data[(slot * ROW_WORDS + addr as usize % ROW_WORDS) * lanes + lane] = v;
    }

    /// Lane `lane`'s words of slot `slot`.
    fn lane_row(&self, slot: usize, lane: usize, lanes: usize) -> [i16; ROW_WORDS] {
        let row = &self.data[slot * ROW_WORDS * lanes..][..ROW_WORDS * lanes];
        std::array::from_fn(|w| row[w * lanes + lane])
    }
}

/// Clears and resizes a pool without giving up its capacity. A pool
/// too small for `n` is allocated afresh instead: `vec![0; n]` asks the
/// allocator for zeroed memory, which it can hand out as fresh pages
/// without touching them, where growing in place writes every element.
fn pool<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
    if v.capacity() < n {
        *v = vec![fill; n];
    } else {
        v.clear();
        v.resize(n, fill);
    }
}

impl BatchArena {
    /// Shapes the arena for `lanes` runs of `program` on `machine`.
    fn reset(&mut self, machine: &MachineConfig, program: &DecodedProgram, lanes: usize) {
        self.sram.reset(machine);
        let nl = lanes;
        let nc = machine.clusters as usize;
        let nr = machine.cluster.registers as usize;
        let np = machine.cluster.pred_regs as usize;
        let nb = machine.cluster.banks.len();
        self.nl = nl;
        self.nc = nc;
        self.nr = nr;
        self.np = np;
        self.nb = nb;
        self.stride = program.max_word_ops();
        self.icap = machine.icache_words.max(1) as usize;
        self.plen = program.len();
        self.nclass = FuClass::ALL.len();
        // `ops` per cluster-word never exceeds the widest word.
        self.hist_bins = self.stride + 1;

        pool(&mut self.regs, nc * nr * nl, 0);
        pool(&mut self.preds, nc * np * nl, false);

        pool(&mut self.lane_cycle, nl, 0);
        pool(&mut self.lane_halted, nl, false);
        pool(&mut self.lane_mem_active, nc * nb * nl, 0);
        pool(&mut self.lane_errs, nl, None);
        pool(&mut self.lane_stats, nl, RunStats::default());
        pool(&mut self.budgets, nl, 0);
        self.active.clear();

        let nclass = self.nclass;
        pool(&mut self.agg_issued, self.plen, 0);
        pool(&mut self.agg_class, self.plen * nclass, 0);
        pool(&mut self.agg_cluster, self.plen * nc, 0);
        for w in 0..self.plen {
            for i in program.word_range(w) {
                let op = program.op(i);
                if op.guard_pred == NO_GUARD {
                    if let Some(class) = op.class {
                        self.agg_issued[w] += 1;
                        self.agg_class[w * nclass + class as usize] += 1;
                        self.agg_cluster[w * nc + op.cluster as usize] += 1;
                    }
                }
            }
        }

        self.pc = 0;
        self.cycle = 0;
        self.drained = 0;
        self.redirect = None;
        pool(&mut self.reg_ready, nc * nr, 0);
        pool(&mut self.pred_ready, nc * np, 0);
        // Warm the cache exactly like `InstructionCache::warm`.
        pool(&mut self.itags, self.icap, u32::MAX);
        for pc in 0..self.plen.min(self.icap) {
            self.itags[pc % self.icap] = pc as u32;
        }
        pool(&mut self.mem_active, nc * nb, 0);
        // Two words can commit into the same slot (issue cycle plus
        // latency colliding mod the ring size), so give each slot twice
        // the widest word up front; `assign_slots!` grows it if a
        // program still overflows.
        self.ring_cap = self.ring_cap.max(2 * self.stride.max(2));
        pool(&mut self.ring_len, PENDING_SLOTS, 0);
        let need = PENDING_SLOTS * self.ring_cap;
        if self.ring_key.len() < need {
            self.ring_key.resize(need, 0);
        }
        if self.ring_val.len() < need * nl {
            self.ring_val.resize(need * nl, 0);
        }
        self.pending = 0;
        self.far.clear();

        self.counts = RunStats::default();
        pool(&mut self.class_ops, nclass, 0);
        pool(&mut self.cluster_ops, nc, 0);
        pool(&mut self.util_hist, nc * self.hist_bins, 0);
        pool(&mut self.gclass, nclass, 0);
        pool(&mut self.gcluster, nc, 0);
        pool(&mut self.st, self.stride * nl, (0, 0, 0));
    }

    /// Applies one spec's initial state to its lane.
    fn stage(&mut self, lane: usize, spec: &RunSpec) {
        let nl = self.nl;
        for &(c, r, v) in &spec.regs {
            self.regs[(c as usize * self.nr + r.index()) * nl + lane] = v;
        }
        for &(c, p, v) in &spec.preds {
            self.preds[(c as usize * self.np + p.index()) * nl + lane] = v;
        }
        for &(c, b, addr, v) in &spec.mem {
            // Staging targets the processing buffer, which is buffer 0
            // before the first swap.
            let cb = c as usize * self.nb + b as usize;
            self.sram.store(cb, 0, addr, lane, nl, v);
        }
        self.budgets[lane] = spec.max_cycles;
    }

    /// Retires `lane` at the shared state it stopped in, exactly as the
    /// scalar `Simulator::stats` would report it: issue capacity is
    /// `words x peak` by construction, and the utilisation histogram
    /// takes the shape word-by-word recording gives it
    /// (`RunStats::add_util_histogram`).
    fn retire(&mut self, lane: usize, error: Option<SimError>, peak: u32) {
        let nl = self.nl;
        self.lane_cycle[lane] = self.cycle;
        self.lane_halted[lane] = error.is_none();
        self.lane_errs[lane] = error;
        for (cb, &active) in self.mem_active.iter().enumerate() {
            self.lane_mem_active[cb * nl + lane] = active;
        }
        let mut stats = RunStats {
            cycles: self.cycle,
            issue_capacity: self.counts.words * u64::from(peak),
            ..self.counts.clone()
        };
        stats.add_util_histogram(&self.util_hist, self.hist_bins);
        for class in FuClass::ALL {
            let n = self.class_ops[class as usize];
            if n > 0 {
                stats.ops_by_class.insert(class, n);
            }
        }
        for (c, &n) in self.cluster_ops.iter().enumerate() {
            if n > 0 {
                if stats.ops_by_cluster.len() <= c {
                    stats.ops_by_cluster.resize(c + 1, 0);
                }
                stats.ops_by_cluster[c] += n;
            }
        }
        stats.finalize();
        self.lane_stats[lane] = stats;
    }

    /// The rows of `reference` that hold a nonzero word, as
    /// `(cluster * banks + bank, half, row)`, `half` 0 for the
    /// processing buffer and 1 for the I/O buffer; `None` when
    /// `reference` is not shaped like this batch's machine, so no lane
    /// can equal it. Only the rows `reference` stores are visited.
    fn nonzero_rows(&self, reference: &ArchState) -> Option<Vec<(usize, usize, usize)>> {
        let words = &self.sram.words;
        let shaped = reference.regs.len() == self.nc
            && reference.regs.iter().all(|r| r.len() == self.nr)
            && reference.preds.len() == self.nc
            && reference.preds.iter().all(|p| p.len() == self.np)
            && reference.mems.len() == self.nc
            && reference.mems.iter().enumerate().all(|(c, banks)| {
                banks.len() == self.nb
                    && banks
                        .iter()
                        .enumerate()
                        .all(|(b, bank)| bank.words() == words[c * self.nb + b])
            });
        if !shaped {
            return None;
        }
        let mut rows = Vec::new();
        for (c, banks) in reference.mems.iter().enumerate() {
            for (b, bank) in banks.iter().enumerate() {
                for (buffer, start, values) in bank.rows() {
                    if values.iter().any(|&v| v != 0) {
                        let half = usize::from(buffer == Buffer::Io);
                        rows.push((c * self.nb + b, half, start as usize / ROW_WORDS));
                    }
                }
            }
        }
        Some(rows)
    }

    /// Whether `lane`'s final state, as `collect_states` would gather
    /// it, equals `reference` (already known to have this batch's
    /// shape, with `nonzero` its nonzero rows).
    fn lane_matches(
        &self,
        lane: usize,
        reference: &ArchState,
        nonzero: &[(usize, usize, usize)],
    ) -> bool {
        let nl = self.nl;
        if self.lane_cycle[lane] != reference.cycle || self.lane_halted[lane] != reference.halted {
            return false;
        }
        for c in 0..self.nc {
            let regs = (0..self.nr).map(|r| self.regs[(c * self.nr + r) * nl + lane]);
            let preds = (0..self.np).map(|p| self.preds[(c * self.np + p) * nl + lane]);
            if !regs.eq(reference.regs[c].iter().copied())
                || !preds.eq(reference.preds[c].iter().copied())
            {
                return false;
            }
        }
        let sram = &self.sram;
        // A row's buffer is the lane's processing half when it is the
        // lane's active buffer, so `buffer ^ active` is the half.
        let active = |cb: usize| usize::from(self.lane_mem_active[cb * nl + lane]);
        // Every row the batch wrote must hold the reference's words ...
        let written_rows_match = sram.held.iter().enumerate().all(|(slot, &(cb, id))| {
            let (cb, id) = (cb as usize, id as usize);
            let rows = rows_per_buffer(sram.words[cb]);
            let (half, row) = ((id / rows) ^ active(cb), id % rows);
            let bank = &reference.mems[cb / self.nb][cb % self.nb];
            let buffer = if half == 0 {
                Buffer::Processing
            } else {
                Buffer::Io
            };
            let got = sram.lane_row(slot, lane, nl);
            match bank.row_of(buffer, row) {
                Some(want) => got[..] == *want,
                None => got.iter().all(|&v| v == 0),
            }
        });
        // ... and every other row is zero, so each nonzero reference
        // row must be one the batch wrote.
        written_rows_match
            && nonzero
                .iter()
                .all(|&(cb, half, row)| sram.buffer_slots(cb, half ^ active(cb))[row] != 0)
    }

    /// Reconstructs every lane's [`ArchState`] from the SoA pools,
    /// identical lane for lane to the scalar `Simulator::arch_state`.
    ///
    /// The pools are lane-strided, so a per-lane gather would touch one
    /// cache line per element; instead this walks each register and
    /// predicate row in storage order and scatters the `lanes`
    /// contiguous values into the per-lane structures. Only the SRAM
    /// rows the batch wrote exist; each lane's banks take the ones it
    /// left nonzero.
    fn collect_states(&self) -> Vec<ArchState> {
        let nl = self.nl;
        let mut states: Vec<ArchState> = (0..nl)
            .map(|lane| ArchState {
                cycle: self.lane_cycle[lane],
                halted: self.lane_halted[lane],
                regs: vec![vec![0; self.nr]; self.nc],
                preds: vec![vec![false; self.np]; self.nc],
                mems: (0..self.nc)
                    .map(|c| {
                        (0..self.nb)
                            .map(|b| {
                                let cb = c * self.nb + b;
                                let mut bank = LocalMemory::new(self.sram.words[cb]);
                                if self.lane_mem_active[cb * nl + lane] == 1 {
                                    bank.swap();
                                }
                                bank
                            })
                            .collect()
                    })
                    .collect(),
            })
            .collect();
        for c in 0..self.nc {
            for r in 0..self.nr {
                let row = (c * self.nr + r) * nl;
                for (lane, st) in states.iter_mut().enumerate() {
                    st.regs[c][r] = self.regs[row + lane];
                }
            }
            for p in 0..self.np {
                let row = (c * self.np + p) * nl;
                for (lane, st) in states.iter_mut().enumerate() {
                    st.preds[c][p] = self.preds[row + lane];
                }
            }
        }
        for (slot, &(cb, id)) in self.sram.held.iter().enumerate() {
            let cb = cb as usize;
            for (lane, st) in states.iter_mut().enumerate() {
                let values = self.sram.lane_row(slot, lane, nl);
                if values.iter().any(|&v| v != 0) {
                    st.mems[cb / self.nb][cb % self.nb].put_row(id as usize, &values);
                }
            }
        }
        states
    }
}

/// Marks a `dest_*` entry that targets the far-commit value buffer
/// instead of the shared pending ring.
const FAR_BIT: u32 = 0x8000_0000;

/// Calls `f(lo, hi)` for each maximal run of consecutive lane indices
/// in `lanes` (ascending by construction), so row operations work on
/// contiguous slices — with no retired lanes this is a single call
/// spanning the whole row.
#[inline]
fn for_each_run(lanes: &[u32], mut f: impl FnMut(usize, usize)) {
    let mut i = 0;
    while i < lanes.len() {
        let lo = lanes[i] as usize;
        let mut hi = lo + 1;
        i += 1;
        while i < lanes.len() && lanes[i] as usize == hi {
            hi += 1;
            i += 1;
        }
        f(lo, hi);
    }
}

/// A data operand resolved against the SoA pools: a whole lane row
/// for a register, or one immediate shared by every lane.
#[derive(Clone, Copy)]
enum RowV<'a> {
    Row(&'a [i16]),
    Imm(i16),
}

/// `out[l] = f(a[l], b[l])` over the live-lane runs, with the operand
/// shapes (row vs. immediate) unswitched outside the inner loops.
#[inline]
fn row2(out: &mut [i16], lanes: &[u32], a: RowV, b: RowV, f: impl Fn(i16, i16) -> i16 + Copy) {
    for_each_run(lanes, |lo, hi| match (a, b) {
        (RowV::Row(x), RowV::Row(y)) => {
            for ((o, &p), &q) in out[lo..hi].iter_mut().zip(&x[lo..hi]).zip(&y[lo..hi]) {
                *o = f(p, q);
            }
        }
        (RowV::Row(x), RowV::Imm(q)) => {
            for (o, &p) in out[lo..hi].iter_mut().zip(&x[lo..hi]) {
                *o = f(p, q);
            }
        }
        (RowV::Imm(p), RowV::Row(y)) => {
            for (o, &q) in out[lo..hi].iter_mut().zip(&y[lo..hi]) {
                *o = f(p, q);
            }
        }
        (RowV::Imm(p), RowV::Imm(q)) => out[lo..hi].fill(f(p, q)),
    });
}

/// Unary twin of [`row2`].
#[inline]
fn row1(out: &mut [i16], lanes: &[u32], a: RowV, f: impl Fn(i16) -> i16 + Copy) {
    for_each_run(lanes, |lo, hi| match a {
        RowV::Row(x) => {
            for (o, &p) in out[lo..hi].iter_mut().zip(&x[lo..hi]) {
                *o = f(p);
            }
        }
        RowV::Imm(p) => out[lo..hi].fill(f(p)),
    });
}

/// `semantics::cmp` with the predicate widened to the ring's i16
/// payload encoding.
#[inline]
fn cmp_i16(op: CmpOp, a: i16, b: i16) -> i16 {
    i16::from(semantics::cmp(op, a, b))
}

/// The scoreboard value a write-port entry observes after the earlier
/// same-word writes (which live in the overlay until the whole word is
/// approved).
#[inline]
fn ovl_get(ovl: &[(u32, u64)], key: u32, fallback: u64) -> u64 {
    ovl.iter().find(|e| e.0 == key).map_or(fallback, |e| e.1)
}

#[inline]
fn ovl_set(ovl: &mut Vec<(u32, u64)>, key: u32, v: u64) {
    if let Some(e) = ovl.iter_mut().find(|e| e.0 == key) {
        e.1 = v;
    } else {
        ovl.push((key, v));
    }
}

/// Expands an opcode `match` whose every arm calls [`row2`] with the
/// opcode a compile-time constant, so each inner loop const-folds the
/// dispatch away and vectorizes.
macro_rules! unswitch2 {
    ($f:expr, $out:expr, $lanes:expr, $a:expr, $b:expr, $sem:path, $ety:ident,
     [$($v:ident),+ $(,)?]) => {
        match $f {
            $($ety::$v => row2($out, $lanes, $a, $b, |x, y| $sem($ety::$v, x, y)),)+
        }
    };
}

/// Unary twin of [`unswitch2`].
macro_rules! unswitch1 {
    ($f:expr, $out:expr, $lanes:expr, $a:expr, $sem:path, $ety:ident,
     [$($v:ident),+ $(,)?]) => {
        match $f {
            $($ety::$v => row1($out, $lanes, $a, |x| $sem($ety::$v, x)),)+
        }
    };
}

/// The batch engine.
///
/// Construct once per machine, then feed it any number of batches; the
/// internal [`BatchArena`] is reused across calls.
///
/// ```
/// use vsp_core::models;
/// use vsp_isa::{AluBinOp, OpKind, Operand, Operation, Program, Reg};
/// use vsp_sim::batch::{BatchSimulator, RunSpec};
/// use vsp_sim::DecodedProgram;
///
/// let machine = models::i4c8s4();
/// let mut p = Program::new("add");
/// p.push_word(vec![Operation::new(0, 0, OpKind::AluBin {
///     op: AluBinOp::Add, dst: Reg(2), a: Operand::Imm(40), b: Operand::Imm(2),
/// })]);
/// p.push_word(vec![Operation::new(0, 4, OpKind::Halt)]);
///
/// let decoded = DecodedProgram::prepare(&machine, &p).unwrap();
/// let mut batch = BatchSimulator::new(&machine);
/// let outcomes = batch.run_batch(&decoded, vec![RunSpec::new(100); 8]).unwrap();
/// assert!(outcomes.iter().all(|o| o.halted()));
/// assert_eq!(outcomes[0].state.regs[0][2], 42);
/// ```
#[derive(Debug)]
pub struct BatchSimulator<'a> {
    machine: &'a MachineConfig,
    arena: BatchArena,
}

impl<'a> BatchSimulator<'a> {
    /// Creates an engine for `machine`.
    #[must_use]
    pub fn new(machine: &'a MachineConfig) -> Self {
        BatchSimulator {
            machine,
            arena: BatchArena::default(),
        }
    }

    /// The machine this engine runs.
    #[must_use]
    pub fn machine(&self) -> &'a MachineConfig {
        self.machine
    }

    /// Runs one lane per spec to completion in lockstep and returns the
    /// outcomes in spec order. `program` must come from
    /// [`DecodedProgram::prepare`] for this engine's machine.
    ///
    /// # Errors
    ///
    /// A [`Refusal`] when the lanes could part (see the
    /// [module docs](crate::batch)).
    ///
    /// # Panics
    ///
    /// Panics if a spec's initial register, predicate or memory indices
    /// fall outside the machine's shape.
    pub fn run_batch(
        &mut self,
        program: &DecodedProgram,
        specs: Vec<RunSpec>,
    ) -> Result<Vec<LaneOutcome>, Refusal> {
        self.run_lockstep(program, &specs)?;
        let states = self.arena.collect_states();
        Ok(states
            .into_iter()
            .enumerate()
            .map(|(lane, state)| LaneOutcome {
                stats: std::mem::take(&mut self.arena.lane_stats[lane]),
                state,
                error: self.arena.lane_errs[lane].take(),
            })
            .collect())
    }

    /// [`BatchSimulator::run_batch`], judging each lane's final state
    /// against `reference` instead of returning it: a lane's
    /// [`LaneVerdict::diverged`] is `None` exactly when its
    /// [`LaneOutcome::state`] would equal `reference`.
    ///
    /// No per-lane state is gathered unless it differs. Each lane's
    /// registers, predicates, cycle and halt flag are compared, then
    /// every SRAM row the batch wrote; since all other rows are zero,
    /// the lane matches only if every nonzero word of `reference` lies
    /// on a written row. Those words are collected once per call, not
    /// once per lane.
    ///
    /// # Errors
    ///
    /// As [`BatchSimulator::run_batch`].
    ///
    /// # Panics
    ///
    /// As [`BatchSimulator::run_batch`].
    pub fn run_batch_against(
        &mut self,
        program: &DecodedProgram,
        specs: Vec<RunSpec>,
        reference: &ArchState,
    ) -> Result<Vec<LaneVerdict>, Refusal> {
        self.run_lockstep(program, &specs)?;
        let a = &mut self.arena;
        let nonzero = a.nonzero_rows(reference);
        let matches: Vec<bool> = (0..specs.len())
            .map(|lane| {
                nonzero
                    .as_ref()
                    .is_some_and(|rows| a.lane_matches(lane, reference, rows))
            })
            .collect();
        let mut gathered = if matches.contains(&false) {
            a.collect_states()
        } else {
            Vec::new()
        }
        .into_iter();
        Ok(matches
            .iter()
            .enumerate()
            .map(|(lane, &matched)| LaneVerdict {
                stats: std::mem::take(&mut a.lane_stats[lane]),
                diverged: gathered.next().filter(|_| !matched),
                error: a.lane_errs[lane].take(),
            })
            .collect())
    }

    /// [`BatchSimulator::run_batch`] keeping only the statistics —
    /// skips the architectural-state gather entirely, which matters for
    /// campaign throughput: the SRAM pools never have to be read back.
    ///
    /// # Errors
    ///
    /// As [`BatchSimulator::run_batch`].
    ///
    /// # Panics
    ///
    /// As [`BatchSimulator::run_batch`].
    pub fn run_batch_stats(
        &mut self,
        program: &DecodedProgram,
        specs: Vec<RunSpec>,
    ) -> Result<Vec<RunStats>, Refusal> {
        self.run_lockstep(program, &specs)?;
        Ok(self.arena.lane_stats.drain(..).collect())
    }

    /// The lockstep super-step loop: one word for every live lane per
    /// step, lanes retiring on halt, on running off the program end or
    /// at their own cycle budgets, with their results left in the
    /// arena. Stops with a [`Refusal`] as soon as the lanes could part.
    fn run_lockstep(&mut self, program: &DecodedProgram, specs: &[RunSpec]) -> Result<(), Refusal> {
        for spec in specs {
            spec.assert_fits(self.machine);
        }
        let peak = self.machine.peak_ops_per_cycle();
        let a = &mut self.arena;
        a.reset(self.machine, program, specs.len());
        for (lane, spec) in specs.iter().enumerate() {
            a.stage(lane, spec);
            // Scalar `run` checks the budget before the first step too.
            if spec.max_cycles == 0 {
                a.retire(lane, Some(SimError::CycleLimit { limit: 0 }), peak);
            } else {
                a.active.push(lane as u32);
            }
        }

        while !self.arena.active.is_empty() {
            let word = self.lockstep_word(program);
            let a = &mut self.arena;
            let mut act = std::mem::take(&mut a.active);
            match word {
                Word::Parted(cause) => return Err(Refusal { word: a.pc, cause }),
                Word::RanOffEnd => {
                    let cycle = a.cycle;
                    for &lane in &act {
                        a.retire(lane as usize, Some(SimError::RanOffEnd { cycle }), peak);
                    }
                    act.clear();
                }
                // A halt wins over budget exhaustion, like scalar
                // `run`'s halt-then-budget check order.
                Word::Halted => {
                    for &lane in &act {
                        a.retire(lane as usize, None, peak);
                    }
                    act.clear();
                }
                Word::Issued => act.retain(|&lane| {
                    let (l, limit) = (lane as usize, a.budgets[lane as usize]);
                    if a.cycle < limit {
                        return true;
                    }
                    a.retire(l, Some(SimError::CycleLimit { limit }), peak);
                    false
                }),
            }
            a.active = act;
        }
        Ok(())
    }

    /// Executes the current word for every live lane in lockstep: fetch,
    /// scoreboard checks, write-port arbitration and branch resolution
    /// run once on the shared timing state, and only the data
    /// computation touches per-lane rows (in storage order, so the hot
    /// loops vectorize). Any condition whose outcome could differ
    /// between lanes returns [`Word::Parted`] before the word takes
    /// effect.
    #[allow(clippy::too_many_lines)]
    fn lockstep_word(&mut self, prog: &DecodedProgram) -> Word {
        let delay_slots = self.machine.pipeline.branch_delay_slots;
        let irefill = u64::from(self.machine.icache_refill_cycles);
        let BatchArena {
            nl,
            nc,
            nr,
            np,
            nb,
            stride,
            icap,
            plen,
            nclass,
            hist_bins,
            regs,
            preds,
            sram,
            active,
            agg_issued,
            agg_class,
            agg_cluster,
            pc,
            cycle,
            drained,
            redirect,
            reg_ready,
            pred_ready,
            itags,
            mem_active,
            ring_key,
            ring_len,
            ring_val,
            ring_cap,
            pending,
            far,
            counts,
            class_ops,
            cluster_ops,
            util_hist,
            wr,
            wp,
            ann,
            dest_r,
            dest_p,
            ovl,
            farmeta,
            farbuf,
            sw,
            gclass,
            gcluster,
            st,
            ..
        } = &mut self.arena;
        let (nl, nc, nr, np, nb, stride, icap, plen, nclass, hist_bins) = (
            *nl, *nc, *nr, *np, *nb, *stride, *icap, *plen, *nclass, *hist_bins,
        );
        let lanes: &[u32] = active;
        let word = *pc as usize;

        // ---- Fetch ----
        if word >= plen {
            return Word::RanOffEnd;
        }
        let tag = &mut itags[word % icap];
        if *tag != word as u32 {
            *tag = word as u32;
            *cycle += irefill;
            counts.icache_misses += 1;
            counts.icache_stall_cycles += irefill;
        }
        // ---- Commit drain: one row copy per due entry ----
        if *pending > 0 {
            let span = (*cycle - *drained).min(PENDING_SLOTS as u64);
            for cyc in (*cycle + 1 - span)..=*cycle {
                let s = (cyc % PENDING_SLOTS as u64) as usize;
                let n = usize::from(ring_len[s]);
                if n == 0 {
                    continue;
                }
                ring_len[s] = 0;
                *pending -= n as u32;
                for j in 0..n {
                    let key = ring_key[s * *ring_cap + j];
                    let vrow = (s * *ring_cap + j) * nl;
                    let drow = (key >> 1) as usize * nl;
                    if key & 1 == 0 {
                        for_each_run(lanes, |lo, hi| {
                            regs[drow + lo..drow + hi]
                                .copy_from_slice(&ring_val[vrow + lo..vrow + hi]);
                        });
                    } else {
                        for_each_run(lanes, |lo, hi| {
                            for l in lo..hi {
                                preds[drow + l] = ring_val[vrow + l] != 0;
                            }
                        });
                    }
                }
            }
        }
        *drained = *cycle;
        while let Some(entry) = far.first_entry() {
            if *entry.key() > *cycle {
                break;
            }
            for (key, vals) in entry.remove() {
                let drow = (key >> 1) as usize * nl;
                if key & 1 == 0 {
                    for_each_run(lanes, |lo, hi| {
                        regs[drow + lo..drow + hi].copy_from_slice(&vals[lo..hi]);
                    });
                } else {
                    for_each_run(lanes, |lo, hi| {
                        for l in lo..hi {
                            preds[drow + l] = vals[l] != 0;
                        }
                    });
                }
            }
        }
        let cyc = *cycle;

        // ---- Meta pass: guards, hazards, branch/halt ----
        wr.clear();
        wp.clear();
        ann.clear();
        dest_r.clear();
        dest_p.clear();
        ovl.clear();
        farmeta.clear();
        farbuf.clear();
        sw.clear();
        gclass.fill(0);
        gcluster.fill(0);
        let mut n_ann = 0u64;
        let mut n_guard_issued = 0u32;
        let mut taken = false;
        let mut target = 0u32;
        let mut halt = false;
        let in_shadow = redirect.is_some();
        let l0 = lanes[0] as usize;
        for i in prog.word_range(word) {
            let op = prog.op(i);
            let c = op.cluster as usize;
            // A predicate row is usable only when it is hazard-free AND
            // every live lane agrees on its value; otherwise lanes
            // would annul or branch differently.
            macro_rules! pred_row {
                ($pidx:expr) => {{
                    let pidx = $pidx;
                    if pred_ready[pidx] > cyc {
                        return Word::Parted(PartCause::PrematureRead);
                    }
                    let row = pidx * nl;
                    let v0 = preds[row + l0];
                    let mut uni = true;
                    for_each_run(lanes, |lo, hi| {
                        for &b in &preds[row + lo..row + hi] {
                            uni &= b == v0;
                        }
                    });
                    if !uni {
                        return Word::Parted(PartCause::Predicate);
                    }
                    v0
                }};
            }
            macro_rules! rchk {
                ($idx:expr) => {
                    if reg_ready[$idx] > cyc {
                        return Word::Parted(PartCause::PrematureRead);
                    }
                };
            }
            macro_rules! ochk {
                ($o:expr) => {
                    if let DOperand::Reg(r) = $o {
                        rchk!(c * nr + r as usize);
                    }
                };
            }
            macro_rules! achk {
                ($a:expr) => {
                    match $a {
                        DAddr::Abs(_) => {}
                        DAddr::Reg(r) | DAddr::BaseDisp(r, _) => rchk!(c * nr + r as usize),
                        DAddr::Indexed(r, r2) => {
                            rchk!(c * nr + r as usize);
                            rchk!(c * nr + r2 as usize);
                        }
                    }
                };
            }
            if op.guard_pred != NO_GUARD {
                let v0 = pred_row!(c * np + op.guard_pred as usize);
                if v0 != op.guard_sense {
                    ann.push(true);
                    n_ann += 1;
                    continue;
                }
                if let Some(class) = op.class {
                    gclass[class as usize] += 1;
                    gcluster[c] += 1;
                    n_guard_issued += 1;
                }
            }
            ann.push(false);
            match op.kind {
                DKind::AluBin { a, b, dst, .. }
                | DKind::Shift { a, b, dst, .. }
                | DKind::Mul { a, b, dst, .. } => {
                    ochk!(a);
                    ochk!(b);
                    wr.push(((c * nr + dst as usize) as u32, op.latency));
                }
                DKind::AluUn { a, dst, .. } => {
                    ochk!(a);
                    wr.push(((c * nr + dst as usize) as u32, op.latency));
                }
                DKind::Cmp { a, b, dst, .. } => {
                    ochk!(a);
                    ochk!(b);
                    wp.push(((c * np + dst as usize) as u32, op.latency));
                }
                DKind::Load { addr, dst, .. } => {
                    achk!(addr);
                    wr.push(((c * nr + dst as usize) as u32, op.latency));
                }
                DKind::Store { src, addr, .. } => {
                    achk!(addr);
                    ochk!(src);
                }
                DKind::Xfer { from, src, dst } => {
                    rchk!(from as usize * nr + src as usize);
                    wr.push(((c * nr + dst as usize) as u32, op.latency));
                }
                DKind::Branch {
                    pred,
                    sense,
                    target: t,
                } => {
                    let v0 = pred_row!(c * np + pred as usize);
                    if v0 == sense {
                        taken = true;
                        target = t;
                    }
                }
                DKind::Jump { target: t } => {
                    taken = true;
                    target = t;
                }
                DKind::Halt => halt = true,
                DKind::Swap { bank } => sw.push((c * nb + bank as usize) as u32),
                DKind::Nop => {}
            }
        }

        // Write-port arbitration on the shared scoreboards, in the
        // scalar path's order: every register write, then every
        // predicate write.
        for (list, ready, tag) in [(&*wr, &*reg_ready, 0), (&*wp, &*pred_ready, 1)] {
            for &(idx, lat) in list {
                let at = cyc + u64::from(lat);
                let key = (idx << 1) | tag;
                let seen = ovl_get(ovl, key, ready[idx as usize]);
                if lat > 0 && seen == at {
                    return Word::Parted(PartCause::PortConflict);
                }
                ovl_set(ovl, key, seen.max(at));
            }
        }
        for &(key, at) in ovl.iter() {
            if key & 1 == 0 {
                reg_ready[(key >> 1) as usize] = at;
            } else {
                pred_ready[(key >> 1) as usize] = at;
            }
        }
        // Assign each write its destination row: a shared pending ring
        // slot for in-window latencies, a far-commit buffer row
        // otherwise (including latency 0, like the scalar path, so it
        // lands at the next drain).
        macro_rules! assign_slots {
            ($list:expr, $dests:expr, $tag:expr) => {
                for &(idx, lat) in $list.iter() {
                    let at = cyc + u64::from(lat);
                    if (1..=PENDING_SLOTS as u32).contains(&lat) {
                        let s = (at % PENDING_SLOTS as u64) as usize;
                        let mut j = usize::from(ring_len[s]);
                        if j >= *ring_cap {
                            let ncap = (*ring_cap * 2).max(4);
                            let mut nk = vec![0u32; PENDING_SLOTS * ncap];
                            let mut nv = vec![0i16; PENDING_SLOTS * ncap * nl];
                            for s2 in 0..PENDING_SLOTS {
                                let m = usize::from(ring_len[s2]);
                                nk[s2 * ncap..s2 * ncap + m]
                                    .copy_from_slice(&ring_key[s2 * *ring_cap..s2 * *ring_cap + m]);
                                nv[s2 * ncap * nl..(s2 * ncap + m) * nl].copy_from_slice(
                                    &ring_val[s2 * *ring_cap * nl..(s2 * *ring_cap + m) * nl],
                                );
                            }
                            *ring_key = nk;
                            *ring_val = nv;
                            *ring_cap = ncap;
                            j = usize::from(ring_len[s]);
                        }
                        ring_key[s * *ring_cap + j] = (idx << 1) | $tag;
                        ring_len[s] += 1;
                        *pending += 1;
                        $dests.push(((s as u32) << 24) | j as u32);
                    } else {
                        let frow = (farbuf.len() / nl) as u32;
                        farbuf.resize(farbuf.len() + nl, 0);
                        farmeta.push((at, (idx << 1) | $tag, frow));
                        $dests.push(FAR_BIT | frow);
                    }
                }
            };
        }
        assign_slots!(wr, dest_r, 0);
        assign_slots!(wp, dest_p, 1);

        // ---- Per-lane data pass: row loops in storage order ----
        let mut cur_r = 0usize;
        let mut cur_p = 0usize;
        let mut n_loads = 0u64;
        let mut n_stores = 0usize;
        let mut n_xfers = 0u64;
        for (k, i) in prog.word_range(word).enumerate() {
            if ann[k] {
                continue;
            }
            let op = prog.op(i);
            let c = op.cluster as usize;
            macro_rules! out_row {
                ($dest:expr) => {{
                    let d = $dest;
                    if d & FAR_BIT != 0 {
                        &mut farbuf[(d & !FAR_BIT) as usize * nl..][..nl]
                    } else {
                        let s = (d >> 24) as usize;
                        let j = (d & 0x00ff_ffff) as usize;
                        &mut ring_val[(s * *ring_cap + j) * nl..][..nl]
                    }
                }};
            }
            macro_rules! rowv {
                ($o:expr) => {
                    match $o {
                        DOperand::Reg(r) => RowV::Row(&regs[(c * nr + r as usize) * nl..][..nl]),
                        DOperand::Imm(v) => RowV::Imm(v),
                    }
                };
            }
            // Calls `$body(lane, address)` for every live lane, the
            // address resolved from `$addr`'s register rows.
            macro_rules! each_addr {
                ($addr:expr, $body:expr) => {{
                    let mut body = $body;
                    match $addr {
                        DAddr::Abs(a2) => for_each_run(lanes, |lo, hi| {
                            for l in lo..hi {
                                body(l, u32::from(a2));
                            }
                        }),
                        DAddr::Reg(r) => {
                            let base = (c * nr + r as usize) * nl;
                            for_each_run(lanes, |lo, hi| {
                                for l in lo..hi {
                                    body(l, u32::from(regs[base + l] as u16));
                                }
                            });
                        }
                        DAddr::BaseDisp(r, d) => {
                            let base = (c * nr + r as usize) * nl;
                            for_each_run(lanes, |lo, hi| {
                                for l in lo..hi {
                                    body(l, u32::from(regs[base + l].wrapping_add(d) as u16));
                                }
                            });
                        }
                        DAddr::Indexed(r, r2) => {
                            let b1 = (c * nr + r as usize) * nl;
                            let b2 = (c * nr + r2 as usize) * nl;
                            for_each_run(lanes, |lo, hi| {
                                for l in lo..hi {
                                    let a = regs[b1 + l].wrapping_add(regs[b2 + l]);
                                    body(l, u32::from(a as u16));
                                }
                            });
                        }
                    }
                }};
            }
            match op.kind {
                DKind::AluBin { op: f, a, b, .. } => {
                    let out = out_row!(dest_r[cur_r]);
                    cur_r += 1;
                    let (av, bv) = (rowv!(a), rowv!(b));
                    unswitch2!(
                        f,
                        out,
                        lanes,
                        av,
                        bv,
                        semantics::alu_bin,
                        AluBinOp,
                        [Add, Sub, And, Or, Xor, Min, Max, AbsDiff]
                    );
                }
                DKind::AluUn { op: f, a, .. } => {
                    let out = out_row!(dest_r[cur_r]);
                    cur_r += 1;
                    let av = rowv!(a);
                    unswitch1!(
                        f,
                        out,
                        lanes,
                        av,
                        semantics::alu_un,
                        AluUnOp,
                        [Mov, Abs, Neg, Not, SextB, ZextB]
                    );
                }
                DKind::Shift { op: f, a, b, .. } => {
                    let out = out_row!(dest_r[cur_r]);
                    cur_r += 1;
                    let (av, bv) = (rowv!(a), rowv!(b));
                    unswitch2!(
                        f,
                        out,
                        lanes,
                        av,
                        bv,
                        semantics::shift,
                        ShiftOp,
                        [Shl, ShrL, ShrA]
                    );
                }
                DKind::Mul { kind, a, b, .. } => {
                    let out = out_row!(dest_r[cur_r]);
                    cur_r += 1;
                    let (av, bv) = (rowv!(a), rowv!(b));
                    unswitch2!(
                        kind,
                        out,
                        lanes,
                        av,
                        bv,
                        semantics::mul,
                        MulKind,
                        [Mul8SS, Mul8UU, Mul8SU, Mul16Lo, Mul16Hi]
                    );
                }
                DKind::Cmp { op: f, a, b, .. } => {
                    let out = out_row!(dest_p[cur_p]);
                    cur_p += 1;
                    let (av, bv) = (rowv!(a), rowv!(b));
                    unswitch2!(
                        f,
                        out,
                        lanes,
                        av,
                        bv,
                        cmp_i16,
                        CmpOp,
                        [Eq, Ne, Lt, Le, Gt, Ge]
                    );
                }
                DKind::Load { addr, bank, .. } => {
                    let out = out_row!(dest_r[cur_r]);
                    cur_r += 1;
                    let cb = c * nb + bank as usize;
                    let words = sram.words[cb];
                    let slots = sram.buffer_slots(cb, mem_active[cb] as usize);
                    let data = &sram.data;
                    let mut in_range = true;
                    each_addr!(addr, |l: usize, adr: u32| {
                        if adr < words {
                            out[l] = match slots[adr as usize / ROW_WORDS] {
                                0 => 0,
                                s => {
                                    let w = (s as usize - 1) * ROW_WORDS + adr as usize % ROW_WORDS;
                                    data[w * nl + l]
                                }
                            };
                        } else {
                            in_range = false;
                        }
                    });
                    if !in_range {
                        return Word::Parted(PartCause::OutOfRange);
                    }
                    n_loads += 1;
                }
                DKind::Store { src, addr, bank } => {
                    let cb = c * nb + bank as usize;
                    let words = sram.words[cb];
                    let mut in_range = true;
                    let src = rowv!(src);
                    each_addr!(addr, |l: usize, adr: u32| {
                        in_range &= adr < words;
                        let v = match src {
                            RowV::Row(row) => row[l],
                            RowV::Imm(v) => v,
                        };
                        st[l * stride + n_stores] = (cb as u32, adr, v);
                    });
                    if !in_range {
                        return Word::Parted(PartCause::OutOfRange);
                    }
                    n_stores += 1;
                }
                DKind::Xfer { from, src, .. } => {
                    let out = out_row!(dest_r[cur_r]);
                    cur_r += 1;
                    let srow = (from as usize * nr + src as usize) * nl;
                    for_each_run(lanes, |lo, hi| {
                        out[lo..hi].copy_from_slice(&regs[srow + lo..srow + hi]);
                    });
                    n_xfers += 1;
                }
                DKind::Branch { .. }
                | DKind::Jump { .. }
                | DKind::Halt
                | DKind::Swap { .. }
                | DKind::Nop => {}
            }
        }
        // Materialize far commits (reg order then pred order, as the
        // scalar path pushes them).
        for &(at, key, frow) in farmeta.iter() {
            let row = frow as usize * nl;
            far.entry(at)
                .or_default()
                .push((key, farbuf[row..row + nl].to_vec()));
        }

        // ---- Tail: stores, swaps, counters, control ----
        for &lane in lanes {
            let l = lane as usize;
            for &(cb, a, v) in &st[l * stride..l * stride + n_stores] {
                let cb = cb as usize;
                sram.store(cb, mem_active[cb] as usize, a, l, nl, v);
            }
        }
        for &cb in sw.iter() {
            mem_active[cb as usize] ^= 1;
        }
        counts.words += 1;
        counts.loads += n_loads;
        counts.stores += n_stores as u64;
        counts.transfers += n_xfers;
        counts.annulled_ops += n_ann;
        for k in 0..nclass {
            class_ops[k] += u64::from(agg_class[word * nclass + k] + gclass[k]);
        }
        for c in 0..nc {
            let ops = agg_cluster[word * nc + c] + gcluster[c];
            if ops > 0 {
                cluster_ops[c] += u64::from(ops);
                util_hist[c * hist_bins + ops as usize] += 1;
            }
        }
        if in_shadow && u64::from(agg_issued[word] + n_guard_issued) + n_ann == 0 {
            counts.branch_bubble_cycles += 1;
        }
        if taken {
            counts.taken_branches += 1;
            *redirect = Some((target, delay_slots));
        }
        *pc = match *redirect {
            Some((t, 0)) => {
                *redirect = None;
                t
            }
            Some((t, n)) => {
                *redirect = Some((t, n - 1));
                *pc + 1
            }
            None => *pc + 1,
        };
        *cycle = cyc + 1;
        if halt {
            Word::Halted
        } else {
            Word::Issued
        }
    }
}
