//! The cycle-accurate simulator core.
//!
//! The [`Simulator`] type, its state, and the public control surface
//! (construction, register/memory access, [`Simulator::run`] /
//! [`Simulator::run_interp`], statistics) live in this module root; the
//! datapath is split across focused submodules:
//!
//! * `fetch` — the pre-decoded fast path ([`Simulator::step`]);
//! * `interp` — the legacy interpretive path ([`Simulator::step_interp`]),
//!   kept as the reference semantics;
//! * `commit` — the pending-commit ring, write-port conflict checks and
//!   bypass-network scheduling;
//! * `datapath` — indexed operand reads, effective addressing and the
//!   fault-injection hooks;
//! * `recovery` — microarchitectural [`Checkpoint`] snapshot/restore.

use crate::decoded::DecodedProgram;
use crate::error::SimError;
use crate::fault::{FaultModel, NoFaults};
use crate::icache::InstructionCache;
use crate::memory::LocalMemory;
use crate::stats::RunStats;
use std::collections::BTreeMap;
use vsp_core::{validate_program, MachineConfig};
use vsp_isa::{ClusterId, Pred, Program, Reg};
use vsp_metrics::{NullRecorder, Recorder};
use vsp_trace::{NullSink, TraceSink};

mod commit;
mod datapath;
mod fetch;
mod interp;
mod recovery;

pub use recovery::Checkpoint;

#[cfg(test)]
mod tests;

/// Size of the pending-commit ring: one slot per future cycle. Result
/// latencies are tiny (bounded by load-use, multiply, and crossbar
/// delays), so a fixed window covers every commit; the rare latency
/// beyond it falls back to the ordered overflow map.
pub(crate) const PENDING_SLOTS: usize = 16;

/// Width of a metrics sampling window, in cycles: with a recorder
/// attached, the fast path observes one histogram sample per window (see
/// [`Simulator::flush_metrics_window`]).
pub const DEFAULT_METRICS_WINDOW: u64 = 4096;

/// Per-window accumulators for the time-windowed metrics the fast path
/// samples when a recorder is attached. Never touched (beyond struct
/// init) when the recorder reports itself disabled.
#[derive(Debug, Clone, Copy, Default)]
struct MetricsWindow {
    words: u64,
    issued_ops: u64,
    transfers: u64,
    icache_stall_cycles: u64,
    icache_refills: u64,
}

/// What to do when an operation reads a register whose producer has not
/// completed.
///
/// The machine has no interlocks ("run-time arbitration for resources is
/// never allowed"), so such a read is a *scheduling* bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HazardPolicy {
    /// Abort simulation with [`SimError::PrematureRead`] — the default,
    /// catching scheduler bugs immediately.
    #[default]
    Fault,
    /// Return the stale register contents, as the real hardware would.
    StaleRead,
}

/// A pending register/predicate write (full bypass makes results visible
/// exactly `latency` cycles after issue), addressed by its flat index
/// into the simulator's `regs` or `preds`.
#[derive(Debug, Clone, Copy)]
enum Commit {
    Reg(u32, i16),
    Pred(u32, bool),
}

/// Reusable per-step buffers: what one word produces, held until the
/// end of its cycle. [`Simulator::step`] and [`Simulator::step_interp`]
/// both take them out of the simulator for the word and put them back
/// cleared, so neither path allocates per step in steady state.
#[derive(Debug, Default)]
struct WordScratch {
    /// Stores, as `(cluster, bank, addr, value)`.
    stores: Vec<(u8, u8, u32, i16)>,
    /// Banks swapping their buffers, as `(cluster, bank)`.
    swaps: Vec<(u8, u8)>,
    /// Register results entering the bypass network, as
    /// `(cluster, reg, value, latency)`.
    reg_writes: Vec<(u8, u16, i16, u32)>,
    /// Predicate results, as `(cluster, pred, value, latency)`.
    pred_writes: Vec<(u8, u8, bool, u32)>,
}

impl WordScratch {
    fn clear(&mut self) {
        self.stores.clear();
        self.swaps.clear();
        self.reg_writes.clear();
        self.pred_writes.clear();
    }
}

/// A full snapshot of the architectural state of a simulator: every
/// register file, predicate file and local-memory buffer, plus the
/// control state.
///
/// Built by [`Simulator::arch_state`] for differential comparison —
/// two execution paths (or two simulators fed identical programs) agree
/// exactly when their `ArchState`s compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchState {
    /// Cycles elapsed.
    pub cycle: u64,
    /// Whether a halt has committed.
    pub halted: bool,
    /// General registers, indexed `[cluster][register]`.
    pub regs: Vec<Vec<i16>>,
    /// Predicate registers, indexed `[cluster][predicate]`.
    pub preds: Vec<Vec<bool>>,
    /// Local-memory banks, indexed `[cluster][bank]`: copies holding
    /// only the rows written, compared by content and by role —
    /// processing buffer with processing buffer, I/O with I/O — because
    /// a `swapbuf` exchanges them.
    pub mems: Vec<Vec<LocalMemory>>,
}

impl ArchState {
    /// Cuts a flat array laid out `cluster * width + index` into its
    /// `clusters` rows of `width` entries: the `[cluster][index]` shape
    /// of [`ArchState::regs`], [`ArchState::preds`] and
    /// [`ArchState::mems`], for snapshots of state kept flat.
    pub fn flat_rows<T: Clone>(flat: &[T], clusters: usize, width: usize) -> Vec<Vec<T>> {
        (0..clusters)
            .map(|c| flat[c * width..(c + 1) * width].to_vec())
            .collect()
    }

    /// Whether `rows` equals [`ArchState::flat_rows`] of the same
    /// arguments, decided in place without building the rows.
    pub fn rows_match_flat<T: PartialEq>(
        rows: &[Vec<T>],
        flat: &[T],
        clusters: usize,
        width: usize,
    ) -> bool {
        rows.len() == clusters
            && rows
                .iter()
                .enumerate()
                .all(|(c, row)| *row == flat[c * width..(c + 1) * width])
    }
}

/// Cycle-accurate simulator for one program on one machine.
///
/// Generic over a [`TraceSink`]; the default [`NullSink`] reports itself
/// disabled from an inlinable body, so the untraced monomorphization —
/// everything built via [`Simulator::new`] — contains no tracing code.
/// Use [`Simulator::with_sink`] (typically with `&mut sink`, since
/// `TraceSink` is implemented for mutable references) to record a run.
///
/// Also generic over a [`FaultModel`] by the same pattern: the default
/// [`NoFaults`] compiles all injection hooks out of the fast path, and
/// [`Simulator::with_sink_and_faults`] opts a run into a concrete model
/// (see the `vsp-fault` crate for seeded plans and recovery).
///
/// And generic over a [`Recorder`] the same way: the default
/// [`NullRecorder`] compiles the metrics sampling out, while
/// [`Simulator::with_recorder`] / [`Simulator::with_instrumentation`]
/// stream time-windowed issue/stall/crossbar/icache histograms into a
/// metrics registry as the run progresses.
#[derive(Debug)]
pub struct Simulator<
    'a,
    S: TraceSink = NullSink,
    F: FaultModel = NoFaults,
    M: Recorder = NullRecorder,
> {
    machine: &'a MachineConfig,
    program: &'a Program,
    /// Pre-decoded twin of `program` (flat ops, resolved latencies);
    /// what [`Simulator::step`] actually executes.
    decoded: DecodedProgram,
    policy: HazardPolicy,
    /// Registers per cluster: the row width of `regs` and `reg_ready`.
    nregs: usize,
    /// Predicates per cluster: the row width of `preds` and
    /// `pred_ready`.
    npreds: usize,
    /// General registers, one flat array: cluster `c`'s register `r`
    /// is `regs[c * nregs + r]`, so a checkpoint copies it with one
    /// `memcpy`.
    regs: Vec<i16>,
    /// Cycle at which each register's last scheduled result lands,
    /// laid out like `regs`.
    reg_ready: Vec<u64>,
    /// Predicate registers, flat like `regs` (row width `npreds`).
    preds: Vec<bool>,
    /// Cycle at which each predicate's last scheduled result lands.
    pred_ready: Vec<u64>,
    mems: Vec<Vec<LocalMemory>>,
    /// Pending commits within the next `PENDING_SLOTS` cycles, indexed
    /// by `cycle % PENDING_SLOTS` (allocation-free in steady state).
    pending_ring: Vec<Vec<Commit>>,
    /// Total commits outstanding in the ring (fast empty check).
    pending_count: usize,
    /// Commits scheduled beyond the ring window (pathological
    /// latencies only; normally empty forever).
    pending_far: BTreeMap<u64, Vec<Commit>>,
    /// Last cycle whose ring slot has been drained.
    drained_through: u64,
    icache: InstructionCache,
    pc: usize,
    cycle: u64,
    redirect: Option<(usize, u32)>,
    halted: bool,
    stats: RunStats,
    sink: S,
    faults: F,
    recorder: M,
    /// Cycle at which the current metrics window opened.
    window_start: u64,
    /// Accumulators for the window in progress.
    window: MetricsWindow,
    /// Committed ops per cluster within the word being issued (scratch
    /// for the utilization histogram).
    word_cluster_ops: Vec<u32>,
    /// Clusters with a non-zero entry in `word_cluster_ops`, so the
    /// per-word drain touches only busy clusters.
    word_touched: Vec<ClusterId>,
    /// Buckets per cluster in `util_hist`: a cluster commits at most
    /// its slots plus the control slot in one word.
    hist_bins: usize,
    /// Per-cluster issue-occupancy histogram, flat:
    /// `util_hist[c * hist_bins + k]` counts the words in which cluster
    /// `c` committed `k > 0` operations. Folded into
    /// `RunStats::util_histogram` by [`Simulator::stats`], so the step
    /// loop only bumps a counter and a checkpoint copies it whole.
    util_hist: Vec<u64>,
    /// The per-step buffers both step paths use.
    scratch: WordScratch,
    /// Fast-path per-class op counters, indexed by `FuClass` discriminant;
    /// folded into `RunStats::ops_by_class` by [`Simulator::stats`] so
    /// the hot loop skips the map lookup the interpretive path pays.
    fast_class_ops: [u64; 6],
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with a warmed instruction cache and the default
    /// ([`HazardPolicy::Fault`]) hazard policy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Invalid`] if the program fails structural
    /// validation for the machine.
    pub fn new(machine: &'a MachineConfig, program: &'a Program) -> Result<Self, SimError> {
        Self::with_sink(machine, program, NullSink)
    }
}

impl<'a, F: FaultModel> Simulator<'a, NullSink, F> {
    /// Creates a simulator that consults `faults` (pass [`NoFaults`] for
    /// a fault-free run) from an already-prepared [`DecodedProgram`],
    /// skipping re-validation and re-decode.
    ///
    /// `decoded` must come from [`DecodedProgram::prepare`] for the
    /// *same* `machine` and `program` — the constructor trusts that
    /// contract (it is what makes the amortization worthwhile) and only
    /// debug-asserts the word count.
    pub fn with_decoded(
        machine: &'a MachineConfig,
        program: &'a Program,
        decoded: DecodedProgram,
        faults: F,
    ) -> Self {
        debug_assert_eq!(
            decoded.len(),
            program.len(),
            "decoded program does not match its source"
        );
        Self::build(machine, program, decoded, NullSink, faults, NullRecorder)
    }
}

impl<'a, S: TraceSink> Simulator<'a, S> {
    /// Creates a simulator that emits trace events into `sink` (and
    /// never injects faults).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Invalid`] if the program fails structural
    /// validation for the machine.
    pub fn with_sink(
        machine: &'a MachineConfig,
        program: &'a Program,
        sink: S,
    ) -> Result<Self, SimError> {
        Self::with_sink_and_faults(machine, program, sink, NoFaults)
    }
}

impl<'a, S: TraceSink, F: FaultModel> Simulator<'a, S, F> {
    /// Creates a simulator that emits trace events into `sink` and
    /// consults `faults` on every exposed datapath read (typically with
    /// `&mut model`, since [`FaultModel`] is implemented for mutable
    /// references, so injection counters stay readable after the run).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Invalid`] if the program fails structural
    /// validation for the machine.
    pub fn with_sink_and_faults(
        machine: &'a MachineConfig,
        program: &'a Program,
        sink: S,
        faults: F,
    ) -> Result<Self, SimError> {
        Self::with_instrumentation(machine, program, sink, faults, NullRecorder)
    }
}

impl<'a, M: Recorder> Simulator<'a, NullSink, NoFaults, M> {
    /// Creates a simulator that samples time-windowed metrics into
    /// `recorder` (typically `&mut registry`, since [`Recorder`] is
    /// implemented for mutable references) without tracing or faults.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Invalid`] if the program fails structural
    /// validation for the machine.
    pub fn with_recorder(
        machine: &'a MachineConfig,
        program: &'a Program,
        recorder: M,
    ) -> Result<Self, SimError> {
        Self::with_instrumentation(machine, program, NullSink, NoFaults, recorder)
    }
}

impl<'a, S: TraceSink, F: FaultModel, M: Recorder> Simulator<'a, S, F, M> {
    /// Fully-instrumented construction: trace sink, fault model and
    /// metrics recorder together.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Invalid`] if the program fails structural
    /// validation for the machine.
    pub fn with_instrumentation(
        machine: &'a MachineConfig,
        program: &'a Program,
        sink: S,
        faults: F,
        recorder: M,
    ) -> Result<Self, SimError> {
        validate_program(machine, program)?;
        let decoded = DecodedProgram::decode(machine, program);
        Ok(Self::build(
            machine, program, decoded, sink, faults, recorder,
        ))
    }

    /// Shared constructor body: wires an already-decoded program into a
    /// fresh simulator without validating (callers either validated the
    /// program themselves or inherited a [`DecodedProgram::prepare`]
    /// result).
    fn build(
        machine: &'a MachineConfig,
        program: &'a Program,
        decoded: DecodedProgram,
        sink: S,
        faults: F,
        recorder: M,
    ) -> Self {
        let clusters = machine.clusters as usize;
        let nregs = machine.cluster.registers as usize;
        let npreds = machine.cluster.pred_regs as usize;
        let hist_bins = machine.cluster.slot_count() as usize + 2;
        let mut icache = InstructionCache::new(machine.icache_words, machine.icache_refill_cycles);
        icache.warm(program.len());
        Simulator {
            machine,
            program,
            decoded,
            policy: HazardPolicy::Fault,
            nregs,
            npreds,
            regs: vec![0; clusters * nregs],
            reg_ready: vec![0; clusters * nregs],
            preds: vec![false; clusters * npreds],
            pred_ready: vec![0; clusters * npreds],
            mems: (0..clusters)
                .map(|_| {
                    machine
                        .cluster
                        .banks
                        .iter()
                        .map(|b| LocalMemory::new(b.words))
                        .collect()
                })
                .collect(),
            pending_ring: (0..PENDING_SLOTS).map(|_| Vec::new()).collect(),
            pending_count: 0,
            pending_far: BTreeMap::new(),
            drained_through: 0,
            icache,
            pc: 0,
            cycle: 0,
            redirect: None,
            halted: false,
            stats: RunStats::default(),
            sink,
            faults,
            recorder,
            window_start: 0,
            window: MetricsWindow::default(),
            word_cluster_ops: vec![0; clusters],
            word_touched: Vec::with_capacity(clusters),
            hist_bins,
            util_hist: vec![0; clusters * hist_bins],
            scratch: WordScratch::default(),
            fast_class_ops: [0; 6],
        }
    }

    /// The trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The fault model.
    pub fn faults(&self) -> &F {
        &self.faults
    }

    /// Mutable access to the fault model (e.g. to re-arm a trigger).
    pub fn faults_mut(&mut self) -> &mut F {
        &mut self.faults
    }

    /// Flushes the metrics window in progress (called automatically at
    /// window boundaries and when a halt commits; harnesses that stop a
    /// run early — cycle budgets, checkpoint abandonment — call this to
    /// avoid losing the tail window). No-op when the recorder is
    /// disabled or the window is empty.
    pub fn flush_metrics_window(&mut self) {
        if !self.recorder.enabled() {
            return;
        }
        let w = self.window;
        if w.words == 0
            && w.issued_ops == 0
            && w.transfers == 0
            && w.icache_stall_cycles == 0
            && w.icache_refills == 0
        {
            self.window_start = self.cycle;
            return;
        }
        self.recorder.observe("vsp_sim_window_words", &[], w.words);
        self.recorder
            .observe("vsp_sim_window_issued_ops", &[], w.issued_ops);
        self.recorder
            .observe("vsp_sim_window_transfers", &[], w.transfers);
        self.recorder.observe(
            "vsp_sim_window_icache_stall_cycles",
            &[],
            w.icache_stall_cycles,
        );
        self.recorder
            .observe("vsp_sim_window_icache_refills", &[], w.icache_refills);
        self.window = MetricsWindow::default();
        self.window_start = self.cycle;
    }

    /// Selects the hazard policy.
    pub fn set_hazard_policy(&mut self, policy: HazardPolicy) {
        self.policy = policy;
    }

    /// Flat index of `cluster`'s register `reg` in `regs` and
    /// `reg_ready`. Validation keeps a program's register indices
    /// inside the file, so the step loop indexes with this directly.
    #[inline]
    fn reg_slot(&self, cluster: ClusterId, reg: u16) -> usize {
        cluster as usize * self.nregs + reg as usize
    }

    /// Flat index of `cluster`'s predicate `pred` in `preds` and
    /// `pred_ready`.
    #[inline]
    fn pred_slot(&self, cluster: ClusterId, pred: u8) -> usize {
        cluster as usize * self.npreds + pred as usize
    }

    /// Flat index of a register named through the public API, which
    /// panics on an index outside the cluster's file rather than
    /// reaching into the next cluster's row.
    fn checked_reg_slot(&self, cluster: ClusterId, reg: Reg) -> usize {
        assert!(reg.index() < self.nregs, "register {reg} out of range");
        self.reg_slot(cluster, reg.0)
    }

    /// Current value of a general register.
    pub fn reg(&self, cluster: ClusterId, reg: Reg) -> i16 {
        self.regs[self.checked_reg_slot(cluster, reg)]
    }

    /// Sets a general register (test/workload setup); the value is
    /// immediately readable.
    pub fn set_reg(&mut self, cluster: ClusterId, reg: Reg, value: i16) {
        let slot = self.checked_reg_slot(cluster, reg);
        self.regs[slot] = value;
        self.reg_ready[slot] = 0;
    }

    /// Current value of a predicate register.
    pub fn pred(&self, cluster: ClusterId, pred: Pred) -> bool {
        assert!(pred.index() < self.npreds, "predicate {pred} out of range");
        self.preds[self.pred_slot(cluster, pred.0)]
    }

    /// A cluster's memory bank.
    pub fn mem(&self, cluster: ClusterId, bank: u8) -> &LocalMemory {
        &self.mems[cluster as usize][bank as usize]
    }

    /// Mutable access to a cluster's memory bank (to stage input data).
    pub fn mem_mut(&mut self, cluster: ClusterId, bank: u8) -> &mut LocalMemory {
        &mut self.mems[cluster as usize][bank as usize]
    }

    /// Cycles elapsed so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Snapshots the complete architectural state — registers,
    /// predicates, both halves of every local-memory bank, cycle count
    /// and halt flag — for differential comparison between execution
    /// paths or simulators. The banks are copied row by row: a snapshot
    /// costs the rows the run wrote, not the machine's SRAM.
    pub fn arch_state(&self) -> ArchState {
        let clusters = self.mems.len();
        ArchState {
            cycle: self.cycle,
            halted: self.halted,
            regs: ArchState::flat_rows(&self.regs, clusters, self.nregs),
            preds: ArchState::flat_rows(&self.preds, clusters, self.npreds),
            mems: self.mems.clone(),
        }
    }

    /// Whether [`Simulator::arch_state`] would equal `reference`,
    /// decided in place: cycle, halt flag, registers, predicates and
    /// both buffers of every bank by role, visiting only the rows either
    /// side holds, with no snapshot allocated — the differential-oracle
    /// verdict primitive.
    #[must_use]
    pub fn state_matches(&self, reference: &ArchState) -> bool {
        let clusters = self.mems.len();
        reference.cycle == self.cycle
            && reference.halted == self.halted
            && ArchState::rows_match_flat(&reference.regs, &self.regs, clusters, self.nregs)
            && ArchState::rows_match_flat(&reference.preds, &self.preds, clusters, self.npreds)
            && reference.mems == self.mems
    }

    /// Whether a halt has committed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Runs until a halt commits or `max_cycles` elapse.
    ///
    /// ```
    /// use vsp_core::models;
    /// use vsp_isa::{AluBinOp, OpKind, Operand, Operation, Program, Reg};
    /// use vsp_sim::Simulator;
    ///
    /// let machine = models::i4c8s4();
    /// let mut p = Program::new("add");
    /// p.push_word(vec![Operation::new(0, 0, OpKind::AluBin {
    ///     op: AluBinOp::Add, dst: Reg(2), a: Operand::Imm(40), b: Operand::Imm(2),
    /// })]);
    /// p.push_word(vec![Operation::new(0, 4, OpKind::Halt)]);
    ///
    /// let mut sim = Simulator::new(&machine, &p).unwrap();
    /// let stats = sim.run(100).unwrap();
    /// assert_eq!(sim.reg(0, Reg(2)), 42);
    /// // The cycle-accounting invariant checked by the fuzz oracle:
    /// assert_eq!(stats.cycles, stats.words + stats.icache_stall_cycles);
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates hazard faults, memory range errors, fetch running past
    /// the program end, and [`SimError::CycleLimit`] when the budget is
    /// exhausted.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunStats, SimError> {
        while !self.halted {
            if self.cycle >= max_cycles {
                return Err(SimError::CycleLimit { limit: max_cycles });
            }
            self.step()?;
        }
        Ok(self.stats())
    }

    /// Runs via the legacy interpretive path ([`Simulator::step_interp`])
    /// instead of the pre-decoded fast path.
    ///
    /// Exists as the measurement baseline for the fast path and as the
    /// reference implementation for the differential tests; both paths
    /// must produce identical [`RunStats`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`].
    pub fn run_interp(&mut self, max_cycles: u64) -> Result<RunStats, SimError> {
        while !self.halted {
            if self.cycle >= max_cycles {
                return Err(SimError::CycleLimit { limit: max_cycles });
            }
            self.step_interp()?;
        }
        Ok(self.stats())
    }

    /// Statistics gathered so far (with derived fields such as the
    /// histogram zero-buckets filled in).
    pub fn stats(&self) -> RunStats {
        let mut stats = self.stats.clone();
        for class in vsp_isa::FuClass::ALL {
            let n = self.fast_class_ops[class as usize];
            if n > 0 {
                *stats.ops_by_class.entry(class).or_insert(0) += n;
            }
        }
        stats.add_util_histogram(&self.util_hist, self.hist_bins);
        stats.finalize();
        stats
    }
}
