//! Microarchitectural checkpoint/restore — the basis of the `vsp-fault`
//! re-execute-from-checkpoint recovery loop.

use crate::fault::FaultModel;
use crate::icache::InstructionCache;
use crate::memory::LocalMemory;
use crate::stats::RunStats;
use std::collections::BTreeMap;
use vsp_trace::TraceSink;

use super::{Commit, Simulator};

/// A full microarchitectural snapshot of a [`Simulator`]: architectural
/// state plus everything in flight — pending commits, scoreboard ready
/// times, icache tags, fetch/redirect state, and statistics.
///
/// Built by [`Simulator::checkpoint`], refreshed in place by
/// [`Simulator::checkpoint_into`] and consumed by
/// [`Simulator::restore`]; re-executing from a restored checkpoint
/// replays the simulation exactly (the basis of the `vsp-fault`
/// re-execute-from-checkpoint recovery loop). Fields are private: a
/// checkpoint is only meaningful to a simulator over the same machine
/// and program shape that produced it.
///
/// Each of these three calls syncs the simulator's local memories with
/// the checkpoint's. The next call that pairs the simulator with the
/// checkpoint it last synced with copies only the memory rows written
/// in between; any other checkpoint is copied whole, so every
/// checkpoint stays restorable in any order. A clone is a checkpoint
/// no simulator has synced with.
///
/// Registers, predicates and their ready times are flat arrays, as in
/// the simulator, and the icache tags are four bytes a line: apart from
/// the memory rows, taking or restoring a checkpoint is a handful of
/// `memcpy`s.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    regs: Vec<i16>,
    reg_ready: Vec<u64>,
    preds: Vec<bool>,
    pred_ready: Vec<u64>,
    mems: Vec<Vec<LocalMemory>>,
    pending_ring: Vec<Vec<Commit>>,
    pending_count: usize,
    pending_far: BTreeMap<u64, Vec<Commit>>,
    drained_through: u64,
    icache: InstructionCache,
    pc: usize,
    cycle: u64,
    redirect: Option<(usize, u32)>,
    halted: bool,
    stats: RunStats,
    fast_class_ops: [u64; 6],
    util_hist: Vec<u64>,
}

impl Checkpoint {
    /// Cycle count at the moment the checkpoint was taken.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

impl<'a, S: TraceSink, F: FaultModel, M: vsp_metrics::Recorder> Simulator<'a, S, F, M> {
    /// Snapshots the complete microarchitectural state for later
    /// [`Simulator::restore`]. Unlike [`Simulator::arch_state`] this
    /// includes in-flight commits, scoreboard ready times, the icache,
    /// fetch/redirect state and statistics, so resuming from it replays
    /// the run exactly. It takes `&mut self` because the simulator's
    /// memories start a sync with the new checkpoint.
    pub fn checkpoint(&mut self) -> Checkpoint {
        let mut mems = Vec::new();
        self.save_mems(&mut mems);
        Checkpoint {
            regs: self.regs.clone(),
            reg_ready: self.reg_ready.clone(),
            preds: self.preds.clone(),
            pred_ready: self.pred_ready.clone(),
            mems,
            pending_ring: self.pending_ring.clone(),
            pending_count: self.pending_count,
            pending_far: self.pending_far.clone(),
            drained_through: self.drained_through,
            icache: self.icache.clone(),
            pc: self.pc,
            cycle: self.cycle,
            redirect: self.redirect,
            halted: self.halted,
            stats: self.stats.clone(),
            fast_class_ops: self.fast_class_ops,
            util_hist: self.util_hist.clone(),
        }
    }

    /// Overwrites `cp` with the current state, exactly as
    /// [`Simulator::checkpoint`] would take it, but copying into `cp`'s
    /// existing buffers instead of allocating new ones. `cp` may have
    /// been taken at any cycle; its buffers are reused when it comes
    /// from the same machine, and only the memory rows written since
    /// the last sync move when it is the checkpoint this simulator last
    /// synced with.
    pub fn checkpoint_into(&mut self, cp: &mut Checkpoint) {
        cp.regs.clone_from(&self.regs);
        cp.reg_ready.clone_from(&self.reg_ready);
        cp.preds.clone_from(&self.preds);
        cp.pred_ready.clone_from(&self.pred_ready);
        self.save_mems(&mut cp.mems);
        cp.pending_ring.clone_from(&self.pending_ring);
        cp.pending_count = self.pending_count;
        cp.pending_far.clone_from(&self.pending_far);
        cp.drained_through = self.drained_through;
        cp.icache.clone_from(&self.icache);
        cp.pc = self.pc;
        cp.cycle = self.cycle;
        cp.redirect = self.redirect;
        cp.halted = self.halted;
        cp.stats.clone_from(&self.stats);
        cp.fast_class_ops = self.fast_class_ops;
        cp.util_hist.clone_from(&self.util_hist);
    }

    /// Rolls the simulator back to a [`Checkpoint`] taken earlier on
    /// this same machine/program pair.
    ///
    /// Local memories move back row by row when `cp` is the checkpoint
    /// this simulator last synced with, whole otherwise.
    ///
    /// Statistics roll back too (the discarded cycles never happened on
    /// the surviving timeline); the `vsp-fault` recovery loop accounts
    /// the thrown-away work separately as `recovery_cycles`. The
    /// per-word occupancy counts are cleared — a step aborted mid-word
    /// by a fault may have left them dirty.
    pub fn restore(&mut self, cp: &Checkpoint) {
        self.regs.clone_from(&cp.regs);
        self.reg_ready.clone_from(&cp.reg_ready);
        self.preds.clone_from(&cp.preds);
        self.pred_ready.clone_from(&cp.pred_ready);
        debug_assert!(
            cp.mems
                .iter()
                .map(Vec::len)
                .eq(self.mems.iter().map(Vec::len)),
            "checkpoint from another machine"
        );
        for (banks, saved) in self.mems.iter_mut().zip(&cp.mems) {
            for (bank, saved) in banks.iter_mut().zip(saved) {
                bank.restore_from(saved);
            }
        }
        self.pending_ring.clone_from(&cp.pending_ring);
        self.pending_count = cp.pending_count;
        self.pending_far.clone_from(&cp.pending_far);
        self.drained_through = cp.drained_through;
        self.icache.clone_from(&cp.icache);
        self.pc = cp.pc;
        self.cycle = cp.cycle;
        self.redirect = cp.redirect;
        self.halted = cp.halted;
        self.stats.clone_from(&cp.stats);
        self.fast_class_ops = cp.fast_class_ops;
        self.util_hist.clone_from(&cp.util_hist);
        for n in &mut self.word_cluster_ops {
            *n = 0;
        }
        self.word_touched.clear();
    }

    /// Syncs every bank into `saved`, first giving it the machine's
    /// shape (a bank it lacked starts empty and takes a whole copy).
    fn save_mems(&mut self, saved: &mut Vec<Vec<LocalMemory>>) {
        saved.resize_with(self.mems.len(), Vec::new);
        for (banks, saved) in self.mems.iter_mut().zip(saved) {
            saved.resize_with(banks.len(), || LocalMemory::new(0));
            for (bank, saved) in banks.iter_mut().zip(saved) {
                bank.save_into(saved);
            }
        }
    }
}
