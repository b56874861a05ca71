//! The legacy interpretive path: walks the symbolic [`vsp_isa::Program`]
//! directly, serving as the measurement baseline and reference
//! semantics for the pre-decoded fast path in `fetch`.

use crate::error::SimError;
use crate::fault::FaultModel;
use vsp_core::LatencyModel;
use vsp_isa::semantics;
use vsp_isa::{
    AddrMode, ClusterId, Instruction, MemCtlOp, OpKind, Operand, Operation, Pred, Program, Reg,
};
use vsp_trace::{TraceEvent, TraceSink};

use super::{Commit, HazardPolicy, Simulator, WordScratch};

impl<'a, S: TraceSink, F: FaultModel, M: vsp_metrics::Recorder> Simulator<'a, S, F, M> {
    /// Executes one instruction word on the legacy interpretive path:
    /// walks the symbolic [`Program`] word, borrowed
    /// from the program for the step, resolving operands,
    /// functional-unit classes, and latencies on the fly.
    ///
    /// Kept as the measurement baseline and reference semantics for
    /// [`Simulator::step`]. Underneath, the two paths share only the
    /// commit drain (`Simulator::apply_commits`) and the per-word result
    /// buffers (`WordScratch`); the interpretive path schedules every
    /// commit through the ordered map.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`], except the cycle budget.
    pub fn step_interp(&mut self) -> Result<(), SimError> {
        if self.halted {
            return Ok(());
        }
        if self.pc >= self.program.len() {
            return Err(SimError::RanOffEnd { cycle: self.cycle });
        }

        // Fetch (may stall on an icache miss).
        let stall = self.icache.fetch(self.pc);
        if stall > 0 {
            self.stats.icache_misses += 1;
            self.stats.icache_stall_cycles += u64::from(stall);
            if self.sink.enabled() {
                self.sink.emit(TraceEvent::IcacheMiss {
                    cycle: self.cycle,
                    word: self.pc as u32,
                    stall,
                });
            }
            self.cycle += u64::from(stall);
        }

        self.apply_commits();

        // The word borrows from the program, which outlives `self`, so
        // the `&mut self` helpers below may run while it is held.
        let program: &'a Program = self.program;
        let word = program.word(self.pc).expect("pc checked above");
        let word_index = self.pc;

        // A word issued inside a branch-delay shadow that does no work at
        // all is a branch-redirect bubble; detect it for the stall-cycle
        // breakdown.
        let in_branch_shadow = self.redirect.is_some();

        // The result buffers leave `self` for the word, as on the fast
        // path, and come back cleared whatever the word's outcome.
        let mut scratch = std::mem::take(&mut self.scratch);
        let executed = self.interp_word(word, word_index, &mut scratch);
        scratch.clear();
        self.scratch = scratch;
        let (branch, halt, word_issued_ops) = executed?;

        self.stats.words += 1;
        self.stats.issue_capacity += u64::from(self.machine.peak_ops_per_cycle());

        // Fold this word's per-cluster occupancy into the histogram
        // (only clusters that issued; zero-buckets are derived when the
        // statistics are read, so idle clusters cost nothing here).
        while let Some(cluster) = self.word_touched.pop() {
            let c = cluster as usize;
            let ops = self.word_cluster_ops[c] as usize;
            self.word_cluster_ops[c] = 0;
            self.util_hist[c * self.hist_bins + ops] += 1;
        }
        if in_branch_shadow && word_issued_ops == 0 {
            self.stats.branch_bubble_cycles += 1;
            if self.sink.enabled() {
                self.sink.emit(TraceEvent::BranchBubble {
                    cycle: self.cycle,
                    word: word_index as u32,
                });
            }
        }

        if halt {
            self.halted = true;
            if self.sink.enabled() {
                self.sink.emit(TraceEvent::Halt { cycle: self.cycle });
            }
        }
        if let Some(target) = branch {
            self.stats.taken_branches += 1;
            if self.sink.enabled() {
                self.sink.emit(TraceEvent::Branch {
                    cycle: self.cycle,
                    word: word_index as u32,
                    target: target as u32,
                });
            }
            self.redirect = Some((target, self.machine.pipeline.branch_delay_slots));
        }

        match self.redirect {
            Some((target, 0)) => {
                self.pc = target;
                self.redirect = None;
            }
            Some((target, n)) => {
                self.redirect = Some((target, n - 1));
                self.pc += 1;
            }
            None => self.pc += 1,
        }
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        Ok(())
    }

    /// Issues `word` on the interpretive path: reads every operand
    /// against the pre-cycle state, then schedules the results through
    /// the ordered map and makes the stores and buffer swaps visible.
    /// Returns the taken branch target, whether a halt issued, and the
    /// ops issued (committed and annulled).
    fn interp_word(
        &mut self,
        word: &Instruction,
        word_index: usize,
        scratch: &mut WordScratch,
    ) -> Result<(Option<usize>, bool, u32), SimError> {
        let mut branch: Option<usize> = None;
        let mut halt = false;
        let mut word_issued_ops: u32 = 0;

        // Phase 1: all operand fetches happen against the pre-cycle state;
        // results are collected, not yet visible to the scoreboard (so
        // same-word reads of a destination see the old value, as the
        // hardware's operand-fetch stage does).
        for op in word.iter() {
            if let Some(active) = self.guard_value(op, word_index)? {
                if !active {
                    self.stats.annulled_ops += 1;
                    word_issued_ops += 1;
                    if self.sink.enabled() {
                        self.sink.emit(TraceEvent::Annul {
                            cycle: self.cycle,
                            word: word_index as u32,
                            cluster: op.cluster,
                            slot: op.slot,
                        });
                    }
                    continue;
                }
            }
            if let Some(class) = op.fu_class() {
                self.stats.record_op(class, op.cluster as usize);
                word_issued_ops += 1;
                if self.word_cluster_ops[op.cluster as usize] == 0 {
                    self.word_touched.push(op.cluster);
                }
                self.word_cluster_ops[op.cluster as usize] += 1;
                if self.sink.enabled() {
                    self.sink.emit(TraceEvent::Issue {
                        cycle: self.cycle,
                        word: word_index as u32,
                        cluster: op.cluster,
                        slot: op.slot,
                        class,
                    });
                }
            }
            self.execute_op(op, word_index, scratch, &mut branch, &mut halt)?;
        }

        // Phase 2: register/predicate results enter the bypass network.
        // The interpretive path schedules through the ordered map, as the
        // original interpreter did, so it stays an honest baseline for
        // the ring-buffered fast path.
        for &(c, r, v, lat) in &scratch.reg_writes {
            self.schedule_reg_interp(c, r, v, lat)?;
        }
        for &(c, p, v, lat) in &scratch.pred_writes {
            self.schedule_pred_interp(c, p, v, lat)?;
        }

        // End of cycle: stores and buffer swaps become visible.
        for &(c, b, addr, v) in &scratch.stores {
            let mem = &mut self.mems[c as usize][b as usize];
            if !mem.write(addr, v) {
                return Err(SimError::MemOutOfRange {
                    cycle: self.cycle,
                    cluster: c,
                    bank: b,
                    addr,
                    words: mem.words(),
                });
            }
        }
        for &(c, b) in &scratch.swaps {
            self.mems[c as usize][b as usize].swap();
        }
        Ok((branch, halt, word_issued_ops))
    }

    /// Reads the guard predicate, or `None` when unguarded.
    fn guard_value(&self, op: &Operation, word: usize) -> Result<Option<bool>, SimError> {
        match &op.guard {
            None => Ok(None),
            Some(g) => {
                let v = self.read_pred(op.cluster, g.pred, word)?;
                Ok(Some(v == g.sense))
            }
        }
    }

    fn read_reg(&self, cluster: ClusterId, reg: Reg, word: usize) -> Result<i16, SimError> {
        let slot = self.reg_slot(cluster, reg.0);
        let ready = self.reg_ready[slot];
        if ready > self.cycle && self.policy == HazardPolicy::Fault {
            return Err(SimError::PrematureRead {
                cycle: self.cycle,
                word,
                cluster,
                reg,
                ready_at: ready,
            });
        }
        Ok(self.regs[slot])
    }

    fn read_pred(&self, cluster: ClusterId, pred: Pred, word: usize) -> Result<bool, SimError> {
        let slot = self.pred_slot(cluster, pred.0);
        let ready = self.pred_ready[slot];
        if ready > self.cycle && self.policy == HazardPolicy::Fault {
            return Err(SimError::PrematureRead {
                cycle: self.cycle,
                word,
                cluster,
                reg: Reg(u16::from(pred.0) | 0x8000),
                ready_at: ready,
            });
        }
        Ok(self.preds[slot])
    }

    fn read_operand(
        &self,
        cluster: ClusterId,
        operand: Operand,
        word: usize,
    ) -> Result<i16, SimError> {
        match operand {
            Operand::Reg(r) => self.read_reg(cluster, r, word),
            Operand::Imm(v) => Ok(v),
        }
    }

    fn effective_addr(
        &self,
        cluster: ClusterId,
        addr: AddrMode,
        word: usize,
    ) -> Result<u32, SimError> {
        let a = match addr {
            AddrMode::Absolute(a) => a,
            AddrMode::Register(r) => self.read_reg(cluster, r, word)? as u16,
            AddrMode::BaseDisp(r, d) => (self.read_reg(cluster, r, word)?).wrapping_add(d) as u16,
            AddrMode::Indexed(r, s) => {
                let base = self.read_reg(cluster, r, word)?;
                let idx = self.read_reg(cluster, s, word)?;
                base.wrapping_add(idx) as u16
            }
        };
        Ok(u32::from(a))
    }

    /// Interpretive-path commit scheduling: always through the ordered
    /// map, mirroring the original interpreter's `BTreeMap` bookkeeping.
    /// [`Simulator::apply_commits`] drains both structures, so mixing
    /// `step` and `step_interp` on one simulator stays coherent.
    fn schedule_reg_interp(
        &mut self,
        cluster: ClusterId,
        reg: u16,
        value: i16,
        latency: u32,
    ) -> Result<(), SimError> {
        let at = self.cycle + u64::from(latency);
        let slot = self.reg_slot(cluster, reg);
        let ready = self.reg_ready[slot];
        self.check_write_port(ready, at, latency, cluster, Reg(reg))?;
        self.pending_far
            .entry(at)
            .or_default()
            .push(Commit::Reg(slot as u32, value));
        self.reg_ready[slot] = ready.max(at);
        Ok(())
    }

    /// Predicate twin of [`Simulator::schedule_reg_interp`].
    fn schedule_pred_interp(
        &mut self,
        cluster: ClusterId,
        pred: u8,
        value: bool,
        latency: u32,
    ) -> Result<(), SimError> {
        let at = self.cycle + u64::from(latency);
        let slot = self.pred_slot(cluster, pred);
        let ready = self.pred_ready[slot];
        self.check_write_port(ready, at, latency, cluster, Reg(u16::from(pred) | 0x8000))?;
        self.pending_far
            .entry(at)
            .or_default()
            .push(Commit::Pred(slot as u32, value));
        self.pred_ready[slot] = ready.max(at);
        Ok(())
    }

    fn execute_op(
        &mut self,
        op: &Operation,
        word: usize,
        scratch: &mut WordScratch,
        branch: &mut Option<usize>,
        halt: &mut bool,
    ) -> Result<(), SimError> {
        let WordScratch {
            stores,
            swaps,
            reg_writes,
            pred_writes,
        } = scratch;
        let c = op.cluster;
        let latency = LatencyModel::new(self.machine).latency(&op.kind);
        match &op.kind {
            OpKind::AluBin { op: f, dst, a, b } => {
                let x = self.read_operand(c, *a, word)?;
                let y = self.read_operand(c, *b, word)?;
                reg_writes.push((c, dst.0, semantics::alu_bin(*f, x, y), latency));
            }
            OpKind::AluUn { op: f, dst, a } => {
                let x = self.read_operand(c, *a, word)?;
                reg_writes.push((c, dst.0, semantics::alu_un(*f, x), latency));
            }
            OpKind::Shift { op: f, dst, a, b } => {
                let x = self.read_operand(c, *a, word)?;
                let y = self.read_operand(c, *b, word)?;
                reg_writes.push((c, dst.0, semantics::shift(*f, x, y), latency));
            }
            OpKind::Mul { kind, dst, a, b } => {
                let x = self.read_operand(c, *a, word)?;
                let y = self.read_operand(c, *b, word)?;
                reg_writes.push((c, dst.0, semantics::mul(*kind, x, y), latency));
            }
            OpKind::Cmp { op: f, dst, a, b } => {
                let x = self.read_operand(c, *a, word)?;
                let y = self.read_operand(c, *b, word)?;
                pred_writes.push((c, dst.0, semantics::cmp(*f, x, y), latency));
            }
            OpKind::Load { dst, addr, bank } => {
                let a = self.effective_addr(c, *addr, word)?;
                let mem = &self.mems[c as usize][bank.index()];
                let v = mem.read(a).ok_or(SimError::MemOutOfRange {
                    cycle: self.cycle,
                    cluster: c,
                    bank: bank.0,
                    addr: a,
                    words: mem.words(),
                })?;
                self.stats.loads += 1;
                reg_writes.push((c, dst.0, v, latency));
            }
            OpKind::Store { src, addr, bank } => {
                let a = self.effective_addr(c, *addr, word)?;
                let v = self.read_operand(c, *src, word)?;
                // Range check now so the error carries the issue cycle.
                let mem = &self.mems[c as usize][bank.index()];
                if a >= mem.words() {
                    return Err(SimError::MemOutOfRange {
                        cycle: self.cycle,
                        cluster: c,
                        bank: bank.0,
                        addr: a,
                        words: mem.words(),
                    });
                }
                self.stats.stores += 1;
                stores.push((c, bank.0, a, v));
            }
            OpKind::Xfer { dst, from, src } => {
                let v = self.read_reg(*from, *src, word)?;
                self.stats.transfers += 1;
                reg_writes.push((c, dst.0, v, latency));
            }
            OpKind::Branch {
                pred,
                sense,
                target,
            } => {
                if self.read_pred(c, *pred, word)? == *sense {
                    *branch = Some(*target);
                }
            }
            OpKind::Jump { target } => *branch = Some(*target),
            OpKind::Halt => *halt = true,
            OpKind::MemCtl {
                op: MemCtlOp::SwapBuffers,
                bank,
            } => swaps.push((c, bank.0)),
            OpKind::Nop => {}
        }
        Ok(())
    }
}
