//! The pre-decoded fast path: fetch, issue and execute one instruction
//! word per [`Simulator::step`] call.

use crate::decoded::{DKind, NO_GUARD};
use crate::error::SimError;
use crate::fault::FaultModel;
use vsp_isa::semantics;
use vsp_trace::{FaultSite, TraceEvent, TraceSink};

use super::{Simulator, WordScratch, DEFAULT_METRICS_WINDOW};

impl<'a, S: TraceSink, F: FaultModel, M: vsp_metrics::Recorder> Simulator<'a, S, F, M> {
    /// Executes one instruction word (plus any fetch stall preceding it)
    /// on the pre-decoded fast path.
    ///
    /// Semantically identical to [`Simulator::step_interp`] — the
    /// differential tests hold the two to exact [`RunStats`](crate::RunStats)
    /// equality —
    /// but works from the flat `DecodedProgram`: no operand enums, no
    /// per-op latency lookup, commits through the ring rather than the
    /// ordered map, and the trace check hoisted into one per-step bool.
    /// Neither path allocates per step (the result buffers live on the
    /// struct).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`], except the cycle budget.
    pub fn step(&mut self) -> Result<(), SimError> {
        if self.halted {
            return Ok(());
        }
        if self.pc >= self.program.len() {
            return Err(SimError::RanOffEnd { cycle: self.cycle });
        }
        let tracing = self.sink.enabled();
        // Hoisted like the trace check: with the default NullRecorder
        // this is a constant false and every metrics branch below is
        // dead code.
        let recording = self.recorder.enabled();

        // Fetch (may stall on an icache miss).
        let stall = self.icache.fetch(self.pc);
        if stall > 0 {
            self.stats.icache_misses += 1;
            self.stats.icache_stall_cycles += u64::from(stall);
            if recording {
                self.window.icache_refills += 1;
                self.window.icache_stall_cycles += u64::from(stall);
            }
            if tracing {
                self.sink.emit(TraceEvent::IcacheMiss {
                    cycle: self.cycle,
                    word: self.pc as u32,
                    stall,
                });
            }
            self.cycle += u64::from(stall);
        }
        if self.faults.enabled() {
            // Latency jitter: extra fetch stall charged as icache stall
            // cycles so `cycles == words + icache_stall_cycles` holds.
            let jitter = self.faults.fetch_jitter(self.cycle, self.pc as u32);
            if jitter > 0 {
                self.stats.icache_stall_cycles += u64::from(jitter);
                self.stats.faults_injected += 1;
                if tracing {
                    self.sink.emit(TraceEvent::FaultInject {
                        cycle: self.cycle,
                        site: FaultSite::Fetch,
                        cluster: 0,
                        index: self.pc as u32,
                        detail: jitter,
                    });
                }
                self.cycle += u64::from(jitter);
            }
        }

        self.apply_commits();

        let word_index = self.pc;

        // A word issued inside a branch-delay shadow that does no work at
        // all is a branch-redirect bubble; detect it for the stall-cycle
        // breakdown.
        let in_branch_shadow = self.redirect.is_some();

        // The scratch buffers leave `self` for the word (sidestepping a
        // borrow conflict with `&mut self` helper calls) and come back
        // cleared, whatever the word's outcome.
        let mut scratch = std::mem::take(&mut self.scratch);
        let executed = self.execute_word(word_index, tracing, recording, &mut scratch);
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
            if tracing {
                self.sink.emit(TraceEvent::BranchBubble {
                    cycle: self.cycle,
                    word: word_index as u32,
                });
            }
        }

        if halt {
            self.halted = true;
            if tracing {
                self.sink.emit(TraceEvent::Halt { cycle: self.cycle });
            }
        }
        if let Some(target) = branch {
            self.stats.taken_branches += 1;
            if tracing {
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

        if recording {
            self.window.words += 1;
            self.window.issued_ops += u64::from(word_issued_ops);
            if self.halted || self.cycle.wrapping_sub(self.window_start) >= DEFAULT_METRICS_WINDOW {
                self.flush_metrics_window();
            }
        }
        Ok(())
    }

    /// Issues word `word_index`: reads every operand against the
    /// pre-cycle state, then schedules the results and makes the
    /// stores and buffer swaps visible. Counts every committed op as it
    /// issues, so a word stopped by an error has counted the ops up to
    /// and including the failing one, as the interpretive path does.
    /// Returns the taken branch target, whether a halt issued, and the
    /// ops issued (committed and annulled).
    fn execute_word(
        &mut self,
        word_index: usize,
        tracing: bool,
        recording: bool,
        scratch: &mut WordScratch,
    ) -> Result<(Option<usize>, bool, u32), SimError> {
        let mut branch: Option<usize> = None;
        let mut halt = false;
        let mut word_issued_ops: u32 = 0;

        // Phase 1: all operand fetches happen against the pre-cycle state;
        // results are collected, not yet visible to the scoreboard (so
        // same-word reads of a destination see the old value, as the
        // hardware's operand-fetch stage does).
        for i in self.decoded.word_range(word_index) {
            let op = self.decoded.op(i);
            let c = op.cluster;
            if op.guard_pred != NO_GUARD {
                let v = self.read_pred_idx(c, op.guard_pred, word_index)?;
                if v != op.guard_sense {
                    self.stats.annulled_ops += 1;
                    word_issued_ops += 1;
                    if tracing {
                        self.sink.emit(TraceEvent::Annul {
                            cycle: self.cycle,
                            word: word_index as u32,
                            cluster: c,
                            slot: op.slot,
                        });
                    }
                    continue;
                }
            }
            if let Some(class) = op.class {
                self.fast_class_ops[class as usize] += 1;
                self.stats.record_cluster_op(c as usize);
                word_issued_ops += 1;
                if self.word_cluster_ops[c as usize] == 0 {
                    self.word_touched.push(c);
                }
                self.word_cluster_ops[c as usize] += 1;
                if tracing {
                    self.sink.emit(TraceEvent::Issue {
                        cycle: self.cycle,
                        word: word_index as u32,
                        cluster: c,
                        slot: op.slot,
                        class,
                    });
                }
            }
            match op.kind {
                DKind::AluBin { op: f, dst, a, b } => {
                    let x = self.read_doperand(c, a, word_index)?;
                    let y = self.read_doperand(c, b, word_index)?;
                    scratch
                        .reg_writes
                        .push((c, dst, semantics::alu_bin(f, x, y), op.latency));
                }
                DKind::AluUn { op: f, dst, a } => {
                    let x = self.read_doperand(c, a, word_index)?;
                    scratch
                        .reg_writes
                        .push((c, dst, semantics::alu_un(f, x), op.latency));
                }
                DKind::Shift { op: f, dst, a, b } => {
                    let x = self.read_doperand(c, a, word_index)?;
                    let y = self.read_doperand(c, b, word_index)?;
                    scratch
                        .reg_writes
                        .push((c, dst, semantics::shift(f, x, y), op.latency));
                }
                DKind::Mul { kind, dst, a, b } => {
                    let x = self.read_doperand(c, a, word_index)?;
                    let y = self.read_doperand(c, b, word_index)?;
                    scratch
                        .reg_writes
                        .push((c, dst, semantics::mul(kind, x, y), op.latency));
                }
                DKind::Cmp { op: f, dst, a, b } => {
                    let x = self.read_doperand(c, a, word_index)?;
                    let y = self.read_doperand(c, b, word_index)?;
                    scratch
                        .pred_writes
                        .push((c, dst, semantics::cmp(f, x, y), op.latency));
                }
                DKind::Load { dst, addr, bank } => {
                    let a = self.effective_addr_idx(c, addr, word_index)?;
                    let mem = &self.mems[c as usize][bank as usize];
                    let v = mem.read(a).ok_or(SimError::MemOutOfRange {
                        cycle: self.cycle,
                        cluster: c,
                        bank,
                        addr: a,
                        words: mem.words(),
                    })?;
                    self.stats.loads += 1;
                    let v = if self.faults.enabled() {
                        self.fault_mem_read(c, bank, a, v)
                    } else {
                        v
                    };
                    scratch.reg_writes.push((c, dst, v, op.latency));
                }
                DKind::Store { src, addr, bank } => {
                    let a = self.effective_addr_idx(c, addr, word_index)?;
                    let v = self.read_doperand(c, src, word_index)?;
                    // Range check now so the error carries the issue cycle.
                    let mem = &self.mems[c as usize][bank as usize];
                    if a >= mem.words() {
                        return Err(SimError::MemOutOfRange {
                            cycle: self.cycle,
                            cluster: c,
                            bank,
                            addr: a,
                            words: mem.words(),
                        });
                    }
                    self.stats.stores += 1;
                    scratch.stores.push((c, bank, a, v));
                }
                DKind::Xfer { dst, from, src } => {
                    let v = self.read_reg_idx(from, src, word_index)?;
                    self.stats.transfers += 1;
                    if recording {
                        self.window.transfers += 1;
                    }
                    let v = if self.faults.enabled() {
                        self.fault_xfer(from, c, src, v)
                    } else {
                        v
                    };
                    scratch.reg_writes.push((c, dst, v, op.latency));
                }
                DKind::Branch {
                    pred,
                    sense,
                    target,
                } => {
                    if self.read_pred_idx(c, pred, word_index)? == sense {
                        branch = Some(target as usize);
                    }
                }
                DKind::Jump { target } => branch = Some(target as usize),
                DKind::Halt => halt = true,
                DKind::Swap { bank } => scratch.swaps.push((c, bank)),
                DKind::Nop => {}
            }
        }

        // Phase 2: register/predicate results enter the bypass network.
        for &(c, r, v, lat) in &scratch.reg_writes {
            self.schedule_reg(c, r, v, lat)?;
        }
        for &(c, p, v, lat) in &scratch.pred_writes {
            self.schedule_pred(c, p, v, lat)?;
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
}
