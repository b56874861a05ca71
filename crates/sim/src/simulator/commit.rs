//! Commit bookkeeping shared by both execution paths: the
//! pending-commit ring, the ordered overflow map, write-port conflict
//! checks, and bypass-network result scheduling.

use crate::error::SimError;
use crate::fault::FaultModel;
use vsp_isa::{ClusterId, Reg};
use vsp_trace::TraceSink;

use super::{Commit, HazardPolicy, Simulator, PENDING_SLOTS};

impl<'a, S: TraceSink, F: FaultModel, M: vsp_metrics::Recorder> Simulator<'a, S, F, M> {
    /// Applies all register/predicate commits due at or before this cycle.
    ///
    /// Drains the ring slots for every cycle in
    /// `(drained_through, cycle]`. The span is capped at
    /// [`PENDING_SLOTS`]: when a fetch stall jumps the cycle counter
    /// further than the window, draining all slots once covers every
    /// outstanding commit, because each was scheduled at most
    /// `PENDING_SLOTS` cycles past `drained_through` (longer latencies
    /// live in `pending_far`).
    pub(super) fn apply_commits(&mut self) {
        if self.pending_count > 0 {
            let span = (self.cycle - self.drained_through).min(PENDING_SLOTS as u64);
            for c in (self.cycle + 1 - span)..=self.cycle {
                let slot = (c % PENDING_SLOTS as u64) as usize;
                if self.pending_ring[slot].is_empty() {
                    continue;
                }
                let mut commits = std::mem::take(&mut self.pending_ring[slot]);
                self.pending_count -= commits.len();
                for commit in &commits {
                    self.apply(*commit);
                }
                commits.clear();
                self.pending_ring[slot] = commits;
            }
        }
        self.drained_through = self.cycle;
        while let Some(entry) = self.pending_far.first_entry() {
            if *entry.key() > self.cycle {
                break;
            }
            for commit in entry.remove() {
                self.apply(commit);
            }
        }
    }

    /// Makes one commit's value architecturally visible.
    #[inline]
    fn apply(&mut self, commit: Commit) {
        match commit {
            Commit::Reg(slot, v) => self.regs[slot as usize] = v,
            Commit::Pred(slot, v) => self.preds[slot as usize] = v,
        }
    }

    /// Queues a commit for `at` cycles: in the ring when the latency fits
    /// the window (always, for real latency models), else in the ordered
    /// overflow map. Latency 0 also takes the map so the commit still
    /// lands on the next [`Simulator::apply_commits`] — its ring slot was
    /// already drained this cycle.
    #[inline]
    fn push_commit(&mut self, at: u64, latency: u32, commit: Commit) {
        if (1..=PENDING_SLOTS as u32).contains(&latency) {
            self.pending_ring[(at % PENDING_SLOTS as u64) as usize].push(commit);
            self.pending_count += 1;
        } else {
            self.pending_far.entry(at).or_default().push(commit);
        }
    }

    /// Checks a result entering the bypass network against the single
    /// write port: a second result landing on the same register in the
    /// same cycle is a [`SimError::WriteConflict`] under
    /// [`HazardPolicy::Fault`]. `at = cycle + latency` with `latency ≥ 1`
    /// is strictly in the future, so `ready == at` can only mean another
    /// commit is already pending for that exact cycle.
    #[inline]
    pub(super) fn check_write_port(
        &self,
        ready: u64,
        at: u64,
        latency: u32,
        cluster: ClusterId,
        reg: Reg,
    ) -> Result<(), SimError> {
        if latency > 0 && ready == at && self.policy == HazardPolicy::Fault {
            return Err(SimError::WriteConflict {
                cycle: at,
                cluster,
                reg,
            });
        }
        Ok(())
    }

    pub(super) fn schedule_reg(
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
        self.push_commit(at, latency, Commit::Reg(slot as u32, value));
        self.reg_ready[slot] = ready.max(at);
        Ok(())
    }

    pub(super) fn schedule_pred(
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
        self.push_commit(at, latency, Commit::Pred(slot as u32, value));
        self.pred_ready[slot] = ready.max(at);
        Ok(())
    }
}
