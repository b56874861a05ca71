//! Fast-path operand access: indexed register/predicate reads,
//! effective-address computation, and the fault-injection hooks that
//! sit on every exposed datapath read.

use crate::decoded::{DAddr, DOperand};
use crate::error::SimError;
use crate::fault::FaultModel;
use vsp_isa::{ClusterId, Reg};
use vsp_trace::{FaultSite, TraceEvent, TraceSink};

use super::{HazardPolicy, Simulator};

impl<'a, S: TraceSink, F: FaultModel, M: vsp_metrics::Recorder> Simulator<'a, S, F, M> {
    /// Fast-path twin of [`Simulator::read_reg`] taking a raw register
    /// index; errors reconstruct the [`Reg`] so faults are identical to
    /// the interpretive path's.
    #[inline]
    pub(super) fn read_reg_idx(
        &mut self,
        cluster: ClusterId,
        reg: u16,
        word: usize,
    ) -> Result<i16, SimError> {
        let slot = self.reg_slot(cluster, reg);
        let ready = self.reg_ready[slot];
        if ready > self.cycle && self.policy == HazardPolicy::Fault {
            return Err(SimError::premature_read(
                self.cycle,
                word,
                cluster,
                Reg(reg),
                ready,
            ));
        }
        let v = self.regs[slot];
        if self.faults.enabled() {
            return Ok(self.fault_reg_read(cluster, reg, v));
        }
        Ok(v)
    }

    /// Runs a register-file read through the fault model, recording an
    /// injection (stats counter + trace event) when the value changed.
    fn fault_reg_read(&mut self, cluster: ClusterId, reg: u16, value: i16) -> i16 {
        let faulted = self.faults.on_reg_read(self.cycle, cluster, reg, value);
        if faulted != value {
            self.stats.faults_injected += 1;
            if self.sink.enabled() {
                self.sink.emit(TraceEvent::FaultInject {
                    cycle: self.cycle,
                    site: FaultSite::RegRead,
                    cluster,
                    index: u32::from(reg),
                    detail: u32::from((faulted ^ value) as u16),
                });
            }
        }
        faulted
    }

    /// Local-SRAM twin of [`Simulator::fault_reg_read`].
    pub(super) fn fault_mem_read(
        &mut self,
        cluster: ClusterId,
        bank: u8,
        addr: u32,
        value: i16,
    ) -> i16 {
        let faulted = self
            .faults
            .on_mem_read(self.cycle, cluster, bank, addr, value);
        if faulted != value {
            self.stats.faults_injected += 1;
            if self.sink.enabled() {
                self.sink.emit(TraceEvent::FaultInject {
                    cycle: self.cycle,
                    site: FaultSite::MemRead,
                    cluster,
                    index: addr,
                    detail: u32::from((faulted ^ value) as u16),
                });
            }
        }
        faulted
    }

    /// Crossbar twin of [`Simulator::fault_reg_read`]; the event is
    /// attributed to the *destination* cluster (the consumer of the
    /// corrupted transfer).
    pub(super) fn fault_xfer(
        &mut self,
        from: ClusterId,
        to: ClusterId,
        src: u16,
        value: i16,
    ) -> i16 {
        let faulted = self.faults.on_xfer(self.cycle, from, to, src, value);
        if faulted != value {
            self.stats.faults_injected += 1;
            if self.sink.enabled() {
                self.sink.emit(TraceEvent::FaultInject {
                    cycle: self.cycle,
                    site: FaultSite::Xfer,
                    cluster: to,
                    index: u32::from(src),
                    detail: u32::from((faulted ^ value) as u16),
                });
            }
        }
        faulted
    }

    /// Fast-path twin of [`Simulator::read_pred`]; faults encode the
    /// predicate with the same high-bit convention.
    #[inline]
    pub(super) fn read_pred_idx(
        &self,
        cluster: ClusterId,
        pred: u8,
        word: usize,
    ) -> Result<bool, SimError> {
        let slot = self.pred_slot(cluster, pred);
        let ready = self.pred_ready[slot];
        if ready > self.cycle && self.policy == HazardPolicy::Fault {
            return Err(SimError::premature_read(
                self.cycle,
                word,
                cluster,
                Reg(u16::from(pred) | 0x8000),
                ready,
            ));
        }
        Ok(self.preds[slot])
    }

    #[inline]
    pub(super) fn read_doperand(
        &mut self,
        cluster: ClusterId,
        operand: DOperand,
        word: usize,
    ) -> Result<i16, SimError> {
        match operand {
            DOperand::Reg(r) => self.read_reg_idx(cluster, r, word),
            DOperand::Imm(v) => Ok(v),
        }
    }

    #[inline]
    pub(super) fn effective_addr_idx(
        &mut self,
        cluster: ClusterId,
        addr: DAddr,
        word: usize,
    ) -> Result<u32, SimError> {
        let a = match addr {
            DAddr::Abs(a) => a,
            DAddr::Reg(r) => self.read_reg_idx(cluster, r, word)? as u16,
            DAddr::BaseDisp(r, d) => (self.read_reg_idx(cluster, r, word)?).wrapping_add(d) as u16,
            DAddr::Indexed(r, s) => {
                let base = self.read_reg_idx(cluster, r, word)?;
                let idx = self.read_reg_idx(cluster, s, word)?;
                base.wrapping_add(idx) as u16
            }
        };
        Ok(u32::from(a))
    }
}
