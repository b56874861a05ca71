//! Simulation errors.

use std::fmt;
use vsp_core::validate::ValidationError;
use vsp_isa::{ClusterId, Reg};

/// Errors raised during simulation.
///
/// Comparable and cloneable so fault-campaign reports (`vsp-fault`, the
/// `vsp-bench` `faults` bin) can carry the exact error a case died with.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The program failed structural validation for the machine.
    Invalid(Vec<ValidationError>),
    /// A register was read before its producing operation's latency had
    /// elapsed — a statically scheduled machine has no interlocks, so
    /// this is a scheduler bug (only raised under
    /// [`crate::HazardPolicy::Fault`]).
    PrematureRead {
        /// Cycle of the offending read.
        cycle: u64,
        /// Word index being executed.
        word: usize,
        /// Cluster of the read.
        cluster: ClusterId,
        /// Register read too early.
        reg: Reg,
        /// Cycle at which the value would have become readable.
        ready_at: u64,
    },
    /// Two operations committed a write to the same register in the same
    /// cycle.
    WriteConflict {
        /// Commit cycle.
        cycle: u64,
        /// Cluster of the conflict.
        cluster: ClusterId,
        /// Register written twice.
        reg: Reg,
    },
    /// A memory access fell outside its bank.
    MemOutOfRange {
        /// Cycle of the access.
        cycle: u64,
        /// Cluster of the access.
        cluster: ClusterId,
        /// Bank index.
        bank: u8,
        /// Offending word address.
        addr: u32,
        /// Bank capacity in words.
        words: u32,
    },
    /// The program ran past the cycle budget without halting.
    CycleLimit {
        /// The exhausted budget.
        limit: u64,
    },
    /// Execution fell off the end of the program without a halt.
    RanOffEnd {
        /// Cycle at which it happened.
        cycle: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Invalid(errs) => {
                write!(f, "program invalid for machine ({} violations; first: {})",
                    errs.len(),
                    errs.first().map(|e| e.to_string()).unwrap_or_default())
            }
            SimError::PrematureRead {
                cycle,
                word,
                cluster,
                reg,
                ready_at,
            } => write!(
                f,
                "cycle {cycle}, word {word}: c{cluster}.{reg} read before ready (ready at {ready_at})"
            ),
            SimError::WriteConflict { cycle, cluster, reg } => {
                write!(f, "cycle {cycle}: conflicting writes to c{cluster}.{reg}")
            }
            SimError::MemOutOfRange {
                cycle,
                cluster,
                bank,
                addr,
                words,
            } => write!(
                f,
                "cycle {cycle}: address {addr} outside c{cluster}.m{bank} ({words} words)"
            ),
            SimError::CycleLimit { limit } => {
                write!(f, "no halt within {limit} cycles")
            }
            SimError::RanOffEnd { cycle } => {
                write!(f, "cycle {cycle}: fetch ran past the end of the program")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl SimError {
    /// Builds [`SimError::PrematureRead`] out of line, so the register
    /// and predicate reads that can raise it stay small enough to
    /// inline into the step loop.
    #[cold]
    #[inline(never)]
    pub(crate) fn premature_read(
        cycle: u64,
        word: usize,
        cluster: ClusterId,
        reg: Reg,
        ready_at: u64,
    ) -> Self {
        SimError::PrematureRead {
            cycle,
            word,
            cluster,
            reg,
            ready_at,
        }
    }
}

impl From<Vec<ValidationError>> for SimError {
    fn from(errs: Vec<ValidationError>) -> Self {
        SimError::Invalid(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SimError::PrematureRead {
            cycle: 10,
            word: 3,
            cluster: 2,
            reg: Reg(5),
            ready_at: 11,
        };
        let s = e.to_string();
        assert!(s.contains("cycle 10"));
        assert!(s.contains("r5"));
        assert!(s.contains("ready at 11"));

        let e = SimError::CycleLimit { limit: 100 };
        assert!(e.to_string().contains("100"));
    }
}
