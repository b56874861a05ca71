//! A single typed error for the whole scheduling pipeline.
//!
//! Each pipeline stage has its own narrow failure type — layout and
//! lowering return [`LowerError`], allocation returns
//! [`NotEnoughRegisters`], the schedulers signal infeasibility by
//! returning `None`, and code generation returns
//! [`crate::codegen::CodegenError`]. [`SchedError`] is the
//! union a *driver* wants: batch harnesses (the `vsp-bench` evaluation
//! engine, fault campaigns) compile many kernels for many machines and
//! need one `Result` type that distinguishes "this kernel does not fit
//! this machine" (expected, skip the cell) from "the scheduler broke an
//! internal invariant" (a bug, fail loudly) — without panicking either
//! way.
//!
//! The compile stages ([`crate::pipeline`]) return this type directly,
//! and the `From` impls let `?` lift every stage error into it.

use crate::codegen::CodegenError;
use crate::lower::LowerError;
use crate::regalloc::NotEnoughRegisters;
use std::fmt;

/// Any failure of the lowering → scheduling → allocation → code
/// generation pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// Layout or lowering failed (kernel shape vs. machine memory).
    Lower(LowerError),
    /// Register or predicate allocation failed (kernel pressure vs.
    /// cluster file size).
    Registers(NotEnoughRegisters),
    /// Only single-cluster schedules can be replicated across clusters.
    MultiCluster,
    /// The scheduler found no feasible schedule.
    Unschedulable {
        /// Which scheduler gave up (`"list"` or `"modulo"`).
        scheduler: &'static str,
        /// What was being scheduled and within which search bounds.
        detail: String,
    },
    /// A compilation-pipeline pass could not be applied as configured,
    /// or post-pass validation rejected the unit (see
    /// [`crate::pipeline`]).
    Pipeline {
        /// Name of the pass (or `"validate"` for validator rejections).
        pass: &'static str,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Lower(e) => write!(f, "lowering failed: {e}"),
            SchedError::Registers(e) => write!(f, "register allocation failed: {e}"),
            SchedError::MultiCluster => {
                f.write_str("code generation requires a single-cluster schedule")
            }
            SchedError::Unschedulable { scheduler, detail } => {
                write!(
                    f,
                    "{scheduler} scheduler found no feasible schedule: {detail}"
                )
            }
            SchedError::Pipeline { pass, detail } => {
                write!(f, "pipeline pass {pass} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for SchedError {}

impl From<LowerError> for SchedError {
    fn from(e: LowerError) -> Self {
        SchedError::Lower(e)
    }
}

impl From<NotEnoughRegisters> for SchedError {
    fn from(e: NotEnoughRegisters) -> Self {
        SchedError::Registers(e)
    }
}

impl From<CodegenError> for SchedError {
    fn from(e: CodegenError) -> Self {
        match e {
            CodegenError::MultiCluster => SchedError::MultiCluster,
            CodegenError::Registers(r) => SchedError::Registers(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stage_error_lifts_into_sched_error() {
        let lower: SchedError = LowerError::NotFlat.into();
        assert!(matches!(lower, SchedError::Lower(LowerError::NotFlat)));

        let regs: SchedError = NotEnoughRegisters {
            needed: 40,
            available: 32,
        }
        .into();
        assert!(matches!(
            regs,
            SchedError::Registers(NotEnoughRegisters {
                needed: 40,
                available: 32
            })
        ));

        let multi: SchedError = CodegenError::MultiCluster.into();
        assert_eq!(multi, SchedError::MultiCluster);

        let via_codegen: SchedError = CodegenError::Registers(NotEnoughRegisters {
            needed: 9,
            available: 8,
        })
        .into();
        assert!(matches!(via_codegen, SchedError::Registers(_)));
    }

    #[test]
    fn display_is_actionable() {
        let e = SchedError::Unschedulable {
            scheduler: "modulo",
            detail: "no feasible II within 16 steps above MII".into(),
        };
        let text = e.to_string();
        assert!(text.contains("modulo"), "{text}");
        assert!(text.contains("no feasible II"), "{text}");
    }
}
