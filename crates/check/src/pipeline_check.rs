//! The compilation pipeline's validation hook, backed by the
//! independent schedule checker.
//!
//! [`vsp_sched::pipeline`] defines the [`PipelineValidator`] trait
//! (this crate depends on `vsp-sched`, so the trait lives there);
//! [`ScheduleValidator`] implements it by re-deriving every schedule
//! constraint with [`crate::validity`] after each pass. Wire it in via
//! [`vsp_sched::CompileOptions`]:
//!
//! ```
//! use vsp_check::ScheduleValidator;
//! use vsp_core::models;
//! use vsp_sched::pipeline::{ScheduleScope, SchedulerChoice, Strategy};
//! use vsp_sched::CompileOptions;
//!
//! # use vsp_ir::KernelBuilder;
//! # use vsp_isa::AluBinOp;
//! # let mut b = KernelBuilder::new("sum");
//! # let a = b.array("a", 16);
//! # let acc = b.var("acc");
//! # b.set(acc, 0);
//! # b.count_loop("i", 0, 1, 16, |b, i| {
//! #     let x = b.load("x", a, i);
//! #     b.bin(acc, AluBinOp::Add, acc, x);
//! # });
//! # let kernel = b.finish();
//! let strategy = Strategy::new(
//!     "swp",
//!     ScheduleScope::FirstLoop,
//!     SchedulerChoice::Modulo { clusters_used: 1, ii_search: 64 },
//! );
//! let validator = ScheduleValidator;
//! let mut options = CompileOptions::default();
//! options.validator = Some(&validator);
//! let result =
//!     vsp_sched::compile_with(&kernel, &models::i4c8s4(), &strategy, &mut options).unwrap();
//! assert!(result.summary().ii().is_some());
//! ```

use crate::validity::{check_list_schedule, check_modulo_schedule};
use vsp_sched::pipeline::{CompilationUnit, PipelineValidator, ScheduleArtifact};

/// Validates pipeline output with the independent schedule checker:
/// after the scheduling pass it replays dependence delays, per-cycle
/// resource usage, and modulo-row reservations against the machine
/// description and fails the compile on any violation.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScheduleValidator;

impl PipelineValidator for ScheduleValidator {
    fn validate(&self, unit: &CompilationUnit, _pass: &str) -> Vec<String> {
        let (Some(machine), Some(lowered), Some(deps)) = (&unit.machine, &unit.lowered, &unit.deps)
        else {
            // IR-level passes: nothing lowered yet to check.
            return Vec::new();
        };
        match &unit.schedule {
            Some(ScheduleArtifact::List(ls)) => check_list_schedule(machine, lowered, deps, ls)
                .iter()
                .map(|v| v.to_string())
                .collect(),
            Some(ScheduleArtifact::Modulo(ms)) => check_modulo_schedule(machine, lowered, deps, ms)
                .iter()
                .map(|v| v.to_string())
                .collect(),
            Some(ScheduleArtifact::Sequential { .. }) | None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsp_core::models;
    use vsp_ir::KernelBuilder;
    use vsp_isa::AluBinOp;
    use vsp_sched::pipeline::{ScheduleScope, SchedulerChoice, Strategy};
    use vsp_sched::CompileOptions;

    fn sum_kernel() -> vsp_ir::Kernel {
        let mut b = KernelBuilder::new("sum");
        let a = b.array("a", 64);
        let acc = b.var("acc");
        b.set(acc, 0);
        b.count_loop("i", 0, 1, 64, |b, i| {
            let x = b.load("x", a, i);
            b.bin(acc, AluBinOp::Add, acc, x);
        });
        b.finish()
    }

    #[test]
    fn validator_accepts_real_schedules() {
        let kernel = sum_kernel();
        let validator = ScheduleValidator;
        for scheduler in [
            SchedulerChoice::List { clusters_used: 1 },
            SchedulerChoice::Modulo {
                clusters_used: 1,
                ii_search: 64,
            },
        ] {
            let strategy = Strategy::new("v", ScheduleScope::FirstLoop, scheduler);
            let mut options = CompileOptions {
                validator: Some(&validator),
                ..Default::default()
            };
            let result =
                vsp_sched::compile_with(&kernel, &models::i4c8s4(), &strategy, &mut options)
                    .expect("checker passes real schedules");
            assert!(result.summary().length().is_some());
        }
    }

    #[test]
    fn validator_is_silent_before_lowering() {
        let unit = CompilationUnit::new(sum_kernel());
        assert!(ScheduleValidator.validate(&unit, "cse").is_empty());
    }
}
