//! Executed spot-checks of frontier designs.
//!
//! The search ranks points by *scheduled* cycle counts — compiler
//! arithmetic, never executed. Before a frontier design is believed,
//! this module closes the loop: it code-generates a real kernel (the
//! SAD row loop, replicated across the machine's clusters), runs it
//! with [`vsp_exec::evaluate`] — the same functional-first route the
//! `faults` driver's golden runs take — and records which tier answered
//! and what it measured. A frontier point that cannot execute a
//! scheduled program end to end is a cost-model artifact, not a design.

use crate::driver::EvaluatedPoint;
use vsp_core::MachineConfig;
use vsp_ir::Stmt;
use vsp_sched::{codegen_loop, list_schedule, lower_body, ArrayLayout, LoopControl, VopDeps};

/// One executed spot-check of a frontier design.
#[derive(Debug, Clone, PartialEq)]
pub struct Verification {
    /// Which design point.
    pub name: String,
    /// Which backend answered (normally `functional`).
    pub tier: &'static str,
    /// Cycles the tier reported for the verification program.
    pub cycles: u64,
    /// Whether the program ran to its halt.
    pub halted: bool,
}

/// Code-generates the SAD row loop for `machine` (list-scheduled on
/// one cluster, replicated across all of them).
fn sad_program(machine: &MachineConfig) -> Option<vsp_isa::Program> {
    let sad = vsp_kernels::ir::sad_16x16_kernel();
    let mut k = sad.kernel.clone();
    vsp_ir::transform::fully_unroll_innermost(&mut k);
    vsp_ir::transform::eliminate_common_subexpressions(&mut k);
    let Some(Stmt::Loop(l)) = k.body.iter().find(|s| matches!(s, Stmt::Loop(_))) else {
        return None;
    };
    let layout = ArrayLayout::contiguous(&k, machine).ok()?;
    let body = lower_body(machine, &k, &l.body, &layout).ok()?;
    let deps = VopDeps::build(machine, &body);
    let sched = list_schedule(machine, &body, &deps, 1)?;
    let generated = codegen_loop(
        machine,
        &body,
        &sched,
        Some(LoopControl {
            trip: 16,
            index: Some((0, 0, 1)),
        }),
        machine.clusters,
        "dse-verify-sad",
    )
    .ok()?;
    Some(generated.program)
}

/// Runs the first `limit` of `points` that verify through
/// [`vsp_exec::evaluate`], in parallel. Points without grid parameters,
/// or that the code generator cannot target, are skipped (the cycle
/// evidence then rests on the scheduler alone, which the report shows
/// by the point's absence here).
///
/// Each round checks, side by side, as many of the next points as
/// results are still missing, so the result is the same first `limit`
/// successes, in input order, that one point after another would give.
pub fn verify_points<'a>(
    mut points: impl Iterator<Item = &'a EvaluatedPoint>,
    limit: usize,
) -> Vec<Verification> {
    let mut out = Vec::new();
    while out.len() < limit {
        let round: Vec<&EvaluatedPoint> = points.by_ref().take(limit - out.len()).collect();
        if round.is_empty() {
            break;
        }
        out.extend(
            crate::par_map(round, || (), |(), p| verify(p))
                .into_iter()
                .flatten(),
        );
    }
    out
}

/// Code-generates and runs one point's verification program; `None`
/// when either step cannot target it.
fn verify(point: &EvaluatedPoint) -> Option<Verification> {
    let machine = point.params?.build();
    let program = sad_program(&machine)?;
    let (tier, outcome) = vsp_exec::evaluate(&machine, &program, 1_000_000).ok()?;
    Some(Verification {
        name: point.name.clone(),
        tier,
        cycles: outcome.cycles,
        halted: outcome.state.halted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space;
    use vsp_core::validate_config;
    use vsp_vlsi::feasibility::{assess, FeasibilityEnvelope};

    /// Every survivor of the smoke grid's physical screen — not just
    /// the frontier points a search happens to spot-check — code-
    /// generates the SAD row loop and runs it to its halt on the
    /// functional tier, so nothing on this path needs a panic guard.
    #[test]
    fn every_smoke_survivor_verifies_on_the_functional_tier() {
        let envelope = FeasibilityEnvelope::default();
        let survivors: Vec<MachineConfig> = space::smoke()
            .iter()
            .map(|p| p.build())
            .filter(|m| validate_config(m).is_ok())
            .filter(|m| assess(&m.datapath_spec(), &envelope).rejections.is_empty())
            .collect();
        assert_eq!(survivors.len(), 55);
        for machine in &survivors {
            let program = sad_program(machine)
                .unwrap_or_else(|| panic!("{}: SAD code generation failed", machine.name));
            let (tier, out) = vsp_exec::evaluate(machine, &program, 1_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", machine.name));
            assert_eq!(tier, "functional", "{}", machine.name);
            assert!(out.state.halted, "{}", machine.name);
            assert!(out.cycles > 0, "{}", machine.name);
        }
    }
}
