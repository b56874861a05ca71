//! The process-wide compile memo of `vsp_kernels::variants` answers
//! exactly what a direct compile would.
//!
//! Table 1 rows compile through two memoized stages: the IR passes once
//! per (kernel, passes) pair, lowering and scheduling once per
//! (transformed kernel, backend, compile shape). Every compile the rows
//! perform on the paper models and on every survivor of the smoke grid
//! must come back, through the memo, with the summary a direct
//! `vsp_sched::compile` of the same recipe gives.

use vsp_core::{models, validate_config, MachineConfig};
use vsp_dse::{par_map, space};
use vsp_kernels::variants::table1_recipes;
use vsp_sched::compile;
use vsp_vlsi::feasibility::{assess, FeasibilityEnvelope};

/// Checks every Table 1 compile of `machine`; returns how many.
fn check(machine: &MachineConfig) -> usize {
    let recipes = table1_recipes(machine);
    for r in &recipes {
        let label = format!("{} {} {}", r.machine.name, r.kernel.name, r.strategy.name);
        let direct = compile(&r.kernel, &r.machine, &r.strategy)
            .unwrap_or_else(|e| panic!("{label}: {e}"))
            .summary();
        let memo = r.summary().unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(memo, direct, "{label}");
    }
    recipes.len()
}

#[test]
fn memoized_summaries_equal_direct_compiles() {
    let envelope = FeasibilityEnvelope::default();
    let grid = space::smoke();
    let survivors = grid
        .iter()
        .map(|p| p.build())
        .filter(|m| validate_config(m).is_ok())
        .filter(|m| assess(&m.datapath_spec(), &envelope).rejections.is_empty());
    let machines: Vec<MachineConfig> = models::all_models().into_iter().chain(survivors).collect();
    assert_eq!(machines.len(), 7 + 55);
    let checked = par_map(machines, || (), |(), m| check(&m));
    assert!(checked.iter().all(|&n| n > 20), "{checked:?}");
}
