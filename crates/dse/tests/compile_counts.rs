//! The design search's compile work, counted.
//!
//! `search_recorded` exports how often the process-wide compile memo
//! ran each stage while the search ran. In a process that compiles
//! nothing else (this test binary holds one test), the IR passes run
//! once per distinct (kernel, passes) pair among the survivors' Table 1
//! compiles, and lowering plus scheduling once per distinct (kernel,
//! passes, backend, compile shape); a second search reuses everything.

use std::collections::HashSet;
use vsp_core::validate_config;
use vsp_dse::{search_recorded, space, SearchConfig};
use vsp_kernels::variants::table1_recipes;
use vsp_metrics::Registry;
use vsp_sched::CompileShape;
use vsp_vlsi::feasibility::{assess, FeasibilityEnvelope};

fn compiles(grid: &[vsp_core::MachineParams]) -> (Option<u64>, Option<u64>) {
    let mut reg = Registry::new();
    search_recorded(grid, &SearchConfig::default(), &mut reg);
    let snap = reg.snapshot();
    let stage = |s| snap.counter("vsp_dse_compiles_total", &[("stage", s)]);
    (stage("passes"), stage("schedule"))
}

#[test]
fn each_stage_runs_once_per_distinct_input() {
    let grid = space::smoke();
    let (passes, schedules) = compiles(&grid);

    let envelope = FeasibilityEnvelope::default();
    let mut pairs = HashSet::new();
    let mut backends = HashSet::new();
    for p in &grid {
        let m = p.build();
        if validate_config(&m).is_err()
            || !assess(&m.datapath_spec(), &envelope).rejections.is_empty()
        {
            continue;
        }
        for r in table1_recipes(&m) {
            let s = &r.strategy;
            assert!(CompileShape::determines(&r.machine, &r.kernel, s));
            pairs.insert((r.kernel.clone(), s.passes.clone()));
            backends.insert((
                r.kernel,
                s.passes.clone(),
                s.scope,
                s.scheduler,
                s.loop_control,
                CompileShape::of(&r.machine),
            ));
        }
    }
    assert_eq!(passes, Some(pairs.len() as u64));
    assert_eq!(schedules, Some(backends.len() as u64));
    // The values CI pins for `design-search --smoke`.
    assert_eq!((passes, schedules), (Some(18), Some(308)));

    assert_eq!(
        compiles(&grid),
        (Some(0), Some(0)),
        "a second search reuses every compile"
    );
}
