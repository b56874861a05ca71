//! Differential tests for the schedulers' exact shortcuts.
//!
//! `vsp_sched` relies on one structural fact of its dependence graphs:
//! every same-iteration (distance-0) edge points forward, `from < to`.
//! On it rest the sweep bound of the positive-cycle test behind
//! [`rec_mii`] and [`min_ii_from`], the one-pass [`VopDeps::heights`],
//! and the list scheduler's placement order. This file checks the fact
//! on both dependence graphs (`build` and `build_renamed`) and compares
//! each shortcut with the textbook computation it replaced, kept here
//! only as a reference:
//!
//! * RecMII: a linear scan of II from 1, each probe an (n + 1)-round
//!   Bellman-Ford over the edge list. List bodies, whose RecMII no
//!   schedule reads and which reach RecMII 256 (the flattened SAD's
//!   accumulator chain), get only the scan's last two probes: a
//!   positive cycle at RecMII − 1 and none at RecMII, which by
//!   monotonicity in II is the same answer;
//! * the floored search: `max(floor, RecMII)` for floors 1, ResMII and
//!   one past the search's upper end;
//! * heights: relaxation over the edge list until nothing changes;
//! * the dependence graphs themselves: `build` and `build_renamed` pair
//!   loads only with stores when they order memory, and their edge
//!   lists, in order, must equal a construction that visits every pair
//!   of memory operations.
//!
//! Inputs: every distinct compile behind Table 1 on the seven paper
//! models, and 210 seeded generated kernels lowered for the predicated
//! modulo recipe, each on one model in rotation.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vsp_check::gen::{gen_kernel, KernelGenConfig};
use vsp_core::{models, LatencyModel, MachineConfig};
use vsp_ir::Kernel;
use vsp_isa::{AddrMode, OpKind};
use vsp_kernels::strategies;
use vsp_kernels::variants::distinct_table1_recipes;
use vsp_sched::vop::VDep;
use vsp_sched::{
    compile, min_ii_from, rec_mii, res_mii, LoweredBody, SchedulerChoice, Strategy, VopDeps,
};

/// Longest-path positive-cycle test: n + 1 rounds over the edge list.
fn reference_has_positive_cycle(deps: &VopDeps, ii: u32) -> bool {
    let n = deps.len();
    let mut dist = vec![0i64; n];
    for round in 0..=n {
        let mut changed = false;
        for e in deps.edges() {
            let w = i64::from(e.min_delay) - i64::from(ii) * i64::from(e.distance);
            if dist[e.from] + w > dist[e.to] {
                dist[e.to] = dist[e.from] + w;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if round == n {
            return true;
        }
    }
    false
}

/// The sum of all edge delays: the search's upper end.
fn upper(deps: &VopDeps) -> u32 {
    deps.edges().iter().map(|e| e.min_delay).sum::<u32>().max(1)
}

/// RecMII by linear scan: the first II in `1..upper` without a positive
/// cycle, else `upper`.
fn reference_rec_mii(deps: &VopDeps) -> u32 {
    let upper = upper(deps);
    (1..upper)
        .find(|&ii| !reference_has_positive_cycle(deps, ii))
        .unwrap_or(upper)
}

/// Heights by relaxing distance-0 edges until a fixpoint.
fn reference_heights(deps: &VopDeps) -> Vec<u32> {
    let mut h = vec![0u32; deps.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for e in deps.edges().iter().filter(|e| e.distance == 0) {
            if h[e.to] + e.min_delay > h[e.from] {
                h[e.from] = h[e.to] + e.min_delay;
                changed = true;
            }
        }
    }
    h
}

/// The dependence edges of `body`, in construction order, with memory
/// ordering over every pair of memory operations.
fn reference_edges(machine: &MachineConfig, body: &LoweredBody, renamed: bool) -> Vec<VDep> {
    let lat = LatencyModel::new(machine);
    let delay = |d: usize| lat.latency(&body.ops[d].kind);
    let edge = |from, to, distance, min_delay| VDep {
        from,
        to,
        distance,
        min_delay,
    };
    let mut reg = (
        vec![Vec::new(); body.vregs as usize],
        vec![Vec::new(); body.vregs as usize],
    );
    let mut pred = (
        vec![Vec::new(); body.vpreds as usize],
        vec![Vec::new(); body.vpreds as usize],
    );
    for (i, op) in body.ops.iter().enumerate() {
        for u in op.kind.use_regs() {
            reg.1[u.index()].push(i);
        }
        if let OpKind::Xfer { src, .. } = &op.kind {
            reg.1[src.index()].push(i);
        }
        if let Some(g) = &op.guard {
            pred.1[g.pred.index()].push(i);
        }
        if let OpKind::Branch { pred: p, .. } = &op.kind {
            pred.1[p.index()].push(i);
        }
        if let Some(d) = op.kind.def_reg() {
            reg.0[d.index()].push(i);
        }
        if let Some(p) = op.kind.def_pred() {
            pred.0[p.index()].push(i);
        }
    }
    let mut edges = Vec::new();
    for (defs, uses) in [&reg, &pred] {
        for (ds, us) in defs.iter().zip(uses) {
            let Some(&last) = ds.last() else { continue };
            for &u in us {
                match ds.iter().rev().find(|&&d| d < u) {
                    Some(&d) => edges.push(edge(d, u, 0, delay(d))),
                    None => edges.push(edge(last, u, 1, delay(last))),
                }
                if let Some(&d) = ds.iter().find(|&&d| d > u) {
                    edges.push(edge(u, d, 0, 0));
                } else if ds[0] != u && !renamed {
                    edges.push(edge(u, ds[0], 1, 0));
                }
            }
            for w in ds.windows(2) {
                edges.push(edge(w[0], w[1], 0, 1));
            }
        }
    }
    let access = |k: &OpKind| match k {
        OpKind::Load { bank, addr, .. } => (false, bank.0, *addr),
        OpKind::Store { bank, addr, .. } => (true, bank.0, *addr),
        _ => unreachable!("memory operations only"),
    };
    let mem: Vec<usize> = (0..body.ops.len())
        .filter(|&i| body.ops[i].kind.is_mem())
        .collect();
    for (k, &i) in mem.iter().enumerate() {
        for &j in &mem[k + 1..] {
            let (a_store, a_bank, a_addr) = access(&body.ops[i].kind);
            let (b_store, b_bank, b_addr) = access(&body.ops[j].kind);
            let distinct_constants = matches!(
                (a_addr, b_addr),
                (AddrMode::Absolute(x), AddrMode::Absolute(y)) if x != y
            );
            if (a_store || b_store) && a_bank == b_bank && !distinct_constants {
                edges.push(edge(i, j, 0, 1));
            }
        }
    }
    edges
}

/// Checks both graphs of one lowered body against the references;
/// `scan` runs the full RecMII scan (see the module docs).
fn check(label: &str, machine: &MachineConfig, body: &LoweredBody, clusters_used: u32, scan: bool) {
    let graphs = [
        ("build", VopDeps::build(machine, body), false),
        ("build_renamed", VopDeps::build_renamed(machine, body), true),
    ];
    for (graph, deps, renamed) in &graphs {
        assert!(
            deps.edges() == reference_edges(machine, body, *renamed),
            "{label} {graph}: edges differ from the all-pairs construction"
        );
        for e in deps.edges() {
            assert!(
                e.distance > 0 || e.from < e.to,
                "{label} {graph}: same-iteration edge {e:?} does not point forward"
            );
        }
        let rec = rec_mii(deps);
        if scan {
            assert_eq!(rec, reference_rec_mii(deps), "{label} {graph}: RecMII");
        } else {
            assert!(
                rec == 1 || reference_has_positive_cycle(deps, rec - 1),
                "{label} {graph}: RecMII {rec} is not the least"
            );
            assert!(
                rec == upper(deps) || !reference_has_positive_cycle(deps, rec),
                "{label} {graph}: RecMII {rec} has a positive cycle"
            );
        }
        let mut floors = vec![1, upper(deps) + 1];
        floors.extend(res_mii(machine, body, clusters_used));
        for floor in floors {
            assert_eq!(
                min_ii_from(deps, floor),
                floor.max(rec),
                "{label} {graph}: floor {floor}"
            );
        }
        assert_eq!(
            deps.heights(),
            reference_heights(deps),
            "{label} {graph}: heights"
        );
    }
}

/// Compiles and checks the scheduled body; `false` for a sequential
/// recipe, which lowers nothing.
fn compile_and_check(
    label: &str,
    kernel: &Kernel,
    machine: &MachineConfig,
    strategy: &Strategy,
) -> bool {
    let result = compile(kernel, machine, strategy).unwrap_or_else(|e| panic!("{label}: {e}"));
    let Some(body) = &result.lowered else {
        return false;
    };
    let (clusters_used, scan) = match strategy.scheduler {
        SchedulerChoice::List { clusters_used } => (clusters_used, false),
        SchedulerChoice::Modulo { clusters_used, .. } => (clusters_used, true),
        SchedulerChoice::Sequential => (1, true),
    };
    check(label, machine, body, clusters_used, scan);
    true
}

#[test]
fn table1_bodies_match_the_reference_bounds() {
    let checked = distinct_table1_recipes(&models::all_models())
        .iter()
        .filter(|r| {
            let label = format!("{} {} {}", r.machine.name, r.kernel.name, r.strategy.name);
            compile_and_check(&label, &r.kernel, &r.machine, &r.strategy)
        })
        .count();
    // The 49 list and 84 modulo compiles of golden_schedules.txt.
    assert_eq!(checked, 133);
}

#[test]
fn generated_kernels_match_the_reference_bounds() {
    let machines = models::all_models();
    let strategy = strategies::predicated_pipelined(1);
    for seed in 0..210u64 {
        let machine = &machines[seed as usize % machines.len()];
        let mut rng = SmallRng::seed_from_u64(seed);
        let generated = gen_kernel(&mut rng, &KernelGenConfig::default());
        let label = format!("seed {seed} on {}", machine.name);
        assert!(compile_and_check(
            &label,
            &generated.kernel,
            machine,
            &strategy
        ));
    }
}
