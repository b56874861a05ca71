//! Resource- and latency-constrained list scheduling.
//!
//! Used for the "List Scheduled" rows of Table 1 and as the code
//! generator's backend: operations are placed greedily in height-priority
//! order at the earliest cycle where their dependences are satisfied and
//! a capable issue slot is free. Clusters are tried in index order, and
//! the first that has such a cycle within 4096 cycles of the operation's
//! earliest start takes it.
//!
//! The order is (height descending, index), and every same-iteration
//! dependence points forward with a height drop of at least its delay,
//! so each operation's same-iteration predecessors are placed before it.
//!
//! Reservations are never released, so a cycle that once rejected an
//! operation rejects every later operation with the same resource
//! signature: cluster, FU class, and bank (memory operations) or source
//! cluster (transfers). The scheduler records, per signature, every
//! cycle a probe found full, as skip pointers to a later cycle, and each
//! scan visits only the cycles not yet known to reject: a cycle is
//! probed at most once per signature after it fills. A listening sink
//! still gets a [`TraceEvent::ListConflict`] for every cycle from the
//! earliest start to the placement, skipped or probed, so the decision
//! log is the one a cycle-by-cycle scan would write.

use crate::modulo::find_slot;
use crate::vop::{LoweredBody, VOp, VopDeps};
use std::cmp::Reverse;
use vsp_core::{CycleReservation, MachineConfig};
use vsp_isa::{ClusterId, FuClass, OpKind, SlotId};
use vsp_trace::{NullSink, TraceEvent, TraceSink};

/// Cycles past an operation's earliest start after which the scheduler
/// gives up on a cluster: no capable slot exists there.
const SCAN_LIMIT: u32 = 4096;

/// A list schedule of a flat body.
#[derive(Debug, Clone, PartialEq)]
pub struct ListSchedule {
    /// Issue time of each operation.
    pub times: Vec<u32>,
    /// Cluster/slot placement of each operation.
    pub placements: Vec<(ClusterId, SlotId)>,
    /// Number of cycles the block occupies (including trailing latency of
    /// the last result so a loop back-edge is safe).
    pub length: u32,
}

impl ListSchedule {
    /// Cycles for `trips` sequential executions of the block (no extra
    /// loop-control cycles: Table 1 lowering folds them into the block,
    /// see [`crate::pipeline::LoopControlMode::Folded`]).
    pub fn cycles_for(&self, trips: u64) -> u64 {
        Self::block_cycles(self.length, trips)
    }

    /// [`Self::cycles_for`] of a block of the given length.
    pub fn block_cycles(length: u32, trips: u64) -> u64 {
        trips * u64::from(length)
    }
}

/// List-schedules `body` on `machine` across `clusters_used` clusters.
///
/// ```
/// use vsp_core::models;
/// use vsp_ir::KernelBuilder;
/// use vsp_isa::AluBinOp;
/// use vsp_sched::{list_schedule, lower_body, ArrayLayout, VopDeps};
///
/// let machine = models::i4c8s4();
/// let mut b = KernelBuilder::new("demo");
/// let x = b.var("x");
/// let y = b.bin_new("y", AluBinOp::Add, x, 3i16);
/// let _z = b.bin_new("z", AluBinOp::Add, y, 4i16);
/// let kernel = b.finish();
///
/// let layout = ArrayLayout::contiguous(&kernel, &machine).unwrap();
/// let body = lower_body(&machine, &kernel, &kernel.body, &layout).unwrap();
/// let deps = VopDeps::build(&machine, &body);
/// let sched = list_schedule(&machine, &body, &deps, 1).unwrap();
/// assert_eq!(sched.times.len(), body.ops.len());
/// // The dependent adds cannot share a cycle.
/// assert!(sched.length >= 2);
/// ```
///
/// Returns `None` only when an operation cannot be issued anywhere on the
/// machine (missing functional unit).
pub fn list_schedule(
    machine: &MachineConfig,
    body: &LoweredBody,
    deps: &VopDeps,
    clusters_used: u32,
) -> Option<ListSchedule> {
    list_schedule_traced(machine, body, deps, clusters_used, &mut NullSink)
}

/// [`list_schedule`] with a decision log: every placement reports the
/// ready-set size it was chosen from ([`TraceEvent::ListPlace`]), every
/// cycle rejected for lack of a capable free slot becomes a
/// [`TraceEvent::ListConflict`], and the final schedule length is
/// reported as [`TraceEvent::ScheduleDone`] (with `ii == 0`).
///
/// All event construction is gated on [`TraceSink::enabled`], so passing
/// `&mut NullSink` costs nothing beyond the untraced variant.
pub fn list_schedule_traced(
    machine: &MachineConfig,
    body: &LoweredBody,
    deps: &VopDeps,
    clusters_used: u32,
    sink: &mut dyn TraceSink,
) -> Option<ListSchedule> {
    let n = body.ops.len();
    if n == 0 {
        if sink.enabled() {
            sink.emit(TraceEvent::ScheduleDone { ii: 0, length: 0 });
        }
        return Some(ListSchedule {
            times: vec![],
            placements: vec![],
            length: 0,
        });
    }
    let lat = vsp_core::LatencyModel::new(machine);
    let heights = deps.heights();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (Reverse(heights[i]), i));

    let clusters = clusters_used.max(1);
    let (signature, signatures) = signatures(&body.ops);
    // `full[sig * clusters + c]`: the cycles known to reject signature
    // `sig` on cluster `c`, as skip pointers (see `first_open`).
    let mut full: Vec<Vec<u32>> = vec![Vec::new(); signatures * clusters as usize];
    let mut table: Vec<CycleReservation> = Vec::new(); // [cycle]
    let mut times: Vec<Option<u32>> = vec![None; n];
    let mut placements: Vec<Option<(ClusterId, SlotId)>> = vec![None; n];
    let xfer_lat = machine.pipeline.xfer_latency;

    // Operations whose same-iteration predecessors are all placed; only
    // evaluated when a sink is listening.
    let ready_size = |times: &[Option<u32>]| -> u32 {
        (0..n)
            .filter(|&j| {
                times[j].is_none()
                    && deps
                        .preds(j)
                        .all(|e| e.distance > 0 || times[e.from].is_some())
            })
            .count() as u32
    };

    for &i in &order {
        let ready = if sink.enabled() {
            ready_size(&times)
        } else {
            0
        };
        let mut placed = None;
        for cluster in 0..clusters as ClusterId {
            let mut est = 0u32;
            for e in deps.preds(i) {
                if e.distance > 0 {
                    continue; // carried deps satisfied by the loop back edge
                }
                // Placed already (module docs); `None` if that breaks.
                let (Some(tp), Some((cp, _))) = (times[e.from], placements[e.from]) else {
                    return None;
                };
                let mut delay = e.min_delay;
                if e.min_delay > 0 && cp != cluster {
                    delay += xfer_lat;
                }
                est = est.max(tp + delay);
            }
            let last = est + SCAN_LIMIT;
            let full = &mut full[signature[i] * clusters as usize + usize::from(cluster)];
            let mut t = first_open(full, est);
            while t <= last {
                if table.len() <= t as usize {
                    table.resize_with(t as usize + 1, || CycleReservation::new(machine));
                }
                if let Some(slot) =
                    find_slot(machine, &mut table[t as usize], &body.ops[i], cluster)
                {
                    placed = Some((t, cluster, slot));
                    break;
                }
                mark_full(full, t);
                t = first_open(full, t + 1);
            }
            if sink.enabled() {
                for cycle in est..t.min(last + 1) {
                    sink.emit(TraceEvent::ListConflict {
                        op: i as u32,
                        cycle,
                        cluster,
                    });
                }
            }
            if placed.is_some() {
                break;
            }
        }
        let (t, cluster, slot) = placed?;
        times[i] = Some(t);
        placements[i] = Some((cluster, slot));
        if sink.enabled() {
            sink.emit(TraceEvent::ListPlace {
                op: i as u32,
                ready,
                cycle: t,
                cluster,
                slot,
            });
        }
    }

    let times: Vec<u32> = times.into_iter().collect::<Option<_>>()?;
    let placements: Vec<(ClusterId, SlotId)> = placements.into_iter().collect::<Option<_>>()?;
    let length = times
        .iter()
        .enumerate()
        .map(|(i, &t)| t + lat.latency(&body.ops[i].kind))
        .max()
        .unwrap_or(0);
    if sink.enabled() {
        sink.emit(TraceEvent::ScheduleDone { ii: 0, length });
    }
    Some(ListSchedule {
        times,
        placements,
        length,
    })
}

/// The first cycle at or after `t` not known to reject. `skip[c] == c`,
/// or `c` past the end, means cycle `c` is open; any other entry points
/// to a later cycle. Path halving keeps the chains short.
fn first_open(skip: &mut [u32], mut t: u32) -> u32 {
    while let Some(&next) = skip.get(t as usize) {
        if next == t {
            break;
        }
        let grand = skip.get(next as usize).copied().unwrap_or(next);
        skip[t as usize] = grand;
        t = grand;
    }
    t
}

/// Records that cycle `t` rejects.
fn mark_full(skip: &mut Vec<u32>, t: u32) {
    let len = skip.len() as u32;
    if t >= len {
        skip.extend(len..=t);
    }
    skip[t as usize] = t + 1;
}

/// Each operation's resource-signature index (see the module docs) and
/// the number of distinct signatures.
fn signatures(ops: &[VOp]) -> (Vec<usize>, usize) {
    let mut seen: Vec<(FuClass, u8)> = Vec::new();
    let index = ops
        .iter()
        .map(|op| {
            let sig = match &op.kind {
                OpKind::Load { bank, .. }
                | OpKind::Store { bank, .. }
                | OpKind::MemCtl { bank, .. } => (FuClass::Mem, bank.0),
                OpKind::Xfer { from, .. } => (FuClass::Xfer, *from),
                _ => (op.class(), 0),
            };
            seen.iter().position(|&s| s == sig).unwrap_or_else(|| {
                seen.push(sig);
                seen.len() - 1
            })
        })
        .collect();
    (index, seen.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower_body, ArrayLayout};
    use vsp_core::models;
    use vsp_ir::KernelBuilder;
    use vsp_isa::AluBinOp;

    fn lowered_tree(machine: &MachineConfig, width: usize) -> (LoweredBody, VopDeps) {
        // `width` independent adds followed by a reduction chain.
        let mut b = KernelBuilder::new("tree");
        let x = b.var("x");
        let mut leaves = Vec::new();
        for i in 0..width {
            leaves.push(b.bin_new(&format!("l{i}"), AluBinOp::Add, x, i as i16));
        }
        let mut acc = leaves[0];
        for (i, &l) in leaves.iter().enumerate().skip(1) {
            acc = b.bin_new(&format!("s{i}"), AluBinOp::Add, acc, l);
        }
        let k = b.finish();
        let layout = ArrayLayout::contiguous(&k, machine).unwrap();
        let lowered = lower_body(machine, &k, &k.body, &layout).unwrap();
        let deps = VopDeps::build(machine, &lowered);
        (lowered, deps)
    }

    #[test]
    fn independent_ops_pack_into_width() {
        let m = models::i4c8s4();
        let (body, deps) = lowered_tree(&m, 4);
        let s = list_schedule(&m, &body, &deps, 1).unwrap();
        // 4 independent leaves in cycle 0 (4 ALU slots), then 3 chained
        // adds: length 1 + 3.
        assert_eq!(s.length, 4, "{s:?}");
    }

    #[test]
    fn narrow_machine_serializes() {
        let m = models::i2c16s4();
        let (body, deps) = lowered_tree(&m, 4);
        let s = list_schedule(&m, &body, &deps, 1).unwrap();
        // 7 ALU ops on 2 slots with a 3-deep chain: at least 4 cycles.
        assert!(s.length >= 4);
        let span = s.times.iter().max().unwrap() + 1;
        assert!(span >= 4);
    }

    #[test]
    fn schedule_respects_dependences_and_resources() {
        let m = models::i4c8s4();
        let (body, deps) = lowered_tree(&m, 8);
        let s = list_schedule(&m, &body, &deps, 1).unwrap();
        for e in deps.edges() {
            if e.distance == 0 {
                assert!(
                    s.times[e.to] >= s.times[e.from] + e.min_delay,
                    "edge {e:?} violated"
                );
            }
        }
        // Re-play resources.
        let mut rows: std::collections::HashMap<u32, CycleReservation> =
            std::collections::HashMap::new();
        for (i, op) in body.ops.iter().enumerate() {
            let (c, slot) = s.placements[i];
            let row = rows
                .entry(s.times[i])
                .or_insert_with(|| CycleReservation::new(&m));
            let concrete = vsp_isa::Operation {
                cluster: c,
                slot,
                guard: op.guard,
                kind: op.kind.clone(),
            };
            row.try_reserve(&m, &concrete).unwrap();
        }
    }

    #[test]
    fn multi_cluster_shortens_wide_blocks() {
        let m = models::i2c16s4();
        let (body, deps) = lowered_tree(&m, 12);
        let one = list_schedule(&m, &body, &deps, 1).unwrap();
        let four = list_schedule(&m, &body, &deps, 4).unwrap();
        assert!(four.length <= one.length);
    }

    #[test]
    fn empty_body() {
        let m = models::i4c8s4();
        let body = LoweredBody::default();
        let deps = VopDeps::default();
        let s = list_schedule(&m, &body, &deps, 1).unwrap();
        assert_eq!(s.length, 0);
        assert_eq!(s.cycles_for(10), 0);
    }

    #[test]
    fn decision_log_has_one_placement_per_op() {
        let m = models::i4c8s4();
        let (body, deps) = lowered_tree(&m, 8);
        let mut sink = vsp_trace::MemorySink::new();
        let traced = list_schedule_traced(&m, &body, &deps, 1, &mut sink).unwrap();
        let untraced = list_schedule(&m, &body, &deps, 1).unwrap();
        assert_eq!(traced, untraced, "tracing must not change the schedule");
        assert_eq!(
            sink.count(|e| matches!(e, TraceEvent::ListPlace { .. })),
            body.ops.len() as u64
        );
        assert_eq!(
            sink.count(|e| matches!(
                e,
                TraceEvent::ScheduleDone { ii: 0, length } if *length == traced.length
            )),
            1
        );
        // Every reported ready-set size is at least 1 (the op being placed).
        for e in sink.events() {
            if let TraceEvent::ListPlace { ready, .. } = e {
                assert!(*ready >= 1, "{e:?}");
            }
        }
    }

    #[test]
    fn conflicts_logged_when_slots_saturate() {
        // 8 independent adds on a 2-slot cluster: most placements must
        // first bounce off full cycles.
        let m = models::i2c16s4();
        let (body, deps) = lowered_tree(&m, 8);
        let mut sink = vsp_trace::MemorySink::new();
        list_schedule_traced(&m, &body, &deps, 1, &mut sink).unwrap();
        assert!(
            sink.count(|e| matches!(e, TraceEvent::ListConflict { .. })) > 0,
            "saturated ALUs must produce conflict events"
        );
    }
}
