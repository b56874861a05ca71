//! Virtual operations and their dependence graph.
//!
//! A [`VOp`] is a machine operation ([`vsp_isa::OpKind`]) whose `Reg` and
//! `Pred` indices name *virtual* registers — the scheduler works in an
//! unbounded register space and [`crate::regalloc`] maps to physical
//! registers afterwards. Loads and stores are already bound to memory
//! banks at lowering time (bank binding is an architectural property).

use vsp_core::{LatencyModel, MachineConfig};
use vsp_isa::{FuClass, OpKind, PredGuard};

/// One virtual operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VOp {
    /// The machine operation over virtual register indices.
    pub kind: OpKind,
    /// Optional guard over a virtual predicate.
    pub guard: Option<PredGuard>,
    /// Index of the IR statement this operation was lowered from
    /// (diagnostics only).
    pub src_stmt: usize,
}

impl VOp {
    /// Functional-unit class this operation occupies.
    ///
    /// # Panics
    ///
    /// Panics on a no-op, which lowering never emits.
    pub fn class(&self) -> FuClass {
        self.kind.fu_class().expect("lowering never emits no-ops")
    }
}

/// A lowered loop body: virtual operations plus register-space sizes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoweredBody {
    /// Operations in original program order.
    pub ops: Vec<VOp>,
    /// Number of virtual word registers used.
    pub vregs: u16,
    /// Number of virtual predicate registers used.
    pub vpreds: u8,
}

impl LoweredBody {
    /// Counts operations of a given class.
    pub fn count_class(&self, class: FuClass) -> u32 {
        self.ops.iter().filter(|o| o.class() == class).count() as u32
    }

    /// Counts memory operations bound to a given bank.
    pub fn count_bank(&self, bank: u8) -> u32 {
        self.ops
            .iter()
            .filter(|o| match &o.kind {
                OpKind::Load { bank: b, .. } | OpKind::Store { bank: b, .. } => b.0 == bank,
                _ => false,
            })
            .count() as u32
    }
}

/// A dependence edge between virtual operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VDep {
    /// Producer operation index.
    pub from: usize,
    /// Consumer operation index.
    pub to: usize,
    /// Iteration distance (0 = same iteration).
    pub distance: u32,
    /// Minimum cycles between issue of `from` and issue of `to` within
    /// the same iteration (the producer's latency for flow deps, 0 for
    /// anti deps, 1 for output/memory ordering).
    pub min_delay: u32,
}

/// Dependence graph over a [`LoweredBody`].
///
/// Built once; the per-operation edge index lets [`VopDeps::preds`] and
/// [`VopDeps::succs`] visit only the operation's own edges.
#[derive(Debug, Clone, PartialEq)]
pub struct VopDeps {
    len: usize,
    edges: Vec<VDep>,
    /// Edge indices grouped by consumer, each group in edge order.
    /// `u32` halves the index next to the edges themselves: a flattened
    /// body's memory-ordering edges grow quadratically.
    incoming: Groups,
    /// The same grouping by producer.
    outgoing: Groups,
}

impl Default for VopDeps {
    fn default() -> Self {
        VopDeps::from_edges(0, Vec::new())
    }
}

impl VopDeps {
    /// Builds the dependence graph for `body` on `machine` (latencies are
    /// machine-dependent), including carried anti dependences — the
    /// register-exact graph code generation needs.
    pub fn build(machine: &MachineConfig, body: &LoweredBody) -> VopDeps {
        Self::build_with(machine, body, false)
    }

    /// Like [`VopDeps::build`], but assumes modulo variable expansion:
    /// each iteration's values get fresh registers, so carried anti
    /// dependences vanish. This is the graph the paper's hand schedules
    /// obey ("taking advantage of the unrolled loop structure to
    /// implement aggressive register renaming") and what the Table 1
    /// cycle recipes use.
    pub fn build_renamed(machine: &MachineConfig, body: &LoweredBody) -> VopDeps {
        Self::build_with(machine, body, true)
    }

    fn build_with(machine: &MachineConfig, body: &LoweredBody, renamed: bool) -> VopDeps {
        let lat = LatencyModel::new(machine);
        let mut edges = Vec::new();
        let n = body.ops.len();

        // Virtual register and predicate def/use lists, in op order.
        let ops = || (0u32..).zip(&body.ops);
        let reg_uses = Groups::new(body.vregs as usize, |add| {
            for (i, op) in ops() {
                for u in op.kind.use_regs() {
                    add(u.index(), i);
                }
                if let OpKind::Xfer { src, .. } = &op.kind {
                    // Remote read: within one cluster's lowered body the
                    // "remote" register is still a virtual register of
                    // this body (replication assigns clusters later).
                    add(src.index(), i);
                }
            }
        });
        let pred_uses = Groups::new(body.vpreds as usize, |add| {
            for (i, op) in ops() {
                if let Some(g) = &op.guard {
                    add(g.pred.index(), i);
                }
                if let OpKind::Branch { pred, .. } = &op.kind {
                    add(pred.index(), i);
                }
            }
        });
        let reg_defs = Groups::new(body.vregs as usize, |add| {
            for (i, op) in ops() {
                if let Some(d) = op.kind.def_reg() {
                    add(d.index(), i);
                }
            }
        });
        let pred_defs = Groups::new(body.vpreds as usize, |add| {
            for (i, op) in ops() {
                if let Some(p) = op.kind.def_pred() {
                    add(p.index(), i);
                }
            }
        });

        let mut add_scalar_edges = |defs: &Groups, uses: &Groups| {
            for r in 0..defs.keys() {
                let ds = defs.get(r);
                if ds.is_empty() {
                    continue;
                }
                for &u in uses.get(r) {
                    let u = u as usize;
                    // Flow from the latest def before u...
                    match ds.iter().rev().find(|&&d| (d as usize) < u) {
                        Some(&d) => edges.push(VDep {
                            from: d as usize,
                            to: u,
                            distance: 0,
                            min_delay: latency_of(&lat, &body.ops[d as usize]),
                        }),
                        None => {
                            // ...or carried from the last def of the
                            // previous iteration (ds is nonempty here —
                            // empty def lists were skipped above).
                            if let Some(&d) = ds.last() {
                                edges.push(VDep {
                                    from: d as usize,
                                    to: u,
                                    distance: 1,
                                    min_delay: latency_of(&lat, &body.ops[d as usize]),
                                });
                            }
                        }
                    }
                    // Anti edge to the next def at or after u.
                    if let Some(&d) = ds.iter().find(|&&d| d as usize > u) {
                        edges.push(VDep {
                            from: u,
                            to: d as usize,
                            distance: 0,
                            min_delay: 0,
                        });
                    } else if ds[0] as usize != u && !renamed {
                        // Carried anti: next iteration's first def (only
                        // without modulo variable expansion).
                        edges.push(VDep {
                            from: u,
                            to: ds[0] as usize,
                            distance: 1,
                            min_delay: 0,
                        });
                    }
                }
                // Output edges between consecutive defs.
                for w in ds.windows(2) {
                    edges.push(VDep {
                        from: w[0] as usize,
                        to: w[1] as usize,
                        distance: 0,
                        min_delay: 1,
                    });
                }
            }
        };
        add_scalar_edges(&reg_defs, &reg_uses);
        add_scalar_edges(&pred_defs, &pred_uses);

        // Memory ordering: conservative per (bank, array window). Lowering
        // resolved arrays to addresses; we order stores against other
        // accesses of the same bank unless both addresses are distinct
        // constants. Two loads never conflict, so a store meets every
        // later access and a load only the later stores, visited in the
        // same (i, j) order as an all-pairs scan.
        let is_store = |i: usize| matches!(body.ops[i].kind, OpKind::Store { .. });
        let mem_ops: Vec<usize> = (0..n).filter(|&i| body.ops[i].kind.is_mem()).collect();
        let stores: Vec<usize> = mem_ops.iter().copied().filter(|&i| is_store(i)).collect();
        for (ai, &i) in mem_ops.iter().enumerate() {
            let later = if is_store(i) {
                &mem_ops[ai + 1..]
            } else {
                &stores[stores.partition_point(|&s| s < i)..]
            };
            for &j in later {
                let (a, b) = (&body.ops[i].kind, &body.ops[j].kind);
                if bank_of(a) != bank_of(b) {
                    continue;
                }
                if let (Some(x), Some(y)) = (const_addr(a), const_addr(b)) {
                    if x != y {
                        continue;
                    }
                }
                edges.push(VDep {
                    from: i,
                    to: j,
                    distance: 0,
                    min_delay: 1,
                });
            }
        }

        debug_assert!(
            edges.iter().all(|e| e.distance > 0 || e.from < e.to),
            "same-iteration dependences point forward"
        );
        VopDeps::from_edges(n, edges)
    }

    /// The graph over `len` operations with the given edges, indexed by
    /// consumer and by producer.
    pub(crate) fn from_edges(len: usize, edges: Vec<VDep>) -> VopDeps {
        assert!(
            u32::try_from(edges.len()).is_ok(),
            "edge indices must fit the u32 index"
        );
        let by = |key: fn(&VDep) -> usize| {
            Groups::new(len, |add| {
                for (k, e) in (0u32..).zip(&edges) {
                    add(key(e), k);
                }
            })
        };
        let (incoming, outgoing) = (by(|e| e.to), by(|e| e.from));
        VopDeps {
            len,
            edges,
            incoming,
            outgoing,
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the graph has no operations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All edges, in construction order.
    pub fn edges(&self) -> &[VDep] {
        &self.edges
    }

    /// Edges entering `i`, in edge order.
    pub fn preds(&self, i: usize) -> impl Iterator<Item = &VDep> {
        self.incoming
            .get(i)
            .iter()
            .map(|&k| &self.edges[k as usize])
    }

    /// Edges leaving `i`, in edge order.
    pub fn succs(&self, i: usize) -> impl Iterator<Item = &VDep> {
        self.outgoing
            .get(i)
            .iter()
            .map(|&k| &self.edges[k as usize])
    }

    /// Height of each operation: the longest delay-weighted path (over
    /// distance-0 edges) from the operation to any sink. Used as the list
    /// and modulo schedulers' priority.
    ///
    /// Every distance-0 edge [`VopDeps::build`] emits points forward
    /// (`from < to`), so one pass in reverse index order sees each
    /// successor's final height before its producers need it.
    pub fn heights(&self) -> Vec<u32> {
        let mut h = vec![0u32; self.len];
        for i in (0..self.len).rev() {
            h[i] = self
                .succs(i)
                .filter(|e| e.distance == 0)
                .map(|e| h[e.to] + e.min_delay)
                .max()
                .unwrap_or(0);
        }
        h
    }
}

/// Items grouped by key, each group in the order the items came:
/// group `k` is `items[start[k]..start[k + 1]]`.
#[derive(Debug, Clone, PartialEq)]
struct Groups {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Groups {
    /// Counting sort of the `(key, item)` pairs `visit` hands to its
    /// argument, keys below `keys`. `visit` runs twice (count, then
    /// fill) and must hand over the same pairs in the same order; the
    /// sort is stable, so each group keeps that order.
    fn new(keys: usize, visit: impl Fn(&mut dyn FnMut(usize, u32))) -> Groups {
        // `start[k + 2]` counts key `k`; after the prefix sums
        // `start[k + 1]` is where group `k` begins, and filling advances
        // it to where group `k + 1` begins.
        let mut start = vec![0u32; keys + 2];
        visit(&mut |k, _| start[k + 2] += 1);
        for k in 2..start.len() {
            start[k] += start[k - 1];
        }
        let mut items = vec![0; start[keys + 1] as usize];
        visit(&mut |k, item| {
            items[start[k + 1] as usize] = item;
            start[k + 1] += 1;
        });
        start.pop();
        Groups { start, items }
    }

    /// Number of keys.
    fn keys(&self) -> usize {
        self.start.len() - 1
    }

    /// The items of key `k`.
    fn get(&self, k: usize) -> &[u32] {
        &self.items[self.start[k] as usize..self.start[k + 1] as usize]
    }
}

fn latency_of(lat: &LatencyModel<'_>, op: &VOp) -> u32 {
    lat.latency(&op.kind)
}

fn bank_of(kind: &OpKind) -> u8 {
    match kind {
        OpKind::Load { bank, .. } | OpKind::Store { bank, .. } => bank.0,
        _ => u8::MAX,
    }
}

fn const_addr(kind: &OpKind) -> Option<u16> {
    match kind {
        OpKind::Load {
            addr: vsp_isa::AddrMode::Absolute(a),
            ..
        }
        | OpKind::Store {
            addr: vsp_isa::AddrMode::Absolute(a),
            ..
        } => Some(*a),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsp_core::models;
    use vsp_isa::{AddrMode, AluBinOp, MemBank, Operand, Reg};

    fn vop(kind: OpKind) -> VOp {
        VOp {
            kind,
            guard: None,
            src_stmt: 0,
        }
    }

    fn add(dst: u16, a: u16, b: u16) -> VOp {
        vop(OpKind::AluBin {
            op: AluBinOp::Add,
            dst: Reg(dst),
            a: Operand::Reg(Reg(a)),
            b: Operand::Reg(Reg(b)),
        })
    }

    fn load(dst: u16, addr: u16) -> VOp {
        vop(OpKind::Load {
            dst: Reg(dst),
            addr: AddrMode::Absolute(addr),
            bank: MemBank(0),
        })
    }

    #[test]
    fn flow_edges_carry_latency() {
        let m = models::i4c8s5(); // load latency 2
        let body = LoweredBody {
            ops: vec![load(1, 0), add(2, 1, 1)],
            vregs: 3,
            vpreds: 0,
        };
        let deps = VopDeps::build(&m, &body);
        assert!(deps.edges().contains(&VDep {
            from: 0,
            to: 1,
            distance: 0,
            min_delay: 2
        }));
    }

    #[test]
    fn accumulator_carried_edge() {
        let m = models::i4c8s4();
        // v1 = v1 + v2
        let body = LoweredBody {
            ops: vec![add(1, 1, 2)],
            vregs: 3,
            vpreds: 0,
        };
        let deps = VopDeps::build(&m, &body);
        assert!(deps.edges().contains(&VDep {
            from: 0,
            to: 0,
            distance: 1,
            min_delay: 1
        }));
    }

    #[test]
    fn memory_ordering_for_stores() {
        let m = models::i4c8s4();
        let st = vop(OpKind::Store {
            src: Operand::Reg(Reg(1)),
            addr: AddrMode::Register(Reg(2)),
            bank: MemBank(0),
        });
        let body = LoweredBody {
            ops: vec![st, load(3, 0)],
            vregs: 4,
            vpreds: 0,
        };
        let deps = VopDeps::build(&m, &body);
        assert!(deps
            .edges()
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.min_delay == 1));
    }

    #[test]
    fn distinct_constant_addresses_disambiguate() {
        let m = models::i4c8s4();
        let st = vop(OpKind::Store {
            src: Operand::Reg(Reg(1)),
            addr: AddrMode::Absolute(4),
            bank: MemBank(0),
        });
        let body = LoweredBody {
            ops: vec![st, load(3, 9)],
            vregs: 4,
            vpreds: 0,
        };
        let deps = VopDeps::build(&m, &body);
        assert!(!deps.edges().iter().any(|e| e.from == 0 && e.to == 1));
    }

    #[test]
    fn heights_reflect_critical_path() {
        let m = models::i4c8s4();
        // chain: v1=v0+v0 ; v2=v1+v1 ; v3=v2+v2
        let body = LoweredBody {
            ops: vec![add(1, 0, 0), add(2, 1, 1), add(3, 2, 2)],
            vregs: 4,
            vpreds: 0,
        };
        let deps = VopDeps::build(&m, &body);
        let h = deps.heights();
        assert!(h[0] > h[1] && h[1] > h[2]);
    }

    #[test]
    fn class_counters() {
        let body = LoweredBody {
            ops: vec![add(1, 0, 0), load(2, 0), load(3, 1)],
            vregs: 4,
            vpreds: 0,
        };
        assert_eq!(body.count_class(FuClass::Alu), 1);
        assert_eq!(body.count_class(FuClass::Mem), 2);
        assert_eq!(body.count_bank(0), 2);
        assert_eq!(body.count_bank(1), 0);
    }
}
