//! Per-cycle issue and resource accounting.
//!
//! A [`CycleReservation`] tracks which issue slots, crossbar ports and
//! memory banks one instruction word (equivalently: one cycle, or one
//! modulo-schedule row) has consumed. The schedulers reserve resources
//! through it and the validator replays committed programs against it —
//! "run-time arbitration for resources is never allowed" (§2), so every
//! structural constraint is enforced statically here.

use crate::config::{BankBinding, MachineConfig};
use std::fmt;
use vsp_isa::{ClusterId, FuClass, OpKind, Operation, SlotId};

/// Why an operation could not be placed in a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReserveError {
    /// The cluster index exceeds the machine.
    NoSuchCluster(ClusterId),
    /// The slot index exceeds the cluster (and is not the control slot).
    NoSuchSlot(ClusterId, SlotId),
    /// The slot cannot issue this class of operation.
    Incapable(ClusterId, SlotId, FuClass),
    /// The slot is already occupied this cycle.
    SlotBusy(ClusterId, SlotId),
    /// Branches may only issue from the control slot of cluster 0.
    NotControlSlot(ClusterId, SlotId),
    /// All crossbar ports of a cluster are in use this cycle.
    XbarPortsExhausted(ClusterId),
    /// The memory bank does not exist.
    NoSuchBank(ClusterId, u8),
    /// Per-slot bank binding violated (slot *i* reaches only bank *i*).
    BankSlotMismatch(ClusterId, SlotId, u8),
    /// The memory bank's single port is already in use this cycle.
    BankBusy(ClusterId, u8),
}

impl fmt::Display for ReserveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReserveError::NoSuchCluster(c) => write!(f, "cluster {c} does not exist"),
            ReserveError::NoSuchSlot(c, s) => write!(f, "slot c{c}.s{s} does not exist"),
            ReserveError::Incapable(c, s, class) => {
                write!(f, "slot c{c}.s{s} cannot issue {class} operations")
            }
            ReserveError::SlotBusy(c, s) => write!(f, "slot c{c}.s{s} already issued this cycle"),
            ReserveError::NotControlSlot(c, s) => {
                write!(
                    f,
                    "c{c}.s{s} is not the control slot; branches issue from it only"
                )
            }
            ReserveError::XbarPortsExhausted(c) => {
                write!(f, "cluster {c} has no free crossbar port this cycle")
            }
            ReserveError::NoSuchBank(c, b) => write!(f, "cluster {c} has no bank m{b}"),
            ReserveError::BankSlotMismatch(c, s, b) => {
                write!(
                    f,
                    "slot c{c}.s{s} cannot reach bank m{b} (per-slot binding)"
                )
            }
            ReserveError::BankBusy(c, b) => {
                write!(f, "bank c{c}.m{b} port already used this cycle")
            }
        }
    }
}

impl std::error::Error for ReserveError {}

/// Resource usage of a single cycle.
///
/// Every constraint is either an occupancy bit on a fixed (cluster,
/// slot) or a per-cycle count against a capacity, so any subset of a set
/// of operations that reserved together reserves again, in any order,
/// and [`CycleReservation::release`] undoes one reservation exactly:
/// the cycle is left as if the others alone had reserved. The modulo
/// scheduler evicts from its rows that way.
///
/// Occupancy is one bit mask per cluster and each class's capable slots
/// are one mask, so finding the free slots of a class is one mask
/// operation ([`CycleReservation::free_slots`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CycleReservation {
    clusters: u32,
    slots_per_cluster: u32,
    banks_per_cluster: u32,
    /// The datapath slots able to issue each [`FuClass`] (indexed by
    /// its discriminant), one bit per slot.
    capable: [u32; FuClass::ALL.len()],
    /// One buffer for the whole cycle: an occupancy mask per cluster
    /// (bit `s` is slot `s`; bit `slots_per_cluster` is the control
    /// slot, reachable only on cluster 0), then the crossbar ports in
    /// use per cluster, then the accesses per (cluster, bank),
    /// `banks_per_cluster` entries per cluster.
    used: Vec<u32>,
}

impl CycleReservation {
    /// Datapath slots a cluster may have: its occupancy mask holds them
    /// and the control slot. [`crate::validate_config`] rejects a
    /// machine with more.
    pub const MAX_SLOTS: u32 = u32::BITS - 1;

    /// Creates an empty reservation for one cycle on `machine`.
    ///
    /// # Panics
    ///
    /// Panics if a cluster has more than [`CycleReservation::MAX_SLOTS`]
    /// issue slots.
    pub fn new(machine: &MachineConfig) -> Self {
        let clusters = machine.clusters;
        let slots = machine.cluster.slot_count();
        assert!(
            slots <= Self::MAX_SLOTS,
            "{slots} issue slots per cluster exceed the {} a reservation holds",
            Self::MAX_SLOTS
        );
        let banks = machine.cluster.banks.len() as u32;
        let mut capable = [0; FuClass::ALL.len()];
        for (slot, caps) in machine.cluster.slots.iter().enumerate() {
            for class in caps.iter() {
                capable[class as usize] |= 1 << slot;
            }
        }
        CycleReservation {
            clusters,
            slots_per_cluster: slots,
            banks_per_cluster: banks,
            capable,
            used: vec![0; (clusters * (2 + banks)) as usize],
        }
    }

    /// Index of `cluster`'s crossbar-port count in `used`.
    fn xfer_index(&self, cluster: ClusterId) -> usize {
        assert!(
            u32::from(cluster) < self.clusters,
            "cluster {cluster} does not exist"
        );
        self.clusters as usize + cluster as usize
    }

    /// Index of the access count of `cluster`'s bank `bank` in `used`.
    fn bank_index(&self, cluster: ClusterId, bank: usize) -> usize {
        2 * self.clusters as usize + cluster as usize * self.banks_per_cluster as usize + bank
    }

    /// Whether a slot is already occupied.
    pub fn slot_busy(&self, cluster: ClusterId, slot: SlotId) -> bool {
        self.used[..self.clusters as usize][cluster as usize]
            .checked_shr(u32::from(slot))
            .is_some_and(|m| m & 1 != 0)
    }

    /// The free datapath slots of `cluster` able to issue `class` this
    /// cycle, one bit per slot (bit `s` is slot `s`; the control slot is
    /// never included). Empty for a cluster outside the machine, where
    /// every reservation fails.
    pub fn free_slots(&self, cluster: ClusterId, class: FuClass) -> u32 {
        if u32::from(cluster) >= self.clusters {
            return 0;
        }
        self.capable[class as usize] & !self.used[cluster as usize]
    }

    /// Whether `cluster` has a free datapath slot able to issue `class`
    /// this cycle (the control slot is not counted). `false` for a
    /// cluster outside the machine, where every reservation fails.
    pub fn capable_slot_free(&self, cluster: ClusterId, class: FuClass) -> bool {
        self.free_slots(cluster, class) != 0
    }

    /// Crossbar ports still free on a cluster.
    pub fn xfer_free(&self, machine: &MachineConfig, cluster: ClusterId) -> u32 {
        machine
            .cluster
            .xbar_ports
            .saturating_sub(self.used[self.xfer_index(cluster)])
    }

    /// Attempts to reserve the resources for `op` this cycle.
    ///
    /// # Errors
    ///
    /// Returns a [`ReserveError`] describing the first violated
    /// structural constraint; on error the reservation is unchanged.
    pub fn try_reserve(
        &mut self,
        machine: &MachineConfig,
        op: &Operation,
    ) -> Result<(), ReserveError> {
        let cluster = op.cluster;
        if u32::from(cluster) >= self.clusters {
            return Err(ReserveError::NoSuchCluster(cluster));
        }
        let class = match op.fu_class() {
            Some(c) => c,
            None => return Ok(()), // explicit nop consumes nothing
        };
        let slot = op.slot;
        let (bc, bs) = machine.branch_slot();

        if class == FuClass::Branch {
            if (cluster, slot) != (bc, bs) {
                return Err(ReserveError::NotControlSlot(cluster, slot));
            }
        } else {
            if u32::from(slot) >= self.slots_per_cluster {
                return Err(ReserveError::NoSuchSlot(cluster, slot));
            }
            if self.capable[class as usize] & (1 << slot) == 0 {
                return Err(ReserveError::Incapable(cluster, slot, class));
            }
        }

        // The slot is a datapath slot or the control slot, so its bit
        // lies within the mask.
        let bit = 1u32 << slot;
        if self.used[cluster as usize] & bit != 0 {
            return Err(ReserveError::SlotBusy(cluster, slot));
        }

        // Class-specific shared resources.
        match &op.kind {
            OpKind::Xfer { from, .. } => {
                if u32::from(*from) >= self.clusters {
                    return Err(ReserveError::NoSuchCluster(*from));
                }
                if self.xfer_free(machine, cluster) == 0 {
                    return Err(ReserveError::XbarPortsExhausted(cluster));
                }
                if *from != cluster && self.xfer_free(machine, *from) == 0 {
                    return Err(ReserveError::XbarPortsExhausted(*from));
                }
                let to = self.xfer_index(cluster);
                self.used[to] += 1;
                if *from != cluster {
                    let from = self.xfer_index(*from);
                    self.used[from] += 1;
                }
            }
            OpKind::Load { bank, .. }
            | OpKind::Store { bank, .. }
            | OpKind::MemCtl { bank, .. } => {
                let b = bank.index();
                if b >= self.banks_per_cluster as usize {
                    return Err(ReserveError::NoSuchBank(cluster, bank.0));
                }
                if machine.cluster.bank_binding == BankBinding::PerSlot && bank.0 != slot {
                    return Err(ReserveError::BankSlotMismatch(cluster, slot, bank.0));
                }
                let at = self.bank_index(cluster, b);
                if self.used[at] >= machine.cluster.banks[b].ports {
                    return Err(ReserveError::BankBusy(cluster, bank.0));
                }
                self.used[at] += 1;
            }
            _ => {}
        }

        self.used[cluster as usize] |= bit;
        Ok(())
    }

    /// Gives back what a successful [`CycleReservation::try_reserve`] of
    /// `op` took: its slot, its crossbar ports and its bank access. The
    /// cycle then holds exactly the other operations' reservations.
    ///
    /// `op` must be reserved in this cycle and not yet released; an
    /// operation that was never reserved corrupts the accounting.
    pub fn release(&mut self, op: &Operation) {
        if op.fu_class().is_none() {
            return; // a nop reserved nothing
        }
        let cluster = op.cluster;
        match &op.kind {
            OpKind::Xfer { from, .. } => {
                let to = self.xfer_index(cluster);
                self.used[to] -= 1;
                if *from != cluster {
                    let from = self.xfer_index(*from);
                    self.used[from] -= 1;
                }
            }
            OpKind::Load { bank, .. }
            | OpKind::Store { bank, .. }
            | OpKind::MemCtl { bank, .. } => {
                let at = self.bank_index(cluster, bank.index());
                self.used[at] -= 1;
            }
            _ => {}
        }
        let bit = 1u32 << op.slot;
        debug_assert!(
            self.used[cluster as usize] & bit != 0,
            "released an unreserved slot"
        );
        self.used[cluster as usize] &= !bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use vsp_isa::{AddrMode, AluBinOp, MemBank, Operand, Pred, Reg};

    fn add(cluster: ClusterId, slot: SlotId) -> Operation {
        Operation::new(
            cluster,
            slot,
            OpKind::AluBin {
                op: AluBinOp::Add,
                dst: Reg(1),
                a: Operand::Reg(Reg(0)),
                b: Operand::Imm(1),
            },
        )
    }

    fn ld(cluster: ClusterId, slot: SlotId, bank: u8) -> Operation {
        Operation::new(
            cluster,
            slot,
            OpKind::Load {
                dst: Reg(1),
                addr: AddrMode::Register(Reg(0)),
                bank: MemBank(bank),
            },
        )
    }

    fn xfer(dst_cluster: ClusterId, slot: SlotId, from: ClusterId) -> Operation {
        Operation::new(
            dst_cluster,
            slot,
            OpKind::Xfer {
                dst: Reg(1),
                from,
                src: Reg(2),
            },
        )
    }

    fn br(cluster: ClusterId, slot: SlotId) -> Operation {
        Operation::new(
            cluster,
            slot,
            OpKind::Branch {
                pred: Pred(0),
                sense: true,
                target: 0,
            },
        )
    }

    #[test]
    fn slot_occupancy() {
        let m = models::i4c8s4();
        let mut r = CycleReservation::new(&m);
        r.try_reserve(&m, &add(0, 0)).unwrap();
        assert_eq!(
            r.try_reserve(&m, &add(0, 0)),
            Err(ReserveError::SlotBusy(0, 0))
        );
        r.try_reserve(&m, &add(0, 1)).unwrap();
    }

    #[test]
    fn capability_enforced() {
        let m = models::i4c8s4();
        let mut r = CycleReservation::new(&m);
        // Slot 3 of the wide cluster has no Mem capability.
        assert_eq!(
            r.try_reserve(&m, &ld(0, 3, 0)),
            Err(ReserveError::Incapable(0, 3, FuClass::Mem))
        );
        r.try_reserve(&m, &ld(0, 2, 0)).unwrap();
    }

    #[test]
    fn one_load_per_cycle_on_wide_clusters() {
        // The Full-Motion-Search bottleneck: "the load/store unit which is
        // limited to one load per cluster per cycle".
        let m = models::i4c8s4();
        let mut r = CycleReservation::new(&m);
        r.try_reserve(&m, &ld(0, 2, 0)).unwrap();
        // No other slot can issue memory ops at all.
        for slot in [0u8, 1, 3] {
            assert!(r.try_reserve(&m, &ld(0, slot, 0)).is_err());
        }
    }

    #[test]
    fn dualport_ablation_allows_two_loads() {
        let m = models::i4c8s4_dualport();
        let mut r = CycleReservation::new(&m);
        r.try_reserve(&m, &ld(0, 2, 0)).unwrap();
        // The §3.4.1 ablation's dual-ported memory takes a second access.
        r.try_reserve(&m, &ld(0, 3, 0)).unwrap();
        // But not a third (no third LSU slot and no third port).
        assert!(r.try_reserve(&m, &ld(0, 0, 0)).is_err());
    }

    #[test]
    fn per_slot_bank_binding() {
        let m = models::i2c16s4();
        let mut r = CycleReservation::new(&m);
        r.try_reserve(&m, &ld(3, 0, 0)).unwrap();
        assert_eq!(
            r.try_reserve(&m, &ld(3, 1, 0)),
            Err(ReserveError::BankSlotMismatch(3, 1, 0))
        );
        r.try_reserve(&m, &ld(3, 1, 1)).unwrap();
    }

    #[test]
    fn crossbar_port_limits() {
        let m = models::i2c16s4(); // 1 port per cluster
        let mut r = CycleReservation::new(&m);
        r.try_reserve(&m, &xfer(0, 0, 1)).unwrap();
        // Cluster 1's single port is now consumed as a source.
        assert_eq!(
            r.try_reserve(&m, &xfer(2, 0, 1)),
            Err(ReserveError::XbarPortsExhausted(1))
        );
        // Cluster 0's port is consumed as a destination.
        assert_eq!(
            r.try_reserve(&m, &xfer(0, 1, 3)),
            Err(ReserveError::XbarPortsExhausted(0))
        );
        // Unrelated clusters still transfer freely.
        r.try_reserve(&m, &xfer(4, 0, 5)).unwrap();
    }

    #[test]
    fn wide_clusters_have_port_per_slot() {
        let m = models::i4c8s4(); // 4 ports per cluster
        let mut r = CycleReservation::new(&m);
        for slot in 0..4u8 {
            let op = Operation::new(
                1,
                slot,
                OpKind::Xfer {
                    dst: Reg(slot as u16),
                    from: 2 + slot,
                    src: Reg(0),
                },
            );
            r.try_reserve(&m, &op).unwrap();
        }
    }

    #[test]
    fn branch_only_in_control_slot() {
        let m = models::i4c8s4();
        let mut r = CycleReservation::new(&m);
        assert_eq!(
            r.try_reserve(&m, &br(0, 0)),
            Err(ReserveError::NotControlSlot(0, 0))
        );
        assert_eq!(
            r.try_reserve(&m, &br(1, 4)),
            Err(ReserveError::NotControlSlot(1, 4))
        );
        r.try_reserve(&m, &br(0, 4)).unwrap();
        assert_eq!(
            r.try_reserve(&m, &br(0, 4)),
            Err(ReserveError::SlotBusy(0, 4))
        );
    }

    #[test]
    fn out_of_range_indices() {
        let m = models::i4c8s4();
        let mut r = CycleReservation::new(&m);
        assert_eq!(
            r.try_reserve(&m, &add(8, 0)),
            Err(ReserveError::NoSuchCluster(8))
        );
        assert_eq!(
            r.try_reserve(&m, &add(0, 4)),
            Err(ReserveError::NoSuchSlot(0, 4))
        );
        assert_eq!(
            r.try_reserve(&m, &ld(0, 2, 1)),
            Err(ReserveError::NoSuchBank(0, 1))
        );
    }

    #[test]
    fn failed_reservation_leaves_state_unchanged() {
        // The modulo scheduler probes its persistent rows directly, so
        // every rejection must be a pure probe. Each case starts from a
        // non-empty reservation and must fail with its variant.
        let mut single_ported = models::i4c8s4_dualport();
        for bank in &mut single_ported.cluster.banks {
            bank.ports = 1;
        }
        let cases: Vec<(MachineConfig, Vec<Operation>, Operation, ReserveError)> = vec![
            (
                models::i4c8s4(),
                vec![add(0, 0)],
                add(8, 0),
                ReserveError::NoSuchCluster(8),
            ),
            (
                models::i2c16s4(),
                vec![xfer(0, 0, 1)],
                xfer(2, 0, 99),
                ReserveError::NoSuchCluster(99),
            ),
            (
                models::i4c8s4(),
                vec![add(0, 0)],
                add(0, 4),
                ReserveError::NoSuchSlot(0, 4),
            ),
            (
                models::i4c8s4(),
                vec![ld(0, 2, 0)],
                ld(0, 3, 0),
                ReserveError::Incapable(0, 3, FuClass::Mem),
            ),
            (
                models::i4c8s4(),
                vec![add(0, 0), ld(0, 2, 0)],
                add(0, 0),
                ReserveError::SlotBusy(0, 0),
            ),
            (
                models::i4c8s4(),
                vec![add(0, 0)],
                br(0, 0),
                ReserveError::NotControlSlot(0, 0),
            ),
            // Destination side: cluster 0's only port is taken.
            (
                models::i2c16s4(),
                vec![xfer(0, 0, 1)],
                xfer(0, 1, 3),
                ReserveError::XbarPortsExhausted(0),
            ),
            // Source side: cluster 2's port is free, so the destination
            // check passes before the source check fails.
            (
                models::i2c16s4(),
                vec![xfer(0, 0, 1)],
                xfer(2, 0, 1),
                ReserveError::XbarPortsExhausted(1),
            ),
            (
                models::i4c8s4(),
                vec![add(0, 0)],
                ld(0, 2, 1),
                ReserveError::NoSuchBank(0, 1),
            ),
            (
                models::i2c16s4(),
                vec![ld(3, 0, 0)],
                ld(3, 1, 0),
                ReserveError::BankSlotMismatch(3, 1, 0),
            ),
            (
                single_ported,
                vec![ld(0, 2, 0)],
                ld(0, 3, 0),
                ReserveError::BankBusy(0, 0),
            ),
        ];
        let mut seen = [false; 9];
        for (m, setup, op, expected) in cases {
            let mut r = CycleReservation::new(&m);
            for o in &setup {
                r.try_reserve(&m, o).unwrap();
            }
            let before = r.clone();
            assert_eq!(r.try_reserve(&m, &op), Err(expected.clone()));
            assert_eq!(r, before, "{expected} changed the reservation");
            seen[match expected {
                ReserveError::NoSuchCluster(_) => 0,
                ReserveError::NoSuchSlot(..) => 1,
                ReserveError::Incapable(..) => 2,
                ReserveError::SlotBusy(..) => 3,
                ReserveError::NotControlSlot(..) => 4,
                ReserveError::XbarPortsExhausted(_) => 5,
                ReserveError::NoSuchBank(..) => 6,
                ReserveError::BankSlotMismatch(..) => 7,
                ReserveError::BankBusy(..) => 8,
            }] = true;
        }
        assert!(seen.iter().all(|&s| s), "every variant is covered");
    }

    fn st(cluster: ClusterId, slot: SlotId, bank: u8) -> Operation {
        Operation::new(
            cluster,
            slot,
            OpKind::Store {
                src: Operand::Reg(Reg(1)),
                addr: AddrMode::Register(Reg(0)),
                bank: MemBank(bank),
            },
        )
    }

    /// Every set of operations that reserves together in one cycle, on
    /// every paper model and the dual-ported ablation: releasing any one
    /// of them leaves the cycle equal to reserving the others alone.
    /// The menu covers every slot of cluster 0, its control slot, and
    /// slot 0 of cluster 1, with loads and stores on every bank (so
    /// per-slot banking and dual ports bind) and transfers into each
    /// from the other and from cluster 2 (so both crossbar sides count).
    #[test]
    fn release_undoes_one_reservation_exactly() {
        let mut machines = models::all_models();
        machines.push(models::i4c8s4_dualport());
        for m in &machines {
            let slots = m.cluster.slot_count() as SlotId;
            let banks = m.cluster.banks.len() as u8;
            let mut menu = vec![br(0, slots)];
            for (cluster, slot) in (0..slots).map(|s| (0, s)).chain([(1, 0)]) {
                menu.push(add(cluster, slot));
                for bank in 0..banks {
                    menu.push(ld(cluster, slot, bank));
                    menu.push(st(cluster, slot, bank));
                }
                menu.push(xfer(cluster, slot, 1 - cluster));
                menu.push(xfer(cluster, slot, 2));
            }
            // Depth-first over the menu's index-ordered subsets that
            // reserve together; each is checked once.
            let mut sets = 0;
            let mut stack = vec![(Vec::<usize>::new(), CycleReservation::new(m))];
            while let Some((set, resv)) = stack.pop() {
                for (k, &drop) in set.iter().enumerate() {
                    let mut released = resv.clone();
                    released.release(&menu[drop]);
                    let mut rest = CycleReservation::new(m);
                    for &i in set.iter().filter(|&&i| i != drop) {
                        rest.try_reserve(m, &menu[i]).unwrap();
                    }
                    assert_eq!(released, rest, "{}: releasing item {k} of {set:?}", m.name);
                }
                sets += 1;
                let next = set.last().map_or(0, |&i| i + 1);
                for (i, op) in menu.iter().enumerate().skip(next) {
                    let mut grown = resv.clone();
                    if grown.try_reserve(m, op).is_ok() {
                        let mut set = set.clone();
                        set.push(i);
                        stack.push((set, grown));
                    }
                }
            }
            assert!(sets > menu.len(), "{}: {sets} sets", m.name);
        }
    }

    /// The free-slot masks list exactly the capable slots `slots_for`
    /// yields that are not yet busy, in the same ascending order, on
    /// every paper model; a cluster outside the machine has none.
    #[test]
    fn free_slots_are_the_idle_capable_slots() {
        let mut machines = models::all_models();
        machines.push(models::i4c8s4_dualport());
        for m in &machines {
            let mut r = CycleReservation::new(m);
            r.try_reserve(m, &add(1, 0)).unwrap();
            r.try_reserve(m, &br(0, m.cluster.slot_count() as SlotId))
                .unwrap();
            for class in FuClass::ALL {
                for cluster in [0, 1] {
                    let mask = r.free_slots(cluster, class);
                    let bits: Vec<SlotId> = (0..32)
                        .filter(|&s| mask & (1 << s) != 0)
                        .map(|s| s as SlotId)
                        .collect();
                    let expected: Vec<SlotId> = m
                        .cluster
                        .slots_for(class)
                        .filter(|&s| !r.slot_busy(cluster, s))
                        .collect();
                    assert_eq!(bits, expected, "{} c{cluster} {class}", m.name);
                    assert_eq!(r.capable_slot_free(cluster, class), !expected.is_empty());
                }
                let outside = m.clusters as ClusterId;
                assert_eq!(r.free_slots(outside, class), 0);
                assert!(!r.capable_slot_free(outside, class));
            }
        }
    }

    #[test]
    #[should_panic(expected = "issue slots per cluster exceed")]
    fn a_cluster_wider_than_the_mask_is_refused() {
        let mut m = models::i4c8s4();
        m.cluster.slots = vec![m.cluster.slots[0]; CycleReservation::MAX_SLOTS as usize + 1];
        let _ = CycleReservation::new(&m);
    }

    #[test]
    fn the_widest_cluster_reserves_every_slot_and_the_control_slot() {
        let mut m = models::i4c8s4();
        m.cluster.slots = vec![m.cluster.slots[0]; CycleReservation::MAX_SLOTS as usize];
        let mut r = CycleReservation::new(&m);
        for slot in 0..CycleReservation::MAX_SLOTS as SlotId {
            r.try_reserve(&m, &add(0, slot)).unwrap();
        }
        assert_eq!(r.free_slots(0, FuClass::Alu), 0);
        let control = CycleReservation::MAX_SLOTS as SlotId;
        r.try_reserve(&m, &br(0, control)).unwrap();
        assert!(r.slot_busy(0, control));
        r.release(&br(0, control));
        assert!(!r.slot_busy(0, control));
    }

    #[test]
    fn nop_consumes_nothing() {
        let m = models::i4c8s4();
        let mut r = CycleReservation::new(&m);
        r.try_reserve(&m, &Operation::new(0, 0, OpKind::Nop))
            .unwrap();
        r.try_reserve(&m, &add(0, 0)).unwrap();
    }
}
