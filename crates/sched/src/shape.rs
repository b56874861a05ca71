//! The compile shape: the projection of a [`MachineConfig`] that the
//! compilation pipeline ([`crate::compile`]) actually reads.
//!
//! A compile runs in two stages. The IR passes ([`crate::transform`])
//! read no machine at all; the shape is what the second stage, lowering
//! and list/modulo scheduling ([`crate::lower_and_schedule`]), reads.
//! A design-space search prices thousands of machines that differ in
//! cluster count, register-file size and porting, bank capacity and
//! instruction cache, yet none of those fields reaches either stage.
//! Two machines with equal shapes therefore get identical schedules for
//! every (kernel, strategy) pair, so a driver may transform each kernel
//! once, schedule it once per shape and reuse the result — as long as
//! [`CompileShape::determines`] holds for the pair. `vsp_kernels`'
//! Table 1 rows key their schedule memo by (transformed kernel, the
//! strategy's backend, shape).
//!
//! Where each field is read:
//!
//! * slot capabilities — resource table, ResMII, issue width and the
//!   control-slot index (`mii`, `list`, `modulo`, `CycleReservation`);
//! * bank ports, bank count and binding — array placement, effective
//!   banks and the bank-port bounds (`lower`, `mii`, `CycleReservation`);
//! * crossbar ports — the transfer resource (`mii`, `CycleReservation`);
//! * load-use delay, multiplier and transfer latencies — the dependence
//!   delays (`LatencyModel`, `list`, `modulo`);
//! * branch delay slots — the sequential cost walk (`pipeline`);
//! * addressing, absolute-difference operator, multiplier width —
//!   lowering's instruction selection (`lower`).
//!
//! Left out, and why:
//!
//! * `name` appears only in error text, and failures are never reused;
//! * `registers`, `pred_regs`, `rf_ports_per_slot` and `icache_*` are
//!   read only by [`crate::regalloc`] and [`crate::codegen`], which
//!   compilation never runs;
//! * `pipeline.stages` is read by the VLSI models only; its scheduling
//!   effect arrives through `load_use_delay` and `addressing`;
//! * `clusters` sizes the reservation tables, which schedulers index
//!   only below the strategy's cluster claim, and bank capacity enters
//!   only the overflow check of [`ArrayLayout::contiguous`]. Both are
//!   covered by [`CompileShape::determines`] instead of the key.

use crate::lower::ArrayLayout;
use crate::pipeline::Strategy;
use crate::select::admissible;
use vsp_core::{Addressing, BankBinding, FuSet, MachineConfig, MulWidth};
use vsp_ir::Kernel;

/// The fields of a [`MachineConfig`] the compilation pipeline reads
/// (see the [module docs](self) for where each one is read).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompileShape {
    slots: Vec<FuSet>,
    bank_ports: Vec<u32>,
    bank_binding: BankBinding,
    xbar_ports: u32,
    load_use_delay: u32,
    mul_latency: u32,
    xfer_latency: u32,
    branch_delay_slots: u32,
    addressing: Addressing,
    has_absdiff: bool,
    mul_width: MulWidth,
}

impl CompileShape {
    /// The compile shape of `machine`.
    #[must_use]
    pub fn of(machine: &MachineConfig) -> CompileShape {
        let c = &machine.cluster;
        let p = &machine.pipeline;
        CompileShape {
            slots: c.slots.clone(),
            bank_ports: c.banks.iter().map(|b| b.ports).collect(),
            bank_binding: c.bank_binding,
            xbar_ports: c.xbar_ports,
            load_use_delay: p.load_use_delay,
            mul_latency: p.mul_latency,
            xfer_latency: p.xfer_latency,
            branch_delay_slots: p.branch_delay_slots,
            addressing: machine.addressing,
            has_absdiff: machine.has_absdiff,
            mul_width: machine.mul_width,
        }
    }

    /// Whether compiling `kernel` under `strategy` for `machine` is a
    /// function of the machine's shape alone: the strategy's cluster
    /// claim fits the machine, and the kernel's arrays fit its banks.
    /// Outside these conditions the cluster count or bank capacity
    /// decides the outcome (usually a compile error), so compile
    /// directly instead of reusing another machine's result.
    #[must_use]
    pub fn determines(machine: &MachineConfig, kernel: &Kernel, strategy: &Strategy) -> bool {
        admissible(strategy, machine) && ArrayLayout::contiguous(kernel, machine).is_ok()
    }
}
