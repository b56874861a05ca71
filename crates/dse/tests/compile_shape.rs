//! `CompileShape` is exactly the part of a machine compilation reads.
//!
//! The search compiles once per shape and reuses the schedules for
//! every survivor of that shape, so the projection must be derived from
//! the code, not assumed. Perturbing any field the shape leaves out
//! must leave every Table 1 compile unchanged; perturbing any field it
//! keeps must change the shape.

use vsp_core::{
    models, Addressing, BankBinding, FuSet, MachineConfig, MachineParams, MemBankConfig, MulWidth,
};
use vsp_isa::FuClass;
use vsp_kernels::variants::{distinct_table1_recipes, table1_recipes};
use vsp_sched::{compile, CompileShape};

/// The seven paper models, a 2-bank any-slot grid point and a grid
/// point with more than 8 clusters.
fn machines() -> Vec<MachineConfig> {
    let mut any_slot = MachineParams::baseline(3, 8, 5, 32);
    any_slot.banks = 2;
    any_slot.bank_words = 8192;
    let mut many_clusters = MachineParams::baseline(4, 12, 4, 48);
    many_clusters.rf_read_ports_per_slot = 3;
    many_clusters.banks = 2;
    many_clusters.bank_words = 6144;
    let mut machines = models::all_models();
    machines.push(any_slot.build());
    machines.push(many_clusters.build());
    machines
}

type Perturbation = (&'static str, fn(&mut MachineConfig));

/// One perturbation per field the shape excludes. Cluster counts stay
/// on their side of the 8-cluster line (where the grid derives crossbar
/// ports and transfer latency) and at or above every recipe's claim;
/// bank capacity only grows, so the arrays still fit.
const EXCLUDED: [Perturbation; 8] = [
    ("name", |m| m.name.push_str("-renamed")),
    ("clusters", |m| {
        m.clusters = match m.clusters {
            8 => 6,
            c if c <= 8 => 8,
            16 => 12,
            _ => 16,
        }
    }),
    ("registers", |m| m.cluster.registers *= 2),
    ("pred_regs", |m| m.cluster.pred_regs += 8),
    ("rf_ports_per_slot", |m| {
        m.cluster.rf_ports_per_slot = match m.cluster.rf_ports_per_slot {
            Some(5) => None,
            _ => Some(5),
        }
    }),
    ("icache", |m| {
        m.icache_words *= 2;
        m.icache_refill_cycles += 50;
    }),
    ("bank words", |m| {
        for b in &mut m.cluster.banks {
            b.words *= 2;
        }
    }),
    ("stages", |m| m.pipeline.stages = 9 - m.pipeline.stages),
];

/// One perturbation per field the shape keeps.
const INCLUDED: [Perturbation; 14] = [
    ("slot count", |m| {
        m.cluster.slots.push(FuSet::of(&[FuClass::Alu]))
    }),
    ("slot capabilities", |m| {
        m.cluster.slots[0] = FuSet::of(&[FuClass::Alu]);
    }),
    ("bank count", |m| {
        m.cluster.banks.push(MemBankConfig::single_ported(4096));
    }),
    ("bank ports", |m| m.cluster.banks[0].ports += 1),
    ("bank binding", |m| {
        m.cluster.bank_binding = match m.cluster.bank_binding {
            BankBinding::Any => BankBinding::PerSlot,
            BankBinding::PerSlot => BankBinding::Any,
        }
    }),
    ("xbar ports", |m| m.cluster.xbar_ports += 1),
    ("load-use delay", |m| m.pipeline.load_use_delay += 1),
    ("mul latency", |m| m.pipeline.mul_latency += 1),
    ("xfer latency", |m| m.pipeline.xfer_latency += 1),
    ("branch delay slots", |m| m.pipeline.branch_delay_slots += 1),
    ("addressing", |m| {
        m.addressing = match m.addressing {
            Addressing::Simple => Addressing::Complex,
            Addressing::Complex => Addressing::Simple,
        }
    }),
    ("absdiff", |m| m.has_absdiff = !m.has_absdiff),
    ("mul width", |m| {
        m.mul_width = match m.mul_width {
            MulWidth::Eight => MulWidth::Sixteen,
            MulWidth::Sixteen => MulWidth::Eight,
        }
    }),
    ("slot order", |m| m.cluster.slots.reverse()),
];

fn check_excluded_fields(machine: &MachineConfig) {
    let recipes = distinct_table1_recipes(std::slice::from_ref(machine));
    assert!(
        recipes.len() > 20,
        "{}: {} recipes",
        machine.name,
        recipes.len()
    );
    for r in &recipes {
        assert!(
            CompileShape::determines(&r.machine, &r.kernel, &r.strategy),
            "{} / {}: outside the shape's domain",
            r.machine.name,
            r.strategy.name
        );
        let base = compile(&r.kernel, &r.machine, &r.strategy).expect("recipe compiles");
        for (field, perturb) in EXCLUDED {
            let mut m = r.machine.clone();
            perturb(&mut m);
            assert_ne!(m, r.machine, "{field}: perturbation is a no-op");
            assert_eq!(
                CompileShape::of(&m),
                CompileShape::of(&r.machine),
                "{field} reached the shape"
            );
            assert!(CompileShape::determines(&m, &r.kernel, &r.strategy));
            let got = compile(&r.kernel, &m, &r.strategy).expect("perturbed recipe compiles");
            assert!(
                got.schedule == base.schedule && got.scheduled_trip == base.scheduled_trip,
                "{} / {}: perturbing {field} changed the compile",
                r.machine.name,
                r.strategy.name
            );
        }
    }
}

#[test]
fn fields_outside_the_shape_never_change_a_table1_compile() {
    let machines = machines();
    std::thread::scope(|s| {
        for m in &machines {
            s.spawn(move || check_excluded_fields(m));
        }
    });
}

#[test]
fn fields_inside_the_shape_change_it() {
    for machine in machines() {
        for (field, perturb) in INCLUDED {
            let mut m = machine.clone();
            perturb(&mut m);
            assert_ne!(
                CompileShape::of(&m),
                CompileShape::of(&machine),
                "{}: {field} is missing from the shape",
                machine.name
            );
        }
    }
}

#[test]
fn overflowing_arrays_and_oversized_claims_fall_outside_the_shape() {
    let machine = models::i4c8s4();
    let recipe = table1_recipes(&machine)
        .into_iter()
        .find(|r| vsp_sched::clusters_claimed(&r.strategy) == 4)
        .expect("the widened DCT claims a 4-cluster group");
    let mut tiny_banks = machine.clone();
    for b in &mut tiny_banks.cluster.banks {
        b.words = 1;
    }
    assert!(!CompileShape::determines(
        &tiny_banks,
        &recipe.kernel,
        &recipe.strategy
    ));
    let mut few_clusters = machine.clone();
    few_clusters.clusters = 2;
    assert!(!CompileShape::determines(
        &few_clusters,
        &recipe.kernel,
        &recipe.strategy
    ));
    assert!(CompileShape::determines(
        &machine,
        &recipe.kernel,
        &recipe.strategy
    ));
}
