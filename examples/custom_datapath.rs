//! Define a custom datapath model and evaluate it against the paper's
//! candidates: a 4-cluster, 8-issue "fat cluster" machine — the kind of
//! alternative §4's future work contemplates.
//!
//! ```text
//! cargo run --release --example custom_datapath
//! ```

use vsp::core::{
    Addressing, BankBinding, ClusterConfig, FuSet, MachineConfig, MemBankConfig, MulWidth,
    PipelineConfig,
};
use vsp::isa::FuClass;
use vsp::kernels::variants::full_search_rows;
use vsp::vlsi::clock::CycleTimeModel;

fn main() {
    // A fat-cluster machine: 4 clusters x 8 slots, 256 registers,
    // 2 load/store units on a dual-ported 32 KB memory.
    let xfer = FuClass::Xfer;
    let fat = MachineConfig {
        name: "I8C4S4".into(),
        clusters: 4,
        cluster: ClusterConfig {
            slots: vec![
                FuSet::of(&[FuClass::Alu, FuClass::Mul, xfer]),
                FuSet::of(&[FuClass::Alu, FuClass::Shift, xfer]),
                FuSet::of(&[FuClass::Alu, FuClass::Mem, xfer]),
                FuSet::of(&[FuClass::Alu, FuClass::Mem, xfer]),
                FuSet::of(&[FuClass::Alu, xfer]),
                FuSet::of(&[FuClass::Alu, xfer]),
                FuSet::of(&[FuClass::Alu, FuClass::Mul, xfer]),
                FuSet::of(&[FuClass::Alu, FuClass::Shift, xfer]),
            ],
            registers: 256,
            pred_regs: 8,
            banks: vec![MemBankConfig {
                words: 16384,
                ports: 2,
            }],
            bank_binding: BankBinding::Any,
            xbar_ports: 8,
            rf_ports_per_slot: None,
        },
        pipeline: PipelineConfig {
            stages: 4,
            load_use_delay: 0,
            mul_latency: 1,
            branch_delay_slots: 1,
            xfer_latency: 1,
        },
        addressing: Addressing::Simple,
        mul_width: MulWidth::Eight,
        has_absdiff: false,
        icache_words: 1024,
        icache_refill_cycles: 120,
    };

    println!("custom machine: {fat}");
    let spec = fat.datapath_spec();
    let clock = CycleTimeModel::new().estimate(&spec);
    println!(
        "  area {:.1} mm2, clock {:.0} MHz, peak {} ops/cycle",
        spec.datapath_area().total_mm2(),
        clock.freq_mhz(),
        fat.peak_ops_per_cycle()
    );

    // Race it against the paper's models on the full motion search.
    println!("\nfull motion search, best schedule (cycles and time):");
    let base = vsp::core::models::i4c8s4();
    let base_clock = CycleTimeModel::new().estimate(&base.datapath_spec());
    let mut contenders = vsp::core::models::table1_models();
    contenders.push(fat);
    for m in &contenders {
        let rows = match full_search_rows(m) {
            Ok(rows) => rows,
            Err(e) => {
                println!("  {:<10} {e}", m.name);
                continue;
            }
        };
        let best = rows.iter().map(|r| r.cycles).min().unwrap();
        let rel = CycleTimeModel::new()
            .estimate(&m.datapath_spec())
            .relative_to(&base_clock);
        println!(
            "  {:<10} {:>7.2}M cycles x {:.2} clock -> {:>7.2}M equivalent",
            m.name,
            best as f64 / 1e6,
            rel,
            best as f64 / rel / 1e6
        );
    }
    println!("\n(the fat cluster pays area for register ports without beating the\n 16-cluster machines — the paper's 'small clusters win' conclusion)");
}
