//! Text renderings of every figure and table.

use std::fmt::Write as _;
use vsp_core::{models, MachineConfig};
use vsp_kernels::variants::{assemble_table, table1_rows, table2_rows, KernelId, TableRow};
use vsp_vlsi::clock::CycleTimeModel;
use vsp_vlsi::crossbar::{fig2_dataset, FIG2_PORTS};
use vsp_vlsi::regfile::{fig3_dataset, FIG3_PORTS};
use vsp_vlsi::sram::{fig4_dataset, FIG4_PORTS};
use vsp_vlsi::tech::DriverSize;

/// Formats a cycle count the way Table 1 does (`25.70M`).
pub fn fmt_cycles(c: u64) -> String {
    format!("{:.2}M", c as f64 / 1e6)
}

/// Fig. 2: crossbar delay and area vs. port count for each driver size.
pub fn fig2() -> String {
    let mut out = String::new();
    writeln!(out, "Fig. 2: Delay and Area for 16-bit Crossbar Switches").unwrap();
    write!(out, "{:>6}", "ports").unwrap();
    for d in DriverSize::ALL {
        write!(out, " | {:>9}", format!("d {d}")).unwrap();
    }
    for d in DriverSize::ALL {
        write!(out, " | {:>9}", format!("a {d}")).unwrap();
    }
    writeln!(out).unwrap();
    for row in fig2_dataset() {
        write!(out, "{:>6}", row.ports).unwrap();
        for v in &row.delay_ns {
            write!(out, " | {v:>7.2}ns").unwrap();
        }
        for v in &row.area_mm2 {
            write!(out, " | {v:>6.2}mm2").unwrap();
        }
        writeln!(out).unwrap();
    }
    let _ = FIG2_PORTS;
    out
}

/// Fig. 3: register-file delay and area vs. registers and ports.
pub fn fig3() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 3: Delay and Area for 16-bit multiported local register files"
    )
    .unwrap();
    write!(out, "{:>6}", "regs").unwrap();
    for p in FIG3_PORTS {
        write!(out, " | {:>9}", format!("d {p}p")).unwrap();
    }
    for p in FIG3_PORTS {
        write!(out, " | {:>9}", format!("a {p}p")).unwrap();
    }
    writeln!(out).unwrap();
    for row in fig3_dataset() {
        write!(out, "{:>6}", row.registers).unwrap();
        for v in &row.delay_ns {
            write!(out, " | {v:>7.2}ns").unwrap();
        }
        for v in &row.area_mm2 {
            write!(out, " | {v:>6.2}mm2").unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Fig. 4: SRAM delay and area vs. capacity and ports.
pub fn fig4() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 4: Delay and Area for multiported high-speed SRAM"
    )
    .unwrap();
    write!(out, "{:>6}", "bytes").unwrap();
    for p in FIG4_PORTS {
        write!(out, " | {:>9}", format!("d {p}p")).unwrap();
    }
    for p in FIG4_PORTS {
        write!(out, " | {:>9}", format!("a {p}p")).unwrap();
    }
    writeln!(out).unwrap();
    for row in fig4_dataset() {
        write!(out, "{:>6}", row.bytes).unwrap();
        for v in &row.delay_ns {
            write!(out, " | {v:>7.2}ns").unwrap();
        }
        for v in &row.area_mm2 {
            write!(out, " | {v:>6.2}mm2").unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Fig. 5: area budget for datapath I4C8S4.
pub fn fig5() -> String {
    let m = models::i4c8s4();
    let spec = m.datapath_spec();
    let cluster = spec.cluster_area();
    let area = spec.datapath_area();
    let mut out = String::new();
    writeln!(out, "Fig. 5: Area for Datapath I4C8S4").unwrap();
    writeln!(out, "{cluster}").unwrap();
    writeln!(out, "{area}").unwrap();
    writeln!(
        out,
        "global interconnect share: {:.1}%",
        area.interconnect_fraction() * 100.0
    )
    .unwrap();
    out
}

/// The header rows of Table 1: relative clock and area per model.
pub fn table_header(machines: &[MachineConfig]) -> String {
    let base = models::i4c8s4();
    let model = CycleTimeModel::new();
    let base_clock = model.estimate(&base.datapath_spec());
    let mut out = String::new();
    write!(out, "{:<34}", "Datapath Model").unwrap();
    for m in machines {
        write!(out, " | {:>10}", m.name).unwrap();
    }
    writeln!(out).unwrap();
    write!(out, "{:<34}", "Estimated Relative Clock Speed").unwrap();
    for m in machines {
        let rel = model.estimate(&m.datapath_spec()).relative_to(&base_clock);
        write!(out, " | {rel:>10.2}").unwrap();
    }
    writeln!(out).unwrap();
    write!(out, "{:<34}", "Estimated Area").unwrap();
    for m in machines {
        let a = m.datapath_spec().datapath_area().total_mm2();
        write!(out, " | {:>7.1}mm2", a).unwrap();
    }
    writeln!(out).unwrap();
    out
}

fn render_table(machines: &[MachineConfig], rows: &[TableRow]) -> String {
    let mut out = table_header(machines);
    let mut current: Option<KernelId> = None;
    for row in rows {
        if current != Some(row.kernel) {
            writeln!(out, "{}", row.kernel.title()).unwrap();
            current = Some(row.kernel);
        }
        write!(out, "  {:<32}", row.variant).unwrap();
        for c in &row.cycles {
            write!(out, " | {:>10}", fmt_cycles(*c)).unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Table 1: performance simulations for all six kernels on the five base
/// models (serial reference path).
pub fn table1() -> String {
    let machines = models::table1_models();
    let rows = assemble_table(&machines, table1_rows).unwrap_or_else(|e| panic!("{e}"));
    format!(
        "Table 1: Performance Simulations (cycles per 720x480 frame)\n{}",
        render_table(&machines, &rows)
    )
}

/// Table 2: impact of 16-bit multipliers on the DCT kernels (serial
/// reference path).
pub fn table2() -> String {
    let machines = models::table2_models();
    let rows = assemble_table(&machines, table2_rows).unwrap_or_else(|e| panic!("{e}"));
    format!(
        "Table 2: Impact of 16-bit Multipliers\n{}",
        render_table(&machines, &rows)
    )
}

/// Table 1 via a shared [`crate::EvalEngine`] (parallel + memoized);
/// byte-identical output to [`table1`].
pub fn table1_with(engine: &crate::EvalEngine) -> String {
    let machines = models::table1_models();
    let rows = engine.table1(&machines).unwrap_or_else(|e| panic!("{e}"));
    format!(
        "Table 1: Performance Simulations (cycles per 720x480 frame)\n{}",
        render_table(&machines, &rows)
    )
}

/// Table 2 via a shared [`crate::EvalEngine`]; byte-identical output to
/// [`table2`].
pub fn table2_with(engine: &crate::EvalEngine) -> String {
    let machines = models::table2_models();
    let rows = engine.table2(&machines).unwrap_or_else(|e| panic!("{e}"));
    format!(
        "Table 2: Impact of 16-bit Multipliers\n{}",
        render_table(&machines, &rows)
    )
}

/// §3.4.1 ablation: dual-ported data memories on the I4C8 datapath.
pub fn ablation_dualport() -> String {
    let base = models::i4c8s4();
    let dual = models::i4c8s4_dualport();
    let narrow = models::i2c16s4();
    let mut out = String::new();
    writeln!(
        out,
        "Ablation: two load/store units + dual-ported memory on I4C8S4 (paper 3.4.1)"
    )
    .unwrap();
    for (label, m) in [("I4C8S4", &base), ("I4C8S4D2", &dual), ("I2C16S4", &narrow)] {
        let rows = vsp_kernels::variants::full_search_rows(m).unwrap_or_else(|e| panic!("{e}"));
        let swp = rows
            .iter()
            .find(|r| r.variant == "SW pipelined & unrolled")
            .unwrap()
            .cycles;
        let blocked = rows
            .iter()
            .find(|r| r.variant == "Blocking/Loop Exchange")
            .unwrap()
            .cycles;
        let area = m.datapath_spec().datapath_area().total_mm2();
        writeln!(
            out,
            "  {label:<10} SW-pipelined {:>9}  blocked {:>9}  area {:>7.1}mm2",
            fmt_cycles(swp),
            fmt_cycles(blocked),
            area
        )
        .unwrap();
    }
    writeln!(
        out,
        "(dual porting matches the 16-cluster models where loads bind, and the\n benefit disappears under blocking — hence the paper drops it)"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_render() {
        for text in [fig2(), fig3(), fig4(), fig5()] {
            assert!(text.lines().count() >= 4, "{text}");
        }
        assert!(fig5().contains("I4C8S4"));
    }

    #[test]
    fn header_contains_all_models() {
        let machines = models::table1_models();
        let h = table_header(&machines);
        for m in &machines {
            assert!(h.contains(&m.name), "{h}");
        }
    }

    #[test]
    fn cycle_format_matches_paper_style() {
        assert_eq!(fmt_cycles(25_700_000), "25.70M");
        assert_eq!(fmt_cycles(815_700_000), "815.70M");
    }

    #[test]
    fn dualport_ablation_renders() {
        let t = ablation_dualport();
        assert!(t.contains("I4C8S4D2"));
    }

    #[test]
    fn engine_tables_are_byte_identical_to_serial() {
        let engine = crate::EvalEngine::new();
        assert_eq!(table1_with(&engine), table1());
        assert_eq!(table2_with(&engine), table2());
    }
}
