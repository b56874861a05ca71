//! The quantified conclusions of §4, recomputed.

use vsp_core::{models, MachineConfig};
use vsp_kernels::frame::FRAME_RATE_HZ;
use vsp_kernels::variants::{table1_rows, KernelId, Row};
use vsp_vlsi::clock::CycleTimeModel;

/// Recomputed §4 headline numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Conclusions {
    /// Fraction of compute time a real-time full-motion search needs on
    /// each Table 1 machine (paper: 33%–46%).
    pub full_search_compute_share: Vec<(String, f64)>,
    /// Sustained GOPS of the best full-search schedule per machine
    /// (paper: "exceeding 15 GOPS sustained ... for large periods").
    pub sustained_gops: Vec<(String, f64)>,
    /// Combined (cycles ÷ clock) improvement of the small-cluster
    /// machines over I4C8S4, per kernel's best schedule (paper: "ranges
    /// from 17% to 129%").
    pub small_cluster_speedup_percent: Vec<(String, f64)>,
    /// Crossbar share of the datapath area (paper: "about 3%").
    pub interconnect_area_percent: f64,
}

fn best_cycles(rows: &[Row], kernel: KernelId) -> u64 {
    rows.iter()
        .filter(|r| r.kernel == kernel)
        .map(|r| r.cycles)
        .min()
        .expect("kernel rows present")
}

fn clock_hz(machine: &MachineConfig) -> f64 {
    CycleTimeModel::new()
        .estimate(&machine.datapath_spec())
        .freq_mhz()
        * 1e6
}

/// Computes the conclusions across the Table 1 machines.
pub fn compute() -> Conclusions {
    let machines = models::table1_models();
    let per_machine: Vec<(MachineConfig, Vec<Row>)> = machines
        .into_iter()
        .map(|m| {
            let rows = table1_rows(&m).unwrap_or_else(|e| panic!("{e}"));
            (m, rows)
        })
        .collect();

    let full_search_compute_share = per_machine
        .iter()
        .map(|(m, rows)| {
            let cycles = best_cycles(rows, KernelId::FullSearch) as f64;
            let share = cycles * FRAME_RATE_HZ / clock_hz(m);
            (m.name.clone(), share)
        })
        .collect();

    // Sustained GOPS during the blocked full search: operations per frame
    // (3 datapath ops per pixel-position, plus streamed loads) over the
    // schedule's cycles, times the clock.
    let pixel_positions = 99_878_400f64;
    let sustained_gops = per_machine
        .iter()
        .map(|(m, rows)| {
            let cycles = best_cycles(rows, KernelId::FullSearch) as f64;
            let ops = pixel_positions * 3.25;
            let gops = ops / cycles * clock_hz(m) / 1e9;
            (m.name.clone(), gops)
        })
        .collect();

    // Combined improvement (cycles ÷ relative clock) of the faster
    // 16-cluster machines over the initial design, per kernel.
    let base = &per_machine[0];
    let base_clock = clock_hz(&base.0);
    let small_cluster_speedup_percent = [
        KernelId::FullSearch,
        KernelId::ThreeStep,
        KernelId::DctDirect,
        KernelId::DctRowCol,
        KernelId::Color,
        KernelId::Vbr,
    ]
    .into_iter()
    .map(|k| {
        let base_time = best_cycles(&base.1, k) as f64 / base_clock;
        let best_small = per_machine
            .iter()
            .filter(|(m, _)| m.clusters == 16)
            .map(|(m, rows)| best_cycles(rows, k) as f64 / clock_hz(m))
            .fold(f64::INFINITY, f64::min);
        let name = format!("{k:?}");
        (name, (base_time / best_small - 1.0) * 100.0)
    })
    .collect();

    let spec = models::i4c8s4().datapath_spec();
    let interconnect_area_percent = spec.datapath_area().interconnect_fraction() * 100.0;

    Conclusions {
        full_search_compute_share,
        sustained_gops,
        small_cluster_speedup_percent,
        interconnect_area_percent,
    }
}

impl std::fmt::Display for Conclusions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Conclusions (paper section 4, recomputed):")?;
        writeln!(
            f,
            "real-time full-motion-search compute share (paper 33%-46%):"
        )?;
        for (m, s) in &self.full_search_compute_share {
            writeln!(f, "  {m:<10} {:.0}%", s * 100.0)?;
        }
        writeln!(f, "sustained GOPS in the blocked search (paper >15):")?;
        for (m, g) in &self.sustained_gops {
            writeln!(f, "  {m:<10} {g:.1}")?;
        }
        writeln!(
            f,
            "small-cluster combined speedup over I4C8S4 (paper 17%-129%):"
        )?;
        for (k, p) in &self.small_cluster_speedup_percent {
            writeln!(f, "  {k:<12} {p:+.0}%")?;
        }
        writeln!(
            f,
            "global interconnect share of datapath area (paper ~3%): {:.1}%",
            self.interconnect_area_percent
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_time_full_search_is_feasible() {
        let c = compute();
        for (m, share) in &c.full_search_compute_share {
            assert!(
                (0.15..0.70).contains(share),
                "{m}: {share} — the paper band is 0.33..0.46"
            );
        }
    }

    #[test]
    fn sustained_gops_exceed_15_on_some_machine() {
        let c = compute();
        let best = c
            .sustained_gops
            .iter()
            .map(|(_, g)| *g)
            .fold(0.0f64, f64::max);
        assert!(best > 15.0, "got {best}");
    }

    #[test]
    fn small_clusters_win_overall() {
        // The paper's headline: 17%–129% combined improvement. Allow a
        // wider band but require a win on most kernels and no
        // catastrophic loss.
        let c = compute();
        let wins = c
            .small_cluster_speedup_percent
            .iter()
            .filter(|(_, p)| *p > 5.0)
            .count();
        assert!(wins >= 4, "{:?}", c.small_cluster_speedup_percent);
        for (k, p) in &c.small_cluster_speedup_percent {
            assert!(*p > -20.0, "{k}: {p}%");
        }
    }

    #[test]
    fn interconnect_is_about_3_percent() {
        let c = compute();
        assert!((2.0..8.0).contains(&c.interconnect_area_percent));
    }

    #[test]
    fn display_renders() {
        let text = compute().to_string();
        assert!(text.contains("GOPS"));
        assert!(text.contains("interconnect"));
    }
}
