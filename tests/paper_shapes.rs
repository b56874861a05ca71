//! Cross-crate assertions on the *shape* of the paper's results: who
//! wins, by roughly what factor, and where the crossovers fall. These are
//! the claims §3.4 and §4 make in prose, checked against our recomputed
//! tables.

use vsp::core::models;
use vsp::kernels::variants::{self, KernelId, Row, RowError};
use vsp::vlsi::clock::CycleTimeModel;

fn find(rows: &[Row], variant: &str) -> u64 {
    rows.iter()
        .find(|r| r.variant == variant)
        .unwrap_or_else(|| panic!("missing {variant}"))
        .cycles
}

fn best(rows: &[Row], kernel: KernelId) -> u64 {
    rows.iter()
        .filter(|r| r.kernel == kernel)
        .map(|r| r.cycles)
        .min()
        .unwrap()
}

#[test]
fn headline_small_clusters_beat_the_initial_design() {
    // §4: "The combined performance improvement ranges from 17% to 129%
    // faster than the initial I4C8S4 model."
    let base = models::i4c8s4();
    let base_clock = CycleTimeModel::new().estimate(&base.datapath_spec());
    let base_rows = variants::table1_rows(&base).unwrap();

    let mut improvements = Vec::new();
    for kernel in [
        KernelId::FullSearch,
        KernelId::ThreeStep,
        KernelId::DctDirect,
        KernelId::DctRowCol,
        KernelId::Color,
        KernelId::Vbr,
    ] {
        let base_time = best(&base_rows, kernel) as f64 / 1.0;
        let mut best_small = f64::INFINITY;
        for m in [models::i2c16s4(), models::i2c16s5()] {
            let rel = CycleTimeModel::new()
                .estimate(&m.datapath_spec())
                .relative_to(&base_clock);
            let rows = variants::table1_rows(&m).unwrap();
            best_small = best_small.min(best(&rows, kernel) as f64 / rel);
        }
        improvements.push((kernel, base_time / best_small));
    }
    // Most kernels must improve; the improvement band should overlap the
    // paper's 1.17x..2.29x.
    let wins = improvements.iter().filter(|(_, x)| *x > 1.05).count();
    assert!(wins >= 4, "{improvements:?}");
    let max = improvements.iter().map(|(_, x)| *x).fold(0.0, f64::max);
    assert!((1.3..3.5).contains(&max), "best improvement {max:.2}");
}

#[test]
fn load_bandwidth_is_the_i4c8_bottleneck_until_blocking() {
    // §3.4.1: the I4C8 models are load-limited in the software-pipelined
    // schedules; blocking "eliminates the differences among datapath
    // models".
    let wide = variants::full_search_rows(&models::i4c8s4()).unwrap();
    let dual = variants::full_search_rows(&models::i4c8s4_dualport()).unwrap();
    let swp_wide = find(&wide, "SW pipelined & unrolled");
    let swp_dual = find(&dual, "SW pipelined & unrolled");
    assert!(
        swp_dual < swp_wide,
        "dual-ported memory relieves the load limit: {swp_dual} vs {swp_wide}"
    );
    // "the benefit disappears when the most aggressive scheduling
    // mechanisms are used":
    let blocked_wide = find(&wide, "Blocking/Loop Exchange");
    let blocked_dual = find(&dual, "Blocking/Loop Exchange");
    let gain = blocked_wide as f64 / blocked_dual as f64;
    assert!(gain < 1.1, "blocking erases the dual-port gain: {gain:.2}");
}

#[test]
fn m16_multipliers_give_3x_to_5x_on_dct() {
    // Table 2 / §3.4.3: "The 16-bit multipliers improve DCT performance
    // by 3x-5x. Performance of the other tested algorithms is not
    // significantly affected."
    let base = models::i4c8s5();
    let m16 = models::i4c8s5m16();
    for rows_fn in [
        variants::dct_rowcol_rows as fn(&_) -> Result<Vec<Row>, RowError>,
        variants::dct_direct_rows as fn(&_) -> Result<Vec<Row>, RowError>,
    ] {
        let b = rows_fn(&base).unwrap();
        let m = rows_fn(&m16).unwrap();
        let kernel = b[0].kernel;
        // Like-for-like, as Table 2 reports it: the full-precision
        // software-pipelined schedule.
        let gain = find(&b, "SW pipelined & predicated") as f64
            / find(&m, "SW pipelined & predicated") as f64;
        // The row/column form is multiply-bound and shows the full gain;
        // the traditional form also pays table loads per term, which the
        // wide multiplier cannot remove.
        let floor = if kernel == KernelId::DctRowCol {
            2.2
        } else {
            1.8
        };
        assert!(
            (floor..8.0).contains(&gain),
            "{kernel:?}: M16 gain {gain:.1} (paper 3x-5x)"
        );
        // Best-to-best (the base machine's arithmetic optimization closes
        // part of the gap, as §3.4.3 notes): still a clear win.
        let best_gain = best(&b, kernel) as f64 / best(&m, kernel) as f64;
        assert!(best_gain > 1.4, "{kernel:?}: best-to-best {best_gain:.1}");
    }
    // Motion search is unaffected by the multiplier width.
    let ms_base = best(
        &variants::full_search_rows(&base).unwrap(),
        KernelId::FullSearch,
    );
    let ms_m16 = best(
        &variants::full_search_rows(&m16).unwrap(),
        KernelId::FullSearch,
    );
    assert_eq!(ms_base, ms_m16);
}

#[test]
fn no_single_resource_limits_a_majority_of_kernels() {
    // §4: "No single resource limited the performance of a majority of
    // the examples indicating a relatively balanced design". Probe by
    // relieving one resource at a time on I4C8S4 and checking that each
    // relief helps at most a minority of kernels.
    let base_rows = variants::table1_rows(&models::i4c8s4()).unwrap();
    let dual_rows = variants::table1_rows(&models::i4c8s4_dualport()).unwrap();
    let kernels = [
        KernelId::FullSearch,
        KernelId::ThreeStep,
        KernelId::DctDirect,
        KernelId::DctRowCol,
        KernelId::Color,
        KernelId::Vbr,
    ];
    let load_limited = kernels
        .iter()
        .filter(|&&k| (best(&dual_rows, k) as f64) < best(&base_rows, k) as f64 * 0.95)
        .count();
    assert!(
        load_limited <= 3,
        "load bandwidth binds {load_limited}/6 kernels"
    );
}

#[test]
fn five_stage_load_use_delays_rarely_hurt() {
    // §4: "Load-use delays present in the models with 5-stage pipelines
    // rarely increased execution time." Compare I4C8S4C (4-stage,
    // complex addressing) with I4C8S5 (5-stage, complex addressing):
    // cycle counts should be within a few percent on the best schedules.
    let c4 = variants::table1_rows(&models::i4c8s4c()).unwrap();
    let c5 = variants::table1_rows(&models::i4c8s5()).unwrap();
    for kernel in [KernelId::FullSearch, KernelId::DctRowCol, KernelId::Color] {
        let a = best(&c4, kernel) as f64;
        let b = best(&c5, kernel) as f64;
        assert!(
            b / a < 1.10,
            "{kernel:?}: 5-stage costs {:.1}% cycles",
            (b / a - 1.0) * 100.0
        );
    }
}

#[test]
fn complex_addressing_helps_little_on_optimized_code() {
    // §4: "Complex addressing modes improved performance on several
    // examples but only minimally on the most highly optimized code."
    let simple = variants::full_search_rows(&models::i4c8s4()).unwrap();
    let complex = variants::full_search_rows(&models::i4c8s5()).unwrap();
    // Unoptimized: clear win.
    let u_gain =
        find(&simple, "Unrolled Inner Loop") as f64 / find(&complex, "Unrolled Inner Loop") as f64;
    assert!(u_gain > 1.2, "unrolled sequential gain {u_gain:.2}");
    // Most optimized (blocked): nearly nothing.
    let b_gain = find(&simple, "Blocking/Loop Exchange") as f64
        / find(&complex, "Blocking/Loop Exchange") as f64;
    assert!(b_gain < 1.15, "blocked gain {b_gain:.2}");
}

#[test]
fn relative_clock_and_area_columns_match_paper() {
    // Table 1 header: clocks (1.0, 0.6, 0.95, 1.3, 1.3) and areas
    // (181.4, 181.4, 183.5, 180, 217 mm²).
    let machines = models::table1_models();
    let base = CycleTimeModel::new().estimate(&machines[0].datapath_spec());
    let clocks = [1.0, 0.6, 0.95, 1.3, 1.3];
    let areas = [181.4, 181.4, 183.5, 180.0, 217.0];
    for ((m, c), a) in machines.iter().zip(clocks).zip(areas) {
        let rel = CycleTimeModel::new()
            .estimate(&m.datapath_spec())
            .relative_to(&base);
        assert!((rel - c).abs() < 0.07, "{}: clock {rel:.2} vs {c}", m.name);
        let area = m.datapath_spec().datapath_area().total_mm2();
        assert!((area - a).abs() / a < 0.025, "{}: {area:.1} vs {a}", m.name);
    }
}

#[test]
fn working_sets_never_exceed_4kb() {
    // §4: "The working set for these typical VSP algorithms never
    // exceeded 4K bytes/cluster thus an 8K byte memory would suffice".
    use vsp::kernels::ir::*;
    let kernels = [
        sad_16x16_kernel().kernel,
        sad_blocked_group_kernel(8).kernel,
        dct1d_kernel(true).kernel,
        dct1d_kernel(false).kernel,
        dct_direct_mac_kernel().kernel,
        color_quad_kernel(8).kernel,
        vbr_block_kernel().kernel,
    ];
    for k in kernels {
        assert!(
            k.working_set_words() * 2 <= 4096,
            "{}: {} bytes",
            k.name,
            k.working_set_words() * 2
        );
    }
}

#[test]
fn dct_direct_to_rowcol_factor() {
    // Table 1: 703.1M vs 135.0M sequential (5.2x); the parallel rows stay
    // in the 3x-6x band.
    for m in models::table1_models() {
        let d = variants::dct_direct_rows(&m).unwrap();
        let r = variants::dct_rowcol_rows(&m).unwrap();
        let ratio =
            find(&d, "Sequential-unoptimized") as f64 / find(&r, "Sequential-unoptimized") as f64;
        assert!((3.0..9.0).contains(&ratio), "{}: {ratio:.1}", m.name);
    }
}
