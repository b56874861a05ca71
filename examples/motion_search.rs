//! Motion estimation end to end: run the golden full search and
//! three-step search on a synthetic frame pair, then reproduce the
//! Table 1 full-motion-search column for every datapath model.
//!
//! ```text
//! cargo run --release --example motion_search
//! ```

use vsp::core::models;
use vsp::kernels::golden::motion::{full_search, three_step_search};
use vsp::kernels::variants::full_search_rows;
use vsp::kernels::workload::shifted_frame_pair;

fn main() {
    // Golden algorithms on a synthetic pair with known motion (5, -3).
    let (width, height) = (128usize, 96usize);
    let (cur, reference) = shifted_frame_pair(width, height, 5, -3, 2024);
    let mut agree = 0;
    let mut total = 0;
    for by in (16..height - 32).step_by(16) {
        for bx in (16..width - 32).step_by(16) {
            let f = full_search(&cur, &reference, width, height, bx, by, 8);
            let t = three_step_search(&cur, &reference, width, height, bx, by, 8);
            total += 1;
            if (f.dx, f.dy) == (t.dx, t.dy) {
                agree += 1;
            }
            assert_eq!((f.dx, f.dy), (5, -3), "full search recovers the shift");
        }
    }
    println!("full search recovered (5,-3) on all {total} blocks; three-step agreed on {agree}");

    // The Table 1 column: cycles per 720x480 frame on each machine.
    println!("\nFull Motion Search, cycles per frame (Table 1 column):");
    for machine in models::table1_models() {
        println!("  {}:", machine.name);
        for row in full_search_rows(&machine).expect("paper models compile") {
            println!("    {:<36} {:>8.2}M", row.variant, row.cycles as f64 / 1e6);
        }
    }

    // The §4 conclusion: real-time headroom at 30 frames/second.
    let machine = models::i4c8s4();
    let best = full_search_rows(&machine)
        .expect("paper models compile")
        .iter()
        .map(|r| r.cycles)
        .min()
        .unwrap();
    let clock = vsp::vlsi::clock::CycleTimeModel::new()
        .estimate(&machine.datapath_spec())
        .freq_mhz()
        * 1e6;
    println!(
        "\nreal-time full search on {} uses {:.0}% of compute (paper: 33%-46%)",
        machine.name,
        best as f64 * 30.0 / clock * 100.0
    );
}
