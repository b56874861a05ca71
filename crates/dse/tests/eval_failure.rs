//! A grid point whose Table 1 recipes cannot compile is an evaluation
//! failure, reported as a value: its rows return a `RowError`, the
//! search counts the point, and nothing panics. This binary holds one
//! test, so the panic hook it installs sees only this test's threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vsp_core::MachineParams;
use vsp_dse::{search, SearchConfig};
use vsp_kernels::variants::{table1_rows, KernelId};
use vsp_sched::{LowerError, SchedError};
use vsp_vlsi::feasibility::FeasibilityEnvelope;

#[test]
fn a_machine_whose_recipes_cannot_compile_is_a_counted_failure() {
    let panics = Arc::new(AtomicUsize::new(0));
    let heard = Arc::clone(&panics);
    std::panic::set_hook(Box::new(move |_| {
        heard.fetch_add(1, Ordering::Relaxed);
    }));

    // The SAD kernels' arrays overflow 256-word banks, so the Table 1
    // recipes fail on this machine, which the memory floor would
    // otherwise prune before evaluation.
    let mut tiny = MachineParams::baseline(4, 8, 4, 64);
    tiny.bank_words = 256;
    let machine = tiny.build();
    let err = table1_rows(&machine).expect_err("SAD arrays cannot fit 256-word banks");
    assert_eq!(err.kernel, KernelId::FullSearch);
    assert_eq!(err.recipe, "sequential");
    assert_eq!(err.machine, machine.name);
    assert!(
        matches!(
            err.error,
            SchedError::Lower(LowerError::ArraysDoNotFit { .. })
        ),
        "{err}"
    );

    let config = SearchConfig {
        envelope: FeasibilityEnvelope {
            min_total_mem_bytes: 0,
            ..FeasibilityEnvelope::default()
        },
        ..SearchConfig::default()
    };
    let report = search(&[tiny], &config);
    assert_eq!((report.feasible, report.eval_failures), (1, 1));
    assert_eq!(panics.load(Ordering::Relaxed), 0, "a panic hook was called");
}
