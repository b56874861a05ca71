//! The design search keeps quiet only the panics it confines.
//!
//! A grid point whose Table 1 recipes fail is counted as an evaluation
//! failure, and its panic is caught without a message. Every other
//! panic, on any thread and at any time, still reaches the process's
//! panic hook: one that escapes a parallel map, one raised on another
//! thread while a search runs, and any raised after it. This binary
//! holds one test, so nothing else touches the hook.

use std::sync::{Arc, Mutex};
use vsp_core::MachineParams;
use vsp_dse::{par_map, search, space, SearchConfig};
use vsp_kernels::variants::compile_counts;
use vsp_vlsi::feasibility::FeasibilityEnvelope;

#[test]
fn only_confined_panics_are_silenced() {
    let heard: Arc<Mutex<Vec<String>>> = Arc::default();
    let sink = Arc::clone(&heard);
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_default();
        eprintln!("panic hook: {message}");
        sink.lock().unwrap().push(message);
    }));
    let heard = || std::mem::take(&mut *heard.lock().unwrap());

    // The SAD kernels' arrays overflow 256-word banks, so the Table 1
    // recipes fail on this machine, which the memory floor would
    // otherwise prune before evaluation.
    let mut tiny = MachineParams::baseline(4, 8, 4, 64);
    tiny.bank_words = 256;
    let config = SearchConfig {
        envelope: FeasibilityEnvelope {
            min_total_mem_bytes: 0,
            ..FeasibilityEnvelope::default()
        },
        ..SearchConfig::default()
    };
    let report = search(&[tiny], &config);
    assert_eq!((report.feasible, report.eval_failures), (1, 1));
    assert_eq!(heard(), Vec::<String>::new(), "a confined panic was heard");

    // A panic that escapes a parallel map is heard once, on its way out.
    let escaped = std::panic::catch_unwind(|| {
        par_map(
            (0..4).collect(),
            || (),
            |(), i: u32| {
                if i == 2 {
                    panic!("escaped item {i}");
                }
            },
        )
    });
    assert!(escaped.is_err());
    assert_eq!(heard(), ["escaped item 2"]);

    // Another thread's panic while a search evaluates the smoke grid's
    // survivors is heard, and so is a later one. The panic is raised
    // once the search has compiled something, which it does only while
    // it evaluates survivors (most of its run).
    let compiled = compile_counts().schedules;
    std::thread::scope(|s| {
        s.spawn(|| search(&space::smoke(), &SearchConfig::default()));
        while compile_counts().schedules == compiled {
            std::thread::yield_now();
        }
        let raised = std::thread::spawn(|| panic!("beside the search")).join();
        assert!(raised.is_err());
    });
    assert!(std::thread::spawn(|| panic!("after the search"))
        .join()
        .is_err());
    assert_eq!(heard(), ["beside the search", "after the search"]);
}
