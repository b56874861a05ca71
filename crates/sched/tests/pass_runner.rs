//! Pins what the compile stages report after every pass: the ordered
//! pass records, the `PassComplete` events with their sequence numbers,
//! and the per-pass metric series. Three compiles, one per backend,
//! together run every `PassConfig` variant.

use vsp_core::models;
use vsp_ir::{Kernel, KernelBuilder};
use vsp_isa::{AluBinOp, CmpOp};
use vsp_metrics::Registry;
use vsp_sched::pipeline::{PassConfig, ScheduleScope, SchedulerChoice, Strategy};
use vsp_sched::{compile_with, CompileOptions};
use vsp_trace::{MemorySink, PipelinePass, TraceEvent};

/// A nested loop whose inner body holds a conditional, a repeated
/// subexpression, a loop-invariant sum, a multiply by a power of two and
/// a `scratch` chain nothing reads.
fn every_pass_kernel() -> Kernel {
    let mut b = KernelBuilder::new("every_pass");
    let a = b.array("a", 8);
    let out = b.array("out", 8);
    let acc = b.var("acc");
    let scratch = b.var("scratch");
    let k = b.var("k");
    b.set(k, 3);
    b.set(scratch, 0);
    b.count_loop("i", 0, 1, 8, |b, i| {
        b.set(acc, 0);
        b.count_loop("j", 0, 1, 8, |b, j| {
            let x = b.load("x", a, j);
            let inv = b.bin_new("inv", AluBinOp::Add, k, 5i16);
            let s1 = b.bin_new("s1", AluBinOp::Add, x, inv);
            let s2 = b.bin_new("s2", AluBinOp::Add, x, inv);
            let m = b.mul_new("m", s1, 4i16);
            let neg = b.cmp_new("neg", CmpOp::Lt, x, 0i16);
            b.if_else(
                neg,
                |b| {
                    b.bin(acc, AluBinOp::Sub, acc, m);
                },
                |b| {
                    b.bin(acc, AluBinOp::Add, acc, s2);
                },
            );
            b.bin(scratch, AluBinOp::Add, scratch, m);
        });
        b.store(out, i, acc);
    });
    b.finish()
}

fn strip_scratch() -> PassConfig {
    PassConfig::StripVars {
        vars: vec!["scratch".to_string()],
    }
}

/// The three recipes: a sequential, a list and a modulo backend.
fn recipes() -> [Strategy; 3] {
    [
        Strategy::new("seq", ScheduleScope::WholeBody, SchedulerChoice::Sequential)
            .then(PassConfig::Unroll { factor: Some(2) })
            .then(strip_scratch())
            .then(PassConfig::Licm),
        Strategy::new(
            "list",
            ScheduleScope::FirstLoop,
            SchedulerChoice::List { clusters_used: 1 },
        )
        .then(PassConfig::IfConvert)
        .then(PassConfig::Unroll { factor: None })
        .then(PassConfig::Cse)
        .then(PassConfig::StrengthReduce),
        Strategy::new(
            "swp",
            ScheduleScope::FirstLoop,
            SchedulerChoice::Modulo {
                clusters_used: 1,
                ii_search: 64,
            },
        )
        .then(PassConfig::IfConvert)
        .then(PassConfig::Unroll { factor: None })
        .then(PassConfig::Cse)
        .then(PassConfig::Licm)
        .then(PassConfig::StrengthReduce)
        .then(strip_scratch()),
    ]
}

type Record = (PipelinePass, usize, usize);

#[test]
fn pass_records_events_and_metrics_are_pinned() {
    use PipelinePass::*;
    let kernel = every_pass_kernel();
    let machine = models::i4c8s4();
    let mut registry = Registry::new();
    let expected: [&[Record]; 3] = [
        &[
            (Unroll, 27, 0),
            (StripVars, 24, 0),
            (Licm, 24, 0),
            (Schedule, 24, 0),
        ],
        &[
            (IfConvert, 15, 0),
            (FullUnroll, 77, 0),
            (Cse, 77, 0),
            (StrengthReduce, 77, 0),
            (Lower, 77, 77),
            (Schedule, 77, 77),
        ],
        &[
            (IfConvert, 15, 0),
            (FullUnroll, 77, 0),
            (Cse, 77, 0),
            (Licm, 77, 0),
            (StrengthReduce, 77, 0),
            (StripVars, 68, 0),
            (Lower, 68, 61),
            (Schedule, 68, 61),
        ],
    ];
    for (strategy, want) in recipes().iter().zip(expected) {
        let mut sink = MemorySink::new();
        let mut options = CompileOptions {
            sink: Some(&mut sink),
            validator: None,
            recorder: Some(&mut registry),
        };
        let result = compile_with(&kernel, &machine, strategy, &mut options).unwrap();
        let records: Vec<Record> = result
            .report
            .passes
            .iter()
            .map(|p| (p.kind, p.stmts, p.vops))
            .collect();
        let events: Vec<(u32, Record)> = sink
            .events()
            .filter_map(|e| match *e {
                TraceEvent::PassComplete {
                    seq,
                    pass,
                    stmts,
                    vops,
                } => Some((seq, (pass, stmts as usize, vops as usize))),
                _ => None,
            })
            .collect();
        assert_eq!(records, want, "{}", strategy.name);
        let numbered: Vec<(u32, Record)> = (0..).zip(records.iter().copied()).collect();
        assert_eq!(events, numbered, "{}", strategy.name);
    }
    // Per pass: runs over the three compiles, then the last compile's
    // statement and vop deltas.
    let series: [(PipelinePass, u64, f64, f64); 9] = [
        (Unroll, 1, 11.0, 0.0),
        (FullUnroll, 2, 62.0, 0.0),
        (IfConvert, 2, -1.0, 0.0),
        (Cse, 2, 0.0, 0.0),
        (Licm, 2, 0.0, 0.0),
        (StrengthReduce, 2, 0.0, 0.0),
        (StripVars, 2, -9.0, 0.0),
        (Lower, 2, 0.0, 61.0),
        (Schedule, 3, 0.0, 0.0),
    ];
    let snap = registry.snapshot();
    for (pass, runs, stmts_delta, vops_delta) in series {
        let labels = [("pass", pass.name())];
        let name = pass.name();
        assert_eq!(
            snap.counter("vsp_sched_passes_total", &labels),
            Some(runs),
            "{name}"
        );
        assert_eq!(
            snap.histogram("vsp_sched_pass_micros", &labels)
                .map(|h| h.count),
            Some(runs),
            "{name}"
        );
        assert_eq!(
            snap.gauge("vsp_sched_pass_stmts_delta", &labels),
            Some(stmts_delta),
            "{name}"
        );
        assert_eq!(
            snap.gauge("vsp_sched_pass_vops_delta", &labels),
            Some(vops_delta),
            "{name}"
        );
    }
}
