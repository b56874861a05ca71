//! Trace a kernel × model run: schedule it (logging scheduler
//! decisions), simulate it (logging per-cycle events), print a
//! human-readable utilization report, and optionally dump the event
//! stream as JSON-Lines or a Chrome `trace_event` file loadable in
//! Perfetto (<https://ui.perfetto.dev>).
//!
//! ```text
//! cargo run --release -p vsp-bench --bin trace -- \
//!     --model I4C8S4 --kernel sad --out sad.trace.json
//! ```

use std::process::ExitCode;
use vsp_core::{models, MachineConfig};
use vsp_kernels::ir::{dct1d_kernel, sad_16x16_kernel};
use vsp_sched::pipeline::{PassConfig, ScheduleScope, SchedulerChoice};
use vsp_sched::{
    codegen_loop, compile_with, modulo_schedule_traced, CompileOptions, LoopControl,
    ScheduleArtifact, Strategy,
};
use vsp_sim::Simulator;
use vsp_trace::{
    ChromeTraceSink, JsonLinesSink, MachineShape, MemorySink, TraceEvent, TraceSink,
    UtilizationTimeline,
};

const USAGE: &str = "usage: trace [options]

Trace one kernel on one machine model: scheduler decision log,
per-cycle simulation events, and a utilization report.

options:
  --model NAME     machine model (default I4C8S4; see `tables models`)
  --kernel NAME    sad | dct-row | dct-col (default sad)
  --out PATH       write the event stream to PATH; format from extension
                   (.jsonl -> JSON-Lines, anything else -> Chrome
                   trace_event JSON for Perfetto) unless --sink is given
  --sink KIND      chrome | jsonl (overrides the extension heuristic)
  --bucket N       cycles per bucket in the timeline strip (default 16)
  --max-cycles N   simulation budget (default 1000000)
  -h, --help       this text";

struct Args {
    model: String,
    kernel: String,
    out: Option<String>,
    sink: Option<String>,
    bucket: u64,
    max_cycles: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        model: "I4C8S4".to_string(),
        kernel: "sad".to_string(),
        out: None,
        sink: None,
        bucket: 16,
        max_cycles: 1_000_000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--model" => args.model = value("--model")?,
            "--kernel" => args.kernel = value("--kernel")?,
            "--out" => args.out = Some(value("--out")?),
            "--sink" => args.sink = Some(value("--sink")?),
            "--bucket" => {
                args.bucket = value("--bucket")?
                    .parse()
                    .map_err(|e| format!("--bucket: {e}"))?
            }
            "--max-cycles" => {
                args.max_cycles = value("--max-cycles")?
                    .parse()
                    .map_err(|e| format!("--max-cycles: {e}"))?
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.bucket == 0 {
        return Err("--bucket must be positive".into());
    }
    if let Some(kind) = &args.sink {
        if kind != "chrome" && kind != "jsonl" {
            return Err(format!("unknown sink kind {kind} (want chrome | jsonl)"));
        }
    }
    Ok(args)
}

/// A kernel selected for tracing plus the loop control of the counted
/// loop that remains after the strategy's unroll+CSE passes run.
fn build_kernel(name: &str) -> Result<(vsp_ir::Kernel, LoopControl), String> {
    let (k, trip) = match name {
        "sad" => (sad_16x16_kernel().kernel, 16),
        "dct-row" => (dct1d_kernel(true).kernel, 8),
        "dct-col" => (dct1d_kernel(false).kernel, 8),
        other => {
            return Err(format!(
                "unknown kernel {other} (want sad | dct-row | dct-col)"
            ))
        }
    };
    Ok((
        k,
        LoopControl {
            trip,
            index: Some((0, 0, 1)),
        },
    ))
}

/// The trace driver's recipe: unroll + CSE, then list-schedule the
/// surviving loop (the list schedule drives code generation).
fn trace_strategy() -> Strategy {
    Strategy::new(
        "trace/list",
        ScheduleScope::FirstLoop,
        SchedulerChoice::List { clusters_used: 1 },
    )
    .then(PassConfig::Unroll { factor: None })
    .then(PassConfig::Cse)
    .for_codegen()
}

fn shape_of(machine: &MachineConfig) -> MachineShape {
    let mut class_capacity = [0u32; 6];
    for class in vsp_isa::FuClass::ALL {
        class_capacity[vsp_trace::class_index(class)] =
            machine.cluster.slots_for(class).count() as u32;
    }
    // The branch slot is a dedicated extra slot outside the regular
    // datapath slots, so it never appears in `slots_for`.
    let branch = vsp_trace::class_index(vsp_isa::FuClass::Branch);
    class_capacity[branch] = class_capacity[branch].max(1);
    MachineShape {
        clusters: machine.clusters,
        slots_per_cluster: machine.cluster.slot_count(),
        class_capacity,
    }
}

fn write_out(path: &str, kind: Option<&str>, events: &MemorySink) -> Result<String, String> {
    let kind = match kind {
        Some(k) => k.to_string(),
        None if path.ends_with(".jsonl") => "jsonl".to_string(),
        None => "chrome".to_string(),
    };
    match kind.as_str() {
        "jsonl" => {
            let mut sink =
                JsonLinesSink::create(path).map_err(|e| format!("create {path}: {e}"))?;
            for e in events.events() {
                sink.emit(*e);
            }
            sink.flush().map_err(|e| format!("write {path}: {e}"))?;
            Ok(format!(
                "wrote {} JSON-Lines events to {path}",
                events.len()
            ))
        }
        "chrome" => {
            let mut sink =
                ChromeTraceSink::create(path).map_err(|e| format!("create {path}: {e}"))?;
            for e in events.events() {
                sink.emit(*e);
            }
            sink.finish().map_err(|e| format!("write {path}: {e}"))?;
            Ok(format!(
                "wrote Chrome trace to {path} ({} events; open in https://ui.perfetto.dev)",
                events.len()
            ))
        }
        other => Err(format!("unknown sink kind {other} (want chrome | jsonl)")),
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let machine =
        models::by_name(&args.model).ok_or_else(|| format!("unknown model {}", args.model))?;
    let (kernel, ctl) = build_kernel(&args.kernel)?;

    let mut events = MemorySink::with_capacity(1 << 22);

    // One strategy-driven compile: IR passes, lowering and the list
    // schedule all log their decisions into the sink; the modulo
    // scheduler runs alongside on the same lowered body for its
    // II-search log.
    let mut options = CompileOptions {
        sink: Some(&mut events),
        ..Default::default()
    };
    let result = compile_with(&kernel, &machine, &trace_strategy(), &mut options)
        .map_err(|e| format!("compile: {e}"))?;
    let ScheduleArtifact::List(sched) = &result.schedule else {
        return Err("trace strategy uses the list backend".into());
    };
    let (body, deps) = (
        result.lowered.as_ref().expect("list backend lowers"),
        result.deps.as_ref().expect("list backend lowers"),
    );
    let modulo = modulo_schedule_traced(&machine, body, deps, 1, 16, &mut events);

    let generated = codegen_loop(&machine, body, sched, Some(ctl), machine.clusters, "traced")
        .map_err(|e| format!("codegen: {e:?}"))?;
    let sched_events = events.total();

    let mut sim = Simulator::with_sink(&machine, &generated.program, &mut events)
        .map_err(|e| format!("simulator: {e}"))?;
    let stats = sim.run(args.max_cycles).map_err(|e| format!("run: {e}"))?;
    drop(sim);

    println!(
        "model {} | kernel {} | {} lowered ops | list schedule length {}{}",
        machine.name,
        args.kernel,
        body.ops.len(),
        sched.length,
        match &modulo {
            Some(m) => format!(" | modulo II {} ({} stages)", m.ii, m.stages),
            None => " | modulo: infeasible".to_string(),
        }
    );
    let pass_chain: Vec<&str> = result.report.passes.iter().map(|p| p.kind.name()).collect();
    println!("passes: {}", pass_chain.join(" -> "));
    println!(
        "events: {} scheduler + {} simulator ({} dropped)",
        sched_events,
        events.total() - sched_events,
        events.dropped()
    );
    println!("\n{stats}\n");

    let timeline = UtilizationTimeline::build(events.events(), args.bucket);
    print!("{}", timeline.report(&shape_of(&machine)));

    // Sanity: the trace must reconcile with the simulator's own stats
    // (the integration tests assert this; here it guards the report).
    let issues = events.count(|e| matches!(e, TraceEvent::Issue { .. }));
    if events.dropped() == 0 && issues != stats.total_ops() {
        return Err(format!(
            "trace/stats mismatch: {issues} issue events vs {} committed ops",
            stats.total_ops()
        ));
    }

    if let Some(path) = &args.out {
        println!("\n{}", write_out(path, args.sink.as_deref(), &events)?);
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
