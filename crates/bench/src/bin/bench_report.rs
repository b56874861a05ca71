//! Appends one measured record to the repo's performance trajectory
//! (`BENCH_simulator.json`) and prints a speedup summary.
//!
//! Three comparisons, each asserting result equality before timing is
//! trusted, and one timed search:
//!
//! 1. **Simulator core** — the pre-decoded fast path
//!    ([`Simulator::run`]) vs the legacy interpretive path
//!    ([`Simulator::run_interp`]) on the generated SAD row loop, in
//!    simulated cycles per host second, over 100 fresh simulators per
//!    side and iteration. Construction sits outside the timed region
//!    (throughput is a run-phase property) and the two sides alternate
//!    run by run so CPU frequency drift biases neither.
//! 2. **Batch engine** — a 1000-run quiet campaign of the same loop,
//!    executed as per-run fast-path simulations ([`Simulator::new`] and
//!    a run each) vs one decode plus
//!    [`BatchSimulator::run_batch_stats`] over all runs as lockstep
//!    lanes, in aggregate simulated cycles per host second, with every
//!    lane's `RunStats` asserted equal to the scalar run first.
//! 3. **Functional tier** — the same 1000-run campaign replayed by the
//!    functional execution tier ([`Functional::prepare`] once, a
//!    reusable runner per run, no per-cycle walk), in completed runs
//!    per host second, with the final architectural state asserted
//!    bit-identical to the fast path first.
//! 4. **Design-space search** — the full `vsp-dse` pipeline
//!    (enumerate → validate → prune on the VLSI envelope → evaluate
//!    survivors on the six-kernel suite → Pareto-rank) over the CI
//!    smoke grid, in points processed per host second. Measured first,
//!    so it compiles from a cold memo.
//!
//! With `--gate`, the run doubles as the CI perf-regression gate: the
//! fresh fast-path throughput, the batch-engine aggregate throughput,
//! the functional tier's runs per second *and* the design-space
//! search's points per second are each held against the best prior
//! trajectory record ([`vsp_bench::gate`]) and the process exits
//! nonzero when any lost more than `--tolerance` (default 10%).
//!
//! ```text
//! cargo run --release -p vsp-bench --bin bench-report -- --iters 5
//! cargo run --release -p vsp-bench --bin bench-report -- --iters 1 --gate --tolerance 0.5
//! ```

use std::process::ExitCode;
use std::time::Instant;
use vsp_bench::gate;
use vsp_core::models;
use vsp_exec::{ExecRequest, Functional};
use vsp_ir::Stmt;
use vsp_kernels::ir::sad_16x16_kernel;
use vsp_sched::{codegen_loop, list_schedule, lower_body, ArrayLayout, LoopControl, VopDeps};
use vsp_sim::{BatchSimulator, DecodedProgram, Refusal, RunSpec, Simulator};

const USAGE: &str = "usage: bench-report [options]

Measures the simulator fast path, the batch engine and the functional
tier against their baselines, times the vsp-dse search on the CI smoke
grid, appends a JSON record to the benchmark trajectory, and prints a
summary.

options:
  --iters N      repetitions per measurement (default 5; CI uses 1)
  --out PATH     trajectory file (default BENCH_simulator.json)
  --dry-run      measure and print, but do not write the trajectory
  --gate         after appending, compare the fast-path, batch,
                 functional and design-search throughputs against the
                 best prior trajectory records and exit nonzero when
                 any lost more than the tolerance (the CI perf gate)
  --tolerance F  fractional loss the gate allows (default 0.10; CI cold
                 runners pass a wider band to stay warn-only)
  -h, --help     this text";

struct Args {
    iters: u32,
    out: String,
    dry_run: bool,
    gate: bool,
    tolerance: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        iters: 5,
        out: "BENCH_simulator.json".to_string(),
        dry_run: false,
        gate: false,
        tolerance: vsp_bench::gate::DEFAULT_TOLERANCE,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--iters" => {
                args.iters = value("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?
            }
            "--out" => args.out = value("--out")?,
            "--dry-run" => args.dry_run = true,
            "--gate" => args.gate = true,
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.iters == 0 {
        return Err("--iters must be positive".into());
    }
    if !(0.0..1.0).contains(&args.tolerance) {
        return Err("--tolerance must be in [0, 1)".into());
    }
    Ok(args)
}

/// The simulator workload: the generated SAD row loop, replicated
/// over every cluster.
fn sad_program(
    machine: &vsp_core::MachineConfig,
) -> Result<vsp_sched::codegen::GeneratedLoop, String> {
    let sad = sad_16x16_kernel();
    let mut k = sad.kernel.clone();
    vsp_ir::transform::fully_unroll_innermost(&mut k);
    vsp_ir::transform::eliminate_common_subexpressions(&mut k);
    let Some(Stmt::Loop(l)) = k.body.iter().find(|s| matches!(s, Stmt::Loop(_))) else {
        return Err("SAD kernel has no row loop".into());
    };
    let layout = ArrayLayout::contiguous(&k, machine).map_err(|e| format!("layout: {e:?}"))?;
    let body = lower_body(machine, &k, &l.body, &layout).map_err(|e| format!("lowering: {e:?}"))?;
    let deps = VopDeps::build(machine, &body);
    let sched = list_schedule(machine, &body, &deps, 1).ok_or("list scheduling failed")?;
    codegen_loop(
        machine,
        &body,
        &sched,
        Some(LoopControl {
            trip: 16,
            index: Some((0, 0, 1)),
        }),
        machine.clusters,
        "bench-report-sad",
    )
    .map_err(|e| format!("codegen: {e:?}"))
}

/// Fresh simulators each side runs per iteration of
/// [`measure_simulator`]. One run of the SAD loop takes under a
/// millisecond; a hundred make a sample that repeats within about 2%
/// inside one process.
const SIMS_PER_ITER: u32 = 100;

struct SimResult {
    cycles_per_run: u64,
    fast_wall_s: f64,
    interp_wall_s: f64,
    fast_cps: f64,
    interp_cps: f64,
}

fn measure_simulator(iters: u32) -> Result<SimResult, String> {
    let machine = models::i4c8s4();
    let generated = sad_program(&machine)?;

    let fast_stats = {
        let mut sim = Simulator::new(&machine, &generated.program).map_err(|e| e.to_string())?;
        sim.run(1_000_000).map_err(|e| e.to_string())?
    };
    let interp_stats = {
        let mut sim = Simulator::new(&machine, &generated.program).map_err(|e| e.to_string())?;
        sim.run_interp(1_000_000).map_err(|e| e.to_string())?
    };
    if fast_stats != interp_stats {
        return Err("fast/interp RunStats diverged on the SAD loop".into());
    }
    let cycles = fast_stats.cycles;

    // Alternate the two sides run by run so CPU frequency drift (cold
    // start, thermal throttling) biases neither path. Only the runs are
    // timed; every simulator is built fresh outside the clock.
    let mut fast_wall_s = 0.0;
    let mut interp_wall_s = 0.0;
    for _ in 0..iters * SIMS_PER_ITER {
        let mut sim = Simulator::new(&machine, &generated.program).map_err(|e| e.to_string())?;
        let t = Instant::now();
        std::hint::black_box(sim.run(1_000_000).map_err(|e| e.to_string())?.cycles);
        fast_wall_s += t.elapsed().as_secs_f64();

        let mut sim = Simulator::new(&machine, &generated.program).map_err(|e| e.to_string())?;
        let t = Instant::now();
        std::hint::black_box(sim.run_interp(1_000_000).map_err(|e| e.to_string())?.cycles);
        interp_wall_s += t.elapsed().as_secs_f64();
    }

    let total = cycles as f64 * f64::from(iters * SIMS_PER_ITER);
    Ok(SimResult {
        cycles_per_run: cycles,
        fast_wall_s,
        interp_wall_s,
        fast_cps: total / fast_wall_s,
        interp_cps: total / interp_wall_s,
    })
}

struct BatchResult {
    runs: usize,
    cycles_per_run: u64,
    scalar_wall_s: f64,
    batch_wall_s: f64,
    scalar_cps: f64,
    batch_cps: f64,
}

/// The campaign comparison: `RUNS` quiet runs of the SAD row loop,
/// once as per-run fast-path simulations (a fresh [`Simulator`] for
/// each run — decode and allocation inside the loop, exactly what a
/// campaign driver without the batch engine pays), once as a single
/// decode plus one [`BatchSimulator::run_batch_stats`] over all runs as
/// lockstep lanes.
fn measure_batch(iters: u32) -> Result<BatchResult, String> {
    const RUNS: usize = 1000;
    let machine = models::i4c8s4();
    let generated = sad_program(&machine)?;
    let program = &generated.program;
    let specs = || vec![RunSpec::new(1_000_000); RUNS];
    let refused = |r: Refusal| format!("quiet batch refused: {r}");

    // Equality before timing: every batch lane must reproduce the
    // scalar run's statistics exactly.
    let scalar_stats = {
        let mut sim = Simulator::new(&machine, program).map_err(|e| e.to_string())?;
        sim.run(1_000_000).map_err(|e| e.to_string())?
    };
    let mut bsim = BatchSimulator::new(&machine);
    {
        let decoded = DecodedProgram::prepare(&machine, program).map_err(|e| e.to_string())?;
        let lanes = bsim.run_batch_stats(&decoded, specs()).map_err(refused)?;
        for (lane, stats) in lanes.iter().enumerate() {
            if *stats != scalar_stats {
                return Err(format!("batch lane {lane} RunStats diverged from scalar"));
            }
        }
    }
    let cycles = scalar_stats.cycles;

    let mut scalar_wall_s = 0.0;
    let mut batch_wall_s = 0.0;
    for _ in 0..iters {
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..RUNS {
            let mut sim = Simulator::new(&machine, program).map_err(|e| e.to_string())?;
            acc += sim.run(1_000_000).map_err(|e| e.to_string())?.cycles;
        }
        scalar_wall_s += t.elapsed().as_secs_f64();
        std::hint::black_box(acc);

        let t = Instant::now();
        let decoded = DecodedProgram::prepare(&machine, program).map_err(|e| e.to_string())?;
        let acc: u64 = bsim
            .run_batch_stats(&decoded, specs())
            .map_err(refused)?
            .iter()
            .map(|s| s.cycles)
            .sum();
        batch_wall_s += t.elapsed().as_secs_f64();
        std::hint::black_box(acc);
    }

    let total = cycles as f64 * RUNS as f64 * f64::from(iters);
    Ok(BatchResult {
        runs: RUNS,
        cycles_per_run: cycles,
        scalar_wall_s,
        batch_wall_s,
        scalar_cps: total / scalar_wall_s,
        batch_cps: total / batch_wall_s,
    })
}

struct FunctionalResult {
    runs: usize,
    cycles_per_run: u64,
    wall_s: f64,
    runs_per_sec: f64,
}

/// The functional-tier campaign: the same 1000-case workload as
/// [`measure_batch`], replayed by lowering the program to a flat
/// native trace and re-running it on a reusable frame — no per-cycle
/// walk at all. [`Functional::prepare`] sits *inside* the timed
/// region, once per iteration, mirroring the batch path's decode; the
/// 1000 runs amortize it exactly as a campaign driver would. Measured
/// in completed runs per host second, with the final architectural
/// state held bit-identical against the cycle-accurate fast path both
/// before timing and after the last timed run.
fn measure_functional(iters: u32) -> Result<FunctionalResult, String> {
    const RUNS: usize = 1000;
    let machine = models::i4c8s4();
    let generated = sad_program(&machine)?;
    let program = &generated.program;

    // Equality before timing: the compiled trace must reproduce the
    // cycle-accurate fast path's architectural state exactly.
    let reference = {
        let mut sim = Simulator::new(&machine, program).map_err(|e| e.to_string())?;
        sim.run(1_000_000).map_err(|e| e.to_string())?;
        sim.arch_state()
    };
    let req = ExecRequest::new(1_000_000);
    let compiled = Functional::prepare(&machine, program).map_err(|e| e.to_string())?;
    let mut runner = compiled.runner();
    runner.run_quiet(&req).map_err(|e| e.to_string())?;
    if !runner.state_matches(&reference) {
        return Err("functional tier diverged from the fast path on the SAD loop".into());
    }
    let cycles = compiled.cycles();

    let mut wall_s = 0.0;
    for _ in 0..iters {
        let t = Instant::now();
        let compiled = Functional::prepare(&machine, program).map_err(|e| e.to_string())?;
        let mut runner = compiled.runner();
        for _ in 0..RUNS {
            runner.run_quiet(&req).map_err(|e| e.to_string())?;
        }
        wall_s += t.elapsed().as_secs_f64();
        // Post-timing verdict doubles as the optimization barrier: the
        // frame's final contents are observed, so runs cannot be elided.
        if !runner.state_matches(&reference) {
            return Err("functional tier diverged after repeated runs".into());
        }
    }

    Ok(FunctionalResult {
        runs: RUNS,
        cycles_per_run: cycles,
        wall_s,
        runs_per_sec: RUNS as f64 * f64::from(iters) / wall_s,
    })
}

struct DseResult {
    enumerated: usize,
    feasible: usize,
    frontier: usize,
    wall_s: f64,
    points_per_sec: f64,
}

/// The design-space search on the CI smoke grid: the whole `vsp-dse`
/// pipeline — enumerate, validate, prune against the paper envelope,
/// evaluate every survivor on the six-kernel suite, Pareto-rank — in
/// points processed per host second. One pass regardless of `--iters`:
/// the ~200-point grid already amortizes per-point noise, and the
/// plane spot-checks are skipped (they time the evaluation plane, not
/// the search). It runs before every other measurement, so the search
/// starts with an empty compile memo, as a user's `design-search` does.
fn measure_dse() -> Result<DseResult, String> {
    let grid = vsp_dse::space::smoke();
    let config = vsp_dse::SearchConfig {
        verify_frontier: 0,
        ..vsp_dse::SearchConfig::default()
    };
    let report = vsp_dse::search(&grid, &config);
    if report.points.is_empty() {
        return Err("design-space search found no feasible point on the smoke grid".into());
    }
    if report.eval_failures > 0 {
        return Err(format!(
            "design-space search hit {} evaluation failures on the smoke grid",
            report.eval_failures
        ));
    }
    Ok(DseResult {
        enumerated: report.enumerated,
        feasible: report.feasible,
        frontier: report.frontier.len(),
        wall_s: report.wall_s,
        points_per_sec: report.points_per_sec,
    })
}

/// Renders the record by hand: the schema is small enough to keep
/// honest.
fn render_record(
    args: &Args,
    sim: &SimResult,
    bat: &BatchResult,
    fnc: &FunctionalResult,
    dse: &DseResult,
) -> String {
    let epoch_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    format!(
        concat!(
            "  {{\n",
            "    \"schema\": 1,\n",
            "    \"epoch_s\": {},\n",
            "    \"iters\": {},\n",
            "    \"threads\": {},\n",
            "    \"simulator\": {{\n",
            "      \"workload\": \"sad_row_loop_replicated_8_clusters\",\n",
            "      \"cycles_per_run\": {},\n",
            "      \"fast_wall_s\": {:.6},\n",
            "      \"interp_wall_s\": {:.6},\n",
            "      \"fast_cycles_per_sec\": {:.0},\n",
            "      \"interp_cycles_per_sec\": {:.0},\n",
            "      \"speedup\": {:.3}\n",
            "    }},\n",
            "    \"batch\": {{\n",
            "      \"workload\": \"sad_row_loop_quiet_campaign\",\n",
            "      \"runs\": {},\n",
            "      \"cycles_per_run\": {},\n",
            "      \"scalar_wall_s\": {:.6},\n",
            "      \"batch_wall_s\": {:.6},\n",
            "      \"scalar_cycles_per_sec\": {:.0},\n",
            "      \"batch_cycles_per_sec\": {:.0},\n",
            "      \"speedup\": {:.3},\n",
            "      \"lanes_identical\": true\n",
            "    }},\n",
            "    \"functional\": {{\n",
            "      \"workload\": \"sad_row_loop_campaign\",\n",
            "      \"runs\": {},\n",
            "      \"cycles_per_run\": {},\n",
            "      \"wall_s\": {:.6},\n",
            "      \"func_runs_per_sec\": {:.0},\n",
            "      \"state_identical\": true\n",
            "    }},\n",
            "    \"dse\": {{\n",
            "      \"workload\": \"smoke_grid_search\",\n",
            "      \"enumerated\": {},\n",
            "      \"feasible\": {},\n",
            "      \"frontier\": {},\n",
            "      \"wall_s\": {:.6},\n",
            "      \"dse_points_per_sec\": {:.3}\n",
            "    }}\n",
            "  }}"
        ),
        epoch_s,
        args.iters,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        sim.cycles_per_run,
        sim.fast_wall_s,
        sim.interp_wall_s,
        sim.fast_cps,
        sim.interp_cps,
        sim.fast_cps / sim.interp_cps,
        bat.runs,
        bat.cycles_per_run,
        bat.scalar_wall_s,
        bat.batch_wall_s,
        bat.scalar_cps,
        bat.batch_cps,
        bat.batch_cps / bat.scalar_cps,
        fnc.runs,
        fnc.cycles_per_run,
        fnc.wall_s,
        fnc.runs_per_sec,
        dse.enumerated,
        dse.feasible,
        dse.frontier,
        dse.wall_s,
        dse.points_per_sec,
    )
}

/// Appends `record` to the JSON array in `path`, creating the file on
/// first use.
fn append_record(path: &str, record: &str) -> Result<(), String> {
    let body = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            let Some(prefix) = trimmed.strip_suffix(']') else {
                return Err(format!("{path}: not a JSON array; refusing to append"));
            };
            format!("{},\n{}\n]\n", prefix.trim_end(), record)
        }
        Err(_) => format!("[\n{record}\n]\n"),
    };
    std::fs::write(path, body).map_err(|e| format!("write {path}: {e}"))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // First: the search must find the compile memo cold.
    let dse = measure_dse()?;
    let sim = measure_simulator(args.iters)?;
    let bat = measure_batch(args.iters)?;
    let fnc = measure_functional(args.iters)?;

    println!(
        "simulator : fast {:>12.0} cyc/s | interp {:>12.0} cyc/s | {:.2}x",
        sim.fast_cps,
        sim.interp_cps,
        sim.fast_cps / sim.interp_cps
    );
    println!(
        "batch     : batch {:>11.0} cyc/s | scalar {:>11.0} cyc/s | {:.2}x ({} runs, lanes identical)",
        bat.batch_cps,
        bat.scalar_cps,
        bat.batch_cps / bat.scalar_cps,
        bat.runs
    );
    // The batch engine's throughput in the functional tier's unit:
    // completed campaign runs per host second.
    let batch_rps = bat.batch_cps / bat.cycles_per_run as f64;
    println!(
        "functional: func {:>13.0} run/s | batch {:>12.0} run/s | {:.2}x (state identical)",
        fnc.runs_per_sec,
        batch_rps,
        fnc.runs_per_sec / batch_rps
    );
    println!(
        "dse       : {:>5} points in {:>7.3} s | {:.0} points/s ({} feasible, frontier {})",
        dse.enumerated, dse.wall_s, dse.points_per_sec, dse.feasible, dse.frontier
    );

    // Gate against the records that existed *before* this run is
    // appended, so today's measurement never dilutes its own baseline.
    let prior = if args.gate {
        Some(std::fs::read_to_string(&args.out).unwrap_or_default())
    } else {
        None
    };

    if args.dry_run {
        println!("(dry run: {} not written)", args.out);
    } else {
        let record = render_record(&args, &sim, &bat, &fnc, &dse);
        append_record(&args.out, &record)?;
        println!("appended record to {}", args.out);
    }

    if let Some(prior) = prior {
        let mut failed = Vec::new();
        for (label, key, current) in [
            ("fast", gate::GATE_METRIC, sim.fast_cps),
            ("batch", gate::BATCH_GATE_METRIC, bat.batch_cps),
            ("functional", gate::FUNC_GATE_METRIC, fnc.runs_per_sec),
            ("dse", gate::DSE_GATE_METRIC, dse.points_per_sec),
        ] {
            let outcome = gate::check(&prior, key, current, args.tolerance);
            println!("gate      : {label}: {outcome}");
            if !outcome.pass {
                failed.push(format!("{label}: {outcome}"));
            }
        }
        if !failed.is_empty() {
            return Err(format!("perf gate failed: {}", failed.join("; ")));
        }
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
