//! Fault-injection campaign driver: sweep the paper's six kernels ×
//! machine models × transient-flip rates under checkpoint/recovery, and
//! classify each cell AVF-style against a golden fault-free run.
//!
//! ```text
//! cargo run --release -p vsp-bench --bin faults                  # full sweep table
//! cargo run --release -p vsp-bench --bin faults -- --campaign 200 --seed 7
//! ```
//!
//! Sweep cells run the standard compilation recipe (the same one the
//! `fast_path_diff` differential matrix pins), execute once fault-free
//! for a golden [`ArchState`], then re-execute under a seeded
//! [`FaultPlan`] with `run_with_recovery`. The final state comparison
//! is what catches *silent* data corruption — flips that never trip a
//! simulator error or the watchdog:
//!
//! * `clean` — no injections happened (rate 0 cells);
//! * `benign` — flips landed but the final state still matches golden;
//! * `corrected` — detections occurred and re-execution erased them;
//! * `sdc` — run completed but the final state diverged silently;
//! * `uncorrectable` — a region exhausted its retry budget;
//! * `cycle-limit` — the global cycle budget ran out first.
//!
//! Campaign mode (`--campaign N`) contains every cell's panic with the
//! `vsp-fault` harness and exits nonzero unless the [`CampaignReport`]
//! reconciles and every cell's fault accounting holds — the CI smoke
//! test.
//!
//! A campaign's cases are only as many distinct programs as there are
//! (kernel, model) pairs, so each pair's [`Reference`] — one simulator
//! over the compiled program, its power-on checkpoint and its golden
//! run — is built once and serves every case of the pair. The pairs run
//! in parallel on [`vsp_dse::par_map`] workers and the cases are folded
//! in case-index order, so the output is the same at any core count.

use std::collections::BTreeMap;
use std::fmt;
use std::process::ExitCode;

use vsp_core::{models, MachineConfig};
use vsp_fault::{
    run_inline, run_with_recovery, CampaignReport, CaseOutcome, FaultPlan, RecoveryConfig,
    SeededFaults,
};
use vsp_ir::{Kernel, Stmt};
use vsp_kernels::ir::{
    color_quad_kernel, dct1d_kernel, dct_direct_mac_kernel, sad_16x16_kernel, vbr_block_kernel,
};
use vsp_metrics::{json_str, Recorder, Registry};
use vsp_sched::pipeline::{PassConfig, ScheduleScope, SchedulerChoice};
use vsp_sched::{codegen_loop, LoopControl, ScheduleArtifact, Strategy};
use vsp_sim::{ArchState, Checkpoint, DecodedProgram, SimError, Simulator};
use vsp_trace::NullSink;

const USAGE: &str = "usage: faults [options]

Fault-injection campaigns over the paper's six kernels: transient
single-bit flips on register/SRAM/crossbar reads, executed under
checkpoint/recovery and classified against a golden fault-free run.

modes:
  (default)      sweep kernel x model x rate cells, print an AVF-style table
  --campaign N   run N recovery cases on every core, each case's panic
                 contained and counted; exit nonzero unless the campaign
                 report reconciles (the CI smoke test)

options:
  --rates LIST   comma-separated flip rates in ppm (default 0,100,1000,10000)
  --seed N       base RNG seed; cell i uses seed N+i (default 7)
  --model NAME   restrict to one machine model (default: all models)
  --kernel NAME  restrict to one kernel: sad, dct-row, dct-col, dct-mac,
                 color, vbr (default: all six)
  --max-cycles N global cycle budget per run (default 2000000)
  --interval N   checkpoint interval in instruction words (default 64)
  --json         emit cell reports as JSON lines
  --metrics PATH write a metrics snapshot on exit: verdict counters,
                 fault totals, per-cell cycle histograms (.prom gets
                 Prometheus text, anything else JSON)
  -h, --help     this text";

struct Args {
    rates: Vec<u32>,
    seed: u64,
    model: Option<String>,
    kernel: Option<String>,
    max_cycles: u64,
    interval: u64,
    campaign: Option<u64>,
    json: bool,
    metrics: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            rates: vec![0, 100, 1_000, 10_000],
            seed: 7,
            model: None,
            kernel: None,
            max_cycles: 2_000_000,
            interval: 64,
            campaign: None,
            json: false,
            metrics: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--rates" => {
                args.rates = value("--rates")?
                    .split(',')
                    .map(|r| r.trim().parse().map_err(|e| format!("--rates: {e}")))
                    .collect::<Result<_, _>>()?;
                if args.rates.is_empty() {
                    return Err("--rates: need at least one rate".into());
                }
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--model" => args.model = Some(value("--model")?),
            "--kernel" => args.kernel = Some(value("--kernel")?),
            "--max-cycles" => {
                args.max_cycles = value("--max-cycles")?
                    .parse()
                    .map_err(|e| format!("--max-cycles: {e}"))?
            }
            "--interval" => {
                args.interval = value("--interval")?
                    .parse()
                    .map_err(|e| format!("--interval: {e}"))?
            }
            "--campaign" => {
                args.campaign = Some(
                    value("--campaign")?
                        .parse()
                        .map_err(|e| format!("--campaign: {e}"))?,
                )
            }
            "--json" => args.json = true,
            "--metrics" => args.metrics = Some(value("--metrics")?),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// A campaign kernel: (name, IR, unroll-innermost).
type KernelSpec = (&'static str, Kernel, bool);

/// The six kernels of the differential matrix, as
/// (name, IR, unroll-innermost) triples — the same set `fast_path_diff`
/// pins, so fault campaigns exercise exactly the op mix the
/// differential tests certify.
fn kernels() -> Vec<KernelSpec> {
    vec![
        ("sad", sad_16x16_kernel().kernel, true),
        ("dct-row", dct1d_kernel(true).kernel, true),
        ("dct-col", dct1d_kernel(false).kernel, true),
        ("dct-mac", dct_direct_mac_kernel().kernel, true),
        ("color", color_quad_kernel(4).kernel, true),
        ("vbr", vbr_block_kernel().kernel, false),
    ]
}

/// Why a (kernel, model) pair has no [`Reference`].
#[derive(Debug)]
enum ReferenceError {
    /// The standard recipe did not compile or code-generate the kernel.
    Compile { pair: String, detail: String },
    /// The fault-free golden run failed, an invalid program included.
    Golden { pair: String, error: SimError },
}

impl fmt::Display for ReferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReferenceError::Compile { pair, detail } => write!(f, "{pair}: {detail}"),
            ReferenceError::Golden { pair, error } => {
                write!(f, "{pair}: golden run failed: {error}")
            }
        }
    }
}

/// Compiles a kernel for `machine` with the standard recipe (innermost
/// loop optionally fully unrolled, if-converted, CSE, list-scheduled
/// loop body replicated across all clusters), expressed as a
/// declarative [`Strategy`] through [`vsp_sched::compile`].
fn compile(
    machine: &MachineConfig,
    name: &str,
    kernel: &Kernel,
    unroll: bool,
) -> Result<vsp_isa::Program, ReferenceError> {
    let failed = |detail: String| ReferenceError::Compile {
        pair: format!("{name} on {}", machine.name),
        detail,
    };
    let build = |scope: ScheduleScope| {
        let mut strategy = Strategy::new(
            "faults/list",
            scope,
            SchedulerChoice::List { clusters_used: 1 },
        )
        .for_codegen();
        if unroll {
            strategy = strategy.then(PassConfig::Unroll { factor: None });
        }
        strategy.then(PassConfig::IfConvert).then(PassConfig::Cse)
    };

    // Kernels whose only loop is fully unrolled away (color) fall back
    // to scheduling the whole flattened body as straight-line code.
    let result = vsp_sched::compile(kernel, machine, &build(ScheduleScope::FirstLoop))
        .or_else(|_| vsp_sched::compile(kernel, machine, &build(ScheduleScope::WholeBody)))
        .map_err(|e| failed(e.to_string()))?;
    let (ScheduleArtifact::List(sched), Some(body)) = (&result.schedule, &result.lowered) else {
        return Err(failed("list backend expected".into()));
    };
    let ctl = result.kernel.body.iter().find_map(|s| match s {
        Stmt::Loop(l) => Some(LoopControl {
            trip: l.trip,
            index: Some((0, l.start, l.step)),
        }),
        _ => None,
    });
    codegen_loop(machine, body, sched, ctl, machine.clusters, name)
        .map(|generated| generated.program)
        .map_err(|e| failed(format!("codegen failed: {e:?}")))
}

/// Architectural equality modulo timing: a silently corrupted run may
/// take a different number of cycles (a flipped predicate changes the
/// path), so only registers, predicates, memories and the halt flag
/// define "same outcome".
fn state_matches(a: &ArchState, b: &ArchState) -> bool {
    a.halted == b.halted && a.regs == b.regs && a.preds == b.preds && a.mems == b.mems
}

/// One (kernel, model, rate) cell's result.
#[derive(Debug, Clone, PartialEq)]
struct CellReport {
    kernel: &'static str,
    model: String,
    rate_ppm: u32,
    seed: u64,
    /// Injections across all attempts, including discarded replays
    /// (the fault model's monotonic counters).
    injected: u64,
    detected: u64,
    corrected: u64,
    uncorrectable: u64,
    retries: u64,
    /// Cycles of discarded (rolled-back) work.
    recovery_cycles: u64,
    /// Surviving-timeline cycles of the faulted run.
    cycles: u64,
    golden_cycles: u64,
    verdict: &'static str,
    /// Fault accounting invariant: detected >= corrected + uncorrectable.
    accounted: bool,
    /// Checkpoints the recovery loop took (not in the `--json` line).
    checkpoints: u64,
}

/// Per-cell knobs: injection rate and seed plus the recovery tuning.
#[derive(Debug, Clone, Copy)]
struct CellCfg {
    rate_ppm: u32,
    seed: u64,
    max_cycles: u64,
    interval: u64,
}

/// What every cell of one (kernel, model) pair shares: one simulator
/// over the pair's program, the power-on checkpoint it is rewound to
/// before each cell, and the golden run it made fault-free. Each cell
/// swaps in its own fault model.
struct Reference<'a> {
    sim: Simulator<'a, NullSink, SeededFaults>,
    pristine: Checkpoint,
    golden_state: ArchState,
    golden_cycles: u64,
}

impl<'a> Reference<'a> {
    /// Validates and decodes `program`, then runs it once under a quiet
    /// fault model for the golden state.
    fn build(
        machine: &'a MachineConfig,
        kernel_name: &str,
        program: &'a vsp_isa::Program,
        max_cycles: u64,
    ) -> Result<Self, ReferenceError> {
        let failed = |error| ReferenceError::Golden {
            pair: format!("{kernel_name} on {}", machine.name),
            error,
        };
        let decoded = DecodedProgram::prepare(machine, program).map_err(failed)?;
        let mut sim =
            Simulator::with_decoded(machine, program, decoded, FaultPlan::quiet().build());
        let pristine = sim.checkpoint();
        let golden_cycles = sim.run(max_cycles).map_err(failed)?.cycles;
        let golden_state = sim.arch_state();
        Ok(Reference {
            sim,
            pristine,
            golden_state,
            golden_cycles,
        })
    }
}

/// Runs one cell: the pair's program, rewound to power-on, under a
/// seeded transient-flip plan with checkpoint/recovery, judged against
/// its golden run.
fn run_cell(
    machine: &MachineConfig,
    kernel_name: &'static str,
    reference: &mut Reference,
    cfg: CellCfg,
) -> CellReport {
    let CellCfg {
        rate_ppm,
        seed,
        max_cycles,
        interval,
    } = cfg;
    let Reference {
        sim,
        pristine,
        golden_state,
        golden_cycles,
    } = reference;

    sim.restore(pristine);
    *sim.faults_mut() = FaultPlan::transient(seed, rate_ppm).build();
    let outcome = run_with_recovery(
        sim,
        &RecoveryConfig::new(max_cycles).with_interval(interval),
    );
    let state = sim.arch_state();

    let s = &outcome.stats;
    let injected = sim.faults().counts().total();
    let verdict = if outcome.error.is_some() || !outcome.halted {
        if s.faults_uncorrectable > 0 {
            "uncorrectable"
        } else {
            "cycle-limit"
        }
    } else if state_matches(&state, golden_state) {
        if s.faults_detected > 0 {
            "corrected"
        } else if injected > 0 {
            "benign"
        } else {
            "clean"
        }
    } else {
        "sdc"
    };

    CellReport {
        kernel: kernel_name,
        model: machine.name.clone(),
        rate_ppm,
        seed,
        injected,
        detected: s.faults_detected,
        corrected: s.faults_corrected,
        uncorrectable: s.faults_uncorrectable,
        retries: outcome.retries,
        recovery_cycles: s.recovery_cycles,
        cycles: s.cycles,
        golden_cycles: *golden_cycles,
        verdict,
        accounted: s.faults_detected >= s.faults_corrected + s.faults_uncorrectable,
        checkpoints: outcome.checkpoints,
    }
}

/// Folds one cell into the metrics registry: verdict counters, fault
/// totals per (kernel, model), the surviving-timeline cycle histogram,
/// and the simulation work behind it — cycles simulated on the
/// surviving and the replayed timelines, and checkpoints taken — as
/// totals with no per-pair label, exact at a fixed seed.
fn record_cell(reg: &mut Registry, cell: &CellReport) {
    let labels = [("kernel", cell.kernel), ("model", cell.model.as_str())];
    reg.add("vsp_faults_verdicts_total", &[("verdict", cell.verdict)], 1);
    reg.add("vsp_faults_injected_total", &labels, cell.injected);
    reg.add("vsp_faults_detected_total", &labels, cell.detected);
    reg.add("vsp_faults_corrected_total", &labels, cell.corrected);
    reg.add(
        "vsp_faults_uncorrectable_total",
        &labels,
        cell.uncorrectable,
    );
    reg.add("vsp_faults_retries_total", &labels, cell.retries);
    reg.add(
        "vsp_faults_recovery_cycles_total",
        &labels,
        cell.recovery_cycles,
    );
    reg.observe("vsp_faults_cell_cycles", &labels, cell.cycles);
    let cycles = "vsp_faults_sim_cycles_total";
    reg.add(cycles, &[("timeline", "surviving")], cell.cycles);
    reg.add(cycles, &[("timeline", "replayed")], cell.recovery_cycles);
    reg.add("vsp_faults_checkpoints_total", &[], cell.checkpoints);
}

/// One cell as a compact `--json` line, fields in declaration order.
fn json_line(cell: &CellReport) -> String {
    format!(
        concat!(
            "{{\"kernel\":{},\"model\":{},\"rate_ppm\":{},\"seed\":{},",
            "\"injected\":{},\"detected\":{},\"corrected\":{},",
            "\"uncorrectable\":{},\"retries\":{},\"recovery_cycles\":{},",
            "\"cycles\":{},\"golden_cycles\":{},\"verdict\":{},\"accounted\":{}}}"
        ),
        json_str(cell.kernel),
        json_str(&cell.model),
        cell.rate_ppm,
        cell.seed,
        cell.injected,
        cell.detected,
        cell.corrected,
        cell.uncorrectable,
        cell.retries,
        cell.recovery_cycles,
        cell.cycles,
        cell.golden_cycles,
        json_str(cell.verdict),
        cell.accounted,
    )
}

fn emit(cell: &CellReport, json: bool) {
    if json {
        println!("{}", json_line(cell));
    } else {
        // Overhead of surviving-timeline cycles over the golden run
        // (recovery replays are reported separately, in `replayed`).
        let overhead = if cell.golden_cycles > 0 {
            100.0 * (cell.cycles as f64 / cell.golden_cycles as f64 - 1.0)
        } else {
            0.0
        };
        println!(
            "{:<8} {:<11} {:>8} {:>9} {:>9} {:>10} {:>7} {:>8} {:>9} {:>9} {:>7.1} {:>10}  {}",
            cell.kernel,
            cell.model,
            cell.rate_ppm,
            cell.injected,
            cell.detected,
            cell.corrected,
            cell.uncorrectable,
            cell.retries,
            cell.cycles,
            cell.recovery_cycles,
            overhead,
            cell.seed,
            cell.verdict
        );
    }
}

fn selected(args: &Args) -> Result<(Vec<MachineConfig>, Vec<KernelSpec>), String> {
    let machines: Vec<_> = match &args.model {
        Some(name) => {
            let m = models::by_name(name).ok_or_else(|| format!("unknown model {name}"))?;
            vec![m]
        }
        None => models::all_models(),
    };
    let all = kernels();
    let kernels = match &args.kernel {
        Some(name) => {
            let k: Vec<_> = all.into_iter().filter(|(n, _, _)| n == name).collect();
            if k.is_empty() {
                return Err(format!("unknown kernel {name}"));
            }
            k
        }
        None => all,
    };
    Ok((machines, kernels))
}

/// Sweep mode: every kernel × model × rate cell, serially, as a table.
fn run_sweep(args: &Args, reg: &mut Registry) -> Result<(), String> {
    let (machines, kernels) = selected(args)?;
    if !args.json {
        println!(
            "{:<8} {:<11} {:>8} {:>9} {:>9} {:>10} {:>7} {:>8} {:>9} {:>9} {:>7} {:>10}  verdict",
            "kernel",
            "model",
            "rate_ppm",
            "injected",
            "detected",
            "corrected",
            "uncorr",
            "retries",
            "cycles",
            "replayed",
            "ovhd%",
            "seed"
        );
    }
    let mut cell_index = 0u64;
    let mut unaccounted = 0u64;
    let mut sdc = 0u64;
    let mut references = 0u64;
    for (name, kernel, unroll) in &kernels {
        for machine in &machines {
            let program = compile(machine, name, kernel, *unroll).map_err(|e| e.to_string())?;
            let mut reference = Reference::build(machine, name, &program, args.max_cycles)
                .map_err(|e| e.to_string())?;
            references += 1;
            for &rate in &args.rates {
                let cell = run_cell(
                    machine,
                    name,
                    &mut reference,
                    CellCfg {
                        rate_ppm: rate,
                        seed: args.seed.wrapping_add(cell_index),
                        max_cycles: args.max_cycles,
                        interval: args.interval,
                    },
                );
                cell_index += 1;
                if !cell.accounted {
                    unaccounted += 1;
                }
                if cell.verdict == "sdc" {
                    sdc += 1;
                }
                record_cell(reg, &cell);
                emit(&cell, args.json);
            }
        }
    }
    reg.add("vsp_faults_references_total", &[], references);
    eprintln!(
        "faults: {cell_index} cells ({} kernels x {} models x {} rates); {sdc} silent corruptions",
        kernels.len(),
        machines.len(),
        args.rates.len()
    );
    if unaccounted > 0 {
        return Err(format!(
            "{unaccounted} cell(s) broke the fault-accounting invariant"
        ));
    }
    Ok(())
}

/// The rates a campaign draws from: the nonzero ones, unless every
/// rate is zero.
fn campaign_rates(args: &Args) -> Vec<u32> {
    let nonzero: Vec<u32> = args.rates.iter().copied().filter(|&r| r > 0).collect();
    if nonzero.is_empty() {
        args.rates.clone()
    } else {
        nonzero
    }
}

/// Campaign case indices grouped by their (kernel, model) pair, as
/// indices into the selected kernels and machines. Case `i` runs kernel
/// `i % kernels` on machine `(i / kernels) % machines`, so consecutive
/// cases cycle through every pair; each group lists its cases in
/// ascending order.
fn pair_groups(cases: u64, kernels: usize, machines: usize) -> BTreeMap<(usize, usize), Vec<u64>> {
    let mut groups: BTreeMap<(usize, usize), Vec<u64>> = BTreeMap::new();
    for i in 0..cases {
        let k = (i % kernels as u64) as usize;
        let m = ((i / kernels as u64) % machines as u64) as usize;
        groups.entry((k, m)).or_default().push(i);
    }
    groups
}

/// An inline step's value, or why it failed: its error or its panic.
fn contained<T, E: fmt::Display>(outcome: CaseOutcome<Result<T, E>>) -> Result<T, String> {
    match outcome {
        CaseOutcome::Faulted { message } => Err(message),
        done => done
            .into_value()
            .expect("an inline case completes or faults")
            .map_err(|e| e.to_string()),
    }
}

/// Runs the cases `indices` of one (kernel, model) pair on the pair's
/// [`Reference`], each case's panic contained. A pair whose compile or
/// golden run fails or panics faults every one of its cases with that
/// message. Returns whether the reference was built, and each case's
/// index and outcome.
fn run_pair(
    args: &Args,
    (name, kernel, unroll): &KernelSpec,
    machine: &MachineConfig,
    rates: &[u32],
    indices: &[u64],
) -> (bool, Vec<(u64, CaseOutcome<CellReport>)>) {
    let faulted = |message: String| {
        let each = |&i| {
            let message = message.clone();
            (i, CaseOutcome::Faulted { message })
        };
        (false, indices.iter().map(each).collect())
    };
    let program = match contained(run_inline(|| compile(machine, name, kernel, *unroll))) {
        Ok(program) => program,
        Err(message) => return faulted(message),
    };
    let built = run_inline(|| Reference::build(machine, name, &program, args.max_cycles));
    let mut reference = match contained(built) {
        Ok(reference) => reference,
        Err(message) => return faulted(message),
    };
    let cells = indices
        .iter()
        .map(|&i| {
            let cfg = CellCfg {
                rate_ppm: rates[(i % rates.len() as u64) as usize],
                seed: args.seed.wrapping_add(i),
                max_cycles: args.max_cycles,
                interval: args.interval,
            };
            (
                i,
                run_inline(|| run_cell(machine, name, &mut reference, cfg)),
            )
        })
        .collect();
    (true, cells)
}

/// Runs `cases` campaign cases, the (kernel, model) pairs in parallel,
/// and hands each case's index and outcome to `record` in case-index
/// order. Returns the number of references built.
fn run_cases(
    args: &Args,
    cases: u64,
    mut record: impl FnMut(u64, CaseOutcome<CellReport>),
) -> Result<u64, String> {
    let (machines, kernels) = selected(args)?;
    let rates = campaign_rates(args);
    let pairs: Vec<_> = pair_groups(cases, kernels.len(), machines.len())
        .into_iter()
        .collect();
    let done = vsp_dse::par_map(
        pairs,
        || (),
        |(), ((k, m), indices)| run_pair(args, &kernels[k], &machines[m], &rates, &indices),
    );
    let mut references = 0u64;
    let mut outcomes = Vec::with_capacity(cases as usize);
    for (built, cells) in done {
        references += u64::from(built);
        outcomes.extend(cells);
    }
    outcomes.sort_unstable_by_key(|&(i, _)| i);
    for (i, outcome) in outcomes {
        record(i, outcome);
    }
    Ok(references)
}

/// Campaign mode: N cells (round-robin over the kernel × model × rate
/// space), each one's panic contained, reconciling report, CI-friendly
/// exit.
fn run_campaign(args: &Args, cases: u64, reg: &mut Registry) -> Result<(), String> {
    let mut report = CampaignReport::default();
    let mut unaccounted = 0u64;
    let mut verdicts: BTreeMap<&'static str, u64> = Default::default();

    let references = run_cases(args, cases, |_, outcome| {
        report.record(&outcome);
        if let Some(cell) = outcome.value() {
            if !cell.accounted {
                unaccounted += 1;
            }
            *verdicts.entry(cell.verdict).or_default() += 1;
            record_cell(reg, cell);
            if args.json {
                println!("{}", json_line(cell));
            }
        }
    })?;
    reg.add("vsp_faults_references_total", &[], references);

    // Harness-level outcome counters alongside the per-cell verdicts.
    for (outcome, n) in [
        ("completed", report.completed),
        ("recovered", report.recovered),
        ("faulted", report.faulted),
        ("timed_out", report.timed_out),
    ] {
        if n > 0 {
            reg.add("vsp_faults_cases_total", &[("outcome", outcome)], n);
        }
    }

    let verdict_summary: Vec<String> = verdicts.iter().map(|(v, n)| format!("{n} {v}")).collect();
    eprintln!("faults: campaign: {report}");
    eprintln!("faults: verdicts: {}", verdict_summary.join(", "));
    if !report.reconciles() {
        return Err("campaign report does not reconcile".into());
    }
    if !report.all_succeeded() {
        return Err(format!(
            "{} case(s) faulted and {} timed out at the harness level",
            report.faulted, report.timed_out
        ));
    }
    if unaccounted > 0 {
        return Err(format!(
            "{unaccounted} case(s) broke the fault-accounting invariant"
        ));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut reg = Registry::new();
    let result = match args.campaign {
        Some(cases) => run_campaign(&args, cases, &mut reg),
        None => run_sweep(&args, &mut reg),
    };
    // The snapshot is written even on a failing run: a snapshot of what
    // went wrong is exactly when the metrics matter.
    if let Some(path) = &args.metrics {
        vsp_bench::metrics_io::write_snapshot(path, &reg.snapshot())?;
        eprintln!("faults: wrote metrics snapshot to {path}");
    }
    result
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) if msg.is_empty() => {
            eprintln!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("faults: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two cases for each of the 6 kernels × 7 models.
    const CASES: u64 = 84;

    /// Every case's outcome, in case-index order, and the number of
    /// references built.
    fn campaign(args: &Args) -> (Vec<CaseOutcome<CellReport>>, u64) {
        let mut outcomes = BTreeMap::new();
        let references = run_cases(args, CASES, |i, outcome| {
            assert!(outcomes.insert(i, outcome).is_none(), "case {i} twice");
        })
        .unwrap();
        assert_eq!(outcomes.len() as u64, CASES);
        (outcomes.into_values().collect(), references)
    }

    /// Grouping is invisible in the results: every case's report equals
    /// the one a fresh per-case compile and golden run gives.
    #[test]
    fn grouped_campaign_matches_a_fresh_reference_per_case() {
        let (machines, kernels) = (models::all_models(), kernels());
        for seed in [7, 11] {
            let args = Args {
                seed,
                ..Args::default()
            };
            let (outcomes, references) = campaign(&args);
            assert_eq!(references, 42);
            for (i, outcome) in (0..CASES).zip(&outcomes) {
                let (name, kernel, unroll) = &kernels[(i % 6) as usize];
                let machine = &machines[((i / 6) % 7) as usize];
                let program = compile(machine, name, kernel, *unroll).unwrap();
                let mut reference =
                    Reference::build(machine, name, &program, args.max_cycles).unwrap();
                let cfg = CellCfg {
                    rate_ppm: [100, 1_000, 10_000][(i % 3) as usize],
                    seed: seed + i,
                    max_cycles: args.max_cycles,
                    interval: args.interval,
                };
                let expected = run_cell(machine, name, &mut reference, cfg);
                assert_eq!(outcome.value(), Some(&expected), "seed {seed}, case {i}");
            }
        }
    }

    /// Every case's report is pinned: a 64-bit FNV-1a over each
    /// `--json` line and its newline, in case order, for the campaign
    /// at two seeds. A simulator change that shifts one fault draw, one
    /// cycle or one verdict changes a checksum.
    #[test]
    fn campaign_json_lines_are_pinned() {
        for (seed, expected) in [(7, 0x0f2b_1dbe_80e6_63bd_u64), (11, 0x5f66_feb8_d29a_9c9c)] {
            let args = Args {
                seed,
                ..Args::default()
            };
            let (outcomes, _) = campaign(&args);
            let checksum = outcomes
                .iter()
                .fold(0xcbf2_9ce4_8422_2325_u64, |h, outcome| {
                    let cell = outcome.value().expect("every case completes");
                    let line = json_line(cell) + "\n";
                    line.bytes().fold(h, |h, b| {
                        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                    })
                });
            assert_eq!(checksum, expected, "seed {seed}: {checksum:#018x}");
        }
    }

    /// A zero-rate campaign injects nothing: every case is `clean` at
    /// its pair's golden cycle count, and the report reconciles.
    #[test]
    fn zero_rate_campaign_is_clean_at_golden_cycles() {
        let args = Args {
            rates: vec![0],
            ..Args::default()
        };
        let (outcomes, references) = campaign(&args);
        assert_eq!(references, 42);
        let mut report = CampaignReport::default();
        for (i, outcome) in outcomes.iter().enumerate() {
            let cell = outcome
                .value()
                .unwrap_or_else(|| panic!("case {i}: {outcome:?}"));
            assert_eq!(cell.rate_ppm, 0, "case {i}");
            assert_eq!(cell.verdict, "clean", "case {i}");
            assert_eq!(cell.cycles, cell.golden_cycles, "case {i}");
            report.record(outcome);
        }
        assert_eq!(report.completed, CASES);
        assert!(report.reconciles());
        assert!(report.all_succeeded());
    }

    #[test]
    fn json_line_is_compact_in_field_order() {
        let cell = CellReport {
            kernel: "sad",
            model: "I4C8S4".into(),
            rate_ppm: 100,
            seed: 7,
            injected: 4,
            detected: 3,
            corrected: 2,
            uncorrectable: 1,
            retries: 5,
            recovery_cycles: 96,
            cycles: 642,
            golden_cycles: 640,
            verdict: "sdc",
            accounted: true,
            checkpoints: 11,
        };
        assert_eq!(
            json_line(&cell),
            concat!(
                r#"{"kernel":"sad","model":"I4C8S4","rate_ppm":100,"seed":7,"injected":4,"#,
                r#""detected":3,"corrected":2,"uncorrectable":1,"retries":5,"#,
                r#""recovery_cycles":96,"cycles":642,"golden_cycles":640,"verdict":"sdc","#,
                r#""accounted":true}"#
            )
        );
    }

    /// A pair whose golden run fails faults every one of its cases, so
    /// the report counts each case exactly once.
    #[test]
    fn failing_references_fault_every_case_of_their_pair() {
        let args = Args {
            max_cycles: 10,
            ..Args::default()
        };
        let (outcomes, references) = campaign(&args);
        assert_eq!(references, 0);
        let mut report = CampaignReport::default();
        for outcome in &outcomes {
            assert!(
                matches!(outcome, CaseOutcome::Faulted { message } if message.contains("golden run failed")),
                "{outcome:?}"
            );
            report.record(outcome);
        }
        assert_eq!(report.total, CASES);
        assert_eq!(report.faulted, CASES);
        assert!(report.reconciles());
    }
}
