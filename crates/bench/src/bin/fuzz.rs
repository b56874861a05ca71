//! Differential fuzzing driver: generate seeded random programs and
//! kernels, run them through every execution path, and report any
//! disagreement as a machine-readable failure with its reproducer seed.
//!
//! ```text
//! cargo run --release -p vsp-bench --bin fuzz -- --cases 1000 --seed 42
//! ```
//!
//! Every case derives its own seed as `seed + case_index`, so a failure
//! printed with `"seed": N` replays exactly with `--cases 1 --seed N`.
//! Cases rotate round-robin over the selected machine models; every
//! fourth case is a kernel-oracle case (IR interpreter as semantic
//! reference), every eighth a strategy-pipeline case (a generated
//! kernel compiled through a random catalog [`vsp_kernels::strategies`]
//! recipe with the independent schedule checker validating every pass),
//! the rest are raw-program differentials: one fast-path run
//! ([`ProgramReference`]) against which the interpretive path and, with
//! `--batch` / `--functional`, the batch lanes and the functional tier
//! are checked.
//!
//! Cases run inline on [`vsp_dse::par_map`] workers, each worker with
//! one batch engine per model for its lifetime. Results are folded in
//! case-index order, so every output is the same at any core count.

use std::process::ExitCode;
use vsp_check::gen::{gen_kernel, gen_program, KernelGenConfig, ProgramGenConfig};
use vsp_check::oracle::{diff_kernel, DiffFailure, FunctionalOutcome, ProgramReference};
use vsp_check::validity::check_program;
use vsp_check::ScheduleValidator;
use vsp_core::{models, MachineConfig};
use vsp_fault::{run_inline, CampaignReport, CaseOutcome};
use vsp_kernels::strategies;
use vsp_sched::{compile_with, CompileOptions, SchedError, Strategy};
use vsp_sim::{BatchSimulator, RunStats};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vsp_metrics::{json_str, Recorder, Registry};

const USAGE: &str = "usage: fuzz [options]

Differential fuzzing: seeded random programs and kernels, executed
through the simulator fast path, the interpretive path and (for
kernels) the IR interpreter, with all paths required to agree.

Cases run in parallel on every core, and the output is the same at
any core count. A case that panics is contained on its worker and
reported with its reproducer seed, exactly like a divergence. The
per-case cycle watchdog (--max-cycles) bounds simulated time.

options:
  --cases N        number of cases to run (default 200)
  --seed N         base seed; case i uses seed N+i (default 42)
  --model NAME     restrict to one machine model (default: all models)
  --max-cycles N   per-case simulated-cycle watchdog (default 1000000)
  --batch N        replay each program case on the SoA lockstep batch
                   engine with N lanes, all required to match the scalar
                   fast path bit-for-bit (default: off)
  --functional     replay each program case on the functional execution
                   tier: accepted programs must match the fast path's
                   architectural state bit-for-bit, refusals are counted
                   (vsp_exec_diff_cases_total), never failures
                   (default: off)
  --json           emit failures as JSON objects on stdout
  --metrics PATH   write a metrics snapshot on exit: per-kind case and
                   failure counters, simulated cycle/op totals (.prom
                   gets Prometheus text, anything else JSON)
  -h, --help       this text";

struct Args {
    cases: u64,
    seed: u64,
    model: Option<String>,
    max_cycles: u64,
    batch: Option<usize>,
    functional: bool,
    json: bool,
    metrics: Option<String>,
}

/// One failed case, as printed.
#[derive(Debug)]
struct FailureReport {
    /// Reproducer: `fuzz --cases 1 --seed <seed> --model <model>`.
    seed: u64,
    model: String,
    kind: &'static str,
    failure: DiffFailure,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cases: 200,
        seed: 42,
        model: None,
        max_cycles: 1_000_000,
        batch: None,
        functional: false,
        json: false,
        metrics: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--cases" => {
                args.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--model" => args.model = Some(value("--model")?),
            "--max-cycles" => {
                args.max_cycles = value("--max-cycles")?
                    .parse()
                    .map_err(|e| format!("--max-cycles: {e}"))?
            }
            "--batch" => {
                let n: usize = value("--batch")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?;
                if n == 0 {
                    return Err("--batch: need at least one lane".into());
                }
                args.batch = Some(n);
            }
            "--functional" => args.functional = true,
            "--json" => args.json = true,
            "--metrics" => args.metrics = Some(value("--metrics")?),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// One failure as a compact `--json` line; `failure` is the
/// [`DiffFailure`]'s `Display` text.
fn json_line(report: &FailureReport) -> String {
    format!(
        "{{\"seed\":{},\"model\":{},\"kind\":{},\"failure\":{}}}",
        report.seed,
        json_str(&report.model),
        json_str(report.kind),
        json_str(&report.failure.to_string()),
    )
}

fn emit(report: &FailureReport, json: bool) {
    if json {
        println!("{}", json_line(report));
    } else {
        println!(
            "FAIL seed={} model={} kind={}: {}",
            report.seed, report.model, report.kind, report.failure
        );
    }
}

/// A strategy-pipeline fuzz case: compile a generated flat-loop kernel
/// through a random catalog recipe with the independent schedule
/// checker validating after every pass. A kernel that legitimately does
/// not fit the recipe or machine (unschedulable, misconfigured unroll)
/// is fine; a validator rejection means a scheduler emitted a schedule
/// that violates the machine description — a real bug.
fn pipeline_case(
    machine: &MachineConfig,
    catalog: &[Strategy],
    rng: &mut SmallRng,
) -> Result<RunStats, (&'static str, DiffFailure)> {
    let kernel = gen_kernel(rng, &KernelGenConfig::default()).kernel;
    let strategy = &catalog[rng.gen_range(0..catalog.len())];
    let validator = ScheduleValidator;
    let mut options = CompileOptions {
        validator: Some(&validator),
        ..Default::default()
    };
    match compile_with(&kernel, machine, strategy, &mut options) {
        Ok(_) => Ok(RunStats::default()),
        Err(SchedError::Pipeline {
            pass: "validate",
            detail,
        }) => Err((
            "pipeline",
            DiffFailure::StateDiverged {
                detail: format!(
                    "strategy {}: schedule checker rejected: {detail}",
                    strategy.name
                ),
            },
        )),
        // Any other error is an honest "does not fit" outcome.
        Err(_) => Ok(RunStats::default()),
    }
}

/// What one case hands the fold: the simulated cycles and operations
/// and the functional tier's outcome, or the failing kind and failure.
type CaseResult = Result<(u64, u64, Option<FunctionalOutcome>), (&'static str, DiffFailure)>;

/// Case `i`'s kind: every fourth a kernel-oracle case, every eighth a
/// strategy-pipeline case, the rest raw programs.
fn case_kind(i: u64) -> &'static str {
    if i % 4 == 3 {
        "kernel"
    } else if i % 8 == 1 {
        "pipeline"
    } else {
        "program"
    }
}

/// Runs case `i` on `machine`: generation, validity check, differential
/// execution, with `engine` (built for `machine`) for the batch lanes
/// and `catalog` (the strategy catalog, built once per run) for the
/// pipeline cases.
fn run_one(
    args: &Args,
    machine: &MachineConfig,
    catalog: &[Strategy],
    engine: &mut BatchSimulator,
    i: u64,
) -> CaseResult {
    let mut rng = SmallRng::seed_from_u64(args.seed.wrapping_add(i));
    let stats = match case_kind(i) {
        "kernel" => {
            let kernel = gen_kernel(&mut rng, &KernelGenConfig::default());
            let data: Vec<i16> = (0..kernel.len)
                .map(|_| rng.gen_range(-100i16..=100))
                .collect();
            diff_kernel(machine, &kernel, &data, args.max_cycles).map_err(|f| ("kernel", f))?
        }
        "pipeline" => pipeline_case(machine, catalog, &mut rng)?,
        _ => return program_case(args, machine, engine, &mut rng),
    };
    Ok((stats.cycles, stats.total_ops(), None))
}

/// A raw-program case: one fast-path run is the reference every other
/// tier is checked against.
fn program_case(
    args: &Args,
    machine: &MachineConfig,
    engine: &mut BatchSimulator,
    rng: &mut SmallRng,
) -> CaseResult {
    let program = gen_program(machine, rng, &ProgramGenConfig::default());
    // The generator's own claim, checked independently before
    // execution: a hazard here is a generator bug, not a simulator bug,
    // and must be reported as such.
    let hazards = check_program(machine, &program);
    if !hazards.is_empty() {
        return Err((
            "generator",
            DiffFailure::StateDiverged {
                detail: format!("generator emitted invalid program: {}", hazards[0]),
            },
        ));
    }
    let reference = ProgramReference::new(machine, &program, args.max_cycles, &[])
        .map_err(|f| ("program", f))?;
    let stats = reference.check_interp().map_err(|f| ("program", f))?;
    // With --batch, the same program must also replay bit-identically
    // on N lockstep batch lanes.
    if let Some(lanes) = args.batch {
        reference
            .check_batch(engine, lanes)
            .map_err(|f| ("batch", f))?;
    }
    // With --functional, the functional tier joins the oracle: a
    // lowered program must reproduce the fast path's architectural
    // state exactly; a refusal is a legitimate outcome, counted but
    // never a failure.
    let func = if args.functional {
        Some(
            reference
                .check_functional()
                .map_err(|f| ("functional", f))?,
        )
    } else {
        None
    };
    Ok((stats.cycles, stats.total_ops(), func))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let machines: Vec<_> = match &args.model {
        Some(name) => {
            let m = models::by_name(name).ok_or_else(|| format!("unknown model {name}"))?;
            vec![m]
        }
        None => models::all_models(),
    };
    let model_of = |i: u64| (i % machines.len() as u64) as usize;
    let catalog = strategies::catalog();

    // Every case runs inline on a worker, its panic contained there.
    let outcomes = vsp_dse::par_map(
        (0..args.cases).collect(),
        || machines.iter().map(BatchSimulator::new).collect::<Vec<_>>(),
        |engines, i| {
            let m = model_of(i);
            run_inline(|| run_one(&args, &machines[m], &catalog, &mut engines[m], i))
        },
    );

    let mut campaign = CampaignReport::default();
    let mut reg = Registry::new();
    let mut failures: Vec<FailureReport> = Vec::new();
    let mut programs = 0u64;
    let mut kernels = 0u64;
    let mut pipelines = 0u64;
    let mut func_agreed = 0u64;
    let mut func_refused = 0u64;
    let mut total_cycles = 0u64;
    let mut total_ops = 0u64;

    for (i, outcome) in (0..).zip(outcomes) {
        let model_name = machines[model_of(i)].name.as_str();
        let case_kind = case_kind(i);
        match case_kind {
            "kernel" => kernels += 1,
            "pipeline" => pipelines += 1,
            _ => programs += 1,
        }
        reg.add(
            "vsp_fuzz_cases_total",
            &[("kind", case_kind), ("model", model_name)],
            1,
        );

        campaign.record(&outcome);
        let result = match outcome {
            CaseOutcome::Faulted { message } => Err((
                "panic",
                DiffFailure::StateDiverged {
                    detail: format!("case panicked: {message}"),
                },
            )),
            done => done
                .into_value()
                .expect("an inline case completes or faults"),
        };

        match result {
            Ok((cycles, ops, func)) => {
                total_cycles += cycles;
                total_ops += ops;
                reg.observe("vsp_fuzz_case_cycles", &[("kind", case_kind)], cycles);
                match func {
                    Some(FunctionalOutcome::Agreed { .. }) => {
                        func_agreed += 1;
                        reg.add("vsp_exec_diff_cases_total", &[("outcome", "agreed")], 1);
                    }
                    Some(FunctionalOutcome::Refused { .. }) => {
                        func_refused += 1;
                        reg.add("vsp_exec_diff_cases_total", &[("outcome", "refused")], 1);
                    }
                    None => {}
                }
            }
            Err((kind, failure)) => {
                reg.add(
                    "vsp_fuzz_failures_total",
                    &[("kind", kind), ("model", model_name)],
                    1,
                );
                let report = FailureReport {
                    seed: args.seed.wrapping_add(i),
                    model: model_name.to_string(),
                    kind,
                    failure,
                };
                emit(&report, args.json);
                failures.push(report);
            }
        }
    }

    reg.add("vsp_fuzz_sim_cycles_total", &[], total_cycles);
    reg.add("vsp_fuzz_sim_ops_total", &[], total_ops);
    for (outcome, n) in [
        ("completed", campaign.completed),
        ("recovered", campaign.recovered),
        ("faulted", campaign.faulted),
        ("timed_out", campaign.timed_out),
    ] {
        if n > 0 {
            reg.add("vsp_fuzz_harness_cases_total", &[("outcome", outcome)], n);
        }
    }
    if let Some(path) = &args.metrics {
        vsp_bench::metrics_io::write_snapshot(path, &reg.snapshot())?;
        eprintln!("fuzz: wrote metrics snapshot to {path}");
    }

    eprintln!(
        "fuzz: {} cases ({programs} programs, {kernels} kernels, {pipelines} pipelines) \
         over {} model(s); {total_cycles} cycles, {total_ops} ops simulated; {} failure(s)",
        args.cases,
        machines.len(),
        failures.len()
    );
    if args.functional {
        eprintln!(
            "fuzz: functional tier: {func_agreed} agreed, {func_refused} refused \
             (refusals are sound fallbacks, not failures)"
        );
    }
    eprintln!("fuzz: harness: {campaign}");
    if !campaign.reconciles() {
        return Err("campaign report does not reconcile (internal harness bug)".to_string());
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} cases diverged (reproduce any with --cases 1 --seed <seed> --model <model>)",
            failures.len(),
            args.cases
        ))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) if msg.is_empty() => {
            eprintln!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("fuzz: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_escapes_the_failure_message() {
        let report = FailureReport {
            seed: 42,
            model: "I4C8S4".into(),
            kind: "kernel",
            failure: DiffFailure::Interp {
                error: "bad \"idx\" at C:\\tmp\nnext".into(),
            },
        };
        assert_eq!(
            json_line(&report),
            r#"{"seed":42,"model":"I4C8S4","kind":"kernel","failure":"IR interpreter failed: bad \"idx\" at C:\\tmp\nnext"}"#
        );
    }
}
