//! The unified compilation pipeline: declarative [`Strategy`] recipes
//! run as straight code over a [`CompilationUnit`].
//!
//! Every Table 1/Table 2 row of the paper is a *progression of compiler
//! techniques* applied to a kernel on a machine: unroll, predicate,
//! clean up, lower, then list- or modulo-schedule. Historically those
//! progressions were hand-wired per row; here they are data. A
//! [`Strategy`] names an ordered recipe of [`PassConfig`]s plus a
//! [`SchedulerChoice`], [`compile`] runs it, and the result carries the
//! schedule artifact plus a per-pass [`PipelineReport`].
//!
//! A compile runs in two stages. [`transform`] applies the recipe's IR
//! passes to the kernel, one `match` arm per [`PassConfig`], and reads no
//! machine; [`lower_and_schedule`] lowers the transformed kernel (list
//! and modulo backends) and schedules it on one. [`compile_with`] is the
//! two run back to back, and a driver that compiles one kernel for many
//! machines (`vsp_kernels::variants`) runs the first stage once per
//! (kernel, passes) and the second once per machine shape.
//!
//! After every pass, in either stage, one shared step records a
//! [`PassRecord`], emits a [`TraceEvent::PassComplete`] decision event,
//! feeds the options' metrics recorder and consults the optional
//! [`PipelineValidator`]. [`compile`] and [`compile_with`] are the one
//! entry point every driver (`tables`, `trace`, `fuzz`, `faults`,
//! `explore-strategies`) uses.
//!
//! The sequential cost walk and the lowering recipe reproduce the
//! pre-pipeline `vsp-kernels` row machinery exactly, so the emitted
//! tables are byte-identical to their hand-wired ancestors (pinned by a
//! golden test in `vsp-bench`).

use crate::error::SchedError;
use crate::list::{list_schedule_traced, ListSchedule};
use crate::lower::{lower_body, ArrayLayout};
use crate::modulo::{modulo_schedule_traced, ModuloSchedule};
use crate::vop::{LoweredBody, VopDeps};
use std::sync::Arc;
use vsp_core::MachineConfig;
use vsp_ir::transform::{
    eliminate_common_subexpressions, fully_unroll_innermost, hoist_invariants, if_convert,
    reduce_strength, try_unroll_innermost,
};
use vsp_ir::{Kernel, Stmt};
use vsp_isa::{AluBinOp, CmpOp, OpKind, Operand, Pred, Reg};
use vsp_trace::{NullSink, PipelinePass, TraceEvent, TraceSink};

// ---------------------------------------------------------------------
// Strategy: the declarative recipe
// ---------------------------------------------------------------------

/// One configured transform in a [`Strategy`] recipe.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PassConfig {
    /// Unroll innermost loops: by `Some(factor)` (strict — a
    /// non-divisible trip count is a compile error), or fully when
    /// `None`.
    Unroll {
        /// Partial-unroll factor; `None` fully unrolls.
        factor: Option<u32>,
    },
    /// If-conversion: conditionals become guarded straight-line code.
    IfConvert,
    /// Common-subexpression elimination.
    Cse,
    /// Loop-invariant code motion.
    Licm,
    /// Strength reduction and algebraic simplification.
    StrengthReduce,
    /// Remove assignments to the named variables (e.g. the direct DCT's
    /// `acc_hi` double-precision retention chain under the paper's
    /// arithmetic optimization).
    StripVars {
        /// Variable names whose assignments are dropped.
        vars: Vec<String>,
    },
}

/// Which part of the transformed kernel the scheduler sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleScope {
    /// Lower and schedule the whole (flattened) kernel body.
    WholeBody,
    /// Lower and schedule the body of the first remaining loop; its trip
    /// count is recorded as [`CompileResult::scheduled_trip`].
    FirstLoop,
}

/// Which scheduling backend finishes the strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerChoice {
    /// The paper's sequential baseline: one operation per instruction,
    /// loops paying close + unfilled-delay-slot overhead. Always walks
    /// the whole kernel (scope is ignored).
    Sequential,
    /// Resource- and latency-constrained list scheduling.
    List {
        /// Clusters the schedule may spread over.
        clusters_used: u32,
    },
    /// Iterative modulo scheduling (software pipelining).
    Modulo {
        /// Clusters the schedule may spread over.
        clusters_used: u32,
        /// II search budget above MII.
        ii_search: u32,
    },
}

/// A named compilation recipe: ordered passes, a scope,
/// and a scheduler choice.
///
/// ```
/// use vsp_sched::pipeline::{PassConfig, ScheduleScope, SchedulerChoice, Strategy};
/// let s = Strategy::new("swp", ScheduleScope::FirstLoop,
///                       SchedulerChoice::Modulo { clusters_used: 1, ii_search: 64 })
///     .then(PassConfig::Unroll { factor: None })
///     .then(PassConfig::Cse);
/// assert_eq!(s.passes.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Strategy {
    /// Human-readable recipe name (stable; used in reports and sweeps).
    pub name: String,
    /// Transform passes, applied in order before lowering.
    pub passes: Vec<PassConfig>,
    /// What the scheduler sees.
    pub scope: ScheduleScope,
    /// The scheduling backend.
    pub scheduler: SchedulerChoice,
    /// How lowering treats loop control (defaults to
    /// [`LoopControlMode::Folded`], the Table 1 cost model).
    pub loop_control: LoopControlMode,
}

/// How the lowering pass accounts for loop control.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum LoopControlMode {
    /// Fold the induction increment and bounds compare into the
    /// scheduled body — the Table 1/2 cycle model, where the branch
    /// issues from the decoupled control slot.
    #[default]
    Folded,
    /// Leave loop control out of the scheduled body;
    /// [`crate::codegen_loop`] appends explicit counter/branch code
    /// after the body instead. Use for strategies whose schedule feeds
    /// code generation and simulation.
    Codegen,
}

impl Strategy {
    /// An empty recipe with the given name, scope and scheduler.
    pub fn new(
        name: impl Into<String>,
        scope: ScheduleScope,
        scheduler: SchedulerChoice,
    ) -> Strategy {
        Strategy {
            name: name.into(),
            passes: Vec::new(),
            scope,
            scheduler,
            loop_control: LoopControlMode::Folded,
        }
    }

    /// Appends a pass to the recipe (builder style).
    #[must_use]
    pub fn then(mut self, pass: PassConfig) -> Strategy {
        self.passes.push(pass);
        self
    }

    /// Marks the recipe as feeding code generation: lowering leaves
    /// loop control to [`crate::codegen_loop`] instead of folding it
    /// into the scheduled body.
    #[must_use]
    pub fn for_codegen(mut self) -> Strategy {
        self.loop_control = LoopControlMode::Codegen;
        self
    }
}

// ---------------------------------------------------------------------
// CompilationUnit: the thing passes transform
// ---------------------------------------------------------------------

/// The state the compile stages thread through their passes: the
/// kernel IR being transformed, the target machine, and the artifacts
/// accumulated by lowering and scheduling.
#[derive(Debug, Clone)]
pub struct CompilationUnit {
    /// The kernel, rewritten by IR passes (each copies it on write, so a
    /// transformed kernel is shared with the units that lower it).
    pub kernel: Arc<Kernel>,
    /// The machine being compiled for: `None` through the IR passes,
    /// which read none, and set by [`lower_and_schedule`].
    pub machine: Option<MachineConfig>,
    /// Lowered virtual operations (set by the lowering pass).
    pub lowered: Option<LoweredBody>,
    /// Dependence graph over `lowered` (set by the lowering pass).
    pub deps: Option<VopDeps>,
    /// Trip count of the scheduled loop under
    /// [`ScheduleScope::FirstLoop`].
    pub scheduled_trip: Option<u64>,
    /// The finished schedule (set by the scheduling pass).
    pub schedule: Option<ScheduleArtifact>,
}

impl CompilationUnit {
    /// A fresh unit for the IR passes: the kernel, no machine and no
    /// artifacts yet.
    pub fn new(kernel: Kernel) -> CompilationUnit {
        CompilationUnit {
            kernel: Arc::new(kernel),
            machine: None,
            lowered: None,
            deps: None,
            scheduled_trip: None,
            schedule: None,
        }
    }

    /// Recursive statement count of the kernel body (per-pass stat).
    pub fn stmt_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::Loop(l) => 1 + count(&l.body),
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => 1 + count(then_body) + count(else_body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.kernel.body)
    }

    /// Lowered operation count (0 until the lowering pass has run).
    pub fn vop_count(&self) -> usize {
        self.lowered.as_ref().map_or(0, |b| b.ops.len())
    }
}

/// The finished schedule a strategy produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleArtifact {
    /// Sequential baseline: total cycles of the whole-kernel walk.
    Sequential {
        /// Cycles for one execution of the kernel.
        cycles: u64,
    },
    /// A list schedule of the lowered scope.
    List(ListSchedule),
    /// A modulo schedule of the lowered scope.
    Modulo(ModuloSchedule),
}

// ---------------------------------------------------------------------
// Validation hook and the passes
// ---------------------------------------------------------------------

/// Post-pass validation hook.
///
/// `vsp-check` implements this (it depends on `vsp-sched`, so the trait
/// lives here to avoid a dependency cycle): after every pass the
/// pipeline hands the unit over, and any returned violation string
/// fails the compile with [`SchedError::Pipeline`].
pub trait PipelineValidator {
    /// Checks the unit after the named pass; an empty vector means
    /// valid.
    fn validate(&self, unit: &CompilationUnit, pass: &str) -> Vec<String>;
}

impl PassConfig {
    /// The trace-vocabulary kind of the pass; its
    /// [`PipelinePass::name`] labels the pass's records, events and
    /// metrics.
    fn kind(&self) -> PipelinePass {
        match self {
            PassConfig::Unroll { factor: Some(_) } => PipelinePass::Unroll,
            PassConfig::Unroll { factor: None } => PipelinePass::FullUnroll,
            PassConfig::IfConvert => PipelinePass::IfConvert,
            PassConfig::Cse => PipelinePass::Cse,
            PassConfig::Licm => PipelinePass::Licm,
            PassConfig::StrengthReduce => PipelinePass::StrengthReduce,
            PassConfig::StripVars { .. } => PipelinePass::StripVars,
        }
    }

    /// Applies the pass to `kernel`.
    fn apply(&self, kernel: &mut Kernel) -> Result<(), SchedError> {
        match self {
            PassConfig::Unroll { factor: Some(f) } => {
                try_unroll_innermost(kernel, *f).map_err(|e| SchedError::Pipeline {
                    pass: "unroll",
                    detail: e.to_string(),
                })?;
            }
            PassConfig::Unroll { factor: None } => {
                fully_unroll_innermost(kernel);
            }
            PassConfig::IfConvert => {
                if_convert(kernel);
            }
            PassConfig::Cse => {
                eliminate_common_subexpressions(kernel);
            }
            PassConfig::Licm => {
                hoist_invariants(kernel);
            }
            PassConfig::StrengthReduce => {
                reduce_strength(kernel);
            }
            PassConfig::StripVars { vars } => strip_vars(kernel, vars),
        }
        Ok(())
    }
}

/// Removes every assignment to one of the named variables.
fn strip_vars(kernel: &mut Kernel, vars: &[String]) {
    let hit: Vec<vsp_ir::VarId> = kernel
        .var_names
        .iter()
        .enumerate()
        .filter(|(_, n)| vars.iter().any(|v| v == *n))
        .map(|(i, _)| vsp_ir::VarId(i as u32))
        .collect();
    fn strip(stmts: &mut Vec<Stmt>, hit: &[vsp_ir::VarId]) {
        stmts.retain_mut(|s| match s {
            Stmt::Assign { dst, .. } => !hit.contains(dst),
            Stmt::Loop(l) => {
                strip(&mut l.body, hit);
                true
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                strip(then_body, hit);
                strip(else_body, hit);
                true
            }
            _ => true,
        });
    }
    strip(&mut kernel.body, &hit);
}

/// The lowering pass: lowers the strategy's scope of the unit's kernel
/// for `machine` and builds the dependence graph over it.
fn lower(
    unit: &mut CompilationUnit,
    machine: &MachineConfig,
    strategy: &Strategy,
) -> Result<(), SchedError> {
    let (body, trip): (&[Stmt], Option<u64>) = match strategy.scope {
        ScheduleScope::WholeBody => (&unit.kernel.body, None),
        ScheduleScope::FirstLoop => {
            let l = unit
                .kernel
                .body
                .iter()
                .find_map(|s| match s {
                    Stmt::Loop(l) => Some(l),
                    _ => None,
                })
                .ok_or_else(|| SchedError::Pipeline {
                    pass: "lower",
                    detail: "FirstLoop scope but the kernel has no top-level loop".into(),
                })?;
            (&l.body, Some(u64::from(l.trip)))
        }
    };
    let layout = ArrayLayout::contiguous(&unit.kernel, machine)?;
    let mut lowered = lower_body(machine, &unit.kernel, body, &layout)?;
    if strategy.loop_control == LoopControlMode::Folded {
        append_loop_control(&mut lowered);
    }
    unit.deps = Some(VopDeps::build(machine, &lowered));
    unit.lowered = Some(lowered);
    unit.scheduled_trip = trip;
    Ok(())
}

/// The scheduling pass: the strategy's backend over the unit, lowered
/// by [`lower`] unless the backend is sequential.
fn schedule(
    unit: &CompilationUnit,
    machine: &MachineConfig,
    choice: SchedulerChoice,
    sink: &mut dyn TraceSink,
) -> Result<ScheduleArtifact, SchedError> {
    let lowered = unit.lowered.as_ref().zip(unit.deps.as_ref());
    Ok(match (choice, lowered) {
        (SchedulerChoice::Sequential, _) => ScheduleArtifact::Sequential {
            cycles: sequential_kernel_cycles(machine, &unit.kernel)?,
        },
        (SchedulerChoice::List { clusters_used }, Some((body, deps))) => {
            let s = list_schedule_traced(machine, body, deps, clusters_used, sink).ok_or_else(
                || SchedError::Unschedulable {
                    scheduler: "list",
                    detail: format!(
                        "{} ops on {} across {clusters_used} cluster(s): \
                         some operation has no capable slot",
                        body.ops.len(),
                        machine.name
                    ),
                },
            )?;
            ScheduleArtifact::List(s)
        }
        (
            SchedulerChoice::Modulo {
                clusters_used,
                ii_search,
            },
            Some((body, deps)),
        ) => {
            let s = modulo_schedule_traced(machine, body, deps, clusters_used, ii_search, sink)
                .ok_or_else(|| SchedError::Unschedulable {
                    scheduler: "modulo",
                    detail: format!(
                        "{} ops on {} across {clusters_used} cluster(s): \
                         no feasible II within {ii_search} steps above MII",
                        body.ops.len(),
                        machine.name
                    ),
                })?;
            ScheduleArtifact::Modulo(s)
        }
        (_, None) => unreachable!("lower_and_schedule lowers before a list or modulo schedule"),
    })
}

// ---------------------------------------------------------------------
// Shared lowering/cost machinery (exact port of the row machinery)
// ---------------------------------------------------------------------

/// Appends the folded loop-control operations (induction increment and
/// bounds compare) that live inside every scheduled loop body; the
/// branch itself issues from the decoupled control slot.
fn append_loop_control(body: &mut LoweredBody) {
    let ctr = Reg(body.vregs);
    body.vregs += 1;
    let pred = Pred(body.vpreds);
    body.vpreds += 1;
    body.ops.push(crate::vop::VOp {
        kind: OpKind::AluBin {
            op: AluBinOp::Add,
            dst: ctr,
            a: Operand::Reg(ctr),
            b: Operand::Imm(1),
        },
        guard: None,
        src_stmt: usize::MAX,
    });
    body.ops.push(crate::vop::VOp {
        kind: OpKind::Cmp {
            op: CmpOp::Lt,
            dst: pred,
            a: Operand::Reg(ctr),
            b: Operand::Imm(i16::MAX),
        },
        guard: None,
        src_stmt: usize::MAX,
    });
}

/// Sequential cycles of a whole kernel: one operation per instruction,
/// loops paying close + unfilled-delay-slot overhead — the paper's
/// "baseline implementation ... limited to one operation per
/// instruction".
///
/// # Errors
///
/// [`SchedError::Lower`] when a straight-line run cannot be lowered
/// (kernel working set vs. machine memory).
fn sequential_kernel_cycles(machine: &MachineConfig, kernel: &Kernel) -> Result<u64, SchedError> {
    fn walk(machine: &MachineConfig, kernel: &Kernel, stmts: &[Stmt]) -> Result<u64, SchedError> {
        let mut cycles = 0u64;
        let mut run: Vec<Stmt> = Vec::new();
        fn flush(
            machine: &MachineConfig,
            kernel: &Kernel,
            run: &mut Vec<Stmt>,
            cycles: &mut u64,
        ) -> Result<(), SchedError> {
            if !run.is_empty() {
                let layout = ArrayLayout::contiguous(kernel, machine)?;
                let lowered = lower_body(machine, kernel, run, &layout)?;
                *cycles += lowered.ops.len() as u64;
                run.clear();
            }
            Ok(())
        }
        for s in stmts {
            match s {
                Stmt::Assign { .. } | Stmt::Store { .. } => run.push(s.clone()),
                Stmt::Loop(l) => {
                    flush(machine, kernel, &mut run, &mut cycles)?;
                    let body = walk(machine, kernel, &l.body)?;
                    cycles += sequential_iteration(machine, body) * u64::from(l.trip);
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    flush(machine, kernel, &mut run, &mut cycles)?;
                    // Sequential branching: test + average of the arms +
                    // taken-branch delay.
                    let t = walk(machine, kernel, then_body)?;
                    let e = walk(machine, kernel, else_body)?;
                    cycles += 2 + (t + e) / 2 + u64::from(machine.pipeline.branch_delay_slots);
                }
            }
        }
        flush(machine, kernel, &mut run, &mut cycles)?;
        Ok(cycles)
    }
    walk(machine, kernel, &kernel.body)
}

/// Per-iteration sequential cost of a loop whose body costs `body`
/// cycles: close (index update + compare) plus unfilled delay slots.
fn sequential_iteration(machine: &MachineConfig, body: u64) -> u64 {
    let delay = u64::from(machine.pipeline.branch_delay_slots);
    let fillable = body.saturating_sub(2).min(delay);
    body + 2 + (delay - fillable)
}

// ---------------------------------------------------------------------
// The per-pass step + compile()
// ---------------------------------------------------------------------

/// Post-pass snapshot recorded after every pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassRecord {
    /// Trace-vocabulary kind of the pass ([`PipelinePass::name`] is its
    /// stable name).
    pub kind: PipelinePass,
    /// IR statements in the kernel after the pass.
    pub stmts: usize,
    /// Lowered virtual operations after the pass (0 until lowering).
    pub vops: usize,
}

/// Per-pass statistics for one pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// One record per executed pass, in execution order.
    pub passes: Vec<PassRecord>,
}

/// Optional hooks for [`compile_with`]: a trace sink receiving pass and
/// scheduler decision events, a post-pass validator, and a metrics
/// recorder self-profiling the pipeline.
#[derive(Default)]
pub struct CompileOptions<'a> {
    /// Receives [`TraceEvent::PassComplete`] per pass plus the
    /// scheduler decision logs of the final pass.
    pub sink: Option<&'a mut dyn TraceSink>,
    /// Consulted after every pass; violations fail the compile.
    pub validator: Option<&'a dyn PipelineValidator>,
    /// Receives per-pass wall time (`vsp_sched_pass_micros{pass=...}`)
    /// and schedule-quality deltas (`vsp_sched_pass_stmts_delta`,
    /// `vsp_sched_pass_vops_delta`) as the pipeline runs.
    pub recorder: Option<&'a mut dyn vsp_metrics::Recorder>,
}

/// Runs one pass over `unit`, then does what every pass shares, in this
/// order: emits a [`TraceEvent::PassComplete`] (numbered after the
/// records already in `report`) into the options sink, records the
/// pass's time and size deltas with the options recorder, appends a
/// [`PassRecord`] to `report`, and asks the options validator to check
/// the unit.
///
/// # Errors
///
/// The pass's error, or [`SchedError::Pipeline`] when the validator
/// reports violations.
fn run_pass(
    kind: PipelinePass,
    unit: &mut CompilationUnit,
    options: &mut CompileOptions<'_>,
    report: &mut PipelineReport,
    pass: impl FnOnce(&mut CompilationUnit, &mut dyn TraceSink) -> Result<(), SchedError>,
) -> Result<(), SchedError> {
    let seq = report.passes.len() as u32;
    let before = (unit.stmt_count(), unit.vop_count());
    let watch = vsp_metrics::Stopwatch::start();
    let mut null = NullSink;
    let sink: &mut dyn TraceSink = match options.sink.as_mut() {
        Some(s) => &mut **s,
        None => &mut null,
    };
    pass(unit, sink)?;
    let record = PassRecord {
        kind,
        stmts: unit.stmt_count(),
        vops: unit.vop_count(),
    };
    if sink.enabled() {
        sink.emit(TraceEvent::PassComplete {
            seq,
            pass: kind,
            stmts: record.stmts as u32,
            vops: record.vops as u32,
        });
    }
    if let Some(rec) = options.recorder.as_mut() {
        if rec.enabled() {
            let labels = [("pass", kind.name())];
            rec.observe("vsp_sched_pass_micros", &labels, watch.elapsed_micros());
            rec.add("vsp_sched_passes_total", &labels, 1);
            // Quality deltas: how much each technique grew or shrank the
            // kernel and its lowered form.
            rec.gauge(
                "vsp_sched_pass_stmts_delta",
                &labels,
                record.stmts as f64 - before.0 as f64,
            );
            rec.gauge(
                "vsp_sched_pass_vops_delta",
                &labels,
                record.vops as f64 - before.1 as f64,
            );
        }
    }
    report.passes.push(record);
    if let Some(v) = options.validator {
        let violations = v.validate(unit, kind.name());
        if !violations.is_empty() {
            return Err(SchedError::Pipeline {
                pass: "validate",
                detail: format!(
                    "{} violation(s) after pass {}: {}",
                    violations.len(),
                    kind.name(),
                    violations.join("; ")
                ),
            });
        }
    }
    Ok(())
}

/// Everything a strategy produced for one kernel on one machine.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The kernel after all IR passes.
    pub kernel: Arc<Kernel>,
    /// Lowered scope body (absent for the sequential backend).
    pub lowered: Option<LoweredBody>,
    /// Dependence graph over `lowered`.
    pub deps: Option<VopDeps>,
    /// The schedule the strategy's backend produced.
    pub schedule: ScheduleArtifact,
    /// Trip count of the scheduled loop ([`ScheduleScope::FirstLoop`]).
    pub scheduled_trip: Option<u64>,
    /// Per-pass statistics.
    pub report: PipelineReport,
}

impl CompileResult {
    /// The scalars cycle composition reads from this result: sequential
    /// cycles, II, schedule length and cycles per trip count.
    pub fn summary(&self) -> ScheduleSummary {
        let backend = match &self.schedule {
            ScheduleArtifact::Sequential { cycles } => {
                SummaryBackend::Sequential { cycles: *cycles }
            }
            ScheduleArtifact::List(l) => SummaryBackend::List { length: l.length },
            ScheduleArtifact::Modulo(m) => SummaryBackend::Modulo {
                ii: m.ii,
                length: m.length,
            },
        };
        ScheduleSummary {
            backend,
            scheduled_trip: self.scheduled_trip,
        }
    }
}

/// The few scalars of a [`CompileResult`] that frame-cycle composition
/// reads: sequential cycles or schedule length, II, and the scheduled
/// trip count. `Copy` and a few words wide, so drivers can keep one per
/// (kernel, strategy, [`crate::CompileShape`]) without holding schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleSummary {
    backend: SummaryBackend,
    scheduled_trip: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SummaryBackend {
    Sequential { cycles: u64 },
    List { length: u32 },
    Modulo { ii: u32, length: u32 },
}

impl ScheduleSummary {
    /// Sequential-backend cycles (whole kernel, one execution).
    pub fn seq_cycles(&self) -> Option<u64> {
        match self.backend {
            SummaryBackend::Sequential { cycles } => Some(cycles),
            _ => None,
        }
    }

    /// Achieved initiation interval (modulo backend only).
    pub fn ii(&self) -> Option<u64> {
        match self.backend {
            SummaryBackend::Modulo { ii, .. } => Some(u64::from(ii)),
            _ => None,
        }
    }

    /// Schedule length in cycles (list or modulo backend).
    pub fn length(&self) -> Option<u64> {
        match self.backend {
            SummaryBackend::List { length } | SummaryBackend::Modulo { length, .. } => {
                Some(u64::from(length))
            }
            SummaryBackend::Sequential { .. } => None,
        }
    }

    /// Cycles for `trips` iterations of the scheduled scope (list or
    /// modulo backend), as [`ListSchedule::cycles_for`] and
    /// [`ModuloSchedule::cycles_for`] count them.
    pub fn cycles_for(&self, trips: u64) -> Option<u64> {
        match self.backend {
            SummaryBackend::List { length } => Some(ListSchedule::block_cycles(length, trips)),
            SummaryBackend::Modulo { ii, length } => {
                Some(ModuloSchedule::pipelined_cycles(ii, length, trips))
            }
            SummaryBackend::Sequential { .. } => None,
        }
    }

    /// Cycles for the scheduled loop's own trip count
    /// ([`ScheduleScope::FirstLoop`] recipes).
    pub fn loop_cycles(&self) -> Option<u64> {
        self.cycles_for(self.scheduled_trip?)
    }
}

/// The first stage of a compile: `passes` over `kernel`, in order. The
/// IR passes read no machine, so their output serves every machine the
/// kernel is compiled for.
///
/// Each pass runs with the options' sink, validator and recorder, and
/// appends its record to `report`.
///
/// # Errors
///
/// A misconfigured pass ([`SchedError::Pipeline`]), or a validator
/// rejection.
pub fn transform(
    kernel: &Kernel,
    passes: &[PassConfig],
    options: &mut CompileOptions<'_>,
    report: &mut PipelineReport,
) -> Result<Arc<Kernel>, SchedError> {
    let mut unit = CompilationUnit::new(kernel.clone());
    for pass in passes {
        run_pass(pass.kind(), &mut unit, options, report, |unit, _| {
            pass.apply(Arc::make_mut(&mut unit.kernel))
        })?;
    }
    Ok(unit.kernel)
}

/// The second stage of a compile: lowers a kernel [`transform`]ed by
/// `strategy`'s passes (list and modulo backends) and schedules it on
/// `machine` with the strategy's backend, continuing `report`.
///
/// # Errors
///
/// Lowering failures, infeasible schedules, or a validator rejection.
pub fn lower_and_schedule(
    kernel: Arc<Kernel>,
    machine: &MachineConfig,
    strategy: &Strategy,
    options: &mut CompileOptions<'_>,
    mut report: PipelineReport,
) -> Result<CompileResult, SchedError> {
    let mut unit = CompilationUnit {
        kernel,
        machine: Some(machine.clone()),
        lowered: None,
        deps: None,
        scheduled_trip: None,
        schedule: None,
    };
    if !matches!(strategy.scheduler, SchedulerChoice::Sequential) {
        run_pass(
            PipelinePass::Lower,
            &mut unit,
            options,
            &mut report,
            |unit, _| lower(unit, machine, strategy),
        )?;
    }
    run_pass(
        PipelinePass::Schedule,
        &mut unit,
        options,
        &mut report,
        |unit, sink| {
            unit.schedule = Some(schedule(unit, machine, strategy.scheduler, sink)?);
            Ok(())
        },
    )?;
    let Some(artifact) = unit.schedule else {
        unreachable!("the scheduling pass sets the unit's schedule")
    };
    Ok(CompileResult {
        kernel: unit.kernel,
        lowered: unit.lowered,
        deps: unit.deps,
        schedule: artifact,
        scheduled_trip: unit.scheduled_trip,
        report,
    })
}

/// Compiles `kernel` for `machine` by running the strategy's two stages.
///
/// The single entry point behind every Table 1/Table 2 row, the trace
/// and fuzz drivers, and the `explore-strategies` sweeps.
///
/// ```
/// use vsp_core::models;
/// use vsp_sched::pipeline::{ScheduleScope, SchedulerChoice, Strategy};
/// # use vsp_ir::KernelBuilder;
/// # use vsp_isa::AluBinOp;
/// # let mut b = KernelBuilder::new("sum");
/// # let a = b.array("a", 16);
/// # let acc = b.var("acc");
/// # b.set(acc, 0);
/// # b.count_loop("i", 0, 1, 16, |b, i| {
/// #     let x = b.load("x", a, i);
/// #     b.bin(acc, AluBinOp::Add, acc, x);
/// # });
/// # let kernel = b.finish();
/// let strategy = Strategy::new(
///     "swp",
///     ScheduleScope::FirstLoop,
///     SchedulerChoice::Modulo { clusters_used: 1, ii_search: 64 },
/// );
/// let result = vsp_sched::compile(&kernel, &models::i4c8s4(), &strategy).unwrap();
/// assert!(result.summary().ii().unwrap() >= 1);
/// ```
///
/// # Errors
///
/// Any [`SchedError`] a pass raises: lowering failures, infeasible
/// schedules, misconfigured passes, or validator rejections (via
/// [`compile_with`]).
pub fn compile(
    kernel: &Kernel,
    machine: &MachineConfig,
    strategy: &Strategy,
) -> Result<CompileResult, SchedError> {
    compile_with(kernel, machine, strategy, &mut CompileOptions::default())
}

/// [`compile`] with hooks: a trace sink for per-pass and scheduler
/// decision events, and an optional post-pass validator.
///
/// Runs the two stages back to back: [`transform`], then
/// [`lower_and_schedule`], every pass with the same hooks.
///
/// # Errors
///
/// As [`compile`], plus [`SchedError::Pipeline`] when the validator
/// reports violations after any pass.
pub fn compile_with(
    kernel: &Kernel,
    machine: &MachineConfig,
    strategy: &Strategy,
    options: &mut CompileOptions<'_>,
) -> Result<CompileResult, SchedError> {
    let mut report = PipelineReport::default();
    let transformed = transform(kernel, &strategy.passes, options, &mut report)?;
    let result = lower_and_schedule(transformed, machine, strategy, options, report)?;
    if let Some(rec) = options.recorder.as_mut() {
        if rec.enabled() {
            let labels = [("strategy", strategy.name.as_str())];
            let summary = result.summary();
            rec.add("vsp_sched_compiles_total", &labels, 1);
            if let Some(ii) = summary.ii() {
                rec.gauge("vsp_sched_schedule_ii", &labels, ii as f64);
            }
            if let Some(len) = summary.length() {
                rec.gauge("vsp_sched_schedule_length", &labels, len as f64);
            }
            if let Some(seq) = summary.seq_cycles() {
                rec.gauge("vsp_sched_seq_cycles", &labels, seq as f64);
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsp_core::models;
    use vsp_ir::KernelBuilder;

    fn sum_kernel() -> Kernel {
        let mut b = KernelBuilder::new("sum");
        let a = b.array("a", 16);
        let acc = b.var("acc");
        b.set(acc, 0);
        b.count_loop("i", 0, 1, 16, |b, i| {
            let x = b.load("x", a, i);
            b.bin(acc, vsp_isa::AluBinOp::Add, acc, x);
        });
        b.finish()
    }

    #[test]
    fn sequential_strategy_walks_whole_kernel() {
        let k = sum_kernel();
        let m = models::i4c8s4();
        let s = Strategy::new("seq", ScheduleScope::WholeBody, SchedulerChoice::Sequential);
        let r = compile(&k, &m, &s).unwrap();
        assert!(
            r.summary().seq_cycles().unwrap() > 16,
            "loop body times trip count"
        );
        assert!(r.summary().ii().is_none());
        assert_eq!(r.report.passes.len(), 1, "only the schedule pass ran");
    }

    #[test]
    fn sequential_tiny_loops_pay_delay_slots() {
        let m = models::i4c8s4();
        // Tiny body: 2 ops + 2 close + 1 unfilled delay = 5/iter.
        assert_eq!(sequential_iteration(&m, 2), 5);
        // Big body fills its delay slot: 10 + 2 = 12/iter.
        assert_eq!(sequential_iteration(&m, 10), 12);
    }

    #[test]
    fn modulo_strategy_schedules_first_loop() {
        let k = sum_kernel();
        let m = models::i4c8s4();
        let s = Strategy::new(
            "swp",
            ScheduleScope::FirstLoop,
            SchedulerChoice::Modulo {
                clusters_used: 1,
                ii_search: 64,
            },
        );
        let r = compile(&k, &m, &s).unwrap();
        assert_eq!(r.scheduled_trip, Some(16));
        let summary = r.summary();
        assert!(summary.ii().unwrap() >= 1);
        assert!(summary.loop_cycles().unwrap() >= summary.ii().unwrap() * 15);
        // lower + schedule recorded.
        assert_eq!(r.report.passes.len(), 2);
        assert!(r
            .report
            .passes
            .iter()
            .any(|p| p.kind == PipelinePass::Lower));
    }

    #[test]
    fn ir_passes_report_shrinkage() {
        let k = sum_kernel();
        let m = models::i4c8s4();
        let s = Strategy::new(
            "flat",
            ScheduleScope::WholeBody,
            SchedulerChoice::List { clusters_used: 1 },
        )
        .then(PassConfig::Unroll { factor: None })
        .then(PassConfig::Cse)
        .then(PassConfig::StrengthReduce);
        let r = compile(&k, &m, &s).unwrap();
        assert!(r.summary().length().unwrap() >= 1);
        let stmts: Vec<usize> = r.report.passes.iter().map(|p| p.stmts).collect();
        assert!(stmts[0] > 16, "full unroll replicated the body: {stmts:?}");
        assert!(stmts[1] <= stmts[0], "cse never grows: {stmts:?}");
    }

    #[test]
    fn unroll_misconfiguration_is_a_pipeline_error() {
        let k = sum_kernel();
        let m = models::i4c8s4();
        let s = Strategy::new(
            "bad",
            ScheduleScope::FirstLoop,
            SchedulerChoice::List { clusters_used: 1 },
        )
        .then(PassConfig::Unroll { factor: Some(5) });
        match compile(&k, &m, &s) {
            Err(SchedError::Pipeline { pass, detail }) => {
                assert_eq!(pass, "unroll");
                assert!(detail.contains("16"), "{detail}");
            }
            other => panic!("expected pipeline error, got {other:?}"),
        }
    }

    #[test]
    fn first_loop_scope_without_loop_is_a_pipeline_error() {
        let k = sum_kernel();
        let m = models::i4c8s4();
        let s = Strategy::new(
            "flatten-then-loop",
            ScheduleScope::FirstLoop,
            SchedulerChoice::List { clusters_used: 1 },
        )
        .then(PassConfig::Unroll { factor: None });
        match compile(&k, &m, &s) {
            Err(SchedError::Pipeline { pass, .. }) => assert_eq!(pass, "lower"),
            other => panic!("expected pipeline error, got {other:?}"),
        }
    }

    #[test]
    fn pass_complete_events_reach_the_sink() {
        let k = sum_kernel();
        let m = models::i4c8s4();
        let s = Strategy::new(
            "swp",
            ScheduleScope::FirstLoop,
            SchedulerChoice::Modulo {
                clusters_used: 1,
                ii_search: 64,
            },
        )
        .then(PassConfig::Cse);
        let mut sink = vsp_trace::MemorySink::new();
        let mut options = CompileOptions {
            sink: Some(&mut sink),
            validator: None,
            recorder: None,
        };
        compile_with(&k, &m, &s, &mut options).unwrap();
        let seqs: Vec<u32> = sink
            .events()
            .filter_map(|e| match e {
                TraceEvent::PassComplete { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, [0, 1, 2], "cse, then lower + schedule, numbered on");
        // The scheduler's own decision log is interleaved.
        assert!(sink.count(|e| matches!(e, TraceEvent::ScheduleDone { .. })) >= 1);
    }

    #[test]
    fn recorder_sees_pass_timings_and_quality() {
        let k = sum_kernel();
        let m = models::i4c8s4();
        let s = Strategy::new(
            "swp",
            ScheduleScope::FirstLoop,
            SchedulerChoice::Modulo {
                clusters_used: 1,
                ii_search: 64,
            },
        )
        .then(PassConfig::Cse);
        let mut reg = vsp_metrics::Registry::new();
        let mut options = CompileOptions {
            sink: None,
            validator: None,
            recorder: Some(&mut reg),
        };
        let result = compile_with(&k, &m, &s, &mut options).unwrap();
        let snap = reg.snapshot();
        // One count per executed pass: cse + lower + schedule.
        for pass in ["cse", "lower", "schedule"] {
            assert_eq!(
                snap.counter("vsp_sched_passes_total", &[("pass", pass)]),
                Some(1),
                "missing pass counter for {pass}"
            );
            let timing = snap
                .histogram("vsp_sched_pass_micros", &[("pass", pass)])
                .unwrap_or_else(|| panic!("missing pass timing for {pass}"));
            assert_eq!(timing.count, 1);
        }
        assert_eq!(
            snap.counter("vsp_sched_compiles_total", &[("strategy", "swp")]),
            Some(1)
        );
        assert_eq!(
            snap.gauge("vsp_sched_schedule_ii", &[("strategy", "swp")]),
            result.summary().ii().map(|ii| ii as f64),
        );
        assert_eq!(
            snap.gauge("vsp_sched_schedule_length", &[("strategy", "swp")]),
            result.summary().length().map(|l| l as f64),
        );
    }

    #[test]
    fn validator_rejection_fails_the_compile() {
        struct RejectAll;
        impl PipelineValidator for RejectAll {
            fn validate(&self, _unit: &CompilationUnit, pass: &str) -> Vec<String> {
                vec![format!("rejected after {pass}")]
            }
        }
        let k = sum_kernel();
        let m = models::i4c8s4();
        let s = Strategy::new("seq", ScheduleScope::WholeBody, SchedulerChoice::Sequential);
        let mut options = CompileOptions {
            sink: None,
            validator: Some(&RejectAll),
            recorder: None,
        };
        match compile_with(&k, &m, &s, &mut options) {
            Err(SchedError::Pipeline { pass, detail }) => {
                assert_eq!(pass, "validate");
                assert!(detail.contains("rejected after schedule"), "{detail}");
            }
            other => panic!("expected validation failure, got {other:?}"),
        }
    }
}
