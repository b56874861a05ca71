//! The unified compilation pipeline: composable passes over a
//! [`CompilationUnit`], driven by declarative [`Strategy`] recipes.
//!
//! Every Table 1/Table 2 row of the paper is a *progression of compiler
//! techniques* applied to a kernel on a machine: unroll, predicate,
//! clean up, lower, then list- or modulo-schedule. Historically those
//! progressions were hand-wired per row; here they are data. A
//! [`Strategy`] names an ordered recipe of [`PassConfig`]s plus a
//! [`SchedulerChoice`], [`compile`] runs it through the one
//! [`Pipeline`], and the result carries the schedule artifact plus a
//! per-pass [`PipelineReport`].
//!
//! The pieces compose:
//!
//! * [`Pass`] — one typed transform over the unit (IR rewrite, lowering,
//!   or scheduling), reporting its effect;
//! * [`Pipeline`] — runs passes in order, records per-pass stats, emits
//!   a [`TraceEvent::PassComplete`] decision event per pass, and
//!   consults an optional [`PipelineValidator`] after each one;
//! * [`Strategy`] — the recipe as plain data, so bench sweeps,
//!   fuzzers and CI can compose techniques the paper never hand-
//!   scheduled;
//! * [`compile`] / [`compile_with`] — the one entry point every driver
//!   (`tables`, `trace`, `fuzz`, `faults`, `explore-strategies`) uses.
//!
//! A compile runs in two stages. [`transform`] applies the recipe's IR
//! passes to the kernel and reads no machine; [`lower_and_schedule`]
//! lowers the transformed kernel and schedules it on one. [`compile_with`]
//! is the two run back to back, and a driver that compiles one kernel
//! for many machines (`vsp_kernels::variants`) runs the first stage once
//! per (kernel, passes) and the second once per machine shape.
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

/// The state a [`Pipeline`] threads through its passes: the kernel IR
/// being transformed, the target machine, and the artifacts accumulated
/// by lowering and scheduling.
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
// Pass + validation hooks
// ---------------------------------------------------------------------

/// One typed transform over a [`CompilationUnit`].
///
/// Implementations must be deterministic; the [`Pipeline`] records each
/// pass's post-state size and reports it as a
/// [`TraceEvent::PassComplete`] decision event.
pub trait Pass {
    /// Stable name (matches [`PipelinePass::name`] for built-in passes).
    fn name(&self) -> &'static str;
    /// The trace-vocabulary kind of this pass.
    fn kind(&self) -> PipelinePass;
    /// Applies the pass.
    ///
    /// # Errors
    ///
    /// Any [`SchedError`]; built-in passes use
    /// [`SchedError::Pipeline`] for pass-configuration failures and
    /// lift lowering/scheduling errors directly.
    fn run(&self, unit: &mut CompilationUnit, sink: &mut dyn TraceSink) -> Result<(), SchedError>;
}

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

// ---------------------------------------------------------------------
// Built-in passes
// ---------------------------------------------------------------------

struct UnrollPass {
    factor: Option<u32>,
}

impl Pass for UnrollPass {
    fn name(&self) -> &'static str {
        match self.factor {
            Some(_) => "unroll",
            None => "full_unroll",
        }
    }
    fn kind(&self) -> PipelinePass {
        match self.factor {
            Some(_) => PipelinePass::Unroll,
            None => PipelinePass::FullUnroll,
        }
    }
    fn run(&self, unit: &mut CompilationUnit, _sink: &mut dyn TraceSink) -> Result<(), SchedError> {
        match self.factor {
            Some(f) => {
                try_unroll_innermost(Arc::make_mut(&mut unit.kernel), f).map_err(|e| {
                    SchedError::Pipeline {
                        pass: "unroll",
                        detail: e.to_string(),
                    }
                })?;
            }
            None => {
                fully_unroll_innermost(Arc::make_mut(&mut unit.kernel));
            }
        }
        Ok(())
    }
}

struct IfConvertPass;

impl Pass for IfConvertPass {
    fn name(&self) -> &'static str {
        "if_convert"
    }
    fn kind(&self) -> PipelinePass {
        PipelinePass::IfConvert
    }
    fn run(&self, unit: &mut CompilationUnit, _sink: &mut dyn TraceSink) -> Result<(), SchedError> {
        if_convert(Arc::make_mut(&mut unit.kernel));
        Ok(())
    }
}

struct CsePass;

impl Pass for CsePass {
    fn name(&self) -> &'static str {
        "cse"
    }
    fn kind(&self) -> PipelinePass {
        PipelinePass::Cse
    }
    fn run(&self, unit: &mut CompilationUnit, _sink: &mut dyn TraceSink) -> Result<(), SchedError> {
        eliminate_common_subexpressions(Arc::make_mut(&mut unit.kernel));
        Ok(())
    }
}

struct LicmPass;

impl Pass for LicmPass {
    fn name(&self) -> &'static str {
        "licm"
    }
    fn kind(&self) -> PipelinePass {
        PipelinePass::Licm
    }
    fn run(&self, unit: &mut CompilationUnit, _sink: &mut dyn TraceSink) -> Result<(), SchedError> {
        hoist_invariants(Arc::make_mut(&mut unit.kernel));
        Ok(())
    }
}

struct StrengthReducePass;

impl Pass for StrengthReducePass {
    fn name(&self) -> &'static str {
        "strength_reduce"
    }
    fn kind(&self) -> PipelinePass {
        PipelinePass::StrengthReduce
    }
    fn run(&self, unit: &mut CompilationUnit, _sink: &mut dyn TraceSink) -> Result<(), SchedError> {
        reduce_strength(Arc::make_mut(&mut unit.kernel));
        Ok(())
    }
}

struct StripVarsPass {
    vars: Vec<String>,
}

impl Pass for StripVarsPass {
    fn name(&self) -> &'static str {
        "strip_vars"
    }
    fn kind(&self) -> PipelinePass {
        PipelinePass::StripVars
    }
    fn run(&self, unit: &mut CompilationUnit, _sink: &mut dyn TraceSink) -> Result<(), SchedError> {
        let kernel = Arc::make_mut(&mut unit.kernel);
        let hit: Vec<vsp_ir::VarId> = kernel
            .var_names
            .iter()
            .enumerate()
            .filter(|(_, n)| self.vars.iter().any(|v| v == *n))
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
        Ok(())
    }
}

struct LowerPass {
    scope: ScheduleScope,
    loop_control: LoopControlMode,
}

impl Pass for LowerPass {
    fn name(&self) -> &'static str {
        "lower"
    }
    fn kind(&self) -> PipelinePass {
        PipelinePass::Lower
    }
    fn run(&self, unit: &mut CompilationUnit, _sink: &mut dyn TraceSink) -> Result<(), SchedError> {
        let machine = target(unit, "lower")?;
        let (body, trip): (&[Stmt], Option<u64>) = match self.scope {
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
        if self.loop_control == LoopControlMode::Folded {
            append_loop_control(&mut lowered);
        }
        let deps = VopDeps::build(machine, &lowered);
        unit.scheduled_trip = trip;
        unit.lowered = Some(lowered);
        unit.deps = Some(deps);
        Ok(())
    }
}

struct SchedulePass {
    choice: SchedulerChoice,
}

impl Pass for SchedulePass {
    fn name(&self) -> &'static str {
        "schedule"
    }
    fn kind(&self) -> PipelinePass {
        PipelinePass::Schedule
    }
    fn run(&self, unit: &mut CompilationUnit, sink: &mut dyn TraceSink) -> Result<(), SchedError> {
        let machine = target(unit, "schedule")?;
        let schedule = match self.choice {
            SchedulerChoice::Sequential => ScheduleArtifact::Sequential {
                cycles: sequential_kernel_cycles(machine, &unit.kernel)?,
            },
            SchedulerChoice::List { clusters_used } => {
                let (body, deps) = lowered_pair(unit)?;
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
            SchedulerChoice::Modulo {
                clusters_used,
                ii_search,
            } => {
                let (body, deps) = lowered_pair(unit)?;
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
        };
        unit.schedule = Some(schedule);
        Ok(())
    }
}

/// The unit's target machine, or a pipeline-ordering error: only
/// [`lower_and_schedule`] sets one.
fn target<'u>(
    unit: &'u CompilationUnit,
    pass: &'static str,
) -> Result<&'u MachineConfig, SchedError> {
    unit.machine.as_ref().ok_or_else(|| SchedError::Pipeline {
        pass,
        detail: "the backend passes run only on a unit with a target machine".into(),
    })
}

/// The lowered body + deps, or a pipeline-ordering error.
fn lowered_pair(unit: &CompilationUnit) -> Result<(&LoweredBody, &VopDeps), SchedError> {
    match (&unit.lowered, &unit.deps) {
        (Some(b), Some(d)) => Ok((b, d)),
        _ => Err(SchedError::Pipeline {
            pass: "schedule",
            detail: "scheduling requires the lowering pass to have run".into(),
        }),
    }
}

impl PassConfig {
    /// Instantiates the configured pass.
    pub fn instantiate(&self) -> Box<dyn Pass> {
        match self {
            PassConfig::Unroll { factor } => Box::new(UnrollPass { factor: *factor }),
            PassConfig::IfConvert => Box::new(IfConvertPass),
            PassConfig::Cse => Box::new(CsePass),
            PassConfig::Licm => Box::new(LicmPass),
            PassConfig::StrengthReduce => Box::new(StrengthReducePass),
            PassConfig::StripVars { vars } => Box::new(StripVarsPass { vars: vars.clone() }),
        }
    }
}

// ---------------------------------------------------------------------
// Shared lowering/cost machinery (exact port of the row machinery)
// ---------------------------------------------------------------------

/// Appends the folded loop-control operations (induction increment and
/// bounds compare) that live inside every scheduled loop body; the
/// branch itself issues from the decoupled control slot.
pub fn append_loop_control(body: &mut LoweredBody) {
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
pub fn sequential_kernel_cycles(
    machine: &MachineConfig,
    kernel: &Kernel,
) -> Result<u64, SchedError> {
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
pub fn sequential_iteration(machine: &MachineConfig, body: u64) -> u64 {
    let delay = u64::from(machine.pipeline.branch_delay_slots);
    let fillable = body.saturating_sub(2).min(delay);
    body + 2 + (delay - fillable)
}

// ---------------------------------------------------------------------
// Pipeline runner + compile()
// ---------------------------------------------------------------------

/// Post-pass snapshot recorded by the [`Pipeline`] runner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassRecord {
    /// Pass name (stable, matches the trace vocabulary).
    pub pass: String,
    /// Trace-vocabulary kind of the pass.
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

/// An ordered sequence of passes, ready to run over a unit.
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl Pipeline {
    /// The IR stage of a recipe: its passes, in order.
    pub fn ir(passes: &[PassConfig]) -> Pipeline {
        Pipeline {
            passes: passes.iter().map(PassConfig::instantiate).collect(),
        }
    }

    /// The backend stage a [`Strategy`] describes: (for the list/modulo
    /// backends) the lowering pass, then the scheduling pass.
    pub fn backend(strategy: &Strategy) -> Pipeline {
        let mut passes: Vec<Box<dyn Pass>> = Vec::new();
        if !matches!(strategy.scheduler, SchedulerChoice::Sequential) {
            passes.push(Box::new(LowerPass {
                scope: strategy.scope,
                loop_control: strategy.loop_control,
            }));
        }
        passes.push(Box::new(SchedulePass {
            choice: strategy.scheduler,
        }));
        Pipeline { passes }
    }

    /// An empty pipeline (append with [`Pipeline::push`]).
    pub fn empty() -> Pipeline {
        Pipeline { passes: Vec::new() }
    }

    /// Appends a custom pass.
    pub fn push(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Runs every pass in order over `unit`.
    ///
    /// After each pass the runner appends a [`PassRecord`] to `report`,
    /// emits a [`TraceEvent::PassComplete`] (numbered after the records
    /// already in `report`) into the options sink, and asks the options
    /// validator to check the unit.
    ///
    /// # Errors
    ///
    /// The first pass error, or [`SchedError::Pipeline`] when the
    /// validator reports violations.
    pub fn run(
        &self,
        unit: &mut CompilationUnit,
        options: &mut CompileOptions<'_>,
        report: &mut PipelineReport,
    ) -> Result<(), SchedError> {
        let mut null = NullSink;
        for pass in &self.passes {
            let seq = report.passes.len();
            let before = (unit.stmt_count(), unit.vop_count());
            let watch = vsp_metrics::Stopwatch::start();
            {
                let sink: &mut dyn TraceSink = match options.sink.as_mut() {
                    Some(s) => &mut **s,
                    None => &mut null,
                };
                pass.run(unit, sink)?;
                if sink.enabled() {
                    sink.emit(TraceEvent::PassComplete {
                        seq: seq as u32,
                        pass: pass.kind(),
                        stmts: unit.stmt_count() as u32,
                        vops: unit.vop_count() as u32,
                    });
                }
            }
            if let Some(rec) = options.recorder.as_mut() {
                if rec.enabled() {
                    let labels = [("pass", pass.name())];
                    rec.observe("vsp_sched_pass_micros", &labels, watch.elapsed_micros());
                    rec.add("vsp_sched_passes_total", &labels, 1);
                    // Quality deltas: how much each technique grew or
                    // shrank the kernel and its lowered form.
                    rec.gauge(
                        "vsp_sched_pass_stmts_delta",
                        &labels,
                        unit.stmt_count() as f64 - before.0 as f64,
                    );
                    rec.gauge(
                        "vsp_sched_pass_vops_delta",
                        &labels,
                        unit.vop_count() as f64 - before.1 as f64,
                    );
                }
            }
            report.passes.push(PassRecord {
                pass: pass.name().to_string(),
                kind: pass.kind(),
                stmts: unit.stmt_count(),
                vops: unit.vop_count(),
            });
            if let Some(v) = options.validator {
                let violations = v.validate(unit, pass.name());
                if !violations.is_empty() {
                    return Err(SchedError::Pipeline {
                        pass: "validate",
                        detail: format!(
                            "{} violation(s) after pass {}: {}",
                            violations.len(),
                            pass.name(),
                            violations.join("; ")
                        ),
                    });
                }
            }
        }
        Ok(())
    }
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
    /// The scalars cycle composition reads from this result.
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

    /// Sequential-backend cycles (whole kernel, one execution).
    pub fn seq_cycles(&self) -> Option<u64> {
        self.summary().seq_cycles()
    }

    /// Achieved initiation interval (modulo backend only).
    pub fn ii(&self) -> Option<u64> {
        self.summary().ii()
    }

    /// Schedule length in cycles (list or modulo backend).
    pub fn length(&self) -> Option<u64> {
        self.summary().length()
    }

    /// Cycles for `trips` iterations of the scheduled scope (list or
    /// modulo backend).
    pub fn cycles_for(&self, trips: u64) -> Option<u64> {
        self.summary().cycles_for(trips)
    }

    /// Cycles for the scheduled loop's own trip count
    /// ([`ScheduleScope::FirstLoop`] recipes).
    pub fn loop_cycles(&self) -> Option<u64> {
        self.summary().loop_cycles()
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
    Pipeline::ir(passes).run(&mut unit, options, report)?;
    Ok(unit.kernel)
}

/// The second stage of a compile: lowers a kernel [`transform`]ed by
/// `strategy`'s passes and schedules it on `machine` with the strategy's
/// backend, continuing `report`.
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
    Pipeline::backend(strategy).run(&mut unit, options, &mut report)?;
    let schedule = unit.schedule.ok_or_else(|| SchedError::Pipeline {
        pass: "schedule",
        detail: "pipeline finished without producing a schedule".into(),
    })?;
    Ok(CompileResult {
        kernel: unit.kernel,
        lowered: unit.lowered,
        deps: unit.deps,
        schedule,
        scheduled_trip: unit.scheduled_trip,
        report,
    })
}

/// Compiles `kernel` for `machine` by running the strategy's pipeline.
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
/// assert!(result.ii().unwrap() >= 1);
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
            rec.add("vsp_sched_compiles_total", &labels, 1);
            if let Some(ii) = result.ii() {
                rec.gauge("vsp_sched_schedule_ii", &labels, ii as f64);
            }
            if let Some(len) = result.length() {
                rec.gauge("vsp_sched_schedule_length", &labels, len as f64);
            }
            if let Some(seq) = result.seq_cycles() {
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
        assert!(r.seq_cycles().unwrap() > 16, "loop body times trip count");
        assert!(r.ii().is_none());
        assert_eq!(r.report.passes.len(), 1, "only the schedule pass ran");
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
        assert!(r.ii().unwrap() >= 1);
        assert!(r.loop_cycles().unwrap() >= r.ii().unwrap() * 15);
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
        assert!(r.length().unwrap() >= 1);
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
            result.ii().map(|ii| ii as f64),
        );
        assert_eq!(
            snap.gauge("vsp_sched_schedule_length", &[("strategy", "swp")]),
            result.length().map(|l| l as f64),
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
