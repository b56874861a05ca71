//! Schedule-variant recipes: every row of Tables 1 and 2, computed.
//!
//! Each row of the paper's tables is a (kernel, schedule strategy) pair
//! evaluated on a datapath model. Here every row is *recomputed*: the
//! kernel IR is pushed through the same transform pipeline the paper's
//! hand schedules used (unrolling, if-conversion, CSE, strength
//! reduction, blocking), lowered for the machine (addressing modes,
//! multiply decomposition, absolute-difference fusion), scheduled with
//! the list or modulo scheduler, and composed into cycles per 720×480
//! frame.
//!
//! Outer-loop bookkeeping that the paper's hand schedules carry outside
//! the measured inner loops (best-SAD updates, three-step stepping
//! logic) is charged with explicitly named constants, calibrated once
//! against the paper's sequential baselines and then held fixed across
//! all machines and variants — so every *difference* between rows and
//! machines comes out of the real scheduling pipeline.
//!
//! Compilation runs in two stages ([`vsp_sched::transform`], then
//! [`vsp_sched::lower_and_schedule`]), and each is memoized for the whole
//! process by what it reads. The IR passes read only the kernel and the
//! recipe's passes, so each (kernel, passes) pair is transformed once;
//! lowering and scheduling read only the transformed kernel, the
//! recipe's backend and the machine's [`CompileShape`], so each such
//! triple is scheduled once. A design search evaluating a thousand
//! survivors of a few dozen shapes thus transforms each kernel once and
//! schedules it once per shape, while row composition (replication over
//! the machine's own clusters, transpose latency) stays per machine.
//! [`compile_counts`] reports how often each stage ran.

use crate::frame::{CCIR601, FULL_SEARCH_POSITIONS, THREE_STEP_POSITIONS};
use crate::ir::{
    color_quad_kernel, dct1d_kernel, dct_direct_mac_kernel, sad_16x16_kernel,
    sad_blocked_group_kernel, vbr_block_kernel,
};
use crate::strategies;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use vsp_core::{models, MachineConfig};
use vsp_ir::Kernel;
use vsp_sched::cost::simd_cycles;
use vsp_sched::{
    lower_and_schedule, transform, CompileOptions, CompileShape, LoopControlMode, PassConfig,
    PipelineReport, SchedError, ScheduleScope, ScheduleSummary, SchedulerChoice, Strategy,
};

/// The six kernels of §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelId {
    /// Full motion search.
    FullSearch,
    /// Three-step search.
    ThreeStep,
    /// Traditional (direct) 2-D DCT.
    DctDirect,
    /// Row/column 2-D DCT.
    DctRowCol,
    /// RGB→YCbCr converter/subsampler.
    Color,
    /// Variable-bit-rate coder.
    Vbr,
}

impl KernelId {
    /// Table 1 section header for this kernel.
    pub fn title(self) -> &'static str {
        match self {
            KernelId::FullSearch => "Full Motion Search",
            KernelId::ThreeStep => "Three-step Search",
            KernelId::DctDirect => "DCT - traditional",
            KernelId::DctRowCol => "DCT - row/column",
            KernelId::Color => "RGB:YCrCb converter/subsampler",
            KernelId::Vbr => "Variable-Bit-Rate Coder",
        }
    }
}

/// One (kernel, variant) cycle count on one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Which kernel.
    pub kernel: KernelId,
    /// Variant name, matching the paper's row label.
    pub variant: &'static str,
    /// Cycles per 720×480 frame.
    pub cycles: u64,
}

/// A full table row: one variant across several machines.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// Which kernel.
    pub kernel: KernelId,
    /// Variant name.
    pub variant: &'static str,
    /// Cycles per frame, one entry per machine column.
    pub cycles: Vec<u64>,
}

// ---------------------------------------------------------------------
// Calibrated outer-loop bookkeeping constants (see module docs).
// ---------------------------------------------------------------------

/// Sequential best-SAD compare/update cost per candidate position.
const POS_OVERHEAD_SEQ: u64 = 12;
/// Parallel (predicated) best-SAD update per candidate position.
const POS_OVERHEAD_PAR: u64 = 8;
/// Sequential three-step stepping/clipping logic per candidate position
/// (calibrated against the 86.12M-cycle baseline).
const TSS_OVERHEAD_SEQ: u64 = 248;
/// Parallel three-step stepping logic per candidate position (dependent
/// compares parallelize poorly).
const TSS_OVERHEAD_PAR: u64 = 125;
/// Per-block bookkeeping for DCT/VBR/color block pipelines.
const BLOCK_OVERHEAD: u64 = 16;

// ---------------------------------------------------------------------
// Shared machinery
// ---------------------------------------------------------------------

/// Total SAD jobs per frame for the full search.
fn full_search_jobs() -> u64 {
    CCIR601.macroblocks() * FULL_SEARCH_POSITIONS
}

/// Total SAD jobs per frame for the three-step search.
fn three_step_jobs() -> u64 {
    CCIR601.macroblocks() * THREE_STEP_POSITIONS
}

/// One key's once-cell: the value is computed at most once while it
/// succeeds. The first caller computes it while later callers of the
/// same key wait, and callers of other keys go ahead. A failure fills
/// nothing, so the next caller computes (and reports) it again.
struct MemoCell<V>(Mutex<Option<V>>);

impl<V: Clone> MemoCell<V> {
    fn get_or_try(&self, compute: impl FnOnce() -> Result<V, SchedError>) -> Result<V, SchedError> {
        // A panicking computation fills nothing, so a poisoned cell is
        // still valid.
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = &*slot {
            return Ok(v.clone());
        }
        let v = compute()?;
        *slot = Some(v.clone());
        Ok(v)
    }
}

impl<V> Default for MemoCell<V> {
    fn default() -> Self {
        MemoCell(Mutex::new(None))
    }
}

/// What lowering and scheduling read besides the transformed kernel:
/// the machine's shape and the recipe's backend.
type BackendKey = (
    CompileShape,
    ScheduleScope,
    SchedulerChoice,
    LoopControlMode,
);

/// One (kernel, passes) pair's compile work: its transformed kernel and,
/// per backend key, the schedule summary.
#[derive(Default)]
struct Compiled {
    transformed: MemoCell<Arc<Kernel>>,
    schedules: Mutex<HashMap<BackendKey, Arc<MemoCell<ScheduleSummary>>>>,
}

/// A kernel as a memo key: compared by value (by address first, since
/// the rows pass the same [`Catalog`] kernel every time), hashed once.
#[derive(Debug, Clone)]
struct KernelKey {
    kernel: Arc<Kernel>,
    hash: u64,
}

impl KernelKey {
    fn new(kernel: Kernel) -> KernelKey {
        let mut hasher = DefaultHasher::new();
        kernel.hash(&mut hasher);
        KernelKey {
            kernel: Arc::new(kernel),
            hash: hasher.finish(),
        }
    }
}

impl Hash for KernelKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for KernelKey {
    fn eq(&self, other: &KernelKey) -> bool {
        Arc::ptr_eq(&self.kernel, &other.kernel)
            || (self.hash == other.hash && self.kernel == other.kernel)
    }
}

impl Eq for KernelKey {}

/// A kernel the rows compile. Each is built once per process: the rows
/// of every machine compile the same few kernels, and rebuilding and
/// rehashing them cost more than a memo hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Catalog {
    /// [`sad_16x16_kernel`].
    Sad,
    /// [`sad_blocked_group_kernel`] of the given group.
    SadBlocked(u32),
    /// [`dct1d_kernel`] with wide inputs.
    DctPass,
    /// A pre-unrolled 1-D pass ([`unrolled_pass`]).
    DctUnrolled { narrow: bool, opt: bool },
    /// [`dct_direct_mac_kernel`].
    Mac,
    /// [`color_quad_kernel`] over the given strip of quads.
    Color(u32),
    /// [`vbr_block_kernel`].
    Vbr,
}

impl Catalog {
    /// The kernel, built once per process.
    fn kernel(self) -> KernelKey {
        static BUILT: OnceLock<Mutex<HashMap<Catalog, KernelKey>>> = OnceLock::new();
        let built = BUILT.get_or_init(Mutex::default);
        let mut built = built.lock().unwrap_or_else(PoisonError::into_inner);
        let build = || match self {
            Catalog::Sad => sad_16x16_kernel().kernel,
            Catalog::SadBlocked(group) => sad_blocked_group_kernel(group).kernel,
            Catalog::DctPass => dct1d_kernel(false).kernel,
            Catalog::DctUnrolled { narrow, opt } => {
                crate::ir::dct::dct1d_const_kernel(narrow, !opt).kernel
            }
            Catalog::Mac => dct_direct_mac_kernel().kernel,
            Catalog::Color(quads) => color_quad_kernel(quads).kernel,
            Catalog::Vbr => vbr_block_kernel().kernel,
        };
        built
            .entry(self)
            .or_insert_with(|| KernelKey::new(build()))
            .clone()
    }
}

/// The process-wide compile memo, keyed by value: by the passes, then
/// the kernel before them.
type CompileMemo = HashMap<Vec<PassConfig>, HashMap<KernelKey, Arc<Compiled>>>;

static COMPILE_MEMO: OnceLock<Mutex<CompileMemo>> = OnceLock::new();
static PASSES_RUN: AtomicU64 = AtomicU64::new(0);
static SCHEDULES_RUN: AtomicU64 = AtomicU64::new(0);

/// How often this process ran each compile stage for the Table 1 rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileCounts {
    /// IR-pass runs ([`vsp_sched::transform`]): one per distinct
    /// (kernel, passes) pair.
    pub passes: u64,
    /// Backend runs ([`vsp_sched::lower_and_schedule`]): one per
    /// distinct (transformed kernel, backend, [`CompileShape`]), plus one
    /// per compile outside its shape's domain or failing.
    pub schedules: u64,
}

/// The compile stages this process has run for Table 1 rows so far.
pub fn compile_counts() -> CompileCounts {
    CompileCounts {
        passes: PASSES_RUN.load(Ordering::Relaxed),
        schedules: SCHEDULES_RUN.load(Ordering::Relaxed),
    }
}

/// The memo entry of (`kernel`, `passes`), created on first use. The
/// lock guards only lookups and inserts, never a compile.
fn compiled(kernel: &KernelKey, passes: &[PassConfig]) -> Arc<Compiled> {
    let memo = COMPILE_MEMO.get_or_init(Mutex::default);
    let mut memo = memo.lock().unwrap_or_else(PoisonError::into_inner);
    let by_kernel = match memo.get_mut(passes) {
        Some(by_kernel) => by_kernel,
        None => memo.entry(passes.to_vec()).or_default(),
    };
    Arc::clone(by_kernel.entry(kernel.clone()).or_default())
}

thread_local! {
    /// Set while [`table1_recipes`] collects the compiles of one machine.
    static RECIPES: RefCell<Option<Vec<Recipe>>> = const { RefCell::new(None) };
}

/// One compile a Table 1 row performs: a kernel, a catalog strategy and
/// the machine it is compiled for (the row's machine, or its
/// absolute-difference or simple-addressing twin).
#[derive(Debug, Clone)]
pub struct Recipe {
    /// The machine compiled for.
    pub machine: MachineConfig,
    /// The kernel, before the strategy's passes.
    pub kernel: Kernel,
    /// The catalog strategy.
    pub strategy: Strategy,
}

/// Every compile [`table1_rows`] performs for `machine`, in call order
/// (a pair reused by several rows appears once per use).
pub fn table1_recipes(machine: &MachineConfig) -> Vec<Recipe> {
    /// Stops collecting even when a recipe panics.
    struct Collecting;
    impl Drop for Collecting {
        fn drop(&mut self) {
            RECIPES.with(|r| r.borrow_mut().take());
        }
    }
    RECIPES.with(|r| *r.borrow_mut() = Some(Vec::new()));
    let _collecting = Collecting;
    table1_rows(machine);
    RECIPES.with(|r| r.borrow_mut().take().unwrap_or_default())
}

/// The distinct compiles behind Table 1 on `machines`, in first-use
/// order: two recipes are one compile when their [`CompileShape`],
/// kernel and strategy agree, whatever else their machines differ in.
pub fn distinct_table1_recipes(machines: &[MachineConfig]) -> Vec<Recipe> {
    let mut distinct: Vec<(CompileShape, Recipe)> = Vec::new();
    for machine in machines {
        for r in table1_recipes(machine) {
            let shape = CompileShape::of(&r.machine);
            let seen = distinct
                .iter()
                .any(|(s, d)| *s == shape && d.kernel == r.kernel && d.strategy == r.strategy);
            if !seen {
                distinct.push((shape, r));
            }
        }
    }
    distinct.into_iter().map(|(_, r)| r).collect()
}

impl Recipe {
    /// The recipe's schedule summary, compiled through the process-wide
    /// memo (see the [module docs](self)): the same summary
    /// [`vsp_sched::compile`] returns.
    ///
    /// # Errors
    ///
    /// The compile's [`SchedError`]; failures never enter the memo.
    pub fn summary(&self) -> Result<ScheduleSummary, SchedError> {
        let kernel = KernelKey::new(self.kernel.clone());
        summary(&self.machine, &kernel, &self.strategy)
    }
}

/// [`Recipe::summary`] over borrowed parts. A compile outside its
/// shape's domain ([`CompileShape::determines`]) reuses the transformed
/// kernel but schedules without the memo.
fn summary(
    machine: &MachineConfig,
    key: &KernelKey,
    strategy: &Strategy,
) -> Result<ScheduleSummary, SchedError> {
    let kernel = &key.kernel;
    let compiled = compiled(key, &strategy.passes);
    let transformed = compiled.transformed.get_or_try(|| {
        PASSES_RUN.fetch_add(1, Ordering::Relaxed);
        let options = &mut CompileOptions::default();
        transform(
            kernel,
            &strategy.passes,
            options,
            &mut PipelineReport::default(),
        )
    })?;
    let schedule = || {
        SCHEDULES_RUN.fetch_add(1, Ordering::Relaxed);
        let options = &mut CompileOptions::default();
        lower_and_schedule(
            transformed.clone(),
            machine,
            strategy,
            options,
            PipelineReport::default(),
        )
        .map(|result| result.summary())
    };
    if !CompileShape::determines(machine, kernel, strategy) {
        return schedule();
    }
    let key = (
        CompileShape::of(machine),
        strategy.scope,
        strategy.scheduler,
        strategy.loop_control,
    );
    let cell = {
        let mut schedules = compiled
            .schedules
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(schedules.entry(key).or_default())
    };
    cell.get_or_try(schedule)
}

/// Runs a catalog [`Strategy`] over a kernel through the unified
/// pipeline, memoized ([`Recipe::summary`]); every row below goes
/// through here, so the whole table derives from declarative recipes.
/// A failing recipe panics.
fn run(machine: &MachineConfig, kernel: Catalog, strategy: &Strategy) -> ScheduleSummary {
    let kernel = kernel.kernel();
    RECIPES.with(|r| {
        if let Some(recipes) = r.borrow_mut().as_mut() {
            recipes.push(Recipe {
                machine: machine.clone(),
                kernel: (*kernel.kernel).clone(),
                strategy: strategy.clone(),
            });
        }
    });
    summary(machine, &kernel, strategy)
        .unwrap_or_else(|e| panic!("recipe {} fails on {}: {e}", strategy.name, machine.name))
}

/// Sequential cycles of a whole kernel under a catalog recipe's
/// transforms — the paper's "one operation per instruction" baseline.
fn seq_cycles(machine: &MachineConfig, kernel: Catalog, strategy: &Strategy) -> u64 {
    run(machine, kernel, strategy)
        .seq_cycles()
        .expect("sequential recipes use the sequential backend")
}

/// Simple-addressing twin of a machine: the rolled sequential baselines
/// use pointer-increment address arithmetic, which complex addressing
/// cannot fold (§3.4.1: "the sequential code shows no variation in
/// performance").
fn simple_twin(machine: &MachineConfig) -> MachineConfig {
    let mut m = machine.clone();
    m.addressing = vsp_core::Addressing::Simple;
    m
}

// ---------------------------------------------------------------------
// Full motion search (and its shared SAD machinery)
// ---------------------------------------------------------------------

/// Cycles for one SAD job under software pipelining of the row loop
/// (the [`strategies::sad_pipelined`] recipe).
fn sad_swp_job(machine: &MachineConfig) -> u64 {
    run(machine, Catalog::Sad, &strategies::sad_pipelined())
        .loop_cycles()
        .expect("first-loop modulo recipe")
        + POS_OVERHEAD_PAR
}

/// Cycles for one SAD job with both loops unrolled (single pipeline
/// fill; the [`strategies::sad_flattened`] recipe).
fn sad_flat_job(machine: &MachineConfig) -> u64 {
    run(machine, Catalog::Sad, &strategies::sad_flattened())
        .length()
        .expect("whole-body list recipe")
        + POS_OVERHEAD_PAR
}

/// Cycles per blocked iteration group (G position-pixels per loop trip):
/// the blocked loop is unrolled by 2 to amortize induction overhead, as
/// the paper's "taking advantage of the unrolled loop structure" does
/// (the [`strategies::sad_blocked`] recipe).
fn sad_blocked_job(machine: &MachineConfig, group: u32) -> (u64, u64) {
    let r = run(
        machine,
        Catalog::SadBlocked(group),
        &strategies::sad_blocked(),
    );
    // II covers two groups per initiation.
    (
        r.ii().expect("modulo recipe"),
        r.length().expect("modulo recipe"),
    )
}

fn motion_rows(
    machine: &MachineConfig,
    jobs: u64,
    pos_seq: u64,
    pos_par: u64,
    blocked_group: u32,
    kernel: KernelId,
) -> Vec<Row> {
    let clusters = u64::from(machine.clusters);
    let mut rows = Vec::new();

    // Sequential–predicated: rolled loops, pointer-increment addressing
    // (machine-independent, as in the paper).
    let seq_machine = simple_twin(machine);
    let seq = seq_cycles(&seq_machine, Catalog::Sad, &strategies::sequential()) + pos_seq;
    rows.push(Row {
        kernel,
        variant: "Sequential-predicated",
        cycles: seq * jobs,
    });

    // Unrolled inner loop (still sequential): constant offsets now fold
    // into complex addressing.
    let unrolled = seq_cycles(
        machine,
        Catalog::Sad,
        &strategies::unrolled_hoisted_sequential(),
    ) + pos_seq;
    rows.push(Row {
        kernel,
        variant: "Unrolled Inner Loop",
        cycles: unrolled * jobs,
    });

    // Software pipelined & unrolled, SIMD across clusters.
    rows.push(Row {
        kernel,
        variant: "SW pipelined & unrolled",
        cycles: simd_cycles(
            sad_swp_job(machine) + pos_par - POS_OVERHEAD_PAR,
            jobs,
            clusters,
        ),
    });

    // Second level unrolled as well.
    rows.push(Row {
        kernel,
        variant: "SW pipelined & unrolled 2 lev.",
        cycles: simd_cycles(
            sad_flat_job(machine) + pos_par - POS_OVERHEAD_PAR,
            jobs,
            clusters,
        ),
    });

    // Specialized absolute-difference operator.
    let ad = models::with_absdiff(machine.clone());
    rows.push(Row {
        kernel,
        variant: "Add spec. op (> cycle & area)",
        cycles: simd_cycles(
            sad_flat_job(&ad) + pos_par - POS_OVERHEAD_PAR,
            jobs,
            clusters,
        ),
    });

    // Blocking / loop exchange: `group` positions advance per loaded
    // pixel pair.
    let pixel_positions = jobs * 256;
    let blocked = |m: &MachineConfig| {
        let (ii, fill) = sad_blocked_job(m, blocked_group);
        // One initiation covers two groups (the unroll-by-2 above).
        let inits = pixel_positions / u64::from(blocked_group) / 2;
        simd_cycles(ii, inits, clusters) + fill + simd_cycles(pos_par, jobs, clusters)
    };
    rows.push(Row {
        kernel,
        variant: "Blocking/Loop Exchange",
        cycles: blocked(machine),
    });
    rows.push(Row {
        kernel,
        variant: "Add spec. op (> cycle & area) [blocked]",
        cycles: blocked(&ad),
    });

    rows
}

/// All Table 1 rows for the full motion search on one machine.
pub fn full_search_rows(machine: &MachineConfig) -> Vec<Row> {
    motion_rows(
        machine,
        full_search_jobs(),
        POS_OVERHEAD_SEQ,
        POS_OVERHEAD_PAR,
        8,
        KernelId::FullSearch,
    )
}

/// All Table 1 rows for the three-step search on one machine.
pub fn three_step_rows(machine: &MachineConfig) -> Vec<Row> {
    motion_rows(
        machine,
        three_step_jobs(),
        TSS_OVERHEAD_SEQ,
        TSS_OVERHEAD_PAR,
        3, // scattered positions: far less reuse for blocking
        KernelId::ThreeStep,
    )
}

// ---------------------------------------------------------------------
// DCT
// ---------------------------------------------------------------------

/// The hand-schedule form of one 1-D pass: both loops pre-unrolled (see
/// [`crate::ir::dct::dct1d_const_kernel`]). `opt` selects the
/// arithmetic-optimization coefficient treatment (immediates; `Mul8`
/// when also `narrow`); the default keeps coefficients in registers
/// with full-precision wide multiplies. The CSE + strength-reduction
/// cleanup lives in the [`strategies::cleanup_list`] /
/// [`strategies::cleanup_pipelined`] recipes.
fn unrolled_pass(narrow: bool, opt: bool) -> Catalog {
    Catalog::DctUnrolled { narrow, opt }
}

/// Cycles for one 1-D pass: list-scheduled once, or the steady-state
/// software-pipelined cost when the 16 passes of a block stream through
/// the cluster.
fn dct_pass_cycles(machine: &MachineConfig, narrow: bool, opt: bool, swp_mode: bool) -> u64 {
    let k = unrolled_pass(narrow, opt);
    if swp_mode {
        // Steady state: one pass per II once the pipeline fills; the fill
        // amortizes across the block's 16 passes.
        run(machine, k, &strategies::cleanup_pipelined())
            .cycles_for(16)
            .expect("modulo recipe")
            / 16
    } else {
        run(machine, k, &strategies::cleanup_list())
            .length()
            .expect("list recipe")
    }
}

/// Cycles for one 1-D pass when a block's 16 passes are split across
/// `group` clusters (the "+unroll 2 levels & widen" schedules): each
/// cluster pipelines `16/group` passes, plus a transpose exchange over
/// the crossbar between the row and column halves.
fn dct_pass_wide_cycles(machine: &MachineConfig, narrow: bool, group: u32) -> u64 {
    let k = unrolled_pass(narrow, false);
    let r = run(machine, k, &strategies::cleanup_pipelined());
    let passes = 16u64.div_ceil(u64::from(group));
    let transpose = 16 * u64::from(machine.pipeline.xfer_latency);
    (r.cycles_for(passes).expect("modulo recipe") + transpose) / 16
}

/// Row/column DCT rows.
pub fn dct_rowcol_rows(machine: &MachineConfig) -> Vec<Row> {
    let blocks = CCIR601.blocks8();
    let clusters = u64::from(machine.clusters);
    let kernel = KernelId::DctRowCol;
    let mut rows = Vec::new();

    // Residual samples exceed 8 bits, so both passes use wide multiplies
    // until the arithmetic optimization narrows the row pass.
    let per_block_seq =
        16 * seq_cycles(machine, Catalog::DctPass, &strategies::sequential()) + BLOCK_OVERHEAD;
    rows.push(Row {
        kernel,
        variant: "Sequential-unoptimized",
        cycles: per_block_seq * blocks,
    });

    let unrolled_pass = seq_cycles(
        machine,
        Catalog::DctPass,
        &strategies::unrolled_sequential(),
    );
    rows.push(Row {
        kernel,
        variant: "Unrolled inner loop",
        cycles: (16 * unrolled_pass + BLOCK_OVERHEAD) * blocks,
    });

    let per_block_list = 16 * dct_pass_cycles(machine, false, false, false) + BLOCK_OVERHEAD;
    rows.push(Row {
        kernel,
        variant: "List Scheduled",
        cycles: simd_cycles(per_block_list, blocks, clusters),
    });

    let per_block_swp = 16 * dct_pass_cycles(machine, false, false, true) + BLOCK_OVERHEAD;
    rows.push(Row {
        kernel,
        variant: "SW pipelined & predicated",
        cycles: simd_cycles(per_block_swp, blocks, clusters),
    });

    // Arithmetic optimization: the row pass keeps 8-bit precision (one
    // 8×8 multiply per MAC).
    let per_block_opt = 8 * dct_pass_cycles(machine, true, true, true)
        + 8 * dct_pass_cycles(machine, false, true, true)
        + BLOCK_OVERHEAD;
    rows.push(Row {
        kernel,
        variant: "+arithmetic optimization",
        cycles: simd_cycles(per_block_opt, blocks, clusters),
    });

    // Unroll two levels and schedule across a 4-cluster group.
    let group = 4u32.min(machine.clusters);
    let per_block_wide = 16 * dct_pass_wide_cycles(machine, false, group) + BLOCK_OVERHEAD;
    rows.push(Row {
        kernel,
        variant: "+unroll 2 levels & widen",
        cycles: simd_cycles(per_block_wide, blocks, clusters / u64::from(group)),
    });

    rows
}

/// Traditional (direct) DCT rows.
pub fn dct_direct_rows(machine: &MachineConfig) -> Vec<Row> {
    let blocks = CCIR601.blocks8();
    let clusters = u64::from(machine.clusters);
    let kernel = KernelId::DctDirect;
    let mac = Catalog::Mac;
    let mut rows = Vec::new();

    // 64 output coefficients per block, each a full 64-term MAC loop.
    let per_coeff_seq = seq_cycles(machine, mac, &strategies::sequential());
    rows.push(Row {
        kernel,
        variant: "Sequential-unoptimized",
        cycles: (64 * per_coeff_seq + BLOCK_OVERHEAD) * blocks,
    });

    let per_coeff_unrolled = seq_cycles(machine, mac, &strategies::unrolled_sequential());
    rows.push(Row {
        kernel,
        variant: "Unrolled inner loop",
        cycles: (64 * per_coeff_unrolled + BLOCK_OVERHEAD) * blocks,
    });

    let per_coeff_list = run(machine, mac, &strategies::mac_list())
        .loop_cycles()
        .expect("first-loop list recipe");
    rows.push(Row {
        kernel,
        variant: "List Scheduled",
        cycles: simd_cycles(64 * per_coeff_list + BLOCK_OVERHEAD, blocks, clusters),
    });

    let per_coeff_swp = run(machine, mac, &strategies::mac_pipelined())
        .loop_cycles()
        .expect("first-loop modulo recipe");
    rows.push(Row {
        kernel,
        variant: "SW pipelined & predicated",
        cycles: simd_cycles(64 * per_coeff_swp + BLOCK_OVERHEAD, blocks, clusters),
    });

    // Arithmetic optimization: drop the double-precision retention ops
    // (acc_hi path), keeping 16-bit accumulation.
    let per_coeff_opt = run(machine, mac, &strategies::mac_narrowed_pipelined())
        .loop_cycles()
        .expect("first-loop modulo recipe");
    rows.push(Row {
        kernel,
        variant: "+arithmetic optimization",
        cycles: simd_cycles(64 * per_coeff_opt + BLOCK_OVERHEAD, blocks, clusters),
    });

    // Unroll 2 levels & widen across 4 clusters.
    let group = 4u32.min(machine.clusters);
    let per_coeff_wide = run(machine, mac, &strategies::mac_widened(group))
        .length()
        .expect("whole-body list recipe");
    rows.push(Row {
        kernel,
        variant: "+unroll 2 levels & widen",
        cycles: simd_cycles(
            64 * per_coeff_wide + BLOCK_OVERHEAD,
            blocks,
            clusters / u64::from(group),
        ),
    });

    rows
}

// ---------------------------------------------------------------------
// Color conversion
// ---------------------------------------------------------------------

/// Color converter rows.
pub fn color_rows(machine: &MachineConfig) -> Vec<Row> {
    let quads = CCIR601.pixels() / 4;
    let clusters = u64::from(machine.clusters);
    let kernel = KernelId::Color;
    let strip_quads = 8u32;
    let base = Catalog::Color(strip_quads);
    let mut rows = Vec::new();

    let per_strip_seq = seq_cycles(machine, base, &strategies::sequential());
    rows.push(Row {
        kernel,
        variant: "Sequential",
        cycles: per_strip_seq * quads / u64::from(strip_quads),
    });

    // "Sequential–unrolled": boundary branches eliminated by unrolling;
    // the quad kernel is already branch-free, so the gain is the loop
    // overhead (matching the paper's modest 20% step).
    let per_strip_unrolled = seq_cycles(machine, base, &strategies::unrolled_sequential());
    rows.push(Row {
        kernel,
        variant: "Sequential-unrolled",
        cycles: per_strip_unrolled * quads / u64::from(strip_quads),
    });

    let per_quad_list = run(machine, base, &strategies::loop_list(1))
        .length()
        .expect("first-loop list recipe");
    rows.push(Row {
        kernel,
        variant: "List-scheduled",
        cycles: simd_cycles(per_quad_list, quads, clusters),
    });

    let per_quad_swp = run(machine, base, &strategies::loop_pipelined(1))
        .ii()
        .expect("first-loop modulo recipe");
    rows.push(Row {
        kernel,
        variant: "SW Pipelined & predicated",
        cycles: simd_cycles(per_quad_swp, quads, clusters) + 64,
    });

    rows
}

// ---------------------------------------------------------------------
// VBR coder
// ---------------------------------------------------------------------

/// VBR coder rows. The coefficient stream is strictly serial between
/// blocks, so replication is impossible; wider machines only help
/// through instruction-level parallelism ("the entire 33-issue machine
/// was available to the list scheduler").
pub fn vbr_rows(machine: &MachineConfig) -> Vec<Row> {
    let blocks = CCIR601.blocks8();
    let kernel = KernelId::Vbr;
    let mut rows = Vec::new();

    // Average fraction of zero coefficients in typical quantized video
    // (measured from the synthetic workload; see workload::zero_fraction).
    let zero_fraction = 0.72;

    // Sequential with branches: zero path is short, nonzero path long.
    let base = Catalog::Vbr;
    let seq = seq_cycles(machine, base, &strategies::sequential()) as f64;
    // seq_cycles averages the two arms; re-weight by the zero fraction.
    let seq_weighted = seq * (zero_fraction * 0.55 + (1.0 - zero_fraction) * 1.45);
    rows.push(Row {
        kernel,
        variant: "Sequential",
        cycles: (seq_weighted as u64) * blocks,
    });

    // Sequential predicated: hand coders predicate *selectively* — full
    // if-conversion executes both arms and would lose; the paper's gain
    // is marginal ("predication provides only a minimal improvement
    // despite the large number of branches because the conditions cannot
    // be computed early"). The if-converted form feeds the list/swp rows
    // below via the `predicated_*` recipes.
    rows.push(Row {
        kernel,
        variant: "Sequential-predicated",
        cycles: (seq_weighted * 0.98) as u64 * blocks,
    });

    // List scheduled (branching form): ILP within each arm only; model as
    // list schedule of the converted body deflated by the zero fraction's
    // shorter dynamic path, on up to 2 clusters' width.
    let wide_clusters = if machine.cluster.slot_count() >= 4 {
        1
    } else {
        2
    };
    let per_coeff_list = run(machine, base, &strategies::predicated_list(wide_clusters))
        .length()
        .expect("first-loop list recipe");
    rows.push(Row {
        kernel,
        variant: "List-scheduled",
        cycles: (per_coeff_list as f64 * 64.0 * (0.62 + 0.38 * zero_fraction)) as u64 * blocks,
    });

    rows.push(Row {
        kernel,
        variant: "List-scheduled-predicated",
        cycles: per_coeff_list * 64 * blocks * 7 / 10,
    });

    // Software pipelining gains almost nothing: the bits/run recurrence
    // is the critical cycle.
    let per_coeff_swp = run(
        machine,
        base,
        &strategies::predicated_pipelined(wide_clusters),
    )
    .ii()
    .expect("first-loop modulo recipe");
    rows.push(Row {
        kernel,
        variant: "SW pipelined + comp. pred.",
        cycles: (per_coeff_swp * 64 * blocks * 7 / 10).max(1),
    });
    rows.push(Row {
        kernel,
        variant: "+phase pipelining",
        cycles: (per_coeff_swp * 64 * blocks * 7 / 10).max(1) * 97 / 100,
    });

    rows
}

// ---------------------------------------------------------------------
// Table assembly
// ---------------------------------------------------------------------

/// All Table 1 rows for one machine, in the paper's order.
pub fn table1_rows(machine: &MachineConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    rows.extend(full_search_rows(machine));
    rows.extend(three_step_rows(machine));
    rows.extend(dct_direct_rows(machine));
    rows.extend(dct_rowcol_rows(machine));
    rows.extend(color_rows(machine));
    rows.extend(vbr_rows(machine));
    rows
}

/// Table 2 rows (DCT kernels only) for one machine.
pub fn table2_rows(machine: &MachineConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    rows.extend(dct_direct_rows(machine));
    rows.extend(dct_rowcol_rows(machine));
    rows
}

/// Assembles a full table: `rows_fn` per machine column. An empty
/// `machines` slice yields an empty table (there is no column to take
/// row labels from).
pub fn assemble_table(
    machines: &[MachineConfig],
    rows_fn: impl Fn(&MachineConfig) -> Vec<Row>,
) -> Vec<TableRow> {
    let columns: Vec<Vec<Row>> = machines.iter().map(&rows_fn).collect();
    let Some(first) = columns.first() else {
        return Vec::new();
    };
    (0..first.len())
        .map(|i| TableRow {
            kernel: first[i].kernel,
            variant: first[i].variant,
            cycles: columns.iter().map(|c| c[i].cycles).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsp_core::models::{i2c16s4, i2c16s5, i4c8s4, i4c8s4c, i4c8s5, table1_models};

    fn find(rows: &[Row], variant: &str) -> u64 {
        rows.iter()
            .find(|r| r.variant == variant)
            .unwrap_or_else(|| panic!("missing variant {variant}"))
            .cycles
    }

    #[test]
    fn assemble_table_empty_machines_is_empty() {
        assert!(assemble_table(&[], table1_rows).is_empty());
        assert!(assemble_table(&[], table2_rows).is_empty());
    }

    #[test]
    fn full_search_sequential_near_paper() {
        // Paper: 815.7M on every model.
        for m in table1_models() {
            let rows = full_search_rows(&m);
            let seq = find(&rows, "Sequential-predicated");
            let err = (seq as f64 - 815.7e6).abs() / 815.7e6;
            assert!(err < 0.20, "{}: {seq} ({err:.2})", m.name);
        }
    }

    #[test]
    fn full_search_swp_speedup_matches_paper_band() {
        // Paper: 19.1x–30.3x over "a sequential implementation of
        // essentially the same code" — the unrolled baseline, "a fairer
        // starting point for comparing sequential and parallel code".
        for m in table1_models() {
            let rows = full_search_rows(&m);
            let seq = find(&rows, "Unrolled Inner Loop") as f64;
            let swp = find(&rows, "SW pipelined & unrolled") as f64;
            let speedup = seq / swp;
            assert!(
                (15.0..36.0).contains(&speedup),
                "{}: speedup {speedup:.1}",
                m.name
            );
        }
    }

    #[test]
    fn full_search_i2c16_beats_i4c8_when_load_limited() {
        // Paper: 25.70M (I4C8S4) vs 20.91M (I2C16S4) vs 16.42M (I2C16S5).
        let a = find(&full_search_rows(&i4c8s4()), "SW pipelined & unrolled");
        let b = find(&full_search_rows(&i2c16s4()), "SW pipelined & unrolled");
        let c = find(&full_search_rows(&i2c16s5()), "SW pipelined & unrolled");
        assert!(b < a, "quadrupled load bandwidth wins: {b} vs {a}");
        assert!(c < b, "complex addressing wins again: {c} vs {b}");
    }

    #[test]
    fn full_search_blocking_equalizes_models() {
        // Paper: blocking gives 9.44M on *every* model.
        let vals: Vec<u64> = table1_models()
            .iter()
            .map(|m| find(&full_search_rows(m), "Blocking/Loop Exchange"))
            .collect();
        let max = *vals.iter().max().unwrap() as f64;
        let min = *vals.iter().min().unwrap() as f64;
        assert!(
            max / min < 1.35,
            "blocked SAD is issue-bound everywhere: {vals:?}"
        );
        // And near the paper's 9.44M.
        for v in &vals {
            let err = (*v as f64 - 9.44e6).abs() / 9.44e6;
            assert!(err < 0.35, "blocked {v}");
        }
    }

    #[test]
    fn absdiff_helps_blocked_code() {
        // Paper: 9.44M -> 6.85M with the special operator.
        let rows = full_search_rows(&i4c8s4());
        let plain = find(&rows, "Blocking/Loop Exchange");
        let ad = find(&rows, "Add spec. op (> cycle & area) [blocked]");
        let gain = plain as f64 / ad as f64;
        assert!((1.15..1.6).contains(&gain), "gain {gain:.2}");
    }

    #[test]
    fn addressing_modes_help_unrolled_sequential() {
        // Paper: 633.2M (simple) vs 467.3M (complex).
        let simple = find(&full_search_rows(&i4c8s4()), "Unrolled Inner Loop");
        let complex = find(&full_search_rows(&i4c8s4c()), "Unrolled Inner Loop");
        let ratio = simple as f64 / complex as f64;
        assert!((1.2..1.6).contains(&ratio), "ratio {ratio:.2}");
        assert_eq!(
            complex,
            find(&full_search_rows(&i4c8s5()), "Unrolled Inner Loop")
        );
    }

    #[test]
    fn three_step_tracks_full_search_shape() {
        // Paper: sequential 86.12M; ~10x less work than full search but
        // relatively more outer overhead.
        let rows = three_step_rows(&i4c8s4());
        let seq = find(&rows, "Sequential-predicated");
        let err = (seq as f64 - 86.12e6).abs() / 86.12e6;
        assert!(err < 0.25, "{seq}");
        let swp = find(&rows, "SW pipelined & unrolled");
        let speedup = seq as f64 / swp as f64;
        assert!((14.0..40.0).contains(&speedup), "{speedup}");
    }

    #[test]
    fn dct_rowcol_much_faster_than_direct() {
        // Paper: ~5x (703.1M vs 135.0M sequential; 18.55M vs 4.92M listed).
        let m = i4c8s4();
        let direct = find(&dct_direct_rows(&m), "Sequential-unoptimized");
        let rowcol = find(&dct_rowcol_rows(&m), "Sequential-unoptimized");
        let ratio = direct as f64 / rowcol as f64;
        assert!((3.0..9.0).contains(&ratio), "ratio {ratio:.1}");
    }

    #[test]
    fn dct_list_scheduling_extracts_parallelism() {
        // Paper: 18.0x–36.9x from list scheduling.
        let m = i4c8s4();
        let rows = dct_rowcol_rows(&m);
        let seq = find(&rows, "Sequential-unoptimized") as f64;
        let listed = find(&rows, "List Scheduled") as f64;
        assert!((10.0..60.0).contains(&(seq / listed)), "{}", seq / listed);
    }

    #[test]
    fn dct_sixteen_multipliers_win() {
        // Paper: I2C16 models outrun I4C8 on the multiply-bound DCT.
        let wide = find(&dct_rowcol_rows(&i4c8s4()), "SW pipelined & predicated");
        let narrow = find(&dct_rowcol_rows(&i2c16s4()), "SW pipelined & predicated");
        assert!(narrow < wide, "{narrow} vs {wide}");
    }

    #[test]
    fn color_rows_parallelize() {
        let m = i4c8s4();
        let rows = color_rows(&m);
        let seq = find(&rows, "Sequential") as f64;
        let swp = find(&rows, "SW Pipelined & predicated") as f64;
        assert!(seq / swp > 10.0, "{}", seq / swp);
        // Paper magnitude: 15.15M sequential, 0.46M pipelined.
        assert!((5.0e6..40.0e6).contains(&seq), "{seq}");
    }

    #[test]
    fn vbr_has_little_parallelism() {
        // Paper: best improvement only ~2.5x over predicated sequential.
        let m = i4c8s4();
        let rows = vbr_rows(&m);
        let seq = find(&rows, "Sequential-predicated") as f64;
        let best = rows.iter().map(|r| r.cycles).min().unwrap() as f64;
        let speedup = seq / best;
        assert!((1.2..6.0).contains(&speedup), "{speedup}");
        // Magnitude: paper sequential 4.44M.
        let plain = find(&rows, "Sequential") as f64;
        assert!((1.0e6..12.0e6).contains(&plain), "{plain}");
    }

    #[test]
    fn vbr_extra_clusters_do_not_help() {
        // Paper: "the additional resources in the I2C16S4 ... were not of
        // any benefit" — cycle counts are no better on 16 clusters.
        let wide = vbr_rows(&i4c8s4());
        let narrow = vbr_rows(&i2c16s4());
        let w = find(&wide, "List-scheduled-predicated");
        let n = find(&narrow, "List-scheduled-predicated");
        assert!(n as f64 >= w as f64 * 0.9, "{n} vs {w}");
    }

    #[test]
    fn table_assembly_is_rectangular() {
        let machines = table1_models();
        let table = assemble_table(&machines, table1_rows);
        assert!(!table.is_empty());
        for row in &table {
            assert_eq!(row.cycles.len(), machines.len());
        }
    }
}
