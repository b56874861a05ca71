//! VLIW schedulers for the VSP — the compiler-side half of the paper's
//! methodology.
//!
//! §3.3 of the paper hand-schedules kernels using "well known algorithms
//! such as loop unrolling, list scheduling and software pipelining"; this
//! crate implements those algorithms so every Table 1/Table 2 row can be
//! *computed* rather than transcribed:
//!
//! * [`vop`] — virtual operations: machine operations over virtual
//!   registers, with their dependence graph;
//! * [`lower`] — lowering from flat IR bodies to virtual operations:
//!   addressing-mode selection (explicit address adds on
//!   simple-addressing machines, folded `BaseDisp`/`Indexed` on complex
//!   ones), 16×16-multiply decomposition into 8×8 partial products,
//!   absolute-difference fusion or expansion, predicate materialization;
//! * [`mii`] — minimum initiation-interval bounds (ResMII from the
//!   resource table, RecMII from dependence cycles);
//! * [`modulo`] — iterative modulo scheduling (software pipelining);
//! * [`list`] — resource- and latency-constrained list scheduling;
//! * [`regalloc`] — register-pressure estimation and linear-scan
//!   allocation for code generation;
//! * [`codegen`] — VLIW code generation for list-scheduled loops,
//!   including SIMD-style replication across clusters, producing
//!   programs the cycle-accurate simulator executes;
//! * [`analytic`] — the closed-form II predictor the paper names as
//!   future work, validated against the scheduler;
//! * [`error`] — the unified [`SchedError`] for pipeline drivers;
//! * [`pipeline`] — the unified compilation pipeline: declarative
//!   [`Strategy`] recipes over a [`CompilationUnit`], and the
//!   [`compile`] entry point every driver uses, run as two straight
//!   stages: machine-independent IR passes ([`transform`]), then
//!   lowering and scheduling on a machine ([`lower_and_schedule`]);
//! * [`select`] — strategy admissibility for machines outside the
//!   hand-tuned seven (design-space search);
//! * [`shape`] — the [`CompileShape`]: the projection of a machine the
//!   pipeline reads, so drivers can compile once per shape.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod codegen;
pub mod error;
pub mod list;
pub mod lower;
pub mod mii;
pub mod modulo;
pub mod pipeline;
pub mod regalloc;
pub mod select;
pub mod shape;
pub mod vop;

pub use analytic::{predict_ii, predict_loop_cycles, IiPrediction};
pub use codegen::{codegen_loop, LoopControl};
pub use error::SchedError;
pub use list::{list_schedule, list_schedule_traced, ListSchedule};
pub use lower::{lower_body, ArrayLayout, LowerError};
pub use mii::{min_ii_from, rec_mii, res_mii};
pub use modulo::{modulo_schedule, modulo_schedule_traced, ModuloSchedule};
pub use pipeline::{
    compile, compile_with, lower_and_schedule, transform, CompilationUnit, CompileOptions,
    CompileResult, LoopControlMode, PassConfig, PipelineReport, PipelineValidator,
    ScheduleArtifact, ScheduleScope, ScheduleSummary, SchedulerChoice, Strategy,
};
pub use select::{admissible, clusters_claimed};
pub use shape::CompileShape;
pub use vop::{LoweredBody, VOp, VopDeps};
