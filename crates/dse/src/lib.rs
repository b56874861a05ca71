//! Automated design-space search for the VLIW video signal processor.
//!
//! The paper's contribution is a *methodology*: enumerate candidate
//! datapaths, price them with calibrated VLSI megacell models, and
//! spend scheduling effort only on the candidates that survive the
//! physical screen (§1's numbered steps). The published tables walk
//! seven hand-chosen points of that space; this crate runs the
//! methodology itself, at grid scale:
//!
//! * [`space`] — the structural parameter grid (issue width × clusters
//!   × pipeline depth × registers × RF ports × memory banking);
//! * [`driver`] — enumerate → validate ([`vsp_core::validate_config`])
//!   → prune ([`vsp_vlsi::feasibility`]) → evaluate (the Table 1
//!   machinery, one strategy catalog per kernel) → rank;
//! * [`pareto`] — the frame-time × area × power frontier;
//! * [`verify`] — executed spot-checks: frontier designs run a
//!   code-generated kernel through [`vsp_exec::evaluate`], functional
//!   tier first with the simulator as fallback;
//! * [`par_map`] — the std-only parallel map the evaluate stage, the
//!   frontier spot-checks (and `vsp-bench`'s table engine) run on.
//!
//! The golden tests pin the seven paper models — priced and evaluated
//! through the identical pipeline — to the published Table 1/2 shape,
//! including the headline conclusion: the frontier's best frame time
//! belongs to a 16-cluster, 2-slot machine ("small clusters win").
//!
//! # Example
//!
//! ```
//! use vsp_dse::{search, SearchConfig, space};
//!
//! let grid = space::smoke();
//! let report = search(&grid[..24], &SearchConfig::default());
//! assert_eq!(report.enumerated, 24);
//! assert!(report.frontier.len() <= report.points.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
mod par;
pub mod pareto;
pub mod space;
pub mod verify;

pub use driver::{
    evaluate_machine, paper_points, search, search_recorded, EvaluatedPoint, SearchConfig,
    SearchReport, FRAME_STAGES,
};
pub use par::par_map;
pub use pareto::{dominates, non_dominated};
pub use verify::Verification;
