//! Re-execute-from-checkpoint recovery.
//!
//! Execution is cut into *regions* of a configurable number of
//! instruction words. Before each region the full microarchitectural
//! state is checkpointed — into one checkpoint per run, refreshed in
//! place, so the local memories are copied rather than reallocated at
//! every region; the region then runs under a watchdog cycle
//! budget. A detection — any `SimError` out of the step loop, or the
//! watchdog expiring (latency jitter storms, runaway stalls) — rolls
//! the simulator back to the checkpoint and re-executes. Transient
//! faults re-draw their randomness on replay and usually vanish;
//! stuck-at (hard) faults recur deterministically and exhaust the retry
//! budget, at which point the region's error is declared uncorrectable.
//! Each detection also halves the region size (exponential region
//! shrinking), so a recurring fault is isolated into ever-smaller
//! replay units before the loop gives up.

use vsp_sim::fault::FaultModel;
use vsp_sim::{Checkpoint, RunStats, SimError, Simulator};
use vsp_trace::TraceSink;

/// Tuning for [`run_with_recovery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Instruction words per region (checkpoint every this many words).
    pub checkpoint_interval: u64,
    /// Watchdog: cycle budget one region may consume before it is
    /// declared faulty and rolled back. Must be generous enough for the
    /// worst fault-free region (icache refills included), or a clean
    /// region will trip it deterministically and become uncorrectable.
    pub region_budget: u64,
    /// Re-executions allowed per region before its failure is declared
    /// uncorrectable.
    pub max_retries: u32,
    /// Global cycle budget for the surviving timeline (discarded replay
    /// cycles do not count against it).
    pub max_cycles: u64,
}

impl RecoveryConfig {
    /// Defaults tuned for kernel-sized programs: 256-word regions, a
    /// watchdog of 4× the region plus refill slack, 8 retries.
    pub fn new(max_cycles: u64) -> Self {
        RecoveryConfig {
            checkpoint_interval: 256,
            region_budget: 4 * 256 + 2048,
            max_retries: 8,
            max_cycles,
        }
    }

    /// Overrides the region size, scaling the watchdog with it.
    pub fn with_interval(mut self, words: u64) -> Self {
        self.checkpoint_interval = words.max(1);
        self.region_budget = 4 * self.checkpoint_interval + 2048;
        self
    }
}

/// What [`run_with_recovery`] observed.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// Final statistics of the surviving timeline, with the fault
    /// counters (`faults_detected` / `corrected` / `uncorrectable` /
    /// `recovery_cycles`) filled in.
    pub stats: RunStats,
    /// Whether the program ran to a committed halt.
    pub halted: bool,
    /// The terminal error, if the run did not complete: the last
    /// uncorrectable region error, or `CycleLimit` when the global
    /// budget ran out.
    pub error: Option<SimError>,
    /// Total region re-executions performed.
    pub retries: u64,
    /// Checkpoints taken: one at the start of every region, replayed
    /// attempts excluded.
    pub checkpoints: u64,
}

impl RecoveryOutcome {
    /// Completed with every detected fault corrected.
    pub fn is_clean(&self) -> bool {
        self.halted && self.error.is_none() && self.stats.faults_uncorrectable == 0
    }
}

/// What ended one region attempt.
enum RegionEnd {
    /// Region ran its full word quota (or the program halted).
    Done,
    /// The simulator faulted.
    Error(SimError),
    /// The watchdog cycle budget expired.
    Watchdog,
}

/// Runs `sim` to completion under checkpoint/recovery.
///
/// The simulator should carry a fault model (via
/// `Simulator::with_sink_and_faults`); with `NoFaults` this is just a
/// checkpointed run that still catches scheduler bugs. Detection is
/// error-based — silent data corruptions that never trip a simulator
/// error or the watchdog are *not* detected here; campaigns measure
/// those by comparing final state against a golden run (see the
/// `vsp-bench` `faults` bin).
pub fn run_with_recovery<S: TraceSink, F: FaultModel>(
    sim: &mut Simulator<'_, S, F>,
    cfg: &RecoveryConfig,
) -> RecoveryOutcome {
    let mut interval = cfg.checkpoint_interval.max(1);
    let mut detected: u64 = 0;
    let mut corrected: u64 = 0;
    let mut uncorrectable: u64 = 0;
    let mut recovery_cycles: u64 = 0;
    let mut retries: u64 = 0;
    let mut checkpoints: u64 = 0;
    let mut error: Option<SimError> = None;
    let mut checkpoint: Option<Checkpoint> = None;

    'regions: while !sim.is_halted() {
        if sim.cycle() >= cfg.max_cycles {
            error = Some(SimError::CycleLimit {
                limit: cfg.max_cycles,
            });
            break;
        }
        let cp = match &mut checkpoint {
            Some(cp) => {
                sim.checkpoint_into(cp);
                cp
            }
            None => checkpoint.insert(sim.checkpoint()),
        };
        checkpoints += 1;
        let mut region_detections: u64 = 0;
        loop {
            let end = run_region(sim, interval, cfg.region_budget);
            match end {
                RegionEnd::Done => {
                    // Every failed attempt of this region is now known
                    // to have been erased by re-execution.
                    corrected += region_detections;
                    continue 'regions;
                }
                RegionEnd::Error(e) => {
                    detected += 1;
                    region_detections += 1;
                    if region_detections > u64::from(cfg.max_retries) {
                        uncorrectable += 1;
                        error = Some(e);
                        break 'regions;
                    }
                    recovery_cycles += sim.cycle() - cp.cycle();
                    sim.restore(cp);
                    retries += 1;
                    interval = (interval / 2).max(1);
                }
                RegionEnd::Watchdog => {
                    detected += 1;
                    region_detections += 1;
                    if region_detections > u64::from(cfg.max_retries) {
                        uncorrectable += 1;
                        error = Some(SimError::CycleLimit {
                            limit: cfg.region_budget,
                        });
                        break 'regions;
                    }
                    recovery_cycles += sim.cycle() - cp.cycle();
                    sim.restore(cp);
                    retries += 1;
                    interval = (interval / 2).max(1);
                }
            }
        }
    }

    let mut stats = sim.stats();
    stats.faults_detected = detected;
    stats.faults_corrected = corrected;
    stats.faults_uncorrectable = uncorrectable;
    stats.recovery_cycles = recovery_cycles;
    RecoveryOutcome {
        halted: sim.is_halted(),
        error,
        retries,
        checkpoints,
        stats,
    }
}

/// Executes up to `words` instruction words or until the watchdog
/// `budget` (in cycles) expires.
fn run_region<S: TraceSink, F: FaultModel>(
    sim: &mut Simulator<'_, S, F>,
    words: u64,
    budget: u64,
) -> RegionEnd {
    let start = sim.cycle();
    for _ in 0..words {
        if sim.is_halted() {
            break;
        }
        if let Err(e) = sim.step() {
            return RegionEnd::Error(e);
        }
        if sim.cycle() - start > budget {
            return RegionEnd::Watchdog;
        }
    }
    RegionEnd::Done
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsp_core::models;
    use vsp_isa::{AluBinOp, AluUnOp, OpKind, Operand, Operation, Program, Reg};
    use vsp_sim::fault::NoFaults;
    use vsp_sim::Simulator;
    use vsp_trace::NullSink;

    fn straight_line_program(n: usize) -> Program {
        let mut p = Program::new("t");
        p.push_word(vec![Operation::new(
            0,
            0,
            OpKind::AluUn {
                op: AluUnOp::Mov,
                dst: Reg(1),
                a: Operand::Imm(0),
            },
        )]);
        for _ in 0..n {
            p.push_word(vec![Operation::new(
                0,
                0,
                OpKind::AluBin {
                    op: AluBinOp::Add,
                    dst: Reg(1),
                    a: Operand::Reg(Reg(1)),
                    b: Operand::Imm(1),
                },
            )]);
        }
        p.push_word(vec![Operation::new(0, 4, OpKind::Halt)]);
        p
    }

    #[test]
    fn fault_free_run_matches_plain_execution() {
        let m = models::i4c8s4();
        let p = straight_line_program(100);
        let mut plain = Simulator::new(&m, &p).unwrap();
        let plain_stats = plain.run(10_000).unwrap();

        let mut sim = Simulator::with_sink_and_faults(&m, &p, NullSink, NoFaults).unwrap();
        let outcome = run_with_recovery(&mut sim, &RecoveryConfig::new(10_000).with_interval(16));
        assert!(outcome.is_clean());
        assert_eq!(outcome.stats.faults_detected, 0);
        assert_eq!(outcome.stats.recovery_cycles, 0);
        // 102 words in 16-word regions.
        assert_eq!(outcome.checkpoints, 7);
        // Checkpointing is observation-only: identical stats.
        assert_eq!(outcome.stats, plain_stats);
        assert_eq!(sim.reg(0, Reg(1)), 100);
    }

    #[test]
    fn tiny_regions_still_complete() {
        let m = models::i4c8s4();
        let p = straight_line_program(30);
        let mut sim = Simulator::with_sink_and_faults(&m, &p, NullSink, NoFaults).unwrap();
        let outcome = run_with_recovery(&mut sim, &RecoveryConfig::new(10_000).with_interval(1));
        assert!(outcome.is_clean());
        assert_eq!(sim.reg(0, Reg(1)), 30);
    }

    #[test]
    fn global_cycle_budget_is_enforced() {
        let m = models::i4c8s4();
        let (bc, bs) = m.branch_slot();
        let mut p = Program::new("spin");
        p.push_word(vec![Operation::new(bc, bs, OpKind::Jump { target: 0 })]);
        p.push_word(vec![]);
        let mut sim = Simulator::with_sink_and_faults(&m, &p, NullSink, NoFaults).unwrap();
        let outcome = run_with_recovery(&mut sim, &RecoveryConfig::new(500).with_interval(64));
        assert!(!outcome.halted);
        assert!(matches!(outcome.error, Some(SimError::CycleLimit { .. })));
    }
}
