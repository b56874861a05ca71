//! One test per [`SimError`] variant: each is provoked by a minimal
//! program.

use vsp_core::models;
use vsp_isa::{AddrMode, AluUnOp, MemBank, MulKind, OpKind, Operand, Operation, Program, Reg};
use vsp_sim::{SimError, Simulator};

fn mov(c: u8, s: u8, dst: u16, v: i16) -> Operation {
    Operation::new(
        c,
        s,
        OpKind::AluUn {
            op: AluUnOp::Mov,
            dst: Reg(dst),
            a: Operand::Imm(v),
        },
    )
}

fn load(c: u8, s: u8, dst: u16, addr: u16) -> Operation {
    Operation::new(
        c,
        s,
        OpKind::Load {
            dst: Reg(dst),
            addr: AddrMode::Absolute(addr),
            bank: MemBank(0),
        },
    )
}

#[test]
fn premature_read_is_raised() {
    // Load-use violation on a 5-stage machine: the consumer reads the
    // destination one cycle before the load's latency has elapsed.
    let m = models::i4c8s5();
    let mut p = Program::new("premature");
    p.push_word(vec![load(0, 2, 1, 0)]);
    p.push_word(vec![Operation::new(
        0,
        0,
        OpKind::AluUn {
            op: AluUnOp::Mov,
            dst: Reg(2),
            a: Operand::Reg(Reg(1)),
        },
    )]);
    let (bc, bs) = m.branch_slot();
    p.push_word(vec![Operation::new(bc, bs, OpKind::Halt)]);

    let mut sim = Simulator::new(&m, &p).unwrap();
    let err = sim.run(100).unwrap_err();
    match &err {
        SimError::PrematureRead {
            reg,
            ready_at,
            cycle,
            ..
        } => {
            assert_eq!(*reg, Reg(1));
            assert!(ready_at > cycle, "value must become ready after the read");
        }
        other => panic!("expected PrematureRead, got {other:?}"),
    }
}

#[test]
fn write_conflict_is_raised() {
    // On a 5-stage machine a load has latency 2 and an ALU op latency 1,
    // so a load in word 0 and a mov in word 1 targeting the same register
    // commit in the same cycle. Nothing reads the register early, so this
    // passes validation and the load-use check — only the writeback port
    // conflicts.
    let m = models::i4c8s5();
    assert!(m.pipeline.load_use_delay >= 1, "needs a 5-stage pipeline");
    let mut p = Program::new("conflict");
    p.push_word(vec![load(0, 2, 1, 0)]);
    p.push_word(vec![mov(0, 0, 1, 9)]);
    let (bc, bs) = m.branch_slot();
    p.push_word(vec![Operation::new(bc, bs, OpKind::Halt)]);

    let mut sim = Simulator::new(&m, &p).unwrap();
    let err = sim.run(100).unwrap_err();
    match &err {
        SimError::WriteConflict { reg, cluster, .. } => {
            assert_eq!(*reg, Reg(1));
            assert_eq!(*cluster, 0);
        }
        other => panic!("expected WriteConflict, got {other:?}"),
    }
}

#[test]
fn mem_out_of_range_is_raised() {
    let m = models::i4c8s4();
    let cap = m.cluster.banks[0].words;
    assert!(cap <= u16::MAX as u32, "bank fits an absolute address");
    let mut p = Program::new("oob");
    p.push_word(vec![load(0, 2, 1, cap as u16)]);
    let (bc, bs) = m.branch_slot();
    p.push_word(vec![Operation::new(bc, bs, OpKind::Halt)]);

    let mut sim = Simulator::new(&m, &p).unwrap();
    let err = sim.run(100).unwrap_err();
    match &err {
        SimError::MemOutOfRange {
            bank, addr, words, ..
        } => {
            assert_eq!(*bank, 0);
            assert_eq!(*addr, cap);
            assert_eq!(*words, cap);
        }
        other => panic!("expected MemOutOfRange, got {other:?}"),
    }
}

#[test]
fn cycle_limit_is_raised() {
    // An unconditional spin never halts, so a small budget trips.
    let m = models::i4c8s4();
    let (bc, bs) = m.branch_slot();
    let mut p = Program::new("spin");
    p.push_word(vec![Operation::new(bc, bs, OpKind::Jump { target: 0 })]);
    p.push_word(vec![]); // delay slot

    let mut sim = Simulator::new(&m, &p).unwrap();
    let err = sim.run(50).unwrap_err();
    assert_eq!(err, SimError::CycleLimit { limit: 50 });
}

#[test]
fn ran_off_end_is_raised() {
    // No halt anywhere: fetch falls off the end of the program.
    let m = models::i4c8s4();
    let mut p = Program::new("no-halt");
    p.push_word(vec![mov(0, 0, 0, 1)]);
    p.push_word(vec![mov(0, 0, 1, 2)]);

    let mut sim = Simulator::new(&m, &p).unwrap();
    let err = sim.run(100).unwrap_err();
    match &err {
        SimError::RanOffEnd { cycle } => assert!(*cycle >= 1),
        other => panic!("expected RanOffEnd, got {other:?}"),
    }
}

/// Runs `p` on both execution paths, expecting each to fail with the
/// same error, and returns the fast path's statistics after asserting
/// that both paths' statistics and architectural state agree.
fn failing_runs_agree(m: &vsp_core::MachineConfig, p: &Program) -> (SimError, vsp_sim::RunStats) {
    let mut fast = Simulator::new(m, p).unwrap();
    let mut interp = Simulator::new(m, p).unwrap();
    let fast_err = fast.run(100).unwrap_err();
    let interp_err = interp.run_interp(100).unwrap_err();
    assert_eq!(fast_err, interp_err);
    assert_eq!(fast.stats(), interp.stats(), "{fast_err}");
    assert_eq!(fast.arch_state(), interp.arch_state(), "{fast_err}");
    (fast_err, fast.stats())
}

#[test]
fn an_error_inside_a_word_counts_the_same_ops_on_both_paths() {
    // I2C16S4: a two-cycle multiply on cluster 0 in word 0; word 1 moves
    // on cluster 1, reads the product on cluster 0 one cycle early, and
    // would move on cluster 2. Both paths count every op up to and
    // including the failing read, and none after it.
    let m = models::i2c16s4();
    assert_eq!(m.pipeline.mul_latency, 2);
    let (bc, bs) = m.branch_slot();
    let halt = || vec![Operation::new(bc, bs, OpKind::Halt)];
    let mul = Operation::new(
        0,
        0,
        OpKind::Mul {
            kind: MulKind::Mul8SS,
            dst: Reg(1),
            a: Operand::Imm(3),
            b: Operand::Imm(4),
        },
    );
    let read_early = Operation::new(
        0,
        1,
        OpKind::AluUn {
            op: AluUnOp::Mov,
            dst: Reg(2),
            a: Operand::Reg(Reg(1)),
        },
    );
    let mut p = Program::new("premature-mid-word");
    p.push_word(vec![mul]);
    p.push_word(vec![mov(1, 0, 5, 1), read_early, mov(2, 0, 5, 2)]);
    p.push_word(halt());
    let (err, stats) = failing_runs_agree(&m, &p);
    assert!(matches!(err, SimError::PrematureRead { .. }), "{err}");
    assert_eq!(stats.ops_by_cluster, vec![2, 1]);

    // An out-of-range load between two moves.
    let cap = m.cluster.banks[0].words as u16;
    let mut p = Program::new("oob-mid-word");
    p.push_word(vec![mov(1, 0, 5, 1), load(0, 0, 1, cap), mov(2, 0, 5, 2)]);
    p.push_word(halt());
    let (err, stats) = failing_runs_agree(&m, &p);
    assert!(matches!(err, SimError::MemOutOfRange { .. }), "{err}");
    assert_eq!(stats.ops_by_cluster, vec![1, 1]);

    // A write-port conflict surfaces after the whole word issued: every
    // op of the word is counted.
    let m = models::i4c8s5();
    let (bc, bs) = m.branch_slot();
    let mut p = Program::new("conflict-mid-word");
    p.push_word(vec![load(0, 2, 1, 0)]);
    p.push_word(vec![mov(1, 0, 5, 1), mov(0, 0, 1, 9), mov(2, 0, 5, 2)]);
    p.push_word(vec![Operation::new(bc, bs, OpKind::Halt)]);
    let (err, stats) = failing_runs_agree(&m, &p);
    assert!(matches!(err, SimError::WriteConflict { .. }), "{err}");
    assert_eq!(stats.ops_by_cluster, vec![2, 1, 1]);
}
