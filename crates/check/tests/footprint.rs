//! Allocation footprint of the execution tiers a campaign case goes
//! through, counted by a global allocator that sums both the number of
//! allocations and the bytes they ask for.
//!
//! Machine memory is sparse (`vsp_sim::LocalMemory` stores only the
//! 64-word rows a program writes), so a simulator, a snapshot, a
//! functional frame and a batch arena cost the rows a program touches,
//! not the 512 KiB of SRAM an I4C8S4 machine carries. A differential
//! case allocates per program, not per op, word or register: operand
//! sets are inline, validation reuses one reservation, the interpretive
//! step borrows its word and reuses the simulator's buffers, and the
//! functional lowering walk reuses one scratch per walk. Checkpoints
//! copy into the buffers they already hold, so the recovery loop's
//! refresh, restore and step allocate nothing once warm. This target
//! holds a single test, so no other test allocates while it counts.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use vsp_check::gen::{gen_program, ProgramGenConfig};
use vsp_check::oracle::ProgramReference;
use vsp_core::{models, validate_program, MachineConfig};
use vsp_isa::{AddrMode, AluBinOp, Instruction, MemBank, OpKind, Operand, Operation, Program, Reg};
use vsp_sim::{BatchSimulator, Simulator};

/// Bytes requested from the allocator so far, reallocations counted at
/// their new size.
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// Allocations so far, a reallocation counted as one.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn count(bytes: usize) {
    BYTES.fetch_add(bytes, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// relaxed atomics that allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What a stretch of code asked of the allocator.
#[derive(Debug, Clone, Copy, Default)]
struct Footprint {
    bytes: usize,
    allocs: usize,
}

/// What `f` allocates, with its result.
fn footprint<T>(f: impl FnOnce() -> T) -> (Footprint, T) {
    let (bytes, allocs) = (
        BYTES.load(Ordering::Relaxed),
        ALLOCS.load(Ordering::Relaxed),
    );
    let out = f();
    let used = Footprint {
        bytes: BYTES.load(Ordering::Relaxed) - bytes,
        allocs: ALLOCS.load(Ordering::Relaxed) - allocs,
    };
    (used, out)
}

const KIB: usize = 1024;
const MAX_CYCLES: u64 = 1_000_000;
const LANES: usize = 4;

/// Upper bounds on one `fuzz` program case over seeds 1..=16 on
/// I4C8S4. The worst cases measured once operand sets went inline and
/// the interpretive step and the lowering walk stopped allocating per
/// op, per word and per register were 176 486 bytes, 105 allocations
/// in `check_interp` and 98 in `check_functional`; the bounds add at
/// most a quarter. Before, those checks never made fewer than 153 and
/// 395 allocations, and the worst case took 237 672 bytes.
const CASE_BYTES: usize = 192 * KIB;
const INTERP_ALLOCS: usize = 120;
const FUNCTIONAL_ALLOCS: usize = 120;

/// `gen_program`'s program of `words` body words on `machine`.
fn fuzz_program(machine: &MachineConfig, seed: u64, words: usize) -> Program {
    let cfg = ProgramGenConfig {
        words,
        ..ProgramGenConfig::default()
    };
    gen_program(machine, &mut SmallRng::seed_from_u64(seed), &cfg)
}

/// A fresh simulator with its snapshot, and one `fuzz` program case on
/// every tier, each stay under a fixed budget on I4C8S4 (8 clusters,
/// 16 384-word double-buffered banks); before memory was sparse they
/// took about 1 MiB and 5 MiB. The per-op, per-word and per-register
/// allocations of a case are gone: operand sets, instruction words,
/// validation, the interpretive step and the lowering walk are each
/// pinned by a count. Once warm, checkpoint refreshes, restores and steps allocate
/// nothing, also after a restore to a checkpoint taken before a cluster
/// first issued (a per-cluster histogram row kept in the statistics was
/// once freed there and allocated again by the next step).
#[test]
fn simulators_snapshots_and_campaign_cases_allocate_their_footprint() {
    let machine = models::i4c8s4();

    // A store on the first and the last cluster, then a halt.
    let store = |cluster| {
        Operation::new(
            cluster,
            2,
            OpKind::Store {
                src: Operand::Imm(7),
                addr: AddrMode::Absolute(4000),
                bank: MemBank(0),
            },
        )
    };
    let mut p = Program::new("two-stores");
    p.push_word(vec![store(0), store(machine.clusters as u8 - 1)]);
    p.push_word(vec![Operation::new(0, 4, OpKind::Halt)]);
    let (fresh, state) = footprint(|| {
        let sim = Simulator::new(&machine, &p).unwrap();
        sim.arch_state()
    });
    assert!(!state.halted);
    assert!(
        fresh.bytes < 128 * KIB,
        "fresh simulator + snapshot: {fresh:?}"
    );
    let (run, _) = footprint(|| {
        let mut sim = Simulator::new(&machine, &p).unwrap();
        sim.run(MAX_CYCLES).unwrap();
        sim.arch_state()
    });
    assert!(run.bytes < 128 * KIB, "simulator run + snapshot: {run:?}");

    // Operand sets are inline: a store of a register through an indexed
    // address reads three registers and allocates nothing.
    let indexed_store = OpKind::Store {
        src: Operand::Reg(Reg(2)),
        addr: AddrMode::Indexed(Reg(4), Reg(5)),
        bank: MemBank(0),
    };
    let (uses, n) = footprint(|| black_box(&indexed_store).use_regs().len());
    assert_eq!(n, 3);
    assert_eq!(uses.allocs, 0, "use_regs: {uses:?}");

    // A word keeps the operation list it is built from, its no-ops
    // dropped in place.
    let wide: Vec<Operation> = (0..machine.clusters as u8)
        .map(|c| Operation::new(c, 0, OpKind::Nop))
        .chain((0..machine.clusters as u8).map(store))
        .collect();
    let (word, instr) = footprint(|| Instruction::from_ops(wide));
    assert_eq!(instr.op_count(), machine.clusters as usize);
    assert_eq!(word.allocs, 0, "from_ops: {word:?}");

    // Validation reuses one reservation for every word, so a program
    // ten times longer costs no more allocations.
    let short = fuzz_program(&machine, 3, 24);
    let long = fuzz_program(&machine, 3, 240);
    let (short_cost, ok) = footprint(|| validate_program(&machine, &short));
    ok.unwrap();
    let (long_cost, ok) = footprint(|| validate_program(&machine, &long));
    ok.unwrap();
    assert!(
        long_cost.allocs <= short_cost.allocs,
        "validate_program: 240 words {long_cost:?}, 24 words {short_cost:?}"
    );

    // One engine for every case, warmed by the first, as a `fuzz`
    // worker keeps one per model.
    let mut engine = BatchSimulator::new(&machine);
    let mut case = |seed: u64| {
        let program = fuzz_program(&machine, seed, ProgramGenConfig::default().words);
        let (built, reference) =
            footprint(|| ProgramReference::new(&machine, &program, MAX_CYCLES, &[]).unwrap());
        let (interp, _) = footprint(|| reference.check_interp().unwrap().cycles);
        let (batch, _) = footprint(|| reference.check_batch(&mut engine, LANES).unwrap().cycles);
        let (functional, _) = footprint(|| reference.check_functional().unwrap());
        let (dropped, ()) = footprint(|| drop(reference));
        let bytes = built.bytes + interp.bytes + batch.bytes + functional.bytes + dropped.bytes;
        (bytes, interp.allocs, functional.allocs)
    };
    case(0);
    let cases: Vec<_> = (1..=16).map(&mut case).collect();
    let worst_bytes = cases.iter().map(|c| c.0).max().unwrap();
    let worst_interp = cases.iter().map(|c| c.1).max().unwrap();
    let worst_functional = cases.iter().map(|c| c.2).max().unwrap();
    assert!(
        worst_bytes < CASE_BYTES,
        "one program case: {worst_bytes} bytes"
    );
    assert!(
        worst_interp <= INTERP_ALLOCS,
        "check_interp: {worst_interp} allocations"
    );
    assert!(
        worst_functional <= FUNCTIONAL_ALLOCS,
        "check_functional: {worst_functional} allocations"
    );

    // The interpretive step borrows its word and reuses the simulator's
    // result buffers: over stores alone (no result goes through its
    // ordered commit map) it allocates nothing once the rows exist.
    let mut stores = Program::new("stores");
    for _ in 0..64 {
        stores.push_word((0..machine.clusters as u8).map(store).collect());
    }
    stores.push_word(vec![Operation::new(0, 4, OpKind::Halt)]);
    let mut sim = Simulator::new(&machine, &stores).unwrap();
    for _ in 0..8 {
        sim.step_interp().unwrap();
    }
    let (interp_steps, ()) = footprint(|| {
        while !sim.is_halted() {
            sim.step_interp().unwrap();
        }
    });
    assert_eq!(sim.stats().words, 65);
    assert_eq!(
        interp_steps.allocs, 0,
        "interpretive steps over stores: {interp_steps:?}"
    );

    // The recovery loop's moves at every word: refresh a checkpoint,
    // step, roll back, step again. Every word adds on and stores from
    // every cluster, so the run's shape (pending commits, memory rows)
    // stops growing within the first words; over the second half
    // nothing may allocate.
    let mut p = Program::new("steady");
    for w in 0..64 {
        p.push_word(
            (0..machine.clusters as u8)
                .flat_map(|c| {
                    let add = OpKind::AluBin {
                        op: AluBinOp::Add,
                        dst: Reg(1),
                        a: Operand::Imm(w),
                        b: Operand::Imm(1),
                    };
                    [Operation::new(c, 0, add), store(c)]
                })
                .collect(),
        );
    }
    p.push_word(vec![Operation::new(0, 4, OpKind::Halt)]);
    let mut sim = Simulator::new(&machine, &p).unwrap();
    let mut cp = sim.checkpoint();
    let mut word = |sim: &mut Simulator| {
        sim.checkpoint_into(&mut cp);
        sim.step().unwrap();
        sim.restore(&cp);
        sim.step().unwrap();
    };
    for _ in 0..32 {
        word(&mut sim);
    }
    let (steady, ()) = footprint(|| {
        while !sim.is_halted() {
            word(&mut sim);
        }
    });
    assert_eq!(sim.stats().words, 65);
    assert_eq!(
        steady.bytes, 0,
        "checkpoint, restore and step allocated {steady:?}"
    );

    // The same moves over a 25-word `fuzz` program, twice from a
    // checkpoint taken before any cluster issued: the second pass
    // restores, refreshes and steps into buffers the first one sized.
    let program = fuzz_program(&machine, 7, ProgramGenConfig::default().words);
    assert_eq!(program.len(), 25);
    let mut sim = Simulator::new(&machine, &program).unwrap();
    let start = sim.checkpoint();
    let mut cp = sim.checkpoint();
    let mut pass = |sim: &mut Simulator| {
        sim.restore(&start);
        while !sim.is_halted() {
            sim.checkpoint_into(&mut cp);
            sim.step().unwrap();
            sim.restore(&cp);
            sim.step().unwrap();
        }
    };
    pass(&mut sim);
    let (second, ()) = footprint(|| pass(&mut sim));
    assert!(sim.stats().words > 0);
    assert_eq!(
        second.bytes, 0,
        "second pass over a fuzz program allocated {second:?}"
    );
}
