//! Allocation footprint of the execution tiers a campaign case goes
//! through, counted by a global allocator that sums the bytes every
//! allocation asks for.
//!
//! Machine memory is sparse (`vsp_sim::LocalMemory` stores only the
//! 64-word rows a program writes), so a simulator, a snapshot, a
//! functional frame and a batch arena cost the rows a program touches,
//! not the 512 KiB of SRAM an I4C8S4 machine carries. Checkpoints copy
//! into the buffers they already hold, so the recovery loop's refresh,
//! restore and step allocate nothing once warm. This target holds a
//! single test, so no other test allocates while it counts.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use vsp_check::gen::{gen_program, ProgramGenConfig};
use vsp_check::oracle::ProgramReference;
use vsp_core::models;
use vsp_isa::{AddrMode, AluBinOp, MemBank, OpKind, Operand, Operation, Program, Reg};
use vsp_sim::{BatchSimulator, Simulator};

/// Bytes requested from the allocator so far, reallocations counted at
/// their new size.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter is a
// relaxed atomic that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes `f` allocates, with its result.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATED.load(Ordering::Relaxed) - before, out)
}

const KIB: usize = 1024;
const MAX_CYCLES: u64 = 1_000_000;
const LANES: usize = 4;

/// A fresh simulator with its snapshot, and one `fuzz` program case on
/// every tier, each stay under a fixed budget on I4C8S4 (8 clusters,
/// 16 384-word double-buffered banks). Before memory was sparse they
/// took about 1 MiB and 5 MiB. Once warm, checkpoint refreshes,
/// restores and steps allocate nothing (the derived `clone_from` of the
/// icache and the statistics once made 11 allocations per refresh and
/// per restore).
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
    let (fresh, state) = allocated_by(|| {
        let sim = Simulator::new(&machine, &p).unwrap();
        sim.arch_state()
    });
    assert!(!state.halted);
    assert!(
        fresh < 128 * KIB,
        "fresh simulator + snapshot: {fresh} bytes"
    );
    let (run, _) = allocated_by(|| {
        let mut sim = Simulator::new(&machine, &p).unwrap();
        sim.run(MAX_CYCLES).unwrap();
        sim.arch_state()
    });
    assert!(run < 128 * KIB, "simulator run + snapshot: {run} bytes");

    // One engine for every case, warmed by the first, as a `fuzz`
    // worker keeps one per model.
    let mut engine = BatchSimulator::new(&machine);
    let mut case = |seed: u64| {
        let program = gen_program(
            &machine,
            &mut SmallRng::seed_from_u64(seed),
            &ProgramGenConfig::default(),
        );
        allocated_by(|| {
            let reference = ProgramReference::new(&machine, &program, MAX_CYCLES, &[]).unwrap();
            reference.check_interp().unwrap();
            reference.check_batch(&mut engine, LANES).unwrap();
            reference.check_functional().unwrap();
        })
        .0
    };
    case(0);
    let worst = (1..=16).map(&mut case).max().unwrap();
    assert!(worst < 512 * KIB, "one program case: {worst} bytes");

    // The recovery loop's moves at every word: refresh a checkpoint,
    // step, roll back, step again. Every word adds on and stores from
    // every cluster, so the run's shape (statistics rows, pending
    // commits, memory rows) stops growing within the first words; over
    // the second half nothing may allocate.
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
    let (steady, ()) = allocated_by(|| {
        while !sim.is_halted() {
            word(&mut sim);
        }
    });
    assert_eq!(sim.stats().words, 65);
    assert_eq!(
        steady, 0,
        "checkpoint, restore and step allocated {steady} bytes"
    );
}
