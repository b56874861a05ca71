//! Allocations of the compile path, counted by a global allocator.
//!
//! A compile allocates per body and per II attempt, not per statement,
//! per register, per reservation row's resource or per placement:
//! `Expr::uses` yields its variables inline, a `CycleReservation` keeps
//! its slot masks and resource counts in one buffer, `VopDeps` groups
//! its def and use lists by counting sort, and the modulo scheduler
//! ranks its worklist and reuses its cluster-preference scratch. This
//! target holds a single test, so no other test allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use vsp_core::{models, CycleReservation};
use vsp_ir::{ArrayId, Expr, IndexExpr, VarId};
use vsp_isa::{AluBinOp, OpKind, Operand, Reg};
use vsp_kernels::variants::table1_recipes;
use vsp_sched::{compile, LoweredBody, VOp, VopDeps};

/// Allocations so far, a reallocation counted as one.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter is a
// relaxed atomic that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How many allocations `f` makes, with its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// Upper bound on one compile of the color converter's `loop/swp` on
/// I4C8S4 (28 II attempts, 34 179 placements). It made 3 492
/// allocations once the pieces above landed, and 11 249 before; the
/// bound adds less than a quarter and stays far below the old count.
/// What remains is per attempt: each row's reservation and operation
/// list.
const COLOR_COMPILE_ALLOCS: usize = 4_300;

/// The same for the predicated VBR loop on I2C16S4, which spreads over
/// two clusters (25 II attempts, 6 466 placements): 1 065 allocations,
/// and 15 773 when each placement's cluster preference was a new list.
const VBR_COMPILE_ALLOCS: usize = 1_300;

/// A body of `n` operations naming `3n` virtual registers: a fixed
/// three-op chain (two flow edges), then operations that each define a
/// fresh register from two registers nothing defines, so the body's
/// edge count does not grow with `n`.
fn wide_body(n: u16) -> LoweredBody {
    let add = |dst: u16, a: u16, b: u16| VOp {
        kind: OpKind::AluBin {
            op: AluBinOp::Add,
            dst: Reg(dst),
            a: Operand::Reg(Reg(a)),
            b: Operand::Reg(Reg(b)),
        },
        guard: None,
        src_stmt: 0,
    };
    let ops = (0..n)
        .map(|i| match i {
            1 | 2 => add(i, i - 1, n + i),
            _ => add(i, n + i, 2 * n + i),
        })
        .collect();
    LoweredBody {
        ops,
        vregs: 3 * n,
        vpreds: 0,
    }
}

/// `Expr::uses` and `CycleReservation::new` allocate nothing per
/// variable or per resource, `VopDeps` nothing per register, and two
/// whole pipelined compiles, on one cluster and on two, stay under
/// their bounds.
#[test]
fn compiles_allocate_per_body_not_per_register_or_placement() {
    let load = Expr::Load(ArrayId(0), IndexExpr::Sum(VarId(2), VarId(3)));
    let (uses, n) = allocations(|| black_box(&load).uses().count());
    assert_eq!(n, 2);
    assert_eq!(uses, 0, "Expr::uses");

    let machine = models::i4c8s4();
    let (row, _) = allocations(|| CycleReservation::new(black_box(&machine)));
    assert_eq!(row, 1, "CycleReservation::new");

    let (narrow, wide) = (wide_body(16), wide_body(160));
    let (narrow_allocs, narrow_deps) = allocations(|| VopDeps::build_renamed(&machine, &narrow));
    let (wide_allocs, wide_deps) = allocations(|| VopDeps::build_renamed(&machine, &wide));
    assert_eq!(narrow_deps.edges().len(), 2);
    assert_eq!(wide_deps.edges().len(), 2);
    assert_eq!(
        wide_allocs, narrow_allocs,
        "VopDeps::build_renamed on 480 and on 48 virtual registers"
    );

    for (machine, kernel, strategy, ii, bound) in [
        (
            machine,
            "rgb2ycbcr420",
            "loop/swp",
            59,
            COLOR_COMPILE_ALLOCS,
        ),
        (
            models::i2c16s4(),
            "vbr",
            "predicate/swp",
            18,
            VBR_COMPILE_ALLOCS,
        ),
    ] {
        let recipe = table1_recipes(&machine)
            .into_iter()
            .find(|r| r.kernel.name == kernel && r.strategy.name == strategy)
            .unwrap_or_else(|| panic!("Table 1 compiles {kernel} under {strategy}"));
        let (allocs, result) =
            allocations(|| compile(&recipe.kernel, &recipe.machine, &recipe.strategy));
        assert_eq!(result.expect("recipe compiles").summary().ii(), Some(ii));
        assert!(
            allocs <= bound,
            "{kernel} {strategy} compile on {}: {allocs} allocations",
            machine.name
        );
    }
}
