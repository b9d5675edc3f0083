//! The timing hot path is allocation-free: once a caller-owned
//! `AnalysisScratch` has seen one call, every scratch-drawing analysis and
//! gradient entry point runs without touching the heap, at any pool width.
//!
//! The counter is process-wide, so this binary holds a single test.

mod counting {
    #![allow(unsafe_code)]

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct Counting;

    // SAFETY: defers to `System` for every operation; only adds a counter.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, l: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(l) }
        }
        unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
            unsafe { System.dealloc(p, l) }
        }
        unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(p, l, n) }
        }
    }

    #[global_allocator]
    static COUNTER: Counting = Counting;

    /// Heap allocations (`alloc` + `realloc`) since process start.
    pub fn allocs() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::{CellId, Netlist, Point};
use dtp_rsmt::{build_forest, SteinerForest};
use dtp_sta::{AnalysisScratch, PositionGradients, Timer};

/// Calls `f` once to warm its buffers up, then asserts that three more calls
/// allocate nothing.
fn assert_allocation_free(what: &str, width: usize, mut f: impl FnMut()) {
    f();
    let before = counting::allocs();
    for _ in 0..3 {
        f();
    }
    let n = counting::allocs() - before;
    assert_eq!(n, 0, "{what} at pool width {width}: {n} heap allocations in 3 calls");
}

fn check_hot_path(
    timer: &Timer,
    nl: &Netlist,
    forest: &SteinerForest,
    moved_nl: &Netlist,
    moved_forest: &SteinerForest,
    moved: &[CellId],
    width: usize,
) {
    let mut s = AnalysisScratch::new();
    s.presize(nl.num_pins(), nl.num_nets());
    assert_allocation_free("analyze_smoothed_into", width, || {
        let a = timer.analyze_smoothed_into(nl, forest, &mut s);
        s.recycle(a);
    });
    assert_allocation_free("analyze_smoothed_no_rat_into", width, || {
        let a = timer.analyze_smoothed_no_rat_into(nl, forest, &mut s);
        s.recycle(a);
    });
    assert_allocation_free("analyze_into", width, || {
        let a = timer.analyze_into(nl, forest, &mut s);
        s.recycle(a);
    });
    assert_allocation_free("analyze_no_rat_into", width, || {
        let a = timer.analyze_no_rat_into(nl, forest, &mut s);
        s.recycle(a);
    });

    // Incremental: the previous analysis ping-pongs through the pool.
    let mut prev = timer.analyze_smoothed_into(nl, forest, &mut s);
    for recompute_rat in [false, true] {
        assert_allocation_free("analyze_incremental_into", width, || {
            let a = timer.analyze_incremental_into(
                moved_nl,
                moved_forest,
                &prev,
                moved,
                recompute_rat,
                &mut s,
            );
            s.recycle(std::mem::replace(&mut prev, a));
        });
    }

    let smoothed = timer.analyze_smoothed_no_rat_into(nl, forest, &mut s);
    let mut grads = PositionGradients::default();
    assert_allocation_free("gradients_into", width, || {
        timer.gradients_into(nl, &smoothed, forest, 0.04, 0.0004, &mut s, &mut grads);
    });
    assert!(grads.pin_grad_x.iter().any(|&g| g != 0.0), "the objective has a gradient");
}

#[test]
fn timing_hot_path_is_allocation_free() {
    let design = generate(&GeneratorConfig::named("alloc", 3000)).expect("generator");
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).expect("timer builds");
    let forest = build_forest(&design.netlist);

    let mut moved_design = design.clone();
    let moved: Vec<CellId> = moved_design.netlist.movable_cells().step_by(37).collect();
    for &c in &moved {
        let pos = moved_design.netlist.cell(c).pos();
        moved_design.netlist.set_cell_pos(c, Point::new(pos.x + 2.5, pos.y - 1.5));
    }
    let mut moved_forest = forest.clone();
    moved_forest.update_positions(&moved_design.netlist);

    for width in [1, 2] {
        let pool = rayon::Pool::new(width);
        rayon::with_pool(&pool, || {
            check_hot_path(
                &timer,
                &design.netlist,
                &forest,
                &moved_design.netlist,
                &moved_forest,
                &moved,
                width,
            );
        });
    }
}
