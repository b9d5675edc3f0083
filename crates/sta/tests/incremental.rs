//! Equivalence tests for incremental timing analysis: after any set of cell
//! moves, `analyze_incremental` must match a from-scratch analysis exactly.

use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::{CellId, Point};
use dtp_rsmt::{build_forest, build_forest_with, ForestScratch, TableConfig};
use dtp_sta::Timer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_analyses_equal(a: &dtp_sta::Analysis, b: &dtp_sta::Analysis) {
    for i in 0..a.at.len() {
        assert!(
            (a.at[i] - b.at[i]).abs() < 1e-9,
            "at[{i}]: {} vs {}",
            a.at[i],
            b.at[i]
        );
        assert!((a.slew[i] - b.slew[i]).abs() < 1e-9);
        assert!((a.at_early[i] - b.at_early[i]).abs() < 1e-9);
        let (sa, sb) = (a.slack[i], b.slack[i]);
        assert!(sa == sb || (sa - sb).abs() < 1e-9, "slack[{i}]: {sa} vs {sb}");
        let (ra, rb) = (a.rat[i], b.rat[i]);
        assert!(ra == rb || (ra - rb).abs() < 1e-9, "rat[{i}]: {ra} vs {rb}");
    }
    assert!((a.wns() - b.wns()).abs() < 1e-9);
    assert!((a.tns() - b.tns()).abs() < 1e-9);
}

fn run_case(cells: usize, moves: usize, seed: u64, smoothed: bool) {
    let mut design = generate(&GeneratorConfig::named("inc", cells)).expect("generator");
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).expect("timer builds");
    let mut forest = build_forest(&design.netlist);
    let prev = if smoothed {
        timer.analyze_smoothed(&design.netlist, &forest)
    } else {
        timer.analyze(&design.netlist, &forest)
    };

    // Move a random subset of cells.
    let mut rng = StdRng::seed_from_u64(seed);
    let movable: Vec<CellId> = design.netlist.movable_cells().collect();
    let mut moved = Vec::new();
    for _ in 0..moves {
        let c = movable[rng.gen_range(0..movable.len())];
        let pos = design.netlist.cell(c).pos();
        design.netlist.set_cell_pos(
            c,
            Point::new(pos.x + rng.gen_range(-3.0..3.0), pos.y + rng.gen_range(-3.0..3.0)),
        );
        moved.push(c);
    }
    forest.update_positions(&design.netlist);

    let incr = timer.analyze_incremental(&design.netlist, &forest, &prev, &moved, true);
    let full = if smoothed {
        timer.analyze_smoothed(&design.netlist, &forest)
    } else {
        timer.analyze(&design.netlist, &forest)
    };
    assert_analyses_equal(&incr, &full);
}

#[test]
fn single_move_exact_mode() {
    run_case(250, 1, 1, false);
}

#[test]
fn few_moves_exact_mode() {
    run_case(250, 8, 2, false);
}

#[test]
fn many_moves_exact_mode() {
    run_case(250, 100, 3, false);
}

#[test]
fn smoothed_mode_matches_too() {
    run_case(200, 5, 4, true);
}

#[test]
fn no_moves_is_identity() {
    let design = generate(&GeneratorConfig::named("inc0", 150)).expect("generator");
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).expect("timer builds");
    let forest = build_forest(&design.netlist);
    let prev = timer.analyze(&design.netlist, &forest);
    let incr = timer.analyze_incremental(&design.netlist, &forest, &prev, &[], true);
    assert_analyses_equal(&incr, &prev);
}

#[test]
fn repeated_incremental_stays_consistent() {
    // Chain several incremental updates; the result must still match a
    // from-scratch analysis (no drift accumulation).
    let mut design = generate(&GeneratorConfig::named("inc_chain", 200)).expect("generator");
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).expect("timer builds");
    let mut forest = build_forest(&design.netlist);
    let mut analysis = timer.analyze(&design.netlist, &forest);
    let mut rng = StdRng::seed_from_u64(99);
    let movable: Vec<CellId> = design.netlist.movable_cells().collect();
    for _ in 0..5 {
        let c = movable[rng.gen_range(0..movable.len())];
        let pos = design.netlist.cell(c).pos();
        design
            .netlist
            .set_cell_pos(c, Point::new(pos.x + 1.5, pos.y - 0.5));
        forest.update_positions(&design.netlist);
        analysis = timer.analyze_incremental(&design.netlist, &forest, &analysis, &[c], true);
    }
    let full = timer.analyze(&design.netlist, &forest);
    assert_analyses_equal(&analysis, &full);
}

#[test]
fn tables_forest_incremental_matches_full() {
    // Incremental STA over a topology-table forest maintained with the
    // parallel scratch sweeps must still match a from-scratch analysis:
    // the timer only sees trees, so the table backend and sequence cache
    // must be invisible to it. The rebuilds change some trees' node counts,
    // which moves every later net's range in the Elmore arena.
    let mut design = generate(&GeneratorConfig::named("inc_tab", 250)).expect("generator");
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).expect("timer builds");
    let mut forest = build_forest_with(&design.netlist, TableConfig::default());
    let prev = timer.analyze(&design.netlist, &forest);
    let prev_smoothed = timer.analyze_smoothed(&design.netlist, &forest);

    let mut rng = StdRng::seed_from_u64(7);
    let movable: Vec<CellId> = design.netlist.movable_cells().collect();
    let mut moved = Vec::new();
    let mut dirty = Vec::new();
    for _ in 0..60 {
        let c = movable[rng.gen_range(0..movable.len())];
        let pos = design.netlist.cell(c).pos();
        design.netlist.set_cell_pos(
            c,
            Point::new(pos.x + rng.gen_range(-4.0..4.0), pos.y + rng.gen_range(-4.0..4.0)),
        );
        moved.push(c);
        for &pin in design.netlist.cell(c).pins() {
            if let Some(nid) = design.netlist.pin(pin).net() {
                if forest.tree(nid).is_some() && !dirty.contains(&nid) {
                    dirty.push(nid);
                }
            }
        }
    }
    let nodes_before: Vec<usize> =
        dirty.iter().map(|&n| forest.tree(n).expect("signal net").num_nodes()).collect();
    let mut scratch = ForestScratch::new();
    forest.rebuild_nets_into(&design.netlist, &dirty, &mut scratch);
    let resized = dirty
        .iter()
        .zip(&nodes_before)
        .filter(|&(&n, &before)| forest.tree(n).expect("signal net").num_nodes() != before)
        .count();
    assert!(resized > 0, "no rebuilt net changed its tree node count");

    let incr = timer.analyze_incremental(&design.netlist, &forest, &prev, &moved, true);
    let full = timer.analyze(&design.netlist, &forest);
    assert_analyses_equal(&incr, &full);

    // The gradients read the arena through the new offsets: the incremental
    // smoothed analysis must give exactly the fresh one's gradients.
    let nl = &design.netlist;
    let incr = timer.analyze_incremental(nl, &forest, &prev_smoothed, &moved, false);
    let fresh = timer.analyze_smoothed(nl, &forest);
    let g_incr = timer.gradients(nl, &incr, &forest, 0.04, 0.0004);
    let g_fresh = timer.gradients(nl, &fresh, &forest, 0.04, 0.0004);
    assert!(g_fresh.pin_grad_x.iter().any(|&g| g != 0.0), "the objective has a gradient");
    let bits = |v: &[f64]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&g_incr.pin_grad_x), bits(&g_fresh.pin_grad_x));
    assert_eq!(bits(&g_incr.pin_grad_y), bits(&g_fresh.pin_grad_y));
    assert_eq!(g_incr.objective.to_bits(), g_fresh.objective.to_bits());
}

mod drift_properties {
    use super::*;
    use dtp_sta::AnalysisScratch;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Chained incremental analyses through the scratch ping-pong
        /// (`analyze_incremental_into` + `recycle`) never drift: after any
        /// random sequence of move batches, the chained result matches a
        /// from-scratch analysis.
        #[test]
        fn chained_incremental_never_drifts(
            seed in 0u64..1000,
            hops in 1usize..6,
            batch in 1usize..9,
            smoothed_sel in 0usize..2,
        ) {
            let smoothed = smoothed_sel == 1;
            let mut design =
                generate(&GeneratorConfig::named("inc_prop", 180)).expect("generator");
            let lib = synthetic_pdk();
            let timer = Timer::new(&design, &lib).expect("timer builds");
            let mut forest = build_forest(&design.netlist);
            let mut scratch = AnalysisScratch::new();
            let mut analysis = if smoothed {
                timer.analyze_smoothed(&design.netlist, &forest)
            } else {
                timer.analyze(&design.netlist, &forest)
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let movable: Vec<CellId> = design.netlist.movable_cells().collect();
            for _ in 0..hops {
                let mut moved = Vec::new();
                for _ in 0..batch {
                    let c = movable[rng.gen_range(0..movable.len())];
                    let pos = design.netlist.cell(c).pos();
                    design.netlist.set_cell_pos(
                        c,
                        Point::new(
                            pos.x + rng.gen_range(-5.0..5.0),
                            pos.y + rng.gen_range(-5.0..5.0),
                        ),
                    );
                    moved.push(c);
                }
                forest.update_positions(&design.netlist);
                let next = timer.analyze_incremental_into(
                    &design.netlist,
                    &forest,
                    &analysis,
                    &moved,
                    true,
                    &mut scratch,
                );
                scratch.recycle(analysis);
                analysis = next;
            }
            let full = if smoothed {
                timer.analyze_smoothed(&design.netlist, &forest)
            } else {
                timer.analyze(&design.netlist, &forest)
            };
            for i in 0..full.at.len() {
                prop_assert!((analysis.at[i] - full.at[i]).abs() < 1e-9);
                prop_assert!((analysis.slew[i] - full.slew[i]).abs() < 1e-9);
                prop_assert!((analysis.at_early[i] - full.at_early[i]).abs() < 1e-9);
                let (ra, rb) = (analysis.rat[i], full.rat[i]);
                prop_assert!(ra == rb || (ra - rb).abs() < 1e-9);
            }
            prop_assert!((analysis.wns() - full.wns()).abs() < 1e-9);
            prop_assert!((analysis.tns() - full.tns()).abs() < 1e-9);
        }
    }
}

#[test]
fn skipping_rat_keeps_metrics_exact() {
    let mut design = generate(&GeneratorConfig::named("inc_norat", 200)).expect("generator");
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib).expect("timer builds");
    let mut forest = build_forest(&design.netlist);
    let prev = timer.analyze(&design.netlist, &forest);
    let movable: Vec<CellId> = design.netlist.movable_cells().collect();
    let c = movable[3];
    let pos = design.netlist.cell(c).pos();
    design.netlist.set_cell_pos(c, Point::new(pos.x + 4.0, pos.y));
    forest.update_positions(&design.netlist);
    let fast = timer.analyze_incremental(&design.netlist, &forest, &prev, &[c], false);
    let full = timer.analyze(&design.netlist, &forest);
    // WNS/TNS/slacks exact even without the RAT sweep.
    assert!((fast.wns() - full.wns()).abs() < 1e-9);
    assert!((fast.tns() - full.tns()).abs() < 1e-9);
    for &p in full.endpoints() {
        assert!((fast.slack[p.index()] - full.slack[p.index()]).abs() < 1e-9);
    }
    // RATs are carried over from prev (stale by design).
    assert_eq!(fast.rat, prev.rat);
}
