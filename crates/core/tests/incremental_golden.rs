//! Golden-equivalence tests for the incremental timing pipeline.
//!
//! The incremental analysis must be a pure performance optimization: with
//! the same dirty-set forest maintenance, a flow whose every timing
//! iteration re-analyzes from scratch (`incremental_fallback_frac = 0.0`
//! forces the full path) and a flow that always takes the incremental path
//! (`incremental_fallback_frac = 2.0` — the dirty fraction can never exceed
//! it) must produce the *same trajectory*: identical WNS/TNS at every traced
//! iteration and identical final placements.

use dtp_core::{run_flow, run_flow_observed, FlowConfig, FlowMode, FlowResult, Observer};
use dtp_obs::Counter;
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::{generate, GeneratorConfig};

fn design() -> dtp_netlist::Design {
    generate(&GeneratorConfig::named("golden", 800)).expect("generator succeeds")
}

fn config(fallback_frac: f64) -> FlowConfig {
    FlowConfig {
        max_iters: 300,
        trace_timing_every: 10,
        incremental_fallback_frac: fallback_frac,
        ..FlowConfig::default()
    }
}

/// Tolerance on traced WNS/TNS. The incremental sweep recomputes the dirty
/// cone with the same per-pin float operations as the full sweep, so the
/// trajectories should agree to strict round-off.
const TOL: f64 = 1e-9;

fn assert_same_trajectory(full: &FlowResult, inc: &FlowResult) {
    assert_eq!(full.iterations, inc.iterations, "iteration counts diverged");
    assert_eq!(full.trace.len(), inc.trace.len(), "trace lengths diverged");
    for (a, b) in full.trace.iter().zip(&inc.trace) {
        assert_eq!(a.iter, b.iter);
        assert!(
            (a.hpwl - b.hpwl).abs() <= TOL * a.hpwl.abs().max(1.0),
            "iter {}: HPWL {} vs {}",
            a.iter,
            a.hpwl,
            b.hpwl
        );
        for (x, y, what) in [(a.wns, b.wns, "WNS"), (a.tns, b.tns, "TNS")] {
            match (x.is_nan(), y.is_nan()) {
                (true, true) => {}
                (false, false) => assert!(
                    (x - y).abs() <= TOL * x.abs().max(1.0),
                    "iter {}: {what} {x} vs {y}",
                    a.iter
                ),
                _ => panic!("iter {}: {what} traced in one run only", a.iter),
            }
        }
    }
    assert!((full.wns - inc.wns).abs() <= TOL * full.wns.abs().max(1.0));
    assert!((full.tns - inc.tns).abs() <= TOL * full.tns.abs().max(1.0));
    assert!((full.hpwl - inc.hpwl).abs() <= TOL * full.hpwl.abs().max(1.0));
    assert_eq!(full.xs, inc.xs, "final x positions diverged");
    assert_eq!(full.ys, inc.ys, "final y positions diverged");
}

#[test]
fn differentiable_incremental_matches_full_reanalysis() {
    let d = design();
    let lib = synthetic_pdk();
    let full = run_flow(&d, &lib, FlowMode::differentiable(), &config(0.0))
        .expect("flow runs");
    let inc = run_flow(&d, &lib, FlowMode::differentiable(), &config(2.0))
        .expect("flow runs");
    assert_same_trajectory(&full, &inc);
}

#[test]
fn net_weighting_incremental_matches_full_reanalysis() {
    let d = design();
    let lib = synthetic_pdk();
    let full = run_flow(&d, &lib, FlowMode::net_weighting(), &config(0.0))
        .expect("flow runs");
    let inc = run_flow(&d, &lib, FlowMode::net_weighting(), &config(2.0))
        .expect("flow runs");
    assert_same_trajectory(&full, &inc);
}

#[test]
fn path_extraction_incremental_matches_full_reanalysis() {
    // The forward-only (no-RAT) analysis: the incremental sweep must leave
    // arrivals and endpoint slacks — all that path extraction reads — equal
    // to a full forward analysis.
    let d = design();
    let lib = synthetic_pdk();
    let full = run_flow(&d, &lib, FlowMode::path_extraction(), &config(0.0))
        .expect("flow runs");
    let mut obs = Observer::new(true);
    let inc = run_flow_observed(&d, &lib, FlowMode::path_extraction(), &config(2.0), &mut obs)
        .expect("flow runs");
    assert!(
        obs.registry().get(Counter::StaIncremental) > 0,
        "the incremental run never took the incremental path"
    );
    assert_same_trajectory(&full, &inc);
}
