//! Ablation studies of the design choices called out in `DESIGN.md` §4:
//!
//! 1. LSE smoothing γ (paper: ≈100),
//! 2. Steiner-topology drift budget `FlowConfig::topo_dirty_frac` (default
//!    0.10; replaces the paper's rebuild every 10 iterations),
//! 3. t1/t2 growth schedule (paper: +1 %/iteration starting ≈ iteration 100),
//! 4. objective composition (TNS-only vs WNS-only vs both).
//!
//! Usage: `cargo run -p dtp-bench --release --bin ablation [-- which]`
//! where `which ∈ {gamma, steiner, schedule, objective, all}` (default all).

use dtp_core::{run_flow, DiffTimingConfig, FlowConfig, FlowMode};
use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::generate::superblue_proxy;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let design = superblue_proxy("sb18", 1.0 / 300.0).expect("sb18 is built-in");
    let lib = synthetic_pdk();
    let cfg = FlowConfig { trace_timing_every: 0, ..FlowConfig::default() };
    let base = DiffTimingConfig::default();
    let run_with = |d: DiffTimingConfig, cfg: &FlowConfig| {
        run_flow(&design, &lib, FlowMode::Differentiable(d), cfg).expect("flow succeeds")
    };
    let run = |d: DiffTimingConfig| run_with(d, &cfg);

    if which == "gamma" || which == "all" {
        println!("== ablation: LSE smoothing gamma (paper ~100) ==");
        println!("{:<10} {:>10} {:>12} {:>10} {:>8}", "gamma", "WNS", "TNS", "HPWL", "time");
        for gamma in [5.0, 25.0, 100.0, 400.0, 1600.0] {
            let r = run(DiffTimingConfig { gamma, ..base });
            println!("{:<10} {:>10.1} {:>12.1} {:>10.0} {:>7.2}s", gamma, r.wns, r.tns, r.hpwl, r.runtime);
        }
    }
    if which == "steiner" || which == "all" {
        println!("\n== ablation: Steiner topology drift budget topo_dirty_frac (default 0.10) ==");
        println!("{:<10} {:>10} {:>12} {:>10} {:>8}", "frac", "WNS", "TNS", "HPWL", "time");
        for frac in [0.0, 0.05, 0.10, 0.25, 1.0] {
            let r = run_with(base, &FlowConfig { topo_dirty_frac: frac, ..cfg });
            println!("{:<10} {:>10.1} {:>12.1} {:>10.0} {:>7.2}s", frac, r.wns, r.tns, r.hpwl, r.runtime);
        }
    }
    if which == "schedule" || which == "all" {
        println!("\n== ablation: t1/t2 schedule (paper: start ~100, +1%/iter) ==");
        println!("{:<16} {:>10} {:>12} {:>10}", "start/growth", "WNS", "TNS", "HPWL");
        for (start, growth) in [(0usize, 1.01), (50, 1.01), (100, 1.0), (100, 1.01), (100, 1.05)] {
            let r = run(DiffTimingConfig { start_iter: start, growth, ..base });
            println!("{:<16} {:>10.1} {:>12.1} {:>10.0}", format!("{start}/{growth}"), r.wns, r.tns, r.hpwl);
        }
    }
    if which == "objective" || which == "all" {
        println!("\n== ablation: objective composition ==");
        println!("{:<16} {:>10} {:>12} {:>10}", "t1/t2", "WNS", "TNS", "HPWL");
        for (label, t1, t2) in [
            ("none (WL only)", 0.0, 0.0),
            ("TNS only", base.t1, 0.0),
            ("WNS only", 0.0, base.t2 * 100.0),
            ("both (paper)", base.t1, base.t2),
        ] {
            let r = run(DiffTimingConfig { t1, t2, ..base });
            println!("{:<16} {:>10.1} {:>12.1} {:>10.0}", label, r.wns, r.tns, r.hpwl);
        }
    }
}
