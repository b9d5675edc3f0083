//! Placement benchmark worker.
//!
//! `run.py` next to this package drives it; each invocation is one fresh
//! process, so every timed `run_flow` call pays the lazy Steiner-table fill
//! exactly as a `dtp place` invocation does.
//!
//! ```text
//! dtp-perfbench flow  --workload <name> --seed <n>
//! dtp-perfbench trace --workload <name> --seed <n> [--spans <file>]
//! ```
//!
//! `flow` generates the workload's design (several times, to time set-up),
//! runs one untraced flow and prints one JSON line with the end-to-end
//! numbers and the correctness checks. `trace` runs the same flow with the
//! observer on, converts its phase table and counters into per-layer
//! metrics, then replays calls into each layer's public functions at a
//! placement derived from the seed alone, recording one span per call.

use dtp_core::{run_flow_observed, FlowConfig, FlowMode, FlowResult, Observer};
use dtp_liberty::synth::synthetic_pdk;
use dtp_liberty::Library;
use dtp_netlist::generate::{scale_design, superblue_proxy};
use dtp_netlist::{coarsen, CellId, Design, NetId, Point};
use dtp_obs::{Counter, Gauge, Phase};
use dtp_place::detail::DetailPlacer;
use dtp_place::{
    check_legal, AbacusLegalizer, DensityModel, DensityResult, DensityScratch, NesterovOptimizer,
    WirelengthModel, WirelengthScratch,
};
use dtp_route::{CongestionPenalty, RudyMap};
use dtp_rsmt::{build_forest_with, ForestScratch, TableConfig};
use dtp_sta::{AnalysisScratch, PathScratch, PathSet, PositionGradients, Timer};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

mod alloc_count {
    //! Counting wrapper around the system allocator.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    struct Counting;

    // SAFETY: every method forwards to `System` with the caller's arguments
    // unchanged, so `System`'s guarantees carry over; the counter is a
    // statistic that publishes no other data.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, l: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(l)
        }
        unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
            System.dealloc(p, l)
        }
        unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(p, l, n)
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    /// Heap allocations (`alloc` + `realloc`) so far, process-wide.
    pub fn allocs() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// How a workload's design is generated.
#[derive(Clone, Copy)]
enum DesignSpec {
    /// `superblue_proxy("sb18", scale)`.
    Sb18 { scale: f64 },
    /// `scale_design(cells, 0)`.
    Scale { cells: usize },
}

#[derive(Clone, Copy)]
enum ModeKind {
    Differentiable,
    Wirelength,
    PathExtraction,
}

/// A crate whose public functions the traced run replays.
#[derive(Clone, Copy, PartialEq)]
enum Layer {
    Place,
    Rsmt,
    Sta,
    Route,
    Netlist,
}

struct Workload {
    name: &'static str,
    design: DesignSpec,
    mode: ModeKind,
    /// Worker-pool width of the flow and of the replay.
    width: usize,
    multilevel: bool,
    route_aware: bool,
    /// Frozen routing supply (wire-µm per µm²): the 75th percentile of the
    /// per-bin demand density of the wirelength-only placement of this
    /// workload's design at flow seed 0, measured once and never re-derived
    /// from the code under test.
    route_capacity: f64,
    replay: &'static [Layer],
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "diff-sb18",
        design: DesignSpec::Sb18 { scale: 1.0 / 200.0 },
        mode: ModeKind::Differentiable,
        width: 1,
        multilevel: false,
        route_aware: false,
        route_capacity: 6.0369,
        replay: &[Layer::Place, Layer::Rsmt, Layer::Sta],
    },
    Workload {
        name: "wl-200k",
        design: DesignSpec::Scale { cells: 40_000 },
        mode: ModeKind::Wirelength,
        width: 2,
        multilevel: false,
        route_aware: false,
        route_capacity: 17.9425,
        replay: &[Layer::Place, Layer::Rsmt],
    },
    Workload {
        name: "paths-ml-1t",
        design: DesignSpec::Scale { cells: 20_000 },
        mode: ModeKind::PathExtraction,
        width: 1,
        multilevel: true,
        route_aware: false,
        route_capacity: 12.7396,
        replay: &[Layer::Place, Layer::Rsmt, Layer::Sta, Layer::Netlist],
    },
    Workload {
        name: "route-sb18",
        design: DesignSpec::Sb18 { scale: 1.0 / 150.0 },
        mode: ModeKind::Wirelength,
        width: 1,
        multilevel: false,
        route_aware: true,
        route_capacity: 6.8429,
        replay: &[Layer::Place, Layer::Rsmt, Layer::Route],
    },
];

/// Set-up repeats per process (`setup_s` is their median): at least
/// `SETUP_MIN` and until `SETUP_BUDGET_S` is spent, at most `SETUP_MAX`.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 25;
const SETUP_BUDGET_S: f64 = 0.4;

impl Workload {
    fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The workload's frozen design: generated from fixed settings, never
    /// from the benchmark seed (see the README for why).
    fn make_design(&self) -> Design {
        match self.design {
            DesignSpec::Sb18 { scale } => {
                superblue_proxy("sb18", scale).expect("sb18 proxy settings are valid")
            }
            DesignSpec::Scale { cells } => {
                scale_design(cells, 0).expect("scale design settings are valid")
            }
        }
    }

    fn mode(&self) -> FlowMode {
        match self.mode {
            ModeKind::Differentiable => FlowMode::differentiable(),
            ModeKind::Wirelength => FlowMode::Wirelength,
            ModeKind::PathExtraction => FlowMode::path_extraction(),
        }
    }

    fn config(&self, seed: u64) -> FlowConfig {
        FlowConfig {
            max_iters: 400,
            trace_timing_every: 0,
            bins: 128,
            detail_passes: 1,
            seed,
            threads: self.width,
            multilevel: self.multilevel,
            levels: 2,
            cluster_ratio: 4.0,
            route_aware: self.route_aware,
            route_capacity: self.route_capacity,
            ..FlowConfig::default()
        }
    }
}

/// SplitMix64: the benchmark's own generator for replay inputs, so they
/// never depend on the random-number code under test.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Process peak resident set (`VmHWM`) in MB; 0 where procfs is missing.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-speed reference: a fixed amount of the benchmark's own work
/// (random gathers over 8 MB and `exp`), timed. It calls no code under
/// test, so only the host can move it; `run.py` divides flow and set-up
/// times by it.
fn reference_seconds() -> f64 {
    const N: usize = 1 << 20;
    let mut rng = SplitMix(0x4EF0_5EED);
    let mut arr: Vec<f64> = (0..N).map(|_| rng.unit()).collect();
    let t0 = Instant::now();
    let mut acc = 0.0f64;
    for i in (0..N).cycle().take(2 * N) {
        let j = (rng.next() as usize) & (N - 1);
        acc += (arr[j] - arr[i]).exp();
        arr[i] = acc.fract();
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// A JSON number, or `null` for a non-finite value.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// FNV-1a over the bits of the final positions: equal fingerprints mean
/// bit-identical placements.
fn fingerprint(xs: &[f64], ys: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in xs.iter().chain(ys) {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

struct Args {
    cmd: String,
    workload: &'static Workload,
    seed: u64,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv
        .first()
        .cloned()
        .ok_or("missing command (flow|trace)")?;
    if cmd != "flow" && cmd != "trace" {
        return Err(format!("unknown command `{cmd}`"));
    }
    let mut workload = None;
    let mut seed = None;
    let mut spans = None;
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::find(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--spans" => spans = Some(value.clone()),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        cmd,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        spans,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dtp-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Keep stdout to the one JSON record: the flow logs progress at info.
    dtp_obs::log::set_level(dtp_obs::Level::Warn);
    let w = args.workload;
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    if w.width > avail {
        eprintln!(
            "dtp-perfbench: workload {} needs a pool of width {} but only {avail} CPUs are \
             available; refusing to record numbers that would not compare",
            w.name, w.width
        );
        std::process::exit(3);
    }

    let ref_before = reference_seconds();
    let (design, lib, setup_s) = setup(w);
    let config = w.config(args.seed);
    let mut obs = Observer::new(args.cmd == "trace");
    let allocs0 = alloc_count::allocs();
    let dispatch0 = rayon::dispatch_count();
    let t0 = Instant::now();
    let result = run_flow_observed(&design, &lib, w.mode(), &config, &mut obs);
    let place_s = t0.elapsed().as_secs_f64();
    let allocs = alloc_count::allocs() - allocs0;
    let dispatches = rayon::dispatch_count() - dispatch0;
    let rss = peak_rss_mb();
    let ref_s = 0.5 * (ref_before + reference_seconds());

    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"workload\": \"{}\", \"seed\": {}, \"cells\": {}, \"pins\": {}, \"width\": {}, \
         \"available_parallelism\": {avail}, \"profile\": \"{}\", \"setup_s\": [{}], \
         \"place_s\": {}, \"ref_s\": {}, \"peak_rss_mb\": {}",
        w.name,
        args.seed,
        design.netlist.num_cells(),
        design.netlist.num_pins(),
        w.width,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        setup_s
            .iter()
            .map(|&s| num(s))
            .collect::<Vec<_>>()
            .join(", "),
        num(place_s),
        num(ref_s),
        num(rss),
    );
    match &result {
        Ok(r) => {
            let violations = check_legal(&design, &r.xs, &r.ys).len();
            let _ = write!(
                line,
                ", \"error\": null, \"hpwl\": {}, \"wns\": {}, \"tns\": {}, \
                 \"overflow_frac\": {}, \"iterations\": {}, \"violations\": {violations}, \
                 \"fingerprint\": \"{:016x}\"",
                num(r.hpwl),
                num(r.wns),
                num(r.tns),
                num(r.congestion.overflowed_frac),
                r.iterations,
                fingerprint(&r.xs, &r.ys),
            );
        }
        Err(e) => {
            let msg = e.to_string().replace(['"', '\\'], "'");
            let _ = write!(line, ", \"error\": \"{msg}\"");
        }
    }
    if let (Ok(r), true) = (&result, args.cmd == "trace") {
        let mut m = flow_metrics(&obs, r, place_s, allocs, dispatches);
        let mut spans = Spans::default();
        let pool = rayon::Pool::new(w.width);
        rayon::with_pool(&pool, || {
            replay(w, &design, &lib, args.seed, &mut spans, &mut m)
        });
        let _ = write!(line, ", \"layers\": {{");
        for (i, (name, unit, v)) in m.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(line, "{sep}\"{name}\": [{}, \"{unit}\"]", num(*v));
        }
        line.push('}');
        if let Some(path) = &args.spans {
            if let Err(e) = std::fs::write(path, spans.to_jsonl()) {
                eprintln!("dtp-perfbench: writing {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    line.push('}');
    println!("{line}");
}

/// Generates the design and the library repeatedly, timing each, and keeps
/// the last pair.
fn setup(w: &Workload) -> (Design, Library, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_MAX);
    let mut last = None;
    let t_all = Instant::now();
    while times.len() < SETUP_MAX
        && (times.len() < SETUP_MIN || t_all.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let t0 = Instant::now();
        let design = w.make_design();
        let lib = synthetic_pdk();
        times.push(t0.elapsed().as_secs_f64());
        last = Some((design, lib));
    }
    let (design, lib) = last.expect("SETUP_MIN > 0");
    (design, lib, times)
}

/// Per-layer metrics: `(name, unit, value)`.
type Metrics = Vec<(String, &'static str, f64)>;

fn push(m: &mut Metrics, name: &str, unit: &'static str, v: f64) {
    m.push((name.to_string(), unit, v));
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Flow attribution: the observer's phase self-times, counters and gauges.
fn flow_metrics(
    obs: &Observer,
    r: &FlowResult,
    place_s: f64,
    allocs: u64,
    dispatches: u64,
) -> Metrics {
    let spans = obs.spans();
    let reg = obs.registry();
    let c = |k: Counter| reg.get(k) as f64;
    let mut m = Metrics::new();
    push(&mut m, "core.traced_place_s", "s", place_s);
    push(
        &mut m,
        "core.unattributed_s",
        "s",
        place_s - spans.total_seconds(),
    );
    push(&mut m, "core.iterations", "count", r.iterations as f64);
    push(
        &mut m,
        "core.coarse_iterations",
        "count",
        c(Counter::CoarseIterations),
    );
    push(&mut m, "core.allocs", "count", allocs as f64);
    // One entry per phase (the array length checks it), so the phase times
    // plus `core.unattributed_s` add up to the traced `place_s`.
    let phases: [(&str, Phase); Phase::COUNT] = [
        ("place.wl_grad_s", Phase::WirelengthGrad),
        ("place.density_s", Phase::DensityGrad),
        ("place.nesterov_s", Phase::NesterovStep),
        ("place.legalize_s", Phase::Legalize),
        ("place.detail_s", Phase::DetailPlace),
        ("rsmt.build_s", Phase::SteinerBuild),
        ("rsmt.sync_s", Phase::SteinerUpdate),
        ("sta.forward_s", Phase::StaForward),
        ("sta.backward_s", Phase::StaBackward),
        ("sta.net_weight_s", Phase::NetWeight),
        ("sta.path_extract_s", Phase::PathExtract),
        ("sta.trace_s", Phase::TraceSta),
        ("sta.final_s", Phase::FinalSta),
        ("route.rudy_s", Phase::RudyUpdate),
        ("route.congestion_grad_s", Phase::CongestionGrad),
        ("netlist.coarsen_s", Phase::Coarsen),
        ("netlist.interpolate_s", Phase::Interpolate),
    ];
    for (name, phase) in phases {
        push(&mut m, name, "s", spans.seconds(phase));
    }
    let (geo, topo) = (c(Counter::GeoDirtyNets), c(Counter::TopoDirtyNets));
    push(&mut m, "rsmt.builds", "count", c(Counter::ForestBuilds));
    push(&mut m, "rsmt.syncs", "count", c(Counter::ForestSyncs));
    push(&mut m, "rsmt.geo_dirty_nets", "count", geo);
    push(&mut m, "rsmt.topo_dirty_nets", "count", topo);
    push(&mut m, "rsmt.topo_frac", "ratio", ratio(topo, geo + topo));
    let (hits, rebuilds) = (
        reg.gauge(Gauge::RsmtSeqHits),
        reg.gauge(Gauge::RsmtSeqRebuilds),
    );
    push(
        &mut m,
        "rsmt.seq_hit_frac",
        "ratio",
        ratio(hits, hits + rebuilds),
    );
    let (full, inc) = (c(Counter::StaFull), c(Counter::StaIncremental));
    push(&mut m, "sta.full", "count", full);
    push(&mut m, "sta.incremental", "count", inc);
    push(&mut m, "sta.fallback", "count", c(Counter::StaFallback));
    push(
        &mut m,
        "sta.path_extractions",
        "count",
        c(Counter::PathExtractions),
    );
    push(
        &mut m,
        "sta.incremental_frac",
        "ratio",
        ratio(inc, full + inc),
    );
    push(&mut m, "route.rudy_builds", "count", c(Counter::RudyBuilds));
    push(
        &mut m,
        "route.rudy_inc_updates",
        "count",
        c(Counter::RudyIncUpdates),
    );
    push(&mut m, "pool.dispatches", "count", dispatches as f64);
    m
}

/// One recorded span: a replayed call or the group of calls around it.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log, written out once at the end of the run.
#[derive(Default)]
struct Spans {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

impl Spans {
    fn now(&mut self) -> u64 {
        self.origin
            .get_or_insert_with(Instant::now)
            .elapsed()
            .as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (id, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}}}",
                sp.name, sp.start_ns, sp.end_ns
            );
        }
        s
    }
}

/// Wall-clock budget of one replayed function.
const REPLAY_BUDGET_S: f64 = 0.25;
/// Calls timed per replayed function regardless of the budget.
const REPLAY_MIN_CALLS: usize = 21;
const REPLAY_MAX_CALLS: usize = 2000;

/// Times repeated calls of one layer function: `prep` (untimed) readies
/// the inputs, `call` is the span. One warm-up call is not recorded. Pushes
/// `<metric>_ns` (median), `<metric>_tail_ns` (the largest sample with at
/// least ten samples above it: the highest percentile that ten samples
/// back, never below the median since at least 21 calls are timed) and
/// `<metric>_calls`.
fn time_calls<S>(
    spans: &mut Spans,
    m: &mut Metrics,
    metric: &'static str,
    state: &mut S,
    mut prep: impl FnMut(&mut S),
    mut call: impl FnMut(&mut S),
) {
    prep(state);
    call(state);
    let group = spans.open(metric, None);
    let t0 = Instant::now();
    let mut ns = Vec::new();
    while ns.len() < REPLAY_MAX_CALLS
        && (ns.len() < REPLAY_MIN_CALLS || t0.elapsed().as_secs_f64() < REPLAY_BUDGET_S)
    {
        prep(state);
        let id = spans.open(metric, Some(group));
        call(state);
        spans.close(id);
        ns.push((spans.spans[id].end_ns - spans.spans[id].start_ns) as f64);
    }
    spans.close(group);
    ns.sort_by(f64::total_cmp);
    let n = ns.len();
    push(m, &format!("{metric}_ns"), "ns", ns[n / 2]);
    push(
        m,
        &format!("{metric}_tail_ns"),
        "ns",
        ns[n.saturating_sub(11)],
    );
    push(m, &format!("{metric}_calls"), "count", n as f64);
}

/// The replay operating point: every movable cell uniformly inside the core
/// (lower-left positions), drawn from the benchmark seed alone.
fn replay_positions(design: &Design, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let nl = &design.netlist;
    let (mut xs, mut ys) = nl.positions();
    let r = design.region;
    let row_h = design.row_height();
    let mut rng = SplitMix(seed ^ 0x5EED_0F4E_91A7);
    for c in nl.movable_cells() {
        let w = nl.class_of(c).width();
        xs[c.index()] = r.xl + rng.unit() * (r.xh - r.xl - w).max(0.0);
        ys[c.index()] = r.yl + rng.unit() * (r.yh - r.yl - row_h).max(0.0);
    }
    (xs, ys)
}

/// The deterministic 1 %-moved perturbation: every hundredth movable cell
/// (from a seeded offset) shifts by two rows up and four rows right,
/// clamped into the core. Returns the moved cells and their nets, sorted.
fn perturb(design: &mut Design, seed: u64) -> (Vec<CellId>, Vec<NetId>) {
    let r = design.region;
    let row_h = design.row_height();
    let offset = (seed % 100) as usize;
    let moved: Vec<CellId> = design
        .netlist
        .movable_cells()
        .skip(offset)
        .step_by(100)
        .collect();
    let mut nets = Vec::new();
    for &c in &moved {
        let nl = &mut design.netlist;
        let w = nl.class_of(c).width();
        let p = nl.cell(c).pos();
        let x = (p.x + 4.0 * row_h).min(r.xh - w);
        let y = (p.y + 2.0 * row_h).min(r.yh - row_h);
        nl.set_cell_pos(c, Point::new(x, y));
        nets.extend(nl.cell(c).pins().iter().filter_map(|&p| nl.pin(p).net()));
    }
    nets.sort_unstable_by_key(|n| n.index());
    nets.dedup();
    (moved, nets)
}

/// Replays each layer the workload's flow uses at the seed's operating
/// point.
fn replay(
    w: &Workload,
    design: &Design,
    lib: &Library,
    seed: u64,
    spans: &mut Spans,
    m: &mut Metrics,
) {
    let (xs, ys) = replay_positions(design, seed);
    let mut base = design.clone();
    base.netlist.set_positions(&xs, &ys);
    let mut moved_design = base.clone();
    let (moved, dirty) = perturb(&mut moved_design, seed);
    let bins = 128;
    let bin_w = (design.region.xh - design.region.xl) / bins as f64;
    let tables = TableConfig::default();

    if w.replay.contains(&Layer::Place) {
        let wl = WirelengthModel::new(&base.netlist);
        let mut st = (WirelengthScratch::new(), Vec::new(), Vec::new());
        time_calls(
            spans,
            m,
            "place.wl_grad",
            &mut st,
            |_| {},
            |(s, gx, gy)| {
                black_box(wl.wa_gradient_into(&xs, &ys, bin_w, None, s, gx, gy));
            },
        );
        let (_, gx, gy) = st;

        let density = DensityModel::new(&base, bins, bins, FlowConfig::default().target_density);
        let mut st = (DensityScratch::new(), DensityResult::default());
        time_calls(
            spans,
            m,
            "place.density",
            &mut st,
            |_| {},
            |(s, out)| {
                density.evaluate_into(&xs, &ys, s, out);
                black_box(&out);
            },
        );

        let ones = vec![1.0; xs.len()];
        let mut opt = NesterovOptimizer::new(&base, bin_w);
        time_calls(
            spans,
            m,
            "place.nesterov",
            &mut opt,
            |_| {},
            |o| {
                black_box(o.step(&gx, &gy, &ones));
            },
        );

        let legalizer = AbacusLegalizer::new(&base);
        let mut st = (xs.clone(), ys.clone());
        time_calls(
            spans,
            m,
            "place.legalize",
            &mut st,
            |(lx, ly)| {
                lx.copy_from_slice(&xs);
                ly.copy_from_slice(&ys);
            },
            |(lx, ly)| {
                black_box(legalizer.legalize(&base, lx, ly));
            },
        );
        let (legal_x, legal_y) = st;

        let detail = DetailPlacer::new(&base);
        let mut st = (legal_x.clone(), legal_y.clone());
        time_calls(
            spans,
            m,
            "place.detail",
            &mut st,
            |(dx, dy)| {
                dx.copy_from_slice(&legal_x);
                dy.copy_from_slice(&legal_y);
            },
            |(dx, dy)| {
                black_box(detail.refine(&base, dx, dy, 1));
            },
        );
    }

    if w.replay.contains(&Layer::Rsmt) {
        let mut forest = None;
        time_calls(
            spans,
            m,
            "rsmt.build",
            &mut forest,
            |_| {},
            |f| {
                *f = Some(build_forest_with(&base.netlist, tables));
            },
        );
        let forest = forest.expect("built above");
        let mut st = (forest.clone(), ForestScratch::new());
        time_calls(
            spans,
            m,
            "rsmt.update",
            &mut st,
            |(f, _)| f.clone_from(&forest),
            |(f, s)| f.update_nets_into(&moved_design.netlist, &dirty, s),
        );
        time_calls(
            spans,
            m,
            "rsmt.rebuild",
            &mut st,
            |(f, _)| f.clone_from(&forest),
            |(f, s)| f.rebuild_nets_into(&moved_design.netlist, &dirty, s),
        );
    }

    if w.replay.contains(&Layer::Sta) {
        let mut timer = None;
        time_calls(
            spans,
            m,
            "sta.timer_build",
            &mut timer,
            |_| {},
            |t| {
                *t = Some(Timer::new(&base, lib).expect("the workload design binds"));
            },
        );
        let timer = timer.expect("built above");
        let forest = build_forest_with(&base.netlist, tables);
        let nl = &base.netlist;
        let mut scratch = AnalysisScratch::new();
        time_calls(
            spans,
            m,
            "sta.analyze_smoothed",
            &mut scratch,
            |_| {},
            |s| {
                let a = timer.analyze_smoothed_into(nl, &forest, s);
                s.recycle(black_box(a));
            },
        );
        let smoothed = timer.analyze_smoothed(nl, &forest);
        let mut st = (AnalysisScratch::new(), PositionGradients::default());
        time_calls(
            spans,
            m,
            "sta.gradients",
            &mut st,
            |_| {},
            |(s, g)| {
                timer.gradients_into(nl, &smoothed, &forest, 0.04, 0.0004, s, g);
                black_box(&g);
            },
        );
        time_calls(
            spans,
            m,
            "sta.analyze_no_rat",
            &mut scratch,
            |_| {},
            |s| {
                let a = timer.analyze_no_rat_into(nl, &forest, s);
                s.recycle(black_box(a));
            },
        );
        let mut moved_forest = forest.clone();
        moved_forest.rebuild_nets_into(&moved_design.netlist, &dirty, &mut ForestScratch::new());
        time_calls(
            spans,
            m,
            "sta.incremental",
            &mut scratch,
            |_| {},
            |s| {
                let a = timer.analyze_incremental_into(
                    &moved_design.netlist,
                    &moved_forest,
                    &smoothed,
                    &moved,
                    true,
                    s,
                );
                s.recycle(black_box(a));
            },
        );
        let exact = timer.analyze(nl, &forest);
        let mut st = (PathScratch::new(), PathSet::new());
        time_calls(
            spans,
            m,
            "sta.extract_paths",
            &mut st,
            |_| {},
            |(s, out)| {
                timer.extract_paths_into(nl, &exact, 32, 0.9, s, out);
                black_box(&out);
            },
        );
    }

    if w.replay.contains(&Layer::Route) {
        let grid = FlowConfig::default().route_grid;
        let forest = build_forest_with(&base.netlist, tables);
        let mut map = RudyMap::new(&base, grid, grid, w.route_capacity);
        time_calls(
            spans,
            m,
            "route.rudy_build",
            &mut map,
            |_| {},
            |r| {
                r.build(&base.netlist, &forest);
            },
        );
        let mut moved_forest = forest.clone();
        moved_forest.rebuild_nets_into(&moved_design.netlist, &dirty, &mut ForestScratch::new());
        let built = map.clone();
        time_calls(
            spans,
            m,
            "route.rudy_update",
            &mut map,
            |r| r.clone_from(&built),
            |r| {
                r.update_nets(&moved_forest, &dirty);
                r.sync_cells(&moved_design.netlist);
            },
        );
        let mut st = (
            CongestionPenalty::new(&base, grid, grid, w.route_capacity),
            Vec::new(),
            Vec::new(),
        );
        time_calls(
            spans,
            m,
            "route.penalty",
            &mut st,
            |_| {},
            |(p, gx, gy)| {
                black_box(p.value_and_gradient(&base.netlist, &forest, gx, gy));
            },
        );
    }

    if w.replay.contains(&Layer::Netlist) {
        let mut coarse = None;
        time_calls(
            spans,
            m,
            "netlist.coarsen",
            &mut coarse,
            |_| {},
            |c| {
                *c = Some(coarsen(&base, 4.0, seed));
            },
        );
        let (coarse, map) = coarse.expect("built above");
        let (cxs, cys) = coarse.netlist.positions();
        let mut st = (xs.clone(), ys.clone());
        time_calls(
            spans,
            m,
            "netlist.interpolate",
            &mut st,
            |_| {},
            |(fx, fy)| {
                map.interpolate(
                    &base.netlist,
                    &coarse.netlist,
                    base.region,
                    seed,
                    &cxs,
                    &cys,
                    fx,
                    fy,
                );
            },
        );
    }
}
