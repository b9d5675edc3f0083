//! The global placement flows (Fig. 7 of the paper).
//!
//! One engine drives all the Table-3 flows; they differ only in which
//! timing mechanism injects itself into the gradient:
//!
//! - wirelength-only: none;
//! - net weighting: exact STA → per-net weights in the WA wirelength;
//! - differentiable (ours): smoothed STA → TNS/WNS gradients added to the
//!   wirelength + density gradient;
//! - path extraction: forward-only exact STA → top-K critical paths →
//!   per-net weights concentrated on the extracted pins (the cheap, sharp
//!   timing signal; same weight slot as net weighting, a fraction of the
//!   differentiable mode's per-iteration timing cost).
//!
//! All modes and levels share one GP step and one timing driver; per-net
//! drift budgets on the Steiner forest replace §3.6's periodic rebuild.
//!
//! Orthogonally to the timing mechanism, [`FlowConfig::route_aware`] enables
//! the routability subsystem (`dtp-route`): a smoothed congestion penalty
//! joins the gradient every iteration, and a RUDY feedback loop periodically
//! inflates cells in overflowed bins and boosts the wirelength weight of
//! nets crossing them. The exact RUDY map is maintained incrementally from
//! the geometry- and topology-dirty net sets of the Steiner-forest sync.

use crate::config::{DiffTimingConfig, FlowConfig, FlowMode, LegalizerChoice};
use crate::weighting::{NetWeighter, PathWeighter};
use dtp_liberty::Library;
use dtp_netlist::{coarsen, ClusterMap, Design, NetId, Netlist, NetlistError};
use dtp_obs::{Counter, Gauge, IterEvent, Observer, Phase};
use dtp_place::detail::DetailPlacer;
use dtp_place::{
    AbacusLegalizer, DensityModel, DensityResult, DensityScratch, Legalizer, NesterovOptimizer,
    WirelengthModel, WirelengthScratch,
};
use dtp_route::{inflation_factors, CongestionPenalty, CongestionSummary, RudyMap};
use dtp_rsmt::{build_forest, build_forest_with, ForestScratch, ForestStats, SteinerForest, TableConfig};
use dtp_sta::{Analysis, AnalysisScratch, PositionGradients, StaError, Timer, TimerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::fmt;
use std::time::Instant;

/// Fixed chunk size for the flow's per-cell gradient merges. The merges are
/// elementwise, so any chunking gives identical results; a fixed size keeps
/// the parallel shape independent of the pool width.
const MERGE_CHUNK: usize = 4096;

/// Overflow floor at which a coarse (clustered) level stops. A coarse level
/// only needs to form the global arrangement; resolving overlap at cluster
/// granularity costs far more wirelength than resolving it cell-by-cell, so
/// the expensive low-overflow endgame is left to the finer levels (which
/// redo it anyway).
const COARSE_STOP_OVERFLOW: f64 = 0.30;

/// Minimum iterations per coarse level before the overflow stop can fire
/// (mirrors the fine level's `iter > 30` guard, scaled down).
const COARSE_MIN_ITERS: usize = 10;

/// Density overflow below which a warm-started finest level activates its
/// timing mechanism. A cold flow gates timing on an iteration count
/// (`start_iter`, default 100) tuned so timing engages once the placement
/// has spread; a warm start reaches the same state at an unpredictable
/// iteration, so it latches on the state itself — the overflow the cold
/// schedule typically shows when its own gate opens. Paired with
/// [`WARM_LAMBDA_GROWTH_BOOST`], which keeps the descent from here to the
/// stop overflow short: without it the warm level crawls through this band
/// at small λ and the (expensive) timing tail runs several times longer
/// than the cold flow's.
const WARM_TIMING_OVERFLOW: f64 = 0.15;

/// Multiplier on `FlowConfig::lambda_growth` for warm-started finest levels.
/// The warm λ re-entry (ratio 0.05 of the gradient balance) buys back the
/// wirelength-dominant phase, but with the cold growth rate the level then
/// spends most of its iterations crawling down the last few points of
/// overflow at small λ — where every iteration may also carry timing work.
/// A slightly steeper anneal compresses that tail.
const WARM_LAMBDA_GROWTH_BOOST: f64 = 1.01;

/// Lower-left (x, y) per cell, handed down the V-cycle as a warm start.
type Positions = (Vec<f64>, Vec<f64>);

/// Adds `scale * add` into `acc` elementwise over the persistent pool.
fn axpy_into(acc: &mut [f64], add: &[f64], scale: f64) {
    acc.par_chunks_mut(MERGE_CHUNK)
        .zip(add.par_chunks(MERGE_CHUNK))
        .for_each(|(a, b)| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += scale * y;
            }
        });
}

/// ∞-norm over both gradient components.
fn max_abs(xs: &[f64], ys: &[f64]) -> f64 {
    xs.iter().chain(ys).fold(0.0f64, |m, &g| m.max(g.abs()))
}

/// Errors from the placement flow.
#[derive(Debug)]
#[non_exhaustive]
pub enum FlowError {
    /// Timing-engine construction failed.
    Sta(StaError),
    /// Netlist-level failure.
    Netlist(NetlistError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Sta(e) => write!(f, "timing engine error: {e}"),
            FlowError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Sta(e) => Some(e),
            FlowError::Netlist(e) => Some(e),
        }
    }
}

impl From<StaError> for FlowError {
    fn from(e: StaError) -> Self {
        FlowError::Sta(e)
    }
}

impl From<NetlistError> for FlowError {
    fn from(e: NetlistError) -> Self {
        FlowError::Netlist(e)
    }
}

/// One sample of the optimization trajectory (the series of Figure 8).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TracePoint {
    /// Iteration index.
    pub iter: usize,
    /// Exact HPWL (µm).
    pub hpwl: f64,
    /// Density overflow.
    pub overflow: f64,
    /// Exact WNS (ps); `NAN` on iterations where timing was not traced.
    pub wns: f64,
    /// Exact TNS (ps); `NAN` when not traced.
    pub tns: f64,
}

/// The outcome of one placement flow run.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// Flow label ("DREAMPlace", "NetWeighting", "Ours", "PathExtract").
    pub mode: &'static str,
    /// Design name.
    pub design: String,
    /// Final HPWL after legalization + detailed placement (µm).
    pub hpwl: f64,
    /// Final exact WNS (ps).
    pub wns: f64,
    /// Final exact TNS (ps).
    pub tns: f64,
    /// Final exact hold WNS (ps).
    pub wns_hold: f64,
    /// HPWL at the end of global placement, before legalization.
    pub gp_hpwl: f64,
    /// WNS at the end of global placement.
    pub gp_wns: f64,
    /// TNS at the end of global placement.
    pub gp_tns: f64,
    /// Global-placement iterations executed (summed over all levels in a
    /// multi-level run).
    pub iterations: usize,
    /// Iterations per level, coarsest first; a flat (single-level) flow
    /// reports one entry equal to [`FlowResult::iterations`].
    pub level_iterations: Vec<usize>,
    /// Wall-clock runtime of the whole flow, seconds.
    pub runtime: f64,
    /// Wall-clock spent inside timing analysis/gradients, seconds: the sum
    /// of the STA-phase spans ([`dtp_obs::Phase::is_sta`]) recorded during
    /// this run. Value-compatible with the legacy hand-timed accounting and
    /// populated whether or not observability is on.
    pub timing_runtime: f64,
    /// Optimization trajectory samples.
    pub trace: Vec<TracePoint>,
    /// Final legalized positions (lower-left), indexed by cell.
    pub xs: Vec<f64>,
    /// Final legalized y positions.
    pub ys: Vec<f64>,
    /// Routing-congestion summary of the final placement (always computed,
    /// on the [`FlowConfig::route_grid`]/[`FlowConfig::route_capacity`]
    /// grid, whether or not the flow was route-aware).
    pub congestion: CongestionSummary,
    /// In-loop Steiner-forest composition (exact / table / Prim backends)
    /// and sequence-cache counters; all zeros when the flow never built a
    /// forest (pure-wirelength mode without tracing).
    pub rsmt: ForestStats,
}

impl fmt::Display for FlowResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<13} {:<6} WNS {:>10.1}  TNS {:>12.1}  HPWL {:>12.0}  {:>7.2}s ({} iters)",
            self.mode, self.design, self.wns, self.tns, self.hpwl, self.runtime, self.iterations
        )
    }
}

/// Drift bookkeeping that keeps the in-loop Steiner forest in sync with the
/// placement.
///
/// Created with the in-loop forest and kept for the whole placement loop;
/// every buffer persists between iterations so the per-iteration work is
/// proportional to the number of moved cells, not the design size.
#[derive(Default)]
struct ForestSync {
    /// [`FlowConfig::topo_dirty_frac`].
    topo_frac: f64,
    /// Positions at the last Steiner-forest synchronization.
    last_x: Vec<f64>,
    last_y: Vec<f64>,
    /// Accumulated worst cell drift per net since its last topology build.
    net_drift: Vec<f64>,
    /// Topology-rebuild budget per net:
    /// `topo_dirty_frac × pin bounding-box half-perimeter` at build time.
    net_budget: Vec<f64>,
    /// This-iteration max displacement per net (sparse; reset via `touched`).
    net_disp: Vec<f64>,
    /// This iteration's geometry-dirty and topology-dirty nets (the RUDY
    /// map's incremental update reads both).
    geo_nets: Vec<NetId>,
    topo_nets: Vec<NetId>,
    touched: Vec<usize>,
    /// Per-net Steiner update/rebuild scratch.
    scratch: ForestScratch,
}

impl ForestSync {
    /// Starts the bookkeeping from a freshly built forest: budgets from its
    /// trees, zero drift, reference positions = current positions.
    fn new(
        nl: &Netlist,
        forest: &SteinerForest,
        xs: &[f64],
        ys: &[f64],
        config: &FlowConfig,
    ) -> ForestSync {
        let n = forest.len();
        let mut state = ForestSync {
            topo_frac: config.topo_dirty_frac,
            last_x: xs.to_vec(),
            last_y: ys.to_vec(),
            net_drift: vec![0.0; n],
            net_disp: vec![0.0; n],
            ..ForestSync::default()
        };
        state.net_budget = (0..n).map(|ni| state.budget(forest, NetId::new(ni))).collect();
        state.scratch.presize(nl.num_nets());
        state
    }

    /// Drift a net may accumulate before its topology is rebuilt.
    fn budget(&self, forest: &SteinerForest, net: NetId) -> f64 {
        self.topo_frac * forest.tree(net).map_or(0.0, |t| t.pin_bbox_half_perimeter())
    }

    /// Per-iteration forest maintenance: classify the nets of moved cells as
    /// geometry-dirty (coordinate update) or topology-dirty (per-net Steiner
    /// rebuild once accumulated drift exceeds the bbox budget) and apply
    /// both.
    fn sync(
        &mut self,
        nl: &Netlist,
        forest: &mut SteinerForest,
        xs: &[f64],
        ys: &[f64],
        obs: &mut Observer,
    ) {
        let sp = obs.start(Phase::SteinerUpdate);
        self.touched.clear();
        for c in nl.movable_cells() {
            let i = c.index();
            let d = (xs[i] - self.last_x[i]).abs() + (ys[i] - self.last_y[i]).abs();
            if d <= 0.0 {
                continue; // a cell that did not move dirties no net
            }
            for &p in nl.cell(c).pins() {
                let Some(net) = nl.pin(p).net() else { continue };
                let ni = net.index();
                if forest.tree(net).is_none() {
                    continue; // clock net: never built, never timed
                }
                if self.net_disp[ni] == 0.0 {
                    self.touched.push(ni);
                }
                if d > self.net_disp[ni] {
                    self.net_disp[ni] = d;
                }
            }
        }
        self.geo_nets.clear();
        self.topo_nets.clear();
        for &ni in &self.touched {
            self.net_drift[ni] += self.net_disp[ni];
            self.net_disp[ni] = 0.0;
            if self.net_drift[ni] > self.net_budget[ni] {
                self.topo_nets.push(NetId::new(ni));
            } else {
                self.geo_nets.push(NetId::new(ni));
            }
        }
        forest.update_nets_into(nl, &self.geo_nets, &mut self.scratch);
        forest.rebuild_nets_into(nl, &self.topo_nets, &mut self.scratch);
        for &net in &self.topo_nets {
            self.net_drift[net.index()] = 0.0;
            self.net_budget[net.index()] = self.budget(forest, net);
        }
        self.last_x.copy_from_slice(xs);
        self.last_y.copy_from_slice(ys);
        obs.stop(Phase::SteinerUpdate, sp);
        obs.add(Counter::ForestSyncs, 1);
        obs.add(Counter::GeoDirtyNets, self.geo_nets.len() as u64);
        obs.add(Counter::TopoDirtyNets, self.topo_nets.len() as u64);
    }
}

/// What differs between the GP steps of the V-cycle levels (level 0 is the
/// input design). A level stops once overflow drops under `stop_overflow`
/// after more than `min_iters` iterations; `lambda_ratio` is the first
/// iteration's density/wirelength gradient ℓ1-norm balance.
struct LevelParams {
    level: usize,
    bins: usize,
    stop_overflow: f64,
    min_iters: usize,
    lambda_growth: f64,
    lambda_ratio: f64,
}

/// The shared global-placement step: plain ePlace — WA wirelength +
/// electrostatic density under preconditioned Nesterov. Every buffer
/// persists across iterations, so the steady-state step allocates nothing.
struct GpStep {
    params: LevelParams,
    wl_model: WirelengthModel,
    density: DensityModel,
    bin_w: f64,
    /// Per-cell preconditioner ingredients.
    pin_count: Vec<f64>,
    areas: Vec<f64>,
    opt: NesterovOptimizer,
    /// This iteration's positions and combined gradient.
    vx: Vec<f64>,
    vy: Vec<f64>,
    gx: Vec<f64>,
    gy: Vec<f64>,
    wl_scratch: WirelengthScratch,
    dscratch: DensityScratch,
    dres: DensityResult,
    precond: Vec<f64>,
    lambda: f64,
    /// Overflow and smoothed WA wirelength of the latest evaluation.
    overflow: f64,
    wl: f64,
    /// Iterations started so far.
    iterations: usize,
}

impl GpStep {
    /// Seeds `work` — from `warm`, or cold as a cluster at the core center
    /// with small noise — and builds the models for the level.
    fn new(
        work: &mut Design,
        warm: Option<Positions>,
        params: LevelParams,
        config: &FlowConfig,
    ) -> GpStep {
        match warm {
            Some((xs, ys)) => work.netlist.set_positions(&xs, &ys),
            None => {
                let mut rng = StdRng::seed_from_u64(config.seed);
                let center = work.region.center();
                let (mut xs, mut ys) = work.netlist.positions();
                for c in work.netlist.movable_cells() {
                    let i = c.index();
                    let class = work.netlist.class_of(c);
                    xs[i] = center.x - 0.5 * class.width()
                        + rng.gen_range(-0.02..0.02) * work.region.width();
                    ys[i] = center.y - 0.5 * class.height()
                        + rng.gen_range(-0.02..0.02) * work.region.height();
                }
                work.netlist.set_positions(&xs, &ys);
            }
        }
        let nl = &work.netlist;
        let wl_model = WirelengthModel::new(nl);
        let density = DensityModel::new(work, params.bins, params.bins, config.target_density);
        let bin_w = work.region.width() / params.bins as f64;
        let mut pin_count = vec![0.0f64; nl.num_cells()];
        for p in nl.pin_ids() {
            if nl.pin(p).net().is_some() {
                pin_count[nl.pin(p).cell().index()] += 1.0;
            }
        }
        let mut dscratch = DensityScratch::new();
        density.presize_scratch(&mut dscratch);
        GpStep {
            params,
            wl_model,
            density,
            bin_w,
            pin_count,
            areas: nl.cell_ids().map(|c| nl.class_of(c).area()).collect(),
            opt: NesterovOptimizer::new(work, bin_w),
            vx: Vec::new(),
            vy: Vec::new(),
            gx: Vec::new(),
            gy: Vec::new(),
            wl_scratch: WirelengthScratch::new(),
            dscratch,
            dres: DensityResult::default(),
            precond: Vec::new(),
            lambda: config.lambda_init,
            overflow: 1.0,
            wl: f64::NAN,
            iterations: 0,
        }
    }

    /// Opens iteration `iter` and refills the position buffers.
    fn begin(&mut self, iter: usize, obs: &mut Observer) {
        self.iterations = iter + 1;
        obs.iter_begin();
        obs.add(Counter::Iterations, 1);
        if self.params.level > 0 {
            obs.add(Counter::CoarseIterations, 1);
        }
        let (a, b) = self.opt.positions();
        self.vx.clear();
        self.vx.extend_from_slice(a);
        self.vy.clear();
        self.vy.extend_from_slice(b);
    }

    /// Writes the WA wirelength gradient (γ annealed with overflow, nets
    /// scaled by `weights`) plus the λ-weighted density gradient into
    /// `gx`/`gy`. On the first iteration λ auto-balances against the
    /// wirelength gradient.
    fn wirelength_density(&mut self, weights: Option<&[f64]>, obs: &mut Observer) {
        let wa_gamma = (self.bin_w * (0.1 + 8.0 * self.overflow)).max(1e-3);
        let sp = obs.start(Phase::WirelengthGrad);
        self.wl = self.wl_model.wa_gradient_into(
            &self.vx,
            &self.vy,
            wa_gamma,
            weights,
            &mut self.wl_scratch,
            &mut self.gx,
            &mut self.gy,
        );
        obs.stop(Phase::WirelengthGrad, sp);

        let sp = obs.start(Phase::DensityGrad);
        self.density
            .evaluate_into(&self.vx, &self.vy, &mut self.dscratch, &mut self.dres);
        self.overflow = self.dres.overflow;
        if self.lambda == 0.0 {
            let l1 = |x: &[f64], y: &[f64]| -> f64 { x.iter().chain(y).map(|g| g.abs()).sum() };
            let d_norm = l1(&self.dres.grad_x, &self.dres.grad_y);
            self.lambda = if d_norm > 0.0 {
                self.params.lambda_ratio * l1(&self.gx, &self.gy) / d_norm
            } else {
                1.0
            };
        }
        axpy_into(&mut self.gx, &self.dres.grad_x, self.lambda);
        axpy_into(&mut self.gy, &self.dres.grad_y, self.lambda);
        obs.stop(Phase::DensityGrad, sp);
    }

    /// Takes the preconditioned Nesterov step on `gx`/`gy`, grows λ and
    /// closes the iteration with its telemetry event. Returns whether the
    /// level's stop criterion fired.
    fn step(
        &mut self,
        iter: usize,
        hpwl: f64,
        wns: f64,
        tns: f64,
        timing: bool,
        obs: &mut Observer,
    ) -> bool {
        let sp = obs.start(Phase::NesterovStep);
        let lambda = self.lambda;
        self.precond.resize(self.pin_count.len(), 0.0);
        self.precond
            .par_chunks_mut(MERGE_CHUNK)
            .zip(self.pin_count.par_chunks(MERGE_CHUNK))
            .zip(self.areas.par_chunks(MERGE_CHUNK))
            .for_each(|((pr, pc), ar)| {
                for ((p, &c), &a) in pr.iter_mut().zip(pc).zip(ar) {
                    *p = (c + lambda * a).max(1.0);
                }
            });
        let step = self.opt.step(&self.gx, &self.gy, &self.precond);
        self.lambda *= self.params.lambda_growth;
        obs.stop(Phase::NesterovStep, sp);

        // The event records the λ this iteration's gradient actually used
        // (post auto-balance, pre growth).
        obs.iter_end(IterEvent {
            iter: iter as u64,
            level: self.params.level as u32,
            wl: self.wl,
            hpwl,
            overflow: self.overflow,
            lambda,
            step,
            wns,
            tns,
            timing,
        });
        iter > self.params.min_iters && self.overflow < self.params.stop_overflow
    }
}

/// Which analysis a timing mechanism consumes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum AnalysisKind {
    /// LSE-smoothed at the timer's γ and forward-only: the gradients never
    /// read RATs, so no RAT sweep runs.
    Smoothed,
    /// Exact, with RATs: the net weighter reads per-pin slacks.
    WithRat,
    /// Exact and forward-only: path extraction reads only arrival times and
    /// endpoint slacks, so no RAT sweep runs.
    NoRat,
}

/// How a timing mechanism feeds its analysis back into the objective.
enum Mechanism {
    /// Wirelength mode: no timing in the loop.
    None,
    /// Differentiable mode: the t1/t2-scaled TNS/WNS gradient joins the
    /// wirelength + density gradient; t1/t2 grow every analysis.
    Gradient {
        cfg: DiffTimingConfig,
        t1: f64,
        t2: f64,
        grads: PositionGradients,
    },
    /// Net-weighting mode: momentum net weights in the WA wirelength.
    NetWeights(NetWeighter),
    /// Path-extraction mode: top-K path weights in the WA wirelength.
    Paths(PathWeighter),
}

/// The flow's one timing driver, built once per level from the
/// [`FlowMode`]: the timer, the mode's mechanism and its cadence — an
/// analysis every `period` iterations from `start` on.
struct TimingDriver {
    timer: Timer,
    mechanism: Mechanism,
    /// First timing iteration; `usize::MAX` = not (yet) active.
    start: usize,
    period: usize,
    scratch: AnalysisScratch,
}

impl TimingDriver {
    /// The timer `mode` analyzes with: the differentiable mode's γ and wire
    /// model, the defaults otherwise.
    fn timer(design: &Design, lib: &Library, mode: FlowMode) -> Result<Timer, StaError> {
        let mut config = TimerConfig::default();
        if let FlowMode::Differentiable(d) = mode {
            config.gamma = d.gamma;
            config.wire_model = d.wire_model.into();
        }
        Timer::with_config(design, lib, config)
    }

    /// Wraps `timer` with the mode's mechanism. A cold flow starts timing at
    /// the mode's `start_iter`.
    fn new(timer: Timer, mode: FlowMode, nl: &Netlist, wl_model: &WirelengthModel) -> TimingDriver {
        let (mechanism, start, period) = match mode {
            FlowMode::Wirelength => (Mechanism::None, usize::MAX, 1),
            FlowMode::NetWeighting(c) => (
                Mechanism::NetWeights(NetWeighter::new(wl_model, c)),
                c.start_iter,
                c.sta_period.max(1),
            ),
            FlowMode::Differentiable(c) => (
                Mechanism::Gradient {
                    cfg: c,
                    t1: c.t1,
                    t2: c.t2,
                    grads: PositionGradients::default(),
                },
                c.start_iter,
                1,
            ),
            FlowMode::PathExtraction(c) => (
                Mechanism::Paths(PathWeighter::new(nl, wl_model, c)),
                c.start_iter,
                c.extract_period.max(1),
            ),
        };
        let scratch = AnalysisScratch::new();
        TimingDriver { timer, mechanism, start, period, scratch }
    }

    /// The analysis the mechanism consumes.
    fn analysis_kind(&self) -> AnalysisKind {
        match self.mechanism {
            Mechanism::Gradient { .. } => AnalysisKind::Smoothed,
            Mechanism::NetWeights(_) => AnalysisKind::WithRat,
            Mechanism::None | Mechanism::Paths(_) => AnalysisKind::NoRat,
        }
    }

    /// Whether `iter` runs an analysis.
    fn due(&self, iter: usize) -> bool {
        iter >= self.start && (iter - self.start).is_multiple_of(self.period)
    }

    /// The mechanism's net weights for the WA wirelength, if it has any.
    fn weights(&self) -> Option<&[f64]> {
        match &self.mechanism {
            Mechanism::NetWeights(w) => Some(w.weights()),
            Mechanism::Paths(p) => Some(p.weights()),
            Mechanism::None | Mechanism::Gradient { .. } => None,
        }
    }

    /// Runs the mechanism's full analysis on `forest`.
    fn analyze(&mut self, nl: &Netlist, forest: &SteinerForest, obs: &mut Observer) -> Analysis {
        let sp = obs.start(Phase::StaForward);
        obs.add(Counter::StaFull, 1);
        let kind = self.analysis_kind();
        let s = &mut self.scratch;
        let analysis = match kind {
            AnalysisKind::Smoothed => self.timer.analyze_smoothed_no_rat_into(nl, forest, s),
            AnalysisKind::WithRat => self.timer.analyze_into(nl, forest, s),
            AnalysisKind::NoRat => self.timer.analyze_no_rat_into(nl, forest, s),
        };
        obs.stop(Phase::StaForward, sp);
        analysis
    }

    /// Feeds `analysis` into the objective: adds the scaled timing gradient
    /// to `gp`'s gradient, or updates the net weights, then hands its buffers
    /// back to the scratch pool for the next analysis. Returns the exact
    /// (WNS, TNS) it saw — NaN for the smoothed analysis.
    fn apply(
        &mut self,
        nl: &Netlist,
        forest: &SteinerForest,
        analysis: Analysis,
        gp: &mut GpStep,
        obs: &mut Observer,
    ) -> (f64, f64) {
        let traced = match &mut self.mechanism {
            Mechanism::Gradient { cfg, t1, t2, grads } => {
                let sp = obs.start(Phase::StaBackward);
                self.timer
                    .gradients_into(nl, &analysis, forest, *t1, *t2, &mut self.scratch, grads);
                obs.stop(Phase::StaBackward, sp);
                // Optional preconditioning (§5 future work): normalize the
                // timing gradient against the combined WL+density gradient.
                let scale = if cfg.grad_norm_target > 0.0 {
                    let t_norm = max_abs(&grads.cell_grad_x, &grads.cell_grad_y);
                    if t_norm > 0.0 {
                        cfg.grad_norm_target * max_abs(&gp.gx, &gp.gy) / t_norm
                    } else {
                        0.0
                    }
                } else {
                    1.0
                };
                axpy_into(&mut gp.gx, &grads.cell_grad_x, scale);
                axpy_into(&mut gp.gy, &grads.cell_grad_y, scale);
                *t1 *= cfg.growth;
                *t2 *= cfg.growth;
                (f64::NAN, f64::NAN)
            }
            Mechanism::NetWeights(w) => {
                let sp = obs.start(Phase::NetWeight);
                w.update(nl, &gp.wl_model, &analysis);
                obs.stop(Phase::NetWeight, sp);
                (analysis.wns(), analysis.tns())
            }
            Mechanism::Paths(p) => {
                let sp = obs.start(Phase::PathExtract);
                p.update(nl, &self.timer, &analysis);
                obs.stop(Phase::PathExtract, sp);
                obs.add(Counter::PathExtractions, 1);
                (analysis.wns(), analysis.tns())
            }
            Mechanism::None => (f64::NAN, f64::NAN),
        };
        self.scratch.recycle(analysis);
        traced
    }
}

/// Latches an activation iteration: `start` becomes `iter` the first time
/// the overflow — still the previous iteration's value when called —
/// drops under `threshold`.
fn latch_start(start: &mut usize, iter: usize, overflow: f64, threshold: f64) {
    if *start == usize::MAX && iter > 0 && overflow < threshold {
        *start = iter;
    }
}

/// Density overflow below which congestion optimization switches on: like
/// timing, the RUDY estimate is meaningless while every cell still sits in
/// the initial center cluster.
const ROUTE_START_OVERFLOW: f64 = 0.5;

/// Runtime state of the congestion-aware subsystem (`route_aware = true`).
struct RouteState {
    /// Exact incremental RUDY map — reporting and feedback.
    map: RudyMap,
    /// Differentiable smoothed-overflow penalty — the gradient term.
    penalty: CongestionPenalty,
    /// Penalty-gradient scratch.
    pgx: Vec<f64>,
    pgy: Vec<f64>,
    /// Per-model-net congestion boosts (1.0 = neutral) and their product
    /// with the timing weighter's weights.
    boost: Vec<f64>,
    combined: Vec<f64>,
    /// Per-cell inflation factors for the density model.
    inflation: Vec<f64>,
    /// First active iteration, latched once density overflow first drops
    /// under [`ROUTE_START_OVERFLOW`]; `usize::MAX` until then.
    start: usize,
    /// Whether any boost differs from 1 (skips the weight merge if not).
    boosted: bool,
}

impl RouteState {
    fn new(design: &Design, config: &FlowConfig) -> RouteState {
        let g = config.route_grid.max(2);
        RouteState {
            map: RudyMap::new(design, g, g, config.route_capacity),
            penalty: CongestionPenalty::new(design, g, g, config.route_capacity),
            pgx: Vec::new(),
            pgy: Vec::new(),
            boost: Vec::new(),
            combined: Vec::new(),
            inflation: Vec::new(),
            start: usize::MAX,
            boosted: false,
        }
    }
}

/// Runs one placement flow on `design` and returns metrics, trace and the
/// final legalized placement.
///
/// The input design's positions are not modified; the flow works on a copy
/// and returns the result positions in [`FlowResult::xs`]/[`FlowResult::ys`].
///
/// # Errors
///
/// Returns [`FlowError::Sta`] if the netlist cannot be bound to the library
/// or contains combinational cycles.
pub fn run_flow(
    design: &Design,
    lib: &Library,
    mode: FlowMode,
    config: &FlowConfig,
) -> Result<FlowResult, FlowError> {
    let mut obs = Observer::new(config.observe);
    run_flow_observed(design, lib, mode, config, &mut obs)
}

/// [`run_flow`] with a caller-owned [`Observer`]: the caller can attach a
/// JSONL trace sink beforehand and read the phase/counter report afterwards
/// (the `dtp` CLI's `--profile` / `--metrics-out` / `--trace-out` path).
///
/// The observer should be freshly constructed per run; its enablement is
/// honored as-is (it is *not* re-derived from [`FlowConfig::observe`]).
/// Observability only ever reads clocks and counts events, so an enabled
/// observer leaves the placement trajectory bit-for-bit identical to a
/// disabled one — the `obs_golden` tests assert this.
///
/// # Errors
///
/// Returns [`FlowError::Sta`] if the netlist cannot be bound to the library
/// or contains combinational cycles.
pub fn run_flow_observed(
    design: &Design,
    lib: &Library,
    mode: FlowMode,
    config: &FlowConfig,
    obs: &mut Observer,
) -> Result<FlowResult, FlowError> {
    if config.threads > 0 {
        // Dedicated pool of the requested width for the whole flow —
        // every parallel kernel below dispatches through it. The workers
        // persist for the run and are torn down when the pool drops.
        let pool = rayon::Pool::new(config.threads);
        rayon::with_pool(&pool, || run_flow_inner(design, lib, mode, config, obs))
    } else {
        run_flow_inner(design, lib, mode, config, obs)
    }
}

fn run_flow_inner(
    design: &Design,
    lib: &Library,
    mode: FlowMode,
    config: &FlowConfig,
    obs: &mut Observer,
) -> Result<FlowResult, FlowError> {
    emit_trace_header(design, mode, config, obs);
    if config.multilevel && config.levels >= 2 && config.cluster_ratio > 1.0 {
        run_flow_multilevel(design, lib, mode, config, obs)
    } else {
        run_flow_fine(design, lib, mode, config, obs, None)
    }
}

/// Writes the v2 trace header — the run's full identity: mode, config,
/// seed, thread counts, and the design fingerprint — as the first record of
/// the JSONL stream. Runs inside the flow's pool scope, so `pool_threads`
/// reports the width the iterations will actually execute with.
fn emit_trace_header(design: &Design, mode: FlowMode, config: &FlowConfig, obs: &mut Observer) {
    if !obs.is_enabled() {
        return;
    }
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let header = dtp_obs::TraceHeader {
        schema: dtp_obs::TRACE_SCHEMA.to_string(),
        mode: mode.name().to_string(),
        seed: config.seed,
        threads: config.threads as u64,
        pool_threads: rayon::current_num_threads() as u64,
        host_threads: host_threads as u64,
        design: design.name.clone(),
        cells: design.netlist.num_cells() as u64,
        nets: design.netlist.num_nets() as u64,
        pins: design.netlist.num_pins() as u64,
        region: [design.region.xl, design.region.yl, design.region.xh, design.region.yh],
        clock_period: design.constraints.clock_period,
        source: obs.design_source().map(str::to_string),
        config: config.trace_fields(),
        mode_config: mode.trace_fields(),
    };
    obs.emit_header(&header);
}

/// The multi-level (clustered) V-cycle: coarsen the netlist `levels - 1`
/// times, place the coarsest level from a cold start, then walk back down
/// the ladder — interpolate each coarse solution onto the next finer level
/// and refine it there. Coarse levels run wirelength + density (plus path
/// extraction where endpoints survive, see [`run_coarse_level`]); the
/// finest level runs the full flow, warm-started, with its timing mechanism
/// engaging at [`WARM_TIMING_OVERFLOW`].
fn run_flow_multilevel(
    design: &Design,
    lib: &Library,
    mode: FlowMode,
    config: &FlowConfig,
    obs: &mut Observer,
) -> Result<FlowResult, FlowError> {
    let t_start = Instant::now();

    // Build the ladder: designs[0] is one level above the input design,
    // designs[l] is coarser than designs[l - 1]. Stop early when a round
    // stops reducing (tiny designs, everything fixed).
    let mut designs: Vec<Design> = Vec::new();
    let mut maps: Vec<ClusterMap> = Vec::new();
    let sp = obs.start(Phase::Coarsen);
    for l in 1..config.levels {
        let cur = designs.last().unwrap_or(design);
        let (c, m) = coarsen(cur, config.cluster_ratio, config.seed ^ l as u64);
        if c.netlist.num_cells() as f64 > 0.9 * cur.netlist.num_cells() as f64 {
            break;
        }
        designs.push(c);
        maps.push(m);
    }
    obs.stop(Phase::Coarsen, sp);
    if designs.is_empty() {
        return run_flow_fine(design, lib, mode, config, obs, None);
    }

    // Upstroke: coarsest → finest. Each level refines the previous level's
    // interpolated solution; the coarsest starts cold.
    let mut level_iterations: Vec<usize> = Vec::new();
    let mut warm_pos: Option<Positions> = None;
    for l in (0..designs.len()).rev() {
        let ((xs, ys), iterations) =
            run_coarse_level(&mut designs[l], l + 1, lib, mode, config, obs, warm_pos.take());
        dtp_obs::info!(
            "multilevel: level {} ({} clusters) placed in {} iterations",
            l + 1,
            designs[l].netlist.num_cells(),
            iterations
        );
        level_iterations.push(iterations);
        let coarse_nl = &designs[l].netlist;
        let (fine_nl, region) = if l == 0 {
            (&design.netlist, design.region)
        } else {
            (&designs[l - 1].netlist, designs[l - 1].region)
        };
        let sp = obs.start(Phase::Interpolate);
        let (mut fx, mut fy) = fine_nl.positions();
        maps[l].interpolate(
            fine_nl, coarse_nl, region, config.seed, &xs, &ys, &mut fx, &mut fy,
        );
        obs.stop(Phase::Interpolate, sp);
        warm_pos = Some((fx, fy));
    }

    let mut result = run_flow_fine(design, lib, mode, config, obs, warm_pos)?;
    dtp_obs::info!(
        "multilevel: level 0 ({} cells) refined in {} iterations",
        design.netlist.num_cells(),
        result.iterations
    );
    level_iterations.push(result.iterations);
    result.iterations = level_iterations.iter().sum();
    result.level_iterations = level_iterations;
    result.runtime = t_start.elapsed().as_secs_f64();
    Ok(result)
}

/// Places one coarse (clustered) design with the shared [`GpStep`] and no
/// routing machinery. In most modes there is no timing either: cluster
/// pseudo-cells carry synthetic classes the library cannot bind, so the
/// full differentiable objective is unavailable here.
///
/// The one exception is [`FlowMode::PathExtraction`]: its timing signal
/// needs only a forward analysis over whatever endpoints *survive*
/// coarsening (uncollapsed registers, primary outputs), so when the coarse
/// design still has endpoints, the level extracts the top-K paths from
/// iteration 0 at the extraction cadence — on a fresh forest, with a full
/// analysis — *before* the wirelength gradient, so the new weights act in
/// the same iteration. That puts timing pressure on the levels where the
/// differentiable gradient cannot run.
///
/// Returns the global-placement solution (unlegalized; finer levels only
/// need the arrangement) and the level's iteration count.
fn run_coarse_level(
    work: &mut Design,
    level: usize,
    lib: &Library,
    mode: FlowMode,
    config: &FlowConfig,
    obs: &mut Observer,
    warm: Option<Positions>,
) -> (Positions, usize) {
    let params = LevelParams {
        level,
        // Halve the density grid per level (floor 32): clusters are ~ratio×
        // larger than cells, so the field granularity must coarsen with
        // them or it fights cluster interleaving the finer levels resolve
        // trivially. Powers of two are preserved, so the FFT backend still
        // applies.
        bins: (config.bins >> level).max(32.min(config.bins)),
        stop_overflow: config.stop_overflow.max(COARSE_STOP_OVERFLOW),
        min_iters: COARSE_MIN_ITERS,
        // Clusters pre-aggregate connectivity, so the coarse anneal can
        // afford a density schedule twice as steep as the fine flow's: the
        // arrangement forms in roughly half the iterations at no observed
        // quality cost (the finer levels re-anneal the endgame anyway).
        lambda_growth: config.lambda_growth * config.lambda_growth,
        lambda_ratio: 0.1,
    };
    let mut gp = GpStep::new(work, warm, params, config);
    // Everything is guarded — a fully clustered proxy with no endpoints
    // skips the machinery and the level stays pure wirelength + density.
    let mut driver = match mode {
        FlowMode::PathExtraction(_) => TimingDriver::timer(work, lib, mode)
            .ok()
            .filter(|t| !t.graph().endpoints().is_empty())
            .map(|t| TimingDriver {
                start: 0,
                ..TimingDriver::new(t, mode, &work.netlist, &gp.wl_model)
            }),
        _ => None,
    };

    for iter in 0..config.max_iters {
        gp.begin(iter, obs);
        let (mut wns, mut tns) = (f64::NAN, f64::NAN);
        if let Some(d) = driver.as_mut().filter(|d| d.due(iter)) {
            work.netlist.set_positions(&gp.vx, &gp.vy);
            let sp = obs.start(Phase::SteinerBuild);
            let forest = build_forest(&work.netlist);
            obs.stop(Phase::SteinerBuild, sp);
            obs.add(Counter::ForestBuilds, 1);
            let analysis = d.analyze(&work.netlist, &forest, obs);
            (wns, tns) = d.apply(&work.netlist, &forest, analysis, &mut gp, obs);
        }
        gp.wirelength_density(driver.as_ref().and_then(TimingDriver::weights), obs);
        if gp.step(iter, f64::NAN, wns, tns, driver.is_some(), obs) {
            break;
        }
    }

    let (sx, sy) = gp.opt.solution();
    ((sx.to_vec(), sy.to_vec()), gp.iterations)
}

fn run_flow_fine(
    design: &Design,
    lib: &Library,
    mode: FlowMode,
    config: &FlowConfig,
    obs: &mut Observer,
    warm: Option<Positions>,
) -> Result<FlowResult, FlowError> {
    let t_start = Instant::now();
    // `timing_runtime` is reported as the STA-span delta across this run,
    // so a reused observer does not double-count an earlier run's time.
    let sta_seconds_at_entry = obs.sta_seconds();
    let mut work = design.clone();
    let warm_start = warm.is_some();

    // A warm start (multi-level) re-enters the λ schedule "mid-flight": the
    // placement is already spread, so the density gradient is small and the
    // cold-start auto-balance ratio would over-weight density from the first
    // step, freezing the arrangement before wirelength (and timing) can
    // improve it. A lower ratio restores the wirelength-dominant phase the
    // cold schedule gets for free; the anneal is then compressed slightly
    // to keep the (expensive) endgame short.
    let params = LevelParams {
        level: 0,
        bins: config.bins,
        stop_overflow: config.stop_overflow,
        min_iters: 30,
        lambda_growth: if warm_start {
            config.lambda_growth * WARM_LAMBDA_GROWTH_BOOST
        } else {
            config.lambda_growth
        },
        lambda_ratio: if warm_start { 0.05 } else { 0.1 },
    };
    // The timer is built before the GP models so their buffers reuse the
    // heap its construction frees (a lower peak RSS); the pre-sized scratch
    // keeps the steady-state iteration allocation-free.
    let timer = TimingDriver::timer(&work, lib, mode)?;
    let mut gp = GpStep::new(&mut work, warm, params, config);
    let mut driver = TimingDriver::new(timer, mode, &work.netlist, &gp.wl_model);
    driver.scratch.presize(work.netlist.num_pins(), work.netlist.num_nets());
    // A warm start cannot tell which iteration is "spread enough", so its
    // timing start latches on overflow instead ([`WARM_TIMING_OVERFLOW`]).
    let latch_timing = warm_start && !matches!(driver.mechanism, Mechanism::None);
    if latch_timing {
        driver.start = usize::MAX;
    }

    let mut route = config.route_aware.then(|| RouteState::new(&work, config));
    // The in-loop Steiner forest (built from the topology tables) and its
    // drift bookkeeping; the post-GP and final reporting forests use the
    // legacy constructions.
    let mut tracked: Option<(SteinerForest, ForestSync)> = None;
    let mut trace = Vec::new();

    for iter in 0..config.max_iters {
        gp.begin(iter, obs);
        work.netlist.set_positions(&gp.vx, &gp.vy);

        // Warm-started timing and congestion optimization latch on once the
        // cells have spread out.
        if latch_timing {
            latch_start(&mut driver.start, iter, gp.overflow, WARM_TIMING_OVERFLOW);
        }
        if let Some(rs) = route.as_mut() {
            latch_start(&mut rs.start, iter, gp.overflow, ROUTE_START_OVERFLOW);
        }
        let timing_active = iter >= driver.start;
        let route_active = route.as_ref().is_some_and(|rs| iter >= rs.start);
        let trace_timing = config.trace_timing_every > 0 && iter % config.trace_timing_every == 0;

        // Steiner forest maintenance (only when some consumer needs it):
        // one full build, then per-net coordinate updates for
        // geometry-dirty nets and per-net rebuilds once a net's accumulated
        // drift exceeds its bbox budget.
        if timing_active || trace_timing || route_active {
            match &mut tracked {
                Some((f, sync)) => sync.sync(&work.netlist, f, &gp.vx, &gp.vy, obs),
                None => {
                    let sp = obs.start(Phase::SteinerBuild);
                    let f = build_forest_with(&work.netlist, TableConfig::default());
                    let sync = ForestSync::new(&work.netlist, &f, &gp.vx, &gp.vy, config);
                    tracked = Some((f, sync));
                    obs.stop(Phase::SteinerBuild, sp);
                    obs.add(Counter::ForestBuilds, 1);
                }
            }
        }

        // Exact RUDY map maintenance: full build on activation, then
        // incremental updates from the forest sync's geometry/topology-dirty
        // net sets (plus a cell-position scan for the pin-density term).
        if let Some(rs) = route.as_mut().filter(|_| route_active) {
            let (f, sync) = tracked.as_ref().expect("forest built when route is active");
            let sp = obs.start(Phase::RudyUpdate);
            if iter == rs.start {
                rs.map.build(&work.netlist, f);
                obs.add(Counter::RudyBuilds, 1);
            } else {
                rs.map.update_nets(f, &sync.geo_nets);
                rs.map.update_nets(f, &sync.topo_nets);
                rs.map.sync_cells(&work.netlist);
                obs.add(Counter::RudyIncUpdates, 1);
            }
            obs.stop(Phase::RudyUpdate, sp);
        }

        // Wirelength + density gradient; congested nets carry their boosted
        // weight (merged with the timing mechanism's weights when both are
        // on).
        let mut weights = driver.weights();
        if let Some(rs) = route.as_mut().filter(|rs| rs.boosted) {
            rs.combined.clear();
            match weights {
                Some(w) => rs.combined.extend(w.iter().zip(&rs.boost).map(|(a, b)| a * b)),
                None => rs.combined.extend_from_slice(&rs.boost),
            }
            weights = Some(rs.combined.as_slice());
        }
        gp.wirelength_density(weights, obs);

        // Congestion penalty gradient, normalized like the timing
        // preconditioner: its ∞-norm is pinned to `route_weight` times the
        // combined wirelength+density gradient's, so the pressure tracks
        // the optimizer's scale instead of the raw demand units. Then the
        // RUDY feedback every `route_update_period` active iterations:
        // inflate cells in overflowed bins (density-model footprints) and
        // boost the wirelength weight of nets crossing them; both take
        // effect from the next iteration's gradients.
        if let Some(rs) = route.as_mut().filter(|_| route_active) {
            let (f, _) = tracked.as_ref().expect("forest built when route is active");
            let sp = obs.start(Phase::CongestionGrad);
            rs.penalty
                .value_and_gradient(&work.netlist, f, &mut rs.pgx, &mut rs.pgy);
            let p_norm = max_abs(&rs.pgx, &rs.pgy);
            if p_norm > 0.0 {
                let scale = config.route_weight * max_abs(&gp.gx, &gp.gy) / p_norm;
                axpy_into(&mut gp.gx, &rs.pgx, scale);
                axpy_into(&mut gp.gy, &rs.pgy, scale);
            }
            obs.stop(Phase::CongestionGrad, sp);

            let sp = obs.start(Phase::RudyUpdate);
            if (iter - rs.start) % config.route_update_period.max(1) == 0 {
                inflation_factors(
                    &rs.map,
                    &work.netlist,
                    config.inflation_max,
                    &mut rs.inflation,
                );
                gp.density.set_inflation(&rs.inflation);
                let nets = gp.wl_model.num_nets();
                rs.boost.resize(nets, 1.0);
                rs.boosted = false;
                for e in 0..nets {
                    let over = rs.map.net_overflow(NetId::new(gp.wl_model.net_index(e)));
                    let b = 1.0 + config.route_weight * over.min(1.0);
                    rs.boost[e] = b;
                    if b != 1.0 {
                        rs.boosted = true;
                    }
                }
            }
            obs.stop(Phase::RudyUpdate, sp);
        }

        // Timing mechanism, after density: net weights it updates take
        // effect from the next iteration's wirelength gradient.
        let (mut traced_wns, mut traced_tns) = (f64::NAN, f64::NAN);
        if driver.due(iter) {
            let (f, _) = tracked.as_ref().expect("forest built when timing is active");
            let analysis = driver.analyze(&work.netlist, f, obs);
            (traced_wns, traced_tns) = driver.apply(&work.netlist, f, analysis, &mut gp, obs);
        }

        // Trace: exact timing and HPWL only every `trace_timing_every`
        // iterations; telemetry reuses the HPWL and reports `null` elsewhere
        // (the smoothed WA wirelength is free every iteration).
        let mut iter_hpwl = f64::NAN;
        if trace_timing {
            if traced_wns.is_nan() {
                let (f, _) = tracked.as_ref().expect("forest built when tracing");
                let sp = obs.start(Phase::TraceSta);
                let analysis = driver.timer.analyze(&work.netlist, f);
                obs.stop(Phase::TraceSta, sp);
                obs.add(Counter::TraceAnalyses, 1);
                traced_wns = analysis.wns();
                traced_tns = analysis.tns();
            }
            iter_hpwl = gp.wl_model.hpwl(&gp.vx, &gp.vy);
            trace.push(TracePoint {
                iter,
                hpwl: iter_hpwl,
                overflow: gp.overflow,
                wns: traced_wns,
                tns: traced_tns,
            });
        }

        if gp.step(iter, iter_hpwl, traced_wns, traced_tns, timing_active, obs) {
            break;
        }
    }

    // --- post-GP metrics ------------------------------------------------------
    let (sx, sy) = {
        let (a, b) = gp.opt.solution();
        (a.to_vec(), b.to_vec())
    };
    work.netlist.set_positions(&sx, &sy);
    let sp = obs.start(Phase::SteinerBuild);
    let gp_forest = build_forest(&work.netlist);
    obs.stop(Phase::SteinerBuild, sp);
    obs.add(Counter::ForestBuilds, 1);
    let sp = obs.start(Phase::FinalSta);
    let gp_analysis = driver.timer.analyze(&work.netlist, &gp_forest);
    obs.stop(Phase::FinalSta, sp);
    let gp_hpwl = gp.wl_model.hpwl(&sx, &sy);
    let (gp_wns, gp_tns) = (gp_analysis.wns(), gp_analysis.tns());

    // --- legalization + detailed placement -------------------------------------
    let mut lx = sx;
    let mut ly = sy;
    let sp = obs.start(Phase::Legalize);
    match config.legalizer {
        LegalizerChoice::Abacus => {
            let leg = AbacusLegalizer::new(&work);
            obs.gauge(Gauge::LegalizeBands, leg.bands() as f64);
            leg.legalize(&work, &mut lx, &mut ly);
        }
        LegalizerChoice::Tetris => {
            let leg = Legalizer::new(&work);
            obs.gauge(Gauge::LegalizeBands, leg.bands() as f64);
            leg.legalize(&work, &mut lx, &mut ly);
        }
    }
    obs.stop(Phase::Legalize, sp);
    let sp = obs.start(Phase::DetailPlace);
    DetailPlacer::new(&work).refine(&work, &mut lx, &mut ly, config.detail_passes);
    obs.stop(Phase::DetailPlace, sp);
    work.netlist.set_positions(&lx, &ly);
    let sp = obs.start(Phase::SteinerBuild);
    let final_forest = build_forest(&work.netlist);
    obs.stop(Phase::SteinerBuild, sp);
    obs.add(Counter::ForestBuilds, 1);
    let sp = obs.start(Phase::FinalSta);
    let final_analysis = driver.timer.analyze(&work.netlist, &final_forest);
    obs.stop(Phase::FinalSta, sp);
    let congestion = {
        let g = config.route_grid.max(2);
        let mut map = RudyMap::new(&work, g, g, config.route_capacity);
        let sp = obs.start(Phase::RudyUpdate);
        map.build(&work.netlist, &final_forest);
        obs.stop(Phase::RudyUpdate, sp);
        obs.add(Counter::RudyBuilds, 1);
        map.summary()
    };
    let rsmt = tracked.as_ref().map(|(f, _)| f.stats()).unwrap_or_default();

    // End-of-run gauges: backend selections and pool state. Cheap enough to
    // record unconditionally (the registry writes are gated inside `gauge`).
    obs.gauge(Gauge::FftBackend, if gp.density.uses_fft() { 1.0 } else { 0.0 });
    obs.gauge(Gauge::OverflowedFrac, congestion.overflowed_frac);
    obs.gauge(Gauge::RsmtExact, rsmt.exact as f64);
    obs.gauge(Gauge::RsmtTable, rsmt.table as f64);
    obs.gauge(Gauge::RsmtPrim, rsmt.prim as f64);
    obs.gauge(Gauge::RsmtSeqHits, rsmt.seq_hits as f64);
    obs.gauge(Gauge::RsmtSeqRebuilds, rsmt.seq_rebuilds as f64);
    obs.gauge(Gauge::PoolDispatches, rayon::dispatch_count() as f64);
    obs.gauge(Gauge::PoolThreads, rayon::current_num_threads() as f64);
    obs.flush();
    let timing_runtime = obs.sta_seconds() - sta_seconds_at_entry;

    Ok(FlowResult {
        mode: mode.label(),
        design: design.name.clone(),
        hpwl: gp.wl_model.hpwl(&lx, &ly),
        wns: final_analysis.wns(),
        tns: final_analysis.tns(),
        wns_hold: final_analysis.wns_hold(),
        gp_hpwl,
        gp_wns,
        gp_tns,
        iterations: gp.iterations,
        level_iterations: vec![gp.iterations],
        runtime: t_start.elapsed().as_secs_f64(),
        timing_runtime,
        trace,
        xs: lx,
        ys: ly,
        congestion,
        rsmt,
    })
}
