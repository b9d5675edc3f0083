//! The timing engine: forward analysis and backward gradients (§3.3, Fig. 3).
//!
//! [`Timer`] is constructed once per design (binding + levelization +
//! constraint resolution — stage 1 of Fig. 3, "only once"); each placement
//! iteration then calls [`Timer::analyze`] / [`Timer::analyze_smoothed`] with
//! the current Steiner forest (stages 2–4) and [`Timer::gradients`] for the
//! backward sweep (stage 5).
//!
//! # The allocation-free hot path
//!
//! A timing-driven placement loop calls the timer thousands of times, so the
//! per-call entry points come in two flavors:
//!
//! - the plain ones ([`Timer::analyze`], [`Timer::analyze_incremental`],
//!   [`Timer::gradients`]) allocate their result vectors fresh — convenient
//!   for one-shot analyses and tests;
//! - the `*_into` ones ([`Timer::analyze_into`],
//!   [`Timer::analyze_smoothed_no_rat_into`],
//!   [`Timer::analyze_incremental_into`], [`Timer::gradients_into`]) draw
//!   every buffer from a caller-owned [`AnalysisScratch`]. Retiring an
//!   [`Analysis`] back into the scratch with [`AnalysisScratch::recycle`]
//!   double-buffers its vectors: after warm-up these calls perform no heap
//!   allocation at all.
//!
//! The Elmore state of an analysis is one structure-of-arrays arena (one
//! array per quantity, each net's tree nodes at a range derived from the
//! forest), filled in parallel over nets; an incremental analysis copies the
//! clean nets' ranges from the previous one and recomputes only the dirty
//! nets. The backward pass keeps its seeds and node adjoints in flat scratch
//! arrays with the same layout and merges the per-net results into the pin
//! gradients serially, in net order, so the sums do not depend on the pool
//! width. Per-pin arc aggregation uses fixed-capacity stack buffers
//! (spilling to the heap only for cells with more than [`MAX_INLINE_ARCS`]
//! fan-in arcs), and the levelized graph, per-class delay arcs and per-net
//! pin capacitances are all stored CSR-flat (offsets + one data array) so
//! the sweeps touch contiguous memory.

use crate::binding::Binding;
use crate::elmore::{ElmoreArena, ElmoreGrads, ElmoreView};
use crate::error::StaError;
use crate::graph::{PinRole, TimingGraph};
use crate::smoothing::{
    lse_max, lse_max_weights_into, lse_min_weights_into, smooth_neg, smooth_neg_grad,
};
use dtp_liberty::{ArcEval, Library};
use dtp_netlist::{CellId, Design, NetId, Netlist, PinId};
use dtp_rsmt::SteinerForest;
use rayon::prelude::*;
use std::sync::Arc;

/// Wire delay metric computed from the Elmore moments (§3.4.2: the
/// framework generalizes to "other more complex interconnect delay models,
/// … as long as the model can be written in analytical form").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WireModel {
    /// First-moment (Elmore) delay — Eq. 7b.
    #[default]
    Elmore,
    /// D2M two-moment delay metric: `ln2 · m1²/√m2`.
    D2m,
}

/// Tunable parameters of the timing engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimerConfig {
    /// LSE smoothing parameter γ, in ps (the paper uses ≈ 100).
    pub gamma: f64,
    /// Which wire delay metric to derive from the Elmore moments.
    pub wire_model: WireModel,
    /// Slew of the ideal clock at register clock pins (ps).
    pub clock_slew: f64,
    /// Slew assumed at primary inputs (ps).
    pub input_slew: f64,
    /// Arrival time of the clock edge at registers (ps); 0 for an ideal
    /// zero-insertion-delay clock network.
    pub clock_arrival: f64,
}

impl Default for TimerConfig {
    fn default() -> Self {
        TimerConfig {
            gamma: 100.0,
            wire_model: WireModel::default(),
            clock_slew: 20.0,
            input_slew: 10.0,
            clock_arrival: 0.0,
        }
    }
}

/// Maximum number of fan-in arcs aggregated on the stack per pin; pins with
/// more arcs fall back to a heap buffer (no common library cell comes close).
pub const MAX_INLINE_ARCS: usize = 16;

/// Fixed-capacity stack buffer for per-pin arc aggregation in the level
/// sweeps. Spills to the heap only past `N` elements, so the common case
/// performs no allocation inside the rayon-parallel pin evaluations.
#[derive(Debug)]
struct F64Buf<const N: usize> {
    stack: [f64; N],
    len: usize,
    heap: Vec<f64>,
}

impl<const N: usize> F64Buf<N> {
    #[inline]
    fn new() -> Self {
        F64Buf { stack: [0.0; N], len: 0, heap: Vec::new() }
    }

    #[inline]
    fn push(&mut self, v: f64) {
        if self.heap.is_empty() && self.len < N {
            self.stack[self.len] = v;
            self.len += 1;
        } else {
            if self.heap.is_empty() {
                self.heap.reserve(N + 1);
                self.heap.extend_from_slice(&self.stack[..self.len]);
                self.len = 0;
            }
            self.heap.push(v);
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0 && self.heap.is_empty()
    }

    #[inline]
    fn as_slice(&self) -> &[f64] {
        if self.heap.is_empty() { &self.stack[..self.len] } else { &self.heap }
    }

    /// Sets the buffer to `n` zeros (for in-place weight computation).
    fn resize_zeroed(&mut self, n: usize) {
        if n <= N {
            self.heap.clear();
            self.len = n;
            self.stack[..n].fill(0.0);
        } else {
            self.len = 0;
            self.heap.clear();
            self.heap.resize(n, 0.0);
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [f64] {
        if self.heap.is_empty() { &mut self.stack[..self.len] } else { &mut self.heap }
    }
}

/// The differentiable STA engine bound to one design + library.
#[derive(Clone, Debug)]
pub struct Timer {
    binding: Binding,
    graph: TimingGraph,
    config: TimerConfig,
    clock_period: f64,
    /// Per-pin index of the pin within its net's pin list (tree node index).
    pin_node_in_net: Vec<u32>,
    /// CSR data: pin capacitances in net pin order, grouped by net (clock
    /// nets contribute an empty range).
    net_pin_caps: Vec<f64>,
    /// CSR offsets into `net_pin_caps`, one per net plus a trailing end.
    net_cap_offsets: Vec<u32>,
    /// Resolved SDC arrival offset per pin (PI pins only, else 0).
    input_delay: Vec<f64>,
    /// Resolved SDC required margin per pin (PO pins only, else 0).
    output_margin: Vec<f64>,
    /// Capture endpoints, shared (`Arc`) with every produced [`Analysis`].
    endpoints: Arc<[PinId]>,
    /// Register launch (`RegisterOutput`) pins in pin order.
    launch_pins: Vec<PinId>,
}

/// The result of one timing analysis: arrival times, slews, slacks and the
/// per-net Elmore state needed for the backward pass.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Late (worst-case) arrival time per pin, ps.
    pub at: Vec<f64>,
    /// Early (best-case) arrival time per pin, ps.
    pub at_early: Vec<f64>,
    /// Propagated (worst-case) slew per pin, ps.
    pub slew: Vec<f64>,
    /// Setup slack per pin (`f64::INFINITY` for non-endpoints), ps.
    pub slack: Vec<f64>,
    /// Hold slack per pin (`f64::INFINITY` where unconstrained), ps.
    pub hold_slack: Vec<f64>,
    /// Required arrival time per pin (late/setup view), propagated backward
    /// from the endpoints; `f64::INFINITY` on cones that reach no endpoint.
    pub rat: Vec<f64>,
    /// γ used for max-smoothing in this analysis; 0 means exact (hard max).
    pub gamma: f64,
    /// Per-net Elmore state, one flat arena for all nets.
    elmore: ElmoreArena,
    endpoints: Arc<[PinId]>,
}

impl Analysis {
    /// Worst negative slack: the minimum setup slack over endpoints (Eq. 2).
    /// Positive if all constraints are met.
    pub fn wns(&self) -> f64 {
        self.endpoints
            .iter()
            .map(|&p| self.slack[p.index()])
            .fold(f64::INFINITY, f64::min)
    }

    /// Total negative slack: `Σ min(0, slack)` over endpoints (Eq. 2).
    pub fn tns(&self) -> f64 {
        self.endpoints
            .iter()
            .map(|&p| self.slack[p.index()].min(0.0))
            .sum()
    }

    /// Worst hold slack over endpoints.
    pub fn wns_hold(&self) -> f64 {
        self.endpoints
            .iter()
            .map(|&p| self.hold_slack[p.index()])
            .fold(f64::INFINITY, f64::min)
    }

    /// Total negative hold slack over endpoints.
    pub fn tns_hold(&self) -> f64 {
        self.endpoints
            .iter()
            .map(|&p| self.hold_slack[p.index()].min(0.0))
            .filter(|s| s.is_finite())
            .sum()
    }

    /// Smoothed TNS (`Σ smooth_min(0, slack)`) at smoothing `gamma`.
    pub fn tns_smooth(&self, gamma: f64) -> f64 {
        self.endpoints
            .iter()
            .map(|&p| smooth_neg(self.slack[p.index()], gamma))
            .sum()
    }

    /// Smoothed WNS (LSE-min over endpoint slacks) at smoothing `gamma`.
    pub fn wns_smooth(&self, gamma: f64) -> f64 {
        let slacks: Vec<f64> = self.endpoints.iter().map(|&p| self.slack[p.index()]).collect();
        if slacks.is_empty() {
            return 0.0;
        }
        crate::smoothing::lse_min(&slacks, gamma)
    }

    /// Capture endpoints of the design.
    pub fn endpoints(&self) -> &[PinId] {
        &self.endpoints
    }

    /// Slack of an arbitrary pin (`RAT − AT`); `f64::INFINITY` for pins whose
    /// fan-out cone reaches no endpoint.
    pub fn pin_slack(&self, pin: PinId) -> f64 {
        let i = pin.index();
        if self.rat[i].is_finite() {
            self.rat[i] - self.at[i]
        } else {
            f64::INFINITY
        }
    }

    /// The Elmore state of a net (None for clock nets).
    pub fn elmore(&self, net: NetId) -> Option<ElmoreView<'_>> {
        self.elmore.net(net.index())
    }
}

/// Reusable buffers for the per-iteration timing hot path.
///
/// One scratch serves any number of [`Timer::analyze_into`] /
/// [`Timer::analyze_incremental_into`] / [`Timer::gradients_into`] calls on
/// the same design. Feed retired analyses back with
/// [`AnalysisScratch::recycle`] so their vectors return to the pool; the
/// ping-pong between the live [`Analysis`] and the pool is what makes the
/// incremental path allocation-free after the first iteration.
#[derive(Debug, Default)]
pub struct AnalysisScratch {
    /// Pool of retired pin-length `f64` buffers (at / slew / slack / rat …).
    pool_f64: Vec<Vec<f64>>,
    /// Pool of retired Elmore arenas.
    pool_elmore: Vec<ElmoreArena>,
    /// Per-level sweep results (`None` for pins skipped as clean).
    level_results: Vec<Option<(usize, f64, f64, f64)>>,
    /// Per-net dirty flags for the incremental path.
    net_dirty: Vec<bool>,
    /// Per-pin dirty flags for the incremental frontier sweep.
    pin_dirty: Vec<bool>,
    /// Indices of dirty nets this iteration.
    dirty_nets: Vec<usize>,
    /// ∂f/∂AT per pin (gradient sweep).
    g_at: Vec<f64>,
    /// ∂f/∂slew per pin (gradient sweep).
    g_slew: Vec<f64>,
    /// Elmore seeds, node adjoints and per-net position gradients.
    elmore_grads: ElmoreGrads,
    /// Endpoint slacks (gradient objective evaluation).
    endpoint_slacks: Vec<f64>,
    /// LSE-min weights over endpoint slacks.
    endpoint_weights: Vec<f64>,
    /// Fan-in pins + arc evaluations of one combinational output.
    arc_inputs: Vec<(PinId, ArcEval)>,
    /// Arc evaluations of one register launch pin.
    arc_evals: Vec<ArcEval>,
}

impl AnalysisScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        AnalysisScratch::default()
    }

    /// Pre-sizes the pools and per-entity buffers for a design with
    /// `num_pins` pins and `num_nets` nets, so the warm-up allocations of the
    /// first analyses happen once at flow start instead of inside the
    /// iteration loop. Six pin-length `f64` buffers plus one Elmore arena
    /// cover a full [`Analysis`]; the pools hold two of each because the
    /// incremental flow keeps the previous analysis alive while building the
    /// next one. The incremental bookkeeping vectors are grown to their
    /// steady-state lengths directly. The arenas and the backward buffers
    /// are sized by the forest's node count, which only the first analysis
    /// and gradient call see.
    pub fn presize(&mut self, num_pins: usize, num_nets: usize) {
        while self.pool_f64.len() < 12 {
            self.pool_f64.push(Vec::new());
        }
        for v in self.pool_f64.iter_mut() {
            if v.capacity() < num_pins {
                v.reserve(num_pins - v.capacity());
            }
        }
        while self.pool_elmore.len() < 2 {
            self.pool_elmore.push(ElmoreArena::default());
        }
        self.level_results.reserve(num_pins.saturating_sub(self.level_results.capacity()));
        self.net_dirty.reserve(num_nets.saturating_sub(self.net_dirty.capacity()));
        self.pin_dirty.reserve(num_pins.saturating_sub(self.pin_dirty.capacity()));
        self.dirty_nets.reserve(num_nets.saturating_sub(self.dirty_nets.capacity()));
        self.g_at.reserve(num_pins.saturating_sub(self.g_at.capacity()));
        self.g_slew.reserve(num_pins.saturating_sub(self.g_slew.capacity()));
    }

    /// Retires an [`Analysis`], returning its vectors to the pool so the
    /// next `*_into` call reuses them instead of allocating.
    pub fn recycle(&mut self, analysis: Analysis) {
        let Analysis { at, at_early, slew, slack, hold_slack, rat, elmore, .. } = analysis;
        for v in [at, at_early, slew, slack, hold_slack, rat] {
            self.pool_f64.push(v);
        }
        self.pool_elmore.push(elmore);
    }

    /// A pooled buffer of `n` copies of `fill`.
    fn take_filled(&mut self, n: usize, fill: f64) -> Vec<f64> {
        let mut b = self.pool_f64.pop().unwrap_or_default();
        b.clear();
        b.resize(n, fill);
        b
    }

    /// A pooled buffer holding a copy of `src` (a memcpy, no allocation once
    /// the pool is warm).
    fn take_copied(&mut self, src: &[f64]) -> Vec<f64> {
        let mut b = self.pool_f64.pop().unwrap_or_default();
        b.clear();
        b.extend_from_slice(src);
        b
    }

    /// A pooled Elmore arena (its contents are overwritten by the fill).
    fn take_elmore(&mut self) -> ElmoreArena {
        self.pool_elmore.pop().unwrap_or_default()
    }
}

/// Gradients of the timing objective with respect to positions.
#[derive(Clone, Debug, Default)]
pub struct PositionGradients {
    /// ∂f/∂x per pin.
    pub pin_grad_x: Vec<f64>,
    /// ∂f/∂y per pin.
    pub pin_grad_y: Vec<f64>,
    /// ∂f/∂x per cell (sum over the cell's pins).
    pub cell_grad_x: Vec<f64>,
    /// ∂f/∂y per cell.
    pub cell_grad_y: Vec<f64>,
    /// The smoothed objective value `−t1·TNSγ − t2·WNSγ` (to be minimized).
    pub objective: f64,
}

impl Timer {
    /// Builds the engine: resolves the library binding, levelizes the timing
    /// graph and resolves SDC constraints to pins.
    ///
    /// # Errors
    ///
    /// Returns [`StaError`] for unbound classes/pins or combinational cycles.
    pub fn new(design: &Design, lib: &Library) -> Result<Timer, StaError> {
        Timer::with_config(design, lib, TimerConfig::default())
    }

    /// [`Timer::new`] with explicit configuration.
    ///
    /// # Errors
    ///
    /// Same as [`Timer::new`].
    pub fn with_config(
        design: &Design,
        lib: &Library,
        config: TimerConfig,
    ) -> Result<Timer, StaError> {
        let nl = &design.netlist;
        let binding = Binding::resolve(nl, lib)?;
        let graph = TimingGraph::build(nl, &binding)?;

        let mut pin_node_in_net = vec![0u32; nl.num_pins()];
        for net in nl.net_ids() {
            for (i, &p) in nl.net(net).pins().iter().enumerate() {
                pin_node_in_net[p.index()] = i as u32;
            }
        }
        // CSR per-net pin capacitances; clock nets own an empty range (the
        // ideal clock network is never analyzed).
        let mut net_cap_offsets = Vec::with_capacity(nl.num_nets() + 1);
        let mut net_pin_caps = Vec::new();
        net_cap_offsets.push(0u32);
        for net in nl.net_ids() {
            if !nl.net(net).is_clock() {
                for &p in nl.net(net).pins() {
                    net_pin_caps.push(binding.pin_cap(nl, p));
                }
            }
            net_cap_offsets.push(net_pin_caps.len() as u32);
        }

        let mut input_delay = vec![0.0; nl.num_pins()];
        let mut output_margin = vec![0.0; nl.num_pins()];
        for p in nl.pin_ids() {
            match graph.role(p) {
                PinRole::PrimaryInput => {
                    let name = nl.cell(nl.pin(p).cell()).name().to_owned();
                    input_delay[p.index()] = design.constraints.input_delay(&name);
                }
                PinRole::PrimaryOutput => {
                    let name = nl.cell(nl.pin(p).cell()).name().to_owned();
                    output_margin[p.index()] = design.constraints.output_delay(&name);
                }
                _ => {}
            }
        }

        let endpoints: Arc<[PinId]> = graph.endpoints().into();
        let launch_pins =
            nl.pin_ids().filter(|&p| graph.role(p) == PinRole::RegisterOutput).collect();
        Ok(Timer {
            binding,
            graph,
            config,
            clock_period: design.constraints.clock_period,
            pin_node_in_net,
            net_pin_caps,
            net_cap_offsets,
            input_delay,
            output_margin,
            endpoints,
            launch_pins,
        })
    }

    /// The levelized timing graph.
    pub fn graph(&self) -> &TimingGraph {
        &self.graph
    }

    /// The netlist↔library binding.
    pub fn binding(&self) -> &Binding {
        &self.binding
    }

    /// Engine configuration.
    pub fn config(&self) -> TimerConfig {
        self.config
    }

    /// Clock period the analysis checks against, ps.
    pub fn clock_period(&self) -> f64 {
        self.clock_period
    }

    /// Pin capacitances of net `ni` in net pin order (empty for clock nets).
    #[inline]
    fn net_caps(&self, ni: usize) -> &[f64] {
        let lo = self.net_cap_offsets[ni] as usize;
        let hi = self.net_cap_offsets[ni + 1] as usize;
        &self.net_pin_caps[lo..hi]
    }

    /// Stage 2 of Fig. 3: the Elmore forward pass of every net of `forest`
    /// into `arena` (see [`ElmoreArena::fill`] for `reuse`).
    fn fill_elmore(
        &self,
        forest: &SteinerForest,
        arena: &mut ElmoreArena,
        reuse: Option<(&ElmoreArena, &[bool])>,
    ) {
        let (r, c) = (self.binding.wire_res_per_um, self.binding.wire_cap_per_um);
        arena.fill(forest, r, c, |ni| self.net_caps(ni), reuse);
    }

    /// Exact analysis: true max/min aggregation; use for reporting WNS/TNS.
    ///
    /// `nl` must be the same netlist (topology) the timer was built from;
    /// only its connectivity is read — pin positions are baked into `forest`.
    pub fn analyze(&self, nl: &Netlist, forest: &SteinerForest) -> Analysis {
        let mut scratch = AnalysisScratch::new();
        self.run_forward_into(nl, forest, 0.0, true, &mut scratch)
    }

    /// Smoothed analysis: LSE aggregation at the configured γ; feed this to
    /// [`Timer::gradients`].
    pub fn analyze_smoothed(&self, nl: &Netlist, forest: &SteinerForest) -> Analysis {
        let mut scratch = AnalysisScratch::new();
        self.run_forward_into(nl, forest, self.config.gamma, true, &mut scratch)
    }

    /// [`Timer::analyze`] drawing every buffer from `scratch` — the
    /// allocation-free full-analysis entry point of the placement loop.
    pub fn analyze_into(
        &self,
        nl: &Netlist,
        forest: &SteinerForest,
        scratch: &mut AnalysisScratch,
    ) -> Analysis {
        self.run_forward_into(nl, forest, 0.0, true, scratch)
    }

    /// [`Timer::analyze_smoothed`] drawing every buffer from `scratch`.
    pub fn analyze_smoothed_into(
        &self,
        nl: &Netlist,
        forest: &SteinerForest,
        scratch: &mut AnalysisScratch,
    ) -> Analysis {
        self.run_forward_into(nl, forest, self.config.gamma, true, scratch)
    }

    /// [`Timer::analyze_smoothed_into`] without the backward RAT sweep — the
    /// analysis half of the differentiable timing mode. [`Timer::gradients`]
    /// reads arrival times, slews, endpoint slacks and the Elmore state,
    /// never RATs, so its result is identical on either analysis; every RAT
    /// is left at `f64::INFINITY`.
    pub fn analyze_smoothed_no_rat_into(
        &self,
        nl: &Netlist,
        forest: &SteinerForest,
        scratch: &mut AnalysisScratch,
    ) -> Analysis {
        self.run_forward_into(nl, forest, self.config.gamma, false, scratch)
    }

    /// Exact forward analysis that *skips* the backward RAT sweep — the
    /// analysis half of the path-extraction timing mode. Endpoint slacks
    /// (and therefore WNS/TNS and path extraction, which read only arrival
    /// times and endpoint slacks) are identical to [`Timer::analyze_into`];
    /// [`Analysis::pin_slack`] on non-endpoint pins returns `f64::INFINITY`
    /// because no RATs were propagated. Skipping the sweep removes the one
    /// remaining whole-graph backward pass from the periodic analysis.
    pub fn analyze_no_rat_into(
        &self,
        nl: &Netlist,
        forest: &SteinerForest,
        scratch: &mut AnalysisScratch,
    ) -> Analysis {
        self.run_forward_into(nl, forest, 0.0, false, scratch)
    }

    /// Full forward analysis (stages 2–4 of Fig. 3): Elmore over all nets,
    /// then a rayon-parallel level-synchronous sweep. The netlist is
    /// implicit in the forest (pin positions were baked into the trees), but
    /// arc lookups still need the structural netlist; the caller guarantees
    /// it matches the one used at construction. `with_rat = false` leaves
    /// every RAT at `f64::INFINITY` (consumers that never read per-pin
    /// slacks, like path extraction, skip the backward sweep entirely).
    fn run_forward_into(
        &self,
        nl: &Netlist,
        forest: &SteinerForest,
        gamma: f64,
        with_rat: bool,
        scratch: &mut AnalysisScratch,
    ) -> Analysis {
        let nl_pins = self.pin_node_in_net.len();

        // Elmore forward over all nets (stage 2), rayon-parallel.
        let mut elmore = scratch.take_elmore();
        self.fill_elmore(forest, &mut elmore, None);

        let mut at = scratch.take_filled(nl_pins, 0.0);
        let mut at_early = scratch.take_filled(nl_pins, 0.0);
        let mut slew = scratch.take_filled(nl_pins, self.config.input_slew);

        // This borrow-free closure set mirrors the GPU kernels: every level is
        // a batch whose pins read only lower levels.
        for level in self.graph.levels() {
            (0..level.len())
                .into_par_iter()
                .map(|k| {
                    let p = level[k];
                    let (a, ae, s) = self.eval_pin(nl, p, &elmore, &at, &at_early, &slew, gamma);
                    Some((p.index(), a, ae, s))
                })
                .collect_into_vec(&mut scratch.level_results);
            for r in scratch.level_results.iter().flatten() {
                let &(i, a, ae, s) = r;
                at[i] = a;
                at_early[i] = ae;
                slew[i] = s;
            }
        }

        let mut slack = scratch.take_filled(nl_pins, f64::INFINITY);
        let mut hold_slack = scratch.take_filled(nl_pins, f64::INFINITY);
        self.compute_slacks_into(nl, &at, &at_early, &slew, &mut slack, &mut hold_slack);
        let mut rat = scratch.take_filled(nl_pins, f64::INFINITY);
        if with_rat {
            self.compute_rat_into(nl, &elmore, &at, &slew, &slack, &mut rat);
        }

        Analysis {
            at,
            at_early,
            slew,
            slack,
            hold_slack,
            rat,
            gamma,
            elmore,
            endpoints: self.endpoints.clone(),
        }
    }

    /// Setup/hold slack computation at the endpoints (stage 4 of Fig. 3);
    /// `slack`/`hold_slack` arrive pre-filled with `f64::INFINITY`.
    fn compute_slacks_into(
        &self,
        nl: &Netlist,
        at: &[f64],
        at_early: &[f64],
        slew: &[f64],
        slack: &mut [f64],
        hold_slack: &mut [f64],
    ) {
        for &p in self.graph.endpoints() {
            let i = p.index();
            match self.graph.role(p) {
                PinRole::RegisterData => {
                    let pin = nl.pin(p);
                    let cb = &self.binding.classes[nl.cell(pin.cell()).class().index()];
                    let setup = cb.setup_arc[pin.class_pin().index()]
                        .map(|a| self.binding.arc(a).constraint_value(slew[i]))
                        .unwrap_or(0.0);
                    let hold = cb.hold_arc[pin.class_pin().index()]
                        .map(|a| self.binding.arc(a).constraint_value(slew[i]))
                        .unwrap_or(0.0);
                    let rat = self.config.clock_arrival + self.clock_period - setup;
                    slack[i] = rat - at[i];
                    hold_slack[i] = at_early[i] - (self.config.clock_arrival + hold);
                }
                PinRole::PrimaryOutput => {
                    let rat = self.clock_period - self.output_margin[i];
                    slack[i] = rat - at[i];
                }
                _ => unreachable!("endpoints are register data pins or POs"),
            }
        }
    }

    /// Backward RAT propagation (min over fanout requirements), exact arc
    /// delays; gives every pin a slack = RAT − AT for reporting and for
    /// net-criticality-based weighting. `rat` arrives pre-filled with
    /// `f64::INFINITY`.
    fn compute_rat_into(
        &self,
        nl: &Netlist,
        elmore: &ElmoreArena,
        at: &[f64],
        slew: &[f64],
        slack: &[f64],
        rat: &mut [f64],
    ) {
        for &p in self.graph.endpoints() {
            rat[p.index()] = at[p.index()] + slack[p.index()];
        }
        for level in self.graph.levels().rev() {
            for &p in level {
                let i = p.index();
                if !rat[i].is_finite() {
                    continue;
                }
                match self.graph.role(p) {
                    PinRole::CombInput | PinRole::RegisterData | PinRole::PrimaryOutput => {
                        let net = nl.pin(p).net().expect("active sinks are connected");
                        if let Some(e) = elmore.net(net.index()) {
                            let driver = nl.net(net).pins()[0];
                            let node = self.pin_node_in_net[i] as usize;
                            let d = match self.config.wire_model {
                                WireModel::Elmore => e.delay_at(node),
                                WireModel::D2m => e.delay_d2m_at(node),
                            };
                            let cand = rat[i] - d;
                            if cand < rat[driver.index()] {
                                rat[driver.index()] = cand;
                            }
                        }
                    }
                    PinRole::CombOutput => {
                        let pin = nl.pin(p);
                        let cell = nl.cell(pin.cell());
                        let cb = &self.binding.classes[cell.class().index()];
                        let load = pin
                            .net()
                            .and_then(|n| elmore.net(n.index()))
                            .map_or(0.0, |e| e.root_load());
                        for &(arc_idx, from_cp) in cb.delay_arcs(pin.class_pin().index()) {
                            let from = cell.pins()[from_cp as usize];
                            if matches!(
                                self.graph.role(from),
                                PinRole::Unconnected | PinRole::Clock
                            ) {
                                continue;
                            }
                            let ev = self
                                .binding
                                .arc(arc_idx as usize)
                                .eval(slew[from.index()], load);
                            let cand = rat[i] - ev.delay;
                            if cand < rat[from.index()] {
                                rat[from.index()] = cand;
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Incremental re-analysis after moving a set of cells (the workload of
    /// the ICCAD-2015 *incremental* timing-driven placement contest the
    /// paper's benchmarks come from). Allocates its result vectors fresh;
    /// prefer [`Timer::analyze_incremental_into`] in a loop.
    ///
    /// Only the Elmore state of nets incident to `moved` cells is recomputed,
    /// and only pins in the transitive fan-out of those nets are
    /// re-propagated; everything else is copied from `prev`. Slacks and the
    /// full RAT sweep are recomputed (they are cheap relative to the forward
    /// arc evaluations). The result is bit-identical to a fresh
    /// [`Timer::analyze`] / [`Timer::analyze_smoothed`] at the same γ.
    ///
    /// `forest` must already reflect the new pin positions
    /// (e.g. via [`SteinerForest::update_positions`]); `prev` must come from
    /// the same γ mode.
    ///
    /// `recompute_rat = false` skips the backward RAT sweep and carries
    /// `prev`'s RATs over: WNS/TNS/slacks stay exact, but
    /// [`Analysis::pin_slack`] on non-endpoint pins reflects the *previous*
    /// state — the right trade for trial-move loops that only compare
    /// WNS/TNS.
    ///
    /// # Panics
    ///
    /// Panics if `prev` was produced for a different netlist (length
    /// mismatch).
    pub fn analyze_incremental(
        &self,
        nl: &Netlist,
        forest: &SteinerForest,
        prev: &Analysis,
        moved: &[CellId],
        recompute_rat: bool,
    ) -> Analysis {
        let mut scratch = AnalysisScratch::new();
        self.analyze_incremental_into(nl, forest, prev, moved, recompute_rat, &mut scratch)
    }

    /// [`Timer::analyze_incremental`] drawing every buffer from `scratch`.
    ///
    /// After consuming the result, hand the *previous* analysis back via
    /// [`AnalysisScratch::recycle`]; the two analyses then ping-pong through
    /// the pool and the steady-state loop performs no full-vector
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `prev` was produced for a different netlist (length
    /// mismatch).
    pub fn analyze_incremental_into(
        &self,
        nl: &Netlist,
        forest: &SteinerForest,
        prev: &Analysis,
        moved: &[CellId],
        recompute_rat: bool,
        scratch: &mut AnalysisScratch,
    ) -> Analysis {
        let nl_pins = self.pin_node_in_net.len();
        assert_eq!(prev.at.len(), nl_pins, "analysis from a different netlist");
        let gamma = prev.gamma;

        // 1. Dirty nets: every non-clock net touching a moved cell.
        scratch.net_dirty.clear();
        scratch.net_dirty.resize(forest.len(), false);
        scratch.dirty_nets.clear();
        for &c in moved {
            for &p in nl.cell(c).pins() {
                if let Some(net) = nl.pin(p).net() {
                    let ni = net.index();
                    if !scratch.net_dirty[ni] && !nl.net(net).is_clock() {
                        scratch.net_dirty[ni] = true;
                        scratch.dirty_nets.push(ni);
                    }
                }
            }
        }

        // 2. Elmore: copy every clean net's range from `prev`, recompute the
        //    dirty ones, in parallel over nets.
        let mut elmore = scratch.take_elmore();
        self.fill_elmore(forest, &mut elmore, Some((&prev.elmore, &scratch.net_dirty)));

        // 3. Seed dirty pins: drivers (their load changed) and sinks (their
        //    net delay changed) of dirty nets.
        scratch.pin_dirty.clear();
        scratch.pin_dirty.resize(nl_pins, false);
        for &ni in &scratch.dirty_nets {
            for &p in nl.net(NetId::new(ni)).pins() {
                scratch.pin_dirty[p.index()] = true;
            }
        }

        // 4. Forward frontier sweep: re-evaluate a pin iff it is seeded or
        //    any of its fan-ins is dirty; otherwise keep the value copied
        //    from `prev`. Dirtiness is marked in place, which is safe because
        //    a pin's predecessors all sit on strictly lower levels.
        let mut at = scratch.take_copied(&prev.at);
        let mut at_early = scratch.take_copied(&prev.at_early);
        let mut slew = scratch.take_copied(&prev.slew);
        for level in self.graph.levels() {
            for &p in level {
                let i = p.index();
                if scratch.pin_dirty[i] {
                    continue;
                }
                let pred_dirty = match self.graph.role(p) {
                    PinRole::CombInput | PinRole::RegisterData | PinRole::PrimaryOutput => {
                        let net = nl.pin(p).net().expect("active sinks are connected");
                        scratch.pin_dirty[nl.net(net).pins()[0].index()]
                    }
                    PinRole::CombOutput => {
                        let pin = nl.pin(p);
                        let cell = nl.cell(pin.cell());
                        let cb = &self.binding.classes[cell.class().index()];
                        cb.delay_arcs(pin.class_pin().index())
                            .iter()
                            .any(|&(_, from_cp)| {
                                scratch.pin_dirty[cell.pins()[from_cp as usize].index()]
                            })
                    }
                    _ => false,
                };
                if pred_dirty {
                    scratch.pin_dirty[i] = true;
                }
            }
            let dirty = &scratch.pin_dirty;
            (0..level.len())
                .into_par_iter()
                .map(|k| {
                    let p = level[k];
                    let i = p.index();
                    if !dirty[i] {
                        return None;
                    }
                    let (a, ae, s) = self.eval_pin(nl, p, &elmore, &at, &at_early, &slew, gamma);
                    Some((i, a, ae, s))
                })
                .collect_into_vec(&mut scratch.level_results);
            for r in scratch.level_results.iter().flatten() {
                let &(i, a, ae, s) = r;
                at[i] = a;
                at_early[i] = ae;
                slew[i] = s;
            }
        }

        let mut slack = scratch.take_filled(nl_pins, f64::INFINITY);
        let mut hold_slack = scratch.take_filled(nl_pins, f64::INFINITY);
        self.compute_slacks_into(nl, &at, &at_early, &slew, &mut slack, &mut hold_slack);
        let rat = if recompute_rat {
            let mut rat = scratch.take_filled(nl_pins, f64::INFINITY);
            self.compute_rat_into(nl, &elmore, &at, &slew, &slack, &mut rat);
            rat
        } else {
            scratch.take_copied(&prev.rat)
        };
        Analysis {
            at,
            at_early,
            slew,
            slack,
            hold_slack,
            rat,
            gamma,
            elmore,
            endpoints: self.endpoints.clone(),
        }
    }

    /// Forward evaluation of one pin given completed lower levels.
    #[allow(clippy::too_many_arguments)]
    fn eval_pin(
        &self,
        nl: &Netlist,
        p: PinId,
        elmore: &ElmoreArena,
        at: &[f64],
        at_early: &[f64],
        slew: &[f64],
        gamma: f64,
    ) -> (f64, f64, f64) {
        match self.graph.role(p) {
            PinRole::PrimaryInput => {
                let d = self.input_delay[p.index()];
                (d, d, self.config.input_slew)
            }
            PinRole::RegisterOutput => {
                // Launch: CK → Q arc at the ideal clock edge (Eq. 11 with the
                // clock pin as the only input).
                let pin = nl.pin(p);
                let cell = nl.cell(pin.cell());
                let cb = &self.binding.classes[cell.class().index()];
                let load = pin
                    .net()
                    .and_then(|n| elmore.net(n.index()))
                    .map_or(0.0, |e| e.root_load());
                let arcs = cb.delay_arcs(pin.class_pin().index());
                if arcs.is_empty() {
                    return (
                        self.config.clock_arrival,
                        self.config.clock_arrival,
                        self.config.input_slew,
                    );
                }
                let mut a_vals = F64Buf::<MAX_INLINE_ARCS>::new();
                let mut s_vals = F64Buf::<MAX_INLINE_ARCS>::new();
                for &(arc_idx, _) in arcs {
                    let e = self
                        .binding
                        .arc(arc_idx as usize)
                        .eval(self.config.clock_slew, load);
                    a_vals.push(self.config.clock_arrival + e.delay);
                    s_vals.push(e.slew);
                }
                let (a, s) = aggregate(a_vals.as_slice(), s_vals.as_slice(), gamma);
                let ae = a_vals.as_slice().iter().cloned().fold(f64::INFINITY, f64::min);
                (a, ae, s)
            }
            PinRole::CombInput | PinRole::RegisterData | PinRole::PrimaryOutput => {
                // Net arc from the driver (Eq. 9).
                let net = nl.pin(p).net().expect("active sink pins are connected");
                let Some(e) = elmore.net(net.index()) else {
                    return (0.0, 0.0, self.config.input_slew);
                };
                let driver = nl.net(net).pins()[0];
                let node = self.pin_node_in_net[p.index()] as usize;
                let d = match self.config.wire_model {
                    WireModel::Elmore => e.delay_at(node),
                    WireModel::D2m => e.delay_d2m_at(node),
                };
                let s_in = slew[driver.index()];
                let s = (s_in * s_in + e.impulse_sq_at(node)).sqrt().max(1e-3);
                (at[driver.index()] + d, at_early[driver.index()] + d, s)
            }
            PinRole::CombOutput => {
                // Cell arcs (Eq. 11).
                let pin = nl.pin(p);
                let cell = nl.cell(pin.cell());
                let cb = &self.binding.classes[cell.class().index()];
                let load = pin
                    .net()
                    .and_then(|n| elmore.net(n.index()))
                    .map_or(0.0, |e| e.root_load());
                let mut a_vals = F64Buf::<MAX_INLINE_ARCS>::new();
                let mut ae_vals = F64Buf::<MAX_INLINE_ARCS>::new();
                let mut s_vals = F64Buf::<MAX_INLINE_ARCS>::new();
                for &(arc_idx, from_cp) in cb.delay_arcs(pin.class_pin().index()) {
                    let from = cell.pins()[from_cp as usize];
                    if matches!(self.graph.role(from), PinRole::Unconnected | PinRole::Clock) {
                        continue;
                    }
                    let e = self
                        .binding
                        .arc(arc_idx as usize)
                        .eval(slew[from.index()], load);
                    a_vals.push(at[from.index()] + e.delay);
                    ae_vals.push(at_early[from.index()] + e.delay);
                    s_vals.push(e.slew);
                }
                if a_vals.is_empty() {
                    return (0.0, 0.0, self.config.input_slew);
                }
                let (a, s) = aggregate(a_vals.as_slice(), s_vals.as_slice(), gamma);
                let ae = ae_vals.as_slice().iter().cloned().fold(f64::INFINITY, f64::min);
                (a, ae, s)
            }
            PinRole::Clock | PinRole::Unconnected => (0.0, 0.0, self.config.input_slew),
        }
    }

    /// Backward sweep (stage 5 of Fig. 3): gradient of
    /// `f = −t1·TNSγ − t2·WNSγ` with respect to all pin/cell positions.
    /// Allocates the result fresh; prefer [`Timer::gradients_into`] in a
    /// loop.
    ///
    /// `analysis` should come from [`Timer::analyze_smoothed`] (with an exact
    /// analysis the LSE weights degenerate to hard argmax subgradients,
    /// which is mathematically valid but reintroduces the oscillation the
    /// paper's smoothing removes).
    ///
    /// # Panics
    ///
    /// Panics if the forest does not match the analysis (different net
    /// count).
    pub fn gradients(
        &self,
        nl: &Netlist,
        analysis: &Analysis,
        forest: &SteinerForest,
        t1: f64,
        t2: f64,
    ) -> PositionGradients {
        let mut scratch = AnalysisScratch::new();
        let mut out = PositionGradients::default();
        self.gradients_into(nl, analysis, forest, t1, t2, &mut scratch, &mut out);
        out
    }

    /// [`Timer::gradients`] writing into a caller-owned result and drawing
    /// all intermediate buffers (adjoints, Elmore seeds, softmax weights)
    /// from `scratch` — the incremental-aware gradient entry point: reuse
    /// one `scratch`/`out` pair across iterations and nothing pin- or
    /// net-sized is reallocated.
    ///
    /// # Panics
    ///
    /// Panics if the forest does not match the analysis (different net
    /// count).
    #[allow(clippy::too_many_arguments)]
    pub fn gradients_into(
        &self,
        nl: &Netlist,
        analysis: &Analysis,
        forest: &SteinerForest,
        t1: f64,
        t2: f64,
        scratch: &mut AnalysisScratch,
        out: &mut PositionGradients,
    ) {
        let n_pins = analysis.at.len();
        assert_eq!(forest.len(), analysis.elmore.num_nets(), "forest/analysis mismatch");
        let gamma = if analysis.gamma > 0.0 { analysis.gamma } else { self.config.gamma };

        let AnalysisScratch {
            g_at,
            g_slew,
            elmore_grads: eg,
            endpoint_slacks,
            endpoint_weights,
            arc_inputs,
            arc_evals,
            ..
        } = scratch;
        g_at.clear();
        g_at.resize(n_pins, 0.0);
        g_slew.clear();
        g_slew.resize(n_pins, 0.0);

        // --- endpoint seeds ---------------------------------------------------
        endpoint_slacks.clear();
        endpoint_slacks.extend(analysis.endpoints.iter().map(|&p| analysis.slack[p.index()]));
        let objective;
        if endpoint_slacks.is_empty() {
            objective = 0.0;
        } else {
            let tns_g = endpoint_slacks.iter().map(|&s| smooth_neg(s, gamma)).sum::<f64>();
            endpoint_weights.clear();
            endpoint_weights.resize(endpoint_slacks.len(), 0.0);
            let wns_g = lse_min_weights_into(endpoint_slacks, gamma, endpoint_weights);
            objective = -t1 * tns_g - t2 * wns_g;
            for (k, &p) in analysis.endpoints.iter().enumerate() {
                let i = p.index();
                let dslack =
                    -t1 * smooth_neg_grad(endpoint_slacks[k], gamma) - t2 * endpoint_weights[k];
                // slack = rat − at  ⇒  ∂f/∂at = −∂f/∂slack.
                g_at[i] += -dslack;
                // Register setup margin depends on the data slew:
                // slack = … − setup(slew) − at.
                if self.graph.role(p) == PinRole::RegisterData {
                    let pin = nl.pin(p);
                    let cb = &self.binding.classes[nl.cell(pin.cell()).class().index()];
                    if let Some(arc_idx) = cb.setup_arc[pin.class_pin().index()] {
                        if let Some(t) = &self.binding.arc(arc_idx).constraint {
                            let dsetup = t.value_grad(analysis.slew[i]).1;
                            g_slew[i] += dslack * (-dsetup);
                        }
                    }
                }
            }
        }

        // --- reverse level sweep (Eqs. 10, 12) --------------------------------
        let arena = &analysis.elmore;
        eg.reset(arena);

        for level in self.graph.levels().rev() {
            for &p in level {
                let i = p.index();
                if g_at[i] == 0.0 && g_slew[i] == 0.0 {
                    continue;
                }
                match self.graph.role(p) {
                    PinRole::CombInput | PinRole::RegisterData | PinRole::PrimaryOutput => {
                        // Net arc backward (Eq. 10).
                        let net = nl.pin(p).net().expect("active sinks are connected");
                        let Some(e) = arena.net(net.index()) else { continue };
                        let driver = nl.net(net).pins()[0];
                        let node = self.pin_node_in_net[i] as usize;
                        let k = arena.base(net.index()) + node;
                        g_at[driver.index()] += g_at[i];
                        let s_v = analysis.slew[i];
                        let s_u = analysis.slew[driver.index()];
                        if s_v > 0.0 && e.impulse_sq_at(node) > 0.0 {
                            g_slew[driver.index()] += (s_u / s_v) * g_slew[i];
                        } else {
                            // Degenerate slew merge: all gradient to the driver.
                            g_slew[driver.index()] += g_slew[i];
                        }
                        match self.config.wire_model {
                            WireModel::Elmore => eg.grad_delay[k] += g_at[i],
                            WireModel::D2m => {
                                let (d_dm1, d_dbeta) = e.d2m_partials(node);
                                eg.grad_delay[k] += g_at[i] * d_dm1;
                                eg.grad_beta[k] += g_at[i] * d_dbeta;
                            }
                        }
                        if s_v > 0.0 {
                            eg.grad_impulse_sq[k] += g_slew[i] / (2.0 * s_v);
                        }
                    }
                    PinRole::CombOutput => {
                        self.backprop_cell_output(
                            nl,
                            p,
                            analysis,
                            gamma,
                            g_at,
                            g_slew,
                            &mut eg.grad_root_load,
                            arc_inputs,
                        );
                    }
                    _ => {}
                }
            }
        }
        // Register launch pins: AT(Q) depends on the Q net's load (Eq. 12e
        // applied to the CK→Q arc).
        for &p in &self.launch_pins {
            let i = p.index();
            if g_at[i] == 0.0 && g_slew[i] == 0.0 {
                continue;
            }
            let pin = nl.pin(p);
            let cell = nl.cell(pin.cell());
            let cb = &self.binding.classes[cell.class().index()];
            let Some(net) = pin.net() else { continue };
            let Some(e) = arena.net(net.index()) else { continue };
            let load = e.root_load();
            let arcs = cb.delay_arcs(pin.class_pin().index());
            if arcs.is_empty() {
                continue;
            }
            // Weights over the (usually single) CK→Q arcs.
            arc_evals.clear();
            let mut a_vals = F64Buf::<MAX_INLINE_ARCS>::new();
            let mut s_vals = F64Buf::<MAX_INLINE_ARCS>::new();
            for &(a, _) in arcs {
                let ev = self.binding.arc(a as usize).eval(self.config.clock_slew, load);
                arc_evals.push(ev);
                a_vals.push(self.config.clock_arrival + ev.delay);
                s_vals.push(ev.slew);
            }
            let mut wa = F64Buf::<MAX_INLINE_ARCS>::new();
            let mut ws = F64Buf::<MAX_INLINE_ARCS>::new();
            weights_into(a_vals.as_slice(), gamma, &mut wa);
            weights_into(s_vals.as_slice(), gamma, &mut ws);
            let mut g_load = 0.0;
            for (k, ev) in arc_evals.iter().enumerate() {
                g_load += ev.d_delay_d_load * wa.as_slice()[k] * g_at[i];
                g_load += ev.d_slew_d_load * ws.as_slice()[k] * g_slew[i];
            }
            eg.grad_root_load[net.index()] += g_load;
        }

        // --- Elmore backward per net (Eq. 8), rayon-parallel -------------------
        eg.backward(arena, forest);

        // Serial merge in net and pin order: the sums do not depend on the
        // pool width.
        for buf in [&mut out.pin_grad_x, &mut out.pin_grad_y] {
            buf.clear();
            buf.resize(n_pins, 0.0);
        }
        for ni in 0..forest.len() {
            let Some((gx, gy)) = eg.pin_grads(arena, ni) else { continue };
            for (k, &p) in nl.net(NetId::new(ni)).pins().iter().enumerate() {
                out.pin_grad_x[p.index()] += gx[k];
                out.pin_grad_y[p.index()] += gy[k];
            }
        }

        for buf in [&mut out.cell_grad_x, &mut out.cell_grad_y] {
            buf.clear();
            buf.resize(nl.num_cells(), 0.0);
        }
        for p in nl.pin_ids() {
            let c = nl.pin(p).cell().index();
            out.cell_grad_x[c] += out.pin_grad_x[p.index()];
            out.cell_grad_y[c] += out.pin_grad_y[p.index()];
        }
        out.objective = objective;
    }

    /// Eq. (12): distributes a combinational output pin's gradient to its
    /// fan-in pins and to the load seed of its own net (`grad_root_load`,
    /// per net). `inputs` is a reusable staging buffer for the fan-in arc
    /// evaluations.
    #[allow(clippy::too_many_arguments)]
    fn backprop_cell_output(
        &self,
        nl: &Netlist,
        p: PinId,
        analysis: &Analysis,
        gamma: f64,
        g_at: &mut [f64],
        g_slew: &mut [f64],
        grad_root_load: &mut [f64],
        inputs: &mut Vec<(PinId, ArcEval)>,
    ) {
        let i = p.index();
        let pin = nl.pin(p);
        let cell = nl.cell(pin.cell());
        let cb = &self.binding.classes[cell.class().index()];
        let net = pin.net();
        let load = net.and_then(|n| analysis.elmore(n)).map_or(0.0, |e| e.root_load());
        inputs.clear();
        for &(arc_idx, from_cp) in cb.delay_arcs(pin.class_pin().index()) {
            let from = cell.pins()[from_cp as usize];
            if matches!(self.graph.role(from), PinRole::Unconnected | PinRole::Clock) {
                continue;
            }
            let ev = self
                .binding
                .arc(arc_idx as usize)
                .eval(analysis.slew[from.index()], load);
            inputs.push((from, ev));
        }
        if inputs.is_empty() {
            return;
        }
        let mut a_vals = F64Buf::<MAX_INLINE_ARCS>::new();
        let mut s_vals = F64Buf::<MAX_INLINE_ARCS>::new();
        for (from, ev) in inputs.iter() {
            a_vals.push(analysis.at[from.index()] + ev.delay);
            s_vals.push(ev.slew);
        }
        let mut wa = F64Buf::<MAX_INLINE_ARCS>::new();
        let mut ws = F64Buf::<MAX_INLINE_ARCS>::new();
        weights_into(a_vals.as_slice(), gamma, &mut wa);
        weights_into(s_vals.as_slice(), gamma, &mut ws);
        let mut g_load = 0.0;
        for (k, (from, ev)) in inputs.iter().enumerate() {
            let g_delay_k = wa.as_slice()[k] * g_at[i]; // Eq. 12b
            let g_slew_k = ws.as_slice()[k] * g_slew[i]; // Eq. 12c
            g_at[from.index()] += wa.as_slice()[k] * g_at[i]; // Eq. 12a
            g_slew[from.index()] +=
                ev.d_delay_d_slew * g_delay_k + ev.d_slew_d_slew * g_slew_k; // Eq. 12d
            g_load += ev.d_delay_d_load * g_delay_k + ev.d_slew_d_load * g_slew_k;
            // Eq. 12e
        }
        if let Some(n) = net {
            grad_root_load[n.index()] += g_load;
        }
    }
}

/// LSE softmax weights, or hard one-hot argmax weights when `gamma == 0`
/// (the exact-mode subgradient), written into `out` without allocating.
fn weights_into(vals: &[f64], gamma: f64, out: &mut F64Buf<MAX_INLINE_ARCS>) {
    out.resize_zeroed(vals.len());
    if gamma > 0.0 {
        lse_max_weights_into(vals, gamma, out.as_mut_slice());
    } else {
        let mut best = 0usize;
        for (i, &v) in vals.iter().enumerate() {
            if v > vals[best] {
                best = i;
            }
        }
        out.as_mut_slice()[best] = 1.0;
    }
}

/// Aggregates arrival candidates and slews with smoothed or hard max.
fn aggregate(a_vals: &[f64], s_vals: &[f64], gamma: f64) -> (f64, f64) {
    if gamma > 0.0 {
        (lse_max(a_vals, gamma), lse_max(s_vals, gamma))
    } else {
        (
            a_vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            s_vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        )
    }
}
