//! Differentiable Elmore wire-delay model (§3.4.2, Eqs. 7–8, Fig. 5).
//!
//! Forward: four dynamic-programming passes over the net's Steiner tree,
//! alternating bottom-up and top-down, computing `Load`, `Delay`, `LDelay`,
//! `Beta` and the slew `Impulse`. Backward: four passes in the exact reverse
//! order computing the adjoints, then the chain rule through
//! `Res = r·len(edge)` and `Cap = pin_cap + (c/2)·Σ len(adjacent edges)` down
//! to node positions.
//!
//! Both passes are written once, over per-node slices ([`Elmore`] is generic
//! over its storage). The timer runs them over one flat arena per analysis
//! (every net's nodes side by side, one array per quantity); [`ElmoreNet`]
//! is the owning single-net form for one-off use.
//!
//! Note on Eq. (8) of the paper: equations (8c) and (8f) as printed contain
//! two apparent typos (`+2·Delay·∇Impulse²` should carry a minus sign because
//! `Impulse² = 2·Beta − Delay²`, and `Beta(u)·∇LDelay(u)` in (8f) should be
//! `LDelay(u)·∇Beta(u)`, the adjoint of `Beta(u) = Beta(fa) + Res·LDelay(u)`).
//! This implementation uses the mathematically consistent forms and validates
//! them against finite differences in the test suite.

use dtp_netlist::NetId;
use dtp_rsmt::{SteinerForest, SteinerTree};
use rayon::prelude::*;

/// Elmore state of one net: the forward quantities of Eq. (7), indexed by
/// tree node (pins first, Steiner points after). `S` is the per-quantity
/// storage: owned vectors ([`ElmoreNet`]), borrowed slices of an analysis'
/// arena ([`ElmoreView`]), or mutable slices while the forward pass fills it.
#[derive(Clone, Debug, Default)]
pub struct Elmore<S> {
    /// Node capacitance: pin cap + half the wire cap of adjacent edges (fF).
    cap: S,
    /// Resistance of the edge from the node to its parent (kΩ); 0 at root.
    res: S,
    /// Downstream capacitance (Eq. 7a).
    load: S,
    /// Elmore delay from the driver (Eq. 7b), ps.
    delay: S,
    /// Load-weighted delay (Eq. 7c).
    ldelay: S,
    /// Second moment accumulator (Eq. 7d).
    beta: S,
    /// Raw `2·Beta − Delay²` before clamping (ps²); negative values are
    /// clamped to 0 in [`Elmore::impulse_at`] with a dead gradient.
    impulse_sq_raw: S,
    /// Wire resistance per micron used by the forward pass.
    r_per_um: f64,
    /// Wire capacitance per micron used by the forward pass.
    c_per_um: f64,
}

/// One net's Elmore state with owned storage.
pub type ElmoreNet = Elmore<Vec<f64>>;

/// One net's Elmore state borrowed from an analysis (see
/// [`crate::Analysis::elmore`]).
pub type ElmoreView<'a> = Elmore<&'a [f64]>;

/// Gradient seeds flowing into a net's Elmore backward pass.
#[derive(Clone, Debug)]
pub struct ElmoreSeeds {
    /// ∂f/∂Delay(node), nonzero at sink pin nodes (from Eq. 10b).
    pub grad_delay: Vec<f64>,
    /// ∂f/∂Impulse²(node), nonzero at sink pin nodes (from Eq. 10d).
    pub grad_impulse_sq: Vec<f64>,
    /// ∂f/∂Beta(node) — direct second-moment sensitivity, used by delay
    /// metrics beyond Elmore (e.g. [`Elmore::delay_d2m_at`]).
    pub grad_beta: Vec<f64>,
    /// ∂f/∂Load(root) — the driving-cell arcs' load sensitivity (Eq. 12e).
    pub grad_root_load: f64,
}

impl ElmoreSeeds {
    /// Zero seeds for a tree with `n` nodes.
    pub fn zeros(n: usize) -> Self {
        ElmoreSeeds {
            grad_delay: vec![0.0; n],
            grad_impulse_sq: vec![0.0; n],
            grad_beta: vec![0.0; n],
            grad_root_load: 0.0,
        }
    }

    fn as_slices(&self) -> SeedSlices<'_> {
        SeedSlices {
            delay: &self.grad_delay,
            impulse_sq: &self.grad_impulse_sq,
            beta: &self.grad_beta,
            root_load: self.grad_root_load,
        }
    }
}

/// Borrowed backward seeds of one net (the fields of [`ElmoreSeeds`]).
#[derive(Clone, Copy)]
struct SeedSlices<'a> {
    delay: &'a [f64],
    impulse_sq: &'a [f64],
    beta: &'a [f64],
    root_load: f64,
}

/// Per-node adjoint buffers of one net's backward pass; `x`/`y` receive
/// ∂f/∂(node position).
struct Adjoints<'a> {
    beta: &'a mut [f64],
    ldelay: &'a mut [f64],
    delay: &'a mut [f64],
    load: &'a mut [f64],
    x: &'a mut [f64],
    y: &'a mut [f64],
}

impl ElmoreNet {
    /// Runs the forward Elmore passes (Eq. 7) over `tree`.
    ///
    /// `pin_caps[i]` is the input capacitance of pin node `i`; the driver's
    /// own entry is ignored (a driver does not load itself). `r`/`c` are the
    /// per-micron wire resistance and capacitance.
    ///
    /// # Panics
    ///
    /// Panics if `pin_caps.len() != tree.num_pins()`.
    pub fn forward(tree: &SteinerTree, pin_caps: &[f64], r: f64, c: f64) -> ElmoreNet {
        let n = tree.num_nodes();
        let mut e = Elmore {
            cap: vec![0.0; n],
            res: vec![0.0; n],
            load: vec![0.0; n],
            delay: vec![0.0; n],
            ldelay: vec![0.0; n],
            beta: vec![0.0; n],
            impulse_sq_raw: vec![0.0; n],
            r_per_um: r,
            c_per_um: c,
        };
        e.compute(tree, pin_caps);
        e
    }
}

impl<S: AsMut<[f64]>> Elmore<S> {
    /// The forward kernel: overwrites every node quantity from `tree`.
    fn compute(&mut self, tree: &SteinerTree, pin_caps: &[f64]) {
        assert_eq!(pin_caps.len(), tree.num_pins());
        let (r, c) = (self.r_per_um, self.c_per_um);
        let cap = self.cap.as_mut();
        let res = self.res.as_mut();
        let load = self.load.as_mut();
        let delay = self.delay.as_mut();
        let ldelay = self.ldelay.as_mut();
        let beta = self.beta.as_mut();
        let impulse_sq_raw = self.impulse_sq_raw.as_mut();
        let n = tree.num_nodes();
        assert_eq!(cap.len(), n, "storage sized for a different tree");
        let order = tree.preorder();

        cap.fill(0.0);
        res.fill(0.0);
        cap[1..pin_caps.len()].copy_from_slice(&pin_caps[1..]);
        for i in 0..n {
            if let Some(p) = tree.parent_of(i) {
                let len = tree.edge_length(i);
                res[i] = r * len;
                let half = 0.5 * c * len;
                cap[i] += half;
                cap[p] += half;
            }
        }

        // Pass 1 (bottom-up): Load.
        load.copy_from_slice(cap);
        for &u in order.iter().rev() {
            let u = u as usize;
            if let Some(p) = tree.parent_of(u) {
                load[p] += load[u];
            }
        }
        // Pass 2 (top-down): Delay.
        delay.fill(0.0);
        for &u in order.iter() {
            let u = u as usize;
            if let Some(p) = tree.parent_of(u) {
                delay[u] = delay[p] + res[u] * load[u];
            }
        }
        // Pass 3 (bottom-up): LDelay.
        for ((ld, &cp), &d) in ldelay.iter_mut().zip(&*cap).zip(&*delay) {
            *ld = cp * d;
        }
        for &u in order.iter().rev() {
            let u = u as usize;
            if let Some(p) = tree.parent_of(u) {
                ldelay[p] += ldelay[u];
            }
        }
        // Pass 4 (top-down): Beta.
        beta.fill(0.0);
        for &u in order.iter() {
            let u = u as usize;
            if let Some(p) = tree.parent_of(u) {
                beta[u] = beta[p] + res[u] * ldelay[u];
            }
        }
        for ((imp, &b), &d) in impulse_sq_raw.iter_mut().zip(&*beta).zip(&*delay) {
            *imp = 2.0 * b - d * d;
        }
    }
}

impl<S: AsRef<[f64]>> Elmore<S> {
    /// Number of tree nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.delay.as_ref().len()
    }

    /// Elmore delay from the driver to `node`, ps (Eq. 7b).
    #[inline]
    pub fn delay_at(&self, node: usize) -> f64 {
        self.delay.as_ref()[node]
    }

    /// Impulse (slew component) at `node`, ps (Eq. 7e), clamped at 0.
    #[inline]
    pub fn impulse_at(&self, node: usize) -> f64 {
        self.impulse_sq_at(node).sqrt()
    }

    /// Squared impulse at `node` (clamped at 0).
    #[inline]
    pub fn impulse_sq_at(&self, node: usize) -> f64 {
        self.impulse_sq_raw.as_ref()[node].max(0.0)
    }

    /// Total capacitive load seen by the driver (Eq. 7a at the root).
    #[inline]
    pub fn root_load(&self) -> f64 {
        self.load.as_ref()[0]
    }

    /// Downstream capacitance at `node` (Eq. 7a).
    #[inline]
    pub fn load_at(&self, node: usize) -> f64 {
        self.load.as_ref()[node]
    }

    /// Second-moment accumulator at `node` (Eq. 7d) — exposed for tests and
    /// diagnostics of the slew model.
    #[inline]
    pub fn beta_at(&self, node: usize) -> f64 {
        self.beta.as_ref()[node]
    }

    /// D2M ("delay with two moments") wire delay at `node`:
    /// `ln 2 · m1² / √m2` with `m1 = Delay`, `m2 = 2·Beta`. D2M corrects
    /// Elmore's pessimism on far-from-driver sinks and is the kind of
    /// "other, more complex interconnect delay model" §3.4.2 claims the
    /// framework generalizes to. Falls back to Elmore when the second moment
    /// degenerates (near-zero wire).
    #[inline]
    pub fn delay_d2m_at(&self, node: usize) -> f64 {
        let m1 = self.delay_at(node);
        let m2 = 2.0 * self.beta_at(node);
        if m2 > 1e-12 {
            std::f64::consts::LN_2 * m1 * m1 / m2.sqrt()
        } else {
            m1
        }
    }

    /// Partial derivatives of [`Elmore::delay_d2m_at`] with respect to
    /// `(Delay, Beta)` at `node`, for seeding the backward pass.
    #[inline]
    pub fn d2m_partials(&self, node: usize) -> (f64, f64) {
        let m1 = self.delay_at(node);
        let m2 = 2.0 * self.beta_at(node);
        if m2 > 1e-12 {
            let d_dm1 = 2.0 * std::f64::consts::LN_2 * m1 / m2.sqrt();
            // ∂/∂Beta = ∂/∂m2 · 2 = −ln2·m1²·m2^(−3/2)
            let d_dbeta = -std::f64::consts::LN_2 * m1 * m1 * m2.powf(-1.5);
            (d_dm1, d_dbeta)
        } else {
            (1.0, 0.0)
        }
    }

    /// Runs the backward passes (Eq. 8, lower half of Fig. 5) and the chain
    /// rule to node positions.
    ///
    /// Returns `(grad_x, grad_y)`: ∂f/∂(node position) per tree node. Use
    /// [`SteinerTree::scatter_gradient`] to fold Steiner-point entries onto
    /// pins.
    ///
    /// # Panics
    ///
    /// Panics if the seed vectors are not `tree.num_nodes()` long.
    pub fn backward(&self, tree: &SteinerTree, seeds: &ElmoreSeeds) -> (Vec<f64>, Vec<f64>) {
        let mut adj = [(); 6].map(|_| vec![0.0; tree.num_nodes()]);
        let [beta, ldelay, delay, load, x, y] = &mut adj;
        self.backward_into(tree, seeds.as_slices(), Adjoints { beta, ldelay, delay, load, x, y });
        let [_, _, _, _, x, y] = adj;
        (x, y)
    }

    /// The backward kernel: overwrites every adjoint in `adj`.
    fn backward_into(&self, tree: &SteinerTree, seeds: SeedSlices<'_>, adj: Adjoints<'_>) {
        let n = tree.num_nodes();
        assert_eq!(self.num_nodes(), n, "Elmore state of a different tree");
        assert_eq!(seeds.delay.len(), n);
        assert_eq!(seeds.impulse_sq.len(), n);
        let (cap, res, load) = (self.cap.as_ref(), self.res.as_ref(), self.load.as_ref());
        let (delay, ldelay) = (self.delay.as_ref(), self.ldelay.as_ref());
        let impulse_sq_raw = self.impulse_sq_raw.as_ref();
        let Adjoints { beta: g_beta, ldelay: g_ldelay, delay: g_delay, load: g_load, x, y } = adj;
        let order = tree.preorder();

        // Impulse clamping: a node whose raw impulse² went negative has a
        // dead gradient through the impulse path.
        let g_imp = |i: usize| if impulse_sq_raw[i] > 0.0 { seeds.impulse_sq[i] } else { 0.0 };

        // Reverse pass 1 (bottom-up): ∇Beta (Eq. 8a), plus any direct Beta
        // seeds from non-Elmore delay metrics.
        for (i, g) in g_beta.iter_mut().enumerate() {
            *g = 2.0 * g_imp(i) + seeds.beta[i];
        }
        for &u in order.iter().rev() {
            let u = u as usize;
            if let Some(p) = tree.parent_of(u) {
                g_beta[p] += g_beta[u];
            }
        }
        // Reverse pass 2 (top-down): ∇LDelay (Eq. 8b). The root's Res is 0,
        // so its adjoint is 0 without special-casing.
        for ((g, &r), &gb) in g_ldelay.iter_mut().zip(res).zip(&*g_beta) {
            *g = r * gb;
        }
        for &u in order.iter() {
            let u = u as usize;
            if let Some(p) = tree.parent_of(u) {
                g_ldelay[u] += g_ldelay[p];
            }
        }

        // Reverse pass 3 (bottom-up): ∇Delay (Eq. 8c with the corrected
        // −2·Delay sign; see module docs).
        for (i, g) in g_delay.iter_mut().enumerate() {
            *g = seeds.delay[i] - 2.0 * delay[i] * g_imp(i) + cap[i] * g_ldelay[i];
        }
        for &u in order.iter().rev() {
            let u = u as usize;
            if let Some(p) = tree.parent_of(u) {
                g_delay[p] += g_delay[u];
            }
        }
        // Reverse pass 4 (top-down): ∇Load (Eq. 8d) with the root seed from
        // the driving cell's arcs.
        g_load.fill(0.0);
        g_load[0] = seeds.root_load;
        for &u in order.iter() {
            let u = u as usize;
            if let Some(p) = tree.parent_of(u) {
                g_load[u] = res[u] * g_delay[u] + g_load[p];
            }
        }

        // Local adjoints ∇Cap (Eq. 8e) and ∇Res (Eq. 8f corrected), chained
        // to edge lengths and node positions. The wire parameters are
        // recoverable from the stored res/cap arrays only jointly, so we
        // recompute lengths from the tree geometry.
        let g_cap = |i: usize| g_load[i] + delay[i] * g_ldelay[i];
        x.fill(0.0);
        y.fill(0.0);
        for u in 0..n {
            let Some(p) = tree.parent_of(u) else { continue };
            let g_res = load[u] * g_delay[u] + ldelay[u] * g_beta[u];
            let g_len = self.r_per_um * g_res + 0.5 * self.c_per_um * (g_cap(u) + g_cap(p));
            let a = tree.node_pos(u);
            let b = tree.node_pos(p);
            let sx = (a.x - b.x).signum_or_zero();
            let sy = (a.y - b.y).signum_or_zero();
            x[u] += sx * g_len;
            x[p] -= sx * g_len;
            y[u] += sy * g_len;
            y[p] -= sy * g_len;
        }
    }
}

/// The Elmore state of every net of one analysis, structure-of-arrays: one
/// array per quantity, net `i`'s nodes at `offsets[i]..offsets[i + 1]`
/// (empty for clock nets, which have no tree). The offsets are re-derived
/// from the forest on every fill, so a topology rebuild that changes a net's
/// node count only shifts the ranges after it.
#[derive(Clone, Debug, Default)]
pub(crate) struct ElmoreArena {
    offsets: Vec<u32>,
    planes: Elmore<Vec<f64>>,
}

impl ElmoreArena {
    /// Number of net slots.
    pub(crate) fn num_nets(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Index of net `ni`'s node 0 in the flat arrays.
    #[inline]
    pub(crate) fn base(&self, ni: usize) -> usize {
        self.offsets[ni] as usize
    }

    /// Net `ni`'s Elmore state, `None` for clock nets.
    #[inline]
    pub(crate) fn net(&self, ni: usize) -> Option<ElmoreView<'_>> {
        let (lo, hi) = (self.offsets[ni] as usize, self.offsets[ni + 1] as usize);
        let p = &self.planes;
        (lo < hi).then(|| Elmore {
            cap: &p.cap[lo..hi],
            res: &p.res[lo..hi],
            load: &p.load[lo..hi],
            delay: &p.delay[lo..hi],
            ldelay: &p.ldelay[lo..hi],
            beta: &p.beta[lo..hi],
            impulse_sq_raw: &p.impulse_sq_raw[lo..hi],
            r_per_um: p.r_per_um,
            c_per_um: p.c_per_um,
        })
    }

    /// Runs the forward pass of every net of `forest` into the arena, in
    /// parallel over nets. `net_caps(i)` are net `i`'s pin capacitances.
    /// With `reuse = Some((prev, dirty))`, every net not flagged in `dirty`
    /// whose node count is unchanged copies its range from `prev` instead.
    pub(crate) fn fill<'c>(
        &mut self,
        forest: &SteinerForest,
        r: f64,
        c: f64,
        net_caps: impl Fn(usize) -> &'c [f64] + Sync,
        reuse: Option<(&ElmoreArena, &[bool])>,
    ) {
        self.offsets.clear();
        self.offsets.push(0);
        let mut total = 0usize;
        for ni in 0..forest.len() {
            total += forest.tree(NetId::new(ni)).map_or(0, SteinerTree::num_nodes);
            self.offsets.push(u32::try_from(total).expect("fewer than 2^32 tree nodes"));
        }
        let ElmoreArena { offsets, planes } = self;
        planes.r_per_um = r;
        planes.c_per_um = c;
        let Elmore { cap, res, load, delay, ldelay, beta, impulse_sq_raw, .. } = planes;
        for v in [
            &mut *cap,
            &mut *res,
            &mut *load,
            &mut *delay,
            &mut *ldelay,
            &mut *beta,
            &mut *impulse_sq_raw,
        ] {
            v.resize(total, 0.0);
        }
        let b: &[u32] = offsets;
        cap.par_chunks_mut_at(b)
            .zip(res.par_chunks_mut_at(b))
            .zip(load.par_chunks_mut_at(b))
            .zip(delay.par_chunks_mut_at(b))
            .zip(ldelay.par_chunks_mut_at(b))
            .zip(beta.par_chunks_mut_at(b))
            .zip(impulse_sq_raw.par_chunks_mut_at(b))
            .enumerate()
            .for_each(|(ni, ((((((cap, res), load), delay), ldelay), beta), impulse_sq_raw))| {
                let Some(tree) = forest.tree(NetId::new(ni)) else { return };
                let mut out = Elmore {
                    cap,
                    res,
                    load,
                    delay,
                    ldelay,
                    beta,
                    impulse_sq_raw,
                    r_per_um: r,
                    c_per_um: c,
                };
                let kept = reuse
                    .filter(|(_, dirty)| !dirty[ni])
                    .and_then(|(prev, _)| prev.net(ni))
                    .filter(|p| p.num_nodes() == tree.num_nodes());
                match kept {
                    Some(p) => out.copy_from(&p),
                    None => out.compute(tree, net_caps(ni)),
                }
            });
    }
}

impl Elmore<&mut [f64]> {
    fn copy_from(&mut self, src: &ElmoreView<'_>) {
        self.cap.copy_from_slice(src.cap);
        self.res.copy_from_slice(src.res);
        self.load.copy_from_slice(src.load);
        self.delay.copy_from_slice(src.delay);
        self.ldelay.copy_from_slice(src.ldelay);
        self.beta.copy_from_slice(src.beta);
        self.impulse_sq_raw.copy_from_slice(src.impulse_sq_raw);
    }
}

/// Flat backward state of every net, laid out like an [`ElmoreArena`]: the
/// seeds the reverse level sweep accumulates, the node adjoints, and each
/// net's position gradient. Lives in the analysis scratch, so a gradient
/// call allocates nothing once it has seen the design's node count.
#[derive(Debug, Default)]
pub(crate) struct ElmoreGrads {
    /// ∂f/∂Delay per node.
    pub(crate) grad_delay: Vec<f64>,
    /// ∂f/∂Impulse² per node.
    pub(crate) grad_impulse_sq: Vec<f64>,
    /// ∂f/∂Beta per node.
    pub(crate) grad_beta: Vec<f64>,
    /// ∂f/∂Load(root) per net.
    pub(crate) grad_root_load: Vec<f64>,
    adj_beta: Vec<f64>,
    adj_ldelay: Vec<f64>,
    adj_delay: Vec<f64>,
    adj_load: Vec<f64>,
    /// ∂f/∂x per node; after [`ElmoreGrads::backward`], per pin in each
    /// net's first `num_pins` slots.
    adj_x: Vec<f64>,
    /// ∂f/∂y per node, folded like `adj_x`.
    adj_y: Vec<f64>,
    /// Whether a net had a nonzero seed (and so ran its backward pass).
    active: Vec<bool>,
}

impl ElmoreGrads {
    /// Zeros the seeds and sizes every buffer for `arena`'s layout (the
    /// backward kernel overwrites the adjoints of every net it runs).
    pub(crate) fn reset(&mut self, arena: &ElmoreArena) {
        let nodes = arena.planes.delay.len();
        for v in [&mut self.grad_delay, &mut self.grad_impulse_sq, &mut self.grad_beta] {
            v.clear();
            v.resize(nodes, 0.0);
        }
        for v in [
            &mut self.adj_beta,
            &mut self.adj_ldelay,
            &mut self.adj_delay,
            &mut self.adj_load,
            &mut self.adj_x,
            &mut self.adj_y,
        ] {
            v.resize(nodes, 0.0);
        }
        self.grad_root_load.clear();
        self.grad_root_load.resize(arena.num_nets(), 0.0);
        self.active.clear();
        self.active.resize(arena.num_nets(), false);
    }

    /// Runs the Elmore backward pass (Eq. 8) of every net with a nonzero
    /// seed, in parallel over nets, then folds each net's Steiner-point
    /// gradients onto its pins (Fig. 4, as [`SteinerTree::scatter_gradient`]
    /// does).
    pub(crate) fn backward(&mut self, arena: &ElmoreArena, forest: &SteinerForest) {
        let ElmoreGrads {
            grad_delay,
            grad_impulse_sq,
            grad_beta,
            grad_root_load,
            adj_beta,
            adj_ldelay,
            adj_delay,
            adj_load,
            adj_x,
            adj_y,
            active,
        } = self;
        let b: &[u32] = &arena.offsets;
        adj_beta
            .par_chunks_mut_at(b)
            .zip(adj_ldelay.par_chunks_mut_at(b))
            .zip(adj_delay.par_chunks_mut_at(b))
            .zip(adj_load.par_chunks_mut_at(b))
            .zip(adj_x.par_chunks_mut_at(b))
            .zip(adj_y.par_chunks_mut_at(b))
            .zip(active.par_chunks_mut(1))
            .enumerate()
            .for_each(|(ni, ((((((beta, ldelay), delay), load), x), y), active))| {
                let (Some(tree), Some(e)) = (forest.tree(NetId::new(ni)), arena.net(ni)) else {
                    return;
                };
                let r = b[ni] as usize..b[ni + 1] as usize;
                let seeds = SeedSlices {
                    delay: &grad_delay[r.clone()],
                    impulse_sq: &grad_impulse_sq[r.clone()],
                    beta: &grad_beta[r],
                    root_load: grad_root_load[ni],
                };
                active[0] = seeds.root_load != 0.0
                    || seeds.delay.iter().any(|&g| g != 0.0)
                    || seeds.beta.iter().any(|&g| g != 0.0)
                    || seeds.impulse_sq.iter().any(|&g| g != 0.0);
                if !active[0] {
                    return;
                }
                e.backward_into(tree, seeds, Adjoints { beta, ldelay, delay, load, x, y });
                let (xs, ys) = (tree.x_sources(), tree.y_sources());
                for i in tree.num_pins()..tree.num_nodes() {
                    x[xs[i] as usize] += x[i];
                    y[ys[i] as usize] += y[i];
                }
            });
    }

    /// Net `ni`'s folded node gradients `(∂f/∂x, ∂f/∂y)`, whose first
    /// `num_pins` entries are per pin in net pin order; `None` if its
    /// backward pass did not run.
    pub(crate) fn pin_grads(&self, arena: &ElmoreArena, ni: usize) -> Option<(&[f64], &[f64])> {
        self.active[ni].then(|| {
            let r = arena.base(ni)..arena.offsets[ni + 1] as usize;
            (&self.adj_x[r.clone()], &self.adj_y[r])
        })
    }
}

/// Extension trait: sign with 0 at 0 (subgradient of `|x|`).
trait SignumOrZero {
    fn signum_or_zero(self) -> f64;
}

impl SignumOrZero for f64 {
    #[inline]
    fn signum_or_zero(self) -> f64 {
        if self > 0.0 {
            1.0
        } else if self < 0.0 {
            -1.0
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtp_netlist::Point;

    const R: f64 = 1.0;
    const C: f64 = 0.25;

    #[test]
    fn two_pin_net_matches_hand_calc() {
        // Driver at 0, sink at distance L = 10. Lumped RC:
        // Res = R·L, node caps: each gets C·L/2; sink also pin cap 2.0.
        // Load(sink) = C·L/2 + 2.0 = 1.25 + 2 = 3.25
        // Delay(sink) = Res · Load(sink) = 10 · 3.25 = 32.5
        let tree = SteinerTree::build(&[Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
        let e = ElmoreNet::forward(&tree, &[0.0, 2.0], R, C);
        assert!((e.delay_at(1) - 32.5).abs() < 1e-12);
        assert!((e.root_load() - (0.25 * 10.0 + 2.0)).abs() < 1e-12);
        // Beta(sink) = Res · LDelay(sink) = 10 · (3.25 · 32.5) = 1056.25
        // Impulse² = 2·1056.25 − 32.5² = 2112.5 − 1056.25 = 1056.25
        assert!((e.impulse_sq_at(1) - 1056.25).abs() < 1e-9);
    }

    #[test]
    fn delay_monotone_in_distance() {
        for l in [1.0, 5.0, 20.0, 80.0] {
            let t1 = SteinerTree::build(&[Point::new(0.0, 0.0), Point::new(l, 0.0)]);
            let t2 = SteinerTree::build(&[Point::new(0.0, 0.0), Point::new(l * 2.0, 0.0)]);
            let e1 = ElmoreNet::forward(&t1, &[0.0, 1.0], R, C);
            let e2 = ElmoreNet::forward(&t2, &[0.0, 1.0], R, C);
            assert!(e2.delay_at(1) > e1.delay_at(1));
        }
    }

    #[test]
    fn load_accumulates_over_sinks() {
        let pins = [
            Point::new(0.0, 0.0),
            Point::new(5.0, 5.0),
            Point::new(-5.0, 5.0),
        ];
        let tree = SteinerTree::build(&pins);
        let e = ElmoreNet::forward(&tree, &[0.0, 1.5, 2.5], R, C);
        let total_wire_cap = C * tree.wirelength();
        assert!((e.root_load() - (1.5 + 2.5 + total_wire_cap)).abs() < 1e-9);
    }

    /// Builds a scalar objective from seeds and checks the analytic position
    /// gradient against central finite differences on each pin coordinate.
    fn grad_check(pins: &[Point], pin_caps: &[f64]) {
        let tree = SteinerTree::build(pins);
        let n = tree.num_nodes();
        let mut seeds = ElmoreSeeds::zeros(n);
        // Arbitrary but fixed seed pattern on the sink pins + root load.
        for i in 1..tree.num_pins() {
            seeds.grad_delay[i] = 1.0 + 0.3 * i as f64;
            seeds.grad_impulse_sq[i] = 0.01 * i as f64;
        }
        seeds.grad_root_load = 0.7;

        let objective = |pins: &[Point]| -> f64 {
            let mut t = tree.clone();
            t.update_pins(pins);
            let e = ElmoreNet::forward(&t, pin_caps, R, C);
            let mut f = seeds.grad_root_load * e.root_load();
            for i in 1..t.num_pins() {
                f += seeds.grad_delay[i] * e.delay_at(i);
                f += seeds.grad_impulse_sq[i] * e.impulse_sq_at(i);
            }
            f
        };

        let e = ElmoreNet::forward(&tree, pin_caps, R, C);
        let (gx, gy) = e.backward(&tree, &seeds);
        let per_pin = tree.scatter_gradient(&gx, &gy);

        let h = 1e-5;
        for i in 0..pins.len() {
            for axis in 0..2 {
                let mut hi = pins.to_vec();
                let mut lo = pins.to_vec();
                if axis == 0 {
                    hi[i].x += h;
                    lo[i].x -= h;
                } else {
                    hi[i].y += h;
                    lo[i].y -= h;
                }
                let num = (objective(&hi) - objective(&lo)) / (2.0 * h);
                let ana = if axis == 0 { per_pin[i].0 } else { per_pin[i].1 };
                assert!(
                    (num - ana).abs() < 1e-4 * (1.0 + num.abs()),
                    "pin {i} axis {axis}: analytic {ana} vs numeric {num}"
                );
            }
        }
    }

    #[test]
    fn gradcheck_two_pins() {
        grad_check(
            &[Point::new(0.0, 0.0), Point::new(13.0, 7.0)],
            &[0.0, 2.0],
        );
    }

    #[test]
    fn gradcheck_three_pins_with_steiner() {
        grad_check(
            &[Point::new(0.0, 0.0), Point::new(9.0, 6.0), Point::new(11.0, -4.0)],
            &[0.0, 1.0, 3.0],
        );
    }

    #[test]
    fn gradcheck_larger_net() {
        let pins = [
            Point::new(0.0, 0.0),
            Point::new(10.0, 3.0),
            Point::new(-6.0, 8.0),
            Point::new(4.0, -9.0),
            Point::new(12.0, 12.0),
            Point::new(-3.0, -5.0),
            Point::new(7.0, 1.5),
        ];
        let caps = [0.0, 1.0, 2.0, 1.5, 0.5, 2.5, 1.2];
        grad_check(&pins, &caps);
    }

    #[test]
    fn zero_seeds_give_zero_gradient() {
        let pins = [Point::new(0.0, 0.0), Point::new(5.0, 5.0)];
        let tree = SteinerTree::build(&pins);
        let e = ElmoreNet::forward(&tree, &[0.0, 1.0], R, C);
        let (gx, gy) = e.backward(&tree, &ElmoreSeeds::zeros(tree.num_nodes()));
        assert!(gx.iter().chain(gy.iter()).all(|&g| g == 0.0));
    }

    #[test]
    fn coincident_pins_do_not_produce_nan() {
        let p = Point::new(1.0, 1.0);
        let tree = SteinerTree::build(&[p, p, p]);
        let e = ElmoreNet::forward(&tree, &[0.0, 1.0, 1.0], R, C);
        let mut seeds = ElmoreSeeds::zeros(tree.num_nodes());
        seeds.grad_delay[1] = 1.0;
        let (gx, gy) = e.backward(&tree, &seeds);
        assert!(gx.iter().chain(gy.iter()).all(|g| g.is_finite()));
    }
}
