//! Flow configuration: the knobs of §4 of the paper, plus the trace-header
//! round trip: every config serializes into the v2 trace header's generic
//! key/value fields and reconstructs from them (strictly — unknown or
//! missing keys are errors), which is what makes `dtp trace replay` work
//! from nothing but a recorded trace.

use dtp_obs::json::Value;
use serde::{Deserialize, Serialize};

/// Configuration of the differentiable timing objective (the paper's method).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DiffTimingConfig {
    /// LSE smoothing γ (ps); the paper sets "around 100".
    pub gamma: f64,
    /// Initial TNS weight t1. The paper reports "around 0.01" on the
    /// ICCAD-2015 superblue suite; on the scaled synthetic proxies the same
    /// gradient balance is reached at 0.04 (the paper itself tunes t1/t2 per
    /// benchmark, §4).
    pub t1: f64,
    /// Initial WNS weight t2 (paper: "around 0.0001"; recalibrated like t1).
    pub t2: f64,
    /// Multiplicative growth of t1/t2 per iteration; the paper increases
    /// them "by 1 % after each iteration".
    pub growth: f64,
    /// Iteration at which timing optimization starts ("around the 100th
    /// iteration where cells have been initially spread out").
    pub start_iter: usize,
    /// Timing-gradient preconditioning (the paper's §5 future-work item):
    /// when > 0, the timing gradient is rescaled each iteration so its
    /// ∞-norm equals this fraction of the wirelength gradient's ∞-norm,
    /// which decouples the effective timing pressure from t1/t2 magnitudes.
    /// 0 disables (the paper's published behaviour).
    pub grad_norm_target: f64,
    /// Wire delay metric used by the differentiable timer.
    pub wire_model: WireModelChoice,
}

/// Serializable mirror of [`dtp_sta::WireModel`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireModelChoice {
    /// Elmore first-moment delay.
    #[default]
    Elmore,
    /// D2M two-moment delay metric.
    D2m,
}

impl From<WireModelChoice> for dtp_sta::WireModel {
    fn from(w: WireModelChoice) -> Self {
        match w {
            WireModelChoice::Elmore => dtp_sta::WireModel::Elmore,
            WireModelChoice::D2m => dtp_sta::WireModel::D2m,
        }
    }
}

impl WireModelChoice {
    /// Stable lowercase name used in the trace header.
    pub fn name(self) -> &'static str {
        match self {
            WireModelChoice::Elmore => "elmore",
            WireModelChoice::D2m => "d2m",
        }
    }

    /// Inverse of [`WireModelChoice::name`].
    pub fn from_name(name: &str) -> Option<WireModelChoice> {
        match name {
            "elmore" => Some(WireModelChoice::Elmore),
            "d2m" => Some(WireModelChoice::D2m),
            _ => None,
        }
    }
}

impl Default for DiffTimingConfig {
    fn default() -> Self {
        DiffTimingConfig {
            gamma: 100.0,
            t1: 0.04,
            t2: 0.0004,
            growth: 1.01,
            start_iter: 100,
            grad_norm_target: 0.0,
            wire_model: WireModelChoice::Elmore,
        }
    }
}

/// Configuration of the momentum net-weighting baseline \[24\].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetWeightConfig {
    /// Momentum coefficient for the weight update.
    pub momentum: f64,
    /// Maximum instantaneous weight boost for a fully critical net.
    pub max_boost: f64,
    /// Run the (exact) STA and update weights every this many iterations
    /// (0 is treated as 1).
    pub sta_period: usize,
    /// Iteration at which weighting starts.
    pub start_iter: usize,
}

impl Default for NetWeightConfig {
    fn default() -> Self {
        NetWeightConfig {
            momentum: 0.5,
            max_boost: 2.0,
            sta_period: 1,
            start_iter: 100,
        }
    }
}

/// Configuration of the top-K critical-path-extraction timing mode.
///
/// Instead of back-propagating through every timing arc (the differentiable
/// objective) or exact-analyzing every endpoint into momentum net weights
/// (the net-weighting baseline), this mode periodically runs a forward-only
/// exact analysis, extracts the `top_k` worst paths
/// ([`dtp_sta::Timer::extract_paths_into`]) and converts the per-pin
/// criticalities into wirelength-model net weights: a net touched by a pin
/// of criticality `c` gets weight `1 + (pin_weight_cap − 1) · c` (max over
/// its pins).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PathExtractConfig {
    /// Number of worst endpoints traced per extraction.
    pub top_k: usize,
    /// Run the analysis + extraction every this many iterations.
    pub extract_period: usize,
    /// Criticality decay per path rank (rank r is scaled by `decay^r`).
    pub path_decay: f64,
    /// Net weight of a fully critical (rank-0, slack = WNS) pin; weights
    /// interpolate between 1 and this cap with criticality. The sparse
    /// weights need a much stronger pull than net-weighting's dense boost:
    /// only a few dozen nets carry any timing force, so a small cap leaves
    /// the critical cone dominated by the wirelength term (the bench
    /// frontier loses ~20% WNS at cap 3 and ~1% at cap 8).
    pub pin_weight_cap: f64,
    /// Iteration at which path-driven weighting starts.
    pub start_iter: usize,
}

impl Default for PathExtractConfig {
    fn default() -> Self {
        PathExtractConfig {
            top_k: 32,
            extract_period: 5,
            path_decay: 0.9,
            pin_weight_cap: 8.0,
            start_iter: 100,
        }
    }
}

/// Which placement flow to run (the three columns of Table 3, plus the
/// path-extraction mode).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FlowMode {
    /// Wirelength-driven only (DREAMPlace \[16\]).
    Wirelength,
    /// Net-weighting timing-driven (DREAMPlace 4.0 \[24\]).
    NetWeighting(NetWeightConfig),
    /// Differentiable-timing-driven (this paper).
    Differentiable(DiffTimingConfig),
    /// Top-K critical-path extraction driving net weights (the cheap, sharp
    /// timing signal of arXiv 2503.11674).
    PathExtraction(PathExtractConfig),
}

impl FlowMode {
    /// The paper's method with default hyperparameters.
    pub fn differentiable() -> FlowMode {
        FlowMode::Differentiable(DiffTimingConfig::default())
    }

    /// The net-weighting baseline with default hyperparameters.
    pub fn net_weighting() -> FlowMode {
        FlowMode::NetWeighting(NetWeightConfig::default())
    }

    /// The path-extraction mode with default hyperparameters.
    pub fn path_extraction() -> FlowMode {
        FlowMode::PathExtraction(PathExtractConfig::default())
    }

    /// Short label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            FlowMode::Wirelength => "DREAMPlace",
            FlowMode::NetWeighting(_) => "NetWeighting",
            FlowMode::Differentiable(_) => "Ours",
            FlowMode::PathExtraction(_) => "PathExtract",
        }
    }

    /// Canonical lowercase mode name recorded in the trace header (also the
    /// CLI `--mode` spelling).
    pub fn name(&self) -> &'static str {
        match self {
            FlowMode::Wirelength => "wirelength",
            FlowMode::NetWeighting(_) => "net-weighting",
            FlowMode::Differentiable(_) => "differentiable",
            FlowMode::PathExtraction(_) => "path-extraction",
        }
    }

    /// The mode's hyperparameters as ordered trace-header fields (empty for
    /// the wirelength-only mode).
    pub fn trace_fields(&self) -> Vec<(String, Value)> {
        let n = |key: &str, v: f64| (key.to_string(), Value::Num(v));
        let u = |key: &str, v: usize| (key.to_string(), Value::Num(v as f64));
        match self {
            FlowMode::Wirelength => Vec::new(),
            FlowMode::NetWeighting(c) => vec![
                n("momentum", c.momentum),
                n("max_boost", c.max_boost),
                u("sta_period", c.sta_period),
                u("start_iter", c.start_iter),
            ],
            FlowMode::Differentiable(c) => vec![
                n("gamma", c.gamma),
                n("t1", c.t1),
                n("t2", c.t2),
                n("growth", c.growth),
                u("start_iter", c.start_iter),
                n("grad_norm_target", c.grad_norm_target),
                (
                    "wire_model".to_string(),
                    Value::Str(c.wire_model.name().to_string()),
                ),
            ],
            FlowMode::PathExtraction(c) => vec![
                u("top_k", c.top_k),
                u("extract_period", c.extract_period),
                n("path_decay", c.path_decay),
                n("pin_weight_cap", c.pin_weight_cap),
                u("start_iter", c.start_iter),
            ],
        }
    }

    /// Reconstructs a mode from its trace-header name and fields, strictly:
    /// unknown names, unknown keys, missing keys, and wrong value types are
    /// all errors.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending mode name or field.
    pub fn from_trace(name: &str, fields: &[(String, Value)]) -> Result<FlowMode, String> {
        match name {
            "wirelength" => {
                reject_unknown(fields, &[])?;
                Ok(FlowMode::Wirelength)
            }
            "net-weighting" => {
                reject_unknown(fields, &["momentum", "max_boost", "sta_period", "start_iter"])?;
                Ok(FlowMode::NetWeighting(NetWeightConfig {
                    momentum: num(fields, "momentum")?,
                    max_boost: num(fields, "max_boost")?,
                    sta_period: int(fields, "sta_period")?,
                    start_iter: int(fields, "start_iter")?,
                }))
            }
            "differentiable" => {
                reject_unknown(
                    fields,
                    &[
                        "gamma",
                        "t1",
                        "t2",
                        "growth",
                        "start_iter",
                        "grad_norm_target",
                        "wire_model",
                    ],
                )?;
                let wire_model = string(fields, "wire_model")?;
                Ok(FlowMode::Differentiable(DiffTimingConfig {
                    gamma: num(fields, "gamma")?,
                    t1: num(fields, "t1")?,
                    t2: num(fields, "t2")?,
                    growth: num(fields, "growth")?,
                    start_iter: int(fields, "start_iter")?,
                    grad_norm_target: num(fields, "grad_norm_target")?,
                    wire_model: WireModelChoice::from_name(wire_model)
                        .ok_or_else(|| format!("unknown wire model `{wire_model}`"))?,
                }))
            }
            "path-extraction" => {
                reject_unknown(
                    fields,
                    &["top_k", "extract_period", "path_decay", "pin_weight_cap", "start_iter"],
                )?;
                Ok(FlowMode::PathExtraction(PathExtractConfig {
                    top_k: int(fields, "top_k")?,
                    extract_period: int(fields, "extract_period")?,
                    path_decay: num(fields, "path_decay")?,
                    pin_weight_cap: num(fields, "pin_weight_cap")?,
                    start_iter: int(fields, "start_iter")?,
                }))
            }
            other => Err(format!("unknown flow mode `{other}`")),
        }
    }
}

/// Global placement engine configuration (mode-independent knobs).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlowConfig {
    /// Maximum global-placement iterations.
    pub max_iters: usize,
    /// Stop when the density overflow drops below this ("the same stop
    /// criterion on density overflow" for all flows, §4).
    pub stop_overflow: f64,
    /// Density bin grid (bins × bins). The Poisson solve uses the
    /// O(N log N) FFT when this is a power of two and the dense reference
    /// transforms otherwise.
    pub bins: usize,
    /// Target bin density.
    pub target_density: f64,
    /// Initial density weight λ as a fraction of the wirelength gradient
    /// norm; 0 = auto-balance.
    pub lambda_init: f64,
    /// Multiplicative λ growth per iteration (cell-spreading pressure).
    pub lambda_growth: f64,
    /// How often (iterations) the trace records exact WNS/TNS; 0 = never
    /// (cheapest), 1 = every iteration (Figure-8 mode).
    pub trace_timing_every: usize,
    /// Random seed for the initial center-cluster placement.
    pub seed: u64,
    /// Number of detailed-placement passes after legalization.
    pub detail_passes: usize,
    /// Which legalization algorithm runs after global placement.
    pub legalizer: LegalizerChoice,
    /// A net's Steiner topology is rebuilt when the accumulated worst cell
    /// drift since its last build exceeds this fraction of the net's pin
    /// bounding-box half-perimeter; until then only node coordinates are
    /// updated. These per-net budgets take the place of the paper's rebuild
    /// of every tree every 10 iterations (§3.6).
    pub topo_dirty_frac: f64,
    /// Enable the routability subsystem: the differentiable congestion
    /// penalty joins the objective and the RUDY feedback loop (cell
    /// inflation + congested-net weighting) runs every
    /// [`route_update_period`](FlowConfig::route_update_period) iterations.
    /// `false` leaves the flow trajectory bit-for-bit identical to a build
    /// without the subsystem.
    pub route_aware: bool,
    /// Routing-congestion grid (bins × bins), for both the exact RUDY map
    /// and the smoothed penalty.
    pub route_grid: usize,
    /// Per-direction routing supply in wire-µm per µm² of bin area (the
    /// per-bin capacity is this times the bin area).
    pub route_capacity: f64,
    /// Strength of the congestion pressure: the congestion gradient is
    /// rescaled so its ∞-norm equals this fraction of the combined
    /// wirelength+density gradient's ∞-norm, and congested nets get their
    /// wirelength weight boosted by up to `1 + route_weight`.
    pub route_weight: f64,
    /// Cap on the congestion-driven per-cell area inflation factor.
    pub inflation_max: f64,
    /// Run the RUDY feedback (inflation + net reweighting) every this many
    /// iterations once congestion optimization is active.
    pub route_update_period: usize,
    /// Enable the observability subsystem (`dtp-obs`): per-phase span
    /// accumulation, the counters/gauges registry, the iteration ring
    /// buffer, and (when the caller attaches sinks via
    /// [`run_flow_observed`](crate::run_flow_observed)) the JSONL trace
    /// stream. `false` is bit-for-bit inert on the placement trajectory and
    /// near-zero-cost: only the STA-phase clock reads that always existed
    /// remain, so [`FlowResult::timing_runtime`](crate::FlowResult) keeps
    /// working either way.
    pub observe: bool,
    /// Worker threads for the parallel phases (Nesterov update, gradient
    /// sweeps, legalization bands). 0 = the ambient pool (the process-global
    /// default, or whatever [`rayon::with_pool`] scope encloses the call);
    /// any other value runs the flow on a dedicated pool of that width.
    /// Every parallel kernel reduces in fixed chunk order, so the placement
    /// trajectory is bit-for-bit identical for every value of this knob.
    pub threads: usize,
    /// Run the multi-level (clustered) V-cycle: coarsen the netlist
    /// [`levels`](FlowConfig::levels)−1 times by
    /// [`cluster_ratio`](FlowConfig::cluster_ratio)× each, place the coarsest
    /// proxy with the cheap wirelength+density objective, then interpolate
    /// and refine level by level, reserving the full differentiable-timing
    /// gradient for the finest level. `false` is bit-for-bit inert: the flow
    /// is identical to a build without the subsystem.
    pub multilevel: bool,
    /// Per-level coarsening ratio of the multi-level flow (≈ how many fine
    /// cells merge into one cluster per level). Values ≤ 1 disable merging.
    pub cluster_ratio: f64,
    /// Number of placement levels in the multi-level flow (1 = flat; each
    /// extra level adds one coarsening pass). Ignored unless
    /// [`multilevel`](FlowConfig::multilevel) is set.
    pub levels: usize,
}

/// Legalization algorithm selection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum LegalizerChoice {
    /// Abacus row clustering (minimum quadratic displacement; default).
    #[default]
    Abacus,
    /// Greedy Tetris frontier (faster, cruder).
    Tetris,
}

impl LegalizerChoice {
    /// Stable lowercase name used in the trace header.
    pub fn name(self) -> &'static str {
        match self {
            LegalizerChoice::Abacus => "abacus",
            LegalizerChoice::Tetris => "tetris",
        }
    }

    /// Inverse of [`LegalizerChoice::name`].
    pub fn from_name(name: &str) -> Option<LegalizerChoice> {
        match name {
            "abacus" => Some(LegalizerChoice::Abacus),
            "tetris" => Some(LegalizerChoice::Tetris),
            _ => None,
        }
    }
}

/// The keys of [`FlowConfig::trace_fields`], in emission order.
const CONFIG_KEYS: [&str; 22] = [
    "max_iters",
    "stop_overflow",
    "bins",
    "target_density",
    "lambda_init",
    "lambda_growth",
    "trace_timing_every",
    "seed",
    "detail_passes",
    "legalizer",
    "topo_dirty_frac",
    "route_aware",
    "route_grid",
    "route_capacity",
    "route_weight",
    "inflation_max",
    "route_update_period",
    "observe",
    "threads",
    "multilevel",
    "cluster_ratio",
    "levels",
];

fn lookup<'a>(fields: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing config field `{key}`"))
}

fn num(fields: &[(String, Value)], key: &str) -> Result<f64, String> {
    lookup(fields, key)?
        .as_f64()
        .ok_or_else(|| format!("config field `{key}` is not a number"))
}

fn int(fields: &[(String, Value)], key: &str) -> Result<usize, String> {
    let v = num(fields, key)?;
    if v < 0.0 || v.fract() != 0.0 || v > usize::MAX as f64 {
        return Err(format!("config field `{key}` is not a non-negative integer"));
    }
    Ok(v as usize)
}

fn boolean(fields: &[(String, Value)], key: &str) -> Result<bool, String> {
    lookup(fields, key)?
        .as_bool()
        .ok_or_else(|| format!("config field `{key}` is not a boolean"))
}

fn string<'a>(fields: &'a [(String, Value)], key: &str) -> Result<&'a str, String> {
    lookup(fields, key)?
        .as_str()
        .ok_or_else(|| format!("config field `{key}` is not a string"))
}

fn reject_unknown(fields: &[(String, Value)], known: &[&str]) -> Result<(), String> {
    for (k, _) in fields {
        if !known.contains(&k.as_str()) {
            return Err(format!("unknown config field `{k}`"));
        }
    }
    Ok(())
}

impl FlowConfig {
    /// Serializes every knob into ordered trace-header fields. The seed is
    /// a string so the full `u64` range survives the f64 number pipeline;
    /// enums use their stable lowercase names.
    pub fn trace_fields(&self) -> Vec<(String, Value)> {
        let n = |key: &str, v: f64| (key.to_string(), Value::Num(v));
        let u = |key: &str, v: usize| (key.to_string(), Value::Num(v as f64));
        let b = |key: &str, v: bool| (key.to_string(), Value::Bool(v));
        vec![
            u("max_iters", self.max_iters),
            n("stop_overflow", self.stop_overflow),
            u("bins", self.bins),
            n("target_density", self.target_density),
            n("lambda_init", self.lambda_init),
            n("lambda_growth", self.lambda_growth),
            u("trace_timing_every", self.trace_timing_every),
            ("seed".to_string(), Value::Str(self.seed.to_string())),
            u("detail_passes", self.detail_passes),
            (
                "legalizer".to_string(),
                Value::Str(self.legalizer.name().to_string()),
            ),
            n("topo_dirty_frac", self.topo_dirty_frac),
            b("route_aware", self.route_aware),
            u("route_grid", self.route_grid),
            n("route_capacity", self.route_capacity),
            n("route_weight", self.route_weight),
            n("inflation_max", self.inflation_max),
            u("route_update_period", self.route_update_period),
            b("observe", self.observe),
            u("threads", self.threads),
            b("multilevel", self.multilevel),
            n("cluster_ratio", self.cluster_ratio),
            u("levels", self.levels),
        ]
    }

    /// Reconstructs a config from trace-header fields, strictly: every knob
    /// must be present with the right type, and unknown keys are errors (a
    /// trace from a newer binary with more knobs must not silently replay
    /// with defaults for the extras).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn from_trace_fields(fields: &[(String, Value)]) -> Result<FlowConfig, String> {
        reject_unknown(fields, &CONFIG_KEYS)?;
        let legalizer_name = string(fields, "legalizer")?;
        Ok(FlowConfig {
            max_iters: int(fields, "max_iters")?,
            stop_overflow: num(fields, "stop_overflow")?,
            bins: int(fields, "bins")?,
            target_density: num(fields, "target_density")?,
            lambda_init: num(fields, "lambda_init")?,
            lambda_growth: num(fields, "lambda_growth")?,
            trace_timing_every: int(fields, "trace_timing_every")?,
            seed: string(fields, "seed")?
                .parse()
                .map_err(|_| "config field `seed` is not a u64 string".to_string())?,
            detail_passes: int(fields, "detail_passes")?,
            legalizer: LegalizerChoice::from_name(legalizer_name)
                .ok_or_else(|| format!("unknown legalizer `{legalizer_name}`"))?,
            topo_dirty_frac: num(fields, "topo_dirty_frac")?,
            route_aware: boolean(fields, "route_aware")?,
            route_grid: int(fields, "route_grid")?,
            route_capacity: num(fields, "route_capacity")?,
            route_weight: num(fields, "route_weight")?,
            inflation_max: num(fields, "inflation_max")?,
            route_update_period: int(fields, "route_update_period")?,
            observe: boolean(fields, "observe")?,
            threads: int(fields, "threads")?,
            multilevel: boolean(fields, "multilevel")?,
            cluster_ratio: num(fields, "cluster_ratio")?,
            levels: int(fields, "levels")?,
        })
    }
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            max_iters: 500,
            stop_overflow: 0.10,
            bins: 64,
            target_density: 1.0,
            lambda_init: 0.0,
            lambda_growth: 1.05,
            trace_timing_every: 10,
            seed: 1,
            detail_passes: 2,
            legalizer: LegalizerChoice::Abacus,
            topo_dirty_frac: 0.10,
            route_aware: false,
            route_grid: 32,
            route_capacity: 0.5,
            route_weight: 1.0,
            inflation_max: 2.5,
            route_update_period: 20,
            observe: false,
            threads: 0,
            multilevel: false,
            cluster_ratio: 4.0,
            levels: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let d = DiffTimingConfig::default();
        assert_eq!(d.gamma, 100.0);
        assert_eq!(d.t1, 0.04);
        assert_eq!(d.t2, 0.0004);
        assert!((d.growth - 1.01).abs() < 1e-12);
        assert_eq!(d.start_iter, 100);
    }

    #[test]
    fn labels() {
        assert_eq!(FlowMode::Wirelength.label(), "DREAMPlace");
        assert_eq!(FlowMode::net_weighting().label(), "NetWeighting");
        assert_eq!(FlowMode::differentiable().label(), "Ours");
        assert_eq!(FlowMode::path_extraction().label(), "PathExtract");
    }

    #[test]
    fn config_trace_fields_round_trip() {
        let mut cfg = FlowConfig {
            seed: u64::MAX - 3, // above 2^53: exercises the string encoding
            legalizer: LegalizerChoice::Tetris,
            multilevel: true,
            threads: 4,
            ..FlowConfig::default()
        };
        cfg.lambda_growth = 1.0375;
        let fields = cfg.trace_fields();
        assert_eq!(fields.len(), CONFIG_KEYS.len());
        let back = FlowConfig::from_trace_fields(&fields).expect("round trip");
        assert_eq!(back, cfg);
        // Strictness: a missing knob and an unknown knob are both errors.
        let missing: Vec<_> = fields[1..].to_vec();
        assert!(FlowConfig::from_trace_fields(&missing).is_err());
        let mut extra = fields.clone();
        extra.push(("bogus".to_string(), Value::Bool(true)));
        assert!(FlowConfig::from_trace_fields(&extra).is_err());
        // Retired knobs are unknown fields, not silently ignored: a trace
        // recorded with any of them does not replay.
        for key in [
            "density_fft",
            "dirty_threshold",
            "rsmt_tables",
            "rsmt_table_max_degree",
            "incremental_fallback_frac",
        ] {
            let mut retired = fields.clone();
            retired.push((key.to_string(), Value::Num(0.0)));
            let err = FlowConfig::from_trace_fields(&retired).expect_err(key);
            assert_eq!(err, format!("unknown config field `{key}`"));
        }
    }

    #[test]
    fn mode_trace_fields_round_trip() {
        for mode in [
            FlowMode::Wirelength,
            FlowMode::net_weighting(),
            FlowMode::differentiable(),
            FlowMode::path_extraction(),
            FlowMode::Differentiable(DiffTimingConfig {
                wire_model: WireModelChoice::D2m,
                grad_norm_target: 0.25,
                ..DiffTimingConfig::default()
            }),
        ] {
            let fields = mode.trace_fields();
            let back = FlowMode::from_trace(mode.name(), &fields).expect("round trip");
            assert_eq!(back, mode);
        }
        assert!(FlowMode::from_trace("bogus", &[]).is_err());
        // Wirelength mode must carry no fields.
        assert!(FlowMode::from_trace(
            "wirelength",
            &[("gamma".to_string(), Value::Num(1.0))]
        )
        .is_err());
    }

    #[test]
    fn path_extract_defaults() {
        let p = PathExtractConfig::default();
        assert_eq!(p.top_k, 32);
        assert_eq!(p.extract_period, 5);
        assert!((p.path_decay - 0.9).abs() < 1e-12);
        assert!((p.pin_weight_cap - 8.0).abs() < 1e-12);
        assert_eq!(p.start_iter, 100);
        assert!(p.pin_weight_cap >= 1.0, "cap below 1 would anti-weight");
    }
}
