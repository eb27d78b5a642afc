//! Sweep cells: the unit of caching and result storage.
//!
//! A [`CellSpec`] declares one computation — a topology recipe, a traffic
//! recipe and a metric kind — with every random seed pinned inside the spec.
//! Together with the run's [`EvalConfig`] it fully
//! determines the result, which is what makes the on-disk cache sound: the
//! cache key is derived from `(spec, eval config)` and nothing else.
//!
//! A cell runs as one or more *units*, the runner's unit of scheduling.
//! Every solve but the design search's is a unit of its own: a throughput
//! cell's one solve, and a multi-solve cell's reference solve plus k
//! comparison solves — a relative cell's topology and its k same-equipment
//! random graphs, a degradation cell's unfaulted baseline and its k fault
//! draws. Every other kind is one unit; only the design search loops over
//! solves inside it, since each step of its climb depends on the last. The
//! units share the cell's [`Base`] (the built topology) and combine in index
//! order into the cell's values. The runner's unit queue runs them, for a
//! sweep and, with certificate capture on, for `sweep verify`;
//! [`CellSpec::compute`] runs them one after another as a serial reference.

use crate::eval::{
    evaluate_throughput_status_with, relative_solve, relative_solves, solve, EvalConfig, Evaluated,
    RelativeThroughput, RelativeTm,
};
use crate::spec::TmSpec;
use crate::stats::Stats;
use crate::sweep::json::Json;
use crate::sweep::search::run_search;
use std::collections::BTreeMap;
use tb_cuts::{estimate_sparsest_cut, ALL_ESTIMATORS};
use tb_flow::restricted::{k_shortest_path_sets, PathRestrictedSolver, SubflowCountingEstimator};
use tb_flow::SolveStatus;
use tb_graph::shortest_path::average_path_length;
use tb_topology::faults::{apply_faults, FaultPlan};
use tb_topology::jellyfish::same_equipment;
use tb_topology::{TopoSpec, Topology};
use tb_traffic::{facebook, ops, TrafficMatrix};

/// Which of the two synthetic Facebook rack-level matrices a cell uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FbMatrix {
    /// The near-uniform Hadoop-cluster matrix (TM-H).
    Hadoop,
    /// The skewed frontend-cluster matrix (TM-F).
    Frontend,
}

/// One declarative sweep computation.
#[derive(Debug, Clone, PartialEq)]
pub enum CellSpec {
    /// Absolute throughput of `tm` (instantiated with `tm_seed`) on `topo`.
    Throughput {
        /// Topology recipe.
        topo: TopoSpec,
        /// Traffic recipe.
        tm: TmSpec,
        /// Seed used to instantiate the TM.
        tm_seed: u64,
    },
    /// Relative throughput vs same-equipment random graphs (the TM is
    /// regenerated per graph from the spec; seeds derive from the eval
    /// config, exactly as [`relative_throughput`](crate::relative_throughput)
    /// always has).
    Relative {
        /// Topology recipe.
        topo: TopoSpec,
        /// Traffic recipe.
        tm: TmSpec,
    },
    /// The sparsest-cut estimator battery against `tm`.
    CutEstimate {
        /// Topology recipe.
        topo: TopoSpec,
        /// Traffic recipe.
        tm: TmSpec,
        /// Seed used to instantiate the TM.
        tm_seed: u64,
    },
    /// Average shortest-path length of `topo` vs one same-equipment random
    /// graph built with `rnd_seed` (Fig. 9's relative path length).
    PathLengthRatio {
        /// Topology recipe.
        topo: TopoSpec,
        /// Seed of the comparison random graph.
        rnd_seed: u64,
    },
    /// Relative throughput (fixed TM) under a placed Facebook rack-level
    /// matrix, optionally with randomized rack placement (Figs. 13–14).
    FacebookRelative {
        /// Topology recipe.
        topo: TopoSpec,
        /// Which measured matrix.
        matrix: FbMatrix,
        /// Randomize rack placement before placing.
        shuffled: bool,
        /// Seed used to synthesize the matrix.
        tm_seed: u64,
        /// Seed used for the rack shuffle.
        shuffle_seed: u64,
    },
    /// Path-restricted throughput: LLSKR-style k-shortest-path sets under
    /// all-to-all traffic, reporting both the Yuan et al. subflow-counting
    /// estimate and the LP throughput over the same paths (Fig. 15). The
    /// latter is [`PathRestrictedSolver`]'s feasible lower bound at its 3 %
    /// target gap, not the LP optimum. The gap is relative to the dual upper
    /// bound (`(upper - lower) / upper <= 0.03`), so once the solve closes it
    /// the optimum lies at most `1/0.97 - 1` ≈ 3.09 % above the published
    /// value (the exact path LP of the seed-1 `jf-yuan` cell is 3.04 % above).
    PathRestricted {
        /// Topology recipe.
        topo: TopoSpec,
        /// Paths per commodity.
        k_paths: usize,
        /// Seed used to instantiate the A2A TM.
        tm_seed: u64,
    },
    /// Throughput degradation under deterministic fault injection: the base
    /// topology's throughput is the baseline, then `failure_seeds`
    /// independent failure draws (see `tb_topology::faults`) each remove a
    /// link fraction and a switch count, the TM is re-stenciled onto the
    /// survivors, and the per-draw relative throughput (faulted / baseline)
    /// is aggregated into mean ± error bars. Degraded solves (disconnected
    /// demands dropped, budget exhausted) are absorbed, not fatal.
    Degradation {
        /// Base (unfaulted) topology recipe.
        topo: TopoSpec,
        /// Traffic recipe, regenerated on every faulted instance so demand
        /// stencils restrict to surviving server pairs.
        tm: TmSpec,
        /// Seed used to instantiate the TMs.
        tm_seed: u64,
        /// Fraction of the base topology's links to fail per draw (rounded
        /// to a count, saturating).
        link_fail_frac: f64,
        /// Switches to fail per draw, in addition to the link failures.
        switch_failures: usize,
        /// Number of independent failure draws to average over (at least 1).
        failure_seeds: u64,
        /// Base seed of the failure draws; draw `i` uses `seed + i`.
        seed: u64,
    },
    /// Topology-design search: a deterministic hill climb over same-equipment
    /// neighbors of `start` (Jellyfish server/network port split, HyperX
    /// target bisection, Long Hop link budget), maximizing throughput per
    /// unit equipment cost. The whole climb runs inside one cell; every
    /// candidate is evaluated from scratch.
    Search {
        /// Starting design.
        start: TopoSpec,
        /// Traffic recipe, regenerated per candidate topology.
        tm: TmSpec,
        /// Seed used to instantiate the TMs.
        tm_seed: u64,
        /// Maximum accepted moves before the climb stops.
        max_steps: usize,
    },
}

/// A cell's result: named floating-point metrics (bit-exact through the
/// cache) plus optional named text annotations, both in name order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellValues {
    nums: BTreeMap<String, f64>,
    texts: BTreeMap<String, String>,
}

impl CellValues {
    /// Sets a named metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.nums.insert(name.into(), value);
    }

    /// Sets a named text annotation.
    pub(crate) fn push_text(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.texts.insert(name.into(), value.into());
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.nums.get(name).copied()
    }

    /// Looks up a metric that must exist.
    ///
    /// # Panics
    /// Panics when the metric is absent — a scenario wiring bug.
    pub fn num(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("cell value '{name}' missing"))
    }

    /// Looks up a text annotation by name.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.texts.get(name).map(String::as_str)
    }

    /// All metrics, by name.
    pub(crate) fn nums(&self) -> &BTreeMap<String, f64> {
        &self.nums
    }

    /// All text annotations, by name.
    pub(crate) fn texts(&self) -> &BTreeMap<String, String> {
        &self.texts
    }

    /// True when every metric of `self` and `other` matches bit-for-bit (and
    /// texts match exactly).
    pub fn bit_identical(&self, other: &CellValues) -> bool {
        self.nums.len() == other.nums.len()
            && self.texts == other.texts
            && self
                .nums
                .iter()
                .zip(&other.nums)
                .all(|((an, av), (bn, bv))| an == bn && av.to_bits() == bv.to_bits())
    }

    /// The fields this result contributes to a cache entry or an artifact
    /// cell (one encoding for both): `values` maps each metric to its
    /// IEEE-754 `bits` plus a decimal `value` for human readers (`null` for a
    /// non-finite one), and `texts` each annotation.
    pub fn to_json(&self) -> Vec<(&'static str, Json)> {
        let values = (self.nums.iter())
            .map(|(name, &x)| {
                let metric = Json::obj(vec![("bits", Json::f64_bits(x)), ("value", Json::Num(x))]);
                (name.clone(), metric)
            })
            .collect();
        let texts = (self.texts.iter())
            .map(|(name, text)| (name.clone(), Json::str(text.clone())))
            .collect();
        vec![("values", Json::Obj(values)), ("texts", Json::Obj(texts))]
    }

    /// Decodes the fields [`to_json`](Self::to_json) wrote into `doc`; the
    /// error names the first undecodable one. A metric's decimal `value` must
    /// say what its `bits` say — readers see the decimal, the engine the bits.
    pub(crate) fn from_json(doc: &Json) -> Result<CellValues, String> {
        let metric = |v: &Json| {
            let x = v.get("bits")?.as_f64_bits()?;
            let shown = match v.get("value")? {
                Json::Num(shown) => shown.to_bits() == x.to_bits(),
                Json::Null => !x.is_finite(),
                _ => false,
            };
            shown.then_some(x)
        };
        Ok(CellValues {
            nums: decode_map(doc, "values", metric)?,
            texts: decode_map(doc, "texts", |v| Some(v.as_str()?.to_string()))?,
        })
    }
}

/// The object under `key` in `doc`, each member decoded by `decode`; the
/// error names the first member it rejects.
pub(crate) fn decode_map<T>(
    doc: &Json,
    key: &str,
    decode: impl Fn(&Json) -> Option<T>,
) -> Result<BTreeMap<String, T>, String> {
    let Some(Json::Obj(map)) = doc.get(key) else {
        return Err(format!("'{key}' must be an object"));
    };
    (map.iter())
        .map(|(name, v)| match decode(v) {
            Some(x) => Ok((name.clone(), x)),
            None => Err(format!("'{key}.{name}' is undecodable")),
        })
        .collect()
}

/// One schedulable cell: a stable id (unique within its scenario), display
/// labels captured at expansion time, and the computation spec.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Stable identifier, e.g. `"hypercube/d=4/LM"`.
    pub id: String,
    /// Display labels the renderer needs (topology params, sizes, …),
    /// captured when the scenario expanded its grid.
    pub labels: Vec<(String, String)>,
    /// The computation.
    pub spec: CellSpec,
}

impl SweepCell {
    /// Creates a cell with no labels.
    pub fn new(id: impl Into<String>, spec: CellSpec) -> Self {
        SweepCell {
            id: id.into(),
            labels: Vec::new(),
            spec,
        }
    }

    /// Adds a display label.
    pub fn label(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.push((name.into(), value.into()));
        self
    }

    /// Looks up a display label.
    pub fn get_label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn build_topo(spec: &TopoSpec) -> Topology {
    spec.build()
        .unwrap_or_else(|| panic!("unsatisfiable topology spec {spec:?}"))
}

/// Replicates the Fig. 13/14 placement: downsample a rack-level TM to the
/// topology's endpoint-switch count if needed, map it onto the endpoint
/// switches, and re-normalize to the hose model.
fn place_rack_tm(tm: &TrafficMatrix, topo: &Topology) -> TrafficMatrix {
    let endpoints = topo.server_switches();
    let tm = if endpoints.len() < tm.num_switches() {
        ops::downsample(tm, endpoints.len())
    } else {
        tm.clone()
    };
    let mapped = ops::map_onto(&tm, &endpoints, topo.num_switches());
    mapped.normalized_to_hose(&topo.servers).0
}

/// What the units of one cell share, made once per cell by
/// [`CellSpec::base`].
pub enum Base {
    /// A cell that solves nothing, or (the design search) solves inside its
    /// one unit, makes everything inside it.
    Whole,
    /// A throughput cell's built topology and its traffic matrix.
    Throughput(Topology, TrafficMatrix),
    /// A relative cell's built topology and the traffic of its solves.
    Relative(RelativeBase),
    /// A degradation cell's unfaulted topology, which its baseline solves
    /// and each of its fault draws starts from.
    Degradation(Topology),
}

/// A relative cell's topology, the traffic of its solves, and a Facebook
/// cell's rack count.
pub struct RelativeBase {
    topo: Topology,
    tm: RelativeTm,
    racks: Option<usize>,
}

/// What one unit of a cell yields ([`CellSpec::unit`]).
pub enum Unit {
    /// A one-unit cell's values.
    Whole(CellValues),
    /// One solve of a multi-solve cell: its bounds and status.
    Solve(Evaluated),
}

impl CellSpec {
    /// How many units the cell runs as under `cfg`: a relative cell's 1 + k
    /// solves, a degradation cell's baseline and `failure_seeds` draws, or
    /// one.
    pub fn units(&self, cfg: &EvalConfig) -> usize {
        match self {
            CellSpec::Relative { .. } | CellSpec::FacebookRelative { .. } => relative_solves(cfg),
            CellSpec::Degradation { failure_seeds, .. } => 1 + (*failure_seeds).max(1) as usize,
            _ => 1,
        }
    }

    /// True when each unit of the cell is one solve with a certificate of its
    /// own: a throughput, relative or degradation cell. Any other kind makes
    /// everything inside its one unit ([`Base::Whole`]) and has no
    /// certificate.
    pub fn solves(&self) -> bool {
        matches!(
            self,
            CellSpec::Throughput { .. }
                | CellSpec::Relative { .. }
                | CellSpec::FacebookRelative { .. }
                | CellSpec::Degradation { .. }
        )
    }

    /// Makes what the cell's units share: a throughput, relative or
    /// degradation cell builds its topology (and generates a throughput
    /// cell's matrix, or places a Facebook cell's matrix, on it).
    pub fn base(&self) -> Base {
        match self {
            CellSpec::Throughput { topo, tm, tm_seed } => {
                let topo = build_topo(topo);
                let matrix = tm.generate(&topo, *tm_seed);
                Base::Throughput(topo, matrix)
            }
            CellSpec::Relative { topo, tm } => Base::Relative(RelativeBase {
                topo: build_topo(topo),
                tm: RelativeTm::PerGraph(tm.clone()),
                racks: None,
            }),
            CellSpec::FacebookRelative {
                topo,
                matrix,
                shuffled,
                tm_seed,
                shuffle_seed,
            } => {
                let topo = build_topo(topo);
                let tm = match matrix {
                    FbMatrix::Hadoop => facebook::tm_h(facebook::FACEBOOK_RACKS, *tm_seed),
                    FbMatrix::Frontend => facebook::tm_f(facebook::FACEBOOK_RACKS, *tm_seed),
                };
                let racks = topo.server_switches().len().min(tm.num_switches());
                let placed = if *shuffled {
                    let shuffled_tm =
                        ops::shuffle(&ops::downsample(&tm, racks.max(2)), *shuffle_seed);
                    place_rack_tm(&shuffled_tm, &topo)
                } else {
                    place_rack_tm(&tm, &topo)
                };
                Base::Relative(RelativeBase {
                    topo,
                    tm: RelativeTm::Fixed(placed),
                    racks: Some(racks),
                })
            }
            CellSpec::Degradation { topo, .. } => Base::Degradation(build_topo(topo)),
            _ => Base::Whole,
        }
    }

    /// Runs unit `i` of the cell on its `base`. With `capture` set, each
    /// solve also returns the verdict on its own certificate
    /// ([`Evaluated::certification`]); a run passes `false`.
    pub fn unit(&self, base: &Base, cfg: &EvalConfig, i: usize, capture: bool) -> Unit {
        match base {
            Base::Whole => Unit::Whole(self.compute_whole(cfg)),
            Base::Throughput(topo, tm) => Unit::Solve(solve(topo, tm, cfg, capture)),
            Base::Relative(r) => Unit::Solve(relative_solve(&r.topo, &r.tm, cfg, i, capture)),
            Base::Degradation(topo) => Unit::Solve(self.degradation_solve(topo, cfg, i, capture)),
        }
    }

    /// Solve `i` of a degradation cell on its unfaulted `base`: the baseline
    /// (`i = 0`) or fault draw `seed + i - 1`, each through the
    /// degradation-aware evaluator.
    fn degradation_solve(
        &self,
        base: &Topology,
        cfg: &EvalConfig,
        i: usize,
        capture: bool,
    ) -> Evaluated {
        let CellSpec::Degradation {
            tm,
            tm_seed,
            link_fail_frac,
            switch_failures,
            seed,
            ..
        } = self
        else {
            unreachable!("only a degradation cell has a degradation base")
        };
        let faulted = (i > 0).then(|| {
            let plan = FaultPlan {
                link_failures: (link_fail_frac * base.num_links() as f64).round().max(0.0) as usize,
                switch_failures: *switch_failures,
                seed: seed.wrapping_add(i as u64 - 1),
            };
            apply_faults(base, &plan).0
        });
        let topo = faulted.as_ref().unwrap_or(base);
        // A draw re-stencils the TM on the survivors: failed switches carry
        // no servers, so their pairs drop out of the grid.
        evaluate_throughput_status_with(topo, &tm.generate(topo, *tm_seed), cfg, capture)
    }

    /// Combines the cell's units, in index order, into its values.
    pub fn combine(&self, base: &Base, units: Vec<Unit>) -> CellValues {
        let mut solves = Vec::with_capacity(units.len());
        for unit in units {
            match unit {
                Unit::Whole(values) => return values,
                Unit::Solve(solve) => solves.push(solve),
            }
        }
        let mut out = CellValues::default();
        match base {
            Base::Throughput(_, tm) => {
                let bounds = solves[0].bounds;
                out.push("lower", bounds.lower);
                out.push("upper", bounds.upper);
                out.push_text("tm_fp", format!("{:016x}", tm.fingerprint()));
                return out;
            }
            Base::Degradation(_) => return degradation_values(&solves),
            Base::Whole | Base::Relative(_) => {}
        }
        let r = RelativeThroughput::from_solves(solves.iter().map(|e| e.bounds.value()).collect());
        if let Base::Relative(RelativeBase {
            racks: Some(racks), ..
        }) = base
        {
            out.push("racks", *racks as f64);
        }
        out.push("absolute", r.absolute);
        out.push("rel_mean", r.relative.mean);
        out.push("rel_ci95", r.relative.ci95);
        if let CellSpec::Relative { .. } = self {
            out.push("rel_std", r.relative.std_dev);
            for (i, s) in r.random_graph_samples.iter().enumerate() {
                out.push(format!("sample_{i}"), *s);
            }
        }
        out
    }

    /// Runs the computation: every unit in order on one base.
    pub fn compute(&self, cfg: &EvalConfig) -> CellValues {
        let base = self.base();
        let units = (0..self.units(cfg))
            .map(|i| self.unit(&base, cfg, i, false))
            .collect();
        self.combine(&base, units)
    }

    /// A one-unit cell's computation.
    fn compute_whole(&self, cfg: &EvalConfig) -> CellValues {
        let mut out = CellValues::default();
        match self {
            CellSpec::CutEstimate { topo, tm, tm_seed } => {
                let topo = build_topo(topo);
                let matrix = tm.generate(&topo, *tm_seed);
                let report = estimate_sparsest_cut(&topo.graph, &matrix);
                out.push("best_sparsity", report.best_sparsity);
                out.push_text("tm_fp", format!("{:016x}", matrix.fingerprint()));
                let found = report.found_by(1e-6);
                for est in ALL_ESTIMATORS {
                    out.push(
                        format!("found_{}", est.name().to_lowercase().replace(' ', "_")),
                        if found.contains(&est) { 1.0 } else { 0.0 },
                    );
                }
            }
            CellSpec::PathLengthRatio { topo, rnd_seed } => {
                let topo = build_topo(topo);
                let rnd = same_equipment(&topo, *rnd_seed);
                let apl_topo = average_path_length(&topo.graph).unwrap_or(f64::NAN);
                let apl_rnd = average_path_length(&rnd.graph).unwrap_or(f64::NAN);
                out.push("apl_topo", apl_topo);
                out.push("apl_rnd", apl_rnd);
                out.push("ratio", apl_topo / apl_rnd);
            }
            CellSpec::PathRestricted {
                topo,
                k_paths,
                tm_seed,
            } => {
                let topo = build_topo(topo);
                let tm = TmSpec::AllToAll.generate(&topo, *tm_seed);
                let paths = k_shortest_path_sets(&topo.graph, &tm, *k_paths);
                // Convert the per-switch-flow counting estimate to per-server
                // units so differently concentrated networks are comparable.
                let counting = SubflowCountingEstimator::new().estimate(&paths)
                    * paths.len() as f64
                    / topo.num_servers() as f64;
                let lp = PathRestrictedSolver::new().solve(&topo.graph, &paths);
                out.push("counting", counting);
                out.push("lp", lp.value());
            }
            CellSpec::Search {
                start,
                tm,
                tm_seed,
                max_steps,
            } => {
                run_search(start, tm, *tm_seed, *max_steps, cfg, &mut out);
            }
            _ => unreachable!("a solving cell runs as its solves"),
        }
        out
    }
}

/// Combines a degradation cell's solves, the baseline first, in index
/// order: each draw's throughput relative to the baseline, their statistics,
/// and how many demands and draws the faults degraded.
fn degradation_values(solves: &[Evaluated]) -> CellValues {
    let (baseline, draws) = solves.split_first().expect("a baseline solve");
    let base_value = baseline.bounds.value();
    let mut out = CellValues::default();
    let mut ratios = Vec::with_capacity(draws.len());
    let mut dropped_total = 0usize;
    let mut degraded = 0u64;
    for (i, draw) in draws.iter().enumerate() {
        let ratio = if base_value > 0.0 {
            draw.bounds.value() / base_value
        } else {
            0.0
        };
        ratios.push(ratio);
        out.push(format!("ratio_{i}"), ratio);
        if let SolveStatus::DisconnectedDemandsDropped { dropped, .. } = draw.status {
            dropped_total += dropped;
        }
        if draw.status.is_degraded() {
            degraded += 1;
        }
    }
    let stats = Stats::from_samples(&ratios);
    out.push("baseline", base_value);
    out.push("rel_mean", stats.mean);
    out.push("rel_std", stats.std_dev);
    out.push("rel_ci95", stats.ci95);
    out.push("dropped_mean", dropped_total as f64 / draws.len() as f64);
    out.push("degraded_draws", degraded as f64);
    out.push_text("baseline_status", baseline.status.label());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::eval::evaluate;

    #[test]
    fn throughput_cell_matches_direct_evaluation() {
        let spec = CellSpec::Throughput {
            topo: TopoSpec::Hypercube {
                dims: 3,
                servers: 1,
            },
            tm: TmSpec::AllToAll,
            tm_seed: 1,
        };
        let cfg = EvalConfig::fast();
        let v = spec.compute(&cfg);
        let topo = tb_topology::hypercube::hypercube(3, 1);
        let tm = TmSpec::AllToAll.generate(&topo, 1);
        let direct = evaluate(&topo, &tm, &cfg).bounds;
        assert_eq!(v.num("lower").to_bits(), direct.lower.to_bits());
        assert_eq!(v.num("upper").to_bits(), direct.upper.to_bits());
    }

    /// A Facebook cell places one fixed matrix on the topology and on every
    /// same-equipment random graph.
    #[test]
    fn facebook_relative_cell_runs() {
        let spec = CellSpec::FacebookRelative {
            topo: TopoSpec::Hypercube {
                dims: 4,
                servers: 1,
            },
            matrix: FbMatrix::Hadoop,
            shuffled: false,
            tm_seed: 1,
            shuffle_seed: 1,
        };
        let v = spec.compute(&EvalConfig::fast());
        assert_eq!(v.num("racks"), 16.0);
        assert!(v.num("absolute") > 0.0);
        assert!(v.num("rel_mean") > 0.0);
        assert!(
            v.get("sample_0").is_none(),
            "a Facebook cell keeps no samples"
        );
    }

    #[test]
    fn cell_values_lookup_and_bit_identity() {
        let mut a = CellValues::default();
        a.push("x", 0.1 + 0.2);
        a.push_text("note", "hi");
        let mut b = CellValues::default();
        b.push("x", 0.3);
        b.push_text("note", "hi");
        assert!(!a.bit_identical(&b), "0.1+0.2 != 0.3 bitwise");
        assert_eq!(a.get("missing"), None);
        assert_eq!(a.text("note"), Some("hi"));
        assert!((a.num("x") - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn missing_metric_panics() {
        CellValues::default().num("nope");
    }

    /// A metric whose decimal `value` disagrees with its `bits` is rejected:
    /// readers would see one number while the engine compares another.
    #[test]
    fn metric_value_must_match_its_bits() {
        let mut v = CellValues::default();
        v.push("lower", 0.1 + 0.2);
        v.push("upper", f64::INFINITY);
        let text = Json::obj(v.to_json()).to_string();
        let decode = |text: &str| CellValues::from_json(&Json::parse(text).unwrap());
        assert!(decode(&text).unwrap().bit_identical(&v));
        // The decimal edited, the bits left alone.
        let edited = text.replace("0.30000000000000004", "123.0");
        assert_ne!(edited, text);
        let err = decode(&edited).unwrap_err();
        assert_eq!(err, "'values.lower' is undecodable");
        // A `null` only stands for a non-finite value.
        let nulled = text.replace("0.30000000000000004", "null");
        assert!(decode(&nulled).is_err());
        // A non-finite value must be `null`, and the decimal is not optional.
        let shown = text.replace("\"value\":null", "\"value\":1e308");
        assert!(decode(&shown).is_err());
        let missing = text.replace(",\"value\":null", "");
        assert!(decode(&missing).is_err());
    }

    fn degradation_spec(link_fail_frac: f64, switch_failures: usize) -> CellSpec {
        CellSpec::Degradation {
            topo: TopoSpec::Hypercube {
                dims: 4,
                servers: 1,
            },
            tm: TmSpec::AllToAll,
            tm_seed: 1,
            link_fail_frac,
            switch_failures,
            failure_seeds: 3,
            seed: 7,
        }
    }

    #[test]
    fn degradation_cell_is_deterministic_and_bounded() {
        let spec = degradation_spec(0.125, 1);
        let cfg = EvalConfig::fast();
        let a = spec.compute(&cfg);
        let b = spec.compute(&cfg);
        assert!(a.bit_identical(&b), "degradation draws must be seeded");
        assert!(a.num("baseline") > 0.0);
        let mean = a.num("rel_mean");
        assert!(mean.is_finite());
        assert!(
            (0.0..=1.05).contains(&mean),
            "faults should not raise throughput, got {mean}"
        );
        assert!(a.get("ratio_2").is_some());
        assert!(a.num("dropped_mean") >= 0.0);
    }

    #[test]
    fn degradation_without_faults_is_exactly_unity() {
        let spec = degradation_spec(0.0, 0);
        let v = spec.compute(&EvalConfig::fast());
        for ratio in ["ratio_0", "ratio_1", "ratio_2"] {
            assert_eq!(v.num(ratio).to_bits(), 1.0f64.to_bits());
        }
        assert_eq!(v.num("rel_mean").to_bits(), 1.0f64.to_bits());
        assert_eq!(v.num("degraded_draws"), 0.0);
        assert_eq!(v.text("baseline_status"), Some("converged"));
    }
}
