//! Sweep cells: the unit of scheduling, caching and result storage.
//!
//! A [`CellSpec`] declares one computation — a topology recipe, a traffic
//! recipe and a metric kind — with every random seed pinned inside the spec.
//! Together with the run's [`EvalConfig`] it fully
//! determines the result, which is what makes the on-disk cache sound: the
//! cache key is derived from `(spec, eval config)` and nothing else.

use crate::eval::{
    evaluate, evaluate_throughput_status_with, relative_throughput, relative_throughput_fixed_tm,
    EvalConfig,
};
use crate::spec::TmSpec;
use crate::stats::Stats;
use crate::sweep::json::Json;
use crate::sweep::topo::TopoSpec;
use std::collections::BTreeMap;
use tb_cuts::{estimate_sparsest_cut, ALL_ESTIMATORS};
use tb_flow::restricted::{k_shortest_path_sets, PathRestrictedSolver, SubflowCountingEstimator};
use tb_flow::ThroughputCertificate;
use tb_flow::{SolveStatus, SolverWorkspace};
use tb_graph::shortest_path::average_path_length;
use tb_topology::faults::{apply_faults, FaultPlan};
use tb_topology::jellyfish::same_equipment;
use tb_topology::Topology;
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
    /// config, exactly as [`relative_throughput`] always has).
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
    /// estimate and the exact LP value (Fig. 15).
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

/// An optimality certificate attached to one cell's result: the solver's
/// [`ThroughputCertificate`] plus the [`SolveStatus`] label it was recorded
/// under. The status travels with the evidence because
/// the verifier's contract depends on it: a `budget-exhausted` cell is
/// *unverifiable* (its bounds are valid but meet no accuracy contract), never
/// silently certified.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCertificate {
    /// The self-contained certificate (flow, lengths, derived claims).
    pub cert: ThroughputCertificate,
    /// The solve-status label (`"converged"`, `"budget-exhausted"`, …).
    pub status: String,
}

fn bits_arr(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::f64_bits(x)).collect())
}

fn arr_bits(doc: &Json, key: &str) -> Option<Vec<f64>> {
    doc.get(key)?
        .as_arr()?
        .iter()
        .map(Json::as_f64_bits)
        .collect()
}

impl CellCertificate {
    /// Canonical FNV-1a digest of every stored bit pattern, in serialization
    /// order. Stored in the block as `"fnv"` and re-checked on parse, making
    /// serialized evidence tamper-evident bit-for-bit: the semantic verifier
    /// necessarily tolerates sub-tolerance perturbations of the flow vector
    /// (a one-ulp nudge violates no constraint), so integrity of the stored
    /// bytes is pinned separately from validity of the proven bounds.
    fn evidence_digest(&self) -> u64 {
        let mut text = format!("{}|{}|", self.cert.num_nodes, self.cert.num_arcs);
        for xs in [&self.cert.flow, &self.cert.served, &self.cert.lengths] {
            for x in xs.iter() {
                text.push_str(&format!("{:016x},", x.to_bits()));
            }
            text.push('|');
        }
        for x in [self.cert.d_l, self.cert.lower, self.cert.upper] {
            text.push_str(&format!("{:016x},", x.to_bits()));
        }
        text.push('|');
        text.push_str(&self.status);
        crate::sweep::cache::fnv1a(&text)
    }

    /// Serializes the certificate block (all floats as IEEE-754 bit
    /// patterns, so cache and artifact round trips are bit-exact; the
    /// `"fnv"` field is the evidence digest checked on parse).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nodes", Json::Num(self.cert.num_nodes as f64)),
            ("arcs", Json::Num(self.cert.num_arcs as f64)),
            ("flow", bits_arr(&self.cert.flow)),
            ("served", bits_arr(&self.cert.served)),
            ("lengths", bits_arr(&self.cert.lengths)),
            ("d_l", Json::f64_bits(self.cert.d_l)),
            ("lower", Json::f64_bits(self.cert.lower)),
            ("upper", Json::f64_bits(self.cert.upper)),
            ("status", Json::str(self.status.clone())),
            ("fnv", Json::str(format!("{:016x}", self.evidence_digest()))),
        ])
    }

    /// Parses a certificate block; `None` on any structural defect (missing
    /// field, undecodable bit pattern, non-integral dimension) or when the
    /// stored digest does not match the evidence — any single-bit mutation
    /// of the block fails here.
    pub(crate) fn from_json(doc: &Json) -> Option<Self> {
        let dim = |key: &str| -> Option<usize> {
            let x = doc.get(key)?.as_num()?;
            (x.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&x)).then_some(x as usize)
        };
        let parsed = CellCertificate {
            cert: ThroughputCertificate {
                num_nodes: dim("nodes")?,
                num_arcs: dim("arcs")?,
                flow: arr_bits(doc, "flow")?,
                served: arr_bits(doc, "served")?,
                lengths: arr_bits(doc, "lengths")?,
                d_l: doc.get("d_l")?.as_f64_bits()?,
                lower: doc.get("lower")?.as_f64_bits()?,
                upper: doc.get("upper")?.as_f64_bits()?,
            },
            status: doc.get("status")?.as_str()?.to_string(),
        };
        let stored = doc.get("fnv")?.as_str()?;
        (stored == format!("{:016x}", parsed.evidence_digest())).then_some(parsed)
    }

    /// True when every stored float matches bit-for-bit (and the status and
    /// dimensions match exactly).
    pub fn bit_identical(&self, other: &CellCertificate) -> bool {
        let eq_bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        self.status == other.status
            && self.cert.num_nodes == other.cert.num_nodes
            && self.cert.num_arcs == other.cert.num_arcs
            && eq_bits(&self.cert.flow, &other.cert.flow)
            && eq_bits(&self.cert.served, &other.cert.served)
            && eq_bits(&self.cert.lengths, &other.cert.lengths)
            && self.cert.d_l.to_bits() == other.cert.d_l.to_bits()
            && self.cert.lower.to_bits() == other.cert.lower.to_bits()
            && self.cert.upper.to_bits() == other.cert.upper.to_bits()
    }
}

/// A cell's result: named floating-point metrics (bit-exact through the
/// cache) plus optional named text annotations, both in name order, and —
/// for certified throughput cells — the optimality certificate behind the
/// numbers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellValues {
    nums: BTreeMap<String, f64>,
    texts: BTreeMap<String, String>,
    certificate: Option<CellCertificate>,
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

    /// Attaches an optimality certificate to this result.
    pub(crate) fn set_certificate(&mut self, cert: CellCertificate) {
        self.certificate = Some(cert);
    }

    /// The attached certificate, if any.
    pub fn certificate(&self) -> Option<&CellCertificate> {
        self.certificate.as_ref()
    }

    /// True when every metric of `self` and `other` matches bit-for-bit (and
    /// texts match exactly, and certificates are bitwise-equal or both
    /// absent).
    pub fn bit_identical(&self, other: &CellValues) -> bool {
        let certs_match = match (&self.certificate, &other.certificate) {
            (None, None) => true,
            (Some(a), Some(b)) => a.bit_identical(b),
            _ => false,
        };
        certs_match
            && self.nums.len() == other.nums.len()
            && self.texts == other.texts
            && self
                .nums
                .iter()
                .zip(&other.nums)
                .all(|((an, av), (bn, bv))| an == bn && av.to_bits() == bv.to_bits())
    }

    /// The fields this result contributes to a cache entry or an artifact
    /// cell (one encoding for both): `values` maps each metric to its
    /// IEEE-754 `bits` plus a decimal `value` for human readers, `texts` each
    /// annotation, and `certificate` is present only when one is attached,
    /// so uncertified documents carry no such key.
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
        let mut fields = vec![("values", Json::Obj(values)), ("texts", Json::Obj(texts))];
        if let Some(cert) = &self.certificate {
            fields.push(("certificate", cert.to_json()));
        }
        fields
    }

    /// Decodes the fields [`to_json`](Self::to_json) wrote into `doc`; the
    /// error names the first undecodable one.
    pub(crate) fn from_json(doc: &Json) -> Result<CellValues, String> {
        let certificate = (doc.get("certificate"))
            .map(|block| CellCertificate::from_json(block).ok_or("'certificate' is undecodable"))
            .transpose()?;
        Ok(CellValues {
            nums: decode_map(doc, "values", |v| v.get("bits")?.as_f64_bits())?,
            texts: decode_map(doc, "texts", |v| Some(v.as_str()?.to_string()))?,
            certificate,
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

/// Same-equipment neighbor moves of a searchable design, in a fixed
/// deterministic order. Only the three searchable families produce neighbors;
/// everything else is a fixed point (the climb stops immediately).
fn search_neighbors(spec: &TopoSpec) -> Vec<TopoSpec> {
    match *spec {
        // Fixed `degree + servers` ports per switch: trade server ports
        // against network ports.
        TopoSpec::Jellyfish {
            switches,
            degree,
            servers,
            seed,
        } => {
            let mut out = Vec::new();
            if degree > 3 {
                out.push(TopoSpec::Jellyfish {
                    switches,
                    degree: degree - 1,
                    servers: servers + 1,
                    seed,
                });
            }
            if servers > 1 && degree + 1 < switches {
                out.push(TopoSpec::Jellyfish {
                    switches,
                    degree: degree + 1,
                    servers: servers - 1,
                    seed,
                });
            }
            out
        }
        // Same radix and server floor; nudging the target bisection moves the
        // design search to a different lattice shape.
        TopoSpec::HyperX {
            radix,
            min_servers,
            bisection,
        } => [bisection - 0.1, bisection + 0.1]
            .into_iter()
            .filter(|b| (0.05..=1.0).contains(b))
            .map(|bisection| TopoSpec::HyperX {
                radix,
                min_servers,
                bisection,
            })
            .collect(),
        // Long-hop link budget: one generator more or fewer on the same
        // hypercube skeleton.
        TopoSpec::LongHop {
            dim,
            degree,
            servers,
        } => {
            let mut out = Vec::new();
            if degree > dim {
                out.push(TopoSpec::LongHop {
                    dim,
                    degree: degree - 1,
                    servers,
                });
            }
            if degree + 1 < (1usize << dim) {
                out.push(TopoSpec::LongHop {
                    dim,
                    degree: degree + 1,
                    servers,
                });
            }
            out
        }
        _ => Vec::new(),
    }
}

/// The search objective: aggregate admitted demand (hose-normalized
/// throughput × servers) per unit equipment cost. The cost model charges one
/// unit per link plus four per switch — crude, but deterministic and enough
/// to make the link-budget trade-offs (Long Hop, HyperX) genuine.
fn search_objective(topo: &Topology, throughput: f64) -> f64 {
    let cost = topo.num_links() as f64 + 4.0 * topo.num_switches() as f64;
    if cost > 0.0 {
        throughput * topo.num_servers() as f64 / cost
    } else {
        0.0
    }
}

/// A compact parameter label for search-trajectory reporting.
fn search_params(spec: &TopoSpec) -> String {
    match spec {
        TopoSpec::Jellyfish {
            switches,
            degree,
            servers,
            ..
        } => format!("N={switches} r={degree} s={servers}"),
        TopoSpec::HyperX { bisection, .. } => format!("beta={bisection:.2}"),
        TopoSpec::LongHop { dim, degree, .. } => format!("dim={dim} r={degree}"),
        other => format!("{other:?}"),
    }
}

/// The deterministic hill climb behind [`CellSpec::Search`]. Evaluates the
/// start design, then repeatedly moves to the best strictly-improving
/// neighbor until no neighbor improves or `max_steps` moves were accepted.
fn run_search(
    start: &TopoSpec,
    tm: &TmSpec,
    tm_seed: u64,
    max_steps: usize,
    cfg: &EvalConfig,
    ws: &mut SolverWorkspace,
    out: &mut CellValues,
) {
    let mut evals = 0usize;
    let mut evaluate = |spec: &TopoSpec| -> Option<(f64, f64)> {
        let topo = spec.build()?;
        let matrix = tm.generate(&topo, tm_seed);
        let value = evaluate(&topo, &matrix, cfg, ws).bounds.value();
        evals += 1;
        Some((value, search_objective(&topo, value)))
    };

    let mut incumbent = start.clone();
    let (start_value, start_objective) =
        evaluate(&incumbent).unwrap_or_else(|| panic!("unsatisfiable search start {start:?}"));
    let mut value = start_value;
    let mut objective = start_objective;
    let mut accepted = 0usize;
    out.push("step_0_objective", objective);
    out.push_text("step_0_params", search_params(&incumbent));
    while accepted < max_steps {
        let mut best: Option<(TopoSpec, f64, f64)> = None;
        for neighbor in search_neighbors(&incumbent) {
            let Some((v, obj)) = evaluate(&neighbor) else {
                continue; // unsatisfiable neighbor (e.g. no HyperX design)
            };
            if obj > objective && best.as_ref().is_none_or(|(_, _, b)| obj > *b) {
                best = Some((neighbor, v, obj));
            }
        }
        let Some((next, v, obj)) = best else {
            break; // local optimum
        };
        incumbent = next;
        value = v;
        objective = obj;
        accepted += 1;
        out.push(format!("step_{accepted}_objective"), objective);
        out.push_text(format!("step_{accepted}_params"), search_params(&incumbent));
    }
    out.push("start_value", start_value);
    out.push("start_objective", start_objective);
    out.push("final_value", value);
    out.push("final_objective", objective);
    out.push("steps_accepted", accepted as f64);
    out.push("evals", evals as f64);
    out.push_text("final_params", search_params(&incumbent));
    out.push_text("final_spec", format!("{incumbent:?}"));
}

impl CellSpec {
    /// Runs the computation. `ws` amortizes solver scratch allocations across
    /// cells on the same worker; results are identical to a fresh workspace.
    pub fn compute(&self, cfg: &EvalConfig, ws: &mut SolverWorkspace) -> CellValues {
        let mut out = CellValues::default();
        match self {
            CellSpec::Throughput { topo, tm, tm_seed } => {
                let topo = build_topo(topo);
                let matrix = tm.generate(&topo, *tm_seed);
                // Capturing the certificate is side-effect-free, so the pushed
                // metrics are bit-identical with `certify` on or off — only the
                // evidence block is added.
                let e = evaluate(&topo, &matrix, cfg, ws);
                if let Some(cert) = e.certificate {
                    out.set_certificate(CellCertificate {
                        cert,
                        status: e.status.label(),
                    });
                }
                out.push("lower", e.bounds.lower);
                out.push("upper", e.bounds.upper);
                out.push_text("tm_fp", format!("{:016x}", matrix.fingerprint()));
            }
            CellSpec::Relative { topo, tm } => {
                let topo = build_topo(topo);
                let r = relative_throughput(&topo, tm, cfg);
                out.push("absolute", r.absolute);
                out.push("rel_mean", r.relative.mean);
                out.push("rel_std", r.relative.std_dev);
                out.push("rel_ci95", r.relative.ci95);
                for (i, s) in r.random_graph_samples.iter().enumerate() {
                    out.push(format!("sample_{i}"), *s);
                }
            }
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
                let r = relative_throughput_fixed_tm(&topo, &placed, cfg);
                out.push("racks", racks as f64);
                out.push("absolute", r.absolute);
                out.push("rel_mean", r.relative.mean);
                out.push("rel_ci95", r.relative.ci95);
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
            CellSpec::Degradation {
                topo,
                tm,
                tm_seed,
                link_fail_frac,
                switch_failures,
                failure_seeds,
                seed,
            } => {
                let base = build_topo(topo);
                let base_tm = tm.generate(&base, *tm_seed);
                let (baseline, base_status) =
                    evaluate_throughput_status_with(&base, &base_tm, cfg, ws);
                let base_value = baseline.value();
                let link_failures =
                    (link_fail_frac * base.num_links() as f64).round().max(0.0) as usize;
                let draws = (*failure_seeds).max(1);
                let mut ratios = Vec::with_capacity(draws as usize);
                let mut dropped_total = 0usize;
                let mut degraded = 0u64;
                for i in 0..draws {
                    let plan = FaultPlan {
                        link_failures,
                        switch_failures: *switch_failures,
                        seed: seed.wrapping_add(i),
                    };
                    let (faulted, _report) = apply_faults(&base, &plan);
                    // Re-stencil the TM on the survivors: failed switches
                    // carry no servers, so their pairs drop out of the grid.
                    let faulted_tm = tm.generate(&faulted, *tm_seed);
                    let (bounds, status) =
                        evaluate_throughput_status_with(&faulted, &faulted_tm, cfg, ws);
                    let ratio = if base_value > 0.0 {
                        bounds.value() / base_value
                    } else {
                        0.0
                    };
                    ratios.push(ratio);
                    out.push(format!("ratio_{i}"), ratio);
                    if let SolveStatus::DisconnectedDemandsDropped { dropped, .. } = status {
                        dropped_total += dropped;
                    }
                    if status.is_degraded() {
                        degraded += 1;
                    }
                }
                let stats = Stats::from_samples(&ratios);
                out.push("baseline", base_value);
                out.push("rel_mean", stats.mean);
                out.push("rel_std", stats.std_dev);
                out.push("rel_ci95", stats.ci95);
                out.push("dropped_mean", dropped_total as f64 / draws as f64);
                out.push("degraded_draws", degraded as f64);
                out.push_text("baseline_status", base_status.label());
            }
            CellSpec::Search {
                start,
                tm,
                tm_seed,
                max_steps,
            } => {
                run_search(start, tm, *tm_seed, *max_steps, cfg, ws, &mut out);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut ws = SolverWorkspace::new();
        let v = spec.compute(&cfg, &mut ws);
        let topo = tb_topology::hypercube::hypercube(3, 1);
        let tm = TmSpec::AllToAll.generate(&topo, 1);
        let direct = crate::evaluate_throughput(&topo, &tm, &cfg);
        assert_eq!(v.num("lower").to_bits(), direct.lower.to_bits());
        assert_eq!(v.num("upper").to_bits(), direct.upper.to_bits());
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

    fn sample_certificate() -> CellCertificate {
        CellCertificate {
            cert: tb_flow::ThroughputCertificate {
                num_nodes: 4,
                num_arcs: 3,
                // Deliberately awkward bit patterns: subnormal, a value with
                // no short decimal form, and an exact dyadic.
                flow: vec![5e-324, 1.0 / 3.0, 0.25],
                served: vec![0.5, 0.125],
                lengths: vec![1.0, 0.1, 2.0],
                d_l: 3.1,
                lower: 0.5,
                upper: 0.6180339887498949,
            },
            status: "converged".into(),
        }
    }

    #[test]
    fn certificate_json_roundtrip_is_bit_exact() {
        let cc = sample_certificate();
        let text = cc.to_json().to_string();
        let back = CellCertificate::from_json(&Json::parse(&text).unwrap())
            .expect("round trip must decode");
        assert!(cc.bit_identical(&back));
        assert_eq!(back.status, "converged");
    }

    /// Every field of the serialized block is load-bearing: flipping the low
    /// bit of any stored float, editing the status, or dropping the digest
    /// makes `from_json` reject the block.
    #[test]
    fn certificate_digest_makes_every_stored_bit_load_bearing() {
        let cc = sample_certificate();
        let text = cc.to_json().to_string();
        // Flip the low bit of every 16-hex-digit bit pattern in the block,
        // one at a time (this covers flow, served, lengths, d_l, lower,
        // upper — and the digest itself).
        let bytes = text.as_bytes();
        let mut flips = 0;
        for at in 0..bytes.len().saturating_sub(17) {
            if bytes[at] != b'"' || bytes[at + 17] != b'"' {
                continue;
            }
            let hex = &text[at + 1..at + 17];
            let Ok(v) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            let mutated = text.replacen(hex, &format!("{:016x}", v ^ 1), 1);
            assert!(
                CellCertificate::from_json(&Json::parse(&mutated).unwrap()).is_none(),
                "flipping the value at byte {at} went undetected"
            );
            flips += 1;
        }
        assert!(
            flips >= 11,
            "expected to flip every stored pattern, got {flips}"
        );
        // Status text is covered by the digest too.
        let mutated = text.replacen("converged", "Converged", 1);
        assert!(CellCertificate::from_json(&Json::parse(&mutated).unwrap()).is_none());
        // And a block with the digest stripped is structurally invalid.
        let Json::Obj(mut map) = cc.to_json() else {
            unreachable!()
        };
        map.remove("fnv");
        assert!(CellCertificate::from_json(&Json::Obj(map)).is_none());
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
        let a = spec.compute(&cfg, &mut SolverWorkspace::new());
        let b = spec.compute(&cfg, &mut SolverWorkspace::new());
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
        let v = spec.compute(&EvalConfig::fast(), &mut SolverWorkspace::new());
        for ratio in ["ratio_0", "ratio_1", "ratio_2"] {
            assert_eq!(v.num(ratio).to_bits(), 1.0f64.to_bits());
        }
        assert_eq!(v.num("rel_mean").to_bits(), 1.0f64.to_bits());
        assert_eq!(v.num("degraded_draws"), 0.0);
        assert_eq!(v.text("baseline_status"), Some("converged"));
    }
}
