//! Exact throughput via linear programming, solved with the bundled revised
//! simplex (`tb-lp`). Two formulations share one certificate epilogue; the
//! solver takes whichever LP has fewer rows (`path_master_is_smaller`):
//!
//! * **Arc LP** (all-to-all): `x[d][a]` = flow destined to switch `d` on
//!   arc `a`, plus the throughput scalar `t`; capacity rows
//!   `sum_d x[d][a] <= cap(a)` and per-(destination, node) conservation rows
//!   `outflow_d(v) - inflow_d(v) = t * T(v, d)`. This is the paper's Gurobi
//!   LP aggregated by destination (`O(n · m)` variables instead of
//!   `O(n^2 · m)`). The simplex starts from the vertex the LP's shape hands
//!   out — every demand routed along the hop-count in-tree of its
//!   destination — so phase 1 never runs.
//!
//! * **Path column generation** (every TM with fewer commodities than the
//!   arc LP has conservation rows: matchings, random matchings): a
//!   restricted master over path variables — capacity rows plus one coverage
//!   row `sum_{p in P_j} x_p = t * d_j` per commodity — grown by shortest-path
//!   pricing under the capacity duals. The master has `m + k` rows instead of
//!   the arc LP's `m + |dests| · (n-1)`: 112 instead of 336 for a 16-switch
//!   flattened butterfly under longest matching, 448 instead of 4416 for
//!   hypercube-64. It is built once and kept open ([`tb_lp::OpenLp`]): each
//!   round appends the paths it priced as columns at value zero and resumes
//!   primal simplex from the previous optimum's basis and factors.
//!   Convergence is certified, not assumed: each round derives the dual bound
//!   `D(l)/alpha(l)` from the clamped capacity duals — the exact quantity the
//!   emitted [`ThroughputCertificate`] carries — and the loop only terminates
//!   successfully once that bound closes onto the master value to within
//!   `COLGEN_GAP`. A hint (a certificate of the same instance, e.g. the
//!   FPTAS's) seeds the column pool with shortest paths under its length
//!   function (near-optimal duals).
//!
//! At seed 1 the sweep suite's exact path (at most 16 switches and 64 flows)
//! runs 75 solves: 71 by column generation and the four all-to-all ones as
//! arc LPs. The three `Flattened BF/1/LM` instances, 336-row arc LPs of 471,
//! 990 and 1,161 pivots before, are 112-row masters now.
//!
//! Degenerate inputs short-circuit *before* any LP is built: an empty traffic
//! matrix (or one with only self-demands / zero amounts) leaves `t` entirely
//! unconstrained in the LP, and a disconnected demand pair admits no flow at
//! any `t > 0`. Both return the strict-zero semantics the evaluation layer
//! promises instead of surfacing an unbounded-LP error.

use crate::certificate::ThroughputCertificate;
use crate::instance::FlowProblem;
use crate::ThroughputBounds;
use tb_graph::connectivity::connected_components;
use tb_graph::Graph;
use tb_lp::{ConstraintOp, LinearProgram, LpError};
use tb_traffic::TrafficMatrix;

/// What a variable proposed as basic at level zero carries in a
/// [`tb_lp::solve_with_hint`] guess: positive, and nothing when added up.
const BASIC_AT_ZERO: f64 = f64::MIN_POSITIVE;

/// Weight of an arc's relative load in the lengths the arc LP's starting
/// in-trees are grown under: small enough to act as a tie-break among
/// hop-count shortest paths.
const TREE_LOAD_TIE_BREAK: f64 = 0.01;

/// Relative duality gap at which column generation declares optimality. The
/// bound compared is the certificate's own `D(l)/alpha(l)`, so a successful
/// exit *is* a certified solve, not a heuristic stop.
const COLGEN_GAP: f64 = 1e-9;

/// Pricing-round cap. Well-posed instances close the gap in tens of rounds;
/// hitting this means numerical trouble and surfaces as
/// [`LpError::IterationLimit`].
const COLGEN_MAX_ROUNDS: usize = 400;

/// Certificate evidence in the layouts [`ThroughputCertificate::build`]
/// expects: `(t, aggregate flow per arc, served per commodity, lengths)`.
type Evidence = (f64, Vec<f64>, Vec<f64>, Vec<f64>);

/// What one exact solve cost: the formulation, the size of its (last) LP, and
/// the simplex counters of the LP it solved.
struct SimplexWork {
    /// `arc` or `colgen`.
    form: &'static str,
    rows: usize,
    vars: usize,
    /// LPs optimized: one for the arc LP; for column generation, the rounds,
    /// each a resolve of the master after adding the paths not yet in it.
    rounds: usize,
    pivots: usize,
    degenerate: usize,
    refactors: usize,
    /// Of the last refactorization.
    factor_nnz: usize,
}

impl SimplexWork {
    /// The counters `s` reports for an LP of `rows` rows and `vars`
    /// variables, optimized `rounds` times.
    fn new(
        form: &'static str,
        rows: usize,
        vars: usize,
        rounds: usize,
        s: &tb_lp::Solution,
    ) -> Self {
        SimplexWork {
            form,
            rows,
            vars,
            rounds,
            pivots: s.pivots,
            degenerate: s.degenerate_pivots,
            refactors: s.refactorizations,
            factor_nnz: s.factor_nonzeros,
        }
    }

    /// With `TB_SOLVER_TRACE` set, prints the solve's line in the style of
    /// the FPTAS's.
    fn trace(&self) {
        if std::env::var_os("TB_SOLVER_TRACE").is_none() {
            return;
        }
        let rounds = if self.form == "colgen" {
            format!(" rounds={}", self.rounds)
        } else {
            String::new()
        };
        eprintln!(
            "TB_SOLVER_TRACE exit=exact form={} rows={} vars={} pivots={} degenerate={} refactors={} factor_nnz={}{rounds}",
            self.form, self.rows, self.vars, self.pivots, self.degenerate, self.refactors, self.factor_nnz,
        );
    }
}

/// Exact LP-based throughput solver.
#[derive(Debug, Clone, Default)]
pub struct ExactLpSolver;

impl ExactLpSolver {
    /// Creates the solver.
    pub fn new() -> Self {
        ExactLpSolver
    }

    /// Computes the exact throughput of `tm` on `graph`.
    ///
    /// Returns an error if the LP solver fails (which, for a well-formed
    /// instance, only happens when the iteration limit is exceeded).
    pub fn solve(&self, graph: &Graph, tm: &TrafficMatrix) -> Result<ThroughputBounds, LpError> {
        Ok(self.solve_certified_with_hint(graph, tm, None)?.0)
    }

    /// Like [`solve`](Self::solve), but also returns a
    /// [`ThroughputCertificate`] built from the LP optimum: the aggregate
    /// optimal flow, per-commodity served amounts `t* · demand`, and the
    /// capacity-row duals as the length function. At an exact optimum the
    /// dual bound `D(l)/alpha(l)` collapses onto `t*`, so the certified gap
    /// is limited only by simplex rounding.
    pub fn solve_certified(
        &self,
        graph: &Graph,
        tm: &TrafficMatrix,
    ) -> Result<(ThroughputBounds, ThroughputCertificate), LpError> {
        self.solve_certified_with_hint(graph, tm, None)
    }

    /// [`solve_certified`](Self::solve_certified) with an optional hint: a
    /// certificate from a prior (e.g. FPTAS) solve of the *same* instance.
    /// Column generation seeds its path pool from the hint's length function;
    /// the arc LP has a structural start of its own and ignores it. The
    /// optimum is the same either way.
    pub fn solve_certified_with_hint(
        &self,
        graph: &Graph,
        tm: &TrafficMatrix,
        hint: Option<&ThroughputCertificate>,
    ) -> Result<(ThroughputBounds, ThroughputCertificate), LpError> {
        crate::record_solver_invocation();

        // Degenerate inputs, resolved before any LP exists. Demands that are
        // self-loops or zero-amount constrain nothing; if nothing else
        // remains, `t` would be unconstrained (unbounded LP), and the strict
        // semantics of the empty instance is an exact zero.
        let real: Vec<(usize, usize)> = tm
            .demands()
            .iter()
            .filter(|d| d.src != d.dst && d.amount > 0.0)
            .map(|d| (d.src, d.dst))
            .collect();
        if tm.num_flows() == 0 {
            return Ok((
                ThroughputBounds::exact(0.0),
                ThroughputCertificate::trivial_zero(),
            ));
        }
        let zero_cert = |prob: &FlowProblem| {
            let commodities = prob.num_commodities();
            ThroughputCertificate::build(
                prob,
                vec![0.0; prob.num_arcs()],
                vec![0.0; commodities],
                vec![1.0; prob.num_arcs()],
                Vec::new(),
            )
        };
        if real.is_empty() {
            let prob = FlowProblem::new(graph, tm);
            return Ok((ThroughputBounds::exact(0.0), zero_cert(&prob)));
        }
        // Any disconnected pair pins the concurrent flow to zero: the LP
        // would grind to the same answer, the reachability check gets there
        // in one BFS sweep.
        let comp = connected_components(graph);
        if real.iter().any(|&(s, d)| comp[s] != comp[d]) {
            let prob = FlowProblem::new(graph, tm);
            return Ok((ThroughputBounds::exact(0.0), zero_cert(&prob)));
        }

        let prob = FlowProblem::new(graph, tm);
        // Formulation rule: the smaller LP. The path master has a row per
        // commodity, the arc LP a conservation row per (destination, other
        // node); column generation takes every instance whose master is the
        // smaller (matching-style TMs), the arc LP the rest (all-to-all).
        let ((t, flow, served, lengths), work) = if path_master_is_smaller(&prob) {
            self.solve_path_colgen(&prob, hint)?
        } else {
            self.solve_arc_lp(&prob, tm)?
        };
        work.trace();

        let bounds = ThroughputBounds::exact(t);
        let mut cert = ThroughputCertificate::build(&prob, flow, served, lengths, Vec::new());
        // Simplex rounding can leave the derived dual bound a few ulps below
        // the primal value; shrink the served amounts minimally until the
        // bracket orders. The shift is O(gap) ~ 1e-12 relative, far inside
        // every verification tolerance.
        for _ in 0..4 {
            if cert.lower <= cert.upper || cert.lower <= 0.0 {
                break;
            }
            let scale = (cert.upper / cert.lower) * (1.0 - 1e-12);
            let served: Vec<f64> = cert.served.iter().map(|x| x * scale).collect();
            cert = ThroughputCertificate::build(&prob, cert.flow, served, cert.lengths, cert.cut);
        }
        Ok((bounds, cert))
    }

    /// The destination-aggregated arc LP: one shot, no pricing loop. Returns
    /// `(t, aggregate flow, served, lengths)` in certificate layouts.
    fn solve_arc_lp(
        &self,
        prob: &FlowProblem,
        tm: &TrafficMatrix,
    ) -> Result<(Evidence, SimplexWork), LpError> {
        let n = prob.num_nodes();
        let m = prob.num_arcs();

        // Destinations that actually receive traffic.
        let mut dest_ids: Vec<usize> = tm.demands().iter().map(|d| d.dst).collect();
        dest_ids.sort_unstable();
        dest_ids.dedup();
        let dest_index: std::collections::HashMap<usize, usize> =
            dest_ids.iter().enumerate().map(|(i, &d)| (d, i)).collect();

        // Demand matrix entries T(v, d) for quick lookup.
        let mut demand_to: Vec<Vec<(usize, f64)>> = vec![Vec::new(); dest_ids.len()];
        for d in tm.demands() {
            demand_to[dest_index[&d.dst]].push((d.src, d.amount));
        }

        // In-arc lists, precomputed once (the per-row scan over all arcs was
        // quadratic in practice and dominated LP construction on the 64-switch
        // shapes).
        let mut in_arcs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (aid, arc) in prob.arcs().iter().enumerate() {
            in_arcs[arc.to].push(aid);
        }

        let num_dest = dest_ids.len();
        // Variable layout: x[di][a] at index di * m + a, then t last.
        let t_var = num_dest * m;
        let mut lp = LinearProgram::new(t_var + 1);
        lp.set_objective(t_var, 1.0);

        // Capacity constraints, over the same shared arc-capacity view the
        // FPTAS initializes its length state from (`FlowProblem::arc_caps`).
        // These come first, so `duals[0..m]` are the arc length function.
        for (a, cap) in prob.arc_caps().enumerate() {
            let coeffs: Vec<(usize, f64)> = (0..num_dest).map(|di| (di * m + a, 1.0)).collect();
            lp.add_constraint(coeffs, ConstraintOp::Le, cap);
        }

        // Conservation constraints.
        for (di, &dest) in dest_ids.iter().enumerate() {
            for (v, in_v) in in_arcs.iter().enumerate() {
                if v == dest {
                    continue;
                }
                let mut coeffs: Vec<(usize, f64)> = Vec::new();
                for (_, aid) in prob.out_arcs(v) {
                    coeffs.push((di * m + aid, 1.0));
                }
                for &aid in in_v {
                    coeffs.push((di * m + aid, -1.0));
                }
                let demand = demand_to[di]
                    .iter()
                    .find(|&&(src, _)| src == v)
                    .map(|&(_, amt)| amt)
                    .unwrap_or(0.0);
                coeffs.push((t_var, -demand));
                lp.add_constraint(coeffs, ConstraintOp::Eq, 0.0);
            }
        }

        // The start the LP's shape hands out: route every demand along the
        // hop-count in-tree of its destination. Per destination the tree's
        // arcs are basic in their conservation rows (a triangular block), `t`
        // is raised until the most loaded arc fills and takes that arc's
        // capacity row, every other capacity row keeps its slack: a feasible
        // vertex with `t > 0` and no artificial column, so phase 1 never runs.
        // Among equally short paths a tree prefers the arcs the trees before
        // it loaded least, which starts `t` higher (17 % fewer pivots over
        // the suite's 75 exact solves than first-found parents).
        let mut guess = vec![0.0; t_var + 1];
        let mut load = vec![0.0; m];
        for (di, &dest) in dest_ids.iter().enumerate() {
            // Arcs come in opposite pairs (`2e`, `2e + 1`): the arc towards
            // `dest` is the twin of the one the out-tree reaches `v` by, so
            // the search from `dest` sees each arc at its twin's length.
            let lengths: Vec<f64> = (0..m)
                .map(|a| 1.0 + TREE_LOAD_TIE_BREAK * load[a ^ 1] / prob.arcs()[a].cap)
                .collect();
            let (_, parent) = prob.shortest_path_tree(dest, &lengths);
            for (_, aid) in parent.iter().flatten() {
                guess[di * m + (aid ^ 1)] = BASIC_AT_ZERO;
            }
            for &(src, amount) in &demand_to[di] {
                let mut v = src;
                while let Some((p, aid)) = parent[v] {
                    guess[di * m + (aid ^ 1)] += amount;
                    load[aid ^ 1] += amount;
                    v = p;
                }
            }
        }
        let t0 = prob
            .arc_caps()
            .zip(&load)
            .filter(|&(_, &l)| l > 0.0)
            .map(|(cap, &l)| cap / l)
            .fold(f64::INFINITY, f64::min);
        for x in &mut guess[..t_var] {
            if *x > BASIC_AT_ZERO {
                *x *= t0;
            }
        }
        guess[t_var] = t0;
        let solution = tb_lp::solve_with_hint(&lp, &guess)?;
        let t = solution.values[t_var];
        let work = SimplexWork::new("arc", lp.constraints.len(), lp.num_vars, 1, &solution);

        // Certificate evidence straight from the LP optimum: aggregate flow,
        // proportional served amounts, capacity duals as lengths (clamped at
        // zero — a binding `<=` row's dual is nonnegative up to rounding).
        let mut flow = vec![0.0; m];
        for di in 0..num_dest {
            for (a, f) in flow.iter_mut().enumerate() {
                *f += solution.values[di * m + a];
            }
        }
        let lengths: Vec<f64> = solution.duals[..m].iter().map(|d| d.max(0.0)).collect();
        let mut served = Vec::with_capacity(prob.num_commodities());
        for s in prob.sources() {
            for &(_, demand) in &s.dests {
                served.push(t * demand);
            }
        }
        Ok(((t, flow, served, lengths), work))
    }

    /// Path-formulation column generation for commodity-sparse shapes.
    ///
    /// Master (restricted to the current path pool `P`): maximize `t` s.t.
    /// `sum_{p ni a} x_p <= cap(a)` per arc and
    /// `sum_{p in P_j} x_p - t * d_j = 0` per commodity. Pricing adds, for
    /// every commodity, its shortest path under the clamped capacity duals;
    /// the loop exits once the dual bound those duals certify closes onto the
    /// master value. Returns `(t, aggregate flow, served, lengths)`.
    fn solve_path_colgen(
        &self,
        prob: &FlowProblem,
        hint: Option<&ThroughputCertificate>,
    ) -> Result<(Evidence, SimplexWork), LpError> {
        use std::collections::HashSet;

        let m = prob.num_arcs();
        let k = prob.num_commodities();
        let demands: Vec<f64> = prob
            .sources()
            .iter()
            .flat_map(|s| s.dests.iter().map(|&(_, d)| d))
            .collect();

        // Column pool: (commodity, arc list), deduplicated. Extra columns are
        // harmless (the master leaves them at zero), missing ones are what
        // pricing exists to find.
        let mut pool: Vec<(usize, Vec<u32>)> = Vec::new();
        let mut seen: HashSet<(usize, Vec<u32>)> = HashSet::new();
        let mut admit = |pool: &mut Vec<(usize, Vec<u32>)>, paths: Vec<(usize, Vec<u32>)>| {
            let mut added = 0usize;
            for jp in paths {
                if seen.insert(jp.clone()) {
                    pool.push(jp);
                    added += 1;
                }
            }
            added
        };

        // Seed: hop-count shortest paths always; the hint's FPTAS length
        // function when present — its duals are near-optimal, so the paths
        // they select usually contain the optimal support outright.
        admit(&mut pool, shortest_paths(prob, &vec![1.0; m]).1);
        if let Some(h) = hint.filter(|h| {
            h.lengths.len() == m && h.lengths.iter().all(|l| l.is_finite() && *l >= 0.0)
        }) {
            admit(&mut pool, shortest_paths(prob, &h.lengths).1);
        }

        // The restricted master: variable 0 is `t`, path variables follow in
        // pool order. Capacity rows come first so `duals[0..m]` is the
        // length function, matching the arc LP's convention. It is built once,
        // over `t` alone (`t = 0` is its optimum), and kept open: every round
        // adds the paths not yet in it as columns and resumes from the
        // previous optimum.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        for cap in prob.arc_caps() {
            lp.add_constraint(Vec::new(), ConstraintOp::Le, cap);
        }
        for &d in &demands {
            lp.add_constraint(vec![(0, -d)], ConstraintOp::Eq, 0.0);
        }
        let mut master = tb_lp::OpenLp::solve(&lp, None)?;
        for round in 1..=COLGEN_MAX_ROUNDS {
            let columns: Vec<_> = pool[master.num_vars() - 1..]
                .iter()
                .map(|(j, arcs)| {
                    let mut coeffs: Vec<(usize, f64)> =
                        arcs.iter().map(|&a| (a as usize, 1.0)).collect();
                    coeffs.push((m + j, 1.0));
                    (0.0, coeffs)
                })
                .collect();
            master.add_columns(&columns);
            master.resolve()?;
            let solution = master.solution();
            let t = solution.values[0];
            let lengths: Vec<f64> = solution.duals[..m].iter().map(|d| d.max(0.0)).collect();

            // Termination is the certificate's own test: the dual bound
            // `D(l)/alpha(l)` under the clamped duals is a valid upper bound
            // for ANY such l, so once it meets the (always-feasible) master
            // value the solve is provably optimal — and the bound collapses
            // onto `t` in the emitted certificate.
            let d_l: f64 = prob
                .arcs()
                .iter()
                .zip(&lengths)
                .map(|(arc, &l)| arc.cap * l)
                .sum();
            let (alpha, priced) = shortest_paths(prob, &lengths);
            let dual = d_l / alpha;
            if dual.is_finite() && dual - t <= COLGEN_GAP * dual.abs().max(1e-300) {
                let mut flow = vec![0.0; m];
                let mut served = vec![0.0; k];
                for (p, (j, arcs)) in pool.iter().enumerate() {
                    let x = solution.values[1 + p].max(0.0);
                    if x == 0.0 {
                        continue;
                    }
                    served[*j] += x;
                    for &a in arcs {
                        flow[a as usize] += x;
                    }
                }
                let work = SimplexWork::new("colgen", m + k, master.num_vars(), round, &solution);
                return Ok(((t, flow, served, lengths), work));
            }

            // Price: every commodity's shortest path under the duals. A round
            // that adds nothing while the gap is open means the optimum needs
            // a tie path the parent tree didn't pick — deterministically
            // perturb the lengths to rotate through the ties.
            if admit(&mut pool, priced) == 0 {
                let scale = lengths.iter().cloned().fold(0.0f64, f64::max) * 1e-9 + 1e-15;
                let jitter: Vec<f64> = lengths
                    .iter()
                    .enumerate()
                    .map(|(a, &l)| {
                        l + scale * (((a + 1) * round) as f64 * 0.618_033_988_749_895).fract()
                    })
                    .collect();
                if admit(&mut pool, shortest_paths(prob, &jitter).1) == 0 {
                    return Err(LpError::IterationLimit);
                }
            }
        }
        Err(LpError::IterationLimit)
    }
}

/// Whether the path master of `prob` has fewer rows than its arc LP: one
/// coverage row per commodity against one conservation row per destination
/// and node other than it (both share the capacity rows). True for every
/// matching-style TM; false for all-to-all among every switch, where each of
/// the `n` destinations has `n - 1` sources.
fn path_master_is_smaller(prob: &FlowProblem) -> bool {
    let mut dests: Vec<usize> = prob
        .sources()
        .iter()
        .flat_map(|s| s.dests.iter().map(|&(d, _)| d))
        .collect();
    dests.sort_unstable();
    dests.dedup();
    prob.num_commodities() < dests.len() * (prob.num_nodes() - 1)
}

/// One Dijkstra per source under `lengths`: returns the demand-weighted
/// distance sum `alpha(lengths)` and, per commodity (source-major order),
/// the shortest path as an arc-id list read off the parent tree.
fn shortest_paths(prob: &FlowProblem, lengths: &[f64]) -> (f64, Vec<(usize, Vec<u32>)>) {
    let mut alpha = 0.0f64;
    let mut paths = Vec::with_capacity(prob.num_commodities());
    let mut j = 0usize;
    for s in prob.sources() {
        let (dist, parent) = prob.shortest_path_tree(s.src, lengths);
        for &(dst, demand) in &s.dests {
            alpha += demand * dist[dst];
            let mut arcs: Vec<u32> = Vec::new();
            let mut v = dst;
            while v != s.src {
                match parent[v] {
                    Some((p, aid)) => {
                        arcs.push(aid as u32);
                        v = p;
                    }
                    None => break, // unreachable: guarded upstream
                }
            }
            arcs.reverse();
            paths.push((j, arcs));
            j += 1;
        }
    }
    (alpha, paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::verify_certificate;
    use crate::fleischer::{FleischerConfig, FleischerSolver};
    use tb_graph::Graph;
    use tb_topology::hypercube::hypercube;
    use tb_topology::jellyfish::jellyfish;
    use tb_traffic::{synthetic, Demand, TrafficMatrix};

    fn demand(src: usize, dst: usize, amount: f64) -> Demand {
        Demand { src, dst, amount }
    }

    #[test]
    fn single_link() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let tm = TrafficMatrix::new(2, vec![demand(0, 1, 2.0)]);
        let b = ExactLpSolver::new().solve(&g, &tm).unwrap();
        assert!((b.lower - 0.5).abs() < 1e-6);
    }

    #[test]
    fn shared_bottleneck_is_split_evenly() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm = TrafficMatrix::new(3, vec![demand(0, 2, 1.0), demand(1, 2, 1.0)]);
        let b = ExactLpSolver::new().solve(&g, &tm).unwrap();
        assert!((b.lower - 0.5).abs() < 1e-6);
    }

    #[test]
    fn cycle_uses_both_directions() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let tm = TrafficMatrix::new(4, vec![demand(0, 2, 1.0)]);
        let b = ExactLpSolver::new().solve(&g, &tm).unwrap();
        assert!((b.lower - 2.0).abs() < 1e-6);
    }

    #[test]
    fn complete_graph_all_to_all() {
        // K4 with one server per switch under A2A: by symmetry every demand of
        // 1/4 can ride its direct link (capacity 1), and the volumetric bound
        // caps throughput at total capacity / total demand·1 hop = 12 / 3 = 4.
        let mut g = Graph::new(4);
        for i in 0..4 {
            for j in i + 1..4 {
                g.add_unit_edge(i, j);
            }
        }
        let tm = synthetic::all_to_all(&[1, 1, 1, 1]);
        let b = ExactLpSolver::new().solve(&g, &tm).unwrap();
        assert!(b.lower >= 4.0 - 1e-6, "got {}", b.lower);
    }

    #[test]
    fn agrees_with_fleischer_on_small_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        let fleischer = FleischerSolver::new(FleischerConfig::precise());
        for trial in 0..4 {
            // Small random connected graph.
            let n = 6;
            let g = tb_graph::random::random_regular_graph(n, 3, trial);
            let mut demands = Vec::new();
            for _ in 0..4 {
                let s = rng.gen_range(0..n);
                let mut t = rng.gen_range(0..n);
                if t == s {
                    t = (t + 1) % n;
                }
                demands.push(demand(s, t, 1.0 + rng.gen::<f64>()));
            }
            let tm = TrafficMatrix::new(n, demands);
            let exact = ExactLpSolver::new().solve(&g, &tm).unwrap();
            let approx = fleischer.solve(&g, &tm);
            assert!(
                approx.lower <= exact.lower + 1e-6,
                "feasible value exceeds optimum: {} > {}",
                approx.lower,
                exact.lower
            );
            assert!(
                approx.upper >= exact.lower - 1e-6,
                "upper bound below optimum: {} < {}",
                approx.upper,
                exact.lower
            );
            assert!(
                (exact.lower - approx.lower) / exact.lower < 0.05,
                "trial {trial}: exact {} vs approx {}",
                exact.lower,
                approx.lower
            );
        }
    }

    #[test]
    fn longest_matching_throughput_on_ring_matches_hand_computation() {
        // C6, one server per switch, longest matching pairs antipodes
        // (3 hops). Total demand·hops = 6*3 = 18 > capacity 12, so the
        // volumetric bound gives t <= 12/18 = 2/3, and routing each demand
        // half clockwise/half counterclockwise achieves it.
        let edges: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        let g = Graph::from_edges(6, &edges);
        let servers = vec![1usize; 6];
        let tm = synthetic::longest_matching(&g, &servers, true);
        let b = ExactLpSolver::new().solve(&g, &tm).unwrap();
        assert!((b.lower - 2.0 / 3.0).abs() < 1e-6, "got {}", b.lower);
    }

    #[test]
    fn empty_tm_returns_strict_zero_instead_of_unbounded() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let tm = TrafficMatrix::empty(2);
        let (b, cert) = ExactLpSolver::new().solve_certified(&g, &tm).unwrap();
        assert_eq!(b.lower, 0.0);
        assert_eq!(b.upper, 0.0);
        verify_certificate(&g, &tm, &cert, 0.0).unwrap();
    }

    #[test]
    fn self_demands_only_return_strict_zero() {
        // Only self-loops: no conservation row references t, so the raw LP
        // would be unbounded. The strict semantics is the degenerate zero.
        let g = Graph::from_edges(2, &[(0, 1)]);
        let tm = TrafficMatrix::new(2, vec![demand(0, 0, 1.0), demand(1, 1, 2.0)]);
        let (b, cert) = ExactLpSolver::new().solve_certified(&g, &tm).unwrap();
        assert_eq!(b.lower, 0.0);
        verify_certificate(&g, &tm, &cert, 0.0).unwrap();
    }

    #[test]
    fn all_disconnected_demands_return_strict_zero() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(2, 3);
        let tm = TrafficMatrix::new(4, vec![demand(0, 3, 1.0), demand(2, 1, 1.0)]);
        let (b, cert) = ExactLpSolver::new().solve_certified(&g, &tm).unwrap();
        assert_eq!(b.lower, 0.0);
        assert_eq!(b.upper, 0.0);
        verify_certificate(&g, &tm, &cert, 0.0).unwrap();
    }

    #[test]
    fn certified_solve_verifies_with_tight_gap() {
        let edges: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        let g = Graph::from_edges(6, &edges);
        let tm = synthetic::longest_matching(&g, &[1usize; 6], true);
        let (b, cert) = ExactLpSolver::new().solve_certified(&g, &tm).unwrap();
        assert!((b.lower - 2.0 / 3.0).abs() < 1e-6);
        // The exact certificate's bracket collapses onto the optimum and
        // verifies independently at a tight eps.
        verify_certificate(&g, &tm, &cert, 1e-4).unwrap();
        assert!((cert.lower - b.lower).abs() <= 1e-7 * (1.0 + b.lower.abs()));
        assert!((cert.upper - b.lower).abs() <= 1e-4 * (1.0 + b.lower.abs()));
    }

    #[test]
    fn warm_started_certified_solve_matches_cold() {
        let g = tb_graph::random::random_regular_graph(8, 3, 7);
        let tm = synthetic::random_permutation(&[1usize; 8], 5);
        let solver = ExactLpSolver::new();
        let (cold, _) = solver.solve_certified(&g, &tm).unwrap();
        // Warm start from the FPTAS certificate of the same instance.
        let fptas = FleischerSolver::new(FleischerConfig::precise());
        let outcome = fptas.solve_outcome(&g, &tm);
        let (warm, cert) = solver
            .solve_certified_with_hint(&g, &tm, Some(&outcome.certificate))
            .unwrap();
        assert!((warm.lower - cold.lower).abs() < 1e-6);
        verify_certificate(&g, &tm, &cert, 1e-4).unwrap();
        // And the FPTAS bounds must bracket the exact optimum.
        assert!(outcome.bounds.lower <= cold.lower + 1e-6);
        assert!(outcome.bounds.upper >= cold.lower - 1e-6);
    }

    /// hypercube-32 under a longest matching, warm-started from the FPTAS's
    /// certificate: a master of 160 arc and 32 coverage rows grown from the
    /// hint's paths (the 64-switch shapes stay an ignored release test). The
    /// colgen optimum must be bracketed by precise FPTAS bounds and its
    /// certificate must verify at the colgen gap.
    #[test]
    fn column_generation_certifies_hypercube_32() {
        let g = hypercube(5, 1).graph;
        let tm = synthetic::longest_matching(&g, &vec![1usize; 32], true);
        let fptas = FleischerSolver::new(FleischerConfig::precise());
        let outcome = fptas.solve_outcome(&g, &tm);
        let (b, cert) = ExactLpSolver::new()
            .solve_certified_with_hint(&g, &tm, Some(&outcome.certificate))
            .unwrap();
        verify_certificate(&g, &tm, &cert, 1e-4).unwrap();
        assert!((cert.upper - cert.lower) <= 1e-6 * cert.upper.max(1.0));
        assert!(outcome.bounds.lower <= b.lower + 1e-6);
        assert!(outcome.bounds.upper >= b.lower - 1e-6);
    }

    #[test]
    #[ignore = "64-switch certifications; run with --release in CI"]
    fn certifies_hypercube_64_against_the_fptas() {
        // One longest-matching instance per 64-switch family that column
        // generation certifies in seconds: the hypercube of dimension 6 and a
        // 6-regular Jellyfish. The LP optimum is ground truth independent of
        // the FPTAS, so this catches a bug the FPTAS and its own certificate
        // agree on: its certificate verifies at a near-exact gap, and the
        // precise FPTAS bounds that warm-started it must bracket it.
        for (name, topo) in [
            ("hypercube64/lm", hypercube(6, 1)),
            ("jellyfish64/lm", jellyfish(64, 6, 1, 42)),
        ] {
            let g = &topo.graph;
            let tm = synthetic::longest_matching(g, &topo.servers, true);
            let fptas = FleischerSolver::new(FleischerConfig::precise());
            let outcome = fptas.solve_outcome(g, &tm);
            let t0 = std::time::Instant::now();
            let (b, cert) = ExactLpSolver::new()
                .solve_certified_with_hint(g, &tm, Some(&outcome.certificate))
                .unwrap_or_else(|e| panic!("{name}: exact certification failed: {e}"));
            let secs = t0.elapsed().as_secs_f64();
            verify_certificate(g, &tm, &cert, 1e-6)
                .unwrap_or_else(|e| panic!("{name}: exact certificate failed verification: {e}"));
            assert!(
                outcome.bounds.lower <= b.lower + 1e-6 && outcome.bounds.upper >= b.lower - 1e-6,
                "{name}: FPTAS bounds [{}, {}] do not bracket the LP optimum {}",
                outcome.bounds.lower,
                outcome.bounds.upper,
                b.lower
            );
            println!(
                "{name}: exact t* = {:.6}, certified in {secs:.2}s (FPTAS bracket [{:.6}, {:.6}])",
                b.lower, outcome.bounds.lower, outcome.bounds.upper
            );
        }
    }

    /// The sweep's longest-matching TM of `topo` (hose-normalized).
    fn sweep_lm(topo: &tb_topology::Topology) -> TrafficMatrix {
        let lm = synthetic::longest_matching(&topo.graph, &topo.servers, true);
        lm.normalized_to_hose(&topo.servers).0
    }

    /// The arc LP's optimum, certificate and simplex counters, checked
    /// against the FPTAS `fast()` bracket and an independent verification of
    /// the certificate at 1e-9.
    fn checked_arc_lp(g: &Graph, tm: &TrafficMatrix) -> (f64, SimplexWork) {
        let solver = ExactLpSolver::new();
        let (b, cert) = solver.solve_certified(g, tm).expect("exact LP gave up");
        verify_certificate(g, tm, &cert, 1e-9).expect("certificate does not close to 1e-9");
        let fptas = FleischerSolver::new(FleischerConfig::fast()).solve(g, tm);
        assert!(
            fptas.lower <= b.lower * (1.0 + 1e-9) && fptas.upper >= b.lower * (1.0 - 1e-9),
            "exact {} outside the FPTAS bracket [{}, {}]",
            b.lower,
            fptas.lower,
            fptas.upper
        );
        let (_, work) = solver.solve_arc_lp(&FlowProblem::new(g, tm), tm).unwrap();
        (b.lower, work)
    }

    /// The LPs the Gauss-Jordan/Bland core stalled on, each with the pivots
    /// it took then (seed 1 unless noted): rung 1 of the flattened-butterfly
    /// ladder under LM and its two same-equipment samples (1,431 / 2,223 /
    /// 2,982), the sample `--seed 1102` draws third (115,450, then
    /// `IterationLimit`), and fig07's K12 with its samples (7,472 / 11,263 /
    /// 21,999). None may take more than 2,000 now.
    #[test]
    fn the_degenerate_lps_of_the_sweep_stay_exact_and_under_the_pivot_ceiling() {
        use tb_topology::families::{Family, Scale};
        use tb_topology::jellyfish::same_equipment;
        let bf = Family::FlattenedButterfly
            .ladder_instance(Scale::Small, 1, 1)
            .expect("rung 1 exists");
        let k12 = tb_topology::hyperx::hyperx(1, 12, 1, 11);
        let mut cases = vec![
            ("flattened BF 16".to_string(), bf.clone()),
            ("K12".to_string(), k12.clone()),
        ];
        for seed in [1001, 1002, 2103] {
            cases.push((
                format!("flattened BF 16 sample {seed}"),
                same_equipment(&bf, seed),
            ));
        }
        for seed in [1001, 1002] {
            cases.push((format!("K12 sample {seed}"), same_equipment(&k12, seed)));
        }
        for (name, topo) in cases {
            let (t, work) = checked_arc_lp(&topo.graph, &sweep_lm(&topo));
            assert!(t > 0.0, "{name}");
            assert_eq!(work.form, "arc", "{name}");
            assert!(work.pivots <= 2000, "{name}: {} pivots", work.pivots);
            assert!(
                work.factor_nnz <= 4000,
                "{name}: {} factor nonzeros",
                work.factor_nnz
            );
        }
    }

    /// Every shape the formulation rule sends to column generation on the
    /// sweep's exact path: the ladder rungs of at most 16 switches under LM,
    /// RM(1) and RM(4), each beside its first two same-equipment samples
    /// (seeds 1001 and 1002), and fig07's K12 with the same two. The rule
    /// must pick column generation for every matching TM, and the arc LP for
    /// all-to-all unless some switch holds no server (DCell's rung 0, whose
    /// 132 all-to-all flows keep it off the exact path); the open
    /// master and the arc LP, forced, must agree to 1e-12 relative, inside
    /// the FPTAS bracket.
    #[test]
    fn arc_lp_and_column_generation_agree_on_the_small_ladder_instances() {
        use tb_topology::families::{Scale, ALL_FAMILIES};
        use tb_topology::jellyfish::same_equipment;
        let mut bases = vec![("K12".to_string(), tb_topology::hyperx::hyperx(1, 12, 1, 11))];
        for family in ALL_FAMILIES {
            for rung in 0..2 {
                match family.ladder_instance(Scale::Small, 1, rung) {
                    Some(topo) if topo.num_switches() <= 16 => {
                        bases.push((format!("{}/{rung}", family.name()), topo))
                    }
                    _ => {}
                }
            }
        }
        let (mut checked, mut a2a_arc) = (0, 0);
        for (name, base) in bases {
            let samples = [1001, 1002]
                .map(|seed| (format!("{name} sample {seed}"), same_equipment(&base, seed)));
            for (name, topo) in std::iter::once((name, base)).chain(samples) {
                let hose = |tm: TrafficMatrix| tm.normalized_to_hose(&topo.servers).0;
                // All-to-all among `s` of the `n` switches has `s (s - 1)`
                // commodities against `s (n - 1)` conservation rows.
                let a2a = hose(synthetic::all_to_all(&topo.servers));
                let serverless = topo.servers.contains(&0);
                let prob = FlowProblem::new(&topo.graph, &a2a);
                assert_eq!(path_master_is_smaller(&prob), serverless, "{name}/A2A");
                a2a_arc += usize::from(!serverless);
                for (label, tm) in [
                    ("LM", sweep_lm(&topo)),
                    (
                        "RM(1)",
                        hose(synthetic::random_matching(&topo.servers, 1, 1)),
                    ),
                    (
                        "RM(4)",
                        hose(synthetic::random_matching(&topo.servers, 4, 1)),
                    ),
                ] {
                    let prob = FlowProblem::new(&topo.graph, &tm);
                    assert!(path_master_is_smaller(&prob), "{name}/{label}");
                    let (arc, _) = checked_arc_lp(&topo.graph, &tm);
                    let ((colgen, ..), work) = ExactLpSolver::new()
                        .solve_path_colgen(&prob, None)
                        .unwrap_or_else(|e| panic!("{name}/{label}: {e}"));
                    assert_eq!(work.form, "colgen");
                    assert!(
                        (arc - colgen).abs() <= 1e-12 * arc.abs(),
                        "{name}/{label}: arc LP {arc} vs column generation {colgen}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(
            checked >= 54 && a2a_arc >= 15,
            "{checked} matching, {a2a_arc} all-to-all instances"
        );
    }
}
