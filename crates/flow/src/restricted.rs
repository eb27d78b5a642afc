//! Path-restricted throughput and the subflow-counting estimator used to
//! replicate the Yuan et al. comparison (Fig 15 of the paper).
//!
//! Yuan et al. (SC'13) route each flow over `K` paths chosen by their LLSKR
//! scheme and *estimate* throughput by counting, for each subflow, the maximum
//! number of subflows sharing a link on its path and inverting that count.
//! The paper replicates this estimate (Comparison 1), then recomputes
//! throughput exactly under the same path restriction (Comparison 2), and
//! finally equalizes equipment (Comparison 3). This module provides:
//!
//! * [`k_shortest_path_sets`] — a K-shortest-paths route generator standing in
//!   for LLSKR (documented substitution in `DESIGN.md`),
//! * [`SubflowCountingEstimator`] — the counting heuristic,
//! * [`PathRestrictedSolver`] — maximum concurrent flow restricted to the
//!   given path sets (multiplicative-weights FPTAS over the path sets).

use crate::lengths::MwuLengths;
use crate::ThroughputBounds;
use std::collections::HashMap;
use tb_graph::shortest_path::k_shortest_paths;
use tb_graph::Graph;
use tb_traffic::TrafficMatrix;

/// The set of allowed paths for one commodity.
#[derive(Debug, Clone)]
pub struct CommodityPaths {
    /// Source switch.
    pub src: usize,
    /// Destination switch.
    pub dst: usize,
    /// Demand.
    pub demand: f64,
    /// Allowed paths, each a node sequence from `src` to `dst`.
    pub paths: Vec<Vec<usize>>,
}

/// Computes `k` shortest paths for every demand of `tm`, the stand-in for the
/// LLSKR path selection.
pub fn k_shortest_path_sets(graph: &Graph, tm: &TrafficMatrix, k: usize) -> Vec<CommodityPaths> {
    tm.demands()
        .iter()
        .map(|d| CommodityPaths {
            src: d.src,
            dst: d.dst,
            demand: d.amount,
            paths: k_shortest_paths(graph, d.src, d.dst, k),
        })
        .collect()
}

fn path_links(path: &[usize]) -> Vec<(usize, usize)> {
    path.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Yuan et al.'s subflow-counting throughput estimator: each commodity is
/// split into equal subflows (one per path); a subflow's rate is the inverse
/// of the maximum number of subflows crossing any link on its path; a
/// commodity's throughput is the sum of its subflows' rates; the estimator
/// reports the *average* commodity throughput (that is what reference \[48\] of the paper measured).
#[derive(Debug, Clone, Default)]
pub struct SubflowCountingEstimator;

impl SubflowCountingEstimator {
    /// Creates the estimator.
    pub fn new() -> Self {
        SubflowCountingEstimator
    }

    /// Estimates average per-flow throughput for the given path sets.
    pub fn estimate(&self, commodities: &[CommodityPaths]) -> f64 {
        // Count subflows per directed link.
        let mut link_subflows: HashMap<(usize, usize), usize> = HashMap::new();
        for c in commodities {
            for p in &c.paths {
                for l in path_links(p) {
                    *link_subflows.entry(l).or_insert(0) += 1;
                }
            }
        }
        let mut total = 0.0;
        let mut count = 0usize;
        for c in commodities {
            if c.paths.is_empty() {
                continue;
            }
            let mut flow_rate = 0.0;
            for p in &c.paths {
                let max_share = path_links(p)
                    .iter()
                    .map(|l| link_subflows[l])
                    .max()
                    .unwrap_or(1);
                flow_rate += 1.0 / max_share as f64;
            }
            total += flow_rate;
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

/// Maximum concurrent flow restricted to explicit path sets, solved with the
/// same multiplicative-weights machinery as the unrestricted FPTAS — the
/// shared [`MwuLengths`] state (delta init, multiplicative updates,
/// incremental `D(l)`, path pricing) — but with the shortest-path oracle
/// replaced by "cheapest allowed path".
#[derive(Debug, Clone, Default)]
pub struct PathRestrictedSolver;

/// Multiplicative step size of [`PathRestrictedSolver`].
const EPSILON: f64 = 0.05;
/// Target relative gap between the feasible value and the dual bound.
const TARGET_GAP: f64 = 0.03;
/// Phase cap.
const MAX_PHASES: usize = 20_000;

impl PathRestrictedSolver {
    /// Creates a solver with default settings.
    pub fn new() -> Self {
        PathRestrictedSolver
    }

    /// Computes throughput bounds when each commodity may only use its listed
    /// paths. Commodities with no path make the throughput zero.
    pub fn solve(&self, graph: &Graph, commodities: &[CommodityPaths]) -> ThroughputBounds {
        crate::record_solver_invocation();
        if commodities.is_empty() {
            return ThroughputBounds::exact(0.0);
        }
        if commodities
            .iter()
            .any(|c| c.paths.is_empty() || c.demand <= 0.0)
        {
            return ThroughputBounds::exact(0.0);
        }
        // Directed link capacities from the graph (sum of parallel edges).
        let mut cap: HashMap<(usize, usize), f64> = HashMap::new();
        for e in graph.edges() {
            *cap.entry((e.u, e.v)).or_insert(0.0) += e.cap;
            *cap.entry((e.v, e.u)).or_insert(0.0) += e.cap;
        }
        // Index the links that appear in any path.
        let mut link_ids: HashMap<(usize, usize), usize> = HashMap::new();
        let mut link_caps: Vec<f64> = Vec::new();
        let mut paths_as_links: Vec<Vec<Vec<usize>>> = Vec::with_capacity(commodities.len());
        for c in commodities {
            let mut plinks = Vec::with_capacity(c.paths.len());
            for p in &c.paths {
                let mut ids = Vec::with_capacity(p.len().saturating_sub(1));
                for l in path_links(p) {
                    let cap_l = *cap
                        .get(&l)
                        .unwrap_or_else(|| panic!("path uses non-existent link {l:?}"));
                    let id = *link_ids.entry(l).or_insert_with(|| {
                        link_caps.push(cap_l);
                        link_caps.len() - 1
                    });
                    ids.push(id);
                }
                plinks.push(ids);
            }
            paths_as_links.push(plinks);
        }
        let m = link_caps.len();
        // The shared MWU length state (delta init, multiplicative updates,
        // incremental D(l)) — the same machinery the Fleischer solver runs
        // on, in its quotient-update form (see `lengths::MwuLengths`).
        let mut mwu = MwuLengths::new(EPSILON, link_caps.iter().copied());
        let mut flow_link = vec![0.0f64; m];
        let mut routed = vec![0.0f64; commodities.len()];

        // Pre-scale demands so the optimum is around 1 (volumetric estimate
        // over the shortest allowed path). Path sets are non-empty here (the
        // guard above returned zero otherwise), but stay panic-free anyway.
        let mut weighted_hops = 0.0;
        for (ci, c) in commodities.iter().enumerate() {
            let min_hops = paths_as_links[ci]
                .iter()
                .map(|p| p.len())
                .min()
                .unwrap_or(0) as f64;
            weighted_hops += c.demand * min_hops;
        }
        let total_cap: f64 = link_caps.iter().sum();
        let scale = if weighted_hops > 0.0 {
            total_cap / weighted_hops
        } else {
            1.0
        };
        let demands: Vec<f64> = commodities.iter().map(|c| c.demand * scale).collect();

        let mut best_lower = 0.0f64;
        let mut best_upper = f64::INFINITY;
        let mut phase = 0usize;
        'phases: while phase < MAX_PHASES && !mwu.saturated() {
            for (ci, plinks) in paths_as_links.iter().enumerate() {
                let mut remaining = demands[ci];
                while remaining > 1e-15 {
                    if mwu.saturated() {
                        break 'phases;
                    }
                    // Cheapest allowed path under current lengths. `total_cmp`
                    // gives a total order even if a cost ever became NaN, and
                    // the path set is non-empty (guarded at entry), but an
                    // empty set still must not panic: skip the commodity.
                    let Some((best_path, _)) = plinks
                        .iter()
                        .map(|ids| (ids, ids.iter().map(|&id| mwu.lens()[id]).sum::<f64>()))
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                    else {
                        break;
                    };
                    let bottleneck = best_path
                        .iter()
                        .map(|&i| link_caps[i])
                        .fold(f64::INFINITY, f64::min);
                    let f = remaining.min(bottleneck);
                    // A zero-capacity (or otherwise degenerate, e.g. NaN)
                    // bottleneck routes nothing; without this guard the
                    // `while remaining > 1e-15` loop would never progress.
                    if f.is_nan() || f <= 1e-15 {
                        break;
                    }
                    for &i in best_path {
                        flow_link[i] += f;
                        mwu.apply(i, f);
                    }
                    routed[ci] += f;
                    remaining -= f;
                }
            }
            phase += 1;
            if phase.is_multiple_of(8) || mwu.saturated() {
                let (lo, up) = self.bounds(&paths_as_links, &demands, &routed, &flow_link, &mwu);
                best_lower = best_lower.max(lo);
                best_upper = best_upper.min(up);
                if best_upper.is_finite() && (best_upper - best_lower) / best_upper <= TARGET_GAP {
                    break 'phases;
                }
            }
        }
        let (lo, up) = self.bounds(&paths_as_links, &demands, &routed, &flow_link, &mwu);
        best_lower = best_lower.max(lo);
        best_upper = best_upper.min(up);
        if !best_upper.is_finite() {
            best_upper = best_lower;
        }
        ThroughputBounds {
            lower: best_lower * scale,
            upper: best_upper * scale,
        }
    }

    fn bounds(
        &self,
        paths_as_links: &[Vec<Vec<usize>>],
        demands: &[f64],
        routed: &[f64],
        flow_link: &[f64],
        mwu: &MwuLengths,
    ) -> (f64, f64) {
        let mut mu = f64::INFINITY;
        for (f, c) in flow_link.iter().zip(mwu.caps()) {
            if *f > 1e-15 {
                mu = mu.min(c / f);
            }
        }
        let lower = if mu.is_finite() {
            let worst = routed
                .iter()
                .zip(demands)
                .map(|(r, d)| r / d)
                .fold(f64::INFINITY, f64::min);
            if worst.is_finite() {
                worst * mu
            } else {
                0.0
            }
        } else {
            0.0
        };
        let mut alpha = 0.0;
        for (ci, plinks) in paths_as_links.iter().enumerate() {
            let min_cost = plinks
                .iter()
                .map(|ids| ids.iter().map(|&id| mwu.lens()[id]).sum::<f64>())
                .fold(f64::INFINITY, f64::min);
            alpha += demands[ci] * min_cost;
        }
        (lower, mwu.dual_bound(alpha))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_graph::Graph;
    use tb_traffic::{Demand, TrafficMatrix};

    fn demand(src: usize, dst: usize, amount: f64) -> Demand {
        Demand { src, dst, amount }
    }

    #[test]
    fn path_sets_are_generated() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let tm = TrafficMatrix::new(4, vec![demand(0, 2, 1.0)]);
        let sets = k_shortest_path_sets(&g, &tm, 2);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].paths.len(), 2);
    }

    #[test]
    fn restricted_single_path_limits_throughput() {
        // C4 with the demand restricted to a single path: throughput 1 instead
        // of 2.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let one_path = vec![CommodityPaths {
            src: 0,
            dst: 2,
            demand: 1.0,
            paths: vec![vec![0, 1, 2]],
        }];
        let b = PathRestrictedSolver::new().solve(&g, &one_path);
        assert!((b.lower - 1.0).abs() < 0.05, "lower {}", b.lower);
        let two_paths = vec![CommodityPaths {
            src: 0,
            dst: 2,
            demand: 1.0,
            paths: vec![vec![0, 1, 2], vec![0, 3, 2]],
        }];
        let b2 = PathRestrictedSolver::new().solve(&g, &two_paths);
        assert!((b2.lower - 2.0).abs() < 0.1, "lower {}", b2.lower);
    }

    #[test]
    fn missing_path_means_zero() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let c = vec![CommodityPaths {
            src: 0,
            dst: 1,
            demand: 1.0,
            paths: vec![],
        }];
        assert_eq!(PathRestrictedSolver::new().solve(&g, &c).lower, 0.0);
    }

    #[test]
    fn disconnected_pair_returns_zero_without_panicking() {
        // End-to-end regression for the empty-allowed-path-set panic: a
        // disconnected pair yields an empty k-shortest-path set, and the
        // solver must report zero throughput (as `FleischerSolver` does for
        // disconnected demands) instead of unwrapping an empty min.
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(2, 3);
        let tm = TrafficMatrix::new(4, vec![demand(0, 1, 1.0), demand(0, 3, 1.0)]);
        let sets = k_shortest_path_sets(&g, &tm, 4);
        assert!(sets.iter().any(|c| c.paths.is_empty()));
        let b = PathRestrictedSolver::new().solve(&g, &sets);
        assert_eq!(b.lower, 0.0);
        assert_eq!(b.upper, 0.0);
    }

    #[test]
    fn negligible_capacity_bottleneck_terminates() {
        // A commodity whose only path crosses an (effectively) zero-capacity
        // link can route nothing useful; the phase loop must detect the
        // negligible bottleneck and stop routing the commodity instead of
        // spinning on `remaining > 1e-15` in vanishing steps.
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1e-20);
        g.add_unit_edge(1, 2);
        let c = vec![CommodityPaths {
            src: 0,
            dst: 2,
            demand: 1.0,
            paths: vec![vec![0, 1, 2]],
        }];
        let b = PathRestrictedSolver::new().solve(&g, &c);
        assert!(b.lower <= 1e-9, "lower {}", b.lower);
    }

    #[test]
    fn subflow_counting_on_shared_link() {
        // Two flows forced over the same single link: each gets 1/2.
        let commodities = vec![
            CommodityPaths {
                src: 0,
                dst: 1,
                demand: 1.0,
                paths: vec![vec![0, 1]],
            },
            CommodityPaths {
                src: 2,
                dst: 1,
                demand: 1.0,
                paths: vec![vec![2, 0, 1]],
            },
        ];
        let est = SubflowCountingEstimator::new().estimate(&commodities);
        assert!((est - 0.5).abs() < 1e-9);
    }

    #[test]
    fn subflow_counting_overestimates_vs_lp_when_paths_overlap_unevenly() {
        // The counting heuristic ignores that a subflow's bottleneck link may
        // be shared with subflows whose own bottleneck is elsewhere; the paper
        // exploits exactly this to show LP-based throughput is the right
        // metric. Here we just check both are computable on the same input.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let tm = TrafficMatrix::new(4, vec![demand(0, 2, 1.0), demand(1, 3, 1.0)]);
        let sets = k_shortest_path_sets(&g, &tm, 2);
        let est = SubflowCountingEstimator::new().estimate(&sets);
        let lp = PathRestrictedSolver::new().solve(&g, &sets);
        assert!(est > 0.0);
        assert!(lp.lower > 0.0);
    }
}
