//! The battery of sparsest-cut estimators from Appendix C of the paper, and
//! the combined estimate (the best cut found by any of them).

use crate::sparsity::{instance, Best, GrownSet};
use serde::{Deserialize, Serialize};
use tb_graph::shortest_path::{bfs_distances, UNREACHABLE};
use tb_graph::Graph;
use tb_traffic::TrafficMatrix;

/// Which heuristic produced a cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Estimator {
    /// Exhaustive enumeration, capped at a budget of 10,000 cuts: complete
    /// (all `2^(n-1) - 1` cuts) only up to 14 nodes.
    BruteForce,
    /// Cuts isolating a single node.
    OneNode,
    /// Cuts isolating a pair of nodes.
    TwoNode,
    /// BFS balls of growing radius around each node.
    ExpandingRegion,
    /// Sweep cuts of the normalized-Laplacian second eigenvector.
    Eigenvector,
}

/// All estimators, in the order they are reported in Table II.
pub const ALL_ESTIMATORS: [Estimator; 5] = [
    Estimator::BruteForce,
    Estimator::OneNode,
    Estimator::TwoNode,
    Estimator::ExpandingRegion,
    Estimator::Eigenvector,
];

impl Estimator {
    /// Display name used in Table II.
    pub fn name(&self) -> &'static str {
        match self {
            Estimator::BruteForce => "Brute force",
            Estimator::OneNode => "1-node",
            Estimator::TwoNode => "2-node",
            Estimator::ExpandingRegion => "Expanding regions",
            Estimator::Eigenvector => "Eigenvector",
        }
    }
}

/// The best cut found by one estimator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CutEstimate {
    /// Which estimator produced it.
    pub estimator: Estimator,
    /// Sparsity of the best cut found (`f64::INFINITY` if the estimator found
    /// no cut with crossing demand).
    pub sparsity: f64,
    /// Membership vector of the best cut (true = in the set).
    pub cut: Vec<bool>,
}

/// The combined report: the best cut over all estimators, plus each
/// estimator's individual best (Table II needs to know which estimators found
/// the overall winner).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CutReport {
    /// Sparsity of the sparsest cut found by any estimator.
    pub best_sparsity: f64,
    /// The cut achieving it.
    pub best_cut: Vec<bool>,
    /// Per-estimator results.
    pub estimates: Vec<CutEstimate>,
}

impl CutReport {
    /// The estimators whose best cut matches the overall best (within a
    /// relative tolerance), i.e. the "found the sparse cut" column of
    /// Table II.
    pub fn found_by(&self, tolerance: f64) -> Vec<Estimator> {
        self.estimates
            .iter()
            .filter(|e| {
                e.sparsity.is_finite()
                    && e.sparsity <= self.best_sparsity * (1.0 + tolerance) + 1e-12
            })
            .map(|e| e.estimator)
            .collect()
    }
}

/// Budget for the capped brute-force estimator (the paper caps it at 10,000
/// cuts on large networks).
pub(crate) const BRUTE_FORCE_CUT_BUDGET: usize = 10_000;

/// Offers the cuts of masks `1..=min(budget, 2^(n-1) - 1)` over every node
/// but the last (which stays outside): all `2^(n-1) - 1` cuts of a graph of
/// at most 14 nodes under the default budget, the low-index subsets up to
/// the budget otherwise (the paper's "limited brute-force computation ...
/// capping the computation at 10,000 cuts"). Members join in decreasing
/// index order, so going from `mask - 1` to `mask` (its trailing ones clear,
/// the bit above them sets) removes the last to join and adds one node.
fn brute_force(best: &mut Best, set: &mut GrownSet, n: usize, budget: usize) {
    let bits = n.saturating_sub(1).min(u64::BITS as usize);
    let cuts = 1u64.checked_shl(bits as u32).map_or(u64::MAX, |p| p - 1);
    for mask in 1..=cuts.min(budget as u64) {
        let low = (mask - 1).trailing_ones();
        for _ in 0..low {
            set.pop();
        }
        set.push(low as usize);
        best.offer_grown(set);
    }
    set.clear();
}

fn one_node_cuts(best: &mut Best, set: &mut GrownSet, n: usize) {
    for u in 0..n {
        set.push(u);
        best.offer_grown(set);
        set.pop();
    }
}

fn two_node_cuts(best: &mut Best, set: &mut GrownSet, n: usize) {
    for u in 0..n {
        set.push(u);
        for v in u + 1..n {
            set.push(v);
            best.offer_grown(set);
            set.pop();
        }
        set.pop();
    }
}

/// Offers every BFS ball around every node that stops short of the node's
/// farthest layer: it holds its centre and misses that layer, so it is a
/// proper cut. A ball grows from the previous radius's by one layer.
fn expanding_region_cuts(best: &mut Best, set: &mut GrownSet, graph: &Graph) {
    for start in 0..graph.num_nodes() {
        let dist = bfs_distances(graph, start);
        let mut layers: Vec<usize> = (0..dist.len())
            .filter(|&v| dist[v] != UNREACHABLE)
            .collect();
        layers.sort_by_key(|&v| dist[v]);
        let max_d = layers.last().map_or(0, |&v| dist[v]);
        let mut next = layers.iter().peekable();
        for radius in 0..max_d {
            while let Some(&&v) = next.peek() {
                if dist[v] > radius {
                    break;
                }
                set.push(v);
                next.next();
            }
            best.offer_grown(set);
        }
        set.clear();
    }
}

fn eigenvector_sweep(best: &mut Best, set: &mut GrownSet, graph: &Graph) {
    let n = graph.num_nodes();
    if n < 2 {
        return;
    }
    let spec = tb_graph::spectral::second_smallest_normalized_laplacian(graph, 500);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| spec.eigenvector[a].total_cmp(&spec.eigenvector[b]));
    for &u in order.iter().take(n - 1) {
        set.push(u);
        best.offer_grown(set);
    }
    set.clear();
}

/// Runs every estimator and reports the sparsest cut any of them found
/// (the paper's "sparse cut", §III-B). Every estimate is infinite, with an
/// all-false cut, under a TM without demands.
pub fn estimate_sparsest_cut(graph: &Graph, tm: &TrafficMatrix) -> CutReport {
    let n = graph.num_nodes();
    let prob = instance(graph, tm);
    let mut set = prob.as_ref().map(GrownSet::new);
    let estimates: Vec<CutEstimate> = ALL_ESTIMATORS
        .iter()
        .map(|&estimator| {
            let mut best = Best::new(prob.as_ref(), n);
            if let Some(set) = &mut set {
                match estimator {
                    Estimator::BruteForce => brute_force(&mut best, set, n, BRUTE_FORCE_CUT_BUDGET),
                    Estimator::OneNode => one_node_cuts(&mut best, set, n),
                    Estimator::TwoNode => two_node_cuts(&mut best, set, n),
                    Estimator::ExpandingRegion => expanding_region_cuts(&mut best, set, graph),
                    Estimator::Eigenvector => eigenvector_sweep(&mut best, set, graph),
                }
            }
            CutEstimate {
                estimator,
                sparsity: best.sparsity,
                cut: best.cut,
            }
        })
        .collect();
    let best = estimates
        .iter()
        .min_by(|a, b| a.sparsity.total_cmp(&b.sparsity))
        .expect("at least one estimator");
    CutReport {
        best_sparsity: best.sparsity,
        best_cut: best.cut.clone(),
        estimates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_traffic::synthetic::{all_to_all, longest_matching, random_matching};
    use tb_traffic::{Demand, TrafficMatrix};

    fn demand(src: usize, dst: usize, amount: f64) -> Demand {
        Demand { src, dst, amount }
    }

    #[test]
    fn barbell_sparsest_cut_is_the_bridge() {
        let mut g = Graph::new(8);
        for base in [0usize, 4] {
            for i in 0..4 {
                for j in i + 1..4 {
                    g.add_unit_edge(base + i, base + j);
                }
            }
        }
        g.add_unit_edge(0, 4);
        let tm = all_to_all(&[1usize; 8]);
        let report = estimate_sparsest_cut(&g, &tm);
        // Bridge cut: capacity 1, crossing demand 16/8 = 2 -> sparsity 0.5.
        assert!(
            (report.best_sparsity - 0.5).abs() < 1e-9,
            "{}",
            report.best_sparsity
        );
        let found = report.found_by(1e-9);
        assert!(found.contains(&Estimator::BruteForce));
        assert!(found.contains(&Estimator::Eigenvector));
        assert!(!found.contains(&Estimator::OneNode));
    }

    #[test]
    fn one_node_cut_wins_on_a_star_with_pendant_demand() {
        // Star: node 0 center; demand only to/from leaf 1. The cut isolating
        // leaf 1 is the sparsest (capacity 1, demand 1).
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let tm = TrafficMatrix::new(
            5,
            vec![
                demand(1, 2, 1.0),
                demand(2, 1, 1.0),
                demand(3, 4, 0.2),
                demand(4, 3, 0.2),
            ],
        );
        let report = estimate_sparsest_cut(&g, &tm);
        assert!((report.best_sparsity - 1.0).abs() < 1e-9);
        assert!(report.found_by(1e-9).contains(&Estimator::OneNode));
    }

    #[test]
    fn cut_upper_bounds_have_consistent_ordering() {
        // For any graph the combined estimate can only be <= each individual
        // estimator's value.
        let g = tb_graph::random::random_regular_graph(16, 3, 5);
        let tm = all_to_all(&[1usize; 16]);
        let report = estimate_sparsest_cut(&g, &tm);
        for e in &report.estimates {
            assert!(report.best_sparsity <= e.sparsity + 1e-12);
        }
        assert!(report.best_sparsity.is_finite());
    }

    #[test]
    fn found_by_contains_at_least_one_estimator() {
        let g = tb_graph::random::random_regular_graph(12, 3, 9);
        let tm = all_to_all(&[1usize; 12]);
        let report = estimate_sparsest_cut(&g, &tm);
        assert!(!report.found_by(1e-9).is_empty());
    }

    /// The undirected sparsity: the links crossing `cut` over the heavier
    /// direction's crossing demand, infinite when none crosses.
    fn undirected_sparsity(graph: &Graph, tm: &TrafficMatrix, cut: &[bool]) -> f64 {
        let (mut fwd, mut rev) = (0.0f64, 0.0f64);
        for d in tm.demands() {
            match (cut[d.src], cut[d.dst]) {
                (true, false) => fwd += d.amount,
                (false, true) => rev += d.amount,
                _ => {}
            }
        }
        let demand = fwd.max(rev);
        if demand > 0.0 {
            graph.cut_capacity(cut) / demand
        } else {
            f64::INFINITY
        }
    }

    #[test]
    fn every_estimate_is_the_cut_bound_of_its_cut() {
        // Seeded random regular graphs, intact and with a tenth of the links
        // gone (every other draw also isolates a switch, whose demands are
        // dropped as disconnected), under LM, A2A and RM(2): each estimate's
        // sparsity is the solver's cut bound of its cut, bit for bit, and on
        // these symmetric capacities also the undirected formula's.
        for draw in 0..4u64 {
            let n = 12 + 4 * draw as usize;
            let intact = tb_graph::random::random_regular_graph(n, 3 + draw as usize % 3, draw);
            let isolated = (draw % 2 == 1).then_some(draw as usize);
            let mut faulted = Graph::new(n);
            for (i, e) in intact.edges().iter().enumerate() {
                let gone =
                    i % 10 == draw as usize || isolated.is_some_and(|v| e.u == v || e.v == v);
                if !gone {
                    faulted.add_edge(e.u, e.v, e.cap);
                }
            }
            let servers = vec![1usize; n];
            for graph in [&intact, &faulted] {
                for tm in [
                    longest_matching(graph, &servers, true),
                    all_to_all(&servers),
                    random_matching(&servers, 2, draw),
                ] {
                    let (tm, _) = tb_flow::drop_disconnected_demands(graph, &tm);
                    let prob = tb_flow::FlowProblem::new(graph, &tm);
                    let report = estimate_sparsest_cut(graph, &tm);
                    for e in &report.estimates {
                        let at = format!("draw {draw}, {:?}", e.estimator);
                        let bound = prob.cut_bound(&e.cut, 1.0);
                        assert_eq!(e.sparsity.to_bits(), bound.to_bits(), "{at}");
                        let undirected = undirected_sparsity(graph, &tm, &e.cut);
                        assert_eq!(e.sparsity.to_bits(), undirected.to_bits(), "{at}");
                    }
                    let min = report
                        .estimates
                        .iter()
                        .map(|e| e.sparsity)
                        .fold(f64::INFINITY, f64::min);
                    assert_eq!(report.best_sparsity.to_bits(), min.to_bits());
                    assert!(min.is_finite() && min > 0.0, "draw {draw}: {min}");
                }
            }
        }
    }

    #[test]
    fn an_empty_tm_bounds_nothing() {
        let g = tb_graph::random::random_regular_graph(12, 3, 1);
        let report = estimate_sparsest_cut(&g, &TrafficMatrix::empty(12));
        assert_eq!(report.estimates.len(), ALL_ESTIMATORS.len());
        for e in &report.estimates {
            assert_eq!(e.sparsity, f64::INFINITY);
            assert_eq!(e.cut, vec![false; 12]);
        }
        assert_eq!(report.best_sparsity, f64::INFINITY);
        assert!(report.found_by(1e-9).is_empty());
    }

    #[test]
    fn estimator_names_are_unique() {
        let mut names: Vec<&str> = ALL_ESTIMATORS.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_ESTIMATORS.len());
    }
}
