//! The battery of sparsest-cut estimators from Appendix C of the paper, and
//! the combined estimate (the best cut found by any of them).

use crate::sparsity::CutEvaluator;
use serde::{Deserialize, Serialize};
use tb_graph::shortest_path::bfs_distances;
use tb_graph::Graph;
use tb_traffic::TrafficMatrix;

/// Which heuristic produced a cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Estimator {
    /// Exhaustive enumeration (complete only for small graphs, otherwise
    /// capped at a cut budget).
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

fn better(best: &mut (f64, Vec<bool>), sparsity: f64, cut: &[bool]) {
    if sparsity < best.0 {
        best.0 = sparsity;
        best.1 = cut.to_vec();
    }
}

fn brute_force(ev: &CutEvaluator, budget: usize) -> (f64, Vec<bool>) {
    let n = ev.graph().num_nodes();
    let mut best = (f64::INFINITY, vec![false; n]);
    if n < 2 {
        return best;
    }
    if n <= 20 {
        let limit: u64 = 1u64 << (n - 1); // fix node n-1 outside the set
        for mask in (1..limit).take(budget) {
            let mut cut = vec![false; n];
            for (u, c) in cut.iter_mut().enumerate().take(n - 1) {
                *c = (mask >> u) & 1 == 1;
            }
            let s = ev.sparsity(&cut);
            better(&mut best, s, &cut);
        }
    } else {
        // Capped exploration: enumerate low-index subsets up to the budget
        // (mirrors the paper's "limited brute-force computation ... capping
        // the computation at 10,000 cuts").
        let mut examined = 0usize;
        let mut mask: u64 = 1;
        while examined < budget {
            let mut cut = vec![false; n];
            for (u, c) in cut.iter_mut().enumerate().take(63.min(n)) {
                *c = (mask >> u) & 1 == 1;
            }
            if cut.iter().any(|&b| b) && !cut.iter().all(|&b| b) {
                let s = ev.sparsity(&cut);
                better(&mut best, s, &cut);
            }
            mask += 1;
            examined += 1;
        }
    }
    best
}

fn one_node_cuts(ev: &CutEvaluator) -> (f64, Vec<bool>) {
    let n = ev.graph().num_nodes();
    let mut best = (f64::INFINITY, vec![false; n]);
    let mut cut = vec![false; n];
    for u in 0..n {
        cut[u] = true;
        better(&mut best, ev.sparsity(&cut), &cut);
        cut[u] = false;
    }
    best
}

fn two_node_cuts(ev: &CutEvaluator) -> (f64, Vec<bool>) {
    let n = ev.graph().num_nodes();
    let mut best = (f64::INFINITY, vec![false; n]);
    let mut cut = vec![false; n];
    for u in 0..n {
        cut[u] = true;
        for v in u + 1..n {
            cut[v] = true;
            better(&mut best, ev.sparsity(&cut), &cut);
            cut[v] = false;
        }
        cut[u] = false;
    }
    best
}

fn expanding_region_cuts(ev: &CutEvaluator, graph: &Graph) -> (f64, Vec<bool>) {
    let n = graph.num_nodes();
    let mut best = (f64::INFINITY, vec![false; n]);
    for start in 0..n {
        let dist = bfs_distances(graph, start);
        let max_d = dist
            .iter()
            .filter(|&&d| d != tb_graph::shortest_path::UNREACHABLE)
            .copied()
            .max()
            .unwrap_or(0);
        for radius in 0..max_d {
            let cut: Vec<bool> = dist
                .iter()
                .map(|&d| d != tb_graph::shortest_path::UNREACHABLE && d <= radius)
                .collect();
            if ev.is_proper(&cut) {
                better(&mut best, ev.sparsity(&cut), &cut);
            }
        }
    }
    best
}

fn eigenvector_sweep(ev: &CutEvaluator, graph: &Graph) -> (f64, Vec<bool>) {
    let n = graph.num_nodes();
    let mut best = (f64::INFINITY, vec![false; n]);
    if n < 2 {
        return best;
    }
    let spec = tb_graph::spectral::second_smallest_normalized_laplacian(graph, 500);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| spec.eigenvector[a].total_cmp(&spec.eigenvector[b]));
    let mut cut = vec![false; n];
    for &u in order.iter().take(n - 1) {
        cut[u] = true;
        better(&mut best, ev.sparsity(&cut), &cut);
    }
    best
}

/// Runs every estimator and reports the sparsest cut any of them found
/// (the paper's "sparse cut", §III-B).
pub fn estimate_sparsest_cut(graph: &Graph, tm: &TrafficMatrix) -> CutReport {
    let ev = CutEvaluator::new(graph, tm);
    let mut estimates = Vec::with_capacity(ALL_ESTIMATORS.len());
    for est in ALL_ESTIMATORS {
        let (sparsity, cut) = match est {
            Estimator::BruteForce => brute_force(&ev, BRUTE_FORCE_CUT_BUDGET),
            Estimator::OneNode => one_node_cuts(&ev),
            Estimator::TwoNode => two_node_cuts(&ev),
            Estimator::ExpandingRegion => expanding_region_cuts(&ev, graph),
            Estimator::Eigenvector => eigenvector_sweep(&ev, graph),
        };
        estimates.push(CutEstimate {
            estimator: est,
            sparsity,
            cut,
        });
    }
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
    use tb_traffic::synthetic::all_to_all;
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

    #[test]
    fn estimator_names_are_unique() {
        let mut names: Vec<&str> = ALL_ESTIMATORS.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_ESTIMATORS.len());
    }
}
