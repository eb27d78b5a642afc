//! Sparsity of a cut with respect to a traffic matrix, and bisection
//! bandwidth.

use tb_graph::Graph;
use tb_traffic::TrafficMatrix;

/// Precomputed cut evaluator: evaluates the sparsity of arbitrary cuts of one
/// (graph, TM) pair without rescanning the TM's demand list from scratch.
#[derive(Debug, Clone)]
pub struct CutEvaluator<'a> {
    graph: &'a Graph,
    demands: Vec<(usize, usize, f64)>,
}

impl<'a> CutEvaluator<'a> {
    /// Creates an evaluator for the given graph and TM.
    pub fn new(graph: &'a Graph, tm: &TrafficMatrix) -> Self {
        assert_eq!(graph.num_nodes(), tm.num_switches());
        let demands = tm
            .demands()
            .iter()
            .map(|d| (d.src, d.dst, d.amount))
            .collect();
        CutEvaluator { graph, demands }
    }

    /// The graph under evaluation.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Capacity crossing the cut (each undirected link counted once — the
    /// per-direction capacity available to flow crossing the cut one way).
    pub fn cut_capacity(&self, in_set: &[bool]) -> f64 {
        self.graph.cut_capacity(in_set)
    }

    /// Demand crossing the cut in the more loaded direction.
    pub(crate) fn crossing_demand(&self, in_set: &[bool]) -> f64 {
        let mut fwd = 0.0;
        let mut rev = 0.0;
        for &(src, dst, amount) in &self.demands {
            match (in_set[src], in_set[dst]) {
                (true, false) => fwd += amount,
                (false, true) => rev += amount,
                _ => {}
            }
        }
        fwd.max(rev)
    }

    /// Sparsity of the cut: crossing capacity / crossing demand. Returns
    /// `f64::INFINITY` when no demand crosses (such cuts never constrain
    /// throughput).
    pub fn sparsity(&self, in_set: &[bool]) -> f64 {
        let demand = self.crossing_demand(in_set);
        if demand <= 0.0 {
            f64::INFINITY
        } else {
            self.cut_capacity(in_set) / demand
        }
    }

    /// True if the cut is a valid bipartition (neither side empty).
    pub(crate) fn is_proper(&self, in_set: &[bool]) -> bool {
        let k = in_set.iter().filter(|&&b| b).count();
        k > 0 && k < in_set.len()
    }
}

/// Sparsity of a single cut (convenience wrapper around [`CutEvaluator`]).
pub fn cut_sparsity(graph: &Graph, tm: &TrafficMatrix, in_set: &[bool]) -> f64 {
    CutEvaluator::new(graph, tm).sparsity(in_set)
}

/// Bisection bandwidth with respect to a TM: the minimum sparsity over cuts
/// that split the switches into two (near-)equal halves.
///
/// Exact (brute force) for graphs of at most `brute_force_limit` nodes;
/// otherwise a heuristic search over eigenvector-sweep balanced cuts and
/// random balanced partitions is used.
pub fn bisection_bandwidth(graph: &Graph, tm: &TrafficMatrix, brute_force_limit: usize) -> f64 {
    let n = graph.num_nodes();
    let ev = CutEvaluator::new(graph, tm);
    let half = n / 2;
    let mut best = f64::INFINITY;
    if n <= brute_force_limit && n <= 24 {
        // Enumerate all subsets of size floor(n/2) that contain node 0 (to
        // halve the symmetry).
        let mut indices: Vec<usize> = (0..half).collect();
        loop {
            let mut in_set = vec![false; n];
            for &i in &indices {
                in_set[i] = true;
            }
            if in_set[0] {
                let s = ev.sparsity(&in_set);
                best = best.min(s);
            }
            // next combination
            let mut i = half;
            loop {
                if i == 0 {
                    return best;
                }
                i -= 1;
                if indices[i] != i + n - half {
                    indices[i] += 1;
                    for j in i + 1..half {
                        indices[j] = indices[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }
    // Heuristic: eigenvector sweep balanced cut plus deterministic rotations.
    let spec = tb_graph::spectral::second_smallest_normalized_laplacian(graph, 300);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        spec.eigenvector[a]
            .partial_cmp(&spec.eigenvector[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut in_set = vec![false; n];
    for &u in order.iter().take(half) {
        in_set[u] = true;
    }
    best = best.min(ev.sparsity(&in_set));
    // A few deterministic alternative balanced cuts (index parity, blocks).
    let mut alt = vec![false; n];
    for (u, a) in alt.iter_mut().enumerate() {
        *a = u % 2 == 0;
    }
    best = best.min(ev.sparsity(&alt));
    let mut block = vec![false; n];
    for (u, b) in block.iter_mut().enumerate() {
        *b = u < half;
    }
    best = best.min(ev.sparsity(&block));
    best
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
    fn sparsity_of_a_path_cut() {
        // Path 0-1-2-3 with demand 1 from 0 to 3: cutting the middle link has
        // capacity 1, demand 1 -> sparsity 1.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let tm = TrafficMatrix::new(4, vec![demand(0, 3, 1.0)]);
        let s = cut_sparsity(&g, &tm, &[true, true, false, false]);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cut_with_no_crossing_demand_is_infinite() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let tm = TrafficMatrix::new(4, vec![demand(0, 1, 1.0)]);
        let s = cut_sparsity(&g, &tm, &[true, true, false, false]);
        assert!(s.is_infinite());
    }

    #[test]
    fn crossing_demand_takes_heavier_direction() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let tm = TrafficMatrix::new(2, vec![demand(0, 1, 3.0), demand(1, 0, 1.0)]);
        let ev = CutEvaluator::new(&g, &tm);
        assert_eq!(ev.crossing_demand(&[true, false]), 3.0);
        assert!((ev.sparsity(&[true, false]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bisection_of_barbell_finds_the_bridge() {
        // Two K4s joined by one link; A2A demand. The bisection must cut the
        // bridge: capacity 1.
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
        let bb = bisection_bandwidth(&g, &tm, 24);
        // crossing demand for the A2A TM: 4*4/8 = 2 in each direction.
        assert!((bb - 1.0 / 2.0).abs() < 1e-9, "got {bb}");
    }

    #[test]
    fn bisection_heuristic_on_larger_graph_is_finite() {
        let g = tb_graph::random::random_regular_graph(40, 4, 3);
        let tm = all_to_all(&vec![1usize; 40]);
        let bb = bisection_bandwidth(&g, &tm, 10);
        assert!(bb.is_finite());
        assert!(bb > 0.0);
    }

    #[test]
    fn proper_cut_detection() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm = TrafficMatrix::new(3, vec![demand(0, 2, 1.0)]);
        let ev = CutEvaluator::new(&g, &tm);
        assert!(!ev.is_proper(&[false, false, false]));
        assert!(!ev.is_proper(&[true, true, true]));
        assert!(ev.is_proper(&[true, false, false]));
    }
}
