//! Sparsity of a cut with respect to a traffic matrix, and bisection
//! bandwidth.
//!
//! Every cut is scored by [`FlowProblem::cut_bound`], the routine the FPTAS's
//! swept cuts and the certificate verifier sum cuts with, so a cut's sparsity
//! here is the same bits as its bound there.
//!
//! The estimators build their candidates one node at a time in a
//! `GrownSet`, which keeps the capacity and demand crossing the set each way
//! as running sums, as the FPTAS's swept cuts do: a node joins in
//! O(degree + its flows) instead of the O(arcs + commodities) of a sum from
//! scratch. The running bound only screens: a candidate within
//! `RESUM_MARGIN` of the best so far is re-summed by `cut_bound`, and only
//! that value is compared and kept, so every reported cut and sparsity is the
//! one scoring every candidate from scratch would give.

use tb_flow::{CutCrossing, FlowProblem};
use tb_graph::Graph;
use tb_traffic::TrafficMatrix;

/// The arc view of `(graph, tm)` that scores cuts; `None` for a TM without
/// demands, under which every cut's sparsity is infinite.
///
/// # Panics
/// Panics if the TM does not match the graph's size.
pub(crate) fn instance(graph: &Graph, tm: &TrafficMatrix) -> Option<FlowProblem> {
    assert_eq!(graph.num_nodes(), tm.num_switches());
    (tm.num_flows() > 0).then(|| FlowProblem::new(graph, tm))
}

/// How far (relative) above the best sparsity so far a candidate's running
/// bound may lie and still be re-summed. The running sums of a set of `n`
/// nodes take at most a few `n · degree` additions, whose rounding stays
/// many orders of magnitude below this, so no candidate whose exact
/// sparsity beats the best is screened out.
const RESUM_MARGIN: f64 = 1e-9;

/// A node set grown and shrunk one node at a time, last in first out, with
/// the capacity and demand crossing it each way kept as running sums.
/// Shrinking restores the sums saved when the node joined, so the sums of a
/// set are always those of adding its members, in the order they joined, to
/// the empty set: rounding never builds up over a long enumeration.
#[derive(Debug)]
pub(crate) struct GrownSet<'a> {
    prob: &'a FlowProblem,
    /// Per node, the demands it sends (destination, amount) and receives
    /// (source, amount), self-demands left out.
    leaving: Vec<Vec<(usize, f64)>>,
    entering: Vec<Vec<(usize, f64)>>,
    in_set: Vec<bool>,
    /// What crosses out of the set and into it.
    out: CutCrossing,
    into: CutCrossing,
    /// The members in the order they joined, each with the crossings from
    /// before it joined.
    joined: Vec<(usize, CutCrossing, CutCrossing)>,
}

impl<'a> GrownSet<'a> {
    /// The empty set over `prob`'s nodes.
    pub(crate) fn new(prob: &'a FlowProblem) -> Self {
        let n = prob.num_nodes();
        let mut leaving = vec![Vec::new(); n];
        let mut entering = vec![Vec::new(); n];
        for s in prob.sources() {
            for &(dst, d) in s.dests.iter().filter(|&&(dst, _)| dst != s.src) {
                leaving[s.src].push((dst, d));
                entering[dst].push((s.src, d));
            }
        }
        GrownSet {
            prob,
            leaving,
            entering,
            in_set: vec![false; n],
            out: CutCrossing::default(),
            into: CutCrossing::default(),
            joined: Vec::new(),
        }
    }

    /// Adds `v`, which must not be a member.
    pub(crate) fn push(&mut self, v: usize) {
        debug_assert!(!self.in_set[v]);
        self.joined.push((v, self.out, self.into));
        let arcs = self.prob.arcs();
        for (w, aid) in self.prob.out_arcs(v) {
            let (cap, back) = (arcs[aid].cap, arcs[aid ^ 1].cap);
            if self.in_set[w] {
                self.into.remove_arc(cap);
                self.out.remove_arc(back);
            } else {
                self.out.add_arc(cap);
                self.into.add_arc(back);
            }
        }
        for &(w, d) in &self.leaving[v] {
            if self.in_set[w] {
                self.into.remove_flow(d);
            } else {
                self.out.add_flow(d);
            }
        }
        for &(u, d) in &self.entering[v] {
            if self.in_set[u] {
                self.out.remove_flow(d);
            } else {
                self.into.add_flow(d);
            }
        }
        self.in_set[v] = true;
    }

    /// Removes the member that joined last.
    pub(crate) fn pop(&mut self) {
        let (v, out, into) = self.joined.pop().expect("a member to remove");
        self.in_set[v] = false;
        self.out = out;
        self.into = into;
    }

    /// Removes every member.
    pub(crate) fn clear(&mut self) {
        while !self.joined.is_empty() {
            self.pop();
        }
    }
}

/// The sparsest of the cuts offered so far.
#[derive(Debug)]
pub(crate) struct Best<'a> {
    prob: Option<&'a FlowProblem>,
    /// Its sparsity (crossing capacity over crossing demand, in the tighter
    /// direction); infinite while no offered cut has crossing demand.
    pub sparsity: f64,
    /// Its membership vector (all false before any).
    pub cut: Vec<bool>,
}

impl<'a> Best<'a> {
    /// No cut yet over `n` nodes, scored against `prob`.
    pub(crate) fn new(prob: Option<&'a FlowProblem>, n: usize) -> Self {
        Best {
            prob,
            sparsity: f64::INFINITY,
            cut: vec![false; n],
        }
    }

    /// Keeps the current members of `set` if they cut strictly sparser than
    /// the best so far: the running sums screen, [`FlowProblem::cut_bound`]
    /// decides.
    pub(crate) fn offer_grown(&mut self, set: &GrownSet<'_>) {
        if set.out.no_flows() && set.into.no_flows() {
            return;
        }
        let estimate = set.out.bound().min(set.into.bound());
        if estimate > self.sparsity * (1.0 + RESUM_MARGIN) {
            return;
        }
        self.offer(&set.in_set);
    }

    /// Keeps `cut` if it is strictly sparser than the best so far.
    pub(crate) fn offer(&mut self, cut: &[bool]) {
        let Some(prob) = self.prob else { return };
        let sparsity = prob.cut_bound(cut, 1.0);
        if sparsity < self.sparsity {
            self.sparsity = sparsity;
            self.cut.copy_from_slice(cut);
        }
    }
}

/// Bisection bandwidth with respect to a TM: the minimum sparsity over cuts
/// that split the switches into two (near-)equal halves.
///
/// Exact (brute force over every half holding node 0) for graphs of at most
/// `brute_force_limit` nodes and at most 24; otherwise the best of an
/// eigenvector-sweep balanced cut and two fixed balanced partitions.
pub fn bisection_bandwidth(graph: &Graph, tm: &TrafficMatrix, brute_force_limit: usize) -> f64 {
    let n = graph.num_nodes();
    let prob = instance(graph, tm);
    let mut best = Best::new(prob.as_ref(), n);
    let half = n / 2;
    if n <= brute_force_limit && n <= 24 {
        // Every half that holds node 0 (to halve the symmetry): node 0 plus
        // `half - 1` of the others, as set bits of a mask over nodes 1..n.
        let mut in_set = vec![false; n];
        for mask in 0u32..1 << n.saturating_sub(1) {
            if mask.count_ones() as usize + 1 == half {
                in_set[0] = true;
                for (u, c) in in_set[1..].iter_mut().enumerate() {
                    *c = (mask >> u) & 1 == 1;
                }
                best.offer(&in_set);
            }
        }
        return best.sparsity;
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
    best.offer(&in_set);
    // A few deterministic alternative balanced cuts (index parity, blocks).
    let mut alt = vec![false; n];
    for (u, a) in alt.iter_mut().enumerate() {
        *a = u % 2 == 0;
    }
    best.offer(&alt);
    let mut block = vec![false; n];
    for (u, b) in block.iter_mut().enumerate() {
        *b = u < half;
    }
    best.offer(&block);
    best.sparsity
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_traffic::synthetic::all_to_all;
    use tb_traffic::{Demand, TrafficMatrix};

    fn demand(src: usize, dst: usize, amount: f64) -> Demand {
        Demand { src, dst, amount }
    }

    /// The sparsity of `cut` alone.
    fn sparsity(g: &Graph, tm: &TrafficMatrix, cut: &[bool]) -> f64 {
        let prob = instance(g, tm);
        let mut best = Best::new(prob.as_ref(), g.num_nodes());
        best.offer(cut);
        best.sparsity
    }

    #[test]
    fn sparsity_of_a_path_cut() {
        // Path 0-1-2-3 with demand 1 from 0 to 3: cutting the middle link has
        // capacity 1, demand 1 -> sparsity 1.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let tm = TrafficMatrix::new(4, vec![demand(0, 3, 1.0)]);
        let s = sparsity(&g, &tm, &[true, true, false, false]);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cut_with_no_crossing_demand_is_infinite() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let tm = TrafficMatrix::new(4, vec![demand(0, 1, 1.0)]);
        let s = sparsity(&g, &tm, &[true, true, false, false]);
        assert!(s.is_infinite());
    }

    #[test]
    fn crossing_demand_takes_heavier_direction() {
        // 3 units cross one way and 1 the other over one link each way: the
        // heavier direction binds.
        let g = Graph::from_edges(2, &[(0, 1)]);
        let tm = TrafficMatrix::new(2, vec![demand(0, 1, 3.0), demand(1, 0, 1.0)]);
        assert_eq!(sparsity(&g, &tm, &[true, false]), 1.0 / 3.0);
        assert_eq!(sparsity(&g, &tm, &[false, true]), 1.0 / 3.0);
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
    fn empty_tm_bisects_to_infinity() {
        let g = tb_graph::random::random_regular_graph(12, 3, 1);
        let tm = TrafficMatrix::empty(12);
        assert_eq!(bisection_bandwidth(&g, &tm, 24), f64::INFINITY);
        assert_eq!(bisection_bandwidth(&g, &tm, 0), f64::INFINITY);
    }
}
