//! Single-commodity maximum flow (Dinic's algorithm) and the induced minimum
//! s–t cut.
//!
//! Used by the cut tooling to compute exact minimum cuts between node sets
//! (e.g. validating bisection estimates) and by tests as an independent
//! oracle for two-terminal instances of the throughput problem (where max-flow
//! = min-cut holds exactly).

use crate::graph::Graph;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
struct FlowArc {
    to: usize,
    cap: f64,
    flow: f64,
    /// Index of the reverse arc in the arc list.
    rev: usize,
}

/// A Dinic max-flow instance over a directed arc set.
#[derive(Debug, Clone)]
pub struct MaxFlow {
    n: usize,
    arcs: Vec<FlowArc>,
    head: Vec<Vec<usize>>,
}

impl MaxFlow {
    /// Creates an empty instance with `n` nodes.
    pub fn new(n: usize) -> Self {
        MaxFlow {
            n,
            arcs: Vec::new(),
            head: vec![Vec::new(); n],
        }
    }

    /// Builds an instance from an undirected graph: every link becomes a pair
    /// of directed arcs, each with the link's capacity.
    pub fn from_graph(g: &Graph) -> Self {
        let mut mf = MaxFlow::new(g.num_nodes());
        for e in g.edges() {
            mf.add_edge(e.u, e.v, e.cap, e.cap);
        }
        mf
    }

    /// Adds a directed arc `u -> v` with capacity `cap` and a reverse arc with
    /// capacity `rev_cap` (use 0 for a purely directed arc).
    pub fn add_edge(&mut self, u: usize, v: usize, cap: f64, rev_cap: f64) {
        assert!(u < self.n && v < self.n && u != v);
        let a = self.arcs.len();
        self.arcs.push(FlowArc {
            to: v,
            cap,
            flow: 0.0,
            rev: a + 1,
        });
        self.arcs.push(FlowArc {
            to: u,
            cap: rev_cap,
            flow: 0.0,
            rev: a,
        });
        self.head[u].push(a);
        self.head[v].push(a + 1);
    }

    fn bfs_levels(&self, s: usize, t: usize) -> Option<Vec<i32>> {
        let mut level = vec![-1; self.n];
        let mut q = VecDeque::new();
        level[s] = 0;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for &aid in &self.head[u] {
                let a = self.arcs[aid];
                if level[a.to] < 0 && a.cap - a.flow > 1e-12 {
                    level[a.to] = level[u] + 1;
                    q.push_back(a.to);
                }
            }
        }
        if level[t] >= 0 {
            Some(level)
        } else {
            None
        }
    }

    fn dfs_push(
        &mut self,
        u: usize,
        t: usize,
        pushed: f64,
        level: &[i32],
        it: &mut [usize],
    ) -> f64 {
        if u == t {
            return pushed;
        }
        while it[u] < self.head[u].len() {
            let aid = self.head[u][it[u]];
            let (to, residual) = {
                let a = self.arcs[aid];
                (a.to, a.cap - a.flow)
            };
            if residual > 1e-12 && level[to] == level[u] + 1 {
                let d = self.dfs_push(to, t, pushed.min(residual), level, it);
                if d > 1e-12 {
                    self.arcs[aid].flow += d;
                    let rev = self.arcs[aid].rev;
                    self.arcs[rev].flow -= d;
                    return d;
                }
            }
            it[u] += 1;
        }
        0.0
    }

    /// Computes the maximum s–t flow value. Can be called once per instance
    /// (flows accumulate).
    pub(crate) fn max_flow(&mut self, s: usize, t: usize) -> f64 {
        assert!(s != t);
        let mut total = 0.0;
        while let Some(level) = self.bfs_levels(s, t) {
            let mut it = vec![0usize; self.n];
            loop {
                let pushed = self.dfs_push(s, t, f64::INFINITY, &level, &mut it);
                if pushed <= 1e-12 {
                    break;
                }
                total += pushed;
            }
        }
        total
    }

    /// After [`max_flow`], returns the source side of a minimum s–t cut
    /// (nodes reachable from `s` in the residual graph).
    pub(crate) fn min_cut_side(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.n];
        let mut q = VecDeque::new();
        seen[s] = true;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for &aid in &self.head[u] {
                let a = self.arcs[aid];
                if !seen[a.to] && a.cap - a.flow > 1e-9 {
                    seen[a.to] = true;
                    q.push_back(a.to);
                }
            }
        }
        seen
    }
}

/// Convenience: the maximum flow between two nodes of an undirected graph.
pub fn max_flow_value(g: &Graph, s: usize, t: usize) -> f64 {
    MaxFlow::from_graph(g).max_flow(s, t)
}

/// Convenience: the minimum s–t cut of an undirected graph as
/// (cut capacity, source-side membership vector).
pub fn min_st_cut(g: &Graph, s: usize, t: usize) -> (f64, Vec<bool>) {
    let mut mf = MaxFlow::from_graph(g);
    let value = mf.max_flow(s, t);
    (value, mf.min_cut_side(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_graph_flow_is_one() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!((max_flow_value(&g, 0, 3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_gives_two_disjoint_paths() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!((max_flow_value(&g, 0, 2) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn complete_graph_flow_equals_degree() {
        let mut g = Graph::new(5);
        for i in 0..5 {
            for j in i + 1..5 {
                g.add_unit_edge(i, j);
            }
        }
        assert!((max_flow_value(&g, 0, 4) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_bottleneck() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 5.0);
        g.add_edge(1, 2, 2.5);
        assert!((max_flow_value(&g, 0, 2) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn min_cut_matches_flow_and_separates() {
        // Barbell: two K4s joined by one edge -> min cut 1 between the sides.
        let mut g = Graph::new(8);
        for base in [0usize, 4] {
            for i in 0..4 {
                for j in i + 1..4 {
                    g.add_unit_edge(base + i, base + j);
                }
            }
        }
        g.add_unit_edge(0, 4);
        let (value, side) = min_st_cut(&g, 1, 5);
        assert!((value - 1.0).abs() < 1e-9);
        assert!(side[0] && side[1] && side[2] && side[3]);
        assert!(!side[4] && !side[5]);
        assert!((g.cut_capacity(&side) - value).abs() < 1e-9);
    }

    #[test]
    fn directed_arcs_respected() {
        let mut mf = MaxFlow::new(3);
        mf.add_edge(0, 1, 1.0, 0.0);
        mf.add_edge(1, 2, 1.0, 0.0);
        assert!((mf.max_flow(0, 2) - 1.0).abs() < 1e-9);
        let mut back = MaxFlow::new(3);
        back.add_edge(0, 1, 1.0, 0.0);
        back.add_edge(1, 2, 1.0, 0.0);
        assert!(back.max_flow(2, 0).abs() < 1e-9);
    }

    #[test]
    fn parallel_edges_add_capacity() {
        let mut g = Graph::new(2);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(0, 1);
        assert!((max_flow_value(&g, 0, 1) - 3.0).abs() < 1e-9);
    }
}
