//! Undirected capacitated multigraph used to model switch-level networks.
//!
//! Nodes are switches (indexed `0..n`). Edges are switch-to-switch links with a
//! capacity (the paper sets every switch-to-switch link to capacity 1 unless
//! noted otherwise). Servers are *not* nodes of this graph: the evaluation
//! framework folds servers into their switch because server-to-switch links
//! have infinite capacity (§II-A of the paper).

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A single undirected link between two switches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// One endpoint.
    pub u: usize,
    /// The other endpoint.
    pub v: usize,
    /// Capacity of the link *in each direction* (the fluid-flow model treats an
    /// undirected link as a pair of unidirectional links of this capacity).
    pub cap: f64,
}

/// An undirected, capacitated multigraph.
///
/// Parallel edges are allowed (some topologies, e.g. HyperX with link trunking
/// or small Dragonflies, use them); self-loops are not.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    /// adjacency: for each node, a list of (neighbor, edge index).
    adj: Vec<Vec<(usize, usize)>>,
}

impl Graph {
    /// Creates an empty graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Builds a graph from an explicit edge list. Panics if an endpoint is out
    /// of range or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v, 1.0);
        }
        g
    }

    /// Number of nodes (switches).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of undirected edges (links).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge with the given capacity and returns its index.
    ///
    /// # Panics
    /// Panics on self-loops, out-of-range endpoints, or non-positive capacity.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: f64) -> usize {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        assert_ne!(u, v, "self-loops are not allowed in switch graphs");
        assert!(cap > 0.0, "edge capacity must be positive");
        let id = self.edges.len();
        self.edges.push(Edge { u, v, cap });
        self.adj[u].push((v, id));
        self.adj[v].push((u, id));
        id
    }

    /// Adds a unit-capacity undirected edge.
    pub fn add_unit_edge(&mut self, u: usize, v: usize) -> usize {
        self.add_edge(u, v, 1.0)
    }

    /// The edge list.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edge by index.
    #[inline]
    pub fn edge(&self, id: usize) -> Edge {
        self.edges[id]
    }

    /// Neighbors of `u` as (neighbor, edge index) pairs. Parallel edges appear
    /// once per copy.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[(usize, usize)] {
        &self.adj[u]
    }

    /// Degree of `u` counting parallel edges (i.e. number of incident link
    /// endpoints, the "port count" used for equipment accounting).
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Degree sequence (ports used on each switch), in node order.
    pub fn degree_sequence(&self) -> Vec<usize> {
        (0..self.n).map(|u| self.degree(u)).collect()
    }

    /// Total capacity summed over all undirected edges, counting both
    /// directions (this is the "total link capacity" of the volumetric bound in
    /// §II-B of the paper).
    #[cfg(test)]
    fn total_directed_capacity(&self) -> f64 {
        2.0 * self.edges.iter().map(|e| e.cap).sum::<f64>()
    }

    /// Number of parallel edges between u and v.
    pub fn edge_multiplicity(&self, u: usize, v: usize) -> usize {
        self.adj[u].iter().filter(|&&(w, _)| w == v).count()
    }

    /// Sum of capacities of edges crossing the cut `(set, complement)`.
    ///
    /// `in_set[u]` must be true iff node `u` belongs to the set.
    pub fn cut_capacity(&self, in_set: &[bool]) -> f64 {
        assert_eq!(in_set.len(), self.n);
        self.edges
            .iter()
            .filter(|e| in_set[e.u] != in_set[e.v])
            .map(|e| e.cap)
            .sum()
    }

    /// The set of distinct neighbors of `u` (ignoring parallel edges).
    pub fn distinct_neighbors(&self, u: usize) -> BTreeSet<usize> {
        self.adj[u].iter().map(|&(w, _)| w).collect()
    }

    /// Returns a new graph with every capacity multiplied by `factor`.
    pub fn scaled_capacities(&self, factor: f64) -> Graph {
        assert!(factor > 0.0);
        let mut g = Graph::new(self.n);
        for e in &self.edges {
            g.add_edge(e.u, e.v, e.cap * factor);
        }
        g
    }

    /// Builds the subdivision of this graph: every edge is replaced by a path
    /// of `p` edges (adding `p - 1` new nodes per original edge), each new edge
    /// keeping the original capacity. Used by the Theorem 1 "graph B"
    /// construction (expander with subdivided edges).
    pub fn subdivide(&self, p: usize) -> Graph {
        assert!(p >= 1);
        if p == 1 {
            return self.clone();
        }
        let extra = self.edges.len() * (p - 1);
        let mut g = Graph::new(self.n + extra);
        let mut next = self.n;
        for e in &self.edges {
            let mut prev = e.u;
            for _ in 0..p - 1 {
                g.add_edge(prev, next, e.cap);
                prev = next;
                next += 1;
            }
            g.add_edge(prev, e.v, e.cap);
        }
        g
    }

    /// Checks structural sanity: endpoints in range, no self-loops, positive
    /// capacities, adjacency consistent with the edge list. Used by tests and
    /// by generators in debug builds.
    pub fn validate(&self) -> Result<(), String> {
        let mut incident = vec![0usize; self.n];
        for (i, e) in self.edges.iter().enumerate() {
            if e.u >= self.n || e.v >= self.n {
                return Err(format!("edge {i} endpoint out of range"));
            }
            if e.u == e.v {
                return Err(format!("edge {i} is a self-loop"));
            }
            if e.cap <= 0.0 || e.cap.is_nan() {
                return Err(format!("edge {i} has non-positive capacity"));
            }
            incident[e.u] += 1;
            incident[e.v] += 1;
        }
        for (u, expected) in incident.iter().enumerate() {
            if self.adj[u].len() != *expected {
                return Err(format!("adjacency of node {u} inconsistent with edge list"));
            }
            for &(v, id) in &self.adj[u] {
                let e = self.edges[id];
                if !((e.u == u && e.v == v) || (e.v == u && e.u == v)) {
                    return Err(format!(
                        "adjacency entry ({u},{v},{id}) does not match edge"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn add_edges_and_degrees() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(1, 2);
        g.add_unit_edge(2, 3);
        g.add_unit_edge(3, 0);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree_sequence(), vec![2, 2, 2, 2]);
        assert_eq!(g.edge_multiplicity(0, 1), 1);
        assert_eq!(g.edge_multiplicity(1, 0), 1);
        assert_eq!(g.edge_multiplicity(0, 2), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn parallel_edges_counted() {
        let mut g = Graph::new(2);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(0, 1);
        assert_eq!(g.edge_multiplicity(0, 1), 2);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        let mut g = Graph::new(2);
        g.add_unit_edge(1, 1);
    }

    #[test]
    fn cut_capacity_of_square() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let cut = vec![true, true, false, false];
        assert_eq!(g.cut_capacity(&cut), 2.0);
        let cut = vec![true, false, true, false];
        assert_eq!(g.cut_capacity(&cut), 4.0);
    }

    #[test]
    fn total_directed_capacity_counts_both_directions() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.5);
        assert!((g.total_directed_capacity() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn subdivision_replaces_edges_with_paths() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let s = g.subdivide(3);
        // 3 original nodes + 3 edges * 2 new nodes each.
        assert_eq!(s.num_nodes(), 3 + 6);
        assert_eq!(s.num_edges(), 9);
        assert!(s.validate().is_ok());
        // Every original node keeps degree 2; every new node has degree 2.
        for u in 0..s.num_nodes() {
            assert_eq!(s.degree(u), 2);
        }
    }

    #[test]
    fn scaled_capacities() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 2.0);
        let s = g.scaled_capacities(0.5);
        assert!((s.edge(0).cap - 1.0).abs() < 1e-12);
    }
}
