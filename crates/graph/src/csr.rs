//! Compressed sparse row (CSR) adjacency: the flat arc layout shared by every
//! shortest-path consumer in the workspace.
//!
//! The general-purpose [`Graph`] stores adjacency as
//! `Vec<Vec<(usize, usize)>>`, which is convenient to build incrementally but
//! pointer-chasing to traverse. Hot paths (the Fleischer solver's inner
//! Dijkstra, the k-shortest-path router) instead traverse a [`CsrGraph`]: one
//! offsets array plus two flat arrays (`heads`, length indices), so a node's
//! out-arcs are a contiguous cache-friendly slice.
//!
//! Each directed arc carries a *length index* into a caller-provided length
//! array. For a CSR built [`from_graph`](CsrGraph::from_graph) the index is
//! the undirected edge id (both directions share one length); for one built
//! [`from_directed_arcs`](CsrGraph::from_directed_arcs) it is whatever arc id
//! the caller assigned (the flow solver uses per-direction arc ids).

use crate::graph::Graph;

/// Flat CSR adjacency over directed arcs. Immutable once built.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    num_nodes: usize,
    /// `offsets[u]..offsets[u + 1]` indexes `heads` / `lids` for node `u`.
    offsets: Vec<u32>,
    /// Head (target node) of each directed arc.
    heads: Vec<u32>,
    /// Length index of each directed arc (an index into the caller's length
    /// array, *not* a length itself).
    lids: Vec<u32>,
}

impl CsrGraph {
    /// Builds the directed CSR view of an undirected [`Graph`]: every edge
    /// becomes two arcs, both carrying the edge id as their length index.
    pub fn from_graph(g: &Graph) -> Self {
        let arcs = g
            .edges()
            .iter()
            .enumerate()
            .flat_map(|(eid, e)| [(e.u, e.v, eid), (e.v, e.u, eid)]);
        Self::from_directed_arcs(g.num_nodes(), arcs)
    }

    /// Builds a CSR from explicit `(from, to, length index)` directed arcs,
    /// using a counting sort over tails (O(n + m), no per-node vectors).
    pub fn from_directed_arcs(
        num_nodes: usize,
        arcs: impl IntoIterator<Item = (usize, usize, usize)> + Clone,
    ) -> Self {
        assert!(
            num_nodes < u32::MAX as usize,
            "node count exceeds CSR u32 range"
        );
        let mut counts = vec![0u32; num_nodes + 1];
        let mut num_arcs = 0usize;
        for (from, to, _) in arcs.clone() {
            debug_assert!(
                from < num_nodes && to < num_nodes,
                "arc endpoint out of range"
            );
            counts[from + 1] += 1;
            num_arcs += 1;
        }
        assert!(
            num_arcs < u32::MAX as usize,
            "arc count exceeds CSR u32 range"
        );
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut heads = vec![0u32; num_arcs];
        let mut lids = vec![0u32; num_arcs];
        // `counts[u]` now walks through node u's slice as its arcs are placed.
        let mut cursor = counts;
        for (from, to, lid) in arcs {
            let slot = cursor[from] as usize;
            heads[slot] = to as u32;
            lids[slot] = lid as u32;
            cursor[from] += 1;
        }
        CsrGraph {
            num_nodes,
            offsets,
            heads,
            lids,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.heads.len()
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Out-arcs of `u` as `(head, length index)` pairs — a contiguous slice
    /// walk, the hot loop of the SSSP kernel.
    #[inline]
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let lo = self.offsets[u] as usize;
        let hi = self.offsets[u + 1] as usize;
        self.heads[lo..hi]
            .iter()
            .zip(&self.lids[lo..hi])
            .map(|(&h, &l)| (h as usize, l as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_graph_mirrors_adjacency() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.num_nodes(), 4);
        assert_eq!(csr.num_arcs(), 8);
        for u in 0..4 {
            let mut csr_adj: Vec<(usize, usize)> = csr.neighbors(u).collect();
            let mut g_adj: Vec<(usize, usize)> = g.neighbors(u).to_vec();
            csr_adj.sort_unstable();
            g_adj.sort_unstable();
            assert_eq!(csr_adj, g_adj, "node {u}");
        }
    }

    #[test]
    fn directed_arcs_keep_length_indices() {
        // Two arcs out of node 0 with distinct length ids.
        let csr = CsrGraph::from_directed_arcs(3, vec![(0, 1, 7), (0, 2, 9), (2, 0, 1)]);
        let adj0: Vec<(usize, usize)> = csr.neighbors(0).collect();
        assert_eq!(adj0, vec![(1, 7), (2, 9)]);
        assert_eq!(csr.degree(1), 0);
        let adj2: Vec<(usize, usize)> = csr.neighbors(2).collect();
        assert_eq!(adj2, vec![(0, 1)]);
    }

    #[test]
    fn parallel_edges_survive() {
        let mut g = Graph::new(2);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(0, 1);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.degree(0), 2);
        let lids: Vec<usize> = csr.neighbors(0).map(|(_, l)| l).collect();
        assert_eq!(lids, vec![0, 1]);
    }

    #[test]
    fn empty_graph() {
        let csr = CsrGraph::from_graph(&Graph::new(3));
        assert_eq!(csr.num_arcs(), 0);
        assert_eq!(csr.neighbors(0).count(), 0);
    }
}
