//! The directed-arc view of a throughput instance.
//!
//! The switch graph is undirected, but the fluid-flow model treats every link
//! as a pair of unidirectional arcs of the link's capacity (§II-A). Solvers
//! work on this arc view, with commodities grouped by source switch so that a
//! single shortest-path tree serves every destination of that source.
//!
//! Adjacency is stored as a [`CsrGraph`] (flat offsets + arc arrays) whose
//! length indices are the arc ids, so the shared `tb_graph` SSSP kernel runs
//! directly over it with the solver's per-arc length function.

use tb_graph::{CsrGraph, Graph};
use tb_traffic::TrafficMatrix;

/// One directed arc.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arc {
    /// Tail (origin) switch.
    pub from: usize,
    /// Head (destination) switch.
    pub to: usize,
    /// Capacity in this direction.
    pub cap: f64,
}

/// Demands of one source switch.
#[derive(Debug, Clone)]
pub struct SourceDemands {
    /// The source switch.
    pub src: usize,
    /// (destination switch, demand) pairs, each demand > 0.
    pub dests: Vec<(usize, f64)>,
}

/// A throughput instance: arcs plus commodities grouped by source.
#[derive(Debug, Clone)]
pub struct FlowProblem {
    num_nodes: usize,
    arcs: Vec<Arc>,
    /// CSR over the directed arcs; length indices are arc ids.
    csr: CsrGraph,
    /// Commodities grouped by source.
    sources: Vec<SourceDemands>,
    /// Total demand over all commodities.
    total_demand: f64,
}

impl FlowProblem {
    /// Builds the arc view of `graph` with the demands of `tm`.
    ///
    /// # Panics
    /// Panics if the TM references switches outside the graph or has no
    /// demands.
    pub fn new(graph: &Graph, tm: &TrafficMatrix) -> Self {
        assert_eq!(
            graph.num_nodes(),
            tm.num_switches(),
            "traffic matrix does not match the graph size"
        );
        assert!(tm.num_flows() > 0, "traffic matrix has no demands");
        let n = graph.num_nodes();
        let mut arcs = Vec::with_capacity(2 * graph.num_edges());
        for e in graph.edges() {
            arcs.push(Arc {
                from: e.u,
                to: e.v,
                cap: e.cap,
            });
            arcs.push(Arc {
                from: e.v,
                to: e.u,
                cap: e.cap,
            });
        }
        let csr = CsrGraph::from_directed_arcs(
            n,
            arcs.iter().enumerate().map(|(aid, a)| (a.from, a.to, aid)),
        );
        let mut by_src: std::collections::BTreeMap<usize, Vec<(usize, f64)>> =
            std::collections::BTreeMap::new();
        for d in tm.demands() {
            by_src.entry(d.src).or_default().push((d.dst, d.amount));
        }
        let sources: Vec<SourceDemands> = by_src
            .into_iter()
            .map(|(src, dests)| SourceDemands { src, dests })
            .collect();
        let total_demand = tm.total_demand();
        FlowProblem {
            num_nodes: n,
            arcs,
            csr,
            sources,
            total_demand,
        }
    }

    /// Number of switches.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed arcs (twice the number of links).
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// The arc list.
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// The CSR adjacency over the directed arcs (length indices = arc ids);
    /// this is what the SSSP kernel traverses.
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Outgoing arcs of `u` as `(head, arc id)` pairs.
    pub fn out_arcs(&self, u: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.csr.neighbors(u)
    }

    /// Commodities grouped by source.
    pub fn sources(&self) -> &[SourceDemands] {
        &self.sources
    }

    /// Total number of commodities (flows).
    pub(crate) fn num_commodities(&self) -> usize {
        self.sources.iter().map(|s| s.dests.len()).sum()
    }

    /// Sum of all demands.
    pub fn total_demand(&self) -> f64 {
        self.total_demand
    }

    /// Per-arc capacities in arc-id order — the shared accessor the solvers
    /// initialize their length/constraint state from (the FPTAS feeds it to
    /// [`tb_flow::lengths::MwuLengths`](crate::MwuLengths), the exact LP
    /// builds its capacity rows from it).
    pub(crate) fn arc_caps(&self) -> impl Iterator<Item = f64> + '_ {
        self.arcs.iter().map(|a| a.cap)
    }

    /// Total directed capacity (sum of arc capacities).
    pub(crate) fn total_capacity(&self) -> f64 {
        self.arcs.iter().map(|a| a.cap).sum()
    }

    /// Dijkstra over arcs from `src` under per-arc lengths; returns distances
    /// and, for each node, the (parent node, arc id) used to reach it.
    ///
    /// Compatibility wrapper over the shared `tb_graph` kernel that allocates
    /// the result vectors; the solver hot path drives
    /// [`tb_graph::sssp_csr`] with a reused workspace instead.
    pub fn shortest_path_tree(
        &self,
        src: usize,
        arc_len: &[f64],
    ) -> (Vec<f64>, Vec<Option<(usize, usize)>>) {
        let mut ws = tb_graph::SsspWorkspace::new();
        tb_graph::sssp_csr(&self.csr, src, arc_len, None, &mut ws);
        let tree = ws.to_tree(self.num_nodes);
        (tree.dist, tree.parent)
    }

    /// The volumetric throughput estimate of §II-B: total capacity divided by
    /// (total demand × average hop length of the demands). Used to pre-scale
    /// the instance so the FPTAS runs a predictable number of phases; it is
    /// *not* a valid bound by itself (paths may be longer than shortest).
    ///
    /// Returns `0.0` iff some demand pair is disconnected — the solver uses
    /// this to fold the reachability check into the same BFS sweep: one BFS
    /// per source, summed serially in source order.
    pub fn volumetric_estimate(&self, graph: &Graph) -> f64 {
        let per_source = |s: &SourceDemands| -> f64 {
            let dist = tb_graph::bfs_distances(graph, s.src);
            let mut hops = 0.0;
            for &(dst, d) in &s.dests {
                let h = dist[dst];
                if h == tb_graph::shortest_path::UNREACHABLE {
                    return f64::NAN; // flags a disconnected pair
                }
                hops += d * h as f64;
            }
            hops
        };
        let weighted_hops: f64 = self.sources.iter().map(per_source).sum();
        if weighted_hops.is_nan() {
            return 0.0;
        }
        if weighted_hops <= 0.0 {
            return 1.0;
        }
        self.total_capacity() / weighted_hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_graph::Graph;
    use tb_traffic::{Demand, TrafficMatrix};

    fn tiny() -> (Graph, TrafficMatrix) {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm = TrafficMatrix::new(
            3,
            vec![
                Demand {
                    src: 0,
                    dst: 2,
                    amount: 1.0,
                },
                Demand {
                    src: 2,
                    dst: 0,
                    amount: 0.5,
                },
            ],
        );
        (g, tm)
    }

    #[test]
    fn arc_view() {
        let (g, tm) = tiny();
        let p = FlowProblem::new(&g, &tm);
        assert_eq!(p.num_arcs(), 4);
        assert_eq!(p.num_commodities(), 2);
        assert_eq!(p.sources().len(), 2);
        assert!((p.total_capacity() - 4.0).abs() < 1e-12);
        assert!((p.total_demand() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arc_directions() {
        let (g, tm) = tiny();
        let p = FlowProblem::new(&g, &tm);
        let mut seen = 0;
        for (v, aid) in p.out_arcs(1) {
            assert_eq!(p.arcs()[aid].from, 1);
            assert_eq!(p.arcs()[aid].to, v);
            seen += 1;
        }
        assert_eq!(seen, 2);
    }

    #[test]
    fn csr_matches_arc_list() {
        let (g, tm) = tiny();
        let p = FlowProblem::new(&g, &tm);
        assert_eq!(p.csr().num_arcs(), p.num_arcs());
        for u in 0..p.num_nodes() {
            for (v, aid) in p.csr().neighbors(u) {
                assert_eq!(p.arcs()[aid].from, u);
                assert_eq!(p.arcs()[aid].to, v);
            }
        }
    }

    #[test]
    fn shortest_path_tree_on_arcs() {
        let (g, tm) = tiny();
        let p = FlowProblem::new(&g, &tm);
        let len = vec![1.0; p.num_arcs()];
        let (dist, parent) = p.shortest_path_tree(0, &len);
        assert_eq!(dist[2], 2.0);
        let (pnode, _) = parent[2].unwrap();
        assert_eq!(pnode, 1);
    }

    #[test]
    fn volumetric_estimate_path() {
        // Path of 2 links: total directed capacity 4, demand 1.0 at 2 hops +
        // 0.5 at 2 hops = 3 weighted hops -> estimate 4/3.
        let (g, tm) = tiny();
        let p = FlowProblem::new(&g, &tm);
        assert!((p.volumetric_estimate(&g) - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn volumetric_estimate_zero_when_disconnected() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(2, 3);
        let tm = TrafficMatrix::new(
            4,
            vec![Demand {
                src: 0,
                dst: 3,
                amount: 1.0,
            }],
        );
        let p = FlowProblem::new(&g, &tm);
        assert_eq!(p.volumetric_estimate(&g), 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_tm_rejected() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let tm = TrafficMatrix::empty(2);
        FlowProblem::new(&g, &tm);
    }
}
