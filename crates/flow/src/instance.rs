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
    /// (total demand × average hop length of the demands), `C / Σ d·hops`.
    /// It is an upper bound on throughput: routing `t·d` for every demand
    /// over paths no shorter than shortest uses at least `t·Σ d·hops` of the
    /// total capacity `C`. Used to pre-scale the instance so the FPTAS runs a
    /// predictable number of phases.
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

    /// The throughput bound of the cut between the node set `in_set` and its
    /// complement, with every demand multiplied by `scale` (§II-B): all
    /// demand from `S` to `S̄` crosses the arcs from `S` to `S̄`, so
    /// `t <= cap(S→S̄) / d(S→S̄)`, and likewise the other way. Returns the
    /// smaller of the two, infinite when no demand crosses either way. Summed
    /// in a fixed order — arcs in arc order, commodities source-major — so
    /// the solver, the certificate verifier and the sparsest-cut estimators
    /// of `tb_cuts` agree bit for bit; no symmetry of capacities or demands
    /// is assumed. This is the one routine that sums a cut.
    pub fn cut_bound(&self, in_set: &[bool], scale: f64) -> f64 {
        let (mut cap_out, mut cap_in) = (0.0f64, 0.0f64);
        // Arcs come in (forward, backward) pairs, one pair per link.
        for pair in self.arcs.chunks_exact(2) {
            let (fwd, bwd) = (&pair[0], &pair[1]);
            match (in_set[fwd.from], in_set[fwd.to]) {
                (true, false) => {
                    cap_out += fwd.cap;
                    cap_in += bwd.cap;
                }
                (false, true) => {
                    cap_in += fwd.cap;
                    cap_out += bwd.cap;
                }
                _ => {}
            }
        }
        let (mut d_out, mut d_in) = (0.0f64, 0.0f64);
        for s in &self.sources {
            let inside = in_set[s.src];
            for &(dst, d) in &s.dests {
                match (inside, in_set[dst]) {
                    (true, false) => d_out += d * scale,
                    (false, true) => d_in += d * scale,
                    _ => {}
                }
            }
        }
        cut_ratio(cap_out, d_out).min(cut_ratio(cap_in, d_in))
    }
}

/// One direction's running crossing sums of a node set grown (and, by its
/// users, shrunk) one node at a time: the capacity of the arcs crossing and
/// the demand of the commodities crossing, each with a count of what
/// crosses. The counts make "nothing crosses" exact, which sums that add and
/// cancel are not: a prefix that grows to a whole component would otherwise
/// divide a rounding residue by another. The sums only *pick* cuts; a cut
/// that is kept is re-summed by [`FlowProblem::cut_bound`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CutCrossing {
    cap: f64,
    arcs: usize,
    demand: f64,
    flows: usize,
}

impl CutCrossing {
    /// An arc of capacity `cap` starts crossing.
    pub fn add_arc(&mut self, cap: f64) {
        self.arcs += 1;
        self.cap += cap;
    }

    /// An arc of capacity `cap` stops crossing.
    pub fn remove_arc(&mut self, cap: f64) {
        self.arcs -= 1;
        self.cap = if self.arcs == 0 { 0.0 } else { self.cap - cap };
    }

    /// A commodity of demand `demand` starts crossing.
    pub fn add_flow(&mut self, demand: f64) {
        self.flows += 1;
        self.demand += demand;
    }

    /// A commodity of demand `demand` stops crossing.
    pub fn remove_flow(&mut self, demand: f64) {
        self.flows -= 1;
        self.demand = if self.flows == 0 {
            0.0
        } else {
            self.demand - demand
        };
    }

    /// Whether no commodity crosses.
    pub fn no_flows(&self) -> bool {
        self.flows == 0
    }

    /// This direction's cut bound, infinite when no commodity crosses.
    pub fn bound(&self) -> f64 {
        if self.flows == 0 {
            f64::INFINITY
        } else {
            self.cap / self.demand
        }
    }
}

/// One direction's cut bound: crossing capacity over crossing demand,
/// infinite when no demand crosses.
fn cut_ratio(cap: f64, demand: f64) -> f64 {
    if demand > 0.0 {
        cap / demand
    } else {
        f64::INFINITY
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
    fn cut_bound_takes_the_tighter_direction() {
        // S = {0}: one unit of capacity each way, demand 1.0 out and 0.5 in.
        let (g, tm) = tiny();
        let p = FlowProblem::new(&g, &tm);
        assert_eq!(p.cut_bound(&[true, false, false], 1.0), 1.0);
        assert_eq!(p.cut_bound(&[true, false, false], 2.0), 0.5);
        // S = {1} separates no demand pair; S = V is no cut.
        assert_eq!(p.cut_bound(&[false, true, false], 1.0), f64::INFINITY);
        assert_eq!(p.cut_bound(&[true; 3], 1.0), f64::INFINITY);
    }

    #[test]
    #[should_panic]
    fn empty_tm_rejected() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let tm = TrafficMatrix::empty(2);
        FlowProblem::new(&g, &tm);
    }
}
