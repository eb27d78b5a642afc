//! Cuts swept along the solve's own distance orders: the second source of
//! upper bounds, beside the dual bound of [`super::phase`].
//!
//! Every cut bounds the throughput from above (§II-B): all demand from a node
//! set `S` to its complement crosses the arcs from `S` to `S̄`, so
//! `t <= cap(S→S̄) / d(S→S̄)`, and likewise the other way. The solver
//! already holds orders in which sets worth trying grow: a shortest-path
//! tree's settle order under the multiplicative-weights lengths puts the
//! lightly loaded neighbourhood of its root first and reaches the congested
//! arcs last, so some prefix of it tends to sit just behind a bottleneck —
//! Leighton–Rao region growing along the dual lengths. Each bound evaluation
//! sweeps the nested prefixes of one such order ([`CutSweep::sweep`]) and
//! keeps the best cut of the solve; the published upper bound is the
//! smaller of the best dual bound and that cut.
//!
//! A sweep adds one node at a time and updates four sums: the capacity
//! crossing each way, from the node's out-arcs and their partner arcs
//! (`aid ^ 1`), and the demand crossing each way, from the node's
//! [`RouteCtx::leaving`] and [`RouteCtx::entering`] lists — O(arcs +
//! commodities) per sweep, no symmetry of capacities or demands assumed.
//! Beside each sum it counts what crosses, so a direction no commodity
//! crosses is known exactly (on a graph with an isolated node, the prefix
//! that reaches every other node left two rounding residues to divide).
//! The running sums add and cancel, so they only *pick* a prefix: the cut
//! kept is re-summed from scratch by [`FlowProblem::cut_bound`], the routine
//! the certificate verifier runs, and a rounding slip can cost a better cut,
//! never soundness.
//!
//! [`FlowProblem::cut_bound`]: crate::FlowProblem::cut_bound

use super::route::RouteCtx;
use crate::instance::CutCrossing;

/// The best cut of a solve and the scratch its sweeps run in.
#[derive(Debug)]
pub(super) struct CutSweep {
    /// The best cut bound found so far, in the scaled demand space;
    /// infinite before any.
    pub value: f64,
    /// The order the next sweep runs along (node ids; filled by the caller).
    pub order: Vec<u32>,
    /// Membership of the set being grown; after a sweep that improved
    /// `value`, the best cut's.
    pub in_set: Vec<bool>,
}

impl CutSweep {
    /// No cut yet, over `num_nodes` nodes.
    pub(super) fn new(num_nodes: usize) -> Self {
        CutSweep {
            value: f64::INFINITY,
            order: Vec::new(),
            in_set: vec![false; num_nodes],
        }
    }

    /// Sweeps the nested prefixes of `self.order` as cuts (the whole node
    /// set excluded) and keeps the best of them if its bound, re-summed from
    /// scratch, beats `self.value`. Returns whether it did; `self.in_set` is
    /// then the new best cut.
    pub(super) fn sweep(&mut self, ctx: &RouteCtx<'_>) -> bool {
        let arcs = ctx.prob.arcs();
        let n = ctx.prob.num_nodes();
        let in_set = &mut self.in_set;
        in_set.fill(false);
        // Crossings from the set out and into it.
        let (mut out, mut into) = (CutCrossing::default(), CutCrossing::default());
        let mut best = (self.value, 0);
        let prefixes = self.order.len().min(n - 1);
        for (k, &v) in self.order[..prefixes].iter().enumerate() {
            let v = v as usize;
            for (w, aid) in ctx.prob.out_arcs(v) {
                let (cap, back) = (arcs[aid].cap, arcs[aid ^ 1].cap);
                if in_set[w] {
                    into.remove_arc(cap);
                    out.remove_arc(back);
                } else {
                    out.add_arc(cap);
                    into.add_arc(back);
                }
            }
            for &(w, d) in &ctx.leaving[v] {
                if in_set[w as usize] {
                    into.remove_flow(d);
                } else {
                    out.add_flow(d);
                }
            }
            for &(u, d) in &ctx.entering[v] {
                if in_set[u as usize] {
                    out.remove_flow(d);
                } else {
                    into.add_flow(d);
                }
            }
            in_set[v] = true;
            let bound = out.bound().min(into.bound());
            if bound < best.0 {
                best = (bound, k + 1);
            }
        }
        if best.1 == 0 {
            return false;
        }
        in_set.fill(false);
        for &v in &self.order[..best.1] {
            in_set[v as usize] = true;
        }
        let bound = ctx.prob.cut_bound(in_set, ctx.scale);
        let improved = bound < self.value;
        if improved {
            self.value = bound;
        }
        improved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::FlowProblem;
    use tb_graph::Graph;
    use tb_traffic::{Demand, TrafficMatrix};

    #[test]
    fn the_sweep_finds_the_bridge_of_a_barbell_in_either_direction() {
        // Two triangles joined by the bridge 2-3, every node sending 1 to its
        // mirror image (0<->5, 1<->4, 2<->3) and node 0 a further 2 to node
        // 4: three units cross the bridge left to right and two right to
        // left, so the bridge cut's bound is min(1/5, 1/3) = 0.2 at scale 1
        // — only the asymmetric sums see the heavier direction.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let mut demands: Vec<Demand> = [(0, 5), (5, 0), (1, 4), (4, 1), (2, 3), (3, 2)]
            .into_iter()
            .map(|(src, dst)| Demand {
                src,
                dst,
                amount: 1.0,
            })
            .collect();
        demands.push(Demand {
            src: 0,
            dst: 4,
            amount: 2.0,
        });
        let tm = TrafficMatrix::new(6, demands);
        let prob = FlowProblem::new(&g, &tm);
        let ctx = RouteCtx::new(&prob, 2.0, 1.0);
        let mut cut = CutSweep::new(6);
        // From the right: {5}, {5, 4}, {5, 4, 3} (the bridge), ... .
        cut.order.extend([5, 4, 3, 2, 1, 0]);
        assert!(cut.sweep(&ctx));
        assert_eq!(cut.in_set, [false, false, false, true, true, true]);
        assert_eq!(cut.value, 0.1, "demands carry the scale 2");
        // The same cut from the left improves nothing; a worse order neither.
        cut.order.clear();
        cut.order.extend([0, 1, 2, 3, 4, 5]);
        assert!(!cut.sweep(&ctx));
        cut.order.clear();
        cut.order.extend([0, 3]);
        assert!(!cut.sweep(&ctx));
        assert_eq!(cut.value, 0.1);
    }
}
