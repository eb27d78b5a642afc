//! The feasible lower bound: the best mix of the flow blocks routed between
//! bound evaluations, re-weighted by a small packing LP at every evaluation
//! (see the `phase` module docs for why and how).

use super::SolveStats;
use tb_lp::Packing;

/// Blocks held at most; past it the two oldest merge. Measured at seed 1
/// (`--no-cache`): the `/1/LM` pass of `fig05_06` takes 1,744 phases at 16
/// blocks, 1,676 at 32 and 1,672 at 64 (where none of its solves merges); the
/// whole suite 58,799, 57,579 and 57,475, with 2, 1 and 1 solves ending by
/// saturation. The blocks cost `MAX_BLOCKS × arcs` f64 per solve.
const MAX_BLOCKS: usize = 32;

/// Rows added per round: the first LP of a solve starts from the most
/// congested arcs of the first block, and each round adds the arcs the
/// optimum overloads most.
const ROWS_PER_ROUND: usize = 8;

/// Rounds (LP solves) per evaluation at most. A mix whose rows still miss a
/// violated arc after them is published rescaled, which is valid, only not
/// optimal.
const MAX_ROUNDS: usize = 16;

/// An arc whose congestion under the mix exceeds `1 + ROW_TOL` is a violated
/// row.
const ROW_TOL: f64 = 1e-9;

/// The flow routed between consecutive bound evaluations, one *block* per
/// evaluation, the block LP over them and the weights of its latest optimum.
#[derive(Debug, Default)]
pub(super) struct Blocks {
    num_arcs: usize,
    /// Per-arc flow `F_b` of each block, oldest first, `num_arcs` per block.
    flow: Vec<f64>,
    /// Each block's worst-served ratio `t_b = min_j served_b(j) / d_j`.
    t: Vec<f64>,
    /// The mix: one weight `w_b` per block.
    w: Vec<f64>,
    /// The flow accumulators at the latest block boundary.
    base_flow: Vec<f64>,
    base_served: Vec<f64>,
    /// Arcs whose capacity rows the LP carries, in its constraint order,
    /// kept for the whole solve.
    rows: Vec<usize>,
    in_rows: Vec<bool>,
    /// The block LP, open between evaluations; its variables are the blocks
    /// `0..lp.num_vars()`.
    lp: Packing,
    /// Per-arc load `Σ_b w_b F_b(a)` of the mix last scored.
    load: Vec<f64>,
    /// Scratch: arcs ranked by congestion.
    ranked: Vec<(f64, usize)>,
}

/// A scored mix: its feasible value and the rescale `mu` that makes its
/// load capacity feasible.
#[derive(Debug, Clone, Copy)]
pub(super) struct Mix {
    pub value: f64,
    pub mu: f64,
}

impl Blocks {
    /// No block and no row yet, the boundary at zero flow.
    pub fn new(num_arcs: usize, commodities: usize) -> Self {
        Blocks {
            num_arcs,
            base_flow: vec![0.0; num_arcs],
            base_served: vec![0.0; commodities],
            in_rows: vec![false; num_arcs],
            load: vec![0.0; num_arcs],
            ..Blocks::default()
        }
    }

    /// Blocks held.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// The per-arc load of the mix last scored.
    pub fn load(&self) -> &[f64] {
        &self.load
    }

    /// `Σ_b w_b t_b`: every commodity is served at least this multiple of its
    /// demand by [`Blocks::load`].
    pub fn served_ratio(&self) -> f64 {
        self.t.iter().zip(&self.w).map(|(t, w)| t * w).sum()
    }

    /// Closes the block routed since the previous boundary: the accumulators
    /// `flow_arc` / `routed` minus their values then. A block that served
    /// some commodity nothing adds nothing to any mix and is dropped; the
    /// others enter the mix through the LP.
    pub fn close(&mut self, flow_arc: &[f64], routed: &[Vec<f64>], demands: &[Vec<f64>]) {
        let mut t = f64::INFINITY;
        let served = routed.iter().flatten().zip(demands.iter().flatten());
        for ((r, d), base) in served.zip(&mut self.base_served) {
            t = t.min((r - *base) / d);
            *base = *r;
        }
        if t.is_finite() && t > 0.0 {
            let diff = flow_arc.iter().zip(&self.base_flow).map(|(f, b)| f - b);
            self.flow.extend(diff);
            self.t.push(t);
            self.w.push(0.0);
        }
        self.base_flow.copy_from_slice(flow_arc);
    }

    /// Per-arc flow of block `b`.
    fn block(&self, b: usize) -> &[f64] {
        &self.flow[b * self.num_arcs..(b + 1) * self.num_arcs]
    }

    /// Scores the weights: their per-arc load, the rescale
    /// `mu = min_a cap_a / load_a` and the feasible value `mu Σ_b w_b t_b`.
    pub fn score(&mut self, caps: &[f64]) -> Mix {
        self.load.fill(0.0);
        for (b, &w) in self.w.iter().enumerate() {
            if w > 0.0 {
                let span = b * self.num_arcs..(b + 1) * self.num_arcs;
                for (l, f) in self.load.iter_mut().zip(&self.flow[span]) {
                    *l += w * f;
                }
            }
        }
        let mut mu = f64::INFINITY;
        for (&l, &cap) in self.load.iter().zip(caps) {
            if l > 1e-15 {
                mu = mu.min(cap / l);
            }
        }
        let value = if mu.is_finite() {
            mu * self.served_ratio()
        } else {
            0.0
        };
        Mix { value, mu }
    }

    /// Re-weights the blocks by the block LP — maximise `Σ_b t_b w_b`
    /// subject to `Σ_b w_b F_b(a) <= cap_a` over the carried rows, adding
    /// the rows its optimum violates, for at most [`MAX_ROUNDS`] rounds —
    /// and scores the result over every arc.
    pub fn solve(&mut self, caps: &[f64], stats: &mut SolveStats) -> Mix {
        let Some(newest) = self.t.len().checked_sub(1) else {
            return self.score(caps);
        };
        if newest >= MAX_BLOCKS {
            self.merge_oldest();
            self.rebuild_lp(caps);
        }
        if self.rows.is_empty() {
            self.add_rows(caps, Some(newest), 0.0, ROWS_PER_ROUND);
        }
        self.add_vars(caps);
        let mut mix = self.score(caps);
        for _ in 0..MAX_ROUNDS {
            stats.lp_solves += 1;
            let solved = self.lp.solve();
            stats.lp_pivots += self.lp.pivots();
            if solved.is_err() {
                // This evaluation keeps the last scored mix; the next one
                // starts from a fresh tableau.
                self.rebuild_lp(caps);
                break;
            }
            for (b, (w, t)) in self.w.iter_mut().zip(&self.t).enumerate() {
                *w = self.lp.value(b) / t;
            }
            mix = self.score(caps);
            if self.add_rows(caps, None, 1.0 + ROW_TOL, ROWS_PER_ROUND) == 0 {
                break;
            }
        }
        #[cfg(test)]
        tests::audit_mix(self, caps, mix);
        mix
    }

    /// Merges the two oldest blocks until at most [`MAX_BLOCKS`] are held:
    /// flows add, `t` adds.
    fn merge_oldest(&mut self) {
        let m = self.num_arcs;
        while self.t.len() > MAX_BLOCKS {
            let (first, rest) = self.flow.split_at_mut(m);
            for (a, b) in first.iter_mut().zip(&rest[..m]) {
                *a += b;
            }
            self.flow.drain(m..2 * m);
            self.t[0] += self.t.remove(1);
            self.w.remove(1);
        }
    }

    /// Block `b`'s coefficient in arc `a`'s row: its per-phase congestion
    /// `F_b(a) / (t_b cap_a)`. With the LP's variables `v_b = t_b w_b`, every
    /// objective coefficient and right-hand side is 1 — a packing program.
    fn coeff(&self, b: usize, a: usize, caps: &[f64]) -> f64 {
        self.flow[b * self.num_arcs + a] / (self.t[b] * caps[a])
    }

    /// Adds the blocks closed since the LP last ran as its variables. A
    /// block with no flow on any carried arc first adds its most congested
    /// arc, or the LP would be unbounded in its weight.
    fn add_vars(&mut self, caps: &[f64]) {
        for b in self.lp.num_vars()..self.t.len() {
            if !self.rows.iter().any(|&a| self.block(b)[a] > 0.0) {
                self.add_rows(caps, Some(b), 0.0, 1);
            }
            let coeffs: Vec<f64> = self.rows.iter().map(|&a| self.coeff(b, a, caps)).collect();
            self.lp.add_var(&coeffs);
        }
    }

    /// Rebuilds the LP from the blocks and the carried rows.
    fn rebuild_lp(&mut self, caps: &[f64]) {
        self.lp.clear();
        for _ in &self.rows {
            self.lp.add_constraint(&[]);
        }
        self.add_vars(caps);
    }

    /// Carries up to `limit` arcs not carried yet whose congestion exceeds
    /// `bar`, most congested first — under the mix's [`Blocks::load`], or
    /// under block `b`'s flow alone for `Some(b)`. Returns how many.
    fn add_rows(&mut self, caps: &[f64], block: Option<usize>, bar: f64, limit: usize) -> usize {
        let load = match block {
            Some(b) => &self.flow[b * self.num_arcs..(b + 1) * self.num_arcs],
            None => &self.load[..],
        };
        self.ranked.clear();
        for (a, (&l, &cap)) in load.iter().zip(caps).enumerate() {
            if !self.in_rows[a] && l > bar * cap {
                self.ranked.push((l / cap, a));
            }
        }
        let take = limit.min(self.ranked.len());
        if take == 0 {
            return 0;
        }
        self.ranked
            .select_nth_unstable_by(take - 1, |x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
        self.ranked[..take].sort_unstable_by_key(|&(_, a)| a);
        for k in 0..take {
            let a = self.ranked[k].1;
            let coeffs: Vec<f64> = (0..self.lp.num_vars())
                .map(|b| self.coeff(b, a, caps))
                .collect();
            self.lp.add_constraint(&coeffs);
            self.in_rows[a] = true;
            self.rows.push(a);
        }
        take
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::certificate::CertCapture;
    use crate::fleischer::{phase, FleischerConfig, FleischerSolver};
    use crate::instance::FlowProblem;
    use std::cell::Cell;
    use tb_topology::families::Scale;
    use tb_topology::{jellyfish::jellyfish, Family};
    use tb_traffic::synthetic::{all_to_all, longest_matching, random_matching};

    thread_local! {
        /// Mixes audited on this thread, and how many of them beat every
        /// suffix of the blocks by more than rounding.
        static AUDITED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    }

    /// The test-build hook of [`Blocks::solve`]: the LP's mix must be worth
    /// at least the cumulative flow and every suffix window of the blocks
    /// (each a weighting of the blocks by ones), recomputed here from the
    /// blocks themselves, newest suffix first.
    pub(super) fn audit_mix(blocks: &Blocks, caps: &[f64], mix: Mix) {
        let mut flow = vec![0.0; blocks.num_arcs];
        let mut t = 0.0;
        let mut best_window = 0.0f64;
        for b in (0..blocks.len()).rev() {
            for (f, x) in flow.iter_mut().zip(blocks.block(b)) {
                *f += x;
            }
            t += blocks.t[b];
            let mu = flow
                .iter()
                .zip(caps)
                .filter(|(&f, _)| f > 1e-15)
                .map(|(f, c)| c / f)
                .fold(f64::INFINITY, f64::min);
            let window = if mu.is_finite() { t * mu } else { 0.0 };
            assert!(
                mix.value >= window * (1.0 - 1e-9),
                "mix {} under the window of the newest {} of {} blocks: {window}",
                mix.value,
                blocks.len() - b,
                blocks.len()
            );
            best_window = best_window.max(window);
        }
        AUDITED.with(|c| {
            let (audited, wins) = c.get();
            let won = mix.value > best_window * (1.0 + 1e-6);
            c.set((audited + 1, wins + usize::from(won)));
        });
    }

    #[test]
    fn every_mix_is_worth_at_least_every_window_of_its_blocks() {
        // The check itself is `audit_mix`, run at every evaluation of every
        // solve of this crate's unit tests. Here: seeded solves under the
        // three TM shapes the solver routes differently (aggregated trees,
        // known paths, walks beside single-destination sources) and the
        // sparse straggler `HyperX/1/LM`, each at the sweep's configuration —
        // and the LP must have beaten every window somewhere.
        let before = AUDITED.with(Cell::get);
        let topo = jellyfish(40, 6, 2, 9);
        let hyperx = Family::HyperX
            .ladder_instance(Scale::Small, 1, 1)
            .expect("ladder rung builds");
        for (topo, tm) in [
            (&topo, all_to_all(&topo.servers)),
            (&topo, longest_matching(&topo.graph, &topo.servers, true)),
            (&topo, random_matching(&topo.servers, 2, 5)),
            (
                &hyperx,
                longest_matching(&hyperx.graph, &hyperx.servers, true),
            ),
        ] {
            let cfg = FleischerConfig::fast();
            let (_, stats, _) = FleischerSolver::new(cfg).solve_in(&topo.graph, &tm, false);
            assert!(
                stats.evaluations > 0 && stats.lp_solves >= stats.evaluations,
                "{stats:?}"
            );
        }
        let (audited, wins) = AUDITED.with(Cell::get);
        assert!(audited > before.0, "the audit hook did not run");
        assert!(wins > before.1, "no mix beat every window of its blocks");
    }

    #[test]
    fn a_mix_certificate_verifies_and_binds_every_block_weight() {
        // The certificate of a mix stores its load rescaled by `mu` and
        // claims `mu Σ_b w_b t_b d_j` for every commodity. It verifies; with
        // one positive block weight perturbed in the stored flow alone, the
        // flow no longer carries what is claimed, and the verifier refuses.
        let topo = jellyfish(24, 5, 1, 3);
        let tm = all_to_all(&topo.servers);
        let prob = FlowProblem::new(&topo.graph, &tm);
        let cfg = FleischerConfig::fast();
        let solved = phase::solve_problem(&cfg, &topo.graph, &prob, true);
        let mut blocks = solved.blocks;
        assert!(blocks.len() > 1, "{:?}", solved.stats);
        let caps: Vec<f64> = prob.arc_caps().collect();
        // The demands in the solver's scaled space: certificate flows are
        // absolute, so the served claims are too.
        let scale = prob.volumetric_estimate(&topo.graph).max(1e-12);
        let demands: Vec<Vec<f64>> = prob
            .sources()
            .iter()
            .map(|s| s.dests.iter().map(|&(_, d)| d * scale).collect())
            .collect();
        let certify = |load: &[f64], ratio: f64, mu: f64| {
            let mut capture = CertCapture::default();
            capture.observe_primal(load, &demands, ratio, mu);
            capture.observe_dual(&vec![1.0; caps.len()]);
            capture.into_certificate(&prob)
        };
        let mix = blocks.score(&caps);
        let ratio = blocks.served_ratio();
        let cert = certify(blocks.load(), ratio, mix.mu);
        crate::verify_certificate(&topo.graph, &tm, &cert, f64::INFINITY)
            .expect("a rescaled block mix is a feasible flow");
        assert!((cert.lower - mix.value * scale).abs() <= 1e-9 * cert.lower);

        let k = (0..blocks.len())
            .rev()
            .find(|&b| blocks.w[b] > 0.0)
            .expect("a weighted block");
        blocks.w[k] *= 1.01;
        blocks.score(&caps);
        let tampered = certify(blocks.load(), ratio, mix.mu);
        assert!(matches!(
            crate::verify_certificate(&topo.graph, &tm, &tampered, f64::INFINITY),
            Err(crate::CertificateError::ConservationViolated { .. }
                | crate::CertificateError::CapacityViolated { .. })
        ));
    }

    #[test]
    fn merging_adds_the_oldest_blocks_and_keeps_the_newest() {
        let mut blocks = Blocks::new(2, 1);
        let demands = [vec![1.0]];
        // Block k carries k on arc 0 and serves two phases' worth.
        let (mut flow, mut served) = (0.0, 0.0);
        for k in 1..=MAX_BLOCKS + 2 {
            flow += k as f64;
            served += 2.0;
            blocks.close(&[flow, 0.0], &[vec![served]], &demands);
        }
        assert_eq!(blocks.len(), MAX_BLOCKS + 2);
        blocks.merge_oldest();
        assert_eq!(blocks.len(), MAX_BLOCKS);
        // Blocks 1, 2 and 3 became one.
        assert_eq!((blocks.block(0)[0], blocks.t[0]), (6.0, 6.0));
        assert_eq!(blocks.block(MAX_BLOCKS - 1)[0], (MAX_BLOCKS + 2) as f64);
        assert!(blocks.t[1..].iter().all(|&t| t == 2.0));
    }
}
