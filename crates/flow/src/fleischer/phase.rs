//! The solve in three parts: setup (demand scaling, the context, the
//! workspace built for the instance), the phase loop that owns the
//! multiplicative-weights trajectory, and the closing bound evaluation with
//! its trace line.
//!
//! A *phase* routes every source's full (pre-scaled) demand once, source by
//! source, lengths updated in place — the classical Fleischer trajectory. In
//! a mirrored solve each source's tree also carries its in-commodities, so a
//! phase routes every commodity twice (see `route::route_source_tree`); the
//! bounds below assume no routing rule and need no change for it.
//! The loop runs phases until the bound gap closes, the classical termination
//! `D(l) >= 1` fires, or the phase cap is hit, with a bound evaluation every
//! `check_interval` phases. Each source is routed by the kernel its
//! destination count selects: the known-path loop for one destination, the
//! aggregated tree for several.
//!
//! ## Sweeps only where the gap can close
//!
//! The goal-directed searches of the following phases want potentials —
//! reverse distances to each single-destination source's target — at the
//! current lengths. Every evaluation therefore re-derives the potential rows
//! that are not dense (once more at the start of the solve, for the phases
//! before the first evaluation); a dense row is re-derived at the start of
//! each of its source's turns, by the routing kernel (see [`super`]).
//!
//! Most evaluations cannot close the gap, and the solve can tell before the
//! dual sweep runs: a path it already holds for a commodity is no shorter
//! than a shortest one, so summing every commodity's demand times the length
//! of a held path — the shortest known path of a single-destination source,
//! the tree a multi-destination source last routed on — gives
//! `alpha_held >= alpha`, and `D/alpha_held` is a value the sweep's bound
//! cannot come out below ([`route::HeldPaths::alpha`], O(nodes) per source).
//! An evaluation computes its feasible bound first, then sweeps one cut (next
//! section), which may lower the best upper bound; then the dual bound at the
//! window average `l̄` (below) runs its sweep, one forward search per source,
//! only if that value could close the gap to `target_gap` against the best
//! lower bound, and not at all once the best bracket — a cut's bound included
//! — has closed it. The closing evaluation is never screened. Routing,
//! lengths and flows are untouched, so a solve runs its trajectory to the
//! exit; what moves is which evaluation finds the bound that closes the gap,
//! and the reported upper bound. [`SolveStats::screened`] counts the
//! evaluations that ran no dual sweep. Running the sweep at every evaluation
//! the cut leaves open instead costs the `/1/LM` pass of `fig05_06` +10 %
//! searches and its `/A2A` pass +15 %, which saves the latter 12 of its 1,908
//! phases (seed 1).
//!
//! The refreshes and the dual sweep (which also counts the trees it
//! repaired) run serially, in source order, on the solve's own SSSP
//! workspace, like the routing.
//!
//! ## The cut along one distance order
//!
//! Evaluation `k` (counted from 1) sweeps the cuts of source `k mod
//! sources` ([`BestBounds::sweep_cut`], [`super::cut`]): the nested prefixes
//! of the settle order of the tree that source last routed on, if it has
//! several destinations, or of the reverse Dijkstra that derived its
//! potential row, if it has one — the refresh that precedes the sweep keeps
//! that order, and a dense row, which the refresh skips, costs one extra
//! reverse Dijkstra. The best cut of the solve is kept, and the best upper
//! bound is the smaller of it and the best dual bound. O(arcs + commodities)
//! per evaluation, serial like the rest. Measured at seed 1, `--scenario all
//! --no-cache`: 57,467 → 37,484 phases and 5.24 M → 3.96 M searches, the
//! saturated solve gone, the cut setting 402 of the 918 reported upper
//! bounds; `fig05_06`'s `/A2A` pass 3,328 → 1,900 phases and its `/1/LM`
//! pass 1,676 → 1,108 (the counts a probe that kept every trajectory as it
//! was had predicted to the digit). That probe also chose the design: every
//! source's order at every evaluation cut the `/A2A` pass's solve time by
//! 26.1 % against 25.7 % for one order, at `sources` times the sweep cost,
//! and the static estimators of `tb_cuts` (one-node cuts, expanding
//! regions, the eigenvector order) added 0.9 points on top of the swept
//! cut, so the solver runs none of them.
//!
//! ## The dual bound at the averaged iterate
//!
//! `D(l)/alpha(l)` bounds the throughput from above for **any** non-negative
//! length function `l` (LP duality), so the solver is free to choose where to
//! evaluate it. At the current lengths the bound is a noisy sequence: on a
//! sparse TM over a short-diameter graph it bounces by about ±1 % from one
//! evaluation to the next (`HyperX/1/LM`: 0.6219, 0.6258, 0.6265, 0.6330,
//! 0.6248, …). The Garg–Könemann / Fleischer analysis — like the generic
//! multiplicative-weights regret bound — converges in the **average of the
//! normalised iterates** `l / D(l)`, not in the last one. So the loop keeps
//! the running sum of `l / D(l)` ([`LengthAverage`]), sampled once at the
//! initial lengths and then after every source's turn (O(arcs) per turn),
//! copies it at the evaluations whose index `phase / check_interval` is a
//! power of two (the window base), and an evaluation's dual bound is
//! `D(l̄)/alpha(l̄)` at the window average `l̄ = sum − base`, when the held
//! paths say it could close the gap (previous section;
//! [`averaged_dual_bound`]: no potential rows exist at `l̄`, so every source
//! runs one early-exit forward search, counted in [`SolveStats::searches`]).
//! The initial sample keeps the window of an evaluation with no phase behind
//! it (a zero phase budget) from being empty: an all-zero window bounds
//! nothing, and with no cut either the solve would publish `[0, 0]` as
//! converged.
//! The bound at the current lengths is no second candidate: beside the
//! window average and the swept cut it saves the seed-1 suite 72 of its
//! 37,556 phases, for one more sweep at every evaluation it is not screened
//! out of.
//!
//! Validity needs nothing beyond duality. Quality: `alpha` is concave and
//! positively homogeneous and `D` is linear, so the bound at a sum of length
//! functions is at most the `alpha`-weighted mean of their bounds — the
//! average is never worse than its samples are on (weighted) average, and it
//! cancels the bounce. The averaged bound only reads: routing, the length
//! trajectory, the potential refresh and the feasible bound are untouched, and
//! a solve merely meets its `target_gap` earlier ([`SolveStats::upper_from`]
//! says when the average set the reported bound; a certificate then carries
//! `l̄` as its dual evidence). Measured facts fixed the window when the
//! average was introduced (seed 1, the `/1/LM` pass of `fig05_06`: 4,581
//! phases with the bound at the current lengths alone, 2,144 with the
//! average beside it): sampling once per phase instead of once per turn
//! leaves 2,692 phases and a solve that still saturates; the cumulative
//! average (no window) leaves 2,807 phases, and the window from the older
//! base 2,340 (whole suite 77,471 phases / 11 saturated solves against
//! 73,207 / 6 from the newest base). None of them is a knob.
//!
//! ## The feasible lower bound: the best mix of the flow blocks
//!
//! Rescaling a multicommodity flow by `mu = min cap/flow` makes it capacity
//! feasible, and its worst-served commodity is then a valid concurrent
//! throughput. The classical analysis rescales the flow accumulated since
//! phase 0 — the `D(l) >= 1` guarantee is stated for it — but the first
//! phases route on near-uniform lengths and pile congestion on a few arcs
//! that the running total never forgets, so that bound crawls up like
//! `p/(p + c)` long after the dual bound has settled.
//!
//! So every evaluation closes a *block* ([`Blocks`]): the per-arc flow `F_b`
//! routed since the previous evaluation, and one scalar, its worst-served
//! ratio `t_b = min_j served_b(j) / d_j` (up to rounding the number of phases
//! in it: a complete phase routes every demand once, twice in a mirrored
//! solve). Every path deposit adds
//! the same amount to its arcs and to its commodity's routed total, so each
//! block, and any combination of blocks with weights `w >= 0`, is again a
//! multicommodity flow; the combination serves every commodity at least
//! `Σ_b w_b t_b` times its demand, so `Σ_b w_b t_b` divided by its
//! congestion `max_a Σ_b w_b F_b(a) / cap_a` is a feasible value for **any**
//! `w >= 0`. The cumulative flow is the weighting by ones, a suffix window of
//! it the weighting by ones on the newest blocks; an evaluation takes the
//! best weighting instead, from the packing LP "maximise `Σ_b t_b w_b`
//! subject to `Σ_b w_b F_b(a) <= cap_a`". Its rows are added lazily: seeded
//! with the most congested arcs of the first block, then every arc the
//! optimum overloads, most overloaded first, and kept for the rest of the
//! solve. The published value is rescaled by the congestion over *every*
//! arc, so an LP that stops short costs tightness, never soundness. Past
//! [`MAX_BLOCKS`](super::blocks) blocks the two oldest merge (flows add, `t`
//! adds). A certificate stores the mix's load rescaled by `mu` and claims
//! `mu Σ_b w_b t_b d_j` for every commodity — never more than that flow
//! delivers.
//!
//! The LP is a [`tb_lp::Packing`]: a dense dual simplex tableau kept open for
//! the whole solve, in which a new block is a new dual row and a new arc a
//! new dual column, so an evaluation pays a few pivots of
//! `O(blocks × (rows + blocks))` rather than a solve from scratch. That is
//! what lets it run at every evaluation. Measured at seed 1 on the `/1/LM`
//! pass of `fig05_06` (2-core x86 box): through the general sparse simplex
//! (`tb_lp::solve`, 16 blocks) the LP took 121 ms of a 540 ms pass solved
//! cold and 91 ms warm-started — the pivots fell from 16,892 to 7,032, but two
//! factorizations per solve remained — while the open tableau takes 12 ms of
//! the pass's 331 ms of FPTAS solves (3.5 %; the `/A2A` pass 7 of 968 ms).
//! Solving at every second or fourth evaluation instead, the others scoring
//! the last weights, costs that pass 1,700 or 1,772 phases against 1,672 (64
//! blocks). Against the cumulative and suffix-window bounds it replaced
//! (seed 1, `--scenario all --no-cache`): 73,043 → 57,579 phases, 7.00 M →
//! 5.24 M searches, saturated solves 6 → 1. Memory: `MAX_BLOCKS × arcs` f64
//! for the blocks and `blocks × (rows + blocks)` for the tableau. The blocks
//! only read the accumulators — routing and the lengths are untouched; a
//! solve merely meets its `target_gap` earlier.

use super::blocks::Blocks;
use super::cut::CutSweep;
use super::route::{self, RouteCtx};
use super::{FleischerConfig, SolveStats, SolverWorkspace, UpperEvidence};
use crate::certificate::{CertCapture, ThroughputCertificate};
use crate::instance::FlowProblem;
use crate::lengths::LengthAverage;
use crate::ThroughputBounds;
use tb_graph::Graph;

/// What [`solve_problem`] hands back to the public entry points.
pub(super) struct Solved {
    pub bounds: ThroughputBounds,
    pub stats: SolveStats,
    /// Present iff a certificate was requested.
    pub cert: Option<ThroughputCertificate>,
    /// The flow blocks and the mix the closing evaluation left.
    #[cfg(test)]
    pub blocks: Blocks,
    /// The state the solve ended in; `None` after a trivial exit.
    #[cfg(test)]
    pub ws: Option<SolverWorkspace>,
}

/// Runs the full solve: setup, the phase loop, and the closing bound
/// evaluation. See the module docs of [`super`] for the algorithm.
pub(super) fn solve_problem(
    cfg: &FleischerConfig,
    graph: &Graph,
    prob: &FlowProblem,
    want_cert: bool,
) -> Solved {
    let Some((ctx, scale, mut ws)) = setup(cfg, graph, prob) else {
        // Trivial exits certify their zero with empty evidence at the
        // instance's real dimensions: zero flow, zero served amounts, unit
        // lengths (under which a disconnected pair drives the dual bound to
        // an exact zero).
        let m = prob.num_arcs();
        return Solved {
            bounds: ThroughputBounds::exact(0.0),
            stats: SolveStats {
                converged: true,
                ..SolveStats::default()
            },
            cert: want_cert.then(|| {
                let commodities = prob.sources().iter().map(|s| s.dests.len()).sum();
                ThroughputCertificate::build(
                    prob,
                    vec![0.0; m],
                    vec![0.0; commodities],
                    vec![1.0; m],
                    Vec::new(),
                )
            }),
            #[cfg(test)]
            blocks: Blocks::default(),
            #[cfg(test)]
            ws: None,
        };
    };
    // Best bracket, flow blocks, averaged lengths and certificate capture.
    let commodities = ws.routed.iter().map(Vec::len).sum();
    let mut best = BestBounds::new(prob.num_nodes(), prob.num_arcs(), commodities, want_cert);
    // The initial lengths are the window's first sample, so an evaluation
    // with no phase behind it still has a dual bound.
    best.avg.sample(&ws.mwu);
    let gap_exit = run_phases(cfg, &ctx, &mut best, &mut ws);
    close(cfg, &ctx, best, gap_exit, ws, scale)
}

/// The context, demand scale and workspace of a solve of `prob`, or `None`
/// when the throughput is trivially zero (no arc, or a disconnected demand
/// pair).
fn setup<'a>(
    cfg: &FleischerConfig,
    graph: &Graph,
    prob: &'a FlowProblem,
) -> Option<(RouteCtx<'a>, f64, SolverWorkspace)> {
    let m = prob.num_arcs();
    let eps = cfg.epsilon;
    assert!(eps > 0.0 && eps < 0.5, "epsilon must be in (0, 0.5)");
    if m == 0 {
        return None;
    }
    // Pre-scale demands so the scaled optimum is near 1; this keeps the
    // phase count predictable regardless of the raw demand magnitudes.
    // The estimate doubles as the reachability check (0 iff some demand
    // pair is disconnected, which forces throughput 0) — one BFS sweep
    // instead of the former two.
    let est = prob.volumetric_estimate(graph);
    if est <= 0.0 {
        return None;
    }
    let scale = est.max(1e-12);
    // Reuse a tree or known path across a source's capacity-limited steps
    // while its current length is within this factor of a lower bound on the
    // current distance; a quarter step keeps routed paths well inside the
    // slack the analysis absorbs.
    let ctx = RouteCtx::new(prob, scale, 1.0 + 0.25 * eps);
    let mut ws = SolverWorkspace::new(&ctx, eps);
    // The rows every search of the first `check_interval` phases is
    // directed by (none is dense yet); each bound evaluation refreshes them
    // from then on.
    ws.potentials
        .refresh(&ctx, ws.mwu.lens(), &mut ws.sssp, None);
    Some((ctx, scale, ws))
}

/// Runs phases until the bound gap closes, `D(l)` saturates or the phase
/// budget runs out, with a bound evaluation every `check_interval` phases.
/// Returns whether it stopped on the gap, right after an evaluation.
fn run_phases(
    cfg: &FleischerConfig,
    ctx: &RouteCtx<'_>,
    best: &mut BestBounds,
    ws: &mut SolverWorkspace,
) -> bool {
    // A zero `check_interval` would otherwise silently disable every
    // mid-run bound evaluation (and with it early termination).
    let check_interval = cfg.check_interval.max(1);
    let mut phase = 0usize;
    let mut gap_exit = false;
    'phases: while phase < cfg.max_phases && !ws.mwu.saturated() {
        for si in 0..ctx.demands.len() {
            if ws.mwu.saturated() {
                break 'phases;
            }
            // The kernel follows from the source's destination count.
            let ok = if ctx.single_dest[si].is_some() {
                route::route_source_single(ctx, si, ws)
            } else {
                route::route_source_tree(ctx, si, ws)
            };
            if !ok {
                break 'phases;
            }
            best.avg.sample(&ws.mwu);
        }
        phase += 1;
        if phase.is_multiple_of(check_interval) {
            best.evaluate(ctx, Some(cfg.target_gap), ws);
            if best.upper.is_finite() && best.gap() <= cfg.target_gap {
                gap_exit = true;
                break 'phases;
            }
            if (phase / check_interval).is_power_of_two() {
                best.snapshot();
            }
        }
    }
    ws.stats.phases = phase;
    gap_exit
}

/// The closing bound evaluation (unless the exit was taken right after one),
/// the published bracket in original demand units, and the trace line.
fn close(
    cfg: &FleischerConfig,
    ctx: &RouteCtx<'_>,
    mut best: BestBounds,
    gap_exit: bool,
    mut ws: SolverWorkspace,
    scale: f64,
) -> Solved {
    // Never screened: its bounds are the ones reported.
    if !gap_exit {
        best.evaluate(ctx, None, &mut ws);
    }
    // An unbounded dual (no commodity needs capacity) falls back to the
    // feasible value; so does a dual that rounding left a few ulps under it
    // (a non-blocking fat tree under LM: `lower = 1`, `D(l)/alpha(l)` =
    // 0.99999999999998), so a published bracket is never inverted.
    best.upper = if best.upper.is_finite() {
        best.upper.max(best.lower)
    } else {
        best.lower
    };
    let stats = &mut ws.stats;
    stats.blocks = best.blocks.len();
    // Converged = the accuracy contract held when the loop ended: either the
    // classical FPTAS termination (`D(l) >= 1`, the (1±ε) guarantee) or the
    // target bound gap. A solve that merely ran out of its phase budget
    // reports `converged: false`, which the outcome layer maps to
    // `SolveStatus::BudgetExhausted`.
    let saturated = ws.mwu.saturated();
    stats.converged = saturated || best.upper <= 0.0 || best.gap() <= cfg.target_gap;

    // Set TB_SOLVER_TRACE=1 to print per-solve convergence counters when
    // tuning the kernel.
    if std::env::var_os("TB_SOLVER_TRACE").is_some() {
        eprintln!(
            "TB_SOLVER_TRACE n={} m={} sources={} phases={} searches={} repairs={} path_reuses={} row_refreshes={} settles={} evals={} screened={} lp_solves={} lp_pivots={} blocks={} d_l={:.3e} exit={} upper={} mirrored={}",
            ctx.prob.num_nodes(),
            ctx.prob.num_arcs(),
            ctx.prob.sources().len(),
            stats.phases,
            stats.searches,
            stats.repairs,
            stats.path_reuses,
            stats.row_refreshes,
            stats.settles,
            stats.evaluations,
            stats.screened,
            stats.lp_solves,
            stats.lp_pivots,
            stats.blocks,
            ws.mwu.d_l(),
            if gap_exit {
                "gap"
            } else if saturated {
                "saturated"
            } else {
                "phase-budget"
            },
            match stats.upper_from {
                UpperEvidence::Average => "average",
                UpperEvidence::Cut => "cut",
            },
            u8::from(stats.mirrored),
        );
    }

    // Undo the demand pre-scaling: bounds computed for demands d*scale are
    // 1/scale times the bounds for d. The certificate needs no scale field:
    // its flow and served amounts are absolute, so the canonical claims come
    // out in original demand units directly.
    Solved {
        bounds: ThroughputBounds {
            lower: best.lower * scale,
            upper: best.upper * scale,
        },
        stats: *stats,
        cert: best.capture.map(|cap| cap.into_certificate(ctx.prob)),
        #[cfg(test)]
        blocks: best.blocks,
        #[cfg(test)]
        ws: Some(ws),
    }
}

/// A solve's bound bookkeeping: the best bracket so far (in the *scaled*
/// demand space), the flow blocks behind the feasible bound, the best cut,
/// the averaged length function and its window base, and the certificate
/// capture.
struct BestBounds {
    lower: f64,
    upper: f64,
    /// The flow routed between evaluations and the best mix of it.
    blocks: Blocks,
    /// The best cut swept so far and the sweeps' scratch.
    cut: CutSweep,
    /// Running sum of `l / D(l)`, sampled after every source's turn.
    avg: LengthAverage,
    /// The sum at the latest snapshot: the averaged bound's window base.
    len_base: Option<Vec<f64>>,
    /// The window average `l̄` of the latest evaluation.
    avg_lens: Vec<f64>,
    /// Per-node scratch for [`route::HeldPaths::alpha`].
    node_len: Vec<f64>,
    /// Certificate capture: pure copies of the state behind each best bound,
    /// never arithmetic on solver state — the trajectory is identical with
    /// capture on or off.
    capture: Option<CertCapture>,
}

/// `alpha` over held paths and the exact `alpha` add the same kind of terms
/// in different orders; a screen divides by the held sum times this factor,
/// so rounding cannot make it skip a sweep that would have closed the gap.
const HELD_ALPHA_MARGIN: f64 = 1.0 + 1e-9;

impl BestBounds {
    fn new(num_nodes: usize, num_arcs: usize, commodities: usize, want_cert: bool) -> Self {
        BestBounds {
            lower: 0.0,
            upper: f64::INFINITY,
            blocks: Blocks::new(num_arcs, commodities),
            cut: CutSweep::new(num_nodes),
            avg: LengthAverage::new(num_arcs),
            len_base: None,
            avg_lens: Vec::new(),
            node_len: vec![0.0; num_nodes],
            capture: want_cert.then(CertCapture::default),
        }
    }

    /// Relative gap of the best bracket (meaningful once `upper` is finite
    /// and positive).
    fn gap(&self) -> f64 {
        (self.upper - self.lower) / self.upper
    }

    /// Whether a dual sweep whose bound cannot come out below `held_up`
    /// could still close the gap to `target_gap` against the best lower
    /// bound — always when there is no target (the closing evaluation), and
    /// never once the best bracket has closed it. `held_up` is 0 while some
    /// source holds no path, which screens nothing.
    fn worth_sweeping(&self, held_up: f64, target_gap: Option<f64>) -> bool {
        let Some(target_gap) = target_gap else {
            return true;
        };
        let closes = |upper: f64| (upper - self.lower) / upper <= target_gap;
        !closes(self.upper) && (held_up <= 0.0 || closes(held_up))
    }

    /// Evaluates the bounds on the state in `ws` and folds them into the
    /// best bracket. The feasible side comes first: the flow routed since the
    /// previous evaluation closes a block, and the block LP re-weights the
    /// blocks. Then the rows that are not dense are re-derived, since routing
    /// reads them, and one cut sweep ([`Self::sweep_cut`]) runs along a
    /// distance order of the source whose turn it is. Then the dual bound at
    /// the window average `l̄` of the normalised lengths runs its sweep only if
    /// the value it would have over the paths the solve holds
    /// ([`route::HeldPaths::alpha`], a lower bound on the value the sweep
    /// finds) could close the gap to `target_gap`; `None`, at the closing
    /// evaluation, always runs it. A cut that closes the gap thereby skips
    /// it. The counters in `ws` record the evaluation, whether it was
    /// screened, the forward searches, the LP solves and pivots, and which
    /// evidence set the reported upper bound.
    fn evaluate(&mut self, ctx: &RouteCtx<'_>, target_gap: Option<f64>, ws: &mut SolverWorkspace) {
        ws.stats.evaluations += 1;
        let si = ws.stats.evaluations % ctx.prob.sources().len();
        self.fold_primal(ctx, ws);
        let keep = ctx.single_dest[si].map(|_| (ctx.pot_rows[si], &mut self.cut.order));
        ws.potentials
            .refresh(ctx, ws.mwu.lens(), &mut ws.sssp, keep);
        self.sweep_cut(ctx, si, ws);

        self.avg
            .window(self.len_base.as_deref(), &mut self.avg_lens);
        let held_alpha = ws.held.alpha(ctx, &self.avg_lens, &mut self.node_len);
        let held_up = ratio(volume(ctx, &self.avg_lens), held_alpha * HELD_ALPHA_MARGIN);
        if !self.worth_sweeping(held_up, target_gap) {
            ws.stats.screened += 1;
            return;
        }
        let up = averaged_dual_bound(ctx, &self.avg_lens, ws);
        if up < self.upper {
            self.upper = up;
            ws.stats.upper_from = UpperEvidence::Average;
            if let Some(cap) = self.capture.as_mut() {
                cap.observe_dual(&self.avg_lens);
            }
        }
    }

    /// Sweeps the nested prefixes of one order of source `si` as cuts and
    /// folds the best cut of the solve into the best upper bound. The order
    /// is the settle order of a tree the solve has at hand: the tree a
    /// multi-destination source last routed on, or the reverse Dijkstra that
    /// derived a single-destination source's potential row at this
    /// evaluation — which the caller's refresh left in `self.cut.order`, and
    /// which runs here, once, when the row is dense and was not derived.
    fn sweep_cut(&mut self, ctx: &RouteCtx<'_>, si: usize, ws: &mut SolverWorkspace) {
        let order = &mut self.cut.order;
        match ctx.single_dest[si] {
            None => {
                order.clear();
                order.extend(ws.held.tree(si).iter().map(|&[v, _]| v));
            }
            Some(dst) if order.is_empty() => {
                route::reverse_tree(ctx, ws.mwu.lens(), dst, &mut ws.sssp);
                order.extend_from_slice(ws.sssp.settle_order());
            }
            Some(_) => {}
        }
        if !self.cut.sweep(ctx) {
            return;
        }
        if let Some(cap) = self.capture.as_mut() {
            cap.observe_cut(&self.cut.in_set);
        }
        if self.cut.value < self.upper {
            self.upper = self.cut.value;
            ws.stats.upper_from = UpperEvidence::Cut;
        }
    }

    /// Closes the block routed since the previous evaluation, re-weights the
    /// blocks by the block LP and folds the feasible value of the mix into
    /// the best lower bound.
    fn fold_primal(&mut self, ctx: &RouteCtx<'_>, ws: &mut SolverWorkspace) {
        self.blocks.close(&ws.flow_arc, &ws.routed, &ctx.demands);
        let mix = self.blocks.solve(ws.mwu.caps(), &mut ws.stats);
        if mix.value > self.lower {
            self.lower = mix.value;
            if let Some(cap) = self.capture.as_mut() {
                let ratio = self.blocks.served_ratio();
                cap.observe_primal(self.blocks.load(), &ctx.demands, ratio, mix.mu);
            }
        }
    }

    /// Makes the current length sum the averaged bound's window base.
    fn snapshot(&mut self) {
        let base = self.len_base.get_or_insert_with(Vec::new);
        base.clear();
        base.extend_from_slice(self.avg.sum());
    }
}

/// The dual upper bound `D(l̄) / alpha(l̄)` at an arbitrary non-negative
/// length function `lens` — the window average of the normalised iterates
/// (see the module docs). No potential rows exist at `l̄`, so every source
/// runs one forward search (early-exit, or a repair of the tree `ws.held`
/// keeps for it, see [`route::compute_tree`]); the terms of `alpha` are
/// summed in source order, and `D` is summed fresh in arc order. Infinite
/// when `alpha` is not positive (an empty window is all zeros).
fn averaged_dual_bound(ctx: &RouteCtx<'_>, lens: &[f64], ws: &mut SolverWorkspace) -> f64 {
    let sources = ctx.prob.sources();
    let mut alpha = 0.0;
    for (si, (s, demands)) in sources.iter().zip(&ctx.demands).enumerate() {
        let held = ws.held.tree(si);
        ws.stats.repairs += usize::from(route::compute_tree(ctx, si, lens, held, &mut ws.sssp));
        alpha += s
            .dests
            .iter()
            .zip(demands)
            .map(|(&(dst, _), d)| d * ws.sssp.dist(dst))
            .sum::<f64>();
    }
    ws.stats.searches += sources.len();
    ratio(volume(ctx, lens), alpha)
}

/// `D(lens) = Σ cap × len`, summed fresh in arc order.
fn volume(ctx: &RouteCtx<'_>, lens: &[f64]) -> f64 {
    ctx.prob.arc_caps().zip(lens).map(|(c, l)| c * l).sum()
}

/// The dual bound `d_l / alpha`, infinite when `alpha` is not positive.
fn ratio(d_l: f64, alpha: f64) -> f64 {
    if alpha > 0.0 {
        d_l / alpha
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lengths::MwuLengths;
    use tb_graph::SsspWorkspace;

    #[test]
    fn averaged_dual_bound_equals_an_independent_recomputation() {
        // The same 160-switch instance under longest matching and
        // all-to-all, at a window of the normalised lengths three truncated
        // solves leave in the workspace: the sample of the first is the
        // window base, the other two are the window.
        let topo = tb_topology::jellyfish::jellyfish(160, 8, 1, 42);
        for tm in [
            tb_traffic::synthetic::longest_matching(&topo.graph, &topo.servers, true),
            tb_traffic::synthetic::all_to_all(&topo.servers),
        ] {
            let prob = FlowProblem::new(&topo.graph, &tm);
            let mut avg = LengthAverage::new(prob.num_arcs());
            let mut base = Vec::new();
            let mut last = None;
            for max_phases in [2, 4, 6] {
                let cfg = FleischerConfig {
                    max_phases,
                    ..FleischerConfig::fast()
                };
                let solved = solve_problem(&cfg, &topo.graph, &prob, false);
                let ws = last.insert(solved.ws.expect("a non-trivial instance"));
                avg.sample(&ws.mwu);
                if base.is_empty() {
                    base.extend_from_slice(avg.sum());
                }
            }
            // The averaged sweep repairs from the trees the last solve held.
            let mut ws = last.expect("three solves ran");
            let mut lens = Vec::new();
            avg.window(Some(&base), &mut lens);
            assert!(lens.iter().any(|&l| l != lens[0]));

            // Independently: `D` summed fresh, one plain full Dijkstra per
            // source.
            let ctx = RouteCtx::new(&prob, 1.0, 1.0);
            let d_l: f64 = prob.arcs().iter().zip(&lens).map(|(a, l)| a.cap * l).sum();
            assert!((d_l - 2.0).abs() < 1e-9, "two samples of D = 1, got {d_l}");
            let mut alpha = 0.0;
            let mut sssp = SsspWorkspace::new();
            for s in prob.sources() {
                tb_graph::sssp_csr(prob.csr(), s.src, &lens, None, &mut sssp);
                for &(dst, demand) in &s.dests {
                    alpha += demand * sssp.dist(dst);
                }
            }
            let independent = d_l / alpha;

            let averaged = averaged_dual_bound(&ctx, &lens, &mut ws);
            assert!(
                independent.is_finite() && (averaged - independent).abs() <= 1e-12 * independent,
                "averaged sweep {averaged} vs independent {independent}"
            );
        }
        // An empty window is no evidence, not a zero bound.
        let prob = FlowProblem::new(
            &topo.graph,
            &tb_traffic::synthetic::all_to_all(&topo.servers),
        );
        let ctx = RouteCtx::new(&prob, 1.0, 1.0);
        let mut ws = SolverWorkspace::new(&ctx, FleischerConfig::fast().epsilon);
        let empty = vec![0.0; prob.num_arcs()];
        let up = averaged_dual_bound(&ctx, &empty, &mut ws);
        assert_eq!(up, f64::INFINITY);
    }

    #[test]
    fn held_paths_never_promise_a_lower_dual_bound_than_the_sweep_finds() {
        // An evaluation skips the dual sweep when `D(l̄) / alpha` over the
        // held paths cannot close the gap. That is sound only if this value
        // never exceeds the bound the sweep would find at the same lengths,
        // i.e. if no held path is shorter than a shortest one. Checked at a
        // window `l̄` of the normalised lengths truncated solves leave, grown
        // a little further, under longest matching (known paths), all-to-all
        // (held trees) and RM(2) (held trees of two-destination sources
        // beside single-destination ones).
        let topo = tb_topology::jellyfish::jellyfish(40, 6, 2, 9);
        for tm in [
            tb_traffic::synthetic::longest_matching(&topo.graph, &topo.servers, true),
            tb_traffic::synthetic::all_to_all(&topo.servers),
            tb_traffic::synthetic::random_matching(&topo.servers, 2, 5),
        ] {
            let prob = FlowProblem::new(&topo.graph, &tm);
            let ctx = RouteCtx::new(&prob, 1.0, 1.0);
            let mut last = None;
            let mut avg = LengthAverage::new(prob.num_arcs());
            let mut base = Vec::new();
            let mut node_len = vec![0.0; prob.num_nodes()];
            for max_phases in [3, 6, 9] {
                let cfg = FleischerConfig {
                    max_phases,
                    target_gap: 0.0,
                    ..FleischerConfig::fast()
                };
                let solved = solve_problem(&cfg, &topo.graph, &prob, false);
                let ws = last.insert(solved.ws.expect("a non-trivial instance"));
                // Lengths grow after the paths were found, as the routing
                // between two evaluations grows them: a third of the arcs
                // take one step each.
                for aid in (0..prob.num_arcs()).step_by(3) {
                    ws.mwu.apply(aid, ws.mwu.cap(aid));
                }
                avg.sample(&ws.mwu);
                if base.is_empty() {
                    base.extend_from_slice(avg.sum());
                }
            }
            let mut lens = Vec::new();
            avg.window(Some(&base), &mut lens);
            let ws = last.as_mut().expect("three solves ran");
            let alpha = ws.held.alpha(&ctx, &lens, &mut node_len);
            let held_up = ratio(volume(&ctx, &lens), alpha * HELD_ALPHA_MARGIN);
            let exact = averaged_dual_bound(&ctx, &lens, ws);
            assert!(
                0.0 < held_up && held_up <= exact,
                "{} flows, window: held {held_up} vs swept {exact}",
                tm.num_flows()
            );
        }
    }

    #[test]
    fn snapshots_replace_the_averaged_bound_window_base() {
        // The averaged dual bound's window starts at the latest snapshot:
        // each one makes the running length sum at that moment the base.
        let mut mwu = MwuLengths::new(0.1, [1.0, 2.0]);
        let mut best = BestBounds::new(1, 2, 1, false);
        assert!(best.len_base.is_none());
        for k in 1..=3 {
            best.avg.sample(&mwu);
            mwu.apply(0, 1.0);
            best.snapshot();
            assert_eq!(
                best.len_base.as_deref(),
                Some(best.avg.sum()),
                "snapshot {k}"
            );
        }
        best.avg.sample(&mwu);
        assert_ne!(best.len_base.as_deref(), Some(best.avg.sum()));
    }
}
