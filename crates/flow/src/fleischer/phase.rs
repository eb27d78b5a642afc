//! The solve in three parts: setup (demand scaling, the context, the
//! workspace reset), the phase loop that owns the multiplicative-weights
//! trajectory, and the closing bound evaluation with its trace line.
//!
//! A *phase* routes every source's full (pre-scaled) demand once, source by
//! source, lengths updated in place — the classical Fleischer trajectory.
//! The loop runs phases until the bound gap closes, the classical termination
//! `D(l) >= 1` fires, or the phase cap is hit, with a bound evaluation every
//! `check_interval` phases. Each source is routed by the kernel its
//! destination count selects: the known-path loop for one destination, the
//! aggregated tree for several.
//!
//! ## Sweeps only where the gap can close
//!
//! The dual bound wants every commodity's distance at the current lengths;
//! the goal-directed searches of the following phases want potentials —
//! reverse distances to each single-destination source's target — at those
//! same lengths. Every evaluation therefore re-derives the potential rows
//! that are not dense (once more at the start of the solve, for the phases
//! before the first evaluation), and [`dual_bound`] reads each
//! single-destination term of `alpha(l)` off its row (`demand × row[src]` is
//! the exact distance); only multi-destination sources run a forward tree. A
//! dense row is re-derived at the start of each of its source's turns, by
//! the routing kernel (see [`super`]), so between turns only the dual bound
//! reads it, and [`dual_bound`] re-derives the dense rows itself.
//!
//! Most evaluations cannot close the gap, and the solve can tell before any
//! sweep runs: a path it already holds for a commodity is no shorter than a
//! shortest one, so summing every commodity's demand times the length of a
//! held path — the shortest known path of a single-destination source (the
//! exact row when it is not dense), the tree a multi-destination source last
//! routed on — gives `alpha_held >= alpha`, and `D/alpha_held` is a value the
//! sweep's bound cannot come out below ([`HeldPaths::alpha`], O(nodes) per
//! source). An evaluation computes its feasible bound first; then each dual
//! candidate — the last iterate `l` and the window average `l̄` below — runs
//! its sweep (the dense rows and the forward trees for `l`, one forward
//! search per source for `l̄`) only if that value could close the gap to
//! `target_gap` against the best lower bound. The closing evaluation is
//! never screened. Routing, lengths and flows are untouched, so a solve runs
//! its trajectory to the exit; what moves is which evaluation finds the
//! bound that closes the gap, and the reported upper bound.
//! [`SolveStats::screened`] counts the evaluations that ran no sweep. Against
//! the rule the screen replaced (run the averaged sweep when the last iterate
//! did not improve the best bound), seed 1, `--scenario all --no-cache`:
//! 73,455 → 73,043 phases and 7.75 M → 7.00 M searches; the `/A2A` pass of
//! `fig05_06` ran no sweep at 822 of its 1,008 evaluations.
//!
//! The refreshes and the one α sweep both dual bounds share ([`sweep_alpha`],
//! which also counts the trees it repaired) are the only parallel regions,
//! both through [`sweep_fan_out`]; each block of a fan-out runs on an SSSP
//! workspace of its own, and no result depends on the thread count.
//!
//! ## The dual bound and its averaged iterate
//!
//! `D(l)/alpha(l)` bounds the throughput from above for **any** non-negative
//! length function `l` (LP duality), so the solver is free to choose where to
//! evaluate it. At the *last* iterate — the current lengths — the bound is a
//! noisy sequence: on a sparse TM over a short-diameter graph it bounces by
//! about ±1 % from one evaluation to the next (`HyperX/1/LM`: 0.6219, 0.6258,
//! 0.6265, 0.6330, 0.6248, …), the best-so-far is the running minimum of that
//! noise, and a solve whose feasible side sat 1.0–1.4 % under the optimum
//! stalled with its dual side 4.0–7.2 % over it until `D(l) >= 1` ended it.
//! The Garg–Könemann / Fleischer analysis — like the generic
//! multiplicative-weights regret bound — converges in the **average of the
//! normalised iterates** `l / D(l)`, not in the last one. So the loop keeps
//! the running sum of `l / D(l)` ([`LengthAverage`]), sampled after every
//! source's turn (O(arcs) per turn), copies it at the evaluations whose
//! index `phase / check_interval` is a power of two (the window base), and an
//! evaluation also evaluates `D(l̄)/alpha(l̄)` at the window average
//! `l̄ = sum − base` when the held paths say it could close the gap
//! (previous section; [`averaged_dual_bound`]: no potential rows exist at
//! `l̄`, so every source runs one early-exit forward search, counted in
//! [`SolveStats::searches`]).
//!
//! Validity needs nothing beyond duality. Quality: `alpha` is concave and
//! positively homogeneous and `D` is linear, so the bound at a sum of length
//! functions is at most the `alpha`-weighted mean of their bounds — the
//! average is never worse than its samples are on (weighted) average, and it
//! cancels the bounce. The averaged bound only reads: routing, the length
//! trajectory, the potential refresh and the feasible bound are untouched, and
//! a solve merely meets its `target_gap` earlier ([`SolveStats::upper_from_average`]
//! says when the average set the reported bound; a certificate then carries
//! `l̄` as its dual evidence). Measured facts fixed the rest (seed 1, the
//! `/1/LM` pass of `fig05_06`: 4,581 phases without the average, 2,144 with
//! it): evaluating the average at *every* evaluation costs the `/A2A` pass
//! +15 % searches for no phase saved, so it runs only where the held-path
//! screen says it could close the gap; sampling once per phase instead of
//! once per turn leaves 2,692 phases and a solve that still saturates; the
//! cumulative average (no window) leaves 2,807 phases, and the window from
//! the older base 2,340 (whole suite 77,471 phases / 11 saturated solves
//! against 73,207 / 6 from the newest base). None of them is a knob.
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
//! in it: a complete phase routes every demand once). Every path deposit adds
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
use super::route::{self, HeldPaths, PotentialRows, RouteCtx, TreeSeed};
use super::{sweep_fan_out, FleischerConfig, SolveStats, SolverWorkspace};
use crate::certificate::{CertCapture, ThroughputCertificate};
use crate::instance::FlowProblem;
use crate::lengths::LengthAverage;
use crate::ThroughputBounds;
use tb_graph::{Graph, SsspWorkspace};

/// What [`solve_problem`] hands back to the public entry points.
pub(super) struct Solved {
    pub bounds: ThroughputBounds,
    pub stats: SolveStats,
    /// Present iff a certificate was requested.
    pub cert: Option<ThroughputCertificate>,
    /// The flow blocks and the mix the closing evaluation left.
    #[cfg(test)]
    pub blocks: Blocks,
}

/// Runs the full solve: setup, the phase loop, and the closing bound
/// evaluation. See the module docs of [`super`] for the algorithm.
pub(super) fn solve_problem(
    cfg: &FleischerConfig,
    graph: &Graph,
    prob: &FlowProblem,
    ws: &mut SolverWorkspace,
    want_cert: bool,
) -> Solved {
    let Some((ctx, scale)) = setup(cfg, graph, prob, ws) else {
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
                )
            }),
            #[cfg(test)]
            blocks: Blocks::default(),
        };
    };
    // Best bracket, flow blocks, averaged lengths and certificate capture.
    let commodities = ws.routed.iter().map(Vec::len).sum();
    let mut best = BestBounds::new(prob.num_nodes(), prob.num_arcs(), commodities, want_cert);
    let gap_exit = run_phases(cfg, &ctx, &mut best, ws);
    close(cfg, &ctx, best, gap_exit, ws, scale)
}

/// Readies `ws` for a solve of `prob` and returns its context and demand
/// scale, or `None` when the throughput is trivially zero (no arc, or a
/// disconnected demand pair).
fn setup<'a>(
    cfg: &FleischerConfig,
    graph: &Graph,
    prob: &'a FlowProblem,
    ws: &mut SolverWorkspace,
) -> Option<(RouteCtx<'a>, f64)> {
    let n = prob.num_nodes();
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

    ws.stats = SolveStats::default();
    ws.flow_arc.clear();
    ws.flow_arc.resize(m, 0.0);
    ws.routed.resize_with(ctx.demands.len(), Vec::new);
    for (routed, demands) in ws.routed.iter_mut().zip(&ctx.demands) {
        routed.clear();
        routed.resize(demands.len(), 0.0);
    }
    ws.mwu.reset(eps, prob.arc_caps());
    ws.held.reset(&ctx);
    // The rows every search of the first `check_interval` phases is
    // directed by (none is dense yet); each bound evaluation refreshes them
    // from then on.
    ws.potentials.reset(ctx.num_single, n);
    ws.potentials
        .refresh(&ctx, ws.mwu.lens(), false, &mut ws.sssp);
    // The tree kernel's per-node buffers, for sources with several
    // destinations.
    if ctx.num_single < prob.sources().len() {
        ws.subtree.clear();
        ws.subtree.resize(n, 0.0);
        ws.cur_len.clear();
        ws.cur_len.resize(n, 0.0);
    }
    Some((ctx, scale))
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
                let ok = route::route_source_tree(ctx, si, ws);
                ws.held.hold_tree(si, &ws.sssp);
                ok
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
    ws: &mut SolverWorkspace,
    scale: f64,
) -> Solved {
    // Never screened: its bounds are the ones reported.
    if !gap_exit {
        best.evaluate(ctx, None, ws);
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
            "TB_SOLVER_TRACE n={} m={} sources={} phases={} searches={} repairs={} path_reuses={} row_refreshes={} settles={} evals={} screened={} lp_solves={} lp_pivots={} blocks={} d_l={:.3e} exit={} upper={}",
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
            if stats.upper_from_average {
                "average"
            } else {
                "last"
            },
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
    }
}

/// A solve's bound bookkeeping: the best bracket so far (in the *scaled*
/// demand space), the flow blocks behind the feasible bound, the averaged
/// length function and its window base, and the certificate capture.
struct BestBounds {
    lower: f64,
    upper: f64,
    /// The flow routed between evaluations and the best mix of it.
    blocks: Blocks,
    /// Running sum of `l / D(l)`, sampled after every source's turn.
    avg: LengthAverage,
    /// The sum at the latest snapshot: the averaged bound's window base.
    len_base: Option<Vec<f64>>,
    /// The window average `l̄` of the latest evaluation.
    avg_lens: Vec<f64>,
    /// Per-node scratch for [`HeldPaths::alpha`].
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

    /// Evaluates both bounds on the state in `ws` and folds them into the
    /// best bracket. The feasible side comes first: the flow routed since the
    /// previous evaluation closes a block, and the block LP re-weights the
    /// blocks. Then each dual candidate — the current lengths `l` and the
    /// window average `l̄` of the normalised lengths — runs its sweep only if
    /// the value it would have over the paths the solve holds
    /// ([`HeldPaths::alpha`], a lower bound on the value the sweep finds)
    /// could close the gap to `target_gap`; `None`, at the closing
    /// evaluation, runs both. The rows that are not dense are re-derived
    /// either way, since routing reads them. The counters in `ws` record the
    /// evaluation, whether it was screened, the forward searches, the LP
    /// solves and pivots, and which candidate set the reported upper bound.
    fn evaluate(&mut self, ctx: &RouteCtx<'_>, target_gap: Option<f64>, ws: &mut SolverWorkspace) {
        ws.stats.evaluations += 1;
        self.fold_primal(ctx, ws);
        ws.potentials
            .refresh(ctx, ws.mwu.lens(), false, &mut ws.sssp);
        let mut swept = false;

        let held_alpha =
            ws.held
                .alpha(ctx, ws.mwu.lens(), Some(&ws.potentials), &mut self.node_len);
        if self.worth_sweeping(
            ws.mwu.dual_bound(held_alpha * HELD_ALPHA_MARGIN),
            target_gap,
        ) {
            swept = true;
            let up = dual_bound(ctx, ws);
            if up < self.upper {
                self.upper = up;
                ws.stats.upper_from_average = false;
                if let Some(cap) = self.capture.as_mut() {
                    cap.observe_dual(ws.mwu.lens());
                }
            }
        }

        self.avg
            .window(self.len_base.as_deref(), &mut self.avg_lens);
        let held_alpha = ws.held.alpha(ctx, &self.avg_lens, None, &mut self.node_len);
        let held_up = ratio(volume(ctx, &self.avg_lens), held_alpha * HELD_ALPHA_MARGIN);
        if self.worth_sweeping(held_up, target_gap) {
            swept = true;
            let up = averaged_dual_bound(ctx, &self.avg_lens, ws);
            if up < self.upper {
                self.upper = up;
                ws.stats.upper_from_average = true;
                if let Some(cap) = self.capture.as_mut() {
                    cap.observe_dual(&self.avg_lens);
                }
            }
        }
        ws.stats.screened += usize::from(!swept);
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

/// The dual upper bound `D(l) / alpha(l)` with `alpha(l)` the demand-weighted
/// shortest-path distances under the current lengths, in the *scaled* demand
/// space.
///
/// Every potential row must be exact at the current lengths: the caller has
/// re-derived the rows that are not dense (the next `check_interval` phases
/// search under them), and this re-derives the dense ones — one reverse
/// Dijkstra per single-destination source's target. A refreshed row holds
/// exact distances *to* its destination, so a single-destination source's
/// term of `alpha(l)` is `demand × row[src]`, read off with no search of its
/// own. Only multi-destination sources need a shortest-path tree
/// ([`sweep_alpha`]).
fn dual_bound(ctx: &RouteCtx<'_>, ws: &mut SolverWorkspace) -> f64 {
    ws.potentials
        .refresh(ctx, ws.mwu.lens(), true, &mut ws.sssp);
    let rows = Some(&ws.potentials);
    let (alpha, repairs) = sweep_alpha(ctx, ws.mwu.lens(), rows, &ws.held, &mut ws.sssp);
    ws.stats.searches += ctx.prob.sources().len() - ctx.num_single;
    ws.stats.repairs += repairs;
    ws.mwu.dual_bound(alpha)
}

/// The dual upper bound `D(l̄) / alpha(l̄)` at an arbitrary non-negative
/// length function `lens` — the window average of the normalised iterates
/// (see the module docs). No potential rows exist at `l̄`, so every source
/// runs one early-exit forward search, and `D` is summed fresh in arc order.
/// Infinite when `alpha` is not positive (an empty window is all zeros).
fn averaged_dual_bound(ctx: &RouteCtx<'_>, lens: &[f64], ws: &mut SolverWorkspace) -> f64 {
    let (alpha, repairs) = sweep_alpha(ctx, lens, None, &ws.held, &mut ws.sssp);
    ws.stats.searches += ctx.prob.sources().len();
    ws.stats.repairs += repairs;
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

/// The α sweep of both dual bounds: `alpha(lens)`, summed in source order,
/// and how many trees it repaired. A single-destination source's term is
/// read off its row when `rows` holds rows exact at `lens`; every other
/// source runs one forward search (early-exit, or a repair of the tree
/// `held` keeps for it, see [`route::compute_tree`]). The sweep is read-only
/// over the lengths, so it fans out like the refreshes ([`sweep_fan_out`]);
/// the terms come back in source order and are summed here, serially, so
/// the result does not depend on the thread count.
fn sweep_alpha(
    ctx: &RouteCtx<'_>,
    lens: &[f64],
    rows: Option<&PotentialRows>,
    held: &HeldPaths,
    sssp: &mut SsspWorkspace,
) -> (f64, usize) {
    let n = ctx.prob.num_nodes();
    let sources = ctx.prob.sources();
    let term = |sw: &mut SsspWorkspace, si: usize| -> (f64, bool) {
        if let (Some(rows), Some(_)) = (rows, ctx.single_dest[si]) {
            let row = rows.row(ctx.pot_rows[si], n);
            return (ctx.demands[si][0] * row[sources[si].src], false);
        }
        let repaired = route::compute_tree(ctx, si, lens, TreeSeed::Held(held.tree(si)), sw);
        let alpha = sources[si]
            .dests
            .iter()
            .zip(&ctx.demands[si])
            .map(|(&(dst, _), d)| d * sw.dist(dst))
            .sum();
        (alpha, repaired)
    };
    let searches = sources.len() - rows.map_or(0, |_| ctx.num_single);
    let per_source = sweep_fan_out(searches * ctx.prob.num_arcs(), 0..sources.len(), sssp, term);
    let alpha = per_source.iter().map(|&(alpha, _)| alpha).sum();
    (alpha, per_source.iter().filter(|&&(_, r)| r).count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleischer::PAR_MIN_SWEEP_WORK;
    use crate::lengths::MwuLengths;

    #[test]
    fn dual_bound_read_off_the_refreshed_rows_equals_the_forward_searches() {
        // The instance of `pooled_sweeps_match_inline_execution_bit_for_bit`
        // (160 single-destination sources × 1,280 arcs, past the fan-out
        // threshold, so the evaluation below queues pool jobs at any width
        // above one),
        // at the differentiated lengths six phases of a real solve leave in
        // the workspace.
        let topo = tb_topology::jellyfish::jellyfish(160, 8, 1, 42);
        let tm = tb_traffic::synthetic::longest_matching(&topo.graph, &topo.servers, true);
        let prob = FlowProblem::new(&topo.graph, &tm);
        assert!(prob.sources().len() * prob.num_arcs() >= PAR_MIN_SWEEP_WORK);
        let cfg = FleischerConfig {
            max_phases: 6,
            ..FleischerConfig::fast()
        };
        let mut ws = SolverWorkspace::new();
        solve_problem(&cfg, &topo.graph, &prob, &mut ws, false);
        let ctx = RouteCtx::new(&prob, 1.0, 1.0);
        assert_eq!(ctx.num_single, 160);
        let lens = ws.mwu.lens();
        assert!(lens.iter().any(|&l| l != lens[0]));

        // alpha(l) the way the previous sweep computed it: one forward
        // search per source.
        let mut alpha = 0.0;
        let mut sssp = SsspWorkspace::new();
        for (s, demands) in prob.sources().iter().zip(&ctx.demands) {
            let dst = s.dests[0].0;
            tb_graph::sssp_csr(prob.csr(), s.src, lens, Some(&[dst]), &mut sssp);
            alpha += demands[0] * sssp.dist(dst);
        }
        let forward = ws.mwu.dual_bound(alpha);

        // An evaluation's sequence: the rows that are not dense first, then
        // the bound, which re-derives the dense ones.
        let mut evaluate = || {
            ws.potentials
                .refresh(&ctx, ws.mwu.lens(), false, &mut ws.sssp);
            dual_bound(&ctx, &mut ws)
        };
        let queued_before = rayon::pool::stats().jobs;
        let pooled = evaluate();
        assert!(rayon::current_num_threads() == 1 || rayon::pool::stats().jobs > queued_before);
        let inline = rayon::serial(&mut evaluate);
        assert_eq!(pooled.to_bits(), inline.to_bits());
        assert!(
            forward.is_finite() && (pooled - forward).abs() <= 1e-12 * forward,
            "rows {pooled} vs forward searches {forward}"
        );
    }

    #[test]
    fn averaged_dual_bound_equals_an_independent_recomputation() {
        // The same 160-switch instance (past the fan-out threshold under both
        // TMs: 160 sources × 1,280 arcs), at a window of the normalised
        // lengths three truncated solves leave in the workspace: the sample
        // of the first is the window base, the other two are the window.
        let topo = tb_topology::jellyfish::jellyfish(160, 8, 1, 42);
        for tm in [
            tb_traffic::synthetic::longest_matching(&topo.graph, &topo.servers, true),
            tb_traffic::synthetic::all_to_all(&topo.servers),
        ] {
            let prob = FlowProblem::new(&topo.graph, &tm);
            assert!(prob.sources().len() * prob.num_arcs() >= PAR_MIN_SWEEP_WORK);
            let mut ws = SolverWorkspace::new();
            let mut avg = LengthAverage::new(prob.num_arcs());
            let mut base = Vec::new();
            for max_phases in [2, 4, 6] {
                let cfg = FleischerConfig {
                    max_phases,
                    ..FleischerConfig::fast()
                };
                solve_problem(&cfg, &topo.graph, &prob, &mut ws, false);
                avg.sample(&ws.mwu);
                if base.is_empty() {
                    base.extend_from_slice(avg.sum());
                }
            }
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

            let queued_before = rayon::pool::stats().jobs;
            let pooled = averaged_dual_bound(&ctx, &lens, &mut ws);
            assert!(rayon::current_num_threads() == 1 || rayon::pool::stats().jobs > queued_before);
            let inline = rayon::serial(|| averaged_dual_bound(&ctx, &lens, &mut ws));
            assert_eq!(pooled.to_bits(), inline.to_bits());
            assert!(
                independent.is_finite() && (pooled - independent).abs() <= 1e-12 * independent,
                "averaged sweep {pooled} vs independent {independent}"
            );
        }
        // An empty window is no evidence, not a zero bound.
        let prob = FlowProblem::new(
            &topo.graph,
            &tb_traffic::synthetic::all_to_all(&topo.servers),
        );
        let mut ws = SolverWorkspace::new();
        let empty = vec![0.0; prob.num_arcs()];
        let up = averaged_dual_bound(&RouteCtx::new(&prob, 1.0, 1.0), &empty, &mut ws);
        assert_eq!(up, f64::INFINITY);
    }

    #[test]
    fn held_paths_never_promise_a_lower_dual_bound_than_the_sweep_finds() {
        // An evaluation skips a sweep when `D(x) / alpha` over the held paths
        // cannot close the gap. That is sound only if this value never
        // exceeds the bound the sweep would find at the same lengths `x`,
        // i.e. if no held path is shorter than a shortest one. Checked at the
        // lengths truncated solves leave, grown a little further — the last
        // iterate `l`, with the rows that are not dense refreshed as an
        // evaluation leaves them, and a window `l̄` of the normalised lengths
        // — under longest matching (known paths, dense rows), all-to-all
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
            let mut ws = SolverWorkspace::new();
            let mut avg = LengthAverage::new(prob.num_arcs());
            let mut base = Vec::new();
            let mut node_len = vec![0.0; prob.num_nodes()];
            for max_phases in [3, 6, 9] {
                let cfg = FleischerConfig {
                    max_phases,
                    target_gap: 0.0,
                    ..FleischerConfig::fast()
                };
                solve_problem(&cfg, &topo.graph, &prob, &mut ws, false);
                // Lengths grow after the paths were found, as the routing
                // between two evaluations grows them, which leaves the dense
                // rows stale: a third of the arcs take one step each.
                for aid in (0..prob.num_arcs()).step_by(3) {
                    ws.mwu.apply(aid, ws.mwu.cap(aid));
                }
                ws.potentials
                    .refresh(&ctx, ws.mwu.lens(), false, &mut ws.sssp);
                let rows = Some(&ws.potentials);
                let alpha = ws.held.alpha(&ctx, ws.mwu.lens(), rows, &mut node_len);
                let held_up = ws.mwu.dual_bound(alpha * HELD_ALPHA_MARGIN);
                let exact = dual_bound(&ctx, &mut ws);
                assert!(
                    0.0 < held_up && held_up <= exact,
                    "{} flows, {max_phases} phases: held {held_up} vs swept {exact}",
                    tm.num_flows()
                );
                avg.sample(&ws.mwu);
                if base.is_empty() {
                    base.extend_from_slice(avg.sum());
                }
            }
            let mut lens = Vec::new();
            avg.window(Some(&base), &mut lens);
            let alpha = ws.held.alpha(&ctx, &lens, None, &mut node_len);
            let held_up = ratio(volume(&ctx, &lens), alpha * HELD_ALPHA_MARGIN);
            let exact = averaged_dual_bound(&ctx, &lens, &mut ws);
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
        let mut mwu = MwuLengths::new();
        mwu.reset(0.1, [1.0, 2.0]);
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
