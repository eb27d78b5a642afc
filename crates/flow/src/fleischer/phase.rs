//! The phase loop: owns the multiplicative-weights trajectory.
//!
//! A *phase* routes every source's full (pre-scaled) demand once, source by
//! source, lengths updated in place — the classical Fleischer trajectory.
//! The loop runs phases until the classical termination `D(l) >= 1`, the
//! bound gap closes, or the phase cap is hit, with a bound evaluation every
//! `check_interval` phases. Each source is routed by the kernel its
//! destination count selects: the known-path loop for one destination, the
//! aggregated tree at or above the aggregation threshold, the per-destination
//! walk in between.
//!
//! ## One sweep per bound evaluation
//!
//! The dual bound wants every commodity's distance at the current lengths;
//! the goal-directed searches of the following phases want potentials —
//! reverse distances to each single-destination source's target — at those
//! same lengths. [`dual_bound`] therefore refreshes the potential rows first
//! and reads each single-destination term of `alpha(l)` off its row
//! (`demand × row[src]` is the exact distance); only multi-destination
//! sources run a forward tree. The rows are computed once more at the start
//! of the solve, for the phases before the first evaluation. The refresh
//! and the multi-destination sweep are the only parallel regions (see
//! [`PAR_MIN_SWEEP_WORK`]); their results do not depend on the thread count.
//!
//! ## The feasible lower bound and its suffix windows
//!
//! Rescaling a multicommodity flow by `mu = min cap/flow` makes it capacity
//! feasible, and its worst-served commodity is then a valid concurrent
//! throughput ([`primal_bound`]). The classical analysis rescales the flow
//! accumulated **since phase 0**, and that bound stays — the `D(l) >= 1`
//! guarantee is stated for it. But the first phases route on near-uniform
//! lengths and pile congestion on a few arcs that the running average never
//! forgets, so the cumulative bound crawls up like `p/(p + c)` long after the
//! dual bound has settled. A **suffix window** drops that cold start: the
//! difference of the accumulators at two bound evaluations is itself a
//! multicommodity flow (every path deposit adds the same amount to its arcs
//! and to its commodity's routed total, so conservation holds for any
//! difference, and served amounts are absolute), hence feasible after the
//! same `mu` rescale. Every evaluation — periodic and closing — takes the
//! maximum of the cumulative bound and the window bounds.
//!
//! The schedule is fixed: the accumulators are snapshotted at the evaluations
//! whose index `phase / check_interval` is a power of two, and the latest two
//! snapshots are kept, so the older window always spans at least half the
//! run. Memory cost: `2 · (arcs + commodities)` f64 per solve. Windows only
//! read the accumulators — the routing trajectory, the lengths and the dual
//! bound are untouched; a solve merely meets its `target_gap` earlier.

use super::route::{self, RouteCtx, RouteState, SerialState};
use super::{FleischerConfig, SolveStats, SolverWorkspace, PAR_MIN_SWEEP_WORK};
use crate::certificate::{CertCapture, FlowSnapshot, ThroughputCertificate};
use crate::instance::FlowProblem;
use crate::lengths::MwuLengths;
use crate::ThroughputBounds;
use rayon::prelude::*;
use tb_graph::{Graph, SsspPool, SsspWorkspace};

/// What [`solve_problem`] hands back to the public entry points.
pub(super) struct Solved {
    pub bounds: ThroughputBounds,
    pub stats: SolveStats,
    /// Present iff a certificate was requested.
    pub cert: Option<ThroughputCertificate>,
    /// Whether a suffix window (rather than the cumulative flow) set the
    /// reported lower bound; the trace line prints it, only the unit tests
    /// read it from here.
    #[cfg_attr(not(test), allow(dead_code))]
    pub lower_from_window: bool,
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
    let n = prob.num_nodes();
    let m = prob.num_arcs();
    let eps = cfg.epsilon;
    assert!(eps > 0.0 && eps < 0.5, "epsilon must be in (0, 0.5)");
    // Trivial exits certify their zero with empty evidence at the
    // instance's real dimensions: zero flow, zero served amounts, unit
    // lengths (under which a disconnected pair drives the dual bound to an
    // exact zero).
    let trivial = || Solved {
        bounds: ThroughputBounds::exact(0.0),
        stats: SolveStats {
            converged: true,
            ..SolveStats::default()
        },
        cert: want_cert.then(|| {
            let commodities = prob.sources().iter().map(|s| s.dests.len()).sum();
            ThroughputCertificate::build(prob, vec![0.0; m], vec![0.0; commodities], vec![1.0; m])
        }),
        lower_from_window: false,
    };
    if m == 0 {
        return trivial();
    }
    // Set TB_SOLVER_TRACE=1 to print per-solve convergence counters when
    // tuning the kernel.
    let trace = std::env::var_os("TB_SOLVER_TRACE").is_some();

    // Pre-scale demands so the scaled optimum is near 1; this keeps the
    // phase count predictable regardless of the raw demand magnitudes.
    // The estimate doubles as the reachability check (0 iff some demand
    // pair is disconnected, which forces throughput 0) — one BFS sweep
    // instead of the former two.
    let est = prob.volumetric_estimate(graph);
    if est <= 0.0 {
        return trivial();
    }
    let scale = est.max(1e-12);
    // Reuse a tree or known path across a source's capacity-limited steps
    // while its current length is within this factor of a lower bound on the
    // current distance; a quarter step keeps routed paths well inside the
    // slack the analysis absorbs.
    let reuse_slack = 1.0 + 0.25 * eps;
    let tables = DemandTables::new(prob, scale);
    let ctx = tables.ctx(prob, reuse_slack);

    let SolverWorkspace {
        sssp,
        remaining,
        mwu,
        arc_state,
        touched,
        path,
        potentials,
        rev_lens,
        subtree,
        cur_len,
        known_paths,
        sweep_pool,
    } = ws;
    // Sources at or above the aggregation threshold route all their
    // remaining demands in one bottom-up pass over the tree's settle
    // order instead of one parent walk per destination (see module docs).
    let agg_min_dests = cfg
        .aggregate_min_dests
        .unwrap_or(super::DEFAULT_AGGREGATE_MIN_DESTS)
        .max(1);
    let any_dense = prob
        .sources()
        .iter()
        .any(|s| s.dests.len() >= agg_min_dests);

    // A zero `check_interval` would otherwise silently disable every
    // mid-run bound evaluation (and with it early termination).
    let check_interval = cfg.check_interval.max(1);

    let mut stats = SolveStats::default();

    // The optional wall-clock budget; checked on the bound-evaluation
    // cadence so the deterministic trajectory is untouched when unset.
    let solve_start = cfg.time_budget_ms.map(|_| std::time::Instant::now());

    let mut flow_arc = vec![0.0f64; m];
    let mut routed: Vec<Vec<f64>> = ctx.demands.iter().map(|d| vec![0.0; d.len()]).collect();
    // Best bracket, window snapshots and certificate capture.
    let mut best = BestBounds::new(want_cert);

    mwu.reset(eps, prob.arc_caps());
    arc_state.clear();
    arc_state.extend(prob.arcs().iter().map(|a| RouteState {
        avail: a.cap,
        used: 0.0,
        cap: a.cap,
    }));
    touched.clear();
    known_paths.reset(ctx.num_single);
    // The rows every search of the first `check_interval` phases is
    // directed by; each bound evaluation refreshes them from then on.
    potentials.clear();
    potentials.resize(ctx.num_single * n, f64::INFINITY);
    route::refresh_potentials(&ctx, mwu.lens(), rev_lens, potentials, sssp, sweep_pool);
    if any_dense {
        subtree.clear();
        subtree.resize(n, 0.0);
        cur_len.clear();
        cur_len.resize(n, 0.0);
    }

    let mut phase = 0usize;
    // Set by the two exits taken right after a bound evaluation (so the
    // closing evaluation below would recompute the same bounds).
    let mut early_exit: Option<&'static str> = None;
    'phases: while phase < cfg.max_phases && !mwu.saturated() {
        for (si, routed_si) in routed.iter_mut().enumerate() {
            if mwu.saturated() {
                break 'phases;
            }
            remaining.clear();
            remaining.extend_from_slice(&ctx.demands[si]);
            let mut state = SerialState {
                mwu: &mut *mwu,
                st: &mut arc_state[..],
                flow_arc: &mut flow_arc,
                remaining: &mut *remaining,
                touched: &mut *touched,
                path: &mut *path,
                subtree: &mut subtree[..],
                cur_len: &mut cur_len[..],
                sssp: &mut *sssp,
                known: &mut *known_paths,
                stats: &mut stats,
            };
            // The kernel follows from the source's destination count.
            let ok = if ctx.single_dest[si].is_some() {
                route::route_source_single(&ctx, si, potentials, &mut state, routed_si)
            } else if prob.sources()[si].dests.len() >= agg_min_dests {
                route::route_source_tree(&ctx, si, &mut state, routed_si)
            } else {
                route::route_source_walk(&ctx, si, &mut state, routed_si)
            };
            if !ok {
                break 'phases;
            }
        }
        phase += 1;
        if phase.is_multiple_of(check_interval) {
            best.evaluate(
                &ctx, potentials, rev_lens, &routed, &flow_arc, mwu, arc_state, sssp, sweep_pool,
                &mut stats,
            );
            if best.upper.is_finite() && best.gap() <= cfg.target_gap {
                early_exit = Some("gap");
                break 'phases;
            }
            if let (Some(budget_ms), Some(start)) = (cfg.time_budget_ms, solve_start) {
                if start.elapsed().as_millis() >= u128::from(budget_ms) {
                    early_exit = Some("time-budget");
                    break 'phases;
                }
            }
            if (phase / check_interval).is_power_of_two() {
                best.snapshot(&flow_arc, &routed);
            }
        }
    }
    stats.phases = phase;

    // Closing bound evaluation (unless the exit was taken right after one).
    if early_exit.is_none() {
        best.evaluate(
            &ctx, potentials, rev_lens, &routed, &flow_arc, mwu, arc_state, sssp, sweep_pool,
            &mut stats,
        );
    }
    if !best.upper.is_finite() {
        best.upper = best.lower;
    }

    if trace {
        eprintln!(
            "TB_SOLVER_TRACE phases={phase} searches={} path_reuses={} d_l={:.4} exit={} lower={}",
            stats.searches,
            stats.path_reuses,
            mwu.d_l(),
            early_exit.unwrap_or(if mwu.saturated() {
                "saturated"
            } else {
                "phase-budget"
            }),
            if best.lower_from_window {
                "window"
            } else {
                "prefix"
            },
        );
    }

    // Converged = the accuracy contract held when the loop ended: either the
    // classical FPTAS termination (`D(l) >= 1`, the (1±ε) guarantee) or the
    // target bound gap. A solve that merely ran out of its phase or time
    // budget reports `converged: false`, which the outcome layer maps to
    // `SolveStatus::BudgetExhausted`.
    stats.converged = mwu.saturated() || best.upper <= 0.0 || best.gap() <= cfg.target_gap;
    // Undo the demand pre-scaling: bounds computed for demands d*scale are
    // 1/scale times the bounds for d. The certificate needs no scale field:
    // its flow and served amounts are absolute, so the canonical claims come
    // out in original demand units directly.
    Solved {
        bounds: ThroughputBounds {
            lower: best.lower * scale,
            upper: best.upper * scale,
        },
        stats,
        cert: best.capture.map(|cap| cap.into_certificate(prob)),
        lower_from_window: best.lower_from_window,
    }
}

/// The per-solve tables a [`RouteCtx`] borrows.
struct DemandTables {
    demands: Vec<Vec<f64>>,
    targets: Vec<Vec<usize>>,
    single_dest: Vec<Option<usize>>,
    pot_rows: Vec<usize>,
    num_single: usize,
}

impl DemandTables {
    /// Builds the tables for `prob` with every demand multiplied by `scale`.
    fn new(prob: &FlowProblem, scale: f64) -> Self {
        let sources = prob.sources();
        // Goal-direction bookkeeping: sources with exactly one destination
        // get an A* potential row (see module docs), numbered in source order.
        let single_dest: Vec<Option<usize>> = sources
            .iter()
            .map(|s| match s.dests[..] {
                [(dst, _)] => Some(dst),
                _ => None,
            })
            .collect();
        let mut num_single = 0usize;
        let pot_rows = single_dest
            .iter()
            .map(|d| {
                if d.is_some() {
                    num_single += 1;
                    num_single - 1
                } else {
                    usize::MAX
                }
            })
            .collect();
        DemandTables {
            demands: sources
                .iter()
                .map(|s| s.dests.iter().map(|&(_, d)| d * scale).collect())
                .collect(),
            targets: sources
                .iter()
                .map(|s| s.dests.iter().map(|&(dst, _)| dst).collect())
                .collect(),
            single_dest,
            pot_rows,
            num_single,
        }
    }

    fn ctx<'a>(&'a self, prob: &'a FlowProblem, reuse_slack: f64) -> RouteCtx<'a> {
        RouteCtx {
            prob,
            demands: &self.demands,
            targets: &self.targets,
            single_dest: &self.single_dest,
            pot_rows: &self.pot_rows,
            num_single: self.num_single,
            reuse_slack,
        }
    }
}

/// A solve's bound bookkeeping: the best bracket so far (in the *scaled*
/// demand space), the suffix-window snapshots, and the certificate capture.
struct BestBounds {
    lower: f64,
    upper: f64,
    /// Whether a suffix window (rather than the cumulative flow) set `lower`.
    lower_from_window: bool,
    /// The latest two accumulator snapshots, older first: the bases of the
    /// suffix windows (see the module docs).
    bases: Vec<FlowSnapshot>,
    /// Certificate capture: pure copies of the state behind each best bound,
    /// never arithmetic on solver state — the trajectory is identical with
    /// capture on or off.
    capture: Option<CertCapture>,
}

impl BestBounds {
    fn new(want_cert: bool) -> Self {
        BestBounds {
            lower: 0.0,
            upper: f64::INFINITY,
            lower_from_window: false,
            bases: Vec::with_capacity(2),
            capture: want_cert.then(CertCapture::default),
        }
    }

    /// Relative gap of the best bracket (meaningful once `upper` is finite
    /// and positive).
    fn gap(&self) -> f64 {
        (self.upper - self.lower) / self.upper
    }

    /// Evaluates both bounds on the current state and folds them into the
    /// best bracket: the dual bound under the current lengths, and the
    /// feasible bound of the cumulative flow and of each suffix window.
    #[allow(clippy::too_many_arguments)]
    fn evaluate(
        &mut self,
        ctx: &RouteCtx<'_>,
        potentials: &mut [f64],
        rev_lens: &mut Vec<f64>,
        routed: &[Vec<f64>],
        flow_arc: &[f64],
        mwu: &MwuLengths,
        st: &[RouteState],
        sssp: &mut SsspWorkspace,
        pool: &SsspPool,
        stats: &mut SolveStats,
    ) {
        let up = dual_bound(ctx, potentials, rev_lens, mwu, sssp, pool);
        stats.searches += ctx.prob.sources().len() - ctx.num_single;
        if up < self.upper {
            self.upper = up;
            if let Some(cap) = self.capture.as_mut() {
                cap.observe_dual(mwu.lens());
            }
        }
        // Pick the best candidate first so a capture copies at most once.
        let mut base = None;
        let (mut lo, mut mu) = primal_bound(ctx, st, flow_arc, routed, None);
        for b in &self.bases {
            let (w_lo, w_mu) = primal_bound(ctx, st, flow_arc, routed, Some(b));
            if w_lo > lo {
                (lo, mu, base) = (w_lo, w_mu, Some(b));
            }
        }
        if lo > self.lower {
            self.lower = lo;
            self.lower_from_window = base.is_some();
            if let Some(cap) = self.capture.as_mut() {
                cap.observe_primal(flow_arc, routed, base, mu);
            }
        }
    }

    /// Makes the current accumulators the newest window base, dropping the
    /// oldest once two are held.
    fn snapshot(&mut self, flow_arc: &[f64], routed: &[Vec<f64>]) {
        if self.bases.len() == 2 {
            self.bases.rotate_left(1);
        } else {
            self.bases.push(FlowSnapshot::default());
        }
        if let Some(newest) = self.bases.last_mut() {
            newest.assign(flow_arc, routed, None);
        }
    }
}

/// The feasible lower bound of the flow `flow - base` (the cumulative flow
/// when `base` is `None`, a suffix window otherwise; see the module docs).
/// Returns `(lower, mu)` in the *scaled* demand space; the differences are
/// formed on the fly, never materialised.
fn primal_bound(
    ctx: &RouteCtx<'_>,
    st: &[RouteState],
    flow_arc: &[f64],
    routed: &[Vec<f64>],
    base: Option<&FlowSnapshot>,
) -> (f64, f64) {
    let flow = flow_arc.iter().copied();
    let served = routed.iter().flatten().copied();
    match base {
        None => rescaled_bound(ctx, st, flow, served),
        Some(b) => rescaled_bound(
            ctx,
            st,
            flow.zip(&b.flow).map(|(f, b)| f - b),
            served.zip(&b.served).map(|(r, b)| r - b),
        ),
    }
}

/// Scales a flow (per-arc amounts `flow`, per-commodity served amounts
/// `served`, source-major) down by `mu = min cap/flow` so that no arc exceeds
/// its capacity; the worst-served commodity then determines the concurrent
/// throughput. Returns `(lower, mu)`.
fn rescaled_bound(
    ctx: &RouteCtx<'_>,
    st: &[RouteState],
    flow: impl Iterator<Item = f64>,
    served: impl Iterator<Item = f64>,
) -> (f64, f64) {
    let mut mu = f64::INFINITY;
    for (f, arc) in flow.zip(st) {
        if f > 1e-15 {
            mu = mu.min(arc.cap / f);
        }
    }
    if !mu.is_finite() {
        return (0.0, mu);
    }
    let mut worst = f64::INFINITY;
    for (r, d) in served.zip(ctx.demands.iter().flatten()) {
        worst = worst.min(r / d);
    }
    if worst.is_finite() {
        (worst * mu, mu)
    } else {
        (0.0, mu)
    }
}

/// The dual upper bound `D(l) / alpha(l)` with `alpha(l)` the demand-weighted
/// shortest-path distances under the current lengths, in the *scaled* demand
/// space.
///
/// The potential rows are refreshed first — one reverse Dijkstra per
/// single-destination source's target, at the current lengths — and the next
/// `check_interval` phases search under them. A refreshed row holds exact
/// distances *to* its destination, so a single-destination source's term of
/// `alpha(l)` is `demand × row[src]`, read off with no search of its own.
/// Only multi-destination sources need a shortest-path tree; that sweep is
/// read-only over the lengths, so for larger instances it fans out across
/// threads (each worker leasing its own SSSP workspace from `pool`), with a
/// fixed summation order keeping the result independent of thread count.
fn dual_bound(
    ctx: &RouteCtx<'_>,
    potentials: &mut [f64],
    rev_lens: &mut Vec<f64>,
    mwu: &MwuLengths,
    sssp: &mut SsspWorkspace,
    pool: &SsspPool,
) -> f64 {
    let n = ctx.prob.num_nodes();
    route::refresh_potentials(ctx, mwu.lens(), rev_lens, potentials, sssp, pool);
    let potentials = &*potentials;
    let alpha_of = |sw: &mut SsspWorkspace, si: usize| -> f64 {
        let s = &ctx.prob.sources()[si];
        if ctx.single_dest[si].is_some() {
            return ctx.demands[si][0] * potentials[ctx.pot_rows[si] * n + s.src];
        }
        route::compute_tree(ctx, si, mwu.lens(), sw);
        s.dests
            .iter()
            .enumerate()
            .map(|(j, &(dst, _))| ctx.demands[si][j] * sw.dist(dst))
            .sum()
    };
    let num_sources = ctx.prob.sources().len();
    let alpha: f64 = if (num_sources - ctx.num_single) * ctx.prob.num_arcs() >= PAR_MIN_SWEEP_WORK
        && rayon::current_num_threads() > 1
    {
        // Materialize per-source alphas, then sum sequentially in source
        // order: the thread-count bit-identity contract must not lean on
        // any rayon implementation's `sum()` reduction order (the vendored
        // stand-in happens to be ordered; real rayon's split tree is not).
        let per_source: Vec<f64> = (0..num_sources)
            .into_par_iter()
            .map_init(|| pool.lease(), |sw, si| alpha_of(sw, si))
            .collect();
        per_source.iter().sum()
    } else {
        (0..num_sources).map(|si| alpha_of(sssp, si)).sum()
    };
    mwu.dual_bound(alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_bound_read_off_the_refreshed_rows_equals_the_forward_searches() {
        // The instance of `pooled_sweeps_match_inline_execution_bit_for_bit`
        // (160 single-destination sources × 1,280 arcs, past the fan-out
        // threshold, so the refresh below is pooled at any width above one),
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
        let tables = DemandTables::new(&prob, 1.0);
        let ctx = tables.ctx(&prob, 1.0);
        assert_eq!(ctx.num_single, 160);
        let SolverWorkspace {
            mwu,
            potentials,
            rev_lens,
            sssp,
            sweep_pool,
            ..
        } = &mut ws;
        assert!(mwu.lens().iter().any(|&l| l != mwu.lens()[0]));

        // alpha(l) the way the previous sweep computed it: one forward
        // search per source.
        let mut alpha = 0.0;
        for (s, demands) in prob.sources().iter().zip(ctx.demands) {
            let dst = s.dests[0].0;
            tb_graph::sssp_csr(prob.csr(), s.src, mwu.lens(), Some(&[dst]), sssp);
            alpha += demands[0] * sssp.dist(dst);
        }
        let forward = mwu.dual_bound(alpha);

        let queued_before = rayon::pool::stats().jobs;
        let pooled = dual_bound(&ctx, potentials, rev_lens, mwu, sssp, sweep_pool);
        assert!(rayon::current_num_threads() == 1 || rayon::pool::stats().jobs > queued_before);
        let inline =
            rayon::serial(|| dual_bound(&ctx, potentials, rev_lens, mwu, sssp, sweep_pool));
        assert_eq!(pooled.to_bits(), inline.to_bits());
        assert!(
            forward.is_finite() && (pooled - forward).abs() <= 1e-12 * forward,
            "rows {pooled} vs forward searches {forward}"
        );
    }

    #[test]
    fn snapshots_keep_the_latest_two_older_first() {
        let mut best = BestBounds::new(false);
        for k in 1..=4 {
            best.snapshot(&[k as f64], &[vec![10.0 * k as f64]]);
            let held: Vec<f64> = best.bases.iter().map(|b| b.flow[0]).collect();
            let expect: Vec<f64> = (k.max(2) - 1..=k).map(|x| x as f64).collect();
            assert_eq!(held, expect);
            assert_eq!(best.bases.last().unwrap().served, [10.0 * k as f64]);
        }
    }
}
