//! The per-source routing kernels.
//!
//! Three kernels serve the three TM shapes (see the module docs on
//! [`super`]): the goal-directed single-destination search, the
//! per-destination parent walk ([`route_source_walk`]), and the aggregated
//! bottom-up tree fold for dense destination sets ([`route_source_tree`]).
//! Each routes a source's full demand in place, updating lengths through
//! [`apply_update`] between capacity-limited tree iterations — the classical
//! Fleischer trajectory.
//!
//! Tree computation ([`compute_tree`]) and the goal-direction potential
//! refresh ([`refresh_potentials`]) are shared with the dual bound evaluation
//! in [`super::phase`].

use super::PAR_MIN_SWEEP_WORK;
use crate::instance::FlowProblem;
use crate::lengths::{ArcLengths, MwuLengths};
use rayon::prelude::*;
use tb_graph::{sssp_csr, sssp_csr_goal, SsspPool, SsspWorkspace};

/// Per-arc routing state, interleaved so the walk/update loops touch one
/// cache line per arc instead of separate parallel arrays. Lengths
/// deliberately stay in the dense `MwuLengths` vector: the SSSP relax loop
/// reads *every* arc's length and wants 8 of them per cache line, while only
/// routed-path arcs touch this struct.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct RouteState {
    /// Capacity still available within the current tree iteration.
    pub avail: f64,
    /// Flow placed within the current tree iteration.
    pub used: f64,
    /// Arc capacity.
    pub cap: f64,
}

/// The read-only per-solve context shared by every routing kernel: the
/// instance, the demand tables, and the goal-direction bookkeeping. One
/// instance is built per solve and borrowed everywhere, keeping kernel
/// signatures at "context + what this call mutates".
pub(super) struct RouteCtx<'a> {
    pub prob: &'a FlowProblem,
    /// Pre-scaled demands per source (mirrors `prob.sources()` order).
    pub demands: &'a [Vec<f64>],
    /// Destination node list per source, for early-exit SSSP.
    pub targets: &'a [Vec<usize>],
    /// The destination of each single-destination source.
    pub single_dest: &'a [Option<usize>],
    /// Potential row index per source (`usize::MAX` for multi-dest sources).
    pub pot_rows: &'a [usize],
    /// Number of single-destination sources (= potential rows).
    pub num_single: usize,
    /// Whether goal-directed routing is active for this solve.
    pub goal_enabled: bool,
    /// Tree-reuse slack of the serial kernels (`1 + eps/4`).
    pub reuse_slack: f64,
}

/// The mutable solver state threaded through the routing kernels: lengths,
/// per-arc routing state, accumulated flow, and the scratch buffers. All
/// fields borrow distinct pieces of the [`super::SolverWorkspace`] (or
/// per-solve locals), so the kernels can hold several at once.
pub(super) struct SerialState<'a> {
    pub mwu: &'a mut MwuLengths,
    pub st: &'a mut [RouteState],
    pub flow_arc: &'a mut [f64],
    pub remaining: &'a mut Vec<f64>,
    pub touched: &'a mut Vec<usize>,
    pub path: &'a mut Vec<usize>,
    pub subtree: &'a mut [f64],
    pub cur_len: &'a mut [f64],
    pub sssp: &'a mut SsspWorkspace,
}

/// Process-cumulative counters behind `TB_SOLVER_TRACE` (diagnostics only;
/// relaxed increments cost nothing measurable on the hot path). Each solve
/// snapshots them on entry and prints the per-solve delta; concurrent solves
/// in one process can still bleed counts into each other's deltas, which the
/// single-threaded tuning workflow the trace exists for never does.
pub(super) static TREE_COUNT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
pub(super) static POT_COUNT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Computes the routing tree for source `si` at the lengths `len`: the
/// goal-directed kernel when the source has one destination and a finite
/// potential row, the early-exit Dijkstra otherwise. Read-only over `len`.
pub(super) fn compute_tree(
    ctx: &RouteCtx<'_>,
    si: usize,
    potentials: &[f64],
    len: &[f64],
    sssp: &mut SsspWorkspace,
) {
    let n = ctx.prob.num_nodes();
    let s = &ctx.prob.sources()[si];
    TREE_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    if let (true, Some(dst)) = (ctx.goal_enabled, ctx.single_dest[si]) {
        let row = &potentials[ctx.pot_rows[si] * n..(ctx.pot_rows[si] + 1) * n];
        sssp_csr_goal(ctx.prob.csr(), s.src, len, dst, row, sssp);
    } else {
        // Target bookkeeping only pays when the destination set is a small
        // fraction of the graph; dense sets (all-to-all) settle everything
        // anyway.
        let ts = &ctx.targets[si];
        let early = if ts.len() * 2 < n {
            Some(ts.as_slice())
        } else {
            None
        };
        sssp_csr(ctx.prob.csr(), s.src, len, early, sssp);
    }
}

/// Refreshes the goal-direction potential rows: one full reverse SSSP per
/// single-destination source's target, against the partner-arc length view.
/// Row values are exact reverse distances at refresh time and remain
/// consistent (admissible) as lengths grow. Fans out to the pool for large
/// instances, each worker leasing an SSSP workspace from `pool`; row contents
/// do not depend on the thread count.
pub(super) fn refresh_potentials(
    ctx: &RouteCtx<'_>,
    len: &[f64],
    rev_lens: &mut Vec<f64>,
    potentials: &mut [f64],
    sssp: &mut SsspWorkspace,
    pool: &SsspPool,
) {
    let n = ctx.prob.num_nodes();
    let m = ctx.prob.num_arcs();
    POT_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    // Reverse view: arcs are created in (forward, backward) pairs, so the
    // partner of arc `aid` is `aid ^ 1` and reverse-graph distances are plain
    // distances under the partner's length.
    rev_lens.clear();
    debug_assert!(
        (0..m).step_by(2).all(|aid| {
            let (f, b) = (ctx.prob.arcs()[aid], ctx.prob.arcs()[aid ^ 1]);
            f.from == b.to && f.to == b.from
        }),
        "FlowProblem arcs must come in (forward, backward) pairs for the partner view"
    );
    rev_lens.extend((0..m).map(|aid| len[aid ^ 1]));
    let rev: &[f64] = rev_lens;
    // Rows are handed out in source order; a source's row index from
    // `pot_rows` matches its position in this filtered sequence.
    let jobs: Vec<(&mut [f64], usize)> = potentials
        .chunks_mut(n)
        .zip(ctx.single_dest.iter().filter(|d| d.is_some()))
        .map(|(row, d)| (row, d.expect("filtered to Some")))
        .collect();
    debug_assert_eq!(jobs.len(), ctx.num_single);
    debug_assert!(ctx.pot_rows.iter().filter(|&&r| r != usize::MAX).count() == ctx.num_single);
    if ctx.num_single * m >= PAR_MIN_SWEEP_WORK && rayon::current_num_threads() > 1 {
        let _: Vec<()> = jobs
            .into_par_iter()
            .map_init(
                || pool.lease(),
                |sw, (row, dst)| {
                    sssp_csr(ctx.prob.csr(), dst, rev, None, sw);
                    for (v, slot) in row.iter_mut().enumerate() {
                        *slot = sw.dist(v);
                    }
                },
            )
            .collect();
    } else {
        for (row, dst) in jobs {
            sssp_csr(ctx.prob.csr(), dst, rev, None, sssp);
            for (v, slot) in row.iter_mut().enumerate() {
                *slot = sssp.dist(v);
            }
        }
    }
}

/// The multiplicative-weights update for routing `u` units over arc `aid`:
/// accumulate the flow and grow the arc's length through
/// [`MwuLengths::apply`] (which maintains `D(l)` incrementally). One
/// definition serves both routing kernels, keeping them arithmetically
/// identical.
#[inline]
fn apply_update(mwu: &mut MwuLengths, flow_arc: &mut [f64], aid: usize, u: f64) {
    flow_arc[aid] += u;
    mwu.apply(aid, u);
}

/// In-place routing of one sparse source (per-destination parent walk with
/// optimistic single-pass application and tree reuse under the staleness
/// slack — the classical trajectory). The tree for the source, computed at
/// the current lengths, must already be in `state.sssp`; `state.remaining`
/// must hold the source's remaining demands. Returns `false` when `D(l)`
/// saturated mid-source (the caller breaks the phase loop).
pub(super) fn route_source_walk(
    ctx: &RouteCtx<'_>,
    si: usize,
    potentials: &[f64],
    state: &mut SerialState<'_>,
    routed_si: &mut [f64],
) -> bool {
    let s = &ctx.prob.sources()[si];
    let mut tree_exact = true;
    loop {
        if state.mwu.saturated() {
            return false;
        }
        // Route every destination with remaining demand along the tree, never
        // exceeding any arc's full capacity within this single tree iteration
        // (so each length update factor stays <= 1 + eps).
        let mut progressed = false;
        let mut need_fresh = false;
        {
            let len = state.mwu.lens();
            for (j, &(dst, _)) in s.dests.iter().enumerate() {
                if state.remaining[j] <= 1e-15 {
                    continue;
                }
                if dst == s.src {
                    // A self-demand consumes no capacity.
                    routed_si[j] += state.remaining[j];
                    state.remaining[j] = 0.0;
                    progressed = true;
                    continue;
                }
                let tree_dist = state.sssp.dist(dst);
                debug_assert!(tree_dist.is_finite());
                // Optimistic single-pass walk: apply the full remaining
                // demand while chasing parents (recording the arc ids),
                // tracking the bottleneck as it was *before* this
                // application. If the bottleneck turns out to bind — rare,
                // demands are small against capacities — a linear corrective
                // pass over the recorded arcs removes the excess, so the
                // committed amounts equal the classic
                // `min(remaining, bottleneck)` exactly.
                state.path.clear();
                let f0 = state.remaining[j];
                let mut path_len = 0.0;
                let mut bottleneck = f64::INFINITY;
                let mut cur = dst;
                while cur != s.src {
                    let (p, aid) = state.sssp.parent_unchecked(cur);
                    state.path.push(aid);
                    if !tree_exact {
                        path_len += len[aid];
                    }
                    let a = &mut state.st[aid];
                    if a.used == 0.0 {
                        state.touched.push(aid);
                    }
                    bottleneck = bottleneck.min(a.avail);
                    a.avail -= f0;
                    a.used += f0;
                    cur = p;
                }
                // Reuse rule: `tree_dist` lower-bounds the current shortest
                // distance (lengths are monotone), so within the slack this
                // path is approximately shortest. Past it, undo this
                // application and recompute. Exact (just-computed) trees skip
                // the check — float noise must not re-trigger it.
                if !tree_exact && path_len > ctx.reuse_slack * tree_dist {
                    for &aid in state.path.iter() {
                        let a = &mut state.st[aid];
                        a.avail += f0;
                        a.used -= f0;
                    }
                    need_fresh = true;
                    break;
                }
                let f = f0.min(bottleneck);
                // Commit `min(remaining, bottleneck)` exactly as the classic
                // two-pass scheme would; negligible amounts are rolled back
                // entirely. Stray `touched` entries left with zero `used` are
                // benign in the update loop below.
                let commit = if f > 1e-15 { f } else { 0.0 };
                if commit < f0 {
                    let excess = f0 - commit;
                    for &aid in state.path.iter() {
                        let a = &mut state.st[aid];
                        a.avail += excess;
                        a.used -= excess;
                    }
                }
                if commit == 0.0 {
                    continue;
                }
                state.remaining[j] -= commit;
                routed_si[j] += commit;
                progressed = true;
            }
        }
        // Apply multiplicative length updates for the arcs used in this tree
        // iteration and restore the scratch buffers.
        for &aid in state.touched.iter() {
            apply_update(state.mwu, state.flow_arc, aid, state.st[aid].used);
            let a = &mut state.st[aid];
            a.used = 0.0;
            a.avail = a.cap;
        }
        state.touched.clear();
        if need_fresh {
            compute_tree(ctx, si, potentials, state.mwu.lens(), state.sssp);
            tree_exact = true;
            continue;
        }
        if !progressed || state.remaining.iter().all(|&r| r <= 1e-15) {
            return true;
        }
        // Routing moved the lengths; the tree must pass the staleness check
        // before further reuse.
        tree_exact = false;
    }
}

/// In-place routing of one dense source (aggregated bottom-up tree):
/// instead of chasing parents once per destination (O(sum of path lengths)
/// per tree iteration), fold each node's remaining subtree demand over the
/// settle order in reverse and load every tree arc exactly once. When some
/// arc's aggregate load exceeds its capacity, the whole batch is scaled by
/// the binding `cap/load` ratio and the loop repeats, so no arc exceeds its
/// capacity within one tree iteration and every length-update factor stays
/// <= 1 + eps — the same invariant the per-destination walk maintains.
/// (Persisting these trees across phases behind cheap revalidation was tried
/// and reverted: a phase's average arc utilization is ~1, so lengths drift
/// enough per phase that any slack loose enough to admit reuse measurably
/// slowed the multiplicative-weights convergence — the same trade the
/// phase-blocked stale-tree experiment hit.)
/// Returns `false` when `D(l)` saturated mid-source.
pub(super) fn route_source_tree(
    ctx: &RouteCtx<'_>,
    si: usize,
    potentials: &[f64],
    state: &mut SerialState<'_>,
    routed_si: &mut [f64],
) -> bool {
    let s = &ctx.prob.sources()[si];
    // The caller hands over a tree freshly computed at the current lengths;
    // the apply pass rebuilds `cur_len` top-down before the first staleness
    // check needs it.
    let mut revalidate = false;
    loop {
        if state.mwu.saturated() {
            return false;
        }
        if revalidate {
            // Reuse rule, tree-wide: the previous batch's apply pass left
            // every settled node's *current* tree-path length in `cur_len`
            // (maintained top-down for free while loading arcs); recompute
            // the tree once any destination with remaining demand drifts
            // past the slack. Recorded distances lower-bound current ones
            // (lengths are monotone), so within the slack the tree paths
            // remain approximately shortest — exactly the per-destination
            // reuse argument.
            let stale = s.dests.iter().enumerate().any(|(j, &(dst, _))| {
                state.remaining[j] > 1e-15
                    && state.cur_len[dst] > ctx.reuse_slack * state.sssp.dist(dst)
            });
            if stale {
                compute_tree(ctx, si, potentials, state.mwu.lens(), state.sssp);
            }
        }
        // Deposit remaining demands at their destinations.
        for &v in state.sssp.settle_order() {
            state.subtree[v as usize] = 0.0;
        }
        let mut pending = false;
        for (j, &(dst, _)) in s.dests.iter().enumerate() {
            if state.remaining[j] <= 1e-15 {
                continue;
            }
            if dst == s.src {
                // A self-demand consumes no capacity.
                routed_si[j] += state.remaining[j];
                state.remaining[j] = 0.0;
            } else {
                // Every destination is a target of the tree computation, so
                // it is always settled (early exit stops only after the last
                // target).
                debug_assert!(state.sssp.dist(dst).is_finite());
                state.subtree[dst] += state.remaining[j];
                pending = true;
            }
        }
        if !pending {
            return true;
        }
        // Bottom-up fold: children settle after their parent, so the reverse
        // settle order visits them first and `subtree[v]` is complete — the
        // total remaining demand crossing v's parent arc — when v is visited.
        // Only arcs whose load exceeds capacity can bind, so the `cap/load`
        // divide is confined to them.
        let mut ratio = f64::INFINITY;
        for &v in state.sssp.settle_order().iter().rev() {
            let v = v as usize;
            if v == s.src {
                continue;
            }
            let load = state.subtree[v];
            if load <= 0.0 {
                continue;
            }
            let (p, aid) = state.sssp.parent_unchecked(v);
            state.subtree[p] += load;
            let cap = state.st[aid].cap;
            if load > cap {
                ratio = ratio.min(cap / load);
            }
        }
        let theta = ratio.min(1.0);
        // Apply the (scaled) batch — each tree arc is loaded exactly once,
        // with at most its full capacity — and refresh `cur_len` (the current
        // tree-path lengths) in the same top-down pass, so the next
        // iteration's staleness check needs no extra walk.
        for &v in state.sssp.settle_order() {
            let v = v as usize;
            if v == s.src {
                state.cur_len[v] = 0.0;
                continue;
            }
            let (p, aid) = state.sssp.parent_unchecked(v);
            let load = state.subtree[v];
            if load > 0.0 {
                apply_update(state.mwu, state.flow_arc, aid, theta * load);
            }
            state.cur_len[v] = state.cur_len[p] + state.mwu.len_of(aid);
        }
        for (j, r) in state.remaining.iter_mut().enumerate() {
            if *r > 1e-15 {
                let commit = theta * *r;
                routed_si[j] += commit;
                *r -= commit;
            }
        }
        if theta == 1.0 {
            return true; // every remaining demand fully routed
        }
        // A capacity-limited batch saturated the binding arc (its length grew
        // by the full 1 + eps factor); revalidate the tree before further
        // reuse.
        revalidate = true;
    }
}
