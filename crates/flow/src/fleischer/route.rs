//! The per-solve context and the per-source routing kernels.
//!
//! [`RouteCtx`] owns the demand tables of one solve; the kernels read it and
//! run in the [`SolverWorkspace`] they are handed. Two kernels, chosen by the
//! source's destination count (see the module docs on [`super`]): the
//! known-path loop over goal-directed searches for a source with one
//! destination ([`route_source_single`]), and the aggregated bottom-up tree
//! fold for a source with several ([`route_source_tree`]). Each routes a
//! source's full demand in place, running its own searches, updating lengths
//! and flows through [`apply_update`] between capacity-limited steps — the
//! classical Fleischer trajectory — and counting its work in the workspace's
//! [`SolveStats`](super::SolveStats).
//!
//! Tree computation ([`compute_tree`]) and the goal-direction potential rows
//! ([`PotentialRows`]) are shared with the dual bound evaluation in
//! [`super::phase`].

use super::{sweep_fan_out, SolverWorkspace};
use crate::instance::FlowProblem;
use crate::lengths::MwuLengths;
use tb_graph::{
    sssp_csr, sssp_csr_by, sssp_csr_goal, sssp_csr_repair_by, sssp_csr_repair_own_by, SsspWorkspace,
};

/// The read-only per-solve context shared by every routing kernel: the
/// instance, the demand tables, and the goal-direction bookkeeping. One is
/// built per solve and borrowed everywhere, keeping kernel signatures at
/// "context, what the call is about, the workspace it runs in".
pub(super) struct RouteCtx<'a> {
    pub prob: &'a FlowProblem,
    /// Pre-scaled demands per source (mirrors `prob.sources()` order).
    pub demands: Vec<Vec<f64>>,
    /// Destination node list per source, for early-exit SSSP.
    pub targets: Vec<Vec<usize>>,
    /// The destination of each single-destination source.
    pub single_dest: Vec<Option<usize>>,
    /// Potential row index per source (`usize::MAX` for multi-dest sources).
    pub pot_rows: Vec<usize>,
    /// Number of single-destination sources (= potential rows).
    pub num_single: usize,
    /// Reuse slack of the kernels (`1 + eps/4`): a tree or known path is
    /// routed on again while its current length stays within this factor of
    /// a lower bound on the current distance.
    pub reuse_slack: f64,
}

impl<'a> RouteCtx<'a> {
    /// The context of `prob` with every demand multiplied by `scale`.
    pub(super) fn new(prob: &'a FlowProblem, scale: f64, reuse_slack: f64) -> Self {
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
        RouteCtx {
            prob,
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
            reuse_slack,
        }
    }
}

/// Paths kept per single-destination source. Measured on the `/1/LM` pass of
/// `fig05_06`: 8 slots answer 50 % of the in-turn re-searches, 16 answer
/// 64 %, 64 no more.
const KNOWN_PATHS: usize = 16;

/// The paths each single-destination source's own searches have returned
/// (arc-id lists, dst-to-src order; arc ids fit `u32`, which building the
/// problem's `CsrGraph` asserts), at most [`KNOWN_PATHS`] per source,
/// least recently routed evicted first. Kept across the phases of one
/// solve; [`KnownPaths::reset`] empties it in O(sources), keeping the
/// allocations.
#[derive(Debug, Clone, Default)]
pub(super) struct KnownPaths {
    /// `KNOWN_PATHS` slots per potential row, most recently routed first.
    slots: Vec<Vec<u32>>,
    /// Filled slots per potential row.
    filled: Vec<usize>,
    /// The path of the search being recorded, before it is known to be new.
    walked: Vec<u32>,
}

impl KnownPaths {
    /// Forgets every path and makes room for `rows` sources.
    fn reset(&mut self, rows: usize) {
        self.filled.clear();
        self.filled.resize(rows, 0);
        if self.slots.len() < rows * KNOWN_PATHS {
            self.slots.resize_with(rows * KNOWN_PATHS, Vec::new);
        }
    }

    /// The filled slots of `row`, most recently routed first.
    fn paths(&self, row: usize) -> &[Vec<u32>] {
        &self.slots[row * KNOWN_PATHS..row * KNOWN_PATHS + self.filled[row]]
    }

    /// Moves slot `k` of `row` to the front and returns its path.
    fn promote(&mut self, row: usize, k: usize) -> &[u32] {
        let base = row * KNOWN_PATHS;
        self.slots[base..=base + k].rotate_right(1);
        &self.slots[base]
    }

    /// The shortest known path of `row` under `len` if it is no longer than
    /// `bound`, moved to the front; the earlier slot wins a tie. On a miss,
    /// the length of that shortest path (infinite when `row` has none).
    fn shortest_within(&mut self, row: usize, len: &[f64], bound: f64) -> Result<&[u32], f64> {
        let (shortest, k) = self.shortest(row, len);
        if shortest <= bound {
            Ok(self.promote(row, k))
        } else {
            Err(shortest)
        }
    }

    /// The length under `len` of `row`'s shortest known path (infinite when
    /// it has none) and its slot; the earlier slot wins a tie.
    fn shortest(&self, row: usize, len: &[f64]) -> (f64, usize) {
        let mut best = (f64::INFINITY, 0);
        for (k, path) in self.paths(row).iter().enumerate() {
            let l: f64 = path.iter().map(|&aid| len[aid as usize]).sum();
            if l < best.0 {
                best = (l, k);
            }
        }
        best
    }

    /// Records the `src -> dst` path of the search in `sssp` as `row`'s most
    /// recently routed path (evicting the least recent one when `row` is
    /// full and the path is new) and returns it.
    fn record(&mut self, row: usize, sssp: &SsspWorkspace, src: usize, dst: usize) -> &[u32] {
        self.walked.clear();
        let mut cur = dst;
        while cur != src {
            let (p, aid) = sssp.parent_unchecked(cur);
            self.walked.push(aid as u32);
            cur = p;
        }
        let k = match self.paths(row).iter().position(|p| *p == self.walked) {
            Some(k) => k,
            None => {
                let k = self.filled[row].min(KNOWN_PATHS - 1);
                self.filled[row] = k + 1;
                std::mem::swap(&mut self.slots[row * KNOWN_PATHS + k], &mut self.walked);
                k
            }
        };
        self.promote(row, k)
    }
}

/// Every path the solve holds for its commodities: the known paths of the
/// single-destination sources, and for every multi-destination source the
/// tree of its latest routing search (settle order with each node's parent
/// arc, root first; 8 bytes per settled node), which its next tree is
/// repaired from (see [`compute_tree`]). Any such path's length under
/// some lengths is at least the commodity's distance there, which is what
/// [`HeldPaths::alpha`] adds up. Emptied per solve by [`HeldPaths::reset`],
/// keeping the allocations.
#[derive(Debug, Clone, Default)]
pub(super) struct HeldPaths {
    pub known: KnownPaths,
    /// `[node, parent arc]` in settle order per source (the root's arc is
    /// `u32::MAX`); empty for single-destination sources.
    pub trees: Vec<Vec<[u32; 2]>>,
}

impl HeldPaths {
    /// Forgets every path and makes room for `ctx`'s sources.
    pub(super) fn reset(&mut self, ctx: &RouteCtx<'_>) {
        self.known.reset(ctx.num_single);
        self.trees.resize_with(ctx.prob.sources().len(), Vec::new);
        self.trees.iter_mut().for_each(Vec::clear);
    }

    /// The tree held for source `si`: `[node, parent arc]` in settle order,
    /// empty if it holds none.
    pub(super) fn tree(&self, si: usize) -> &[[u32; 2]] {
        self.trees.get(si).map_or(&[], Vec::as_slice)
    }

    /// Keeps the tree of `sssp`'s last run as source `si`'s.
    pub(super) fn hold_tree(&mut self, si: usize, sssp: &SsspWorkspace) {
        let tree = &mut self.trees[si];
        tree.clear();
        tree.extend(sssp.settle_order().iter().map(|&v| {
            let arc = sssp
                .parent(v as usize)
                .map_or(u32::MAX, |(_, aid)| aid as u32);
            [v, arc]
        }));
    }

    /// An upper bound on `alpha(len)`: every commodity's demand times the
    /// length under `len` of a path held for it — the held tree's path of a
    /// multi-destination source, the shortest known path of a
    /// single-destination source, or that source's row in `rows` if it is
    /// not dense (the caller passes rows only when it has just re-derived
    /// those at `len`, so they are exact). Infinite while some source holds
    /// nothing. `node_len` is `num_nodes` of scratch.
    pub(super) fn alpha(
        &self,
        ctx: &RouteCtx<'_>,
        len: &[f64],
        rows: Option<&PotentialRows>,
        node_len: &mut [f64],
    ) -> f64 {
        let n = ctx.prob.num_nodes();
        let arcs = ctx.prob.arcs();
        let mut alpha = 0.0;
        for (si, s) in ctx.prob.sources().iter().enumerate() {
            alpha += match ctx.single_dest[si] {
                Some(dst) if dst == s.src => 0.0,
                Some(_) => {
                    let row = ctx.pot_rows[si];
                    let dist = match rows {
                        Some(rows) if !rows.dense[row] => rows.row(row, n)[s.src],
                        _ => self.known.shortest(row, len).0,
                    };
                    ctx.demands[si][0] * dist
                }
                None => {
                    // Parents precede children in settle order, and every
                    // destination is in the tree (the search stopped only
                    // after its last target settled).
                    let Some((&[root, _], rest)) = self.trees[si].split_first() else {
                        return f64::INFINITY;
                    };
                    node_len[root as usize] = 0.0;
                    for &[v, aid] in rest {
                        let from = arcs[aid as usize].from;
                        node_len[v as usize] = node_len[from] + len[aid as usize];
                    }
                    s.dests
                        .iter()
                        .zip(&ctx.demands[si])
                        .map(|(&(dst, _), d)| d * node_len[dst])
                        .sum()
                }
            };
        }
        alpha
    }
}

/// What a tree computation may repair instead of running Dijkstra (see
/// [`compute_tree`]).
#[derive(Debug, Clone, Copy)]
pub(super) enum TreeSeed<'a> {
    /// A tree [`HeldPaths`] keeps for the source; empty when it holds none.
    Held(&'a [[u32; 2]]),
    /// The tree of the workspace's last run, a full sweep from the same
    /// source.
    Own,
}

/// Computes the shortest-path tree of source `si` at the lengths `len`.
/// Read-only over `len`. Multi-destination sources route on it (and hold
/// the last one, see [`HeldPaths`]) and take their dual-bound term from it;
/// single-destination sources search inside [`route_source_single`] and read
/// their last-iterate dual-bound term off the potential rows, so they come
/// here only for the averaged dual bound, where no rows exist.
///
/// A source with fewer destinations than half the graph runs an early-exit
/// Dijkstra over its destination set. Any other source settles the whole
/// graph, and if `seed` has a tree for it, that tree is repaired
/// ([`tb_graph::sssp_csr_repair_by`]) rather than recomputed: the same
/// settle order, distances and parents, bit for bit, since between two
/// turns of a source only a handful of its tree's parents change. That cut
/// the tree time of the `DCell/3` all-to-all cell by 37 %; on degree-10 to
/// 14 graphs it about breaks even, the one pass over every arc being most
/// of Dijkstra's work there too. Returns whether it repaired.
pub(super) fn compute_tree(
    ctx: &RouteCtx<'_>,
    si: usize,
    len: &[f64],
    seed: TreeSeed<'_>,
    sssp: &mut SsspWorkspace,
) -> bool {
    let csr = ctx.prob.csr();
    let src = ctx.prob.sources()[si].src;
    if !settles_all(ctx, si) {
        sssp_csr(csr, src, len, Some(&ctx.targets[si]), sssp);
        return false;
    }
    match seed {
        TreeSeed::Held([]) => {
            sssp_csr(csr, src, len, None, sssp);
            return false;
        }
        TreeSeed::Held(tree) => {
            sssp_csr_repair_by(csr, src, |aid| len[aid], tree.iter().map(|e| e[0]), sssp)
        }
        TreeSeed::Own => sssp_csr_repair_own_by(csr, src, |aid| len[aid], sssp),
    }
    #[cfg(test)]
    tests::audit_repaired_tree(ctx, si, len, sssp);
    true
}

/// Whether source `si`'s tree computations settle the whole graph: target
/// bookkeeping only pays when the destination set is a small fraction of
/// the graph, and dense sets (all-to-all) settle everything anyway.
fn settles_all(ctx: &RouteCtx<'_>, si: usize) -> bool {
    ctx.targets[si].len() * 2 >= ctx.prob.num_nodes()
}

/// [`compute_tree`] at the current lengths into the routing workspace,
/// counted: the first search of a turn repairs the tree the source held
/// since its last turn, a later one the turn's own.
fn search_tree(ctx: &RouteCtx<'_>, si: usize, first: bool, ws: &mut SolverWorkspace) {
    ws.stats.searches += 1;
    let seed = if first {
        TreeSeed::Held(ws.held.tree(si))
    } else {
        TreeSeed::Own
    };
    if compute_tree(ctx, si, ws.mwu.lens(), seed, &mut ws.sssp) {
        ws.stats.repairs += 1;
    }
}

/// The goal-direction potential rows: for every single-destination source,
/// the reverse distances to its destination at the lengths of the row's
/// latest derivation — exact then, and consistent (admissible) as lengths
/// grow. Every bound evaluation re-derives the rows that are not dense,
/// which the routing of the next phases reads. A *dense* row is re-derived
/// at the start of each of its source's turns (see [`DENSE_SETTLES`]), so
/// only the dual bound reads it between turns: an evaluation re-derives it
/// only when it runs its last-iterate sweep, which reads each source's
/// distance off its row. Rows and flags are reset per solve by
/// [`PotentialRows::reset`], keeping the allocations.
#[derive(Debug, Clone, Default)]
pub(super) struct PotentialRows {
    /// `num_nodes` values per row, rows in source order.
    values: Vec<f64>,
    /// Whether the row is dense.
    dense: Vec<bool>,
}

/// A row turns dense once the goal-directed searches of one of its source's
/// turns settle, on average, more than `1 / DENSE_SETTLES` of the graph: the
/// row has gone so stale that one reverse Dijkstra at the start of every
/// later turn costs less than the searches it makes exact. The rule and the
/// constant were chosen on the `/RM(1)` and `/1/LM` passes of `fig05_06` at
/// seed 1 (wall-clock, best of three runs on a 2-core x86 box; this rule:
/// 2.97 s and 0.63 s): re-deriving every row every turn costs `/RM(1)` +24 %
/// (+17 % over no dense rows at all) and `/1/LM` +5 %; a quarter or three
/// quarters of the graph instead of half cost 2–9 % on both; re-deriving
/// once the settles since the row's last derivation exceed the graph ties on
/// `/RM(1)` and costs `/1/LM` +9 %.
const DENSE_SETTLES: usize = 2;

impl PotentialRows {
    /// Makes room for `rows` rows over `n` nodes, none dense.
    pub(super) fn reset(&mut self, rows: usize, n: usize) {
        self.values.clear();
        self.values.resize(rows * n, f64::INFINITY);
        self.dense.clear();
        self.dense.resize(rows, false);
    }

    /// Row `row` over `n` nodes.
    pub(super) fn row(&self, row: usize, n: usize) -> &[f64] {
        &self.values[row * n..(row + 1) * n]
    }

    /// Re-derives, at the lengths `len`, every row that is dense if `dense`
    /// is set and every row that is not otherwise. Fans out to the pool for
    /// large instances, each block of rows on an SSSP workspace of its own;
    /// row contents do not depend on the thread count. A no-op when no row
    /// qualifies.
    pub(super) fn refresh(
        &mut self,
        ctx: &RouteCtx<'_>,
        len: &[f64],
        dense: bool,
        sssp: &mut SsspWorkspace,
    ) {
        let rows = self.dense.iter().filter(|&&d| d == dense).count();
        if rows == 0 {
            return;
        }
        let n = ctx.prob.num_nodes();
        debug_assert!(
            (0..ctx.prob.num_arcs()).step_by(2).all(|aid| {
                let (f, b) = (ctx.prob.arcs()[aid], ctx.prob.arcs()[aid ^ 1]);
                f.from == b.to && f.to == b.from
            }),
            "FlowProblem arcs must come in (forward, backward) pairs for the partner view"
        );
        // Rows are handed out in source order; a source's row index from
        // `pot_rows` matches its position in this filtered sequence.
        let jobs = self
            .values
            .chunks_mut(n)
            .zip(ctx.single_dest.iter().filter_map(|&d| d))
            .zip(&self.dense)
            .filter_map(|(job, &d)| (d == dense).then_some(job));
        debug_assert!(ctx.pot_rows.iter().filter(|&&r| r != usize::MAX).count() == ctx.num_single);
        sweep_fan_out(rows * ctx.prob.num_arcs(), jobs, sssp, |sw, (row, dst)| {
            derive_row(ctx, len, dst, row, sw)
        });
    }
}

/// Writes the reverse distances to `dst` at the lengths `len` into `row`:
/// one full Dijkstra from `dst` over the partner arcs. `FlowProblem` creates
/// arcs in (forward, backward) pairs, so the partner of arc `aid` is
/// `aid ^ 1` and reverse-graph distances are plain distances under the
/// partner's length.
fn derive_row(
    ctx: &RouteCtx<'_>,
    len: &[f64],
    dst: usize,
    row: &mut [f64],
    sssp: &mut SsspWorkspace,
) {
    sssp_csr_by(ctx.prob.csr(), dst, |aid| len[aid ^ 1], None, sssp);
    for (v, slot) in row.iter_mut().enumerate() {
        *slot = sssp.dist(v);
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

/// In-place routing of one single-destination source: one path per step, so
/// a step needs no per-arc load bookkeeping — it routes
/// `min(remaining, bottleneck capacity)` and every length-update factor stays
/// <= 1 + eps. The turn's first step searches (goal-directed, exact). After a
/// capacity-limited step the source's known paths are summed under the
/// current lengths, and the shortest is routed on if it is within
/// `reuse_slack` of `D`, the distance the turn's latest search returned:
/// lengths are monotone, so `D` lower-bounds the current distance and the
/// path is `(1 + eps/4)`-shortest — the reuse argument of the tree kernels,
/// applied to every path this source's searches have found rather than the
/// last tree's. Only when no known path qualifies does the kernel search
/// again, which raises `D` and records the new path; the search queues
/// nothing keyed past the shortest known path's current length, which
/// changes none of its results. A dense potential row
/// is re-derived before the turn's first step, and a turn whose searches
/// settled more than `1 / DENSE_SETTLES` of the graph on average makes the
/// row dense. Returns `false` when `D(l)` saturated mid-source (the caller
/// breaks the phase loop).
pub(super) fn route_source_single(ctx: &RouteCtx<'_>, si: usize, ws: &mut SolverWorkspace) -> bool {
    let n = ctx.prob.num_nodes();
    let s = &ctx.prob.sources()[si];
    let dst = s.dests[0].0;
    let mut remaining = ctx.demands[si][0];
    let routed = &mut ws.routed[si][0];
    if dst == s.src {
        // A self-demand consumes no capacity.
        *routed += remaining;
        return true;
    }
    let row = ctx.pot_rows[si];
    if ws.potentials.dense[row] {
        ws.stats.row_refreshes += 1;
        let values = &mut ws.potentials.values[row * n..(row + 1) * n];
        derive_row(ctx, ws.mwu.lens(), dst, values, &mut ws.sssp);
    }
    let potential = ws.potentials.row(row, n);
    // `reuse_slack × D`; nothing is reusable before the turn's first search.
    let mut reuse_bound = f64::NEG_INFINITY;
    let (mut searches, mut settles) = (0, 0);
    let ok = 'turn: {
        while remaining > 1e-15 {
            if ws.mwu.saturated() {
                break 'turn false;
            }
            let len = ws.mwu.lens();
            let path = match ws.held.known.shortest_within(row, len, reuse_bound) {
                Ok(path) => {
                    ws.stats.path_reuses += 1;
                    path
                }
                Err(shortest) => {
                    // The shortest known path bounds the distance, so the
                    // search never queues past it (the margin covers the
                    // different summation order; see `sssp_csr_goal`).
                    let bound = shortest * (1.0 + 1e-9);
                    sssp_csr_goal(
                        ctx.prob.csr(),
                        s.src,
                        len,
                        dst,
                        potential,
                        bound,
                        &mut ws.sssp,
                    );
                    debug_assert!(ws.sssp.dist(dst).is_finite());
                    searches += 1;
                    settles += ws.sssp.settled_count();
                    reuse_bound = ctx.reuse_slack * ws.sssp.dist(dst);
                    ws.held.known.record(row, &ws.sssp, s.src, dst)
                }
            };
            #[cfg(test)]
            tests::audit_routed_path(ctx, si, len, path);
            let bottleneck = path
                .iter()
                .map(|&aid| ws.mwu.cap(aid as usize))
                .fold(f64::INFINITY, f64::min);
            let f = remaining.min(bottleneck);
            if f <= 1e-15 {
                break 'turn true; // negligible amounts are not routed
            }
            for &aid in path {
                apply_update(&mut ws.mwu, &mut ws.flow_arc, aid as usize, f);
            }
            remaining -= f;
            *routed += f;
        }
        true
    };
    ws.stats.searches += searches;
    ws.stats.settles += settles;
    if DENSE_SETTLES * settles > n * searches {
        ws.potentials.dense[row] = true;
    }
    ok
}

/// In-place routing of one source with several destinations (aggregated
/// bottom-up tree): instead of chasing parents once per destination (O(sum
/// of path lengths) per tree iteration), fold each node's remaining subtree
/// demand over the settle order in reverse and load every tree arc exactly
/// once. When some arc's aggregate load exceeds its capacity, the whole
/// batch is scaled by the binding `cap/load` ratio and the loop repeats, so
/// no arc exceeds its capacity within one tree iteration and every
/// length-update factor stays <= 1 + eps. Routing on the tree held since
/// the source's previous turn without re-deriving it measurably slowed the
/// multiplicative-weights convergence: a phase's average arc utilization is
/// ~1, so lengths drift enough per phase that any slack loose enough to admit
/// that reuse costs phases. The held tree only seeds the repair of the turn's
/// first tree. Returns `false` when `D(l)` saturated mid-source.
pub(super) fn route_source_tree(ctx: &RouteCtx<'_>, si: usize, ws: &mut SolverWorkspace) -> bool {
    let s = &ctx.prob.sources()[si];
    ws.remaining.clear();
    ws.remaining.extend_from_slice(&ctx.demands[si]);
    // The first batch routes on a tree computed at the current lengths,
    // repaired from the one the source held since its last turn; if it is
    // capacity-limited, `cur_len` is rebuilt before the first staleness
    // check needs it.
    search_tree(ctx, si, true, ws);
    let mut revalidate = false;
    loop {
        if ws.mwu.saturated() {
            return false;
        }
        if revalidate {
            // Reuse rule, tree-wide: the previous batch left every settled
            // node's *current* tree-path length in `cur_len`; recompute
            // the tree once any destination with remaining demand drifts
            // past the slack. Recorded distances lower-bound current ones
            // (lengths are monotone), so within the slack the tree paths
            // remain approximately shortest — the reuse argument of the
            // known-path loop, applied to every destination at once.
            let stale = s.dests.iter().enumerate().any(|(j, &(dst, _))| {
                ws.remaining[j] > 1e-15 && ws.cur_len[dst] > ctx.reuse_slack * ws.sssp.dist(dst)
            });
            if stale {
                search_tree(ctx, si, false, ws);
            }
        }
        // Deposit remaining demands at their destinations.
        for &v in ws.sssp.settle_order() {
            ws.subtree[v as usize] = 0.0;
        }
        let mut pending = false;
        for (j, &(dst, _)) in s.dests.iter().enumerate() {
            if ws.remaining[j] <= 1e-15 {
                continue;
            }
            if dst == s.src {
                // A self-demand consumes no capacity.
                ws.routed[si][j] += ws.remaining[j];
                ws.remaining[j] = 0.0;
            } else {
                // Every destination is a target of the tree computation, so
                // it is always settled (early exit stops only after the last
                // target).
                debug_assert!(ws.sssp.dist(dst).is_finite());
                ws.subtree[dst] += ws.remaining[j];
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
        for &v in ws.sssp.settle_order().iter().rev() {
            let v = v as usize;
            if v == s.src {
                continue;
            }
            let load = ws.subtree[v];
            if load <= 0.0 {
                continue;
            }
            let (p, aid) = ws.sssp.parent_unchecked(v);
            ws.subtree[p] += load;
            let cap = ws.mwu.cap(aid);
            if load > cap {
                ratio = ratio.min(cap / load);
            }
        }
        let theta = ratio.min(1.0);
        // Apply the (scaled) batch — each tree arc is loaded exactly once,
        // with at most its full capacity.
        for &v in ws.sssp.settle_order() {
            let v = v as usize;
            let load = ws.subtree[v];
            if v != s.src && load > 0.0 {
                let (_, aid) = ws.sssp.parent_unchecked(v);
                apply_update(&mut ws.mwu, &mut ws.flow_arc, aid, theta * load);
            }
        }
        for (r, routed) in ws.remaining.iter_mut().zip(&mut ws.routed[si]) {
            if *r > 1e-15 {
                let commit = theta * *r;
                *routed += commit;
                *r -= commit;
            }
        }
        if theta == 1.0 {
            return true; // every remaining demand fully routed
        }
        // A capacity-limited batch saturated the binding arc (its length grew
        // by the full 1 + eps factor); revalidate the tree before further
        // reuse, against the current tree-path lengths, derived top-down.
        for &v in ws.sssp.settle_order() {
            let v = v as usize;
            ws.cur_len[v] = if v == s.src {
                0.0
            } else {
                let (p, aid) = ws.sssp.parent_unchecked(v);
                ws.cur_len[p] + ws.mwu.lens()[aid]
            };
        }
        revalidate = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleischer::{FleischerConfig, FleischerSolver, SolverWorkspace};
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tb_topology::families::Scale;
    use tb_topology::{hypercube::hypercube, jellyfish::jellyfish, Family};
    use tb_traffic::synthetic::{longest_matching, random_permutation};
    use tb_traffic::TrafficMatrix;

    thread_local! {
        static AUDIT_SSSP: RefCell<SsspWorkspace> = RefCell::default();
        static AUDITED: Cell<usize> = const { Cell::new(0) };
    }

    /// Repaired trees audited so far, on any thread (the dual sweeps repair
    /// on pool workers).
    static AUDITED_TREES: AtomicUsize = AtomicUsize::new(0);

    /// The test-build hook of [`compute_tree`]: `sssp` holds a tree of source
    /// `si` repaired to the lengths `len`. An independent plain Dijkstra (its
    /// own workspace) must settle the same nodes in the same order, with the
    /// same distance bits and parents.
    pub(super) fn audit_repaired_tree(
        ctx: &RouteCtx<'_>,
        si: usize,
        len: &[f64],
        sssp: &SsspWorkspace,
    ) {
        let n = ctx.prob.num_nodes();
        let src = ctx.prob.sources()[si].src;
        AUDIT_SSSP.with_borrow_mut(|ws| {
            sssp_csr(ctx.prob.csr(), src, len, None, ws);
            assert_eq!(
                sssp.settle_order(),
                ws.settle_order(),
                "source {si}: repaired settle order"
            );
            for v in 0..n {
                assert_eq!(
                    (sssp.dist(v).to_bits(), sssp.parent(v)),
                    (ws.dist(v).to_bits(), ws.parent(v)),
                    "source {si}: node {v} of the repaired tree"
                );
            }
        });
        AUDITED_TREES.fetch_add(1, Ordering::Relaxed);
    }

    #[test]
    fn every_repaired_tree_is_the_dijkstra_tree_bit_for_bit() {
        // All-to-all on three ladder rungs the `/A2A` pass solves (the check
        // itself is `audit_repaired_tree`, called on every repair of every
        // solve of this crate's unit tests, in routing and in the dual
        // sweeps alike), plus a degree-two random matching, whose sources
        // have fewer destinations than half the graph and never repair.
        let solve = |topo: &tb_topology::Topology, tm: &TrafficMatrix| {
            let (_, stats, _) = FleischerSolver::new(FleischerConfig::fast()).solve_in(
                &topo.graph,
                tm,
                &mut SolverWorkspace::new(),
                false,
            );
            assert!(stats.converged, "{stats:?}");
            assert!(stats.repairs < stats.searches, "{stats:?}");
            stats.repairs
        };
        for (family, rung) in [(Family::DCell, 2), (Family::BCube, 2), (Family::HyperX, 1)] {
            let topo = family
                .ladder_instance(Scale::Small, 1, rung)
                .expect("ladder rung builds");
            let tm = tb_traffic::synthetic::all_to_all(&topo.servers);
            assert!(solve(&topo, &tm) > 0, "{family:?}/{rung}: no repair");
        }
        let topo = jellyfish(24, 4, 1, 3);
        let tm = tb_traffic::synthetic::random_matching(&topo.servers, 2, 5);
        assert_eq!(solve(&topo, &tm), 0);
        assert!(
            AUDITED_TREES.load(Ordering::Relaxed) > 0,
            "the audit hook did not run"
        );
    }

    /// The test-build hook of [`route_source_single`]: `path` is about to be
    /// routed under `len`. It must be a `src -> dst` path of source `si`
    /// within `reuse_slack` of the true distance, which an independent plain
    /// Dijkstra (no potentials, its own workspace) supplies.
    pub(super) fn audit_routed_path(ctx: &RouteCtx<'_>, si: usize, len: &[f64], path: &[u32]) {
        let s = &ctx.prob.sources()[si];
        let dst = s.dests[0].0;
        let mut cur = dst;
        for &aid in path {
            let arc = ctx.prob.arcs()[aid as usize];
            assert_eq!(
                arc.to, cur,
                "source {si}: arc {aid} does not continue the path"
            );
            cur = arc.from;
        }
        assert_eq!(
            cur, s.src,
            "source {si}: the path does not start at the source"
        );
        let routed: f64 = path.iter().map(|&aid| len[aid as usize]).sum();
        let exact = AUDIT_SSSP.with_borrow_mut(|ws| {
            sssp_csr(ctx.prob.csr(), s.src, len, Some(&[dst]), ws);
            ws.dist(dst)
        });
        assert!(
            routed <= ctx.reuse_slack * exact * (1.0 + 1e-12),
            "source {si}: routed on a path of length {routed}, shortest is {exact} (slack {})",
            ctx.reuse_slack
        );
        AUDITED.set(AUDITED.get() + 1);
    }

    #[test]
    fn every_routed_path_is_within_the_reuse_slack_of_the_true_distance() {
        // The single-destination instances of `tests/solver_regression.rs`'s
        // mix at the three stock configurations, plus the cell the known-path
        // store was sized on, `HyperX/1/LM` as the sweep solves it. The check
        // itself is `audit_routed_path`, called on every step of every solve
        // of this crate's unit tests; here it must have seen reused paths.
        let mut reuses = 0;
        let mut solve = |cfg: FleischerConfig, topo: &tb_topology::Topology, tm: &TrafficMatrix| {
            let (_, stats, _) = FleischerSolver::new(cfg).solve_in(
                &topo.graph,
                tm,
                &mut SolverWorkspace::new(),
                false,
            );
            assert!(stats.converged, "{stats:?}");
            reuses += stats.path_reuses;
        };
        for topo in [
            hypercube(3, 1),
            hypercube(4, 1),
            jellyfish(10, 3, 1, 7),
            jellyfish(12, 4, 1, 11),
        ] {
            for tm in [
                longest_matching(&topo.graph, &topo.servers, true),
                random_permutation(&topo.servers, 3),
            ] {
                for cfg in [
                    FleischerConfig::fast(),
                    FleischerConfig::default(),
                    FleischerConfig::precise(),
                ] {
                    solve(cfg, &topo, &tm);
                }
            }
        }
        let hyperx = Family::HyperX
            .ladder_instance(Scale::Small, 1, 1)
            .expect("ladder rung builds");
        let tm = longest_matching(&hyperx.graph, &hyperx.servers, true);
        solve(FleischerConfig::fast(), &hyperx, &tm);
        assert!(reuses > 0, "no step reused a known path");
        assert!(AUDITED.get() > reuses, "the audit hook did not run");
    }

    #[test]
    fn known_paths_evict_the_least_recently_routed() {
        // A two-node graph with KNOWN_PATHS + 1 parallel arcs: each search
        // under lengths that favour a different arc returns a new path.
        let arcs = KNOWN_PATHS + 1;
        let csr = tb_graph::CsrGraph::from_directed_arcs(2, (0..arcs).map(|aid| (0, 1, aid)));
        let mut sssp = SsspWorkspace::new();
        let mut known = KnownPaths::default();
        known.reset(1);
        let mut search = |known: &mut KnownPaths, favoured: usize| {
            let len: Vec<f64> = (0..arcs)
                .map(|a| if a == favoured { 1.0 } else { 2.0 })
                .collect();
            sssp_csr(&csr, 0, &len, Some(&[1]), &mut sssp);
            known.record(0, &sssp, 0, 1).to_vec()
        };
        for aid in 0..KNOWN_PATHS {
            assert_eq!(search(&mut known, aid), [aid as u32]);
        }
        // Searching a known path again stores no duplicate; it only becomes
        // the most recent one.
        assert_eq!(search(&mut known, 0), [0]);
        assert_eq!(known.paths(0).len(), KNOWN_PATHS);
        assert_eq!(known.paths(0)[0], [0]);
        // A new path evicts arc 1's, now the least recently routed.
        assert_eq!(search(&mut known, KNOWN_PATHS), [KNOWN_PATHS as u32]);
        assert_eq!(known.paths(0).len(), KNOWN_PATHS);
        assert!(known.paths(0).iter().all(|p| *p != [1]));
        // The shortest known path is picked only within the bound.
        let len: Vec<f64> = (0..arcs).map(|a| 3.0 + a as f64).collect();
        // A miss reports the shortest length, infinite with no path.
        assert_eq!(known.shortest_within(0, &len, 2.9), Err(3.0));
        assert_eq!(known.shortest_within(0, &len, 3.0), Ok(&[0u32][..]));
        known.reset(1);
        assert!(known.paths(0).is_empty());
        assert_eq!(known.shortest_within(0, &len, 3.0), Err(f64::INFINITY));
    }
}
