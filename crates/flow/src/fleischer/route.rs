//! The per-solve context and the per-source routing kernels.
//!
//! [`RouteCtx`] owns the demand tables of one solve; the kernels read it and
//! run in the solve's `SolverWorkspace`. Two kernels, chosen by the
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

use super::SolverWorkspace;
use crate::instance::FlowProblem;
use crate::lengths::MwuLengths;
use tb_graph::{sssp_csr, sssp_csr_by, sssp_csr_goal, sssp_csr_repair_by, SsspWorkspace};

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
    /// The demand scale `demands` carry.
    pub scale: f64,
    /// Per node, `(destination, scaled demand)` of every commodity it sends,
    /// self-demands left out: with `entering`, what a node brings to the
    /// crossing demands of a cut it joins (see `super::cut`).
    pub leaving: Vec<Vec<(u32, f64)>>,
    /// Per node, `(source, scaled demand)` of every commodity it receives,
    /// self-demands left out.
    pub entering: Vec<Vec<(u32, f64)>>,
    /// In a mirrored solve, the reverse of every commodity as `[source
    /// index, destination index]`, per source in destination order; `None`
    /// when the solve routes one direction per tree.
    ///
    /// A solve is mirrored when its instance is symmetric — every commodity
    /// `(s, t, d)` has a reverse `(t, s)` of bit-identical demand, and every
    /// arc `aid` a partner `aid ^ 1` of equal capacity, which `FlowProblem`
    /// builds for every link — and every source has at least two
    /// destinations. The reverse of any feasible flow is then feasible, so
    /// the LP has a symmetric optimum, and a source's tree can carry its
    /// in-commodities as well as its out-commodities: [`route_source_tree`]
    /// loads each tree arc's partner with the arc's load and credits every
    /// commit to the commodity and to its reverse. Every update then lands
    /// on both arcs of a pair alike, so the lengths stay symmetric bit for
    /// bit and the reverse of a shortest out-tree is a shortest in-tree.
    ///
    /// Single-destination sources are left out because mirroring them costs
    /// phases: their known-path loop routes one path per step and never
    /// aggregates, and on the symmetric longest-matching rungs mirroring them
    /// took `BCube/1` and `Hypercube/1` from 4 to 12 phases each (it took
    /// `Fat tree/1` from 24 to 12). So one such source keeps the whole solve
    /// on one direction per tree, and the check stops after a pass over the
    /// sources.
    pub reverse: Option<Vec<Vec<[u32; 2]>>>,
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
        let demands: Vec<Vec<f64>> = sources
            .iter()
            .map(|s| s.dests.iter().map(|&(_, d)| d * scale).collect())
            .collect();
        let n = prob.num_nodes();
        let mut leaving = vec![Vec::new(); n];
        let mut entering = vec![Vec::new(); n];
        for (s, scaled) in sources.iter().zip(&demands) {
            for (&(dst, _), &d) in s.dests.iter().zip(scaled) {
                if dst != s.src {
                    leaving[s.src].push((dst as u32, d));
                    entering[dst].push((s.src as u32, d));
                }
            }
        }
        // The partner view — reverse rows, the cut sweep, mirrored routing —
        // reads arc `aid ^ 1` as the reverse of arc `aid`; mirrored routing
        // also needs the two of equal capacity.
        debug_assert!(
            prob.arcs().chunks(2).all(|pair| {
                let [f, b] = pair else { return false };
                f.from == b.to && f.to == b.from && f.cap.to_bits() == b.cap.to_bits()
            }),
            "FlowProblem arcs must come in (forward, backward) pairs of equal capacity"
        );
        RouteCtx {
            prob,
            demands,
            targets: sources
                .iter()
                .map(|s| s.dests.iter().map(|&(dst, _)| dst).collect())
                .collect(),
            single_dest,
            pot_rows,
            num_single,
            reuse_slack,
            scale,
            leaving,
            entering,
            reverse: reverse_commodities(prob),
        }
    }
}

/// The reverse of every commodity of `prob` (see [`RouteCtx::reverse`]) if
/// every source has at least two destinations and every commodity `(s, t,
/// d)` has a reverse `(t, s)` of bit-identical demand; `None` otherwise. A
/// source with a single destination ends the check after one pass over the
/// sources. `TrafficMatrix` merges and sorts its demands, so each source's
/// destinations strictly increase: one binary search finds a reverse, and
/// the reverse of a reverse is the commodity itself.
fn reverse_commodities(prob: &FlowProblem) -> Option<Vec<Vec<[u32; 2]>>> {
    let sources = prob.sources();
    if sources.iter().any(|s| s.dests.len() < 2) {
        return None;
    }
    debug_assert!(sources
        .iter()
        .all(|s| s.dests.windows(2).all(|w| w[0].0 < w[1].0)));
    let mut source_of = vec![u32::MAX; prob.num_nodes()];
    for (si, s) in sources.iter().enumerate() {
        source_of[s.src] = si as u32;
    }
    sources
        .iter()
        .map(|s| {
            s.dests
                .iter()
                .map(|&(dst, d)| {
                    let ri = source_of[dst];
                    let back = &sources.get(ri as usize)?.dests;
                    let rj = back.binary_search_by_key(&s.src, |&(t, _)| t).ok()?;
                    (back[rj].1.to_bits() == d.to_bits()).then_some([ri, rj as u32])
                })
                .collect()
        })
        .collect()
}

/// Paths kept per single-destination source. Measured on the `/1/LM` pass of
/// `fig05_06`: 8 slots answer 50 % of the in-turn re-searches, 16 answer
/// 64 %, 64 no more.
const KNOWN_PATHS: usize = 16;

/// The paths each single-destination source's own searches have returned
/// (arc-id lists, dst-to-src order; arc ids fit `u32`, which building the
/// problem's `CsrGraph` asserts), at most [`KNOWN_PATHS`] per source,
/// least recently routed evicted first. Kept across the phases of one
/// solve.
#[derive(Debug, Clone)]
pub(super) struct KnownPaths {
    /// `KNOWN_PATHS` slots per potential row, most recently routed first.
    slots: Vec<Vec<u32>>,
    /// Filled slots per potential row.
    filled: Vec<usize>,
    /// The path of the search being recorded, before it is known to be new.
    walked: Vec<u32>,
}

impl KnownPaths {
    /// No path yet for any of `rows` sources.
    fn new(rows: usize) -> Self {
        KnownPaths {
            slots: vec![Vec::new(); rows * KNOWN_PATHS],
            filled: vec![0; rows],
            walked: Vec::new(),
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
/// [`HeldPaths::alpha`] adds up.
#[derive(Debug, Clone)]
pub(super) struct HeldPaths {
    pub known: KnownPaths,
    /// `[node, parent arc]` in settle order per source (the root's arc is
    /// `u32::MAX`); empty for single-destination sources.
    pub trees: Vec<Vec<[u32; 2]>>,
}

impl HeldPaths {
    /// No path yet for any of `ctx`'s sources.
    pub(super) fn new(ctx: &RouteCtx<'_>) -> Self {
        HeldPaths {
            known: KnownPaths::new(ctx.num_single),
            trees: vec![Vec::new(); ctx.prob.sources().len()],
        }
    }

    /// The tree held for source `si`: `[node, parent arc]` in settle order,
    /// empty if it holds none.
    pub(super) fn tree(&self, si: usize) -> &[[u32; 2]] {
        &self.trees[si]
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
    /// single-destination source. Infinite while some source holds nothing.
    /// `node_len` is `num_nodes` of scratch.
    pub(super) fn alpha(&self, ctx: &RouteCtx<'_>, len: &[f64], node_len: &mut [f64]) -> f64 {
        let arcs = ctx.prob.arcs();
        let mut alpha = 0.0;
        for (si, s) in ctx.prob.sources().iter().enumerate() {
            alpha += match ctx.single_dest[si] {
                Some(dst) if dst == s.src => 0.0,
                Some(_) => ctx.demands[si][0] * self.known.shortest(ctx.pot_rows[si], len).0,
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

/// Computes the shortest-path tree of source `si` at the lengths `len`.
/// Read-only over `len`. Multi-destination sources route on it (and hold
/// the last one, see [`HeldPaths`]); every source takes its term of the dual
/// bound from it, and single-destination sources, which route inside
/// [`route_source_single`], come here for that alone.
///
/// A source with fewer destinations than half the graph runs an early-exit
/// Dijkstra over its destination set. Any other source settles the whole
/// graph, and if `held` is a tree of it (the one [`HeldPaths`] keeps for
/// the source; empty when it holds none), that tree is repaired
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
    held: &[[u32; 2]],
    sssp: &mut SsspWorkspace,
) -> bool {
    let csr = ctx.prob.csr();
    let src = ctx.prob.sources()[si].src;
    if !settles_all(ctx, si) {
        sssp_csr(csr, src, len, Some(&ctx.targets[si]), sssp);
        return false;
    }
    if held.is_empty() {
        sssp_csr(csr, src, len, None, sssp);
        return false;
    }
    sssp_csr_repair_by(csr, src, |aid| len[aid], held.iter().map(|e| e[0]), sssp);
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
/// counted, repaired from the tree the source holds — its previous one — and
/// then held in its place.
fn search_tree(ctx: &RouteCtx<'_>, si: usize, ws: &mut SolverWorkspace) {
    ws.stats.searches += 1;
    if compute_tree(ctx, si, ws.mwu.lens(), ws.held.tree(si), &mut ws.sssp) {
        ws.stats.repairs += 1;
    }
    ws.held.hold_tree(si, &ws.sssp);
}

/// The goal-direction potential rows: for every single-destination source,
/// the reverse distances to its destination at the lengths of the row's
/// latest derivation — exact then, and consistent (admissible) as lengths
/// grow. Every bound evaluation re-derives the rows that are not dense,
/// which the routing of the next phases reads. A *dense* row is re-derived
/// at the start of each of its source's turns (see [`DENSE_SETTLES`]) and
/// read by nothing else.
#[derive(Debug, Clone)]
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
    /// `rows` rows over `n` nodes, none derived yet and none dense.
    pub(super) fn new(rows: usize, n: usize) -> Self {
        PotentialRows {
            values: vec![f64::INFINITY; rows * n],
            dense: vec![false; rows],
        }
    }

    /// Row `row` over `n` nodes.
    pub(super) fn row(&self, row: usize, n: usize) -> &[f64] {
        &self.values[row * n..(row + 1) * n]
    }

    /// Re-derives, at the lengths `len`, every row that is not dense, in
    /// source order on `sssp`. A no-op when every row is dense. With `keep =
    /// Some((row, order))`, `order` is left holding the settle order of
    /// `row`'s reverse Dijkstra if this call derived it, and empty otherwise.
    pub(super) fn refresh(
        &mut self,
        ctx: &RouteCtx<'_>,
        len: &[f64],
        sssp: &mut SsspWorkspace,
        mut keep: Option<(usize, &mut Vec<u32>)>,
    ) {
        if let Some((_, order)) = keep.as_mut() {
            order.clear();
        }
        let n = ctx.prob.num_nodes();
        // Rows are stored in source order; a source's row index from
        // `pot_rows` matches its position in this filtered sequence.
        let rows = self
            .values
            .chunks_mut(n)
            .zip(ctx.single_dest.iter().filter_map(|&d| d))
            .zip(&self.dense)
            .enumerate()
            .filter_map(|(r, (row, &dense))| (!dense).then_some((r, row)));
        debug_assert!(ctx.pot_rows.iter().filter(|&&r| r != usize::MAX).count() == ctx.num_single);
        for (r, (row, dst)) in rows {
            derive_row(ctx, len, dst, row, sssp);
            if let Some((_, order)) = keep.as_mut().filter(|(k, _)| *k == r) {
                order.extend_from_slice(sssp.settle_order());
            }
        }
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
    reverse_tree(ctx, len, dst, sssp);
    for (v, slot) in row.iter_mut().enumerate() {
        *slot = sssp.dist(v);
    }
}

/// One full Dijkstra from `dst` over the partner arcs at the lengths `len`:
/// the search behind a potential row (see [`derive_row`]).
pub(super) fn reverse_tree(ctx: &RouteCtx<'_>, len: &[f64], dst: usize, sssp: &mut SsspWorkspace) {
    sssp_csr_by(ctx.prob.csr(), dst, |aid| len[aid ^ 1], None, sssp);
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

/// Credits `amount` to commodity `j` of source `si` in `routed` and, in a
/// mirrored solve, to its reverse (a self-demand, its own reverse, twice).
#[inline]
fn credit(ctx: &RouteCtx<'_>, routed: &mut [Vec<f64>], si: usize, j: usize, amount: f64) {
    routed[si][j] += amount;
    if let Some(reverse) = &ctx.reverse {
        let [ri, rj] = reverse[si][j];
        routed[ri as usize][rj as usize] += amount;
    }
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
/// that reuse costs phases. The held tree only seeds the repair of the next
/// tree. Returns `false` when `D(l)` saturated mid-source.
///
/// In a mirrored solve ([`RouteCtx::reverse`]) the tree also carries the
/// source's in-commodities, reversed: each tree arc's partner `aid ^ 1` gets
/// the arc's scaled load, and every commit — a self-demand's included — is
/// credited to the commodity and to its reverse. That is sound because the
/// lengths are symmetric: every update so far landed on both arcs of a pair
/// alike, so the reverse of a tree path is as long as the path, and the
/// reverse of a shortest (or slack-shortest) `s -> t` path is a shortest (or
/// slack-shortest) `t -> s` path. A tree never holds both arcs of a pair
/// (that would be a two-cycle), so every partner takes exactly one load of
/// at most its capacity and no arc exceeds capacity within a batch. A phase
/// then routes every commodity twice — once on its source's tree, once
/// reversed on its destination's — for the trees of one; crediting a
/// self-demand twice keeps it served as often as the rest, or a block's
/// worst-served ratio would halve.
pub(super) fn route_source_tree(ctx: &RouteCtx<'_>, si: usize, ws: &mut SolverWorkspace) -> bool {
    let s = &ctx.prob.sources()[si];
    let mirrored = ctx.reverse.is_some();
    ws.remaining.clear();
    ws.remaining.extend_from_slice(&ctx.demands[si]);
    // The first batch routes on a tree computed at the current lengths,
    // repaired from the one the source held since its last turn; if it is
    // capacity-limited, `cur_len` is rebuilt before the first staleness
    // check needs it.
    search_tree(ctx, si, ws);
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
                search_tree(ctx, si, ws);
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
                credit(ctx, &mut ws.routed, si, j, ws.remaining[j]);
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
                if mirrored {
                    apply_update(&mut ws.mwu, &mut ws.flow_arc, aid ^ 1, theta * load);
                }
            }
        }
        for j in 0..ws.remaining.len() {
            let r = ws.remaining[j];
            if r > 1e-15 {
                let commit = theta * r;
                credit(ctx, &mut ws.routed, si, j, commit);
                ws.remaining[j] = r - commit;
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
    use crate::fleischer::{FleischerConfig, FleischerSolver};
    use std::cell::{Cell, RefCell};
    use tb_topology::families::Scale;
    use tb_topology::{hypercube::hypercube, jellyfish::jellyfish, Family};
    use tb_traffic::synthetic::{longest_matching, random_permutation};
    use tb_traffic::TrafficMatrix;

    thread_local! {
        static AUDIT_SSSP: RefCell<SsspWorkspace> = RefCell::default();
        static AUDITED: Cell<usize> = const { Cell::new(0) };
        static AUDITED_TREES: Cell<usize> = const { Cell::new(0) };
    }

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
        AUDITED_TREES.set(AUDITED_TREES.get() + 1);
    }

    #[test]
    fn every_repaired_tree_is_the_dijkstra_tree_bit_for_bit() {
        // All-to-all on three ladder rungs the `/A2A` pass solves (the check
        // itself is `audit_repaired_tree`, called on every repair of every
        // solve of this crate's unit tests, in routing and in the dual
        // sweeps alike), plus a degree-two random matching, whose sources
        // have fewer destinations than half the graph and never repair.
        let solve = |topo: &tb_topology::Topology, tm: &TrafficMatrix| {
            let (_, stats, _) =
                FleischerSolver::new(FleischerConfig::fast()).solve_in(&topo.graph, tm, false);
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
        assert!(AUDITED_TREES.get() > 0, "the audit hook did not run");
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
            let (_, stats, _) = FleischerSolver::new(cfg).solve_in(&topo.graph, tm, false);
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

    /// The workspace a solve of `tm` on `graph` truncated after `max_phases`
    /// phases leaves (the gap exit off).
    fn truncated(
        graph: &tb_graph::Graph,
        tm: &TrafficMatrix,
        max_phases: usize,
    ) -> SolverWorkspace {
        let prob = FlowProblem::new(graph, tm);
        let cfg = FleischerConfig {
            max_phases,
            target_gap: 0.0,
            ..FleischerConfig::fast()
        };
        crate::fleischer::phase::solve_problem(&cfg, graph, &prob, false)
            .ws
            .expect("a non-trivial instance")
    }

    #[test]
    fn mirrored_solves_keep_lengths_flows_and_served_amounts_symmetric_bit_for_bit() {
        // All-to-all on a Jellyfish and on a faulted copy of it (two
        // switches and six links down, the pairs the faults disconnect
        // dropped): every update lands on both arcs of a pair and every
        // commit on both directions of a pair, so after any number of phases
        // each arc's length and flow equal its partner's, and each
        // commodity's routed amount its reverse's, to the bit.
        let topo = jellyfish(40, 6, 2, 9);
        let plan = tb_topology::faults::FaultPlan {
            link_failures: 6,
            switch_failures: 2,
            seed: 3,
        };
        let (faulted, _) = tb_topology::faults::apply_faults(&topo, &plan);
        for (name, topo) in [("jellyfish", &topo), ("faulted", &faulted)] {
            let tm = tb_traffic::synthetic::all_to_all(&topo.servers);
            let (tm, _) = crate::drop_disconnected_demands(&topo.graph, &tm);
            for max_phases in [1, 5] {
                let ws = truncated(&topo.graph, &tm, max_phases);
                assert!(ws.stats.mirrored, "{name}: {:?}", ws.stats);
                assert_eq!(ws.stats.phases, max_phases, "{name}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let (lens, flow) = (bits(ws.mwu.lens()), bits(&ws.flow_arc));
                for aid in (0..lens.len()).step_by(2) {
                    assert_eq!(lens[aid], lens[aid + 1], "{name}: length of arc {aid}");
                    assert_eq!(flow[aid], flow[aid + 1], "{name}: flow on arc {aid}");
                }
                assert!(
                    ws.flow_arc.iter().any(|&f| f > 0.0),
                    "{name}: nothing routed"
                );
                let prob = FlowProblem::new(&topo.graph, &tm);
                let reverse = RouteCtx::new(&prob, 1.0, 1.0).reverse.expect("symmetric");
                for (si, rev) in reverse.iter().enumerate() {
                    for (j, &[ri, rj]) in rev.iter().enumerate() {
                        let back = ws.routed[ri as usize][rj as usize];
                        assert_eq!(
                            ws.routed[si][j].to_bits(),
                            back.to_bits(),
                            "{name}: commodity {j} of source {si}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_destination_sources_and_asymmetric_demands_are_not_mirrored() {
        let solve = |topo: &tb_topology::Topology, tm: &TrafficMatrix| {
            let (_, stats, _) =
                FleischerSolver::new(FleischerConfig::fast()).solve_in(&topo.graph, tm, false);
            assert!(stats.converged, "{stats:?}");
            stats.mirrored
        };
        let symmetric = |tm: &TrafficMatrix| {
            let pairs: std::collections::HashMap<_, _> = tm
                .demands()
                .iter()
                .map(|d| ((d.src, d.dst), d.amount.to_bits()))
                .collect();
            pairs
                .iter()
                .all(|(&(s, t), a)| pairs.get(&(t, s)) == Some(a))
        };
        // A hypercube's longest matching pairs every switch with its
        // antipode, an involution: symmetric, but one destination per source.
        let cube = hypercube(3, 1);
        let lm = longest_matching(&cube.graph, &cube.servers, true);
        assert!(symmetric(&lm));
        assert!(!solve(&cube, &lm));
        // All-to-all between two endpoint switches: symmetric, one
        // destination each.
        let mut two = cube.clone();
        two.servers = (0..8).map(|u| usize::from(u == 0 || u == 7)).collect();
        let pair = tb_traffic::synthetic::all_to_all(&two.servers);
        assert!(symmetric(&pair) && pair.num_flows() == 2);
        assert!(!solve(&two, &pair));
        // Two rounds of random matching: most sources have two destinations,
        // but the pairs have no reverse.
        let topo = jellyfish(24, 4, 1, 3);
        let rm = tb_traffic::synthetic::random_matching(&topo.servers, 2, 5);
        assert!(!symmetric(&rm));
        assert!(!solve(&topo, &rm));
        // All-to-all is mirrored; one demand an ulp off its reverse is not.
        let a2a = tb_traffic::synthetic::all_to_all(&topo.servers);
        assert!(solve(&topo, &a2a));
        let mut demands = a2a.demands().to_vec();
        demands[0].amount = f64::from_bits(demands[0].amount.to_bits() + 1);
        let skewed = TrafficMatrix::new(a2a.num_switches(), demands);
        assert!(!symmetric(&skewed));
        assert!(!solve(&topo, &skewed));
    }

    #[test]
    fn known_paths_evict_the_least_recently_routed() {
        // A two-node graph with KNOWN_PATHS + 1 parallel arcs: each search
        // under lengths that favour a different arc returns a new path.
        let arcs = KNOWN_PATHS + 1;
        let csr = tb_graph::CsrGraph::from_directed_arcs(2, (0..arcs).map(|aid| (0, 1, aid)));
        let mut sssp = SsspWorkspace::new();
        let mut known = KnownPaths::new(1);
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
        let mut none = KnownPaths::new(1);
        assert!(none.paths(0).is_empty());
        assert_eq!(none.shortest_within(0, &len, 3.0), Err(f64::INFINITY));
    }
}
