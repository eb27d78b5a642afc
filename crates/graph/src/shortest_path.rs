//! Shortest paths on switch graphs.
//!
//! Three users in the framework:
//!
//! * the longest-matching traffic matrix needs *unweighted* all-pairs shortest
//!   path lengths (hop counts),
//! * the Fleischer max-concurrent-flow solver needs single-source shortest
//!   paths under an arbitrary positive *length function on arcs* (the dual
//!   variables), with the predecessor tree so flow can be routed back,
//! * the expanding-region cut estimator needs BFS balls.
//!
//! The weighted case is served by **one** Dijkstra kernel, [`sssp_csr`],
//! shared by this crate ([`k_shortest_paths`]) and by `tb_flow`'s solvers.
//! The kernel runs over a flat [`CsrGraph`] view, keeps all of its state in a
//! reusable [`SsspWorkspace`] (no allocation per call — a generation counter
//! invalidates old state in O(1)), and supports destination-aware early
//! exit: when the caller only needs distances to a known target set, the
//! search stops as soon as the last target is settled.
//! For sparse traffic matrices (e.g. longest-matching, where each source has
//! a single destination) this prunes most of the graph from every inner
//! solver iteration. For dense ones, where a source's whole tree is wanted
//! again and again under slowly changing lengths, [`sssp_csr_repair_by`]
//! re-derives the tree from an earlier one and leaves the workspace exactly
//! as the kernel would.

use crate::csr::CsrGraph;
use crate::graph::Graph;
use std::collections::{BinaryHeap, HashSet, VecDeque};

/// Distance value used to mark unreachable nodes in BFS results.
pub const UNREACHABLE: u32 = u32::MAX;

/// Breadth-first search hop distances from `src` to every node.
///
/// Unreachable nodes get [`UNREACHABLE`].
pub fn bfs_distances(g: &Graph, src: usize) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_nodes()];
    let mut q = VecDeque::new();
    dist[src] = 0;
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u];
        for &(v, _) in g.neighbors(u) {
            if dist[v] == UNREACHABLE {
                dist[v] = du + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// All-pairs unweighted shortest path lengths (hop counts), row `u` is the BFS
/// distance vector from `u`. Runs the per-source BFS on the pool.
pub fn apsp_unweighted(g: &Graph) -> Vec<Vec<u32>> {
    rayon::map_init(0..g.num_nodes(), || (), |_, u| bfs_distances(g, u))
}

/// Average shortest path length over all ordered pairs of distinct nodes.
///
/// Returns `None` if the graph is disconnected (some pair is unreachable) or
/// has fewer than two nodes.
pub fn average_path_length(g: &Graph) -> Option<f64> {
    let n = g.num_nodes();
    if n < 2 {
        return None;
    }
    let dist = apsp_unweighted(g);
    let mut total = 0u64;
    for (u, row) in dist.iter().enumerate() {
        for (v, &d) in row.iter().enumerate() {
            if u == v {
                continue;
            }
            if d == UNREACHABLE {
                return None;
            }
            total += d as u64;
        }
    }
    Some(total as f64 / (n as f64 * (n as f64 - 1.0)))
}

/// Diameter (max hop distance over all pairs); `None` if disconnected.
pub fn diameter(g: &Graph) -> Option<u32> {
    let dist = apsp_unweighted(g);
    let mut best = 0;
    for (u, row) in dist.iter().enumerate() {
        for (v, &d) in row.iter().enumerate() {
            if u == v {
                continue;
            }
            if d == UNREACHABLE {
                return None;
            }
            best = best.max(d);
        }
    }
    Some(best)
}

/// A single-source shortest path tree under an edge length function.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    /// Source node the tree is rooted at.
    pub src: usize,
    /// Distance from the source under the length function (`f64::INFINITY` if
    /// unreachable).
    pub dist: Vec<f64>,
    /// Predecessor of each node on its shortest path as `(parent node, edge id)`;
    /// `None` for the source and unreachable nodes.
    pub parent: Vec<Option<(usize, usize)>>,
}

/// Packed priority-queue entry: the key's IEEE bit pattern in the high bits,
/// the node id in the low 32, so one unsigned comparison orders by (key,
/// node). Keys are finite non-negative non-NaN by construction (tentative
/// distances, or `dist + potential` for the goal-directed kernel), and
/// non-negative doubles order identically as their bit patterns. Ties
/// resolve towards the smaller node id, keeping tree shapes deterministic.
///
/// The key is deliberately the *only* distance-derived component: an
/// A*-style "largest raw distance first" secondary key was tried here and
/// made the flow solver's multiplicative-weights loop converge an order of
/// magnitude slower — diving along one extreme geodesic concentrates flow
/// that the node-id tie-break naturally spreads.
#[inline]
fn queue_key(key: f64, node: u32) -> u128 {
    debug_assert!(
        key.is_finite() && key.is_sign_positive(),
        "queue key must be finite with a positive sign bit (-0.0 would \
         sort above every positive key in the packed order)"
    );
    ((key.to_bits() as u128) << 32) | node as u128
}

/// The node id packed into a queue entry.
#[inline]
fn queue_node(entry: u128) -> u32 {
    entry as u32
}

/// The smallest of the four entries `heap[c0..c0 + 4]` and its index, by
/// selects rather than branches: which child is smallest is a coin flip
/// the branch predictor loses.
#[inline(always)]
fn min_of_four(heap: &[u128], c0: usize) -> (usize, u128) {
    let c = &heap[c0..c0 + 4];
    let (i01, m01) = if c[1] < c[0] { (1, c[1]) } else { (0, c[0]) };
    let (i23, m23) = if c[3] < c[2] { (3, c[3]) } else { (2, c[2]) };
    let (i, m) = if m23 < m01 { (i23, m23) } else { (i01, m01) };
    (c0 + i, m)
}

/// Sentinel for "no parent" in [`SsspWorkspace`].
const NO_PARENT: u32 = u32::MAX;

/// Padding of the heap array past its last live entry: the pop's hole walk
/// reads all four children of a node with at least one live child, i.e. up
/// to three slots past the end, and finds `u128::MAX` (larger than every
/// packed entry) there.
const HEAP_PAD: usize = 3;

/// The per-node state of a run, in one record so that relaxing an arc
/// touches one cache line for its head.
#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    /// Tentative (queued) or final (settled) distance; meaningful only when
    /// `stamp` belongs to the current run.
    dist: f64,
    /// The run's generation `g` while the node is queued, `g + 1` once it is
    /// settled; anything smaller means "not reached by this run".
    stamp: u32,
    /// Heap index, meaningful only while the node is queued.
    hpos: u32,
}

/// Reusable state for the [`sssp_csr`] kernel: per-node records, parents,
/// the indexed 4-ary heap, and the generation stamps that make resets O(1).
///
/// A workspace may be reused across runs, sources, length functions, and even
/// graphs of different sizes; each run advances a generation counter, so stale
/// entries from previous runs are never observed and never need clearing.
/// Allocation happens only when a run needs more capacity than any before it.
#[derive(Debug, Clone, Default)]
pub struct SsspWorkspace {
    /// Distance, seen/settled stamp and heap index per node.
    nodes: Vec<NodeState>,
    /// Packed `[parent node, arc/edge length index]` per node (one cache line
    /// access on path walks); parent `NO_PARENT` for the source. Valid for
    /// nodes the current run has reached.
    parents: Vec<[u32; 2]>,
    /// Generation stamp marking early-exit targets of the current run.
    target: Vec<u32>,
    /// Generation of the current run: it and `generation + 1` (settled) are
    /// both above every stamp an earlier run left.
    generation: u32,
    /// Nodes of the last run in the order they were settled.
    order: Vec<u32>,
    /// The previous settle order while [`sssp_csr_repair_own_by`] repairs
    /// from it; empty otherwise, keeping its allocation.
    spare: Vec<u32>,
    /// A repair's settle order as packed `(dist bits, node)` keys while it
    /// is sorted (see [`queue_key`]).
    keys: Vec<u128>,
    /// The priority queue: an indexed 4-ary min-heap with true decrease-key
    /// over packed `(key bits, node)` entries (see [`queue_key`]). Under the
    /// wide-dynamic-range length functions the flow solver feeds this
    /// kernel, nodes improve several times before settling; a lazy binary
    /// heap turns every improvement into an extra entry (and later a dead
    /// pop), which was measured at ~4x the cost of sifting the live entry up
    /// in place. A pop is bottom-up: the hole left at the root walks down to
    /// a leaf along the smallest children (a branch-free minimum of four,
    /// the array padded with `u128::MAX` past its end, see [`HEAP_PAD`]),
    /// and the last entry then sifts up from there — on a Dijkstra heap the
    /// last entry belongs near the bottom, so that sift is short, and the
    /// walk down needs no comparison against it. Entries are unique (one per
    /// queued node), so which entry pops next is the minimum whatever the
    /// heap's layout: the settle order does not depend on this
    /// implementation.
    heap: Vec<u128>,
    /// Live entries at the front of `heap`.
    heap_len: usize,
    /// Source node of the most recent run.
    src: usize,
}

impl SsspWorkspace {
    /// Creates an empty workspace; arrays are sized lazily by the first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins a new run over `n` nodes: grows arrays if needed and advances
    /// the generation by `span` so all previous state is invalidated in O(1).
    /// A Dijkstra run takes a span of 2 (its generation and the settled stamp
    /// above it); a repair takes 3, the extra stamp below its generation
    /// marking nodes labeled before their turn (see [`sssp_csr_repair_by`]).
    fn begin(&mut self, n: usize, src: usize, span: u32) {
        if self.nodes.len() < n {
            self.nodes.resize(n, NodeState::default());
            self.parents.resize(n, [NO_PARENT, NO_PARENT]);
            self.target.resize(n, 0);
        }
        if self.generation >= u32::MAX - span {
            // Stamp wrap-around (once per 2^31 runs): clear stamps explicitly.
            for node in &mut self.nodes {
                node.stamp = 0;
            }
            self.target.fill(0);
            self.generation = 0;
        }
        self.generation += span;
        self.order.clear();
        // An early exit leaves entries queued; the padding invariant wants
        // `u128::MAX` everywhere past the live front.
        self.heap[..self.heap_len].fill(u128::MAX);
        self.heap_len = 0;
        self.src = src;
    }

    /// Inserts `v` (not currently queued) with `key`.
    #[inline]
    fn heap_push(&mut self, v: u32, key: f64) {
        let i = self.heap_len;
        if self.heap.len() < i + 1 + HEAP_PAD {
            self.heap.resize(i + 1 + HEAP_PAD, u128::MAX);
        }
        self.heap_len = i + 1;
        self.sift_up(i, queue_key(key, v));
    }

    /// Lowers the key of a queued node and restores heap order in place.
    #[inline]
    fn heap_decrease(&mut self, v: u32, key: f64) {
        let i = self.nodes[v as usize].hpos as usize;
        let entry = queue_key(key, v);
        debug_assert_eq!(
            queue_node(self.heap[i]),
            v,
            "decrease-key on a node not queued"
        );
        debug_assert!(entry <= self.heap[i], "decrease-key must not raise a key");
        self.sift_up(i, entry);
    }

    /// Removes and returns the queued node with the smallest (key, id).
    /// Always inlined: it is the kernels' inner loop, and left to itself the
    /// compiler calls it from `sssp_csr_by` once the repair adds call sites.
    #[inline(always)]
    fn heap_pop(&mut self) -> Option<u32> {
        if self.heap_len == 0 {
            return None;
        }
        let top = self.heap[0];
        let len = self.heap_len - 1;
        let last = std::mem::replace(&mut self.heap[len], u128::MAX);
        self.heap_len = len;
        if len > 0 {
            let mut hole = 0;
            loop {
                let c0 = 4 * hole + 1;
                if c0 >= len {
                    break;
                }
                let (c, entry) = min_of_four(&self.heap, c0);
                self.heap[hole] = entry;
                self.nodes[queue_node(entry) as usize].hpos = hole as u32;
                hole = c;
            }
            self.sift_up(hole, last);
        }
        Some(queue_node(top))
    }

    /// Places `entry` at slot `i` or above it, moving larger parents down.
    #[inline]
    fn sift_up(&mut self, mut i: usize, entry: u128) {
        while i > 0 {
            let p = (i - 1) / 4;
            let parent = self.heap[p];
            if entry < parent {
                self.heap[i] = parent;
                self.nodes[queue_node(parent) as usize].hpos = i as u32;
                i = p;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
        self.nodes[queue_node(entry) as usize].hpos = i as u32;
    }

    /// Number of nodes the last run settled — how much of the graph the
    /// search had to explore. Callers use this to judge whether goal
    /// direction is paying off.
    #[inline]
    pub fn settled_count(&self) -> usize {
        self.order.len()
    }

    /// Nodes settled by the last run, in settle order: non-decreasing
    /// distance, and every node's final parent appears before the node
    /// itself. A forward walk can therefore propagate per-node values down
    /// the tree (e.g. re-derive current path lengths), and a reverse walk
    /// folds per-subtree aggregates bottom-up — the aggregated routing
    /// kernel in `tb_flow` loads each tree arc exactly once this way.
    #[inline]
    pub fn settle_order(&self) -> &[u32] {
        &self.order
    }

    /// Distance from the source of the last run (`f64::INFINITY` if the node
    /// was not reached, or not settled before an early exit).
    #[inline]
    pub fn dist(&self, v: usize) -> f64 {
        if self.is_settled(v) {
            self.nodes[v].dist
        } else {
            f64::INFINITY
        }
    }

    /// Whether the last run settled `v`.
    #[inline]
    fn is_settled(&self, v: usize) -> bool {
        self.nodes[v].stamp == self.generation + 1
    }

    /// Predecessor `(parent node, length index)` of `v` on its shortest path;
    /// `None` for the source and for unreached/unsettled nodes.
    #[inline]
    pub fn parent(&self, v: usize) -> Option<(usize, usize)> {
        if self.is_settled(v) && self.parents[v][0] != NO_PARENT {
            Some((self.parents[v][0] as usize, self.parents[v][1] as usize))
        } else {
            None
        }
    }

    /// Predecessor of a node known to be settled and different from the
    /// source — the hot-path variant used by routing walks, touching exactly
    /// one array. Debug-asserts the precondition.
    #[inline]
    pub fn parent_unchecked(&self, v: usize) -> (usize, usize) {
        debug_assert!(self.is_settled(v) && self.parents[v][0] != NO_PARENT);
        (self.parents[v][0] as usize, self.parents[v][1] as usize)
    }

    /// Reconstructs the path from the last run's source to `dst` as a node
    /// sequence (both endpoints included); `None` if unreached.
    pub(crate) fn path_nodes(&self, dst: usize) -> Option<Vec<usize>> {
        if dst == self.src {
            return Some(vec![dst]);
        }
        self.parent(dst)?;
        let mut nodes = vec![dst];
        let mut cur = dst;
        while cur != self.src {
            let (p, _) = self.parent(cur)?;
            nodes.push(p);
            cur = p;
        }
        nodes.reverse();
        Some(nodes)
    }

    /// Materializes the last run into a [`ShortestPathTree`] (allocates; used
    /// by the convenience wrapper, not by hot paths).
    pub fn to_tree(&self, n: usize) -> ShortestPathTree {
        let dist = (0..n).map(|v| self.dist(v)).collect();
        let parent = (0..n).map(|v| self.parent(v)).collect();
        ShortestPathTree {
            src: self.src,
            dist,
            parent,
        }
    }
}

/// THE Dijkstra kernel of the workspace: single-source shortest paths from
/// `src` over the CSR adjacency `csr`, with the per-arc length function
/// `len_of(lid)` (indexed by each arc's length index; all lengths must be
/// non-negative, `f64::INFINITY` bans an arc).
///
/// Taking the lengths as a closure lets callers keep lengths in whatever
/// layout their hot path wants (a plain slice, or interleaved with other
/// per-arc state as the flow solver does) at zero cost — the closure inlines.
///
/// If `targets` is given, the search stops as soon as every (reachable)
/// target is settled; distances and parents are then final for all settled
/// nodes — in particular for every reachable target — and
/// [`SsspWorkspace::dist`] reports `INFINITY` for anything not settled.
/// With `targets = None` the whole reachable component is settled.
///
/// All state lives in `ws`; the call allocates nothing once the workspace has
/// reached the graph's size.
pub fn sssp_csr_by<L: Fn(usize) -> f64>(
    csr: &CsrGraph,
    src: usize,
    len_of: L,
    targets: Option<&[usize]>,
    ws: &mut SsspWorkspace,
) {
    ws.begin(csr.num_nodes(), src, 2);
    let generation = ws.generation;
    let mut pending = 0usize;
    if let Some(ts) = targets {
        for &t in ts {
            if ws.target[t] != generation {
                ws.target[t] = generation;
                pending += 1;
            }
        }
        if pending == 0 {
            return;
        }
    }
    ws.nodes[src].dist = 0.0;
    ws.nodes[src].stamp = generation;
    ws.parents[src] = [NO_PARENT, NO_PARENT];
    ws.heap_push(src as u32, 0.0);
    while let Some(node) = ws.heap_pop() {
        let u = node as usize;
        debug_assert_eq!(ws.nodes[u].stamp, generation);
        ws.nodes[u].stamp = generation + 1;
        ws.order.push(node);
        if targets.is_some() && ws.target[u] == generation {
            pending -= 1;
            if pending == 0 {
                break; // every target settled; ancestors are settled too
            }
        }
        let d = ws.nodes[u].dist;
        for (v, lid) in csr.neighbors(u) {
            let len = len_of(lid);
            debug_assert!(len >= 0.0, "negative arc length");
            let nd = d + len;
            let head = ws.nodes[v];
            if head.stamp < generation {
                // The finiteness check mirrors the classical `nd < INFINITY`
                // comparison against an unseen node: arcs banned with an
                // infinite length must not enqueue (or set parents for)
                // their heads.
                if nd < f64::INFINITY {
                    ws.nodes[v].stamp = generation;
                    ws.nodes[v].dist = nd;
                    ws.parents[v] = [u as u32, lid as u32];
                    ws.heap_push(v as u32, nd);
                }
            } else if nd < head.dist {
                // Settled nodes cannot satisfy `nd < dist` (lengths are
                // non-negative, so their distances are final minima): this
                // branch only ever lowers the key of a queued node.
                ws.nodes[v].dist = nd;
                ws.parents[v] = [u as u32, lid as u32];
                ws.heap_decrease(v as u32, nd);
            }
        }
    }
}

/// [`sssp_csr_by`] with lengths in a plain slice (the common case).
pub fn sssp_csr(
    csr: &CsrGraph,
    src: usize,
    lens: &[f64],
    targets: Option<&[usize]>,
    ws: &mut SsspWorkspace,
) {
    sssp_csr_by(csr, src, |lid| lens[lid], targets, ws)
}

/// What a repair's relaxation passes note (see [`sssp_csr_repair_by`]).
#[derive(Debug, Default)]
struct RepairNotes {
    /// Nodes given a label while unlabeled (the root included).
    labeled: usize,
    /// Nodes that held a label at their turn in the tree pass.
    turned: usize,
    /// Whether some relaxation reached its head's label without adding to
    /// its tail's, or tied the label over a parallel arc of the tail that
    /// set it: the ties the passes cannot resolve as they go.
    ties: bool,
}

impl SsspWorkspace {
    /// Relaxes every out-arc of `u` with the label `d` for a repair run
    /// (generation `g`): an unlabeled head (stamp below `g - 1`) gets the
    /// label and stamp `g - 1`, its turn still to come; a head whose arcs
    /// already went out (stamp `g + 1`) is queued when its label falls, and
    /// a queued one (stamp `g`) has its key lowered. A relaxation that ties
    /// the head's label takes the parent over if its tail's key `(label,
    /// node)` is the smaller (the tail Dijkstra would settle first).
    #[inline(always)]
    fn repair_relax<L: Fn(usize) -> f64>(
        &mut self,
        csr: &CsrGraph,
        u: usize,
        d: f64,
        len_of: &L,
        notes: &mut RepairNotes,
    ) {
        let generation = self.generation;
        for (v, lid) in csr.neighbors(u) {
            let len = len_of(lid);
            debug_assert!(len >= 0.0, "negative arc length");
            let nd = d + len;
            let head = self.nodes[v];
            if head.stamp < generation - 1 {
                if nd < f64::INFINITY {
                    notes.ties |= nd == d;
                    notes.labeled += 1;
                    self.nodes[v].stamp = generation - 1;
                    self.nodes[v].dist = nd;
                    self.parents[v] = [u as u32, lid as u32];
                }
            } else if nd <= head.dist {
                notes.ties |= nd == d;
                if nd < head.dist {
                    self.nodes[v].dist = nd;
                    self.parents[v] = [u as u32, lid as u32];
                    if head.stamp == generation + 1 {
                        self.nodes[v].stamp = generation;
                        self.heap_push(v as u32, nd);
                    } else if head.stamp == generation {
                        self.heap_decrease(v as u32, nd);
                    }
                } else if nd != d && nd < f64::INFINITY {
                    // A tie between distinct tails (the root, whose label
                    // only a zero arc ties, has no parent to compare).
                    let [p, arc] = self.parents[v];
                    if p == u as u32 {
                        notes.ties |= arc != lid as u32;
                    } else if queue_key(d, u as u32) < queue_key(self.nodes[p as usize].dist, p) {
                        self.parents[v] = [u as u32, lid as u32];
                    }
                }
            }
        }
    }

    /// Step 4 of a repair, as the tree pass goes: inserts `key` into the
    /// sorted keys of the nodes that had their turn. An insertion sort over
    /// one contiguous array, which costs one comparison per node plus one per
    /// place a node moves: between two turns of a flow solver's source nodes
    /// trade many places among near-equal distances (about 6 per node on a
    /// 64-switch HyperX), and a move that read its key through the node's
    /// record each time cost more than the repair saved.
    #[inline(always)]
    fn insert_key(&mut self, key: u128) {
        let keys = &mut self.keys;
        let mut j = keys.len();
        keys.push(key);
        while j > 0 && keys[j - 1] > key {
            keys[j] = keys[j - 1];
            j -= 1;
        }
        keys[j] = key;
    }

    /// Step 4 again, when the keys the tree pass sorted are not all final:
    /// some label fell after its node's turn, or a node had no label at its
    /// turn (those are in `order`). Re-keys every node at its final label,
    /// drops the nodes the current lengths leave unreached, and sorts.
    fn rekey_repaired(&mut self) {
        for i in 0..self.keys.len() {
            let v = queue_node(self.keys[i]);
            self.keys[i] = queue_key(self.nodes[v as usize].dist, v);
        }
        for i in 0..self.order.len() {
            let v = self.order[i];
            let dist = self.nodes[v as usize].dist;
            if dist < f64::INFINITY {
                self.keys.push(queue_key(dist, v));
            } else {
                self.nodes[v as usize].stamp = 0;
            }
        }
        self.order.clear();
        self.keys.sort_unstable();
    }

    /// Step 5 of a repair, run only when a tie was noted: rebuilds the
    /// settle order and the parents from the final distances as Dijkstra
    /// settles them. Nodes pop by `(dist bits, node)` once queued, and a node
    /// is queued, with its parent, by the first arc that reaches its distance
    /// exactly from a popped tail — the earliest-ranked tail, and among
    /// parallel arcs the first in CSR order. Dijkstra queues a node with its
    /// final key at that same relaxation, and never pops a node whose key is
    /// not final yet (an ancestor on its shortest path is queued below it).
    fn settle_ties<L: Fn(usize) -> f64>(&mut self, csr: &CsrGraph, src: usize, len_of: &L) {
        let generation = self.generation;
        for &key in &self.keys {
            self.nodes[queue_node(key) as usize].stamp = generation - 1;
        }
        self.nodes[src].stamp = generation;
        self.heap_push(src as u32, 0.0);
        while let Some(node) = self.heap_pop() {
            let u = node as usize;
            self.nodes[u].stamp = generation + 1;
            self.order.push(node);
            let d = self.nodes[u].dist;
            for (v, lid) in csr.neighbors(u) {
                let head = self.nodes[v];
                if head.stamp == generation - 1 && d + len_of(lid) == head.dist {
                    self.nodes[v].stamp = generation;
                    self.parents[v] = [u as u32, lid as u32];
                    self.heap_push(v as u32, head.dist);
                }
            }
        }
    }
}

/// The tree-repair kernel: leaves `ws` exactly as `sssp_csr_by(csr, src,
/// len_of, None, ws)` would — the same settle order, the same `dist` bits
/// and the same parents, for any non-negative lengths — starting from an
/// earlier tree of `src` rather than from scratch.
///
/// `tree` lists the nodes of a spanning tree of the nodes reachable from
/// `src`, parents before their children: typically the settle order of an
/// earlier run from `src` under other lengths. Where only a few parents
/// changed since (about 6 of a 100-node tree between two turns of a flow
/// solver's all-to-all source, on the `/A2A` pass of `fig05_06`), the
/// repair is one pass over the arcs with next to no heap work. Nodes `tree`
/// lists that the current lengths leave unreachable are dropped; a `tree`
/// that misses a reachable node or lists one twice makes the call a plain
/// run.
///
/// Five steps, all on the workspace's own records and heap:
///
/// 1. every label is infinite, the root's 0;
/// 2. one pass over `tree` relaxes every out-arc of each node once, with the
///    node's label at its turn;
/// 3. the nodes whose label fell after their turn — their arcs went out with
///    a label that is not final — seed a Dijkstra run, which relaxes their
///    arcs again and queues every node whose label it lowers after that
///    node's arcs went out;
/// 4. the settle order is `tree`'s order re-sorted by `(dist bits, node)`,
///    with an insertion sort that runs along the pass of step 2 and costs
///    what the nodes moved (the nodes of step 3 are re-keyed after it);
/// 5. only when the passes noted a tie they cannot resolve as they go, order
///    and parents are rebuilt the way Dijkstra settles them
///    (`SsspWorkspace::settle_ties`).
///
/// **The labels are Dijkstra's distances, bit for bit.** A label is only
/// ever set to `label(u) + len` over an arc `u -> v`, so each is the
/// (rounded) length of a real walk from `src`, never below Dijkstra's
/// distance. And every arc is relaxed with its tail's final label unless the
/// tail is still queued: a node whose label does not fall after its turn
/// relaxed its arcs with its final label, and the heap pops each queued node
/// once, at its final label (pops are non-decreasing, and no relaxation
/// lowers a label below the one it comes from). So once the heap is empty,
/// `label(v) <= label(u) + len` holds on every arc, and by induction along
/// Dijkstra's tree path — rounded addition is monotone — no label is above
/// Dijkstra's distance either.
///
/// **So are the order and the parents.** Dijkstra settles by `(dist bits,
/// node)` among the nodes it has queued, and keeps as a node's parent the
/// first arc that reaches the node's final distance, by its tail's settle
/// rank and then CSR order. Unless an arc reaches its head's distance
/// without adding to its tail's (`label(u) + len == label(u)`), every node
/// lies strictly above its parent, so each is queued before any node of its
/// distance settles: the settle order is the sorted one, and the
/// earliest-ranked tail is the one with the smallest key `(dist bits,
/// node)`. The passes keep, among the arcs that reach a node's label, the
/// one from the smallest tail key: a relaxation that ties the label takes
/// the parent over if its tail's key is the smaller. A key only falls with
/// its label, and every arc that reaches a node's final distance is
/// relaxed with its tail's final label at or after the relaxation that
/// first set that distance, so the parent left is Dijkstra's. Two cases are
/// not resolved on the way, and note a tie for step 5: an arc that adds
/// nothing, and two parallel arcs from one tail reaching the same label
/// (which comes first in CSR order is not known there). A relaxation from a
/// label that was not final can note a tie that is not there, which costs
/// time, never bits.
pub fn sssp_csr_repair_by<L: Fn(usize) -> f64>(
    csr: &CsrGraph,
    src: usize,
    len_of: L,
    tree: impl IntoIterator<Item = u32>,
    ws: &mut SsspWorkspace,
) {
    // Stamps: `g - 1` labeled with the turn to come, `g` queued, `g + 1`
    // arcs relaxed with the current label (settled once the run is over).
    ws.begin(csr.num_nodes(), src, 3);
    let generation = ws.generation;
    ws.nodes[src].dist = 0.0;
    ws.nodes[src].stamp = generation - 1;
    ws.parents[src] = [NO_PARENT, NO_PARENT];
    let mut notes = RepairNotes {
        labeled: 1,
        ..RepairNotes::default()
    };
    // Nodes with a label at their turn go into the sorted keys, those
    // without into `order`.
    ws.keys.clear();
    let mut listed_twice = false;
    for u in tree {
        let node = ws.nodes[u as usize];
        if node.stamp >= generation {
            listed_twice = true;
            continue;
        }
        ws.nodes[u as usize].stamp = generation + 1;
        if node.stamp == generation - 1 {
            notes.turned += 1;
            ws.insert_key(queue_key(node.dist, u));
            ws.repair_relax(csr, u as usize, node.dist, &len_of, &mut notes);
        } else {
            ws.nodes[u as usize].dist = f64::INFINITY;
            ws.order.push(u);
        }
    }
    let mut fell = false;
    while let Some(node) = ws.heap_pop() {
        let u = node as usize;
        fell = true;
        ws.nodes[u].stamp = generation + 1;
        let d = ws.nodes[u].dist;
        ws.repair_relax(csr, u, d, &len_of, &mut notes);
    }
    // Every labeled node had its turn iff `tree` covered the reachable set.
    if listed_twice || notes.labeled != notes.turned {
        sssp_csr_by(csr, src, len_of, None, ws);
        return;
    }
    if fell || !ws.order.is_empty() {
        ws.rekey_repaired();
    }
    if notes.ties {
        ws.settle_ties(csr, src, &len_of);
    } else {
        ws.order.extend(ws.keys.iter().map(|&key| queue_node(key)));
    }
}

/// [`sssp_csr_repair_by`] from the tree of the workspace's own last run
/// (its settle order), which should have been a run from `src` that settled
/// the whole reachable set; one that stopped early makes this a plain run.
pub fn sssp_csr_repair_own_by<L: Fn(usize) -> f64>(
    csr: &CsrGraph,
    src: usize,
    len_of: L,
    ws: &mut SsspWorkspace,
) {
    let mut tree = std::mem::take(&mut ws.spare);
    std::mem::swap(&mut tree, &mut ws.order);
    sssp_csr_repair_by(csr, src, len_of, tree.iter().copied(), ws);
    tree.clear();
    ws.spare = tree;
}

/// Goal-directed variant of the kernel (A* with a feasible potential):
/// single-source shortest path from `src` to one `target` under `lens`
/// (indexed by each arc's length index), expanding nodes in order of
/// `dist + potential[node]`.
///
/// `potential` must be **consistent** for the current lengths:
/// `potential[u] <= lens[lid] + potential[v]` for every arc `u -> v`, and
/// `potential[target]` must be 0 (up to additive shift). Exact distances to
/// `target` computed under an *older, everywhere-smaller-or-equal* length
/// function satisfy this — the property the flow solver exploits, since its
/// lengths only ever grow. An inconsistent potential would silently produce
/// wrong distances; callers own that invariant.
///
/// On return, settled nodes (in particular `target`, if reachable) have exact
/// distances and parents in `ws`, like [`sssp_csr`] with an early exit at
/// `target`; with a sharp potential the search expands little beyond the
/// shortest path itself.
///
/// `bound` caps the queue: a relaxation whose key `dist + potential` exceeds
/// it queues nothing. **Precondition:** `bound >= d(src, target)` (for a
/// potential that is 0 at the target) with a small relative margin — the
/// length of any known `src -> target` path times `1 + 1e-9` qualifies, and
/// `f64::INFINITY` disables the cap. Under it the run is the uncapped run,
/// bit for bit (settle order, distances, parents): the target pops at its
/// distance, pops follow `(key, node)` order, so every entry that pops before
/// it has a key within the cap, and an entry left out would only have popped
/// after it. The margin is for rounding: a potential is consistent only up
/// to it, so a key popped before the target can exceed the target's distance
/// by a few ulps. Violating the precondition can leave the target
/// unsettled.
pub fn sssp_csr_goal(
    csr: &CsrGraph,
    src: usize,
    lens: &[f64],
    target: usize,
    potential: &[f64],
    bound: f64,
    ws: &mut SsspWorkspace,
) {
    ws.begin(csr.num_nodes(), src, 2);
    let generation = ws.generation;
    if potential[src].is_infinite() {
        return; // target unreachable from src
    }
    ws.nodes[src].dist = 0.0;
    ws.nodes[src].stamp = generation;
    ws.parents[src] = [NO_PARENT, NO_PARENT];
    ws.heap_push(src as u32, potential[src]);
    while let Some(node) = ws.heap_pop() {
        let u = node as usize;
        debug_assert_eq!(ws.nodes[u].stamp, generation);
        ws.nodes[u].stamp = generation + 1;
        ws.order.push(node);
        if u == target {
            break;
        }
        let d = ws.nodes[u].dist;
        for (v, lid) in csr.neighbors(u) {
            let len = lens[lid];
            debug_assert!(len >= 0.0, "negative arc length");
            let nd = d + len;
            let head = ws.nodes[v];
            if head.stamp < generation {
                // A node left unqueued here stays unseen, so a later, shorter
                // relaxation within the cap queues it as the uncapped run's
                // decrease-key would have.
                let key = nd + potential[v];
                if nd < f64::INFINITY && !potential[v].is_infinite() && key <= bound {
                    ws.nodes[v].stamp = generation;
                    ws.nodes[v].dist = nd;
                    ws.parents[v] = [u as u32, lid as u32];
                    ws.heap_push(v as u32, key);
                }
            } else if head.stamp == generation && nd < head.dist {
                // Unlike the plain kernel, the settled check here is load-
                // bearing: the potential is consistent up to rounding, and
                // an ulp-level violation in a tie can make a *settled*
                // node's distance look improvable. The old lazy heap
                // absorbed that as a dead duplicate entry; an indexed heap
                // must drop it (the ulp never affects reported distances
                // beyond the tie itself). A queued key is within the cap,
                // and this only lowers it.
                ws.nodes[v].dist = nd;
                ws.parents[v] = [u as u32, lid as u32];
                ws.heap_decrease(v as u32, nd + potential[v]);
            }
        }
    }
}

/// Yen-style K shortest (simple) paths between `src` and `dst` by hop count,
/// used by the LLSKR replication (Fig 15). Paths are returned as node
/// sequences ordered by length; fewer than `k` paths may exist.
///
/// The CSR view and SSSP workspace are built once and reused across all spur
/// computations; candidate paths are deduplicated through a hash set and
/// ordered in a min-heap instead of the former `Vec::contains` /
/// `sort + remove(0)` combination, which was quadratic in the number of
/// generated candidates.
pub fn k_shortest_paths(g: &Graph, src: usize, dst: usize, k: usize) -> Vec<Vec<usize>> {
    if src == dst || k == 0 {
        return Vec::new();
    }
    let csr = CsrGraph::from_graph(g);
    let mut ws = SsspWorkspace::new();
    let mut len = vec![1.0; g.num_edges()];
    sssp_csr(&csr, src, &len, Some(&[dst]), &mut ws);
    let first = match ws.path_nodes(dst) {
        Some(p) => p,
        None => return Vec::new(),
    };
    let mut paths: Vec<Vec<usize>> = vec![first.clone()];
    // Every path ever enqueued (accepted or still a candidate), for O(1)
    // duplicate rejection.
    let mut enqueued: HashSet<Vec<usize>> = HashSet::from([first]);
    // Min-heap of candidates ordered by (hop count, node sequence): pops are
    // deterministic and O(log c) instead of a full sort per accepted path.
    let mut candidates: BinaryHeap<std::cmp::Reverse<(usize, Vec<usize>)>> = BinaryHeap::new();
    let mut banned_node = vec![false; g.num_nodes()];

    while paths.len() < k {
        let last = paths.last().unwrap().clone();
        for i in 0..last.len() - 1 {
            let spur_node = last[i];
            let root = &last[..=i];
            // Edge lengths: ban edges used by previous paths sharing this root,
            // and ban revisiting root nodes, by giving them infinite length.
            len.fill(1.0);
            for p in &paths {
                if p.len() > i + 1 && p[..=i] == root[..] {
                    let (a, b) = (p[i], p[i + 1]);
                    for &(v, eid) in g.neighbors(a) {
                        if v == b {
                            len[eid] = f64::INFINITY;
                        }
                    }
                }
            }
            for &node in &root[..root.len() - 1] {
                banned_node[node] = true;
            }
            for (eid, e) in g.edges().iter().enumerate() {
                if banned_node[e.u] || banned_node[e.v] {
                    len[eid] = f64::INFINITY;
                }
            }
            for &node in &root[..root.len() - 1] {
                banned_node[node] = false;
            }
            sssp_csr(&csr, spur_node, &len, Some(&[dst]), &mut ws);
            if let Some(spur) = ws.path_nodes(dst) {
                let mut total = root.to_vec();
                total.extend_from_slice(&spur[1..]);
                if !enqueued.contains(&total) {
                    enqueued.insert(total.clone());
                    candidates.push(std::cmp::Reverse((total.len(), total)));
                }
            }
        }
        match candidates.pop() {
            Some(std::cmp::Reverse((_, p))) => paths.push(p),
            None => break,
        }
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dijkstra's algorithm from `src` under the per-edge lengths `edge_len`
    /// (indexed by edge id): the kernel on a one-shot CSR view, as a full
    /// tree.
    fn dijkstra(g: &Graph, src: usize, edge_len: &[f64]) -> ShortestPathTree {
        assert_eq!(edge_len.len(), g.num_edges());
        let csr = CsrGraph::from_graph(g);
        let mut ws = SsspWorkspace::new();
        sssp_csr(&csr, src, edge_len, None, &mut ws);
        ws.to_tree(g.num_nodes())
    }

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn bfs_on_path() {
        let g = path_graph(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_unreachable() {
        let mut g = Graph::new(3);
        g.add_unit_edge(0, 1);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn apsp_matches_bfs() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let all = apsp_unweighted(&g);
        for (u, row) in all.iter().enumerate() {
            assert_eq!(*row, bfs_distances(&g, u));
        }
    }

    #[test]
    fn average_path_length_of_cycle() {
        // C4: distances from any node are 1,1,2 -> average 4/3.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let apl = average_path_length(&g).unwrap();
        assert!((apl - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn diameter_of_path() {
        assert_eq!(diameter(&path_graph(6)), Some(5));
    }

    #[test]
    fn disconnected_has_no_apl() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(2, 3);
        assert!(average_path_length(&g).is_none());
        assert!(diameter(&g).is_none());
    }

    #[test]
    fn dijkstra_respects_weights() {
        // Triangle where the direct 0-2 edge is expensive.
        let mut g = Graph::new(3);
        let e01 = g.add_unit_edge(0, 1);
        let e12 = g.add_unit_edge(1, 2);
        let e02 = g.add_unit_edge(0, 2);
        let mut len = vec![0.0; 3];
        len[e01] = 1.0;
        len[e12] = 1.0;
        len[e02] = 5.0;
        let t = dijkstra(&g, 0, &len);
        assert!((t.dist[2] - 2.0).abs() < 1e-12);
        assert_eq!(t.parent[2], Some((1, e12)));
        assert_eq!(t.parent[1], Some((0, e01)));
    }

    #[test]
    fn dijkstra_path_to_self_is_empty() {
        let g = path_graph(3);
        let t = dijkstra(&g, 1, &vec![1.0; g.num_edges()]);
        assert_eq!(t.dist[1], 0.0);
        assert_eq!(t.parent[1], None);
    }

    #[test]
    fn kernel_reuse_across_runs_matches_fresh() {
        // The same workspace driven across different sources and graphs gives
        // the same answers as fresh runs.
        let g1 = path_graph(6);
        let g2 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let csr1 = CsrGraph::from_graph(&g1);
        let csr2 = CsrGraph::from_graph(&g2);
        let len1 = vec![1.0; g1.num_edges()];
        let len2 = vec![1.0; g2.num_edges()];
        let mut ws = SsspWorkspace::new();
        for _ in 0..3 {
            for src in 0..g1.num_nodes() {
                sssp_csr(&csr1, src, &len1, None, &mut ws);
                let fresh = dijkstra(&g1, src, &len1);
                for v in 0..g1.num_nodes() {
                    assert_eq!(ws.dist(v), fresh.dist[v]);
                }
            }
            for src in 0..g2.num_nodes() {
                sssp_csr(&csr2, src, &len2, None, &mut ws);
                let fresh = dijkstra(&g2, src, &len2);
                for v in 0..g2.num_nodes() {
                    assert_eq!(ws.dist(v), fresh.dist[v]);
                }
            }
        }
    }

    #[test]
    fn settle_order_is_topological_with_nondecreasing_distance() {
        // Parents settle before children and distances are non-decreasing,
        // both with and without early exit — the invariants the aggregated
        // routing kernel's forward/reverse walks rely on.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5), (1, 4)]);
        let csr = CsrGraph::from_graph(&g);
        let len: Vec<f64> = (0..g.num_edges()).map(|e| 1.0 + 0.3 * e as f64).collect();
        let mut ws = SsspWorkspace::new();
        for targets in [None, Some(&[5usize, 4][..])] {
            sssp_csr(&csr, 0, &len, targets, &mut ws);
            let order = ws.settle_order().to_vec();
            assert_eq!(order.len(), ws.settled_count());
            assert_eq!(order[0], 0);
            let mut pos = vec![usize::MAX; g.num_nodes()];
            for (i, &v) in order.iter().enumerate() {
                pos[v as usize] = i;
            }
            let mut prev = 0.0;
            for &v in &order {
                let v = v as usize;
                assert!(ws.dist(v) >= prev);
                prev = ws.dist(v);
                if let Some((p, _)) = ws.parent(v) {
                    assert!(pos[p] < pos[v], "parent {p} settled after child {v}");
                }
            }
        }
    }

    #[test]
    fn early_exit_settles_all_targets() {
        // A long path: early exit at node 2 must still give exact distances
        // for nodes 1 and 2, and must not claim final distances beyond.
        let g = path_graph(10);
        let csr = CsrGraph::from_graph(&g);
        let len = vec![1.0; g.num_edges()];
        let mut ws = SsspWorkspace::new();
        sssp_csr(&csr, 0, &len, Some(&[2]), &mut ws);
        assert_eq!(ws.dist(1), 1.0);
        assert_eq!(ws.dist(2), 2.0);
        assert_eq!(ws.path_nodes(2).unwrap(), vec![0, 1, 2]);
        // Node 9 was certainly not settled before the early exit.
        assert_eq!(ws.dist(9), f64::INFINITY);
    }

    #[test]
    fn early_exit_with_multiple_targets() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 4), (0, 2), (2, 3), (3, 4), (0, 4)]);
        let csr = CsrGraph::from_graph(&g);
        let len = vec![1.0; g.num_edges()];
        let mut ws = SsspWorkspace::new();
        sssp_csr(&csr, 0, &len, Some(&[4, 3]), &mut ws);
        assert_eq!(ws.dist(4), 1.0);
        assert_eq!(ws.dist(3), 2.0);
        let full = dijkstra(&g, 0, &len);
        assert_eq!(ws.dist(4), full.dist[4]);
        assert_eq!(ws.dist(3), full.dist[3]);
    }

    #[test]
    fn early_exit_unreachable_target_terminates() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(2, 3);
        let csr = CsrGraph::from_graph(&g);
        let len = vec![1.0; g.num_edges()];
        let mut ws = SsspWorkspace::new();
        sssp_csr(&csr, 0, &len, Some(&[3]), &mut ws);
        assert_eq!(ws.dist(3), f64::INFINITY);
        assert!(ws.path_nodes(3).is_none());
        // Reachable side is fully settled.
        assert_eq!(ws.dist(1), 1.0);
    }

    #[test]
    fn infinite_lengths_ban_arcs() {
        let mut g = Graph::new(3);
        let e01 = g.add_unit_edge(0, 1);
        let _e12 = g.add_unit_edge(1, 2);
        let e02 = g.add_unit_edge(0, 2);
        let csr = CsrGraph::from_graph(&g);
        let mut len = vec![1.0; 3];
        len[e01] = f64::INFINITY;
        len[e02] = f64::INFINITY;
        let mut ws = SsspWorkspace::new();
        sssp_csr(&csr, 0, &len, None, &mut ws);
        assert_eq!(ws.dist(0), 0.0);
        assert_eq!(ws.dist(1), f64::INFINITY);
        assert_eq!(ws.dist(2), f64::INFINITY);
    }

    #[test]
    fn goal_directed_matches_plain_with_stale_consistent_potential() {
        // Potentials computed under older, smaller lengths stay consistent
        // once lengths grow, and the goal-directed kernel must then produce
        // exactly the plain kernel's distances.
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 5),
                (0, 3),
                (3, 4),
                (4, 5),
                (1, 4),
                (0, 5),
            ],
        );
        let csr = CsrGraph::from_graph(&g);
        let lens0: Vec<f64> = (0..g.num_edges()).map(|e| 1.0 + 0.1 * e as f64).collect();
        // Undirected edge lengths: distance to the target equals the distance
        // from the target, so a forward run provides the reverse potential.
        let target = 5;
        let pot = dijkstra(&g, target, &lens0).dist;
        // Grow a few lengths (monotone update, as the flow solver's are).
        let mut lens1 = lens0.clone();
        lens1[0] *= 3.0;
        lens1[7] *= 10.0;
        lens1[3] *= 1.5;
        let mut ws_goal = SsspWorkspace::new();
        let mut ws_plain = SsspWorkspace::new();
        for src in 0..5 {
            sssp_csr_goal(&csr, src, &lens1, target, &pot, f64::INFINITY, &mut ws_goal);
            sssp_csr(&csr, src, &lens1, Some(&[target]), &mut ws_plain);
            assert!(
                (ws_goal.dist(target) - ws_plain.dist(target)).abs() < 1e-12,
                "src {src}: goal {} vs plain {}",
                ws_goal.dist(target),
                ws_plain.dist(target)
            );
            // The goal-directed parent chain is a genuine path of that length.
            let nodes = ws_goal.path_nodes(target).unwrap();
            assert_eq!(nodes.first(), Some(&src));
            assert_eq!(nodes.last(), Some(&target));
        }
    }

    /// What a run reports: settle order, then `dist` bits and `parent` of
    /// every node.
    type RunReport = (Vec<u32>, Vec<u64>, Vec<Option<(usize, usize)>>);

    fn report(ws: &SsspWorkspace, n: usize) -> RunReport {
        (
            ws.settle_order().to_vec(),
            (0..n).map(|v| ws.dist(v).to_bits()).collect(),
            (0..n).map(|v| ws.parent(v)).collect(),
        )
    }

    /// The oracle for the indexed heap: a plain lazy-`BinaryHeap` Dijkstra
    /// with the kernel's relax rule (strict improvement only, the same packed
    /// `(key bits, node)` order, the goal variant's settled check and
    /// unreachable-potential skip, early exit once every target settled).
    /// A node improved twice holds two entries; the stale one pops after the
    /// node settled and is dropped.
    fn oracle(
        csr: &CsrGraph,
        src: usize,
        lens: &[f64],
        targets: Option<&[usize]>,
        goal: Option<(usize, &[f64])>,
    ) -> RunReport {
        use std::cmp::Reverse;
        let n = csr.num_nodes();
        let pot = |v: usize| goal.map_or(0.0, |(_, p)| p[v]);
        let mut dist = vec![f64::INFINITY; n];
        let mut parent = vec![None; n];
        let mut seen = vec![false; n];
        let mut settled = vec![false; n];
        let mut order = Vec::new();
        let mut pending: HashSet<usize> = targets.unwrap_or_default().iter().copied().collect();
        let mut heap = BinaryHeap::new();
        if !(targets.is_some() && pending.is_empty() || pot(src).is_infinite()) {
            dist[src] = 0.0;
            seen[src] = true;
            heap.push(Reverse(queue_key(pot(src), src as u32)));
        }
        while let Some(Reverse(entry)) = heap.pop() {
            let u = queue_node(entry) as usize;
            if settled[u] {
                continue;
            }
            settled[u] = true;
            order.push(u as u32);
            if targets.is_some() && pending.remove(&u) && pending.is_empty() {
                break;
            }
            if goal.is_some_and(|(t, _)| t == u) {
                break;
            }
            for (v, lid) in csr.neighbors(u) {
                let nd = dist[u] + lens[lid];
                let improves = if seen[v] {
                    !settled[v] && nd < dist[v]
                } else {
                    nd < f64::INFINITY && pot(v).is_finite()
                };
                if improves {
                    seen[v] = true;
                    dist[v] = nd;
                    parent[v] = Some((u, lid));
                    heap.push(Reverse(queue_key(nd + pot(v), v as u32)));
                }
            }
        }
        (
            order,
            (0..n)
                .map(|v| if settled[v] { dist[v] } else { f64::INFINITY }.to_bits())
                .collect(),
            (0..n).map(|v| parent[v].filter(|_| settled[v])).collect(),
        )
    }

    /// A seeded random directed multigraph (self-loops and parallel arcs
    /// included, some nodes unreachable), its reverse, and per-arc lengths:
    /// all 1 (the most ties), or spread over 30 orders of magnitude.
    fn random_instance(seed: u64, uniform: bool) -> (CsrGraph, CsrGraph, Vec<f64>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let n = rng.gen_range(2..60usize);
        let arcs: Vec<(usize, usize, usize)> = (0..rng.gen_range(0..4 * n))
            .map(|lid| (rng.gen_range(0..n), rng.gen_range(0..n), lid))
            .collect();
        let lens = arcs
            .iter()
            .map(|_| {
                if uniform {
                    1.0
                } else {
                    10f64.powf(30.0 * rng.gen::<f64>() - 15.0)
                }
            })
            .collect();
        let reverse = arcs.iter().map(|&(u, v, lid)| (v, u, lid));
        (
            CsrGraph::from_directed_arcs(n, arcs.clone()),
            CsrGraph::from_directed_arcs(n, reverse.collect::<Vec<_>>()),
            lens,
        )
    }

    /// Every run of the kernel on `seed`'s instance — plain from every
    /// source with and without targets, goal-directed towards every target
    /// under an exact and under a stale potential, uncapped and capped at the
    /// distance plus the rounding margin the precondition asks for — against
    /// the uncapped oracle, all through the one workspace `ws`.
    fn assert_kernel_matches_oracle(seed: u64, uniform: bool, ws: &mut SsspWorkspace) {
        use rand::{Rng, SeedableRng};
        let (csr, rev, lens) = random_instance(seed, uniform);
        let n = csr.num_nodes();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(!seed);
        for src in 0..n {
            let ts: Vec<usize> = (0..rng.gen_range(1..4usize))
                .map(|_| rng.gen_range(0..n))
                .collect();
            for targets in [None, Some(&ts[..])] {
                sssp_csr(&csr, src, &lens, targets, ws);
                let expect = oracle(&csr, src, &lens, targets, None);
                assert_eq!(report(ws, n), expect, "seed {seed} src {src} {targets:?}");
            }
        }
        // Potentials: reverse distances under the same lengths (exact, every
        // node on a shortest path ties), and under lengths shrunk arc by arc
        // (consistent once they grow back, as the flow solver uses them).
        let shrunk: Vec<f64> = lens.iter().map(|l| l * rng.gen::<f64>()).collect();
        for target in 0..n {
            for pot_lens in [&lens, &shrunk] {
                let pot: Vec<f64> = oracle(&rev, target, pot_lens, None, None)
                    .1
                    .into_iter()
                    .map(f64::from_bits)
                    .collect();
                let src = rng.gen_range(0..n);
                let expect = oracle(&csr, src, &lens, None, Some((target, &pot)));
                let dist = f64::from_bits(expect.1[target]);
                for bound in [f64::INFINITY, dist * (1.0 + 1e-9)] {
                    sssp_csr_goal(&csr, src, &lens, target, &pot, bound, ws);
                    assert_eq!(
                        report(ws, n),
                        expect,
                        "seed {seed} goal {src} -> {target} bound {bound}"
                    );
                }
            }
        }
        assert_repairs_match_oracle(seed, &csr, &lens, &mut rng, ws);
    }

    /// Repairs from every source of `csr` to `lens`, against the oracle:
    /// seeded with the tree at `lens` itself, at an independent random
    /// length function, and at `lens` grown on a random third of the arcs,
    /// each through the tree form and the in-place form; then from trees
    /// that miss a reachable node or list one twice (a plain run), and from
    /// the tree at `lens` to lengths that ban a fifth of the arcs (nodes
    /// drop out).
    fn assert_repairs_match_oracle(
        seed: u64,
        csr: &CsrGraph,
        lens: &[f64],
        rng: &mut impl rand::Rng,
        ws: &mut SsspWorkspace,
    ) {
        let n = csr.num_nodes();
        let random: Vec<f64> = lens
            .iter()
            .map(|_| 10f64.powf(30.0 * rng.gen::<f64>() - 15.0))
            .collect();
        let grown: Vec<f64> = lens
            .iter()
            .map(|&l| {
                if rng.gen_range(0..3u32) == 0 {
                    l * (1.0 + 4.0 * rng.gen::<f64>())
                } else {
                    l
                }
            })
            .collect();
        let banned: Vec<f64> = lens
            .iter()
            .map(|&l| {
                if rng.gen_range(0..5u32) == 0 {
                    f64::INFINITY
                } else {
                    l
                }
            })
            .collect();
        let repair = |tree: &[u32], src: usize, to: &[f64], ws: &mut SsspWorkspace| {
            sssp_csr_repair_by(csr, src, |lid| to[lid], tree.iter().copied(), ws);
            report(ws, n)
        };
        for src in 0..n {
            let expect = oracle(csr, src, lens, None, None);
            for (name, old) in [("same", lens), ("random", &random), ("grown", &grown)] {
                sssp_csr(csr, src, old, None, ws);
                let tree = ws.settle_order().to_vec();
                let at = format!("seed {seed} src {src} from the {name} tree");
                assert_eq!(repair(&tree, src, lens, ws), expect, "{at}");
                sssp_csr(csr, src, old, None, ws);
                sssp_csr_repair_own_by(csr, src, |lid| lens[lid], ws);
                assert_eq!(report(ws, n), expect, "{at}, in place");
            }
            sssp_csr(csr, src, lens, None, ws);
            let tree = ws.settle_order().to_vec();
            let at = format!("seed {seed} src {src}");
            if let [rest @ .., _] = &tree[..] {
                assert_eq!(repair(rest, src, lens, ws), expect, "{at}, missing a node");
            }
            let twice: Vec<u32> = tree
                .iter()
                .chain(&tree[tree.len() / 2..])
                .copied()
                .collect();
            assert_eq!(repair(&twice, src, lens, ws), expect, "{at}, listed twice");
            let expect = oracle(csr, src, &banned, None, None);
            assert_eq!(repair(&tree, src, &banned, ws), expect, "{at}, banned arcs");
        }
    }

    #[test]
    fn kernel_matches_a_lazy_binary_heap_dijkstra_bit_for_bit() {
        // Entries `(key bits, node)` are unique, so any correct heap pops
        // them in one order: the indexed bottom-up heap must settle the same
        // nodes in the same order, with the same distance bits and parents,
        // as the textbook lazy heap — and so must a repair, whatever tree it
        // starts from.
        let mut ws = SsspWorkspace::new();
        for seed in 0..40 {
            for uniform in [true, false] {
                assert_kernel_matches_oracle(seed, uniform, &mut ws);
            }
        }
    }

    #[test]
    fn repair_breaks_a_tie_between_parallel_arcs_by_csr_order() {
        // Node 1's label falls from 1 + 2^-52 to 1 after its turn (via node
        // 3, which comes last). At the stale label the second of its two
        // parallel arcs to node 2 is the shorter (ties round to even:
        // 1 + 2^-52 + 1 = 2, 1 + 2^-52 + 1 + 2^-52 = 2 + 2^-51); at the final
        // label both reach 2, and Dijkstra keeps the first in CSR order.
        let over = 1.0 + f64::EPSILON;
        let arcs = [(0, 1, 0), (0, 3, 1), (3, 1, 2), (1, 2, 3), (1, 2, 4)];
        let lens = [over, 0.5, 0.5, over, 1.0];
        let csr = CsrGraph::from_directed_arcs(4, arcs);
        let mut ws = SsspWorkspace::new();
        sssp_csr_repair_by(&csr, 0, |lid| lens[lid], [0, 1, 2, 3], &mut ws);
        let repaired = report(&ws, 4);
        assert_eq!(repaired, oracle(&csr, 0, &lens, None, None));
        assert_eq!(ws.parent(2), Some((1, 3)));
    }

    #[test]
    fn kernel_matches_the_oracle_across_a_generation_wrap_around() {
        // Stamps restart from zero when the generation nears `u32::MAX`;
        // runs on either side of the wrap (and state the run before it left)
        // must not leak into one another.
        let mut ws = SsspWorkspace::new();
        assert_kernel_matches_oracle(1, false, &mut ws);
        ws.generation = u32::MAX - 7;
        for seed in 2..6 {
            for uniform in [true, false] {
                assert_kernel_matches_oracle(seed, uniform, &mut ws);
            }
        }
        assert!(ws.generation < 1 << 16, "no wrap-around happened");
    }

    #[test]
    fn k_shortest_paths_on_cycle() {
        // C4 between opposite corners has exactly two 2-hop paths.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let ps = k_shortest_paths(&g, 0, 2, 4);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].len(), 3);
        assert_eq!(ps[1].len(), 3);
        assert_ne!(ps[0], ps[1]);
    }

    #[test]
    fn k_shortest_paths_simple_and_ordered() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 4), (0, 2), (2, 3), (3, 4), (0, 4)]);
        let ps = k_shortest_paths(&g, 0, 4, 3);
        assert_eq!(ps.len(), 3);
        // Ordered by hop count: 1-hop, 2-hop, 3-hop.
        assert!(ps[0].len() <= ps[1].len() && ps[1].len() <= ps[2].len());
        for p in &ps {
            // simple paths: no repeated nodes
            let mut q = p.clone();
            q.sort_unstable();
            q.dedup();
            assert_eq!(q.len(), p.len());
        }
    }

    #[test]
    fn k_shortest_paths_are_distinct() {
        // Dense graph with many equal-length paths: all returned paths must be
        // pairwise distinct (the hash-set dedup at work).
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 4),
                (2, 4),
                (3, 4),
                (4, 5),
                (0, 5),
            ],
        );
        let ps = k_shortest_paths(&g, 0, 5, 6);
        for i in 0..ps.len() {
            for j in i + 1..ps.len() {
                assert_ne!(ps[i], ps[j]);
            }
        }
        assert!(ps.len() >= 4);
    }
}
