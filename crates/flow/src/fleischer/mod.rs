//! Fleischer / Garg–Könemann multiplicative-weights FPTAS for maximum
//! concurrent flow, with a practical twist: alongside the classical
//! guarantee, the solver maintains
//!
//! * a **feasible lower bound** from the *blocks* of flow routed between
//!   bound evaluations: any non-negative weighting of them is a
//!   multicommodity flow, feasible once rescaled to respect capacities
//!   exactly, and a small packing LP ([`tb_lp::Packing`], kept open across
//!   the solve) picks the best weighting at every evaluation. The flow
//!   accumulated since phase 0 (the bound the classical analysis is stated
//!   for) and its suffix windows are particular weightings; the LP's mix
//!   forgets the congestion the uniform-length first phases pile up and
//!   closes the gap in about 20 % fewer phases than the best of those (see
//!   the `phase` module), and
//! * a **dual upper bound** `D(l)/alpha(l)`, valid for any non-negative
//!   lengths by LP duality, evaluated on the current length function and on
//!   a **window average of the normalised iterates** `l / D(l)`, which is
//!   where the multiplicative-weights analysis actually converges: the last
//!   iterate's bound bounces by about ±1 % per evaluation on sparse TMs, the
//!   average does not (see `phase`) — each only when the paths the solve
//!   already holds say its sweep could close the gap,
//!
//! and stops as soon as the two are within `target_gap` of each other, or when
//! the classical termination `D(l) >= 1` fires first (1 of the scenario
//! suite's 919 FPTAS solves at seed 1).
//! On the instances the paper evaluates the bounds typically close to within
//! a few percent long before the worst-case phase count is reached.
//!
//! ## Layout
//!
//! * `phase` — the solve in three parts: setup, the phase loop (every source
//!   routed once per phase, bound evaluations on a fixed cadence) and the
//!   closing evaluation; the bound bookkeeping and the dual sweeps;
//! * `blocks` — the flow blocks and the LP that mixes them into the
//!   feasible bound;
//! * `route` — the per-solve context `RouteCtx` (the instance and its
//!   demand tables), the two per-source routing kernels (known-path loop for
//!   a single destination, aggregated bottom-up tree for several), the tree
//!   computation and the goal-direction potential rows.
//!
//! A solve passes two values around: the read-only `RouteCtx`, and the
//! [`SolverWorkspace`], which holds everything the solve mutates — lengths,
//! SSSP scratch, the kernels' buffers, potential rows, held paths, the flow
//! per arc and per commodity and the [`SolveStats`] counters. The kernels and
//! the bound evaluation take `(ctx, what the call is about, ws)`.
//!
//! Every solve runs **one serial trajectory**: source by source, lengths
//! updated in place. Parallelism lives one layer up (the sweep engine spreads
//! cells, and a relative cell's 1+k solves, over the shared pool) and in the
//! read-only sweeps of a bound evaluation below. Intra-solve batching of the
//! routing itself (fixed rounds, work-stealing chunks, bounded staleness) was
//! built, measured slower than this trajectory on every shape at one and two
//! workers, and removed; CHANGES.md keeps the numbers.
//!
//! ## Hot-path machinery
//!
//! The inner loop is a shortest-path computation per source per routing
//! step, so the solver is built around the shared `tb_graph` SSSP kernel and
//! around not calling it:
//!
//! * arcs live in a CSR view ([`FlowProblem::csr`]); no nested adjacency
//!   vectors are chased,
//! * all per-iteration state (Dijkstra arrays and heap, remaining demand,
//!   the tree kernel's per-node buffers, the known paths) lives in the
//!   [`SolverWorkspace`], allocated once and reset in O(1) via generation
//!   counters (the known paths in O(sources), at the start of every solve).
//!   A sweep that fans out gives each block of sources a fresh SSSP
//!   workspace; it fans out only past [`PAR_MIN_SWEEP_WORK`] (sources ×
//!   arcs), where that allocation is small beside the block's searches,
//! * every SSSP call passes the source's destination set, so Dijkstra stops
//!   as soon as the last relevant node is settled,
//! * **reuse under the slack**: after a capacity-limited step a source routes
//!   again on what it already has — the last tree (multi-destination
//!   sources) or any path its searches have returned so far
//!   (single-destination sources, next section) — while the current length
//!   of that path stays within `1 + eps/4` of the distance its latest search
//!   returned. Sound because arc lengths only ever grow, so that distance
//!   lower-bounds the current one and the path is `(1 + eps/4)`-shortest —
//!   the classical Fleischer argument,
//! * **sweeps only where the gap can close, one row per dense turn**: the
//!   dual bound needs every commodity's distance at the current lengths and
//!   the goal-directed searches need potentials. One reverse Dijkstra per
//!   single-destination source's target serves both at a bound evaluation
//!   (the refreshed row is the potential, and its entry at the source is the
//!   distance); only multi-destination sources run a forward tree for the
//!   bound, and the averaged bound adds one forward search per source. A row
//!   whose searches stopped pruning turns *dense* and is re-derived,
//!   serially, at the start of each of its source's turns (next section), so
//!   an evaluation re-derives only the other rows unconditionally. The dense
//!   rows, the forward trees and the averaged bound's searches run only when
//!   the bound over the paths the solve already holds — a known path per
//!   single-destination source, the last routed tree per multi-destination
//!   one, never shorter than a shortest path — says the sweep could close
//!   the gap, which on the `/A2A` pass of `fig05_06` skips every sweep at
//!   822 of 1,008 evaluations (see `phase`). All these sweeps are
//!   read-only over the length function and fan out to the pool once the
//!   instance is large enough to amortize it,
//! * **searches capped by the best known path**: a single-destination
//!   source's search never queues a node keyed past the current length of
//!   the shortest path the source already knows, which changes none of its
//!   results ([`tb_graph::sssp_csr_goal`]),
//! * **trees repaired, not recomputed**: a multi-destination source with at
//!   least half the graph as destinations settles the whole graph every
//!   search, and only its first tree of a solve runs Dijkstra. Every later
//!   one is repaired ([`tb_graph::sssp_csr_repair_by`]) from a tree the
//!   source already has — the first search of a turn from the tree it held
//!   since its last turn, a capacity-limited re-search from the turn's own,
//!   and the dual sweeps from the held trees: one relaxation pass over the
//!   arcs in the old tree's order, a Dijkstra run over the few nodes whose
//!   label fell after their turn, and an insertion sort of the settle order.
//!   The repair returns Dijkstra's tree bit for bit (settle order, distances,
//!   parents), so the trajectory is the one plain Dijkstra gives; between
//!   two turns of a source about 6 parents of a ~100-node tree change. On
//!   the `/A2A` pass of `fig05_06` 132,176 of the 170,708 searches repair.
//!   Early-exit searches (fewer destinations than half the graph) and
//!   single-destination ones stay on Dijkstra, and so do the potential rows:
//!   repairing a dense row from the tree of its previous derivation was
//!   bit-identical on the `/1/LM` pass (37,743 re-derivations) but saved no
//!   more than the run-to-run spread of their ~180 ms. Early exit itself
//!   stays too: settling the whole graph and repairing for every
//!   multi-destination source was bit-identical but 3 % slower on the `/A2A`
//!   pass, its five early-exit cells losing time.
//!
//! [`SolveStats::searches`] and [`SolveStats::path_reuses`] count, per solve,
//! how often a step searched and how often it did not;
//! [`SolveStats::repairs`] how many of those searches repaired a tree;
//! [`SolveStats::settles`] how much of the graph the goal-directed searches
//! settled, [`SolveStats::row_refreshes`] how many rows dense turns
//! re-derived, and [`SolveStats::evaluations`] / [`SolveStats::screened`]
//! how many bound evaluations ran and how many of them ran no sweep;
//! [`SolveStats::lp_solves`], [`SolveStats::lp_pivots`] and
//! [`SolveStats::blocks`] what the feasible bound's LP cost.
//!
//! ## Goal-directed routing and known paths for sparse TMs
//!
//! Monotone lengths yield one more structural win: shortest-path distances
//! *to* a node, computed under any earlier (pointwise smaller) length
//! function, form a **consistent A\* potential** for the current lengths.
//! For every source with a single destination — the shape of matching-style
//! near-worst-case TMs, where each switch talks to one peer — the solver
//! keeps reverse distances to that destination (a *potential row*, re-derived
//! by the bound evaluations, in parallel for large instances) and searches
//! with the goal-directed kernel [`tb_graph::sssp_csr_goal`] instead of a
//! full Dijkstra. Distances and routed paths remain *exact*; once the length
//! function differentiates, the search expands little beyond the shortest
//! path itself, instead of settling the whole graph per iteration.
//!
//! On short-diameter graphs that pruning fades — most of the graph lies
//! within the pair's distance — while a source's turn needs many steps: each
//! capacity-limited step multiplies its bottleneck arc by `1 + eps`, which
//! puts the path just routed past the slack. So such a source routes with
//! its own loop (`route_source_single`): it keeps the last 16 distinct
//! paths its searches returned (a fixed, measured capacity; least recently
//! routed evicted; kept across phases, emptied per solve), and after a
//! capacity-limited step routes along the shortest of them under the current
//! lengths if that is within the slack of the turn's latest search distance
//! `D`. Only when none qualifies does it search again, which raises `D` and
//! records the path. The turn's first step always searches: across phases
//! lengths grow by about `1 + eps`, so no old distance is a useful lower
//! bound. The known paths still give an upper one: every search queues
//! nothing keyed past the current length of the shortest of them, which
//! leaves its result bit for bit as it was and took the `/1/LM` pass of
//! `fig05_06` from 620 to 572 ms (2-core x86 box). One path per step also
//! means no per-arc availability bookkeeping. On the `/1/LM` pass the known
//! paths answer 64 % of the in-turn re-searches (searches 922,860 → 453,471
//! when they were introduced).
//!
//! That makes searches rarer, not cheaper: between bound evaluations a row
//! goes stale (every phase grows the lengths by about `1 + eps`, unevenly),
//! and on short-diameter graphs a search under a stale row settles most of
//! the graph anyway (`HyperX/1/LM`, 64 switches: about 50 nodes per search,
//! first of turn or not). So a row turns **dense** for the rest of the solve
//! once the searches of one of its source's turns settle, on average, more
//! than half the graph, and each later turn of that source starts with one
//! reverse Dijkstra at the turn's starting lengths: its searches then run on
//! an exact potential (about 8 settles per search on `HyperX/1/LM`, where
//! 9,545 of the 9,728 turns re-derive). Rows that never turn dense keep the
//! bound cadence alone; a solve in which no row turns dense — every solve
//! without single-destination sources (all-to-all) among them — never
//! re-derives a row at the start of a turn. Across the `/1/LM` pass of
//! `fig05_06` dense rows took the goal-directed searches' settles from
//! 4.44 M to 1.75 M at about the same search count.
//!
//! ## Aggregated tree routing for sources with several destinations
//!
//! Every source with two or more destinations — all-to-all and friends,
//! where one source talks to most of the graph, and random matchings of
//! degree two alike — routes *all* its remaining demands in one bottom-up pass
//! over its shortest-path tree instead of walking each destination's path
//! (O(sum of path lengths) per tree iteration, re-touching the arcs near the
//! source once per destination): the SSSP workspace exposes its settle order
//! ([`tb_graph::SsspWorkspace::settle_order`]), a reverse walk over that
//! order folds per-node subtree demand into the parent, and each tree arc is
//! loaded exactly once with its aggregate. If some arc's aggregate load
//! exceeds its capacity, the whole batch is scaled by the binding `cap/load`
//! ratio and the tree iteration repeats, so the per-iteration length-update
//! factor stays within `1 + eps`. The kernel follows from the destination
//! count alone, with no threshold: a per-destination walk for sources below
//! a graph-size-derived one ran the scenario suite at seed 1 in 57,579
//! phases, the tree for all of them in 57,547. `solver_regression` holds the
//! tree to the frozen per-destination walk of `tb_bench::legacy` (within the
//! FPTAS gap, certificates verified) on its small grid and on five 64-switch
//! multi-destination shapes.

mod blocks;
mod phase;
mod route;

use crate::instance::FlowProblem;
use crate::lengths::MwuLengths;
use crate::ThroughputBounds;
use tb_graph::{Graph, SsspWorkspace};
use tb_traffic::TrafficMatrix;

/// Tuning knobs for the FPTAS.
#[derive(Debug, Clone, Copy)]
pub struct FleischerConfig {
    /// Multiplicative-weights step size (the classical epsilon). Smaller is
    /// more accurate but runs more phases.
    pub epsilon: f64,
    /// Stop once `(upper - lower) / upper <= target_gap`.
    pub target_gap: f64,
    /// Hard cap on the number of phases (safety valve).
    pub max_phases: usize,
    /// How many phases to run between bound evaluations (each of which also
    /// refreshes the goal-direction potentials).
    pub check_interval: usize,
}

impl Default for FleischerConfig {
    fn default() -> Self {
        FleischerConfig {
            epsilon: 0.07,
            target_gap: 0.03,
            max_phases: 20_000,
            check_interval: 8,
        }
    }
}

impl FleischerConfig {
    /// A faster, slightly looser configuration for large experiment sweeps.
    pub fn fast() -> Self {
        FleischerConfig {
            epsilon: 0.12,
            target_gap: 0.05,
            check_interval: 4,
            ..Default::default()
        }
    }

    /// A tighter configuration for validation against the exact LP.
    pub fn precise() -> Self {
        FleischerConfig {
            epsilon: 0.03,
            target_gap: 0.01,
            check_interval: 16,
            ..Default::default()
        }
    }

    /// Returns this configuration unchanged. The routing kernel follows from
    /// each source's destination count alone (see the module docs), so there
    /// is no aggregation threshold left to pick; the identity stays only for
    /// callers written against the graph-size-aware threshold.
    pub fn with_auto_aggregation(self, _num_switches: usize) -> Self {
        self
    }
}

/// Convergence counters of one solve, reported by
/// [`FleischerSolver::solve_in`]. The determinism and search-count
/// tests read these; the `benchmark/` harness and `TB_SOLVER_TRACE` print them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Phases executed (each phase routes every source's full demand once).
    pub phases: usize,
    /// Forward shortest-path searches run: by the routing kernels, by the
    /// last-iterate dual bound for multi-destination sources, and by the
    /// averaged dual bound for every source, at the evaluations that run
    /// those sweeps. The potential refresh's reverse Dijkstras are not
    /// counted.
    pub searches: usize,
    /// Of those searches, the full-sweep trees of multi-destination sources
    /// that were repaired from a tree the source held rather than computed
    /// from scratch (see the module docs); the same trees, bit for bit.
    pub repairs: usize,
    /// Routing steps of single-destination sources that went along a known
    /// path instead of searching (see the module docs).
    pub path_reuses: usize,
    /// Potential rows re-derived at the start of a turn because they turned
    /// dense (see the module docs); the bound evaluations' refreshes are not
    /// counted.
    pub row_refreshes: usize,
    /// Nodes settled by the goal-directed searches of single-destination
    /// sources — what the potentials save is settles per search.
    pub settles: usize,
    /// Bound evaluations run, the closing one included.
    pub evaluations: usize,
    /// Evaluations that ran no dual sweep, because the paths the solve held
    /// showed that neither dual candidate could close the gap (see the
    /// module docs).
    pub screened: usize,
    /// Block LP solves run by the bound evaluations: one per round of
    /// lazily added rows.
    pub lp_solves: usize,
    /// Simplex pivots of those LP solves.
    pub lp_pivots: usize,
    /// Flow blocks held when the solve ended (merged past a cap).
    pub blocks: usize,
    /// Whether the solve met its accuracy contract (classical FPTAS
    /// termination or the target bound gap) before any budget ran out.
    pub converged: bool,
    /// Whether the window average of the normalised lengths (rather than the
    /// lengths at some evaluation) set the reported upper bound.
    pub upper_from_average: bool,
}

/// Everything a [`FleischerSolver`] solve mutates: the SSSP workspace, the
/// multiplicative-weights length state, the per-iteration buffers, and the
/// per-solve accumulators (flow per arc and per commodity, the counters).
/// The routing kernels and the bound evaluation take it whole. Sized lazily
/// and reusable across `solve` calls: once the largest instance has been
/// seen, the buffers held here stop allocating (per-solve setup such as the
/// `FlowProblem` arc view and demand tables still allocates), and results are
/// identical to fresh-workspace runs (see the determinism tests).
#[derive(Debug, Clone, Default)]
pub struct SolverWorkspace {
    /// Dijkstra state shared by routing iterations and sequential bound
    /// sweeps.
    sssp: SsspWorkspace,
    /// Remaining un-routed demand of the current source's destinations.
    remaining: Vec<f64>,
    /// Multiplicative-weights lengths + capacities + incremental `D(l)`.
    mwu: MwuLengths,
    /// Goal-direction potentials, one row of `num_nodes` per single-dest
    /// source (reverse distances to its destination).
    potentials: route::PotentialRows,
    /// Per-node remaining subtree demand, folded bottom-up over the settle
    /// order by the aggregated routing kernel.
    subtree: Vec<f64>,
    /// Per-node current tree-path length, re-derived top-down over the settle
    /// order when the aggregated kernel revalidates a reused tree.
    cur_len: Vec<f64>,
    /// Paths the single-destination sources' searches have returned and the
    /// latest trees of the multi-destination sources, emptied at the start
    /// of every solve.
    held: route::HeldPaths,
    /// Flow routed per arc since the start of the solve.
    flow_arc: Vec<f64>,
    /// Demand routed per commodity since the start of the solve, per source
    /// in destination order.
    routed: Vec<Vec<f64>>,
    /// The solve's counters; the kernels count their searches, repairs,
    /// reuses, settles and row re-derivations, the evaluations the rest.
    stats: SolveStats,
}

impl SolverWorkspace {
    /// Creates an empty workspace; buffers are sized lazily by the first
    /// solve.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Fan SSSP sweeps out to the thread pool only when `sweeps * num_arcs`
/// clears this much work — below it, pool handoff costs more than it saves.
/// Public so the regression test that compares the fanned-out and inline
/// sweeps can assert its instance is on the fanned-out side.
pub const PAR_MIN_SWEEP_WORK: usize = 1 << 17;

/// Runs one read-only sweep, `f` over `items` in order: on the pool, each
/// block on a fresh SSSP workspace, once `work` (searches × arcs) clears
/// [`PAR_MIN_SWEEP_WORK`] and the pool is wider than one thread; otherwise
/// inline on `sssp`. Results come back in input order either way.
fn sweep_fan_out<T: Send, U: Send>(
    work: usize,
    items: impl IntoIterator<Item = T>,
    sssp: &mut SsspWorkspace,
    f: impl Fn(&mut SsspWorkspace, T) -> U + Sync,
) -> Vec<U> {
    if work >= PAR_MIN_SWEEP_WORK && rayon::current_num_threads() > 1 {
        rayon::map_init(items, SsspWorkspace::new, f)
    } else {
        items.into_iter().map(|x| f(sssp, x)).collect()
    }
}

/// A throughput solve's full result: the bracketing bounds, the convergence
/// counters, the structured degradation status, and the optimality
/// certificate backing the bounds. Returned by
/// [`FleischerSolver::solve_outcome`], the degradation-aware entry point.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The bracketing interval (always finite, `0 <= lower <= upper`).
    pub bounds: ThroughputBounds,
    /// Convergence counters of the underlying solve (all zero when the
    /// instance was trivial and no phase loop ran).
    pub stats: SolveStats,
    /// Structured status: converged, budget-exhausted, or
    /// disconnected-demands-dropped.
    pub status: crate::SolveStatus,
    /// The optimality certificate for the solved instance. When demands
    /// were dropped
    /// ([`DisconnectedDemandsDropped`](crate::SolveStatus::DisconnectedDemandsDropped)),
    /// it describes the surviving sub-TM — verify it against
    /// [`crate::drop_disconnected_demands`]' output.
    pub certificate: crate::ThroughputCertificate,
}

/// Maximum-concurrent-flow solver (see module docs).
#[derive(Debug, Clone, Default)]
pub struct FleischerSolver {
    config: FleischerConfig,
}

impl FleischerSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: FleischerConfig) -> Self {
        FleischerSolver { config }
    }

    /// Computes throughput bounds for `tm` on `graph`.
    ///
    /// Returns `ThroughputBounds { lower: 0.0, upper: 0.0 }` if some demand
    /// pair is disconnected (the concurrent flow is then zero).
    pub fn solve(&self, graph: &Graph, tm: &TrafficMatrix) -> ThroughputBounds {
        self.solve_in(graph, tm, &mut SolverWorkspace::new(), false)
            .0
    }

    /// The solve itself, in a caller-provided workspace so buffers amortize
    /// across many solves (sweeps, relative-throughput sampling); results are
    /// identical to a fresh workspace. Returns the bounds, the convergence
    /// counters and, with `want_cert`, the optimality certificate. Capture is
    /// trajectory-neutral — bounds and stats are bit-identical either way; it
    /// costs two `O(num_arcs)` snapshots per bound improvement plus one
    /// canonical shortest-path sweep at the end. Strict semantics: a
    /// disconnected demand pins the result to zero.
    pub fn solve_in(
        &self,
        graph: &Graph,
        tm: &TrafficMatrix,
        ws: &mut SolverWorkspace,
        want_cert: bool,
    ) -> (
        ThroughputBounds,
        SolveStats,
        Option<crate::ThroughputCertificate>,
    ) {
        crate::record_solver_invocation();
        let prob = FlowProblem::new(graph, tm);
        let solved = phase::solve_problem(&self.config, graph, &prob, ws, want_cert);
        (solved.bounds, solved.stats, solved.cert)
    }

    /// Degradation-aware solve: drops demands whose endpoints are
    /// disconnected in `graph`, solves the surviving sub-TM, and reports a
    /// structured [`SolveStatus`](crate::SolveStatus) instead of collapsing
    /// the whole result to zero (the concurrent-flow definition forces
    /// `t = 0` whenever *any* pair is unreachable, which is useless for
    /// comparing degraded networks). An empty or fully-disconnected TM
    /// yields an exact zero result rather than a panic. Bounds are always
    /// finite and non-negative.
    pub fn solve_outcome(&self, graph: &Graph, tm: &TrafficMatrix) -> SolveOutcome {
        let (kept_tm, dropped) = crate::drop_disconnected_demands(graph, tm);
        if kept_tm.num_flows() == 0 {
            let status = if dropped == 0 {
                crate::SolveStatus::Converged
            } else {
                crate::SolveStatus::DisconnectedDemandsDropped { dropped, kept: 0 }
            };
            return SolveOutcome {
                bounds: ThroughputBounds::exact(0.0),
                stats: SolveStats {
                    converged: true,
                    ..SolveStats::default()
                },
                status,
                certificate: crate::ThroughputCertificate::trivial_zero(),
            };
        }
        let (bounds, stats, cert) =
            self.solve_in(graph, &kept_tm, &mut SolverWorkspace::new(), true);
        let status = if dropped > 0 {
            crate::SolveStatus::DisconnectedDemandsDropped {
                dropped,
                kept: kept_tm.num_flows(),
            }
        } else if stats.converged {
            crate::SolveStatus::Converged
        } else {
            crate::SolveStatus::BudgetExhausted
        };
        SolveOutcome {
            bounds,
            stats,
            status,
            certificate: cert.expect("certificate requested"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_graph::Graph;
    use tb_traffic::{Demand, TrafficMatrix};

    fn solver() -> FleischerSolver {
        FleischerSolver::new(FleischerConfig::precise())
    }

    fn demand(src: usize, dst: usize, amount: f64) -> Demand {
        Demand { src, dst, amount }
    }

    #[test]
    fn single_link_single_flow() {
        // One unit-capacity link, demand 1: throughput exactly 1.
        let g = Graph::from_edges(2, &[(0, 1)]);
        let tm = TrafficMatrix::new(2, vec![demand(0, 1, 1.0)]);
        let b = solver().solve(&g, &tm);
        assert!(b.lower <= b.upper + 1e-9);
        assert!((b.lower - 1.0).abs() < 0.03, "lower {}", b.lower);
        assert!((b.upper - 1.0).abs() < 0.03, "upper {}", b.upper);
    }

    #[test]
    fn path_graph_shared_bottleneck() {
        // Path 0-1-2, demands 0->2 and 1->2 of 1 each share link (1,2):
        // throughput 0.5.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm = TrafficMatrix::new(3, vec![demand(0, 2, 1.0), demand(1, 2, 1.0)]);
        let b = solver().solve(&g, &tm);
        assert!((b.lower - 0.5).abs() < 0.02, "lower {}", b.lower);
        assert!(b.upper >= 0.5 - 1e-9);
        assert!(b.gap() < 0.05);
    }

    #[test]
    fn two_disjoint_paths_double_capacity() {
        // A 4-cycle gives two disjoint 2-hop paths between opposite corners:
        // demand 0->2 of 1 achieves throughput 2.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let tm = TrafficMatrix::new(4, vec![demand(0, 2, 1.0)]);
        let b = solver().solve(&g, &tm);
        assert!((b.lower - 2.0).abs() < 0.08, "lower {}", b.lower);
    }

    #[test]
    fn disconnected_demand_gives_zero() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(2, 3);
        let tm = TrafficMatrix::new(4, vec![demand(0, 3, 1.0)]);
        let b = solver().solve(&g, &tm);
        assert_eq!(b.lower, 0.0);
        assert_eq!(b.upper, 0.0);
    }

    #[test]
    fn outcome_drops_disconnected_demands() {
        // Two components: 0-1 and 2-3. One demand inside a component, one
        // across. The strict concurrent-flow answer is zero; the
        // degradation-aware path drops the unreachable pair and solves the
        // survivor.
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(2, 3);
        let tm = TrafficMatrix::new(4, vec![demand(0, 1, 1.0), demand(0, 3, 1.0)]);
        let strict = solver().solve(&g, &tm);
        assert_eq!(strict.lower, 0.0);
        let out = solver().solve_outcome(&g, &tm);
        assert_eq!(
            out.status,
            crate::SolveStatus::DisconnectedDemandsDropped {
                dropped: 1,
                kept: 1
            }
        );
        assert!(out.status.is_degraded());
        assert!(out.bounds.lower > 0.5, "{:?}", out.bounds);
        assert!(out.bounds.lower <= out.bounds.upper + 1e-9);
    }

    #[test]
    fn outcome_with_all_demands_disconnected_is_zero() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(2, 3);
        let tm = TrafficMatrix::new(4, vec![demand(0, 2, 1.0), demand(1, 3, 1.0)]);
        let out = solver().solve_outcome(&g, &tm);
        assert_eq!(out.bounds, ThroughputBounds::exact(0.0));
        assert_eq!(
            out.status,
            crate::SolveStatus::DisconnectedDemandsDropped {
                dropped: 2,
                kept: 0
            }
        );
        assert_eq!(out.status.label(), "dropped-2-kept-0");
    }

    #[test]
    fn outcome_on_empty_tm_is_zero_not_panic() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let tm = TrafficMatrix::new(2, Vec::new());
        let out = solver().solve_outcome(&g, &tm);
        assert_eq!(out.bounds, ThroughputBounds::exact(0.0));
        assert_eq!(out.status, crate::SolveStatus::Converged);
        assert!(out.stats.converged);
    }

    #[test]
    fn outcome_converges_on_clean_instance() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm = TrafficMatrix::new(3, vec![demand(0, 2, 1.0), demand(1, 2, 1.0)]);
        let out = solver().solve_outcome(&g, &tm);
        assert_eq!(out.status, crate::SolveStatus::Converged);
        assert!(out.stats.converged);
        // Bit-identical to the plain entry point: the drop pass is a no-op
        // on connected instances.
        let plain = solver().solve(&g, &tm);
        assert_eq!(out.bounds.lower.to_bits(), plain.lower.to_bits());
        assert_eq!(out.bounds.upper.to_bits(), plain.upper.to_bits());
    }

    #[test]
    fn exhausted_phase_budget_reports_degraded_status() {
        // A zero phase budget leaves the bound gap wide open; the result
        // still carries valid best-so-far bounds (lower 0, the initial dual
        // certificate as upper).
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let tm = tb_traffic::synthetic::all_to_all(&[1usize; 4]);
        let cfg = FleischerConfig {
            max_phases: 0,
            ..FleischerConfig::default()
        };
        let out = FleischerSolver::new(cfg).solve_outcome(&g, &tm);
        assert_eq!(out.status, crate::SolveStatus::BudgetExhausted);
        assert!(!out.stats.converged);
        assert_eq!(out.stats.phases, 0);
        assert!(out.bounds.lower >= 0.0 && out.bounds.upper.is_finite());
        assert!(out.bounds.lower <= out.bounds.upper + 1e-9);
    }

    #[test]
    fn outcome_certificate_verifies_independently() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm = TrafficMatrix::new(3, vec![demand(0, 2, 1.0), demand(1, 2, 1.0)]);
        let out = solver().solve_outcome(&g, &tm);
        assert_eq!(out.status, crate::SolveStatus::Converged);
        crate::verify_certificate(&g, &tm, &out.certificate, 0.01 + 1e-9)
            .expect("converged certificate must verify at the target gap");
        // The certificate's canonical bounds agree with the solver's claimed
        // bounds (different rounding paths, same mathematics).
        let b = out.bounds;
        assert!((out.certificate.lower - b.lower).abs() <= 1e-7 * b.lower.max(1.0));
        assert!((out.certificate.upper - b.upper).abs() <= 1e-7 * b.upper.max(1.0));
        // Certificate capture is trajectory-neutral: the certified outcome's
        // bounds are bit-identical to the plain solve.
        let plain = solver().solve(&g, &tm);
        assert_eq!(b.lower.to_bits(), plain.lower.to_bits());
        assert_eq!(b.upper.to_bits(), plain.upper.to_bits());
    }

    #[test]
    fn block_mix_lower_bound_certifies_and_stays_below_the_exact_optimum() {
        // A 16-ring with a chord (i, i+7) on every even node, all-to-all: the
        // uniform-length first phases overload the chords, so the cumulative
        // flow rescales badly and the block LP weights the later blocks. The
        // certificate then carries a mix of blocks; it must pass the
        // independent verifier (capacity, conservation residuals, bit-exact
        // claims) at the target gap, and the bound must not overshoot the
        // exact optimum.
        let n = 16;
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        edges.extend((0..n).step_by(2).map(|i| (i, (i + 7) % n)));
        let g = Graph::from_edges(n, &edges);
        let tm = tb_traffic::synthetic::all_to_all(&vec![1usize; n]);
        let prob = FlowProblem::new(&g, &tm);
        let cfg = FleischerConfig::default();
        let mut ws = SolverWorkspace::new();
        let solved = phase::solve_problem(&cfg, &g, &prob, &mut ws, true);
        let stats = solved.stats;
        assert!(stats.converged && stats.blocks > 1, "{stats:?}");
        assert!(stats.lp_solves >= stats.evaluations, "{stats:?}");
        assert!(solved.bounds.gap() <= cfg.target_gap, "{:?}", solved.bounds);
        let cert = solved.cert.expect("certificate requested");
        crate::verify_certificate(&g, &tm, &cert, cfg.target_gap + 1e-9)
            .expect("a rescaled block mix is a feasible flow");
        let b = solved.bounds;
        assert!((cert.lower - b.lower).abs() <= 1e-7 * b.lower);
        assert!((cert.upper - b.upper).abs() <= 1e-7 * b.upper);
        let exact = crate::ExactLpSolver::new().solve(&g, &tm).unwrap().lower;
        assert!(
            b.lower <= exact * (1.0 + 1e-9) && exact <= b.upper * (1.0 + 1e-9),
            "{b:?} vs exact {exact}"
        );
        // Capture stays trajectory-neutral when it copies a mix.
        let plain = phase::solve_problem(&cfg, &g, &prob, &mut ws, false);
        assert_eq!(plain.bounds.lower.to_bits(), b.lower.to_bits());
        assert_eq!(plain.bounds.upper.to_bits(), b.upper.to_bits());
        assert_eq!(plain.stats, stats);
    }

    #[test]
    fn closing_clamp_never_publishes_an_inverted_bracket() {
        // A fat tree is non-blocking, so its longest-matching throughput is
        // exactly 1: the first evaluation finds the feasible value 1.0, and
        // the dual bound lands a few ulps under it (k = 6, as `fig02` solves
        // it: 0.9999999999999951, from the incrementally maintained `D(l)`).
        // The closing clamp lifts `upper` to `lower`.
        let topo = tb_topology::fattree::fat_tree(6);
        let tm = tb_traffic::synthetic::longest_matching(&topo.graph, &topo.servers, true);
        let cfg = FleischerConfig::fast();
        let b = FleischerSolver::new(cfg).solve(&topo.graph, &tm);
        assert_eq!(b.lower, 1.0);
        assert!(b.lower <= b.upper && b.gap() >= 0.0, "{b:?}");
        assert!(b.upper - b.lower <= 1e-12, "{b:?}");
    }

    #[test]
    fn averaged_upper_bound_certifies_on_the_sparse_straggler() {
        // `HyperX/1/LM` as the sweep solves it: the dual bound at the last
        // iterate bounces, the window average of the normalised lengths sets
        // the reported upper bound, and the certificate's dual evidence is
        // that average — which the independent verifier must re-derive, bit
        // for bit, to a bracket within the target gap.
        use tb_topology::families::Scale;
        let topo = tb_topology::Family::HyperX
            .ladder_instance(Scale::Small, 1, 1)
            .expect("ladder rung builds");
        let tm = tb_traffic::synthetic::longest_matching(&topo.graph, &topo.servers, true);
        let prob = FlowProblem::new(&topo.graph, &tm);
        let cfg = FleischerConfig::fast();
        let mut ws = SolverWorkspace::new();
        let solved = phase::solve_problem(&cfg, &topo.graph, &prob, &mut ws, true);
        assert!(solved.stats.upper_from_average, "{:?}", solved.stats);
        assert!(solved.stats.converged);
        let b = solved.bounds;
        assert!(b.gap() <= cfg.target_gap, "{b:?}");
        let cert = solved.cert.expect("certificate requested");
        crate::verify_certificate(&topo.graph, &tm, &cert, cfg.target_gap + 1e-9)
            .expect("any non-negative length function is a dual certificate");
        assert!((cert.lower - b.lower).abs() <= 1e-7 * b.lower);
        assert!((cert.upper - b.upper).abs() <= 1e-7 * b.upper);
        // The stored lengths are a sum of normalised samples (`D = 1` each),
        // not an iterate of the trajectory (`D(l) < 1` until saturation).
        assert!(cert.d_l > 2.0, "D(l̄) = {}", cert.d_l);
        // Capture stays trajectory-neutral when it copies the average.
        let plain = phase::solve_problem(&cfg, &topo.graph, &prob, &mut ws, false);
        assert_eq!(plain.bounds.lower.to_bits(), b.lower.to_bits());
        assert_eq!(plain.bounds.upper.to_bits(), b.upper.to_bits());
        assert_eq!(plain.stats, solved.stats);
    }

    #[test]
    fn dropped_demand_certificate_covers_the_kept_sub_tm() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(2, 3);
        let tm = TrafficMatrix::new(4, vec![demand(0, 1, 1.0), demand(0, 3, 1.0)]);
        let out = solver().solve_outcome(&g, &tm);
        assert!(out.status.is_degraded());
        let (kept_tm, dropped) = crate::drop_disconnected_demands(&g, &tm);
        assert_eq!(dropped, 1);
        crate::verify_certificate(&g, &kept_tm, &out.certificate, 0.01 + 1e-9)
            .expect("certificate must verify against the surviving sub-TM");
        // Against the full TM the dimensions no longer line up.
        assert!(crate::verify_certificate(&g, &tm, &out.certificate, f64::INFINITY).is_err());
    }

    #[test]
    fn budget_exhausted_certificate_still_verifies_with_open_gap() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let tm = tb_traffic::synthetic::all_to_all(&[1usize; 4]);
        let cfg = FleischerConfig {
            max_phases: 0,
            ..FleischerConfig::default()
        };
        let out = FleischerSolver::new(cfg).solve_outcome(&g, &tm);
        assert_eq!(out.status, crate::SolveStatus::BudgetExhausted);
        // The bounds are valid even though the budget ran out, so the
        // certificate verifies once the gap check is waived…
        crate::verify_certificate(&g, &tm, &out.certificate, f64::INFINITY).unwrap();
        // …but not at the target gap the solve failed to reach.
        assert!(matches!(
            crate::verify_certificate(&g, &tm, &out.certificate, 0.03),
            Err(crate::CertificateError::GapTooWide { .. })
        ));
    }

    #[test]
    fn empty_and_disconnected_outcomes_carry_trivial_certificates() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let empty = TrafficMatrix::new(2, Vec::new());
        let out = solver().solve_outcome(&g, &empty);
        crate::verify_certificate(&g, &empty, &out.certificate, 0.0).unwrap();
        let mut g2 = Graph::new(4);
        g2.add_unit_edge(0, 1);
        g2.add_unit_edge(2, 3);
        let tm = TrafficMatrix::new(4, vec![demand(0, 2, 1.0), demand(1, 3, 1.0)]);
        let out = solver().solve_outcome(&g2, &tm);
        let (kept_tm, _) = crate::drop_disconnected_demands(&g2, &tm);
        assert_eq!(kept_tm.num_flows(), 0);
        crate::verify_certificate(&g2, &kept_tm, &out.certificate, 0.0).unwrap();
    }

    #[test]
    fn ring_all_to_all_symmetry() {
        // On a C4 with one server per switch, A2A throughput is the same from
        // every node; just check bounds are consistent and positive.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let servers = vec![1usize; 4];
        let tm = tb_traffic::synthetic::all_to_all(&servers);
        let b = solver().solve(&g, &tm);
        assert!(b.lower > 0.0);
        assert!(b.lower <= b.upper + 1e-9);
        assert!(b.gap() < 0.05, "gap {}", b.gap());
    }

    #[test]
    fn capacity_scaling_scales_throughput() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm = TrafficMatrix::new(3, vec![demand(0, 2, 1.0)]);
        let b1 = solver().solve(&g, &tm);
        let g2 = g.scaled_capacities(3.0);
        let b3 = solver().solve(&g2, &tm);
        assert!(
            (b3.lower / b1.lower - 3.0).abs() < 0.1,
            "{} vs {}",
            b3.lower,
            b1.lower
        );
    }

    #[test]
    fn demand_scaling_inversely_scales_throughput() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm = TrafficMatrix::new(3, vec![demand(0, 2, 1.0)]);
        let tm_half = tm.scaled(0.5);
        let b1 = solver().solve(&g, &tm);
        let b2 = solver().solve(&g, &tm_half);
        assert!((b2.lower / b1.lower - 2.0).abs() < 0.1);
    }

    #[test]
    fn star_graph_hose_limit() {
        // Star with 4 leaves, each leaf sends 1 unit to the next leaf
        // (a ring of demands): every leaf link carries 1 in and 1 out,
        // so throughput is 1.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let tm = TrafficMatrix::new(
            5,
            vec![
                demand(1, 2, 1.0),
                demand(2, 3, 1.0),
                demand(3, 4, 1.0),
                demand(4, 1, 1.0),
            ],
        );
        let b = solver().solve(&g, &tm);
        assert!((b.lower - 1.0).abs() < 0.03, "lower {}", b.lower);
    }

    #[test]
    fn fast_config_still_brackets() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm = TrafficMatrix::new(3, vec![demand(0, 2, 1.0), demand(1, 2, 1.0)]);
        let b = FleischerSolver::new(FleischerConfig::fast()).solve(&g, &tm);
        assert!(b.lower <= 0.5 + 1e-9);
        assert!(b.upper >= 0.5 - 1e-9);
    }

    #[test]
    fn reused_workspace_matches_fresh_solves() {
        // A single workspace driven across different graphs and TMs (of
        // different sizes, in both directions) must reproduce fresh-workspace
        // results bit-for-bit.
        let g1 = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm1 = TrafficMatrix::new(3, vec![demand(0, 2, 1.0), demand(1, 2, 1.0)]);
        let g2 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let servers = vec![1usize; 4];
        let tm2 = tb_traffic::synthetic::all_to_all(&servers);
        let s = solver();
        let fresh1 = s.solve(&g1, &tm1);
        let fresh2 = s.solve(&g2, &tm2);
        let mut ws = SolverWorkspace::new();
        for _ in 0..3 {
            let b1 = s.solve_in(&g1, &tm1, &mut ws, false).0;
            assert_eq!(b1.lower, fresh1.lower);
            assert_eq!(b1.upper, fresh1.upper);
            let b2 = s.solve_in(&g2, &tm2, &mut ws, false).0;
            assert_eq!(b2.lower, fresh2.lower);
            assert_eq!(b2.upper, fresh2.upper);
        }
    }
}
