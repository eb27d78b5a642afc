//! The two graph families used in the paper's Theorem 1 (§II-B, Appendix A) to
//! separate sparsest cut from worst-case throughput:
//!
//! * **Graph A** — a clustered random graph: two equal clusters; every node
//!   has degree `alpha` inside its cluster and `beta` across, with
//!   `beta ≈ alpha / log n`,
//! * **Graph B** — a `2d`-regular random expander on `n / p` nodes whose edges
//!   are each replaced by paths of length `p` (a subdivision).
//!
//! These are used by the `theorem1_demo` experiment binary to show that A has
//! higher throughput while B has the higher (sparser-cut) score.

use crate::meta::TopoMeta;
use crate::topology::Topology;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tb_graph::random::random_regular_graph;
use tb_graph::Graph;

/// Builds the clustered random graph ("Graph A"): `n` nodes split into two
/// clusters of `n/2`; every node gets `alpha` edges to random nodes of its own
/// cluster and `beta` edges to random nodes of the other cluster (degrees are
/// met exactly by construction of random regular/bipartite-regular layers).
pub fn clustered_random(n: usize, alpha: usize, beta: usize, seed: u64) -> Topology {
    assert!(n >= 4 && n.is_multiple_of(2), "n must be even and >= 4");
    let half = n / 2;
    assert!(
        alpha < half && beta <= half,
        "degrees too large for the cluster size"
    );
    assert!((half * alpha).is_multiple_of(2), "alpha * n/2 must be even");
    let mut g = Graph::new(n);
    // Intra-cluster: an alpha-regular random graph in each cluster.
    for (offset, s) in [(0usize, seed), (half, seed.wrapping_add(1))] {
        if alpha > 0 {
            let sub = random_regular_graph(half, alpha, s);
            for e in sub.edges() {
                g.add_unit_edge(e.u + offset, e.v + offset);
            }
        }
    }
    // Inter-cluster: beta random perfect matchings between the clusters gives
    // every node exactly beta cross edges.
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(2));
    for _ in 0..beta {
        let mut perm: Vec<usize> = (0..half).collect();
        // Fisher-Yates shuffle.
        for i in (1..half).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        for (left, &right) in perm.iter().enumerate() {
            g.add_unit_edge(left, half + right);
        }
    }
    Topology::with_uniform_servers(
        "clustered random (Graph A)",
        format!("n={n}, alpha={alpha}, beta={beta}"),
        g,
        1,
    )
}

/// Construction-free metadata for [`clustered_random`]: degrees are met
/// exactly (alpha-regular layers plus beta cross matchings), so the link
/// count is closed-form.
pub(crate) fn clustered_random_meta(n: usize, alpha: usize, beta: usize) -> TopoMeta {
    TopoMeta {
        name: "clustered random (Graph A)".into(),
        params: format!("n={n}, alpha={alpha}, beta={beta}"),
        switches: n,
        servers: n,
        server_switches: n,
        links: Some(n * alpha / 2 + n / 2 * beta),
        degree: Some(alpha + beta),
    }
}

/// Construction-free metadata for [`subdivided_expander`]: the base expander
/// has `base_nodes * d` edges, each subdivided into a path of `p` links.
pub(crate) fn subdivided_expander_meta(base_nodes: usize, d: usize, p: usize) -> TopoMeta {
    let base_edges = base_nodes * d;
    TopoMeta {
        name: "subdivided expander (Graph B)".into(),
        params: format!("N={base_nodes}, d={d}, p={p}"),
        switches: base_nodes + base_edges * (p - 1),
        servers: base_nodes,
        server_switches: base_nodes,
        links: Some(base_edges * p),
        degree: Some(2 * d),
    }
}

/// Builds the subdivided expander ("Graph B"): a `2d`-regular random graph on
/// `base_nodes` nodes with every edge replaced by a path of `p` edges.
/// Endpoints (the original expander nodes) carry one traffic endpoint each;
/// the subdivision nodes carry none.
pub fn subdivided_expander(base_nodes: usize, d: usize, p: usize, seed: u64) -> Topology {
    assert!(p >= 1);
    let base = random_regular_graph(base_nodes, 2 * d, seed);
    let g = base.subdivide(p);
    let mut servers = vec![0usize; g.num_nodes()];
    for s in servers.iter_mut().take(base_nodes) {
        *s = 1;
    }
    Topology::new(
        "subdivided expander (Graph B)",
        format!("N={base_nodes}, d={d}, p={p}"),
        g,
        servers,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_graph::connectivity::is_connected;

    #[test]
    fn clustered_random_degrees() {
        let t = clustered_random(40, 4, 2, 3);
        assert_eq!(t.num_switches(), 40);
        for u in 0..40 {
            assert_eq!(t.graph.degree(u), 6, "node {u}");
        }
        assert!(is_connected(&t.graph));
        // Cross edges: exactly beta * n/2.
        let cross = t
            .graph
            .edges()
            .iter()
            .filter(|e| (e.u < 20) != (e.v < 20))
            .count();
        assert_eq!(cross, 2 * 20);
    }

    #[test]
    fn clustered_random_cut_between_clusters_is_beta_half_n() {
        let t = clustered_random(24, 4, 1, 9);
        let in_set: Vec<bool> = (0..24).map(|u| u < 12).collect();
        assert_eq!(t.graph.cut_capacity(&in_set) as usize, 12);
    }

    #[test]
    fn subdivided_expander_structure() {
        let t = subdivided_expander(16, 2, 3, 5);
        // base: 16 nodes of degree 4 -> 32 edges; subdivision adds 2 nodes per edge.
        assert_eq!(t.num_switches(), 16 + 32 * 2);
        assert_eq!(t.num_links(), 32 * 3);
        assert_eq!(t.num_servers(), 16);
        assert!(is_connected(&t.graph));
        // Original nodes keep degree 4; path nodes have degree 2.
        for u in 0..16 {
            assert_eq!(t.graph.degree(u), 4);
        }
        for u in 16..t.num_switches() {
            assert_eq!(t.graph.degree(u), 2);
        }
    }

    #[test]
    fn p_equals_one_is_plain_expander() {
        let t = subdivided_expander(20, 3, 1, 7);
        assert_eq!(t.num_switches(), 20);
        assert_eq!(t.num_links(), 20 * 6 / 2);
    }
}
