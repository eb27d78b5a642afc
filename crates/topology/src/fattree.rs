//! Three-level fat-tree / folded-Clos topology (Al-Fares et al., SIGCOMM 2008).
//!
//! A `k`-ary fat tree (k even) has `k` pods. Each pod contains `k/2` edge
//! switches and `k/2` aggregation switches; there are `(k/2)^2` core switches.
//! Every switch has radix `k`. Servers attach only to edge switches, `k/2`
//! per edge switch, for a total of `k^3/4` servers. Built as a non-blocking
//! (full bisection) topology, which is the configuration the paper evaluates.

use crate::meta::TopoMeta;
use crate::topology::Topology;
use tb_graph::Graph;

/// Construction-free metadata for [`fat_tree`].
pub(crate) fn fat_tree_meta(k: usize) -> TopoMeta {
    let half = k / 2;
    let num_edge = k * half;
    TopoMeta {
        name: "fat tree".into(),
        params: format!("k={k}"),
        switches: 2 * num_edge + half * half,
        servers: num_edge * half,
        server_switches: num_edge,
        // edge–aggregation plus aggregation–core, k * (k/2)^2 links each.
        links: Some(2 * k * half * half),
        degree: Some(k),
    }
}

/// Builds a `k`-ary three-level fat tree.
///
/// Switch ids are laid out as: edge switches first (pod-major), then
/// aggregation switches (pod-major), then core switches.
///
/// # Panics
/// Panics if `k` is odd or `k < 2`.
pub fn fat_tree(k: usize) -> Topology {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat tree requires even k >= 2"
    );
    let half = k / 2;
    let num_edge = k * half;
    let num_agg = k * half;
    let num_core = half * half;
    let n = num_edge + num_agg + num_core;
    let edge_id = |pod: usize, i: usize| pod * half + i;
    let agg_id = |pod: usize, i: usize| num_edge + pod * half + i;
    let core_id = |i: usize, j: usize| num_edge + num_agg + i * half + j;

    let mut g = Graph::new(n);
    for pod in 0..k {
        for e in 0..half {
            for a in 0..half {
                g.add_unit_edge(edge_id(pod, e), agg_id(pod, a));
            }
        }
        // Aggregation switch `a` of each pod connects to core switches in row `a`.
        for a in 0..half {
            for j in 0..half {
                g.add_unit_edge(agg_id(pod, a), core_id(a, j));
            }
        }
    }
    let mut servers = vec![0usize; n];
    for s in servers.iter_mut().take(num_edge) {
        *s = half;
    }
    Topology::new("fat tree", format!("k={k}"), g, servers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_graph::connectivity::is_connected;
    use tb_graph::shortest_path::diameter;

    #[test]
    fn counts_match_alfares() {
        for k in [4usize, 6, 8, 10] {
            let t = fat_tree(k);
            let half = k / 2;
            // k^2/2 edge + k^2/2 aggregation + (k/2)^2 core switches.
            assert_eq!(t.num_switches(), k * k + half * half);
            assert_eq!(t.num_servers(), k * k * k / 4);
            // Each edge switch uses k/2 uplinks; each agg k/2 down + k/2 up;
            // each core k downlinks.
            assert_eq!(t.num_links(), k * half * half + k * half * half);
            assert!(is_connected(&t.graph));
        }
    }

    #[test]
    fn switch_radix_is_k() {
        let k = 8;
        let t = fat_tree(k);
        let half = k / 2;
        let num_edge = k * half;
        let num_agg = k * half;
        for u in 0..t.num_switches() {
            let ports = t.graph.degree(u) + t.servers[u];
            if u < num_edge {
                assert_eq!(ports, k, "edge switch {u}");
            } else if u < num_edge + num_agg {
                assert_eq!(ports, k, "agg switch {u}");
            } else {
                assert_eq!(ports, k, "core switch {u}");
            }
        }
    }

    #[test]
    fn servers_only_on_edge_switches() {
        let t = fat_tree(6);
        let num_edge = 6 * 3;
        for (u, &s) in t.servers.iter().enumerate() {
            if u < num_edge {
                assert_eq!(s, 3);
            } else {
                assert_eq!(s, 0);
            }
        }
    }

    #[test]
    fn diameter_is_four_switch_hops() {
        // Edge -> agg -> core -> agg -> edge: 4 switch-level hops.
        let t = fat_tree(4);
        assert_eq!(diameter(&t.graph), Some(4));
    }
}
