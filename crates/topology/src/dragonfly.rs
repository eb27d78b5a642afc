//! Dragonfly topology (Kim, Dally, Scott & Abts, ISCA 2008).
//!
//! A dragonfly is a two-level hierarchy: routers are grouped; within a group
//! the `a` routers form a complete graph; each router also has `h` global
//! links to other groups and `p` attached servers. The canonical balanced
//! configuration uses `a = 2p = 2h` and `g = a*h + 1` groups, so that every
//! pair of groups is joined by exactly one global link.

use crate::meta::TopoMeta;
use crate::topology::Topology;
use tb_graph::Graph;

/// Construction-free metadata for [`dragonfly`].
pub(crate) fn dragonfly_meta(p: usize, a: usize, h: usize) -> TopoMeta {
    let groups = a * h + 1;
    let n = groups * a;
    TopoMeta {
        name: "Dragonfly".into(),
        params: format!("p={p}, a={a}, h={h}"),
        switches: n,
        servers: n * p,
        server_switches: if p > 0 { n } else { 0 },
        // Intra-group cliques plus one global link per group pair.
        links: Some(groups * a * (a - 1) / 2 + groups * (groups - 1) / 2),
        degree: Some(a - 1 + h),
    }
}

/// Construction-free metadata for [`balanced_dragonfly`].
pub(crate) fn balanced_dragonfly_meta(h: usize) -> TopoMeta {
    dragonfly_meta(h, 2 * h, h)
}

/// Builds a dragonfly from its three defining parameters:
/// `p` servers per router, `a` routers per group, `h` global links per router.
/// The number of groups is `a*h + 1` (one global link between each group pair).
pub(crate) fn dragonfly(p: usize, a: usize, h: usize) -> Topology {
    assert!(
        a >= 1 && h >= 1,
        "need at least one router and one global link"
    );
    let groups = a * h + 1;
    let n = groups * a;
    let mut g = Graph::new(n);
    let router = |grp: usize, r: usize| grp * a + r;

    // Intra-group complete graph.
    for grp in 0..groups {
        for r1 in 0..a {
            for r2 in r1 + 1..a {
                g.add_unit_edge(router(grp, r1), router(grp, r2));
            }
        }
    }
    // Global links: group gi's global port q (0..a*h) leads to group
    // `q` if q < gi else `q + 1`; the port is hosted on router q / h.
    // Each unordered group pair gets exactly one link; add it from the
    // lower-numbered group to avoid duplicates.
    for gi in 0..groups {
        for q in 0..a * h {
            let gj = if q < gi { q } else { q + 1 };
            if gj <= gi {
                continue;
            }
            // Port on the remote side: group gj sees gi at port index gi
            // (because gi < gj).
            let local_router = router(gi, q / h);
            let remote_router = router(gj, gi / h);
            g.add_unit_edge(local_router, remote_router);
        }
    }

    Topology::with_uniform_servers("Dragonfly", format!("p={p}, a={a}, h={h}"), g, p)
}

/// Builds the canonical balanced dragonfly with `a = 2h`, `p = h`.
pub(crate) fn balanced_dragonfly(h: usize) -> Topology {
    dragonfly(h, 2 * h, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_graph::connectivity::is_connected;
    use tb_graph::shortest_path::diameter;

    #[test]
    fn balanced_counts() {
        for h in 1..=4 {
            let t = balanced_dragonfly(h);
            let a = 2 * h;
            let groups = a * h + 1;
            assert_eq!(t.num_switches(), groups * a);
            assert_eq!(t.num_servers(), groups * a * h);
            // links: intra a*(a-1)/2 per group + one per group pair
            let expected = groups * a * (a - 1) / 2 + groups * (groups - 1) / 2;
            assert_eq!(t.num_links(), expected);
            assert!(is_connected(&t.graph));
        }
    }

    #[test]
    fn router_degree_is_a_minus_1_plus_h() {
        let h = 3;
        let t = balanced_dragonfly(h);
        let a = 2 * h;
        for u in 0..t.num_switches() {
            assert_eq!(t.graph.degree(u), (a - 1) + h, "router {u}");
        }
    }

    #[test]
    fn every_group_pair_has_exactly_one_global_link() {
        let h = 2;
        let a = 2 * h;
        let groups = a * h + 1;
        let t = dragonfly(h, a, h);
        let group_of = |u: usize| u / a;
        let mut pair_count = std::collections::HashMap::new();
        for e in t.graph.edges() {
            let (gu, gv) = (group_of(e.u), group_of(e.v));
            if gu != gv {
                let key = (gu.min(gv), gu.max(gv));
                *pair_count.entry(key).or_insert(0usize) += 1;
            }
        }
        assert_eq!(pair_count.len(), groups * (groups - 1) / 2);
        assert!(pair_count.values().all(|&c| c == 1));
    }

    #[test]
    fn diameter_is_at_most_three() {
        // router -> global -> router within group -> global is never needed in
        // the balanced single-link-per-pair configuration: max 3 hops
        // (local, global, local).
        let t = balanced_dragonfly(2);
        assert!(diameter(&t.graph).unwrap() <= 3);
    }

    #[test]
    fn minimal_dragonfly() {
        let t = dragonfly(1, 1, 1);
        // 2 groups of 1 router joined by one link.
        assert_eq!(t.num_switches(), 2);
        assert_eq!(t.num_links(), 1);
    }
}
