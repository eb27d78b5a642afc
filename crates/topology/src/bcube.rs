//! BCube topology (Guo et al., SIGCOMM 2009).
//!
//! BCube is *server-centric*: BCube_k built from n-port switches has
//! `n^(k+1)` servers, each with `k+1` NIC ports, and `(k+1) * n^k` switches
//! arranged in `k+1` levels. A server with address `(a_k, ..., a_1, a_0)`
//! (digits in base `n`) connects at level `i` to the level-`i` switch whose
//! index is the address with digit `i` removed.
//!
//! Because BCube servers forward traffic, the throughput model represents each
//! BCube server as a relay node (a "switch" in the graph) with exactly one
//! attached traffic endpoint, while the commodity n-port switches carry no
//! endpoints — this is the standard reduction used by the paper's framework
//! for server-centric designs (§III-A2).

use crate::meta::TopoMeta;
use crate::topology::Topology;
use tb_graph::Graph;

/// Construction-free metadata for [`bcube`].
pub(crate) fn bcube_meta(n: usize, k: usize) -> TopoMeta {
    let num_servers = n.pow(k as u32 + 1);
    let num_switches = (k + 1) * n.pow(k as u32);
    TopoMeta {
        name: "BCube".into(),
        params: format!("n={n}, k={k}"),
        switches: num_servers + num_switches,
        servers: num_servers,
        server_switches: num_servers,
        // Every server relay node links to one switch per level.
        links: Some(num_servers * (k + 1)),
        degree: Some(n.max(k + 1)),
    }
}

/// Builds BCube with `n`-port switches and `k + 1` levels (i.e. `BCube_k`).
///
/// Graph layout: nodes `0..n^(k+1)` are the server relay nodes (1 endpoint
/// each); the following `(k+1) * n^k` nodes are the commodity switches
/// (0 endpoints).
///
/// # Panics
/// Panics if `n < 2` or the size would exceed ~1M nodes.
pub fn bcube(n: usize, k: usize) -> Topology {
    assert!(n >= 2, "BCube needs switches with at least 2 ports");
    let num_servers = n.pow(k as u32 + 1);
    let switches_per_level = n.pow(k as u32);
    let num_switches = (k + 1) * switches_per_level;
    let total = num_servers + num_switches;
    assert!(total <= 1 << 20, "BCube instance too large");

    let mut g = Graph::new(total);
    let switch_id = |level: usize, index: usize| num_servers + level * switches_per_level + index;

    for server in 0..num_servers {
        // digits of the server address, least significant first
        for level in 0..=k {
            // Remove digit `level` from the address to get the switch index.
            let high = server / n.pow(level as u32 + 1);
            let low = server % n.pow(level as u32);
            let idx = high * n.pow(level as u32) + low;
            g.add_unit_edge(server, switch_id(level, idx));
        }
    }

    let mut servers = vec![0usize; total];
    for s in servers.iter_mut().take(num_servers) {
        *s = 1;
    }
    Topology::new("BCube", format!("n={n}, k={k}"), g, servers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_graph::connectivity::is_connected;

    #[test]
    fn bcube0_is_a_star() {
        // BCube_0 with n=4: 4 servers and one switch.
        let t = bcube(4, 0);
        assert_eq!(t.num_switches(), 4 + 1);
        assert_eq!(t.num_servers(), 4);
        assert_eq!(t.num_links(), 4);
        assert!(is_connected(&t.graph));
    }

    #[test]
    fn bcube1_counts() {
        // BCube_1, n=4: 16 servers, 8 switches, each server 2 ports.
        let t = bcube(4, 1);
        assert_eq!(t.num_servers(), 16);
        assert_eq!(t.num_switches(), 16 + 8);
        assert_eq!(t.num_links(), 16 * 2);
        for server in 0..16 {
            assert_eq!(t.graph.degree(server), 2);
            assert_eq!(t.servers[server], 1);
        }
        for sw in 16..24 {
            assert_eq!(t.graph.degree(sw), 4);
            assert_eq!(t.servers[sw], 0);
        }
        assert!(is_connected(&t.graph));
    }

    #[test]
    fn bcube2_binary() {
        // The paper's "BCube (2-ary)" family: n=2, scaling k.
        let t = bcube(2, 2);
        assert_eq!(t.num_servers(), 8);
        assert_eq!(t.num_switches(), 8 + 3 * 4);
        assert!(is_connected(&t.graph));
        // Every server has k+1 = 3 ports.
        for server in 0..8 {
            assert_eq!(t.graph.degree(server), 3);
        }
    }

    #[test]
    fn same_level_servers_share_one_switch() {
        // In BCube_1 n=2: servers 0b00 and 0b01 share the level-0 switch.
        let t = bcube(2, 1);
        // server 0 = (0,0), server 1 = (0,1): same level-0? level 0 removes
        // digit 0, so index = high digit -> both index 0 -> shared.
        let g = &t.graph;
        let s0: Vec<usize> = g.neighbors(0).iter().map(|&(v, _)| v).collect();
        let s1: Vec<usize> = g.neighbors(1).iter().map(|&(v, _)| v).collect();
        assert!(s0.iter().any(|v| s1.contains(v)));
    }
}
