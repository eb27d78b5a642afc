//! DCell topology (Guo et al., SIGCOMM 2008).
//!
//! DCell is server-centric and recursive. `DCell_0` is `n` servers attached to
//! one mini-switch. `DCell_l` is built from `g_l = t_{l-1} + 1` copies of
//! `DCell_{l-1}` (where `t_{l-1}` is the number of servers in a `DCell_{l-1}`),
//! with exactly one server-to-server link between every pair of copies:
//! sub-cell `i` and sub-cell `j` (`i < j`) are joined by a link between server
//! `j - 1` of cell `i` and server `i` of cell `j`.
//!
//! As with BCube, DCell servers relay traffic, so they are modeled as relay
//! nodes carrying one endpoint each, while mini-switches carry none.

use crate::meta::TopoMeta;
use crate::topology::Topology;
use tb_graph::Graph;

/// Construction-free metadata for [`dcell`].
///
/// Link recursion: `DCell_0` has `n` star links; `DCell_l` is `g_l` copies of
/// `DCell_{l-1}` plus one link per cell pair (`g_l = t_{l-1} + 1`). At each
/// level every server of a cell carries exactly one inter-cell link, so the
/// server relay degree is `level + 1` and the mini-switch degree is `n`.
pub(crate) fn dcell_meta(n: usize, level: usize) -> TopoMeta {
    let mut t = n;
    let mut links = n;
    for _ in 0..level {
        let cells = t + 1;
        links = cells * links + cells * (cells - 1) / 2;
        t *= cells;
    }
    TopoMeta {
        name: "DCell".into(),
        params: format!("n={n}, level={level}"),
        switches: t + t / n,
        servers: t,
        server_switches: t,
        links: Some(links),
        degree: Some(n.max(level + 1)),
    }
}

/// Number of servers in a `DCell_level` built from `n`-port mini-switches.
pub(crate) fn dcell_servers(n: usize, level: usize) -> usize {
    let mut t = n;
    for _ in 0..level {
        t = t * (t + 1);
    }
    t
}

/// Builds `DCell_level` with `n` servers per `DCell_0`.
///
/// Node layout: server relay nodes come first (`0..num_servers`, one endpoint
/// each), followed by the mini-switches (one per `DCell_0`, no endpoints).
pub fn dcell(n: usize, level: usize) -> Topology {
    assert!(n >= 2, "DCell needs at least 2 servers per DCell_0");
    let num_servers = dcell_servers(n, level);
    assert!(num_servers <= 1 << 20, "DCell instance too large");
    let num_switches = num_servers / n;
    let total = num_servers + num_switches;
    let mut g = Graph::new(total);

    // DCell_0 star links.
    for s in 0..num_servers {
        let sw = num_servers + s / n;
        g.add_unit_edge(s, sw);
    }

    // Recursive inter-cell links. Servers of a DCell_l are numbered
    // contiguously, so the recursion works on index ranges.
    build_links(&mut g, n, level, 0, num_servers);

    let mut servers = vec![0usize; total];
    for s in servers.iter_mut().take(num_servers) {
        *s = 1;
    }
    Topology::new("DCell", format!("n={n}, level={level}"), g, servers)
}

/// Adds the level-`level` (and recursively lower) inter-cell links for the
/// DCell whose servers are `base..base + size`.
fn build_links(g: &mut Graph, n: usize, level: usize, base: usize, size: usize) {
    if level == 0 {
        return;
    }
    // size = t_{l}, sub-cell size = t_{l-1}, number of sub-cells = t_{l-1}+1.
    let mut sub = n;
    for _ in 0..level - 1 {
        sub = sub * (sub + 1);
    }
    let cells = sub + 1;
    debug_assert_eq!(sub * cells, size);
    for i in 0..cells {
        build_links(g, n, level - 1, base + i * sub, sub);
    }
    for i in 0..cells {
        for j in i + 1..cells {
            let u = base + i * sub + (j - 1);
            let v = base + j * sub + i;
            g.add_unit_edge(u, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_graph::connectivity::is_connected;

    #[test]
    fn server_count_recurrence() {
        assert_eq!(dcell_servers(4, 0), 4);
        assert_eq!(dcell_servers(4, 1), 20);
        assert_eq!(dcell_servers(4, 2), 420);
        assert_eq!(dcell_servers(2, 2), 42);
        assert_eq!(dcell_servers(5, 1), 30);
    }

    #[test]
    fn dcell0_is_star() {
        let t = dcell(4, 0);
        assert_eq!(t.num_servers(), 4);
        assert_eq!(t.num_switches(), 5);
        assert_eq!(t.num_links(), 4);
        assert!(is_connected(&t.graph));
    }

    #[test]
    fn dcell1_structure() {
        // DCell_1 with n=4: 5 sub-cells of 4 servers; 20 servers, 5 switches,
        // 20 star links + C(5,2)=10 inter-cell links.
        let t = dcell(4, 1);
        assert_eq!(t.num_servers(), 20);
        assert_eq!(t.num_switches(), 25);
        assert_eq!(t.num_links(), 20 + 10);
        assert!(is_connected(&t.graph));
        // Level-1 servers have 1 switch link + 1 inter-cell link.
        for s in 0..20 {
            assert!(t.graph.degree(s) <= 2);
        }
        // Each sub-cell has exactly 4 servers, and cells - 1 = 4 of them get
        // an inter-cell link, i.e. every server has exactly 2 links here.
        for s in 0..20 {
            assert_eq!(t.graph.degree(s), 2, "server {s}");
        }
    }

    #[test]
    fn dcell2_connected_and_degrees_bounded() {
        let t = dcell(2, 2);
        assert_eq!(t.num_servers(), 42);
        assert!(is_connected(&t.graph));
        // Each server has at most level+1 = 3 links (1 to switch + up to 2 inter-cell).
        for s in 0..42 {
            assert!(t.graph.degree(s) <= 3);
            assert!(t.graph.degree(s) >= 1);
        }
    }

    #[test]
    fn paper_family_dcell_5ary() {
        // The paper's Table I row "DCell (5-ary)": n=5.
        let t = dcell(5, 1);
        assert_eq!(t.num_servers(), 30);
        assert!(is_connected(&t.graph));
    }
}
