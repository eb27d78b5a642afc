//! Hypercube topology (Bhuyan & Agrawal 1984).
//!
//! A `d`-dimensional hypercube has `2^d` switches; two switches are linked iff
//! their labels differ in exactly one bit. The paper uses one server per
//! switch in Fig 2 and scales the servers-per-switch count elsewhere.

use crate::meta::TopoMeta;
use crate::topology::Topology;
use tb_graph::Graph;

/// Construction-free metadata for [`hypercube`].
pub(crate) fn hypercube_meta(dim: usize, servers_per_switch: usize) -> TopoMeta {
    let n = 1usize << dim;
    TopoMeta {
        name: "hypercube".into(),
        params: format!("d={dim}"),
        switches: n,
        servers: n * servers_per_switch,
        server_switches: if servers_per_switch > 0 { n } else { 0 },
        links: Some(n * dim / 2),
        degree: Some(dim),
    }
}

/// Builds a `d`-dimensional hypercube with `servers_per_switch` servers on
/// every switch.
///
/// # Panics
/// Panics if `dim == 0` or `dim > 20` (the latter only to guard against
/// accidentally huge graphs).
pub fn hypercube(dim: usize, servers_per_switch: usize) -> Topology {
    assert!(dim > 0 && dim <= 20, "hypercube dimension out of range");
    let n = 1usize << dim;
    let mut g = Graph::new(n);
    for u in 0..n {
        for b in 0..dim {
            let v = u ^ (1 << b);
            if u < v {
                g.add_unit_edge(u, v);
            }
        }
    }
    Topology::with_uniform_servers("hypercube", format!("d={dim}"), g, servers_per_switch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_graph::connectivity::is_connected;
    use tb_graph::shortest_path::{apsp_unweighted, diameter};

    #[test]
    fn counts() {
        for d in 1..=8 {
            let t = hypercube(d, 1);
            assert_eq!(t.num_switches(), 1 << d);
            assert_eq!(t.num_links(), d * (1 << d) / 2);
            assert_eq!(t.num_servers(), 1 << d);
            for u in 0..t.num_switches() {
                assert_eq!(t.graph.degree(u), d);
            }
            assert!(is_connected(&t.graph));
        }
    }

    #[test]
    fn diameter_equals_dimension() {
        for d in 2..=6 {
            let t = hypercube(d, 1);
            assert_eq!(diameter(&t.graph), Some(d as u32));
        }
    }

    #[test]
    fn distances_are_hamming_distances() {
        let t = hypercube(4, 1);
        let dist = apsp_unweighted(&t.graph);
        for (u, row) in dist.iter().enumerate() {
            for (v, d) in row.iter().enumerate() {
                assert_eq!(*d, (u ^ v).count_ones());
            }
        }
    }

    #[test]
    fn servers_scale() {
        let t = hypercube(3, 5);
        assert_eq!(t.num_servers(), 40);
    }
}
