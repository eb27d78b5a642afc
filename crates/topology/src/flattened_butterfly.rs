//! Flattened butterfly topology (Kim, Dally & Abts, ISCA 2007).
//!
//! The k-ary n-flat flattens a k-ary n-fly butterfly: it has `k^(n-1)`
//! switches arranged in an (n-1)-dimensional array with `k` positions per
//! dimension; switches that differ in exactly one coordinate are directly
//! connected. Each switch hosts `k` servers (concentration c = k).
//!
//! The paper's §III-B example — "a 5-ary 3-stage flattened butterfly with only
//! 25 switches and 125 servers" — is `flattened_butterfly(5, 3)`.

use crate::meta::TopoMeta;
use crate::topology::Topology;
use tb_graph::Graph;

/// Construction-free metadata for [`flattened_butterfly`].
pub(crate) fn flattened_butterfly_meta(k: usize, n_stages: usize) -> TopoMeta {
    flattened_butterfly_with_servers_meta(k, n_stages, k)
}

/// Construction-free metadata for [`flattened_butterfly_with_servers`].
pub(crate) fn flattened_butterfly_with_servers_meta(
    k: usize,
    n_stages: usize,
    servers_per_switch: usize,
) -> TopoMeta {
    let dims = n_stages - 1;
    let n = k.pow(dims as u32);
    let degree = (k - 1) * dims;
    TopoMeta {
        name: "flattened butterfly".into(),
        params: format!("k={k}, n={n_stages}"),
        switches: n,
        servers: n * servers_per_switch,
        server_switches: if servers_per_switch > 0 { n } else { 0 },
        links: Some(n * degree / 2),
        degree: Some(degree),
    }
}

/// Builds a k-ary n-flat flattened butterfly (`n >= 2` stages, so `n - 1`
/// dimensions of `k` switches each), with `k` servers per switch.
pub fn flattened_butterfly(k: usize, n_stages: usize) -> Topology {
    flattened_butterfly_with_servers(k, n_stages, k)
}

/// Same as [`flattened_butterfly`] but with an explicit concentration
/// (servers per switch).
pub(crate) fn flattened_butterfly_with_servers(
    k: usize,
    n_stages: usize,
    servers_per_switch: usize,
) -> Topology {
    assert!(k >= 2, "need k >= 2");
    assert!(n_stages >= 2, "need at least 2 stages (1 dimension)");
    let dims = n_stages - 1;
    let n = k.pow(dims as u32);
    let mut g = Graph::new(n);
    // Coordinates of switch id in base k (dims digits).
    for u in 0..n {
        let mut stride = 1;
        for _d in 0..dims {
            let digit = (u / stride) % k;
            // connect to every other value of this digit (only add once: v > u)
            for other in 0..k {
                if other == digit {
                    continue;
                }
                let v = (u as isize + (other as isize - digit as isize) * stride as isize) as usize;
                if v > u {
                    g.add_unit_edge(u, v);
                }
            }
            stride *= k;
        }
    }
    Topology::with_uniform_servers(
        "flattened butterfly",
        format!("k={k}, n={n_stages}"),
        g,
        servers_per_switch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_graph::connectivity::is_connected;
    use tb_graph::shortest_path::diameter;

    #[test]
    fn paper_example_5ary_3stage() {
        let t = flattened_butterfly(5, 3);
        assert_eq!(t.num_switches(), 25);
        assert_eq!(t.num_servers(), 125);
        // Each switch connects to 4 others in its row and 4 in its column.
        for u in 0..25 {
            assert_eq!(t.graph.degree(u), 8);
        }
        assert_eq!(t.num_links(), 25 * 8 / 2);
        assert!(is_connected(&t.graph));
        assert_eq!(diameter(&t.graph), Some(2));
    }

    #[test]
    fn one_dimension_is_complete_graph() {
        let t = flattened_butterfly(6, 2);
        assert_eq!(t.num_switches(), 6);
        assert_eq!(t.num_links(), 15);
        assert_eq!(diameter(&t.graph), Some(1));
    }

    #[test]
    fn three_dimensions() {
        let t = flattened_butterfly(3, 4);
        assert_eq!(t.num_switches(), 27);
        for u in 0..27 {
            assert_eq!(t.graph.degree(u), 3 * 2);
        }
        assert_eq!(diameter(&t.graph), Some(3));
    }

    #[test]
    fn custom_concentration() {
        let t = flattened_butterfly_with_servers(4, 3, 2);
        assert_eq!(t.num_servers(), 16 * 2);
    }
}
