//! Long Hop networks (Tomic, ANCS 2013): "optimal networks from error
//! correcting codes".
//!
//! Tomic's construction is a Cayley graph over `Z_2^D`: switches are the
//! `2^D` binary vectors of length `D`, and the generator set contains the `D`
//! hypercube generators (unit vectors) plus extra "long hop" generators taken
//! from the generator matrix of a good binary code, which adds long chords and
//! pushes the bisection bandwidth toward the optimum for the degree.
//!
//! The exact code tables from the paper are not public, so this module keeps
//! the construction (Cayley graph over `Z_2^D`, hypercube generators + extra
//! long-hop generators) but chooses the extra generators with a deterministic
//! greedy rule that maximizes the minimum pairwise Hamming distance of the
//! generator set — the coding-theoretic measure Tomic's codes optimize.
//! The substitution is recorded in `DESIGN.md`.

use crate::meta::TopoMeta;
use crate::topology::Topology;
use tb_graph::Graph;

/// Construction-free metadata for [`long_hop`]: each of the `degree`
/// generators is a distinct nonzero XOR mask, contributing exactly `2^dim/2`
/// edges, so the Cayley graph is `degree`-regular by construction.
pub(crate) fn long_hop_meta(dim: usize, degree: usize, servers_per_switch: usize) -> TopoMeta {
    let n = 1usize << dim;
    TopoMeta {
        name: "Long Hop".into(),
        params: format!("dim={dim}, degree={degree}"),
        switches: n,
        servers: n * servers_per_switch,
        server_switches: if servers_per_switch > 0 { n } else { 0 },
        links: Some(n * degree / 2),
        degree: Some(degree),
    }
}

/// Chooses `extra` additional generators (beyond the unit vectors) by greedily
/// maximizing the minimum Hamming distance to all previously chosen
/// generators, breaking ties toward higher weight then smaller value.
fn choose_long_hop_generators(dim: usize, extra: usize) -> Vec<u64> {
    let mut gens: Vec<u64> = (0..dim).map(|b| 1u64 << b).collect();
    let space = 1u64 << dim;
    for _ in 0..extra {
        let mut best: Option<(u32, u32, u64)> = None; // (min dist, weight, value)
        for cand in 1..space {
            if gens.contains(&cand) {
                continue;
            }
            let min_dist = gens
                .iter()
                .map(|&g| (g ^ cand).count_ones())
                .min()
                .unwrap_or(u32::MAX);
            let weight = cand.count_ones();
            let key = (min_dist, weight, u64::MAX - cand);
            if best.is_none_or(|(d, w, v)| key > (d, w, v)) {
                best = Some(key);
            }
        }
        match best {
            Some((_, _, inv)) => gens.push(u64::MAX - inv),
            None => break,
        }
    }
    gens
}

/// Builds a Long Hop network over `Z_2^dim` with total switch degree `degree`
/// (`degree >= dim`; the first `dim` generators are the hypercube generators)
/// and `servers_per_switch` servers per switch.
pub fn long_hop(dim: usize, degree: usize, servers_per_switch: usize) -> Topology {
    assert!((2..=16).contains(&dim), "dimension out of range");
    assert!(degree >= dim, "degree must be at least the dimension");
    assert!(
        degree < (1usize << dim),
        "degree must be smaller than the node count"
    );
    let gens = choose_long_hop_generators(dim, degree - dim);
    let n = 1usize << dim;
    let mut g = Graph::new(n);
    for u in 0..n as u64 {
        for &gen in &gens {
            let v = u ^ gen;
            if v > u {
                g.add_unit_edge(u as usize, v as usize);
            }
        }
    }
    Topology::with_uniform_servers(
        "Long Hop",
        format!("dim={dim}, degree={degree}"),
        g,
        servers_per_switch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_graph::connectivity::is_connected;
    use tb_graph::shortest_path::{average_path_length, diameter};

    #[test]
    fn degree_and_counts() {
        let t = long_hop(5, 8, 1);
        assert_eq!(t.num_switches(), 32);
        for u in 0..32 {
            assert_eq!(t.graph.degree(u), 8);
        }
        assert_eq!(t.num_links(), 32 * 8 / 2);
        assert!(is_connected(&t.graph));
    }

    #[test]
    fn pure_hypercube_when_degree_equals_dim() {
        let t = long_hop(4, 4, 1);
        let h = crate::hypercube::hypercube(4, 1);
        assert_eq!(t.num_links(), h.num_links());
        assert_eq!(diameter(&t.graph), Some(4));
    }

    #[test]
    fn long_hops_shorten_paths() {
        let cube = long_hop(6, 6, 1);
        let lh = long_hop(6, 9, 1);
        let apl_cube = average_path_length(&cube.graph).unwrap();
        let apl_lh = average_path_length(&lh.graph).unwrap();
        assert!(
            apl_lh < apl_cube,
            "long hops should shorten average paths: {apl_lh} vs {apl_cube}"
        );
        assert!(diameter(&lh.graph).unwrap() < diameter(&cube.graph).unwrap());
    }

    #[test]
    fn generator_choice_is_deterministic() {
        let a = choose_long_hop_generators(5, 3);
        let b = choose_long_hop_generators(5, 3);
        assert_eq!(a, b);
        // first extra generator after the unit vectors should have weight > 1
        assert!(a[5].count_ones() > 1);
    }

    #[test]
    fn cayley_graph_is_vertex_transitive_in_degree() {
        let t = long_hop(7, 10, 1);
        let d0 = t.graph.degree(0);
        for u in 0..t.num_switches() {
            assert_eq!(t.graph.degree(u), d0);
        }
    }
}
