//! Jellyfish topology (Singla et al., NSDI 2012): a uniform-random regular
//! graph of top-of-rack switches, each hosting the same number of servers.
//!
//! Jellyfish doubles as the paper's *normalizer*: for any topology, a random
//! graph with exactly the same equipment (same switch count, same per-switch
//! inter-switch degree, same per-switch server count) is built and the
//! topology's throughput is reported relative to it ("relative throughput",
//! §IV). [`same_equipment`] implements that construction.

use crate::meta::TopoMeta;
use crate::topology::Topology;
use tb_graph::random::{configuration_model, configuration_model_multigraph, random_regular_graph};

/// Construction-free metadata for [`jellyfish`]: the random wiring varies
/// with the seed, but the equipment (and the `r`-regular link count) does
/// not.
pub(crate) fn jellyfish_meta(
    switches: usize,
    degree: usize,
    servers_per_switch: usize,
    seed: u64,
) -> TopoMeta {
    TopoMeta {
        name: "Jellyfish".into(),
        params: format!("N={switches}, r={degree}, seed={seed}"),
        switches,
        servers: switches * servers_per_switch,
        server_switches: if servers_per_switch > 0 { switches } else { 0 },
        links: Some(switches * degree / 2),
        degree: Some(degree),
    }
}

/// Construction-free metadata for [`same_equipment`], derived from the
/// reference topology's metadata: the rewiring preserves every count.
pub(crate) fn same_equipment_meta(reference: &TopoMeta, seed: u64) -> TopoMeta {
    TopoMeta {
        name: "Jellyfish (same equipment)".into(),
        params: format!("of {} [{}], seed={seed}", reference.name, reference.params),
        switches: reference.switches,
        servers: reference.servers,
        server_switches: reference.server_switches,
        links: reference.links,
        degree: reference.degree,
    }
}

/// Builds a Jellyfish network: `switches` top-of-rack switches, each with
/// `degree` inter-switch links and `servers_per_switch` servers.
pub fn jellyfish(switches: usize, degree: usize, servers_per_switch: usize, seed: u64) -> Topology {
    let g = random_regular_graph(switches, degree, seed);
    Topology::with_uniform_servers(
        "Jellyfish",
        format!("N={switches}, r={degree}, seed={seed}"),
        g,
        servers_per_switch,
    )
}

/// Builds a random graph with *exactly the same equipment* as `reference`:
/// same number of switches, every switch keeping its inter-switch degree and
/// its server count, but with the links rewired uniformly at random
/// (configuration model conditioned on simplicity and connectivity).
pub fn same_equipment(reference: &Topology, seed: u64) -> Topology {
    let degrees = reference.graph.degree_sequence();
    let n = degrees.len();
    // Degree sequences with a node degree >= n (possible when the reference
    // uses link trunking, e.g. HyperX with K > 1) cannot be realized as a
    // simple graph; fall back to the multigraph configuration model, which is
    // the natural "rewire the same cables at random" interpretation.
    let g = if degrees.iter().any(|&d| d >= n) {
        configuration_model_multigraph(&degrees, seed)
    } else {
        configuration_model(&degrees, seed)
    };
    Topology::new(
        "Jellyfish (same equipment)",
        format!("of {} [{}], seed={seed}", reference.name, reference.params),
        g,
        reference.servers.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fattree::fat_tree;
    use crate::hypercube::hypercube;
    use tb_graph::connectivity::is_connected;

    #[test]
    fn jellyfish_counts() {
        let t = jellyfish(40, 5, 6, 1);
        assert_eq!(t.num_switches(), 40);
        assert_eq!(t.num_links(), 100);
        assert_eq!(t.num_servers(), 240);
        assert!(is_connected(&t.graph));
        for u in 0..40 {
            assert_eq!(t.graph.degree(u), 5);
        }
    }

    #[test]
    fn same_equipment_preserves_equipment() {
        let reference = hypercube(4, 2);
        let rnd = same_equipment(&reference, 7);
        assert_eq!(rnd.num_switches(), reference.num_switches());
        assert_eq!(rnd.num_links(), reference.num_links());
        assert_eq!(rnd.num_servers(), reference.num_servers());
        assert_eq!(
            rnd.graph.degree_sequence(),
            reference.graph.degree_sequence()
        );
        assert_eq!(rnd.servers, reference.servers);
        assert!(is_connected(&rnd.graph));
    }

    #[test]
    fn same_equipment_of_irregular_topology() {
        // Fat tree has an irregular *used*-port sequence (core switches use
        // fewer inter-switch links than k if servers are counted separately);
        // the configuration model must match it exactly.
        let reference = fat_tree(4);
        let rnd = same_equipment(&reference, 3);
        assert_eq!(
            rnd.graph.degree_sequence(),
            reference.graph.degree_sequence()
        );
        assert!(is_connected(&rnd.graph));
    }

    #[test]
    fn different_seeds_give_different_wirings() {
        let a = jellyfish(30, 4, 1, 1);
        let b = jellyfish(30, 4, 1, 2);
        let ea: Vec<_> = a.graph.edges().iter().map(|e| (e.u, e.v)).collect();
        let eb: Vec<_> = b.graph.edges().iter().map(|e| (e.u, e.v)).collect();
        assert_ne!(ea, eb);
    }
}
