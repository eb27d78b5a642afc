//! The metadata contract, property-tested: for every family, every ladder
//! rung spec, every representative spec and every natural-network stand-in,
//! across scales and seeds, the construction-free metadata must describe the
//! constructed topology *exactly* — names, params, switch/server counts,
//! link counts and degree caps. The sweep engine's zero-build cache-hot path
//! depends on this equivalence.
//!
//! The test first proves that the metadata pass constructs **zero**
//! topologies, reading the construction counter of its own thread, so
//! sibling tests that build graphs concurrently cannot disturb it.

use tb_topology::families::{Scale, ALL_FAMILIES};
use tb_topology::natural::{natural_meta, natural_network};
use tb_topology::{constructions, TopoMeta, TopoSpec, Topology};

const SEEDS: [u64; 3] = [1, 7, 1_000_003];
const NATURAL_INDICES: usize = 16;

fn assert_meta_matches(meta: &TopoMeta, built: &Topology, what: &str) {
    assert_eq!(meta.name, built.name, "{what}: name");
    assert_eq!(meta.params, built.params, "{what}: params");
    assert_eq!(meta.switches, built.num_switches(), "{what}: switches");
    assert_eq!(meta.servers, built.num_servers(), "{what}: servers");
    assert_eq!(
        meta.server_switches,
        built.server_switches().len(),
        "{what}: server switches"
    );
    if let Some(links) = meta.links {
        assert_eq!(links, built.num_links(), "{what}: links");
    }
    if let Some(degree) = meta.degree {
        let max_degree = (0..built.num_switches())
            .map(|u| built.graph.degree(u))
            .max()
            .unwrap_or(0);
        assert_eq!(degree, max_degree, "{what}: degree cap");
    }
}

#[test]
fn metadata_is_construction_free_and_exact() {
    // Phase 1: collect every metadata record without building anything.
    let builds_before = constructions();
    let mut specs: Vec<(String, TopoSpec)> = Vec::new();
    for family in ALL_FAMILIES {
        for scale in [Scale::Small, Scale::Full] {
            for seed in SEEDS {
                for index in 0..family.ladder_len(scale) {
                    let spec = family
                        .ladder_spec(scale, seed, index)
                        .expect("in-range rungs have a spec");
                    specs.push((format!("{}/{scale:?}/{seed}/{index}", family.name()), spec));
                }
                // Out-of-range rungs have no spec.
                assert!(family
                    .ladder_spec(scale, seed, family.ladder_len(scale) + 3)
                    .is_none());
            }
        }
        for seed in SEEDS {
            specs.push((
                format!("{}/representative/{seed}", family.name()),
                family.representative_spec(seed),
            ));
        }
    }
    let metas: Vec<Option<TopoMeta>> = specs.iter().map(|(_, spec)| spec.metadata()).collect();
    let naturals: Vec<TopoMeta> = (0..NATURAL_INDICES).map(natural_meta).collect();
    assert_eq!(
        constructions() - builds_before,
        0,
        "metadata lookups must not construct topologies"
    );

    // Phase 2: build each instance and compare. Feasibility (an infeasible
    // HyperX design search) must agree between metadata and construction.
    let mut checked = 0usize;
    for ((what, spec), meta) in specs.iter().zip(metas) {
        match spec.build() {
            Some(built) => {
                let meta = meta.unwrap_or_else(|| panic!("{what}: builds but no metadata"));
                assert_meta_matches(&meta, &built, what);
                checked += 1;
            }
            None => assert!(meta.is_none(), "{what}: metadata without a build"),
        }
    }
    for (index, meta) in naturals.iter().enumerate() {
        for seed in SEEDS {
            let built = natural_network(index, seed);
            assert_meta_matches(meta, &built, &format!("natural/{index}"));
            checked += 1;
        }
    }
    assert!(checked > 100, "property test must cover the full grid");
}
