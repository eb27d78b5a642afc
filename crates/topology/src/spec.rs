//! Declarative topology specifications.
//!
//! A [`TopoSpec`] is a recipe that deterministically rebuilds a topology from
//! scratch: every randomized constructor takes its seed from the spec itself,
//! so the same spec always yields the same graph regardless of when, where or
//! on which thread it is built. The family ladders and representatives
//! ([`Family::ladder_spec`](crate::Family::ladder_spec),
//! [`Family::representative_spec`](crate::Family::representative_spec)) are
//! specs too, so one instance has one spelling. The spec's `Debug`
//! representation is part of the sweep cache key, which is why specs carry
//! explicit seeds rather than reading any ambient configuration.

use crate::bcube::{bcube, bcube_meta};
use crate::dcell::{dcell, dcell_meta};
use crate::dragonfly::{balanced_dragonfly, balanced_dragonfly_meta};
use crate::expander::{
    clustered_random, clustered_random_meta, subdivided_expander, subdivided_expander_meta,
};
use crate::fattree::{fat_tree, fat_tree_meta};
use crate::flattened_butterfly::{flattened_butterfly, flattened_butterfly_meta};
use crate::hypercube::{hypercube, hypercube_meta};
use crate::hyperx::{build_design, design_meta, design_search};
use crate::jellyfish::{jellyfish, jellyfish_meta, same_equipment, same_equipment_meta};
use crate::longhop::{long_hop, long_hop_meta};
use crate::natural::{natural_meta, natural_network};
use crate::slimfly::{canonical_servers_per_router, slim_fly, slim_fly_meta};
use crate::{TopoMeta, Topology};

/// A deterministic recipe for building one topology instance.
#[derive(Debug, Clone, PartialEq)]
pub enum TopoSpec {
    /// `BCube_k` with `n`-port switches (server relay nodes count as
    /// switches).
    BCube {
        /// Switch port count.
        n: usize,
        /// Highest level (`k + 1` levels).
        k: usize,
    },
    /// `DCell_level` with `n` servers per `DCell_0`.
    DCell {
        /// Servers per `DCell_0`.
        n: usize,
        /// Recursion level.
        level: usize,
    },
    /// Balanced dragonfly: `h` global links and `h` servers per router,
    /// `2h` routers per group.
    Dragonfly {
        /// Global links per router.
        h: usize,
    },
    /// `d`-dimensional hypercube with `servers` servers per switch.
    Hypercube {
        /// Dimension.
        dims: usize,
        /// Servers per switch.
        servers: usize,
    },
    /// Three-level fat tree of radix `k`.
    FatTree {
        /// Switch radix.
        k: usize,
    },
    /// Jellyfish random regular graph.
    Jellyfish {
        /// Number of switches.
        switches: usize,
        /// Inter-switch degree.
        degree: usize,
        /// Servers per switch.
        servers: usize,
        /// Construction seed.
        seed: u64,
    },
    /// Jellyfish with `servers_total` servers spread as evenly as possible
    /// over the switches (the Fig. 15 equal-equipment comparison).
    JellyfishSpread {
        /// Number of switches.
        switches: usize,
        /// Inter-switch degree.
        degree: usize,
        /// Total server count to spread.
        servers_total: usize,
        /// Construction seed.
        seed: u64,
    },
    /// `k`-ary `n`-stage flattened butterfly.
    FlattenedButterfly {
        /// Arity.
        k: usize,
        /// Stages.
        n: usize,
    },
    /// Long Hop network.
    LongHop {
        /// Hypercube dimension.
        dim: usize,
        /// Total degree.
        degree: usize,
        /// Servers per switch.
        servers: usize,
    },
    /// Slim Fly MMS graph for prime power `q` with the canonical
    /// concentration.
    SlimFly {
        /// MMS parameter.
        q: usize,
    },
    /// The cheapest HyperX design for the given constraints (may not exist).
    HyperX {
        /// Switch radix bound.
        radix: usize,
        /// Minimum server count.
        min_servers: usize,
        /// Target bisection ratio.
        bisection: f64,
    },
    /// The `index`-th natural-network stand-in (see
    /// [`natural_network`]`(index, seed)`; instances are independent of how
    /// many the scenario asks for).
    Natural {
        /// Index of this network.
        index: usize,
        /// Generation seed.
        seed: u64,
    },
    /// Theorem-1 graph A: two-cluster random graph.
    ClusteredRandom {
        /// Nodes.
        n: usize,
        /// Intra-cluster degree.
        alpha: usize,
        /// Cross-cluster degree.
        beta: usize,
        /// Construction seed.
        seed: u64,
    },
    /// Theorem-1 graph B: expander with every edge subdivided into a path.
    SubdividedExpander {
        /// Base expander nodes.
        base_nodes: usize,
        /// Half-degree of the base expander.
        d: usize,
        /// Subdivision path length.
        p: usize,
        /// Construction seed.
        seed: u64,
    },
    /// A random graph built with exactly the equipment of `base`.
    SameEquipment {
        /// The topology whose equipment is copied.
        base: Box<TopoSpec>,
        /// Construction seed.
        seed: u64,
    },
    /// `base` with its server attachment replaced by `servers_per_switch`
    /// on every server-carrying switch (see
    /// [`Topology::with_servers_per_switch`]).
    WithServers {
        /// The underlying topology.
        base: Box<TopoSpec>,
        /// New per-switch server count.
        servers_per_switch: usize,
    },
}

impl TopoSpec {
    /// Builds the topology. `None` when the spec is unsatisfiable (a failed
    /// HyperX design search).
    pub fn build(&self) -> Option<Topology> {
        match self {
            TopoSpec::BCube { n, k } => Some(bcube(*n, *k)),
            TopoSpec::DCell { n, level } => Some(dcell(*n, *level)),
            TopoSpec::Dragonfly { h } => Some(balanced_dragonfly(*h)),
            TopoSpec::Hypercube { dims, servers } => Some(hypercube(*dims, *servers)),
            TopoSpec::FatTree { k } => Some(fat_tree(*k)),
            TopoSpec::Jellyfish {
                switches,
                degree,
                servers,
                seed,
            } => Some(jellyfish(*switches, *degree, *servers, *seed)),
            TopoSpec::JellyfishSpread {
                switches,
                degree,
                servers_total,
                seed,
            } => {
                let base = jellyfish(*switches, *degree, 0, *seed);
                let mut servers = vec![servers_total / switches; *switches];
                for s in servers.iter_mut().take(servers_total % switches) {
                    *s += 1;
                }
                Some(Topology::new(
                    base.name.clone(),
                    format!("N={switches}, r={degree}, {servers_total} servers"),
                    base.graph,
                    servers,
                ))
            }
            TopoSpec::FlattenedButterfly { k, n } => Some(flattened_butterfly(*k, *n)),
            TopoSpec::LongHop {
                dim,
                degree,
                servers,
            } => Some(long_hop(*dim, *degree, *servers)),
            TopoSpec::SlimFly { q } => Some(slim_fly(*q, canonical_servers_per_router(*q))),
            TopoSpec::HyperX {
                radix,
                min_servers,
                bisection,
            } => design_search(*radix, *min_servers, *bisection).map(|d| build_design(&d)),
            TopoSpec::Natural { index, seed } => Some(natural_network(*index, *seed)),
            TopoSpec::ClusteredRandom {
                n,
                alpha,
                beta,
                seed,
            } => Some(clustered_random(*n, *alpha, *beta, *seed)),
            TopoSpec::SubdividedExpander {
                base_nodes,
                d,
                p,
                seed,
            } => Some(subdivided_expander(*base_nodes, *d, *p, *seed)),
            TopoSpec::SameEquipment { base, seed } => Some(same_equipment(&base.build()?, *seed)),
            TopoSpec::WithServers {
                base,
                servers_per_switch,
            } => Some(base.build()?.with_servers_per_switch(*servers_per_switch)),
        }
    }

    /// Construction-free metadata: labels and counts of the topology
    /// [`TopoSpec::build`] would produce, without building any graph.
    /// Returns `Some` exactly when `build()` would (the equivalence is
    /// pinned by the spec-metadata tests); scenario expansion and rendering
    /// run entirely on this, which is what makes cache-hot sweeps build-free.
    pub fn metadata(&self) -> Option<TopoMeta> {
        match self {
            TopoSpec::BCube { n, k } => Some(bcube_meta(*n, *k)),
            TopoSpec::DCell { n, level } => Some(dcell_meta(*n, *level)),
            TopoSpec::Dragonfly { h } => Some(balanced_dragonfly_meta(*h)),
            TopoSpec::Hypercube { dims, servers } => Some(hypercube_meta(*dims, *servers)),
            TopoSpec::FatTree { k } => Some(fat_tree_meta(*k)),
            TopoSpec::Jellyfish {
                switches,
                degree,
                servers,
                seed,
            } => Some(jellyfish_meta(*switches, *degree, *servers, *seed)),
            TopoSpec::JellyfishSpread {
                switches,
                degree,
                servers_total,
                seed,
            } => {
                let base = jellyfish_meta(*switches, *degree, 0, *seed);
                Some(TopoMeta {
                    params: format!("N={switches}, r={degree}, {servers_total} servers"),
                    servers: *servers_total,
                    server_switches: (*servers_total).min(*switches),
                    ..base
                })
            }
            TopoSpec::FlattenedButterfly { k, n } => Some(flattened_butterfly_meta(*k, *n)),
            TopoSpec::LongHop {
                dim,
                degree,
                servers,
            } => Some(long_hop_meta(*dim, *degree, *servers)),
            TopoSpec::SlimFly { q } => Some(slim_fly_meta(*q, canonical_servers_per_router(*q))),
            TopoSpec::HyperX {
                radix,
                min_servers,
                bisection,
            } => design_search(*radix, *min_servers, *bisection).map(|d| design_meta(&d)),
            TopoSpec::Natural { index, seed: _ } => Some(natural_meta(*index)),
            TopoSpec::ClusteredRandom {
                n,
                alpha,
                beta,
                seed: _,
            } => Some(clustered_random_meta(*n, *alpha, *beta)),
            TopoSpec::SubdividedExpander {
                base_nodes,
                d,
                p,
                seed: _,
            } => Some(subdivided_expander_meta(*base_nodes, *d, *p)),
            TopoSpec::SameEquipment { base, seed } => {
                Some(same_equipment_meta(&base.metadata()?, *seed))
            }
            TopoSpec::WithServers {
                base,
                servers_per_switch,
            } => {
                let base = base.metadata()?;
                let server_switches = if *servers_per_switch > 0 {
                    base.server_switches
                } else {
                    0
                };
                Some(TopoMeta {
                    servers: base.server_switches * servers_per_switch,
                    server_switches,
                    ..base
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::Scale;

    #[test]
    fn build_is_deterministic() {
        let spec = TopoSpec::Jellyfish {
            switches: 16,
            degree: 4,
            servers: 1,
            seed: 9,
        };
        let a = spec.build().unwrap();
        let b = spec.build().unwrap();
        assert_eq!(a.graph.degree_sequence(), b.graph.degree_sequence());
        assert_eq!(a.servers, b.servers);
    }

    #[test]
    fn jellyfish_spread_distributes_servers() {
        let spec = TopoSpec::JellyfishSpread {
            switches: 80,
            degree: 6,
            servers_total: 128,
            seed: 1,
        };
        let t = spec.build().unwrap();
        assert_eq!(t.num_servers(), 128);
        assert!(t.servers.iter().all(|&s| s == 1 || s == 2));
        assert_eq!(t.servers.iter().filter(|&&s| s == 2).count(), 48);
    }

    #[test]
    fn with_servers_wraps_base() {
        let spec = TopoSpec::WithServers {
            base: Box::new(TopoSpec::Hypercube {
                dims: 3,
                servers: 1,
            }),
            servers_per_switch: 4,
        };
        let t = spec.build().unwrap();
        assert_eq!(t.num_servers(), 32);
    }

    #[test]
    fn unsatisfiable_specs_build_none() {
        let spec = TopoSpec::HyperX {
            radix: 2,
            min_servers: 1_000_000,
            bisection: 0.4,
        };
        assert!(spec.build().is_none());
        assert!(spec.metadata().is_none(), "metadata must mirror build");
    }

    /// Every spec shape used by the scenarios, for the metadata contract.
    fn spec_zoo(seed: u64) -> Vec<TopoSpec> {
        let mut specs = vec![
            TopoSpec::BCube { n: 3, k: 1 },
            TopoSpec::DCell { n: 3, level: 1 },
            TopoSpec::Dragonfly { h: 1 },
            TopoSpec::Hypercube {
                dims: 4,
                servers: 2,
            },
            TopoSpec::FatTree { k: 6 },
            TopoSpec::Jellyfish {
                switches: 20,
                degree: 4,
                servers: 3,
                seed,
            },
            TopoSpec::JellyfishSpread {
                switches: 20,
                degree: 4,
                servers_total: 31,
                seed,
            },
            TopoSpec::JellyfishSpread {
                switches: 20,
                degree: 4,
                servers_total: 13,
                seed,
            },
            TopoSpec::FlattenedButterfly { k: 4, n: 3 },
            TopoSpec::LongHop {
                dim: 5,
                degree: 8,
                servers: 2,
            },
            TopoSpec::SlimFly { q: 5 },
            TopoSpec::HyperX {
                radix: 24,
                min_servers: 256,
                bisection: 0.4,
            },
            TopoSpec::ClusteredRandom {
                n: 24,
                alpha: 4,
                beta: 1,
                seed,
            },
            TopoSpec::SubdividedExpander {
                base_nodes: 12,
                d: 2,
                p: 3,
                seed,
            },
            TopoSpec::SameEquipment {
                base: Box::new(TopoSpec::FatTree { k: 4 }),
                seed,
            },
            TopoSpec::WithServers {
                base: Box::new(TopoSpec::FatTree { k: 4 }),
                servers_per_switch: 5,
            },
        ];
        for index in [0usize, 1, 2, 3, 6] {
            specs.push(TopoSpec::Natural { index, seed });
        }
        for family in crate::ALL_FAMILIES {
            specs.push(family.representative_spec(seed));
            let rung = 1.min(family.ladder_len(Scale::Small) - 1);
            specs.extend(family.ladder_spec(Scale::Small, seed, rung));
        }
        specs
    }

    #[test]
    fn metadata_matches_built_topology() {
        for seed in [1u64, 7] {
            for spec in spec_zoo(seed) {
                let meta = spec
                    .metadata()
                    .unwrap_or_else(|| panic!("{spec:?} has no metadata"));
                let built = spec
                    .build()
                    .unwrap_or_else(|| panic!("{spec:?} does not build"));
                assert_eq!(meta.name, built.name, "{spec:?}");
                assert_eq!(meta.params, built.params, "{spec:?}");
                assert_eq!(meta.switches, built.num_switches(), "{spec:?}");
                assert_eq!(meta.servers, built.num_servers(), "{spec:?}");
                assert_eq!(
                    meta.server_switches,
                    built.server_switches().len(),
                    "{spec:?}"
                );
                if let Some(links) = meta.links {
                    assert_eq!(links, built.num_links(), "{spec:?}");
                }
                if let Some(degree) = meta.degree {
                    let max_degree = (0..built.num_switches())
                        .map(|u| built.graph.degree(u))
                        .max()
                        .unwrap_or(0);
                    assert_eq!(degree, max_degree, "{spec:?}");
                }
            }
        }
    }
}
