//! Enumeration of the ten topology families benchmarked in the paper, with
//! pre-chosen instance ladders used by the scaling experiments (Figs 5–9) and
//! representative mid-size instances used by the per-family experiments
//! (Figs 4, 10–14, Table II).
//!
//! Instance parameters are chosen so that each family spans roughly the
//! tens-to-thousands-of-servers range the paper plots while staying solvable
//! with the bundled LP/FPTAS solvers on a single machine.

use crate::spec::TopoSpec;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

// Per-rung parameter tables of `Family::ladder_spec`.
const BCUBE_RUNGS: [(usize, usize); 6] = [(2, 2), (2, 3), (4, 1), (4, 2), (2, 5), (4, 3)];
const DCELL_RUNGS: [(usize, usize); 6] = [(3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (5, 2)];
const FATTREE_RUNGS: [usize; 6] = [4, 6, 8, 10, 12, 14];
const FBFLY_RUNGS: [usize; 6] = [3, 4, 5, 6, 8, 10];
const HYPERCUBE_RUNGS: [(usize, usize); 6] = [(4, 2), (5, 3), (6, 3), (7, 4), (8, 4), (9, 5)];
const LONGHOP_RUNGS: [(usize, usize, usize); 4] = [(5, 8, 2), (6, 9, 3), (7, 10, 4), (8, 11, 5)];
const SLIMFLY_RUNGS: [usize; 3] = [5, 13, 17];

/// The ten computer-network topology families of §III-A3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Family {
    /// BCube (server-centric, 2-ary in the paper's Table I).
    BCube,
    /// DCell (server-centric, 5-ary in the paper's Table I).
    DCell,
    /// Dragonfly (balanced: a = 2h, p = h).
    Dragonfly,
    /// Three-level fat tree.
    FatTree,
    /// Flattened butterfly.
    FlattenedButterfly,
    /// Hypercube.
    Hypercube,
    /// HyperX (design-searched for a target bisection).
    HyperX,
    /// Jellyfish (uniform random regular graph).
    Jellyfish,
    /// Long Hop network.
    LongHop,
    /// Slim Fly (MMS graph).
    SlimFly,
}

/// All families, in the display order used by the paper's figures.
pub const ALL_FAMILIES: [Family; 10] = [
    Family::BCube,
    Family::DCell,
    Family::Dragonfly,
    Family::FatTree,
    Family::FlattenedButterfly,
    Family::Hypercube,
    Family::HyperX,
    Family::Jellyfish,
    Family::LongHop,
    Family::SlimFly,
];

/// How large an instance ladder to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Small instances only (tests, smoke runs, the sweep benchmark).
    Small,
    /// The full ladder used to regenerate the paper's scaling figures.
    Full,
}

impl Family {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Family::BCube => "BCube",
            Family::DCell => "DCell",
            Family::Dragonfly => "Dragonfly",
            Family::FatTree => "Fat tree",
            Family::FlattenedButterfly => "Flattened BF",
            Family::Hypercube => "Hypercube",
            Family::HyperX => "HyperX",
            Family::Jellyfish => "Jellyfish",
            Family::LongHop => "Long Hop",
            Family::SlimFly => "Slim Fly",
        }
    }

    /// Whether the family prescribes server locations (server-centric or
    /// tree-structured designs); all other families attach servers to every
    /// switch (§III-A2).
    pub fn has_prescribed_server_locations(&self) -> bool {
        matches!(self, Family::BCube | Family::DCell | Family::FatTree)
    }

    /// Number of rungs in the family's instance ladder at `scale`. Rungs are
    /// indexed `0..ladder_len`; a rung's construction can still fail (HyperX
    /// design searches with no feasible design), in which case
    /// [`Family::ladder_instance`] returns `None` for that index.
    pub fn ladder_len(&self, scale: Scale) -> usize {
        let full = scale == Scale::Full;
        match self {
            Family::BCube => {
                if full {
                    6
                } else {
                    4
                }
            }
            Family::DCell => {
                if full {
                    6
                } else {
                    4
                }
            }
            Family::Dragonfly => {
                if full {
                    4
                } else {
                    3
                }
            }
            Family::FatTree => {
                if full {
                    6
                } else {
                    3
                }
            }
            Family::FlattenedButterfly => {
                if full {
                    6
                } else {
                    3
                }
            }
            Family::Hypercube => {
                if full {
                    6
                } else {
                    3
                }
            }
            Family::HyperX => Self::hyperx_targets(full).len(),
            Family::Jellyfish => Self::jellyfish_params(full).len(),
            Family::LongHop => {
                if full {
                    4
                } else {
                    2
                }
            }
            Family::SlimFly => {
                if full {
                    3
                } else {
                    1
                }
            }
        }
    }

    fn hyperx_targets(full: bool) -> &'static [usize] {
        // Targets start at a few hundred servers so the design search
        // returns multi-dimensional HyperX instances (very small
        // targets degenerate into a handful of heavily trunked
        // switches, which are not representative of the family).
        if full {
            &[256, 400, 512, 648, 864, 1024]
        } else {
            &[256, 400, 512]
        }
    }

    fn jellyfish_params(full: bool) -> &'static [(usize, usize, usize)] {
        if full {
            &[
                (25, 6, 3),
                (50, 8, 4),
                (100, 10, 5),
                (200, 12, 6),
                (400, 14, 7),
            ]
        } else {
            &[(25, 6, 3), (50, 8, 4), (100, 10, 5)]
        }
    }

    /// The recipe of the `index`-th rung of the instance ladder — the one
    /// place a rung is defined. `None` for an out-of-range index; a HyperX
    /// rung whose design search fails is a spec that builds `None`.
    pub fn ladder_spec(&self, scale: Scale, seed: u64, index: usize) -> Option<TopoSpec> {
        if index >= self.ladder_len(scale) {
            return None;
        }
        let full = scale == Scale::Full;
        Some(match self {
            Family::BCube => {
                let (n, k) = BCUBE_RUNGS[index];
                TopoSpec::BCube { n, k }
            }
            Family::DCell => {
                let (n, level) = DCELL_RUNGS[index];
                TopoSpec::DCell { n, level }
            }
            Family::Dragonfly => TopoSpec::Dragonfly { h: index + 1 },
            Family::FatTree => TopoSpec::FatTree {
                k: FATTREE_RUNGS[index],
            },
            Family::FlattenedButterfly => TopoSpec::FlattenedButterfly {
                k: FBFLY_RUNGS[index],
                n: 3,
            },
            Family::Hypercube => {
                let (dims, servers) = HYPERCUBE_RUNGS[index];
                TopoSpec::Hypercube { dims, servers }
            }
            Family::HyperX => TopoSpec::HyperX {
                radix: 24,
                min_servers: Self::hyperx_targets(full)[index],
                bisection: 0.4,
            },
            Family::Jellyfish => {
                let (switches, degree, servers) = Self::jellyfish_params(full)[index];
                TopoSpec::Jellyfish {
                    switches,
                    degree,
                    servers,
                    seed: seed.wrapping_add(index as u64),
                }
            }
            Family::LongHop => {
                let (dim, degree, servers) = LONGHOP_RUNGS[index];
                TopoSpec::LongHop {
                    dim,
                    degree,
                    servers,
                }
            }
            Family::SlimFly => TopoSpec::SlimFly {
                q: SLIMFLY_RUNGS[index],
            },
        })
    }

    /// Builds the `index`-th rung of the instance ladder without constructing
    /// the other rungs. `None` for an out-of-range index or an infeasible
    /// design search.
    pub fn ladder_instance(&self, scale: Scale, seed: u64, index: usize) -> Option<Topology> {
        self.ladder_spec(scale, seed, index)?.build()
    }

    /// The successfully built rungs of the ladder, paired with their stable
    /// ladder indices (which [`Family::ladder_instance`] accepts even when
    /// earlier rungs failed to build).
    pub fn ladder(&self, scale: Scale, seed: u64) -> Vec<(usize, Topology)> {
        (0..self.ladder_len(scale))
            .filter_map(|i| self.ladder_instance(scale, seed, i).map(|t| (i, t)))
            .collect()
    }

    /// The instance ladder used for scaling experiments, ordered by size.
    pub fn instances(&self, scale: Scale, seed: u64) -> Vec<Topology> {
        self.ladder(scale, seed)
            .into_iter()
            .map(|(_, t)| t)
            .collect()
    }

    /// The recipe of the representative mid-size instance used by the
    /// per-family (non-scaling) experiments: Fig 4, Figs 10–14 and Table II.
    /// For every family but Jellyfish it is also a rung of the reduced ladder.
    pub fn representative_spec(&self, seed: u64) -> TopoSpec {
        match self {
            Family::BCube => TopoSpec::BCube { n: 4, k: 2 },
            Family::DCell => TopoSpec::DCell { n: 4, level: 1 },
            Family::Dragonfly => TopoSpec::Dragonfly { h: 2 },
            Family::FatTree => TopoSpec::FatTree { k: 8 },
            Family::FlattenedButterfly => TopoSpec::FlattenedButterfly { k: 5, n: 3 },
            Family::Hypercube => TopoSpec::Hypercube {
                dims: 6,
                servers: 3,
            },
            Family::HyperX => TopoSpec::HyperX {
                radix: 24,
                min_servers: 256,
                bisection: 0.4,
            },
            Family::Jellyfish => TopoSpec::Jellyfish {
                switches: 64,
                degree: 8,
                servers: 4,
                seed,
            },
            Family::LongHop => TopoSpec::LongHop {
                dim: 6,
                degree: 9,
                servers: 3,
            },
            Family::SlimFly => TopoSpec::SlimFly { q: 5 },
        }
    }

    /// Builds [`Family::representative_spec`].
    pub fn representative(&self, seed: u64) -> Topology {
        self.representative_spec(seed)
            .build()
            .expect("HyperX design search must succeed for the representative size")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_graph::connectivity::is_connected;

    #[test]
    fn all_families_produce_small_instances() {
        for f in ALL_FAMILIES {
            let instances = f.instances(Scale::Small, 1);
            assert!(!instances.is_empty(), "{} has no instances", f.name());
            for t in &instances {
                assert!(
                    is_connected(&t.graph),
                    "{} instance disconnected",
                    t.describe()
                );
                assert!(t.num_servers() > 0);
                assert!(t.graph.validate().is_ok());
            }
        }
    }

    #[test]
    fn ladder_instance_matches_eager_instances() {
        for f in ALL_FAMILIES {
            for scale in [Scale::Small, Scale::Full] {
                let eager = f.instances(scale, 7);
                let lazy: Vec<Topology> = (0..f.ladder_len(scale))
                    .filter_map(|i| f.ladder_instance(scale, 7, i))
                    .collect();
                assert_eq!(eager.len(), lazy.len(), "{}", f.name());
                for (a, b) in eager.iter().zip(&lazy) {
                    assert_eq!(a.params, b.params, "{}", f.name());
                    assert_eq!(a.num_servers(), b.num_servers(), "{}", f.name());
                    assert_eq!(a.num_links(), b.num_links(), "{}", f.name());
                }
            }
        }
    }

    #[test]
    fn ladder_instance_out_of_range_is_none() {
        for f in ALL_FAMILIES {
            let len = f.ladder_len(Scale::Small);
            assert!(f.ladder_instance(Scale::Small, 1, len + 10).is_none());
        }
    }

    #[test]
    fn instance_ladders_are_increasing_in_size() {
        for f in ALL_FAMILIES {
            let instances = f.instances(Scale::Small, 1);
            for w in instances.windows(2) {
                assert!(
                    w[0].num_servers() <= w[1].num_servers(),
                    "{}: ladder not sorted by servers",
                    f.name()
                );
            }
        }
    }

    #[test]
    fn representatives_are_connected_and_modest() {
        for f in ALL_FAMILIES {
            let t = f.representative(3);
            assert!(is_connected(&t.graph));
            assert!(
                t.num_switches() <= 1200,
                "{} representative too large",
                f.name()
            );
        }
    }

    #[test]
    fn representatives_other_than_jellyfish_are_reduced_ladder_rungs() {
        for f in ALL_FAMILIES {
            let rep = f.representative_spec(3);
            let on_ladder = (0..f.ladder_len(Scale::Small))
                .any(|i| f.ladder_spec(Scale::Small, 3, i).as_ref() == Some(&rep));
            assert_eq!(on_ladder, f != Family::Jellyfish, "{}", f.name());
        }
    }

    #[test]
    fn prescribed_server_locations_flag() {
        assert!(Family::FatTree.has_prescribed_server_locations());
        assert!(Family::BCube.has_prescribed_server_locations());
        assert!(!Family::Jellyfish.has_prescribed_server_locations());
    }
}
