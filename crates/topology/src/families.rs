//! Enumeration of the ten topology families benchmarked in the paper, with
//! pre-chosen instance ladders used by the scaling experiments (Figs 5–9) and
//! representative mid-size instances used by the per-family experiments
//! (Figs 4, 10–14, Table II).
//!
//! Instance parameters are chosen so that each family spans roughly the
//! tens-to-thousands-of-servers range the paper plots while staying solvable
//! with the bundled LP/FPTAS solvers on a single machine.

use crate::{
    bcube::{bcube, bcube_meta},
    dcell::{dcell, dcell_meta},
    dragonfly::{balanced_dragonfly, balanced_dragonfly_meta},
    fattree::{fat_tree, fat_tree_meta},
    flattened_butterfly::{flattened_butterfly, flattened_butterfly_meta},
    hypercube::{hypercube, hypercube_meta},
    hyperx::{build_design, design_meta, design_search},
    jellyfish::{jellyfish, jellyfish_meta},
    longhop::{long_hop, long_hop_meta},
    meta::TopoMeta,
    slimfly::{canonical_servers_per_router, slim_fly, slim_fly_meta},
    topology::Topology,
};
use serde::{Deserialize, Serialize};

// Per-rung parameter tables shared by `ladder_instance` (which builds) and
// `ladder_meta` (which must describe the same instance without building).
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

    /// Builds the `index`-th rung of the instance ladder without constructing
    /// the other rungs — the lazy per-cell entry point the sweep engine uses.
    /// `None` for an out-of-range index or an infeasible design search.
    pub fn ladder_instance(&self, scale: Scale, seed: u64, index: usize) -> Option<Topology> {
        if index >= self.ladder_len(scale) {
            return None;
        }
        let full = scale == Scale::Full;
        Some(match self {
            Family::BCube => {
                let (n, k) = BCUBE_RUNGS[index];
                bcube(n, k)
            }
            Family::DCell => {
                let (n, k) = DCELL_RUNGS[index];
                dcell(n, k)
            }
            Family::Dragonfly => balanced_dragonfly(index + 1),
            Family::FatTree => fat_tree(FATTREE_RUNGS[index]),
            Family::FlattenedButterfly => flattened_butterfly(FBFLY_RUNGS[index], 3),
            Family::Hypercube => {
                let (d, s) = HYPERCUBE_RUNGS[index];
                hypercube(d, s)
            }
            Family::HyperX => {
                let n = Self::hyperx_targets(full)[index];
                return design_search(24, n, 0.4).map(|d| build_design(&d));
            }
            Family::Jellyfish => {
                let (n, r, s) = Self::jellyfish_params(full)[index];
                jellyfish(n, r, s, seed.wrapping_add(index as u64))
            }
            Family::LongHop => {
                let (d, deg, s) = LONGHOP_RUNGS[index];
                long_hop(d, deg, s)
            }
            Family::SlimFly => {
                let q = SLIMFLY_RUNGS[index];
                slim_fly(q, canonical_servers_per_router(q))
            }
        })
    }

    /// Construction-free metadata for the `index`-th ladder rung — describes
    /// exactly the instance [`Family::ladder_instance`] would build (pinned
    /// by the `metadata_equiv` property test) without constructing a graph.
    /// `None` under the same conditions `ladder_instance` returns `None`.
    pub fn ladder_meta(&self, scale: Scale, seed: u64, index: usize) -> Option<TopoMeta> {
        if index >= self.ladder_len(scale) {
            return None;
        }
        let full = scale == Scale::Full;
        Some(match self {
            Family::BCube => {
                let (n, k) = BCUBE_RUNGS[index];
                bcube_meta(n, k)
            }
            Family::DCell => {
                let (n, k) = DCELL_RUNGS[index];
                dcell_meta(n, k)
            }
            Family::Dragonfly => balanced_dragonfly_meta(index + 1),
            Family::FatTree => fat_tree_meta(FATTREE_RUNGS[index]),
            Family::FlattenedButterfly => flattened_butterfly_meta(FBFLY_RUNGS[index], 3),
            Family::Hypercube => {
                let (d, s) = HYPERCUBE_RUNGS[index];
                hypercube_meta(d, s)
            }
            Family::HyperX => {
                let n = Self::hyperx_targets(full)[index];
                return design_search(24, n, 0.4).map(|d| design_meta(&d));
            }
            Family::Jellyfish => {
                let (n, r, s) = Self::jellyfish_params(full)[index];
                jellyfish_meta(n, r, s, seed.wrapping_add(index as u64))
            }
            Family::LongHop => {
                let (d, deg, s) = LONGHOP_RUNGS[index];
                long_hop_meta(d, deg, s)
            }
            Family::SlimFly => {
                let q = SLIMFLY_RUNGS[index];
                slim_fly_meta(q, canonical_servers_per_router(q))
            }
        })
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

    /// A representative mid-size instance used by the per-family (non-scaling)
    /// experiments: Fig 4, Figs 10–14 and Table II.
    pub fn representative(&self, seed: u64) -> Topology {
        match self {
            Family::BCube => bcube(4, 2),
            Family::DCell => dcell(4, 1),
            Family::Dragonfly => balanced_dragonfly(2),
            Family::FatTree => fat_tree(8),
            Family::FlattenedButterfly => flattened_butterfly(5, 3),
            Family::Hypercube => hypercube(6, 3),
            Family::HyperX => design_search(24, 256, 0.4)
                .map(|d| build_design(&d))
                .expect("HyperX design search must succeed for the representative size"),
            Family::Jellyfish => jellyfish(64, 8, 4, seed),
            Family::LongHop => long_hop(6, 9, 3),
            Family::SlimFly => slim_fly(5, canonical_servers_per_router(5)),
        }
    }

    /// Construction-free metadata for [`Family::representative`].
    pub fn representative_meta(&self, seed: u64) -> TopoMeta {
        match self {
            Family::BCube => bcube_meta(4, 2),
            Family::DCell => dcell_meta(4, 1),
            Family::Dragonfly => balanced_dragonfly_meta(2),
            Family::FatTree => fat_tree_meta(8),
            Family::FlattenedButterfly => flattened_butterfly_meta(5, 3),
            Family::Hypercube => hypercube_meta(6, 3),
            Family::HyperX => design_search(24, 256, 0.4)
                .map(|d| design_meta(&d))
                .expect("HyperX design search must succeed for the representative size"),
            Family::Jellyfish => jellyfish_meta(64, 8, 4, seed),
            Family::LongHop => long_hop_meta(6, 9, 3),
            Family::SlimFly => slim_fly_meta(5, canonical_servers_per_router(5)),
        }
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
    fn prescribed_server_locations_flag() {
        assert!(Family::FatTree.has_prescribed_server_locations());
        assert!(Family::BCube.has_prescribed_server_locations());
        assert!(!Family::Jellyfish.has_prescribed_server_locations());
    }
}
