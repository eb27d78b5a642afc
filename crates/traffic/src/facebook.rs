//! Synthetic stand-ins for the measured Facebook cluster traffic matrices used
//! in §IV-B (Figs 13 and 14).
//!
//! Roy et al. (SIGCOMM 2015) published inter-rack traffic heatmaps for two
//! 64-rack clusters; the paper's authors recovered the weights from the
//! color-coded log-scale plots with an accuracy of one order of magnitude
//! (`10^i` buckets). The raw data is not public, so this module generates
//! matrices with the same structure:
//!
//! * **TM-H** (Hadoop cluster) — near-uniform all-to-all traffic: every rack
//!   pair's demand is drawn from a narrow log-range, so the matrix is almost
//!   flat.
//! * **TM-F** (frontend cluster) — strongly skewed: a minority of racks are
//!   cache racks generating/absorbing traffic two to three orders of magnitude
//!   heavier than the web racks; the rest are in between.
//!
//! Only relative weights matter (the throughput computation rescales the TM,
//! see §IV-B), and the experiments compare "sampled" vs "shuffled" placements,
//! which depends only on the skew structure — both properties are preserved by
//! the synthetic generator. This substitution is recorded in `DESIGN.md`.

use crate::matrix::{Demand, TrafficMatrix};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Number of racks in both measured clusters.
pub const FACEBOOK_RACKS: usize = 64;

/// Generates the Hadoop-cluster-like TM-H over `racks` racks: nearly uniform
/// weights drawn log-uniformly from one order of magnitude.
pub fn tm_h(racks: usize, seed: u64) -> TrafficMatrix {
    assert!(racks >= 2);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut demands = Vec::with_capacity(racks * racks);
    for src in 0..racks {
        for dst in 0..racks {
            if src == dst {
                continue;
            }
            // weights in [1e3, 1e4): one log-decade, near uniform.
            let exp = 3.0 + rng.gen::<f64>();
            demands.push(Demand {
                src,
                dst,
                amount: 10f64.powf(exp),
            });
        }
    }
    TrafficMatrix::new(racks, demands)
}

/// Rack roles in the frontend cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Cache,
    Web,
    Misc,
}

fn frontend_roles(racks: usize) -> Vec<Role> {
    // Roughly matching the published cluster: ~1/8 cache racks (heavy),
    // ~5/8 web racks (light), the rest miscellaneous.
    (0..racks)
        .map(|r| {
            if r % 8 == 0 {
                Role::Cache
            } else if r % 8 <= 5 {
                Role::Web
            } else {
                Role::Misc
            }
        })
        .collect()
}

/// Generates the frontend-cluster-like TM-F over `racks` racks: cache racks
/// exchange traffic two to three orders of magnitude heavier than web racks.
pub fn tm_f(racks: usize, seed: u64) -> TrafficMatrix {
    assert!(racks >= 2);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let roles = frontend_roles(racks);
    let mut demands = Vec::with_capacity(racks * racks);
    for src in 0..racks {
        for dst in 0..racks {
            if src == dst {
                continue;
            }
            // Base decade depends on the heavier endpoint's role.
            let decade = match (roles[src], roles[dst]) {
                (Role::Cache, Role::Cache) => 6.0,
                (Role::Cache, _) | (_, Role::Cache) => 5.0,
                (Role::Misc, _) | (_, Role::Misc) => 4.0,
                (Role::Web, Role::Web) => 3.0,
            };
            let exp = decade + rng.gen::<f64>();
            demands.push(Demand {
                src,
                dst,
                amount: 10f64.powf(exp),
            });
        }
    }
    TrafficMatrix::new(racks, demands)
}

/// Skew statistic of the tests: ratio of the mean demand of the heaviest 10%
/// of flows to the mean demand of the lightest 10%.
#[cfg(test)]
pub(crate) fn skew_ratio(tm: &TrafficMatrix) -> f64 {
    let mut amounts: Vec<f64> = tm.demands().iter().map(|d| d.amount).collect();
    amounts.sort_by(f64::total_cmp);
    let k = (amounts.len() / 10).max(1);
    let low: f64 = amounts.iter().take(k).sum::<f64>() / k as f64;
    let high: f64 = amounts.iter().rev().take(k).sum::<f64>() / k as f64;
    high / low
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tm_h_is_nearly_uniform() {
        let tm = tm_h(FACEBOOK_RACKS, 1);
        assert_eq!(tm.num_flows(), 64 * 63);
        assert!(
            skew_ratio(&tm) < 15.0,
            "TM-H should be near uniform: {}",
            skew_ratio(&tm)
        );
    }

    #[test]
    fn tm_f_is_strongly_skewed() {
        let tm = tm_f(FACEBOOK_RACKS, 1);
        assert_eq!(tm.num_flows(), 64 * 63);
        assert!(
            skew_ratio(&tm) > 100.0,
            "TM-F should be heavily skewed: {}",
            skew_ratio(&tm)
        );
    }

    #[test]
    fn tm_f_more_skewed_than_tm_h() {
        assert!(skew_ratio(&tm_f(64, 2)) > 5.0 * skew_ratio(&tm_h(64, 2)));
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(tm_f(32, 9).demands(), tm_f(32, 9).demands());
        assert_ne!(
            tm_f(32, 9).demands()[0].amount,
            tm_f(32, 10).demands()[0].amount
        );
    }

    #[test]
    fn smaller_rack_counts_supported() {
        let tm = tm_h(10, 3);
        assert_eq!(tm.num_flows(), 90);
    }
}
