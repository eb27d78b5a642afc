//! Synthetic traffic-matrix generators (§II-C, §IV-A of the paper).

use crate::matrix::{Demand, TrafficMatrix};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tb_graph::matching::{greedy_assignment, max_weight_assignment};
use tb_graph::shortest_path::apsp_unweighted;
use tb_graph::Graph;

/// Switches that host at least one server (traffic endpoints).
fn endpoint_switches(servers: &[usize]) -> Vec<usize> {
    (0..servers.len()).filter(|&u| servers[u] > 0).collect()
}

/// The all-to-all (complete) TM `T_{A2A}`: every server sends `1/S` to every
/// other server (`S` = total servers), aggregated to switch level as
/// `T(u, v) = s_u * s_v / S`. Each server sends slightly less than 1 unit in
/// total, so the TM is hose-feasible by construction.
pub fn all_to_all(servers: &[usize]) -> TrafficMatrix {
    let n = servers.len();
    let total: usize = servers.iter().sum();
    assert!(total > 1, "all-to-all needs at least two servers");
    let eps = endpoint_switches(servers);
    let mut demands = Vec::with_capacity(eps.len() * eps.len());
    for &u in &eps {
        for &v in &eps {
            if u == v {
                continue;
            }
            demands.push(Demand {
                src: u,
                dst: v,
                amount: servers[u] as f64 * servers[v] as f64 / total as f64,
            });
        }
    }
    TrafficMatrix::new(n, demands)
}

/// The random-matching TM with `servers_per_switch` flows per endpoint switch
/// ("Random Matching - k" in Fig 2): `k = servers_per_switch` rounds, each a
/// random permutation of the endpoint switches (switches with servers) in
/// which every endpoint switch sends one unit to its image. A round shuffles
/// the switches, then walks them in order and repairs each fixed point by
/// one swap with the next position (cyclically); a fixed point that
/// survives the walk sends nothing that round. The unit does not depend on
/// the switch's server count, and a pair drawn in several rounds appears as
/// several demands.
pub fn random_matching(servers: &[usize], servers_per_switch: usize, seed: u64) -> TrafficMatrix {
    let n = servers.len();
    let eps = endpoint_switches(servers);
    assert!(
        eps.len() > 1,
        "random matching needs at least two endpoint switches"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut demands = Vec::new();
    for round in 0..servers_per_switch {
        // A random derangement-ish permutation of endpoint switches: shuffle
        // and repair fixed points where possible.
        let mut perm: Vec<usize> = eps.clone();
        perm.shuffle(&mut rng);
        for i in 0..eps.len() {
            if perm[i] == eps[i] {
                let j = (i + 1) % eps.len();
                perm.swap(i, j);
            }
        }
        for (i, &src) in eps.iter().enumerate() {
            let dst = perm[i];
            if src == dst {
                continue; // unlucky leftover fixed point; drop this flow
            }
            demands.push(Demand {
                src,
                dst,
                amount: 1.0,
            });
        }
        let _ = round;
    }
    TrafficMatrix::new(n, demands)
}

/// The longest-matching TM (§II-C): pair endpoint switches one-to-one so that
/// the total shortest-path length between matched pairs is maximized, then
/// have every server on a switch send one unit to the matched switch.
///
/// The maximization is the assignment problem on the matrix of shortest-path
/// hop counts (self-pairings are forbidden with a large negative weight).
/// `exact = false` uses the greedy 1/2-approximation, which is useful for very
/// large instances.
pub fn longest_matching(graph: &Graph, servers: &[usize], exact: bool) -> TrafficMatrix {
    let n = servers.len();
    assert_eq!(graph.num_nodes(), n);
    let eps = endpoint_switches(servers);
    assert!(
        eps.len() > 1,
        "longest matching needs at least two endpoint switches"
    );
    let dist = apsp_unweighted(graph);
    let m = eps.len();
    let mut weights = vec![vec![0.0; m]; m];
    for (i, &u) in eps.iter().enumerate() {
        for (j, &v) in eps.iter().enumerate() {
            weights[i][j] = if i == j {
                -1e9 // forbid self-pairing
            } else {
                dist[u][v] as f64
            };
        }
    }
    let assignment = if exact {
        max_weight_assignment(&weights)
    } else {
        greedy_assignment(&weights)
    };
    let mut demands = Vec::with_capacity(m);
    for (i, &j) in assignment.assignment.iter().enumerate() {
        if i == j {
            continue;
        }
        let (src, dst) = (eps[i], eps[j]);
        demands.push(Demand {
            src,
            dst,
            amount: servers[src] as f64,
        });
    }
    TrafficMatrix::new(n, demands)
}

/// The Kodialam et al. TM: each source spreads its traffic so as to maximize
/// the average flow path length, subject to the hose constraints. Implemented
/// as a farthest-destination-first water filling: sources repeatedly send one
/// server-unit of demand to the farthest destination that still has receive
/// capacity, producing a TM with many flows per source (unlike the longest
/// matching, which has exactly one).
pub fn kodialam(graph: &Graph, servers: &[usize]) -> TrafficMatrix {
    let n = servers.len();
    assert_eq!(graph.num_nodes(), n);
    let eps = endpoint_switches(servers);
    assert!(eps.len() > 1);
    let dist = apsp_unweighted(graph);
    let mut send_left: Vec<f64> = servers.iter().map(|&s| s as f64).collect();
    let mut recv_left: Vec<f64> = servers.iter().map(|&s| s as f64).collect();
    let mut demands: Vec<Demand> = Vec::new();

    // Destination preference per source: farthest first.
    let mut pref: Vec<Vec<usize>> = Vec::with_capacity(eps.len());
    for &u in &eps {
        let mut order: Vec<usize> = eps.iter().copied().filter(|&v| v != u).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(dist[u][v]));
        pref.push(order);
    }
    // Round-robin one unit at a time so late sources are not starved.
    let unit = 1.0f64;
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (i, &u) in eps.iter().enumerate() {
            if send_left[u] <= 1e-12 {
                continue;
            }
            // farthest destination with remaining receive capacity
            if let Some(&v) = pref[i].iter().find(|&&v| recv_left[v] > 1e-12) {
                let amount = unit.min(send_left[u]).min(recv_left[v]);
                demands.push(Demand {
                    src: u,
                    dst: v,
                    amount,
                });
                send_left[u] -= amount;
                recv_left[v] -= amount;
                progressed = true;
            }
        }
    }
    TrafficMatrix::new(n, demands)
}

/// The non-uniform ("skewed") TM of Figs 10–12: starting from `base`, a
/// `fraction` of the flows (chosen uniformly at random) get their demand
/// multiplied by `weight`; the rest keep weight 1.
pub fn skewed(base: &TrafficMatrix, fraction: f64, weight: f64, seed: u64) -> TrafficMatrix {
    assert!((0.0..=1.0).contains(&fraction));
    assert!(weight > 0.0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..base.num_flows()).collect();
    idx.shuffle(&mut rng);
    let num_large = ((base.num_flows() as f64) * fraction).round() as usize;
    let large: std::collections::HashSet<usize> = idx.into_iter().take(num_large).collect();
    let demands = base.demands().iter().enumerate().map(|(i, d)| Demand {
        src: d.src,
        dst: d.dst,
        amount: if large.contains(&i) {
            d.amount * weight
        } else {
            d.amount
        },
    });
    TrafficMatrix::new(base.num_switches(), demands)
}

/// A single uniform-random permutation TM over endpoint switches, each flow
/// carrying the full server count of its source (used by tests and as a
/// lighter-weight alternative to [`random_matching`]).
pub fn random_permutation(servers: &[usize], seed: u64) -> TrafficMatrix {
    let n = servers.len();
    let eps = endpoint_switches(servers);
    assert!(eps.len() > 1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut perm: Vec<usize> = eps.clone();
    perm.shuffle(&mut rng);
    for i in 0..eps.len() {
        if perm[i] == eps[i] {
            let j = (i + 1) % eps.len();
            perm.swap(i, j);
        }
    }
    let demands = eps.iter().enumerate().filter_map(|(i, &src)| {
        let dst = perm[i];
        (src != dst).then_some(Demand {
            src,
            dst,
            amount: servers[src] as f64,
        })
    });
    TrafficMatrix::new(n, demands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_graph::Graph;

    fn ring(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn all_to_all_is_hose_feasible_and_complete() {
        let servers = vec![2, 2, 2, 2];
        let tm = all_to_all(&servers);
        assert_eq!(tm.num_flows(), 12);
        assert!(tm.is_hose_valid(&servers, 1e-9));
        // Every switch sends s_u * (S - s_u) / S = 2 * 6 / 8 = 1.5.
        for &o in &tm.out_demand() {
            assert!((o - 1.5).abs() < 1e-9);
        }
    }

    #[test]
    fn all_to_all_skips_serverless_switches() {
        let servers = vec![1, 0, 1, 0];
        let tm = all_to_all(&servers);
        assert_eq!(tm.num_flows(), 2);
        assert_eq!(tm.out_demand()[1], 0.0);
    }

    #[test]
    fn random_matching_has_k_flows_per_switch() {
        let servers = vec![3; 10];
        let tm = random_matching(&servers, 3, 7);
        assert!(tm.is_hose_valid(&servers, 1e-9));
        // Each switch sends at most 3 units (some flows may merge or drop).
        for &o in &tm.out_demand() {
            assert!(o <= 3.0 + 1e-9);
            assert!(o >= 1.0);
        }
    }

    #[test]
    fn random_matching_is_deterministic() {
        let servers = vec![1; 8];
        let a = random_matching(&servers, 1, 3);
        let b = random_matching(&servers, 1, 3);
        assert_eq!(a.demands(), b.demands());
    }

    #[test]
    fn longest_matching_on_ring_pairs_antipodes() {
        let g = ring(8);
        let servers = vec![1; 8];
        let tm = longest_matching(&g, &servers, true);
        assert_eq!(tm.num_flows(), 8);
        // On an even ring the farthest node is the antipode, 4 hops away.
        for d in tm.demands() {
            assert_eq!((d.src + 4) % 8, d.dst);
        }
        assert!(tm.is_hose_valid(&servers, 1e-9));
    }

    #[test]
    fn longest_matching_greedy_close_to_exact() {
        let g = ring(10);
        let servers = vec![1; 10];
        let exact = longest_matching(&g, &servers, true);
        let approx = longest_matching(&g, &servers, false);
        assert!(approx.total_demand() >= 0.5 * exact.total_demand());
    }

    #[test]
    fn kodialam_saturates_hose_and_has_many_flows() {
        let g = ring(8);
        let servers = vec![2; 8];
        let tm = kodialam(&g, &servers);
        assert!(tm.is_hose_valid(&servers, 1e-9));
        let lm = longest_matching(&g, &servers, true);
        assert!(tm.num_flows() >= lm.num_flows());
        // hose saturated: every switch sends exactly 2
        for &o in &tm.out_demand() {
            assert!((o - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn skewed_scales_selected_flows() {
        let g = ring(6);
        let servers = vec![1; 6];
        let base = longest_matching(&g, &servers, true);
        let sk = skewed(&base, 0.5, 10.0, 1);
        assert_eq!(sk.num_flows(), base.num_flows());
        let big = sk.demands().iter().filter(|d| d.amount > 5.0).count();
        assert_eq!(big, 3);
        let all_big = skewed(&base, 1.0, 10.0, 1);
        assert!((all_big.total_demand() - 10.0 * base.total_demand()).abs() < 1e-9);
    }

    #[test]
    fn random_permutation_valid() {
        let servers = vec![2; 9];
        let tm = random_permutation(&servers, 11);
        assert!(tm.is_hose_valid(&servers, 1e-9));
        assert!(tm.num_flows() >= 8);
    }
}
