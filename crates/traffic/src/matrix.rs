//! The [`TrafficMatrix`] type and hose-model utilities.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A single traffic demand between two switches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Demand {
    /// Source switch.
    pub src: usize,
    /// Destination switch.
    pub dst: usize,
    /// Requested amount (in server-units; a server sends at most 1 in total
    /// under the hose model).
    pub amount: f64,
}

/// A traffic matrix over the switches of a topology.
///
/// Stored sparsely as a demand list; demands with the same (src, dst) pair are
/// merged on construction. Self-demands (src == dst) are dropped because they
/// never traverse the network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficMatrix {
    n: usize,
    demands: Vec<Demand>,
}

impl TrafficMatrix {
    /// Creates a TM over `n` switches from a demand list, merging duplicates
    /// and dropping self-demands and non-positive amounts.
    pub fn new(n: usize, demands: impl IntoIterator<Item = Demand>) -> Self {
        let mut merged: HashMap<(usize, usize), f64> = HashMap::new();
        for d in demands {
            assert!(d.src < n && d.dst < n, "demand endpoint out of range");
            if d.src == d.dst || d.amount <= 0.0 {
                continue;
            }
            *merged.entry((d.src, d.dst)).or_insert(0.0) += d.amount;
        }
        let mut demands: Vec<Demand> = merged
            .into_iter()
            .map(|((src, dst), amount)| Demand { src, dst, amount })
            .collect();
        demands.sort_by_key(|d| (d.src, d.dst));
        TrafficMatrix { n, demands }
    }

    /// An empty TM over `n` switches.
    pub fn empty(n: usize) -> Self {
        TrafficMatrix {
            n,
            demands: Vec::new(),
        }
    }

    /// Number of switches this TM is defined over.
    pub fn num_switches(&self) -> usize {
        self.n
    }

    /// The demand list (sorted by source then destination).
    pub fn demands(&self) -> &[Demand] {
        &self.demands
    }

    /// Number of non-zero demands (flows).
    pub fn num_flows(&self) -> usize {
        self.demands.len()
    }

    /// Sum of all demands.
    pub fn total_demand(&self) -> f64 {
        self.demands.iter().map(|d| d.amount).sum()
    }

    /// A stable 64-bit content fingerprint (FNV-1a over the sorted demand
    /// list, endpoint ids and exact IEEE-754 amount bits). Two matrices share
    /// a fingerprint iff they are bit-identical, so sweep artifacts can
    /// record which exact TM a cached result was computed against.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.n as u64);
        for d in &self.demands {
            mix(d.src as u64);
            mix(d.dst as u64);
            mix(d.amount.to_bits());
        }
        hash
    }

    /// Total demand originating at each switch.
    pub(crate) fn out_demand(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        for d in &self.demands {
            out[d.src] += d.amount;
        }
        out
    }

    /// Total demand terminating at each switch.
    pub(crate) fn in_demand(&self) -> Vec<f64> {
        let mut inn = vec![0.0; self.n];
        for d in &self.demands {
            inn[d.dst] += d.amount;
        }
        inn
    }

    /// Returns a copy with every demand multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> TrafficMatrix {
        assert!(factor > 0.0);
        TrafficMatrix {
            n: self.n,
            demands: self
                .demands
                .iter()
                .map(|d| Demand {
                    amount: d.amount * factor,
                    ..*d
                })
                .collect(),
        }
    }

    /// Checks whether the TM satisfies the hose model for the given per-switch
    /// server counts (each switch sends at most `servers[u]` and receives at
    /// most `servers[u]`, because each *server* sends/receives at most 1).
    pub fn is_hose_valid(&self, servers: &[usize], tolerance: f64) -> bool {
        assert_eq!(servers.len(), self.n);
        let out = self.out_demand();
        let inn = self.in_demand();
        (0..self.n).all(|u| {
            out[u] <= servers[u] as f64 + tolerance && inn[u] <= servers[u] as f64 + tolerance
        })
    }

    /// Scales the TM so that it exactly conforms to the hose model: after
    /// scaling, the most-loaded switch sends (or receives) exactly its server
    /// count. TMs that already fit are scaled *up* to saturation, which makes
    /// throughput values comparable across TM families (the paper normalizes
    /// all TMs to the hose model, §II-A).
    ///
    /// Returns the scaled TM and the factor applied. Panics if the TM is
    /// empty or no switch with demand has a server.
    pub fn normalized_to_hose(&self, servers: &[usize]) -> (TrafficMatrix, f64) {
        assert_eq!(servers.len(), self.n);
        assert!(!self.demands.is_empty(), "cannot normalize an empty TM");
        let out = self.out_demand();
        let inn = self.in_demand();
        let mut max_ratio: f64 = 0.0;
        for u in 0..self.n {
            let cap = servers[u] as f64;
            if out[u] > 0.0 {
                assert!(cap > 0.0, "switch {u} sends traffic but has no servers");
                max_ratio = max_ratio.max(out[u] / cap);
            }
            if inn[u] > 0.0 {
                assert!(cap > 0.0, "switch {u} receives traffic but has no servers");
                max_ratio = max_ratio.max(inn[u] / cap);
            }
        }
        assert!(max_ratio > 0.0);
        let factor = 1.0 / max_ratio;
        (self.scaled(factor), factor)
    }

    /// Looks up the demand between a pair of switches (0 if absent).
    #[cfg(test)]
    pub(crate) fn demand_between(&self, src: usize, dst: usize) -> f64 {
        self.demands
            .iter()
            .find(|d| d.src == src && d.dst == dst)
            .map(|d| d.amount)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(src: usize, dst: usize, amount: f64) -> Demand {
        Demand { src, dst, amount }
    }

    #[test]
    fn merging_and_dropping() {
        let tm = TrafficMatrix::new(
            3,
            vec![d(0, 1, 1.0), d(0, 1, 2.0), d(1, 1, 5.0), d(2, 0, 0.0)],
        );
        assert_eq!(tm.num_flows(), 1);
        assert_eq!(tm.demand_between(0, 1), 3.0);
        assert_eq!(tm.total_demand(), 3.0);
    }

    #[test]
    fn out_and_in_demands() {
        let tm = TrafficMatrix::new(3, vec![d(0, 1, 1.0), d(0, 2, 2.0), d(1, 2, 3.0)]);
        assert_eq!(tm.out_demand(), vec![3.0, 3.0, 0.0]);
        assert_eq!(tm.in_demand(), vec![0.0, 1.0, 5.0]);
    }

    #[test]
    fn hose_validation() {
        let tm = TrafficMatrix::new(2, vec![d(0, 1, 2.0), d(1, 0, 1.0)]);
        assert!(tm.is_hose_valid(&[2, 2], 1e-9));
        assert!(!tm.is_hose_valid(&[1, 1], 1e-9));
    }

    #[test]
    fn hose_normalization_scales_to_saturation() {
        let tm = TrafficMatrix::new(3, vec![d(0, 1, 0.5), d(0, 2, 0.5), d(1, 0, 0.25)]);
        let (norm, factor) = tm.normalized_to_hose(&[1, 1, 1]);
        assert!((factor - 1.0).abs() < 1e-12);
        let tm_small = tm.scaled(0.1);
        let (norm2, factor2) = tm_small.normalized_to_hose(&[1, 1, 1]);
        assert!((factor2 - 10.0).abs() < 1e-9);
        assert!((norm2.total_demand() - norm.total_demand()).abs() < 1e-9);
        // After normalization the busiest switch is exactly saturated.
        let out = norm.out_demand();
        assert!((out[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn normalizing_empty_tm_panics() {
        TrafficMatrix::empty(3).normalized_to_hose(&[1, 1, 1]);
    }

    #[test]
    fn scaled_preserves_structure() {
        let tm = TrafficMatrix::new(3, vec![d(0, 1, 1.0), d(2, 1, 4.0)]);
        let s = tm.scaled(0.5);
        assert_eq!(s.num_flows(), 2);
        assert_eq!(s.demand_between(2, 1), 2.0);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = TrafficMatrix::new(3, vec![d(0, 1, 1.0), d(2, 1, 4.0)]);
        let b = TrafficMatrix::new(3, vec![d(2, 1, 4.0), d(0, 1, 1.0)]);
        assert_eq!(a.fingerprint(), b.fingerprint(), "order-insensitive");
        let c = TrafficMatrix::new(3, vec![d(0, 1, 1.0), d(2, 1, 4.0 + 1e-12)]);
        assert_ne!(a.fingerprint(), c.fingerprint(), "amount-sensitive");
        let e = TrafficMatrix::new(4, vec![d(0, 1, 1.0), d(2, 1, 4.0)]);
        assert_ne!(a.fingerprint(), e.fingerprint(), "size-sensitive");
    }
}
