//! HyperX topology (Ahn et al., SC 2009).
//!
//! A regular HyperX `(L, S, K, T)` arranges `S^L` switches in an
//! `L`-dimensional array with `S` switches per dimension. Two switches that
//! differ in exactly one coordinate are joined by `K` parallel links
//! (link trunking), and every switch hosts `T` servers.
//!
//! The paper evaluates HyperX instances found by a *design search*: given a
//! switch radix, a server count and a target bisection ratio, pick the
//! cheapest regular HyperX meeting them (§IV-A1, Fig 7). [`design_search`]
//! reproduces that process for regular (equal-`S`) HyperX networks using the
//! closed-form bisection ratio `beta = K*S / (2*T)` from the HyperX paper.

use crate::meta::TopoMeta;
use crate::topology::Topology;
use tb_graph::Graph;

/// Construction-free metadata for [`hyperx`].
pub(crate) fn hyperx_meta(dims: usize, s: usize, k: usize, t: usize) -> TopoMeta {
    let n = s.pow(dims as u32);
    let degree = (s - 1) * dims * k;
    TopoMeta {
        name: "HyperX".into(),
        params: format!("L={dims}, S={s}, K={k}, T={t}"),
        switches: n,
        servers: n * t,
        server_switches: if t > 0 { n } else { 0 },
        links: Some(n * degree / 2),
        degree: Some(degree),
    }
}

/// Construction-free metadata for [`build_design`].
pub fn design_meta(d: &HyperXDesign) -> TopoMeta {
    hyperx_meta(d.dims, d.s, d.k, d.t)
}

/// Builds a regular HyperX with `dims` dimensions, `s` switches per dimension,
/// `k` parallel links between adjacent switches and `t` servers per switch.
pub fn hyperx(dims: usize, s: usize, k: usize, t: usize) -> Topology {
    assert!(dims >= 1 && s >= 2 && k >= 1);
    let n = s.pow(dims as u32);
    assert!(n <= 1 << 18, "HyperX instance too large");
    let mut g = Graph::new(n);
    for u in 0..n {
        let mut stride = 1;
        for _d in 0..dims {
            let digit = (u / stride) % s;
            for other in digit + 1..s {
                let v = u + (other - digit) * stride;
                for _ in 0..k {
                    g.add_unit_edge(u, v);
                }
            }
            stride *= s;
        }
    }
    Topology::with_uniform_servers("HyperX", format!("L={dims}, S={s}, K={k}, T={t}"), g, t)
}

/// A candidate produced by [`design_search`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperXDesign {
    /// Number of dimensions.
    pub dims: usize,
    /// Switches per dimension.
    pub s: usize,
    /// Link trunking factor.
    pub k: usize,
    /// Servers per switch.
    pub t: usize,
    /// Achieved bisection ratio `K*S / (2*T)`.
    pub bisection: f64,
    /// Total switch count `S^L`.
    pub switches: usize,
    /// Total server count `T * S^L`.
    pub servers: usize,
}

/// Searches for the cheapest (fewest switches, then fewest total ports)
/// regular HyperX that supports at least `min_servers` servers with switch
/// radix at most `radix` and bisection ratio at least `target_bisection`.
///
/// Mirrors the paper's observation that "even a slight variation in one of
/// the parameters can lead to a significant difference in HyperX construction
/// and hence throughput": the discrete search space makes the output jumpy in
/// `min_servers`.
pub fn design_search(
    radix: usize,
    min_servers: usize,
    target_bisection: f64,
) -> Option<HyperXDesign> {
    let mut best: Option<HyperXDesign> = None;
    for dims in 1..=5usize {
        for s in 2..=radix {
            let switches = match s.checked_pow(dims as u32) {
                Some(v) if v <= (1 << 16) => v,
                _ => continue,
            };
            for t in 1..=radix {
                if t * switches < min_servers {
                    continue;
                }
                for k in 1..=radix {
                    let ports = t + (s - 1) * dims * k;
                    if ports > radix {
                        break;
                    }
                    let bisection = k as f64 * s as f64 / (2.0 * t as f64);
                    if bisection + 1e-9 < target_bisection {
                        continue;
                    }
                    let cand = HyperXDesign {
                        dims,
                        s,
                        k,
                        t,
                        bisection,
                        switches,
                        servers: t * switches,
                    };
                    let better = match &best {
                        None => true,
                        Some(b) => {
                            (cand.switches, cand.servers, cand.dims)
                                < (b.switches, b.servers, b.dims)
                        }
                    };
                    if better {
                        best = Some(cand);
                    }
                }
            }
        }
    }
    best
}

/// Builds the topology described by a [`HyperXDesign`].
pub fn build_design(d: &HyperXDesign) -> Topology {
    hyperx(d.dims, d.s, d.k, d.t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_graph::connectivity::is_connected;
    use tb_graph::shortest_path::diameter;

    #[test]
    fn hyperx_counts() {
        let t = hyperx(2, 4, 1, 2);
        assert_eq!(t.num_switches(), 16);
        // each switch: (4-1) links in each of 2 dims
        for u in 0..16 {
            assert_eq!(t.graph.degree(u), 6);
        }
        assert_eq!(t.num_servers(), 32);
        assert!(is_connected(&t.graph));
        assert_eq!(diameter(&t.graph), Some(2));
    }

    #[test]
    fn trunking_multiplies_links() {
        let t1 = hyperx(1, 4, 1, 1);
        let t2 = hyperx(1, 4, 3, 1);
        assert_eq!(t2.num_links(), 3 * t1.num_links());
        assert_eq!(t2.graph.edge_multiplicity(0, 1), 3);
    }

    #[test]
    fn hyperx_with_one_dimension_is_complete_graph() {
        let t = hyperx(1, 5, 1, 1);
        assert_eq!(t.num_links(), 10);
        assert_eq!(diameter(&t.graph), Some(1));
    }

    #[test]
    fn design_search_meets_constraints() {
        let d = design_search(24, 300, 0.4).expect("a design should exist");
        assert!(d.servers >= 300);
        assert!(d.bisection >= 0.4 - 1e-9);
        assert!(d.t + (d.s - 1) * d.dims * d.k <= 24);
        let topo = build_design(&d);
        assert_eq!(topo.num_switches(), d.switches);
        assert_eq!(topo.num_servers(), d.servers);
        assert!(is_connected(&topo.graph));
    }

    #[test]
    fn design_search_infeasible_returns_none() {
        assert!(design_search(3, 10_000, 0.9).is_none());
    }

    #[test]
    fn higher_bisection_costs_more_switches_or_equal() {
        let lo = design_search(32, 500, 0.2).unwrap();
        let hi = design_search(32, 500, 0.5).unwrap();
        assert!(hi.switches >= lo.switches);
    }
}
