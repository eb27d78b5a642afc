//! Slim Fly topology (Besta & Hoefler, SC 2014), built from the
//! McKay–Miller–Širáň (MMS) graphs.
//!
//! For a prime `q` with `q ≡ 1 (mod 4)` the MMS graph has `2 q^2` routers in
//! two blocks. Routers in block 0 are labeled `(0, x, y)` and in block 1
//! `(1, m, c)` with `x, y, m, c ∈ F_q`. Let `ξ` be a primitive root mod `q`,
//! `X` the set of even powers of `ξ` and `X'` the set of odd powers. Then:
//!
//! * `(0, x, y) ~ (0, x, y')`  iff `y − y' ∈ X`,
//! * `(1, m, c) ~ (1, m, c')`  iff `c − c' ∈ X'`,
//! * `(0, x, y) ~ (1, m, c)`   iff `y = m·x + c (mod q)`.
//!
//! The resulting network degree is `k' = (3q − 1) / 2` and the diameter is 2.
//! Slim Fly attaches `p ≈ ⌈k'/2⌉` servers per router. Only prime `q ≡ 1
//! (mod 4)` is implemented (q = 5, 13, 17, 29, ...), which covers the sizes
//! the paper plots; this restriction is recorded in `DESIGN.md`.

use crate::meta::TopoMeta;
use crate::topology::Topology;
use tb_graph::Graph;

/// Construction-free metadata for [`slim_fly`]: the MMS graph on `2q^2`
/// routers is `k' = (3q-1)/2`-regular.
pub(crate) fn slim_fly_meta(q: usize, servers_per_router: usize) -> TopoMeta {
    let n = 2 * q * q;
    let degree = network_degree(q);
    TopoMeta {
        name: "Slim Fly".into(),
        params: format!("q={q}"),
        switches: n,
        servers: n * servers_per_router,
        server_switches: if servers_per_router > 0 { n } else { 0 },
        links: Some(n * degree / 2),
        degree: Some(degree),
    }
}

/// Returns true if `q` is prime.
fn is_prime(q: usize) -> bool {
    if q < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= q {
        if q.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// Finds a primitive root modulo the prime `q`.
fn primitive_root(q: usize) -> usize {
    let phi = q - 1;
    let mut factors = Vec::new();
    let mut m = phi;
    let mut d = 2;
    while d * d <= m {
        if m.is_multiple_of(d) {
            factors.push(d);
            while m.is_multiple_of(d) {
                m /= d;
            }
        }
        d += 1;
    }
    if m > 1 {
        factors.push(m);
    }
    'outer: for g in 2..q {
        for &f in &factors {
            if mod_pow(g, phi / f, q) == 1 {
                continue 'outer;
            }
        }
        return g;
    }
    unreachable!("every prime has a primitive root")
}

fn mod_pow(mut base: usize, mut exp: usize, modulus: usize) -> usize {
    let mut result = 1usize;
    base %= modulus;
    while exp > 0 {
        if exp & 1 == 1 {
            result = result * base % modulus;
        }
        base = base * base % modulus;
        exp >>= 1;
    }
    result
}

/// The generator sets `X` (even powers of the primitive root) and `X'`
/// (odd powers) used by the MMS construction.
fn generator_sets(q: usize) -> (Vec<usize>, Vec<usize>) {
    let xi = primitive_root(q);
    let mut even = Vec::with_capacity((q - 1) / 2);
    let mut odd = Vec::with_capacity((q - 1) / 2);
    let mut value = 1usize;
    for i in 0..q - 1 {
        if i % 2 == 0 {
            even.push(value);
        } else {
            odd.push(value);
        }
        value = value * xi % q;
    }
    (even, odd)
}

/// Network degree of the Slim Fly MMS graph for prime `q`: `(3q - 1) / 2`.
pub fn network_degree(q: usize) -> usize {
    (3 * q - 1) / 2
}

/// Builds a Slim Fly (MMS) network for prime `q ≡ 1 (mod 4)` with
/// `servers_per_router` servers attached to every router.
///
/// # Panics
/// Panics if `q` is not a prime congruent to 1 mod 4.
pub fn slim_fly(q: usize, servers_per_router: usize) -> Topology {
    assert!(is_prime(q), "q must be prime (got {q})");
    assert!(q % 4 == 1, "q must satisfy q ≡ 1 (mod 4) (got {q})");
    let (x_even, x_odd) = generator_sets(q);
    let n = 2 * q * q;
    let block0 = |x: usize, y: usize| x * q + y;
    let block1 = |m: usize, c: usize| q * q + m * q + c;
    let mut g = Graph::new(n);

    // Intra-block edges. X and X' are symmetric sets (q ≡ 1 mod 4 makes −1 an
    // even power), so add each pair once.
    for x in 0..q {
        for y in 0..q {
            for &delta in &x_even {
                let y2 = (y + delta) % q;
                if block0(x, y2) > block0(x, y) {
                    g.add_unit_edge(block0(x, y), block0(x, y2));
                }
            }
        }
    }
    for m in 0..q {
        for c in 0..q {
            for &delta in &x_odd {
                let c2 = (c + delta) % q;
                if block1(m, c2) > block1(m, c) {
                    g.add_unit_edge(block1(m, c), block1(m, c2));
                }
            }
        }
    }
    // Inter-block edges: (0, x, y) ~ (1, m, c) iff y = m x + c.
    for x in 0..q {
        for m in 0..q {
            for c in 0..q {
                let y = (m * x + c) % q;
                g.add_unit_edge(block0(x, y), block1(m, c));
            }
        }
    }

    Topology::with_uniform_servers("Slim Fly", format!("q={q}"), g, servers_per_router)
}

/// The canonical server count per router used by the Slim Fly paper:
/// `⌈k'/2⌉` where `k'` is the network degree.
pub fn canonical_servers_per_router(q: usize) -> usize {
    network_degree(q).div_ceil(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_graph::connectivity::is_connected;
    use tb_graph::shortest_path::diameter;

    #[test]
    fn primitive_roots() {
        assert_eq!(mod_pow(primitive_root(5), 4, 5), 1);
        assert_eq!(mod_pow(primitive_root(13), 12, 13), 1);
        // A primitive root's order must be exactly q-1: squares differ from 1
        // at (q-1)/2.
        for q in [5usize, 13, 17, 29] {
            let r = primitive_root(q);
            assert_ne!(mod_pow(r, (q - 1) / 2, q), 1, "q={q}");
        }
    }

    #[test]
    fn generator_sets_are_symmetric_for_q_1_mod_4() {
        for q in [5usize, 13, 17] {
            let (even, odd) = generator_sets(q);
            assert_eq!(even.len(), (q - 1) / 2);
            assert_eq!(odd.len(), (q - 1) / 2);
            for &v in &even {
                assert!(
                    even.contains(&((q - v) % q)),
                    "even set not symmetric for q={q}"
                );
            }
            for &v in &odd {
                assert!(
                    odd.contains(&((q - v) % q)),
                    "odd set not symmetric for q={q}"
                );
            }
        }
    }

    #[test]
    fn slim_fly_q5_structure() {
        let t = slim_fly(5, 1);
        assert_eq!(t.num_switches(), 50);
        let deg = network_degree(5); // 7
        assert_eq!(deg, 7);
        for u in 0..50 {
            assert_eq!(t.graph.degree(u), deg, "router {u}");
        }
        assert_eq!(t.num_links(), 50 * deg / 2);
        assert!(is_connected(&t.graph));
        assert_eq!(diameter(&t.graph), Some(2));
    }

    #[test]
    fn slim_fly_q13_is_diameter_two() {
        let t = slim_fly(13, 1);
        assert_eq!(t.num_switches(), 338);
        for u in 0..t.num_switches() {
            assert_eq!(t.graph.degree(u), network_degree(13));
        }
        assert_eq!(diameter(&t.graph), Some(2));
    }

    #[test]
    #[should_panic]
    fn q_not_1_mod_4_rejected() {
        slim_fly(7, 1);
    }

    #[test]
    fn canonical_concentration() {
        assert_eq!(canonical_servers_per_router(5), 4);
        assert_eq!(canonical_servers_per_router(13), 10);
    }
}
