//! Integration tests for the near-worst-case methodology (§II-C / §III-C):
//! the longest-matching TM must be at least as hard as all-to-all and random
//! matchings, and no hose-model TM may fall below the Theorem-2 bound.

use tb_topology::families::{Family, ALL_FAMILIES};
use topobench::{evaluate, lower_bound, EvalConfig, TmSpec};

fn cfg() -> EvalConfig {
    EvalConfig::fast()
}

/// Families small enough to sweep in the integration suite.
fn quick_families() -> Vec<Family> {
    vec![
        Family::Hypercube,
        Family::FatTree,
        Family::DCell,
        Family::Dragonfly,
        Family::FlattenedButterfly,
        Family::Jellyfish,
    ]
}

#[test]
fn longest_matching_is_the_hardest_synthetic_tm() {
    let c = cfg();
    for family in quick_families() {
        let topo = family
            .instances(tb_topology::families::Scale::Small, 2)
            .remove(0);
        let a2a = evaluate(&topo, &TmSpec::AllToAll.generate(&topo, 2), &c)
            .bounds
            .lower;
        let lm = evaluate(&topo, &TmSpec::LongestMatching.generate(&topo, 2), &c)
            .bounds
            .lower;
        assert!(
            lm <= a2a * 1.08,
            "{}: LM ({lm}) should not exceed A2A ({a2a})",
            family.name()
        );
    }
}

#[test]
fn longest_matching_respects_theorem2_for_all_families() {
    let c = cfg();
    for family in ALL_FAMILIES {
        let topo = family
            .instances(tb_topology::families::Scale::Small, 2)
            .remove(0);
        let bound = lower_bound(&topo, &c).lower;
        let lm = evaluate(&topo, &TmSpec::LongestMatching.generate(&topo, 2), &c)
            .bounds
            .upper;
        assert!(
            lm >= bound * 0.90,
            "{}: LM ({lm}) fell below the Theorem-2 bound ({bound})",
            family.name()
        );
    }
}

#[test]
fn kodialam_and_longest_matching_are_comparable() {
    // §II-C: the two near-worst-case heuristics land in the same ballpark,
    // with longest matching using far fewer flows.
    let c = cfg();
    let topo = Family::Hypercube
        .instances(tb_topology::families::Scale::Small, 1)
        .remove(1);
    let lm_tm = TmSpec::LongestMatching.generate(&topo, 1);
    let kd_tm = TmSpec::Kodialam.generate(&topo, 1);
    assert!(lm_tm.num_flows() <= kd_tm.num_flows());
    let lm = evaluate(&topo, &lm_tm, &c).bounds.lower;
    let kd = evaluate(&topo, &kd_tm, &c).bounds.lower;
    assert!(
        (lm - kd).abs() / kd.max(lm) < 0.35,
        "LM {lm} and Kodialam {kd} should be comparable"
    );
}

#[test]
fn skewed_tm_at_100_percent_matches_uniform_longest_matching() {
    // §IV-A2: at 100% large flows every flow is scaled by the same factor, so
    // after hose normalization the TM is identical to the uniform longest
    // matching and throughput must match; intermediate fractions stay
    // positive and finite.
    let c = cfg();
    let topo = Family::Hypercube.representative(1);
    let uniform = evaluate(&topo, &TmSpec::LongestMatching.generate(&topo, 1), &c)
        .bounds
        .lower;
    let full = TmSpec::SkewedLongestMatching {
        fraction: 1.0,
        weight: 10.0,
    };
    let skewed_full = evaluate(&topo, &full.generate(&topo, 1), &c).bounds.lower;
    assert!(
        (skewed_full - uniform).abs() / uniform < 0.08,
        "100% large flows ({skewed_full}) should equal the uniform LM ({uniform})"
    );
    for fraction in [0.05, 0.25, 0.75] {
        let spec = TmSpec::SkewedLongestMatching {
            fraction,
            weight: 10.0,
        };
        let skewed = evaluate(&topo, &spec.generate(&topo, 1), &c).bounds.lower;
        assert!(
            skewed.is_finite() && skewed > 0.0,
            "skewed({fraction}) = {skewed}"
        );
    }
}

#[test]
fn fat_tree_is_vulnerable_to_a_few_large_flows() {
    // §IV-A2 (Figs 10-12): with a small fraction of large flows the fat tree's
    // absolute throughput drops well below its uniform-LM value, while the
    // hypercube's does not drop nearly as much.
    let c = cfg();
    let ft = Family::FatTree.representative(1);
    let hc = Family::Hypercube.representative(1);
    let spec = TmSpec::SkewedLongestMatching {
        fraction: 0.05,
        weight: 10.0,
    };
    let ft_uniform = evaluate(&ft, &TmSpec::LongestMatching.generate(&ft, 1), &c)
        .bounds
        .lower;
    let ft_skewed = evaluate(&ft, &spec.generate(&ft, 1), &c).bounds.lower;
    let hc_uniform = evaluate(&hc, &TmSpec::LongestMatching.generate(&hc, 1), &c)
        .bounds
        .lower;
    let hc_skewed = evaluate(&hc, &spec.generate(&hc, 1), &c).bounds.lower;
    let ft_drop = ft_skewed / ft_uniform;
    let hc_drop = hc_skewed / hc_uniform;
    assert!(
        ft_drop < hc_drop,
        "fat tree should degrade more than the hypercube: fat tree retains {ft_drop:.2}, hypercube {hc_drop:.2}"
    );
}
