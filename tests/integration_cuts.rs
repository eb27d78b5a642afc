//! Integration tests for the cut-vs-throughput relationship (§II-B, §III-B):
//! cuts upper-bound throughput, and the gap is real.

use tb_cuts::{bisection_bandwidth, estimate_sparsest_cut};
use tb_topology::families::{Family, Scale};
use tb_topology::flattened_butterfly::flattened_butterfly;
use tb_topology::natural::natural_networks;
use topobench::{evaluate, EvalConfig, TmSpec};

fn cfg() -> EvalConfig {
    EvalConfig::fast()
}

#[test]
fn sparse_cut_upper_bounds_throughput_everywhere() {
    let c = cfg();
    let mut networks = Vec::new();
    for family in [
        Family::Hypercube,
        Family::DCell,
        Family::Jellyfish,
        Family::FlattenedButterfly,
    ] {
        networks.push(family.instances(Scale::Small, 3).remove(0));
    }
    networks.extend(natural_networks(6, 3));
    for topo in networks {
        let tm = TmSpec::LongestMatching.generate(&topo, 3);
        let throughput = evaluate(&topo, &tm, &c).bounds;
        let cut = estimate_sparsest_cut(&topo.graph, &tm).best_sparsity;
        assert!(
            cut >= throughput.lower * 0.99 - 1e-9,
            "{}: cut {} below feasible throughput {}",
            topo.describe(),
            cut,
            throughput.lower
        );
    }
}

#[test]
fn flattened_butterfly_case_study_throughput_below_cut() {
    // §III-B: the 5-ary 3-stage flattened butterfly (25 switches, 125 servers)
    // has worst-case throughput strictly below its sparsest cut.
    let topo = flattened_butterfly(5, 3);
    let tm = TmSpec::LongestMatching.generate(&topo, 1);
    let throughput = evaluate(&topo, &tm, &EvalConfig::default()).bounds;
    let cut = estimate_sparsest_cut(&topo.graph, &tm).best_sparsity;
    assert!(
        throughput.upper < cut * 0.99,
        "expected a strict gap: throughput upper {} vs cut {}",
        throughput.upper,
        cut
    );
}

#[test]
fn bisection_bandwidth_is_no_tighter_than_sparsest_cut() {
    // Bisection restricts the cut to balanced partitions, so it can only be
    // >= the unrestricted sparsest-cut estimate.
    for family in [Family::Hypercube, Family::Jellyfish] {
        let topo = family.instances(Scale::Small, 5).remove(0);
        let tm = TmSpec::LongestMatching.generate(&topo, 5);
        let sparsest = estimate_sparsest_cut(&topo.graph, &tm).best_sparsity;
        let bisection = bisection_bandwidth(&topo.graph, &tm, 20);
        assert!(
            bisection >= sparsest * 0.999 - 1e-9,
            "{}: bisection {} < sparsest {}",
            family.name(),
            bisection,
            sparsest
        );
    }
}

#[test]
fn cut_report_identifies_at_least_one_winning_estimator() {
    for topo in natural_networks(8, 9) {
        let tm = TmSpec::LongestMatching.generate(&topo, 9);
        let report = estimate_sparsest_cut(&topo.graph, &tm);
        assert!(!report.found_by(1e-6).is_empty(), "{}", topo.describe());
        assert!(report.best_sparsity.is_finite());
    }
}
