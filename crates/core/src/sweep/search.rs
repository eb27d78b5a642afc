//! The topology-design search behind [`CellSpec::Search`]: a deterministic
//! hill climb over same-equipment neighbors of a start design, maximizing
//! throughput per unit equipment cost. Each step depends on the last, so
//! the whole climb is one unit of its cell.
//!
//! [`CellSpec::Search`]: crate::sweep::CellSpec::Search

use crate::eval::{evaluate, EvalConfig};
use crate::spec::TmSpec;
use crate::sweep::cell::CellValues;
use tb_topology::{TopoSpec, Topology};

/// Same-equipment neighbor moves of a searchable design, in a fixed
/// deterministic order. Only the three searchable families produce neighbors;
/// everything else is a fixed point (the climb stops immediately).
fn search_neighbors(spec: &TopoSpec) -> Vec<TopoSpec> {
    match *spec {
        // Fixed `degree + servers` ports per switch: trade server ports
        // against network ports.
        TopoSpec::Jellyfish {
            switches,
            degree,
            servers,
            seed,
        } => {
            let mut out = Vec::new();
            if degree > 3 {
                out.push(TopoSpec::Jellyfish {
                    switches,
                    degree: degree - 1,
                    servers: servers + 1,
                    seed,
                });
            }
            if servers > 1 && degree + 1 < switches {
                out.push(TopoSpec::Jellyfish {
                    switches,
                    degree: degree + 1,
                    servers: servers - 1,
                    seed,
                });
            }
            out
        }
        // Same radix and server floor; nudging the target bisection moves the
        // design search to a different lattice shape.
        TopoSpec::HyperX {
            radix,
            min_servers,
            bisection,
        } => [bisection - 0.1, bisection + 0.1]
            .into_iter()
            .filter(|b| (0.05..=1.0).contains(b))
            .map(|bisection| TopoSpec::HyperX {
                radix,
                min_servers,
                bisection,
            })
            .collect(),
        // Long-hop link budget: one generator more or fewer on the same
        // hypercube skeleton.
        TopoSpec::LongHop {
            dim,
            degree,
            servers,
        } => {
            let mut out = Vec::new();
            if degree > dim {
                out.push(TopoSpec::LongHop {
                    dim,
                    degree: degree - 1,
                    servers,
                });
            }
            if degree + 1 < (1usize << dim) {
                out.push(TopoSpec::LongHop {
                    dim,
                    degree: degree + 1,
                    servers,
                });
            }
            out
        }
        _ => Vec::new(),
    }
}

/// The search objective: aggregate admitted demand (hose-normalized
/// throughput × servers) per unit equipment cost. The cost model charges one
/// unit per link plus four per switch — crude, but deterministic and enough
/// to make the link-budget trade-offs (Long Hop, HyperX) genuine.
fn search_objective(topo: &Topology, throughput: f64) -> f64 {
    let cost = topo.num_links() as f64 + 4.0 * topo.num_switches() as f64;
    if cost > 0.0 {
        throughput * topo.num_servers() as f64 / cost
    } else {
        0.0
    }
}

/// A compact parameter label for search-trajectory reporting.
fn search_params(spec: &TopoSpec) -> String {
    match spec {
        TopoSpec::Jellyfish {
            switches,
            degree,
            servers,
            ..
        } => format!("N={switches} r={degree} s={servers}"),
        TopoSpec::HyperX { bisection, .. } => format!("beta={bisection:.2}"),
        TopoSpec::LongHop { dim, degree, .. } => format!("dim={dim} r={degree}"),
        other => format!("{other:?}"),
    }
}

/// The deterministic hill climb behind [`CellSpec::Search`]. Evaluates the
/// start design, then repeatedly moves to the best strictly-improving
/// neighbor until no neighbor improves or `max_steps` moves were accepted.
///
/// [`CellSpec::Search`]: crate::sweep::CellSpec::Search
pub(crate) fn run_search(
    start: &TopoSpec,
    tm: &TmSpec,
    tm_seed: u64,
    max_steps: usize,
    cfg: &EvalConfig,
    out: &mut CellValues,
) {
    let mut evals = 0usize;
    let mut evaluate = |spec: &TopoSpec| -> Option<(f64, f64)> {
        let topo = spec.build()?;
        let matrix = tm.generate(&topo, tm_seed);
        let value = evaluate(&topo, &matrix, cfg).bounds.value();
        evals += 1;
        Some((value, search_objective(&topo, value)))
    };

    let mut incumbent = start.clone();
    let (start_value, start_objective) =
        evaluate(&incumbent).unwrap_or_else(|| panic!("unsatisfiable search start {start:?}"));
    let mut value = start_value;
    let mut objective = start_objective;
    let mut accepted = 0usize;
    out.push("step_0_objective", objective);
    out.push_text("step_0_params", search_params(&incumbent));
    while accepted < max_steps {
        let mut best: Option<(TopoSpec, f64, f64)> = None;
        for neighbor in search_neighbors(&incumbent) {
            let Some((v, obj)) = evaluate(&neighbor) else {
                continue; // unsatisfiable neighbor (e.g. no HyperX design)
            };
            if obj > objective && best.as_ref().is_none_or(|(_, _, b)| obj > *b) {
                best = Some((neighbor, v, obj));
            }
        }
        let Some((next, v, obj)) = best else {
            break; // local optimum
        };
        incumbent = next;
        value = v;
        objective = obj;
        accepted += 1;
        out.push(format!("step_{accepted}_objective"), objective);
        out.push_text(format!("step_{accepted}_params"), search_params(&incumbent));
    }
    out.push("start_value", start_value);
    out.push("start_objective", start_objective);
    out.push("final_value", value);
    out.push("final_objective", objective);
    out.push("steps_accepted", accepted as f64);
    out.push("evals", evals as f64);
    out.push_text("final_params", search_params(&incumbent));
    out.push_text("final_spec", format!("{incumbent:?}"));
}
