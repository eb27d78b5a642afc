//! Connectivity utilities: connected components and connectivity checks.

use crate::graph::Graph;
use std::collections::VecDeque;

/// Returns the component id of every node (ids are `0..num_components`,
/// assigned in order of discovery from node 0 upward).
pub fn connected_components(g: &Graph) -> Vec<usize> {
    let n = g.num_nodes();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0;
    let mut q = VecDeque::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = next;
        q.push_back(start);
        while let Some(u) = q.pop_front() {
            for &(v, _) in g.neighbors(u) {
                if comp[v] == usize::MAX {
                    comp[v] = next;
                    q.push_back(v);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Number of connected components.
pub(crate) fn num_components(g: &Graph) -> usize {
    if g.num_nodes() == 0 {
        return 0;
    }
    connected_components(g).iter().copied().max().unwrap() + 1
}

/// True iff the graph is connected (and non-empty).
pub fn is_connected(g: &Graph) -> bool {
    g.num_nodes() > 0 && num_components(g) == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_component() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(is_connected(&g));
        assert_eq!(num_components(&g), 1);
    }

    #[test]
    fn two_components() {
        let mut g = Graph::new(5);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(2, 3);
        let comp = connected_components(&g);
        assert_eq!(num_components(&g), 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[4], comp[0]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn empty_graph_has_no_components() {
        let g = Graph::new(0);
        assert_eq!(num_components(&g), 0);
        assert!(!is_connected(&g));
    }
}
