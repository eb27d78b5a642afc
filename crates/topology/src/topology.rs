//! The [`Topology`] type: a switch graph plus server attachments.

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use tb_graph::Graph;

thread_local! {
    /// [`Topology`] constructions on this thread.
    static CONSTRUCTIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of [`Topology`] values constructed on the calling thread so far
/// (every generator funnels through [`Topology::new`]). The sweep engine
/// reads it around each unit of work, and around scenario expansion and
/// rendering, to count a run's own builds and to prove that cache-hot runs
/// build **zero** topologies end to end, whatever other threads of the
/// process build meanwhile.
pub fn constructions() -> u64 {
    CONSTRUCTIONS.get()
}

/// A network topology under evaluation: the switch-level graph, the number of
/// servers attached to every switch, and descriptive metadata.
///
/// Server-to-switch links are modeled as infinite capacity (§II-A of the
/// paper), so servers never appear as graph nodes; only their counts matter,
/// because the hose model limits each *server* to one unit of traffic in and
/// one unit out.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    /// Human-readable family name (e.g. `"fat tree"`).
    pub name: String,
    /// Parameter string describing this instance (e.g. `"k=8"`).
    pub params: String,
    /// The switch graph.
    pub graph: Graph,
    /// Number of servers attached to each switch (indexed by switch id).
    pub servers: Vec<usize>,
}

impl Topology {
    /// Creates a topology, checking that the server vector matches the graph.
    pub fn new(
        name: impl Into<String>,
        params: impl Into<String>,
        graph: Graph,
        servers: Vec<usize>,
    ) -> Self {
        assert_eq!(
            servers.len(),
            graph.num_nodes(),
            "servers vector must have one entry per switch"
        );
        CONSTRUCTIONS.set(CONSTRUCTIONS.get() + 1);
        Topology {
            name: name.into(),
            params: params.into(),
            graph,
            servers,
        }
    }

    /// Creates a topology with the same number of servers on every switch.
    pub(crate) fn with_uniform_servers(
        name: impl Into<String>,
        params: impl Into<String>,
        graph: Graph,
        servers_per_switch: usize,
    ) -> Self {
        let n = graph.num_nodes();
        Topology::new(name, params, graph, vec![servers_per_switch; n])
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Total number of servers.
    pub fn num_servers(&self) -> usize {
        self.servers.iter().sum()
    }

    /// Number of switch-to-switch links.
    pub fn num_links(&self) -> usize {
        self.graph.num_edges()
    }

    /// Returns a copy of this topology with every server-attached switch
    /// carrying `per_switch` servers instead of its current count; switches
    /// without servers stay server-free. Used to vary the RM(k) concentration
    /// on the same switch graph (the Fig. 2 series) without re-deriving the
    /// topology's server-placement invariants by hand.
    pub fn with_servers_per_switch(&self, per_switch: usize) -> Topology {
        let servers: Vec<usize> = self
            .servers
            .iter()
            .map(|&s| if s > 0 { per_switch } else { 0 })
            .collect();
        Topology::new(
            self.name.clone(),
            self.params.clone(),
            self.graph.clone(),
            servers,
        )
    }

    /// Switch ids that have at least one server attached (the "top of rack"
    /// switches; traffic originates and terminates only here).
    pub fn server_switches(&self) -> Vec<usize> {
        (0..self.num_switches())
            .filter(|&u| self.servers[u] > 0)
            .collect()
    }

    /// Equipment summary used when building a same-equipment random graph and
    /// in experiment logs.
    pub fn equipment(&self) -> Equipment {
        Equipment {
            switches: self.num_switches(),
            links: self.num_links(),
            servers: self.num_servers(),
            degree_sequence: self.graph.degree_sequence(),
            servers_per_switch: self.servers.clone(),
        }
    }

    /// A short single-line description.
    pub fn describe(&self) -> String {
        format!(
            "{} [{}]: {} switches, {} links, {} servers",
            self.name,
            self.params,
            self.num_switches(),
            self.num_links(),
            self.num_servers()
        )
    }
}

/// The hardware inventory of a topology instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Equipment {
    /// Number of switches.
    pub switches: usize,
    /// Number of switch-to-switch links.
    pub links: usize,
    /// Total servers.
    pub servers: usize,
    /// Inter-switch ports used on each switch.
    pub degree_sequence: Vec<usize>,
    /// Servers attached to each switch.
    pub servers_per_switch: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_graph::Graph;

    #[test]
    fn counts_and_description() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let t = Topology::new("test", "tiny", g, vec![2, 0, 1]);
        assert_eq!(t.num_switches(), 3);
        assert_eq!(t.num_links(), 2);
        assert_eq!(t.num_servers(), 3);
        assert_eq!(t.server_switches(), vec![0, 2]);
        assert!(t.describe().contains("test"));
        let eq = t.equipment();
        assert_eq!(eq.switches, 3);
        assert_eq!(eq.degree_sequence, vec![1, 2, 1]);
    }

    #[test]
    #[should_panic]
    fn mismatched_server_vector_panics() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        Topology::new("bad", "", g, vec![1, 1]);
    }

    #[test]
    fn with_servers_per_switch_reattaches_only_server_switches() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let t = Topology::new("test", "tiny", g, vec![2, 0, 1]);
        let r = t.with_servers_per_switch(5);
        assert_eq!(r.servers, vec![5, 0, 5]);
        assert_eq!(r.name, t.name);
        assert_eq!(r.num_links(), t.num_links());
    }

    #[test]
    fn uniform_servers() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let t = Topology::with_uniform_servers("ring", "n=4", g, 3);
        assert_eq!(t.num_servers(), 12);
        assert_eq!(t.server_switches().len(), 4);
    }
}
