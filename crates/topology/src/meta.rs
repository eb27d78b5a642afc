//! Construction-free topology metadata.
//!
//! A [`TopoMeta`] describes a topology instance — its display labels, switch
//! and server counts, and (where closed-form) link count and degree cap —
//! without building the graph. Every generator module has a `*_meta`
//! companion whose output matches the constructed
//! [`Topology`](crate::Topology) exactly; [`TopoSpec::metadata`](crate::TopoSpec::metadata)
//! reaches them, and the contract is pinned by the `metadata_equiv`
//! property test.
//!
//! The sweep engine uses this layer to expand scenario grids and render
//! tables without constructing a single graph, which is what makes fully
//! cache-hot runs build-free end to end (observable through
//! [`crate::topology::constructions`]).

/// Construction-free description of one topology instance.
///
/// `name` and `params` are exactly the strings the constructed
/// [`Topology`](crate::Topology) would carry; the counts match the built
/// graph. `links` and `degree` are `None` only where no closed form exists
/// (e.g. Erdős–Rényi natural-network stand-ins).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoMeta {
    /// Family name, identical to `Topology::name`.
    pub name: String,
    /// Instance parameter string, identical to `Topology::params`.
    pub params: String,
    /// Number of switches (graph nodes).
    pub switches: usize,
    /// Total number of attached servers.
    pub servers: usize,
    /// Number of switches carrying at least one server.
    pub server_switches: usize,
    /// Number of switch-to-switch links, when derivable without construction.
    pub links: Option<usize>,
    /// Maximum inter-switch degree (the instance's degree cap), when
    /// derivable without construction.
    pub degree: Option<usize>,
}
