//! # tb-topology
//!
//! Generators for every network topology family evaluated in the paper
//! (§III-A3), plus the auxiliary constructions used in its analysis:
//!
//! | Family | Module | Reference |
//! |---|---|---|
//! | BCube | [`bcube`] | Guo et al., SIGCOMM 2009 |
//! | DCell | [`dcell`] | Guo et al., SIGCOMM 2008 |
//! | Dragonfly | [`dragonfly`] | Kim et al., ISCA 2008 |
//! | Fat tree | [`fattree`] | Al-Fares et al., SIGCOMM 2008 / Leiserson 1985 |
//! | Flattened butterfly | [`flattened_butterfly`] | Kim et al., ISCA 2007 |
//! | Hypercube | [`hypercube`] | Bhuyan & Agrawal 1984 |
//! | HyperX | [`hyperx`] | Ahn et al., SC 2009 |
//! | Jellyfish (random regular) | [`jellyfish`] | Singla et al., NSDI 2012 |
//! | Long Hop | [`longhop`] | Tomic, ANCS 2013 |
//! | Slim Fly | [`slimfly`] | Besta & Hoefler, SC 2014 |
//! | Natural-network stand-ins | [`natural`] | §III-B (66 natural networks) |
//! | Theorem-1 constructions | [`expander`] | §II-B / Appendix A |
//!
//! Every generator returns a [`Topology`]: a switch [`Graph`](tb_graph::Graph)
//! plus the number of servers attached to each switch. Server placement
//! follows §III-A2: structured networks (fat tree, BCube, DCell) attach
//! servers only at their prescribed locations; all other networks attach
//! servers to every switch. A [`TopoSpec`] names one instance as a
//! deterministic recipe; the family ladders and representatives are specs.

#![forbid(unsafe_code)]

pub mod bcube;
pub mod dcell;
pub mod dragonfly;
pub mod expander;
pub mod families;
pub mod fattree;
pub mod faults;
pub mod flattened_butterfly;
pub mod hypercube;
pub mod hyperx;
pub mod jellyfish;
pub mod longhop;
pub mod meta;
pub mod natural;
pub mod slimfly;
pub mod spec;
pub mod topology;

pub use families::{Family, ALL_FAMILIES};
pub use meta::TopoMeta;
pub use spec::TopoSpec;
pub use topology::{constructions, Topology};
