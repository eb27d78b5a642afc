//! Anchor crate for the workspace-level integration tests (`tests/`). All
//! functionality lives in the `crates/` sub-crates; start from the
//! `topobench` crate (`crates/core`).

#![forbid(unsafe_code)]
