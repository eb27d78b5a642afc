//! A check-out/check-in pool for per-worker scratch state.
//!
//! The flow solver's parallel sweeps (dual-bound evaluation and potential
//! refreshes) hand each rayon worker its own scratch workspace via
//! `map_init`. Building that workspace fresh in every `map_init` call
//! allocates per parallel region, so the regions draw from a
//! [`WorkspacePool`] instead: a worker leases a workspace at chunk start and
//! returns it when the chunk ends, and once the pool has seen as many
//! concurrent workers as the process will ever run, leasing stops allocating
//! entirely.
//!
//! Pooling is a pure allocation optimization: every workspace type stored
//! here (e.g. [`SsspWorkspace`](crate::SsspWorkspace) with its generation
//! stamps) produces identical results whether it is freshly built or reused,
//! so which worker gets which pooled instance can never affect values — the
//! determinism the solver's bit-identity tests pin.

use std::sync::Mutex;

use crate::SsspWorkspace;

/// A pool of reusable scratch workspaces, one leased per worker at a time.
///
/// `take`/[`lease`](WorkspacePool::lease) pops an idle workspace or builds a
/// fresh `T::default()`; dropping the [`PooledWorkspace`] guard returns it.
/// The pool is `Sync` (a mutex guards the idle list; it is locked only at
/// lease/return, never while a workspace is in use).
#[derive(Debug, Default)]
pub struct WorkspacePool<T> {
    idle: Mutex<Vec<T>>,
}

/// Cloning a pool yields an **empty** pool: pooled workspaces are scratch
/// state, not data, so a clone starts cold and refills on first use. (This
/// exists so owners like `tb_flow::SolverWorkspace` can stay `Clone`.)
impl<T> Clone for WorkspacePool<T> {
    fn clone(&self) -> Self {
        WorkspacePool {
            idle: Mutex::new(Vec::new()),
        }
    }
}

impl<T: Default> WorkspacePool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        WorkspacePool {
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Leases a workspace: an idle pooled one if available, otherwise a fresh
    /// default. The guard returns it to the pool on drop.
    pub fn lease(&self) -> PooledWorkspace<'_, T> {
        let item = self.lock().pop().unwrap_or_default();
        PooledWorkspace {
            pool: self,
            item: Some(item),
        }
    }

    /// Number of idle (checked-in) workspaces currently held.
    pub fn idle_count(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<T>> {
        // A panic while the list is locked cannot leave it inconsistent (the
        // critical sections are a push/pop), so poisoning is ignored.
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A pool of SSSP workspaces — the shape every parallel sweep in `tb_flow`
/// leases per worker.
pub type SsspPool = WorkspacePool<SsspWorkspace>;

/// RAII lease of one pooled workspace; derefs to `T` and checks the
/// workspace back in on drop.
#[derive(Debug)]
pub struct PooledWorkspace<'a, T: Default> {
    pool: &'a WorkspacePool<T>,
    item: Option<T>,
}

impl<T: Default> std::ops::Deref for PooledWorkspace<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.item.as_ref().expect("leased workspace present")
    }
}

impl<T: Default> std::ops::DerefMut for PooledWorkspace<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.item.as_mut().expect("leased workspace present")
    }
}

impl<T: Default> Drop for PooledWorkspace<'_, T> {
    fn drop(&mut self) {
        if let Some(item) = self.item.take() {
            self.pool.lock().push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_returns_to_pool_on_drop() {
        let pool: WorkspacePool<Vec<usize>> = WorkspacePool::new();
        assert_eq!(pool.idle_count(), 0);
        {
            let mut a = pool.lease();
            a.push(7);
            let b = pool.lease();
            assert!(b.is_empty());
            assert_eq!(pool.idle_count(), 0);
        }
        assert_eq!(pool.idle_count(), 2);
        // The grown buffer is recycled, contents intact until the user resets.
        let recycled = pool.lease();
        assert_eq!(pool.idle_count(), 1);
        assert!(recycled.capacity() > 0);
    }

    #[test]
    fn clone_starts_empty() {
        let pool: WorkspacePool<Vec<usize>> = WorkspacePool::new();
        drop(pool.lease());
        assert_eq!(pool.idle_count(), 1);
        assert_eq!(pool.clone().idle_count(), 0);
    }

    #[test]
    fn sssp_pool_workspaces_are_reusable_across_graphs() {
        use crate::{sssp_csr, CsrGraph, Graph};
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let csr = CsrGraph::from_graph(&g);
        let len = vec![1.0; g.num_edges()];
        let pool = SsspPool::new();
        for _ in 0..3 {
            let mut ws = pool.lease();
            sssp_csr(&csr, 0, &len, None, &mut ws);
            assert_eq!(ws.dist(3), 3.0);
        }
        assert_eq!(pool.idle_count(), 1);
    }
}
