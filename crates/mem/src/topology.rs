//! Shared-vs-private memory topologies of the multi-GPU rig.
//!
//! A [`MemoryPool`] owns the L2 + DRAM back ends of N simulated GPUs
//! and decides how their access streams map onto them:
//!
//! * [`Topology::Shared`] — one contended [`MemoryHierarchy`] services
//!   every GPU (a chiplet-style shared memory system). Contention is
//!   modeled by the *interleave* of the GPUs' access streams, which the
//!   caller must keep deterministic (the timing layer interleaves
//!   round-robin at fixed granularity: whole frames under
//!   alternate-frame dispatch, tile shards under split-frame dispatch).
//!   Cache lines, LRU stamps, DRAM rows and bus slots are then fought
//!   over exactly as one serialized stream.
//! * [`Topology::Private`] — each GPU gets its own hierarchy (a
//!   board-level rig of discrete cards); streams never interact and
//!   only the interconnect couples the GPUs.
//!
//! The pool is deliberately passive — it hands out `&mut
//! MemoryHierarchy` views and aggregates stats — so the timing layer
//! can thread whichever GPU's stream is active through the existing
//! `access_run` fast paths unchanged.

use crate::cache::CacheConfig;
use crate::dram::DramConfig;
use crate::hierarchy::{MemoryHierarchy, MemoryStats};

/// How N GPUs map onto L2 + DRAM back ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// One contended hierarchy shared by every GPU.
    Shared,
    /// One hierarchy per GPU.
    #[default]
    Private,
}

/// The memory back ends of an N-GPU rig under one [`Topology`].
#[derive(Debug, Clone)]
pub struct MemoryPool {
    topology: Topology,
    gpus: usize,
    hierarchies: Vec<MemoryHierarchy>,
}

impl MemoryPool {
    /// Builds the pool: one hierarchy when shared, `gpus` when private.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is zero.
    pub fn new(topology: Topology, gpus: usize, l2: CacheConfig, dram: DramConfig) -> Self {
        assert!(gpus > 0, "a rig needs at least one GPU");
        let backends = match topology {
            Topology::Shared => 1,
            Topology::Private => gpus,
        };
        Self {
            topology,
            gpus,
            hierarchies: (0..backends)
                .map(|_| MemoryHierarchy::new(l2.clone(), dram))
                .collect(),
        }
    }

    /// The pool's topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Number of GPUs served.
    pub fn gpus(&self) -> usize {
        self.gpus
    }

    /// Number of distinct hierarchies backing the pool.
    pub fn backends(&self) -> usize {
        self.hierarchies.len()
    }

    /// The hierarchy servicing GPU `gpu`'s stream: the single shared
    /// back end, or the GPU's private one.
    ///
    /// # Panics
    ///
    /// Panics if `gpu >= self.gpus()`.
    pub fn for_gpu(&mut self, gpu: usize) -> &mut MemoryHierarchy {
        assert!(gpu < self.gpus, "GPU {gpu} out of range");
        match self.topology {
            Topology::Shared => &mut self.hierarchies[0],
            Topology::Private => &mut self.hierarchies[gpu],
        }
    }

    /// Summed counters over every back end.
    pub fn stats(&self) -> MemoryStats {
        let mut total = MemoryStats::default();
        for h in &self.hierarchies {
            total.merge(&h.stats());
        }
        total
    }

    /// Resets every back end's counters (state persists).
    pub fn reset_stats(&mut self) {
        for h in &mut self.hierarchies {
            h.reset_stats();
        }
    }

    /// Flushes every back end's L2 (device idle at sequence end) and
    /// returns the total writeback count.
    pub fn flush_all(&mut self) -> u64 {
        self.hierarchies.iter_mut().map(|h| h.flush_l2()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(topology: Topology, gpus: usize) -> MemoryPool {
        MemoryPool::new(
            topology,
            gpus,
            CacheConfig::new("L2", 1024, 64, 2, 1, 10),
            DramConfig::lpddr3_baseline(),
        )
    }

    #[test]
    fn shared_pool_has_one_backend_private_has_n() {
        assert_eq!(pool(Topology::Shared, 4).backends(), 1);
        assert_eq!(pool(Topology::Private, 4).backends(), 4);
    }

    #[test]
    fn shared_topology_contends_on_one_hierarchy() {
        let mut p = pool(Topology::Shared, 2);
        // GPU 0 warms a line; GPU 1 hits it — same L2.
        p.for_gpu(0).access(0x40, 0, false);
        let hit = p.for_gpu(1).access(0x40, 1_000, false);
        assert!(hit.l2_hit);
        assert_eq!(p.stats().l2.accesses(), 2);
    }

    #[test]
    fn private_topology_isolates_streams() {
        let mut p = pool(Topology::Private, 2);
        p.for_gpu(0).access(0x40, 0, false);
        let miss = p.for_gpu(1).access(0x40, 1_000, false);
        assert!(!miss.l2_hit, "GPU 1's private L2 never saw the line");
        let s = p.stats();
        assert_eq!(s.l2.misses, 2);
        assert_eq!(s.dram.accesses(), 2);
    }

    #[test]
    fn flush_all_drains_every_backend() {
        let mut p = pool(Topology::Private, 2);
        p.for_gpu(0).access(0x00, 0, true);
        p.for_gpu(1).access(0x40, 0, true);
        assert_eq!(p.flush_all(), 2);
        assert_eq!(p.flush_all(), 0);
    }

    #[test]
    fn reset_stats_keeps_state() {
        let mut p = pool(Topology::Shared, 2);
        p.for_gpu(0).access(0x40, 0, false);
        p.reset_stats();
        assert_eq!(p.stats(), MemoryStats::default());
        assert!(p.for_gpu(1).access(0x40, 1_000, false).l2_hit);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_gpu_panics() {
        pool(Topology::Shared, 2).for_gpu(2);
    }
}
