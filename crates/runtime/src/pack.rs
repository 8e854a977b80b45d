//! The packed-operand cache: reuse materialised operand images across
//! dispatches of the same operands.
//!
//! Serving traffic is dominated by *repeated* operands — the same weights
//! multiplied against a stream of activations. Every dispatch used to pay
//! the full packing cost: regenerating the pseudo-random A/B matrices from
//! their seed and (for the widening kernels) re-packing them into the
//! backend's BF16 tile layout. The [`PackedOperandCache`] closes that gap:
//! it caches the finished [`OperandImages`] — the exact byte images a
//! kernel expects in memory — keyed by **operand identity × layout ×
//! datatype**, and replays them through
//! [`sme_gemm::RoutedKernel::allocate_buffers_packed`] on a hit. The C
//! buffer is never cached: it is an output, refreshed from its seed on
//! every dispatch, so the hit path is bit-identical to the repack path.
//!
//! The key scheme:
//! - **operand identity** — the request seed the A/B contents derive from,
//! - **layout** — the configuration (shape, leading dimensions, B storage
//!   order) plus the kernel's [`OperandLayout`] (plain FP32, or one of the
//!   two packed-BF16 tile layouts), as the kernel itself decides it
//!   ([`sme_gemm::RoutedKernel::operand_layout`]),
//! - **datatype** — carried inside the [`AnyGemmConfig`], so FP32 and
//!   widening images of one shape never alias.
//!
//! Both FP32 backends read the same plain images, so a router flipping a
//! shape between SME and Neon keeps its pack hits; the widening backends
//! use different tile layouts and therefore different entries.
//!
//! Eviction is a bounded LRU over entries (most recently used last, like
//! the kernel cache's shards). Invalidation is wired into the kernel
//! cache: [`crate::cache::KernelCache::invalidate_any`] and
//! [`crate::cache::KernelCache::replace_store`] drop the corresponding
//! packed entries, so stale operand images can never outlive their
//! configuration's kernels.

use sme_gemm::{AnyGemmConfig, OperandImages, OperandLayout, RoutedKernel};
use sme_obs::{Counter, Gauge, ObsHub};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Cache key: one operand set packed in one layout for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackKey {
    /// The seed identifying the A/B operand contents.
    pub seed: u64,
    /// The configuration whose geometry shaped the images (datatype,
    /// shape, leading dimensions, B storage order).
    pub config: AnyGemmConfig,
    /// The byte layout of the images.
    pub layout: OperandLayout,
}

/// Monotonic counters describing pack-cache behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackStats {
    /// Dispatches whose operand images were served from the cache.
    pub hits: u64,
    /// Dispatches that had to pack the operands.
    pub misses: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Entries dropped by configuration invalidation (kernel-cache
    /// invalidation and plan-store replacement included).
    pub invalidations: u64,
}

impl PackStats {
    /// Fraction of dispatches served from the cache (0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct PackInner {
    /// LRU list, most recently used last (entry counts are small enough
    /// that a vector scan beats a linked-list LRU — same trade as the
    /// kernel cache's shards).
    entries: Vec<(PackKey, Arc<OperandImages>)>,
    stats: PackStats,
    resident_bytes: usize,
}

/// Pre-resolved observability handles (attached once, updated on the hot
/// path with atomic increments only).
#[derive(Debug)]
struct PackObs {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    invalidations: Counter,
    hit_ratio: Gauge,
    resident_bytes: Gauge,
}

impl PackObs {
    fn update_hit_ratio(&self) {
        let hits = self.hits.get() as f64;
        let total = hits + self.misses.get() as f64;
        if total > 0.0 {
            self.hit_ratio.set(hits / total);
        }
    }
}

/// A bounded, thread-safe cache of packed operand images (see the module
/// docs for the key scheme and eviction policy).
#[derive(Debug)]
pub struct PackedOperandCache {
    inner: Mutex<PackInner>,
    capacity: usize,
    obs: OnceLock<PackObs>,
}

impl PackedOperandCache {
    /// Create a cache bounded to `capacity` operand sets.
    pub fn new(capacity: usize) -> Self {
        PackedOperandCache {
            inner: Mutex::new(PackInner::default()),
            capacity: capacity.max(1),
            obs: OnceLock::new(),
        }
    }

    /// Attach an observability hub: pack hit/miss/eviction/invalidation
    /// counters, the pack-hit-ratio gauge and the resident-bytes gauge are
    /// reported to it from then on. Only the first attach wins.
    pub fn attach_obs(&self, hub: &ObsHub) {
        let _ = self.obs.set(PackObs {
            hits: hub.metrics.counter("sme_pack_hits_total"),
            misses: hub.metrics.counter("sme_pack_misses_total"),
            evictions: hub.metrics.counter("sme_pack_evictions_total"),
            invalidations: hub.metrics.counter("sme_pack_invalidations_total"),
            hit_ratio: hub.metrics.gauge("sme_pack_hit_ratio"),
            resident_bytes: hub.metrics.gauge("sme_pack_resident_bytes"),
        });
    }

    /// Lock the cache interior, recovering from poison instead of
    /// panicking: a panic mid-update may have left the entry list and the
    /// resident-bytes accounting out of sync, so a recovered cache is
    /// emptied (counted as invalidations) — it is only a cache, the next
    /// dispatch repacks. The recovery is counted in
    /// `sme_lock_poisoned_total` (see [`crate::poison`]).
    fn lock_inner(&self) -> MutexGuard<'_, PackInner> {
        let (mut inner, recovered) =
            crate::poison::lock_recovering(&self.inner, "packed-operand cache");
        if recovered {
            let dropped = inner.entries.len();
            inner.entries.clear();
            inner.resident_bytes = 0;
            inner.stats.invalidations += dropped as u64;
        }
        inner
    }

    /// The operand images for `(kernel, seed)`, packing and caching them on
    /// miss. Returns the images and whether the request hit the cache.
    ///
    /// Packing happens under the cache lock, so an operand set is packed at
    /// most once and the counters stay exact (the same trade the kernel
    /// cache makes for compilation).
    pub fn get_or_pack(&self, kernel: &RoutedKernel, seed: u64) -> (Arc<OperandImages>, bool) {
        let key = PackKey {
            seed,
            config: kernel.any_config(),
            layout: kernel.operand_layout(),
        };
        let mut inner = self.lock_inner();
        if let Some(pos) = inner.entries.iter().position(|(k, _)| *k == key) {
            // Refresh recency: move to the back.
            let entry = inner.entries.remove(pos);
            let images = entry.1.clone();
            inner.entries.push(entry);
            inner.stats.hits += 1;
            drop(inner);
            if let Some(obs) = self.obs.get() {
                obs.hits.inc();
                obs.update_hit_ratio();
            }
            return (images, true);
        }
        inner.stats.misses += 1;
        let images = Arc::new(kernel.pack_operands(seed));
        inner.resident_bytes += images.bytes();
        let mut evicted = 0u64;
        while inner.entries.len() >= self.capacity {
            let (_, old) = inner.entries.remove(0);
            inner.resident_bytes -= old.bytes();
            evicted += 1;
        }
        inner.stats.evictions += evicted;
        inner.entries.push((key, images.clone()));
        let resident = inner.resident_bytes;
        drop(inner);
        if let Some(obs) = self.obs.get() {
            obs.misses.inc();
            obs.evictions.add(evicted);
            obs.update_hit_ratio();
            obs.resident_bytes.set(resident as f64);
        }
        (images, false)
    }

    /// Drop every cached operand set of `cfg` (all seeds, all layouts).
    /// Returns the number of entries dropped.
    pub fn invalidate_config(&self, cfg: &AnyGemmConfig) -> usize {
        let mut inner = self.lock_inner();
        let before = inner.entries.len();
        let mut freed = 0usize;
        inner.entries.retain(|(k, images)| {
            let stale = k.config == *cfg;
            if stale {
                freed += images.bytes();
            }
            !stale
        });
        let dropped = before - inner.entries.len();
        inner.resident_bytes -= freed;
        inner.stats.invalidations += dropped as u64;
        let resident = inner.resident_bytes;
        drop(inner);
        if let Some(obs) = self.obs.get() {
            obs.invalidations.add(dropped as u64);
            obs.resident_bytes.set(resident as f64);
        }
        dropped
    }

    /// Drop every cached operand set (plan-store replacement).
    pub fn clear(&self) {
        let mut inner = self.lock_inner();
        let dropped = inner.entries.len();
        inner.entries.clear();
        inner.resident_bytes = 0;
        inner.stats.invalidations += dropped as u64;
        drop(inner);
        if let Some(obs) = self.obs.get() {
            obs.invalidations.add(dropped as u64);
            obs.resident_bytes.set(0.0);
        }
    }

    /// Number of cached operand sets.
    pub fn len(&self) -> usize {
        self.lock_inner().entries.len()
    }

    /// `true` if no operand sets are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total heap footprint of the cached images in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.lock_inner().resident_bytes
    }

    /// Snapshot of the monotonic counters.
    pub fn stats(&self) -> PackStats {
        self.lock_inner().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sme_gemm::{generate_any_backend, Backend, GemmConfig, WideningGemmConfig};
    use sme_machine::exec::{RunOptions, Simulator};

    fn fp32_kernel(cfg: &GemmConfig) -> RoutedKernel {
        generate_any_backend(&AnyGemmConfig::Fp32(*cfg), Backend::Sme).unwrap()
    }

    #[test]
    fn repeated_operands_hit_and_replay_bit_identically() {
        let cache = PackedOperandCache::new(8);
        let cfg = GemmConfig::abt(32, 32, 8);
        let kernel = fp32_kernel(&cfg);

        let (packed, hit) = cache.get_or_pack(&kernel, 7);
        assert!(!hit);
        let (again, hit) = cache.get_or_pack(&kernel, 7);
        assert!(hit);
        assert!(Arc::ptr_eq(&packed, &again));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hit_ratio(), 0.5);
        assert_eq!(cache.resident_bytes(), packed.bytes());

        // The hit path's outputs are bit-identical to the repack path's.
        let mut repack_sim = Simulator::m4_performance();
        let bufs = kernel.allocate_buffers(&mut repack_sim, Some(7));
        kernel.run(&mut repack_sim, bufs, &RunOptions::functional_only());
        let repacked = repack_sim.mem.read_f32_slice(bufs.c, cfg.c_len());

        let mut hit_sim = Simulator::m4_performance();
        let bufs = kernel.allocate_buffers_packed(&mut hit_sim, 7, &again);
        kernel.run(&mut hit_sim, bufs, &RunOptions::functional_only());
        let from_cache = hit_sim.mem.read_f32_slice(bufs.c, cfg.c_len());
        assert_eq!(repacked, from_cache);
    }

    #[test]
    fn distinct_seeds_configs_and_layouts_do_not_alias() {
        let cache = PackedOperandCache::new(8);
        let cfg = GemmConfig::abt(16, 16, 8);
        let kernel = fp32_kernel(&cfg);
        let (_, hit) = cache.get_or_pack(&kernel, 1);
        assert!(!hit);
        let (_, hit) = cache.get_or_pack(&kernel, 2);
        assert!(!hit, "different seed is a different operand set");

        // Both FP32 backends share the plain layout: a Neon kernel of the
        // same configuration hits the SME kernel's entry.
        let neon = generate_any_backend(&AnyGemmConfig::Fp32(cfg), Backend::Neon).unwrap();
        let (_, hit) = cache.get_or_pack(&neon, 1);
        assert!(hit, "FP32 images are backend-agnostic");

        // The widening backends pack differently and never alias.
        let wcfg: AnyGemmConfig = WideningGemmConfig::new(32, 32, 8).unwrap().into();
        let sme_w = generate_any_backend(&wcfg, Backend::Sme).unwrap();
        let neon_w = generate_any_backend(&wcfg, Backend::Neon).unwrap();
        let (_, hit) = cache.get_or_pack(&sme_w, 1);
        assert!(!hit);
        let (_, hit) = cache.get_or_pack(&neon_w, 1);
        assert!(!hit, "MMLA and interleaved layouts are distinct entries");
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn lru_bound_and_invalidation_drop_entries() {
        let cache = PackedOperandCache::new(2);
        let cfg_a = GemmConfig::abt(16, 16, 8);
        let cfg_b = GemmConfig::abt(32, 16, 8);
        let kernel_a = fp32_kernel(&cfg_a);
        let kernel_b = fp32_kernel(&cfg_b);

        cache.get_or_pack(&kernel_a, 1);
        cache.get_or_pack(&kernel_a, 2);
        cache.get_or_pack(&kernel_b, 1); // evicts (cfg_a, seed 1)
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        let (_, hit) = cache.get_or_pack(&kernel_a, 1);
        assert!(!hit, "the evicted entry repacks");

        // Invalidation drops every seed of the configuration, and the
        // byte accounting drains to the surviving entries.
        let dropped = cache.invalidate_config(&AnyGemmConfig::Fp32(cfg_a));
        assert_eq!(dropped, 1, "seed 2 was evicted by the LRU bound above");
        assert_eq!(cache.stats().invalidations, 1);
        let (images, hit) = cache.get_or_pack(&kernel_b, 1);
        assert!(hit, "other configurations survive invalidation");
        assert_eq!(cache.resident_bytes(), images.bytes());

        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
    }
}
