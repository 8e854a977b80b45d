//! Thread-safe, sharded kernel cache with a bounded LRU policy.
//!
//! The paper's kernels are generated once and executed many times per time
//! step; the reproduction previously regenerated on every call. The
//! [`KernelCache`] closes that gap: it hands out `Arc<RoutedKernel>`
//! clones on hit and compiles on miss, consulting the [`PlanStore`] first so
//! that autotuned winners — not the default heterogeneous plan — become the
//! dispatched kernels ([`sme_gemm::generate_routed`] is the tuned path,
//! [`sme_gemm::generate_backend`] the fallback).
//!
//! Entries are keyed by **configuration plus backend**, where the
//! configuration is the unified [`AnyGemmConfig`] key — FP32 and BF16
//! widening kernels of the same shape are distinct entries, and the same
//! configuration can be cached once as an SME kernel and once as a Neon
//! kernel, so a router flipping a shape between engines (or serving a
//! mixed-datatype batch) never thrashes the cache.
//!
//! Entries are spread over a fixed number of shards by the key's hash, so
//! concurrent requests for different kernels rarely contend on the same
//! lock. Each shard applies its own LRU bound; compilation happens under
//! the shard lock, which serialises misses *per shard* but guarantees a
//! kernel is compiled at most once and keeps the hit/miss counters exact
//! (the property the cache's tests and the runtime integration test rely
//! on).

use crate::pack::PackedOperandCache;
use crate::store::{tune_key_any, PlanStore, TunedRecord};
use serde::json::Value;
use sme_gemm::{
    generate_any_backend, generate_any_routed, AnyGemmConfig, Backend, GemmConfig, GemmError,
    RoutedKernel,
};
use sme_obs::{Counter, Gauge, Histogram, ObsHub, TraceCtx};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Instant;

/// Lock a shard, recovering from poison instead of panicking: a panic while
/// the guard was held may have left the entry list mid-edit, so a recovered
/// shard's entries are dropped (they are only a cache — the next request
/// recompiles) while its counters are kept. The recovery is counted in
/// `sme_lock_poisoned_total` (see [`crate::poison`]).
fn lock_shard(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    let (mut guard, recovered) = crate::poison::lock_recovering(shard, "kernel-cache shard");
    if recovered {
        guard.entries.clear();
    }
    guard
}

/// Number of independently locked shards.
const SHARDS: usize = 8;

/// Monotonic counters describing cache behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that had to compile a kernel.
    pub misses: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Misses that were compiled from a tuned plan-store record (the
    /// remainder used the default plan).
    pub tuned_compiles: u64,
}

impl CacheStats {
    /// Fraction of requests served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulate another snapshot's counters (used to aggregate the
    /// per-shard statistics into one cache-wide view).
    pub fn accumulate(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.tuned_compiles += other.tuned_compiles;
    }
}

/// Cache key: one configuration (of either datatype) compiled for one
/// backend.
type CacheKey = (AnyGemmConfig, Backend);

/// One shard: a small LRU list with the most recently used entry last.
///
/// Shard capacities are single digits to low tens, so a vector scan beats a
/// linked-list LRU both in code and in cache behaviour.
#[derive(Debug, Default)]
struct Shard {
    entries: Vec<(CacheKey, Arc<RoutedKernel>)>,
    /// This shard's share of the cache counters, updated under the shard
    /// lock so they stay exact with respect to the entries.
    stats: CacheStats,
}

impl Shard {
    fn get(&mut self, key: &CacheKey) -> Option<Arc<RoutedKernel>> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        // Refresh recency: move to the back.
        let entry = self.entries.remove(pos);
        let kernel = entry.1.clone();
        self.entries.push(entry);
        Some(kernel)
    }

    /// Insert a fresh entry, evicting the least recently used if the shard
    /// is full. Returns the number of evicted entries (0 or 1).
    fn insert(&mut self, key: CacheKey, kernel: Arc<RoutedKernel>, capacity: usize) -> u64 {
        let mut evicted = 0;
        while self.entries.len() >= capacity && !self.entries.is_empty() {
            self.entries.remove(0);
            evicted += 1;
        }
        self.entries.push((key, kernel));
        evicted
    }
}

/// A sharded, thread-safe cache of compiled GEMM kernels keyed by
/// [`GemmConfig`].
#[derive(Debug)]
pub struct KernelCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    store: RwLock<PlanStore>,
    /// Packed operand images keyed by operand identity × layout × datatype
    /// (see [`crate::pack`]); invalidated alongside the kernels.
    packs: PackedOperandCache,
    obs: OnceLock<ObsHandles>,
}

/// Pre-resolved observability handles so the fetch hot path pays atomic
/// increments, not registry lookups.
#[derive(Debug)]
struct ObsHandles {
    hub: Arc<ObsHub>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    tuned_compiles: Counter,
    hit_ratio: Gauge,
    compile_seconds: Histogram,
}

impl ObsHandles {
    fn update_hit_ratio(&self) {
        let hits = self.hits.get() as f64;
        let total = hits + self.misses.get() as f64;
        if total > 0.0 {
            self.hit_ratio.set(hits / total);
        }
    }
}

/// Short human-readable label for a configuration (trace span argument).
fn describe_any(cfg: &AnyGemmConfig) -> String {
    format!("{} {}x{}x{}", cfg.dtype(), cfg.m(), cfg.n(), cfg.k())
}

impl KernelCache {
    /// Create a cache bounded to roughly `capacity` kernels with an empty
    /// plan store.
    ///
    /// The bound is applied per shard (`capacity` is divided over the
    /// shards, rounded up), so the true ceiling is at most
    /// `capacity + SHARDS - 1` kernels.
    pub fn new(capacity: usize) -> Self {
        KernelCache::with_store(capacity, PlanStore::new())
    }

    /// Create a cache that consults `store` for tuned plans before falling
    /// back to the default plan.
    pub fn with_store(capacity: usize, store: PlanStore) -> Self {
        let shard_capacity = capacity.div_ceil(SHARDS).max(1);
        KernelCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            store: RwLock::new(store),
            // Operand images are far smaller than compiled kernels are
            // costly, so give repeated-weights traffic headroom: several
            // operand sets per cacheable kernel.
            packs: PackedOperandCache::new(capacity.max(1) * 4),
            obs: OnceLock::new(),
        }
    }

    /// The packed-operand cache riding along with the kernel cache (hit
    /// counters, explicit invalidation).
    pub fn packs(&self) -> &PackedOperandCache {
        &self.packs
    }

    /// Attach an observability hub: cache hit/miss/eviction counters, the
    /// hit-ratio gauge, compile-time histogram and per-compile spans are
    /// reported to it from then on. Only the first attach wins.
    pub fn attach_obs(&self, hub: Arc<ObsHub>) {
        self.packs.attach_obs(&hub);
        crate::poison::attach_counter(hub.metrics.counter("sme_lock_poisoned_total"));
        let _ = self.obs.set(ObsHandles {
            hits: hub.metrics.counter("sme_cache_hits_total"),
            misses: hub.metrics.counter("sme_cache_misses_total"),
            evictions: hub.metrics.counter("sme_cache_evictions_total"),
            tuned_compiles: hub.metrics.counter("sme_cache_tuned_compiles_total"),
            hit_ratio: hub.metrics.gauge("sme_cache_hit_ratio"),
            compile_seconds: hub.metrics.histogram("sme_cache_compile_seconds"),
            hub,
        });
    }

    /// The attached observability hub, if any (used by the service layer to
    /// report into the same hub).
    pub fn obs(&self) -> Option<&Arc<ObsHub>> {
        self.obs.get().map(|o| &o.hub)
    }

    fn shard_for(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// The backend the cache would pick for a configuration of either
    /// datatype when the caller expresses no preference: the stored tuned
    /// winner's backend, or the datatype's default engine — SME (the
    /// paper's engine) for both datatypes, its generators being total over
    /// their envelopes (widening edge tiles are predicated since PR 5).
    ///
    /// A record whose backend cannot actually compile the shape (possible
    /// only for stores assembled in memory — load-time validation rejects
    /// such documents) is ignored rather than followed, so a bad record
    /// can degrade dispatch but never make a valid configuration
    /// undispatchable.
    pub fn preferred_backend_any(&self, cfg: &AnyGemmConfig) -> Backend {
        let fallback = sme_gemm::default_any_candidate(cfg).backend;
        let backend = crate::poison::read(&self.store, "plan store")
            .lookup_any(cfg)
            .map(|record| record.candidate.backend)
            .unwrap_or(fallback);
        let compilable = match (cfg, backend) {
            (AnyGemmConfig::Fp32(c), Backend::Neon) => sme_gemm::neon_supports(c).is_ok(),
            (AnyGemmConfig::Fp32(_), Backend::Sme) => true,
            (AnyGemmConfig::WideningBf16(c), Backend::Sme) => {
                sme_gemm::sme_widening_supports(c).is_ok()
            }
            (AnyGemmConfig::WideningBf16(_), Backend::Neon) => true,
        };
        if compilable {
            backend
        } else {
            fallback
        }
    }

    /// FP32 convenience for [`KernelCache::preferred_backend_any`].
    pub fn preferred_backend(&self, cfg: &GemmConfig) -> Backend {
        self.preferred_backend_any(&AnyGemmConfig::Fp32(*cfg))
    }

    /// Fetch the kernel for an FP32 `cfg` on the cache's preferred backend,
    /// compiling it on miss.
    pub fn get_or_compile(&self, cfg: &GemmConfig) -> Result<Arc<RoutedKernel>, GemmError> {
        self.get_or_compile_any(&AnyGemmConfig::Fp32(*cfg))
    }

    /// Fetch the kernel for a configuration of either datatype on the
    /// cache's preferred backend (see
    /// [`KernelCache::preferred_backend_any`]), compiling it on miss.
    pub fn get_or_compile_any(&self, cfg: &AnyGemmConfig) -> Result<Arc<RoutedKernel>, GemmError> {
        self.get_or_compile_backend_any(cfg, self.preferred_backend_any(cfg))
    }

    /// Fetch the kernel for an FP32 `cfg` compiled for `backend`, compiling
    /// it on miss (see [`KernelCache::fetch_any`]).
    pub fn get_or_compile_backend(
        &self,
        cfg: &GemmConfig,
        backend: Backend,
    ) -> Result<Arc<RoutedKernel>, GemmError> {
        self.fetch(cfg, backend).map(|(kernel, _)| kernel)
    }

    /// Fetch the kernel for a configuration of either datatype compiled for
    /// `backend`, compiling it on miss (see [`KernelCache::fetch_any`]).
    pub fn get_or_compile_backend_any(
        &self,
        cfg: &AnyGemmConfig,
        backend: Backend,
    ) -> Result<Arc<RoutedKernel>, GemmError> {
        self.fetch_any(cfg, backend).map(|(kernel, _)| kernel)
    }

    /// FP32 convenience for [`KernelCache::fetch_any`].
    pub fn fetch(
        &self,
        cfg: &GemmConfig,
        backend: Backend,
    ) -> Result<(Arc<RoutedKernel>, bool), GemmError> {
        self.fetch_any(&AnyGemmConfig::Fp32(*cfg), backend)
    }

    /// Fetch the kernel for a configuration of either datatype compiled for
    /// `backend` and report whether the request hit the cache (the flag
    /// feeds the router's per-shape telemetry).
    ///
    /// On miss the plan store is consulted with the normalized tuning key;
    /// a stored winner **for the requested backend** is compiled through
    /// the tuned dispatch path ([`sme_gemm::generate_any_routed`]),
    /// anything else through the backend's default generator
    /// ([`sme_gemm::generate_any_backend`]). A tuned record that fails to
    /// compile falls back to the backend default (visible as a miss without
    /// a matching `tuned_compiles` increment) — only the configuration's
    /// own invalidity is an error.
    pub fn fetch_any(
        &self,
        cfg: &AnyGemmConfig,
        backend: Backend,
    ) -> Result<(Arc<RoutedKernel>, bool), GemmError> {
        self.fetch_any_traced(cfg, backend, None)
    }

    /// [`KernelCache::fetch_any`] with an explicit causal parent: a
    /// compile's `cache.compile` span is recorded as a child of `parent`
    /// (or as its own trace root when `parent` is `None`), so a miss shows
    /// up nested under the dispatch that caused it.
    pub fn fetch_any_traced(
        &self,
        cfg: &AnyGemmConfig,
        backend: Backend,
        parent: Option<TraceCtx>,
    ) -> Result<(Arc<RoutedKernel>, bool), GemmError> {
        let key = (*cfg, backend);
        let mut shard = lock_shard(self.shard_for(&key));
        if let Some(kernel) = shard.get(&key) {
            shard.stats.hits += 1;
            drop(shard);
            if let Some(obs) = self.obs.get() {
                obs.hits.inc();
                obs.update_hit_ratio();
            }
            return Ok((kernel, true));
        }
        shard.stats.misses += 1;
        if let Some(obs) = self.obs.get() {
            obs.misses.inc();
        }
        let compile_started = Instant::now();
        let tuned = crate::poison::read(&self.store, "plan store")
            .lookup_any(cfg)
            .copied()
            .filter(|record| record.candidate.backend == backend);
        let mut tuned_compile = false;
        let kernel = match tuned {
            // A bad record (e.g. hand-edited into a store built in memory,
            // where no load-time validation runs) must not make a valid
            // configuration undispatchable: fall back to the default
            // kernel of the requested backend and leave `tuned_compiles`
            // untouched so the degradation is visible in the counters.
            Some(record) => match generate_any_routed(cfg, &record.candidate) {
                Ok(kernel) => {
                    shard.stats.tuned_compiles += 1;
                    tuned_compile = true;
                    kernel
                }
                Err(_) => generate_any_backend(cfg, backend)?,
            },
            None => generate_any_backend(cfg, backend)?,
        };
        let kernel = Arc::new(kernel);
        let evicted = shard.insert(key, kernel.clone(), self.shard_capacity);
        shard.stats.evictions += evicted;
        drop(shard);
        if let Some(obs) = self.obs.get() {
            obs.evictions.add(evicted);
            if tuned_compile {
                obs.tuned_compiles.inc();
            }
            obs.update_hit_ratio();
            obs.compile_seconds
                .record(compile_started.elapsed().as_secs_f64());
            let ctx = match parent {
                Some(parent) => obs.hub.trace.child_ctx(parent),
                None => obs.hub.trace.root_ctx(),
            };
            obs.hub.trace.record_ctx(
                "cache.compile",
                "cache",
                compile_started,
                ctx,
                vec![
                    ("config".to_string(), Value::String(describe_any(cfg))),
                    (
                        "backend".to_string(),
                        Value::String(backend.name().to_string()),
                    ),
                    ("tuned".to_string(), Value::Bool(tuned_compile)),
                    ("evicted".to_string(), Value::Number(evicted as f64)),
                ],
            );
        }
        Ok((kernel, false))
    }

    /// Look up an FP32 `cfg` on its preferred backend without compiling or
    /// touching the counters (recency is still refreshed on hit).
    pub fn peek(&self, cfg: &GemmConfig) -> Option<Arc<RoutedKernel>> {
        let cfg = AnyGemmConfig::Fp32(*cfg);
        self.peek_backend_any(&cfg, self.preferred_backend_any(&cfg))
    }

    /// FP32 convenience for [`KernelCache::peek_backend_any`].
    pub fn peek_backend(&self, cfg: &GemmConfig, backend: Backend) -> Option<Arc<RoutedKernel>> {
        self.peek_backend_any(&AnyGemmConfig::Fp32(*cfg), backend)
    }

    /// Look up a configuration of either datatype compiled for `backend`
    /// without compiling or touching the counters.
    pub fn peek_backend_any(
        &self,
        cfg: &AnyGemmConfig,
        backend: Backend,
    ) -> Option<Arc<RoutedKernel>> {
        let key = (*cfg, backend);
        lock_shard(self.shard_for(&key)).get(&key)
    }

    /// Drop every cached kernel for an FP32 `cfg` (all backends).
    pub fn invalidate(&self, cfg: &GemmConfig) -> bool {
        self.invalidate_any(&AnyGemmConfig::Fp32(*cfg))
    }

    /// Drop every cached kernel for a configuration of either datatype
    /// (all backends), along with the configuration's packed operand
    /// images — a caller invalidating a shape expects *nothing* derived
    /// from it to be served stale.
    pub fn invalidate_any(&self, cfg: &AnyGemmConfig) -> bool {
        let mut dropped = false;
        for backend in Backend::all() {
            let key = (*cfg, backend);
            let mut shard = lock_shard(self.shard_for(&key));
            let before = shard.entries.len();
            shard.entries.retain(|(k, _)| k != &key);
            dropped |= shard.entries.len() != before;
        }
        self.packs.invalidate_config(cfg);
        dropped
    }

    /// Install a tuned winner for an FP32 `cfg` (see
    /// [`KernelCache::install_tuned_any`]).
    pub fn install_tuned(&self, cfg: &GemmConfig, record: TunedRecord) {
        self.install_tuned_any(&AnyGemmConfig::Fp32(*cfg), record)
    }

    /// Install a tuned winner for a configuration of either datatype and
    /// invalidate every cached kernel (on any backend) that shares its
    /// tuning key, so the next request compiles the tuned variant.
    pub fn install_tuned_any(&self, cfg: &AnyGemmConfig, record: TunedRecord) {
        let key = tune_key_any(cfg);
        crate::poison::write(&self.store, "plan store").insert_any(cfg, record);
        for shard in &self.shards {
            lock_shard(shard)
                .entries
                .retain(|((c, _), _)| tune_key_any(c) != key);
        }
    }

    /// The tuned record that would be used for an FP32 `cfg`, if one is
    /// stored.
    pub fn lookup_tuned(&self, cfg: &GemmConfig) -> Option<TunedRecord> {
        self.lookup_tuned_any(&AnyGemmConfig::Fp32(*cfg))
    }

    /// The tuned record that would be used for a configuration of either
    /// datatype, if one is stored.
    pub fn lookup_tuned_any(&self, cfg: &AnyGemmConfig) -> Option<TunedRecord> {
        crate::poison::read(&self.store, "plan store")
            .lookup_any(cfg)
            .copied()
    }

    /// Replace the whole plan store (e.g. after [`PlanStore::load_recovered`]) and
    /// drop every cached kernel and packed operand set, since any of them
    /// may now be stale.
    pub fn replace_store(&self, store: PlanStore) {
        *crate::poison::write(&self.store, "plan store") = store;
        for shard in &self.shards {
            lock_shard(shard).entries.clear();
        }
        self.packs.clear();
    }

    /// Snapshot of the plan store (for persistence).
    pub fn export_store(&self) -> PlanStore {
        crate::poison::read(&self.store, "plan store").clone()
    }

    /// Number of cached kernels.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_shard(s).entries.len())
            .sum()
    }

    /// `true` if no kernels are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the monotonic counters, aggregated over the per-shard
    /// [`CacheStats`] (see [`KernelCache::shard_stats`]).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in self.shard_stats() {
            total.accumulate(&shard);
        }
        total
    }

    /// Per-shard counter snapshots, in shard order. Useful for spotting a
    /// pathologically hot or thrashing shard; the cache-wide view is the
    /// aggregation in [`KernelCache::stats`].
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(|s| lock_shard(s).stats).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tune_key;
    use sme_gemm::{KernelSchedule, PlanCandidate, PlanKind, ZaTransferStrategy};

    #[test]
    fn second_request_hits_without_compiling() {
        let cache = KernelCache::new(16);
        let cfg = GemmConfig::abt(32, 32, 8);
        let first = cache.get_or_compile(&cfg).unwrap();
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                ..Default::default()
            }
        );
        let second = cache.get_or_compile(&cfg).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "same compiled kernel object");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn lru_bound_evicts_the_least_recently_used() {
        // Capacity 8 over 8 shards = 1 kernel per shard: two configurations
        // that land in the same shard must displace each other.
        let cache = KernelCache::new(8);
        let shard_of = |cfg: &GemmConfig| {
            let mut hasher = DefaultHasher::new();
            (AnyGemmConfig::Fp32(*cfg), Backend::Sme).hash(&mut hasher);
            (hasher.finish() as usize) % SHARDS
        };
        // Find two configs sharing a shard.
        let mut cfgs = vec![GemmConfig::abt(16, 16, 4)];
        let mut k = 4;
        while cfgs.len() < 2 {
            k += 4;
            let candidate = GemmConfig::abt(16, 16, k);
            if shard_of(&candidate) == shard_of(&cfgs[0]) {
                cfgs.push(candidate);
            }
        }
        cache.get_or_compile(&cfgs[0]).unwrap();
        cache.get_or_compile(&cfgs[1]).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.peek(&cfgs[0]).is_none(), "LRU entry evicted");
        assert!(cache.peek(&cfgs[1]).is_some());
        // Re-requesting the evicted config is a miss again.
        cache.get_or_compile(&cfgs[0]).unwrap();
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn recency_is_refreshed_on_hit() {
        // One shard of capacity 2 (capacity 16 / 8 shards): fill it with two
        // same-shard configs, touch the older one, insert a third — the
        // middle one must be the victim.
        let cache = KernelCache::new(16);
        let shard_of = |cfg: &GemmConfig| {
            let mut hasher = DefaultHasher::new();
            (AnyGemmConfig::Fp32(*cfg), Backend::Sme).hash(&mut hasher);
            (hasher.finish() as usize) % SHARDS
        };
        let mut same_shard = Vec::new();
        let mut k = 0;
        while same_shard.len() < 3 {
            k += 4;
            let cfg = GemmConfig::abt(16, 16, k);
            if same_shard.is_empty() || shard_of(&cfg) == shard_of(&same_shard[0]) {
                same_shard.push(cfg);
            }
        }
        cache.get_or_compile(&same_shard[0]).unwrap();
        cache.get_or_compile(&same_shard[1]).unwrap();
        cache.get_or_compile(&same_shard[0]).unwrap(); // refresh [0]
        cache.get_or_compile(&same_shard[2]).unwrap(); // evicts [1]
        assert!(cache.peek(&same_shard[0]).is_some());
        assert!(cache.peek(&same_shard[1]).is_none());
        assert!(cache.peek(&same_shard[2]).is_some());
    }

    #[test]
    fn tuned_records_drive_compilation() {
        let cache = KernelCache::new(16);
        let cfg = GemmConfig::abt(40, 40, 16);
        // Without a record: default compile.
        let plain = cache.get_or_compile(&cfg).unwrap();
        assert_eq!(plain.fp32_config().unwrap().c_transfer, cfg.c_transfer);
        assert_eq!(cache.stats().tuned_compiles, 0);

        // Installing a winner invalidates and redirects the next compile.
        let record = TunedRecord {
            candidate: PlanCandidate {
                backend: Backend::Sme,
                kind: PlanKind::Heterogeneous,
                c_transfer: ZaTransferStrategy::Direct,
                k_unroll: 4,
                schedule: KernelSchedule::Serial,
            },
            tuned_cycles: 10.0,
            default_cycles: 20.0,
        };
        cache.install_tuned(&cfg, record);
        assert!(cache.peek(&cfg).is_none(), "stale kernel invalidated");
        let tuned = cache.get_or_compile(&cfg).unwrap();
        assert_eq!(
            tuned.fp32_config().unwrap().c_transfer,
            ZaTransferStrategy::Direct
        );
        assert_eq!(tuned.fp32_config().unwrap().k_unroll, 4);
        assert_eq!(cache.stats().tuned_compiles, 1);
        assert_eq!(cache.lookup_tuned(&cfg).unwrap(), record);

        // A knob-variant of the same shape shares the tuned record…
        let variant = cfg.with_k_unroll(2);
        assert_eq!(tune_key(&variant), tune_key(&cfg));
        let tuned2 = cache.get_or_compile(&variant).unwrap();
        assert_eq!(tuned2.fp32_config().unwrap().k_unroll, 4, "tuned knobs win");
        // …and replace_store drops everything.
        cache.replace_store(PlanStore::new());
        assert!(cache.is_empty());
        assert_eq!(cache.lookup_tuned(&cfg), None);
    }

    #[test]
    fn backends_cache_independently_and_tuned_neon_winners_route() {
        let cache = KernelCache::new(16);
        let cfg = GemmConfig::abt(16, 4, 4);

        // The same configuration compiles once per backend…
        let (sme, hit) = cache.fetch(&cfg, Backend::Sme).unwrap();
        assert!(!hit);
        assert_eq!(sme.backend(), Backend::Sme);
        let (neon, hit) = cache.fetch(&cfg, Backend::Neon).unwrap();
        assert!(!hit);
        assert_eq!(neon.backend(), Backend::Neon);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
        // …and each repeat hits its own entry.
        let (again, hit) = cache.fetch(&cfg, Backend::Neon).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&neon, &again));

        // Installing a Neon winner redirects the backend-agnostic path.
        assert_eq!(cache.preferred_backend(&cfg), Backend::Sme);
        cache.install_tuned(
            &cfg,
            TunedRecord {
                candidate: PlanCandidate::neon_for(&cfg).expect("neon-supported shape"),
                tuned_cycles: 10.0,
                default_cycles: 20.0,
            },
        );
        assert_eq!(cache.preferred_backend(&cfg), Backend::Neon);
        assert!(cache.is_empty(), "both backends' kernels invalidated");
        let routed = cache.get_or_compile(&cfg).unwrap();
        assert_eq!(routed.backend(), Backend::Neon);
        assert_eq!(cache.stats().tuned_compiles, 1);

        // An explicit SME request still compiles the SME kernel (without
        // counting as a tuned compile: the record is for the other engine).
        let (sme2, _) = cache.fetch(&cfg, Backend::Sme).unwrap();
        assert_eq!(sme2.backend(), Backend::Sme);
        assert_eq!(cache.stats().tuned_compiles, 1);

        // Ragged shapes now compile on Neon; a layout the backend cannot
        // compile (column-major B) still reports the error.
        let ragged = GemmConfig::abt(33, 47, 8);
        assert!(cache.fetch(&ragged, Backend::Neon).is_ok());
        let col_major = GemmConfig::ab(33, 47, 8);
        assert!(cache.fetch(&col_major, Backend::Neon).is_err());
        assert!(cache.fetch(&col_major, Backend::Sme).is_ok());
    }

    #[test]
    fn bad_backend_records_never_make_a_valid_config_undispatchable() {
        // A store assembled in memory can carry a Neon record for a layout
        // the Neon generator cannot compile (load-time validation never
        // ran). The backend-agnostic path must ignore it and serve the SME
        // default, not propagate the Neon generator's error.
        let cache = KernelCache::new(16);
        let cfg = GemmConfig::ab(33, 47, 8); // column-major B is Neon-invalid
        cache.install_tuned(
            &cfg,
            TunedRecord {
                candidate: PlanCandidate {
                    backend: Backend::Neon,
                    ..PlanCandidate::default_for(&cfg)
                },
                tuned_cycles: 1.0,
                default_cycles: 1.0,
            },
        );
        assert_eq!(cache.preferred_backend(&cfg), Backend::Sme);
        let kernel = cache
            .get_or_compile(&cfg)
            .expect("valid configuration must stay dispatchable");
        assert_eq!(kernel.backend(), Backend::Sme);
        assert!(kernel.validate(5) < 1e-4);
        // An explicit Neon request still reports the honest error.
        assert!(cache.fetch(&cfg, Backend::Neon).is_err());
    }

    #[test]
    fn uncompilable_tuned_records_fall_back_to_the_default_plan() {
        // A store built in memory can carry records load-time validation
        // never saw; the cache must degrade to the default plan rather
        // than hard-fail a valid configuration.
        let cfg = GemmConfig::ab(32, 32, 8);
        let mut store = PlanStore::new();
        store.insert(
            &cfg,
            TunedRecord {
                // Heterogeneous is incompatible with column-major B.
                candidate: PlanCandidate {
                    backend: Backend::Sme,
                    kind: PlanKind::Heterogeneous,
                    c_transfer: ZaTransferStrategy::TwoStep,
                    k_unroll: 1,
                    schedule: KernelSchedule::Serial,
                },
                tuned_cycles: 1.0,
                default_cycles: 1.0,
            },
        );
        let cache = KernelCache::with_store(16, store);
        let kernel = cache.get_or_compile(&cfg).expect("falls back to default");
        assert!(kernel.validate(5) < 1e-4);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.tuned_compiles, 0, "fallback is counter-visible");
    }

    #[test]
    fn invalidate_and_len_track_entries() {
        let cache = KernelCache::new(16);
        let a = GemmConfig::abt(16, 16, 4);
        let b = GemmConfig::abt(16, 16, 8);
        cache.get_or_compile(&a).unwrap();
        cache.get_or_compile(&b).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.invalidate(&a));
        assert!(!cache.invalidate(&a), "already gone");
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn invalid_configurations_propagate_errors_and_are_not_cached() {
        let cache = KernelCache::new(16);
        let bad = GemmConfig::abt(0, 16, 4);
        assert!(cache.get_or_compile(&bad).is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn stats_aggregate_the_shards_and_feed_the_obs_hub() {
        let cache = KernelCache::new(16);
        let hub = ObsHub::shared(64);
        cache.attach_obs(hub.clone());
        let cfgs: Vec<GemmConfig> = (1..=3).map(|i| GemmConfig::abt(16 * i, 16, 8)).collect();
        for cfg in &cfgs {
            cache.get_or_compile(cfg).unwrap();
            cache.get_or_compile(cfg).unwrap();
        }
        // The cache-wide snapshot is the sum of the per-shard snapshots.
        let total = cache.stats();
        assert_eq!((total.hits, total.misses), (3, 3));
        let mut summed = CacheStats::default();
        for shard in cache.shard_stats() {
            summed.accumulate(&shard);
        }
        assert_eq!(summed, total);
        // Keys spread over shards, so no single shard saw everything.
        assert!(cache.shard_stats().iter().any(|s| s.misses > 0));

        // The metrics registry saw the same counts, plus a compile span
        // per miss.
        assert_eq!(hub.metrics.counter("sme_cache_hits_total").get(), 3);
        assert_eq!(hub.metrics.counter("sme_cache_misses_total").get(), 3);
        assert_eq!(hub.metrics.gauge("sme_cache_hit_ratio").get(), 0.5);
        let compile = hub
            .metrics
            .histogram("sme_cache_compile_seconds")
            .snapshot();
        assert_eq!(compile.count, 3);
        assert_eq!(hub.trace.len(), 3);
        assert!(hub
            .trace
            .snapshot()
            .iter()
            .all(|s| s.name == "cache.compile"));
        // Evictions are exported through the snapshot (satellite: counted
        // today, never exported before).
        let snap = hub.metrics.snapshot_json();
        assert_eq!(
            snap.get("counters")
                .unwrap()
                .get("sme_cache_evictions_total")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }

    #[test]
    fn concurrent_requests_compile_each_kernel_once() {
        let cache = Arc::new(KernelCache::new(64));
        let cfgs: Vec<GemmConfig> = (1..=4).map(|i| GemmConfig::abt(16 * i, 16, 8)).collect();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = cache.clone();
                let cfgs = cfgs.clone();
                scope.spawn(move || {
                    for cfg in &cfgs {
                        cache.get_or_compile(cfg).unwrap();
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 4, "each kernel compiled exactly once");
        assert_eq!(stats.hits, 8 * 4 - 4);
        assert_eq!(cache.len(), 4);
    }
}
