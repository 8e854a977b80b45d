//! # sme-runtime
//!
//! The serving layer of the reproduction: **tune once, cache, dispatch**.
//!
//! The paper's generator (like LIBXSMM) produces kernels that are executed
//! many times per time step, so the host-side cost that matters in
//! production is not one generation but the steady state: repeated mixed
//! traffic that should hit pre-compiled, pre-tuned kernels. This crate adds
//! the three pieces the bare generator lacks:
//!
//! * [`KernelCache`] — a sharded, thread-safe, bounded-LRU cache keyed by
//!   **[`AnyGemmConfig`] plus [`Backend`]** (the unified datatype-aware
//!   key: FP32 [`GemmConfig`] or BF16 widening
//!   [`sme_gemm::WideningGemmConfig`]), handing out
//!   `Arc<sme_gemm::RoutedKernel>` on hit and compiling on miss, with
//!   exact hit/miss/eviction counters — plus a [`PackedOperandCache`]
//!   that reuses materialised operand images across dispatches of the
//!   same operands (keyed by operand identity × layout × datatype, with
//!   invalidation wired into the kernel cache's invalidation paths);
//! * [`tuner`] — an autotuner that enumerates the candidate block plans,
//!   ZA-transfer strategies and unroll factors **across both backends and
//!   both datatypes** ([`sme_gemm::enumerate_any_candidates`]), prunes
//!   analytically dominated FP32 plans
//!   ([`sme_gemm::prune_dominated_candidates`]), scores the rest by
//!   simulated cycles on the `sme-machine` timing model, and persists
//!   winners in a versioned, machine-fingerprinted, dtype-tagged
//!   serde-JSON [`PlanStore`] the cache consults before falling back to
//!   the requested backend's default kernel;
//! * [`GemmService`] — a batched front end that accepts mixed-configuration
//!   (and mixed-datatype) request batches, groups them by kernel, fans the
//!   groups out across host threads via `rayon`, and aggregates
//!   [`sme_machine::ExecStats`] per configuration (each
//!   [`ConfigReport`] tagged with its dtype and backend). Routing —
//!   *which engine serves a group* — is delegated:
//!   [`GemmService::dispatch`] follows each shape's tuned winner, and
//!   [`GemmService::dispatch_routed`] takes an explicit per-configuration
//!   decision (the `sme-router` crate's hook).
//!
//! ## Cache → tune → dispatch
//!
//! ```
//! use sme_gemm::GemmConfig;
//! use sme_runtime::{GemmRequest, GemmService, PlanStore, TunerOptions};
//!
//! let service = GemmService::new(32);
//! let cfg = GemmConfig::abt(48, 48, 16);
//!
//! // Dispatch compiles on first sight, then serves every repeat from the
//! // cache — counter-verified.
//! let batch: Vec<GemmRequest> = (0..4)
//!     .map(|seed| GemmRequest::fp32(cfg, seed))
//!     .collect();
//! service.dispatch(&batch).expect("valid batch");
//! service.dispatch(&batch).expect("valid batch");
//! let stats = service.cache().stats();
//! assert_eq!(stats.misses, 1);
//! assert!(stats.hits >= 1);
//!
//! // Autotuning can only improve the modelled cycle count, and the winner
//! // is installed so later dispatches use it.
//! let outcome = service
//!     .tune_any(&cfg.into(), &TunerOptions::quick())
//!     .expect("tunable");
//! assert!(outcome.tuned_cycles <= outcome.default_cycles);
//!
//! // Winners persist as a small JSON document…
//! let json = service.cache().export_store().to_json();
//! // …that a later process can load back.
//! let store = PlanStore::from_json(&json).expect("well-formed store");
//! assert!(store.lookup_any(&cfg.into()).is_some());
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod fault;
pub mod pack;
pub mod persist;
pub mod poison;
pub mod service;
pub mod store;
pub mod tuner;

pub use cache::{CacheStats, KernelCache};
pub use error::ServeError;
pub use fault::{
    clear_injector, install_injector, FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultRule,
    SitePattern,
};
pub use pack::{PackStats, PackedOperandCache};
pub use persist::{
    backup_path, load_snapshot, parse_snapshot, read_snapshot, save_snapshot, FingerprintCheck,
    Recovered, Snapshot, SnapshotError, SnapshotSource,
};
pub use service::{BatchReport, ConfigReport, GemmRequest, GemmService, RequestFailure};
pub use store::{tune_key_any, PlanStore, RecoveredStore, TunedRecord, PLAN_STORE_VERSION};
pub use tuner::{tune_any, tune_any_into_store, TuneOutcome, TunerOptions};

// Re-exported so doc examples and downstream callers can name the config,
// dtype and backend types without adding a direct `sme-gemm` dependency.
pub use sme_gemm::{AnyGemmConfig, Backend, Dtype, GemmConfig, WideningGemmConfig};
