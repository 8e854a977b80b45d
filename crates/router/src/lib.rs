//! # sme-router
//!
//! Traffic-aware multi-backend dispatch: the layer between the
//! `sme-runtime` service and the kernel generators that decides, per
//! request, **which engine executes** — the SME outer-product units or the
//! core-private Neon FMLA pipes — and knows what the traffic looks like.
//!
//! The paper's Fig. 1 shows why one engine is not enough: SME throughput
//! comes from **two shared units** (one per cluster) and towers over Neon
//! for dense shapes, but an SME kernel pays a fixed streaming-mode
//! entry/exit and ZA-transfer cost that tiny or thin GEMMs never amortise
//! — those run faster on the Neon pipes every core owns privately. A
//! serving system therefore needs three things this crate provides:
//!
//! * [`RoutingPolicy`] — the per-shape engine decision, from pinned
//!   ([`RoutingPolicy::SmeOnly`]/[`RoutingPolicy::NeonOnly`]) through a
//!   closed-form estimate ([`RoutingPolicy::Heuristic`]) to one-off model
//!   probes ([`RoutingPolicy::Measured`], the default); installed tuned
//!   winners always take precedence, so the cross-backend autotuner is the
//!   final authority;
//! * [`TelemetryRegistry`] — per-[`GemmConfig`] request counts, cumulative
//!   cycles, serving backend and cache outcomes, plus **exponentially
//!   decayed** counters so [`Router::top_shapes`] answers *which shapes
//!   dominate traffic lately?*; [`Router::pretune_hot`] autotunes exactly
//!   those, and the whole registry persists as a versioned,
//!   machine-fingerprinted JSON snapshot
//!   ([`TelemetryRegistry::save`]/[`TelemetryRegistry::load_recovered`]);
//! * [`plan_batch`] — a batch placement over the machine's real engine
//!   classes (two shared SME units + ten private cores) that replaces the
//!   runtime's identical-cores makespan; [`Router::dispatch`] folds the
//!   placement back into routing ([`plan_batch_placed`]): when the two
//!   shared units saturate, marginal SME groups spill to idle private
//!   cores whenever that lowers the projected batch makespan, and host
//!   execution follows the plan's schedule (longest SME group first);
//! * [`PretuneDaemon`] — the background serving loop: restore persisted
//!   telemetry + plans on startup, periodically tune and cache-warm the
//!   decayed top-N, persist both back, so the cache is warm for
//!   tomorrow's traffic across restarts.
//!
//! The same machinery serves **both datatype families**: batches may mix
//! FP32 and BF16 widening requests, routing/telemetry/placement are keyed
//! on the unified [`sme_gemm::AnyGemmConfig`], and the BF16 side has a real
//! SME/Neon pair too — the widening BFMOPA fast path (32×32 grid) versus
//! the Neon `BFMMLA` baseline (8×2 grid).
//!
//! ## Route → dispatch → observe → pre-tune
//!
//! ```
//! use sme_router::Router;
//! use sme_runtime::{GemmRequest, TunerOptions};
//! use sme_gemm::{Backend, GemmConfig, WideningGemmConfig};
//!
//! let router = Router::new(32);
//! let tiny = GemmConfig::abt(16, 4, 4);    // streaming overhead dominates
//! let dense = GemmConfig::abt(64, 64, 64); // SME's home turf
//!
//! let mut batch: Vec<GemmRequest> = (0..4)
//!     .map(|seed| GemmRequest::fp32(if seed % 2 == 0 { tiny } else { dense }, seed))
//!     .collect();
//! // BF16 widening traffic rides through the same dispatch path.
//! let bf16 = WideningGemmConfig::new(32, 32, 8).expect("valid widening shape");
//! batch.push(GemmRequest::widening(bf16, 9));
//! let report = router.dispatch(&batch).expect("valid batch");
//!
//! // The router split the batch across engine classes…
//! assert_eq!(router.route(&tiny), Backend::Neon);
//! assert_eq!(router.route(&dense), Backend::Sme);
//! assert_eq!(router.route_any(&bf16.into()), Backend::Sme);
//! let (sme_load, neon_load) = report.placement.class_load_cycles();
//! assert!(sme_load > 0.0 && neon_load > 0.0);
//!
//! // …and the telemetry knows exactly who called. The hottest shape is
//! // the one costing the most (decayed) cycles — the dense GEMM, even
//! // though the tiny one has as many requests.
//! assert_eq!(router.telemetry().total_requests(), 5);
//! let hot = router.top_shapes(1);
//! assert_eq!(hot[0].config, dense.into());
//!
//! // Pre-tune the hottest shapes: routing now follows the simulated
//! // cross-backend argmin instead of the probe.
//! router.pretune_hot(2, &TunerOptions::quick()).expect("tunable");
//! ```

#![warn(missing_docs)]

pub mod daemon;
pub mod planner;
pub mod policy;
pub mod router;
pub mod telemetry;

pub use daemon::{
    DaemonError, DaemonHandle, PretuneDaemon, PretuneDaemonConfig, RestoreReport, StopOutcome,
    TickReport, STOP_TIMEOUT,
};
pub use planner::{
    plan_batch, plan_batch_placed, BatchPlan, GroupCost, GroupPlacement, PlacementPlan,
};
pub use policy::{
    estimate_backend_cycles, estimate_widening_backend_cycles, heuristic_backend,
    heuristic_backend_any, RoutingPolicy,
};
pub use router::{RoutedBatchReport, Router};
pub use telemetry::{
    RecoveredTelemetry, ShapeStats, TelemetryRegistry, DEFAULT_DECAY_HALF_LIFE,
    TELEMETRY_SNAPSHOT_VERSION,
};

// Re-exported so doc examples and downstream callers can name the core
// types without extra direct dependencies.
pub use sme_gemm::{AnyGemmConfig, Backend, Dtype, GemmConfig, WideningGemmConfig};
pub use sme_runtime::GemmRequest;
