//! Property-based coverage of the serving loop's two core guarantees:
//!
//! * **placement-aware routing never loses**: across random mixed
//!   FP32/BF16 batches (and across random raw cost pictures fed straight
//!   into the planner), the placed projection's makespan is never worse
//!   than the route-in-isolation projection — rerouting is only ever
//!   accepted when it strictly helps, so the worst case is "nothing
//!   moved";
//! * **telemetry survives a restart faithfully**: random record/epoch
//!   sequences round-trip through the versioned snapshot with the decayed
//!   ranking preserved exactly, and a snapshot stamped by a different
//!   machine calibration is discarded on load.

use proptest::prelude::*;
use sme_gemm::{AnyGemmConfig, Backend, GemmConfig, WideningGemmConfig};
use sme_machine::multicore::MulticoreModel;
use sme_machine::MachineConfig;
use sme_router::{plan_batch_placed, GroupCost, Router, TelemetryRegistry};
use sme_runtime::{FingerprintCheck, GemmRequest, Snapshot};

/// A pool of valid mixed-dtype shapes: FP32 on and off the Neon 16×4 grid,
/// plus widening shapes on and off the SME 32×32 grid.
fn shape_pool() -> Vec<AnyGemmConfig> {
    let mut pool: Vec<AnyGemmConfig> = Vec::new();
    for (m, n, k) in [
        (16, 4, 4),
        (16, 8, 16),
        (32, 16, 8),
        (32, 32, 32),
        (48, 48, 16),
        (64, 64, 32),
        (33, 17, 5), // off the Neon grid: SME-pinned
        (21, 11, 7),
    ] {
        pool.push(GemmConfig::abt(m, n, k).into());
    }
    for (m, n, k) in [
        (16, 4, 8),
        (32, 32, 8),
        (32, 32, 64),
        (48, 40, 16),
        (64, 64, 8),
    ] {
        pool.push(WideningGemmConfig::new(m, n, k).expect("valid").into());
    }
    pool
}

/// A random batch: up to 24 requests drawn from the shape pool.
fn batch_strategy() -> impl Strategy<Value = Vec<GemmRequest>> {
    let pool = shape_pool();
    proptest::collection::vec((0..pool.len(), 0u64..1000), 1..24).prop_map(move |draws| {
        draws
            .into_iter()
            .map(|(i, seed)| GemmRequest {
                config: pool[i],
                seed,
            })
            .collect()
    })
}

/// Random raw cost pictures for the pure planner property: provisional
/// backend, cycles, and an optional alternative cost.
fn costs_strategy() -> impl Strategy<Value = Vec<GroupCost>> {
    let pool = shape_pool();
    proptest::collection::vec(
        (
            0..pool.len(),
            any::<bool>(),
            1u64..2_000_000,
            any::<bool>(),
            1u64..4_000_000,
        ),
        1..20,
    )
    .prop_map(move |draws| {
        // Dispatch groups requests per config, so a real cost picture never
        // repeats a shape — keep the first draw of each.
        let mut seen = std::collections::HashSet::new();
        draws
            .into_iter()
            .filter(|&(i, ..)| seen.insert(i))
            .map(|(i, sme, cycles, has_alt, alt)| {
                let backend = if sme { Backend::Sme } else { Backend::Neon };
                GroupCost {
                    config: pool[i],
                    backend,
                    cycles: cycles as f64,
                    // Only SME groups carry an alternative (the dispatch
                    // never costs a Neon→SME flip).
                    alt_cycles: (sme && has_alt).then_some(alt as f64),
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The planner's greedy spill never worsens the projected makespan,
    /// whatever the cost picture looks like.
    #[test]
    fn placed_makespan_never_exceeds_isolated(costs in costs_strategy()) {
        let model = MulticoreModel::new(MachineConfig::apple_m4());
        let plan = plan_batch_placed(&costs, &model);
        prop_assert!(
            plan.placement.makespan_cycles() <= plan.isolated.makespan_cycles() + 1e-9,
            "placed {} > isolated {}",
            plan.placement.makespan_cycles(),
            plan.isolated.makespan_cycles()
        );
        // Every reroute really moved an SME-provisional group to Neon.
        for config in &plan.rerouted {
            let cost = costs.iter().find(|c| c.config == *config).unwrap();
            prop_assert_eq!(cost.backend, Backend::Sme);
            prop_assert!(cost.alt_cycles.is_some());
        }
    }
}

proptest! {
    // Dispatch compiles real kernels, so fewer (but still random) cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end: placement-aware dispatch of a random mixed-dtype batch
    /// never projects worse than route-in-isolation, and the executed
    /// backends match the plan.
    #[test]
    fn dispatch_never_projects_worse_than_isolation(requests in batch_strategy()) {
        let router = Router::new(128);
        let report = router.dispatch(&requests).expect("pool shapes are valid");
        prop_assert!(
            report.placement.makespan_cycles() <= report.isolated.makespan_cycles() + 1e-9,
            "placed {} > isolated {}",
            report.placement.makespan_cycles(),
            report.isolated.makespan_cycles()
        );
        for (placement, group) in report
            .placement
            .placements
            .iter()
            .zip(&report.batch.per_config)
        {
            prop_assert_eq!(placement.config, group.config);
            prop_assert_eq!(placement.backend, group.backend);
        }
        for config in &report.rerouted {
            let group = report
                .batch
                .per_config
                .iter()
                .find(|g| g.config == *config)
                .expect("rerouted configs are dispatched");
            prop_assert_eq!(group.backend, Backend::Neon);
        }
    }
}

/// Random traffic histories: (shape index, backend, requests, cycles,
/// advance-epoch-after) tuples.
fn history_strategy() -> impl Strategy<Value = Vec<(usize, bool, u64, u64, bool)>> {
    proptest::collection::vec(
        (
            0..shape_pool().len(),
            any::<bool>(),
            1u64..50,
            1u64..1_000_000,
            any::<bool>(),
        ),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Record → save → load: totals and the decayed ranking survive the
    /// restart exactly; a recalibrated machine discards the snapshot.
    #[test]
    fn telemetry_round_trips_and_rejects_stale_snapshots(history in history_strategy()) {
        let pool = shape_pool();
        let machine = MachineConfig::apple_m4();
        let telemetry = TelemetryRegistry::for_machine(&machine);
        for &(i, sme, requests, cycles, advance) in &history {
            let backend = if sme { Backend::Sme } else { Backend::Neon };
            telemetry.record_group(&pool[i], backend, requests, cycles as f64, sme);
            if advance {
                telemetry.advance_epoch();
            }
        }

        let loaded = TelemetryRegistry::from_json(&telemetry.to_json())
            .expect("snapshots always parse back");
        prop_assert_eq!(loaded.total_requests(), telemetry.total_requests());
        prop_assert_eq!(loaded.len(), telemetry.len());
        prop_assert_eq!(
            FingerprintCheck::of(loaded.machine_fingerprint(), &machine),
            FingerprintCheck::Match
        );
        // The decayed ranking — the pretuner's input — is preserved
        // shape-for-shape.
        let before: Vec<AnyGemmConfig> =
            telemetry.top_shapes(usize::MAX).iter().map(|s| s.config).collect();
        let after: Vec<AnyGemmConfig> =
            loaded.top_shapes(usize::MAX).iter().map(|s| s.config).collect();
        prop_assert_eq!(before, after);
        // Raw per-shape counters survive exactly; decayed values survive
        // up to float round-off.
        for stats in telemetry.top_shapes(usize::MAX) {
            let restored = loaded.shape(&stats.config).expect("shape survives");
            prop_assert_eq!(restored.requests, stats.requests);
            prop_assert_eq!(restored.cycles, stats.cycles);
            prop_assert!((restored.decayed_cycles - stats.decayed_cycles).abs()
                <= 1e-9 * stats.decayed_cycles.max(1.0));
        }

        // A recalibrated machine must not trust the snapshot.
        let path = std::env::temp_dir().join(format!(
            "sme_router_serving_proptest_{}.json",
            std::process::id()
        ));
        telemetry.save(&path).expect("snapshot writes");
        let mut recalibrated = MachineConfig::apple_m4();
        recalibrated.p_core.clock_ghz += 0.25;
        let discarded = TelemetryRegistry::load_recovered(&path, &recalibrated);
        let _ = std::fs::remove_file(&path);
        let mismatched = matches!(discarded.check, FingerprintCheck::Mismatch { .. });
        prop_assert!(mismatched, "expected a fingerprint mismatch");
        prop_assert!(discarded.registry.is_empty(), "stale snapshots load as empty");
    }
}
