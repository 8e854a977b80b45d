//! Workspace-level fault-tolerance integration: the three degradation
//! ladders — poisoned locks recovered with data intact, corrupt snapshots
//! restored from the previous `.bak` generation, and a panicking dispatch
//! group retried on the fallback backend — exercised end-to-end across
//! crate boundaries.
//!
//! The injector-driven test is the only one here that dispatches through
//! `GemmService`; the fault rules target SME dispatch sites only, so the
//! other tests' snapshot I/O never matches a rule even though the
//! process-global injector is armed while they run.

use std::sync::{Arc, Mutex};

use sme_gemm::{Backend, GemmConfig};
use sme_machine::MachineConfig;
use sme_router::TelemetryRegistry;
use sme_runtime::fault::{self, FaultKind, FaultPlan, FaultRule, SitePattern};
use sme_runtime::{GemmRequest, GemmService, PlanStore, SnapshotSource};

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sme_fault_tol_{}_{}", name, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Truncate a snapshot to half its bytes: the checksum trailer (or the
/// JSON parse) must reject it.
fn tear(path: &std::path::Path) {
    let bytes = std::fs::read(path).expect("read snapshot");
    std::fs::write(path, &bytes[..bytes.len() / 2]).expect("tear snapshot");
}

const PLAN_DOC: &str = r#"{"version": 4, "entries": [{"dtype": "Fp32", "m": 48, "n": 48,
    "k": 16, "lda": 48, "ldb": 48, "ldc": 48, "b_layout": "RowMajor", "beta": "One",
    "backend": "Sme", "plan": "Homogeneous16x64", "c_transfer": "Direct", "k_unroll": 2,
    "schedule": "Serial", "tuned_cycles": 100, "default_cycles": 150}]}"#;

#[test]
fn poisoned_lock_recovers_with_data_intact() {
    let shared = Arc::new(Mutex::new(vec![1, 2, 3]));
    let clone = Arc::clone(&shared);
    let _ = std::thread::spawn(move || {
        let _guard = clone.lock().unwrap();
        panic!("poison the shared state");
    })
    .join();
    assert!(shared.is_poisoned(), "the panicking thread must poison");

    let before = sme_runtime::poison::recovered_total();
    let guard = sme_runtime::poison::lock(&shared, "integration shared state");
    assert_eq!(*guard, vec![1, 2, 3], "recovery must keep the data");
    drop(guard);
    assert!(!shared.is_poisoned(), "recovery must clear the poison flag");
    assert!(
        sme_runtime::poison::recovered_total() > before,
        "the recovery must be counted"
    );
}

#[test]
fn corrupt_plan_store_recovers_previous_generation() {
    let dir = scratch_dir("plans");
    let path = dir.join("plans.json");
    let machine = MachineConfig::apple_m4();

    let generation_one = PlanStore::from_json(PLAN_DOC).expect("fixture parses");
    generation_one.save(&path).expect("first save");
    let generation_two =
        PlanStore::from_json(&PLAN_DOC.replace("\"tuned_cycles\": 100", "\"tuned_cycles\": 90"))
            .expect("fixture parses");
    generation_two.save(&path).expect("second save");

    tear(&path);
    let recovered = PlanStore::load_recovered(&path, &machine);
    assert_eq!(recovered.source, SnapshotSource::Backup);
    assert_eq!(
        recovered.store, generation_one,
        "recovery must restore the previous generation, not an empty store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_telemetry_recovers_previous_generation() {
    let dir = scratch_dir("telemetry");
    let path = dir.join("telemetry.json");
    let machine = MachineConfig::apple_m4();

    let registry = TelemetryRegistry::for_machine(&machine);
    registry.record_group(
        &GemmConfig::abt(64, 64, 32).into(),
        Backend::Sme,
        4,
        1000.0,
        true,
    );
    registry.advance_epoch();
    registry.save(&path).expect("first save");
    registry.record_group(
        &GemmConfig::abt(48, 48, 16).into(),
        Backend::Neon,
        2,
        500.0,
        true,
    );
    registry.advance_epoch();
    registry.save(&path).expect("second save");

    tear(&path);
    let recovered = TelemetryRegistry::load_recovered(&path, &machine);
    assert_eq!(recovered.source, SnapshotSource::Backup);
    assert_eq!(
        recovered.registry.len(),
        1,
        "recovery must restore the one-shape previous generation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_group_degrades_to_fallback_without_dropping_the_batch() {
    let plan = Arc::new(FaultPlan::with_rules(
        0,
        vec![FaultRule {
            kind: FaultKind::GroupPanic,
            pattern: SitePattern::Contains(":Sme:".to_string()),
            occurrence: 1,
        }],
    ));
    fault::install_injector(plan.clone());

    let service = GemmService::new(64);
    let sme_shape = GemmConfig::abt(64, 64, 32);
    let neon_shape = GemmConfig::abt(16, 4, 16);
    let requests: Vec<GemmRequest> = vec![
        GemmRequest {
            config: sme_shape.into(),
            seed: 11,
        },
        GemmRequest {
            config: neon_shape.into(),
            seed: 12,
        },
    ];
    let route = |config: &sme_gemm::AnyGemmConfig| {
        if *config == sme_shape.into() {
            Backend::Sme
        } else {
            Backend::Neon
        }
    };
    let report = service
        .dispatch_routed(&requests, route)
        .expect("batch dispatches");
    fault::clear_injector();

    assert!(
        report.failures.is_empty(),
        "the panicking group must not drop any request: {:?}",
        report.failures
    );
    assert_eq!(report.outputs.len(), 2);
    assert!(report.outputs.iter().all(|o| !o.is_empty()));

    let degraded: Vec<_> = report
        .per_config
        .iter()
        .filter(|c| c.fallback_from.is_some())
        .collect();
    assert_eq!(degraded.len(), 1, "exactly the SME group degrades");
    assert_eq!(degraded[0].fallback_from, Some(Backend::Sme));
    assert_eq!(degraded[0].backend, Backend::Neon);
    assert_eq!(
        plan.events().len(),
        1,
        "the schedule fired exactly its one rule"
    );

    // The degraded output is bit-identical to a clean Neon dispatch of the
    // same request — fallback is a routing change, not a numeric one.
    let clean = service
        .dispatch_routed(&requests[..1], |_| Backend::Neon)
        .expect("clean reference dispatches");
    assert_eq!(report.outputs[0], clean.outputs[0]);
}
