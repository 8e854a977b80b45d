//! End-to-end chaos smoke: the CI serving trace under the seeded fault
//! schedule, asserted in-process.
//!
//! This test deliberately lives alone in its own integration-test binary:
//! the fault injector is process-global, so nothing else in the same
//! process may dispatch through `GemmService` while the schedule is
//! armed. Keep it that way — a second `#[test]` here would race the
//! occurrence counters and turn the schedule nondeterministic.

use sme_bench::{chaos_run, ServingTraceOptions};

#[test]
fn chaos_smoke_trace_completes_bit_correct() {
    let args = ["--smoke", "--chaos", "--chaos-seed", "5"]
        .iter()
        .map(|s| s.to_string());
    let opts = ServingTraceOptions::parse(args).expect("chaos flags parse");
    let dir = std::env::temp_dir().join(format!("sme_chaos_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let run = chaos_run(&opts, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let report = run.expect("chaos run completes").report;

    assert_eq!(
        report.failed_requests, 0,
        "no request may be dropped under the chaos schedule: {report:?}"
    );
    assert!(report.bit_correct, "degraded outputs diverged: {report:?}");
    assert!(
        report.distinct_fault_kinds >= 4,
        "schedule only exercised {} fault kind(s): {:?}",
        report.distinct_fault_kinds,
        report.fault_events
    );
    assert!(
        report.plans_recovered > 0 && report.plan_restore_source.as_deref() == Some("backup"),
        "restart must restore tuned plans from the previous generation: {report:?}"
    );
    // The injected telemetry read fault fires at the restart, not at the
    // first restore, where no snapshot exists yet.
    assert_eq!(report.telemetry_restore_source.as_deref(), Some("backup"));
    assert!(report.tick_failures > 0, "daemon faults never fired");
    assert!(report.passed, "overall verdict failed: {report:?}");
}
