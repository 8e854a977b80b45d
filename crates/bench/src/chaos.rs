//! The chaos harness behind `serving --chaos`: drive the full serving
//! trace under a *seeded, deterministic* fault schedule and prove that
//! every request still completes **bit-correct**.
//!
//! The schedule ([`sme_runtime::FaultPlan::chaos`]) injects five kinds of
//! fault over one run: a telemetry snapshot save that fails mid-run, a
//! telemetry snapshot *read* that fails at the restart restore, a daemon
//! tick that errors outright, and — for every SME-routed dispatch group —
//! one forced compile failure and one forced mid-execution panic. On top
//! of those hook-driven faults the harness itself truncates the plan
//! store's primary generation on disk before the simulated restart, so the
//! restore has to serve tuned state from the `.bak` previous generation.
//!
//! The run *passes* only if:
//!
//! * **zero requests were dropped** — every injected group fault degraded
//!   to the fallback backend instead of failing the request;
//! * every completed request's output is **bit-identical** to a clean
//!   (fault-free) dispatch of the same request on the same backend;
//! * the restart restore recovered the tuned plans from the previous
//!   on-disk generation (not an empty store), and the first post-restart
//!   batch was still served entirely from warm cache;
//! * at least four distinct fault kinds actually fired (the schedule is
//!   only exercising recovery if the faults really happened).
//!
//! The [`ChaosReport`] is the `BENCH_chaos.json` artifact CI publishes:
//! the seed, every fault event in firing order, and the degradation
//! outcomes the faults were absorbed by.

use serde::Serialize;
use sme_gemm::{AnyGemmConfig, Backend};
use sme_router::{PretuneDaemon, PretuneDaemonConfig, Router};
use sme_runtime::fault::{clear_injector, install_injector, FaultKind, FaultPlan};
use sme_runtime::{GemmRequest, GemmService, SnapshotSource};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use crate::ServingTraceOptions;

/// One fault that fired during the chaos run (the JSON form of
/// [`sme_runtime::FaultEvent`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosFaultRecord {
    /// The fault kind's stable snake-case name.
    pub kind: String,
    /// The site it fired at (snapshot path, dispatch-group label,
    /// `daemon.tick`).
    pub site: String,
    /// The per-`(kind, site)` occurrence count when it fired.
    pub occurrence: u64,
}

/// The `BENCH_chaos.json` artifact: what was injected, what degraded, and
/// whether every request survived bit-correct.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosReport {
    /// The deterministic schedule's seed (replay with `--chaos-seed`).
    pub seed: u64,
    /// Requests dispatched across the whole run, restart included.
    pub total_requests: usize,
    /// Requests that completed (produced an output buffer).
    pub completed_requests: usize,
    /// Requests reported as per-request failures — **must be 0 to pass**:
    /// the schedule only injects faults with a live fallback rung.
    pub failed_requests: usize,
    /// Dispatch groups that were served by their fallback backend after
    /// the routed backend failed (the degradation ladder's first rung).
    pub degraded_groups: usize,
    /// Completed requests whose output differed from a clean re-run on
    /// the same backend — **must be 0 to pass**.
    pub mismatched_requests: usize,
    /// `true` when every completed request was bit-identical to its
    /// fault-free reference.
    pub bit_correct: bool,
    /// Daemon ticks that failed (injected tick faults and injected
    /// snapshot-save faults land here) — tolerated, counted, retried.
    pub tick_failures: usize,
    /// Every fault that fired, in firing order.
    pub fault_events: Vec<ChaosFaultRecord>,
    /// How many distinct fault kinds fired (the pass bar is ≥ 4).
    pub distinct_fault_kinds: usize,
    /// Which on-disk generation served the telemetry snapshot at the
    /// restart restore (`backup` = recovered from `.bak`).
    pub telemetry_restore_source: Option<String>,
    /// Which on-disk generation served the plan store at the restart
    /// restore — `backup` expected, since the harness truncates the
    /// primary.
    pub plan_restore_source: Option<String>,
    /// Tuned winners recovered at the restart restore — must be non-zero:
    /// corruption recovery means the *previous generation*, not starting
    /// empty.
    pub plans_recovered: usize,
    /// Cache hit rate of the first post-restart batch (must stay 1.0: the
    /// recovered previous-generation plans still warm the cache fully).
    pub restart_hit_rate: f64,
    /// Lock-poison recoveries observed process-wide during the run.
    pub lock_poison_recoveries: u64,
    /// The overall verdict (the binary exits non-zero when `false`).
    pub passed: bool,
}

/// A completed chaos run: the report plus the observability hub, so the
/// binary can still write `--metrics` / `--trace` artifacts of the run.
#[derive(Debug)]
pub struct ChaosRun {
    /// The verdict and fault log (the `--chaos-json` artifact).
    pub report: ChaosReport,
    /// The run's shared observability hub.
    pub hub: Arc<sme_obs::ObsHub>,
}

/// What one chaos batch contributed to the run totals.
struct ChaosBatch {
    total: usize,
    failed: usize,
    degraded: usize,
    hit_rate: f64,
}

/// Every completed request's observed output, keyed for later clean
/// re-verification: the reference dispatch must run *after* the injector
/// is cleared, or it would consume (and suffer) scheduled faults itself.
struct Observed {
    request: GemmRequest,
    backend: Backend,
    output: Vec<f32>,
}

fn chaos_dispatch(
    router: &Router,
    shapes: &[AnyGemmConfig],
    requests: usize,
    observed: &mut Vec<Observed>,
) -> Result<ChaosBatch, String> {
    let reqs: Vec<GemmRequest> = shapes
        .iter()
        .enumerate()
        .flat_map(|(i, &config)| {
            (0..requests).map(move |_| GemmRequest {
                config,
                seed: (1000 + i * 17) as u64,
            })
        })
        .collect();
    let before = router.cache().stats();
    let report = router
        .dispatch(&reqs)
        .map_err(|e| format!("dispatch: {e}"))?;
    let after = router.cache().stats();
    let batch = &report.batch;
    let backend_of: HashMap<AnyGemmConfig, Backend> = batch
        .per_config
        .iter()
        .map(|group| (group.config, group.backend))
        .collect();
    let failed: HashSet<usize> = batch.failures.iter().map(|f| f.index).collect();
    for (i, request) in reqs.iter().enumerate() {
        if failed.contains(&i) {
            continue;
        }
        let backend = *backend_of
            .get(&request.config)
            .expect("completed requests have a per-config report");
        observed.push(Observed {
            request: *request,
            backend,
            output: batch.outputs[i].clone(),
        });
    }
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    Ok(ChaosBatch {
        total: reqs.len(),
        failed: failed.len(),
        degraded: batch.degraded_groups(),
        hit_rate: if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    })
}

/// Drive the serving trace under the seeded chaos schedule (see the module
/// docs), persisting daemon state into `dir`. Installs the fault injector
/// on the calling thread for the duration of the run and always clears it
/// again; the run drives every fault site from that thread or from the
/// service workers it dispatches to.
pub fn chaos_run(opts: &ServingTraceOptions, dir: &Path) -> Result<ChaosRun, String> {
    let plan = Arc::new(FaultPlan::chaos(opts.chaos_seed));
    // Injected group panics are expected and caught; keep their backtrace
    // spray out of the run's stderr while leaving real panics loud.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !message.contains("sme-fault-injected") {
            previous_hook(info);
        }
    }));
    install_injector(plan.clone());
    let result = chaos_run_inner(opts, dir, &plan);
    clear_injector();
    // Drop the filtering hook (this reinstates the default hook; the saved
    // previous hook lived inside the filter and is released with it).
    let _ = std::panic::take_hook();
    let (mut run, observed) = result?;
    verify_bit_correct(&mut run.report, &observed);
    run.report.passed = run.report.failed_requests == 0
        && run.report.bit_correct
        && run.report.restart_hit_rate >= 1.0
        && run.report.distinct_fault_kinds >= 4
        && run.report.plans_recovered > 0
        && run.report.plan_restore_source.as_deref() == Some("backup");
    Ok(run)
}

fn chaos_run_inner(
    opts: &ServingTraceOptions,
    dir: &Path,
    plan: &FaultPlan,
) -> Result<(ChaosRun, Vec<Observed>), String> {
    let yesterday = crate::serving_yesterday_shapes();
    let today = crate::serving_today_shapes();
    let mut config = PretuneDaemonConfig::in_dir(dir);
    config.top_n = yesterday.len() + today.len();
    let daemon = PretuneDaemon::new(config);

    let hub = sme_obs::ObsHub::shared(opts.trace_capacity);
    let router = Router::new(256);
    router.attach_obs(hub.clone());
    daemon
        .restore(&router)
        .map_err(|e| format!("restore: {e}"))?;

    let mut observed = Vec::new();
    let mut total_requests = 0;
    let mut failed_requests = 0;
    let mut degraded_groups = 0;
    let mut tick_failures = 0;
    let tick = |router: &Router, failures: &mut usize| match daemon.tick(router) {
        Ok(_) => {}
        Err(e) => {
            *failures += 1;
            eprintln!("chaos: tolerated tick failure: {e}");
        }
    };

    for _ in 0..opts.warm_batches {
        let batch = chaos_dispatch(&router, &yesterday, opts.requests, &mut observed)?;
        total_requests += batch.total;
        failed_requests += batch.failed;
        degraded_groups += batch.degraded;
        tick(&router, &mut tick_failures);
    }
    for _ in 0..opts.shifted_batches {
        let batch = chaos_dispatch(&router, &today, opts.requests, &mut observed)?;
        total_requests += batch.total;
        failed_requests += batch.failed;
        degraded_groups += batch.degraded;
        tick(&router, &mut tick_failures);
    }

    // The harness's own fault: tear the plan store's primary generation in
    // half on disk, as a crash mid-rewrite would. The restart restore must
    // detect the damage and serve the `.bak` previous generation.
    let plans_path = daemon.config().store_path.clone();
    let bytes =
        std::fs::read(&plans_path).map_err(|e| format!("read {}: {e}", plans_path.display()))?;
    std::fs::write(&plans_path, &bytes[..bytes.len() / 2])
        .map_err(|e| format!("truncate {}: {e}", plans_path.display()))?;
    plan.record_external(FaultKind::SnapshotCorrupt, &plans_path.to_string_lossy());

    // Simulated restart under fire: the telemetry primary read fails
    // (injected LoadIo), the plan store primary is torn (above) — both must
    // recover from their previous generations, and today's traffic must
    // still be served entirely from warm cache.
    let restarted = Router::new(256);
    restarted.attach_obs(hub.clone());
    let restore = daemon
        .restore(&restarted)
        .map_err(|e| format!("restore after restart: {e}"))?;
    tick(&restarted, &mut tick_failures);
    let restart_batch = chaos_dispatch(&restarted, &today, opts.requests, &mut observed)?;
    total_requests += restart_batch.total;
    failed_requests += restart_batch.failed;
    degraded_groups += restart_batch.degraded;

    // Surface the schedule in the metrics the README documents: one
    // counter per fault kind, plus the events themselves in the report.
    let events = plan.events();
    let mut per_kind: HashMap<FaultKind, u64> = HashMap::new();
    for event in &events {
        *per_kind.entry(event.kind).or_insert(0) += 1;
    }
    for (kind, count) in &per_kind {
        hub.metrics
            .counter(&format!("sme_fault_{}_total", kind.name()))
            .add(*count);
    }

    if let Some(path) = &opts.trace {
        std::fs::write(path, hub.trace.to_chrome_trace())
            .map_err(|e| format!("write trace {path}: {e}"))?;
    }
    if let Some(path) = &opts.metrics {
        std::fs::write(path, hub.metrics.render_prometheus())
            .map_err(|e| format!("write metrics {path}: {e}"))?;
    }

    let report = ChaosReport {
        seed: plan.seed(),
        total_requests,
        completed_requests: total_requests - failed_requests,
        failed_requests,
        degraded_groups,
        mismatched_requests: 0, // filled by verify_bit_correct
        bit_correct: false,     // filled by verify_bit_correct
        tick_failures,
        fault_events: events
            .iter()
            .map(|e| ChaosFaultRecord {
                kind: e.kind.name().to_string(),
                site: e.site.clone(),
                occurrence: e.occurrence,
            })
            .collect(),
        distinct_fault_kinds: per_kind.len(),
        telemetry_restore_source: restore.telemetry_source.map(source_name),
        plan_restore_source: restore.plan_source.map(source_name),
        plans_recovered: restore.plans,
        restart_hit_rate: restart_batch.hit_rate,
        lock_poison_recoveries: sme_runtime::poison::recovered_total(),
        passed: false, // filled by chaos_run
    };
    Ok((ChaosRun { report, hub }, observed))
}

fn source_name(source: SnapshotSource) -> String {
    source.name().to_string()
}

/// Re-dispatch every distinct `(config, seed, backend)` the chaos run
/// served through a fresh, fault-free service and require every observed
/// output to match the clean reference **bit-for-bit**. Runs after the
/// injector is cleared: same simulator, same operands, same backend —
/// exact equality is the contract, not a tolerance.
fn verify_bit_correct(report: &mut ChaosReport, observed: &[Observed]) {
    let service = GemmService::new(64);
    let mut reference: HashMap<(AnyGemmConfig, u64, Backend), Vec<f32>> = HashMap::new();
    let mut mismatched = 0;
    for entry in observed {
        let key = (entry.request.config, entry.request.seed, entry.backend);
        let clean = reference.entry(key).or_insert_with(|| {
            let clean = service
                .dispatch_routed(std::slice::from_ref(&entry.request), |_| entry.backend)
                .expect("chaos shapes are valid");
            assert!(
                clean.failures.is_empty(),
                "the clean reference dispatch cannot fail: {:?}",
                clean.failures
            );
            clean.outputs[0].clone()
        });
        if *clean != entry.output {
            mismatched += 1;
        }
    }
    report.mismatched_requests = mismatched;
    report.bit_correct = mismatched == 0;
}

/// Render the chaos verdict for the `serving` binary's stdout.
pub fn render_chaos_report(report: &ChaosReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Chaos run (seed {}): {} faults injected across {} kinds",
        report.seed,
        report.fault_events.len(),
        report.distinct_fault_kinds
    );
    for event in &report.fault_events {
        let _ = writeln!(
            out,
            "  fault {:16} occurrence {} at {}",
            event.kind, event.occurrence, event.site
        );
    }
    let _ = writeln!(
        out,
        "  requests: {} total, {} completed, {} failed, {} group(s) degraded to fallback",
        report.total_requests,
        report.completed_requests,
        report.failed_requests,
        report.degraded_groups
    );
    let _ = writeln!(
        out,
        "  ticks tolerated {} failure(s); restart restored plans from {} ({} winner(s)), \
         telemetry from {}; restart hit rate {:.1}%",
        report.tick_failures,
        report.plan_restore_source.as_deref().unwrap_or("-"),
        report.plans_recovered,
        report.telemetry_restore_source.as_deref().unwrap_or("-"),
        100.0 * report.restart_hit_rate
    );
    let _ = writeln!(
        out,
        "  bit-correct: {} ({} mismatch(es)); lock-poison recoveries: {}",
        if report.bit_correct { "yes" } else { "NO" },
        report.mismatched_requests,
        report.lock_poison_recoveries
    );
    let _ = writeln!(
        out,
        "  verdict: {}",
        if report.passed { "PASS" } else { "FAIL" }
    );
    out
}
