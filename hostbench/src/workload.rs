//! The three workloads and their untraced, closed-loop runner.
//!
//! One client thread sends the next top-level call — `Router::dispatch`
//! of a batch, or `Router::tune_any` of a shape — only after the previous
//! one returned. Only those calls are timed; input generation, the
//! correctness gate, snapshot priming and every fsync'd write happen
//! outside the timed intervals, which are reported as calibrated host time
//! (see [`crate::calib`]). A run replays its seeded *pass* until the timed
//! calls add up to `--seconds` of wall time and the latency sample supports
//! p90.
//! Every pass starts with a restart — a fresh router, yesterday's snapshots
//! restored, a warm-up batch — so set-up is sampled across the whole run
//! (`setup_s` is the median), every pass starts from the same state, the
//! simulated metrics of the first pass are the run's, and later passes must
//! reproduce them exactly.

use crate::calib::Calibrator;
use crate::gen;
use crate::oracle::Oracle;
use accel_ref::AccelerateSgemm;
use sme_gemm::{default_any_candidate, generate_any_routed, AnyGemmConfig, Backend, GemmConfig};
use sme_machine::{CoreKind, MachineConfig, RunOptions, Simulator};
use sme_router::{PretuneDaemon, PretuneDaemonConfig, RoutedBatchReport, Router};
use sme_runtime::{GemmRequest, PlanStore, TuneOutcome, TunedRecord, TunerOptions};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Traced restarts before the traced pass (their median is the restore
/// time the traced run reports).
pub const TRACE_RESTARTS: usize = 5;

/// Fewest timed calls a run may end with: p90 needs ten samples beyond it.
pub const MIN_SAMPLES: usize = 110;

/// A run stops starting new passes after this much wall time, so it ends
/// well inside the 180 s a run is allowed.
pub const WALL_CAP_S: f64 = 120.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeSteady,
    ServeChurn,
    TuneSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeSteady,
        Workload::ServeChurn,
        Workload::TuneSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSteady => "serve_steady",
            Workload::ServeChurn => "serve_churn",
            Workload::TuneSweep => "tune_sweep",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One pass of top-level calls.
#[derive(Debug, Clone, PartialEq)]
pub enum Calls {
    Batches(Vec<Vec<GemmRequest>>),
    Tunes(Vec<GemmRequest>),
}

impl Calls {
    pub fn len(&self) -> usize {
        match self {
            Calls::Batches(b) => b.len(),
            Calls::Tunes(t) => t.len(),
        }
    }
}

/// Everything a workload runs, generated from its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub workload: Workload,
    /// Kernel-cache capacity of every router the workload builds.
    pub cache_capacity: usize,
    /// Dispatched at the end of every restart (part of set-up).
    pub warmup: Vec<GemmRequest>,
    pub pass: Calls,
    /// Hot shapes the priming daemon tunes ("yesterday's" top N).
    pub pretune_top_n: usize,
    /// Yesterday's traffic, dispatched before the priming daemon tick.
    pub yesterday: Vec<Vec<GemmRequest>>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        match workload {
            Workload::ServeSteady => {
                let inputs = gen::steady(seed, 12);
                Plan {
                    workload,
                    // Every hot kernel and its Neon alternative stays
                    // resident whatever the shard hashing does.
                    cache_capacity: 256,
                    warmup: inputs.batches[0].clone(),
                    yesterday: inputs.batches[..2].to_vec(),
                    pass: Calls::Batches(inputs.batches),
                    pretune_top_n: inputs.hot.len(),
                }
            }
            Workload::ServeChurn => {
                let inputs = gen::churn(seed, 24, 8);
                // The pool's four most popular shapes (yesterday's traffic
                // covered them), one request each, with fresh operands.
                let warmup = inputs.pool[..4]
                    .iter()
                    .zip(&inputs.batches[0])
                    .map(|(&config, request)| GemmRequest {
                        config,
                        seed: !request.seed,
                    })
                    .collect();
                Plan {
                    workload,
                    // The pool holds 48 shapes (up to 96 kernels with the
                    // Neon alternatives): several times this capacity.
                    cache_capacity: 16,
                    warmup,
                    pass: Calls::Batches(inputs.batches),
                    pretune_top_n: 4,
                    yesterday: inputs.yesterday,
                }
            }
            Workload::TuneSweep => Plan {
                workload,
                cache_capacity: 64,
                warmup: Vec::new(),
                pass: Calls::Tunes(gen::tune_sweep(seed)),
                pretune_top_n: 0,
                yesterday: Vec::new(),
            },
        }
    }
}

/// Where a run keeps its snapshots (removed when the run ends).
#[derive(Debug)]
pub struct StateDir(pub PathBuf);

impl StateDir {
    pub fn create(root: &Path, workload: Workload, seed: u64) -> Result<StateDir, String> {
        let dir = root.join(format!("{}-{seed}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(StateDir(dir))
    }

    pub fn daemon(&self, top_n: usize) -> PretuneDaemon {
        PretuneDaemon::new(PretuneDaemonConfig {
            top_n,
            tuner: TunerOptions::quick(),
            telemetry_path: self.0.join("telemetry.json"),
            store_path: self.0.join("plans.json"),
        })
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Write yesterday's snapshots (untimed): for the serving workloads,
/// yesterday's traffic followed by one pretune-daemon tick, which tunes
/// the hot set and persists telemetry and plans with fsync'd saves; for
/// `tune_sweep`, a large plan store of shapes today's sweep never tunes.
pub fn prime(plan: &Plan, state: &StateDir) -> Result<(), String> {
    let daemon = state.daemon(plan.pretune_top_n);
    if plan.workload == Workload::TuneSweep {
        let mut store = PlanStore::for_machine(&MachineConfig::apple_m4());
        // Yesterday's winners are the default plans; their cycle fields
        // only need to be plausible, nothing reads them back.
        for shape in gen::yesterday_store_shapes() {
            let cycles = shape.flops() as f64 / 64.0;
            let record = TunedRecord {
                candidate: default_any_candidate(&shape),
                tuned_cycles: cycles,
                default_cycles: cycles,
            };
            store.insert_any(&shape, record);
        }
        return store
            .save(&daemon.config().store_path)
            .map_err(|e| format!("prime plan store: {e}"));
    }
    let yesterday = Router::new(plan.cache_capacity);
    for batch in &plan.yesterday {
        yesterday
            .dispatch(batch)
            .map_err(|e| format!("prime dispatch: {e}"))?;
    }
    daemon
        .tick(&yesterday)
        .map(|_| ())
        .map_err(|e| format!("prime tick: {e}"))
}

/// A restart: a fresh router, yesterday's snapshots restored into it, and
/// the warm-up batch dispatched. Returns the router, the set-up seconds
/// and the warm-up report (checked by the caller, outside the timing).
pub fn restart(
    plan: &Plan,
    state: &StateDir,
) -> Result<(Router, f64, Option<RoutedBatchReport>), String> {
    let started = Instant::now();
    let router = Router::new(plan.cache_capacity);
    state
        .daemon(plan.pretune_top_n)
        .restore(&router)
        .map_err(|e| format!("restore: {e}"))?;
    let warm = if plan.warmup.is_empty() {
        None
    } else {
        Some(
            router
                .dispatch(&plan.warmup)
                .map_err(|e| format!("warm-up dispatch: {e}"))?,
        )
    };
    let setup = started.elapsed().as_secs_f64();
    Ok((router, setup, warm))
}

/// Check every output of a dispatched batch.
pub fn check_batch(oracle: &mut Oracle, requests: &[GemmRequest], report: &RoutedBatchReport) {
    for failure in &report.batch.failures {
        eprintln!("error: request {} failed: {}", failure.index, failure.error);
    }
    for (request, output) in requests.iter().zip(&report.batch.outputs) {
        oracle.check(request, output);
    }
}

/// Check a tuned winner once: regenerate it, run it functionally on the
/// request's operands and compare against the oracle.
pub fn check_winner(oracle: &mut Oracle, request: &GemmRequest, outcome: &TuneOutcome) {
    match generate_any_routed(&request.config, &outcome.winner) {
        Ok(kernel) => {
            let mut sim = Simulator::m4_performance();
            let bufs = kernel.allocate_buffers(&mut sim, Some(request.seed));
            kernel.run(&mut sim, bufs, &RunOptions::functional_only());
            let output = sim.mem.read_f32_slice(bufs.c, kernel.c_len());
            oracle.check(request, &output);
        }
        Err(e) => oracle.fail(request, &format!("winner does not compile: {e}")),
    }
}

/// Performance-core clock of the modelled M4, in Hz.
pub fn clock_hz() -> f64 {
    MachineConfig::apple_m4()
        .core(CoreKind::Performance)
        .clock_ghz
        * 1e9
}

/// Simulated totals of one pass (deterministic for a seed).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTotals {
    /// Nominal flops served (or of the tuned shapes).
    pub flops: f64,
    /// Placed batch makespans (serving) or winners' single-core time
    /// (tuning), simulated seconds.
    pub seconds: f64,
    /// `accel-ref` vendor-model seconds of the FP32 requests.
    pub accel_seconds: f64,
    /// Simulated seconds of the served (or tuned) FP32 kernels.
    pub fp32_seconds: f64,
}

impl SimTotals {
    pub fn gflops(&self) -> f64 {
        self.flops / self.seconds / 1e9
    }

    pub fn speedup_vs_accel(&self) -> f64 {
        self.accel_seconds / self.fp32_seconds
    }
}

/// `accel-ref` model seconds per FP32 shape, memoized (computed outside
/// the timed intervals).
#[derive(Debug, Default)]
pub struct AccelModel(HashMap<GemmConfig, f64>);

impl AccelModel {
    pub fn seconds(&mut self, cfg: &GemmConfig) -> Result<f64, String> {
        if let Some(&s) = self.0.get(cfg) {
            return Ok(s);
        }
        let s = AccelerateSgemm::new(*cfg)
            .model_seconds()
            .map_err(|e| format!("accel-ref model of {cfg}: {e}"))?;
        self.0.insert(*cfg, s);
        Ok(s)
    }

    /// Fold one dispatched batch into `totals`.
    pub fn add_batch(
        &mut self,
        totals: &mut SimTotals,
        report: &RoutedBatchReport,
    ) -> Result<(), String> {
        let hz = clock_hz();
        totals.flops += report.batch.total_flops() as f64;
        totals.seconds += report.placement.makespan_cycles() / hz;
        for group in &report.batch.per_config {
            if let AnyGemmConfig::Fp32(cfg) = &group.config {
                totals.fp32_seconds += group.stats.cycles / hz;
                totals.accel_seconds += group.requests as f64 * self.seconds(cfg)?;
            }
        }
        Ok(())
    }

    /// Fold one tuned shape into `totals`.
    pub fn add_tune(
        &mut self,
        totals: &mut SimTotals,
        cfg: &AnyGemmConfig,
        outcome: &TuneOutcome,
    ) -> Result<(), String> {
        let seconds = outcome.tuned_cycles / clock_hz();
        totals.flops += cfg.flops() as f64;
        totals.seconds += seconds;
        if let AnyGemmConfig::Fp32(c) = cfg {
            totals.fp32_seconds += seconds;
            totals.accel_seconds += self.seconds(c)?;
        }
        Ok(())
    }
}

/// What one call's simulated result must reproduce on every pass.
fn batch_signature(report: &RoutedBatchReport) -> Vec<u64> {
    let mut sig = vec![
        report.placement.makespan_cycles().to_bits(),
        report.isolated.makespan_cycles().to_bits(),
        report.rerouted.len() as u64,
    ];
    for group in &report.batch.per_config {
        sig.push(group.stats.cycles.to_bits());
        sig.push(matches!(group.backend, Backend::Neon) as u64);
    }
    sig
}

fn tune_signature(outcome: &TuneOutcome) -> Vec<u64> {
    vec![
        outcome.tuned_cycles.to_bits(),
        outcome.default_cycles.to_bits(),
        outcome.candidates_tried as u64,
        outcome.candidates_pruned as u64,
    ]
}

/// Deterministic counts of one pass (repeat exactly for a seed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassCounts {
    pub calls: u64,
    pub requests: u64,
    pub groups: u64,
    pub rerouted: u64,
    pub candidates_tried: u64,
    pub candidates_pruned: u64,
    pub wins: u64,
}

/// The measured result of an untraced run. Host times are calibrated
/// (see [`crate::calib`]); the `wall_` fields keep the raw wall clock.
#[derive(Debug, Default)]
pub struct Outcome {
    pub latencies_ms: Vec<f64>,
    pub wall_latencies_ms: Vec<f64>,
    pub requests: u64,
    pub timed_s: f64,
    pub wall_timed_s: f64,
    pub setup_s: Vec<f64>,
    pub wall_setup_s: Vec<f64>,
    pub sim: SimTotals,
    pub counts: PassCounts,
    pub passes: u64,
    /// The process's peak resident memory after the first pass, in MiB.
    /// Later passes repeat the same work and add only allocator drift (up
    /// to 1 MiB over a 30 s run, depending on how many passes fit).
    pub peak_rss_mb: f64,
    pub oracle: Oracle,
    /// Determinism violations (a later pass diverged from the first).
    pub diverged: u64,
}

impl Outcome {
    /// Record one timed call of `requests` requests.
    fn record(&mut self, wall_s: f64, calibrated_s: f64, requests: u64) {
        self.latencies_ms.push(calibrated_s * 1e3);
        self.wall_latencies_ms.push(wall_s * 1e3);
        self.timed_s += calibrated_s;
        self.wall_timed_s += wall_s;
        self.requests += requests;
    }
}

/// Run one workload untraced until its timed calls add up to `seconds`
/// and number at least `min_samples` (see the module docs). The caller
/// primes `state` first.
pub fn run(
    plan: &Plan,
    state: &StateDir,
    seconds: f64,
    min_samples: usize,
) -> Result<Outcome, String> {
    let wall = Instant::now();
    let mut out = Outcome::default();
    let mut accel = AccelModel::default();
    let mut signatures: Vec<Vec<u64>> = Vec::new();
    loop {
        let mut calibrator = Calibrator::start();
        let (router, setup, warm) = restart(plan, state)?;
        out.setup_s.push(calibrator.scale(setup));
        out.wall_setup_s.push(setup);
        if let Some(warm) = &warm {
            check_batch(&mut out.oracle, &plan.warmup, warm);
        }
        let first = out.passes == 0;
        for call in 0..plan.pass.len() {
            let signature = match &plan.pass {
                Calls::Batches(batches) => {
                    let batch = &batches[call];
                    let started = Instant::now();
                    let report = router.dispatch(batch);
                    let elapsed = started.elapsed().as_secs_f64();
                    out.record(elapsed, calibrator.scale(elapsed), batch.len() as u64);
                    let report = report.map_err(|e| format!("dispatch: {e}"))?;
                    check_batch(&mut out.oracle, batch, &report);
                    if first {
                        accel.add_batch(&mut out.sim, &report)?;
                        out.counts.calls += 1;
                        out.counts.requests += batch.len() as u64;
                        out.counts.groups += report.batch.per_config.len() as u64;
                        out.counts.rerouted += report.rerouted.len() as u64;
                    }
                    batch_signature(&report)
                }
                Calls::Tunes(shapes) => {
                    let request = &shapes[call];
                    let started = Instant::now();
                    let outcome = router.tune_any(&request.config, &TunerOptions::default());
                    let elapsed = started.elapsed().as_secs_f64();
                    out.record(elapsed, calibrator.scale(elapsed), 1);
                    let outcome = outcome.map_err(|e| format!("tune {}: {e}", request.config))?;
                    if first {
                        check_winner(&mut out.oracle, request, &outcome);
                        accel.add_tune(&mut out.sim, &request.config, &outcome)?;
                        out.counts.calls += 1;
                        out.counts.requests += 1;
                        out.counts.candidates_tried += outcome.candidates_tried as u64;
                        out.counts.candidates_pruned += outcome.candidates_pruned as u64;
                        out.counts.wins += is_win(&outcome) as u64;
                    }
                    tune_signature(&outcome)
                }
            };
            if first {
                signatures.push(signature);
            } else if signatures[call] != signature {
                out.diverged += 1;
                eprintln!(
                    "error: pass {} call {call} diverged from pass 0",
                    out.passes
                );
            }
        }
        if first {
            out.peak_rss_mb = peak_rss_mb()?;
        }
        out.passes += 1;
        let enough = out.wall_timed_s >= seconds && out.latencies_ms.len() >= min_samples;
        if enough || wall.elapsed().as_secs_f64() > WALL_CAP_S {
            return Ok(out);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A tuned winner that beats the default plan by at least 1 %.
pub fn is_win(outcome: &TuneOutcome) -> bool {
    outcome.tuned_cycles <= 0.99 * outcome.default_cycles
}

/// `workload`'s plan cut down to a few requests, so tests stay fast in a
/// debug build.
#[cfg(test)]
pub fn shortened(workload: Workload, seed: u64) -> Plan {
    let mut plan = Plan::new(workload, seed);
    plan.warmup.truncate(2);
    for batch in &mut plan.yesterday {
        batch.truncate(4);
    }
    match &mut plan.pass {
        Calls::Batches(batches) => {
            batches.truncate(1);
            batches[0].truncate(6);
        }
        Calls::Tunes(shapes) => shapes.truncate(2),
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_repeats_its_requests_simulated_metrics_and_counts() {
        let root = std::env::temp_dir().join(format!("hostbench-test-{}", std::process::id()));
        for workload in Workload::ALL {
            assert_eq!(shortened(workload, 42), shortened(workload, 42));
            let runs: Vec<(SimTotals, PassCounts)> = (0..2)
                .map(|_| {
                    let plan = shortened(workload, 42);
                    let state = StateDir::create(&root, workload, 42).expect("state dir");
                    prime(&plan, &state).expect("priming");
                    let out = run(&plan, &state, 0.0, plan.pass.len() + 1).expect("run");
                    assert_eq!(out.oracle.failed, 0, "{}: wrong outputs", workload.name());
                    assert_eq!(out.diverged, 0, "{}: passes diverged", workload.name());
                    assert!(out.passes >= 2 && out.setup_s.len() as u64 == out.passes);
                    (out.sim, out.counts)
                })
                .collect();
            assert_eq!(runs[0], runs[1], "{}", workload.name());
            assert!(runs[0].0.flops > 0.0 && runs[0].0.fp32_seconds > 0.0);
        }
        let _ = std::fs::remove_dir_all(root);
    }
}
