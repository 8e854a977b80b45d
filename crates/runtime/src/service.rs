//! The batched dispatch service: mixed-configuration GEMM traffic in, one
//! kernel fetch per distinct configuration, parallel execution out.
//!
//! A [`GemmService`] front-ends the [`KernelCache`]: callers submit a batch
//! of [`GemmRequest`]s with arbitrary (mixed) configurations, the service
//! groups them by configuration, fetches each group's kernel from the cache
//! exactly once, and fans the groups out across host threads via `rayon` —
//! each group executing its requests back to back on a private single-core
//! simulator, the way one core of the machine would serve them. Requests
//! run functional-only: each kernel is timed once, on first use, and every
//! request adds that memoized timing (see [`sme_gemm::OPERAND_ALIGN`] for
//! why this equals a per-request timing run bit for bit).
//! [`ExecStats`] are aggregated per configuration and for the whole batch,
//! and [`BatchReport::makespan_cycles`] projects the per-core totals onto a
//! multi-core machine with an LPT schedule.
//!
//! The service does not decide *which engine* runs a group: it delegates
//! routing. [`GemmService::dispatch`] follows each shape's tuned winner
//! (falling back to SME), and [`GemmService::dispatch_routed`] accepts an
//! explicit per-configuration backend decision — the hook the `sme-router`
//! crate's policy plugs into. The `sme-router` batch planner also replaces
//! the identical-cores makespan here with a placement over the machine's
//! real engine classes (two shared SME units + private Neon cores).

use crate::cache::KernelCache;
use crate::error::ServeError;
use crate::fault::{self, FaultKind};
use crate::tuner::{self, TuneOutcome, TunerOptions};
use rayon::prelude::*;
use sme_gemm::{AnyGemmConfig, Backend, Dtype, GemmConfig, GemmError, WideningGemmConfig};
use sme_machine::exec::Simulator;
use sme_machine::ExecStats;
use sme_obs::TraceCtx;
use std::collections::HashMap;
use std::sync::Arc;

/// One GEMM execution request: a configuration of either datatype plus the
/// seed from which the operands are derived deterministically (the service
/// owns the simulated memory, so operands are generated, not passed by
/// pointer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmRequest {
    /// The kernel configuration.
    pub config: AnyGemmConfig,
    /// Seed for the pseudo-random A, B and initial C operands.
    pub seed: u64,
}

impl GemmRequest {
    /// An FP32 request.
    pub fn fp32(config: GemmConfig, seed: u64) -> Self {
        GemmRequest {
            config: AnyGemmConfig::Fp32(config),
            seed,
        }
    }

    /// A BF16 → FP32 widening request.
    pub fn widening(config: WideningGemmConfig, seed: u64) -> Self {
        GemmRequest {
            config: AnyGemmConfig::WideningBf16(config),
            seed,
        }
    }
}

/// Aggregated statistics for all requests sharing one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigReport {
    /// The configuration.
    pub config: AnyGemmConfig,
    /// The datatype family of the group's kernel.
    pub dtype: Dtype,
    /// The backend the group's kernel executed on.
    pub backend: Backend,
    /// `Some(original)` if the group was *degraded*: its routed backend
    /// failed (compile failure or a caught panic) and the group was served
    /// by the other backend instead. `None` for a healthy group.
    pub fallback_from: Option<Backend>,
    /// `true` if the group's single kernel fetch was served from the cache
    /// (`false`: the fetch compiled).
    pub cache_hit: bool,
    /// Number of requests in the batch with this configuration.
    pub requests: usize,
    /// Requests whose packed A/B operand images were served from the
    /// packed-operand cache (the remainder repacked them from the seed).
    pub pack_hits: usize,
    /// Execution statistics summed over those requests.
    pub stats: ExecStats,
}

/// Why one request failed after the serving layer exhausted its
/// degradation ladder (routed backend, then the fallback backend).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFailure {
    /// Index into the submitted request slice.
    pub index: usize,
    /// The configuration of the failed request's group.
    pub config: AnyGemmConfig,
    /// The error of the group's *first* (routed) attempt.
    pub error: ServeError,
}

/// The result of dispatching one batch.
///
/// A batch is never dropped wholesale: a group whose routed backend fails
/// (or panics) is retried once on the other backend, and only requests
/// whose group failed on *both* backends appear in
/// [`BatchReport::failures`] — their [`BatchReport::outputs`] slots stay
/// empty and they have no `per_config` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Resulting C buffers, indexed like the submitted request slice
    /// (empty for failed requests).
    pub outputs: Vec<Vec<f32>>,
    /// Per-configuration aggregates, in first-appearance order (failed
    /// groups excluded).
    pub per_config: Vec<ConfigReport>,
    /// Per-request failures, in request order (empty for a healthy batch).
    pub failures: Vec<RequestFailure>,
    /// Statistics summed over the whole batch.
    pub total: ExecStats,
}

impl BatchReport {
    /// Number of groups served by their fallback backend instead of the
    /// routed one.
    pub fn degraded_groups(&self) -> usize {
        self.per_config
            .iter()
            .filter(|c| c.fallback_from.is_some())
            .count()
    }

    /// Fraction of the batch's requests whose packed operands were served
    /// from the packed-operand cache (0 for an empty batch).
    pub fn pack_hit_ratio(&self) -> f64 {
        let requests: usize = self.per_config.iter().map(|c| c.requests).sum();
        if requests == 0 {
            return 0.0;
        }
        let hits: usize = self.per_config.iter().map(|c| c.pack_hits).sum();
        hits as f64 / requests as f64
    }

    /// Nominal floating-point operations of the whole batch.
    pub fn total_flops(&self) -> u64 {
        self.per_config
            .iter()
            .map(|c| c.config.flops() * c.requests as u64)
            .sum()
    }

    /// Modelled makespan (cycles) of the batch on `cores` identical cores,
    /// using a longest-processing-time greedy schedule of the
    /// per-configuration cycle totals (a group never splits across cores —
    /// it shares one kernel and one working set).
    pub fn makespan_cycles(&self, cores: usize) -> f64 {
        let cores = cores.max(1);
        let mut loads = vec![0.0f64; cores];
        let mut groups: Vec<f64> = self.per_config.iter().map(|c| c.stats.cycles).collect();
        groups.sort_by(|a, b| b.partial_cmp(a).expect("cycles are finite"));
        for cycles in groups {
            let min = loads
                .iter_mut()
                .min_by(|a, b| a.partial_cmp(b).expect("loads are finite"))
                .expect("at least one core");
            *min += cycles;
        }
        loads.into_iter().fold(0.0, f64::max)
    }

    /// Modelled throughput (GFLOPS) of the batch on `cores` identical
    /// cores: total nominal operations over the makespan.
    pub fn aggregate_gflops(&self, cores: usize) -> f64 {
        if self.total.clock_ghz == 0.0 {
            return 0.0;
        }
        let seconds = self.makespan_cycles(cores) / (self.total.clock_ghz * 1e9);
        if seconds == 0.0 {
            0.0
        } else {
            self.total_flops() as f64 / seconds / 1e9
        }
    }
}

/// The batched GEMM dispatch service.
#[derive(Debug, Clone)]
pub struct GemmService {
    cache: Arc<KernelCache>,
}

impl GemmService {
    /// Create a service with a fresh cache bounded to `cache_capacity`
    /// kernels and an empty plan store.
    pub fn new(cache_capacity: usize) -> Self {
        GemmService {
            cache: Arc::new(KernelCache::new(cache_capacity)),
        }
    }

    /// Create a service around an existing (possibly shared) cache.
    pub fn with_cache(cache: Arc<KernelCache>) -> Self {
        GemmService { cache }
    }

    /// The underlying kernel cache (counters, plan-store access).
    pub fn cache(&self) -> &KernelCache {
        &self.cache
    }

    /// Autotune a configuration of either datatype and install the winner,
    /// so subsequent dispatches of this shape (whatever their knob
    /// settings) use the tuned kernel.
    pub fn tune_any(
        &self,
        cfg: &AnyGemmConfig,
        opts: &TunerOptions,
    ) -> Result<TuneOutcome, GemmError> {
        let outcome = tuner::tune_any(cfg, opts)?;
        self.cache.install_tuned_any(cfg, outcome.record());
        Ok(outcome)
    }

    /// Dispatch a batch of requests on each configuration's preferred
    /// backend (the tuned winner's engine, or the datatype's default engine
    /// for untuned shapes — see [`KernelCache::preferred_backend_any`]).
    pub fn dispatch(&self, requests: &[GemmRequest]) -> Result<BatchReport, GemmError> {
        self.dispatch_routed(requests, |cfg| self.cache.preferred_backend_any(cfg))
    }

    /// Dispatch a batch with an explicit routing decision per configuration.
    ///
    /// This is the hook the `sme-router` crate plugs its policy into: the
    /// service owns grouping, caching and fan-out, and delegates only the
    /// *which engine* question to `route` (called once per distinct
    /// configuration, not once per request). Batches may mix FP32 and BF16
    /// widening requests freely — the datatype travels inside the
    /// [`AnyGemmConfig`] key, so grouping, caching and telemetry never
    /// conflate the two families of one shape.
    ///
    /// Requests are grouped by configuration; each distinct configuration
    /// costs at most one cache miss, and the groups execute concurrently on
    /// private simulator instances. Results come back in request order.
    ///
    /// # Failure isolation
    /// A failing group — a routing decision its backend's generator cannot
    /// honour, a forced compile failure, or a panic mid-execution (caught
    /// at the group boundary) — never drops the batch. The group is
    /// retried once on the other backend; if that succeeds the group is
    /// served *degraded* ([`ConfigReport::fallback_from`], counted in
    /// `sme_degraded_dispatch_total`), and only if both backends fail do
    /// its requests land in [`BatchReport::failures`] while the rest of
    /// the batch completes normally. The `Result` is kept for API
    /// stability; dispatch itself always returns `Ok`.
    pub fn dispatch_routed(
        &self,
        requests: &[GemmRequest],
        route: impl Fn(&AnyGemmConfig) -> Backend + Sync,
    ) -> Result<BatchReport, GemmError> {
        self.dispatch_planned_traced(requests, route, |_| 0.0, None)
    }

    /// [`GemmService::dispatch_routed`] with an explicit host-side
    /// execution order and causal parent.
    ///
    /// Groups are handed to the worker pool in descending `priority` order
    /// (ties keep first-appearance order), so a placement plan's schedule —
    /// longest contended group first — is what the host actually runs. The
    /// report is unaffected: `per_config` stays in first-appearance order
    /// and outputs stay in request order.
    ///
    /// Each group's `service.group` span is parented to `ctx` (the batch
    /// root the router opened), and the group's kernel fetch is parented to
    /// the group span in turn. The group span's identity is allocated *on
    /// the worker thread*, so the parent→child edge crosses the rayon
    /// thread hop and the trace export draws it as a flow arrow.
    pub fn dispatch_planned_traced(
        &self,
        requests: &[GemmRequest],
        route: impl Fn(&AnyGemmConfig) -> Backend + Sync,
        priority: impl Fn(&AnyGemmConfig) -> f64,
        ctx: Option<TraceCtx>,
    ) -> Result<BatchReport, GemmError> {
        // Group request indices by configuration, first-appearance order.
        let mut group_of: HashMap<AnyGemmConfig, usize> = HashMap::new();
        let mut groups: Vec<(AnyGemmConfig, Vec<usize>)> = Vec::new();
        for (index, request) in requests.iter().enumerate() {
            match group_of.get(&request.config) {
                Some(&g) => groups[g].1.push(index),
                None => {
                    group_of.insert(request.config, groups.len());
                    groups.push((request.config, vec![index]));
                }
            }
        }

        // Hand groups to the worker pool highest-priority first (stable on
        // ties), so the caller's planned schedule is the submission order.
        let mut exec_order: Vec<usize> = (0..groups.len()).collect();
        exec_order.sort_by(|&a, &b| {
            priority(&groups[b].0)
                .partial_cmp(&priority(&groups[a].0))
                .expect("priorities are finite")
        });

        // Fan the groups out across host threads. The cache is shared and
        // thread-safe, so the kernel fetch happens inside the worker: one
        // miss per distinct (configuration, backend), hits for repeats
        // across batches.
        struct GroupRun {
            outputs: Vec<(usize, Vec<f32>)>,
            stats: ExecStats,
            backend: Backend,
            cache_hit: bool,
            pack_hits: usize,
            fallback_from: Option<Backend>,
        }
        // Fault injection is scoped to the dispatching thread; carry its
        // injector (if any) across the hop to the workers.
        let faults = fault::current_injector();
        let results: Vec<(usize, Result<GroupRun, ServeError>)> = exec_order
            .par_iter()
            .map(|&g| {
                let _faults = fault::enter(faults.clone());
                let (config, indices) = &groups[g];
                let routed = route(config);
                // One attempt on one backend. `inject` arms the
                // fault-injection hooks only for the routed attempt, so a
                // chaos schedule can never fail both rungs of the ladder
                // with a single rule.
                let run = |backend: Backend, inject: bool| -> Result<GroupRun, ServeError> {
                    let group_started = std::time::Instant::now();
                    // Allocate the group span's identity here, on the
                    // worker thread, so the parent edge crosses the hop.
                    let group_ctx = self.cache.obs().and_then(|hub| {
                        sme_obs::set_thread_name_indexed("rayon-worker");
                        ctx.map(|root| hub.trace.child_ctx(root))
                    });
                    if inject {
                        let site = format!(
                            "service.group:{}:{} {}x{}x{}",
                            backend.name(),
                            config.dtype(),
                            config.m(),
                            config.n(),
                            config.k()
                        );
                        if fault::fire(FaultKind::GroupPanic, &site) {
                            panic!("sme-fault-injected: group panic at {site}");
                        }
                        if fault::fire(FaultKind::CompileFail, &site) {
                            return Err(ServeError::Compile {
                                backend,
                                detail: format!("injected compile failure at {site}"),
                            });
                        }
                    }
                    let (kernel, cache_hit) = self
                        .cache
                        .fetch_any_traced(config, backend, group_ctx)
                        .map_err(|e| match e {
                            GemmError::Unsupported(detail) => {
                                ServeError::Compile { backend, detail }
                            }
                            other => ServeError::Gemm(other),
                        })?;
                    let mut sim = Simulator::m4_performance();
                    let mut stats = ExecStats::default();
                    let mut outputs = Vec::with_capacity(indices.len());
                    let mut pack_hits = 0usize;
                    // Host time inside the simulator, for the group span's
                    // speed gauge; a detached dispatch reads no clock.
                    let gauge = self.cache.obs().is_some();
                    let mut sim_time = std::time::Duration::ZERO;
                    for &index in indices {
                        let seed = requests[index].seed;
                        // Packed A/B images replay from the operand cache;
                        // only C (the output) is refreshed from the seed.
                        let (images, pack_hit) = self.cache.packs().get_or_pack(&kernel, seed);
                        pack_hits += pack_hit as usize;
                        let bufs = kernel.allocate_buffers_packed(&mut sim, seed, &images);
                        // Functional-only execution plus the kernel's
                        // memoized timing, merged once per request so the
                        // sums are those of per-request full runs.
                        let served = gauge.then(std::time::Instant::now);
                        stats.merge(kernel.serve(&mut sim, bufs));
                        if let Some(served) = served {
                            sim_time += served.elapsed();
                        }
                        outputs.push((index, sim.mem.read_f32_slice(bufs.c, config.c_len())));
                    }
                    if let Some(hub) = self.cache.obs() {
                        // Floored at 1 ns so the rate stays finite.
                        let sim_us = (sim_time.as_secs_f64() * 1e6).max(1e-3);
                        let span_ctx = group_ctx.unwrap_or_else(|| hub.trace.root_ctx());
                        hub.metrics.histogram("sme_group_cycles").record_exemplar(
                            stats.cycles,
                            span_ctx.trace_id,
                            span_ctx.span_id,
                        );
                        hub.trace.record_ctx(
                            "service.group",
                            "service",
                            group_started,
                            span_ctx,
                            vec![
                                (
                                    "config".to_string(),
                                    serde::json::Value::String(format!(
                                        "{} {}x{}x{}",
                                        config.dtype(),
                                        config.m(),
                                        config.n(),
                                        config.k()
                                    )),
                                ),
                                (
                                    "backend".to_string(),
                                    serde::json::Value::String(backend.name().to_string()),
                                ),
                                (
                                    "requests".to_string(),
                                    serde::json::Value::Number(indices.len() as f64),
                                ),
                                (
                                    "cycles".to_string(),
                                    serde::json::Value::Number(stats.cycles),
                                ),
                                ("cache_hit".to_string(), serde::json::Value::Bool(cache_hit)),
                                (
                                    "pack_hits".to_string(),
                                    serde::json::Value::Number(pack_hits as f64),
                                ),
                                (
                                    "sim_insts".to_string(),
                                    serde::json::Value::Number(stats.instructions as f64),
                                ),
                                (
                                    "sim_insts_per_host_us".to_string(),
                                    serde::json::Value::Number(stats.instructions as f64 / sim_us),
                                ),
                            ],
                        );
                    }
                    Ok(GroupRun {
                        outputs,
                        stats,
                        backend,
                        cache_hit,
                        pack_hits,
                        fallback_from: None,
                    })
                };
                // Panic isolation: a group that panics (kernel bug or
                // injected fault) is caught at the group boundary and
                // enters the same ladder as a compile failure.
                let attempt = |backend: Backend, inject: bool| -> Result<GroupRun, ServeError> {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run(backend, inject)
                    })) {
                        Ok(result) => result,
                        Err(payload) => Err(ServeError::ExecPanic {
                            backend,
                            detail: panic_detail(payload.as_ref()),
                        }),
                    }
                };
                let result = match attempt(routed, true) {
                    Ok(group) => Ok(group),
                    Err(first) => {
                        let fallback = match routed {
                            Backend::Sme => Backend::Neon,
                            Backend::Neon => Backend::Sme,
                        };
                        let degraded_started = std::time::Instant::now();
                        match attempt(fallback, false) {
                            Ok(mut group) => {
                                group.fallback_from = Some(routed);
                                if let Some(hub) = self.cache.obs() {
                                    hub.metrics.counter("sme_degraded_dispatch_total").inc();
                                    let span_ctx = ctx
                                        .map(|root| hub.trace.child_ctx(root))
                                        .unwrap_or_else(|| hub.trace.root_ctx());
                                    hub.trace.record_ctx(
                                        "service.degraded",
                                        "chaos",
                                        degraded_started,
                                        span_ctx,
                                        vec![
                                            (
                                                "config".to_string(),
                                                serde::json::Value::String(format!(
                                                    "{} {}x{}x{}",
                                                    config.dtype(),
                                                    config.m(),
                                                    config.n(),
                                                    config.k()
                                                )),
                                            ),
                                            (
                                                "from".to_string(),
                                                serde::json::Value::String(
                                                    routed.name().to_string(),
                                                ),
                                            ),
                                            (
                                                "to".to_string(),
                                                serde::json::Value::String(
                                                    fallback.name().to_string(),
                                                ),
                                            ),
                                            (
                                                "error".to_string(),
                                                serde::json::Value::String(first.to_string()),
                                            ),
                                        ],
                                    );
                                }
                                Ok(group)
                            }
                            Err(_second) => Err(first),
                        }
                    }
                };
                (g, result)
            })
            .collect();
        let mut executed: Vec<Option<Result<GroupRun, ServeError>>> =
            (0..groups.len()).map(|_| None).collect();
        for (g, result) in results {
            executed[g] = Some(result);
        }

        let mut outputs: Vec<Vec<f32>> = vec![Vec::new(); requests.len()];
        let mut per_config = Vec::with_capacity(groups.len());
        let mut failures: Vec<RequestFailure> = Vec::new();
        let mut total = ExecStats::default();
        for ((config, indices), result) in groups.iter().zip(executed) {
            match result.expect("every group executed") {
                Ok(group) => {
                    for (index, c) in group.outputs {
                        outputs[index] = c;
                    }
                    total.merge(&group.stats);
                    per_config.push(ConfigReport {
                        config: *config,
                        dtype: config.dtype(),
                        backend: group.backend,
                        fallback_from: group.fallback_from,
                        cache_hit: group.cache_hit,
                        requests: indices.len(),
                        pack_hits: group.pack_hits,
                        stats: group.stats,
                    });
                }
                Err(error) => {
                    if let Some(hub) = self.cache.obs() {
                        hub.metrics
                            .counter("sme_request_failures_total")
                            .add(indices.len() as u64);
                    }
                    for &index in indices {
                        failures.push(RequestFailure {
                            index,
                            config: *config,
                            error: error.clone(),
                        });
                    }
                }
            }
        }
        failures.sort_by_key(|f| f.index);
        Ok(BatchReport {
            outputs,
            per_config,
            failures,
            total,
        })
    }
}

/// Stringify a caught panic payload (the common `&str` / `String` cases,
/// with a fallback for exotic payloads).
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sme_gemm::reference::{fill_matrix, gemm_reference};

    /// The C buffer the scalar reference produces for one request.
    fn reference_output(request: &GemmRequest) -> Vec<f32> {
        let cfg = request.config.as_fp32().expect("FP32 request");
        let mut a = vec![0.0f32; cfg.a_len()];
        let mut b = vec![0.0f32; cfg.b_len()];
        let mut c = vec![0.0f32; cfg.c_len()];
        // Mirror RoutedKernel::allocate_buffers' seeding scheme.
        fill_matrix(request.seed, &mut a);
        fill_matrix(request.seed ^ 0x1111_1111, &mut b);
        fill_matrix(request.seed ^ 0x2222_2222, &mut c);
        gemm_reference(cfg, &a, &b, &mut c);
        c
    }

    #[test]
    fn mixed_batch_groups_by_config_and_orders_outputs() {
        let service = GemmService::new(16);
        let abt = GemmConfig::abt(20, 12, 6);
        let ab = GemmConfig::ab(16, 16, 8);
        let requests = [
            GemmRequest::fp32(abt, 1),
            GemmRequest::fp32(ab, 2),
            GemmRequest::fp32(abt, 3),
            GemmRequest::fp32(ab, 4),
            GemmRequest::fp32(abt, 5),
        ];
        let report = service.dispatch(&requests).unwrap();
        assert_eq!(report.outputs.len(), 5);
        assert_eq!(report.per_config.len(), 2, "two distinct configurations");
        assert_eq!(
            report.per_config[0].config,
            abt.into(),
            "first-appearance order"
        );
        assert_eq!(report.per_config[0].requests, 3);
        assert_eq!(report.per_config[1].requests, 2);
        // One compile per distinct configuration.
        let stats = service.cache().stats();
        assert_eq!(stats.misses, 2);
        // Each output matches its own request's reference, so grouping did
        // not permute results.
        for (request, output) in requests.iter().zip(&report.outputs) {
            let reference = reference_output(request);
            let err = output
                .iter()
                .zip(&reference)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(err < 1e-4, "{}: max abs error {err}", request.config);
        }
        // Totals aggregate the per-config stats.
        let summed: u64 = report.per_config.iter().map(|c| c.stats.instructions).sum();
        assert_eq!(report.total.instructions, summed);
        assert_eq!(report.total_flops(), 3 * abt.flops() + 2 * ab.flops());
    }

    #[test]
    fn repeat_batches_are_served_from_the_cache() {
        let service = GemmService::new(16);
        let requests = [GemmRequest::fp32(GemmConfig::abt(16, 16, 4), 9)];
        let first = service.dispatch(&requests).unwrap();
        let second = service.dispatch(&requests).unwrap();
        assert_eq!(first.outputs, second.outputs, "deterministic results");
        let stats = service.cache().stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let service = GemmService::new(4);
        let report = service.dispatch(&[]).unwrap();
        assert!(report.outputs.is_empty());
        assert!(report.per_config.is_empty());
        assert_eq!(report.total, ExecStats::default());
        assert_eq!(report.total_flops(), 0);
        assert_eq!(report.makespan_cycles(4), 0.0);
        assert_eq!(report.aggregate_gflops(4), 0.0);
    }

    #[test]
    fn invalid_requests_fail_alone_not_the_batch() {
        let service = GemmService::new(4);
        let requests = [
            GemmRequest::fp32(GemmConfig::abt(16, 16, 4), 0),
            GemmRequest::fp32(GemmConfig::abt(0, 16, 4), 0),
        ];
        let report = service.dispatch(&requests).unwrap();
        // The valid request completes bit-correct…
        assert_eq!(report.outputs[0], reference_output(&requests[0]));
        // …and the invalid one is reported per-request: no backend could
        // ever serve it, so it is not a degradation, it is a rejection.
        assert!(report.outputs[1].is_empty());
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].index, 1);
        assert_eq!(report.failures[0].error.category(), "invalid_config");
        assert_eq!(report.per_config.len(), 1, "failed group has no report");
        assert_eq!(report.degraded_groups(), 0);
    }

    #[test]
    fn injected_faults_degrade_to_the_fallback_backend() {
        use crate::fault::{FaultKind, FaultPlan, FaultRule, SitePattern};
        let service = GemmService::new(16);
        let cfg = GemmConfig::abt(32, 32, 8);
        let requests = [GemmRequest::fp32(cfg, 1), GemmRequest::fp32(cfg, 2)];
        let plan = Arc::new(FaultPlan::with_rules(
            0,
            vec![
                FaultRule {
                    kind: FaultKind::GroupPanic,
                    pattern: SitePattern::Contains(":Sme:".to_string()),
                    occurrence: 1,
                },
                FaultRule {
                    kind: FaultKind::CompileFail,
                    pattern: SitePattern::Contains(":Sme:".to_string()),
                    occurrence: 1,
                },
            ],
        ));
        crate::fault::install_injector(plan);
        // Batch 1: the SME group panics mid-dispatch; batch 2: its compile
        // is forced to fail. Both are served by the Neon fallback.
        let panicked = service.dispatch(&requests).unwrap();
        let compile_failed = service.dispatch(&requests).unwrap();
        crate::fault::clear_injector();
        let healthy = service.dispatch(&requests).unwrap();

        for (label, report) in [("panic", &panicked), ("compile", &compile_failed)] {
            assert!(report.failures.is_empty(), "{label}: no dropped requests");
            assert_eq!(report.degraded_groups(), 1, "{label}: degraded");
            assert_eq!(report.per_config[0].backend, Backend::Neon, "{label}");
            assert_eq!(
                report.per_config[0].fallback_from,
                Some(Backend::Sme),
                "{label}"
            );
        }
        assert_eq!(healthy.degraded_groups(), 0);
        assert_eq!(healthy.per_config[0].backend, Backend::Sme);
        // Degraded output equals a clean run on the fallback backend, bit
        // for bit (the simulator is deterministic per backend).
        let neon_clean = service
            .dispatch_routed(&requests, |_| Backend::Neon)
            .unwrap();
        assert_eq!(panicked.outputs, neon_clean.outputs);
        assert_eq!(compile_failed.outputs, neon_clean.outputs);
        // And the error ladder is visible in the panic case's span-free
        // sibling: a clean SME run still bit-matches the FP32 reference.
        assert_eq!(healthy.outputs[0], reference_output(&requests[0]));
    }

    #[test]
    fn makespan_shrinks_with_more_cores_and_bounds_hold() {
        let service = GemmService::new(16);
        let mut requests = Vec::new();
        for (i, mn) in [16usize, 24, 32, 40].into_iter().enumerate() {
            for r in 0..3 {
                requests.push(GemmRequest::fp32(
                    GemmConfig::abt(mn, mn, 8),
                    (i * 10 + r) as u64,
                ));
            }
        }
        let report = service.dispatch(&requests).unwrap();
        let serial = report.makespan_cycles(1);
        let quad = report.makespan_cycles(4);
        assert!((serial - report.total.cycles).abs() < 1e-6 * serial);
        assert!(quad <= serial);
        // The makespan can never beat a perfect split or the largest group.
        let largest = report
            .per_config
            .iter()
            .map(|c| c.stats.cycles)
            .fold(0.0f64, f64::max);
        assert!(quad >= serial / 4.0 - 1e-9);
        assert!(quad >= largest - 1e-9);
        assert!(report.aggregate_gflops(4) >= report.aggregate_gflops(1));
    }

    #[test]
    fn routed_dispatch_controls_the_backend_per_config() {
        let service = GemmService::new(16);
        let neonable = GemmConfig::abt(16, 4, 4);
        let sme_only = GemmConfig::ab(33, 17, 5); // column-major B is Neon-invalid
        let requests = [
            GemmRequest::fp32(neonable, 1),
            GemmRequest::fp32(sme_only, 2),
        ];
        let report = service
            .dispatch_routed(&requests, |cfg| {
                if *cfg == neonable.into() {
                    Backend::Neon
                } else {
                    Backend::Sme
                }
            })
            .unwrap();
        assert_eq!(report.per_config[0].backend, Backend::Neon);
        assert_eq!(report.per_config[1].backend, Backend::Sme);
        assert!(!report.per_config[0].cache_hit, "first sight compiles");
        // Results still match the per-request reference, whatever the engine.
        for (request, output) in requests.iter().zip(&report.outputs) {
            let reference = reference_output(request);
            let err = output
                .iter()
                .zip(&reference)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(err < 1e-4, "{}: max abs error {err}", request.config);
        }
        // A repeat is served from the per-backend cache entry.
        let again = service
            .dispatch_routed(&requests, |cfg| {
                if *cfg == neonable.into() {
                    Backend::Neon
                } else {
                    Backend::Sme
                }
            })
            .unwrap();
        assert!(again.per_config.iter().all(|c| c.cache_hit));
        assert_eq!(report.outputs, again.outputs);

        // Routing a layout the backend cannot compile no longer fails the
        // batch: the group falls back to the other backend and completes,
        // reported as degraded.
        let degraded = service
            .dispatch_routed(&requests, |_| Backend::Neon)
            .unwrap();
        assert!(degraded.failures.is_empty());
        assert_eq!(degraded.degraded_groups(), 1);
        let fell_back = degraded
            .per_config
            .iter()
            .find(|c| c.config == sme_only.into())
            .expect("group served");
        assert_eq!(fell_back.backend, Backend::Sme);
        assert_eq!(fell_back.fallback_from, Some(Backend::Neon));
        for (request, output) in requests.iter().zip(&degraded.outputs) {
            let reference = reference_output(request);
            let err = output
                .iter()
                .zip(&reference)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(err < 1e-4, "{}: max abs error {err}", request.config);
        }
        // The default dispatch of an untuned shape stays on SME.
        let default = service.dispatch(&requests[1..]).unwrap();
        assert_eq!(default.per_config[0].backend, Backend::Sme);
    }

    #[test]
    fn planned_dispatch_reorders_execution_but_not_the_report() {
        let service = GemmService::new(16);
        let small = GemmConfig::abt(16, 4, 4);
        let large = GemmConfig::abt(48, 48, 32);
        let requests = [
            GemmRequest::fp32(small, 1),
            GemmRequest::fp32(large, 2),
            GemmRequest::fp32(small, 3),
        ];
        let routed = service
            .dispatch_routed(&requests, |_| Backend::Sme)
            .unwrap();
        // Submit the large group first: results and report order must be
        // identical to the unprioritized dispatch.
        let planned = service
            .dispatch_planned_traced(&requests, |_| Backend::Sme, |cfg| cfg.m() as f64, None)
            .unwrap();
        assert_eq!(planned.outputs, routed.outputs);
        assert_eq!(planned.per_config.len(), 2);
        assert_eq!(planned.per_config[0].config, small.into());
        assert_eq!(planned.per_config[1].config, large.into());
        assert_eq!(planned.total, routed.total);
    }

    #[test]
    fn mixed_dtype_batches_group_and_report_per_dtype() {
        use sme_gemm::{widening_rel_error, WIDENING_REL_TOL};
        let service = GemmService::new(16);
        let fp32 = GemmConfig::abt(32, 32, 8);
        let wide = WideningGemmConfig::new(32, 32, 8).unwrap();
        let requests = [
            GemmRequest::fp32(fp32, 1),
            GemmRequest::widening(wide, 2),
            GemmRequest::fp32(fp32, 3),
            GemmRequest::widening(wide, 4),
        ];
        let report = service.dispatch(&requests).unwrap();
        assert_eq!(report.per_config.len(), 2, "same shape, distinct dtypes");
        assert_eq!(report.per_config[0].dtype, Dtype::Fp32);
        assert_eq!(report.per_config[1].dtype, Dtype::WideningBf16);
        assert_eq!(
            service.cache().stats().misses,
            2,
            "one compile per (config, dtype)"
        );
        // FP32 outputs bit-match the scalar reference path…
        for (request, output) in requests.iter().zip(&report.outputs).step_by(2) {
            assert_eq!(output, &reference_output(request));
        }
        // …and widening outputs stay within the BF16 oracle tolerance.
        for (request, output) in requests.iter().zip(&report.outputs).skip(1).step_by(2) {
            let mut a = vec![0.0f32; wide.m * wide.k];
            let mut b = vec![0.0f32; wide.k * wide.n];
            let mut c = vec![0.0f32; wide.c_len()];
            fill_matrix(request.seed, &mut a);
            fill_matrix(request.seed ^ 0x1111_1111, &mut b);
            fill_matrix(request.seed ^ 0x2222_2222, &mut c);
            sme_gemm::widening_reference(&wide, &a, &b, &mut c);
            let err = widening_rel_error(output, &c);
            assert!(err < WIDENING_REL_TOL, "widening error {err}");
        }
        assert_eq!(
            report.total_flops(),
            2 * fp32.flops() + 2 * wide.flops(),
            "flops aggregate across dtypes"
        );
        // A repeat batch is served entirely from the cache.
        let again = service.dispatch(&requests).unwrap();
        assert!(again.per_config.iter().all(|c| c.cache_hit));
        assert_eq!(report.outputs, again.outputs);
    }

    #[test]
    fn tuning_through_the_service_redirects_dispatch() {
        let service = GemmService::new(16);
        let cfg = GemmConfig::abt(64, 16, 32);
        let requests = [GemmRequest::fp32(cfg, 3)];
        let untuned = service.dispatch(&requests).unwrap();
        let outcome = service
            .tune_any(&cfg.into(), &TunerOptions::default())
            .unwrap();
        assert!(outcome.tuned_cycles <= outcome.default_cycles);
        let tuned = service.dispatch(&requests).unwrap();
        // Results are unchanged…
        assert_eq!(untuned.outputs, tuned.outputs);
        // …and the tuned dispatch is no slower in the model.
        assert!(tuned.total.cycles <= untuned.total.cycles + 1e-9);
        assert_eq!(service.cache().stats().tuned_compiles, 1);
    }
}
