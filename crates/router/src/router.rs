//! The router: routing + telemetry + placement wrapped around a
//! [`GemmService`].

use crate::planner::{plan_batch_placed, GroupCost, PlacementPlan};
use crate::telemetry::{ShapeStats, TelemetryRegistry};
use sme_gemm::{
    backend_supports, default_any_candidate, AnyGemmConfig, Backend, GemmError, RoutedKernel,
};
use sme_machine::multicore::MulticoreModel;
use sme_machine::MachineConfig;
use sme_obs::{ObsHub, TraceCtx};
use sme_runtime::{GemmRequest, GemmService, KernelCache, PlanStore, TuneOutcome, TunerOptions};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The result of dispatching one batch through the router: the runtime's
/// execution report plus the placement-aware routing projection.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedBatchReport {
    /// The runtime's batch report (outputs in request order, per-config
    /// aggregates tagged with the serving backend — the **final**, possibly
    /// rerouted backend).
    pub batch: sme_runtime::BatchReport,
    /// The executed placement of the batch on the two shared SME units and
    /// the ten private cores, after saturation-aware rerouting. Host-side
    /// group execution follows this plan's schedule (longest SME group
    /// first).
    pub placement: PlacementPlan,
    /// What the placement would have been with every group on its
    /// in-isolation route — the baseline the reroutes improved on.
    /// `placement.makespan_cycles() <= isolated.makespan_cycles()` always.
    pub isolated: PlacementPlan,
    /// Configurations spilled from the saturated SME units to idle private
    /// cores, in spill order (smallest SME-vs-Neon margin first); empty
    /// when the SME class was not the bottleneck.
    pub rerouted: Vec<AnyGemmConfig>,
}

impl RoutedBatchReport {
    /// Projected makespan saved by placement-aware routing over
    /// route-in-isolation, in performance-core cycles (≥ 0).
    pub fn makespan_improvement_cycles(&self) -> f64 {
        self.isolated.makespan_cycles() - self.placement.makespan_cycles()
    }
}

/// Traffic-aware multi-backend dispatch front end.
///
/// Sits between callers and the [`GemmService`]: every batch is routed
/// per-configuration (see [`Router::route_any`]), checked against the
/// machine's engine-class capacity (marginal SME groups spill to idle
/// private cores when the two shared units saturate — see
/// [`Router::dispatch`]), executed through the backend-tagged kernel
/// cache in the placement plan's order, and folded into the per-shape
/// [`TelemetryRegistry`]. The telemetry closes the loop:
/// [`Router::pretune_hot`] autotunes exactly the shapes that dominate
/// recent traffic, after which routing follows the tuned cross-backend
/// winners — and the `PretuneDaemon` keeps that loop warm across
/// restarts.
#[derive(Debug)]
pub struct Router {
    service: GemmService,
    telemetry: TelemetryRegistry,
    machine: MachineConfig,
    model: MulticoreModel,
    /// Memoized verdicts of the one-off measured probes.
    probe_memo: Mutex<HashMap<AnyGemmConfig, Backend>>,
}

impl Router {
    /// A router over a fresh cache bounded to `cache_capacity` kernels, on
    /// the calibrated M4 machine model.
    pub fn new(cache_capacity: usize) -> Self {
        let machine = MachineConfig::apple_m4();
        // Stamp the store so persisted winners carry the machine
        // fingerprint from the start.
        let cache = Arc::new(KernelCache::with_store(
            cache_capacity,
            PlanStore::for_machine(&machine),
        ));
        Router::with_service(GemmService::with_cache(cache), machine)
    }

    /// A router around an existing service (sharing its cache and plan
    /// store) and an explicit machine model.
    pub fn with_service(service: GemmService, machine: MachineConfig) -> Self {
        let model = MulticoreModel::new(machine.clone());
        Router {
            service,
            telemetry: TelemetryRegistry::for_machine(&machine),
            machine,
            model,
            probe_memo: Mutex::new(HashMap::new()),
        }
    }

    /// The wrapped service.
    pub fn service(&self) -> &GemmService {
        &self.service
    }

    /// The kernel cache (counters, plan-store access).
    pub fn cache(&self) -> &KernelCache {
        self.service.cache()
    }

    /// The per-shape traffic telemetry (decayed counters, snapshot
    /// persistence).
    pub fn telemetry(&self) -> &TelemetryRegistry {
        &self.telemetry
    }

    /// The machine model routing decisions and placements are made on.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Attach an observability hub to the whole serving stack below this
    /// router: dispatch spans and batch/placement metrics from the router,
    /// group-execution spans from the service, hit/miss/compile
    /// instrumentation from the kernel cache, and tick telemetry from a
    /// `PretuneDaemon` driving this router. Only the first attach wins.
    pub fn attach_obs(&self, hub: Arc<ObsHub>) {
        self.cache().attach_obs(hub);
    }

    /// The attached observability hub, if any.
    pub fn obs(&self) -> Option<&Arc<ObsHub>> {
        self.cache().obs()
    }

    /// Decide which backend serves a configuration of either datatype,
    /// **in isolation** — with no batch context. [`Router::dispatch`]
    /// starts from this answer and then revisits marginal SME picks under
    /// engine-class saturation.
    ///
    /// One rule: the installed tuned winner, when its backend can compile
    /// the shape ([`KernelCache::tuned_backend_any`]) — pre-tuning a shape
    /// pins its route to the simulated argmin across both engines — else
    /// the measured probe, which times both engines' default kernels once
    /// per shape and memoizes the faster. To pin an engine instead,
    /// dispatch through [`GemmService::dispatch_routed`].
    pub fn route_any(&self, cfg: &AnyGemmConfig) -> Backend {
        self.route_any_traced(cfg, None)
    }

    /// [`Router::route_any`] with a causal parent for any probe compiles
    /// the decision triggers (the probe compiles both engines' kernels
    /// through the cache on first sight of a shape).
    fn route_any_traced(&self, cfg: &AnyGemmConfig, parent: Option<TraceCtx>) -> Backend {
        self.cache()
            .tuned_backend_any(cfg)
            .unwrap_or_else(|| self.measure(cfg, parent))
    }

    /// One-off measured probe: compile both backends' default kernels
    /// **through the cache** (so the subsequent dispatch fetch of the
    /// winner is a hit, not a recompile), compare their (memoized)
    /// modelled cycles, memoize and return the faster engine.
    fn measure(&self, cfg: &AnyGemmConfig, parent: Option<TraceCtx>) -> Backend {
        if let Some(&backend) = sme_runtime::poison::lock(&self.probe_memo, "probe memo").get(cfg) {
            return backend;
        }
        let backend = match (
            self.fetch_compilable(cfg, Backend::Sme, parent),
            self.fetch_compilable(cfg, Backend::Neon, parent),
        ) {
            (Some(sme), Some(neon)) => {
                if neon.model_stats().cycles < sme.model_stats().cycles {
                    Backend::Neon
                } else {
                    Backend::Sme
                }
            }
            // Shapes only one engine can compile route there; invalid
            // configurations fall through to the datatype's default
            // engine, whose generator reports the error at dispatch time.
            (Some(_), None) => Backend::Sme,
            (None, Some(_)) => Backend::Neon,
            (None, None) => default_any_candidate(cfg).backend,
        };
        sme_runtime::poison::lock(&self.probe_memo, "probe memo").insert(*cfg, backend);
        backend
    }

    /// Fetch `cfg`'s kernel for `backend` through the cache, or `None` when
    /// the backend cannot compile it. Compilability is checked first
    /// ([`backend_supports`]), so an engine that rejects the shape is never
    /// asked and never shows up as a cache miss.
    fn fetch_compilable(
        &self,
        cfg: &AnyGemmConfig,
        backend: Backend,
        parent: Option<TraceCtx>,
    ) -> Option<Arc<RoutedKernel>> {
        backend_supports(cfg, backend).ok()?;
        self.cache()
            .fetch_any_traced(cfg, backend, parent)
            .ok()
            .map(|(kernel, _)| kernel)
    }

    /// The group's total simulated cycles on `backend` (the serving
    /// kernel's memoized modelled cycles × request count), `None` when the
    /// backend cannot compile the shape. Compiles through the cache, so the
    /// cost probe doubles as a cache warm-up for the dispatch that follows.
    fn simulated_group_cycles(
        &self,
        cfg: &AnyGemmConfig,
        backend: Backend,
        requests: u64,
        parent: Option<TraceCtx>,
    ) -> Option<f64> {
        self.fetch_compilable(cfg, backend, parent)
            .map(|kernel| kernel.model_stats().cycles * requests as f64)
    }

    /// Dispatch a batch with placement-aware routing. Batches may mix FP32
    /// and BF16 widening requests freely.
    ///
    /// Routing happens in three steps:
    /// 1. every distinct configuration is routed **provisionally**
    ///    ([`Router::route_any`]) and costed on its engine and, when that
    ///    engine is SME, on the Neon alternative;
    /// 2. the batch is placed on the machine's engine classes; if the two
    ///    shared SME units saturate, marginal SME groups — smallest
    ///    simulated SME-vs-Neon margin first — spill to idle private cores
    ///    whenever that strictly lowers the projected makespan
    ///    (`plan_batch_placed`);
    /// 3. the batch executes on the final routes, with host-side group
    ///    execution ordered by the plan (longest SME group first), so the
    ///    simulated and host schedules agree.
    ///
    /// The executed plan's projected makespan is never worse than the
    /// route-in-isolation projection (see
    /// [`RoutedBatchReport::isolated`]). Telemetry records the final
    /// routes and the decay clock advances by one epoch per batch.
    ///
    /// # Errors
    /// None in practice: the `Result` is kept for API stability. A request
    /// that fails — an invalid configuration, or a group that fails on both
    /// backends — is reported per request in the batch's
    /// [`sme_runtime::BatchReport::failures`] while the rest of the batch
    /// completes (see [`GemmService::dispatch_routed`]).
    pub fn dispatch(&self, requests: &[GemmRequest]) -> Result<RoutedBatchReport, GemmError> {
        let dispatch_started = Instant::now();
        // The batch root: every child span of this dispatch — placement,
        // kernel compiles, group execution — shares its trace id.
        let root = self
            .cache()
            .obs()
            .map(|hub| (hub.clone(), hub.trace.root_ctx()));
        // Distinct configurations in first-appearance order with request
        // counts — mirrors the service's grouping exactly.
        let mut index_of: HashMap<AnyGemmConfig, usize> = HashMap::new();
        let mut counts: Vec<(AnyGemmConfig, u64)> = Vec::new();
        for request in requests {
            match index_of.get(&request.config) {
                Some(&i) => counts[i].1 += 1,
                None => {
                    index_of.insert(request.config, counts.len());
                    counts.push((request.config, 1));
                }
            }
        }

        // Provisional routes and engine costs. Groups the provisional
        // backend cannot compile cost zero here and surface their error
        // from the dispatch below, like they always did.
        let place_started = Instant::now();
        let place_ctx = root.as_ref().map(|(hub, root)| hub.trace.child_ctx(*root));
        let costs: Vec<GroupCost> = counts
            .iter()
            .map(|&(config, n)| {
                let backend = self.route_any_traced(&config, place_ctx);
                let cycles = self
                    .simulated_group_cycles(&config, backend, n, place_ctx)
                    .unwrap_or(0.0);
                let alt_cycles = if backend == Backend::Sme {
                    self.simulated_group_cycles(&config, Backend::Neon, n, place_ctx)
                } else {
                    None
                };
                GroupCost {
                    config,
                    backend,
                    cycles,
                    alt_cycles,
                }
            })
            .collect();

        let plan = plan_batch_placed(&costs, &self.model);
        if let (Some((hub, _)), Some(place_ctx)) = (&root, place_ctx) {
            use serde::json::Value;
            hub.trace.record_ctx(
                "router.place",
                "router",
                place_started,
                place_ctx,
                vec![
                    ("groups".to_string(), Value::Number(counts.len() as f64)),
                    (
                        "rerouted".to_string(),
                        Value::Number(plan.rerouted.len() as f64),
                    ),
                ],
            );
        }
        let final_backend: HashMap<AnyGemmConfig, Backend> = plan
            .placement
            .placements
            .iter()
            .map(|p| (p.config, p.backend))
            .collect();
        let priority: HashMap<AnyGemmConfig, f64> = plan
            .placement
            .placements
            .iter()
            .zip(plan.placement.execution_priority())
            .map(|(p, pr)| (p.config, pr))
            .collect();

        let batch = self.service.dispatch_planned_traced(
            requests,
            |cfg| {
                final_backend
                    .get(cfg)
                    .copied()
                    .unwrap_or_else(|| self.route_any(cfg))
            },
            |cfg| priority.get(cfg).copied().unwrap_or(0.0),
            root.as_ref().map(|(_, root)| *root),
        )?;
        self.telemetry.record_batch(&batch);
        self.telemetry.advance_epoch();
        let report = RoutedBatchReport {
            batch,
            placement: plan.placement,
            isolated: plan.isolated,
            rerouted: plan.rerouted,
        };
        if let Some((hub, root)) = &root {
            use serde::json::Value;
            hub.metrics.counter("sme_router_batches_total").inc();
            hub.metrics
                .counter("sme_router_requests_total")
                .add(requests.len() as u64);
            hub.metrics
                .counter("sme_router_reroutes_total")
                .add(report.rerouted.len() as u64);
            // The makespan exemplar points the tail bucket back at this
            // batch's root span.
            hub.metrics
                .histogram("sme_batch_makespan_cycles")
                .record_exemplar(
                    report.placement.makespan_cycles(),
                    root.trace_id,
                    root.span_id,
                );
            hub.metrics
                .histogram("sme_placement_improvement_cycles")
                .record(report.makespan_improvement_cycles());
            // Histograms clamp negatives to the zero bucket, so the
            // "improvement never negative" SLO watches this gauge.
            hub.metrics
                .gauge("sme_placement_improvement_last")
                .set(report.makespan_improvement_cycles());
            hub.trace.record_ctx(
                "router.dispatch",
                "router",
                dispatch_started,
                *root,
                vec![
                    ("requests".to_string(), Value::Number(requests.len() as f64)),
                    ("groups".to_string(), Value::Number(counts.len() as f64)),
                    (
                        "rerouted".to_string(),
                        Value::Number(report.rerouted.len() as f64),
                    ),
                    (
                        "makespan_cycles".to_string(),
                        Value::Number(report.placement.makespan_cycles()),
                    ),
                    (
                        "improvement_cycles".to_string(),
                        Value::Number(report.makespan_improvement_cycles()),
                    ),
                ],
            );
        }
        Ok(report)
    }

    /// The `n` hottest shapes by **decayed cumulative cycles** — the cost
    /// each shape has imposed on the machine over the last few dozen
    /// batches, not all-time request counts (see
    /// [`TelemetryRegistry::top_shapes`]).
    pub fn top_shapes(&self, n: usize) -> Vec<ShapeStats> {
        self.telemetry.top_shapes(n)
    }

    /// Autotune a configuration of either datatype across both backends
    /// and install the winner, so subsequent routing and dispatch follow
    /// the simulated argmin.
    pub fn tune_any(
        &self,
        cfg: &AnyGemmConfig,
        opts: &TunerOptions,
    ) -> Result<TuneOutcome, GemmError> {
        self.service.tune_any(cfg, opts)
    }

    /// Autotune the `n` hottest shapes — the ROADMAP's "which shapes
    /// dominate traffic? pre-tune exactly those" loop. "Hot" is ranked by
    /// decayed cumulative cycles (the compute the shape has actually been
    /// costing lately), so a rarely-called but expensive shape gets tuned
    /// ahead of a chatty cheap one, and shapes whose traffic faded stop
    /// consuming tuning budget. Returns one outcome per tuned shape
    /// (hottest first). The `PretuneDaemon` runs this loop periodically
    /// and skips already-tuned shapes.
    pub fn pretune_hot(
        &self,
        n: usize,
        opts: &TunerOptions,
    ) -> Result<Vec<TuneOutcome>, GemmError> {
        self.top_shapes(n)
            .into_iter()
            .map(|stats| self.tune_any(&stats.config, opts))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sme_gemm::{GemmConfig, PlanCandidate};
    use sme_runtime::TunedRecord;

    /// Dispatch one request of `config` pinned to `backend` through the
    /// service, returning the serving backend and the degraded-from one.
    fn pinned(
        router: &Router,
        config: AnyGemmConfig,
        backend: Backend,
    ) -> (Backend, Option<Backend>) {
        let report = router
            .service()
            .dispatch_routed(&[GemmRequest { config, seed: 1 }], |_| backend)
            .unwrap();
        let group = &report.per_config[0];
        (group.backend, group.fallback_from)
    }

    #[test]
    fn policies_route_as_documented() {
        let tiny = GemmConfig::abt(16, 4, 4); // Neon territory
        let large = GemmConfig::abt(64, 64, 64); // SME territory
        let ragged = GemmConfig::abt(33, 47, 5); // odd extents: Neon-compilable
        let col_major = GemmConfig::ab(33, 47, 5); // Neon cannot compile

        // The measured probe picks the faster engine; a shape only one
        // engine compiles routes there.
        let router = Router::new(8);
        assert_eq!(router.route_any(&tiny.into()), Backend::Neon);
        assert_eq!(router.route_any(&large.into()), Backend::Sme);
        assert_eq!(router.route_any(&col_major.into()), Backend::Sme);

        // Pinning an engine goes through the service: it serves the pinned
        // engine wherever that engine compiles the shape (odd extents
        // included), and falls back to SME, degraded, where it cannot.
        let neon = |cfg: GemmConfig| pinned(&router, cfg.into(), Backend::Neon);
        assert_eq!(neon(large), (Backend::Neon, None));
        assert_eq!(neon(ragged), (Backend::Neon, None));
        assert_eq!(neon(col_major), (Backend::Sme, Some(Backend::Neon)));
    }

    #[test]
    fn measured_probe_is_memoized_and_tuning_overrides_it() {
        let router = Router::new(8);
        let cfg = GemmConfig::abt(16, 4, 4);
        assert_eq!(router.route_any(&cfg.into()), Backend::Neon);
        assert_eq!(
            router.probe_memo.lock().unwrap().get(&cfg.into()).copied(),
            Some(Backend::Neon),
            "probe verdict memoized"
        );
        // Tuning installs a winner, which takes precedence over the memo.
        let outcome = router
            .tune_any(&cfg.into(), &TunerOptions::quick())
            .unwrap();
        assert_eq!(outcome.winner.backend, Backend::Neon);
        assert_eq!(router.route_any(&cfg.into()), Backend::Neon);
        assert_eq!(
            router
                .cache()
                .lookup_tuned_any(&cfg.into())
                .unwrap()
                .candidate
                .backend,
            Backend::Neon
        );
    }

    #[test]
    fn placement_never_fetches_a_kernel_its_backend_cannot_compile() {
        // Neon cannot compile column-major B: neither the Measured probe
        // nor the placement costing may ask the cache for that kernel.
        let router = Router::new(8);
        let cfg = GemmConfig::ab(32, 16, 8);
        let requests: Vec<GemmRequest> = (0..3).map(|i| GemmRequest::fp32(cfg, i)).collect();
        for _ in 0..2 {
            let report = router.dispatch(&requests).unwrap();
            assert!(report.batch.failures.is_empty());
            assert_eq!(report.batch.per_config[0].backend, Backend::Sme);
        }
        let stats = router.cache().stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (4, 1),
            "one SME compile; placement and dispatch hit it"
        );
    }

    #[test]
    fn dispatch_feeds_the_obs_hub_and_reports_cycle_profiles() {
        let router = Router::new(16);
        let hub = ObsHub::shared(128);
        router.attach_obs(hub.clone());
        let cfg = GemmConfig::abt(32, 32, 8);
        let requests: Vec<GemmRequest> = (0..4).map(|i| GemmRequest::fp32(cfg, i as u64)).collect();
        let report = router.dispatch(&requests).unwrap();

        // Metrics: batch/request counters, makespan histogram, cache series.
        assert_eq!(hub.metrics.counter("sme_router_batches_total").get(), 1);
        assert_eq!(hub.metrics.counter("sme_router_requests_total").get(), 4);
        let makespan = hub
            .metrics
            .histogram("sme_batch_makespan_cycles")
            .snapshot();
        assert_eq!(makespan.count, 1);
        assert!(hub.metrics.counter("sme_cache_misses_total").get() >= 1);

        // Traces: a dispatch span plus per-group and per-compile spans.
        let names: Vec<String> = hub.trace.snapshot().into_iter().map(|s| s.name).collect();
        assert!(names.iter().any(|n| n == "router.dispatch"));
        assert!(names.iter().any(|n| n == "service.group"));
        assert!(names.iter().any(|n| n == "cache.compile"));

        // The cycle profile threads through the service report: per-class
        // cycles partition the group's total.
        let per = &report.batch.per_config[0];
        assert!(!per.stats.profile.is_empty());
        assert!(per.stats.profile.sums_to(per.stats.cycles));
        assert!(report
            .batch
            .total
            .profile
            .sums_to(report.batch.total.cycles));
    }

    #[test]
    fn dispatch_records_telemetry_and_places_the_batch() {
        let router = Router::new(16);
        let tiny = GemmConfig::abt(16, 4, 4);
        let large = GemmConfig::abt(48, 48, 32);
        let requests: Vec<GemmRequest> = (0..6)
            .map(|i| GemmRequest::fp32(if i % 3 == 0 { large } else { tiny }, i as u64))
            .collect();
        let report = router.dispatch(&requests).unwrap();
        assert_eq!(report.batch.outputs.len(), 6);

        // Telemetry matches dispatched traffic exactly, and the ranking is
        // by cycles: the two large requests dwarf the four tiny ones.
        assert_eq!(router.telemetry().total_requests(), 6);
        assert_eq!(router.telemetry().epoch(), 1, "one epoch per batch");
        let top = router.top_shapes(2);
        assert_eq!(top[0].config, large.into(), "cycles outrank counts");
        assert_eq!(top[0].requests, 2);
        assert_eq!(top[0].dominant_backend(), Backend::Sme);
        assert!(top[0].cycles > top[1].cycles);
        assert_eq!(top[1].requests, 4);
        assert_eq!(top[1].dominant_backend(), Backend::Neon);

        // The mixed batch lands on both engine classes and overlaps them.
        let (sme_load, neon_load) = report.placement.class_load_cycles();
        assert!(sme_load > 0.0 && neon_load > 0.0);
        assert!(report.placement.makespan_cycles() < sme_load + neon_load);
        // One SME group on an idle pair of units: nothing spills, so the
        // executed plan coincides with the in-isolation projection.
        assert!(report.rerouted.is_empty());
        assert_eq!(report.placement, report.isolated);
        assert_eq!(report.makespan_improvement_cycles(), 0.0);

        // pretune_hot tunes the hottest shapes and installs their winners.
        let outcomes = router.pretune_hot(2, &TunerOptions::quick()).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(router.cache().lookup_tuned_any(&tiny.into()).is_some());
        assert!(router.cache().lookup_tuned_any(&large.into()).is_some());
        // Routing now follows the tuned winners (hottest = large first).
        assert_eq!(router.route_any(&large.into()), outcomes[0].winner.backend);
    }

    #[test]
    fn saturated_sme_batches_spill_and_beat_isolated_routing() {
        // Many distinct SME-preferring widening groups: with only two
        // shared SME units, the provisional routing saturates the SME
        // class while the ten private cores idle. Placement-aware dispatch
        // must spill the marginal groups and strictly beat the
        // route-in-isolation projection.
        let router = Router::new(64);
        let requests: Vec<GemmRequest> = (0..8)
            .map(|i| {
                GemmRequest::widening(
                    sme_gemm::WideningGemmConfig::new(32, 32, 8 * (i + 1)).unwrap(),
                    i as u64,
                )
            })
            .collect();
        // All these shapes prefer SME in isolation.
        for request in &requests {
            assert_eq!(router.route_any(&request.config), Backend::Sme);
        }
        let report = router.dispatch(&requests).unwrap();
        assert!(
            !report.rerouted.is_empty(),
            "a saturated SME class must spill marginal groups"
        );
        assert!(
            report.placement.makespan_cycles() < report.isolated.makespan_cycles(),
            "placed {} must beat isolated {}",
            report.placement.makespan_cycles(),
            report.isolated.makespan_cycles()
        );
        // The batch report executed the final routes: the rerouted shapes
        // really ran on Neon.
        for config in &report.rerouted {
            let group = report
                .batch
                .per_config
                .iter()
                .find(|g| g.config == *config)
                .expect("rerouted shape was dispatched");
            assert_eq!(group.backend, Backend::Neon);
        }
        // Placement cycles mirror the executed report exactly (the timing
        // model is data-independent), so the projection is honest.
        for (placement, group) in report
            .placement
            .placements
            .iter()
            .zip(&report.batch.per_config)
        {
            assert_eq!(placement.config, group.config);
            assert_eq!(placement.backend, group.backend);
            assert!(
                (placement.cycles - group.stats.cycles).abs() < 1e-6 * group.stats.cycles.max(1.0),
                "planned {} vs executed {}",
                placement.cycles,
                group.stats.cycles
            );
        }
    }

    #[test]
    fn tuned_records_their_backend_cannot_compile_are_not_followed() {
        // A store assembled in memory can carry a Neon record for a shape
        // the Neon generator cannot compile (column-major B). Routing must
        // ignore it as the cache's own preference does: route to SME, cost
        // the group on SME, and serve it undegraded.
        let router = Router::new(8);
        let fp32 = GemmConfig::ab(32, 16, 8);
        let cfg: AnyGemmConfig = fp32.into();
        router.cache().install_tuned_any(
            &cfg,
            TunedRecord {
                candidate: PlanCandidate {
                    backend: Backend::Neon,
                    ..PlanCandidate::default_for(&fp32)
                },
                tuned_cycles: 1.0,
                default_cycles: 1.0,
            },
        );
        assert_eq!(router.cache().preferred_backend_any(&cfg), Backend::Sme);
        assert_eq!(router.route_any(&cfg), Backend::Sme);

        let requests: Vec<GemmRequest> = (0..3).map(|i| GemmRequest::fp32(fp32, i)).collect();
        let report = router.dispatch(&requests).unwrap();
        let group = &report.batch.per_config[0];
        assert_eq!((group.backend, group.fallback_from), (Backend::Sme, None));
        let planned = report.placement.placements[0].cycles;
        assert!(
            (planned - group.stats.cycles).abs() < 1e-6 * group.stats.cycles,
            "planned {planned} vs executed {}",
            group.stats.cycles
        );
    }

    #[test]
    fn widening_shapes_route_across_both_engines() {
        use sme_gemm::WideningGemmConfig;
        let dense: AnyGemmConfig = WideningGemmConfig::new(32, 32, 16).unwrap().into();
        let edgy: AnyGemmConfig = WideningGemmConfig::new(48, 40, 64).unwrap().into();
        let thin: AnyGemmConfig = WideningGemmConfig::new(16, 4, 8).unwrap().into();

        // Both engines compile every envelope shape, so pinning either
        // one through the service never needs a fallback.
        let router = Router::new(8);
        for backend in [Backend::Sme, Backend::Neon] {
            assert_eq!(pinned(&router, dense, backend), (backend, None));
            assert_eq!(pinned(&router, thin, backend), (backend, None));
        }

        // The router lands dense widening shapes — aligned or not — on the
        // SME units and thin shapes on the Neon BFMMLA baseline: the split
        // is a performance decision.
        assert_eq!(router.route_any(&dense), Backend::Sme);
        assert_eq!(router.route_any(&edgy), Backend::Sme);
        assert_eq!(router.route_any(&thin), Backend::Neon);

        // Tuning a widening shape installs a winner that routing follows.
        let outcome = router.tune_any(&dense, &TunerOptions::quick()).unwrap();
        assert_eq!(router.route_any(&dense), outcome.winner.backend);
        assert!(router.cache().lookup_tuned_any(&dense).is_some());
    }

    #[test]
    fn mixed_dtype_dispatch_records_telemetry_per_family() {
        use sme_gemm::WideningGemmConfig;
        let router = Router::new(16);
        let fp32 = GemmConfig::abt(32, 32, 8);
        let wide = WideningGemmConfig::new(32, 32, 8).unwrap();
        let requests = vec![
            GemmRequest::fp32(fp32, 1),
            GemmRequest::widening(wide, 2),
            GemmRequest::widening(wide, 3),
        ];
        let report = router.dispatch(&requests).unwrap();
        assert_eq!(report.batch.per_config.len(), 2);
        // Same shape, two telemetry entries — one per datatype.
        assert_eq!(router.telemetry().len(), 2);
        assert_eq!(router.telemetry().total_requests(), 3);
        // The JSON snapshot tags each shape with its dtype.
        let json = router.telemetry().to_json();
        assert!(json.contains("\"dtype\": \"WideningBf16\""));
        assert!(json.contains("\"dtype\": \"Fp32\""));
    }

    #[test]
    fn dispatch_results_are_identical_across_policies() {
        let requests: Vec<GemmRequest> = (0..4)
            .map(|i| GemmRequest::fp32(GemmConfig::abt(32, 16, 8), 40 + i))
            .collect();
        let router = Router::new(8);
        let measured = router.dispatch(&requests).unwrap();
        let sme = router
            .service()
            .dispatch_routed(&requests, |_| Backend::Sme)
            .unwrap();
        let neon = router
            .service()
            .dispatch_routed(&requests, |_| Backend::Neon)
            .unwrap();
        assert_eq!(sme.per_config[0].backend, Backend::Sme);
        assert_eq!(neon.per_config[0].backend, Backend::Neon);
        assert_eq!(measured.batch.outputs, sme.outputs);
        assert_eq!(measured.batch.outputs, neon.outputs);
    }
}
