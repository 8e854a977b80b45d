//! The traced run: the same seeded calls, replayed through the public
//! calls each top-level call is made of, with a span around every one.
//!
//! A batch replays `Router::dispatch`: `route_any`; `fetch_any` +
//! `model_stats` for the routed kernel and the Neon alternative;
//! `plan_batch_placed`; per group (in the plan's execution order)
//! `fetch_any`, then per request `get_or_pack` and
//! `allocate_buffers_packed` + `run`; then `record_batch` +
//! `advance_epoch`. A tune replays `Router::tune_any`: enumerate, prune,
//! `generate_any_routed` + `model_stats` per candidate, install. A restart
//! replays `PretuneDaemon::restore`. No span is added inside the program;
//! `sme-obs` only records the benchmark's own spans and is never attached
//! to a router.
//!
//! The replay guard: every replayed call runs against a twin router driven
//! through the real `Router::dispatch` / `Router::tune_any` /
//! `PretuneDaemon::restore`, and must reproduce its outputs bit for bit,
//! its per-group simulated cycles, its placement and makespans, and its
//! tuned winners exactly — so the per-layer numbers cannot drift from the
//! program they describe.

use crate::oracle::Oracle;
use crate::stats;
use crate::workload::{self, Calls, Plan, StateDir};
use sme_gemm::{
    default_any_candidate, enumerate_any_candidates, generate_any_routed,
    prune_dominated_candidates, prune_dominated_widening_candidates, AnyGemmConfig, Backend,
    OperandImages, RoutedKernel,
};
use sme_machine::multicore::MulticoreModel;
use sme_machine::{ExecStats, RunOptions, Simulator};
use sme_obs::{validate_chrome_trace, SpanRecord, TraceCtx, TraceRecorder};
use sme_router::{
    plan_batch_placed, GroupCost, RoutedBatchReport, Router, ShapeStats, TelemetryRegistry,
};
use sme_runtime::{
    tune_key_any, BatchReport, ConfigReport, GemmRequest, PlanStore, TuneOutcome, TunerOptions,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Records the benchmark's spans (never attached to the program).
struct Tracer(TraceRecorder);

impl Tracer {
    /// Time `f` as a span named `name`, a child of `parent` (a new trace
    /// when `None`).
    fn span<T>(
        &self,
        name: &'static str,
        parent: Option<TraceCtx>,
        f: impl FnOnce(TraceCtx) -> T,
    ) -> T {
        self.named(parent, |ctx| (f(ctx), name))
    }

    /// [`Tracer::span`] whose name depends on the outcome (a kernel fetch
    /// is a hit or a miss).
    fn named<T>(
        &self,
        parent: Option<TraceCtx>,
        f: impl FnOnce(TraceCtx) -> (T, &'static str),
    ) -> T {
        let ctx = match parent {
            Some(parent) => self.0.child_ctx(parent),
            None => self.0.root_ctx(),
        };
        let started = Instant::now();
        let (out, name) = f(ctx);
        let layer = name.split('.').next().unwrap_or(name);
        self.0.record_ctx(name, layer, started, ctx, Vec::new());
        out
    }

    /// `fetch_any` as a `runtime.cache.hit` or `runtime.cache.miss` span (a
    /// miss compiles the kernel inside the call).
    fn fetch(
        &self,
        router: &Router,
        config: &AnyGemmConfig,
        backend: Backend,
        parent: TraceCtx,
    ) -> Option<(Arc<RoutedKernel>, bool)> {
        self.named(Some(parent), |_| {
            match router.cache().fetch_any(config, backend) {
                Ok((kernel, hit)) => {
                    let name = if hit {
                        "runtime.cache.hit"
                    } else {
                        "runtime.cache.miss"
                    };
                    (Some((kernel, hit)), name)
                }
                Err(_) => (None, "runtime.cache.miss"),
            }
        })
    }
}

/// Counts gathered around the replayed calls (per-layer work counts).
#[derive(Debug, Default)]
struct Counters {
    calls: u64,
    probes: u64,
    place_model_runs: u64,
    rerouted: u64,
    isolated_cycles: f64,
    placed_cycles: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    pack_hits: u64,
    pack_misses: u64,
    pack_resident_bytes: usize,
    insts: u64,
    kernels_compiled: u64,
    tune_tried: u64,
    tune_pruned: u64,
    tune_wins: u64,
    traced_s: f64,
    untraced_s: f64,
    guard_failures: u64,
}

/// One executed group, kept for the functional-only / timing-only re-runs.
struct GroupRun {
    kernel: Arc<RoutedKernel>,
    operands: Vec<(u64, Arc<OperandImages>)>,
}

/// The traced run's result.
pub struct Traced {
    pub oracle: Oracle,
    pub guard_failures: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub table: String,
    pub calls: u64,
    pub spans: usize,
}

/// The per-layer metrics, in `BENCHMARK.json` order, with units.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("router.place.ms", "ms"),
    ("router.place.timing_sims", "count"),
    ("router.place.makespan_gain", "ratio"),
    ("router.place.rerouted", "count"),
    ("router.route.ms", "ms"),
    ("router.route.probes", "count"),
    ("router.telemetry.ms", "ms"),
    ("router.daemon.restore_ms", "ms"),
    ("runtime.persist.load_ms", "ms"),
    ("runtime.cache.hit_ratio", "ratio"),
    ("runtime.cache.miss_ms", "ms"),
    ("runtime.cache.evictions", "count"),
    ("runtime.pack.hit_ratio", "ratio"),
    ("runtime.pack.ms", "ms"),
    ("runtime.pack.resident_mb", "MB"),
    ("runtime.service.ms", "ms"),
    ("runtime.service.longest_group_ms", "ms"),
    ("runtime.tuner.ms", "ms"),
    ("runtime.tuner.candidates", "count"),
    ("runtime.tuner.pruned_ratio", "ratio"),
    ("runtime.tuner.win_ratio", "ratio"),
    ("gemm.codegen.ms", "ms"),
    ("gemm.codegen.kernels", "count"),
    ("machine.exec.ms", "ms"),
    ("machine.exec.insts", "count"),
    ("machine.exec.minst_per_s", "Minst/s"),
    ("machine.functional.ms", "ms"),
    ("machine.timing.ms", "ms"),
    ("machine.model.ms", "ms"),
    ("bench.call_ms", "ms"),
    ("bench.traced_untraced_ratio", "ratio"),
];

/// Run one traced pass of `plan` (after `restarts` traced restarts) and
/// write the spans as a Chrome trace to `trace_out`.
pub fn run(
    plan: &Plan,
    state: &StateDir,
    restarts: usize,
    trace_out: &Path,
) -> Result<Traced, String> {
    let tracer = Tracer(TraceRecorder::new(1 << 22));
    let model = MulticoreModel::new(sme_machine::MachineConfig::apple_m4());
    let mut oracle = Oracle::default();
    let mut c = Counters::default();
    let mut seen: HashSet<AnyGemmConfig> = HashSet::new();
    let mut routers = None;
    for _ in 0..restarts.max(1) {
        routers = Some(restart(
            &tracer,
            plan,
            state,
            &mut oracle,
            &mut c,
            &mut seen,
        )?);
    }
    let (router, twin) = routers.expect("at least one restart");
    match &plan.pass {
        Calls::Batches(batches) => {
            for batch in batches {
                let cache_before = router.cache().stats();
                let resident_before = router.cache().len() as u64;
                let pack_before = router.cache().packs().stats();
                let started = Instant::now();
                let (replayed, runs) =
                    replay_batch(&tracer, &router, &model, &mut seen, batch, &mut c)?;
                c.traced_s += started.elapsed().as_secs_f64();
                let cache = router.cache().stats();
                let pack = router.cache().packs().stats();
                c.cache_hits += cache.hits - cache_before.hits;
                c.cache_misses += cache.misses - cache_before.misses;
                c.cache_evictions += cache.evictions - cache_before.evictions;
                // Every compiled kernel is inserted (possibly evicting); a
                // miss whose generator rejects the shape inserts nothing.
                c.kernels_compiled += router.cache().len() as u64 + cache.evictions
                    - cache_before.evictions
                    - resident_before;
                c.pack_hits += pack.hits - pack_before.hits;
                c.pack_misses += pack.misses - pack_before.misses;
                c.insts += replayed.batch.total.instructions;
                c.rerouted += replayed.rerouted.len() as u64;
                c.isolated_cycles += replayed.isolated.makespan_cycles();
                c.placed_cycles += replayed.placement.makespan_cycles();
                workload::check_batch(&mut oracle, batch, &replayed);

                let started = Instant::now();
                let real = twin.dispatch(batch);
                c.untraced_s += started.elapsed().as_secs_f64();
                let real = real.map_err(|e| format!("twin dispatch: {e}"))?;
                if let Err(why) = same_batch(&replayed, &real) {
                    c.guard_failures += 1;
                    eprintln!("error: replay guard: batch {}: {why}", c.calls);
                }
                rerun_split(&tracer, &runs);
                c.calls += 1;
            }
            c.pack_resident_bytes = router.cache().packs().resident_bytes();
        }
        Calls::Tunes(shapes) => {
            let opts = TunerOptions::default();
            for request in shapes {
                let started = Instant::now();
                let replayed = replay_tune(&tracer, &router, &request.config, &opts)?;
                c.traced_s += started.elapsed().as_secs_f64();
                c.tune_tried += replayed.candidates_tried as u64;
                c.tune_pruned += replayed.candidates_pruned as u64;
                c.tune_wins += workload::is_win(&replayed) as u64;
                c.kernels_compiled += replayed.candidates_tried as u64;
                workload::check_winner(&mut oracle, request, &replayed);

                let started = Instant::now();
                let real = twin.tune_any(&request.config, &opts);
                c.untraced_s += started.elapsed().as_secs_f64();
                let real = real.map_err(|e| format!("twin tune: {e}"))?;
                let installed = router.cache().lookup_tuned_any(&request.config);
                if replayed != real || installed != twin.cache().lookup_tuned_any(&request.config) {
                    c.guard_failures += 1;
                    eprintln!("error: replay guard: tune of {} diverged", request.config);
                }
                c.calls += 1;
            }
        }
    }

    let text = tracer.0.to_chrome_trace();
    let spans = validate_chrome_trace(&text).map_err(|e| format!("invalid Chrome trace: {e}"))?;
    if spans != tracer.0.len() || tracer.0.dropped() > 0 {
        return Err(format!("trace kept {spans} of {} spans", tracer.0.len()));
    }
    std::fs::write(trace_out, text).map_err(|e| format!("write {}: {e}", trace_out.display()))?;
    let breakdown = Breakdown::new(&tracer.0.snapshot());
    Ok(Traced {
        guard_failures: c.guard_failures,
        metrics: breakdown.metrics(&c),
        table: breakdown.table(),
        calls: c.calls,
        spans,
        oracle,
    })
}

/// A traced restart of the replay router, plus its twin restored by the
/// daemon itself; the guard compares the restored state.
fn restart(
    t: &Tracer,
    plan: &Plan,
    state: &StateDir,
    oracle: &mut Oracle,
    c: &mut Counters,
    seen: &mut HashSet<AnyGemmConfig>,
) -> Result<(Router, Router), String> {
    let daemon = state.daemon(plan.pretune_top_n);
    let paths = daemon.config().clone();
    let (router, warm) = t.span("bench.restart", None, |root| {
        let router = t.span("router.new", Some(root), |_| {
            Router::new(plan.cache_capacity)
        });
        t.span("router.daemon.restore", Some(root), |restore| {
            if paths.telemetry_path.exists() {
                let recovered = t.span("runtime.persist.load", Some(restore), |_| {
                    TelemetryRegistry::load_recovered(&paths.telemetry_path, router.machine())
                });
                t.span("router.telemetry.restore", Some(restore), |_| {
                    router.telemetry().restore_from(recovered.registry)
                });
            }
            if paths.store_path.exists() {
                let recovered = t.span("runtime.persist.load", Some(restore), |_| {
                    PlanStore::load_recovered(&paths.store_path, router.machine())
                });
                t.span("runtime.cache.replace_store", Some(restore), |_| {
                    router.cache().replace_store(recovered.store)
                });
            }
        });
        let warm = (!plan.warmup.is_empty()).then(|| {
            t.span("bench.warmup", Some(root), |_| {
                router.dispatch(&plan.warmup)
            })
        });
        (router, warm)
    });
    let twin = Router::new(plan.cache_capacity);
    daemon
        .restore(&twin)
        .map_err(|e| format!("twin restore: {e}"))?;
    seen.clear();
    if let Some(warm) = warm {
        let warm = warm.map_err(|e| format!("warm-up dispatch: {e}"))?;
        workload::check_batch(oracle, &plan.warmup, &warm);
        twin.dispatch(&plan.warmup)
            .map_err(|e| format!("twin warm-up dispatch: {e}"))?;
        // The warm-up routed every one of its shapes (probing the untuned
        // ones), exactly as the twin's did.
        seen.extend(plan.warmup.iter().map(|r| r.config));
    }
    if telemetry_state(&router) != telemetry_state(&twin)
        || router.cache().export_store() != twin.cache().export_store()
    {
        c.guard_failures += 1;
        eprintln!("error: replay guard: restored state differs from PretuneDaemon::restore");
    }
    Ok((router, twin))
}

/// A router's restored telemetry, independent of hash-map order.
fn telemetry_state(router: &Router) -> (u64, u64, Vec<ShapeStats>) {
    let telemetry = router.telemetry();
    let mut shapes = telemetry.top_shapes(telemetry.len());
    shapes.sort_by_key(|s| s.config.ordering_key());
    (telemetry.epoch(), telemetry.total_requests(), shapes)
}

/// Replay one `Router::dispatch` of `requests` (Measured policy).
fn replay_batch(
    t: &Tracer,
    router: &Router,
    model: &MulticoreModel,
    seen: &mut HashSet<AnyGemmConfig>,
    requests: &[GemmRequest],
    c: &mut Counters,
) -> Result<(RoutedBatchReport, Vec<GroupRun>), String> {
    t.span("router.dispatch", None, |root| {
        // Distinct configurations in first-appearance order.
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

        let plan = t.span("router.place", Some(root), |place| {
            let model_cycles = |kernel: Option<(Arc<RoutedKernel>, bool)>, runs: &mut u64| {
                kernel.map(|(kernel, _)| {
                    *runs += 1;
                    t.span("machine.model", Some(place), |_| {
                        kernel.model_stats().cycles
                    })
                })
            };
            let mut costs = Vec::with_capacity(groups.len());
            for (config, indices) in &groups {
                let n = indices.len() as f64;
                // `Measured` probes an untuned shape the first time it is
                // routed; the probe runs inside `route_any`.
                if router.cache().lookup_tuned_any(config).is_none() && seen.insert(*config) {
                    c.probes += 1;
                }
                let backend = t.span("router.route", Some(place), |_| router.route_any(config));
                let routed = t.fetch(router, config, backend, place);
                let cycles =
                    model_cycles(routed, &mut c.place_model_runs).map_or(0.0, |cycles| cycles * n);
                let alt_cycles = match backend {
                    Backend::Sme => {
                        let alt = t.fetch(router, config, Backend::Neon, place);
                        model_cycles(alt, &mut c.place_model_runs).map(|cycles| cycles * n)
                    }
                    Backend::Neon => None,
                };
                costs.push(GroupCost {
                    config: *config,
                    backend,
                    cycles,
                    alt_cycles,
                });
            }
            t.span("router.planner", Some(place), |_| {
                plan_batch_placed(&costs, model)
            })
        });

        let backend_of: HashMap<AnyGemmConfig, Backend> = plan
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
            .map(|(p, priority)| (p.config, priority))
            .collect();
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by(|&a, &b| {
            priority[&groups[b].0]
                .partial_cmp(&priority[&groups[a].0])
                .expect("priorities are finite")
        });

        let mut outputs: Vec<Vec<f32>> = vec![Vec::new(); requests.len()];
        let mut executed: Vec<Option<ConfigReport>> = vec![None; groups.len()];
        let mut runs = Vec::with_capacity(groups.len());
        t.span(
            "runtime.service",
            Some(root),
            |service| -> Result<(), String> {
                for g in order {
                    let (config, indices) = &groups[g];
                    let backend = backend_of[config];
                    t.span(
                        "runtime.service.group",
                        Some(service),
                        |group| -> Result<(), String> {
                            let (kernel, cache_hit) =
                                t.fetch(router, config, backend, group).ok_or_else(|| {
                                    format!("{config} does not compile for {backend:?}")
                                })?;
                            let mut sim = Simulator::m4_performance();
                            let mut stats = ExecStats::default();
                            let mut pack_hits = 0;
                            let mut operands = Vec::with_capacity(indices.len());
                            for &index in indices {
                                let seed = requests[index].seed;
                                let (images, pack_hit) =
                                    t.span("runtime.pack", Some(group), |_| {
                                        router.cache().packs().get_or_pack(&kernel, seed)
                                    });
                                pack_hits += pack_hit as usize;
                                let (bufs, result) = t.span("machine.exec", Some(group), |_| {
                                    let bufs =
                                        kernel.allocate_buffers_packed(&mut sim, seed, &images);
                                    (bufs, kernel.run(&mut sim, bufs, &RunOptions::default()))
                                });
                                stats.merge(&result.stats);
                                outputs[index] = sim.mem.read_f32_slice(bufs.c, config.c_len());
                                operands.push((seed, images));
                            }
                            executed[g] = Some(ConfigReport {
                                config: *config,
                                dtype: config.dtype(),
                                backend,
                                fallback_from: None,
                                cache_hit,
                                requests: indices.len(),
                                pack_hits,
                                stats,
                            });
                            runs.push(GroupRun { kernel, operands });
                            Ok(())
                        },
                    )?;
                }
                Ok(())
            },
        )?;

        let mut total = ExecStats::default();
        let per_config: Vec<ConfigReport> = executed
            .into_iter()
            .map(|group| group.expect("every group executed"))
            .inspect(|group| total.merge(&group.stats))
            .collect();
        let batch = BatchReport {
            outputs,
            per_config,
            failures: Vec::new(),
            total,
        };
        t.span("router.telemetry", Some(root), |_| {
            router.telemetry().record_batch(&batch);
            router.telemetry().advance_epoch();
        });
        Ok((
            RoutedBatchReport {
                batch,
                placement: plan.placement,
                isolated: plan.isolated,
                rerouted: plan.rerouted,
            },
            runs,
        ))
    })
}

/// The guard's comparison of a replayed batch with the real dispatch.
fn same_batch(replayed: &RoutedBatchReport, real: &RoutedBatchReport) -> Result<(), String> {
    let bits = |outputs: &[Vec<f32>]| -> Vec<Vec<u32>> {
        outputs
            .iter()
            .map(|o| o.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    if bits(&replayed.batch.outputs) != bits(&real.batch.outputs) {
        return Err("outputs differ".into());
    }
    let groups = |r: &RoutedBatchReport| -> Vec<(AnyGemmConfig, Backend, usize, u64, u64)> {
        r.batch
            .per_config
            .iter()
            .map(|g| {
                (
                    g.config,
                    g.backend,
                    g.requests,
                    g.stats.cycles.to_bits(),
                    g.stats.instructions,
                )
            })
            .collect()
    };
    if groups(replayed) != groups(real) {
        return Err("per-group backends or simulated cycles differ".into());
    }
    if replayed.placement != real.placement
        || replayed.isolated != real.isolated
        || replayed.rerouted != real.rerouted
    {
        return Err("placement or makespan differs".into());
    }
    Ok(())
}

/// Re-run each executed group functional-only and timing-only, outside
/// the replayed call, to split `machine.exec` into its two halves.
fn rerun_split(t: &Tracer, runs: &[GroupRun]) {
    t.span("bench.sim_split", None, |root| {
        for run in runs {
            for (name, opts) in [
                ("machine.functional", RunOptions::functional_only()),
                ("machine.timing", RunOptions::timing_only()),
            ] {
                t.span(name, Some(root), |_| {
                    let mut sim = Simulator::m4_performance();
                    for (seed, images) in &run.operands {
                        let bufs = run.kernel.allocate_buffers_packed(&mut sim, *seed, images);
                        std::hint::black_box(run.kernel.run(&mut sim, bufs, &opts));
                    }
                });
            }
        }
    });
}

/// Replay one `Router::tune_any` (the tuner's candidate loop, serially).
fn replay_tune(
    t: &Tracer,
    router: &Router,
    cfg: &AnyGemmConfig,
    opts: &TunerOptions,
) -> Result<TuneOutcome, String> {
    t.span("router.tune", None, |root| {
        let fail = |e: sme_gemm::GemmError| format!("tune {cfg}: {e}");
        cfg.validate().map_err(fail)?;
        let default = default_any_candidate(cfg);
        let enumerated: Vec<_> = t.span("runtime.tuner.enumerate", Some(root), |_| {
            enumerate_any_candidates(cfg)
                .into_iter()
                .filter(|c| {
                    c.backend != Backend::Sme
                        || ((opts.sweep_transfer || c.c_transfer == default.c_transfer)
                            && (opts.sweep_k_unroll || c.k_unroll == default.k_unroll)
                            && (opts.sweep_schedule || c.schedule == default.schedule))
                })
                .filter(|c| opts.sweep_backends || c.backend == default.backend)
                .collect()
        });
        let candidates = t.span("runtime.tuner.prune", Some(root), |_| {
            match (opts.prefilter, cfg) {
                (true, AnyGemmConfig::Fp32(c)) => prune_dominated_candidates(c, enumerated.clone()),
                (true, AnyGemmConfig::WideningBf16(c)) => {
                    prune_dominated_widening_candidates(c, enumerated.clone())
                }
                _ => enumerated.clone(),
            }
        });
        let mut default_cycles = None;
        let mut best: Option<(sme_gemm::PlanCandidate, f64)> = None;
        for candidate in &candidates {
            let kernel = t
                .span("gemm.codegen", Some(root), |_| {
                    generate_any_routed(cfg, candidate)
                })
                .map_err(fail)?;
            let cycles = t.span("machine.model", Some(root), |_| kernel.model_stats().cycles);
            if *candidate == default {
                default_cycles = Some(cycles);
            }
            let better = match &best {
                None => true,
                Some((best_candidate, best_cycles)) => {
                    cycles < *best_cycles
                        || (cycles == *best_cycles
                            && *candidate == default
                            && *best_candidate != default)
                }
            };
            if better {
                best = Some((*candidate, cycles));
            }
        }
        let (winner, tuned_cycles) = best.ok_or_else(|| format!("tune {cfg}: no candidates"))?;
        let outcome = TuneOutcome {
            key: tune_key_any(cfg),
            winner,
            tuned_cycles,
            default_cycles: default_cycles.ok_or_else(|| format!("tune {cfg}: default pruned"))?,
            candidates_tried: candidates.len(),
            candidates_pruned: enumerated.len() - candidates.len(),
        };
        t.span("runtime.cache.install", Some(root), |_| {
            router.cache().install_tuned_any(cfg, outcome.record())
        });
        Ok(outcome)
    })
}

/// Span durations of one traced run, split by trace.
struct Breakdown {
    calls: f64,
    /// Inclusive and self microseconds per span name, over the calls.
    inclusive_us: BTreeMap<String, f64>,
    self_us: BTreeMap<String, f64>,
    call_us: f64,
    longest_group_us: f64,
    /// Per restart: `router.daemon.restore` and `runtime.persist.load` µs.
    restarts: Vec<(f64, f64)>,
    /// `machine.functional` / `machine.timing` re-run µs.
    split_us: (f64, f64),
}

impl Breakdown {
    fn new(spans: &[SpanRecord]) -> Breakdown {
        let mut children_us: HashMap<u64, f64> = HashMap::new();
        for span in spans {
            if let Some(parent) = span.parent_id {
                *children_us.entry(parent).or_default() += span.dur_us;
            }
        }
        let root_name: HashMap<u64, &str> = spans
            .iter()
            .filter(|s| s.parent_id.is_none())
            .map(|s| (s.trace_id, s.name.as_str()))
            .collect();
        let mut b = Breakdown {
            calls: 0.0,
            inclusive_us: BTreeMap::new(),
            self_us: BTreeMap::new(),
            call_us: 0.0,
            longest_group_us: 0.0,
            restarts: Vec::new(),
            split_us: (0.0, 0.0),
        };
        let mut longest: HashMap<u64, f64> = HashMap::new();
        let mut restarts: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for span in spans {
            let kind = root_name.get(&span.trace_id).copied().unwrap_or("");
            match kind {
                "router.dispatch" | "router.tune" => {
                    let own = (span.dur_us
                        - children_us.get(&span.span_id).copied().unwrap_or(0.0))
                    .max(0.0);
                    *b.inclusive_us.entry(span.name.clone()).or_default() += span.dur_us;
                    *b.self_us.entry(span.name.clone()).or_default() += own;
                    if span.parent_id.is_none() {
                        b.calls += 1.0;
                        b.call_us += span.dur_us;
                    }
                    if span.name == "runtime.service.group" {
                        let max = longest.entry(span.trace_id).or_default();
                        *max = max.max(span.dur_us);
                    }
                }
                "bench.restart" => {
                    let entry = restarts.entry(span.trace_id).or_default();
                    match span.name.as_str() {
                        "router.daemon.restore" => entry.0 += span.dur_us,
                        "runtime.persist.load" => entry.1 += span.dur_us,
                        _ => {}
                    }
                }
                "bench.sim_split" => match span.name.as_str() {
                    "machine.functional" => b.split_us.0 += span.dur_us,
                    "machine.timing" => b.split_us.1 += span.dur_us,
                    _ => {}
                },
                _ => {}
            }
        }
        b.longest_group_us = longest.values().fold(0.0, |sum, us| sum + us);
        b.restarts = restarts.into_values().collect();
        b
    }

    /// Mean inclusive milliseconds of `names` spans per call.
    fn per_call_ms(&self, names: &[&str]) -> f64 {
        let us: f64 = names
            .iter()
            .map(|n| self.inclusive_us.get(*n).copied().unwrap_or(0.0))
            .sum();
        us / self.calls.max(1.0) / 1e3
    }

    fn metrics(&self, c: &Counters) -> Vec<(&'static str, &'static str, f64)> {
        let calls = self.calls.max(1.0);
        let ratio = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        let restore_ms =
            stats::median(&self.restarts.iter().map(|r| r.0 / 1e3).collect::<Vec<_>>());
        let load_ms = stats::median(&self.restarts.iter().map(|r| r.1 / 1e3).collect::<Vec<_>>());
        let exec_ms = self.per_call_ms(&["machine.exec"]);
        let value = |name: &str| -> f64 {
            match name {
                "router.place.ms" => self.per_call_ms(&["router.place"]),
                "router.place.timing_sims" => c.place_model_runs as f64 / calls,
                "router.place.makespan_gain" => {
                    if c.placed_cycles > 0.0 {
                        c.isolated_cycles / c.placed_cycles
                    } else {
                        0.0
                    }
                }
                "router.place.rerouted" => c.rerouted as f64 / calls,
                "router.route.ms" => self.per_call_ms(&["router.route"]),
                "router.route.probes" => c.probes as f64 / calls,
                "router.telemetry.ms" => self.per_call_ms(&["router.telemetry"]),
                "router.daemon.restore_ms" => restore_ms,
                "runtime.persist.load_ms" => load_ms,
                "runtime.cache.hit_ratio" => ratio(c.cache_hits, c.cache_hits + c.cache_misses),
                "runtime.cache.miss_ms" => self.per_call_ms(&["runtime.cache.miss"]),
                "runtime.cache.evictions" => c.cache_evictions as f64 / calls,
                "runtime.pack.hit_ratio" => ratio(c.pack_hits, c.pack_hits + c.pack_misses),
                "runtime.pack.ms" => self.per_call_ms(&["runtime.pack"]),
                "runtime.pack.resident_mb" => c.pack_resident_bytes as f64 / (1u64 << 20) as f64,
                "runtime.service.ms" => self.per_call_ms(&["runtime.service"]),
                "runtime.service.longest_group_ms" => self.longest_group_us / calls / 1e3,
                "runtime.tuner.ms" => self.per_call_ms(&["router.tune"]),
                "runtime.tuner.candidates" => c.tune_tried as f64 / calls,
                "runtime.tuner.pruned_ratio" => ratio(c.tune_pruned, c.tune_tried + c.tune_pruned),
                "runtime.tuner.win_ratio" => {
                    if c.tune_tried == 0 {
                        0.0
                    } else {
                        c.tune_wins as f64 / calls
                    }
                }
                "gemm.codegen.ms" => self.per_call_ms(&["gemm.codegen", "runtime.cache.miss"]),
                "gemm.codegen.kernels" => c.kernels_compiled as f64 / calls,
                "machine.exec.ms" => exec_ms,
                "machine.exec.insts" => c.insts as f64 / calls,
                "machine.exec.minst_per_s" => {
                    if exec_ms > 0.0 {
                        c.insts as f64 / calls / (exec_ms * 1e3)
                    } else {
                        0.0
                    }
                }
                "machine.functional.ms" => self.split_us.0 / calls / 1e3,
                "machine.timing.ms" => self.split_us.1 / calls / 1e3,
                "machine.model.ms" => self.per_call_ms(&["machine.model"]),
                "bench.call_ms" => self.call_us / calls / 1e3,
                "bench.traced_untraced_ratio" => c.traced_s / c.untraced_s,
                other => unreachable!("unknown per-layer metric {other}"),
            }
        };
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, value(name)))
            .collect()
    }

    /// Each span name's self time per call and share of the traced call.
    fn table(&self) -> String {
        let mut rows: Vec<(&String, &f64)> = self.self_us.iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(a.1));
        let mut out = format!(
            "{:<28} {:>12} {:>8}\n",
            "layer (span)", "self ms/call", "share"
        );
        for (name, us) in rows {
            out += &format!(
                "{:<28} {:>12.4} {:>7.2}%\n",
                name,
                us / self.calls.max(1.0) / 1e3,
                100.0 * us / self.call_us.max(f64::MIN_POSITIVE)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{prime, shortened, Workload};

    #[test]
    fn the_replay_reproduces_every_real_call() {
        let root = std::env::temp_dir().join(format!("hostbench-replay-{}", std::process::id()));
        for workload in Workload::ALL {
            let plan = shortened(workload, 7);
            let state = StateDir::create(&root, workload, 7).expect("state dir");
            prime(&plan, &state).expect("priming");
            let trace = state.0.join("trace.json");
            let traced = run(&plan, &state, 2, &trace).expect("traced run");
            assert_eq!(traced.guard_failures, 0, "{}", workload.name());
            assert_eq!(traced.oracle.failed, 0, "{}", workload.name());
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            assert!(traced.spans > 0 && trace.exists());
        }
        let _ = std::fs::remove_dir_all(root);
    }
}
