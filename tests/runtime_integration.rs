//! End-to-end test of the `sme-runtime` subsystem, covering the three
//! acceptance properties of the runtime PR:
//!
//! (a) a second request for the same `GemmConfig` is served from the cache
//!     without invoking the generator (counter-verified);
//! (b) the autotuned plan's simulated cycle count is never above the
//!     default heterogeneous plan's across a representative shape sweep;
//! (c) batched mixed-configuration dispatch results bit-match the
//!     per-config reference executions.

use hello_sme::sme_gemm::reference::{fill_matrix, gemm_reference, max_abs_diff};
use hello_sme::sme_gemm::{generate, GemmConfig};
use hello_sme::sme_machine::exec::{RunOptions, Simulator};
use hello_sme::sme_runtime::{GemmRequest, GemmService, KernelCache, PlanStore, TunerOptions};

#[test]
fn cache_serves_repeats_without_regenerating() {
    let cache = KernelCache::new(32);
    let cfg = GemmConfig::abt(48, 48, 32).into();

    let first = cache.get_or_compile_any(&cfg).expect("valid configuration");
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (0, 1), "first request compiles");

    // The second request must be a pure cache hit: the miss counter (which
    // counts exactly the generator invocations) stays put, and the very
    // same Arc'd kernel object comes back.
    let second = cache.get_or_compile_any(&cfg).expect("valid configuration");
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (1, 1),
        "second request is a hit"
    );
    assert!(std::sync::Arc::ptr_eq(&first, &second));

    // A different configuration is an independent miss.
    cache
        .get_or_compile_any(&GemmConfig::abt(48, 48, 33).into())
        .expect("valid configuration");
    assert_eq!(cache.stats().misses, 2);
}

#[test]
fn autotuned_plans_never_model_slower_than_the_default() {
    // A representative sweep: square, wide, tall, thin-strip and
    // non-multiple-of-16 shapes, plus a column-major case.
    let shapes: Vec<GemmConfig> = vec![
        GemmConfig::abt(16, 16, 64),
        GemmConfig::abt(32, 32, 64),
        GemmConfig::abt(48, 48, 64),
        GemmConfig::abt(64, 64, 64),
        GemmConfig::abt(80, 80, 64),
        GemmConfig::abt(33, 47, 64),
        GemmConfig::abt(64, 16, 64),
        GemmConfig::abt(16, 64, 64),
        GemmConfig::abt(96, 32, 64),
        GemmConfig::ab(48, 48, 64),
    ];
    let mut store = PlanStore::new();
    for cfg in &shapes {
        let outcome = hello_sme::sme_runtime::tune_any_into_store(
            &(*cfg).into(),
            &TunerOptions::default(),
            &mut store,
        )
        .expect("tunable configuration");
        assert!(
            outcome.tuned_cycles <= outcome.default_cycles,
            "{cfg}: tuned {} cycles > default {} cycles",
            outcome.tuned_cycles,
            outcome.default_cycles
        );
        // The reported default really is the default kernel's cycle count.
        let default_cycles = generate(cfg).expect("valid").model_stats().cycles;
        assert!(
            (outcome.default_cycles - default_cycles).abs() < 1e-9 * default_cycles.max(1.0),
            "{cfg}: tuner's default score drifted"
        );
    }
    // Winners survive a JSON round trip and drive a cache.
    let reloaded = PlanStore::from_json(&store.to_json()).expect("well-formed document");
    assert_eq!(reloaded.len(), shapes.len());
    let cache = KernelCache::with_store(64, reloaded);
    for cfg in &shapes {
        cache
            .get_or_compile_any(&(*cfg).into())
            .expect("valid configuration");
    }
    assert_eq!(cache.stats().tuned_compiles, shapes.len() as u64);
}

#[test]
fn batched_mixed_dispatch_bit_matches_per_config_execution() {
    let service = GemmService::new(32);
    // Mixed traffic: three distinct configurations, interleaved, with
    // repeats, covering both B layouts.
    let configs = [
        GemmConfig::abt(20, 12, 6),
        GemmConfig::ab(16, 16, 8),
        GemmConfig::abt(33, 17, 5),
    ];
    let requests: Vec<GemmRequest> = (0..9)
        .map(|i| GemmRequest::fp32(configs[i % 3], 1000 + i as u64))
        .collect();
    let report = service.dispatch(&requests).expect("valid batch");
    assert_eq!(report.outputs.len(), requests.len());
    assert_eq!(report.per_config.len(), 3);

    for (request, output) in requests.iter().zip(&report.outputs) {
        let cfg = request.config.as_fp32().expect("FP32 request");
        // Reference 1 (bit-match): the same kernel executed standalone on a
        // fresh simulator must produce the identical bits — grouping,
        // caching and host-thread fan-out may not perturb results.
        let kernel = generate(cfg).expect("valid configuration");
        let mut sim = Simulator::m4_performance();
        let bufs = kernel.allocate_buffers(&mut sim, Some(request.seed));
        kernel.run(&mut sim, bufs, &RunOptions::functional_only());
        let standalone = sim.mem.read_f32_slice(bufs.c, cfg.c_len());
        assert_eq!(
            output, &standalone,
            "{cfg}: dispatch output diverged from standalone execution"
        );

        // Reference 2 (numerical): the scalar reference GEMM agrees within
        // the usual FP32 reassociation tolerance.
        let mut a = vec![0.0f32; cfg.a_len()];
        let mut b = vec![0.0f32; cfg.b_len()];
        let mut c = vec![0.0f32; cfg.c_len()];
        fill_matrix(request.seed, &mut a);
        fill_matrix(request.seed ^ 0x1111_1111, &mut b);
        fill_matrix(request.seed ^ 0x2222_2222, &mut c);
        gemm_reference(cfg, &a, &b, &mut c);
        let err = max_abs_diff(output, &c);
        assert!(err < 1e-4, "{cfg}: max abs error vs reference {err}");
    }

    // Per-config aggregation covers the whole batch exactly once.
    let total_requests: usize = report.per_config.iter().map(|c| c.requests).sum();
    assert_eq!(total_requests, requests.len());
    let summed_cycles: f64 = report.per_config.iter().map(|c| c.stats.cycles).sum();
    assert!((report.total.cycles - summed_cycles).abs() < 1e-6 * summed_cycles.max(1.0));
}

#[test]
fn tuned_dispatch_preserves_results_and_cycles() {
    // The full loop: dispatch untuned, tune, dispatch again — same bits,
    // no more simulated cycles, and the tuned compile is counter-visible.
    let service = GemmService::new(32);
    let cfg = GemmConfig::abt(64, 64, 32);
    let requests: Vec<GemmRequest> = (0..3).map(|seed| GemmRequest::fp32(cfg, seed)).collect();
    let untuned = service.dispatch(&requests).expect("valid batch");
    let outcome = service
        .tune_any(&cfg.into(), &TunerOptions::default())
        .expect("tunable configuration");
    assert!(outcome.tuned_cycles <= outcome.default_cycles);
    let tuned = service.dispatch(&requests).expect("valid batch");
    assert_eq!(
        untuned.outputs, tuned.outputs,
        "tuning must not change results"
    );
    assert!(tuned.total.cycles <= untuned.total.cycles * (1.0 + 1e-9));
    assert_eq!(service.cache().stats().tuned_compiles, 1);
}

#[test]
fn mixed_dtype_routed_dispatch_with_tuned_winners() {
    // The PR 4 acceptance property: one batch mixing FP32 and BF16
    // widening requests through `dispatch_routed`, with FP32 outputs
    // bit-identical to the scalar reference and BF16 outputs within the
    // widening tolerance of the BF16-rounded oracle; cache hits, tuned
    // winners and per-dtype reporting all keyed on `AnyGemmConfig`.
    use hello_sme::sme_gemm::{
        widening_reference, widening_rel_error, AnyGemmConfig, Dtype, WideningGemmConfig,
        WIDENING_REL_TOL,
    };

    let service = GemmService::new(32);
    let fp32 = GemmConfig::abt(32, 32, 16);
    let wide = WideningGemmConfig::new(32, 32, 16).unwrap();
    let requests = [
        GemmRequest::fp32(fp32, 11),
        GemmRequest::widening(wide, 12),
        GemmRequest::fp32(fp32, 13),
        GemmRequest::widening(wide, 14),
    ];

    // Tune both families first: winners are recorded under the unified key
    // and drive the compile of each group's kernel.
    let fp32_outcome = service
        .tune_any(&AnyGemmConfig::Fp32(fp32), &TunerOptions::default())
        .expect("tunable FP32 shape");
    let wide_outcome = service
        .tune_any(&AnyGemmConfig::WideningBf16(wide), &TunerOptions::default())
        .expect("tunable widening shape");
    assert!(fp32_outcome.tuned_cycles <= fp32_outcome.default_cycles);
    assert!(wide_outcome.tuned_cycles <= wide_outcome.default_cycles);

    // Dispatch with an explicit per-config route following the winners.
    let cache = service.cache();
    let report = service
        .dispatch_routed(&requests, |cfg| cache.preferred_backend_any(cfg))
        .expect("valid mixed batch");
    assert_eq!(report.per_config.len(), 2);
    assert_eq!(report.per_config[0].dtype, Dtype::Fp32);
    assert_eq!(report.per_config[1].dtype, Dtype::WideningBf16);
    assert_eq!(report.per_config[0].backend, fp32_outcome.winner.backend);
    assert_eq!(report.per_config[1].backend, wide_outcome.winner.backend);
    assert_eq!(
        service.cache().stats().tuned_compiles,
        2,
        "both groups compiled from their tuned records"
    );

    for (request, output) in requests.iter().zip(&report.outputs) {
        match request.config {
            AnyGemmConfig::Fp32(cfg) => {
                // Bit-identical to the scalar reference path.
                let mut a = vec![0.0f32; cfg.a_len()];
                let mut b = vec![0.0f32; cfg.b_len()];
                let mut c = vec![0.0f32; cfg.c_len()];
                fill_matrix(request.seed, &mut a);
                fill_matrix(request.seed ^ 0x1111_1111, &mut b);
                fill_matrix(request.seed ^ 0x2222_2222, &mut c);
                gemm_reference(&cfg, &a, &b, &mut c);
                assert_eq!(output, &c, "{cfg}: FP32 output must bit-match");
            }
            AnyGemmConfig::WideningBf16(cfg) => {
                // Within the widening tolerance of the BF16-rounded oracle.
                let mut a = vec![0.0f32; cfg.m * cfg.k];
                let mut b = vec![0.0f32; cfg.k * cfg.n];
                let mut c = vec![0.0f32; cfg.c_len()];
                fill_matrix(request.seed, &mut a);
                fill_matrix(request.seed ^ 0x1111_1111, &mut b);
                fill_matrix(request.seed ^ 0x2222_2222, &mut c);
                widening_reference(&cfg, &a, &b, &mut c);
                let err = widening_rel_error(output, &c);
                assert!(err < WIDENING_REL_TOL, "{cfg}: widening error {err}");
            }
        }
    }

    // A repeat batch is served entirely from the backend- and dtype-keyed
    // cache.
    let again = service
        .dispatch_routed(&requests, |cfg| cache.preferred_backend_any(cfg))
        .expect("valid mixed batch");
    assert!(again.per_config.iter().all(|c| c.cache_hit));
    assert_eq!(report.outputs, again.outputs);
}
