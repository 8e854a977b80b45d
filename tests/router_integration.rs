//! End-to-end test of the `sme-router` subsystem, covering the acceptance
//! properties of the router PR:
//!
//! (a) across a shape sweep straddling the SME/Neon crossover, the router
//!     picks Neon for at least one shape and SME for at least one, and
//!     every routed result is **bit-identical** to the scalar reference
//!     oracle (both engines accumulate each C element in k-order with
//!     unfused multiply-adds, exactly like the reference);
//! (b) the cross-backend autotuner's winner lands on whichever backend
//!     simulates fewer cycles, for every swept shape;
//! (c) the per-shape telemetry counts match the dispatched traffic
//!     exactly, and pre-tuning the hottest shapes installs winners that
//!     subsequent routing follows.

use hello_sme::sme_gemm::reference::{fill_matrix, gemm_reference};
use hello_sme::sme_gemm::{
    generate_any_backend, widening_reference, widening_rel_error, AnyGemmConfig, Backend,
    GemmConfig, WideningGemmConfig, WIDENING_REL_TOL,
};
use hello_sme::sme_router::Router;
use hello_sme::sme_runtime::{GemmRequest, TunerOptions};

/// The C buffer the scalar reference produces for one request (mirrors the
/// kernel's seeding scheme).
fn reference_output(cfg: &GemmConfig, seed: u64) -> Vec<f32> {
    let mut a = vec![0.0f32; cfg.a_len()];
    let mut b = vec![0.0f32; cfg.b_len()];
    let mut c = vec![0.0f32; cfg.c_len()];
    fill_matrix(seed, &mut a);
    fill_matrix(seed ^ 0x1111_1111, &mut b);
    fill_matrix(seed ^ 0x2222_2222, &mut c);
    gemm_reference(cfg, &a, &b, &mut c);
    c
}

/// Shapes straddling the modelled crossover: thin/shallow shapes where the
/// SME kernel's streaming-mode and ZA-transfer overhead dominates (Neon
/// territory) through dense shapes where the outer-product units win by an
/// order of magnitude.
fn crossover_sweep() -> Vec<GemmConfig> {
    vec![
        GemmConfig::abt(16, 4, 4),
        GemmConfig::abt(16, 4, 16),
        GemmConfig::abt(16, 8, 8),
        GemmConfig::abt(16, 16, 16),
        GemmConfig::abt(32, 16, 16),
        GemmConfig::abt(32, 32, 32),
        GemmConfig::abt(64, 16, 16),
        GemmConfig::abt(64, 64, 64),
        GemmConfig::abt(96, 96, 32),
    ]
}

#[test]
fn routed_dispatch_straddles_the_crossover_bit_identically() {
    let router = Router::new(64);
    let requests: Vec<GemmRequest> = crossover_sweep()
        .into_iter()
        .enumerate()
        .map(|(i, config)| GemmRequest::fp32(config, 7000 + i as u64))
        .collect();
    let report = router.dispatch(&requests).expect("valid batch");

    let mut neon_routed = 0;
    let mut sme_routed = 0;
    for group in &report.batch.per_config {
        match group.backend {
            Backend::Neon => neon_routed += 1,
            Backend::Sme => sme_routed += 1,
        }
    }
    assert!(
        neon_routed > 0,
        "the sweep must contain at least one Neon-routed shape"
    );
    assert!(
        sme_routed > 0,
        "the sweep must contain at least one SME-routed shape"
    );

    // Both engines accumulate per element in contraction order with
    // unfused multiply-adds — exactly the reference's arithmetic — so the
    // routed outputs must match the oracle bit for bit, whichever engine
    // served them.
    for (request, output) in requests.iter().zip(&report.batch.outputs) {
        let oracle = reference_output(request.config.as_fp32().expect("FP32 sweep"), request.seed);
        assert_eq!(
            output, &oracle,
            "{}: routed output diverged from the reference oracle",
            request.config
        );
    }
}

#[test]
fn cross_backend_tuner_matches_the_simulated_argmin_on_every_shape() {
    let router = Router::new(64);
    for cfg in crossover_sweep() {
        let sme_cycles = generate_any_backend(&cfg.into(), Backend::Sme)
            .expect("SME compiles every swept shape")
            .model_stats()
            .cycles;
        let neon_cycles = generate_any_backend(&cfg.into(), Backend::Neon)
            .expect("swept shapes sit on the Neon 16x4 grid")
            .model_stats()
            .cycles;
        let outcome = router
            .tune_any(&cfg.into(), &TunerOptions::default())
            .expect("tunable configuration");
        // The best the SME engine can do for this shape (tuned plans, no
        // backend sweep): the cross-backend winner must sit on whichever
        // engine's best score is lower (ties stay on SME, the default).
        let sme_only = TunerOptions {
            sweep_backends: false,
            ..TunerOptions::default()
        };
        let best_sme_cycles = hello_sme::sme_runtime::tune_any(&cfg.into(), &sme_only)
            .expect("tunable configuration")
            .tuned_cycles;
        let expected = if neon_cycles < best_sme_cycles {
            Backend::Neon
        } else {
            Backend::Sme
        };
        assert_eq!(
            outcome.winner.backend, expected,
            "{cfg}: winner backend ({}) does not match the simulated argmin \
             (sme default {sme_cycles:.0}, best sme {best_sme_cycles:.0}, \
             neon {neon_cycles:.0})",
            outcome.winner.backend
        );
        let argmin = best_sme_cycles.min(neon_cycles);
        assert!(
            (outcome.tuned_cycles - argmin).abs() <= 1e-9 * argmin.max(1.0),
            "{cfg}: tuned score {:.1} must equal the cheaper engine's best \
             ({argmin:.1})",
            outcome.tuned_cycles
        );
        assert!(
            outcome.tuned_cycles <= sme_cycles.min(neon_cycles) + 1e-9,
            "{cfg}: tuned score must not lose to either default engine"
        );
        // Routing now follows the installed winner.
        assert_eq!(router.route_any(&cfg.into()), outcome.winner.backend);
    }
}

#[test]
fn telemetry_counts_match_dispatched_traffic_exactly() {
    let router = Router::new(64);
    let hot = GemmConfig::abt(16, 4, 16);
    let warm = GemmConfig::abt(32, 32, 32);
    let cold = GemmConfig::abt(64, 64, 16);

    // Traffic: 6× hot, 3× warm, 1× cold, over two batches.
    let batch1: Vec<GemmRequest> = (0..5)
        .map(|i| GemmRequest::fp32(if i < 4 { hot } else { warm }, i))
        .collect();
    let batch2: Vec<GemmRequest> = (0..5)
        .map(|i| {
            GemmRequest::fp32(
                match i {
                    0 | 1 => hot,
                    2 | 3 => warm,
                    _ => cold,
                },
                100 + i,
            )
        })
        .collect();
    router.dispatch(&batch1).expect("valid batch");
    router.dispatch(&batch2).expect("valid batch");

    assert_eq!(router.telemetry().total_requests(), 10);
    // Per-shape counts match the dispatched traffic exactly.
    let shape = |cfg: &GemmConfig| router.telemetry().shape(&(*cfg).into()).unwrap();
    assert_eq!(shape(&hot).requests, 6);
    assert_eq!(shape(&warm).requests, 3);
    assert_eq!(shape(&cold).requests, 1);
    // Ranking is by decayed cumulative cycles (cost), not request count:
    // the chatty 16×4×16 shape burns far fewer cycles than either dense
    // shape, so it ranks last despite 6× the requests.
    let top = router.top_shapes(3);
    assert_eq!(top.len(), 3);
    assert!(top[0].decayed_cycles >= top[1].decayed_cycles);
    assert!(top[1].decayed_cycles >= top[2].decayed_cycles);
    assert_eq!((top[2].config, top[2].requests), (hot.into(), 6));
    // Each shape fetches its kernel once per batch it appears in. The
    // routing probe already compiled both backends through the cache, so
    // every execute-time fetch is a hit.
    assert_eq!((shape(&hot).cache_hits, shape(&hot).cache_misses), (2, 0));
    assert_eq!((shape(&warm).cache_hits, shape(&warm).cache_misses), (2, 0));
    assert_eq!((shape(&cold).cache_hits, shape(&cold).cache_misses), (1, 0));
    // Cycles aggregate exactly what the reports said.
    let recorded: f64 = top.iter().map(|s| s.cycles).sum();
    assert!(recorded > 0.0);

    // The telemetry JSON snapshot carries the same counts.
    let json = router.telemetry().to_json();
    assert!(json.contains("\"total_requests\": 10"));
    assert!(json.contains("\"requests\": 6"));

    // Pre-tune the two hottest shapes; their winners are installed and
    // routing follows them — and the chatty-but-cheap shape does not make
    // the cut.
    let outcomes = router
        .pretune_hot(2, &TunerOptions::quick())
        .expect("hot shapes are tunable");
    assert_eq!(outcomes.len(), 2);
    assert_eq!(outcomes[0].key.m(), top[0].config.m());
    assert!(router.cache().lookup_tuned_any(&warm.into()).is_some());
    assert!(router.cache().lookup_tuned_any(&cold.into()).is_some());
    assert!(router.cache().lookup_tuned_any(&hot.into()).is_none());
    assert!(top[0].config.as_fp32().is_some(), "all traffic was FP32");
    assert_eq!(router.route_any(&top[0].config), outcomes[0].winner.backend);
}

#[test]
fn off_grid_bf16_shapes_now_route_to_sme() {
    // The headline payoff of the predicated edge tiles: dense-but-
    // misaligned BF16 shapes used to be a *support* decision (the SME
    // widening path rejected anything off the 32x32 grid, so they always
    // ran on the ~8x narrower Neon BFMMLA baseline) and are now a
    // *performance* decision the router settles on simulated cycles.
    let router = Router::new(64);
    let off_grid = [
        (48, 40, 64),
        (40, 40, 32),
        (96, 72, 48),
        (104, 96, 128), // the ISSUE's 100x96-class shape, on the envelope
    ];
    for (m, n, k) in off_grid {
        let cfg = WideningGemmConfig::new(m, n, k).expect("envelope shape");
        assert!(
            !cfg.m.is_multiple_of(32) || !cfg.n.is_multiple_of(32),
            "{cfg}: the probe must sit off the old 32-grid"
        );
        let any = AnyGemmConfig::WideningBf16(cfg);
        let sme_cycles = generate_any_backend(&any, Backend::Sme)
            .expect("masked SME edges compile the shape")
            .model_stats()
            .cycles;
        let neon_cycles = generate_any_backend(&any, Backend::Neon)
            .expect("Neon widening is total")
            .model_stats()
            .cycles;
        assert!(
            sme_cycles < neon_cycles,
            "{cfg}: masked SME edges ({sme_cycles:.0} cycles) must beat the \
             Neon BFMMLA baseline ({neon_cycles:.0})"
        );
        // A multi-x win, not a rounding-error one: this is the simulated
        // speed-up the shapes forfeited under the old support boundary.
        assert!(
            neon_cycles > 2.0 * sme_cycles,
            "{cfg}: expected a multi-x win, got {:.2}x",
            neon_cycles / sme_cycles
        );
        // The router routes the shape to SME, and the tuner's
        // cross-backend argmin lands there too.
        assert_eq!(router.route_any(&any), Backend::Sme, "{cfg}");
        let outcome = router
            .tune_any(&any, &TunerOptions::quick())
            .expect("tunable shape");
        assert_eq!(outcome.winner.backend, Backend::Sme, "{cfg}");
        assert!(outcome.tuned_cycles <= sme_cycles + 1e-9);
    }
}

/// Widening shapes straddling the engine split: shallow/thin shapes where
/// the streaming-mode entry dominates (Neon `BFMMLA` territory) through
/// dense shapes — 32-aligned or masked — where the widening outer products
/// win outright.
fn bf16_crossover_sweep() -> Vec<WideningGemmConfig> {
    [
        (8, 2, 2),
        (16, 4, 8),
        (16, 4, 64),
        (16, 16, 16),
        (32, 32, 8),
        (32, 32, 32),
        (40, 40, 16), // masked SME edges on both dimensions
        (48, 40, 8),  // dense but misaligned
        (64, 32, 16),
        (64, 64, 64),
    ]
    .into_iter()
    .map(|(m, n, k)| WideningGemmConfig::new(m, n, k).expect("valid widening shape"))
    .collect()
}

/// The scalar BF16-rounded oracle for one widening request (mirrors the
/// kernel's seeding scheme).
fn widening_oracle(cfg: &WideningGemmConfig, seed: u64) -> Vec<f32> {
    let mut a = vec![0.0f32; cfg.m * cfg.k];
    let mut b = vec![0.0f32; cfg.k * cfg.n];
    let mut c = vec![0.0f32; cfg.c_len()];
    fill_matrix(seed, &mut a);
    fill_matrix(seed ^ 0x1111_1111, &mut b);
    fill_matrix(seed ^ 0x2222_2222, &mut c);
    widening_reference(cfg, &a, &b, &mut c);
    c
}

#[test]
fn bf16_dispatch_straddles_the_crossover_within_tolerance() {
    let router = Router::new(64);
    let shapes = bf16_crossover_sweep();
    let requests: Vec<GemmRequest> = shapes
        .iter()
        .enumerate()
        .map(|(i, cfg)| GemmRequest::widening(*cfg, 8000 + i as u64))
        .collect();
    let report = router.dispatch(&requests).expect("valid batch");

    let mut neon_routed = 0;
    let mut sme_routed = 0;
    for group in &report.batch.per_config {
        assert_eq!(group.dtype, hello_sme::sme_gemm::Dtype::WideningBf16);
        match group.backend {
            Backend::Neon => neon_routed += 1,
            Backend::Sme => sme_routed += 1,
        }
    }
    assert!(
        neon_routed > 0,
        "the BF16 sweep must contain at least one Neon-routed widening shape"
    );
    assert!(
        sme_routed > 0,
        "the BF16 sweep must contain at least one SME-routed widening shape"
    );

    // Every routed output stays within the widening validation bound of the
    // scalar BF16-rounded oracle, whichever engine served it.
    for (request, output) in requests.iter().zip(&report.batch.outputs) {
        let cfg = request.config.as_widening().expect("widening sweep");
        let oracle = widening_oracle(cfg, request.seed);
        let err = widening_rel_error(output, &oracle);
        assert!(
            err < WIDENING_REL_TOL,
            "{cfg}: routed output error {err} exceeds {WIDENING_REL_TOL}"
        );
    }

    // Telemetry counts equal the dispatched traffic, keyed per widening
    // config.
    assert_eq!(router.telemetry().total_requests(), requests.len() as u64);
    assert_eq!(router.telemetry().len(), shapes.len());
    for cfg in &shapes {
        let stats = router
            .telemetry()
            .shape(&AnyGemmConfig::WideningBf16(*cfg))
            .expect("every dispatched shape is counted");
        assert_eq!(stats.requests, 1);
        assert_eq!(
            stats.sme_requests + stats.neon_requests,
            1,
            "{cfg}: backend counts must partition the traffic"
        );
    }

    // The cross-backend tuner's argmin lands on the cheaper engine for
    // every swept shape: the winner sits on whichever engine's *best*
    // score is lower (the SME side may tune its edge-bearing block plans,
    // so the default 32x32 kernel is only a lower bound on its side).
    for cfg in &shapes {
        let any = AnyGemmConfig::WideningBf16(*cfg);
        let sme_cycles = generate_any_backend(&any, Backend::Sme)
            .expect("SME widening is total on the envelope grid")
            .model_stats()
            .cycles;
        let neon_cycles = generate_any_backend(&any, Backend::Neon)
            .expect("Neon widening is total on the envelope grid")
            .model_stats()
            .cycles;
        let outcome = router
            .tune_any(&any, &TunerOptions::default())
            .expect("tunable widening configuration");
        let sme_only = TunerOptions {
            sweep_backends: false,
            ..TunerOptions::default()
        };
        let best_sme_cycles = hello_sme::sme_runtime::tune_any(&any, &sme_only)
            .expect("tunable widening configuration")
            .tuned_cycles;
        let expected = if neon_cycles < best_sme_cycles {
            Backend::Neon
        } else {
            Backend::Sme
        };
        assert_eq!(
            outcome.winner.backend, expected,
            "{cfg}: winner backend does not match the simulated argmin \
             (sme default {sme_cycles:.0}, best sme {best_sme_cycles:.0}, \
             neon {neon_cycles:.0})"
        );
        // The tuned score equals the cheaper engine's best and can only
        // improve on both engines' default kernels.
        let argmin = best_sme_cycles.min(neon_cycles);
        assert!(
            (outcome.tuned_cycles - argmin).abs() <= 1e-9 * argmin.max(1.0),
            "{cfg}: tuned score {:.1} must equal the cheaper engine's best \
             ({argmin:.1})",
            outcome.tuned_cycles
        );
        assert!(
            outcome.tuned_cycles <= sme_cycles.min(neon_cycles) + 1e-9,
            "{cfg}: tuned score must not lose to either default engine"
        );
        // Routing now follows the installed winner.
        assert_eq!(router.route_any(&any), outcome.winner.backend);
    }
}
