//! Property-based check that a kernel's memoized timing *is* the timing
//! model, bit for bit.
//!
//! Every kernel times itself once (`model_stats`, a timing-only run
//! on untouched operands) and the serving path reuses that result for each
//! request it executes functional-only. That is exact only because
//! generated kernels have no data-dependent control flow and the memory
//! model charges by operand alignment, never by address or value. So over
//! arbitrary configurations and tuning candidates of both datatypes on
//! both engines, the memo must equal the whole `ExecStats` of a full
//! functional + timing run — cycles, cycle profile, per-class counts and
//! bytes — for the 1st, 2nd and 3rd request executed on one reused
//! simulator, which is how a serving group lays out its buffers.

use proptest::prelude::*;
use sme_gemm::{
    enumerate_any_candidates, generate_any_routed, AnyGemmConfig, Backend, Beta, GemmConfig,
    WideningGemmConfig,
};
use sme_machine::exec::{RunOptions, Simulator};

/// Pick one candidate of `cfg` for the requested engine (SME when the other
/// engine cannot compile the shape), compile it and check the memo against
/// three consecutive full runs on one simulator.
fn memo_matches_full_runs(
    cfg: AnyGemmConfig,
    want_neon: bool,
    pick: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let candidates = enumerate_any_candidates(&cfg);
    let mut pool: Vec<_> = candidates
        .iter()
        .filter(|c| (c.backend == Backend::Neon) == want_neon)
        .collect();
    if pool.is_empty() {
        pool = candidates.iter().collect();
    }
    let candidate = pool[pick % pool.len()];
    let kernel = generate_any_routed(&cfg, candidate).expect("enumerated candidates compile");

    let memo = kernel.model_stats().clone();
    prop_assert!(memo.cycles > 0.0, "{}: the memo carries timing", cfg);

    let mut sim = Simulator::m4_performance();
    for request in 0..3u64 {
        let seed = seed.wrapping_add(request);
        let images = kernel.pack_operands(seed);
        let bufs = kernel.allocate_buffers_packed(&mut sim, seed, &images);
        prop_assert!(bufs.is_aligned());
        let full = kernel.run(&mut sim, bufs, &RunOptions::default()).stats;
        prop_assert_eq!(
            &full,
            &memo,
            "{} on {:?}: request {} of a reused simulator",
            cfg,
            candidate,
            request + 1
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FP32: both B layouts, odd extents and padded leading dimensions,
    /// both accumulation modes, and any tuned plan / ZA transfer / unroll /
    /// schedule candidate — or the Neon kernel when the shape allows it.
    #[test]
    fn fp32_memoized_timing_equals_full_runs(
        shape in (1usize..=48, 1usize..=48, 1usize..=16, 0usize..=3, any::<bool>(),
                  any::<bool>(), 0u8..3, 0usize..64),
        seed in 0u64..1000,
    ) {
        let (m, n, k, pad, col_major, beta_zero, engine, pick) = shape;
        let base = if col_major { GemmConfig::ab(m, n, k) } else { GemmConfig::abt(m, n, k) };
        let mut cfg = base.with_leading_dims(m + pad, base.ldb, m);
        if beta_zero {
            cfg = cfg.with_beta(Beta::Zero);
        }
        memo_matches_full_runs(cfg.into(), engine == 0, pick, seed)?;
    }

    /// BF16 → FP32 widening: arbitrary envelope shapes with any SME
    /// candidate, or the Neon `BFMMLA` kernel.
    #[test]
    fn widening_memoized_timing_equals_full_runs(
        shape in (1usize..=6, 1usize..=24, 1usize..=8, 0u8..3, 0usize..64),
        seed in 0u64..1000,
    ) {
        let (m8, n2, k2, engine, pick) = shape;
        let cfg = WideningGemmConfig::new(8 * m8, 2 * n2, 2 * k2).expect("on the envelope grid");
        memo_matches_full_runs(cfg.into(), engine == 0, pick, seed)?;
    }
}
