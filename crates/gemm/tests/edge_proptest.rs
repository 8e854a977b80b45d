//! Property-based sweeps of the predicated edge-tile paths.
//!
//! Both tentpole relaxations — masked SME widening tiles and the Neon FP32
//! residual blocks — are exercised over *arbitrary* envelope shapes, not
//! multiples of the register blockings:
//!
//! * **widening**: any `m % 8`, `n % 2`, even-`k` shape through both
//!   widening engines against the scalar BF16-rounded oracle. The SME
//!   kernel must be **bit-identical** (masked BFMOPA tiles accumulate each
//!   active element in contraction order with unfused multiply-adds,
//!   exactly like the oracle); the Neon `BFMMLA` kernel reassociates four
//!   products per instruction and is held to the shared relative bound;
//!   the engines must also agree with each other, which is what makes
//!   routing a shape between them numerically safe;
//! * **FP32 Neon**: any even-`m`/`n` shape (including padded leading
//!   dimensions and both accumulation modes) against the scalar reference,
//!   under the absolute bound the aligned path has always used.

use proptest::prelude::*;
use sme_gemm::{
    generate_any_backend, widening_rel_error, AnyGemmConfig, Backend, Beta, GemmConfig,
    RoutedKernel, WideningGemmConfig, WIDENING_REL_TOL,
};
use sme_machine::exec::{RunOptions, Simulator};

/// Run a routed kernel functionally on its own packed seeded operands and
/// read C back.
fn kernel_output(kernel: &RoutedKernel, seed: u64) -> Vec<f32> {
    let mut sim = Simulator::m4_performance();
    let bufs = kernel.allocate_buffers(&mut sim, Some(seed));
    kernel.run(&mut sim, bufs, &RunOptions::functional_only());
    sim.mem.read_f32_slice(bufs.c, kernel.c_len())
}

/// Arbitrary widening envelope shapes, biased towards off-32-grid extents
/// (only one in sixteen drawn (m, n) pairs is fully 32-aligned).
fn widening_shape() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (1usize..=12, 1usize..=32, 1usize..=12, 0u64..1000)
        .prop_map(|(m8, n2, k2, seed)| (8 * m8, 2 * n2, 2 * k2, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Masked SME widening edges are bit-identical to the sequential
    /// oracle; the Neon BFMMLA baseline stays within the shared bound; and
    /// the two engines agree with each other.
    #[test]
    fn widening_edges_match_the_oracle_on_both_engines(shape in widening_shape()) {
        let (m, n, k, seed) = shape;
        let cfg = WideningGemmConfig::new(m, n, k).expect("on the envelope grid");
        let any = AnyGemmConfig::WideningBf16(cfg);

        let sme = generate_any_backend(&any, Backend::Sme)
            .expect("the SME widening path is total over the envelope grid");
        prop_assert_eq!(sme.validate(seed), 0.0, "{}: SME must be bit-identical", cfg);

        let neon = generate_any_backend(&any, Backend::Neon)
            .expect("the Neon widening path is total over the envelope grid");
        let neon_err = neon.validate(seed);
        prop_assert!(
            neon_err < WIDENING_REL_TOL,
            "{}: Neon error {} exceeds {}", cfg, neon_err, WIDENING_REL_TOL
        );

        let cross = widening_rel_error(&kernel_output(&sme, seed), &kernel_output(&neon, seed));
        prop_assert!(
            cross < WIDENING_REL_TOL,
            "{}: cross-engine error {}", cfg, cross
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The Neon FP32 residual blocks validate against the scalar reference
    /// over arbitrary even extents, paddings and both accumulation modes.
    #[test]
    fn fp32_neon_edges_match_the_reference(
        shape in (1usize..=24, 1usize..=12, 1usize..=12, 0usize..=5, 0usize..=3,
                  any::<bool>(), 0u64..1000),
    ) {
        let (m2, n2, k, lda_pad, ldc_pad, beta_zero, seed) = shape;
        let (m, n) = (2 * m2, 2 * n2);
        let mut cfg = GemmConfig::abt(m, n, k)
            .with_leading_dims(m + lda_pad, n, m + ldc_pad);
        if beta_zero {
            cfg = cfg.with_beta(Beta::Zero);
        }
        let err = generate_any_backend(&cfg.into(), Backend::Neon)
            .expect("even extents compile")
            .validate(seed.max(1));
        prop_assert!(err < 1e-4, "{}: Neon edge error {}", cfg, err);
    }
}
