//! Correctness sweep of the BF16 → FP32 widening kernels on both engines.
//!
//! Every shape is checked against the **scalar BF16-rounded oracle**: the
//! FP32 operands are rounded to BF16 exactly as the packing functions round
//! them (pack → bf16-truncate), then accumulated in FP32 sequentially in
//! contraction order ([`widening_reference`]). Both backends must stay
//! within the relative-error bound their `validate` methods assert
//! ([`WIDENING_REL_TOL`]); the SME BFMOPA kernel additionally matches the
//! oracle **bit for bit** (its ZA accumulation is the oracle's arithmetic),
//! while the Neon `BFMMLA` kernel reassociates four products per
//! instruction and is held to the tolerance only.

use hello_sme::sme_gemm::reference::fill_matrix;
use hello_sme::sme_gemm::{
    generate_any_backend, sme_widening_supports, widening_reference, widening_rel_error,
    AnyGemmConfig, Backend, RoutedKernel, WideningGemmConfig, WIDENING_REL_TOL,
};
use hello_sme::sme_machine::exec::{RunOptions, Simulator};

/// The oracle C buffer for one seeded request (mirrors the kernel's
/// seeding scheme).
fn oracle_output(cfg: &WideningGemmConfig, seed: u64) -> Vec<f32> {
    let mut a = vec![0.0f32; cfg.m * cfg.k];
    let mut b = vec![0.0f32; cfg.k * cfg.n];
    let mut c = vec![0.0f32; cfg.c_len()];
    fill_matrix(seed, &mut a);
    fill_matrix(seed ^ 0x1111_1111, &mut b);
    fill_matrix(seed ^ 0x2222_2222, &mut c);
    widening_reference(cfg, &a, &b, &mut c);
    c
}

/// Run `kernel` functionally on its own packed seeded operands and read C.
fn kernel_output(kernel: &RoutedKernel, seed: u64) -> Vec<f32> {
    let mut sim = Simulator::m4_performance();
    let bufs = kernel.allocate_buffers(&mut sim, Some(seed));
    kernel.run(&mut sim, bufs, &RunOptions::functional_only());
    sim.mem.read_f32_slice(bufs.c, kernel.c_len())
}

/// The sweep: 32-grid shapes (full SME tiles) and envelope-grid shapes
/// (masked SME edge tiles), square, wide, tall, thin, shallow and deep,
/// including `k % 4 == 2` depths that exercise the BFMMLA zero-padded quad.
/// Since the predicated edge-tile work, **both** engines compile every
/// shape here.
fn sweep() -> Vec<WideningGemmConfig> {
    [
        (32, 32, 2),
        (32, 32, 16),
        (32, 64, 12),
        (64, 32, 8),
        (64, 64, 24),
        (96, 32, 10), // k % 4 == 2
        (32, 96, 64),
        (8, 2, 2),    // smallest envelope shape, one heavily masked tile
        (16, 4, 8),   // the thin crossover shape
        (16, 4, 64),  // deep and thin
        (40, 6, 14),  // off both the 32-grid and the quad boundary
        (16, 16, 32), // partial row and column groups in one block
        (48, 40, 64), // dense but misaligned: masked edge strips
        (96, 72, 12), // multiple full blocks plus masked edges
    ]
    .into_iter()
    .map(|(m, n, k)| WideningGemmConfig::new(m, n, k).expect("sweep shapes are on the grid"))
    .collect()
}

#[test]
fn widening_kernels_match_the_scalar_oracle_on_both_engines() {
    let mut off_grid_checked = 0;
    for cfg in sweep() {
        let any = AnyGemmConfig::WideningBf16(cfg);
        let seed = 9000 + cfg.m as u64 + cfg.k as u64;
        let oracle = oracle_output(&cfg, seed);

        // The Neon BFMMLA baseline compiles every valid widening shape.
        let neon = generate_any_backend(&any, Backend::Neon).expect("Neon widening is total");
        assert_eq!(neon.backend(), Backend::Neon);
        let err = widening_rel_error(&kernel_output(&neon, seed), &oracle);
        assert!(
            err < WIDENING_REL_TOL,
            "{cfg}: Neon widening error {err} exceeds {WIDENING_REL_TOL}"
        );
        // The handle's own validation asserts the same bound.
        let err = neon.validate(seed);
        assert!(err < WIDENING_REL_TOL, "{cfg}: Neon validate() {err}");

        // The SME path is total over the envelope grid and matches the
        // oracle bit for bit everywhere: masked edge tiles accumulate each
        // active element in contraction order with unfused multiply-adds,
        // exactly like the full tiles.
        assert!(sme_widening_supports(&cfg).is_ok(), "{cfg}: SME is total");
        let sme = generate_any_backend(&any, Backend::Sme).expect("SME widening is total");
        assert_eq!(sme.backend(), Backend::Sme);
        assert_eq!(
            kernel_output(&sme, seed),
            oracle,
            "{cfg}: SME widening output diverged from the sequential oracle"
        );
        assert_eq!(sme.validate(seed), 0.0, "{cfg}: bit-identical");
        if !cfg.m.is_multiple_of(32) || !cfg.n.is_multiple_of(32) {
            off_grid_checked += 1;
        }
    }
    assert!(
        off_grid_checked >= 5,
        "the sweep must exercise masked SME edge tiles"
    );
}

#[test]
fn widening_backends_agree_with_each_other_within_tolerance() {
    // Both engines compile every envelope shape and their outputs agree to
    // the shared bound — the property that makes routing a widening shape
    // between engines numerically safe, now on the whole envelope grid.
    for cfg in sweep() {
        let any = AnyGemmConfig::WideningBf16(cfg);
        let seed = 77;
        let sme = kernel_output(&generate_any_backend(&any, Backend::Sme).unwrap(), seed);
        let neon = kernel_output(&generate_any_backend(&any, Backend::Neon).unwrap(), seed);
        let err = widening_rel_error(&sme, &neon);
        assert!(err < WIDENING_REL_TOL, "{cfg}: cross-engine error {err}");
    }
}
