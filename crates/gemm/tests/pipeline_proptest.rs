//! Property-based sweep of the software-pipelined kernel schedule.
//!
//! A pipelined kernel hoists the next block's step-0 packed loads above the
//! current block's ZA→C store and rotates the contraction loop so each
//! trip's loads fetch one k-step ahead of its FMOPAs. Reordering *loads*
//! must never change *arithmetic*: the FMOPAs still consume the same
//! operands in the same contraction order, so over the whole supported
//! envelope (row-major B, even `k`, unit unroll — [`pipeline_supported`])
//! a pipelined kernel must produce a C buffer **bit-identical** to its
//! serial twin's, and both must validate against the scalar reference.

use proptest::prelude::*;
use sme_gemm::{
    generate_any_routed, pipeline_supported, Beta, GemmConfig, KernelSchedule, PlanCandidate,
    RoutedKernel,
};
use sme_machine::exec::{RunOptions, Simulator};

/// Run a routed kernel functionally on its seeded operands and read C back.
fn kernel_output(kernel: &RoutedKernel, seed: u64) -> Vec<f32> {
    let mut sim = Simulator::m4_performance();
    let bufs = kernel.allocate_buffers(&mut sim, Some(seed));
    kernel.run(&mut sim, bufs, &RunOptions::functional_only());
    sim.mem.read_f32_slice(bufs.c, kernel.c_len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pipelined schedules are bit-identical to their serial twins (and
    /// hence to the oracle the serial kernels validate against) over
    /// arbitrary supported shapes, paddings and accumulation modes.
    #[test]
    fn pipelined_schedules_match_their_serial_twins_bit_for_bit(
        shape in (1usize..=80, 1usize..=80, 1usize..=16, 0usize..=5,
                  any::<bool>(), 0u64..1000),
    ) {
        let (m, n, k2, lda_pad, beta_zero, seed) = shape;
        let k = 2 * k2;
        let mut cfg = GemmConfig::abt(m, n, k).with_leading_dims(m + lda_pad, n, m);
        if beta_zero {
            cfg = cfg.with_beta(Beta::Zero);
        }
        prop_assert!(pipeline_supported(&cfg), "{}: even-k row-major shapes pipeline", cfg);

        let serial = PlanCandidate::default_for(&cfg);
        let pipelined = PlanCandidate {
            schedule: KernelSchedule::Pipelined,
            ..serial
        };
        let serial = generate_any_routed(&cfg.into(), &serial).expect("serial default compiles");
        let pipelined =
            generate_any_routed(&cfg.into(), &pipelined).expect("pipelined twin compiles");

        let err = pipelined.validate(seed.max(1));
        prop_assert!(err < 1e-4, "{}: pipelined error {} vs the oracle", cfg, err);
        prop_assert_eq!(
            kernel_output(&serial, seed),
            kernel_output(&pipelined, seed),
            "{}: schedules must agree bit for bit", cfg
        );
    }
}
