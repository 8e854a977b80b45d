//! Top-level just-in-time kernel generation.

use crate::blocking::{
    pipeline_supported, plan_column_panels, plan_for_config, BlockPlan, PlanCandidate, PlanKind,
};
use crate::config::{BLayout, Backend, Beta, GemmConfig, GemmError, KernelSchedule};
use crate::kernel::RoutedKernel;
use crate::loads::{emit_c_transfer, emit_zero_tiles, TransferDir};
use crate::microkernel::{
    emit_block, emit_block_predicates, emit_c_pointer, emit_pipeline_prologue,
    emit_pipelined_k_loop, xr, BSource, BK_STRIDE, LDA_B, LDB_B, LDC_B, SCRATCH,
};
use crate::transpose::{emit_panel_transpose, scratch_bytes};
use sme_isa::asm::Assembler;
use sme_isa::inst::{ScalarInst, SmeInst};
use sme_isa::regs::XReg;

/// Upper bound on the transpose scratch buffer carved out of the simulated
/// stack (the paper's kernels use K = 512 ⇒ 64 KiB).
const MAX_SCRATCH_BYTES: usize = 512 * 1024;

/// Generate an SME small-GEMM kernel for `cfg`.
///
/// The returned [`RoutedKernel`] owns the finished instruction stream and
/// the block plan (and can lower the stream to AArch64 machine code bytes);
/// it is executed on the `sme-machine` simulator.
pub fn generate(cfg: &GemmConfig) -> Result<RoutedKernel, GemmError> {
    generate_with_plan(cfg, None)
}

/// Generate a kernel with an explicit block plan instead of the default
/// heterogeneous plan.
///
/// This is the hook used by the ablation benchmarks (homogeneous blocking
/// only), by the vendor-baseline model in `accel-ref` and by the
/// `sme-runtime` autotuner. A plan override is only meaningful for
/// row-major B: the column-major path transposes B panel by panel through
/// the ZA array, and the contraction loop's scratch addressing is welded to
/// the 32-column panel tiling, so an arbitrary plan cannot be honoured
/// there. Passing `Some(plan)` with a column-major configuration is
/// therefore an error (it used to be silently ignored); pass `None` — or
/// tune the remaining knobs via [`generate_tuned`] with
/// [`PlanKind::ColumnPanels`] — instead.
///
/// # Errors
/// Returns an error if the configuration is invalid, if the supplied plan
/// does not cover the `m × n` iteration space exactly once, or if a plan
/// override is supplied for column-major B.
pub fn generate_with_plan(
    cfg: &GemmConfig,
    plan_override: Option<BlockPlan>,
) -> Result<RoutedKernel, GemmError> {
    cfg.validate()?;
    if cfg.b_layout == BLayout::ColMajor && plan_override.is_some() {
        return Err(GemmError::Unsupported(
            "block-plan overrides are not supported for column-major B: the in-kernel \
             transposition requires the 32-column panel plan"
                .into(),
        ));
    }
    if cfg.b_layout == BLayout::ColMajor && scratch_bytes(cfg.k) > MAX_SCRATCH_BYTES {
        return Err(GemmError::Unsupported(format!(
            "k = {} needs {} bytes of transpose scratch (limit {})",
            cfg.k,
            scratch_bytes(cfg.k),
            MAX_SCRATCH_BYTES
        )));
    }

    let plan = match plan_override {
        Some(p) => {
            if p.m != cfg.m || p.n != cfg.n || !p.covers_exactly_once() {
                return Err(GemmError::Unsupported(
                    "the supplied block plan does not tile the output exactly once".into(),
                ));
            }
            p
        }
        None => plan_for_config(cfg),
    };
    let mut asm = Assembler::new(format!(
        "sme_gemm_{}_{}x{}x{}",
        match cfg.b_layout {
            BLayout::RowMajor => "abt",
            BLayout::ColMajor => "ab",
        },
        cfg.m,
        cfg.n,
        cfg.k
    ));

    // Prologue: enable streaming mode + ZA, materialise the strides.
    asm.push(SmeInst::Smstart { za_only: false });
    asm.mov_imm64(xr(LDA_B), (cfg.lda * 4) as u64);
    asm.mov_imm64(xr(LDC_B), (cfg.ldc * 4) as u64);

    match cfg.b_layout {
        BLayout::RowMajor => {
            asm.mov_imm64(xr(BK_STRIDE), (cfg.ldb * 4) as u64);
            // The pipelined schedule needs even k (the rotated loop retires
            // two steps per trip) and is incompatible with k-unrolling; any
            // configuration outside that envelope falls back to the serial
            // schedule rather than erroring, so a cached plan tuned for a
            // slightly different shape still compiles.
            let pipelined = cfg.schedule == KernelSchedule::Pipelined
                && pipeline_supported(cfg)
                && cfg.k_unroll == 1;
            if pipelined {
                emit_pipeline_prologue(&mut asm, &plan.blocks[0], BSource::RowMajor);
                for (i, block) in plan.blocks.iter().enumerate() {
                    emit_block_predicates(&mut asm, block);
                    emit_c_pointer(&mut asm, cfg, block);
                    match cfg.beta {
                        Beta::Zero => emit_zero_tiles(&mut asm, block),
                        Beta::One => emit_c_transfer(&mut asm, cfg, block, TransferDir::Load),
                    }
                    emit_pipelined_k_loop(&mut asm, cfg, block);
                    // Hoist the next block's step-0 operand loads above this
                    // block's C store: the store stalls on the final outer
                    // products' ZA dependencies while the load/store unit
                    // sits idle, which is exactly when the next operands can
                    // stream in.
                    if let Some(next) = plan.blocks.get(i + 1) {
                        emit_pipeline_prologue(&mut asm, next, BSource::RowMajor);
                    }
                    emit_c_transfer(&mut asm, cfg, block, TransferDir::Store);
                }
            } else {
                for block in &plan.blocks {
                    emit_block(&mut asm, cfg, block, BSource::RowMajor);
                }
            }
        }
        BLayout::ColMajor => {
            // The contraction loop walks the transposed scratch panel with a
            // fixed 32-element (128-byte) row stride; the transposer needs
            // the original column stride of B.
            asm.mov_imm64(xr(BK_STRIDE), (crate::transpose::SCRATCH_LD * 4) as u64);
            asm.mov_imm64(xr(LDB_B), (cfg.ldb * 4) as u64);
            let scratch = scratch_bytes(cfg.k) as u64;
            asm.sub_imm(XReg::SP, XReg::SP, scratch);
            asm.push(ScalarInst::AddImm {
                rd: xr(SCRATCH),
                rn: XReg::SP,
                imm12: 0,
                shift12: false,
            });
            for (panel_col0, panel_cols, panel_plan) in plan_column_panels(cfg.m, cfg.n) {
                emit_panel_transpose(&mut asm, cfg, panel_col0, panel_cols);
                for block in &panel_plan.blocks {
                    emit_block(&mut asm, cfg, block, BSource::Scratch { panel_col0 });
                }
            }
            asm.add_imm(XReg::SP, XReg::SP, scratch);
        }
    }

    // Epilogue.
    asm.push(SmeInst::Smstop { za_only: false });
    asm.ret();

    Ok(RoutedKernel::new(
        *cfg,
        Backend::Sme,
        Some(plan),
        asm.finish(),
    ))
}

/// Generate a kernel for `cfg` rewritten with a tuning candidate — the
/// dispatch path used by the `sme-runtime` autotuner and kernel cache.
///
/// The candidate's ZA transfer strategy and unroll factor replace the
/// configuration's own, and its [`PlanKind`] selects the block plan. Kinds
/// other than the layout default are routed through the plan override of
/// [`generate_with_plan`]; the layout-default kind passes `None` so this
/// function is exactly `generate` when given
/// [`PlanCandidate::default_for`]`(cfg)`.
///
/// # Errors
/// Returns an error if the rewritten configuration is invalid, if the
/// candidate's plan kind is incompatible with the layout (anything other
/// than [`PlanKind::ColumnPanels`] for column-major B), or if the candidate
/// targets the Neon backend (use [`generate_any_routed`] for
/// backend-agnostic generation).
pub fn generate_tuned(
    cfg: &GemmConfig,
    candidate: &PlanCandidate,
) -> Result<RoutedKernel, GemmError> {
    if candidate.backend != Backend::Sme {
        return Err(GemmError::Unsupported(format!(
            "generate_tuned emits SME kernels only; a {} candidate must go \
             through generate_any_routed",
            candidate.backend
        )));
    }
    let tuned_cfg = candidate.apply(cfg);
    let plan_override = if candidate.kind == PlanKind::default_for(&tuned_cfg) {
        None
    } else {
        Some(candidate.kind.build(tuned_cfg.m, tuned_cfg.n))
    };
    generate_with_plan(&tuned_cfg, plan_override)
}

/// Check whether `backend`'s default generator accepts a configuration of
/// either datatype — the precondition of [`generate_any_backend`], checked
/// without generating anything.
///
/// This is the one compilability rule the serving stack shares: the kernel
/// cache's backend preference and the router's placement costing and
/// probes ask it before fetching, so an engine that cannot compile a shape
/// (Neon FP32 with column-major B, see [`crate::neon::neon_supports`]) is
/// never requested and never counted as a cache miss.
///
/// # Errors
/// Returns the generator's rejection: the configuration is invalid, or
/// off the backend's grid.
pub fn backend_supports(cfg: &crate::AnyGemmConfig, backend: Backend) -> Result<(), GemmError> {
    match (cfg, backend) {
        (crate::AnyGemmConfig::Fp32(c), Backend::Sme) => c.validate(),
        (crate::AnyGemmConfig::Fp32(c), Backend::Neon) => crate::neon::neon_supports(c),
        (crate::AnyGemmConfig::WideningBf16(c), Backend::Sme) => {
            crate::widening::sme_widening_supports(c)
        }
        (crate::AnyGemmConfig::WideningBf16(c), Backend::Neon) => {
            crate::neon::neon_widening_supports(c)
        }
    }
}

/// Generate the default kernel for a configuration of either datatype on
/// the given backend.
///
/// FP32 dispatches to [`generate`] / [`crate::neon::generate_neon`];
/// widening BF16 to [`crate::widening::generate_widening`] /
/// [`crate::neon::generate_neon_widening`]. Each inner generator rejects
/// configurations off its grid (see [`backend_supports`]).
pub fn generate_any_backend(
    cfg: &crate::AnyGemmConfig,
    backend: Backend,
) -> Result<RoutedKernel, GemmError> {
    match (cfg, backend) {
        (crate::AnyGemmConfig::Fp32(c), Backend::Sme) => generate(c),
        (crate::AnyGemmConfig::Fp32(c), Backend::Neon) => crate::neon::generate_neon(c)
            .map(|program| RoutedKernel::new(*c, Backend::Neon, None, program)),
        (crate::AnyGemmConfig::WideningBf16(c), Backend::Sme) => {
            crate::widening::generate_widening(c)
        }
        (crate::AnyGemmConfig::WideningBf16(c), Backend::Neon) => {
            crate::neon::generate_neon_widening(c)
        }
    }
}

/// Generate a kernel for a configuration of either datatype from a
/// cross-backend tuning candidate — the dispatch path used by the
/// backend-tagged kernel cache and the cross-backend autotuner.
///
/// SME candidates go through [`generate_tuned`] /
/// [`crate::widening::generate_widening_tuned`]; a Neon candidate's plan
/// kind and knobs are inert (the Neon generators' 16×4 and 8×2 blockings
/// are fixed) and the configuration compiles as-is.
pub fn generate_any_routed(
    cfg: &crate::AnyGemmConfig,
    candidate: &PlanCandidate,
) -> Result<RoutedKernel, GemmError> {
    match (cfg, candidate.backend) {
        (crate::AnyGemmConfig::Fp32(c), Backend::Sme) => generate_tuned(c, candidate),
        (crate::AnyGemmConfig::WideningBf16(c), Backend::Sme) => {
            crate::widening::generate_widening_tuned(c, candidate)
        }
        (_, Backend::Neon) => generate_any_backend(cfg, Backend::Neon),
    }
}

/// Generate a kernel and immediately validate it against the reference GEMM
/// on pseudo-random data, returning the kernel and the maximum absolute
/// error (convenience for tests and examples).
pub fn generate_validated(cfg: &GemmConfig) -> Result<(RoutedKernel, f32), GemmError> {
    let kernel = generate(cfg)?;
    let err = kernel.validate(0x5EED);
    Ok((kernel, err))
}

/// Statistics describing a generated kernel (used by reports and the Fig. 6
/// comparison).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Static instruction count.
    pub instructions: usize,
    /// Static FMOPA count.
    pub fmopa_count: usize,
    /// Number of microkernel executions in the block plan (0 for kernels
    /// without one).
    pub microkernels: usize,
    /// Code size in bytes.
    pub code_bytes: usize,
}

/// Collect static statistics for a generated kernel.
pub fn kernel_stats(kernel: &RoutedKernel) -> KernelStats {
    use sme_isa::inst::Inst;
    let program = kernel.program();
    KernelStats {
        instructions: program.len(),
        fmopa_count: program.count_matching(|i| matches!(i, Inst::Sme(SmeInst::Fmopa { .. }))),
        microkernels: kernel.plan().map_or(0, BlockPlan::num_microkernels),
        code_bytes: program.code_bytes(),
    }
}

/// Re-export used by documentation examples.
pub use crate::blocking::plan_heterogeneous;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Beta, ZaTransferStrategy};

    #[test]
    fn generates_and_validates_small_full_blocks() {
        for (m, n, k) in [(32, 32, 8), (16, 64, 4), (64, 16, 4), (32, 32, 1)] {
            let cfg = GemmConfig::abt(m, n, k);
            let (kernel, err) = generate_validated(&cfg).expect("generation must succeed");
            assert!(err < 1e-4, "({m},{n},{k}): max abs error {err}");
            assert!(kernel.program().len() > 10);
        }
    }

    #[test]
    fn generates_and_validates_masked_blocks() {
        for (m, n, k) in [
            (7, 5, 3),
            (17, 23, 9),
            (33, 31, 5),
            (80, 80, 4),
            (50, 70, 6),
        ] {
            let cfg = GemmConfig::abt(m, n, k);
            let (_, err) = generate_validated(&cfg).expect("generation must succeed");
            assert!(err < 1e-4, "({m},{n},{k}): max abs error {err}");
        }
    }

    #[test]
    fn generates_and_validates_column_major_b() {
        for (m, n, k) in [(32, 32, 8), (16, 20, 9), (48, 33, 17), (80, 80, 5)] {
            let cfg = GemmConfig::ab(m, n, k);
            let (_, err) = generate_validated(&cfg).expect("generation must succeed");
            assert!(err < 1e-4, "AB ({m},{n},{k}): max abs error {err}");
        }
    }

    #[test]
    fn beta_zero_overwrites_c() {
        let cfg = GemmConfig::abt(20, 20, 4).with_beta(Beta::Zero);
        let (_, err) = generate_validated(&cfg).expect("generation must succeed");
        assert!(err < 1e-4, "beta=0: max abs error {err}");
    }

    #[test]
    fn direct_transfer_strategy_validates() {
        let cfg = GemmConfig::abt(32, 32, 8).with_c_transfer(ZaTransferStrategy::Direct);
        let (_, err) = generate_validated(&cfg).expect("generation must succeed");
        assert!(err < 1e-4, "direct ZA transfers: max abs error {err}");
    }

    #[test]
    fn unrolled_kernels_validate() {
        let cfg = GemmConfig::abt(32, 32, 16).with_k_unroll(4);
        let (_, err) = generate_validated(&cfg).expect("generation must succeed");
        assert!(err < 1e-4);
    }

    #[test]
    fn padded_leading_dimensions_validate() {
        let cfg = GemmConfig::abt(30, 20, 7).with_leading_dims(37, 25, 41);
        let (_, err) = generate_validated(&cfg).expect("generation must succeed");
        assert!(err < 1e-4);
        let cfg = GemmConfig::ab(30, 20, 7).with_leading_dims(37, 11, 41);
        let (_, err) = generate_validated(&cfg).expect("generation must succeed");
        assert!(err < 1e-4);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(generate(&GemmConfig::abt(0, 4, 4)).is_err());
        let huge_k = GemmConfig::ab(16, 16, 8192);
        assert!(matches!(generate(&huge_k), Err(GemmError::Unsupported(_))));
    }

    #[test]
    fn column_major_plan_override_is_rejected() {
        let cfg = GemmConfig::ab(32, 32, 8);
        let plan = crate::blocking::plan_heterogeneous(32, 32);
        match generate_with_plan(&cfg, Some(plan)) {
            Err(GemmError::Unsupported(msg)) => {
                assert!(msg.contains("column-major"), "{msg}");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        // `None` still works and uses the panel plan.
        assert!(generate_with_plan(&cfg, None).is_ok());
    }

    #[test]
    fn tuned_generation_matches_the_candidate_and_validates() {
        use crate::blocking::{enumerate_candidates, PlanCandidate};
        let cfg = GemmConfig::abt(48, 48, 16);
        for candidate in enumerate_candidates(&cfg) {
            let kernel = generate_any_routed(&cfg.into(), &candidate).expect("routed generation");
            assert_eq!(kernel.backend(), candidate.backend);
            if candidate.backend == Backend::Sme {
                let kernel_cfg = kernel.fp32_config().expect("FP32 kernel");
                assert_eq!(kernel_cfg.c_transfer, candidate.c_transfer);
                assert_eq!(kernel_cfg.k_unroll, candidate.k_unroll);
            }
            let err = kernel.validate(0xACE);
            assert!(err < 1e-4, "{candidate:?}: max abs error {err}");
        }
        // The default candidate reproduces `generate` exactly.
        let default = generate_tuned(&cfg, &PlanCandidate::default_for(&cfg)).unwrap();
        let plain = generate(&cfg).unwrap();
        assert_eq!(default.program().len(), plain.program().len());
        assert_eq!(default.plan(), plain.plan());
    }

    #[test]
    fn tuned_generation_rejects_mismatched_column_major_kinds() {
        use crate::blocking::PlanCandidate;
        let cfg = GemmConfig::ab(32, 32, 8);
        let bad = PlanCandidate {
            backend: Backend::Sme,
            kind: PlanKind::Heterogeneous,
            c_transfer: cfg.c_transfer,
            k_unroll: 1,
            schedule: KernelSchedule::Serial,
        };
        assert!(matches!(
            generate_tuned(&cfg, &bad),
            Err(GemmError::Unsupported(_))
        ));
        let good = PlanCandidate::default_for(&cfg);
        assert!(generate_tuned(&cfg, &good).is_ok());
    }

    #[test]
    fn backend_generation_routes_to_the_matching_generator() {
        // A shape both backends support.
        let cfg = GemmConfig::abt(32, 16, 8);
        let any = crate::AnyGemmConfig::Fp32(cfg);
        let sme = generate_any_backend(&any, Backend::Sme).unwrap();
        assert_eq!(sme.backend(), Backend::Sme);
        assert!(sme.plan().is_some());
        let neon = generate_any_backend(&any, Backend::Neon).unwrap();
        assert_eq!(neon.backend(), Backend::Neon);
        assert!(neon.plan().is_none());
        assert!(sme.validate(11) < 1e-4);
        assert!(neon.validate(11) < 1e-4);
        assert_eq!(sme.flops(), neon.flops());

        // A Neon candidate refused by generate_tuned is accepted by
        // generate_any_routed.
        let neon_candidate = PlanCandidate::neon_for(&cfg).expect("neon-supported shape");
        assert!(matches!(
            generate_tuned(&cfg, &neon_candidate),
            Err(GemmError::Unsupported(_))
        ));
        assert_eq!(
            generate_any_routed(&any, &neon_candidate)
                .expect("routed generation")
                .backend(),
            Backend::Neon
        );

        // Ragged shapes compile on both backends (the Neon generator is
        // total over row-major B); only column-major B stays SME-only.
        let ragged = GemmConfig::abt(33, 47, 8).into();
        assert!(generate_any_backend(&ragged, Backend::Sme).is_ok());
        let ragged_neon = generate_any_backend(&ragged, Backend::Neon).expect("odd shapes compile");
        assert!(ragged_neon.validate(13) < 1e-4);
        assert!(matches!(
            generate_any_backend(&GemmConfig::ab(33, 47, 8).into(), Backend::Neon),
            Err(GemmError::Unsupported(_))
        ));
    }

    #[test]
    fn stats_reflect_the_plan() {
        let cfg = GemmConfig::abt(80, 80, 8);
        let kernel = generate(&cfg).unwrap();
        let stats = kernel_stats(&kernel);
        assert_eq!(stats.microkernels, 7);
        assert!(stats.fmopa_count > 0);
        assert_eq!(stats.code_bytes, stats.instructions * 4);
    }
}
