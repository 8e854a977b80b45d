//! Reduced-precision (BF16 → FP32) GEMM kernels — the paper's §V outlook.
//!
//! The paper notes that higher reduced-precision throughput "could further
//! accelerate CPU-native machine learning inference"; on M4 the widening
//! BFMOPA has the *same* FLOP rate as the FP32 FMOPA (Table I), so a BF16
//! kernel mainly halves operand memory traffic. This module implements that
//! kernel generation path as a first-class datatype of the stack:
//!
//! * operands are **pre-packed** into the 2-way interleaved layout the
//!   widening outer product consumes (`pack_a_bf16` / `pack_b_bf16`), the
//!   same approach production libraries use for VNNI/BF16 kernels (the Neon
//!   `BFMMLA` baseline consumes its own 4-deep packing,
//!   [`pack_a_bf16_mmla`] / [`pack_b_bf16_mmla`]);
//! * the generated SME kernel accumulates FP32 blocks in the four ZA tiles,
//!   consuming **two contraction steps per BFMOPA**, with the same
//!   register-blocking, ZA-transfer and unroll candidate space as the FP32
//!   generator ([`enumerate_widening_candidates`]), including the
//!   heterogeneous edge-bearing plans;
//! * remainder rows/columns off the 32×32 accumulator grid are handled with
//!   **`whilelt`-predicated partial tiles**, exactly like the FP32
//!   microkernel: F32 lane predicates gate the outer products and the
//!   FP32 C transfers, while halfword predicates/counters mask the packed
//!   BF16 operand loads (two packed elements per row/column pair), whose
//!   zeroing predication keeps the masked BFMOPA lanes garbage-free. The
//!   SME path is therefore **total over the envelope grid**
//!   ([`sme_widening_supports`]), and the SME/Neon `BFMMLA` split —
//!   [`crate::neon::generate_neon_widening`] covers the same grid — is a
//!   pure performance decision made by the `sme-router`.

use crate::blocking::{BlockInstance, PlanCandidate, PlanKind, RegisterBlocking};
use crate::config::{Backend, GemmConfig, GemmError, KernelSchedule, ZaTransferStrategy};
use crate::kernel::RoutedKernel;
use crate::loads::{emit_c_transfer, TransferDir};
use crate::microkernel::{
    a_counter, col_pred, emit_counter_predicate, emit_lane_predicate, load_vectors, row_pred,
    wa_counter, wa_pred, wb_counter, wb_pred, xr, zr, ARG_A, ARG_B, ARG_C, A_PTR, BK_STRIDE, B_PTR,
    C_PTR, K_CNT, LDA_B, LDC_B, TMP0, ZA_A, ZB_B,
};
use crate::reference::max_rel_diff;
use serde::{Deserialize, Serialize};
use sme_isa::asm::Assembler;
use sme_isa::inst::{ScalarInst, SmeInst, SveInst};
use sme_isa::types::ElementType;

/// Relative-error bound the widening validation paths assert against.
///
/// The SME kernel accumulates each C element in contraction order with
/// unfused FP32 multiply-adds — bit-identical to the scalar BF16-rounded
/// oracle — but the Neon `BFMMLA` sums four products per instruction before
/// folding them into the accumulator, so its rounding differs from the
/// sequential oracle by at most a few ULP per contraction step. The bound
/// leaves an order of magnitude of headroom over the worst reassociation
/// error at the supported depths.
pub const WIDENING_REL_TOL: f32 = 1e-2;

/// Absolute floor below which differences are ignored by
/// [`widening_rel_error`] (accumulated values are O(1) by construction of
/// the test operands).
const WIDENING_REL_FLOOR: f32 = 1e-5;

/// The relative-error metric both widening backends validate with (see
/// [`WIDENING_REL_TOL`]).
pub fn widening_rel_error(out: &[f32], reference: &[f32]) -> f32 {
    max_rel_diff(out, reference, WIDENING_REL_FLOOR)
}

/// Configuration of a BF16 → FP32 small GEMM (`C += A · Bᵀ` semantics with
/// pre-packed BF16 operands and an FP32, column-major C).
///
/// The constructor enforces the **envelope** grid both widening generators
/// share: `m % 8 == 0`, `n % 2 == 0` (the Neon `BFMMLA` baseline's blocking)
/// and an even `k` (the 2-way interleaved packing). Both engines cover the
/// whole envelope — the SME generator masks remainder tiles off its 32×32
/// accumulator grid with predicates ([`sme_widening_supports`]) — so which
/// engine serves a shape is purely a routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WideningGemmConfig {
    /// Rows of C (multiple of 8).
    pub m: usize,
    /// Columns of C (multiple of 2).
    pub n: usize,
    /// Contraction dimension (even).
    pub k: usize,
    /// How C blocks are moved in and out of the ZA array (SME only).
    pub c_transfer: ZaTransferStrategy,
    /// Unroll factor of the contraction-pair loop (1, 2 or 4; SME only).
    pub k_unroll: usize,
}

impl WideningGemmConfig {
    /// Construct and validate a configuration (default tuning knobs).
    pub fn new(m: usize, n: usize, k: usize) -> Result<Self, GemmError> {
        let cfg = WideningGemmConfig {
            m,
            n,
            k,
            c_transfer: ZaTransferStrategy::TwoStep,
            k_unroll: 1,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Validate the configuration (the type is `Copy`, so fields may have
    /// been rewritten after construction).
    pub fn validate(&self) -> Result<(), GemmError> {
        const MAX_DIM: usize = 1 << 20;
        for (name, v) in [("m", self.m), ("n", self.n), ("k", self.k)] {
            if v == 0 || v > MAX_DIM {
                return Err(GemmError::InvalidDimension(format!(
                    "{name} = {v} must be in 1..={MAX_DIM}"
                )));
            }
        }
        if !self.m.is_multiple_of(8) || !self.n.is_multiple_of(2) {
            return Err(GemmError::Unsupported(format!(
                "widening kernels require m % 8 == 0 and n % 2 == 0 (got {}x{})",
                self.m, self.n
            )));
        }
        if !self.k.is_multiple_of(2) {
            return Err(GemmError::Unsupported(
                "widening kernels require an even k (2-way interleaved packing)".into(),
            ));
        }
        if !matches!(self.k_unroll, 1 | 2 | 4) {
            return Err(GemmError::Unsupported(format!(
                "k_unroll = {} (supported: 1, 2, 4)",
                self.k_unroll
            )));
        }
        Ok(())
    }

    /// Builder: set the ZA transfer strategy for C blocks (SME only).
    pub fn with_c_transfer(mut self, strategy: ZaTransferStrategy) -> Self {
        self.c_transfer = strategy;
        self
    }

    /// Builder: set the contraction-pair unroll factor (SME only).
    pub fn with_k_unroll(mut self, unroll: usize) -> Self {
        self.k_unroll = unroll;
        self
    }

    /// Floating-point operations per kernel execution.
    pub fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Packed-A buffer length in BF16 elements (2-way interleaved layout).
    pub fn packed_a_len(&self) -> usize {
        packed_interleaved_len(self.m, self.k)
    }

    /// Packed-B buffer length in BF16 elements (2-way interleaved layout).
    pub fn packed_b_len(&self) -> usize {
        packed_interleaved_len(self.n, self.k)
    }

    /// Packed-A buffer length in BF16 elements (`BFMMLA` layout).
    pub fn packed_a_mmla_len(&self) -> usize {
        packed_mmla_len(self.m, self.k)
    }

    /// Packed-B buffer length in BF16 elements (`BFMMLA` layout).
    pub fn packed_b_mmla_len(&self) -> usize {
        packed_mmla_len(self.n, self.k)
    }

    /// Number of `f32` elements the C buffer holds (tight, column-major).
    pub fn c_len(&self) -> usize {
        self.m * self.n
    }
}

impl std::fmt::Display for WideningGemmConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "C += A*B^T (BF16 widening) m={} n={} k={}",
            self.m, self.n, self.k
        )
    }
}

/// Check whether the SME widening generator supports `cfg`.
///
/// Since the predicated edge-tile path, this is **total over the envelope
/// grid** [`WideningGemmConfig::validate`] enforces: shapes off the 32×32
/// accumulator grid are covered by `whilelt`-masked partial tiles (the FP32
/// microkernel's machinery, reused for the interleaved BF16 packed layout),
/// so `m % 32` / `n % 32` remainders no longer reject a shape. The function
/// is kept as the explicit support predicate the `sme-router`, cache and
/// plan store consult — the symmetric twin of
/// [`crate::neon::neon_widening_supports`] — so a future narrowing shows up
/// in exactly one place.
pub fn sme_widening_supports(cfg: &WideningGemmConfig) -> Result<(), GemmError> {
    cfg.validate()
}

/// Length in BF16 elements of the 2-way interleaved packed layout for an
/// `extent × k` operand (odd `k` is padded to the next contraction pair).
pub fn packed_interleaved_len(extent: usize, k: usize) -> usize {
    extent * k.next_multiple_of(2)
}

/// Length in BF16 elements of the `BFMMLA` packed layout for an
/// `extent × k` operand (`extent` must be even; `k` is padded to the next
/// multiple of 4).
pub fn packed_mmla_len(extent: usize, k: usize) -> usize {
    assert!(
        extent.is_multiple_of(2),
        "mmla packing requires even extent"
    );
    (extent / 2) * k.div_ceil(4) * 8
}

/// Round an `f32` slice to BF16 precision (returns the raw BF16 bits).
fn to_bf16_bits(values: &[f32]) -> Vec<u16> {
    values
        .iter()
        .map(|v| sme_machine::exec::fp::f32_to_bf16(*v))
        .collect()
}

/// Pack a column-major `m × k` FP32 A into the 2-way interleaved BF16
/// layout consumed by the widening BFMOPA kernel: element `(r, kk)` lands
/// at `packed[(kk / 2) * 2 * m + r * 2 + (kk % 2)]`. An odd `k` is padded
/// with zeros to the next contraction pair.
pub fn pack_a_bf16(a: &[f32], m: usize, lda: usize, k: usize) -> Vec<u16> {
    let mut packed = vec![0u16; packed_interleaved_len(m, k)];
    for kk in 0..k {
        for r in 0..m {
            let v = sme_machine::exec::fp::f32_to_bf16(a[kk * lda + r]);
            packed[(kk / 2) * 2 * m + r * 2 + (kk % 2)] = v;
        }
    }
    packed
}

/// Pack a row-major `k × n` FP32 B (the `Bᵀ` operand) into the 2-way
/// interleaved BF16 layout: element `(kk, c)` lands at
/// `packed[(kk / 2) * 2 * n + c * 2 + (kk % 2)]`. An odd `k` is padded with
/// zeros to the next contraction pair.
pub fn pack_b_bf16(b: &[f32], k: usize, ldb: usize, n: usize) -> Vec<u16> {
    let mut packed = vec![0u16; packed_interleaved_len(n, k)];
    for kk in 0..k {
        for c in 0..n {
            let v = sme_machine::exec::fp::f32_to_bf16(b[kk * ldb + c]);
            packed[(kk / 2) * 2 * n + c * 2 + (kk % 2)] = v;
        }
    }
    packed
}

/// Pack a column-major `m × k` FP32 A into the `BFMMLA` layout the Neon
/// widening baseline consumes: element `(r, kk)` lands at
/// `packed[((kk / 4) * (m / 2) + r / 2) * 8 + (r % 2) * 4 + (kk % 4)]`,
/// i.e. one 128-bit register holds a row pair × one contraction quad. `k`
/// is padded with zeros to the next multiple of 4 (zero products contribute
/// nothing to the FP32 accumulation).
pub fn pack_a_bf16_mmla(a: &[f32], m: usize, lda: usize, k: usize) -> Vec<u16> {
    let mut packed = vec![0u16; packed_mmla_len(m, k)];
    for kk in 0..k {
        for r in 0..m {
            let v = sme_machine::exec::fp::f32_to_bf16(a[kk * lda + r]);
            packed[((kk / 4) * (m / 2) + r / 2) * 8 + (r % 2) * 4 + (kk % 4)] = v;
        }
    }
    packed
}

/// Pack a row-major `k × n` FP32 B into the `BFMMLA` layout: element
/// `(kk, c)` lands at
/// `packed[((kk / 4) * (n / 2) + c / 2) * 8 + (c % 2) * 4 + (kk % 4)]` (one
/// register holds a column pair × one contraction quad, zero-padded like A).
pub fn pack_b_bf16_mmla(b: &[f32], k: usize, ldb: usize, n: usize) -> Vec<u16> {
    let mut packed = vec![0u16; packed_mmla_len(n, k)];
    for kk in 0..k {
        for c in 0..n {
            let v = sme_machine::exec::fp::f32_to_bf16(b[kk * ldb + c]);
            packed[((kk / 4) * (n / 2) + c / 2) * 8 + (c % 2) * 4 + (kk % 4)] = v;
        }
    }
    packed
}

/// The scalar oracle both widening backends are validated against: round A
/// and B to BF16 (the precision the packed operands carry), then accumulate
/// in FP32 **sequentially in contraction order** — `c` is updated in place.
///
/// `a` is column-major `m × k` (tight), `b` row-major `k × n` (tight), `c`
/// column-major `m × n` (tight).
pub fn widening_reference(cfg: &WideningGemmConfig, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= cfg.m * cfg.k, "A buffer too small");
    assert!(b.len() >= cfg.k * cfg.n, "B buffer too small");
    assert!(c.len() >= cfg.c_len(), "C buffer too small");
    let a_r: Vec<f32> = to_bf16_bits(a)
        .iter()
        .map(|&x| sme_machine::exec::fp::bf16_to_f32(x))
        .collect();
    let b_r: Vec<f32> = to_bf16_bits(b)
        .iter()
        .map(|&x| sme_machine::exec::fp::bf16_to_f32(x))
        .collect();
    for col in 0..cfg.n {
        for row in 0..cfg.m {
            let mut acc = c[col * cfg.m + row];
            for kk in 0..cfg.k {
                acc += a_r[kk * cfg.m + row] * b_r[kk * cfg.n + col];
            }
            c[col * cfg.m + row] = acc;
        }
    }
}

/// The candidate the widening generators use with no tuning: the SME
/// backend with the 32×32 homogeneous plan (edge tiles masked), the
/// baseline an argmin over [`enumerate_widening_candidates`] can never lose
/// to.
pub fn default_widening_candidate(cfg: &WideningGemmConfig) -> PlanCandidate {
    PlanCandidate {
        backend: Backend::Sme,
        kind: PlanKind::Homogeneous(RegisterBlocking::B32x32),
        c_transfer: cfg.c_transfer,
        k_unroll: cfg.k_unroll,
        schedule: KernelSchedule::Serial,
    }
}

/// Enumerate the tuning candidates for a widening configuration, mirroring
/// the FP32 row-major space ([`crate::enumerate_candidates`]):
///
/// * the heterogeneous plan and all three homogeneous register blockings —
///   the predicated edge-tile path masks remainder rows/columns, so
///   edge-bearing blockings are real candidates on every envelope shape
///   (a 40×40 output, say, genuinely chooses between one masked-edge
///   heterogeneous cover and four masked 32×32 blocks);
/// * both [`ZaTransferStrategy`] variants;
/// * contraction-**pair** unroll factors from {1, 2, 4} that divide `k / 2`
///   (non-dividing factors fall back to unroll 1 in the generator and would
///   only duplicate candidates), never dropping the configuration's own
///   setting;
/// * the single Neon `BFMMLA` candidate, so the tuner compares across
///   engines.
///
/// The list always contains [`default_widening_candidate`]`(cfg)`.
pub fn enumerate_widening_candidates(cfg: &WideningGemmConfig) -> Vec<PlanCandidate> {
    let mut candidates = Vec::new();
    let kinds = [
        PlanKind::Heterogeneous,
        PlanKind::Homogeneous(RegisterBlocking::B32x32),
        PlanKind::Homogeneous(RegisterBlocking::B16x64),
        PlanKind::Homogeneous(RegisterBlocking::B64x16),
    ];
    let pairs = cfg.k / 2;
    for &kind in &kinds {
        for c_transfer in [ZaTransferStrategy::TwoStep, ZaTransferStrategy::Direct] {
            for k_unroll in [1usize, 2, 4] {
                if !pairs.is_multiple_of(k_unroll) && k_unroll != cfg.k_unroll {
                    continue;
                }
                candidates.push(PlanCandidate {
                    backend: Backend::Sme,
                    kind,
                    c_transfer,
                    k_unroll,
                    schedule: KernelSchedule::Serial,
                });
            }
        }
    }
    candidates.push(PlanCandidate {
        backend: Backend::Neon,
        kind: PlanKind::Homogeneous(RegisterBlocking::B32x32),
        c_transfer: cfg.c_transfer,
        k_unroll: cfg.k_unroll,
        schedule: KernelSchedule::Serial,
    });
    debug_assert!(candidates.contains(&default_widening_candidate(cfg)));
    candidates
}

/// Analytic pre-filter for widening tuning candidates — the BF16 twin of
/// [`crate::prune_dominated_candidates`], using the contraction-**pair**
/// cost of [`crate::analytic_widening_k_pair_cycles`]. The default and Neon
/// candidates always survive.
pub fn prune_dominated_widening_candidates(
    cfg: &WideningGemmConfig,
    candidates: Vec<PlanCandidate>,
) -> Vec<PlanCandidate> {
    let machine = sme_machine::MachineConfig::default();
    crate::blocking::prune_dominated_by(
        cfg.m,
        cfg.n,
        default_widening_candidate(cfg),
        candidates,
        |plan| crate::blocking::analytic_widening_k_pair_cycles(plan, &machine),
    )
}

/// Generate the default SME BF16 → FP32 kernel for `cfg` (the 32×32
/// homogeneous plan with the configuration's own knobs; remainder tiles
/// are masked).
pub fn generate_widening(cfg: &WideningGemmConfig) -> Result<RoutedKernel, GemmError> {
    generate_widening_tuned(cfg, &default_widening_candidate(cfg))
}

/// Generate an SME BF16 → FP32 kernel from a tuning candidate — the
/// dispatch path used by the runtime's cache and cross-backend tuner. The
/// kernel reads the 2-way interleaved operands of [`pack_a_bf16`] /
/// [`pack_b_bf16`] ([`crate::kernel::OperandLayout::InterleavedBf16`]).
///
/// Blocks whose extent exceeds the remaining rows/columns are emitted as
/// **predicated partial tiles**: per-group `whilelt` predicates gate the
/// widening outer products and the FP32 accumulator transfers, and
/// halfword predicates/counters mask the packed BF16 operand loads so
/// nothing is read past the block's rows/columns (zeroing predication keeps
/// the unused lanes garbage-free).
///
/// # Errors
/// Returns an error if the configuration is off the envelope grid, if the
/// candidate targets the Neon backend (use [`crate::generate_any_routed`]),
/// or if the candidate's plan kind is [`PlanKind::ColumnPanels`] (the
/// packed operands have no column-major variant to transpose).
pub fn generate_widening_tuned(
    cfg: &WideningGemmConfig,
    candidate: &PlanCandidate,
) -> Result<RoutedKernel, GemmError> {
    if candidate.backend != Backend::Sme {
        return Err(GemmError::Unsupported(format!(
            "generate_widening_tuned emits SME kernels only; a {} candidate must go \
             through generate_any_routed",
            candidate.backend
        )));
    }
    let cfg = WideningGemmConfig {
        c_transfer: candidate.c_transfer,
        k_unroll: candidate.k_unroll,
        ..*cfg
    };
    sme_widening_supports(&cfg)?;
    if !matches!(
        candidate.kind,
        PlanKind::Homogeneous(_) | PlanKind::Heterogeneous
    ) {
        return Err(GemmError::Unsupported(format!(
            "plan kind `{}` is not supported by the widening generator \
             (the packed operands have no column-major panels)",
            candidate.kind.name()
        )));
    }

    let mut asm = Assembler::new(format!("sme_gemm_bf16_{}x{}x{}", cfg.m, cfg.n, cfg.k));

    // Prologue: streaming mode and strides (predicates are per block).
    asm.push(SmeInst::Smstart { za_only: false });
    // Per contraction *pair*, A advances by 2*m BF16 elements and B by 2*n.
    asm.mov_imm64(xr(LDA_B), (2 * cfg.m * 2) as u64);
    asm.mov_imm64(xr(BK_STRIDE), (2 * cfg.n * 2) as u64);
    asm.mov_imm64(xr(LDC_B), (cfg.m * 4) as u64);

    // The C handling reuses the FP32 machinery (C is FP32 either way).
    let c_cfg = GemmConfig::abt(cfg.m, cfg.n, cfg.k).with_c_transfer(cfg.c_transfer);

    let plan = candidate.kind.build(cfg.m, cfg.n);
    let pairs = cfg.k / 2;
    let unroll = if cfg.k_unroll > 1 && pairs.is_multiple_of(cfg.k_unroll) {
        cfg.k_unroll
    } else {
        1
    };
    for block in &plan.blocks {
        emit_widening_block_predicates(&mut asm, block);

        // Pointers into the packed operands and C.
        asm.push(ScalarInst::MovReg {
            rd: xr(A_PTR),
            rn: xr(ARG_A),
        });
        if block.row0 > 0 {
            asm.add_imm(xr(A_PTR), xr(A_PTR), (block.row0 * 2 * 2) as u64);
        }
        asm.push(ScalarInst::MovReg {
            rd: xr(B_PTR),
            rn: xr(ARG_B),
        });
        if block.col0 > 0 {
            asm.add_imm(xr(B_PTR), xr(B_PTR), (block.col0 * 2 * 2) as u64);
        }
        asm.push(ScalarInst::MovReg {
            rd: xr(C_PTR),
            rn: xr(ARG_C),
        });
        let c_off = c_cfg.c_offset(block.row0, block.col0) as u64;
        if c_off > 0 {
            if c_off < (1 << 24) {
                asm.add_imm(xr(C_PTR), xr(C_PTR), c_off);
            } else {
                asm.mov_imm64(xr(TMP0), c_off);
                asm.push(ScalarInst::AddReg {
                    rd: xr(C_PTR),
                    rn: xr(C_PTR),
                    rm: xr(TMP0),
                    shift: None,
                });
            }
        }

        // Load the FP32 accumulator block.
        emit_c_transfer(&mut asm, &c_cfg, block, TransferDir::Load);

        // Contraction loop over k *pairs*.
        asm.mov_imm64(xr(K_CNT), (pairs / unroll) as u64);
        let top = asm.new_label();
        asm.bind(top);
        asm.push(ScalarInst::SubImm {
            rd: xr(K_CNT),
            rn: xr(K_CNT),
            imm12: 1,
            shift12: false,
        });
        for _ in 0..unroll {
            emit_widening_k_pair(&mut asm, block);
        }
        asm.cbnz(xr(K_CNT), top);

        // Store the FP32 accumulator block.
        emit_c_transfer(&mut asm, &c_cfg, block, TransferDir::Store);
    }

    asm.push(SmeInst::Smstop { za_only: false });
    asm.ret();
    Ok(RoutedKernel::new(cfg, Backend::Sme, None, asm.finish()))
}

/// Emit the predicate setup for one widening block.
///
/// Two predicate families cover the two element widths in play:
///
/// * **F32 lane predicates** (`row_pred`/`col_pred`, plus the `a_counter`
///   governing multi-vector C transfers) mask the FP32 side — the widening
///   FMOPA's tile rows/columns and the accumulator loads/stores — exactly
///   as in the FP32 microkernel ([`crate::microkernel`]);
/// * **halfword predicates/counters** (`wa_*`/`wb_*`) mask the packed BF16
///   operand loads: the 2-way interleaved layout stores two BF16 elements
///   per row (resp. column), so the first `2 × rows` halfword lanes are
///   exactly the block's rows and zeroing predication fills the rest with
///   zeros, which contribute nothing to the masked outer products.
fn emit_widening_block_predicates(asm: &mut Assembler, block: &BlockInstance) {
    use crate::blocking::TILE;
    let rows = block.rows;
    let cols = block.cols;
    let rg_count = block.active_row_groups();
    let cg_count = block.active_col_groups();
    for rg in 0..rg_count {
        let lanes = TILE.min(rows - rg * TILE);
        emit_lane_predicate(asm, row_pred(rg), lanes, ElementType::F32);
    }
    for cg in 0..cg_count {
        let lanes = TILE.min(cols - cg * TILE);
        emit_lane_predicate(asm, col_pred(cg), lanes, ElementType::F32);
    }
    // The C transfer moves `rows` FP32 elements per column.
    if load_vectors(rg_count) > 1 {
        emit_counter_predicate(
            asm,
            a_counter(),
            rows,
            load_vectors(rg_count),
            ElementType::F32,
        );
    }
    // The operand loads move `2 × rows` / `2 × cols` packed BF16 elements
    // per contraction pair.
    if load_vectors(rg_count) > 1 {
        emit_counter_predicate(
            asm,
            wa_counter(),
            2 * rows,
            load_vectors(rg_count),
            ElementType::F16,
        );
    } else {
        emit_lane_predicate(asm, wa_pred(), 2 * rows, ElementType::F16);
    }
    if load_vectors(cg_count) > 1 {
        emit_counter_predicate(
            asm,
            wb_counter(),
            2 * cols,
            load_vectors(cg_count),
            ElementType::F16,
        );
    } else {
        emit_lane_predicate(asm, wb_pred(), 2 * cols, ElementType::F16);
    }
}

/// One contraction pair: masked packed operand loads (one 32-BF16 vector
/// per 16-row/-column group), cursor bumps, one predicated widening BFMOPA
/// per active tile.
fn emit_widening_k_pair(asm: &mut Assembler, block: &BlockInstance) {
    let rg_count = block.active_row_groups();
    let cg_count = block.active_col_groups();
    if load_vectors(rg_count) == 1 {
        asm.push(SveInst::Ld1 {
            zt: zr(ZA_A),
            elem: ElementType::F16,
            pg: wa_pred(),
            rn: xr(A_PTR),
            imm_vl: 0,
        });
    } else {
        asm.push(SveInst::Ld1Multi {
            zt: zr(ZA_A),
            count: load_vectors(rg_count) as u8,
            elem: ElementType::F16,
            pn: wa_counter(),
            rn: xr(A_PTR),
            imm_vl: 0,
        });
    }
    if load_vectors(cg_count) == 1 {
        asm.push(SveInst::Ld1 {
            zt: zr(ZB_B),
            elem: ElementType::F16,
            pg: wb_pred(),
            rn: xr(B_PTR),
            imm_vl: 0,
        });
    } else {
        asm.push(SveInst::Ld1Multi {
            zt: zr(ZB_B),
            count: load_vectors(cg_count) as u8,
            elem: ElementType::F16,
            pn: wb_counter(),
            rn: xr(B_PTR),
            imm_vl: 0,
        });
    }
    asm.push(ScalarInst::AddReg {
        rd: xr(A_PTR),
        rn: xr(A_PTR),
        rm: xr(LDA_B),
        shift: None,
    });
    asm.push(ScalarInst::AddReg {
        rd: xr(B_PTR),
        rn: xr(B_PTR),
        rm: xr(BK_STRIDE),
        shift: None,
    });
    for cg in 0..cg_count {
        for rg in 0..rg_count {
            asm.push(SmeInst::FmopaWide {
                tile: block.blocking.tile_index(rg, cg),
                from: ElementType::BF16,
                pn: col_pred(cg),
                pm: row_pred(rg),
                zn: zr(ZB_B + cg as u8),
                zm: zr(ZA_A + rg as u8),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(WideningGemmConfig::new(32, 32, 2).is_ok());
        assert!(WideningGemmConfig::new(16, 4, 8).is_ok(), "Neon 8x2 grid");
        assert!(WideningGemmConfig::new(8, 2, 2).is_ok());
        assert!(WideningGemmConfig::new(31, 32, 2).is_err(), "m % 8 != 0");
        assert!(WideningGemmConfig::new(32, 3, 2).is_err(), "n % 2 != 0");
        assert!(WideningGemmConfig::new(32, 32, 3).is_err(), "odd k");
        assert!(WideningGemmConfig::new(0, 32, 2).is_err());
        let c = WideningGemmConfig::new(64, 32, 10).unwrap();
        assert_eq!(c.flops(), 2 * 64 * 32 * 10);
        assert_eq!(c.packed_a_len(), 640);
        assert_eq!(c.packed_b_len(), 320);
        assert_eq!(c.packed_a_mmla_len(), 64 / 2 * 3 * 8);
        assert!(c.with_k_unroll(3).validate().is_err());
    }

    #[test]
    fn sme_support_is_total_over_the_envelope_grid() {
        // The predicated edge-tile path makes the SME widening generator
        // cover exactly the envelope grid the config enforces — the same
        // coverage as the Neon BFMMLA baseline.
        for (m, n, k) in [(32, 32, 4), (16, 4, 4), (40, 32, 4), (8, 2, 2), (40, 6, 14)] {
            let cfg = WideningGemmConfig::new(m, n, k).unwrap();
            assert!(sme_widening_supports(&cfg).is_ok(), "({m},{n},{k})");
            assert!(crate::neon::neon_widening_supports(&cfg).is_ok());
        }
        // Off the envelope grid, neither engine (nor the config) accepts.
        assert!(WideningGemmConfig::new(12, 4, 8).is_err());
    }

    #[test]
    fn packing_layout() {
        // A = 2x2 column-major: [[1,3],[2,4]] (a[0]=1, a[1]=2 first column).
        let a = vec![1.0f32, 2.0, 3.0, 4.0];
        let packed = pack_a_bf16(&a, 2, 2, 2);
        // packed[(kk/2)*2m + r*2 + kk%2]: (r=0,k=0)->0, (r=0,k=1)->1,
        // (r=1,k=0)->2, (r=1,k=1)->3.
        let vals: Vec<f32> = packed
            .iter()
            .map(|&x| sme_machine::exec::fp::bf16_to_f32(x))
            .collect();
        assert_eq!(vals, vec![1.0, 3.0, 2.0, 4.0]);
        // B = 2x2 row-major identity.
        let b = vec![1.0f32, 0.0, 0.0, 1.0];
        let packed = pack_b_bf16(&b, 2, 2, 2);
        let vals: Vec<f32> = packed
            .iter()
            .map(|&x| sme_machine::exec::fp::bf16_to_f32(x))
            .collect();
        assert_eq!(vals, vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn mmla_packing_layout_and_padding() {
        // A = 2x2 column-major: one row pair, one (padded) quad.
        let a = vec![1.0f32, 2.0, 3.0, 4.0];
        let packed = pack_a_bf16_mmla(&a, 2, 2, 2);
        assert_eq!(packed.len(), 8, "one register, k padded 2 -> 4");
        let vals: Vec<f32> = packed
            .iter()
            .map(|&x| sme_machine::exec::fp::bf16_to_f32(x))
            .collect();
        // Row 0 of the register: A[0, 0..2] then zero padding; row 1: A[1, ..].
        assert_eq!(vals, vec![1.0, 3.0, 0.0, 0.0, 2.0, 4.0, 0.0, 0.0]);
        let b = vec![1.0f32, 0.0, 0.0, 1.0];
        let packed = pack_b_bf16_mmla(&b, 2, 2, 2);
        let vals: Vec<f32> = packed
            .iter()
            .map(|&x| sme_machine::exec::fp::bf16_to_f32(x))
            .collect();
        assert_eq!(vals, vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn widening_kernels_validate() {
        for (m, n, k) in [(32, 32, 2), (32, 32, 16), (64, 32, 8), (64, 64, 24)] {
            let cfg = WideningGemmConfig::new(m, n, k).unwrap();
            let kernel = generate_widening(&cfg).expect("generation");
            let err = kernel.validate(5);
            assert!(err < WIDENING_REL_TOL, "({m},{n},{k}): {err}");
        }
    }

    #[test]
    fn masked_edge_kernels_are_bit_identical_to_the_oracle() {
        // Off-grid shapes exercise every masking combination: partial row
        // groups, partial column groups, single- and multi-vector operand
        // loads, and the 8x2 envelope minimum. The masked BFMOPA still
        // accumulates each active element in contraction order with unfused
        // multiply-adds, so the output matches the sequential oracle bit
        // for bit — exactly like the full-tile path.
        for (m, n, k) in [
            (40, 40, 8),  // one masked row and column group
            (48, 40, 16), // masked columns only
            (40, 64, 6),  // masked rows only
            (16, 4, 8),   // thin: a single heavily masked block
            (8, 2, 2),    // the envelope minimum
            (40, 6, 14),  // off both 32-grid dimensions
            (96, 72, 10), // multiple full blocks plus edges
        ] {
            let cfg = WideningGemmConfig::new(m, n, k).unwrap();
            let kernel = generate_widening(&cfg).expect("generation");
            assert_eq!(kernel.validate(5), 0.0, "({m},{n},{k})");
        }
    }

    #[test]
    fn masked_widening_kernels_encode_and_disassemble() {
        // The masked operand loads must use governing predicates in P0-P7
        // (ld1h has a 3-bit Pg field) — a kernel that only simulates but
        // cannot be encoded could never run on real hardware. Exercise
        // every load shape: single-vector masked A and B (thin shapes),
        // and the multi-vector counter forms (edge strips).
        for (m, n, k) in [(16, 4, 8), (8, 2, 2), (40, 40, 8), (40, 6, 14)] {
            let cfg = WideningGemmConfig::new(m, n, k).unwrap();
            let kernel = generate_widening(&cfg).unwrap();
            let disasm = kernel.disassembly();
            assert!(disasm.contains("whilelt"), "({m},{n},{k})");
            assert!(disasm.contains("bfmopa"), "({m},{n},{k})");
            assert_eq!(
                kernel.program().encode_bytes().len(),
                kernel.program().len() * 4,
                "({m},{n},{k}): every instruction must encode"
            );
        }
    }

    #[test]
    fn edge_bearing_blockings_validate_across_kinds() {
        // Every enumerated SME candidate — including the heterogeneous plan
        // and the thin blockings, all masked on this 40x40 shape — must
        // generate and stay bit-identical to the oracle.
        let cfg = WideningGemmConfig::new(40, 40, 8).unwrap();
        let mut sme_seen = 0;
        for candidate in enumerate_widening_candidates(&cfg) {
            if candidate.backend != Backend::Sme {
                continue;
            }
            let kernel = generate_widening_tuned(&cfg, &candidate).expect("tuned generation");
            assert_eq!(kernel.validate(0xED6E), 0.0, "{candidate:?}");
            sme_seen += 1;
        }
        assert!(sme_seen >= 8, "all four kinds must be real candidates");
    }

    #[test]
    fn widening_candidates_mirror_the_fp32_space() {
        // 64x64: 4 plan kinds x 2 transfers x unrolls {1,2,4} (k=8 -> 4
        // pairs, all divide) + the Neon candidate — the same shape as the
        // FP32 row-major space.
        let cfg = WideningGemmConfig::new(64, 64, 8).unwrap();
        let candidates = enumerate_widening_candidates(&cfg);
        assert_eq!(candidates.len(), 4 * 2 * 3 + 1);
        assert!(candidates.contains(&default_widening_candidate(&cfg)));
        assert_eq!(
            candidates
                .iter()
                .filter(|c| c.backend == Backend::Neon)
                .count(),
            1
        );
        for (i, a) in candidates.iter().enumerate() {
            assert!(!candidates[i + 1..].contains(a), "duplicate {a:?}");
        }

        // Off the 32-grid the SME candidates remain (edge-bearing
        // blockings are real candidates now), and the default stays SME.
        let thin = WideningGemmConfig::new(16, 4, 4).unwrap();
        let candidates = enumerate_widening_candidates(&thin);
        assert!(candidates.iter().any(|c| c.backend == Backend::Sme));
        assert!(candidates.iter().any(|c| c.backend == Backend::Neon));
        assert_eq!(default_widening_candidate(&thin).backend, Backend::Sme);

        // k = 2 (one pair): only unroll 1 survives.
        let shallow = WideningGemmConfig::new(32, 32, 2).unwrap();
        assert!(enumerate_widening_candidates(&shallow)
            .iter()
            .all(|c| c.k_unroll == 1));
    }

    #[test]
    fn widening_prefilter_prunes_without_dropping_default_or_neon() {
        // A 64x16 output: the B64x16 blocking covers it with one unmasked
        // block, dominating the thin 16x64 cover on both metrics.
        let cfg = WideningGemmConfig::new(64, 16, 32).unwrap();
        let before = enumerate_widening_candidates(&cfg);
        let after = prune_dominated_widening_candidates(&cfg, before.clone());
        assert!(after.len() < before.len(), "something must be pruned");
        assert!(after.contains(&default_widening_candidate(&cfg)));
        assert!(after.iter().any(|c| c.backend == Backend::Neon));
        assert!(!after
            .iter()
            .any(|c| c.kind == PlanKind::Homogeneous(RegisterBlocking::B16x64)));
    }

    #[test]
    fn tuned_widening_kernels_validate_across_the_candidate_space() {
        let cfg = WideningGemmConfig::new(64, 64, 8).unwrap();
        for candidate in enumerate_widening_candidates(&cfg) {
            if candidate.backend != Backend::Sme {
                continue;
            }
            let kernel = generate_widening_tuned(&cfg, &candidate).expect("tuned generation");
            let tuned = *kernel.any_config().as_widening().expect("widening kernel");
            assert_eq!(tuned.c_transfer, candidate.c_transfer);
            assert_eq!(tuned.k_unroll, candidate.k_unroll);
            let err = kernel.validate(0xACE);
            assert!(err < WIDENING_REL_TOL, "{candidate:?}: {err}");
        }
    }

    #[test]
    fn sme_widening_output_is_bit_identical_to_the_sequential_oracle() {
        // BFMOPA accumulates each element in contraction order with unfused
        // FP32 multiply-adds — exactly the oracle's arithmetic.
        let cfg = WideningGemmConfig::new(32, 64, 12).unwrap();
        let kernel = generate_widening(&cfg).unwrap();
        assert_eq!(kernel.validate(42), 0.0);
    }

    #[test]
    fn widening_generator_rejects_bad_candidates() {
        let cfg = WideningGemmConfig::new(32, 32, 4).unwrap();
        // Neon candidates must go through the routed path.
        let neon = PlanCandidate {
            backend: Backend::Neon,
            ..default_widening_candidate(&cfg)
        };
        assert!(generate_widening_tuned(&cfg, &neon).is_err());
        // Column panels have no meaning for the pre-packed operands.
        let panels = PlanCandidate {
            kind: PlanKind::ColumnPanels,
            ..default_widening_candidate(&cfg)
        };
        assert!(generate_widening_tuned(&cfg, &panels).is_err());
        // Heterogeneous plans and edge-bearing blockings now generate.
        let het = PlanCandidate {
            kind: PlanKind::Heterogeneous,
            ..default_widening_candidate(&cfg)
        };
        assert!(generate_widening_tuned(&cfg, &het).is_ok());
        let wide = PlanCandidate {
            kind: PlanKind::Homogeneous(RegisterBlocking::B16x64),
            ..default_widening_candidate(&cfg)
        };
        assert!(generate_widening_tuned(&cfg, &wide).is_ok(), "masked cols");
        // Off-grid shapes compile through the masked path.
        let thin = WideningGemmConfig::new(16, 4, 4).unwrap();
        assert!(generate_widening(&thin).is_ok());
    }

    #[test]
    fn widening_kernel_contains_bfmopa() {
        use sme_isa::inst::Inst;
        let cfg = WideningGemmConfig::new(32, 32, 8).unwrap();
        let kernel = generate_widening(&cfg).unwrap();
        let bfmopas = kernel
            .program()
            .count_matching(|i| matches!(i, Inst::Sme(SmeInst::FmopaWide { .. })));
        assert_eq!(bfmopas, 4);
        assert!(kernel.disassembly().contains("bfmopa"));
    }

    #[test]
    fn unrolled_widening_kernels_replicate_the_pair_body() {
        use sme_isa::inst::Inst;
        let cfg = WideningGemmConfig::new(32, 32, 16).unwrap();
        let candidate = PlanCandidate {
            k_unroll: 4,
            ..default_widening_candidate(&cfg)
        };
        let kernel = generate_widening_tuned(&cfg, &candidate).unwrap();
        let branches = kernel
            .program()
            .count_matching(|i| matches!(i, Inst::Scalar(ScalarInst::Cbnz { .. })));
        assert_eq!(branches, 1);
        let bfmopas = kernel
            .program()
            .count_matching(|i| matches!(i, Inst::Sme(SmeInst::FmopaWide { .. })));
        assert_eq!(bfmopas, 16, "4 tiles x unroll 4");
        assert!(kernel.validate(9) < WIDENING_REL_TOL);
    }

    #[test]
    fn widening_throughput_matches_the_fp32_centric_conclusion() {
        // On M4, BFMOPA has the same FLOP rate as the FP32 FMOPA, so the
        // BF16 kernel should land in the same throughput region as the FP32
        // kernel (no 2x gain — the paper's "FP32-centric" conclusion), while
        // halving the streamed operand bytes.
        let cfg = WideningGemmConfig::new(128, 128, 256).unwrap();
        let kernel = generate_widening(&cfg).unwrap();
        let bf16 = kernel.model_gflops();
        let fp32 = crate::generate(&GemmConfig::abt(128, 128, 256))
            .unwrap()
            .model_gflops();
        assert!(bf16 > 0.85 * fp32, "bf16 {bf16} vs fp32 {fp32}");
        assert!(bf16 < 1.3 * fp32, "bf16 {bf16} vs fp32 {fp32}");
    }
}
