//! Traditional Neon (ASIMD) small-GEMM generation.
//!
//! The paper's Fig. 6 contrasts a classic LIBXSMM Neon microkernel — a 16×6
//! block of C held in 24 128-bit registers, updated with FMLA-by-element —
//! with the SME 32×32 microkernel. This module provides
//!
//! * [`emit_neon_16x6_k_step`], the exact Fig. 6 microkernel body, used for
//!   the instruction-mix comparison,
//! * [`generate_neon`], a complete Neon GEMM kernel (16×4 blocking, which
//!   avoids over-reading B rows) used as the non-SME baseline in ablation
//!   benchmarks and, through [`crate::generate_any_backend`], as the
//!   router's Neon engine, and
//! * [`generate_neon_widening`], its BF16 → FP32 `BFMMLA` twin.

use crate::config::{BLayout, Backend, Beta, GemmConfig, GemmError};
use crate::kernel::RoutedKernel;
use crate::microkernel::{
    xr, ARG_A, ARG_B, ARG_C, A_PTR, BK_STRIDE, B_PTR, COL_PTR, C_PTR, K_CNT, LDA_B, LDC_B, TMP0,
};
use crate::widening::WideningGemmConfig;
use sme_isa::asm::Assembler;
use sme_isa::inst::{NeonInst, ScalarInst};
use sme_isa::regs::VReg;
use sme_isa::types::NeonArrangement;
use sme_isa::Program;

fn vr(n: u8) -> VReg {
    VReg::new(n)
}

/// Emit one contraction step of the Fig. 6 Neon microkernel: a 16×6 block of
/// C in `v4`–`v27`, one column of A in `v0`–`v3`, six broadcast values of B
/// read into `v28`–`v29`, updated with 24 FMLA-by-element instructions.
pub fn emit_neon_16x6_k_step(asm: &mut Assembler) {
    // Load the 16-element A column (64 bytes).
    asm.push(NeonInst::LdpQ {
        vt1: vr(0),
        vt2: vr(1),
        rn: xr(A_PTR),
        imm: 0,
    });
    asm.push(NeonInst::LdpQ {
        vt1: vr(2),
        vt2: vr(3),
        rn: xr(A_PTR),
        imm: 32,
    });
    // Load six B values (two quads; the second overlaps the first by two
    // lanes so only six distinct values are consumed).
    asm.push(NeonInst::LdrQ {
        vt: vr(28),
        rn: xr(B_PTR),
        imm: 0,
    });
    asm.push(NeonInst::LdrQ {
        vt: vr(29),
        rn: xr(B_PTR),
        imm: 16,
    });
    // 6 columns × 4 register quads of C.
    for col in 0..6u8 {
        let (src, lane) = if col < 4 { (28, col) } else { (29, col - 4) };
        for quad in 0..4u8 {
            asm.push(NeonInst::fmla_elem(
                vr(4 + col * 4 + quad),
                vr(quad),
                vr(src),
                lane,
                NeonArrangement::S4,
            ));
        }
    }
}

/// Static description of the Fig. 6 microkernel comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MicrokernelComparison {
    /// Accumulator elements held by the Neon microkernel (16 × 6).
    pub neon_accumulator: usize,
    /// Accumulator registers used by the Neon microkernel.
    pub neon_accum_registers: usize,
    /// FMLA instructions per contraction step.
    pub neon_fmla_per_step: usize,
    /// Multiply-accumulate lanes per Neon FMLA.
    pub neon_macs_per_inst: usize,
    /// Accumulator elements held by the SME microkernel (32 × 32).
    pub sme_accumulator: usize,
    /// FMOPA instructions per contraction step.
    pub sme_fmopa_per_step: usize,
    /// Multiply-accumulate lanes per FMOPA.
    pub sme_macs_per_inst: usize,
}

impl MicrokernelComparison {
    /// The Fig. 6 figures for SVL = 512.
    pub fn figure6() -> Self {
        MicrokernelComparison {
            neon_accumulator: 16 * 6,
            neon_accum_registers: 24,
            neon_fmla_per_step: 24,
            neon_macs_per_inst: 4,
            sme_accumulator: 32 * 32,
            sme_fmopa_per_step: 4,
            sme_macs_per_inst: 256,
        }
    }

    /// Average number of Neon FMLA instructions needed to match the work of
    /// one FMOPA (the paper states 64).
    pub fn fmla_per_fmopa(&self) -> usize {
        self.sme_macs_per_inst / self.neon_macs_per_inst
    }
}

/// Check whether the Neon generator supports `cfg`.
///
/// The only restriction (documented baseline, not the paper's
/// contribution) is the layout: A and C column-major, B row-major. The
/// residual-block path covers everything off the 16×4 register-blocking
/// grid down to single rows and columns — `ldr q`/`ldr d`/`ldr s` move
/// quad, pair and single-lane fragments respectively — so the generator is
/// **total** over valid FP32 `C += A·Bᵀ` configurations, exactly like the
/// SME generator, and the SME/Neon split is a pure performance decision.
/// Both accumulation modes compile ([`Beta::Zero`] zero-initialises the
/// accumulators with `movi`). The `sme-router` consults this before
/// offering the Neon backend for a shape.
pub fn neon_supports(cfg: &GemmConfig) -> Result<(), GemmError> {
    cfg.validate()?;
    if cfg.b_layout != BLayout::RowMajor {
        return Err(GemmError::Unsupported(
            "the Neon baseline generator only supports row-major B".into(),
        ));
    }
    Ok(())
}

/// Generate a complete Neon GEMM kernel for `C += A·Bᵀ` (or `C = A·Bᵀ`
/// under [`Beta::Zero`]).
///
/// The output is tiled with 16×4 register blocks; residual rows (`m % 16`)
/// shrink the last block row to quad/pair/single column segments and
/// residual columns (`n % 4`) shrink the last block column to a narrower
/// block whose B values arrive through `ldr d`/`ldr s` — every valid
/// row-major-B shape compiles ([`neon_supports`]), making the SME/Neon
/// split a pure performance decision.
pub fn generate_neon(cfg: &GemmConfig) -> Result<Program, GemmError> {
    neon_supports(cfg)?;

    let mut asm = Assembler::new(format!("neon_gemm_abt_{}x{}x{}", cfg.m, cfg.n, cfg.k));
    asm.mov_imm64(xr(LDA_B), (cfg.lda * 4) as u64);
    asm.mov_imm64(xr(LDC_B), (cfg.ldc * 4) as u64);

    for col0 in (0..cfg.n).step_by(4) {
        let cols = 4.min(cfg.n - col0);
        for row0 in (0..cfg.m).step_by(16) {
            let rows = 16.min(cfg.m - row0);
            emit_neon_block(&mut asm, cfg, row0, col0, rows, cols);
        }
    }
    asm.ret();
    Ok(asm.finish())
}

/// The V registers covering one `rows`-deep column segment: full quads
/// first, then at most one row pair, then at most one single row
/// (`rows` ≤ 16).
fn segment_regs(rows: usize) -> (usize, usize, usize) {
    (rows / 4, (rows % 4) / 2, rows % 2)
}

/// Emit loads of a `rows`-deep f32 column segment at `ptr` into the
/// consecutive V registers starting at `base`: paired `ldp q` for adjacent
/// quads, `ldr q` for a leftover quad, `ldr d` for a trailing row pair and
/// `ldr s` for a trailing single row (both zero the unused upper lanes,
/// keeping tail FMLA lanes garbage-free).
fn emit_segment_load(asm: &mut Assembler, base: u8, rows: usize, ptr: u8) {
    let (quads, pairs, singles) = segment_regs(rows);
    let mut q = 0;
    while q + 1 < quads {
        asm.push(NeonInst::LdpQ {
            vt1: vr(base + q as u8),
            vt2: vr(base + q as u8 + 1),
            rn: xr(ptr),
            imm: (q * 16) as i32,
        });
        q += 2;
    }
    if q < quads {
        asm.push(NeonInst::LdrQ {
            vt: vr(base + q as u8),
            rn: xr(ptr),
            imm: (q * 16) as u32,
        });
    }
    if pairs > 0 {
        asm.push(NeonInst::LdrD {
            vt: vr(base + quads as u8),
            rn: xr(ptr),
            imm: (quads * 16) as u32,
        });
    }
    if singles > 0 {
        asm.push(NeonInst::LdrS {
            vt: vr(base + (quads + pairs) as u8),
            rn: xr(ptr),
            imm: (quads * 16 + pairs * 8) as u32,
        });
    }
}

/// Store counterpart of [`emit_segment_load`] (`str d`/`str s` write only
/// the row pair's 8 / single row's 4 bytes, so nothing beyond the segment
/// is touched).
fn emit_segment_store(asm: &mut Assembler, base: u8, rows: usize, ptr: u8) {
    let (quads, pairs, singles) = segment_regs(rows);
    let mut q = 0;
    while q + 1 < quads {
        asm.push(NeonInst::StpQ {
            vt1: vr(base + q as u8),
            vt2: vr(base + q as u8 + 1),
            rn: xr(ptr),
            imm: (q * 16) as i32,
        });
        q += 2;
    }
    if q < quads {
        asm.push(NeonInst::StrQ {
            vt: vr(base + q as u8),
            rn: xr(ptr),
            imm: (q * 16) as u32,
        });
    }
    if pairs > 0 {
        asm.push(NeonInst::StrD {
            vt: vr(base + quads as u8),
            rn: xr(ptr),
            imm: (quads * 16) as u32,
        });
    }
    if singles > 0 {
        asm.push(NeonInst::StrS {
            vt: vr(base + (quads + pairs) as u8),
            rn: xr(ptr),
            imm: (quads * 16 + pairs * 8) as u32,
        });
    }
}

/// One `rows × cols` block (`rows` ≤ 16, `cols` ∈ {1, 2, 3, 4}):
/// initialise the accumulators (load C, or `movi #0` under
/// [`Beta::Zero`]), run the contraction loop, store C.
///
/// Register budget: A segment in `v0..`, accumulators from
/// `max(4, segs)` (one column = `segs` registers, at most 4 × 5), B row
/// segment in `v28` (three-wide tails spill the third value to `v29`) —
/// the full 16×4 case reproduces the historical layout (and instruction
/// stream) exactly.
fn emit_neon_block(
    asm: &mut Assembler,
    cfg: &GemmConfig,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
) {
    let (quads, pairs, singles) = segment_regs(rows);
    let segs = (quads + pairs + singles) as u8;
    // A 15-row segment needs five registers (3 quads + pair + single), so
    // the accumulators start past the A segment rather than at the
    // historical v4.
    let acc_base = 4u8.max(segs);
    let acc = |col: usize, seg: usize| vr(acc_base + col as u8 * segs + seg as u8);

    // Pointers.
    asm.push(ScalarInst::MovReg {
        rd: xr(A_PTR),
        rn: xr(ARG_A),
    });
    if row0 > 0 {
        asm.add_imm(xr(A_PTR), xr(A_PTR), (row0 * 4) as u64);
    }
    asm.push(ScalarInst::MovReg {
        rd: xr(B_PTR),
        rn: xr(ARG_B),
    });
    if col0 > 0 {
        asm.add_imm(xr(B_PTR), xr(B_PTR), (col0 * 4) as u64);
    }
    asm.push(ScalarInst::MovReg {
        rd: xr(C_PTR),
        rn: xr(ARG_C),
    });
    let c_off = cfg.c_offset(row0, col0) as u64;
    if c_off > 0 {
        asm.add_imm(xr(C_PTR), xr(C_PTR), c_off);
    }

    // Initialise the accumulators: column segments of C, or zeros.
    match cfg.beta {
        Beta::One => {
            asm.push(ScalarInst::MovReg {
                rd: xr(COL_PTR),
                rn: xr(C_PTR),
            });
            for col in 0..cols {
                emit_segment_load(asm, acc_base + col as u8 * segs, rows, COL_PTR);
                if col + 1 < cols {
                    asm.push(ScalarInst::AddReg {
                        rd: xr(COL_PTR),
                        rn: xr(COL_PTR),
                        rm: xr(LDC_B),
                        shift: None,
                    });
                }
            }
        }
        Beta::Zero => {
            for col in 0..cols {
                for seg in 0..segs as usize {
                    asm.push(NeonInst::MoviZero {
                        vd: acc(col, seg),
                        arrangement: NeonArrangement::S4,
                    });
                }
            }
        }
    }

    // Contraction loop.
    asm.mov_imm64(xr(K_CNT), cfg.k as u64);
    let top = asm.new_label();
    asm.bind(top);
    asm.push(ScalarInst::SubImm {
        rd: xr(K_CNT),
        rn: xr(K_CNT),
        imm12: 1,
        shift12: false,
    });
    // A column segment (`rows` values).
    emit_segment_load(asm, 0, rows, A_PTR);
    // B row segment (`cols` values; each tail width loads exactly the
    // values it consumes — `ldr q`/`ldr d`/`ldr s` for 4/2/1, and a
    // three-wide tail pairs `ldr d` with an `ldr s` of the third value
    // into v29 — so nothing past the row's end is read).
    match cols {
        4 => asm.push(NeonInst::LdrQ {
            vt: vr(28),
            rn: xr(B_PTR),
            imm: 0,
        }),
        3 => {
            asm.push(NeonInst::LdrD {
                vt: vr(28),
                rn: xr(B_PTR),
                imm: 0,
            });
            asm.push(NeonInst::LdrS {
                vt: vr(29),
                rn: xr(B_PTR),
                imm: 8,
            });
        }
        2 => asm.push(NeonInst::LdrD {
            vt: vr(28),
            rn: xr(B_PTR),
            imm: 0,
        }),
        _ => asm.push(NeonInst::LdrS {
            vt: vr(28),
            rn: xr(B_PTR),
            imm: 0,
        }),
    }
    asm.push(ScalarInst::AddReg {
        rd: xr(A_PTR),
        rn: xr(A_PTR),
        rm: xr(LDA_B),
        shift: None,
    });
    // B advances by one row: ldb * 4 bytes. Reuse TMP via an immediate add.
    asm.add_imm(xr(B_PTR), xr(B_PTR), (cfg.ldb * 4) as u64);
    for col in 0..cols {
        // A three-wide tail holds its third B value in lane 0 of v29.
        let (b_reg, b_lane) = if cols == 3 && col == 2 {
            (29u8, 0u8)
        } else {
            (28u8, col as u8)
        };
        for seg in 0..segs as usize {
            asm.push(NeonInst::fmla_elem(
                acc(col, seg),
                vr(seg as u8),
                vr(b_reg),
                b_lane,
                NeonArrangement::S4,
            ));
        }
    }
    asm.cbnz(xr(K_CNT), top);

    // Store the C block back.
    asm.push(ScalarInst::MovReg {
        rd: xr(COL_PTR),
        rn: xr(C_PTR),
    });
    for col in 0..cols {
        emit_segment_store(asm, acc_base + col as u8 * segs, rows, COL_PTR);
        if col + 1 < cols {
            asm.push(ScalarInst::AddReg {
                rd: xr(COL_PTR),
                rn: xr(COL_PTR),
                rm: xr(LDC_B),
                shift: None,
            });
        }
    }
}

/// Check whether the Neon widening (`BFMMLA`) generator supports `cfg`.
///
/// Total over the envelope grid, like its twin
/// [`crate::widening::sme_widening_supports`]: the 8×2 register blocking
/// steps whole row/column pairs and zero-padded contraction quads, so its
/// grid is exactly the `m % 8` / `n % 2` / even-`k` envelope
/// [`WideningGemmConfig::validate`] enforces. The grid is checked
/// explicitly here — not left implicit in `validate` — so the two
/// `*_supports` functions read symmetrically and a future blocking change
/// has one obvious place to narrow.
pub fn neon_widening_supports(cfg: &WideningGemmConfig) -> Result<(), GemmError> {
    cfg.validate()?;
    if !cfg.m.is_multiple_of(8) || !cfg.n.is_multiple_of(2) || !cfg.k.is_multiple_of(2) {
        return Err(GemmError::Unsupported(format!(
            "the Neon BFMMLA blocking requires m % 8 == 0, n % 2 == 0 and an even k \
             (got {}x{}x{})",
            cfg.m, cfg.n, cfg.k
        )));
    }
    Ok(())
}

/// Generate a Neon `BFMMLA` widening kernel for `C += A·Bᵀ` on BF16-packed
/// operands.
///
/// Each `BFMMLA` multiplies a row pair of A by a column pair of B over one
/// contraction quad into a 2×2 FP32 accumulator; the kernel blocks C as
/// 8 rows × 2 columns (four accumulators), so one A fetch (two `ldp q`) and
/// one B fetch (`ldr q`) feed four matrix instructions per quad. Operand
/// order is chosen so each accumulator's 64-bit halves are contiguous
/// column fragments of the column-major C, moved with `ldr d`/`str d` plus
/// one `ins`/`dup` lane shuffle per row pair. The kernel reads the
/// `BFMMLA`-packed operands of [`crate::widening::pack_a_bf16_mmla`] /
/// [`crate::widening::pack_b_bf16_mmla`]
/// ([`crate::kernel::OperandLayout::MmlaBf16`]).
pub fn generate_neon_widening(cfg: &WideningGemmConfig) -> Result<RoutedKernel, GemmError> {
    neon_widening_supports(cfg)?;
    let mut asm = Assembler::new(format!("neon_gemm_bf16_{}x{}x{}", cfg.m, cfg.n, cfg.k));
    // Per contraction quad, packed A advances by (m/2) registers of 16
    // bytes and packed B by (n/2).
    asm.mov_imm64(xr(LDA_B), (cfg.m * 8) as u64);
    asm.mov_imm64(xr(BK_STRIDE), (cfg.n * 8) as u64);
    asm.mov_imm64(xr(LDC_B), (cfg.m * 4) as u64);
    for col0 in (0..cfg.n).step_by(2) {
        for row0 in (0..cfg.m).step_by(8) {
            emit_neon_widening_8x2_block(&mut asm, cfg, row0, col0);
        }
    }
    asm.ret();
    Ok(RoutedKernel::new(*cfg, Backend::Neon, None, asm.finish()))
}

/// One 8×2 widening block: load C, run the contraction-quad loop, store C.
///
/// Accumulator `v4+p` (row pair `p`) holds
/// `[C[r0+2p, j0], C[r0+2p+1, j0], C[r0+2p, j0+1], C[r0+2p+1, j0+1]]` —
/// each half a contiguous 8-byte fragment of one C column.
fn emit_neon_widening_8x2_block(
    asm: &mut Assembler,
    cfg: &WideningGemmConfig,
    row0: usize,
    col0: usize,
) {
    // Pointers into the packed operands: the block's first row pair /
    // column pair of contraction quad 0.
    asm.push(ScalarInst::MovReg {
        rd: xr(A_PTR),
        rn: xr(ARG_A),
    });
    if row0 > 0 {
        asm.add_imm(xr(A_PTR), xr(A_PTR), (row0 / 2 * 16) as u64);
    }
    asm.push(ScalarInst::MovReg {
        rd: xr(B_PTR),
        rn: xr(ARG_B),
    });
    if col0 > 0 {
        asm.add_imm(xr(B_PTR), xr(B_PTR), (col0 / 2 * 16) as u64);
    }
    asm.push(ScalarInst::MovReg {
        rd: xr(C_PTR),
        rn: xr(ARG_C),
    });
    let c_off = ((col0 * cfg.m + row0) * 4) as u64;
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

    // Load the 8x2 C block into v4..v7: column j0 fragments into the low
    // halves, column j0+1 fragments inserted into the high halves.
    asm.push(ScalarInst::MovReg {
        rd: xr(COL_PTR),
        rn: xr(C_PTR),
    });
    for pair in 0..4u8 {
        asm.push(NeonInst::LdrD {
            vt: vr(4 + pair),
            rn: xr(COL_PTR),
            imm: pair as u32 * 8,
        });
    }
    asm.push(ScalarInst::AddReg {
        rd: xr(COL_PTR),
        rn: xr(COL_PTR),
        rm: xr(LDC_B),
        shift: None,
    });
    for pair in 0..4u8 {
        asm.push(NeonInst::LdrD {
            vt: vr(8),
            rn: xr(COL_PTR),
            imm: pair as u32 * 8,
        });
        asm.push(NeonInst::InsElemD {
            vd: vr(4 + pair),
            vn: vr(8),
            dst: 1,
            src: 0,
        });
    }

    // Contraction loop over k quads (the packing zero-pads a trailing
    // half-quad).
    asm.mov_imm64(xr(K_CNT), cfg.k.div_ceil(4) as u64);
    let top = asm.new_label();
    asm.bind(top);
    asm.push(ScalarInst::SubImm {
        rd: xr(K_CNT),
        rn: xr(K_CNT),
        imm12: 1,
        shift12: false,
    });
    // Four A row pairs (64 bytes) and one B column pair (16 bytes).
    asm.push(NeonInst::LdpQ {
        vt1: vr(0),
        vt2: vr(1),
        rn: xr(A_PTR),
        imm: 0,
    });
    asm.push(NeonInst::LdpQ {
        vt1: vr(2),
        vt2: vr(3),
        rn: xr(A_PTR),
        imm: 32,
    });
    asm.push(NeonInst::LdrQ {
        vt: vr(28),
        rn: xr(B_PTR),
        imm: 0,
    });
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
    // vn = B column pair, vm = A row pair: the result lanes land so that
    // each 64-bit half of the accumulator is one column fragment.
    for pair in 0..4u8 {
        asm.push(NeonInst::Bfmmla {
            vd: vr(4 + pair),
            vn: vr(28),
            vm: vr(pair),
        });
    }
    asm.cbnz(xr(K_CNT), top);

    // Store the block back: low halves to column j0, high halves (via a
    // D-lane broadcast) to column j0+1.
    asm.push(ScalarInst::MovReg {
        rd: xr(COL_PTR),
        rn: xr(C_PTR),
    });
    for pair in 0..4u8 {
        asm.push(NeonInst::StrD {
            vt: vr(4 + pair),
            rn: xr(COL_PTR),
            imm: pair as u32 * 8,
        });
    }
    asm.push(ScalarInst::AddReg {
        rd: xr(COL_PTR),
        rn: xr(COL_PTR),
        rm: xr(LDC_B),
        shift: None,
    });
    for pair in 0..4u8 {
        asm.push(NeonInst::DupElem {
            vd: vr(8),
            vn: vr(4 + pair),
            index: 1,
            arrangement: NeonArrangement::D2,
        });
        asm.push(NeonInst::StrD {
            vt: vr(8),
            rn: xr(COL_PTR),
            imm: pair as u32 * 8,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sme_isa::inst::Inst;

    /// Validation error of the Neon kernel for `cfg` on seeded operands.
    fn neon_error(cfg: &GemmConfig, seed: u64) -> Result<f32, GemmError> {
        crate::generate_any_backend(&(*cfg).into(), Backend::Neon).map(|k| k.validate(seed))
    }

    #[test]
    fn figure6_comparison_numbers() {
        let cmp = MicrokernelComparison::figure6();
        assert_eq!(cmp.neon_accum_registers, 24);
        assert_eq!(
            cmp.fmla_per_fmopa(),
            64,
            "the paper quotes 64 FMLA per FMOPA"
        );
        assert_eq!(cmp.sme_accumulator, 1024);
        assert_eq!(cmp.neon_accumulator, 96);
    }

    #[test]
    fn microkernel_step_instruction_mix() {
        let mut asm = Assembler::new("fig6_neon");
        emit_neon_16x6_k_step(&mut asm);
        let p = asm.finish();
        let fmla = p.count_matching(|i| matches!(i, Inst::Neon(NeonInst::FmlaElem { .. })));
        let loads = p.count_matching(|i| {
            matches!(
                i,
                Inst::Neon(NeonInst::LdpQ { .. }) | Inst::Neon(NeonInst::LdrQ { .. })
            )
        });
        assert_eq!(fmla, 24, "24 FMLA (by element) per step");
        assert_eq!(loads, 4);
    }

    #[test]
    fn neon_kernel_validates() {
        for (m, n, k) in [(16, 4, 8), (32, 8, 16), (48, 12, 7)] {
            let cfg = GemmConfig::abt(m, n, k);
            let err = neon_error(&cfg, 3).expect("generation must succeed");
            assert!(err < 1e-4, "({m},{n},{k}): {err}");
        }
    }

    #[test]
    fn neon_edge_blocks_validate() {
        // Shapes off the 16x4 grid: residual row segments (quad and pair
        // tails), the two-wide column tail, and their combinations down to
        // the 2x2 envelope minimum.
        for (m, n, k) in [
            (18, 4, 8),  // one row pair below the block
            (16, 6, 8),  // two-wide column tail
            (34, 10, 7), // both residuals, odd depth
            (2, 2, 4),   // envelope minimum
            (46, 14, 5), // 14-row tail: quad + quad + quad + pair
            (8, 4, 16),  // sub-block rows only
            (12, 2, 3),  // three quads, single two-wide column
        ] {
            let cfg = GemmConfig::abt(m, n, k);
            let err = neon_error(&cfg, 11).expect("generation must succeed");
            assert!(err < 1e-4, "({m},{n},{k}): {err}");
            // Padded leading dimensions exercise the same masked blocks
            // with non-tight strides.
            let padded = cfg.with_leading_dims(m + 6, n + 2, m + 4);
            let err = neon_error(&padded, 12).expect("generation must succeed");
            assert!(err < 1e-4, "padded ({m},{n},{k}): {err}");
        }
    }

    #[test]
    fn neon_beta_zero_overwrites_c() {
        for (m, n, k) in [(16, 4, 8), (18, 6, 5), (2, 2, 3)] {
            let cfg = GemmConfig::abt(m, n, k).with_beta(Beta::Zero);
            let err = neon_error(&cfg, 21).expect("beta = 0 must compile");
            assert!(err < 1e-4, "({m},{n},{k}) beta=0: {err}");
        }
        // The zero path emits movi instead of accumulator loads.
        let program = generate_neon(&GemmConfig::abt(16, 4, 8).with_beta(Beta::Zero)).unwrap();
        assert!(program.count_matching(|i| matches!(i, Inst::Neon(NeonInst::MoviZero { .. }))) > 0);
    }

    #[test]
    fn neon_restrictions_are_reported() {
        // Only the layout restriction remains: column-major B is rejected.
        assert!(generate_neon(&GemmConfig::ab(16, 4, 8)).is_err());
        // The beta = 1 restriction is gone; even off-grid shapes compile.
        assert!(generate_neon(&GemmConfig::abt(16, 4, 8).with_beta(Beta::Zero)).is_ok());
        assert!(generate_neon(&GemmConfig::abt(18, 6, 8)).is_ok());
    }

    #[test]
    fn neon_odd_shapes_compile_and_match_the_oracle() {
        // Previously rejected with "requires even m and n"; the `ldr s` /
        // `str s` single-row machinery makes the generator total over
        // row-major-B FP32 shapes.
        for (m, n, k) in [
            (17, 4, 8),  // odd m: single-row tail segment
            (16, 5, 8),  // odd n: one-wide column tail
            (9, 3, 5),   // odd m and three-wide column tail
            (15, 7, 6),  // quad + pair + single rows, 3-wide tail
            (1, 1, 4),   // envelope minimum
            (33, 31, 9), // off-grid in every dimension
        ] {
            let cfg = GemmConfig::abt(m, n, k);
            let err = neon_error(&cfg, 17).expect("odd shapes must compile");
            assert!(err < 1e-4, "({m},{n},{k}): {err}");
            let padded = cfg.with_leading_dims(m + 3, n + 1, m + 5);
            let err = neon_error(&padded, 18).expect("padded odd shapes must compile");
            assert!(err < 1e-4, "padded ({m},{n},{k}): {err}");
            let beta0 = cfg.with_beta(Beta::Zero);
            let err = neon_error(&beta0, 19).expect("beta = 0 odd shapes must compile");
            assert!(err < 1e-4, "beta=0 ({m},{n},{k}): {err}");
        }
    }

    #[test]
    fn neon_widening_kernel_validates_across_the_envelope_grid() {
        use crate::widening::WIDENING_REL_TOL;
        for (m, n, k) in [
            (8, 2, 2),
            (16, 4, 8),
            (16, 4, 10), // k % 4 == 2: exercises the zero-padded quad
            (32, 32, 16),
            (40, 6, 12),
        ] {
            let cfg = WideningGemmConfig::new(m, n, k).unwrap();
            let kernel = generate_neon_widening(&cfg).expect("generation");
            let err = kernel.validate(7);
            assert!(err < WIDENING_REL_TOL, "({m},{n},{k}): {err}");
        }
    }

    #[test]
    fn neon_widening_kernel_uses_bfmmla() {
        let cfg = WideningGemmConfig::new(16, 4, 8).unwrap();
        let kernel = generate_neon_widening(&cfg).unwrap();
        let bfmmlas = kernel
            .program()
            .count_matching(|i| matches!(i, Inst::Neon(NeonInst::Bfmmla { .. })));
        // Static count: (16/8) * (4/2) blocks x 4 row pairs in the loop body.
        assert_eq!(bfmmlas, 2 * 2 * 4);
        assert!(kernel.disassembly().contains("bfmmla"));
        assert!(kernel.disassembly().contains("ldr d"));
    }

    #[test]
    fn neon_widening_rejects_off_grid_shapes() {
        assert!(WideningGemmConfig::new(12, 4, 8).is_err(), "m % 8");
        assert!(WideningGemmConfig::new(16, 3, 8).is_err(), "n % 2");
        assert!(WideningGemmConfig::new(16, 4, 7).is_err(), "odd k");
    }

    #[test]
    fn neon_is_far_slower_than_sme_for_the_same_problem() {
        let cfg = GemmConfig::abt(64, 64, 64);
        let neon = crate::generate_any_backend(&cfg.into(), Backend::Neon)
            .unwrap()
            .model_gflops();
        let sme = crate::generate(&cfg).unwrap().model_gflops();
        assert!(
            neon < 120.0,
            "Neon baseline {neon} must stay near the 113 GFLOPS peak"
        );
        assert!(
            sme > 4.0 * neon,
            "SME ({sme}) must be several times faster than Neon ({neon})"
        );
    }
}
