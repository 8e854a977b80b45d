//! Regenerates the Fig. 6 comparison: the traditional Neon 16×6 microkernel
//! versus the SME 32×32 microkernel — accumulator sizes, registers used and
//! instruction mix per contraction step, plus modelled full-kernel
//! throughput for one representative problem.

use sme_bench::SweepOptions;
use sme_gemm::neon::{emit_neon_16x6_k_step, MicrokernelComparison};
use sme_gemm::{generate, generate_any_backend, Backend, GemmConfig};
use sme_isa::asm::Assembler;
use sme_isa::inst::Inst;

fn main() {
    let _ = SweepOptions::parse_or_exit(std::env::args().skip(1));
    let cmp = MicrokernelComparison::figure6();

    println!("Fig. 6 — Neon vs SME FP32 microkernel\n");
    println!("{:<38} {:>12} {:>12}", "", "Neon 16x6", "SME 32x32");
    println!("{}", "-".repeat(64));
    println!(
        "{:<38} {:>12} {:>12}",
        "accumulator elements of C", cmp.neon_accumulator, cmp.sme_accumulator
    );
    println!(
        "{:<38} {:>12} {:>12}",
        "accumulator registers / tiles", cmp.neon_accum_registers, 4
    );
    println!(
        "{:<38} {:>12} {:>12}",
        "FMA instructions per k step", cmp.neon_fmla_per_step, cmp.sme_fmopa_per_step
    );
    println!(
        "{:<38} {:>12} {:>12}",
        "multiply-accumulates per instruction", cmp.neon_macs_per_inst, cmp.sme_macs_per_inst
    );
    println!(
        "\n=> {} FMLA instructions are needed for the work of one FMOPA (paper: 64)\n",
        cmp.fmla_per_fmopa()
    );

    // Emit the actual Neon microkernel step and report its instruction mix.
    let mut asm = Assembler::new("fig6_neon_step");
    emit_neon_16x6_k_step(&mut asm);
    let neon_step = asm.finish();
    let fmla = neon_step.count_matching(|i| matches!(i, Inst::Neon(_)));
    println!(
        "emitted Neon microkernel step: {} instructions ({} Neon)",
        neon_step.len(),
        fmla
    );

    // Modelled end-to-end comparison on one representative small GEMM.
    let cfg = GemmConfig::abt(64, 64, 256);
    let sme = generate(&cfg).map(|k| k.model_gflops()).unwrap_or(0.0);
    let neon = generate_any_backend(&cfg.into(), Backend::Neon)
        .map(|k| k.model_gflops())
        .unwrap_or(0.0);
    println!("\nmodelled throughput for C += A*B^T, M=N=64, K=256:");
    println!("  SME generated kernel : {sme:7.0} GFLOPS");
    println!("  Neon generated kernel: {neon:7.0} GFLOPS");
    println!("  ratio                : {:.1}x", sme / neon);
}
