//! Quickstart: generate one SME small-GEMM kernel, inspect it, validate it
//! numerically and model its performance.
//!
//! Run with: `cargo run --release --example quickstart`

use sme_gemm::{generate, kernel_stats, GemmConfig};

fn main() {
    // The paper's canonical setting: C += A * B^T with column-major A and C,
    // row-major B, and a deep contraction dimension.
    let cfg = GemmConfig::abt(80, 80, 512);
    println!("generating kernel for {cfg}");

    let kernel = generate(&cfg).expect("configuration is valid");
    let stats = kernel_stats(&kernel);
    println!(
        "generated {} instructions ({} bytes of machine code), {} FMOPA sites, {} microkernel executions",
        stats.instructions, stats.code_bytes, stats.fmopa_count, stats.microkernels
    );

    // The block plan shows the heterogeneous register blocking of Fig. 7.
    let hist = kernel
        .plan()
        .expect("SME kernels carry a block plan")
        .strategy_histogram();
    println!(
        "block plan: {}x 32x32, {}x 16x64, {}x 64x16",
        hist[0].1, hist[1].1, hist[2].1
    );

    // A short excerpt of the generated code (the Lst. 4 inner loop is in
    // there — look for the fmopa instructions).
    let listing = kernel.disassembly();
    println!("\nfirst 18 lines of the generated kernel:");
    for line in listing.lines().take(18) {
        println!("  {line}");
    }

    // Numerical validation against a scalar reference GEMM.
    let max_err = kernel.validate(42);
    println!("\nmax |generated - reference| on random operands: {max_err:.2e}");
    assert!(max_err < 1e-4);

    // Modelled performance on one M4 performance core.
    println!(
        "modelled throughput: {:.0} FP32 GFLOPS",
        kernel.model_gflops()
    );
}
