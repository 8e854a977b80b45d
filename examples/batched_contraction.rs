//! Batched small GEMMs: the workload that motivates LIBXSMM-style JIT
//! kernels. A high-order finite-element or tensor-contraction code executes
//! the same small matrix multiplication once per element, thousands of
//! times per time step — so one generated kernel is reused across a batch of
//! operand triples.
//!
//! Run with: `cargo run --release --example batched_contraction`

use sme_gemm::batch::BatchedGemm;
use sme_gemm::reference::{gemm_reference, max_abs_diff};
use sme_gemm::{Beta, GemmConfig};
use sme_machine::exec::{RunOptions, Simulator};

fn main() {
    // A typical high-order element-local operator size: 35 basis functions,
    // 9 quantities, 56 quadrature points (not multiples of the tile size —
    // the generator masks the remainders).
    let cfg = GemmConfig::abt(35, 9, 56).with_beta(Beta::One);
    let batch_size = 64;

    let batch = BatchedGemm::new(&cfg).expect("valid configuration");
    println!(
        "kernel for {} reused over a batch of {batch_size} element contractions",
        batch.kernel().any_config()
    );

    // Allocate and fill the whole batch in simulated memory.
    let mut sim = Simulator::m4_performance();
    let triples = batch.allocate_batch(&mut sim, batch_size, 2024);

    // Keep host-side copies to verify the results afterwards.
    let inputs: Vec<_> = triples
        .iter()
        .map(|t| {
            (
                sim.mem.read_f32_slice(t.a, cfg.a_len()),
                sim.mem.read_f32_slice(t.b, cfg.b_len()),
                sim.mem.read_f32_slice(t.c, cfg.c_len()),
            )
        })
        .collect();

    // Execute the batch functionally and check every element against the
    // reference.
    let stats = batch.execute(&mut sim, &triples, &RunOptions::functional_only());
    let mut worst = 0f32;
    for (t, (a, b, c0)) in triples.iter().zip(&inputs) {
        let mut c_ref = c0.clone();
        gemm_reference(&cfg, a, b, &mut c_ref);
        let c_out = sim.mem.read_f32_slice(t.c, cfg.c_len());
        worst = worst.max(max_abs_diff(&c_out, &c_ref));
    }
    println!(
        "batch executed: {} simulated instructions, max |error| = {worst:.2e}",
        stats.instructions
    );
    assert!(worst < 1e-4);

    // Modelled throughput of the batch on one performance core.
    println!(
        "modelled batch throughput: {:.0} FP32 GFLOPS ({} flops per element)",
        batch.model_batch_gflops(batch_size),
        cfg.flops()
    );
}
