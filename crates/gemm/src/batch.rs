//! Batched execution of generated small-GEMM kernels.
//!
//! LIBXSMM's small GEMMs are typically executed many times per time step —
//! for example once per element in a high-order finite-element code. This
//! module provides a thin batched driver over a single SME FP32
//! [`RoutedKernel`]: one kernel, many operand triples, aggregated
//! statistics.

use crate::config::GemmConfig;
use crate::config::GemmError;
use crate::generator::generate;
use crate::kernel::{GemmBuffers, RoutedKernel};
use crate::reference::fill_matrix;
use sme_machine::exec::{RunOptions, Simulator};
use sme_machine::ExecStats;

/// A batch of identical small GEMMs sharing one generated kernel.
#[derive(Debug, Clone)]
pub struct BatchedGemm {
    kernel: RoutedKernel,
}

impl BatchedGemm {
    /// Generate the kernel for `cfg`.
    pub fn new(cfg: &GemmConfig) -> Result<Self, GemmError> {
        Ok(BatchedGemm {
            kernel: generate(cfg)?,
        })
    }

    /// The underlying kernel.
    pub fn kernel(&self) -> &RoutedKernel {
        &self.kernel
    }

    /// Allocate `count` operand triples in the simulator's memory, filled
    /// with deterministic pseudo-random data derived from `seed`.
    pub fn allocate_batch(&self, sim: &mut Simulator, count: usize, seed: u64) -> Vec<GemmBuffers> {
        let cfg = self.kernel.fp32_config().expect("batches run FP32 kernels");
        (0..count)
            .map(|i| {
                let mut a = vec![0.0f32; cfg.a_len()];
                let mut b = vec![0.0f32; cfg.b_len()];
                let mut c = vec![0.0f32; cfg.c_len()];
                let s = seed.wrapping_add(i as u64 * 3);
                fill_matrix(s, &mut a);
                fill_matrix(s + 1, &mut b);
                fill_matrix(s + 2, &mut c);
                GemmBuffers {
                    a: sim.mem.alloc_f32(&a, 128),
                    b: sim.mem.alloc_f32(&b, 128),
                    c: sim.mem.alloc_f32(&c, 128),
                }
            })
            .collect()
    }

    /// Execute the kernel once per triple and return the aggregated
    /// statistics.
    pub fn execute(
        &self,
        sim: &mut Simulator,
        batch: &[GemmBuffers],
        opts: &RunOptions,
    ) -> ExecStats {
        let mut total = ExecStats::default();
        for bufs in batch {
            let result = self.kernel.run(sim, *bufs, opts);
            total.merge(&result.stats);
        }
        total
    }

    /// Total floating-point operations for a batch of the given size.
    pub fn batch_flops(&self, count: usize) -> u64 {
        self.kernel.flops() * count as u64
    }

    /// Modelled throughput (GFLOPS) of a batch executed back to back on a
    /// single performance core.
    pub fn model_batch_gflops(&self, count: usize) -> f64 {
        let mut sim = Simulator::m4_performance();
        let batch = self.allocate_batch(&mut sim, count, 99);
        let stats = self.execute(&mut sim, &batch, &RunOptions::timing_only());
        let seconds = stats.seconds();
        if seconds == 0.0 {
            0.0
        } else {
            self.batch_flops(count) as f64 / seconds / 1e9
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{gemm_reference, max_abs_diff};

    #[test]
    fn batch_executes_every_problem_functionally() {
        let cfg = GemmConfig::abt(20, 12, 6);
        let batch = BatchedGemm::new(&cfg).unwrap();
        let mut sim = Simulator::m4_performance();
        let triples = batch.allocate_batch(&mut sim, 4, 7);
        // Snapshot the inputs before execution.
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
        let stats = batch.execute(&mut sim, &triples, &RunOptions::functional_only());
        assert!(stats.instructions > 0);
        for (t, (a, b, c0)) in triples.iter().zip(inputs) {
            let mut c_ref = c0;
            gemm_reference(&cfg, &a, &b, &mut c_ref);
            let c_out = sim.mem.read_f32_slice(t.c, cfg.c_len());
            assert!(max_abs_diff(&c_out, &c_ref) < 1e-4);
        }
    }

    #[test]
    fn batch_stats_aggregate_across_the_whole_batch() {
        let cfg = GemmConfig::abt(24, 16, 8);
        let batch = BatchedGemm::new(&cfg).unwrap();

        // One kernel execution's counters…
        let mut sim = Simulator::m4_performance();
        let single_triple = batch.allocate_batch(&mut sim, 1, 5);
        let single = batch.execute(&mut sim, &single_triple, &RunOptions::timing_only());

        // …must scale exactly by the batch size: the kernel is
        // branch-resolved, so every execution retires the same instruction
        // stream and touches the same number of bytes.
        let mut sim = Simulator::m4_performance();
        let triples = batch.allocate_batch(&mut sim, 5, 5);
        let total = batch.execute(&mut sim, &triples, &RunOptions::timing_only());
        assert_eq!(total.instructions, 5 * single.instructions);
        assert_eq!(total.arith_ops, 5 * single.arith_ops);
        assert_eq!(total.bytes_loaded, 5 * single.bytes_loaded);
        assert_eq!(total.bytes_stored, 5 * single.bytes_stored);
        assert!((total.cycles - 5.0 * single.cycles).abs() < 1e-6 * total.cycles.max(1.0));
        assert_eq!(total.clock_ghz, single.clock_ghz);
        for (class, count) in &total.instructions_by_class {
            assert_eq!(
                *count,
                5 * single.instructions_by_class[class],
                "class {class}"
            );
        }
    }

    #[test]
    fn empty_batch_produces_empty_stats() {
        let cfg = GemmConfig::abt(16, 16, 4);
        let batch = BatchedGemm::new(&cfg).unwrap();
        let mut sim = Simulator::m4_performance();
        let stats = batch.execute(&mut sim, &[], &RunOptions::timing_only());
        assert_eq!(stats, ExecStats::default());
        assert_eq!(batch.batch_flops(0), 0);
    }

    #[test]
    fn batch_triples_are_distinct_and_deterministic() {
        let cfg = GemmConfig::abt(8, 8, 4);
        let batch = BatchedGemm::new(&cfg).unwrap();
        let mut sim = Simulator::m4_performance();
        let triples = batch.allocate_batch(&mut sim, 3, 42);
        // Distinct, non-overlapping allocations per problem.
        let mut addrs: Vec<u64> = triples.iter().flat_map(|t| [t.a, t.b, t.c]).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 9);
        // Same seed ⇒ same data in a fresh simulator.
        let mut sim2 = Simulator::m4_performance();
        let triples2 = batch.allocate_batch(&mut sim2, 3, 42);
        for (t1, t2) in triples.iter().zip(&triples2) {
            assert_eq!(
                sim.mem.read_f32_slice(t1.a, cfg.a_len()),
                sim2.mem.read_f32_slice(t2.a, cfg.a_len())
            );
        }
        // Different problems get different data.
        let a0 = sim.mem.read_f32_slice(triples[0].a, cfg.a_len());
        let a1 = sim.mem.read_f32_slice(triples[1].a, cfg.a_len());
        assert_ne!(a0, a1);
    }

    #[test]
    fn batch_throughput_is_comparable_to_single_kernel_throughput() {
        let cfg = GemmConfig::abt(64, 64, 64);
        let batch = BatchedGemm::new(&cfg).unwrap();
        let single = batch.kernel().model_gflops();
        let batched = batch.model_batch_gflops(3);
        assert!(batched > 0.5 * single);
        assert_eq!(batch.batch_flops(3), 3 * 2 * 64 * 64 * 64);
    }
}
