//! Seeded input generation — the only code that reads the workload seed.
//!
//! Every workload is a pure function of its seed: the shapes it serves or
//! tunes, the request order inside each batch and every operand seed. The
//! program under test only ever sees the generated requests.
//!
//! Shapes come from fixed *templates*; the seed jitters an extent that is a
//! multiple of 32 down by one element (FP32) or one pair (BF16 columns).
//! There the jitter keeps every tile count and the kernels' host cost, so
//! a held-out seed serves different kernels at nearly the same cost (a
//! 48-row FP32 shape, by contrast, costs 40 % more host time to tune at 47
//! rows, so other extents stay fixed). Request mixes are stratified — each
//! shape's share of a pass is fixed and only the order and the operands
//! are drawn — so the spread across seeds stays small.

use sme_gemm::{AnyGemmConfig, GemmConfig, WideningGemmConfig};
use sme_runtime::GemmRequest;

/// SplitMix64: small, fast and fully specified, so one seed yields one
/// sequence on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2^-58 for the tiny `n`
    /// used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Operand layout and datatype of a template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// FP32 `C += A·Bᵀ` (row-major B, the paper's Fig. 8).
    Abt,
    /// FP32 `C += A·B` (column-major B, Fig. 9).
    Ab,
    /// BF16 → FP32 widening.
    Bf16,
}

/// A shape family: layout plus its un-jittered extents.
#[derive(Debug, Clone, Copy)]
pub struct Template(pub Layout, pub usize, pub usize, pub usize);

impl Template {
    /// The template's extents jittered down by `rng` (see the module docs).
    pub fn jittered(self, rng: &mut Rng) -> AnyGemmConfig {
        let Template(layout, m, n, k) = self;
        let mut jitter = |extent: usize, step: usize| {
            if extent.is_multiple_of(32) {
                extent - step * rng.below(2)
            } else {
                extent
            }
        };
        match layout {
            Layout::Abt => GemmConfig::abt(jitter(m, 1), jitter(n, 1), k).into(),
            Layout::Ab => GemmConfig::ab(jitter(m, 1), jitter(n, 1), k).into(),
            Layout::Bf16 => WideningGemmConfig::new(m, jitter(n, 2), k)
                .expect("jitter keeps n even")
                .into(),
        }
    }
}

/// `serve_steady`'s hot set: both datatypes, both engines, both FP32 B
/// layouts, and enough SME work to saturate the two shared SME units (the
/// placement spills at least one group to the idle private cores).
pub const STEADY_HOT: [Template; 12] = [
    Template(Layout::Abt, 64, 64, 32),
    Template(Layout::Abt, 48, 48, 32),
    Template(Layout::Abt, 32, 32, 16),
    Template(Layout::Abt, 64, 16, 32),
    Template(Layout::Ab, 48, 48, 16),
    Template(Layout::Bf16, 64, 64, 16),
    Template(Layout::Bf16, 32, 32, 16),
    Template(Layout::Bf16, 48, 40, 32),
    Template(Layout::Abt, 16, 8, 16),
    Template(Layout::Abt, 16, 4, 8),
    Template(Layout::Abt, 12, 2, 32),
    Template(Layout::Bf16, 8, 2, 32),
];

/// Requests per hot shape in every `serve_steady` batch.
pub const STEADY_REPEATS: usize = 2;

/// `serve_churn`'s shape families; the pool holds [`CHURN_ROUNDS`]
/// variants of each, with growing `k`.
pub const CHURN_FAMILIES: [Template; 12] = [
    Template(Layout::Abt, 48, 48, 16),
    Template(Layout::Abt, 32, 32, 8),
    Template(Layout::Bf16, 32, 32, 8),
    Template(Layout::Abt, 16, 4, 8),
    Template(Layout::Ab, 32, 32, 8),
    Template(Layout::Bf16, 64, 32, 8),
    Template(Layout::Abt, 64, 16, 16),
    Template(Layout::Bf16, 8, 2, 16),
    Template(Layout::Abt, 16, 8, 16),
    Template(Layout::Bf16, 16, 16, 16),
    Template(Layout::Abt, 12, 2, 16),
    Template(Layout::Ab, 16, 16, 16),
];

/// Variants per churn family (the pool is `12 × CHURN_ROUNDS` shapes).
pub const CHURN_ROUNDS: usize = 4;

/// `tune_sweep`'s Fig. 8/9-style small-matrix families: square `M = N`
/// extents at three contraction depths, for both FP32 B layouts and BF16.
pub fn tune_families() -> Vec<Template> {
    let mut families = Vec::new();
    for k in [16, 32, 64] {
        for mn in [16, 32, 64] {
            for layout in [Layout::Abt, Layout::Ab, Layout::Bf16] {
                families.push(Template(layout, mn, mn, k));
            }
        }
    }
    families
}

/// One jittered variant per family and round, `k` growing by `k_step` per
/// round; rank `r` is family `r % families.len()`.
fn variants(
    families: &[Template],
    rounds: usize,
    k_step: usize,
    rng: &mut Rng,
) -> Vec<AnyGemmConfig> {
    let mut shapes = Vec::with_capacity(families.len() * rounds);
    for round in 0..rounds {
        for &Template(layout, m, n, k) in families {
            shapes.push(Template(layout, m, n, k + round * k_step).jittered(rng));
        }
    }
    shapes
}

/// The fixed request sequence of one `serve_steady` pass: every batch
/// holds each hot shape [`STEADY_REPEATS`] times, in a seeded order, with
/// one operand seed per shape (the weights repeat).
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyInputs {
    pub hot: Vec<AnyGemmConfig>,
    pub batches: Vec<Vec<GemmRequest>>,
}

pub fn steady(seed: u64, batches: usize) -> SteadyInputs {
    let mut rng = Rng::new(seed);
    let hot: Vec<AnyGemmConfig> = STEADY_HOT.iter().map(|t| t.jittered(&mut rng)).collect();
    let operand_seeds: Vec<u64> = hot.iter().map(|_| rng.next_u64()).collect();
    let batches = (0..batches)
        .map(|_| {
            let mut batch: Vec<GemmRequest> = hot
                .iter()
                .zip(&operand_seeds)
                .flat_map(|(&config, &seed)| {
                    std::iter::repeat_n(GemmRequest { config, seed }, STEADY_REPEATS)
                })
                .collect();
            rng.shuffle(&mut batch);
            batch
        })
        .collect();
    SteadyInputs { hot, batches }
}

/// The fixed request sequence of one `serve_churn` pass: Zipf(1)
/// popularity over a pool several times the kernel cache, fresh operands
/// for every request, plus yesterday's traffic for priming.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnInputs {
    /// The pool, hottest rank first (rank `r` is family `r % 12`).
    pub pool: Vec<AnyGemmConfig>,
    pub batches: Vec<Vec<GemmRequest>>,
    /// Yesterday's batches: the pool's head only, so the pretune daemon
    /// tunes today's hottest shapes and the tail stays untuned.
    pub yesterday: Vec<Vec<GemmRequest>>,
}

/// How many of `total` requests each of `ranks` popularity ranks gets under
/// Zipf(1), rounded by largest remainder (independent of the seed).
fn zipf_counts(ranks: usize, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=ranks).map(|r| 1.0 / r as f64).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..ranks).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let missing = total - counts.iter().sum::<usize>();
    for &rank in &by_remainder[..missing] {
        counts[rank] += 1;
    }
    counts
}

/// `batches` batches of `batch_size` requests: each rank of `pool` appears
/// its Zipf count of times, in a seeded order, each with fresh operands.
fn zipf_batches(
    pool: &[AnyGemmConfig],
    batches: usize,
    batch_size: usize,
    rng: &mut Rng,
) -> Vec<Vec<GemmRequest>> {
    let mut requests: Vec<AnyGemmConfig> = zipf_counts(pool.len(), batches * batch_size)
        .into_iter()
        .zip(pool)
        .flat_map(|(count, &config)| std::iter::repeat_n(config, count))
        .collect();
    rng.shuffle(&mut requests);
    requests
        .chunks(batch_size)
        .map(|chunk| {
            chunk
                .iter()
                .map(|&config| GemmRequest {
                    config,
                    seed: rng.next_u64(),
                })
                .collect()
        })
        .collect()
}

pub fn churn(seed: u64, batches: usize, batch_size: usize) -> ChurnInputs {
    let mut rng = Rng::new(seed);
    let pool = variants(&CHURN_FAMILIES, CHURN_ROUNDS, 8, &mut rng);
    let today = zipf_batches(&pool, batches, batch_size, &mut rng);
    let yesterday = zipf_batches(&pool[..6], 3, batch_size, &mut rng);
    ChurnInputs {
        pool,
        batches: today,
        yesterday,
    }
}

/// One `tune_sweep` pass: one jittered shape per family in a seeded order,
/// each with the operand seed its tuned winner is checked on.
pub fn tune_sweep(seed: u64) -> Vec<GemmRequest> {
    let mut rng = Rng::new(seed);
    let mut shapes = variants(&tune_families(), 1, 0, &mut rng);
    rng.shuffle(&mut shapes);
    shapes
        .into_iter()
        .map(|config| GemmRequest {
            config,
            seed: rng.next_u64(),
        })
        .collect()
}

/// Yesterday's plan store for `tune_sweep`: a large store of tuning keys
/// the sweep itself never asks for (FP32 extents on a 4/8 grid and BF16
/// extents on the 8/2 envelope grid), so restoring it is real set-up work.
pub fn yesterday_store_shapes() -> Vec<AnyGemmConfig> {
    let mut shapes = Vec::new();
    for k in [24, 40, 56] {
        for m in (8..=128).step_by(8) {
            for n in (4..=128).step_by(4) {
                shapes.push(GemmConfig::abt(m, n, k).into());
                shapes.push(GemmConfig::ab(m, n, k).into());
                shapes.push(
                    WideningGemmConfig::new(m, n, k)
                        .expect("grid shapes are on the widening envelope")
                        .into(),
                );
            }
        }
    }
    shapes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_yields_one_sequence() {
        assert_eq!(steady(7, 3), steady(7, 3));
        assert_eq!(churn(7, 5, 8), churn(7, 5, 8));
        assert_eq!(tune_sweep(7), tune_sweep(7));
        assert_ne!(
            steady(7, 3).hot,
            steady(8, 3).hot,
            "seeds jitter the shapes"
        );
    }

    #[test]
    fn zipf_counts_are_exact_and_skewed() {
        let counts = zipf_counts(48, 192);
        assert_eq!(counts.iter().sum::<usize>(), 192);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        assert!(counts[0] > 40 && counts[47] <= 1);
    }

    #[test]
    fn pools_hold_distinct_valid_shapes() {
        let inputs = churn(3, 2, 8);
        assert_eq!(inputs.pool.len(), CHURN_FAMILIES.len() * CHURN_ROUNDS);
        for (i, shape) in inputs.pool.iter().enumerate() {
            assert!(shape.validate().is_ok(), "{shape}");
            assert!(!inputs.pool[..i].contains(shape), "duplicate {shape}");
        }
        let sweep = tune_sweep(3);
        assert_eq!(sweep.len(), tune_families().len());
        for (i, request) in sweep.iter().enumerate() {
            assert!(!sweep[..i].iter().any(|r| r.config == request.config));
        }
    }

    #[test]
    fn steady_batches_repeat_the_hot_set() {
        let inputs = steady(11, 4);
        for batch in &inputs.batches {
            assert_eq!(batch.len(), STEADY_HOT.len() * STEADY_REPEATS);
            for shape in &inputs.hot {
                let same: Vec<_> = batch.iter().filter(|r| r.config == *shape).collect();
                assert_eq!(same.len(), STEADY_REPEATS);
                assert!(
                    same.iter().all(|r| r.seed == same[0].seed),
                    "weights repeat"
                );
            }
        }
    }
}
