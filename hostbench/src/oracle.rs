//! The correctness gate: every served output against the scalar oracle,
//! always outside the timed intervals.
//!
//! FP32 outputs must be bit-identical to [`gemm_reference`]; BF16 widening
//! outputs must lie within [`WIDENING_REL_TOL`] of [`widening_reference`].
//! Operands follow the kernels' seeding scheme (A from `seed`, B from
//! `seed ^ 0x1111_1111`, C from `seed ^ 0x2222_2222`).

use sme_gemm::reference::{fill_matrix, gemm_reference};
use sme_gemm::{widening_reference, widening_rel_error, AnyGemmConfig, WIDENING_REL_TOL};
use sme_runtime::GemmRequest;
use std::collections::HashMap;

/// The C buffer the scalar oracle computes for `request`.
pub fn expected(request: &GemmRequest) -> Vec<f32> {
    let seed = request.seed;
    match &request.config {
        AnyGemmConfig::Fp32(cfg) => {
            let mut a = vec![0.0f32; cfg.a_len()];
            let mut b = vec![0.0f32; cfg.b_len()];
            let mut c = vec![0.0f32; cfg.c_len()];
            fill_matrix(seed, &mut a);
            fill_matrix(seed ^ 0x1111_1111, &mut b);
            fill_matrix(seed ^ 0x2222_2222, &mut c);
            gemm_reference(cfg, &a, &b, &mut c);
            c
        }
        AnyGemmConfig::WideningBf16(cfg) => {
            let mut a = vec![0.0f32; cfg.m * cfg.k];
            let mut b = vec![0.0f32; cfg.k * cfg.n];
            let mut c = vec![0.0f32; cfg.c_len()];
            fill_matrix(seed, &mut a);
            fill_matrix(seed ^ 0x1111_1111, &mut b);
            fill_matrix(seed ^ 0x2222_2222, &mut c);
            widening_reference(cfg, &a, &b, &mut c);
            c
        }
    }
}

/// Whether `output` passes the gate for a request of `config`.
pub fn matches(config: &AnyGemmConfig, output: &[f32], expected: &[f32]) -> bool {
    output.len() == expected.len()
        && match config {
            AnyGemmConfig::Fp32(_) => output
                .iter()
                .zip(expected)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            AnyGemmConfig::WideningBf16(_) => {
                widening_rel_error(output, expected) < WIDENING_REL_TOL
            }
        }
}

/// The gate with a memo of oracle outputs per `(config, seed)`: repeated
/// weights and replayed passes pay for the oracle once.
#[derive(Debug, Default)]
pub struct Oracle {
    memo: HashMap<(AnyGemmConfig, u64), Vec<f32>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Oracle {
    /// Check one served output; a wrong output counts as failed.
    pub fn check(&mut self, request: &GemmRequest, output: &[f32]) -> bool {
        let expected = self
            .memo
            .entry((request.config, request.seed))
            .or_insert_with(|| expected(request));
        let ok = matches(&request.config, output, expected);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!(
                "error: wrong output for {} seed {}",
                request.config, request.seed
            );
        }
        ok
    }

    /// Count a request that produced no output at all as failed.
    pub fn fail(&mut self, request: &GemmRequest, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("error: {} seed {}: {why}", request.config, request.seed);
    }
}
