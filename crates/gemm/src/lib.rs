//! # sme-gemm
//!
//! A just-in-time code generator for SME-based small matrix-matrix
//! multiplications — the primary contribution of *"Hello SME! Generating
//! Fast Matrix Multiplication Kernels Using the Scalable Matrix Extension"*
//! (SC'24), reproduced as a Rust library.
//!
//! Like the LIBXSMM extension described in the paper, the generator
//! hard-wires the matrix sizes, leading dimensions and operand layouts into
//! each kernel and emits genuine AArch64 instruction streams (see
//! [`sme_isa`]). Kernels execute on the Apple-M4-like simulator provided by
//! [`sme_machine`], which substitutes for the paper's hardware testbed.
//!
//! ## Quick start
//!
//! ```
//! use sme_gemm::{generate, GemmConfig};
//!
//! // C += A * B^T with M = N = 64, K = 64 (column-major A and C,
//! // row-major B — the Fig. 8 setting).
//! let cfg = GemmConfig::abt(64, 64, 64);
//! let kernel = generate(&cfg).expect("valid configuration");
//!
//! // Numerical validation against a reference GEMM …
//! assert!(kernel.validate(7) < 1e-4);
//! // … and modelled performance on one M4 performance core.
//! let gflops = kernel.model_gflops();
//! assert!(gflops > 100.0);
//! ```
//!
//! ## Structure
//!
//! * [`config`] — kernel descriptions ([`GemmConfig`]) and error types;
//! * [`blocking`] — the 32×32 / 16×64 / 64×16 register blockings and the
//!   heterogeneous block plan of §IV-B (Fig. 7);
//! * [`microkernel`] — emission of the Lst. 4 contraction loop;
//! * [`loads`] — accumulator transfers between memory and the ZA array
//!   (direct vs. two-step, §III-G);
//! * [`transpose`] — in-kernel transposition of column-major B panels
//!   through the ZA array (§IV-C, Lst. 5);
//! * [`generator`] / [`kernel`] — the public entry points: every generator
//!   returns one [`RoutedKernel`], whatever the datatype and engine, which
//!   runs, validates and models itself and decides its operand layout
//!   ([`OperandLayout`]);
//! * [`neon`] — the traditional Neon (FMLA by element) microkernel
//!   generator used as the Fig. 6 comparison point and as a non-SME
//!   baseline;
//! * [`batch`] — a batched small-GEMM driver mirroring how LIBXSMM kernels
//!   are used by tensor-processing frameworks;
//! * [`widening`] — BF16 → FP32 kernels built on the widening BFMOPA (the
//!   paper's §V outlook on reduced-precision inference), with the same
//!   candidate space and backend pair (a Neon `BFMMLA` baseline) as FP32;
//! * [`dtype`] — the unified configuration key ([`AnyGemmConfig`]) the
//!   serving stack is keyed on, making the datatype a first-class dimension
//!   alongside the backend;
//! * [`mod@reference`] — scalar reference implementations used for validation.

#![warn(missing_docs)]

pub mod batch;
pub mod blocking;
pub mod config;
pub mod dtype;
pub mod generator;
pub mod kernel;
pub mod loads;
pub mod microkernel;
pub mod neon;
pub mod reference;
pub mod transpose;
pub mod widening;

pub use blocking::{
    analytic_k_step_cycles, analytic_widening_k_pair_cycles, enumerate_candidates,
    group_load_cycles, pipeline_supported, plan_heterogeneous, plan_homogeneous,
    prune_dominated_candidates, BlockPlan, PlanCandidate, PlanKind, RegisterBlocking,
};
pub use config::{
    BLayout, Backend, Beta, GemmConfig, GemmError, KernelSchedule, ZaTransferStrategy,
};
pub use dtype::{default_any_candidate, enumerate_any_candidates, AnyGemmConfig, Dtype};
pub use generator::{
    backend_supports, generate, generate_any_backend, generate_any_routed, generate_tuned,
    generate_validated, generate_with_plan, kernel_stats, KernelStats,
};
pub use kernel::{GemmBuffers, OperandImages, OperandLayout, RoutedKernel, OPERAND_ALIGN};
pub use neon::{generate_neon_widening, neon_supports, neon_widening_supports};
pub use widening::{
    default_widening_candidate, enumerate_widening_candidates, generate_widening,
    generate_widening_tuned, pack_a_bf16, pack_a_bf16_mmla, pack_b_bf16, pack_b_bf16_mmla,
    prune_dominated_widening_candidates, sme_widening_supports, widening_reference,
    widening_rel_error, WideningGemmConfig, WIDENING_REL_TOL,
};
