//! The compiled-kernel handle: execution, validation and performance
//! modelling of a generated GEMM kernel.

use crate::blocking::BlockPlan;
use crate::config::{Backend, Beta, GemmConfig};
use crate::dtype::{AnyGemmConfig, Dtype};
use crate::neon::{NeonKernel, NeonWideningKernel};
use crate::reference::{fill_matrix, gemm_reference, max_abs_diff};
use crate::widening::{allocate_widening_buffers, WideningKernel, WideningPackLayout};
use sme_isa::Program;
use sme_machine::exec::{RunOptions, RunResult, Simulator};
use sme_machine::ExecStats;
use std::sync::OnceLock;

/// Alignment in bytes of every operand buffer the `allocate_*` paths
/// produce — and the placement a kernel's memoized timing is valid for.
///
/// The memory model charges an access only by its address modulo 128 and
/// 64 and by how many distinct 64-byte lines the run touches, the
/// simulated stack's top is always page-aligned, and generated kernels
/// have no data-dependent control flow. So two runs of one kernel on
/// operands that are all 128-byte aligned retire the same instructions at
/// the same modelled cost, whatever the data and wherever the buffers sit:
/// each kernel is timed once ([`RoutedKernel::model_stats`]) and served
/// functional-only after that ([`RoutedKernel::serve`]).
pub const OPERAND_ALIGN: u64 = 128;

/// Simulated addresses of one (A, B, C) operand triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmBuffers {
    /// Address of A (column-major, `lda × k` elements).
    pub a: u64,
    /// Address of B (layout per the configuration).
    pub b: u64,
    /// Address of C (column-major, `ldc × n` elements).
    pub c: u64,
}

impl GemmBuffers {
    /// `true` if every operand starts on an [`OPERAND_ALIGN`] boundary.
    pub fn is_aligned(&self) -> bool {
        [self.a, self.b, self.c]
            .iter()
            .all(|addr| addr.is_multiple_of(OPERAND_ALIGN))
    }
}

/// Byte images of the A and B operands of one request, exactly as
/// [`RoutedKernel::allocate_buffers`] would materialise them in simulator
/// memory: plain column-/row-major little-endian FP32 for the FP32
/// backends, packed BF16 (interleaved or MMLA layout, per the backend) for
/// the widening backends.
///
/// Producing an image is the *packing* step of a dispatch; a runtime that
/// serves the same operands repeatedly (e.g. fixed weights) can cache the
/// images and replay them with
/// [`RoutedKernel::allocate_buffers_packed`], skipping the repack. The C
/// buffer is deliberately absent: it is an output and must be refreshed
/// from its seed on every dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperandImages {
    /// The A operand's memory image.
    pub a: Vec<u8>,
    /// The B operand's memory image.
    pub b: Vec<u8>,
}

impl OperandImages {
    /// Total heap footprint of the images in bytes (cache accounting).
    pub fn bytes(&self) -> usize {
        self.a.len() + self.b.len()
    }
}

/// Little-endian byte image of an `f32` slice (the layout
/// `Memory::alloc_f32` writes).
pub(crate) fn f32_le_bytes(data: &[f32]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(data.len() * 4);
    for v in data {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

/// Materialise the FP32 A/B operand images for `seed` (the packing step of
/// [`allocate_gemm_buffers`], without a simulator).
pub(crate) fn pack_gemm_images(cfg: &GemmConfig, seed: u64) -> OperandImages {
    let mut a = vec![0.0f32; cfg.a_len()];
    let mut b = vec![0.0f32; cfg.b_len()];
    fill_matrix(seed, &mut a);
    fill_matrix(seed ^ 0x1111_1111, &mut b);
    OperandImages {
        a: f32_le_bytes(&a),
        b: f32_le_bytes(&b),
    }
}

/// Allocate operand buffers for `cfg` from pre-packed A/B images, seeding a
/// fresh C. Bit-identical to the seeded arm of [`allocate_gemm_buffers`]
/// when `images` came from [`pack_gemm_images`] with the same seed.
pub(crate) fn allocate_gemm_buffers_from_images(
    cfg: &GemmConfig,
    sim: &mut Simulator,
    seed: u64,
    images: &OperandImages,
) -> GemmBuffers {
    let align = OPERAND_ALIGN;
    let a = sim.mem.alloc(images.a.len() as u64, align);
    sim.mem.write_bytes(a, &images.a);
    let b = sim.mem.alloc(images.b.len() as u64, align);
    sim.mem.write_bytes(b, &images.b);
    let mut c = vec![0.0f32; cfg.c_len()];
    fill_matrix(seed ^ 0x2222_2222, &mut c);
    GemmBuffers {
        a,
        b,
        c: sim.mem.alloc_f32(&c, align),
    }
}

/// Allocate operand buffers for `cfg` in the simulator's memory,
/// [`OPERAND_ALIGN`]ed, optionally filled with seeded pseudo-random values
/// (shared by the SME and Neon kernel handles so both backends see
/// bit-identical operands for the same seed).
pub(crate) fn allocate_gemm_buffers(
    cfg: &GemmConfig,
    sim: &mut Simulator,
    seed: Option<u64>,
) -> GemmBuffers {
    let align = OPERAND_ALIGN;
    let a_len = cfg.a_len();
    let b_len = cfg.b_len();
    let c_len = cfg.c_len();
    match seed {
        Some(s) => {
            let mut a = vec![0.0f32; a_len];
            let mut b = vec![0.0f32; b_len];
            let mut c = vec![0.0f32; c_len];
            fill_matrix(s, &mut a);
            fill_matrix(s ^ 0x1111_1111, &mut b);
            fill_matrix(s ^ 0x2222_2222, &mut c);
            GemmBuffers {
                a: sim.mem.alloc_f32(&a, align),
                b: sim.mem.alloc_f32(&b, align),
                c: sim.mem.alloc_f32(&c, align),
            }
        }
        None => GemmBuffers {
            a: sim.mem.alloc_f32_zeroed(a_len, align),
            b: sim.mem.alloc_f32_zeroed(b_len, align),
            c: sim.mem.alloc_f32_zeroed(c_len, align),
        },
    }
}

/// Execute `program` functionally on seeded operands and return the maximum
/// absolute difference from the reference GEMM.
pub(crate) fn validate_program(cfg: &GemmConfig, program: &Program, seed: u64) -> f32 {
    let mut sim = Simulator::m4_performance();
    let bufs = allocate_gemm_buffers(cfg, &mut sim, Some(seed));
    let a = sim.mem.read_f32_slice(bufs.a, cfg.a_len());
    let b = sim.mem.read_f32_slice(bufs.b, cfg.b_len());
    let mut c_ref = sim.mem.read_f32_slice(bufs.c, cfg.c_len());

    sim.run(
        program,
        &[bufs.a, bufs.b, bufs.c],
        &RunOptions::functional_only(),
    );
    let c_out = sim.mem.read_f32_slice(bufs.c, cfg.c_len());

    gemm_reference(cfg, &a, &b, &mut c_ref);
    max_abs_diff(&c_out, &c_ref)
}

/// Timing-only run of `program` on untouched operands (single performance
/// core).
pub(crate) fn model_program_stats(cfg: &GemmConfig, program: &Program) -> ExecStats {
    let mut sim = Simulator::m4_performance();
    let bufs = allocate_gemm_buffers(cfg, &mut sim, None);
    let result = sim.run(
        program,
        &[bufs.a, bufs.b, bufs.c],
        &RunOptions::timing_only(),
    );
    result.stats
}

/// A generated, branch-resolved GEMM kernel.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    cfg: GemmConfig,
    plan: BlockPlan,
    program: Program,
    timing: OnceLock<ExecStats>,
}

impl CompiledKernel {
    pub(crate) fn new(cfg: GemmConfig, plan: BlockPlan, program: Program) -> Self {
        CompiledKernel {
            cfg,
            plan,
            program,
            timing: OnceLock::new(),
        }
    }

    /// The configuration the kernel was generated for.
    pub fn config(&self) -> &GemmConfig {
        &self.cfg
    }

    /// The block plan the generator chose.
    pub fn plan(&self) -> &BlockPlan {
        &self.plan
    }

    /// The generated instruction stream.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The kernel lowered to little-endian AArch64 machine-code bytes (what
    /// a real JIT would write into an executable buffer).
    pub fn machine_code(&self) -> Vec<u8> {
        self.program.encode_bytes()
    }

    /// Assembly listing with encodings.
    pub fn disassembly(&self) -> String {
        sme_isa::disasm::disassemble_program(&self.program)
    }

    /// Floating-point operations per kernel execution.
    pub fn flops(&self) -> u64 {
        self.cfg.flops()
    }

    /// Allocate operand buffers in the simulator's memory,
    /// [`OPERAND_ALIGN`]ed. If `seed` is given, A, B and C are filled with
    /// deterministic pseudo-random values; otherwise they are zero.
    pub fn allocate_buffers(&self, sim: &mut Simulator, seed: Option<u64>) -> GemmBuffers {
        allocate_gemm_buffers(&self.cfg, sim, seed)
    }

    /// Execute the kernel once on the given simulator and operand buffers.
    pub fn run(&self, sim: &mut Simulator, bufs: GemmBuffers, opts: &RunOptions) -> RunResult {
        sim.run(&self.program, &[bufs.a, bufs.b, bufs.c], opts)
    }

    /// Execute the kernel functionally on pseudo-random operands and return
    /// the maximum absolute difference from the reference GEMM.
    pub fn validate(&self, seed: u64) -> f32 {
        validate_program(&self.cfg, &self.program, seed)
    }

    /// Model the kernel's performance on a single performance core and
    /// return the execution statistics (a timing-only run on untouched
    /// operands, made on the first call and memoized — see
    /// [`OPERAND_ALIGN`] for why the memo is exact).
    pub fn model_stats(&self) -> &ExecStats {
        self.timing
            .get_or_init(|| model_program_stats(&self.cfg, &self.program))
    }

    /// Modelled FP32 throughput in GFLOPS on a single performance core.
    ///
    /// Note that the simulator only counts the arithmetic the kernel
    /// actually performs; the returned figure uses the nominal `2·m·n·k`
    /// operation count of the problem, exactly as the paper's plots do.
    pub fn model_gflops(&self) -> f64 {
        let stats = self.model_stats();
        let seconds = stats.seconds();
        if seconds == 0.0 {
            0.0
        } else {
            self.flops() as f64 / seconds / 1e9
        }
    }

    /// Effective beta of the kernel (convenience accessor).
    pub fn beta(&self) -> Beta {
        self.cfg.beta
    }
}

/// A kernel compiled for one execution backend and one datatype family.
///
/// This is the unit the `sme-runtime` kernel cache stores and the
/// `sme-router` dispatches: all four (backend × dtype) kernels share the
/// execution, validation and modelling surface, so routing code never
/// matches on the variant except to reach variant-specific detail (e.g.
/// the SME block plan).
///
/// Which packed operand layout a widening kernel consumes is a per-variant
/// detail hidden behind [`RoutedKernel::allocate_buffers`]: a caller seeds
/// the buffers, runs the kernel and reads C, whatever the engine.
#[derive(Debug, Clone)]
pub enum RoutedKernel {
    /// An SME FP32 outer-product kernel ([`crate::generate`] /
    /// [`crate::generate_tuned`]).
    Sme(CompiledKernel),
    /// A Neon FP32 FMLA-by-element kernel
    /// ([`crate::neon::generate_neon_kernel`]).
    Neon(NeonKernel),
    /// An SME BF16 → FP32 widening (BFMOPA) kernel
    /// ([`crate::widening::generate_widening`]).
    WideningSme(WideningKernel),
    /// A Neon BF16 → FP32 widening (`BFMMLA`) kernel
    /// ([`crate::neon::generate_neon_widening`]).
    WideningNeon(NeonWideningKernel),
}

impl RoutedKernel {
    /// Which backend the kernel targets.
    pub fn backend(&self) -> Backend {
        match self {
            RoutedKernel::Sme(_) | RoutedKernel::WideningSme(_) => Backend::Sme,
            RoutedKernel::Neon(_) | RoutedKernel::WideningNeon(_) => Backend::Neon,
        }
    }

    /// Which datatype family the kernel computes.
    pub fn dtype(&self) -> Dtype {
        match self {
            RoutedKernel::Sme(_) | RoutedKernel::Neon(_) => Dtype::Fp32,
            RoutedKernel::WideningSme(_) | RoutedKernel::WideningNeon(_) => Dtype::WideningBf16,
        }
    }

    /// The unified configuration key the kernel was generated for.
    pub fn any_config(&self) -> AnyGemmConfig {
        match self {
            RoutedKernel::Sme(k) => AnyGemmConfig::Fp32(*k.config()),
            RoutedKernel::Neon(k) => AnyGemmConfig::Fp32(*k.config()),
            RoutedKernel::WideningSme(k) => AnyGemmConfig::WideningBf16(*k.config()),
            RoutedKernel::WideningNeon(k) => AnyGemmConfig::WideningBf16(*k.config()),
        }
    }

    /// The FP32 configuration, when this is an FP32 kernel.
    pub fn fp32_config(&self) -> Option<&GemmConfig> {
        match self {
            RoutedKernel::Sme(k) => Some(k.config()),
            RoutedKernel::Neon(k) => Some(k.config()),
            _ => None,
        }
    }

    /// The widening configuration, when this is a BF16 kernel.
    pub fn widening_config(&self) -> Option<&crate::widening::WideningGemmConfig> {
        match self {
            RoutedKernel::WideningSme(k) => Some(k.config()),
            RoutedKernel::WideningNeon(k) => Some(k.config()),
            _ => None,
        }
    }

    /// The generated instruction stream.
    pub fn program(&self) -> &Program {
        match self {
            RoutedKernel::Sme(k) => k.program(),
            RoutedKernel::Neon(k) => k.program(),
            RoutedKernel::WideningSme(k) => k.program(),
            RoutedKernel::WideningNeon(k) => k.program(),
        }
    }

    /// The SME FP32 kernel handle, when this is that variant (block-plan
    /// introspection is SME-specific).
    pub fn as_sme(&self) -> Option<&CompiledKernel> {
        match self {
            RoutedKernel::Sme(k) => Some(k),
            _ => None,
        }
    }

    /// Floating-point operations per kernel execution.
    pub fn flops(&self) -> u64 {
        self.any_config().flops()
    }

    /// Number of `f32` elements the C output buffer holds.
    pub fn c_len(&self) -> usize {
        self.any_config().c_len()
    }

    /// Allocate operand buffers in the simulator's memory for this kernel's
    /// datatype and packing.
    ///
    /// Both FP32 backends use the same seeding scheme, so their results are
    /// comparable bit for bit; the widening variants derive their packed
    /// BF16 operands from FP32 matrices filled with the same scheme, so a
    /// scalar oracle ([`crate::widening::widening_reference`]) can
    /// reproduce them from the seed alone.
    pub fn allocate_buffers(&self, sim: &mut Simulator, seed: Option<u64>) -> GemmBuffers {
        match self {
            RoutedKernel::Sme(k) => allocate_gemm_buffers(k.config(), sim, seed),
            RoutedKernel::Neon(k) => allocate_gemm_buffers(k.config(), sim, seed),
            RoutedKernel::WideningSme(k) => {
                allocate_widening_buffers(k.config(), sim, seed, WideningPackLayout::Interleaved)
            }
            RoutedKernel::WideningNeon(k) => {
                allocate_widening_buffers(k.config(), sim, seed, WideningPackLayout::Mmla)
            }
        }
    }

    /// Materialise the packed A/B operand byte images for `seed` without a
    /// simulator — the repack step a packed-operand cache skips on a hit.
    /// The images follow this kernel's datatype and pack layout, so they
    /// replay only on kernels with the same [`OperandImages`] layout.
    pub fn pack_operands(&self, seed: u64) -> OperandImages {
        match self {
            RoutedKernel::Sme(k) => pack_gemm_images(k.config(), seed),
            RoutedKernel::Neon(k) => pack_gemm_images(k.config(), seed),
            RoutedKernel::WideningSme(k) => crate::widening::pack_widening_images(
                k.config(),
                seed,
                WideningPackLayout::Interleaved,
            ),
            RoutedKernel::WideningNeon(k) => {
                crate::widening::pack_widening_images(k.config(), seed, WideningPackLayout::Mmla)
            }
        }
    }

    /// Allocate operand buffers from pre-packed A/B images (see
    /// [`RoutedKernel::pack_operands`]); C is always freshly seeded, being
    /// an output. Bit-identical to `allocate_buffers(sim, Some(seed))`
    /// when `images == self.pack_operands(seed)`.
    pub fn allocate_buffers_packed(
        &self,
        sim: &mut Simulator,
        seed: u64,
        images: &OperandImages,
    ) -> GemmBuffers {
        match self {
            RoutedKernel::Sme(k) => {
                allocate_gemm_buffers_from_images(k.config(), sim, seed, images)
            }
            RoutedKernel::Neon(k) => {
                allocate_gemm_buffers_from_images(k.config(), sim, seed, images)
            }
            RoutedKernel::WideningSme(k) => crate::widening::allocate_widening_buffers_from_images(
                k.config(),
                sim,
                seed,
                images,
            ),
            RoutedKernel::WideningNeon(k) => {
                crate::widening::allocate_widening_buffers_from_images(
                    k.config(),
                    sim,
                    seed,
                    images,
                )
            }
        }
    }

    /// Execute the kernel once on the given simulator and operand buffers.
    pub fn run(&self, sim: &mut Simulator, bufs: GemmBuffers, opts: &RunOptions) -> RunResult {
        sim.run(self.program(), &[bufs.a, bufs.b, bufs.c], opts)
    }

    /// Serve one request: execute the kernel functionally on `bufs` and
    /// return its memoized timing ([`RoutedKernel::model_stats`]), which is
    /// bit-identical to what a full [`RunOptions::default`] run would
    /// report — see [`OPERAND_ALIGN`].
    ///
    /// # Panics
    /// Panics if an operand is not [`OPERAND_ALIGN`]ed, the placement the
    /// memo is valid for.
    pub fn serve(&self, sim: &mut Simulator, bufs: GemmBuffers) -> &ExecStats {
        assert!(
            bufs.is_aligned(),
            "memoized timing needs {OPERAND_ALIGN}-byte aligned operands, got {bufs:x?}"
        );
        self.run(sim, bufs, &RunOptions::functional_only());
        self.model_stats()
    }

    /// Execute the kernel functionally on pseudo-random operands and return
    /// its validation error: the maximum **absolute** difference from the
    /// reference GEMM for FP32 kernels, the maximum **relative** error
    /// against the BF16-rounded oracle (bounded by
    /// [`crate::widening::WIDENING_REL_TOL`]) for widening kernels.
    pub fn validate(&self, seed: u64) -> f32 {
        match self {
            RoutedKernel::Sme(k) => k.validate(seed),
            RoutedKernel::Neon(k) => k.validate(seed),
            RoutedKernel::WideningSme(k) => k.validate(seed),
            RoutedKernel::WideningNeon(k) => k.validate(seed),
        }
    }

    /// Model the kernel's performance on a single performance core
    /// (memoized per kernel: the timing model runs on the first call only).
    pub fn model_stats(&self) -> &ExecStats {
        match self {
            RoutedKernel::Sme(k) => k.model_stats(),
            RoutedKernel::Neon(k) => k.model_stats(),
            RoutedKernel::WideningSme(k) => k.model_stats(),
            RoutedKernel::WideningNeon(k) => k.model_stats(),
        }
    }

    /// Modelled throughput in GFLOPS on a single performance core.
    pub fn model_gflops(&self) -> f64 {
        let stats = self.model_stats();
        let seconds = stats.seconds();
        if seconds == 0.0 {
            0.0
        } else {
            self.flops() as f64 / seconds / 1e9
        }
    }
}

impl From<CompiledKernel> for RoutedKernel {
    fn from(kernel: CompiledKernel) -> Self {
        RoutedKernel::Sme(kernel)
    }
}

impl From<NeonKernel> for RoutedKernel {
    fn from(kernel: NeonKernel) -> Self {
        RoutedKernel::Neon(kernel)
    }
}

impl From<WideningKernel> for RoutedKernel {
    fn from(kernel: WideningKernel) -> Self {
        RoutedKernel::WideningSme(kernel)
    }
}

impl From<NeonWideningKernel> for RoutedKernel {
    fn from(kernel: NeonWideningKernel) -> Self {
        RoutedKernel::WideningNeon(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;

    #[test]
    fn model_gflops_is_positive_and_bounded_by_the_machine_peak() {
        let kernel = generate(&GemmConfig::abt(64, 64, 64)).unwrap();
        let gflops = kernel.model_gflops();
        assert!(gflops > 100.0, "{gflops}");
        assert!(gflops < 2100.0, "{gflops} must not exceed the FMOPA peak");
    }

    #[test]
    fn larger_k_amortises_the_accumulator_traffic() {
        let short = generate(&GemmConfig::abt(64, 64, 16))
            .unwrap()
            .model_gflops();
        let long = generate(&GemmConfig::abt(64, 64, 256))
            .unwrap()
            .model_gflops();
        assert!(long > short, "K=256 ({long}) must beat K=16 ({short})");
    }

    #[test]
    fn machine_code_and_disassembly_are_consistent() {
        let kernel = generate(&GemmConfig::abt(32, 32, 4)).unwrap();
        let code = kernel.machine_code();
        assert_eq!(code.len(), kernel.program().len() * 4);
        let disasm = kernel.disassembly();
        assert!(disasm.contains("fmopa"));
        assert!(disasm.contains("smstart"));
        assert!(!disasm.is_empty());
        assert_eq!(kernel.flops(), 2 * 32 * 32 * 4);
    }

    #[test]
    fn kernels_that_never_move_sp_back_no_stack() {
        let fp32 = RoutedKernel::from(generate(&GemmConfig::abt(32, 32, 32)).unwrap());
        let wide = crate::widening::WideningGemmConfig::new(32, 32, 32).unwrap();
        let bf16 = RoutedKernel::from(crate::widening::generate_widening(&wide).unwrap());
        for kernel in [fp32, bf16] {
            let mut sim = Simulator::m4_performance();
            let bufs = kernel.allocate_buffers(&mut sim, Some(3));
            kernel.serve(&mut sim, bufs);
            assert_eq!(sim.mem.stack_top(), sim.mem.stack_base());
            assert!(
                sim.mem.capacity() < 64 << 10,
                "{:?}: {} bytes backed",
                kernel.dtype(),
                sim.mem.capacity()
            );
        }
    }

    #[test]
    fn deepest_column_major_kernel_keeps_its_output_and_cycles() {
        // K = 4096 is the deepest column-major kernel the generator emits:
        // its transposed B panel fills the whole 512 KiB scratch bound.
        let cfg = GemmConfig::ab(32, 32, 4096);
        assert_eq!(crate::transpose::scratch_bytes(cfg.k), 512 << 10);
        let kernel = generate(&cfg).unwrap();
        assert_eq!(kernel.validate(7), 0.0, "bit-identical to gemm_reference");

        let mut sim = Simulator::m4_performance();
        let bufs = kernel.allocate_buffers(&mut sim, Some(7));
        let stats = kernel.run(&mut sim, bufs, &RunOptions::default()).stats;
        assert_eq!(sim.mem.stack_top() - sim.mem.stack_base(), 512 << 10);
        // The cycle count measured when every simulator reserved a fixed
        // 1 MiB stack: sizing the stack to the kernel moves no cycle.
        assert_eq!(stats.cycles, 45900.65196755636);
        assert_eq!(&stats, kernel.model_stats());
    }

    #[test]
    #[should_panic(expected = "aligned operands")]
    fn serving_misaligned_operands_is_refused() {
        let kernel = RoutedKernel::from(generate(&GemmConfig::abt(16, 16, 4)).unwrap());
        let mut sim = Simulator::m4_performance();
        let mut bufs = kernel.allocate_buffers(&mut sim, Some(1));
        bufs.b += 4;
        kernel.serve(&mut sim, bufs);
    }

    #[test]
    fn model_stats_are_timed_once() {
        let kernel = RoutedKernel::from(generate(&GemmConfig::abt(32, 32, 16)).unwrap());
        let first: *const ExecStats = kernel.model_stats();
        assert!(std::ptr::eq(first, kernel.model_stats()));
        // Clones carry the memo along.
        assert_eq!(kernel.clone().model_stats(), kernel.model_stats());
    }

    #[test]
    fn stats_report_instruction_and_memory_counts() {
        let kernel = generate(&GemmConfig::abt(32, 32, 32)).unwrap();
        let stats = kernel.model_stats();
        assert!(stats.instructions > 0);
        assert!(stats.bytes_loaded > 0);
        assert!(stats.bytes_stored > 0);
        assert!(stats.cycles > 0.0);
    }
}
