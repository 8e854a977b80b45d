//! The kernel handle: execution, validation and performance modelling of a
//! generated GEMM kernel, whatever its datatype and engine.

use crate::blocking::BlockPlan;
use crate::config::{Backend, GemmConfig};
use crate::dtype::{AnyGemmConfig, Dtype};
use crate::reference::{fill_matrix, gemm_reference, max_abs_diff};
use crate::widening::{
    pack_a_bf16, pack_a_bf16_mmla, pack_b_bf16, pack_b_bf16_mmla, widening_reference,
    widening_rel_error,
};
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

/// The byte layout of a kernel's A and B operand images
/// ([`RoutedKernel::operand_layout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandLayout {
    /// Plain column-major A and row- or column-major B, little-endian FP32
    /// (both FP32 engines read the same images).
    PlainF32,
    /// Packed BF16 in the 2-way interleaved layout the SME widening BFMOPA
    /// consumes ([`crate::pack_a_bf16`]).
    InterleavedBf16,
    /// Packed BF16 in the 4-deep `BFMMLA` layout the Neon widening kernel
    /// consumes ([`crate::pack_a_bf16_mmla`]).
    MmlaBf16,
}

/// Byte images of the A and B operands of one request, exactly as
/// [`RoutedKernel::allocate_buffers`] would materialise them in simulator
/// memory, in the kernel's [`OperandLayout`].
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

/// Little-endian byte image of a slice (the layout `Memory::alloc_f32`
/// writes for `f32`).
fn le_bytes<T: Copy, const N: usize>(data: &[T], to_le: fn(T) -> [u8; N]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(data.len() * N);
    for &v in data {
        bytes.extend_from_slice(&to_le(v));
    }
    bytes
}

/// A generated, branch-resolved GEMM kernel for one datatype and one
/// execution backend — what every generator returns, what the
/// `sme-runtime` kernel cache stores and what the `sme-router` dispatches.
///
/// The handle hides which engine and operand packing it targets: a caller
/// seeds the buffers, runs the kernel and reads C, whatever the kernel.
/// Its simulated timing is measured once and memoized (see
/// [`OPERAND_ALIGN`]).
#[derive(Debug, Clone)]
pub struct RoutedKernel {
    cfg: AnyGemmConfig,
    backend: Backend,
    plan: Option<BlockPlan>,
    program: Program,
    timing: OnceLock<ExecStats>,
}

impl RoutedKernel {
    pub(crate) fn new(
        cfg: impl Into<AnyGemmConfig>,
        backend: Backend,
        plan: Option<BlockPlan>,
        program: Program,
    ) -> Self {
        RoutedKernel {
            cfg: cfg.into(),
            backend,
            plan,
            program,
            timing: OnceLock::new(),
        }
    }

    /// Which backend the kernel targets.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Which datatype family the kernel computes.
    pub fn dtype(&self) -> Dtype {
        self.cfg.dtype()
    }

    /// The configuration the kernel was generated for (tuning knobs
    /// applied).
    pub fn any_config(&self) -> AnyGemmConfig {
        self.cfg
    }

    /// The FP32 configuration, when this is an FP32 kernel.
    pub fn fp32_config(&self) -> Option<&GemmConfig> {
        self.cfg.as_fp32()
    }

    /// The block plan the generator chose — only SME FP32 kernels carry
    /// one (the Neon register blockings are fixed).
    pub fn plan(&self) -> Option<&BlockPlan> {
        self.plan.as_ref()
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

    /// Number of `f32` elements the C output buffer holds.
    pub fn c_len(&self) -> usize {
        self.cfg.c_len()
    }

    /// The byte layout of the A/B images this kernel reads — the one place
    /// the (datatype, backend) pair decides the packing.
    pub fn operand_layout(&self) -> OperandLayout {
        match (self.dtype(), self.backend) {
            (Dtype::Fp32, _) => OperandLayout::PlainF32,
            (Dtype::WideningBf16, Backend::Sme) => OperandLayout::InterleavedBf16,
            (Dtype::WideningBf16, Backend::Neon) => OperandLayout::MmlaBf16,
        }
    }

    /// Byte lengths of the A and B images in this kernel's layout.
    fn image_bytes(&self) -> (usize, usize) {
        match (&self.cfg, self.operand_layout()) {
            (AnyGemmConfig::Fp32(c), _) => (4 * c.a_len(), 4 * c.b_len()),
            (AnyGemmConfig::WideningBf16(c), OperandLayout::MmlaBf16) => {
                (2 * c.packed_a_mmla_len(), 2 * c.packed_b_mmla_len())
            }
            (AnyGemmConfig::WideningBf16(c), _) => (2 * c.packed_a_len(), 2 * c.packed_b_len()),
        }
    }

    /// The FP32 A and B matrices `seed` stands for, before any packing:
    /// filled from `seed` and `seed ^ 0x1111_1111` (widening operands are
    /// tight column-major `m × k` A and row-major `k × n` B).
    fn seeded_ab(&self, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let (a_len, b_len) = match &self.cfg {
            AnyGemmConfig::Fp32(c) => (c.a_len(), c.b_len()),
            AnyGemmConfig::WideningBf16(c) => (c.m * c.k, c.k * c.n),
        };
        let mut a = vec![0.0f32; a_len];
        let mut b = vec![0.0f32; b_len];
        fill_matrix(seed, &mut a);
        fill_matrix(seed ^ 0x1111_1111, &mut b);
        (a, b)
    }

    /// The C matrix `seed` stands for (filled from `seed ^ 0x2222_2222`).
    fn seeded_c(&self, seed: u64) -> Vec<f32> {
        let mut c = vec![0.0f32; self.c_len()];
        fill_matrix(seed ^ 0x2222_2222, &mut c);
        c
    }

    /// Materialise the A/B operand byte images for `seed` without a
    /// simulator — the repack step a packed-operand cache skips on a hit.
    /// The images follow [`RoutedKernel::operand_layout`], so they replay
    /// only on kernels of the same configuration and layout.
    pub fn pack_operands(&self, seed: u64) -> OperandImages {
        let (a, b) = self.seeded_ab(seed);
        let (a, b) = match (&self.cfg, self.operand_layout()) {
            (AnyGemmConfig::Fp32(_), _) => (
                le_bytes(&a, f32::to_le_bytes),
                le_bytes(&b, f32::to_le_bytes),
            ),
            (AnyGemmConfig::WideningBf16(c), OperandLayout::MmlaBf16) => (
                le_bytes(&pack_a_bf16_mmla(&a, c.m, c.m, c.k), u16::to_le_bytes),
                le_bytes(&pack_b_bf16_mmla(&b, c.k, c.n, c.n), u16::to_le_bytes),
            ),
            (AnyGemmConfig::WideningBf16(c), _) => (
                le_bytes(&pack_a_bf16(&a, c.m, c.m, c.k), u16::to_le_bytes),
                le_bytes(&pack_b_bf16(&b, c.k, c.n, c.n), u16::to_le_bytes),
            ),
        };
        OperandImages { a, b }
    }

    /// Allocate operand buffers in the simulator's memory,
    /// [`OPERAND_ALIGN`]ed, in this kernel's operand layout. With a seed,
    /// A, B and C hold deterministic pseudo-random values — the same FP32
    /// values for every kernel of one shape, so both FP32 engines agree bit
    /// for bit and a scalar oracle can reproduce the widening operands from
    /// the seed alone ([`crate::widening::widening_reference`]); without
    /// one they are zero.
    pub fn allocate_buffers(&self, sim: &mut Simulator, seed: Option<u64>) -> GemmBuffers {
        match seed {
            Some(seed) => self.allocate_buffers_packed(sim, seed, &self.pack_operands(seed)),
            None => {
                let (a_bytes, b_bytes) = self.image_bytes();
                GemmBuffers {
                    a: sim.mem.alloc(a_bytes as u64, OPERAND_ALIGN),
                    b: sim.mem.alloc(b_bytes as u64, OPERAND_ALIGN),
                    c: sim.mem.alloc_f32_zeroed(self.c_len(), OPERAND_ALIGN),
                }
            }
        }
    }

    /// Allocate operand buffers from pre-packed A/B images (see
    /// [`RoutedKernel::pack_operands`]); C is always freshly seeded, being
    /// an output. Bit-identical to `allocate_buffers(sim, Some(seed))`
    /// when `images == self.pack_operands(seed)`.
    ///
    /// # Panics
    /// Panics if an image's length differs from what this kernel's layout
    /// and configuration read, so an image of another layout or a
    /// truncated one is refused rather than served as wrong output.
    pub fn allocate_buffers_packed(
        &self,
        sim: &mut Simulator,
        seed: u64,
        images: &OperandImages,
    ) -> GemmBuffers {
        let (a_bytes, b_bytes) = self.image_bytes();
        assert!(
            images.a.len() == a_bytes && images.b.len() == b_bytes,
            "kernel {} reads {:?} images of {a_bytes}/{b_bytes} A/B bytes, got {}/{}",
            self.program.name(),
            self.operand_layout(),
            images.a.len(),
            images.b.len()
        );
        let a = sim.mem.alloc(a_bytes as u64, OPERAND_ALIGN);
        sim.mem.write_bytes(a, &images.a);
        let b = sim.mem.alloc(b_bytes as u64, OPERAND_ALIGN);
        sim.mem.write_bytes(b, &images.b);
        GemmBuffers {
            a,
            b,
            c: sim.mem.alloc_f32(&self.seeded_c(seed), OPERAND_ALIGN),
        }
    }

    /// Execute the kernel once on the given simulator and operand buffers.
    pub fn run(&self, sim: &mut Simulator, bufs: GemmBuffers, opts: &RunOptions) -> RunResult {
        sim.run(&self.program, &[bufs.a, bufs.b, bufs.c], opts)
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
        let mut sim = Simulator::m4_performance();
        let bufs = self.allocate_buffers(&mut sim, Some(seed));
        self.run(&mut sim, bufs, &RunOptions::functional_only());
        let out = sim.mem.read_f32_slice(bufs.c, self.c_len());
        let (a, b) = self.seeded_ab(seed);
        let mut c = self.seeded_c(seed);
        match &self.cfg {
            AnyGemmConfig::Fp32(cfg) => {
                gemm_reference(cfg, &a, &b, &mut c);
                max_abs_diff(&out, &c)
            }
            AnyGemmConfig::WideningBf16(cfg) => {
                widening_reference(cfg, &a, &b, &mut c);
                widening_rel_error(&out, &c)
            }
        }
    }

    /// Model the kernel's performance on a single performance core and
    /// return the execution statistics (a timing-only run on untouched
    /// operands, made on the first call and memoized — see
    /// [`OPERAND_ALIGN`] for why the memo is exact).
    pub fn model_stats(&self) -> &ExecStats {
        self.timing.get_or_init(|| {
            let mut sim = Simulator::m4_performance();
            let bufs = self.allocate_buffers(&mut sim, None);
            self.run(&mut sim, bufs, &RunOptions::timing_only()).stats
        })
    }

    /// Modelled throughput in GFLOPS on a single performance core.
    ///
    /// Note that the simulator only counts the arithmetic the kernel
    /// actually performs; the returned figure uses the nominal `2·m·n·k`
    /// operation count of the problem, exactly as the paper's plots do.
    pub fn model_gflops(&self) -> f64 {
        let seconds = self.model_stats().seconds();
        if seconds == 0.0 {
            0.0
        } else {
            self.flops() as f64 / seconds / 1e9
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, generate_any_backend};
    use crate::widening::{generate_widening, WideningGemmConfig};

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
        let fp32 = generate(&GemmConfig::abt(32, 32, 32)).unwrap();
        let bf16 = generate_widening(&WideningGemmConfig::new(32, 32, 32).unwrap()).unwrap();
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
        let kernel = generate(&GemmConfig::abt(16, 16, 4)).unwrap();
        let mut sim = Simulator::m4_performance();
        let mut bufs = kernel.allocate_buffers(&mut sim, Some(1));
        bufs.b += 4;
        kernel.serve(&mut sim, bufs);
    }

    #[test]
    fn model_stats_are_timed_once() {
        let kernel = generate(&GemmConfig::abt(32, 32, 16)).unwrap();
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

    /// FNV-1a-64 over the little-endian bits of `values`.
    fn fnv1a64(values: &[f32]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    #[test]
    fn every_kernel_kind_keeps_its_layout_images_output_and_cycles() {
        let abt: AnyGemmConfig = GemmConfig::abt(33, 17, 9).into();
        let ab: AnyGemmConfig = GemmConfig::ab(33, 17, 9).into();
        let bf16: AnyGemmConfig = WideningGemmConfig::new(40, 34, 10).unwrap().into();
        // (config, backend, layout, A/B image bytes, C digest, cycles):
        // recorded values, so a change to seeding, packing, code
        // generation or timing of any kernel kind shows up bit for bit.
        let table = [
            (
                abt,
                Backend::Sme,
                OperandLayout::PlainF32,
                (1188, 612),
                0xf722_d2f7_c885_378c,
                264.87025819223004,
            ),
            (
                abt,
                Backend::Neon,
                OperandLayout::PlainF32,
                (1188, 612),
                0xf722_d2f7_c885_378c,
                754.0024380333284,
            ),
            (
                ab,
                Backend::Sme,
                OperandLayout::PlainF32,
                (1188, 612),
                0xbf9a_2297_ba77_c837,
                310.88563278669585,
            ),
            (
                bf16,
                Backend::Sme,
                OperandLayout::InterleavedBf16,
                (800, 680),
                0xa44b_7c9f_cde2_f722,
                475.2313485166469,
            ),
            (
                bf16,
                Backend::Neon,
                OperandLayout::MmlaBf16,
                (960, 816),
                0x8e01_8311_2fa0_8a6b,
                3456.1190476190027,
            ),
        ];
        let mut fp32_images = Vec::new();
        for (cfg, backend, layout, (a_bytes, b_bytes), digest, cycles) in table {
            let kernel = generate_any_backend(&cfg, backend).unwrap();
            let name = kernel.program().name().to_string();
            assert_eq!(kernel.operand_layout(), layout, "{name}");

            let images = kernel.pack_operands(7);
            assert_eq!(
                (images.a.len(), images.b.len()),
                (a_bytes, b_bytes),
                "{name}"
            );
            if cfg == abt {
                fp32_images.push(images.clone());
            }

            let mut seeded = Simulator::m4_performance();
            let mut packed = Simulator::m4_performance();
            let bufs = kernel.allocate_buffers(&mut seeded, Some(7));
            assert_eq!(
                kernel.allocate_buffers_packed(&mut packed, 7, &images),
                bufs
            );
            for (addr, len) in [
                (bufs.a, a_bytes),
                (bufs.b, b_bytes),
                (bufs.c, 4 * kernel.c_len()),
            ] {
                assert_eq!(
                    seeded.mem.read_bytes(addr, len),
                    packed.mem.read_bytes(addr, len),
                    "{name}"
                );
            }

            let served = kernel.serve(&mut seeded, bufs).cycles;
            let c = seeded.mem.read_f32_slice(bufs.c, kernel.c_len());
            assert_eq!((fnv1a64(&c), served), (digest, cycles), "{name}");
        }
        assert_eq!(
            fp32_images[0], fp32_images[1],
            "both FP32 engines read one image"
        );
    }

    #[test]
    #[should_panic(expected = "reads InterleavedBf16 images of 512/512 A/B bytes, got 1024/1024")]
    fn images_of_another_layout_are_refused() {
        let bf16 = generate_widening(&WideningGemmConfig::new(32, 32, 8).unwrap()).unwrap();
        let fp32 = generate(&GemmConfig::abt(32, 32, 8)).unwrap();
        let mut sim = Simulator::m4_performance();
        bf16.allocate_buffers_packed(&mut sim, 1, &fp32.pack_operands(1));
    }

    #[test]
    #[should_panic(expected = "of 512/512 A/B bytes, got 256/512")]
    fn truncated_images_are_refused() {
        let kernel = generate_widening(&WideningGemmConfig::new(32, 32, 8).unwrap()).unwrap();
        let mut images = kernel.pack_operands(1);
        images.a.truncate(256);
        let mut sim = Simulator::m4_performance();
        kernel.allocate_buffers_packed(&mut sim, 1, &images);
    }
}
