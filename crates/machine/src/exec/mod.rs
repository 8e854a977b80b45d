//! The simulator driver: functional execution of programs with optional
//! timing.

pub mod fp;
pub mod neon;
pub mod scalar;
pub mod sme;
pub mod sve;

pub use scalar::Outcome;

use crate::config::{CoreKind, MachineConfig};
use crate::counters::ExecStats;
use crate::mem::Memory;
use crate::state::CoreState;
use crate::timing::{MemModel, OpKind, Scoreboard};
use sme_isa::inst::{Inst, InstClass, NeonInst, ScalarInst, SmeInst, SveInst};
use sme_isa::regs::XReg;
use sme_isa::Program;

/// Bytes in the largest scalable vector (SVL 2048): the size of the stack
/// buffers instructions stage register contents in.
pub(crate) const MAX_VL_BYTES: usize = 256;

/// Every instruction class, in declaration order, so that `class as usize`
/// indexes the run loop's per-class counters.
const CLASSES: [InstClass; 11] = [
    InstClass::Branch,
    InstClass::IntAlu,
    InstClass::NeonFp,
    InstClass::NeonMem,
    InstClass::SveFp,
    InstClass::SvePred,
    InstClass::SveMem,
    InstClass::SmeCompute,
    InstClass::SmeMove,
    InstClass::SmeMem,
    InstClass::SmeControl,
];

/// Bytes of stack `program` reaches below its entry SP: the deepest point
/// of its `sub sp, sp, #imm` / `add sp, sp, #imm` / `addvl sp, sp, #imm`
/// chain, followed in program order.
///
/// Generated kernels move SP only in a straight-line prologue/epilogue
/// pair, for which this is exact. Anything else — SP adjusted inside a
/// loop, or set from another register — is caught at run time instead:
/// [`Simulator::run`] panics as soon as SP leaves the backed stack.
fn stack_reach(program: &Program, vl_bytes: u64) -> u64 {
    let (mut depth, mut reach) = (0i64, 0i64);
    for inst in program.insts() {
        let grow = match *inst {
            Inst::Scalar(ScalarInst::SubImm {
                rd: XReg::SP,
                rn: XReg::SP,
                imm12,
                shift12,
            }) => (imm12 as i64) << if shift12 { 12 } else { 0 },
            Inst::Scalar(ScalarInst::AddImm {
                rd: XReg::SP,
                rn: XReg::SP,
                imm12,
                shift12,
            }) => -((imm12 as i64) << if shift12 { 12 } else { 0 }),
            Inst::Sve(SveInst::AddVl {
                rd: XReg::SP,
                rn: XReg::SP,
                imm,
            }) => -(imm as i64) * vl_bytes as i64,
            _ => continue,
        };
        depth = (depth + grow).max(0);
        reach = reach.max(depth);
    }
    reach as u64
}

/// How much of the architectural semantics to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Execute every instruction's full semantics (data is correct).
    Functional,
    /// Execute scalar control flow and address arithmetic only; skip vector
    /// and matrix data movement/arithmetic. Counters and timing are exact,
    /// data values are not. Used for large parameter sweeps where only the
    /// modelled performance is of interest.
    TimingOnly,
}

/// Options controlling one simulation run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Whether to run the timing model alongside functional execution.
    pub timing: bool,
    /// Functional or timing-only execution.
    pub mode: ExecMode,
    /// Pin the memory model's working-set size instead of tracking touched
    /// cache lines (used by the bandwidth sweeps).
    pub working_set_hint: Option<u64>,
    /// Safety limit on retired instructions.
    pub max_instructions: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            timing: true,
            mode: ExecMode::Functional,
            working_set_hint: None,
            max_instructions: 2_000_000_000,
        }
    }
}

impl RunOptions {
    /// Functional execution without timing (fast correctness checks).
    pub fn functional_only() -> Self {
        RunOptions {
            timing: false,
            ..Default::default()
        }
    }

    /// Timing-only execution (fast performance sweeps).
    pub fn timing_only() -> Self {
        RunOptions {
            mode: ExecMode::TimingOnly,
            ..Default::default()
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Counters and modelled timing.
    pub stats: ExecStats,
    /// The kernel's return value (X0 at `ret`).
    pub return_value: u64,
}

/// A single-core simulator instance: configuration, architectural state and
/// memory.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: MachineConfig,
    core_kind: CoreKind,
    /// Architectural state (public so harnesses can pre-set registers and
    /// inspect results).
    pub state: CoreState,
    /// Simulated memory (public so harnesses can allocate operands).
    pub mem: Memory,
}

impl Simulator {
    /// Create a simulator for the given machine and core kind.
    pub fn new(config: MachineConfig, core_kind: CoreKind) -> Self {
        let state = CoreState::new(config.svl);
        Simulator {
            config,
            core_kind,
            state,
            mem: Memory::new(),
        }
    }

    /// Create an M4 performance-core simulator (the common case).
    pub fn m4_performance() -> Self {
        Simulator::new(MachineConfig::apple_m4(), CoreKind::Performance)
    }

    /// Create an M4 efficiency-core simulator.
    pub fn m4_efficiency() -> Self {
        Simulator::new(MachineConfig::apple_m4(), CoreKind::Efficiency)
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The core kind this simulator models.
    pub fn core_kind(&self) -> CoreKind {
        self.core_kind
    }

    /// Reset the architectural state (registers, ZA, flags) while keeping
    /// memory contents.
    pub fn reset_state(&mut self) {
        self.state = CoreState::new(self.config.svl);
    }

    /// Effective address and transfer size of a memory instruction given the
    /// current register state.
    fn mem_access_info(&self, inst: &Inst) -> Option<(u64, u64)> {
        let vl = self.config.svl.bytes() as u64;
        let bytes = inst.mem_bytes(self.config.svl);
        let addr = match inst {
            Inst::Neon(n) => match *n {
                NeonInst::LdrQ { rn, imm, .. } | NeonInst::StrQ { rn, imm, .. } => {
                    self.state.x(rn) + imm as u64
                }
                NeonInst::LdpQ { rn, imm, .. } | NeonInst::StpQ { rn, imm, .. } => {
                    (self.state.x(rn) as i64 + imm as i64) as u64
                }
                _ => return None,
            },
            Inst::Sve(v) => match *v {
                SveInst::Ld1 { rn, imm_vl, .. } | SveInst::St1 { rn, imm_vl, .. } => {
                    (self.state.x(rn) as i64 + imm_vl as i64 * vl as i64) as u64
                }
                SveInst::Ld1Multi {
                    rn, imm_vl, count, ..
                }
                | SveInst::St1Multi {
                    rn, imm_vl, count, ..
                } => (self.state.x(rn) as i64 + imm_vl as i64 * vl as i64 * count as i64) as u64,
                SveInst::LdrZ { rn, imm_vl, .. } | SveInst::StrZ { rn, imm_vl, .. } => {
                    (self.state.x(rn) as i64 + imm_vl as i64 * vl as i64) as u64
                }
                _ => return None,
            },
            Inst::Sme(m) => match *m {
                SmeInst::LdrZa { rn, offset, .. } | SmeInst::StrZa { rn, offset, .. } => {
                    self.state.x(rn) + offset as u64 * vl
                }
                _ => return None,
            },
            Inst::Scalar(_) => return None,
        };
        Some((addr, bytes))
    }

    /// Run a program. `args` are placed in X0, X1, … before execution; the
    /// stack pointer is set to the top of a dedicated stack region, backed
    /// only as deep as the program's SP arithmetic reaches (page-granular,
    /// so stack addresses keep their alignment whatever the depth).
    ///
    /// # Panics
    /// Panics if the program exceeds `opts.max_instructions` (runaway loop),
    /// branches outside the program, or moves SP outside the backed stack
    /// (it would otherwise scribble over operand buffers).
    pub fn run(&mut self, program: &Program, args: &[u64], opts: &RunOptions) -> RunResult {
        assert!(
            args.len() <= 8,
            "at most eight register arguments are supported"
        );
        for (i, arg) in args.iter().enumerate() {
            self.state.set_x(XReg::new(i as u8), *arg);
        }
        let stack_top = self
            .mem
            .init_stack(stack_reach(program, self.config.svl.bytes() as u64));
        let stack_base = self.mem.stack_base();
        self.state.set_x(XReg::SP, stack_top);

        let timings = self.config.core(self.core_kind);
        let mut scoreboard = opts.timing.then(|| Scoreboard::new(timings.clone()));
        let mut mem_model = opts.timing.then(|| {
            let mut m = MemModel::new(self.config.mem.clone(), timings.clock_ghz);
            m.set_working_set(opts.working_set_hint);
            m
        });

        let mut stats = ExecStats {
            clock_ghz: timings.clock_ghz,
            ..Default::default()
        };
        let mut by_class = [0u64; CLASSES.len()];
        let svl = self.config.svl;
        let insts = program.insts();
        let mut pc: i64 = 0;

        while (pc as usize) < insts.len() {
            let inst = &insts[pc as usize];
            stats.instructions += 1;
            if stats.instructions > opts.max_instructions {
                panic!(
                    "program {} exceeded the instruction limit of {}",
                    program.name(),
                    opts.max_instructions
                );
            }
            stats.arith_ops += inst.arith_ops(svl);
            by_class[inst.class() as usize] += 1;

            // Memory accounting and bandwidth-model charge.
            let mut mem_cost = None;
            if inst.is_memory() {
                if let Some((addr, bytes)) = self.mem_access_info(inst) {
                    let kind = OpKind::of(inst);
                    if kind.is_store() {
                        stats.bytes_stored += bytes;
                    } else {
                        stats.bytes_loaded += bytes;
                    }
                    if let Some(model) = mem_model.as_mut() {
                        mem_cost = Some(model.access(kind, addr, bytes));
                    }
                }
            }
            if let Some(sb) = scoreboard.as_mut() {
                sb.issue(inst, mem_cost);
            }

            // Functional execution.
            let outcome = match inst {
                Inst::Scalar(s) => scalar::exec(&mut self.state, s),
                Inst::Neon(n) => {
                    if opts.mode == ExecMode::Functional {
                        neon::exec(&mut self.state, &mut self.mem, n);
                    }
                    Outcome::Next
                }
                Inst::Sve(v) => {
                    if opts.mode == ExecMode::Functional {
                        sve::exec(&mut self.state, &mut self.mem, v);
                    }
                    Outcome::Next
                }
                Inst::Sme(m) => {
                    if opts.mode == ExecMode::Functional {
                        sme::exec(&mut self.state, &mut self.mem, m);
                    }
                    Outcome::Next
                }
            };

            let sp = self.state.x(XReg::SP);
            assert!(
                (stack_base..=stack_top).contains(&sp),
                "stack pointer 0x{sp:x} left the simulated stack [0x{stack_base:x}, \
                 0x{stack_top:x}] in program {}",
                program.name()
            );

            match outcome {
                Outcome::Next => pc += 1,
                Outcome::Branch(offset) => {
                    pc += offset as i64;
                    assert!(
                        pc >= 0 && (pc as usize) <= insts.len(),
                        "branch target out of range in program {}",
                        program.name()
                    );
                }
                Outcome::Return => break,
            }
        }

        stats.instructions_by_class = CLASSES
            .iter()
            .zip(by_class)
            .filter(|&(_, count)| count > 0)
            .map(|(class, count)| (format!("{class:?}"), count))
            .collect();
        if let Some(sb) = scoreboard {
            stats.cycles = sb.cycles();
            stats.profile = sb.profile().clone();
        }
        RunResult {
            stats,
            return_value: self.state.x(XReg::new(0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sme_isa::asm::Assembler;
    use sme_isa::inst::ScalarInst;
    use sme_isa::regs::short::*;
    use sme_isa::types::{ElementType, NeonArrangement};

    /// The Lst. 1 Neon peak-throughput kernel.
    fn neon_fmla_kernel(unroll: u8) -> Program {
        let mut a = Assembler::new("neon_fmla");
        let top = a.new_label();
        a.bind(top);
        a.push(ScalarInst::SubImm {
            rd: x(0),
            rn: x(0),
            imm12: 1,
            shift12: false,
        });
        for d in 0..unroll {
            a.push(NeonInst::fmla_vec(v(d), v(30), v(31), NeonArrangement::S4));
        }
        a.cbnz(x(0), top);
        a.push(ScalarInst::mov_imm16(x(0), unroll as u16 * 8));
        a.ret();
        a.finish()
    }

    /// The Lst. 2 SME peak-throughput kernel.
    fn fmopa_kernel(tiles: u8) -> Program {
        let mut a = Assembler::new("fmopa_peak");
        a.push(SveInst::ptrue(p(0), ElementType::I8));
        a.push(SveInst::ptrue(p(1), ElementType::I8));
        let top = a.new_label();
        a.bind(top);
        a.push(ScalarInst::SubImm {
            rd: x(0),
            rn: x(0),
            imm12: 1,
            shift12: false,
        });
        for i in 0..32u8 {
            a.push(SmeInst::fmopa_f32(
                i % tiles,
                p(0),
                p(1),
                z((i * 2) % 30),
                z((i * 2 + 1) % 30),
            ));
        }
        a.cbnz(x(0), top);
        a.push(ScalarInst::mov_imm16(x(0), 32 * 512 / 16));
        a.ret();
        a.finish()
    }

    #[test]
    fn loop_execution_and_return_value() {
        let mut sim = Simulator::m4_performance();
        let program = neon_fmla_kernel(30);
        let result = sim.run(&program, &[100], &RunOptions::functional_only());
        assert_eq!(result.return_value, 240);
        // 100 iterations * 32 instructions + 2 tail instructions.
        assert_eq!(result.stats.instructions, 100 * 32 + 2);
        assert_eq!(result.stats.arith_ops, 100 * 30 * 8);
        assert_eq!(
            result.stats.cycles, 0.0,
            "functional-only runs carry no timing"
        );
    }

    #[test]
    fn neon_peak_matches_table_one() {
        let mut sim = Simulator::m4_performance();
        let program = neon_fmla_kernel(30);
        let result = sim.run(&program, &[2_000], &RunOptions::default());
        let gflops = result.stats.gflops();
        assert!(
            (gflops - 113.0).abs() < 4.0,
            "Neon FP32 peak: {gflops} GFLOPS"
        );
    }

    #[test]
    fn fmopa_peak_and_single_tile_drop() {
        let mut sim = Simulator::m4_performance();
        let peak = sim
            .run(&fmopa_kernel(4), &[500], &RunOptions::default())
            .stats
            .gflops();
        assert!(
            (peak - 2009.0).abs() < 40.0,
            "four-tile FMOPA peak: {peak} GFLOPS"
        );

        let mut sim = Simulator::m4_performance();
        let single = sim
            .run(&fmopa_kernel(1), &[500], &RunOptions::default())
            .stats
            .gflops();
        assert!(
            (single - 502.0).abs() < 20.0,
            "single-tile FMOPA: {single} GFLOPS"
        );
    }

    #[test]
    fn efficiency_core_is_slower() {
        let program = fmopa_kernel(4);
        let mut p_sim = Simulator::m4_performance();
        let mut e_sim = Simulator::m4_efficiency();
        let p = p_sim
            .run(&program, &[200], &RunOptions::default())
            .stats
            .gflops();
        let e = e_sim
            .run(&program, &[200], &RunOptions::default())
            .stats
            .gflops();
        assert!((e - 357.0).abs() < 10.0, "E-core FMOPA: {e}");
        assert!(
            p > 5.0 * e,
            "P-core must be >5x the E-core for SME ({p} vs {e})"
        );
    }

    #[test]
    fn timing_only_mode_matches_functional_timing() {
        let program = fmopa_kernel(4);
        let mut a = Simulator::m4_performance();
        let mut b = Simulator::m4_performance();
        let full = a.run(&program, &[100], &RunOptions::default());
        let fast = b.run(&program, &[100], &RunOptions::timing_only());
        assert_eq!(
            full.stats, fast.stats,
            "cycles, profile, per-class counts and bytes all agree"
        );
    }

    #[test]
    fn stack_reach_follows_the_sp_chain_in_program_order() {
        let mut a = Assembler::new("frames");
        a.sub_imm(XReg::SP, XReg::SP, 0x8_0040);
        a.add_imm(XReg::SP, XReg::SP, 0x8_0040);
        a.sub_imm(XReg::SP, XReg::SP, 64);
        a.push(SveInst::AddVl {
            rd: XReg::SP,
            rn: XReg::SP,
            imm: -2,
        });
        // Writes to other registers, or from SP elsewhere, do not count.
        a.sub_imm(x(9), XReg::SP, 0x1000);
        a.ret();
        assert_eq!(stack_reach(&a.finish(), 64), 0x8_0040);
        assert_eq!(stack_reach(&neon_fmla_kernel(4), 64), 0);
    }

    /// `sub sp, sp, #16; str q0, [sp]` repeated `x0` times: SP arithmetic
    /// inside a loop, which the static reach (16 bytes) cannot bound.
    fn stack_walker() -> Program {
        let mut a = Assembler::new("stack_walker");
        let top = a.new_label();
        a.bind(top);
        a.sub_imm(XReg::SP, XReg::SP, 16);
        a.push(NeonInst::StrQ {
            vt: v(0),
            rn: XReg::SP,
            imm: 0,
        });
        a.push(ScalarInst::SubImm {
            rd: x(0),
            rn: x(0),
            imm12: 1,
            shift12: false,
        });
        a.cbnz(x(0), top);
        a.ret();
        a.finish()
    }

    #[test]
    fn sp_leaving_the_stack_panics_before_touching_operands() {
        let mut sim = Simulator::m4_performance();
        let operand = sim.mem.alloc_f32(&[1.5; 1024], 128);
        // Within the page the reach rounds up to, the walk is fine …
        sim.run(&stack_walker(), &[256], &RunOptions::functional_only());
        // … one step further would store below the stack, into `operand`.
        let walked_off = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run(&stack_walker(), &[257], &RunOptions::functional_only())
        }));
        let payload = walked_off.expect_err("SP left the backed stack");
        let message = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(
            message.contains("left the simulated stack") && message.contains("stack_walker"),
            "{message}"
        );
        assert_eq!(sim.mem.read_f32_slice(operand, 1024), vec![1.5; 1024]);
    }

    #[test]
    #[should_panic(expected = "left the simulated stack")]
    fn sp_set_outside_the_stack_panics() {
        let mut a = Assembler::new("sp_from_register");
        a.push(ScalarInst::MovReg {
            rd: XReg::SP,
            rn: x(0),
        });
        a.ret();
        let mut sim = Simulator::m4_performance();
        let operand = sim.mem.alloc(64, 128);
        let _ = sim.run(&a.finish(), &[operand + 64], &RunOptions::functional_only());
    }

    #[test]
    #[should_panic(expected = "instruction limit")]
    fn runaway_loops_are_caught() {
        let mut a = Assembler::new("forever");
        let top = a.new_label();
        a.bind(top);
        a.push(ScalarInst::Nop);
        a.b(top);
        let program = a.finish();
        let mut sim = Simulator::m4_performance();
        let opts = RunOptions {
            max_instructions: 10_000,
            ..RunOptions::functional_only()
        };
        let _ = sim.run(&program, &[], &opts);
    }

    #[test]
    fn class_counters_are_indexed_by_declaration_order() {
        for (i, class) in CLASSES.iter().enumerate() {
            assert_eq!(*class as usize, i, "{class:?}");
        }
    }

    #[test]
    fn arguments_land_in_registers() {
        let mut a = Assembler::new("args");
        a.push(ScalarInst::AddReg {
            rd: x(0),
            rn: x(0),
            rm: x(1),
            shift: None,
        });
        a.ret();
        let program = a.finish();
        let mut sim = Simulator::m4_performance();
        let r = sim.run(&program, &[40, 2], &RunOptions::functional_only());
        assert_eq!(r.return_value, 42);
    }
}
