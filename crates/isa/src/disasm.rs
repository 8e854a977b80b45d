//! Textual disassembly of programs and machine-code buffers.
//!
//! Used by the generator's debugging interface (`RoutedKernel::disassembly`
//! in `sme-gemm`) and by golden tests that compare generated code against
//! the paper's listings.

use crate::decode::decode;
use crate::inst::Inst;
use crate::Program;
use std::fmt::Write as _;

/// Render a program as an assembly listing with instruction indices and
/// encodings.
pub fn disassemble_program(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// {}", program.name());
    for (idx, inst) in program.insts().iter().enumerate() {
        let word = crate::encode::encode(inst);
        let _ = writeln!(out, "{:6}:  {word:08x}    {inst}", idx * 4);
    }
    out
}

/// Render raw instructions (without encodings), one per line.
pub fn disassemble_insts(insts: &[Inst]) -> String {
    let mut out = String::new();
    for inst in insts {
        let _ = writeln!(out, "{inst}");
    }
    out
}

/// Disassemble a little-endian machine-code buffer.
///
/// Words that cannot be decoded are rendered as `.word 0x????????`.
pub fn disassemble_bytes(bytes: &[u8]) -> String {
    let mut out = String::new();
    for (idx, chunk) in bytes.chunks_exact(4).enumerate() {
        let word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        match decode(word) {
            Some(inst) => {
                let _ = writeln!(out, "{:6}:  {word:08x}    {inst}", idx * 4);
            }
            None => {
                let _ = writeln!(out, "{:6}:  {word:08x}    .word 0x{word:08x}", idx * 4);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::inst::{ScalarInst, SmeInst};
    use crate::regs::short::*;

    fn sample_program() -> Program {
        let mut a = Assembler::new("sample");
        let top = a.new_label();
        a.bind(top);
        a.push(ScalarInst::SubImm {
            rd: x(0),
            rn: x(0),
            imm12: 1,
            shift12: false,
        });
        a.push(SmeInst::fmopa_f32(0, p(0), p(1), z(0), z(1)));
        a.cbnz(x(0), top);
        a.ret();
        a.finish()
    }

    #[test]
    fn program_listing_contains_mnemonics() {
        let text = disassemble_program(&sample_program());
        assert!(text.contains("sub x0, x0, #1"));
        assert!(text.contains("fmopa za0.s, p0/m, p1/m, z0.s, z1.s"));
        assert!(text.contains("cbnz x0"));
        assert!(text.contains("ret"));
    }

    #[test]
    fn byte_disassembly_roundtrips() {
        let program = sample_program();
        let text = disassemble_bytes(&program.encode_bytes());
        assert!(text.contains("fmopa"));
        assert!(
            !text.contains(".word"),
            "all emitted words must decode: {text}"
        );
    }

    #[test]
    fn undecodable_words_are_marked() {
        let text = disassemble_bytes(&[0u8; 4]);
        assert!(text.contains(".word 0x00000000"));
    }

    #[test]
    fn inst_listing() {
        let program = sample_program();
        let text = disassemble_insts(program.insts());
        assert_eq!(text.lines().count(), 4);
    }
}
