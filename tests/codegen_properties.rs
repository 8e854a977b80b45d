//! Integration tests of the code-generation layer: every generated kernel
//! must lower to machine code that decodes back to the identical instruction
//! stream, and the emitted code must contain the structures described by the
//! paper's listings.

use proptest::prelude::*;
use sme_gemm::{generate, kernel_stats, BLayout, GemmConfig};
use sme_isa::decode::decode_bytes;
use sme_isa::inst::{Inst, SmeInst, SveInst};

#[test]
fn generated_kernels_roundtrip_through_machine_code() {
    for cfg in [
        GemmConfig::abt(32, 32, 8),
        GemmConfig::abt(80, 80, 4),
        GemmConfig::ab(48, 40, 16),
        GemmConfig::abt(17, 3, 5),
    ] {
        let kernel = generate(&cfg).unwrap();
        let bytes = kernel.machine_code();
        let decoded =
            decode_bytes(&bytes).unwrap_or_else(|| panic!("{cfg}: every emitted word must decode"));
        assert_eq!(decoded, kernel.program().insts(), "{cfg}");
    }
}

#[test]
fn kernels_contain_the_listing_four_structure() {
    let kernel = generate(&GemmConfig::abt(32, 32, 64)).unwrap();
    let listing = kernel.disassembly();
    // Operand loads, outer products and the loop back-edge of Lst. 4.
    assert!(listing.contains("ld1w { z0.s - z1.s }, pn8/z"));
    assert!(listing.contains("ld1w { z4.s - z5.s }, pn9/z"));
    assert!(listing.contains("fmopa za0.s"));
    assert!(listing.contains("fmopa za3.s"));
    assert!(listing.contains("cbnz"));
    assert!(listing.contains("smstart"));
    assert!(listing.contains("smstop"));
}

#[test]
fn column_major_kernels_contain_the_listing_five_transpose() {
    let kernel = generate(&GemmConfig::ab(32, 32, 32)).unwrap();
    let listing = kernel.disassembly();
    // The Lst. 5 idiom: horizontal MOVA in, vertical MOVA out.
    assert!(listing.contains("mov za0h.s[w12, 0:3]"));
    assert!(listing.contains("za0v.s[w12, 0:3]"));
    // Row-major kernels do not transpose.
    let abt = generate(&GemmConfig::abt(32, 32, 32)).unwrap();
    assert!(!abt.disassembly().contains("za0v.s"));
}

#[test]
fn fmopa_count_matches_the_plan() {
    // Static FMOPA sites = 4 per full 32x32 block (they sit inside the K
    // loop), independent of K.
    let kernel = generate(&GemmConfig::abt(64, 64, 128)).unwrap();
    let stats = kernel_stats(&kernel);
    assert_eq!(stats.microkernels, 4);
    assert_eq!(stats.fmopa_count, 16);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Machine-code round-trip holds for arbitrary generated kernels.
    #[test]
    fn roundtrip_holds_for_random_shapes(
        m in 1usize..=96,
        n in 1usize..=96,
        k in 1usize..=32,
        col_major_b in any::<bool>(),
    ) {
        let cfg = if col_major_b { GemmConfig::ab(m, n, k) } else { GemmConfig::abt(m, n, k) };
        let kernel = generate(&cfg).unwrap();
        let decoded = decode_bytes(&kernel.machine_code()).expect("decodable");
        prop_assert_eq!(decoded, kernel.program().insts());
    }

    /// Structural invariants: every kernel enables and disables streaming
    /// mode, contains at least one outer product, and the number of
    /// multi-vector loads per contraction step matches the block plan.
    #[test]
    fn structural_invariants(
        m in 1usize..=96,
        n in 1usize..=96,
        k in 1usize..=32,
    ) {
        let cfg = GemmConfig::abt(m, n, k);
        let kernel = generate(&cfg).unwrap();
        let program = kernel.program();
        let starts = program.count_matching(|i| matches!(i, Inst::Sme(SmeInst::Smstart { .. })));
        let stops = program.count_matching(|i| matches!(i, Inst::Sme(SmeInst::Smstop { .. })));
        prop_assert_eq!(starts, 1);
        prop_assert_eq!(stops, 1);
        let fmopas = program.count_matching(|i| matches!(i, Inst::Sme(SmeInst::Fmopa { .. })));
        prop_assert!(fmopas > 0);
        // Predicate setup exists whenever masking is needed.
        if !m.is_multiple_of(32) || !n.is_multiple_of(32) {
            let whilelts = program.count_matching(|i| matches!(i, Inst::Sve(SveInst::Whilelt { .. })));
            prop_assert!(whilelts > 0, "masked kernels must set up partial predicates");
        }
        // The layout of B never leaks vertical-view MOVAs into row-major
        // kernels.
        prop_assert_eq!(
            program.count_matching(|i| matches!(
                i,
                Inst::Sme(SmeInst::MovaFromTile { dir: sme_isa::regs::TileSliceDir::Vertical, .. })
            )),
            0
        );
        prop_assert_eq!(kernel.fp32_config().unwrap().b_layout, BLayout::RowMajor);
    }
}
