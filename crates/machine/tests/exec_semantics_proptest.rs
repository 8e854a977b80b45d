//! Bit-exactness of the row-at-a-time and whole-range instruction
//! executors: each instruction runs through `exec` and through the
//! element-wise reference in [`reference`] (the lane-by-lane,
//! element-by-element definitions, kept here as the specification), from
//! the same random architectural state and memory, and the whole state and
//! the touched memory must agree bit for bit.
//!
//! The random states carry quiet and signalling NaNs with payloads, ±Inf,
//! subnormals, ±0 and normal numbers of every element width; predicates
//! that are full, empty, partial or gapped (a prefix written at one element
//! width and read at another); and predicate-as-counter values below, at
//! and beyond the group size. Out-of-range tiles, ZA vectors and memory
//! accesses must panic in both, with the reference's message.

use proptest::prelude::*;
use sme_isa::inst::{Inst, NeonInst, SmeInst, SveInst};
use sme_isa::regs::{PReg, PnReg, TileSliceDir, VReg, XReg, ZReg, ZaTile};
use sme_isa::types::{ElementType, NeonArrangement, StreamingVectorLength};
use sme_machine::exec::{neon, sme, sve};
use sme_machine::{CoreState, Memory};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Bytes of operand memory each case allocates.
const REGION: usize = 4096;

/// Element widths a predicate prefix or a memory access can use.
const WIDTHS: [ElementType; 4] = [
    ElementType::I8,
    ElementType::I16,
    ElementType::F32,
    ElementType::F64,
];

/// splitmix64, seeded by the property's drawn seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize]
    }

    /// A normal number's bits, its biased exponent in `lo..hi`.
    fn normal(&mut self, mant_bits: u32, lo: u64, hi: u64) -> u64 {
        (lo + self.below(hi - lo)) << mant_bits | self.next() >> (64 - mant_bits)
    }

    /// One special or ordinary value of a `bits`-wide IEEE format with
    /// `mant_bits` fraction bits: quiet NaN with payload, signalling NaN
    /// with payload, infinity, subnormal, zero or normal, either sign.
    fn ieee(&mut self, bits: u32, mant_bits: u32) -> u64 {
        let exp_bits = bits - 1 - mant_bits;
        let exp_max = (1u64 << exp_bits) - 1;
        let quiet = 1u64 << (mant_bits - 1);
        let payload = self.next() & (quiet - 1);
        let sign = self.below(2) << (bits - 1);
        let magnitude = match self.below(8) {
            0 => exp_max << mant_bits | quiet | payload,
            1 => exp_max << mant_bits | payload.max(1),
            2 => exp_max << mant_bits,
            3 => payload.max(1),
            4 => 0,
            // Normal numbers around 1, so products and sums round.
            _ => {
                let bias = exp_max / 2;
                self.normal(mant_bits, bias - 12, bias + 12)
            }
        };
        sign | magnitude
    }

    /// `len` bytes of operand data, 8-byte granule by granule: random bits,
    /// or values of one IEEE width (FP64, FP32, FP16 or BF16).
    fn data(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let granule: u64 = match self.below(5) {
                0 => self.next(),
                1 => self.ieee(64, 52),
                2 => self.ieee(32, 23) | self.ieee(32, 23) << 32,
                3 => (0..4).fold(0, |g, i| g | self.ieee(16, 10) << (16 * i)),
                _ => (0..4).fold(0, |g, i| g | self.ieee(16, 7) << (16 * i)),
            };
            out.extend_from_slice(&granule.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    fn z(&mut self) -> ZReg {
        ZReg::new(self.below(32) as u8)
    }

    fn v(&mut self) -> VReg {
        VReg::new(self.below(32) as u8)
    }

    fn p(&mut self) -> PReg {
        PReg::new(self.below(16) as u8)
    }

    fn pn(&mut self) -> PnReg {
        PnReg::new(8 + self.below(8) as u8)
    }

    fn x(&mut self) -> XReg {
        XReg::new(self.below(31) as u8)
    }
}

/// One random machine: core state, memory and the operand region's base.
#[derive(Clone)]
struct Machine {
    state: CoreState,
    mem: Memory,
    base: u64,
}

impl Machine {
    fn random(g: &mut Gen) -> Machine {
        let mut state = CoreState::new(StreamingVectorLength::M4);
        let vl = state.vl_bytes();
        for r in 0..32 {
            state.set_z(ZReg::new(r), &g.data(vl));
            state.set_v(VReg::new(r), g.data(16).try_into().expect("16 bytes"));
        }
        for vector in 0..vl {
            state.set_za_vector(vector, &g.data(vl));
        }
        for p in 0..16 {
            let p = PReg::new(p);
            match g.below(4) {
                0 => state.set_p_all(p, true),
                1 => state.set_p_all(p, false),
                // A prefix at one width reads as a gapped predicate at a
                // narrower one.
                _ => state.set_p_first(p, g.pick(&WIDTHS), g.below(vl as u64 + 1) as usize),
            }
        }
        for pn in 8..16 {
            let count = match g.below(4) {
                0 => 0,
                1 => u64::MAX,
                2 => g.pick(&[16, 32, 64, 128, 256]),
                _ => g.below(300),
            };
            state.set_pn_count(PnReg::new(pn), count);
        }
        for x in 0..31 {
            state.set_x(XReg::new(x), g.below(1 << 20));
        }
        let mut mem = Memory::new();
        let base = mem.alloc(REGION as u64, 64);
        mem.write_bytes(base, &g.data(REGION));
        Machine { state, mem, base }
    }

    /// Point `rn` at `offset` bytes into the operand region.
    fn address(&mut self, rn: XReg, offset: u64) {
        self.state.set_x(rn, self.base + offset);
    }

    /// The first architectural difference from `other`, if any.
    fn diff(&self, other: &Machine) -> Option<String> {
        let (a, b) = (&self.state, &other.state);
        for r in (0..31).map(XReg::new).chain([XReg::SP]) {
            if a.x(r) != b.x(r) {
                return Some(format!("{r}: {:#x} vs {:#x}", a.x(r), b.x(r)));
            }
        }
        for r in (0..32).map(VReg::new) {
            if a.v(r) != b.v(r) {
                return Some(format!("{r}: {:02x?} vs {:02x?}", a.v(r), b.v(r)));
            }
        }
        for r in (0..32).map(ZReg::new) {
            if a.z(r) != b.z(r) {
                return Some(format!("{r}: {:02x?} vs {:02x?}", a.z(r), b.z(r)));
            }
        }
        for r in (0..16).map(PReg::new) {
            if a.p(r) != b.p(r) {
                return Some(format!("{r} differs"));
            }
        }
        for r in (8..16).map(PnReg::new) {
            if a.pn_count(r) != b.pn_count(r) {
                return Some(format!("{r}: {} vs {}", a.pn_count(r), b.pn_count(r)));
            }
        }
        let vl = a.vl_bytes();
        if let Some(i) = (0..a.za().len()).find(|&i| a.za()[i] != b.za()[i]) {
            return Some(format!("ZA vector {} byte {} differs", i / vl, i % vl));
        }
        if (a.flags, a.streaming, a.za_enabled) != (b.flags, b.streaming, b.za_enabled) {
            return Some("flags or mode bits differ".into());
        }
        let (ma, mb) = (&self.mem, &other.mem);
        if ma.capacity() != mb.capacity() {
            return Some(format!(
                "memory {} vs {} bytes",
                ma.capacity(),
                mb.capacity()
            ));
        }
        let len = ma.capacity();
        let (bytes_a, bytes_b) = (
            ma.read_bytes(Memory::BASE, len),
            mb.read_bytes(Memory::BASE, len),
        );
        (0..len)
            .find(|&i| bytes_a[i] != bytes_b[i])
            .map(|i| format!("memory byte {:#x} differs", Memory::BASE + i as u64))
    }
}

/// Run `inst` through the simulator's executor.
fn exec(m: &mut Machine, inst: &Inst) {
    match inst {
        Inst::Sme(i) => sme::exec(&mut m.state, &mut m.mem, i),
        Inst::Sve(i) => sve::exec(&mut m.state, &mut m.mem, i),
        Inst::Neon(i) => neon::exec(&mut m.state, &mut m.mem, i),
        Inst::Scalar(_) => unreachable!("no scalar instruction is drawn"),
    }
}

/// Run `inst` on two copies of `machine`, one per executor, and return the
/// first difference.
fn compare(machine: Machine, inst: Inst) -> Option<String> {
    let mut reference = machine.clone();
    let mut actual = machine;
    exec(&mut actual, &inst);
    reference::exec(&mut reference.state, &mut reference.mem, &inst);
    actual.diff(&reference).map(|d| format!("{inst:?}: {d}"))
}

/// The panic message of `f`, if it panics.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
    let text = payload.downcast_ref::<String>().cloned();
    Some(text.unwrap_or_else(|| payload.downcast_ref::<&str>().unwrap_or(&"").to_string()))
}

/// Both executors panic on `inst` in `machine`, with messages containing
/// `expected`.
fn assert_both_panic(machine: &Machine, inst: Inst, expected: &str) {
    let (mut actual, mut reference) = (machine.clone(), machine.clone());
    let got = panic_message(|| exec(&mut actual, &inst));
    let want = panic_message(|| reference::exec(&mut reference.state, &mut reference.mem, &inst));
    for (who, message) in [("exec", got), ("reference", want)] {
        let message = message.unwrap_or_else(|| panic!("{who} did not panic on {inst:?}"));
        assert!(
            message.contains(expected),
            "{who} on {inst:?}: {message:?} lacks {expected:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn outer_products_match_the_element_wise_reference(seed in any::<u64>(), kind in 0u8..6) {
        let mut g = Gen(seed);
        let (tile, pn, pm, zn, zm) = (g.below(8) as u8, g.p(), g.p(), g.z(), g.z());
        let inst = match kind {
            0 => SmeInst::Fmopa { tile: tile % 4, elem: ElementType::F32, pn, pm, zn, zm },
            1 => SmeInst::Fmopa { tile, elem: ElementType::F64, pn, pm, zn, zm },
            2 => SmeInst::FmopaWide { tile: tile % 4, from: ElementType::BF16, pn, pm, zn, zm },
            3 => SmeInst::FmopaWide { tile: tile % 4, from: ElementType::F16, pn, pm, zn, zm },
            4 => SmeInst::Smopa { tile: tile % 4, from: ElementType::I8, pn, pm, zn, zm },
            _ => SmeInst::Smopa { tile: tile % 4, from: ElementType::I16, pn, pm, zn, zm },
        };
        let machine = Machine::random(&mut g);
        let diff = compare(machine, Inst::Sme(inst));
        prop_assert!(diff.is_none(), "{}", diff.unwrap_or_default());
    }

    #[test]
    fn tile_moves_match_the_element_wise_reference(seed in any::<u64>(), to_tile in any::<bool>()) {
        let mut g = Gen(seed);
        let elem = g.pick(&WIDTHS);
        let tile = ZaTile::new(g.below(elem.num_tiles() as u64) as u8, elem);
        let dir = g.pick(&[TileSliceDir::Horizontal, TileSliceDir::Vertical]);
        let (rs, offset, zt, count) = (g.x(), g.below(16) as u8, g.z(), g.pick(&[1u8, 2, 4]));
        let inst = if to_tile {
            SmeInst::MovaToTile { tile, dir, rs, offset, zt, count }
        } else {
            SmeInst::MovaFromTile { tile, dir, rs, offset, zt, count }
        };
        let machine = Machine::random(&mut g);
        let diff = compare(machine, Inst::Sme(inst));
        prop_assert!(diff.is_none(), "{}", diff.unwrap_or_default());
    }

    #[test]
    fn sve_loads_and_stores_match_the_element_wise_reference(seed in any::<u64>(), kind in 0u8..6) {
        let mut g = Gen(seed);
        let (zt, elem, pg, pn, rn) = (g.z(), g.pick(&WIDTHS), g.p(), g.pn(), g.x());
        let (imm_vl, count) = (g.below(16) as i8 - 8, g.pick(&[2u8, 4]));
        // Multi-vector offsets scale by the group: keep them to ±2 groups.
        let multi_vl = imm_vl.clamp(-2, 1);
        let inst = match kind {
            0 => SveInst::Ld1 { zt, elem, pg, rn, imm_vl },
            1 => SveInst::St1 { zt, elem, pg, rn, imm_vl },
            2 => SveInst::Ld1Multi { zt, count, elem, pn, rn, imm_vl: multi_vl },
            3 => SveInst::St1Multi { zt, count, elem, pn, rn, imm_vl: multi_vl },
            4 => SveInst::LdrZ { zt, rn, imm_vl: imm_vl as i16 },
            _ => SveInst::StrZ { zt, rn, imm_vl: imm_vl as i16 },
        };
        let mut machine = Machine::random(&mut g);
        // Any alignment, at least 512 bytes from either end of the region.
        let offset = 1536 + g.below(1024);
        machine.address(rn, offset);
        let diff = compare(machine, Inst::Sve(inst));
        prop_assert!(diff.is_none(), "{}", diff.unwrap_or_default());
    }

    #[test]
    fn neon_arithmetic_matches_the_element_wise_reference(seed in any::<u64>(), kind in 0u8..3) {
        let mut g = Gen(seed);
        let (vd, vn, vm) = (g.v(), g.v(), g.v());
        let arrangement = g.pick(&[NeonArrangement::S4, NeonArrangement::D2, NeonArrangement::H8]);
        let lanes = match arrangement {
            NeonArrangement::S4 => 4,
            NeonArrangement::D2 => 2,
            _ => 8,
        };
        let inst = match kind {
            0 => NeonInst::FmlaVec { vd, vn, vm, arrangement },
            1 => NeonInst::FmlaElem { vd, vn, vm, index: g.below(lanes) as u8, arrangement },
            _ => NeonInst::Bfmmla { vd, vn, vm },
        };
        let machine = Machine::random(&mut g);
        let diff = compare(machine, Inst::Neon(inst));
        prop_assert!(diff.is_none(), "{}", diff.unwrap_or_default());
    }
}

fn full_predicates(seed: u64) -> Machine {
    let mut machine = Machine::random(&mut Gen(seed));
    machine.state.set_p_all(PReg::new(0), true);
    machine.state.set_p_all(PReg::new(1), false);
    machine
}

#[test]
fn out_of_range_tiles_panic_like_the_reference() {
    let machine = full_predicates(1);
    let (p0, z0, z1) = (PReg::new(0), ZReg::new(0), ZReg::new(1));
    let outer = |tile, elem| SmeInst::Fmopa {
        tile,
        elem,
        pn: p0,
        pm: p0,
        zn: z0,
        zm: z1,
    };
    assert_both_panic(
        &machine,
        Inst::Sme(outer(4, ElementType::F32)),
        "tile index 4 out of range for fp32",
    );
    assert_both_panic(
        &machine,
        Inst::Sme(outer(8, ElementType::F64)),
        "tile index 8 out of range for fp64",
    );
    let widening = SmeInst::FmopaWide {
        tile: 5,
        from: ElementType::BF16,
        pn: p0,
        pm: p0,
        zn: z0,
        zm: z1,
    };
    assert_both_panic(
        &machine,
        Inst::Sme(widening),
        "tile index 5 out of range for fp32",
    );
    let integer = SmeInst::Smopa {
        tile: 4,
        from: ElementType::I8,
        pn: p0,
        pm: p0,
        zn: z0,
        zm: z1,
    };
    assert_both_panic(
        &machine,
        Inst::Sme(integer),
        "tile index 4 out of range for i32",
    );
    // With no active column neither executor touches, or checks, the tile.
    let masked = SmeInst::Fmopa {
        tile: 4,
        elem: ElementType::F32,
        pn: p0,
        pm: PReg::new(1),
        zn: z0,
        zm: z1,
    };
    assert_eq!(compare(machine.clone(), Inst::Sme(masked)), None);

    let bad_tile = ZaTile {
        index: 4,
        elem: ElementType::F32,
    };
    for dir in [TileSliceDir::Horizontal, TileSliceDir::Vertical] {
        let (rs, offset, zt, count) = (XReg::new(12), 0, z0, 2);
        let moves = [
            SmeInst::MovaToTile {
                tile: bad_tile,
                dir,
                rs,
                offset,
                zt,
                count,
            },
            SmeInst::MovaFromTile {
                tile: bad_tile,
                dir,
                rs,
                offset,
                zt,
                count,
            },
        ];
        for inst in moves {
            assert_both_panic(
                &machine,
                Inst::Sme(inst),
                "tile index 4 out of range for fp32",
            );
        }
    }
}

#[test]
fn out_of_range_za_vectors_panic() {
    let mut state = CoreState::new(StreamingVectorLength::M4);
    let expected = "ZA array vector index 64 out of range";
    let messages = [
        panic_message(|| {
            state.za_vector(64);
        }),
        panic_message(|| state.set_za_vector(64, &[0; 64])),
    ];
    for message in messages {
        let message = message.expect("an out-of-range ZA vector panics");
        assert!(message.contains(expected), "{message:?}");
    }
}

#[test]
fn out_of_bounds_memory_panics_like_the_reference() {
    let mut machine = full_predicates(2);
    let (z0, p0, x0) = (ZReg::new(0), PReg::new(0), XReg::new(0));
    let elem = ElementType::F32;
    let pn = PnReg::new(8);
    machine.state.set_pn_count(pn, u64::MAX);
    // The last 32 bytes of backed memory: a 64-byte access runs off the end.
    machine.address(x0, REGION as u64 - 32);
    let loads = [
        SveInst::Ld1 {
            zt: z0,
            elem,
            pg: p0,
            rn: x0,
            imm_vl: 0,
        },
        SveInst::Ld1Multi {
            zt: z0,
            count: 2,
            elem,
            pn,
            rn: x0,
            imm_vl: 0,
        },
        SveInst::LdrZ {
            zt: z0,
            rn: x0,
            imm_vl: 0,
        },
    ];
    for inst in loads {
        assert_both_panic(&machine, Inst::Sve(inst), "is out of bounds");
    }
    let stores = [
        SveInst::St1 {
            zt: z0,
            elem,
            pg: p0,
            rn: x0,
            imm_vl: 0,
        },
        SveInst::St1Multi {
            zt: z0,
            count: 4,
            elem,
            pn,
            rn: x0,
            imm_vl: 0,
        },
        SveInst::StrZ {
            zt: z0,
            rn: x0,
            imm_vl: 0,
        },
    ];
    for inst in stores {
        assert_both_panic(&machine, Inst::Sve(inst), "outside any allocation");
    }
    // Below the heap base every access traps.
    machine.state.set_x(x0, 0x100);
    assert_both_panic(
        &machine,
        Inst::Sve(loads[2]),
        "simulated access to unmapped low address",
    );
    // Masked lanes are not accessed: eight active lanes stay in bounds.
    machine.address(x0, REGION as u64 - 32);
    machine.state.set_p_first(p0, elem, 8);
    machine.state.set_pn_count(pn, 8);
    for inst in [loads[0], loads[1], stores[0], stores[1]] {
        assert_eq!(compare(machine.clone(), Inst::Sve(inst)), None);
    }
}

/// The element-wise definitions: every lane, element and tile cell read
/// and written one at a time, exactly as the simulator first defined them.
mod reference {
    use super::*;
    use sme_machine::exec::fp::{bf16_to_f32, f16_to_f32, f32_to_f16};

    pub fn exec(state: &mut CoreState, mem: &mut Memory, inst: &Inst) {
        match inst {
            Inst::Sme(i) => sme(state, i),
            Inst::Sve(i) => sve(state, mem, i),
            Inst::Neon(i) => neon(state, i),
            Inst::Scalar(_) => unreachable!("no scalar instruction is drawn"),
        }
    }

    // ---- tile elements ------------------------------------------------

    fn tile_dim(state: &CoreState, elem: ElementType) -> usize {
        state.vl_bytes() / elem.bytes() as usize
    }

    fn za_elem_offset(
        state: &CoreState,
        tile: u8,
        elem: ElementType,
        row: usize,
        col: usize,
    ) -> usize {
        let esz = elem.bytes() as usize;
        let dim = state.vl_bytes() / esz;
        assert!(col < dim, "tile column {col} out of range for {elem}");
        let vec_idx = state.za_tile_row_vector(tile, elem, row);
        vec_idx * state.vl_bytes() + col * esz
    }

    fn set_za_bytes(state: &mut CoreState, offset: usize, bytes: &[u8]) {
        let vl = state.vl_bytes();
        let mut vector = state.za_vector(offset / vl).to_vec();
        vector[offset % vl..offset % vl + bytes.len()].copy_from_slice(bytes);
        state.set_za_vector(offset / vl, &vector);
    }

    fn za_elem<const N: usize>(
        state: &CoreState,
        tile: u8,
        elem: ElementType,
        row: usize,
        col: usize,
    ) -> [u8; N] {
        let off = za_elem_offset(state, tile, elem, row, col);
        state.za()[off..off + N].try_into().unwrap()
    }

    fn set_za_elem(
        state: &mut CoreState,
        tile: u8,
        elem: ElementType,
        row: usize,
        col: usize,
        bytes: &[u8],
    ) {
        let off = za_elem_offset(state, tile, elem, row, col);
        set_za_bytes(state, off, bytes);
    }

    // ---- register lanes -----------------------------------------------

    fn z_f32_lane(state: &CoreState, r: ZReg, lane: usize) -> f32 {
        f32::from_le_bytes(state.z(r)[lane * 4..lane * 4 + 4].try_into().unwrap())
    }

    fn z_f64_lane(state: &CoreState, r: ZReg, lane: usize) -> f64 {
        f64::from_le_bytes(state.z(r)[lane * 8..lane * 8 + 8].try_into().unwrap())
    }

    fn z_u16_lane(state: &CoreState, r: ZReg, lane: usize) -> u16 {
        u16::from_le_bytes(state.z(r)[lane * 2..lane * 2 + 2].try_into().unwrap())
    }

    fn z_i8_lane(state: &CoreState, r: ZReg, lane: usize) -> i8 {
        state.z(r)[lane] as i8
    }

    fn z_i16_lane(state: &CoreState, r: ZReg, lane: usize) -> i16 {
        i16::from_le_bytes(state.z(r)[lane * 2..lane * 2 + 2].try_into().unwrap())
    }

    // ---- SME ----------------------------------------------------------

    fn sme(state: &mut CoreState, inst: &SmeInst) {
        match *inst {
            SmeInst::Fmopa {
                tile,
                elem,
                pn,
                pm,
                zn,
                zm,
            } => match elem {
                ElementType::F64 => {
                    let e = ElementType::F64;
                    let dim = tile_dim(state, e);
                    for r in 0..dim {
                        if !state.p_lane(pn, e, r) {
                            continue;
                        }
                        let a = z_f64_lane(state, zn, r);
                        for c in 0..dim {
                            if !state.p_lane(pm, e, c) {
                                continue;
                            }
                            let b = z_f64_lane(state, zm, c);
                            let cur = f64::from_le_bytes(za_elem(state, tile, e, r, c));
                            set_za_elem(state, tile, e, r, c, &(cur + a * b).to_le_bytes());
                        }
                    }
                }
                _ => {
                    let e = ElementType::F32;
                    let dim = tile_dim(state, e);
                    for r in 0..dim {
                        if !state.p_lane(pn, e, r) {
                            continue;
                        }
                        let a = z_f32_lane(state, zn, r);
                        for c in 0..dim {
                            if !state.p_lane(pm, e, c) {
                                continue;
                            }
                            let b = z_f32_lane(state, zm, c);
                            let cur = f32::from_le_bytes(za_elem(state, tile, e, r, c));
                            set_za_elem(state, tile, e, r, c, &(cur + a * b).to_le_bytes());
                        }
                    }
                }
            },
            SmeInst::FmopaWide {
                tile,
                from,
                pn,
                pm,
                zn,
                zm,
            } => {
                let e = ElementType::F32;
                let dim = tile_dim(state, e);
                let convert = |bits: u16| -> f32 {
                    if from == ElementType::BF16 {
                        bf16_to_f32(bits)
                    } else {
                        f16_to_f32(bits)
                    }
                };
                for r in 0..dim {
                    if !state.p_lane(pn, e, r) {
                        continue;
                    }
                    for c in 0..dim {
                        if !state.p_lane(pm, e, c) {
                            continue;
                        }
                        let mut acc = f32::from_le_bytes(za_elem(state, tile, e, r, c));
                        for i in 0..2 {
                            let a = convert(z_u16_lane(state, zn, 2 * r + i));
                            let b = convert(z_u16_lane(state, zm, 2 * c + i));
                            acc += a * b;
                        }
                        set_za_elem(state, tile, e, r, c, &acc.to_le_bytes());
                    }
                }
            }
            SmeInst::Smopa {
                tile,
                from,
                pn,
                pm,
                zn,
                zm,
            } => {
                let e = ElementType::I32;
                let dim = tile_dim(state, e);
                let way = if from == ElementType::I8 { 4 } else { 2 };
                for r in 0..dim {
                    if !state.p_lane(pn, e, r) {
                        continue;
                    }
                    for c in 0..dim {
                        if !state.p_lane(pm, e, c) {
                            continue;
                        }
                        let mut acc = i32::from_le_bytes(za_elem(state, tile, e, r, c));
                        for i in 0..way {
                            let (a, b) = if from == ElementType::I8 {
                                (
                                    z_i8_lane(state, zn, way * r + i) as i32,
                                    z_i8_lane(state, zm, way * c + i) as i32,
                                )
                            } else {
                                (
                                    z_i16_lane(state, zn, way * r + i) as i32,
                                    z_i16_lane(state, zm, way * c + i) as i32,
                                )
                            };
                            acc = acc.wrapping_add(a.wrapping_mul(b));
                        }
                        set_za_elem(state, tile, e, r, c, &acc.to_le_bytes());
                    }
                }
            }
            SmeInst::MovaToTile {
                tile,
                dir,
                rs,
                offset,
                zt,
                count,
            } => {
                let esz = tile.elem.bytes() as usize;
                let dim = tile_dim(state, tile.elem);
                let base_slice = (state.x(rs) as usize + offset as usize) % dim;
                for k in 0..count as usize {
                    let slice = (base_slice + k) % dim;
                    let data = state.z(zt.offset(k as u8)).to_vec();
                    match dir {
                        TileSliceDir::Horizontal => {
                            let vec_idx = state.za_tile_row_vector(tile.index, tile.elem, slice);
                            state.set_za_vector(vec_idx, &data);
                        }
                        TileSliceDir::Vertical => {
                            for r in 0..dim {
                                let off = za_elem_offset(state, tile.index, tile.elem, r, slice);
                                set_za_bytes(state, off, &data[r * esz..r * esz + esz]);
                            }
                        }
                    }
                }
            }
            SmeInst::MovaFromTile {
                tile,
                dir,
                rs,
                offset,
                zt,
                count,
            } => {
                let esz = tile.elem.bytes() as usize;
                let dim = tile_dim(state, tile.elem);
                let base_slice = (state.x(rs) as usize + offset as usize) % dim;
                for k in 0..count as usize {
                    let slice = (base_slice + k) % dim;
                    let mut data = vec![0u8; state.vl_bytes()];
                    match dir {
                        TileSliceDir::Horizontal => {
                            let vec_idx = state.za_tile_row_vector(tile.index, tile.elem, slice);
                            data.copy_from_slice(state.za_vector(vec_idx));
                        }
                        TileSliceDir::Vertical => {
                            for r in 0..dim {
                                let off = za_elem_offset(state, tile.index, tile.elem, r, slice);
                                data[r * esz..r * esz + esz]
                                    .copy_from_slice(&state.za()[off..off + esz]);
                            }
                        }
                    }
                    state.set_z(zt.offset(k as u8), &data);
                }
            }
            other => unreachable!("no reference for {other:?}"),
        }
    }

    // ---- SVE ----------------------------------------------------------

    fn load_vector(
        state: &mut CoreState,
        mem: &Memory,
        zt: ZReg,
        pg: Option<PReg>,
        elem: ElementType,
        addr: u64,
    ) {
        let eb = elem.bytes() as usize;
        let lanes = tile_dim(state, elem);
        let mut bytes = vec![0u8; state.vl_bytes()];
        for lane in 0..lanes {
            if pg.is_none_or(|p| state.p_lane(p, elem, lane)) {
                let src = mem.read_bytes(addr + (lane * eb) as u64, eb);
                bytes[lane * eb..lane * eb + eb].copy_from_slice(src);
            }
        }
        state.set_z(zt, &bytes);
    }

    fn store_vector(
        state: &CoreState,
        mem: &mut Memory,
        zt: ZReg,
        pg: Option<PReg>,
        elem: ElementType,
        addr: u64,
    ) {
        let eb = elem.bytes() as usize;
        let lanes = tile_dim(state, elem);
        let data = state.z(zt).to_vec();
        for lane in 0..lanes {
            if pg.is_none_or(|p| state.p_lane(p, elem, lane)) {
                mem.write_bytes(addr + (lane * eb) as u64, &data[lane * eb..lane * eb + eb]);
            }
        }
    }

    fn sve(state: &mut CoreState, mem: &mut Memory, inst: &SveInst) {
        let vl = state.vl_bytes() as i64;
        let addr = |state: &CoreState, rn: XReg, imm: i64, unit: i64| {
            (state.x(rn) as i64 + imm * unit) as u64
        };
        match *inst {
            SveInst::Ld1 {
                zt,
                elem,
                pg,
                rn,
                imm_vl,
            } => {
                let a = addr(state, rn, imm_vl as i64, vl);
                load_vector(state, mem, zt, Some(pg), elem, a);
            }
            SveInst::St1 {
                zt,
                elem,
                pg,
                rn,
                imm_vl,
            } => {
                let a = addr(state, rn, imm_vl as i64, vl);
                store_vector(state, mem, zt, Some(pg), elem, a);
            }
            SveInst::Ld1Multi {
                zt,
                count,
                elem,
                pn,
                rn,
                imm_vl,
            } => {
                let eb = elem.bytes() as usize;
                let lanes = tile_dim(state, elem);
                let active = state.pn_count(pn).min((count as u64) * lanes as u64) as usize;
                let base = addr(state, rn, imm_vl as i64, vl * count as i64);
                for k in 0..count {
                    let mut bytes = vec![0u8; state.vl_bytes()];
                    for lane in 0..lanes {
                        let global = k as usize * lanes + lane;
                        if global < active {
                            let src = mem.read_bytes(base + (global * eb) as u64, eb);
                            bytes[lane * eb..lane * eb + eb].copy_from_slice(src);
                        }
                    }
                    state.set_z(zt.offset(k), &bytes);
                }
            }
            SveInst::St1Multi {
                zt,
                count,
                elem,
                pn,
                rn,
                imm_vl,
            } => {
                let eb = elem.bytes() as usize;
                let lanes = tile_dim(state, elem);
                let active = state.pn_count(pn).min((count as u64) * lanes as u64) as usize;
                let base = addr(state, rn, imm_vl as i64, vl * count as i64);
                for k in 0..count {
                    let data = state.z(zt.offset(k)).to_vec();
                    for lane in 0..lanes {
                        let global = k as usize * lanes + lane;
                        if global < active {
                            let dst = base + (global * eb) as u64;
                            mem.write_bytes(dst, &data[lane * eb..lane * eb + eb]);
                        }
                    }
                }
            }
            SveInst::LdrZ { zt, rn, imm_vl } => {
                let a = addr(state, rn, imm_vl as i64, vl);
                load_vector(state, mem, zt, None, ElementType::I8, a);
            }
            SveInst::StrZ { zt, rn, imm_vl } => {
                let a = addr(state, rn, imm_vl as i64, vl);
                store_vector(state, mem, zt, None, ElementType::I8, a);
            }
            other => unreachable!("no reference for {other:?}"),
        }
    }

    // ---- Neon ---------------------------------------------------------

    fn read_f64x2(state: &CoreState, r: VReg) -> [f64; 2] {
        let b = state.v(r);
        [
            f64::from_le_bytes(b[0..8].try_into().unwrap()),
            f64::from_le_bytes(b[8..16].try_into().unwrap()),
        ]
    }

    fn write_f64x2(state: &mut CoreState, r: VReg, lanes: [f64; 2]) {
        let mut b = [0u8; 16];
        b[0..8].copy_from_slice(&lanes[0].to_le_bytes());
        b[8..16].copy_from_slice(&lanes[1].to_le_bytes());
        state.set_v(r, b);
    }

    fn read_16x8(state: &CoreState, r: VReg, convert: fn(u16) -> f32) -> [f32; 8] {
        let b = state.v(r);
        let mut out = [0f32; 8];
        for (i, c) in b.chunks_exact(2).enumerate() {
            out[i] = convert(u16::from_le_bytes([c[0], c[1]]));
        }
        out
    }

    fn write_f16x8(state: &mut CoreState, r: VReg, lanes: [f32; 8]) {
        let mut b = [0u8; 16];
        for (i, v) in lanes.iter().enumerate() {
            b[i * 2..i * 2 + 2].copy_from_slice(&f32_to_f16(*v).to_le_bytes());
        }
        state.set_v(r, b);
    }

    /// The by-lane FMLA: `vm` is read through a per-lane closure returning
    /// `f64`, converted down for the FP32 and FP16 arrangements.
    fn fmla_lanes(
        state: &mut CoreState,
        vd: VReg,
        vn: VReg,
        vm_lane: &dyn Fn(usize) -> f64,
        arr: NeonArrangement,
    ) {
        match arr {
            NeonArrangement::S4 => {
                let mut d = state.v_f32(vd);
                let n = state.v_f32(vn);
                for i in 0..4 {
                    d[i] += n[i] * vm_lane(i) as f32;
                }
                state.set_v_f32(vd, d);
            }
            NeonArrangement::D2 => {
                let mut d = read_f64x2(state, vd);
                let n = read_f64x2(state, vn);
                for i in 0..2 {
                    d[i] += n[i] * vm_lane(i);
                }
                write_f64x2(state, vd, d);
            }
            NeonArrangement::H8 => {
                let mut d = read_16x8(state, vd, f16_to_f32);
                let n = read_16x8(state, vn, f16_to_f32);
                for i in 0..8 {
                    d[i] += n[i] * vm_lane(i) as f32;
                }
                write_f16x8(state, vd, d);
            }
            NeonArrangement::B16 => panic!("byte-lane FMLA is not a valid instruction"),
        }
    }

    fn neon(state: &mut CoreState, inst: &NeonInst) {
        let vm_views = |state: &CoreState, vm: VReg| {
            (
                state.v_f32(vm),
                read_f64x2(state, vm),
                read_16x8(state, vm, f16_to_f32),
            )
        };
        match *inst {
            NeonInst::FmlaVec {
                vd,
                vn,
                vm,
                arrangement,
            } => {
                let (m32, m64, m16) = vm_views(state, vm);
                let lane = move |i: usize| -> f64 {
                    match arrangement {
                        NeonArrangement::S4 => m32[i] as f64,
                        NeonArrangement::D2 => m64[i],
                        NeonArrangement::H8 => m16[i] as f64,
                        NeonArrangement::B16 => 0.0,
                    }
                };
                fmla_lanes(state, vd, vn, &lane, arrangement);
            }
            NeonInst::FmlaElem {
                vd,
                vn,
                vm,
                index,
                arrangement,
            } => {
                let (m32, m64, m16) = vm_views(state, vm);
                let lane = move |_i: usize| -> f64 {
                    match arrangement {
                        NeonArrangement::S4 => m32[index as usize] as f64,
                        NeonArrangement::D2 => m64[index as usize],
                        NeonArrangement::H8 => m16[index as usize] as f64,
                        NeonArrangement::B16 => 0.0,
                    }
                };
                fmla_lanes(state, vd, vn, &lane, arrangement);
            }
            NeonInst::Bfmmla { vd, vn, vm } => {
                let a = read_16x8(state, vn, bf16_to_f32);
                let b = read_16x8(state, vm, bf16_to_f32);
                let mut c = state.v_f32(vd);
                for i in 0..2 {
                    for j in 0..2 {
                        let mut acc = 0f32;
                        for k in 0..4 {
                            acc += a[i * 4 + k] * b[j * 4 + k];
                        }
                        c[i * 2 + j] += acc;
                    }
                }
                state.set_v_f32(vd, c);
            }
            other => unreachable!("no reference for {other:?}"),
        }
    }
}
