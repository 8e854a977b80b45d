//! Functional semantics of the SME / SME2 instructions.
//!
//! The outer products update the ZA array one tile row at a time: the
//! source lanes and predicates are decoded once per instruction, the tile
//! index is checked once, and the tile's rows are walked by stride. Every
//! sum keeps the element-wise definition's unfused form and order
//! (`cur + a * b`; for the widening forms `acc += a0 * b0; acc += a1 * b1`),
//! so the results are the same to the bit.

use crate::exec::fp::{bf16_to_f32, f16_to_f32};
use crate::exec::MAX_VL_BYTES;
use crate::mem::Memory;
use crate::state::CoreState;
use sme_isa::inst::sme::SmeInst;
use sme_isa::regs::{PReg, TileSliceDir, ZReg};
use sme_isa::types::ElementType;

/// Rows (= columns) of the largest tile an outer product writes: 32-bit
/// elements at the largest vector length.
const MAX_TILE_DIM: usize = MAX_VL_BYTES / 4;

fn tile_dim(state: &CoreState, elem: ElementType) -> usize {
    state.vl_bytes() / elem.bytes() as usize
}

/// Read lane `i` of a Z register as `f32`, interpreting pairs of 16-bit
/// inputs for the widening forms.
fn z_f32_lane(state: &CoreState, r: ZReg, lane: usize) -> f32 {
    let bytes = state.z(r);
    f32::from_le_bytes(bytes[lane * 4..lane * 4 + 4].try_into().unwrap())
}

fn z_f64_lane(state: &CoreState, r: ZReg, lane: usize) -> f64 {
    let bytes = state.z(r);
    f64::from_le_bytes(bytes[lane * 8..lane * 8 + 8].try_into().unwrap())
}

/// The ZA array-vector index selected by `[w<s>, offset]` addressing.
fn za_vector_index(state: &CoreState, rs: sme_isa::regs::XReg, offset: u8) -> usize {
    let dim = state.vl_bytes();
    ((state.x(rs) as usize) + offset as usize) % dim
}

/// Which tile rows (or columns) predicate `p` leaves active for elements of
/// type `elem`.
fn active_lanes(state: &CoreState, p: PReg, elem: ElementType) -> [bool; MAX_TILE_DIM] {
    let mut lanes = [false; MAX_TILE_DIM];
    let pred = state.p(p).iter().step_by(elem.bytes() as usize);
    for (lane, &on) in lanes.iter_mut().zip(pred) {
        *lane = on;
    }
    lanes
}

/// Decode register `r`, `N` bytes at a time, into `out` (which must hold
/// at least one value per `N` bytes).
fn decode_lanes<T, const N: usize>(
    state: &CoreState,
    r: ZReg,
    out: &mut [T],
    decode: impl Fn([u8; N]) -> T,
) {
    for (value, bytes) in out.iter_mut().zip(state.z(r).chunks_exact(N)) {
        *value = decode(bytes.try_into().expect("N-byte lane"));
    }
}

/// Set element (`r`, `c`) of tile `tile` (`N`-byte elements of type
/// `elem`) to `update(element, &a[r], &b[c])` for every row `r` active in
/// `pn` and column `c` active in `pm`, one ZA row at a time. Nothing is
/// touched, and the tile index not checked, unless some row and some
/// column are active.
fn outer_product<const N: usize, A, B>(
    state: &mut CoreState,
    tile: u8,
    elem: ElementType,
    (pn, pm): (PReg, PReg),
    (a, b): (&[A], &[B]),
    update: impl Fn([u8; N], &A, &B) -> [u8; N],
) {
    let dim = tile_dim(state, elem);
    let rows = active_lanes(state, pn, elem);
    let cols = active_lanes(state, pm, elem);
    if !rows[..dim].contains(&true) || !cols[..dim].contains(&true) {
        return;
    }
    for ((row, a), _) in state
        .za_tile_rows_mut(tile, elem)
        .zip(a)
        .zip(rows)
        .filter(|&(_, on)| on)
    {
        // Every cell of the row is computed and an inactive column keeps its
        // old value: a select rather than a branch, which vectorizes.
        let (cells, _) = row.as_chunks_mut::<N>();
        for ((cell, &on), b) in cells.iter_mut().zip(&cols).zip(b) {
            let new = update(*cell, a, b);
            *cell = if on { new } else { *cell };
        }
    }
}

/// Execute one SME instruction.
pub fn exec(state: &mut CoreState, mem: &mut Memory, inst: &SmeInst) {
    match *inst {
        SmeInst::Smstart { za_only } => {
            if !za_only {
                state.streaming = true;
            }
            state.za_enabled = true;
        }
        SmeInst::Smstop { za_only } => {
            if !za_only {
                state.streaming = false;
            }
            state.za_enabled = false;
        }
        SmeInst::Fmopa {
            tile,
            elem,
            pn,
            pm,
            zn,
            zm,
        } => match elem {
            ElementType::F64 => {
                let (mut a, mut b) = ([0f64; MAX_TILE_DIM / 2], [0f64; MAX_TILE_DIM / 2]);
                decode_lanes(state, zn, &mut a, f64::from_le_bytes);
                decode_lanes(state, zm, &mut b, f64::from_le_bytes);
                let fma = |cur, a: &f64, b: &f64| (f64::from_le_bytes(cur) + a * b).to_le_bytes();
                outer_product(state, tile, elem, (pn, pm), (&a, &b), fma);
            }
            _ => {
                let (mut a, mut b) = ([0f32; MAX_TILE_DIM], [0f32; MAX_TILE_DIM]);
                decode_lanes(state, zn, &mut a, f32::from_le_bytes);
                decode_lanes(state, zm, &mut b, f32::from_le_bytes);
                let fma = |cur, a: &f32, b: &f32| (f32::from_le_bytes(cur) + a * b).to_le_bytes();
                outer_product(state, tile, ElementType::F32, (pn, pm), (&a, &b), fma);
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
            // Widening 2-way sum of outer products into an FP32 tile:
            // ZA[r][c] += sum_i a[2r+i] * b[2c+i].
            let convert = if from == ElementType::BF16 {
                bf16_to_f32
            } else {
                f16_to_f32
            };
            let halves = |[l0, l1, h0, h1]: [u8; 4]| {
                [u16::from_le_bytes([l0, l1]), u16::from_le_bytes([h0, h1])].map(convert)
            };
            let (mut a, mut b) = ([[0f32; 2]; MAX_TILE_DIM], [[0f32; 2]; MAX_TILE_DIM]);
            decode_lanes(state, zn, &mut a, halves);
            decode_lanes(state, zm, &mut b, halves);
            let dot2 = |cur, a: &[f32; 2], b: &[f32; 2]| {
                let mut acc = f32::from_le_bytes(cur);
                for i in 0..2 {
                    acc += a[i] * b[i];
                }
                acc.to_le_bytes()
            };
            outer_product(state, tile, ElementType::F32, (pn, pm), (&a, &b), dot2);
        }
        SmeInst::Smopa {
            tile,
            from,
            pn,
            pm,
            zn,
            zm,
        } => {
            // Integer 4-way (I8) or 2-way (I16) sum of outer products into
            // an I32 tile.
            fn dot<const W: usize>(cur: [u8; 4], a: &[i32; W], b: &[i32; W]) -> [u8; 4] {
                let mut acc = i32::from_le_bytes(cur);
                for i in 0..W {
                    acc = acc.wrapping_add(a[i].wrapping_mul(b[i]));
                }
                acc.to_le_bytes()
            }
            let preds = (pn, pm);
            if from == ElementType::I8 {
                let quad = |bytes: [u8; 4]| bytes.map(|v| v as i8 as i32);
                let (mut a, mut b) = ([[0i32; 4]; MAX_TILE_DIM], [[0i32; 4]; MAX_TILE_DIM]);
                decode_lanes(state, zn, &mut a, quad);
                decode_lanes(state, zm, &mut b, quad);
                outer_product(state, tile, ElementType::I32, preds, (&a, &b), dot::<4>);
            } else {
                let halves = |[l0, l1, h0, h1]: [u8; 4]| {
                    [i16::from_le_bytes([l0, l1]), i16::from_le_bytes([h0, h1])].map(i32::from)
                };
                let (mut a, mut b) = ([[0i32; 2]; MAX_TILE_DIM], [[0i32; 2]; MAX_TILE_DIM]);
                decode_lanes(state, zn, &mut a, halves);
                decode_lanes(state, zm, &mut b, halves);
                outer_product(state, tile, ElementType::I32, preds, (&a, &b), dot::<2>);
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
            let mut buffer = [0u8; MAX_VL_BYTES];
            let data = &mut buffer[..state.vl_bytes()];
            for k in 0..count as usize {
                let slice = (base_slice + k) % dim;
                data.copy_from_slice(state.z(zt.offset(k as u8)));
                match dir {
                    TileSliceDir::Horizontal => {
                        let vec_idx = state.za_tile_row_vector(tile.index, tile.elem, slice);
                        state.set_za_vector(vec_idx, data);
                    }
                    TileSliceDir::Vertical => {
                        // Element r of the source vector becomes tile
                        // element (r, slice).
                        let rows = state.za_tile_rows_mut(tile.index, tile.elem);
                        for (row, src) in rows.zip(data.chunks_exact(esz)) {
                            row[slice * esz..][..esz].copy_from_slice(src);
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
            let mut buffer = [0u8; MAX_VL_BYTES];
            let data = &mut buffer[..state.vl_bytes()];
            for k in 0..count as usize {
                let slice = (base_slice + k) % dim;
                match dir {
                    TileSliceDir::Horizontal => {
                        let vec_idx = state.za_tile_row_vector(tile.index, tile.elem, slice);
                        data.copy_from_slice(state.za_vector(vec_idx));
                    }
                    TileSliceDir::Vertical => {
                        let rows = state.za_tile_rows(tile.index, tile.elem);
                        for (row, dst) in rows.zip(data.chunks_exact_mut(esz)) {
                            dst.copy_from_slice(&row[slice * esz..][..esz]);
                        }
                    }
                }
                state.set_z(zt.offset(k as u8), data);
            }
        }
        SmeInst::LdrZa { rs, offset, rn } => {
            let idx = za_vector_index(state, rs, offset);
            let addr = state.x(rn) + offset as u64 * state.vl_bytes() as u64;
            state.set_za_vector(idx, mem.read_bytes(addr, state.vl_bytes()));
        }
        SmeInst::StrZa { rs, offset, rn } => {
            let idx = za_vector_index(state, rs, offset);
            let addr = state.x(rn) + offset as u64 * state.vl_bytes() as u64;
            mem.write_bytes(addr, state.za_vector(idx));
        }
        SmeInst::ZeroZa { mask } => {
            for d in 0..8u8 {
                if mask & (1 << d) != 0 {
                    state.zero_za_d_tile(d);
                }
            }
        }
        SmeInst::FmlaZaVectors {
            elem,
            vgx,
            rv,
            offset,
            zn,
            zm,
        } => {
            // The ZA array is divided into `vgx` equal parts; member k of the
            // group is the vector at (w + offset) mod (dim/vgx) within part k.
            let dim = state.vl_bytes();
            let part = dim / vgx as usize;
            let sel = (state.x(rv) as usize + offset as usize) % part;
            for k in 0..vgx as usize {
                let vec_idx = k * part + sel;
                let mut vec = state.za_vector(vec_idx).to_vec();
                match elem {
                    ElementType::F64 => {
                        let lanes = state.vl_bytes() / 8;
                        for lane in 0..lanes {
                            let a = z_f64_lane(state, zn.offset(k as u8), lane);
                            let b = z_f64_lane(state, zm, lane);
                            let cur =
                                f64::from_le_bytes(vec[lane * 8..lane * 8 + 8].try_into().unwrap());
                            vec[lane * 8..lane * 8 + 8]
                                .copy_from_slice(&(cur + a * b).to_le_bytes());
                        }
                    }
                    _ => {
                        let lanes = state.vl_bytes() / 4;
                        for lane in 0..lanes {
                            let a = z_f32_lane(state, zn.offset(k as u8), lane);
                            let b = z_f32_lane(state, zm, lane);
                            let cur =
                                f32::from_le_bytes(vec[lane * 4..lane * 4 + 4].try_into().unwrap());
                            vec[lane * 4..lane * 4 + 4]
                                .copy_from_slice(&(cur + a * b).to_le_bytes());
                        }
                    }
                }
                state.set_za_vector(vec_idx, &vec);
            }
        }
    }
}

/// Set every element of each listed predicate register (test helper shared
/// with the integration suites).
pub fn p_all(state: &mut CoreState, preds: &[PReg]) {
    for p in preds {
        state.set_p_all(*p, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sme_isa::regs::short::*;
    use sme_isa::regs::ZaTile;
    use sme_isa::types::StreamingVectorLength;

    /// Element (`row`, `col`) of tile `tile` holding `N`-byte elements of
    /// type `elem`.
    fn za_elem<const N: usize>(
        s: &CoreState,
        tile: u8,
        elem: ElementType,
        row: usize,
        col: usize,
    ) -> [u8; N] {
        let vector = s.za_tile_row_vector(tile, elem, row);
        s.za_vector(vector)[col * N..][..N].try_into().unwrap()
    }

    fn za_f32(s: &CoreState, tile: u8, row: usize, col: usize) -> f32 {
        f32::from_le_bytes(za_elem(s, tile, ElementType::F32, row, col))
    }

    fn set_za_f32(s: &mut CoreState, tile: u8, row: usize, col: usize, value: f32) {
        let mut rows = s.za_tile_rows_mut(tile, ElementType::F32);
        rows.nth(row).unwrap()[col * 4..][..4].copy_from_slice(&value.to_le_bytes());
    }

    fn setup() -> (CoreState, Memory) {
        let mut s = CoreState::new(StreamingVectorLength::M4);
        p_all(&mut s, &[p(0), p(1)]);
        (s, Memory::new())
    }

    #[test]
    fn smstart_smstop_toggle_modes() {
        let (mut s, mut m) = setup();
        exec(&mut s, &mut m, &SmeInst::Smstart { za_only: false });
        assert!(s.streaming && s.za_enabled);
        exec(&mut s, &mut m, &SmeInst::Smstop { za_only: true });
        assert!(s.streaming && !s.za_enabled);
        exec(&mut s, &mut m, &SmeInst::Smstop { za_only: false });
        assert!(!s.streaming);
    }

    #[test]
    fn fmopa_f32_is_an_outer_product() {
        let (mut s, mut m) = setup();
        let a: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..16).map(|i| (i as f32) * 0.5).collect();
        s.set_z_f32(z(0), &a);
        s.set_z_f32(z(1), &b);
        exec(
            &mut s,
            &mut m,
            &SmeInst::fmopa_f32(2, p(0), p(1), z(0), z(1)),
        );
        for (r, &av) in a.iter().enumerate() {
            for (c, &bv) in b.iter().enumerate() {
                assert_eq!(za_f32(&s, 2, r, c), av * bv, "({r},{c})");
            }
        }
        // Accumulation: running it again doubles every element.
        exec(
            &mut s,
            &mut m,
            &SmeInst::fmopa_f32(2, p(0), p(1), z(0), z(1)),
        );
        assert_eq!(za_f32(&s, 2, 3, 5), 2.0 * a[3] * b[5]);
    }

    #[test]
    fn fmopa_respects_predicates() {
        let (mut s, mut m) = setup();
        s.set_z_f32(z(0), &[1.0; 16]);
        s.set_z_f32(z(1), &[1.0; 16]);
        s.set_p_first(p(2), ElementType::F32, 3); // rows
        s.set_p_first(p(3), ElementType::F32, 2); // columns
        exec(
            &mut s,
            &mut m,
            &SmeInst::fmopa_f32(0, p(2), p(3), z(0), z(1)),
        );
        assert_eq!(za_f32(&s, 0, 2, 1), 1.0);
        assert_eq!(za_f32(&s, 0, 3, 1), 0.0, "masked row");
        assert_eq!(za_f32(&s, 0, 2, 2), 0.0, "masked column");
    }

    #[test]
    fn fmopa_f64_tile() {
        let (mut s, mut m) = setup();
        let a: Vec<f64> = (0..8).map(|i| i as f64 + 1.0).collect();
        let b: Vec<f64> = (0..8).map(|i| 2.0 * i as f64).collect();
        s.set_z_f64(z(4), &a);
        s.set_z_f64(z(5), &b);
        exec(
            &mut s,
            &mut m,
            &SmeInst::fmopa_f64(7, p(0), p(1), z(4), z(5)),
        );
        assert_eq!(
            f64::from_le_bytes(za_elem(&s, 7, ElementType::F64, 2, 3)),
            3.0 * 6.0
        );
    }

    #[test]
    fn widening_bf16_outer_product() {
        let (mut s, mut m) = setup();
        // 32 BF16 values per register: element pairs (2r, 2r+1).
        let mut zn_bytes = vec![0u8; 64];
        let mut zm_bytes = vec![0u8; 64];
        for i in 0..32 {
            let a = crate::exec::fp::f32_to_bf16(1.0);
            let b = crate::exec::fp::f32_to_bf16(2.0);
            zn_bytes[i * 2..i * 2 + 2].copy_from_slice(&a.to_le_bytes());
            zm_bytes[i * 2..i * 2 + 2].copy_from_slice(&b.to_le_bytes());
        }
        s.set_z(z(0), &zn_bytes);
        s.set_z(z(1), &zm_bytes);
        exec(&mut s, &mut m, &SmeInst::bfmopa(1, p(0), p(1), z(0), z(1)));
        // Each element: sum over 2-way dot of 1.0 * 2.0 = 4.0.
        assert_eq!(za_f32(&s, 1, 5, 9), 4.0);
    }

    #[test]
    fn integer_smopa_i8() {
        let (mut s, mut m) = setup();
        let zn_bytes: Vec<u8> = (0..64u32).map(|i| (i % 5) as u8).collect();
        let zm_bytes: Vec<u8> = (0..64u32).map(|_| 2u8).collect();
        s.set_z(z(0), &zn_bytes);
        s.set_z(z(1), &zm_bytes);
        exec(
            &mut s,
            &mut m,
            &SmeInst::smopa_i8(0, p(0), p(1), z(0), z(1)),
        );
        // Row r uses a[4r..4r+4]; column c uses b[4c..4c+4] = all 2.
        let r = 3usize;
        let expected: i32 = (0..4).map(|i| ((4 * r + i) % 5) as i32 * 2).sum();
        assert_eq!(
            i32::from_le_bytes(za_elem(&s, 0, ElementType::I32, r, 7)),
            expected
        );
    }

    #[test]
    fn mova_roundtrip_transposes_via_views() {
        // The Lst. 5 idiom: write through the horizontal view, read back
        // through the vertical view — the result is the transpose.
        let (mut s, mut m) = setup();
        s.set_x(x(12), 0);
        // Fill registers z0-z15 with distinct row values.
        for r in 0..16u8 {
            let row: Vec<f32> = (0..16).map(|c| (r as f32) * 100.0 + c as f32).collect();
            s.set_z_f32(z(r), &row);
        }
        for group in 0..4u8 {
            exec(
                &mut s,
                &mut m,
                &SmeInst::MovaToTile {
                    tile: ZaTile::s(0),
                    dir: TileSliceDir::Horizontal,
                    rs: x(12),
                    offset: group * 4,
                    zt: z(group * 4),
                    count: 4,
                },
            );
        }
        for group in 0..4u8 {
            exec(
                &mut s,
                &mut m,
                &SmeInst::MovaFromTile {
                    tile: ZaTile::s(0),
                    dir: TileSliceDir::Vertical,
                    rs: x(12),
                    offset: group * 4,
                    zt: z(16 + group * 4),
                    count: 4,
                },
            );
        }
        // Register z16+c now holds column c of the original data, i.e. the
        // transposed row.
        for c in 0..16u8 {
            let col = s.z_f32(z(16 + c));
            for (r, &v) in col.iter().enumerate().take(16) {
                assert_eq!(v, (r as f32) * 100.0 + c as f32, "({r},{c})");
            }
        }
    }

    #[test]
    fn ldr_str_za_array_vectors() {
        let (mut s, mut m) = setup();
        let data: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let src = m.alloc_f32(&data, 128);
        let dst = m.alloc_f32_zeroed(32, 128);
        s.set_x(x(12), 5);
        s.set_x(x(0), src);
        s.set_x(x(1), dst);
        exec(
            &mut s,
            &mut m,
            &SmeInst::LdrZa {
                rs: x(12),
                offset: 0,
                rn: x(0),
            },
        );
        exec(
            &mut s,
            &mut m,
            &SmeInst::LdrZa {
                rs: x(12),
                offset: 1,
                rn: x(0),
            },
        );
        let first = f32::from_le_bytes(s.za_vector(5)[0..4].try_into().unwrap());
        assert_eq!(first, 0.0);
        exec(
            &mut s,
            &mut m,
            &SmeInst::StrZa {
                rs: x(12),
                offset: 0,
                rn: x(1),
            },
        );
        exec(
            &mut s,
            &mut m,
            &SmeInst::StrZa {
                rs: x(12),
                offset: 1,
                rn: x(1),
            },
        );
        assert_eq!(m.read_f32_slice(dst, 32), data);
    }

    #[test]
    fn zero_za_mask() {
        let (mut s, mut m) = setup();
        set_za_f32(&mut s, 0, 3, 3, 7.0);
        set_za_f32(&mut s, 1, 3, 3, 8.0);
        // Zero only za0.s (granules 0 and 4).
        exec(
            &mut s,
            &mut m,
            &SmeInst::ZeroZa {
                mask: SmeInst::zero_mask_for_s_tiles(&[0]),
            },
        );
        assert_eq!(za_f32(&s, 0, 3, 3), 0.0);
        assert_eq!(za_f32(&s, 1, 3, 3), 8.0);
    }

    #[test]
    fn sme2_multi_vector_fmla() {
        let (mut s, mut m) = setup();
        s.set_x(x(8), 0);
        for k in 0..4u8 {
            s.set_z_f32(z(k), &[k as f32 + 1.0; 16]);
        }
        s.set_z_f32(z(4), &[2.0; 16]);
        exec(
            &mut s,
            &mut m,
            &SmeInst::FmlaZaVectors {
                elem: ElementType::F32,
                vgx: 4,
                rv: x(8),
                offset: 0,
                zn: z(0),
                zm: z(4),
            },
        );
        // Group member k is ZA array vector k*16 (part size 64/4 = 16).
        for k in 0..4usize {
            let vec = s.za_vector(k * 16);
            let first = f32::from_le_bytes(vec[0..4].try_into().unwrap());
            assert_eq!(first, (k as f32 + 1.0) * 2.0);
        }
    }
}
