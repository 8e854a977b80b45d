//! Functional semantics of the ASIMD (Neon) instructions.

use crate::exec::fp::{bf16_to_f32, f16_to_f32, f32_to_f16};
use crate::mem::Memory;
use crate::state::CoreState;
use sme_isa::inst::neon::NeonInst;
use sme_isa::regs::VReg;
use sme_isa::types::NeonArrangement;

fn read_f32x4(state: &CoreState, r: VReg) -> [f32; 4] {
    state.v_f32(r)
}

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

fn read_f16x8(state: &CoreState, r: VReg) -> [f32; 8] {
    let b = state.v(r);
    let mut out = [0f32; 8];
    for (i, c) in b.chunks_exact(2).enumerate() {
        out[i] = f16_to_f32(u16::from_le_bytes([c[0], c[1]]));
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

fn read_bf16x8(state: &CoreState, r: VReg) -> [f32; 8] {
    let b = state.v(r);
    let mut out = [0f32; 8];
    for (i, c) in b.chunks_exact(2).enumerate() {
        out[i] = bf16_to_f32(u16::from_le_bytes([c[0], c[1]]));
    }
    out
}

/// `vd[i] += vn[i] * vm[j]` over the lanes of `arr`, with `j = i` for the
/// vector form and `j = index` for the by-element form. Each operand is
/// read in its own arrangement only.
fn fmla(
    state: &mut CoreState,
    vd: VReg,
    vn: VReg,
    vm: VReg,
    index: Option<u8>,
    arr: NeonArrangement,
) {
    let pick = |i: usize| index.map_or(i, usize::from);
    match arr {
        NeonArrangement::S4 => {
            let (mut d, n, m) = (
                read_f32x4(state, vd),
                read_f32x4(state, vn),
                read_f32x4(state, vm),
            );
            for i in 0..4 {
                d[i] += n[i] * m[pick(i)];
            }
            state.set_v_f32(vd, d);
        }
        NeonArrangement::D2 => {
            let (mut d, n, m) = (
                read_f64x2(state, vd),
                read_f64x2(state, vn),
                read_f64x2(state, vm),
            );
            for i in 0..2 {
                d[i] += n[i] * m[pick(i)];
            }
            write_f64x2(state, vd, d);
        }
        NeonArrangement::H8 => {
            let (mut d, n, m) = (
                read_f16x8(state, vd),
                read_f16x8(state, vn),
                read_f16x8(state, vm),
            );
            for i in 0..8 {
                d[i] += n[i] * m[pick(i)];
            }
            write_f16x8(state, vd, d);
        }
        NeonArrangement::B16 => panic!("byte-lane FMLA is not a valid instruction"),
    }
}

/// Execute one Neon instruction.
pub fn exec(state: &mut CoreState, mem: &mut Memory, inst: &NeonInst) {
    match *inst {
        NeonInst::FmlaVec {
            vd,
            vn,
            vm,
            arrangement,
        } => fmla(state, vd, vn, vm, None, arrangement),
        NeonInst::FmlaElem {
            vd,
            vn,
            vm,
            index,
            arrangement,
        } => fmla(state, vd, vn, vm, Some(index), arrangement),
        NeonInst::Bfmmla { vd, vn, vm } => {
            // C (2x2 FP32) += A (2x4 BF16) * B (2x4 BF16)^T:
            // C[i][j] += sum_k A[i*4+k] * B[j*4+k].
            let a = read_bf16x8(state, vn);
            let b = read_bf16x8(state, vm);
            let mut c = read_f32x4(state, vd);
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
        NeonInst::LdrQ { vt, rn, imm } => {
            let addr = state.x(rn) + imm as u64;
            let bytes = mem.read_bytes(addr, 16);
            let mut b = [0u8; 16];
            b.copy_from_slice(bytes);
            state.set_v(vt, b);
        }
        NeonInst::StrQ { vt, rn, imm } => {
            let addr = state.x(rn) + imm as u64;
            let b = state.v(vt);
            mem.write_bytes(addr, &b);
        }
        NeonInst::LdrD { vt, rn, imm } => {
            let addr = state.x(rn) + imm as u64;
            let mut b = [0u8; 16];
            b[..8].copy_from_slice(mem.read_bytes(addr, 8));
            state.set_v(vt, b);
        }
        NeonInst::StrD { vt, rn, imm } => {
            let addr = state.x(rn) + imm as u64;
            let b = state.v(vt);
            mem.write_bytes(addr, &b[..8]);
        }
        NeonInst::LdrS { vt, rn, imm } => {
            let addr = state.x(rn) + imm as u64;
            let mut b = [0u8; 16];
            b[..4].copy_from_slice(mem.read_bytes(addr, 4));
            state.set_v(vt, b);
        }
        NeonInst::StrS { vt, rn, imm } => {
            let addr = state.x(rn) + imm as u64;
            let b = state.v(vt);
            mem.write_bytes(addr, &b[..4]);
        }
        NeonInst::InsElemD { vd, vn, dst, src } => {
            let n = state.v(vn);
            let mut d = state.v(vd);
            let (dst, src) = (dst as usize * 8, src as usize * 8);
            let lane: [u8; 8] = n[src..src + 8].try_into().expect("eight bytes");
            d[dst..dst + 8].copy_from_slice(&lane);
            state.set_v(vd, d);
        }
        NeonInst::LdpQ { vt1, vt2, rn, imm } => {
            let addr = (state.x(rn) as i64 + imm as i64) as u64;
            let mut b1 = [0u8; 16];
            b1.copy_from_slice(mem.read_bytes(addr, 16));
            let mut b2 = [0u8; 16];
            b2.copy_from_slice(mem.read_bytes(addr + 16, 16));
            state.set_v(vt1, b1);
            state.set_v(vt2, b2);
        }
        NeonInst::StpQ { vt1, vt2, rn, imm } => {
            let addr = (state.x(rn) as i64 + imm as i64) as u64;
            let b1 = state.v(vt1);
            let b2 = state.v(vt2);
            mem.write_bytes(addr, &b1);
            mem.write_bytes(addr + 16, &b2);
        }
        NeonInst::DupElem {
            vd,
            vn,
            index,
            arrangement,
        } => match arrangement {
            NeonArrangement::S4 => {
                let n = read_f32x4(state, vn);
                state.set_v_f32(vd, [n[index as usize]; 4]);
            }
            NeonArrangement::D2 => {
                let n = read_f64x2(state, vn);
                write_f64x2(state, vd, [n[index as usize]; 2]);
            }
            _ => {
                let n = read_f16x8(state, vn);
                write_f16x8(state, vd, [n[index as usize]; 8]);
            }
        },
        NeonInst::MoviZero { vd, .. } => {
            state.set_v(vd, [0u8; 16]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sme_isa::regs::short::*;
    use sme_isa::types::StreamingVectorLength;

    fn setup() -> (CoreState, Memory) {
        (CoreState::new(StreamingVectorLength::M4), Memory::new())
    }

    #[test]
    fn fmla_vector_f32() {
        let (mut s, mut m) = setup();
        s.set_v_f32(v(0), [1.0, 2.0, 3.0, 4.0]);
        s.set_v_f32(v(30), [2.0, 2.0, 2.0, 2.0]);
        s.set_v_f32(v(31), [10.0, 20.0, 30.0, 40.0]);
        exec(
            &mut s,
            &mut m,
            &NeonInst::fmla_vec(v(0), v(30), v(31), NeonArrangement::S4),
        );
        assert_eq!(s.v_f32(v(0)), [21.0, 42.0, 63.0, 84.0]);
    }

    #[test]
    fn fmla_vector_f64_and_f16() {
        let (mut s, mut m) = setup();
        write_f64x2(&mut s, v(1), [1.0, -1.0]);
        write_f64x2(&mut s, v(2), [3.0, 4.0]);
        write_f64x2(&mut s, v(3), [10.0, 100.0]);
        exec(
            &mut s,
            &mut m,
            &NeonInst::fmla_vec(v(1), v(2), v(3), NeonArrangement::D2),
        );
        assert_eq!(read_f64x2(&s, v(1)), [31.0, 399.0]);

        write_f16x8(&mut s, v(4), [1.0; 8]);
        write_f16x8(&mut s, v(5), [2.0; 8]);
        write_f16x8(&mut s, v(6), [0.5; 8]);
        exec(
            &mut s,
            &mut m,
            &NeonInst::fmla_vec(v(4), v(5), v(6), NeonArrangement::H8),
        );
        assert_eq!(read_f16x8(&s, v(4)), [2.0; 8]);
    }

    #[test]
    fn fmla_by_element_broadcasts() {
        let (mut s, mut m) = setup();
        s.set_v_f32(v(4), [0.0; 4]);
        s.set_v_f32(v(28), [1.0, 2.0, 3.0, 4.0]);
        s.set_v_f32(v(29), [5.0, 7.0, 9.0, 11.0]);
        exec(
            &mut s,
            &mut m,
            &NeonInst::fmla_elem(v(4), v(28), v(29), 1, NeonArrangement::S4),
        );
        assert_eq!(s.v_f32(v(4)), [7.0, 14.0, 21.0, 28.0]);
    }

    #[test]
    fn bfmmla_matrix_product() {
        let (mut s, mut m) = setup();
        // A = [[1,2,3,4],[5,6,7,8]] (2x4), B = same; C[i][j] = dot(A_i, B_j).
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let mut bytes = [0u8; 16];
        for (i, v) in a.iter().enumerate() {
            bytes[i * 2..i * 2 + 2]
                .copy_from_slice(&crate::exec::fp::f32_to_bf16(*v).to_le_bytes());
        }
        s.set_v(v(1), bytes);
        s.set_v(v(2), bytes);
        exec(
            &mut s,
            &mut m,
            &NeonInst::Bfmmla {
                vd: v(0),
                vn: v(1),
                vm: v(2),
            },
        );
        let c = s.v_f32(v(0));
        assert_eq!(c, [30.0, 70.0, 70.0, 174.0]);
    }

    #[test]
    fn loads_and_stores() {
        let (mut s, mut m) = setup();
        let data: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let addr = m.alloc_f32(&data, 64);
        s.set_x(x(0), addr);
        exec(
            &mut s,
            &mut m,
            &NeonInst::LdrQ {
                vt: v(0),
                rn: x(0),
                imm: 0,
            },
        );
        assert_eq!(s.v_f32(v(0)), [0.0, 1.0, 2.0, 3.0]);
        exec(
            &mut s,
            &mut m,
            &NeonInst::LdpQ {
                vt1: v(1),
                vt2: v(2),
                rn: x(0),
                imm: 0,
            },
        );
        assert_eq!(s.v_f32(v(2)), [4.0, 5.0, 6.0, 7.0]);
        // Store back shifted by 16 bytes.
        let dst = m.alloc_f32_zeroed(12, 64);
        s.set_x(x(1), dst);
        exec(
            &mut s,
            &mut m,
            &NeonInst::StrQ {
                vt: v(2),
                rn: x(1),
                imm: 0,
            },
        );
        exec(
            &mut s,
            &mut m,
            &NeonInst::StpQ {
                vt1: v(0),
                vt2: v(2),
                rn: x(1),
                imm: 16,
            },
        );
        assert_eq!(m.read_f32_slice(dst, 4), vec![4.0, 5.0, 6.0, 7.0]);
        assert_eq!(m.read_f32_slice(dst + 16, 4), vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(m.read_f32_slice(dst + 32, 4), vec![4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn dup_and_movi() {
        let (mut s, mut m) = setup();
        s.set_v_f32(v(9), [1.5, 2.5, 3.5, 4.5]);
        exec(
            &mut s,
            &mut m,
            &NeonInst::DupElem {
                vd: v(10),
                vn: v(9),
                index: 2,
                arrangement: NeonArrangement::S4,
            },
        );
        assert_eq!(s.v_f32(v(10)), [3.5; 4]);
        exec(
            &mut s,
            &mut m,
            &NeonInst::MoviZero {
                vd: v(10),
                arrangement: NeonArrangement::S4,
            },
        );
        assert_eq!(s.v_f32(v(10)), [0.0; 4]);
    }
}
