//! Functional semantics of the SVE / Streaming SVE instructions.
//!
//! A load or store whose predicate (or counter) leaves every lane active
//! moves its whole contiguous range with one bounds-checked memory access;
//! only masked accesses go lane by lane, touching just the active lanes.

use crate::exec::MAX_VL_BYTES;
use crate::mem::Memory;
use crate::state::CoreState;
use sme_isa::inst::sve::SveInst;
use sme_isa::regs::{PReg, XReg, ZReg};
use sme_isa::types::ElementType;

fn effective_lanes(state: &CoreState, elem: ElementType) -> usize {
    state.vl_bytes() / elem.bytes() as usize
}

/// Base address of a scalar-plus-immediate (`mul vl`) access.
fn vl_offset_addr(state: &CoreState, rn: XReg, imm_vl: i64, unit_bytes: i64) -> u64 {
    (state.x(rn) as i64 + imm_vl * unit_bytes) as u64
}

/// Whether predicate `pg` (none: unpredicated) leaves every lane of width
/// `elem` active.
fn all_active(state: &CoreState, pg: Option<PReg>, elem: ElementType) -> bool {
    pg.is_none_or(|p| {
        let step = elem.bytes() as usize;
        state.p(p).iter().step_by(step).all(|&on| on)
    })
}

fn load_vector(
    state: &mut CoreState,
    mem: &Memory,
    zt: ZReg,
    pg: Option<PReg>,
    elem: ElementType,
    addr: u64,
) {
    let vl = state.vl_bytes();
    if all_active(state, pg, elem) {
        state.set_z(zt, mem.read_bytes(addr, vl));
        return;
    }
    // Inactive lanes read as zero.
    let eb = elem.bytes() as usize;
    let mut bytes = [0u8; MAX_VL_BYTES];
    for (lane, dst) in bytes[..vl].chunks_exact_mut(eb).enumerate() {
        if pg.is_none_or(|p| state.p_lane(p, elem, lane)) {
            dst.copy_from_slice(mem.read_bytes(addr + (lane * eb) as u64, eb));
        }
    }
    state.set_z(zt, &bytes[..vl]);
}

fn store_vector(
    state: &CoreState,
    mem: &mut Memory,
    zt: ZReg,
    pg: Option<PReg>,
    elem: ElementType,
    addr: u64,
) {
    if all_active(state, pg, elem) {
        mem.write_bytes(addr, state.z(zt));
        return;
    }
    let eb = elem.bytes() as usize;
    for (lane, src) in state.z(zt).chunks_exact(eb).enumerate() {
        if pg.is_none_or(|p| state.p_lane(p, elem, lane)) {
            mem.write_bytes(addr + (lane * eb) as u64, src);
        }
    }
}

/// Execute one SVE instruction.
pub fn exec(state: &mut CoreState, mem: &mut Memory, inst: &SveInst) {
    let vl = state.vl_bytes() as i64;
    match *inst {
        SveInst::Ptrue { pd, elem } => {
            let lanes = effective_lanes(state, elem);
            state.set_p_first(pd, elem, lanes);
        }
        SveInst::PtrueCnt { pn, .. } => {
            state.set_pn_count(pn, u64::MAX);
        }
        SveInst::Whilelt { pd, elem, rn, rm } => {
            let count = (state.x(rm) as i64 - state.x(rn) as i64).max(0) as usize;
            state.set_p_first(pd, elem, count);
        }
        SveInst::WhileltCnt { pn, rn, rm, .. } => {
            let count = (state.x(rm) as i64 - state.x(rn) as i64).max(0) as u64;
            state.set_pn_count(pn, count);
        }
        SveInst::Ld1 {
            zt,
            elem,
            pg,
            rn,
            imm_vl,
        } => {
            let addr = vl_offset_addr(state, rn, imm_vl as i64, vl);
            load_vector(state, mem, zt, Some(pg), elem, addr);
        }
        SveInst::St1 {
            zt,
            elem,
            pg,
            rn,
            imm_vl,
        } => {
            let addr = vl_offset_addr(state, rn, imm_vl as i64, vl);
            store_vector(state, mem, zt, Some(pg), elem, addr);
        }
        SveInst::Ld1Multi {
            zt,
            count,
            elem,
            pn,
            rn,
            imm_vl,
        } => {
            // The counter activates a prefix of the group's elements: read
            // it in one access; the elements beyond it read as zero.
            let active = multi_active_bytes(state, count, elem, pn);
            let base = vl_offset_addr(state, rn, imm_vl as i64, vl * count as i64);
            let src = if active > 0 {
                mem.read_bytes(base, active)
            } else {
                &[]
            };
            let vl = vl as usize;
            let mut bytes = [0u8; MAX_VL_BYTES];
            for k in 0..count {
                let part = src.get(k as usize * vl..).unwrap_or(&[]);
                let part = &part[..part.len().min(vl)];
                bytes[..part.len()].copy_from_slice(part);
                bytes[part.len()..vl].fill(0);
                state.set_z(zt.offset(k), &bytes[..vl]);
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
            let active = multi_active_bytes(state, count, elem, pn);
            let base = vl_offset_addr(state, rn, imm_vl as i64, vl * count as i64);
            let vl = vl as usize;
            for k in 0..count as usize {
                let len = active.saturating_sub(k * vl).min(vl);
                if len > 0 {
                    let data = &state.z(zt.offset(k as u8))[..len];
                    mem.write_bytes(base + (k * vl) as u64, data);
                }
            }
        }
        SveInst::LdrZ { zt, rn, imm_vl } => {
            let addr = vl_offset_addr(state, rn, imm_vl as i64, vl);
            load_vector(state, mem, zt, None, ElementType::I8, addr);
        }
        SveInst::StrZ { zt, rn, imm_vl } => {
            let addr = vl_offset_addr(state, rn, imm_vl as i64, vl);
            store_vector(state, mem, zt, None, ElementType::I8, addr);
        }
        SveInst::FmlaSve {
            zd,
            pg,
            zn,
            zm,
            elem,
        } => match elem {
            ElementType::F64 => {
                let mut d = state.z_f64(zd);
                let n = state.z_f64(zn);
                let m = state.z_f64(zm);
                for lane in 0..d.len() {
                    if state.p_lane(pg, elem, lane) {
                        d[lane] += n[lane] * m[lane];
                    }
                }
                state.set_z_f64(zd, &d);
            }
            _ => {
                let mut d = state.z_f32(zd);
                let n = state.z_f32(zn);
                let m = state.z_f32(zm);
                for lane in 0..d.len() {
                    if state.p_lane(pg, ElementType::F32, lane) {
                        d[lane] += n[lane] * m[lane];
                    }
                }
                state.set_z_f32(zd, &d);
            }
        },
        SveInst::DupImm { zd, elem, imm } => {
            let eb = elem.bytes() as usize;
            let mut bytes = vec![0u8; state.vl_bytes()];
            let value = imm as i64;
            for lane in 0..effective_lanes(state, elem) {
                let le = value.to_le_bytes();
                bytes[lane * eb..lane * eb + eb].copy_from_slice(&le[..eb]);
            }
            state.set_z(zd, &bytes);
        }
        SveInst::AddVl { rd, rn, imm } => {
            let value = (state.x(rn) as i64 + imm as i64 * vl) as u64;
            state.set_x(rd, value);
        }
    }
}

/// Bytes a multi-vector access of `count` registers moves: the elements
/// the counter in `pn` activates, at most the whole group.
fn multi_active_bytes(
    state: &CoreState,
    count: u8,
    elem: ElementType,
    pn: sme_isa::regs::PnReg,
) -> usize {
    let lanes = effective_lanes(state, elem);
    let active = state.pn_count(pn).min((count as u64) * lanes as u64) as usize;
    active * elem.bytes() as usize
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
    fn ptrue_and_whilelt() {
        let (mut s, mut m) = setup();
        exec(&mut s, &mut m, &SveInst::ptrue(p(0), ElementType::F32));
        assert_eq!(s.p_active_lanes(p(0), ElementType::F32), 16);
        s.set_x(x(2), 3);
        s.set_x(x(3), 10);
        exec(
            &mut s,
            &mut m,
            &SveInst::Whilelt {
                pd: p(1),
                elem: ElementType::F32,
                rn: x(2),
                rm: x(3),
            },
        );
        assert_eq!(s.p_active_lanes(p(1), ElementType::F32), 7);
        // Exhausted iteration space -> empty predicate.
        s.set_x(x(2), 12);
        s.set_x(x(3), 10);
        exec(
            &mut s,
            &mut m,
            &SveInst::Whilelt {
                pd: p(1),
                elem: ElementType::F32,
                rn: x(2),
                rm: x(3),
            },
        );
        assert_eq!(s.p_active_lanes(p(1), ElementType::F32), 0);
    }

    #[test]
    fn predicate_as_counter() {
        let (mut s, mut m) = setup();
        exec(&mut s, &mut m, &SveInst::ptrue_cnt(pn(8), ElementType::F32));
        assert_eq!(s.pn_count(pn(8)), u64::MAX);
        s.set_x(x(0), 10);
        s.set_x(x(1), 42);
        exec(
            &mut s,
            &mut m,
            &SveInst::WhileltCnt {
                pn: pn(9),
                elem: ElementType::F32,
                rn: x(0),
                rm: x(1),
                vl: 4,
            },
        );
        assert_eq!(s.pn_count(pn(9)), 32);
    }

    #[test]
    fn single_vector_load_store_with_predicate() {
        let (mut s, mut m) = setup();
        let data: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let src = m.alloc_f32(&data, 64);
        let dst = m.alloc_f32_zeroed(16, 64);
        s.set_x(x(0), src);
        s.set_x(x(1), dst);
        s.set_p_first(p(0), ElementType::F32, 5);
        exec(&mut s, &mut m, &SveInst::ld1w(z(0), p(0), x(0), 0));
        let loaded = s.z_f32(z(0));
        assert_eq!(&loaded[..5], &[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert!(
            loaded[5..].iter().all(|&v| v == 0.0),
            "inactive lanes read as zero"
        );
        s.set_p_first(p(1), ElementType::F32, 16);
        exec(&mut s, &mut m, &SveInst::st1w(z(0), p(1), x(1), 0));
        let out = m.read_f32_slice(dst, 16);
        assert_eq!(&out[..5], &[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&out[5..], &[0.0; 11]);
    }

    #[test]
    fn vl_indexed_addressing() {
        let (mut s, mut m) = setup();
        let data: Vec<f32> = (0..48).map(|i| i as f32).collect();
        let src = m.alloc_f32(&data, 64);
        s.set_x(x(0), src);
        s.set_p_first(p(0), ElementType::F32, 16);
        // Load the third vector (offset #2, mul vl).
        exec(&mut s, &mut m, &SveInst::ld1w(z(1), p(0), x(0), 2));
        assert_eq!(s.z_f32(z(1))[0], 32.0);
    }

    #[test]
    fn multi_vector_load_and_store() {
        let (mut s, mut m) = setup();
        let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let src = m.alloc_f32(&data, 128);
        let dst = m.alloc_f32_zeroed(64, 128);
        s.set_x(x(0), src);
        s.set_x(x(1), dst);
        exec(&mut s, &mut m, &SveInst::ptrue_cnt(pn(8), ElementType::F32));
        exec(
            &mut s,
            &mut m,
            &SveInst::ld1w_multi(z(0), 4, pn(8), x(0), 0),
        );
        assert_eq!(s.z_f32(z(0))[0], 0.0);
        assert_eq!(s.z_f32(z(1))[0], 16.0);
        assert_eq!(s.z_f32(z(2))[0], 32.0);
        assert_eq!(s.z_f32(z(3))[15], 63.0);
        exec(
            &mut s,
            &mut m,
            &SveInst::st1w_multi(z(0), 4, pn(8), x(1), 0),
        );
        assert_eq!(m.read_f32_slice(dst, 64), data);
    }

    #[test]
    fn multi_vector_load_respects_counter() {
        let (mut s, mut m) = setup();
        let data: Vec<f32> = (1..=32).map(|i| i as f32).collect();
        let src = m.alloc_f32(&data, 128);
        s.set_x(x(0), src);
        s.set_x(x(5), 0);
        s.set_x(x(6), 20);
        exec(
            &mut s,
            &mut m,
            &SveInst::WhileltCnt {
                pn: pn(8),
                elem: ElementType::F32,
                rn: x(5),
                rm: x(6),
                vl: 2,
            },
        );
        exec(
            &mut s,
            &mut m,
            &SveInst::ld1w_multi(z(0), 2, pn(8), x(0), 0),
        );
        assert_eq!(s.z_f32(z(0))[15], 16.0);
        let z1 = s.z_f32(z(1));
        assert_eq!(z1[3], 20.0, "elements below the counter are loaded");
        assert_eq!(z1[4], 0.0, "elements beyond the counter are zero");
    }

    #[test]
    fn unpredicated_vector_load_store() {
        let (mut s, mut m) = setup();
        let data: Vec<f32> = (0..32).map(|i| (i * i) as f32).collect();
        let src = m.alloc_f32(&data, 64);
        let dst = m.alloc_f32_zeroed(32, 64);
        s.set_x(x(0), src);
        s.set_x(x(1), dst);
        exec(
            &mut s,
            &mut m,
            &SveInst::LdrZ {
                zt: z(5),
                rn: x(0),
                imm_vl: 1,
            },
        );
        assert_eq!(s.z_f32(z(5))[0], 256.0);
        exec(
            &mut s,
            &mut m,
            &SveInst::StrZ {
                zt: z(5),
                rn: x(1),
                imm_vl: 0,
            },
        );
        assert_eq!(m.read_f32_slice(dst, 16), data[16..32].to_vec());
    }

    #[test]
    fn ssve_fmla() {
        let (mut s, mut m) = setup();
        exec(&mut s, &mut m, &SveInst::ptrue(p(0), ElementType::F32));
        let a: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let b = vec![2.0f32; 16];
        s.set_z_f32(z(1), &a);
        s.set_z_f32(z(2), &b);
        s.set_z_f32(z(0), &[1.0; 16]);
        exec(
            &mut s,
            &mut m,
            &SveInst::FmlaSve {
                zd: z(0),
                pg: p(0),
                zn: z(1),
                zm: z(2),
                elem: ElementType::F32,
            },
        );
        let d = s.z_f32(z(0));
        for (i, v) in d.iter().enumerate() {
            assert_eq!(*v, 1.0 + 2.0 * i as f32);
        }
    }

    #[test]
    fn dup_imm_and_addvl() {
        let (mut s, mut m) = setup();
        exec(
            &mut s,
            &mut m,
            &SveInst::DupImm {
                zd: z(3),
                elem: ElementType::F32,
                imm: 0,
            },
        );
        assert!(s.z_f32(z(3)).iter().all(|&v| v == 0.0));
        s.set_x(x(0), 1000);
        exec(
            &mut s,
            &mut m,
            &SveInst::AddVl {
                rd: x(1),
                rn: x(0),
                imm: 2,
            },
        );
        assert_eq!(s.x(x(1)), 1000 + 128);
        exec(
            &mut s,
            &mut m,
            &SveInst::AddVl {
                rd: x(1),
                rn: x(0),
                imm: -1,
            },
        );
        assert_eq!(s.x(x(1)), 1000 - 64);
    }
}
