//! Architectural state of one simulated core: general-purpose, Neon,
//! scalable vector and predicate registers, the ZA array, flags and the
//! streaming / ZA enable bits.

use serde::{Deserialize, Serialize};
use sme_isa::regs::{PReg, VReg, XReg, ZReg};
use sme_isa::types::{ElementType, StreamingVectorLength};

/// Condition flags (NZCV).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flags {
    /// Negative.
    pub n: bool,
    /// Zero.
    pub z: bool,
    /// Carry.
    pub c: bool,
    /// Overflow.
    pub v: bool,
}

/// Architectural state of a single core.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoreState {
    svl: StreamingVectorLength,
    /// X0–X30 followed by XZR (always zero) and SP.
    x: Vec<u64>,
    /// 128-bit Neon registers.
    v: Vec<[u8; 16]>,
    /// Scalable vector registers, `svl/8` bytes each.
    z: Vec<Vec<u8>>,
    /// Predicate registers, one bool per byte lane.
    p: Vec<Vec<bool>>,
    /// Predicate-as-counter registers PN8–PN15: number of active elements
    /// across a multi-vector group (`u64::MAX` after `ptrue`).
    pn_counter: Vec<u64>,
    /// The ZA array, `(svl/8)^2` bytes.
    za: Vec<u8>,
    /// Condition flags.
    pub flags: Flags,
    /// Streaming SVE mode enable.
    pub streaming: bool,
    /// ZA storage enable.
    pub za_enabled: bool,
}

impl CoreState {
    /// Create a zeroed core state for the given streaming vector length.
    pub fn new(svl: StreamingVectorLength) -> Self {
        let vl_bytes = svl.bytes() as usize;
        CoreState {
            svl,
            x: vec![0; 33],
            v: vec![[0; 16]; 32],
            z: vec![vec![0; vl_bytes]; 32],
            p: vec![vec![false; vl_bytes]; 16],
            pn_counter: vec![0; 8],
            za: vec![0; svl.za_bytes()],
            flags: Flags::default(),
            streaming: false,
            za_enabled: false,
        }
    }

    /// The streaming vector length this state was built for.
    pub fn svl(&self) -> StreamingVectorLength {
        self.svl
    }

    /// Vector length in bytes.
    pub fn vl_bytes(&self) -> usize {
        self.svl.bytes() as usize
    }

    // ---- general-purpose registers -------------------------------------

    /// Read a general-purpose register (XZR reads as zero).
    pub fn x(&self, r: XReg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.x[r.index() as usize]
        }
    }

    /// Write a general-purpose register (writes to XZR are discarded).
    pub fn set_x(&mut self, r: XReg, value: u64) {
        if !r.is_zero() {
            self.x[r.index() as usize] = value;
        }
    }

    // ---- Neon registers -------------------------------------------------

    /// Read a Neon register.
    pub fn v(&self, r: VReg) -> [u8; 16] {
        self.v[r.index() as usize]
    }

    /// Write a Neon register.
    pub fn set_v(&mut self, r: VReg, value: [u8; 16]) {
        self.v[r.index() as usize] = value;
    }

    /// Read a Neon register as `f32` lanes.
    pub fn v_f32(&self, r: VReg) -> [f32; 4] {
        let b = self.v(r);
        let mut out = [0f32; 4];
        for (i, chunk) in b.chunks_exact(4).enumerate() {
            out[i] = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        out
    }

    /// Write a Neon register from `f32` lanes.
    pub fn set_v_f32(&mut self, r: VReg, lanes: [f32; 4]) {
        let mut b = [0u8; 16];
        for (i, v) in lanes.iter().enumerate() {
            b[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        self.set_v(r, b);
    }

    // ---- scalable vector registers ---------------------------------------

    /// Read a scalable vector register as raw bytes.
    pub fn z(&self, r: ZReg) -> &[u8] {
        &self.z[r.index() as usize]
    }

    /// Write a scalable vector register from raw bytes (must be `svl/8`
    /// bytes long).
    pub fn set_z(&mut self, r: ZReg, bytes: &[u8]) {
        assert_eq!(
            bytes.len(),
            self.vl_bytes(),
            "Z register write length mismatch"
        );
        self.z[r.index() as usize].copy_from_slice(bytes);
    }

    /// Read a scalable vector register as `f32` lanes.
    pub fn z_f32(&self, r: ZReg) -> Vec<f32> {
        self.z(r)
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Write a scalable vector register from `f32` lanes.
    pub fn set_z_f32(&mut self, r: ZReg, lanes: &[f32]) {
        assert_eq!(
            lanes.len() * 4,
            self.vl_bytes(),
            "Z register f32 write length mismatch"
        );
        for (dst, v) in self.z[r.index() as usize].chunks_exact_mut(4).zip(lanes) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Read a scalable vector register as `f64` lanes.
    pub fn z_f64(&self, r: ZReg) -> Vec<f64> {
        self.z(r)
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect()
    }

    /// Write a scalable vector register from `f64` lanes.
    pub fn set_z_f64(&mut self, r: ZReg, lanes: &[f64]) {
        assert_eq!(
            lanes.len() * 8,
            self.vl_bytes(),
            "Z register f64 write length mismatch"
        );
        for (dst, v) in self.z[r.index() as usize].chunks_exact_mut(8).zip(lanes) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    // ---- predicate registers ---------------------------------------------

    /// Read a predicate register (one bool per byte lane).
    pub fn p(&self, r: PReg) -> &[bool] {
        &self.p[r.index() as usize]
    }

    /// Set every element of a predicate register to `value`.
    pub fn set_p_all(&mut self, r: PReg, value: bool) {
        for b in &mut self.p[r.index() as usize] {
            *b = value;
        }
    }

    /// Set a predicate so that the first `active` elements of width
    /// `elem` are true and the rest false (the effect of `whilelt`).
    pub fn set_p_first(&mut self, r: PReg, elem: ElementType, active: usize) {
        let eb = elem.bytes() as usize;
        let lanes = self.vl_bytes() / eb;
        let pred = &mut self.p[r.index() as usize];
        for b in pred.iter_mut() {
            *b = false;
        }
        for lane in 0..lanes.min(active) {
            pred[lane * eb] = true;
        }
    }

    /// Whether lane `lane` of width `elem` is active in predicate `r`.
    pub fn p_lane(&self, r: PReg, elem: ElementType, lane: usize) -> bool {
        let eb = elem.bytes() as usize;
        self.p[r.index() as usize][lane * eb]
    }

    /// Number of active lanes of width `elem` in predicate `r`.
    pub fn p_active_lanes(&self, r: PReg, elem: ElementType) -> usize {
        let eb = elem.bytes() as usize;
        let lanes = self.vl_bytes() / eb;
        (0..lanes)
            .filter(|&l| self.p[r.index() as usize][l * eb])
            .count()
    }

    // ---- predicate-as-counter registers -----------------------------------

    /// Read a predicate-as-counter register (PN8–PN15): the number of
    /// active elements across the governed multi-vector group.
    pub fn pn_count(&self, r: sme_isa::regs::PnReg) -> u64 {
        self.pn_counter[(r.index() - 8) as usize]
    }

    /// Write a predicate-as-counter register.
    pub fn set_pn_count(&mut self, r: sme_isa::regs::PnReg, count: u64) {
        self.pn_counter[(r.index() - 8) as usize] = count;
    }

    // ---- the ZA array ------------------------------------------------------

    /// Raw access to the ZA array bytes.
    pub fn za(&self) -> &[u8] {
        &self.za
    }

    /// Zero the entire ZA array.
    pub fn zero_za(&mut self) {
        self.za.fill(0);
    }

    /// Zero the 64-bit tile `za<index>.d` (used by the `zero` instruction).
    pub fn zero_za_d_tile(&mut self, index: u8) {
        let vl = self.vl_bytes();
        let esz = 8usize;
        let rows = vl / esz;
        for r in 0..rows {
            let vec_idx = r * esz + index as usize;
            let start = vec_idx * vl;
            self.za[start..start + vl].fill(0);
        }
    }

    /// Read one ZA array vector (SVL bits).
    pub fn za_vector(&self, index: usize) -> &[u8] {
        let vl = self.vl_bytes();
        assert!(index < vl, "ZA array vector index {index} out of range");
        &self.za[index * vl..(index + 1) * vl]
    }

    /// Write one ZA array vector.
    pub fn set_za_vector(&mut self, index: usize, bytes: &[u8]) {
        let vl = self.vl_bytes();
        assert!(index < vl, "ZA array vector index {index} out of range");
        assert_eq!(bytes.len(), vl, "ZA array vector write length mismatch");
        self.za[index * vl..(index + 1) * vl].copy_from_slice(bytes);
    }

    /// ZA array vector index holding horizontal slice `row` of tile
    /// `tile` with elements of type `elem`.
    ///
    /// Tile `t` for element size `esz` bytes consists of the array vectors
    /// whose index is congruent to `t` modulo `esz`; its horizontal slice
    /// `r` is array vector `r * esz + t`.
    pub fn za_tile_row_vector(&self, tile: u8, elem: ElementType, row: usize) -> usize {
        let esz = elem.bytes() as usize;
        let dim = self.vl_bytes() / esz;
        assert!(row < dim, "tile row {row} out of range for {elem}");
        assert!(
            (tile as usize) < esz,
            "tile index {tile} out of range for {elem}"
        );
        row * esz + tile as usize
    }

    /// The rows of tile `tile` holding elements of type `elem`, top to
    /// bottom: row `r` is array vector `r * esz + tile`, so the rows are
    /// every `esz`-th vector from vector `tile` on.
    ///
    /// # Panics
    /// Panics if `tile` is out of range for `elem`.
    pub fn za_tile_rows(&self, tile: u8, elem: ElementType) -> impl Iterator<Item = &[u8]> {
        let (vl, first) = (self.vl_bytes(), self.za_tile_row_vector(tile, elem, 0));
        let stride = elem.bytes() as usize * vl;
        self.za[first * vl..]
            .chunks(stride)
            .map(move |rows| &rows[..vl])
    }

    /// Mutable form of [`za_tile_rows`](Self::za_tile_rows).
    ///
    /// # Panics
    /// Panics if `tile` is out of range for `elem`.
    pub fn za_tile_rows_mut(
        &mut self,
        tile: u8,
        elem: ElementType,
    ) -> impl Iterator<Item = &mut [u8]> {
        let (vl, first) = (self.vl_bytes(), self.za_tile_row_vector(tile, elem, 0));
        let stride = elem.bytes() as usize * vl;
        self.za[first * vl..]
            .chunks_mut(stride)
            .map(move |rows| &mut rows[..vl])
    }

    /// Extract a whole `f32` tile as a row-major `dim × dim` matrix
    /// (convenience for tests).
    pub fn za_tile_f32(&self, tile: u8) -> Vec<Vec<f32>> {
        self.za_tile_rows(tile, ElementType::F32)
            .map(|row| {
                row.chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sme_isa::regs::short::*;

    fn state() -> CoreState {
        CoreState::new(StreamingVectorLength::M4)
    }

    #[test]
    fn xzr_semantics() {
        let mut s = state();
        s.set_x(x(3), 77);
        assert_eq!(s.x(x(3)), 77);
        s.set_x(XReg::XZR, 123);
        assert_eq!(s.x(XReg::XZR), 0, "XZR always reads zero");
        s.set_x(XReg::SP, 0x8000);
        assert_eq!(s.x(XReg::SP), 0x8000);
    }

    #[test]
    fn neon_f32_lanes() {
        let mut s = state();
        s.set_v_f32(v(5), [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.v_f32(v(5)), [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn z_register_typed_views() {
        let mut s = state();
        let lanes: Vec<f32> = (0..16).map(|i| i as f32).collect();
        s.set_z_f32(z(7), &lanes);
        assert_eq!(s.z_f32(z(7)), lanes);
        let dlanes: Vec<f64> = (0..8).map(|i| i as f64 * 1.5).collect();
        s.set_z_f64(z(8), &dlanes);
        assert_eq!(s.z_f64(z(8)), dlanes);
        assert_eq!(s.z(z(0)).len(), 64);
    }

    #[test]
    fn predicate_first_n() {
        let mut s = state();
        s.set_p_all(p(0), true);
        assert_eq!(s.p_active_lanes(p(0), ElementType::F32), 16);
        s.set_p_first(p(1), ElementType::F32, 5);
        assert_eq!(s.p_active_lanes(p(1), ElementType::F32), 5);
        assert!(s.p_lane(p(1), ElementType::F32, 4));
        assert!(!s.p_lane(p(1), ElementType::F32, 5));
        s.set_p_first(p(2), ElementType::F32, 99);
        assert_eq!(
            s.p_active_lanes(p(2), ElementType::F32),
            16,
            "clamped to lane count"
        );
        s.set_p_first(p(3), ElementType::F64, 3);
        assert_eq!(s.p_active_lanes(p(3), ElementType::F64), 3);
    }

    #[test]
    fn za_tile_geometry_matches_architecture() {
        let s = state();
        // ZA0.S horizontal slices are array vectors 0, 4, 8, ..., 60.
        assert_eq!(s.za_tile_row_vector(0, ElementType::F32, 0), 0);
        assert_eq!(s.za_tile_row_vector(0, ElementType::F32, 1), 4);
        assert_eq!(s.za_tile_row_vector(0, ElementType::F32, 15), 60);
        // ZA3.S starts at vector 3.
        assert_eq!(s.za_tile_row_vector(3, ElementType::F32, 0), 3);
        // ZA7.D slices are vectors 7, 15, ..., 63.
        assert_eq!(s.za_tile_row_vector(7, ElementType::F64, 0), 7);
        assert_eq!(s.za_tile_row_vector(7, ElementType::F64, 7), 63);
        // The row iterators walk the same vectors.
        let za = s.za().as_ptr();
        let starts: Vec<usize> = s
            .za_tile_rows(3, ElementType::F32)
            .map(|row| (row.as_ptr() as usize - za as usize) / 64)
            .collect();
        assert_eq!(starts, (0..16).map(|r| r * 4 + 3).collect::<Vec<_>>());
        let mut s = state();
        assert_eq!(s.za_tile_rows_mut(7, ElementType::F64).count(), 8);
        assert!(s
            .za_tile_rows_mut(7, ElementType::F64)
            .all(|row| row.len() == 64));
    }

    #[test]
    fn za_element_accessors() {
        let mut s = state();
        // Element (3, 5) of za2.s is bytes 20..24 of array vector 3 * 4 + 2.
        let row = s.za_tile_rows_mut(2, ElementType::F32).nth(3).unwrap();
        row[5 * 4..6 * 4].copy_from_slice(&42.5f32.to_le_bytes());
        assert_eq!(&s.za_vector(14)[20..24], &42.5f32.to_le_bytes());
        let tile = s.za_tile_f32(2);
        assert_eq!(tile.len(), 16);
        assert_eq!(tile[3][5], 42.5);
        assert_eq!(tile[5][3], 0.0);
        // Element (7, 1) of za6.d is bytes 8..16 of array vector 7 * 8 + 6.
        let row = s.za_tile_rows_mut(6, ElementType::F64).nth(7).unwrap();
        row[8..16].copy_from_slice(&(-1.25f64).to_le_bytes());
        assert_eq!(&s.za_vector(62)[8..16], &(-1.25f64).to_le_bytes());
        // Element (0, 15) of za1.s (as i32) is bytes 60..64 of vector 1.
        let row = s.za_tile_rows_mut(1, ElementType::I32).next().unwrap();
        row[60..64].copy_from_slice(&(-77i32).to_le_bytes());
        assert_eq!(&s.za_vector(1)[60..64], &(-77i32).to_le_bytes());
        s.set_za_vector(1, &[0xCD; 64]);
        assert_eq!(s.za_vector(1), &[0xCD; 64]);
    }

    #[test]
    fn zero_d_tile_only_touches_its_vectors() {
        let mut s = state();
        // Fill all of ZA with a marker.
        for idx in 0..64 {
            let bytes = vec![0xAB; 64];
            s.set_za_vector(idx, &bytes);
        }
        s.zero_za_d_tile(0);
        // Vectors 0, 8, 16, ... are zero; vector 1 is untouched.
        assert!(s.za_vector(0).iter().all(|&b| b == 0));
        assert!(s.za_vector(8).iter().all(|&b| b == 0));
        assert!(s.za_vector(1).iter().all(|&b| b == 0xAB));
        s.zero_za();
        assert!(s.za().iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn za_vector_bounds_checked() {
        let s = state();
        let _ = s.za_vector(64);
    }

    #[test]
    fn different_svl_scales_geometry() {
        let s = CoreState::new(StreamingVectorLength::new(256));
        assert_eq!(s.vl_bytes(), 32);
        assert_eq!(s.za().len(), 1024);
        assert_eq!(s.za_tile_row_vector(0, ElementType::F32, 7), 28);
    }
}
