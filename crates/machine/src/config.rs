//! Machine configuration: clocks, per-operation timings, cache hierarchy
//! and multicore topology.
//!
//! The [`MachineConfig::apple_m4`] preset is calibrated against the paper's
//! own measurements: the per-instruction throughputs reproduce Table I, the
//! outer-product latency reproduces the single-tile throughput drop reported
//! in §III-C, the memory rates reproduce the plateaus of Figs. 2–3 and the
//! topology reproduces the scaling of Fig. 1. The calibration constants are
//! documented inline next to the paper figure they target.

use crate::timing::op::OpKind;
use serde::{Deserialize, Serialize};
use sme_isa::types::StreamingVectorLength;
use std::collections::BTreeMap;

/// Kind of CPU core a kernel runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CoreKind {
    /// Performance core (the paper's "user-interactive" threads).
    Performance,
    /// Efficiency core (the paper's "utility" threads).
    Efficiency,
}

impl CoreKind {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            CoreKind::Performance => "P-core",
            CoreKind::Efficiency => "E-core",
        }
    }
}

/// Throughput and result latency of one operation kind on one core kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpTiming {
    /// Sustained issue throughput in operations per core cycle.
    pub per_cycle: f64,
    /// Cycles until a dependent operation can consume the result.
    pub latency: f64,
}

impl OpTiming {
    /// Construct a timing entry.
    pub fn new(per_cycle: f64, latency: f64) -> Self {
        assert!(per_cycle > 0.0, "throughput must be positive");
        assert!(latency >= 0.0, "latency must be non-negative");
        OpTiming { per_cycle, latency }
    }

    /// Issue interval in cycles (reciprocal throughput).
    pub fn interval(&self) -> f64 {
        1.0 / self.per_cycle
    }
}

/// Per-core timing table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreTimings {
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Per-operation timings; operations missing from the map use
    /// `default`.
    pub ops: BTreeMap<OpKind, OpTiming>,
    /// Fallback timing.
    pub default: OpTiming,
}

impl CoreTimings {
    /// Timing entry for an operation kind.
    pub fn op(&self, kind: OpKind) -> OpTiming {
        self.ops.get(&kind).copied().unwrap_or(self.default)
    }
}

/// One level of the modelled cache/memory hierarchy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheLevel {
    /// Human-readable name ("L1", "L2", "SLC", "DRAM").
    pub name: String,
    /// Capacity in bytes (`u64::MAX` for the backing memory).
    pub capacity: u64,
    /// Absolute read bandwidth cap in GiB/s.
    pub load_cap_gibs: f64,
    /// Absolute write bandwidth cap in GiB/s.
    pub store_cap_gibs: f64,
    /// Additional load-to-use latency in core cycles.
    pub load_latency: f64,
}

impl MemTimings {
    /// Peak transfer rate of a memory strategy in bytes per core cycle
    /// (falling back to [`MemTimings::default_rate`] for kinds missing
    /// from the table) — the single home of this lookup for the tuner
    /// pre-filter.
    pub fn rate(&self, op: OpKind) -> f64 {
        self.strategy_rate
            .get(&op)
            .copied()
            .unwrap_or(self.default_rate)
    }
}

/// Memory-system timing parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemTimings {
    /// Cache hierarchy ordered from innermost to outermost.
    pub levels: Vec<CacheLevel>,
    /// Peak per-strategy transfer rate in bytes per core cycle (what the
    /// load/store pipes can sustain when the working set is cache
    /// resident); keyed by the memory [`OpKind`].
    pub strategy_rate: BTreeMap<OpKind, f64>,
    /// Minimum address alignment (bytes) required for the full strategy
    /// rate; absent entries have no alignment sensitivity.
    pub full_rate_alignment: BTreeMap<OpKind, u64>,
    /// Rate multiplier applied when the alignment requirement is not met.
    pub misaligned_factor: BTreeMap<OpKind, f64>,
    /// Working-set threshold (bytes) below which aligned stores get a
    /// bandwidth boost (the <8 KiB effect in Fig. 5).
    pub small_store_threshold: u64,
    /// Multiplier applied to ≥64-byte-aligned stores below the threshold.
    pub small_store_aligned_boost: f64,
    /// Fallback rate for memory kinds missing from `strategy_rate`.
    pub default_rate: f64,
}

/// Multicore topology and shared SME unit parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MulticoreConfig {
    /// Number of performance cores (4 on M4).
    pub p_cores: usize,
    /// Number of efficiency cores (6 on M4).
    pub e_cores: usize,
    /// Number of SME units (the paper's Fig. 1 analysis concludes two: one
    /// associated with the P-core cluster and one with the E-core cluster).
    pub sme_units: usize,
    /// Fractional throughput lost per additional thread sharing one SME
    /// unit (the 2009 → 1983 GFLOPS drop from one to four threads in
    /// §III-F corresponds to ≈ 0.43 % per extra sharer).
    pub sme_share_overhead: f64,
    /// Fraction of a user-interactive thread's work that spills to
    /// efficiency cores once all performance cores are busy (Fig. 1 shows
    /// each thread beyond four adding ≈ one E-core of Neon throughput).
    pub ui_spill_efficiency: f64,
    /// Per-additional-thread scaling loss inside the performance cluster
    /// for core-private (Neon) work: Fig. 1 reports 395 GFLOPS with four
    /// threads instead of the ideal 4 × 113 = 452, i.e. ≈ 4.2 % loss per
    /// extra thread.
    pub p_cluster_scaling_overhead: f64,
}

/// Full machine model configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Streaming vector length (512 bits on M4).
    pub svl: StreamingVectorLength,
    /// Performance-core timing table.
    pub p_core: CoreTimings,
    /// Efficiency-core timing table.
    pub e_core: CoreTimings,
    /// Memory-system parameters.
    pub mem: MemTimings,
    /// Multicore topology.
    pub multicore: MulticoreConfig,
}

impl MachineConfig {
    /// Timing table for a core kind.
    pub fn core(&self, kind: CoreKind) -> &CoreTimings {
        match kind {
            CoreKind::Performance => &self.p_core,
            CoreKind::Efficiency => &self.e_core,
        }
    }

    /// The calibrated Apple M4 model used throughout the reproduction.
    pub fn apple_m4() -> Self {
        let svl = StreamingVectorLength::M4;

        // ---- performance core ------------------------------------------------
        // Clock: 4.4 GHz. The per-op throughputs below are chosen so that
        // `per_cycle * clock * ops_per_instruction` reproduces Table I.
        let mut p_ops = BTreeMap::new();
        // Neon FMLA: 3.21/cycle * 4.4 GHz * 8 FP32 ops = 113 GFLOPS
        // (FP16 → 226, FP64 → 56.5; Table I: 220 / 56).
        p_ops.insert(OpKind::NeonFmla, OpTiming::new(3.21, 3.0));
        // BFMMLA: 0.476/cycle * 4.4 * 32 = 67 GOPS.
        p_ops.insert(OpKind::NeonBfmmla, OpTiming::new(0.476, 4.0));
        p_ops.insert(OpKind::NeonOther, OpTiming::new(4.0, 2.0));
        // FMOPA (non-widening): 0.892/cycle * 4.4 * 512 = 2009 FP32 GFLOPS,
        // * 128 = 502 FP64 GFLOPS. The latency is four SME-unit issue slots
        // (4 / 0.892 ≈ 4.48 core cycles), which reproduces the 2009 → 502
        // GFLOPS drop when accumulating into a single ZA tile (§III-C) and
        // the observation that four tiles suffice for peak throughput.
        p_ops.insert(OpKind::SmeFmopaF32, OpTiming::new(0.892, 4.0 / 0.892));
        p_ops.insert(OpKind::SmeFmopaF64, OpTiming::new(0.892, 4.0 / 0.892));
        // Widening MOPA: 0.446/cycle * 4.4 * 1024 = 2010 GFLOPS (BF16/FP16),
        // * 2048 = 4018 GOPS (I8), * 1024 = 2010 GOPS (I16). Latency is four
        // unit slots, as for the non-widening forms.
        p_ops.insert(OpKind::SmeFmopaWide, OpTiming::new(0.446, 4.0 / 0.446));
        p_ops.insert(OpKind::SmeSmopaI8, OpTiming::new(0.446, 4.0 / 0.446));
        p_ops.insert(OpKind::SmeSmopaI16, OpTiming::new(0.446, 4.0 / 0.446));
        // SME2 multi-vector FMLA: 0.89/cycle * 4.4 * 128 = 501 FP32 GFLOPS,
        // * 64 = 251 FP64 GFLOPS.
        p_ops.insert(OpKind::SmeFmlaVec, OpTiming::new(0.89, 4.0));
        // SSVE single-vector FMLA: 0.222/cycle * 4.4 * 32 = 31 FP32 GFLOPS.
        p_ops.insert(OpKind::SsveFmla, OpTiming::new(0.222, 4.0));
        // MOVA rates chosen so the two-step ZA load path sustains the
        // 925 GiB/s of Fig. 2 (four-register groups) while single-register
        // moves keep up with single-vector loads.
        p_ops.insert(OpKind::SmeMova1, OpTiming::new(2.0, 2.0));
        p_ops.insert(OpKind::SmeMova2, OpTiming::new(1.4, 2.0));
        p_ops.insert(OpKind::SmeMova4, OpTiming::new(0.89, 2.0));
        p_ops.insert(OpKind::SmeZero, OpTiming::new(1.0, 4.0));
        p_ops.insert(OpKind::SmeControl, OpTiming::new(0.02, 0.0));
        p_ops.insert(OpKind::IntAlu, OpTiming::new(6.0, 1.0));
        p_ops.insert(OpKind::Branch, OpTiming::new(2.0, 1.0));
        p_ops.insert(OpKind::SvePred, OpTiming::new(1.0, 1.0));
        p_ops.insert(OpKind::SveOther, OpTiming::new(2.0, 2.0));
        let p_core = CoreTimings {
            clock_ghz: 4.4,
            ops: p_ops,
            default: OpTiming::new(2.0, 2.0),
        };

        // ---- efficiency core -------------------------------------------------
        // Clock: 2.89 GHz.
        let mut e_ops = BTreeMap::new();
        // Neon FMLA: 1.99/cycle * 2.89 * 8 = 46 GFLOPS (FP16 92, FP64 23).
        e_ops.insert(OpKind::NeonFmla, OpTiming::new(1.99, 3.0));
        // BFMMLA: 0.335/cycle * 2.89 * 32 = 31 GOPS.
        e_ops.insert(OpKind::NeonBfmmla, OpTiming::new(0.335, 4.0));
        e_ops.insert(OpKind::NeonOther, OpTiming::new(3.0, 2.0));
        // FMOPA: 0.241/cycle * 2.89 * 512 = 357 FP32 GFLOPS, * 128 = 89 FP64.
        e_ops.insert(OpKind::SmeFmopaF32, OpTiming::new(0.241, 4.0 / 0.241));
        e_ops.insert(OpKind::SmeFmopaF64, OpTiming::new(0.241, 4.0 / 0.241));
        // Widening: 0.1205/cycle * 2.89 * 1024 = 357 GFLOPS, I8 → 714 GOPS.
        e_ops.insert(OpKind::SmeFmopaWide, OpTiming::new(0.1205, 4.0 / 0.1205));
        e_ops.insert(OpKind::SmeSmopaI8, OpTiming::new(0.1205, 4.0 / 0.1205));
        e_ops.insert(OpKind::SmeSmopaI16, OpTiming::new(0.1205, 4.0 / 0.1205));
        // SME2 multi-vector FMLA: 0.484/cycle * 2.89 * 128 = 179 GFLOPS.
        e_ops.insert(OpKind::SmeFmlaVec, OpTiming::new(0.484, 4.0));
        // SSVE FMLA: 0.238/cycle * 2.89 * 32 = 22 GFLOPS.
        e_ops.insert(OpKind::SsveFmla, OpTiming::new(0.238, 4.0));
        e_ops.insert(OpKind::SmeMova1, OpTiming::new(1.0, 2.0));
        e_ops.insert(OpKind::SmeMova2, OpTiming::new(0.7, 2.0));
        e_ops.insert(OpKind::SmeMova4, OpTiming::new(0.45, 2.0));
        e_ops.insert(OpKind::SmeZero, OpTiming::new(0.5, 4.0));
        e_ops.insert(OpKind::SmeControl, OpTiming::new(0.02, 0.0));
        e_ops.insert(OpKind::IntAlu, OpTiming::new(4.0, 1.0));
        e_ops.insert(OpKind::Branch, OpTiming::new(1.5, 1.0));
        e_ops.insert(OpKind::SvePred, OpTiming::new(1.0, 1.0));
        e_ops.insert(OpKind::SveOther, OpTiming::new(1.5, 2.0));
        let e_core = CoreTimings {
            clock_ghz: 2.89,
            ops: e_ops,
            default: OpTiming::new(1.5, 2.0),
        };

        // ---- memory system ---------------------------------------------------
        // Strategy rates (bytes per P-core cycle): 1 B/cycle ≈ 4.1 GiB/s at
        // 4.4 GHz. Calibration targets from §III-G:
        //   LDR (array vector)   ≈ 375 GiB/s  → 91.5 B/cycle
        //   LD1W 4VR + MOVA      ≈ 925 GiB/s  → load pipe 240 B/cycle,
        //                                      pair limited by MOVA4 0.89/c
        //   LD1W 2VR             "significantly lower"  → 130 B/cycle
        //   STR (array vector)   ≈ 233 GiB/s  → 57 B/cycle
        //   ST1W variants        no improvement         → 54–60 B/cycle
        let mut strategy_rate = BTreeMap::new();
        strategy_rate.insert(OpKind::LoadLdrZa, 91.5);
        strategy_rate.insert(OpKind::LoadLd1Single, 91.5);
        strategy_rate.insert(OpKind::LoadLd1Multi2, 130.0);
        strategy_rate.insert(OpKind::LoadLd1Multi4, 240.0);
        strategy_rate.insert(OpKind::LoadLdrZ, 91.5);
        strategy_rate.insert(OpKind::NeonLoad, 64.0);
        strategy_rate.insert(OpKind::StoreStrZa, 57.0);
        strategy_rate.insert(OpKind::StoreSt1Single, 54.0);
        strategy_rate.insert(OpKind::StoreSt1Multi2, 58.0);
        strategy_rate.insert(OpKind::StoreSt1Multi4, 60.0);
        strategy_rate.insert(OpKind::StoreStrZ, 54.0);
        strategy_rate.insert(OpKind::NeonStore, 32.0);

        // Alignment sensitivity (Figs. 4–5): LDR (array vector) needs 64-byte
        // alignment for full bandwidth; the four-register load needs 128-byte
        // alignment; the one- and two-register variants are insensitive.
        let mut full_rate_alignment = BTreeMap::new();
        full_rate_alignment.insert(OpKind::LoadLdrZa, 64);
        full_rate_alignment.insert(OpKind::LoadLd1Multi4, 128);
        let mut misaligned_factor = BTreeMap::new();
        misaligned_factor.insert(OpKind::LoadLdrZa, 0.70);
        misaligned_factor.insert(OpKind::LoadLd1Multi4, 0.75);

        let mem = MemTimings {
            levels: vec![
                CacheLevel {
                    name: "L1".into(),
                    capacity: 128 * 1024,
                    load_cap_gibs: f64::INFINITY,
                    store_cap_gibs: f64::INFINITY,
                    load_latency: 6.0,
                },
                // The bandwidth plateaus of Figs. 2–3 extend to ≈ 8 MiB.
                CacheLevel {
                    name: "L2".into(),
                    capacity: 8 * 1024 * 1024,
                    load_cap_gibs: f64::INFINITY,
                    store_cap_gibs: f64::INFINITY,
                    load_latency: 22.0,
                },
                CacheLevel {
                    name: "SLC".into(),
                    capacity: 36 * 1024 * 1024,
                    load_cap_gibs: 460.0,
                    store_cap_gibs: 220.0,
                    load_latency: 60.0,
                },
                CacheLevel {
                    name: "DRAM".into(),
                    capacity: u64::MAX,
                    load_cap_gibs: 120.0,
                    store_cap_gibs: 90.0,
                    load_latency: 130.0,
                },
            ],
            strategy_rate,
            full_rate_alignment,
            misaligned_factor,
            small_store_threshold: 8 * 1024,
            small_store_aligned_boost: 1.15,
            default_rate: 48.0,
        };

        let multicore = MulticoreConfig {
            p_cores: 4,
            e_cores: 6,
            sme_units: 2,
            sme_share_overhead: 0.0043,
            ui_spill_efficiency: 1.0,
            p_cluster_scaling_overhead: 0.042,
        };

        MachineConfig {
            svl,
            p_core,
            e_core,
            mem,
            multicore,
        }
    }

    /// A hypothetical machine with a different streaming vector length but
    /// otherwise M4-like timing (used by what-if experiments and tests).
    pub fn with_svl(svl_bits: u32) -> Self {
        let mut cfg = Self::apple_m4();
        cfg.svl = StreamingVectorLength::new(svl_bits);
        cfg
    }

    /// Peak throughput of issuing `op` back-to-back on one core of `kind`,
    /// in GFLOPS/GOPS, given the operations each instruction performs (the
    /// Table I microbenchmark quantity).
    pub fn peak_gflops(&self, kind: CoreKind, op: OpKind, ops_per_inst: f64) -> f64 {
        let core = self.core(kind);
        core.op(op).per_cycle * core.clock_ghz * ops_per_inst
    }

    /// A stable 64-bit fingerprint of every timing parameter of the model.
    ///
    /// Persisted artifacts tuned against the timing model (the
    /// `sme-runtime` plan store) stamp themselves with this value so a later
    /// process can detect that the calibration changed and re-tune instead
    /// of silently dispatching stale winners. The hash is FNV-1a over a
    /// fixed-order serialization of the fields (`BTreeMap` iteration is
    /// sorted, `f64`s hash by bit pattern), so it is reproducible across
    /// runs, platforms and — unlike `DefaultHasher` — Rust releases.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.svl.bits() as u64);
        for core in [&self.p_core, &self.e_core] {
            h.write_f64(core.clock_ghz);
            h.write_f64(core.default.per_cycle);
            h.write_f64(core.default.latency);
            for (kind, timing) in &core.ops {
                h.write_str(&format!("{kind:?}"));
                h.write_f64(timing.per_cycle);
                h.write_f64(timing.latency);
            }
        }
        for level in &self.mem.levels {
            h.write_str(&level.name);
            h.write_u64(level.capacity);
            h.write_f64(level.load_cap_gibs);
            h.write_f64(level.store_cap_gibs);
            h.write_f64(level.load_latency);
        }
        for (kind, rate) in &self.mem.strategy_rate {
            h.write_str(&format!("{kind:?}"));
            h.write_f64(*rate);
        }
        for (kind, align) in &self.mem.full_rate_alignment {
            h.write_str(&format!("{kind:?}"));
            h.write_u64(*align);
        }
        for (kind, factor) in &self.mem.misaligned_factor {
            h.write_str(&format!("{kind:?}"));
            h.write_f64(*factor);
        }
        h.write_u64(self.mem.small_store_threshold);
        h.write_f64(self.mem.small_store_aligned_boost);
        h.write_f64(self.mem.default_rate);
        let mc = &self.multicore;
        h.write_u64(mc.p_cores as u64);
        h.write_u64(mc.e_cores as u64);
        h.write_u64(mc.sme_units as u64);
        h.write_f64(mc.sme_share_overhead);
        h.write_f64(mc.ui_spill_efficiency);
        h.write_f64(mc.p_cluster_scaling_overhead);
        h.finish()
    }
}

/// Minimal FNV-1a hasher used by [`MachineConfig::fingerprint`] (the
/// standard library's `DefaultHasher` is explicitly not stable across
/// releases).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
        // Length terminator so "ab"+"c" and "a"+"bc" hash differently.
        self.write_u64(s.len() as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::apple_m4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// GFLOPS produced by issuing `kind` back-to-back with operations that
    /// never stall (the Table I microbenchmark situation).
    fn peak_gflops(cfg: &MachineConfig, kind: CoreKind, op: OpKind, ops_per_inst: f64) -> f64 {
        cfg.peak_gflops(kind, op, ops_per_inst)
    }

    #[test]
    fn fingerprint_is_stable_and_timing_sensitive() {
        let base = MachineConfig::apple_m4();
        assert_eq!(
            base.fingerprint(),
            MachineConfig::apple_m4().fingerprint(),
            "identical configs must fingerprint identically"
        );
        // Every class of timing parameter moves the fingerprint.
        let mut clock = base.clone();
        clock.p_core.clock_ghz = 4.5;
        assert_ne!(clock.fingerprint(), base.fingerprint());
        let mut op = base.clone();
        op.e_core
            .ops
            .insert(OpKind::NeonFmla, OpTiming::new(2.0, 3.0));
        assert_ne!(op.fingerprint(), base.fingerprint());
        let mut mem = base.clone();
        mem.mem.default_rate += 1.0;
        assert_ne!(mem.fingerprint(), base.fingerprint());
        let mut topo = base.clone();
        topo.multicore.sme_units = 1;
        assert_ne!(topo.fingerprint(), base.fingerprint());
        let svl = MachineConfig::with_svl(256);
        assert_ne!(svl.fingerprint(), base.fingerprint());
    }

    #[test]
    fn table_one_calibration_p_core() {
        let cfg = MachineConfig::apple_m4();
        let p = CoreKind::Performance;
        assert!((peak_gflops(&cfg, p, OpKind::NeonFmla, 8.0) - 113.0).abs() < 1.5);
        assert!((peak_gflops(&cfg, p, OpKind::NeonFmla, 4.0) - 56.0).abs() < 1.0);
        assert!((peak_gflops(&cfg, p, OpKind::NeonFmla, 16.0) - 220.0).abs() < 7.0);
        assert!((peak_gflops(&cfg, p, OpKind::NeonBfmmla, 32.0) - 67.0).abs() < 1.0);
        assert!((peak_gflops(&cfg, p, OpKind::SmeFmopaF32, 512.0) - 2009.0).abs() < 5.0);
        assert!((peak_gflops(&cfg, p, OpKind::SmeFmopaF64, 128.0) - 503.0).abs() < 2.0);
        assert!((peak_gflops(&cfg, p, OpKind::SmeFmopaWide, 1024.0) - 2010.0).abs() < 5.0);
        assert!((peak_gflops(&cfg, p, OpKind::SmeSmopaI8, 2048.0) - 4017.0).abs() < 10.0);
        assert!((peak_gflops(&cfg, p, OpKind::SmeSmopaI16, 1024.0) - 2010.0).abs() < 5.0);
        assert!((peak_gflops(&cfg, p, OpKind::SmeFmlaVec, 128.0) - 501.0).abs() < 1.5);
        assert!((peak_gflops(&cfg, p, OpKind::SmeFmlaVec, 64.0) - 251.0).abs() < 1.0);
        assert!((peak_gflops(&cfg, p, OpKind::SsveFmla, 32.0) - 31.0).abs() < 1.0);
    }

    #[test]
    fn table_one_calibration_e_core() {
        let cfg = MachineConfig::apple_m4();
        let e = CoreKind::Efficiency;
        assert!((peak_gflops(&cfg, e, OpKind::NeonFmla, 8.0) - 46.0).abs() < 1.0);
        assert!((peak_gflops(&cfg, e, OpKind::NeonFmla, 16.0) - 91.0).abs() < 2.5);
        assert!((peak_gflops(&cfg, e, OpKind::NeonFmla, 4.0) - 23.0).abs() < 0.5);
        assert!((peak_gflops(&cfg, e, OpKind::NeonBfmmla, 32.0) - 31.0).abs() < 0.5);
        assert!((peak_gflops(&cfg, e, OpKind::SmeFmopaF32, 512.0) - 357.0).abs() < 1.5);
        assert!((peak_gflops(&cfg, e, OpKind::SmeFmopaF64, 128.0) - 89.0).abs() < 0.5);
        assert!((peak_gflops(&cfg, e, OpKind::SmeSmopaI8, 2048.0) - 715.0).abs() < 3.0);
        assert!((peak_gflops(&cfg, e, OpKind::SmeFmlaVec, 128.0) - 179.0).abs() < 1.0);
        assert!((peak_gflops(&cfg, e, OpKind::SsveFmla, 32.0) - 22.0).abs() < 0.5);
    }

    #[test]
    fn single_tile_latency_matches_paper() {
        // With only one ZA tile the FMOPA dependency chain limits
        // throughput to 1/latency per cycle: 2009/4 ≈ 502 GFLOPS (§III-C).
        let cfg = MachineConfig::apple_m4();
        let t = cfg.p_core.op(OpKind::SmeFmopaF32);
        let chained = cfg.p_core.clock_ghz / t.latency * 512.0;
        assert!((chained - 502.0).abs() < 2.0, "got {chained}");
    }

    #[test]
    fn memory_rates_match_figure_plateaus() {
        let cfg = MachineConfig::apple_m4();
        let to_gibs = |bpc: f64| bpc * cfg.p_core.clock_ghz * 1e9 / (1u64 << 30) as f64;
        let ldr = to_gibs(cfg.mem.strategy_rate[&OpKind::LoadLdrZa]);
        assert!((ldr - 375.0).abs() < 10.0, "LDR plateau {ldr}");
        let str_za = to_gibs(cfg.mem.strategy_rate[&OpKind::StoreStrZa]);
        assert!((str_za - 233.0).abs() < 10.0, "STR plateau {str_za}");
        // Four-register loads must exceed 925 GiB/s on the load pipe so the
        // MOVA rate becomes the limiter.
        assert!(to_gibs(cfg.mem.strategy_rate[&OpKind::LoadLd1Multi4]) > 925.0);
    }

    #[test]
    fn topology_matches_m4() {
        let cfg = MachineConfig::apple_m4();
        assert_eq!(cfg.multicore.p_cores, 4);
        assert_eq!(cfg.multicore.e_cores, 6);
        assert_eq!(cfg.multicore.sme_units, 2);
        assert_eq!(cfg.svl.bits(), 512);
    }

    #[test]
    fn defaults_and_lookup() {
        let cfg = MachineConfig::default();
        assert_eq!(cfg.core(CoreKind::Performance).clock_ghz, 4.4);
        assert_eq!(cfg.core(CoreKind::Efficiency).clock_ghz, 2.89);
        // Unknown op kinds fall back to the default timing.
        let t = cfg.p_core.op(OpKind::NeonLoad);
        assert_eq!(t, cfg.p_core.default);
        let custom = MachineConfig::with_svl(256);
        assert_eq!(custom.svl.bits(), 256);
    }

    #[test]
    #[should_panic(expected = "throughput must be positive")]
    fn op_timing_validated() {
        let _ = OpTiming::new(0.0, 1.0);
    }
}
