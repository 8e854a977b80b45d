//! The datatype dimension of the serving stack.
//!
//! PR 3 made the execution *backend* a first-class dimension of every layer
//! (candidates, cache keys, routing, telemetry); this module does the same
//! for the *datatype*. [`AnyGemmConfig`] is the unified configuration key
//! the runtime cache, plan store, tuner, service and router are keyed on:
//! an FP32 kernel ([`GemmConfig`]) or a BF16 → FP32 widening kernel
//! ([`WideningGemmConfig`]) — the paper's §IV.D / §V second workload
//! family. Code that is generic over the datatype matches once here and
//! never again downstream; the one choice that also depends on the engine,
//! the operand packing, is made once by
//! [`crate::RoutedKernel::operand_layout`].

use crate::blocking::PlanCandidate;
use crate::config::{GemmConfig, GemmError};
use crate::widening::WideningGemmConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The datatype family of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dtype {
    /// FP32 inputs, FP32 accumulation (`FMOPA` / Neon `FMLA`).
    Fp32,
    /// BF16 inputs, FP32 accumulation (`BFMOPA` / Neon `BFMMLA`).
    WideningBf16,
}

impl Dtype {
    /// Stable textual name (used by the plan store's JSON format and the
    /// telemetry snapshot).
    pub fn name(self) -> &'static str {
        match self {
            Dtype::Fp32 => "Fp32",
            Dtype::WideningBf16 => "WideningBf16",
        }
    }

    /// Inverse of [`Dtype::name`].
    pub fn from_name(name: &str) -> Option<Dtype> {
        match name {
            "Fp32" => Some(Dtype::Fp32),
            "WideningBf16" => Some(Dtype::WideningBf16),
            _ => None,
        }
    }
}

impl fmt::Display for Dtype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The unified configuration key: one GEMM of either datatype family.
///
/// This is what the `sme-runtime` kernel cache and plan store key on, what
/// `GemmService` batches carry, and what the `sme-router` routes and counts
/// — so a serving deployment can mix FP32 and BF16 traffic through one
/// stack without parallel plumbing per datatype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnyGemmConfig {
    /// An FP32 kernel configuration.
    Fp32(GemmConfig),
    /// A BF16 → FP32 widening kernel configuration.
    WideningBf16(WideningGemmConfig),
}

impl AnyGemmConfig {
    /// The datatype family.
    pub fn dtype(&self) -> Dtype {
        match self {
            AnyGemmConfig::Fp32(_) => Dtype::Fp32,
            AnyGemmConfig::WideningBf16(_) => Dtype::WideningBf16,
        }
    }

    /// Rows of C.
    pub fn m(&self) -> usize {
        match self {
            AnyGemmConfig::Fp32(c) => c.m,
            AnyGemmConfig::WideningBf16(c) => c.m,
        }
    }

    /// Columns of C.
    pub fn n(&self) -> usize {
        match self {
            AnyGemmConfig::Fp32(c) => c.n,
            AnyGemmConfig::WideningBf16(c) => c.n,
        }
    }

    /// Contraction dimension.
    pub fn k(&self) -> usize {
        match self {
            AnyGemmConfig::Fp32(c) => c.k,
            AnyGemmConfig::WideningBf16(c) => c.k,
        }
    }

    /// Floating-point operations per kernel execution.
    pub fn flops(&self) -> u64 {
        match self {
            AnyGemmConfig::Fp32(c) => c.flops(),
            AnyGemmConfig::WideningBf16(c) => c.flops(),
        }
    }

    /// Number of `f32` elements the C output buffer holds.
    pub fn c_len(&self) -> usize {
        match self {
            AnyGemmConfig::Fp32(c) => c.c_len(),
            AnyGemmConfig::WideningBf16(c) => c.c_len(),
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), GemmError> {
        match self {
            AnyGemmConfig::Fp32(c) => c.validate(),
            AnyGemmConfig::WideningBf16(c) => c.validate(),
        }
    }

    /// The FP32 configuration, when this is the FP32 family.
    pub fn as_fp32(&self) -> Option<&GemmConfig> {
        match self {
            AnyGemmConfig::Fp32(c) => Some(c),
            AnyGemmConfig::WideningBf16(_) => None,
        }
    }

    /// The widening configuration, when this is the BF16 family.
    pub fn as_widening(&self) -> Option<&WideningGemmConfig> {
        match self {
            AnyGemmConfig::Fp32(_) => None,
            AnyGemmConfig::WideningBf16(c) => Some(c),
        }
    }

    /// Deterministic ordering key — datatype first, then shape and the
    /// FP32-only layout fields — shared by everything that needs a stable
    /// order over mixed-datatype configurations (the plan store's
    /// serialization, the telemetry ranking's tie-break).
    #[allow(clippy::type_complexity)]
    pub fn ordering_key(&self) -> (u8, usize, usize, usize, usize, usize, usize, bool, bool) {
        match self {
            AnyGemmConfig::Fp32(c) => (
                0,
                c.m,
                c.n,
                c.k,
                c.lda,
                c.ldb,
                c.ldc,
                c.b_layout == crate::config::BLayout::ColMajor,
                c.beta == crate::config::Beta::One,
            ),
            AnyGemmConfig::WideningBf16(c) => (1, c.m, c.n, c.k, 0, 0, 0, false, false),
        }
    }
}

impl From<GemmConfig> for AnyGemmConfig {
    fn from(cfg: GemmConfig) -> Self {
        AnyGemmConfig::Fp32(cfg)
    }
}

impl From<WideningGemmConfig> for AnyGemmConfig {
    fn from(cfg: WideningGemmConfig) -> Self {
        AnyGemmConfig::WideningBf16(cfg)
    }
}

impl fmt::Display for AnyGemmConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnyGemmConfig::Fp32(c) => write!(f, "{c}"),
            AnyGemmConfig::WideningBf16(c) => write!(f, "{c}"),
        }
    }
}

/// Enumerate the tuning candidates for a configuration of either datatype
/// (see [`crate::enumerate_candidates`] for the FP32 space and
/// [`crate::widening::enumerate_widening_candidates`] for the widening
/// space).
pub fn enumerate_any_candidates(cfg: &AnyGemmConfig) -> Vec<PlanCandidate> {
    match cfg {
        AnyGemmConfig::Fp32(c) => crate::blocking::enumerate_candidates(c),
        AnyGemmConfig::WideningBf16(c) => crate::widening::enumerate_widening_candidates(c),
    }
}

/// The candidate a datatype's generator would use with no tuning — the
/// baseline an argmin over [`enumerate_any_candidates`] can never lose to.
pub fn default_any_candidate(cfg: &AnyGemmConfig) -> PlanCandidate {
    match cfg {
        AnyGemmConfig::Fp32(c) => PlanCandidate::default_for(c),
        AnyGemmConfig::WideningBf16(c) => crate::widening::default_widening_candidate(c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_dispatch_on_the_family() {
        let fp32: AnyGemmConfig = GemmConfig::abt(32, 16, 8).into();
        assert_eq!(fp32.dtype(), Dtype::Fp32);
        assert_eq!((fp32.m(), fp32.n(), fp32.k()), (32, 16, 8));
        assert_eq!(fp32.flops(), 2 * 32 * 16 * 8);
        assert_eq!(fp32.c_len(), 32 * 16);
        assert!(fp32.as_fp32().is_some());
        assert!(fp32.as_widening().is_none());
        assert!(fp32.validate().is_ok());

        let wide: AnyGemmConfig = WideningGemmConfig::new(32, 32, 4).unwrap().into();
        assert_eq!(wide.dtype(), Dtype::WideningBf16);
        assert_eq!((wide.m(), wide.n(), wide.k()), (32, 32, 4));
        assert!(wide.as_widening().is_some());
        assert!(wide.as_fp32().is_none());
        assert!(wide.to_string().contains("BF16"));
    }

    #[test]
    fn dtype_names_round_trip() {
        for dtype in [Dtype::Fp32, Dtype::WideningBf16] {
            assert_eq!(Dtype::from_name(dtype.name()), Some(dtype));
        }
        assert_eq!(Dtype::from_name("Fp64"), None);
    }

    #[test]
    fn keys_of_different_dtypes_never_collide() {
        use std::collections::HashSet;
        let fp32: AnyGemmConfig = GemmConfig::abt(32, 32, 4).into();
        let wide: AnyGemmConfig = WideningGemmConfig::new(32, 32, 4).unwrap().into();
        assert_ne!(fp32, wide, "same shape, different dtype, distinct key");
        let set: HashSet<AnyGemmConfig> = [fp32, wide].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn candidate_enumeration_covers_both_families() {
        let fp32: AnyGemmConfig = GemmConfig::abt(64, 64, 64).into();
        assert!(!enumerate_any_candidates(&fp32).is_empty());
        assert!(enumerate_any_candidates(&fp32).contains(&default_any_candidate(&fp32)));
        let wide: AnyGemmConfig = WideningGemmConfig::new(64, 64, 8).unwrap().into();
        let candidates = enumerate_any_candidates(&wide);
        assert!(candidates.contains(&default_any_candidate(&wide)));
    }
}
