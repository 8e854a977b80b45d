//! Property-based sweep of the packed-operand cache.
//!
//! The serving guarantee: a dispatch whose operand images replay from the
//! [`sme_runtime::PackedOperandCache`] is **bit-identical** to one that
//! repacks them from the seed — including after the entries are
//! invalidated, when the next dispatch must transparently repack and
//! produce the same bytes again.

use proptest::prelude::*;
use sme_runtime::{GemmConfig, GemmRequest, GemmService, WideningGemmConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pack-hit dispatches and repack dispatches agree bit for bit, before
    /// and after invalidation, for mixed FP32/widening traffic.
    #[test]
    fn pack_hits_are_bit_identical_to_repacks_across_invalidation(
        shape in (1usize..=48, 1usize..=48, 1usize..=12, 1usize..=4, 1usize..=8, 0u64..1000),
    ) {
        let (m, n, k2, w32, wk2, seed) = shape;
        let fp32 = GemmConfig::abt(m, n, 2 * k2);
        let widening = WideningGemmConfig::new(32 * w32.min(2), 32, 2 * wk2)
            .expect("on the widening envelope grid");
        let requests = [
            GemmRequest::fp32(fp32, seed),
            GemmRequest::widening(widening, seed),
            GemmRequest::fp32(fp32, seed), // same operands: pack hit within the batch
        ];

        let service = GemmService::new(16);
        let cold = service.dispatch(&requests).expect("valid batch");
        let warm = service.dispatch(&requests).expect("valid batch");
        prop_assert_eq!(&cold.outputs, &warm.outputs, "hit path must replay exact bytes");

        let packs = service.cache().packs().stats();
        prop_assert_eq!(packs.misses, 2, "one pack per distinct operand set");
        prop_assert_eq!(packs.hits, 4, "repeats inside and across batches hit");
        prop_assert_eq!(warm.pack_hit_ratio(), 1.0, "warm batch is all pack hits");

        // Invalidation drops the packed entries; the next dispatch repacks
        // from the seed and must reproduce the same outputs.
        service.cache().invalidate_any(&fp32.into());
        service.cache().invalidate_any(&widening.into());
        prop_assert!(service.cache().packs().is_empty(), "all entries invalidated");
        let repacked = service.dispatch(&requests).expect("valid batch");
        prop_assert_eq!(&cold.outputs, &repacked.outputs, "repack after invalidation agrees");
        prop_assert_eq!(
            service.cache().packs().stats().misses, 4,
            "invalidated operand sets packed again"
        );
    }
}
