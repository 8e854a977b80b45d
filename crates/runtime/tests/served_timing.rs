//! The service's per-request timing is the timing model's.
//!
//! A served request runs functional-only and adds its kernel's memoized
//! timing (`RoutedKernel::serve`). This test holds that to the reference a
//! reader would write by hand: a fresh kernel — no memo — timed by a full
//! functional + timing run per request, each on a fresh simulator. Every
//! group's `ExecStats` and the batch total must match those sums exactly,
//! for a batch that mixes both datatypes, both FP32 B layouts and both
//! engines.

use sme_machine::exec::{RunOptions, Simulator};
use sme_machine::ExecStats;
use sme_runtime::{
    AnyGemmConfig, Backend, GemmConfig, GemmRequest, GemmService, WideningGemmConfig,
};

#[test]
fn group_stats_equal_fresh_full_runs_of_their_requests() {
    let service = GemmService::new(16);
    let row = GemmConfig::abt(33, 20, 12);
    let col = GemmConfig::ab(24, 16, 8);
    let wide = WideningGemmConfig::new(16, 6, 8).unwrap();
    let thin = WideningGemmConfig::new(8, 4, 4).unwrap();
    let requests = [
        GemmRequest::fp32(row, 1),
        GemmRequest::widening(wide, 2),
        GemmRequest::fp32(col, 3),
        GemmRequest::fp32(row, 4),
        GemmRequest::widening(wide, 5),
        GemmRequest::fp32(row, 6),
        GemmRequest::widening(thin, 7),
    ];
    let on_neon: [AnyGemmConfig; 2] = [row.into(), thin.into()];
    let route = |cfg: &AnyGemmConfig| {
        if on_neon.contains(cfg) {
            Backend::Neon
        } else {
            Backend::Sme
        }
    };
    let report = service.dispatch_routed(&requests, route).unwrap();
    assert!(report.failures.is_empty());
    assert_eq!(report.per_config.len(), 4);

    let mut total = ExecStats::default();
    for group in &report.per_config {
        assert_eq!(group.backend, route(&group.config));
        let kernel = sme_gemm::generate_any_backend(&group.config, group.backend).unwrap();
        let mut expected = ExecStats::default();
        for (index, request) in requests.iter().enumerate() {
            if request.config != group.config {
                continue;
            }
            let mut sim = Simulator::m4_performance();
            let bufs = kernel.allocate_buffers(&mut sim, Some(request.seed));
            expected.merge(&kernel.run(&mut sim, bufs, &RunOptions::default()).stats);
            assert_eq!(
                report.outputs[index],
                sim.mem.read_f32_slice(bufs.c, kernel.c_len()),
                "request {index}"
            );
        }
        assert_eq!(group.stats, expected, "{}", group.config);
        total.merge(&expected);
    }
    assert_eq!(report.total, total);
}
