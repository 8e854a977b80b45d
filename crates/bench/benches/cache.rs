//! Host-side cost of the runtime's kernel cache.
//!
//! The cache exists so that steady-state traffic pays a hash lookup plus an
//! `Arc` clone instead of a full JIT generation. These benches measure both
//! sides of that trade for a representative shape, plus the cost of a
//! mixed-batch dispatch grouping.

use criterion::{criterion_group, criterion_main, Criterion};
use sme_gemm::{generate, AnyGemmConfig, GemmConfig};
use sme_runtime::{GemmRequest, GemmService, KernelCache};
use std::hint::black_box;

fn bench_hit_vs_generation(c: &mut Criterion) {
    let cfg = GemmConfig::abt(128, 128, 512);

    let key = AnyGemmConfig::Fp32(cfg);
    let cache = KernelCache::new(16);
    cache.get_or_compile_any(&key).unwrap();
    c.bench_function("cache_hit_128x128x512", |b| {
        b.iter(|| cache.get_or_compile_any(black_box(&key)).unwrap())
    });

    c.bench_function("fresh_generation_128x128x512", |b| {
        b.iter(|| generate(black_box(&cfg)).unwrap())
    });
}

fn bench_dispatch_grouping(c: &mut Criterion) {
    // Dispatch overhead on a warm cache: small kernels so the simulated
    // execution does not drown out the grouping/fan-out being measured.
    let service = GemmService::new(16);
    let requests: Vec<GemmRequest> = (0..32)
        .map(|i| GemmRequest::fp32(GemmConfig::abt(16 + 16 * (i % 4), 16, 8), i as u64))
        .collect();
    service.dispatch(&requests).unwrap();
    c.bench_function("dispatch_32_requests_4_configs_warm", |b| {
        b.iter(|| service.dispatch(black_box(&requests)).unwrap())
    });
}

criterion_group!(benches, bench_hit_vs_generation, bench_dispatch_grouping);
criterion_main!(benches);
