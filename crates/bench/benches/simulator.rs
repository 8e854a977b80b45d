//! Host-side throughput of the machine simulator (simulated instructions
//! per second), functionally and in timing-only mode, plus what a served
//! request costs now that each kernel is timed once: a functional-only run
//! and a read of the kernel's memoized timing.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sme_gemm::{generate, GemmConfig};
use sme_machine::exec::{RunOptions, Simulator};
use std::hint::black_box;

fn bench_simulator(c: &mut Criterion) {
    let cfg = GemmConfig::abt(64, 64, 64);
    let kernel = generate(&cfg).unwrap();
    let mut sim = Simulator::m4_performance();
    let bufs = kernel.allocate_buffers(&mut sim, Some(1));
    let insts = {
        let mut probe = sim.clone();
        kernel
            .run(&mut probe, bufs, &RunOptions::functional_only())
            .stats
            .instructions
    };
    // Time the kernel once up front, as the serving path's first request
    // does; every case below then reads the memo.
    kernel.model_stats();

    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Elements(insts));
    group.bench_function("functional_64x64x64", |b| {
        b.iter(|| {
            let mut s = sim.clone();
            black_box(kernel.run(&mut s, bufs, &RunOptions::functional_only()))
        })
    });
    group.bench_function("functional_plus_timing_64x64x64", |b| {
        b.iter(|| {
            let mut s = sim.clone();
            black_box(kernel.run(&mut s, bufs, &RunOptions::default()))
        })
    });
    group.bench_function("timing_only_64x64x64", |b| {
        b.iter(|| {
            let mut s = sim.clone();
            black_box(kernel.run(&mut s, bufs, &RunOptions::timing_only()))
        })
    });
    group.bench_function("served_request_64x64x64", |b| {
        b.iter(|| {
            let mut s = sim.clone();
            black_box(kernel.serve(&mut s, bufs).cycles)
        })
    });
    group.finish();

    // No simulated instructions here: a memo hit is a `OnceLock` read.
    c.bench_function("simulator/model_stats_memo_hit_64x64x64", |b| {
        b.iter(|| black_box(kernel.model_stats().cycles))
    });
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
