//! Fast smoke test of the umbrella crate's re-exports.
//!
//! A manifest regression (missing member, renamed package, broken path
//! dependency) should be caught here in a couple of seconds, not only by
//! the full property suites. Every workspace member is touched once through
//! the `hello_sme::*` paths.

use hello_sme::{accel_ref, sme_gemm, sme_isa, sme_machine, sme_microbench, sme_runtime};

#[test]
fn umbrella_reaches_every_crate() {
    // sme-gemm: generate and numerically validate a small kernel.
    let cfg = sme_gemm::GemmConfig::abt(16, 16, 8);
    let kernel = sme_gemm::generate(&cfg).expect("small config generates");
    assert!(kernel.validate(7) < 1e-4);

    // sme-isa: the kernel's machine code decodes back to its program.
    let decoded =
        sme_isa::decode::decode_bytes(&kernel.machine_code()).expect("emitted words decode");
    assert_eq!(decoded.len(), kernel.program().insts().len());

    // sme-machine: the machine model resolves and describes an M4.
    let machine = sme_machine::MachineConfig::apple_m4();
    assert!(machine.multicore.p_cores >= 1);

    // accel-ref: the baseline produces a finite positive throughput.
    let vendor = accel_ref::AccelerateSgemm::new(cfg);
    let gflops = vendor.model_gflops().expect("valid baseline config");
    assert!(gflops.is_finite() && gflops > 0.0);

    // sme-runtime: a cache hit after one compile, counter-verified.
    let cache = sme_runtime::KernelCache::new(4);
    let key = cfg.into();
    cache
        .get_or_compile_any(&key)
        .expect("small config compiles");
    cache
        .get_or_compile_any(&key)
        .expect("small config compiles");
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    // sme-microbench: one bandwidth measurement comes out positive.
    let bw = sme_microbench::bandwidth::measure(
        &machine,
        sme_microbench::TransferStrategy::FourVectors,
        false,
        64 << 10,
        128,
    );
    assert!(bw > 0.0);
}

#[test]
fn umbrella_kernel_beats_the_baseline_on_the_paper_shape() {
    // The one-line headline claim, reachable purely through re-exports.
    let cfg = sme_gemm::GemmConfig::abt(96, 96, 96);
    let ours = sme_gemm::generate(&cfg).unwrap().model_gflops();
    let vendor = accel_ref::AccelerateSgemm::new(cfg).model_gflops().unwrap();
    assert!(ours > vendor, "generated {ours} vs vendor {vendor}");
}
