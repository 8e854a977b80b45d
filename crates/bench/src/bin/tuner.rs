//! Autotuning sweep: for each shape, enumerate the candidate block plans,
//! ZA-transfer strategies and unroll factors, score them on the timing
//! model, and report the winner against the default heterogeneous kernel.
//!
//! `--store PATH` persists the winners as a plan-store JSON document that
//! `sme_runtime::PlanStore::load_recovered` (and thus a `KernelCache`) can
//! consume — stamped with the machine model's timing fingerprint, so a
//! later process re-tunes instead of dispatching winners from a stale
//! calibration; `--smoke` runs the tiny CI preset; `--quick` restricts the
//! sweep to plan kinds and backends. Exits non-zero if any tuned kernel
//! models slower than its default — that would mean the tuner's argmin is
//! broken.

use sme_bench::{maybe_write_json, render_tuner_sweep, tuner_sweep, TunerSweepOptions};
use sme_machine::MachineConfig;
use sme_runtime::PlanStore;

fn main() {
    let opts = TunerSweepOptions::parse_or_exit(std::env::args().skip(1));
    println!(
        "Autotuner sweep — C += A*B^T, K = {}, M = N swept to {} in steps of {}{}\n",
        opts.sweep.k,
        opts.sweep.max,
        opts.sweep.step,
        if opts.quick {
            " (plan kinds only)"
        } else {
            " (plans x transfers x unrolls)"
        }
    );
    let mut store = PlanStore::for_machine(&MachineConfig::apple_m4());
    let sweep = tuner_sweep(&opts, &mut store);
    println!("{}", render_tuner_sweep(&sweep));
    maybe_write_json(&opts.sweep.json, &sweep);
    if let Some(path) = &opts.store {
        match store.save(path) {
            Ok(()) => println!("plan store with {} winners written to {path}", store.len()),
            Err(e) => {
                eprintln!("error: could not write plan store: {e}");
                std::process::exit(1);
            }
        }
    }
    if !sweep.never_slower() {
        eprintln!("error: a tuned kernel modelled slower than the default plan");
        std::process::exit(1);
    }
}
