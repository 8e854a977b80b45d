//! Router sweep: reproduce the Fig. 1 SME/Neon crossover *through the
//! dispatch layer*, then show what a mixed batch looks like on the
//! machine's real engine classes.
//!
//! For every swept size the binary probes a thin `16×4×s` shape (Neon's
//! side of the crossover at small depth) and a dense `s×s×k` shape (SME's
//! side), prints both engines' simulated cycles next to the router's
//! choice, and exits non-zero if the router ever picks the slower engine —
//! the routing analogue of the tuner binary's never-slower guarantee. A
//! second section dispatches the whole sweep as one mixed batch and prints
//! the batch planner's placement: SME groups on the two shared units, Neon
//! groups on the ten private cores, plus the per-shape telemetry the
//! router collected. `--smoke` runs the tiny CI preset; `--profile PATH`
//! writes every kernel's cycle-attribution breakdown (the binary also
//! exits non-zero if any breakdown fails to partition its kernel's total
//! simulated cycles).

use sme_bench::{
    maybe_write_json, render_router_sweep, router_sweep, sweep_profile_report, RouterSweepOptions,
};
use sme_router::Router;
use sme_runtime::GemmRequest;

fn main() {
    let opts = RouterSweepOptions::parse_or_exit(std::env::args().skip(1));
    println!(
        "Router sweep — thin 16x4xS and dense SxSx{} shapes, S up to {} in steps of {}\n",
        opts.sweep.k, opts.sweep.max, opts.sweep.step
    );

    let router = Router::new(64);
    let sweep = router_sweep(&opts, &router);
    println!("{}", render_router_sweep(&sweep));
    maybe_write_json(&opts.sweep.json, &sweep);
    maybe_write_json(&opts.profile, &sweep_profile_report(&sweep));

    // Dispatch the swept shapes as one mixed batch and show the placement.
    let requests: Vec<GemmRequest> = opts
        .shapes()
        .into_iter()
        .enumerate()
        .flat_map(|(i, config)| {
            (0..3).map(move |r| GemmRequest {
                config,
                seed: (i * 10 + r) as u64,
            })
        })
        .collect();
    match router.dispatch(&requests) {
        Ok(report) => {
            let placement = &report.placement;
            let (sme_load, neon_load) = placement.class_load_cycles();
            println!(
                "mixed batch: {} requests over {} shapes\n\
                 SME class load  {:10.0} cycles over {} shared unit(s), finish {:10.0}\n\
                 Neon class load {:10.0} cycles over {} private core(s), finish {:10.0}\n\
                 projected makespan (engine classes overlap): {:.0} cycles\n\
                 identical-cores LPT projection for comparison: {:.0} cycles\n",
                requests.len(),
                report.batch.per_config.len(),
                sme_load,
                placement.sme_engines.len(),
                placement.sme_makespan_cycles(),
                neon_load,
                placement.neon_engines.len(),
                placement.neon_makespan_cycles(),
                placement.makespan_cycles(),
                report.batch.makespan_cycles(10),
            );
            println!("hottest shapes by recorded traffic:");
            for stats in router.top_shapes(5) {
                println!(
                    "  {:>12} {:>4}x{:<4} k={:<5} requests {:3}  cycles {:10.0}  \
                     backend {:>4}  hit-rate {:.0}%",
                    stats.config.dtype(),
                    stats.config.m(),
                    stats.config.n(),
                    stats.config.k(),
                    stats.requests,
                    stats.cycles,
                    stats.dominant_backend().name(),
                    100.0 * stats.cache_hit_rate()
                );
            }
        }
        Err(e) => {
            eprintln!("error: mixed batch dispatch failed: {e}");
            std::process::exit(1);
        }
    }

    if !sweep.routing_matches_model() {
        eprintln!("error: the router chose a slower backend than the model's argmin");
        std::process::exit(1);
    }
    if !sweep.crossover_present() {
        eprintln!("error: the sweep never crossed the SME/Neon boundary");
        std::process::exit(1);
    }
    if !sweep.profiles_sum_to_cycles() {
        eprintln!("error: a kernel's cycle profile does not partition its simulated cycles");
        std::process::exit(1);
    }
}
