//! # sme-bench
//!
//! The benchmark harness of the reproduction: one binary per table / figure
//! of the paper's evaluation (run them with
//! `cargo run --release -p sme-bench --bin <name>`), plus criterion benches
//! that measure the host-side costs of the library itself (kernel
//! generation latency, simulator throughput).
//!
//! This library crate contains the shared pieces: command-line options for
//! the sweep binaries, the GEMM sweep driver used by the Fig. 8 / Fig. 9
//! binaries and JSON export of results.

#![warn(missing_docs)]

pub mod baseline;
pub mod chaos;

pub use baseline::{
    BaselineCheckReport, BaselineStore, MetricRegression, BASELINE_VERSION, HIT_RATE_TOLERANCE,
    REL_TOLERANCE,
};
pub use chaos::{chaos_run, render_chaos_report, ChaosFaultRecord, ChaosReport, ChaosRun};

use accel_ref::AccelerateSgemm;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use sme_gemm::{generate, GemmConfig, WideningGemmConfig};

/// Options shared by the sweep binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// Step between consecutive M = N values (the paper sweeps every size;
    /// the default step of 16 keeps the run short while preserving the
    /// curve shape — pass `--step 1` for the full sweep).
    pub step: usize,
    /// Largest M = N value (512 in the paper).
    pub max: usize,
    /// Contraction dimension (512 in the paper).
    pub k: usize,
    /// Optional path to also write the results as JSON.
    pub json: Option<String>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            step: 16,
            max: 512,
            k: 512,
            json: None,
        }
    }
}

/// Pull the value of flag `name` from `args[i + 1]` and parse it as a
/// positive integer, with errors naming the flag.
fn positive_value(args: &[String], i: usize, name: &str) -> Result<usize, String> {
    let raw = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} requires a value"))?;
    let v: usize = raw
        .parse()
        .map_err(|_| format!("{name} expects a positive integer, got `{raw}`"))?;
    if v == 0 {
        return Err(format!("{name} must be at least 1"));
    }
    Ok(v)
}

/// Pull the path value of flag `name` from `args[i + 1]`.
fn path_value(args: &[String], i: usize, name: &str) -> Result<String, String> {
    args.get(i + 1)
        .cloned()
        .ok_or_else(|| format!("{name} requires a path"))
}

impl SweepOptions {
    /// Usage string shared by the sweep binaries' error messages.
    pub const USAGE: &'static str = "[--step N] [--max N] [--k N] [--json PATH]";

    /// Parse options from `std::env::args`-style strings. Recognised flags:
    /// `--step N`, `--max N`, `--k N`, `--json PATH`.
    ///
    /// Unknown flags, missing values and malformed numbers are errors
    /// (they used to be silently ignored, which made typos like
    /// `--setp 1` run the default sweep without complaint).
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = SweepOptions::default();
        let args: Vec<String> = args.collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--step" => {
                    opts.step = positive_value(&args, i, "--step")?;
                    i += 1;
                }
                "--max" => {
                    opts.max = positive_value(&args, i, "--max")?;
                    i += 1;
                }
                "--k" => {
                    opts.k = positive_value(&args, i, "--k")?;
                    i += 1;
                }
                "--json" => {
                    opts.json = Some(path_value(&args, i, "--json")?);
                    i += 1;
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
            i += 1;
        }
        Ok(opts)
    }

    /// Parse, printing the error and usage to stderr and exiting with
    /// status 2 on failure — the entry point used by the sweep binaries.
    pub fn parse_or_exit(args: impl Iterator<Item = String>) -> Self {
        SweepOptions::parse(args).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {}", SweepOptions::USAGE);
            std::process::exit(2);
        })
    }

    /// The M = N values of the sweep.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = (self.step..=self.max).step_by(self.step).collect();
        if sizes.last() != Some(&self.max) {
            sizes.push(self.max);
        }
        sizes
    }
}

/// One point of a Fig. 8 / Fig. 9 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GemmSweepPoint {
    /// M = N of the output matrix.
    pub mn: usize,
    /// Modelled throughput of the generated (LIBXSMM-style) kernel.
    pub libxsmm_gflops: f64,
    /// Modelled throughput of the vendor-BLAS baseline.
    pub accelerate_gflops: f64,
}

/// A complete Fig. 8 / Fig. 9 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GemmSweep {
    /// `"abt"` (Fig. 8) or `"ab"` (Fig. 9).
    pub variant: String,
    /// Contraction dimension.
    pub k: usize,
    /// Sweep points in ascending M = N order.
    pub points: Vec<GemmSweepPoint>,
}

impl GemmSweep {
    /// Fraction of sweep points where the generated kernel beats the vendor
    /// baseline (the paper: "almost all" for Fig. 8 and "all" for Fig. 9).
    pub fn win_fraction(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let wins = self
            .points
            .iter()
            .filter(|p| p.libxsmm_gflops > p.accelerate_gflops)
            .count();
        wins as f64 / self.points.len() as f64
    }

    /// Geometric-mean speed-up of the generated kernels over the baseline.
    pub fn geomean_speedup(&self) -> f64 {
        if self.points.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self
            .points
            .iter()
            .map(|p| (p.libxsmm_gflops / p.accelerate_gflops).ln())
            .sum();
        (log_sum / self.points.len() as f64).exp()
    }
}

/// Run the Fig. 8 (`abt = true`) or Fig. 9 (`abt = false`) sweep.
///
/// Sweep points are independent and are evaluated in parallel on the host;
/// the simulated machine model inside each point is unaffected.
pub fn gemm_sweep(abt: bool, opts: &SweepOptions) -> GemmSweep {
    let points: Vec<GemmSweepPoint> = opts
        .sizes()
        .par_iter()
        .map(|&mn| {
            let cfg = if abt {
                GemmConfig::abt(mn, mn, opts.k)
            } else {
                GemmConfig::ab(mn, mn, opts.k)
            };
            let libxsmm = generate(&cfg).map(|k| k.model_gflops()).unwrap_or(0.0);
            let accelerate = AccelerateSgemm::new(cfg).model_gflops().unwrap_or(0.0);
            GemmSweepPoint {
                mn,
                libxsmm_gflops: libxsmm,
                accelerate_gflops: accelerate,
            }
        })
        .collect();
    GemmSweep {
        variant: if abt { "abt".into() } else { "ab".into() },
        k: opts.k,
        points,
    }
}

/// Render a sweep in the paper's series form and print the summary lines.
pub fn render_gemm_sweep(sweep: &GemmSweep) -> String {
    let libxsmm: Vec<(usize, f64)> = sweep
        .points
        .iter()
        .map(|p| (p.mn, p.libxsmm_gflops))
        .collect();
    let accel: Vec<(usize, f64)> = sweep
        .points
        .iter()
        .map(|p| (p.mn, p.accelerate_gflops))
        .collect();
    let mut out = sme_microbench::report::render_series(
        "M=N",
        &[("LIBXSMM", &libxsmm), ("Accelerate", &accel)],
    );
    out.push_str(&format!(
        "\ngenerated kernels faster in {:.0}% of the tested configurations \
         (geometric-mean speed-up {:.2}x)\n",
        100.0 * sweep.win_fraction(),
        sweep.geomean_speedup()
    ));
    out
}

/// Options of the `tuner` binary: the shared sweep flags plus tuner
/// controls.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerSweepOptions {
    /// Shared sweep geometry (`--step`, `--max`, `--k`, `--json`).
    pub sweep: SweepOptions,
    /// Restrict the tuner to plan kinds only (`--quick`).
    pub quick: bool,
    /// Optional path to persist the winning plans as JSON (`--store`).
    pub store: Option<String>,
}

impl TunerSweepOptions {
    /// Usage string for the `tuner` binary.
    pub const USAGE: &'static str =
        "[--step N] [--max N] [--k N] [--json PATH] [--store PATH] [--quick] [--smoke]";

    /// Parse the `tuner` binary's flags. `--smoke` is a preset for CI: a
    /// tiny, fast sweep (M = N ∈ {32, 64}, K = 32, plan kinds only) that
    /// still exercises the whole autotuning path.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut quick = false;
        let mut smoke = false;
        let mut store = None;
        let mut sweep_args: Vec<String> = Vec::new();
        let args: Vec<String> = args.collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => quick = true,
                "--smoke" => smoke = true,
                "--store" => {
                    store = Some(path_value(&args, i, "--store")?);
                    i += 1;
                }
                other => sweep_args.push(other.to_string()),
            }
            i += 1;
        }
        let mut sweep = SweepOptions::parse(sweep_args.into_iter())?;
        if smoke {
            sweep.step = 32;
            sweep.max = 64;
            sweep.k = 32;
            quick = true;
        }
        Ok(TunerSweepOptions {
            sweep,
            quick,
            store,
        })
    }

    /// Parse, printing the error and usage to stderr and exiting with
    /// status 2 on failure.
    pub fn parse_or_exit(args: impl Iterator<Item = String>) -> Self {
        TunerSweepOptions::parse(args).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {}", TunerSweepOptions::USAGE);
            std::process::exit(2);
        })
    }

    /// The tuner options implied by the flags.
    pub fn tuner_options(&self) -> sme_runtime::TunerOptions {
        if self.quick {
            sme_runtime::TunerOptions::quick()
        } else {
            sme_runtime::TunerOptions::default()
        }
    }
}

/// One tuned shape of a tuner sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TunerSweepPoint {
    /// M = N of the output matrix.
    pub mn: usize,
    /// Simulated cycles of the default heterogeneous kernel.
    pub default_cycles: f64,
    /// Simulated cycles of the autotuned winner.
    pub tuned_cycles: f64,
    /// Stable name of the winning plan kind.
    pub winner: String,
    /// Winning ZA transfer strategy.
    pub c_transfer: sme_gemm::ZaTransferStrategy,
    /// Winning unroll factor.
    pub k_unroll: usize,
    /// Candidates generated and simulated for this shape.
    pub candidates: usize,
}

/// A complete tuner sweep (the `tuner` binary's JSON output).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TunerSweep {
    /// Contraction dimension.
    pub k: usize,
    /// Sweep points in ascending M = N order.
    pub points: Vec<TunerSweepPoint>,
}

impl TunerSweep {
    /// `true` if no tuned shape is slower than its default in the model —
    /// the tuner's core guarantee, asserted by the binary and by CI.
    pub fn never_slower(&self) -> bool {
        self.points
            .iter()
            .all(|p| p.tuned_cycles <= p.default_cycles)
    }

    /// Geometric-mean modelled speed-up of tuned over default kernels.
    pub fn geomean_speedup(&self) -> f64 {
        if self.points.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self
            .points
            .iter()
            .map(|p| (p.default_cycles / p.tuned_cycles).ln())
            .sum();
        (log_sum / self.points.len() as f64).exp()
    }
}

/// Run an autotuning sweep over `C += A·Bᵀ` shapes and fill `store` with
/// the winners.
///
/// Shapes are tuned in parallel on the host; each shape's candidates are
/// themselves scored in parallel by the tuner.
pub fn tuner_sweep(opts: &TunerSweepOptions, store: &mut sme_runtime::PlanStore) -> TunerSweep {
    let tuner_opts = opts.tuner_options();
    let k = opts.sweep.k;
    let outcomes: Vec<(usize, sme_runtime::TuneOutcome)> = opts
        .sweep
        .sizes()
        .par_iter()
        .map(|&mn| {
            let cfg = GemmConfig::abt(mn, mn, k).into();
            let outcome = sme_runtime::tune_any(&cfg, &tuner_opts)
                .expect("sweep configurations are valid by construction");
            (mn, outcome)
        })
        .collect();
    let mut points = Vec::with_capacity(outcomes.len());
    for (mn, outcome) in outcomes {
        store.insert_any(&GemmConfig::abt(mn, mn, k).into(), outcome.record());
        points.push(TunerSweepPoint {
            mn,
            default_cycles: outcome.default_cycles,
            tuned_cycles: outcome.tuned_cycles,
            winner: outcome.winner.kind.name().to_string(),
            c_transfer: outcome.winner.c_transfer,
            k_unroll: outcome.winner.k_unroll,
            candidates: outcome.candidates_tried,
        });
    }
    TunerSweep { k, points }
}

/// Render a tuner sweep as a table plus summary lines.
pub fn render_tuner_sweep(sweep: &TunerSweep) -> String {
    let mut out = String::from(
        "  M=N | default cyc |   tuned cyc | speedup | winner\n\
         ------+-------------+-------------+---------+-------------------------------\n",
    );
    for p in &sweep.points {
        let speedup = p.default_cycles / p.tuned_cycles.max(f64::MIN_POSITIVE);
        out.push_str(&format!(
            "{:5} | {:11.0} | {:11.0} | {:6.3}x | {} ({:?}, unroll {})\n",
            p.mn, p.default_cycles, p.tuned_cycles, speedup, p.winner, p.c_transfer, p.k_unroll
        ));
    }
    out.push_str(&format!(
        "\ntuned kernels never slower than the default plan: {}\n\
         geometric-mean modelled speed-up {:.3}x over {} shapes\n",
        if sweep.never_slower() { "yes" } else { "NO" },
        sweep.geomean_speedup(),
        sweep.points.len()
    ));
    out
}

/// Options of the `router` binary: the shared sweep flags plus the smoke
/// and BF16 presets.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterSweepOptions {
    /// Shared sweep geometry (`--step`, `--max`, `--k`, `--json`).
    pub sweep: SweepOptions,
    /// Probe BF16 widening shapes instead of FP32 (`--bf16`).
    pub bf16: bool,
    /// Optional path for the per-shape cycle-attribution report
    /// (`BENCH_profile.json` in CI).
    pub profile: Option<String>,
}

impl RouterSweepOptions {
    /// Usage string for the `router` binary.
    pub const USAGE: &'static str =
        "[--step N] [--max N] [--k N] [--json PATH] [--profile PATH] [--smoke] [--bf16]";

    /// Parse the `router` binary's flags. `--smoke` is the CI preset: a
    /// tiny sweep (sizes {32, 64}, K = 32) that still straddles the
    /// SME/Neon crossover on both sides. `--bf16` probes the widening
    /// datatype instead of FP32 (composable with `--smoke`).
    /// `--profile PATH` writes the per-shape cycle breakdowns to PATH.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut smoke = false;
        let mut bf16 = false;
        let mut profile = None;
        let mut sweep_args: Vec<String> = Vec::new();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            if arg == "--smoke" {
                smoke = true;
            } else if arg == "--bf16" {
                bf16 = true;
            } else if arg == "--profile" {
                profile = Some(
                    args.next()
                        .ok_or_else(|| "--profile expects a value".to_string())?,
                );
            } else {
                sweep_args.push(arg);
            }
        }
        let mut sweep = SweepOptions::parse(sweep_args.into_iter())?;
        if smoke {
            sweep.step = 32;
            sweep.max = 64;
            sweep.k = 32;
        }
        Ok(RouterSweepOptions {
            sweep,
            bf16,
            profile,
        })
    }

    /// Parse, printing the error and usage to stderr and exiting with
    /// status 2 on failure.
    pub fn parse_or_exit(args: impl Iterator<Item = String>) -> Self {
        RouterSweepOptions::parse(args).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {}", RouterSweepOptions::USAGE);
            std::process::exit(2);
        })
    }

    /// The shapes the router sweep probes: for each swept size `s`, a thin
    /// `16×4×s` shape (the Fig. 1 crossover's Neon side at small depth), a
    /// dense `s×s×k` shape (the SME side), and — since the predicated
    /// edge-tile work — **off-grid probes** that straddle the old support
    /// boundaries: a thin `18×6×s` shape (even-extent residuals through
    /// the Neon generator's masked tail) and a dense misaligned
    /// `m % 16 == 2` square shape (partial 16×4 / 32×32 blocks on both
    /// engines), so a regression in masked-edge routing fails the sweep.
    ///
    /// With `--bf16` the same geometry is probed in the widening datatype:
    /// the thin shape sits off the SME widening 32×32 grid, the dense size
    /// is snapped up to a multiple of 32, and the off-grid dense probe
    /// lands 8 past the 32-grid (`m % 32 == 8`) — a shape that routed to
    /// the Neon `BFMMLA` baseline before masked SME edges existed and must
    /// now land on SME.
    pub fn shapes(&self) -> Vec<sme_gemm::AnyGemmConfig> {
        let mut shapes: Vec<sme_gemm::AnyGemmConfig> = Vec::new();
        // Snapping sizes onto the grids can make distinct swept sizes
        // collide on one shape (non-adjacently, since thin and dense
        // shapes interleave), so keep first occurrences only.
        let push = |shapes: &mut Vec<sme_gemm::AnyGemmConfig>, shape| {
            if !shapes.contains(&shape) {
                shapes.push(shape);
            }
        };
        if self.bf16 {
            // The masked SME edge tiles beat the BFMMLA baseline on thin
            // shapes once the depth amortises the streaming-mode entry, so
            // the crossover only survives at shallow depth — probe it with
            // a fixed shallow shape so the sweep always straddles the
            // boundary.
            push(
                &mut shapes,
                WideningGemmConfig::new(16, 4, 8)
                    .expect("the shallow crossover probe is on the envelope grid")
                    .into(),
            );
        }
        for s in self.sweep.sizes() {
            if self.bf16 {
                let thin_k = s.next_multiple_of(2);
                let dense = s.next_multiple_of(32);
                let dense_k = self.sweep.k.next_multiple_of(2);
                // Snap past the 32-grid so the probe is off-grid for every
                // swept size (m % 32 == 8 by construction).
                let edge = s.next_multiple_of(32) + 8;
                push(
                    &mut shapes,
                    WideningGemmConfig::new(16, 4, thin_k)
                        .expect("thin widening shape is on the envelope grid")
                        .into(),
                );
                push(
                    &mut shapes,
                    WideningGemmConfig::new(dense, dense, dense_k)
                        .expect("dense widening shape is on the SME grid")
                        .into(),
                );
                push(
                    &mut shapes,
                    WideningGemmConfig::new(edge, edge, dense_k)
                        .expect("edge widening shape is on the envelope grid")
                        .into(),
                );
            } else {
                // Snap past the 16-grid so the probe is off-grid for every
                // swept size (m % 16 == 2 by construction).
                let edge = s.next_multiple_of(16) + 2;
                push(&mut shapes, GemmConfig::abt(16, 4, s).into());
                push(&mut shapes, GemmConfig::abt(s, s, self.sweep.k).into());
                push(&mut shapes, GemmConfig::abt(18, 6, s).into());
                push(
                    &mut shapes,
                    GemmConfig::abt(edge, edge, self.sweep.k).into(),
                );
            }
        }
        shapes
    }
}

/// One routed shape of a router sweep — the per-shape
/// `{config, backend, simulated_cycles}` record of the `--json` output
/// that CI persists as `BENCH_router.json` to track the perf trajectory
/// across PRs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterSweepPoint {
    /// Display form of the routed configuration (the record's stable key).
    pub config: String,
    /// Datatype family of the probed shape (stable name).
    pub dtype: String,
    /// Problem rows.
    pub m: usize,
    /// Problem columns.
    pub n: usize,
    /// Contraction depth.
    pub k: usize,
    /// Simulated single-core cycles of the SME kernel (absent when the SME
    /// generator does not support the shape; the SME engines are total
    /// over both swept datatypes, so in practice always present).
    pub sme_cycles: Option<f64>,
    /// Simulated single-core cycles of the Neon kernel (absent when the
    /// Neon generator does not support the shape).
    pub neon_cycles: Option<f64>,
    /// Backend the router chose (stable name).
    pub chosen: String,
    /// Simulated single-core cycles of the chosen backend's kernel.
    pub simulated_cycles: Option<f64>,
    /// `true` if the choice matches the lower simulated cycle count.
    pub agrees_with_model: bool,
    /// Cycle attribution of the SME kernel (absent with `sme_cycles`).
    pub sme_profile: Option<sme_machine::CycleProfile>,
    /// Cycle attribution of the Neon kernel (absent with `neon_cycles`).
    pub neon_profile: Option<sme_machine::CycleProfile>,
    /// `true` if every present profile partitions its kernel's simulated
    /// cycles — the attribution invariant CI asserts across the sweep.
    pub profile_sums_ok: bool,
}

/// A complete router sweep (the `router` binary's JSON output).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterSweep {
    /// Sweep points, thin and dense shapes interleaved.
    pub points: Vec<RouterSweepPoint>,
}

impl RouterSweep {
    /// `true` if the router picked the lower-simulated-cycles backend on
    /// every shape — the routing guarantee the binary and CI assert.
    pub fn routing_matches_model(&self) -> bool {
        self.points.iter().all(|p| p.agrees_with_model)
    }

    /// `true` if both backends were chosen somewhere in the sweep (the
    /// crossover is actually visible).
    pub fn crossover_present(&self) -> bool {
        let neon = self.points.iter().any(|p| p.chosen == "Neon");
        let sme = self.points.iter().any(|p| p.chosen == "Sme");
        neon && sme
    }

    /// `true` if every kernel's cycle profile partitions its simulated
    /// cycle count (the profiler's sum-to-total invariant, asserted by the
    /// `router` binary and CI).
    pub fn profiles_sum_to_cycles(&self) -> bool {
        self.points.iter().all(|p| p.profile_sums_ok)
    }
}

/// The per-shape cycle-attribution record of the `router` binary's
/// `--profile` output (`BENCH_profile.json` in CI): where each kernel's
/// simulated cycles went, per execution class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepProfilePoint {
    /// Display form of the profiled configuration.
    pub config: String,
    /// Backend of the profiled kernel (stable name).
    pub backend: String,
    /// The kernel's total simulated single-core cycles.
    pub cycles: f64,
    /// Per-class cycle attribution (sums to `cycles`).
    pub profile: sme_machine::CycleProfile,
    /// `true` if `profile` partitions `cycles` within round-off.
    pub sums_ok: bool,
}

/// The `router` binary's `--profile` report: one record per (shape,
/// backend) kernel the sweep simulated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepProfileReport {
    /// Per-kernel attribution records, sweep order.
    pub points: Vec<SweepProfilePoint>,
}

/// Project the per-kernel cycle attributions out of a router sweep.
pub fn sweep_profile_report(sweep: &RouterSweep) -> SweepProfileReport {
    let mut points = Vec::new();
    for p in &sweep.points {
        let pairs = [
            ("Sme", &p.sme_cycles, &p.sme_profile),
            ("Neon", &p.neon_cycles, &p.neon_profile),
        ];
        for (backend, cycles, profile) in pairs {
            if let (Some(cycles), Some(profile)) = (cycles, profile) {
                points.push(SweepProfilePoint {
                    config: p.config.clone(),
                    backend: backend.to_string(),
                    cycles: *cycles,
                    profile: profile.clone(),
                    sums_ok: profile.sums_to(*cycles),
                });
            }
        }
    }
    SweepProfileReport { points }
}

/// Probe every sweep shape through a [`sme_router::Router`] and compare
/// its choice against direct single-core simulation of both backends.
pub fn router_sweep(opts: &RouterSweepOptions, router: &sme_router::Router) -> RouterSweep {
    use sme_gemm::{generate_any_backend, AnyGemmConfig, Backend};
    type Measured = (f64, sme_machine::CycleProfile);
    let shapes = opts.shapes();
    let measured: Vec<(AnyGemmConfig, Option<Measured>, Option<Measured>)> = shapes
        .par_iter()
        .map(|cfg| {
            let model = |backend| {
                generate_any_backend(cfg, backend).ok().map(|k| {
                    let stats = k.model_stats();
                    (stats.cycles, stats.profile.clone())
                })
            };
            let sme = model(Backend::Sme);
            // SME is total over valid FP32 shapes — a failure there is a
            // generator regression, not a routing datum.
            assert!(
                sme.is_some() || cfg.dtype() != sme_gemm::Dtype::Fp32,
                "FP32 sweep shapes must be SME-compilable: {cfg}"
            );
            let neon = model(Backend::Neon);
            (*cfg, sme, neon)
        })
        .collect();
    let points = measured
        .into_iter()
        .map(|(cfg, sme, neon)| {
            let sums_ok = |m: &Option<Measured>| {
                m.as_ref()
                    .is_none_or(|(cycles, profile)| profile.sums_to(*cycles))
            };
            let profile_sums_ok = sums_ok(&sme) && sums_ok(&neon);
            let (sme_cycles, sme_profile) = match sme {
                Some((c, p)) => (Some(c), Some(p)),
                None => (None, None),
            };
            let (neon_cycles, neon_profile) = match neon {
                Some((c, p)) => (Some(c), Some(p)),
                None => (None, None),
            };
            let chosen = router.route_any(&cfg);
            // The router's choice agrees with the model when it picks the
            // lower simulated cycle count; an engine that cannot compile
            // the shape never wins the comparison.
            let faster_is_neon = match (sme_cycles, neon_cycles) {
                (Some(s), Some(n)) => n < s,
                (None, Some(_)) => true,
                _ => false,
            };
            let agrees = (chosen == Backend::Neon) == faster_is_neon;
            RouterSweepPoint {
                config: cfg.to_string(),
                dtype: cfg.dtype().name().to_string(),
                m: cfg.m(),
                n: cfg.n(),
                k: cfg.k(),
                sme_cycles,
                neon_cycles,
                simulated_cycles: match chosen {
                    Backend::Sme => sme_cycles,
                    Backend::Neon => neon_cycles,
                },
                chosen: chosen.name().to_string(),
                agrees_with_model: agrees,
                sme_profile,
                neon_profile,
                profile_sums_ok,
            }
        })
        .collect();
    RouterSweep { points }
}

/// Render a router sweep as a table plus summary lines.
pub fn render_router_sweep(sweep: &RouterSweep) -> String {
    let mut out = String::from(
        "        dtype     m    n    k |   sme cyc |  neon cyc | routed | agrees\n\
         ------------------------------+-----------+-----------+--------+-------\n",
    );
    let fmt_cycles = |c: Option<f64>| match c {
        Some(c) => format!("{c:9.0}"),
        None => format!("{:>9}", "-"),
    };
    for p in &sweep.points {
        out.push_str(&format!(
            "{:>13} {:5} {:4} {:4} | {} | {} | {:>6} | {}\n",
            p.dtype,
            p.m,
            p.n,
            p.k,
            fmt_cycles(p.sme_cycles),
            fmt_cycles(p.neon_cycles),
            p.chosen,
            if p.agrees_with_model { "yes" } else { "NO" }
        ));
    }
    out.push_str(&format!(
        "\nrouter matches the per-shape simulated argmin: {}\n\
         both engines exercised across the sweep: {}\n",
        if sweep.routing_matches_model() {
            "yes"
        } else {
            "NO"
        },
        if sweep.crossover_present() {
            "yes"
        } else {
            "NO"
        }
    ));
    out
}

/// SLO thresholds of the serving run's flight recorder (the `--slo` flag).
/// The defaults are deliberately generous — the sentinel is always on, but
/// only a configured (or genuinely catastrophic) run breaches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloOptions {
    /// Ceiling on the p99 of `sme_batch_makespan_cycles`.
    pub makespan_p99_ceiling: f64,
    /// Floor under the lifetime `sme_cache_hit_ratio`.
    pub hit_ratio_floor: f64,
}

impl Default for SloOptions {
    fn default() -> Self {
        SloOptions {
            makespan_p99_ceiling: 1e12,
            hit_ratio_floor: 0.0,
        }
    }
}

impl SloOptions {
    /// Parse a `--slo` specification: comma-separated `key=value` pairs
    /// with keys `makespan-p99` (cycles) and `hit-rate` (0..=1). Unknown
    /// keys, malformed numbers and out-of-range rates are errors.
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        let mut opts = SloOptions::default();
        for pair in spec.split(',') {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("--slo: `{pair}` is not key=value"))?;
            let number: f64 = value
                .parse()
                .map_err(|e| format!("--slo {key}: bad value `{value}`: {e}"))?;
            if !number.is_finite() {
                return Err(format!("--slo {key}: value must be finite"));
            }
            match key {
                "makespan-p99" => {
                    if number <= 0.0 {
                        return Err("--slo makespan-p99: ceiling must be positive".into());
                    }
                    opts.makespan_p99_ceiling = number;
                }
                "hit-rate" => {
                    if !(0.0..=1.0).contains(&number) {
                        return Err("--slo hit-rate: floor must be within 0..=1".into());
                    }
                    opts.hit_ratio_floor = number;
                }
                other => {
                    return Err(format!(
                        "--slo: unknown key `{other}` (expected makespan-p99 or hit-rate)"
                    ))
                }
            }
        }
        Ok(opts)
    }

    /// The sentinel these thresholds configure (plus the standing
    /// placement-improvement and daemon-liveness rules).
    pub fn sentinel(&self) -> sme_obs::Sentinel {
        sme_obs::Sentinel::serving_defaults(self.makespan_p99_ceiling, self.hit_ratio_floor)
    }
}

/// Options for the `serving` binary: a synthetic shifting-traffic trace
/// driven through the full serving loop (router dispatch → telemetry decay
/// → pretune daemon → persisted snapshots → simulated restart).
#[derive(Debug, Clone, PartialEq)]
pub struct ServingTraceOptions {
    /// Batches dispatched in the first ("yesterday") traffic phase.
    pub warm_batches: usize,
    /// Batches dispatched after the traffic shifts ("today"); twice the
    /// warm phase by default so the decayed ranking has time to flip.
    pub shifted_batches: usize,
    /// Requests per shape per batch.
    pub requests: usize,
    /// JSON output path (`BENCH_serving.json` in CI).
    pub json: Option<String>,
    /// Chrome trace-event output path (`BENCH_trace.json` in CI; load it
    /// in Perfetto / `chrome://tracing`).
    pub trace: Option<String>,
    /// Metrics output path (`BENCH_metrics.prom` in CI): a Prometheus
    /// text exposition of the run's final counter/gauge/histogram state.
    pub metrics: Option<String>,
    /// Capacity of the span ring buffer (`--trace-capacity`).
    pub trace_capacity: usize,
    /// Flight-recorder thresholds (`--slo`).
    pub slo: SloOptions,
    /// Where to dump the postmortem bundle on an SLO breach
    /// (`--postmortem`; `BENCH_postmortem.json` in CI).
    pub postmortem: Option<String>,
    /// Baseline file to compare the run against (`--check-baseline`); a
    /// regression makes the binary exit non-zero.
    pub check_baseline: Option<String>,
    /// Baseline file to (over)write from this run (`--write-baseline`).
    pub write_baseline: Option<String>,
    /// Run the trace under the deterministic chaos fault schedule
    /// (`--chaos`): see [`chaos::chaos_run`].
    pub chaos: bool,
    /// Seed of the chaos schedule (`--chaos-seed N`; same seed = same
    /// faults at the same points).
    pub chaos_seed: u64,
    /// Where the chaos verdict JSON lands (`--chaos-json PATH`;
    /// `BENCH_chaos.json` in CI).
    pub chaos_json: Option<String>,
}

impl Default for ServingTraceOptions {
    fn default() -> Self {
        ServingTraceOptions {
            warm_batches: 5,
            shifted_batches: 10,
            requests: 3,
            json: None,
            trace: None,
            metrics: None,
            trace_capacity: 4096,
            slo: SloOptions::default(),
            postmortem: None,
            check_baseline: None,
            write_baseline: None,
            chaos: false,
            chaos_seed: 0,
            chaos_json: None,
        }
    }
}

impl ServingTraceOptions {
    /// Usage string for the `serving` binary.
    pub const USAGE: &'static str = "[--batches N] [--requests N] [--json PATH] [--trace PATH] \
         [--metrics PATH] [--trace-capacity N] [--slo makespan-p99=N,hit-rate=X] \
         [--postmortem PATH] [--check-baseline PATH] [--write-baseline PATH] [--smoke] \
         [--chaos] [--chaos-seed N] [--chaos-json PATH]";

    /// Parse the `serving` binary's flags. `--batches N` sets the warm
    /// phase length (the shifted phase is `2 N`); `--smoke` is the CI
    /// preset (3 warm + 6 shifted batches, 4 requests per shape — enough
    /// traffic that the repeated-weights pack-hit rate clears its 0.9
    /// acceptance floor).
    /// `--trace PATH` writes a Chrome trace of the run's spans;
    /// `--metrics PATH` writes the final Prometheus metrics snapshot;
    /// `--trace-capacity N` sizes the span ring; `--slo` configures the
    /// flight recorder; `--postmortem PATH` is where a breach's bundle is
    /// dumped; `--check-baseline` / `--write-baseline` drive the perf
    /// ratchet.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = ServingTraceOptions::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let mut value =
                |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
            match arg.as_str() {
                "--batches" => {
                    let n: usize = value("--batches")?
                        .parse()
                        .map_err(|e| format!("--batches: {e}"))?;
                    if n == 0 {
                        return Err("--batches must be positive".into());
                    }
                    opts.warm_batches = n;
                    opts.shifted_batches = 2 * n;
                }
                "--requests" => {
                    let n: usize = value("--requests")?
                        .parse()
                        .map_err(|e| format!("--requests: {e}"))?;
                    if n == 0 {
                        return Err("--requests must be positive".into());
                    }
                    opts.requests = n;
                }
                "--json" => opts.json = Some(value("--json")?),
                "--trace" => opts.trace = Some(value("--trace")?),
                "--metrics" => opts.metrics = Some(value("--metrics")?),
                "--trace-capacity" => {
                    let n: usize = value("--trace-capacity")?
                        .parse()
                        .map_err(|e| format!("--trace-capacity: {e}"))?;
                    if n == 0 {
                        return Err("--trace-capacity must be positive".into());
                    }
                    opts.trace_capacity = n;
                }
                "--slo" => opts.slo = SloOptions::parse_spec(&value("--slo")?)?,
                "--postmortem" => opts.postmortem = Some(value("--postmortem")?),
                "--check-baseline" => opts.check_baseline = Some(value("--check-baseline")?),
                "--write-baseline" => opts.write_baseline = Some(value("--write-baseline")?),
                "--smoke" => {
                    opts.warm_batches = 3;
                    opts.shifted_batches = 6;
                    opts.requests = 4;
                }
                "--chaos" => opts.chaos = true,
                "--chaos-seed" => {
                    opts.chaos_seed = value("--chaos-seed")?
                        .parse()
                        .map_err(|e| format!("--chaos-seed: {e}"))?;
                }
                "--chaos-json" => opts.chaos_json = Some(value("--chaos-json")?),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if opts.chaos && opts.check_baseline.is_some() {
            // Chaos runs deliberately fail ticks and degrade dispatches;
            // their warm-up metrics are not comparable to a healthy
            // baseline.
            return Err("--chaos does not combine with --check-baseline".into());
        }
        Ok(opts)
    }

    /// Parse, printing the error and usage to stderr and exiting with
    /// status 2 on failure.
    pub fn parse_or_exit(args: impl Iterator<Item = String>) -> Self {
        ServingTraceOptions::parse(args).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {}", ServingTraceOptions::USAGE);
            std::process::exit(2);
        })
    }
}

/// One dispatched batch of the serving trace (the per-batch record of the
/// `--json` output CI persists as `BENCH_serving.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingBatchRecord {
    /// Monotonic sequence number across the whole run, including the
    /// simulated restart — a gap or repeat means records were lost or
    /// duplicated in transit, which `batch` (reused across phases in
    /// multi-process runs) cannot show.
    pub seq: u64,
    /// Batch index across the whole trace.
    pub batch: usize,
    /// Traffic phase: `yesterday`, `today`, or `restarted` (the first
    /// batch served by the new process after the simulated restart).
    pub phase: String,
    /// Display forms of the batch's distinct shapes.
    pub shapes: Vec<String>,
    /// Projected makespan with every group on its in-isolation route.
    pub makespan_isolated: f64,
    /// Projected makespan of the executed, placement-aware routing —
    /// never worse than `makespan_isolated`.
    pub makespan_placed: f64,
    /// Kernel-cache hit rate while serving this batch (compiles triggered
    /// by routing probes included): the pretuner's effect is this reaching
    /// 1.0 — most visibly on the first post-restart batch.
    pub pretune_hit_rate: f64,
    /// Fraction of the batch's requests whose packed A/B operand images
    /// replayed from the packed-operand cache. The trace models repeated
    /// weights (each shape re-dispatches the same operands every batch),
    /// so after the first batch per process this should be 1.0.
    pub pack_hit_rate: f64,
}

/// The run-header record of the `serving` binary's JSON output: enough
/// context to interpret the per-batch records without the producing
/// process — which machine model the cycles refer to, how fast the
/// telemetry forgets, and the run's batch and request counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingRunHeader {
    /// Fingerprint of the simulated machine configuration (hex); records
    /// from different machine models are not comparable.
    pub machine_fingerprint: String,
    /// Telemetry decay half-life, in dispatched batches.
    pub decay_half_life: f64,
    /// Batches dispatched in the warm ("yesterday") phase.
    pub warm_batches: usize,
    /// Batches dispatched after the traffic shift.
    pub shifted_batches: usize,
    /// Requests per shape per batch.
    pub requests: usize,
}

/// A complete serving trace (the `serving` binary's JSON output).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingTrace {
    /// The run's self-describing header.
    pub header: ServingRunHeader,
    /// Every dispatched batch, in order.
    pub batches: Vec<ServingBatchRecord>,
    /// The daemon's decayed hot list after the final shifted batch.
    pub hot_after_shift: Vec<String>,
    /// `true` if the decayed ranking followed the traffic shift: the
    /// hottest shape after the shift is one of today's, even though
    /// yesterday's dense shapes cost more cycles all-time.
    pub shift_followed: bool,
    /// Cache hit rate of the first batch served after the simulated
    /// restart — 1.0 when the daemon left the cache warm for today's
    /// traffic.
    pub restart_hit_rate: f64,
    /// Run-wide packed-operand hit rate, aggregated over both processes'
    /// pack caches: misses are bounded by (distinct operand sets ×
    /// processes), so with repeated weights this approaches 1.0 as the
    /// trace lengthens.
    pub pack_hit_rate: f64,
    /// Tuned serial-vs-pipelined simulated cycles for each FP32 serving
    /// shape — the per-shape evidence behind the pipelined schedule's
    /// cycle win, ratcheted by the baseline check.
    pub pipeline_wins: Vec<ServingPipelineWin>,
}

/// Tuned serial-vs-pipelined simulated cycles of one FP32 serving shape.
///
/// Both numbers come from the same tuner sweep except for the schedule
/// dimension, so `pipelined_cycles <= serial_cycles` always holds (the
/// pipelined sweep is a superset) and a strict gap is a genuine win of
/// the software-pipelined schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingPipelineWin {
    /// Display form of the shape.
    pub shape: String,
    /// Tuned cycles with the schedule sweep disabled (serial only).
    pub serial_cycles: f64,
    /// Tuned cycles with the full sweep including pipelined schedules.
    pub pipelined_cycles: f64,
}

impl ServingPipelineWin {
    /// Simulated cycles the pipelined schedule saves over the best serial
    /// plan (0 when the tuner kept the serial schedule).
    pub fn win_cycles(&self) -> f64 {
        (self.serial_cycles - self.pipelined_cycles).max(0.0)
    }
}

impl ServingTrace {
    /// `true` if no batch's placed projection exceeded its isolated
    /// projection (the planner's never-worse guarantee, asserted by CI).
    pub fn placement_never_worse(&self) -> bool {
        self.batches
            .iter()
            .all(|b| b.makespan_placed <= b.makespan_isolated + 1e-9)
    }

    /// `true` if the batch records carry a gapless `1..=N` sequence — the
    /// consumer-side check the `seq` field exists to enable.
    pub fn seq_gapless(&self) -> bool {
        self.batches
            .iter()
            .enumerate()
            .all(|(i, b)| b.seq == i as u64 + 1)
    }
}

/// Yesterday's traffic: dense FP32 + dense widening + a thin Neon shape.
fn serving_yesterday_shapes() -> Vec<sme_gemm::AnyGemmConfig> {
    vec![
        GemmConfig::abt(64, 64, 32).into(),
        WideningGemmConfig::new(64, 64, 8)
            .expect("valid widening shape")
            .into(),
        GemmConfig::abt(16, 4, 16).into(),
    ]
}

/// Today's traffic after the shift: a disjoint set of the same character.
fn serving_today_shapes() -> Vec<sme_gemm::AnyGemmConfig> {
    vec![
        GemmConfig::abt(48, 48, 32).into(),
        WideningGemmConfig::new(32, 32, 64)
            .expect("valid widening shape")
            .into(),
        GemmConfig::abt(16, 8, 16).into(),
    ]
}

/// Dispatch one batch of `shapes` through `router`, recording the placed
/// vs isolated projections and the cache hit rate the batch experienced.
fn serving_dispatch(
    router: &sme_router::Router,
    shapes: &[sme_gemm::AnyGemmConfig],
    requests: usize,
    seq: &mut u64,
    batch: usize,
    phase: &str,
) -> ServingBatchRecord {
    // Repeated weights: each shape re-dispatches the *same* operand set
    // (one fixed seed per shape) every request and every batch, so after
    // the first batch per process the packed-operand cache serves every
    // request's A/B images without repacking.
    let reqs: Vec<sme_runtime::GemmRequest> = shapes
        .iter()
        .enumerate()
        .flat_map(|(i, &config)| {
            (0..requests).map(move |_| sme_runtime::GemmRequest {
                config,
                seed: (1000 + i * 17) as u64,
            })
        })
        .collect();
    let before = router.cache().stats();
    let report = router
        .dispatch(&reqs)
        .expect("serving trace shapes are valid");
    let after = router.cache().stats();
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let total = hits + misses;
    *seq += 1;
    ServingBatchRecord {
        seq: *seq,
        batch,
        phase: phase.to_string(),
        shapes: shapes.iter().map(|c| c.to_string()).collect(),
        makespan_isolated: report.isolated.makespan_cycles(),
        makespan_placed: report.placement.makespan_cycles(),
        pretune_hit_rate: if total == 0 {
            1.0
        } else {
            hits as f64 / total as f64
        },
        pack_hit_rate: report.batch.pack_hit_ratio(),
    }
}

/// Tune each FP32 serving shape twice — once with the schedule sweep off,
/// once with the full sweep — so the trace carries the pipelined
/// schedule's per-shape simulated-cycle win.
fn serving_pipeline_wins() -> Vec<ServingPipelineWin> {
    let serial = sme_runtime::TunerOptions {
        sweep_schedule: false,
        ..Default::default()
    };
    let full = sme_runtime::TunerOptions::default();
    serving_yesterday_shapes()
        .iter()
        .chain(serving_today_shapes().iter())
        .filter(|cfg| matches!(cfg, sme_gemm::AnyGemmConfig::Fp32(_)))
        .filter_map(|cfg| {
            let s = sme_runtime::tune_any(cfg, &serial).ok()?;
            let p = sme_runtime::tune_any(cfg, &full).ok()?;
            Some(ServingPipelineWin {
                shape: cfg.to_string(),
                serial_cycles: s.tuned_cycles,
                pipelined_cycles: p.tuned_cycles,
            })
        })
        .collect()
}

/// A completed serving run: the trace plus everything the flight recorder
/// saw — the shared hub, the run-end SLO verdicts, and the pre-serialised
/// telemetry / cache sections a postmortem bundle needs.
#[derive(Debug)]
pub struct ServingRun {
    /// The serving trace (the `--json` artifact).
    pub trace: ServingTrace,
    /// The run's shared observability hub (spans + metrics).
    pub hub: std::sync::Arc<sme_obs::ObsHub>,
    /// SLO breaches at end of run, in rule order (empty: all promises
    /// held).
    pub breaches: Vec<sme_obs::SloBreach>,
    /// The final router's telemetry top-shapes, as JSON.
    pub telemetry_top_shapes: serde::json::Value,
    /// The final router's per-shard cache stats, as JSON.
    pub cache_shards: serde::json::Value,
}

impl ServingRun {
    /// The postmortem bundle for the first breach, if any rule broke.
    pub fn postmortem(&self) -> Option<serde::json::Value> {
        self.breaches.first().map(|breach| {
            sme_obs::postmortem_bundle(
                &self.hub,
                breach,
                self.telemetry_top_shapes.clone(),
                self.cache_shards.clone(),
            )
        })
    }
}

/// Drive the synthetic shifting-traffic trace through the serving loop,
/// persisting daemon state into `dir` (see [`serving_run`] for the
/// version that also returns the flight recorder's state).
pub fn serving_trace(
    opts: &ServingTraceOptions,
    dir: &std::path::Path,
) -> Result<ServingTrace, String> {
    serving_run(opts, dir).map(|run| run.trace)
}

/// Drive the synthetic shifting-traffic trace through the serving loop,
/// persisting daemon state into `dir`:
///
/// 1. `warm_batches` batches of yesterday's shapes, a daemon tick after
///    each (tune + warm + persist);
/// 2. the traffic shifts: `shifted_batches` batches of today's shapes,
///    ticking after each — the decayed ranking flips to today's traffic;
/// 3. a simulated restart: a **new router** restores the persisted
///    telemetry + plans, one daemon tick re-warms the cache, and today's
///    first batch on the new process is served entirely from warm cache.
///
/// At end of run the flight recorder evaluates `opts.slo` against the
/// hub's metrics; the verdicts travel back in the returned [`ServingRun`].
pub fn serving_run(
    opts: &ServingTraceOptions,
    dir: &std::path::Path,
) -> Result<ServingRun, String> {
    use sme_router::{PretuneDaemon, PretuneDaemonConfig, Router, DEFAULT_DECAY_HALF_LIFE};

    let yesterday = serving_yesterday_shapes();
    let today = serving_today_shapes();
    let mut config = PretuneDaemonConfig::in_dir(dir);
    // Cover the whole working set so a tick can warm every live shape.
    config.top_n = yesterday.len() + today.len();
    let daemon = PretuneDaemon::new(config);

    // One observability hub spans the whole run, including the restart:
    // the trace and metrics artifacts describe the run, not one process.
    let hub = sme_obs::ObsHub::shared(opts.trace_capacity);

    let router = Router::new(256);
    router.attach_obs(hub.clone());
    daemon
        .restore(&router)
        .map_err(|e| format!("restore: {e}"))?;

    let header = ServingRunHeader {
        machine_fingerprint: format!("{:016x}", router.machine().fingerprint()),
        decay_half_life: DEFAULT_DECAY_HALF_LIFE,
        warm_batches: opts.warm_batches,
        shifted_batches: opts.shifted_batches,
        requests: opts.requests,
    };

    let mut seq = 0u64;
    let mut batches = Vec::new();
    let mut hot_after_shift = Vec::new();
    for b in 0..opts.warm_batches {
        batches.push(serving_dispatch(
            &router,
            &yesterday,
            opts.requests,
            &mut seq,
            b,
            "yesterday",
        ));
        daemon.tick(&router).map_err(|e| format!("tick: {e}"))?;
    }
    for b in 0..opts.shifted_batches {
        batches.push(serving_dispatch(
            &router,
            &today,
            opts.requests,
            &mut seq,
            opts.warm_batches + b,
            "today",
        ));
        let tick = daemon.tick(&router).map_err(|e| format!("tick: {e}"))?;
        hot_after_shift = tick.hot.iter().map(|c| c.to_string()).collect();
    }
    let hottest = router.top_shapes(1);
    let shift_followed = hottest
        .first()
        .is_some_and(|hot| today.contains(&hot.config));

    // Simulated restart: a fresh process restores what the daemon
    // persisted, re-warms, and serves today's traffic without compiling.
    let restarted = Router::new(256);
    restarted.attach_obs(hub.clone());
    daemon
        .restore(&restarted)
        .map_err(|e| format!("restore after restart: {e}"))?;
    daemon
        .tick(&restarted)
        .map_err(|e| format!("tick after restart: {e}"))?;
    let record = serving_dispatch(
        &restarted,
        &today,
        opts.requests,
        &mut seq,
        opts.warm_batches + opts.shifted_batches,
        "restarted",
    );
    let restart_hit_rate = record.pretune_hit_rate;
    batches.push(record);

    // Run-wide pack-hit rate: both processes' pack caches, hits over all
    // pack lookups. Misses are bounded by the distinct operand sets each
    // process saw, so repeated weights drive this towards 1.0.
    let pack_hit_rate = {
        let first = router.cache().packs().stats();
        let second = restarted.cache().packs().stats();
        let hits = first.hits + second.hits;
        let total = hits + first.misses + second.misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    };

    if let Some(path) = &opts.trace {
        std::fs::write(path, hub.trace.to_chrome_trace())
            .map_err(|e| format!("write trace {path}: {e}"))?;
    }
    if let Some(path) = &opts.metrics {
        std::fs::write(path, hub.metrics.render_prometheus())
            .map_err(|e| format!("write metrics {path}: {e}"))?;
    }

    // The flight recorder's end-of-run pass, plus the bundle sections that
    // live above `sme-obs` in the dependency graph.
    let breaches = opts.slo.sentinel().evaluate(&hub.metrics);
    let telemetry_top_shapes = serde::json::Value::Array(
        restarted
            .top_shapes(8)
            .iter()
            .map(|stats| stats.to_json_value())
            .collect(),
    );
    let cache_shards = serde::json::Value::Array(
        restarted
            .cache()
            .shard_stats()
            .iter()
            .map(|stats| {
                serde::json::Value::Object(vec![
                    (
                        "hits".to_string(),
                        serde::json::Value::Number(stats.hits as f64),
                    ),
                    (
                        "misses".to_string(),
                        serde::json::Value::Number(stats.misses as f64),
                    ),
                    (
                        "evictions".to_string(),
                        serde::json::Value::Number(stats.evictions as f64),
                    ),
                    (
                        "tuned_compiles".to_string(),
                        serde::json::Value::Number(stats.tuned_compiles as f64),
                    ),
                ])
            })
            .collect(),
    );

    Ok(ServingRun {
        trace: ServingTrace {
            header,
            batches,
            hot_after_shift,
            shift_followed,
            restart_hit_rate,
            pack_hit_rate,
            pipeline_wins: serving_pipeline_wins(),
        },
        hub,
        breaches,
        telemetry_top_shapes,
        cache_shards,
    })
}

/// Build the serving baseline from a completed run: summary metrics from
/// the trace plus each serving shape's simulated per-request cycles on
/// its preferred backend (the same model cycles the router's placement
/// uses), stamped with the machine model's fingerprint.
pub fn serving_baseline(trace: &ServingTrace) -> BaselineStore {
    let machine = sme_machine::MachineConfig::apple_m4();
    let mut store = BaselineStore::for_machine(&machine);

    let today: Vec<&ServingBatchRecord> = trace
        .batches
        .iter()
        .filter(|b| b.phase == "today")
        .collect();
    if !today.is_empty() {
        let mean = today.iter().map(|b| b.makespan_placed).sum::<f64>() / today.len() as f64;
        store.set_metric("serving_today_makespan_placed_mean", mean);
    }
    store.set_metric("serving_restart_hit_rate", trace.restart_hit_rate);
    store.set_metric("serving_pack_hit_rate", trace.pack_hit_rate);
    store.set_metric(
        "serving_pipeline_cycle_win_total",
        trace.pipeline_wins.iter().map(|w| w.win_cycles()).sum(),
    );

    let cache = sme_runtime::KernelCache::new(64);
    for cfg in serving_yesterday_shapes()
        .iter()
        .chain(serving_today_shapes().iter())
    {
        let backend = cache.preferred_backend_any(cfg);
        if let Ok((kernel, _)) = cache.fetch_any(cfg, backend) {
            store.set_shape_cycles(cfg.to_string(), kernel.model_stats().cycles);
        }
    }
    store
}

/// Render the serving trace as the table the `serving` binary prints.
pub fn render_serving_trace(trace: &ServingTrace) -> String {
    let mut out = String::new();
    out.push_str("batch  phase       isolated      placed    hit-rate    pack-hit\n");
    for b in &trace.batches {
        out.push_str(&format!(
            "{:>5}  {:<9} {:>10.0}  {:>10.0}      {:>5.1}%      {:>5.1}%\n",
            b.batch,
            b.phase,
            b.makespan_isolated,
            b.makespan_placed,
            100.0 * b.pretune_hit_rate,
            100.0 * b.pack_hit_rate
        ));
    }
    out.push_str(&format!(
        "\ndecayed ranking follows the shift: {}\npost-restart hit rate: {:.1}%\n\
         packed-operand hit rate: {:.1}%\n",
        trace.shift_followed,
        100.0 * trace.restart_hit_rate,
        100.0 * trace.pack_hit_rate
    ));
    for w in &trace.pipeline_wins {
        out.push_str(&format!(
            "pipelined {}: serial {:.0} -> pipelined {:.0} cycles (win {:.0})\n",
            w.shape,
            w.serial_cycles,
            w.pipelined_cycles,
            w.win_cycles()
        ));
    }
    out
}

/// Write any serialisable result to a JSON file if a path was requested.
pub fn maybe_write_json<T: Serialize>(path: &Option<String>, value: &T) {
    if let Some(path) = path {
        match serde_json::to_string_pretty(value) {
            Ok(text) => {
                if let Err(e) = std::fs::write(path, text) {
                    eprintln!("warning: could not write {path}: {e}");
                }
            }
            Err(e) => eprintln!("warning: could not serialise results: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<SweepOptions, String> {
        SweepOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn option_parsing() {
        let opts = parse_strs(&[
            "--step",
            "8",
            "--max",
            "64",
            "--k",
            "128",
            "--json",
            "/tmp/out.json",
        ])
        .unwrap();
        assert_eq!(opts.step, 8);
        assert_eq!(opts.max, 64);
        assert_eq!(opts.k, 128);
        assert_eq!(opts.json.as_deref(), Some("/tmp/out.json"));
        assert_eq!(opts.sizes().last(), Some(&64));
        let default = SweepOptions::parse(std::iter::empty()).unwrap();
        assert_eq!(default.step, 16);
        assert_eq!(default.max, 512);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // Typos used to silently run the default sweep.
        let err = parse_strs(&["--setp", "1"]).unwrap_err();
        assert!(err.contains("--setp"), "{err}");
        let err = parse_strs(&["extra"]).unwrap_err();
        assert!(err.contains("extra"), "{err}");
    }

    #[test]
    fn malformed_values_are_rejected() {
        let err = parse_strs(&["--step"]).unwrap_err();
        assert!(err.contains("--step") && err.contains("value"), "{err}");
        let err = parse_strs(&["--max", "many"]).unwrap_err();
        assert!(err.contains("many"), "{err}");
        let err = parse_strs(&["--k", "-4"]).unwrap_err();
        assert!(err.contains("-4"), "{err}");
        let err = parse_strs(&["--step", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse_strs(&["--json"]).unwrap_err();
        assert!(err.contains("--json"), "{err}");
        // A flag name in value position is consumed as the value, and the
        // dangling flag is then reported.
        let err = parse_strs(&["--step", "--max", "64"]).unwrap_err();
        assert!(err.contains("--step"), "{err}");
    }

    #[test]
    fn sizes_always_include_the_maximum() {
        let opts = SweepOptions {
            step: 48,
            max: 100,
            k: 32,
            json: None,
        };
        let sizes = opts.sizes();
        assert_eq!(sizes, vec![48, 96, 100]);
    }

    #[test]
    fn tuner_option_parsing() {
        let opts = TunerSweepOptions::parse(
            [
                "--step",
                "32",
                "--max",
                "64",
                "--k",
                "16",
                "--store",
                "/tmp/plans.json",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(opts.sweep.step, 32);
        assert_eq!(opts.sweep.k, 16);
        assert_eq!(opts.store.as_deref(), Some("/tmp/plans.json"));
        assert!(!opts.quick);

        // --smoke is a fast-preset that wins over the geometry flags.
        let smoke =
            TunerSweepOptions::parse(["--smoke", "--max", "512"].iter().map(|s| s.to_string()))
                .unwrap();
        assert_eq!(
            (smoke.sweep.step, smoke.sweep.max, smoke.sweep.k),
            (32, 64, 32)
        );
        assert!(smoke.quick);
        assert_eq!(smoke.sweep.sizes(), vec![32, 64]);

        // Shared-flag errors propagate.
        assert!(TunerSweepOptions::parse(["--setp", "1"].iter().map(|s| s.to_string())).is_err());
        assert!(TunerSweepOptions::parse(["--store"].iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn smoke_tuner_sweep_fills_the_store_and_never_loses() {
        let opts = TunerSweepOptions::parse(["--smoke"].iter().map(|s| s.to_string())).unwrap();
        let mut store = sme_runtime::PlanStore::new();
        let sweep = tuner_sweep(&opts, &mut store);
        assert_eq!(sweep.points.len(), 2);
        assert!(sweep.never_slower());
        assert!(sweep.geomean_speedup() >= 1.0);
        assert_eq!(store.len(), 2);
        // The persisted store round-trips and serves the swept shapes.
        let reloaded = sme_runtime::PlanStore::from_json(&store.to_json()).unwrap();
        assert!(reloaded
            .lookup_any(&GemmConfig::abt(32, 32, opts.sweep.k).into())
            .is_some());
        let text = render_tuner_sweep(&sweep);
        assert!(text.contains("never slower"));
        assert!(text.contains("yes"));
    }

    #[test]
    fn router_option_parsing_and_smoke_preset() {
        let opts = RouterSweepOptions::parse(
            ["--step", "16", "--max", "32", "--k", "8"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!((opts.sweep.step, opts.sweep.max, opts.sweep.k), (16, 32, 8));
        // Four shapes per swept size: thin 16×4×s, dense s×s×k, and the
        // two off-grid probes (thin 18×6×s, dense m % 16 == 2 square).
        assert_eq!(opts.shapes().len(), 8);

        let smoke = RouterSweepOptions::parse(["--smoke"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(
            (smoke.sweep.step, smoke.sweep.max, smoke.sweep.k),
            (32, 64, 32)
        );
        assert!(RouterSweepOptions::parse(["--setp", "1"].iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn smoke_router_sweep_crosses_the_backend_boundary() {
        let opts = RouterSweepOptions::parse(["--smoke"].iter().map(|s| s.to_string())).unwrap();
        let router = sme_router::Router::new(32);
        let sweep = router_sweep(&opts, &router);
        assert_eq!(sweep.points.len(), 8);
        assert!(
            sweep.routing_matches_model(),
            "router must follow the simulated argmin: {sweep:?}"
        );
        assert!(
            sweep.crossover_present(),
            "smoke preset must exercise both engines: {sweep:?}"
        );
        // The off-grid probes are part of the sweep and carry both cycle
        // counts (both generators now cover them).
        let edge = sweep
            .points
            .iter()
            .find(|p| p.m == 18 && p.n == 6)
            .expect("the off-grid thin probe is swept");
        assert!(edge.sme_cycles.is_some() && edge.neon_cycles.is_some());
        // Every point's JSON record carries the chosen backend's cycles.
        for p in &sweep.points {
            assert!(!p.config.is_empty());
            assert_eq!(
                p.simulated_cycles,
                if p.chosen == "Sme" {
                    p.sme_cycles
                } else {
                    p.neon_cycles
                }
            );
        }
        let text = render_router_sweep(&sweep);
        assert!(text.contains("matches the per-shape simulated argmin: yes"));
        assert!(text.contains("both engines exercised across the sweep: yes"));

        // Every simulated kernel carries a cycle attribution that
        // partitions its total — the CI gate behind `--profile`.
        assert!(sweep.profiles_sum_to_cycles());
        let report = sweep_profile_report(&sweep);
        assert_eq!(
            report.points.len(),
            sweep
                .points
                .iter()
                .map(|p| p.sme_cycles.iter().count() + p.neon_cycles.iter().count())
                .sum::<usize>()
        );
        for point in &report.points {
            assert!(point.sums_ok, "profile must partition cycles: {point:?}");
            assert!(!point.profile.is_empty());
        }
        // Dense SME shapes are bounded by the outer-product pipeline —
        // the attribution names the engine, not a bookkeeping bucket.
        let dense = report
            .points
            .iter()
            .find(|p| p.backend == "Sme" && p.config.contains("m=64 n=64"))
            .expect("dense SME point present");
        let (class, _) = dense.profile.dominant().expect("non-empty profile");
        assert!(
            class == "outer-product" || class == "stall:outer-product",
            "dense SME kernels are FMOPA-bound, got {class}"
        );
    }

    #[test]
    fn bf16_router_sweep_crosses_the_backend_boundary() {
        // The --bf16 preset parses, snaps shapes onto the widening grids,
        // and still exercises both engines: the thin 16x4 shapes stay
        // Neon BFMMLA territory on cycle count, the dense shapes —
        // 32-aligned or 8 past the grid — land on SME.
        let opts =
            RouterSweepOptions::parse(["--smoke", "--bf16"].iter().map(|s| s.to_string())).unwrap();
        assert!(opts.bf16);
        let shapes = opts.shapes();
        assert_eq!(
            shapes.len(),
            7,
            "shallow probe + thin + dense + off-grid edge per size"
        );
        assert!(shapes
            .iter()
            .all(|s| s.dtype() == sme_gemm::Dtype::WideningBf16));
        // Sizes that snap onto the same widening shape are probed once:
        // sizes {16, 32} both produce the dense 32x32.
        let collide = RouterSweepOptions::parse(
            ["--bf16", "--step", "16", "--max", "32", "--k", "32"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let collide_shapes = collide.shapes();
        for (i, a) in collide_shapes.iter().enumerate() {
            assert!(
                !collide_shapes[i + 1..].contains(a),
                "duplicate swept shape {a}"
            );
        }
        assert_eq!(
            collide_shapes.len(),
            5,
            "shallow probe + thin 16/32 + one dense 32x32 + one edge 40x40"
        );
        // Every edge probe is genuinely off the 32-grid, whatever the
        // swept sizes.
        assert!(collide_shapes
            .iter()
            .filter(|s| s.m() == s.n() && s.m() > 32)
            .all(|s| s.m() % 32 == 8));
        let router = sme_router::Router::new(32);
        let sweep = router_sweep(&opts, &router);
        assert!(
            sweep.routing_matches_model(),
            "router must follow the simulated argmin: {sweep:?}"
        );
        assert!(
            sweep.crossover_present(),
            "the BF16 preset must exercise both engines: {sweep:?}"
        );
        assert!(sweep.points.iter().all(|p| p.dtype == "WideningBf16"));
        // Every widening shape now carries both cycle counts (the SME
        // engine is total); the shallow thin probe still picks Neon on
        // merit — deeper thin shapes amortise the streaming-mode entry and
        // move to SME, which is exactly the performance boundary the
        // masked edges were built to expose.
        assert!(sweep
            .points
            .iter()
            .all(|p| p.sme_cycles.is_some() && p.neon_cycles.is_some()));
        assert!(sweep
            .points
            .iter()
            .any(|p| p.m == 16 && p.n == 4 && p.k == 8 && p.chosen == "Neon"));
        // The dense-but-misaligned probes (m % 32 == 8) route to SME: the
        // crossover is a performance boundary, not a support boundary.
        assert!(sweep
            .points
            .iter()
            .any(|p| !p.m.is_multiple_of(32) && p.n == p.m && p.chosen == "Sme"));
        let text = render_router_sweep(&sweep);
        assert!(text.contains("WideningBf16"));
        assert!(text.contains("matches the per-shape simulated argmin: yes"));
    }

    #[test]
    fn serving_trace_emits_seq_header_and_obs_artifacts() {
        let dir = std::env::temp_dir().join(format!("sme_serving_obs_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        let metrics_path = dir.join("metrics.prom");
        let opts = ServingTraceOptions {
            warm_batches: 1,
            shifted_batches: 2,
            requests: 1,
            trace: Some(trace_path.to_string_lossy().into_owned()),
            metrics: Some(metrics_path.to_string_lossy().into_owned()),
            ..Default::default()
        };
        let trace = serving_trace(&opts, &dir).expect("serving trace runs");

        // The per-batch records carry a gapless monotonic sequence and the
        // run header describes the producing configuration.
        assert!(trace.seq_gapless());
        assert_eq!(trace.batches.len(), 4); // 1 warm + 2 shifted + restart
        assert_eq!(trace.header.machine_fingerprint.len(), 16);
        assert_eq!(
            trace.header.decay_half_life,
            sme_router::DEFAULT_DECAY_HALF_LIFE
        );
        assert_eq!(trace.header.warm_batches, 1);

        // The trace artifact is a valid Chrome trace spanning both
        // processes, and the metrics snapshot carries the serving series.
        let chrome = std::fs::read_to_string(&trace_path).unwrap();
        let events = sme_obs::validate_chrome_trace(&chrome).expect("valid Chrome trace");
        assert!(events > 0);
        assert!(chrome.contains("router.dispatch"));
        assert!(chrome.contains("daemon.tick"));
        assert!(chrome.contains("cache.compile"));

        let prom = std::fs::read_to_string(&metrics_path).unwrap();
        for series in [
            "sme_cache_hits_total",
            "sme_cache_hit_ratio",
            "sme_router_batches_total",
            "sme_batch_makespan_cycles_bucket",
            "sme_pretune_ticks_total",
            "sme_pack_hits_total",
            "sme_pack_hit_ratio",
        ] {
            assert!(prom.contains(series), "metrics snapshot missing {series}");
        }
        // Both routers fed the same hub: 4 dispatches in total.
        assert!(prom.contains("sme_router_batches_total 4"));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serving_option_parsing_covers_the_observability_flags() {
        let opts = ServingTraceOptions::parse(
            [
                "--trace-capacity",
                "128",
                "--slo",
                "makespan-p99=5e6,hit-rate=0.25",
                "--postmortem",
                "/tmp/pm.json",
                "--check-baseline",
                "/tmp/base.json",
                "--write-baseline",
                "/tmp/new.json",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(opts.trace_capacity, 128);
        assert_eq!(opts.slo.makespan_p99_ceiling, 5e6);
        assert_eq!(opts.slo.hit_ratio_floor, 0.25);
        assert_eq!(opts.postmortem.as_deref(), Some("/tmp/pm.json"));
        assert_eq!(opts.check_baseline.as_deref(), Some("/tmp/base.json"));
        assert_eq!(opts.write_baseline.as_deref(), Some("/tmp/new.json"));

        // Strict parse errors, SweepOptions-style.
        for bad in [
            vec!["--trace-capacity"],
            vec!["--trace-capacity", "0"],
            vec!["--trace-capacity", "many"],
            vec!["--slo"],
            vec!["--slo", "makespan-p99"],
            vec!["--slo", "p50=3"],
            vec!["--slo", "makespan-p99=fast"],
            vec!["--slo", "makespan-p99=-1"],
            vec!["--slo", "hit-rate=1.5"],
            vec!["--slo", "hit-rate=inf"],
            vec!["--postmortem"],
            vec!["--check-baseline"],
        ] {
            assert!(
                ServingTraceOptions::parse(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn injected_slo_breach_produces_a_complete_postmortem_bundle() {
        let dir = std::env::temp_dir().join(format!("sme_serving_breach_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let opts = ServingTraceOptions {
            warm_batches: 1,
            shifted_batches: 1,
            requests: 1,
            // Impossible promises: every batch's makespan exceeds one
            // cycle, and the run's compiles keep the hit ratio below 1.
            slo: SloOptions {
                makespan_p99_ceiling: 1.0,
                hit_ratio_floor: 1.0,
            },
            ..Default::default()
        };
        let run = serving_run(&opts, &dir).expect("serving run");
        assert!(!run.breaches.is_empty(), "the injected SLOs must breach");
        assert!(run
            .breaches
            .iter()
            .any(|b| b.metric == "sme_batch_makespan_cycles"));

        let bundle = run.postmortem().expect("a breach yields a bundle");
        assert_eq!(
            bundle.get("version").unwrap().as_u64(),
            Some(sme_obs::POSTMORTEM_VERSION)
        );
        // The breaching rule plus all four snapshots.
        let rule = bundle
            .get("breach")
            .unwrap()
            .get("rule")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(rule, run.breaches[0].rule);
        assert!(bundle
            .get("trace")
            .unwrap()
            .get("traceEvents")
            .unwrap()
            .as_array()
            .is_some_and(|events| !events.is_empty()));
        assert!(bundle
            .get("metrics")
            .unwrap()
            .get("counters")
            .unwrap()
            .get("sme_router_batches_total")
            .is_some());
        assert!(bundle
            .get("telemetry_top_shapes")
            .unwrap()
            .as_array()
            .is_some_and(|shapes| !shapes.is_empty()));
        assert!(bundle
            .get("cache_shards")
            .unwrap()
            .as_array()
            .is_some_and(|shards| !shards.is_empty()));
        // The bundle is one valid JSON artifact.
        assert!(serde_json::from_str(&bundle.render_pretty()).is_ok());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn baseline_check_passes_unchanged_runs_and_catches_regressions() {
        let dir = std::env::temp_dir().join(format!("sme_serving_baseline_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let opts = ServingTraceOptions {
            warm_batches: 1,
            shifted_batches: 1,
            requests: 1,
            ..Default::default()
        };
        let trace = serving_trace(&opts, &dir).expect("serving run");
        let baseline = serving_baseline(&trace);
        assert!(baseline.metric("serving_restart_hit_rate").is_some());
        assert!(baseline.len() > 2, "summary metrics plus per-shape cycles");

        // An unchanged run passes…
        let report = baseline.compare(&serving_baseline(&trace));
        assert!(report.passed(), "{:?}", report.regressions);
        assert_eq!(report.compared, baseline.len());

        // …and a synthetically regressed one fails.
        let mut regressed = serving_baseline(&trace);
        let makespan = regressed
            .metric("serving_today_makespan_placed_mean")
            .expect("today batches present");
        regressed.set_metric("serving_today_makespan_placed_mean", makespan * 2.0);
        regressed.set_metric("serving_restart_hit_rate", 0.1);
        let report = baseline.compare(&regressed);
        assert_eq!(report.regressions.len(), 2);

        // The baseline round-trips through its file form.
        let path = dir.join("baseline.json");
        baseline.save(&path).unwrap();
        let machine = sme_machine::MachineConfig::apple_m4();
        let reloaded = sme_runtime::load_snapshot::<BaselineStore>(&path, &machine);
        assert_eq!(reloaded.check, sme_runtime::FingerprintCheck::Match);
        assert_eq!(reloaded.value, baseline);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn small_sweep_reproduces_the_headline_result() {
        // A coarse, fast sweep: the generated kernels must beat the vendor
        // baseline at every tested size for both layouts.
        let opts = SweepOptions {
            step: 96,
            max: 288,
            k: 128,
            json: None,
        };
        let fig8 = gemm_sweep(true, &opts);
        let fig9 = gemm_sweep(false, &opts);
        assert!(
            fig8.win_fraction() > 0.9,
            "Fig. 8 win fraction {}",
            fig8.win_fraction()
        );
        assert!(
            (fig9.win_fraction() - 1.0).abs() < 1e-9,
            "Fig. 9 win fraction {}",
            fig9.win_fraction()
        );
        assert!(fig8.geomean_speedup() > 1.0);
        let text = render_gemm_sweep(&fig8);
        assert!(text.contains("LIBXSMM"));
        assert!(text.contains("Accelerate"));
    }
}
