//! `hostbench` — the host-clock benchmark of the serving stack.
//!
//! ```text
//! hostbench --workload <serve_steady|serve_churn|tune_sweep> --seed <n>
//!           --seconds <s> --trace <0|1> --state-dir <dir> [--trace-out <file>]
//! ```
//!
//! `--trace 0` runs the workload untraced and prints the seven end-to-end
//! metrics; `--trace 1` replays one pass of the same seeded calls through
//! the layers' public functions and prints the per-layer metrics. The last
//! line of standard output is the JSON result. The exit status is non-zero
//! on any wrong output, replay-guard failure or unsupported percentile.
//! See `README.md` in this directory.

mod calib;
mod gen;
mod oracle;
mod replay;
mod stats;
mod workload;

use std::path::PathBuf;
use workload::{Plan, StateDir, Workload, MIN_SAMPLES, TRACE_RESTARTS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    state_dir: PathBuf,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: hostbench --workload <serve_steady|serve_churn|tune_sweep> \
                     --seed <n> --seconds <s> --trace <0|1> --state-dir <dir> [--trace-out <file>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut state_dir = None;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, not {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            "--state-dir" => state_dir = Some(PathBuf::from(value)),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        state_dir: state_dir.ok_or("missing --state-dir")?,
        trace_out,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for (name, unit, value) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

fn print_metrics(metrics: &[(&str, &str, f64)]) {
    for (name, unit, value) in metrics {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
}

/// Run and report; `Ok(false)` when the run completed but failed its checks.
fn run(args: &Args) -> Result<bool, String> {
    let name = args.workload.name();
    let plan = Plan::new(args.workload, args.seed);
    let state = StateDir::create(&args.state_dir, args.workload, args.seed)?;
    println!(
        "hostbench {name} seed {} | {} calls per pass | host threads available: {}",
        args.seed,
        plan.pass.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    workload::prime(&plan, &state)?;

    if args.trace {
        let trace_out = args.trace_out.clone().unwrap_or_else(|| {
            args.state_dir
                .join(format!("trace-{name}-{}.json", args.seed))
        });
        let traced = replay::run(&plan, &state, TRACE_RESTARTS, &trace_out)?;
        println!(
            "traced pass: {} calls, {} spans in {} (valid Chrome trace)",
            traced.calls,
            traced.spans,
            trace_out.display()
        );
        println!("self time by layer, per traced call:\n{}", traced.table);
        println!("per-layer metrics:");
        print_metrics(&traced.metrics);
        let ok = traced.oracle.failed == 0 && traced.guard_failures == 0;
        println!(
            "replay guard: {}",
            if traced.guard_failures == 0 {
                "passed"
            } else {
                "FAILED"
            }
        );
        let failed = traced.oracle.failed + traced.guard_failures;
        println!(
            "{}",
            result_line(ok, traced.oracle.attempted.max(1), failed, &traced.metrics)?
        );
        return Ok(ok);
    }

    let out = workload::run(&plan, &state, args.seconds, MIN_SAMPLES)?;
    let p50 = stats::percentile(&out.latencies_ms, 0.5)?;
    let p90 = stats::percentile(&out.latencies_ms, 0.9)?;
    let metrics = [
        ("requests_per_s", "1/s", out.requests as f64 / out.timed_s),
        ("latency_p50_ms", "ms", p50),
        ("latency_p90_ms", "ms", p90),
        ("sim_gflops", "GFLOP/s", out.sim.gflops()),
        ("sim_speedup_vs_accel", "x", out.sim.speedup_vs_accel()),
        ("setup_s", "s", stats::median(&out.setup_s)),
        ("peak_rss_mb", "MB", out.peak_rss_mb),
    ];
    print_metrics(&metrics);
    println!(
        "wall clock, uncalibrated: {:.4} requests/s, p50 {:.4} ms, p90 {:.4} ms, setup {:.4} s \
         (calibrated/wall time {:.4})",
        out.requests as f64 / out.wall_timed_s,
        stats::percentile(&out.wall_latencies_ms, 0.5)?,
        stats::percentile(&out.wall_latencies_ms, 0.9)?,
        stats::median(&out.wall_setup_s),
        out.timed_s / out.wall_timed_s
    );
    let beyond = out.latencies_ms.iter().filter(|&&l| l > p90).count();
    println!(
        "samples: {} timed calls ({} requests) over {} passes, {:.2} s timed (wall); {beyond} beyond p90; \
         setup_s is the median of {} restarts (one per pass)",
        out.latencies_ms.len(),
        out.requests,
        out.passes,
        out.wall_timed_s,
        out.setup_s.len()
    );
    println!("first-pass counts: {:?}", out.counts);
    let ok = out.oracle.failed == 0 && out.diverged == 0;
    let failed = out.oracle.failed + out.diverged;
    // Every request the run made: the timed ones plus each restart's
    // warm-up. Served outputs are all checked; a repeated tune must
    // reproduce the first pass's checked winner, or it counts as diverged.
    let attempted = out.requests + (out.setup_s.len() * plan.warmup.len()) as u64;
    println!("{}", result_line(ok, attempted, failed, &metrics)?);
    Ok(ok)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
