//! The background pretuner: keep the cache warm for *tomorrow's* traffic.
//!
//! `Router::pretune_hot` answers "which shapes dominate traffic? tune
//! exactly those" — but someone has to call it, and whatever it learned
//! dies with the process. The [`PretuneDaemon`] closes both gaps:
//!
//! * [`PretuneDaemon::tick`] takes the telemetry's **decayed** top-N (so
//!   the tuning budget follows shifting traffic, not all-time totals),
//!   tunes any shape without an installed winner, compiles every hot
//!   shape's winning kernel **into the cache** (the fetch a future
//!   dispatch performs becomes a hit, not a compile), and persists both
//!   halves of the learned state — the telemetry snapshot and the plan
//!   store — to their configured paths;
//! * [`PretuneDaemon::restore`] is the restart half: load both files
//!   back through the one snapshot loader (each validated against the
//!   machine fingerprint, stale state warn-and-discarded), absorb the
//!   telemetry into the router's registry and the plans into its cache,
//!   so the very first tick of a new process already knows yesterday's
//!   hot shapes;
//! * [`PretuneDaemon::spawn`] runs the tick loop on a background thread
//!   at a fixed interval, stoppable via the returned handle — the
//!   "background" in background pretuner.
//!
//! The `serving` bench binary drives this loop against a synthetic
//! shifting-traffic trace and proves the warm-cache claim with hit-rate
//! counters; `tests/serving_loop.rs` asserts it end-to-end, including
//! across a simulated restart.

use crate::router::Router;
use crate::telemetry::TelemetryRegistry;
use sme_gemm::AnyGemmConfig;
use sme_runtime::fault::{self, FaultKind};
use sme_runtime::{FingerprintCheck, PlanStore, SnapshotError, SnapshotSource, TunerOptions};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration of the background pretuner.
#[derive(Debug, Clone)]
pub struct PretuneDaemonConfig {
    /// How many of the decayed-hottest shapes each tick considers.
    pub top_n: usize,
    /// Tuner effort per un-tuned shape.
    pub tuner: TunerOptions,
    /// Where the telemetry snapshot is persisted (and restored from).
    pub telemetry_path: PathBuf,
    /// Where the plan store is persisted (and restored from).
    pub store_path: PathBuf,
}

impl PretuneDaemonConfig {
    /// A daemon persisting into `dir/telemetry.json` and `dir/plans.json`,
    /// tuning the top 8 shapes per tick at quick tuner effort.
    pub fn in_dir(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        PretuneDaemonConfig {
            top_n: 8,
            tuner: TunerOptions::quick(),
            telemetry_path: dir.join("telemetry.json"),
            store_path: dir.join("plans.json"),
        }
    }
}

/// Errors from a daemon tick or restore.
#[derive(Debug)]
pub enum DaemonError {
    /// Persisting the telemetry snapshot or the plan store failed.
    Snapshot(SnapshotError),
    /// Tuning a hot shape failed (the shape's configuration is invalid).
    Tune(sme_gemm::GemmError),
    /// A deterministically injected tick failure (chaos testing — see
    /// [`sme_runtime::FaultPlan`]).
    Fault(String),
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Snapshot(e) => write!(f, "pretune daemon snapshot error: {e}"),
            DaemonError::Tune(e) => write!(f, "pretune daemon tuning error: {e}"),
            DaemonError::Fault(site) => write!(f, "injected daemon fault at {site}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<SnapshotError> for DaemonError {
    fn from(e: SnapshotError) -> Self {
        DaemonError::Snapshot(e)
    }
}

impl From<sme_gemm::GemmError> for DaemonError {
    fn from(e: sme_gemm::GemmError) -> Self {
        DaemonError::Tune(e)
    }
}

/// What one daemon tick did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickReport {
    /// Monotonic tick counter (1 for the daemon's first tick). A stuck
    /// pretuner is visible as a counter that stops advancing.
    pub tick: u64,
    /// Wall-clock duration of the tick (tuning + warming + persisting). A
    /// slow pretuner is visible as a duration approaching the tick
    /// interval.
    pub duration: Duration,
    /// The decayed-hottest shapes this tick considered (hottest first).
    pub hot: Vec<AnyGemmConfig>,
    /// Shapes tuned this tick (they had no installed winner yet).
    pub tuned: Vec<AnyGemmConfig>,
    /// Hot shapes that already had a tuned winner installed.
    pub already_tuned: usize,
    /// Hot shapes whose winning kernel this tick compiled into the cache
    /// (the rest were already resident).
    pub warmed: usize,
    /// `true` once both the telemetry snapshot and the plan store have
    /// been written to their configured paths.
    pub persisted: bool,
}

/// What a restore recovered from disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreReport {
    /// Distinct shapes recovered into the telemetry registry (0 when the
    /// snapshot was missing or stale).
    pub telemetry_shapes: usize,
    /// Fingerprint verdict of the telemetry snapshot, if one existed.
    pub telemetry_check: Option<FingerprintCheck>,
    /// Which on-disk generation the telemetry snapshot was served from
    /// (`Backup` = the primary was corrupt or missing and `<path>.bak`
    /// recovered it; `None` = neither generation existed, a fresh start).
    pub telemetry_source: Option<SnapshotSource>,
    /// Tuned winners recovered into the plan store (0 when the store file
    /// was missing or stale).
    pub plans: usize,
    /// Fingerprint verdict of the plan store, if one existed.
    pub plan_check: Option<FingerprintCheck>,
    /// Which on-disk generation the plan store was served from.
    pub plan_source: Option<SnapshotSource>,
}

/// How [`DaemonHandle::stop`] ended: the supervision loop's exit status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopOutcome {
    /// The loop exited cleanly within the timeout.
    Stopped,
    /// The loop thread did not exit within the timeout; the stop flag
    /// stays set and the thread is detached (it exits after its in-flight
    /// tick and sleep slice).
    TimedOut,
    /// The loop thread itself died mid-flight (a panic that escaped the
    /// per-tick isolation) — the payload's detail, for the postmortem.
    Died(String),
}

/// How long [`DaemonHandle::stop`] waits for the in-flight tick before
/// detaching the loop thread.
pub const STOP_TIMEOUT: Duration = Duration::from_secs(10);

/// Handle to a running background pretuner (see [`PretuneDaemon::spawn`]).
/// Dropping the handle without calling [`DaemonHandle::stop`] detaches the
/// loop (it keeps the router alive through its `Arc`).
#[derive(Debug)]
pub struct DaemonHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    last_report: Arc<Mutex<Option<TickReport>>>,
    last_error: Arc<Mutex<Option<String>>>,
    consecutive_failures: Arc<AtomicU64>,
}

impl DaemonHandle {
    /// Signal the loop to stop and wait up to [`STOP_TIMEOUT`] for the
    /// in-flight tick to finish. A loop thread that died mid-flight is
    /// surfaced as [`StopOutcome::Died`] instead of being silently
    /// swallowed; one that will not exit in time is detached
    /// ([`StopOutcome::TimedOut`]), never blocked on forever.
    pub fn stop(self) -> StopOutcome {
        self.stop_within(STOP_TIMEOUT)
    }

    /// [`DaemonHandle::stop`] with an explicit join timeout.
    pub fn stop_within(mut self, timeout: Duration) -> StopOutcome {
        self.stop.store(true, Ordering::Relaxed);
        let Some(thread) = self.thread.take() else {
            return StopOutcome::Stopped;
        };
        let deadline = Instant::now() + timeout;
        while !thread.is_finished() {
            if Instant::now() >= deadline {
                return StopOutcome::TimedOut;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        match thread.join() {
            Ok(()) => StopOutcome::Stopped,
            Err(payload) => StopOutcome::Died(panic_detail(payload.as_ref())),
        }
    }

    /// The most recent successful tick's report, if any tick has completed
    /// yet. Operators watch `tick` (stopped advancing = stuck loop) and
    /// `duration` (approaching the interval = slow loop).
    pub fn last_report(&self) -> Option<TickReport> {
        sme_runtime::poison::lock(&self.last_report, "daemon tick report").clone()
    }

    /// The most recent failed tick's error, if any tick has failed yet.
    /// Stays readable after a later success (operators see *what* last
    /// went wrong); pair with
    /// [`consecutive_failures`](DaemonHandle::consecutive_failures) to see
    /// whether the loop is currently healthy.
    pub fn last_error(&self) -> Option<String> {
        sme_runtime::poison::lock(&self.last_error, "daemon tick error").clone()
    }

    /// How many ticks in a row have failed (0 = the last tick succeeded).
    /// The loop's retry backoff grows with this count.
    pub fn consecutive_failures(&self) -> u64 {
        self.consecutive_failures.load(Ordering::Relaxed)
    }
}

fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// The background pretuner (see the module docs).
#[derive(Debug, Clone)]
pub struct PretuneDaemon {
    config: PretuneDaemonConfig,
    /// Monotonic tick counter, shared across clones of this daemon (the
    /// spawn loop clones the daemon into its thread).
    ticks: Arc<AtomicU64>,
}

impl PretuneDaemon {
    /// A daemon with the given configuration.
    pub fn new(config: PretuneDaemonConfig) -> Self {
        PretuneDaemon {
            config,
            ticks: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &PretuneDaemonConfig {
        &self.config
    }

    /// Restore persisted state into `router`: the telemetry snapshot into
    /// its registry and the plan store into its cache.
    ///
    /// Each file loads through the one snapshot loader
    /// ([`PlanStore::load_recovered`] /
    /// [`TelemetryRegistry::load_recovered`]): a corrupt or missing primary
    /// generation recovers from its `.bak` previous generation, state
    /// stamped for a different machine fingerprint warns and is discarded,
    /// and only when both generations are bad does the restore fall back to
    /// empty state. When neither generation exists the restore is a fresh
    /// start: that file's report fields stay `None` and the router keeps
    /// its state. So restore itself never fails, and the report says which
    /// generation served. The `Result` is kept for API stability.
    pub fn restore(&self, router: &Router) -> Result<RestoreReport, DaemonError> {
        let mut report = RestoreReport {
            telemetry_shapes: 0,
            telemetry_check: None,
            telemetry_source: None,
            plans: 0,
            plan_check: None,
            plan_source: None,
        };
        let telemetry =
            TelemetryRegistry::load_recovered(&self.config.telemetry_path, router.machine());
        if telemetry.source != SnapshotSource::Missing {
            report.telemetry_shapes = telemetry.registry.len();
            report.telemetry_check = Some(telemetry.check);
            report.telemetry_source = Some(telemetry.source);
            router.telemetry().restore_from(telemetry.registry);
        }
        let plans = PlanStore::load_recovered(&self.config.store_path, router.machine());
        if plans.source != SnapshotSource::Missing {
            report.plans = plans.store.len();
            report.plan_check = Some(plans.check);
            report.plan_source = Some(plans.source);
            router.cache().replace_store(plans.store);
        }
        Ok(report)
    }

    /// One pretune pass over the decayed-hottest shapes: tune what has no
    /// winner, compile every hot winner into the cache, persist the
    /// telemetry snapshot and the plan store.
    pub fn tick(&self, router: &Router) -> Result<TickReport, DaemonError> {
        if fault::fire(FaultKind::DaemonTick, "daemon.tick") {
            return Err(DaemonError::Fault("daemon.tick".to_string()));
        }
        let tick_started = Instant::now();
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        // The tick's root span: every kernel warmed into the cache below
        // records its compile as a child, so a Perfetto load shows what a
        // tick actually paid for.
        let root = router.obs().map(|hub| (hub.clone(), hub.trace.root_ctx()));
        let hot: Vec<AnyGemmConfig> = router
            .top_shapes(self.config.top_n)
            .into_iter()
            .map(|stats| stats.config)
            .collect();

        let mut tuned = Vec::new();
        let mut already_tuned = 0;
        let mut warmed = 0;
        for config in &hot {
            if router.cache().lookup_tuned_any(config).is_some() {
                already_tuned += 1;
            } else {
                router.tune_any(config, &self.config.tuner)?;
                tuned.push(*config);
            }
            // Compile the winning kernel into the cache so the next
            // dispatch's fetch is a hit. `install_tuned_any` invalidates
            // same-key kernels, so this always compiles the *tuned*
            // variant.
            let backend = router.cache().preferred_backend_any(config);
            let parent = root.as_ref().map(|(_, root)| *root);
            let (_, cache_hit) = router
                .cache()
                .fetch_any_traced(config, backend, parent)
                .map_err(DaemonError::Tune)?;
            if !cache_hit {
                warmed += 1;
            }
            // Placement-aware dispatch also costs the Neon alternative of
            // every SME group; warm that kernel too so a post-restart
            // dispatch compiles nothing at all. Shapes Neon cannot serve
            // just skip this.
            if backend == sme_gemm::Backend::Sme {
                if let Ok((_, hit)) =
                    router
                        .cache()
                        .fetch_any_traced(config, sme_gemm::Backend::Neon, parent)
                {
                    if !hit {
                        warmed += 1;
                    }
                }
            }
        }

        router.telemetry().save(&self.config.telemetry_path)?;
        router
            .cache()
            .export_store()
            .save(&self.config.store_path)?;
        let report = TickReport {
            tick,
            duration: tick_started.elapsed(),
            hot,
            tuned,
            already_tuned,
            warmed,
            persisted: true,
        };
        if let Some((hub, root)) = &root {
            use serde::json::Value;
            hub.metrics.counter("sme_pretune_ticks_total").inc();
            hub.metrics
                .histogram("sme_pretune_tick_seconds")
                .record(report.duration.as_secs_f64());
            hub.metrics
                .gauge("sme_pretune_last_tick")
                .set(report.tick as f64);
            hub.trace.record_ctx(
                "daemon.tick",
                "daemon",
                tick_started,
                *root,
                vec![
                    ("tick".to_string(), Value::Number(report.tick as f64)),
                    ("hot".to_string(), Value::Number(report.hot.len() as f64)),
                    (
                        "tuned".to_string(),
                        Value::Number(report.tuned.len() as f64),
                    ),
                    ("warmed".to_string(), Value::Number(report.warmed as f64)),
                ],
            );
        }
        Ok(report)
    }

    /// Run [`PretuneDaemon::tick`] every `interval` on a background thread
    /// until the returned handle is stopped — *supervised*: each tick runs
    /// under `catch_unwind`, so neither an error nor a panic kills the
    /// pretuner. Failures are recorded on the handle
    /// ([`DaemonHandle::last_error`] /
    /// [`DaemonHandle::consecutive_failures`]) and retried under capped
    /// exponential backoff (`interval × 2^failures`, at most
    /// `interval × 32`), so a persistently broken disk does not turn the
    /// loop into a busy error spray while a transient failure recovers on
    /// the next beat.
    pub fn spawn(self, router: Arc<Router>, interval: Duration) -> DaemonHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let last_report: Arc<Mutex<Option<TickReport>>> = Arc::new(Mutex::new(None));
        let last_report_slot = last_report.clone();
        let last_error: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let last_error_slot = last_error.clone();
        let consecutive_failures = Arc::new(AtomicU64::new(0));
        let failure_count = consecutive_failures.clone();
        let thread = std::thread::spawn(move || {
            // Name the lane in the trace export: Perfetto shows
            // "pretune-daemon", not an opaque thread id.
            sme_obs::set_thread_name("pretune-daemon");
            while !stop_flag.load(Ordering::Relaxed) {
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.tick(&router)));
                let failed = match outcome {
                    Ok(Ok(report)) => {
                        *sme_runtime::poison::lock(&last_report_slot, "daemon tick report") =
                            Some(report);
                        failure_count.store(0, Ordering::Relaxed);
                        None
                    }
                    Ok(Err(e)) => Some(e.to_string()),
                    Err(payload) => {
                        Some(format!("tick panicked: {}", panic_detail(payload.as_ref())))
                    }
                };
                let failures = match failed {
                    None => 0,
                    Some(detail) => {
                        let failures = failure_count.fetch_add(1, Ordering::Relaxed) + 1;
                        eprintln!(
                            "warning: pretune daemon tick failed \
                             ({failures} consecutive): {detail}"
                        );
                        if let Some(hub) = router.obs() {
                            hub.metrics.counter("sme_daemon_tick_failures_total").inc();
                        }
                        *sme_runtime::poison::lock(&last_error_slot, "daemon tick error") =
                            Some(detail);
                        failures
                    }
                };
                // Capped exponential backoff after failures; the regular
                // beat otherwise. Sleep in short slices so stop() returns
                // promptly.
                let multiplier = 1u32 << failures.min(5) as u32;
                let mut remaining = interval.saturating_mul(multiplier);
                while !stop_flag.load(Ordering::Relaxed) && remaining > Duration::ZERO {
                    let slice = remaining.min(Duration::from_millis(20));
                    std::thread::sleep(slice);
                    remaining = remaining.saturating_sub(slice);
                }
            }
        });
        DaemonHandle {
            stop,
            thread: Some(thread),
            last_report,
            last_error,
            consecutive_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sme_gemm::{Backend, GemmConfig};
    use sme_runtime::GemmRequest;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sme_router_daemon_{tag}"));
        let _ = std::fs::create_dir_all(&dir);
        dir
    }

    #[test]
    fn tick_tunes_warms_and_persists() {
        let dir = temp_dir("tick");
        let daemon = PretuneDaemon::new(PretuneDaemonConfig {
            top_n: 2,
            ..PretuneDaemonConfig::in_dir(&dir)
        });
        let router = Router::new(32);
        let hot = GemmConfig::abt(48, 48, 16);
        let cold = GemmConfig::abt(16, 4, 4);
        let requests: Vec<GemmRequest> = (0..4)
            .map(|i| GemmRequest::fp32(if i == 0 { cold } else { hot }, i as u64))
            .collect();
        router.dispatch(&requests).unwrap();

        let report = daemon.tick(&router).unwrap();
        assert_eq!(report.hot.len(), 2);
        assert_eq!(report.hot[0], hot.into(), "cycles-ranked top shape");
        assert_eq!(report.tuned.len(), 2, "both shapes were untuned");
        assert_eq!(report.already_tuned, 0);
        assert!(report.persisted);
        assert_eq!(report.tick, 1, "monotonic counter starts at 1");
        assert!(report.duration > Duration::ZERO);
        assert!(daemon.config().telemetry_path.exists());
        assert!(daemon.config().store_path.exists());

        // A second tick finds everything tuned and the cache warm.
        let second = daemon.tick(&router).unwrap();
        assert!(second.tuned.is_empty());
        assert_eq!(second.already_tuned, 2);
        assert_eq!(second.warmed, 0, "winners already resident");
        assert_eq!(second.tick, 2, "counter advances per tick");

        // The warmed cache serves the hot shape without compiling.
        let misses_before = router.cache().stats().misses;
        let report = router.dispatch(&[GemmRequest::fp32(hot, 99)]).unwrap();
        assert!(report.batch.per_config[0].cache_hit);
        assert_eq!(router.cache().stats().misses, misses_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_recovers_yesterdays_state() {
        let dir = temp_dir("restore");
        let daemon = PretuneDaemon::new(PretuneDaemonConfig {
            top_n: 1,
            ..PretuneDaemonConfig::in_dir(&dir)
        });
        let hot = GemmConfig::abt(48, 48, 16);

        // "Yesterday": traffic, one tick, process exits.
        {
            let router = Router::new(32);
            let requests: Vec<GemmRequest> =
                (0..3).map(|i| GemmRequest::fp32(hot, i as u64)).collect();
            router.dispatch(&requests).unwrap();
            daemon.tick(&router).unwrap();
        }

        // "Today": a fresh process restores and already knows the shape.
        let router = Router::new(32);
        let report = daemon.restore(&router).unwrap();
        assert_eq!(report.telemetry_shapes, 1);
        assert_eq!(report.telemetry_check, Some(FingerprintCheck::Match));
        assert_eq!(report.plans, 1);
        assert_eq!(report.plan_check, Some(FingerprintCheck::Match));
        assert_eq!(router.telemetry().total_requests(), 3);
        assert_eq!(router.top_shapes(1)[0].config, hot.into());
        assert!(router.cache().lookup_tuned(&hot).is_some());

        // The first tick of the new process warms the cache from the
        // restored ranking without re-tuning…
        let tick = daemon.tick(&router).unwrap();
        assert!(tick.tuned.is_empty());
        assert_eq!(tick.already_tuned, 1);
        assert!(tick.warmed >= 1, "fresh cache, kernels compiled");
        // …so yesterday's hot shape dispatches as a pure cache hit.
        let report = router.dispatch(&[GemmRequest::fp32(hot, 7)]).unwrap();
        assert!(report.batch.per_config[0].cache_hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_rotation_restores_the_previous_generation() {
        // A crash between a save's rotate-to-`.bak` and its rename leaves
        // no primary, only the `.bak` generation of each snapshot.
        let dir = temp_dir("torn");
        let daemon = PretuneDaemon::new(PretuneDaemonConfig {
            top_n: 1,
            ..PretuneDaemonConfig::in_dir(&dir)
        });
        let router = Router::new(32);
        router
            .dispatch(&[GemmRequest::fp32(GemmConfig::abt(48, 48, 16), 1)])
            .unwrap();
        daemon.tick(&router).unwrap();
        daemon.tick(&router).unwrap();
        for path in [&daemon.config().telemetry_path, &daemon.config().store_path] {
            std::fs::rename(path, sme_runtime::backup_path(path)).unwrap();
        }
        let report = daemon.restore(&Router::new(32)).unwrap();
        assert_eq!(report.plan_source, Some(SnapshotSource::Backup));
        assert!(report.plans >= 1, "{report:?}");
        assert!(report.telemetry_shapes >= 1, "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_from_nothing_is_a_fresh_start() {
        let dir = temp_dir("fresh");
        let _ = std::fs::remove_dir_all(&dir);
        let daemon = PretuneDaemon::new(PretuneDaemonConfig::in_dir(&dir));
        let router = Router::new(8);
        let report = daemon.restore(&router).unwrap();
        assert_eq!(report.telemetry_shapes, 0);
        assert_eq!(report.telemetry_check, None);
        assert_eq!(report.plans, 0);
        assert_eq!(report.plan_check, None);
        // An empty tick persists empty state without erroring — the files'
        // directory may not exist yet, so create it like an operator would.
        let _ = std::fs::create_dir_all(&dir);
        let tick = daemon.tick(&router).unwrap();
        assert!(tick.hot.is_empty() && tick.persisted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spawned_daemon_ticks_in_the_background() {
        let dir = temp_dir("spawn");
        let daemon = PretuneDaemon::new(PretuneDaemonConfig {
            top_n: 1,
            ..PretuneDaemonConfig::in_dir(&dir)
        });
        let router = Arc::new(Router::new(16));
        let cfg = GemmConfig::abt(32, 32, 8);
        router
            .dispatch(&[GemmRequest::fp32(cfg, 1), GemmRequest::fp32(cfg, 2)])
            .unwrap();

        let handle = daemon
            .clone()
            .spawn(router.clone(), Duration::from_millis(5));
        // Wait for at least one tick to land on disk.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !daemon.config().telemetry_path.exists() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // The handle exposes the last tick report while the loop runs.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.last_report().is_none() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let last = handle.last_report().expect("a tick completed");
        assert!(last.tick >= 1);
        assert!(last.persisted);
        handle.stop();
        assert!(daemon.config().telemetry_path.exists(), "daemon persisted");
        assert!(
            router.cache().lookup_tuned(&cfg).is_some(),
            "daemon tuned the hot shape in the background"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_state_is_discarded_on_restore() {
        let dir = temp_dir("stale");
        let daemon = PretuneDaemon::new(PretuneDaemonConfig {
            top_n: 1,
            ..PretuneDaemonConfig::in_dir(&dir)
        });
        let hot = GemmConfig::abt(32, 32, 8);
        {
            let router = Router::new(16);
            router.dispatch(&[GemmRequest::fp32(hot, 1)]).unwrap();
            daemon.tick(&router).unwrap();
        }
        // A recalibrated machine must not trust yesterday's cycles/plans.
        let mut machine = sme_machine::MachineConfig::apple_m4();
        machine.p_core.clock_ghz = 4.0;
        let service = sme_runtime::GemmService::new(16);
        let router = Router::with_service(service, crate::policy::RoutingPolicy::Measured, machine);
        let report = daemon.restore(&router).unwrap();
        assert!(matches!(
            report.telemetry_check,
            Some(FingerprintCheck::Mismatch { .. })
        ));
        assert_eq!(report.telemetry_shapes, 0, "stale shapes were discarded");
        assert!(router.telemetry().is_empty());
        assert!(matches!(
            report.plan_check,
            Some(FingerprintCheck::Mismatch { .. })
        ));
        assert!(router.cache().lookup_tuned(&hot).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_ticks_are_supervised_not_fatal() {
        // Point the persistence paths into a directory that does not
        // exist: every tick fails at the save step. The supervised loop
        // must keep running, surface the error on the handle, and count
        // the consecutive failures (driving its backoff) — then stop
        // cleanly.
        let dir = std::env::temp_dir().join("sme_router_daemon_missing_dir/nested");
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
        let daemon = PretuneDaemon::new(PretuneDaemonConfig {
            top_n: 1,
            ..PretuneDaemonConfig::in_dir(&dir)
        });
        let router = Arc::new(Router::new(16));
        router
            .dispatch(&[GemmRequest::fp32(GemmConfig::abt(32, 32, 8), 1)])
            .unwrap();

        let handle = daemon.spawn(router.clone(), Duration::from_millis(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.last_error().is_none() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let error = handle.last_error().expect("a failing tick was recorded");
        assert!(
            error.contains("telemetry"),
            "the telemetry save fails first: {error}"
        );
        assert!(handle.consecutive_failures() >= 1);
        assert_eq!(handle.last_report(), None, "no tick ever succeeded");
        assert_eq!(handle.stop(), StopOutcome::Stopped);
    }

    #[test]
    fn stopping_an_idle_daemon_is_prompt_and_clean() {
        let dir = temp_dir("stop");
        let daemon = PretuneDaemon::new(PretuneDaemonConfig::in_dir(&dir));
        let router = Arc::new(Router::new(8));
        let handle = daemon.spawn(router, Duration::from_secs(3600));
        // The loop is asleep in its first interval; stop must not wait the
        // hour out.
        let started = std::time::Instant::now();
        assert_eq!(handle.stop(), StopOutcome::Stopped);
        assert!(started.elapsed() < Duration::from_secs(5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn daemon_prefers_recent_traffic() {
        // Shifting traffic: the daemon's top-1 follows the decayed
        // ranking, so "tomorrow's" shape takes the tuning slot even though
        // yesterday's has more all-time cycles.
        let dir = temp_dir("shift");
        let daemon = PretuneDaemon::new(PretuneDaemonConfig {
            top_n: 1,
            ..PretuneDaemonConfig::in_dir(&dir)
        });
        let router = Router::new(32);
        let yesterday = GemmConfig::abt(64, 64, 64);
        let today = GemmConfig::abt(48, 48, 16);
        for i in 0..30 {
            router.dispatch(&[GemmRequest::fp32(yesterday, i)]).unwrap();
        }
        for i in 0..60 {
            router.dispatch(&[GemmRequest::fp32(today, i)]).unwrap();
        }
        let y = router.telemetry().shape(&yesterday.into()).unwrap();
        let t = router.telemetry().shape(&today.into()).unwrap();
        assert!(y.cycles > t.cycles, "all-time cycles favour yesterday");
        let tick = daemon.tick(&router).unwrap();
        assert_eq!(tick.hot, vec![today.into()], "decay follows the shift");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restored_registry_keeps_recording() {
        // After restore_from, the absorbed registry keeps accumulating —
        // the restore is in-place, not a new object.
        let router = Router::new(8);
        let loaded = TelemetryRegistry::for_machine(router.machine());
        loaded.record_group(
            &GemmConfig::abt(32, 32, 8).into(),
            Backend::Sme,
            5,
            500.0,
            true,
        );
        router.telemetry().restore_from(loaded);
        assert_eq!(router.telemetry().total_requests(), 5);
        router
            .dispatch(&[GemmRequest::fp32(GemmConfig::abt(32, 32, 8), 1)])
            .unwrap();
        assert_eq!(router.telemetry().total_requests(), 6);
    }
}
