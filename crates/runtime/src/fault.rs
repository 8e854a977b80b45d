//! Deterministic fault injection for the serving stack.
//!
//! Production code asks two questions at well-known *sites* — "should this
//! operation fail now?" ([`fire`]) and "should these bytes be corrupted?"
//! ([`corrupt_bytes`]) — and both answer `false` unless a [`FaultInjector`]
//! has been installed process-wide with [`install_injector`]. The fast path
//! is a single relaxed atomic load, so production dispatch pays nothing for
//! the hooks.
//!
//! The stock injector is [`FaultPlan`]: a *seeded, deterministic* schedule
//! that counts occurrences per `(kind, site)` pair and fires each rule on an
//! exact occurrence number. Running the same binary with the same seed
//! injects the same faults at the same points — which is what lets
//! `serving --chaos` assert bit-correct recovery in CI instead of hoping a
//! randomized fuzzer happened to hit something.
//!
//! Sites are plain strings chosen by the call sites (snapshot file paths,
//! `service.group:<backend>:<config>`, `daemon.tick`), so a schedule can
//! target, say, "the second save of `telemetry.json`" or "the third dispatch
//! of an SME-routed group" without the production code knowing anything
//! about the schedule.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The kinds of fault the serving stack knows how to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A snapshot save fails with an I/O error before anything is written.
    SaveIo,
    /// A snapshot load of an existing file fails with an I/O error before
    /// its contents are used (a missing file is a fresh start, not a site).
    LoadIo,
    /// A persisted snapshot is corrupted on disk (bit-flip or truncation).
    SnapshotCorrupt,
    /// Compiling a kernel for a dispatch group fails.
    CompileFail,
    /// A dispatch group panics mid-execution.
    GroupPanic,
    /// A pretune-daemon tick fails outright.
    DaemonTick,
}

impl FaultKind {
    /// All kinds, in declaration order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::SaveIo,
        FaultKind::LoadIo,
        FaultKind::SnapshotCorrupt,
        FaultKind::CompileFail,
        FaultKind::GroupPanic,
        FaultKind::DaemonTick,
    ];

    /// Stable snake-case name (used in `BENCH_chaos.json` and metric names).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::SaveIo => "save_io",
            FaultKind::LoadIo => "load_io",
            FaultKind::SnapshotCorrupt => "snapshot_corrupt",
            FaultKind::CompileFail => "compile_fail",
            FaultKind::GroupPanic => "group_panic",
            FaultKind::DaemonTick => "daemon_tick",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A pluggable fault source. Implementations must be deterministic if the
/// harness wants reproducible chaos runs, but the trait itself does not
/// care — tests may hard-wire answers.
pub trait FaultInjector: Send + Sync + fmt::Debug {
    /// Should the operation identified by `(kind, site)` fail now?
    ///
    /// Called once per *attempt*; implementations typically count
    /// occurrences per `(kind, site)` and fire on exact counts.
    fn should_fire(&self, kind: FaultKind, site: &str) -> bool;

    /// Optionally corrupt `bytes` about to be written at `site`; return
    /// `true` if anything was changed. The default never corrupts.
    fn corrupt(&self, site: &str, bytes: &mut [u8]) -> bool {
        let _ = (site, bytes);
        false
    }
}

/// Fast-path arm flag: `false` means no injector has ever been installed
/// (or it has been cleared) and [`fire`] returns immediately.
static ARMED: AtomicBool = AtomicBool::new(false);

fn injector_slot() -> &'static Mutex<Option<Arc<dyn FaultInjector>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<dyn FaultInjector>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Install a process-wide fault injector. Replaces any previous injector.
pub fn install_injector(injector: Arc<dyn FaultInjector>) {
    let mut slot = injector_slot().lock().unwrap_or_else(|e| e.into_inner());
    *slot = Some(injector);
    ARMED.store(true, Ordering::Release);
}

/// Remove the process-wide fault injector; subsequent [`fire`] calls are
/// free again.
pub fn clear_injector() {
    let mut slot = injector_slot().lock().unwrap_or_else(|e| e.into_inner());
    *slot = None;
    ARMED.store(false, Ordering::Release);
}

/// Is a fault injector currently installed?
pub fn injection_armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// Ask the installed injector (if any) whether `(kind, site)` should fail
/// now. Production fast path: one relaxed atomic load when disarmed.
pub fn fire(kind: FaultKind, site: &str) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    let slot = injector_slot().lock().unwrap_or_else(|e| e.into_inner());
    match slot.as_ref() {
        Some(injector) => injector.should_fire(kind, site),
        None => false,
    }
}

/// Ask the installed injector (if any) to corrupt bytes about to be written
/// at `site`. Returns `true` if the buffer was changed.
pub fn corrupt_bytes(site: &str, bytes: &mut [u8]) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    let slot = injector_slot().lock().unwrap_or_else(|e| e.into_inner());
    match slot.as_ref() {
        Some(injector) => injector.corrupt(site, bytes),
        None => false,
    }
}

/// How a [`FaultRule`] selects sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SitePattern {
    /// Matches every site.
    Any,
    /// Matches sites ending with the given suffix (e.g. `"telemetry.json"`,
    /// which deliberately does *not* match the `…telemetry.json.bak`
    /// recovery generation).
    EndsWith(String),
    /// Matches sites containing the given substring (e.g. `":Sme:"` for
    /// SME-routed dispatch groups).
    Contains(String),
}

impl SitePattern {
    fn matches(&self, site: &str) -> bool {
        match self {
            SitePattern::Any => true,
            SitePattern::EndsWith(suffix) => site.ends_with(suffix.as_str()),
            SitePattern::Contains(needle) => site.contains(needle.as_str()),
        }
    }
}

/// One deterministic rule: fire `kind` at matching sites on exactly the
/// `occurrence`-th attempt (1-based, counted per `(kind, site)` pair).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Which fault to inject.
    pub kind: FaultKind,
    /// Which sites the rule applies to.
    pub pattern: SitePattern,
    /// The 1-based occurrence count at which the rule fires, per site.
    pub occurrence: u64,
}

/// One fault that actually fired (or was recorded externally by the chaos
/// harness, e.g. an on-disk truncation it performed itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// The kind of fault.
    pub kind: FaultKind,
    /// The site it fired at.
    pub site: String,
    /// The per-`(kind, site)` occurrence count when it fired.
    pub occurrence: u64,
}

#[derive(Debug, Default)]
struct PlanState {
    counts: HashMap<(FaultKind, String), u64>,
    events: Vec<FaultEvent>,
}

/// A seeded, deterministic fault schedule.
///
/// The seed perturbs the occurrence numbers of the built-in chaos rules
/// (see [`FaultPlan::chaos`]) so different seeds exercise different
/// interleavings, while any *fixed* seed replays the exact same faults.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    state: Mutex<PlanState>,
}

impl FaultPlan {
    /// A plan with an explicit rule list (for tests and custom harnesses).
    pub fn with_rules(seed: u64, rules: Vec<FaultRule>) -> Self {
        FaultPlan {
            seed,
            rules,
            state: Mutex::new(PlanState::default()),
        }
    }

    /// The stock chaos schedule driven by `serving --chaos`:
    ///
    /// * the telemetry snapshot save fails once mid-run (`SaveIo`);
    /// * the telemetry snapshot *primary* read fails at the restart restore
    ///   (`LoadIo`), forcing recovery from the `.bak` generation;
    /// * one daemon tick mid-run fails outright (`DaemonTick`);
    /// * every SME-routed dispatch group has one forced compile failure and
    ///   one forced panic on later repeats (`CompileFail`, `GroupPanic`),
    ///   exercising the Neon fallback ladder.
    ///
    /// `SnapshotCorrupt` events are recorded by the harness itself via
    /// [`FaultPlan::record_external`] when it corrupts files on disk.
    pub fn chaos(seed: u64) -> Self {
        let rules = vec![
            FaultRule {
                kind: FaultKind::SaveIo,
                pattern: SitePattern::EndsWith("telemetry.json".to_string()),
                occurrence: 2 + seed % 2,
            },
            FaultRule {
                kind: FaultKind::LoadIo,
                pattern: SitePattern::EndsWith("telemetry.json".to_string()),
                occurrence: 1,
            },
            FaultRule {
                kind: FaultKind::DaemonTick,
                pattern: SitePattern::Any,
                occurrence: 4 + seed % 3,
            },
            FaultRule {
                kind: FaultKind::CompileFail,
                pattern: SitePattern::Contains(":Sme:".to_string()),
                occurrence: 2 + seed % 2,
            },
            FaultRule {
                kind: FaultKind::GroupPanic,
                pattern: SitePattern::Contains(":Sme:".to_string()),
                occurrence: 3 + seed % 2,
            },
        ];
        FaultPlan::with_rules(seed, rules)
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The rules this plan fires on.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Every fault that has fired so far (including externally recorded
    /// ones), in firing order.
    pub fn events(&self) -> Vec<FaultEvent> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.events.clone()
    }

    /// Record a fault the harness performed *outside* the hook points (for
    /// example truncating a snapshot file on disk), so it still shows up in
    /// [`FaultPlan::events`] and the chaos report.
    pub fn record_external(&self, kind: FaultKind, site: &str) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let count = state
            .counts
            .entry((kind, site.to_string()))
            .and_modify(|c| *c += 1)
            .or_insert(1);
        let occurrence = *count;
        state.events.push(FaultEvent {
            kind,
            site: site.to_string(),
            occurrence,
        });
    }
}

impl FaultInjector for FaultPlan {
    fn should_fire(&self, kind: FaultKind, site: &str) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let count = state
            .counts
            .entry((kind, site.to_string()))
            .and_modify(|c| *c += 1)
            .or_insert(1);
        let occurrence = *count;
        let fired = self
            .rules
            .iter()
            .any(|r| r.kind == kind && r.occurrence == occurrence && r.pattern.matches(site));
        if fired {
            state.events.push(FaultEvent {
                kind,
                site: site.to_string(),
                occurrence,
            });
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_fire_on_exact_occurrences_per_site() {
        let plan = FaultPlan::with_rules(
            0,
            vec![FaultRule {
                kind: FaultKind::SaveIo,
                pattern: SitePattern::EndsWith("telemetry.json".to_string()),
                occurrence: 2,
            }],
        );
        assert!(!plan.should_fire(FaultKind::SaveIo, "/tmp/x/telemetry.json"));
        assert!(plan.should_fire(FaultKind::SaveIo, "/tmp/x/telemetry.json"));
        assert!(!plan.should_fire(FaultKind::SaveIo, "/tmp/x/telemetry.json"));
        // Other sites and the `.bak` generation count independently.
        assert!(!plan.should_fire(FaultKind::SaveIo, "/tmp/x/plans.json"));
        assert!(!plan.should_fire(FaultKind::SaveIo, "/tmp/x/telemetry.json.bak"));
        assert!(!plan.should_fire(FaultKind::SaveIo, "/tmp/x/telemetry.json.bak"));
        assert_eq!(plan.events().len(), 1);
        assert_eq!(plan.events()[0].occurrence, 2);
    }

    #[test]
    fn chaos_schedules_are_deterministic_per_seed() {
        let a = FaultPlan::chaos(7);
        let b = FaultPlan::chaos(7);
        assert_eq!(a.rules(), b.rules());
        for _ in 0..5 {
            assert_eq!(
                a.should_fire(FaultKind::DaemonTick, "daemon.tick"),
                b.should_fire(FaultKind::DaemonTick, "daemon.tick"),
            );
        }
        assert_eq!(a.events(), b.events());
        assert!(!a.events().is_empty(), "some tick fault fired in 5 ticks");
    }

    #[test]
    fn external_records_show_up_in_events() {
        let plan = FaultPlan::chaos(0);
        plan.record_external(FaultKind::SnapshotCorrupt, "/tmp/x/plans.json");
        let events = plan.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, FaultKind::SnapshotCorrupt);
    }

    #[test]
    fn disarmed_global_hooks_never_fire() {
        clear_injector();
        assert!(!fire(FaultKind::GroupPanic, "anywhere"));
        let mut bytes = vec![1, 2, 3];
        assert!(!corrupt_bytes("anywhere", &mut bytes));
        assert_eq!(bytes, vec![1, 2, 3]);
    }
}
