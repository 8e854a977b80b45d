//! The perf-baseline sentinel: a persisted, machine-fingerprinted record
//! of what the serving bench *used to* measure, and the comparison that
//! turns `BENCH_*.json` artifacts from publish-and-forget into a ratchet.
//!
//! A [`BaselineStore`] is a [`Snapshot`] like the plan store — a
//! versioned JSON document stamped with the machine model's timing
//! fingerprint, loaded through the one snapshot loader
//! ([`sme_runtime::load_snapshot`]), which warns and discards on a
//! fingerprint mismatch — and holds two sorted maps: per-shape simulated
//! cycles (one entry per serving-trace shape) and serving-bench summary
//! metrics (makespans, hit rates).
//!
//! [`BaselineStore::compare`] checks a current run against the stored
//! baseline with direction-aware per-metric tolerances: cycle-like
//! metrics regress when they grow past `(1 + REL_TOLERANCE) × baseline`,
//! hit-rate-like metrics (name containing `hit_rate`) regress when they
//! fall more than [`HIT_RATE_TOLERANCE`] below the baseline, and
//! cycle-win metrics (name containing `win`, e.g. the pipelined
//! schedule's saved cycles) regress when they fall below
//! `(1 - REL_TOLERANCE) × baseline`. The
//! `serving` binary's `--check-baseline` exits non-zero on any
//! regression.

use serde::json::Value;
use sme_machine::MachineConfig;
use sme_runtime::{Snapshot, SnapshotError};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Version stamp written into the baseline JSON document.
pub const BASELINE_VERSION: u64 = 1;

/// Relative growth tolerance for higher-is-worse metrics (cycles,
/// makespans, seconds): the model is deterministic, so 10% headroom only
/// absorbs intentional small model changes, not real regressions.
pub const REL_TOLERANCE: f64 = 0.10;

/// Absolute drop tolerance for lower-is-worse metrics (names containing
/// `hit_rate`, which live on a 0..=1 scale).
pub const HIT_RATE_TOLERANCE: f64 = 0.02;

/// One metric that moved past its tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRegression {
    /// The regressed metric (shape entries are prefixed `shape_cycles:`).
    pub metric: String,
    /// The stored baseline value.
    pub baseline: f64,
    /// The current run's value.
    pub current: f64,
    /// The bound the current value crossed.
    pub limit: f64,
}

impl fmt::Display for MetricRegression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: baseline {:.4}, current {:.4}, limit {:.4}",
            self.metric, self.baseline, self.current, self.limit
        )
    }
}

/// The outcome of comparing a current run against a stored baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCheckReport {
    /// Metrics that crossed their tolerance, in sorted name order.
    pub regressions: Vec<MetricRegression>,
    /// How many metrics were present in both stores and compared.
    pub compared: usize,
}

impl BaselineCheckReport {
    /// `true` when nothing regressed.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Persisted serving-bench baseline: summary metrics plus per-shape
/// simulated cycles, stamped with the machine model's fingerprint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BaselineStore {
    machine_fingerprint: Option<u64>,
    metrics: BTreeMap<String, f64>,
    shapes: BTreeMap<String, f64>,
}

impl BaselineStore {
    /// An empty, unstamped baseline.
    pub fn new() -> Self {
        BaselineStore::default()
    }

    /// An empty baseline stamped with `machine`'s timing fingerprint.
    pub fn for_machine(machine: &MachineConfig) -> Self {
        BaselineStore {
            machine_fingerprint: Some(machine.fingerprint()),
            ..BaselineStore::default()
        }
    }

    /// Record a summary metric (overwrites a previous value).
    pub fn set_metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// A recorded summary metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Record a shape's simulated per-request cycles, keyed by the shape's
    /// display form.
    pub fn set_shape_cycles(&mut self, shape: impl Into<String>, cycles: f64) {
        self.shapes.insert(shape.into(), cycles);
    }

    /// A recorded shape's simulated cycles.
    pub fn shape_cycles(&self, shape: &str) -> Option<f64> {
        self.shapes.get(shape).copied()
    }

    /// Number of recorded entries (metrics + shapes).
    pub fn len(&self) -> usize {
        self.metrics.len() + self.shapes.len()
    }

    /// `true` when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty() && self.shapes.is_empty()
    }

    /// Compare `current` against this baseline. Only entries present in
    /// **both** stores are compared (a new metric cannot regress; a
    /// deleted one is a review question, not a gate). Direction is
    /// per-metric: names containing `hit_rate` must not fall more than
    /// [`HIT_RATE_TOLERANCE`] below baseline; names containing `win`
    /// (cycle savings, where bigger is better) must not fall below
    /// `(1 - REL_TOLERANCE) × baseline`; everything else must not
    /// grow past `(1 + REL_TOLERANCE) × baseline`.
    pub fn compare(&self, current: &BaselineStore) -> BaselineCheckReport {
        let mut regressions = Vec::new();
        let mut compared = 0;
        let entries = self
            .metrics
            .iter()
            .map(|(name, &value)| (name.clone(), value, current.metric(name)))
            .chain(self.shapes.iter().map(|(shape, &value)| {
                (
                    format!("shape_cycles:{shape}"),
                    value,
                    current.shape_cycles(shape),
                )
            }));
        for (name, baseline, observed) in entries {
            let Some(observed) = observed else { continue };
            compared += 1;
            if name.contains("hit_rate") {
                let limit = baseline - HIT_RATE_TOLERANCE;
                if observed < limit {
                    regressions.push(MetricRegression {
                        metric: name,
                        baseline,
                        current: observed,
                        limit,
                    });
                }
            } else if name.contains("win") {
                let limit = baseline * (1.0 - REL_TOLERANCE);
                if observed < limit {
                    regressions.push(MetricRegression {
                        metric: name,
                        baseline,
                        current: observed,
                        limit,
                    });
                }
            } else {
                let limit = baseline * (1.0 + REL_TOLERANCE);
                if observed > limit {
                    regressions.push(MetricRegression {
                        metric: name,
                        baseline,
                        current: observed,
                        limit,
                    });
                }
            }
        }
        BaselineCheckReport {
            regressions,
            compared,
        }
    }

    /// Serialise as a versioned JSON document with deterministically
    /// sorted keys (the maps are `BTreeMap`s, so the output is diffable).
    pub fn to_json(&self) -> String {
        let to_object = |map: &BTreeMap<String, f64>| {
            Value::Object(
                map.iter()
                    .map(|(name, &value)| (name.clone(), Value::Number(value)))
                    .collect(),
            )
        };
        let mut fields = vec![(
            "version".to_string(),
            Value::Number(BASELINE_VERSION as f64),
        )];
        if let Some(fp) = self.machine_fingerprint {
            fields.push((
                "machine_fingerprint".to_string(),
                Value::String(format!("{fp:016x}")),
            ));
        }
        fields.push(("metrics".to_string(), to_object(&self.metrics)));
        fields.push(("shape_cycles".to_string(), to_object(&self.shapes)));
        Value::Object(fields).render_pretty()
    }

    /// Parse a document produced by [`BaselineStore::to_json`].
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        sme_runtime::parse_snapshot(text)
    }

    /// Write the baseline to `path` — atomically (temp + fsync + rename),
    /// with a checksum trailer, keeping the previous generation at
    /// `<path>.bak` (see [`sme_runtime::save_snapshot`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        sme_runtime::save_snapshot(path.as_ref(), &self.to_json())
    }
}

impl Snapshot for BaselineStore {
    const KIND: &'static str = "baseline";
    const VERSION: u64 = BASELINE_VERSION;

    fn decode(doc: &Value, machine_fingerprint: Option<u64>) -> Result<Self, String> {
        let parse_map = |key: &str| -> Result<BTreeMap<String, f64>, String> {
            let mut map = BTreeMap::new();
            let Some(section) = doc.get(key) else {
                return Err(format!("missing \"{key}\" section"));
            };
            let entries = section
                .as_object()
                .ok_or_else(|| format!("\"{key}\" must be an object of numbers"))?;
            for (name, value) in entries {
                let value = value
                    .as_f64()
                    .ok_or_else(|| format!("\"{key}\".\"{name}\" must be a number"))?;
                if !value.is_finite() {
                    return Err(format!("\"{key}\".\"{name}\" must be finite"));
                }
                map.insert(name.clone(), value);
            }
            Ok(map)
        };
        Ok(BaselineStore {
            machine_fingerprint,
            metrics: parse_map("metrics")?,
            shapes: parse_map("shape_cycles")?,
        })
    }

    fn empty_for(machine: &MachineConfig) -> Self {
        BaselineStore::for_machine(machine)
    }

    fn machine_fingerprint(&self) -> Option<u64> {
        self.machine_fingerprint
    }

    fn entry_count(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BaselineStore {
        let mut store = BaselineStore::for_machine(&MachineConfig::apple_m4());
        store.set_metric("serving_today_makespan_placed_mean", 1000.0);
        store.set_metric("serving_restart_hit_rate", 1.0);
        store.set_shape_cycles("f32 64x64x32 A*B^T", 500.0);
        store
    }

    #[test]
    fn json_round_trip_is_lossless_and_sorted() {
        let store = sample();
        let text = store.to_json();
        let reloaded = BaselineStore::from_json(&text).unwrap();
        assert_eq!(reloaded, store);
        // Keys render in sorted order (diffable artifact).
        let makespan = text.find("serving_today_makespan_placed_mean").unwrap();
        let hit_rate = text.find("serving_restart_hit_rate").unwrap();
        assert!(hit_rate < makespan, "r < t in sorted order");
        assert!(text.contains("\"version\""));
        assert_eq!(
            reloaded.machine_fingerprint(),
            Some(MachineConfig::apple_m4().fingerprint())
        );
    }

    #[test]
    fn malformed_documents_are_rejected_with_context() {
        let cases: Vec<(&str, &str)> = vec![
            ("not json", "invalid JSON"),
            ("{}", "version"),
            ("{\"version\": 99}", "unsupported baseline version 99"),
            (
                "{\"version\": 1, \"metrics\": {}}",
                "missing \"shape_cycles\" section",
            ),
            (
                "{\"version\": 1, \"metrics\": 5, \"shape_cycles\": {}}",
                "\"metrics\" must be an object",
            ),
            (
                "{\"version\": 1, \"metrics\": {\"x\": \"fast\"}, \"shape_cycles\": {}}",
                "\"metrics\".\"x\" must be a number",
            ),
            (
                "{\"version\": 1, \"machine_fingerprint\": 12, \
                 \"metrics\": {}, \"shape_cycles\": {}}",
                "hex string",
            ),
            (
                "{\"version\": 1, \"machine_fingerprint\": \"xyz!\", \
                 \"metrics\": {}, \"shape_cycles\": {}}",
                "invalid machine fingerprint",
            ),
        ];
        for (doc, needle) in cases {
            let err = BaselineStore::from_json(doc).unwrap_err().to_string();
            assert!(err.contains(needle), "{doc}: {err}");
        }
    }

    #[test]
    fn compare_is_direction_aware() {
        let baseline = sample();

        // An identical run passes.
        let report = baseline.compare(&baseline.clone());
        assert!(report.passed());
        assert_eq!(report.compared, 3);

        // Cycles growing past the relative tolerance regress…
        let mut slower = baseline.clone();
        slower.set_metric("serving_today_makespan_placed_mean", 1200.0);
        let report = baseline.compare(&slower);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(
            report.regressions[0].metric,
            "serving_today_makespan_placed_mean"
        );
        assert!(report.regressions[0].limit < 1200.0);
        // …while shrinking ones (an improvement) pass.
        let mut faster = baseline.clone();
        faster.set_metric("serving_today_makespan_placed_mean", 500.0);
        assert!(baseline.compare(&faster).passed());

        // Hit rates are floors: a drop regresses, a (impossible) rise
        // passes.
        let mut cold = baseline.clone();
        cold.set_metric("serving_restart_hit_rate", 0.5);
        let report = baseline.compare(&cold);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].metric, "serving_restart_hit_rate");

        // Cycle wins are relative floors: a shrinking win regresses, a
        // growing one passes.
        let mut with_win = baseline.clone();
        with_win.set_metric("serving_pipeline_cycle_win_total", 100.0);
        let mut smaller_win = with_win.clone();
        smaller_win.set_metric("serving_pipeline_cycle_win_total", 80.0);
        let report = with_win.compare(&smaller_win);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(
            report.regressions[0].metric,
            "serving_pipeline_cycle_win_total"
        );
        assert_eq!(report.regressions[0].limit, 90.0);
        let mut bigger_win = with_win.clone();
        bigger_win.set_metric("serving_pipeline_cycle_win_total", 150.0);
        assert!(with_win.compare(&bigger_win).passed());

        // Per-shape cycles are ceilings too, reported with the prefix.
        let mut shape_slow = baseline.clone();
        shape_slow.set_shape_cycles("f32 64x64x32 A*B^T", 600.0);
        let report = baseline.compare(&shape_slow);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(
            report.regressions[0].metric,
            "shape_cycles:f32 64x64x32 A*B^T"
        );

        // Entries missing on either side are skipped, not failed.
        let mut sparse = BaselineStore::for_machine(&MachineConfig::apple_m4());
        sparse.set_metric("serving_restart_hit_rate", 1.0);
        let report = baseline.compare(&sparse);
        assert!(report.passed());
        assert_eq!(report.compared, 1);
        // An empty baseline (what a discarded stale one loads as) passes
        // vacuously: runs on different timing models are not comparable.
        assert!(BaselineStore::new().compare(&baseline).passed());
    }
}
