//! Persistent store of autotuned plan winners.
//!
//! The tuner is expensive (it generates and timing-simulates every
//! candidate), so winners are worth keeping across runs. A [`PlanStore`]
//! maps a *normalized* [`AnyGemmConfig`] — the datatype family, shape,
//! leading dimensions, layout and accumulation mode, with the tunable
//! code-generation knobs reset — to the winning [`PlanCandidate`] and its
//! scores, and round-trips through a small versioned JSON document (see
//! [`PlanStore::to_json`]).
//!
//! A record never stores the expanded block list: a [`PlanKind`] is enough
//! to re-derive the plan deterministically, which keeps the document tiny
//! and immune to staleness in the block geometry itself.

use crate::persist::{self, FingerprintCheck, Recovered, Snapshot, SnapshotError, SnapshotSource};
use serde::Serialize;
use serde_json::Value;
use sme_gemm::{
    AnyGemmConfig, BLayout, Backend, Beta, Dtype, GemmConfig, KernelSchedule, PlanCandidate,
    PlanKind, WideningGemmConfig, ZaTransferStrategy,
};
use sme_machine::MachineConfig;
use std::collections::HashMap;
use std::path::Path;

/// Version stamp written into the JSON document, and the only version that
/// loads: older documents are discarded like a stale fingerprint (tuned
/// winners are a cache the tuner regenerates). Every entry carries a
/// `dtype` tag (`"Fp32"` or `"WideningBf16"`; widening entries write `null`
/// for the FP32-only fields `lda`/`ldb`/`ldc`/`b_layout`/`beta`), a
/// `backend` tag and a `schedule` tag (`"Serial"` or `"Pipelined"`; absent
/// means serial, so hand-trimmed documents stay loadable).
pub const PLAN_STORE_VERSION: u64 = 4;

/// The tuning result stored for one normalized configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedRecord {
    /// The winning candidate.
    pub candidate: PlanCandidate,
    /// Simulated cycles of the winner.
    pub tuned_cycles: f64,
    /// Simulated cycles of the default (untuned) candidate, kept so that
    /// reports can show the achieved improvement without re-simulating.
    pub default_cycles: f64,
}

impl TunedRecord {
    /// Speed-up of the winner over the default plan (≥ 1 by construction:
    /// the tuner's candidate set always contains the default).
    pub fn speedup(&self) -> f64 {
        if self.tuned_cycles == 0.0 {
            1.0
        } else {
            self.default_cycles / self.tuned_cycles
        }
    }
}

/// In-memory map of tuned winners, keyed by normalized configuration, plus
/// the fingerprint of the machine model the winners were tuned on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanStore {
    entries: HashMap<AnyGemmConfig, TunedRecord>,
    machine_fingerprint: Option<u64>,
}

/// Normalize a configuration of either datatype to its tuning key: the
/// tunable knobs (`c_transfer`, `k_unroll` and, for FP32, `schedule`) are
/// reset to fixed values so that requests differing only in those knobs
/// share one tuned winner.
pub fn tune_key_any(cfg: &AnyGemmConfig) -> AnyGemmConfig {
    match cfg {
        AnyGemmConfig::Fp32(c) => AnyGemmConfig::Fp32(
            c.with_c_transfer(ZaTransferStrategy::TwoStep)
                .with_k_unroll(1)
                .with_schedule(KernelSchedule::Serial),
        ),
        AnyGemmConfig::WideningBf16(c) => AnyGemmConfig::WideningBf16(
            c.with_c_transfer(ZaTransferStrategy::TwoStep)
                .with_k_unroll(1),
        ),
    }
}

impl PlanStore {
    /// An empty, unstamped store.
    pub fn new() -> Self {
        PlanStore::default()
    }

    /// An empty store stamped with `machine`'s timing fingerprint.
    pub fn for_machine(machine: &MachineConfig) -> Self {
        PlanStore {
            machine_fingerprint: Some(machine.fingerprint()),
            ..PlanStore::default()
        }
    }

    /// Number of tuned winners.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no winners are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record the winner for a configuration of either datatype
    /// (normalized internally). Returns the previous record, if any.
    pub fn insert_any(&mut self, cfg: &AnyGemmConfig, record: TunedRecord) -> Option<TunedRecord> {
        self.entries.insert(tune_key_any(cfg), record)
    }

    /// Look up the winner for a configuration of either datatype
    /// (normalized internally).
    pub fn lookup_any(&self, cfg: &AnyGemmConfig) -> Option<&TunedRecord> {
        self.entries.get(&tune_key_any(cfg))
    }

    /// Iterate over `(normalized config, record)` pairs in unspecified
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&AnyGemmConfig, &TunedRecord)> {
        self.entries.iter()
    }

    /// Serialize to the versioned JSON document, with entries sorted by
    /// datatype then shape so the output is deterministic. The machine
    /// fingerprint, when stamped, is written as a 16-digit hex string (JSON
    /// numbers cannot carry 64 bits losslessly). Widening entries write
    /// `null` for the FP32-only fields.
    pub fn to_json(&self) -> String {
        #[derive(Serialize)]
        struct Entry {
            dtype: String,
            m: usize,
            n: usize,
            k: usize,
            lda: Option<usize>,
            ldb: Option<usize>,
            ldc: Option<usize>,
            b_layout: Option<BLayout>,
            beta: Option<Beta>,
            backend: String,
            plan: String,
            c_transfer: ZaTransferStrategy,
            k_unroll: usize,
            schedule: String,
            tuned_cycles: f64,
            default_cycles: f64,
        }
        #[derive(Serialize)]
        struct Doc {
            version: u64,
            machine_fingerprint: Option<String>,
            entries: Vec<Entry>,
        }
        let mut pairs: Vec<(&AnyGemmConfig, &TunedRecord)> = self.entries.iter().collect();
        pairs.sort_by_key(|(c, _)| c.ordering_key());
        let doc = Doc {
            version: PLAN_STORE_VERSION,
            machine_fingerprint: self.machine_fingerprint.map(|fp| format!("{fp:016x}")),
            entries: pairs
                .into_iter()
                .map(|(any, r)| {
                    let base = Entry {
                        dtype: any.dtype().name().to_string(),
                        m: any.m(),
                        n: any.n(),
                        k: any.k(),
                        lda: None,
                        ldb: None,
                        ldc: None,
                        b_layout: None,
                        beta: None,
                        backend: r.candidate.backend.name().to_string(),
                        plan: r.candidate.kind.name().to_string(),
                        c_transfer: r.candidate.c_transfer,
                        k_unroll: r.candidate.k_unroll,
                        schedule: r.candidate.schedule.name().to_string(),
                        tuned_cycles: r.tuned_cycles,
                        default_cycles: r.default_cycles,
                    };
                    match any {
                        AnyGemmConfig::Fp32(c) => Entry {
                            lda: Some(c.lda),
                            ldb: Some(c.ldb),
                            ldc: Some(c.ldc),
                            b_layout: Some(c.b_layout),
                            beta: Some(c.beta),
                            ..base
                        },
                        AnyGemmConfig::WideningBf16(_) => base,
                    }
                })
                .collect(),
        };
        serde_json::to_string_pretty(&doc).expect("shim serialization is total")
    }

    /// Parse a document produced by [`PlanStore::to_json`].
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        persist::parse_snapshot(text)
    }

    /// Write the JSON document to a file — atomically (temp + fsync +
    /// rename), with a checksum trailer, keeping the previous generation at
    /// `<path>.bak` (see [`crate::persist::save_snapshot`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        persist::save_snapshot(path.as_ref(), &self.to_json())
    }

    /// Load through the one snapshot loader ([`persist::load_snapshot`]):
    /// primary generation → `.bak` previous generation → empty, then the
    /// fingerprint staleness check. Never fails: corruption (and a document
    /// older than [`PLAN_STORE_VERSION`]) recovers from the previous
    /// generation or starts empty, a fingerprint mismatch discards to an
    /// empty store stamped for `machine`, and a missing file is a fresh
    /// start. The [`RecoveredStore`] says which rung served.
    pub fn load_recovered(path: impl AsRef<Path>, machine: &MachineConfig) -> RecoveredStore {
        let loaded: Recovered<Self> = persist::load_snapshot(path.as_ref(), machine);
        RecoveredStore {
            store: loaded.value,
            check: loaded.check,
            source: loaded.source,
            detail: loaded.detail,
        }
    }
}

impl Snapshot for PlanStore {
    const KIND: &'static str = "plan store";
    const VERSION: u64 = PLAN_STORE_VERSION;

    fn decode(doc: &Value, machine_fingerprint: Option<u64>) -> Result<Self, String> {
        let fail = |msg: &str| msg.to_string();
        let entries = doc
            .get("entries")
            .and_then(|v| v.as_array())
            .ok_or_else(|| fail("missing `entries` array"))?;
        let mut store = PlanStore::new();
        for entry in entries {
            let dim = |name: &str| -> Result<usize, String> {
                entry
                    .get(name)
                    .and_then(|v| v.as_u64())
                    .map(|v| v as usize)
                    .ok_or_else(|| fail(&format!("entry missing integer field `{name}`")))
            };
            let text_field = |name: &str| -> Result<&str, String> {
                entry
                    .get(name)
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| fail(&format!("entry missing string field `{name}`")))
            };
            let cycles = |name: &str| -> Result<f64, String> {
                entry
                    .get(name)
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| fail(&format!("entry missing number field `{name}`")))
            };
            let dtype_name = text_field("dtype")?;
            let dtype = Dtype::from_name(dtype_name)
                .ok_or_else(|| fail(&format!("unknown dtype `{dtype_name}`")))?;
            let c_transfer = match text_field("c_transfer")? {
                "Direct" => ZaTransferStrategy::Direct,
                "TwoStep" => ZaTransferStrategy::TwoStep,
                other => return Err(fail(&format!("unknown c_transfer `{other}`"))),
            };
            let plan_name = text_field("plan")?;
            let kind = PlanKind::from_name(plan_name)
                .ok_or_else(|| fail(&format!("unknown plan kind `{plan_name}`")))?;
            let backend_name = text_field("backend")?;
            let backend = Backend::from_name(backend_name)
                .ok_or_else(|| fail(&format!("unknown backend `{backend_name}`")))?;
            let k_unroll = dim("k_unroll")?;
            if !matches!(k_unroll, 1 | 2 | 4) {
                return Err(fail(&format!(
                    "invalid stored k_unroll {k_unroll} (supported: 1, 2, 4)"
                )));
            }
            // An absent tag means serial, so trimmed documents load.
            let schedule = match entry.get("schedule") {
                None | Some(Value::Null) => KernelSchedule::Serial,
                Some(v) => {
                    let name = v
                        .as_str()
                        .ok_or_else(|| fail("`schedule` must be a string"))?;
                    KernelSchedule::from_name(name)
                        .ok_or_else(|| fail(&format!("unknown schedule `{name}`")))?
                }
            };
            let key = match dtype {
                Dtype::Fp32 => {
                    let b_layout = match text_field("b_layout")? {
                        "RowMajor" => BLayout::RowMajor,
                        "ColMajor" => BLayout::ColMajor,
                        other => return Err(fail(&format!("unknown b_layout `{other}`"))),
                    };
                    let beta = match text_field("beta")? {
                        "Zero" => Beta::Zero,
                        "One" => Beta::One,
                        other => return Err(fail(&format!("unknown beta `{other}`"))),
                    };
                    let key = GemmConfig {
                        m: dim("m")?,
                        n: dim("n")?,
                        k: dim("k")?,
                        lda: dim("lda")?,
                        ldb: dim("ldb")?,
                        ldc: dim("ldc")?,
                        b_layout,
                        beta,
                        c_transfer: ZaTransferStrategy::TwoStep,
                        k_unroll: 1,
                        schedule: KernelSchedule::Serial,
                    };
                    key.validate()
                        .map_err(|e| fail(&format!("invalid stored configuration: {e}")))?;
                    if b_layout == BLayout::ColMajor && kind != PlanKind::ColumnPanels {
                        return Err(fail(&format!(
                            "plan kind `{plan_name}` is incompatible with column-major B \
                             (only ColumnPanels is)"
                        )));
                    }
                    // A Neon winner must describe a shape the Neon generator
                    // can actually compile, or every request for it would
                    // fall back at dispatch time.
                    if backend == Backend::Neon {
                        sme_gemm::neon_supports(&key).map_err(|e| {
                            fail(&format!("stored Neon winner is not Neon-compilable: {e}"))
                        })?;
                    }
                    AnyGemmConfig::Fp32(key)
                }
                Dtype::WideningBf16 => {
                    let key = WideningGemmConfig::new(dim("m")?, dim("n")?, dim("k")?)
                        .map_err(|e| fail(&format!("invalid stored configuration: {e}")))?;
                    // Validate the candidate against the widening
                    // generators' grids, mirroring the FP32 checks above.
                    match backend {
                        Backend::Sme => {
                            sme_gemm::sme_widening_supports(&key).map_err(|e| {
                                fail(&format!("stored SME widening winner off the grid: {e}"))
                            })?;
                            // Edge tiles are predicated, so any homogeneous
                            // or heterogeneous plan compiles; only the
                            // column-panel kind (meaningless for the
                            // pre-packed operands) is rejected.
                            match kind {
                                PlanKind::Homogeneous(_) | PlanKind::Heterogeneous => {}
                                _ => {
                                    return Err(fail(&format!(
                                        "plan kind `{plan_name}` is incompatible with the \
                                         widening generator"
                                    )))
                                }
                            }
                        }
                        Backend::Neon => {
                            sme_gemm::neon_widening_supports(&key).map_err(|e| {
                                fail(&format!(
                                    "stored Neon widening winner is not compilable: {e}"
                                ))
                            })?;
                        }
                    }
                    AnyGemmConfig::WideningBf16(key)
                }
            };
            let record = TunedRecord {
                candidate: PlanCandidate {
                    backend,
                    kind,
                    c_transfer,
                    k_unroll,
                    schedule,
                },
                tuned_cycles: cycles("tuned_cycles")?,
                default_cycles: cycles("default_cycles")?,
            };
            store.entries.insert(key, record);
        }
        store.machine_fingerprint = machine_fingerprint;
        Ok(store)
    }

    fn empty_for(machine: &MachineConfig) -> Self {
        PlanStore::for_machine(machine)
    }

    fn machine_fingerprint(&self) -> Option<u64> {
        self.machine_fingerprint
    }

    fn entry_count(&self) -> usize {
        self.len()
    }
}

/// The outcome of [`PlanStore::load_recovered`]: the store that will serve,
/// its fingerprint verdict, and which on-disk generation it came from.
#[derive(Debug)]
pub struct RecoveredStore {
    /// The store to serve from (possibly empty).
    pub store: PlanStore,
    /// Fingerprint verdict for the generation that served.
    pub check: FingerprintCheck,
    /// Which generation served.
    pub source: SnapshotSource,
    /// Why the primary (and possibly backup) generation was rejected.
    pub detail: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sme_gemm::RegisterBlocking;

    fn sample_record(kind: PlanKind) -> TunedRecord {
        TunedRecord {
            candidate: PlanCandidate {
                backend: Backend::Sme,
                kind,
                c_transfer: ZaTransferStrategy::Direct,
                k_unroll: 2,
                schedule: KernelSchedule::Pipelined,
            },
            tuned_cycles: 1200.5,
            default_cycles: 1500.25,
        }
    }

    fn widening_record() -> TunedRecord {
        TunedRecord {
            candidate: PlanCandidate {
                backend: Backend::Sme,
                kind: PlanKind::Homogeneous(RegisterBlocking::B32x32),
                c_transfer: ZaTransferStrategy::TwoStep,
                k_unroll: 2,
                schedule: KernelSchedule::Serial,
            },
            tuned_cycles: 800.0,
            default_cycles: 900.0,
        }
    }

    #[test]
    fn lookup_is_knob_insensitive() {
        let mut store = PlanStore::new();
        let cfg = GemmConfig::abt(64, 48, 32);
        store.insert_any(&cfg.into(), sample_record(PlanKind::Heterogeneous));
        // A request differing only in the tunable knobs hits the same record.
        let variant = cfg
            .with_c_transfer(ZaTransferStrategy::Direct)
            .with_k_unroll(4);
        assert!(store.lookup_any(&variant.into()).is_some());
        // A different shape does not.
        assert!(store
            .lookup_any(&GemmConfig::abt(64, 48, 33).into())
            .is_none());
        // The same is true across the widening family.
        let wide = WideningGemmConfig::new(32, 32, 8).unwrap();
        store.insert_any(&wide.into(), widening_record());
        let variant: AnyGemmConfig = wide
            .with_c_transfer(ZaTransferStrategy::Direct)
            .with_k_unroll(4)
            .into();
        assert!(store.lookup_any(&variant).is_some());
        // Dtypes never alias: the FP32 record for the same shape is
        // separate.
        let fp32_same_shape: AnyGemmConfig = GemmConfig::abt(32, 32, 8).into();
        assert!(store.lookup_any(&fp32_same_shape).is_none());
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let mut store = PlanStore::new();
        store.insert_any(
            &GemmConfig::abt(80, 80, 512).into(),
            sample_record(PlanKind::Homogeneous(RegisterBlocking::B16x64)),
        );
        store.insert_any(
            &GemmConfig::ab(33, 47, 64)
                .with_leading_dims(40, 64, 40)
                .into(),
            sample_record(PlanKind::ColumnPanels),
        );
        let json = store.to_json();
        let parsed = PlanStore::from_json(&json).unwrap();
        assert_eq!(parsed, store);
        assert_eq!(parsed.len(), 2);
        let rec = parsed
            .lookup_any(&GemmConfig::abt(80, 80, 512).into())
            .unwrap();
        assert_eq!(
            rec.candidate.kind,
            PlanKind::Homogeneous(RegisterBlocking::B16x64)
        );
        assert_eq!(rec.candidate.k_unroll, 2);
        assert_eq!(rec.tuned_cycles, 1200.5);
        assert!((rec.speedup() - 1500.25 / 1200.5).abs() < 1e-12);
    }

    #[test]
    fn mixed_v3_documents_round_trip_with_dtype_tags() {
        // The v3 migration satellite: a store carrying both datatype
        // families serializes with dtype tags and reloads identically.
        let mut store = PlanStore::new();
        store.insert_any(
            &GemmConfig::abt(64, 64, 32).into(),
            sample_record(PlanKind::Heterogeneous),
        );
        let wide = WideningGemmConfig::new(64, 32, 8).unwrap();
        store.insert_any(&wide.into(), widening_record());
        let neon_wide = WideningGemmConfig::new(16, 4, 4).unwrap();
        store.insert_any(
            &neon_wide.into(),
            TunedRecord {
                candidate: PlanCandidate {
                    backend: Backend::Neon,
                    kind: PlanKind::Homogeneous(RegisterBlocking::B32x32),
                    c_transfer: ZaTransferStrategy::TwoStep,
                    k_unroll: 1,
                    schedule: KernelSchedule::Serial,
                },
                tuned_cycles: 50.0,
                default_cycles: 50.0,
            },
        );
        let json = store.to_json();
        assert!(json.contains("\"version\": 4"));
        assert!(json.contains("\"dtype\": \"Fp32\""));
        assert!(json.contains("\"dtype\": \"WideningBf16\""));
        // Widening entries have no FP32 layout fields.
        assert!(json.contains("\"lda\": null"));
        let parsed = PlanStore::from_json(&json).unwrap();
        assert_eq!(parsed, store);
        let rec = parsed.lookup_any(&wide.into()).unwrap();
        assert_eq!(rec.candidate.backend, Backend::Sme);
        assert_eq!(
            rec.candidate.kind,
            PlanKind::Homogeneous(RegisterBlocking::B32x32)
        );
        assert_eq!(
            parsed
                .lookup_any(&neon_wide.into())
                .unwrap()
                .candidate
                .backend,
            Backend::Neon
        );
    }

    #[test]
    fn serialized_output_is_deterministic_and_versioned() {
        let mut store = PlanStore::new();
        for mn in [96, 32, 64] {
            store.insert_any(
                &GemmConfig::abt(mn, mn, 16).into(),
                sample_record(PlanKind::Heterogeneous),
            );
        }
        store.insert_any(
            &WideningGemmConfig::new(32, 32, 8).unwrap().into(),
            widening_record(),
        );
        let a = store.to_json();
        let b = store.clone().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"version\": 4"));
        // Sorted by dtype then shape: 32 before 64 before 96, widening last.
        let p32 = a.find("\"m\": 32").unwrap();
        let p64 = a.find("\"m\": 64").unwrap();
        let p96 = a.find("\"m\": 96").unwrap();
        let pwide = a.find("WideningBf16").unwrap();
        assert!(p32 < p64 && p64 < p96 && p96 < pwide);
    }

    #[test]
    fn malformed_documents_are_rejected_with_context() {
        // A valid v4 FP32 entry with some fields overridden (`"key": value`)
        // or dropped (`"key":`).
        let fp32 = |overrides: &[&str]| {
            let mut fields = vec![
                r#""dtype": "Fp32""#,
                r#""m": 8"#,
                r#""n": 8"#,
                r#""k": 8"#,
                r#""lda": 8"#,
                r#""ldb": 8"#,
                r#""ldc": 8"#,
                r#""b_layout": "RowMajor""#,
                r#""beta": "One""#,
                r#""backend": "Sme""#,
                r#""plan": "Heterogeneous""#,
                r#""c_transfer": "TwoStep""#,
                r#""k_unroll": 1"#,
                r#""tuned_cycles": 1"#,
                r#""default_cycles": 1"#,
            ];
            for &field in overrides {
                let name = field.split(':').next();
                fields.retain(|f| f.split(':').next() != name);
                if !field.ends_with(':') {
                    fields.push(field);
                }
            }
            format!(
                r#"{{"version": 4, "entries": [{{{}}}]}}"#,
                fields.join(", ")
            )
        };
        let cases = [
            ("not json".to_string(), "invalid JSON"),
            ("{}".to_string(), "version"),
            (r#"{"version": 5, "entries": []}"#.to_string(), "version 5"),
            (r#"{"version": 3, "entries": []}"#.to_string(), "version 3"),
            (r#"{"version": 4}"#.to_string(), "entries"),
            (r#"{"version": 4, "entries": [{}]}"#.to_string(), "missing"),
            (
                r#"{"version": 4, "machine_fingerprint": "xyz", "entries": []}"#.to_string(),
                "machine fingerprint",
            ),
            (
                // A non-string, non-null fingerprint is corruption, not
                // "unstamped" — treating it as absent would silently keep
                // winners from an unknown calibration.
                r#"{"version": 4, "machine_fingerprint": true, "entries": []}"#.to_string(),
                "hex string",
            ),
            (fp32(&[r#""dtype":"#]), "dtype"),
            (fp32(&[r#""dtype": "Fp16""#]), "unknown dtype"),
            (fp32(&[r#""backend":"#]), "backend"),
            (fp32(&[r#""backend": "Sve""#]), "unknown backend"),
            (fp32(&[r#""b_layout": "Diagonal""#]), "b_layout"),
            (fp32(&[r#""plan": "NoSuchPlan""#]), "plan kind"),
            (fp32(&[r#""m": 0"#]), "invalid stored configuration"),
            (fp32(&[r#""k_unroll": 3"#]), "k_unroll 3"),
            // A bogus schedule tag is corruption, not serial.
            (fp32(&[r#""schedule": "Overlapped""#]), "unknown schedule"),
            (
                fp32(&[r#""b_layout": "ColMajor""#]),
                "incompatible with column-major",
            ),
            (
                // A Neon winner for column-major B can never dispatch (the
                // Neon generator is row-major-B only).
                fp32(&[
                    r#""b_layout": "ColMajor""#,
                    r#""backend": "Neon""#,
                    r#""plan": "ColumnPanels""#,
                ]),
                "Neon-compilable",
            ),
            (
                // An odd k is off the widening envelope grid entirely.
                r#"{"version": 4, "entries": [{"dtype": "WideningBf16", "m": 24, "n": 32,
                   "k": 7, "backend": "Sme", "plan": "Homogeneous32x32",
                   "c_transfer": "TwoStep", "k_unroll": 1,
                   "tuned_cycles": 1, "default_cycles": 1}]}"#
                    .to_string(),
                "invalid stored configuration",
            ),
            (
                // The column-panel kind never drives the widening
                // generator (the pre-packed operands have no column-major
                // panels to transpose).
                r#"{"version": 4, "entries": [{"dtype": "WideningBf16", "m": 32, "n": 32,
                   "k": 8, "backend": "Sme", "plan": "ColumnPanels",
                   "c_transfer": "TwoStep", "k_unroll": 1,
                   "tuned_cycles": 1, "default_cycles": 1}]}"#
                    .to_string(),
                "incompatible with the widening generator",
            ),
            (
                // m = 12 is off even the widening envelope grid.
                r#"{"version": 4, "entries": [{"dtype": "WideningBf16", "m": 12, "n": 32,
                   "k": 8, "backend": "Neon", "plan": "Homogeneous32x32",
                   "c_transfer": "TwoStep", "k_unroll": 1,
                   "tuned_cycles": 1, "default_cycles": 1}]}"#
                    .to_string(),
                "invalid stored configuration",
            ),
        ];
        // The fixture itself is valid: each case fails for its one field.
        assert!(PlanStore::from_json(&fp32(&[])).is_ok());
        for (text, needle) in cases {
            match PlanStore::from_json(&text) {
                Err(SnapshotError::Format(msg)) => {
                    assert!(msg.contains(needle), "{needle:?} not in {msg:?}")
                }
                other => panic!("expected Format error for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn fingerprint_round_trips_and_detects_recalibration() {
        let check = |s: &PlanStore, m| FingerprintCheck::of(s.machine_fingerprint(), m);
        let machine = MachineConfig::apple_m4();
        let mut store = PlanStore::for_machine(&machine);
        store.insert_any(
            &GemmConfig::abt(32, 32, 16).into(),
            sample_record(PlanKind::Heterogeneous),
        );
        assert_eq!(check(&store, &machine), FingerprintCheck::Match);

        let json = store.to_json();
        assert!(json.contains("machine_fingerprint"));
        let reloaded = PlanStore::from_json(&json).unwrap();
        assert_eq!(reloaded, store);
        assert_eq!(
            reloaded.machine_fingerprint(),
            Some(machine.fingerprint()),
            "fingerprint survives the JSON round trip"
        );

        // A recalibrated machine model is detected as a mismatch.
        let mut recalibrated = MachineConfig::apple_m4();
        recalibrated.p_core.clock_ghz = 4.0;
        assert!(matches!(
            check(&reloaded, &recalibrated),
            FingerprintCheck::Mismatch { .. }
        ));
        // An unstamped store is reported as such, not as a mismatch.
        let unstamped = PlanStore::new();
        assert_eq!(check(&unstamped, &machine), FingerprintCheck::Unstamped);
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let mut store = PlanStore::new();
        store.insert_any(
            &GemmConfig::abt(48, 48, 48).into(),
            sample_record(PlanKind::Heterogeneous),
        );
        let machine = MachineConfig::apple_m4();
        let path = std::env::temp_dir().join("sme_runtime_plan_store_test.json");
        store.save(&path).unwrap();
        let loaded = PlanStore::load_recovered(&path, &machine);
        assert_eq!(loaded.source, SnapshotSource::Primary);
        assert_eq!(loaded.store, store);
        let _ = std::fs::remove_file(&path);
        let fresh = PlanStore::load_recovered("/nonexistent/plan/store.json", &machine);
        assert_eq!(fresh.source, SnapshotSource::Missing);
        assert!(fresh.store.is_empty());
    }
}
