//! Crash-safety fuzz for the snapshot loader: the plan store, the
//! telemetry snapshot and the perf baseline all read through
//! `sme_runtime::load_snapshot`, and the postmortem bundle through the
//! verifying reader. Random truncation, bit flips, spliced garbage and
//! outright non-JSON bytes must come back as a recovered or empty value —
//! never as a panic. A corrupt file on disk may cost tuned state; it must
//! not take down the process that finds it.

use proptest::collection::vec;
use proptest::prelude::*;
use sme_bench::BaselineStore;
use sme_gemm::{Backend, GemmConfig, PlanCandidate};
use sme_machine::MachineConfig;
use sme_router::TelemetryRegistry;
use sme_runtime::{load_snapshot, PlanStore, Recovered, Snapshot, TunedRecord};
use std::path::PathBuf;

/// The current v4 document, and a v2 one from before the dtype and
/// schedule tags, which the loader discards whole.
fn plan_docs() -> [String; 2] {
    let mut store = PlanStore::for_machine(&MachineConfig::apple_m4());
    let cfg = GemmConfig::abt(48, 48, 16);
    let record = TunedRecord {
        candidate: PlanCandidate::default_for(&cfg),
        tuned_cycles: 100.0,
        default_cycles: 150.0,
    };
    store.insert(&cfg, record);
    let v2 = r#"{"version": 2, "entries": [{"m": 48, "n": 48, "k": 16, "lda": 48,
        "ldb": 48, "ldc": 48, "b_layout": "RowMajor", "beta": "One",
        "backend": "Sme", "plan": "Homogeneous16x64", "c_transfer": "Direct",
        "k_unroll": 2, "tuned_cycles": 100, "default_cycles": 150}]}"#;
    [store.to_json(), v2.to_string()]
}

fn telemetry_doc() -> String {
    let registry = TelemetryRegistry::for_machine(&MachineConfig::apple_m4());
    registry.record_group(
        &GemmConfig::abt(64, 64, 32).into(),
        Backend::Sme,
        4,
        1000.0,
        true,
    );
    registry.advance_epoch();
    registry.to_json()
}

fn baseline_doc() -> String {
    let mut store = BaselineStore::for_machine(&MachineConfig::apple_m4());
    store.set_metric("restart_hit_rate", 1.0);
    store.set_shape_cycles("Fp32 64x64x32", 123.0);
    store.to_json()
}

/// One way of damaging a document on disk.
#[derive(Debug, Clone)]
enum Damage {
    /// Torn write: only a prefix reached the disk.
    Truncate(usize),
    /// Silent media corruption: one bit flipped somewhere.
    FlipBit { byte: usize, bit: u8 },
    /// Interleaved write from another process: bytes spliced in.
    Splice { at: usize, bytes: Vec<u8> },
    /// The file is not ours at all.
    Garbage(Vec<u8>),
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0usize..4096).prop_map(Damage::Truncate).boxed(),
        (0usize..4096, 0u8..8)
            .prop_map(|(byte, bit)| Damage::FlipBit { byte, bit })
            .boxed(),
        (0usize..4096, vec(0u8..255, 1..64))
            .prop_map(|(at, bytes)| Damage::Splice { at, bytes })
            .boxed(),
        vec(0u8..255, 0..256).prop_map(Damage::Garbage).boxed(),
    ]
}

fn apply(doc: &str, damage: &Damage) -> Vec<u8> {
    let mut bytes = doc.as_bytes().to_vec();
    match damage {
        Damage::Truncate(n) => {
            let cut = n % bytes.len().max(1);
            bytes.truncate(cut);
        }
        Damage::FlipBit { byte, bit } => {
            if !bytes.is_empty() {
                let i = byte % bytes.len();
                bytes[i] ^= 1 << bit;
            }
        }
        Damage::Splice { at, bytes: extra } => {
            let i = at % (bytes.len() + 1);
            for (j, b) in extra.iter().enumerate() {
                bytes.insert(i + j, *b);
            }
        }
        Damage::Garbage(raw) => bytes = raw.clone(),
    }
    bytes
}

/// Write the damaged bytes as both the primary and its `.bak` generation,
/// so the recovery ladder's backup branch chews on damaged input too.
fn write_damaged(name: &str, bytes: &[u8]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sme_snapfuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("write primary");
    std::fs::write(sme_runtime::backup_path(&path), bytes).expect("write backup");
    path
}

fn load_damaged<T: Snapshot>(name: &str, doc: &str, damage: &Damage) -> Recovered<T> {
    let path = write_damaged(name, &apply(doc, damage));
    load_snapshot(&path, &MachineConfig::apple_m4())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plan_store_loaders_never_panic(pick in 0usize..2, damage in damage_strategy()) {
        let recovered = load_damaged::<PlanStore>("plans.json", &plan_docs()[pick], &damage);
        // The v2 document comes back as an empty store, whatever the damage.
        prop_assert!(pick == 0 || recovered.value.is_empty());
    }

    #[test]
    fn telemetry_loaders_never_panic(damage in damage_strategy()) {
        load_damaged::<TelemetryRegistry>("telemetry.json", &telemetry_doc(), &damage);
    }

    #[test]
    fn baseline_loaders_never_panic(damage in damage_strategy()) {
        load_damaged::<BaselineStore>("baseline.json", &baseline_doc(), &damage);
    }

    #[test]
    fn postmortem_loader_never_panics(damage in damage_strategy()) {
        let doc = r#"{"breaches": [{"rule": "makespan-p99", "observed": 2.5,
            "threshold": 2.0}], "spans": [], "metrics": {}}"#;
        let bytes = apply(doc, &damage);
        let path = write_damaged("postmortem.json", &bytes);
        // The postmortem "loader" is the verifying snapshot reader plus a
        // JSON parse — the same pair the serving binary runs after writing
        // a bundle.
        if let Ok(text) = sme_runtime::read_snapshot(&path) {
            let _ = serde_json::from_str(&text);
        }
    }
}
