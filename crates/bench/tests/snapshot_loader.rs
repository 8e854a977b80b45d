//! The one snapshot loader, `sme_runtime::load_snapshot`, over every store
//! that reads through it: each disk state must give the plan store, the
//! telemetry snapshot and the perf baseline the same verdict, and
//! documents written before the stores shared a loader must load and
//! re-serialize byte for byte.

use sme_bench::BaselineStore;
use sme_gemm::{Backend, GemmConfig, PlanCandidate};
use sme_machine::MachineConfig;
use sme_router::TelemetryRegistry;
use sme_runtime::persist::with_trailer;
use sme_runtime::{
    backup_path, load_snapshot, save_snapshot, FingerprintCheck, PlanStore, Snapshot,
    SnapshotSource, TunedRecord,
};
use std::fs;
use std::path::Path;

fn shape(i: usize) -> GemmConfig {
    GemmConfig::abt(16 * i, 16, 8)
}

/// Two generations of each store, stamped for the M4: one entry, then two.
fn plan_docs() -> [String; 2] {
    let mut store = PlanStore::for_machine(&MachineConfig::apple_m4());
    [1, 2].map(|i| {
        let candidate = PlanCandidate::default_for(&shape(i));
        let record = TunedRecord {
            candidate,
            tuned_cycles: 1.0,
            default_cycles: 1.0,
        };
        store.insert(&shape(i), record);
        store.to_json()
    })
}

fn telemetry_docs() -> [String; 2] {
    let registry = TelemetryRegistry::for_machine(&MachineConfig::apple_m4());
    [1, 2].map(|i| {
        registry.record_group(&shape(i).into(), Backend::Sme, 1, 10.0, true);
        registry.to_json()
    })
}

fn baseline_docs() -> [String; 2] {
    let mut store = BaselineStore::for_machine(&MachineConfig::apple_m4());
    [1, 2].map(|i| {
        store.set_metric(format!("metric_{i}"), 1.0);
        store.to_json()
    })
}

/// Cut a file in half: its checksum trailer no longer matches.
fn tear(path: &Path) {
    let bytes = fs::read(path).expect("read snapshot");
    fs::write(path, &bytes[..bytes.len() / 2]).expect("tear snapshot");
}

fn recalibrated() -> MachineConfig {
    let mut machine = MachineConfig::apple_m4();
    machine.p_core.clock_ghz = 4.0;
    machine
}

type Verdict = (SnapshotSource, FingerprintCheck, usize, Option<u64>);

/// What the loader serves from each disk state (see the expected table):
/// its source, fingerprint verdict, entry count and the served stamp.
fn verdicts<T: Snapshot>(name: &str, [one, two]: [String; 2]) -> Vec<Verdict> {
    let dir = std::env::temp_dir().join(format!("sme_loader_{name}_{}", std::process::id()));
    let path = dir.join("snapshot.json");
    let stamp = format!("\"{:016x}\"", MachineConfig::apple_m4().fingerprint());
    let verdicts = (0..7)
        .map(|state| {
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("create scratch dir");
            if state != 4 {
                save_snapshot(&path, &one).expect("save generation one");
                save_snapshot(&path, &two).expect("save generation two");
            }
            match state {
                1 => tear(&path),
                2 => fs::rename(&path, backup_path(&path)).expect("rename"),
                3 => {
                    tear(&path);
                    tear(&backup_path(&path));
                }
                6 => fs::write(&path, two.replace(&stamp, "null")).expect("unstamp"),
                _ => {}
            }
            let machine = match state {
                5 => recalibrated(),
                _ => MachineConfig::apple_m4(),
            };
            let loaded = load_snapshot::<T>(&path, &machine);
            let value = &loaded.value;
            let stamp = value.machine_fingerprint();
            (loaded.source, loaded.check, value.entry_count(), stamp)
        })
        .collect();
    let _ = fs::remove_dir_all(&dir);
    verdicts
}

#[test]
fn every_store_gets_the_same_verdict_from_each_disk_state() {
    use FingerprintCheck::{Match, Mismatch, Unstamped};
    use SnapshotSource::{Backup, Empty, Missing, Primary};
    let (stored, current) = (
        MachineConfig::apple_m4().fingerprint(),
        recalibrated().fingerprint(),
    );
    let stale = Mismatch { stored, current };
    let (m4, current) = (Some(stored), Some(current));
    // Whatever serves in place of lost or stale state is empty and stamped
    // for the current machine.
    let expected: Vec<Verdict> = vec![
        (Primary, Match, 2, m4),       // 0: intact primary
        (Backup, Match, 1, m4),        // 1: corrupt primary, good .bak
        (Backup, Match, 2, m4),        // 2: .bak only (crash mid-rotation)
        (Empty, Match, 0, m4),         // 3: both generations corrupt
        (Missing, Match, 0, m4),       // 4: both missing
        (Primary, stale, 0, current),  // 5: stale fingerprint
        (Primary, Unstamped, 2, None), // 6: null fingerprint
    ];
    assert_eq!(verdicts::<PlanStore>("plans", plan_docs()), expected);
    let telemetry = verdicts::<TelemetryRegistry>("telemetry", telemetry_docs());
    assert_eq!(telemetry, expected);
    let baseline = verdicts::<BaselineStore>("baseline", baseline_docs());
    assert_eq!(baseline, expected);

    // A plan store older than v4 is discarded like a stale fingerprint: the
    // restore starts from an empty, stamped store, and says why.
    let dir = std::env::temp_dir().join(format!("sme_loader_v3_{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("plans.json");
    let v3 = plan_docs()[1].replace("\"version\": 4", "\"version\": 3");
    save_snapshot(&path, &v3).expect("save");
    let loaded = PlanStore::load_recovered(&path, &MachineConfig::apple_m4());
    let stamp = loaded.store.machine_fingerprint();
    assert_eq!(
        (loaded.source, loaded.check, loaded.store.len(), stamp),
        (Empty, Match, 0, m4)
    );
    assert!(loaded.detail.expect("explained").contains("version 3"));
    let _ = fs::remove_dir_all(&dir);
}

/// Load a golden file — written by the stores' `save` before they shared a
/// loader — and re-serialize it: identical bytes mean the loaded value is
/// the one that was saved. Returns its entry count.
fn golden<T: Snapshot>(name: &str, to_json: fn(&T) -> String) -> usize {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let loaded = load_snapshot::<T>(&path, &MachineConfig::apple_m4());
    assert_eq!(loaded.source, SnapshotSource::Primary, "{name}");
    assert_eq!(loaded.check, FingerprintCheck::Match, "{name}");
    let on_disk = fs::read_to_string(&path).expect("golden file");
    assert_eq!(with_trailer(&to_json(&loaded.value)), on_disk, "{name}");
    loaded.value.entry_count()
}

#[test]
fn golden_documents_load_unchanged_and_reserialize_byte_for_byte() {
    assert_eq!(golden("plans.json", PlanStore::to_json), 4);
    assert_eq!(golden("telemetry.json", TelemetryRegistry::to_json), 3);
    assert_eq!(golden("baseline.json", BaselineStore::to_json), 3);
}
