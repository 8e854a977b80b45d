//! Golden outputs: the `router`, `serving` and `tuner` binaries' `--smoke`
//! presets, the router's `--profile` cycle attribution, and the paper's
//! table and figure binaries must print — and, with a document flag, write
//! — exactly the documents committed under `tests/golden/{smoke,paper}/`,
//! byte for byte.
//!
//! Every number in these outputs is a simulated cycle count or derived
//! from one, so the outputs are deterministic and any drift is a change in
//! code generation, routing, placement, tuning or the timing model. A
//! change that moves them on purpose regenerates the goldens and reviews
//! the diff:
//!
//! ```sh
//! cargo test --release -p sme-bench --test smoke_goldens -- --ignored regenerate_goldens
//! ```
//!
//! The slowest paper binaries take several seconds each in a debug build,
//! so their tests run in release only (CI's "Paper outputs match goldens"
//! step); regenerate in release so that none is skipped.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// One golden run.
struct Golden {
    /// Directory under `tests/golden/`.
    dir: &'static str,
    /// File stem of the run's goldens.
    stem: &'static str,
    /// Binary and arguments.
    line: &'static str,
    /// A trailing flag that takes a path: the run writes a document to a
    /// scratch file whose contents are compared as `<stem>.json`.
    document: Option<&'static str>,
    /// Whether the run's stdout is compared as `<stem>.txt` (off where
    /// another run already covers the same stdout).
    stdout: bool,
}

const fn smoke(stem: &'static str, line: &'static str, document: Option<&'static str>) -> Golden {
    Golden {
        dir: "smoke",
        stem,
        line,
        document,
        stdout: true,
    }
}

const fn paper(stem: &'static str, line: &'static str) -> Golden {
    Golden {
        dir: "paper",
        stem,
        line,
        document: None,
        stdout: true,
    }
}

const GOLDENS: [Golden; 12] = [
    smoke("router_smoke", "router --smoke", Some("--json")),
    smoke("router_smoke_bf16", "router --smoke --bf16", Some("--json")),
    // Same stdout as `router_smoke`; only the cycle attribution is new.
    Golden {
        stdout: false,
        ..smoke("router_smoke_profile", "router --smoke", Some("--profile"))
    },
    smoke("serving_smoke", "serving --smoke", Some("--json")),
    smoke("tuner_smoke", "tuner --smoke", None),
    paper("table1", "table1"),
    paper("fig1_scaling", "fig1_scaling"),
    paper("fig6_microkernel", "fig6_microkernel"),
    paper("fig7_blocking", "fig7_blocking"),
    paper("ablations", "ablations"),
    paper("fig8_gemm_abt", "fig8_gemm_abt --step 128 --k 128"),
    paper("fig9_gemm_ab", "fig9_gemm_ab --step 128 --k 128"),
];

fn binary(name: &str) -> &'static str {
    match name {
        "router" => env!("CARGO_BIN_EXE_router"),
        "serving" => env!("CARGO_BIN_EXE_serving"),
        "tuner" => env!("CARGO_BIN_EXE_tuner"),
        "table1" => env!("CARGO_BIN_EXE_table1"),
        "fig1_scaling" => env!("CARGO_BIN_EXE_fig1_scaling"),
        "fig6_microkernel" => env!("CARGO_BIN_EXE_fig6_microkernel"),
        "fig7_blocking" => env!("CARGO_BIN_EXE_fig7_blocking"),
        "ablations" => env!("CARGO_BIN_EXE_ablations"),
        "fig8_gemm_abt" => env!("CARGO_BIN_EXE_fig8_gemm_abt"),
        "fig9_gemm_ab" => env!("CARGO_BIN_EXE_fig9_gemm_ab"),
        other => panic!("no golden binary {other}"),
    }
}

fn golden_path(golden: &Golden, file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden.dir)
        .join(file)
}

fn golden(stem: &str) -> &'static Golden {
    GOLDENS
        .iter()
        .find(|g| g.stem == stem)
        .expect("listed in GOLDENS")
}

/// Run `golden` and return `(golden file, contents)` for each output it
/// compares.
fn run(golden: &Golden) -> Vec<(String, String)> {
    let stem = golden.stem;
    let mut words = golden.line.split(' ');
    let mut command = Command::new(binary(words.next().expect("a binary")));
    command.args(words);
    let document_path =
        std::env::temp_dir().join(format!("sme_golden_{stem}_{}.json", std::process::id()));
    if let Some(flag) = golden.document {
        command.arg(flag).arg(&document_path);
    }
    let output = command.output().expect("spawn the golden binary");
    assert!(
        output.status.success(),
        "`{}` exited with {}:\n{}",
        golden.line,
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let mut files = Vec::new();
    if golden.stdout {
        let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
        files.push((format!("{stem}.txt"), stdout));
    }
    if golden.document.is_some() {
        let document = fs::read_to_string(&document_path).expect("the document was written");
        let _ = fs::remove_file(&document_path);
        files.push((format!("{stem}.json"), document));
    }
    files
}

fn assert_matches_goldens(stem: &str) {
    let golden = golden(stem);
    for (file, actual) in run(golden) {
        let expected = fs::read_to_string(golden_path(golden, &file)).expect("golden file");
        if actual == expected {
            continue;
        }
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "{}/{file} drifted from its golden at line {}:\n  golden: {:?}\n  actual: {:?}\n\
             (if the change is intended, regenerate with `cargo test --release -p sme-bench \
             --test smoke_goldens -- --ignored regenerate_goldens` and review the diff)",
            golden.dir,
            line + 1,
            expected.lines().nth(line),
            actual.lines().nth(line)
        );
    }
}

#[test]
fn router_smoke_matches_golden() {
    assert_matches_goldens("router_smoke");
}

#[test]
fn router_bf16_smoke_matches_golden() {
    assert_matches_goldens("router_smoke_bf16");
}

#[test]
fn router_smoke_profile_matches_golden() {
    assert_matches_goldens("router_smoke_profile");
}

#[test]
fn serving_smoke_matches_golden() {
    assert_matches_goldens("serving_smoke");
}

#[test]
fn tuner_smoke_matches_golden() {
    assert_matches_goldens("tuner_smoke");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: CI step Paper outputs match goldens"
)]
fn paper_table1_matches_golden() {
    assert_matches_goldens("table1");
}

#[test]
fn paper_fig1_scaling_matches_golden() {
    assert_matches_goldens("fig1_scaling");
}

#[test]
fn paper_fig6_microkernel_matches_golden() {
    assert_matches_goldens("fig6_microkernel");
}

#[test]
fn paper_fig7_blocking_matches_golden() {
    assert_matches_goldens("fig7_blocking");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: CI step Paper outputs match goldens"
)]
fn paper_ablations_matches_golden() {
    assert_matches_goldens("ablations");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: CI step Paper outputs match goldens"
)]
fn paper_fig8_gemm_abt_matches_golden() {
    assert_matches_goldens("fig8_gemm_abt");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: CI step Paper outputs match goldens"
)]
fn paper_fig9_gemm_ab_matches_golden() {
    assert_matches_goldens("fig9_gemm_ab");
}

/// Rewrite every golden from the current binaries.
#[test]
#[ignore = "rewrites the committed goldens; run by hand after an intended change"]
fn regenerate_goldens() {
    for golden in &GOLDENS {
        fs::create_dir_all(golden_path(golden, "")).expect("golden directory");
        for (file, contents) in run(golden) {
            fs::write(golden_path(golden, &file), contents).expect("write golden");
        }
    }
}
