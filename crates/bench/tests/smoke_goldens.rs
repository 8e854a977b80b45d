//! Golden smoke outputs: the `router`, `serving` and `tuner` binaries'
//! `--smoke` presets must print — and, with `--json`, write — exactly the
//! documents committed under `tests/golden/smoke/`, byte for byte.
//!
//! Every number in these outputs is a simulated cycle count or derived
//! from one, so the outputs are deterministic and any drift is a change in
//! routing, placement, tuning or the timing model. A change that moves
//! them on purpose regenerates the goldens and reviews the diff:
//!
//! ```sh
//! cargo test -p sme-bench --test smoke_goldens -- --ignored regenerate_goldens
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// The smoke runs: golden file stem and command line. The run's stdout is
/// `<stem>.txt`; a trailing `--json` writes the run's JSON document to a
/// scratch file whose contents are `<stem>.json`.
const SMOKES: [(&str, &str); 4] = [
    ("router_smoke", "router --smoke --json"),
    ("router_smoke_bf16", "router --smoke --bf16 --json"),
    ("serving_smoke", "serving --smoke --json"),
    ("tuner_smoke", "tuner --smoke"),
];

fn binary(name: &str) -> &'static str {
    match name {
        "router" => env!("CARGO_BIN_EXE_router"),
        "serving" => env!("CARGO_BIN_EXE_serving"),
        "tuner" => env!("CARGO_BIN_EXE_tuner"),
        other => panic!("no smoke binary {other}"),
    }
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/smoke")
        .join(file)
}

/// Run the smoke `stem` and return `(golden file, contents)` for each
/// output it compares.
fn run(stem: &str) -> Vec<(String, String)> {
    let (_, line) = SMOKES.iter().find(|(s, _)| *s == stem).expect("listed");
    let mut words = line.split(' ');
    let mut command = Command::new(binary(words.next().expect("a binary")));
    command.args(words);
    let json = line.ends_with(" --json");
    let json_path = std::env::temp_dir().join(format!(
        "sme_smoke_golden_{stem}_{}.json",
        std::process::id()
    ));
    if json {
        command.arg(&json_path);
    }
    let output = command.output().expect("spawn the smoke binary");
    assert!(
        output.status.success(),
        "`{line}` exited with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let mut files = vec![(format!("{stem}.txt"), stdout)];
    if json {
        let document = fs::read_to_string(&json_path).expect("the --json document was written");
        let _ = fs::remove_file(&json_path);
        files.push((format!("{stem}.json"), document));
    }
    files
}

fn assert_matches_goldens(stem: &str) {
    for (file, actual) in run(stem) {
        let expected = fs::read_to_string(golden_path(&file)).expect("golden file");
        if actual == expected {
            continue;
        }
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "{file} drifted from its golden at line {}:\n  golden: {:?}\n  actual: {:?}\n\
             (if the change is intended, regenerate with `cargo test -p sme-bench \
             --test smoke_goldens -- --ignored regenerate_goldens` and review the diff)",
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
fn serving_smoke_matches_golden() {
    assert_matches_goldens("serving_smoke");
}

#[test]
fn tuner_smoke_matches_golden() {
    assert_matches_goldens("tuner_smoke");
}

/// Rewrite every golden from the current binaries.
#[test]
#[ignore = "rewrites the committed goldens; run by hand after an intended change"]
fn regenerate_goldens() {
    for (stem, _) in SMOKES {
        for (file, contents) in run(stem) {
            fs::write(golden_path(&file), contents).expect("write golden");
        }
    }
}
