//! Crash-safe snapshot persistence: atomic writes, checksum trailers,
//! previous-generation recovery, and the one loader every persisted store
//! reads through.
//!
//! Every persisted store in the serving stack (plan store, telemetry
//! snapshot, bench baseline, postmortem bundles) is written by
//! [`save_snapshot`], which writes `<path>.tmp`, fsyncs it, rotates the
//! current file to `<path>.bak` (the *previous generation*), and renames the
//! temp file into place — a crash at any point leaves either the old
//! generation or the new one, never a torn file. The payload carries a
//! one-line trailer with its byte length and FNV-1a checksum, which
//! [`read_snapshot`] verifies and strips, distinguishing a clean read from
//! *corruption* (truncation, bit-flips, a torn write from a pre-trailer
//! binary). Trailer-less files are accepted as legacy documents so existing
//! snapshots and hand-written fixtures keep loading.
//!
//! The stores that are read back implement [`Snapshot`]: their entry codec
//! plus three small hooks. Everything else is shared here — one header
//! (`version` plus an optional hex `machine_fingerprint`, decoded by
//! [`parse_snapshot`]), one error type ([`SnapshotError`]) and one loader,
//! [`load_snapshot`]. It runs the degradation ladder — primary → `.bak`
//! previous generation → empty — then the machine-fingerprint staleness
//! check, and reports which generation served via [`SnapshotSource`] so
//! callers (and the chaos harness) can assert that recovery restored *real*
//! state rather than silently starting empty. Only the current document
//! version loads: persisted state is a cache the tuner can regenerate, so an
//! older version is discarded like a stale fingerprint.
//!
//! Both save and read are fault-injection points ([`crate::fault`]):
//! `SaveIo` / `LoadIo` rules fail them outright, and an injector may flip
//! bytes in flight to simulate media corruption.

use crate::fault::{self, FaultKind};
use serde_json::Value;
use sme_machine::MachineConfig;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// First token of the checksum trailer line appended to every snapshot.
pub const SNAPSHOT_TRAILER_PREFIX: &str = "#sme-snapshot v1";

/// 64-bit FNV-1a over the payload bytes — tiny, dependency-free, and more
/// than strong enough to catch truncation and bit-flips (this is an
/// integrity check against crashes, not an adversary).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The `.bak` previous-generation path for a snapshot (`plans.json` →
/// `plans.json.bak`).
pub fn backup_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".bak");
    PathBuf::from(os)
}

fn temp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Append the length + checksum trailer to a payload. The payload is
/// newline-terminated first so the trailer always sits on its own line;
/// length and checksum cover the normalized payload including that newline.
pub fn with_trailer(payload: &str) -> String {
    let mut body = String::with_capacity(payload.len() + 64);
    body.push_str(payload);
    if !body.ends_with('\n') {
        body.push('\n');
    }
    let trailer = format!(
        "{SNAPSHOT_TRAILER_PREFIX} len={} fnv={:016x}\n",
        body.len(),
        fnv1a64(body.as_bytes())
    );
    body.push_str(&trailer);
    body
}

/// Errors reported while saving, reading or decoding a snapshot — the one
/// error type of every persisted store.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written (or an injected I/O fault fired).
    Io(io::Error),
    /// The trailer is present but does not match the payload — the file was
    /// truncated or bit-flipped on disk.
    Corrupt(String),
    /// The payload is not a valid document of the expected kind and version.
    Format(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
            SnapshotError::Format(msg) => write!(f, "snapshot format error: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Atomically persist `payload` at `path` with a checksum trailer, keeping
/// the previous generation at `<path>.bak`.
///
/// Write order: temp file + fsync, rotate current → `.bak`, rename temp →
/// current, best-effort directory fsync. A crash between any two steps
/// leaves a loadable generation on disk. I/O errors name the path.
pub fn save_snapshot(path: &Path, payload: &str) -> Result<(), SnapshotError> {
    let site = path.to_string_lossy().into_owned();
    if fault::fire(FaultKind::SaveIo, &site) {
        let fault = format!("injected save fault at {site}");
        return Err(SnapshotError::Io(io::Error::other(fault)));
    }
    let mut bytes = with_trailer(payload).into_bytes();
    fault::corrupt_bytes(&site, &mut bytes);
    write_generation(path, &bytes)
        .map_err(|e| SnapshotError::Io(io::Error::new(e.kind(), format!("{site}: {e}"))))
}

fn write_generation(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_path(path);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    if path.exists() {
        // Keep the previous generation for corrupt-primary recovery. A
        // failed rotation is not fatal: the new generation still lands
        // atomically below.
        let _ = fs::rename(path, backup_path(path));
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Read one snapshot file, verifying and stripping the checksum trailer —
/// no recovery ladder, no header check. The stores load through
/// [`load_snapshot`]; this is the verifier for write-once artifacts such as
/// postmortem bundles.
///
/// Files without a trailer are returned whole (legacy documents predating
/// the trailer, and hand-written fixtures). Files *with* a trailer must
/// match it exactly, otherwise [`SnapshotError::Corrupt`] is returned. An
/// injected `LoadIo` fault fails the read of a file that exists; a missing
/// file is a fresh start, not a fault site.
pub fn read_snapshot(path: &Path) -> Result<String, SnapshotError> {
    let text = fs::read_to_string(path).map_err(SnapshotError::Io)?;
    let site = path.to_string_lossy();
    if fault::fire(FaultKind::LoadIo, &site) {
        let fault = format!("injected load fault at {site}");
        return Err(SnapshotError::Io(io::Error::other(fault)));
    }
    strip_verified(&text).map_err(SnapshotError::Corrupt)
}

/// Verify and strip the trailer from a snapshot document already in memory.
/// Returns the payload, or a corruption detail if the trailer mismatches.
pub fn strip_verified(text: &str) -> Result<String, String> {
    let without_final_nl = text.strip_suffix('\n').unwrap_or(text);
    let (body, last_line) = match without_final_nl.rfind('\n') {
        Some(i) => (&without_final_nl[..=i], &without_final_nl[i + 1..]),
        None => ("", without_final_nl),
    };
    if !last_line.starts_with(SNAPSHOT_TRAILER_PREFIX) {
        // Legacy document: no trailer to verify.
        return Ok(text.to_string());
    }
    let mut len: Option<usize> = None;
    let mut fnv: Option<u64> = None;
    for token in last_line.split_whitespace() {
        if let Some(v) = token.strip_prefix("len=") {
            len = v.parse().ok();
        } else if let Some(v) = token.strip_prefix("fnv=") {
            fnv = u64::from_str_radix(v, 16).ok();
        }
    }
    let (expect_len, expect_fnv) = match (len, fnv) {
        (Some(l), Some(f)) => (l, f),
        _ => return Err(format!("unparseable snapshot trailer: {last_line:?}")),
    };
    if body.len() != expect_len {
        return Err(format!(
            "snapshot length mismatch: trailer says {expect_len} bytes, payload has {}",
            body.len()
        ));
    }
    let got_fnv = fnv1a64(body.as_bytes());
    if got_fnv != expect_fnv {
        return Err(format!(
            "snapshot checksum mismatch: trailer says {expect_fnv:016x}, payload hashes to {got_fnv:016x}"
        ));
    }
    Ok(body.to_string())
}

/// Which on-disk generation (if any) a recovered load was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotSource {
    /// The primary file was intact.
    Primary,
    /// The primary was corrupt, unreadable or missing; the `.bak` previous
    /// generation served instead.
    Backup,
    /// Neither generation exists — a fresh start, not a failure.
    Missing,
    /// A generation exists but none could be loaded; the caller starts
    /// empty (the end of the degradation ladder).
    Empty,
}

impl SnapshotSource {
    /// Stable snake-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SnapshotSource::Primary => "primary",
            SnapshotSource::Backup => "backup",
            SnapshotSource::Missing => "missing",
            SnapshotSource::Empty => "empty",
        }
    }
}

impl fmt::Display for SnapshotSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of comparing a snapshot's machine fingerprint against the
/// current timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintCheck {
    /// The snapshot was recorded against identical timing parameters — its
    /// contents are trustworthy.
    Match,
    /// The snapshot carries no fingerprint (built in memory without a stamp,
    /// or written with a `null` one).
    Unstamped,
    /// The snapshot was recorded against different timing parameters; its
    /// contents may be stale.
    Mismatch {
        /// Fingerprint recorded in the snapshot.
        stored: u64,
        /// Fingerprint of the current machine model.
        current: u64,
    },
}

impl FingerprintCheck {
    /// Compare a recorded fingerprint against `machine`'s current timing
    /// parameters.
    pub fn of(stored: Option<u64>, machine: &MachineConfig) -> Self {
        let current = machine.fingerprint();
        match stored {
            None => FingerprintCheck::Unstamped,
            Some(stored) if stored == current => FingerprintCheck::Match,
            Some(stored) => FingerprintCheck::Mismatch { stored, current },
        }
    }
}

/// A store persisted as a snapshot document and read back through
/// [`load_snapshot`]. Implementors supply the entry codec and three hooks;
/// the header, the recovery ladder and the staleness check are shared.
pub trait Snapshot: Sized {
    /// What the document holds, for messages (`"plan store"`).
    const KIND: &'static str;
    /// The one document version this build writes and reads.
    const VERSION: u64;
    /// Decode the body of a document whose header already checked out.
    fn decode(doc: &Value, machine_fingerprint: Option<u64>) -> Result<Self, String>;
    /// An empty value stamped for `machine`: what serves after a fresh
    /// start, a stale fingerprint, or two bad generations.
    fn empty_for(machine: &MachineConfig) -> Self;
    /// The recorded machine fingerprint, if stamped.
    fn machine_fingerprint(&self) -> Option<u64>;
    /// How many entries the value holds (for warnings).
    fn entry_count(&self) -> usize;
}

/// Parse a snapshot document: JSON, then the shared header (`version` must
/// equal [`Snapshot::VERSION`]; `machine_fingerprint` is absent, `null`, or
/// a hex string), then the body via [`Snapshot::decode`].
pub fn parse_snapshot<T: Snapshot>(text: &str) -> Result<T, SnapshotError> {
    let fail = SnapshotError::Format;
    let doc = serde_json::from_str(text).map_err(|e| fail(format!("invalid JSON: {e}")))?;
    let version = doc.get("version").and_then(Value::as_u64);
    let version = version.ok_or_else(|| fail("missing `version` field".to_string()))?;
    if version != T::VERSION {
        let (kind, expected) = (T::KIND, T::VERSION);
        let msg = format!("unsupported {kind} version {version} (expected {expected})");
        return Err(fail(msg));
    }
    let machine_fingerprint = match doc.get("machine_fingerprint") {
        None | Some(Value::Null) => None,
        Some(v) => {
            let hex = v
                .as_str()
                .ok_or_else(|| fail("`machine_fingerprint` must be a hex string".to_string()))?;
            let fp = u64::from_str_radix(hex, 16)
                .map_err(|_| fail(format!("invalid machine fingerprint `{hex}`")))?;
            Some(fp)
        }
    };
    T::decode(&doc, machine_fingerprint).map_err(fail)
}

/// The outcome of [`load_snapshot`]: the value that will serve, its
/// fingerprint verdict, which on-disk generation it came from, and why any
/// generation was rejected.
#[derive(Debug)]
pub struct Recovered<T> {
    /// The value to serve: the loaded snapshot, or an empty one stamped for
    /// the current machine when nothing usable (or only stale state) was on
    /// disk.
    pub value: T,
    /// Fingerprint verdict for the generation that served
    /// ([`FingerprintCheck::Match`] when none did).
    pub check: FingerprintCheck,
    /// Which generation served.
    pub source: SnapshotSource,
    /// Why the primary (and possibly backup) generation was rejected.
    pub detail: Option<String>,
}

/// Load a snapshot through the full degradation ladder; never fails.
///
/// *Corruption* — an unreadable file, a checksum mismatch, a document that
/// does not parse, an unsupported version, an injected I/O fault — recovers
/// from the `.bak` previous generation, and bottoms out at an empty value
/// ([`SnapshotSource::Empty`]) only when both generations are bad. A
/// missing pair is a fresh start ([`SnapshotSource::Missing`]); a missing
/// primary beside a `.bak` — what a crash between [`save_snapshot`]'s
/// rotation and rename leaves — serves the `.bak`. *Staleness* is checked
/// after that, on whichever generation served: a fingerprint mismatch
/// discards the value for an empty one stamped for `machine` (it is not
/// corruption, so it never triggers backup recovery). Both kinds of loss
/// warn on stderr.
pub fn load_snapshot<T: Snapshot>(path: &Path, machine: &MachineConfig) -> Recovered<T> {
    let (value, source, detail) = recover(path, parse_snapshot::<T>);
    if let Some(d) = detail.as_deref() {
        eprintln!("warning: {} {}: {d}", T::KIND, path.display());
    }
    let mut check = FingerprintCheck::Match;
    if let Some(value) = &value {
        check = FingerprintCheck::of(value.machine_fingerprint(), machine);
        if let FingerprintCheck::Mismatch { stored, current } = check {
            eprintln!(
                "warning: {} {} was recorded for machine fingerprint {stored:016x} but the \
                 current model is {current:016x}; discarding its {} stale entr(y/ies)",
                T::KIND,
                path.display(),
                value.entry_count()
            );
        }
    }
    let value = match value {
        Some(value) if !matches!(check, FingerprintCheck::Mismatch { .. }) => value,
        _ => T::empty_for(machine),
    };
    Recovered {
        value,
        check,
        source,
        detail,
    }
}

/// One generation: the parsed value, `Ok(None)` if the file does not
/// exist, or why it is bad.
fn attempt<T, E: fmt::Display>(
    path: &Path,
    parse: &impl Fn(&str) -> Result<T, E>,
) -> Result<Option<T>, String> {
    let bad = |e: &dyn fmt::Display| format!("{}: {e}", path.display());
    match read_snapshot(path) {
        Ok(payload) => parse(&payload).map(Some).map_err(|e| bad(&e)),
        Err(SnapshotError::Io(e)) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(bad(&e)),
    }
}

/// The ladder itself: the primary file, then `<path>.bak`; a generation is
/// bad if it cannot be read, fails its checksum trailer, or fails `parse`.
/// Returns the parsed value (if any generation survived), which generation
/// served, and why the others were rejected.
fn recover<T, E: fmt::Display>(
    path: &Path,
    parse: impl Fn(&str) -> Result<T, E>,
) -> (Option<T>, SnapshotSource, Option<String>) {
    let primary = match attempt(path, &parse) {
        Ok(Some(value)) => return (Some(value), SnapshotSource::Primary, None),
        Ok(None) => None,
        Err(msg) => Some(msg),
    };
    let backup = backup_path(path);
    let missing = |p: &Path| format!("{} missing", p.display());
    match (primary, attempt(&backup, &parse)) {
        (None, Ok(None)) => (None, SnapshotSource::Missing, None),
        (primary, Ok(Some(value))) => (
            Some(value),
            SnapshotSource::Backup,
            Some(primary.unwrap_or_else(|| missing(path))),
        ),
        (primary, failed) => {
            let primary = primary.unwrap_or_else(|| missing(path));
            let backup = failed.err().unwrap_or_else(|| missing(&backup));
            let detail = format!("{primary}; {backup}");
            (None, SnapshotSource::Empty, Some(detail))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sme-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn trailer_roundtrips_and_detects_damage() {
        let payload = "{\"version\":1}\n";
        let text = with_trailer(payload);
        assert_eq!(strip_verified(&text).expect("intact"), payload);

        // Truncation mid-payload drops the trailer: the document degrades
        // to legacy and the (now truncated) payload is handed to the
        // parser, which is the layer that rejects it.
        let truncated = &text[..6];
        assert!(strip_verified(truncated).is_ok());

        // Truncation mid-trailer leaves a recognizable but unparseable
        // trailer line — rejected, never silently accepted.
        let mid_trailer = &text[..payload.len() + 20];
        assert!(strip_verified(mid_trailer).is_err());

        // A bit-flip inside the payload trips the checksum.
        let mut flipped = text.clone().into_bytes();
        flipped[3] ^= 0x10;
        let flipped = String::from_utf8(flipped).expect("still utf-8");
        let err = strip_verified(&flipped).expect_err("checksum must catch the flip");
        assert!(err.contains("checksum"), "got: {err}");

        // Trailer-with-wrong-length (a torn partial write that kept the
        // trailer line) is also caught.
        let short = format!("{}\n{}", &payload[..4], &text[payload.len()..]);
        let err = strip_verified(&short).expect_err("length must mismatch");
        assert!(err.contains("length"), "got: {err}");
    }

    #[test]
    fn legacy_documents_pass_through_whole() {
        let legacy = "{\"version\":1,\"entries\":[]}";
        assert_eq!(strip_verified(legacy).expect("legacy ok"), legacy);
    }

    #[test]
    fn save_rotates_the_previous_generation() {
        let dir = tmp_dir("rotate");
        let path = dir.join("store.json");
        save_snapshot(&path, "gen-1").expect("first save");
        save_snapshot(&path, "gen-2").expect("second save");
        assert_eq!(read_snapshot(&path).expect("primary"), "gen-2\n");
        assert_eq!(
            read_snapshot(&backup_path(&path)).expect("backup"),
            "gen-1\n"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_prefers_primary_then_backup_then_reports_empty() {
        let dir = tmp_dir("recover");
        let path = dir.join("store.json");
        let parse = |s: &str| -> Result<String, String> {
            if s.contains("gen") {
                Ok(s.trim().to_string())
            } else {
                Err("not a generation".to_string())
            }
        };

        let (value, source, _) = recover(&path, parse);
        assert_eq!(source, SnapshotSource::Missing);
        assert!(value.is_none());

        save_snapshot(&path, "gen-1").expect("save");
        save_snapshot(&path, "gen-2").expect("save");
        let (value, source, _) = recover(&path, parse);
        assert_eq!(source, SnapshotSource::Primary);
        assert_eq!(value.as_deref(), Some("gen-2"));

        // Corrupt the primary on disk: recovery serves the previous
        // generation, not empty.
        let mut bytes = fs::read(&path).expect("read");
        bytes[1] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite");
        let (value, source, detail) = recover(&path, parse);
        assert_eq!(source, SnapshotSource::Backup);
        assert_eq!(value.as_deref(), Some("gen-1"));
        assert!(detail.is_some());

        // Corrupt the backup too: the ladder bottoms out at empty, with
        // both failures explained.
        let mut bak = fs::read(backup_path(&path)).expect("read bak");
        let pos = bak.len() / 2;
        bak[pos] ^= 0x40;
        fs::write(backup_path(&path), &bak).expect("rewrite bak");
        let (value, source, detail) = recover(&path, parse);
        assert_eq!(source, SnapshotSource::Empty);
        assert!(value.is_none());
        assert!(detail.is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_rotation_is_recoverable() {
        // Simulate a crash between "rotate current → .bak" and "rename tmp
        // → current": only the .bak generation exists.
        let dir = tmp_dir("torn");
        let path = dir.join("store.json");
        save_snapshot(&path, "gen-1").expect("save");
        fs::rename(&path, backup_path(&path)).expect("simulate torn rotation");
        let parse = |s: &str| -> Result<String, String> { Ok(s.trim().to_string()) };
        let (value, source, _) = recover(&path, parse);
        assert_eq!(source, SnapshotSource::Backup);
        assert_eq!(value.as_deref(), Some("gen-1"));
        let _ = fs::remove_dir_all(&dir);
    }
}
