//! Durable checkpoint/restore for supervised runs: a write-ahead event
//! journal plus crash-consistent state snapshots.
//!
//! A checkpointed run lives in one directory:
//!
//! * `run.json` — written once at start: the [`ScenarioSnapshot`], the
//!   [`SupervisorConfig`], the initial plan, and the fault script.
//!   Immutable for the life of the run.
//! * `journal.jsonl` — the write-ahead journal. Before an epoch executes
//!   a *begin* record (epoch number + the scripted faults about to be
//!   injected) is appended and fsynced; after it executes a *commit*
//!   record (epoch number, CRC of the post-epoch state, the events the
//!   epoch appended to the [`EventLog`]) follows. Each line carries its
//!   own CRC-32, so a torn tail is detectable byte-for-byte.
//! * `snap-<epoch>.json` — full [`SupervisorState`] snapshots taken every
//!   `snapshot_interval` epochs, written with
//!   [`thermaware_datacenter::atomic_write`] (temp file + fsync + atomic
//!   rename) and pruned to the newest `retain` generations.
//!
//! Because every epoch is deterministic given the state at its boundary
//! (the arrival RNG is re-seeded per epoch), recovery is *replay*, not
//! rollback: [`resume`] loads the newest uncorrupted snapshot, truncates
//! any torn journal tail, re-executes the committed epochs after the
//! snapshot — checking the re-computed state CRC against each commit
//! record — and hands back a [`RecoveredRun`] that continues bit-for-bit
//! identically to a run that was never interrupted. Recovered state that
//! claims to be healthy is additionally verified against the physical
//! model's power-cap and redline invariants via
//! [`thermaware_core::verify_assignment`].

use crate::event::Event;
use crate::fault::FaultEvent;
use crate::supervisor::{LiveRun, Supervisor, SupervisorConfig, SupervisorReport, SupervisorState};
use serde::{Deserialize, Kind, Serialize, Sink, Source};
use serde_json::Writer;
use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use thermaware_core::ThreeStageSolution;
use thermaware_datacenter::{atomic_write, DataCenter, ScenarioSnapshot};

/// Current on-disk format version. Version 1 snapshots (no `state_crc`
/// field) are still readable; versions above this are rejected with
/// [`PersistError::UnsupportedVersion`].
pub const FORMAT_VERSION: u64 = 2;

const SNAPSHOTS: SnapshotFormat = SnapshotFormat {
    version: FORMAT_VERSION,
    crc_since: 2,
    obs_count: "persist.snapshots",
    obs_write_us: "persist.snapshot_write_us",
};

const RUN_FILE: &str = "run.json";
const JOURNAL_FILE: &str = "journal.jsonl";
const SNAP_PREFIX: &str = "snap-";
const SNAP_SUFFIX: &str = ".json";

/// The checksum of every journal line and state, and its concatenation
/// rule. They live beside the printer, where a fragment that keeps its
/// own CRC is built; this module is where the workspace reaches them.
pub use serde_json::{crc32, crc32_combine};

/// Encode `value` and checksum the bytes: the `(json, crc)` pair every
/// commit record and snapshot is made of, for both trails.
///
/// A member that keeps its encoded text (the scheduler's plan tables)
/// splices it into the writer with its CRC, so only the spans in between
/// are encoded and read here; [`crc32_combine`] joins the parts into
/// exactly the checksum of the whole text.
pub fn json_crc<T: Serialize>(value: &T) -> Result<(String, u32), PersistError> {
    let (json, crc) = encode(value, true);
    #[cfg(any(test, debug_assertions))]
    assert_eq!(crc, crc32(json.as_bytes()), "the CRC folded from fresh and spliced parts");
    Ok((json, crc))
}

/// [`json_crc`]'s CRC without its text, for a check that keeps nothing
/// else (a replayed or a live commit): the same writer checksums every
/// few kB and drops them, so a 600 kB state costs no 600 kB string.
pub fn json_crc_only<T: Serialize>(value: &T) -> u32 {
    let (_, crc) = encode(value, false);
    #[cfg(any(test, debug_assertions))]
    assert_eq!(json_crc(value).ok().map(|(_, full)| full), Some(crc), "the CRC without the text");
    crc
}

thread_local! {
    /// Length of the last text [`json_crc`] kept on this thread. A trail
    /// encodes one state per epoch, each about as long as the one before,
    /// so the next writer starts with room for it and an eighth more:
    /// one allocation where growing from empty took about fifteen and
    /// left up to twice the text's length allocated.
    static LAST_KEPT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// [`json_crc`] and [`json_crc_only`]: one checksumming writer, the text
/// kept or not.
fn encode<T: Serialize>(value: &T, keep_text: bool) -> (String, u32) {
    let begun = thermaware_obs::enabled().then(std::time::Instant::now);
    let mut out = Writer::checksummed(keep_text);
    if keep_text {
        let last = LAST_KEPT.get();
        out.reserve(last + last / 8);
    }
    value.serialize(&mut out);
    let sum = out.finish_checksummed();
    if keep_text {
        LAST_KEPT.set(sum.len);
    }
    if let Some(begun) = begun {
        thermaware_obs::observe("persist.encode_us", begun.elapsed().as_secs_f64() * 1e6);
        thermaware_obs::counter_add("persist.bytes_encoded", (sum.len - sum.spliced) as u64);
        thermaware_obs::counter_add("persist.bytes_spliced", sum.spliced as u64);
    }
    (sum.text, sum.crc)
}

/// Why persistence or recovery failed. Every variant is a typed ending —
/// corrupt or hostile checkpoint directories never panic the recoverer.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(io::Error),
    /// A file exists but cannot be trusted (bad CRC, bad JSON, replay
    /// divergence).
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// What was wrong with it.
        reason: String,
    },
    /// The checkpoint was written by a newer format than this build reads.
    UnsupportedVersion {
        /// Offending file.
        path: PathBuf,
        /// Version found.
        version: u64,
    },
    /// The directory holds no usable checkpoint.
    NoCheckpoint {
        /// Directory searched.
        dir: PathBuf,
    },
    /// The recovered state is internally consistent but does not fit the
    /// scenario it claims to belong to.
    State {
        /// What did not fit.
        reason: String,
    },
    /// A recovered state that believes itself healthy fails the physical
    /// power-cap/redline invariants.
    InvariantViolation {
        /// The violated invariant.
        reason: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Corrupt { path, reason } => {
                write!(f, "corrupt file {}: {reason}", path.display())
            }
            PersistError::UnsupportedVersion { path, version } => write!(
                f,
                "{}: format version {version} is newer than supported ({FORMAT_VERSION})",
                path.display()
            ),
            PersistError::NoCheckpoint { dir } => {
                write!(f, "no usable checkpoint in {}", dir.display())
            }
            PersistError::State { reason } => write!(f, "recovered state mismatch: {reason}"),
            PersistError::InvariantViolation { reason } => {
                write!(f, "recovered state violates invariants: {reason}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Checkpointing policy for a supervised run.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint directory (created if missing).
    pub dir: PathBuf,
    /// Take a full snapshot every this many epochs (the journal records
    /// every epoch regardless). Clamped to ≥ 1.
    pub snapshot_interval: usize,
    /// Snapshot generations to retain (older ones are pruned). Clamped
    /// to ≥ 1.
    pub retain: usize,
    /// `fsync` journal appends and snapshots. Turn off only to measure
    /// the pure serialization overhead — without it a crash can lose
    /// acknowledged epochs.
    pub durable: bool,
    /// `fsync` the journal only every this many appends (clamped to
    /// ≥ 1; 1 = every append, the strict write-ahead discipline).
    /// Batching trades the *power-loss* durability window for an
    /// order-of-magnitude append-latency win under high-frequency
    /// checkpointing; a process crash (SIGKILL) loses nothing either
    /// way, because written-but-unsynced pages survive in the OS cache.
    pub flush_every: usize,
}

impl CheckpointConfig {
    /// Defaults: snapshot every 8 epochs, keep 3 generations, durable,
    /// fsync every append.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.into(),
            snapshot_interval: 8,
            retain: 3,
            durable: true,
            flush_every: 1,
        }
    }
}

// ---- Framed journal primitives ---------------------------------------------
//
// Shared by the supervisor checkpoint trail and the service daemon's
// admission journal: every line is `XXXXXXXX <json>\n` with a CRC-32
// over the JSON bytes, so a torn or bit-flipped tail is detectable
// byte-for-byte and recovery can truncate to the last good record.

/// Frame one JSON payload as a CRC'd journal line (newline included).
pub fn frame_journal_line(json: &str) -> String {
    format!("{:08x} {json}\n", crc32(json.as_bytes()))
}

/// Parse one framed line (`XXXXXXXX <json>`, no newline) into `T`, or
/// `None` on bad framing, CRC mismatch, or a payload `T` rejects.
pub fn parse_framed_line<T: Deserialize>(line: &[u8]) -> Option<T> {
    if line.len() < 10 || line[8] != b' ' {
        return None;
    }
    let crc_hex = std::str::from_utf8(&line[..8]).ok()?;
    let want = u32::from_str_radix(crc_hex, 16).ok()?;
    let json = &line[9..];
    if crc32(json) != want {
        return None;
    }
    let text = std::str::from_utf8(json).ok()?;
    serde_json::from_str::<T>(text).ok()
}

/// Read a framed journal's valid prefix: every complete, CRC-clean line
/// whose payload parses as `T`. Returns the records, the byte length of
/// the valid prefix, and the file's total length. Missing file = empty
/// journal.
pub fn read_framed_journal<T: Deserialize>(path: &Path) -> Result<(Vec<T>, u64, u64), PersistError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0, 0)),
        Err(e) => return Err(e.into()),
    };
    let mut records = Vec::new();
    let mut valid = 0usize;
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') else {
            break; // no terminator: torn final line
        };
        let line = &bytes[pos..pos + nl];
        let Some(rec) = parse_framed_line::<T>(line) else {
            break; // bad framing, CRC, or JSON: stop at the last good record
        };
        records.push(rec);
        pos += nl + 1;
        valid = pos;
    }
    Ok((records, valid as u64, bytes.len() as u64))
}

/// Truncate a journal to its valid prefix (as measured by
/// [`read_framed_journal`]) and fsync the truncation.
pub fn truncate_journal(path: &Path, valid_len: u64) -> Result<(), PersistError> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(valid_len)?;
    f.sync_all()?;
    Ok(())
}

/// An append-only CRC-framed journal with batched fsyncs.
///
/// Each [`append`](JournalWriter::append) writes one framed line;
/// `flush_every` controls how many appends may accumulate before an
/// fsync (1 = sync every append). [`sync`](JournalWriter::sync) forces
/// the barrier early — callers that acknowledge work to a client must
/// call it before the ack, which is what makes batching safe: the
/// durability window only covers *unacknowledged* writes.
pub struct JournalWriter {
    file: fs::File,
    durable: bool,
    flush_every: usize,
    pending: usize,
}

impl JournalWriter {
    /// Start a fresh journal at `path` (truncating any existing file).
    pub fn create(path: &Path, durable: bool, flush_every: usize) -> io::Result<JournalWriter> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(JournalWriter::with_file(file, durable, flush_every))
    }

    /// Reattach to an existing journal at `path` for append.
    pub fn open_append(path: &Path, durable: bool, flush_every: usize) -> io::Result<JournalWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JournalWriter::with_file(file, durable, flush_every))
    }

    fn with_file(file: fs::File, durable: bool, flush_every: usize) -> JournalWriter {
        JournalWriter {
            file,
            durable,
            flush_every: flush_every.max(1),
            pending: 0,
        }
    }

    /// Append one record as a framed line; fsync if the batch is full.
    pub fn append<T: Serialize>(&mut self, rec: &T) -> Result<(), PersistError> {
        let line = frame_journal_line(&to_json(rec)?);
        let start = thermaware_obs::enabled().then(std::time::Instant::now);
        self.file.write_all(line.as_bytes())?;
        self.pending += 1;
        if self.durable && self.pending >= self.flush_every {
            self.sync()?;
        }
        if let Some(t) = start {
            thermaware_obs::observe("persist.journal_append_us", t.elapsed().as_micros() as f64);
        }
        Ok(())
    }

    /// Force the fsync barrier now (no-op when nothing is pending or the
    /// journal is non-durable).
    pub fn sync(&mut self) -> Result<(), PersistError> {
        if !self.durable || self.pending == 0 {
            return Ok(());
        }
        let start = thermaware_obs::enabled().then(std::time::Instant::now);
        self.file.sync_all()?;
        self.pending = 0;
        if let Some(t) = start {
            thermaware_obs::counter_add("persist.fsyncs", 1);
            thermaware_obs::observe("persist.fsync_us", t.elapsed().as_micros() as f64);
        }
        Ok(())
    }

    /// Appends not yet covered by an fsync barrier.
    pub fn pending(&self) -> usize {
        self.pending
    }
}

// ---- Snapshot and header files ---------------------------------------------
//
// Shared by the same two trails. `snap-<epoch>.json` holds the envelope
// `{version, epoch, state_crc, state}` — the state as a JSON *string*,
// so its CRC is over exact bytes — and the header file holds
// `{version, header}`. Both are written with `atomic_write`.

/// What tells one snapshot trail from the other.
#[derive(Debug)]
pub struct SnapshotFormat {
    /// The version written; a file claiming a newer one is refused with
    /// [`PersistError::UnsupportedVersion`].
    pub version: u64,
    /// First version whose envelopes carry `state_crc`; older ones load
    /// unchecked.
    pub crc_since: u64,
    /// obs counter bumped per snapshot written.
    pub obs_count: &'static str,
    /// obs histogram of the snapshot's atomic write, µs.
    pub obs_write_us: &'static str,
}

fn corrupt(path: &Path, reason: impl fmt::Display) -> PersistError {
    PersistError::Corrupt {
        path: path.to_path_buf(),
        reason: reason.to_string(),
    }
}

fn to_json<T: Serialize>(value: &T) -> Result<String, PersistError> {
    serde_json::to_string(value).map_err(|e| PersistError::State { reason: e.to_string() })
}

/// One `"key":value` member of an envelope being streamed. The state
/// goes in as a string member, already encoded: no copy of it is made.
fn member<T: Serialize + ?Sized>(envelope: &mut Writer, key: &str, value: &T) {
    envelope.key(key);
    value.serialize(envelope);
}

/// Read an envelope file's text in one pass: its (gated) version, and
/// the text of the first member under each of `keys` — checked as JSON
/// but not read, so that nothing is decoded before the version is
/// judged. The whole text is checked before anything is judged.
fn read_envelope<'t, const N: usize>(
    path: &Path,
    text: &'t str,
    max_version: u64,
    keys: [&str; N],
) -> Result<(u64, [Option<&'t str>; N]), PersistError> {
    let mut version = None;
    let mut members = [None; N];
    let mut src = Source::new(text);
    let is_object = src.peek().and_then(|kind| {
        if kind != Kind::Object {
            return src.skip().map(|()| false);
        }
        src.object(|src, key| {
            let slot = match keys.iter().position(|k| *k == key) {
                Some(i) => &mut members[i],
                None if key == "version" => &mut version,
                None => return src.skip(),
            };
            src.first(slot, Source::raw)
        })?;
        Ok(true)
    });
    let is_object = is_object
        .and_then(|is_object| src.finish().map(|()| is_object))
        .map_err(|e| corrupt(path, format!("envelope JSON: {e}")))?;
    if !is_object {
        return Err(corrupt(path, "envelope is not an object"));
    }
    let version: u64 = read_member(version)
        .ok_or_else(|| corrupt(path, "missing or non-integral 'version'"))?;
    if version > max_version {
        return Err(PersistError::UnsupportedVersion { path: path.to_path_buf(), version });
    }
    Ok((version, members))
}

/// An envelope member read as `T`, if it is there and is one.
fn read_member<T: Deserialize>(text: Option<&str>) -> Option<T> {
    serde_json::from_str(text?).ok()
}

/// Write `{version, header}` to `path`.
pub fn write_header<H: Serialize>(
    path: &Path,
    version: u64,
    header: &H,
    durable: bool,
) -> Result<(), PersistError> {
    let mut envelope = Writer::compact();
    envelope.begin_object();
    member(&mut envelope, "version", &version);
    member(&mut envelope, "header", header);
    envelope.end_object();
    atomic_write(path, envelope.finish().as_bytes(), durable)?;
    Ok(())
}

/// Read a header file back: version gate, then `H`. A missing file is
/// [`PersistError::NoCheckpoint`] for its directory.
pub fn read_header<H: Deserialize>(path: &Path, max_version: u64) -> Result<H, PersistError> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Err(PersistError::NoCheckpoint {
                dir: path.parent().unwrap_or(path).to_path_buf(),
            })
        }
        Err(e) => return Err(e.into()),
    };
    let (_, [header]) = read_envelope(path, &text, max_version, ["header"])?;
    let header = header.ok_or_else(|| corrupt(path, serde::Error::missing_field("header")))?;
    serde_json::from_str(header).map_err(|e| corrupt(path, e))
}

/// `(epoch, path)` of every `snap-*.json` in `dir`.
pub fn snapshot_paths(dir: &Path) -> Result<Vec<(usize, PathBuf)>, PersistError> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(middle) = name
            .strip_prefix(SNAP_PREFIX)
            .and_then(|s| s.strip_suffix(SNAP_SUFFIX))
        else {
            continue;
        };
        let Ok(epoch) = middle.parse::<usize>() else {
            continue;
        };
        out.push((epoch, entry.path()));
    }
    Ok(out)
}

/// Write the snapshot of `epoch` (its state already serialized as
/// `state_json`, CRC `state_crc`) into `dir`, then prune all but the
/// newest `retain` generations.
pub fn write_snapshot(
    format: &SnapshotFormat,
    dir: &Path,
    epoch: usize,
    state_json: &str,
    state_crc: u32,
    durable: bool,
    retain: usize,
) -> Result<(), PersistError> {
    let mut envelope = Writer::compact();
    envelope.begin_object();
    member(&mut envelope, "version", &format.version);
    member(&mut envelope, "epoch", &epoch);
    member(&mut envelope, "state_crc", &state_crc);
    member(&mut envelope, "state", state_json);
    envelope.end_object();
    let json = envelope.finish();
    let name = format!("{SNAP_PREFIX}{epoch:08}{SNAP_SUFFIX}");
    let start = thermaware_obs::enabled().then(std::time::Instant::now);
    atomic_write(&dir.join(name), json.as_bytes(), durable)?;
    if let Some(t) = start {
        thermaware_obs::counter_add(format.obs_count, 1);
        thermaware_obs::observe(format.obs_write_us, t.elapsed().as_micros() as f64);
    }
    let mut snaps = snapshot_paths(dir)?;
    let retain = retain.max(1);
    if snaps.len() > retain {
        snaps.sort_by_key(|(e, _)| *e);
        for (_, path) in snaps.iter().take(snaps.len() - retain) {
            fs::remove_file(path)?;
        }
    }
    Ok(())
}

/// Parse one snapshot file: version gate, CRC check, state decode, and
/// the three epochs — the file name's (`file_epoch`), the envelope's
/// and the state's own — agreeing. Anything else is an error, and the
/// caller moves on to an older generation.
pub fn load_snapshot<S: Deserialize>(
    format: &SnapshotFormat,
    path: &Path,
    file_epoch: usize,
    epoch_of: impl Fn(&S) -> usize,
) -> Result<S, PersistError> {
    let text = fs::read_to_string(path)?;
    let (version, [epoch, state_crc, state]) =
        read_envelope(path, &text, format.version, ["epoch", "state_crc", "state"])?;
    let epoch: usize =
        read_member(epoch).ok_or_else(|| corrupt(path, "missing or non-integral 'epoch'"))?;
    // The state is a string member: unescaped once, here, and the file's
    // text is gone before the state is read out of it.
    let state_json: String = read_member(state).ok_or_else(|| corrupt(path, "missing 'state'"))?;
    if version >= format.crc_since {
        let want: u32 = read_member(state_crc).ok_or_else(|| corrupt(path, "missing 'state_crc'"))?;
        let got = crc32(state_json.as_bytes());
        if got != want {
            return Err(corrupt(
                path,
                format!("state CRC mismatch: stored {want:08x}, computed {got:08x}"),
            ));
        }
    }
    drop(text);
    let state: S = serde_json::from_str(&state_json).map_err(|e| corrupt(path, e))?;
    if epoch != file_epoch || epoch_of(&state) != epoch {
        return Err(corrupt(
            path,
            format!(
                "file name epoch {file_epoch}, envelope epoch {epoch} and state epoch {} disagree",
                epoch_of(&state)
            ),
        ));
    }
    Ok(state)
}

/// The immutable description of a checkpointed run, written once to
/// `run.json`: everything needed to rebuild the data center and re-attach
/// recovered state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunHeader {
    /// The full scenario (floor, coefficients, workload, budget).
    pub scenario: ScenarioSnapshot,
    /// Supervisor configuration, arrival seed included.
    pub cfg: SupervisorConfig,
    /// The initial three-stage plan.
    pub plan: ThreeStageSolution,
    /// The fault script driving the run.
    pub script: crate::fault::FaultScript,
}

/// One write-ahead journal record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "rec", rename_all = "snake_case")]
enum JournalRecord {
    /// Appended (and fsynced) *before* epoch `epoch` executes.
    Begin {
        epoch: usize,
        faults: Vec<FaultEvent>,
    },
    /// Appended after epoch `epoch` executed: the CRC-32 of the
    /// post-epoch [`SupervisorState`] JSON and the events the epoch
    /// appended to the log.
    Commit {
        epoch: usize,
        state_crc: u32,
        events: Vec<Event>,
    },
}

/// Writes the journal and snapshots for one run. Create with
/// [`Checkpointer::create`] (fresh run) or [`Checkpointer::reopen`]
/// (continue an existing directory after [`resume`]).
pub struct Checkpointer {
    cfg: CheckpointConfig,
    journal: JournalWriter,
}

impl Checkpointer {
    /// Initialize a fresh checkpoint directory: write `run.json`, start
    /// an empty journal, and leave any stale snapshots to be overwritten.
    pub fn create(
        cfg: CheckpointConfig,
        dc: &DataCenter,
        sup_cfg: &SupervisorConfig,
        plan: &ThreeStageSolution,
        script: &crate::fault::FaultScript,
    ) -> Result<Checkpointer, PersistError> {
        fs::create_dir_all(&cfg.dir)?;
        // Clear snapshots from any previous run in this directory so
        // recovery cannot mix generations.
        for (_, path) in snapshot_paths(&cfg.dir)? {
            fs::remove_file(path)?;
        }
        let header = RunHeader {
            scenario: ScenarioSnapshot::capture(dc),
            cfg: *sup_cfg,
            plan: plan.clone(),
            script: script.clone(),
        };
        write_header(&cfg.dir.join(RUN_FILE), FORMAT_VERSION, &header, cfg.durable)?;
        let journal = JournalWriter::create(&cfg.dir.join(JOURNAL_FILE), cfg.durable, cfg.flush_every)?;
        Ok(Checkpointer { cfg, journal })
    }

    /// Reattach to an existing checkpoint directory (after [`resume`]):
    /// the journal is opened for append, `run.json` is left untouched.
    pub fn reopen(cfg: CheckpointConfig) -> Result<Checkpointer, PersistError> {
        let journal =
            JournalWriter::open_append(&cfg.dir.join(JOURNAL_FILE), cfg.durable, cfg.flush_every)?;
        Ok(Checkpointer { cfg, journal })
    }

    fn write_snapshot(&self, epoch: usize, state_json: &str, state_crc: u32) -> Result<(), PersistError> {
        let cfg = &self.cfg;
        write_snapshot(&SNAPSHOTS, &cfg.dir, epoch, state_json, state_crc, cfg.durable, cfg.retain)
    }

    /// Snapshot a run at its current epoch boundary.
    pub fn snapshot(&mut self, live: &LiveRun<'_>) -> Result<(), PersistError> {
        let (json, crc) = json_crc(live.state())?;
        self.write_snapshot(live.epoch(), &json, crc)
    }

    /// Execute one epoch under write-ahead journaling: *begin* record
    /// (fsynced) → [`LiveRun::step`] → *commit* record → snapshot when
    /// the interval (or the horizon) is reached. Returns `false` once the
    /// run is done.
    pub fn run_epoch(&mut self, live: &mut LiveRun<'_>) -> Result<bool, PersistError> {
        if live.is_done() {
            return Ok(false);
        }
        let epoch = live.epoch();
        self.journal.append(&JournalRecord::Begin {
            epoch,
            faults: live.due_faults(),
        })?;
        let log_before = live.log().events().len();
        live.step();
        let (json, state_crc) = json_crc(live.state())?;
        self.journal.append(&JournalRecord::Commit {
            epoch,
            state_crc,
            events: live.log().events_since(log_before).to_vec(),
        })?;
        let interval = self.cfg.snapshot_interval.max(1);
        if live.epoch().is_multiple_of(interval) || live.is_done() {
            // The snapshot must never outrun the journal: drain any
            // batched appends before the (fsynced) snapshot rename.
            self.journal.sync()?;
            self.write_snapshot(live.epoch(), &json, state_crc)?;
        }
        Ok(true)
    }
}

/// Run a supervised plan to completion under durable checkpointing.
/// Equivalent to [`Supervisor::run`] plus a recoverable trail in
/// `ckpt.dir`.
pub fn run_checkpointed(
    dc: &DataCenter,
    cfg: SupervisorConfig,
    plan: &ThreeStageSolution,
    script: &crate::fault::FaultScript,
    ckpt: &CheckpointConfig,
) -> Result<SupervisorReport, PersistError> {
    run_checkpointed_until(dc, cfg, plan, script, ckpt, usize::MAX)
        .map(|r| r.unwrap_or_else(|| unreachable!("usize::MAX epochs always completes")))
}

/// Like [`run_checkpointed`], but stop (as if the process died) after at
/// most `stop_after` epochs. Returns `Ok(None)` when stopped early —
/// nothing is flushed beyond what the write-ahead protocol already made
/// durable, which is exactly what a crash leaves behind.
pub fn run_checkpointed_until(
    dc: &DataCenter,
    cfg: SupervisorConfig,
    plan: &ThreeStageSolution,
    script: &crate::fault::FaultScript,
    ckpt: &CheckpointConfig,
    stop_after: usize,
) -> Result<Option<SupervisorReport>, PersistError> {
    let sup = Supervisor::new(dc, cfg);
    let mut live = sup.begin(plan, script);
    let mut cp = Checkpointer::create(ckpt.clone(), dc, &cfg, plan, script)?;
    // Epoch-0 snapshot: the directory is recoverable from the first
    // instant, before any epoch has run.
    cp.snapshot(&live)?;
    let mut executed = 0usize;
    while !live.is_done() {
        if executed >= stop_after {
            return Ok(None);
        }
        cp.run_epoch(&mut live)?;
        executed += 1;
    }
    Ok(Some(live.conclude()))
}

/// What [`resume`] found and did.
#[derive(Debug, Clone)]
pub struct RecoveryInfo {
    /// Epoch of the snapshot recovery started from.
    pub snapshot_epoch: usize,
    /// Corrupt snapshot generations that had to be skipped.
    pub snapshots_skipped: usize,
    /// Committed epochs re-executed from the journal.
    pub replayed_epochs: usize,
    /// Bytes of torn/corrupt journal tail truncated away.
    pub truncated_bytes: u64,
    /// Epoch the run resumes at.
    pub resume_epoch: usize,
    /// Did the recovered assignment satisfy the physical power-cap and
    /// redline invariants? (Checked strictly — i.e. an error instead of
    /// `false` — only when the state believes itself healthy.)
    pub feasible: bool,
    /// Worst redline violation of the recovered assignment, °C (≤ 0 is
    /// safe).
    pub worst_redline_violation_c: f64,
    /// Power headroom of the recovered assignment, kW (≥ 0 is safe).
    pub power_headroom_kw: f64,
}

/// A run brought back from disk: the rebuilt data center, the original
/// header, and the replayed state. Call [`RecoveredRun::live`] to
/// continue it.
#[derive(Debug)]
pub struct RecoveredRun {
    /// The data center, rebuilt from the scenario snapshot.
    pub dc: DataCenter,
    /// The immutable run description (`run.json`).
    pub header: RunHeader,
    /// Execution state at the recovered epoch boundary.
    pub state: SupervisorState,
    /// What recovery found and did.
    pub info: RecoveryInfo,
}

impl RecoveredRun {
    /// Reattach the recovered state to the data center as a [`LiveRun`].
    pub fn live(&self) -> Result<LiveRun<'_>, PersistError> {
        LiveRun::from_state(&self.dc, &self.header.script, self.state.clone())
            .map_err(|reason| PersistError::State { reason })
    }

    /// Run the recovered state to completion without further
    /// checkpointing and return the report.
    pub fn finish(&self) -> Result<SupervisorReport, PersistError> {
        let mut live = self.live()?;
        while live.step() {}
        Ok(live.conclude())
    }

    /// Continue the recovered run to completion *with* checkpointing:
    /// the journal in `ckpt.dir` is appended to, snapshots resume on the
    /// configured interval.
    pub fn finish_checkpointed(
        &self,
        ckpt: &CheckpointConfig,
    ) -> Result<SupervisorReport, PersistError> {
        let mut live = self.live()?;
        let mut cp = Checkpointer::reopen(ckpt.clone())?;
        while cp.run_epoch(&mut live)? {}
        Ok(live.conclude())
    }
}

/// Recover a checkpointed run from `dir`.
///
/// 1. Load and version-gate `run.json`; rebuild the [`DataCenter`] from
///    its scenario snapshot (fully re-validated — a corrupted scenario is
///    a typed error, not a later panic).
/// 2. Load the newest snapshot whose CRC verifies, skipping corrupt
///    generations.
/// 3. Read the journal's valid prefix; a torn or corrupt tail (partial
///    line, bad CRC, bad JSON) is truncated off the file.
/// 4. Re-execute every epoch the journal committed after the snapshot,
///    checking the recomputed state CRC against each commit record.
/// 5. Verify the recovered assignment against the physical model: when
///    the state believes itself healthy an infeasible assignment is a
///    [`PersistError::InvariantViolation`]; degraded states record the
///    check in [`RecoveryInfo`] instead.
pub fn resume(dir: &Path) -> Result<RecoveredRun, PersistError> {
    // -- 1. Header ---------------------------------------------------------
    let run_path = dir.join(RUN_FILE);
    let header: RunHeader = read_header(&run_path, FORMAT_VERSION)?;
    let dc = header
        .scenario
        .clone()
        .restore()
        .map_err(|e| PersistError::Corrupt {
            path: run_path.clone(),
            reason: format!("scenario does not restore: {e}"),
        })?;

    // -- 2. Newest valid snapshot -----------------------------------------
    let mut snaps = snapshot_paths(dir)?;
    snaps.sort_by_key(|(e, _)| *e);
    let mut snapshots_skipped = 0usize;
    let mut recovered: Option<(SupervisorState, usize)> = None;
    for (epoch, path) in snaps.iter().rev() {
        match load_snapshot(&SNAPSHOTS, path, *epoch, |s: &SupervisorState| s.epoch) {
            Ok(state) => {
                recovered = Some((state, *epoch));
                break;
            }
            Err(e @ PersistError::UnsupportedVersion { .. }) => return Err(e),
            Err(_) => snapshots_skipped += 1,
        }
    }
    let Some((state, snapshot_epoch)) = recovered else {
        return Err(PersistError::NoCheckpoint { dir: dir.to_path_buf() });
    };

    // -- 3. Journal valid prefix (truncate the torn tail) ------------------
    let journal_path = dir.join(JOURNAL_FILE);
    let (records, valid_len, file_len) = read_framed_journal::<JournalRecord>(&journal_path)?;
    let truncated_bytes = file_len - valid_len;
    if truncated_bytes > 0 {
        truncate_journal(&journal_path, valid_len)?;
    }

    // -- 4. Deterministic replay of committed epochs -----------------------
    let mut live =
        LiveRun::from_state(&dc, &header.script, state).map_err(|reason| PersistError::State {
            reason: format!("snapshot at epoch {snapshot_epoch}: {reason}"),
        })?;
    let mut replayed_epochs = 0usize;
    for rec in &records {
        let JournalRecord::Commit { epoch, state_crc, .. } = rec else {
            continue; // a begin without a commit is a crash mid-epoch
        };
        if *epoch < live.epoch() {
            continue; // already covered by the snapshot
        }
        if *epoch > live.epoch() {
            return Err(PersistError::Corrupt {
                path: journal_path.clone(),
                reason: format!(
                    "journal gap: commit for epoch {epoch} but replay is at {}",
                    live.epoch()
                ),
            });
        }
        live.step();
        if json_crc_only(live.state()) != *state_crc {
            return Err(PersistError::Corrupt {
                path: journal_path.clone(),
                reason: format!("replay of epoch {epoch} diverged from the committed state CRC"),
            });
        }
        replayed_epochs += 1;
    }

    // -- 5. Physical invariant check ---------------------------------------
    let report = live.state().verify(&dc);
    let feasible = report.is_feasible();
    if !feasible && live.state().believes_healthy() {
        return Err(PersistError::InvariantViolation {
            reason: format!(
                "state claims health but verification found redline {:+.3} °C, headroom {:+.3} kW",
                report.worst_redline_violation_c, report.power_headroom_kw
            ),
        });
    }
    let info = RecoveryInfo {
        snapshot_epoch,
        snapshots_skipped,
        replayed_epochs,
        truncated_bytes,
        resume_epoch: live.epoch(),
        feasible,
        worst_redline_violation_c: report.worst_redline_violation_c,
        power_headroom_kw: report.power_headroom_kw,
    };
    let state = live.into_state();
    Ok(RecoveredRun {
        dc,
        header,
        state,
        info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reflected IEEE polynomial, stated here a second time: the
    /// reference shares nothing with what it checks.
    const CRC_POLY: u32 = 0xEDB8_8320;

    /// The definition: one bit at a time, no table. What `crc32` was
    /// until it had whole states to cover, kept as its reference.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    proptest! {
        /// Every length around the 8-byte step, at every alignment of
        /// the slice's start.
        #[test]
        fn crc32_agrees_with_the_bitwise_definition(buf in prop::collection::vec(0u8..=255, 8 + 67)) {
            for offset in 0..8 {
                for len in 0..=67 {
                    let slice = &buf[offset..offset + len];
                    prop_assert_eq!(crc32(slice), crc32_bitwise(slice), "offset {} len {}", offset, len);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// State-sized buffers: almost all of the work is in the stepped
        /// loop.
        #[test]
        fn crc32_agrees_on_megabytes(
            buf in prop::collection::vec(0u8..=255, 1_000_000..2_000_000usize),
            offset in 0usize..8,
        ) {
            prop_assert_eq!(crc32(&buf[offset..]), crc32_bitwise(&buf[offset..]));
        }
    }

    /// Lengths on both sides of the slice-by-8 step, and of nothing.
    const EDGE_LENGTHS: [usize; 7] = [0, 1, 7, 8, 9, 63, 65];

    proptest! {
        /// The concatenation rule at arbitrary splits, and at every split
        /// that leaves an edge length on either side (empty halves
        /// included).
        #[test]
        fn crc32_combine_is_the_crc_of_the_concatenation(
            buf in prop::collection::vec(0u8..=255, 0..600usize),
            split in 0.0f64..=1.0,
        ) {
            let whole = crc32(&buf);
            let arbitrary = (split * buf.len() as f64) as usize;
            let edges = EDGE_LENGTHS.iter().flat_map(|&n| [n, buf.len().saturating_sub(n)]);
            for at in edges.chain([arbitrary]).filter(|&at| at <= buf.len()) {
                let (a, b) = buf.split_at(at);
                prop_assert_eq!(crc32_combine(crc32(a), crc32(b), b.len()), whole, "split at {}", at);
            }
        }

        /// Three parts joined left first or right first.
        #[test]
        fn crc32_combine_is_associative(
            a in prop::collection::vec(0u8..=255, 0..80usize),
            b in prop::collection::vec(0u8..=255, 0..80usize),
            c in prop::collection::vec(0u8..=255, 0..80usize),
        ) {
            let (ca, cb, cc) = (crc32(&a), crc32(&b), crc32(&c));
            let left = crc32_combine(crc32_combine(ca, cb, b.len()), cc, c.len());
            let right = crc32_combine(ca, crc32_combine(cb, cc, c.len()), b.len() + c.len());
            prop_assert_eq!(left, right);
            prop_assert_eq!(left, crc32(&[a, b, c].concat()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Fragment-sized second halves: lengths with many bits set, past
        /// 64 kB.
        #[test]
        fn crc32_combine_agrees_past_64_kb(
            buf in prop::collection::vec(0u8..=255, 70_000..400_000usize),
            head in 0usize..70_000,
        ) {
            let (a, b) = buf.split_at(head.min(buf.len() - 65_537));
            prop_assert!(b.len() > 65_536);
            prop_assert_eq!(crc32_combine(crc32(a), crc32(b), b.len()), crc32(&buf));
        }
    }

    #[test]
    fn journal_line_round_trips_and_rejects_flips() {
        let rec = JournalRecord::Begin {
            epoch: 3,
            faults: Vec::new(),
        };
        let json = serde_json::to_string(&rec).expect("json");
        let mut line = frame_journal_line(&json);
        assert_eq!(line.pop(), Some('\n'));
        let parsed: JournalRecord = parse_framed_line(line.as_bytes()).expect("parse");
        assert_eq!(parsed, rec);
        // Flip one payload byte: the CRC must catch it.
        let mut bad = line.into_bytes();
        let last = bad.len() - 2;
        bad[last] ^= 0x01;
        assert!(parse_framed_line::<JournalRecord>(&bad).is_none());
    }

    /// Golden bytes of the two journal records (a private type; the
    /// public ones are pinned in the root `tests/encoding_golden.rs`).
    #[test]
    fn journal_record_bytes_are_pinned() {
        use crate::event::EventKind;
        use crate::fault::Fault;
        let cases = [
            (
                JournalRecord::Begin {
                    epoch: 3,
                    faults: vec![FaultEvent { at_s: 3.5, fault: Fault::NodeDeath { node: 1 } }],
                },
                r#"{"rec":"begin","epoch":3,"faults":[{"at_s":3.5,"fault":{"kind":"node_death","node":1}}]}"#,
            ),
            (
                JournalRecord::Commit {
                    epoch: 3,
                    state_crc: 0xffff_ffff,
                    events: vec![Event { at_s: 4.0, kind: EventKind::NoSteadyState }],
                },
                r#"{"rec":"commit","epoch":3,"state_crc":4294967295,"events":[{"at_s":4,"kind":{"kind":"no_steady_state"}}]}"#,
            ),
        ];
        for (rec, literal) in cases {
            assert_eq!(serde_json::to_string(&rec).expect("encode"), literal);
            assert_eq!(serde_json::from_str::<JournalRecord>(literal).expect("decode"), rec);
        }
        for bad in [r#"{"rec":"gremlin"}"#, r#"{"rec":"commit","epoch":3}"#, r#"{"epoch":3}"#, "[]"] {
            assert!(serde_json::from_str::<JournalRecord>(bad).is_err(), "accepted {bad}");
        }
    }

    /// A batched writer must leave exactly the same bytes on disk as the
    /// sync-every-append writer — batching only moves the fsync barrier.
    #[test]
    fn batched_journal_writes_identical_bytes() {
        let dir = std::env::temp_dir().join("thermaware-persist-flushbatch");
        fs::create_dir_all(&dir).expect("mkdir");
        let strict_path = dir.join("strict.jsonl");
        let batched_path = dir.join("batched.jsonl");
        let recs: Vec<JournalRecord> = (0..10)
            .map(|i| JournalRecord::Begin { epoch: i, faults: Vec::new() })
            .collect();
        let mut strict = JournalWriter::create(&strict_path, true, 1).expect("create");
        let mut batched = JournalWriter::create(&batched_path, true, 4).expect("create");
        for rec in &recs {
            strict.append(rec).expect("append");
            batched.append(rec).expect("append");
        }
        assert!(batched.pending() > 0, "batching should defer some fsyncs");
        batched.sync().expect("sync");
        assert_eq!(batched.pending(), 0);
        let a = fs::read(&strict_path).expect("read");
        let b = fs::read(&batched_path).expect("read");
        assert_eq!(a, b);
        let (parsed, valid, total) =
            read_framed_journal::<JournalRecord>(&batched_path).expect("read journal");
        assert_eq!(parsed, recs);
        assert_eq!(valid, total);
        let _ = fs::remove_file(&strict_path);
        let _ = fs::remove_file(&batched_path);
    }

    #[test]
    fn version_gate_rejects_future_formats() {
        let dir = std::env::temp_dir().join("thermaware-persist-vergate");
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("snap-00000001.json");
        fs::write(&path, br#"{"version":99,"epoch":1,"state_crc":0,"state":"{}"}"#)
            .expect("write");
        match load_snapshot(&SNAPSHOTS, &path, 1, |s: &SupervisorState| s.epoch) {
            Err(PersistError::UnsupportedVersion { version, .. }) => assert_eq!(version, 99),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }
}
