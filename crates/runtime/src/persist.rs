//! Durable checkpoint/restore: a write-ahead journal plus crash-consistent
//! state snapshots, one protocol for the workspace's two trails — the
//! supervisor's checkpoint directory (here) and the scheduling service's
//! store (`thermaware-service`'s `store` module).
//!
//! A trail directory holds a header file written once (the
//! [`ScenarioSnapshot`] and whatever else rebuilds the run: `run.json`
//! for the supervisor), `journal.jsonl` — a *begin* record before each
//! epoch executes, a *commit* record with the CRC of the post-epoch state
//! after, every line CRC-framed so a torn tail is detectable — and
//! `snap-<epoch>.json` state snapshots every `snapshot_interval` epochs,
//! written with [`thermaware_datacenter::atomic_write`] and pruned to the
//! newest `retain`.
//!
//! A [`Trail`] names what differs between the two trails; a
//! [`TrailWriter`] makes every write, and [`Trail::open`] then
//! [`Trail::replay`] are the one resume, each trail building its running
//! object in between. Because every epoch is deterministic given the state at its
//! boundary, recovery is *replay*, not rollback: [`resume`] loads the
//! newest uncorrupted snapshot, truncates any torn journal tail,
//! re-executes the committed epochs after it — checking each commit's
//! state CRC — and hands back a [`RecoveredRun`] that continues
//! bit-for-bit like a run that was never interrupted. Recovered state
//! that claims to be healthy is also verified against the power-cap and
//! redline invariants ([`thermaware_core::verify_assignment`]).

use crate::event::Event;
use crate::fault::FaultEvent;
use crate::supervisor::{LiveRun, Supervisor, SupervisorConfig, SupervisorReport, SupervisorState};
use serde::{Deserialize, Kind, Serialize, Sink, Source};
use serde_json::Writer;
use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use thermaware_core::ThreeStageSolution;
use thermaware_datacenter::{atomic_write, DataCenter, ScenarioSnapshot};

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
        /// The newest version this build reads for that file.
        supported: u64,
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
            PersistError::UnsupportedVersion { path, version, supported } => write!(
                f,
                "{}: format version {version} is newer than supported ({supported})",
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

// ---- The framed journal ----------------------------------------------------
//
// Every line is `XXXXXXXX <json>\n` with a CRC-32 over the JSON bytes, so
// a torn or bit-flipped tail is detectable byte-for-byte and recovery can
// truncate to the last good record.

/// Frame one JSON payload as a CRC'd journal line (newline included).
pub fn frame_journal_line(json: &str) -> String {
    format!("{:08x} {json}\n", crc32(json.as_bytes()))
}

/// Parse one framed line (`XXXXXXXX <json>`, no newline) into `T`, or
/// `None` on bad framing, CRC mismatch, or a payload `T` rejects.
fn parse_framed_line<T: Deserialize>(line: &[u8]) -> Option<T> {
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

/// Read a journal's valid prefix — every complete, CRC-clean line whose
/// payload parses as `T` — and truncate the torn or corrupt tail after it
/// off the file (fsynced). Returns the records and the bytes truncated.
/// Missing file = empty journal.
fn read_journal<T: Deserialize>(path: &Path) -> Result<(Vec<T>, u64), PersistError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e.into()),
    };
    let mut records = Vec::new();
    let mut valid = 0usize;
    // Stop at a line with no terminator, or with bad framing, CRC or JSON.
    while let Some(nl) = bytes[valid..].iter().position(|&b| b == b'\n') {
        let Some(rec) = parse_framed_line::<T>(&bytes[valid..valid + nl]) else {
            break;
        };
        records.push(rec);
        valid += nl + 1;
    }
    if valid < bytes.len() {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(valid as u64)?;
        f.sync_all()?;
    }
    Ok((records, (bytes.len() - valid) as u64))
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
        let file = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
        Ok(JournalWriter { file, durable, flush_every: flush_every.max(1), pending: 0 })
    }

    /// Reattach to an existing journal at `path` for append.
    fn open_append(path: &Path, durable: bool, flush_every: usize) -> io::Result<JournalWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JournalWriter { file, durable, flush_every: flush_every.max(1), pending: 0 })
    }

    /// Append one record as a framed line; fsync if the batch is full.
    pub fn append<T: Serialize>(&mut self, rec: &T) -> Result<(), PersistError> {
        let json = serde_json::to_string(rec).map_err(|e| PersistError::State { reason: e.to_string() })?;
        let start = thermaware_obs::enabled().then(std::time::Instant::now);
        self.file.write_all(frame_journal_line(&json).as_bytes())?;
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
}

// ---- Snapshot and header envelopes -----------------------------------------
//
// `snap-<epoch>.json` holds `{version, epoch, state_crc, state}` — the
// state as a JSON *string*, so its CRC is over exact bytes — and the
// header file holds `{version, header}`.

fn corrupt(path: &Path, reason: impl fmt::Display) -> PersistError {
    PersistError::Corrupt {
        path: path.to_path_buf(),
        reason: reason.to_string(),
    }
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
    supported: u64,
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
    if version > supported {
        return Err(PersistError::UnsupportedVersion { path: path.to_path_buf(), version, supported });
    }
    Ok((version, members))
}

/// An envelope member read as `T`, if it is there and is one.
fn read_member<T: Deserialize>(text: Option<&str>) -> Option<T> {
    serde_json::from_str(text?).ok()
}

/// `(epoch, path)` of every `snap-*.json` in `dir`, oldest first.
fn snapshot_paths(dir: &Path) -> Result<Vec<(usize, PathBuf)>, PersistError> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let epoch = name.to_str().and_then(|name| {
            let middle = name.strip_prefix(SNAP_PREFIX)?.strip_suffix(SNAP_SUFFIX)?;
            middle.parse::<usize>().ok()
        });
        if let Some(epoch) = epoch {
            out.push((epoch, entry.path()));
        }
    }
    out.sort_by_key(|(e, _)| *e);
    Ok(out)
}

/// Parse one snapshot file of trail `T`: version gate, CRC check, state
/// decode, and the three epochs — the file name's (`file_epoch`), the
/// envelope's and the state's own — agreeing. Anything else is an error.
fn load_snapshot<T: Trail>(path: &Path, file_epoch: usize) -> Result<T::State, PersistError> {
    let text = fs::read_to_string(path)?;
    let (version, [epoch, state_crc, state]) =
        read_envelope(path, &text, T::VERSION, ["epoch", "state_crc", "state"])?;
    let epoch: usize =
        read_member(epoch).ok_or_else(|| corrupt(path, "missing or non-integral 'epoch'"))?;
    // The state is a string member: unescaped once, here, and the file's
    // text is gone before the state is read out of it.
    let state_json: String = read_member(state).ok_or_else(|| corrupt(path, "missing 'state'"))?;
    if version >= T::CRC_SINCE {
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
    let state: T::State = serde_json::from_str(&state_json).map_err(|e| corrupt(path, e))?;
    if epoch != file_epoch || T::epoch(&state) != epoch {
        return Err(corrupt(
            path,
            format!(
                "file name epoch {file_epoch}, envelope epoch {epoch} and state epoch {} disagree",
                T::epoch(&state)
            ),
        ));
    }
    Ok(state)
}

// ---- The trail protocol ----------------------------------------------------

/// What tells one durable trail from the other: its file types and
/// names, and which records replay executes. [`Trail::open`] and
/// [`Trail::replay`] are the protocol, written once; each trail's resume
/// calls them in order and builds its running object in between.
pub trait Trail: Sized {
    /// The immutable run description in the header file.
    type Header: Serialize + Deserialize;
    /// What a snapshot generation holds.
    type State: Serialize + Deserialize;
    /// One journal record.
    type Record: Serialize + Deserialize;
    /// The header file's name.
    const HEADER_FILE: &'static str;
    /// The format version written; a newer file is refused.
    const VERSION: u64;
    /// First version whose snapshots carry `state_crc`.
    const CRC_SINCE: u64;
    /// obs counter of snapshots written.
    const SNAPSHOT_COUNTER: &'static str;
    /// obs histogram of a snapshot's write, µs.
    const SNAPSHOT_WRITE_US: &'static str;

    /// The scenario the header rebuilds the data center from.
    fn scenario(header: &Self::Header) -> &ScenarioSnapshot;
    /// Epochs a state has executed.
    fn epoch(state: &Self::State) -> usize;
    /// The epoch replay executes on `record`, if it executes one.
    fn steps(record: &Self::Record) -> Option<usize>;
    /// The epoch `record` commits and the state CRC journaled after it.
    fn commits(record: &Self::Record) -> Option<(usize, u32)>;

    /// Open the trail in `dir` for recovery: read and version-gate the
    /// header, restore its scenario, and find the newest generation that
    /// passes its file checks and that `usable` accepts — damaged or
    /// unusable ones skipped, one in a newer format refusing the resume.
    /// Returns what the caller builds its running object from, to hand
    /// to [`Trail::replay`].
    fn open(
        dir: &Path,
        usable: impl Fn(&DataCenter, &Self::State) -> bool,
    ) -> Result<Opened<Self>, PersistError> {
        let path = dir.join(Self::HEADER_FILE);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(PersistError::NoCheckpoint { dir: dir.to_path_buf() })
            }
            Err(e) => return Err(e.into()),
        };
        let (_, [header]) = read_envelope(&path, &text, Self::VERSION, ["header"])?;
        let header = header.ok_or_else(|| corrupt(&path, serde::Error::missing_field("header")))?;
        let header: Self::Header = serde_json::from_str(header).map_err(|e| corrupt(&path, e))?;
        drop(text);
        let dc = Self::scenario(&header)
            .clone()
            .restore()
            .map_err(|e| corrupt(&path, format!("scenario does not restore: {e}")))?;
        let mut recovery = TrailRecovery { dir: dir.to_path_buf(), ..TrailRecovery::default() };
        for (epoch, path) in snapshot_paths(dir)?.iter().rev() {
            match load_snapshot::<Self>(path, *epoch) {
                Ok(state) if usable(&dc, &state) => {
                    recovery.snapshot_epoch = *epoch;
                    return Ok((header, dc, Some(state), recovery));
                }
                Err(e @ PersistError::UnsupportedVersion { .. }) => return Err(e),
                _ => recovery.snapshots_skipped += 1,
            }
        }
        Ok((header, dc, None, recovery))
    }

    /// Replay the journal on `live`, the running object at the
    /// generation's epoch, after truncating the torn tail off its valid
    /// prefix. A record behind the state is inside the generation and
    /// skipped; one ahead of it is a journal gap. One that
    /// [`steps`](Trail::steps) runs its epoch through `step`; one that
    /// [`commits`](Trail::commits) must find `state(live)` at the CRC it
    /// journaled.
    fn replay<L>(
        recovery: &mut TrailRecovery,
        live: &mut L,
        state: impl Fn(&L) -> &Self::State,
        mut step: impl FnMut(&mut L, &Self::Record) -> Result<(), String>,
    ) -> Result<(), PersistError> {
        let path = recovery.dir.join(JOURNAL_FILE);
        let (records, truncated) = read_journal::<Self::Record>(&path)?;
        recovery.truncated_bytes = truncated;
        for record in &records {
            let (steps, commit) = (Self::steps(record), Self::commits(record));
            // The state epoch a record applies at: a stepping one before
            // its epoch runs, a commit alone after.
            let (epoch, at) = match (steps, commit) {
                (Some(epoch), _) => (epoch, epoch),
                (None, Some((epoch, _))) => (epoch, epoch + 1),
                (None, None) => continue,
            };
            let now = Self::epoch(state(live));
            if at < now {
                continue;
            }
            if at > now {
                let reason = format!("journal gap: record for epoch {epoch} but state is at {now}");
                return Err(corrupt(&path, reason));
            }
            if steps.is_some() {
                step(live, record).map_err(|misfit| corrupt(&path, format!("record for epoch {epoch}: {misfit}")))?;
                recovery.replayed_epochs += 1;
            }
            if let Some((_, journaled)) = commit {
                let crc = json_crc_only(state(live));
                if crc != journaled {
                    let reason = format!(
                        "replay divergence at epoch {epoch}: state CRC {crc:08x} != journaled {journaled:08x}"
                    );
                    return Err(corrupt(&path, reason));
                }
            }
            recovery.tail_begin = commit.is_none();
        }
        Ok(())
    }
}

/// What [`Trail::open`] hands its caller: the header, the data center,
/// the newest usable generation (`None`: none) and the recovery record.
type Opened<T> = (<T as Trail>::Header, DataCenter, Option<<T as Trail>::State>, TrailRecovery);

/// What [`Trail::open`] found and [`Trail::replay`] did.
#[derive(Debug, Default)]
pub struct TrailRecovery {
    /// The trail directory.
    pub dir: PathBuf,
    /// Epoch of the generation replay started from (0: none usable).
    pub snapshot_epoch: usize,
    /// Newer generations skipped: damaged, or not usable.
    pub snapshots_skipped: usize,
    /// Epochs re-executed from the journal.
    pub replayed_epochs: usize,
    /// Bytes of torn/corrupt journal tail truncated away.
    pub truncated_bytes: u64,
    /// The journal ended on an epoch replayed with no commit after it
    /// (the one in flight when the process died).
    pub tail_begin: bool,
}

/// Every write of one trail directory.
pub struct TrailWriter<T: Trail> {
    cfg: CheckpointConfig,
    journal: JournalWriter,
    trail: PhantomData<T>,
}

impl<T: Trail> TrailWriter<T> {
    /// Initialize a fresh trail directory: create it, remove the
    /// snapshots of any earlier run in it (recovery must not mix
    /// generations), write the header and start an empty journal.
    pub fn create(cfg: CheckpointConfig, header: &T::Header) -> Result<Self, PersistError> {
        fs::create_dir_all(&cfg.dir)?;
        for (_, path) in snapshot_paths(&cfg.dir)? {
            fs::remove_file(path)?;
        }
        let mut envelope = Writer::compact();
        envelope.begin_object();
        member(&mut envelope, "version", &T::VERSION);
        member(&mut envelope, "header", header);
        envelope.end_object();
        atomic_write(&cfg.dir.join(T::HEADER_FILE), envelope.finish().as_bytes(), cfg.durable)?;
        let journal = JournalWriter::create(&cfg.dir.join(JOURNAL_FILE), cfg.durable, cfg.flush_every)?;
        Ok(TrailWriter { cfg, journal, trail: PhantomData })
    }

    /// Reattach to a trail directory after a resume: the journal is
    /// opened for append, the header left untouched.
    pub fn reopen(cfg: CheckpointConfig) -> Result<Self, PersistError> {
        let journal = JournalWriter::open_append(&cfg.dir.join(JOURNAL_FILE), cfg.durable, cfg.flush_every)?;
        Ok(TrailWriter { cfg, journal, trail: PhantomData })
    }

    /// Append one journal record (fsynced once the batch is full).
    pub fn append(&mut self, record: &T::Record) -> Result<(), PersistError> {
        self.journal.append(record)
    }

    /// Force the journal's fsync barrier now.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.journal.sync()
    }

    /// Is a snapshot due at `epoch` (every `snapshot_interval` epochs)?
    pub fn snapshot_due(&self, epoch: usize) -> bool {
        epoch.is_multiple_of(self.cfg.snapshot_interval.max(1))
    }

    /// Snapshot the state of `epoch`, encoded as `state_json` with CRC
    /// `state_crc`: sync the journal first — a snapshot never describes
    /// state the journal cannot reproduce — then write the generation and
    /// prune all but the newest `retain`.
    pub fn snapshot(&mut self, epoch: usize, state_json: &str, state_crc: u32) -> Result<(), PersistError> {
        self.journal.sync()?;
        let mut envelope = Writer::compact();
        envelope.begin_object();
        member(&mut envelope, "version", &T::VERSION);
        member(&mut envelope, "epoch", &epoch);
        member(&mut envelope, "state_crc", &state_crc);
        member(&mut envelope, "state", state_json);
        envelope.end_object();
        let json = envelope.finish();
        let name = format!("{SNAP_PREFIX}{epoch:08}{SNAP_SUFFIX}");
        let start = thermaware_obs::enabled().then(std::time::Instant::now);
        atomic_write(&self.cfg.dir.join(name), json.as_bytes(), self.cfg.durable)?;
        if let Some(t) = start {
            thermaware_obs::counter_add(T::SNAPSHOT_COUNTER, 1);
            thermaware_obs::observe(T::SNAPSHOT_WRITE_US, t.elapsed().as_micros() as f64);
        }
        let snaps = snapshot_paths(&self.cfg.dir)?;
        for (_, path) in &snaps[..snaps.len().saturating_sub(self.cfg.retain.max(1))] {
            fs::remove_file(path)?;
        }
        Ok(())
    }
}

// ---- The supervisor's trail ------------------------------------------------

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

/// The supervisor's checkpoint directory as a [`Trail`]: a commit
/// re-executes its epoch (a begin without one is the epoch in flight at
/// the crash, re-run live), a generation that does not fit the room
/// refuses the resume, none is [`PersistError::NoCheckpoint`], and the
/// replayed state is checked against the physical model — all of it in
/// [`resume`].
struct Checkpoints;

impl Trail for Checkpoints {
    type Header = RunHeader;
    type State = SupervisorState;
    type Record = JournalRecord;
    const HEADER_FILE: &'static str = "run.json";
    /// Version 1 snapshots (no `state_crc` field) are still readable.
    const VERSION: u64 = 2;
    const CRC_SINCE: u64 = 2;
    const SNAPSHOT_COUNTER: &'static str = "persist.snapshots";
    const SNAPSHOT_WRITE_US: &'static str = "persist.snapshot_write_us";

    fn scenario(header: &RunHeader) -> &ScenarioSnapshot {
        &header.scenario
    }

    fn epoch(state: &SupervisorState) -> usize {
        state.epoch
    }

    fn steps(record: &JournalRecord) -> Option<usize> {
        Self::commits(record).map(|(epoch, _)| epoch)
    }

    fn commits(record: &JournalRecord) -> Option<(usize, u32)> {
        match record {
            JournalRecord::Begin { .. } => None,
            JournalRecord::Commit { epoch, state_crc, .. } => Some((*epoch, *state_crc)),
        }
    }
}

/// Execute one epoch under write-ahead journaling: *begin* record →
/// [`LiveRun::step`] → *commit* record → snapshot when the interval (or
/// the horizon) is reached. The commit's CRC keeps no text; a snapshot
/// epoch encodes the state again with its text, as the service does.
fn checkpointed_epoch(trail: &mut TrailWriter<Checkpoints>, live: &mut LiveRun<'_>) -> Result<(), PersistError> {
    let epoch = live.epoch();
    trail.append(&JournalRecord::Begin { epoch, faults: live.due_faults() })?;
    let log_before = live.log().events().len();
    live.step();
    let state_crc = json_crc_only(live.state());
    let events = live.log().events_since(log_before).to_vec();
    trail.append(&JournalRecord::Commit { epoch, state_crc, events })?;
    if trail.snapshot_due(live.epoch()) || live.is_done() {
        let (json, crc) = json_crc(live.state())?;
        trail.snapshot(live.epoch(), &json, crc)?;
    }
    Ok(())
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
    let header =
        RunHeader { scenario: ScenarioSnapshot::capture(dc), cfg, plan: plan.clone(), script: script.clone() };
    let mut trail = TrailWriter::create(ckpt.clone(), &header)?;
    // Epoch-0 snapshot: the directory is recoverable from the first
    // instant, before any epoch has run.
    let (json, crc) = json_crc(live.state())?;
    trail.snapshot(live.epoch(), &json, crc)?;
    for _ in 0..stop_after {
        if live.is_done() {
            return Ok(Some(live.conclude()));
        }
        checkpointed_epoch(&mut trail, &mut live)?;
    }
    Ok(live.is_done().then(|| live.conclude()))
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
}

/// Recover a checkpointed run from `dir` (DESIGN.md §7 "Recovery
/// algorithm"): [`Trail::open`], the live run at the newest generation,
/// [`Trail::replay`] re-executing each committed epoch, then the physical
/// invariant check. A corrupted scenario, a diverging replay or a state
/// that claims health but fails the physical invariants is a typed
/// error, never a later panic.
pub fn resume(dir: &Path) -> Result<RecoveredRun, PersistError> {
    let (header, dc, generation, mut recovery) = Checkpoints::open(dir, |_, _| true)?;
    let Some(state) = generation else {
        return Err(PersistError::NoCheckpoint { dir: recovery.dir });
    };
    let mut live = LiveRun::from_state(&dc, &header.script, state).map_err(|reason| PersistError::State {
        reason: format!("snapshot at epoch {}: {reason}", recovery.snapshot_epoch),
    })?;
    Checkpoints::replay(&mut recovery, &mut live, LiveRun::state, |live, _| {
        live.step();
        Ok(())
    })?;
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
        snapshot_epoch: recovery.snapshot_epoch,
        snapshots_skipped: recovery.snapshots_skipped,
        replayed_epochs: recovery.replayed_epochs,
        truncated_bytes: recovery.truncated_bytes,
        resume_epoch: live.epoch(),
        feasible,
        worst_redline_violation_c: report.worst_redline_violation_c,
        power_headroom_kw: report.power_headroom_kw,
    };
    let state = live.into_state();
    Ok(RecoveredRun { dc, header, state, info })
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
        assert!(batched.pending > 0, "batching should defer some fsyncs");
        batched.sync().expect("sync");
        assert_eq!(batched.pending, 0);
        let a = fs::read(&strict_path).expect("read");
        let b = fs::read(&batched_path).expect("read");
        assert_eq!(a, b);
        let (parsed, truncated) = read_journal::<JournalRecord>(&batched_path).expect("read journal");
        assert_eq!(parsed, recs);
        assert_eq!(truncated, 0);
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
        match load_snapshot::<Checkpoints>(&path, 1) {
            Err(PersistError::UnsupportedVersion { version, supported, .. }) => {
                assert_eq!((version, supported), (99, 2))
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }
}
