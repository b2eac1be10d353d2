//! Durable checkpoint/restore: a write-ahead journal plus crash-consistent
//! state snapshots — the protocol under the scheduling service's store
//! (`thermaware-service`'s `store` module, the one [`Trail`]).
//!
//! A trail directory holds a header file written once (the
//! [`ScenarioSnapshot`] and whatever else rebuilds the run), `journal.jsonl` — a *begin* record before each
//! epoch executes, a *commit* record with the CRC of the post-epoch state
//! after, every line CRC-framed so a torn tail is detectable — and
//! `snap-<epoch>.json` state snapshots every `snapshot_interval` epochs,
//! written with [`thermaware_datacenter::atomic_write`] and pruned to the
//! newest `retain`.
//!
//! A [`Trail`] names the trail's file types and which records replay
//! executes; a [`TrailWriter`] makes every write, and [`Trail::open`]
//! then [`Trail::replay`] are the resume, the trail building its running
//! object in between. Because every epoch is deterministic given the
//! state at its boundary, recovery is *replay*, not rollback: the resume
//! loads the newest uncorrupted snapshot, truncates any torn journal
//! tail, re-executes the journaled epochs after it — checking each
//! commit's state CRC — and continues bit-for-bit like a run that was
//! never interrupted.

use serde::{Deserialize, Kind, Serialize, Sink, Source};
use serde_json::Writer;
use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use thermaware_datacenter::{atomic_write, DataCenter, ScenarioSnapshot};

const JOURNAL_FILE: &str = "journal.jsonl";
const SNAP_PREFIX: &str = "snap-";
const SNAP_SUFFIX: &str = ".json";

/// The checksum of every journal line and state, and its concatenation
/// rule. They live beside the printer, where a fragment that keeps its
/// own CRC is built; this module is where the workspace reaches them.
pub use serde_json::{crc32, crc32_combine};

/// Encode `value` and checksum the bytes: the `(json, crc)` pair every
/// commit record and snapshot is made of.
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

/// A trail's durability policy (the store's, in the writer's terms).
#[derive(Debug, Clone)]
pub struct TrailConfig {
    /// Trail directory (created if missing).
    pub dir: PathBuf,
    /// `fsync` journal appends and snapshot writes. Without it a power
    /// loss can lose acknowledged epochs (a process kill cannot).
    pub durable: bool,
    /// Journal appends per fsync barrier (clamped to ≥ 1); a writer that
    /// acknowledges work forces the barrier first ([`TrailWriter::sync`]).
    pub flush_every: usize,
    /// Epochs between full snapshots (clamped to ≥ 1); the journal
    /// records every epoch regardless.
    pub snapshot_interval: usize,
    /// Snapshot generations retained (clamped to ≥ 1).
    pub retain: usize,
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

/// Read an envelope file's text in one pass: gate its version, and
/// return the text of the first member under each of `keys` — checked as JSON
/// but not read, so that nothing is decoded before the version is
/// judged. The whole text is checked before anything is judged.
fn read_envelope<'t, const N: usize>(
    path: &Path,
    text: &'t str,
    supported: u64,
    keys: [&str; N],
) -> Result<[Option<&'t str>; N], PersistError> {
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
    Ok(members)
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
    let [epoch, state_crc, state] = read_envelope(path, &text, T::VERSION, ["epoch", "state_crc", "state"])?;
    let epoch: usize =
        read_member(epoch).ok_or_else(|| corrupt(path, "missing or non-integral 'epoch'"))?;
    // The state is a string member: unescaped once, here, and the file's
    // text is gone before the state is read out of it.
    let state_json: String = read_member(state).ok_or_else(|| corrupt(path, "missing 'state'"))?;
    let want: u32 = read_member(state_crc).ok_or_else(|| corrupt(path, "missing 'state_crc'"))?;
    let got = crc32(state_json.as_bytes());
    if got != want {
        return Err(corrupt(path, format!("state CRC mismatch: stored {want:08x}, computed {got:08x}")));
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
        let [header] = read_envelope(&path, &text, Self::VERSION, ["header"])?;
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
    /// Epoch of the generation replay started from (0: none usable,
    /// the header's plan booted).
    pub snapshot_epoch: usize,
    /// Newer generations skipped: damaged, or not usable.
    pub snapshots_skipped: usize,
    /// Epochs re-executed from the journal.
    pub replayed_epochs: usize,
    /// Bytes of torn/corrupt journal tail truncated away.
    pub truncated_bytes: u64,
    /// The journal ended on an epoch replayed with no commit after it
    /// (the one in flight when the process died — replayed exactly once).
    pub tail_begin: bool,
}

/// Every write of one trail directory.
pub struct TrailWriter<T: Trail> {
    cfg: TrailConfig,
    journal: JournalWriter,
    trail: PhantomData<T>,
}

impl<T: Trail> TrailWriter<T> {
    /// Initialize a fresh trail directory: create it, remove the
    /// snapshots of any earlier run in it (recovery must not mix
    /// generations), write the header and start an empty journal.
    pub fn create(cfg: TrailConfig, header: &T::Header) -> Result<Self, PersistError> {
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
    pub fn reopen(cfg: TrailConfig) -> Result<Self, PersistError> {
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
            thermaware_obs::counter_add("service.snapshots", 1);
            thermaware_obs::observe("service.snapshot_write_us", t.elapsed().as_micros() as f64);
        }
        let snaps = snapshot_paths(&self.cfg.dir)?;
        for (_, path) in &snaps[..snaps.len().saturating_sub(self.cfg.retain.max(1))] {
            fs::remove_file(path)?;
        }
        Ok(())
    }
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
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every length across the tables' 8-byte step and the
        /// carry-less fold's 16-byte block, 32-byte threshold and 64-byte
        /// four-lane step (twice over), at every alignment of a block.
        #[test]
        fn crc32_agrees_with_the_bitwise_definition(buf in prop::collection::vec(0u8..=255, 16 + 144)) {
            for offset in 0..16 {
                for len in 0..=144 {
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

    /// Lengths on both sides of the slice-by-8 step, of the carry-less
    /// fold's block, threshold and four-lane step, and of nothing.
    const EDGE_LENGTHS: [usize; 13] = [0, 1, 7, 8, 9, 15, 16, 31, 32, 33, 63, 64, 65];

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

    /// A journal record of the shape a trail writes: a tagged begin and
    /// commit.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    #[serde(tag = "rec", rename_all = "snake_case")]
    enum Record {
        Begin { epoch: usize },
        Commit { epoch: usize, state_crc: u32 },
    }

    /// A trail over [`Record`]s, to reach the generic reads.
    struct Probe;

    impl Trail for Probe {
        type Header = ScenarioSnapshot;
        type State = Vec<usize>;
        type Record = Record;
        const HEADER_FILE: &'static str = "probe.json";
        const VERSION: u64 = 2;

        fn scenario(header: &ScenarioSnapshot) -> &ScenarioSnapshot {
            header
        }

        fn epoch(state: &Vec<usize>) -> usize {
            state.len()
        }

        fn steps(record: &Record) -> Option<usize> {
            match record {
                Record::Begin { epoch } => Some(*epoch),
                Record::Commit { .. } => None,
            }
        }

        fn commits(record: &Record) -> Option<(usize, u32)> {
            match record {
                Record::Begin { .. } => None,
                Record::Commit { epoch, state_crc } => Some((*epoch, *state_crc)),
            }
        }
    }

    #[test]
    fn journal_line_round_trips_and_rejects_flips() {
        let rec = Record::Begin { epoch: 3 };
        let json = serde_json::to_string(&rec).expect("json");
        let mut line = frame_journal_line(&json);
        assert_eq!(line.pop(), Some('\n'));
        let parsed: Record = parse_framed_line(line.as_bytes()).expect("parse");
        assert_eq!(parsed, rec);
        // Flip one payload byte: the CRC must catch it.
        let mut bad = line.into_bytes();
        let last = bad.len() - 2;
        bad[last] ^= 0x01;
        assert!(parse_framed_line::<Record>(&bad).is_none());
    }

    /// Golden bytes of two framed journal records: the CRC-32 of the
    /// payload in eight hex digits, a space, the payload, a newline.
    #[test]
    fn journal_record_bytes_are_pinned() {
        let cases = [
            (Record::Begin { epoch: 3 }, "{\"rec\":\"begin\",\"epoch\":3}"),
            (Record::Commit { epoch: 3, state_crc: 0xffff_ffff }, "{\"rec\":\"commit\",\"epoch\":3,\"state_crc\":4294967295}"),
        ];
        for (rec, literal) in cases {
            let json = serde_json::to_string(&rec).expect("encode");
            assert_eq!(json, literal);
            assert_eq!(frame_journal_line(&json), format!("{:08x} {literal}\n", crc32(literal.as_bytes())));
            assert_eq!(serde_json::from_str::<Record>(literal).expect("decode"), rec);
        }
        assert_eq!(frame_journal_line("{}"), "a3a6bf43 {}\n");
        for bad in [r#"{"rec":"gremlin"}"#, r#"{"rec":"commit","epoch":3}"#, r#"{"epoch":3}"#, "[]"] {
            assert!(serde_json::from_str::<Record>(bad).is_err(), "accepted {bad}");
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
        let recs: Vec<Record> = (0..10).map(|epoch| Record::Begin { epoch }).collect();
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
        let (parsed, truncated) = read_journal::<Record>(&batched_path).expect("read journal");
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
        match load_snapshot::<Probe>(&path, 1) {
            Err(PersistError::UnsupportedVersion { version, supported, .. }) => {
                assert_eq!((version, supported), (99, 2))
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }
}
