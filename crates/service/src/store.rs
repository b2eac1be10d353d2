//! The service's durable layer: a write-ahead journal of (batches,
//! verdict) epoch inputs plus periodic full-state snapshots, built on
//! the runtime persist crate's framed-journal, header-file and
//! snapshot-file primitives (one copy of the file format for both).
//!
//! # Exactly-once admission across SIGKILL
//!
//! The daemon's epoch loop appends a [`ServiceRecord::Begin`] holding
//! the epoch's admitted batches and the journaled
//! [`ReplanVerdict`], **fsyncs it, and only then acknowledges the
//! batches to clients** ([`ServiceStore::append_begin`] enforces the
//! barrier). A SIGKILL after the ack therefore cannot lose admitted
//! work: resume replays the Begin, and because batch ids live in the
//! engine's dedup window, a client retransmitting an acked batch gets
//! `duplicate` back rather than double admission. A SIGKILL *before*
//! the ack may lose the batch — which is fine, the client never heard
//! an ack and will retry.
//!
//! [`ServiceRecord::Commit`] (the post-step state CRC) and snapshots
//! ride the batched-fsync path: losing them costs replay time, never
//! correctness.
//!
//! # Layout
//!
//! ```text
//! dir/
//!   service.json    header: scenario + config + initial plan
//!   journal.jsonl   CRC-framed Begin/Commit records
//!   snap-XXXXXXXX.json  full ServiceState snapshots (retained: newest K)
//! ```

use crate::engine::{plan_fits, ReplanVerdict, ServiceConfig, ServiceEngine, ServiceState};
use crate::proto::Batch;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};
use thermaware_core::stage3::Stage3Solution;
use thermaware_datacenter::ScenarioSnapshot;
use thermaware_runtime::persist::{
    json_crc, json_crc_only, load_snapshot, read_framed_journal, read_header, snapshot_paths,
    truncate_journal, write_header, write_snapshot, JournalWriter, PersistError, SnapshotFormat,
};

/// On-disk format version for the service store.
pub const SERVICE_FORMAT_VERSION: u64 = 1;

const SNAPSHOTS: SnapshotFormat = SnapshotFormat {
    version: SERVICE_FORMAT_VERSION,
    crc_since: 1,
    obs_count: "service.snapshots",
    obs_write_us: "service.snapshot_write_us",
};

const HEADER_FILE: &str = "service.json";
const JOURNAL_FILE: &str = "journal.jsonl";

/// The immutable run description written once at store creation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceHeader {
    /// The full scenario (floor, coefficients, workload, budget).
    pub scenario: ScenarioSnapshot,
    /// Deterministic service policy.
    pub cfg: ServiceConfig,
    /// Initial per-core P-states (fixed across replans).
    pub pstates: Vec<usize>,
    /// Initial Stage-3 plan.
    pub stage3: Stage3Solution,
}

/// One write-ahead record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "rec", rename_all = "snake_case")]
pub enum ServiceRecord {
    /// Fsynced *before* epoch `epoch`'s batches are acknowledged: the
    /// complete deterministic input of the epoch step.
    Begin {
        /// The epoch these inputs drive.
        epoch: usize,
        /// Admitted batches, in admission order.
        batches: Vec<Batch>,
        /// The replan verdict the live shell reified for this epoch.
        verdict: ReplanVerdict,
    },
    /// Appended after the step: the CRC-32 of the post-step state JSON,
    /// for replay divergence detection. Batched-fsync; loss is benign.
    Commit {
        /// The epoch that just executed.
        epoch: usize,
        /// CRC-32 over the post-step [`ServiceState`] JSON.
        state_crc: u32,
    },
}

/// Durability policy for a service store.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Store directory (created if missing).
    pub dir: PathBuf,
    /// fsync journal appends and snapshot writes. Tests may disable.
    pub durable: bool,
    /// Commit-record appends per fsync barrier (Begin records always
    /// sync — they gate acks).
    pub flush_every: usize,
    /// Epochs between full snapshots.
    pub snapshot_interval: usize,
    /// Snapshot generations retained.
    pub retain: usize,
}

impl StoreConfig {
    /// Defaults: durable, commit batches of 8, snapshot every 64 epochs,
    /// keep 3 generations.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            durable: true,
            flush_every: 8,
            snapshot_interval: 64,
            retain: 3,
        }
    }
}

/// Serialize a state and CRC it — the (json, crc) pair snapshots and
/// commit records share ([`json_crc`] at the state's type).
pub fn state_json_crc(state: &ServiceState) -> Result<(String, u32), PersistError> {
    json_crc(state)
}

/// Writes the journal and snapshots for one service run.
pub struct ServiceStore {
    cfg: StoreConfig,
    journal: JournalWriter,
}

impl ServiceStore {
    /// Initialize a fresh store directory: write the header, clear stale
    /// snapshots, start an empty journal, and snapshot epoch 0.
    pub fn create(cfg: StoreConfig, engine: &ServiceEngine) -> Result<ServiceStore, PersistError> {
        fs::create_dir_all(&cfg.dir)?;
        for (_, path) in snapshot_paths(&cfg.dir)? {
            fs::remove_file(path)?;
        }
        let header = ServiceHeader {
            scenario: ScenarioSnapshot::capture(engine.dc()),
            cfg: engine.config().clone(),
            pstates: engine.state().pstates.clone(),
            stage3: engine.state().stage3.clone(),
        };
        write_header(&cfg.dir.join(HEADER_FILE), SERVICE_FORMAT_VERSION, &header, cfg.durable)?;
        let journal =
            JournalWriter::create(&cfg.dir.join(JOURNAL_FILE), cfg.durable, cfg.flush_every)?;
        let mut store = ServiceStore { cfg, journal };
        store.snapshot(engine)?;
        Ok(store)
    }

    /// Reattach to an existing store directory (after
    /// [`resume_service`]): journal opened for append, header untouched.
    pub fn reopen(cfg: StoreConfig) -> Result<ServiceStore, PersistError> {
        let journal =
            JournalWriter::open_append(&cfg.dir.join(JOURNAL_FILE), cfg.durable, cfg.flush_every)?;
        Ok(ServiceStore { cfg, journal })
    }

    /// Journal the epoch's inputs and **fsync before returning** — the
    /// ack barrier. Only after this returns may the daemon acknowledge
    /// the batches to clients.
    pub fn append_begin(
        &mut self,
        epoch: usize,
        batches: &[Batch],
        verdict: &ReplanVerdict,
    ) -> Result<(), PersistError> {
        self.journal.append(&ServiceRecord::Begin {
            epoch,
            batches: batches.to_vec(),
            verdict: verdict.clone(),
        })?;
        self.journal.sync()
    }

    /// Journal the post-step state CRC (batched fsync — losing a commit
    /// record costs replay verification, never admitted work).
    pub fn append_commit(&mut self, epoch: usize, state_crc: u32) -> Result<(), PersistError> {
        self.journal
            .append(&ServiceRecord::Commit { epoch, state_crc })
    }

    /// Force the journal's fsync barrier now.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.journal.sync()
    }

    /// Should the daemon snapshot after `epoch` executed?
    pub fn snapshot_due(&self, epoch: usize) -> bool {
        let interval = self.cfg.snapshot_interval.max(1);
        epoch.is_multiple_of(interval)
    }

    /// Write a full snapshot of the engine state and prune old
    /// generations. The journal is synced first so a snapshot never
    /// describes state the journal cannot reproduce.
    pub fn snapshot(&mut self, engine: &ServiceEngine) -> Result<(), PersistError> {
        self.journal.sync()?;
        let (json, crc) = state_json_crc(engine.state())?;
        let cfg = &self.cfg;
        write_snapshot(&SNAPSHOTS, &cfg.dir, engine.state().epoch, &json, crc, cfg.durable, cfg.retain)
    }
}

/// What [`resume_service`] reconstructed, for logging/assertions.
#[derive(Debug, Clone)]
pub struct ServiceRecoveryInfo {
    /// Epoch of the snapshot replay started from (0 = header bootstrap).
    pub snapshot_epoch: usize,
    /// Journaled epochs re-executed on top of the snapshot.
    pub replayed_epochs: usize,
    /// The journal ended on a Begin without its Commit (the epoch that
    /// was in flight when the process died — replayed exactly once).
    pub tail_begin: bool,
    /// Bytes of torn/corrupt journal tail truncated away.
    pub truncated_bytes: u64,
}

/// Rebuild a [`ServiceEngine`] from a store directory: restore the
/// scenario, load the newest valid snapshot, replay journaled epochs
/// deterministically (verdicts come from the journal — **no solve is
/// ever re-run**), verify commit CRCs, and truncate any torn tail.
pub fn resume_service(dir: &Path) -> Result<(ServiceEngine, ServiceRecoveryInfo), PersistError> {
    let _span = thermaware_obs::span("service.resume");
    let header: ServiceHeader = read_header(&dir.join(HEADER_FILE), SERVICE_FORMAT_VERSION)?;
    let dc = header
        .scenario
        .clone()
        .restore()
        .map_err(|e| PersistError::State { reason: format!("scenario restore: {e}") })?;

    // Newest snapshot that passes its checks and fits the header's room
    // wins; corrupt generations are skipped, and with none valid we
    // bootstrap epoch 0 from the header.
    let mut snaps = snapshot_paths(dir)?;
    snaps.sort_by_key(|(e, _)| *e);
    let mut state: Option<ServiceState> = None;
    let mut snapshot_epoch = 0usize;
    for (epoch, path) in snaps.iter().rev() {
        let loaded = load_snapshot(&SNAPSHOTS, path, *epoch, |s: &ServiceState| s.epoch);
        if let Some(s) = loaded.ok().filter(|s| s.fits(&dc).is_ok()) {
            state = Some(s);
            snapshot_epoch = *epoch;
            break;
        }
    }
    let mut engine = match state {
        Some(s) => ServiceEngine::from_state(dc, header.cfg.clone(), s)
            .map_err(|reason| PersistError::State { reason })?,
        None => {
            plan_fits(&dc, &header.pstates, &header.stage3).map_err(|reason| {
                PersistError::Corrupt { path: dir.join(HEADER_FILE), reason }
            })?;
            ServiceEngine::new(dc, header.cfg.clone(), &header.pstates, &header.stage3)
        }
    };

    // Replay the journal's valid prefix on top of the snapshot.
    let journal_path = dir.join(JOURNAL_FILE);
    let (records, valid, total) = read_framed_journal::<ServiceRecord>(&journal_path)?;
    let truncated_bytes = total - valid;
    if truncated_bytes > 0 {
        truncate_journal(&journal_path, valid)?;
    }
    let mut replayed = 0usize;
    let mut tail_begin = false;
    for rec in &records {
        match rec {
            ServiceRecord::Begin { epoch, batches, verdict } => {
                if *epoch < engine.state().epoch {
                    continue; // already inside the snapshot
                }
                if *epoch > engine.state().epoch {
                    return Err(PersistError::Corrupt {
                        path: journal_path.clone(),
                        reason: format!(
                            "journal gap: begin for epoch {epoch} but state is at {}",
                            engine.state().epoch
                        ),
                    });
                }
                // The record is well framed, not therefore well formed.
                engine.inputs_fit(batches, verdict).map_err(|misfit| PersistError::Corrupt {
                    path: journal_path.clone(),
                    reason: format!("begin record for epoch {epoch}: {misfit}"),
                })?;
                engine.step(batches, verdict);
                replayed += 1;
                tail_begin = true;
            }
            ServiceRecord::Commit { epoch, state_crc } => {
                if epoch + 1 < engine.state().epoch {
                    continue; // commit already covered by the snapshot
                }
                if epoch + 1 > engine.state().epoch {
                    return Err(PersistError::Corrupt {
                        path: journal_path.clone(),
                        reason: format!(
                            "journal gap: commit for epoch {epoch} but state is at {}",
                            engine.state().epoch
                        ),
                    });
                }
                let crc = json_crc_only(engine.state());
                if crc != *state_crc {
                    return Err(PersistError::Corrupt {
                        path: journal_path.clone(),
                        reason: format!(
                            "replay divergence at epoch {epoch}: state CRC {crc:08x} != journaled {state_crc:08x}"
                        ),
                    });
                }
                tail_begin = false;
            }
        }
    }
    Ok((
        engine,
        ServiceRecoveryInfo {
            snapshot_epoch,
            replayed_epochs: replayed,
            tail_begin,
            truncated_bytes,
        },
    ))
}
