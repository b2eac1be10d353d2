//! The service's durable layer: a write-ahead journal of (batches,
//! faults, verdict) epoch inputs plus periodic full-state snapshots, in
//! the file format of the runtime's persist module. The daemon and the
//! supervisor (`crate::supervisor`) both write it; one resume,
//! [`resume_service`], reads it.
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
use std::path::{Path, PathBuf};
use thermaware_core::stage3::Stage3Solution;
use thermaware_datacenter::ScenarioSnapshot;
use thermaware_runtime::persist::{
    create_trail, json_crc, json_crc_only, load_snapshot, read_header, read_journal, snapshot_paths,
    write_snapshot, JournalWriter, PersistError, TrailRecovery,
};
use thermaware_runtime::{Fault, Floor};

/// On-disk format version for the service store.
pub const SERVICE_FORMAT_VERSION: u64 = 1;

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
    /// The floor at epoch 0 — its CRAC outlets, and whether it is
    /// supervised — when the engine stands on one.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub floor: Option<Floor>,
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
        /// Faults the floor takes at the epoch's start (absent when
        /// none).
        #[serde(default, skip_serializing_if = "Vec::is_empty")]
        faults: Vec<Fault>,
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
    /// fsync journal appends and snapshot writes. Without it a power
    /// loss can lose acknowledged epochs (a process kill cannot). Tests
    /// may disable.
    pub durable: bool,
    /// Commit-record appends per fsync barrier (clamped to ≥ 1; Begin
    /// records always sync — they gate acks).
    pub flush_every: usize,
    /// Epochs between full snapshots (clamped to ≥ 1); the journal
    /// records every epoch regardless.
    pub snapshot_interval: usize,
    /// Snapshot generations retained (clamped to ≥ 1).
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
        let header = ServiceHeader {
            scenario: ScenarioSnapshot::capture(engine.dc()),
            cfg: engine.config().clone(),
            pstates: engine.state().pstates.clone(),
            stage3: engine.state().stage3.clone(),
            floor: engine.state().floor.clone(),
        };
        create_trail(&cfg.dir, HEADER_FILE, SERVICE_FORMAT_VERSION, &header, cfg.durable)?;
        let journal = JournalWriter::create(&cfg.dir.join(JOURNAL_FILE), cfg.durable, cfg.flush_every)?;
        let mut store = ServiceStore { cfg, journal };
        store.snapshot(engine)?;
        Ok(store)
    }

    /// Reattach to an existing store directory (after
    /// [`resume_service`]): journal opened for append, header untouched.
    pub fn reopen(cfg: StoreConfig) -> Result<ServiceStore, PersistError> {
        let journal = JournalWriter::open_append(&cfg.dir.join(JOURNAL_FILE), cfg.durable, cfg.flush_every)?;
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
        self.append_begin_with(epoch, batches, &[], verdict)
    }

    /// [`append_begin`](Self::append_begin) for an epoch that also takes
    /// `faults`.
    pub fn append_begin_with(
        &mut self,
        epoch: usize,
        batches: &[Batch],
        faults: &[Fault],
        verdict: &ReplanVerdict,
    ) -> Result<(), PersistError> {
        self.journal.append(&ServiceRecord::Begin {
            epoch,
            batches: batches.to_vec(),
            verdict: verdict.clone(),
            faults: faults.to_vec(),
        })?;
        self.journal.sync()
    }

    /// Journal the post-step state CRC (batched fsync — losing a commit
    /// record costs replay verification, never admitted work).
    pub fn append_commit(&mut self, epoch: usize, state_crc: u32) -> Result<(), PersistError> {
        self.journal.append(&ServiceRecord::Commit { epoch, state_crc })
    }

    /// Force the journal's fsync barrier now.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.journal.sync()
    }

    /// Should the daemon snapshot after `epoch` executed?
    pub fn snapshot_due(&self, epoch: usize) -> bool {
        epoch.is_multiple_of(self.cfg.snapshot_interval.max(1))
    }

    /// Write a full snapshot of the engine state and prune old
    /// generations. The journal is synced first so a snapshot never
    /// describes state the journal cannot reproduce.
    pub fn snapshot(&mut self, engine: &ServiceEngine) -> Result<(), PersistError> {
        let (json, crc) = state_json_crc(engine.state())?;
        self.journal.sync()?;
        let cfg = &self.cfg;
        write_snapshot(&cfg.dir, SERVICE_FORMAT_VERSION, engine.state().epoch, &json, crc, cfg.durable, cfg.retain)
    }
}

/// Rebuild a [`ServiceEngine`] from a store directory: restore the
/// scenario, load the newest valid snapshot that fits the room (with
/// none, boot from the header's plan), replay journaled epochs
/// deterministically (verdicts come from the journal — **no solve is
/// ever re-run**), verify commit CRCs, and truncate any torn tail. A
/// snapshot in a newer format refuses the resume.
pub fn resume_service(dir: &Path) -> Result<(ServiceEngine, TrailRecovery), PersistError> {
    let _span = thermaware_obs::span("service.resume");
    let corrupt = |reason: String| PersistError::Corrupt { path: dir.join(HEADER_FILE), reason };
    let ServiceHeader { scenario, cfg, pstates, stage3, floor } =
        read_header(dir, HEADER_FILE, SERVICE_FORMAT_VERSION)?;
    let dc = scenario.restore().map_err(|e| corrupt(format!("scenario does not restore: {e}")))?;
    // The newest generation that passes its file checks and fits the
    // room; damaged or misfitting ones are skipped, one in a newer format
    // refuses the resume.
    let mut recovery = TrailRecovery { dir: dir.to_path_buf(), ..TrailRecovery::default() };
    let mut generation = None;
    for (epoch, path) in snapshot_paths(dir)?.iter().rev() {
        match load_snapshot(path, *epoch, SERVICE_FORMAT_VERSION, |state: &ServiceState| state.epoch) {
            Ok(state) if state.fits(&dc).is_ok() => {
                recovery.snapshot_epoch = *epoch;
                generation = Some(state);
                break;
            }
            Err(e @ PersistError::UnsupportedVersion { .. }) => return Err(e),
            _ => recovery.snapshots_skipped += 1,
        }
    }
    let mut engine = match generation {
        Some(state) => ServiceEngine::from_state(dc, cfg, state).map_err(|reason| PersistError::State { reason })?,
        None => {
            let header_fits = plan_fits(&dc, &pstates, &stage3)
                .and_then(|()| floor.as_ref().map_or(Ok(()), |floor| floor.fits(&dc)));
            header_fits.map_err(corrupt)?;
            let engine = ServiceEngine::new(dc, cfg, &pstates, &stage3);
            match floor {
                Some(floor) => engine.with_floor(floor),
                None => engine,
            }
        }
    };
    replay_journal(&mut engine, &mut recovery)?;
    Ok((engine, recovery))
}

/// Replay the journal on `engine`, standing at the generation's epoch,
/// after truncating the torn tail off its valid prefix. A record behind
/// the state is inside the generation and skipped; one ahead of it is a
/// journal gap. A begin holds its epoch's whole input, so it re-executes
/// the epoch, commit or no commit — once the input is checked against
/// the room; a commit must find the state at the CRC it journaled.
fn replay_journal(engine: &mut ServiceEngine, recovery: &mut TrailRecovery) -> Result<(), PersistError> {
    let path = recovery.dir.join(JOURNAL_FILE);
    let corrupt = |reason: String| PersistError::Corrupt { path: path.clone(), reason };
    let (records, truncated) = read_journal::<ServiceRecord>(&path)?;
    recovery.truncated_bytes = truncated;
    for record in &records {
        // The state epoch a record applies at: a begin before its epoch
        // runs, a commit after.
        let (epoch, at) = match record {
            ServiceRecord::Begin { epoch, .. } => (*epoch, *epoch),
            ServiceRecord::Commit { epoch, .. } => (*epoch, epoch + 1),
        };
        let now = engine.state().epoch;
        if at < now {
            continue;
        }
        if at > now {
            return Err(corrupt(format!("journal gap: record for epoch {epoch} but state is at {now}")));
        }
        match record {
            ServiceRecord::Begin { batches, faults, verdict, .. } => {
                // The record is well framed, not therefore well formed.
                let fits = engine.inputs_fit(batches, faults, verdict);
                fits.map_err(|misfit| corrupt(format!("record for epoch {epoch}: {misfit}")))?;
                engine.step_with(batches, faults, verdict);
                recovery.replayed_epochs += 1;
                recovery.tail_begin = true;
            }
            ServiceRecord::Commit { state_crc, .. } => {
                let crc = json_crc_only(engine.state());
                if crc != *state_crc {
                    return Err(corrupt(format!(
                        "replay divergence at epoch {epoch}: state CRC {crc:08x} != journaled {state_crc:08x}"
                    )));
                }
                recovery.tail_begin = false;
            }
        }
    }
    Ok(())
}
