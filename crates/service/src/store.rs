//! The service's durable layer: a write-ahead journal of (batches,
//! faults, verdict) epoch inputs plus periodic full-state snapshots — the
//! [`Trail`] of the runtime's persist module. The daemon and the
//! supervisor (`crate::supervisor`) both write it; one resume reads it.
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
use thermaware_runtime::{Fault, Floor};
use thermaware_runtime::persist::{json_crc, PersistError, Trail, TrailConfig, TrailRecovery, TrailWriter};

/// On-disk format version for the service store.
pub const SERVICE_FORMAT_VERSION: u64 = 1;

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

/// Writes the journal and snapshots for one service run (each method a
/// call on the one [`TrailWriter`]).
pub struct ServiceStore {
    trail: TrailWriter<Store>,
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
        let mut store = ServiceStore { trail: TrailWriter::create(trail_config(cfg), &header)? };
        store.snapshot(engine)?;
        Ok(store)
    }

    /// Reattach to an existing store directory (after
    /// [`resume_service`]): journal opened for append, header untouched.
    pub fn reopen(cfg: StoreConfig) -> Result<ServiceStore, PersistError> {
        Ok(ServiceStore { trail: TrailWriter::reopen(trail_config(cfg))? })
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
        self.trail.append(&ServiceRecord::Begin {
            epoch,
            batches: batches.to_vec(),
            verdict: verdict.clone(),
            faults: faults.to_vec(),
        })?;
        self.trail.sync()
    }

    /// Journal the post-step state CRC (batched fsync — losing a commit
    /// record costs replay verification, never admitted work).
    pub fn append_commit(&mut self, epoch: usize, state_crc: u32) -> Result<(), PersistError> {
        self.trail.append(&ServiceRecord::Commit { epoch, state_crc })
    }

    /// Force the journal's fsync barrier now.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.trail.sync()
    }

    /// Should the daemon snapshot after `epoch` executed?
    pub fn snapshot_due(&self, epoch: usize) -> bool {
        self.trail.snapshot_due(epoch)
    }

    /// Write a full snapshot of the engine state and prune old
    /// generations. The journal is synced first so a snapshot never
    /// describes state the journal cannot reproduce.
    pub fn snapshot(&mut self, engine: &ServiceEngine) -> Result<(), PersistError> {
        let (json, crc) = state_json_crc(engine.state())?;
        self.trail.snapshot(engine.state().epoch, &json, crc)
    }
}

/// The store's policy in the trail writer's terms: the same five values.
fn trail_config(cfg: StoreConfig) -> TrailConfig {
    let StoreConfig { dir, durable, flush_every, snapshot_interval, retain } = cfg;
    TrailConfig { dir, durable, flush_every, snapshot_interval, retain }
}

/// Rebuild a [`ServiceEngine`] from a store directory: restore the
/// scenario, load the newest valid snapshot that fits the room (with
/// none, boot from the header's plan), replay journaled epochs
/// deterministically (verdicts come from the journal — **no solve is
/// ever re-run**), verify commit CRCs, and truncate any torn tail. A
/// snapshot in a newer format refuses the resume.
pub fn resume_service(dir: &Path) -> Result<(ServiceEngine, TrailRecovery), PersistError> {
    let _span = thermaware_obs::span("service.resume");
    let (header, dc, generation, mut recovery) = Store::open(dir, |dc, state| state.fits(dc).is_ok())?;
    let mut engine = match generation {
        Some(state) => {
            ServiceEngine::from_state(dc, header.cfg, state).map_err(|reason| PersistError::State { reason })?
        }
        None => {
            let header_fits = plan_fits(&dc, &header.pstates, &header.stage3)
                .and_then(|()| header.floor.as_ref().map_or(Ok(()), |floor| floor.fits(&dc)));
            header_fits.map_err(|reason| PersistError::Corrupt { path: dir.join(Store::HEADER_FILE), reason })?;
            let engine = ServiceEngine::new(dc, header.cfg, &header.pstates, &header.stage3);
            match header.floor {
                Some(floor) => engine.with_floor(floor),
                None => engine,
            }
        }
    };
    Store::replay(&mut recovery, &mut engine, ServiceEngine::state, |engine, record| {
        if let ServiceRecord::Begin { batches, faults, verdict, .. } = record {
            // The record is well framed, not therefore well formed.
            engine.inputs_fit(batches, faults, verdict)?;
            engine.step_with(batches, faults, verdict);
        }
        Ok(())
    })?;
    Ok((engine, recovery))
}

/// The service store as a [`Trail`]: a begin holds the epoch's whole
/// input, so it re-executes the epoch, commit or no commit — once its
/// input is checked against the room. A generation whose tables are not
/// for the header's room is skipped for an older one, and with none
/// usable the engine boots from the header's plan at epoch 0 — all of it
/// in [`resume_service`].
struct Store;

impl Trail for Store {
    type Header = ServiceHeader;
    type State = ServiceState;
    type Record = ServiceRecord;
    const HEADER_FILE: &'static str = "service.json";
    const VERSION: u64 = SERVICE_FORMAT_VERSION;

    fn scenario(header: &ServiceHeader) -> &ScenarioSnapshot {
        &header.scenario
    }

    fn epoch(state: &ServiceState) -> usize {
        state.epoch
    }

    fn steps(record: &ServiceRecord) -> Option<usize> {
        match record {
            ServiceRecord::Begin { epoch, .. } => Some(*epoch),
            ServiceRecord::Commit { .. } => None,
        }
    }

    fn commits(record: &ServiceRecord) -> Option<(usize, u32)> {
        match record {
            ServiceRecord::Begin { .. } => None,
            ServiceRecord::Commit { epoch, state_crc } => Some((*epoch, *state_crc)),
        }
    }
}
