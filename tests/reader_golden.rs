//! What the JSON reader accepts, pinned: every input below is read as
//! one or more types, and per type the test folds each verdict (refused,
//! or accepted with the CRC-32 of the value printed again) into a digest.
//! The digests, with the accept and refuse counts, were computed before
//! the reader changed and hold it to the same answers afterwards — on
//! valid bytes (the same value) and on broken ones (refused exactly when
//! it was refused before).
//!
//! The corpus:
//!
//! * every file under `tests/fixtures/` — envelopes, the headers and
//!   states inside them, journal lines;
//! * every literal of `tests/encoding_golden.rs`, accepted or refused;
//! * deterministic mutants of a 40-node service state, a fleet solver
//!   state, service journal lines and socket
//!   requests: one bit flipped, one byte deleted, one byte replaced, the
//!   text cut short — at every `k`-th byte;
//! * hand shapes: duplicate keys, a tag key last, unknown members holding
//!   `1e999`, nesting around the 128-level bound, `\u` escapes, and
//!   whitespace between every two tokens.
//!
//! No input may panic a reader: that is checked on every one of them.

use std::fs;
use std::path::Path;
use std::sync::Arc;
use thermaware::core::{SolveError, Solver};
use thermaware::datacenter::ScenarioParams;
use thermaware::lp::LpError;
use thermaware::runtime::event::DEFAULT_LOG_CAPACITY;
use thermaware::runtime::persist::crc32;
use thermaware::runtime::{
    Action, Event, EventKind, EventLog, Fault, FaultEvent, Violation,
};
use thermaware::scheduler::DynamicScheduler;
use thermaware::service::engine::ServiceState;
use thermaware::service::store::{ServiceHeader, ServiceRecord};
use thermaware::service::{Batch, ReplanVerdict, Request, Response, ServiceConfig, ServiceEngine};
use thermaware::shard::{ChaosScript, Fleet, FleetConfig, FleetParams, FleetSolver, FleetState, PoolConfig};
use thermaware::workload::Curve;

type Value = serde_json::Value;

/// Read `text` as the type and print what was read: `None` when refused.
type ReadFn = fn(&str) -> Option<u32>;

macro_rules! reader {
    ($t:ty) => {{
        fn read(text: &str) -> Option<u32> {
            let value: $t = serde_json::from_str(text).ok()?;
            let printed = serde_json::to_string(&value).expect("a value read prints");
            Some(crc32(printed.as_bytes()))
        }
        (stringify!($t), read as ReadFn)
    }};
}

/// One type's verdicts so far.
struct Tally {
    name: &'static str,
    read: ReadFn,
    ok: usize,
    err: usize,
    /// One byte per verdict, and the printed CRC after an accept.
    log: Vec<u8>,
}

impl Tally {
    fn new((name, read): (&'static str, ReadFn)) -> Tally {
        Tally { name, read, ok: 0, err: 0, log: Vec::new() }
    }

    fn feed(&mut self, text: &str) {
        let read = self.read;
        let verdict = std::panic::catch_unwind(|| read(text));
        let Ok(verdict) = verdict else {
            let head: String = text.chars().take(200).collect();
            panic!("{} panicked reading {} bytes: {head}…", self.name, text.len());
        };
        match verdict {
            Some(crc) => {
                self.ok += 1;
                self.log.push(1);
                self.log.extend(crc.to_le_bytes());
            }
            None => {
                self.err += 1;
                self.log.push(0);
            }
        }
    }
}

/// The readers, one per type, in a fixed order.
struct Corpus {
    tallies: Vec<Tally>,
}

impl Corpus {
    fn new() -> Corpus {
        let readers = [
            reader!(Value),
            reader!(String),
            reader!(f64),
            reader!(u64),
            reader!(Vec<f64>),
            reader!(Option<f64>),
            reader!((usize, usize)),
            reader!(LpError),
            reader!(SolveError),
            reader!(Curve),
            reader!(Fault),
            reader!(FaultEvent),
            reader!(Violation),
            reader!(Action),
            reader!(EventKind),
            reader!(Event),
            reader!(EventLog),
            reader!(ReplanVerdict),
            reader!(Batch),
            reader!(ServiceRecord),
            reader!(Request),
            reader!(Response),
            reader!(DynamicScheduler),
            reader!(ServiceState),
            reader!(ServiceHeader),
            reader!(FleetState),
        ];
        Corpus { tallies: readers.into_iter().map(Tally::new).collect() }
    }

    fn tally(&mut self, name: &str) -> &mut Tally {
        self.tallies
            .iter_mut()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("no reader for {name}"))
    }

    /// Read `text` as each of `names`.
    fn feed(&mut self, names: &[&str], text: &str) {
        for name in names {
            self.tally(name).feed(text);
        }
    }

    /// Every mutant of `text` at every `k`-th offset, read as `names`.
    fn feed_mutants(&mut self, names: &[&str], text: &str, k: usize) {
        for_each_mutant(text, k, |mutant| self.feed(names, mutant));
    }
}

/// Bytes a replacement is drawn from: JSON's structural characters, the
/// starts of its literals, digits, an escape and a space.
const REPLACEMENTS: &[u8] = b"\"{}[],:-0123456789.eE\\ntfu ";

/// Call `f` on four mutants per `k`-th byte offset of `text`: one bit of
/// the byte flipped (bits 0–6, so ASCII stays ASCII), the byte deleted,
/// the byte replaced, the text cut short before it. A mutant that is no
/// longer UTF-8 is not text and is skipped.
fn for_each_mutant(text: &str, k: usize, mut f: impl FnMut(&str)) {
    let bytes = text.as_bytes();
    let mut buf = Vec::with_capacity(bytes.len());
    for (n, at) in (0..bytes.len()).step_by(k).enumerate() {
        let flipped = bytes[at] ^ (1 << (n % 7));
        let replaced = REPLACEMENTS[n % REPLACEMENTS.len()];
        for edit in 0..4 {
            buf.clear();
            buf.extend_from_slice(&bytes[..at]);
            match edit {
                0 => buf.push(flipped),
                1 => {}
                2 => buf.push(replaced),
                _ => {
                    if let Ok(cut) = std::str::from_utf8(&buf) {
                        f(cut);
                    }
                    continue;
                }
            }
            buf.extend_from_slice(&bytes[at + 1..]);
            if let Ok(mutant) = std::str::from_utf8(&buf) {
                f(mutant);
            }
        }
    }
}

/// `text` with whitespace between every two tokens (and around the
/// whole), strings left alone.
fn spaced(text: &str) -> String {
    let mut out = String::from(" \r\n");
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' | ',' | ':' => {
                out.push(c);
                out.push_str(" \t");
            }
            '}' | ']' => {
                out.push_str("\n ");
                out.push(c);
            }
            _ => out.push(c),
        }
    }
    out.push_str("\t\n");
    out
}

/// `depth` arrays around `inner`.
fn nested(depth: usize, inner: &str) -> String {
    format!("{}{inner}{}", "[".repeat(depth), "]".repeat(depth))
}

fn fixture(path: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(path);
    fs::read_to_string(path).expect("fixture")
}

/// A member of an envelope, printed back as text.
fn member(envelope: &str, key: &str) -> String {
    let v: Value = serde_json::from_str(envelope).expect("envelope");
    serde_json::to_string(v.get(key).expect("member")).expect("print")
}

/// The state string inside a snapshot envelope.
fn state_of(envelope: &str) -> String {
    let v: Value = serde_json::from_str(envelope).expect("envelope");
    v.get("state").and_then(Value::as_str).expect("state").to_string()
}

/// The JSON payloads of a framed journal.
fn journal_payloads(journal: &str) -> Vec<String> {
    journal.lines().map(|line| line[9..].to_string()).collect()
}

fn fixtures(corpus: &mut Corpus) {
    for (dir, snap) in [("service_store", "snap-00000008.json"), ("supervised_store", "snap-00000004.json")] {
        let (header_file, header, state) = ("service.json", "ServiceHeader", "ServiceState");
        let header_text = fixture(&format!("{dir}/{header_file}"));
        corpus.feed(&["Value"], &header_text);
        corpus.feed(&[header], &member(&header_text, "header"));
        let envelope = fixture(&format!("{dir}/{snap}"));
        corpus.feed(&["Value"], &envelope);
        corpus.feed(&[state, "Value"], &state_of(&envelope));
        for payload in journal_payloads(&fixture(&format!("{dir}/journal.jsonl"))) {
            corpus.feed(&["Value", "ServiceRecord"], &payload);
        }
    }
}

const EVENTS: &str = r#"[{"at_s":1,"kind":{"kind":"no_steady_state"}}]"#;
const STAGE3: &str = r#"{"reward_rate":1.5,"rate_per_core":[[0.5,1]],"group_of_core":[0,0],"groups":[[0,1]]}"#;
const SCHEDULER: &str = r#"{"policy":"atc_tc","tc":[[2,0]],"candidates":[[0]],"runnable":[[0]],"count":[[3,0]],"ewma_rate":[[[0,0],[0,0]]],"busy_until":[1.5,0],"service":[[0.5,null]],"busy_time":[1.5,0],"alive":[true,true],"plan_start":0}"#;
const STATS: &str = r#"{"type":"stats","report":{"epoch":9,"now_s":9,"admitted_batches":0,"duplicate_batches":0,"admitted_tasks":0,"dropped_tasks":0,"shed_tasks":0,"completed_tasks":0,"late_tasks":0,"lost_tasks":0,"reward":12.5,"replans":0,"replan_failures":0,"breaker_opens":0,"breaker":"closed","shed_types":0,"backlog_s":0.25,"log_dropped":0}}"#;
const PRETTY_BEGIN: &str = "{\n  \"rec\": \"begin\",\n  \"epoch\": 3,\n  \"batches\": [\n    {\n      \"id\": \"00000000000000a1\",\n      \"tasks\": [\n        [\n          1,\n          4\n        ]\n      ]\n    },\n    {\n      \"id\": \"0000000000000007\",\n      \"tasks\": []\n    }\n  ],\n  \"verdict\": {\n    \"kind\": \"failed\",\n    \"error\": \"tab\\there\"\n  }\n}";

/// Socket request lines, well formed and not.
const REQUESTS: [&str; 6] = [
    r#"{"type":"submit","id":"00000000000000a1","tasks":[[0,3],[2,1]],"budget_ms":500}"#,
    r#"{"type":"submit","id":"ffffffffffffffff","tasks":[[0,64]]}"#,
    r#"{"type":"stats"}"#,
    r#"{"type":"ping"}"#,
    r#"{"type":"shutdown"}"#,
    r#"{"id":"00000000000000a1","tasks":[[1,2]],"budget_ms":7,"type":"submit"}"#,
];

/// Every literal of `tests/encoding_golden.rs`, as the type it is read
/// as there (accepted or refused alike).
fn golden_literals() -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> = Vec::new();
    let mut add = |name: &'static str, literals: &[&str]| {
        out.extend(literals.iter().map(|l| (name, l.to_string())));
    };
    add(
        "LpError",
        &[
            r#"{"kind":"infeasible","residual":0.5}"#,
            r#"{"kind":"unbounded","var":"tc_0_1"}"#,
            r#"{"kind":"iteration_limit","limit":1000}"#,
            r#"{"kind":"internal","what":"no pivot"}"#,
            r#"{"kind":"gremlin"}"#,
            r#"{"kind":"infeasible"}"#,
            r#""infeasible""#,
            r#"{}"#,
        ],
    );
    add(
        "SolveError",
        &[
            r#"{"kind":"no_feasible_outlets","stage":"stage1"}"#,
            r#"{"kind":"outlet_recheck_failed","stage":"baseline"}"#,
            r#"{"kind":"lp","stage":"stage3","source":{"kind":"infeasible","residual":0.001}}"#,
            r#"{"kind":"invalid_input","what":"short pstates"}"#,
            r#"{"kind":"no_feasible_outlets","stage":"stage9"}"#,
            r#"{"kind":"gremlin"}"#,
            r#"{"kind":"lp","stage":"stage3"}"#,
            r#"[]"#,
        ],
    );
    add(
        "Curve",
        &[
            r#"{"kind":"constant","rate":200}"#,
            r#"{"kind":"diurnal","base":0.5,"peak":1.5,"period_s":60}"#,
            r#"{"kind":"surge","base":1,"surge":3,"start_s":10,"len_s":5.5}"#,
            r#"{"kind":"sawtooth"}"#,
            r#"{"kind":"surge","base":1}"#,
            r#"3"#,
        ],
    );
    add(
        "Fault",
        &[
            r#"{"kind":"crac_failure","unit":1}"#,
            r#"{"kind":"crac_recovery","unit":0}"#,
            r#"{"kind":"node_death","node":7}"#,
            r#"{"kind":"sensor_drift","bias_c":-2.5}"#,
            r#"{"kind":"arrival_surge","factor":2}"#,
            r#"{"kind":"meteor"}"#,
            r#"{"kind":"node_death"}"#,
            r#"{"node":1}"#,
        ],
    );
    add("FaultEvent", &[r#"{"at_s":4,"fault":{"kind":"node_death","node":2}}"#]);
    add(
        "Violation",
        &[
            r#"{"kind":"redline","observed_c":1.25}"#,
            r#"{"kind":"power_cap","total_kw":20.5,"budget_kw":19.4}"#,
            r#"{"kind":"stale_plan"}"#,
            r#"{"kind":"demand_drift","multiplier":1.5,"planned":1}"#,
            r#"{"kind":"gremlin"}"#,
            r#"{"kind":"redline"}"#,
            r#"null"#,
            r#"{"kind":"redline","observed_c":"inf"}"#,
            r#"{"kind":"redline","observed_c":"warm"}"#,
            r#"{"kind":"redline","observed_c":1e999}"#,
            r#"{"kind":"redline","observed_c":-1e999}"#,
        ],
    );
    add(
        "Action",
        &[
            r#"{"kind":"replan"}"#,
            r#"{"kind":"outlet_drop","by_c":2}"#,
            r#"{"kind":"throttle","steps":8}"#,
            r#"{"kind":"shed_task_type","task_type":4,"reward":1.5}"#,
            r#"{"kind":"stage1_replan"}"#,
            r#"{"kind":"gremlin"}"#,
            r#"{"kind":"throttle"}"#,
            r#""replan""#,
        ],
    );
    add(
        "EventKind",
        &[
            r#"{"kind":"fault_injected","fault":{"kind":"crac_failure","unit":0}}"#,
            r#"{"kind":"node_tripped","node":2,"inlet_c":29.5}"#,
            r#"{"kind":"no_steady_state"}"#,
            r#"{"kind":"violation_detected","violation":{"kind":"stale_plan"}}"#,
            r#"{"kind":"action_taken","action":{"kind":"throttle","steps":2}}"#,
            r#"{"kind":"replan_failed","attempt":2,"error":"stage3 LP: infeasible"}"#,
            r#"{"kind":"backoff","epochs":4}"#,
            r#"{"kind":"recovered","margin_c":-0.5}"#,
            r#"{"kind":"recovered","margin_c":"-inf"}"#,
            r#"{"kind":"node_tripped","node":0,"inlet_c":"inf"}"#,
            r#"{"kind":"gremlin"}"#,
            r#"{"kind":"fault_injected"}"#,
            r#"{"kind":"node_tripped","node":2}"#,
            r#"{"kind":"action_taken","action":{"kind":"gremlin"}}"#,
        ],
    );
    add("Event", &[r#"{"at_s":0.5,"kind":{"kind":"backoff","epochs":1}}"#]);
    let log = format!(r#"{{"events":{EVENTS},"capacity":{DEFAULT_LOG_CAPACITY},"dropped":0}}"#);
    let legacy_log = format!(r#"{{"events":{EVENTS}}}"#);
    add("EventLog", &[&log, &legacy_log]);
    let ok_verdict = format!(r#"{{"kind":"ok","stage3":{STAGE3}}}"#);
    add(
        "ReplanVerdict",
        &[
            r#"{"kind":"not_attempted"}"#,
            &ok_verdict,
            r#"{"kind":"timed_out"}"#,
            r#"{"kind":"failed","error":"stage3 LP: infeasible"}"#,
            r#"{"kind":"gremlin"}"#,
            r#"{"kind":"ok"}"#,
            r#""timed_out""#,
        ],
    );
    add(
        "Batch",
        &[
            r#"{"id":"ffffffffffffffff","tasks":[[0,3],[2,1]]}"#,
            r#"{"id":7,"tasks":[]}"#,
            r#"{"id":"xyz","tasks":[]}"#,
            r#"{"tasks":[]}"#,
        ],
    );
    add(
        "ServiceRecord",
        &[
            r#"{"rec":"begin","epoch":3,"batches":[{"id":"00000000000000a1","tasks":[[1,4]]}],"verdict":{"kind":"timed_out"}}"#,
            r#"{"rec":"commit","epoch":3,"state_crc":4294967295}"#,
            r#"{"rec":"gremlin"}"#,
            r#"{"rec":"commit","epoch":3}"#,
            r#"{"kind":"begin"}"#,
            PRETTY_BEGIN,
        ],
    );
    let mut requests = REQUESTS[..5].to_vec();
    requests.extend([r#"{"type":"gremlin"}"#, r#"{"type":"submit","tasks":[]}"#, r#"{"id":"00"}"#]);
    add("Request", &requests);
    let rejected: Vec<String> = ["queue_full", "budget_expired", "batch_too_large", "unknown_task_type"]
        .iter()
        .map(|name| {
            format!(
                r#"{{"type":"rejected","id":"ffffffffffffffff","reason":"{name}","retry_after_ms":120}}"#
            )
        })
        .collect();
    add("Response", &rejected.iter().map(String::as_str).collect::<Vec<_>>());
    add(
        "Response",
        &[
            r#"{"type":"accepted","id":"00000000000000a1","epoch":17,"duplicate":false}"#,
            STATS,
            r#"{"type":"pong"}"#,
            r#"{"type":"shutting_down"}"#,
            r#"{"type":"error","message":"bad line"}"#,
            r#"{"type":"gremlin"}"#,
            r#"{"type":"accepted","id":"00000000000000a1","epoch":17}"#,
            r#"{"type":"rejected","id":"00000000000000a1","reason":"QueueFull","retry_after_ms":1}"#,
            r#"{"type":"stats"}"#,
        ],
    );
    let after = SCHEDULER
        .replace(r#""count":[[3,0]]"#, r#""count":[[4,0]]"#)
        .replace(r#""busy_until":[1.5,0]"#, r#""busy_until":[2.5,0]"#)
        .replace(r#""busy_time":[1.5,0]"#, r#""busy_time":[2,0]"#);
    add(
        "DynamicScheduler",
        &[
            SCHEDULER,
            &SCHEDULER.replace("null", r#""never""#),
            &SCHEDULER.replace("null", "{}"),
            &SCHEDULER.replace(r#""service":[[0.5,null]],"#, ""),
            &after,
        ],
    );

    // The service state `encoding_golden` reads: one epoch on a small room.
    let dc = ScenarioParams::small_test().build(7).expect("scenario");
    let plan = Solver::new(&dc).solve().expect("plan");
    let mut engine = ServiceEngine::new(dc, ServiceConfig::default(), &plan.pstates, &plan.stage3);
    let batches = [Batch { id: u64::MAX, tasks: vec![(0, 2)] }, Batch { id: 7, tasks: vec![(1, 1)] }];
    engine.step(&batches, &ReplanVerdict::NotAttempted);
    let json = serde_json::to_string(engine.state()).expect("encode");
    out.push(("ServiceState", json.replace(r#""ffffffffffffffff""#, "7")));
    out.push(("ServiceState", json.replace(r#""recent_ids""#, r#""recent""#)));
    out.push(("ServiceState", json));
    out
}

/// Shapes a writer here never produces and a reader must still judge.
fn hand_shapes() -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> = Vec::new();
    let mut add = |name: &'static str, literals: &[&str]| {
        out.extend(literals.iter().map(|l| (name, l.to_string())));
    };
    // Duplicate keys: the first one is the member.
    add(
        "Curve",
        &[
            r#"{"kind":"constant","rate":1,"rate":"x"}"#,
            r#"{"kind":"constant","rate":"x","rate":1}"#,
            r#"{"kind":"constant","kind":"gremlin","rate":1}"#,
            r#"{"kind":"gremlin","kind":"constant","rate":1}"#,
            r#"{"kind":"constant","rate":1,"rate":[1,}"#,
        ],
    );
    add(
        "Batch",
        &[
            r#"{"id":"00000000000000a1","tasks":[],"id":7}"#,
            r#"{"id":7,"tasks":[],"id":"00000000000000a1"}"#,
            r#"{"tasks":[[1,2]],"id":"00000000000000a1","tasks":"x"}"#,
        ],
    );
    add(
        "Request",
        &[
            r#"{"type":"submit","id":"00000000000000a1","tasks":[],"budget_ms":"x","budget_ms":5}"#,
            r#"{"type":"submit","id":"00000000000000a1","tasks":[],"budget_ms":-3}"#,
            r#"{"type":"submit","id":"00000000000000a1","tasks":[],"budget_ms":2.5}"#,
            r#"{"type":"submit","id":"00000000000000a1","tasks":[],"budget_ms":null}"#,
            r#"{"type":"submit","id":"00000000000000a1","tasks":[],"budget_ms":1e999}"#,
            r#"{"type":"submit","id":"00000000000000a1","tasks":[],"budget_ms":[1,]}"#,
            r#"{"type":"ping","type":"gremlin"}"#,
            r#"{"type":"ping","id":7,"tasks":"none"}"#,
            r#"{"type":"submit","id":"+a1","tasks":[]}"#,
            r#"{"type":"submit","id":"","tasks":[]}"#,
            r#"{"type":7}"#,
            r#""ping""#,
        ],
    );
    add(
        "EventLog",
        &[
            r#"{"events":[],"capacity":"big","dropped":-1}"#,
            r#"{"events":[],"capacity":5,"capacity":"x","dropped":3}"#,
            r#"{"events":[],"capacity":2.5,"dropped":1.5}"#,
            r#"{"events":[],"capacity":1e999}"#,
            r#"{"events":[],"dropped":{"a":[}}"#,
            r#"{"events":[{"at_s":2,"kind":{"kind":"no_steady_state"}},{"at_s":1,"kind":{"kind":"no_steady_state"}}],"capacity":1}"#,
            r#"{"events":[{"at_s":"NaN","kind":{"kind":"no_steady_state"}}]}"#,
            r#"{"capacity":4}"#,
        ],
    );
    add("Value", &[r#"{"a":1,"a":2,"b":{"a":[],"a":{}}}"#]);
    // A tag key after the fields it selects.
    add(
        "Curve",
        &[
            r#"{"rate":1,"kind":"constant"}"#,
            r#"{"rate":[1,,"kind":"constant"}"#,
            r#"{"rate":1,"kind":"constant","rate":[}"#,
            r#"{"kind":5,"rate":1}"#,
            r#"{"rate":1}"#,
        ],
    );
    add(
        "EventKind",
        &[
            r#"{"node":2,"inlet_c":29.5,"kind":"node_tripped"}"#,
            r#"{"action":{"steps":2,"kind":"throttle"},"kind":"action_taken"}"#,
        ],
    );
    add("ServiceRecord", &[r#"{"epoch":3,"state_crc":1,"rec":"commit"}"#]);
    // Tags of the removed chip-level rung: unknown variants now.
    add(
        "Violation",
        &[r#"{"kind":"chip_hotspot","observed_c":91}"#, r#"{"kind":"chip_hotspot","observed_c":"NaN"}"#],
    );
    add("Action", &[r#"{"kind":"migrate","swaps":3}"#]);
    let stats_last = STATS.replacen(r#""type":"stats","#, "", 1).replacen('}', r#"},"type":"stats""#, 1);
    add("Response", &[&stats_last]);
    add(
        "DynamicScheduler",
        &[
            &SCHEDULER.replace(r#""atc_tc""#, r#"{"tau_s":2,"kind":"atc_tc_windowed"}"#),
            &SCHEDULER.replace(r#""atc_tc""#, r#"{"kind":"atc_tc_windowed","tau_s":2}"#),
            &SCHEDULER.replace(r#""atc_tc""#, r#"{"kind":"gremlin","tau_s":2}"#),
            &SCHEDULER.replace(r#""atc_tc""#, r#"{"tau_s":2}"#),
            &SCHEDULER.replace(r#""atc_tc""#, r#""least_loaded""#),
            &SCHEDULER.replace(r#""atc_tc""#, r#""gremlin""#),
            &SCHEDULER.replace(r#""atc_tc""#, "7"),
            &SCHEDULER.replace(r#""plan_start":0"#, r#""plan_start":0,"order":[1]"#),
            &SCHEDULER.replace(r#""plan_start":0"#, r#""plan_start":0,"order":1e999"#),
            &SCHEDULER.replace("[[0.5,null]]", "[[0.5,null,3]]"),
            &SCHEDULER.replace("[[0.5,null]]", r#"[[0.5,"inf"]]"#),
        ],
    );
    // Unknown members: skipped, but read all the same.
    add(
        "Curve",
        &[
            r#"{"kind":"constant","rate":1,"junk":1e999}"#,
            r#"{"kind":"constant","rate":1,"junk":{"deep":[-1e999]}}"#,
            r#"{"junk":1e999,"kind":"constant","rate":1}"#,
            r#"{"kind":"constant","rate":1,"junk":[1e308,"é",{"":null}]}"#,
            r#"{"kind":"constant","rate":1,"junk":tru}"#,
            r#"{"kind":"constant","rate":1,"junk":"\x"}"#,
        ],
    );
    // Escapes, in keys and in values (`%` stands for backslash-u).
    let escaped = |text: &str| text.replace('%', "\\u");
    for (name, text) in [
        ("Curve", r#"{"%006bind":"constant","rate":1}"#),
        ("Curve", r#"{"kind":"%0063onstant","rate":1}"#),
        ("Curve", r#"{"kind":"constant","%0072ate":1,"rate":2}"#),
        ("Curve", r#"{"kind":"constant","rate":1,"j%00e9":"%d83d"}"#),
        ("Curve", r#"{"kind":"constant","rate":1,"%":1}"#),
        ("Curve", r#"{"kind":"constant","rate":1,"%00":1}"#),
        ("Curve", r#"{"kind":"constant","rate":1,"%zzzz":1}"#),
        ("String", r#""%00e9\n\t\"\\\/\b\f\r%0001""#),
        ("String", r#""%12""#),
        ("String", r#""%d83d""#),
        ("String", r#""%0000""#),
        ("String", "\"raw\ncontrol\""),
        ("String", r#""plain""#),
        ("String", r#""unterminated"#),
        ("String", r#""x" "y""#),
        ("String", r#""bad \q escape""#),
        ("Request", r#"{"%0074ype":"ping"}"#),
        ("Request", r#"{"type":"p%0069ng"}"#),
        ("Request", r#"{"type":"submit","%0069d":"00000000000000a1","tasks":[]}"#),
        ("Request", r#"{"type":"submit","id":"%0030%00300000000000000a1","tasks":[]}"#),
        ("Value", r#"{"%0061":"%00e9","b":["%0041"]}"#),
    ] {
        out.push((name, escaped(text)));
    }
    let mut add = |name: &'static str, literals: &[&str]| {
        out.extend(literals.iter().map(|l| (name, l.to_string())));
    };
    // Primitives at their edges.
    add("f64", &["1.7976931348623157e308", "2e308", "1e-999", "-0", "01", "1.", "-", "1e", r#""inf""#, "null", " 1 "]);
    add("u64", &["18446744073709552000", "18446744073709556000", "-1", "1.5", "0", "1e3", r#""1""#]);
    add("Vec<f64>", &["[]", "[1,2]", "[1,]", "[,]", "[1 2]", r#"["inf",null]"#, r#"["inf","-inf"]"#]);
    add("Option<f64>", &["null", "1", "nul", "[]"]);
    add("(usize, usize)", &["[1,2]", "[1]", "[1,2,3]", "[1,2,", "{}"]);
    // Nesting around the bound: a value inside 128 containers is too deep.
    for depth in 125..=129 {
        out.push(("Value", nested(depth, "")));
        out.push(("Value", nested(depth, "1")));
        out.push(("Value", format!("{}1{}", r#"{"a":"#.repeat(depth), "}".repeat(depth))));
        out.push(("Curve", format!(r#"{{"kind":"constant","rate":1,"junk":{}}}"#, nested(depth, ""))));
        out.push(("Curve", format!(r#"{{"junk":{},"kind":"constant","rate":1}}"#, nested(depth, "0"))));
        out.push(("Vec<f64>", nested(depth, "")));
        out.push(("Request", format!(r#"{{"type":"ping","junk":{}}}"#, nested(depth, "null"))));
    }
    out
}

fn service_state_40() -> String {
    let dc = ScenarioParams { n_nodes: 40, n_crac: 2, crac_flow_margin: 1.5, ..ScenarioParams::paper(0.2, 0.3) }
        .build(1)
        .expect("scenario");
    let plan = Solver::new(&dc).solve().expect("plan");
    let mut engine = ServiceEngine::new(dc, ServiceConfig::default(), &plan.pstates, &plan.stage3);
    for epoch in 0..6u64 {
        let tasks = engine
            .dc()
            .workload
            .task_types
            .iter()
            .enumerate()
            .map(|(i, t)| (i, (t.arrival_rate * 2.1) as usize))
            .collect();
        let verdict = if epoch >= 2 {
            ReplanVerdict::Failed { error: "scripted solver outage".into() }
        } else {
            ReplanVerdict::NotAttempted
        };
        engine.step(&[Batch { id: (epoch + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15), tasks }], &verdict);
    }
    serde_json::to_string(engine.state()).expect("encode")
}

fn fleet_state() -> String {
    let fleet = Arc::new(Fleet::build(&FleetParams::small(2, 5, 17), 50.0).expect("fleet"));
    let cfg = FleetConfig { pool: PoolConfig { threads: 2, retries: 1, ..PoolConfig::default() }, ..FleetConfig::default() };
    let mut solver = FleetSolver::new(Arc::clone(&fleet), cfg);
    solver.replan(None);
    let mut script = ChaosScript::new();
    script.inject_persistent(1, 1, 8, thermaware::shard::Fault::Error);
    solver.replan(Some(&script));
    serde_json::to_string(&solver.to_state()).expect("encode")
}

/// `(type, accepted, refused, digest)`, as the tree reader (text →
/// `Value` → typed value) computed them. The `Violation` and `Action`
/// rows were re-pinned when the chip-level variants were removed: their
/// three literals moved to the hand shapes, where they are refused. The
/// `Value`, `ServiceRecord`, `ServiceState` and `ServiceHeader` rows were
/// re-pinned when the supervisor's own checkpoint trail (and its
/// fixture) left the tree and a supervised service store took that
/// fixture's place: 3 accepted `Value`s more, 9 accepted and 6 refused
/// journal lines fewer (the old fixture's lines were read as service
/// records too), one state and one header more; the supervisor-state,
/// run-header and supervisor-config rows went with the trail. No other
/// row moved.
const PINS: &[(&str, usize, usize, u32)] = &[
    ("Value", 1879, 2697, 0x66244a70),
    ("String", 4, 5, 0x16832955),
    ("f64", 7, 4, 0x76848414),
    ("u64", 3, 4, 0x87649be2),
    ("Vec<f64>", 3, 9, 0x6d1e6c5e),
    ("Option<f64>", 2, 2, 0xa0792116),
    ("(usize, usize)", 1, 4, 0x9976828b),
    ("LpError", 8, 8, 0x15904ebc),
    ("SolveError", 10, 6, 0xd28365a7),
    ("Curve", 18, 27, 0xd6a3c9af),
    ("Fault", 10, 6, 0x9abc3a75),
    ("FaultEvent", 2, 0, 0x85bee0b2),
    ("Violation", 10, 14, 0x3a0d9a15),
    ("Action", 10, 7, 0x433a89dd),
    ("EventKind", 22, 8, 0x7e23d270),
    ("Event", 2, 0, 0xb9a4b0f2),
    ("EventLog", 8, 4, 0x362876a2),
    ("ReplanVerdict", 8, 6, 0x738eaad8),
    ("Batch", 4, 7, 0xef29bde0),
    ("ServiceRecord", 462, 3071, 0xc2b165ca),
    ("Request", 187, 882, 0x5c483165),
    ("Response", 19, 8, 0xbc09f21d),
    ("DynamicScheduler", 10, 11, 0xcd302ead),
    ("ServiceState", 124, 271, 0xac5e1929),
    ("ServiceHeader", 2, 0, 0xb00efd02),
    ("FleetState", 183, 590, 0x9a7ed0aa),
];

#[test]
fn the_reader_judges_every_input_as_before() {
    let mut corpus = Corpus::new();
    fixtures(&mut corpus);
    for (name, literal) in golden_literals().iter().chain(&hand_shapes()) {
        corpus.feed(&[name], literal);
    }
    for (name, literal) in golden_literals().iter().filter(|(_, l)| l.len() < 400) {
        corpus.feed(&[name], &spaced(literal));
    }

    let service = state_of(&fixture("service_store/snap-00000008.json"));
    corpus.feed(&["ServiceState"], &spaced(&service));
    let state_40 = service_state_40();
    assert!(state_40.len() > 400_000, "a 40-node state is {} bytes", state_40.len());
    corpus.feed(&["ServiceState", "Value"], &state_40);
    corpus.feed_mutants(&["ServiceState"], &state_40, state_40.len() / 96);
    let fleet = fleet_state();
    corpus.feed(&["FleetState"], &fleet);
    corpus.feed_mutants(&["FleetState"], &fleet, 7);
    for payload in journal_payloads(&fixture("service_store/journal.jsonl")) {
        corpus.feed_mutants(&["ServiceRecord", "Value"], &payload, 3);
    }
    for request in REQUESTS {
        corpus.feed_mutants(&["Request", "Value"], request, 1);
    }

    let got: Vec<(&str, usize, usize, u32)> =
        corpus.tallies.iter().map(|t| (t.name, t.ok, t.err, crc32(&t.log))).collect();
    let table: String = got
        .iter()
        .map(|(name, ok, err, digest)| format!("    ({name:?}, {ok}, {err}, {digest:#010x}),\n"))
        .collect();
    assert_eq!(got, PINS, "\nconst PINS: &[(&str, usize, usize, u32)] = &[\n{table}];");
}
