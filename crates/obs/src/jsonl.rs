//! The JSONL trace sink: one JSON object per line, written as events
//! complete, suitable for `results/` artifacts and offline analysis.
//!
//! Line schema (`type` discriminates):
//!
//! ```text
//! {"type":"meta","format":"thermaware-obs-trace","version":1,"clock":"us"}
//! {"type":"span","path":"three_stage/stage1","name":"stage1","depth":1,
//!  "thread":0,"start_us":12,"dur_us":3456}
//! {"type":"counter","name":"lp.solves","value":18}
//! {"type":"gauge","name":"core.reward_rate","value":88.25}
//! {"type":"hist","name":"lp.iterations","count":18,"sum":412.0,
//!  "min":4.0,"max":96.0,"mean":22.9,"p50":32.0,"p95":128.0,"p99":128.0,
//!  "buckets":[[8.0,3],[32.0,9],[128.0,6]]}
//! ```
//!
//! Span lines stream out as spans close; counter/gauge/hist summary
//! lines are written once by [`JsonlRecorder::finish`]. Each line is
//! printed by the vendored `serde_json` writer, so it follows the
//! workspace's encoding conventions (the `serde` crate docs): numbers
//! print as `{}` prints an `f64` — integers exact up to 2^53 — and
//! non-finite numbers are the strings `"inf"`/`"-inf"`/`"NaN"`, in
//! particular the open upper edge of a histogram's last bucket.

use crate::json::{line, member};
use crate::registry::{MetricRegistry, MetricsSnapshot};
use crate::span::SpanRecord;
use crate::Recorder;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Current trace-format version (the `meta` line's `version` field).
pub const TRACE_FORMAT_VERSION: u64 = 1;

fn meta_line() -> String {
    line("meta", |w| {
        member(w, "format", "thermaware-obs-trace");
        member(w, "version", &TRACE_FORMAT_VERSION);
        member(w, "clock", "us");
    })
}

/// `trace.jsonl` + generation 2 → `trace.2.jsonl` (extension preserved
/// so every generation still looks like a JSONL file to tooling).
fn generation_path(path: &Path, gen: usize) -> PathBuf {
    match (path.file_stem().and_then(|s| s.to_str()), path.extension().and_then(|e| e.to_str())) {
        (Some(stem), Some(ext)) => path.with_file_name(format!("{stem}.{gen}.{ext}")),
        _ => {
            let mut name = path.as_os_str().to_os_string();
            name.push(format!(".{gen}"));
            PathBuf::from(name)
        }
    }
}

/// Where span lines go: a plain writer, or a size-rotated file set.
enum Sink {
    Plain(BufWriter<Box<dyn Write + Send>>),
    Rotating {
        path: PathBuf,
        /// Rotate once the active file would exceed this many bytes.
        max_bytes: u64,
        /// Rotated generations to keep (`trace.1.jsonl` … `trace.K.jsonl`).
        keep: usize,
        writer: BufWriter<File>,
        written: u64,
    },
}

impl Sink {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self {
            Sink::Plain(w) => w.write_all(bytes),
            Sink::Rotating { path, max_bytes, keep, writer, written } => {
                if *written > 0 && *written + bytes.len() as u64 > *max_bytes {
                    // Rotate: flush the active file, shift generations
                    // newest-first, start fresh with its own meta header
                    // so every generation parses standalone.
                    writer.flush()?;
                    for gen in (1..*keep).rev() {
                        let from = generation_path(path, gen);
                        if from.exists() {
                            std::fs::rename(&from, generation_path(path, gen + 1))?;
                        }
                    }
                    if *keep > 0 {
                        std::fs::rename(&*path, generation_path(path, 1))?;
                    }
                    *writer = BufWriter::new(File::create(&*path)?);
                    let header = meta_line();
                    writer.write_all(header.as_bytes())?;
                    *written = header.len() as u64;
                    crate::counter_add("obs.trace_rotations", 1);
                }
                *written += bytes.len() as u64;
                writer.write_all(bytes)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Sink::Plain(w) => w.flush(),
            Sink::Rotating { writer, .. } => writer.flush(),
        }
    }
}

/// A [`Recorder`] that streams spans to a JSONL file and summarizes
/// metrics on [`finish`](JsonlRecorder::finish).
pub struct JsonlRecorder {
    out: Mutex<Sink>,
    metrics: MetricRegistry,
    /// First write error, reported by `finish` (span recording itself
    /// has no error channel — the `Recorder` trait is infallible by
    /// design so instrumented code never branches on sink health).
    failed: Mutex<Option<io::Error>>,
}

impl JsonlRecorder {
    /// Create (truncate) a trace file and write the `meta` header line.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlRecorder> {
        Self::from_writer(Box::new(File::create(path)?))
    }

    /// Like [`create`](Self::create), but rotate the file once it
    /// exceeds `max_bytes`: `trace.jsonl` → `trace.1.jsonl` → … →
    /// `trace.<keep>.jsonl`, oldest deleted. A week-long daemon trace
    /// stays bounded at roughly `(keep + 1) × max_bytes` on disk. Each
    /// generation starts with its own `meta` header line.
    pub fn create_rotating(
        path: impl AsRef<Path>,
        max_bytes: u64,
        keep: usize,
    ) -> io::Result<JsonlRecorder> {
        let path = path.as_ref().to_path_buf();
        let mut writer = BufWriter::new(File::create(&path)?);
        let header = meta_line();
        writer.write_all(header.as_bytes())?;
        Ok(JsonlRecorder {
            out: Mutex::new(Sink::Rotating {
                path,
                // Must hold at least a header + one line or rotation spins.
                max_bytes: max_bytes.max(4 * 1024),
                keep,
                writer,
                written: header.len() as u64,
            }),
            metrics: MetricRegistry::default(),
            failed: Mutex::new(None),
        })
    }

    /// Wrap any writer (used by tests to trace into a buffer).
    pub fn from_writer(w: Box<dyn Write + Send>) -> io::Result<JsonlRecorder> {
        let mut out = BufWriter::new(w);
        out.write_all(meta_line().as_bytes())?;
        Ok(JsonlRecorder {
            out: Mutex::new(Sink::Plain(out)),
            metrics: MetricRegistry::default(),
            failed: Mutex::new(None),
        })
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(e) = out.write_all(line.as_bytes()) {
            self.failed
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(e);
        }
    }

    /// Flush buffered span lines to disk without summarizing metrics —
    /// a long-running daemon calls this at epoch boundaries so the trace
    /// tail survives a SIGKILL.
    pub fn flush(&self) -> io::Result<()> {
        self.out
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush()
    }

    /// Write the metric summary lines and flush. Returns the first write
    /// error encountered over the recorder's whole life, so a silently
    /// truncated trace cannot pass for a complete one.
    pub fn finish(&self) -> io::Result<()> {
        let snap = self.metrics.snapshot();
        for (name, value) in &snap.counters {
            self.write_line(&line("counter", |w| {
                member(w, "name", name);
                member(w, "value", value);
            }));
        }
        for (name, value) in &snap.gauges {
            self.write_line(&line("gauge", |w| {
                member(w, "name", name);
                member(w, "value", value);
            }));
        }
        for (name, h) in &snap.histograms {
            self.write_line(&line("hist", |w| {
                member(w, "name", name);
                member(w, "count", &h.count);
                for (key, v) in [
                    ("sum", h.sum),
                    ("min", h.min),
                    ("max", h.max),
                    ("mean", h.mean()),
                    ("p50", h.p50),
                    ("p95", h.p95),
                    ("p99", h.p99),
                ] {
                    member(w, key, &v);
                }
                member(w, "buckets", &h.buckets);
            }));
        }
        let flush_result = self
            .out
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush();
        match self
            .failed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            Some(e) => Err(e),
            None => flush_result,
        }
    }

    /// A point-in-time copy of the metric series (spans are on disk).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

impl Recorder for JsonlRecorder {
    fn record_span(&self, span: &SpanRecord) {
        self.write_line(&line("span", |w| {
            member(w, "path", &span.path);
            member(w, "name", span.name);
            member(w, "depth", &span.depth);
            member(w, "thread", &span.thread);
            member(w, "start_us", &span.start_us);
            member(w, "dur_us", &span.dur_us);
        }));
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.metrics.counter_add(name, delta);
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        self.metrics.gauge_set(name, value);
    }

    fn observe(&self, name: &'static str, value: f64) {
        self.metrics.observe(name, value);
    }
}
