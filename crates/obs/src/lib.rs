//! # thermaware-obs — observability for the solver stack
//!
//! Structured tracing and metrics for every layer of the workspace:
//! hierarchical RAII span timers, monotonic counters, gauges, and
//! log-scale histograms, delivered to a pluggable [`Recorder`] sink.
//!
//! ## Design constraints
//!
//! - **std plus the vendored codec.** This crate sits below everything
//!   else in the workspace graph (even `thermaware-lp` instruments
//!   through it), so it depends on no workspace crate — only `std` and
//!   the vendored `serde` / `serde_json` path crates, whose writer
//!   prints the JSONL trace.
//! - **Zero overhead when off.** Instrumentation points call the free
//!   functions below. With no recorder installed, each call is a single
//!   relaxed atomic load — no clock read, no allocation, no thread-local
//!   traffic. The `obs_bench` harness in `thermaware-bench` holds this to
//!   within 2% of un-instrumented wall time.
//! - **Infallible recording.** [`Recorder`] methods return `()`. Sink
//!   failures (e.g. a full disk under [`JsonlRecorder`]) are latched and
//!   reported once at [`JsonlRecorder::finish`]; solver code never
//!   branches on observability health.
//!
//! ## Sinks
//!
//! | Sink | Use |
//! |------|-----|
//! | disabled (default) | production hot paths; near-zero cost |
//! | [`MemoryRecorder`] | tests and benches; everything inspectable |
//! | [`JsonlRecorder`] | trace files for `results/`; one JSON object per line |
//!
//! ## Usage
//!
//! ```
//! use std::sync::Arc;
//!
//! let rec = Arc::new(thermaware_obs::MemoryRecorder::new());
//! {
//!     let _install = thermaware_obs::install(rec.clone());
//!     let _outer = thermaware_obs::span("solve");
//!     {
//!         let _inner = thermaware_obs::span("stage1");
//!         thermaware_obs::counter_add("lp.solves", 1);
//!         thermaware_obs::observe("lp.iterations", 17.0);
//!     }
//! } // recorder uninstalled here; `solve` closed before that
//!
//! let spans = rec.spans();
//! assert_eq!(spans[0].path, "solve/stage1"); // children close first
//! assert_eq!(spans[1].path, "solve");
//! assert_eq!(rec.snapshot().counter("lp.solves"), 1);
//! ```
//!
//! Installation is process-global (instrumented code as deep as the
//! simplex pivot loop has no recorder parameter to thread through) and
//! scoped: [`install`] returns an [`InstallGuard`] that restores the
//! previously installed recorder on drop, so nested scopes and tests
//! compose. Tests that install recorders must not run concurrently with
//! each other's instrumented sections — the integration tests serialize
//! through a mutex for this.

mod hist;
mod json;
mod jsonl;
mod memory;
mod recorder;
mod registry;
mod span;

pub use hist::{bucket_index, bucket_upper_edge, HistogramSummary, LogHistogram, N_BUCKETS};
pub use jsonl::{JsonlRecorder, TRACE_FORMAT_VERSION};
pub use memory::MemoryRecorder;
pub use recorder::{NoopRecorder, Recorder};
pub use registry::MetricsSnapshot;
pub use span::{SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Fast-path flag: true iff a recorder is installed. Checked with a
/// relaxed load before anything else happens at an instrumentation point.
static ENABLED: AtomicBool = AtomicBool::new(false);

static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Whether a recorder is currently installed. Instrumentation sites can
/// use this to skip *computing* an expensive observation (the recording
/// calls themselves already self-gate).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install `rec` as the process-global recorder, returning a guard that
/// restores the previous state (including "none") on drop.
///
/// Spans that are open across an install/uninstall still record to
/// whatever recorder is installed when they *close*.
pub fn install(rec: Arc<dyn Recorder>) -> InstallGuard {
    let mut slot = RECORDER.write().unwrap_or_else(PoisonError::into_inner);
    let previous = slot.replace(rec);
    ENABLED.store(true, Ordering::Relaxed);
    InstallGuard { previous }
}

/// Restores the recorder that was installed before [`install`] when
/// dropped. Guards nest LIFO; dropping them out of order restores states
/// out of order (harmless but confusing — bind them to scopes).
#[must_use = "dropping the guard immediately uninstalls the recorder"]
pub struct InstallGuard {
    previous: Option<Arc<dyn Recorder>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let mut slot = RECORDER.write().unwrap_or_else(PoisonError::into_inner);
        *slot = self.previous.take();
        ENABLED.store(slot.is_some(), Ordering::Relaxed);
    }
}

/// Run `f` against the installed recorder, if any.
///
/// Hot paths that emit several metrics per event should batch them into
/// one `with_recorder` call: the free functions ([`counter_add`],
/// [`observe`], …) each take the recorder lock, while a single closure
/// pays for it once.
pub fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    if !enabled() {
        return;
    }
    // Clone the Arc out rather than holding the read lock across `f`:
    // a JSONL sink's write under the lock must not serialize against an
    // install/uninstall elsewhere.
    let rec = RECORDER
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    if let Some(rec) = rec {
        f(rec.as_ref());
    }
}

/// Open a hierarchical wall-time span; it records when the guard drops.
/// Inert (no clock read) when no recorder is installed.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if enabled() {
        SpanGuard::enter(name)
    } else {
        SpanGuard::inert()
    }
}

/// Add `delta` to the monotonic counter `name`.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if enabled() {
        with_recorder(|r| r.counter_add(name, delta));
    }
}

/// Set the gauge `name` to `value` (last write wins).
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if enabled() {
        with_recorder(|r| r.gauge_set(name, value));
    }
}

/// Record `value` into the log-scale histogram `name`.
#[inline]
pub fn observe(name: &'static str, value: f64) {
    if enabled() {
        with_recorder(|r| r.observe(name, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Unit tests here mutate the global recorder; serialize them.
    static GLOBAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_by_default_and_restored_in_layers() {
        let _g = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!enabled());
        let outer = Arc::new(MemoryRecorder::new());
        let inner = Arc::new(MemoryRecorder::new());
        {
            let _a = install(outer.clone());
            assert!(enabled());
            counter_add("c", 1);
            {
                let _b = install(inner.clone());
                counter_add("c", 10);
            }
            // Inner uninstalled; outer restored.
            counter_add("c", 2);
        }
        assert!(!enabled());
        counter_add("c", 100); // dropped on the floor
        assert_eq!(outer.snapshot().counter("c"), 3);
        assert_eq!(inner.snapshot().counter("c"), 10);
    }

    #[test]
    fn span_is_inert_when_disabled() {
        let _g = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
        let rec = Arc::new(MemoryRecorder::new());
        {
            let _s = span("ignored");
        }
        {
            let _install = install(rec.clone());
            let _s = span("kept");
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "kept");
        assert_eq!(spans[0].depth, 0);
    }

    #[test]
    fn gauge_and_histogram_roundtrip() {
        let _g = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
        let rec = Arc::new(MemoryRecorder::new());
        {
            let _install = install(rec.clone());
            gauge_set("reward", 88.25);
            for v in [1.0, 2.0, 4.0] {
                observe("lat", v);
            }
        }
        let snap = rec.snapshot();
        assert_eq!(snap.gauges.get("reward"), Some(&88.25));
        let h = snap.histogram("lat").expect("series exists");
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 4.0);
    }
}
