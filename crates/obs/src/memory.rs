//! The in-memory sink: everything retained, inspectable afterward.
//! The sink tests, benches, and the overhead harness use it; it is also
//! what `BENCH_obs.json` is rendered from.

use crate::registry::{MetricRegistry, MetricsSnapshot};
use crate::span::SpanRecord;
use crate::Recorder;
use std::sync::{Mutex, PoisonError};

/// A [`Recorder`] that keeps every span and metric in memory.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    spans: Mutex<Vec<SpanRecord>>,
    metrics: MetricRegistry,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> MemoryRecorder {
        MemoryRecorder::default()
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// A point-in-time copy of every counter/gauge/histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

impl Recorder for MemoryRecorder {
    fn record_span(&self, span: &SpanRecord) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span.clone());
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
