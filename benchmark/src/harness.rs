//! The measuring loop every workload runs through.
//!
//! One process measures one workload, closed loop: the next operation
//! starts when the previous one has returned. Inputs are generated from
//! the seed before the clock starts and outputs are checked after it has
//! stopped, so only the call into the program is timed.
//!
//! Two kinds of run, chosen by `--trace`:
//!
//! * **untraced** (`--trace 0`): no recorder is installed, the program's
//!   instrumentation points are one relaxed load each. Yields the
//!   end-to-end metrics.
//! * **traced** (`--trace 1`): operations come in pairs on the same
//!   input, one half without and one with a `MemoryRecorder` installed.
//!   The traced halves yield the per-layer metrics, the untraced halves
//!   the reference for `bench.trace_overhead_pct`, and where the output
//!   is a function of the input the two halves must agree on it.
//!
//! # Calibrated time
//!
//! The boxes this runs on are shared: the same solve takes 0.75 s or
//! 2.1 s depending on what the neighbours do, the speed changes within
//! seconds and stays changed for minutes, and the slowdown is in
//! execution speed (thread CPU time grows with wall time), so neither a
//! median nor a CPU clock removes it. What does is a fixed calibration
//! kernel ([`kernel`]) run beside the operations: every timed section is
//! divided by the kernel time measured just before and just after it and
//! multiplied by [`NOMINAL_KERNEL_S`]. All end-to-end times are therefore
//! in seconds *of a machine on which the kernel takes 10 ms*. On eighteen
//! back-to-back 22-operation runs of one `room_plan` input during a noisy
//! spell this cut the quartile spread of the run medians from 27 % to 6 %.
//! Span times in the per-layer metrics stay raw; `bench.calibration_ms`
//! gives the kernel time of the run to convert them.

use crate::alloc::{self, AllocCount};
use crate::selftime::{self_times, SelfTime};
use crate::stats::{mean, median, tail};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use thermaware::obs::{self, MemoryRecorder, MetricsSnapshot, SpanRecord};

/// Set-up is repeated this often, each time for another input;
/// `setup_s` is the median, which neither one slow repeat nor one odd
/// input moves much.
const SETUP_REPS: usize = 15;

/// Name of the span the harness opens around every timed operation.
pub const OP_SPAN: &str = "bench.op";

/// Kernel time that defines the unit of calibrated time.
pub const NOMINAL_KERNEL_S: f64 = 0.010;

/// A timed section starts with a fresh calibration sample when the last
/// one is older than this, and ends with one under the same rule: long
/// operations get a sample on either side, short ones (a service epoch is
/// 20 ms) share samples and spend a tenth of the time calibrating.
const CALIBRATE_EVERY_S: f64 = 0.1;

/// The calibration kernel: fixed single-threaded work with the program's
/// own mix of allocation, streaming writes and strided reads over vectors
/// of `f64` that fit the L2 cache. About 9 ms on the quiet box.
pub fn kernel() -> f64 {
    const N: usize = 20_000;
    let mut acc = 0.0;
    for round in 0..40 {
        let a: Vec<f64> = (0..N).map(|i| (i + round) as f64 * 0.5).collect();
        let mut b = vec![0.0; N];
        for k in 0..8 {
            for i in 0..N {
                b[i] = a[i] * 1.000_000_1 + b[(i * 7 + k) % N] * 0.5;
            }
        }
        acc += b.iter().sum::<f64>();
    }
    acc
}

/// One timed section.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// When it started, seconds on the run's clock.
    pub start_s: f64,
    /// Wall time, seconds (raw).
    pub secs: f64,
    /// Heap requested meanwhile.
    pub alloc: AllocCount,
}

/// The run's stopwatch: wall clock, allocation counters, calibration
/// samples and, on a traced operation, the recorder and the `bench.op`
/// span. The recorder is installed for the timed section only, so what
/// the harness does around it (building inputs, checking outputs) leaves
/// no spans and moves no counters.
pub struct Clock {
    epoch: Instant,
    /// `(when it began, kernel seconds)`, in time order.
    samples: Vec<(f64, f64)>,
    trace: Option<Arc<MemoryRecorder>>,
}

impl Default for Clock {
    fn default() -> Clock {
        let mut clock = Clock {
            epoch: Instant::now(),
            samples: Vec::new(),
            trace: None,
        };
        clock.calibrate();
        clock
    }
}

impl Clock {
    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn calibrate(&mut self) {
        let began = self.now_s();
        let t = Instant::now();
        std::hint::black_box(kernel());
        self.samples.push((began, t.elapsed().as_secs_f64()));
    }

    fn calibrate_if_stale(&mut self) {
        if self
            .samples
            .last()
            .is_none_or(|&(began, _)| self.now_s() - began > CALIBRATE_EVERY_S)
        {
            self.calibrate();
        }
    }

    /// The recorder of the operation at hand when it is a traced one.
    pub fn recorder(&self) -> Option<Arc<MemoryRecorder>> {
        self.trace.clone()
    }

    /// Make the operations that follow traced ones (`Some`) or not.
    pub fn set_recorder(&mut self, recorder: Option<Arc<MemoryRecorder>>) {
        self.trace = recorder;
    }

    /// Time `f` as the operation: under the recorder and the `bench.op`
    /// span when the operation is a traced one.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let recorder = self.trace.clone();
        self.time_with(recorder, f)
    }

    /// Time `f` beside the operation (set-up, recovery): never recorded.
    pub fn time_aside<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        self.time_with(None, f)
    }

    fn time_with<T>(
        &mut self,
        recorder: Option<Arc<MemoryRecorder>>,
        f: impl FnOnce() -> T,
    ) -> (T, Timing) {
        self.calibrate_if_stale();
        let install = recorder.map(|rec| obs::install(rec));
        let alloc = AllocCount::now();
        let span = obs::span(OP_SPAN);
        let start_s = self.now_s();
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        // Counted before the span closes: recording it allocates.
        let alloc = AllocCount::since(alloc);
        drop(span);
        drop(install);
        self.calibrate_if_stale();
        (
            out,
            Timing {
                start_s,
                secs,
                alloc,
            },
        )
    }

    /// `t.secs` at nominal machine speed: divided by the mean of the last
    /// kernel time before the section and the first after it, times
    /// [`NOMINAL_KERNEL_S`]. Call after a final [`Clock::calibrate`].
    fn calibrated_s(&self, t: &Timing) -> f64 {
        let after_at = self
            .samples
            .partition_point(|&(began, _)| began < t.start_s + t.secs);
        let before_at = self.samples[..after_at].partition_point(|&(began, _)| began <= t.start_s);
        let before = self.samples[before_at.saturating_sub(1)].1;
        let after = self.samples.get(after_at).map_or(before, |s| s.1);
        t.secs * NOMINAL_KERNEL_S / (0.5 * (before + after))
    }
}

/// What one operation did.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpResult {
    /// The call into the program.
    pub op: Timing,
    /// Time that counts against throughput but is not part of the
    /// operation's latency (journal recovery on `service_surge`).
    pub extra: Option<Timing>,
    /// Work units completed (nodes planned, arrivals dispatched, …).
    pub work: f64,
    /// The call returned an error or its output failed a check.
    pub failed: bool,
    /// Reward obtained and reward offered, same unit.
    pub reward: f64,
    pub offered: f64,
}

/// Everything a traced run collected, handed to the workload to turn
/// into its layers' metrics.
pub struct TraceData {
    /// Counters, gauges and histograms the program emitted.
    pub snapshot: MetricsSnapshot,
    /// Every span recorded, program spans and harness spans alike.
    pub spans: Vec<SpanRecord>,
    /// Self time per span name.
    pub self_times: BTreeMap<&'static str, SelfTime>,
    /// Traced operations run.
    pub ops: usize,
}

impl TraceData {
    /// A counter's total per traced operation.
    pub fn counter_per_op(&self, name: &str) -> f64 {
        self.snapshot.counter(name) as f64 / self.ops as f64
    }

    /// A histogram's `(count, sum)`, zeros when the series is absent.
    pub fn hist(&self, name: &str) -> (f64, f64) {
        self.snapshot
            .histogram(name)
            .map_or((0.0, 0.0), |h| (h.count as f64, h.sum))
    }

    /// Total duration of the spans named `name` per traced operation, ms.
    pub fn span_ms_per_op(&self, name: &str) -> f64 {
        self.self_times
            .get(name)
            .map_or(0.0, |s| s.total_us as f64 / 1e3 / self.ops as f64)
    }

    /// Median duration of the spans named `name`, ms; 0 when none ran.
    pub fn span_p50_ms(&self, name: &str) -> f64 {
        let ms: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us as f64 / 1e3)
            .collect();
        median(&ms)
    }
}

/// One benchmark workload. `Size` separates what is measured (`FULL`,
/// fixed in each workload's module) from the toy sizes the tests drive.
pub trait Workload: Sized {
    type Size;

    /// Operations whose deterministic outputs define `reward_frac` and
    /// `alloc_mb_per_op`; a run never stops before it has done them, so
    /// those two metrics do not depend on how many operations fit into
    /// `--seconds`.
    fn det_ops(size: &Self::Size) -> usize;

    /// Generate input number `input` from the seed and bring the program
    /// to the state an operation on it needs. Timed as `setup_s`.
    fn setup(seed: u64, size: &Self::Size, input: usize) -> Self;

    /// Run operation number `input` on the input of that number, which
    /// the workload generates from the seed before it starts the clock
    /// (the two halves of a traced pair share one). The call into the
    /// program goes through [`Clock::time`]; when the clock has a
    /// recorder the workload also opens its spans around the calls into
    /// each layer.
    fn op(&mut self, input: usize, clock: &mut Clock) -> OpResult;

    /// Per-layer metrics by declared name; names a workload leaves out
    /// read 0.
    fn layers(&self, trace: &TraceData) -> Vec<(&'static str, f64)>;
}

/// The outcome of a run, ready to print.
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value)` of every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64)>,
    /// Raw (uncalibrated) readings, for the human reader.
    pub note: String,
    /// The spans of a traced run, for the trace file.
    pub spans: Vec<SpanRecord>,
}

impl Report {
    /// The metric called `name`, when the run reported it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Measure `W` for about `seconds` seconds (and at least its
/// deterministic prefix).
pub fn run<W: Workload>(size: &W::Size, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut clock = Clock::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut w = None;
    for input in 0..SETUP_REPS {
        drop(w.take()); // one instance alive at a time
        let (built, timing) = clock.time_aside(|| W::setup(seed, size, input));
        w = Some(built);
        setups.push(timing);
    }
    let mut w = w.expect("SETUP_REPS >= 1");

    // Warm-up: the first operation pays for cold caches and lazy
    // initialisation and is discarded. It runs on the input the last
    // set-up prepared; the measured inputs follow it.
    let warm = w.op(SETUP_REPS - 1, &mut clock);
    let mut failed = usize::from(warm.failed);
    let mut attempted = 1;

    let rec = Arc::new(MemoryRecorder::new());
    let det_inputs = if traced {
        W::det_ops(size).div_ceil(4)
    } else {
        W::det_ops(size)
    };
    let mut plain: Vec<OpResult> = Vec::new();
    let mut with_trace: Vec<OpResult> = Vec::new();
    let begin = Instant::now();
    let mut input = SETUP_REPS;
    while input < SETUP_REPS + det_inputs || begin.elapsed().as_secs_f64() < seconds {
        // The second operation of a pair finds warm caches, so the pairs
        // take turns in which half goes first.
        let traced_first = traced && input % 2 == 1;
        if !traced_first {
            plain.push(w.op(input, &mut clock));
        }
        if traced {
            clock.set_recorder(Some(rec.clone()));
            with_trace.push(w.op(input, &mut clock));
            clock.set_recorder(None);
        }
        if traced_first {
            plain.push(w.op(input, &mut clock));
        }
        input += 1;
    }
    clock.calibrate();
    attempted += plain.len() + with_trace.len();
    failed += plain.iter().chain(&with_trace).filter(|r| r.failed).count();

    let kernel_ms = median(&clock.samples.iter().map(|s| s.1 * 1e3).collect::<Vec<_>>());
    let raw_ms = median(&plain.iter().map(|r| r.op.secs * 1e3).collect::<Vec<_>>());
    let note = format!(
        "raw op p50 {raw_ms:.3} ms over {} operations; calibration kernel p50 {kernel_ms:.3} ms \
         over {} samples (calibrated time = raw x {:.0} ms / kernel)",
        plain.len(),
        clock.samples.len(),
        NOMINAL_KERNEL_S * 1e3,
    );
    let det = &plain[..det_inputs];
    let (metrics, spans) = if traced {
        let recorded = rec.spans();
        let trace = TraceData {
            snapshot: rec.snapshot(),
            self_times: self_times(&recorded),
            spans: recorded,
            ops: with_trace.len(),
        };
        let metrics = layer_metrics(&w, &clock, &trace, det, &plain, &with_trace, kernel_ms);
        (metrics, trace.spans)
    } else {
        let metrics = end_to_end_metrics(&clock, &setups, det, &plain, attempted, failed);
        (metrics, Vec::new())
    };
    Report {
        attempted,
        failed,
        metrics,
        note,
        spans,
    }
}

/// Calibrated seconds of each operation.
fn op_secs(clock: &Clock, ops: &[OpResult]) -> Vec<f64> {
    ops.iter().map(|r| clock.calibrated_s(&r.op)).collect()
}

/// `det` is the deterministic prefix of `ops` (see [`Workload::det_ops`]).
fn end_to_end_metrics(
    clock: &Clock,
    setups: &[Timing],
    det: &[OpResult],
    ops: &[OpResult],
    attempted: usize,
    failed: usize,
) -> Vec<(&'static str, f64)> {
    let setup_secs: Vec<f64> = setups.iter().map(|t| clock.calibrated_s(t)).collect();
    let secs = op_secs(clock, ops);
    let extra: f64 = ops
        .iter()
        .filter_map(|r| r.extra.as_ref())
        .map(|t| clock.calibrated_s(t))
        .sum();
    let work: f64 = ops.iter().map(|r| r.work).sum();
    let over_det = |f: fn(&OpResult) -> f64| det.iter().map(f).sum::<f64>();
    vec![
        ("setup_s", median(&setup_secs)),
        ("op_p50_ms", median(&secs) * 1e3),
        ("work_per_s", work / (secs.iter().sum::<f64>() + extra)),
        ("ok_frac", 1.0 - failed as f64 / attempted as f64),
        (
            "reward_frac",
            over_det(|r| r.reward) / over_det(|r| r.offered),
        ),
        (
            "alloc_mb_per_op",
            over_det(|r| r.op.alloc.bytes as f64) / det.len() as f64 / 1e6,
        ),
        ("peak_live_mb", alloc::peak_live_bytes() as f64 / 1e6),
    ]
}

/// The workload's layers plus the harness's own `bench.*` layer.
fn layer_metrics<W: Workload>(
    w: &W,
    clock: &Clock,
    trace: &TraceData,
    det: &[OpResult],
    plain: &[OpResult],
    with_trace: &[OpResult],
    kernel_ms: f64,
) -> Vec<(&'static str, f64)> {
    let traced_secs = op_secs(clock, with_trace);
    let (tail_pct, tail_s) = tail(&traced_secs);
    let mut m = w.layers(trace);
    m.extend([
        ("bench.ops", with_trace.len() as f64),
        ("bench.op_tail_ms", tail_s * 1e3),
        ("bench.tail_pct", tail_pct),
        (
            "bench.allocs_per_op",
            mean(
                &det.iter()
                    .map(|r| r.op.alloc.calls as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "bench.trace_overhead_pct",
            100.0 * (median(&traced_secs) / median(&op_secs(clock, plain)) - 1.0),
        ),
        ("bench.calibration_ms", kernel_ms),
    ]);
    m
}
