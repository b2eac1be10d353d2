//! Self time per span name from a flat list of completed spans.
//!
//! `thermaware_obs` records spans flat (name, depth, start, duration,
//! thread); the tree is implied by per-thread nesting. A span's self time
//! is its duration minus the part of that interval its direct children
//! cover. Children run on the parent's thread one after another, so the
//! covered part is the sum of their durations. A span another thread
//! recorded is a root there (the obs layer nests per thread) and is never
//! subtracted from anything here: it ran *beside* the parent, not inside
//! it.

use std::collections::BTreeMap;
use thermaware::obs::SpanRecord;

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans recorded under this name.
    pub calls: u64,
    /// Sum of their durations, µs.
    pub total_us: u64,
    /// Sum of their durations minus what their children cover, µs.
    pub self_us: u64,
}

/// Self time per span name. Self times of one thread's spans add up to
/// the durations of that thread's root spans (to the µs the recorder
/// truncates to).
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, SelfTime> {
    let mut by_thread: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        by_thread.entry(s.thread).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for thread_spans in by_thread.values_mut() {
        // Parents before children: earlier start first, and on a tie
        // (µs resolution) the shallower span first.
        thread_spans.sort_by_key(|s| (s.start_us, s.depth));
        // Open ancestors of the span at hand: (depth, µs covered by
        // direct children so far, the span).
        let mut open: Vec<(usize, u64, &SpanRecord)> = Vec::new();
        let mut close = |(_, covered, span): (usize, u64, &SpanRecord)| {
            let e = out.entry(span.name).or_default();
            e.calls += 1;
            e.total_us += span.dur_us;
            e.self_us += span.dur_us.saturating_sub(covered);
        };
        for span in thread_spans.iter() {
            while open
                .last()
                .is_some_and(|&(depth, _, _)| depth >= span.depth)
            {
                close(open.pop().expect("checked non-empty"));
            }
            if let Some(parent) = open.last_mut() {
                parent.1 += span.dur_us;
            }
            open.push((span.depth, 0, span));
        }
        while let Some(top) = open.pop() {
            close(top);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        depth: usize,
        start_us: u64,
        dur_us: u64,
        thread: u64,
    ) -> SpanRecord {
        SpanRecord {
            name,
            path: name.to_string(),
            depth,
            start_us,
            dur_us,
            thread,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // op[0,100) > a[10,60) > b[20,30); a's time is not taken from op twice.
        let spans = [
            span("b", 2, 20, 10, 0),
            span("a", 1, 10, 50, 0),
            span("op", 0, 0, 100, 0),
        ];
        let st = self_times(&spans);
        assert_eq!(st["op"].self_us, 50);
        assert_eq!(st["a"].self_us, 40);
        assert_eq!(st["b"].self_us, 10);
        let total: u64 = st.values().map(|s| s.self_us).sum();
        assert_eq!(total, 100, "self times add up to the root");
    }

    #[test]
    fn siblings_and_repeated_names_accumulate() {
        // Two ops, each with two `lp` children.
        let spans = [
            span("lp", 1, 0, 10, 0),
            span("lp", 1, 10, 15, 0),
            span("op", 0, 0, 40, 0),
            span("lp", 1, 50, 5, 0),
            span("lp", 1, 60, 5, 0),
            span("op", 0, 50, 30, 0),
        ];
        let st = self_times(&spans);
        assert_eq!(
            st["lp"],
            SelfTime {
                calls: 4,
                total_us: 35,
                self_us: 35
            }
        );
        assert_eq!(
            st["op"],
            SelfTime {
                calls: 2,
                total_us: 70,
                self_us: 35
            }
        );
    }

    #[test]
    fn a_span_on_another_thread_is_not_subtracted() {
        // The worker's span lies inside the op's interval in time, but on
        // thread 1 it is a root; the op keeps its whole duration.
        let spans = [span("zone", 0, 10, 80, 1), span("op", 0, 0, 100, 0)];
        let st = self_times(&spans);
        assert_eq!(st["op"].self_us, 100);
        assert_eq!(st["zone"].self_us, 80);
    }

    #[test]
    fn same_microsecond_start_orders_parent_first() {
        let spans = [span("child", 1, 5, 3, 0), span("parent", 0, 5, 3, 0)];
        let st = self_times(&spans);
        assert_eq!(st["parent"].self_us, 0);
        assert_eq!(st["child"].self_us, 3);
    }

    #[test]
    fn orphan_whose_parent_was_not_recorded_is_a_root() {
        let spans = [span("late", 1, 5, 7, 0)];
        assert_eq!(self_times(&spans)["late"].self_us, 7);
    }
}
