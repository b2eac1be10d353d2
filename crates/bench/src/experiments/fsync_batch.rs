//! Durability-cost experiment: what batching journal fsyncs buys.
//!
//! The service daemon acks a batch only after its Begin record is
//! fsynced, so fsync latency is admission latency. `flush_every`
//! amortizes the barrier across N appends; this sweep measures the
//! per-append latency distribution (via the `persist.journal_append_us`
//! and `persist.fsync_us` histograms) for flush_every 1 / 8 / 32,
//! against the no-fsync floor, proving the batched mode's win.

use std::sync::Arc;
use std::time::Instant;
use super::ctx;
use thermaware_datacenter::Args;
use thermaware_obs::{install, MemoryRecorder};
use thermaware_runtime::persist::JournalWriter;

pub(super) const USAGE: &str = "fsync_batch [--appends N] [--payload-bytes N] [--dir PATH]";

#[derive(serde::Serialize, serde::Deserialize)]
struct Record {
    epoch: u64,
    payload: String,
}

pub(super) fn run(args: &Args) -> Result<(), String> {
    let appends = args.get_usize("appends", 2_000);
    let payload_bytes = args.get_usize("payload-bytes", 256);
    let dir_base = args.get_str(
        "dir",
        std::env::temp_dir()
            .join("thermaware-fsync-bench")
            .to_str()
            .unwrap_or("thermaware-fsync-bench"),
    );
    let dir = std::path::PathBuf::from(&dir_base);
    let _ = std::fs::remove_dir_all(&dir);
    ctx(std::fs::create_dir_all(&dir), "bench dir")?;
    let payload = "x".repeat(payload_bytes);

    println!(
        "# Journal fsync batching — {appends} appends x {payload_bytes} B payload\n"
    );
    println!(
        "{:<14} {:>9} {:>12} {:>12} {:>12} {:>10} {:>8}",
        "mode", "total_ms", "append_p50", "append_p99", "append_max", "fsyncs", "speedup"
    );

    let mut baseline_ms = 0.0;
    for (label, durable, flush_every) in [
        ("fsync-every-1", true, 1usize),
        ("fsync-every-8", true, 8),
        ("fsync-every-32", true, 32),
        ("no-fsync", false, 1),
    ] {
        let rec = Arc::new(MemoryRecorder::new());
        let guard = install(rec.clone());
        let path = dir.join(format!("journal-{label}.jsonl"));

        let mut journal = ctx(JournalWriter::create(&path, durable, flush_every), "journal")?;
        let t = Instant::now();
        for epoch in 0..appends as u64 {
            ctx(journal.append(&Record { epoch, payload: payload.clone() }), "append")?;
        }
        ctx(journal.sync(), "final sync")?;
        let total = t.elapsed();
        drop(guard);

        let snap = rec.snapshot();
        let append = snap.histogram("persist.journal_append_us");
        let fsyncs = snap
            .histogram("persist.fsync_us")
            .map(|h| h.count)
            .unwrap_or(0);
        let (p50, p99, max) = append
            .map(|h| (h.p50, h.p99, h.max))
            .unwrap_or((0.0, 0.0, 0.0));
        let total_ms = total.as_secs_f64() * 1e3;
        if label == "fsync-every-1" {
            baseline_ms = total_ms;
        }
        println!(
            "{:<14} {:>9.1} {:>9.1} us {:>9.1} us {:>9.1} us {:>10} {:>7.1}x",
            label,
            total_ms,
            p50,
            p99,
            max,
            fsyncs,
            baseline_ms / total_ms.max(1e-9),
        );
    }

    println!(
        "\nThe daemon acks after the Begin fsync, so append_p99 bounds the\n\
         admission-latency tax; batching trades a bounded loss window\n\
         (Commit records, whose loss only re-runs a deterministic step)\n\
         for that win."
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
