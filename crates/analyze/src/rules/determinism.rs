//! `determinism`: no ambient nondeterminism in crates on the replay
//! path.
//!
//! PR 2's crash recovery re-executes epochs from a snapshot and requires
//! the replay to be **bit-identical** to the original run (the journal
//! commits carry a CRC of the post-step state). Anything that reads
//! ambient entropy or wall-clock time inside the replayed computation —
//! `Instant::now`, `SystemTime`, `thread_rng`, `from_entropy` — breaks
//! that, as does iterating a `HashMap`/`HashSet` (std's `RandomState`
//! seeds per-process, so iteration order differs between the original
//! run and the resumed one). The fix is a seeded RNG threaded through
//! the call graph, `BTreeMap`/`BTreeSet`, or — for timing only — an
//! obs-gated block.
//!
//! A branch on the CPU's features (`is_x86_feature_detected!` and its
//! siblings for other architectures) is nondeterminism of another kind:
//! the same input takes another path on another machine, so a journal
//! written on one box may replay differently on the next. It is sound
//! only where both paths give the same bits and a test holds them to
//! it — `thermaware_linalg::kernel`, whose proptest compares each
//! dispatched kernel with its plain loop — and is a finding anywhere
//! else on the replay path.
//!
//! One more site lies outside what this rule scans (it reads no
//! `vendor/` file): the vendored codec's `serde_json::crc`, which folds
//! a CRC-32 and joins two with carry-less multiplies where the CPU has
//! PCLMULQDQ and through its tables otherwise. A CRC is a function of
//! the bytes alone, so both paths give the same checksum; the module's
//! tests call the kernel directly and hold it to the tables and to the
//! per-bit loop (`cargo test --release -p serde_json`), which is what
//! makes the branch sound.
//!
//! **Obs-gated timing blocks are exempt**: `Instant::now` behind a
//! `thermaware_obs::enabled()` check (within the preceding ten lines)
//! only measures, never feeds the computation, and is how the
//! observability layer keeps its no-recorder overhead at one atomic
//! load (DESIGN.md §8).
//!
//! Scope: the replay-path crates (`core`, `lp`, `linalg`, `thermal`,
//! `power`, `scheduler`, `workload`) plus `runtime`'s persistence module
//! and the deterministic half of `service` (engine, store, breaker,
//! proto — the daemon shell and loadgen are live code and may read
//! clocks freely) — non-test code only; tests may time things freely.

use super::Finding;
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// Crates whose entire non-test source is on the replay path.
const REPLAY_CRATES: [&str; 7] = ["core", "lp", "linalg", "thermal", "power", "scheduler", "workload"];

/// `service` files on the replay path; the daemon shell, loadgen, and
/// CLI glue live in wall-clock land by design.
const SERVICE_REPLAY_FILES: [&str; 4] =
    ["/engine.rs", "/store.rs", "/breaker.rs", "/proto.rs"];

/// `shard` files on the replay path: profiles, the bisection master,
/// fleet building, the solver's plan/fallback logic, and state
/// snapshots are pure functions of their inputs. `pool.rs` (deadlines,
/// backoff sleeps, hedging) and `chaos.rs` (scripted stalls) are live
/// wall-clock code by design.
const SHARD_REPLAY_FILES: [&str; 5] =
    ["/fleet.rs", "/profile.rs", "/master.rs", "/solver.rs", "/state.rs"];

/// The one file on the replay path that may branch on the CPU's
/// features (see the module docs).
const CPU_DISPATCH_FILE: &str = "crates/linalg/src/kernel.rs";

/// How many lines above a timing call an `obs::enabled()` gate may sit.
const GATE_WINDOW: usize = 10;

pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        let in_scope = REPLAY_CRATES.contains(&file.crate_name.as_str())
            || (file.crate_name == "runtime"
                && (file.path.ends_with("/persist.rs") || file.path.ends_with("/degrade.rs")))
            || (file.crate_name == "service"
                && SERVICE_REPLAY_FILES.iter().any(|f| file.path.ends_with(f)))
            || (file.crate_name == "shard"
                && SHARD_REPLAY_FILES.iter().any(|f| file.path.ends_with(f)));
        if !in_scope || file.test_target {
            continue;
        }
        check_file(file, &mut out);
    }
    out
}

fn check_file(file: &SourceFile, out: &mut Vec<Finding>) {
    let code: Vec<_> = file.code_tokens().collect();
    for (i, tok) in code.iter().enumerate() {
        let text = tok.text(&file.text);
        let (what, gateable) = match text {
            // `Instant` alone may appear in types (`Option<Instant>`);
            // only the actual clock read is nondeterministic.
            "Instant" => {
                let a = code.get(i + 1).map(|t| t.text(&file.text));
                let b = code.get(i + 2).map(|t| t.text(&file.text));
                if a == Some("::") && b == Some("now") {
                    ("Instant::now — wall-clock read on the replay path", true)
                } else {
                    continue;
                }
            }
            "SystemTime" => ("SystemTime — wall-clock read on the replay path", true),
            "thread_rng" => ("thread_rng — ambient entropy; thread a seeded RNG instead", false),
            "from_entropy" => ("from_entropy — ambient entropy; seed from the run's seed instead", false),
            "HashMap" | "HashSet" => (
                "HashMap/HashSet — RandomState iteration order varies per process; use BTreeMap/BTreeSet",
                false,
            ),
            t if t.starts_with("is_")
                && t.ends_with("_feature_detected")
                && !file.path.ends_with(CPU_DISPATCH_FILE) =>
            {
                (
                    "CPU-feature branch — another machine takes another path; dispatch only in thermaware_linalg::kernel, whose paths a proptest holds to the same bits",
                    false,
                )
            }
            _ => continue,
        };
        if file.in_test_region(tok.start) {
            continue;
        }
        let line = file.line_of(tok.start);
        if gateable && obs_gated(file, line) {
            continue;
        }
        out.push(Finding {
            rule: "determinism",
            path: file.path.clone(),
            line,
            message: what.to_string(),
            snippet: file.line_text(line).to_string(),
            witness: Vec::new(),
        });
    }
}

/// A timing call is obs-gated when `obs::enabled()` appears on the same
/// line or within the preceding [`GATE_WINDOW`] lines — covering both
/// the `enabled().then(Instant::now)` idiom and the early-return form
/// `if !thermaware_obs::enabled() { return …; }`.
fn obs_gated(file: &SourceFile, line: usize) -> bool {
    let from = line.saturating_sub(GATE_WINDOW).max(1);
    (from..=line).any(|l| {
        let t = file.line_text(l);
        t.contains("obs::enabled()") || t.contains("enabled().then")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, crate_name: &str, text: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        check_file(&SourceFile::new(path.to_string(), crate_name.to_string(), text.to_string()), &mut out);
        out
    }

    #[test]
    fn a_cpu_feature_branch_is_a_finding_outside_the_kernel_module() {
        let src = "fn f() -> bool {\n    std::is_x86_feature_detected!(\"avx2\") || is_aarch64_feature_detected!(\"neon\")\n}\n";
        let flagged = findings("crates/lp/src/revised.rs", "lp", src);
        assert_eq!(flagged.iter().map(|f| f.line).collect::<Vec<_>>(), [2, 2]);
        assert!(findings("crates/linalg/src/kernel.rs", "linalg", src).is_empty());
        // A test of another module may probe the CPU.
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() -> bool { is_x86_feature_detected!(\"avx2\") }\n}\n";
        assert!(findings("crates/lp/src/revised.rs", "lp", in_test).is_empty());
    }
}
