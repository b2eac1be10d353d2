//! `bench --check` / `bench --bless`: one drift gate over every
//! committed `results/BENCH_*.json` baseline (ROADMAP item 5).
//!
//! Before this verb, three bench binaries each carried a private
//! `check_against` with its own tolerance arithmetic and CLI flags, and
//! `BENCH_obs.json` had no gate at all. The gate now lives here, behind
//! a single manifest ([`SPECS`]) with one normalized schema: every gated
//! metric is reduced to the ratio `now / base` and judged by its drift
//! direction —
//!
//! - **lower-is-better** (pivot counts): fail when the ratio exceeds
//!   `1 + TOLERANCE`;
//! - **higher-is-better** (speedups, hit rates): fail when the ratio
//!   falls below `1 - TOLERANCE`;
//! - **pinned** (deterministic replay counters): fail on >15% movement
//!   in either direction — these should be *bit-stable* for a fixed
//!   seed, and movement in either direction means the computation
//!   changed, which is exactly what a reviewer must see and bless.
//!
//! Only scale-free metrics are gated (ratios, rates, seeded counts);
//! wall-clock milliseconds (`overhead_pct`, `mono_s`, `pooled_s`) vary
//! with CI hardware and stay ungated — the bench experiments keep their
//! own absolute floors (e.g. `lp_bench`'s `MIN_SPEEDUP`) which encode
//! machine-independent claims.
//!
//! Flow: each bench experiment writes a fresh snapshot under
//! `results/current/`; `bench --check` compares those against the
//! committed `results/BENCH_*.json`; `bench --bless` copies current over
//! committed after validating it parses and carries every gated metric.

use serde::{Serialize, Sink, Value};
use serde_json::Writer;
use std::fs;
use std::path::Path;

/// Allowed relative drift for gated metrics (15%).
pub const TOLERANCE: f64 = 0.15;

/// Directory (under the workspace root) where bench experiments write
/// fresh snapshots for comparison.
pub const CURRENT_DIR: &str = "results/current";

/// Drift direction of one gated metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Lower is better (cost counters): gate the upside only.
    Lower,
    /// Higher is better (speedups, hit rates): gate the downside only.
    Higher,
    /// Deterministic for a fixed seed: gate both directions.
    Pinned,
}

impl Dir {
    fn label(self) -> &'static str {
        match self {
            Dir::Lower => "lower-better",
            Dir::Higher => "higher-better",
            Dir::Pinned => "pinned",
        }
    }
}

impl Serialize for Dir {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.string(self.label());
    }
}

/// One gated metric: a key path into the snapshot JSON (segments, not a
/// dotted string — obs counter keys contain dots) and its direction.
pub struct Gate {
    pub path: &'static [&'static str],
    pub dir: Dir,
}

/// One baseline file and its gates.
pub struct BenchSpec {
    /// File name under `results/`, e.g. `BENCH_lp.json`.
    pub file: &'static str,
    pub gates: &'static [Gate],
}

/// The full gate manifest. Adding a metric here is the whole act of
/// gating it; `--bless` validation keys off the same table.
pub const SPECS: [BenchSpec; 4] = [
    BenchSpec {
        file: "BENCH_lp.json",
        gates: &[
            Gate { path: &["stage1_sweep", "warm_pivots"], dir: Dir::Lower },
            Gate { path: &["stage3_replans", "warm_pivots"], dir: Dir::Lower },
            Gate { path: &["total", "warm_pivots"], dir: Dir::Lower },
            Gate { path: &["total", "pivot_speedup"], dir: Dir::Higher },
            Gate { path: &["stage1_sweep", "warm_hit_rate"], dir: Dir::Higher },
            Gate { path: &["stage3_replans", "warm_hit_rate"], dir: Dir::Higher },
        ],
    },
    BenchSpec {
        file: "BENCH_shard.json",
        gates: &[
            Gate { path: &["deterministic", "zone_solves"], dir: Dir::Pinned },
            Gate { path: &["deterministic", "zone_panics"], dir: Dir::Pinned },
            Gate { path: &["deterministic", "zone_retries"], dir: Dir::Pinned },
            Gate { path: &["deterministic", "degraded_zone_epochs"], dir: Dir::Pinned },
            Gate { path: &["deterministic", "recovery_epochs"], dir: Dir::Pinned },
            Gate { path: &["deterministic", "bisection_iters"], dir: Dir::Pinned },
            Gate { path: &["deterministic", "agreement_rel_gap"], dir: Dir::Pinned },
        ],
    },
    BenchSpec {
        file: "BENCH_scenarios.json",
        gates: &[
            Gate { path: &["deterministic", "diurnal_crest_over_trough"], dir: Dir::Pinned },
            Gate { path: &["deterministic", "drift_violations"], dir: Dir::Pinned },
            Gate { path: &["deterministic", "drift_replans"], dir: Dir::Pinned },
            Gate { path: &["deterministic", "multiobj_power_drop_frac"], dir: Dir::Pinned },
            Gate { path: &["deterministic", "multiobj_reward_drop_frac"], dir: Dir::Pinned },
        ],
    },
    BenchSpec {
        // Previously ungated: the obs snapshot's seeded counters are
        // deterministic and catch silent instrumentation rot (a counter
        // that stops incrementing pins to zero). Timing overhead stays
        // ungated — it measures the CI machine, not the code.
        file: "BENCH_obs.json",
        gates: &[
            Gate { path: &["counters", "lp.solves"], dir: Dir::Pinned },
            Gate { path: &["counters", "runtime.epochs"], dir: Dir::Pinned },
            Gate { path: &["counters", "runtime.recoveries"], dir: Dir::Pinned },
            Gate { path: &["counters", "sched.admitted"], dir: Dir::Pinned },
            Gate { path: &["counters", "sched.deadline_misses"], dir: Dir::Pinned },
        ],
    },
];

/// One gated metric's comparison result; it prints as one object of
/// the JSON report (an unreachable ratio as `"inf"`).
#[derive(Serialize)]
pub struct Row {
    pub file: &'static str,
    /// Dotted metric path for display (`total.pivot_speedup`).
    pub metric: String,
    pub dir: Dir,
    pub base: f64,
    pub now: f64,
    /// `now / base`; `1.0` when both are zero, `f64::INFINITY` when only
    /// the base is.
    pub ratio: f64,
    pub ok: bool,
}

/// The full check result.
pub struct BenchReport {
    pub rows: Vec<Row>,
    /// Structural failures: missing files, parse errors, missing gated
    /// metrics. Any entry fails the check.
    pub errors: Vec<String>,
}

impl BenchReport {
    pub fn clean(&self) -> bool {
        self.errors.is_empty() && self.rows.iter().all(|r| r.ok)
    }

    pub fn drifted(&self) -> usize {
        self.rows.iter().filter(|r| !r.ok).count()
    }

    /// Human-readable report.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for e in &self.errors {
            out.push_str(&format!("bench: error: {e}\n"));
        }
        let mut last_file = "";
        for r in &self.rows {
            if r.file != last_file {
                out.push_str(&format!("bench: {}\n", r.file));
                last_file = r.file;
            }
            out.push_str(&format!(
                "  {} {:<32} base {:>12.6} now {:>12.6} ratio {:.4} [{}]\n",
                if r.ok { "ok   " } else { "DRIFT" },
                r.metric,
                r.base,
                r.now,
                r.ratio,
                r.dir.label(),
            ));
        }
        let drifted = self.drifted();
        if self.clean() {
            out.push_str(&format!("bench: clean — {} metrics within {:.0}%\n", self.rows.len(), TOLERANCE * 100.0));
        } else {
            out.push_str(&format!(
                "bench: FAIL — {drifted} metric(s) drifted >{:.0}%, {} structural error(s); re-run and `thermaware-analyze bench --bless` if intended\n",
                TOLERANCE * 100.0,
                self.errors.len(),
            ));
        }
        out
    }

    /// Machine-readable report, pretty JSON.
    pub fn json(&self) -> String {
        let mut w = Writer::pretty();
        w.begin_object();
        w.key("rows");
        self.rows.serialize(&mut w);
        w.key("errors");
        self.errors.serialize(&mut w);
        w.key("tolerance");
        w.number(TOLERANCE);
        w.key("clean");
        w.bool(self.clean());
        w.end_object();
        w.finish() + "\n"
    }
}

/// Compare `results/current/BENCH_*.json` snapshots against the
/// committed `results/BENCH_*.json` baselines.
pub fn check(root: &Path) -> BenchReport {
    let mut rows = Vec::new();
    let mut errors = Vec::new();
    for spec in &SPECS {
        let base_path = root.join("results").join(spec.file);
        let now_path = root.join(CURRENT_DIR).join(spec.file);
        let base = match load(&base_path) {
            Ok(v) => v,
            Err(e) => {
                errors.push(format!("{}: baseline: {e}", spec.file));
                continue;
            }
        };
        let now = match load(&now_path) {
            Ok(v) => v,
            Err(e) => {
                errors.push(format!(
                    "{}: current snapshot: {e} (run the bench with --out {CURRENT_DIR}/{} first)",
                    spec.file, spec.file
                ));
                continue;
            }
        };
        for gate in spec.gates {
            let metric = gate.path.join(".");
            let (Some(b), Some(n)) = (number_at(&base, gate.path), number_at(&now, gate.path)) else {
                let missing_in = if number_at(&base, gate.path).is_none() {
                    "baseline"
                } else {
                    "current snapshot"
                };
                errors.push(format!("{}: gated metric `{metric}` missing from {missing_in}", spec.file));
                continue;
            };
            rows.push(judge(spec.file, metric, gate.dir, b, n));
        }
    }
    BenchReport { rows, errors }
}

/// Validate the current snapshots carry every gated metric, then copy
/// them over the committed baselines. Returns the blessed file names.
pub fn bless(root: &Path) -> Result<Vec<&'static str>, String> {
    // Validate everything before overwriting anything: a half-blessed
    // baseline set is worse than a failed bless.
    for spec in &SPECS {
        let now_path = root.join(CURRENT_DIR).join(spec.file);
        let now = load(&now_path)
            .map_err(|e| format!("{}: current snapshot: {e} — nothing blessed", spec.file))?;
        for gate in spec.gates {
            if number_at(&now, gate.path).is_none() {
                return Err(format!(
                    "{}: gated metric `{}` missing from current snapshot — nothing blessed",
                    spec.file,
                    gate.path.join(".")
                ));
            }
        }
    }
    let mut blessed = Vec::new();
    for spec in &SPECS {
        let now_path = root.join(CURRENT_DIR).join(spec.file);
        let base_path = root.join("results").join(spec.file);
        fs::copy(&now_path, &base_path)
            .map_err(|e| format!("{}: copy failed: {e}", spec.file))?;
        blessed.push(spec.file);
    }
    Ok(blessed)
}

fn load(path: &Path) -> Result<Value, String> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The number at a path of object keys in a snapshot.
fn number_at(snapshot: &Value, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(snapshot, |v, key| v.get(key))?.as_f64()
}

fn judge(file: &'static str, metric: String, dir: Dir, base: f64, now: f64) -> Row {
    let ratio = if base.abs() < f64::MIN_POSITIVE {
        if now.abs() < f64::MIN_POSITIVE {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        now / base
    };
    // The epsilon keeps zero-valued pinned baselines (e.g. a panic
    // counter at 0) exact-match without tripping on float noise.
    let eps = 1e-9;
    let ok = match dir {
        Dir::Lower => now <= base + TOLERANCE * base.abs() + eps,
        Dir::Higher => now >= base - TOLERANCE * base.abs() - eps,
        Dir::Pinned => (now - base).abs() <= TOLERANCE * base.abs() + eps,
    };
    Row { file, metric, dir, base, now, ratio, ok }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directions_gate_the_right_side() {
        assert!(judge("f", "m".into(), Dir::Lower, 100.0, 114.0).ok);
        assert!(!judge("f", "m".into(), Dir::Lower, 100.0, 116.0).ok);
        assert!(judge("f", "m".into(), Dir::Lower, 100.0, 10.0).ok, "improvement passes");
        assert!(judge("f", "m".into(), Dir::Higher, 10.0, 8.6).ok);
        assert!(!judge("f", "m".into(), Dir::Higher, 10.0, 8.4).ok);
        assert!(judge("f", "m".into(), Dir::Higher, 10.0, 100.0).ok);
        assert!(!judge("f", "m".into(), Dir::Pinned, 100.0, 116.0).ok);
        assert!(!judge("f", "m".into(), Dir::Pinned, 100.0, 84.0).ok, "pinned gates both directions");
        assert!(judge("f", "m".into(), Dir::Pinned, 0.0, 0.0).ok);
        assert!(!judge("f", "m".into(), Dir::Pinned, 0.0, 1.0).ok, "zero baseline pins to zero");
    }

    /// The JSON report reads back with every row; a ratio with no base
    /// to divide by prints as the workspace's `"inf"`.
    #[test]
    fn the_json_report_reads_back() {
        let report = BenchReport {
            rows: vec![
                judge("BENCH_x.json", "a.b".into(), Dir::Pinned, 0.0, 1.0),
                judge("BENCH_x.json", "c".into(), Dir::Higher, 4.0, 5.0),
            ],
            errors: vec!["BENCH_y.json: \"broken\"".into()],
        };
        let v: Value = serde_json::from_str(&report.json()).expect("the report is JSON");
        let rows = v.get("rows").and_then(Value::as_array).expect("rows");
        assert_eq!(rows[0].get("ratio").and_then(Value::as_str), Some("inf"));
        assert_eq!(rows[0].get("ok"), Some(&Value::Bool(false)));
        assert_eq!(rows[1].get("dir").and_then(Value::as_str), Some("higher-better"));
        assert_eq!(rows[1].get("ratio").and_then(Value::as_f64), Some(1.25));
        let errors = v.get("errors").and_then(Value::as_array).expect("errors");
        assert_eq!(errors[0].as_str(), Some(report.errors[0].as_str()));
        assert_eq!(v.get("tolerance").and_then(Value::as_f64), Some(TOLERANCE));
        assert_eq!(v.get("clean"), Some(&Value::Bool(false)));
    }

    #[test]
    fn check_against_committed_baselines_round_trips() {
        // Copy the committed baselines to a temp root as both baseline
        // and current: the check must be clean by construction.
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let tmp = std::env::temp_dir().join(format!("thermaware-bench-selftest-{}", std::process::id()));
        let _ = fs::remove_dir_all(&tmp);
        fs::create_dir_all(tmp.join(CURRENT_DIR)).expect("mkdir");
        fs::create_dir_all(tmp.join("results")).expect("mkdir");
        for spec in &SPECS {
            let src = repo.join("results").join(spec.file);
            fs::copy(&src, tmp.join("results").join(spec.file)).expect("copy baseline");
            fs::copy(&src, tmp.join(CURRENT_DIR).join(spec.file)).expect("copy current");
        }
        let report = check(&tmp);
        assert!(report.clean(), "{}", report.text());
        let expected: usize = SPECS.iter().map(|s| s.gates.len()).sum();
        assert_eq!(report.rows.len(), expected, "every gate must produce a row");
        let _ = fs::remove_dir_all(&tmp);
    }

    #[test]
    fn missing_current_is_a_structural_error() {
        let tmp = std::env::temp_dir().join(format!("thermaware-bench-missing-{}", std::process::id()));
        let _ = fs::remove_dir_all(&tmp);
        fs::create_dir_all(tmp.join("results")).expect("mkdir");
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for spec in &SPECS {
            fs::copy(repo.join("results").join(spec.file), tmp.join("results").join(spec.file))
                .expect("copy baseline");
        }
        let report = check(&tmp);
        assert!(!report.clean());
        assert_eq!(report.errors.len(), SPECS.len());
        let _ = fs::remove_dir_all(&tmp);
    }

    #[test]
    fn bless_is_all_or_nothing() {
        let tmp = std::env::temp_dir().join(format!("thermaware-bench-bless-{}", std::process::id()));
        let _ = fs::remove_dir_all(&tmp);
        fs::create_dir_all(tmp.join(CURRENT_DIR)).expect("mkdir");
        fs::create_dir_all(tmp.join("results")).expect("mkdir");
        // No current snapshots at all: bless must refuse.
        assert!(bless(&tmp).is_err());
        let _ = fs::remove_dir_all(&tmp);
    }
}
