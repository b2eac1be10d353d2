//! CLI for the workspace static-analysis gate.
//!
//! ```text
//! thermaware-analyze --check [--root DIR] [--report FILE]   # CI gate
//! thermaware-analyze --bless [--root DIR]                   # refresh allowlist + API snapshots
//! thermaware-analyze bench --check [--root DIR] [--report FILE]  # bench drift gate
//! thermaware-analyze bench --bless [--root DIR]                  # promote fresh snapshots
//! ```
//!
//! `--check` exits 0 only when the tree is clean: no unsuppressed
//! finding, no stale or malformed allowlist entry, no API-snapshot
//! drift. `--bless` rewrites `crates/analyze/allowlist.txt` from the
//! current findings (inline-allowed sites are *not* blessed — they are
//! already suppressed where they stand) and regenerates
//! `results/api/<crate>.txt`.
//!
//! `bench --check` compares the fresh snapshots the bench experiments
//! wrote to `results/current/` against the committed
//! `results/BENCH_*.json` baselines, gating every manifest metric at
//! ±15%. `bench --bless` validates all current snapshots then promotes
//! them to baselines (all-or-nothing).

use std::path::PathBuf;
use std::process::ExitCode;

use thermaware_analyze::rules::api;
use thermaware_analyze::workspace::Workspace;
use thermaware_analyze::{allowlist, bench, engine, report};

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("bench") {
        raw.next();
        return bench_main(raw);
    }

    let mut root = PathBuf::from(".");
    let mut report_path: Option<PathBuf> = None;
    let mut mode_check = true;

    let mut args = raw;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => mode_check = true,
            "--bless" => mode_check = false,
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a value"),
            },
            "--report" => match args.next() {
                Some(v) => report_path = Some(PathBuf::from(v)),
                None => return usage("--report needs a value"),
            },
            "--help" | "-h" => {
                println!("usage: thermaware-analyze [--check|--bless] [--root DIR] [--report FILE]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let ws = Workspace::load(&root);
    if ws.crates.is_empty() {
        eprintln!("thermaware-analyze: no workspace found under {}", root.display());
        return ExitCode::from(2);
    }

    if mode_check {
        check(&ws, &root, report_path)
    } else {
        bless(&ws, &root)
    }
}

fn check(ws: &Workspace, root: &std::path::Path, report_path: Option<PathBuf>) -> ExitCode {
    let analysis = engine::analyze_workspace(ws, root);
    print!("{}", report::text(&analysis));
    if let Some(path) = report_path {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, report::json(&analysis)) {
            eprintln!("thermaware-analyze: cannot write report {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if analysis.clean() {
        println!("analyze: clean");
        ExitCode::SUCCESS
    } else {
        println!("analyze: FAILED — fix the findings above, add `// lint: allow(<rule>): <reason>` at the site, or record debt with --bless");
        ExitCode::FAILURE
    }
}

fn bless(ws: &Workspace, root: &std::path::Path) -> ExitCode {
    // Allowlist: everything still unsuppressed after inline allows.
    let analysis = engine::analyze_workspace(ws, root);
    let mut debt: Vec<_> = analysis
        .unsuppressed
        .iter()
        .chain(analysis.allowlisted.iter())
        // API drift is never debt — bless records the new surface below
        // instead of allowlisting the drift.
        .filter(|f| f.rule != "api-snapshot")
        .cloned()
        .collect();
    debt.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    let list_path = root.join(allowlist::ALLOWLIST_PATH);
    if let Err(e) = std::fs::write(&list_path, allowlist::render(&debt)) {
        eprintln!("thermaware-analyze: cannot write {}: {e}", list_path.display());
        return ExitCode::from(2);
    }
    println!("blessed {} allowlist entr(ies) -> {}", debt.len(), list_path.display());

    // API snapshots.
    let dir = root.join(api::SNAPSHOT_DIR);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("thermaware-analyze: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    for (crate_name, sigs) in api::extract(ws) {
        let path = dir.join(api::snapshot_name(&crate_name));
        let mut text = format!(
            "# pub surface of `{}` — extracted by thermaware-analyze; refresh with --bless\n",
            if crate_name == "." { "thermaware" } else { &crate_name }
        );
        for s in &sigs {
            text.push_str(s);
            text.push('\n');
        }
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("thermaware-analyze: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("snapshot {} item(s) -> {}", sigs.len(), path.display());
    }
    ExitCode::SUCCESS
}

fn bench_main(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut report_path: Option<PathBuf> = None;
    let mut mode_check = true;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => mode_check = true,
            "--bless" => mode_check = false,
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a value"),
            },
            "--report" => match args.next() {
                Some(v) => report_path = Some(PathBuf::from(v)),
                None => return usage("--report needs a value"),
            },
            "--help" | "-h" => {
                println!("usage: thermaware-analyze bench [--check|--bless] [--root DIR] [--report FILE]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown bench argument `{other}`")),
        }
    }

    if mode_check {
        let r = bench::check(&root);
        print!("{}", r.text());
        if let Some(path) = report_path {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            if let Err(e) = std::fs::write(&path, r.json()) {
                eprintln!("thermaware-analyze: cannot write report {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        if r.clean() {
            println!("bench: clean");
            ExitCode::SUCCESS
        } else {
            println!(
                "bench: FAILED — {} metric(s) drifted past ±{:.0}%; investigate, or promote with `bench --bless`",
                r.drifted(),
                bench::TOLERANCE * 100.0
            );
            ExitCode::FAILURE
        }
    } else {
        match bench::bless(&root) {
            Ok(promoted) => {
                for name in &promoted {
                    println!("promoted {}/{name} -> results/{name}", bench::CURRENT_DIR);
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("thermaware-analyze: bench --bless refused: {e}");
                ExitCode::FAILURE
            }
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("thermaware-analyze: {err}\nusage: thermaware-analyze [--check|--bless] [--root DIR] [--report FILE]");
    ExitCode::from(2)
}
