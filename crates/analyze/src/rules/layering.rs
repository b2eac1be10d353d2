//! `layering`: enforce the crate DAG and facade-only re-exports.
//!
//! The workspace is layered so that subsystem crates stay independently
//! testable and the solve path's dependency cone stays small (DESIGN.md
//! §3): `obs` and the physics crates (`linalg`, `power`, `workload`)
//! sit at the bottom and depend on no workspace crate; `lp` and
//! `thermal` may use the substrate but never `core`; only the root
//! `thermaware` facade re-exports across layers. Three checks:
//!
//! - **dag** — a `[dependencies]` edge not in the allowed-DAG table
//!   below (e.g. `thermal` growing a dep on `core` would invert the
//!   solver stack).
//! - **unused-dep** — a declared `thermaware-*` edge whose crate is
//!   never referenced in source. Dead edges silently widen the DAG:
//!   they compile today, so nothing stops code from starting to use
//!   them tomorrow, and they lengthen every cold build.
//! - **facade** — `pub use thermaware_*` outside the root facade.
//!   Cross-layer re-exports give one crate's types a second public
//!   address, and downstream code that imports through it couples to
//!   the middle crate's dependency set.
//!
//! Crates not in the table (fixtures, future additions) get the
//! unused-dep and facade checks but no DAG constraint — adding the new
//! crate to `ALLOWED` is part of introducing it.

use super::Finding;
use crate::workspace::Workspace;

/// The allowed dependency DAG: `(crate, allowed deps)`. `"*"` means any
/// workspace crate (the facade and the bench harness integrate
/// everything by design).
const ALLOWED: [(&str, &[&str]); 14] = [
    ("obs", &[]),
    ("linalg", &[]),
    ("power", &[]),
    ("workload", &[]),
    ("analyze", &[]),
    ("lp", &["linalg", "obs"]),
    ("thermal", &["linalg", "lp"]),
    ("datacenter", &["obs", "lp", "power", "thermal", "workload"]),
    ("core", &["linalg", "obs", "lp", "power", "thermal", "workload", "datacenter"]),
    ("scheduler", &["workload", "obs", "datacenter", "core"]),
    ("runtime", &["core", "obs", "datacenter", "scheduler", "thermal", "workload"]),
    ("service", &["core", "obs", "datacenter", "runtime", "scheduler", "workload"]),
    ("shard", &["core", "obs", "datacenter", "runtime"]),
    ("bench", &["*"]),
];

pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for info in &ws.crates {
        let manifest = if info.dir == "." {
            "Cargo.toml".to_string()
        } else {
            format!("{}/Cargo.toml", info.dir)
        };
        let allowed = ALLOWED.iter().find(|(c, _)| *c == info.name).map(|(_, d)| *d);
        for dep in &info.deps {
            // DAG membership. The facade (".") integrates everything.
            if info.name != "." {
                if let Some(allowed) = allowed {
                    if !allowed.contains(&"*") && !allowed.contains(&dep.name.as_str()) {
                        out.push(Finding {
                            rule: "layering",
                            path: manifest.clone(),
                            line: dep.line,
                            message: format!(
                                "dag: `{}` must not depend on `{}` (allowed: {})",
                                info.name,
                                dep.name,
                                if allowed.is_empty() { "none".to_string() } else { allowed.join(", ") },
                            ),
                            snippet: format!("thermaware-{}", dep.name),
                            witness: Vec::new(),
                        });
                    }
                }
            }
            // Unused declared edge.
            let ident = format!("thermaware_{}", dep.name);
            let used = ws
                .crate_files(&info.name)
                .any(|f| f.text.contains(&ident));
            if !used {
                out.push(Finding {
                    rule: "layering",
                    path: manifest.clone(),
                    line: dep.line,
                    message: format!(
                        "unused-dep: `{}` declares `thermaware-{}` but never references it — dead DAG edge",
                        info.name, dep.name
                    ),
                    snippet: format!("thermaware-{}", dep.name),
                    witness: Vec::new(),
                });
            }
        }
    }

    // Facade-only re-exports: `pub use thermaware_*` outside the root.
    for file in &ws.files {
        if file.crate_name == "." {
            continue;
        }
        let code: Vec<_> = file.code_tokens().collect();
        for w in 0..code.len().saturating_sub(2) {
            let a = code[w].text(&file.text);
            let b = code[w + 1].text(&file.text);
            let c = code[w + 2].text(&file.text);
            if a == "pub" && b == "use" && c.starts_with("thermaware_") {
                let line = file.line_of(code[w].start);
                out.push(Finding {
                    rule: "layering",
                    path: file.path.clone(),
                    line,
                    message: format!(
                        "facade: re-export of `{c}` outside the root facade — import at the use site instead"
                    ),
                    snippet: file.line_text(line).to_string(),
                    witness: Vec::new(),
                });
            }
        }
    }
    out
}
