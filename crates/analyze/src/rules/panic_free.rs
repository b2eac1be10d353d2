//! `panic-free`: no reachable panic in solver-crate production code.
//!
//! PR 1 made the runtime supervisor panic-free (`clippy::unwrap_used`
//! denied in `runtime` and `obs`); this rule extends the guarantee
//! workspace-wide to every crate a solve can pass through. A panic
//! inside `Solver::solve` unwinds through the supervisor's staged
//! degradation ladder and turns a recoverable numerical pathology into a
//! dead run — the exact failure mode PR 1 removed.
//!
//! Flagged in non-test code of the solver crates: `.unwrap()`,
//! `panic!`, `unreachable!`, `todo!`, `unimplemented!`. Not flagged:
//! `.expect("…")` — the sanctioned form for true invariants, because the
//! message forces the author to *state* the invariant and shows up in
//! any crash report; and `assert!`-family checks, which are invariant
//! documentation, not control flow. Slice indexing is also left alone:
//! the workspace deliberately keeps paper-subscript index loops
//! (`clippy::needless_range_loop` is allowed workspace-wide for the same
//! reason) and bounds are established by construction in the kernels.
//!
//! Test regions, `tests/`, `benches/` and `examples/` are exempt — a
//! panicking test is just a failing test.

use super::Finding;
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// Crates reachable from a solve — the panic-free surface.
const SOLVER_CRATES: [&str; 6] = ["linalg", "lp", "core", "thermal", "power", "datacenter"];

pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        if !SOLVER_CRATES.contains(&file.crate_name.as_str()) || file.test_target {
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
        let message = match text {
            "unwrap" => {
                // Only `.unwrap()` the method call; `unwrap_or`,
                // `unwrap_used`, a fn named unwrap… don't match the
                // exact ident + call shape.
                let prev = i.checked_sub(1).map(|j| code[j].text(&file.text));
                let next = code.get(i + 1).map(|t| t.text(&file.text));
                let next2 = code.get(i + 2).map(|t| t.text(&file.text));
                if prev == Some(".") && next == Some("(") && next2 == Some(")") {
                    ".unwrap() in solver code — state the invariant with expect(\"…\") or propagate the error"
                } else {
                    continue;
                }
            }
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                if code.get(i + 1).map(|t| t.text(&file.text)) == Some("!") {
                    "panic-family macro in solver code — return a typed error instead"
                } else {
                    continue;
                }
            }
            _ => continue,
        };
        if file.in_test_region(tok.start) {
            continue;
        }
        let line = file.line_of(tok.start);
        out.push(Finding {
            rule: "panic-free",
            path: file.path.clone(),
            line,
            message: message.to_string(),
            snippet: file.line_text(line).to_string(),
            witness: Vec::new(),
        });
    }
}
