//! The tracked allowlist: legacy findings accepted as explicit debt.
//!
//! Lives at `crates/analyze/allowlist.txt`, one entry per line:
//!
//! ```text
//! <rule>\t<path>\t<line>\t<trimmed source line>
//! ```
//!
//! An entry suppresses exactly one finding — same rule, same file, same
//! line, **same trimmed line text**. The text match is what keeps the
//! list honest: editing the offending line (even re-indenting around it)
//! invalidates the entry, so debt cannot silently survive a rewrite.
//! Two failure directions, both fatal in `--check`:
//!
//! - a finding with no matching entry (and no inline allow) — new debt;
//! - an entry with no matching finding — **stale**, the debt was paid
//!   (or the line moved) and the entry must be dropped, which
//!   `--bless` does.
//!
//! The self-check test (`crates/analyze/tests/selfcheck.rs`) holds the
//! shipped list to exactly the current tree.

use crate::rules::Finding;
use serde::Serialize;
use std::fs;
use std::path::Path;

/// Workspace-relative location of the tracked allowlist.
pub const ALLOWLIST_PATH: &str = "crates/analyze/allowlist.txt";

/// One parsed allowlist entry. A stale one prints in the JSON report
/// as its rule, path and line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Entry {
    pub rule: String,
    pub path: String,
    pub line: usize,
    #[serde(skip)]
    pub snippet: String,
    /// 1-based line in allowlist.txt itself (for stale reports).
    #[serde(skip)]
    pub at: usize,
}

impl Entry {
    pub fn matches(&self, f: &Finding) -> bool {
        self.rule == f.rule && self.path == f.path && self.line == f.line && self.snippet == f.snippet
    }
}

/// Parse the allowlist at `root`. A missing file is an empty list (the
/// goal state); malformed lines are returned separately so `--check`
/// can reject them rather than silently ignoring debt.
pub fn load(root: &Path) -> (Vec<Entry>, Vec<String>) {
    let text = fs::read_to_string(root.join(ALLOWLIST_PATH)).unwrap_or_default();
    let mut entries = Vec::new();
    let mut malformed = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(4, '\t');
        let (rule, path, line_no, snippet) = (
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
        );
        match line_no.parse::<usize>() {
            Ok(n) if !rule.is_empty() && !path.is_empty() => entries.push(Entry {
                rule: rule.to_string(),
                path: path.to_string(),
                line: n,
                snippet: snippet.to_string(),
                at: idx + 1,
            }),
            _ => malformed.push(format!("{}:{}: malformed allowlist entry", ALLOWLIST_PATH, idx + 1)),
        }
    }
    (entries, malformed)
}

/// Serialize `findings` as a fresh allowlist (what `--bless` writes).
pub fn render(findings: &[Finding]) -> String {
    let mut out = String::from(
        "# thermaware-analyze allowlist — tracked legacy debt.\n\
         # One finding per line: rule<TAB>path<TAB>line<TAB>trimmed source line.\n\
         # Entries must match the tree exactly; `thermaware-analyze --bless` regenerates.\n",
    );
    for f in findings {
        out.push_str(&format!("{}\t{}\t{}\t{}\n", f.rule, f.path, f.line, f.snippet));
    }
    out
}
