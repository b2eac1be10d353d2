//! `thermaware-analyze` — domain-aware static analysis for this
//! workspace, run as a tier-1 CI gate.
//!
//! The project's hard-won invariants — bit-identical checkpoint replay
//! (DESIGN.md §7), panic-free solver paths (§6), the numerical
//! conventions (§5), the crate layering (§3) — were, before this crate,
//! enforced only by tests and two per-crate clippy denies. Nothing
//! stopped a future change from reintroducing an ambient
//! `Instant::now()` into a replayed path or a float `==` into a reward
//! comparison; both classes of regression have precedent in this tree.
//! This crate encodes those invariants as machine-checked rules over the
//! workspace's own sources (see [`rules`] for the rule-by-rule
//! rationale) and fails CI on any unsuppressed finding.
//!
//! Design constraints:
//!
//! - **std plus the vendored codec.** The gate must never fail to
//!   build: its only dependencies are the vendored `serde` /
//!   `serde_json` path crates (the bench baselines and both reports go
//!   through them), and it lexes Rust with a hand-rolled total lexer
//!   ([`lexer`]) instead of syn.
//! - **Escapes are explicit and tracked.** A site can opt out with
//!   `// lint: allow(<rule>): <reason>`; legacy debt lives in a
//!   committed allowlist ([`allowlist`]) that goes stale — and fails
//!   the build — the moment the underlying line changes.
//! - **Total.** The lexer and every rule are panic-free on arbitrary
//!   input (property-tested); a linter that crashes on weird-but-legal
//!   code is a worse gate than no linter.
//!
//! Entry points: [`engine::analyze`] for the full workspace pass, the
//! `thermaware-analyze` binary for `--check` / `--bless`.

pub mod allowlist;
pub mod bench;
pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod source;
pub mod workspace;
