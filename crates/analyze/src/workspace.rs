//! Workspace discovery: enumerate crates, parse their `[dependencies]`
//! sections for intra-workspace edges, and load every Rust source into a
//! [`SourceFile`].
//!
//! Only `std::fs` is used, no manifest crate (the gate must build
//! offline); Cargo.toml parsing is a deliberately small line-based scan
//! that understands
//! exactly the subset this workspace writes: section headers and
//! `name = …` / `name.workspace = true` dependency keys.

use crate::source::SourceFile;
use std::fs;
use std::path::{Path, PathBuf};

/// One workspace member under `crates/` (or the root facade).
pub struct CrateInfo {
    /// Short name: `core`, `lp`, … or `"."` for the root facade crate.
    pub name: String,
    /// Workspace-relative directory, e.g. `crates/core`.
    pub dir: String,
    /// `thermaware-*` crates listed under `[dependencies]`
    /// (dev-dependencies deliberately excluded — the layering DAG
    /// governs what ships, not what tests link).
    pub deps: Vec<Dep>,
}

/// One intra-workspace dependency edge, with its Cargo.toml line for
/// findings.
pub struct Dep {
    /// Short name of the dependency crate (`core`, `lp`, …).
    pub name: String,
    /// 1-based line in the depending crate's Cargo.toml.
    pub line: usize,
}

/// The loaded workspace: crates plus every lexed source file.
pub struct Workspace {
    pub root: PathBuf,
    pub crates: Vec<CrateInfo>,
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Load the workspace rooted at `root`. IO errors on individual
    /// files are skipped (a vanished file is not a lint finding); an
    /// unreadable root yields an empty workspace the caller can detect
    /// by `crates.is_empty()`.
    pub fn load(root: &Path) -> Workspace {
        let mut crates = Vec::new();
        let mut files = Vec::new();

        // Members under crates/*.
        let crates_dir = root.join("crates");
        for dir in sorted_dirs(&crates_dir) {
            let name = file_name(&dir);
            let manifest = dir.join("Cargo.toml");
            if !manifest.is_file() {
                continue;
            }
            let deps = workspace_deps(&manifest);
            load_crate_files(root, &dir, &name, &mut files);
            crates.push(CrateInfo {
                name: name.clone(),
                dir: rel(root, &dir),
                deps,
            });
        }

        // The root facade crate (src/, tests/, examples/ at the root).
        if root.join("Cargo.toml").is_file() {
            let deps = workspace_deps(&root.join("Cargo.toml"));
            load_crate_files(root, root, ".", &mut files);
            crates.push(CrateInfo {
                name: ".".into(),
                dir: ".".into(),
                deps,
            });
        }

        files.sort_by(|a, b| a.path.cmp(&b.path));
        Workspace {
            root: root.to_path_buf(),
            crates,
            files,
        }
    }

    /// All files belonging to `crate_name`.
    pub fn crate_files<'a>(&'a self, crate_name: &'a str) -> impl Iterator<Item = &'a SourceFile> {
        self.files.iter().filter(move |f| f.crate_name == crate_name)
    }
}

/// `thermaware-*` dependency edges (short name + line) from
/// `[dependencies]`.
fn workspace_deps(manifest: &Path) -> Vec<Dep> {
    let Ok(text) = fs::read_to_string(manifest) else {
        return Vec::new();
    };
    let mut deps = Vec::new();
    let mut in_deps = false;
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.starts_with('#') {
            continue;
        }
        // `thermaware-core.workspace = true` or `thermaware-core = { … }`.
        let Some(key) = line.split(['=', '.']).next() else {
            continue;
        };
        let key = key.trim();
        if let Some(short) = key.strip_prefix("thermaware-") {
            deps.push(Dep {
                name: short.to_string(),
                line: idx + 1,
            });
        }
    }
    deps
}

/// Load `src/`, `tests/`, `benches/`, `examples/` of one crate.
fn load_crate_files(root: &Path, crate_dir: &Path, crate_name: &str, out: &mut Vec<SourceFile>) {
    for sub in ["src", "tests", "benches", "examples"] {
        let dir = crate_dir.join(sub);
        if dir.is_dir() {
            walk_rs(root, &dir, crate_name, out);
        }
    }
}

fn walk_rs(root: &Path, dir: &Path, crate_name: &str, out: &mut Vec<SourceFile>) {
    let mut entries: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(rd) => rd.filter_map(|e| e.ok()).map(|e| e.path()).collect(),
        Err(_) => return,
    };
    entries.sort();
    for path in entries {
        if path.is_dir() {
            // Golden fixture trees contain *seeded* violations — they are
            // test data for the analyzer itself, never findings.
            if file_name(&path) == "fixtures" {
                continue;
            }
            walk_rs(root, &path, crate_name, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = fs::read_to_string(&path) {
                out.push(SourceFile::new(rel(root, &path), crate_name.to_string(), text));
            }
        }
    }
}

fn sorted_dirs(dir: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect(),
        Err(_) => Vec::new(),
    };
    dirs.sort();
    dirs
}

fn file_name(p: &Path) -> String {
    p.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
}

/// Workspace-relative `/`-separated path.
fn rel(root: &Path, p: &Path) -> String {
    let r = p.strip_prefix(root).unwrap_or(p);
    let s = r.to_string_lossy().replace('\\', "/");
    if s.is_empty() {
        ".".into()
    } else {
        s
    }
}
