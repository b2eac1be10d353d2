//! The experiment table behind `thermaware-exp`: it, the documents and
//! the committed outputs name the same experiments, every entry runs to
//! `Ok` at its toy flags, and every entry refuses a flag its usage line
//! does not name.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use thermaware_bench::EXPERIMENTS;

const EXE: &str = env!("CARGO_BIN_EXE_thermaware-exp");

fn exp<S: AsRef<std::ffi::OsStr>>(argv: &[S], cwd: &Path) -> Output {
    Command::new(EXE).args(argv).current_dir(cwd).output().expect("thermaware-exp runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("thermaware-exp-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The experiment names a document invokes: the word after
/// `-p thermaware-bench -- ` or after the binary's own name (commands in
/// prose wrap, so line breaks count as spaces).
fn names_invoked(text: &str) -> BTreeSet<String> {
    let text = text.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut names = BTreeSet::new();
    for marker in ["thermaware-bench -- ", "thermaware-exp ", "thermaware-exp\" "] {
        for (at, _) in text.match_indices(marker) {
            let name: String = text[at + marker.len()..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                names.insert(name);
            }
        }
    }
    names
}

#[test]
fn the_table_and_the_documents_name_the_same_experiments() {
    let table: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.0.to_owned()).collect();
    assert_eq!(table.len(), EXPERIMENTS.len(), "duplicate experiment name");

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut documents: Vec<PathBuf> =
        ["EXPERIMENTS.md", "README.md", "DESIGN.md", ".github/workflows/ci.yml"]
            .iter()
            .map(|f| root.join(f))
            .collect();
    for script in std::fs::read_dir(root.join("scripts")).expect("scripts/") {
        documents.push(script.expect("scripts/ entry").path());
    }
    let mut documented = BTreeSet::new();
    for path in &documents {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for name in names_invoked(&text) {
            assert!(table.contains(&name), "{} runs `{name}`, which is not in EXPERIMENTS", path.display());
            documented.insert(name);
        }
    }
    let undocumented: Vec<_> = table.difference(&documented).collect();
    assert!(undocumented.is_empty(), "in EXPERIMENTS but in no document: {undocumented:?}");
}

/// `results/all_experiments.txt` is the output of the loop EXPERIMENTS.md
/// regenerates it with: the file's `=== name ===` headers and the loop's
/// names (between `for name in` and `; do`) are one list, in one order,
/// of the table's experiments — a row that goes takes its block and its
/// loop entry with it.
#[test]
fn the_committed_outputs_are_the_regenerate_loops_experiments() {
    let table: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |file: &str| {
        std::fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
    };

    let outputs = read("results/all_experiments.txt");
    let headers: Vec<&str> = outputs
        .lines()
        .filter_map(|line| line.strip_prefix("=== ")?.strip_suffix(" ==="))
        .collect();
    let doc = read("EXPERIMENTS.md");
    let loop_head = "for name in ";
    let start = doc.find(loop_head).expect("EXPERIMENTS.md has the regenerate loop") + loop_head.len();
    let end = start + doc[start..].find("; do").expect("the loop's `; do`");
    let looped: Vec<&str> = doc[start..end].split_whitespace().filter(|w| *w != "\\").collect();

    for name in headers.iter().chain(&looped) {
        assert!(table.contains(name), "`{name}` is not in EXPERIMENTS");
    }
    assert_eq!(headers, looped, "results/all_experiments.txt and the EXPERIMENTS.md loop differ");
}

/// One after another, not in parallel: `shard_bench` holds a wall-clock
/// speedup floor, which a sibling experiment on the same cores would
/// eat. Outputs go to a scratch directory through each experiment's own
/// `--out/--trace/--dir/--checkpoint-dir/--json` flags, and the working
/// directory is that scratch directory too, so a default `results/...`
/// path that slipped through would show up there.
#[test]
fn every_experiment_runs_at_its_toy_flags() {
    let dir = scratch("toy");
    for &(name, usage, toy_flags, _) in EXPERIMENTS {
        let mut argv = vec![name.to_owned()];
        argv.extend(toy_flags.split_whitespace().map(str::to_owned));
        for flag in ["--out", "--trace", "--dir", "--checkpoint-dir", "--json"] {
            if usage.contains(&format!("[{flag} ")) {
                argv.push(flag.to_owned());
                argv.push(dir.join(format!("{name}{flag}")).display().to_string());
            }
        }
        // The one floor that is a ratio of wall times gets the retries
        // its own acceptance run in CI would get from a rerun.
        let attempts = if name == "shard_bench" { 3 } else { 1 };
        let mut out = exp(&argv, &dir);
        for _ in 1..attempts {
            if out.status.success() {
                break;
            }
            out = exp(&argv, &dir);
        }
        assert!(
            out.status.success(),
            "thermaware-exp {argv:?}: {:?}\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "{name} printed nothing");
    }
    assert!(!dir.join("results").exists(), "an experiment wrote under results/");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_names_and_flags_exit_2() {
    let dir = scratch("flags");
    for argv in [&[][..], &["no_such_experiment"][..]] {
        let out = exp(argv, &dir);
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let listing = String::from_utf8_lossy(&out.stderr).into_owned();
        for &(name, ..) in EXPERIMENTS {
            assert!(listing.contains(&format!("\n  {name}")), "{argv:?} does not list {name}");
        }
    }
    for &(name, ..) in EXPERIMENTS {
        let out = exp(&[name, "--bogus", "1"], &dir);
        assert_eq!(out.status.code(), Some(2), "{name} --bogus 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("unknown flag --bogus\n"), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} ran despite --bogus");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
