//! The service binaries refuse a flag their usage text does not name:
//! a typo must not silently run with the default.

use std::process::Command;

fn rejects(exe: &str, argv: &[&str], flag: &str) {
    let out = Command::new(exe).args(argv).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{exe} {argv:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with(&format!("unknown flag {flag}\n")),
        "{exe} {argv:?}: {stderr}"
    );
}

#[test]
fn serve_names_a_mistyped_flag_and_exits_2() {
    rejects(
        env!("CARGO_BIN_EXE_thermaware-serve"),
        &["--dir", "/nonexistent", "--socket", "/nonexistent", "--drift-treshold", "0.1"],
        "--drift-treshold",
    );
}

#[test]
fn loadgen_names_a_mistyped_flag_and_exits_2() {
    rejects(
        env!("CARGO_BIN_EXE_thermaware-loadgen"),
        &["--socket", "/nonexistent", "--conections", "3"],
        "--conections",
    );
}
