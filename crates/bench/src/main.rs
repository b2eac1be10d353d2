//! `thermaware-exp <name> [flags]` — run one experiment of the table in
//! `thermaware_bench::EXPERIMENTS`.

use std::process::ExitCode;
use thermaware_bench::EXPERIMENTS;
use thermaware_datacenter::Args;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let Some(&(_, usage, _, run)) = EXPERIMENTS.iter().find(|entry| entry.0 == name) else {
        eprintln!("usage: thermaware-exp <name> [flags]\n\nexperiments:");
        for (_, usage, _, _) in EXPERIMENTS {
            eprintln!("  {usage}");
        }
        return ExitCode::from(2);
    };
    let args = Args::parse(argv, &format!("usage: thermaware-exp {usage}"));
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(problem) => {
            eprintln!("thermaware-exp {name}: {problem}");
            ExitCode::FAILURE
        }
    }
}
