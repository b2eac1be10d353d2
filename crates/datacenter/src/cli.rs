//! The workspace's one `--key value` flag parser (the offline dependency
//! set has no CLI crate): `thermaware-exp`, `thermaware-serve` and
//! `thermaware-loadgen` all read their flags through [`Args`]. It lives
//! beside [`ScenarioParams`] because the flags most binaries share —
//! `--nodes`, `--cracs`, `--seed` — describe a scenario.

use crate::{DataCenter, ScenarioParams};
use std::collections::HashMap;

/// Parsed `--key value` flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse `argv` — the process arguments after the program name (and,
    /// for `thermaware-exp`, after the experiment name). A flag `usage`
    /// does not name, a flag without a value or a positional argument
    /// exits 2 with the usage text; `--help` prints it and exits 0.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I, usage: &str) -> Args {
        let argv: Vec<String> = argv.into_iter().collect();
        if argv.iter().any(|arg| arg == "--help" || arg == "-h") {
            eprintln!("{usage}");
            std::process::exit(0);
        }
        Self::try_parse(argv, usage).unwrap_or_else(|problem| {
            eprintln!("{problem}\n{usage}");
            std::process::exit(2);
        })
    }

    /// Parse without exiting. The flags a binary accepts are the
    /// `--name` words of its usage text.
    fn try_parse<I: IntoIterator<Item = String>>(iter: I, usage: &str) -> Result<Args, String> {
        let accepted = |key: &str| {
            usage
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .any(|word| word.strip_prefix("--") == Some(key))
        };
        let mut flags = HashMap::new();
        let mut it = iter.into_iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}'"));
            };
            if !accepted(key) {
                return Err(format!("unknown flag --{key}"));
            }
            let Some(value) = it.next() else {
                return Err(format!("flag --{key} needs a value"));
            };
            flags.insert(key.to_owned(), value);
        }
        Ok(Args { flags })
    }

    /// A `usize` flag with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get_parsed(key).unwrap_or(default)
    }

    /// A `u64` flag with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get_parsed(key).unwrap_or(default)
    }

    /// An `f64` flag with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get_parsed(key).unwrap_or(default)
    }

    /// A string flag with a default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.get_opt_str(key).unwrap_or_else(|| default.to_owned())
    }

    /// A string flag, `None` when absent.
    pub fn get_opt_str(&self, key: &str) -> Option<String> {
        self.flags.get(key).cloned()
    }

    /// The room `--nodes N --cracs N` describe — `base` at those sizes,
    /// `base`'s own where a flag is absent — built at `seed` (the
    /// caller's `--seed`, plus the run index in a multi-run experiment).
    pub fn data_center(&self, base: ScenarioParams, seed: u64) -> Result<DataCenter, String> {
        let params = ScenarioParams {
            n_nodes: self.get_usize("nodes", base.n_nodes),
            n_crac: self.get_usize("cracs", base.n_crac),
            ..base
        };
        params.build(seed).map_err(|e| {
            format!("scenario ({} nodes, {} CRACs, seed {seed}): {e}", params.n_nodes, params.n_crac)
        })
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.flags.get(key).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("flag --{key}: cannot parse '{v}'");
                std::process::exit(2);
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "prog [--runs N] [--seed S] [--share F] [--payload-bytes N]
  --nodes N   room size
  --json PATH raw output";

    fn parse(s: &[&str]) -> Result<Args, String> {
        Args::try_parse(s.iter().map(|s| s.to_string()), USAGE)
    }

    #[test]
    fn parses_flags_with_defaults() {
        let a = parse(&["--runs", "5", "--seed", "42", "--share", "0.25", "--json", "x.json"]).unwrap();
        assert_eq!(a.get_usize("runs", 25), 5);
        assert_eq!(a.get_u64("seed", 1), 42);
        assert_eq!(a.get_f64("share", 0.3), 0.25);
        assert_eq!(a.get_usize("missing", 7), 7);
        assert_eq!(a.get_opt_str("json").as_deref(), Some("x.json"));
        assert_eq!(a.get_opt_str("trace"), None);
    }

    #[test]
    fn a_flag_the_usage_text_does_not_name_is_an_error() {
        assert_eq!(parse(&["--bogus", "1"]).unwrap_err(), "unknown flag --bogus");
        assert_eq!(parse(&["--run", "1"]).unwrap_err(), "unknown flag --run");
        assert_eq!(parse(&["--payload", "1"]).unwrap_err(), "unknown flag --payload");
        assert!(parse(&["--payload-bytes", "1"]).is_ok());
        assert_eq!(parse(&["--seed"]).unwrap_err(), "flag --seed needs a value");
        assert_eq!(parse(&["seed"]).unwrap_err(), "unexpected argument 'seed'");
    }

    #[test]
    fn nodes_and_cracs_resize_the_base_scenario() {
        let a = parse(&["--nodes", "6"]).unwrap();
        let dc = a.data_center(ScenarioParams::small_test(), 3).unwrap();
        assert_eq!((dc.n_nodes(), dc.n_crac()), (6, ScenarioParams::small_test().n_crac));
        let err = parse(&["--nodes", "0"]).unwrap().data_center(ScenarioParams::small_test(), 3);
        assert!(err.unwrap_err().starts_with("scenario (0 nodes"));
    }
}
