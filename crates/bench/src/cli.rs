//! A tiny `--key value` argument parser for the experiment binaries (the
//! offline dependency set has no CLI crate, and the binaries only need a
//! handful of numeric flags).

use std::collections::HashMap;

/// Parsed `--key value` flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse the process arguments. A flag `usage` does not name, a flag
    /// without a value or a positional argument exits 2 with the usage
    /// line.
    pub fn parse(usage: &str) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|arg| arg == "--help" || arg == "-h") {
            eprintln!("{usage}");
            std::process::exit(0);
        }
        Self::from_iter(argv, usage).unwrap_or_else(|problem| {
            eprintln!("{problem}\n{usage}");
            std::process::exit(2);
        })
    }

    /// Parse from an explicit iterator (testable). The flags a binary
    /// accepts are the `--name` words of its usage line.
    fn from_iter<I: IntoIterator<Item = String>>(iter: I, usage: &str) -> Result<Args, String> {
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
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_owned())
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

    const USAGE: &str = "prog [--runs N] [--seed S] [--share F] [--payload-bytes N]";

    fn parse(s: &[&str]) -> Result<Args, String> {
        Args::from_iter(s.iter().map(|s| s.to_string()), USAGE)
    }

    #[test]
    fn parses_flags_with_defaults() {
        let a = parse(&["--runs", "5", "--seed", "42", "--share", "0.25"]).unwrap();
        assert_eq!(a.get_usize("runs", 25), 5);
        assert_eq!(a.get_u64("seed", 1), 42);
        assert_eq!(a.get_f64("share", 0.3), 0.25);
        assert_eq!(a.get_usize("missing", 7), 7);
    }

    #[test]
    fn a_flag_the_usage_line_does_not_name_is_an_error() {
        assert_eq!(parse(&["--bogus", "1"]).unwrap_err(), "unknown flag --bogus");
        assert_eq!(parse(&["--run", "1"]).unwrap_err(), "unknown flag --run");
        assert_eq!(parse(&["--payload", "1"]).unwrap_err(), "unknown flag --payload");
        assert!(parse(&["--payload-bytes", "1"]).is_ok());
        assert_eq!(parse(&["--seed"]).unwrap_err(), "flag --seed needs a value");
        assert_eq!(parse(&["seed"]).unwrap_err(), "unexpected argument 'seed'");
    }
}
