//! Report rendering: human-readable text for the terminal and a pretty
//! JSON document for the CI artifact, printed by the vendored
//! `serde_json` writer.

use crate::engine::Analysis;
use crate::rules::{Finding, RULES};
use serde::{Serialize, Sink};
use serde_json::Writer;

/// Terminal report: findings grouped with locations, then a per-rule
/// summary table.
pub fn text(a: &Analysis) -> String {
    let mut out = String::new();
    for f in &a.unsuppressed {
        out.push_str(&format!("{}: {}:{}: {}\n", f.rule, f.path, f.line, f.message));
        if !f.snippet.is_empty() {
            out.push_str(&format!("    | {}\n", f.snippet));
        }
        for (i, step) in f.witness.iter().enumerate() {
            out.push_str(&format!("    {} {step}\n", if i == 0 { "via" } else { " ->" }));
        }
    }
    for e in &a.stale_entries {
        out.push_str(&format!(
            "stale-allowlist: crates/analyze/allowlist.txt:{}: entry `{} {}:{}` matches no finding — drop it (or --bless)\n",
            e.at, e.rule, e.path, e.line
        ));
    }
    for m in &a.malformed {
        out.push_str(m);
        out.push('\n');
    }

    out.push_str("\nrule                unsuppressed  allowlisted  inline-allowed\n");
    for rule in RULES {
        let c = |v: &[Finding]| v.iter().filter(|f| f.rule == rule).count();
        out.push_str(&format!(
            "{rule:<19} {:>12} {:>12} {:>15}\n",
            c(&a.unsuppressed),
            c(&a.allowlisted),
            c(&a.inline_allowed),
        ));
    }
    out.push_str(&format!(
        "\n{} finding(s) total; {} unsuppressed, {} stale allowlist entr(ies), {} malformed line(s)\n",
        a.total_raw(),
        a.unsuppressed.len(),
        a.stale_entries.len(),
        a.malformed.len()
    ));
    out
}

/// JSON report for the CI artifact.
pub fn json(a: &Analysis) -> String {
    let mut w = Writer::pretty();
    w.begin_object();
    w.key("schema");
    w.string("thermaware-analyze/v1");
    w.key("clean");
    w.bool(a.clean());
    for (key, findings) in [
        ("unsuppressed", &a.unsuppressed),
        ("allowlisted", &a.allowlisted),
        ("inline_allowed", &a.inline_allowed),
    ] {
        w.key(key);
        findings.serialize(&mut w);
    }
    w.key("stale_allowlist_entries");
    a.stale_entries.serialize(&mut w);
    w.end_object();
    w.finish() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allowlist::Entry;
    use serde::Value;

    fn finding(message: &str, witness: &[&str]) -> Finding {
        Finding {
            rule: "panic-free",
            path: "crates/x/src/a.rs".into(),
            line: 7,
            message: message.into(),
            snippet: "x.unwrap()".into(),
            witness: witness.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The report reads back as JSON with every member it was given:
    /// escaped text, a witness when there is one, a stale entry as its
    /// rule, path and line.
    #[test]
    fn the_json_report_reads_back() {
        let a = Analysis {
            unsuppressed: vec![finding("a \"quoted\" \\ line\nbreak \u{1}", &["a.rs:1 f", "b.rs:2 g"])],
            allowlisted: vec![finding("plain", &[])],
            inline_allowed: Vec::new(),
            stale_entries: vec![Entry {
                rule: "float-eq".into(),
                path: "crates/y/src/b.rs".into(),
                line: 3,
                snippet: "a == b".into(),
                at: 9,
            }],
            malformed: Vec::new(),
        };
        let text = json(&a);
        assert!(text.ends_with("}\n"));
        let v: Value = serde_json::from_str(&text).expect("the report is JSON");
        let keys: Vec<&str> = v.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["schema", "clean", "unsuppressed", "allowlisted", "inline_allowed", "stale_allowlist_entries"]
        );
        assert_eq!(v.get("clean"), Some(&Value::Bool(false)));
        let first = &v.get("unsuppressed").and_then(Value::as_array).expect("findings")[0];
        assert_eq!(first.get("message").and_then(Value::as_str), Some(a.unsuppressed[0].message.as_str()));
        assert_eq!(first.get("line").and_then(Value::as_f64), Some(7.0));
        assert_eq!(first.get("witness").and_then(Value::as_array).map(<[_]>::len), Some(2));
        let stale = &v.get("stale_allowlist_entries").and_then(Value::as_array).expect("stale")[0];
        let keys: Vec<&str> = stale.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["rule", "path", "line"]);
    }
}
