//! How one trace line is printed: a compact object through the vendored
//! `serde_json` writer, so strings and numbers follow the workspace's
//! encoding conventions (the `serde` crate docs).

use serde::{Serialize, Sink as _};
use serde_json::Writer;

/// One trace line, newline included: an object whose `type` is `kind`,
/// then the members `members` writes.
pub(crate) fn line(kind: &str, members: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::compact();
    w.begin_object();
    member(&mut w, "type", kind);
    members(&mut w);
    w.end_object();
    let mut text = w.finish();
    text.push('\n');
    text
}

pub(crate) fn member<T: Serialize + ?Sized>(w: &mut Writer, key: &str, value: &T) {
    w.key(key);
    value.serialize(w);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value<T: Serialize + ?Sized>(v: &T) -> String {
        line("t", |w| member(w, "v", v))
            .strip_prefix("{\"type\":\"t\",\"v\":")
            .and_then(|rest| rest.strip_suffix("}\n"))
            .map(str::to_owned)
            .unwrap_or_default()
    }

    #[test]
    fn escapes() {
        assert_eq!(value("plain/path"), "\"plain/path\"");
        assert_eq!(value("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(value("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(value("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers() {
        assert_eq!(value(&1.5f64), "1.5");
        assert_eq!(value(&f64::INFINITY), "\"inf\"");
        assert_eq!(value(&f64::NAN), "\"NaN\"");
    }
}
