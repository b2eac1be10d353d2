//! A table that keeps its encoded text.
//!
//! Between two replans nothing derived from the plan changes, yet every
//! epoch's commit encodes and checksums the whole scheduler. [`Encoded`]
//! holds a value together with — once it has been written — its compact
//! JSON text and that text's CRC-32, and hands both to a sink that can
//! take them verbatim ([`Sink::splice`]). The only mutable access,
//! [`Encoded::to_mut`], drops the text, so it cannot outlive the value it
//! was printed from; debug builds and tests print again at every splice
//! and compare.

use serde::{Deserialize, Serialize, Sink, Source};
use serde_json::{crc32, Writer};
use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;

/// A value and, from its first encode to its next mutation, the bytes it
/// encodes to.
///
/// The text is a function of the value, so it is not state: it is never
/// written (the value serializes as itself), never read (a value from
/// disk prints again when first encoded), and any two compare equal.
#[derive(Clone)]
pub(crate) struct Encoded<T> {
    value: T,
    /// Compact JSON of `value` and its CRC-32.
    text: OnceLock<(Box<str>, u32)>,
}

impl<T> Encoded<T> {
    pub(crate) fn new(value: T) -> Self {
        Encoded { value, text: OnceLock::new() }
    }

    /// The value, to change it: whatever text it had is gone.
    pub(crate) fn to_mut(&mut self) -> &mut T {
        self.text.take();
        &mut self.value
    }
}

impl<T> Deref for Encoded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: PartialEq> PartialEq for Encoded<T> {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}

impl<T: fmt::Debug> fmt::Debug for Encoded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.value.fmt(f)
    }
}

fn compact<T: Serialize>(value: &T) -> String {
    let mut out = Writer::compact();
    value.serialize(&mut out);
    out.finish()
}

impl<T: Serialize> Serialize for Encoded<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        let (text, crc) = self.text.get_or_init(|| {
            let text = compact(&self.value).into_boxed_str();
            let crc = crc32(text.as_bytes());
            (text, crc)
        });
        #[cfg(any(test, debug_assertions))]
        {
            let fresh = compact(&self.value);
            assert_eq!(**text, *fresh, "the kept text is not what the value prints now");
            assert_eq!(*crc, crc32(fresh.as_bytes()), "the kept CRC is not its text's");
        }
        if !sink.splice(text, *crc) {
            self.value.serialize(sink);
        }
    }
}

impl<T: Deserialize> Deserialize for Encoded<T> {
    fn deserialize(src: &mut Source<'_>) -> Result<Self, serde::Error> {
        T::deserialize(src).map(Encoded::new)
    }
}
