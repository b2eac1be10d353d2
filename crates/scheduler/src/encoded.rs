//! Tables and lists that keep their encoded text.
//!
//! Between two replans nothing derived from the plan changes, yet every
//! epoch's commit encodes and checksums the whole scheduler. [`Encoded`]
//! holds a value together with — once it has been written — its compact
//! JSON text and that text's CRC-32, and hands both to a sink that can
//! take them verbatim ([`Sink::splice`]). The only mutable access,
//! [`Encoded::to_mut`], drops the text, so it cannot outlive the value it
//! was printed from; debug builds and tests print again at every splice
//! and compare.
//!
//! [`EncodedVec`] does the same per element for a list that gains
//! elements at the end and loses them anywhere: the in-flight tasks, of
//! which an epoch admits some and settles others while most are written
//! again unchanged.

use serde::{Deserialize, Serialize, Sink, Source};
use serde_json::{crc32, Writer};
use std::fmt;
use std::ops::Deref;
use std::sync::{Mutex, MutexGuard, OnceLock};

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

/// Counts `bytes` printed into kept text: printed by this commit, though
/// the sink takes them as a splice.
fn note_kept(bytes: usize) {
    thermaware_obs::counter_add("sched.bytes_kept", bytes as u64);
}

/// Offers `text` to the sink and serializes `value` if it declines. Debug
/// builds and tests first print `value` again and compare.
fn splice_or_serialize<T: Serialize, S: Sink>(value: &T, text: &str, crc: u32, sink: &mut S) {
    #[cfg(any(test, debug_assertions))]
    {
        let fresh = compact(value);
        assert_eq!(text, fresh, "the kept text is not what the value prints now");
        assert_eq!(crc, crc32(fresh.as_bytes()), "the kept CRC is not its text's");
    }
    if !sink.splice(text, crc) {
        value.serialize(sink);
    }
}

impl<T: Serialize> Serialize for Encoded<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        let (text, crc) = self.text.get_or_init(|| {
            let text = compact(&self.value).into_boxed_str();
            note_kept(text.len());
            let crc = crc32(text.as_bytes());
            (text, crc)
        });
        splice_or_serialize(&self.value, text, *crc, sink);
    }
}

impl<T: Deserialize> Deserialize for Encoded<T> {
    fn deserialize(src: &mut Source<'_>) -> Result<Self, serde::Error> {
        T::deserialize(src).map(Encoded::new)
    }
}

/// A list and, for a prefix of its elements, the compact JSON text of
/// each and that text's CRC-32.
///
/// The texts sit end to end in one side buffer, so the list owns one
/// allocation for them, not one per element. An encode prints the
/// elements pushed since the last one into it and hands every element's
/// text to the sink; nothing is printed while nothing encodes, so a
/// simulation that is never written pays nothing per push. [`retain`]
/// compacts texts and elements in the same pass, and [`update`] drops
/// the text of the first element it changes and of every one after it,
/// so no text outlives the value it was printed from.
///
/// As with [`Encoded`], the text is a function of the elements: the list
/// serializes as a plain array (never the text), reads back with no
/// text, and compares by its elements alone.
///
/// [`retain`]: EncodedVec::retain
/// [`update`]: EncodedVec::update
pub(crate) struct EncodedVec<T> {
    items: Vec<T>,
    /// Behind a lock because an encode (through `&self`) prints into it.
    kept: Mutex<Kept>,
}

/// The texts of `items[..spans.len()]`, end to end.
#[derive(Clone, Default)]
struct Kept {
    text: String,
    spans: Vec<Span>,
}

/// Where an element's text ends in [`Kept::text`] (it starts where the
/// one before ends) and its CRC-32.
#[derive(Clone, Copy)]
struct Span {
    end: usize,
    crc: u32,
}

impl Kept {
    /// Locks `kept`. An encode that panicked halfway through leaves no
    /// text behind.
    fn lock(kept: &Mutex<Kept>) -> MutexGuard<'_, Kept> {
        kept.lock().unwrap_or_else(|poisoned| {
            kept.clear_poison();
            let mut guard = poisoned.into_inner();
            *guard = Kept::default();
            guard
        })
    }

    /// Prints `fresh`, the elements after those with text, onto the end.
    fn print<T: Serialize>(&mut self, fresh: &[T]) {
        if fresh.is_empty() {
            return;
        }
        let (start, first) = (self.text.len(), self.spans.len());
        let mut out = Writer::compact_onto(std::mem::take(&mut self.text));
        for item in fresh {
            item.serialize(&mut out);
            self.spans.push(Span { end: out.written(), crc: 0 });
        }
        self.text = out.finish();
        note_kept(self.text.len() - start);
        let mut from = start;
        for span in &mut self.spans[first..] {
            span.crc = crc32(&self.text.as_bytes()[from..span.end]);
            from = span.end;
        }
    }

    /// Keeps the text of the first `n` elements only.
    fn truncate(&mut self, n: usize) {
        if n < self.spans.len() {
            self.spans.truncate(n);
            self.text.truncate(self.spans.last().map_or(0, |span| span.end));
        }
    }
}

impl<T> EncodedVec<T> {
    /// Appends `item`, with no text until the next encode.
    pub(crate) fn push(&mut self, item: T) {
        self.items.push(item);
    }

    /// Keeps the elements `keep` accepts, in order, and their texts.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut kept = Kept::lock(&self.kept);
        if kept.spans.is_empty() {
            self.items.retain(keep);
            return;
        }
        let mut bytes = std::mem::take(&mut kept.text).into_bytes();
        let kept = &mut *kept;
        let spans = &mut kept.spans;
        // Element `i`'s text starts at `from`; the texts kept so far end at
        // `to`, and their spans fill `spans[..filled]`.
        let (mut i, mut from, mut to, mut filled) = (0, 0, 0, 0);
        self.items.retain(|item| {
            let stays = keep(item);
            if let Some(&Span { end, crc }) = spans.get(i) {
                if stays {
                    if from != to {
                        bytes.copy_within(from..end, to);
                    }
                    to += end - from;
                    spans[filled] = Span { end: to, crc };
                    filled += 1;
                }
                from = end;
            }
            i += 1;
            stays
        });
        spans.truncate(filled);
        bytes.truncate(to);
        kept.text = String::from_utf8(bytes).expect("whole texts of whole values, moved whole");
    }

    /// Lets `change` see every element mutably; it answers whether it
    /// changed the one it was given. The text of the first changed
    /// element and of every one after it is dropped.
    pub(crate) fn update(&mut self, mut change: impl FnMut(&mut T) -> bool) {
        let mut first = None;
        for (i, item) in self.items.iter_mut().enumerate() {
            if change(item) && first.is_none() {
                first = Some(i);
            }
        }
        if let Some(i) = first {
            Kept::lock(&self.kept).truncate(i);
        }
    }
}

impl<T> Default for EncodedVec<T> {
    fn default() -> Self {
        Vec::new().into()
    }
}

impl<T> From<Vec<T>> for EncodedVec<T> {
    fn from(items: Vec<T>) -> Self {
        EncodedVec { items, kept: Mutex::default() }
    }
}

impl<T> Deref for EncodedVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items
    }
}

/// A clone carries the text along and owns it.
impl<T: Clone> Clone for EncodedVec<T> {
    fn clone(&self) -> Self {
        let kept = Kept::lock(&self.kept).clone();
        EncodedVec { items: self.items.clone(), kept: Mutex::new(kept) }
    }
}

impl<T: PartialEq> PartialEq for EncodedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.items == other.items
    }
}

impl<T: fmt::Debug> fmt::Debug for EncodedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.items.fmt(f)
    }
}

impl<T: Serialize> Serialize for EncodedVec<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        let mut kept = Kept::lock(&self.kept);
        let printed = kept.spans.len();
        kept.print(&self.items[printed..]);
        sink.begin_array();
        let mut from = 0;
        for (item, span) in self.items.iter().zip(&kept.spans) {
            splice_or_serialize(item, &kept.text[from..span.end], span.crc, sink);
            from = span.end;
        }
        sink.end_array();
    }
}

impl<T: Deserialize> Deserialize for EncodedVec<T> {
    fn deserialize(src: &mut Source<'_>) -> Result<Self, serde::Error> {
        Vec::<T>::deserialize(src).map(EncodedVec::from)
    }
}
