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
//! again unchanged. [`EncodedBlocks`] does it per block of [`BLOCK`]
//! elements for a per-core table of which an epoch writes a few cores.

use serde::{Deserialize, Serialize, Sink, Source};
use serde_json::{crc32, Writer};
use std::fmt;
use std::ops::Deref;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

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

/// The compact JSON of `value`, or of a [`Run`]'s elements with commas
/// between them.
fn compact<T: Serialize>(value: &T) -> String {
    let mut out = Writer::elements_onto(String::new());
    value.serialize(&mut out);
    out.finish()
}

/// Counts `bytes` printed into kept text: printed by this commit, though
/// the sink takes them as a splice.
fn note_kept(bytes: usize) {
    thermaware_obs::counter_add("sched.bytes_kept", bytes as u64);
}

/// Offers `text` to the sink and serializes `value` if it declines. Debug
/// builds and tests first print `value` again and compare. `value` may be
/// a [`Run`], declined element by element.
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

/// Elements per block of an [`EncodedBlocks`]. A smaller block prints
/// fewer unchanged cores again with a dirty one but keeps, joins and
/// allocates more blocks; 32 prints within 5 kB per commit of 16 with
/// half as many (DESIGN §7 "The per-core tables").
const BLOCK: usize = 32;

/// Consecutive elements of an array, serialized one after another with
/// no brackets: what a sink inside the array takes them as.
struct Run<'a, T>(&'a [T]);

impl<T: Serialize> Serialize for Run<'_, T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        for item in self.0 {
            item.serialize(sink);
        }
    }
}

/// A per-core table and, from its first encode on, for each block of
/// [`BLOCK`] elements the compact text of its run (`e1,e2,…`) and that
/// text's CRC-32.
///
/// An epoch writes a few cores of a table of thousands. An encode prints
/// the blocks written since the last one, each into the buffer it had
/// before, and offers every block's text to the sink as one run.
/// [`to_mut`], the only mutable access, drops the text of its element's
/// block. A table that has never been encoded has no blocks, so a
/// simulation that is never written pays a flag and a length check per
/// write.
///
/// As with [`Encoded`], the text is a function of the elements: the
/// table serializes as a plain array, reads back with no text, compares
/// by its elements alone, and a clone carries the text along.
///
/// [`to_mut`]: EncodedBlocks::to_mut
pub(crate) struct EncodedBlocks<T> {
    items: Vec<T>,
    /// Empty before the first encode, then one per [`BLOCK`] elements.
    /// Behind a lock because an encode (through `&self`) prints into it.
    blocks: Mutex<Vec<Block>>,
}

/// One block's text and CRC-32, current once `clean`. A block turns
/// clean only when both are whole, so an encode that panicked leaves no
/// wrong text behind and a poisoned lock is taken as it stands.
#[derive(Clone, Default)]
struct Block {
    text: String,
    crc: u32,
    clean: bool,
}

impl Block {
    /// Prints `run` over the old text, in the same buffer, and returns
    /// the bytes printed. A buffer this print had to grow, by doubling,
    /// is cut to an eighth over its text: a table keeps hundreds of
    /// blocks, and a reprint is about as long as the last, so it fits
    /// again without allocating.
    fn print<T: Serialize>(&mut self, run: &[T]) -> usize {
        let mut text = std::mem::take(&mut self.text);
        text.clear();
        let room = text.capacity();
        let mut out = Writer::elements_onto(text);
        Run(run).serialize(&mut out);
        self.text = out.finish();
        let len = self.text.len();
        if self.text.capacity() > room {
            self.text.shrink_to(len + len / 8);
        }
        self.crc = crc32(self.text.as_bytes());
        self.clean = true;
        len
    }
}

impl<T> EncodedBlocks<T> {
    /// Element `k`, to change it: its block's text is gone.
    pub(crate) fn to_mut(&mut self, k: usize) -> &mut T {
        let blocks = self.blocks.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(block) = blocks.get_mut(k / BLOCK) {
            block.clean = false;
        }
        &mut self.items[k]
    }

    /// Sets every element to `value`: every block's text is gone, and its
    /// buffer stays for the next print.
    pub(crate) fn fill(&mut self, value: T)
    where
        T: Clone,
    {
        self.items.fill(value);
        let blocks = self.blocks.get_mut().unwrap_or_else(PoisonError::into_inner);
        for block in blocks {
            block.clean = false;
        }
    }
}

impl<T> From<Vec<T>> for EncodedBlocks<T> {
    fn from(items: Vec<T>) -> Self {
        EncodedBlocks { items, blocks: Mutex::default() }
    }
}

impl<T> Deref for EncodedBlocks<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items
    }
}

impl<T: Clone> Clone for EncodedBlocks<T> {
    fn clone(&self) -> Self {
        let blocks = self.blocks.lock().unwrap_or_else(PoisonError::into_inner).clone();
        EncodedBlocks { items: self.items.clone(), blocks: Mutex::new(blocks) }
    }
}

impl<T: PartialEq> PartialEq for EncodedBlocks<T> {
    fn eq(&self, other: &Self) -> bool {
        self.items == other.items
    }
}

impl<T: fmt::Debug> fmt::Debug for EncodedBlocks<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.items.fmt(f)
    }
}

impl<T: Serialize> Serialize for EncodedBlocks<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        let mut blocks = self.blocks.lock().unwrap_or_else(PoisonError::into_inner);
        if blocks.is_empty() {
            blocks.resize_with(self.items.len().div_ceil(BLOCK), Block::default);
        }
        let mut printed = 0;
        sink.begin_array();
        for (run, block) in self.items.chunks(BLOCK).zip(blocks.iter_mut()) {
            if !block.clean {
                printed += block.print(run);
            }
            splice_or_serialize(&Run(run), &block.text, block.crc, sink);
        }
        sink.end_array();
        if printed > 0 {
            note_kept(printed);
        }
    }
}

impl<T: Deserialize> Deserialize for EncodedBlocks<T> {
    fn deserialize(src: &mut Source<'_>) -> Result<Self, serde::Error> {
        Vec::<T>::deserialize(src).map(EncodedBlocks::from)
    }
}
