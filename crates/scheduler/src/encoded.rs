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
//! [`EncodedVec`] does the same for a list that gains elements at the end
//! and loses them anywhere, keeping every element's text in one run: the
//! in-flight tasks, of which an epoch admits some and settles others
//! while most are written again unchanged. [`EncodedBlocks`] does it per
//! block of [`BLOCK`] elements for a per-core table of which an epoch
//! writes a few cores.

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

/// A list and, for a prefix of its elements, their compact JSON texts as
/// one run `e1,e2,…`.
///
/// The run is one buffer, so the list owns one allocation for its text,
/// not one per element, and a sink takes it as one splice checksummed by
/// one pass. An encode prints the elements pushed since the last one onto
/// its end; nothing is printed while nothing encodes, so a simulation
/// that is never written pays nothing per push. [`retain`] compacts the
/// run and the elements in the same pass, and [`update`] cuts the run
/// before the first element it changes, so no text outlives the value it
/// was printed from.
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

/// The texts of `items[..ends.len()]`, comma-separated.
#[derive(Clone, Default)]
struct Kept {
    text: String,
    /// Where each element's text ends in `text`. The first starts at 0,
    /// every other one byte (its comma) after the one before ends.
    ends: Vec<usize>,
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
        let start = self.text.len();
        let mut text = std::mem::take(&mut self.text);
        // Room for the fresh elements at the kept ones' mean length and a
        // comma each, and an eighth of the run to spare: the run grows
        // once by what it takes, where doubling and then cutting back to
        // an eighth over allocated it twice.
        if let Some(mean) = start.checked_div(self.ends.len()) {
            let more = fresh.len() * (mean + 1);
            if text.capacity() - start < more {
                text.reserve_exact(more + (start + more) / 8);
            }
        }
        if !self.ends.is_empty() {
            text.push(',');
        }
        let mut out = Writer::elements_onto(text);
        for item in fresh {
            item.serialize(&mut out);
            self.ends.push(out.written());
        }
        self.text = out.finish();
        note_kept(self.text.len() - start);
    }

    /// Keeps the text of the first `n` elements only.
    fn truncate(&mut self, n: usize) {
        if n < self.ends.len() {
            self.ends.truncate(n);
            self.text.truncate(self.ends.last().map_or(0, |&end| end));
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
        if kept.ends.is_empty() {
            self.items.retain(keep);
            return;
        }
        let mut bytes = std::mem::take(&mut kept.text).into_bytes();
        let ends = &mut kept.ends;
        // Element `i`'s text starts at `from`; the run kept so far ends at
        // `to`, and its ends fill `ends[..filled]`. The run never catches
        // up with the element being read: `to < from` once one is kept.
        let (mut i, mut from, mut to, mut filled) = (0, 0, 0, 0);
        self.items.retain(|item| {
            let stays = keep(item);
            if let Some(&end) = ends.get(i) {
                if stays {
                    if filled > 0 {
                        bytes[to] = b',';
                        to += 1;
                    }
                    if from != to {
                        bytes.copy_within(from..end, to);
                    }
                    to += end - from;
                    ends[filled] = to;
                    filled += 1;
                }
                from = end + 1;
            }
            i += 1;
            stays
        });
        ends.truncate(filled);
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
        let printed = kept.ends.len();
        kept.print(&self.items[printed..]);
        sink.begin_array();
        if !self.items.is_empty() {
            splice_or_serialize(&Run(&self.items), &kept.text, crc32(kept.text.as_bytes()), sink);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Elements whose texts have escapes and non-ASCII bytes in them.
    fn list(n: usize) -> EncodedVec<(usize, String)> {
        (0..n).map(|i| (i, format!("é{i}\"→"))).collect::<Vec<_>>().into()
    }

    /// Encodes `v` and holds it to the plain array of its elements; the
    /// run then holds every element's text, comma-separated, and where
    /// each one ends.
    fn check(v: &EncodedVec<(usize, String)>) {
        let text = serde_json::to_string(v).expect("encode");
        let plain = serde_json::to_string(&v.items).expect("encode");
        assert_eq!(text, plain);
        let kept = Kept::lock(&v.kept);
        assert_eq!(kept.text, plain[1..plain.len() - 1]);
        assert_eq!(kept.ends.len(), v.len());
        let mut start = 0;
        for (item, &end) in v.items.iter().zip(&kept.ends) {
            assert_eq!(kept.text[start..end], serde_json::to_string(item).expect("encode"));
            start = end + 1;
        }
    }

    /// `retain` dropping the first element, the last, all, none, every
    /// other one and all but one, from a run that holds every element's
    /// text and from one that holds only some (pushed since the encode):
    /// the run it leaves is the one a fresh print gives.
    #[test]
    fn retain_keeps_the_separators_of_the_run() {
        /// Whether element `i` of `n` goes.
        type Drop = fn(usize, usize) -> bool;
        let drops: [(&str, Drop); 6] = [
            ("first", |i, _| i == 0),
            ("last", |i, n| i == n - 1),
            ("all", |_, _| true),
            ("none", |_, _| false),
            ("every other", |i, _| i % 2 == 0),
            ("all but one", |i, n| i != n / 2),
        ];
        for (name, dropped) in drops {
            for (n, unprinted) in [(1, 0), (2, 0), (7, 0), (7, 3), (7, 7)] {
                let mut v = list(n - unprinted);
                check(&v);
                (n - unprinted..n).for_each(|i| v.push((i, format!("é{i}\"→"))));
                v.retain(|&(i, _)| !dropped(i, n));
                let kept = Kept::lock(&v.kept).ends.len();
                assert_eq!(kept, v.iter().filter(|&&(i, _)| i < n - unprinted).count(), "{name}");
                check(&v);
                v.push((n, "after".to_string()));
                check(&v);
            }
        }
    }

    /// An `update` that changes an element in the middle cuts the run
    /// there, its comma included; a settle before the next encode and
    /// the encode itself mend the run from the cut.
    #[test]
    fn an_update_cuts_the_run_and_the_next_encode_mends_it() {
        for at in [0, 1, 4, 7] {
            let mut v = list(8);
            check(&v);
            v.update(|item| {
                let changed = item.0 == at;
                if changed {
                    item.1.push('!');
                }
                changed
            });
            let text = Kept::lock(&v.kept).text.clone();
            assert!(!text.ends_with(','), "{text}");
            assert_eq!(Kept::lock(&v.kept).ends.len(), at);
            v.retain(|&(i, _)| i != 2 && i != 6);
            v.push((8, String::new()));
            check(&v);
        }
    }
}
