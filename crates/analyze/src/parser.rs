//! A lightweight item parser on top of [`crate::lexer`].
//!
//! The call-graph rules (§14) need more structure than a token stream —
//! which function a token belongs to, what that function calls, what a
//! file imports — but far less than a real Rust parse. This module
//! extracts exactly that middle layer:
//!
//! - **items**: `fn` (free, `impl` methods, trait default methods,
//!   functions nested in bodies), `mod` (inline), `impl` blocks with
//!   their target type (and trait, for `impl Trait for Type`), `use`
//!   declarations with the names they bind;
//! - **call expressions** inside every fn body: path calls
//!   (`a::b::f(…)`, turbofish included), method calls (`.m(…)`), and
//!   macro invocations (`panic!(…)`);
//! - **spans**: every top-level item carries its byte span, and
//!   [`ParsedFile::segments`] returns an item/gap sequence that tiles
//!   the file exactly — the property the parser proptests pin, mirroring
//!   the lexer's token-tiling contract.
//!
//! Like the lexer, the parser is **total**: any byte soup parses to
//! *some* item list without panicking; unrecognized tokens fall into
//! gaps. It is also deliberately under-ambitious — no type inference, no
//! trait resolution, no macro expansion. The call-graph layer
//! ([`crate::callgraph`]) compensates with conservative name-based
//! resolution; the corners that stay dark (calls through function
//! pointers, macro-generated code) are documented there.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// Keywords that can start an expression and are followed by `(` without
/// being calls (`if (a) …`, `while (…)`, `return (x)`, …).
const EXPR_KEYWORDS: [&str; 24] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "in",
    "as", "move", "ref", "mut", "where", "dyn", "box", "await", "yield", "unsafe", "do", "typeof",
    "abstract",
];

/// Call names whose argument closure swallows panics (or runs them on
/// another thread): a panic **inside** their parenthesized argument does
/// not unwind into the enclosing function, so `transitive-panic` must
/// not traverse those edges. Determinism taint still flows through them
/// (a caught panic is contained; a caught clock read is not).
const PANIC_GUARDS: [&str; 2] = ["catch_unwind", "spawn"];

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `a::b::f(…)` — the full segment path as written (1+ segments).
    Path(Vec<String>),
    /// `.m(…)` — receiver type unknown.
    Method(String),
    /// `name!(…)` — macro invocation.
    Macro(String),
}

/// One call expression inside a fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    pub callee: Callee,
    /// Byte offset of the callee's first token.
    pub byte: usize,
    /// 1-based source line of the call.
    pub line: usize,
    /// True when the call happens inside the argument parentheses of a
    /// [`PANIC_GUARDS`] call (`catch_unwind(…)` / `spawn(…)`).
    pub guarded: bool,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Target type of the enclosing `impl` (or trait name for trait
    /// default methods); `None` for free functions.
    pub impl_type: Option<String>,
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Byte span from the first modifier/keyword token through the
    /// closing body brace (or terminating `;`).
    pub span: (usize, usize),
    /// Byte span of the body `{ … }` braces; `None` for body-less
    /// declarations (trait signatures, extern fns).
    pub body: Option<(usize, usize)>,
    pub calls: Vec<Call>,
}

/// One name bound by a `use` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseBind {
    /// The name as visible in this file (alias when `as` is used).
    pub name: String,
    /// First path segment: `thermaware_lp`, `std`, `crate`, `super`, …
    pub root: String,
}

/// Top-level segment kinds for the tiling view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    Item,
    Gap,
}

/// One top-level segment; [`ParsedFile::segments`] tiles the file with
/// these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    pub kind: SegmentKind,
    pub start: usize,
    pub end: usize,
}

/// Everything the parser extracts from one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
    pub uses: Vec<UseBind>,
    /// Byte spans of top-level items, in source order, non-overlapping.
    pub item_spans: Vec<(usize, usize)>,
    /// `(type, trait)` of every `impl Trait for Type` block.
    pub trait_impls: Vec<(String, String)>,
}

impl ParsedFile {
    /// The item/gap tiling of a file of `len` bytes: alternating
    /// segments whose concatenation covers `[0, len)` exactly. Item
    /// segments are [`Self::item_spans`]; everything between, before and
    /// after is a gap (whitespace, comments, stray tokens).
    pub fn segments(&self, len: usize) -> Vec<Segment> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        for &(start, end) in &self.item_spans {
            // item_spans are produced in order and disjoint by
            // construction; clamp defensively so the tiling contract
            // holds even against a parser bug.
            let start = start.clamp(pos, len);
            let end = end.clamp(start, len);
            if start > pos {
                out.push(Segment { kind: SegmentKind::Gap, start: pos, end: start });
            }
            if end > start {
                out.push(Segment { kind: SegmentKind::Item, start, end });
            }
            pos = end;
        }
        if pos < len {
            out.push(Segment { kind: SegmentKind::Gap, start: pos, end: len });
        }
        out
    }
}

/// Parse one source file. Total: never panics, on any input.
pub fn parse(file: &SourceFile) -> ParsedFile {
    let code: Vec<&Token> = file
        .tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let mut p = Parser {
        file,
        code,
        out: ParsedFile::default(),
    };
    let end = p.code.len();
    p.items(0, end, None, true);
    p.out
}

struct Parser<'a> {
    file: &'a SourceFile,
    code: Vec<&'a Token>,
    out: ParsedFile,
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &str {
        self.code.get(i).map(|t| t.text(&self.file.text)).unwrap_or("")
    }

    fn kind(&self, i: usize) -> Option<TokenKind> {
        self.code.get(i).map(|t| t.kind)
    }

    fn start_byte(&self, i: usize) -> usize {
        self.code.get(i).map(|t| t.start).unwrap_or(self.file.text.len())
    }

    fn end_byte(&self, i: usize) -> usize {
        self.code.get(i).map(|t| t.end).unwrap_or(self.file.text.len())
    }

    /// Skip one `#[…]` / `#![…]` attribute starting at `i`; returns the
    /// index one past the closing `]` (or `i + 1` if not an attribute).
    fn skip_attr(&self, i: usize) -> usize {
        if self.text(i) != "#" {
            return i + 1;
        }
        let mut j = i + 1;
        if self.text(j) == "!" {
            j += 1;
        }
        if self.text(j) != "[" {
            return i + 1;
        }
        let mut depth = 0usize;
        while j < self.code.len() {
            match self.text(j) {
                "[" | "(" => depth += 1,
                "]" | ")" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.code.len()
    }

    /// Skip a balanced `<…>` generic-argument list starting at `i`
    /// (which must point at `<`); returns the index one past the
    /// matching `>`. The lexer never glues `<<`/`>>`, and `->`/`=>` are
    /// distinct tokens, so plain angle counting is exact here.
    fn skip_angles(&self, i: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < self.code.len() {
            match self.text(j) {
                "<" => depth += 1,
                ">" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.code.len()
    }

    /// Skip a balanced bracket run starting at `i` (pointing at `{`,
    /// `(` or `[`); returns one past the matching closer.
    fn skip_balanced(&self, i: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < self.code.len() {
            match self.text(j) {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.code.len()
    }

    /// Skip to the terminating `;` at bracket depth 0 (consts, statics,
    /// type aliases — their initializers may contain braces).
    fn skip_to_semi(&self, i: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < self.code.len() {
            match self.text(j) {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        self.code.len()
    }

    /// Parse the items in `code[i..end]`. `impl_type` is the enclosing
    /// impl/trait target for fn items found here; `top_level` records
    /// item spans into [`ParsedFile::item_spans`]. Returns nothing — the
    /// walk is driven to completion internally.
    fn items(&mut self, mut i: usize, end: usize, impl_type: Option<&str>, top_level: bool) {
        while i < end {
            let item_start = i;
            // Attributes + modifiers before the defining keyword.
            let mut j = i;
            while self.text(j) == "#" {
                let nj = self.skip_attr(j);
                if nj <= j {
                    break;
                }
                j = nj;
            }
            let mut is_pub = false;
            loop {
                match self.text(j) {
                    "pub" => {
                        is_pub = true;
                        j += 1;
                        if self.text(j) == "(" {
                            j = self.skip_balanced(j);
                        }
                    }
                    "const" if self.text(j + 1) == "fn" => j += 1,
                    "unsafe" | "async" | "default" => j += 1,
                    "extern" if self.kind(j + 1) == Some(TokenKind::StrLit) => j += 2,
                    _ => break,
                }
            }
            let next = match self.text(j) {
                "fn" => self.item_fn(item_start, j, impl_type, is_pub, top_level),
                "mod" => self.item_mod(item_start, j, top_level),
                "impl" => self.item_impl(item_start, j, top_level),
                "trait" => self.item_trait(item_start, j, top_level),
                "use" => self.item_use(item_start, j, is_pub, top_level),
                "struct" | "enum" | "union" => self.item_type_def(item_start, j, top_level),
                "const" | "static" | "type" => {
                    let e = self.skip_to_semi(j);
                    self.record_span(item_start, e, top_level);
                    e
                }
                "macro_rules" => {
                    // macro_rules ! name { … }
                    let mut k = j + 1;
                    while k < self.code.len() && !matches!(self.text(k), "{" | "(" | "[") {
                        k += 1;
                    }
                    let e = if k < self.code.len() { self.skip_balanced(k) } else { self.code.len() };
                    self.record_span(item_start, e, top_level);
                    e
                }
                "extern" => {
                    // extern block `extern "C" { … }` (the fn-modifier
                    // form was consumed above).
                    let mut k = j + 1;
                    if self.kind(k) == Some(TokenKind::StrLit) {
                        k += 1;
                    }
                    let e = if self.text(k) == "{" { self.skip_balanced(k) } else { k + 1 };
                    self.record_span(item_start, e, top_level);
                    e
                }
                _ => {
                    // Not an item start — advance one token (gap).
                    j.max(item_start) + 1
                }
            };
            i = next.max(i + 1);
        }
    }

    fn record_span(&mut self, start_tok: usize, end_tok: usize, top_level: bool) {
        if !top_level {
            return;
        }
        let start = self.start_byte(start_tok);
        let end = self.end_byte(end_tok.saturating_sub(1)).max(start);
        // Keep spans ordered and disjoint even if a parse stumbled.
        let prev_end = self.out.item_spans.last().map(|&(_, e)| e).unwrap_or(0);
        let start = start.max(prev_end);
        if end > start {
            self.out.item_spans.push((start, end));
        }
    }

    /// `fn name<…>(…) -> … { body }` (or `;`). Returns one past the item.
    fn item_fn(
        &mut self,
        item_start: usize,
        fn_kw: usize,
        impl_type: Option<&str>,
        is_pub: bool,
        top_level: bool,
    ) -> usize {
        let name_idx = fn_kw + 1;
        if self.kind(name_idx) != Some(TokenKind::Ident) {
            // `fn(` pointer type or garbage — not an item.
            return fn_kw + 1;
        }
        let name = self.text(name_idx).to_string();
        let mut j = name_idx + 1;
        if self.text(j) == "<" {
            j = self.skip_angles(j);
        }
        if self.text(j) == "(" {
            j = self.skip_balanced(j);
        }
        // Scan for the body `{` or terminating `;` at bracket depth 0.
        // Return types and where clauses contain parens (`-> (f64, f64)`,
        // `Fn(…) -> …`) but never braces.
        let mut depth = 0usize;
        let mut body: Option<(usize, usize)> = None;
        let mut body_toks: Option<(usize, usize)> = None;
        let mut end_tok = j;
        while j < self.code.len() {
            match self.text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => {
                    end_tok = j + 1;
                    break;
                }
                "{" if depth == 0 => {
                    let close = self.skip_balanced(j);
                    body = Some((self.start_byte(j), self.end_byte(close.saturating_sub(1))));
                    // First token inside the braces .. the closing `}`.
                    body_toks = Some((j + 1, close.saturating_sub(1)));
                    end_tok = close;
                    break;
                }
                _ => {}
            }
            j += 1;
            end_tok = j;
        }
        let span = (
            self.start_byte(item_start),
            self.end_byte(end_tok.saturating_sub(1)).max(self.start_byte(item_start)),
        );
        let line = self.file.line_of(self.start_byte(fn_kw));
        let fn_index = self.out.fns.len();
        self.out.fns.push(FnItem {
            name,
            impl_type: impl_type.map(str::to_string),
            is_pub,
            line,
            span,
            body,
            calls: Vec::new(),
        });
        if let Some((open, close)) = body_toks {
            let calls = self.scan_body(open, close, impl_type, top_level);
            self.out.fns[fn_index].calls = calls;
        }
        self.record_span(item_start, end_tok, top_level);
        end_tok
    }

    /// Walk a fn body: collect call expressions, and parse nested `fn`
    /// items as their own [`FnItem`]s (their tokens are excluded from
    /// this body's calls).
    fn scan_body(
        &mut self,
        mut i: usize,
        end: usize,
        impl_type: Option<&str>,
        _top_level: bool,
    ) -> Vec<Call> {
        let mut calls = Vec::new();
        // Active panic-guard regions: byte offsets where each ends.
        let mut guards: Vec<usize> = Vec::new();
        while i < end {
            let t = self.text(i);
            let byte = self.start_byte(i);
            guards.retain(|&g_end| byte < g_end);
            // Nested fn item (not an `fn(…)` pointer type).
            if t == "fn" && self.kind(i + 1) == Some(TokenKind::Ident) {
                let nxt = self.item_fn(i, i, impl_type, false, false);
                i = nxt.max(i + 1);
                continue;
            }
            if self.kind(i) == Some(TokenKind::Ident) && !EXPR_KEYWORDS.contains(&t) {
                // Method call: `.name(` or `.name::<…>(`.
                if self.text(i.wrapping_sub(1)) == "." && i > 0 {
                    let mut j = i + 1;
                    if self.text(j) == "::" && self.text(j + 1) == "<" {
                        j = self.skip_angles(j + 1);
                    }
                    if self.text(j) == "(" {
                        self.push_call(&mut calls, Callee::Method(t.to_string()), i, &mut guards, j);
                    }
                    i += 1;
                    continue;
                }
                // Macro: `name!(…)` / `name!{…}` / `name![…]`.
                if self.text(i + 1) == "!" && matches!(self.text(i + 2), "(" | "{" | "[") {
                    calls.push(Call {
                        callee: Callee::Macro(t.to_string()),
                        byte,
                        line: self.file.line_of(byte),
                        guarded: !guards.is_empty(),
                    });
                    i += 2;
                    continue;
                }
                // Path call: `seg(::seg)*` then optional turbofish, then `(`.
                // Only start a path at its first segment.
                if self.text(i.wrapping_sub(1)) != "::" || i == 0 {
                    let mut segs = vec![t.to_string()];
                    let mut j = i + 1;
                    while self.text(j) == "::" && self.kind(j + 1) == Some(TokenKind::Ident) {
                        segs.push(self.text(j + 1).to_string());
                        j += 2;
                    }
                    let mut k = j;
                    if self.text(k) == "::" && self.text(k + 1) == "<" {
                        k = self.skip_angles(k + 1);
                    }
                    if self.text(k) == "(" {
                        self.push_call(&mut calls, Callee::Path(segs), i, &mut guards, k);
                    }
                    i = j.max(i + 1);
                    continue;
                }
            }
            i += 1;
        }
        calls
    }

    /// Record one call, opening a guard region when the callee is a
    /// panic guard (`open_paren` points at its `(`).
    fn push_call(
        &mut self,
        calls: &mut Vec<Call>,
        callee: Callee,
        at: usize,
        guards: &mut Vec<usize>,
        open_paren: usize,
    ) {
        let byte = self.start_byte(at);
        let name = match &callee {
            Callee::Path(segs) => segs.last().map(String::as_str).unwrap_or(""),
            Callee::Method(m) => m.as_str(),
            Callee::Macro(m) => m.as_str(),
        };
        let is_guard = PANIC_GUARDS.contains(&name);
        calls.push(Call {
            callee,
            byte,
            line: self.file.line_of(byte),
            guarded: !guards.is_empty(),
        });
        if is_guard {
            let close = self.skip_balanced(open_paren);
            guards.push(self.start_byte(close.saturating_sub(1)) + 1);
        }
    }

    /// `mod name { … }` (recurse) or `mod name;`.
    fn item_mod(&mut self, item_start: usize, kw: usize, top_level: bool) -> usize {
        let mut j = kw + 1;
        if self.kind(j) == Some(TokenKind::Ident) {
            j += 1;
        }
        if self.text(j) == "{" {
            let close = self.skip_balanced(j);
            self.items(j + 1, close.saturating_sub(1), None, false);
            self.record_span(item_start, close, top_level);
            close
        } else if self.text(j) == ";" {
            self.record_span(item_start, j + 1, top_level);
            j + 1
        } else {
            kw + 1
        }
    }

    /// `impl<…> Type { … }` / `impl<…> Trait for Type { … }`.
    fn item_impl(&mut self, item_start: usize, kw: usize, top_level: bool) -> usize {
        let mut j = kw + 1;
        if self.text(j) == "<" {
            j = self.skip_angles(j);
        }
        // Collect the target type: idents up to `{`/`where`, restarting
        // after `for`; the type is the last path segment before any
        // generic arguments.
        let mut target: Option<String> = None;
        let mut trait_name: Option<String> = None;
        let mut after_angle = false;
        while j < self.code.len() {
            match self.text(j) {
                "{" => break,
                ";" => {
                    // `impl Trait for Type;` (negative/marker impls).
                    self.record_span(item_start, j + 1, top_level);
                    return j + 1;
                }
                "for" => {
                    trait_name = target.take();
                    after_angle = false;
                    j += 1;
                }
                "where" => {
                    // Bounds may mention types; stop collecting.
                    while j < self.code.len() && self.text(j) != "{" && self.text(j) != ";" {
                        j += 1;
                    }
                }
                "<" => {
                    j = self.skip_angles(j);
                    after_angle = true;
                }
                _ => {
                    if self.kind(j) == Some(TokenKind::Ident) && !after_angle {
                        let t = self.text(j);
                        if t != "dyn" && t != "mut" {
                            target = Some(t.to_string());
                        }
                    }
                    j += 1;
                }
            }
        }
        if self.text(j) != "{" {
            return kw + 1;
        }
        let close = self.skip_balanced(j);
        if let (Some(ty), Some(tr)) = (&target, trait_name) {
            self.out.trait_impls.push((ty.clone(), tr));
        }
        let target = target.unwrap_or_default();
        let impl_type = if target.is_empty() { None } else { Some(target) };
        self.items(j + 1, close.saturating_sub(1), impl_type.as_deref(), false);
        self.record_span(item_start, close, top_level);
        close
    }

    /// `trait Name { … }` — default method bodies are parsed with the
    /// trait name as their impl type.
    fn item_trait(&mut self, item_start: usize, kw: usize, top_level: bool) -> usize {
        let name = if self.kind(kw + 1) == Some(TokenKind::Ident) {
            Some(self.text(kw + 1).to_string())
        } else {
            None
        };
        let mut j = kw + 1;
        while j < self.code.len() && !matches!(self.text(j), "{" | ";") {
            if self.text(j) == "<" {
                j = self.skip_angles(j);
            } else {
                j += 1;
            }
        }
        if self.text(j) == "{" {
            let close = self.skip_balanced(j);
            self.items(j + 1, close.saturating_sub(1), name.as_deref(), false);
            self.record_span(item_start, close, top_level);
            close
        } else {
            self.record_span(item_start, j + 1, top_level);
            j + 1
        }
    }

    /// `use path::{a, b as c};` — record every bound name with its root
    /// segment.
    fn item_use(&mut self, item_start: usize, kw: usize, _is_pub: bool, top_level: bool) -> usize {
        let semi = self.skip_to_semi(kw);
        let mut root: Option<String> = None;
        let mut prev_ident: Option<String> = None;
        let mut k = kw + 1;
        while k < semi {
            let t = self.text(k);
            match t {
                "as" => {
                    // Alias: the *next* ident is the bound name.
                    if self.kind(k + 1) == Some(TokenKind::Ident) {
                        let alias = self.text(k + 1).to_string();
                        if let Some(r) = &root {
                            self.out.uses.push(UseBind { name: alias, root: r.clone() });
                        }
                        prev_ident = None;
                        k += 2;
                        continue;
                    }
                }
                "," | "}" | ";" => {
                    if let (Some(name), Some(r)) = (prev_ident.take(), root.as_ref()) {
                        self.out.uses.push(UseBind { name, root: r.clone() });
                    }
                }
                "::" | "{" | "*" => {
                    if t == "{" || t == "::" {
                        prev_ident = None;
                    }
                }
                _ => {
                    if self.kind(k) == Some(TokenKind::Ident) {
                        if root.is_none() {
                            root = Some(t.to_string());
                        }
                        prev_ident = Some(t.to_string());
                    }
                }
            }
            k += 1;
        }
        // `use a::b::c;` — the trailing ident before `;` binds `c`.
        if let (Some(name), Some(r)) = (prev_ident, root.as_ref()) {
            // `use thermaware_lp;` binds the root itself.
            self.out.uses.push(UseBind { name, root: r.clone() });
        }
        self.record_span(item_start, semi, top_level);
        semi
    }

    /// `struct`/`enum`/`union` — skip the definition (tuple structs end
    /// in `;`, braced ones in `}`), no recursion needed.
    fn item_type_def(&mut self, item_start: usize, kw: usize, top_level: bool) -> usize {
        let mut j = kw + 1;
        while j < self.code.len() {
            match self.text(j) {
                "<" => j = self.skip_angles(j),
                "(" => {
                    // Tuple struct: `struct X(f64);`.
                    j = self.skip_balanced(j);
                }
                "{" => {
                    let close = self.skip_balanced(j);
                    self.record_span(item_start, close, top_level);
                    return close;
                }
                ";" => {
                    self.record_span(item_start, j + 1, top_level);
                    return j + 1;
                }
                _ => j += 1,
            }
        }
        self.record_span(item_start, self.code.len(), top_level);
        self.code.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&SourceFile::new("t.rs".into(), "x".into(), src.into()))
    }

    #[test]
    fn free_fn_and_method() {
        let p = parse_src(
            "pub fn solve(a: f64) -> f64 { helper(a) }\n\
             struct S;\n\
             impl S { fn m(&self) { self.helper2(); other::f(); } }\n",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "solve");
        assert!(p.fns[0].is_pub);
        assert_eq!(p.fns[0].impl_type, None);
        assert_eq!(p.fns[0].calls.len(), 1);
        assert_eq!(p.fns[0].calls[0].callee, Callee::Path(vec!["helper".into()]));
        assert_eq!(p.fns[1].name, "m");
        assert_eq!(p.fns[1].impl_type.as_deref(), Some("S"));
        assert_eq!(
            p.fns[1].calls,
            vec![
                Call { callee: Callee::Method("helper2".into()), byte: p.fns[1].calls[0].byte, line: 3, guarded: false },
                Call {
                    callee: Callee::Path(vec!["other".into(), "f".into()]),
                    byte: p.fns[1].calls[1].byte,
                    line: 3,
                    guarded: false
                },
            ]
        );
    }

    #[test]
    fn impl_trait_for_type_takes_the_type() {
        let p = parse_src("impl<T: Clone> fmt::Display for Plan<T> { fn fmt(&self) { write!(f, \"x\"); } }");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Plan"));
        assert_eq!(p.trait_impls, vec![("Plan".to_string(), "Display".to_string())]);
        assert!(parse_src("impl Plan { fn f() {} }").trait_impls.is_empty());
    }

    #[test]
    fn macro_and_turbofish_calls() {
        let p = parse_src("fn f() { panic!(\"x\"); xs.iter().collect::<Vec<_>>(); g::<u8>(1); }");
        let c = &p.fns[0].calls;
        assert!(c.iter().any(|c| c.callee == Callee::Macro("panic".into())));
        assert!(c.iter().any(|c| c.callee == Callee::Method("collect".into())));
        assert!(c.iter().any(|c| c.callee == Callee::Path(vec!["g".into()])));
    }

    #[test]
    fn guard_regions_mark_calls() {
        let p = parse_src(
            "fn f() { let r = catch_unwind(|| inner_solve(x)); after(); }",
        );
        let c = &p.fns[0].calls;
        let inner = c.iter().find(|c| c.callee == Callee::Path(vec!["inner_solve".into()])).expect("inner");
        let after = c.iter().find(|c| c.callee == Callee::Path(vec!["after".into()])).expect("after");
        assert!(inner.guarded, "call inside catch_unwind must be guarded");
        assert!(!after.guarded, "call after the guard region must not be guarded");
    }

    #[test]
    fn use_binds_names_and_aliases() {
        let p = parse_src(
            "use thermaware_lp::{Problem, solve as lp_solve};\nuse std::time::Instant;\nuse thermaware_core;\n",
        );
        assert!(p.uses.contains(&UseBind { name: "Problem".into(), root: "thermaware_lp".into() }));
        assert!(p.uses.contains(&UseBind { name: "lp_solve".into(), root: "thermaware_lp".into() }));
        assert!(p.uses.contains(&UseBind { name: "Instant".into(), root: "std".into() }));
        assert!(p.uses.contains(&UseBind { name: "thermaware_core".into(), root: "thermaware_core".into() }));
    }

    #[test]
    fn nested_fn_calls_stay_separate() {
        let p = parse_src("fn outer() { fn inner() { deep(); } inner(); }");
        assert_eq!(p.fns.len(), 2);
        let outer = p.fns.iter().find(|f| f.name == "outer").expect("outer");
        let inner = p.fns.iter().find(|f| f.name == "inner").expect("inner");
        assert!(outer.calls.iter().any(|c| c.callee == Callee::Path(vec!["inner".into()])));
        assert!(!outer.calls.iter().any(|c| c.callee == Callee::Path(vec!["deep".into()])));
        assert!(inner.calls.iter().any(|c| c.callee == Callee::Path(vec!["deep".into()])));
    }

    #[test]
    fn segments_tile_the_file() {
        let src = "// header\nuse std::fmt;\n\npub fn a() {}\n\nmod m { fn b() {} }\n// tail\n";
        let p = parse_src(src);
        let segs = p.segments(src.len());
        assert_eq!(segs.first().map(|s| s.start), Some(0));
        assert_eq!(segs.last().map(|s| s.end), Some(src.len()));
        for w in segs.windows(2) {
            assert_eq!(w[0].end, w[1].start, "segments must tile");
        }
        assert_eq!(segs.iter().filter(|s| s.kind == SegmentKind::Item).count(), 3);
    }

    #[test]
    fn keywords_are_not_calls() {
        let p = parse_src("fn f(x: bool) -> u8 { if (x) { return (1); } while (x) {} match (x) { _ => 0 } }");
        assert!(p.fns[0].calls.is_empty(), "{:?}", p.fns[0].calls);
    }
}
