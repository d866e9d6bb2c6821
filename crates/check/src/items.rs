//! A lightweight item / brace-tree extractor over the [`crate::lex`]
//! token stream.
//!
//! This is not a Rust parser: it recognises just enough structure — item
//! keywords, visibility, attributes, balanced brace/generic skipping — to
//! answer the questions the analysis passes ask: *what public items exist
//! and with what signature* (the API-surface snapshot) and *which items
//! are `#[cfg(test)]`*. Function bodies are skipped wholesale; passes that
//! need body tokens (lock discipline, unit audit) walk the raw stream.

use crate::lex::{LexedFile, TokKind, Token};

/// The syntactic class of an extracted item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { ... }` or `mod name;`
    Mod,
    /// Any `fn`, including `const fn` / `async fn` / `unsafe fn`.
    Fn,
    /// `struct`
    Struct,
    /// `enum`
    Enum,
    /// `union`
    Union,
    /// `trait`
    Trait,
    /// `const NAME: T = ...;`
    Const,
    /// `static NAME: T = ...;`
    Static,
    /// `type Alias = ...;`
    TypeAlias,
    /// `use path::to::thing;` — `name` holds the rendered path.
    Use,
    /// `impl Type { ... }` or `impl Trait for Type { ... }` — `name`
    /// holds the `Self` type's base identifier.
    Impl,
    /// `macro_rules! name { ... }`
    Macro,
}

/// Item visibility as written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vis {
    /// `pub`
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in ...)`
    Restricted,
    /// No visibility qualifier.
    Private,
}

/// One extracted item, possibly with nested children (mods, impls,
/// traits).
#[derive(Clone, Debug)]
pub struct Item {
    /// What kind of item this is.
    pub kind: ItemKind,
    /// The item's name (`Self` type for impls, path for uses).
    pub name: String,
    /// Visibility as written on the item itself.
    pub vis: Vis,
    /// 1-based line of the item's first signature token.
    pub line: usize,
    /// The rendered header: tokens from the first qualifier up to (not
    /// including) the body brace / terminating `;` / initialiser `=`.
    pub signature: String,
    /// Inner text of each outer attribute, e.g. `cold`.
    pub attrs: Vec<String>,
    /// `true` when an attribute marks the item test-only
    /// (`#[cfg(test)]`, `#[cfg(all(test, ...))]`, `#[test]`).
    pub cfg_test: bool,
    /// For [`ItemKind::Impl`]: `true` when this is `impl Trait for Type`.
    pub trait_impl: bool,
    /// For [`ItemKind::Fn`]: token-index range (half-open, into the
    /// lexed file's token stream) of the body between its braces.
    /// `None` for bodyless functions (trait method declarations) and
    /// every other item kind.
    pub body: Option<(usize, usize)>,
    /// Token-index range (half-open) of the tokens that declare what the
    /// item exposes to its users: the signature of a `fn`, `const` or
    /// `static`, the header of a `mod` or `impl`, the whole item (fields,
    /// variants, method declarations, aliased type) otherwise.
    pub decl: (usize, usize),
    /// Nested items (module / impl / trait bodies).
    pub children: Vec<Item>,
}

/// Extracts the item tree of a lexed file.
#[must_use]
pub(crate) fn parse_items(file: &LexedFile) -> Vec<Item> {
    let mut p = Parser {
        toks: &file.tokens,
        pos: 0,
    };
    p.items_until_close(false)
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
}

static EOF: Token = Token {
    kind: TokKind::Punct,
    text: String::new(),
    line: 0,
};

impl<'a> Parser<'a> {
    fn peek(&self, ahead: usize) -> &'a Token {
        self.toks.get(self.pos + ahead).unwrap_or(&EOF)
    }

    fn bump(&mut self) -> &'a Token {
        let t = self.toks.get(self.pos).unwrap_or(&EOF);
        self.pos = (self.pos + 1).min(self.toks.len());
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Skips a balanced `open ... close` group (`{}`, `()` or `[]`);
    /// assumes the cursor is on the `open`.
    fn skip_group(&mut self, open: char, close: char) {
        let mut depth = 0usize;
        while !self.at_end() {
            let t = self.bump();
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    /// Skips a balanced generic list `< ... >`; assumes cursor is on `<`.
    /// `->` inside (e.g. `Fn() -> T` bounds) does not close the list.
    fn skip_generics(&mut self) {
        let mut depth = 0usize;
        let mut prev_minus = false;
        while !self.at_end() {
            let t = self.bump();
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !prev_minus {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return;
                }
            }
            prev_minus = t.is_punct('-');
        }
    }

    /// Collects outer attributes (`#[...]`) at the cursor; inner
    /// attributes (`#![...]`) are skipped without being recorded.
    fn attributes(&mut self) -> Vec<String> {
        let mut attrs = Vec::new();
        loop {
            if self.peek(0).is_punct('#') && self.peek(1).is_punct('[') {
                self.bump(); // #
                attrs.push(self.bracketed_text());
            } else if self.peek(0).is_punct('#')
                && self.peek(1).is_punct('!')
                && self.peek(2).is_punct('[')
            {
                self.bump();
                self.bump();
                let _ = self.bracketed_text();
            } else {
                return attrs;
            }
        }
    }

    /// Renders a balanced `[ ... ]` (cursor on `[`) as text, brackets
    /// excluded.
    fn bracketed_text(&mut self) -> String {
        let mut depth = 0usize;
        let mut out: Vec<&Token> = Vec::new();
        while !self.at_end() {
            let t = self.bump();
            if t.is_punct('[') {
                depth += 1;
                if depth == 1 {
                    continue;
                }
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            out.push(t);
        }
        render(&out)
    }

    /// Parses items until the brace closing this block (when `nested`) or
    /// the end of the file.
    fn items_until_close(&mut self, nested: bool) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            if self.at_end() {
                return items;
            }
            if nested && self.peek(0).is_punct('}') {
                self.bump();
                return items;
            }
            let attrs = self.attributes();
            if let Some(item) = self.item(attrs) {
                items.push(item);
            }
        }
    }

    /// Attempts to parse one item at the cursor; advances past whatever
    /// is there either way.
    fn item(&mut self, attrs: Vec<String>) -> Option<Item> {
        let start = self.pos;
        let line = self.peek(0).line;

        // Visibility.
        let mut vis = Vis::Private;
        if self.peek(0).is_ident("pub") {
            self.bump();
            vis = if self.peek(0).is_punct('(') {
                self.skip_group('(', ')');
                Vis::Restricted
            } else {
                Vis::Pub
            };
        }

        // Qualifiers before the item keyword.
        while self.peek(0).is_ident("unsafe")
            || self.peek(0).is_ident("async")
            || (self.peek(0).is_ident("const") && self.peek(1).is_ident("fn"))
            || (self.peek(0).is_ident("extern") && self.peek(1).kind == TokKind::Str)
        {
            if self.peek(0).is_ident("extern") {
                self.bump();
            }
            self.bump();
        }

        let kw = self.peek(0).clone();
        let kind = match kw.text.as_str() {
            "mod" => ItemKind::Mod,
            "fn" => ItemKind::Fn,
            "struct" => ItemKind::Struct,
            "enum" => ItemKind::Enum,
            "union" if self.peek(1).kind == TokKind::Ident => ItemKind::Union,
            "trait" => ItemKind::Trait,
            "const" => ItemKind::Const,
            "static" => ItemKind::Static,
            "type" => ItemKind::TypeAlias,
            "use" => ItemKind::Use,
            "impl" => ItemKind::Impl,
            "macro_rules" => ItemKind::Macro,
            _ => {
                // Not an item start (stray token, `extern crate`, ...):
                // consume one token — or a whole balanced block so we never
                // descend into non-item braces.
                if self.peek(0).is_punct('{') {
                    self.skip_group('{', '}');
                } else {
                    self.bump();
                }
                return None;
            }
        };
        self.bump(); // the keyword

        let cfg_test = attrs.iter().any(|a| {
            let squeezed = a.replace(' ', "");
            squeezed.starts_with("cfg(test")
                || squeezed.starts_with("cfg(all(test")
                || squeezed == "test"
        });

        match kind {
            ItemKind::Mod => {
                let name = self.bump().text.clone();
                let header_end = self.pos;
                let signature = self.render_span(start, header_end);
                let children = if self.peek(0).is_punct('{') {
                    self.bump();
                    self.items_until_close(true)
                } else {
                    self.until_semi();
                    Vec::new()
                };
                Some(Item {
                    kind,
                    name,
                    vis,
                    line,
                    signature,
                    attrs,
                    cfg_test,
                    trait_impl: false,
                    body: None,
                    decl: (start, header_end),
                    children,
                })
            }
            ItemKind::Fn => {
                let name = self.bump().text.clone();
                let (sig_end, body) = self.scan_to_body();
                let signature = self.render_span(start, sig_end);
                Some(Item {
                    kind,
                    name,
                    vis,
                    line,
                    signature,
                    attrs,
                    cfg_test,
                    trait_impl: false,
                    body,
                    decl: (start, sig_end),
                    children: Vec::new(),
                })
            }
            ItemKind::Struct | ItemKind::Enum | ItemKind::Union | ItemKind::Const
            | ItemKind::Static | ItemKind::TypeAlias => {
                let name = self.bump().text.clone();
                let (sig_end, _) = self.scan_to_body();
                let signature = self.render_span(start, sig_end);
                let decl_end = match kind {
                    ItemKind::Const | ItemKind::Static => sig_end,
                    _ => self.pos,
                };
                Some(Item {
                    kind,
                    name,
                    vis,
                    line,
                    signature,
                    attrs,
                    cfg_test,
                    trait_impl: false,
                    body: None,
                    decl: (start, decl_end),
                    children: Vec::new(),
                })
            }
            ItemKind::Use => {
                let path_start = self.pos;
                self.until_semi();
                let name = self.render_span(path_start, self.pos.saturating_sub(1));
                let signature = format!("use {name}");
                Some(Item {
                    kind,
                    name,
                    vis,
                    line,
                    signature,
                    attrs,
                    cfg_test,
                    trait_impl: false,
                    body: None,
                    decl: (start, self.pos),
                    children: Vec::new(),
                })
            }
            ItemKind::Trait => {
                let name = self.bump().text.clone();
                let sig_end = self.scan_to_brace();
                let signature = self.render_span(start, sig_end);
                let children = if self.peek(0).is_punct('{') {
                    self.bump();
                    self.items_until_close(true)
                } else {
                    Vec::new()
                };
                Some(Item {
                    kind,
                    name,
                    vis,
                    line,
                    signature,
                    attrs,
                    cfg_test,
                    trait_impl: false,
                    body: None,
                    decl: (start, self.pos),
                    children,
                })
            }
            ItemKind::Impl => {
                if self.peek(0).is_punct('<') {
                    self.skip_generics();
                }
                // Tokens up to `{`, watching for a `for` that makes this a
                // trait impl; the Self type is the last plain ident path
                // segment before the body (generics skipped).
                let mut trait_impl = false;
                let mut self_name = String::new();
                loop {
                    let t = self.peek(0).clone();
                    if t.is_punct('{') || self.at_end() {
                        break;
                    }
                    if t.is_ident("for") {
                        trait_impl = true;
                        self_name.clear();
                        self.bump();
                        continue;
                    }
                    if t.is_ident("where") {
                        // where-clause: everything to `{` is bounds.
                        while !self.at_end() && !self.peek(0).is_punct('{') {
                            if self.peek(0).is_punct('<') {
                                self.skip_generics();
                            } else {
                                self.bump();
                            }
                        }
                        break;
                    }
                    if t.is_punct('<') {
                        self.skip_generics();
                        continue;
                    }
                    if t.kind == TokKind::Ident {
                        self_name = t.text.clone();
                    }
                    self.bump();
                }
                let header_end = self.pos;
                let signature = self.render_span(start, header_end);
                let children = if self.peek(0).is_punct('{') {
                    self.bump();
                    self.items_until_close(true)
                } else {
                    Vec::new()
                };
                Some(Item {
                    kind,
                    name: self_name,
                    vis,
                    line,
                    signature,
                    attrs,
                    cfg_test,
                    trait_impl,
                    body: None,
                    decl: (start, header_end),
                    children,
                })
            }
            ItemKind::Macro => {
                self.bump(); // `!`
                let name = self.bump().text.clone();
                if self.peek(0).is_punct('{') {
                    self.skip_group('{', '}');
                } else {
                    self.until_semi();
                }
                Some(Item {
                    kind,
                    name: name.clone(),
                    vis,
                    line,
                    signature: format!("macro_rules! {name}"),
                    attrs,
                    cfg_test,
                    trait_impl: false,
                    body: None,
                    decl: (start, self.pos),
                    children: Vec::new(),
                })
            }
        }
    }

    /// Advances to the item's body or terminator and returns the token
    /// index where the *signature* ends: stops before `{` (and skips the
    /// braced body), before `= ...` initialisers (skipping to `;`), or
    /// after a bare `;` / tuple-struct `(...);`. When a braced body was
    /// skipped, the second value is its inner token range (exclusive of
    /// the braces themselves).
    fn scan_to_body(&mut self) -> (usize, Option<(usize, usize)>) {
        loop {
            let t = self.peek(0).clone();
            if self.at_end() {
                return (self.pos, None);
            }
            if t.is_punct('{') {
                let end = self.pos;
                self.skip_group('{', '}');
                // `skip_group` consumed through the matching `}`:
                // the inner tokens are (end+1 .. pos-1).
                return (end, Some((end + 1, self.pos.saturating_sub(1))));
            }
            if t.is_punct(';') {
                let end = self.pos;
                self.bump();
                return (end, None);
            }
            if t.is_punct('=') && !self.peek(1).is_punct('=') {
                let end = self.pos;
                self.until_semi();
                return (end, None);
            }
            if t.is_punct('<') {
                self.skip_generics();
                continue;
            }
            if t.is_punct('(') {
                self.skip_group('(', ')');
                continue;
            }
            // An array type's `;` (`-> [u8; 4]`, `const X: [T; N]`) is
            // not the end of the signature.
            if t.is_punct('[') {
                self.skip_group('[', ']');
                continue;
            }
            self.bump();
        }
    }

    /// Advances to the `{` opening a trait body, returning the signature
    /// end index (does not consume the brace).
    fn scan_to_brace(&mut self) -> usize {
        loop {
            if self.at_end() || self.peek(0).is_punct('{') {
                return self.pos;
            }
            if self.peek(0).is_punct('<') {
                self.skip_generics();
            } else {
                self.bump();
            }
        }
    }

    /// Consumes tokens through the next top-level `;` (brace-aware, so a
    /// `const X: T = { ... };` initialiser does not end early).
    fn until_semi(&mut self) {
        let mut depth = 0usize;
        while !self.at_end() {
            let t = self.bump();
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
            } else if t.is_punct(';') && depth == 0 {
                return;
            }
        }
    }

    fn render_span(&self, start: usize, end: usize) -> String {
        let toks: Vec<&Token> = self.toks[start.min(end)..end].iter().collect();
        render(&toks)
    }
}

/// Renders tokens as deterministic, readable text: single spaces between
/// tokens, with `::`, `->`, `=>` and `..` fused back together.
fn render(toks: &[&Token]) -> String {
    let mut out = String::new();
    let mut glue_next = false;
    let mut i = 0;
    while i < toks.len() {
        let t = toks[i];
        // `::` glues to both neighbours (`crate::swap::SwapState`);
        // the other fusions keep normal spacing (`( ) -> u8`).
        let glued = t.is_punct(':') && toks.get(i + 1).is_some_and(|n| n.is_punct(':'));
        let fused = if glued {
            Some("::")
        } else if t.is_punct('-') && toks.get(i + 1).is_some_and(|n| n.is_punct('>')) {
            Some("->")
        } else if t.is_punct('=') && toks.get(i + 1).is_some_and(|n| n.is_punct('>')) {
            Some("=>")
        } else if t.is_punct('.') && toks.get(i + 1).is_some_and(|n| n.is_punct('.')) {
            Some("..")
        } else {
            None
        };
        if !out.is_empty() && !glue_next && !glued {
            out.push(' ');
        }
        glue_next = glued;
        match fused {
            Some(f) => {
                out.push_str(f);
                i += 2;
            }
            None => {
                match t.kind {
                    TokKind::Str => {
                        out.push('"');
                        out.push_str(&t.text);
                        out.push('"');
                    }
                    TokKind::Char => {
                        out.push('\'');
                        out.push_str(&t.text);
                        out.push('\'');
                    }
                    TokKind::Lifetime => {
                        out.push('\'');
                        out.push_str(&t.text);
                    }
                    _ => out.push_str(&t.text),
                }
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parse(src: &str) -> Vec<Item> {
        parse_items(&lex(src))
    }

    #[test]
    fn functions_structs_and_visibility() {
        let items = parse(
            "pub fn alpha(x: u8) -> u8 { x }\n\
             fn private() {}\n\
             pub(crate) fn scoped() {}\n\
             pub struct S { pub f: u8 }\n",
        );
        let names: Vec<(&str, Vis)> = items.iter().map(|i| (i.name.as_str(), i.vis)).collect();
        assert_eq!(
            names,
            [
                ("alpha", Vis::Pub),
                ("private", Vis::Private),
                ("scoped", Vis::Restricted),
                ("S", Vis::Pub),
            ]
        );
        assert_eq!(items[0].signature, "pub fn alpha ( x : u8 ) -> u8");
    }

    #[test]
    fn nested_modules_and_cfg_test() {
        let items = parse(
            "pub mod outer {\n\
                 pub fn inner() {}\n\
                 #[cfg(test)]\n\
                 mod tests { pub fn t() {} }\n\
             }\n",
        );
        assert_eq!(items.len(), 1);
        let outer = &items[0];
        assert_eq!(outer.kind, ItemKind::Mod);
        assert_eq!(outer.children.len(), 2);
        assert!(!outer.children[0].cfg_test);
        assert!(outer.children[1].cfg_test);
    }

    #[test]
    fn impl_blocks_capture_self_type_and_methods() {
        let items = parse(
            "impl<T: Clone> Queue<T> {\n\
                 pub fn push(&mut self, v: T) {}\n\
                 fn helper() {}\n\
             }\n\
             impl Drop for Queue<u8> { fn drop(&mut self) {} }\n",
        );
        assert_eq!(items[0].kind, ItemKind::Impl);
        assert_eq!(items[0].name, "Queue");
        assert!(!items[0].trait_impl);
        assert_eq!(items[0].children.len(), 2);
        assert_eq!(items[0].children[0].name, "push");
        assert_eq!(items[0].children[0].vis, Vis::Pub);
        assert!(items[1].trait_impl);
        assert_eq!(items[1].name, "Queue");
    }

    #[test]
    fn const_static_type_use_signatures_stop_at_initialiser() {
        let items = parse(
            "pub const N: usize = 4;\n\
             pub static S: u8 = 0;\n\
             pub type Alias = Vec<u8>;\n\
             pub use crate::queue::Queue;\n",
        );
        assert_eq!(items[0].signature, "pub const N : usize");
        assert_eq!(items[1].signature, "pub static S : u8");
        assert_eq!(items[2].signature, "pub type Alias");
        assert_eq!(items[3].kind, ItemKind::Use);
        assert_eq!(items[3].name, "crate::queue::Queue");
    }

    #[test]
    fn const_fn_is_a_fn_not_a_const() {
        let items = parse("pub const fn zero() -> u8 { 0 }\n");
        assert_eq!(items[0].kind, ItemKind::Fn);
        assert_eq!(items[0].name, "zero");
    }

    #[test]
    fn fn_bodies_are_skipped_including_inner_braces() {
        let items = parse(
            "pub fn outer() { let x = vec![1]; if x.len() > 0 { } struct NotAnItem; }\n\
             pub fn after() {}\n",
        );
        let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["outer", "after"]);
    }

    #[test]
    fn attributes_are_recorded() {
        let items = parse("#[cfg(feature = \"capture\")]\n#[inline]\npub fn gated() {}\n");
        assert_eq!(items[0].attrs.len(), 2);
        assert_eq!(items[0].attrs[0], "cfg ( feature = \"capture\" )");
        assert_eq!(items[0].attrs[1], "inline");
    }

    #[test]
    fn trait_bodies_yield_method_children() {
        let items = parse(
            "pub trait Sink: Send {\n\
                 fn push(&self, v: u8);\n\
                 fn flush(&self) {}\n\
             }\n",
        );
        assert_eq!(items[0].kind, ItemKind::Trait);
        let kids: Vec<&str> = items[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(kids, ["push", "flush"]);
    }

    #[test]
    fn where_clauses_and_generic_arrows_do_not_break_parsing() {
        let items = parse(
            "impl<F> Runner<F> where F: Fn(u8) -> u8 {\n\
                 pub fn run(&self) {}\n\
             }\n",
        );
        assert_eq!(items[0].name, "Runner");
        assert_eq!(items[0].children[0].name, "run");
    }

    #[test]
    fn tuple_struct_and_generics_in_signature() {
        let items = parse("pub struct Pair<T>(pub T, pub T);\npub fn after() {}\n");
        assert_eq!(items[0].name, "Pair");
        assert_eq!(items[1].name, "after");
    }
}
