//! A lightweight Rust *item* parser layered on the token scanner.
//!
//! [`crate::scan`] gives the analyzer a flat token stream; this module
//! recovers just enough structure for whole-program reasoning — the
//! function list (free functions and `impl` methods, with their inline
//! module path), the `use` imports, and every call site inside each
//! function body. No type inference: call resolution (in
//! [`crate::modres`]) is name-based and deliberately over-approximate,
//! which is the right bias for a reachability gate.
//!
//! The parser is a single forward pass with a scope stack: `mod name {`
//! pushes a module segment, `impl Type {` records the receiver type for
//! the methods inside, and `fn name` captures the body's token range so
//! later passes ([`crate::suspend`]) can re-walk statements.

use crate::scan::Tok;

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `name(...)` — a bare call, resolved through imports and scope.
    Bare,
    /// `a::b::c(...)` — a path call; the last segment is the function.
    Path,
    /// `.name(...)` — a method call on an unknown receiver type.
    Method,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// The path segments as written (`["Instant", "now"]`, `["recv"]`).
    pub path: Vec<String>,
    /// The shape of the callee reference.
    pub kind: CallKind,
    /// 1-based source line of the first segment.
    pub line: u32,
}

impl Call {
    /// The callee rendered as written (`Instant::now`, `.recv`).
    pub fn rendered(&self) -> String {
        match self.kind {
            CallKind::Method => format!(".{}", self.path.join("::")),
            _ => self.path.join("::"),
        }
    }
}

/// One function item: a free `fn` or an `impl` method.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The bare function name.
    pub name: String,
    /// The `impl` receiver type, for methods (`Some("Engine")`).
    pub self_ty: Option<String>,
    /// Inline-module path within the file (`["arch"]` for a fn inside
    /// `mod arch { ... }`).
    pub module: Vec<String>,
    /// 1-based line of the `fn` name.
    pub line: u32,
    /// Declared `unsafe fn`.
    pub is_unsafe: bool,
    /// Token index range `[start, end)` of the body (between the
    /// braces, exclusive of them) in the file's stripped token stream.
    pub body: (usize, usize),
    /// Every call site inside the body, in source order.
    pub calls: Vec<Call>,
}

/// One `use` import: `alias` (the name visible in this file) mapped to
/// the full path as written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseImport {
    /// The in-scope name (last segment, or the `as` alias).
    pub alias: String,
    /// The full path segments (`["psc_mpi", "cluster", "Cluster"]`).
    pub path: Vec<String>,
}

/// Everything the parser recovered from one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    /// Functions, in source order.
    pub fns: Vec<FnItem>,
    /// `use` imports.
    pub uses: Vec<UseImport>,
    /// `mod name;` out-of-line module declarations.
    pub mod_decls: Vec<String>,
}

/// A named field of a struct, or of one of an enum's variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Field {
    /// Field name.
    pub name: String,
    /// 1-based line of the declaration.
    pub line: u32,
    /// Whether a `#[serde(skip…)]` attribute precedes the field.
    pub serde_skipped: bool,
}

/// A `struct` or `enum` item: its named fields (every visibility; an
/// enum's are flattened across variants) and the traits it derives.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TypeItem {
    /// Named fields, in source order.
    pub fields: Vec<Field>,
    /// Every trait named in a `#[derive(...)]` on the item.
    pub derives: Vec<String>,
}

/// Find `<keyword> <name>` (`struct RunSpec`, `enum PolicySpec`) in a
/// file's token stream. `None` when the item is absent.
pub(crate) fn type_item(toks: &[Tok], keyword: &str, name: &str) -> Option<TypeItem> {
    let mut item = TypeItem::default();
    let mut i = 0;
    // Attributes seen since the last other token: the item's own.
    let mut attrs: Vec<Vec<String>> = Vec::new();
    loop {
        let t = toks.get(i)?;
        if let Some((attr, next)) = attribute(toks, i) {
            attrs.push(attr);
            i = next;
        } else if t.text == keyword && toks.get(i + 1).is_some_and(|n| n.text == name) {
            break;
        } else {
            // Visibility (`pub`, `pub(crate)`) sits between attrs and item.
            if !matches!(t.text.as_str(), "pub" | "(" | ")" | "crate" | "super" | "in") {
                attrs.clear();
            }
            i += 1;
        }
    }
    for attr in attrs.iter().filter(|a| a.first().is_some_and(|t| t == "derive")) {
        item.derives
            .extend(attr[1..].iter().filter(|t| t.starts_with(char::is_alphabetic)).cloned());
    }
    // Struct fields sit at brace depth 1, enum variant fields at 2.
    let field_depth = if keyword == "enum" { 2 } else { 1 };
    while toks.get(i).is_some_and(|t| t.text != "{") {
        if toks[i].text == ";" {
            return Some(item); // unit or tuple struct
        }
        i += 1;
    }
    let (mut depth, mut nested, mut skip) = (0usize, 0usize, false);
    while let Some(t) = toks.get(i) {
        if let Some((attr, next)) = attribute(toks, i) {
            skip |= attr.first().is_some_and(|a| a == "serde")
                && attr.iter().any(|a| a.starts_with("skip"));
            i = next;
            continue;
        }
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "(" | "[" => nested += 1,
            ")" | "]" => nested = nested.saturating_sub(1),
            _ if depth == field_depth
                && nested == 0
                && t.is_ident()
                && toks.get(i + 1).is_some_and(|n| n.text == ":")
                && toks.get(i + 2).is_some_and(|n| n.text != ":") =>
            {
                item.fields.push(Field { name: t.text.clone(), line: t.line, serde_skipped: skip });
                skip = false;
            }
            _ => {}
        }
        i += 1;
    }
    Some(item)
}

/// An attribute `#[...]` (or `#![...]`) at `i`: its inner token texts
/// and the index just past its closing `]`.
fn attribute(toks: &[Tok], i: usize) -> Option<(Vec<String>, usize)> {
    if toks.get(i)?.text != "#" {
        return None;
    }
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.text == "!") {
        j += 1;
    }
    if toks.get(j)?.text != "[" {
        return None;
    }
    let (mut depth, mut inner) = (1usize, Vec::new());
    j += 1;
    while let Some(t) = toks.get(j) {
        j += 1;
        match t.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        inner.push(t.text.clone());
    }
    Some((inner, j))
}

/// Whether an ident is a keyword that cannot start a call path.
pub fn is_keyword(s: &str) -> bool {
    NON_CALL_KEYWORDS.contains(&s)
}

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "else", "in", "as", "let", "mut", "ref",
    "move", "fn", "impl", "where", "pub", "crate", "super", "self", "Self", "dyn", "unsafe", "box",
    "break", "continue", "true", "false",
];

/// Parse one file's stripped token stream into items.
pub fn parse_items(toks: &[Tok]) -> FileItems {
    let mut out = FileItems::default();
    // Each frame: (module path at this depth, impl type at this depth).
    let mut mod_stack: Vec<String> = Vec::new();
    let mut impl_stack: Vec<(usize, Option<String>)> = Vec::new(); // (brace depth at entry, ty)
    let mut depth: usize = 0;
    let mut i = 0;
    let n = toks.len();
    // Brace depths at which a module scope was opened.
    let mut mod_depths: Vec<usize> = Vec::new();

    while i < n {
        match toks[i].text.as_str() {
            "{" => {
                depth += 1;
                i += 1;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                if mod_depths.last() == Some(&depth) {
                    mod_depths.pop();
                    mod_stack.pop();
                }
                if impl_stack.last().map(|(d, _)| *d) == Some(depth) {
                    impl_stack.pop();
                }
                i += 1;
            }
            "use" => {
                i = parse_use(toks, i + 1, &mut out.uses);
            }
            "mod" => {
                // `mod name;` or `mod name {`.
                let name = toks.get(i + 1).map(|t| t.text.clone()).unwrap_or_default();
                match toks.get(i + 2).map(|t| t.text.as_str()) {
                    Some("{") => {
                        mod_stack.push(name);
                        mod_depths.push(depth);
                        depth += 1;
                        i += 3;
                    }
                    _ => {
                        if !name.is_empty() {
                            out.mod_decls.push(name);
                        }
                        i += 2;
                    }
                }
            }
            "impl" => {
                let (ty, next) = parse_impl_header(toks, i + 1);
                if toks.get(next).is_some_and(|t| t.text == "{") {
                    impl_stack.push((depth, ty));
                    depth += 1;
                    i = next + 1;
                } else {
                    i = next;
                }
            }
            "fn" => {
                let fn_unsafe = i > 0 && toks[i - 1].text == "unsafe";
                if let Some((item, next)) = parse_fn(
                    toks,
                    i + 1,
                    fn_unsafe,
                    impl_stack.last().and_then(|(_, t)| t.clone()),
                    mod_stack.clone(),
                ) {
                    out.fns.push(item);
                    i = next;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// Parse the header after `impl`: skip generics, find the receiver type
/// (`impl Ty`, `impl Trait for Ty`, `impl<'a> Ty<'a>`). Returns the
/// type name (if recognizable) and the index of the body `{` (or
/// wherever parsing stopped).
fn parse_impl_header(toks: &[Tok], mut i: usize) -> (Option<String>, usize) {
    let n = toks.len();
    // Skip `<...>` generics directly after `impl`.
    if toks.get(i).is_some_and(|t| t.text == "<") {
        i = skip_angles(toks, i);
    }
    // Collect idents until `{`, tracking whether we passed `for`.
    let mut first: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while i < n && toks[i].text != "{" && toks[i].text != ";" {
        let t = &toks[i];
        if t.text == "for" {
            saw_for = true;
            i += 1;
            continue;
        }
        if t.text == "where" {
            break;
        }
        if t.text == "<" {
            i = skip_angles(toks, i);
            continue;
        }
        if t.is_ident() && !NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            // Take the *last* segment of a path like `fmt::Display`.
            let mut name = t.text.clone();
            let mut j = i + 1;
            while j + 1 < n && toks[j].text == ":" && toks[j + 1].text == ":" {
                if let Some(seg) = toks.get(j + 2) {
                    if seg.is_ident() {
                        name = seg.text.clone();
                        j += 3;
                        continue;
                    }
                }
                break;
            }
            i = j;
            if saw_for && after_for.is_none() {
                after_for = Some(name);
            } else if first.is_none() {
                first = Some(name);
            }
            continue;
        }
        i += 1;
    }
    while i < n && toks[i].text != "{" && toks[i].text != ";" {
        i += 1;
    }
    (after_for.or(first), i)
}

/// Skip a balanced `<...>` group starting at the `<` at `i`.
fn skip_angles(toks: &[Tok], mut i: usize) -> usize {
    let n = toks.len();
    let mut depth = 0;
    while i < n {
        match toks[i].text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            // `->`, `>>` are separate single-char tokens in our scanner,
            // so nothing special to do; `;` or `{` means we misparsed a
            // comparison — bail out.
            ";" | "{" => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Parse a `fn` item starting at its name; returns the item plus the
/// index just past the body.
fn parse_fn(
    toks: &[Tok],
    i: usize,
    is_unsafe: bool,
    self_ty: Option<String>,
    module: Vec<String>,
) -> Option<(FnItem, usize)> {
    let name_tok = toks.get(i)?;
    if !name_tok.is_ident() {
        return None;
    }
    let name = name_tok.text.clone();
    let line = name_tok.line;
    let n = toks.len();
    // Scan the signature to the body `{` or a `;` (trait/extern decl).
    let mut j = i + 1;
    let mut paren = 0usize;
    while j < n {
        match toks[j].text.as_str() {
            "(" => paren += 1,
            ")" => paren = paren.saturating_sub(1),
            "<" if paren == 0 => {
                j = skip_angles(toks, j);
                continue;
            }
            "{" if paren == 0 => break,
            ";" if paren == 0 => {
                // Body-less declaration.
                let item = FnItem {
                    name,
                    self_ty,
                    module,
                    line,
                    is_unsafe,
                    body: (j, j),
                    calls: Vec::new(),
                };
                return Some((item, j + 1));
            }
            _ => {}
        }
        j += 1;
    }
    if j >= n {
        return None;
    }
    // Body: match braces from `{` at j.
    let body_start = j + 1;
    let mut depth = 1usize;
    let mut k = body_start;
    while k < n && depth > 0 {
        match toks[k].text.as_str() {
            "{" => depth += 1,
            "}" => depth -= 1,
            _ => {}
        }
        k += 1;
    }
    let body_end = k.saturating_sub(1); // index of the closing `}`
    let calls = extract_calls(&toks[body_start..body_end]);
    let item =
        FnItem { name, self_ty, module, line, is_unsafe, body: (body_start, body_end), calls };
    Some((item, k))
}

/// Extract every call site from a body token slice.
pub fn extract_calls(toks: &[Tok]) -> Vec<Call> {
    let mut out = Vec::new();
    let n = toks.len();
    let mut i = 0;
    while i < n {
        let t = &toks[i];
        // `.name(...)` or `.name::<T>(...)` — method call.
        if t.text == "." && toks.get(i + 1).is_some_and(|x| x.is_ident()) {
            let name = &toks[i + 1];
            let mut j = i + 2;
            if is_turbofish(toks, j) {
                j = skip_angles(toks, j + 2);
            }
            if toks.get(j).is_some_and(|x| x.text == "(") {
                out.push(Call {
                    path: vec![name.text.clone()],
                    kind: CallKind::Method,
                    line: name.line,
                });
            }
            i += 2;
            continue;
        }
        // `crate::`/`self::`/`super::`/`Self::` may start a call path
        // even though the bare keywords never do.
        let path_head_kw = matches!(t.text.as_str(), "crate" | "super" | "self" | "Self")
            && toks.get(i + 1).is_some_and(|x| x.text == ":")
            && toks.get(i + 2).is_some_and(|x| x.text == ":");
        if t.is_ident() && (!NON_CALL_KEYWORDS.contains(&t.text.as_str()) || path_head_kw) {
            // Preceded by `.` (handled above) or `fn`/`mod`/`struct`?
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            if matches!(prev, Some("." | "fn" | "mod" | "struct" | "enum" | "trait" | "let")) {
                i += 1;
                continue;
            }
            // Collect the `a::b::c` path.
            let mut path = vec![t.text.clone()];
            let mut j = i + 1;
            loop {
                if j + 1 < n && toks[j].text == ":" && toks[j + 1].text == ":" {
                    if is_turbofish(toks, j) {
                        j = skip_angles(toks, j + 2);
                        break;
                    }
                    if toks.get(j + 2).is_some_and(|x| x.is_ident()) {
                        path.push(toks[j + 2].text.clone());
                        j += 3;
                        continue;
                    }
                }
                break;
            }
            // A call only if a `(` follows; `!` means macro — skip.
            if toks.get(j).is_some_and(|x| x.text == "(")
                && toks.get(j.wrapping_sub(1)).is_none_or(|x| x.text != "!")
            {
                let kind = if path.len() > 1 { CallKind::Path } else { CallKind::Bare };
                out.push(Call { path, kind, line: t.line });
            }
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    out
}

/// `::<` turbofish at position `j` (a `:` `:` `<` run)?
fn is_turbofish(toks: &[Tok], j: usize) -> bool {
    toks.get(j).is_some_and(|x| x.text == ":")
        && toks.get(j + 1).is_some_and(|x| x.text == ":")
        && toks.get(j + 2).is_some_and(|x| x.text == "<")
}

/// Parse one `use` declaration starting after the `use` keyword;
/// returns the index past the terminating `;`. Handles nested groups
/// (`use a::{b, c::{d as e}}`) and records glob imports with a `*`
/// final segment.
fn parse_use(toks: &[Tok], start: usize, out: &mut Vec<UseImport>) -> usize {
    // First find the end of the declaration.
    let n = toks.len();
    let mut end = start;
    let mut brace = 0usize;
    while end < n {
        match toks[end].text.as_str() {
            "{" => brace += 1,
            "}" => brace = brace.saturating_sub(1),
            ";" if brace == 0 => break,
            _ => {}
        }
        end += 1;
    }
    collect_use_tree(&toks[start..end], &[], out);
    end + 1
}

/// Recursive descent over a use tree's token slice with a path prefix.
fn collect_use_tree(toks: &[Tok], prefix: &[String], out: &mut Vec<UseImport>) {
    let n = toks.len();
    let mut i = 0;
    let depth_at = |toks: &[Tok]| -> Vec<(usize, usize)> {
        // Split the slice on top-level commas → (start, end) ranges.
        let mut ranges = Vec::new();
        let mut depth = 0usize;
        let mut start = 0usize;
        for (k, t) in toks.iter().enumerate() {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => depth = depth.saturating_sub(1),
                "," if depth == 0 => {
                    ranges.push((start, k));
                    start = k + 1;
                }
                _ => {}
            }
        }
        ranges.push((start, toks.len()));
        ranges
    };
    // Walk the (single) path at this level; recurse into `{...}` groups.
    let mut segs: Vec<String> = Vec::new();
    while i < n {
        let t = &toks[i];
        if (t.is_ident() && t.text != "as") || t.text == "*" {
            segs.push(t.text.clone());
            i += 1;
        } else if t.text == ":" {
            i += 1;
        } else if t.text == "{" {
            // Find the matching close.
            let mut depth = 1usize;
            let mut j = i + 1;
            while j < n && depth > 0 {
                match toks[j].text.as_str() {
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            let inner = &toks[i + 1..j.saturating_sub(1)];
            for (s, e) in depth_at(inner) {
                let p: Vec<String> = prefix.iter().cloned().chain(segs.iter().cloned()).collect();
                collect_use_tree(&inner[s..e], &p, out);
            }
            return;
        } else if t.text == "as" {
            // Alias: the next ident names the binding.
            if let Some(alias) = toks.get(i + 1) {
                let path: Vec<String> =
                    prefix.iter().cloned().chain(segs.iter().cloned()).collect();
                if !path.is_empty() {
                    out.push(UseImport { alias: alias.text.clone(), path });
                }
            }
            return;
        } else {
            i += 1;
        }
    }
    if let Some(last) = segs.last() {
        let path: Vec<String> = prefix.iter().cloned().chain(segs.iter().cloned()).collect();
        out.push(UseImport { alias: last.clone(), path });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::tokenize;

    fn parse(src: &str) -> FileItems {
        parse_items(&tokenize(src))
    }

    #[test]
    fn free_fns_and_methods_are_found_with_modules() {
        let src = "
            fn top() {}
            mod inner {
                pub fn nested() {}
                impl Widget {
                    pub fn method(&self) -> u32 { helper(1) }
                }
            }
            impl fmt::Display for Finding {
                fn fmt(&self) -> String { render(self) }
            }
        ";
        let items = parse(src);
        let names: Vec<(String, Option<String>, Vec<String>)> = items
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.self_ty.clone(), f.module.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("top".into(), None, vec![]),
                ("nested".into(), None, vec!["inner".into()]),
                ("method".into(), Some("Widget".into()), vec!["inner".into()]),
                ("fmt".into(), Some("Finding".into()), vec![]),
            ]
        );
    }

    #[test]
    fn impl_for_takes_the_receiver_not_the_trait() {
        let src = "impl<'a> Drop for Coroutine<'a> { fn drop(&mut self) { self.cancel(); } }";
        let items = parse(src);
        assert_eq!(items.fns[0].self_ty.as_deref(), Some("Coroutine"));
        assert_eq!(items.fns[0].calls[0].path, vec!["cancel"]);
        assert_eq!(items.fns[0].calls[0].kind, CallKind::Method);
    }

    #[test]
    fn calls_are_classified_by_shape() {
        let src = "fn f() {
            helper(1);
            Instant::now();
            self.state.borrow_mut();
            std::thread::spawn(g);
            vec![1].iter().map(h);
            assert!(matches_inner(2));
        }";
        let calls = parse(src).fns[0].calls.clone();
        let rendered: Vec<String> = calls.iter().map(|c| c.rendered()).collect();
        assert!(rendered.contains(&"helper".to_string()));
        assert!(rendered.contains(&"Instant::now".to_string()));
        assert!(rendered.contains(&".borrow_mut".to_string()));
        assert!(rendered.contains(&"std::thread::spawn".to_string()));
        assert!(rendered.contains(&".map".to_string()));
        assert!(rendered.contains(&"matches_inner".to_string()));
        // `vec!` is a macro, not a call.
        assert!(!rendered.iter().any(|r| r == "vec"));
    }

    #[test]
    fn turbofish_calls_are_still_calls() {
        let src = "fn f() { parse::<u32>(s); x.collect::<Vec<_>>(); }";
        let rendered: Vec<String> = parse(src).fns[0].calls.iter().map(|c| c.rendered()).collect();
        assert!(rendered.contains(&"parse".to_string()), "{rendered:?}");
        assert!(rendered.contains(&".collect".to_string()), "{rendered:?}");
    }

    #[test]
    fn use_trees_flatten_with_aliases_and_groups() {
        let src = "use std::time::Instant;\n\
                   use psc_mpi::{Cluster, cluster::RuntimeBackend as Backend};\n\
                   use psc_kernels::*;";
        let uses = parse(src).uses;
        let find = |a: &str| uses.iter().find(|u| u.alias == a).map(|u| u.path.join("::"));
        assert_eq!(find("Instant").as_deref(), Some("std::time::Instant"));
        assert_eq!(find("Cluster").as_deref(), Some("psc_mpi::Cluster"));
        assert_eq!(find("Backend").as_deref(), Some("psc_mpi::cluster::RuntimeBackend"));
        assert_eq!(find("*").as_deref(), Some("psc_kernels::*"));
    }

    #[test]
    fn type_items_take_every_field_with_its_skip_flag_and_derives() {
        let src = "#[derive(Debug, Serialize)]\npub(crate) struct S {\n    pub a: u32,\n    \
                   #[serde(skip)]\n    b: [u8; 4],\n    pub(crate) c: fn(x: u32) -> u32,\n}";
        let s = type_item(&tokenize(src), "struct", "S").unwrap();
        assert_eq!(s.derives, ["Debug", "Serialize"]);
        let fields: Vec<(&str, u32, bool)> =
            s.fields.iter().map(|f| (f.name.as_str(), f.line, f.serde_skipped)).collect();
        assert_eq!(fields, [("a", 3, false), ("b", 5, true), ("c", 6, false)]);
        assert_eq!(type_item(&tokenize("pub struct X;"), "struct", "X"), Some(TypeItem::default()));
        assert!(type_item(&tokenize("fn nothing() {}"), "struct", "X").is_none());
    }

    #[test]
    fn enum_fields_are_knobs_not_variant_names() {
        let src =
            "enum P { Static { gear: usize }, Tuple(u32), Cap { #[serde(skip)] budget_w: f64 } }";
        let p = type_item(&tokenize(src), "enum", "P").unwrap();
        let fields: Vec<(&str, bool)> =
            p.fields.iter().map(|f| (f.name.as_str(), f.serde_skipped)).collect();
        assert_eq!(fields, [("gear", false), ("budget_w", true)]);
        assert!(p.derives.is_empty());
    }

    #[test]
    fn unsafe_fns_and_bodyless_decls_are_recorded() {
        let src = "trait T { fn decl(&self); }\n\
                   unsafe fn raw() { core(); }\n";
        let items = parse(src);
        let decl = items.fns.iter().find(|f| f.name == "decl").unwrap();
        assert_eq!(decl.body.0, decl.body.1, "no body tokens");
        let raw = items.fns.iter().find(|f| f.name == "raw").unwrap();
        assert!(raw.is_unsafe);
    }
}
