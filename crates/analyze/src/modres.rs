//! Workspace model and module-path resolution.
//!
//! Builds one [`WorkspaceIr`] from every analyzable source file: the
//! parsed items ([`crate::parse`]), each file's crate and module path,
//! and a name index that resolves call sites to fully-qualified
//! function ids (`psc_mpi::des::coro::Yielder::suspend`). Resolution is
//! name-based — no type inference — and *over-approximates*: a method
//! call `.run(...)` resolves to every visible method named `run`.
//! Over-approximation is the right bias for a reachability gate (it can
//! only make the gate stricter), and the crate-dependency filter (from
//! each crate's `Cargo.toml`) keeps the fan-out honest: a call in
//! `psc-kernels` can never resolve into a crate `psc-kernels` does not
//! depend on.
//!
//! The IR is the analyzer's only read of the workspace: every rule,
//! per-file or whole-program, runs over the token streams and items
//! held here.

use crate::parse::{self, Call, CallKind, FileItems, FnItem, TypeItem};
use crate::scan::{self, Tok};
use std::collections::BTreeMap;
use std::path::Path;

/// One parsed source file.
#[derive(Debug, Clone)]
pub struct FileIr {
    /// Workspace-relative path.
    pub path: String,
    /// Crate directory under `crates/` (`mpi`), or `""` for the root.
    pub crate_dir: String,
    /// The raw source text (for pragmas).
    pub src: String,
    /// The stripped token stream (comments, strings, `#[cfg(test)]`
    /// items removed).
    pub toks: Vec<Tok>,
    /// Parsed items.
    pub items: FileItems,
    /// Module path of the file itself (`["des", "coro"]`).
    pub module: Vec<String>,
}

/// A function's stable id: `crate::module::Type::name` with `::`
/// separators, e.g. `psc_mpi::des::coro::Yielder::suspend`.
pub type FnId = String;

/// Where a resolved function lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnRef {
    /// Index into [`WorkspaceIr::files`].
    pub file: usize,
    /// Index into that file's `items.fns`.
    pub item: usize,
}

/// The whole-workspace IR: files, the function index, and the crate
/// dependency relation.
#[derive(Debug, Default)]
pub struct WorkspaceIr {
    /// Every parsed file.
    pub files: Vec<FileIr>,
    /// Fully-qualified id → location.
    pub fns: BTreeMap<FnId, FnRef>,
    /// Free functions by bare name.
    free_by_name: BTreeMap<String, Vec<FnId>>,
    /// Methods by `(type, name)`.
    methods_by_ty: BTreeMap<(String, String), Vec<FnId>>,
    /// Methods by bare name.
    methods_by_name: BTreeMap<String, Vec<FnId>>,
    /// crate dir → the crate dirs it may call into (its `psc-*`
    /// dependencies, each with its `Cargo.toml` line, plus itself).
    deps: BTreeMap<String, BTreeMap<String, u32>>,
}

/// The crate identifier (as written in Rust paths) for a crate dir.
pub fn crate_ident(crate_dir: &str) -> String {
    match crate_dir {
        "" => "powerscale".to_string(),
        d => format!("psc_{d}"),
    }
}

/// Module path of a workspace-relative file path:
/// `crates/mpi/src/des/coro.rs` → `["des", "coro"]`.
pub fn file_module(rel_path: &str) -> Vec<String> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let src_at = parts.iter().position(|p| *p == "src");
    let Some(s) = src_at else { return Vec::new() };
    let mut module: Vec<String> = parts[s + 1..].iter().map(|p| p.to_string()).collect();
    if let Some(last) = module.last_mut() {
        if let Some(stem) = last.strip_suffix(".rs") {
            *last = stem.to_string();
        }
    }
    match module.last().map(String::as_str) {
        Some("lib") | Some("main") | Some("mod") => {
            module.pop();
        }
        _ => {}
    }
    module
}

impl WorkspaceIr {
    /// Parse every workspace source under `root` (the same file set as
    /// [`crate::workspace_sources`]) into one IR.
    pub fn build(root: &Path) -> std::io::Result<Self> {
        let mut sources = Vec::new();
        for rel in crate::workspace_sources(root)? {
            let src = std::fs::read_to_string(root.join(&rel))?;
            sources.push((rel, src));
        }
        let mut ir = Self::from_sources(&sources);
        ir.deps = crate_deps(root);
        Ok(ir)
    }

    /// Build the IR from in-memory `(rel_path, source)` pairs — the
    /// entry point fixture tests drive directly. Crate dependencies
    /// default to "everything visible" unless set by [`Self::build`].
    pub fn from_sources<P: AsRef<str>, S: AsRef<str>>(sources: &[(P, S)]) -> Self {
        let mut ir = WorkspaceIr::default();
        for (rel, src) in sources {
            let (rel, src) = (rel.as_ref(), src.as_ref());
            let toks = scan::strip_cfg_test(&scan::tokenize(src));
            let items = parse::parse_items(&toks);
            ir.files.push(FileIr {
                path: rel.to_string(),
                crate_dir: crate::crate_dir_of(rel),
                src: src.to_string(),
                module: file_module(rel),
                toks,
                items,
            });
        }
        ir.index();
        ir
    }

    fn index(&mut self) {
        for (fi, file) in self.files.iter().enumerate() {
            for (ii, f) in file.items.fns.iter().enumerate() {
                let id = fn_id(file, f);
                self.fns.insert(id.clone(), FnRef { file: fi, item: ii });
                match &f.self_ty {
                    Some(ty) => {
                        self.methods_by_ty
                            .entry((ty.clone(), f.name.clone()))
                            .or_default()
                            .push(id.clone());
                        self.methods_by_name.entry(f.name.clone()).or_default().push(id);
                    }
                    None => {
                        self.free_by_name.entry(f.name.clone()).or_default().push(id);
                    }
                }
            }
        }
    }

    /// The function item behind an id.
    pub fn item(&self, id: &str) -> Option<(&FileIr, &FnItem)> {
        let r = self.fns.get(id)?;
        let file = &self.files[r.file];
        Some((file, &file.items.fns[r.item]))
    }

    /// The `struct`/`enum` item `name` declared in the file at `path`.
    pub(crate) fn type_item(&self, path: &str, keyword: &str, name: &str) -> Option<TypeItem> {
        let file = self.files.iter().find(|f| f.path == path)?;
        parse::type_item(&file.toks, keyword, name)
    }

    /// The body tokens and line of method `ty::name` declared in the
    /// file at `path`.
    pub(crate) fn method_body(&self, path: &str, ty: &str, name: &str) -> Option<(&[Tok], u32)> {
        let file = self.files.iter().find(|f| f.path == path)?;
        let f =
            file.items.fns.iter().find(|f| f.name == name && f.self_ty.as_deref() == Some(ty))?;
        Some((&file.toks[f.body.0..f.body.1], f.line))
    }

    /// The `Cargo.toml` line on which crate `crate_dir` declares
    /// `psc-<dep>`, if it does.
    pub(crate) fn dependency_line(&self, crate_dir: &str, dep: &str) -> Option<u32> {
        self.deps.get(crate_dir)?.get(dep).copied().filter(|&line| line > 0)
    }

    /// Whether code in `from_dir` may call into `to_dir` (same crate,
    /// declared dependency, or no dependency data loaded).
    fn visible(&self, from_dir: &str, to_dir: &str) -> bool {
        if from_dir == to_dir || self.deps.is_empty() {
            return true;
        }
        self.deps.get(from_dir).is_some_and(|d| d.contains_key(to_dir))
    }

    fn crate_dir_of_id(&self, id: &str) -> &str {
        self.fns.get(id).map(|r| self.files[r.file].crate_dir.as_str()).unwrap_or("")
    }

    fn filter_visible(&self, from_dir: &str, ids: &[FnId]) -> Vec<FnId> {
        ids.iter().filter(|id| self.visible(from_dir, self.crate_dir_of_id(id))).cloned().collect()
    }

    /// Resolve one call site in `file` (whose enclosing fn has
    /// `self_ty`). Returns the resolved workspace functions; empty
    /// means the callee is external (std or a vendored stub) — use
    /// [`Call::rendered`] for sink matching in that case.
    pub fn resolve(&self, file: &FileIr, self_ty: Option<&str>, call: &Call) -> Vec<FnId> {
        match call.kind {
            CallKind::Method => {
                let name = &call.path[0];
                let cands = self.methods_by_name.get(name).cloned().unwrap_or_default();
                self.filter_visible(&file.crate_dir, &cands)
            }
            CallKind::Bare => self.resolve_bare(file, &call.path[0]),
            CallKind::Path => self.resolve_path(file, self_ty, &call.path, 0),
        }
    }

    fn resolve_bare(&self, file: &FileIr, name: &str) -> Vec<FnId> {
        // 1. A free fn defined in this very file.
        let local: Vec<FnId> = file
            .items
            .fns
            .iter()
            .filter(|f| f.self_ty.is_none() && f.name == name)
            .map(|f| fn_id(file, f))
            .collect();
        if !local.is_empty() {
            return local;
        }
        // 2. A `use` import binding this name.
        for u in &file.items.uses {
            if u.alias == name {
                return self.resolve_path(file, None, &u.path, 0);
            }
        }
        // 3. A free fn elsewhere in the same crate.
        if let Some(cands) = self.free_by_name.get(name) {
            let same_crate: Vec<FnId> = cands
                .iter()
                .filter(|id| self.crate_dir_of_id(id) == file.crate_dir)
                .cloned()
                .collect();
            if !same_crate.is_empty() {
                return same_crate;
            }
            // 4. Any visible crate (glob imports and re-exports).
            return self.filter_visible(&file.crate_dir, cands);
        }
        Vec::new()
    }

    /// `depth` bounds alias re-expansion: import chains in real code
    /// are one or two hops, and the bound keeps pathological alias
    /// cycles (`use a::b; use b::a;`) from recursing forever.
    fn resolve_path(
        &self,
        file: &FileIr,
        self_ty: Option<&str>,
        path: &[String],
        depth: usize,
    ) -> Vec<FnId> {
        if depth > 8 {
            return Vec::new();
        }
        // Normalize: strip `crate`/`self`/`super` heads, substitute
        // `Self` with the enclosing impl type.
        let mut segs: Vec<String> = Vec::with_capacity(path.len());
        for (i, s) in path.iter().enumerate() {
            match s.as_str() {
                "crate" | "self" | "super" => continue,
                "Self" => {
                    if let Some(ty) = self_ty {
                        segs.push(ty.to_string());
                    } else if i + 1 == path.len() {
                        segs.push(s.clone());
                    }
                }
                _ => segs.push(s.clone()),
            }
        }
        if segs.is_empty() {
            return Vec::new();
        }
        let name = segs.last().unwrap().clone();
        // `Type::method` — second-to-last segment capitalized.
        if segs.len() >= 2 {
            let ty = &segs[segs.len() - 2];
            if ty.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                if let Some(cands) = self.methods_by_ty.get(&(ty.clone(), name.clone())) {
                    let vis = self.filter_visible(&file.crate_dir, cands);
                    if !vis.is_empty() {
                        return vis;
                    }
                }
                // Enum-variant or tuple-struct construction, or an
                // external type's method — not a workspace function.
                return Vec::new();
            }
        }
        // Expand a first-segment alias through the imports once,
        // comparing *normalized* forms — a `use crate::x` import would
        // otherwise re-expand to itself forever.
        if let Some(u) = file.items.uses.iter().find(|u| u.alias == segs[0]) {
            let mut expanded: Vec<String> = u.path.clone();
            expanded.extend(segs[1..].iter().cloned());
            let expanded_norm: Vec<&String> = expanded
                .iter()
                .filter(|s| !matches!(s.as_str(), "crate" | "self" | "super"))
                .collect();
            if expanded_norm.len() != segs.len()
                || expanded_norm.iter().zip(&segs).any(|(a, b)| *a != b)
            {
                return self.resolve_path(file, self_ty, &expanded, depth + 1);
            }
        }
        // A free fn whose id ends with the written path.
        let suffix = segs.join("::");
        if let Some(cands) = self.free_by_name.get(&name) {
            let matching: Vec<FnId> = cands
                .iter()
                .filter(|id| {
                    id.as_str() == suffix
                        || id.ends_with(&format!("::{suffix}"))
                        || id.starts_with(&format!("{}::", segs[0]))
                            && id.ends_with(&format!("::{name}"))
                })
                .cloned()
                .collect();
            let vis = self.filter_visible(&file.crate_dir, &matching);
            if !vis.is_empty() {
                return vis;
            }
        }
        Vec::new()
    }
}

/// Build a function's fully-qualified id.
pub fn fn_id(file: &FileIr, f: &FnItem) -> FnId {
    let mut parts: Vec<String> = vec![crate_ident(&file.crate_dir)];
    parts.extend(file.module.iter().cloned());
    parts.extend(f.module.iter().cloned());
    if let Some(ty) = &f.self_ty {
        parts.push(ty.clone());
    }
    parts.push(f.name.clone());
    parts.join("::")
}

/// Parse each crate's `Cargo.toml` for its `psc-*` dependencies (plus
/// the root package). A line-oriented scan is enough: every dependency
/// on a workspace crate mentions its `psc-<dir>` name.
fn crate_deps(root: &Path) -> BTreeMap<String, BTreeMap<String, u32>> {
    let mut deps = BTreeMap::new();
    let mut dirs: Vec<(String, std::path::PathBuf)> = Vec::new();
    if let Ok(rd) = std::fs::read_dir(root.join("crates")) {
        for e in rd.filter_map(|e| e.ok()) {
            let p = e.path();
            if p.join("Cargo.toml").is_file() {
                dirs.push((e.file_name().to_string_lossy().into_owned(), p.join("Cargo.toml")));
            }
        }
    }
    dirs.push((String::new(), root.join("Cargo.toml")));
    for (dir, manifest) in dirs {
        let mut set = BTreeMap::new();
        set.insert(dir.clone(), 0);
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            for (idx, line) in text.lines().enumerate() {
                let line = line.trim();
                if let Some(rest) = line.strip_prefix("psc-") {
                    if let Some(dep) =
                        rest.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')).next()
                    {
                        if !dep.is_empty() {
                            set.entry(dep.to_string()).or_insert(idx as u32 + 1);
                        }
                    }
                }
            }
        }
        deps.insert(dir, set);
    }
    deps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> WorkspaceIr {
        let owned: Vec<(String, String)> =
            files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        WorkspaceIr::from_sources(&owned)
    }

    #[test]
    fn file_module_paths() {
        assert_eq!(file_module("crates/mpi/src/lib.rs"), Vec::<String>::new());
        assert_eq!(file_module("crates/mpi/src/des/mod.rs"), vec!["des"]);
        assert_eq!(file_module("crates/mpi/src/des/coro.rs"), vec!["des", "coro"]);
        assert_eq!(file_module("src/main.rs"), Vec::<String>::new());
    }

    #[test]
    fn bare_calls_resolve_locally_then_by_import() {
        let ir = ws(&[
            (
                "crates/mpi/src/a.rs",
                "use crate::b::helper;\nfn caller() { helper(); local(); }\nfn local() {}",
            ),
            ("crates/mpi/src/b.rs", "pub fn helper() {}"),
        ]);
        let (file, f) = ir.item("psc_mpi::a::caller").expect("caller indexed");
        let helper = &f.calls[0];
        assert_eq!(ir.resolve(file, None, helper), vec!["psc_mpi::b::helper".to_string()]);
        let local = &f.calls[1];
        assert_eq!(ir.resolve(file, None, local), vec!["psc_mpi::a::local".to_string()]);
    }

    #[test]
    fn type_method_paths_resolve_across_crates() {
        let ir = ws(&[
            (
                "crates/runner/src/engine.rs",
                "fn go(c: &Cluster) { Cluster::dispatch(c); c.dispatch(); }",
            ),
            ("crates/mpi/src/cluster.rs", "impl Cluster { pub fn dispatch(&self) {} }"),
        ]);
        let (file, f) = ir.item("psc_runner::engine::go").unwrap();
        let expect = vec!["psc_mpi::cluster::Cluster::dispatch".to_string()];
        assert_eq!(ir.resolve(file, None, &f.calls[0]), expect, "path call");
        assert_eq!(ir.resolve(file, None, &f.calls[1]), expect, "method call");
    }

    #[test]
    fn self_calls_resolve_to_the_impl_type() {
        let ir = ws(&[("crates/mpi/src/x.rs", "impl Widget { fn a() { Self::b(); } fn b() {} }")]);
        let (file, f) = ir.item("psc_mpi::x::Widget::a").unwrap();
        assert_eq!(
            ir.resolve(file, Some("Widget"), &f.calls[0]),
            vec!["psc_mpi::x::Widget::b".to_string()]
        );
    }

    #[test]
    fn external_calls_resolve_to_nothing() {
        let ir = ws(&[("crates/cli/src/main.rs", "fn f() { Instant::now(); helper_x(); }")]);
        let (file, f) = ir.item("psc_cli::f").unwrap();
        assert!(ir.resolve(file, None, &f.calls[0]).is_empty());
        assert!(ir.resolve(file, None, &f.calls[1]).is_empty());
    }
}
