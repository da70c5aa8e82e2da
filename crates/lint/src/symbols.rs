//! Workspace symbol table: every parsed function, indexed for call
//! resolution, plus the crate dependency relation that prunes impossible
//! cross-crate edges.
//!
//! Resolution is *name-based and over-approximate by design*: a call
//! `f(…)` may resolve to several same-named functions, and the call graph
//! keeps every candidate edge. Over-approximation errs toward reporting
//! (reachability lints see a superset of real paths), never toward
//! silence. Two prunes keep the noise manageable:
//!
//! * a call in crate `C` only resolves into `C` itself or crates `C`
//!   depends on (read from `crates/*/Cargo.toml` path dependencies) —
//!   without this, every `new` resolves everywhere;
//! * method-call syntax (`.f(…)`) only resolves to impl/trait methods,
//!   and free-call syntax prefers free functions.

use crate::parser::CallRef;
use crate::source::SourceFile;
use crate::Workspace;
use std::collections::{BTreeMap, BTreeSet};

/// Index of one function: `(file index in `Workspace::files`, fn index in
/// that file's `ParsedFile::fns`)`.
pub type FnId = (usize, usize);

/// The workspace-wide symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Every parsed fn, in `(file, item)` order.
    pub fns: Vec<FnId>,
    /// Bare name → indices into `fns`.
    by_name: BTreeMap<String, Vec<usize>>,
    /// `Type::name` → indices into `fns`.
    by_qual: BTreeMap<String, Vec<usize>>,
    /// Crate → its transitive `lrd-*` path dependencies (directory names).
    /// Empty (in-memory fixture workspaces) means "no pruning".
    crate_deps: BTreeMap<String, BTreeSet<String>>,
    /// Names of struct fields typed `HashMap`/`HashSet` anywhere in the
    /// workspace (for the determinism-taint field-iteration pattern).
    pub hash_fields: BTreeSet<String>,
}

impl SymbolTable {
    /// Builds the table over a loaded workspace. Reads
    /// `crates/*/Cargo.toml` for the dependency relation when the
    /// workspace has an on-disk root.
    pub fn build(ws: &Workspace) -> SymbolTable {
        let mut table = SymbolTable {
            crate_deps: crate_deps(ws),
            ..SymbolTable::default()
        };
        for (fi, file) in ws.files.iter().enumerate() {
            for (ii, f) in file.items.fns.iter().enumerate() {
                let idx = table.fns.len();
                table.fns.push((fi, ii));
                table.by_name.entry(f.name.clone()).or_default().push(idx);
                if f.qual_name != f.name {
                    table
                        .by_qual
                        .entry(f.qual_name.clone())
                        .or_default()
                        .push(idx);
                }
            }
            for s in &file.items.structs {
                for field in &s.fields {
                    if field.is_hash {
                        table.hash_fields.insert(field.name.clone());
                    }
                }
            }
        }
        table
    }

    /// The file and fn item behind `fns[idx]`.
    pub fn fn_at<'ws>(
        &self,
        ws: &'ws Workspace,
        idx: usize,
    ) -> (&'ws SourceFile, &'ws crate::parser::FnItem) {
        let (fi, ii) = self.fns[idx];
        let file = &ws.files[fi];
        (file, &file.items.fns[ii])
    }

    /// Global index of the fn item `(fi, ii)`, if present.
    pub fn index_of(&self, id: FnId) -> Option<usize> {
        self.fns.iter().position(|&x| x == id)
    }

    /// Candidate definitions a call from `caller_file` (inside the fn with
    /// qualified name `caller_qual`) may land on. Over-approximate; empty
    /// for std/vendor calls.
    pub fn resolve(
        &self,
        ws: &Workspace,
        caller_file: &SourceFile,
        caller_qual: &str,
        call: &CallRef,
    ) -> Vec<usize> {
        // `Self::f(…)` — rewrite to the caller's own type qualifier.
        let qualifier = match call.qualifier.as_deref() {
            Some("Self") => caller_qual.split("::").next().filter(|t| *t != caller_qual),
            q => q,
        };
        if let Some(q) = qualifier {
            let qual = format!("{q}::{}", call.name);
            if let Some(c) = self.by_qual.get(&qual) {
                let v = self.visible(ws, caller_file, c);
                if !v.is_empty() {
                    return v;
                }
            }
        }
        let Some(cands) = self.by_name.get(&call.name) else {
            return Vec::new();
        };
        let visible = self.visible(ws, caller_file, cands);
        // Method syntax only lands on methods; free syntax prefers free
        // fns and falls back to methods (`Type::helper(x)` paths, traits).
        let (methods, free): (Vec<usize>, Vec<usize>) = visible.into_iter().partition(|&i| {
            let (_, f) = self.fn_at(ws, i);
            f.qual_name != f.name
        });
        if call.method {
            methods
        } else if !free.is_empty() {
            free
        } else {
            methods
        }
    }

    /// Filters candidates down to those visible from `caller_file`: same
    /// crate, or a crate the caller's crate depends on (when the
    /// dependency relation is known), and not test-only definitions.
    fn visible(&self, ws: &Workspace, caller_file: &SourceFile, cands: &[usize]) -> Vec<usize> {
        cands
            .iter()
            .copied()
            .filter(|&i| {
                let (file, f) = self.fn_at(ws, i);
                if file.is_test_line(f.line) {
                    return false;
                }
                let (Some(from), Some(to)) = (
                    caller_file.crate_name.as_deref(),
                    file.crate_name.as_deref(),
                ) else {
                    return true; // top-level tests/ files see everything
                };
                if from == to {
                    return true;
                }
                if self.crate_deps.is_empty() {
                    return true; // fixture workspace: no manifests to read
                }
                f.is_pub
                    && self
                        .crate_deps
                        .get(from)
                        .is_some_and(|deps| deps.contains(to))
            })
            .collect()
    }
}

/// Reads the intra-workspace dependency relation from
/// `crates/*/Cargo.toml` path dependencies and closes it transitively.
fn crate_deps(ws: &Workspace) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    if ws.root.as_os_str().is_empty() {
        return direct;
    }
    let crates_dir = ws.root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return direct;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        let Ok(manifest) = std::fs::read_to_string(entry.path().join("Cargo.toml")) else {
            continue;
        };
        let deps = direct.entry(name).or_default();
        for line in manifest.lines() {
            // `lrd-trace = { path = "../trace" }` — capture the directory.
            let Some(rest) = line.split_once("path").map(|(_, r)| r) else {
                continue;
            };
            let Some(dir) = rest
                .split('"')
                .nth(1)
                .and_then(|p| p.strip_prefix("../"))
                .map(|p| p.trim_end_matches('/'))
            else {
                continue;
            };
            if !dir.contains('/') && !dir.is_empty() {
                deps.insert(dir.to_string());
            }
        }
    }
    // Transitive closure (the relation is tiny; fixpoint iteration is fine).
    loop {
        let mut grew = false;
        let names: Vec<String> = direct.keys().cloned().collect();
        for name in &names {
            let reach: Vec<String> = direct[name]
                .iter()
                .flat_map(|d| direct.get(d).into_iter().flatten())
                .cloned()
                .collect();
            let deps = direct.get_mut(name).expect("key from keys()");
            for r in reach {
                grew |= deps.insert(r);
            }
        }
        if !grew {
            return direct;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_memory(
            files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
            None,
        )
    }

    #[test]
    fn free_call_resolves_within_crate() {
        let ws = ws(&[
            ("crates/core/src/a.rs", "pub fn caller() { helper(); }"),
            ("crates/core/src/b.rs", "pub fn helper() {}"),
        ]);
        let t = SymbolTable::build(&ws);
        let call = &ws.files[0].items.fns[0].calls[0];
        let hits = t.resolve(&ws, &ws.files[0], "caller", call);
        assert_eq!(hits.len(), 1);
        let (file, f) = t.fn_at(&ws, hits[0]);
        assert_eq!(
            (file.rel.as_str(), f.name.as_str()),
            ("crates/core/src/b.rs", "helper")
        );
    }

    #[test]
    fn method_syntax_prefers_methods_and_self_resolves() {
        let src = "pub struct S;\nimpl S { pub fn run(&self) { self.step(); Self::leap(); }\n  fn step(&self) {}\n  fn leap() {} }\nfn step() {}";
        let ws = ws(&[("crates/core/src/a.rs", src)]);
        let t = SymbolTable::build(&ws);
        let run = &ws.files[0].items.fns[0];
        let step = t.resolve(&ws, &ws.files[0], &run.qual_name, &run.calls[0]);
        assert_eq!(step.len(), 1);
        assert_eq!(t.fn_at(&ws, step[0]).1.qual_name, "S::step");
        let leap = t.resolve(&ws, &ws.files[0], &run.qual_name, &run.calls[1]);
        assert_eq!(leap.len(), 1);
        assert_eq!(t.fn_at(&ws, leap[0]).1.qual_name, "S::leap");
    }

    #[test]
    fn test_only_definitions_are_not_candidates() {
        let ws = ws(&[(
            "crates/core/src/a.rs",
            "pub fn caller() { helper(); }\n#[cfg(test)]\nmod tests { pub fn helper() {} }",
        )]);
        let t = SymbolTable::build(&ws);
        let call = &ws.files[0].items.fns[0].calls[0];
        assert!(t.resolve(&ws, &ws.files[0], "caller", call).is_empty());
    }

    #[test]
    fn hash_fields_are_collected() {
        let ws = ws(&[(
            "crates/core/src/a.rs",
            "pub struct C { index: HashMap<u64, usize>, n: usize }",
        )]);
        let t = SymbolTable::build(&ws);
        assert!(t.hash_fields.contains("index"));
        assert!(!t.hash_fields.contains("n"));
    }
}
