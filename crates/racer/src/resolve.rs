//! Workspace symbol table and the type-string algebra the extractor
//! leans on: peeling smart-pointer wrappers, classifying lock and
//! atomic types, stepping through fields, and naming atomic classes.
//!
//! A *class* is the identity the atomics rules run on:
//! `<crate>::<Struct>::<field>` for an atomic stored in a struct field,
//! `<crate>::<NAME>` for one in a static — the names `racer:publication`
//! and `racer:seqlock` declarations are written in.

use crate::syntax::{Field, FileItems, FnDef, StaticDef, StructDef};
use std::collections::BTreeMap;

/// Workspace-wide symbol table built from every parsed file.
#[derive(Debug, Default)]
pub struct Symbols {
    /// Struct name → definitions (same name may appear in two crates).
    pub structs: BTreeMap<String, Vec<StructDef>>,
    /// Static/const name → definition.
    pub statics: BTreeMap<String, StaticDef>,
    /// Every function, in scan order.
    pub fns: Vec<FnDef>,
    /// Qualified key (`Struct::method` / `free_fn`) → indices in `fns`.
    pub by_key: BTreeMap<String, Vec<usize>>,
    /// Unqualified name → indices in `fns`.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl Symbols {
    /// Fold one file's items in.
    pub fn absorb(&mut self, items: FileItems) {
        for s in items.structs {
            self.structs.entry(s.name.clone()).or_default().push(s);
        }
        for st in items.statics {
            self.statics.entry(st.name.clone()).or_insert(st);
        }
        for f in items.fns {
            let idx = self.fns.len();
            self.by_key.entry(f.key()).or_default().push(idx);
            self.by_name.entry(f.name.clone()).or_default().push(idx);
            self.fns.push(f);
        }
    }

    /// Find a struct by name, preferring the given crate when the name
    /// is ambiguous across crates.
    pub fn struct_def(&self, name: &str, krate_hint: &str) -> Option<&StructDef> {
        let defs = self.structs.get(name)?;
        defs.iter()
            .find(|d| d.krate == krate_hint)
            .or_else(|| defs.first())
    }

    /// Look up `struct.field`, preferring the hinted crate.
    pub fn field_of(
        &self,
        name: &str,
        krate_hint: &str,
        field: &str,
    ) -> Option<(&StructDef, &Field)> {
        let def = self.struct_def(name, krate_hint)?;
        let f = def.fields.iter().find(|f| f.name == field)?;
        Some((def, f))
    }

    /// Resolve a method on a receiver struct: `Struct::name`, falling
    /// back to a unique free/other definition of `name` when the
    /// qualified key is unknown (trait impls on type aliases, etc).
    pub fn method(&self, recv: &str, name: &str) -> Option<&FnDef> {
        if let Some(idxs) = self.by_key.get(&format!("{recv}::{name}")) {
            return idxs.first().map(|&i| &self.fns[i]);
        }
        match self.by_name.get(name).map(Vec::as_slice) {
            Some([only]) => Some(&self.fns[*only]),
            _ => None,
        }
    }

    /// The class of the unique struct field (or static) whose type
    /// matches the given lockable core type (`Mutex<WalWriter>`). Used
    /// to resolve `&Mutex<T>` parameters back to the field they alias.
    pub fn unique_class_of_ty(&self, core: &str) -> Option<String> {
        let matches = |ty: &str| {
            let p = peel(ty);
            p == core || element(p).map(peel) == Some(core)
        };
        let mut found: Option<String> = None;
        for defs in self.structs.values() {
            for d in defs {
                for f in &d.fields {
                    if matches(&f.ty) {
                        let class = class_of_field(d, &f.name);
                        match &found {
                            None => found = Some(class),
                            Some(prev) if *prev != class => return None,
                            _ => {}
                        }
                    }
                }
            }
        }
        if found.is_none() {
            for st in self.statics.values() {
                if matches(&st.ty) {
                    let class = format!("{}::{}", st.krate, st.name);
                    match &found {
                        None => found = Some(class),
                        Some(prev) if *prev != class => return None,
                        _ => {}
                    }
                }
            }
        }
        found
    }
}

/// Class name for a struct field.
pub fn class_of_field(def: &StructDef, field: &str) -> String {
    format!("{}::{}::{}", def.krate, def.name, field)
}

/// Strip leading `&`/`&mut`/`mut` and lifetimes from a normalized type.
pub fn strip_refs(ty: &str) -> &str {
    let mut t = ty.trim();
    loop {
        if let Some(rest) = t.strip_prefix('&') {
            t = rest.trim_start();
        } else if let Some(rest) = t.strip_prefix("mut ") {
            t = rest.trim_start();
        } else if let Some(rest) = t.strip_prefix("mut&") {
            t = rest.trim_start();
        } else {
            return t;
        }
    }
}

/// The head identifier of a type: last path segment before generics
/// (`std::sync::Mutex<T>` → `Mutex`; `[AtomicU64;7]` → ``).
pub fn head(ty: &str) -> &str {
    let t = strip_refs(ty);
    let end = t.find('<').unwrap_or(t.len());
    let path = &t[..end];
    path.rsplit("::").next().unwrap_or(path)
}

/// Generic payload of `Head<...>`, if the type has that exact head.
pub fn generic_arg<'a>(ty: &'a str, want_head: &str) -> Option<&'a str> {
    let t = strip_refs(ty);
    if head(t) != want_head {
        return None;
    }
    let open = t.find('<')?;
    let close = t.rfind('>')?;
    Some(&t[open + 1..close])
}

/// Peel transparent wrappers (`&`, `Arc`, `Rc`, `Box`) until a
/// load-bearing type is exposed.
pub fn peel(ty: &str) -> &str {
    let mut t = strip_refs(ty);
    loop {
        let mut next = None;
        for w in ["Arc", "Rc", "Box"] {
            if let Some(inner) = generic_arg(t, w) {
                next = Some(inner);
                break;
            }
        }
        match next {
            Some(inner) => t = strip_refs(inner),
            None => return t,
        }
    }
}

/// Element type of a container: `Vec<X>`/`VecDeque<X>` → `X`,
/// `[X;N]`/`[X]` → `X`, `Option<X>`/`Result<X,_>` → `X` (for `if let`
/// unwrapping), plus `Mutex<X>` per-element access never goes through
/// here — that's an acquisition.
pub fn element(ty: &str) -> Option<&str> {
    let t = peel(ty);
    for w in ["Vec", "VecDeque", "Option", "Box"] {
        if let Some(inner) = generic_arg(t, w) {
            return Some(inner.trim());
        }
    }
    if let Some(inner) = generic_arg(t, "Result") {
        // first comma at depth 0
        let mut depth = 0i32;
        for (i, c) in inner.char_indices() {
            match c {
                '<' | '(' | '[' => depth += 1,
                '>' | ')' | ']' => depth -= 1,
                ',' if depth == 0 => return Some(inner[..i].trim()),
                _ => {}
            }
        }
        return Some(inner.trim());
    }
    if let Some(rest) = t.strip_prefix('[') {
        let end = rest.find([';', ']'])?;
        return Some(rest[..end].trim());
    }
    None
}

/// Value type of a map: `HashMap<K, V>`/`BTreeMap<K, V>` → `V`.
/// `.values()` iteration over a map of locks is an acquisition source.
pub fn map_value(ty: &str) -> Option<&str> {
    let t = peel(ty);
    let inner = generic_arg(t, "HashMap").or_else(|| generic_arg(t, "BTreeMap"))?;
    let mut depth = 0i32;
    for (i, c) in inner.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => return Some(inner[i + 1..].trim()),
            _ => {}
        }
    }
    None
}

/// Whether the peeled type is a lock (its guard derefs to the payload).
pub fn is_lock(ty: &str) -> bool {
    matches!(head(peel(ty)), "Mutex" | "RwLock")
}

/// Whether the peeled type is (or is a container of) an atomic cell.
/// Returns the atomic head name (`AtomicU64`).
pub fn atomic_ty(ty: &str) -> Option<&str> {
    let mut t = peel(ty);
    // arrays/vecs of atomics count: `[AtomicU64;7]`
    while let Some(inner) = element(t) {
        t = inner;
    }
    let h = head(t);
    (h.starts_with("Atomic") && h.len() > "Atomic".len()).then_some(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::syntax::parse_items;

    #[test]
    fn type_algebra_peels_and_classifies() {
        assert_eq!(peel("&Arc<Mutex<WalWriter>>"), "Mutex<WalWriter>");
        assert!(!is_lock("Vec<Mutex<ShardCore>>"), "vec is not a lock");
        assert!(is_lock("Mutex<ShardCore>"));
        assert!(is_lock("&RwLock<Catalog>"));
        assert_eq!(element("Vec<Mutex<ShardCore>>"), Some("Mutex<ShardCore>"));
        assert_eq!(element("[AtomicU64;7]"), Some("AtomicU64"));
        assert_eq!(atomic_ty("AtomicU64"), Some("AtomicU64"));
        assert_eq!(atomic_ty("[AtomicU64;7]"), Some("AtomicU64"));
        assert_eq!(atomic_ty("Mutex<u64>"), None);
        assert_eq!(head("std::sync::Mutex<T>"), "Mutex");
    }

    #[test]
    fn unique_field_lookup_resolves_param_aliases() {
        let src = "\
struct DbInner { wal: Option<Mutex<WalWriter>>, catalog: RwLock<Catalog> }
struct Other { also: RwLock<Catalog> }
";
        let mut sy = Symbols::default();
        sy.absorb(parse_items(&lex(src), "feraldb", "x.rs"));
        // `&Mutex<WalWriter>` params alias the unique matching field,
        // seen through the Option wrapper.
        assert_eq!(
            sy.unique_class_of_ty("Mutex<WalWriter>").as_deref(),
            Some("feraldb::DbInner::wal")
        );
        // ambiguous across two structs
        assert_eq!(sy.unique_class_of_ty("RwLock<Catalog>"), None);
    }
}
