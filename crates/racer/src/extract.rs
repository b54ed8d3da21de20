//! Per-function fact extraction: a scope-aware walk over a function
//! body that recovers atomic operations — with the class of the cell
//! they touch and their `Ordering` arguments — and `unsafe` sites.
//!
//! The walker is an abstract interpreter over the token stream: it
//! tracks local bindings (name → type + originating class) through
//! `let`, `for`, `if let`, closure parameters, field and index steps,
//! lock guards and resolved calls — enough to tell that
//! `w.store(word, Release)` inside `for (w, word) in
//! self.words.iter().zip(payload)` writes `Slot::words`, which is what
//! the seqlock and publication rules hang on.

use crate::lexer::{Token, TokenKind};
use crate::resolve::{
    atomic_ty, class_of_field, element, generic_arg, head, is_lock, map_value, peel, Symbols,
};
use crate::syntax::{matching, FnDef};
use std::collections::BTreeMap;

/// Atomic orderings recognized in argument lists.
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Atomic RMW/store/load method names.
const ATOMIC_OPS: [&str; 13] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Tokens that can never start an expression chain.
const KEYWORDS: [&str; 26] = [
    "let", "fn", "if", "else", "match", "for", "while", "loop", "return", "break", "continue",
    "in", "as", "where", "pub", "use", "mod", "impl", "struct", "enum", "trait", "type", "static",
    "const", "ref", "dyn",
];

/// One atomic operation site.
#[derive(Debug, Clone)]
pub struct AtomicOp {
    /// Resolved class of the atomic cell, or `?`.
    pub class: String,
    /// Method name (`load`, `store`, `fetch_add`, ...).
    pub op: String,
    /// `Ordering` arguments in positional order.
    pub orderings: Vec<String>,
    /// 1-based source line.
    pub line: u32,
}

impl AtomicOp {
    /// Whether this op writes the cell (stores and RMWs).
    pub fn is_store(&self) -> bool {
        self.op != "load"
    }
}

/// One `unsafe` site.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// 1-based source line of the `unsafe` keyword.
    pub line: u32,
}

/// Everything extracted from one function.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// Qualified key (`Struct::method` / free name).
    pub key: String,
    /// Repo-relative file.
    pub file: String,
    /// Crate directory name.
    pub krate: String,
    /// 1-based line of the `fn`.
    pub line: u32,
    /// Atomic operation sites.
    pub atomics: Vec<AtomicOp>,
    /// `unsafe` sites.
    pub unsafes: Vec<UnsafeSite>,
}

#[derive(Debug, Clone, Default)]
struct Binding {
    ty: String,
    class: Option<String>,
}

/// Chain evaluation result.
#[derive(Debug, Clone, Default)]
struct Val {
    ty: String,
    class: Option<String>,
    /// The value is an iterator (its `ty` is the element type).
    iterated: bool,
}

struct Walk<'a> {
    sy: &'a Symbols,
    krate: &'a str,
    self_ty: Option<&'a str>,
    tokens: &'a [Token],
    facts: FnFacts,
    scopes: Vec<Vec<(String, Binding)>>,
}

/// Extract facts for every function.
pub fn extract_all(sy: &Symbols, lexed: &BTreeMap<String, crate::lexer::Lexed>) -> Vec<FnFacts> {
    sy.fns
        .iter()
        .map(|f| extract_fn(sy, f, &lexed[&f.file].tokens))
        .collect()
}

fn extract_fn(sy: &Symbols, f: &FnDef, tokens: &[Token]) -> FnFacts {
    let mut scope0 = Vec::new();
    for p in &f.params {
        let class = sy
            .unique_class_of_ty(peel(&p.ty))
            .filter(|_| atomic_ty(&p.ty).is_some() || element(peel(&p.ty)).is_some());
        scope0.push((
            p.name.clone(),
            Binding {
                ty: p.ty.clone(),
                class,
            },
        ));
    }
    let mut w = Walk {
        sy,
        krate: &f.krate,
        self_ty: f.self_ty.as_deref(),
        tokens,
        facts: FnFacts {
            key: f.key(),
            file: f.file.clone(),
            krate: f.krate.clone(),
            line: f.line,
            ..FnFacts::default()
        },
        scopes: vec![scope0],
    };
    w.walk(f.body.0, f.body.1);
    w.facts
}

impl<'a> Walk<'a> {
    fn walk(&mut self, start: usize, end: usize) {
        let mut i = start;
        while i < end {
            match &self.tokens[i].kind {
                TokenKind::Punct('{') => {
                    self.scopes.push(Vec::new());
                    i += 1;
                }
                TokenKind::Punct('}') => {
                    self.scopes.pop();
                    i += 1;
                }
                TokenKind::Punct('#') if self.peek_punct(i + 1, '[') => {
                    i = matching(self.tokens, i + 1, '[', ']') + 1;
                }
                TokenKind::Ident(w) => match w.as_str() {
                    "let" => i = self.stmt_let(i + 1, end),
                    "for" => i = self.stmt_for(i + 1, end),
                    "if" | "while" if self.peek_ident(i + 1, "let") => {
                        i = self.stmt_if_let(i + 2, end)
                    }
                    "unsafe" => {
                        self.facts.unsafes.push(UnsafeSite {
                            line: self.tokens[i].line,
                        });
                        i += 1;
                    }
                    // a condition / scrutinee after a keyword is an
                    // ordinary chain
                    kw if KEYWORDS.contains(&kw) => i += 1,
                    _ => {
                        let (_, ni) = self.eval_expr(i, end);
                        // simple-ident reassignment: `x = chain`
                        if ni == i + 1
                            && ni < end
                            && self.tokens[ni].is_punct('=')
                            && !self.peek_punct(ni + 1, '=')
                        {
                            let name = self.tokens[i].ident().unwrap_or("_").to_string();
                            let (rv, k) = self.eval_expr(ni + 1, end);
                            self.bind(
                                &name,
                                Binding {
                                    ty: rv.ty,
                                    class: rv.class,
                                },
                            );
                            i = k;
                        } else {
                            i = ni.max(i + 1);
                        }
                    }
                },
                _ => i += 1,
            }
        }
    }

    fn peek_punct(&self, i: usize, c: char) -> bool {
        self.tokens.get(i).is_some_and(|t| t.is_punct(c))
    }

    fn peek_ident(&self, i: usize, s: &str) -> bool {
        self.tokens.get(i).is_some_and(|t| t.is_ident(s))
    }

    fn bind(&mut self, name: &str, b: Binding) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.push((name.to_string(), b));
        }
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.iter().rev().find(|(n, _)| n == name).map(|(_, b)| b))
    }

    // -- statements ------------------------------------------------------

    /// `let PATTERN (: TY)? (= EXPR)? ;` — returns the index after the
    /// initializer (the trailing `;` is handled by the main loop).
    fn stmt_let(&mut self, start: usize, end: usize) -> usize {
        let mut ids: Vec<String> = Vec::new();
        let mut wrapper = false;
        let mut ann_start = None;
        let mut depth = 0i32;
        let mut j = start;
        while j < end {
            match &self.tokens[j].kind {
                TokenKind::Punct('<') | TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct('>') | TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                TokenKind::Punct('=') if depth <= 0 => break,
                TokenKind::Punct(';') if depth <= 0 => break,
                TokenKind::Punct(':') if depth <= 0 && ann_start.is_none() => {
                    ann_start = Some(j + 1)
                }
                TokenKind::Ident(id) if ann_start.is_none() => match id.as_str() {
                    "Some" | "Ok" => wrapper = true,
                    "mut" | "ref" | "Err" | "None" => {}
                    _ => ids.push(id.clone()),
                },
                _ => {}
            }
            j += 1;
        }
        let ann_ty = ann_start.map(|s| crate::syntax::normalize_ty(&self.tokens[s..j]));
        if j >= end || self.tokens[j].is_punct(';') {
            for id in &ids {
                self.bind(
                    id,
                    Binding {
                        ty: ann_ty.clone().unwrap_or_default(),
                        class: None,
                    },
                );
            }
            return j;
        }
        let (v, k) = self.eval_expr(j + 1, end);
        let ty = if wrapper {
            element(peel(&v.ty)).unwrap_or("").to_string()
        } else if v.ty.is_empty() {
            ann_ty.unwrap_or_default()
        } else {
            v.ty.clone()
        };
        for id in &ids {
            self.bind(
                id,
                Binding {
                    ty: ty.clone(),
                    class: v.class.clone(),
                },
            );
        }
        k
    }

    /// `for PATTERN in EXPR { ... }` — binds the pattern to the element
    /// of the source.
    fn stmt_for(&mut self, start: usize, end: usize) -> usize {
        let mut ids: Vec<String> = Vec::new();
        let mut j = start;
        while j < end && !self.tokens[j].is_ident("in") {
            if let Some(id) = self.tokens[j].ident() {
                if id != "mut" && id != "ref" {
                    ids.push(id.to_string());
                }
            }
            j += 1;
        }
        let (v, k) = self.eval_expr(j + 1, end);
        let elem = if v.iterated {
            v.ty.clone()
        } else {
            element(peel(&v.ty)).unwrap_or("").to_string()
        };
        for id in &ids {
            self.bind(
                id,
                Binding {
                    ty: elem.clone(),
                    class: v.class.clone(),
                },
            );
        }
        k
    }

    /// `if let PAT = EXPR { ... }` / `while let ...` — binds the pattern
    /// idents to the unwrapped element of the scrutinee.
    fn stmt_if_let(&mut self, start: usize, end: usize) -> usize {
        let mut ids: Vec<String> = Vec::new();
        let mut j = start;
        let mut depth = 0i32;
        while j < end {
            match &self.tokens[j].kind {
                TokenKind::Punct('(') => depth += 1,
                TokenKind::Punct(')') => depth -= 1,
                TokenKind::Punct('=') if depth <= 0 => break,
                TokenKind::Ident(id) => match id.as_str() {
                    "Some" | "Ok" | "Err" | "mut" | "ref" | "None" => {}
                    _ => ids.push(id.clone()),
                },
                _ => {}
            }
            j += 1;
        }
        let (v, k) = self.eval_expr(j + 1, end);
        let elem = element(peel(&v.ty)).unwrap_or("").to_string();
        for id in &ids {
            self.bind(
                id,
                Binding {
                    ty: elem.clone(),
                    class: v.class.clone(),
                },
            );
        }
        k
    }

    // -- expressions -----------------------------------------------------

    /// Expression head: `match`/`unsafe`/`if` blocks are walked in place,
    /// everything else is a chain.
    fn eval_expr(&mut self, i: usize, end: usize) -> (Val, usize) {
        if i >= end {
            return (Val::default(), i);
        }
        if self.tokens[i].is_ident("match") {
            let (sv, j) = self.eval_chain(i + 1, end);
            if j < end && self.tokens[j].is_punct('{') {
                let close = matching(self.tokens, j, '{', '}');
                self.walk(j, close + 1);
                return (Val::default(), close + 1);
            }
            return (sv, j);
        }
        if self.tokens[i].is_ident("unsafe") {
            self.facts.unsafes.push(UnsafeSite {
                line: self.tokens[i].line,
            });
            if self.peek_punct(i + 1, '{') {
                let close = matching(self.tokens, i + 1, '{', '}');
                self.walk(i + 1, close + 1);
                return (Val::default(), close + 1);
            }
            return (Val::default(), i + 1);
        }
        if self.tokens[i].is_ident("if") {
            // `let x = if c { a } else { b }` — walk the whole ladder
            let mut j = i + 1;
            loop {
                let (_, cj) = self.eval_chain(j, end);
                let mut bj = cj;
                while bj < end && !self.tokens[bj].is_punct('{') {
                    bj += 1;
                }
                if bj >= end {
                    return (Val::default(), bj);
                }
                let close = matching(self.tokens, bj, '{', '}');
                self.walk(bj, close + 1);
                j = close + 1;
                if j < end && self.tokens[j].is_ident("else") {
                    j += 1;
                    if j < end && self.tokens[j].is_punct('{') {
                        let close = matching(self.tokens, j, '{', '}');
                        self.walk(j, close + 1);
                        j = close + 1;
                        break;
                    }
                    if j < end && self.tokens[j].is_ident("if") {
                        j += 1;
                        continue;
                    }
                }
                break;
            }
            return (Val::default(), j);
        }
        self.eval_chain(i, end)
    }

    /// Evaluate one expression chain starting at `i`; returns the value
    /// and the index of the first token past the chain.
    fn eval_chain(&mut self, mut i: usize, end: usize) -> (Val, usize) {
        // prefixes
        while i < end {
            match &self.tokens[i].kind {
                TokenKind::Punct('&') | TokenKind::Punct('*') | TokenKind::Punct('!') => i += 1,
                TokenKind::Ident(w) if w == "mut" || w == "move" => i += 1,
                _ => break,
            }
        }
        if i >= end {
            return (Val::default(), i);
        }
        let mut v = Val::default();
        match &self.tokens[i].kind {
            TokenKind::Punct('(') => {
                let close = matching(self.tokens, i, '(', ')');
                let (inner, _) = self.eval_expr(i + 1, close);
                v = inner;
                i = close + 1;
            }
            TokenKind::Num(_) | TokenKind::Str | TokenKind::Char => i += 1,
            TokenKind::Ident(name) => {
                if KEYWORDS.contains(&name.as_str()) {
                    return (Val::default(), i + 1);
                }
                if self.peek_punct(i + 1, ':') && self.peek_punct(i + 2, ':') {
                    return self.eval_path(i, end);
                }
                if self.peek_punct(i + 1, '!') {
                    // macro: walk the delimited contents as statements
                    let open = i + 2;
                    if open < end {
                        let (oc, cc) = match &self.tokens[open].kind {
                            TokenKind::Punct('(') => ('(', ')'),
                            TokenKind::Punct('[') => ('[', ']'),
                            TokenKind::Punct('{') => ('{', '}'),
                            _ => return (Val::default(), open),
                        };
                        let close = matching(self.tokens, open, oc, cc);
                        if oc == '{' {
                            self.walk(open, close + 1);
                        } else {
                            self.walk(open + 1, close);
                        }
                        return (Val::default(), close + 1);
                    }
                    return (Val::default(), open);
                }
                if name == "self" {
                    v.ty = self.self_ty.unwrap_or("").to_string();
                    i += 1;
                } else if let Some(b) = self.lookup(name) {
                    v.ty = b.ty.clone();
                    v.class = b.class.clone();
                    i += 1;
                } else if let Some(st) = self.sy.statics.get(name) {
                    v.ty = st.ty.clone();
                    v.class = Some(format!("{}::{}", st.krate, st.name));
                    i += 1;
                } else if self.peek_punct(i + 1, '(') {
                    // free fn (or enum-variant constructor) call
                    let close = matching(self.tokens, i + 1, '(', ')');
                    let ret = self.free_fn(name).map(|fd| fd.ret.clone());
                    self.eval_args(i + 1, &Val::default());
                    if let Some(ret) = ret {
                        v = self.call_result(&ret, &Val::default());
                    }
                    i = close + 1;
                } else {
                    i += 1;
                }
            }
            _ => return (Val::default(), i + 1),
        }
        self.eval_suffixes(v, i, end)
    }

    /// `A::b(...)` / `A::B::c(...)` paths: associated calls on structs,
    /// free fns behind module paths, or plain path constants.
    fn eval_path(&mut self, i: usize, end: usize) -> (Val, usize) {
        let mut segs: Vec<String> = Vec::new();
        let mut j = i;
        while j < end {
            if let Some(id) = self.tokens[j].ident() {
                segs.push(if id == "Self" {
                    self.self_ty.unwrap_or("").to_string()
                } else {
                    id.to_string()
                });
                if self.peek_punct(j + 1, ':') && self.peek_punct(j + 2, ':') {
                    j += 3;
                    continue;
                }
                j += 1;
                break;
            }
            break;
        }
        let last = segs.last().cloned().unwrap_or_default();
        if j < end && self.tokens[j].is_punct('(') {
            let close = matching(self.tokens, j, '(', ')');
            let owner = segs.iter().rev().nth(1).cloned().unwrap_or_default();
            let ret = if self.sy.struct_def(&owner, self.krate).is_some() {
                self.sy.method(&owner, &last).map(|f| f.ret.clone())
            } else {
                self.free_fn(&last).map(|f| f.ret.clone())
            };
            self.eval_args(j, &Val::default());
            let v = match ret {
                Some(ret) => self.call_result(&ret, &Val::default()),
                None => Val::default(),
            };
            return self.eval_suffixes(v, close + 1, end);
        }
        // plain path (constant / enum variant)
        self.eval_suffixes(Val::default(), j, end)
    }

    /// A free function with a unique definition, preferring ones
    /// actually defined free over same-named methods.
    fn free_fn(&self, name: &str) -> Option<&FnDef> {
        let idxs = self.sy.by_name.get(name)?;
        let free: Vec<&FnDef> = idxs
            .iter()
            .map(|&x| &self.sy.fns[x])
            .filter(|f| f.self_ty.is_none())
            .collect();
        match free.as_slice() {
            [only] => Some(only),
            [first, rest @ ..] => {
                // prefer the same-crate definition when names collide
                rest.iter()
                    .chain(std::iter::once(first))
                    .find(|f| f.krate == self.krate)
                    .copied()
            }
            [] => None,
        }
    }

    fn eval_suffixes(&mut self, mut v: Val, mut i: usize, end: usize) -> (Val, usize) {
        while i < end {
            if self.tokens[i].is_punct('.') {
                let Some(next) = self.tokens.get(i + 1) else {
                    return (v, i + 1);
                };
                match &next.kind {
                    TokenKind::Ident(name) if name == "await" => {
                        i += 2;
                    }
                    TokenKind::Ident(name) => {
                        if self.peek_punct(i + 2, '(') {
                            let close = matching(self.tokens, i + 2, '(', ')');
                            let line = next.line;
                            v = self.method_call(v, name.clone(), i + 2, line);
                            i = close + 1;
                        } else {
                            v = self.field_step(&v, name);
                            i += 2;
                        }
                    }
                    TokenKind::Num(_) => {
                        // tuple field: `pair.1`
                        v.ty = String::new();
                        i += 2;
                    }
                    _ => return (v, i + 1),
                }
            } else if self.tokens[i].is_punct('[') {
                let close = matching(self.tokens, i, '[', ']');
                let _ = self.eval_expr(i + 1, close);
                if let Some(inner) = element(peel(&v.ty)) {
                    v.ty = inner.to_string();
                }
                i = close + 1;
            } else if self.tokens[i].is_punct('?') {
                if let Some(inner) = element(peel(&v.ty)) {
                    if head(&v.ty) == "Result" || head(&v.ty) == "Option" {
                        v.ty = inner.to_string();
                    }
                }
                i += 1;
            } else {
                break;
            }
        }
        (v, i)
    }

    fn field_step(&mut self, v: &Val, field: &str) -> Val {
        let core = peel(&v.ty);
        let sname = head(core);
        if let Some((def, f)) = self.sy.field_of(sname, self.krate, field) {
            let atomic = atomic_ty(&f.ty).is_some()
                || map_value(&f.ty).is_some_and(|e| atomic_ty(e).is_some());
            Val {
                ty: f.ty.clone(),
                class: atomic.then(|| class_of_field(def, field)),
                ..Val::default()
            }
        } else {
            Val::default()
        }
    }

    fn method_call(&mut self, v: Val, name: String, open: usize, line: u32) -> Val {
        let recv_core = peel(&v.ty).to_string();
        // 1. a lock guard derefs to the payload
        if is_lock(&recv_core) && matches!(name.as_str(), "lock" | "try_lock" | "read" | "write") {
            self.eval_args(open, &Val::default());
            return Val {
                ty: guard_inner(&recv_core),
                ..Val::default()
            };
        }
        // 2. atomic op
        if atomic_ty(&recv_core).is_some() && ATOMIC_OPS.contains(&name.as_str()) {
            let close = matching(self.tokens, open, '(', ')');
            let orderings: Vec<String> = self.tokens[open + 1..close]
                .iter()
                .filter_map(Token::ident)
                .filter(|id| ORDERINGS.contains(id))
                .map(str::to_string)
                .collect();
            self.facts.atomics.push(AtomicOp {
                class: v.class.clone().unwrap_or_else(|| "?".to_string()),
                op: name.clone(),
                orderings,
                line,
            });
            self.eval_args(open, &Val::default());
            return Val::default();
        }
        // 3. iterator adapters
        match name.as_str() {
            "iter" | "iter_mut" | "into_iter" | "values" | "values_mut" | "keys" | "drain"
            | "chunks" | "windows" => {
                self.eval_args(open, &Val::default());
                let elem = if matches!(name.as_str(), "values" | "values_mut") {
                    map_value(&recv_core).or_else(|| element(&recv_core))
                } else {
                    element(&recv_core)
                };
                return Val {
                    ty: elem.unwrap_or("").to_string(),
                    class: v.class,
                    iterated: true,
                };
            }
            "rev" | "enumerate" | "take" | "skip" | "cloned" | "copied" | "flatten" | "by_ref"
            | "peekable" | "clone" | "as_ref" | "as_mut" | "as_deref" | "borrow" | "borrow_mut" => {
                self.eval_args(open, &Val::default());
                return v;
            }
            "zip" | "chain" => {
                let close = matching(self.tokens, open, '(', ')');
                let (av, _) = self.eval_expr(open + 1, close);
                if v.class.is_none() && av.class.is_some() {
                    return Val {
                        iterated: true,
                        ..av
                    };
                }
                return v;
            }
            "map" | "filter" | "filter_map" | "flat_map" | "for_each" | "retain" | "find"
            | "find_map" | "any" | "all" | "position" | "fold" => {
                self.eval_args(open, &v);
                return Val::default();
            }
            "unwrap" | "expect" | "unwrap_or" | "unwrap_or_else" | "unwrap_or_default" | "ok"
            | "err" | "map_err" => {
                self.eval_args(open, &Val::default());
                let mut out = v.clone();
                if matches!(head(&recv_core), "Option" | "Result") {
                    if let Some(inner) = element(&recv_core) {
                        out.ty = inner.to_string();
                    }
                }
                return out;
            }
            _ => {}
        }
        // 4. user method on a known workspace struct
        let sname = head(&recv_core).to_string();
        if self.sy.struct_def(&sname, self.krate).is_some() {
            if let Some(fd) = self.sy.method(&sname, &name) {
                // only accept unique-name fallbacks that look plausible
                if fd.self_ty.as_deref() == Some(sname.as_str()) || fd.self_ty.is_none() {
                    let ret = fd.ret.clone();
                    self.eval_args(open, &Val::default());
                    let recv = Val {
                        ty: recv_core,
                        ..Val::default()
                    };
                    return self.call_result(&ret, &recv);
                }
            }
        }
        // unknown receiver or unknown method: evaluate args, lose track
        self.eval_args(open, &Val::default());
        Val::default()
    }

    /// Shape the value produced by a resolved call: an accessor that
    /// returns an atomic resolves to the field it exposes.
    fn call_result(&mut self, ret: &str, recv: &Val) -> Val {
        let ret_core = peel(ret);
        let class = atomic_ty(ret_core).and_then(|_| {
            self.receiver_field_matching(recv, ret_core)
                .or_else(|| self.sy.unique_class_of_ty(ret_core))
        });
        Val {
            ty: ret.to_string(),
            class,
            ..Val::default()
        }
    }

    fn receiver_field_matching(&self, recv: &Val, core: &str) -> Option<String> {
        let def = self.sy.struct_def(head(peel(&recv.ty)), self.krate)?;
        let mut found = None;
        for f in &def.fields {
            let fp = peel(&f.ty);
            if fp == core || element(fp).map(peel) == Some(core) {
                match found {
                    None => found = Some(class_of_field(def, &f.name)),
                    Some(_) => return None,
                }
            }
        }
        found
    }

    /// Evaluate a call's arguments. Closures bind their parameters to
    /// the receiver's element (for iterator adapters) and their bodies
    /// are walked in place.
    fn eval_args(&mut self, open: usize, recv: &Val) {
        let close = matching(self.tokens, open, '(', ')');
        let mut i = open + 1;
        while i < close {
            if self.tokens[i].is_ident("move") && self.peek_punct(i + 1, '|') {
                i += 1;
                continue;
            }
            if self.tokens[i].is_punct('|') {
                // closure: params to matching '|', body to the end of
                // this argument (',' at relative depth 0) or `close`
                let mut p = i + 1;
                let mut params: Vec<String> = Vec::new();
                while p < close && !self.tokens[p].is_punct('|') {
                    if let Some(id) = self.tokens[p].ident() {
                        if id != "mut" && id != "ref" {
                            params.push(id.to_string());
                        }
                    }
                    p += 1;
                }
                let body_start = p + 1;
                let mut depth = 0i32;
                let mut body_end = body_start;
                while body_end < close {
                    match &self.tokens[body_end].kind {
                        TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                            depth += 1
                        }
                        TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                            depth -= 1
                        }
                        TokenKind::Punct(',') if depth == 0 => break,
                        _ => {}
                    }
                    body_end += 1;
                }
                let elem_ty = if recv.iterated {
                    recv.ty.clone()
                } else {
                    element(peel(&recv.ty)).unwrap_or("").to_string()
                };
                self.scopes.push(
                    params
                        .into_iter()
                        .map(|prm| {
                            let b = Binding {
                                ty: elem_ty.clone(),
                                class: recv.class.clone(),
                            };
                            (prm, b)
                        })
                        .collect(),
                );
                if self.tokens.get(body_start).is_some_and(|t| t.is_punct('{')) {
                    self.walk(body_start, body_end);
                } else {
                    let _ = self.eval_expr(body_start, body_end);
                }
                self.scopes.pop();
                i = body_end;
                continue;
            }
            if self.tokens[i].is_punct(',') {
                i += 1;
                continue;
            }
            let (_, ni) = self.eval_expr(i, close);
            i = ni.max(i + 1);
        }
    }
}

/// Payload type inside a lock type (`Mutex<GroupState>` → `GroupState`).
fn guard_inner(ty: &str) -> String {
    let t = peel(ty);
    generic_arg(t, "Mutex")
        .or_else(|| generic_arg(t, "RwLock"))
        .unwrap_or(t)
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::syntax::parse_items;

    fn facts_of(src: &str, key: &str) -> FnFacts {
        let mut sy = Symbols::default();
        let lexed = lex(src);
        sy.absorb(parse_items(&lexed, "tc", "t.rs"));
        let mut map = BTreeMap::new();
        map.insert("t.rs".to_string(), lexed);
        extract_all(&sy, &map)
            .into_iter()
            .find(|f| f.key == key)
            .unwrap_or_else(|| panic!("no facts for {key}"))
    }

    const PIPELINE: &str = "
struct Slot { seq: AtomicU64 }
struct Core { hits: AtomicU64 }
struct Pipe {
    slots: Vec<Slot>,
    core: Mutex<Core>,
    words: [AtomicU64; 7],
    flag: AtomicU64,
}
impl Pipe {
    fn bump(&self, ids: &BTreeSet<usize>) {
        for &i in ids {
            let n = match self.slots[i].seq.load(Ordering::Acquire) {
                0 => 1,
                n => n,
            };
            self.slots[i].seq.store(n, Ordering::Release);
        }
        self.core.lock().hits.fetch_add(1, Ordering::Relaxed);
        self.flag.store(1, Ordering::Release);
    }
    fn sum(&self) -> u64 {
        self.words.iter().map(|w| w.load(Ordering::Acquire)).sum()
    }
}
";

    #[test]
    fn atomics_resolve_through_index_match_loops_and_guards() {
        let f = facts_of(PIPELINE, "Pipe::bump");
        let ops: Vec<(&str, &str, &str)> = f
            .atomics
            .iter()
            .map(|a| (a.class.as_str(), a.op.as_str(), a.orderings[0].as_str()))
            .collect();
        assert_eq!(
            ops,
            [
                ("tc::Slot::seq", "load", "Acquire"),
                ("tc::Slot::seq", "store", "Release"),
                ("tc::Core::hits", "fetch_add", "Relaxed"),
                ("tc::Pipe::flag", "store", "Release"),
            ]
        );
    }

    #[test]
    fn closure_iteration_atomics_resolve_to_the_container_class() {
        let f = facts_of(PIPELINE, "Pipe::sum");
        assert_eq!(f.atomics.len(), 1);
        assert_eq!(f.atomics[0].class, "tc::Pipe::words");
        assert!(!f.atomics[0].is_store());
    }

    #[test]
    fn unsafe_sites_and_statics_are_recorded() {
        let src = "
static HITS: AtomicU64 = AtomicU64::new(0);
fn touch() {
    HITS.fetch_add(1, Ordering::Relaxed);
    let p = unsafe { danger() };
    let _ = p;
}
";
        let f = facts_of(src, "touch");
        assert_eq!(f.atomics[0].class, "tc::HITS");
        assert_eq!(f.unsafes.len(), 1);
    }
}
