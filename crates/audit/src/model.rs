//! The workspace model: item-level structure recovered from the token
//! stream (DESIGN.md §15).
//!
//! [`FileModel::build`] turns one lexed file into the facts the rules
//! (D7, D8) reason about: functions with body spans and impl context,
//! lock-typed struct fields and statics, the lines inside
//! `#[cfg(test)]` items, and the `// ca-audit: allow(rule, reason)`
//! pragmas. It is a *recognizer*, not
//! a full parser: it only understands the handful of shapes the rules
//! need, and unknown syntax simply contributes no facts.

use crate::lexer::{self, Comment, Tok, TokKind};

/// Which lock-ish type a field or static holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `std::sync::Mutex`.
    Mutex,
    /// `std::sync::RwLock`.
    RwLock,
    /// `std::sync::Condvar` (blocks, but adds no lock class).
    Condvar,
}

/// A struct field of lock type (`state: Mutex<State>`).
#[derive(Debug, Clone)]
pub struct LockField {
    /// The struct that owns the field.
    pub owner: String,
    /// Field name.
    pub field: String,
    /// Lock flavour.
    pub kind: LockKind,
}

/// A `static` item of lock type.
#[derive(Debug, Clone)]
pub struct LockStatic {
    /// Static name.
    pub name: String,
    /// Lock flavour.
    pub kind: LockKind,
    /// 1-based declaration line.
    pub line: usize,
    /// Declared inside `#[cfg(test)]`.
    pub is_test: bool,
}

/// One function item.
#[derive(Debug, Clone)]
pub struct FnModel {
    /// Function name.
    pub name: String,
    /// Self type of the enclosing `impl`, if any.
    pub impl_type: Option<String>,
    /// Token index of the name.
    pub name_idx: usize,
    /// `{`/`}` token indices of the body (absent for trait decls).
    pub body: Option<(usize, usize)>,
    /// 1-based line of the name.
    pub line: usize,
    /// 1-based column of the name.
    pub col: usize,
    /// Inside a `#[cfg(test)]` region.
    pub is_test: bool,
    /// Whether a parameter is typed `&Mutex<..>` — such helpers
    /// acquire on behalf of their caller, so D8 attributes the lock at
    /// the call site and ignores the helper's own `.lock()`.
    pub mutex_param: bool,
}

/// One `// ca-audit: allow(rule, reason)` suppression pragma. It covers
/// its own line and the next one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based line of the comment.
    pub line: usize,
    /// 1-based column of the comment.
    pub col: usize,
    /// Rule id named by the pragma.
    pub rule: String,
}

/// A `// ca-audit:` comment that does not parse as a pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedPragma {
    /// 1-based line of the comment.
    pub line: usize,
    /// 1-based column of the comment.
    pub col: usize,
    /// What is wrong with it.
    pub problem: &'static str,
}

/// One audited source file, parsed.
pub struct FileModel {
    /// Owning package name.
    pub crate_name: String,
    /// Root-relative path label.
    pub label: String,
    /// The token stream.
    pub toks: Vec<Tok>,
    /// For each bracket token, the index of its partner (`(){}[]`).
    pub match_idx: Vec<Option<usize>>,
    /// Function items.
    pub fns: Vec<FnModel>,
    /// Lock-typed struct fields.
    pub lock_fields: Vec<LockField>,
    /// Lock-typed statics.
    pub lock_statics: Vec<LockStatic>,
    /// Well-formed suppression pragmas.
    pub pragmas: Vec<Pragma>,
    /// `// ca-audit:` comments that do not parse.
    pub malformed_pragmas: Vec<MalformedPragma>,
    /// Per 0-based line: inside a `#[cfg(test)]` item.
    test_mask: Vec<bool>,
}

/// Whether tokens `a` then `b` touch in the source (`::`, `=>`, `..`).
pub fn adjacent(a: &Tok, b: &Tok) -> bool {
    a.pos + a.raw_len == b.pos
}

impl FileModel {
    /// Parses `content` as one file of crate `crate_name`.
    pub fn build(crate_name: &str, label: &str, content: &str) -> FileModel {
        let lexed = lexer::lex(content);
        let (pragmas, malformed_pragmas) = parse_pragmas(&lexed.comments);
        let match_idx = pair_brackets(&lexed.toks);
        let mut m = FileModel {
            crate_name: crate_name.to_string(),
            label: label.to_string(),
            toks: lexed.toks,
            match_idx,
            fns: Vec::new(),
            lock_fields: Vec::new(),
            lock_statics: Vec::new(),
            pragmas,
            malformed_pragmas,
            test_mask: vec![false; content.lines().count() + 1],
        };
        m.mask_test_items();
        m.scan_items();
        m
    }

    /// Whether 1-based `line` lies inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_mask
            .get(line.wrapping_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// If a pragma for `rule` covers 1-based `line` (same line or the
    /// line directly above), returns the pragma's line.
    pub fn pragma_covering(&self, line: usize, rule: &str) -> Option<usize> {
        self.pragmas
            .iter()
            .find(|p| p.rule == rule && (p.line == line || p.line + 1 == line))
            .map(|p| p.line)
    }

    /// Marks the lines of every `#[cfg(test)]` item: the attribute
    /// through the item's closing brace, or through `;` for brace-less
    /// items.
    fn mask_test_items(&mut self) {
        const ATTR: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
        for i in 0..self.toks.len() {
            let attr = self.toks.get(i..i + ATTR.len());
            if !attr.is_some_and(|a| a.iter().zip(ATTR).all(|(t, s)| t.text == s)) {
                continue;
            }
            let rest = &self.toks[i + ATTR.len()..];
            let Some(k) = rest.iter().position(|t| t.is_punct('{') || t.is_punct(';')) else {
                continue;
            };
            let end = i + ATTR.len() + k;
            let last = self.toks[self.partner(end)].line;
            for flag in &mut self.test_mask[self.toks[i].line - 1..last] {
                *flag = true;
            }
        }
    }

    /// Partner index of the bracket token at `i`, or `i` itself when
    /// unmatched (degenerate input).
    pub fn partner(&self, i: usize) -> usize {
        self.match_idx.get(i).copied().flatten().unwrap_or(i)
    }

    /// `::` path separator at token index `i`?
    pub fn is_path_sep(&self, i: usize) -> bool {
        self.toks[i].is_punct(':')
            && self
                .toks
                .get(i + 1)
                .is_some_and(|n| n.is_punct(':') && adjacent(&self.toks[i], n))
    }

    /// Item scan: impl regions, fns, structs, statics.
    fn scan_items(&mut self) {
        // impl regions, innermost-wins, resolved per fn below.
        let mut impls: Vec<(usize, usize, String)> = Vec::new();
        let mut i = 0;
        while i < self.toks.len() {
            let t = &self.toks[i];
            if t.is_ident("impl") {
                if let Some((ty, open)) = self.impl_header(i) {
                    impls.push((open, self.partner(open), ty));
                }
            } else if t.is_ident("fn") {
                self.scan_fn(i, &impls);
            } else if t.is_ident("struct") {
                self.scan_struct(i);
            } else if t.is_ident("static") {
                self.scan_static(i);
            }
            i += 1;
        }
    }

    /// Parses an `impl` header at `at`; returns (self type, body `{`).
    fn impl_header(&self, at: usize) -> Option<(String, usize)> {
        let mut i = at + 1;
        // Skip `<..>` generic params (angle depth; `->` cannot occur).
        if self.toks.get(i)?.is_punct('<') {
            let mut depth = 0usize;
            while i < self.toks.len() {
                if self.toks[i].is_punct('<') {
                    depth += 1;
                } else if self.toks[i].is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
        }
        let (first, mut i) = self.parse_type_path(i)?;
        let mut ty = first;
        // `impl Trait for Type` — the type is the path after `for`.
        while i < self.toks.len() && !self.toks[i].is_punct('{') {
            if self.toks[i].is_ident("for") {
                if let Some((t, j)) = self.parse_type_path(i + 1) {
                    ty = t;
                    i = j;
                    continue;
                }
            }
            if self.toks[i].is_punct(';') {
                return None;
            }
            i += 1;
        }
        if i < self.toks.len() && self.toks[i].is_punct('{') {
            Some((ty, i))
        } else {
            None
        }
    }

    /// Parses a type path starting at `i` (`a::B<..>`), returning the
    /// last segment and the index after the path.
    fn parse_type_path(&self, mut i: usize) -> Option<(String, usize)> {
        // Skip leading `&`, lifetimes, `dyn`, `mut`.
        while let Some(t) = self.toks.get(i) {
            if t.is_punct('&')
                || t.kind == TokKind::Lifetime
                || t.is_ident("dyn")
                || t.is_ident("mut")
            {
                i += 1;
            } else {
                break;
            }
        }
        let mut last: Option<String> = None;
        while let Some(t) = self.toks.get(i) {
            if t.kind == TokKind::Ident && !t.is_ident("for") && !t.is_ident("where") {
                last = Some(t.text.clone());
                i += 1;
                if self.toks.get(i).is_some_and(|_| self.is_path_sep(i)) {
                    i += 2;
                    continue;
                }
                // Trailing generics on the final segment.
                if self.toks.get(i).is_some_and(|n| n.is_punct('<')) {
                    let mut depth = 0usize;
                    while i < self.toks.len() {
                        if self.toks[i].is_punct('<') {
                            depth += 1;
                        } else if self.toks[i].is_punct('>') {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        i += 1;
                    }
                }
                break;
            }
            break;
        }
        last.map(|l| (l, i))
    }

    fn scan_fn(&mut self, at: usize, impls: &[(usize, usize, String)]) {
        let Some(name_tok) = self.toks.get(at + 1) else {
            return;
        };
        if name_tok.kind != TokKind::Ident {
            return;
        }
        let name = name_tok.text.clone();
        let (line, col) = (name_tok.line, name_tok.col);
        // Find the parameter list, then the body `{` or a `;`.
        let mut i = at + 2;
        let mut params: Option<(usize, usize)> = None;
        let mut body = None;
        while i < self.toks.len() {
            let t = &self.toks[i];
            if t.is_punct('(') && params.is_none() {
                params = Some((i, self.partner(i)));
                i = self.partner(i) + 1;
                continue;
            }
            if t.is_punct('{') {
                body = Some((i, self.partner(i)));
                break;
            }
            if t.is_punct(';') {
                break;
            }
            i += 1;
        }
        let mutex_param = params.is_some_and(|(o, c)| {
            (o..=c).any(|k| self.toks[k].is_ident("Mutex") || self.toks[k].is_ident("RwLock"))
        });
        let impl_type = impls
            .iter()
            .rfind(|(o, c, _)| *o < at && at < *c)
            .map(|(_, _, ty)| ty.clone());
        let is_test = self.is_test_line(line);
        self.fns.push(FnModel {
            name,
            impl_type,
            name_idx: at + 1,
            body,
            line,
            col,
            is_test,
            mutex_param,
        });
    }

    fn scan_struct(&mut self, at: usize) {
        let Some(name_tok) = self.toks.get(at + 1) else {
            return;
        };
        if name_tok.kind != TokKind::Ident {
            return;
        }
        let owner = name_tok.text.clone();
        // Skip generics, find `{` (tuple structs / unit structs: none).
        let mut i = at + 2;
        while i < self.toks.len() {
            let t = &self.toks[i];
            if t.is_punct('{') {
                break;
            }
            if t.is_punct(';') || t.is_punct('(') {
                return;
            }
            i += 1;
        }
        if i >= self.toks.len() {
            return;
        }
        let close = self.partner(i);
        // Fields at depth 1: `name: Type, ...`.
        let mut j = i + 1;
        while j < close {
            // Skip attributes.
            if self.toks[j].is_punct('#') {
                if let Some(n) = self.toks.get(j + 1) {
                    if n.is_punct('[') {
                        j = self.partner(j + 1) + 1;
                        continue;
                    }
                }
            }
            // Field name = last ident before `:` (skips `pub`).
            let start = j;
            let mut colon = None;
            while j < close {
                if self.toks[j].is_punct(':') && !self.is_path_sep(j) {
                    colon = Some(j);
                    break;
                }
                if self.toks[j].is_punct(',') {
                    break;
                }
                j += 1;
            }
            let Some(colon) = colon else {
                j += 1;
                continue;
            };
            let field = (start..colon)
                .rev()
                .find(|&k| self.toks[k].kind == TokKind::Ident)
                .map(|k| self.toks[k].text.clone());
            // Type tokens run to the `,` at depth 1 (skip groups).
            let mut k = colon + 1;
            let mut kind = None;
            while k < close {
                let t = &self.toks[k];
                if t.is_punct(',') {
                    break;
                }
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    k = self.partner(k) + 1;
                    continue;
                }
                kind = kind.or(match t.text.as_str() {
                    "Mutex" => Some(LockKind::Mutex),
                    "RwLock" => Some(LockKind::RwLock),
                    "Condvar" => Some(LockKind::Condvar),
                    _ => None,
                });
                k += 1;
            }
            if let (Some(field), Some(kind)) = (field, kind) {
                self.lock_fields.push(LockField {
                    owner: owner.clone(),
                    field,
                    kind,
                });
            }
            j = k + 1;
        }
    }

    fn scan_static(&mut self, at: usize) {
        let mut i = at + 1;
        if self.toks.get(i).is_some_and(|t| t.is_ident("mut")) {
            i += 1;
        }
        let Some(name_tok) = self.toks.get(i) else {
            return;
        };
        if name_tok.kind != TokKind::Ident {
            return;
        }
        let name = name_tok.text.clone();
        let line = name_tok.line;
        let mut kind = None;
        let mut j = i + 1;
        while j < self.toks.len() {
            let t = &self.toks[j];
            if t.is_punct(';') || t.is_punct('=') {
                break;
            }
            kind = kind.or(match t.text.as_str() {
                "Mutex" => Some(LockKind::Mutex),
                "RwLock" => Some(LockKind::RwLock),
                "Condvar" => Some(LockKind::Condvar),
                _ => None,
            });
            j += 1;
        }
        if let Some(kind) = kind {
            let is_test = self.is_test_line(line);
            self.lock_statics.push(LockStatic {
                name,
                kind,
                line,
                is_test,
            });
        }
    }
}

/// Parses `// ca-audit: allow(rule, reason)` pragmas out of plain line
/// comments; doc comments (`///`, `//!`) merely describe pragmas. The
/// marker must open the comment and nothing may follow the `)`, so
/// prose quoting the syntax never parses as a pragma.
fn parse_pragmas(comments: &[Comment]) -> (Vec<Pragma>, Vec<MalformedPragma>) {
    let mut pragmas = Vec::new();
    let mut malformed = Vec::new();
    for c in comments {
        if c.text.starts_with("///") || c.text.starts_with("//!") {
            continue;
        }
        let Some(rest) = c.text.strip_prefix("//") else {
            continue;
        };
        let Some(rest) = rest.trim_start().strip_prefix("ca-audit:") else {
            continue;
        };
        let parsed = rest
            .trim()
            .strip_prefix("allow(")
            .and_then(|args| args.strip_suffix(')'))
            .ok_or("expected `allow(<rule>, <reason>)` and nothing after it")
            .and_then(|args| args.split_once(',').ok_or("missing reason"))
            .and_then(|(rule, reason)| match (rule.trim(), reason.trim()) {
                ("", _) | (_, "") => Err("rule id and reason must both be non-empty"),
                (rule, _) => Ok(rule),
            });
        match parsed {
            Ok(rule) => pragmas.push(Pragma {
                line: c.line,
                col: c.col,
                rule: rule.to_string(),
            }),
            Err(problem) => malformed.push(MalformedPragma {
                line: c.line,
                col: c.col,
                problem,
            }),
        }
    }
    (pragmas, malformed)
}

/// Pairs `(){}[]` tokens; returns partner index per token.
fn pair_brackets(toks: &[Tok]) -> Vec<Option<usize>> {
    let mut out = vec![None; toks.len()];
    let mut paren = Vec::new();
    let mut brace = Vec::new();
    let mut square = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_bytes().first() {
            Some(b'(') => paren.push(i),
            Some(b'{') => brace.push(i),
            Some(b'[') => square.push(i),
            Some(b')') => {
                if let Some(o) = paren.pop() {
                    out[o] = Some(i);
                    out[i] = Some(o);
                }
            }
            Some(b'}') => {
                if let Some(o) = brace.pop() {
                    out[o] = Some(i);
                    out[i] = Some(o);
                }
            }
            Some(b']') => {
                if let Some(o) = square.pop() {
                    out[o] = Some(i);
                    out[i] = Some(o);
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::build("ca-test", "crates/test/src/lib.rs", src)
    }

    #[test]
    fn fns_get_impl_context_and_bodies() {
        let m = model(
            "struct Engine;\nimpl Engine {\n    fn start(&self) { run(); }\n}\nfn free() {}\nfn decl();\n",
        );
        let start = m.fns.iter().find(|f| f.name == "start").unwrap();
        assert_eq!(start.impl_type.as_deref(), Some("Engine"));
        assert!(start.body.is_some());
        let free = m.fns.iter().find(|f| f.name == "free").unwrap();
        assert_eq!(free.impl_type, None);
        assert!(m
            .fns
            .iter()
            .find(|f| f.name == "decl")
            .unwrap()
            .body
            .is_none());
    }

    #[test]
    fn impl_trait_for_type_resolves_to_type() {
        let m = model("impl fmt::Display for Engine {\n    fn fmt(&self) {}\n}\n");
        assert_eq!(
            m.fns[0].impl_type.as_deref(),
            Some("Engine"),
            "trait impl must attribute fns to the self type"
        );
    }

    #[test]
    fn lock_fields_and_statics() {
        let m = model(
            "struct S {\n    pub state: Mutex<Inner>,\n    changed: Condvar,\n    n: usize,\n}\nstatic REG: Mutex<Tables> = Mutex::new(Tables::new());\n",
        );
        assert_eq!(m.lock_fields.len(), 2);
        assert_eq!(m.lock_fields[0].field, "state");
        assert_eq!(m.lock_fields[0].owner, "S");
        assert_eq!(m.lock_fields[0].kind, LockKind::Mutex);
        assert_eq!(m.lock_fields[1].kind, LockKind::Condvar);
        assert_eq!(m.lock_statics.len(), 1);
        assert_eq!(m.lock_statics[0].name, "REG");
    }

    #[test]
    fn cfg_test_items_are_masked() {
        let m = model(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let s = \"}\"; }\n}\nfn live2() {}\n#[cfg(test)]\nuse x::y;\nfn live3() {}\n",
        );
        let masked: Vec<usize> = (1..=10).filter(|&l| m.is_test_line(l)).collect();
        assert_eq!(masked, [2, 3, 4, 5, 7, 8]);
    }

    #[test]
    fn pragmas_parse_and_cover_the_next_line() {
        let m = model(
            "// ca-audit: allow(D8, audited nesting)\nlet g = m.lock();\n/// ca-audit: allow(D8, doc prose)\n",
        );
        assert_eq!(m.pragmas.len(), 1);
        assert_eq!((m.pragmas[0].line, m.pragmas[0].col), (1, 1));
        assert_eq!(m.pragma_covering(2, "D8"), Some(1));
        assert_eq!(m.pragma_covering(3, "D8"), None);
        assert_eq!(m.pragma_covering(2, "D7"), None);
        assert!(m.malformed_pragmas.is_empty());
    }

    #[test]
    fn malformed_pragmas_are_collected() {
        let m = model(
            "// ca-audit: allow(D8)\n// ca-audit: deny(D8, x)\n// ca-audit: allow(D8, x) trailing\n// ca-audit: allow(, x)\n// ca-audit: allow(D8, )\n",
        );
        assert!(m.pragmas.is_empty());
        assert_eq!(m.malformed_pragmas.len(), 5);
    }

    #[test]
    fn mutex_param_helpers_flagged() {
        let m = model("fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> { m.lock().unwrap() }\nfn plain(x: usize) {}\n");
        assert!(m.fns[0].mutex_param);
        assert!(!m.fns[1].mutex_param);
    }
}
