//! Item and call extraction over the token stream.
//!
//! This is deliberately not a full parser: the rules need function
//! items (name, visibility, body extent, whether they live in a
//! `#[cfg(test)]` module or a trait), call-graph edges by callee name,
//! and a few token-pattern scans. All of that falls out of a single
//! walk over the [`lexer`] token stream with a brace
//! matcher — no AST, no type information.

use crate::lexer::{self, Lexed, TokKind, Token};

/// One extracted `fn` item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Whether declared with any `pub` visibility.
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Token indices of the body `{` and its matching `}` (None for
    /// bodiless trait-method declarations).
    pub body: Option<(usize, usize)>,
    /// Whether the fn sits inside a `#[cfg(test)]` / `mod tests` region.
    pub in_test_mod: bool,
    /// Name of the enclosing trait declaration, if any.
    pub in_trait: Option<String>,
}

/// A parsed source file with its extracted facts.
#[derive(Debug)]
pub struct FileModel {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// Raw source lines (for allow-comment attachment and rendering).
    pub lines: Vec<String>,
    /// Token stream and comment side channel.
    pub lexed: Lexed,
    /// For each token index, the index of the matching brace (both
    /// directions), or `usize::MAX`.
    pub brace_match: Vec<usize>,
    /// Extracted functions in source order.
    pub fns: Vec<FnInfo>,
    /// Token ranges (inclusive braces) of `#[cfg(test)]` mod bodies.
    pub test_mod_spans: Vec<(usize, usize)>,
}

impl FileModel {
    /// Tokens of this file.
    pub fn toks(&self) -> &[Token] {
        &self.lexed.tokens
    }

    /// Whether the whole file belongs to the test corpus (lives under
    /// a `tests/` directory).
    pub fn is_test_path(&self) -> bool {
        self.path.starts_with("tests/") || self.path.contains("/tests/")
    }

    /// Whether the file is a benchmark target.
    pub fn is_bench_path(&self) -> bool {
        self.path.contains("/benches/")
    }

    /// Whether token index `i` falls inside a test-mod span.
    pub fn in_test_span(&self, i: usize) -> bool {
        self.test_mod_spans.iter().any(|&(s, e)| i >= s && i <= e)
    }

    /// The innermost fn whose body contains token index `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnInfo> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(s, e)| i >= s && i <= e))
            .min_by_key(|f| {
                let (s, e) = f.body.unwrap();
                e - s
            })
    }
}

/// Lexes and extracts one file.
pub fn build_model(path: &str, src: &str) -> FileModel {
    let lexed = lexer::lex(src);
    let brace_match = match_braces(&lexed.tokens);
    let (fns, test_mod_spans) = extract_items(&lexed.tokens, &brace_match);
    FileModel {
        path: path.replace('\\', "/"),
        lines: src.lines().map(str::to_owned).collect(),
        lexed,
        brace_match,
        fns,
        test_mod_spans,
    }
}

/// Pairs `{`/`}` token indices. Unbalanced braces (which would mean a
/// lexer bug or truncated file) map to `usize::MAX`.
fn match_braces(toks: &[Token]) -> Vec<usize> {
    let mut out = vec![usize::MAX; toks.len()];
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Punct('{') => stack.push(i),
            TokKind::Punct('}') => {
                if let Some(open) = stack.pop() {
                    out[open] = i;
                    out[i] = open;
                }
            }
            _ => {}
        }
    }
    out
}

/// Whether the tokens just before index `i` carry a `#[cfg(test)]`
/// attribute (scans a small backwards window).
fn has_cfg_test_attr(toks: &[Token], i: usize) -> bool {
    let lo = i.saturating_sub(8);
    let w = &toks[lo..i];
    w.windows(2)
        .any(|p| p[0].is_ident("cfg") && p[1].is_punct('('))
        && w.iter().any(|t| t.is_ident("test"))
}

/// Whether the fn keyword at `i` is preceded by a `pub` (including
/// `pub(crate)` / `pub(super)` forms).
fn is_pub_fn(toks: &[Token], i: usize) -> bool {
    let mut j = i;
    // Walk back over qualifiers: unsafe / const / async / extern "C".
    while j > 0 {
        let t = &toks[j - 1];
        let qualifier = t.is_ident("unsafe")
            || t.is_ident("const")
            || t.is_ident("async")
            || t.is_ident("extern")
            || t.kind == TokKind::Str;
        if qualifier {
            j -= 1;
        } else {
            break;
        }
    }
    if j > 0 && toks[j - 1].is_ident("pub") {
        return true;
    }
    // pub(crate) fn: ... pub ( crate ) fn
    if j >= 4
        && toks[j - 1].is_punct(')')
        && toks[j - 4].is_ident("pub")
        && toks[j - 3].is_punct('(')
    {
        return true;
    }
    false
}

/// Scans from just after the fn name for the body `{` (at zero
/// paren/bracket depth) or a `;` ending a bodiless declaration.
fn find_body_open(toks: &[Token], mut i: usize) -> Option<usize> {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => paren -= 1,
            TokKind::Punct('[') => bracket += 1,
            TokKind::Punct(']') => bracket -= 1,
            TokKind::Punct('{') if paren == 0 && bracket == 0 => return Some(i),
            TokKind::Punct(';') if paren == 0 && bracket == 0 => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

struct Scope {
    close: usize,
    is_test: bool,
    trait_name: Option<String>,
}

fn extract_items(toks: &[Token], braces: &[usize]) -> (Vec<FnInfo>, Vec<(usize, usize)>) {
    let mut fns = Vec::new();
    let mut test_spans = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        while scopes.last().is_some_and(|s| i > s.close) {
            scopes.pop();
        }
        let t = &toks[i];

        if t.is_ident("mod") && i + 2 < toks.len() {
            if let (TokKind::Ident, TokKind::Punct('{')) = (toks[i + 1].kind, toks[i + 2].kind) {
                let close = braces[i + 2];
                if close != usize::MAX {
                    let is_test = toks[i + 1].text == "tests" || has_cfg_test_attr(toks, i);
                    if is_test {
                        test_spans.push((i + 2, close));
                    }
                    scopes.push(Scope {
                        close,
                        is_test: is_test || scopes.iter().any(|s| s.is_test),
                        trait_name: None,
                    });
                }
                i += 3;
                continue;
            }
        }

        if t.is_ident("trait") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            if let Some(open) = find_body_open(toks, i + 2) {
                let close = braces[open];
                if close != usize::MAX {
                    scopes.push(Scope {
                        close,
                        is_test: scopes.iter().any(|s| s.is_test),
                        trait_name: Some(toks[i + 1].text.clone()),
                    });
                }
                i = open + 1;
                continue;
            }
        }

        if t.is_ident("fn") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let body = find_body_open(toks, i + 2)
                .and_then(|open| (braces[open] != usize::MAX).then(|| (open, braces[open])));
            fns.push(FnInfo {
                name,
                is_pub: is_pub_fn(toks, i),
                line: t.line,
                col: t.col,
                body,
                in_test_mod: scopes.iter().any(|s| s.is_test),
                in_trait: scopes.iter().rev().find_map(|s| s.trait_name.clone()),
            });
            // Skip the signature but walk *into* the body so nested
            // items (closures aside, rare helper fns) are still seen.
            i = match body {
                Some((open, _)) => open + 1,
                None => i + 2,
            };
            continue;
        }

        i += 1;
    }

    (fns, test_spans)
}

/// A call site found inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Called name (method name or last path segment of a free call).
    pub callee: String,
    /// Simple receiver identifier for `recv.callee(...)` when the
    /// receiver is a plain local (not a field chain or call result).
    pub receiver: Option<String>,
    /// First argument when it is exactly `&mut IDENT` (tracks the
    /// slice-style kernel APIs where the mutated buffer is an arg).
    pub mut_arg: Option<String>,
    /// Whether this is a method call (`.callee(`).
    pub is_method: bool,
    /// Token index of the callee identifier.
    pub tok: usize,
}

/// The call site whose callee identifier sits at token index `i`, if
/// the pattern there is a call (`ident (` / `. ident (`, excluding
/// `fn ident (` declarations and `ident!(` macro invocations).
pub fn call_at(toks: &[Token], i: usize, end: usize) -> Option<CallSite> {
    if toks[i].kind != TokKind::Ident || i + 1 > end || !toks[i + 1].is_punct('(') {
        return None;
    }
    if i > 0 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_punct('!')) {
        return None;
    }
    let is_method = i > 0 && toks[i - 1].is_punct('.');
    let receiver = if is_method && i >= 2 && toks[i - 2].kind == TokKind::Ident {
        // Only a plain local (or self): reject field chains a.b.c().
        let plain = i < 3 || !toks[i - 3].is_punct('.');
        plain.then(|| toks[i - 2].text.clone())
    } else {
        None
    };
    let mut_arg = (i + 4 <= end
        && toks[i + 2].is_punct('&')
        && toks[i + 3].is_ident("mut")
        && toks[i + 4].kind == TokKind::Ident)
        .then(|| toks[i + 4].text.clone());
    Some(CallSite {
        callee: toks[i].text.clone(),
        receiver,
        mut_arg,
        is_method,
        tok: i,
    })
}

/// Extracts all call sites in `toks[range]` (token-pattern based:
/// `ident (` and `. ident (`).
pub fn calls_in(toks: &[Token], start: usize, end: usize) -> Vec<CallSite> {
    (start..=end.min(toks.len().saturating_sub(1)))
        .filter_map(|i| call_at(toks, i, end))
        .collect()
}

/// Whether `toks[range]` contains an invocation of macro `name`
/// (`name!`).
pub fn invokes_macro(toks: &[Token], start: usize, end: usize, name: &str) -> bool {
    (start..end.min(toks.len().saturating_sub(1)))
        .any(|i| toks[i].is_ident(name) && toks[i + 1].is_punct('!'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_fns_with_visibility_and_bodies() {
        let m = build_model(
            "crates/x/src/a.rs",
            "pub fn outer<T: Into<Vec<u8>>>(x: T) -> u64 { inner(); 0 }\n\
             fn inner() {}\n\
             pub(crate) fn scoped() {}\n\
             trait Tr { fn decl(&self); fn dflt(&self) {} }\n",
        );
        let names: Vec<_> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "scoped", "decl", "dflt"]);
        assert!(m.fns[0].is_pub && m.fns[0].body.is_some());
        assert!(!m.fns[1].is_pub);
        assert!(m.fns[2].is_pub, "pub(crate) counts as pub");
        let decl = &m.fns[3];
        assert_eq!(decl.in_trait.as_deref(), Some("Tr"));
        assert!(decl.body.is_none(), "trait decl has no body");
        assert!(m.fns[4].body.is_some(), "default method has a body");
    }

    #[test]
    fn test_mod_detection() {
        let m = build_model(
            "crates/x/src/a.rs",
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { prod(); }\n}\n",
        );
        assert!(!m.fns[0].in_test_mod);
        assert!(m.fns[1].in_test_mod);
        assert_eq!(m.test_mod_spans.len(), 1);
    }

    #[test]
    fn call_sites_receivers_and_mut_args() {
        let m = build_model(
            "crates/x/src/a.rs",
            "fn f() { acc.to_eval_lazy(); t.forward_strict(&mut d); self.pool.run(v); free(1); }\n",
        );
        let (s, e) = m.fns[0].body.unwrap();
        let calls = calls_in(m.toks(), s, e);
        let by_name: Vec<_> = calls
            .iter()
            .map(|c| {
                (
                    c.callee.as_str(),
                    c.receiver.as_deref(),
                    c.mut_arg.as_deref(),
                )
            })
            .collect();
        assert!(by_name.contains(&(("to_eval_lazy"), Some("acc"), None)));
        assert!(by_name.contains(&(("forward_strict"), Some("t"), Some("d"))));
        // `self.pool.run` is a field chain: no simple receiver.
        assert!(by_name.contains(&(("run"), None, None)));
        assert!(by_name.contains(&(("free"), None, None)));
    }
}
