//! The rule catalogue.
//!
//! Each rule is a pure function over extracted [`FileModel`]s; none of
//! them executes code or needs type information. The configuration
//! lists below (chain roots, lazy markers, strict kernels, clearers)
//! mirror the runtime `debug_assert_domain!` contracts in
//! `fhe-math` — the lint makes the same discipline checkable without
//! running the debug-assertion suites.

use crate::diag::Finding;
use crate::lexer::{TokKind, Token};
use crate::parse::{call_at, calls_in, invokes_macro, FileModel};
use std::collections::{HashMap, HashSet};

/// Every rule the linter knows, in catalogue order. `allow(<rule>)`
/// comments must name one of these.
pub const RULES: &[&str] = &[
    "lazy-domain",
    "lazy-chain-coverage",
    "missing-domain-assert",
    "missing-strict-oracle",
    "untested-lazy-entry",
    "backend-coverage",
    "guard-across-dispatch",
    "lock-unwrap",
    "env-read",
    "kernel-force-outside-test",
    "unsafe-missing-safety",
    "bad-allow",
];

/// The declared lazy-chain entry points: ciphertext-level operations
/// whose internals ride the `[0, 2p)` window end-to-end.
pub const LAZY_CHAIN_ROOTS: &[&str] = &[
    "key_switch",
    "key_switch_galois",
    "mul_no_relin",
    "relinearize",
    "external_product",
    "blind_rotate",
];

/// Kernels that *mark their receiver* lazy: after `x.to_eval_lazy()`,
/// `x` holds `[0, 2p)` residues until something folds them.
const RECEIVER_LAZY_MARKERS: &[&str] = &[
    "to_eval_lazy",
    "to_coeff_lazy",
    "add_assign_lazy",
    "sub_assign_lazy",
    "mul_assign_pointwise_lazy",
    "mul_acc_pointwise_lazy",
];

/// Window-preserving kernels: they neither establish nor fold the
/// `[0, 2p)` window (pure slot permutations), so the receiver's state
/// carries straight through.
const PRESERVERS: &[&str] = &["automorphism_lazy", "permute"];

/// Kernels that *mark their `&mut` argument* lazy (slice-level APIs
/// where the mutated buffer is the first argument).
const ARG_LAZY_MARKERS: &[&str] = &["mul_acc_lazy_batch"];

/// Strict kernels: debug-panic on a lazy receiver at runtime, so a
/// statically-proven lazy receiver here is a guaranteed debug failure.
const RECEIVER_STRICT_KERNELS: &[&str] = &[
    "add_assign",
    "sub_assign",
    "neg_assign",
    "mul_assign_pointwise",
    "mul_acc_pointwise",
    "mul_scalar_i64",
    "mul_scalar_residues",
    "automorphism",
    "to_centered_f64",
    "to_eval_strict",
    "to_coeff_strict",
];

/// Strict kernels over a `&mut` first argument.
const ARG_STRICT_KERNELS: &[&str] = &["forward_strict", "inverse_strict", "pointwise_mul_acc"];

/// Boundary folds: accept either window and leave the target canonical
/// (or at least re-establish the kernel's documented exit window).
const CLEARERS: &[&str] = &[
    "canonicalize",
    "to_eval",
    "to_coeff",
    "forward",
    "inverse",
    "reduce_2p",
    "fold_2p_to_canonical",
    "fold_4p_to_canonical",
];

/// Methods that hand work to another thread; holding a lock guard
/// across one of these serialises the pool (or deadlocks it).
const DISPATCH_CALLS: &[&str] = &["send", "dispatch", "run"];

/// Functions allowed to `lock()/read()/write()` + unwrap-family:
/// dedicated poison-recovery helpers.
const POISON_HELPERS: &[&str] = &["read_cache", "write_cache"];

/// The kernel backend module: where `KernelBackend` (the
/// `backend-coverage` subject) and the test-only `kernel::force` live.
const SELECTOR_PATH_SUFFIX: &str = "fhe-math/src/kernel.rs";

fn is_prod(m: &FileModel) -> bool {
    !m.is_test_path() && !m.is_bench_path()
}

/// Runs every rule over the file set and returns raw findings
/// (allow-comment suppression happens in the caller).
pub fn run(files: &[FileModel]) -> Vec<Finding> {
    // Workspace mode: the real tree is being scanned (the kernel
    // backend module is present), so cross-file config staleness is
    // checkable. Fixture sets stay quiet on those checks.
    let workspace_mode = files.iter().any(|m| m.path.ends_with(SELECTOR_PATH_SUFFIX));

    let mut out = Vec::new();
    for m in files {
        lazy_domain(m, &mut out);
        missing_domain_assert(m, &mut out);
        missing_strict_oracle(m, &mut out);
        guard_across_dispatch(m, &mut out);
        lock_unwrap(m, &mut out);
        env_read(m, &mut out);
        kernel_force(m, &mut out);
        unsafe_missing_safety(m, &mut out);
    }
    lazy_chain_coverage(files, workspace_mode, &mut out);
    untested_lazy_entry(files, &mut out);
    backend_coverage(files, &mut out);
    out
}

fn finding(
    rule: &'static str,
    m: &FileModel,
    t: &Token,
    message: String,
    help: impl Into<String>,
) -> Finding {
    Finding {
        rule,
        file: m.path.clone(),
        line: t.line,
        col: t.col,
        message,
        help: help.into(),
    }
}

// ---------------------------------------------------------------- lazy-domain

/// Receiver-state machine: within each production fn body, track which
/// locals provably hold `[0, 2p)` residues and flag strict kernels
/// invoked on them. Also flags lazy-chain roots that call a `*_strict`
/// oracle directly (the oracle must stay an independent reference).
fn lazy_domain(m: &FileModel, out: &mut Vec<Finding>) {
    if !is_prod(m) {
        return;
    }
    let toks = m.toks();
    for f in m.fns.iter().filter(|f| !f.in_test_mod) {
        let Some((s, e)) = f.body else { continue };

        // Part 1: chain roots must not reach for the strict oracle.
        if LAZY_CHAIN_ROOTS.contains(&f.name.as_str()) {
            for c in calls_in(toks, s, e) {
                if c.callee.ends_with("_strict") {
                    out.push(finding(
                        "lazy-domain",
                        m,
                        &toks[c.tok],
                        format!(
                            "lazy-chain root `{}` calls the strict oracle `{}` directly",
                            f.name, c.callee
                        ),
                        "the strict oracles are the independent reference the lazy chains \
                         are asserted against; route through the lazy kernels instead",
                    ));
                }
            }
        }

        // Part 2: lazy receivers must not feed strict kernels.
        // Marks are (name, brace depth at marking); a mark dies when
        // its block closes, the local is rebound/reassigned, or it is
        // handed (receiver or `&mut`) to a kernel we do not model.
        let mut marks: Vec<(String, u32, usize)> = Vec::new(); // (name, depth, marker tok)
        let mut depth = 0u32;
        let mut i = s;
        while i <= e {
            match toks[i].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    marks.retain(|mk| mk.1 < depth);
                    depth = depth.saturating_sub(1);
                }
                TokKind::Ident if toks[i].text == "let" => {
                    let mut j = i + 1;
                    if j <= e && toks[j].is_ident("mut") {
                        j += 1;
                    }
                    if j <= e && toks[j].kind == TokKind::Ident {
                        let name = &toks[j].text;
                        marks.retain(|mk| &mk.0 != name);
                    }
                }
                TokKind::Ident => {
                    // Plain reassignment `x = ...` clears x.
                    if i < e
                        && toks[i + 1].is_punct('=')
                        && !(i + 2 <= e && toks[i + 2].is_punct('='))
                        && !(i > 0
                            && matches!(
                                toks[i - 1].kind,
                                TokKind::Punct('=')
                                    | TokKind::Punct('!')
                                    | TokKind::Punct('<')
                                    | TokKind::Punct('>')
                                    | TokKind::Punct(':')
                                    | TokKind::Punct('+')
                                    | TokKind::Punct('-')
                                    | TokKind::Punct('*')
                                    | TokKind::Punct('/')
                            ))
                    {
                        let name = toks[i].text.clone();
                        marks.retain(|mk| mk.0 != name);
                    }
                    if let Some(c) = call_at(toks, i, e) {
                        let callee = c.callee.as_str();
                        let set_mark = |marks: &mut Vec<(String, u32, usize)>, n: &str| {
                            marks.retain(|mk| mk.0 != n);
                            marks.push((n.to_owned(), depth, i));
                        };
                        if PRESERVERS.contains(&callee) {
                            // Window-preserving: state carries through.
                        } else if RECEIVER_LAZY_MARKERS.contains(&callee) {
                            if let Some(r) = c.receiver.as_deref() {
                                set_mark(&mut marks, r);
                            } else if let Some(a) = c.mut_arg.as_deref() {
                                set_mark(&mut marks, a);
                            }
                        } else if ARG_LAZY_MARKERS.contains(&callee) {
                            if let Some(a) = c.mut_arg.as_deref() {
                                set_mark(&mut marks, a);
                            }
                        } else if CLEARERS.contains(&callee) {
                            if let Some(r) = c.receiver.as_deref() {
                                marks.retain(|mk| mk.0 != r);
                            }
                            if let Some(a) = c.mut_arg.as_deref() {
                                marks.retain(|mk| mk.0 != a);
                            }
                        } else if RECEIVER_STRICT_KERNELS.contains(&callee)
                            || ARG_STRICT_KERNELS.contains(&callee)
                        {
                            let target = if RECEIVER_STRICT_KERNELS.contains(&callee) {
                                c.receiver.as_deref()
                            } else {
                                c.mut_arg.as_deref()
                            };
                            if let Some(t) = target {
                                if let Some(pos) = marks.iter().position(|mk| mk.0 == t) {
                                    let marker = marks[pos].2;
                                    out.push(finding(
                                        "lazy-domain",
                                        m,
                                        &toks[i],
                                        format!(
                                            "strict kernel `{}` called on `{}`, which is in the \
                                             lazy [0, 2p) window since `{}` on line {}",
                                            callee, t, toks[marker].text, toks[marker].line
                                        ),
                                        format!(
                                            "fold first (`{}.canonicalize()` or the kernel's \
                                             `*_lazy` variant), or keep the whole chain lazy",
                                            t
                                        ),
                                    ));
                                    marks.remove(pos);
                                }
                            }
                        } else {
                            // Unknown kernel: it may fold or consume the
                            // value — drop marks rather than guess.
                            if let Some(r) = c.receiver.as_deref() {
                                marks.retain(|mk| mk.0 != r);
                            }
                            if let Some(a) = c.mut_arg.as_deref() {
                                marks.retain(|mk| mk.0 != a);
                            }
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
}

// ------------------------------------------------------- lazy-chain-coverage

/// Every declared chain root must (a) exist and (b) transitively reach
/// a `*_lazy` marker kernel through the name-based call graph — a root
/// that never goes lazy means the chain config is stale or the lazy
/// path silently fell out of the pipeline.
fn lazy_chain_coverage(files: &[FileModel], workspace_mode: bool, out: &mut Vec<Finding>) {
    // Name -> callee-name edges, production fns only.
    let mut edges: HashMap<&str, HashSet<String>> = HashMap::new();
    for m in files.iter().filter(|m| is_prod(m)) {
        for f in m.fns.iter().filter(|f| !f.in_test_mod) {
            let Some((s, e)) = f.body else { continue };
            let set = edges.entry(f.name.as_str()).or_default();
            for c in calls_in(m.toks(), s, e) {
                set.insert(c.callee);
            }
        }
    }
    let is_marker = |n: &str| RECEIVER_LAZY_MARKERS.contains(&n) || ARG_LAZY_MARKERS.contains(&n);

    for root in LAZY_CHAIN_ROOTS {
        let def = files.iter().filter(|m| is_prod(m)).find_map(|m| {
            m.fns
                .iter()
                .find(|f| !f.in_test_mod && f.name == *root && f.body.is_some())
                .map(|f| (m, f))
        });
        let Some((m, f)) = def else {
            if workspace_mode {
                out.push(Finding {
                    rule: "lazy-chain-coverage",
                    file: "<workspace>".into(),
                    line: 1,
                    col: 1,
                    message: format!(
                        "declared lazy-chain root `{root}` is not defined anywhere in the tree"
                    ),
                    help: "update LAZY_CHAIN_ROOTS in crates/lint/src/rules.rs to match the \
                           current ciphertext-level entry points"
                        .into(),
                });
            }
            continue;
        };
        // BFS over callee names, depth-capped: deep enough for
        // blind_rotate -> cmux -> external_product ->
        // mul_acc_lazy_batch and future chains, shallow enough to stay
        // cheap.
        let mut frontier: Vec<&str> = vec![root];
        let mut seen: HashSet<&str> = frontier.iter().copied().collect();
        let mut reached = false;
        for _ in 0..8 {
            let mut next = Vec::new();
            for name in frontier.drain(..) {
                if let Some(callees) = edges.get(name) {
                    for c in callees {
                        if is_marker(c) {
                            reached = true;
                        }
                        if let Some((k, _)) = edges.get_key_value(c.as_str()) {
                            if seen.insert(k) {
                                next.push(*k);
                            }
                        }
                    }
                }
            }
            if reached || next.is_empty() {
                break;
            }
            frontier = next;
        }
        if !reached {
            out.push(Finding {
                rule: "lazy-chain-coverage",
                file: m.path.clone(),
                line: f.line,
                col: f.col,
                message: format!(
                    "lazy-chain root `{root}` never reaches a `*_lazy` kernel \
                     (searched the call graph 8 levels deep)"
                ),
                help: "either the chain lost its lazy path (a regression) or the root no \
                       longer belongs in LAZY_CHAIN_ROOTS"
                    .into(),
            });
        }
    }
}

// ------------------------------------------------------ missing-domain-assert

/// Every public `*_lazy` kernel entry must invoke the shared
/// `debug_assert_domain!` macro so the runtime contract matches the
/// documented window.
fn missing_domain_assert(m: &FileModel, out: &mut Vec<Finding>) {
    if !is_prod(m) {
        return;
    }
    for f in m
        .fns
        .iter()
        .filter(|f| f.is_pub && !f.in_test_mod && f.in_trait.is_none() && f.name.ends_with("_lazy"))
    {
        let Some((s, e)) = f.body else { continue };
        if !invokes_macro(m.toks(), s, e, "debug_assert_domain") {
            out.push(Finding {
                rule: "missing-domain-assert",
                file: m.path.clone(),
                line: f.line,
                col: f.col,
                message: format!(
                    "public lazy kernel `{}` does not invoke `debug_assert_domain!`",
                    f.name
                ),
                help: "assert the documented input window (see fhe-math/src/domain.rs), or \
                       add `// trinity-lint: allow(missing-domain-assert): <why>` if the \
                       kernel is genuinely window-agnostic"
                    .into(),
            });
        }
    }
}

// ------------------------------------------------------ missing-strict-oracle

/// Every public `X_lazy` must have a strict counterpart (`X` or
/// `X_strict`) in the same file — the oracle the identity suites pin
/// it against.
fn missing_strict_oracle(m: &FileModel, out: &mut Vec<Finding>) {
    if !is_prod(m) {
        return;
    }
    let names: HashSet<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
    for f in m
        .fns
        .iter()
        .filter(|f| f.is_pub && !f.in_test_mod && f.in_trait.is_none() && f.name.ends_with("_lazy"))
    {
        let base = &f.name[..f.name.len() - "_lazy".len()];
        if !names.contains(base) && !names.contains(format!("{base}_strict").as_str()) {
            out.push(Finding {
                rule: "missing-strict-oracle",
                file: m.path.clone(),
                line: f.line,
                col: f.col,
                message: format!(
                    "public lazy kernel `{}` has no strict counterpart `{base}` or \
                     `{base}_strict` in this file",
                    f.name
                ),
                help: "every lazy kernel needs a canonical reference implementation the \
                       backend-identity suites can assert bit-equality against"
                    .into(),
            });
        }
    }
}

// -------------------------------------------------------- untested-lazy-entry

/// Every public `*_lazy` kernel must be referenced from the test
/// corpus: integration tests under any `tests/` directory, or a
/// `#[cfg(test)]` module.
fn untested_lazy_entry(files: &[FileModel], out: &mut Vec<Finding>) {
    let mut corpus: HashSet<&str> = HashSet::new();
    for m in files {
        if m.is_test_path() {
            corpus.extend(
                m.toks()
                    .iter()
                    .filter_map(|t| (t.kind == TokKind::Ident).then_some(t.text.as_str())),
            );
        } else {
            for &(s, e) in &m.test_mod_spans {
                corpus.extend(
                    m.toks()[s..=e]
                        .iter()
                        .filter_map(|t| (t.kind == TokKind::Ident).then_some(t.text.as_str())),
                );
            }
        }
    }
    for m in files.iter().filter(|m| is_prod(m)) {
        for f in m.fns.iter().filter(|f| {
            f.is_pub && !f.in_test_mod && f.in_trait.is_none() && f.name.ends_with("_lazy")
        }) {
            if !corpus.contains(f.name.as_str()) {
                out.push(Finding {
                    rule: "untested-lazy-entry",
                    file: m.path.clone(),
                    line: f.line,
                    col: f.col,
                    message: format!(
                        "public lazy kernel `{}` is never referenced from any test",
                        f.name
                    ),
                    help: "cover it in the lazy-chain / backend-identity suites (tests/) or \
                           the defining module's #[cfg(test)] sweep"
                        .into(),
                });
            }
        }
    }
}

// ----------------------------------------------------------- backend-coverage

/// Every `KernelBackend` trait method (including the `*_batch`
/// defaults) must appear in the test corpus — one backend silently
/// dropping out of the unit sweep / identity suites is exactly how a
/// divergent kernel ships.
fn backend_coverage(files: &[FileModel], out: &mut Vec<Finding>) {
    let Some(kernel) = files
        .iter()
        .find(|m| m.path.ends_with(SELECTOR_PATH_SUFFIX))
    else {
        return;
    };
    // Corpus: kernel.rs's own #[cfg(test)] sweep plus tests/ files.
    let mut corpus: HashSet<&str> = HashSet::new();
    for &(s, e) in &kernel.test_mod_spans {
        corpus.extend(
            kernel.toks()[s..=e]
                .iter()
                .filter_map(|t| (t.kind == TokKind::Ident).then_some(t.text.as_str())),
        );
    }
    for m in files.iter().filter(|m| m.is_test_path()) {
        corpus.extend(
            m.toks()
                .iter()
                .filter_map(|t| (t.kind == TokKind::Ident).then_some(t.text.as_str())),
        );
    }
    let mut seen: HashSet<&str> = HashSet::new();
    for f in kernel
        .fns
        .iter()
        .filter(|f| f.in_trait.as_deref() == Some("KernelBackend"))
    {
        if !seen.insert(f.name.as_str()) {
            continue;
        }
        if !corpus.contains(f.name.as_str()) {
            out.push(Finding {
                rule: "backend-coverage",
                file: kernel.path.clone(),
                line: f.line,
                col: f.col,
                message: format!(
                    "KernelBackend method `{}` is not exercised by the kernel unit sweep or \
                     the identity suites",
                    f.name
                ),
                help: "add it to the per-backend sweep in kernel.rs's test module or the \
                       tests/ identity suites"
                    .into(),
            });
        }
    }
}

// ------------------------------------------------------ guard-across-dispatch

/// A `Mutex`/`RwLock` guard bound by `let` must not stay live across a
/// dispatch call (`.send(..)` / `.run(..)` / `.dispatch(..)`): workers
/// that need the same lock deadlock, and everyone else serialises.
fn guard_across_dispatch(m: &FileModel, out: &mut Vec<Finding>) {
    if !is_prod(m) {
        return;
    }
    let toks = m.toks();
    for f in m.fns.iter().filter(|f| !f.in_test_mod) {
        let Some((s, e)) = f.body else { continue };
        // Findings are reported at the `let` so an allow comment above
        // the guard binding covers them.
        let mut reported: HashSet<usize> = HashSet::new();
        let mut i = s;
        let mut depth = 0u32;
        let mut live: Vec<(String, u32, usize)> = Vec::new();
        while i <= e {
            match toks[i].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    live.retain(|g| g.1 < depth);
                    depth = depth.saturating_sub(1);
                }
                TokKind::Ident if toks[i].text == "let" => {
                    let mut j = i + 1;
                    if j <= e && toks[j].is_ident("mut") {
                        j += 1;
                    }
                    if j < e && toks[j].kind == TokKind::Ident && toks[j + 1].is_punct('=') {
                        // Scan the initialiser for `.lock()` / `.read()` /
                        // `.write()` at the *same brace depth* as the
                        // `let` (a guard taken inside a nested block,
                        // `let job = { let g = q.lock()...; g.recv() }`,
                        // dies with that block, not with `job`).
                        let mut bd = 0i32;
                        let mut k = j + 2;
                        while k <= e {
                            match toks[k].kind {
                                TokKind::Punct('{') => bd += 1,
                                TokKind::Punct('}') => bd -= 1,
                                TokKind::Punct(';') if bd == 0 => break,
                                TokKind::Ident if bd == 0 => {
                                    let name = toks[k].text.as_str();
                                    if (name == "lock" || name == "read" || name == "write")
                                        && k >= 1
                                        && toks[k - 1].is_punct('.')
                                        && k + 2 <= e
                                        && toks[k + 1].is_punct('(')
                                        && toks[k + 2].is_punct(')')
                                    {
                                        live.push((toks[j].text.clone(), depth, i));
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                    }
                }
                TokKind::Ident
                    if toks[i].text == "drop"
                        && i + 2 <= e
                        && toks[i + 1].is_punct('(')
                        && toks[i + 2].kind == TokKind::Ident =>
                {
                    let name = toks[i + 2].text.clone();
                    live.retain(|g| g.0 != name);
                }
                TokKind::Ident
                    if DISPATCH_CALLS.contains(&toks[i].text.as_str())
                        && i > 0
                        && toks[i - 1].is_punct('.')
                        && i < e
                        && toks[i + 1].is_punct('(') =>
                {
                    for &(ref name, _, let_tok) in &live {
                        if reported.insert(let_tok) {
                            out.push(Finding {
                                rule: "guard-across-dispatch",
                                file: m.path.clone(),
                                line: toks[let_tok].line,
                                col: toks[let_tok].col,
                                message: format!(
                                    "lock guard `{}` is live across `.{}(..)` on line {}",
                                    name, toks[i].text, toks[i].line
                                ),
                                help: "scope the guard to a block that closes before the \
                                       dispatch, or `drop(guard)` first"
                                    .into(),
                            });
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
}

// ---------------------------------------------------------------- lock-unwrap

/// `.lock().unwrap()` (and `.read()/.write().unwrap()/.expect(..)`)
/// turns a poisoned-but-consistent lock into a panic cascade; the
/// codebase standard is `unwrap_or_else(PoisonError::into_inner)`,
/// centralised in the poison-recovery helpers.
fn lock_unwrap(m: &FileModel, out: &mut Vec<Finding>) {
    if !is_prod(m) {
        return;
    }
    let toks = m.toks();
    for i in 0..toks.len().saturating_sub(6) {
        if m.in_test_span(i) {
            continue;
        }
        let name = match toks[i].kind {
            TokKind::Ident => toks[i].text.as_str(),
            _ => continue,
        };
        if !(name == "lock" || name == "read" || name == "write") {
            continue;
        }
        let shape = i >= 1
            && toks[i - 1].is_punct('.')
            && toks[i + 1].is_punct('(')
            && toks[i + 2].is_punct(')')
            && toks[i + 3].is_punct('.')
            && toks[i + 4].kind == TokKind::Ident
            && (toks[i + 4].text == "unwrap" || toks[i + 4].text == "expect")
            && toks[i + 5].is_punct('(');
        if !shape {
            continue;
        }
        if m.enclosing_fn(i)
            .is_some_and(|f| POISON_HELPERS.contains(&f.name.as_str()))
        {
            continue;
        }
        out.push(finding(
            "lock-unwrap",
            m,
            &toks[i + 4],
            format!(
                "`.{}().{}(..)` panics on a poisoned lock",
                name,
                toks[i + 4].text
            ),
            "use `unwrap_or_else(PoisonError::into_inner)` (the lock data here is \
             always structurally consistent) or route through the poison-recovery \
             helpers",
        ));
    }
}

// -------------------------------------------------------------------- env-read

/// No production code reads `std::env::var`: configuration arrives as
/// explicit parameters, and the kernel backend is the platform's pick,
/// so runs stay auditable and tests stay hermetic.
fn env_read(m: &FileModel, out: &mut Vec<Finding>) {
    if !is_prod(m) {
        return;
    }
    let toks = m.toks();
    for i in 0..toks.len().saturating_sub(4) {
        if m.in_test_span(i) {
            continue;
        }
        if toks[i].is_ident("env")
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].kind == TokKind::Ident
            && (toks[i + 3].text == "var" || toks[i + 3].text == "var_os")
            && toks[i + 4].is_punct('(')
        {
            out.push(finding(
                "env-read",
                m,
                &toks[i],
                "process-environment read in production code".into(),
                "thread configuration through explicit parameters",
            ));
        }
    }
}

// --------------------------------------------------- kernel-force-outside-test

/// `kernel::force` swaps the process-global backend and is a test /
/// bench affordance only. Production code — the service layer above
/// all — runs under `kernel::active()`'s one backend: a force under
/// live multi-tenant traffic races every in-flight dispatch.
fn kernel_force(m: &FileModel, out: &mut Vec<Finding>) {
    if !is_prod(m) || m.path.ends_with(SELECTOR_PATH_SUFFIX) {
        return;
    }
    let toks = m.toks();
    for i in 0..toks.len().saturating_sub(3) {
        if m.in_test_span(i) {
            continue;
        }
        if toks[i].is_ident("kernel")
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("force")
        {
            out.push(finding(
                "kernel-force-outside-test",
                m,
                &toks[i + 3],
                "`kernel::force` referenced in production code".into(),
                "the global backend swap is test/bench-only; production (and the \
                 service layer in particular) runs under `kernel::active()`",
            ));
        }
    }
}

// -------------------------------------------------------- unsafe-missing-safety

/// Every `unsafe { .. }` block needs an adjacent `// SAFETY:` comment
/// stating the invariant that makes it sound, and every `unsafe fn` a
/// `# Safety` section in its doc comment stating what the caller owes.
fn unsafe_missing_safety(m: &FileModel, out: &mut Vec<Finding>) {
    let toks = m.toks();
    for i in 0..toks.len().saturating_sub(1) {
        if !toks[i].is_ident("unsafe") {
            continue;
        }
        let line = toks[i].line;
        if toks[i + 1].is_punct('{') {
            let documented = m.lexed.comments.iter().any(|c| {
                c.text.contains("SAFETY") && c.line_end <= line && c.line_end + 15 >= line
            });
            if !documented {
                out.push(finding(
                    "unsafe-missing-safety",
                    m,
                    &toks[i],
                    "`unsafe` block without a `// SAFETY:` comment".into(),
                    "state the invariant that makes this sound in a `// SAFETY:` comment \
                     directly above the block",
                ));
            }
        } else if is_unsafe_fn_item(toks, i) && !doc_has_safety_section(m, line) {
            out.push(finding(
                "unsafe-missing-safety",
                m,
                &toks[i],
                "`unsafe fn` without a `# Safety` section in its doc comment".into(),
                "document what the caller must guarantee under a `# Safety` heading \
                 in the `///` comment above the function",
            ));
        }
    }
}

/// Whether the `unsafe` at `i` opens a function item (`unsafe fn name`,
/// `unsafe extern "C" fn name`) — not a block, an `unsafe impl` or the
/// function-pointer type `unsafe fn(..)`.
fn is_unsafe_fn_item(toks: &[Token], i: usize) -> bool {
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.is_ident("extern")) {
        j += 1;
        if toks.get(j).is_some_and(|t| t.kind == TokKind::Str) {
            j += 1;
        }
    }
    toks.get(j).is_some_and(|t| t.is_ident("fn"))
        && toks.get(j + 1).is_some_and(|t| t.kind == TokKind::Ident)
}

/// Whether the `///` run above source line `line` (1-based; attribute
/// and plain-comment lines in between are skipped) has a `# Safety`
/// heading.
fn doc_has_safety_section(m: &FileModel, line: u32) -> bool {
    for text in m.lines[..line as usize - 1].iter().rev() {
        let text = text.trim_start();
        if let Some(doc) = text.strip_prefix("///") {
            if doc.trim() == "# Safety" {
                return true;
            }
        } else if !(text.starts_with("#[") || text.starts_with("//")) {
            break;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::build_model;

    fn lint_one(path: &str, src: &str) -> Vec<Finding> {
        run(&[build_model(path, src)])
    }

    #[test]
    fn strict_on_lazy_receiver_fires_and_block_scoping_clears() {
        let f = lint_one(
            "crates/x/src/a.rs",
            "fn f(a: &mut RnsPoly, b: &RnsPoly) {\n\
                 a.to_eval_lazy();\n\
                 a.add_assign(b);\n\
             }\n\
             fn g(a: &mut RnsPoly, b: &RnsPoly) {\n\
                 { a.to_eval_lazy(); a.canonicalize(); }\n\
                 a.add_assign(b);\n\
             }\n",
        );
        let lazy: Vec<_> = f.iter().filter(|x| x.rule == "lazy-domain").collect();
        assert_eq!(lazy.len(), 1, "{f:?}");
        assert_eq!(lazy[0].line, 3);
    }

    #[test]
    fn chain_root_calling_strict_oracle_fires() {
        let f = lint_one(
            "crates/x/src/a.rs",
            "pub fn relinearize(ct: &C) { let x = key_switch_strict(ct); use_it(x); }\n",
        );
        assert!(f
            .iter()
            .any(|x| x.rule == "lazy-domain" && x.message.contains("key_switch_strict")));
    }

    #[test]
    fn guard_scoped_to_inner_block_is_clean() {
        let f = lint_one(
            "crates/x/src/a.rs",
            "fn w(q: &Q, done: &D) {\n\
                 let job = { let g = q.lock().unwrap_or_else(e); g.recv() };\n\
                 let _ = done.send(job);\n\
             }\n",
        );
        assert!(
            !f.iter().any(|x| x.rule == "guard-across-dispatch"),
            "{f:?}"
        );
    }

    #[test]
    fn guard_live_across_send_fires_at_the_let() {
        let f = lint_one(
            "crates/x/src/a.rs",
            "fn r(&self) {\n\
                 let inject = self.inject.lock().unwrap_or_else(e);\n\
                 inject.send(1);\n\
             }\n",
        );
        let g: Vec<_> = f
            .iter()
            .filter(|x| x.rule == "guard-across-dispatch")
            .collect();
        assert_eq!(g.len(), 1, "{f:?}");
        assert_eq!(g[0].line, 2, "reported at the let, not the send");
    }
}
