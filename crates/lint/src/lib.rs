//! trinity-lint: workspace static analysis for the lazy-reduction and
//! backend-identity invariants.
//!
//! The runtime enforces the `[0, 2p)` discipline with
//! `debug_assert_domain!` and the strict-oracle identity suites; this
//! crate makes the same contracts checkable *without running anything*,
//! so CI fails fast and the rules are greppable. Everything is built
//! over `std` only (the build environment is offline): a hand-rolled
//! lexer ([`lexer`]), a token-stream item/call extractor ([`parse`]),
//! the rule catalogue ([`rules`]), and rustc-style / JSON diagnostics
//! ([`diag`]).
//!
//! # Suppressing a finding
//!
//! ```text
//! // trinity-lint: allow(<rule>): <reason — mandatory>
//! ```
//!
//! placed directly above the offending line (attribute lines and
//! further comment lines in between are fine). An allow with an
//! unknown rule name or a missing reason is itself a finding
//! (`bad-allow`).

#![forbid(unsafe_code)]

pub mod diag;
pub mod lexer;
pub mod parse;
pub mod rules;

use diag::Finding;
use parse::FileModel;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// One parsed allow comment.
#[derive(Debug)]
struct Allow {
    rule: String,
    file: String,
    /// First code line after the comment — the line findings must sit
    /// on to be suppressed.
    target_line: u32,
    has_reason: bool,
}

/// Directories never scanned: third-party vendored code, build output,
/// VCS metadata, and the linter itself (its fixtures are deliberately
/// full of violations).
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "lint"];

/// Lints an in-memory file set of `(path, source)` pairs. Paths should
/// be workspace-relative with forward slashes; rule gating keys off
/// them (`tests/`, `benches/`, `fhe-math/src/kernel.rs`).
pub fn lint_files(files: &[(String, String)]) -> Vec<Finding> {
    let models: Vec<FileModel> = files
        .iter()
        .map(|(p, s)| parse::build_model(p, s))
        .collect();

    let mut findings = rules::run(&models);

    // Allow-comment pass: collect suppressions, flag malformed ones.
    let known: HashSet<&str> = rules::RULES.iter().copied().collect();
    let mut allows = Vec::new();
    for m in &models {
        for c in &m.lexed.comments {
            // Doc comments (`///`, `//!`, `/** .. */`) frequently *mention*
            // the allow syntax; only plain comments are directives. The
            // lexer strips the `//`/`/*` sigils, so a doc comment's text
            // starts with the third sigil character.
            if c.text.starts_with('/') || c.text.starts_with('!') || c.text.starts_with('*') {
                continue;
            }
            let Some(pos) = c.text.find("trinity-lint:") else {
                continue;
            };
            let rest = &c.text[pos + "trinity-lint:".len()..];
            let Some(open) = rest.find("allow(") else {
                findings.push(bad_allow(m, c.line_start, "expected `allow(<rule>)`"));
                continue;
            };
            let after = &rest[open + "allow(".len()..];
            let Some(close) = after.find(')') else {
                findings.push(bad_allow(m, c.line_start, "unclosed `allow(`"));
                continue;
            };
            let rule = after[..close].trim().to_owned();
            if !known.contains(rule.as_str()) {
                findings.push(bad_allow(
                    m,
                    c.line_start,
                    &format!("unknown rule `{rule}` (see `trinity-lint --list-rules`)"),
                ));
                continue;
            }
            let tail = after[close + 1..].trim_start();
            let has_reason = tail.starts_with(':') && !tail[1..].trim().is_empty();
            if !has_reason {
                findings.push(bad_allow(
                    m,
                    c.line_start,
                    &format!(
                        "allow({rule}) needs a reason: \
                         `// trinity-lint: allow({rule}): <why this is sound>`"
                    ),
                ));
            }
            allows.push(Allow {
                rule,
                file: m.path.clone(),
                target_line: allow_target_line(m, c.line_end),
                has_reason,
            });
        }
    }

    findings.retain(|f| {
        !allows.iter().any(|a| {
            a.has_reason && a.rule == f.rule && a.file == f.file && a.target_line == f.line
        })
    });
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    findings.dedup();
    findings
}

fn bad_allow(m: &FileModel, line: u32, why: &str) -> Finding {
    Finding {
        rule: "bad-allow",
        file: m.path.clone(),
        line,
        col: 1,
        message: format!("malformed trinity-lint allow comment: {why}"),
        help: "syntax: `// trinity-lint: allow(<rule>): <reason>` — the reason is \
               mandatory and should say why the invariant holds anyway"
            .into(),
    }
}

/// First code line after the comment ending on `comment_end` (1-based),
/// skipping blanks, further comments, and attribute lines, up to a
/// 12-line window.
fn allow_target_line(m: &FileModel, comment_end: u32) -> u32 {
    let mut line = comment_end + 1;
    let last = m.lines.len() as u32;
    let mut budget = 12;
    while line <= last && budget > 0 {
        let text = m.lines[(line - 1) as usize].trim();
        let skip = text.is_empty()
            || text.starts_with("//")
            || text.starts_with("/*")
            || text.starts_with('*')
            || text.starts_with("#[")
            || text.starts_with("#!");
        if !skip {
            return line;
        }
        line += 1;
        budget -= 1;
    }
    comment_end + 1
}

/// Walks the workspace at `root`, lints every non-vendored `.rs` file,
/// and returns the surviving findings.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk / file reads.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut paths = Vec::new();
    collect_rs(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let src = std::fs::read_to_string(root.join(&p))?;
        files.push((p, src));
    }
    Ok(lint_files(&files))
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel: PathBuf = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_src(src: &str) -> Vec<Finding> {
        lint_files(&[("crates/x/src/a.rs".into(), src.into())])
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let f = lint_src(
            "// trinity-lint: allow(unsafe-missing-safety): test shim, no invariant.\n\
             fn f() { unsafe { g() } }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_skips_attributes_and_comment_continuations() {
        let f = lint_src(
            "// trinity-lint: allow(unsafe-missing-safety): reason here\n\
             // continuation of the prose.\n\
             #[inline]\n\
             fn f() { unsafe { g() } }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_without_reason_is_bad_and_does_not_suppress() {
        let f = lint_src(
            "// trinity-lint: allow(unsafe-missing-safety)\n\
             fn f() { unsafe { g() } }\n",
        );
        assert!(f.iter().any(|x| x.rule == "bad-allow"), "{f:?}");
        assert!(f.iter().any(|x| x.rule == "unsafe-missing-safety"), "{f:?}");
    }

    #[test]
    fn allow_with_unknown_rule_is_bad() {
        let f = lint_src("// trinity-lint: allow(no-such-rule): whatever\nfn f() {}\n");
        assert!(f
            .iter()
            .any(|x| x.rule == "bad-allow" && x.message.contains("no-such-rule")));
    }

    #[test]
    fn findings_are_sorted_and_deduped() {
        let f = lint_src("fn f() { unsafe { g() } }\nfn h() { unsafe { g() } }\n");
        assert_eq!(f.len(), 2);
        assert!(f[0].line < f[1].line);
    }
}
