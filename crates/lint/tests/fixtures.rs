//! Golden self-tests: every rule in the catalogue is demonstrated by a
//! known-bad fixture under `tests/fixtures/`, and the allow-comment
//! machinery is demonstrated by a known-clean one.

use trinity_lint::diag::Finding;
use trinity_lint::lint_files;

/// Lints one fixture under a synthetic workspace-relative path.
fn lint_fixture(path: &str, src: &str) -> Vec<Finding> {
    lint_files(&[(path.to_owned(), src.to_owned())])
}

/// Asserts the findings are exactly `expected` as `(rule, line)` pairs
/// (order-insensitive).
fn assert_golden(findings: &[Finding], expected: &[(&str, u32)]) {
    let got: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    let mut got_sorted = got.clone();
    got_sorted.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    assert_eq!(got_sorted, want, "full findings: {findings:#?}");
}

#[test]
fn lazy_domain() {
    let f = lint_fixture(
        "crates/x/src/lazy_domain.rs",
        include_str!("fixtures/lazy_domain.rs"),
    );
    assert_golden(&f, &[("lazy-domain", 10), ("lazy-domain", 22)]);
    assert!(f[0].message.contains("add_assign"), "{f:#?}");
    assert!(f[1].message.contains("key_switch_strict"), "{f:#?}");
}

#[test]
fn lazy_chain_coverage() {
    let f = lint_fixture(
        "crates/x/src/lazy_chain_coverage.rs",
        include_str!("fixtures/lazy_chain_coverage.rs"),
    );
    assert_golden(&f, &[("lazy-chain-coverage", 7)]);
}

#[test]
fn missing_domain_assert() {
    let f = lint_fixture(
        "crates/x/src/missing_domain_assert.rs",
        include_str!("fixtures/missing_domain_assert.rs"),
    );
    assert_golden(&f, &[("missing-domain-assert", 8)]);
}

#[test]
fn missing_strict_oracle() {
    let f = lint_fixture(
        "crates/x/src/missing_strict_oracle.rs",
        include_str!("fixtures/missing_strict_oracle.rs"),
    );
    assert_golden(&f, &[("missing-strict-oracle", 7)]);
}

#[test]
fn untested_lazy_entry() {
    let f = lint_fixture(
        "crates/x/src/untested_lazy_entry.rs",
        include_str!("fixtures/untested_lazy_entry.rs"),
    );
    assert_golden(&f, &[("untested-lazy-entry", 7)]);
}

#[test]
fn backend_coverage() {
    // The backend rule only engages on the selector module's path.
    // Scanning a lone kernel.rs puts the linter in workspace mode, so
    // the six undefined chain roots also (correctly) report stale
    // config; filter to the rule under test plus that known noise.
    let f = lint_fixture(
        "crates/fhe-math/src/kernel.rs",
        include_str!("fixtures/backend_coverage_kernel.rs"),
    );
    let backend: Vec<_> = f.iter().filter(|x| x.rule == "backend-coverage").collect();
    assert_eq!(backend.len(), 2, "{f:#?}");
    assert_eq!(backend[0].line, 14);
    assert!(backend[0].message.contains("forward_batch"));
    // The pooled-BConv batch entries are ordinary trait methods to the
    // rule: uncovered `convert_approx_batch` is flagged, covered
    // `convert_exact_batch` is not.
    assert!(backend[1].message.contains("convert_approx_batch"));
    assert!(
        f.iter()
            .all(|x| x.rule == "backend-coverage" || x.rule == "lazy-chain-coverage"),
        "{f:#?}"
    );
}

#[test]
fn guard_across_dispatch() {
    let f = lint_fixture(
        "crates/x/src/guard_across_dispatch.rs",
        include_str!("fixtures/guard_across_dispatch.rs"),
    );
    assert_golden(&f, &[("guard-across-dispatch", 8)]);
    assert!(f[0].message.contains("inject"), "{f:#?}");
}

#[test]
fn lock_unwrap() {
    let f = lint_fixture(
        "crates/x/src/lock_unwrap.rs",
        include_str!("fixtures/lock_unwrap.rs"),
    );
    assert_golden(&f, &[("lock-unwrap", 8), ("lock-unwrap", 13)]);
}

#[test]
fn env_read_outside_selector() {
    let f = lint_fixture(
        "crates/x/src/env_read.rs",
        include_str!("fixtures/env_read.rs"),
    );
    assert_golden(&f, &[("env-read-outside-selector", 8)]);
}

#[test]
fn kernel_force_outside_test() {
    let f = lint_fixture(
        "crates/service/src/kernel_force.rs",
        include_str!("fixtures/kernel_force.rs"),
    );
    assert_golden(&f, &[("kernel-force-outside-test", 8)]);
}

#[test]
fn unsafe_missing_safety() {
    let f = lint_fixture(
        "crates/x/src/unsafe_missing_safety.rs",
        include_str!("fixtures/unsafe_missing_safety.rs"),
    );
    assert_golden(
        &f,
        &[("unsafe-missing-safety", 4), ("unsafe-missing-safety", 17)],
    );
    assert!(f[1].message.contains("# Safety"), "{f:#?}");
}

#[test]
fn bad_allow() {
    let f = lint_fixture(
        "crates/x/src/bad_allow.rs",
        include_str!("fixtures/bad_allow.rs"),
    );
    assert_golden(
        &f,
        &[("bad-allow", 3), ("bad-allow", 6), ("lock-unwrap", 8)],
    );
}

#[test]
fn allow_suppression_keeps_reasoned_allows_clean() {
    let f = lint_fixture(
        "crates/x/src/allow_suppression.rs",
        include_str!("fixtures/allow_suppression.rs"),
    );
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn every_rule_has_a_fixture_demonstration() {
    // The catalogue and this file must not drift apart: each rule name
    // appears in at least one golden expectation above. Checked
    // textually against this source file.
    let me = include_str!("fixtures.rs");
    for rule in trinity_lint::rules::RULES {
        assert!(
            me.contains(&format!("\"{rule}\"")),
            "rule `{rule}` has no fixture assertion"
        );
    }
}

#[test]
fn json_output_roundtrips_the_findings() {
    let f = lint_fixture(
        "crates/x/src/env_read.rs",
        include_str!("fixtures/env_read.rs"),
    );
    let json = trinity_lint::diag::render_json(&f);
    assert!(json.contains("\"rule\": \"env-read-outside-selector\""));
    assert!(json.contains("\"count\": 1"));
}
