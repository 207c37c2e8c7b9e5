//! The real workspace must lint clean: this is the same gate CI runs
//! (`cargo run -p trinity-lint`), kept as a test so `cargo test`
//! catches invariant regressions without a separate step.

use std::path::Path;

#[test]
fn workspace_has_zero_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root");
    let findings = trinity_lint::lint_workspace(root).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "the workspace must lint clean; fix or add a reasoned \
         `// trinity-lint: allow(..)`:\n{}",
        findings
            .iter()
            .map(trinity_lint::diag::Finding::render_text)
            .collect::<String>()
    );
}

#[test]
fn workspace_scan_is_workspace_mode() {
    // Guard against the walker silently skipping fhe-math (which would
    // disable the cross-file rules and make the clean assertion above
    // vacuous): the kernel backend module must be in the scanned set.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    assert!(root.join("crates/fhe-math/src/kernel.rs").is_file());
}
