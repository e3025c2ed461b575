//! The workspace's standing invariants, mechanized by `blaeu-lint`, run
//! as part of the root test suite: any new violation anywhere in the
//! tree — a dangling bench baseline entry, a CI group pin naming a
//! deleted group, an unwaived `unwrap` on the wire path — fails tier-1
//! `cargo test` (and the CI `invariants` job) until fixed or waived
//! with a reason.

use std::path::Path;

use blaeu_lint::lint_root;

#[test]
fn real_workspace_is_clean() {
    let report = lint_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace lints");
    assert!(
        report.ok(),
        "workspace has invariant violations:\n{}",
        report.to_text()
    );
    assert!(report.files_scanned > 100, "walker found the tree");
}
