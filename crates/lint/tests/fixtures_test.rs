//! Proves every rule live: each bad fixture must trip exactly its
//! rule, the good fixture must pass clean, and defective waivers must be
//! findings. That the real workspace lints clean — the point of the
//! whole exercise — is asserted by the root `tests/invariants.rs`, so
//! tier-1 `cargo test` runs it.

use std::path::PathBuf;

use blaeu_lint::{lint_root, LintReport, Rule};

fn fixture(name: &str) -> LintReport {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    lint_root(&root).expect("fixture root lints")
}

fn rules_hit(report: &LintReport) -> Vec<Rule> {
    let mut rules: Vec<Rule> = report.findings.iter().map(|f| f.rule).collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn r1_thread_primitives_and_budget_sites_trip() {
    let report = fixture("r1_bad");
    assert_eq!(rules_hit(&report), vec![Rule::ExecParallelism]);
    let spawn = report
        .findings
        .iter()
        .find(|f| f.file == "crates/app/src/lib.rs")
        .expect("spawn outside exec is flagged");
    assert_eq!(spawn.line, 3);
    assert!(spawn.message.contains("thread::spawn"));
    let budget: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file == "crates/exec/src/lib.rs")
        .collect();
    assert_eq!(budget.len(), 2, "both duplicate budget sites are flagged");
}

#[test]
fn r2_wall_clock_and_hash_iteration_trip() {
    let report = fixture("r2_bad");
    assert_eq!(rules_hit(&report), vec![Rule::DigestDeterminism]);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains("Instant::now")),
        "wall clock flagged: {}",
        report.to_text()
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains(".values()")),
        "hash iteration flagged: {}",
        report.to_text()
    );
}

#[test]
fn r3_table_by_value_trips() {
    let report = fixture("r3_bad");
    assert_eq!(rules_hit(&report), vec![Rule::ViewDiscipline]);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].line, 4);
}

#[test]
fn r4_unwrap_expect_panic_trip() {
    let report = fixture("r4_bad");
    assert_eq!(rules_hit(&report), vec![Rule::PanicHygiene]);
    assert_eq!(report.findings.len(), 3, "{}", report.to_text());
}

#[test]
fn r5_uncovered_variant_trips() {
    let report = fixture("r5_bad");
    assert_eq!(rules_hit(&report), vec![Rule::WireSchema]);
    assert_eq!(report.findings.len(), 1);
    assert!(report.findings[0].message.contains("Command::Zoom"));
    assert!(report.findings[0].message.contains("from_json"));
}

#[test]
fn r6_registry_and_git_deps_trip() {
    let report = fixture("r6_bad");
    assert_eq!(rules_hit(&report), vec![Rule::VendorDeps]);
    assert_eq!(report.findings.len(), 2, "{}", report.to_text());
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("`serde`")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("`rayon`")));
}

#[test]
fn r7_unsafe_without_safety_comment_trips() {
    let report = fixture("r7_bad");
    assert_eq!(rules_hit(&report), vec![Rule::SafetyComment]);
    assert_eq!(report.findings.len(), 1);
}

#[test]
fn r8_ungated_bench_groups_trip() {
    let report = fixture("r8_bad");
    assert_eq!(rules_hit(&report), vec![Rule::BenchGate]);
    // mygroup + solo each miss baseline and CI list; othergroup is
    // required by CI but defined nowhere.
    assert_eq!(report.findings.len(), 5, "{}", report.to_text());
    assert!(report
        .findings
        .iter()
        .any(|f| f.file.ends_with("ci.yml") && f.message.contains("`othergroup`")));
}

#[test]
fn defective_waivers_are_findings() {
    let report = fixture("stale_waiver");
    assert_eq!(rules_hit(&report), vec![Rule::StaleWaiver]);
    assert_eq!(report.findings.len(), 3, "{}", report.to_text());
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("suppresses nothing")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("made-up-rule")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("no reason")));
}

#[test]
fn good_fixture_is_clean_and_honors_its_waiver() {
    let report = fixture("good");
    assert!(report.ok(), "expected clean, got:\n{}", report.to_text());
    assert_eq!(
        report.waivers_used, 1,
        "the sorted hash-drain waiver is live"
    );
}

#[test]
fn report_formats_are_stable() {
    let report = fixture("r3_bad");
    assert_eq!(
        report.to_text(),
        "crates/cluster/src/lib.rs:4 view-discipline fn parameter takes Table by value \
         in an analysis crate — analysis code reads &TableView (or is generic over \
         ColumnRead); materialize only for example rows\n"
    );
    let json = report.to_json();
    assert!(json.contains("\"ok\": false"));
    assert!(json.contains("\"rule\": \"view-discipline\""));
}
