//! Negative-path fixtures for the audit rules: every fixture under
//! `fixtures/audit/` must trip its rule with the exact file, line, and
//! (for panic-freedom findings) the full offending call chain.

use dcmesh_analyze::audit::{self, AuditReport, Corpus};
use dcmesh_analyze::lint;
use std::path::PathBuf;

/// Load one fixture and audit it as if it lived at `rel`.
fn audit_fixture_at(stem: &str, rel: &str) -> AuditReport {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/audit")
        .join(format!("{stem}.rs"));
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    audit::run(&Corpus::from_sources(vec![(rel.to_string(), src)]))
}

/// Load one fixture and audit it under a synthetic workspace path.
fn audit_fixture(stem: &str) -> (String, AuditReport) {
    let rel = format!("crates/fixt/src/{stem}.rs");
    let report = audit_fixture_at(stem, &rel);
    (rel, report)
}

#[test]
fn hygiene_fixture_trips_every_rule_with_a_location() {
    // Audited as if it lived in a kernel crate, the fixture must trip
    // all seven hygiene rules. (The undocumented `#[target_feature]
    // unsafe fn` deliberately counts under undocumented-unsafe too.)
    let report = audit_fixture_at("bad_unsafe", "crates/math/src/bad.rs");
    for (rule, hits) in [
        ("static-mut", 1),
        ("undocumented-unsafe", 2),
        ("thread-spawn", 1),
        ("wall-clock", 1),
        ("println-metrics", 1),
        ("raw-arch", 1),
        ("target-feature", 1),
    ] {
        assert_eq!(
            report.by_rule(rule).len(),
            hits,
            "{rule}: {:?}",
            report.findings
        );
    }
    let sm = report.by_rule("static-mut")[0];
    assert_eq!((sm.path.as_str(), sm.line), ("crates/math/src/bad.rs", 5));
    // Display form is what the CI log shows; keep it grep-able.
    let shown = format!("{sm}");
    assert!(
        shown.starts_with("crates/math/src/bad.rs:5: [static-mut]"),
        "{shown}"
    );
}

#[test]
fn transitive_unwrap_reports_full_chain() {
    let (rel, report) = audit_fixture("transitive_unwrap");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "no-panic");
    assert_eq!(f.path, rel);
    assert_eq!(f.line, 14);
    assert!(f.message.contains("`entry`"), "{}", f.message);
    assert_eq!(
        f.chain,
        vec![
            format!("{rel}:5 entry"),
            format!("{rel}:9 helper"),
            format!("{rel}:13 deep"),
            format!("{rel}:14 .unwrap()"),
        ]
    );
}

#[test]
fn unguarded_target_feature_callsite_flagged() {
    let (rel, report) = audit_fixture("unguarded_target_feature");
    let hits = report.by_rule("contract-callsite");
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].path, rel);
    assert_eq!(hits[0].line, 12);
    assert!(hits[0].message.contains("`kern`"), "{}", hits[0].message);
    // The kernel itself declares cpu=, so only the call site is flagged.
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
}

#[test]
fn stale_align_claim_flagged() {
    let (rel, report) = audit_fixture("stale_align");
    let hits = report.by_rule("contract-align");
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].path, rel);
    assert_eq!(hits[0].line, 4);
    assert!(hits[0].message.contains("32"), "{}", hits[0].message);
    assert!(hits[0].message.contains("64"), "{}", hits[0].message);
}

#[test]
fn missing_bounds_claim_flagged() {
    let (rel, report) = audit_fixture("missing_bounds");
    let hits = report.by_rule("contract-bounds");
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].path, rel);
    assert_eq!(hits[0].line, 6);
    assert!(
        hits[0].message.contains("from_raw_parts"),
        "{}",
        hits[0].message
    );
}

#[test]
fn missing_cpu_claim_flagged() {
    let (rel, report) = audit_fixture("missing_cpu");
    let hits = report.by_rule("contract-cpu");
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].path, rel);
    assert_eq!(hits[0].line, 5);
    assert!(hits[0].message.contains("`kern`"), "{}", hits[0].message);
}

#[test]
fn unknown_contract_key_flagged() {
    let (rel, report) = audit_fixture("bad_syntax");
    let hits = report.by_rule("contract-syntax");
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].path, rel);
    assert_eq!(hits[0].line, 4);
    assert!(hits[0].message.contains("alignment"), "{}", hits[0].message);
}

#[test]
fn raw_strings_and_nested_comments_neither_hide_nor_invent() {
    let (rel, report) = audit_fixture("lexer_regress");
    // Exactly one finding: the real `.unwrap()` in `real`. The panic
    // spelled inside the raw string and the `.unwrap()` inside the
    // nested block comment must not register.
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "no-panic");
    assert_eq!(f.line, 12);
    assert_eq!(
        f.chain,
        vec![
            format!("{rel}:5 entry"),
            format!("{rel}:11 real"),
            format!("{rel}:12 .unwrap()"),
        ]
    );
}

#[test]
fn golden_json_report() {
    // All fixtures together, in sorted order, as one deterministic corpus.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/audit");
    let mut stems: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    stems.sort();
    let sources: Vec<(String, String)> = stems
        .iter()
        .map(|n| {
            let src = std::fs::read_to_string(dir.join(n)).expect("fixture readable");
            (format!("crates/fixt/src/{n}"), src)
        })
        .collect();
    let report = audit::run(&Corpus::from_sources(sources));
    let got = report.to_json(false).to_string();

    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/audit_report.json");
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(golden.parent().unwrap()).expect("golden dir");
        std::fs::write(&golden, format!("{got}\n")).expect("write golden");
        return;
    }
    let want =
        std::fs::read_to_string(&golden).expect("golden file missing — bless with UPDATE_GOLDEN=1");
    assert_eq!(
        got,
        want.trim_end(),
        "audit JSON drifted — bless with UPDATE_GOLDEN=1 if intended"
    );
}

#[test]
fn workspace_tree_audit_is_clean() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = lint::find_workspace_root(&manifest).expect("workspace root");
    let corpus = Corpus::load(&root).expect("corpus");
    let report = audit::run(&corpus);
    assert!(
        !report.findings.iter().any(|f| f.path.contains("fixtures")),
        "fixtures must be excluded from the workspace audit"
    );
    assert!(
        report.findings.is_empty(),
        "audit violations in tree:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Nine roots since the complex projector kernels, the packed GEMM
    // kernel and their lane shuffles went with their nine annotations.
    assert!(report.stats.no_panic_roots >= 9, "{:?}", report.stats);
    assert!(report.stats.contracts >= 20, "{:?}", report.stats);
}
