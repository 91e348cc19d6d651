//! Negative-path fixtures for the audit rules: every fixture under
//! `fixtures/audit/` must trip its rule with the exact file, line, and
//! (for panic-freedom findings) the full offending call chain.

use dcmesh_analyze::audit::{self, AuditReport, Corpus};
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
    // the five hygiene rules once each, and nothing else. The Display form
    // is what the CI log shows; keep it grep-able.
    let report = audit_fixture_at("bad_unsafe", "crates/math/src/bad.rs");
    let shown: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert_eq!(
        shown,
        [
            "crates/math/src/bad.rs:5: [static-mut] mutable statics are banned; use atomics or \
             OnceLock",
            "crates/math/src/bad.rs:8: [thread-spawn] raw thread spawns belong to crates/pool; \
             dispatch through the pool",
            "crates/math/src/bad.rs:13: [wall-clock] kernel crates must not read wall clocks; use \
             dcmesh-obs spans",
            "crates/math/src/bad.rs:17: [println-metrics] kernel crates must not print; record \
             dcmesh-obs metrics instead",
            "crates/math/src/bad.rs:21: [raw-arch] raw arch intrinsics live in crates/math/src/simd/ \
             only; dispatch through dcmesh_math::simd",
        ]
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
fn one_corpus_of_all_fixtures_gives_the_union_of_their_findings() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/audit");
    let mut sources: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".rs"))
        .map(|n| {
            let src = std::fs::read_to_string(dir.join(&n)).expect("fixture readable");
            (format!("crates/fixt/src/{n}"), src)
        })
        .collect();
    sources.sort();
    let mut union: Vec<_> = sources
        .iter()
        .flat_map(|s| audit::run(&Corpus::from_sources(vec![s.clone()])).findings)
        .collect();
    union.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    let shown = |fs: Vec<audit::AuditFinding>| fs.iter().map(|f| f.to_string()).collect::<Vec<_>>();
    let whole = audit::run(&Corpus::from_sources(sources)).findings;
    assert_eq!(shown(whole), shown(union));
}

#[test]
fn workspace_tree_audit_is_clean() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = audit::find_workspace_root(&manifest).expect("workspace root");
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
    // kernel and their lane shuffles went with their nine annotations. A
    // waiver is a reviewed exception: the count may fall, never rise.
    let s = &report.stats;
    assert_eq!((s.no_panic_roots, s.contracts), (9, 23), "{s:?}");
    assert!(s.waived <= 16, "{s:?}");
}
