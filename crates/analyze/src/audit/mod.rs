//! dcmesh-audit: whole-workspace static analysis over one shared lex.
//!
//! The audit is three passes over a [`Corpus`] — every workspace `.rs`
//! file lexed exactly once ([`crate::lex`]), with the token stream
//! shared by every rule:
//!
//! 1. the hygiene lints ([`crate::lint`], on the lexed front end),
//! 2. the panic-freedom call-graph pass ([`callgraph`]): fns marked
//!    `// AUDIT: no_panic` must not reach `panic!`/`unwrap`/`expect`/
//!    `assert!`/slice indexing without an `// AUDIT: waiver(reason)`,
//!    reported with the full call chain, and
//! 3. the machine-checked SAFETY contract pass ([`contracts`]):
//!    structured `// SAFETY: (align=64, bounds=.., aliasing=..,
//!    cpu=avx2)` claims are cross-checked against the arena alignment
//!    constant, `#[target_feature]` attributes, and every call site.
//!
//! Analyzer cost is visible in the metrics: [`Corpus::load`] records
//! `audit.files` and `audit.lex_ns` through `dcmesh-obs`.

pub mod callgraph;
pub mod contracts;
pub mod items;

use std::fmt;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use dcmesh_obs as obs;
use obs::json::Json;

use crate::lex::{self, Lexed};
use crate::lint;

/// One lexed workspace file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// The shared lex — every rule and pass reads this.
    pub lx: Lexed,
}

/// Every workspace source file, lexed once.
#[derive(Debug)]
pub struct Corpus {
    /// Files in deterministic (sorted-path) order.
    pub files: Vec<SourceFile>,
    /// Nanoseconds spent lexing (also recorded as `audit.lex_ns`).
    pub lex_ns: u64,
}

impl Corpus {
    /// Lex every `.rs` file under the workspace scan roots. Records
    /// `audit.files` / `audit.lex_ns` counters through `dcmesh-obs`.
    pub fn load(root: &Path) -> std::io::Result<Corpus> {
        let mut paths = Vec::new();
        for sub in lint::SCAN_ROOTS {
            lint::collect_rs(&root.join(sub), &mut paths);
        }
        let mut sources = Vec::with_capacity(paths.len());
        for path in paths {
            let contents = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            sources.push((rel, contents));
        }
        Ok(Self::from_sources(sources))
    }

    /// Build a corpus from in-memory `(relative path, source)` pairs —
    /// the fixture-test entry point, and the tail of [`Corpus::load`].
    pub fn from_sources(sources: Vec<(String, String)>) -> Corpus {
        let start = Instant::now();
        let files: Vec<SourceFile> = sources
            .into_iter()
            .map(|(rel, src)| SourceFile {
                rel,
                lx: lex::lex(&src),
            })
            .collect();
        let lex_ns = start.elapsed().as_nanos() as u64;
        obs::metrics::counter_add("audit.files", files.len() as u64);
        obs::metrics::counter_add("audit.lex_ns", lex_ns);
        Corpus { files, lex_ns }
    }
}

/// One audit finding — a lint violation, an unwaived panic path, or a
/// broken contract.
#[derive(Clone, Debug)]
pub struct AuditFinding {
    /// Path relative to the workspace root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Kebab-case rule name (`no-panic`, `contract-cpu`, lint names).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
    /// For `no-panic`: the call chain from the audited root to the
    /// panic source, each frame `path:line name`. Empty otherwise.
    pub chain: Vec<String>,
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )?;
        for (depth, frame) in self.chain.iter().enumerate() {
            write!(f, "\n  {}{}", "  ".repeat(depth), frame)?;
        }
        Ok(())
    }
}

/// Aggregate numbers for the `--report` view and the JSON stats block.
#[derive(Clone, Debug, Default)]
pub struct AuditStats {
    /// Files lexed.
    pub files: usize,
    /// Nanoseconds spent lexing (excluded from golden JSON).
    pub lex_ns: u64,
    /// `fn` items extracted.
    pub fns: usize,
    /// Items marked `AUDIT: no_panic`.
    pub no_panic_roots: usize,
    /// Resolved call edges.
    pub call_edges: usize,
    /// Structured contracts parsed.
    pub contracts: usize,
    /// Panic sources suppressed by waivers.
    pub waived: usize,
}

/// The result of one whole-corpus audit.
#[derive(Debug)]
pub struct AuditReport {
    /// Every finding, sorted by `(path, line, rule, message)`.
    pub findings: Vec<AuditFinding>,
    /// Aggregate numbers.
    pub stats: AuditStats,
}

impl AuditReport {
    /// Findings under one rule name.
    pub fn by_rule(&self, rule: &str) -> Vec<&AuditFinding> {
        self.findings.iter().filter(|f| f.rule == rule).collect()
    }

    /// JSON form for downstream tooling. With `include_timings` false the
    /// non-deterministic `lex_ns` is omitted so the output is golden-file
    /// stable.
    pub fn to_json(&self, include_timings: bool) -> Json {
        let findings = self
            .findings
            .iter()
            .map(|f| {
                let mut obj = vec![
                    ("path".to_string(), Json::Str(f.path.clone())),
                    ("line".to_string(), Json::Num(f.line as f64)),
                    ("rule".to_string(), Json::Str(f.rule.clone())),
                    ("message".to_string(), Json::Str(f.message.clone())),
                ];
                if !f.chain.is_empty() {
                    obj.push((
                        "chain".to_string(),
                        Json::Arr(f.chain.iter().cloned().map(Json::Str).collect()),
                    ));
                }
                Json::Obj(obj)
            })
            .collect();
        let mut stats = vec![
            ("files".to_string(), Json::Num(self.stats.files as f64)),
            ("fns".to_string(), Json::Num(self.stats.fns as f64)),
            (
                "no_panic_roots".to_string(),
                Json::Num(self.stats.no_panic_roots as f64),
            ),
            (
                "call_edges".to_string(),
                Json::Num(self.stats.call_edges as f64),
            ),
            (
                "contracts".to_string(),
                Json::Num(self.stats.contracts as f64),
            ),
            ("waived".to_string(), Json::Num(self.stats.waived as f64)),
        ];
        if include_timings {
            stats.push(("lex_ns".to_string(), Json::Num(self.stats.lex_ns as f64)));
        }
        Json::Obj(vec![
            ("version".to_string(), Json::Num(1.0)),
            ("findings".to_string(), Json::Arr(findings)),
            ("stats".to_string(), Json::Obj(stats)),
        ])
    }
}

/// Run every pass over the corpus.
pub fn run(corpus: &Corpus) -> AuditReport {
    let mut items = Vec::new();
    let mut anns = Vec::new();
    let mut findings = Vec::new();

    for (fi, file) in corpus.files.iter().enumerate() {
        items.extend(items::extract_file(fi, &file.lx));
        anns.push(items::annotations(&file.lx));
        // Pass 1: the hygiene lints on the shared lex.
        findings.extend(
            lint::scan_lexed(&file.rel, &file.lx)
                .into_iter()
                .map(|f| AuditFinding {
                    path: f.path,
                    line: f.line,
                    rule: f.rule.name().to_string(),
                    message: f.message,
                    chain: Vec::new(),
                }),
        );
    }

    let graph = callgraph::build(corpus, &items, &anns);
    // Pass 2: panic freedom from every audited root.
    findings.extend(callgraph::check_no_panic(corpus, &items, &graph));
    // Pass 3: contract checks.
    findings.extend(contracts::check(corpus, &items, &graph, &anns));

    findings.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });

    let stats = AuditStats {
        files: corpus.files.len(),
        lex_ns: corpus.lex_ns,
        fns: items.len(),
        no_panic_roots: items.iter().filter(|it| it.no_panic).count(),
        call_edges: graph.edges,
        contracts: anns.iter().map(|a| a.contracts.len()).sum(),
        waived: graph.waived,
    };
    AuditReport { findings, stats }
}

/// Entry point of the `audit` binary.
///
/// Usage: `audit [--format=json|text] [--report] [ROOT]`. Exit code is
/// failure iff any finding is reported.
pub fn cli_main(args: impl Iterator<Item = String>) -> ExitCode {
    let mut format_json = false;
    let mut report = false;
    let mut root_arg: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--format=json" => format_json = true,
            "--format=text" => format_json = false,
            "--report" => report = true,
            "--help" | "-h" => {
                eprintln!("usage: audit [--format=json|text] [--report] [ROOT]");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => root_arg = Some(other.to_string()),
            other => {
                eprintln!("audit: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    obs::enable();
    let root = match root_arg {
        Some(r) => std::path::PathBuf::from(r),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
            let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            match lint::find_workspace_root(&cwd).or_else(|| lint::find_workspace_root(&manifest)) {
                Some(r) => r,
                None => {
                    eprintln!("audit: could not locate workspace root from {cwd:?}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let corpus = match Corpus::load(&root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("audit: failed to read workspace: {e}");
            return ExitCode::FAILURE;
        }
    };
    let audit = run(&corpus);

    if format_json {
        println!("{}", audit.to_json(true));
    } else {
        for f in &audit.findings {
            println!("{f}");
        }
        if audit.findings.is_empty() {
            eprintln!(
                "audit: clean — {} files, {} fns, {} no_panic roots, {} call edges, \
                 {} contracts, {} waived",
                audit.stats.files,
                audit.stats.fns,
                audit.stats.no_panic_roots,
                audit.stats.call_edges,
                audit.stats.contracts,
                audit.stats.waived
            );
        } else {
            eprintln!("audit: {} finding(s)", audit.findings.len());
        }
    }
    if report {
        let snap = obs::metrics::snapshot();
        for (name, v) in &snap.counters {
            eprintln!("counter {name} = {v}");
        }
    }
    if audit.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_from_sources_counts_stats() {
        let corpus = Corpus::from_sources(vec![(
            "crates/x/src/lib.rs".to_string(),
            "// AUDIT: no_panic\npub fn f(v: &[u32]) -> u32 { g() }\nfn g() -> u32 { 7 }\n"
                .to_string(),
        )]);
        let report = run(&corpus);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.stats.files, 1);
        assert_eq!(report.stats.fns, 2);
        assert_eq!(report.stats.no_panic_roots, 1);
        assert_eq!(report.stats.call_edges, 1);
    }

    #[test]
    fn json_report_round_trips() {
        let corpus = Corpus::from_sources(vec![(
            "crates/x/src/lib.rs".to_string(),
            "// AUDIT: no_panic\npub fn f(v: &[u32]) -> u32 { v[0] }\n".to_string(),
        )]);
        let report = run(&corpus);
        assert_eq!(report.findings.len(), 1);
        let json = report.to_json(false).to_string();
        let parsed = Json::parse(&json).expect("valid json");
        let findings = parsed.get("findings").and_then(Json::as_arr).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("rule").and_then(Json::as_str),
            Some("no-panic")
        );
        assert!(findings[0].get("chain").is_some());
        // Deterministic form must not carry timings.
        assert!(parsed.get("stats").unwrap().get("lex_ns").is_none());
    }
}
