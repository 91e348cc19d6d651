//! dcmesh-audit: whole-workspace static analysis over one shared lex.
//!
//! The audit is three passes over a [`Corpus`] — every workspace `.rs`
//! file lexed exactly once ([`crate::lex`]), with the token stream
//! shared by every rule:
//!
//! 1. the path-scoped hygiene rules ([`hygiene`]),
//! 2. the panic-freedom call-graph pass ([`callgraph`]): fns marked
//!    `// AUDIT: no_panic` must not reach `panic!`/`unwrap`/`expect`/
//!    `assert!`/slice indexing without an `// AUDIT: waiver(reason)`,
//!    reported with the full call chain, and
//! 3. the machine-checked SAFETY contract pass ([`contracts`]):
//!    structured `// SAFETY: (align=64, bounds=.., aliasing=..,
//!    cpu=avx2)` claims are cross-checked against the arena alignment
//!    constant, `#[target_feature]` attributes, and every call site.

pub mod callgraph;
pub mod contracts;
pub mod hygiene;
pub mod items;

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::lex::{self, Lexed};

/// Directories scanned relative to the workspace root.
const SCAN_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

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
}

impl Corpus {
    /// Lex every `.rs` file under the workspace scan roots.
    pub fn load(root: &Path) -> std::io::Result<Corpus> {
        let mut paths = Vec::new();
        for sub in SCAN_ROOTS {
            collect_rs(&root.join(sub), &mut paths);
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
        let files = sources
            .into_iter()
            .map(|(rel, src)| SourceFile {
                rel,
                lx: lex::lex(&src),
            })
            .collect();
        Corpus { files }
    }
}

/// Recursively collect `.rs` files under `dir`, skipping fixtures and
/// build artifacts.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name == "target" || name == "fixtures" || name.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Locate the workspace root: walk up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if std::fs::read_to_string(d.join("Cargo.toml")).is_ok_and(|s| s.contains("[workspace]")) {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// One audit finding — a hygiene violation, an unwaived panic path, or
/// a broken contract.
#[derive(Clone, Debug)]
pub struct AuditFinding {
    /// Path relative to the workspace root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Kebab-case rule name (`no-panic`, `contract-cpu`, `static-mut`, ...).
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

/// Aggregate numbers for the summary line.
#[derive(Clone, Debug, Default)]
pub struct AuditStats {
    /// Files lexed.
    pub files: usize,
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
}

/// Run every pass over the corpus.
pub fn run(corpus: &Corpus) -> AuditReport {
    let mut items = Vec::new();
    let mut anns = Vec::new();
    for (fi, file) in corpus.files.iter().enumerate() {
        items.extend(items::extract_file(fi, &file.lx));
        anns.push(items::annotations(&file.lx));
    }
    let graph = callgraph::build(corpus, &items, &anns);

    let mut findings = hygiene::check(corpus);
    findings.extend(callgraph::check_no_panic(corpus, &items, &graph));
    findings.extend(contracts::check(corpus, &items, &graph, &anns));
    findings.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });

    let stats = AuditStats {
        files: corpus.files.len(),
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
/// Usage: `audit [ROOT]`. Prints every finding, or one `audit: clean — …`
/// summary line; the exit code is failure iff any finding is reported.
pub fn cli_main(args: impl Iterator<Item = String>) -> ExitCode {
    let mut root_arg: Option<String> = None;
    for arg in args {
        if arg.starts_with('-') {
            eprintln!("usage: audit [ROOT]");
            return ExitCode::FAILURE;
        }
        root_arg = Some(arg);
    }

    let root = match root_arg {
        Some(r) => PathBuf::from(r),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
            let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            match find_workspace_root(&cwd).or_else(|| find_workspace_root(&manifest)) {
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
        ExitCode::SUCCESS
    } else {
        eprintln!("audit: {} finding(s)", audit.findings.len());
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
}
