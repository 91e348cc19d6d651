//! Source-level hygiene lint for the repo's concurrency invariants.
//!
//! The rules are enforced over the shared lexed-token front end
//! ([`crate::lex`]) — one lex per file, shared with the [`crate::audit`]
//! passes — instead of the original regex/strip line scanner. The lexer
//! closes that scanner's two blind spots (raw string literals and
//! nested block comments) for good: banned patterns are matched on
//! *code tokens*, so nothing inside a comment or any string form can
//! trip a rule, and nothing after a raw string can hide from one.
//!
//! The rules `cargo` cannot express per-path:
//!
//! 1. **undocumented-unsafe** — every `unsafe` block or `unsafe impl`
//!    must carry a `// SAFETY:` comment on the same line or within the
//!    preceding comment block; every `unsafe fn` declaration must have a
//!    `# Safety` doc section (or a `// SAFETY:` comment). This backstops
//!    `clippy::undocumented_unsafe_blocks` for the vendored shims and
//!    for target configurations clippy does not visit. The structured
//!    contract form `// SAFETY: (key=value, ...)` (see `audit`) counts.
//! 2. **thread-spawn** — `thread::spawn` is allowed only inside
//!    `crates/pool` (the one owner of execution resources) and
//!    `crates/analyze` (the explorer must create controlled threads).
//!    Everything else must go through the pool, or scoped helpers.
//! 3. **wall-clock** — `Instant::now` is banned in kernel crates (math,
//!    grid, device, comm, tddft, qxmd): kernels are timed by the
//!    `dcmesh-obs` span layer and the modeled device clock; ad-hoc
//!    timers there skew the roofline accounting. Driver layers (lfd
//!    engine, core simulation, bench) and `crates/obs` itself may read
//!    wall clocks.
//! 4. **static-mut** — `static mut` is banned everywhere; use atomics,
//!    `OnceLock`, or interior mutability.
//! 5. **println-metrics** — `println!`/`eprintln!` are banned in kernel
//!    crates: ad-hoc printed "metrics" bypass the structured path
//!    (`dcmesh-obs` counters/gauges/histograms feeding the flight
//!    recorder and `--report`) and cannot be compared across runs.
//!    Driver and bench layers own stdout.
//! 6. **raw-arch** — `std::arch` / `core::arch` intrinsics are allowed
//!    only inside `crates/math/src/simd/`, the one audited home for
//!    ISA-specific code (with its scalar fallback and dispatch gate).
//!    Intrinsics sprinkled anywhere else dodge the backend override and
//!    the equivalence test suite.
//! 7. **target-feature** — every `#[target_feature(...)]` function must
//!    carry a `SAFETY:` comment (or a `# Safety` doc section) stating
//!    the CPU-support contract: who proved the features are available
//!    before this code runs. (The `audit` pass additionally requires
//!    the structured `cpu=` key and checks every call site.)
//!
//! Paths containing `/fixtures/` are skipped — they hold deliberately
//! failing inputs for the negative-path tests.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::lex::{self, Lexed, TokKind};

/// Crates whose sources must not read wall clocks (rule 3).
const KERNEL_CRATES: [&str; 6] = [
    "crates/math",
    "crates/grid",
    "crates/device",
    "crates/comm",
    "crates/tddft",
    "crates/qxmd",
];

/// Directories scanned relative to the workspace root.
pub(crate) const SCAN_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Which invariant a finding violates.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Rule {
    /// `unsafe` without a safety comment/doc section.
    UndocumentedUnsafe,
    /// `thread::spawn` outside the executor crates.
    ThreadSpawn,
    /// `Instant::now` inside a kernel crate.
    WallClock,
    /// `static mut` anywhere.
    StaticMut,
    /// `println!`/`eprintln!` inside a kernel crate.
    PrintlnMetrics,
    /// `std::arch`/`core::arch` outside the blessed SIMD module.
    RawArch,
    /// `#[target_feature]` without a SAFETY contract comment.
    TargetFeature,
}

impl Rule {
    /// Stable kebab-case name (CI log and JSON report key).
    pub fn name(self) -> &'static str {
        match self {
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::WallClock => "wall-clock",
            Rule::StaticMut => "static-mut",
            Rule::PrintlnMetrics => "println-metrics",
            Rule::RawArch => "raw-arch",
            Rule::TargetFeature => "target-feature",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// How many preceding lines may carry the `SAFETY:` comment.
const SAFETY_LOOKBACK: usize = 6;

/// Does this comment/doc line carry safety evidence? Both the prose
/// form (`SAFETY: ...`) and the structured contract form
/// (`SAFETY(key=value, ...)`) count.
fn has_safety_evidence(line: &str) -> bool {
    line.contains("SAFETY:") || line.contains("SAFETY(")
}

/// Scan one file's contents. `rel_path` (workspace-relative, `/`
/// separators) selects the path-dependent rules. Lexes the file and
/// delegates to [`scan_lexed`]; when the caller already holds a
/// [`Lexed`] (the audit corpus), use [`scan_lexed`] directly so the
/// file is lexed exactly once across all rules and passes.
pub fn scan_source(rel_path: &str, contents: &str) -> Vec<Finding> {
    scan_lexed(rel_path, &lex::lex(contents))
}

/// Run every lint rule over an already-lexed file.
pub fn scan_lexed(rel_path: &str, lx: &Lexed) -> Vec<Finding> {
    let mut findings = Vec::new();
    let lines: Vec<&str> = lx.src.lines().collect();
    let in_pool_or_analyze =
        rel_path.starts_with("crates/pool/") || rel_path.starts_with("crates/analyze/");
    let in_kernel_crate = KERNEL_CRATES
        .iter()
        .any(|k| rel_path.starts_with(&format!("{k}/")));
    let in_simd_module = rel_path.starts_with("crates/math/src/simd/");

    // One finding per line for the unsafe rule (a line with several
    // `unsafe` tokens is still one violation, as under the old scanner).
    let mut unsafe_flagged_line = 0usize;

    let toks = &lx.toks;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let line_no = tok.line as usize;
        let text = lx.text(i);
        match text {
            // `static mut NAME` — the `mut` directly follows.
            "static" if lx.next_code(i).is_some_and(|j| lx.is_ident(j, "mut")) => {
                findings.push(Finding {
                    path: rel_path.to_string(),
                    line: line_no,
                    rule: Rule::StaticMut,
                    message: "mutable statics are banned; use atomics or OnceLock".into(),
                });
            }
            "spawn" if !in_pool_or_analyze && path_prefix_is(lx, i, "thread") => {
                findings.push(Finding {
                    path: rel_path.to_string(),
                    line: line_no,
                    rule: Rule::ThreadSpawn,
                    message: "raw thread spawns belong to crates/pool; dispatch through \
                                 the pool"
                        .into(),
                });
            }
            "now" if in_kernel_crate && path_prefix_is(lx, i, "Instant") => {
                findings.push(Finding {
                    path: rel_path.to_string(),
                    line: line_no,
                    rule: Rule::WallClock,
                    message: "kernel crates must not read wall clocks; use dcmesh-obs \
                                 spans"
                        .into(),
                });
            }
            "println" | "eprintln" | "print" if in_kernel_crate && macro_bang_paren(lx, i) => {
                findings.push(Finding {
                    path: rel_path.to_string(),
                    line: line_no,
                    rule: Rule::PrintlnMetrics,
                    message: "kernel crates must not print; record dcmesh-obs metrics \
                                 instead"
                        .into(),
                });
            }
            "arch"
                if !in_simd_module
                    && (path_prefix_is(lx, i, "std") || path_prefix_is(lx, i, "core")) =>
            {
                findings.push(Finding {
                    path: rel_path.to_string(),
                    line: line_no,
                    rule: Rule::RawArch,
                    message: "raw arch intrinsics live in crates/math/src/simd/ \
                                      only; dispatch through dcmesh_math::simd"
                        .into(),
                });
            }
            "target_feature" => {
                // `#[target_feature(...)]`: preceded by `#` `[`,
                // followed by `(`.
                let attr = lx.prev_code(i).is_some_and(|j| lx.is_punct(j, '['))
                    && lx
                        .prev_code(i)
                        .and_then(|j| lx.prev_code(j))
                        .is_some_and(|j| lx.is_punct(j, '#'))
                    && lx.next_code(i).is_some_and(|j| lx.is_punct(j, '('));
                if attr && !target_feature_is_documented(&lines, line_no - 1) {
                    findings.push(Finding {
                        path: rel_path.to_string(),
                        line: line_no,
                        rule: Rule::TargetFeature,
                        message: "target_feature fn needs a SAFETY comment (or `# Safety` \
                                     doc) naming who verified CPU support"
                            .into(),
                    });
                }
            }
            "unsafe" => {
                let is_fn_decl = lx
                    .next_code(i)
                    .is_some_and(|j| lx.is_ident(j, "fn") || lx.is_ident(j, "trait"));
                if line_no != unsafe_flagged_line
                    && !unsafe_is_documented(&lines, line_no - 1, is_fn_decl)
                {
                    unsafe_flagged_line = line_no;
                    findings.push(Finding {
                        path: rel_path.to_string(),
                        line: line_no,
                        rule: Rule::UndocumentedUnsafe,
                        message: "missing SAFETY comment (or `# Safety` doc for an unsafe fn)"
                            .into(),
                    });
                }
            }
            _ => {}
        }
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Is token `i` the last segment of a path whose previous segment is
/// `seg` (i.e. the tokens read `seg :: <i>`)?
fn path_prefix_is(lx: &Lexed, i: usize, seg: &str) -> bool {
    let Some(c2) = lx.prev_code(i) else {
        return false;
    };
    if !lx.is_punct(c2, ':') {
        return false;
    }
    let Some(c1) = lx.prev_code(c2) else {
        return false;
    };
    if !lx.is_punct(c1, ':') {
        return false;
    }
    lx.prev_code(c1).is_some_and(|j| lx.is_ident(j, seg))
}

/// Is token `i` a macro invocation head `ident ! (`?
fn macro_bang_paren(lx: &Lexed, i: usize) -> bool {
    let Some(bang) = lx.next_code(i) else {
        return false;
    };
    if !lx.is_punct(bang, '!') {
        return false;
    }
    lx.next_code(bang).is_some_and(|j| lx.is_punct(j, '('))
}

/// Is the `unsafe` on `lines[idx]` covered by a safety comment?
///
/// Accepted evidence, searching the same line then up to
/// [`SAFETY_LOOKBACK`] preceding lines without leaving the contiguous
/// comment/attribute block above the item:
/// * a `SAFETY:` line comment (the clippy convention) or a structured
///   `SAFETY(...)` contract, or
/// * a `# Safety` doc heading for `unsafe fn` declarations (which may
///   sit further up, above the attributes and other doc text — for fn
///   declarations the whole contiguous doc block is searched).
fn unsafe_is_documented(lines: &[&str], idx: usize, is_fn_decl: bool) -> bool {
    if lines.get(idx).is_some_and(|l| has_safety_evidence(l)) {
        return true;
    }
    // Walk upward through the contiguous comment/attribute block.
    let mut steps = 0;
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let above = lines[i].trim_start();
        let is_annotation = above.starts_with("//") || above.starts_with('#') || above.is_empty();
        if has_safety_evidence(above) {
            return true;
        }
        if is_fn_decl && above.contains("# Safety") {
            return true;
        }
        if is_fn_decl {
            // Doc blocks for fns may be long; keep climbing while still
            // inside docs/attributes.
            if !is_annotation {
                return false;
            }
        } else {
            if !above.starts_with("//") {
                return false;
            }
            steps += 1;
            if steps >= SAFETY_LOOKBACK {
                return false;
            }
        }
    }
    false
}

/// Is the `#[target_feature]` on `lines[idx]` covered by a safety
/// contract? Accepted evidence: `SAFETY:` on the attribute line itself,
/// in the comment/attribute lines *between* the attribute and the fn
/// signature (the idiom for safe feature-gated helpers), or — searching
/// upward through the contiguous doc/attribute block — a `SAFETY:`
/// comment or `# Safety` doc heading.
fn target_feature_is_documented(lines: &[&str], idx: usize) -> bool {
    if lines.get(idx).is_some_and(|l| has_safety_evidence(l)) {
        return true;
    }
    let mut i = idx + 1;
    while i < lines.len() {
        let below = lines[i].trim_start();
        if has_safety_evidence(below) {
            return true;
        }
        if !(below.starts_with("//") || below.starts_with('#') || below.is_empty()) {
            break; // reached the fn signature
        }
        i += 1;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let above = lines[i].trim_start();
        if has_safety_evidence(above) || above.contains("# Safety") {
            return true;
        }
        if !(above.starts_with("//") || above.starts_with('#') || above.is_empty()) {
            return false;
        }
    }
    false
}

/// Recursively collect `.rs` files under `dir`, skipping fixtures and
/// build artifacts.
pub(crate) fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
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
        let manifest = d.join("Cargo.toml");
        if let Ok(s) = std::fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documented_unsafe_passes() {
        let src = "fn f() {\n    // SAFETY: disjoint by construction.\n    \
                   let x = unsafe { *p };\n}\n";
        assert!(scan_source("crates/pool/src/lib.rs", src).is_empty());
    }

    #[test]
    fn structured_contract_counts_as_documentation() {
        let src =
            "fn f() {\n    // SAFETY: (bounds=i<len, aliasing=disjoint) claimed ranges.\n    \
                   let x = unsafe { *p };\n}\n";
        assert!(scan_source("crates/pool/src/lib.rs", src).is_empty());
    }

    #[test]
    fn undocumented_unsafe_flagged() {
        let src = "fn f() {\n    let x = unsafe { *p };\n}\n";
        let f = scan_source("crates/pool/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UndocumentedUnsafe);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn unsafe_fn_doc_section_accepted() {
        let src = "/// Does a thing.\n///\n/// # Safety\n///\n/// Caller keeps `p` live.\n\
                   #[inline]\npub unsafe fn f(p: *mut u8) {}\n";
        assert!(scan_source("crates/pool/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unsafe_in_comment_or_string_ignored() {
        let src = "// this mentions unsafe in prose\nlet s = \"unsafe words\";\n";
        assert!(scan_source("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unsafe_in_raw_string_ignored() {
        // Regression: the legacy strip scanner lost sync on `r#"..."#`
        // and could mis-attribute the contents.
        let src = "fn f() -> &'static str {\n    r#\"let x = unsafe { *p }; \"quoted\" \"#\n}\n";
        assert!(scan_source("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn code_after_raw_string_still_scanned() {
        // Regression: after a raw string the scanner must be back in
        // sync — the undocumented unsafe below must still be caught.
        let src = "fn f() {\n    let s = r#\"some \" text\"#;\n    let x = unsafe { *p };\n}\n";
        let f = scan_source("crates/core/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::UndocumentedUnsafe);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn nested_block_comments_ignored() {
        // Regression: the legacy scanner did not track block comments;
        // banned patterns inside nested block comments must not trip,
        // and code after them must still be scanned.
        let src = "/* outer /* static mut INNER: u8 = 0; */ tail */\n\
                   fn f() {\n    let x = unsafe { *p };\n}\n";
        let f = scan_source("crates/core/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::UndocumentedUnsafe);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn spawn_rule_scoped_to_pool_and_analyze() {
        let line = format!(
            "let h = std::{}(|| {{}});\n",
            ["thread", "spawn"].join("::")
        );
        assert!(scan_source("crates/pool/src/lib.rs", &line).is_empty());
        assert!(scan_source("crates/analyze/src/sched.rs", &line).is_empty());
        let f = scan_source("crates/lfd/src/engine.rs", &line);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::ThreadSpawn);
    }

    #[test]
    fn wall_clock_rule_only_in_kernel_crates() {
        let line = format!("let t = {}();\n", ["Instant", "now"].join("::"));
        assert!(scan_source("crates/lfd/src/engine.rs", &line).is_empty());
        assert!(scan_source("crates/obs/src/clock.rs", &line).is_empty());
        let f = scan_source("crates/math/src/gemm.rs", &line);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::WallClock);
    }

    #[test]
    fn println_rule_only_in_kernel_crates() {
        let line = format!(
            "{}\"step {{i}} took {{t}}s\");\n",
            ["println", "("].join("!")
        );
        // Driver/bench layers own stdout.
        assert!(scan_source("crates/bench/src/lib.rs", &line).is_empty());
        assert!(scan_source("crates/core/src/simulation.rs", &line).is_empty());
        let f = scan_source("crates/tddft/src/scf.rs", &line);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::PrintlnMetrics);
        // eprintln! is just as banned.
        let e = format!("{}\"residual {{r}}\");\n", ["eprintln", "("].join("!"));
        assert_eq!(
            scan_source("crates/math/src/gemm.rs", &e)[0].rule,
            Rule::PrintlnMetrics
        );
    }

    #[test]
    fn raw_arch_allowed_only_in_simd_module() {
        let line = format!(
            "use {}::x86_64::_mm256_fmadd_pd;\n",
            ["core", "arch"].join("::")
        );
        assert!(scan_source("crates/math/src/simd/avx2.rs", &line).is_empty());
        for bad in ["crates/math/src/gemm.rs", "crates/lfd/src/kinetic.rs"] {
            let f = scan_source(bad, &line);
            assert_eq!(f.len(), 1, "{bad}");
            assert_eq!(f[0].rule, Rule::RawArch);
        }
        let std_line = format!(
            "let ok = {}::is_x86_feature_detected!(\"avx2\");\n",
            ["std", "arch"].join("::")
        );
        assert_eq!(
            scan_source("crates/grid/src/lib.rs", &std_line)[0].rule,
            Rule::RawArch
        );
    }

    #[test]
    fn target_feature_requires_safety_contract() {
        let attr = ["#[target", "feature(enable = \"avx2\")]"].join("_");
        // Documented above (unsafe-fn idiom: # Safety doc section).
        let doc_above = format!("/// Kernel.\n///\n/// # Safety\n///\n/// Caller verified AVX2.\n{attr}\npub unsafe fn k() {{}}\n");
        assert!(
            scan_source("crates/math/src/simd/avx2.rs", &doc_above)
                .iter()
                .all(|f| f.rule != Rule::TargetFeature),
            "documented target_feature fn must pass"
        );
        // Documented between attribute and signature (safe-helper idiom).
        let doc_below = format!(
            "#[inline]\n{attr}\n// SAFETY: callable only from avx2 contexts.\nfn helper() {{}}\n"
        );
        assert!(scan_source("crates/math/src/simd/avx2.rs", &doc_below).is_empty());
        // Undocumented: flagged wherever it lives.
        let bare = format!("#[inline]\n{attr}\nfn helper() {{}}\n");
        let f = scan_source("crates/math/src/simd/avx2.rs", &bare);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::TargetFeature);
    }

    #[test]
    fn static_mut_flagged_everywhere() {
        let line = format!("{}COUNTER: u64 = 0;\n", ["static", "mut "].join(" "));
        let f = scan_source("crates/obs/src/lib.rs", &line);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::StaticMut);
    }
}
