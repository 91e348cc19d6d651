//! The path-scoped source-hygiene rules: one pass over the code tokens
//! of the shared lex ([`crate::lex`]), so nothing inside a comment or any
//! string form can trip a rule, and nothing after a raw string or a
//! nested block comment can hide from one.
//!
//! These are the rules `cargo` cannot express per path:
//!
//! * **static-mut** — `static mut` is banned everywhere; use atomics,
//!   `OnceLock`, or interior mutability.
//! * **thread-spawn** — `thread::spawn` is allowed only inside
//!   `crates/pool` (the one owner of execution resources) and
//!   `crates/analyze` (the explorer must create controlled threads).
//!   Everything else must go through the pool, or scoped helpers.
//! * **wall-clock** — `Instant::now` is banned in the `KERNEL_CRATES`:
//!   kernels are timed by the `dcmesh-obs` span layer and the modeled
//!   device clock; ad-hoc timers there skew the roofline accounting.
//!   Driver layers (lfd engine, core simulation, bench) and `crates/obs`
//!   itself may read wall clocks.
//! * **println-metrics** — `println!`/`eprintln!`/`print!` are banned in
//!   the kernel crates: an ad-hoc printed number cannot be compared across
//!   runs. A kernel returns the number to its caller (or times itself
//!   under a `dcmesh-obs` span); driver and bench layers own stdout.
//! * **raw-arch** — `std::arch` / `core::arch` intrinsics are allowed
//!   only inside `crates/math/src/simd/`, the one audited home for
//!   ISA-specific code (with its scalar fallback and dispatch gate).
//!
//! The documentation of `unsafe` is clippy's to check
//! (`undocumented_unsafe_blocks`, and `missing_safety_doc` on private
//! items too through the root `clippy.toml`); the CPU contract of a
//! `#[target_feature]` fn is [`super::contracts`]' `contract-cpu`.

use super::{AuditFinding, Corpus};
use crate::lex::{Lexed, TokKind};

/// Crates whose sources must not read wall clocks or print.
const KERNEL_CRATES: [&str; 6] = [
    "crates/math/",
    "crates/grid/",
    "crates/device/",
    "crates/comm/",
    "crates/tddft/",
    "crates/qxmd/",
];

/// Run every hygiene rule over every file of the corpus.
pub fn check(corpus: &Corpus) -> Vec<AuditFinding> {
    let mut findings = Vec::new();
    for file in &corpus.files {
        let (rel, lx) = (file.rel.as_str(), &file.lx);
        let spawn_allowed = rel.starts_with("crates/pool/") || rel.starts_with("crates/analyze/");
        let in_kernel_crate = KERNEL_CRATES.iter().any(|k| rel.starts_with(k));
        let arch_allowed = rel.starts_with("crates/math/src/simd/");
        for (i, tok) in lx.toks.iter().enumerate() {
            if tok.kind != TokKind::Ident {
                continue;
            }
            let (rule, message) = match lx.text(i) {
                // `static mut NAME` — the `mut` directly follows.
                "static" if lx.next_code(i).is_some_and(|j| lx.is_ident(j, "mut")) => (
                    "static-mut",
                    "mutable statics are banned; use atomics or OnceLock",
                ),
                "spawn" if !spawn_allowed && path_prefix_is(lx, i, "thread") => (
                    "thread-spawn",
                    "raw thread spawns belong to crates/pool; dispatch through the pool",
                ),
                "now" if in_kernel_crate && path_prefix_is(lx, i, "Instant") => (
                    "wall-clock",
                    "kernel crates must not read wall clocks; use dcmesh-obs spans",
                ),
                "println" | "eprintln" | "print" if in_kernel_crate && macro_bang_paren(lx, i) => (
                    "println-metrics",
                    "kernel crates must not print; return the number to the caller",
                ),
                "arch"
                    if !arch_allowed
                        && (path_prefix_is(lx, i, "std") || path_prefix_is(lx, i, "core")) =>
                {
                    (
                        "raw-arch",
                        "raw arch intrinsics live in crates/math/src/simd/ only; dispatch \
                         through dcmesh_math::simd",
                    )
                }
                _ => continue,
            };
            findings.push(AuditFinding {
                path: rel.to_string(),
                line: tok.line as usize,
                rule: rule.into(),
                message: message.into(),
                chain: Vec::new(),
            });
        }
    }
    findings
}

/// Is token `i` the last segment of a path whose previous segment is
/// `seg` (i.e. the tokens read `seg :: <i>`)?
fn path_prefix_is(lx: &Lexed, i: usize, seg: &str) -> bool {
    let Some(c2) = lx.prev_code(i).filter(|&j| lx.is_punct(j, ':')) else {
        return false;
    };
    let Some(c1) = lx.prev_code(c2).filter(|&j| lx.is_punct(j, ':')) else {
        return false;
    };
    lx.prev_code(c1).is_some_and(|j| lx.is_ident(j, seg))
}

/// Is token `i` a macro invocation head `ident ! (`?
fn macro_bang_paren(lx: &Lexed, i: usize) -> bool {
    lx.next_code(i)
        .filter(|&bang| lx.is_punct(bang, '!'))
        .and_then(|bang| lx.next_code(bang))
        .is_some_and(|j| lx.is_punct(j, '('))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_rule_fires_only_where_its_path_scope_bans_it() {
        let spawn = "let h = std::thread::spawn(|| {});";
        let now = "let t = std::time::Instant::now();";
        let print = "println!(\"step {i} took {t}s\");";
        let arch = "use core::arch::x86_64::_mm256_fmadd_pd;";
        let (sm, eprint) = ("static mut N: u64 = 0;", "eprintln!(\"r {r}\");");
        let cases: &[(&str, &str, Option<&str>)] = &[
            // static-mut: everywhere.
            ("crates/obs/src/lib.rs", sm, Some("static-mut")),
            ("crates/pool/src/lib.rs", sm, Some("static-mut")),
            ("crates/obs/src/lib.rs", "static N: u64 = 0;", None),
            // thread-spawn: everywhere but the pool and the analyzer.
            ("crates/pool/src/lib.rs", spawn, None),
            ("crates/analyze/src/sched.rs", spawn, None),
            ("crates/lfd/src/engine.rs", spawn, Some("thread-spawn")),
            ("tests/pipeline.rs", spawn, Some("thread-spawn")),
            // wall-clock and println-metrics: the six kernel crates only.
            ("crates/math/src/gemm.rs", now, Some("wall-clock")),
            ("crates/grid/src/mesh.rs", now, Some("wall-clock")),
            ("crates/device/src/clock.rs", now, Some("wall-clock")),
            ("crates/comm/src/world.rs", print, Some("println-metrics")),
            ("crates/tddft/src/scf.rs", print, Some("println-metrics")),
            ("crates/qxmd/src/md.rs", eprint, Some("println-metrics")),
            ("crates/lfd/src/engine.rs", now, None),
            ("crates/obs/src/clock.rs", now, None),
            ("crates/bench/src/lib.rs", print, None),
            ("crates/core/src/simulation.rs", print, None),
            // raw-arch: outside crates/math/src/simd/ only.
            ("crates/math/src/simd/avx2.rs", arch, None),
            ("crates/math/src/gemm.rs", arch, Some("raw-arch")),
            ("crates/lfd/src/kinetic.rs", arch, Some("raw-arch")),
            (
                "crates/grid/src/lib.rs",
                "let ok = std::arch::is_x86_feature_detected!(\"avx2\");",
                Some("raw-arch"),
            ),
            // Comments and strings never trip a rule. Raw strings and nested
            // block comments, the old line scanner's blind spots, hide
            // nothing and invent nothing.
            ("src/lib.rs", "// static mut X\n\"static mut X\";", None),
            ("src/lib.rs", "let s = r#\"static mut X \"q\" \"#;", None),
            ("src/lib.rs", "/* a /* static mut X: u8 = 0; */ b */", None),
            (
                "src/lib.rs",
                "let s = r#\"a \" b\"#;\nstatic mut X: u8 = 0;",
                Some("static-mut"),
            ),
            (
                "src/lib.rs",
                "/* a /* b */ c */\nstatic mut X: u8 = 0;",
                Some("static-mut"),
            ),
        ];
        for &(path, src, want) in cases {
            let corpus = Corpus::from_sources(vec![(path.to_string(), src.to_string())]);
            let got: Vec<String> = check(&corpus).into_iter().map(|f| f.rule).collect();
            assert_eq!(got, Vec::from_iter(want), "{path}: {src}");
        }
    }
}
