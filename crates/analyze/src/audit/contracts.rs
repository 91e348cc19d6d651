//! Machine checks for the structured SAFETY contract grammar.
//!
//! Five rules, all over the shared item table and call graph:
//!
//! * **contract-syntax** — a parenthesized contract may only use the
//!   keys in [`super::items::CONTRACT_KEYS`]; typos (`alignment=`)
//!   would otherwise silently claim nothing.
//! * **contract-cpu** — every `#[target_feature(enable = "X")]` fn
//!   must carry a contract declaring `cpu=X`: the claim a call-site
//!   audit can hold the dispatch layer to.
//! * **contract-callsite** — every resolved call to a
//!   `#[target_feature]` fn must come from the dispatch module
//!   ([`DISPATCH_MODULE`]), from a body that checks
//!   `is_x86_feature_detected!`, or from a fn carrying the same
//!   feature itself. Anything else could execute illegal instructions
//!   on older CPUs.
//! * **contract-align** — an `align=N` claim must match the arena's
//!   `ALIGN` constant (read out of `crates/pool/src/arena.rs`, not
//!   hard-coded here), so the claim goes stale loudly if the arena
//!   changes.
//! * **contract-bounds** — an audited (`no_panic`) fn whose body
//!   touches raw pointers (`from_raw_parts`, `get_unchecked`,
//!   `.add(..)`, unaligned load/store intrinsics) must claim `bounds=`
//!   in a covering contract: the claim states who proved the access
//!   in-range, since no bounds check will.

use super::callgraph::Graph;
use super::items::{FileAnn, FnItem};
use super::{AuditFinding, Corpus};
use crate::lex::TokKind;

/// The one module allowed to call `#[target_feature]` fns without a
/// runtime guard: it *is* the runtime guard.
pub const DISPATCH_MODULE: &str = "crates/math/src/simd/mod.rs";

/// The arena source the `align=` claims are checked against.
pub const ARENA_FILE: &str = "crates/pool/src/arena.rs";

/// Fallback when the corpus does not include the arena (fixture runs).
pub const DEFAULT_ALIGN: u64 = 64;

/// Idents that mark a raw-pointer dereference in a body.
const RAW_PTR_FNS: [&str; 4] = [
    "get_unchecked",
    "get_unchecked_mut",
    "from_raw_parts",
    "from_raw_parts_mut",
];

/// Method names that move or dereference raw pointers.
const RAW_PTR_METHODS: [&str; 6] = [
    "add",
    "offset",
    "read",
    "write",
    "read_unaligned",
    "write_unaligned",
];

/// Read `pub const ALIGN: usize = N;` out of the arena source in the
/// corpus. `None` when the corpus has no arena file.
pub fn arena_align(corpus: &Corpus) -> Option<u64> {
    let file = corpus.files.iter().find(|f| f.rel == ARENA_FILE)?;
    let lx = &file.lx;
    for i in 0..lx.toks.len() {
        if !lx.is_ident(i, "ALIGN") {
            continue;
        }
        // `ALIGN : usize = <num>`
        let mut j = i;
        for _ in 0..4 {
            j = lx.next_code(j)?;
        }
        if lx.toks[j].kind == TokKind::Num {
            if let Ok(v) = lx.text(j).parse::<u64>() {
                return Some(v);
            }
        }
    }
    None
}

/// Run every contract rule.
pub fn check(
    corpus: &Corpus,
    items: &[FnItem],
    graph: &Graph,
    anns: &[FileAnn],
) -> Vec<AuditFinding> {
    let mut findings = Vec::new();
    let align = arena_align(corpus).unwrap_or(DEFAULT_ALIGN);

    // contract-syntax and contract-align apply to every contract in
    // every file, attached to an item or not.
    for (fi, ann) in anns.iter().enumerate() {
        let rel = &corpus.files[fi].rel;
        for (_tok, c) in &ann.contracts {
            for key in c.unknown_keys() {
                findings.push(AuditFinding {
                    path: rel.clone(),
                    line: c.line as usize,
                    rule: "contract-syntax".into(),
                    message: format!(
                        "unknown contract key `{key}` (accepted: align, bounds, aliasing, cpu)"
                    ),
                    chain: Vec::new(),
                });
            }
            if let Some(claim) = c.get("align") {
                if claim.parse::<u64>() != Ok(align) {
                    findings.push(AuditFinding {
                        path: rel.clone(),
                        line: c.line as usize,
                        rule: "contract-align".into(),
                        message: format!(
                            "stale align= claim: contract says {claim}, arena ALIGN is {align}"
                        ),
                        chain: Vec::new(),
                    });
                }
            }
        }
    }

    // contract-cpu: target_feature fns must claim their feature.
    for it in items {
        let Some(feat) = &it.target_feature else {
            continue;
        };
        let rel = &corpus.files[it.file].rel;
        match it.contract.as_ref().and_then(|c| c.get("cpu")) {
            None => findings.push(AuditFinding {
                path: rel.clone(),
                line: it.line as usize,
                rule: "contract-cpu".into(),
                message: format!(
                    "#[target_feature(enable = \"{feat}\")] fn `{}` has no `cpu=` claim \
                     in its SAFETY contract",
                    it.name
                ),
                chain: Vec::new(),
            }),
            Some(cpu) if cpu != feat => findings.push(AuditFinding {
                path: rel.clone(),
                line: it.line as usize,
                rule: "contract-cpu".into(),
                message: format!(
                    "fn `{}` claims cpu={cpu} but enables target feature \"{feat}\"",
                    it.name
                ),
                chain: Vec::new(),
            }),
            Some(_) => {}
        }
    }

    // contract-callsite: every resolved edge into a target_feature fn.
    for edges in &graph.calls {
        for call in edges {
            let callee = &items[call.callee];
            let Some(feat) = &callee.target_feature else {
                continue;
            };
            let caller = &items[call.caller];
            let caller_rel = &corpus.files[caller.file].rel;
            let guarded = caller_rel == DISPATCH_MODULE
                || caller.target_feature.as_deref() == Some(feat.as_str())
                || body_checks_feature(corpus, caller);
            if !guarded {
                findings.push(AuditFinding {
                    path: caller_rel.clone(),
                    line: call.line as usize,
                    rule: "contract-callsite".into(),
                    message: format!(
                        "unguarded call to #[target_feature(enable = \"{feat}\")] fn `{}`: \
                         call from the dispatch module, behind is_x86_feature_detected!, or \
                         from a fn with the same target_feature",
                        callee.name
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }

    // contract-bounds: audited fns touching raw pointers must claim
    // bounds= in a covering contract (their own, or one on an unsafe
    // block inside the body).
    for it in items {
        if !it.no_panic {
            continue;
        }
        let Some((open, close)) = it.body else {
            continue;
        };
        let lx = &corpus.files[it.file].lx;
        let covered = fn_claims_bounds(it, &anns[it.file], open, close);
        if covered {
            continue;
        }
        let mut first_signal: Option<(u32, String)> = None;
        for i in open + 1..close {
            if lx.toks[i].kind != TokKind::Ident {
                continue;
            }
            let name = lx.text(i);
            let calls_paren = lx.next_code(i).is_some_and(|j| lx.is_punct(j, '('));
            if !calls_paren {
                continue;
            }
            let is_method = lx.prev_code(i).is_some_and(|j| lx.is_punct(j, '.'));
            let raw = RAW_PTR_FNS.contains(&name)
                || (is_method && RAW_PTR_METHODS.contains(&name))
                || name.contains("loadu")
                || name.contains("storeu");
            if raw {
                first_signal = Some((lx.toks[i].line, name.to_string()));
                break;
            }
        }
        if let Some((line, what)) = first_signal {
            findings.push(AuditFinding {
                path: corpus.files[it.file].rel.clone(),
                line: line as usize,
                rule: "contract-bounds".into(),
                message: format!(
                    "audited fn `{}` dereferences raw pointers ({what}) without a `bounds=` \
                     claim in a covering SAFETY contract",
                    it.name
                ),
                chain: Vec::new(),
            });
        }
    }

    findings
}

/// Does any covering contract of this fn claim `bounds=`? Covering
/// means the fn's own annotation-block contract or any contract comment
/// whose token lies inside the body (unsafe-block contracts).
fn fn_claims_bounds(it: &FnItem, ann: &FileAnn, open: usize, close: usize) -> bool {
    if it
        .contract
        .as_ref()
        .is_some_and(|c| c.get("bounds").is_some())
    {
        return true;
    }
    ann.contracts
        .iter()
        .any(|(tok, c)| *tok > open && *tok < close && c.get("bounds").is_some())
}

/// Does the caller's body invoke `is_x86_feature_detected!`?
fn body_checks_feature(corpus: &Corpus, caller: &FnItem) -> bool {
    let Some((open, close)) = caller.body else {
        return false;
    };
    let lx = &corpus.files[caller.file].lx;
    (open + 1..close).any(|i| lx.is_ident(i, "is_x86_feature_detected"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{callgraph, items};

    fn run(files: &[(&str, &str)]) -> Vec<AuditFinding> {
        let corpus = Corpus::from_sources(
            files
                .iter()
                .map(|(r, s)| (r.to_string(), s.to_string()))
                .collect(),
        );
        let mut its = Vec::new();
        let mut anns = Vec::new();
        for (fi, f) in corpus.files.iter().enumerate() {
            its.extend(items::extract_file(fi, &f.lx));
            anns.push(items::annotations(&f.lx));
        }
        let graph = callgraph::build(&corpus, &its, &anns);
        check(&corpus, &its, &graph, &anns)
    }

    const TF_FN: &str = "// SAFETY: (cpu=avx2) caller proves AVX2 before dispatch.\n\
                         #[target_feature(enable = \"avx2\")]\n\
                         pub unsafe fn kernel(p: *const f64) {}\n";

    #[test]
    fn missing_cpu_claim_flagged() {
        let src = "// SAFETY: (bounds=n) prose.\n\
                   #[target_feature(enable = \"avx2\")]\n\
                   pub unsafe fn kernel(p: *const f64) {}\n";
        let f = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "contract-cpu");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn mismatched_cpu_claim_flagged() {
        let src = "// SAFETY: (cpu=sse2) wrong claim.\n\
                   #[target_feature(enable = \"avx2\")]\n\
                   pub unsafe fn kernel(p: *const f64) {}\n";
        let f = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "contract-cpu");
    }

    #[test]
    fn guarded_and_unguarded_callsites() {
        let caller_bad = "pub fn fast(p: *const f64) {\n\
                          // SAFETY: (cpu=avx2) wrong: nothing checked here.\n\
                          unsafe { kernel(p) }\n\
                          }\n";
        let caller_good = "pub fn safe_path(p: *const f64) {\n\
                           if std::arch::is_x86_feature_detected!(\"avx2\") {\n\
                           // SAFETY: (cpu=avx2) guarded by the detect above.\n\
                           unsafe { kernel(p) }\n\
                           }\n\
                           }\n";
        let f = run(&[
            ("crates/x/src/simd.rs", TF_FN),
            ("crates/x/src/bad.rs", caller_bad),
            ("crates/x/src/good.rs", caller_good),
        ]);
        let callsite: Vec<_> = f.iter().filter(|f| f.rule == "contract-callsite").collect();
        assert_eq!(callsite.len(), 1, "{f:?}");
        assert_eq!(callsite[0].path, "crates/x/src/bad.rs");
        assert_eq!(callsite[0].line, 3);
    }

    #[test]
    fn dispatch_module_is_exempt() {
        let caller = "pub fn dispatch(p: *const f64) {\n\
                      // SAFETY: (cpu=avx2) gate checked at registry build.\n\
                      unsafe { kernel(p) }\n\
                      }\n";
        let f = run(&[
            ("crates/math/src/simd/avx2.rs", TF_FN),
            ("crates/math/src/simd/mod.rs", caller),
        ]);
        assert!(f.iter().all(|f| f.rule != "contract-callsite"), "{f:?}");
    }

    #[test]
    fn same_feature_caller_is_exempt() {
        let caller = "// SAFETY: (cpu=avx2) part of the same feature island.\n\
                      #[target_feature(enable = \"avx2\")]\n\
                      pub unsafe fn outer(p: *const f64) { kernel(p) }\n";
        let f = run(&[
            ("crates/x/src/simd.rs", TF_FN),
            ("crates/x/src/outer.rs", caller),
        ]);
        assert!(f.iter().all(|f| f.rule != "contract-callsite"), "{f:?}");
    }

    #[test]
    fn stale_align_flagged_against_arena_constant() {
        let arena = "pub const ALIGN: usize = 64;\n";
        let src = "fn f(p: *mut u8) {\n\
                   // SAFETY: (align=32, aliasing=disjoint) stale claim.\n\
                   unsafe { p.write(0) }\n\
                   }\n";
        let f = run(&[(ARENA_FILE, arena), ("crates/x/src/lib.rs", src)]);
        let align: Vec<_> = f.iter().filter(|f| f.rule == "contract-align").collect();
        assert_eq!(align.len(), 1, "{f:?}");
        assert_eq!(align[0].line, 2);
        assert!(align[0].message.contains("32"));
        assert!(align[0].message.contains("64"));
    }

    #[test]
    fn missing_bounds_on_audited_raw_ptr_fn() {
        let src = "// AUDIT: no_panic\n\
                   // SAFETY: (aliasing=disjoint) no bounds claim.\n\
                   pub unsafe fn k(p: *const f64, n: usize) -> f64 {\n\
                       *p.add(n - 1)\n\
                   }\n";
        let f = run(&[("crates/x/src/lib.rs", src)]);
        let bounds: Vec<_> = f.iter().filter(|f| f.rule == "contract-bounds").collect();
        assert_eq!(bounds.len(), 1, "{f:?}");
        assert_eq!(bounds[0].line, 4);
    }

    #[test]
    fn bounds_claim_on_inner_unsafe_block_covers() {
        let src = "// AUDIT: no_panic\n\
                   pub fn k(v: &[f64], n: usize) -> f64 {\n\
                       // SAFETY: (bounds=n < v.len() by caller contract) in-range.\n\
                       unsafe { *v.get_unchecked(n) }\n\
                   }\n";
        let f = run(&[("crates/x/src/lib.rs", src)]);
        assert!(f.iter().all(|f| f.rule != "contract-bounds"), "{f:?}");
    }

    #[test]
    fn unknown_keys_flagged() {
        let src = "fn f(p: *mut u8) {\n\
                   // SAFETY: (alignment=64) typo for align.\n\
                   unsafe { p.write(0) }\n\
                   }\n";
        let f = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "contract-syntax");
        assert!(f[0].message.contains("alignment"));
    }
}
