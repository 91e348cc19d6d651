//! Workspace call graph and the panic-freedom pass.
//!
//! Call edges are extracted from body token streams (`name(...)`,
//! `path::name(...)`, `.method(...)`) and resolved *by name* against
//! the extracted item table — qualified paths first, then same file,
//! then same crate, then a unique workspace match. Unresolved calls are
//! assumed to target `std`/external code, which the pass treats as
//! panic-free: the panicking std surface that matters (`unwrap`,
//! `expect`, indexing, the panic macro family) is caught *directly* at
//! the call site by the token matchers below, so external resolution
//! gaps do not hide those sources.
//!
//! The panic-freedom pass walks the graph from every `AUDIT: no_panic`
//! root and reports each reachable panic source with the full call
//! chain. A `// AUDIT: waiver(reason)` on (or directly above) a line
//! suppresses both direct sources and outgoing call edges on that line.

use std::collections::HashMap;

use super::items::{FileAnn, FnItem};
use super::{AuditFinding, Corpus};
use crate::lex::{Lexed, TokKind};

/// Macros whose expansion can panic. (`debug_assert*` is exempt: the
/// audited kernels are release-mode hot paths where it compiles out.)
const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Methods that panic on the error/none path.
const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];

/// Idents that look like calls but are control-flow keywords.
const NOT_CALLS: [&str; 8] = [
    "if", "while", "for", "match", "return", "loop", "move", "unsafe",
];

/// Keyword idents that can precede `[` without forming an index
/// expression (`&mut [T]` types, `dyn [..]`, `return [..]`).
const NOT_INDEX_PREFIX: [&str; 10] = [
    "mut", "dyn", "ref", "return", "in", "box", "const", "else", "impl", "as",
];

/// One resolved call edge.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Calling item (index into the item table).
    pub caller: usize,
    /// Called item (index into the item table).
    pub callee: usize,
    /// 1-based line of the call.
    pub line: u32,
    /// Was the call written as a method (`recv.name(..)`)?
    pub is_method: bool,
}

/// One direct panic source inside a body.
#[derive(Clone, Debug)]
pub struct PanicSource {
    /// 1-based line.
    pub line: u32,
    /// What panics there (`panic!`, `.unwrap()`, `slice index`, ...).
    pub what: String,
}

/// The resolved workspace call graph plus per-item direct sources.
#[derive(Debug)]
pub struct Graph {
    /// Outgoing resolved edges per item.
    pub calls: Vec<Vec<CallSite>>,
    /// Unwaived direct panic sources per item.
    pub sources: Vec<Vec<PanicSource>>,
    /// Total resolved edges (stats).
    pub edges: usize,
    /// Sources suppressed by waivers (stats).
    pub waived: usize,
}

/// Token indices belonging to nested `fn` items within `(open, close)`,
/// precomputed so a body scan attributes nested bodies to the nested
/// item, not the enclosing one.
fn nested_ranges(items: &[FnItem], file: usize, open: usize, close: usize) -> Vec<(usize, usize)> {
    items
        .iter()
        .filter(|it| it.file == file)
        .filter_map(|it| it.body)
        .filter(|&(o, c)| o > open && c < close)
        .collect()
}

fn in_ranges(i: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(o, c)| i >= o && i <= c)
}

/// Build the call graph over every item with a body.
pub fn build(corpus: &Corpus, items: &[FnItem], anns: &[FileAnn]) -> Graph {
    // Name index over all items.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (idx, it) in items.iter().enumerate() {
        by_name.entry(&it.name).or_default().push(idx);
    }

    let mut calls = vec![Vec::new(); items.len()];
    let mut sources = vec![Vec::new(); items.len()];
    let mut edges = 0usize;
    let mut waived = 0usize;

    for (idx, it) in items.iter().enumerate() {
        let Some((open, close)) = it.body else {
            continue;
        };
        let lx = &corpus.files[it.file].lx;
        let ann = &anns[it.file];
        let nested = nested_ranges(items, it.file, open, close);
        let mut i = open + 1;
        while i < close {
            if in_ranges(i, &nested) || lx.toks[i].kind.is_comment() {
                i += 1;
                continue;
            }
            let line = lx.toks[i].line;
            let waived_here = ann.waived.contains_key(&line);
            match lx.toks[i].kind {
                TokKind::Ident => {
                    let name = lx.text(i);
                    let next = lx.next_code(i);
                    let is_bang = next.is_some_and(|j| lx.is_punct(j, '!'));
                    let is_call = next.is_some_and(|j| lx.is_punct(j, '('));
                    if is_bang && PANIC_MACROS.contains(&name) {
                        if waived_here {
                            waived += 1;
                        } else {
                            sources[idx].push(PanicSource {
                                line,
                                what: format!("{name}!"),
                            });
                        }
                    } else if is_call && !is_bang && !NOT_CALLS.contains(&name) {
                        let is_method = lx.prev_code(i).is_some_and(|j| lx.is_punct(j, '.'));
                        if is_method && PANIC_METHODS.contains(&name) {
                            if waived_here {
                                waived += 1;
                            } else {
                                sources[idx].push(PanicSource {
                                    line,
                                    what: format!(".{name}()"),
                                });
                            }
                        } else if !waived_here {
                            if let Some(callee) =
                                resolve(corpus, items, &by_name, it, i, lx, is_method)
                            {
                                if callee != idx {
                                    calls[idx].push(CallSite {
                                        caller: idx,
                                        callee,
                                        line,
                                        is_method,
                                    });
                                    edges += 1;
                                }
                            }
                        } else {
                            waived += 1;
                        }
                    }
                }
                TokKind::Punct if lx.is_punct(i, '[') => {
                    // Index expression: `expr[...]` — the `[` follows a
                    // value-producing token. Attribute `#[..]`, array
                    // literals, and type positions do not match.
                    let indexes = lx.prev_code(i).is_some_and(|j| match lx.toks[j].kind {
                        TokKind::Ident => !NOT_INDEX_PREFIX.contains(&lx.text(j)),
                        TokKind::Punct => {
                            lx.is_punct(j, ')') || lx.is_punct(j, ']') || lx.is_punct(j, '?')
                        }
                        _ => false,
                    });
                    if indexes {
                        if waived_here {
                            waived += 1;
                        } else {
                            sources[idx].push(PanicSource {
                                line,
                                what: "slice index".into(),
                            });
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    Graph {
        calls,
        sources,
        edges,
        waived,
    }
}

/// Resolve the call at token `i` (an ident followed by `(`) to an item.
fn resolve(
    corpus: &Corpus,
    items: &[FnItem],
    by_name: &HashMap<&str, Vec<usize>>,
    caller: &FnItem,
    i: usize,
    lx: &Lexed,
    is_method: bool,
) -> Option<usize> {
    let name = lx.text(i);
    let all = by_name.get(name)?;
    // A method call can only land on a fn with a `self` receiver.
    let owned: Vec<usize>;
    let cands: &[usize] = if is_method {
        owned = all.iter().copied().filter(|&c| items[c].has_self).collect();
        &owned
    } else {
        all
    };
    if cands.is_empty() {
        return None;
    }
    // Qualified path `seg::name(...)`: prefer candidates whose file
    // path mentions the qualifying segment (module files and dirs).
    if !is_method {
        if let Some(seg) = path_qualifier(lx, i) {
            // `seg::name` names the item in module `seg` — the file
            // that *is* the module (`seg.rs` / `seg/mod.rs` /
            // `seg/lib.rs`) beats files merely inside `seg/`, which
            // hold same-named inner kernels (`simd::scale` is the
            // dispatcher in `simd/mod.rs`, not a kernel body in
            // `simd/bodies.rs`).
            let exact_file = format!("/{seg}.rs");
            let exact_mod = format!("/{seg}/mod.rs");
            let exact_lib = format!("/{seg}/src/lib.rs");
            let needle_dir = format!("/{seg}/");
            let rel_of = |c: usize| corpus.files[items[c].file].rel.as_str();
            let exact: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| {
                    let rel = rel_of(c);
                    rel.ends_with(&exact_file)
                        || rel.ends_with(&exact_mod)
                        || rel.ends_with(&exact_lib)
                })
                .collect();
            let qualified: Vec<usize> = if exact.is_empty() {
                cands
                    .iter()
                    .copied()
                    .filter(|&c| rel_of(c).contains(&needle_dir))
                    .collect()
            } else {
                exact
            };
            if qualified.len() == 1 {
                return Some(qualified[0]);
            }
            if !qualified.is_empty() {
                // Same-crate tiebreak among qualified candidates.
                let caller_crate = crate_of(&corpus.files[caller.file].rel);
                if let Some(&c) = qualified
                    .iter()
                    .find(|&&c| crate_of(&corpus.files[items[c].file].rel) == caller_crate)
                {
                    return Some(c);
                }
                return Some(qualified[0]);
            }
        }
    }
    // Same file.
    if let Some(&c) = cands.iter().find(|&&c| items[c].file == caller.file) {
        return Some(c);
    }
    // Beyond the defining file a method call is guesswork without type
    // information (`FORCED.load(..)` on a std atomic must not resolve to
    // a same-crate wrapper also named `load`). Audited cross-file entry
    // points carry their own `AUDIT: no_panic` marker instead.
    if is_method {
        return None;
    }
    // Same crate.
    let caller_crate = crate_of(&corpus.files[caller.file].rel);
    if let Some(&c) = cands
        .iter()
        .find(|&&c| crate_of(&corpus.files[items[c].file].rel) == caller_crate)
    {
        return Some(c);
    }
    // Workspace-wide only when unambiguous; method names like `len` or
    // `get` would otherwise resolve to unrelated same-named fns.
    if cands.len() == 1 && !is_method {
        return Some(cands[0]);
    }
    None
}

/// The path segment before `seg::name` at token `i`, if any.
fn path_qualifier(lx: &Lexed, i: usize) -> Option<String> {
    let c2 = lx.prev_code(i)?;
    if !lx.is_punct(c2, ':') {
        return None;
    }
    let c1 = lx.prev_code(c2)?;
    if !lx.is_punct(c1, ':') {
        return None;
    }
    let seg = lx.prev_code(c1)?;
    if lx.toks[seg].kind != TokKind::Ident {
        return None;
    }
    Some(lx.text(seg).to_string())
}

/// The crate prefix of a workspace-relative path (`crates/math`), or
/// the first component for non-crate roots.
pub fn crate_of(rel: &str) -> &str {
    let mut parts = rel.split('/');
    let first = parts.next().unwrap_or("");
    if first == "crates" {
        let second = parts.next().unwrap_or("");
        &rel[..first.len() + 1 + second.len()]
    } else {
        first
    }
}

/// Walk the graph from every `no_panic` root; report each reachable
/// panic source with the full call chain from the root.
pub fn check_no_panic(corpus: &Corpus, items: &[FnItem], graph: &Graph) -> Vec<AuditFinding> {
    let mut findings = Vec::new();
    for (root, it) in items.iter().enumerate() {
        if !it.no_panic || it.body.is_none() {
            continue;
        }
        // Iterative DFS carrying the chain; `visited` is per root so
        // each root reports its own chains.
        let mut visited = vec![false; items.len()];
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(root, vec![root])];
        visited[root] = true;
        while let Some((cur, chain)) = stack.pop() {
            for src in &graph.sources[cur] {
                let frames: Vec<String> = chain
                    .iter()
                    .map(|&f| frame(corpus, items, f))
                    .chain(std::iter::once(format!(
                        "{}:{} {}",
                        corpus.files[items[cur].file].rel, src.line, src.what
                    )))
                    .collect();
                findings.push(AuditFinding {
                    path: corpus.files[items[cur].file].rel.clone(),
                    line: src.line as usize,
                    rule: "no-panic".into(),
                    message: format!(
                        "no_panic root `{}` reaches {} (waive with `// AUDIT: waiver(reason)` \
                         or remove the panic source)",
                        items[root].name, src.what
                    ),
                    chain: frames,
                });
            }
            for call in &graph.calls[cur] {
                if !visited[call.callee] && items[call.callee].body.is_some() {
                    visited[call.callee] = true;
                    let mut next = chain.clone();
                    next.push(call.callee);
                    stack.push((call.callee, next));
                }
            }
        }
    }
    findings
}

/// One chain frame: `path:line name`.
fn frame(corpus: &Corpus, items: &[FnItem], idx: usize) -> String {
    let it = &items[idx];
    format!("{}:{} {}", corpus.files[it.file].rel, it.line, it.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::items;

    fn corpus_of(files: &[(&str, &str)]) -> (Corpus, Vec<FnItem>, Vec<FileAnn>, Graph) {
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
        let graph = build(&corpus, &its, &anns);
        (corpus, its, anns, graph)
    }

    #[test]
    fn transitive_unwrap_reported_with_chain() {
        let src = "// AUDIT: no_panic\n\
                   pub fn root(v: &[u32]) -> u32 { helper(v) }\n\
                   fn helper(v: &[u32]) -> u32 { inner(v) }\n\
                   fn inner(v: &[u32]) -> u32 { v.first().copied().unwrap() }\n";
        let (corpus, its, _anns, graph) = corpus_of(&[("crates/x/src/lib.rs", src)]);
        let f = check_no_panic(&corpus, &its, &graph);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-panic");
        assert_eq!(f[0].line, 4);
        assert_eq!(f[0].chain.len(), 4); // root -> helper -> inner -> source
        assert!(f[0].chain[0].contains("root"));
        assert!(f[0].chain[3].contains(".unwrap()"));
    }

    #[test]
    fn waiver_suppresses_source() {
        let src = "// AUDIT: no_panic\n\
                   pub fn root(v: &[u32]) -> u32 {\n\
                       // AUDIT: waiver(entry assert guards len)\n\
                       v[0]\n\
                   }\n";
        let (corpus, its, _anns, graph) = corpus_of(&[("crates/x/src/lib.rs", src)]);
        assert!(check_no_panic(&corpus, &its, &graph).is_empty());
        assert_eq!(graph.waived, 1);
    }

    #[test]
    fn slice_indexing_is_a_source() {
        let src = "// AUDIT: no_panic\n\
                   pub fn root(v: &[u32], i: usize) -> u32 { v[i] }\n";
        let (corpus, its, _anns, graph) = corpus_of(&[("crates/x/src/lib.rs", src)]);
        let f = check_no_panic(&corpus, &its, &graph);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("slice index"));
    }

    #[test]
    fn cross_file_path_call_resolves() {
        let root = "// AUDIT: no_panic\n\
                    pub fn sweep(v: &mut [f64]) { simd::kernel(v) }\n";
        let simd = "pub fn kernel(v: &mut [f64]) { v.first().expect(\"empty\"); }\n";
        let (corpus, its, _anns, graph) = corpus_of(&[
            ("crates/lfd/src/kinetic.rs", root),
            ("crates/math/src/simd/mod.rs", simd),
        ]);
        let f = check_no_panic(&corpus, &its, &graph);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].path.contains("simd/mod.rs"));
        assert_eq!(f[0].chain.len(), 3);
    }

    #[test]
    fn panic_macros_flagged_but_debug_assert_exempt() {
        let src = "// AUDIT: no_panic\n\
                   pub fn root(x: u32) {\n\
                       debug_assert!(x > 0);\n\
                       if x == 9 { unreachable!() }\n\
                   }\n";
        let (corpus, its, _anns, graph) = corpus_of(&[("crates/x/src/lib.rs", src)]);
        let f = check_no_panic(&corpus, &its, &graph);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("unreachable!"));
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn array_literals_and_types_not_flagged() {
        let src = "// AUDIT: no_panic\n\
                   pub fn root() -> [u32; 2] {\n\
                       let a: &mut [u32] = &mut [1, 2];\n\
                       let b = [3, 4];\n\
                       b\n\
                   }\n";
        let (corpus, its, _anns, graph) = corpus_of(&[("crates/x/src/lib.rs", src)]);
        assert!(check_no_panic(&corpus, &its, &graph).is_empty());
    }

    #[test]
    fn unmarked_fns_are_not_roots() {
        let src = "pub fn free(v: &[u32]) -> u32 { v[0] }\n";
        let (corpus, its, _anns, graph) = corpus_of(&[("crates/x/src/lib.rs", src)]);
        assert!(check_no_panic(&corpus, &its, &graph).is_empty());
    }
}
