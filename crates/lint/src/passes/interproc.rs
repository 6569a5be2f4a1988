//! DL012 / DL013 / DL014 — interprocedural passes over the workspace
//! call graph ([`crate::model`]).
//!
//! The token-level passes (DL006/DL007, DL001/DL009) flag direct
//! occurrences inside their scoped files and go blind the moment the
//! pattern is wrapped in a helper. These passes follow facts *across*
//! functions:
//!
//! **DL012 determinism-taint v2.** Hash-container iteration, wall-clock
//! reads, and pointer-address ordering are *facts* extracted per
//! function; the pass walks the call graph from the determinism
//! entry points — `DcatController::tick*`, every `CachePolicy` impl,
//! and the public surface of `host::engine`/`host::multi` — and reports
//! any reachable fact with the entry→sink call chain as a trace.
//! Crucially, fact extraction sees locals whose hash type arrives by
//! *call-return inference* (`let m = make_map();` where `make_map`
//! resolves to a workspace fn returning `HashMap<…>`), the exact
//! laundering shape DL006's file-local tracker provably misses. The
//! order-insensitive-fold exemption and `lint: allow(DL006/DL007/DL012)`
//! escapes are honored at the fact site; `bench::timing` keeps its
//! wall-clock license. v3 refines the name set with the def-use layer
//! ([`crate::dataflow`]): a file-level hash name shadowed by a provably
//! non-hash local no longer taints the fn, and plain aliases
//! (`let renamed = m;` / `.clone()`) of a hash value are tracked to a
//! fixpoint even though their names carry no type anywhere.
//!
//! **DL013 panic-reachability.** `unwrap`/`expect`/`panic!`-family
//! macros, slice indexing, and integer `/`/`%` by a variable divisor are
//! facts; entry points are the paths PR 3 promised never die mid-tick:
//! `run_daemon_observed`/`run_daemon_with` and the controller's
//! `tick*`/two-pass `apply`. Indexing by a loop variable bound as
//! `for i in 0..…` in the same body is exempt (the dominant safe shape
//! in the controller), as are the `assert!` family (deliberate contract
//! checks, not accidental panics). Allows: DL001/DL009/DL013.
//!
//! **DL014 unit-safety.** Not reachability-based: every non-test fn in
//! the unit-bearing crates is checked for (a) arithmetic or comparison
//! mixing identifiers of different unit suffixes (`*_ways` vs `*_bytes`
//! vs `*_cycles` vs `*_epochs` — `*`/`/` are excluded as legitimate
//! conversions) and (b) returns from unit-promising fn names that
//! contradict the canonical widths in DESIGN.md §12: `ways` are `u32`,
//! `bytes`/`cycles`/`epochs` are `u64`. Named (newtype) returns pass;
//! a float or a wrong-width integer does not. v3 propagates units
//! through suffix-free bindings: a `let` whose initializer reads only
//! one unit's values (with no calls, which may convert, and no later
//! reassignment) inherits that unit, so `let w = total_ways;
//! w + slab_bytes` is still a mix. Allow: DL014.

use crate::dataflow::UseKind;
use crate::diagnostics::{Finding, Sink};
use crate::model::Workspace;
use crate::tokens::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

pub const TAINT_CODE: &str = "DL012";
pub const PANIC_REACH_CODE: &str = "DL013";
pub const UNIT_CODE: &str = "DL014";

/// How entry points are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryMode {
    /// The repo gate: the dCat-specific entry sets documented above.
    Repo,
    /// Fixture scans: every graph root (fn with no incoming edges).
    Roots,
}

pub fn run_all(ws: &Workspace, mode: EntryMode, sink: &mut Sink) {
    run_taint(ws, mode, sink);
    run_panic_reach(ws, mode, sink);
    run_unit_safety(ws, mode, sink);
    super::flow::run_pool_discipline(ws, mode, sink);
    super::flow::run_hot_alloc(ws, mode, sink);
    super::flow::run_io_completeness(ws, mode, sink);
}

// ---------------------------------------------------------------------
// Shared reachability machinery
// ---------------------------------------------------------------------

/// Multi-source BFS; returns `parent[f] = Some(pred)` for every reached
/// fn (entries point at themselves). Deterministic: entries are visited
/// in index order and adjacency lists are sorted.
pub(super) fn reach(ws: &Workspace, entries: &[usize]) -> Vec<Option<usize>> {
    let mut parent: Vec<Option<usize>> = vec![None; ws.fns.len()];
    let mut q = VecDeque::new();
    for &e in entries {
        if parent[e].is_none() {
            parent[e] = Some(e);
            q.push_back(e);
        }
    }
    while let Some(f) = q.pop_front() {
        for &(c, _) in &ws.edges[f] {
            if parent[c].is_none() && !ws.fns[c].is_test {
                parent[c] = Some(f);
                q.push_back(c);
            }
        }
    }
    parent
}

/// Entry→`f` chain of qualified names, following BFS parents.
pub(super) fn trace_to(ws: &Workspace, parent: &[Option<usize>], mut f: usize) -> Vec<String> {
    let mut chain = vec![ws.fns[f].qualified.clone()];
    while let Some(p) = parent[f] {
        if p == f {
            break;
        }
        chain.push(ws.fns[p].qualified.clone());
        f = p;
    }
    chain.reverse();
    chain
}

pub(super) fn roots(ws: &Workspace) -> Vec<usize> {
    let mut has_caller = vec![false; ws.fns.len()];
    for (f, es) in ws.edges.iter().enumerate() {
        if ws.fns[f].is_test {
            continue;
        }
        for &(c, _) in es {
            has_caller[c] = true;
        }
    }
    (0..ws.fns.len())
        .filter(|&f| !has_caller[f] && !ws.fns[f].is_test)
        .collect()
}

/// Crates whose bodies never contribute facts: the analyzer itself (its
/// sources and fixtures spell every banned token).
pub(super) fn fact_exempt_crate(cr: &str) -> bool {
    cr == "dcat_lint"
}

/// One extracted fact, pre-resolved to an emission site.
pub(super) struct Fact {
    pub(super) f: usize,
    pub(super) line: usize,
    pub(super) message: String,
}

/// Emits `fact` if its line is not covered by `code` or any of
/// `also_allowed` (the fact kinds map onto the token-level pass codes,
/// whose existing allows stay honored).
pub(super) fn emit_fact(
    ws: &Workspace,
    sink: &mut Sink,
    code: &'static str,
    also_allowed: &[&str],
    fact: &Fact,
    trace: Vec<String>,
) {
    let unit = ws.unit_of(fact.f);
    if also_allowed
        .iter()
        .any(|c| unit.file.is_allowed(fact.line, c))
    {
        return;
    }
    let snippet = unit
        .file
        .lines
        .get(fact.line - 1)
        .map(|l| l.raw.trim().to_string())
        .unwrap_or_default();
    let finding = Finding {
        code,
        path: unit.file.path.clone(),
        line: fact.line,
        message: fact.message.clone(),
        snippet,
        trace,
    };
    if unit.file.is_allowed(fact.line, code) {
        sink.suppressed.push(finding);
    } else {
        sink.findings.push(finding);
    }
}

/// Non-test code lines of a fn body, as `(line_no, scrubbed_text)`.
pub(super) fn body_code_lines(ws: &Workspace, f: usize) -> Vec<(usize, String)> {
    let unit = ws.unit_of(f);
    let Some((lo, hi)) = ws.fn_item(f).body_lines else {
        return Vec::new();
    };
    unit.file
        .lines
        .iter()
        .enumerate()
        .skip(lo.saturating_sub(1))
        .take(hi.saturating_sub(lo) + 1)
        .filter(|(_, l)| !l.in_test)
        .map(|(i, l)| (i + 1, l.scrubbed.clone()))
        .collect()
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Is this token a Rust keyword (so `kw […]` is an array literal or a
/// pattern, never an indexing expression)?
fn is_rust_kw(t: &crate::tokens::Tok) -> bool {
    [
        "in", "return", "match", "if", "else", "for", "while", "loop", "break", "continue", "move",
        "ref", "mut", "as", "let", "box", "await", "yield", "static", "const",
    ]
    .iter()
    .any(|k| t.is_kw(k))
}

// ---------------------------------------------------------------------
// DL012 — determinism taint v2
// ---------------------------------------------------------------------

fn taint_entries(ws: &Workspace, mode: EntryMode) -> Vec<usize> {
    if mode == EntryMode::Roots {
        return roots(ws);
    }
    let mut out = Vec::new();
    for (f, n) in ws.fns.iter().enumerate() {
        if n.is_test {
            continue;
        }
        let ctl_tick = n.crate_ident == "dcat"
            && n.impl_ty.as_deref() == Some("DcatController")
            && n.name.starts_with("tick");
        let policy_impl = n.trait_name.as_deref() == Some("CachePolicy") && n.impl_ty.is_some();
        let host_surface = n.crate_ident == "host"
            && matches!(
                n.module.first().map(String::as_str),
                Some("engine") | Some("multi")
            )
            && ws.fn_item(f).is_pub;
        if ctl_tick || policy_impl || host_surface {
            out.push(f);
        }
    }
    out
}

/// Hash-typed names visible in fn `f`: the file-level tracker's names
/// plus locals whose type (declared or call-return-inferred) is a hash
/// container, refined by the fn's def-use chains (v3): a file-level
/// name shadowed in this fn by a provably non-hash local is dropped,
/// and a local bound directly from a hash-typed value (a plain alias
/// or `.clone()`) is added even though its name carries no type.
fn hash_names(ws: &Workspace, f: usize) -> BTreeSet<String> {
    let mut names = super::determinism::collect_hash_names(&ws.unit_of(f).file);
    for (name, ty) in &ws.locals[f] {
        if ty.contains("HashMap") || ty.contains("HashSet") {
            names.insert(name.clone());
        }
    }
    let Some(flow) = super::flow::flow_of(ws, f) else {
        return names;
    };
    let is_hash = |t: &str| t.contains("HashMap") || t.contains("HashSet");
    // Shadowing cut: every def of the name in this fn is known non-hash
    // (by annotation, call-return inference, or a non-hash constructor)
    // → occurrences here are that local, not the file-level binding.
    names.retain(|name| {
        let mut defs = flow.defs.iter().filter(|d| &d.name == name).peekable();
        if defs.peek().is_none() {
            return true; // not bound locally; trust the file tracker
        }
        defs.any(|d| {
            let known =
                d.ty.as_deref()
                    .or_else(|| ws.locals[f].get(name).map(String::as_str));
            match known {
                Some(t) => is_hash(t),
                // No type anywhere: a non-hash constructor call proves
                // it clean; anything else stays suspect.
                None => !d.init_calls.iter().any(|c| {
                    let tail = c.rsplit("::").next().unwrap_or(c);
                    matches!(tail, "new" | "default" | "with_capacity") && !is_hash(c)
                }),
            }
        })
    });
    // Alias propagation to a fixpoint: `let alias = m;` (or `m.clone()`)
    // carries the hash container under a new, suffix-free name.
    loop {
        let mut changed = false;
        for def in &flow.defs {
            if names.contains(&def.name) {
                continue;
            }
            let pure_alias = def
                .init_calls
                .iter()
                .all(|c| c.rsplit("::").next().unwrap_or(c) == "clone");
            if pure_alias
                && def.init_reads.len() == 1
                && names.contains(&flow.defs[def.init_reads[0]].name)
            {
                names.insert(def.name.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    names
}

fn run_taint(ws: &Workspace, mode: EntryMode, sink: &mut Sink) {
    use super::determinism::{for_loop_over, is_order_insensitive, iter_method_on};
    let entries = taint_entries(ws, mode);
    let parent = reach(ws, &entries);
    let mut facts: Vec<Fact> = Vec::new();
    for f in 0..ws.fns.len() {
        if parent[f].is_none() || fact_exempt_crate(&ws.fns[f].crate_ident) {
            continue;
        }
        let node = &ws.fns[f];
        let timing_license = node.crate_ident == "dcat_bench"
            && node.module.first().map(String::as_str) == Some("timing");
        let names = hash_names(ws, f);
        let unit = ws.unit_of(f);
        let mut seen_lines = BTreeSet::new();
        for (n, line) in body_code_lines(ws, f) {
            // Hash iteration (DL006 semantics, + inferred locals).
            if !names.is_empty() && names.iter().any(|x| line.contains(x.as_str())) {
                let chain = unit.file.chain_text(n);
                for name in &names {
                    let method_hit = iter_method_on(&chain, name);
                    let loop_hit = for_loop_over(&line, name);
                    if !method_hit && !loop_hit {
                        continue;
                    }
                    if method_hit && !loop_hit && is_order_insensitive(&chain) {
                        continue;
                    }
                    if seen_lines.insert(n) {
                        facts.push(Fact {
                            f,
                            line: n,
                            message: format!(
                                "iteration over HashMap/HashSet `{name}` is \
                                 order-nondeterministic and reachable from a determinism \
                                 entry point"
                            ),
                        });
                    }
                    break;
                }
            }
            // Wall clock / pointer order (DL007 semantics).
            if !timing_license {
                if line.contains("Instant::now") || line.contains("SystemTime") {
                    facts.push(Fact {
                        f,
                        line: n,
                        message: "wall-clock time source reachable from a determinism entry \
                                  point (results must be a pure function of seed and config)"
                            .into(),
                    });
                } else if line.contains(".as_ptr() as ")
                    || ((line.contains(" as *const") || line.contains(" as *mut"))
                        && line.contains(" as usize"))
                {
                    facts.push(Fact {
                        f,
                        line: n,
                        message: "pointer-address ordering reachable from a determinism \
                                  entry point"
                            .into(),
                    });
                }
            }
        }
    }
    for fact in &facts {
        let trace = trace_to(ws, &parent, fact.f);
        emit_fact(ws, sink, TAINT_CODE, &["DL006", "DL007"], fact, trace);
    }
}

// ---------------------------------------------------------------------
// DL013 — panic reachability
// ---------------------------------------------------------------------

fn panic_entries(ws: &Workspace, mode: EntryMode) -> Vec<usize> {
    if mode == EntryMode::Roots {
        return roots(ws);
    }
    let mut out = Vec::new();
    for (f, n) in ws.fns.iter().enumerate() {
        if n.is_test || n.crate_ident != "dcat" {
            continue;
        }
        let daemon = n.module.first().map(String::as_str) == Some("daemon")
            && n.name.starts_with("run_daemon");
        let ctl = n.impl_ty.as_deref() == Some("DcatController")
            && (n.name == "apply" || n.name.starts_with("tick"));
        if daemon || ctl {
            out.push(f);
        }
    }
    out
}

const PANIC_MACROS: [&str; 4] = ["panic!(", "unreachable!(", "todo!(", "unimplemented!("];

/// Identifiers bound by iteration or pattern destructuring anywhere in
/// the body: `for i in …` / `for (k, v) in …`, closure parameters
/// (`|&i|`, `|(i, x)|`), and `Some(i)` / `Ok(i)` patterns. Indexing by
/// such a binding is range-derived (the value flows from an iterator or
/// a search over valid indices), so it is exempt from the DL013 index
/// fact; raw parameters, struct fields, literals, and computed indices
/// stay flagged.
fn loop_bound_idents(toks: &[Tok], start: usize, end: usize) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        // for-loop patterns: everything between `for` and `in`.
        if t.is_kw("for") {
            let mut j = i + 1;
            while j < end && !toks[j].is_kw("in") && !toks[j].is("{") {
                if toks[j].kind == TokKind::Ident && !toks[j].is_kw("mut") {
                    out.insert(toks[j].text.clone());
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        // Option/Result destructure: `Some(i)`, `Ok(i)`.
        if (t.is_kw("Some") || t.is_kw("Ok"))
            && i + 3 < end
            && toks[i + 1].is("(")
            && toks[i + 2].kind == TokKind::Ident
            && toks[i + 3].is(")")
        {
            out.insert(toks[i + 2].text.clone());
            i += 4;
            continue;
        }
        // Closure header: `|` pattern-ish tokens `|` within a short
        // window. Idents after a `:` are types, not bindings.
        if t.is("|") {
            let mut j = i + 1;
            let mut in_type = false;
            let mut names = Vec::new();
            let mut ok = false;
            while j < end && j - i < 24 {
                let u = &toks[j];
                if u.is("|") {
                    ok = true;
                    break;
                }
                match u.text.as_str() {
                    "," => in_type = false,
                    ":" => in_type = true,
                    "&" | "(" | ")" | "_" | "mut" | "<" | ">" | "::" => {}
                    _ if u.kind == TokKind::Ident || u.kind == TokKind::Lifetime => {
                        if !in_type && u.kind == TokKind::Ident {
                            names.push(u.text.clone());
                        }
                    }
                    _ => break, // not a closure header
                }
                j += 1;
            }
            if ok {
                out.extend(names);
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Integer-typed locals/params of fn `f` (for the divisor fact).
fn int_locals(ws: &Workspace, f: usize) -> BTreeSet<String> {
    const INTS: [&str; 12] = [
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    ws.locals[f]
        .iter()
        .filter(|(_, ty)| INTS.contains(&ty.trim_start_matches('&').trim()))
        .map(|(n, _)| n.clone())
        .collect()
}

fn run_panic_reach(ws: &Workspace, mode: EntryMode, sink: &mut Sink) {
    let entries = panic_entries(ws, mode);
    let parent = reach(ws, &entries);
    let mut facts: Vec<Fact> = Vec::new();
    for f in 0..ws.fns.len() {
        if parent[f].is_none() || fact_exempt_crate(&ws.fns[f].crate_ident) {
            continue;
        }
        for (n, line) in body_code_lines(ws, f) {
            if line.contains(".unwrap()") || line.contains(".expect(") {
                facts.push(Fact {
                    f,
                    line: n,
                    message: "unwrap()/expect() reachable from the daemon tick path \
                              (PR 3: ticks degrade, they never die)"
                        .into(),
                });
            }
            if PANIC_MACROS.iter().any(|m| line.contains(m)) {
                facts.push(Fact {
                    f,
                    line: n,
                    message: "explicit panic reachable from the daemon tick path".into(),
                });
            }
        }
        // Token-level facts: indexing and variable divisors.
        let item = ws.fn_item(f);
        let Some((bs, be)) = item.body else { continue };
        let toks = &ws.unit_of(f).parsed.tokens;
        let bound = loop_bound_idents(toks, bs, be);
        let ints = int_locals(ws, f);
        let mut i = bs;
        while i < be {
            let t = &toks[i];
            let prev_is_value = i > bs
                && (toks[i - 1].kind == TokKind::Ident && !is_rust_kw(&toks[i - 1])
                    || toks[i - 1].is(")")
                    || toks[i - 1].is("]"));
            if t.is("[") && prev_is_value {
                // Contract checks (`assert!`/`debug_assert!`) are
                // deliberate panics, not accidental ones.
                let line_text = ws
                    .unit_of(f)
                    .file
                    .lines
                    .get(t.line - 1)
                    .map(|l| l.scrubbed.clone())
                    .unwrap_or_default();
                if line_text.contains("assert") {
                    i += 1;
                    continue;
                }
                // Slice/array indexing: find the matching `]`.
                let mut depth = 0isize;
                let mut j = i;
                while j < be {
                    match toks[j].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let inner = &toks[i + 1..j.min(be)];
                let loop_safe = inner.len() == 1
                    && inner[0].kind == TokKind::Ident
                    && bound.contains(&inner[0].text);
                if !loop_safe {
                    facts.push(Fact {
                        f,
                        line: t.line,
                        message: "panicking index reachable from the daemon tick path \
                                  (use .get()/.get_mut() or a loop-bounded index)"
                            .into(),
                    });
                }
                i = j + 1;
                continue;
            }
            if (t.is("/") || t.is("%") || t.is("/=") || t.is("%="))
                && i + 1 < be
                && toks[i + 1].kind == TokKind::Ident
                && ints.contains(&toks[i + 1].text)
            {
                facts.push(Fact {
                    f,
                    line: t.line,
                    message: format!(
                        "integer division/remainder by variable `{}` reachable from the \
                         daemon tick path (zero divisor panics; guard or use checked_div)",
                        toks[i + 1].text
                    ),
                });
            }
            i += 1;
        }
    }
    facts.sort_by(|a, b| (a.f, a.line).cmp(&(b.f, b.line)));
    facts.dedup_by(|a, b| a.f == b.f && a.line == b.line && a.message == b.message);
    for fact in &facts {
        let trace = trace_to(ws, &parent, fact.f);
        emit_fact(ws, sink, PANIC_REACH_CODE, &["DL001", "DL009"], fact, trace);
    }
}

// ---------------------------------------------------------------------
// DL014 — unit safety
// ---------------------------------------------------------------------

/// Crates that traffic in ways/bytes/cycles quantities.
fn unit_scoped(cr: &str, mode: EntryMode) -> bool {
    if mode == EntryMode::Roots {
        return !fact_exempt_crate(cr);
    }
    matches!(
        cr,
        "dcat" | "host" | "llc_sim" | "resctrl" | "dcat_bench" | "perf_events"
    )
}

fn unit_of(ident: &str) -> Option<&'static str> {
    for u in ["ways", "bytes", "cycles", "epochs"] {
        if ident == u || ident.ends_with(&format!("_{u}")) {
            return Some(u);
        }
    }
    None
}

/// Canonical integer width for a unit (DESIGN.md §12).
fn canonical_width(unit: &str) -> &'static str {
    match unit {
        "ways" => "u32",
        _ => "u64",
    }
}

/// Operators whose operands must agree on units. `*`/`/` are excluded:
/// `ways * way_bytes` is the sanctioned conversion shape.
fn unit_strict_op(op: &str) -> bool {
    matches!(
        op,
        "+" | "-" | "+=" | "-=" | "<" | "<=" | ">" | "==" | "!=" | "="
    )
}

fn run_unit_safety(ws: &Workspace, mode: EntryMode, sink: &mut Sink) {
    let mut facts: Vec<Fact> = Vec::new();
    for f in 0..ws.fns.len() {
        let node = &ws.fns[f];
        if node.is_test || !unit_scoped(&node.crate_ident, mode) {
            continue;
        }
        let item = ws.fn_item(f);
        // (b) unit-promising name must return the canonical width.
        if let (Some(unit), Some(ret)) = (unit_of(&node.name), item.ret.as_ref()) {
            if let Some(bad) = width_violation(unit, ret) {
                facts.push(Fact {
                    f,
                    line: item.line,
                    message: format!(
                        "fn `{}` promises {unit} but returns `{ret}` ({bad}; canonical \
                         {unit} width is {})",
                        node.name,
                        canonical_width(unit)
                    ),
                });
            }
        }
        // (a) mixed-unit arithmetic/comparison/assignment.
        let Some((bs, be)) = item.body else { continue };
        let toks = &ws.unit_of(f).parsed.tokens;
        // v3 dataflow: a suffix-free binding whose initializer reads
        // only values of one unit (and is never reassigned) inherits
        // that unit, so `let w = total_ways; w + size_bytes` is caught.
        let mut inherited: BTreeMap<String, &'static str> = BTreeMap::new();
        if let Some(flow) = super::flow::flow_of(ws, f) {
            loop {
                let mut changed = false;
                for def in &flow.defs {
                    if unit_of(&def.name).is_some()
                        || inherited.contains_key(&def.name)
                        || !def.init_calls.is_empty()
                        || def.init_reads.is_empty()
                        || def.uses.iter().any(|u| matches!(u.kind, UseKind::Write))
                    {
                        continue;
                    }
                    let units: BTreeSet<&'static str> = def
                        .init_reads
                        .iter()
                        .filter_map(|&r| {
                            let src = &flow.defs[r].name;
                            unit_of(src).or_else(|| inherited.get(src).copied())
                        })
                        .collect();
                    if units.len() == 1
                        && def.init_reads.iter().all(|&r| {
                            let src = &flow.defs[r].name;
                            unit_of(src).is_some() || inherited.contains_key(src)
                        })
                    {
                        inherited.insert(def.name.clone(), units.iter().next().copied().unwrap());
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        let unit_of_ident = |ident: &str| unit_of(ident).or_else(|| inherited.get(ident).copied());
        for i in bs..be {
            let t = &toks[i];
            if t.kind != TokKind::Punct || !unit_strict_op(&t.text) {
                continue;
            }
            if i == bs || i + 1 >= be {
                continue;
            }
            // `->` never reaches here (own token); `>` only fires between
            // two unit-suffixed idents, which generics never produce.
            let (l, r) = (&toks[i - 1], &toks[i + 1]);
            if l.kind != TokKind::Ident || r.kind != TokKind::Ident {
                continue;
            }
            if let (Some(ul), Some(ur)) = (unit_of_ident(&l.text), unit_of_ident(&r.text)) {
                if ul != ur {
                    facts.push(Fact {
                        f,
                        line: t.line,
                        message: format!(
                            "`{}` ({ul}) {} `{}` ({ur}) mixes units; convert explicitly \
                             before combining",
                            l.text, t.text, r.text
                        ),
                    });
                }
            }
        }
    }
    for fact in &facts {
        let trace = vec![ws.fns[fact.f].qualified.clone()];
        emit_fact(ws, sink, UNIT_CODE, &[], fact, trace);
    }
}

/// Does return type `ret` contradict the canonical width of `unit`?
/// Returns a short description of the violation, or `None` if fine.
fn width_violation(unit: &str, ret: &str) -> Option<&'static str> {
    let canonical = canonical_width(unit);
    let words: Vec<String> = split_idents(ret);
    let ints: Vec<&str> = words
        .iter()
        .map(String::as_str)
        .filter(|w| {
            matches!(
                *w,
                "u8" | "u16"
                    | "u32"
                    | "u64"
                    | "u128"
                    | "usize"
                    | "i8"
                    | "i16"
                    | "i32"
                    | "i64"
                    | "i128"
                    | "isize"
            )
        })
        .collect();
    if ints.iter().any(|w| *w == canonical) {
        return None;
    }
    if !ints.is_empty() {
        return Some("wrong integer width");
    }
    if words.iter().any(|w| w == "f32" || w == "f64") {
        return Some("floats cannot carry a discrete unit");
    }
    // A named (newtype) return carries its own unit discipline.
    None
}

fn split_idents(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in s.chars() {
        if is_ident_char(c) {
            cur.push(c);
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

// ---------------------------------------------------------------------
// Self-tests
// ---------------------------------------------------------------------

#[cfg(test)]
use std::collections::BTreeMap as TestMap;

pub(super) fn fixture_ws(files: &[(&str, &str)]) -> Workspace {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(p, t)| (p.to_string(), t.to_string()))
        .collect();
    Workspace::from_sources(&sources, &BTreeMap::new())
}

pub(super) fn run_on(files: &[(&str, &str)], mode: EntryMode) -> Sink {
    let ws = fixture_ws(files);
    let mut sink = Sink::default();
    run_all(&ws, mode, &mut sink);
    sink
}

pub(super) fn expect_codes(
    name: &str,
    files: &[(&str, &str)],
    mode: EntryMode,
    code: &str,
    want: usize,
) -> Result<(), String> {
    let sink = run_on(files, mode);
    let got = sink.findings.iter().filter(|f| f.code == code).count();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{name}: expected {want} {code} finding(s), got {got}: {:?}",
            sink.findings
                .iter()
                .map(|f| format!("{} {}:{} {}", f.code, f.path, f.line, f.message))
                .collect::<Vec<_>>()
        ))
    }
}

pub fn self_test() -> Result<(), String> {
    // DL012: hash map laundered through a helper's return value — the
    // file-local DL006 tracker cannot see `m` is a HashMap.
    let laundered = [(
        "a.rs",
        "use std::collections::HashMap;\n\
             pub fn make_map() -> HashMap<u32, u64> { HashMap::new() }\n\
             pub fn entry() -> Vec<u64> {\n\
                 let m = make_map();\n\
                 m.values().copied().collect()\n\
             }\n",
    )];
    expect_codes(
        "DL012 laundering",
        &laundered,
        EntryMode::Roots,
        TAINT_CODE,
        1,
    )?;
    {
        // …and the token-level DL006 pass indeed misses it.
        let file = super::lex(laundered[0].1);
        let mut sink = Sink::default();
        super::determinism::run_hash_iter(&file, &mut sink);
        if !sink.findings.is_empty() {
            return Err("DL012 self-test: fixture must be invisible to DL006".into());
        }
    }
    // Order-insensitive fold stays exempt even through laundering.
    expect_codes(
        "DL012 fold exemption",
        &[(
            "a.rs",
            "use std::collections::HashMap;\n\
             pub fn make_map() -> HashMap<u32, u64> { HashMap::new() }\n\
             pub fn entry() -> u64 {\n\
                 let m = make_map();\n\
                 m.values().sum()\n\
             }\n",
        )],
        EntryMode::Roots,
        TAINT_CODE,
        0,
    )?;
    // The allow escape is honored at the fact site.
    expect_codes(
        "DL012 allow",
        &[(
            "a.rs",
            "use std::collections::HashMap;\n\
             pub fn make_map() -> HashMap<u32, u64> { HashMap::new() }\n\
             pub fn entry() -> Vec<u64> {\n\
                 let m = make_map();\n\
                 m.values().copied().collect() // lint: allow(DL006, order folded by caller)\n\
             }\n",
        )],
        EntryMode::Roots,
        TAINT_CODE,
        0,
    )?;
    // v3 shadow cut: `counts` is a HashMap in `other` (so the
    // file-level tracker collects the name) but a Vec in `entry`; the
    // def-use layer sees the non-hash annotation and stays silent.
    expect_codes(
        "DL012 shadowed non-hash local",
        &[(
            "a.rs",
            "use std::collections::HashMap;\n\
             pub fn other() -> u64 {\n\
                 let counts: HashMap<u32, u64> = HashMap::new();\n\
                 counts.len() as u64\n\
             }\n\
             pub fn entry() -> u64 {\n\
                 let counts: Vec<u64> = vec![1, 2];\n\
                 let mut acc = 0;\n\
                 for c in counts.iter() {\n\
                     acc += c;\n\
                 }\n\
                 acc\n\
             }\n",
        )],
        EntryMode::Roots,
        TAINT_CODE,
        0,
    )?;
    // v3 alias catch: the hash container is renamed through a plain
    // alias before iteration; only value tracking connects the two.
    expect_codes(
        "DL012 hash alias",
        &[(
            "a.rs",
            "use std::collections::HashMap;\n\
             pub fn make_map() -> HashMap<u32, u64> { HashMap::new() }\n\
             pub fn entry() -> Vec<u64> {\n\
                 let m = make_map();\n\
                 let renamed = m;\n\
                 renamed.values().copied().collect()\n\
             }\n",
        )],
        EntryMode::Roots,
        TAINT_CODE,
        1,
    )?;
    // Wall clock two calls deep.
    expect_codes(
        "DL012 wall clock depth 2",
        &[(
            "a.rs",
            "fn leaf() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n\
             fn mid() -> u64 { leaf() }\n\
             pub fn entry() -> u64 { mid() }\n",
        )],
        EntryMode::Roots,
        TAINT_CODE,
        1,
    )?;

    // DL013: unwrap hidden behind a helper in another module.
    expect_codes(
        "DL013 laundering",
        &[
            (
                "tick.rs",
                "pub fn entry() -> u64 { crate::help::first() }\n",
            ),
            (
                "help.rs",
                "pub fn first() -> u64 { parse_row().unwrap() }\n\
                 fn parse_row() -> Option<u64> { None }\n",
            ),
        ],
        EntryMode::Roots,
        PANIC_REACH_CODE,
        1,
    )?;
    // Loop-bounded indexing is the sanctioned shape.
    expect_codes(
        "DL013 loop-bounded index",
        &[(
            "a.rs",
            "pub fn entry(xs: &[u64]) -> u64 {\n\
                 let mut acc = 0;\n\
                 for i in 0..xs.len() {\n\
                     acc += xs[i];\n\
                 }\n\
                 acc\n\
             }\n",
        )],
        EntryMode::Roots,
        PANIC_REACH_CODE,
        0,
    )?;
    // Unbounded indexing is not.
    expect_codes(
        "DL013 raw index",
        &[(
            "a.rs",
            "pub fn entry(xs: &[u64], k: usize) -> u64 { xs[k] }\n",
        )],
        EntryMode::Roots,
        PANIC_REACH_CODE,
        1,
    )?;
    // Variable divisor with a known integer type.
    expect_codes(
        "DL013 divisor",
        &[(
            "a.rs",
            "pub fn entry(total: u64, n: u64) -> u64 { total / n }\n",
        )],
        EntryMode::Roots,
        PANIC_REACH_CODE,
        1,
    )?;
    // Unreachable helpers stay unreported.
    expect_codes(
        "DL013 unreachable",
        &[(
            "a.rs",
            "pub fn entry() -> u64 { 7 }\n\
             pub fn lonely() -> u64 { None::<u64>.unwrap() }\n",
        )],
        EntryMode::Roots,
        PANIC_REACH_CODE,
        1, // `lonely` is itself a root; reachable-from-itself still counts
    )?;

    // DL014: mixing ways with bytes across + is flagged…
    expect_codes(
        "DL014 mixing",
        &[(
            "a.rs",
            "pub fn entry(alloc_ways: u64, slab_bytes: u64) -> u64 { alloc_ways + slab_bytes }\n",
        )],
        EntryMode::Roots,
        UNIT_CODE,
        1,
    )?;
    // …while * stays a conversion.
    expect_codes(
        "DL014 conversion",
        &[(
            "a.rs",
            "pub fn entry(n_ways: u64, way_bytes: u64) -> u64 { n_ways * way_bytes }\n",
        )],
        EntryMode::Roots,
        UNIT_CODE,
        0,
    )?;
    // v3 unit propagation: a suffix-free alias inherits the unit its
    // initializer read, so the mix is still caught one hop later.
    expect_codes(
        "DL014 propagated unit",
        &[(
            "a.rs",
            "pub fn entry(total_ways: u64, slab_bytes: u64) -> u64 {\n\
                 let w = total_ways;\n\
                 w + slab_bytes\n\
             }\n",
        )],
        EntryMode::Roots,
        UNIT_CODE,
        1,
    )?;
    // …but a value that went through a call keeps no unit (the call
    // may convert), and neither does a reassigned binding.
    expect_codes(
        "DL014 propagation stops at calls",
        &[(
            "a.rs",
            "fn scale(v: u64) -> u64 { v * 64 }\n\
             pub fn entry(total_ways: u64, slab_bytes: u64) -> u64 {\n\
                 let w = scale(total_ways);\n\
                 w + slab_bytes\n\
             }\n",
        )],
        EntryMode::Roots,
        UNIT_CODE,
        0,
    )?;
    // Width promise: ways are u32.
    expect_codes(
        "DL014 width",
        &[("a.rs", "pub fn peak_ways() -> u64 { 4 }\n")],
        EntryMode::Roots,
        UNIT_CODE,
        1,
    )?;
    expect_codes(
        "DL014 width ok",
        &[(
            "a.rs",
            "pub fn peak_ways() -> u32 { 4 }\n\
             pub fn capacity_bytes() -> Option<u64> { None }\n",
        )],
        EntryMode::Roots,
        UNIT_CODE,
        0,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        self_test().unwrap();
    }

    #[test]
    fn repo_mode_entry_selection() {
        let ws = fixture_ws(&[
            (
                "crates/dcat/src/controller.rs",
                "pub struct DcatController;\n\
                 impl DcatController {\n\
                     pub fn tick_observed(&mut self) { self.collect(); }\n\
                     fn collect(&mut self) { let t = Instant::now(); let _ = t; }\n\
                 }\n",
            ),
            (
                "crates/dcat/src/daemon.rs",
                "pub fn run_daemon_observed() { helper(); }\n\
                 fn helper() { let x: Option<u64> = None; let _ = x.unwrap(); }\n",
            ),
        ]);
        let mut sink = Sink::default();
        run_all(&ws, EntryMode::Repo, &mut sink);
        let taint: Vec<_> = sink
            .findings
            .iter()
            .filter(|f| f.code == TAINT_CODE)
            .collect();
        assert_eq!(taint.len(), 1, "{:?}", sink.findings);
        assert_eq!(
            taint[0].trace,
            vec![
                "dcat::controller::DcatController::tick_observed".to_string(),
                "dcat::controller::DcatController::collect".to_string(),
            ]
        );
        let panics: Vec<_> = sink
            .findings
            .iter()
            .filter(|f| f.code == PANIC_REACH_CODE)
            .collect();
        assert_eq!(panics.len(), 1, "{:?}", sink.findings);
        assert_eq!(
            panics[0].trace.first().unwrap(),
            "dcat::daemon::run_daemon_observed"
        );
    }

    #[test]
    fn bench_timing_keeps_its_clock() {
        let ws = fixture_ws(&[(
            "crates/bench/src/timing.rs",
            "pub fn now_cycles() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
        )]);
        // Map the dir name to the package ident like check_repo does.
        let sources = vec![(
            "crates/bench/src/timing.rs".to_string(),
            ws.units[0]
                .file
                .lines
                .iter()
                .map(|l| l.raw.clone())
                .collect::<Vec<_>>()
                .join("\n"),
        )];
        let mut idents = TestMap::new();
        idents.insert("bench".to_string(), "dcat_bench".to_string());
        let ws = Workspace::from_sources(&sources, &idents);
        let mut sink = Sink::default();
        run_taint(&ws, EntryMode::Roots, &mut sink);
        assert!(sink.findings.is_empty(), "{:?}", sink.findings);
    }
}
