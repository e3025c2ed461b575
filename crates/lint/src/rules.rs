//! The invariant rules. Each rule mechanizes one standing invariant
//! from ROADMAP.md; the README's "Static analysis" section carries the
//! invariant → rule-id mapping. Rules are token-sequence checks over
//! [`SourceFile`]s (plus a few cross-file checks over manifests, the
//! bench baseline, and the CI workflow) — deliberately heuristic where
//! full type information would be needed, with the waiver mechanism as
//! the escape hatch for sanctioned exceptions.

use std::collections::HashMap;

use crate::lexer::{Tok, Token};
use crate::source::{match_brace, SourceFile};

/// Crates whose analysis output feeds the determinism digest.
const DIGEST_CRATES: [&str; 5] = ["store", "stats", "cluster", "tree", "core"];

/// Analysis crates bound by the view discipline (R3). `store` is where
/// `Table` lives, so constructors there may consume tables.
const VIEW_CRATES: [&str; 4] = ["stats", "cluster", "tree", "core"];

/// Serving-path crates bound by panic hygiene (R4).
const PANIC_CRATES: [&str; 2] = ["net", "server"];

/// Every rule the linter enforces. The `stale-waiver` pseudo-rule
/// polices the waivers themselves and cannot be waived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: parallelism primitives only inside `crates/exec`; exactly one
    /// `available_parallelism` call site in the workspace.
    ExecParallelism,
    /// R2: no wall clock, no hash-order iteration in digest crates.
    DigestDeterminism,
    /// R3: analysis crates never take `Table` by value.
    ViewDiscipline,
    /// R4: no `.unwrap()` / `.expect(` / `panic!` on net/server
    /// non-test paths.
    PanicHygiene,
    /// R5: wire schema coherence — every `Command` variant in both
    /// `to_json` and `from_json`, unique `BlaeuError::kind` tags, one
    /// `WIRE_VERSION` declaration.
    WireSchema,
    /// R6: every manifest dependency is a path dep into `crates/` or
    /// `vendor/` (or a workspace inheritance of one).
    VendorDeps,
    /// R7: every `unsafe` is preceded by a `// SAFETY:` comment.
    SafetyComment,
    /// R8: every criterion group is present in the committed bench
    /// baseline and gated by some CI `CRITERION_REQUIRE_GROUPS` list.
    BenchGate,
    /// R9: every `pub fn` / `const` / `static` under `crates/*/src` is
    /// named outside its own file, its crate's tests and `pub use`s.
    DeadPub,
    /// Waiver hygiene: unknown rule, missing reason, or a waiver that
    /// suppresses nothing.
    StaleWaiver,
}

impl Rule {
    /// Stable kebab-case id — what findings print and waivers name.
    pub fn id(self) -> &'static str {
        match self {
            Rule::ExecParallelism => "exec-parallelism",
            Rule::DigestDeterminism => "digest-determinism",
            Rule::ViewDiscipline => "view-discipline",
            Rule::PanicHygiene => "panic-hygiene",
            Rule::WireSchema => "wire-schema",
            Rule::VendorDeps => "vendor-deps",
            Rule::SafetyComment => "safety-comment",
            Rule::BenchGate => "bench-gate",
            Rule::DeadPub => "dead-pub",
            Rule::StaleWaiver => "stale-waiver",
        }
    }

    /// All rules, in report order.
    pub fn all() -> [Rule; 10] {
        [
            Rule::ExecParallelism,
            Rule::DigestDeterminism,
            Rule::ViewDiscipline,
            Rule::PanicHygiene,
            Rule::WireSchema,
            Rule::VendorDeps,
            Rule::SafetyComment,
            Rule::BenchGate,
            Rule::DeadPub,
            Rule::StaleWaiver,
        ]
    }

    /// Parses a rule id as written in a waiver. `stale-waiver` is not
    /// waivable and parses to `None` on purpose.
    pub fn waivable_from_id(id: &str) -> Option<Rule> {
        Rule::all()
            .into_iter()
            .filter(|r| *r != Rule::StaleWaiver)
            .find(|r| r.id() == id)
    }
}

/// One reported violation: `file:line rule-id message`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line (0 for whole-workspace findings).
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

fn finding(file: &str, line: usize, rule: Rule, message: String) -> Finding {
    Finding {
        file: file.to_owned(),
        line,
        rule,
        message,
    }
}

/// True when `tokens[i..]` starts with the given identifier/punct
/// sequence, where each pattern entry is either an identifier name or a
/// single punctuation character.
fn seq_at(tokens: &[Token], i: usize, pattern: &[&str]) -> bool {
    pattern.iter().enumerate().all(|(k, want)| {
        tokens.get(i + k).is_some_and(|t| {
            if want.len() == 1 && !want.chars().next().is_some_and(char::is_alphabetic) {
                t.is_punct(want.chars().next().unwrap_or(' '))
            } else {
                t.is_ident(want)
            }
        })
    })
}

// ---------------------------------------------------------------------
// R1 — executor discipline
// ---------------------------------------------------------------------

/// Per-file half of R1: thread primitives outside `crates/exec`. Test
/// code (integration tests, `#[cfg(test)]`) may orchestrate threads for
/// harness purposes; `available_parallelism` is returned for the
/// workspace-level exactly-one check and flagged here when outside exec
/// (test code included — the thread *budget* has one owner, full stop).
pub fn rule_exec_parallelism(file: &SourceFile, findings: &mut Vec<Finding>) -> Vec<usize> {
    let mut budget_sites = Vec::new();
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if toks[i].is_ident("available_parallelism") {
            budget_sites.push(toks[i].line);
            if file.crate_name != "exec" {
                findings.push(finding(
                    &file.rel_path,
                    toks[i].line,
                    Rule::ExecParallelism,
                    "available_parallelism outside crates/exec — the thread budget has \
                     exactly one owner (blaeu-exec)"
                        .to_owned(),
                ));
            }
            continue;
        }
        if file.crate_name == "exec" {
            continue;
        }
        if seq_at(toks, i, &["thread", ":", ":", "spawn"])
            || seq_at(toks, i, &["thread", ":", ":", "scope"])
            || seq_at(toks, i, &["thread", ":", ":", "Builder"])
        {
            let line = toks[i].line;
            if file.in_test(line) {
                continue;
            }
            let what = toks[i + 3].ident().unwrap_or("spawn");
            findings.push(finding(
                &file.rel_path,
                line,
                Rule::ExecParallelism,
                format!(
                    "thread::{what} outside crates/exec — all parallelism goes through \
                     blaeu-exec (par_map / par_shards / JobPool)"
                ),
            ));
        }
    }
    budget_sites
}

/// Workspace half of R1: exactly one `available_parallelism` call site.
pub fn rule_exec_budget(sites: &[(String, usize)], findings: &mut Vec<Finding>) {
    match sites.len() {
        1 => {}
        0 => findings.push(finding(
            "crates/exec/src/lib.rs",
            0,
            Rule::ExecParallelism,
            "no available_parallelism call site found — blaeu-exec must own the \
             process thread budget in exactly one place"
                .to_owned(),
        )),
        n => {
            for (file, line) in sites {
                findings.push(finding(
                    file,
                    *line,
                    Rule::ExecParallelism,
                    format!(
                        "{n} available_parallelism call sites in the workspace — the \
                         thread budget must have exactly one"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// R2 — determinism discipline in digest crates
// ---------------------------------------------------------------------

/// Methods whose call on a hash collection visits entries in hash
/// order — the nondeterminism the digest gates exist to catch.
const HASH_ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// R2: wall clock and hash-order iteration in digest-bearing crates.
/// Hash-typed names are recognized from `let` bindings and struct
/// fields whose type or initializer mentions `HashMap`/`HashSet` — a
/// heuristic, so `BTreeMap` (deterministic) never binds and a sorted
/// consumption of hash keys takes an explicit waiver stating why it is
/// order-safe.
pub fn rule_digest_determinism(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !DIGEST_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let line = toks[i].line;
        if file.in_test(line) {
            continue;
        }
        if seq_at(toks, i, &["Instant", ":", ":", "now"])
            || seq_at(toks, i, &["SystemTime", ":", ":", "now"])
        {
            let which = toks[i].ident().unwrap_or("clock");
            findings.push(finding(
                &file.rel_path,
                line,
                Rule::DigestDeterminism,
                format!(
                    "{which}::now in a digest-bearing crate — wall clock makes analysis \
                     output time-dependent; timing belongs in the server/bench tiers"
                ),
            ));
        }
    }

    let hash_names = hash_bound_names(toks);
    if hash_names.is_empty() {
        return;
    }
    for i in 0..toks.len() {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        if !hash_names.contains(&name.to_owned()) {
            continue;
        }
        if file.in_test(toks[i].line) {
            continue;
        }
        // Walk the method chain rooted at this identifier and flag the
        // first hash-order iteration hop (covers `m.keys()` as well as
        // `self.sessions.read().keys()`).
        if let Some((line, method)) = chain_iteration(toks, i) {
            findings.push(finding(
                &file.rel_path,
                line,
                Rule::DigestDeterminism,
                format!(
                    "hash-order iteration (.{method}()) over hash collection `{name}` in a \
                     digest-bearing crate — iteration order is nondeterministic; use a \
                     sorted structure or waive with the reason the order cannot leak"
                ),
            ));
        }
        // `for v in &name { … }` / `for v in name { … }`.
        if let Some(line) = for_loop_over(toks, i) {
            findings.push(finding(
                &file.rel_path,
                line,
                Rule::DigestDeterminism,
                format!(
                    "for-loop over hash collection `{name}` in a digest-bearing crate — \
                     iteration order is nondeterministic"
                ),
            ));
        }
    }
}

/// Names bound to `HashMap`/`HashSet` by a `let` (type annotation or
/// initializer) or declared as struct fields of such a type.
fn hash_bound_names(toks: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    let is_hash = |t: &Token| t.is_ident("HashMap") || t.is_ident("HashSet");
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(name) = toks.get(j).and_then(Token::ident) {
                // Scan the statement (to the `;` at relative depth 0).
                let mut depth = 0isize;
                let mut k = j + 1;
                let mut saw_hash = false;
                while k < toks.len() {
                    match &toks[k].tok {
                        Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                        Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                        Tok::Punct(';') if depth <= 0 => break,
                        _ => {
                            if is_hash(&toks[k]) {
                                saw_hash = true;
                            }
                        }
                    }
                    k += 1;
                }
                if saw_hash {
                    names.push(name.to_owned());
                }
            }
        } else if toks[i].is_ident("struct") && toks.get(i + 1).and_then(Token::ident).is_some() {
            // Fields: `name: …HashMap<…>…` up to the field's `,` / `}`.
            if let Some(open) = (i..toks.len().min(i + 40)).find(|&k| toks[k].is_punct('{')) {
                if let Some(close) = match_brace(toks, open) {
                    let mut k = open + 1;
                    while k < close {
                        if toks[k].ident().is_some()
                            && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                            && !toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
                        {
                            let field = toks[k].ident().unwrap_or_default().to_owned();
                            let mut depth = 0isize;
                            let mut m = k + 2;
                            let mut saw_hash = false;
                            while m < close {
                                match &toks[m].tok {
                                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('<') => {
                                        depth += 1
                                    }
                                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('>') => {
                                        depth -= 1
                                    }
                                    Tok::Punct(',') if depth <= 0 => break,
                                    _ => {
                                        if is_hash(&toks[m]) {
                                            saw_hash = true;
                                        }
                                    }
                                }
                                m += 1;
                            }
                            if saw_hash {
                                names.push(field);
                            }
                            k = m;
                        }
                        k += 1;
                    }
                }
            }
        }
        i += 1;
    }
    names.sort();
    names.dedup();
    names
}

/// Walks a method chain starting at identifier index `i`; returns the
/// line and method name of the first hash-order iteration hop, if any.
fn chain_iteration(toks: &[Token], i: usize) -> Option<(usize, String)> {
    let mut j = i + 1;
    for _hop in 0..6 {
        if !toks.get(j).is_some_and(|t| t.is_punct('.')) {
            return None;
        }
        let method = toks.get(j + 1).and_then(Token::ident)?.to_owned();
        let mut k = j + 2;
        // Optional turbofish `::<…>`.
        if toks.get(k).is_some_and(|t| t.is_punct(':'))
            && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(k + 2).is_some_and(|t| t.is_punct('<'))
        {
            let mut angle = 0isize;
            k += 2;
            while k < toks.len() {
                if toks[k].is_punct('<') {
                    angle += 1;
                } else if toks[k].is_punct('>') {
                    angle -= 1;
                    if angle == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
        if !toks.get(k).is_some_and(|t| t.is_punct('(')) {
            return None; // field access, not a call
        }
        if HASH_ITER_METHODS.contains(&method.as_str()) {
            return Some((toks[j + 1].line, method));
        }
        // Skip the argument list and continue down the chain.
        let mut paren = 0isize;
        while k < toks.len() {
            if toks[k].is_punct('(') {
                paren += 1;
            } else if toks[k].is_punct(')') {
                paren -= 1;
                if paren == 0 {
                    break;
                }
            }
            k += 1;
        }
        j = k + 1;
    }
    None
}

/// Detects `for … in [&][mut] name {` where the loop expression is
/// exactly the bound identifier at index `i`.
fn for_loop_over(toks: &[Token], i: usize) -> Option<usize> {
    if !toks.get(i + 1).is_some_and(|t| t.is_punct('{')) {
        return None;
    }
    // Walk backwards over `&`, `mut` to the `in` keyword.
    let mut j = i;
    while j > 0 && (toks[j - 1].is_punct('&') || toks[j - 1].is_ident("mut")) {
        j -= 1;
    }
    (j > 0 && toks[j - 1].is_ident("in")).then(|| toks[i].line)
}

// ---------------------------------------------------------------------
// R3 — view discipline
// ---------------------------------------------------------------------

/// R3: analysis-crate `fn` signatures must not take `Table` by value
/// (`&Table`, `Arc<Table>`, and `&TableView` are all fine — the pattern
/// is a parameter whose type is exactly `Table`).
pub fn rule_view_discipline(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !VIEW_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let toks = &file.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn") {
            // Parameter list: the first `(…)` group after the fn name.
            if let Some(open) = (i + 1..toks.len().min(i + 60)).find(|&k| toks[k].is_punct('(')) {
                let mut depth = 0isize;
                let mut k = open;
                while k < toks.len() {
                    if toks[k].is_punct('(') {
                        depth += 1;
                    } else if toks[k].is_punct(')') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if toks[k].is_punct(':')
                        && toks.get(k + 1).is_some_and(|t| t.is_ident("Table"))
                        && toks
                            .get(k + 2)
                            .is_some_and(|t| t.is_punct(',') || t.is_punct(')'))
                        && !file.in_test(toks[k].line)
                    {
                        findings.push(finding(
                            &file.rel_path,
                            toks[k + 1].line,
                            Rule::ViewDiscipline,
                            "fn parameter takes Table by value in an analysis crate — \
                             analysis code reads &TableView (or is generic over \
                             ColumnRead); materialize only for example rows"
                                .to_owned(),
                        ));
                    }
                    k += 1;
                }
                i = k;
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// R4 — panic hygiene on serving paths
// ---------------------------------------------------------------------

/// R4: `.unwrap()`, `.expect(` and `panic!` are forbidden in net/server
/// non-test code. A panic on the request path is a 422-after-the-fact
/// at best and a wedged worker at worst; return a typed `BlaeuError`
/// instead, or waive with the proof of infallibility.
pub fn rule_panic_hygiene(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !PANIC_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let line = toks[i].line;
        if file.in_test(line) {
            continue;
        }
        let hit = if seq_at(toks, i, &[".", "unwrap", "(", ")"]) {
            Some((toks[i + 1].line, ".unwrap()"))
        } else if seq_at(toks, i, &[".", "expect", "("]) {
            Some((toks[i + 1].line, ".expect(…)"))
        } else if toks[i].is_ident("panic") && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            Some((line, "panic!"))
        } else {
            None
        };
        if let Some((at, what)) = hit {
            findings.push(finding(
                &file.rel_path,
                at,
                Rule::PanicHygiene,
                format!(
                    "{what} on a serving-path crate ({}) — return a typed BlaeuError \
                     instead, or waive with the proof of infallibility",
                    file.crate_name
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// R7 — SAFETY comments
// ---------------------------------------------------------------------

/// How far above an `unsafe` its `// SAFETY:` comment may sit.
const SAFETY_LOOKBACK_LINES: usize = 8;

/// R7: every `unsafe` token needs a `// SAFETY:` comment on its line or
/// within the preceding few lines. Applies everywhere, tests included —
/// a proof obligation does not disappear in test code.
pub fn rule_safety_comment(file: &SourceFile, findings: &mut Vec<Finding>) {
    for t in &file.tokens {
        if !t.is_ident("unsafe") {
            continue;
        }
        let lo = t.line.saturating_sub(SAFETY_LOOKBACK_LINES);
        let covered = file
            .comments
            .iter()
            .any(|c| c.line >= lo && c.line <= t.line && c.text.contains("SAFETY:"));
        if !covered {
            findings.push(finding(
                &file.rel_path,
                t.line,
                Rule::SafetyComment,
                "unsafe without a preceding // SAFETY: comment stating the invariant \
                 that makes it sound"
                    .to_owned(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// R5 — wire-schema coherence (cross-file)
// ---------------------------------------------------------------------

/// R5 over the whole workspace: `Command` round-trip coverage, unique
/// error tags, a single `WIRE_VERSION` declaration.
pub fn rule_wire_schema(files: &[SourceFile], findings: &mut Vec<Finding>) {
    // (a) Command variants vs to_json / from_json. The *wire* Command
    // enum is the one sharing a file with the WIRE_VERSION declaration;
    // other enums named Command (e.g. the REPL's) are out of scope.
    for file in files {
        let declares_wire_version = file.tokens.iter().enumerate().any(|(i, t)| {
            t.is_ident("const")
                && file
                    .tokens
                    .get(i + 1)
                    .is_some_and(|n| n.is_ident("WIRE_VERSION"))
        });
        if !declares_wire_version {
            continue;
        }
        let Some((variants, enum_line)) = enum_variants(&file.tokens, "Command") else {
            continue;
        };
        let to_json = impl_fn_idents(&file.tokens, "Command", "to_json");
        let from_json = impl_fn_idents(&file.tokens, "Command", "from_json");
        match (&to_json, &from_json) {
            (None, _) | (_, None) => {
                let missing = if to_json.is_none() {
                    "to_json"
                } else {
                    "from_json"
                };
                findings.push(finding(
                    &file.rel_path,
                    enum_line,
                    Rule::WireSchema,
                    format!("enum Command has no {missing} in an `impl Command` block"),
                ));
            }
            (Some(ser), Some(de)) => {
                for (variant, line) in &variants {
                    if !ser.contains(variant) {
                        findings.push(finding(
                            &file.rel_path,
                            *line,
                            Rule::WireSchema,
                            format!("Command::{variant} is not covered by to_json"),
                        ));
                    }
                    if !de.contains(variant) {
                        findings.push(finding(
                            &file.rel_path,
                            *line,
                            Rule::WireSchema,
                            format!("Command::{variant} is not covered by from_json"),
                        ));
                    }
                }
            }
        }
    }

    // (b) BlaeuError::kind tags must be unique.
    for file in files {
        let Some(body) = impl_fn_body(&file.tokens, "BlaeuError", "kind") else {
            continue;
        };
        let mut seen: Vec<(&str, usize)> = Vec::new();
        for t in body {
            if let Tok::Str(tag) = &t.tok {
                if let Some(&(_, first)) = seen.iter().find(|(s, _)| s == tag) {
                    findings.push(finding(
                        &file.rel_path,
                        t.line,
                        Rule::WireSchema,
                        format!(
                            "BlaeuError::kind tag {tag:?} reused (first at line {first}) — \
                             wire error codes must map one-to-one onto variants"
                        ),
                    ));
                } else {
                    seen.push((tag, t.line));
                }
            }
        }
    }

    // (c) Exactly one WIRE_VERSION declaration in the workspace.
    let mut decls: Vec<(&str, usize)> = Vec::new();
    for file in files {
        for (i, t) in file.tokens.iter().enumerate() {
            if t.is_ident("const")
                && file
                    .tokens
                    .get(i + 1)
                    .is_some_and(|n| n.is_ident("WIRE_VERSION"))
            {
                decls.push((&file.rel_path, t.line));
            }
        }
    }
    if decls.len() > 1 {
        for (path, line) in &decls {
            findings.push(finding(
                path,
                *line,
                Rule::WireSchema,
                format!(
                    "{} WIRE_VERSION declarations in the workspace — the wire schema \
                     version has exactly one source of truth",
                    decls.len()
                ),
            ));
        }
    }
}

/// Finds `enum <name> { … }`; returns variant names with their lines
/// and the enum's line.
fn enum_variants(toks: &[Token], name: &str) -> Option<(Vec<(String, usize)>, usize)> {
    let at = (0..toks.len())
        .find(|&i| toks[i].is_ident("enum") && toks.get(i + 1).is_some_and(|t| t.is_ident(name)))?;
    let open = (at..toks.len()).find(|&i| toks[i].is_punct('{'))?;
    let close = match_brace(toks, open)?;
    let mut variants = Vec::new();
    let mut depth = 0isize;
    let mut expecting = true; // after `{` or a top-level `,`
    for t in toks.iter().take(close).skip(open + 1) {
        match &t.tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
            Tok::Punct(',') if depth == 0 => expecting = true,
            Tok::Punct('#') => {} // attribute marker; its `[…]` nests
            Tok::Ident(word) if depth == 0 && expecting => {
                if word.chars().next().is_some_and(char::is_uppercase) {
                    variants.push((word.clone(), t.line));
                }
                expecting = false;
            }
            _ => {}
        }
    }
    Some((variants, toks[at].line))
}

/// Identifier set of the body of `fn <fn_name>` inside any
/// `impl <type_name>` block.
fn impl_fn_idents(toks: &[Token], type_name: &str, fn_name: &str) -> Option<Vec<String>> {
    let body = impl_fn_body(toks, type_name, fn_name)?;
    let mut idents: Vec<String> = body
        .iter()
        .filter_map(|t| t.ident().map(str::to_owned))
        .collect();
    idents.sort();
    idents.dedup();
    Some(idents)
}

/// The token slice of `fn <fn_name>`'s body inside `impl <type_name>`.
fn impl_fn_body<'t>(toks: &'t [Token], type_name: &str, fn_name: &str) -> Option<&'t [Token]> {
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("impl")
            && toks.get(i + 1).is_some_and(|t| t.is_ident(type_name))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('{'))
        {
            let open = i + 2;
            let close = match_brace(toks, open)?;
            let mut j = open + 1;
            while j < close {
                if toks[j].is_ident("fn") && toks.get(j + 1).is_some_and(|t| t.is_ident(fn_name)) {
                    let body_open = (j + 2..close).find(|&k| toks[k].is_punct('{'))?;
                    let body_close = match_brace(toks, body_open)?;
                    return Some(&toks[body_open..=body_close]);
                }
                // Skip nested fn bodies so an inner helper named like
                // the target cannot shadow the search order.
                j += 1;
            }
            i = close;
        }
        i += 1;
    }
    None
}

// ---------------------------------------------------------------------
// R9 — dead public API (cross-file)
// ---------------------------------------------------------------------

/// R9: a `pub fn` / `pub const` / `pub static` declared in non-test code
/// under `crates/*/src` must be named by some identifier outside its own
/// file, outside its own crate's test code, and outside `pub use`
/// re-exports. rustc's dead-code lint is off for `pub` items, and the
/// workspace's crate boundaries are internal, so nothing else sees them.
/// The check is name-level: an unrelated item of the same name hides a
/// dead one (a false negative, never a false positive). `refs_only`
/// files (`benchmark/src`) count as references and are never checked.
pub fn rule_dead_pub(files: &[SourceFile], refs_only: &[SourceFile], findings: &mut Vec<Finding>) {
    let all: Vec<&SourceFile> = files.iter().chain(refs_only).collect();
    // name → (file index, in test code) of every use outside `pub use`.
    let mut uses: HashMap<&str, Vec<(usize, bool)>> = HashMap::new();
    for (f, file) in all.iter().enumerate() {
        let mut in_pub_use = false;
        for (i, t) in file.tokens.iter().enumerate() {
            if seq_at(&file.tokens, i, &["pub", "use"]) {
                in_pub_use = true;
            } else if t.is_punct(';') {
                in_pub_use = false;
            } else if let Some(name) = t.ident().filter(|_| !in_pub_use) {
                uses.entry(name)
                    .or_default()
                    .push((f, file.in_test(t.line)));
            }
        }
    }
    for (f, file) in files.iter().enumerate() {
        if !file.rel_path.starts_with("crates/") || !file.rel_path.contains("/src/") {
            continue;
        }
        for (line, name) in pub_items(file) {
            let live = uses.get(name).is_some_and(|us| {
                us.iter()
                    .any(|&(g, test)| g != f && !(test && all[g].crate_name == file.crate_name))
            });
            if !live {
                findings.push(finding(
                    &file.rel_path,
                    line,
                    Rule::DeadPub,
                    format!(
                        "pub item `{name}` is named nowhere outside this file, its crate's \
                         tests and `pub use`s — delete it, make it private, or waive with \
                         the contract it serves"
                    ),
                ));
            }
        }
    }
}

/// `(line, name)` of every non-test `pub [const|async|unsafe|extern ".."]
/// fn NAME`, `pub const NAME:` and `pub static [mut] NAME:` in `file`.
/// `pub(crate)`-style restricted items are not `pub` API.
fn pub_items(file: &SourceFile) -> Vec<(usize, &str)> {
    const MODIFIERS: [&str; 6] = ["const", "async", "unsafe", "extern", "static", "mut"];
    let toks = &file.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("pub") || file.in_test(toks[i].line) {
            continue;
        }
        let mut j = i + 1;
        while toks.get(j).is_some_and(|t| {
            MODIFIERS.iter().any(|m| t.is_ident(m)) || matches!(t.tok, Tok::Str(_))
        }) {
            j += 1;
        }
        let at = if toks.get(j).is_some_and(|t| t.is_ident("fn")) {
            j + 1
        } else if j > i + 1 && toks.get(j + 1).is_some_and(|t| t.is_punct(':')) {
            j
        } else {
            continue;
        };
        if let Some(name) = toks.get(at).and_then(Token::ident) {
            out.push((toks[i].line, name));
        }
    }
    out
}

// ---------------------------------------------------------------------
// R6 — vendor discipline (manifests)
// ---------------------------------------------------------------------

/// A waiver parsed out of a TOML `#` comment (same grammar as Rust).
pub struct TomlCheck {
    /// Findings from this manifest.
    pub findings: Vec<Finding>,
    /// Waivers found in `#` comments.
    pub waivers: Vec<crate::source::Waiver>,
}

/// R6: every dependency in every manifest must resolve into `crates/`
/// or `vendor/` via a `path` key, or inherit such a dep with
/// `workspace = true`. Registry (`version`-only) and `git` deps are
/// violations — the build environment has no crates.io access, and a
/// dep that silently resolves on a developer box would break CI.
pub fn check_manifest(rel_path: &str, text: &str) -> TomlCheck {
    let mut findings = Vec::new();
    let mut waivers = Vec::new();
    let toml_dir = rel_path.rsplit_once('/').map_or("", |(d, _)| d);
    let mut section = String::new();
    // `[dependencies.foo]` subsection bookkeeping: (header line, name,
    // saw a path/workspace key, saw a git/version key).
    let mut pending_sub: Option<(usize, String, bool, bool)> = None;

    let flush_sub = |pending: &mut Option<(usize, String, bool, bool)>,
                     findings: &mut Vec<Finding>| {
        if let Some((line, name, ok, _)) = pending.take() {
            if !ok {
                findings.push(finding(
                    rel_path,
                    line,
                    Rule::VendorDeps,
                    format!(
                        "dependency `{name}` has no path into crates/ or vendor/ \
                             (and is not workspace-inherited)"
                    ),
                ));
            }
        }
    };

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let (code, comment) = split_toml_comment(raw);
        if let Some(text) = comment {
            if let Some((rule, has_reason)) = crate::source::parse_waiver_text(text) {
                let trailing = !code.trim().is_empty();
                waivers.push(crate::source::Waiver {
                    line: lineno,
                    rule,
                    has_reason,
                    target_line: if trailing { lineno } else { lineno + 1 },
                });
            }
        }
        let line = code.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush_sub(&mut pending_sub, &mut findings);
            section = line.trim_matches(['[', ']']).trim().to_owned();
            if let Some(rest) = dep_section_child(&section) {
                pending_sub = Some((lineno, rest.to_owned(), false, false));
            }
            continue;
        }
        if let Some((_, _, saw_ok, _)) = &mut pending_sub {
            // Inside `[dependencies.foo]`: look for path/workspace keys.
            if let Some((key, value)) = line.split_once('=') {
                let key = key.trim();
                let value = value.trim();
                let inherits = key == "workspace" && value.starts_with("true");
                if inherits || (key == "path" && path_is_vendored(toml_dir, value)) {
                    *saw_ok = true;
                } else if key == "git" || key == "version" || key == "registry" {
                    findings.push(finding(
                        rel_path,
                        lineno,
                        Rule::VendorDeps,
                        format!("`{key}` dependency source — only path deps into crates/ or vendor/ are allowed"),
                    ));
                }
            }
            continue;
        }
        if !is_dep_section(&section) {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        // `name.workspace = true` inherits a workspace dep (checked at
        // its declaration site in the root manifest).
        if key.ends_with(".workspace") {
            continue;
        }
        if value.starts_with('{') {
            let inner = value.trim_matches(['{', '}']).trim();
            let mut ok = false;
            let mut bad_key: Option<&str> = None;
            for part in split_inline_table(inner) {
                let Some((k, v)) = part.split_once('=') else {
                    continue;
                };
                let (k, v) = (k.trim(), v.trim());
                match k {
                    "path" if path_is_vendored(toml_dir, v) => ok = true,
                    "path" => bad_key = Some("path (outside crates/ and vendor/)"),
                    "workspace" if v.starts_with("true") => ok = true,
                    "git" => bad_key = Some("git"),
                    "version" | "registry" if bad_key.is_none() => {
                        bad_key = Some("version/registry")
                    }
                    _ => {}
                }
            }
            if !ok {
                findings.push(finding(
                    rel_path,
                    lineno,
                    Rule::VendorDeps,
                    format!(
                        "dependency `{key}` uses a {} source — only path deps into \
                         crates/ or vendor/ are allowed",
                        bad_key.unwrap_or("non-path")
                    ),
                ));
            }
        } else {
            // Bare `name = "1.0"` — a registry dependency.
            findings.push(finding(
                rel_path,
                lineno,
                Rule::VendorDeps,
                format!(
                    "dependency `{key}` is a bare registry version — only path deps \
                     into crates/ or vendor/ are allowed (the container has no \
                     crates.io access)"
                ),
            ));
        }
    }
    flush_sub(&mut pending_sub, &mut findings);
    TomlCheck { findings, waivers }
}

/// True for `[dependencies]`-family section headers (including
/// `workspace.dependencies` and `target.'…'.dependencies`).
fn is_dep_section(section: &str) -> bool {
    section == "dependencies"
        || section == "dev-dependencies"
        || section == "build-dependencies"
        || section.ends_with(".dependencies")
        || section.ends_with(".dev-dependencies")
        || section.ends_with(".build-dependencies")
}

/// For `[dependencies.foo]`-style headers, the dependency name.
fn dep_section_child(section: &str) -> Option<&str> {
    for family in ["dependencies.", "dev-dependencies.", "build-dependencies."] {
        if let Some(rest) = section.strip_prefix(family) {
            return Some(rest);
        }
    }
    None
}

/// Splits a TOML line into code and an optional `#` comment, honoring
/// quoted strings.
fn split_toml_comment(line: &str) -> (&str, Option<&str>) {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return (&line[..i], Some(&line[i + 1..])),
            _ => {}
        }
    }
    (line, None)
}

/// Splits an inline-table body on commas outside quotes.
fn split_inline_table(inner: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    for (i, c) in inner.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&inner[start..]);
    parts
}

/// Resolves a quoted relative `path` value against the manifest's
/// directory and decides whether it lands inside `crates/` or
/// `vendor/` (or is the workspace root itself, for the facade crate).
fn path_is_vendored(toml_dir: &str, quoted: &str) -> bool {
    let path = quoted.trim().trim_matches('"');
    let mut parts: Vec<&str> = toml_dir.split('/').filter(|s| !s.is_empty()).collect();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                if parts.pop().is_none() {
                    return false; // escapes the workspace
                }
            }
            other => parts.push(other),
        }
    }
    matches!(parts.first(), Some(&"crates") | Some(&"vendor"))
}

// ---------------------------------------------------------------------
// R8 — bench-gate coverage (cross-file)
// ---------------------------------------------------------------------

/// R8: every criterion group defined under `crates/bench/benches` must
/// have entries in `.github/bench-baseline.json` and be pinned by a
/// `CRITERION_REQUIRE_GROUPS` list in the CI workflow — otherwise its
/// regression gate silently does not exist. The inverse also holds:
/// a CI-required group with no defining bench is a typo that would fail
/// every run of its step.
pub fn rule_bench_gate(
    files: &[SourceFile],
    baseline_json: Option<&str>,
    ci_workflows: &[(String, String)],
    findings: &mut Vec<Finding>,
) {
    let mut groups: Vec<(String, String, usize)> = Vec::new(); // (group, file, line)
    for file in files {
        if !file.rel_path.contains("/benches/") {
            continue;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            let is_group_call = toks[i].is_ident("benchmark_group");
            // Top-level ids are registered on the `Criterion` handle,
            // conventionally named `c`; `group.bench_function` ids are
            // nested under an already-collected group.
            let is_toplevel_fn = toks[i].is_ident("bench_function")
                && i >= 2
                && toks[i - 1].is_punct('.')
                && toks[i - 2].is_ident("c");
            if !(is_group_call || is_toplevel_fn) {
                continue;
            }
            let Some(Tok::Str(id)) = toks
                .get(i + 1)
                .filter(|t| t.is_punct('('))
                .and_then(|_| toks.get(i + 2))
                .map(|t| &t.tok)
            else {
                continue;
            };
            let group = id.split('/').next().unwrap_or(id).to_owned();
            if !groups.iter().any(|(g, _, _)| *g == group) {
                groups.push((group, file.rel_path.clone(), toks[i].line));
            }
        }
    }

    let baseline_groups: Vec<String> = baseline_json
        .map(|text| {
            let mut gs: Vec<String> = json_object_keys(text)
                .iter()
                .map(|k| k.split('/').next().unwrap_or(k).to_owned())
                .collect();
            gs.sort();
            gs.dedup();
            gs
        })
        .unwrap_or_default();

    // (group, workflow file, line) for every REQUIRE_GROUPS entry.
    let mut required: Vec<(String, String, usize)> = Vec::new();
    for (wf_path, wf_text) in ci_workflows {
        for (idx, line) in wf_text.lines().enumerate() {
            let Some(at) = line.find("CRITERION_REQUIRE_GROUPS") else {
                continue;
            };
            let Some(rest) = line[at..].split_once(':').map(|(_, r)| r) else {
                continue;
            };
            let spec = rest.trim().trim_matches(['"', '\'']);
            for entry in spec.split([',', ';']) {
                let entry = entry.trim();
                if !entry.is_empty() {
                    required.push((entry.to_owned(), wf_path.clone(), idx + 1));
                }
            }
        }
    }

    for (group, file, line) in &groups {
        if baseline_json.is_some() && !baseline_groups.contains(group) {
            findings.push(finding(
                file,
                *line,
                Rule::BenchGate,
                format!(
                    "criterion group `{group}` has no entries in \
                     .github/bench-baseline.json — its regression gate does not exist"
                ),
            ));
        }
        if !ci_workflows.is_empty() && !required.iter().any(|(g, _, _)| g == group) {
            findings.push(finding(
                file,
                *line,
                Rule::BenchGate,
                format!(
                    "criterion group `{group}` is in no CI CRITERION_REQUIRE_GROUPS \
                     list — a rename or deletion would silently skip its gate"
                ),
            ));
        }
    }
    for (group, wf_path, line) in &required {
        if !groups.iter().any(|(g, _, _)| g == group) {
            findings.push(finding(
                wf_path,
                *line,
                Rule::BenchGate,
                format!(
                    "CI requires criterion group `{group}` but no bench under \
                     crates/bench/benches defines it"
                ),
            ));
        }
    }
}

/// Top-level keys of a JSON object, by a tiny depth-tracking scan.
fn json_object_keys(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut keys = Vec::new();
    let mut depth = 0isize;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            b'"' => {
                let start = i + 1;
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                let end = i;
                // A key is a string at depth 1 followed by `:`.
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j] == b' ' || bytes[j] == b'\n') {
                    j += 1;
                }
                if depth == 1 && bytes.get(j) == Some(&b':') {
                    if let Ok(key) = std::str::from_utf8(&bytes[start..end]) {
                        keys.push(key.to_owned());
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `dead-pub` findings (`file:line`) over linted and reference-only
    /// sources.
    fn dead_pub(files: &[(&str, &str)], refs_only: &[(&str, &str)]) -> Vec<String> {
        let parse = |set: &[(&str, &str)]| -> Vec<SourceFile> {
            set.iter().map(|(p, s)| SourceFile::parse(p, s)).collect()
        };
        let mut findings = Vec::new();
        rule_dead_pub(&parse(files), &parse(refs_only), &mut findings);
        findings
            .iter()
            .map(|f| format!("{}:{}", f.file, f.line))
            .collect()
    }

    const DEF: (&str, &str) = ("crates/a/src/lib.rs", "pub fn f() {}\nfn g() { f(); }\n");

    #[test]
    fn dead_pub_ignores_own_file_reexports_and_own_crate_tests() {
        for user in [
            ("src/lib.rs", "pub use a::{f, g};"),
            (
                "crates/a/src/x.rs",
                "#[cfg(test)]\nmod t { fn t() { f(); } }",
            ),
            ("crates/a/tests/it.rs", "fn t() { a::f(); }"),
        ] {
            assert_eq!(
                dead_pub(&[DEF, user], &[]),
                ["crates/a/src/lib.rs:1"],
                "{user:?}"
            );
        }
    }

    #[test]
    fn dead_pub_counts_root_tests_other_crates_tests_and_benchmark() {
        for user in [
            ("tests/it.rs", "fn t() { a::f(); }"),
            (
                "crates/b/src/lib.rs",
                "#[cfg(test)]\nmod t { fn t() { a::f(); } }",
            ),
        ] {
            assert!(dead_pub(&[DEF, user], &[]).is_empty(), "{user:?}");
        }
        let bench = ("benchmark/src/main.rs", "pub fn main() { a::f(); }");
        assert!(dead_pub(&[DEF], &[bench]).is_empty());
    }

    #[test]
    fn dead_pub_checks_only_non_test_unrestricted_items() {
        let src = "pub(crate) fn a() {}\n#[cfg(test)]\nmod t { pub fn b() {} }\n\
                   pub const fn c() {}\npub static mut D: u8 = 0;\npub struct E { pub e: u8 }\n";
        assert_eq!(
            dead_pub(&[("crates/a/src/lib.rs", src)], &[]),
            ["crates/a/src/lib.rs:4", "crates/a/src/lib.rs:5"]
        );
    }
}
