//! The lint framework: registry, file contexts, suppression, and the
//! per-file driver.
//!
//! Each lint is a pure scan over the code-token stream (comments are
//! routed to the directive parser instead). Scoping is path-derived — see
//! [`FileContext`] — so the same lint set runs everywhere and each lint
//! decides from the context whether it applies.

mod allocation;
mod ambient_rng;
mod global_alloc_counter;
mod hash_collections;
mod iter_order;
mod stable_sort;
mod vec_growth;
mod wall_clock;

use crate::diagnostics::{Diagnostic, Severity, Suppressed};
use crate::directives::{parse_comment, Directive};
use crate::lexer::{Token, TokenKind};

/// The description of one lint.
#[derive(Debug, Clone, Copy)]
pub struct LintSpec {
    /// The stable `group/name` identifier used in diagnostics and `allow`
    /// directives.
    pub name: &'static str,
    /// The lint's severity.
    pub severity: Severity,
    /// One-line summary shown by `--list-lints`.
    pub summary: &'static str,
}

/// `determinism/hash-collections` — hash-collection types in result-affecting crates.
pub const HASH_COLLECTIONS: LintSpec = LintSpec {
    name: "determinism/hash-collections",
    severity: Severity::Error,
    summary: "std HashMap/HashSet iteration order is nondeterministic; \
              forbidden in result-affecting crates",
};

/// `determinism/wall-clock` — wall-clock reads outside the two sanctioned
/// homes: `crates/bench` and the `obs::timing` module.
pub const WALL_CLOCK: LintSpec = LintSpec {
    name: "determinism/wall-clock",
    severity: Severity::Error,
    summary: "Instant/SystemTime leak wall-clock state into results; \
              only crates/bench and obs::timing may time things",
};

/// `determinism/ambient-rng` — ambient randomness anywhere in the tree.
pub const AMBIENT_RNG: LintSpec = LintSpec {
    name: "determinism/ambient-rng",
    severity: Severity::Error,
    summary: "thread_rng/OsRng/entropy-seeded constructors bypass scenario \
              seeds; forbidden everywhere",
};

/// `hot-path/allocation` — allocating idioms inside `mbaa: alloc-free` regions.
pub const ALLOCATION: LintSpec = LintSpec {
    name: "hot-path/allocation",
    severity: Severity::Error,
    summary: "allocating idioms inside `mbaa: alloc-free` regions break the \
              zero-allocation steady state",
};

/// `hot-path/vec-growth` — unsized container growth inside `mbaa: alloc-free` regions.
pub const VEC_GROWTH: LintSpec = LintSpec {
    name: "hot-path/vec-growth",
    severity: Severity::Error,
    summary: "push/extend growth inside `mbaa: alloc-free` regions can \
              reallocate when the capacity bound breaks; write into \
              pre-sized buffers by index",
};

/// `determinism/iter-order` — `retain`/`dedup` over data not provably
/// sorted in result-affecting crates.
pub const ITER_ORDER: LintSpec = LintSpec {
    name: "determinism/iter-order",
    severity: Severity::Error,
    summary: "retain/dedup depend on the receiver's element order; in \
              result-affecting crates the receiver must be sorted \
              (`recv.sort*()` earlier in the function) or the call waived \
              with a reason",
};

/// `determinism/stable-sort` — stable sorts and non-total float comparators.
pub const STABLE_SORT: LintSpec = LintSpec {
    name: "determinism/stable-sort",
    severity: Severity::Error,
    summary: "stable sort()/sort_by allocate merge buffers and \
              partial_cmp().unwrap() hides non-total float orders; use \
              sort_unstable with a total comparator",
};

/// `determinism/global-alloc-counter` — a process-global atomic `static`
/// beside a `#[global_allocator]`.
pub const GLOBAL_ALLOC_COUNTER: LintSpec = LintSpec {
    name: "determinism/global-alloc-counter",
    severity: Severity::Error,
    summary: "an atomic static in a file that declares #[global_allocator] \
              counts every test thread together; count in a thread_local!",
};

/// `analyzer/bad-directive` — a malformed `mbaa:` comment. A typo in a
/// suppression or marker must not be silently ignored.
pub const BAD_DIRECTIVE: LintSpec = LintSpec {
    name: "analyzer/bad-directive",
    severity: Severity::Error,
    summary: "a comment starts with `mbaa:` but parses as neither \
              allow(lint, reason) nor alloc-free",
};

/// Every lint the analyzer ships, in reporting order.
pub const LINTS: &[LintSpec] = &[
    HASH_COLLECTIONS,
    WALL_CLOCK,
    AMBIENT_RNG,
    ALLOCATION,
    VEC_GROWTH,
    STABLE_SORT,
    ITER_ORDER,
    GLOBAL_ALLOC_COUNTER,
    BAD_DIRECTIVE,
];

/// The registered lint names.
#[must_use]
pub fn lint_names() -> Vec<&'static str> {
    LINTS.iter().map(|l| l.name).collect()
}

/// Resolves a lint name to its canonical `&'static str`, if registered.
#[must_use]
pub fn known_lint(name: &str) -> Option<&'static str> {
    LINTS.iter().find(|l| l.name == name).map(|l| l.name)
}

/// The crates whose output feeds seed-keyed results; `HashMap` iteration
/// or a stable sort anywhere in these can silently change what a run
/// returns. `crates/bench` and `crates/analyze` only observe.
pub const RESULT_AFFECTING_CRATES: &[&str] = &[
    "types",
    "msr",
    "net",
    "adversary",
    "mixed",
    "core",
    "obs",
    "sim",
    "facade",
];

/// Path-derived scoping for one file.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// The display path used in diagnostics.
    pub path: String,
    /// `true` under one of [`RESULT_AFFECTING_CRATES`].
    pub result_affecting: bool,
    /// `true` under `crates/bench` — one of the two wall-clock exemptions.
    pub bench: bool,
    /// `true` for `crates/obs/src/timing.rs` — the *only* result-affecting
    /// module sanctioned to read the wall clock (the observability fence;
    /// see `docs/observability.md`).
    pub obs_timing: bool,
}

impl FileContext {
    /// Derives the context from a path. Matching is by path component, so
    /// both workspace-relative (`crates/msr/src/lib.rs`) and absolute
    /// paths work.
    #[must_use]
    pub fn from_path(path: &str) -> Self {
        let normalized = path.replace('\\', "/");
        let in_crate = |name: &str| normalized.contains(&format!("crates/{name}/"));
        FileContext {
            result_affecting: RESULT_AFFECTING_CRATES.iter().any(|c| in_crate(c)),
            bench: in_crate("bench"),
            obs_timing: in_crate("obs") && normalized.ends_with("src/timing.rs"),
            path: path.to_string(),
        }
    }
}

/// A half-open range of code-token indices opted into `hot-path/allocation`.
#[derive(Debug, Clone, Copy)]
pub struct AllocFreeRegion {
    /// First code-token index inside the region.
    pub start: usize,
    /// One past the last code-token index inside the region.
    pub end: usize,
}

impl AllocFreeRegion {
    /// Whether the code token at `idx` lies inside this region.
    #[must_use]
    pub fn contains(&self, idx: usize) -> bool {
        (self.start..self.end).contains(&idx)
    }
}

/// A raw (pre-suppression) finding: the lint, the offending token, and
/// the message.
pub(crate) struct Finding {
    pub spec: LintSpec,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// Runs every lint over one file's token stream and applies suppressions.
#[must_use]
pub fn analyze_tokens(ctx: &FileContext, tokens: &[Token]) -> (Vec<Diagnostic>, Vec<Suppressed>) {
    // Split the stream: comments feed the directive parser, everything
    // else feeds the lints.
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut findings: Vec<Finding> = Vec::new();
    let mut allows: Vec<(u32, &'static str, String)> = Vec::new();
    let mut regions: Vec<AllocFreeRegion> = Vec::new();

    let mut code_seen = 0usize;
    for token in tokens {
        if !token.is_comment() {
            code_seen += 1;
            continue;
        }
        match parse_comment(token) {
            None => {}
            Some(Err(err)) => findings.push(Finding {
                spec: BAD_DIRECTIVE,
                line: err.line,
                col: err.col,
                message: err.message,
            }),
            Some(Ok(parsed)) => match parsed.directive {
                Directive::Allow { lint, reason } => allows.push((parsed.line, lint, reason)),
                Directive::AllocFree { module_level } => {
                    if module_level {
                        regions.push(AllocFreeRegion {
                            start: 0,
                            end: code.len(),
                        });
                    } else {
                        regions.push(brace_region(&code, code_seen));
                    }
                }
            },
        }
    }

    hash_collections::run(ctx, &code, &mut findings);
    wall_clock::run(ctx, &code, &mut findings);
    ambient_rng::run(ctx, &code, &mut findings);
    allocation::run(ctx, &code, &regions, &mut findings);
    vec_growth::run(ctx, &code, &regions, &mut findings);
    stable_sort::run(ctx, &code, &mut findings);
    iter_order::run(ctx, &code, &mut findings);
    global_alloc_counter::run(ctx, &code, &mut findings);

    // Report in source order regardless of which lint found what.
    findings.sort_by_key(|f| (f.line, f.col));

    let mut diagnostics = Vec::new();
    let mut suppressed = Vec::new();
    for finding in findings {
        // An allow on line L waives findings on L (trailing comment) and
        // L + 1 (comment-above placement).
        let waiver = allows.iter().find(|(line, lint, _)| {
            *lint == finding.spec.name && (*line == finding.line || line + 1 == finding.line)
        });
        match waiver {
            Some((_, lint, reason)) => suppressed.push(Suppressed {
                lint,
                file: ctx.path.clone(),
                line: finding.line,
                col: finding.col,
                reason: reason.clone(),
            }),
            None => diagnostics.push(Diagnostic {
                lint: finding.spec.name,
                severity: finding.spec.severity,
                file: ctx.path.clone(),
                line: finding.line,
                col: finding.col,
                message: finding.message,
            }),
        }
    }
    (diagnostics, suppressed)
}

/// Resolves a function-level `alloc-free` marker to the next balanced
/// `{…}` block at or after code-token index `from` (attributes and the
/// signature in between are skipped by construction: the first `{` after
/// the marker opens the body). A marker with no following brace covers
/// the rest of the file — better to over-lint than to silently drop the
/// region.
fn brace_region(code: &[&Token], from: usize) -> AllocFreeRegion {
    let mut depth = 0usize;
    let mut start = None;
    for (i, token) in code.iter().enumerate().skip(from) {
        if token.is_punct('{') {
            if start.is_none() {
                start = Some(i + 1);
            }
            depth += 1;
        } else if token.is_punct('}') && start.is_some() {
            depth -= 1;
            if depth == 0 {
                return AllocFreeRegion {
                    start: start.expect("set with depth"),
                    end: i,
                };
            }
        }
    }
    AllocFreeRegion {
        start: start.map_or(from, |s| s),
        end: code.len(),
    }
}

// --- shared token-pattern helpers -----------------------------------------

/// Matches `segs[0] :: segs[1] :: …` starting at code index `i`.
pub(crate) fn path_matches(code: &[&Token], i: usize, segs: &[&str]) -> bool {
    let mut idx = i;
    for (k, seg) in segs.iter().enumerate() {
        if k > 0 {
            if !(code.get(idx).is_some_and(|t| t.is_punct(':'))
                && code.get(idx + 1).is_some_and(|t| t.is_punct(':')))
            {
                return false;
            }
            idx += 2;
        }
        if !code.get(idx).is_some_and(|t| t.is_ident(seg)) {
            return false;
        }
        idx += 1;
    }
    true
}

/// Whether the token at `i` is used as a method (preceded by `.`). The
/// call parens are not required so turbofish forms
/// (`.collect::<Vec<_>>()`) still match.
pub(crate) fn preceded_by_dot(code: &[&Token], i: usize) -> bool {
    i > 0 && code[i - 1].is_punct('.')
}

/// Whether the token after `i` opens a call (`(`).
pub(crate) fn followed_by_call(code: &[&Token], i: usize) -> bool {
    code.get(i + 1).is_some_and(|t| t.is_punct('('))
}

/// Whether the token after `i` is a macro bang (`!`).
pub(crate) fn followed_by_bang(code: &[&Token], i: usize) -> bool {
    code.get(i + 1).is_some_and(|t| t.is_punct('!'))
}

/// Skips a balanced `( … )` group starting at `i` (which must be `(`);
/// returns the index one past the closing paren, or `None`.
pub(crate) fn skip_balanced_parens(code: &[&Token], i: usize) -> Option<usize> {
    if !code.get(i)?.is_punct('(') {
        return None;
    }
    let mut depth = 0usize;
    for (k, token) in code.iter().enumerate().skip(i) {
        if token.is_punct('(') {
            depth += 1;
        } else if token.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(k + 1);
            }
        }
    }
    None
}

pub(crate) fn finding(spec: LintSpec, token: &Token, message: String) -> Finding {
    Finding {
        spec,
        line: token.line,
        col: token.col,
        message,
    }
}

/// Convenience for lint scans: `true` when the token is any identifier.
pub(crate) fn is_ident_kind(token: &Token) -> bool {
    token.kind == TokenKind::Ident
}
