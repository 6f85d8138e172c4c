//! `determinism/global-alloc-counter`: a counting global allocator must
//! count per thread.
//!
//! A test binary that declares `#[global_allocator]` to count allocations
//! shares that allocator with every test the harness runs in parallel. A
//! counter kept in a process-global atomic `static` charges one test's
//! allocations to another test's measurement — a flake that shows only
//! under load, as `tests/alloc_regression.rs` once did. In any file that
//! declares a global allocator, this lint flags every `static` whose type
//! names an `Atomic*` type outside a `thread_local!` block; keep the
//! counter in a `thread_local!` `Cell` instead.

use super::{finding, followed_by_bang, is_ident_kind, FileContext, Finding, GLOBAL_ALLOC_COUNTER};
use crate::lexer::Token;

pub(crate) fn run(_ctx: &FileContext, code: &[&Token], out: &mut Vec<Finding>) {
    let declares_allocator = code
        .windows(2)
        .any(|w| w[0].is_punct('[') && w[1].is_ident("global_allocator"));
    if !declares_allocator {
        return;
    }
    let mut i = 0;
    while i < code.len() {
        let token = code[i];
        if token.is_ident("thread_local") && followed_by_bang(code, i) {
            // The statics inside the macro are per thread: skip its body.
            i = skip_group(code, i + 2);
            continue;
        }
        if token.is_ident("static") {
            // `static [mut] NAME: TYPE = …;` — the type ends at `=` or `;`.
            let atomic = code[i + 1..]
                .iter()
                .take_while(|t| !t.is_punct('=') && !t.is_punct(';'))
                .find(|t| is_ident_kind(t) && t.text.starts_with("Atomic"));
            if let Some(ty) = atomic {
                out.push(finding(
                    GLOBAL_ALLOC_COUNTER,
                    token,
                    format!(
                        "a process-global `{}` beside a `#[global_allocator]` counts every \
                         test thread's allocations together; keep the counter in a \
                         `thread_local!`",
                        ty.text
                    ),
                ));
            }
        }
        i += 1;
    }
}

/// The index one past the bracket group that opens at `start`, or `start`
/// itself when no group opens there.
fn skip_group(code: &[&Token], start: usize) -> usize {
    let mut depth = 0usize;
    for (k, token) in code.iter().enumerate().skip(start) {
        if token.is_punct('{') || token.is_punct('(') || token.is_punct('[') {
            depth += 1;
        } else if token.is_punct('}') || token.is_punct(')') || token.is_punct(']') {
            depth = depth.saturating_sub(1);
        }
        if depth == 0 {
            return k + 1;
        }
    }
    code.len()
}
