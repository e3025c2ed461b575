//! blaeu-lint: the workspace invariant linter.
//!
//! Mechanizes the ROADMAP's standing invariants as a zero-dependency
//! static-analysis pass: a lightweight Rust tokenizer ([`lexer`]),
//! per-file context extraction ([`source`] — test regions, waivers),
//! ten rules ([`rules`]), and a workspace runner ([`workspace`]).
//!
//! The linter depends on nothing but `std` — it is the tool that
//! polices the dependency graph, so it cannot sit on top of it.

pub mod lexer;
pub mod rules;
pub mod source;
pub mod workspace;

pub use rules::{Finding, Rule};
pub use workspace::{lint_root, LintReport};
