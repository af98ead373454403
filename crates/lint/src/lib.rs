//! `lcdc-lint` — the workspace invariant checker.
//!
//! The repo's concurrency and protocol invariants (panic-free wire
//! surface, justified atomic orderings, lock discipline, single-homed
//! protocol literals) live in `lint.toml` and are enforced by
//! `cargo run -p lcdc-lint -- --deny`. See `docs/LINTS.md` for the rule
//! catalog and the reasoning behind a lexical (not parsed) checker.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod rules;
pub mod scan;
