//! `simlint`: the repo's determinism-and-persistency contract, enforced.
//!
//! Every guarantee the simulator sells — bit-exact checkpoint/restore,
//! byte-identical metrics across kill/resume, seeded crash-state
//! exploration — rests on the simulation being a pure function of its
//! inputs. Nothing about Rust enforces that: `std::collections::HashMap`
//! iterates in a *per-process* random order (SipHash keys are re-drawn at
//! startup), `Instant`/`SystemTime` read wall clocks, `unwrap()` turns
//! recoverable conditions into aborts. This crate makes the contract
//! mechanical, in two halves:
//!
//! - **Static** ([`engine`], [`rules`], [`lexer`]): a dependency-free
//!   Rust lexer strips comments and strings, then token-level rule
//!   engines walk every workspace crate. Violations in the *sim-state
//!   crates* (`core`, `dimm`, `media`, `memctl`, `cache`, `datastores`)
//!   fail the build. Deliberate exceptions carry a
//!   `// simlint::allow(rule, reason)` annotation; an annotation without
//!   a reason is itself a violation.
//! - **Dynamic** ([`witness`]): the divergence witness runs an experiment
//!   twice in separate processes (fresh SipHash keys, fresh address-space
//!   layout) with the same seed, streaming a running FNV hash of the
//!   TraceSink op stream, sampler rows, checkpoint bytes, and result
//!   tables. On mismatch it bisects to the first divergent op index by
//!   re-running the children with prefix-hash limits, and renders a
//!   two-sided diff of the ops around the divergence point.
//!
//! The static gate proves the *code* cannot depend on unordered state;
//! the witness proves the *runs* actually agree. Each covers the other's
//! blind spots: the lint catches hazards the witness's workloads never
//! reach, the witness catches nondeterminism sources no lexical rule
//! names. See DESIGN.md, "Determinism contract", for the rule list.

#![forbid(unsafe_code)]

pub mod engine;
pub mod lexer;
pub mod rules;
pub mod witness;

pub use engine::{lint_source, lint_workspace, FileClass, LintReport};
pub use rules::{Rule, Violation};
pub use witness::{
    fnv1a, fnv1a_bytes, ChildReport, DivergenceOutcome, OpStreamHasher, SharedHasher,
};
