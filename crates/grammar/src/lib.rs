//! `wisdom-grammar`: grammar-constrained decoding for Ansible YAML.
//!
//! The paper's Schema Correct and Ansible Aware metrics measure how often a
//! sampled playbook actually satisfies the Ansible schema. This crate closes
//! the loop: instead of scoring violations after the fact, it compiles the
//! play/task grammar plus the per-module parameter schemas (from
//! `wisdom-ansible`'s `module_registry` and `keywords`) into an incremental
//! constraint automaton over BPE tokens, so every *sampled* playbook is
//! lint-clean by construction.
//!
//! Layers:
//!
//! * [`tables`](crate::Constraint) — the schema compiled into candidate
//!   tries and value-shape specs, derived from the same tables the linter
//!   checks against.
//! * `state` — a byte-level automaton whose states are tiny `Copy` values:
//!   a structure stack (document → play → tasks → task → params) plus an
//!   intra-line position, with a *canonical close* function that proves
//!   every reachable state can finish within the token budget.
//! * [`GrammarIndex`] — the automaton projected onto a live tokenizer
//!   vocabulary: each state is walked over the vocabulary once, and the
//!   allowed-token bitmask plus every allowed token's canonical-close
//!   length stay in a two-generation cache, with a forced-token fast path
//!   when only one continuation is legal.
//! * [`GrammarCursor`] — the per-sequence handle decode loops drive:
//!   `apply` masks a logit row (illegal entries to `-inf`, so the existing
//!   argmax/top-k pickers never choose them and constrained greedy decode
//!   is bit-identical to unconstrained whenever the unconstrained argmax is
//!   already legal), `advance` steps past the chosen token (both read the
//!   cached entry of the cursor's state — nothing is walked twice). Cursors of a
//!   *completion-scoped* index ([`GrammarIndex::build_scoped`]) also say
//!   which pick `closes` the task the prompt opened ([`TaskScope`]), so a
//!   decode loop stops where first-task truncation would cut anyway.

mod constraint;
mod index;
mod scope;
mod state;
mod tables;

pub use constraint::Constraint;
pub use index::{GrammarCursor, GrammarIndex, GrammarStats, MaskBuild, MaskOutcome};
pub use scope::TaskScope;
pub use state::ConstraintState;

#[cfg(test)]
mod walk_tests;
