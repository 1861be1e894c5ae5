//! Ansible Wisdom — the paper's system as a library.
//!
//! [`Wisdom`] is the end-to-end pipeline: corpus → tokenizer → YAML
//! pre-training → Galaxy fine-tuning → a natural-language→Ansible-YAML
//! completion service with schema feedback, exactly the loop behind the
//! paper's VS Code plugin ("when a user writes the prompt for the task …
//! and hits enter, we invoke the API to carry out the prediction and then
//! take the results and paste it back on the editor").
//!
//! # Examples
//!
//! ```no_run
//! use wisdom_core::{Wisdom, WisdomConfig};
//!
//! let wisdom = Wisdom::train(&WisdomConfig::tiny(), None);
//! let suggestion = wisdom.complete_task("", "install nginx");
//! println!("{}", suggestion.snippet);
//! ```

mod pipeline;
mod service;
mod suggestion;

pub use pipeline::{TrainPhase, Wisdom, WisdomConfig};
pub use service::CompletionRequest;
pub use suggestion::{truncate_first_task, Suggestion};
pub use wisdom_model::{
    BatchConfig, BatchScheduler, BatchTelemetry, Constraint, DecodeRequest, DraftKind,
    GrammarIndex, GrammarStats, GrammarTelemetry, Pending, PoolStats, Precision, PrefixCacheStats,
    PrefixCacheTelemetry, QuantTelemetry, ReplicaPool, ReplicaTelemetry, SchedulerStats,
    SpeculativeConfig, SpeculativeTelemetry, StreamingPending, SubmitError,
};

/// Lints a whole document (playbook or task file, auto-detected) with the
/// strict Schema Correct checker — the service-level entry point used by
/// the REST API's `/v1/lint` endpoint.
///
/// # Examples
///
/// ```
/// let findings = wisdom_core::lint_document("- name: ok\n  ansible.builtin.ping: {}\n");
/// assert!(findings.is_empty());
/// ```
pub fn lint_document(content: &str) -> Vec<wisdom_ansible::Violation> {
    wisdom_ansible::lint_str(content, wisdom_ansible::LintTarget::Auto)
}
