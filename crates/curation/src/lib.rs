//! `wisdom-curation` — the streaming corpus-curation pipeline.
//!
//! The paper's headline result rests on data curation: Galaxy, GitHub and
//! GitLab YAML is collected, deduplicated, lint-filtered and standardized
//! before any training happens (Table 1). This crate turns that batch
//! description into a backpressured streaming system the repo can point at
//! millions of documents:
//!
//! ```text
//!   input (borrowed) ──▶ atomic chunk cursor ──▶ parse + lint + score +
//!                        MinHash + band keys + content hash  (N workers)
//!                                        │  one message per chunk
//!                                 [bounded queue]
//!                                        ▼
//!                          curator (chunk order restored):
//!                exact dedup (content-confirmed) ▶ MinHash-LSH
//!                near-dedup ▶ quality floor ▶ deterministic shards
//! ```
//!
//! * **Streaming & backpressured** — workers claim runs of consecutive
//!   documents and hand each run's facts over as one message on a bounded
//!   `crossbeam::channel`; a slow curator throttles the workers instead of
//!   buffering the corpus in memory.
//! * **Deterministic at any worker count** — workers compute only pure
//!   per-document facts; every order-sensitive decision happens on one
//!   curator thread behind a chunk-index reorder buffer, so shard
//!   bytes and the stats manifest are byte-identical for 1, 2 or 16
//!   workers (pinned by `tests/pipeline_determinism.rs`).
//! * **Content-confirmed exact dedup** — a hash selects a bucket, bytes
//!   decide membership ([`ExactDedup`]); no 64-bit collision can silently
//!   drop a distinct document.
//! * **MinHash-LSH near-dedup** — token-shingle MinHash signatures
//!   ([`MinHasher`]) with banded LSH candidate lookup ([`NearDedup`]);
//!   estimator tolerances are pinned by proptests in
//!   `tests/minhash_props.rs`.
//! * **Quality scoring** — parse / strict-schema lint / module awareness
//!   folded into one `[0, 1]` score ([`score_document`]) the pipeline
//!   filters on and histograms into the manifest.
//! * **Instrumented** — optional [`CurationTelemetry`] records per-stage
//!   throughput counters, queue-depth gauges and latency histograms under
//!   the `wisdom_curation_*` metric families.
//!
//! # Examples
//!
//! ```
//! use wisdom_curation::{curate, CurationConfig, DocKind, InputDoc};
//!
//! let docs = vec![
//!     InputDoc {
//!         source: "galaxy".into(),
//!         kind: DocKind::Ansible,
//!         text: "- name: Ping the host\n  ansible.builtin.ping: {}\n".into(),
//!     },
//!     InputDoc {
//!         source: "galaxy".into(),
//!         kind: DocKind::Ansible,
//!         text: "- name: Ping the host\n  ansible.builtin.ping: {}\n".into(),
//!     },
//! ];
//! let report = curate(docs, &CurationConfig::default());
//! assert_eq!(report.kept, 1);
//! assert_eq!(report.exact_dups, 1);
//! ```

mod dedup;
mod pipeline;
mod score;
mod shard;
mod shingle;

pub use dedup::{ExactDedup, NearDedup, NearVerdict};
pub use pipeline::{
    corpus_docs, curate, disk_docs, CurationConfig, CurationReport, CurationTelemetry, DropReason,
    InputDoc, SourceCounts,
};
pub use score::{score_document, DocKind, DocScore};
pub use shard::{unframe, write_shards, Shard, ShardWriter};
pub use shingle::{jaccard, shingle_set, tokenize, MinHasher, Signature};
