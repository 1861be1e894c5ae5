//! Language models for Ansible Wisdom.
//!
//! Two model families play the roles of the paper's systems, both scored
//! through the common [`TextGenerator`] trait:
//!
//! * [`TransformerLm`] — the decoder-only GPT-architecture model standing in
//!   for CodeGen/Wisdom checkpoints, with tape-based training
//!   ([`pretrain`] / [`finetune`]) and KV-cache inference;
//! * [`RetrievalModel`] — the contamination-aware stand-in for
//!   Codex-Davinci-002.
//!
//! Greedy decoding may speculate ([`SpeculativeConfig`]): each sequence's
//! drafter reads an order-4 n-gram model straight off the tokens the
//! sequence has been shown — its prompt window and its output — and the
//! transformer verifies the drafts in the round's one forward pass.
//!
//! # Examples
//!
//! ```
//! use wisdom_model::{GenerationOptions, ModelConfig, TransformerLm};
//! use wisdom_prng::Prng;
//!
//! let cfg = ModelConfig { vocab_size: 64, d_model: 16, n_layers: 1, n_heads: 2, context_window: 16 };
//! let mut rng = Prng::seed_from_u64(7);
//! let model = TransformerLm::new(cfg, &mut rng);
//! let out = model.generate(&[1, 2, 3], &[0], &GenerationOptions { max_new_tokens: 4, ..Default::default() });
//! assert!(out.len() <= 4);
//! ```

mod batch;
mod checkpoint;
mod config;
mod decode;
mod prefix_cache;
mod replica;
mod retrieval;
mod speculative;
mod telemetry;
mod train;
mod transformer;

pub use batch::{
    generate_batch, BatchConfig, BatchScheduler, DecodeBatch, DecodeRequest, Pending,
    SchedulerStats, StreamingPending, SubmitError,
};
pub use checkpoint::{load_checkpoint, save_checkpoint, LoadCheckpointError};
pub use config::ModelConfig;
pub use decode::{GenerationOptions, LmTextGenerator, Strategy, TextGenerator};
pub use prefix_cache::{PrefixCacheStats, PrefixKvCache};
pub use replica::{PoolStats, ReplicaPool};
pub use retrieval::RetrievalModel;
pub use speculative::SpeculativeConfig;
pub use telemetry::{
    BatchTelemetry, DecodeTelemetry, FinishReason, GrammarTelemetry, PrefixCacheTelemetry,
    QuantTelemetry, SpeculativeTelemetry,
};
// Re-exported so the serving layers (`wisdom-core`, `wisdom-server`) can
// build and attach grammar constraints without a direct `wisdom-grammar`
// dependency.
pub use train::{
    finetune, finetune_with_epochs, pack_documents, pretrain, EpochFn, FinetuneConfig,
    PretrainConfig, ProgressFn, SftSample,
};
pub use transformer::{KvCache, Precision, TransformerLm};
pub use wisdom_grammar::{
    Constraint, GrammarCursor, GrammarIndex, GrammarStats, MaskBuild, MaskOutcome,
};
