//! Language models for Ansible Wisdom.
//!
//! Three model families play the roles of the paper's systems:
//!
//! * [`TransformerLm`] — the decoder-only GPT-architecture model standing in
//!   for CodeGen/Wisdom checkpoints, with tape-based training
//!   ([`pretrain`] / [`finetune`]) and KV-cache inference;
//! * [`NgramLm`] — a classical back-off baseline;
//! * [`RetrievalModel`] — the contamination-aware stand-in for
//!   Codex-Davinci-002.
//!
//! All are scored through the common [`TextGenerator`] trait.
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
mod ngram;
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
pub use ngram::{NgramLm, NgramTextGenerator};
pub use prefix_cache::{
    CachedPrefix, PrefixCacheConfig, PrefixCacheStats, PrefixKvCache, PrefixPin,
};
pub use replica::{PoolStats, ReplicaPool};
pub use retrieval::RetrievalModel;
pub use speculative::{
    DraftKind, NgramSpeculator, SelfDraftSpeculator, SpeculativeConfig, SpeculativeDecoder,
    SpeculativeReport, Speculator,
};
pub use telemetry::{
    BatchTelemetry, FinishReason, GrammarTelemetry, PrefixCacheTelemetry, QuantTelemetry,
    ReplicaTelemetry, SpeculativeTelemetry,
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
