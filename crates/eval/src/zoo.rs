//! The model zoo: Table 2's model ↔ pre-training-dataset matrix, built and
//! cached on demand.

use std::collections::HashMap;
use std::sync::Arc;

use wisdom_corpus::{Corpus, PromptStyle, SplitSamples};
use wisdom_model::{
    finetune_with_epochs, pack_documents, pretrain, FinetuneConfig, LmTextGenerator, ModelConfig,
    PretrainConfig, ProgressFn, RetrievalModel, SftSample, TransformerLm,
};
use wisdom_prng::Prng;
use wisdom_tokenizer::BpeTokenizer;

use crate::profile::Profile;

/// Scaled stand-ins for the paper's parameter counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// CodeGen 350M (the production choice).
    S350m,
    /// CodeGen 2.7B.
    S2_7b,
    /// CodeGen 6B.
    S6b,
}

impl SizeClass {
    /// Display label matching the paper's Size column.
    pub fn label(&self) -> &'static str {
        match self {
            SizeClass::S350m => "350M",
            SizeClass::S2_7b => "2.7B",
            SizeClass::S6b => "6B",
        }
    }

    /// The architecture for this class.
    pub fn config(&self, vocab_size: usize, context_window: usize) -> ModelConfig {
        match self {
            SizeClass::S350m => ModelConfig::size_350m(vocab_size, context_window),
            SizeClass::S2_7b => ModelConfig::size_2_7b(vocab_size, context_window),
            SizeClass::S6b => ModelConfig::size_6b(vocab_size, context_window),
        }
    }
}

/// Which pre-training pools a model sees (the checkmarks of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PoolSelection {
    /// The Pile (NL + a little YAML).
    pub pile: bool,
    /// BigQuery multi-language code.
    pub bigquery: bool,
    /// BigPython.
    pub bigpython: bool,
    /// Ansible YAML (this work).
    pub ansible: bool,
    /// Generic YAML (this work).
    pub generic: bool,
}

/// One row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZooModelSpec {
    /// Model name as printed in the tables.
    pub name: &'static str,
    /// Parameter-count class.
    pub size: SizeClass,
    /// Pre-training data.
    pub pools: PoolSelection,
    /// Whether pre-training continues from the CodeGen-Multi checkpoint
    /// (the Wisdom-*-Multi models) rather than from scratch.
    pub from_multi_checkpoint: bool,
    /// Paper-scale context window used at few-shot inference.
    pub fewshot_ctx: usize,
}

const PILE: PoolSelection = PoolSelection {
    pile: true,
    bigquery: false,
    bigpython: false,
    ansible: false,
    generic: false,
};
const PILE_BQ: PoolSelection = PoolSelection {
    pile: true,
    bigquery: true,
    bigpython: false,
    ansible: false,
    generic: false,
};
const PILE_BQ_PY: PoolSelection = PoolSelection {
    pile: true,
    bigquery: true,
    bigpython: true,
    ansible: false,
    generic: false,
};
const ANSIBLE: PoolSelection = PoolSelection {
    pile: false,
    bigquery: false,
    bigpython: false,
    ansible: true,
    generic: false,
};
const ANSIBLE_GENERIC: PoolSelection = PoolSelection {
    pile: false,
    bigquery: false,
    bigpython: false,
    ansible: true,
    generic: true,
};

/// Table 2: every pre-trained model of the paper.
pub static TABLE2: &[ZooModelSpec] = &[
    ZooModelSpec {
        name: "CodeGen-NL",
        size: SizeClass::S350m,
        pools: PILE,
        from_multi_checkpoint: false,
        fewshot_ctx: 2048,
    },
    ZooModelSpec {
        name: "CodeGen-Mono",
        size: SizeClass::S350m,
        pools: PILE_BQ_PY,
        from_multi_checkpoint: false,
        fewshot_ctx: 2048,
    },
    ZooModelSpec {
        name: "CodeGen-Multi",
        size: SizeClass::S350m,
        pools: PILE_BQ,
        from_multi_checkpoint: false,
        fewshot_ctx: 2048,
    },
    ZooModelSpec {
        name: "CodeGen-Multi",
        size: SizeClass::S2_7b,
        pools: PILE_BQ,
        from_multi_checkpoint: false,
        fewshot_ctx: 2048,
    },
    ZooModelSpec {
        name: "CodeGen-Multi",
        size: SizeClass::S6b,
        pools: PILE_BQ,
        from_multi_checkpoint: false,
        fewshot_ctx: 2048,
    },
    ZooModelSpec {
        name: "Wisdom-Ansible",
        size: SizeClass::S350m,
        pools: ANSIBLE,
        from_multi_checkpoint: false,
        fewshot_ctx: 1024,
    },
    ZooModelSpec {
        name: "Wisdom-Yaml",
        size: SizeClass::S350m,
        pools: ANSIBLE_GENERIC,
        from_multi_checkpoint: false,
        fewshot_ctx: 1024,
    },
    ZooModelSpec {
        name: "Wisdom-Ansible-Multi",
        size: SizeClass::S350m,
        pools: ANSIBLE,
        from_multi_checkpoint: true,
        fewshot_ctx: 1024,
    },
    ZooModelSpec {
        name: "Wisdom-Yaml-Multi",
        size: SizeClass::S350m,
        pools: ANSIBLE_GENERIC,
        from_multi_checkpoint: true,
        fewshot_ctx: 1024,
    },
];

/// Finds a Table 2 spec by name and size.
pub fn spec(name: &str, size: SizeClass) -> Option<&'static ZooModelSpec> {
    TABLE2.iter().find(|s| s.name == name && s.size == size)
}

/// The model zoo: corpus, splits, shared tokenizer, and a cache of
/// pre-trained checkpoints.
pub struct Zoo {
    /// The active profile.
    pub profile: Profile,
    /// The assembled corpus (Table 1).
    pub corpus: Corpus,
    /// Galaxy fine-tuning samples (80/10/10).
    pub split: SplitSamples,
    /// The shared BPE tokenizer (the paper reuses the CodeGen tokenizer for
    /// all models).
    pub tokenizer: Arc<BpeTokenizer>,
    pretrained: HashMap<String, TransformerLm>,
    encoded_pools: HashMap<&'static str, Vec<Vec<u32>>>,
}

impl Zoo {
    /// Builds corpus, splits and tokenizer for a profile. Models are
    /// pre-trained lazily by [`Zoo::pretrained`].
    pub fn build(profile: Profile) -> Zoo {
        let corpus = Corpus::build(&profile.corpus_spec());
        let split = SplitSamples::build(&corpus.galaxy, profile.seed);
        // Tokenizer training sees a slice of every pool, mirroring the reuse
        // of one tokenizer across all models.
        let mut tok_texts: Vec<&str> = Vec::new();
        for s in corpus.pile.iter().take(200) {
            tok_texts.push(s);
        }
        for s in corpus.bigquery.iter().take(150) {
            tok_texts.push(s);
        }
        for s in corpus.bigpython.iter().take(100) {
            tok_texts.push(s);
        }
        for s in corpus.galaxy.iter().take(200) {
            tok_texts.push(s);
        }
        for s in corpus.github_ansible.iter().take(200) {
            tok_texts.push(s);
        }
        for s in corpus.generic.iter().take(150) {
            tok_texts.push(s);
        }
        let tokenizer = Arc::new(BpeTokenizer::train(
            tok_texts.iter().copied(),
            profile.vocab_size,
        ));
        Zoo {
            profile,
            corpus,
            split,
            tokenizer,
            pretrained: HashMap::new(),
            encoded_pools: HashMap::new(),
        }
    }

    fn encoded_pool(&mut self, key: &'static str) -> &Vec<Vec<u32>> {
        if !self.encoded_pools.contains_key(key) {
            let docs: Vec<&String> = match key {
                "pile" => self.corpus.pile.iter().collect(),
                "bigquery" => self.corpus.bigquery.iter().collect(),
                "bigpython" => self.corpus.bigpython.iter().collect(),
                "ansible" => self
                    .corpus
                    .gitlab
                    .iter()
                    .chain(self.corpus.github_ansible.iter())
                    .collect(),
                "generic" => self.corpus.generic.iter().collect(),
                other => panic!("unknown pool {other}"),
            };
            let encoded: Vec<Vec<u32>> = docs.iter().map(|d| self.tokenizer.encode(d)).collect();
            self.encoded_pools.insert(key, encoded);
        }
        &self.encoded_pools[key]
    }

    /// The packed pre-training stream for a pool selection.
    pub fn stream_for(&mut self, pools: PoolSelection) -> Vec<u32> {
        let sep = self.tokenizer.sep();
        let mut docs: Vec<Vec<u32>> = Vec::new();
        if pools.pile {
            docs.extend(self.encoded_pool("pile").iter().cloned());
        }
        if pools.bigquery {
            docs.extend(self.encoded_pool("bigquery").iter().cloned());
        }
        if pools.bigpython {
            docs.extend(self.encoded_pool("bigpython").iter().cloned());
        }
        if pools.ansible {
            docs.extend(self.encoded_pool("ansible").iter().cloned());
        }
        if pools.generic {
            docs.extend(self.encoded_pool("generic").iter().cloned());
        }
        // Shuffle document order deterministically so pools interleave.
        let mut rng = Prng::seed_from_u64(self.profile.seed ^ 0x9a37);
        rng.shuffle(&mut docs);
        pack_documents(&docs, sep)
    }

    fn cache_key(spec: &ZooModelSpec) -> String {
        format!("{}-{}", spec.name, spec.size.label())
    }

    /// Returns the pre-trained checkpoint for a Table 2 row, training it on
    /// first use (cached afterwards). `progress` receives
    /// `(step, total, loss)` during training.
    pub fn pretrained(
        &mut self,
        spec: &ZooModelSpec,
        mut progress: Option<ProgressFn<'_>>,
    ) -> TransformerLm {
        let key = Self::cache_key(spec);
        if let Some(m) = self.pretrained.get(&key) {
            return m.clone();
        }
        // Local forwarder sidesteps `&mut dyn` invariance so the callback
        // can be handed to both the recursive base build and `pretrain`.
        let mut forward = |step: usize, total: usize, loss: f32| {
            if let Some(cb) = progress.as_deref_mut() {
                cb(step, total, loss);
            }
        };
        let ctx = self.profile.ctx(spec.fewshot_ctx);
        let mut rng = Prng::seed_from_u64(self.profile.seed ^ hash_name(&key));
        let mut model = if spec.from_multi_checkpoint {
            // Continue from the CodeGen-Multi checkpoint of the same size.
            let base_spec = *crate::zoo::spec("CodeGen-Multi", spec.size)
                .expect("CodeGen-Multi exists at every size");
            let mut base = self.pretrained(&base_spec, Some(&mut forward));
            base.resize_context(ctx, &mut rng);
            base
        } else {
            TransformerLm::new(spec.size.config(self.tokenizer.vocab_size(), ctx), &mut rng)
        };
        let stream = self.stream_for(spec.pools);
        let cfg = PretrainConfig {
            epochs: self.profile.pretrain_epochs,
            batch_size: self.profile.pretrain_batch,
            lr: self.profile.pretrain_lr,
            max_grad_norm: 1.0,
            seed: self.profile.seed ^ hash_name(&key),
        };
        pretrain(&mut model, &stream, &cfg, Some(&mut forward));
        self.pretrained.insert(key, model.clone());
        model
    }

    /// Wraps a pre-trained checkpoint as a text generator under its table
    /// display name.
    pub fn fewshot_generator(
        &mut self,
        spec: &ZooModelSpec,
        progress: Option<ProgressFn<'_>>,
    ) -> LmTextGenerator {
        let model = self.pretrained(spec, progress);
        LmTextGenerator::new(
            format!("{} {}", spec.name, spec.size.label()),
            model,
            Arc::clone(&self.tokenizer),
        )
    }

    /// The Codex-Davinci-002 stand-in: retrieval over a pool that includes
    /// crawled Ansible *and roughly half of the Galaxy files* — the
    /// deliberate contamination that reproduces Codex's outlier few-shot
    /// Exact Match ("Codex likely saw large portions of our Galaxy
    /// dataset").
    pub fn codex(&self) -> RetrievalModel {
        let galaxy_leak = self
            .corpus
            .galaxy
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(_, f)| f.as_str());
        let docs: Vec<&str> = self
            .corpus
            .github_ansible
            .iter()
            .map(String::as_str)
            .chain(self.corpus.gitlab.iter().map(String::as_str))
            .chain(galaxy_leak)
            .collect();
        RetrievalModel::build("Codex-Davinci-002", docs)
    }

    /// Number of checkpoints currently cached.
    pub fn cached_models(&self) -> usize {
        self.pretrained.len()
    }

    /// Encodes a fine-tuning sample under a prompt style.
    pub fn encode_sft(&self, sample: &wisdom_corpus::Sample, style: PromptStyle) -> SftSample {
        SftSample {
            prompt: self.tokenizer.encode(&sample.prompt_text(style)),
            completion: self.tokenizer.encode(&sample.expected),
        }
    }

    /// Returns the fine-tuned checkpoint for `(base model, context window,
    /// prompt style, data fraction)`, training it on first use.
    ///
    /// Follows the paper's recipe: resize the context window, fine-tune on
    /// the Galaxy training samples with a cosine schedule, and keep the
    /// epoch checkpoint with the best validation BLEU.
    pub fn finetuned(
        &mut self,
        base: &ZooModelSpec,
        ft_ctx_paper: usize,
        style: PromptStyle,
        data_fraction: f64,
        mut progress: Option<ProgressFn<'_>>,
    ) -> TransformerLm {
        let key = format!(
            "{}-{}-ctx{}-{:?}-{:.2}",
            base.name,
            base.size.label(),
            ft_ctx_paper,
            style,
            data_fraction
        );
        if let Some(m) = self.pretrained.get(&key) {
            return m.clone();
        }
        let mut forward = |step: usize, total: usize, loss: f32| {
            if let Some(cb) = progress.as_deref_mut() {
                cb(step, total, loss);
            }
        };
        let ctx = self.profile.ctx(ft_ctx_paper);
        let mut rng = Prng::seed_from_u64(self.profile.seed ^ hash_name(&key));
        let mut model = self.pretrained(base, Some(&mut forward));
        model.resize_context(ctx, &mut rng);

        // Data fraction (the Table 4 ablation rows -50 / -20 / -10).
        let mut train_idx: Vec<usize> = (0..self.split.train.len()).collect();
        rng.shuffle(&mut train_idx);
        let keep = ((self.split.train.len() as f64) * data_fraction).round() as usize;
        train_idx.truncate(keep.max(1));
        let sft: Vec<SftSample> = train_idx
            .iter()
            .map(|&i| self.encode_sft(&self.split.train[i], style))
            .collect();

        // Validation subset for checkpoint selection by BLEU.
        let val: Vec<wisdom_corpus::Sample> = self.split.valid.iter().take(12).cloned().collect();
        let tokenizer = Arc::clone(&self.tokenizer);
        let max_new = self.profile.max_new_tokens;
        let mut best: Option<(f64, TransformerLm)> = None;
        let mut on_epoch = |_epoch: usize, m: &TransformerLm| {
            let bleu = validation_bleu(m, &tokenizer, &val, style, max_new);
            if best.as_ref().map(|(b, _)| bleu > *b).unwrap_or(true) {
                best = Some((bleu, m.clone()));
            }
        };
        let cfg = FinetuneConfig {
            epochs: self.profile.finetune_epochs,
            batch_size: self.profile.finetune_batch,
            lr: self.profile.finetune_lr,
            max_grad_norm: 1.0,
            seed: self.profile.seed ^ hash_name(&key),
        };
        finetune_with_epochs(
            &mut model,
            &sft,
            self.tokenizer.eot(),
            self.tokenizer.pad(),
            &cfg,
            Some(&mut forward),
            Some(&mut on_epoch),
        );
        let model = best.map(|(_, m)| m).unwrap_or(model);
        self.pretrained.insert(key, model.clone());
        model
    }

    /// Wraps a fine-tuned checkpoint as a named text generator.
    #[allow(clippy::too_many_arguments)]
    pub fn finetuned_generator(
        &mut self,
        label: &str,
        base: &ZooModelSpec,
        ft_ctx_paper: usize,
        style: PromptStyle,
        data_fraction: f64,
        progress: Option<ProgressFn<'_>>,
    ) -> LmTextGenerator {
        let model = self.finetuned(base, ft_ctx_paper, style, data_fraction, progress);
        LmTextGenerator::new(label, model, Arc::clone(&self.tokenizer))
    }
}

/// Mean sentence BLEU of greedy completions over validation samples.
fn validation_bleu(
    model: &TransformerLm,
    tokenizer: &Arc<BpeTokenizer>,
    val: &[wisdom_corpus::Sample],
    style: PromptStyle,
    max_new: usize,
) -> f64 {
    use wisdom_model::TextGenerator;
    if val.is_empty() {
        return 0.0;
    }
    let lm = LmTextGenerator::new("val", model.clone(), Arc::clone(tokenizer));
    let opts = wisdom_model::GenerationOptions {
        max_new_tokens: max_new,
        ..Default::default()
    };
    let mut total = 0.0;
    for s in val {
        let raw = lm.complete(&s.prompt_text(style), &opts);
        let processed = crate::runner::postprocess(s, &raw);
        total += wisdom_metrics::sentence_bleu(&s.expected, &processed);
    }
    total / val.len() as f64
}

fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper_matrix() {
        assert_eq!(TABLE2.len(), 9);
        let nl = spec("CodeGen-NL", SizeClass::S350m).unwrap();
        assert!(nl.pools.pile && !nl.pools.bigquery && !nl.pools.ansible);
        let mono = spec("CodeGen-Mono", SizeClass::S350m).unwrap();
        assert!(mono.pools.bigpython);
        let wam = spec("Wisdom-Ansible-Multi", SizeClass::S350m).unwrap();
        assert!(wam.from_multi_checkpoint && wam.pools.ansible && !wam.pools.generic);
        let wym = spec("Wisdom-Yaml-Multi", SizeClass::S350m).unwrap();
        assert!(wym.pools.generic);
        assert!(spec("CodeGen-Multi", SizeClass::S6b).is_some());
        assert!(spec("CodeGen-NL", SizeClass::S6b).is_none());
    }

    #[test]
    fn zoo_builds_and_pretrains_tiny_model() {
        let mut zoo = Zoo::build(Profile::test());
        assert!(!zoo.split.train.is_empty());
        let s = spec("Wisdom-Ansible", SizeClass::S350m).unwrap();
        let model = zoo.pretrained(s, None);
        assert_eq!(model.config().context_window, zoo.profile.ctx(1024));
        assert_eq!(zoo.cached_models(), 1);
        // Second call hits the cache (no retraining).
        let again = zoo.pretrained(s, None);
        assert_eq!(again.config(), model.config());
        assert_eq!(zoo.cached_models(), 1);
    }

    #[test]
    fn checkpoint_init_builds_base_first() {
        let mut zoo = Zoo::build(Profile::test());
        let s = spec("Wisdom-Ansible-Multi", SizeClass::S350m).unwrap();
        let _ = zoo.pretrained(s, None);
        // Both the base CodeGen-Multi and the continued model are cached.
        assert_eq!(zoo.cached_models(), 2);
    }

    #[test]
    fn streams_differ_by_pool_selection() {
        let mut zoo = Zoo::build(Profile::test());
        let a = zoo.stream_for(ANSIBLE);
        let p = zoo.stream_for(PILE);
        assert_ne!(a, p);
        let both = zoo.stream_for(PoolSelection {
            pile: true,
            ansible: true,
            ..Default::default()
        });
        assert!(both.len() > a.len().max(p.len()));
    }

    #[test]
    fn codex_pool_contains_galaxy_leak() {
        let zoo = Zoo::build(Profile::test());
        let codex = zoo.codex();
        assert!(!codex.is_empty());
    }
}
