//! The paper's experiments, one function per table/figure.

use std::sync::Arc;
use std::time::Instant;

use wisdom_corpus::{GenType, PromptStyle, Sample};
use wisdom_metrics::MetricsSummary;
use wisdom_model::{
    Constraint, GenerationOptions, LmTextGenerator, ModelConfig, Precision, Strategy, TransformerLm,
};
use wisdom_prng::Prng;

use crate::profile::Profile;
use crate::runner::{evaluate, EvalSettings, SampleCap};
use crate::zoo::{spec, SizeClass, Zoo};

/// One table row: model identity plus the four metric columns.
#[derive(Debug, Clone)]
pub struct Row {
    /// Model display name.
    pub model: String,
    /// Size column ("350M", "2.7B", "6B", "175B").
    pub size: String,
    /// Paper-scale context window column.
    pub ctx: usize,
    /// The four metrics.
    pub metrics: MetricsSummary,
}

/// Progress callback: `(phase, step, total)`.
pub type Progress<'a> = Option<&'a mut dyn FnMut(&str, usize, usize)>;

fn phase(progress: &mut Progress<'_>, label: &str) {
    if let Some(cb) = progress.as_deref_mut() {
        cb(label, 0, 0);
    }
}

/// Table 3: few-shot evaluation of every pre-trained model plus the Codex
/// stand-in, in the paper's row order.
pub fn run_table3(zoo: &mut Zoo, mut progress: Progress<'_>) -> Vec<Row> {
    let test_refs: Vec<&Sample> = zoo.split.test.iter().collect();
    // The borrow checker requires cloning sample refs per evaluation since
    // zoo is borrowed mutably while building generators; evaluate on owned
    // clones instead.
    let test: Vec<Sample> = test_refs.into_iter().cloned().collect();
    let order: [(&str, SizeClass); 9] = [
        ("CodeGen-NL", SizeClass::S350m),
        ("CodeGen-Mono", SizeClass::S350m),
        ("CodeGen-Multi", SizeClass::S350m),
        ("CodeGen-Multi", SizeClass::S2_7b),
        ("CodeGen-Multi", SizeClass::S6b),
        ("Wisdom-Ansible-Multi", SizeClass::S350m),
        ("Wisdom-Yaml-Multi", SizeClass::S350m),
        ("Wisdom-Ansible", SizeClass::S350m),
        ("Wisdom-Yaml", SizeClass::S350m),
    ];
    let mut rows = Vec::new();
    for (name, size) in order {
        let s = *spec(name, size).expect("row exists in TABLE2");
        phase(
            &mut progress,
            &format!("pretrain {} {}", name, size.label()),
        );
        let generator = zoo.fewshot_generator(&s, None);
        let settings = EvalSettings {
            // "adding the string Ansible\n prior to the prompt improved the
            // performances of CodeGen models" — not used for Wisdom.
            ansible_marker: name.starts_with("CodeGen"),
            ..EvalSettings::for_profile(&zoo.profile)
        };
        phase(
            &mut progress,
            &format!("evaluate {} {}", name, size.label()),
        );
        let refs: Vec<&Sample> = test.iter().collect();
        let result = evaluate(&generator, &refs, &settings);
        rows.push(Row {
            model: name.to_string(),
            size: size.label().to_string(),
            ctx: s.fewshot_ctx,
            metrics: result.overall,
        });
        // Insert the Codex row after the CodeGen section, like the paper.
        if rows.len() == 5 {
            phase(&mut progress, "evaluate Codex-Davinci-002");
            let codex = zoo.codex();
            let settings = EvalSettings {
                ansible_marker: true,
                ..EvalSettings::for_profile(&zoo.profile)
            };
            let refs: Vec<&Sample> = test.iter().collect();
            let result = evaluate(&codex, &refs, &settings);
            rows.push(Row {
                model: "Codex-Davinci-002".to_string(),
                size: "175B".to_string(),
                ctx: 2048,
                metrics: result.overall,
            });
        }
    }
    rows
}

/// A Table 4 fine-tuning row request.
#[derive(Debug, Clone)]
struct FtRow {
    label: &'static str,
    base: (&'static str, SizeClass),
    ctx: usize,
    style: PromptStyle,
    fraction: f64,
}

/// Table 4: fine-tuned models — context-window grid, the prefix-prompt
/// ablation, the Wisdom variants, and the data-fraction ablation.
pub fn run_table4(zoo: &mut Zoo, mut progress: Progress<'_>) -> Vec<Row> {
    let rows: Vec<FtRow> = vec![
        FtRow {
            label: "CodeGen-Multi",
            base: ("CodeGen-Multi", SizeClass::S350m),
            ctx: 512,
            style: PromptStyle::NameCompletion,
            fraction: 1.0,
        },
        FtRow {
            label: "CodeGen-Multi",
            base: ("CodeGen-Multi", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 1.0,
        },
        FtRow {
            label: "CodeGen-Multi",
            base: ("CodeGen-Multi", SizeClass::S350m),
            ctx: 2048,
            style: PromptStyle::NameCompletion,
            fraction: 1.0,
        },
        FtRow {
            label: "CodeGen-Multi",
            base: ("CodeGen-Multi", SizeClass::S2_7b),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 1.0,
        },
        FtRow {
            label: "CodeGen-Multi-prefix",
            base: ("CodeGen-Multi", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::Prefix,
            fraction: 1.0,
        },
        FtRow {
            label: "Wisdom-Ansible-Multi",
            base: ("Wisdom-Ansible-Multi", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 1.0,
        },
        FtRow {
            label: "Wisdom-Yaml-Multi",
            base: ("Wisdom-Yaml-Multi", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 1.0,
        },
        FtRow {
            label: "Wisdom-Ansible",
            base: ("Wisdom-Ansible", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 1.0,
        },
        FtRow {
            label: "Wisdom-Yaml",
            base: ("Wisdom-Yaml", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 1.0,
        },
        FtRow {
            label: "Wisdom-Ansible-Multi -50",
            base: ("Wisdom-Ansible-Multi", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 0.5,
        },
        FtRow {
            label: "Wisdom-Ansible-Multi -20",
            base: ("Wisdom-Ansible-Multi", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 0.2,
        },
        FtRow {
            label: "Wisdom-Ansible-Multi -10",
            base: ("Wisdom-Ansible-Multi", SizeClass::S350m),
            ctx: 1024,
            style: PromptStyle::NameCompletion,
            fraction: 0.1,
        },
    ];
    let test: Vec<Sample> = zoo.split.test.clone();
    let mut out = Vec::new();
    for r in rows {
        let base = *spec(r.base.0, r.base.1).expect("base in TABLE2");
        phase(
            &mut progress,
            &format!(
                "finetune {} ctx{} ({}%)",
                r.label,
                r.ctx,
                (r.fraction * 100.0) as u32
            ),
        );
        let generator = zoo.finetuned_generator(r.label, &base, r.ctx, r.style, r.fraction, None);
        let settings = EvalSettings {
            style: r.style,
            ..EvalSettings::for_profile(&zoo.profile)
        };
        phase(&mut progress, &format!("evaluate {} ctx{}", r.label, r.ctx));
        let refs: Vec<&Sample> = test.iter().collect();
        let result = evaluate(&generator, &refs, &settings);
        out.push(Row {
            model: r.label.to_string(),
            size: r.base.1.label().to_string(),
            ctx: r.ctx,
            metrics: result.overall,
        });
    }
    out
}

/// One Table 5 row: a generation type, its full test count, and metrics.
#[derive(Debug, Clone)]
pub struct TypeRow {
    /// "ALL" or the generation-type label.
    pub label: String,
    /// Number of test samples of this type (before capping).
    pub count: usize,
    /// Metrics on the evaluated subset.
    pub metrics: MetricsSummary,
}

/// Table 5: per-generation-type breakdown of the fine-tuned CodeGen-Multi
/// (350M, ctx 1024) — the paper's reference fine-tuned model.
pub fn run_table5(zoo: &mut Zoo, mut progress: Progress<'_>) -> Vec<TypeRow> {
    let base = *spec("CodeGen-Multi", SizeClass::S350m).expect("base exists");
    phase(&mut progress, "finetune CodeGen-Multi ctx1024");
    let generator = zoo.finetuned_generator(
        "CodeGen-Multi",
        &base,
        1024,
        PromptStyle::NameCompletion,
        1.0,
        None,
    );
    let per_type_cap = (zoo.profile.eval_max_samples / 3).max(8);
    let settings = EvalSettings {
        cap: SampleCap::PerType(per_type_cap),
        ..EvalSettings::for_profile(&zoo.profile)
    };
    phase(&mut progress, "evaluate per generation type");
    let test: Vec<Sample> = zoo.split.test.clone();
    let refs: Vec<&Sample> = test.iter().collect();
    let result = evaluate(&generator, &refs, &settings);
    let mut rows = vec![TypeRow {
        label: "ALL".to_string(),
        count: zoo.split.test.len(),
        metrics: result.overall,
    }];
    for (gt, m) in result.by_type {
        rows.push(TypeRow {
            label: gt.to_string(),
            count: zoo.split.test.iter().filter(|s| s.gen_type == gt).count(),
            metrics: m,
        });
    }
    rows
}

/// Decoding-strategy ablation — the paper's "we would expect some
/// improvement by using random sampling or beam search decoding" (§5.2),
/// actually measured: the fine-tuned reference model evaluated with greedy,
/// beam-search, and top-k decoding.
pub fn run_decoding_ablation(zoo: &mut Zoo, mut progress: Progress<'_>) -> Vec<Row> {
    use wisdom_model::TextGenerator;

    let base = *spec("CodeGen-Multi", SizeClass::S350m).expect("base exists");
    phase(&mut progress, "finetune CodeGen-Multi ctx1024");
    let generator = zoo.finetuned_generator(
        "CodeGen-Multi",
        &base,
        1024,
        PromptStyle::NameCompletion,
        1.0,
        None,
    );
    let strategies: [(&str, Strategy); 3] = [
        ("greedy", Strategy::Greedy),
        ("beam-4", Strategy::Beam { width: 4 }),
        (
            "top-k (k=40, T=0.8)",
            Strategy::TopK {
                k: 40,
                temperature: 0.8,
            },
        ),
    ];
    let test: Vec<Sample> = zoo.split.test.clone();
    let mut rows = Vec::new();
    for (label, strategy) in strategies {
        phase(&mut progress, &format!("evaluate decoding={label}"));
        // Wrap the generator so every completion uses the ablated strategy.
        struct Forced<'a> {
            inner: &'a dyn TextGenerator,
            strategy: Strategy,
        }
        impl TextGenerator for Forced<'_> {
            fn complete(&self, prompt: &str, opts: &GenerationOptions) -> String {
                self.inner.complete(
                    prompt,
                    &GenerationOptions {
                        strategy: self.strategy,
                        ..*opts
                    },
                )
            }
            fn model_name(&self) -> String {
                self.inner.model_name()
            }
        }
        let forced = Forced {
            inner: &generator,
            strategy,
        };
        let settings = EvalSettings {
            cap: SampleCap::Total(zoo.profile.eval_max_samples.min(40)),
            ..EvalSettings::for_profile(&zoo.profile)
        };
        let refs: Vec<&Sample> = test.iter().collect();
        let result = evaluate(&forced, &refs, &settings);
        rows.push(Row {
            model: format!("CodeGen-Multi [{label}]"),
            size: "350M".to_string(),
            ctx: 1024,
            metrics: result.overall,
        });
    }
    rows
}

/// The §4.3 throughput comparison: single-stream greedy decode speed of the
/// 350M-class vs the 2.7B-class architecture (the paper measured ~1.9×).
#[derive(Debug, Clone, Copy)]
pub struct ThroughputResult {
    /// Decode tokens/second for the 350M-class model.
    pub small_tps: f64,
    /// Decode tokens/second for the 2.7B-class model.
    pub large_tps: f64,
}

impl ThroughputResult {
    /// Decode speedup of the small model over the large one.
    pub fn speedup(&self) -> f64 {
        self.small_tps / self.large_tps
    }
}

/// Measures decode throughput for the two size classes.
pub fn run_throughput(profile: &Profile, tokens: usize) -> ThroughputResult {
    let ctx = profile.ctx(1024);
    let vocab = profile.vocab_size;
    let mut rng = Prng::seed_from_u64(profile.seed);
    let small = TransformerLm::new(ModelConfig::size_350m(vocab, ctx), &mut rng);
    let large = TransformerLm::new(ModelConfig::size_2_7b(vocab, ctx), &mut rng);
    ThroughputResult {
        small_tps: measure_tps(&small, tokens),
        large_tps: measure_tps(&large, tokens),
    }
}

fn measure_tps(model: &TransformerLm, tokens: usize) -> f64 {
    let opts = GenerationOptions {
        max_new_tokens: tokens,
        strategy: Strategy::TopK {
            k: 50,
            temperature: 1.0,
        },
        seed: 7,
    };
    let prompt: Vec<u32> = (3..11).collect();
    // Warm-up.
    let _ = model.generate(
        &prompt,
        &[],
        &GenerationOptions {
            max_new_tokens: 8,
            ..opts
        },
    );
    // Best of two: robust against transient scheduler contention.
    let mut best = 0.0f64;
    for _ in 0..2 {
        let start = Instant::now();
        let out = model.generate(&prompt, &[], &opts);
        let elapsed = start.elapsed().as_secs_f64();
        best = best.max(out.len() as f64 / elapsed.max(1e-9));
    }
    best
}

/// The quantization experiment: the quality cost of int8 weights on the
/// Table 5 harness.
#[derive(Debug, Clone)]
pub struct QuantResult {
    /// Table 5 overall metrics for the f32 reference model.
    pub f32_metrics: MetricsSummary,
    /// The same model and harness with int8-packed weights.
    pub int8_metrics: MetricsSummary,
}

impl QuantResult {
    /// BLEU change from quantization (int8 minus f32).
    pub fn bleu_delta(&self) -> f64 {
        self.int8_metrics.bleu - self.f32_metrics.bleu
    }

    /// Ansible Aware change from quantization.
    pub fn aware_delta(&self) -> f64 {
        self.int8_metrics.ansible_aware - self.f32_metrics.ansible_aware
    }

    /// Schema Correct change from quantization.
    pub fn schema_delta(&self) -> f64 {
        self.int8_metrics.schema_correct - self.f32_metrics.schema_correct
    }

    /// Exact Match change from quantization.
    pub fn exact_delta(&self) -> f64 {
        self.int8_metrics.exact_match - self.f32_metrics.exact_match
    }
}

/// The quantization experiment: the paper's reference fine-tuned model
/// (CodeGen-Multi 350M, ctx 1024) evaluated on the Table 5 harness at f32
/// and again with its weights int8-packed, so the BLEU / Ansible Aware /
/// Schema Correct deltas quantify what per-block int8 costs in output
/// quality.
pub fn run_quant(zoo: &mut Zoo, mut progress: Progress<'_>) -> QuantResult {
    let base = *spec("CodeGen-Multi", SizeClass::S350m).expect("base exists");
    phase(&mut progress, "finetune CodeGen-Multi ctx1024");
    let model = zoo.finetuned(&base, 1024, PromptStyle::NameCompletion, 1.0, None);
    let per_type_cap = (zoo.profile.eval_max_samples / 3).max(8);
    let settings = EvalSettings {
        cap: SampleCap::PerType(per_type_cap),
        ..EvalSettings::for_profile(&zoo.profile)
    };
    let test: Vec<Sample> = zoo.split.test.clone();
    let refs: Vec<&Sample> = test.iter().collect();

    phase(&mut progress, "evaluate f32 reference");
    let f32_gen = LmTextGenerator::new(
        "CodeGen-Multi [f32]",
        model.clone(),
        Arc::clone(&zoo.tokenizer),
    );
    let f32_metrics = evaluate(&f32_gen, &refs, &settings).overall;

    phase(&mut progress, "evaluate int8-packed model");
    let int8_gen = LmTextGenerator::new(
        "CodeGen-Multi [int8]",
        model.with_precision(Precision::Int8),
        Arc::clone(&zoo.tokenizer),
    );
    let int8_metrics = evaluate(&int8_gen, &refs, &settings).overall;

    QuantResult {
        f32_metrics,
        int8_metrics,
    }
}

/// One generation type scored with and without the grammar constraint.
#[derive(Debug, Clone)]
pub struct GrammarTypeRow {
    /// "ALL" or the generation-type label.
    pub label: String,
    /// Number of test samples of this type (before capping).
    pub count: usize,
    /// Metrics for plain (unconstrained) greedy decode.
    pub unconstrained: MetricsSummary,
    /// The same model and harness decoding under the Ansible automaton.
    pub constrained: MetricsSummary,
}

impl GrammarTypeRow {
    /// Schema Correct change from constraining (constrained minus plain).
    pub fn schema_delta(&self) -> f64 {
        self.constrained.schema_correct - self.unconstrained.schema_correct
    }

    /// Ansible Aware change from constraining.
    pub fn aware_delta(&self) -> f64 {
        self.constrained.ansible_aware - self.unconstrained.ansible_aware
    }

    /// BLEU change from constraining.
    pub fn bleu_delta(&self) -> f64 {
        self.constrained.bleu - self.unconstrained.bleu
    }
}

/// The grammar-constrained decoding experiment: Table 5 per-type metrics
/// with and without the automaton, plus the correctness audit over the
/// constrained completions themselves.
#[derive(Debug, Clone)]
pub struct GrammarResult {
    /// The constraint the comparison decodes under (`"ansible"`).
    pub constraint: String,
    /// Per-type rows, `"ALL"` first (the Table 5 shape, doubled).
    pub rows: Vec<GrammarTypeRow>,
    /// Constrained completions audited in the verification pass.
    pub completions: usize,
    /// How many of them parse with `wisdom-yaml`.
    pub parsed: usize,
    /// How many lint clean (strict Schema Correct checker).
    pub lint_clean: usize,
}

/// The grammar experiment: the paper's reference fine-tuned model
/// (CodeGen-Multi 350M, ctx 1024) evaluated on the Table 5 harness twice —
/// plain greedy decode vs the same weights decoding under the compiled
/// Ansible automaton — so the per-generation-type Schema Correct / Ansible
/// Aware deltas quantify what constraint masking buys. A final pass
/// re-generates constrained completions and checks each one parses and
/// lints clean, pinning the subsystem's correctness contract on real
/// harness prompts.
pub fn run_grammar(zoo: &mut Zoo, mut progress: Progress<'_>) -> GrammarResult {
    use wisdom_model::TextGenerator;

    let base = *spec("CodeGen-Multi", SizeClass::S350m).expect("base exists");
    phase(&mut progress, "finetune CodeGen-Multi ctx1024");
    let model = zoo.finetuned(&base, 1024, PromptStyle::NameCompletion, 1.0, None);
    let per_type_cap = (zoo.profile.eval_max_samples / 3).max(8);
    let settings = EvalSettings {
        cap: SampleCap::PerType(per_type_cap),
        ..EvalSettings::for_profile(&zoo.profile)
    };
    let test: Vec<Sample> = zoo.split.test.clone();
    let refs: Vec<&Sample> = test.iter().collect();

    phase(&mut progress, "evaluate unconstrained reference");
    let plain_gen =
        LmTextGenerator::new("CodeGen-Multi", model.clone(), Arc::clone(&zoo.tokenizer));
    let plain = evaluate(&plain_gen, &refs, &settings);

    phase(&mut progress, "evaluate ansible-constrained decode");
    let constrained_gen =
        LmTextGenerator::new("CodeGen-Multi [ansible]", model, Arc::clone(&zoo.tokenizer))
            .with_constraint(Constraint::Ansible);
    let constrained = evaluate(&constrained_gen, &refs, &settings);

    let mut rows = vec![GrammarTypeRow {
        label: "ALL".to_string(),
        count: test.len(),
        unconstrained: plain.overall,
        constrained: constrained.overall,
    }];
    for ((gt, u), (_, c)) in plain.by_type.iter().zip(&constrained.by_type) {
        rows.push(GrammarTypeRow {
            label: gt.to_string(),
            count: test.iter().filter(|s| s.gen_type == *gt).count(),
            unconstrained: *u,
            constrained: *c,
        });
    }

    // Correctness audit: regenerate a per-type slice of constrained
    // completions and check every one parses and lints clean after the
    // harness's own post-processing and document reconstruction.
    phase(&mut progress, "verify constrained completions parse + lint");
    let audit_cap = per_type_cap.min(8);
    let mut audit: Vec<&Sample> = Vec::new();
    for gt in GenType::ALL {
        audit.extend(test.iter().filter(|s| s.gen_type == gt).take(audit_cap));
    }
    let prompts: Vec<String> = audit
        .iter()
        .map(|s| s.prompt_text(settings.style))
        .collect();
    let opts = GenerationOptions {
        max_new_tokens: settings.max_new_tokens,
        strategy: Strategy::Greedy,
        seed: settings.seed,
    };
    let outs = constrained_gen.complete_batch(&prompts, &opts);
    let mut parsed = 0usize;
    let mut lint_clean = 0usize;
    for (sample, raw) in audit.iter().zip(&outs) {
        let doc = sample.scoring_document(&crate::runner::postprocess(sample, raw));
        if wisdom_yaml::parse(&doc).is_ok() {
            parsed += 1;
        }
        if wisdom_metrics::schema_correct(&doc) {
            lint_clean += 1;
        }
    }

    GrammarResult {
        constraint: Constraint::Ansible.to_string(),
        rows,
        completions: audit.len(),
        parsed,
        lint_clean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Speed orderings belong to the benchmark ledger, not to `cargo test`;
    /// here the figure only has to measure every rate.
    #[test]
    fn throughput_measures_every_rate() {
        let r = run_throughput(&Profile::test(), 24);
        for rate in [r.small_tps, r.large_tps] {
            assert!(rate.is_finite() && rate > 0.0, "{r:?}");
        }
    }
}
