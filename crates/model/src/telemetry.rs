//! Metric handles for the decode path.
//!
//! The serving stack owns one [`wisdom_telemetry::Registry`];
//! [`DecodeTelemetry`] is the set of pre-resolved `Arc` handles one decode
//! engine records into, so a decode step never touches the registry lock.
//! Every engine, scheduler, pool replica and prefix cache holds one — a
//! default bundle records into a private registry nobody renders — and
//! recording never changes the decoded tokens
//! (`instrumented_generate_batch_matches_plain` in `batch.rs`).

use std::sync::Arc;

use wisdom_grammar::{GrammarCursor, MaskOutcome};
use wisdom_telemetry::{Counter, Gauge, Histogram, Registry};

/// Why a sequence stopped decoding — the bounded `reason` label set of
/// `wisdom_decode_finished_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// A stop token (end-of-text, separator) was picked.
    Stop,
    /// The token budget or the context window ran out.
    Length,
    /// A completion-scoped grammar cursor saw the pick that would start
    /// the next task ([`wisdom_grammar::GrammarCursor::closes`]).
    TaskClosed,
    /// The streaming receiver went away (the client hung up).
    Cancelled,
}

impl FinishReason {
    /// Every reason, in label order.
    pub const ALL: [FinishReason; 4] = [
        FinishReason::Stop,
        FinishReason::Length,
        FinishReason::TaskClosed,
        FinishReason::Cancelled,
    ];

    /// The `reason` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            FinishReason::Stop => "stop",
            FinishReason::Length => "length",
            FinishReason::TaskClosed => "task_closed",
            FinishReason::Cancelled => "cancelled",
        }
    }
}

/// Every metric one decode engine records: the handles of one replica (or
/// of a single-replica server). Cloning shares the underlying metrics.
#[derive(Debug, Clone)]
pub struct DecodeTelemetry {
    /// Scheduler metrics (queue wait, TTFT, per-round decode latency, …).
    pub batch: BatchTelemetry,
    /// Prefix-cache metrics, recorded by the replica's own cache.
    pub prefix_cache: PrefixCacheTelemetry,
    /// Speculative-decoding metrics.
    pub speculative: SpeculativeTelemetry,
    /// Quantization metrics.
    pub quant: QuantTelemetry,
    /// Grammar-constrained-decoding metrics.
    pub grammar: GrammarTelemetry,
}

/// A bundle on a private registry: it counts, but no exposition shows it.
impl Default for DecodeTelemetry {
    fn default() -> DecodeTelemetry {
        DecodeTelemetry::register(&Registry::new(), &[])
    }
}

impl DecodeTelemetry {
    /// Registers (or re-resolves) every decode-path family in `registry`,
    /// with `labels` on every series: a multi-replica pool registers one
    /// bundle per replica with `[("replica", "<i>")]`, so the same family
    /// names carry per-replica series side by side.
    pub fn register(registry: &Registry, labels: &[(&str, &str)]) -> DecodeTelemetry {
        let counter = |name: &str, help: &str| registry.counter_with(name, help, labels);
        let gauge = |name: &str, help: &str| registry.gauge_with(name, help, labels);
        let histogram = |name: &str, help: &str, buckets: &[f64]| {
            registry.histogram_with(name, help, labels, buckets)
        };
        let latency = Histogram::latency_buckets();
        let finished = FinishReason::ALL.map(|reason| {
            let mut labels = labels.to_vec();
            labels.push(("reason", reason.as_str()));
            registry.counter_with(
                "wisdom_decode_finished_total",
                "Sequences retired from the decode batch, by finish reason.",
                &labels,
            )
        });
        DecodeTelemetry {
            batch: BatchTelemetry {
                queue_wait: histogram(
                    "wisdom_queue_wait_seconds",
                    "Time from request submission to admission into the decode batch.",
                    &latency,
                ),
                ttft: histogram(
                    "wisdom_ttft_seconds",
                    "Time from request submission to the first generated token.",
                    &latency,
                ),
                token_latency: histogram(
                    "wisdom_decode_token_seconds",
                    "Duration of one batched decode round (per-token latency).",
                    &latency,
                ),
                batch_occupancy: gauge(
                    "wisdom_batch_occupancy",
                    "Sequences currently being decoded together.",
                ),
                queue_depth: gauge(
                    "wisdom_queue_depth",
                    "Requests waiting in the bounded submission queue.",
                ),
                admitted: counter(
                    "wisdom_requests_admitted_total",
                    "Requests admitted into the decode batch.",
                ),
                completed: counter(
                    "wisdom_requests_completed_total",
                    "Requests decoded to completion.",
                ),
                shed: counter(
                    "wisdom_requests_shed_total",
                    "Submissions rejected because the queue was full.",
                ),
                wakeups: counter(
                    "wisdom_scheduler_wakeups_total",
                    "Decode-worker condvar wakeups.",
                ),
                finished,
            },
            prefix_cache: PrefixCacheTelemetry {
                hits: counter(
                    "wisdom_prefix_cache_hits_total",
                    "Prefix-cache lookups that matched at least one token.",
                ),
                misses: counter(
                    "wisdom_prefix_cache_misses_total",
                    "Prefix-cache lookups that matched nothing.",
                ),
                hit_tokens: counter(
                    "wisdom_prefix_cache_hit_tokens_total",
                    "Prompt tokens served from the prefix cache instead of recomputed.",
                ),
                evicted_segments: counter(
                    "wisdom_prefix_cache_evicted_segments_total",
                    "Prefix-cache pages discarded by LRU eviction.",
                ),
                bytes: gauge(
                    "wisdom_prefix_cache_bytes",
                    "Bytes of the pages the prefix cache indexes.",
                ),
                segments: gauge(
                    "wisdom_prefix_cache_segments",
                    "Pages the prefix cache indexes.",
                ),
                pinned_bytes: gauge(
                    "wisdom_prefix_cache_pinned_bytes",
                    "Prefix-cache bytes held by in-flight sequences.",
                ),
                budget_bytes: gauge(
                    "wisdom_prefix_cache_budget_bytes",
                    "Configured prefix-cache byte budget.",
                ),
            },
            speculative: SpeculativeTelemetry {
                proposed: counter(
                    "wisdom_speculative_proposed_tokens_total",
                    "Draft tokens proposed to the verifier.",
                ),
                accepted: counter(
                    "wisdom_speculative_accepted_tokens_total",
                    "Draft tokens accepted by the verifier.",
                ),
                rejected: counter(
                    "wisdom_speculative_rejected_tokens_total",
                    "Draft tokens rejected and rolled back.",
                ),
                verify_passes: counter(
                    "wisdom_speculative_verify_passes_total",
                    "Batched draft-verification passes run.",
                ),
                gate_closed: counter(
                    "wisdom_speculative_gate_closed_total",
                    "Times a sequence's drafts fell below break-even and drafting stopped.",
                ),
                acceptance_length: histogram(
                    "wisdom_speculative_acceptance_length",
                    "Accepted draft tokens per verify pass.",
                    &[0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0],
                ),
                draft_overhead: histogram(
                    "wisdom_speculative_draft_seconds",
                    "Time spent proposing drafts, per decode round.",
                    &latency,
                ),
            },
            quant: QuantTelemetry {
                weight_bytes: gauge(
                    "wisdom_quant_weight_bytes",
                    "Packed int8 weight bytes resident (values plus per-block scales).",
                ),
                weight_bytes_saved: gauge(
                    "wisdom_quant_weight_bytes_saved",
                    "f32 weight bytes replaced by int8 packing, minus the packed bytes.",
                ),
                matmuls_int8: counter(
                    "wisdom_quant_matmuls_int8_total",
                    "Weight projections run through the quantized int8 kernels.",
                ),
                matmuls_f32: counter(
                    "wisdom_quant_matmuls_f32_total",
                    "Weight projections run through the f32 blocked kernels.",
                ),
            },
            grammar: GrammarTelemetry {
                masked_tokens: counter(
                    "wisdom_grammar_masked_tokens_total",
                    "Vocabulary entries masked to -inf across constrained logit rows.",
                ),
                mask_build: histogram(
                    "wisdom_grammar_mask_build_seconds",
                    "Latency of building a fresh allowed-token mask (cache misses only).",
                    &latency,
                ),
                states_cached: gauge(
                    "wisdom_grammar_states_cached",
                    "Mask keys currently held in the shared mask cache.",
                ),
                cache_rotations: counter(
                    "wisdom_grammar_mask_cache_rotations_total",
                    "Mask cache generations retired (keys unasked for since the last are dropped).",
                ),
                forced_fast_path: counter(
                    "wisdom_grammar_forced_fast_path_total",
                    "Token picks resolved by the single-legal-token fast path.",
                ),
                fused_tokens: counter(
                    "wisdom_grammar_fused_tokens_total",
                    "Forced picks made in the round of the pick before them, without logits.",
                ),
            },
        }
    }
}

/// Handles for the continuous-batching scheduler and decode engine
/// ([`DecodeTelemetry::batch`]). Cloning shares the underlying metrics.
#[derive(Debug, Clone)]
pub struct BatchTelemetry {
    /// `wisdom_queue_wait_seconds` — submission to admission into the batch.
    pub queue_wait: Arc<Histogram>,
    /// `wisdom_ttft_seconds` — submission to first generated token.
    pub ttft: Arc<Histogram>,
    /// `wisdom_decode_token_seconds` — one batched decode round (the
    /// inter-token latency every live request experiences that round).
    pub token_latency: Arc<Histogram>,
    /// `wisdom_batch_occupancy` — sequences currently decoding together.
    pub batch_occupancy: Arc<Gauge>,
    /// `wisdom_queue_depth` — requests waiting in the submission queue.
    pub queue_depth: Arc<Gauge>,
    /// `wisdom_requests_admitted_total` — requests admitted into the batch.
    pub admitted: Arc<Counter>,
    /// `wisdom_requests_completed_total` — sequences decoded to completion.
    pub completed: Arc<Counter>,
    /// `wisdom_requests_shed_total` — submissions rejected with a full queue.
    pub shed: Arc<Counter>,
    /// `wisdom_scheduler_wakeups_total` — decode-worker condvar wakeups.
    pub wakeups: Arc<Counter>,
    /// `wisdom_decode_finished_total{reason=…}` — retired sequences by
    /// [`FinishReason`], indexed in [`FinishReason::ALL`] order.
    finished: [Arc<Counter>; 4],
}

impl BatchTelemetry {
    /// The [`DecodeTelemetry::batch`] handles of an unlabeled bundle
    /// registered in `registry`.
    pub fn register(registry: &Registry) -> BatchTelemetry {
        DecodeTelemetry::register(registry, &[]).batch
    }

    /// The `wisdom_decode_finished_total` series for `reason`.
    pub fn finished(&self, reason: FinishReason) -> &Counter {
        &self.finished[reason as usize]
    }
}

/// Handles for the shared prefix KV cache ([`DecodeTelemetry::prefix_cache`]):
/// the cache's hit, miss and eviction counts live here, and its gauges are
/// republished after every insert/eviction pass under the cache lock.
#[derive(Debug, Clone)]
pub struct PrefixCacheTelemetry {
    /// `wisdom_prefix_cache_hits_total`.
    pub hits: Arc<Counter>,
    /// `wisdom_prefix_cache_misses_total`.
    pub misses: Arc<Counter>,
    /// `wisdom_prefix_cache_hit_tokens_total`.
    pub hit_tokens: Arc<Counter>,
    /// `wisdom_prefix_cache_evicted_segments_total`.
    pub evicted_segments: Arc<Counter>,
    /// `wisdom_prefix_cache_bytes` — bytes of the pages currently indexed.
    pub bytes: Arc<Gauge>,
    /// `wisdom_prefix_cache_segments` — pages currently indexed.
    pub segments: Arc<Gauge>,
    /// `wisdom_prefix_cache_pinned_bytes` — bytes of indexed pages that
    /// in-flight sequences hold (eviction-exempt).
    pub pinned_bytes: Arc<Gauge>,
    /// `wisdom_prefix_cache_budget_bytes` — the configured byte budget.
    pub budget_bytes: Arc<Gauge>,
}

/// Handles for the speculative-decoding path (the batched engine's verify
/// rounds, [`DecodeTelemetry::speculative`]).
#[derive(Debug, Clone)]
pub struct SpeculativeTelemetry {
    /// `wisdom_speculative_proposed_tokens_total` — draft tokens proposed.
    pub proposed: Arc<Counter>,
    /// `wisdom_speculative_accepted_tokens_total` — draft tokens the
    /// verifier agreed with (each saved one sequential decode step).
    pub accepted: Arc<Counter>,
    /// `wisdom_speculative_rejected_tokens_total` — draft tokens rolled
    /// back out of the KV cache.
    pub rejected: Arc<Counter>,
    /// `wisdom_speculative_verify_passes_total` — batched verify passes.
    pub verify_passes: Arc<Counter>,
    /// `wisdom_speculative_gate_closed_total` — times a sequence's drafts
    /// fell below break-even and it went back to plain rounds.
    pub gate_closed: Arc<Counter>,
    /// `wisdom_speculative_acceptance_length` — accepted draft tokens per
    /// verify pass (0 = the whole draft was rejected).
    pub acceptance_length: Arc<Histogram>,
    /// `wisdom_speculative_draft_seconds` — time spent inside the draft
    /// proposer, per round (the overhead speculation adds even when
    /// nothing is accepted).
    pub draft_overhead: Arc<Histogram>,
}

impl SpeculativeTelemetry {
    /// The [`DecodeTelemetry::speculative`] handles of an unlabeled bundle
    /// registered in `registry`.
    pub fn register(registry: &Registry) -> SpeculativeTelemetry {
        DecodeTelemetry::register(registry, &[]).speculative
    }
}

/// Handles for the weight-quantization path ([`crate::Precision`],
/// [`DecodeTelemetry::quant`]).
///
/// The gauges are published once when a scheduler converts its model; the
/// counters tick on every projection matmul, splitting decode work between
/// the quantized and f32 kernels (the quantized-matmul share).
#[derive(Debug, Clone)]
pub struct QuantTelemetry {
    /// `wisdom_quant_weight_bytes` — packed int8 weight bytes resident
    /// (values + per-block scales/offsets).
    pub weight_bytes: Arc<Gauge>,
    /// `wisdom_quant_weight_bytes_saved` — f32 weight bytes the packing
    /// replaced, minus the packed bytes.
    pub weight_bytes_saved: Arc<Gauge>,
    /// `wisdom_quant_matmuls_int8_total` — projections run through the
    /// quantized GEBP kernels.
    pub matmuls_int8: Arc<Counter>,
    /// `wisdom_quant_matmuls_f32_total` — projections run through the f32
    /// blocked kernels.
    pub matmuls_f32: Arc<Counter>,
}

/// Handles for grammar-constrained decoding
/// ([`wisdom_grammar::GrammarCursor`] masking inside the decode loops,
/// [`DecodeTelemetry::grammar`]).
///
/// Recorded only when a cursor is actually active — unconstrained decoding
/// records nothing.
#[derive(Debug, Clone)]
pub struct GrammarTelemetry {
    /// `wisdom_grammar_masked_tokens_total` — vocabulary entries set to
    /// `-inf` across all constrained logit rows.
    pub masked_tokens: Arc<Counter>,
    /// `wisdom_grammar_mask_build_seconds` — latency of computing a fresh
    /// allowed-token mask (cache hits are not observed).
    pub mask_build: Arc<Histogram>,
    /// `wisdom_grammar_states_cached` — mask keys currently in the shared
    /// mask cache, as of this bundle's last build.
    pub states_cached: Arc<Gauge>,
    /// `wisdom_grammar_mask_cache_rotations_total` — builds whose insert
    /// found the mask cache full and retired a generation.
    pub cache_rotations: Arc<Counter>,
    /// `wisdom_grammar_forced_fast_path_total` — picks resolved by the
    /// single-legal-token fast path (no argmax / no sampling).
    pub forced_fast_path: Arc<Counter>,
    /// `wisdom_grammar_fused_tokens_total` — forced picks made in the round
    /// of the pick before them, with no logits of their own.
    pub fused_tokens: Arc<Counter>,
}

impl GrammarTelemetry {
    /// Records one constrained logit row: the entries its mask rules out,
    /// the build its lookup cost, and whether the forced fast path took it.
    pub(crate) fn observe_mask(&self, cursor: &GrammarCursor, outcome: &MaskOutcome) {
        self.masked_tokens.add(u64::from(outcome.masked));
        self.observe_build(cursor, outcome);
        if outcome.forced.is_some() {
            self.forced_fast_path.inc();
        }
    }

    /// Records the mask build behind `outcome`, if its lookup missed the
    /// cache. Builds are timed where they happen (the index's miss path),
    /// so this holds whichever call met the state first — the forced-run
    /// probe or the logit mask.
    pub(crate) fn observe_build(&self, cursor: &GrammarCursor, outcome: &MaskOutcome) {
        let Some(build) = outcome.built else {
            return;
        };
        self.mask_build.observe(build.elapsed.as_secs_f64());
        self.states_cached
            .set(cursor.index().stats().states_cached as f64);
        if build.dropped_generation {
            self.cache_rotations.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_twice_shares_handles() {
        let registry = Registry::new();
        let a = DecodeTelemetry::register(&registry, &[]);
        let b = DecodeTelemetry::register(&registry, &[]);
        a.batch.admitted.inc();
        assert_eq!(b.batch.admitted.get(), 1);
        a.prefix_cache.hits.inc();
        assert_eq!(b.prefix_cache.hits.get(), 1);
        a.speculative.accepted.inc();
        assert_eq!(b.speculative.accepted.get(), 1);
        a.quant.matmuls_int8.inc();
        a.quant.weight_bytes.set(128.0);
        assert_eq!(b.quant.matmuls_int8.get(), 1);
        assert_eq!(b.quant.weight_bytes.get(), 128.0);
        a.grammar.masked_tokens.add(5);
        a.grammar.forced_fast_path.inc();
        assert_eq!(b.grammar.masked_tokens.get(), 5);
        assert_eq!(b.grammar.forced_fast_path.get(), 1);
        // The single-bundle registrations re-resolve the same handles.
        assert_eq!(BatchTelemetry::register(&registry).admitted.get(), 1);
        assert_eq!(SpeculativeTelemetry::register(&registry).accepted.get(), 1);
    }

    #[test]
    fn labeled_bundles_keep_per_replica_series_distinct() {
        let registry = Registry::new();
        let r0 = DecodeTelemetry::register(&registry, &[("replica", "0")]);
        let r1 = DecodeTelemetry::register(&registry, &[("replica", "1")]);
        r0.batch.admitted.inc();
        r0.batch.admitted.inc();
        r1.batch.admitted.inc();
        assert_eq!(r0.batch.admitted.get(), 2);
        assert_eq!(r1.batch.admitted.get(), 1);
        let text = registry.render();
        assert!(text.contains("wisdom_requests_admitted_total{replica=\"0\"} 2"));
        assert!(text.contains("wisdom_requests_admitted_total{replica=\"1\"} 1"));
        // No unlabeled series next to the labeled ones.
        assert!(
            !text
                .lines()
                .any(|l| l.starts_with("wisdom_requests_admitted_total ")),
            "{text}"
        );
        // Re-registering the same label set re-resolves the same handles.
        let again = DecodeTelemetry::register(&registry, &[("replica", "0")]);
        again.batch.admitted.inc();
        assert_eq!(r0.batch.admitted.get(), 3);
    }

    #[test]
    fn registered_names_render() {
        let registry = Registry::new();
        let _ = DecodeTelemetry::register(&registry, &[]);
        let text = registry.render();
        for name in [
            "wisdom_grammar_masked_tokens_total",
            "wisdom_grammar_mask_build_seconds",
            "wisdom_grammar_states_cached",
            "wisdom_grammar_mask_cache_rotations_total",
            "wisdom_grammar_forced_fast_path_total",
            "wisdom_quant_weight_bytes",
            "wisdom_quant_weight_bytes_saved",
            "wisdom_quant_matmuls_int8_total",
            "wisdom_quant_matmuls_f32_total",
            "wisdom_speculative_proposed_tokens_total",
            "wisdom_speculative_accepted_tokens_total",
            "wisdom_speculative_rejected_tokens_total",
            "wisdom_speculative_verify_passes_total",
            "wisdom_speculative_acceptance_length",
            "wisdom_speculative_draft_seconds",
            "wisdom_queue_wait_seconds",
            "wisdom_ttft_seconds",
            "wisdom_decode_token_seconds",
            "wisdom_batch_occupancy",
            "wisdom_queue_depth",
            "wisdom_requests_admitted_total",
            "wisdom_requests_completed_total",
            "wisdom_requests_shed_total",
            "wisdom_scheduler_wakeups_total",
            "wisdom_prefix_cache_hits_total",
            "wisdom_prefix_cache_bytes",
            "wisdom_prefix_cache_pinned_bytes",
        ] {
            assert!(text.contains(&format!("# TYPE {name} ")), "{name} missing");
        }
    }
}
