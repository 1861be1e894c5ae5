//! Metric handle bundles for the decode path.
//!
//! The serving stack owns one [`wisdom_telemetry::Registry`]; these bundles
//! are the pre-resolved `Arc` handles the hot path records into, so a decode
//! step never touches the registry lock. Both bundles are optional
//! everywhere they are accepted — the uninstrumented path stays exactly as
//! fast as before, and attaching them never changes the decoded tokens
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

/// Handles for the continuous-batching scheduler and decode engine.
/// Cloning shares the underlying metrics.
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
    /// Registers (or re-resolves) the scheduler metric family in `registry`.
    pub fn register(registry: &Registry) -> BatchTelemetry {
        Self::register_labeled(registry, &[])
    }

    /// [`Self::register`] with a label set on every series — the
    /// multi-replica pool registers one bundle per replica with
    /// `[("replica", "<i>")]`, so the same family names carry per-replica
    /// series side by side.
    pub fn register_labeled(registry: &Registry, labels: &[(&str, &str)]) -> BatchTelemetry {
        let buckets = Histogram::latency_buckets();
        let finished = FinishReason::ALL.map(|reason| {
            let mut labels = labels.to_vec();
            labels.push(("reason", reason.as_str()));
            registry.counter_with(
                "wisdom_decode_finished_total",
                "Sequences retired from the decode batch, by finish reason.",
                &labels,
            )
        });
        BatchTelemetry {
            queue_wait: registry.histogram_with(
                "wisdom_queue_wait_seconds",
                "Time from request submission to admission into the decode batch.",
                labels,
                &buckets,
            ),
            ttft: registry.histogram_with(
                "wisdom_ttft_seconds",
                "Time from request submission to the first generated token.",
                labels,
                &buckets,
            ),
            token_latency: registry.histogram_with(
                "wisdom_decode_token_seconds",
                "Duration of one batched decode round (per-token latency).",
                labels,
                &buckets,
            ),
            batch_occupancy: registry.gauge_with(
                "wisdom_batch_occupancy",
                "Sequences currently being decoded together.",
                labels,
            ),
            queue_depth: registry.gauge_with(
                "wisdom_queue_depth",
                "Requests waiting in the bounded submission queue.",
                labels,
            ),
            admitted: registry.counter_with(
                "wisdom_requests_admitted_total",
                "Requests admitted into the decode batch.",
                labels,
            ),
            completed: registry.counter_with(
                "wisdom_requests_completed_total",
                "Requests decoded to completion.",
                labels,
            ),
            shed: registry.counter_with(
                "wisdom_requests_shed_total",
                "Submissions rejected because the queue was full.",
                labels,
            ),
            wakeups: registry.counter_with(
                "wisdom_scheduler_wakeups_total",
                "Decode-worker condvar wakeups.",
                labels,
            ),
            finished,
        }
    }

    /// The `wisdom_decode_finished_total` series for `reason`.
    pub fn finished(&self, reason: FinishReason) -> &Counter {
        &self.finished[reason as usize]
    }
}

/// Handles for the shared prefix KV cache. Counters mirror the cache's
/// internal [`crate::PrefixCacheStats`]; gauges are republished after every
/// insert/eviction pass under the cache lock.
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

impl PrefixCacheTelemetry {
    /// Registers (or re-resolves) the prefix-cache metric family in
    /// `registry`.
    pub fn register(registry: &Registry) -> PrefixCacheTelemetry {
        Self::register_labeled(registry, &[])
    }

    /// [`Self::register`] with a label set on every series (per-replica
    /// caches label with `[("replica", "<i>")]`).
    pub fn register_labeled(registry: &Registry, labels: &[(&str, &str)]) -> PrefixCacheTelemetry {
        PrefixCacheTelemetry {
            hits: registry.counter_with(
                "wisdom_prefix_cache_hits_total",
                "Prefix-cache lookups that matched at least one token.",
                labels,
            ),
            misses: registry.counter_with(
                "wisdom_prefix_cache_misses_total",
                "Prefix-cache lookups that matched nothing.",
                labels,
            ),
            hit_tokens: registry.counter_with(
                "wisdom_prefix_cache_hit_tokens_total",
                "Prompt tokens served from the prefix cache instead of recomputed.",
                labels,
            ),
            evicted_segments: registry.counter_with(
                "wisdom_prefix_cache_evicted_segments_total",
                "Prefix-cache pages discarded by LRU eviction.",
                labels,
            ),
            bytes: registry.gauge_with(
                "wisdom_prefix_cache_bytes",
                "Bytes of the pages the prefix cache indexes.",
                labels,
            ),
            segments: registry.gauge_with(
                "wisdom_prefix_cache_segments",
                "Pages the prefix cache indexes.",
                labels,
            ),
            pinned_bytes: registry.gauge_with(
                "wisdom_prefix_cache_pinned_bytes",
                "Prefix-cache bytes held by in-flight sequences.",
                labels,
            ),
            budget_bytes: registry.gauge_with(
                "wisdom_prefix_cache_budget_bytes",
                "Configured prefix-cache byte budget.",
                labels,
            ),
        }
    }
}

/// Handles for the speculative-decoding path (the batched engine's verify
/// rounds).
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
    /// Registers (or re-resolves) the speculative-decoding metric family
    /// in `registry`.
    pub fn register(registry: &Registry) -> SpeculativeTelemetry {
        Self::register_labeled(registry, &[])
    }

    /// [`Self::register`] with a label set on every series (per-replica
    /// speculation labels with `[("replica", "<i>")]`).
    pub fn register_labeled(registry: &Registry, labels: &[(&str, &str)]) -> SpeculativeTelemetry {
        let length_buckets = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0];
        SpeculativeTelemetry {
            proposed: registry.counter_with(
                "wisdom_speculative_proposed_tokens_total",
                "Draft tokens proposed to the verifier.",
                labels,
            ),
            accepted: registry.counter_with(
                "wisdom_speculative_accepted_tokens_total",
                "Draft tokens accepted by the verifier.",
                labels,
            ),
            rejected: registry.counter_with(
                "wisdom_speculative_rejected_tokens_total",
                "Draft tokens rejected and rolled back.",
                labels,
            ),
            verify_passes: registry.counter_with(
                "wisdom_speculative_verify_passes_total",
                "Batched draft-verification passes run.",
                labels,
            ),
            gate_closed: registry.counter_with(
                "wisdom_speculative_gate_closed_total",
                "Times a sequence's drafts fell below break-even and drafting stopped.",
                labels,
            ),
            acceptance_length: registry.histogram_with(
                "wisdom_speculative_acceptance_length",
                "Accepted draft tokens per verify pass.",
                labels,
                &length_buckets,
            ),
            draft_overhead: registry.histogram_with(
                "wisdom_speculative_draft_seconds",
                "Time spent proposing drafts, per decode round.",
                labels,
                &Histogram::latency_buckets(),
            ),
        }
    }
}

/// Handles for the weight-quantization path ([`crate::Precision`]).
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

impl QuantTelemetry {
    /// Registers (or re-resolves) the quantization metric family in
    /// `registry`.
    pub fn register(registry: &Registry) -> QuantTelemetry {
        Self::register_labeled(registry, &[])
    }

    /// [`Self::register`] with a label set on every series (per-replica
    /// quantization labels with `[("replica", "<i>")]`).
    pub fn register_labeled(registry: &Registry, labels: &[(&str, &str)]) -> QuantTelemetry {
        QuantTelemetry {
            weight_bytes: registry.gauge_with(
                "wisdom_quant_weight_bytes",
                "Packed int8 weight bytes resident (values plus per-block scales).",
                labels,
            ),
            weight_bytes_saved: registry.gauge_with(
                "wisdom_quant_weight_bytes_saved",
                "f32 weight bytes replaced by int8 packing, minus the packed bytes.",
                labels,
            ),
            matmuls_int8: registry.counter_with(
                "wisdom_quant_matmuls_int8_total",
                "Weight projections run through the quantized int8 kernels.",
                labels,
            ),
            matmuls_f32: registry.counter_with(
                "wisdom_quant_matmuls_f32_total",
                "Weight projections run through the f32 blocked kernels.",
                labels,
            ),
        }
    }
}

/// Handles for grammar-constrained decoding
/// ([`wisdom_grammar::GrammarCursor`] masking inside the decode loops).
///
/// Mask application is on the per-token hot path, so the bundle mirrors the
/// others: pre-resolved `Arc` handles, recorded only when a cursor is
/// actually active — unconstrained decoding records nothing.
#[derive(Debug, Clone)]
pub struct GrammarTelemetry {
    /// `wisdom_grammar_masked_tokens_total` — vocabulary entries set to
    /// `-inf` across all constrained logit rows.
    pub masked_tokens: Arc<Counter>,
    /// `wisdom_grammar_mask_build_seconds` — latency of computing a fresh
    /// allowed-token mask (cache hits are not observed).
    pub mask_build: Arc<Histogram>,
    /// `wisdom_grammar_states_cached` — automaton states currently in the
    /// shared mask cache, as of this bundle's last build.
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
    /// Registers (or re-resolves) the grammar metric family in `registry`.
    pub fn register(registry: &Registry) -> GrammarTelemetry {
        Self::register_labeled(registry, &[])
    }

    /// [`Self::register`] with a label set on every series (per-replica
    /// grammar metrics label with `[("replica", "<i>")]`).
    pub fn register_labeled(registry: &Registry, labels: &[(&str, &str)]) -> GrammarTelemetry {
        GrammarTelemetry {
            masked_tokens: registry.counter_with(
                "wisdom_grammar_masked_tokens_total",
                "Vocabulary entries masked to -inf across constrained logit rows.",
                labels,
            ),
            mask_build: registry.histogram_with(
                "wisdom_grammar_mask_build_seconds",
                "Latency of building a fresh allowed-token mask (cache misses only).",
                labels,
                &Histogram::latency_buckets(),
            ),
            states_cached: registry.gauge_with(
                "wisdom_grammar_states_cached",
                "Automaton states currently held in the shared mask cache.",
                labels,
            ),
            cache_rotations: registry.counter_with(
                "wisdom_grammar_mask_cache_rotations_total",
                "Mask cache generations retired (states unasked for since the last are dropped).",
                labels,
            ),
            forced_fast_path: registry.counter_with(
                "wisdom_grammar_forced_fast_path_total",
                "Token picks resolved by the single-legal-token fast path.",
                labels,
            ),
            fused_tokens: registry.counter_with(
                "wisdom_grammar_fused_tokens_total",
                "Forced picks made in the round of the pick before them, without logits.",
                labels,
            ),
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

/// One scheduler's metric handles ([`crate::BatchScheduler::spawn_with`]),
/// typically registered with a `replica="<i>"` label so one registry
/// exposes every replica's series side by side. All handles are optional; a
/// default bundle leaves the replica uninstrumented.
#[derive(Debug, Clone, Default)]
pub struct ReplicaTelemetry {
    /// Scheduler metrics (queue wait, TTFT, per-round decode latency, …).
    pub batch: Option<BatchTelemetry>,
    /// Prefix-cache metrics, attached to the replica's own cache.
    pub prefix_cache: Option<PrefixCacheTelemetry>,
    /// Speculative-decoding metrics.
    pub speculative: Option<SpeculativeTelemetry>,
    /// Quantization metrics.
    pub quant: Option<QuantTelemetry>,
    /// Grammar-constrained-decoding metrics.
    pub grammar: Option<GrammarTelemetry>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_twice_shares_handles() {
        let registry = Registry::new();
        let a = BatchTelemetry::register(&registry);
        let b = BatchTelemetry::register(&registry);
        a.admitted.inc();
        assert_eq!(b.admitted.get(), 1);
        let pa = PrefixCacheTelemetry::register(&registry);
        let pb = PrefixCacheTelemetry::register(&registry);
        pa.hits.inc();
        assert_eq!(pb.hits.get(), 1);
        let sa = SpeculativeTelemetry::register(&registry);
        let sb = SpeculativeTelemetry::register(&registry);
        sa.accepted.inc();
        assert_eq!(sb.accepted.get(), 1);
        let qa = QuantTelemetry::register(&registry);
        let qb = QuantTelemetry::register(&registry);
        qa.matmuls_int8.inc();
        qa.weight_bytes.set(128.0);
        assert_eq!(qb.matmuls_int8.get(), 1);
        assert_eq!(qb.weight_bytes.get(), 128.0);
        let ga = GrammarTelemetry::register(&registry);
        let gb = GrammarTelemetry::register(&registry);
        ga.masked_tokens.add(5);
        ga.forced_fast_path.inc();
        assert_eq!(gb.masked_tokens.get(), 5);
        assert_eq!(gb.forced_fast_path.get(), 1);
    }

    #[test]
    fn labeled_bundles_keep_per_replica_series_distinct() {
        let registry = Registry::new();
        let r0 = BatchTelemetry::register_labeled(&registry, &[("replica", "0")]);
        let r1 = BatchTelemetry::register_labeled(&registry, &[("replica", "1")]);
        r0.admitted.inc();
        r0.admitted.inc();
        r1.admitted.inc();
        assert_eq!(r0.admitted.get(), 2);
        assert_eq!(r1.admitted.get(), 1);
        let text = registry.render();
        assert!(text.contains("wisdom_requests_admitted_total{replica=\"0\"} 2"));
        assert!(text.contains("wisdom_requests_admitted_total{replica=\"1\"} 1"));
        // Re-registering the same label set re-resolves the same handles.
        let again = BatchTelemetry::register_labeled(&registry, &[("replica", "0")]);
        again.admitted.inc();
        assert_eq!(r0.admitted.get(), 3);
    }

    #[test]
    fn registered_names_render() {
        let registry = Registry::new();
        let _ = BatchTelemetry::register(&registry);
        let _ = PrefixCacheTelemetry::register(&registry);
        let _ = SpeculativeTelemetry::register(&registry);
        let _ = QuantTelemetry::register(&registry);
        let _ = GrammarTelemetry::register(&registry);
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
