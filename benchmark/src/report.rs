//! The benchmark's metric catalogue and result line.
//!
//! `BENCHMARK.json` at the repository root is generated from the tables
//! here (`wisdom-benchmark manifest`), so the names a run prints and the
//! names the manifest declares cannot drift apart.

use std::collections::BTreeMap;

use ansible_wisdom::server::Json;

/// The four workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "editor_sessions",
        "2 closed-loop streamed editor sessions resending a growing file: shared prefixes, so router affinity, prefix cache, suffix prefill and SSE do their work here",
    ),
    (
        "cold_prompts",
        "2 closed-loop keep-alive clients, unique context-free prompts: bypasses prefix cache and affinity; HTTP framing, decode, grammar and lint do the work",
    ),
    (
        "offline_eval",
        "in-process batch-8 decode plus scoring against gold: the model used for throughput instead of latency, so a latency win that costs throughput shows",
    ),
    (
        "curate_corpus",
        "curation passes over a seed corpus with injected duplicates: zero model calls; YAML parse, lint and MinHash do everything",
    ),
];

/// How long one run measures.
pub const RUN_SECONDS: u64 = 20;

/// An end-to-end metric: name, unit, direction, bound (share of the
/// parent's median by which it may worsen).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these, each with a meaning that is
/// never zero (README: "End-to-end metrics").
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "accepted_pct",
        unit: "%",
        better: "higher",
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric: name, unit, direction. No bound.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// The traced pass reports every one of these; a metric whose layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // What the client of the traced slice saw (tracing off).
    ("client.ttft_ms_p50", "ms", "lower"),
    ("client.ttft_ms_p95", "ms", "lower"),
    ("client.tpot_ms_p50", "ms", "lower"),
    ("client.tpot_ms_p95", "ms", "lower"),
    ("client.latency_ms_p50", "ms", "lower"),
    ("client.latency_ms_p95", "ms", "lower"),
    ("client.output_tokens_per_s", "1/s", "higher"),
    ("client.requests_per_s", "1/s", "higher"),
    // server
    ("server.http_overhead_ms_p50", "ms", "lower"),
    ("server.delayed_ack_stall_ms_p50", "ms", "lower"),
    ("server.json_parse_us_p50", "us", "lower"),
    ("server.json_render_us_p50", "us", "lower"),
    ("server.router.decide_us_p50", "us", "lower"),
    ("server.router.affinity_hit_share", "ratio", "higher"),
    ("server.shed_count", "count", "lower"),
    // core
    ("core.decode_request_us_p50", "us", "lower"),
    ("core.suggestion_us_p50", "us", "lower"),
    ("core.prompt_truncated_share", "ratio", "lower"),
    ("core.shareable_token_share", "ratio", "higher"),
    ("core.kept_token_share", "ratio", "higher"),
    // tokenizer
    ("tokenizer.encode_mb_per_s", "MB/s", "higher"),
    ("tokenizer.decode_us_p50", "us", "lower"),
    // model
    ("model.prefill_ms_p50", "ms", "lower"),
    ("model.prefill_tokens_per_s", "1/s", "higher"),
    ("model.kv_bytes_per_token", "B", "lower"),
    ("model.prefix_cache.hit_token_share", "ratio", "higher"),
    ("model.prefix_cache.bytes_copied_per_hit", "B", "lower"),
    ("model.prefix_cache.evicted_segments", "count", "lower"),
    ("model.batch.step_ms_p50", "ms", "lower"),
    ("model.batch.step_ms_p95", "ms", "lower"),
    ("model.batch.mean_occupancy", "count", "higher"),
    ("model.batch.queue_wait_ms_p50", "ms", "lower"),
    ("model.speculative.accepted_per_verify", "count", "higher"),
    ("model.speculative.draft_accept_share", "ratio", "higher"),
    ("model.speculative.rounds_per_token", "ratio", "lower"),
    ("model.decode_tokens_per_s_f32", "1/s", "higher"),
    ("model.decode_tokens_per_s_int8", "1/s", "higher"),
    ("model.int8_pack_s", "s", "lower"),
    // grammar
    ("grammar.index_build_s", "s", "lower"),
    ("grammar.mask_us_p50", "us", "lower"),
    ("grammar.mask_us_p95", "us", "lower"),
    ("grammar.advance_us_p50", "us", "lower"),
    ("grammar.forced_share", "ratio", "higher"),
    ("grammar.masked_per_step", "count", "higher"),
    ("grammar.states_cached", "count", "lower"),
    ("grammar.deactivated_share", "ratio", "lower"),
    ("grammar.divergence_share", "ratio", "lower"),
    // tensor
    ("tensor.matvec_q8_ns", "ns", "lower"),
    ("tensor.matvec_q8_ops", "count", "lower"),
    ("tensor.matvec_q8_bytes", "B", "lower"),
    ("tensor.matmul_f32_gflops", "GFLOP/s", "higher"),
    // yaml / ansible / metrics
    ("yaml.parse_mb_per_s", "MB/s", "higher"),
    ("ansible.lint_docs_per_s", "1/s", "higher"),
    ("metrics.score_samples_per_s", "1/s", "higher"),
    // quality (offline_eval; deterministic)
    ("quality.exact_match_pct", "%", "higher"),
    ("quality.ansible_aware", "%", "higher"),
    ("quality.bleu", "%", "higher"),
    ("quality.schema_correct_pct", "%", "higher"),
    // curation / corpus
    ("curation.parse_score_busy_share", "ratio", "higher"),
    ("curation.queue_wait_share", "ratio", "lower"),
    ("curation.minhash_docs_per_s", "1/s", "higher"),
    ("curation.shard_write_mb_per_s", "MB/s", "higher"),
    ("curation.kept_docs", "count", "higher"),
    ("curation.near_dups", "count", "higher"),
    ("curation.exact_dups", "count", "higher"),
    ("corpus.build_docs_per_s", "1/s", "higher"),
    // ablation arms (editor_sessions slice; ratio to the production arm)
    ("ablate.production.output_tokens_per_s", "1/s", "higher"),
    ("ablate.production.latency_ms_p50", "ms", "lower"),
    ("ablate.all_off.output_tokens_per_s_ratio", "ratio", "lower"),
    ("ablate.all_off.latency_ms_p50_ratio", "ratio", "higher"),
    ("ablate.no_int8.output_tokens_per_s_ratio", "ratio", "lower"),
    ("ablate.no_int8.latency_ms_p50_ratio", "ratio", "higher"),
    (
        "ablate.no_speculative.output_tokens_per_s_ratio",
        "ratio",
        "lower",
    ),
    (
        "ablate.no_speculative.latency_ms_p50_ratio",
        "ratio",
        "higher",
    ),
    (
        "ablate.no_grammar.output_tokens_per_s_ratio",
        "ratio",
        "lower",
    ),
    ("ablate.no_grammar.latency_ms_p50_ratio", "ratio", "higher"),
    (
        "ablate.no_prefix_cache.output_tokens_per_s_ratio",
        "ratio",
        "lower",
    ),
    (
        "ablate.no_prefix_cache.latency_ms_p50_ratio",
        "ratio",
        "higher",
    ),
    (
        "ablate.one_replica.output_tokens_per_s_ratio",
        "ratio",
        "lower",
    ),
    ("ablate.one_replica.latency_ms_p50_ratio", "ratio", "higher"),
    // trace
    ("trace.coverage_share", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.spans", "count", "higher"),
    // fixture (informational)
    ("fixture.train_s", "s", "lower"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, samples, curation passes).
    pub attempted: u64,
    /// Operations that failed or whose output check did not hold.
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// The result object: `correct`, `attempted`, `failed`, and exactly the
    /// declared metrics of the mode (`traced` → per-layer, else
    /// end-to-end), each with its unit.
    ///
    /// # Panics
    ///
    /// Panics when an end-to-end metric is missing or not a positive finite
    /// number: those are never zero by construction, so that is a bug in
    /// the benchmark, not a measurement.
    pub fn to_json(&self, traced: bool) -> Json {
        let declared: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut metrics = BTreeMap::new();
        for (name, unit) in declared {
            let value = self.metrics.get(name).copied();
            let value = if traced {
                value.filter(|v| v.is_finite()).unwrap_or(0.0)
            } else {
                let v = value.unwrap_or_else(|| panic!("end-to-end metric {name} not measured"));
                assert!(v.is_finite() && v > 0.0, "end-to-end metric {name} = {v}");
                v
            };
            metrics.insert(
                name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            );
        }
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let strings =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| {
            Json::obj(vec![
                ("name", Json::Str(name.to_string())),
                ("why", Json::Str(why.to_string())),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::Str(m.name.to_string())),
                ("unit", Json::Str(m.unit.to_string())),
                ("better", Json::Str(m.better.to_string())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            Json::obj(vec![
                ("name", Json::Str(name.to_string())),
                ("unit", Json::Str(unit.to_string())),
                ("better", Json::Str(better.to_string())),
            ])
        })
        .collect();
    let manifest = Json::obj(vec![
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ]);
    let mut text = String::new();
    pretty(&manifest, 0, &mut text);
    text.push('\n');
    text
}

/// `json` over several lines: one array element or top-level member per
/// line, the small objects inside arrays kept on one line each.
fn pretty(json: &Json, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth + 1);
    match json {
        Json::Obj(members) if depth == 0 => {
            out.push_str("{\n");
            for (i, (key, value)) in members.iter().enumerate() {
                out.push_str(&format!("{pad}{}: ", Json::Str(key.clone()).to_text()));
                pretty(value, depth + 1, out);
                out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
            }
            out.push('}');
        }
        Json::Arr(items) if items.iter().any(|i| matches!(i, Json::Obj(_))) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&format!("{pad}{}", item.to_text()));
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&format!("{}]", "  ".repeat(depth)));
        }
        other => out.push_str(&other.to_text()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = crate::fixture::bench_dir()
            .join("..")
            .join("BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `wisdom-benchmark manifest`"
        );
    }
}
