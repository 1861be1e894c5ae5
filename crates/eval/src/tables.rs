//! Plain-text renderers for the paper's tables.

use crate::experiments::{GrammarResult, QuantResult, Row, ThroughputResult, TypeRow};
use crate::zoo::TABLE2;

fn check(b: bool) -> &'static str {
    if b {
        "x"
    } else {
        " "
    }
}

/// Renders Table 2 (model ↔ pre-training-dataset matrix).
pub fn table2_text() -> String {
    let mut out = String::new();
    out.push_str("Table 2: Model names and their associated pre-training datasets\n");
    out.push_str(&format!(
        "{:<22} {:>5} {:>5} {:>9} {:>12} {:>12}\n",
        "Model", "Pile", "BigQ", "BigPython", "Ansible YAML", "Generic YAML"
    ));
    for s in TABLE2 {
        // Checkpoint-initialized models inherit their base's datasets.
        let (pile, bq) = if s.from_multi_checkpoint {
            (true, true)
        } else {
            (s.pools.pile, s.pools.bigquery)
        };
        out.push_str(&format!(
            "{:<22} {:>5} {:>5} {:>9} {:>12} {:>12}\n",
            format!("{} {}", s.name, s.size.label()),
            check(pile),
            check(bq),
            check(s.pools.bigpython),
            check(s.pools.ansible),
            check(s.pools.generic),
        ));
    }
    out
}

fn metric_header() -> String {
    format!(
        "{:<24} {:>5} {:>8} {:>7} {:>6} {:>7} {:>8}\n",
        "Model", "Size", "Context", "Schema", "EM", "BLEU", "Aware"
    )
}

fn metric_row(r: &Row) -> String {
    format!(
        "{:<24} {:>5} {:>8} {:>7.2} {:>6.2} {:>7.2} {:>8.2}\n",
        r.model,
        r.size,
        r.ctx,
        r.metrics.schema_correct,
        r.metrics.exact_match,
        r.metrics.bleu,
        r.metrics.ansible_aware
    )
}

/// Renders Table 3 (few-shot results).
pub fn table3_text(rows: &[Row]) -> String {
    let mut out = String::from("Table 3: Few-shot evaluation (greedy decoding)\n");
    out.push_str(&metric_header());
    for (i, r) in rows.iter().enumerate() {
        // Blank separators between the paper's three sections.
        if i == 5 || i == 6 {
            out.push('\n');
        }
        out.push_str(&metric_row(r));
    }
    out
}

/// Renders Table 4 (fine-tuned results).
pub fn table4_text(rows: &[Row]) -> String {
    let mut out = String::from("Table 4: Fine-tuned evaluation\n");
    out.push_str(&metric_header());
    for (i, r) in rows.iter().enumerate() {
        if i == 4 || i == 5 || i == 9 {
            out.push('\n');
        }
        out.push_str(&metric_row(r));
    }
    out
}

/// Renders Table 5 (per-generation-type breakdown).
pub fn table5_text(rows: &[TypeRow]) -> String {
    let mut out =
        String::from("Table 5: Metrics per generation type (fine-tuned CodeGen-Multi, ctx 1024)\n");
    out.push_str(&format!(
        "{:<12} {:>7} {:>7} {:>6} {:>7} {:>8} {:>10}\n",
        "Type", "Count", "Schema", "EM", "BLEU", "Aware", "(scored)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>7} {:>7.2} {:>6.2} {:>7.2} {:>8.2} {:>10}\n",
            r.label,
            r.count,
            r.metrics.schema_correct,
            r.metrics.exact_match,
            r.metrics.bleu,
            r.metrics.ansible_aware,
            r.metrics.count
        ));
    }
    out
}

/// Renders the throughput figure (§4.3).
pub fn throughput_text(r: &ThroughputResult) -> String {
    format!(
        "Generation throughput (single CPU stream, KV-cache greedy-path):\n  \
         decode  350M-class: {:>8.1} tokens/s\n  \
         decode  2.7B-class: {:>8.1} tokens/s\n  \
         decode speedup:     {:>8.2}x  (paper: ~1.9x on one GPU)\n  \
         prefill 350M-class: {:>8.1} tokens/s (batched)\n  \
         prefill 2.7B-class: {:>8.1} tokens/s (batched) vs {:.1} tokens/s (sequential)\n  \
         prefill speedup:    {:>8.2}x  (batched vs step loop, 2.7B-class)\n",
        r.small_tps,
        r.large_tps,
        r.speedup(),
        r.small_prefill_tps,
        r.large_prefill_tps,
        r.large_prefill_seq_tps,
        r.prefill_speedup()
    )
}

/// Renders the quantization experiment: f32 vs int8 quality and their
/// deltas on the Table 5 harness.
pub fn quant_text(r: &QuantResult) -> String {
    let mut out = String::from(
        "Quantized int8 inference: quality on the Table 5 harness \
         (fine-tuned CodeGen-Multi, ctx 1024), f32 vs int8-packed weights\n",
    );
    out.push_str(&format!(
        "{:<8} {:>7} {:>6} {:>7} {:>8}\n",
        "Weights", "Schema", "EM", "BLEU", "Aware"
    ));
    for (label, m) in [("f32", &r.f32_metrics), ("int8", &r.int8_metrics)] {
        out.push_str(&format!(
            "{:<8} {:>7.2} {:>6.2} {:>7.2} {:>8.2}\n",
            label, m.schema_correct, m.exact_match, m.bleu, m.ansible_aware
        ));
    }
    out.push_str(&format!(
        "{:<8} {:>+7.2} {:>+6.2} {:>+7.2} {:>+8.2}\n",
        "delta",
        r.schema_delta(),
        r.exact_delta(),
        r.bleu_delta(),
        r.aware_delta()
    ));
    out
}

/// Renders the grammar-constrained decoding experiment: per-generation-type
/// quality with and without the automaton, plus the correctness audit.
pub fn grammar_text(r: &GrammarResult) -> String {
    let mut out = format!(
        "Grammar-constrained decoding: fine-tuned CodeGen-Multi (ctx 1024), greedy decode \
         plain vs `{}` automaton, Table 5 harness\n",
        r.constraint
    );
    out.push_str(&format!(
        "{:<12} {:>5} {:>12} {:>12} {:>8} {:>11} {:>11} {:>8} {:>7}\n",
        "Type", "n", "Schema", "Schema[g]", "dSchema", "Aware", "Aware[g]", "dAware", "dBLEU"
    ));
    for row in &r.rows {
        out.push_str(&format!(
            "{:<12} {:>5} {:>12.2} {:>12.2} {:>+8.2} {:>11.2} {:>11.2} {:>+8.2} {:>+7.2}\n",
            row.label,
            row.count,
            row.unconstrained.schema_correct,
            row.constrained.schema_correct,
            row.schema_delta(),
            row.unconstrained.ansible_aware,
            row.constrained.ansible_aware,
            row.aware_delta(),
            row.bleu_delta()
        ));
    }
    out.push_str(&format!(
        "Correctness audit over constrained completions: {}/{} parse, {}/{} lint clean\n",
        r.parsed, r.completions, r.lint_clean, r.completions
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisdom_metrics::MetricsSummary;

    fn row(model: &str) -> Row {
        Row {
            model: model.to_string(),
            size: "350M".to_string(),
            ctx: 1024,
            metrics: MetricsSummary {
                count: 10,
                schema_correct: 90.0,
                exact_match: 10.0,
                bleu: 45.5,
                ansible_aware: 50.25,
            },
        }
    }

    #[test]
    fn table2_lists_every_model_with_checkmarks() {
        let t = table2_text();
        assert!(t.contains("CodeGen-NL 350M"));
        assert!(t.contains("Wisdom-Yaml-Multi 350M"));
        // Wisdom-Ansible-Multi inherits Pile+BigQuery checkmarks.
        let line = t
            .lines()
            .find(|l| l.starts_with("Wisdom-Ansible-Multi"))
            .unwrap();
        assert_eq!(line.matches('x').count(), 3, "{line}");
    }

    #[test]
    fn table3_renders_rows() {
        let rows: Vec<Row> = (0..7).map(|i| row(&format!("M{i}"))).collect();
        let t = table3_text(&rows);
        assert!(t.contains("M0"));
        assert!(t.contains("45.50"));
        assert!(t.contains("BLEU"));
    }

    #[test]
    fn table5_renders_counts() {
        let rows = vec![TypeRow {
            label: "ALL".to_string(),
            count: 123,
            metrics: row("x").metrics,
        }];
        let t = table5_text(&rows);
        assert!(t.contains("ALL"));
        assert!(t.contains("123"));
    }

    #[test]
    fn throughput_text_shows_speedup() {
        let t = throughput_text(&crate::experiments::ThroughputResult {
            small_tps: 200.0,
            large_tps: 100.0,
            small_prefill_tps: 900.0,
            large_prefill_tps: 600.0,
            large_prefill_seq_tps: 150.0,
        });
        assert!(t.contains("2.00x"));
        assert!(t.contains("4.00x"), "prefill speedup column: {t}");
        assert!(t.contains("600.0"));
    }

    #[test]
    fn quant_text_shows_signed_deltas() {
        let f32_metrics = row("x").metrics;
        let int8_metrics = MetricsSummary {
            bleu: 44.0,
            ..f32_metrics
        };
        let t = quant_text(&crate::experiments::QuantResult {
            f32_metrics,
            int8_metrics,
        });
        assert!(t.contains("-1.50"), "BLEU delta: {t}");
        assert!(t.contains("+0.00"), "unchanged deltas print signed: {t}");
    }
}
