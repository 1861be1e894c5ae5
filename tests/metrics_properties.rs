//! Property-based tests of the metric invariants on generated Ansible
//! content: the metrics must behave like the paper describes for *any*
//! corpus sample, not just hand-picked examples.

use ansible_wisdom::ansible::{normalize_task, Task};
use ansible_wisdom::corpus::{extract_samples, generate_role_file, FileCtx};
use ansible_wisdom::metrics::{ansible_aware, exact_match, schema_correct, sentence_bleu};
use ansible_wisdom::prng::Prng;
use ansible_wisdom::yaml::Value;
use proptest::prelude::*;

/// Deterministically generates a galaxy-style role file from a seed.
fn role_file(seed: u64) -> String {
    let mut rng = Prng::seed_from_u64(seed);
    let ctx = FileCtx::galaxy(&mut rng);
    let tasks = generate_role_file(&ctx, &mut rng);
    ansible_wisdom::corpus::emit_task_file(&tasks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Identity: every gold sample scores 100 on all four metrics.
    #[test]
    fn gold_is_perfect(seed in 0u64..10_000) {
        let file = role_file(seed);
        for s in extract_samples(&file) {
            prop_assert!(exact_match(&s.expected, &s.expected));
            prop_assert!((sentence_bleu(&s.expected, &s.expected) - 100.0).abs() < 1e-6);
            let doc = s.scoring_document(&s.expected);
            prop_assert!((ansible_aware(&doc, &doc) - 100.0).abs() < 1e-6, "doc:\n{}", doc);
            prop_assert!(schema_correct(&doc), "doc:\n{}", doc);
        }
    }

    /// Boundedness: Ansible Aware and BLEU stay within [0, 100] against a
    /// *different* sample's output.
    #[test]
    fn cross_sample_scores_bounded(seed_a in 0u64..5_000, seed_b in 5_000u64..10_000) {
        let sa = extract_samples(&role_file(seed_a));
        let sb = extract_samples(&role_file(seed_b));
        if let (Some(a), Some(b)) = (sa.first(), sb.first()) {
            let aware = ansible_aware(
                &a.scoring_document(&a.expected),
                &b.scoring_document(&b.expected),
            );
            prop_assert!((0.0..=100.0).contains(&aware), "{aware}");
            let bleu = sentence_bleu(&a.expected, &b.expected);
            prop_assert!((0.0..=100.0).contains(&bleu), "{bleu}");
            // Cross scores are (almost) never perfect.
            prop_assert!(bleu < 100.0 || a.expected == b.expected);
        }
    }

    /// Normalization invariance: Ansible Aware is unchanged by task key
    /// reordering (the paper: "the order of the key-value pairs is not
    /// significant").
    #[test]
    fn aware_invariant_under_key_order(seed in 0u64..10_000) {
        let file = role_file(seed);
        let Ok(value) = ansible_wisdom::yaml::parse(&file) else { return Ok(()); };
        let Some(items) = value.as_seq() else { return Ok(()); };
        for item in items.iter().take(2) {
            let Ok(task) = Task::from_value(item) else { continue };
            let gold = ansible_wisdom::yaml::emit(&Value::Seq(vec![task.to_value()]));
            // Reversed key order: keywords first, module, then name.
            let mut reversed = ansible_wisdom::yaml::Mapping::new();
            for (k, v) in task.keywords.iter() {
                reversed.insert(k.to_string(), v.clone());
            }
            reversed.insert(task.module.clone(), task.args.clone());
            if let Some(name) = &task.name {
                reversed.insert("name", Value::from(name.clone()));
            }
            let shuffled = ansible_wisdom::yaml::emit(&Value::Seq(vec![Value::Map(reversed)]));
            let score = ansible_aware(&gold, &shuffled);
            prop_assert!((score - 100.0).abs() < 1e-6, "reorder changed score to {score}\n{gold}\nvs\n{shuffled}");
        }
    }

    /// Degradation: deleting the last parameter of the module args lowers
    /// (never raises) the Ansible Aware score, and keeps it above zero when
    /// other parameters remain.
    #[test]
    fn aware_decreases_when_param_dropped(seed in 0u64..10_000) {
        let file = role_file(seed);
        let Ok(value) = ansible_wisdom::yaml::parse(&file) else { return Ok(()); };
        let Some(items) = value.as_seq() else { return Ok(()); };
        let Some(first) = items.first() else { return Ok(()); };
        let Ok(task) = Task::from_value(first) else { return Ok(()); };
        let Some(args) = task.args.as_map() else { return Ok(()); };
        if args.len() < 2 {
            return Ok(());
        }
        let gold_doc = ansible_wisdom::yaml::emit(&Value::Seq(vec![task.to_value()]));
        let mut damaged = task.clone();
        let last_key = args.keys().last().expect("len >= 2").to_string();
        damaged
            .args
            .as_map_mut()
            .expect("map checked")
            .remove(&last_key);
        let damaged_doc = ansible_wisdom::yaml::emit(&Value::Seq(vec![damaged.to_value()]));
        let score = ansible_aware(&gold_doc, &damaged_doc);
        prop_assert!(score < 100.0, "dropping {last_key} did not lower the score");
        prop_assert!(score > 0.0);
    }

    /// Normalization idempotence on arbitrary generated tasks.
    #[test]
    fn normalize_is_idempotent(seed in 0u64..10_000) {
        let file = role_file(seed);
        let Ok(value) = ansible_wisdom::yaml::parse(&file) else { return Ok(()); };
        if let Some(items) = value.as_seq() {
            for item in items {
                let once = normalize_task(item);
                let twice = normalize_task(&once);
                prop_assert_eq!(&once, &twice);
            }
        }
    }
}
