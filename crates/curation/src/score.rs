//! Per-document quality scoring: parse, lint, schema and module awareness.
//!
//! The paper's curation keeps only YAML that parses, and lint-filters and
//! standardizes the Ansible fine-tuning channel. This module turns those
//! checks into one `[0, 1]` score per document so the pipeline can filter
//! on a single threshold and report a corpus-wide quality histogram:
//!
//! * every document must parse with `wisdom-yaml` (score 0 otherwise);
//! * Ansible documents are linted against the strict Schema Correct rules
//!   (the same module parameter schemas `wisdom-grammar` compiles into its
//!   decoding automaton — both read `wisdom_ansible::MODULES`), and scored
//!   on how many of their tasks resolve to a known module after FQCN
//!   normalization (the Ansible Aware machinery);
//! * generic YAML only has to parse; a small structure component spreads
//!   the histogram so trivial one-key files rank below real manifests.

use wisdom_ansible::{detect_target, lint_value, LintTarget, ModuleRegistry};
use wisdom_yaml::Value;

/// What a document claims to be, which decides the scoring rubric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocKind {
    /// Ansible playbook or task file: linted against the module schemas.
    Ansible,
    /// Generic YAML (CI configs, k8s manifests…): must parse, nothing more.
    Generic,
    /// Unknown provenance (e.g. an on-disk tree): sniffed per document —
    /// treated as Ansible when it looks like a playbook or any task
    /// resolves to a known module.
    Auto,
}

/// The scored quality facets of one document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DocScore {
    /// Whether `wisdom-yaml` parses the document.
    pub parsed: bool,
    /// Lint violations against the strict schema (Ansible rubric only).
    pub violations: usize,
    /// The per-sample Schema Correct predicate (no violations).
    pub schema_correct: bool,
    /// Fraction of task-shaped mappings resolving to a registry module.
    pub module_aware: f64,
    /// The combined `[0, 1]` quality score the pipeline filters on.
    pub quality: f64,
}

/// Counts `(task_like, module_hits)` over the document's task positions: a
/// sequence-item mapping that is not a play header and carries a `name` key
/// or resolves a module key is task-like; a module hit resolves one of its
/// keys in the registry (`apt` and `ansible.builtin.apt` both hit).
/// Module-argument mappings are not descended into, so an
/// `apt: {name: nginx}` args block never masquerades as an unresolved task.
///
/// It runs on the parsed value as written, where a string argument is
/// opaque. Walking a `normalize_document` clone instead scores one shape
/// differently, and this walk differs there on purpose: normalization
/// parses an unknown module's `k=v` string into a mapping of YAML values, so
/// `my.mod: opts=[{name:y}]` would add a task `{name: y}` (one more
/// `task_like`, a lower `module_aware`) that was never written as a task.
/// Everywhere else the counts are the same: normalization renames module
/// keys (which `is_module` accepts in either spelling), reorders keys
/// (which are not counted in order) and reshapes known modules' arguments
/// (which are not entered).
fn module_stats(value: &Value, reg: &ModuleRegistry, task_like: &mut usize, hits: &mut usize) {
    if let Some(items) = value.as_seq() {
        for item in items {
            let Some(map) = item.as_map() else { continue };
            // Each key is resolved once: a module key makes the item a
            // module hit; any other value is recursed into to reach nested
            // task lists (`tasks:`, `block:`, `rescue:`…) without entering
            // module args.
            let mut resolves = false;
            for (k, v) in map.iter() {
                if reg.is_module(k) {
                    resolves = true;
                } else {
                    module_stats(v, reg, task_like, hits);
                }
            }
            let is_play = map.contains_key("hosts") || map.contains_key("import_playbook");
            if !is_play && (resolves || map.contains_key("name")) {
                *task_like += 1;
                if resolves {
                    *hits += 1;
                }
            }
        }
    } else if let Some(map) = value.as_map() {
        for v in map.values() {
            module_stats(v, reg, task_like, hits);
        }
    }
}

/// Counts mapping entries recursively (the structure signal for generic
/// YAML: a real manifest has dozens, a stub has one or two).
fn mapping_entries(value: &Value) -> usize {
    match value {
        Value::Seq(items) => items.iter().map(mapping_entries).sum(),
        Value::Map(map) => map.len() + map.values().map(mapping_entries).sum::<usize>(),
        _ => 0,
    }
}

/// Scores one document under the given rubric.
///
/// # Examples
///
/// ```
/// use wisdom_curation::{score_document, DocKind};
///
/// let good = "- name: Ping the host\n  ansible.builtin.ping: {}\n";
/// let s = score_document(good, DocKind::Ansible);
/// assert!(s.parsed && s.schema_correct && s.quality > 0.9);
///
/// let broken = "key: [unclosed\n";
/// assert_eq!(score_document(broken, DocKind::Generic).quality, 0.0);
/// ```
pub fn score_document(text: &str, kind: DocKind) -> DocScore {
    let Ok(value) = wisdom_yaml::parse(text) else {
        return DocScore {
            parsed: false,
            violations: 0,
            schema_correct: false,
            module_aware: 0.0,
            quality: 0.0,
        };
    };
    let (mut task_like, mut hits) = (0usize, 0usize);
    module_stats(&value, ModuleRegistry::global(), &mut task_like, &mut hits);
    let module_aware = if task_like == 0 {
        0.0
    } else {
        hits as f64 / task_like as f64
    };

    let ansible = match kind {
        DocKind::Ansible => true,
        DocKind::Generic => false,
        DocKind::Auto => hits > 0 || detect_target(&value) == LintTarget::Playbook,
    };

    if ansible {
        let violations = lint_value(&value, LintTarget::Auto).len();
        let schema_correct = violations == 0;
        let lint_component = 1.0 / (1.0 + violations as f64);
        // Parse (0.25) + lint proximity (0.35) + strict Schema Correct
        // (0.25) + module awareness (0.15).
        let quality = 0.25
            + 0.35 * lint_component
            + if schema_correct { 0.25 } else { 0.0 }
            + 0.15 * module_aware;
        DocScore {
            parsed: true,
            violations,
            schema_correct,
            module_aware,
            quality,
        }
    } else {
        // Generic rubric: parsing is most of the score; structure richness
        // (mapping entries) spreads the rest.
        let entries = mapping_entries(&value) as f64;
        let quality = 0.5 + 0.5 * (entries / (entries + 8.0));
        DocScore {
            parsed: true,
            violations: 0,
            schema_correct: false,
            module_aware,
            quality,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_correct_ansible_scores_high() {
        let doc =
            "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n";
        let s = score_document(doc, DocKind::Ansible);
        assert!(s.parsed);
        assert!(s.schema_correct);
        assert_eq!(s.violations, 0);
        assert!(s.module_aware > 0.99);
        assert!(s.quality > 0.95, "quality {}", s.quality);
    }

    #[test]
    fn violating_ansible_scores_lower_than_clean() {
        let clean = "- name: Ping\n  ansible.builtin.ping: {}\n";
        let dirty = "- name: Ping\n  ansible.builtin.ping: {}\n  bogus_keyword: 1\n";
        let sc = score_document(clean, DocKind::Ansible);
        let sd = score_document(dirty, DocKind::Ansible);
        assert!(sd.violations > 0);
        assert!(!sd.schema_correct);
        assert!(sd.quality < sc.quality);
    }

    #[test]
    fn unparseable_scores_zero() {
        let s = score_document(": : :\n  - [\n", DocKind::Ansible);
        assert!(!s.parsed);
        assert_eq!(s.quality, 0.0);
    }

    #[test]
    fn generic_yaml_only_needs_to_parse() {
        let k8s = "apiVersion: v1\nkind: Service\nmetadata:\n  name: web\nspec:\n  ports:\n    - port: 80\n";
        let s = score_document(k8s, DocKind::Generic);
        assert!(s.parsed);
        assert_eq!(s.violations, 0);
        assert!(s.quality > 0.5);
    }

    #[test]
    fn richer_generic_docs_outscore_stubs() {
        let stub = "key: value\n";
        let rich = "a: 1\nb: 2\nc:\n  d: 3\n  e: 4\n  f:\n    g: 5\n    h: 6\n";
        assert!(
            score_document(rich, DocKind::Generic).quality
                > score_document(stub, DocKind::Generic).quality
        );
    }

    fn stats(value: &Value) -> (usize, usize) {
        let (mut task_like, mut hits) = (0, 0);
        module_stats(value, ModuleRegistry::global(), &mut task_like, &mut hits);
        (task_like, hits)
    }

    fn assert_raw_stats_match_normalized(value: &Value) {
        let normalized = wisdom_ansible::normalize_document(value);
        assert_eq!(
            stats(value),
            stats(&normalized),
            "module_stats differs after normalization:\n{}",
            wisdom_yaml::emit(value)
        );
    }

    #[test]
    fn module_stats_on_raw_corpus_documents_match_normalized() {
        let corpus = wisdom_corpus::Corpus::build(&wisdom_corpus::CorpusSpec {
            seed: 5,
            galaxy_files: 40,
            gitlab_files: 16,
            github_ansible_files: 24,
            generic_files: 24,
            pile_docs: 8,
            pile_yaml_fraction: 0.1,
            bigquery_docs: 8,
            bigpython_docs: 8,
        });
        let mut parsed = 0;
        for doc in crate::corpus_docs(&corpus) {
            if let Ok(value) = wisdom_yaml::parse(&doc.text) {
                assert_raw_stats_match_normalized(&value);
                parsed += 1;
            }
        }
        assert!(parsed > 100, "only {parsed} corpus documents parsed");
    }

    /// The one shape scored differently from the normalized walk, on
    /// purpose: an unknown module's `k=v` string that holds a flow sequence
    /// of mappings is an argument, not a task.
    #[test]
    fn kv_strings_of_unknown_modules_stay_opaque() {
        let value =
            wisdom_yaml::parse("- name: Outer\n  my.custom.module: opts=[{name:inner}]\n").unwrap();
        assert_eq!(stats(&value), (1, 0));
        assert_eq!(stats(&wisdom_ansible::normalize_document(&value)), (2, 0));
    }

    /// A random Ansible-shaped tree: plays or task lists, tasks with known
    /// modules in either spelling, unknown modules, `k=v` / free-form /
    /// mapping / list arguments, keywords, nested blocks, shuffled keys.
    fn random_doc(rng: &mut wisdom_prng::Prng) -> Value<'static> {
        fn scalar(rng: &mut wisdom_prng::Prng) -> Value<'static> {
            const WORDS: [&str; 8] = ["nginx", "present", "yes", "0644", "/etc/x", "a=b", "", "1"];
            match rng.range_usize(0, 4) {
                0 => Value::Int(rng.range_usize(0, 100) as i64),
                1 => Value::Bool(rng.chance(0.5)),
                _ => Value::from(WORDS[rng.range_usize(0, WORDS.len())]),
            }
        }
        fn args(rng: &mut wisdom_prng::Prng, depth: usize) -> Value<'static> {
            const KV: [&str; 6] = [
                "name=nginx state=present",
                "src=a dest=b mode=0644",
                "msg='hello world'",
                "state={{ wanted }}",
                "systemctl restart nginx",
                "name=x",
            ];
            match rng.range_usize(0, 5) {
                0 => Value::from(KV[rng.range_usize(0, KV.len())]),
                1 => Value::Null,
                2 => Value::Map(
                    (0..rng.range_usize(0, 3))
                        .map(|i| (["name", "state", "dest"][i], scalar(rng)))
                        .collect(),
                ),
                3 if depth < 3 => tasks(rng, depth + 1),
                _ => scalar(rng),
            }
        }
        fn task(rng: &mut wisdom_prng::Prng, depth: usize) -> Value<'static> {
            const MODULES: [&str; 8] = [
                "apt",
                "ansible.builtin.apt",
                "copy",
                "ansible.builtin.service",
                "shell",
                "my.custom.module",
                "frobnicate",
                "hosts_helper",
            ];
            let mut entries: Vec<(&str, Value)> = Vec::new();
            if rng.chance(0.7) {
                entries.push(("name", Value::from("Do it")));
            }
            if depth < 3 && rng.chance(0.15) {
                entries.push(("block", tasks(rng, depth + 1)));
                if rng.chance(0.5) {
                    entries.push(("rescue", tasks(rng, depth + 1)));
                }
            } else if rng.chance(0.9) {
                let module = MODULES[rng.range_usize(0, MODULES.len())];
                entries.push((module, args(rng, depth)));
            }
            for keyword in ["when", "become", "tags", "notify", "loop"] {
                if rng.chance(0.25) {
                    let v = if depth < 3 && rng.chance(0.3) {
                        args(rng, depth + 1)
                    } else {
                        scalar(rng)
                    };
                    entries.push((keyword, v));
                }
            }
            for i in (1..entries.len()).rev() {
                entries.swap(i, rng.range_usize(0, i + 1));
            }
            Value::Map(entries.into_iter().collect())
        }
        fn tasks(rng: &mut wisdom_prng::Prng, depth: usize) -> Value<'static> {
            Value::Seq(
                (0..rng.range_usize(0, 4))
                    .map(|_| task(rng, depth))
                    .collect(),
            )
        }
        if rng.chance(0.4) {
            let plays = (0..rng.range_usize(1, 3))
                .map(|_| {
                    let mut play: Vec<(&str, Value)> =
                        vec![("hosts", Value::from("all")), ("name", Value::from("Play"))];
                    for key in ["tasks", "handlers", "pre_tasks", "roles"] {
                        if rng.chance(0.5) {
                            play.push((key, tasks(rng, 1)));
                        }
                    }
                    play.reverse();
                    Value::Map(play.into_iter().collect())
                })
                .collect();
            Value::Seq(plays)
        } else if rng.chance(0.8) {
            tasks(rng, 0)
        } else {
            task(rng, 0)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn module_stats_on_raw_value_match_normalized(seed in proptest::prelude::any::<u64>()) {
            let value = random_doc(&mut wisdom_prng::Prng::seed_from_u64(seed));
            assert_raw_stats_match_normalized(&value);
        }
    }

    #[test]
    fn auto_kind_sniffs_ansible() {
        let task_file = "- name: Ping\n  ansible.builtin.ping: {}\n  bogus_keyword: 1\n";
        let s = score_document(task_file, DocKind::Auto);
        // Sniffed as Ansible: violations are counted.
        assert!(s.violations > 0);
        let generic = "stages:\n  - build\n  - test\n";
        let g = score_document(generic, DocKind::Auto);
        assert_eq!(g.violations, 0);
    }
}
