//! End-to-end pipeline contracts on a real synthetic-corpus slice:
//!
//! * shard bytes and the stats manifest are byte-identical across worker
//!   counts {1, 2, 4} (the ISSUE's determinism acceptance criterion), with
//!   and without telemetry;
//! * injected near-duplicates with true shingle Jaccard ≥ 0.8 are recalled
//!   at ≥ 95%;
//! * a corpus of pairwise-disjoint documents suffers zero near-dup or
//!   exact-dup drops (no false drops);
//! * the curated output of the test corpus equals a recorded golden
//!   fingerprint, so a changed keep/drop decision fails even when every
//!   worker count agrees on it.

use wisdom_corpus::{Corpus, CorpusSpec};
use wisdom_curation::{
    corpus_docs, curate, jaccard, shingle_set, CurationConfig, CurationReport, CurationTelemetry,
    DocKind, InputDoc,
};
use wisdom_prng::Prng;
use wisdom_telemetry::Registry;

fn small_corpus() -> Corpus {
    Corpus::build(&CorpusSpec {
        seed: 23,
        galaxy_files: 40,
        gitlab_files: 12,
        github_ansible_files: 25,
        generic_files: 20,
        pile_docs: 8,
        pile_yaml_fraction: 0.1,
        bigquery_docs: 8,
        bigpython_docs: 8,
    })
}

fn config(workers: usize) -> CurationConfig {
    CurationConfig {
        workers,
        queue_depth: 8,
        shard_docs: 16,
        seed: 77,
        ..CurationConfig::default()
    }
}

type ShardFingerprint = Vec<(String, usize, u64, Vec<u8>)>;

fn output_fingerprint(report: &CurationReport) -> (ShardFingerprint, String) {
    (
        report
            .shards
            .iter()
            .map(|s| (s.name.clone(), s.docs, s.checksum, s.bytes.clone()))
            .collect(),
        report.manifest_json(),
    )
}

#[test]
fn shard_output_is_byte_identical_across_worker_counts() {
    let docs = corpus_docs(&small_corpus());
    let baseline = curate(docs.clone(), &config(1));
    assert!(baseline.kept > 0, "pipeline kept nothing");
    assert!(!baseline.shards.is_empty());
    let baseline_fp = output_fingerprint(&baseline);

    for workers in [2usize, 4] {
        let report = curate(docs.clone(), &config(workers));
        assert_eq!(
            output_fingerprint(&report),
            baseline_fp,
            "worker count {workers} changed the curated output"
        );
        assert_eq!(report, baseline, "full report differs at {workers} workers");
    }
}

/// The manifest of `curate(corpus_docs(small_corpus()))` at the settings of
/// `config`, recorded before the shingler, signature loop, score walk and
/// LSH index were rewritten for speed.
const GOLDEN_MANIFEST: &str = r#"{
  "ingested": 97,
  "ingested_bytes": 49048,
  "kept": 96,
  "kept_bytes": 48739,
  "dropped": {"parse": 0, "quality": 0, "exact_dup": 0, "near_dup": 1},
  "quality_hist": [0, 0, 0, 0, 0, 15, 0, 4, 15, 62],
  "sources": [
    {"source": "galaxy", "ingested": 40, "kept": 40},
    {"source": "gitlab", "ingested": 12, "kept": 12},
    {"source": "github", "ingested": 25, "kept": 25},
    {"source": "generic", "ingested": 20, "kept": 19}
  ],
  "shards": [
    {"name": "shard-00000.yamls", "docs": 16, "bytes": 10288, "checksum": "bd7dd0cde7a00e9c"},
    {"name": "shard-00001.yamls", "docs": 16, "bytes": 9106, "checksum": "0a32f789596cfd9c"},
    {"name": "shard-00002.yamls", "docs": 16, "bytes": 8961, "checksum": "226681a7635200ae"},
    {"name": "shard-00003.yamls", "docs": 16, "bytes": 9268, "checksum": "73091c2c73547f58"},
    {"name": "shard-00004.yamls", "docs": 16, "bytes": 8702, "checksum": "3c7b267f76d400ac"},
    {"name": "shard-00005.yamls", "docs": 16, "bytes": 5313, "checksum": "d0cf618059b08f31"}
  ]
}
"#;

#[test]
fn curated_output_matches_the_golden_fingerprint() {
    let report = curate(corpus_docs(&small_corpus()), &config(1));
    assert_eq!(report.manifest_json(), GOLDEN_MANIFEST);
    let checksums: Vec<u64> = report.shards.iter().map(|s| s.checksum).collect();
    assert_eq!(
        checksums,
        [
            0xbd7d_d0cd_e7a0_0e9c,
            0x0a32_f789_596c_fd9c,
            0x2266_81a7_6352_00ae,
            0x7309_1c2c_7354_7f58,
            0x3c7b_267f_76d4_00ac,
            0xd0cf_6180_59b0_8f31,
        ]
    );
    assert_eq!(report.near_dup_pairs, [(89, 88, 0.7734375)]);
}

#[test]
fn telemetry_does_not_change_the_output() {
    let docs = corpus_docs(&small_corpus());
    let plain = curate(docs.clone(), &config(2));
    let registry = Registry::new();
    let instrumented = curate(
        docs,
        &CurationConfig {
            telemetry: Some(CurationTelemetry::new(&registry)),
            ..config(2)
        },
    );
    assert_eq!(
        output_fingerprint(&plain),
        output_fingerprint(&instrumented)
    );
    // And the counters agree with the report.
    let text = registry.render();
    let sample = |series: &str| wisdom_telemetry::sample_value(&text, series).unwrap_or(-1.0);
    assert_eq!(
        sample("wisdom_curation_docs_total{stage=\"ingest\"}") as usize,
        instrumented.ingested
    );
    assert_eq!(
        sample("wisdom_curation_docs_total{stage=\"kept\"}") as usize,
        instrumented.kept
    );
}

/// Appends a parse-safe mutation (a trailing YAML comment, and a benign
/// value swap when present) that perturbs only a few shingles.
fn mutate(text: &str, i: usize, rng: &mut Prng) -> String {
    let mut out = text.replace("state: present", "state: latest");
    if out == text && rng.chance(0.5) {
        out = text.replace("enabled: true", "enabled: yes");
    }
    out.push_str(&format!(
        "# mirrored copy {i} tag {}\n",
        rng.range_usize(10, 99)
    ));
    out
}

#[test]
fn injected_near_duplicates_are_recalled_at_95_percent() {
    let corpus = small_corpus();
    let mut docs = corpus_docs(&corpus);
    let cfg = config(2);

    // First pass: find which documents the base pipeline keeps, so mutants
    // are injected only for surviving, big-enough documents.
    let base_report = curate(docs.clone(), &cfg);
    let kept_texts: Vec<String> = base_report
        .kept_docs
        .iter()
        .map(|(_, t)| t.clone())
        .collect();

    let mut rng = Prng::seed_from_u64(99);
    let mut injected = 0usize;
    let mut eligible_idx = Vec::new();
    for (i, text) in kept_texts.iter().enumerate() {
        let base_set = shingle_set(text, cfg.shingle_k);
        if base_set.len() < 40 {
            continue; // tiny docs can dip under 0.8 true Jaccard
        }
        let mutant = mutate(text, i, &mut rng);
        let true_j = jaccard(&base_set, &shingle_set(&mutant, cfg.shingle_k));
        if true_j < 0.8 {
            continue; // only pairs at the target similarity count
        }
        docs.push(InputDoc {
            source: "injected".to_string(),
            kind: DocKind::Ansible,
            text: mutant,
        });
        injected += 1;
        eligible_idx.push(i);
        if injected == 24 {
            break;
        }
    }
    assert!(
        injected >= 10,
        "corpus too small to inject from ({injected})"
    );

    let report = curate(docs, &cfg);
    let caught = report
        .per_source
        .iter()
        .find(|(s, _)| s == "injected")
        .map(|(_, c)| c.ingested - c.kept)
        .unwrap_or(0);
    let recall = caught as f64 / injected as f64;
    assert!(
        recall >= 0.95,
        "near-duplicate recall {recall:.3} ({caught}/{injected})"
    );
}

#[test]
fn zero_false_drops_on_a_distinct_corpus() {
    // Pairwise-disjoint vocabularies: nothing here is a near-duplicate of
    // anything else, so every parse-clean document must be kept.
    let docs: Vec<InputDoc> = (0..60)
        .map(|d| {
            let body: Vec<String> = (0..12)
                .map(|k| format!("key_{d}_{k}: value_{d}_{k}"))
                .collect();
            InputDoc {
                source: "distinct".to_string(),
                kind: DocKind::Generic,
                text: format!("{}\n", body.join("\n")),
            }
        })
        .collect();
    let report = curate(docs, &config(4));
    assert_eq!(report.near_dups, 0, "false near-dup drops");
    assert_eq!(report.exact_dups, 0, "false exact-dup drops");
    assert_eq!(report.kept, 60);
}
