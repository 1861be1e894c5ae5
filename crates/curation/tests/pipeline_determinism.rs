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
//!   worker count agrees on it;
//! * inputs cut at and around the pipeline's chunk edges, with duplicates
//!   straddling them, give the report a sequential replay of the public
//!   pieces gives, at every worker count and queue depth.

use wisdom_corpus::{Corpus, CorpusSpec};
use wisdom_curation::{
    corpus_docs, curate, jaccard, score_document, shingle_set, CurationConfig, CurationReport,
    CurationTelemetry, DocKind, ExactDedup, InputDoc, MinHasher, NearDedup, NearVerdict,
    ShardWriter, SourceCounts,
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

/// The pipeline's chunk length (the private `CHUNK` in `src/pipeline.rs`):
/// workers claim, and hand over, this many consecutive documents at once.
const CHUNK: usize = 64;

/// What `curate` must return, computed one document at a time from the
/// crate's public pieces: score → shingle/sign → exact → near → shard.
fn sequential_reference(docs: &[InputDoc], config: &CurationConfig) -> CurationReport {
    let hasher = MinHasher::new(config.seed, config.bands, config.rows);
    let floor = NearDedup::floor_for_target(config.target_similarity, hasher.lanes());
    let mut exact = ExactDedup::new();
    let mut near = NearDedup::new(hasher.clone(), floor);
    let mut writer = ShardWriter::new(config.shard_docs);
    let mut kept_seq = Vec::new();
    let mut report = CurationReport {
        ingested: 0,
        ingested_bytes: 0,
        parse_failed: 0,
        quality_rejected: 0,
        exact_dups: 0,
        near_dups: 0,
        kept: 0,
        kept_bytes: 0,
        quality_hist: [0; 10],
        per_source: Vec::new(),
        shards: Vec::new(),
        kept_docs: Vec::new(),
        near_dup_pairs: Vec::new(),
    };
    for (seq, doc) in docs.iter().enumerate() {
        report.ingested += 1;
        report.ingested_bytes += doc.text.len();
        let source = match report.per_source.iter().position(|(s, _)| *s == doc.source) {
            Some(i) => i,
            None => {
                report
                    .per_source
                    .push((doc.source.clone(), SourceCounts::default()));
                report.per_source.len() - 1
            }
        };
        report.per_source[source].1.ingested += 1;
        let score = score_document(&doc.text, doc.kind);
        let signature = hasher.signature(&shingle_set(&doc.text, config.shingle_k));
        if !score.parsed {
            report.parse_failed += 1;
            continue;
        }
        if score.quality < config.min_quality {
            report.quality_rejected += 1;
            continue;
        }
        if !exact.insert(&doc.text) {
            report.exact_dups += 1;
            continue;
        }
        match near.offer(&signature) {
            NearVerdict::Kept(_) => kept_seq.push(seq),
            NearVerdict::Duplicate { of, estimate } => {
                report.near_dups += 1;
                report.near_dup_pairs.push((seq, kept_seq[of], estimate));
                continue;
            }
        }
        report.kept += 1;
        report.kept_bytes += doc.text.len();
        report.per_source[source].1.kept += 1;
        report.quality_hist[((score.quality * 10.0) as usize).min(9)] += 1;
        writer.add(&doc.source, &doc.text);
        if config.keep_texts {
            report
                .kept_docs
                .push((doc.source.clone(), doc.text.clone()));
        }
    }
    report.shards = writer.finish();
    report
}

/// The first `len` corpus documents with duplicates placed across chunk
/// edges: a copy of the first document last (first chunk to last), and at
/// every edge inside the input an exact copy of the document before it and
/// a near copy of the one before that.
fn cut_with_edge_duplicates(corpus: &[InputDoc], len: usize) -> Vec<InputDoc> {
    let mut docs = corpus[..len].to_vec();
    if len >= 2 {
        docs[len - 1] = docs[0].clone();
    }
    for edge in (CHUNK..len).step_by(CHUNK) {
        docs[edge] = docs[edge - 1].clone();
        if edge + 1 < len {
            let mut near = docs[edge - 2].clone();
            near.text.push_str("# mirrored across a chunk edge\n");
            docs[edge + 1] = near;
        }
    }
    docs
}

#[test]
fn chunk_edges_do_not_change_a_decision() {
    let corpus = corpus_docs(&Corpus::build(&CorpusSpec::scaled(23, 4000)));
    for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5] {
        let docs = cut_with_edge_duplicates(&corpus, len);
        let reference = sequential_reference(&docs, &config(1));
        assert_eq!(reference.ingested, len);
        if len == 3 * CHUNK + 5 {
            // The injected pairs really are caught across the edges.
            assert!(reference.exact_dups >= 4, "{}", reference.exact_dups);
            assert!(
                reference
                    .near_dup_pairs
                    .iter()
                    .any(|&(dropped, kept, _)| dropped / CHUNK != kept / CHUNK),
                "{:?}",
                reference.near_dup_pairs
            );
        }
        for workers in [1, 2, 4] {
            for queue_depth in [1, 8, 64] {
                let report = curate(
                    docs.clone(),
                    &CurationConfig {
                        workers,
                        queue_depth,
                        ..config(1)
                    },
                );
                assert_eq!(
                    report, reference,
                    "{len} documents, {workers} workers, queue depth {queue_depth}"
                );
            }
        }
    }
}
