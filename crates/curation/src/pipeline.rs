//! The streaming curation pipeline: parse/lint/score/sketch (parallel
//! workers) → exact dedup → MinHash near-dedup → deterministic sharding.
//!
//! Threads exchange chunks, not documents. The input stays borrowed for
//! the whole pass; workers claim runs of `CHUNK` consecutive documents
//! through one atomic cursor and compute every *pure* per-document fact —
//! parse/lint/score results, the MinHash signature, its LSH band keys and
//! the exact-dedup content hash. Each chunk's facts reach the curator as
//! one message on a bounded channel (`crossbeam::channel`), so a slow
//! curator backpressures the workers instead of buffering the corpus.
//! Every order-sensitive decision — exact dedup, near dedup, quality
//! filtering, sharding — happens on the single curator thread, which
//! restores chunk order and admits documents in input order, reading texts
//! in place. Workers therefore only change *when* a document's facts
//! arrive, never *what* is decided from them, and the kept sequence, shard
//! bytes and manifest are byte-identical for any worker count.

use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{bounded, Receiver};
use wisdom_corpus::Corpus;
use wisdom_prng::FoldHash;
use wisdom_telemetry::{Counter, Gauge, Histogram, Registry};

use crate::dedup::{ExactDedup, NearDedup, NearVerdict};
use crate::score::{score_document, DocKind, DocScore};
use crate::shard::{Shard, ShardWriter};
use crate::shingle::{shingle_set, MinHasher, Signature};

/// One document entering the pipeline.
#[derive(Debug, Clone)]
pub struct InputDoc {
    /// Source channel label (`"galaxy"`, `"gitlab"`, `"disk:…"`, …).
    pub source: String,
    /// Which scoring rubric applies.
    pub kind: DocKind,
    /// The raw YAML text.
    pub text: String,
}

/// Pipeline configuration. `seed` drives every stochastic component (the
/// MinHash lane seeds) through `wisdom-prng`, so one seed pins the whole
/// curated output.
#[derive(Debug, Clone)]
pub struct CurationConfig {
    /// Parallel parse/lint/score/sketch workers.
    pub workers: usize,
    /// Documents the channel from the workers to the curator may hold (the
    /// backpressure window), rounded up to whole chunks.
    pub queue_depth: usize,
    /// Documents per output shard.
    pub shard_docs: usize,
    /// Tokens per shingle.
    pub shingle_k: usize,
    /// LSH bands.
    pub bands: usize,
    /// MinHash lanes per band.
    pub rows: usize,
    /// True-Jaccard similarity the near-dedup stage must reliably remove;
    /// the rejection floor is set two estimator standard errors below it.
    pub target_similarity: f64,
    /// Minimum quality score a document must reach to be kept.
    pub min_quality: f64,
    /// Master seed for the MinHash family.
    pub seed: u64,
    /// Whether to keep the curated texts in the report (in addition to the
    /// framed shard bytes).
    pub keep_texts: bool,
    /// Optional pre-resolved telemetry handles.
    pub telemetry: Option<CurationTelemetry>,
}

impl Default for CurationConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_depth: 64,
            shard_docs: 256,
            shingle_k: 3,
            bands: 32,
            rows: 4,
            target_similarity: 0.8,
            min_quality: 0.35,
            seed: 0,
            keep_texts: true,
            telemetry: None,
        }
    }
}

/// Pre-resolved telemetry handles for every stage, following the repo's
/// handle-bundle pattern: resolving label sets once up front keeps the hot
/// path at one or two relaxed atomic ops per event.
#[derive(Clone)]
pub struct CurationTelemetry {
    ingested: Arc<Counter>,
    ingested_bytes: Arc<Counter>,
    processed: Arc<Counter>,
    kept: Arc<Counter>,
    kept_bytes: Arc<Counter>,
    dropped_parse: Arc<Counter>,
    dropped_quality: Arc<Counter>,
    dropped_exact: Arc<Counter>,
    dropped_near: Arc<Counter>,
    parse_queue: Arc<Gauge>,
    curate_queue: Arc<Gauge>,
    process_seconds: Arc<Histogram>,
    curate_seconds: Arc<Histogram>,
}

impl CurationTelemetry {
    /// Registers the `wisdom_curation_*` metric families on `registry` and
    /// resolves the handles the pipeline records through.
    pub fn new(registry: &Registry) -> Self {
        let docs = |stage: &str| {
            registry.counter_with(
                "wisdom_curation_docs_total",
                "Documents passing each curation stage.",
                &[("stage", stage)],
            )
        };
        let dropped = |reason: &str| {
            registry.counter_with(
                "wisdom_curation_dropped_total",
                "Documents dropped by the curation pipeline, by reason.",
                &[("reason", reason)],
            )
        };
        let bytes = |stage: &str| {
            registry.counter_with(
                "wisdom_curation_bytes_total",
                "Document bytes passing each curation stage.",
                &[("stage", stage)],
            )
        };
        let queue = |name: &str| {
            registry.gauge_with(
                "wisdom_curation_queue_depth",
                "Documents waiting: unclaimed (parse) or in the chunk channel (curate).",
                &[("queue", name)],
            )
        };
        let seconds = |stage: &str| {
            registry.histogram_with(
                "wisdom_curation_stage_seconds",
                "Per-document stage latency.",
                &[("stage", stage)],
                &Histogram::latency_buckets(),
            )
        };
        Self {
            ingested: docs("ingest"),
            ingested_bytes: bytes("ingest"),
            processed: docs("processed"),
            kept: docs("kept"),
            kept_bytes: bytes("kept"),
            dropped_parse: dropped("parse"),
            dropped_quality: dropped("quality"),
            dropped_exact: dropped("exact_dup"),
            dropped_near: dropped("near_dup"),
            parse_queue: queue("parse"),
            curate_queue: queue("curate"),
            process_seconds: seconds("process"),
            curate_seconds: seconds("curate"),
        }
    }
}

impl std::fmt::Debug for CurationTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CurationTelemetry").finish_non_exhaustive()
    }
}

/// Why a document was dropped (manifest bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Did not parse as YAML.
    Parse,
    /// Parsed but scored below `min_quality`.
    Quality,
    /// Byte-identical to an earlier kept document.
    ExactDup,
    /// Estimated Jaccard against a kept document reached the floor.
    NearDup,
}

/// Per-source counters for the manifest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceCounts {
    /// Documents ingested from this source.
    pub ingested: usize,
    /// Documents kept from this source.
    pub kept: usize,
}

/// Everything the pipeline produced: shards, counts, and the quality
/// histogram. Excludes wall-clock, so two runs over the same input with the
/// same config — at any worker count — compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct CurationReport {
    /// Documents ingested.
    pub ingested: usize,
    /// Bytes ingested.
    pub ingested_bytes: usize,
    /// Dropped: unparseable YAML.
    pub parse_failed: usize,
    /// Dropped: below the quality floor.
    pub quality_rejected: usize,
    /// Dropped: exact duplicates (content-confirmed).
    pub exact_dups: usize,
    /// Dropped: MinHash near-duplicates.
    pub near_dups: usize,
    /// Documents kept.
    pub kept: usize,
    /// Bytes kept (raw text, without shard framing).
    pub kept_bytes: usize,
    /// Ten-bin histogram of kept-document quality scores over `[0, 1]`.
    pub quality_hist: [usize; 10],
    /// Per-source ingested/kept counts, in first-seen order.
    pub per_source: Vec<(String, SourceCounts)>,
    /// The sealed shards.
    pub shards: Vec<Shard>,
    /// Kept `(source, text)` pairs when `keep_texts` was set.
    pub kept_docs: Vec<(String, String)>,
    /// For each near-duplicate drop: `(dropped_ingest_index, kept_index,
    /// estimated_jaccard)` — the evidence trail recall tests audit.
    pub near_dup_pairs: Vec<(usize, usize, f64)>,
}

impl CurationReport {
    /// Renders the deterministic stats manifest (JSON). Everything in it is
    /// a pure function of input + config, so it is committed alongside the
    /// shards and compared across worker counts in tests.
    pub fn manifest_json(&self) -> String {
        let mut sources = String::new();
        for (i, (name, c)) in self.per_source.iter().enumerate() {
            if i > 0 {
                sources.push_str(",\n");
            }
            sources.push_str(&format!(
                "    {{\"source\": \"{}\", \"ingested\": {}, \"kept\": {}}}",
                name, c.ingested, c.kept
            ));
        }
        let mut shards = String::new();
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                shards.push_str(",\n");
            }
            shards.push_str(&format!(
                "    {{\"name\": \"{}\", \"docs\": {}, \"bytes\": {}, \"checksum\": \"{:016x}\"}}",
                s.name,
                s.docs,
                s.bytes.len(),
                s.checksum
            ));
        }
        let hist: Vec<String> = self.quality_hist.iter().map(|c| c.to_string()).collect();
        format!(
            "{{\n  \"ingested\": {},\n  \"ingested_bytes\": {},\n  \"kept\": {},\n  \
             \"kept_bytes\": {},\n  \"dropped\": {{\"parse\": {}, \"quality\": {}, \
             \"exact_dup\": {}, \"near_dup\": {}}},\n  \
             \"quality_hist\": [{}],\n  \"sources\": [\n{}\n  ],\n  \"shards\": [\n{}\n  ]\n}}\n",
            self.ingested,
            self.ingested_bytes,
            self.kept,
            self.kept_bytes,
            self.parse_failed,
            self.quality_rejected,
            self.exact_dups,
            self.near_dups,
            hist.join(", "),
            sources,
            shards
        )
    }
}

/// Consecutive documents a worker claims at once, and so the unit the
/// threads exchange: one channel message carries one chunk's facts. On the
/// benchmark corpus a pass took the same time within noise at 16, 32, 64
/// and 128; 64 makes ~30 hand-offs a pass and leaves a short last chunk.
const CHUNK: usize = 64;

/// The pure facts a worker computes for one document.
struct Facts {
    score: DocScore,
    /// The text's exact-dedup content hash, under the pass's key.
    hash: u64,
    signature: Signature,
}

/// One chunk's facts: a worker's whole hand-off to the curator.
struct ChunkFacts {
    /// Documents `index * CHUNK ..` of the input, at most `CHUNK` of them.
    index: usize,
    facts: Vec<Facts>,
    /// The LSH band keys of every document in `facts`, `bands` each, back
    /// to back in the same order.
    band_keys: Vec<u64>,
}

#[cfg(test)]
thread_local! {
    /// Chunk messages the curator received on this thread: the count the
    /// hand-off test reads. `curate` runs its curator on the caller's thread.
    static HANDOFFS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Runs the full pipeline over `docs` and returns the report.
///
/// # Panics
///
/// Panics if `config.workers == 0` or `config.queue_depth == 0`, and if a
/// worker panics (the curator then names the chunk it never received).
pub fn curate(docs: Vec<InputDoc>, config: &CurationConfig) -> CurationReport {
    assert!(config.workers > 0, "at least one worker required");
    let hasher = MinHasher::new(config.seed, config.bands, config.rows);
    let chunks = docs.len().div_ceil(CHUNK);
    // `queue_depth` counts documents; the channel holds whole chunks.
    let (tx, rx) = bounded::<ChunkFacts>(config.queue_depth.div_ceil(CHUNK));
    // The next chunk to claim. `Relaxed` suffices: it hands out indices and
    // publishes no data (the input was published by the spawn).
    let cursor = AtomicUsize::new(0);
    // Documents sent to the curator and not yet received (telemetry only).
    let queued = AtomicUsize::new(0);

    let curator = Curator::new(&docs, config, &hasher);
    // The key the curator's exact-dedup filter drew for this pass.
    let content = curator.exact.content_hasher();

    let (mut report, kept_seq) = crossbeam::scope(|scope| {
        for _ in 0..config.workers {
            let tx = tx.clone();
            let (docs, hasher, cursor, queued) = (&docs, &hasher, &cursor, &queued);
            scope.spawn(move |_| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= chunks {
                    break;
                }
                let chunk = sketch_chunk(index, docs, hasher, content, config);
                if let Some(t) = &config.telemetry {
                    let docs = chunk.facts.len();
                    t.curate_queue
                        .set((queued.fetch_add(docs, Ordering::Relaxed) + docs) as f64);
                }
                if tx.send(chunk).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        curator.run(rx, chunks, &queued)
    })
    .expect("curation scope");

    if config.keep_texts {
        // Move the kept texts out of the input instead of copying them.
        let mut kept = kept_seq.into_iter().peekable();
        report.kept_docs = docs
            .into_iter()
            .enumerate()
            .filter(|&(seq, _)| kept.next_if_eq(&seq).is_some())
            .map(|(_, doc)| (doc.source, doc.text))
            .collect();
    }
    report
}

/// A worker's job for chunk `index`: every pure per-document fact.
fn sketch_chunk(
    index: usize,
    docs: &[InputDoc],
    hasher: &MinHasher,
    content: FoldHash,
    config: &CurationConfig,
) -> ChunkFacts {
    let start = index * CHUNK;
    let end = docs.len().min(start + CHUNK);
    let run = &docs[start..end];
    let telemetry = config.telemetry.as_ref();
    if let Some(t) = telemetry {
        t.ingested.add(run.len() as u64);
        t.ingested_bytes
            .add(run.iter().map(|doc| doc.text.len() as u64).sum());
        t.parse_queue.set((docs.len() - end) as f64);
    }
    let mut band_keys = Vec::with_capacity(run.len() * hasher.bands());
    let facts = run
        .iter()
        .map(|doc| {
            let started = telemetry.map(|_| Instant::now());
            let signature = hasher.signature(&shingle_set(&doc.text, config.shingle_k));
            hasher.push_band_keys(&signature, &mut band_keys);
            let facts = Facts {
                score: score_document(&doc.text, doc.kind),
                hash: content.hash_one(&doc.text),
                signature,
            };
            if let (Some(t), Some(started)) = (telemetry, started) {
                t.process_seconds.observe(started.elapsed().as_secs_f64());
            }
            facts
        })
        .collect();
    if let Some(t) = telemetry {
        t.processed.add(run.len() as u64);
    }
    ChunkFacts {
        index,
        facts,
        band_keys,
    }
}

/// The single thread that makes every order-dependent decision. It reads
/// texts and sources in place in the input, which outlives it.
struct Curator<'a> {
    docs: &'a [InputDoc],
    config: &'a CurationConfig,
    exact: ExactDedup<'a>,
    near: NearDedup,
    writer: ShardWriter,
    /// Maps `NearDedup` kept-indices back to ingest sequence numbers.
    kept_seq: Vec<usize>,
    report: CurationReport,
}

impl<'a> Curator<'a> {
    fn new(docs: &'a [InputDoc], config: &'a CurationConfig, hasher: &MinHasher) -> Self {
        let floor = NearDedup::floor_for_target(config.target_similarity, hasher.lanes());
        Self {
            docs,
            config,
            exact: ExactDedup::new(),
            near: NearDedup::new(hasher.clone(), floor),
            writer: ShardWriter::new(config.shard_docs),
            kept_seq: Vec::new(),
            report: CurationReport {
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
            },
        }
    }

    /// Admits the `chunks` chunks arriving on `rx` in chunk order. Returns
    /// the report (without `kept_docs`) and the kept documents' sequence
    /// numbers, ascending.
    fn run(
        mut self,
        rx: Receiver<ChunkFacts>,
        chunks: usize,
        queued: &AtomicUsize,
    ) -> (CurationReport, Vec<usize>) {
        let mut pending: HashMap<usize, ChunkFacts> = HashMap::new();
        let mut next = 0usize;
        // No hang: a worker blocks only in `send`, on the channel this loop
        // drains, and the cursor hands out each chunk index once, so every
        // worker leaves its loop after finitely many chunks and drops its
        // sender, returning or unwinding from a panic. `recv` therefore
        // fails once every chunk that will ever be sent has arrived.
        while let Ok(chunk) = rx.recv() {
            #[cfg(test)]
            HANDOFFS.with(|n| n.set(n.get() + 1));
            if let Some(t) = &self.config.telemetry {
                let docs = chunk.facts.len();
                t.curate_queue
                    .set((queued.fetch_sub(docs, Ordering::Relaxed) - docs) as f64);
            }
            pending.insert(chunk.index, chunk);
            while let Some(chunk) = pending.remove(&next) {
                self.admit_chunk(chunk);
                next += 1;
            }
        }
        // Every sender is gone: a chunk still owed is one whose worker
        // panicked before sending it. Never return a report without it.
        assert!(
            next == chunks,
            "curation chunk {next} of {chunks} never arrived: its worker stopped before sending it"
        );

        self.report.shards = self.writer.finish();
        (self.report, self.kept_seq)
    }

    fn admit_chunk(&mut self, chunk: ChunkFacts) {
        let bands = self.config.bands;
        let first = chunk.index * CHUNK;
        for ((offset, facts), keys) in chunk
            .facts
            .into_iter()
            .enumerate()
            .zip(chunk.band_keys.chunks_exact(bands))
        {
            let started = self.config.telemetry.as_ref().map(|_| Instant::now());
            self.admit(first + offset, facts, keys);
            if let (Some(t), Some(started)) = (&self.config.telemetry, started) {
                t.curate_seconds.observe(started.elapsed().as_secs_f64());
            }
        }
    }

    fn admit(&mut self, seq: usize, facts: Facts, keys: &[u64]) {
        let doc = &self.docs[seq];
        let report = &mut self.report;
        report.ingested += 1;
        report.ingested_bytes += doc.text.len();
        let source_idx = match report
            .per_source
            .iter()
            .position(|(name, _)| *name == doc.source)
        {
            Some(i) => i,
            None => {
                report
                    .per_source
                    .push((doc.source.clone(), SourceCounts::default()));
                report.per_source.len() - 1
            }
        };
        report.per_source[source_idx].1.ingested += 1;

        let drop_reason = if !facts.score.parsed {
            Some(DropReason::Parse)
        } else if facts.score.quality < self.config.min_quality {
            Some(DropReason::Quality)
        } else if !self.exact.insert_hashed(facts.hash, &doc.text) {
            Some(DropReason::ExactDup)
        } else {
            match self.near.offer_keyed(Cow::Owned(facts.signature), keys) {
                NearVerdict::Kept(idx) => {
                    debug_assert_eq!(idx, self.kept_seq.len());
                    self.kept_seq.push(seq);
                    None
                }
                NearVerdict::Duplicate { of, estimate } => {
                    report
                        .near_dup_pairs
                        .push((seq, self.kept_seq[of], estimate));
                    Some(DropReason::NearDup)
                }
            }
        };

        let telemetry = self.config.telemetry.as_ref();
        match drop_reason {
            Some(DropReason::Parse) => {
                report.parse_failed += 1;
                if let Some(t) = telemetry {
                    t.dropped_parse.inc();
                }
            }
            Some(DropReason::Quality) => {
                report.quality_rejected += 1;
                if let Some(t) = telemetry {
                    t.dropped_quality.inc();
                }
            }
            Some(DropReason::ExactDup) => {
                report.exact_dups += 1;
                if let Some(t) = telemetry {
                    t.dropped_exact.inc();
                }
            }
            Some(DropReason::NearDup) => {
                report.near_dups += 1;
                if let Some(t) = telemetry {
                    t.dropped_near.inc();
                }
            }
            None => {
                report.kept += 1;
                report.kept_bytes += doc.text.len();
                report.per_source[source_idx].1.kept += 1;
                let bin = ((facts.score.quality * 10.0) as usize).min(9);
                report.quality_hist[bin] += 1;
                self.writer.add(&doc.source, &doc.text);
                if let Some(t) = telemetry {
                    t.kept.inc();
                    t.kept_bytes.add(doc.text.len() as u64);
                }
            }
        }
    }
}

/// Flattens a built corpus' YAML channels into pipeline input, in the
/// deterministic channel order the corpus assembler produced them.
pub fn corpus_docs(corpus: &Corpus) -> Vec<InputDoc> {
    let mut docs = Vec::new();
    let channels: [(&str, DocKind, &[String]); 4] = [
        ("galaxy", DocKind::Ansible, &corpus.galaxy),
        ("gitlab", DocKind::Ansible, &corpus.gitlab),
        ("github", DocKind::Ansible, &corpus.github_ansible),
        ("generic", DocKind::Generic, &corpus.generic),
    ];
    for (source, kind, texts) in channels {
        for text in texts {
            docs.push(InputDoc {
                source: source.to_string(),
                kind,
                text: text.clone(),
            });
        }
    }
    docs
}

/// Recursively collects `*.yml` / `*.yaml` files under `root` (sorted walk,
/// so ingest order is stable across platforms) as [`DocKind::Auto`] input.
pub fn disk_docs(root: &std::path::Path) -> std::io::Result<Vec<InputDoc>> {
    let mut docs = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(|e| e.path());
        for entry in entries {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("yml") | Some("yaml")
            ) {
                docs.push(InputDoc {
                    source: format!("disk:{}", path.display()),
                    kind: DocKind::Auto,
                    text: std::fs::read_to_string(&path)?,
                });
            }
        }
    }
    Ok(docs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::unframe;

    fn doc(source: &str, kind: DocKind, text: &str) -> InputDoc {
        InputDoc {
            source: source.to_string(),
            kind,
            text: text.to_string(),
        }
    }

    fn small_input() -> Vec<InputDoc> {
        vec![
            doc(
                "galaxy",
                DocKind::Ansible,
                "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n",
            ),
            doc("galaxy", DocKind::Ansible, "broken: [yaml\n"),
            doc(
                "galaxy",
                DocKind::Ansible,
                "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n",
            ),
            doc("generic", DocKind::Generic, "stages:\n  - build\n  - test\n"),
        ]
    }

    #[test]
    fn filters_dedups_and_keeps() {
        let report = curate(small_input(), &CurationConfig::default());
        assert_eq!(report.ingested, 4);
        assert_eq!(report.parse_failed, 1);
        assert_eq!(report.exact_dups, 1);
        assert_eq!(report.kept, 2);
        assert_eq!(report.kept_docs.len(), 2);
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.shards[0].docs, 2);
    }

    #[test]
    fn near_duplicates_are_dropped_with_provenance() {
        let base = "- name: Install nginx on the web tier\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n    update_cache: true\n- name: Start the nginx service\n  ansible.builtin.service:\n    name: nginx\n    state: started\n    enabled: true\n";
        let near = base.replace("state: started", "state: restarted");
        let input = vec![
            doc("galaxy", DocKind::Ansible, base),
            doc("galaxy", DocKind::Ansible, &near),
        ];
        let report = curate(input, &CurationConfig::default());
        assert_eq!(report.kept, 1);
        assert_eq!(report.near_dups, 1);
        assert_eq!(report.near_dup_pairs.len(), 1);
        let (dropped, kept_of, est) = report.near_dup_pairs[0];
        assert_eq!((dropped, kept_of), (1, 0));
        assert!(est > 0.7, "estimate {est}");
    }

    #[test]
    fn quality_floor_rejects_bad_ansible() {
        let input = vec![doc(
            "galaxy",
            DocKind::Ansible,
            "- name: Ping\n  ansible.builtin.ping: {}\n  totally_bogus: 1\n  also_bogus: 2\n  more_bogus: 3\n",
        )];
        let config = CurationConfig {
            min_quality: 0.6,
            ..CurationConfig::default()
        };
        let report = curate(input, &config);
        assert_eq!(report.quality_rejected, 1);
        assert_eq!(report.kept, 0);
    }

    #[test]
    fn manifest_is_deterministic_json() {
        let a = curate(small_input(), &CurationConfig::default());
        let b = curate(small_input(), &CurationConfig::default());
        assert_eq!(a.manifest_json(), b.manifest_json());
        assert!(a.manifest_json().contains("\"ingested\": 4"));
    }

    #[test]
    fn telemetry_counters_track_report() {
        let registry = Registry::new();
        let config = CurationConfig {
            workers: 2,
            telemetry: Some(CurationTelemetry::new(&registry)),
            ..CurationConfig::default()
        };
        let report = curate(small_input(), &config);
        let text = registry.render();
        let sample = |series: &str| wisdom_telemetry::sample_value(&text, series).unwrap_or(0.0);
        assert_eq!(
            sample("wisdom_curation_docs_total{stage=\"ingest\"}") as usize,
            report.ingested
        );
        assert_eq!(
            sample("wisdom_curation_docs_total{stage=\"kept\"}") as usize,
            report.kept
        );
        assert_eq!(
            sample("wisdom_curation_dropped_total{reason=\"parse\"}") as usize,
            report.parse_failed
        );
        assert_eq!(
            sample("wisdom_curation_dropped_total{reason=\"exact_dup\"}") as usize,
            report.exact_dups
        );
        assert_eq!(
            sample("wisdom_curation_bytes_total{stage=\"ingest\"}") as usize,
            report.ingested_bytes
        );
        // Both stage histograms observe every document once.
        for stage in ["process", "curate"] {
            assert_eq!(
                sample(&format!(
                    "wisdom_curation_stage_seconds_count{{stage=\"{stage}\"}}"
                )) as usize,
                report.ingested,
                "{stage}"
            );
        }
        // After the pass nothing is unclaimed and nothing is queued.
        assert_eq!(sample("wisdom_curation_queue_depth{queue=\"parse\"}"), 0.0);
        assert_eq!(sample("wisdom_curation_queue_depth{queue=\"curate\"}"), 0.0);
    }

    #[test]
    fn a_pass_hands_over_one_message_per_chunk() {
        let corpus = Corpus::build(&wisdom_corpus::CorpusSpec::scaled(0xF00D, 4000));
        let docs = corpus_docs(&corpus);
        let bound = docs.len().div_ceil(CHUNK);
        let mut per_pass = Vec::new();
        for workers in [1, 2, 4] {
            for queue_depth in [1, 64, 256] {
                let config = CurationConfig {
                    workers,
                    queue_depth,
                    keep_texts: false,
                    ..CurationConfig::default()
                };
                HANDOFFS.with(|n| n.set(0));
                let report = curate(docs.clone(), &config);
                assert_eq!(report.ingested, docs.len());
                let handoffs = HANDOFFS.with(|n| n.get());
                assert!(
                    handoffs <= bound,
                    "{handoffs} hand-offs for {} documents at {workers} workers, queue depth {queue_depth}",
                    docs.len()
                );
                per_pass.push(handoffs);
            }
        }
        // scripts/check.sh prints this line, so a change to the hand-off
        // unit shows in the gate's log.
        println!(
            "curation: {} docs, {} hand-offs per pass",
            docs.len(),
            per_pass.iter().max().expect("nine passes")
        );
    }

    #[test]
    fn a_chunk_whose_worker_died_is_named_not_skipped() {
        // A zero shingle width panics every worker on its first document,
        // so chunk 0 is owed when the last sender goes.
        let docs: Vec<InputDoc> = (0..3 * CHUNK)
            .map(|i| doc("galaxy", DocKind::Generic, &format!("key_{i}: {i}\n")))
            .collect();
        let config = CurationConfig {
            workers: 2,
            shingle_k: 0,
            ..CurationConfig::default()
        };
        let payload = std::panic::catch_unwind(|| curate(docs, &config))
            .expect_err("a pass missing a chunk must not return a report");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(
            message.contains("curation chunk 0 of 3 never arrived"),
            "panic message: {message:?}"
        );
    }

    #[test]
    fn disk_docs_walks_sorted() {
        let dir = std::env::temp_dir().join(format!("wisdom-curation-disk-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("sub")).expect("mkdir");
        std::fs::write(dir.join("b.yml"), "b: 1\n").expect("write");
        std::fs::write(dir.join("a.yaml"), "a: 1\n").expect("write");
        std::fs::write(dir.join("sub/c.yml"), "c: 1\n").expect("write");
        std::fs::write(dir.join("ignored.txt"), "nope").expect("write");
        let docs = disk_docs(&dir).expect("walk");
        let names: Vec<&str> = docs
            .iter()
            .map(|d| d.source.rsplit('/').next().unwrap())
            .collect();
        assert_eq!(names, vec!["a.yaml", "b.yml", "c.yml"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[cfg(unix)] // line breaks and backslashes in file names
    fn file_names_with_header_syntax_survive_the_shards() {
        let dir =
            std::env::temp_dir().join(format!("wisdom-curation-names-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let names = [
            "x bytes=1.yml",
            "line\nbreak.yml",
            "carriage\r\nreturn bytes=7.yaml",
            "back\\slash\\n.yml",
        ];
        for (i, name) in names.iter().enumerate() {
            let text = format!("entry_{i}:\n  owner: team_{i}\n  tier_{i}: level_{i}\n");
            std::fs::write(dir.join(name), text).expect("write");
        }
        let docs = disk_docs(&dir).expect("walk");
        assert_eq!(docs.len(), names.len());
        let config = CurationConfig {
            min_quality: 0.0,
            ..CurationConfig::default()
        };
        let report = curate(docs.clone(), &config);
        assert_eq!(report.kept, names.len());
        let framed: Vec<(String, String)> = report.shards.iter().flat_map(unframe).collect();
        let expected: Vec<(String, String)> =
            docs.into_iter().map(|d| (d.source, d.text)).collect();
        assert_eq!(framed, expected);
        std::fs::remove_dir_all(&dir).ok();
    }
}
