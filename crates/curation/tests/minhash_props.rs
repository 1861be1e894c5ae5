//! Property tests for the MinHash near-dedup machinery.
//!
//! Three contracts back the pipeline's dedup guarantees:
//!
//! 1. the signature-agreement estimator tracks the true shingle Jaccard
//!    within statistical tolerance (`se = sqrt(j(1-j)/H)`);
//! 2. LSH banding recalls injected near-duplicates whose true Jaccard is at
//!    least the 0.8 target;
//! 3. documents with disjoint vocabularies are never dropped (no false
//!    positives among genuinely distinct docs).
//!
//! Below those, each fast path is pinned to a reference: `shingle_set` to
//! shingling over `tokenize`'s strings, the dispatched `signature` to the
//! portable lane loop, and the flat `NearDedup` index to the bucket-of-
//! vectors index it replaced.

use std::collections::HashMap;

use proptest::prelude::*;
use wisdom_corpus::{Corpus, CorpusSpec};
use wisdom_curation::{
    corpus_docs, jaccard, shingle_set, tokenize, ExactDedup, MinHasher, NearDedup, NearVerdict,
    Signature,
};

const BANDS: usize = 32;
const ROWS: usize = 4;
const LANES: usize = BANDS * ROWS;

/// Builds a document from word ids: `w17 w3 w99 …` with line breaks so the
/// tokenizer sees it like YAML-ish text.
fn doc_from_words(words: &[u32], prefix: &str) -> String {
    let mut s = String::new();
    for (i, w) in words.iter().enumerate() {
        s.push_str(&format!("{prefix}{w}"));
        s.push(if i % 8 == 7 { '\n' } else { ' ' });
    }
    s.push('\n');
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// |estimated − true| stays within five standard errors (+ a small
    /// discretization allowance) of the true Jaccard, across overlapping
    /// word streams of varied length and overlap.
    #[test]
    fn estimate_tracks_true_jaccard(
        seed in 0u64..1_000_000,
        shared_len in 20usize..160,
        a_extra in 0usize..80,
        b_extra in 0usize..80,
    ) {
        let shared: Vec<u32> = (0..shared_len as u32).collect();
        let a_words: Vec<u32> = shared.iter().copied()
            .chain((0..a_extra as u32).map(|i| 10_000 + i))
            .collect();
        let b_words: Vec<u32> = shared.iter().copied()
            .chain((0..b_extra as u32).map(|i| 20_000 + i))
            .collect();
        let a = shingle_set(&doc_from_words(&a_words, "w"), 3);
        let b = shingle_set(&doc_from_words(&b_words, "w"), 3);
        let true_j = jaccard(&a, &b);

        let hasher = MinHasher::new(seed, BANDS, ROWS);
        let est = hasher.estimate(&hasher.signature(&a), &hasher.signature(&b));

        let se = (true_j * (1.0 - true_j) / LANES as f64).sqrt();
        let tolerance = 5.0 * se + 0.04;
        prop_assert!(
            (est - true_j).abs() <= tolerance,
            "estimate {est:.3} vs true {true_j:.3} (tolerance {tolerance:.3})"
        );
    }

    /// A mutated copy whose true shingle Jaccard stays ≥ 0.8 is recalled as
    /// a near-duplicate of its original.
    #[test]
    fn lsh_recalls_injected_near_duplicates(
        seed in 0u64..1_000_000,
        len in 60usize..200,
        mutations in 1usize..4,
    ) {
        let words: Vec<u32> = (0..len as u32).collect();
        let base = doc_from_words(&words, "w");
        // Mutate a few spread-out words: each kills at most k=3 shingles.
        let mut mutated_words = words.clone();
        for m in 0..mutations {
            let pos = (m * len) / mutations + m;
            mutated_words[pos.min(len - 1)] = 90_000 + m as u32;
        }
        let mutated = doc_from_words(&mutated_words, "w");

        let base_set = shingle_set(&base, 3);
        let mut_set = shingle_set(&mutated, 3);
        let true_j = jaccard(&base_set, &mut_set);
        // (no prop_assume in the vendored proptest: skip sub-target pairs)
        if true_j >= 0.8 {
            let hasher = MinHasher::new(seed, BANDS, ROWS);
            let floor = NearDedup::floor_for_target(0.8, hasher.lanes());
            let mut near = NearDedup::new(hasher.clone(), floor);
            prop_assert!(matches!(near.offer(&hasher.signature(&base_set)), NearVerdict::Kept(0)));
            let verdict = near.offer(&hasher.signature(&mut_set));
            prop_assert!(
                matches!(verdict, NearVerdict::Duplicate { of: 0, .. }),
                "true Jaccard {true_j:.3} escaped as {verdict:?}"
            );
        }
    }

    /// Documents built from pairwise-disjoint vocabularies are all kept:
    /// the near-dedup stage never drops a genuinely distinct document.
    #[test]
    fn no_false_drops_among_disjoint_docs(
        seed in 0u64..1_000_000,
        count in 2usize..24,
        len in 10usize..60,
    ) {
        let hasher = MinHasher::new(seed, BANDS, ROWS);
        let floor = NearDedup::floor_for_target(0.8, hasher.lanes());
        let mut near = NearDedup::new(hasher.clone(), floor);
        for d in 0..count {
            let words: Vec<u32> = (0..len as u32).collect();
            // Per-document word prefix makes vocabularies disjoint.
            let text = doc_from_words(&words, &format!("doc{d}word"));
            let sig = hasher.signature(&shingle_set(&text, 3));
            let verdict = near.offer(&sig);
            prop_assert!(
                matches!(verdict, NearVerdict::Kept(idx) if idx == d),
                "distinct doc {d} was dropped: {verdict:?}"
            );
        }
    }
}

/// The reference shingler, over `tokenize`'s strings: FNV-1a over each
/// token followed by a `0xff` separator, per `k`-token window.
fn reference_shingle_set(text: &str, k: usize) -> Vec<u64> {
    let fnv = |bytes: &[u8], mut h: u64| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    };
    let hash = |window: &[String]| {
        window.iter().fold(0xcbf2_9ce4_8422_2325, |h, t| {
            fnv(&[0xff], fnv(t.as_bytes(), h))
        })
    };
    let tokens = tokenize(text);
    let mut set: Vec<u64> = if tokens.len() <= k {
        vec![hash(&tokens)]
    } else {
        tokens.windows(k).map(hash).collect()
    };
    set.sort_unstable();
    set.dedup();
    set
}

/// The index `NearDedup` replaced: one `Vec` of kept indices per
/// `(band, key)` bucket and a linear `checked` list per offer.
struct ReferenceNearDedup {
    hasher: MinHasher,
    floor: f64,
    buckets: HashMap<(u32, u64), Vec<usize>>,
    kept: Vec<Signature>,
    /// Offers whose best estimate was shared by more than one candidate.
    ties: usize,
}

impl ReferenceNearDedup {
    fn offer(&mut self, sig: &Signature) -> NearVerdict {
        let mut keys = Vec::new();
        self.hasher.band_keys_into(sig, &mut keys);
        let mut best: Option<(usize, f64)> = None;
        let mut estimates = Vec::new();
        let mut checked: Vec<usize> = Vec::new();
        for (band, &key) in keys.iter().enumerate() {
            if let Some(bucket) = self.buckets.get(&(band as u32, key)) {
                for &idx in bucket {
                    if checked.contains(&idx) {
                        continue;
                    }
                    checked.push(idx);
                    let est = self.hasher.estimate(sig, &self.kept[idx]);
                    estimates.push(est);
                    if est >= self.floor && best.map(|(_, b)| est > b).unwrap_or(true) {
                        best = Some((idx, est));
                    }
                }
            }
        }
        if let Some((of, estimate)) = best {
            if estimates.iter().filter(|&&e| e == estimate).count() > 1 {
                self.ties += 1;
            }
            return NearVerdict::Duplicate { of, estimate };
        }
        let idx = self.kept.len();
        for (band, key) in keys.into_iter().enumerate() {
            self.buckets
                .entry((band as u32, key))
                .or_default()
                .push(idx);
        }
        self.kept.push(sig.clone());
        NearVerdict::Kept(idx)
    }
}

/// Text over ASCII words, YAML punctuation and the characters whose
/// lowercase mappings are awkward: `İ` (two chars), `ß`, titlecase `ǅ`,
/// sigma in final position, ligatures, the Kelvin sign (lowercases to
/// ASCII), non-Latin digits and letters, runs of `Ⱥ` / `Ⱦ` (whose lowercase
/// is a byte longer), plus arbitrary code points.
const UNICODE_TEXT: &str = "([a-zA-Z0-9_.:\\- \n{}]{0,6}[İßǅΣσςﬁﬀĲK٣४߂ⅫÅÆΩ]{0,2}[ȺȾİ]{0,24}[\u{80}-\u{2fff}]{0,1}[\u{10000}-\u{10ffff}]{0,1}){0,30}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shingle_set_matches_tokenize_reference(text in UNICODE_TEXT, k in 1usize..9) {
        prop_assert_eq!(shingle_set(&text, k), reference_shingle_set(&text, k), "{:?}", text);
    }
}

/// The one-pass shingler agrees with the reference on every document of
/// the benchmark workload's corpus, at every width the chains' register
/// blocks split differently.
#[test]
fn shingle_set_matches_reference_on_the_benchmark_corpus() {
    let corpus = Corpus::build(&CorpusSpec::scaled(0xF00D, 1000));
    let docs = corpus_docs(&corpus);
    assert!(docs.len() > 1000, "{} documents", docs.len());
    for k in 1..=6 {
        for doc in &docs {
            assert_eq!(
                shingle_set(&doc.text, k),
                reference_shingle_set(&doc.text, k),
                "k = {k}: {:?}",
                doc.text
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every lane count from 1 to 130 — below, at and past multiples of
    /// eight — over empty, single-shingle and longer sets.
    #[test]
    fn signature_matches_portable_twin(
        seed in 0u64..1_000_000,
        shingles in prop::collection::vec(any::<u64>(), 0..64),
    ) {
        for lanes in 1..=130 {
            let hasher = MinHasher::new(seed, lanes, 1);
            for set in [&shingles[..], &shingles[..shingles.len().min(1)], &[]] {
                prop_assert_eq!(
                    hasher.signature(set),
                    hasher.signature_portable(set),
                    "{} lanes, {} shingles",
                    lanes,
                    set.len()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Signatures over a four-value lane alphabet, so buckets collide and
    /// estimates tie constantly: the flat index must return the reference
    /// verdict — same representative, same estimate — every time.
    #[test]
    fn flat_near_dedup_matches_reference_index(
        seed in 0u64..1_000_000,
        bands in 1usize..9,
        rows in 1usize..4,
        floor in 0.0f64..1.0,
        lanes_values in prop::collection::vec(0u64..4, 0..2400),
    ) {
        let hasher = MinHasher::new(seed, bands, rows);
        let lanes = hasher.lanes();
        let mut flat = NearDedup::new(hasher.clone(), floor);
        let mut reference = ReferenceNearDedup {
            hasher,
            floor,
            buckets: HashMap::new(),
            kept: Vec::new(),
            ties: 0,
        };
        for chunk in lanes_values.chunks_exact(lanes) {
            let sig = Signature(chunk.to_vec());
            prop_assert_eq!(flat.offer(&sig), reference.offer(&sig));
        }
        prop_assert_eq!(flat.len(), reference.kept.len());
    }
}

#[test]
fn flat_near_dedup_reference_sees_ties() {
    let hasher = MinHasher::new(3, 4, 2);
    let mut reference = ReferenceNearDedup {
        hasher: hasher.clone(),
        floor: 0.25,
        buckets: HashMap::new(),
        kept: Vec::new(),
        ties: 0,
    };
    let mut flat = NearDedup::new(hasher, 0.25);
    let mut rng = wisdom_prng::Prng::seed_from_u64(17);
    for _ in 0..400 {
        let sig = Signature((0..8).map(|_| rng.range_usize(0, 3) as u64).collect());
        assert_eq!(flat.offer(&sig), reference.offer(&sig));
    }
    assert!(reference.ties > 50, "only {} tied offers", reference.ties);
}

/// Each filter and index draws its own hash key, and no verdict may depend
/// on it: two instances in one process decide every offer alike, on the
/// benchmark corpus with an exact copy of every document after it.
#[test]
fn instances_with_different_hash_keys_decide_alike() {
    let corpus = Corpus::build(&CorpusSpec::scaled(0xF00D, 1000));
    let docs = corpus_docs(&corpus);
    let texts: Vec<&str> = docs
        .iter()
        .flat_map(|d| [d.text.as_str(), d.text.as_str()])
        .collect();
    let (mut a, mut b) = (ExactDedup::new(), ExactDedup::new());
    let exact_a: Vec<bool> = texts.iter().map(|t| a.insert(t)).collect();
    let exact_b: Vec<bool> = texts.iter().map(|t| b.insert(t)).collect();
    assert_eq!(exact_a, exact_b);
    assert_eq!(a.len(), b.len());
    assert!(exact_a.iter().filter(|&&fresh| !fresh).count() >= docs.len());

    let hasher = MinHasher::new(9, BANDS, ROWS);
    let floor = NearDedup::floor_for_target(0.8, hasher.lanes());
    let mut a = NearDedup::new(hasher.clone(), floor);
    let mut b = NearDedup::new(hasher.clone(), floor);
    let signatures: Vec<Signature> = docs
        .iter()
        .map(|d| hasher.signature(&shingle_set(&d.text, 3)))
        .collect();
    let near_a: Vec<NearVerdict> = signatures.iter().map(|s| a.offer(s)).collect();
    let near_b: Vec<NearVerdict> = signatures.iter().map(|s| b.offer(s)).collect();
    assert_eq!(near_a, near_b);
    let dropped = near_a
        .iter()
        .filter(|v| matches!(v, NearVerdict::Duplicate { .. }))
        .count();
    assert!(
        dropped > 0 && a.len() > dropped,
        "{dropped} of {} dropped",
        docs.len()
    );
}
