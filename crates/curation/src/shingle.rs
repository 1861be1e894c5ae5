//! Token shingling and MinHash signatures for near-duplicate detection.
//!
//! A document is reduced to its set of `k`-token shingles (hashed to
//! `u64`), and the shingle set is sketched by a MinHash signature: for each
//! of `H` seeded hash functions, the minimum hash value over the set. The
//! fraction of agreeing signature lanes is an unbiased estimator of the
//! Jaccard similarity between the shingle sets (standard error
//! `sqrt(j(1-j)/H)`), which is what lets the pipeline compare millions of
//! document pairs without touching the texts.

use wisdom_prng::Prng;

/// Splits text into the word tokens shingling operates on: maximal runs of
/// alphanumeric / `_` / `.` characters, lowercased. YAML punctuation
/// (colons, dashes, braces) is treated as separators so that
/// formatting-only differences (flow vs block style, indentation) do not
/// perturb the shingle set.
///
/// [`shingle_set`] reads the same tokens without materializing them; this
/// is the reference its property tests compare against.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() || ch == '_' || ch == '.' {
            current.extend(ch.to_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The tokens of [`tokenize`] in one buffer: each token's lowercased bytes
/// followed by a `0xff` separator (a byte UTF-8 never contains), plus the
/// offset where each token starts and, last, the buffer's length. Tokens
/// `t..t + k` are then the single slice `bytes[starts[t]..starts[t + k]]`.
///
/// ASCII bytes are classified and lowercased without decoding; other
/// characters go through `char::to_lowercase` encoded as UTF-8, the bytes
/// `tokenize` produces.
fn token_bytes(text: &str) -> (Vec<u8>, Vec<usize>) {
    let src = text.as_bytes();
    let mut bytes = Vec::with_capacity(src.len() + 1);
    let mut starts = vec![0];
    let mut in_token = false;
    let mut i = 0;
    while i < src.len() {
        let b = src[i];
        let word = if b.is_ascii() {
            i += 1;
            let word = b.is_ascii_alphanumeric() || b == b'_' || b == b'.';
            if word {
                bytes.push(b.to_ascii_lowercase());
            }
            word
        } else {
            let ch = text[i..]
                .chars()
                .next()
                .expect("i advances by whole characters");
            i += ch.len_utf8();
            let word = ch.is_alphanumeric();
            if word {
                let mut utf8 = [0u8; 4];
                for lower in ch.to_lowercase() {
                    bytes.extend_from_slice(lower.encode_utf8(&mut utf8).as_bytes());
                }
            }
            word
        };
        if in_token && !word {
            bytes.push(0xff);
            starts.push(bytes.len());
        }
        in_token = word;
    }
    if in_token {
        bytes.push(0xff);
        starts.push(bytes.len());
    }
    (bytes, starts)
}

/// The set of hashed `k`-token shingles of `text`, sorted and deduplicated.
///
/// Documents shorter than `k` tokens contribute one shingle over whatever
/// tokens they have, so even tiny files get a non-empty set. A shingle's
/// hash is FNV-1a over each of its tokens' bytes followed by a `0xff`
/// separator.
pub fn shingle_set(text: &str, k: usize) -> Vec<u64> {
    assert!(k > 0, "shingle width must be positive");
    let (bytes, starts) = token_bytes(text);
    let hash = |first: usize, end: usize| fnv1a(&bytes[starts[first]..starts[end]], FNV_OFFSET);
    let tokens = starts.len() - 1;
    let mut set: Vec<u64> = if tokens <= k {
        vec![hash(0, tokens)]
    } else {
        (0..=tokens - k)
            .map(|first| hash(first, first + k))
            .collect()
    };
    set.sort_unstable();
    set.dedup();
    set
}

/// Exact Jaccard similarity of two sorted shingle sets.
pub fn jaccard(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// A seeded family of `H = bands * rows` MinHash functions plus the LSH
/// banding geometry. All signatures compared against each other must come
/// from the same `MinHasher` (same seed, same geometry).
#[derive(Debug, Clone)]
pub struct MinHasher {
    /// Per-lane 64-bit mixing seeds, derived from the pipeline seed via
    /// `wisdom-prng` so the whole sketch is reproducible.
    lane_seeds: Vec<u64>,
    bands: usize,
    rows: usize,
}

/// A MinHash signature: one minimum per hash lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature(pub Vec<u64>);

#[inline(always)]
fn mix64(mut x: u64) -> u64 {
    // SplitMix64 finalizer: a cheap, well-distributed 64-bit permutation.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Folds every shingle into `sig`, lane by lane. The lane loop is innermost
/// and branchless so it vectorizes; its integer ops give the same result at
/// any vector width.
#[inline(always)]
fn min_hash_into(lane_seeds: &[u64], shingles: &[u64], sig: &mut [u64]) {
    for &s in shingles {
        for (min, &seed) in sig.iter_mut().zip(lane_seeds) {
            *min = (*min).min(mix64(s ^ seed));
        }
    }
}

/// [`min_hash_into`] compiled for AVX-512F/DQ, which has the 64-bit vector
/// multiply and unsigned min the lane loop needs. Same body, no intrinsics.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn min_hash_into_avx512(lane_seeds: &[u64], shingles: &[u64], sig: &mut [u64]) {
    min_hash_into(lane_seeds, shingles, sig);
}

impl MinHasher {
    /// Creates a hasher with `bands * rows` lanes, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `bands == 0` or `rows == 0`.
    pub fn new(seed: u64, bands: usize, rows: usize) -> Self {
        assert!(bands > 0 && rows > 0, "bands and rows must be positive");
        let mut rng = Prng::seed_from_u64(seed ^ 0x6d69_6e68_6173_6821);
        let lane_seeds = (0..bands * rows).map(|_| rng.u64()).collect();
        Self {
            lane_seeds,
            bands,
            rows,
        }
    }

    /// Number of signature lanes.
    pub fn lanes(&self) -> usize {
        self.lane_seeds.len()
    }

    /// LSH bands.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Rows (lanes) per band.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Computes the signature of a sorted shingle set.
    ///
    /// An empty set signs as all-`u64::MAX`, agreeing fully with other
    /// empty sets and (almost surely) with nothing else. Hosts with
    /// AVX-512F/DQ run the lane loop eight lanes to a vector; the result is
    /// bit-identical to [`signature_portable`](Self::signature_portable).
    pub fn signature(&self, shingles: &[u64]) -> Signature {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            let mut sig = vec![u64::MAX; self.lane_seeds.len()];
            // SAFETY: the only precondition of the twin is that the host
            // supports the features it was compiled for, detected just above.
            unsafe { min_hash_into_avx512(&self.lane_seeds, shingles, &mut sig) };
            return Signature(sig);
        }
        self.signature_portable(shingles)
    }

    /// [`signature`](Self::signature) through the portable lane loop on
    /// every host — the twin the AVX-512 build must equal bit for bit.
    /// Exposed so the property suites can pin both arms on any host.
    #[doc(hidden)]
    pub fn signature_portable(&self, shingles: &[u64]) -> Signature {
        let mut sig = vec![u64::MAX; self.lane_seeds.len()];
        min_hash_into(&self.lane_seeds, shingles, &mut sig);
        Signature(sig)
    }

    /// Estimates Jaccard similarity as the fraction of agreeing lanes.
    pub fn estimate(&self, a: &Signature, b: &Signature) -> f64 {
        debug_assert_eq!(a.0.len(), b.0.len());
        let agree = a.0.iter().zip(&b.0).filter(|(x, y)| x == y).count();
        agree as f64 / a.0.len() as f64
    }

    /// Replaces the contents of `keys` with the per-band bucket keys of a
    /// signature: one FNV hash over each band's `rows` lanes. Two documents
    /// are LSH candidates iff they share at least one band key.
    pub fn band_keys_into(&self, sig: &Signature, keys: &mut Vec<u64>) {
        keys.clear();
        keys.extend(sig.0.chunks(self.rows).map(|band| {
            band.iter()
                .fold(FNV_OFFSET, |h, lane| fnv1a(&lane.to_le_bytes(), h))
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_ignores_yaml_punctuation() {
        let a = tokenize("- name: Install nginx\n  apt: {name: nginx}\n");
        let b = tokenize("-   name:   install NGINX\n  apt:\n    name: nginx\n");
        assert_eq!(a, b);
        assert_eq!(a, vec!["name", "install", "nginx", "apt", "name", "nginx"]);
    }

    #[test]
    fn identical_docs_have_jaccard_one() {
        let s = shingle_set(
            "- name: Start service\n  service: name=web state=started\n",
            3,
        );
        assert_eq!(jaccard(&s, &s), 1.0);
    }

    #[test]
    fn disjoint_docs_have_jaccard_zero() {
        let a = shingle_set("alpha beta gamma delta epsilon", 3);
        let b = shingle_set("one two three four five", 3);
        assert_eq!(jaccard(&a, &b), 0.0);
    }

    #[test]
    fn short_docs_still_shingle() {
        let s = shingle_set("ping", 3);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn signature_is_deterministic_and_seed_sensitive() {
        let set = shingle_set("install configure start enable verify restart", 2);
        let h1 = MinHasher::new(7, 8, 4);
        let h2 = MinHasher::new(7, 8, 4);
        let h3 = MinHasher::new(8, 8, 4);
        assert_eq!(h1.signature(&set), h2.signature(&set));
        assert_ne!(h1.signature(&set), h3.signature(&set));
    }

    #[test]
    fn estimate_tracks_true_jaccard_for_identical_and_disjoint() {
        let h = MinHasher::new(3, 16, 4);
        let a = shingle_set("alpha beta gamma delta epsilon zeta eta theta", 2);
        let b = shingle_set("uno dos tres cuatro cinco seis siete ocho", 2);
        assert_eq!(h.estimate(&h.signature(&a), &h.signature(&a)), 1.0);
        assert!(h.estimate(&h.signature(&a), &h.signature(&b)) < 0.1);
    }

    #[test]
    fn band_keys_have_band_count() {
        let h = MinHasher::new(1, 8, 4);
        let sig = h.signature(&shingle_set("a b c d e f", 2));
        let mut keys = vec![7; 3];
        h.band_keys_into(&sig, &mut keys);
        assert_eq!(keys.len(), 8);
    }
}
